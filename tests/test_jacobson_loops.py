"""The shared peel, the stacked corrections and the batched verifiers
against their loop oracles.

Results are pinned array-equal to tests/jacobson_loops.py in both peel
orders over the corpus and its coefficient modules, on tables that fail
the bracket law and on phi that is not a cocycle too, where the two
orders differ; reports dict-equal, counterexamples included, on passing
and failing inputs, however the checks are chunked.
"""

import math

import numpy as np
import pytest

from rescoh import field, liealg, linalg, rescochain
from rescoh.field import verify_identities
from rescoh.gmod import RestrictedModule, adjoint_module, dual_module, hom_module, verify_module
from rescoh.classical import delta_cl_matrix
from rescoh.liealg import _peel, verify_restricted
from rescoh.linalg import sample_vectors
from rescoh.rescochain import (_form_cells, _vec_to_form, beta_induced, c2_from_vec, c3_from_vec,
                               eval_beta, eval_omega, psi_tilde, star_correction,
                               star_star_correction)

import jacobson_loops as loops
from conftest import CORPUS, coefficient_modules, nonzero_pi
from restricted_scans import perturbed_tables

PRIMES = [2, 3, 5, 7, 11, 13]
ORDERS = ("asc", "desc")


def points(L, count: int, tag: str) -> np.ndarray:
    """count seeded vectors, then the zero vector, a one-component vector
    on each basis element and a vector with every coordinate nonzero."""
    n, p = L.n, L.p
    one = np.diag(1 + sample_vectors(p - 1, n, 1, f"{tag}-one")[0])
    full = 1 + sample_vectors(p - 1, n, 1, f"{tag}-full")
    return np.vstack([sample_vectors(p, n, count, tag), L.zero()[None], one, full])


def cochains(L, M, tag: str):
    """A seeded degree-2 and degree-3 cochain of (L, M)."""
    n, p, m = L.n, L.p, M.m
    c2 = c2_from_vec(L, M, sample_vectors(p, (math.comb(n, 2) + n) * m, 1, f"c2-{tag}")[0])
    c3 = c3_from_vec(L, M, sample_vectors(p, (math.comb(n, 3) + n * n) * m, 1, f"c3-{tag}")[0])
    return c2, c3


def assert_matches_the_loops(L, M, c2, c3, pts, orders, label):
    """p_power, omega and beta in the given orders, psi-tilde (of the
    basis values of omega, as psi) and the induced beta, equal to the loop
    and recursion oracles at every point (pairs g, h run through the
    points forwards and backwards)."""
    psi = c2.omega_basis
    for g, h in zip(pts, pts[::-1]):
        for order in orders:
            assert np.array_equal(L.p_power(g, order), loops.p_power(L, g, order)), (label, g)
            assert np.array_equal(eval_omega(L, M, c2, g, order),
                                  loops.eval_omega(L, M, c2, g, order)), (label, order, g)
            assert np.array_equal(eval_beta(L, M, c3, g, h, order),
                                  loops.eval_beta(L, M, c3, g, h, order)), (label, order, g, h)
        assert np.array_equal(psi_tilde(L, M, psi, g), loops.psi_tilde(L, M, psi, g)), (label, g)
        assert np.array_equal(beta_induced(L, M, c2, g, h),
                              loops.beta_induced(L, M, c2, g, h)), (label, g, h)


@pytest.mark.parametrize("order", ORDERS)
def test_peel_matches_the_loop_and_the_recursions(corpus_entry, order):
    tag, L = corpus_entry
    pts = points(L, 6, f"peel-{tag}")
    for name, M in coefficient_modules(L):
        assert_matches_the_loops(L, M, *cochains(L, M, tag), pts, (order,), name)


def test_peel_of_zero_and_of_one_component():
    tag, L = next(e for e in CORPUS if e[0] == "witt_p5")
    _, M = coefficient_modules(L)[1]
    c2 = c2_from_vec(L, M, sample_vectors(5, 15 * 5, 1, "c2-edge")[0])
    c3 = c3_from_vec(L, M, sample_vectors(5, 35 * 5, 1, "c3-edge")[0])
    zero, e2 = L.zero(), 3 * L.basis_vector(2)
    for g, h in [(zero, e2), (e2, zero), (e2, e2), (zero, zero)]:
        assert np.array_equal(eval_omega(L, M, c2, g), loops.eval_omega(L, M, c2, g))
        assert np.array_equal(eval_beta(L, M, c3, g, h), loops.eval_beta(L, M, c3, g, h))
        assert np.array_equal(L.p_power(g), loops.p_power(L, g))
        assert np.array_equal(psi_tilde(L, M, c2.omega_basis, g),
                              loops.psi_tilde(L, M, c2.omega_basis, g))
        assert np.array_equal(beta_induced(L, M, c2, g, h), loops.beta_induced(L, M, c2, g, h))
    for x in (zero, e2, (e2 + L.basis_vector(4)) % 5):
        for order in ORDERS:
            A, R = _peel(x, order)
            assert A.shape == R.shape == (max(np.count_nonzero(x) - 1, 0), L.n)


def test_peel_stacks_in_both_orders():
    x = np.array([0, 4, 0, 2, 3], dtype=np.int64)
    A, R = _peel(x, "asc")
    assert A.tolist() == [[0, 4, 0, 0, 0], [0, 0, 0, 2, 0]]
    assert R.tolist() == [[0, 0, 0, 2, 3], [0, 0, 0, 0, 3]]
    A, R = _peel(x, "desc")
    assert A.tolist() == [[0, 0, 0, 0, 3], [0, 0, 0, 2, 0]]
    assert R.tolist() == [[0, 4, 0, 2, 0], [0, 4, 0, 0, 0]]


def test_stacked_corrections_sum_the_single_pair_oracles(corpus_entry):
    # any stack of pairs, not only a peel: each correction is the sum of
    # the single-pair corrections of its rows, for 0 to 4 rows
    tag, L = corpus_entry
    n, p = L.n, L.p
    for name, M in coefficient_modules(L):
        m = M.m
        for k in range(5):
            A, R, g = np.split(sample_vectors(p, (2 * k + 1) * n, 1, f"stack{k}-{tag}-{name}")[0],
                               [k * n, 2 * k * n])
            A, R = A.reshape(k, n), R.reshape(k, n)
            phi = sample_vectors(p, n * n * m, 1, f"phi{k}-{tag}-{name}")[0].reshape(n, n, m)
            alpha = sample_vectors(p, n ** 3 * m, 1, f"alpha{k}-{tag}-{name}")[0].reshape(n, n, n, m)
            zero = np.zeros(m, dtype=np.int64)
            r2 = sum((loops.r2_correction(L, a, r) for a, r in zip(A, R)), L.zero()) % p
            star = sum((loops.star_correction(L, M, phi, a, r) for a, r in zip(A, R)), zero) % p
            star2 = sum((loops.star_star_correction(L, M, alpha, g, a, r) for a, r in zip(A, R)),
                        zero) % p
            assert np.array_equal(L._r2_correction(A, R), r2), (name, k)
            omega_corr, power_corr = star_correction(L, M, phi, A, R)
            assert np.array_equal(omega_corr, star), (name, k)
            assert np.array_equal(power_corr, r2), (name, k)
            assert np.array_equal(star_star_correction(L, M, alpha, g, A, R), star2), (name, k)


def test_orders_differ_on_a_non_cocycle_phi_as_in_the_loops():
    # Witt p=3 with adjoint coefficients: phi not closed separates the orders
    L = next(L for tag, L in CORPUS if tag == "witt_p3")
    M = adjoint_module(L)
    n, p, m = L.n, L.p, M.m
    nphi = math.comb(n, 2) * m
    d2cl = delta_cl_matrix(L, M, 2)
    pts = points(L, 12, "noncocycle-g")
    differ = 0
    for t in range(4):
        v = sample_vectors(p, nphi + n * m, 1, f"noncocycle-{t}")[0]
        assert (d2cl @ v[:nphi] % p).any()
        c2 = c2_from_vec(L, M, v)
        c3 = c3_from_vec(L, M, sample_vectors(p, (1 + n * n) * m, 1, f"noncocycle3-{t}")[0])
        assert_matches_the_loops(L, M, c2, c3, pts, ORDERS, t)
        differ += any(not np.array_equal(eval_omega(L, M, c2, g, "asc"),
                                         eval_omega(L, M, c2, g, "desc")) for g in pts)
    assert differ


def test_perturbed_tables_match_the_loops(corpus_entry):
    # tables that fail the bracket law, where x^[p] may depend on the order
    tag, L = corpus_entry
    for t, T in enumerate(perturbed_tables(L, 2, f"stacked-{tag}")):
        pts = points(T, 4, f"perturbed-{tag}-{t}")
        for name, M in coefficient_modules(L):
            M = RestrictedModule(T, M.rho)  # unchecked: T's table fails the module law too
            c2, c3 = cochains(T, M, f"perturbed-{tag}-{t}-{name}")
            assert_matches_the_loops(T, M, c2, c3, pts, ORDERS, (t, name))


def test_peel_refuses_an_unknown_order():
    L = next(L for tag, L in CORPUS if tag == "witt_p5")
    M = adjoint_module(L)
    c2, c3 = cochains(L, M, "order")
    for bad in ("ascending", "DESC", "", None):
        for x in (L.zero(), np.array([1, 2, 0, 0, 4])):
            for call in (lambda: L.p_power(x, bad), lambda: eval_omega(L, M, c2, x, bad),
                         lambda: eval_beta(L, M, c3, x, x, bad), lambda: _peel(x, bad)):
                with pytest.raises(ValueError, match="peel order"):
                    call()


def test_each_evaluation_peels_its_point_once(monkeypatch):
    # beta_induced reads h^[p] and omega(h) off one peel of h
    L = next(L for tag, L in CORPUS if tag == "witt_p5")
    M = adjoint_module(L)
    c2, c3 = cochains(L, M, "count")
    g, h = 1 + sample_vectors(L.p - 1, L.n, 2, "count-gh")
    peeled = []

    def counting(x, order="asc"):
        peeled.append(x.tolist())
        return _peel(x, order)

    monkeypatch.setattr(liealg, "_peel", counting)
    monkeypatch.setattr(rescochain, "_peel", counting)
    calls = {"p_power": (lambda: L.p_power(g), g),
             "eval_omega": (lambda: eval_omega(L, M, c2, g), g),
             "psi_tilde": (lambda: psi_tilde(L, M, c2.omega_basis, g), g),
             "eval_beta": (lambda: eval_beta(L, M, c3, g, h), h),
             "beta_induced": (lambda: beta_induced(L, M, c2, g, h), h)}
    for name, (call, point) in calls.items():
        peeled.clear()
        call()
        assert peeled == [point.tolist()], name


def test_matrix_of_is_one_product_with_a_read_only_table(corpus_entry):
    tag, L = corpus_entry
    A = adjoint_module(L)
    modules = [M for _, M in coefficient_modules(L)] + [dual_module(A)]
    if L.n <= 3:
        modules.append(hom_module(A, A))
    pts = points(L, 4, f"matrix-{tag}")
    for M in modules:
        for x in pts:
            assert np.array_equal(M.matrix_of(x), loops.matrix_of(M, x)), (tag, x)
            assert np.array_equal(M.matrix_of((x + L.p).tolist()), loops.matrix_of(M, x)), (tag, x)
        assert np.array_equal(M._act.reshape(M.rho.shape), M.rho)
        assert not M._act.flags.writeable
        with pytest.raises(ValueError):
            M._act[0, 0] = 1


def test_vec_to_form_matches_the_permutation_loop(corpus_entry):
    tag, L = corpus_entry
    for name, M in coefficient_modules(L):
        for k in (2, 3):
            for v in sample_vectors(L.p, math.comb(L.n, k) * M.m + 3, 3, f"form{k}-{tag}-{name}"):
                assert np.array_equal(_vec_to_form(L, M, v, k), loops.vec_to_form(L, M, v, k))
            for table in _form_cells(L.n, k):
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table.reshape(-1)[:1] = 0


def test_verify_restricted_matches_the_loop(corpus_entry):
    tag, L = corpus_entry
    tables = [L] + perturbed_tables(L, 4, f"oracle-{tag}")
    reports = [verify_restricted(T) for T in tables]
    assert reports == [loops.verify_restricted(T) for T in tables]
    if tag.startswith(("witt", "solvable")):  # no center: every moved entry breaks the table
        assert not any(rep["pass"] for rep in reports[1:])


def broken_modules(M, count: int, tag: str) -> list:
    """count copies of M, each with one action entry moved by a nonzero
    amount; the entry and the amount are seeded by tag."""
    L, m = M.L, M.m
    at = sample_vectors(L.n * m * m, 1, count, f"{tag}-at")[:, 0]
    by = 1 + sample_vectors(L.p - 1, 1, count, f"{tag}-by")[:, 0]
    out = []
    for k, d in zip(at, by):
        rho = M.rho.copy()
        rho.reshape(-1)[k] += d
        out.append(RestrictedModule(L, rho))
    return out


def test_verify_module_matches_the_loop(corpus_entry):
    tag, L = corpus_entry
    A = adjoint_module(L)
    modules = [M for _, M in coefficient_modules(L)] + [dual_module(A)]
    if L.n <= 3:
        modules.append(hom_module(A, A))
    modules += broken_modules(A, 6, f"oracle-{tag}")
    if L.is_abelian:
        # diagonal actions commute, so only the p-power law can fail
        diag = sample_vectors(L.p, 2 * L.n, 1, f"diag-{tag}")[0].reshape(L.n, 2)
        modules.append(RestrictedModule(L, [np.diag(d) for d in diag]))
    reports = [verify_module(M) for M in modules]
    assert reports == [loops.verify_module(M) for M in modules]


def test_verify_module_matches_the_loop_in_small_chunks(corpus_entry, monkeypatch):
    # a bound of 1 cell checks one pair or element at a time; 100 several
    tag, L = corpus_entry
    A = adjoint_module(L)
    modules = [M for _, M in coefficient_modules(L)] + [dual_module(A)]
    modules += broken_modules(A, 4, f"chunks-{tag}")
    expected = [loops.verify_module(M) for M in modules]
    for bound in (1, 7, 100):
        monkeypatch.setattr(linalg, "CHECK_CELLS", bound)
        assert [verify_module(M) for M in modules] == expected, bound


def test_failing_items_holds_at_most_the_bound_and_stops_at_a_failure(monkeypatch):
    monkeypatch.setattr(linalg, "CHECK_CELLS", 7)
    seen = []

    def residues(s):  # items 3 and 8 fail; 3 cells an item
        seen.append(s)
        return np.array([[k in (3, 8)] * 3 for k in range(10)][s])

    assert list(linalg._failing_items(10, 3, residues)) == [3, 8]
    assert [(s.start, s.stop) for s in seen] == [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10)]
    seen.clear()
    assert next(linalg._failing_items(10, 3, residues)) == 3
    assert len(seen) == 2
    assert list(linalg._failing_items(4, 50, residues)) == [3]  # one item a chunk at least


def test_verify_module_names_the_first_failing_pair():
    tag, L = next(e for e in CORPUS if e[0] == "witt_p7")
    rho = adjoint_module(L).rho.copy()
    rho[5, 0, 0] += 1
    rho[3, 1, 1] += 1
    M = RestrictedModule(L, rho)
    report = verify_module(M)
    assert report == loops.verify_module(M)
    assert report["checks"][0]["counterexample"] == {"i": 0, "j": 3}
    assert report["checks"][1]["counterexample"] == {"i": 3}


def test_verify_module_p_power_failure_only():
    L = next(L for tag, L in CORPUS if tag == "abelian2nz_p5")
    M = RestrictedModule(L, [np.diag([1, 2]), np.diag([0, 3])])
    report = verify_module(M)
    assert report == loops.verify_module(M)
    assert report["checks"][0]["pass"] and report["checks"][1]["counterexample"] == {"i": 0}
    assert (L.pi == nonzero_pi(2)).all()


@pytest.mark.parametrize("p", PRIMES)
def test_verify_identities_matches_the_loops(p):
    assert verify_identities(p) == loops.verify_identities(p)


@pytest.mark.parametrize("p", PRIMES)
def test_verify_identities_matches_the_loops_on_a_patched_binom_mod(p, monkeypatch):
    original = field.binom_mod
    monkeypatch.setattr(field, "binom_mod",
                        lambda a, b, q: (original(a, b, q) + (a == 2 and b == 1)) % q)
    report = verify_identities(p)
    assert report == loops.verify_identities(p)
    assert report[0]["pass"] == (p < 3)


@pytest.mark.parametrize("p", PRIMES)
def test_verify_identities_matches_the_loops_on_a_patched_comb(p, monkeypatch):
    # C(4, 2) off by one; every family reads it once p >= 5, and all but
    # reflection (which compares mod p) see it
    original = math.comb
    monkeypatch.setattr(math, "comb", lambda a, b: original(a, b) + (a == 4 and b == 2))
    report = verify_identities(p)
    expected = loops.verify_identities(p)
    monkeypatch.undo()
    assert report == expected
    if p >= 5:
        assert not any(ch["pass"] for ch in report[1:])
