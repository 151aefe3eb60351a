"""Restricted cochain complex: coboundaries, extensions, comparison map."""

import math

import numpy as np
import pytest

import rescoh.classical as classical
import rescoh.rescochain as rescochain
from rescoh.gmod import RestrictedModule, adjoint_module, invariants, trivial_module
from rescoh.liealg import (
    abelian_algebra,
    heisenberg_algebra,
    solvable2_algebra,
    witt_algebra,
)
from rescoh.abelres import (abelian_cochain_cohomology, aux_C_homology, build_resolution,
                            frakC_check, resolution_homology)
from rescoh.linalg import Complex, SparseMatrix, Subspace, nullspace, sample_vectors
from rescoh.rescochain import (
    Cochain2,
    RestrictedComplex,
    _alpha_eval,
    _phi_eval,
    beta_induced,
    c2_from_vec,
    c2_to_vec,
    c3_from_vec,
    c3_to_vec,
    compare_classical,
    delta1,
    delta1_matrix,
    delta2,
    delta2_matrix,
    eval_beta,
    eval_omega,
    psi_tilde,
    restricted_cohomology,
    star_correction,
    star_star_correction,
)

from rescoh.classical import classical_cohomology, cochain_tuples, delta_cl_matrix

import cochain_loops
import jacobson_loops
import quotients
from conftest import CORPUS, coefficient_modules, nonzero_pi
from dense_matmul import matmul_mod
from enumerations import star_enumeration, star_star_enumeration


def random_c2(L, M, tag):
    width = delta2_matrix(L, M).shape[1]
    return c2_from_vec(L, M, sample_vectors(L.p, width, 1, tag)[0])


def random_c3(L, M, tag):
    height = delta2_matrix(L, M).shape[0]
    return c3_from_vec(L, M, sample_vectors(L.p, height, 1, tag)[0])


def random_psi(L, M, tag):
    return sample_vectors(L.p, L.n * M.m, 1, tag)[0].reshape(L.n, M.m)


def test_coordinate_roundtrips():
    L, _ = witt_algebra(3)
    M = adjoint_module(L)
    v = sample_vectors(3, delta2_matrix(L, M).shape[1], 1, "c2rt")[0]
    assert (c2_to_vec(L, M, c2_from_vec(L, M, v)) == v).all()
    w = sample_vectors(3, delta2_matrix(L, M).shape[0], 1, "c3rt")[0]
    assert (c3_to_vec(L, M, c3_from_vec(L, M, w)) == w).all()


def test_tensors_are_alternating():
    L = heisenberg_algebra(5)
    M = adjoint_module(L)
    c2 = random_c2(L, M, "alt2")
    assert ((c2.phi + c2.phi.transpose(1, 0, 2)) % 5 == 0).all()
    c3 = random_c3(L, M, "alt3")
    a = c3.alpha
    assert ((a + a.transpose(1, 0, 2, 3)) % 5 == 0).all()
    assert ((a - a.transpose(1, 2, 0, 3)) % 5 == 0).all()
    for i in range(3):
        assert not a[i, i].any()


def test_matrix_shapes(corpus_entry):
    tag, L = corpus_entry
    n, m = L.n, 1
    M = trivial_module(L, 1)
    d1 = delta1_matrix(L, M)
    d2 = delta2_matrix(L, M)
    assert d1.shape == (n * (n + 1) // 2 * m, n * m), tag
    assert d2.shape == (n * (n + 1) * (n + 2) // 6 * m, n * (n + 1) // 2 * m), tag
    for size in {n, *range(6)}:
        for k in (1, 2, 3):
            tuples = cochain_tuples(size, k)
            assert len(tuples) == math.comb(size, k)
            # _tuple_index holds the same tuples, one index array per slot
            rows = np.stack(rescochain._tuple_index(size, k), axis=1).tolist()
            assert list(map(tuple, rows)) == tuples


def test_composites_vanish(corpus_entry):
    tag, L = corpus_entry
    for mname, M in coefficient_modules(L):
        d0 = delta_cl_matrix(L, M, 0)
        d1 = delta1_matrix(L, M)
        d2 = delta2_matrix(L, M)
        assert not matmul_mod(d1, d0, L.p).any(), (tag, mname)
        assert not matmul_mod(d2, d1, L.p).any(), (tag, mname)


def test_cochain_level_matches_matrices():
    # delta1/delta2 apply the matrices; the oracle loops evaluate the formulas
    def same(x, y):
        return x.dtype == y.dtype and np.array_equal(x, y)

    for tag, L in CORPUS:
        for mname, M in coefficient_modules(L):
            psi = random_psi(L, M, f"cm-{mname}")
            got, want = delta1(L, M, psi), cochain_loops.delta1(L, M, psi)
            assert same(got.phi, want.phi) and same(got.omega_basis, want.omega_basis), (tag, mname)
            c2 = random_c2(L, M, f"cm2-{mname}")
            got, want = delta2(L, M, c2), cochain_loops.delta2(L, M, c2)
            assert same(got.alpha, want.alpha) and same(got.beta_basis, want.beta_basis), (tag, mname)


def oracle_matrix(width, apply, to_vec):
    """The matrix of a linear oracle, read off its values on a basis."""
    return np.stack([to_vec(apply(e)) for e in np.eye(width, dtype=np.int64)], axis=1)


def test_kept_coboundaries_match_a_fresh_build_and_the_oracles(corpus_entry):
    tag, L = corpus_entry
    n = L.n
    for mname, M in coefficient_modules(L):
        fresh = RestrictedModule(L, M.rho)  # same action, nothing kept yet
        d1, d2 = delta1_matrix(L, M), delta2_matrix(L, M)
        assert delta1_matrix(L, M) is d1 and delta2_matrix(L, M) is d2, (tag, mname)
        loop1 = oracle_matrix(n * M.m, lambda e: cochain_loops.delta1(L, M, e.reshape(n, M.m)),
                              lambda c2: c2_to_vec(L, M, c2))
        loop2 = oracle_matrix(d2.shape[1], lambda e: cochain_loops.delta2(L, M, c2_from_vec(L, M, e)),
                              lambda c3: c3_to_vec(L, M, c3))
        for kept, rebuilt, loop in ((d1, delta1_matrix(L, fresh), loop1),
                                    (d2, delta2_matrix(L, fresh), loop2)):
            assert rebuilt is not kept
            assert np.array_equal(kept, rebuilt) and np.array_equal(kept, loop), (tag, mname)


def test_each_coboundary_of_a_module_is_built_once(monkeypatch):
    # Every entry point over one module reads the same kept matrices and groups.
    built = []

    def counting(fn, name):
        def wrapper(*args):
            built.append((name,) + args[2:])
            return fn(*args)
        return wrapper

    monkeypatch.setattr(classical, "delta_cl_matrix", counting(delta_cl_matrix, "cl"))
    monkeypatch.setattr(rescochain, "_psi_tilde_block", counting(rescochain._psi_tilde_block, "psi"))
    monkeypatch.setattr(rescochain, "_beta_block", counting(rescochain._beta_block, "beta"))
    L, _ = witt_algebra(5)  # a new algebra: nothing kept yet
    M = adjoint_module(L)
    d2 = delta2_matrix(L, M)
    for _ in range(3):
        psi = random_psi(L, M, "once")
        c3 = delta2(L, M, delta1(L, M, psi))
        assert not c3.alpha.any() and not c3.beta_basis.any()
        assert delta2_matrix(L, M) is d2 and RestrictedComplex(L, M).delta(2) is d2
        assert delta2_matrix(L, adjoint_module(L)) is d2
        for k in (1, 2):
            dim, reps = restricted_cohomology(L, M, k)
            assert compare_classical(L, M, k)[0].shape[1] == dim
            assert not reps.flags.writeable
    assert sorted(built) == [("beta",), ("cl", 0), ("cl", 1), ("cl", 2), ("psi",)]
    assert isinstance(d2, SparseMatrix)
    with pytest.raises(ValueError, match="read-only"):
        d2.vals[0] = 1


def test_delta2_delta1_cochain_level():
    L, _ = witt_algebra(3)
    M = adjoint_module(L)
    psi = random_psi(L, M, "dd")
    c3 = delta2(L, M, delta1(L, M, psi))
    assert not c3.alpha.any()
    assert not c3.beta_basis.any()


def test_psi_tilde_frozen_value():
    # witt p=3, adjoint, psi(D_1) = D_0 and zero elsewhere:
    # psi~(D_0 + D_1) = (D_0+D_1)^[3] . psi - (ad(D_0+D_1))^2 psi(D_0+D_1)
    #                 = D_0 - 2 D_1 = D_0 + D_1
    L, _ = witt_algebra(3)
    M = adjoint_module(L)
    psi = np.zeros((3, 3), dtype=np.int64)
    psi[1, 0] = 1
    assert (psi_tilde(L, M, psi, [1, 1, 0]) == [1, 1, 0]).all()
    assert not psi_tilde(L, M, psi, [1, 0, 0]).any()
    assert not psi_tilde(L, M, psi, [0, 1, 0]).any()


def test_delta1_omega_is_psi_tilde_on_basis():
    for L in (witt_algebra(5)[0], heisenberg_algebra(3)):
        for mname, M in coefficient_modules(L):
            psi = random_psi(L, M, f"om-{mname}")
            c2 = delta1(L, M, psi)
            for i in range(L.n):
                expect = psi_tilde(L, M, psi, L.basis_vector(i))
                assert (c2.omega_basis[i] == expect).all()


def _oracle_modules(L):
    # trivial and adjoint, plus an arbitrary action: the quadrature is an
    # identity of multilinear sums, so it must hold for any matrices, and
    # over an abelian algebra only a nonzero action leaves p > 2 terms alive
    p, n = L.p, L.n
    rho = sample_vectors(p, n * 4, 1, f"oracle-rho-{p}-{n}")[0].reshape(n, 2, 2)
    return coefficient_modules(L) + [("arbitrary", RestrictedModule(L, rho))]


@pytest.mark.parametrize(
    "entry",
    CORPUS + [("abelian3nz_p7", abelian_algebra(3, 7, pi=nonzero_pi(3)))],
    ids=lambda e: e[0],
)
def test_corrections_match_enumeration(entry):
    tag, L = entry
    p, n = L.p, L.n
    for mname, M in _oracle_modules(L):
        m = M.m
        phis = sample_vectors(p, n * n * m, 3, f"or-phi-{tag}-{mname}")
        alphas = sample_vectors(p, n ** 3 * m, 3, f"or-alpha-{tag}-{mname}")
        points = sample_vectors(p, 3 * n, 3, f"or-pts-{tag}-{mname}")
        for phi, alpha, pts in zip(phis, alphas, points):
            phi = phi.reshape(n, n, m)
            alpha = alpha.reshape(n, n, n, m)
            g, a, b = pts[:n], pts[n : 2 * n], pts[2 * n :]
            omega_corr, power_corr = star_correction(L, M, phi, a[None], b[None])
            assert np.array_equal(omega_corr, star_enumeration(L, M, phi, a, b)), (tag, mname, pts)
            assert np.array_equal(power_corr, L._r2_correction(a[None], b[None])), (tag, pts)
            assert np.array_equal(
                star_star_correction(L, M, alpha, g, a[None], b[None]),
                star_star_enumeration(L, M, alpha, g, a, b),
            ), (tag, mname, pts)


def test_star_property_of_psi_tilde():
    # psi~(a+b) - psi~(a) - psi~(b) equals the *-correction for delta_cl(psi)
    for L in (witt_algebra(3)[0], witt_algebra(5)[0], solvable2_algebra(5)):
        for mname, M in coefficient_modules(L):
            p, n = L.p, L.n
            psi = random_psi(L, M, f"star-{mname}")
            phi = delta1(L, M, psi).phi
            cases = zip(
                sample_vectors(p, n, 10, f"star-a-{mname}"),
                sample_vectors(p, n, 10, f"star-b-{mname}"),
            )
            for a, b in cases:
                lhs = (
                    psi_tilde(L, M, psi, (a + b) % p)
                    - psi_tilde(L, M, psi, a)
                    - psi_tilde(L, M, psi, b)
                ) % p
                rhs = star_correction(L, M, phi, a[None], b[None])[0]
                assert (lhs == rhs).all(), (mname, a, b)


def test_star_closure(corpus_entry):
    # extension of the basis values of psi~ reproduces the direct formula
    tag, L = corpus_entry
    p, n = L.p, L.n
    for mname, M in coefficient_modules(L):
        psi = random_psi(L, M, f"cl-{tag}-{mname}")
        c2 = delta1(L, M, psi)
        for g in sample_vectors(p, n, 20, f"cl-g-{tag}-{mname}"):
            lhs = eval_omega(L, M, c2, g)
            rhs = psi_tilde(L, M, psi, g)
            assert (lhs == rhs).all(), (tag, mname, g)


def test_star_star_closure(corpus_entry):
    tag, L = corpus_entry
    p, n = L.p, L.n
    for mname, M in coefficient_modules(L):
        c2 = random_c2(L, M, f"ss-{tag}-{mname}")
        c3 = delta2(L, M, c2)
        gs = sample_vectors(p, n, 10, f"ss-g-{tag}-{mname}")
        hs = sample_vectors(p, n, 10, f"ss-h-{tag}-{mname}")
        for g, h in zip(gs, hs):
            lhs = eval_beta(L, M, c3, g, h)
            rhs = beta_induced(L, M, c2, g, h)
            assert (lhs == rhs).all(), (tag, mname, g, h)


def test_peel_order_independence_for_coboundaries():
    # both peel orders reach the order-free closed form psi~
    for L in (witt_algebra(3)[0], heisenberg_algebra(5), solvable2_algebra(3)):
        for mname, M in coefficient_modules(L):
            p, n = L.p, L.n
            psi = random_psi(L, M, f"po-{mname}")
            c2 = delta1(L, M, psi)
            for g in sample_vectors(p, n, 8, f"po-g-{mname}"):
                assert (
                    eval_omega(L, M, c2, g, "asc") == eval_omega(L, M, c2, g, "desc")
                ).all()


def test_peel_order_independence_iff_classical_cocycle_part():
    # a classically closed phi makes the extension path-free even for
    # arbitrary omega rows; eval_beta carries no such claim because its
    # direct formula is anchored to one peel order
    for L in (witt_algebra(3)[0], heisenberg_algebra(5), solvable2_algebra(3)):
        for mname, M in coefficient_modules(L):
            p, n, m = L.p, L.n, M.m
            nphi = len(cochain_tuples(n, 2)) * m
            width = n * (n + 1) // 2 * m
            Z = nullspace(delta_cl_matrix(L, M, 2), p)
            for t in range(4):
                if Z.shape[0]:
                    mix = sample_vectors(p, Z.shape[0], 1, f"pomix{t}-{mname}-{n}")[0]
                    phi_vec = (mix @ Z) % p
                else:
                    phi_vec = np.zeros(nphi, dtype=np.int64)
                om = sample_vectors(p, width - nphi, 1, f"poom{t}-{mname}-{n}")[0]
                c2 = c2_from_vec(L, M, np.concatenate([phi_vec, om]))
                for g in sample_vectors(p, n, 8, f"pog{t}-{mname}-{n}"):
                    assert (
                        eval_omega(L, M, c2, g, "asc")
                        == eval_omega(L, M, c2, g, "desc")
                    ).all(), (mname, n, p, t, g)


def test_eval_beta_coherent_with_order_matched_direct_formula():
    # the direct beta formula anchors its omega term to one peel order;
    # matching the orders makes the agreement exact for arbitrary c2
    for L in (witt_algebra(3)[0], heisenberg_algebra(5), solvable2_algebra(3)):
        for mname, M in coefficient_modules(L):
            p, n = L.p, L.n
            c2 = random_c2(L, M, f"coh-{mname}-{n}")
            c3 = delta2(L, M, c2)
            for gh in sample_vectors(p, 2 * n, 10, f"coh-gh-{mname}-{n}"):
                g, h = gh[:n], gh[n:]
                for order in ("asc", "desc"):
                    assert np.array_equal(
                        eval_beta(L, M, c3, g, h, order),
                        jacobson_loops.beta_induced(L, M, c2, g, h, order),
                    ), (mname, n, order)


def test_peel_order_witness_for_non_cocycle_phi():
    # converse is only generic; witt at p=3 with adjoint coefficients
    # separates the orders for every sampled non-closed phi
    L = witt_algebra(3)[0]
    M = adjoint_module(L)
    p, n, m = L.p, L.n, M.m
    nphi = len(cochain_tuples(n, 2)) * m
    width = n * (n + 1) // 2 * m
    d2cl = delta_cl_matrix(L, M, 2)
    tries = 0
    for t in range(6):
        v = sample_vectors(p, width, 1, f"nc{t}adjoint{n}")[0]
        if not (d2cl @ v[:nphi] % p).any():
            continue
        tries += 1
        c2 = c2_from_vec(L, M, v)
        assert any(
            not np.array_equal(
                eval_omega(L, M, c2, g, "asc"), eval_omega(L, M, c2, g, "desc")
            )
            for g in sample_vectors(p, n, 40, f"w{t}adjoint{n}")
        ), t
    assert tries >= 4


def test_beta_induced_vanishes_on_coboundaries():
    for L in (witt_algebra(3)[0], heisenberg_algebra(5), solvable2_algebra(3)):
        for mname, M in coefficient_modules(L):
            p, n = L.p, L.n
            psi = random_psi(L, M, f"bi-{mname}")
            c2 = delta1(L, M, psi)
            gs = sample_vectors(p, n, 6, f"bi-g-{mname}")
            hs = sample_vectors(p, n, 6, f"bi-h-{mname}")
            for g, h in zip(gs, hs):
                assert not beta_induced(L, M, c2, g, h).any(), (mname, g, h)


def test_abelian_extensions_additive_for_odd_p():
    # zero action and p >= 3 kill every correction term
    for n, p in [(2, 3), (2, 5), (3, 3)]:
        L = abelian_algebra(n, p, pi=nonzero_pi(n))
        for mname, M in coefficient_modules(L):
            c2 = random_c2(L, M, f"add-{n}-{p}-{mname}")
            c3 = random_c3(L, M, f"add3-{n}-{p}-{mname}")
            gs = sample_vectors(p, n, 8, f"add-g-{n}-{p}-{mname}")
            hs = sample_vectors(p, n, 8, f"add-h-{n}-{p}-{mname}")
            ks = sample_vectors(p, n, 8, f"add-k-{n}-{p}-{mname}")
            for g, h, k in zip(gs, hs, ks):
                lhs = eval_omega(L, M, c2, (g + h) % p)
                rhs = (eval_omega(L, M, c2, g) + eval_omega(L, M, c2, h)) % p
                assert (lhs == rhs).all()
                lb = eval_beta(L, M, c3, k, (g + h) % p)
                rb = (eval_beta(L, M, c3, k, g) + eval_beta(L, M, c3, k, h)) % p
                assert (lb == rb).all()


def test_abelian_p2_extension_defect_is_leading_term():
    # at p = 2 the single correction sequence survives: the defect of
    # omega is +phi(g, h) and the defect of beta is -alpha(k, g, h)
    from rescoh.rescochain import _alpha_eval, _phi_eval

    for n in (1, 2, 3):
        L = abelian_algebra(n, 2, pi=nonzero_pi(n))
        for mname, M in coefficient_modules(L):
            c2 = random_c2(L, M, f"p2-{n}-{mname}")
            c3 = random_c3(L, M, f"p23-{n}-{mname}")
            gs = sample_vectors(2, n, 6, f"p2-g-{n}-{mname}")
            hs = sample_vectors(2, n, 6, f"p2-h-{n}-{mname}")
            ks = sample_vectors(2, n, 6, f"p2-k-{n}-{mname}")
            for g, h, k in zip(gs, hs, ks):
                lhs = eval_omega(L, M, c2, (g + h) % 2)
                rhs = (
                    eval_omega(L, M, c2, g)
                    + eval_omega(L, M, c2, h)
                    + _phi_eval(c2.phi, g, h, 2)
                ) % 2
                assert (lhs == rhs).all()
                lb = eval_beta(L, M, c3, k, (g + h) % 2)
                rb = (
                    eval_beta(L, M, c3, k, g)
                    + eval_beta(L, M, c3, k, h)
                    - _alpha_eval(c3.alpha, k, g, h, 2)
                ) % 2
                assert (lb == rb).all()


def test_eval_beta_linear_in_first_slot():
    L = heisenberg_algebra(3)
    M = adjoint_module(L)
    c3 = random_c3(L, M, "lin")
    gs = sample_vectors(3, 3, 6, "lin-g")
    ks = sample_vectors(3, 3, 6, "lin-k")
    h = np.array([1, 2, 1], dtype=np.int64)
    for g, k in zip(gs, ks):
        lhs = eval_beta(L, M, c3, (g + k) % 3, h)
        rhs = (eval_beta(L, M, c3, g, h) + eval_beta(L, M, c3, k, h)) % 3
        assert (lhs == rhs).all()


def test_closure_past_the_old_bound():
    # Witt p = 11: the star property of psi~ and one star-star closure point
    L, _ = witt_algebra(11)
    p, n = L.p, L.n
    for mname, M in coefficient_modules(L):
        psi = random_psi(L, M, f"big-star-{mname}")
        phi = delta1(L, M, psi).phi
        a, b = sample_vectors(p, n, 2, f"big-star-ab-{mname}")
        lhs = (
            psi_tilde(L, M, psi, (a + b) % p) - psi_tilde(L, M, psi, a) - psi_tilde(L, M, psi, b)
        ) % p
        assert np.array_equal(lhs, star_correction(L, M, phi, a[None], b[None])[0]), mname
        c2 = random_c2(L, M, f"big-ss-{mname}")
        c3 = delta2(L, M, c2)
        g, h = sample_vectors(p, n, 2, f"big-ss-gh-{mname}")
        assert np.array_equal(eval_beta(L, M, c3, g, h), beta_induced(L, M, c2, g, h)), mname


def test_forms_exact_at_the_largest_modulus():
    # the widest int64 product-sums: every entry p - 1, so a single unreduced
    # four-factor product would already overflow
    p = 65521
    q = p - 1
    assert abelian_algebra(3, p).p == p  # accepted
    full = np.full(3, q, dtype=np.int64)
    alpha = np.full((3, 3, 3, 1), q, dtype=np.int64)
    phi = np.full((3, 3, 1), q, dtype=np.int64)
    assert _alpha_eval(alpha, full, full, full, p).tolist() == [27 * q**4 % p]
    assert _phi_eval(phi, full, full, p).tolist() == [9 * q**3 % p]
    assert 27 * q**4 % p == 27


def test_restricted_cohomology_known_values():
    # solvable2, trivial coefficients: psi~(x) = psi(x) forces psi = 0
    for p in (2, 3, 5):
        assert restricted_cohomology(solvable2_algebra(p), trivial_module(solvable2_algebra(p), 1), 1)[0] == 0
    # heisenberg, trivial: zero table and zero action leave the classical answer
    for p in (3, 5):
        L = heisenberg_algebra(p)
        assert restricted_cohomology(L, trivial_module(L, 1), 1)[0] == 2
    # abelian with invertible table: psi~(e_i) = psi(reversal(i)) forces psi = 0
    L = abelian_algebra(2, 3, pi=nonzero_pi(2))
    assert restricted_cohomology(L, trivial_module(L, 1), 1)[0] == 0
    # abelian with zero table: every psi is a cocycle and nothing bounds
    L = abelian_algebra(2, 3)
    assert restricted_cohomology(L, trivial_module(L, 1), 1)[0] == 2


def test_restricted_h0_is_invariants(corpus_entry):
    tag, L = corpus_entry
    for mname, M in coefficient_modules(L):
        dim, reps = restricted_cohomology(L, M, 0)
        inv = invariants(M)
        assert dim == inv.dim
        assert Subspace(reps, M.m, L.p) == inv


def test_degree_guards():
    L = heisenberg_algebra(3)
    M = trivial_module(L, 1)
    with pytest.raises(ValueError):
        restricted_cohomology(L, M, 3)
    with pytest.raises(ValueError):
        compare_classical(L, M, 0)


def test_comparison_injective_degree_one():
    for L in (heisenberg_algebra(3), solvable2_algebra(5), witt_algebra(3)[0]):
        for mname, M in coefficient_modules(L):
            _, kernel = compare_classical(L, M, 1)
            assert kernel == 0, mname


def test_comparison_kernel_degree_two_line():
    # 1-dimensional strongly abelian algebra, trivial coefficients:
    # H^2 restricted is the omega line, classical C^2 is zero
    for p in (2, 3, 5):
        L = abelian_algebra(1, p)
        M = trivial_module(L, 1)
        dim, _ = restricted_cohomology(L, M, 2)
        assert dim == 1
        _, kernel = compare_classical(L, M, 2)
        assert kernel == 1


def _same(got, want) -> bool:
    """Equal dtype and bytes, and equal shape unless both are empty (the
    oracle gives an empty set of representatives shape (0, 0))."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.tobytes() == want.tobytes()
            and (got.shape == want.shape or got.size == want.size == 0))


def test_groups_match_quotient_oracle(corpus_entry):
    tag, L = corpus_entry
    for mname, M in coefficient_modules(L):
        for k in range(3):
            cases = [("classical", classical_cohomology, quotients.classical_cohomology),
                     ("restricted", restricted_cohomology, quotients.restricted_cohomology)]
            if k:
                cases.append(("compare", compare_classical, quotients.compare_classical))
            for name, fn, oracle in cases:
                got, want = fn(L, M, k), oracle(L, M, k)
                assert all(_same(a, b) for a, b in zip(got, want)), (tag, mname, k, name)



def count_densifications(monkeypatch) -> list:
    """Record the shape of every SparseMatrix that numpy turns dense from now
    on: numpy falls back on __array__ without a warning."""
    densified = []
    original = SparseMatrix.__array__

    def counted(self, *args, **kwargs):
        densified.append(self.shape)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SparseMatrix, "__array__", counted)
    return densified


def test_cochain_maps_and_the_dual_resolution_stay_sparse(corpus_entry, monkeypatch):
    # delta1, delta2 and the dualized resolution apply and rank their
    # coboundaries without a dense copy
    tag, L = corpus_entry
    densified = count_densifications(monkeypatch)
    for mname, M in coefficient_modules(L):
        c3 = delta2(L, M, delta1(L, M, random_psi(L, M, "sparse")))
        assert not c3.alpha.any() and not c3.beta_basis.any(), (tag, mname)
        if L.is_abelian:
            for k in range(3):
                abelian_cochain_cohomology(L, M, k, allow_unproven=True)
    assert densified == [], tag


def test_every_map_of_every_complex_is_sparse_or_none(corpus_entry, monkeypatch):
    # every complex of the package reads its maps through Complex.delta
    tag, L = corpus_entry
    maps = []
    original = Complex.delta

    def recorded(self, k):
        maps.append((type(self).__name__, k, original(self, k)))
        return maps[-1][2]

    monkeypatch.setattr(Complex, "delta", recorded)
    for mname, M in coefficient_modules(L):
        for q in range(L.n + 2):
            classical_cohomology(L, M, q)
        for k in (1, 2):
            restricted_cohomology(L, M, k)
            compare_classical(L, M, k)
        RestrictedComplex(L, M).dim(0)  # reads delta(-1), None, too
        if L.is_abelian:
            for k in range(3):
                abelian_cochain_cohomology(L, M, k, allow_unproven=True)
    if L.is_abelian:
        k_max = min(2, L.p - 1)
        res = build_resolution(L, k_max)
        for k in range(k_max + 1):
            resolution_homology(res, k)
        for k in range(L.n + 1):
            aux_C_homology(L, k)
        frakC_check(L, k_max)
    kinds = {kind for kind, _, _ in maps}
    assert {"ClassicalComplex", "RestrictedComplex"} <= kinds, tag
    assert not L.is_abelian or {"Resolution", "Complex"} <= kinds, tag
    bad = [(kind, k, type(d).__name__) for kind, k, d in maps
           if not (d is None or isinstance(d, SparseMatrix))]
    assert bad == [], tag
