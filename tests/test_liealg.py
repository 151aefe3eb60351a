import numpy as np
import pytest

from rescoh.liealg import (
    DimensionMismatch,
    MODULUS_LIMIT,
    ModulusTooLarge,
    NotRestrictable,
    RestrictedLieAlgebra,
    VerificationFailed,
    abelian_algebra,
    heisenberg_algebra,
    infer_p_operator,
    quadrature,
    solvable2_algebra,
    verify_restricted,
    witt_algebra,
)
from rescoh.field import inv_mod, is_prime
from rescoh.linalg import InvariantFailure, mat_pow_mod, sample_vectors

import dense_rref
from conftest import CORPUS, nonzero_pi
from enumerations import r2_enumeration
from restricted_scans import all_elements, first_failing, perturbed_tables, scan_verify_restricted

# The largest prime below MODULUS_LIMIT and the next prime above it.
LARGEST_PRIME = 65521
NEXT_PRIME = 65537


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError):
        RestrictedLieAlgebra(6, np.zeros((2, 2, 2)), np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        RestrictedLieAlgebra(3, np.zeros((2, 2, 3)), np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        RestrictedLieAlgebra(3, np.zeros((2, 2, 2)), np.zeros((3, 2)))


def test_constructor_rejects_broken_axioms():
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 1, 1] = 1
    c[1, 0, 1] = 1  # not antisymmetric
    with pytest.raises(VerificationFailed, match="antisymmetry"):
        RestrictedLieAlgebra(3, c, np.zeros((2, 2)))

    # [x, y] = z, [x, z] = x violates Jacobi
    c = np.zeros((3, 3, 3), dtype=np.int64)
    c[0, 1, 2], c[1, 0, 2] = 1, 2
    c[0, 2, 0], c[2, 0, 0] = 1, 2
    with pytest.raises(VerificationFailed, match="Jacobi"):
        RestrictedLieAlgebra(3, c, np.zeros((3, 3)))


def test_bracket_bilinear_antisymmetric():
    L, _ = witt_algebra(5)
    xs = sample_vectors(5, 5, 6, "bilin-x")
    ys = sample_vectors(5, 5, 6, "bilin-y")
    for x, y in zip(xs, ys):
        assert (L.bracket(x, y) == (-L.bracket(y, x)) % 5).all()
        assert (
            L.bracket((x + y) % 5, y) == (L.bracket(x, y) + L.bracket(y, y)) % 5
        ).all()
        assert not L.bracket(x, x).any()


def test_ad_matrix_matches_bracket():
    L, _ = witt_algebra(5)
    for x, y in zip(sample_vectors(5, 5, 5, "ad-x"), sample_vectors(5, 5, 5, "ad-y")):
        assert ((L.ad(x) @ y) % 5 == L.bracket(x, y)).all()
    for i, m in enumerate(L.ad_basis()):
        assert (m == L.ad(L.basis_vector(i))).all()


def test_abelian_p_power_is_frobenius_through_table():
    pi = np.array([[0, 1], [1, 0]], dtype=np.int64)
    L = abelian_algebra(2, 3, pi=pi)
    for v in all_elements(L):
        assert (L.p_power(v) == (v @ pi) % 3).all()


def test_witt_p_power_small_values():
    L2, _ = witt_algebra(2)
    assert (L2.p_power([1, 0]) == [1, 0]).all()
    assert not L2.p_power([0, 1]).any()
    # (D0 + D1)^[2] = D0 + [D0, D1] = D0 + D1
    assert (L2.p_power([1, 1]) == [1, 1]).all()

    L3, _ = witt_algebra(3)
    assert (L3.p_power([1, 0, 0]) == [1, 0, 0]).all()
    assert not L3.p_power([0, 1, 0]).any()
    assert not L3.p_power([0, 0, 1]).any()


def test_heisenberg_p2_peel_produces_center():
    L = heisenberg_algebra(2)
    # (x + y)^[2] = [x, y] = z even though the table is zero
    assert (L.p_power([1, 1, 0]) == [0, 0, 1]).all()
    for p in (3, 5, 7):
        assert not heisenberg_algebra(p).p_power([1, 1, 0]).any()


def test_solvable2_p_power_closed_form():
    # (x + y)^[p] = x + y for every p: the only surviving correction
    # sequence is [x, y, x, ..., x] with weight 1/(p-1)
    for p in (2, 3, 5, 7):
        L = solvable2_algebra(p)
        assert (L.p_power([1, 0]) == [1, 0]).all()
        assert not L.p_power([0, 1]).any()
        assert (L.p_power([1, 1]) == [1, 1]).all()


def test_p_power_matches_matrix_power_in_witt_representation():
    # the faithful representation is an oracle independent of the
    # correction, also past the old prime bound: rep(x)^p = rep(x^[p])
    for p, count in ((3, 20), (5, 20), (11, 6), (13, 4), (17, 3)):
        L, rep = witt_algebra(p)
        mats = np.stack(rep)
        for x in sample_vectors(p, p, count, "rep-power"):
            m = np.tensordot(x, mats, axes=([0], [0])) % p
            lhs = mat_pow_mod(m, p, p)
            rhs = np.tensordot(L.p_power(x), mats, axes=([0], [0])) % p
            assert (lhs == rhs).all()


def test_peel_order_independent():
    L, _ = witt_algebra(5)
    for x in sample_vectors(5, 5, 30, "peel-test"):
        assert (L.p_power(x, "asc") == L.p_power(x, "desc")).all()


def test_nonabelian_p_power_past_the_old_bound():
    L = heisenberg_algebra(17)
    assert not L.p_power([1, 1, 0]).any()
    assert not L.p_power([1, 0, 0]).any()
    S = solvable2_algebra(17)
    assert (S.p_power([1, 1]) == [1, 1]).all()


def test_quadrature_integrates_monomials():
    # sum_t w_t t^j = 1/(j+1) for j <= p - 2, nodes distinct and weights nonzero
    for p in (2, 3, 5, 7, 11, 13, 17, 31):
        ts, ws = quadrature(p)
        assert len(set(ts.tolist())) == len(ts) <= p - 1
        assert ws.all()
        for j in range(p - 1):
            lhs = sum(int(w) * pow(int(t), j, p) for t, w in zip(ts, ws)) % p
            assert lhs == inv_mod(j + 1, p), (p, j)


def test_r2_correction_matches_enumeration():
    # the quadrature reproduces the 2^(p-2) tail sum exactly
    for tag, L in CORPUS + [("abelian3nz_p7", abelian_algebra(3, 7, pi=nonzero_pi(3)))]:
        n = L.n
        for ab in sample_vectors(L.p, 2 * n, 6, f"r2-oracle-{tag}"):
            a, b = ab[:n], ab[n:]
            assert np.array_equal(L._r2_correction(a[None], b[None]), r2_enumeration(L, a, b)), (tag, ab)


def test_modulus_ceiling():
    c = np.zeros((3, 3, 3), dtype=np.int64)
    c[0, 1, 2], c[1, 0, 2] = 1, -1
    L = RestrictedLieAlgebra(LARGEST_PRIME, c, np.zeros((3, 3)))
    q = LARGEST_PRIME - 1
    assert (L.bracket([q, q, q], [q, 0, 0]) == [0, 0, (-q * q) % LARGEST_PRIME]).all()
    assert not L.p_power([q, q, q]).any()
    assert is_prime(LARGEST_PRIME) and is_prime(NEXT_PRIME)
    assert not any(is_prime(k) for k in range(LARGEST_PRIME + 1, NEXT_PRIME))
    assert LARGEST_PRIME < MODULUS_LIMIT < NEXT_PRIME
    with pytest.raises(ModulusTooLarge):
        RestrictedLieAlgebra(NEXT_PRIME, c, np.zeros((3, 3)))
    with pytest.raises(ModulusTooLarge):
        witt_algebra(NEXT_PRIME)  # refused before any p x p matrix is built


def test_verify_restricted_corpus(corpus_entry):
    tag, L = corpus_entry
    report = verify_restricted(L)
    assert report["pass"], (tag, report)
    names = [ch["name"] for ch in report["checks"]]
    assert names == ["antisymmetry_jacobi", "bracket_p_power"]


def test_verify_restricted_matches_the_full_scan(corpus_entry):
    # the basis verdict equals the element scan's on the table as given
    # and on five tables with one p-operator entry moved
    tag, L = corpus_entry
    for M in [L] + perturbed_tables(L, 5, f"scan-{tag}"):
        new, old = verify_restricted(M), scan_verify_restricted(M)
        assert new["pass"] == old["pass"], (tag, M.pi)
        assert first_failing(new) == first_failing(old), (tag, M.pi)


def test_verify_restricted_matches_the_full_scan_on_witt_p11():
    L, _ = witt_algebra(11)
    for M in [L] + perturbed_tables(L, 1, "scan-witt_p11"):
        new, old = verify_restricted(M), scan_verify_restricted(M)
        assert new["pass"] == old["pass"]
        assert first_failing(new) == first_failing(old)


@pytest.mark.parametrize("p", [11, 13, 17])
def test_verify_restricted_witt_large_p(p):
    assert verify_restricted(witt_algebra(p)[0])["pass"]


def test_verify_restricted_catches_broken_table():
    good = solvable2_algebra(3)
    pi = good.pi.copy()
    pi[1, 1] = 1  # y^[3] = y, but (ad y)^3 = 0
    bad = RestrictedLieAlgebra(3, good.c, pi, check=True)
    report = verify_restricted(bad)
    assert not report["pass"]
    assert first_failing(report) == "bracket_p_power"
    cx = next(ch for ch in report["checks"] if ch["name"] == "bracket_p_power")
    # [x, y^[3]] = [x, y] = y, but [x, y, y, y] = 0
    assert cx["counterexample"] == {"g": 0, "h": 1}


def test_infer_p_operator_recovers_witt_table():
    for p in (2, 3, 5):
        L, _ = witt_algebra(p)
        pi = infer_p_operator(L.c, p)
        # Witt has trivial center, so the table is unique
        assert (pi == L.pi).all()


def test_infer_p_operator_abelian_gives_zero():
    c = np.zeros((3, 3, 3), dtype=np.int64)
    assert not infer_p_operator(c, 5).any()


def _filiform4():
    # [e0, e1] = e2, [e0, e2] = e3, everything else zero
    c = np.zeros((4, 4, 4), dtype=np.int64)
    c[0, 1, 2], c[0, 2, 3] = 1, 1
    return (c - c.transpose(1, 0, 2))


def test_infer_p_operator_not_restrictable():
    c = _filiform4()
    # (ad e0)^2 sends e1 to e3; no inner derivation does that
    with pytest.raises(NotRestrictable):
        infer_p_operator(c % 2, 2)
    # at p = 3 every (ad e_j)^3 vanishes and a table exists
    pi = infer_p_operator(c % 3, 3)
    L = RestrictedLieAlgebra(3, c % 3, pi)
    assert verify_restricted(L)["pass"]


def _changed_basis(c, p, rng):
    """Structure constants in the basis f_i = Σ_k T_ik e_k, T seeded and invertible."""
    n = c.shape[0]
    while True:
        T = rng.integers(0, p, size=(n, n))
        if dense_rref.rref(T, p)[1] == n:
            break
    Tinv = dense_rref.rref(np.hstack([T, np.eye(n, dtype=np.int64)]), p)[0][:, n:]
    return np.einsum("ia,jb,abk,kl->ijl", T, T, c, Tinv) % p


def _direct_sum(*cs):
    n = sum(len(c) for c in cs)
    out, at = np.zeros((n, n, n), dtype=np.int64), 0
    for c in cs:
        k = len(c)
        out[at : at + k, at : at + k, at : at + k] = c
        at += k
    return out


def _own_solve(c, p, j):
    """Row j of the p-operator table by the dense oracle on system j alone."""
    ads = RestrictedLieAlgebra(p, c, np.zeros((len(c),) * 2)).ad_basis()
    A = np.stack([m.reshape(-1) for m in ads], axis=1)
    return dense_rref.solve(A, mat_pow_mod(ads[j], p, p).reshape(-1), p)


def test_infer_p_operator_rows_match_their_own_systems():
    # the one elimination of all n systems against one oracle solve each
    for tag, L in CORPUS:
        for seed in range(4):
            c = L.c if seed == 0 else _changed_basis(L.c, L.p, np.random.default_rng(seed))
            pi = infer_p_operator(c, L.p)
            for j in range(L.n):
                assert (pi[j] == _own_solve(c, L.p, j)).all(), (tag, seed, j)
    # an abelian summand, then two filiform copies: (ad e_1)^2 and
    # (ad e_5)^2 are not inner, and the first of them is named
    c = _direct_sum(np.zeros((1, 1, 1), dtype=np.int64), _filiform4(), _filiform4()) % 2
    assert [j for j in range(9) if _own_solve(c, 2, j) is None] == [1, 5]
    with pytest.raises(NotRestrictable, match=r"^\(ad e_1\)\^2 is not an inner derivation$"):
        infer_p_operator(c, 2)


def test_witt_representation_failure_is_internal(monkeypatch):
    import rescoh.gmod as gmod

    monkeypatch.setattr(gmod, "mat_pow_mod", lambda m, e, p: (mat_pow_mod(m, e, p) + 1) % p)
    with pytest.raises(InvariantFailure, match="p-th power fails at D_0"):
        witt_algebra(3)


def test_all_elements():
    L = abelian_algebra(2, 3)
    elems = all_elements(L)
    assert elems.shape == (9, 2)
    assert len({tuple(r) for r in elems}) == 9


def test_witt_structure_constants():
    for p in (3, 5, 7):
        L, rep = witt_algebra(p)
        for i in range(p):
            for j in range(p):
                expect = np.zeros(p, dtype=np.int64)
                expect[(i + j) % p] = (j - i) % p
                got = L.bracket(L.basis_vector(i), L.basis_vector(j))
                assert (got == expect).all()
