"""Restricted enveloping algebra: straightening, basis, action."""

import itertools

import numpy as np
import pytest

from rescoh import abelres
from rescoh.liealg import abelian_algebra, solvable2_algebra, witt_algebra
from rescoh.linalg import sample_vectors
from rescoh.ures import IndexOutOfRange, PBW_BOUND, TooLarge, Ures

from conftest import ABELIAN, nonzero_pi
from dense_matmul import matmul_mod


def sample_elements(U, count, tag, support=3):
    """Deterministic sparse elements: `support` monomials each."""
    p, n = U.p, U.n
    basis = U.basis()
    picks = sample_vectors(len(basis), support, count, tag + "-mono")
    coeffs = sample_vectors(p, support, count, tag + "-coef")
    out = []
    for row, cs in zip(picks, coeffs):
        e = {}
        for idx, a in zip(row, cs):
            if a:
                e[basis[int(idx)]] = (e.get(basis[int(idx)], 0) + int(a)) % p
        out.append({m: c for m, c in e.items() if c})
    return out


def test_basis_size_and_order():
    for n, p in [(1, 2), (2, 3), (1, 5)]:
        U = Ures(abelian_algebra(n, p))
        basis = U.basis()
        assert len(basis) == p**n == U.dim()
        assert basis == sorted(basis)
        for r, mono in enumerate(basis):
            assert U.mono_rank(mono) == r


def test_basis_bound_guard():
    L, _ = witt_algebra(7)
    U = Ures(L)
    assert U.dim() == 7**7
    with pytest.raises(TooLarge):
        U.basis()
    wide = Ures(L, basis_bound=7**7)
    assert len(wide.basis()) == 7**7
    assert PBW_BOUND == 5**5


def test_to_vector_refuses_past_the_bound():
    L = abelian_algebra(2, 3)
    U = Ures(L, basis_bound=8)
    with pytest.raises(TooLarge):
        U.to_vector(U.one())
    assert Ures(L, basis_bound=9).to_vector(U.one()).tolist() == [1] + [0] * 8
    # 65521^4 entries is more than numpy can allocate, so the bound must come first
    huge = Ures(abelian_algebra(4, 65521))
    with pytest.raises(TooLarge):
        huge.to_vector(huge.one())


# the zero table of the benchmark's n=4, p=5 run, and two nonzero tables
ABELIAN_N4P5 = [("abelian4_p5", abelian_algebra(4, 5)),
                ("abelian4nz_p5", abelian_algebra(4, 5, pi=nonzero_pi(4))),
                ("abelian4dense_p5",
                 abelian_algebra(4, 5, pi=np.random.default_rng(45).integers(0, 5, (4, 4))))]


@pytest.mark.parametrize("tag,L", ABELIAN + ABELIAN_N4P5,
                         ids=[tag for tag, _ in ABELIAN + ABELIAN_N4P5])
def test_abelian_mono_times_gen_matches_general_path(tag, L):
    # The general straightening (every commutator term zero here) against the
    # tables abelres builds by exponent arithmetic: mono * e_g is column
    # mono_rank(mono) of the right multiplication by e_g.
    U = Ures(L)
    basis = U.basis()
    for g, op in enumerate(abelres._right_operators(U)[: L.n]):
        for mono in basis:
            col = slice(op.ptr[U.mono_rank(mono)], op.ptr[U.mono_rank(mono) + 1])
            want = dict(zip([basis[r] for r in op.rows[col].tolist()], op.vals[col].tolist()))
            assert U.mono_times_gen(mono, g) == want, (tag, mono, g)


def test_generator_and_unit():
    L, _ = witt_algebra(3)
    U = Ures(L)
    assert U.one() == {(0, 0, 0): 1}
    assert U.zero() == {}
    assert U.generator(1) == {(0, 1, 0): 1}
    with pytest.raises(IndexOutOfRange):
        U.generator(3)
    with pytest.raises(IndexOutOfRange):
        U.generator(-1)


def test_normalize_witt3_swap():
    # D_1 D_0 = D_0 D_1 - [D_0, D_1] = D_0 D_1 - D_1
    U = Ures(witt_algebra(3)[0])
    got = U.normalize([1, 0])
    assert got == {(1, 1, 0): 1, (0, 1, 0): 2}


def test_normalize_witt3_cube_reduces():
    # D_0^3 = D_0 by the p-th power relation
    U = Ures(witt_algebra(3)[0])
    assert U.normalize([0, 0, 0]) == {(1, 0, 0): 1}
    assert U.normalize([1, 1, 1]) == {}


def test_normalize_solvable2():
    U = Ures(solvable2_algebra(3))
    assert U.normalize([0, 0, 0]) == {(1, 0): 1}
    assert U.normalize([1, 1, 1]) == {}
    # y x = x y - [x, y] = x y - y
    assert U.normalize([1, 0]) == {(1, 1): 1, (0, 1): 2}


def test_normalize_abelian_zero_table():
    U = Ures(abelian_algebra(2, 2))
    assert U.normalize([0, 0]) == {}
    assert U.normalize([0, 1]) == {(1, 1): 1}


def test_from_algebra_and_add_scale():
    L, _ = witt_algebra(3)
    U = Ures(L)
    e = U.from_algebra([1, 2, 0])
    assert e == {(1, 0, 0): 1, (0, 1, 0): 2}
    assert U.scale(e, 0) == {}
    assert U.add(e, U.scale(e, 2)) == {}


def test_multiply_unit_laws():
    L, _ = witt_algebra(5)
    U = Ures(L)
    for e in sample_elements(U, 10, "unit"):
        assert U.multiply(U.one(), e) == e
        assert U.multiply(e, U.one()) == e
        assert U.multiply(U.zero(), e) == {}


def test_multiply_associative_exhaustive_small():
    # all monomial triples for p^n = 4 and 9
    for L in (witt_algebra(2)[0], abelian_algebra(2, 3)):
        U = Ures(L)
        basis = U.basis()
        for a, b, c in itertools.product(basis, repeat=3):
            ea, eb, ec = {a: 1}, {b: 1}, {c: 1}
            left = U.multiply(U.multiply(ea, eb), ec)
            right = U.multiply(ea, U.multiply(eb, ec))
            assert left == right, (a, b, c)


def test_multiply_associative_sampled():
    for p in (3, 5):
        U = Ures(witt_algebra(p)[0])
        xs = sample_elements(U, 8, "assoc-a")
        ys = sample_elements(U, 8, "assoc-b")
        zs = sample_elements(U, 8, "assoc-c")
        for a, b, c in zip(xs, ys, zs):
            assert U.multiply(U.multiply(a, b), c) == U.multiply(a, U.multiply(b, c))


def test_multiply_realizes_bracket():
    # x y - y x = [x, y] inside the enveloping algebra
    for p in (2, 3, 5):
        L, _ = witt_algebra(p)
        U = Ures(L)
        for x, y in zip(
            sample_vectors(p, p, 6, "br-x"), sample_vectors(p, p, 6, "br-y")
        ):
            ex, ey = U.from_algebra(x), U.from_algebra(y)
            comm = U.add(U.multiply(ex, ey), U.scale(U.multiply(ey, ex), p - 1))
            assert comm == U.from_algebra(L.bracket(x, y))


def test_p_th_power_realizes_table():
    # x^p (associative word) = x^[p] for basis generators
    for L in (solvable2_algebra(3), witt_algebra(3)[0]):
        U = Ures(L)
        for i in range(L.n):
            word = [i] * L.p
            assert U.normalize(word) == U.from_algebra(L.pi[i])


def test_augmentation_is_ring_homomorphism():
    L, _ = witt_algebra(5)
    U = Ures(L)
    assert U.augmentation(U.one()) == 1
    assert U.augmentation(U.generator(2)) == 0
    xs = sample_elements(U, 10, "aug-a")
    ys = sample_elements(U, 10, "aug-b")
    for a, b in zip(xs, ys):
        assert (
            U.augmentation(U.multiply(a, b))
            == U.augmentation(a) * U.augmentation(b) % 5
        )
        assert U.augmentation(U.add(a, b)) == (U.augmentation(a) + U.augmentation(b)) % 5


def test_to_vector_roundtrip():
    U = Ures(abelian_algebra(2, 3))
    basis = U.basis()
    e = {basis[0]: 1, basis[4]: 2}
    v = U.to_vector(e)
    assert v.shape == (9,)
    assert v[0] == 1 and v[4] == 2 and v.sum() == 3


def element_matrix(U, elem, rho):
    """Matrix of an enveloping-algebra element in the module rho."""
    out = np.zeros(rho.shape[1:], dtype=np.int64)
    for mono, coeff in elem.items():
        out = (out + coeff * U.mono_action_matrix(mono, rho)) % U.p
    return out


def test_action_is_module_structure():
    # rho(ab) = rho(a) rho(b) in the defining Witt representation
    for p in (3, 5):
        L, rep = witt_algebra(p)
        U = Ures(L)
        rho = np.stack(rep)
        xs = sample_elements(U, 8, "act-a")
        ys = sample_elements(U, 8, "act-b")
        for a, b in zip(xs, ys):
            lhs = element_matrix(U, U.multiply(a, b), rho)
            rhs = matmul_mod(element_matrix(U, a, rho), element_matrix(U, b, rho), p)
            assert (lhs == rhs).all()
        assert (element_matrix(U, U.one(), rho) == np.eye(p, dtype=np.int64)).all()


def test_mono_action_matrix_matches_word_product():
    p = 3
    L, rep = witt_algebra(p)
    U = Ures(L)
    rho = np.stack(rep)
    # monomial (1, 2, 0) stands for D_0^1 D_1^2
    m = U.mono_action_matrix((1, 2, 0), rho)
    expect = matmul_mod(rep[0], matmul_mod(rep[1], rep[1], p), p)
    assert (m == expect).all()


def test_normalize_matches_representation():
    # straightening agrees with matrix arithmetic on random words
    for p in (2, 3):
        L, rep = witt_algebra(p)
        U = Ures(L)
        rho = np.stack(rep)
        words = sample_vectors(p, 4, 30, "words")
        for w in words:
            word = [int(g) for g in w]
            prod = np.eye(p, dtype=np.int64)
            for g in word:
                prod = matmul_mod(prod, rep[g], p)
            assert (element_matrix(U, U.normalize(word), rho) == prod).all(), word
