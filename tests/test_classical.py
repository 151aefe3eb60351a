import math

import numpy as np

from rescoh.classical import (
    ClassicalComplex,
    classical_cohomology,
    cochain_tuples,
    delta_cl_matrix,
)
from rescoh.gmod import adjoint_module, invariants, trivial_module
from rescoh.liealg import (
    abelian_algebra,
    heisenberg_algebra,
    solvable2_algebra,
    witt_algebra,
)
from rescoh.linalg import Subspace, matmul_mod, nullspace, rank

import cochain_loops
from conftest import coefficient_modules


def test_cochain_tuples():
    assert cochain_tuples(4, 2) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    ]
    assert cochain_tuples(3, 0) == [()]
    assert cochain_tuples(3, 4) == []


def test_matrix_shapes():
    L = heisenberg_algebra(3)
    M = adjoint_module(L)
    n, m = 3, 3
    for q in range(4):
        D = delta_cl_matrix(L, M, q)
        assert D.shape == (math.comb(n, q + 1) * m, math.comb(n, q) * m)


def test_degree_zero_is_minus_action():
    L = solvable2_algebra(5)
    M = adjoint_module(L)
    D = delta_cl_matrix(L, M, 0)
    # rows are stacked by basis element: (delta v)(e_i) = -e_i . v
    expect = np.vstack([(-M.rho[i]) % 5 for i in range(2)])
    assert (D == expect).all()


def test_matrix_matches_the_block_loop(corpus_entry):
    # the term list summed by kron_sum equals the block-by-block loop,
    # including the degrees above n, where the target space is zero
    tag, L = corpus_entry
    for mname, M in coefficient_modules(L):
        for q in range(L.n + 2):
            got, want = delta_cl_matrix(L, M, q), cochain_loops.delta_cl_matrix(L, M, q)
            assert got.dtype == want.dtype and np.array_equal(got, want), (tag, mname, q)


def test_coboundary_squares_to_zero(corpus_entry):
    tag, L = corpus_entry
    for mname, M in coefficient_modules(L):
        for q in range(3):
            a = delta_cl_matrix(L, M, q)
            b = delta_cl_matrix(L, M, q + 1)
            assert not matmul_mod(b, a, L.p).any(), (tag, mname, q)


def test_h0_is_invariants(corpus_entry):
    tag, L = corpus_entry
    for mname, M in coefficient_modules(L):
        dim, reps = classical_cohomology(L, M, 0)
        inv = invariants(M)
        assert dim == inv.dim, (tag, mname)
        assert Subspace(reps, M.m, L.p) == inv


def test_abelian_dims_are_binomial():
    # H^q of an abelian algebra with trivial coefficients is C^q itself
    for n, p in [(2, 3), (3, 2), (2, 5)]:
        L = abelian_algebra(n, p)
        M = trivial_module(L, 1)
        for q in range(n + 2):
            dim, _ = classical_cohomology(L, M, q)
            assert dim == math.comb(n, q)


def test_known_h1_values():
    # H^1 with trivial coefficients is (g/[g,g])^*
    cases = [
        (heisenberg_algebra(3), 2),
        (heisenberg_algebra(5), 2),
        (solvable2_algebra(3), 1),
        (witt_algebra(5)[0], 0),
        (witt_algebra(7)[0], 0),
    ]
    for L, expect in cases:
        dim, _ = classical_cohomology(L, trivial_module(L, 1), 1)
        assert dim == expect


def test_witt_adjoint_h1_vanishes():
    for p in (5, 7):
        L, _ = witt_algebra(p)
        dim, _ = classical_cohomology(L, adjoint_module(L), 1)
        assert dim == 0


def test_cocycle_dim_matches_nullspace():
    L = heisenberg_algebra(3)
    M = adjoint_module(L)
    cx = ClassicalComplex(L, M)
    for q in range(3):
        D = delta_cl_matrix(L, M, q)
        assert cx.cohomology(q).cycles.shape[0] == nullspace(D, 3).shape[0]
        assert cx.delta(q) is cx.delta(q)  # built once, then kept


def test_representatives_are_cocycles_not_boundaries():
    L = heisenberg_algebra(3)
    M = trivial_module(L, 1)
    dim, reps = classical_cohomology(L, M, 2)
    out = delta_cl_matrix(L, M, 2)
    inc = delta_cl_matrix(L, M, 1)
    for z in reps:
        assert not matmul_mod(out, z.reshape(-1, 1), 3).any()
    # no nonzero combination of reps is a boundary
    if dim:
        stacked = np.vstack([inc.T, reps])
        assert rank(stacked, 3) == rank(inc.T, 3) + dim


def test_class_coordinates():
    L = heisenberg_algebra(3)
    M = trivial_module(L, 1)
    H = ClassicalComplex(L, M).cohomology(1)
    reps = H.reps
    z = (2 * reps[0] + reps[1]) % 3
    assert (H.coordinates(z.reshape(1, -1)) == [[2, 1]]).all()
    # boundaries do not change a class; several cocycles go in one call
    A = ClassicalComplex(L, adjoint_module(L))
    H1 = A.cohomology(1)
    b = A.delta(0) @ np.array([1, 2, 0]) % 3
    zs = np.vstack([H1.reps, (H1.reps + b) % 3])
    assert (H1.coordinates(zs) == np.vstack([np.eye(H1.dim), np.eye(H1.dim)])).all()
    # a non-cocycle direction is rejected
    H0 = A.cohomology(0)
    assert H0.coordinates(np.ones((1, 3), dtype=np.int64)) is None
