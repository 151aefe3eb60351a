"""Cohomology groups assembled from separate quotient computations.

Reference implementation of classical and restricted H^k and of the
comparison map: a dimension from ranks, a nullspace for the cycles, a
greedy choice of cycles independent modulo the boundaries, and one
linear solve per restricted representative for its class coordinates.
Every coboundary is rebuilt wherever it is needed, and every
elimination is the numpy one of dense_rref.  It serves only as an
oracle for linalg.cohomology and the complexes built on it.
"""

import numpy as np

from rescoh.classical import cochain_tuples, delta_cl_matrix
from rescoh.gmod import invariants
from rescoh.linalg import NotAComplex, as_fp, zeros
from rescoh.rescochain import delta1_matrix, delta2_matrix

from dense_matmul import matmul_mod
from dense_rref import nullspace, row_space, rref, solve


def rank(a, p: int) -> int:
    return rref(a, p)[1]


def quotient_dim(incoming, outgoing, p: int) -> int:
    """dim ker(outgoing) - rank(incoming); None is a zero map."""
    if outgoing is not None:
        outgoing = as_fp(outgoing, p)
        mid = outgoing.shape[1]
    else:
        mid = as_fp(incoming, p).shape[0]
    if incoming is not None:
        incoming = as_fp(incoming, p)
    if (outgoing is not None and incoming is not None and outgoing.size and incoming.size
            and matmul_mod(outgoing, incoming, p).any()):
        raise NotAComplex("outgoing @ incoming is nonzero")
    kdim = mid - rank(outgoing, p) if outgoing is not None else mid
    return kdim - (rank(incoming, p) if incoming is not None else 0)


def quotient_representatives(boundary_rows, cycle_rows, p: int) -> np.ndarray:
    """Cycles that grow the rank over the boundaries, reduced by the
    boundary pivots, then echelonized."""
    boundary_rows = as_fp(boundary_rows, p)
    cycle_rows = as_fp(cycle_rows, p)
    if cycle_rows.size == 0:
        return zeros(0, boundary_rows.shape[1] if boundary_rows.size else 0)
    B = row_space(boundary_rows, p) if boundary_rows.size else zeros(0, cycle_rows.shape[1])
    echelon: dict[int, np.ndarray] = {}
    for row in B:
        echelon[int(np.nonzero(row)[0][0])] = row
    kept = []
    for v in cycle_rows:
        w = v.copy()
        for c in sorted(echelon):
            if w[c]:
                w = (w - w[c] * echelon[c]) % p
        nz = np.nonzero(w)[0]
        if nz.size:
            kept.append(v)
            echelon[int(nz[0])] = (w * pow(int(w[nz[0]]), -1, p)) % p
    if not kept:
        return zeros(0, cycle_rows.shape[1])
    kept_m = np.array(kept, dtype=np.int64)
    Bred, _, bpiv = rref(B, p) if B.size else (B, 0, [])
    for r_i, c in enumerate(bpiv):
        kept_m = (kept_m - np.outer(kept_m[:, c], Bred[r_i])) % p
    return row_space(kept_m, p)


def class_coordinates(reps, boundary_matrix, z, p: int):
    """Coordinates of the class of z in the reps basis modulo the column
    space of boundary_matrix, by one solve; None when z is no class."""
    d = reps.shape[0]
    if boundary_matrix is None or boundary_matrix.size == 0:
        A = reps.T
    else:
        A = np.hstack([reps.T, boundary_matrix]) if d else boundary_matrix
    if A.size == 0:
        return np.zeros(0, dtype=np.int64) if not z.any() else None
    x = solve(A % p, z % p, p)
    return None if x is None else x[:d] % p


def _group(incoming, outgoing, p: int):
    dim = quotient_dim(incoming, outgoing, p)
    boundary_rows = incoming.T if incoming is not None else zeros(0, outgoing.shape[1])
    reps = quotient_representatives(boundary_rows, nullspace(outgoing, p), p)
    assert reps.shape[0] == dim
    return dim, reps


def classical_cohomology(L, M, q: int):
    incoming = delta_cl_matrix(L, M, q - 1) if q >= 1 else None
    return _group(incoming, delta_cl_matrix(L, M, q), L.p)


def restricted_cohomology(L, M, k: int):
    if k == 0:
        inv = invariants(M)
        return inv.dim, inv.basis
    if k == 1:
        return _group(delta_cl_matrix(L, M, 0), delta1_matrix(L, M), L.p)
    return _group(delta1_matrix(L, M), delta2_matrix(L, M), L.p)


def compare_classical(L, M, k: int):
    p = L.p
    d_res, reps_res = restricted_cohomology(L, M, k)
    d_cl, reps_cl = classical_cohomology(L, M, k)
    boundary = np.asarray(delta_cl_matrix(L, M, k - 1))
    nphi = len(cochain_tuples(L.n, 2)) * M.m
    map_matrix = np.zeros((d_cl, d_res), dtype=np.int64)
    for col in range(d_res):
        z = reps_res[col]
        coords = class_coordinates(reps_cl, boundary, (z if k == 1 else z[:nphi]) % p, p)
        assert coords is not None
        map_matrix[:, col] = coords
    return map_matrix, d_res - rank(map_matrix, p)
