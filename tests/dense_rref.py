"""Gaussian elimination on dense int64 arrays.

Reference implementation of the reduced row echelon form: pivot on the
leftmost column with a nonzero entry at or below the current row, take
the first such row, clear the column with one numpy outer product.
Every product stays below 2^63 only for p below linalg.MODULUS_LIMIT.
It serves only as an oracle for linalg.rref, nullspace and the systems
of liealg.infer_p_operator, and backs the cohomology oracle in
quotients.py.
"""

import numpy as np

from rescoh.linalg import as_fp, zeros


def rref(a, p: int):
    """(R, rank, pivots) of a over GF(p), as linalg.rref returns them."""
    R = as_fp(a, p)
    if R.ndim != 2:
        raise ValueError("rref expects a 2-d array")
    rows, cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        R[r] = (R[r] * pow(int(R[r, c]), -1, p)) % p
        other = np.nonzero(R[:, c])[0]
        other = other[other != r]
        if other.size:
            R[other] = (R[other] - np.outer(R[other, c], R[r])) % p
        pivots.append(c)
        r += 1
    return R, len(pivots), pivots


def row_space(a, p: int) -> np.ndarray:
    R, rk, _ = rref(a, p)
    return R[:rk]


def nullspace(a, p: int) -> np.ndarray:
    """Kernel basis, one row per free column f: 1 at f, 0 at the other free columns."""
    R, rk, pivots = rref(a, p)
    cols = R.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = zeros(len(free), cols)
    for row, f in enumerate(free):
        basis[row, f] = 1
        for r, c in enumerate(pivots):
            basis[row, c] = (-int(R[r, f])) % p
    return basis


def solve(a, b, p: int):
    """The solution of a @ x = b that is zero on the free columns, or None."""
    a = as_fp(a, p)
    b = as_fp(b, p).reshape(-1)
    R, rk, pivots = rref(np.hstack([a, b.reshape(-1, 1)]), p)
    if pivots and pivots[-1] == a.shape[1]:
        return None
    x = np.zeros(a.shape[1], dtype=np.int64)
    for r, c in enumerate(pivots):
        x[c] = R[r, -1]
    return x
