"""Dense products over GF(p).

Reference for the package's sparse product and composite checks: the
tests compare ``SparseMatrix @`` with it and use it to check d∘d = 0,
cocycle conditions and module actions on dense arrays.
"""

import numpy as np

from rescoh.linalg import as_fp


def matmul_mod(a, b, p: int) -> np.ndarray:
    """(a @ b) % p, through float64 BLAS while every dot product, at most
    (p-1)^2 · inner, stays below 2^53 and so is exact; int64 otherwise."""
    a, b = as_fp(a, p), as_fp(b, p)
    if a.shape[1] and (p - 1) ** 2 * a.shape[1] < 2**53:
        return np.mod(a.astype(np.float64) @ b.astype(np.float64), p).astype(np.int64)
    return (a @ b) % p
