"""Chevalley-Eilenberg cochain complex and its cohomology.

Degree-q cochains are alternating maps on q-tuples of basis elements,
coordinatized on increasing index tuples in lexicographic order with
the module index fastest: coordinate rank(tuple)*m + b.  The coboundary
uses the sign convention (1-indexed positions s < t)

    (delta f)(g_1, ..., g_{q+1}) =
        sum_{s<t} (-1)^(s+t-1) f([g_s, g_t], ..., no g_s, no g_t, ...)
      + sum_s    (-1)^s        g_s . f(..., no g_s, ...)

so that in degree 0, (delta v)(g) = -g.v.

A ClassicalComplex holds the coboundaries and cohomology groups of one
(L, M), each computed on first use; the restricted complex of the same
pair takes its classical blocks from it.
"""

from __future__ import annotations

import itertools

import numpy as np

from .linalg import Cohomology, cohomology, nullspace  # noqa: F401  (perfbench wraps classical.nullspace)
from .liealg import RestrictedLieAlgebra
from .gmod import RestrictedModule


def cochain_tuples(n: int, q: int) -> list[tuple]:
    return list(itertools.combinations(range(n), q))


def delta_cl_matrix(L: RestrictedLieAlgebra, M: RestrictedModule, q: int) -> np.ndarray:
    """Matrix of delta: C^q -> C^(q+1) in the coordinate bases."""
    if q < 0:
        raise ValueError("negative cochain degree")
    n, p, m = L.n, L.p, M.m
    src = cochain_tuples(n, q)
    dst = cochain_tuples(n, q + 1)
    src_rank = {S: r for r, S in enumerate(src)}
    D = np.zeros((len(dst) * m, len(src) * m), dtype=np.int64)
    eye = np.eye(m, dtype=np.int64)
    for rT, T in enumerate(dst):
        row0 = rT * m
        for s in range(1, q + 2):
            j = T[s - 1]
            rest = T[: s - 1] + T[s:]
            col0 = src_rank[rest] * m
            sgn = -1 if s % 2 else 1
            D[row0 : row0 + m, col0 : col0 + m] = (
                D[row0 : row0 + m, col0 : col0 + m] + sgn * M.rho[j]
            ) % p
        for s in range(1, q + 2):
            for t in range(s + 1, q + 2):
                rest = tuple(x for k, x in enumerate(T) if k not in (s - 1, t - 1))
                base = -1 if (s + t - 1) % 2 else 1
                for l in range(n):
                    coeff = int(L.c[T[s - 1], T[t - 1], l])
                    if coeff == 0 or l in rest:
                        continue
                    pos = sum(1 for x in rest if x < l)
                    S = tuple(sorted(rest + (l,)))
                    col0 = src_rank[S] * m
                    val = (base * coeff * (-1 if pos % 2 else 1)) % p
                    D[row0 : row0 + m, col0 : col0 + m] = (
                        D[row0 : row0 + m, col0 : col0 + m] + val * eye
                    ) % p
    return D % p


class ClassicalComplex:
    """The Chevalley-Eilenberg complex of one (L, M).

    Each coboundary matrix and each cohomology group is computed on
    first use and kept for the life of the object.
    """

    def __init__(self, L: RestrictedLieAlgebra, M: RestrictedModule):
        self.L, self.M = L, M
        self._deltas: dict[int, np.ndarray] = {}
        self._groups: dict[int, Cohomology] = {}

    def delta(self, q: int) -> np.ndarray:
        if q not in self._deltas:
            self._deltas[q] = delta_cl_matrix(self.L, self.M, q)
        return self._deltas[q]

    def cohomology(self, q: int) -> Cohomology:
        if q not in self._groups:
            incoming = self.delta(q - 1) if q >= 1 else None
            self._groups[q] = cohomology(incoming, self.delta(q), self.L.p)
        return self._groups[q]


def classical_cohomology(L: RestrictedLieAlgebra, M: RestrictedModule, q: int):
    """Dimension and echelonized representative cocycles of H^q."""
    H = ClassicalComplex(L, M).cohomology(q)
    return H.dim, H.reps
