"""Chevalley-Eilenberg cochain complex and its cohomology.

Degree-q cochains are alternating maps on q-tuples of basis elements,
coordinatized on increasing index tuples in lexicographic order with
the module index fastest: coordinate rank(tuple)*m + b.  The coboundary
uses the sign convention (1-indexed positions s < t)

    (delta f)(g_1, ..., g_{q+1}) =
        sum_{s<t} (-1)^(s+t-1) f([g_s, g_t], ..., no g_s, no g_t, ...)
      + sum_s    (-1)^s        g_s . f(..., no g_s, ...)

so that in degree 0, (delta v)(g) = -g.v.  The matrix is that formula
as a list of (target block, source block, coefficient, op) terms with
ops rho(e_j) and 1, summed densely by linalg.kron_sum.

A ClassicalComplex holds the coboundaries and cohomology groups of one
(L, M), each computed on first use; the restricted complex of the same
pair takes its classical blocks from it.
"""

from __future__ import annotations

import itertools

import numpy as np

# perfbench wraps classical.nullspace
from .linalg import Cohomology, cohomology, identity, kron_sum, nullspace  # noqa: F401
from .liealg import RestrictedLieAlgebra
from .gmod import RestrictedModule


def cochain_tuples(n: int, q: int) -> list[tuple]:
    return list(itertools.combinations(range(n), q))


def delta_cl_matrix(L: RestrictedLieAlgebra, M: RestrictedModule, q: int) -> np.ndarray:
    """Matrix of delta: C^q -> C^(q+1) in the coordinate bases: its action
    terms (T, T without g_s) with op rho(g_s) and its bracket terms (T, S)
    with op 1, S holding a basis element of [g_s, g_t] in place of g_s, g_t."""
    if q < 0:
        raise ValueError("negative cochain degree")
    n = L.n
    src, dst = cochain_tuples(n, q), cochain_tuples(n, q + 1)
    src_rank = {S: r for r, S in enumerate(src)}
    terms = []
    for row, T in enumerate(dst):
        for s in range(q + 1):
            terms.append((row, src_rank[T[:s] + T[s + 1 :]], 1 if s % 2 else -1, T[s]))
        for s, t in itertools.combinations(range(q + 1), 2):
            rest = T[:s] + T[s + 1 : t] + T[t + 1 :]
            for l in np.flatnonzero(L.c[T[s], T[t]]).tolist():
                if l not in rest:
                    sign = (-1) ** (s + t + 1 + sum(x < l for x in rest))
                    col = src_rank[tuple(sorted(rest + (l,)))]
                    terms.append((row, col, sign * int(L.c[T[s], T[t], l]), n))
    return kron_sum((len(dst), len(src)), terms, [*M.rho, identity(M.m)], L.p)


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
