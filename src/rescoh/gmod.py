"""Restricted modules: representations compatible with the p-operator.

A module is an array rho of shape (n, m, m): rho[i] is the matrix of
basis element e_i acting on coordinate columns.  Compatibility means
commutators realize the bracket table and rho[i]^p realizes pi[i];
both conditions on the basis extend to the whole algebra, so the
verifier only needs basis pairs, which it checks in stacks of at most
linalg.CHECK_CELLS cells.  A module keeps rho as a read-only n x m^2
table, so rho(x) at one point or at a stack of points is one product.

A module keeps what the complexes over it compute (maps, ranks, checked
composites, groups; see RestrictedModule._store), so every complex of
one kind over it builds each map once.  It holds arrays and Cohomology
objects only, never a complex, so a dropped module is freed at once,
and its action is read-only, so what it keeps cannot go stale.  The
adjoint module's action and store are kept on its algebra the same way.
"""

from __future__ import annotations

import numpy as np

from .linalg import (Subspace, UsageError, _check, _failing, _failing_items, _report, as_fp,
                     mat_pow_mod, nullspace)
from .liealg import RestrictedLieAlgebra, VerificationFailed


class MixedAlgebras(UsageError):
    """Two modules over different algebras were combined."""


def same_algebra(L1: RestrictedLieAlgebra, L2: RestrictedLieAlgebra) -> bool:
    if L1 is L2:
        return True
    return L1.p == L2.p and np.array_equal(L1.c, L2.c) and np.array_equal(L1.pi, L2.pi)


class RestrictedModule:
    """The action rho of L on GF(p)^m, with a read-only table of it built
    once: _act holds rho(e_i) row-major in row i, so that x @ _act is
    rho(x), and a stack of points x gives the stack of their matrices
    from one product (and their transposes, for row vectors, as views)."""

    __slots__ = ("L", "rho", "m", "_act", "_stores", "__weakref__")

    def __init__(self, L: RestrictedLieAlgebra, rho, check: bool = False):
        self.L = L
        rho = as_fp(rho, L.p)
        if rho.ndim != 3 or rho.shape[0] != L.n or rho.shape[1] != rho.shape[2]:
            raise ValueError(f"action array must have shape ({L.n}, m, m)")
        rho.setflags(write=False)
        self.rho = rho
        self.m = m = rho.shape[1]
        self._act = rho.reshape(L.n, m * m)
        self._act.setflags(write=False)
        self._stores = {}
        if check:
            failing = _failing(verify_module(self))
            if failing is not None:
                raise VerificationFailed(f"not a restricted module: {failing}")

    def _store(self, L: RestrictedLieAlgebra, kind: str) -> tuple[dict, dict, set, dict]:
        """The maps, ranks, checked composites and groups of ``kind`` over (L, self).

        Raises MixedAlgebras if L is not this module's algebra: the store
        answers for M.L only.
        """
        if not same_algebra(L, self.L):
            raise MixedAlgebras(f"a {kind} complex needs a module over its own algebra")
        return self._stores.setdefault(kind, ({}, {}, set(), {}))

    def matrix_of(self, x) -> np.ndarray:
        """Action matrix of the algebra element with coordinates x: one
        product with the table _act."""
        x = self.L._check_vec(x)
        return (x @ self._act % self.L.p).reshape(self.m, self.m)

    def act(self, x, v) -> np.ndarray:
        v = as_fp(v, self.L.p)
        return (self.matrix_of(x) @ v) % self.L.p

    def __repr__(self) -> str:
        return f"RestrictedModule(n={self.L.n}, m={self.m}, p={self.L.p})"


def verify_module(M: RestrictedModule) -> dict:
    """Report on the two compatibility axioms, each checked on every basis
    pair (i < j) or basis element by products over the stacks of their
    actions, as many at once as linalg.CHECK_CELLS allows; a
    counterexample names the first failing one, {"i": i, "j": j} or
    {"i": i}."""
    L, rho, p = M.L, M.rho, M.L.p
    i, j = np.triu_indices(L.n, 1)  # the pairs i < j in lex order

    def bracket(s):
        a, b = rho[i[s]], rho[j[s]]
        return (a @ b - b @ a - np.tensordot(L.c[i[s], j[s]], rho, axes=([1], [0]))) % p

    def power(s):
        return (mat_pow_mod(rho[s], p, p) - np.tensordot(L.pi[s], rho, axes=([1], [0]))) % p

    cells = M.m * M.m
    return _report([
        _check("bracket_compat", ({"i": int(i[k]), "j": int(j[k])}
                                  for k in _failing_items(len(i), cells, bracket))),
        _check("p_power_compat", ({"i": k} for k in _failing_items(L.n, cells, power))),
    ])


def trivial_module(L: RestrictedLieAlgebra, m: int = 1) -> RestrictedModule:
    return RestrictedModule(L, np.zeros((L.n, m, m), dtype=np.int64))


def adjoint_module(L: RestrictedLieAlgebra) -> RestrictedModule:
    """The adjoint module of L, verified on the first call.  L keeps its
    action and its store (arrays only, so no cycle runs through L), and
    every later call shares them, so each of its coboundaries is built once."""
    if L._adjoint is None:
        M = RestrictedModule(L, np.stack(L.ad_basis()), check=True)
        L._adjoint = M.rho, M._stores
        return M
    rho, stores = L._adjoint
    M = RestrictedModule(L, rho)
    M._stores = stores
    return M


def dual_module(M: RestrictedModule) -> RestrictedModule:
    rho = (-M.rho.transpose(0, 2, 1)) % M.L.p
    return RestrictedModule(M.L, rho)


def hom_module(N: RestrictedModule, M: RestrictedModule) -> RestrictedModule:
    """Hom(N, M) with action (g.F)(x) = g.F(x) - F(g.x).

    A map F is coordinatized column-major: coordinate b*m + a is the
    matrix entry F[a, b] (a in the target, b in the source).
    """
    if not same_algebra(N.L, M.L):
        raise MixedAlgebras("hom_module needs modules over the same algebra")
    L = N.L
    nsrc, m = N.m, M.m
    rho = np.zeros((L.n, nsrc * m, nsrc * m), dtype=np.int64)
    for i in range(L.n):
        rho[i] = (
            np.kron(np.eye(nsrc, dtype=np.int64), M.rho[i])
            - np.kron(N.rho[i].T, np.eye(m, dtype=np.int64))
        ) % L.p
    return RestrictedModule(L, rho)


def direct_sum(M1: RestrictedModule, M2: RestrictedModule) -> RestrictedModule:
    if not same_algebra(M1.L, M2.L):
        raise MixedAlgebras("direct_sum needs modules over the same algebra")
    L = M1.L
    m1, m2 = M1.m, M2.m
    rho = np.zeros((L.n, m1 + m2, m1 + m2), dtype=np.int64)
    rho[:, :m1, :m1] = M1.rho
    rho[:, m1:, m1:] = M2.rho
    return RestrictedModule(L, rho)


def invariants(M: RestrictedModule) -> Subspace:
    """Vectors killed by every basis action."""
    stacked = M.rho.reshape(M.L.n * M.m, M.m)
    return Subspace(nullspace(stacked, M.L.p), M.m, M.L.p)
