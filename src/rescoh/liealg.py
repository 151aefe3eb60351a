"""Restricted Lie algebras presented by structure constants.

An algebra is the data (p, c, pi): c[i, j] is the coordinate vector of
the bracket of basis elements i and j, pi[i] the coordinate vector of
the p-th power of basis element i.  The p-power of a general element is
computed by peeling off basis components and applying Jacobson's
additivity law, whose correction sums the length-p brackets [a, b, ...]
with tail entries in {a, b}, each weighted by 1/#(a); see quadrature.
The correction of every peel pair and quadrature node runs at once, in
the one Horner pass (_jacobson_pass) that rescochain's *-correction
runs with a longer step.
Multiple brackets are always left-normed: [g1, g2, ..., gk] =
[[...[g1 g2] ...] gk].

The basis decides whether a table is a p-map (Jacobson, Trans. AMS 50
(1941); Jacobson, Lie Algebras (1962), ch. V; Strade and Farnsteiner,
Modular Lie Algebras and Their Representations (1988), ch. 2): if
(ad e_i)^p = ad pi[i] for every basis element, exactly one p-map has
e_i^[p] = pi[i], and Jacobson's formula, which p_power peels, computes
it.  The bracket law [g, h^[p]] = [g, h, ..., h] on basis h therefore
gives it at every h, along with independence of the peel order and
p-homogeneity, so verify_restricted checks basis elements only.

Every int64 kernel in the package multiplies two residues reduced mod p
and sums the products along one axis before reducing again.  Below
MODULUS_LIMIT = 2^16 a product is below 2^32, so a sum of up to 2^31
products (a 16 GiB axis) is exact; larger moduli are refused.
"""

from __future__ import annotations

import functools

import numpy as np

from .field import NonPrimeModulus, is_prime
from .linalg import (MODULUS_LIMIT, InvariantFailure, ModulusTooLarge, UsageError, _check,
                     _check_modulus as _check_limit, _failing, _report, as_fp, identity,
                     mat_pow_mod, rref)


class DimensionMismatch(ValueError):
    pass


class NotRestrictable(UsageError):
    """Some (ad e_j)^p is not an inner derivation."""


class VerificationFailed(UsageError):
    pass


def _check_modulus(p) -> int:
    """p as an int if it is a prime below MODULUS_LIMIT, the limit tested first."""
    p = int(p)
    _check_limit(p, f"GF({p})")
    if not is_prime(p):
        raise NonPrimeModulus(f"GF({p}): modulus {p} is not prime")
    return p


@functools.lru_cache(maxsize=None)
def quadrature(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and weights w with sum_t w_t f(t) = sum_j f_j / (j + 1) over
    GF(p), for every polynomial f(t) = sum_j f_j t^j of degree below p - 1.

    As sum_t t^e over GF(p) is -1 when p - 1 divides e > 0 and 0 otherwise,
    w_t = sum_{k=1}^{p-1} t^k / k = (1 + (-t)^p - (1 - t)^p) / p works;
    nodes of weight zero (t = 0, and t = 1 for p > 2) are dropped.  A sum
    over tails {a, b}^(p-2) weighted by 1/(1 + #a), of terms multilinear in
    the tail, is then sum_t w_t F(t a + b), with t a + b in every tail slot
    (Jacobson, Lie Algebras, 1962, ch. V: the s_i(a, b) expansion).
    """
    q = p * p
    w = np.array([(1 + pow(-t, p, q) - pow(1 - t, p, q)) % q // p for t in range(p)])
    nodes = np.flatnonzero(w)
    weights = w[nodes]
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _peel(x: np.ndarray, order: str = "asc") -> tuple[np.ndarray, np.ndarray]:
    """Jacobson's peel of a reduced vector x as two k x n stacks (A, R).

    Row s of A is the s-th basis component of x peeled, in "asc" or
    "desc" index order, and row s of R the sum of the components not yet
    peeled after it; the last component is never peeled, as nothing is
    left after it, so k is one less than the number of nonzero
    coordinates (0 for the zero vector).  p_power and the *- and
    **-extensions of omega and beta add one correction, summed over the
    pairs of rows, to the basis values of x's components.  Any other
    order is refused with ValueError.
    """
    if order not in ("asc", "desc"):
        raise ValueError(f"peel order must be 'asc' or 'desc', not {order!r}")
    nz = x.nonzero()[0]
    at = nz[:-1] if order == "asc" else nz[:0:-1]
    A = np.zeros((len(at), len(x)), dtype=np.int64)
    A[np.arange(len(at)), at] = x[at]
    return A, x - np.add.accumulate(A, axis=0)


def _nodes(p: int, A: np.ndarray, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature weights, and per pair of rows (a, r) of A and R the
    nodes x = t a + r, a k x T x n stack."""
    ts, ws = quadrature(p)
    return ws, (ts[:, None] * A[:, None] + R[:, None]) % p


def _jacobson_pass(p: int, A: np.ndarray, R: np.ndarray, table: np.ndarray, m: int) -> np.ndarray:
    """The Horner pass behind Jacobson's corrections, summed over the
    pairs (a, r) of rows of the k x n stacks A and R.

    table[i] is the w x w matrix of one step at e_i on row vectors
    [v | u] (v of length m, u of length w - m, the chain of brackets); a
    step is linear in its point, so one product with the table gives the
    steps at a stack of points.  Each pair starts from [0 | a] stepped at
    r, then steps p - 2 times at each node x = t a + r, and the
    quadrature weights sum the results.  The nodes' steps are built only
    if some first step is nonzero, and the pass stops once every [v | u]
    is zero.  Without a tail (p = 2: one node, t = 1, of weight 1) it is
    the sum of the first steps."""
    w = table.shape[-1]
    first = table[:, m:].reshape(len(table), -1)  # the rows that [0 | a] reads
    state = A[:, None] @ (R @ first % p).reshape(len(R), w - m, w) % p  # [v | u] at r
    table = table.reshape(len(table), w * w)
    if p == 2 or not np.count_nonzero(state):
        return state.sum(axis=(0, 1)) % p
    ws, xs = _nodes(p, A, R)
    steps = (xs @ table % p).reshape(xs.shape[:2] + (w, w))
    state = state[:, None]
    for _ in range(p - 2):
        state = state @ steps % p
        if not np.count_nonzero(state):
            break
    return ws @ state.sum(axis=0).reshape(len(ws), w) % p


class RestrictedLieAlgebra:
    """Finite-dimensional restricted Lie algebra over GF(p).

    Elements are plain int64 coordinate vectors of length n.  The
    constructor enforces antisymmetry and the Jacobi identity on basis
    triples; the p-operator axioms are checked by verify_restricted,
    which is report-valued so that deliberately broken inputs can be
    examined in tests.  The tables c and pi are read-only: the
    complexes over the algebra's modules keep what they build from them.
    """

    def __init__(self, p: int, c, pi, check: bool = True):
        p = _check_modulus(p)
        self.p = p
        self.c = as_fp(c, p)
        if self.c.ndim != 3 or self.c.shape[0] != self.c.shape[1] or self.c.shape[0] != self.c.shape[2]:
            raise DimensionMismatch("structure constants must have shape (n, n, n)")
        self.n = self.c.shape[0]
        self._c_right = self.c.transpose(1, 0, 2).reshape(self.n, -1)
        self.pi = as_fp(pi, p)
        if self.pi.shape != (self.n, self.n):
            raise DimensionMismatch("p-operator table must have shape (n, n)")
        for table in (self.c, self._c_right, self.pi):
            table.setflags(write=False)
        self._adjoint = None  # gmod.adjoint_module's action and store
        self._operators = None  # abelres._kept_operators: the abelian right multiplications
        if check:
            bad = self._axiom_counterexample()
            if bad is not None:
                raise VerificationFailed(bad)

    def _axiom_counterexample(self):
        c = self.c
        sym = (c + c.transpose(1, 0, 2)) % self.p
        if sym.any():
            i, j, k = np.argwhere(sym)[0]
            return f"antisymmetry fails at basis pair ({i}, {j})"
        diag = np.array([c[i, i] for i in range(self.n)]) % self.p
        if diag.any():
            i = int(np.argwhere(diag.any(axis=1))[0][0])
            return f"[e_{i}, e_{i}] is nonzero"
        t1 = np.einsum("ijl,lkm->ijkm", c, c)
        jac = (t1 + t1.transpose(1, 2, 0, 3) + t1.transpose(2, 0, 1, 3)) % self.p
        if jac.any():
            i, j, k, _ = np.argwhere(jac)[0]
            return f"Jacobi fails at basis triple ({i}, {j}, {k})"
        return None

    @property
    def is_abelian(self) -> bool:
        return not self.c.any()

    def zero(self) -> np.ndarray:
        return np.zeros(self.n, dtype=np.int64)

    def basis_vector(self, i: int) -> np.ndarray:
        v = self.zero()
        v[i] = 1
        return v

    def _check_vec(self, x) -> np.ndarray:
        x = as_fp(x, self.p)
        if x.shape != (self.n,):
            raise DimensionMismatch(f"expected a vector of length {self.n}")
        return x

    def bracket(self, x, y) -> np.ndarray:
        x = self._check_vec(x)
        y = self._check_vec(y)
        return x @ self._right_ad(y) % self.p

    def ad(self, x) -> np.ndarray:
        """Matrix of ad x, acting on coordinate columns."""
        x = self._check_vec(x)
        return np.tensordot(x, self.c, axes=([0], [0])).T % self.p

    def ad_basis(self) -> list[np.ndarray]:
        return [self.c[i].T % self.p for i in range(self.n)]

    def _right_ad(self, ys: np.ndarray) -> np.ndarray:
        """Matrix of u -> [u, y] acting on row vectors u, one per row y of ys.

        The unchecked kernel behind bracket and every bracket chain.
        """
        n = self.n
        return (ys @ self._c_right % self.p).reshape(ys.shape[:-1] + (n, n))

    def _r2_correction(self, A: np.ndarray, R: np.ndarray) -> np.ndarray:
        """Sum over the pairs (a, r) of rows of A and R of all length-p
        brackets starting [a, r, ...] with tail entries drawn from {a, r},
        each weighted by 1/#(a): the quadrature sum over the nodes
        x = t a + r of [a, r, x, ..., x], every pair and node at once,
        by _jacobson_pass with the steps u -> [u, x].  Without a tail
        (p = 2: one node, t = 1, of weight 1) it is the sum of the [a, r]."""
        if not len(A):
            return self.zero()
        return _jacobson_pass(self.p, A, R, self._c_right.reshape(self.n, self.n, self.n), 0)

    def p_power(self, x, order: str = "asc") -> np.ndarray:
        """x^[p] by Jacobson's formula: the sum of (lam e_i)^[p] = lam^p e_i^[p]
        = lam e_i^[p] over the components lam e_i of x, plus the correction
        r2(a, r) summed over the pairs of rows (a, r) of _peel's stacks.

        When verify_restricted passes, the peel order ("asc" or "desc"
        index) cannot change the result (module docstring); on a table
        that fails it, the two orders may differ.  Any other order is
        refused with ValueError.
        """
        x = self._check_vec(x)
        return (x @ self.pi + self._r2_correction(*_peel(x, order))) % self.p

    def __repr__(self) -> str:
        kind = "abelian" if self.is_abelian else "nonabelian"
        return f"RestrictedLieAlgebra(p={self.p}, n={self.n}, {kind})"


def verify_restricted(L: RestrictedLieAlgebra) -> dict:
    """Check the defining axioms of the p-operator, exactly, on the basis.

    Antisymmetry and Jacobi are checked on basis triples, and the
    bracket law [g, h^[p]] = [g, h, ..., h] for every basis g against
    every basis h at once, which settles it at every h (module
    docstring).  A bracket_p_power counterexample names the failing
    basis pair {"g": g, "h": h} with the least h, then the least g.

    Returns {"pass": bool, "checks": [{name, pass, counterexample}]}.
    """
    bad = L._axiom_counterexample()
    lhs = np.tensordot(L.pi, L.c, axes=([1], [1]))  # [h, g]: [e_g, e_h^[p]]
    rhs = mat_pow_mod(L._right_ad(identity(L.n)), L.p, L.p)  # [h, g]: [e_g, e_h, ..., e_h]
    gap = ((lhs - rhs) % L.p).any(axis=2)
    return _report([
        {"name": "antisymmetry_jacobi", "pass": bad is None, "counterexample": bad},
        _check("bracket_p_power", ({"g": int(g), "h": int(h)} for h, g in np.argwhere(gap))),
    ])


def infer_p_operator(c, p: int) -> np.ndarray:
    """Solve for a p-operator table making (p, c) a restricted Lie algebra.

    For each basis element the p-th power of its adjoint matrix must be
    inner: one rref of [A | (ad e_0)^p ... (ad e_{n-1})^p], A's columns
    the ad e_i, solves all n systems.  The first target column to take a
    pivot is the first (ad e_j)^p outside A's span; with none, row j of
    the table is the particular solution of system j with free
    coordinates zero, read off the pivot rows.  When the center is
    nonzero the solutions form a coset of the center, and every one of
    them is a valid p-map (module docstring); the verification pass
    after solving re-checks the choice made.

    Raises:
        NotRestrictable: some (ad e_j)^p is not inner.
        InvariantFailure: the solved table fails verification, which
            Jacobson's theorem rules out, so this is a bug.
    """
    probe = RestrictedLieAlgebra(p, c, np.zeros((np.asarray(c).shape[0],) * 2), check=True)
    n = probe.n
    ads = np.stack(probe.ad_basis())
    R, rk, pivots = rref(np.concatenate([ads, mat_pow_mod(ads, p, p)]).reshape(2 * n, -1).T, p)
    outside = [k - n for k in pivots if k >= n]
    if outside:
        raise NotRestrictable(f"(ad e_{outside[0]})^{p} is not an inner derivation")
    pi = np.zeros((n, n), dtype=np.int64)
    pi[:, pivots] = R[:rk, n:].T
    failing = _failing(verify_restricted(RestrictedLieAlgebra(p, c, pi, check=True)))
    if failing is not None:
        raise InvariantFailure(f"inferred table fails verification: {failing!r}")
    return pi


def witt_algebra(p: int):
    """The p-dimensional Witt algebra with its faithful representation.

    Basis D_0 ... D_{p-1} acting on the group-algebra basis
    {1, x, ..., x^{p-1}} (x^p = 1) by D_j: x^k -> k x^{k+j}.  Relations
    [D_i, D_j] = (j - i) D_{i+j mod p}, D_0^[p] = D_0, D_j^[p] = 0 for
    j > 0.  The representation matrices are the ground truth: the
    constructor checks the bracket and the p-power against them with
    gmod.verify_module and is used as the oracle throughout the
    test-suite.  Those relations hold at every prime, so a failed check
    is an InvariantFailure.
    """
    from .gmod import RestrictedModule, verify_module

    p = _check_modulus(p)
    rep = []
    for j in range(p):
        M = np.zeros((p, p), dtype=np.int64)
        for k in range(p):
            M[(k + j) % p, k] = k % p
        rep.append(M)
    c = np.zeros((p, p, p), dtype=np.int64)
    for i in range(p):
        for j in range(p):
            c[i, j, (i + j) % p] = (j - i) % p
    pi = np.zeros((p, p), dtype=np.int64)
    pi[0, 0] = 1
    L = RestrictedLieAlgebra(p, c, pi, check=True)
    bracket, power = verify_module(RestrictedModule(L, rep))["checks"]
    if not bracket["pass"]:
        i, j = bracket["counterexample"].values()
        raise InvariantFailure(f"representation commutator fails at ({i}, {j})")
    if not power["pass"]:
        raise InvariantFailure(f"representation p-th power fails at D_{power['counterexample']['i']}")
    return L, rep


def abelian_algebra(n: int, p: int, pi=None) -> RestrictedLieAlgebra:
    """Abelian algebra of dimension n; pi defaults to zero."""
    c = np.zeros((n, n, n), dtype=np.int64)
    if pi is None:
        pi = np.zeros((n, n), dtype=np.int64)
    return RestrictedLieAlgebra(p, c, pi, check=True)


def heisenberg_algebra(p: int) -> RestrictedLieAlgebra:
    """3-dimensional algebra [x, y] = z with z central, zero p-table.

    The zero table is a valid assignment for every p: all length-p
    brackets of x and y land in the center and then die, except the
    p = 2 case where the peel extension produces (x+y)^[2] = z on its
    own.
    """
    c = np.zeros((3, 3, 3), dtype=np.int64)
    c[0, 1, 2] = 1
    c[1, 0, 2] = (-1) % p
    pi = np.zeros((3, 3), dtype=np.int64)
    return RestrictedLieAlgebra(p, c, pi, check=True)


def solvable2_algebra(p: int) -> RestrictedLieAlgebra:
    """2-dimensional algebra [x, y] = y with x^[p] = x, y^[p] = 0."""
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 1, 1] = 1
    c[1, 0, 1] = (-1) % p
    pi = np.zeros((2, 2), dtype=np.int64)
    pi[0, 0] = 1
    return RestrictedLieAlgebra(p, c, pi, check=True)
