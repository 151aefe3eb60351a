"""Restricted Lie algebras presented by structure constants.

An algebra is the data (p, c, pi): c[i, j] is the coordinate vector of
the bracket of basis elements i and j, pi[i] the coordinate vector of
the p-th power of basis element i.  The p-power of a general element is
computed by peeling off basis components and applying Jacobson's
additivity law, whose correction sums the length-p brackets [a, b, ...]
with tail entries in {a, b}, each weighted by 1/#(a); see quadrature.
Multiple brackets are always left-normed: [g1, g2, ..., gk] =
[[...[g1 g2] ...] gk].

Every int64 kernel in the package multiplies two residues reduced mod p
and sums the products along one axis before reducing again.  Below
MODULUS_LIMIT = 2^16 a product is below 2^32, so a sum of up to 2^31
products (a 16 GiB axis) is exact; larger moduli are refused.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .field import NonPrimeModulus, is_prime
from .linalg import (MODULUS_LIMIT, ModulusTooLarge, UsageError, as_fp, mat_pow_mod,
                     sample_vectors)


class DimensionMismatch(ValueError):
    pass


class NotRestrictable(UsageError):
    """Some (ad e_j)^p is not an inner derivation."""


class VerificationFailed(UsageError):
    pass


EXHAUSTIVE_BOUND = 3**5


def _check_modulus(p) -> int:
    """p as an int if it is a prime below MODULUS_LIMIT, the limit tested first."""
    p = int(p)
    if p >= MODULUS_LIMIT:
        raise ModulusTooLarge(f"GF({p}): modulus {p} is not below {MODULUS_LIMIT}")
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


class RestrictedLieAlgebra:
    """Finite-dimensional restricted Lie algebra over GF(p).

    Elements are plain int64 coordinate vectors of length n.  The
    constructor enforces antisymmetry and the Jacobi identity on basis
    triples; the p-operator axioms are checked by verify_restricted,
    which is report-valued so that deliberately broken inputs can be
    examined in tests.
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

    def _r2_correction(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Sum over all length-p brackets starting [a, b, ...] with tail
        entries drawn from {a, b}, each weighted by 1/#(a): the quadrature
        sum over the nodes x = t a + b of [a, b, x, ..., x]."""
        p = self.p
        u = a[None] @ self._right_ad(b) % p
        if not u.any():
            return u[0]
        ts, ws = quadrature(p)
        ad_x = self._right_ad((np.outer(ts, a) + b) % p)
        for _ in range(p - 2):
            u = u @ ad_x % p
            if not u.any():
                return self.zero()
        return ws @ u.reshape(-1, self.n) % p

    def p_power(self, x, order: str = "asc") -> np.ndarray:
        """x^[p], by peeling basis components off x.

        Peeling a = lam e_i off x = a + r adds lam^p e_i^[p] = lam e_i^[p]
        and the correction r2(a, r); the peel order ("asc" or "desc"
        index) must not change the result, and verify_restricted tests
        that as a property.
        """
        x = self._check_vec(x)
        out = x @ self.pi % self.p
        order_idx = np.nonzero(x)[0]
        r = x.copy()
        for i in order_idx[:-1] if order == "asc" else order_idx[:0:-1]:
            a = self.zero()
            a[i], r[i] = r[i], 0
            out += self._r2_correction(a, r)
        return out % self.p

    def all_elements(self) -> np.ndarray:
        """Every coordinate vector, for exhaustive checks (p^n rows)."""
        cols = np.array(list(itertools.product(range(self.p), repeat=self.n)), dtype=np.int64)
        return cols

    def __repr__(self) -> str:
        kind = "abelian" if self.is_abelian else "nonabelian"
        return f"RestrictedLieAlgebra(p={self.p}, n={self.n}, {kind})"


def _r3_gap(L: RestrictedLieAlgebra, h: np.ndarray):
    """[e_g, h^[p]] minus the p-fold bracket [e_g, h, ..., h], all g at once."""
    hp = L.p_power(h)
    lhs = np.tensordot(hp, L.c, axes=([0], [1])) % L.p
    rhs = mat_pow_mod(L._right_ad(h), L.p, L.p)
    return (lhs - rhs) % L.p


def verify_restricted(
    L: RestrictedLieAlgebra,
    exhaustive_bound: int = EXHAUSTIVE_BOUND,
    sample_size: int = 500,
    peel_samples: int = 100,
    scaling_samples: int = 30,
) -> dict:
    """Check the defining axioms of the p-operator.

    Jacobi and antisymmetry are re-checked on basis triples.  The
    compatibility of bracket and p-power is checked for every basis g
    against every h in the whole algebra when p^n is small enough,
    otherwise against all basis h, all basis pairs, and a deterministic
    sample.  Peel-order independence and p-homogeneity of the p-power
    are checked on deterministic samples.

    Returns {"pass": bool, "checks": [{name, pass, counterexample}]}.
    """
    p, n = L.p, L.n
    checks = []

    bad = L._axiom_counterexample()
    checks.append({"name": "antisymmetry_jacobi", "pass": bad is None, "counterexample": bad})

    if p**n <= exhaustive_bound:
        hs = L.all_elements()
        mode = "exhaustive"
    else:
        basis = np.eye(n, dtype=np.int64)
        pairs = np.array(
            [basis[i] + basis[j] for i in range(n) for j in range(i + 1, n)], dtype=np.int64
        ).reshape(-1, n) % p
        extra = sample_vectors(p, n, sample_size, "r3")
        hs = np.vstack([basis, pairs, extra]) if pairs.size else np.vstack([basis, extra])
        mode = "sampled"
    cx = None
    for h in hs:
        gap = _r3_gap(L, h)
        if gap.any():
            g = int(np.argwhere(gap.any(axis=1))[0][0])
            cx = {"g": g, "h": [int(v) for v in h], "mode": mode}
            break
    checks.append({"name": "bracket_p_power", "pass": cx is None, "counterexample": cx})

    cx = None
    for x in sample_vectors(p, n, peel_samples, "peel"):
        if ((L.p_power(x, "asc") - L.p_power(x, "desc")) % p).any():
            cx = {"x": [int(v) for v in x]}
            break
    checks.append({"name": "peel_independence", "pass": cx is None, "counterexample": cx})

    cx = None
    for x in sample_vectors(p, n, scaling_samples, "scaling"):
        base = L.p_power(x)
        for lam in range(2, p):
            scaled = L.p_power((lam * x) % p)
            if ((scaled - pow(lam, p, p) * base) % p).any():
                cx = {"x": [int(v) for v in x], "lambda": lam}
                break
        if cx:
            break
    checks.append({"name": "p_homogeneity", "pass": cx is None, "counterexample": cx})

    return {"pass": all(ch["pass"] for ch in checks), "checks": checks}


def infer_p_operator(c, p: int) -> np.ndarray:
    """Solve for a p-operator table making (p, c) a restricted Lie algebra.

    For each basis element the p-th power of its adjoint matrix must be
    inner; the returned table uses the deterministic particular solution
    of each linear system (free coordinates zero).  When the center is
    nonzero the solution is only one representative of a coset; the
    verification pass still certifies the axioms for the choice made.

    Raises:
        NotRestrictable: some (ad e_j)^p is not inner.
        VerificationFailed: a solution exists but the axioms fail for it.
    """
    from .linalg import solve

    probe = RestrictedLieAlgebra(p, c, np.zeros((np.asarray(c).shape[0],) * 2), check=True)
    n = probe.n
    ads = probe.ad_basis()
    A = np.stack([m.reshape(-1) for m in ads], axis=1) % p
    pi = np.zeros((n, n), dtype=np.int64)
    for j in range(n):
        target = mat_pow_mod(ads[j], p, p).reshape(-1)
        x = solve(A, target, p)
        if x is None:
            raise NotRestrictable(f"(ad e_{j})^{p} is not an inner derivation")
        pi[j] = x
    L = RestrictedLieAlgebra(p, c, pi, check=True)
    report = verify_restricted(L)
    if not report["pass"]:
        failing = [ch for ch in report["checks"] if not ch["pass"]]
        raise VerificationFailed(
            "inferred table fails verification (possibly an ambiguous center choice): "
            + repr(failing[0])
        )
    return pi


def witt_algebra(p: int):
    """The p-dimensional Witt algebra with its faithful representation.

    Basis D_0 ... D_{p-1} acting on the group-algebra basis
    {1, x, ..., x^{p-1}} (x^p = 1) by D_j: x^k -> k x^{k+j}.  Relations
    [D_i, D_j] = (j - i) D_{i+j mod p}, D_0^[p] = D_0, D_j^[p] = 0 for
    j > 0.  The representation matrices are the ground truth: the
    constructor asserts the bracket and the p-power against them and is
    used as the oracle throughout the test-suite.
    """
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
    for i in range(p):
        for j in range(i + 1, p):
            comm = (rep[i] @ rep[j] - rep[j] @ rep[i]) % p
            expected = ((j - i) % p) * rep[(i + j) % p] % p
            if (comm != expected).any():
                raise VerificationFailed(f"representation commutator fails at ({i}, {j})")
    for j in range(p):
        powed = mat_pow_mod(rep[j], p, p)
        expected = np.tensordot(pi[j], np.stack(rep), axes=([0], [0])) % p
        if (powed != expected).any():
            raise VerificationFailed(f"representation p-th power fails at D_{j}")
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
