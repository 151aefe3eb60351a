"""Jacobson's peel by recursion and loops, and the axiom checks as loops.

Reference implementations of liealg.RestrictedLieAlgebra.p_power,
rescochain.eval_omega and eval_beta as they stood before the shared
peel (a loop and two recursions, each coding the peel order itself),
and of liealg.verify_restricted, gmod.verify_module and
field.verify_identities as they stood before their checks were batched
or written as lazy searches: one basis element or index tuple at a
time, stopping at the first counterexample.  They serve only as oracles.
"""

import math

import numpy as np

from rescoh import field
from rescoh.linalg import mat_pow_mod
from rescoh.rescochain import star_correction, star_star_correction


def p_power(L, x, order: str = "asc") -> np.ndarray:
    """x^[p], peeling basis components off x in a loop."""
    x = L._check_vec(x)
    out = x @ L.pi % L.p
    order_idx = np.nonzero(x)[0]
    r = x.copy()
    for i in order_idx[:-1] if order == "asc" else order_idx[:0:-1]:
        a = L.zero()
        a[i], r[i] = r[i], 0
        out += L._r2_correction(a, r)
    return out % L.p


def _peel_index(L, x, order: str) -> int:
    nz = np.nonzero(x)[0]
    return int(nz[0] if order == "asc" else nz[-1])


def eval_omega(L, M, c2, g, order: str = "asc") -> np.ndarray:
    """omega(g) by the *-property, peeling one component per recursion."""
    p = L.p
    g = L._check_vec(g)
    if not g.any():
        return np.zeros(M.m, dtype=np.int64)
    i = _peel_index(L, g, order)
    lam = int(g[i])
    base = (pow(lam, p, p) * c2.omega_basis[i]) % p
    rest = g.copy()
    rest[i] = 0
    if not rest.any():
        return base
    a = np.zeros(L.n, dtype=np.int64)
    a[i] = lam
    tail = eval_omega(L, M, c2, rest, order)
    corr = star_correction(L, M, c2.phi, a, rest)
    return (base + tail + corr) % p


def eval_beta(L, M, c3, g, h, order: str = "asc") -> np.ndarray:
    """beta(g, h), linear in g, by the **-property in h, one component per recursion."""
    p = L.p
    g = L._check_vec(g)
    h = L._check_vec(h)
    if not h.any() or not g.any():
        return np.zeros(M.m, dtype=np.int64)
    i = _peel_index(L, h, order)
    lam = int(h[i])
    base = (pow(lam, p, p) * ((g @ c3.beta_basis[:, i, :]) % p)) % p
    rest = h.copy()
    rest[i] = 0
    if not rest.any():
        return base
    a = np.zeros(L.n, dtype=np.int64)
    a[i] = lam
    tail = eval_beta(L, M, c3, g, rest, order)
    corr = star_star_correction(L, M, c3.alpha, g, a, rest)
    return (base + tail - corr) % p


def _r3_gap(L, h: np.ndarray):
    """[e_g, h^[p]] minus the p-fold bracket [e_g, h, ..., h], all g at once."""
    hp = L.p_power(h)
    lhs = np.tensordot(hp, L.c, axes=([0], [1])) % L.p
    rhs = mat_pow_mod(L._right_ad(h), L.p, L.p)
    return (lhs - rhs) % L.p


def verify_restricted(L) -> dict:
    """The bracket law basis element h by basis element h."""
    bad = L._axiom_counterexample()
    checks = [{"name": "antisymmetry_jacobi", "pass": bad is None, "counterexample": bad}]
    cx = None
    for h in range(L.n):
        gap = _r3_gap(L, L.basis_vector(h))
        if gap.any():
            cx = {"g": int(np.argwhere(gap.any(axis=1))[0][0]), "h": h}
            break
    checks.append({"name": "bracket_p_power", "pass": cx is None, "counterexample": cx})
    return {"pass": all(ch["pass"] for ch in checks), "checks": checks}


def verify_module(M) -> dict:
    """The module laws basis pair by basis pair, and element by element."""
    L, rho, p = M.L, M.rho, M.L.p
    checks = []

    cx = None
    for i in range(L.n):
        for j in range(i + 1, L.n):
            comm = (rho[i] @ rho[j] - rho[j] @ rho[i]) % p
            expected = np.tensordot(L.c[i, j], rho, axes=([0], [0])) % p
            if (comm != expected).any():
                cx = {"i": i, "j": j}
                break
        if cx:
            break
    checks.append({"name": "bracket_compat", "pass": cx is None, "counterexample": cx})

    cx = None
    for i in range(L.n):
        powed = mat_pow_mod(rho[i], p, p)
        expected = np.tensordot(L.pi[i], rho, axes=([0], [0])) % p
        if (powed != expected).any():
            cx = {"i": i}
            break
    checks.append({"name": "p_power_compat", "pass": cx is None, "counterexample": cx})

    return {"pass": all(ch["pass"] for ch in checks), "checks": checks}


def verify_identities(p: int) -> list[dict]:
    """The four binomial identity families in nested loops; binom_mod is
    looked up on rescoh.field at call time, so a patch of it applies."""
    checks = []

    cx = None
    for s in range(p):
        for t in range(p):
            lhs = field.binom_mod(p - 1 - s, t, p)
            rhs = (pow(-1, s + t) * math.comb(p - 1 - t, s) if s <= p - 1 - t else 0) % p
            if lhs != rhs:
                cx = {"s": s, "t": t, "lhs": lhs, "rhs": rhs}
                break
        if cx:
            break
    checks.append({"name": "reflection", "pass": cx is None, "counterexample": cx})

    cx = None
    for a in range(1, 2 * p + 1):
        for b in range(a):
            for c in range(1, a - b + 1):
                lhs = sum(
                    (-1) ** i * math.comb(a, i + c) * math.comb(i, b)
                    for i in range(b, a - c + 1)
                    if i + c <= a and b <= i
                )
                rhs = (-1) ** b * (math.comb(a - b - 1, c - 1) if c - 1 <= a - b - 1 else 0)
                if lhs != rhs:
                    cx = {"a": a, "b": b, "c": c, "lhs": lhs, "rhs": rhs}
                    break
            if cx:
                break
        if cx:
            break
    checks.append({"name": "alternating_sum", "pass": cx is None, "counterexample": cx})

    cx = None
    for n in range(2, p + 1):
        total = sum(math.comb(p - n + k, k) for k in range(n))
        if total != math.comb(p, n - 1) or total % p != 0:
            cx = {"n": n, "sum": total, "binom": math.comb(p, n - 1)}
            break
    checks.append({"name": "diagonal_sum", "pass": cx is None, "counterexample": cx})

    cx = None
    for n in range(1, p + 1):
        for k in range(p + 1):
            lhs = sum(
                math.comb(n, s) * math.comb(n + t - 1, t)
                for t in range(k // 2 + 1)
                for s in (k - 2 * t,)
                if s <= n
            )
            rhs = math.comb(n + k - 1, k)
            if lhs != rhs:
                cx = {"n": n, "k": k, "lhs": lhs, "rhs": rhs}
                break
        if cx:
            break
    checks.append({"name": "convolution", "pass": cx is None, "counterexample": cx})

    return checks
