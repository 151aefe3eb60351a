"""Jacobson's peel by recursion and loops, and the axiom checks as loops.

Reference implementations of liealg.RestrictedLieAlgebra.p_power,
rescochain.eval_omega and eval_beta as they stood before the shared
peel (a loop and two recursions, each coding the peel order itself),
of the three Jacobson corrections one peel pair at a time, as they
stood before each took the whole peel as two stacks, of
rescochain.beta_induced as a loop of checked brackets and powers of
rho(h), of rescochain.psi_tilde with the loop p_power and a matrix
power of rho(g), of gmod.RestrictedModule.matrix_of as the contraction
np.tensordot made before the module kept its action table, of
rescochain._vec_to_form as a loop over the permutations,
and of liealg.verify_restricted, gmod.verify_module and
field.verify_identities as they stood before their checks were batched
or written as lazy searches: one basis element or index tuple at a
time, stopping at the first counterexample.  They serve only as oracles.
"""

import itertools
import math

import numpy as np

from rescoh import field
from rescoh.linalg import mat_pow_mod
from rescoh.liealg import quadrature
from rescoh.rescochain import _fix_first, _phi_eval, _tuple_index


def r2_correction(L, a, b) -> np.ndarray:
    """The p-power correction of one peel pair (a, b): the quadrature sum
    over the nodes x = t a + b of [a, b, x, ..., x]."""
    p = L.p
    u = a[None] @ L._right_ad(b) % p
    if not u.any():
        return u[0]
    ts, ws = quadrature(p)
    ad_x = L._right_ad((np.outer(ts, a) + b) % p)
    for _ in range(p - 2):
        u = u @ ad_x % p
        if not u.any():
            return L.zero()
    return ws @ u.reshape(-1, L.n) % p


def _tail_nodes(L, M, a, b):
    """Quadrature weights, the nodes x = t a + b, and per node the matrices
    of u -> [u, x] and of v -> rho(x) v, both acting on row vectors."""
    ts, ws = quadrature(L.p)
    xs = (np.outer(ts, a) + b) % L.p
    return ws, xs, L._right_ad(xs), _fix_first(M.rho.transpose(0, 2, 1), xs, L.p)


def star_correction(L, M, phi, a, b) -> np.ndarray:
    """The *-property correction for omega(a + b) of one peel pair, a Horner
    pass in rho(x) per node along the chain [a, b, x, ..., x]."""
    p = L.p
    a = L._check_vec(a)
    b = L._check_vec(b)
    acc, u = _phi_eval(phi, a, b, p)[None], a[None] @ L._right_ad(b) % p
    if not (acc.any() or u.any()):
        return acc[0]
    ws, xs, ad_x, rho_x = _tail_nodes(L, M, a, b)
    phi_x = _fix_first(phi.transpose(1, 0, 2), xs, p)
    for _ in range(p - 2):
        acc = -(acc @ rho_x)
        live = u.any()
        if live:
            acc += u @ phi_x
            u = u @ ad_x % p
        acc %= p
        if not (live or acc.any()):
            break
    return ws @ acc.reshape(-1, M.m) % p


def star_star_correction(L, M, alpha, g, h1, h2) -> np.ndarray:
    """The **-property correction for beta(g, h1 + h2) of one peel pair, a
    Horner pass per node in the action of x on Hom(L, M)."""
    p, n, m = L.p, L.n, M.m
    g = L._check_vec(g)
    h1 = L._check_vec(h1)
    h2 = L._check_vec(h2)
    wvu = alpha.transpose(2, 1, 0, 3)
    acc, u = _fix_first(_fix_first(wvu, h2, p), h1, p), h1[None] @ L._right_ad(h2) % p
    if not (acc.any() or u.any()):
        return np.zeros(m, dtype=np.int64)
    ws, xs, ad_x, rho_x = _tail_nodes(L, M, h1, h2)
    alpha_x = _fix_first(wvu, xs, p).reshape(len(ws), n, n * m)
    for _ in range(p - 2):
        acc = -(acc @ rho_x + ad_x @ acc)
        live = u.any()
        if live:
            acc += (u @ alpha_x).reshape(len(ws), n, m)
            u = u @ ad_x % p
        acc %= p
        if not (live or acc.any()):
            break
    return g @ (ws @ acc.reshape(len(ws), -1) % p).reshape(n, m) % p


def beta_induced(L, M, c2, g, h, order: str = "asc") -> np.ndarray:
    """The induced beta at (g, h) with p checked brackets, the powers of
    rho(h) one by one and omega(h) by the recursion in the given order."""
    p = L.p
    g = L._check_vec(g)
    h = L._check_vec(h)
    out = _phi_eval(c2.phi, g, p_power(L, h), p)
    rh = M.matrix_of(h)
    u = g
    vals = []
    for _ in range(p):
        vals.append(_phi_eval(c2.phi, u, h, p))
        u = L.bracket(u, h)
    acting = np.eye(M.m, dtype=np.int64)
    for a in range(p):
        out = (out - (-1) ** a * (acting @ vals[p - 1 - a])) % p
        acting = (acting @ rh) % p
    return (out + M.matrix_of(g) @ eval_omega(L, M, c2, h, order)) % p


def matrix_of(M, x) -> np.ndarray:
    """rho(x) by contracting x with the action stack."""
    return np.tensordot(M.L._check_vec(x), M.rho, axes=([0], [0])) % M.L.p


def psi_tilde(L, M, psi, g) -> np.ndarray:
    """psi(g^[p]) - rho(g)^(p-1) psi(g), with the loop p_power and the
    matrix power of rho(g)."""
    p = L.p
    g = L._check_vec(g)
    act = mat_pow_mod(matrix_of(M, g), p - 1, p)
    return (p_power(L, g) @ psi - act @ ((g @ psi) % p)) % p


def vec_to_form(L, M, v, k: int) -> np.ndarray:
    """The alternating k-form with values v on the increasing k-tuples,
    each permutation's sign counted on every call."""
    at = _tuple_index(L.n, k)
    val = v[: len(at[0]) * M.m].reshape(-1, M.m) % L.p
    form = np.zeros((L.n,) * k + (M.m,), dtype=np.int64)
    for perm in itertools.permutations(range(k)):
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        form[tuple(at[x] for x in perm)] = sign * val % L.p
    return form


def p_power(L, x, order: str = "asc") -> np.ndarray:
    """x^[p], peeling basis components off x in a loop."""
    x = L._check_vec(x)
    out = x @ L.pi % L.p
    order_idx = np.nonzero(x)[0]
    r = x.copy()
    for i in order_idx[:-1] if order == "asc" else order_idx[:0:-1]:
        a = L.zero()
        a[i], r[i] = r[i], 0
        out += r2_correction(L, a, r)
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
