"""The restricted checks as element scans: oracles for the basis checks.

Reference implementations that test the p-power conditions element by
element: at every element of the algebra when p^n is at most
EXHAUSTIVE_BOUND, otherwise at the basis, the sums of basis pairs (in
the verifier) and a seeded sample.  The verifier also scans peel-order
independence and p-homogeneity of the p-power on samples.  They are
slow and, above the bound, only a relaxation; they serve as oracles for
interp.restricted_derivations and liealg.verify_restricted, which check
the basis alone by Jacobson's theorems (see the two module docstrings).
"""

import itertools

import numpy as np

from jacobson_loops import _r3_gap
from rescoh.interp import _derivation_rows, _p_power_rows
from rescoh.liealg import RestrictedLieAlgebra
from rescoh.linalg import Subspace, nullspace, sample_vectors

EXHAUSTIVE_BOUND = 3**5


def all_elements(L) -> np.ndarray:
    """Every coordinate vector, for exhaustive checks (p^n rows)."""
    return np.array(list(itertools.product(range(L.p), repeat=L.n)), dtype=np.int64)


def derivation_scan_points(L, sample_size: int = 500) -> np.ndarray:
    """Every element within the bound, else the basis plus a seeded sample."""
    p, n = L.p, L.n
    if p**n <= EXHAUSTIVE_BOUND:
        return all_elements(L)
    return np.vstack([np.eye(n, dtype=np.int64),
                      sample_vectors(p, n, sample_size, "restricted-derivations")])


def derivations_at(L, points) -> Subspace:
    """Maps obeying the Leibniz rule on basis pairs and the p-power
    condition D(g^[p]) = (ad g)^(p-1) D(g) at every nonzero point g."""
    blocks = [_derivation_rows(L)] + [_p_power_rows(L, g) for g in points if g.any()]
    return Subspace(nullspace(np.vstack(blocks), L.p), L.n * L.n, L.p)


def scan_verify_restricted(L, exhaustive_bound: int = EXHAUSTIVE_BOUND,
                           sample_size: int = 500, peel_samples: int = 100,
                           scaling_samples: int = 30) -> dict:
    """The p-operator axioms scanned element by element.

    Jacobi and antisymmetry on basis triples; the bracket law against
    every h in the algebra within the bound, otherwise against all basis
    h, all basis pairs and a seeded sample; peel-order independence and
    p-homogeneity of the p-power on seeded samples.
    """
    p, n = L.p, L.n
    checks = []

    bad = L._axiom_counterexample()
    checks.append({"name": "antisymmetry_jacobi", "pass": bad is None, "counterexample": bad})

    if p**n <= exhaustive_bound:
        hs = all_elements(L)
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


def first_failing(report: dict):
    """Name of the first failing check of a report, or None."""
    return next((ch["name"] for ch in report["checks"] if not ch["pass"]), None)


def perturbed_tables(L, count: int, tag: str) -> list:
    """count copies of L, each with one p-operator entry moved by a
    nonzero amount; the entry and the amount are seeded by tag."""
    n, p = L.n, L.p
    at = sample_vectors(n * n, 1, count, f"{tag}-at")[:, 0]
    by = 1 + sample_vectors(p - 1, 1, count, f"{tag}-by")[:, 0]
    out = []
    for k, d in zip(at, by):
        pi = L.pi.copy()
        pi[k // n, k % n] += d
        out.append(RestrictedLieAlgebra(p, L.c, pi))
    return out
