"""Exact arithmetic in the prime field GF(p).

Primality, inverses and modular binomial coefficients of plain ints, and
exhaustive verifiers for the four families of binomial identities the cochain formulas depend on.
Only prime fields are supported: over GF(p) the Frobenius map is the
identity, so p-semilinear maps coincide with linear ones, and the
cochain formulas take lambda^p = lambda on coordinates.
"""

from __future__ import annotations

import math

from .linalg import UsageError, _check


class ZeroInverse(ZeroDivisionError):
    """Raised when inverting 0 in GF(p)."""


class NonPrimeModulus(UsageError):
    """A modulus that is not prime was given for GF(p)."""


def is_prime(n: int) -> bool:
    """Trial-division primality test; adequate at the scale used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def inv_mod(a: int, p: int) -> int:
    """Inverse of a nonzero residue, as a plain int."""
    a = a % p
    if a == 0:
        raise ZeroInverse(f"0 has no inverse mod {p}")
    return pow(a, -1, p)


def binom_mod(a: int, b: int, p: int) -> int:
    """C(a, b) mod p, with C(a, b) = 0 whenever b > a or b < 0.

    Computed from the exact big-integer binomial, so the convention for
    out-of-range indices is uniform and no Lucas-style case split is
    needed at this scale.
    """
    if a < 0:
        raise ValueError("binom_mod expects a >= 0")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b) % int(p)


IDENTITY_BOUND = 13


def verify_identities(p: int, bound: int = IDENTITY_BOUND) -> list[dict]:
    """Exhaustively check the four binomial identity families for one prime.

    The families, with C(s, t) = 0 whenever t > s:

    1. reflection:      C(p-1-s, t) = (-1)^{s+t} C(p-1-t, s)  mod p,
                        for 0 <= s, t <= p-1.
    2. alternating_sum: sum_{i=b}^{a-c} (-1)^i C(a, i+c) C(i, b)
                        = (-1)^b C(a-b-1, c-1), exactly in Z,
                        for a > b >= 0, 1 <= c <= a-b, a <= 2p.
    3. diagonal_sum:    sum_{k=0}^{n-1} C(p-n+k, k) = C(p, n-1) = 0 mod p,
                        for 2 <= n <= p.
    4. convolution:     sum_{s+2t=k} C(n, s) C(n+t-1, t) = C(n+k-1, k),
                        exactly in Z, for 1 <= n <= p, 0 <= k <= p.

    Returns one check dict per family: {"name", "pass", "counterexample"}
    where the counterexample (first one found, or None) records the index
    values and both sides.
    """
    p = int(p)
    if p > bound:
        raise UsageError(f"p={p} above configured bound {bound}")
    if not is_prime(p):
        raise NonPrimeModulus(f"{p} is not prime")
    comb = math.comb
    reflection = ((s, t, binom_mod(p - 1 - s, t, p), pow(-1, s + t) * comb(p - 1 - t, s) % p)
                  for s in range(p) for t in range(p))
    alternating = ((a, b, c,
                    sum((-1) ** i * comb(a, i + c) * comb(i, b) for i in range(b, a - c + 1)),
                    (-1) ** b * comb(a - b - 1, c - 1))
                   for a in range(1, 2 * p + 1) for b in range(a) for c in range(1, a - b + 1))
    diagonal = ((n, sum(comb(p - n + k, k) for k in range(n)), comb(p, n - 1))
                for n in range(2, p + 1))
    convolution = ((n, k, sum(comb(n, k - 2 * t) * comb(n + t - 1, t) for t in range(k // 2 + 1)),
                    comb(n + k - 1, k))
                   for n in range(1, p + 1) for k in range(p + 1))
    return [
        _check("reflection", _mismatches(("s", "t"), reflection)),
        _check("alternating_sum", _mismatches(("a", "b", "c"), alternating)),
        _check("diagonal_sum", ({"n": n, "sum": total, "binom": binom} for n, total, binom in diagonal
                                if total != binom or total % p != 0)),
        _check("convolution", _mismatches(("n", "k"), convolution)),
    ]


def _mismatches(names: tuple, cases):
    """The cases (indices..., lhs, rhs) whose two sides differ, as dicts of
    the named indices and both sides."""
    return ({**dict(zip(names, case)), "lhs": case[-2], "rhs": case[-1]}
            for case in cases if case[-2] != case[-1])
