import math

import pytest

from rescoh import field
from rescoh.field import (
    IDENTITY_BOUND,
    NonPrimeModulus,
    ZeroInverse,
    binom_mod,
    inv_mod,
    is_prime,
    verify_identities,
)
from rescoh.linalg import UsageError

PRIMES = [2, 3, 5, 7, 11, 13]


def test_is_prime_small_values():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in known)


def test_inverse_errors():
    with pytest.raises(ZeroInverse):
        inv_mod(10, 5)
    for p in PRIMES:
        for a in range(1, p):
            assert a * inv_mod(a, p) % p == 1


def test_binom_mod_matches_comb():
    for p in PRIMES:
        for a in range(0, 2 * p + 1):
            for b in range(-2, a + 3):
                expect = math.comb(a, b) % p if 0 <= b <= a else 0
                assert binom_mod(a, b, p) == expect


def test_binom_mod_rejects_negative_top():
    with pytest.raises(ValueError):
        binom_mod(-1, 0, 5)


def test_binom_prime_row_vanishes():
    # C(p, b) = 0 mod p for 0 < b < p
    for p in PRIMES:
        for b in range(1, p):
            assert binom_mod(p, b, p) == 0


def test_identities_all_primes():
    for p in PRIMES:
        for check in verify_identities(p):
            assert check["pass"], (p, check)
            assert check["counterexample"] is None


def test_identities_guard():
    with pytest.raises(ValueError):
        verify_identities(4)
    with pytest.raises(ValueError):
        verify_identities(IDENTITY_BOUND + 4)
    assert verify_identities(17, bound=17)[0]["pass"]


def test_identities_test_the_bound_before_primality(monkeypatch):
    # trial division up to sqrt(p) would not end for a p this size
    def refuse(p):
        raise AssertionError(f"primality tested on {p} above the bound")

    monkeypatch.setattr(field, "is_prime", lambda p: refuse(p) if p > IDENTITY_BOUND else is_prime(p))
    with pytest.raises(UsageError, match=f"^p={10**24 + 7} above configured bound 13$"):
        verify_identities(10**24 + 7)
    with pytest.raises(UsageError, match="^p=15 above configured bound 13$"):
        verify_identities(15)
    with pytest.raises(NonPrimeModulus, match="^4 is not prime$"):
        verify_identities(4)


def test_reflection_identity_spot_values():
    # C(p-1, t) = (-1)^t mod p, the s = 0 row of the reflection family
    for p in PRIMES:
        for t in range(p):
            assert binom_mod(p - 1, t, p) == pow(-1, t, p)
