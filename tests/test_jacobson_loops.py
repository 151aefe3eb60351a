"""The shared peel and the batched verifiers against their loop oracles.

Results are pinned array-equal to tests/jacobson_loops.py in both peel
orders over the corpus and its coefficient modules, and reports
dict-equal, counterexamples included, on passing and failing inputs.
"""

import math

import numpy as np
import pytest

from rescoh import field
from rescoh.field import verify_identities
from rescoh.gmod import RestrictedModule, adjoint_module, dual_module, hom_module, verify_module
from rescoh.liealg import verify_restricted
from rescoh.linalg import sample_vectors
from rescoh.rescochain import c2_from_vec, c3_from_vec, eval_beta, eval_omega

import jacobson_loops as loops
from conftest import CORPUS, coefficient_modules, nonzero_pi
from restricted_scans import perturbed_tables

PRIMES = [2, 3, 5, 7, 11, 13]


@pytest.mark.parametrize("order", ["asc", "desc"])
def test_peel_matches_the_loop_and_the_recursions(corpus_entry, order):
    tag, L = corpus_entry
    n, p = L.n, L.p
    points = sample_vectors(p, n, 6, f"peel-{tag}")
    for x in points:
        assert np.array_equal(L.p_power(x, order), loops.p_power(L, x, order))
    for name, M in coefficient_modules(L):
        m = M.m
        c2 = c2_from_vec(L, M, sample_vectors(p, (math.comb(n, 2) + n) * m, 1, f"c2-{tag}")[0])
        c3 = c3_from_vec(L, M, sample_vectors(p, (math.comb(n, 3) + n * n) * m, 1, f"c3-{tag}")[0])
        for g, h in zip(points, points[::-1]):
            assert np.array_equal(eval_omega(L, M, c2, g, order),
                                  loops.eval_omega(L, M, c2, g, order)), (name, g)
            assert np.array_equal(eval_beta(L, M, c3, g, h, order),
                                  loops.eval_beta(L, M, c3, g, h, order)), (name, g, h)


def test_peel_of_zero_and_of_one_component():
    tag, L = next(e for e in CORPUS if e[0] == "witt_p5")
    _, M = coefficient_modules(L)[1]
    c2 = c2_from_vec(L, M, sample_vectors(5, 15 * 5, 1, "c2-edge")[0])
    c3 = c3_from_vec(L, M, sample_vectors(5, 35 * 5, 1, "c3-edge")[0])
    zero, e2 = L.zero(), 3 * L.basis_vector(2)
    for g, h in [(zero, e2), (e2, zero), (e2, e2), (zero, zero)]:
        assert np.array_equal(eval_omega(L, M, c2, g), loops.eval_omega(L, M, c2, g))
        assert np.array_equal(eval_beta(L, M, c3, g, h), loops.eval_beta(L, M, c3, g, h))
        assert np.array_equal(L.p_power(g), loops.p_power(L, g))


def test_verify_restricted_matches_the_loop(corpus_entry):
    tag, L = corpus_entry
    tables = [L] + perturbed_tables(L, 4, f"oracle-{tag}")
    reports = [verify_restricted(T) for T in tables]
    assert reports == [loops.verify_restricted(T) for T in tables]
    if tag.startswith(("witt", "solvable")):  # no center: every moved entry breaks the table
        assert not any(rep["pass"] for rep in reports[1:])


def broken_modules(M, count: int, tag: str) -> list:
    """count copies of M, each with one action entry moved by a nonzero
    amount; the entry and the amount are seeded by tag."""
    L, m = M.L, M.m
    at = sample_vectors(L.n * m * m, 1, count, f"{tag}-at")[:, 0]
    by = 1 + sample_vectors(L.p - 1, 1, count, f"{tag}-by")[:, 0]
    out = []
    for k, d in zip(at, by):
        rho = M.rho.copy()
        rho.reshape(-1)[k] += d
        out.append(RestrictedModule(L, rho))
    return out


def test_verify_module_matches_the_loop(corpus_entry):
    tag, L = corpus_entry
    A = adjoint_module(L)
    modules = [M for _, M in coefficient_modules(L)] + [dual_module(A)]
    if L.n <= 3:
        modules.append(hom_module(A, A))
    modules += broken_modules(A, 6, f"oracle-{tag}")
    if L.is_abelian:
        # diagonal actions commute, so only the p-power law can fail
        diag = sample_vectors(L.p, 2 * L.n, 1, f"diag-{tag}")[0].reshape(L.n, 2)
        modules.append(RestrictedModule(L, [np.diag(d) for d in diag]))
    reports = [verify_module(M) for M in modules]
    assert reports == [loops.verify_module(M) for M in modules]


def test_verify_module_names_the_first_failing_pair():
    tag, L = next(e for e in CORPUS if e[0] == "witt_p7")
    rho = adjoint_module(L).rho.copy()
    rho[5, 0, 0] += 1
    rho[3, 1, 1] += 1
    M = RestrictedModule(L, rho)
    report = verify_module(M)
    assert report == loops.verify_module(M)
    assert report["checks"][0]["counterexample"] == {"i": 0, "j": 3}
    assert report["checks"][1]["counterexample"] == {"i": 3}


def test_verify_module_p_power_failure_only():
    L = next(L for tag, L in CORPUS if tag == "abelian2nz_p5")
    M = RestrictedModule(L, [np.diag([1, 2]), np.diag([0, 3])])
    report = verify_module(M)
    assert report == loops.verify_module(M)
    assert report["checks"][0]["pass"] and report["checks"][1]["counterexample"] == {"i": 0}
    assert (L.pi == nonzero_pi(2)).all()


@pytest.mark.parametrize("p", PRIMES)
def test_verify_identities_matches_the_loops(p):
    assert verify_identities(p) == loops.verify_identities(p)


@pytest.mark.parametrize("p", PRIMES)
def test_verify_identities_matches_the_loops_on_a_patched_binom_mod(p, monkeypatch):
    original = field.binom_mod
    monkeypatch.setattr(field, "binom_mod",
                        lambda a, b, q: (original(a, b, q) + (a == 2 and b == 1)) % q)
    report = verify_identities(p)
    assert report == loops.verify_identities(p)
    assert report[0]["pass"] == (p < 3)


@pytest.mark.parametrize("p", PRIMES)
def test_verify_identities_matches_the_loops_on_a_patched_comb(p, monkeypatch):
    # C(4, 2) off by one; every family reads it once p >= 5, and all but
    # reflection (which compares mod p) see it
    original = math.comb
    monkeypatch.setattr(math, "comb", lambda a, b: original(a, b) + (a == 4 and b == 2))
    report = verify_identities(p)
    expected = loops.verify_identities(p)
    monkeypatch.undo()
    assert report == expected
    if p >= 5:
        assert not any(ch["pass"] for ch in report[1:])
