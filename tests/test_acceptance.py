"""Acceptance suite: one test per criterion, one printed line each.

Every test prints "criterion NN: PASS/FAIL ..." (shown on failure or
with -s) and enforces a wall-clock budget, so a regression in either
correctness or asymptotics turns the line red.
"""

import itertools
import math
import time
import warnings

import numpy as np

from rescoh.abelres import (
    _formal_basis,
    abelian_cochain_cohomology,
    aux_C_homology,
    build_resolution,
    dga_check,
    frakC_check,
    resolution_homology,
)
from rescoh.field import verify_identities
from rescoh.gmod import adjoint_module, hom_module, invariants, trivial_module
from rescoh.interp import (
    algebra_extension_roundtrip,
    deformation_check,
    inner_derivations,
    module_extension_roundtrip,
    restricted_derivations,
)
from rescoh.liealg import abelian_algebra, heisenberg_algebra, solvable2_algebra, witt_algebra
from rescoh.linalg import matmul_mod, nullspace, sample_vectors
from rescoh.rescochain import (
    beta_induced,
    c2_from_vec,
    compare_classical,
    delta0_matrix,
    delta1,
    delta1_matrix,
    delta2,
    delta2_matrix,
    eval_beta,
    eval_omega,
    psi_tilde,
    restricted_cohomology,
)
from rescoh.ures import Ures

from conftest import ABELIAN, CORPUS, coefficient_modules, nonzero_pi

BUDGETS = {1: 1, 2: 1, 3: 2, 4: 25, 5: 1, 6: 1, 7: 1, 8: 1,
           9: 2, 10: 20, 11: 1, 12: 1}


def _finish(num, ok, start, detail):
    elapsed = time.perf_counter() - start
    budget = BUDGETS[num]
    in_time = elapsed <= budget
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"criterion {num:02d}: {status} {detail} [{elapsed:.2f}s of {budget}s]")
    assert ok, f"criterion {num:02d}: {detail}"
    assert in_time, f"criterion {num:02d} over budget: {elapsed:.2f}s > {budget}s"


def test_criterion_01_pbw_basis_size():
    start = time.perf_counter()
    ok = True
    for tag, L in CORPUS:
        U = Ures(L, basis_bound=L.p ** L.n)
        ok = ok and len(U.basis()) == L.p ** L.n
    _finish(1, ok, start, f"pbw basis has p^n monomials on {len(CORPUS)} entries")


def test_criterion_02_cochain_dimensions():
    start = time.perf_counter()
    ok = True
    for tag, L in CORPUS:
        n = L.n
        for name, M in coefficient_modules(L):
            m = M.m
            ok = ok and delta1_matrix(L, M).shape == (n * (n + 1) // 2 * m, n * m)
            ok = ok and delta2_matrix(L, M).shape == (
                n * (n + 1) * (n + 2) // 6 * m,
                n * (n + 1) // 2 * m,
            )
    for tag, L in ABELIAN:
        for k in range(L.p):
            ok = ok and len(_formal_basis(L.n, k)) == math.comb(L.n + k - 1, k)
    _finish(2, ok, start, "C2/C3 and abelian dual dimensions match the formulas")


def test_criterion_03_composites_vanish():
    start = time.perf_counter()
    ok = True
    for tag, L in CORPUS:
        for name, M in coefficient_modules(L):
            p = L.p
            d0 = delta0_matrix(L, M)
            d1 = delta1_matrix(L, M)
            d2 = delta2_matrix(L, M)
            ok = ok and not matmul_mod(d1, d0, p).any()
            ok = ok and not matmul_mod(d2, d1, p).any()
    _finish(3, ok, start, "delta1.delta0 = 0 and delta2.delta1 = 0 on every entry")


def test_criterion_04_closure_properties():
    start = time.perf_counter()
    ok = True
    for tag, L in CORPUS:
        p, n = L.p, L.n
        for name, M in coefficient_modules(L):
            m = M.m
            psis = sample_vectors(p, n * m, 200, f"acc4-psi-{tag}-{name}")
            gs = sample_vectors(p, n, 200, f"acc4-g-{tag}-{name}")
            for prow, g in zip(psis, gs):
                psi = prow.reshape(n, m)
                c2 = delta1(L, M, psi)
                ok = ok and np.array_equal(eval_omega(L, M, c2, g),
                                           psi_tilde(L, M, psi, g))
            width = n * (n + 1) // 2 * m
            vecs = sample_vectors(p, width, 100, f"acc4-c2-{tag}-{name}")
            ghs = sample_vectors(p, 2 * n, 100, f"acc4-gh-{tag}-{name}")
            for vrow, gh in zip(vecs, ghs):
                c2 = c2_from_vec(L, M, vrow)
                c3 = delta2(L, M, c2)
                g, h = gh[:n], gh[n:]
                ok = ok and np.array_equal(eval_beta(L, M, c3, g, h),
                                           beta_induced(L, M, c2, g, h))
    _finish(4, ok, start, "star/star-star closure on sampled points")


def test_criterion_05_binomial_identities():
    start = time.perf_counter()
    ok = True
    for p in (2, 3, 5, 7, 11, 13):
        checks = verify_identities(p)
        ok = ok and len(checks) == 4 and all(c["pass"] for c in checks)
    _finish(5, ok, start, "all four identity families hold for p <= 13")


def test_criterion_06_resolution_exactness():
    start = time.perf_counter()
    ok = True
    for tag, L in ABELIAN:
        p = L.p
        kmax = min(p - 1, 4)
        res = build_resolution(L, kmax)
        for k in range(2, kmax + 1):
            ok = ok and not matmul_mod(res.slices[k - 1].d, res.slices[k].d, p).any()
        ok = ok and not matmul_mod(res.eps, res.slices[1].d, p).any()
        for k in range(kmax + 1):
            ok = ok and resolution_homology(res, k) == 0
    _finish(6, ok, start, "d.d = 0, eps.d1 = 0, H_k = 0 on all abelian entries")


def test_criterion_07_auxiliary_complexes():
    start = time.perf_counter()
    ok = True
    for tag, L in ABELIAN:
        for k in range(L.n + 1):
            dim, _ = aux_C_homology(L, k)
            ok = ok and dim == math.comb(L.n, k)
        rep = frakC_check(L, min(L.p - 1, 4))
        ok = ok and rep["pass"]
        ok = ok and rep["h_dims"][0] == L.p ** L.n
        ok = ok and all(v == 0 for kk, v in rep["h_dims"].items() if kk > 0)
    _finish(7, ok, start, "wedge-complex dims C(n,k) and contracting homotopy")


def test_criterion_08_product_structure():
    start = time.perf_counter()
    ok = True
    cases = [
        (abelian_algebra(2, 5, pi=nonzero_pi(2)), 4),
        (abelian_algebra(1, 5), 4),
        (abelian_algebra(2, 3), 2),
    ]
    for L, bound in cases:
        rep = dga_check(L, bound)
        ok = ok and rep["pass"]
        names = [c["name"] for c in rep["checks"]]
        ok = ok and names == [
            "leibniz_generators",
            "leibniz_sampled",
            "d_of_degree2_generators",
            "c_products_are_cycles",
        ]
    _finish(8, ok, start, "Leibniz rule and cycle products on the resolution")


def test_criterion_09_low_degree_interface():
    start = time.perf_counter()
    ok = True
    for tag, L in CORPUS:
        for name, M in coefficient_modules(L):
            h0, _ = restricted_cohomology(L, M, 0)
            ok = ok and h0 == invariants(M).dim
            _, ker = compare_classical(L, M, 1)
            ok = ok and ker == 0
    for p in (2, 3, 5):
        L = abelian_algebra(1, p)
        M = trivial_module(L, 1)
        h2, _ = restricted_cohomology(L, M, 2)
        _, ker2 = compare_classical(L, M, 2)
        ok = ok and h2 == 1 and ker2 == 1
    _finish(9, ok, start, "H0 = invariants, H1 injects, rank-one H2 kernel")


def test_criterion_10_dictionary():
    start = time.perf_counter()
    ok = True
    # outer derivations against H1 with adjoint coefficients
    for tag, L in CORPUS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            D = restricted_derivations(L)
        h1 = restricted_cohomology(L, adjoint_module(L), 1)[0]
        ok = ok and D.dim - inner_derivations(L).dim == h1
    # extension roundtrips; the reports already cover the shifted splittings
    for L in (heisenberg_algebra(3), solvable2_algebra(5), witt_algebra(3)[0]):
        N, M = adjoint_module(L), trivial_module(L, 1)
        H = hom_module(N, M)
        Z = nullspace(delta1_matrix(L, H), L.p)
        mix = sample_vectors(L.p, Z.shape[0], 1, f"acc10-mod-{L.p}-{L.n}")[0]
        psi = (mix @ Z) % L.p
        if not psi.any():
            psi = Z[0]
        ok = ok and module_extension_roundtrip(L, N, M, psi)["pass"]
    for L, h_dim in (
        (heisenberg_algebra(3), 1),
        (solvable2_algebra(3), 1),
        (abelian_algebra(2, 3, pi=nonzero_pi(2)), 1),
        (solvable2_algebra(5), 2),
    ):
        T = trivial_module(L, h_dim)
        Z = nullspace(delta2_matrix(L, T), L.p)
        mix = sample_vectors(L.p, Z.shape[0], 1, f"acc10-alg-{L.p}-{L.n}")[0]
        v = (mix @ Z) % L.p
        if not v.any():
            v = Z[0]
        ok = ok and algebra_extension_roundtrip(L, h_dim, c2_from_vec(L, T, v))["pass"]
    # infinitesimal deformations against the degree-2 cocycle predicate
    for tag, L in CORPUS:
        A = adjoint_module(L)
        d2 = delta2_matrix(L, A)
        width = d2.shape[1]
        p = L.p
        if p <= 3 and width <= 12:
            vecs = np.array(list(itertools.product(range(p), repeat=width)),
                            dtype=np.int64)
        else:
            vecs = sample_vectors(p, width, 100, f"acc10-def-{tag}")
        cocycle_mask = ~matmul_mod(d2, vecs.T % p, p).astype(bool).any(axis=0)
        for v, expect in zip(vecs, cocycle_mask):
            rep = deformation_check(L, c2_from_vec(L, A, v), fast=True)
            ok = ok and rep["agrees"] and rep["cocycle"] == bool(expect)
    _finish(10, ok, start, "derivations, extensions and deformations match cohomology")


def test_criterion_11_witt_representation():
    start = time.perf_counter()
    ok = True
    for p in (2, 3, 5, 7):
        L, rep = witt_algebra(p)  # constructor re-verifies faithfulness
        rho = np.stack(rep)
        U = Ures(L, basis_bound=p ** p)
        if p <= 3:
            words = [w for l in range(4) for w in itertools.product(range(p), repeat=l)]
        else:
            words = [tuple(row) for row in sample_vectors(p, 4, 500, f"acc11-{p}")]
        for word in words:
            direct = np.eye(p, dtype=np.int64)
            for i in word:
                direct = matmul_mod(direct, rho[i], p)
            acted = np.zeros((p, p), dtype=np.int64)
            for mono, cf in U.normalize(word).items():
                acted = (acted + cf * U.mono_action_matrix(mono, rho)) % p
            ok = ok and np.array_equal(acted, direct)
    _finish(11, ok, start, "enveloping normal form agrees with the derivation matrices")


def test_criterion_12_dual_complex_agreement():
    start = time.perf_counter()
    ok = True
    rows = []
    for tag, L in ABELIAN:
        p = L.p
        for name, M in coefficient_modules(L):
            h1_res = restricted_cohomology(L, M, 1)[0]
            h1_dual = abelian_cochain_cohomology(L, M, 1, allow_unproven=p <= 2)
            ok = ok and h1_res == h1_dual
            h2_res = restricted_cohomology(L, M, 2)[0]
            h2_dual = abelian_cochain_cohomology(L, M, 2, allow_unproven=p <= 3)
            if p >= 5:
                ok = ok and h2_res == h2_dual
                asserted = "asserted"
            else:
                asserted = "recorded"
            rows.append((tag, name, h1_res, h1_dual, h2_res, h2_dual, asserted))
    print("entry module h1_res h1_dual h2_res h2_dual status")
    for row in rows:
        print(" ".join(str(x) for x in row))
    _finish(12, ok, start, "dual-complex dimensions match the cochain complex")
