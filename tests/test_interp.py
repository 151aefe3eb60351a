"""Dictionaries between low-degree classes and algebraic objects."""

import warnings

import numpy as np
import pytest

from rescoh.gmod import adjoint_module, trivial_module
from rescoh.interp import (
    NotACocycle,
    NotStronglyAbelian,
    _deformed_algebra,
    algebra_extension_roundtrip,
    deformation_check,
    inner_derivations,
    module_extension_roundtrip,
    restricted_derivations,
)
from rescoh.liealg import (
    abelian_algebra,
    heisenberg_algebra,
    solvable2_algebra,
    witt_algebra,
)
from rescoh.linalg import Subspace, nullspace, rank, sample_vectors
from rescoh.rescochain import (
    Cochain2,
    c2_from_vec,
    delta1_matrix,
    delta2_matrix,
    restricted_cohomology,
)

from conftest import nonzero_pi
from dense_matmul import matmul_mod
from restricted_scans import (derivation_scan_points, derivations_at, first_failing,
                              scan_verify_restricted)

SMALL = [
    heisenberg_algebra(3),
    solvable2_algebra(3),
    solvable2_algebra(5),
    witt_algebra(3)[0],
    abelian_algebra(2, 3, pi=nonzero_pi(2)),
    abelian_algebra(2, 5),
]


def test_derivations_equal_degree_one_cocycles():
    # same vector layout, so the solution spaces must coincide exactly
    for L in SMALL:
        D = restricted_derivations(L)
        Z = Subspace(nullspace(delta1_matrix(L, adjoint_module(L)), L.p), L.n**2, L.p)
        assert D == Z, L


def test_derivations_match_the_element_scan(corpus_entry):
    # every element when p^n <= 243; the basis plus 500 seeded points on
    # witt_p5, heisenberg_p7 and witt_p7
    tag, L = corpus_entry
    assert restricted_derivations(L) == derivations_at(L, derivation_scan_points(L)), tag


def test_inner_contained_in_derivations():
    for L in SMALL:
        D = restricted_derivations(L)
        for row in inner_derivations(L).basis:
            assert D.contains(row)


def test_outer_dimension_is_h1():
    for L in SMALL + [witt_algebra(2)[0]]:
        D = restricted_derivations(L)
        inner = inner_derivations(L)
        h1 = restricted_cohomology(L, adjoint_module(L), 1)[0]
        assert D.dim - inner.dim == h1, L


def test_derivation_matrices_satisfy_leibniz_and_p_rule():
    L = heisenberg_algebra(3)
    D = restricted_derivations(L)
    mats = [v.reshape(3, 3).T for v in D.basis]
    assert len(mats) == D.dim
    xs = sample_vectors(3, 3, 8, "leib-x")
    ys = sample_vectors(3, 3, 8, "leib-y")
    for m in mats:
        for x, y in zip(xs, ys):
            lhs = (m @ L.bracket(x, y)) % 3
            rhs = (L.bracket((m @ x) % 3, y) + L.bracket(x, (m @ y) % 3)) % 3
            assert (lhs == rhs).all()
        for g in xs:
            from rescoh.linalg import mat_pow_mod

            lhs = (m @ L.p_power(g)) % 3
            rhs = (mat_pow_mod(L.ad(g), 2, 3) @ (m @ g)) % 3
            assert (lhs == rhs).all()


def test_abelian_derivation_dims_frozen():
    # zero table: every linear map is a restricted derivation
    L = abelian_algebra(2, 3)
    assert restricted_derivations(L).dim == 4
    assert inner_derivations(L).dim == 0
    # invertible table: D must kill the image of the p-operator
    L = abelian_algebra(2, 3, pi=nonzero_pi(2))
    assert restricted_derivations(L).dim == 0


def test_solvable2_outer_frozen():
    for p in (2, 3, 5):
        L = solvable2_algebra(p)
        D = restricted_derivations(L)
        assert D.dim == 2
        assert inner_derivations(L).dim == 2
        assert restricted_cohomology(L, adjoint_module(L), 1)[0] == 0


def test_witt_p5_derivations_are_exact_without_warning():
    # the basis conditions are exact at any size: 5^5 elements, no warning
    L, _ = witt_algebra(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        D = restricted_derivations(L)
    h1 = restricted_cohomology(L, adjoint_module(L), 1)[0]
    assert D.dim - inner_derivations(L).dim == h1


def first_cocycle(L, M, tag):
    Z = nullspace(delta1_matrix(L, M), L.p)
    assert Z.shape[0] > 0
    mix = sample_vectors(L.p, Z.shape[0], 1, tag)[0]
    v = (mix @ Z) % L.p
    if not v.any():
        v = Z[0]
    return v


def test_module_extension_roundtrip():
    cases = [
        (heisenberg_algebra(3), "adjoint-to-trivial"),
        (solvable2_algebra(5), "adjoint-to-trivial"),
        (witt_algebra(3)[0], "adjoint-to-trivial"),
    ]
    for L, tag in cases:
        N, M = adjoint_module(L), trivial_module(L, 1)
        from rescoh.gmod import hom_module

        H = hom_module(N, M)
        psi = first_cocycle(L, H, f"mod-ext-{tag}-{L.p}")
        report = module_extension_roundtrip(L, N, M, psi)
        assert report["pass"], (tag, report)
        names = [c["name"] for c in report["checks"]]
        assert names == [
            "extension_is_restricted_module",
            "canonical_splitting_recovers_psi",
            "perturbed_splitting_shift_is_coboundary",
        ]


def test_module_extension_zero_and_coboundary():
    L = heisenberg_algebra(3)
    N, M = trivial_module(L, 2), adjoint_module(L)
    from rescoh.classical import delta_cl_matrix
    from rescoh.gmod import hom_module

    H = hom_module(N, M)
    zero = np.zeros(L.n * H.m, dtype=np.int64)
    assert module_extension_roundtrip(L, N, M, zero)["pass"]
    f = sample_vectors(3, H.m, 1, "mod-ext-f")[0]
    psi = matmul_mod(delta_cl_matrix(L, H, 0), f.reshape(-1, 1), 3).ravel()
    assert module_extension_roundtrip(L, N, M, psi)["pass"]


def test_module_extension_rejects_non_cocycle():
    L = solvable2_algebra(3)
    N = M = trivial_module(L, 1)
    psi = np.array([1, 0], dtype=np.int64)  # psi(x) = 1 fails psi~(x) = 0
    with pytest.raises(NotACocycle):
        module_extension_roundtrip(L, N, M, psi)


def degree2_cocycle(L, h_dim, tag):
    T = trivial_module(L, h_dim)
    Z = nullspace(delta2_matrix(L, T), L.p)
    assert Z.shape[0] > 0
    mix = sample_vectors(L.p, Z.shape[0], 1, tag)[0]
    v = (mix @ Z) % L.p
    if not v.any():
        v = Z[0]
    return c2_from_vec(L, T, v)


def test_algebra_extension_roundtrip():
    for L in (heisenberg_algebra(3), solvable2_algebra(3), abelian_algebra(2, 3, pi=nonzero_pi(2))):
        c2 = degree2_cocycle(L, 1, f"alg-ext-{L.n}")
        report = algebra_extension_roundtrip(L, 1, c2)
        assert report["pass"], report
        names = [c["name"] for c in report["checks"]]
        assert names == [
            "canonical_splitting_recovers_cochain",
            "perturbed_splitting_shift_is_delta1",
        ]


def test_algebra_extension_two_dimensional_kernel():
    L = solvable2_algebra(5)
    c2 = degree2_cocycle(L, 2, "alg-ext-2d")
    assert algebra_extension_roundtrip(L, 2, c2)["pass"]


def test_algebra_extension_zero_and_coboundary():
    L = heisenberg_algebra(3)
    T = trivial_module(L, 1)
    zero = Cochain2(
        phi=np.zeros((3, 3, 1), dtype=np.int64),
        omega_basis=np.zeros((3, 1), dtype=np.int64),
    )
    assert algebra_extension_roundtrip(L, 1, zero)["pass"]
    psi = sample_vectors(3, 3, 1, "alg-ext-psi")[0]
    v = matmul_mod(delta1_matrix(L, T), psi.reshape(-1, 1), 3).ravel()
    assert algebra_extension_roundtrip(L, 1, c2_from_vec(L, T, v))["pass"]


def test_algebra_extension_guards():
    L = heisenberg_algebra(3)
    c2 = degree2_cocycle(L, 1, "alg-ext-guard")
    with pytest.raises(NotStronglyAbelian):
        algebra_extension_roundtrip(L, 1, c2, h_c=np.ones((1, 1, 1), dtype=np.int64))
    with pytest.raises(NotStronglyAbelian):
        algebra_extension_roundtrip(L, 1, c2, h_pi=np.ones((1, 1), dtype=np.int64))
    # delta2 with trivial coefficients vanishes on the nonabelian p=3
    # entries, so the non-cocycle comes from an abelian nonzero-pi one
    La = abelian_algebra(2, 3, pi=nonzero_pi(2))
    T = trivial_module(La, 1)
    D2 = delta2_matrix(La, T)
    for v in np.eye(D2.shape[1], dtype=np.int64):
        if matmul_mod(D2, v.reshape(-1, 1), 3).any():
            with pytest.raises(NotACocycle):
                algebra_extension_roundtrip(La, 1, c2_from_vec(La, T, v))
            break
    else:
        pytest.fail("expected some non-cocycle coordinate vector")


def test_deformation_check_cocycle_and_not():
    L, _ = witt_algebra(3)
    A = adjoint_module(L)
    Z = nullspace(delta2_matrix(L, A), 3)
    good = c2_from_vec(L, A, Z[0])
    out = deformation_check(L, good)
    assert out["cocycle"] and out["restricted"] and out["agrees"]
    assert out["failing"] is None

    D2 = delta2_matrix(L, A)
    for v in np.eye(D2.shape[1], dtype=np.int64):
        if matmul_mod(D2, v.reshape(-1, 1), 3).any():
            bad = c2_from_vec(L, A, v)
            break
    out = deformation_check(L, bad)
    assert not out["cocycle"] and not out["restricted"] and out["agrees"]
    assert out["failing"] is not None


def test_deformation_check_agrees_with_the_full_scan():
    # seeded cochains and seeded cocycles; witt_p3 deforms to 6
    # dimensions, past the scan's exhaustive bound
    for L in (solvable2_algebra(3), heisenberg_algebra(2), witt_algebra(3)[0]):
        A = adjoint_module(L)
        d2 = delta2_matrix(L, A)
        Z = nullspace(d2, L.p)
        vecs = np.vstack([sample_vectors(L.p, d2.shape[1], 12, "fast-probe"),
                          sample_vectors(L.p, Z.shape[0], 4, "probe-mix") @ Z % L.p])
        for v in vecs:
            c2 = c2_from_vec(L, A, v)
            out = deformation_check(L, c2)
            full = scan_verify_restricted(_deformed_algebra(L, c2))
            assert out["restricted"] == full["pass"], v
            assert (out["failing"] or {}).get("axiom") == first_failing(full), v
            assert out["agrees"]
