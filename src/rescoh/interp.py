"""Constructive interpretations of low-degree restricted cohomology.

Each function here realizes a cohomology class as an algebraic object
and checks the dictionary both ways: restricted derivations modulo
inner ones against H¹ with adjoint coefficients, module and algebra
extensions against degree-1 and degree-2 classes, and infinitesimal
deformations against the degree-2 cocycle condition.  The round-trips
are exact identities under the canonical splittings, not merely equal
up to coboundary, and the perturbed splittings shift by an explicit
coboundary.

The basis decides which maps are restricted derivations (Jacobson,
Trans. AMS 50 (1941); Jacobson, Lie Algebras (1962), ch. V; Strade and
Farnsteiner, Modular Lie Algebras and Their Representations (1988),
ch. 2): for a derivation D, x -> D(x^[p]) - (ad x)^(p-1) D(x) is
p-semilinear, so it vanishes everywhere once it vanishes on a basis.
restricted_derivations imposes it on the n basis elements only, and
deformation_check reads restrictedness off verify_restricted, which
checks basis elements only by the same kind of theorem (see liealg).
"""

from __future__ import annotations

import numpy as np

from .gmod import RestrictedModule, adjoint_module, hom_module, trivial_module, verify_module
from .liealg import RestrictedLieAlgebra, verify_restricted
from .linalg import (
    InvariantFailure,
    Subspace,
    UsageError,
    _failing,
    _report,
    identity,
    mat_pow_mod,
    nullspace,
    sample_vectors,
    zeros,
)
from .rescochain import Cochain2, c2_from_vec, c2_to_vec, delta1_matrix, delta2_matrix
from .classical import delta_cl_matrix


class NotACocycle(UsageError):
    """Input cochain fails the degree-appropriate cocycle condition."""


class NotStronglyAbelian(UsageError):
    """Algebra extensions need coefficients with zero bracket and zero p-map."""


def _derivation_rows(L: RestrictedLieAlgebra) -> np.ndarray:
    """Linear conditions for the Leibniz rule on all basis pairs."""
    p, n, c = L.p, L.n, L.c
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                row = np.zeros(n * n, dtype=np.int64)
                for b in range(n):
                    row[b * n + k] += c[i, j, b]
                    row[j * n + b] -= c[i, b, k]
                    row[i * n + b] -= c[b, j, k]
                rows.append(row % p)
    return np.array(rows, dtype=np.int64) if rows else zeros(0, n * n)


def _p_power_rows(L: RestrictedLieAlgebra, g: np.ndarray) -> np.ndarray:
    """Conditions D(g^{[p]}) = (ad g)^{p-1} D(g); linear in D, not in g."""
    p, n = L.p, L.n
    gp = L.p_power(g)
    A = mat_pow_mod(L.ad(g), p - 1, p)
    left = np.kron(gp.reshape(1, -1), identity(n))
    right = np.kron(g.reshape(1, -1), A)
    return (left - right) % p


def restricted_derivations(L: RestrictedLieAlgebra) -> Subspace:
    """All restricted derivations, as a Subspace.

    Vectors use the layout of degree-1 cochains with adjoint
    coefficients: slot i*n+b holds D(e_i)_b.  The Leibniz rule is
    imposed on basis pairs and the p-power condition on the basis, which
    is exact (module docstring).
    """
    p, n = L.p, L.n
    blocks = [_derivation_rows(L)] + [_p_power_rows(L, L.basis_vector(i)) for i in range(n)]
    return Subspace(nullspace(np.vstack(blocks), p), n * n, p)


def inner_derivations(L: RestrictedLieAlgebra) -> Subspace:
    """Span of the adjoint maps, in cochain vector layout."""
    rows = np.stack([L.c[u].reshape(-1) for u in range(L.n)])
    return Subspace(rows, L.n * L.n, L.p)


def module_extension_roundtrip(L: RestrictedLieAlgebra, N: RestrictedModule,
                               M: RestrictedModule, psi: np.ndarray) -> dict:
    """Build the extension module for psi and recover psi from it.

    psi is a degree-1 cochain with values in Hom(N, M), flat layout
    i*(dim N * dim M) + column-major hom coordinates.  The action on
    N ⊕ M is g(n, m) = (gn, gm + psi(g)(n)).  The canonical splitting
    n ↦ (n, 0) must return psi exactly; the splitting n ↦ (n, -f(n))
    must shift it by the coboundary of f.
    """
    H = hom_module(N, M)
    p = L.p
    psi = np.asarray(psi, dtype=np.int64).reshape(-1) % p
    if (delta1_matrix(L, H) @ psi).any():
        raise NotACocycle("psi is not a degree-1 cocycle in Hom(N, M)")
    nn, m = N.m, M.m
    psi_mats = psi.reshape(L.n, nn, m).transpose(0, 2, 1)
    rho_e = np.zeros((L.n, nn + m, nn + m), dtype=np.int64)
    rho_e[:, :nn, :nn] = N.rho
    rho_e[:, nn:, nn:] = M.rho
    rho_e[:, nn:, :nn] = psi_mats
    E = RestrictedModule(L, rho_e, check=False)
    checks = [{"name": "extension_is_restricted_module", "pass": verify_module(E)["pass"]}]

    def recovered(split: np.ndarray) -> np.ndarray:
        """Per basis element, g·split(n) - split(g·n)."""
        return (rho_e @ split - split @ N.rho) % p

    # canonical splitting n -> (n, 0): recovered map is psi
    inj = zeros(nn + m, nn)
    inj[:nn] = identity(nn)
    rec = recovered(inj)
    checks.append({"name": "canonical_splitting_recovers_psi",
                   "pass": not rec[:, :nn].any() and bool((rec[:, nn:] == psi_mats).all())})

    f = sample_vectors(p, nn * m, 1, "module-extension-perturbation")[0]
    rho2 = inj.copy()
    rho2[nn:] = (-f.reshape(nn, m).T) % p
    shifted = recovered(rho2)[:, nn:].transpose(0, 2, 1).reshape(-1)
    want = (psi + delta_cl_matrix(L, H, 0) @ f) % p
    checks.append({"name": "perturbed_splitting_shift_is_coboundary",
                   "pass": bool((shifted == want).all())})
    return _report(checks)


def algebra_extension_roundtrip(L: RestrictedLieAlgebra, h_dim: int, c2: Cochain2,
                                h_c: np.ndarray | None = None,
                                h_pi: np.ndarray | None = None) -> dict:
    """Central extension of the algebra by a strongly abelian block.

    The extension lives on h ⊕ g with bracket (phi(g,g'), [gg']) and
    p-operator (omega(g), g^{[p]}).  Recovery uses the genuine p-power
    of the extension, so the omega comparison exercises the full
    additive law, not just the table.
    """
    if h_c is not None and np.asarray(h_c).any():
        raise NotStronglyAbelian("coefficient block must have zero bracket")
    if h_pi is not None and np.asarray(h_pi).any():
        raise NotStronglyAbelian("coefficient block must have zero p-operator")
    p, n = L.p, L.n
    T = trivial_module(L, h_dim)
    vec = c2_to_vec(L, T, c2)
    if (delta2_matrix(L, T) @ vec).any():
        raise NotACocycle("(phi, omega) is not a degree-2 cocycle")
    phi, omega = c2.phi, c2.omega_basis
    ne = h_dim + n
    c_e = np.zeros((ne, ne, ne), dtype=np.int64)
    pi_e = np.zeros((ne, ne), dtype=np.int64)
    c_e[h_dim:, h_dim:, :h_dim] = phi
    c_e[h_dim:, h_dim:, h_dim:] = L.c
    pi_e[h_dim:, :h_dim] = omega
    pi_e[h_dim:, h_dim:] = L.pi
    E = RestrictedLieAlgebra(p, c_e, pi_e)

    def sigma(g: np.ndarray, shift: np.ndarray | None = None) -> np.ndarray:
        out = np.zeros(ne, dtype=np.int64)
        out[h_dim:] = g % p
        if shift is not None:
            out[:h_dim] = (-shift) % p
        return out

    def extract(split) -> tuple[np.ndarray, np.ndarray]:
        ph = np.zeros((n, n, h_dim), dtype=np.int64)
        om = np.zeros((n, h_dim), dtype=np.int64)
        for i in range(n):
            ei = np.eye(n, dtype=np.int64)[i]
            for j in range(n):
                ej = np.eye(n, dtype=np.int64)[j]
                br = E.bracket(split(ei), split(ej))
                br = (br - split(L.bracket(ei, ej))) % p
                if br[h_dim:].any():
                    raise InvariantFailure(f"extension bracket of basis {i},{j} leaves the kernel h")
                ph[i, j] = br[:h_dim]
            om_i = (E.p_power(split(ei)) - split(L.p_power(ei))) % p
            if om_i[h_dim:].any():
                raise InvariantFailure(f"extension p-power of basis {i} leaves the kernel h")
            om[i] = om_i[:h_dim]
        return ph, om

    ph0, om0 = extract(lambda g: sigma(g))
    checks = [{"name": "canonical_splitting_recovers_cochain",
               "pass": bool((ph0 == phi).all() and (om0 == omega).all())}]

    psi = sample_vectors(p, n * h_dim, 1, "algebra-extension-perturbation")[0]
    psi_mat = psi.reshape(n, h_dim)
    ph1, om1 = extract(lambda g: sigma(g, shift=(g @ psi_mat) % p))
    d1 = delta1_matrix(L, T) @ psi
    want = c2_from_vec(L, T, (vec + d1) % p)
    checks.append({"name": "perturbed_splitting_shift_is_delta1",
                   "pass": bool((ph1 == want.phi).all() and (om1 == want.omega_basis).all())})
    return _report(checks)


def _deformed_algebra(L: RestrictedLieAlgebra, c2: Cochain2) -> RestrictedLieAlgebra:
    """Double the algebra over a square-zero parameter t.

    Basis: e_0..e_{n-1}, then t·e_0..t·e_{n-1}.  The deformed bracket
    adds phi(g,h)·t and the deformed p-power adds omega(g)·t; axioms
    are deliberately unchecked here so failures land in the verifier.
    """
    p, n = L.p, L.n
    c_d = np.zeros((2 * n, 2 * n, 2 * n), dtype=np.int64)
    pi_d = np.zeros((2 * n, 2 * n), dtype=np.int64)
    c_d[:n, :n, :n] = L.c
    c_d[:n, :n, n:] = c2.phi
    c_d[:n, n:, n:] = L.c
    c_d[n:, :n, n:] = L.c
    pi_d[:n, :n] = L.pi
    pi_d[:n, n:] = c2.omega_basis
    return RestrictedLieAlgebra(p, c_d, pi_d, check=False)


def deformation_check(L: RestrictedLieAlgebra, c2: Cochain2) -> dict:
    """Deform by (phi, omega) over t with t² = 0 and test restrictedness.

    Returns a report with the verifier outcome, the degree-2 cocycle
    predicate, whether they agree, and the first failing axiom.  The
    adjoint module and its delta2 are built on the first call for L and
    kept (gmod.adjoint_module), so only the deformed algebra is verified
    on later calls.
    """
    p = L.p
    A = adjoint_module(L)
    vec = c2_to_vec(L, A, c2)
    cocycle = not (delta2_matrix(L, A) @ vec).any()
    report = verify_restricted(_deformed_algebra(L, c2))
    restricted = report["pass"]
    bad = _failing(report)
    return {
        "restricted": restricted,
        "cocycle": cocycle,
        "agrees": restricted == cocycle,
        "failing": None if bad is None else {"axiom": bad["name"], "at": bad["counterexample"]},
        "report": report,
    }
