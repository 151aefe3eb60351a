"""The restricted coboundaries evaluated cochain by cochain.

Reference implementations of delta1 and delta2 that compute omega and
beta on the basis by their defining formulas: psi-tilde(e_i) from the
p-operator and the (p-1)-st power of rho(e_i), and the induced beta(e_i,
e_j) from the p-power, the bracket chain [e_i, e_j, ..., e_j] and the
powers of rho(e_j).  They serve only as an oracle for the matrices
rescochain.delta1_matrix and delta2_matrix, which rescochain.delta1 and
delta2 apply.
"""

import numpy as np

from rescoh.classical import delta_cl_matrix
from rescoh.linalg import mat_pow_mod
from rescoh.rescochain import (Cochain2, Cochain3, _phi_eval, pair_vec_to_tensor,
                               tensor_to_pair_vec, triple_vec_to_tensor)


def delta1(L, M, psi: np.ndarray) -> Cochain2:
    """psi -> (delta_cl psi, psi-tilde on the basis)."""
    p = L.p
    psi = np.asarray(psi, dtype=np.int64) % p
    phi_flat = (delta_cl_matrix(L, M, 1) @ psi.reshape(-1)) % p
    om = np.zeros((L.n, M.m), dtype=np.int64)
    for i in range(L.n):
        om[i] = (L.pi[i] @ psi - mat_pow_mod(M.rho[i], p - 1, p) @ psi[i]) % p
    return Cochain2(phi=pair_vec_to_tensor(L, M, phi_flat), omega_basis=om)


def delta2(L, M, c2: Cochain2) -> Cochain3:
    """(phi, omega) -> (delta_cl phi, the induced beta on basis pairs)."""
    p, n, m = L.p, L.n, M.m
    alpha_flat = (delta_cl_matrix(L, M, 2) @ tensor_to_pair_vec(L, M, c2.phi)) % p
    beta = np.zeros((n, n, m), dtype=np.int64)
    for j in range(n):
        ej = L.basis_vector(j)
        rp = [np.eye(m, dtype=np.int64)]
        for _ in range(p - 1):
            rp.append((rp[-1] @ M.rho[j]) % p)
        for i in range(n):
            val = np.einsum("l,lb->b", L.pi[j], c2.phi[i]) % p
            u = L.basis_vector(i)
            vals = []
            for b in range(p):
                vals.append(_phi_eval(c2.phi, u, ej, p))
                u = L.bracket(u, ej)
            for a in range(p):
                b = p - 1 - a
                val = (val - (-1) ** a * (rp[a] @ vals[b])) % p
            val = (val + M.rho[i] @ c2.omega_basis[j]) % p
            beta[i, j] = val
    return Cochain3(alpha=triple_vec_to_tensor(L, M, alpha_flat), beta_basis=beta)
