"""The coboundaries written out block by block and cochain by cochain.

Reference implementation of the classical coboundary matrix that adds
each action block sign · rho(g_s) and each bracket block coefficient · 1
into a zeroed array in place, one formula term at a time; it serves only
as an oracle for classical.delta_cl_matrix, which sums the same terms
with linalg.kron_sum.

Reference implementations of the coordinate maps between alternating
forms and their values on increasing tuples, one tuple at a time; they
serve as an oracle for the index-array maps behind rescochain's
c2_from_vec, c2_to_vec and c3_from_vec.

Reference implementations of delta1 and delta2 that compute omega and
beta on the basis by their defining formulas: psi-tilde(e_i) from the
p-operator and the (p-1)-st power of rho(e_i), and the induced beta(e_i,
e_j) from the p-power, the bracket chain [e_i, e_j, ..., e_j] and the
powers of rho(e_j).  They serve only as an oracle for the matrices
rescochain.delta1_matrix and delta2_matrix, which rescochain.delta1 and
delta2 apply.
"""

import numpy as np

from rescoh.classical import cochain_tuples
from rescoh.linalg import mat_pow_mod
from rescoh.rescochain import Cochain2, Cochain3, _phi_eval


def delta_cl_matrix(L, M, q: int) -> np.ndarray:
    """Matrix of delta: C^q -> C^(q+1) in the coordinate bases."""
    n, p, m = L.n, L.p, M.m
    src = cochain_tuples(n, q)
    dst = cochain_tuples(n, q + 1)
    src_rank = {S: r for r, S in enumerate(src)}
    D = np.zeros((len(dst) * m, len(src) * m), dtype=np.int64)
    eye = np.eye(m, dtype=np.int64)
    for rT, T in enumerate(dst):
        row0 = rT * m
        for s in range(1, q + 2):
            j = T[s - 1]
            rest = T[: s - 1] + T[s:]
            col0 = src_rank[rest] * m
            sgn = -1 if s % 2 else 1
            D[row0 : row0 + m, col0 : col0 + m] = (
                D[row0 : row0 + m, col0 : col0 + m] + sgn * M.rho[j]
            ) % p
        for s in range(1, q + 2):
            for t in range(s + 1, q + 2):
                rest = tuple(x for k, x in enumerate(T) if k not in (s - 1, t - 1))
                base = -1 if (s + t - 1) % 2 else 1
                for l in range(n):
                    coeff = int(L.c[T[s - 1], T[t - 1], l])
                    if coeff == 0 or l in rest:
                        continue
                    pos = sum(1 for x in rest if x < l)
                    S = tuple(sorted(rest + (l,)))
                    col0 = src_rank[S] * m
                    val = (base * coeff * (-1 if pos % 2 else 1)) % p
                    D[row0 : row0 + m, col0 : col0 + m] = (
                        D[row0 : row0 + m, col0 : col0 + m] + val * eye
                    ) % p
    return D % p


def pair_vec_to_tensor(L, M, v: np.ndarray) -> np.ndarray:
    n, m, p = L.n, M.m, L.p
    phi = np.zeros((n, n, m), dtype=np.int64)
    for r, (i, j) in enumerate(cochain_tuples(n, 2)):
        val = v[r * m : (r + 1) * m] % p
        phi[i, j] = val
        phi[j, i] = (-val) % p
    return phi


def tensor_to_pair_vec(L, M, phi: np.ndarray) -> np.ndarray:
    m = M.m
    ps = cochain_tuples(L.n, 2)
    out = np.zeros(len(ps) * m, dtype=np.int64)
    for r, (i, j) in enumerate(ps):
        out[r * m : (r + 1) * m] = phi[i, j] % L.p
    return out


def triple_vec_to_tensor(L, M, v: np.ndarray) -> np.ndarray:
    n, m, p = L.n, M.m, L.p
    alpha = np.zeros((n, n, n, m), dtype=np.int64)
    for r, (i, j, k) in enumerate(cochain_tuples(n, 3)):
        val = v[r * m : (r + 1) * m] % p
        for perm, sgn in (
            ((i, j, k), 1),
            ((j, k, i), 1),
            ((k, i, j), 1),
            ((j, i, k), -1),
            ((i, k, j), -1),
            ((k, j, i), -1),
        ):
            alpha[perm] = (sgn * val) % p
    return alpha


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
