"""Restricted cochain complex in degrees 0..3.

Degree 2 cochains are pairs (phi, omega): phi an alternating 2-form
with values in M, omega determined by its basis values through the
*-property relative to phi.  Degree 3 cochains are pairs (alpha, beta):
alpha an alternating 3-form, beta linear in the first slot and extended
in the second through the **-property relative to alpha.  Coordinates:
phi/alpha slots on increasing tuples first (lex order), then the free
omega slots (basis order) or beta slots (ordered pairs, row-major),
module index fastest throughout.

The *-correction for omega(g+h) sums over all length-p sequences
(g_1 = g, g_2 = h, rest free in {g, h}), weighting each by the inverse
of the number of g's; the **-correction additionally splits the trailing
action positions into an acting part and a part bracketed onto the first
argument.  Every summand is multilinear in the free entries, so
liealg.quadrature evaluates both sums exactly from fewer than p
sequences, each with every free entry equal to one x = t g + h; there
the 2^j splits collapse into j applications of the action of x on
Hom(L, M).  eval_omega and eval_beta take liealg._peel's pairs as two
stacks and call their correction once: one Horner pass of batched
products runs every (pair, node) at once.  Both correction formulas
are pinned down by the delta2.delta1 = 0 matrix identity and by the
closure tests.

The matrices of delta1 and delta2 stack the classical block over the
terms of psi-tilde and of the induced beta on the basis, summed by
linalg.kron_sum with ops 1, rho(e_j)^a and rho(e_i)^(p-1).

A RestrictedComplex is the linalg.Complex of these matrices for one
(L, M), stacked on its own ClassicalComplex, so restricted H^k,
classical H^k and the comparison map between them share every matrix.
Both keep what they build on M (classical.ModuleComplex), so delta1,
delta2, their matrices, restricted_cohomology and compare_classical
build each coboundary of a module once, however often they are called.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import (Cohomology, InvariantFailure, as_fp, identity, kron_sum, mat_pow_mod,
                     rank, zeros)
from .liealg import RestrictedLieAlgebra, _peel, quadrature
from .gmod import RestrictedModule, invariants
from .classical import ClassicalComplex, ModuleComplex


@dataclass
class Cochain2:
    """phi: (n, n, m) antisymmetric basis values; omega_basis: (n, m)."""

    phi: np.ndarray
    omega_basis: np.ndarray


@dataclass
class Cochain3:
    """alpha: (n, n, n, m) alternating basis values; beta_basis: (n, n, m)."""

    alpha: np.ndarray
    beta_basis: np.ndarray


def pair_tuples(n: int) -> list[tuple]:
    return list(itertools.combinations(range(n), 2))


def triple_tuples(n: int) -> list[tuple]:
    return list(itertools.combinations(range(n), 3))


@functools.lru_cache(maxsize=None)
def _tuple_index(n: int, k: int) -> tuple:
    """The increasing k-tuples of range(n), in lex order, as k index arrays,
    read-only since every caller shares them."""
    at = np.array(list(itertools.combinations(range(n), k)), dtype=np.int64).reshape(-1, k).T
    at.setflags(write=False)
    return tuple(at)


@functools.lru_cache(maxsize=None)
def _form_cells(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Where an alternating k-form's values on the increasing k-tuples of
    range(n) go among its n^k argument cells: row s of the index array
    holds the cells of the tuples permuted by the s-th permutation of
    range(k), whose sign is sign[s].  Read-only, since every caller
    shares them."""
    at = np.stack(_tuple_index(n, k))
    perms = list(itertools.permutations(range(k)))
    index = np.stack([np.ravel_multi_index(tuple(at[list(perm)]), (n,) * k) for perm in perms])
    sign = np.array([(-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
                     for perm in perms], dtype=np.int64).reshape(-1, 1, 1)
    index.setflags(write=False)
    sign.setflags(write=False)
    return index, sign


def _vec_to_form(L, M, v: np.ndarray, k: int) -> np.ndarray:
    """The alternating k-form with values v on the increasing k-tuples."""
    index, sign = _form_cells(L.n, k)
    val = v[: index.shape[1] * M.m].reshape(-1, M.m) % L.p
    form = np.zeros((L.n ** k, M.m), dtype=np.int64)
    form[index] = sign * val % L.p
    return form.reshape((L.n,) * k + (M.m,))


def c2_from_vec(L, M, v: np.ndarray) -> Cochain2:
    nphi = len(pair_tuples(L.n)) * M.m
    return Cochain2(_vec_to_form(L, M, v, 2), v[nphi:].reshape(L.n, M.m) % L.p)


def c2_to_vec(L, M, c2: Cochain2) -> np.ndarray:
    phi = c2.phi[_tuple_index(L.n, 2)].reshape(-1)
    return as_fp(np.concatenate([phi, c2.omega_basis.reshape(-1)]), L.p)


def c3_from_vec(L, M, v: np.ndarray) -> Cochain3:
    nalpha = len(triple_tuples(L.n)) * M.m
    return Cochain3(_vec_to_form(L, M, v, 3), v[nalpha:].reshape(L.n, L.n, M.m) % L.p)


def c3_to_vec(L, M, c3: Cochain3) -> np.ndarray:
    alpha = c3.alpha[_tuple_index(L.n, 3)].reshape(-1)
    return as_fp(np.concatenate([alpha, c3.beta_basis.reshape(-1)]), L.p)


def _fix_first(form: np.ndarray, u: np.ndarray, p: int) -> np.ndarray:
    """A form with its first argument set to the reduced vector u; a
    stack of vectors u gives a stack of forms."""
    n = form.shape[0]
    return (u @ form.reshape(n, -1) % p).reshape(u.shape[:-1] + form.shape[1:])


def _phi_eval(phi: np.ndarray, u, v, p: int) -> np.ndarray:
    return v @ _fix_first(phi, u, p) % p


def _alpha_eval(alpha: np.ndarray, u, v, w, p: int) -> np.ndarray:
    return _phi_eval(_fix_first(alpha, u, p), v, w, p)


def _nodes(L, A, R) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature weights, and per pair of rows (a, r) of A and R the
    nodes x = t a + r, a k x T x n stack."""
    ts, ws = quadrature(L.p)
    return ws, (ts[:, None] * A[:, None] + R[:, None]) % L.p


def star_correction(L, M, phi: np.ndarray, A: np.ndarray, R: np.ndarray) -> np.ndarray:
    """The *-property corrections for omega(a + r), with g_1 = a, g_2 = r,
    summed over the pairs of rows (a, r) of the k x n stacks A and R.

    Per sequence (l_1, ..., l_p) it is the sum over k of (-1)^k
    rho(l_p) ... rho(l_{p-k+1}) phi([l_1, ..., l_{p-k-1}], l_{p-k}).  At a
    node x every free l equals x, so the k-sum is a Horner pass in rho(x)
    along the chain [a, r, x, ..., x].  One pass runs every pair and node
    at once, stopped once every chain and accumulated value vanishes; the
    chain's matrices are built only if some [a, r] is nonzero.  Without a
    tail (p = 2: one node, t = 1, of weight 1) it is the sum of the phi(a, r).
    """
    p = L.p
    if not len(A):
        return np.zeros(M.m, dtype=np.int64)
    acc = R[:, None] @ _fix_first(phi, A, p) % p  # row (s, 0): phi(a_s, r_s)
    u = A[:, None] @ L._right_ad(R) % p  # row (s, 0): [a_s, r_s]
    if p == 2 or not (acc.any() or u.any()):
        return acc.sum(axis=(0, 1)) % p
    ws, xs = _nodes(L, A, R)
    acc, u = acc[:, None], u[:, None]
    rho_x = _fix_first(M.rho.transpose(0, 2, 1), xs, p)  # v -> rho(x) v on row vectors
    chain = u.any()
    if chain:
        ad_x = L._right_ad(xs)
        phi_x = _fix_first(phi.transpose(1, 0, 2), xs, p)  # row u: phi(u, x)
    for _ in range(p - 2):
        acc = -(acc @ rho_x)
        if chain:
            acc += u @ phi_x
            u = u @ ad_x % p
            chain = u.any()
        acc %= p
        if not (chain or acc.any()):
            break
    return ws @ acc.sum(axis=0).reshape(-1, M.m) % p


def star_star_correction(L, M, alpha: np.ndarray, g, H1: np.ndarray, H2: np.ndarray) -> np.ndarray:
    """The **-property corrections for beta(g, h1 + h2), summed over the
    pairs of rows (h1, h2) of the k x n stacks H1 and H2.

    For each sequence (l_1 = h1, l_2 = h2, rest free) and each j, the
    last j positions split into an acting set A and a set B bracketed
    onto g; both the action product and the bracket tail run through
    their positions in descending order.  At a node x every free l
    equals x, and the 2^j splits sum to (T^j F_j)(g), where
    F_j = alpha(., [l_1, ..., l_{p-j-1}], l_{p-j}) and
    T F = rho(x) F + F([., x]) is the action of x on Hom(L, M).  The
    alternating j-sum is a Horner pass in T on n x m matrices, run as
    star_correction runs its own; without a tail it is the sum of the
    alpha(g, h1, h2).
    """
    p, n, m = L.p, L.n, M.m
    k = len(H1)
    if not k:
        return np.zeros(m, dtype=np.int64)
    wvu = alpha.transpose(2, 1, 0, 3)
    fixed = _fix_first(wvu, H2, p).reshape(k, n, n * m)
    acc = (H1[:, None] @ fixed % p).reshape(k, 1, n, m)  # row w: alpha(w, h1, h2)
    u = (H1[:, None] @ L._right_ad(H2) % p)[:, None]  # [h1, h2]
    if p == 2 or not (acc.any() or u.any()):
        return g @ acc.sum(axis=(0, 1)) % p
    ws, xs = _nodes(L, H1, H2)
    ad_x, rho_x = L._right_ad(xs), _fix_first(M.rho.transpose(0, 2, 1), xs, p)
    chain = u.any()
    if chain:
        alpha_x = _fix_first(wvu, xs, p).reshape(xs.shape[:2] + (n, n * m))  # row v: alpha(., v, x)
    for _ in range(p - 2):
        acc = -(acc @ rho_x + ad_x @ acc)
        if chain:
            acc += (u @ alpha_x).reshape(acc.shape)
            u = u @ ad_x % p
            chain = u.any()
        acc %= p
        if not (chain or acc.any()):
            break
    return g @ (ws @ acc.sum(axis=0).reshape(-1, n * m) % p).reshape(n, m) % p


def eval_omega(L, M, c2: Cochain2, g, order: str = "asc") -> np.ndarray:
    """Value of omega at an arbitrary point, by the *-property extension:
    omega(lam e_i) = lam^p omega(e_i) = lam omega(e_i) on the components of
    g, plus the star_correction summed over liealg's peel of g."""
    g = L._check_vec(g)
    return (g @ c2.omega_basis + star_correction(L, M, c2.phi, *_peel(g, order))) % L.p


def eval_beta(L, M, c3: Cochain3, g, h, order: str = "asc") -> np.ndarray:
    """Value of beta at an arbitrary pair: linear in g, and in h the
    **-property extension, beta(g, lam e_i) = lam^p beta(g, e_i) =
    lam beta(g, e_i) on the components of h, minus the
    star_star_correction summed over liealg's peel of h."""
    p = L.p
    g = L._check_vec(g)
    h = L._check_vec(h)
    base = h @ _fix_first(c3.beta_basis, g, p)
    return (base - star_star_correction(L, M, c3.alpha, g, *_peel(h, order))) % p


def psi_tilde(L, M, psi: np.ndarray, g) -> np.ndarray:
    """Direct formula psi(g^[p]) - g^(p-1).psi(g) for a linear psi given
    by its basis values (n, m)."""
    p = L.p
    g = L._check_vec(g)
    first = (L.p_power(g) @ psi) % p
    act = mat_pow_mod(M.matrix_of(g), p - 1, p)
    return (first - act @ ((g @ psi) % p)) % p


def beta_induced(L, M, c2: Cochain2, g, h) -> np.ndarray:
    """Direct formula for the beta induced by (phi, omega) at (g, h):
    phi(g, h^[p]) - sum_a (-1)^a rho(h)^a phi([g, h, ..., h], h), with
    p - 1 - a brackets, + rho(g) omega(h).  The chain g (ad h)^b is read
    through the matrix of u -> [u, h] and each phi(., h) through one
    matrix; the a-sum is a Horner pass in rho(h) along the chain, stopped
    once the chain and the accumulated value vanish."""
    p = L.p
    g = L._check_vec(g)
    h = L._check_vec(h)
    ad_h, rho_h = L._right_ad(h), M.matrix_of(h)
    phi_h = _fix_first(c2.phi.transpose(1, 0, 2), h, p)  # row u: phi(u, h)
    u, acc = g, np.zeros(M.m, dtype=np.int64)
    for _ in range(p):
        acc = (u @ phi_h - rho_h @ acc) % p
        u = u @ ad_h % p
        if not (u.any() or acc.any()):
            break
    out = _phi_eval(c2.phi, g, L.p_power(h), p) - acc
    return (out + M.matrix_of(g) @ eval_omega(L, M, c2, h)) % p


def delta1(L, M, psi: np.ndarray) -> Cochain2:
    """Cochain-level delta1: psi -> (delta_cl psi, psi-tilde on basis)."""
    psi = np.asarray(psi, dtype=np.int64).reshape(-1) % L.p
    return c2_from_vec(L, M, delta1_matrix(L, M) @ psi % L.p)


def delta1_matrix(L, M) -> np.ndarray:
    """Matrix of delta1: delta_cl(1) over the psi-tilde block."""
    return RestrictedComplex(L, M).delta(1)


def _psi_tilde_block(L, M) -> np.ndarray:
    """The rows of delta1 below delta_cl(1): terms pi[i, l] · 1 at block
    (i, l) and -rho(e_i)^(p-1) at block (i, i)."""
    n, p = L.n, L.p
    terms = [(i, l, int(L.pi[i, l]), 0) for i, l in zip(*np.nonzero(L.pi))]
    terms += [(i, i, -1, 1 + i) for i in range(n)]
    ops = [identity(M.m)] + [mat_pow_mod(rho, p - 1, p) for rho in M.rho]
    return kron_sum((n, n), terms, ops, p)


def delta2(L, M, c2: Cochain2) -> Cochain3:
    """Cochain-level delta2: (phi, omega) -> (delta_cl phi, induced beta)."""
    return c3_from_vec(L, M, delta2_matrix(L, M) @ c2_to_vec(L, M, c2) % L.p)


def delta2_matrix(L, M) -> np.ndarray:
    """Matrix of delta2 on (phi pairs | omega basis): delta_cl(2) over the beta block."""
    return RestrictedComplex(L, M).delta(2)


def _powers(a: np.ndarray, p: int) -> list[np.ndarray]:
    """a^0, a^1, ..., a^(p-1), reduced mod p."""
    return list(itertools.accumulate([a] * (p - 1), lambda x, y: x @ y % p,
                                     initial=identity(len(a))))


def _beta_block(L, M) -> np.ndarray:
    """The rows of delta2 below the classical block.  Row block (i, j)
    holds the terms of beta(e_i, e_j): phi(e_i, e_j^[p]), the alternating
    sum of rho(e_j)^a phi([e_i, e_j, ..., e_j], e_j) over p-1-a brackets,
    read off powers of the matrix of u -> [u, e_j], and rho(e_i) omega(e_j)."""
    n, p = L.n, L.p
    pairs, phi_block = pair_tuples(n), {}  # (a, b), a != b: phi column block and sign
    for r, (a, b) in enumerate(pairs):
        phi_block[a, b], phi_block[b, a] = (r, 1), (r, -1)
    # rho(e_j)^a at j*p + a, then rho(e_i) at n*p + i
    ops = [power for rho in M.rho for power in _powers(rho, p)] + list(M.rho)
    terms = []
    for j in range(n):
        # row i of chains[b]: [e_i, e_j, ..., e_j] with b brackets
        chains = _powers(L._right_ad(L.basis_vector(j)), p)
        for i in range(n):
            row = i * n + j
            for l in np.flatnonzero(L.pi[j]).tolist():
                if l != i:
                    col, sgn = phi_block[i, l]
                    terms.append((row, col, sgn * int(L.pi[j, l]), j * p))
            for a in range(p):
                chain = chains[p - 1 - a][i]
                for l in np.flatnonzero(chain).tolist():
                    if l != j:
                        col, sgn = phi_block[l, j]
                        terms.append((row, col, (-1) ** (a + 1) * int(chain[l]) * sgn, j * p + a))
            terms.append((row, len(pairs) + j, 1, n * p + i))
    return kron_sum((n * n, len(pairs) + n), terms, ops, p)


class RestrictedComplex(ModuleComplex):
    """The restricted complex of one (L, M) in degrees 0..3.  delta(0)
    and the classical blocks of delta(1) and delta(2) come from
    ``classical``, so the two complexes and the comparison map between
    their cohomology build each coboundary once, and M keeps them for
    every later complex over it."""

    def __init__(self, L: RestrictedLieAlgebra, M: RestrictedModule):
        self.classical = classical = ClassicalComplex(L, M)

        def stack(k: int):  # not a method: no cycle, so a dropped complex is freed at once
            """delta(k) for k <= 2: the classical block over the restricted rows."""
            if k > 2:
                raise ValueError("restricted coboundaries are built here for k <= 2 only")
            top = classical.delta(k)
            if k == 1:
                return np.vstack([top, _psi_tilde_block(L, M)])
            if k == 2:
                return np.vstack([np.hstack([top, zeros(len(top), L.n * M.m)]), _beta_block(L, M)])
            return top

        super().__init__(L, M, "restricted", stack)

    def cohomology(self, k: int) -> Cohomology:
        """Restricted H^k for k in {1, 2}."""
        if k not in (1, 2):
            raise ValueError("restricted cohomology is defined here for k <= 2 only")
        return super().cohomology(k)

    def compare(self, k: int):
        """Matrix of the induced map H^k -> H^k_cl in the representative
        bases, and its kernel dimension.

        The map keeps the classical coordinates, forgetting omega (k = 2);
        the class coordinates of every forgotten representative are read
        off at once.  Like ``cohomology``, it refuses k outside {1, 2}.
        """
        H = self.cohomology(k)
        forgotten = H.reps[:, : self.classical.delta(k).shape[1]]
        coords = self.classical.cohomology(k).coordinates(forgotten)
        if coords is None:
            raise InvariantFailure("forgetful image of a restricted cocycle is not a classical class")
        map_matrix = coords.T.copy()
        return map_matrix, H.dim - rank(map_matrix, self.p)


def restricted_cohomology(L, M, k: int):
    """(dimension, representative rows) of restricted H^k, k in {0, 1, 2}."""
    cx = RestrictedComplex(L, M)  # refuses a module over another algebra
    if k == 0:
        inv = invariants(M)
        return inv.dim, inv.basis
    H = cx.cohomology(k)
    return H.dim, H.reps


def compare_classical(L, M, k: int):
    """Matrix of the induced map H^k -> H^k_cl in the computed
    representative bases, together with its kernel dimension.

    The matrix has shape (dim H^k_cl, dim H^k), so this one call gives
    both dimensions as well.
    """
    return RestrictedComplex(L, M).compare(k)
