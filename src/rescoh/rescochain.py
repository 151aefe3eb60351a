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
Hom(L, M).  Both correction formulas are pinned down by the
delta2.delta1 = 0 matrix identity and by the closure tests.

The matrices of delta1 and delta2 stack the classical block over the
terms of psi-tilde and of the induced beta on the basis, summed by
linalg.kron_sum with ops 1, rho(e_j)^a and rho(e_i)^(p-1).

A RestrictedComplex holds the coboundary matrices and cohomology groups
of one (L, M) over its ClassicalComplex, so restricted H^k, classical
H^k and the comparison map between them share every matrix.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import (Cohomology, InvariantFailure, as_fp, cohomology, identity, kron_sum,
                     mat_pow_mod, rank, zeros)
from .liealg import RestrictedLieAlgebra, quadrature
from .gmod import RestrictedModule, invariants
from .classical import ClassicalComplex, delta_cl_matrix


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


def _vec_to_form(L, M, v: np.ndarray, k: int) -> np.ndarray:
    """The alternating k-form with values v on the increasing k-tuples."""
    at = _tuple_index(L.n, k)
    val = v[: len(at[0]) * M.m].reshape(-1, M.m) % L.p
    form = np.zeros((L.n,) * k + (M.m,), dtype=np.int64)
    for perm in itertools.permutations(range(k)):
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        form[tuple(at[x] for x in perm)] = sign * val % L.p
    return form


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


def _tail_nodes(L, M, a, b):
    """Quadrature weights, the nodes x = t a + b, and per node the matrices
    of u -> [u, x] and of v -> rho(x) v, both acting on row vectors."""
    ts, ws = quadrature(L.p)
    xs = (np.outer(ts, a) + b) % L.p
    return ws, xs, L._right_ad(xs), _fix_first(M.rho.transpose(0, 2, 1), xs, L.p)


def star_correction(L, M, phi: np.ndarray, a, b) -> np.ndarray:
    """The *-property correction for omega(a + b), with g_1 = a, g_2 = b.

    Per sequence (l_1, ..., l_p) it is the sum over k of (-1)^k
    rho(l_p) ... rho(l_{p-k+1}) phi([l_1, ..., l_{p-k-1}], l_{p-k}).  At a
    node x every free l equals x, so the k-sum is one Horner pass in
    rho(x) along the chain [a, b, x, ..., x], stopped once both the chain
    and the accumulated value vanish.
    """
    p = L.p
    a = L._check_vec(a)
    b = L._check_vec(b)
    acc, u = _phi_eval(phi, a, b, p)[None], a[None] @ L._right_ad(b) % p
    if not (acc.any() or u.any()):
        return acc[0]
    ws, xs, ad_x, rho_x = _tail_nodes(L, M, a, b)
    phi_x = _fix_first(phi.transpose(1, 0, 2), xs, p)  # row u: phi(u, x)
    for _ in range(p - 2):
        acc = -(acc @ rho_x)
        live = u.any()
        if live:
            acc += u @ phi_x
            u = u @ ad_x % p
        acc %= p
        if not (live or acc.any()):
            break
    return ws @ acc.reshape(-1, M.m) % p


def star_star_correction(L, M, alpha: np.ndarray, g, h1, h2) -> np.ndarray:
    """The **-property correction for beta(g, h1 + h2).

    For each sequence (l_1 = h1, l_2 = h2, rest free) and each j, the
    last j positions split into an acting set A and a set B bracketed
    onto g; both the action product and the bracket tail run through
    their positions in descending order.  At a node x every free l
    equals x, and the 2^j splits sum to (T^j F_j)(g), where
    F_j = alpha(., [l_1, ..., l_{p-j-1}], l_{p-j}) and
    T F = rho(x) F + F([., x]) is the action of x on Hom(L, M).  The
    alternating j-sum is a Horner pass in T on n x m matrices.
    """
    p, n, m = L.p, L.n, M.m
    g = L._check_vec(g)
    h1 = L._check_vec(h1)
    h2 = L._check_vec(h2)
    wvu = alpha.transpose(2, 1, 0, 3)
    acc, u = _fix_first(_fix_first(wvu, h2, p), h1, p), h1[None] @ L._right_ad(h2) % p
    if not (acc.any() or u.any()):
        return np.zeros(m, dtype=np.int64)
    ws, xs, ad_x, rho_x = _tail_nodes(L, M, h1, h2)
    alpha_x = _fix_first(wvu, xs, p).reshape(len(ws), n, n * m)  # row v: alpha(., v, x)
    for _ in range(p - 2):
        acc = -(acc @ rho_x + ad_x @ acc)
        live = u.any()
        if live:
            acc += (u @ alpha_x).reshape(len(ws), n, m)
            u = u @ ad_x % p
        acc %= p
        if not (live or acc.any()):
            break
    return g @ (ws @ acc.reshape(len(ws), -1) % p).reshape(n, m) % p


def _peel_index(L, x, order: str) -> int:
    nz = np.nonzero(x)[0]
    return int(nz[0] if order == "asc" else nz[-1])


def eval_omega(L, M, c2: Cochain2, g, order: str = "asc") -> np.ndarray:
    """Value of omega at an arbitrary point, by the *-property extension."""
    p = L.p
    g = L._check_vec(g)
    if not g.any():
        return np.zeros(M.m, dtype=np.int64)
    i = _peel_index(L, g, order)
    lam = int(g[i])
    base = (pow(lam, p, p) * c2.omega_basis[i]) % p
    rest = g.copy()
    rest[i] = 0
    if not rest.any():
        return base
    a = np.zeros(L.n, dtype=np.int64)
    a[i] = lam
    tail = eval_omega(L, M, c2, rest, order)
    corr = star_correction(L, M, c2.phi, a, rest)
    return (base + tail + corr) % p


def eval_beta(L, M, c3: Cochain3, g, h, order: str = "asc") -> np.ndarray:
    """Value of beta at an arbitrary pair: linear in g, **-extension in h."""
    p = L.p
    g = L._check_vec(g)
    h = L._check_vec(h)
    if not h.any() or not g.any():
        return np.zeros(M.m, dtype=np.int64)
    i = _peel_index(L, h, order)
    lam = int(h[i])
    base = (pow(lam, p, p) * ((g @ c3.beta_basis[:, i, :]) % p)) % p
    rest = h.copy()
    rest[i] = 0
    if not rest.any():
        return base
    a = np.zeros(L.n, dtype=np.int64)
    a[i] = lam
    tail = eval_beta(L, M, c3, g, rest, order)
    corr = star_star_correction(L, M, c3.alpha, g, a, rest)
    return (base + tail - corr) % p


def psi_tilde(L, M, psi: np.ndarray, g) -> np.ndarray:
    """Direct formula psi(g^[p]) - g^(p-1).psi(g) for a linear psi given
    by its basis values (n, m)."""
    p = L.p
    g = L._check_vec(g)
    first = (L.p_power(g) @ psi) % p
    act = mat_pow_mod(M.matrix_of(g), p - 1, p)
    return (first - act @ ((g @ psi) % p)) % p


def beta_induced(L, M, c2: Cochain2, g, h) -> np.ndarray:
    """Direct formula for the beta induced by (phi, omega) at (g, h)."""
    p = L.p
    g = L._check_vec(g)
    h = L._check_vec(h)
    out = _phi_eval(c2.phi, g, L.p_power(h), p)
    rh = M.matrix_of(h)
    u = g
    vals = []
    for b in range(p):
        vals.append(_phi_eval(c2.phi, u, h, p))
        u = L.bracket(u, h)
    acting = np.eye(M.m, dtype=np.int64)
    for a in range(p):
        b = p - 1 - a
        out = (out - (-1) ** a * (acting @ vals[b])) % p
        acting = (acting @ rh) % p
    return (out + M.matrix_of(g) @ eval_omega(L, M, c2, h)) % p


def delta0_matrix(L, M) -> np.ndarray:
    """delta0 = classical degree-0 coboundary: (delta v)(g) = -g.v."""
    return delta_cl_matrix(L, M, 0)


def delta1(L, M, psi: np.ndarray) -> Cochain2:
    """Cochain-level delta1: psi -> (delta_cl psi, psi-tilde on basis)."""
    psi = np.asarray(psi, dtype=np.int64).reshape(-1) % L.p
    return c2_from_vec(L, M, delta1_matrix(L, M) @ psi % L.p)


def delta1_matrix(L, M, cl=None) -> np.ndarray:
    """Matrix of delta1: the classical block delta_cl(1), given as ``cl``
    when already built, over the psi-tilde block, whose terms are
    pi[i, l] · 1 at block (i, l) and -rho(e_i)^(p-1) at block (i, i)."""
    n, p = L.n, L.p
    top = delta_cl_matrix(L, M, 1) if cl is None else cl
    terms = [(i, l, int(L.pi[i, l]), 0) for i, l in zip(*np.nonzero(L.pi))]
    terms += [(i, i, -1, 1 + i) for i in range(n)]
    ops = [identity(M.m)] + [mat_pow_mod(rho, p - 1, p) for rho in M.rho]
    return np.vstack([top, kron_sum((n, n), terms, ops, p)])


def delta2(L, M, c2: Cochain2) -> Cochain3:
    """Cochain-level delta2: (phi, omega) -> (delta_cl phi, induced beta)."""
    return c3_from_vec(L, M, delta2_matrix(L, M) @ c2_to_vec(L, M, c2) % L.p)


def _powers(a: np.ndarray, p: int) -> list[np.ndarray]:
    """a^0, a^1, ..., a^(p-1), reduced mod p."""
    return list(itertools.accumulate([a] * (p - 1), lambda x, y: x @ y % p,
                                     initial=identity(len(a))))


def delta2_matrix(L, M, cl=None) -> np.ndarray:
    """Matrix of delta2 on (phi pairs | omega basis) coordinates; ``cl`` is
    its classical block delta_cl(2) when already built.  Row block (i, j)
    of the beta part holds the terms of beta(e_i, e_j): phi(e_i, e_j^[p]),
    the alternating sum of rho(e_j)^a phi([e_i, e_j, ..., e_j], e_j) over
    p-1-a brackets, read off powers of the matrix of u -> [u, e_j], and
    rho(e_i) omega(e_j)."""
    n, m, p = L.n, M.m, L.p
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
    top = delta_cl_matrix(L, M, 2) if cl is None else cl
    bottom = kron_sum((n * n, len(pairs) + n), terms, ops, p)
    return np.vstack([np.hstack([top, zeros(len(top), n * m)]), bottom])


class RestrictedComplex:
    """The restricted complex of one (L, M) in degrees 0..3, over the
    classical complex of the same pair.

    delta0 and the classical blocks of delta1 and delta2 come from
    ``classical``, so the two complexes and the comparison map between
    their cohomology build each coboundary once.  Matrices and groups are
    kept for the life of the object.
    """

    def __init__(self, L: RestrictedLieAlgebra, M: RestrictedModule):
        self.L, self.M = L, M
        self.classical = ClassicalComplex(L, M)
        self._deltas: dict[int, np.ndarray] = {}
        self._groups: dict[int, Cohomology] = {}

    def delta(self, k: int) -> np.ndarray:
        """Matrix of delta_k, k in {0, 1, 2}."""
        if k == 0:
            return self.classical.delta(0)
        if k not in self._deltas:
            build = {1: delta1_matrix, 2: delta2_matrix}[k]
            self._deltas[k] = build(self.L, self.M, cl=self.classical.delta(k))
        return self._deltas[k]

    def cohomology(self, k: int) -> Cohomology:
        """Restricted H^k for k in {1, 2}."""
        if k not in (1, 2):
            raise ValueError("restricted cohomology is defined here for k <= 2 only")
        if k not in self._groups:
            self._groups[k] = cohomology(self.delta(k - 1), self.delta(k), self.L.p)
        return self._groups[k]

    def compare(self, k: int):
        """Matrix of the induced map H^k -> H^k_cl in the representative
        bases, and its kernel dimension.

        The map forgets omega (k = 2); the class coordinates of every
        forgotten representative are read off at once.
        """
        if k not in (1, 2):
            raise ValueError("comparison maps exist for k in {1, 2}")
        H = self.cohomology(k)
        forgotten = H.reps if k == 1 else H.reps[:, : len(pair_tuples(self.L.n)) * self.M.m]
        coords = self.classical.cohomology(k).coordinates(forgotten)
        if coords is None:
            raise InvariantFailure("forgetful image of a restricted cocycle is not a classical class")
        map_matrix = coords.T.copy()
        return map_matrix, H.dim - rank(map_matrix, self.L.p)


def restricted_cohomology(L, M, k: int):
    """(dimension, representative rows) of restricted H^k, k in {0, 1, 2}."""
    if k == 0:
        inv = invariants(M)
        return inv.dim, inv.basis
    H = RestrictedComplex(L, M).cohomology(k)
    return H.dim, H.reps


def compare_classical(L, M, k: int):
    """Matrix of the induced map H^k -> H^k_cl in the computed
    representative bases, together with its kernel dimension.

    The matrix has shape (dim H^k_cl, dim H^k), so this one call gives
    both dimensions as well.
    """
    return RestrictedComplex(L, M).compare(k)
