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
products runs every (pair, node) at once.  The *-pass steps the value
and the bracket chain [a, r, x, ..., x] together, one matrix per point
from one product with a table of the basis elements, and that chain is
Jacobson's p-power correction: so star_correction returns both, and
beta_induced peels h once to read omega(h) and h^[p] off one pass.
rho at a point, or at a stack of points, is one product with the
module's action table (gmod.RestrictedModule).  Both correction
formulas are pinned down by the delta2.delta1 = 0 matrix identity and
by the closure tests.

Each public evaluation checks (reduces) its vector arguments once and
hands the reduced vectors to the private kernels; c2_from_vec and
c3_from_vec reduce their input once, and delta1 and delta2 read the
cochain off the reduced product without reducing it again.

The matrices of delta1 and delta2 are the SparseMatrix entries of the
classical block over those of the terms of psi-tilde and of the induced
beta on the basis, summed by linalg.kron_sum with ops 1, rho(e_j)^a and
rho(e_i)^(p-1).

A RestrictedComplex is the linalg.Complex of these matrices for one
(L, M), stacked on its own ClassicalComplex, so restricted H^k,
classical H^k and the comparison map between them share every matrix.
Both keep what they build on M (gmod.RestrictedModule._store), so
delta1, delta2, their matrices, restricted_cohomology and
compare_classical build each coboundary of a module once, however often
they are called.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import (Complex, InvariantFailure, SparseMatrix, as_fp, identity, kron_sum,
                     mat_pow_mod, rank)
from .liealg import RestrictedLieAlgebra, _jacobson_pass, _nodes, _peel
from .gmod import RestrictedModule
from .classical import ClassicalComplex, cochain_tuples


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


@functools.lru_cache(maxsize=None)
def _tuple_index(n: int, k: int) -> tuple:
    """The increasing k-tuples of range(n), in lex order, as k index arrays,
    read-only since every caller shares them."""
    at = np.array(cochain_tuples(n, k), dtype=np.int64).reshape(-1, k).T
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
    """The alternating k-form with values v on the increasing k-tuples
    (v need not be reduced: each value is reduced as it is placed)."""
    index, sign = _form_cells(L.n, k)
    val = v[: index.shape[1] * M.m].reshape(-1, M.m)
    form = np.zeros((L.n ** k, M.m), dtype=np.int64)
    form[index] = sign * val % L.p
    return form.reshape((L.n,) * k + (M.m,))


def _cochain(L, M, v: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k-form and the basis values (omega for k = 2, beta for k = 3)
    of a reduced coordinate vector v; the basis values are a view of v."""
    n, m = L.n, M.m
    nform = _tuple_index(n, k)[0].size * m
    return _vec_to_form(L, M, v, k), v[nform:].reshape((n,) * (k - 1) + (m,))


def c2_from_vec(L, M, v: np.ndarray) -> Cochain2:
    return Cochain2(*_cochain(L, M, as_fp(v, L.p), 2))


def c2_to_vec(L, M, c2: Cochain2) -> np.ndarray:
    phi = c2.phi[_tuple_index(L.n, 2)].reshape(-1)
    return np.concatenate([phi, c2.omega_basis.reshape(-1)]) % L.p


def c3_from_vec(L, M, v: np.ndarray) -> Cochain3:
    return Cochain3(*_cochain(L, M, as_fp(v, L.p), 3))


def c3_to_vec(L, M, c3: Cochain3) -> np.ndarray:
    alpha = c3.alpha[_tuple_index(L.n, 3)].reshape(-1)
    return np.concatenate([alpha, c3.beta_basis.reshape(-1)]) % L.p


def _fix_first(form: np.ndarray, u: np.ndarray, p: int) -> np.ndarray:
    """A form with its first argument set to the reduced vector u; a
    stack of vectors u gives a stack of forms."""
    n = form.shape[0]
    return (u @ form.reshape(n, -1) % p).reshape(u.shape[:-1] + form.shape[1:])


def _phi_eval(phi: np.ndarray, u, v, p: int) -> np.ndarray:
    return v @ _fix_first(phi, u, p) % p


def _alpha_eval(alpha: np.ndarray, u, v, w, p: int) -> np.ndarray:
    return _phi_eval(_fix_first(alpha, u, p), v, w, p)


def _chain_table(L, M, phi: np.ndarray) -> np.ndarray:
    """The matrices, at each basis element x, of one step of the chain of
    the *-property on row vectors [v | u], v in M and u in L:
    [v | u] -> [phi(u, x) - rho(x) v | [u, x]], built from M.rho, phi
    and the bracket table.  A step is linear in x, so x @ table
    (flattened) is the step at any x."""
    n, m = L.n, M.m
    table = np.zeros((n, m + n, m + n), dtype=np.int64)
    table[:, :m, :m] = -M.rho.transpose(0, 2, 1)
    table[:, m:, :m] = phi.transpose(1, 0, 2)
    table[:, m:, m:] = L._c_right.reshape(n, n, n)
    return table


def star_correction(L, M, phi: np.ndarray, A: np.ndarray, R: np.ndarray):
    """The *-property corrections for omega(a + r), with g_1 = a, g_2 = r,
    summed over the pairs of rows (a, r) of the k x n stacks A and R, and
    the p-power corrections of the same pairs, whose chain of brackets
    the pass runs along: a pair (omega correction, x^[p] correction).

    Per sequence (l_1, ..., l_p) it is the sum over k of (-1)^k
    rho(l_p) ... rho(l_{p-k+1}) phi([l_1, ..., l_{p-k-1}], l_{p-k}).  At a
    node x every free l equals x, so the k-sum is a Horner pass in rho(x)
    along the chain [a, r, x, ..., x]: liealg._jacobson_pass steps the
    value v and the chain u together as [v | u] by _chain_table, from
    [phi(a, r) | [a, r]] after the first step, and the chain's last
    value, weighted, is RestrictedLieAlgebra._r2_correction.  Without a
    tail (p = 2: one node, t = 1, of weight 1) the pair is the sums of
    the phi(a, r) and of the [a, r].
    """
    return _star_pass(L, M, _chain_table(L, M, phi), A, R)


def _star_pass(L, M, table: np.ndarray, A: np.ndarray, R: np.ndarray):
    """star_correction's pair, for its step table _chain_table(L, M, phi)."""
    if not len(A):
        return np.zeros(M.m, dtype=np.int64), L.zero()
    out = _jacobson_pass(L.p, A, R, table, M.m)
    return out[:M.m], out[M.m:]


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
    star_correction runs its own, with rho(x) at every node from one
    product with M._act; without a tail it is the sum of the
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
    chain = np.count_nonzero(u)
    if p == 2 or not (chain or np.count_nonzero(acc)):
        return g @ acc.sum(axis=(0, 1)) % p
    ws, xs = _nodes(p, H1, H2)
    ad_x = L._right_ad(xs)
    rho_x = (xs @ M._act % p).reshape(xs.shape[:2] + (m, m)).swapaxes(2, 3)  # on row vectors
    if chain:
        alpha_x = _fix_first(wvu, xs, p).reshape(xs.shape[:2] + (n, n * m))  # row v: alpha(., v, x)
    for _ in range(p - 2):
        acc = -(acc @ rho_x + ad_x @ acc)
        if chain:
            acc += (u @ alpha_x).reshape(acc.shape)
            u = u @ ad_x % p
            chain = np.count_nonzero(u)
        acc %= p
        if not (chain or np.count_nonzero(acc)):
            break
    return g @ (ws @ acc.sum(axis=0).reshape(-1, n * m) % p).reshape(n, m) % p


def eval_omega(L, M, c2: Cochain2, g, order: str = "asc") -> np.ndarray:
    """Value of omega at an arbitrary point, by the *-property extension:
    omega(lam e_i) = lam^p omega(e_i) = lam omega(e_i) on the components of
    g, plus the star_correction summed over liealg's peel of g."""
    g = L._check_vec(g)
    return (g @ c2.omega_basis + star_correction(L, M, c2.phi, *_peel(g, order))[0]) % L.p


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


def _power_times(X: np.ndarray, k: int, v: np.ndarray, p: int) -> np.ndarray:
    """X^k v for a reduced square matrix X and vector v, by repeated
    squaring, stopped once the vector vanishes."""
    while k and np.count_nonzero(v):
        if k & 1:
            v = X @ v % p
        k >>= 1
        if k:
            X = X @ X % p
    return v


def psi_tilde(L, M, psi: np.ndarray, g) -> np.ndarray:
    """Direct formula psi(g^[p]) - g^(p-1).psi(g) for a linear psi given
    by its basis values (n, m); rho(g) is one product with M._act."""
    p, m = L.p, M.m
    g = L._check_vec(g)
    act = _power_times((g @ M._act % p).reshape(m, m), p - 1, g @ psi % p, p)
    return (L.p_power(g) @ psi - act) % p


def beta_induced(L, M, c2: Cochain2, g, h) -> np.ndarray:
    """Direct formula for the beta induced by (phi, omega) at (g, h):
    phi(g, h^[p]) - sum_a (-1)^a rho(h)^a phi([g, h, ..., h], h), with
    p - 1 - a brackets, + rho(g) omega(h).

    h is peeled once, and one star_correction pass of its stacks gives the
    corrections of omega(h) and of h^[p].  The a-sum is a Horner pass at
    the one point h, [v | u] stepping from [0 | g] by the same step table,
    stopped once it vanishes; rho(g) is one product with M._act."""
    p, n, m = L.p, L.n, M.m
    g = L._check_vec(g)
    h = L._check_vec(h)
    table = _chain_table(L, M, c2.phi)
    omega_corr, power_corr = _star_pass(L, M, table, *_peel(h))
    omega_h = (h @ c2.omega_basis + omega_corr) % p
    h_p = (h @ L.pi + power_corr) % p
    step = (h @ table.reshape(n, -1) % p).reshape(m + n, m + n)
    state = g @ step[m:] % p  # [phi(g, h) | [g, h]]
    for _ in range(p - 1):
        if not np.count_nonzero(state):
            break
        state = state @ step % p
    out = h_p @ _fix_first(c2.phi, g, p) - state[:m]
    return (out + (g @ M._act % p).reshape(m, m) @ omega_h) % p


def delta1(L, M, psi: np.ndarray) -> Cochain2:
    """Cochain-level delta1: psi -> (delta_cl psi, psi-tilde on basis)."""
    return Cochain2(*_cochain(L, M, delta1_matrix(L, M) @ np.ravel(psi), 2))


def _kept_delta(L, M, k: int) -> SparseMatrix:
    """delta(k) of the restricted complex of (L, M): the map M keeps, read
    from its store (which refuses a module over another algebra), or built
    by a RestrictedComplex when none is kept yet."""
    d = M._store(L, "restricted")[0].get(k)
    return RestrictedComplex(L, M).delta(k) if d is None else d


def delta1_matrix(L, M) -> SparseMatrix:
    """Matrix of delta1: delta_cl(1) over the psi-tilde block."""
    return _kept_delta(L, M, 1)


def _psi_tilde_block(L, M) -> SparseMatrix:
    """The rows of delta1 below delta_cl(1): terms pi[i, l] · 1 at block
    (i, l) and -rho(e_i)^(p-1) at block (i, i)."""
    n, p = L.n, L.p
    terms = [(i, l, int(L.pi[i, l]), 0) for i, l in zip(*np.nonzero(L.pi))]
    terms += [(i, i, -1, 1 + i) for i in range(n)]
    ops = [identity(M.m)] + [mat_pow_mod(rho, p - 1, p) for rho in M.rho]
    return kron_sum((n, n), terms, ops, p)


def delta2(L, M, c2: Cochain2) -> Cochain3:
    """Cochain-level delta2: (phi, omega) -> (delta_cl phi, induced beta)."""
    return Cochain3(*_cochain(L, M, delta2_matrix(L, M) @ c2_to_vec(L, M, c2), 3))


def delta2_matrix(L, M) -> SparseMatrix:
    """Matrix of delta2 on (phi pairs | omega basis): delta_cl(2) over the beta block."""
    return _kept_delta(L, M, 2)


def _powers(a: np.ndarray, p: int) -> list[np.ndarray]:
    """a^0, a^1, ..., a^(p-1), reduced mod p."""
    return list(itertools.accumulate([a] * (p - 1), lambda x, y: x @ y % p,
                                     initial=identity(len(a))))


def _beta_block(L, M) -> SparseMatrix:
    """The rows of delta2 below the classical block.  Row block (i, j)
    holds the terms of beta(e_i, e_j): phi(e_i, e_j^[p]), the alternating
    sum of rho(e_j)^a phi([e_i, e_j, ..., e_j], e_j) over p-1-a brackets,
    read off powers of the matrix of u -> [u, e_j], and rho(e_i) omega(e_j)."""
    n, p = L.n, L.p
    pairs, phi_block = cochain_tuples(n, 2), {}  # (a, b), a != b: phi column block and sign
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


class RestrictedComplex(Complex):
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
            if k <= 0:
                return top
            rest = (_psi_tilde_block if k == 1 else _beta_block)(L, M)
            return SparseMatrix((top.shape[0] + rest.shape[0], rest.shape[1]), *map(
                np.concatenate, zip((top.rows, top.cols, top.vals),
                                    (rest.rows + top.shape[0], rest.cols, rest.vals))), L.p)

        super().__init__(stack, L.p)
        self._maps, self._ranks, self._checked, self._groups = M._store(L, "restricted")

    def compare(self, k: int):
        """Matrix of the induced map H^k -> H^k_cl in the representative
        bases, and its kernel dimension.

        The map keeps the classical coordinates, forgetting omega (k = 2);
        the class coordinates of every forgotten representative are read
        off at once.  It refuses k outside {1, 2} with ValueError.
        """
        if k not in (1, 2):
            raise ValueError("the comparison map is defined here for k in {1, 2} only")
        H = self.cohomology(k)
        forgotten = H.reps[:, : self.classical.delta(k).shape[1]]
        coords = self.classical.cohomology(k).coordinates(forgotten)
        if coords is None:
            raise InvariantFailure("forgetful image of a restricted cocycle is not a classical class")
        map_matrix = coords.T.copy()
        return map_matrix, H.dim - rank(map_matrix, self.p)


def restricted_cohomology(L, M, k: int):
    """(dimension, representative rows) of restricted H^k, k in {0, 1, 2};
    H^0 is the classical one, since the restricted δ(0) is δ_cl(0)."""
    H = RestrictedComplex(L, M).cohomology(k)  # refuses a module over another algebra
    return H.dim, H.reps


def compare_classical(L, M, k: int):
    """Matrix of the induced map H^k -> H^k_cl in the computed
    representative bases, together with its kernel dimension.

    The matrix has shape (dim H^k_cl, dim H^k), so this one call gives
    both dimensions as well.
    """
    return RestrictedComplex(L, M).compare(k)
