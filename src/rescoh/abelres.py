"""Free resolution machinery for abelian restricted Lie algebras.

For an abelian restricted algebra the trivial module admits an explicit
augmented complex of free U_res-modules

    C_k = ⊕_{2t+s=k} S^t ⊗ Λ^s ⊗ U_res,

with a differential mixing three kinds of terms: contraction of a wedge
slot into the U_res factor, replacement of a symmetric slot by its
p-power inside the wedge, and replacement of a symmetric slot by the
same index in the wedge weighted by a (p-1)-st power in U_res.  The
complex is exact in degrees below p, which turns cohomology with any
restricted coefficient module into finite linear algebra over GF(p).

U_res is commutative here, so d is U_res-linear: d_k = Σ_i A_i ⊗ x_i +
B ⊗ 1 + Σ_j C_j ⊗ x_j^{p-1}, small tables on the free generators times
2n+1 right multiplications, each by some x_g^e with e in {1, 0, p-1}.
One pass of exponent arithmetic on PBW ranks builds all 2n+1 tables
from π, and the algebra keeps them for every construction here.  Each
d_k is its list of generator terms summed by linalg.kron_sum into a
SparseMatrix, whose composites the Resolution checks.  A slice carries
only its dimension; _slice_basis builds its basis elements
e^mu ⊗ e_I ⊗ r, in coordinate order, for the few callers that read them.  The dual complex sums the
same terms, transposed, on the operators' matrices on the module.

Two auxiliary complexes support the exactness argument and are checked
directly here: the wedge-only complex on Λ^k ⊗ U_res (the A_i part of
d) whose homology has dimension C(n,k), and a formal complex on symbols
e^mu ⊗ c_I carrying a contracting homotopy with eigenvalue t+s.  The
resolution also carries a graded-commutative product for which the
differential is a derivation.
Each of these complexes, and the dualized resolution, is a
linalg.Complex, a chain complex read as C^(-k) = C_k.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gmod import RestrictedModule
from .liealg import RestrictedLieAlgebra
from .linalg import (Complex, InvariantFailure, SparseMatrix, TooLarge, UsageError, _check, _report,
                     _nonzeros, identity, kron_sum, mat_pow_mod, rank, zeros)
from .ures import Ures

SLICE_BOUND = 20_000


class NotAbelian(UsageError):
    """The construction only applies to algebras with zero bracket."""


class DegreeTooHigh(UsageError):
    """Requested degree is outside the range where exactness holds."""


class ChainBasisElement(NamedTuple):
    mu: tuple[int, ...]
    I: tuple[int, ...]
    r: tuple[int, ...]


@dataclass
class ChainComplexSlice:
    """One degree of the complex: its dimension plus the map down.

    Coordinates follow _slice_basis, which only callers that need the
    basis elements build.
    """

    degree: int
    dim: int
    d: SparseMatrix | None  # map into degree-1 coordinates; None at degree 0


class Resolution(Complex):
    """Slices 0..k_max of the augmented complex, plus one hidden slice,
    as the Complex with delta(-k) = d_k and delta(0) = eps, which checks
    its composites ε∘d₁ and d_k∘d_(k+1), k ≤ k_max, when it is built.

    The extra slice at k_max+1 exists so homology at k_max itself can be
    computed; it is not part of ``slices``.
    """

    def __init__(self, k_max: int, slices: list[ChainComplexSlice], eps: SparseMatrix, extra):
        self.k_max, self.slices, self.eps, self._extra = k_max, slices, eps, extra
        maps = [eps] + [s.d for s in slices[1:]] + [extra.d]
        super().__init__(lambda k: maps[-k] if k <= 0 else None, eps.p)
        self._ranks[0] = 1  # eps is onto GF(p)
        for k in range(k_max + 1):
            self.check(-k)


def _check_bound(name: str, k: int, p: int) -> None:
    """Refuse a negative degree bound, and one from p up, where exactness fails."""
    if k < 0:
        raise UsageError(f"{name} must be nonnegative")
    if k >= p:
        raise DegreeTooHigh(f"{name}={k} not below p={p}")


def _multidegrees(n: int, total: int):
    """All n-tuples of nonnegative ints summing to total, in lex order."""
    if n == 1:
        yield (total,)
        return
    for v in range(total + 1):
        for rest in _multidegrees(n - 1, total - v):
            yield (v,) + rest


def _bidegrees(k: int) -> list[tuple[int, int]]:
    return [(t, k - 2 * t) for t in range(k // 2 + 1)]


@functools.lru_cache(maxsize=None)
def _formal_basis(n: int, k: int, wedge_only: bool = False) -> tuple:
    """Free generators (mu, I) of C_k, 2|mu| + |I| = k; mu = 0 only if
    wedge_only.  Built once per (n, k, wedge_only) and shared."""
    return tuple((mu, I) for t, s in ([(0, k)] if wedge_only else _bidegrees(k)) if s <= n
                 for mu in _multidegrees(n, t) for I in itertools.combinations(range(n), s))


def _slice_basis(n: int, k: int, monos: list[tuple]) -> list[ChainBasisElement]:
    return [ChainBasisElement(mu, I, r) for mu, I in _formal_basis(n, k) for r in monos]


def _power_mono(n: int, i: int, k: int) -> tuple:
    return tuple(k if j == i else 0 for j in range(n))


def _wedge_insert(I: tuple, l: int):
    """Insert l at the front of the wedge I and sort.

    Returns (sorted tuple, sign) or None when l already occurs.
    """
    if l in I:
        return None
    below = sum(1 for i in I if i < l)
    sign = -1 if below % 2 else 1
    return tuple(sorted(I + (l,))), sign


def _generator_terms(L: RestrictedLieAlgebra, src: list, dst: list) -> list[tuple]:
    """d on free generators as (target, source, coefficient, operator) terms.

    Generators are indexed by their place in src and dst; operators are
    numbered as in _right_operators (x_o for o < n, 1, then x_j^{p-1}).
    """
    n = L.n
    index = {b: i for i, b in enumerate(dst)}
    out = []
    for g, (mu, I) in enumerate(src):
        # wedge slot into u; left and right products agree (abelian)
        for a, i in enumerate(I):
            out.append((index[(mu, I[:a] + I[a + 1 :])], g, -1 if a % 2 else 1, i))
        for j in range(n):
            if mu[j] == 0:
                continue
            mu2 = mu[:j] + (mu[j] - 1,) + mu[j + 1 :]
            # symmetric slot replaced by its p-power inside the wedge
            for l in range(n):
                ins = _wedge_insert(I, l)
                if L.pi[j, l] and ins:
                    out.append((index[(mu2, ins[0])], g, mu[j] * int(L.pi[j, l]) * ins[1], n))
            # symmetric slot moved to the wedge, (p-1)-st power into u
            ins = _wedge_insert(I, j)
            if ins:
                out.append((index[(mu2, ins[0])], g, -mu[j] * ins[1], n + 1 + j))
    return out


def _times_generator(L: RestrictedLieAlgebra, rank, gen, exp) -> list[np.ndarray]:
    """(rank, src, coef) entries of (monomial rank[s])·x_gen[s]^exp[s], unsummed.

    Ures.mono_times_gen on an abelian algebra, in vectorised rounds: an
    exponent of x_g below p-e rises by e; otherwise it drops by p-e and
    the entry goes on as one entry per nonzero π_gl, times x_l with
    e = 1.  The degree left to multiply falls every round, so they end.
    """
    p, weights = L.p, L.p ** np.arange(L.n - 1, -1, -1)
    src, done = np.arange(rank.size), []
    coef = np.ones_like(src)
    while src.size:
        low = rank // weights[gen] % p < p - exp
        done.append((rank[low] + exp[low] * weights[gen[low]], src[low], coef[low]))
        src, gen, exp, coef = src[~low], gen[~low], exp[~low], coef[~low]
        rank = rank[~low] - (p - exp) * weights[gen]
        terms = coef[:, None] * L.pi[gen] % p
        which, gen = np.nonzero(terms)
        rank, src, coef, exp = rank[which], src[which], terms[which, gen], np.ones_like(gen)
    return [np.concatenate(x) for x in zip(*done)]


def _right_operators(U: Ures) -> list[SparseMatrix]:
    """Right multiplication on u by x_0..x_{n-1}, by 1 and by x_0^{p-1}..x_{n-1}^{p-1}.

    Operator o is x_g^e, e in {1, 0, p-1}, a SparseMatrix over PBW
    ranks; all 2n+1 come from one _times_generator call on the columns
    o·p^n + rank.  u is commutative, so they are also the left
    multiplications.
    """
    n, p, size = U.n, U.p, U.dim()
    if size > U.basis_bound:
        raise TooLarge(f"PBW basis has {size} monomials, bound is {U.basis_bound}")
    op = np.arange((2 * n + 1) * size) // size
    gen, exp = np.r_[:n, 0, :n][op], np.r_[[1] * n, 0, [p - 1] * n][op]
    rank, src, coef = _times_generator(U.L, np.arange(op.size) % size, gen, exp)
    return [SparseMatrix((size, size), rank[block], src[block] - o * size, coef[block], p)
            for o, block in enumerate(src // size == np.arange(2 * n + 1)[:, None])]


def _kept_operators(L: RestrictedLieAlgebra) -> tuple[SparseMatrix, ...]:
    """_right_operators of L, built on the first call and kept on L (read-only)."""
    if L._operators is None:
        L._operators = tuple(_right_operators(Ures(L)))
    return L._operators


def _assemble(L: RestrictedLieAlgebra, ops: list[SparseMatrix], k: int,
              wedge_only: bool = False) -> SparseMatrix:
    """d_k = Σ_i A_i ⊗ x_i + B ⊗ 1 + Σ_j C_j ⊗ x_j^{p-1} as a SparseMatrix.

    Index g·p^n + mono rank, as in _slice_basis; wedge_only restricts to
    the summand Λ^k ⊗ u.
    """
    src, dst = _formal_basis(L.n, k, wedge_only), _formal_basis(L.n, k - 1, wedge_only)
    return kron_sum((len(dst), len(src)), _generator_terms(L, src, dst), ops, L.p)


def build_resolution(L: RestrictedLieAlgebra, k_max: int) -> Resolution:
    """Slices 0..k_max of the augmented complex, with d² and ε∘d₁ checked.

    One further slice is built internally so that homology can be taken
    at k_max itself.  The Resolution checks each composite once, sparsely.

    Raises:
        NotAbelian: nonzero bracket.
        DegreeTooHigh: k_max >= p, where exactness is not available.
        TooLarge: a slice dimension exceeds SLICE_BOUND.
        NotAComplex: ε∘d₁ or some d_{k-1}∘d_k is nonzero.
    """
    if not L.is_abelian:
        raise NotAbelian("resolution is defined for abelian algebras only")
    _check_bound("k_max", k_max, L.p)
    size = L.p**L.n
    dims = [len(_formal_basis(L.n, k)) * size for k in range(k_max + 2)]
    for k, dim in enumerate(dims):
        if dim > SLICE_BOUND:
            raise TooLarge(f"degree-{k} slice has dimension {dim}")
    ops = _kept_operators(L)
    slices = [ChainComplexSlice(k, dim, _assemble(L, ops, k) if k else None)
              for k, dim in enumerate(dims)]
    eps = SparseMatrix((1, size), [0], [0], [1], L.p)  # the unit monomial has rank 0
    return Resolution(k_max, slices[: k_max + 1], eps, slices[k_max + 1])


def resolution_homology(res: Resolution, k: int) -> int:
    """Homology dimension of the augmented complex at degree k <= k_max.

    dim C_k − rank d_k − rank d_{k+1}, where degree 0 uses ker ε in place
    of ker d₀ (ε is onto GF(p), so its rank is 1): ``res.dim``, whose d∘d
    check the Resolution made when it was built.  Expected 0 for 0 <= k < p.
    """
    if k < 0 or k > res.k_max:
        raise UsageError(f"k={k} outside built range 0..{res.k_max}")
    return res.dim(-k)


def aux_C_homology(L: RestrictedLieAlgebra, k: int):
    """Homology of the wedge-only complex Λ^k ⊗ U_res at degree k.

    Returns (dim, representatives); dim is C(n,k), and the
    representatives are the products c_I of the cycles c_i, which with
    zero p-operator are (−1)^k e_I ⊗ Π x_i^{p−1}.  Both facts are
    verified, not assumed.
    """
    if not L.is_abelian:
        raise NotAbelian("wedge-only complex needs an abelian algebra")
    if k < 0 or k > L.n:
        raise UsageError(f"k={k} outside 0..{L.n}")
    p, n = L.p, L.n
    U = Ures(L)
    monos, ops = U.basis(), _kept_operators(L)
    cx = Complex(lambda j: _assemble(L, ops, -j, wedge_only=True) if 1 <= -j <= n else None, p)
    dim = cx.dim(-k)  # checks d_k∘d_(k+1) = 0 first
    d_out, d_in = cx.delta(-k), cx.delta(-k - 1)
    basis_index = {b: i for i, b in enumerate(itertools.product(
        itertools.combinations(range(n), k), monos))}
    reps = zeros(math.comb(n, k), len(basis_index))
    for row, I in enumerate(itertools.combinations(range(n), k)):
        for x, v in _c_product(L, U, I).items():
            reps[row, basis_index[(x.I, x.r)]] = v
    rep_cols = SparseMatrix(*_nonzeros(reps.T, p), p)
    if d_out is not None and (d_out @ rep_cols).vals.size:
        raise InvariantFailure(f"aux_C_homology(k={k}): a representative is not a cycle")
    if d_in is None:
        d_in = SparseMatrix((len(basis_index), 0), [], [], [], p)
    joint = rank(SparseMatrix((len(basis_index), d_in.shape[1] + len(reps)),
                              np.concatenate([d_in.rows, rep_cols.rows]),
                              np.concatenate([d_in.cols, rep_cols.cols + d_in.shape[1]]),
                              np.concatenate([d_in.vals, rep_cols.vals]), p), p)
    if joint != cx.rank(-k - 1) + reps.shape[0]:
        raise InvariantFailure(f"aux_C_homology(k={k}): representatives dependent mod boundaries")
    if reps.shape[0] != dim:
        raise InvariantFailure(f"aux_C_homology(k={k}): {reps.shape[0]} representatives "
                               f"for homology of dimension {dim}")
    return reps.shape[0], reps


def frakC_check(L: RestrictedLieAlgebra, k_max: int) -> dict:
    """Contracting-homotopy report for the formal complex on e^mu ⊗ c_I.

    The boundary sends e^mu ⊗ c_I to Σ_j mu_j e^{mu-ε_j} ⊗ c_j c_I and
    the homotopy D trades one c factor back for a symmetric slot.  On a
    bidegree-(t,s) symbol, D∂ + ∂D must equal (t+s)·id exactly; since
    0 < t+s < p whenever 0 < k < p, homology vanishes there, while
    degree 0 is the whole of U_res.
    """
    if not L.is_abelian:
        raise NotAbelian("formal complex needs an abelian algebra")
    _check_bound("k_max", k_max, L.p)
    p, n = L.p, L.n
    bases = [_formal_basis(n, k) for k in range(k_max + 2)]
    idx = [{b: i for i, b in enumerate(bk)} for bk in bases]

    def bdry(k: int) -> SparseMatrix:
        """Minus the C_j tables of the resolution differential."""
        terms = [(tgt, src, -cf, 0) for tgt, src, cf, op
                 in _generator_terms(L, bases[k], bases[k - 1]) if op > n]
        return kron_sum((len(bases[k - 1]), len(bases[k])), terms, [identity(1)], p)

    def homot(k: int) -> SparseMatrix:
        """D: e^mu ⊗ c_I -> Σ_a ±e^{mu+ε_{I_a}} ⊗ c_{I without I_a}."""
        terms = [(idx[k + 1][(mu[:i] + (mu[i] + 1,) + mu[i + 1 :], I[:a] + I[a + 1 :])],
                  col, -1 if a % 2 else 1, 0)
                 for col, (mu, I) in enumerate(bases[k]) for a, i in enumerate(I)]
        return kron_sum((len(bases[k + 1]), len(bases[k])), terms, [identity(1)], p)

    def homotopy_gap(k: int) -> np.ndarray:
        """D∂ + ∂D − (t+s)·id in degree k; homot(0) is zero."""
        lhs = np.asarray(cx.delta(-k - 1) @ homot(k)) + np.asarray(homot(k - 1) @ cx.delta(-k))
        return (lhs - np.diag([sum(mu) + len(I) for mu, I in bases[k]])) % p

    cx = Complex(lambda j: bdry(-j) if 1 <= -j <= k_max + 1 else None, p)
    h_dims = {0: L.p ** n - cx.rank(-1)} | {k: cx.dim(-k) for k in range(1, k_max + 1)}
    checks = [
        # degree 1 maps into U_res itself; every degree-1 symbol has mu = 0
        {"name": "d1_zero", "pass": not cx.delta(-1).vals.size},
        _check("homotopy_identity",
               ({"degree": k} for k in range(1, k_max + 1) if homotopy_gap(k).any())),
        {"name": "h0_full", "pass": h_dims[0] == p ** n},
        {"name": "vanishing", "pass": all(h_dims[k] == 0 for k in range(1, k_max + 1))},
    ]
    return _report(checks, p=p, n=n, k_max=k_max, h_dims=h_dims)


def _elem_product(U: Ures, p: int, a: dict, b: dict) -> dict:
    """Graded product of chain elements keyed by ChainBasisElement."""
    out: dict[ChainBasisElement, int] = {}
    for (x, ca) in a.items():
        for (y, cb) in b.items():
            if set(x.I) & set(y.I):
                continue
            inv = sum(1 for i in x.I for j in y.I if i > j)
            sgn = -1 if inv % 2 else 1
            mu = tuple(u + v for u, v in zip(x.mu, y.mu))
            I = tuple(sorted(x.I + y.I))
            for mono, cf in U.multiply({x.r: 1}, {y.r: 1}).items():
                key = ChainBasisElement(mu, I, mono)
                out[key] = (out.get(key, 0) + sgn * ca * cb * cf) % p
    return {k: v for k, v in out.items() if v}


def _c_product(L: RestrictedLieAlgebra, U: Ures, S: tuple) -> dict:
    """c_{s1}···c_{sk} as a chain element, c_i = Σ_l π_il e_l ⊗ 1 − e_i ⊗ x_i^{p−1}.

    The cycle c_i is d of the degree-2 generator e_i ⊗ 1 ⊗ 1; the empty
    product is 1 ⊗ 1 ⊗ 1.
    """
    p, n = L.p, L.n
    zero_mu = (0,) * n
    prod = {ChainBasisElement(zero_mu, (), U.unit_mono): 1}
    for i in S:
        c = {ChainBasisElement(zero_mu, (l,), U.unit_mono): int(L.pi[i, l])
             for l in range(n) if L.pi[i, l]}
        c[ChainBasisElement(zero_mu, (i,), _power_mono(n, i, p - 1))] = -1
        prod = _elem_product(U, p, prod, c)
    return prod


def _elem_degree(x: ChainBasisElement) -> int:
    return 2 * sum(x.mu) + len(x.I)


def dga_check(L: RestrictedLieAlgebra, degree_bound: int) -> dict:
    """Leibniz-rule report for the product on the resolution.

    Generators: g⁰_i = 1⊗1⊗e_i, g¹_i = 1⊗e_i⊗1, g²_i = e_i⊗1⊗1.  The
    differential must be a graded derivation; in particular d(g²_i) is
    the cycle c_i and products of the c_i are cycles.  d comes from
    build_resolution, which raises NotAComplex if d∘d or ε∘d₁ is nonzero.
    """
    if not L.is_abelian:
        raise NotAbelian("product structure needs an abelian algebra")
    _check_bound("degree_bound", degree_bound, L.p)
    p, n = L.p, L.n
    U = Ures(L)
    res = build_resolution(L, max(degree_bound - 1, 0))  # d_1..d_degree_bound, checked
    monos = U.basis()
    bases = [_slice_basis(n, k, monos) for k in range(degree_bound + 1)]
    idx = [{b: i for i, b in enumerate(basis)} for basis in bases]

    def diff(elem: dict) -> dict:
        if not elem:
            return {}
        k = _elem_degree(next(iter(elem)))
        if k == 0:
            return {}
        v = np.zeros(len(bases[k]), dtype=np.int64)
        v[[idx[k][x] for x in elem]] = list(elem.values())
        image = (res.delta(-k) @ v).tolist()
        return {bases[k - 1][i]: c for i, c in enumerate(image) if c}

    def leibniz_gap(a: dict, b: dict, ka: int) -> dict:
        lhs = diff(_elem_product(U, p, a, b))
        rhs = _elem_product(U, p, diff(a), b)
        sgn = -1 if ka % 2 else 1
        for x, c in _elem_product(U, p, a, diff(b)).items():
            rhs[x] = (rhs.get(x, 0) + sgn * c) % p
        gap = dict(rhs)
        for x, c in lhs.items():
            gap[x] = (gap.get(x, 0) - c) % p
        return {k: v for k, v in gap.items() if v}

    zero_mu = (0,) * n
    gens = []
    for i in range(n):
        gens.append(("g0", i, {ChainBasisElement(zero_mu, (), _power_mono(n, i, 1)): 1}, 0))
        gens.append(("g1", i, {ChainBasisElement(zero_mu, (i,), U.unit_mono): 1}, 1))
        gens.append(("g2", i, {_g2_key(n, i): 1}, 2))
    def sampled():
        """The failures among 100 seeded trials of Leibniz at random basis elements."""
        rng = random.Random(f"dga:{p}:{n}:{degree_bound}")
        for trial in range(100):
            ka = rng.randrange(degree_bound + 1)
            kb = rng.randrange(degree_bound + 1 - ka)
            if bases[ka] and bases[kb]:
                a = {rng.choice(bases[ka]): rng.randrange(1, p)}
                b = {rng.choice(bases[kb]): rng.randrange(1, p)}
                if leibniz_gap(a, b, ka):
                    yield {"trial": trial, "left": next(iter(a)), "right": next(iter(b))}

    checks = [
        _check("leibniz_generators",
               ({"left": (na, ia), "right": (nb, ib)}
                for (na, ia, ea, ka), (nb, ib, eb, kb) in itertools.product(gens, repeat=2)
                if ka + kb <= degree_bound and leibniz_gap(ea, eb, ka))),
        _check("leibniz_sampled", sampled()),
        {"name": "d_of_degree2_generators",
         "pass": all(diff({_g2_key(n, i): 1}) == _c_product(L, U, (i,)) for i in range(n))},
        _check("c_products_are_cycles",
               ({"indices": S} for size in range(1, min(n, degree_bound) + 1)
                for S in itertools.combinations(range(n), size) if diff(_c_product(L, U, S)))),
    ]
    return _report(checks, p=p, n=n, degree_bound=degree_bound)


def _g2_key(n: int, i: int) -> ChainBasisElement:
    return ChainBasisElement(_power_mono(n, i, 1), (), (0,) * n)


def abelian_cochain_cohomology(L: RestrictedLieAlgebra, M: RestrictedModule,
                               k: int, allow_unproven: bool = False) -> int:
    """dim H^k(𝔤; M) for abelian 𝔤 via the dualized resolution.

    A cochain is a linear map on the free generators, so the space in
    degree k has dimension C(n+k-1,k)·m; the coboundary is composition
    with the resolution differential, with U_res coefficients acting on
    M through the module structure.

    Exactness of the resolution is only available for k+1 < p; pass
    allow_unproven=True to compute outside that range anyway (the
    answer is then a record, not a theorem).
    """
    if not L.is_abelian:
        raise NotAbelian("dualized resolution needs an abelian algebra")
    if k < 0:
        raise UsageError("degree must be nonnegative")
    if not allow_unproven and k + 1 >= L.p:
        raise DegreeTooHigh(f"k={k} needs k+1 < p={L.p}")
    p, n, m = L.p, L.n, M.m
    pairs = [_formal_basis(n, j) for j in range(k + 2)]
    if len(pairs[k]) != math.comb(n + k - 1, k):
        raise InvariantFailure(f"degree-{k} cochain space has {len(pairs[k])} generators, "
                               f"not C({n + k - 1},{k})")
    # ρ of each operator of _right_operators: x_i, 1, x_j^{p-1}
    rhos = [*M.rho, identity(m)] + [mat_pow_mod(rho, p - 1, p) for rho in M.rho]

    def delta(j: int) -> SparseMatrix:
        """Hom(d_{j+1}): the terms of d_{j+1}, transposed, on ρ of each operator."""
        terms = [(src, tgt, cf, op) for tgt, src, cf, op
                 in _generator_terms(L, pairs[j + 1], pairs[j])]
        return kron_sum((len(pairs[j + 1]), len(pairs[j])), terms, rhos, p)

    return Complex(lambda j: delta(j) if j >= 0 else None, p).dim(k)
