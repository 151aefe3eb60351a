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
2n+1 right multiplications.  The x_i tables are straightened once, the
x_j^{p-1} tables are their powers by sparse products, and each d_k is
its list of generator terms summed by linalg.kron_sum into a
SparseMatrix; d∘d = 0 is checked with one sparse product per composite.
A slice carries only its dimension; the basis elements e^mu ⊗ e_I ⊗ r,
in the order of the matrix coordinates, are built by _slice_basis for
the few callers that read them.  The dual complex sums the same terms,
transposed, on the operators' matrices on the module, densely.

Two auxiliary complexes support the exactness argument and are checked
directly here: the wedge-only complex on Λ^k ⊗ U_res (the A_i part of
d) whose homology has dimension C(n,k), and a formal complex on symbols
e^mu ⊗ c_I carrying a contracting homotopy with eigenvalue t+s.  The
resolution also carries a graded-commutative product for which the
differential is a derivation.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .gmod import RestrictedModule
from .liealg import RestrictedLieAlgebra
from .linalg import (InvariantFailure, SparseMatrix, UsageError, cohomology, identity,
                     kron_sum, mat_pow_mod, matmul_mod, rank, zeros)
from .ures import TooLarge, Ures

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


@dataclass
class Resolution:
    """Slices 0..k_max of the augmented complex, plus one hidden slice.

    The extra slice at k_max+1 exists so homology at k_max itself can be
    computed; it is not part of ``slices``.
    """

    algebra: RestrictedLieAlgebra
    ures: Ures
    k_max: int
    slices: list[ChainComplexSlice]
    eps: SparseMatrix
    _extra: ChainComplexSlice
    _ranks: dict[int, int] = field(default_factory=dict, repr=False, compare=False)

    def d_rank(self, k: int) -> int:
        """Rank of the differential out of degree k (1 <= k <= k_max+1), computed once."""
        if k not in self._ranks:
            d = self._extra.d if k == self.k_max + 1 else self.slices[k].d
            self._ranks[k] = rank(d, self.algebra.p)
        return self._ranks[k]


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


def _formal_basis(n: int, k: int, wedge_only: bool = False):
    """Free generators (mu, I) of C_k, 2|mu| + |I| = k; mu = 0 only if wedge_only."""
    out = []
    for t, s in [(0, k)] if wedge_only else _bidegrees(k):
        if s > n:
            continue
        for mu in _multidegrees(n, t):
            for I in itertools.combinations(range(n), s):
                out.append((mu, I))
    return out


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


def _right_operators(U: Ures) -> list[SparseMatrix]:
    """Right multiplication on u by x_0..x_{n-1}, by 1 and by x_0^{p-1}..x_{n-1}^{p-1}.

    Each operator is a SparseMatrix over PBW ranks.  The x_i tables are
    straightened once; the table of x_j^{p-1} is the (p-1)-st power of
    the x_j table, p-2 sparse products.  u is commutative, so these are
    also the left multiplications.
    """
    monos, n, p, size = U.basis(), U.n, U.p, U.dim()
    weights = p ** np.arange(n - 1, -1, -1)
    xs = []
    for i in range(n):
        cols, targets, vals = zip(*((c, m, v) for c, mono in enumerate(monos)
                                    for m, v in U.mono_times_gen(mono, i).items()))
        xs.append(SparseMatrix((size, size), np.array(targets, dtype=np.int64) @ weights,
                               cols, vals, p))
    powers = []
    for x in xs:
        power = x
        for _ in range(p - 2):
            power = power @ x
        powers.append(power)
    diagonal = np.arange(size)
    unit = SparseMatrix((size, size), diagonal, diagonal, np.ones(size, dtype=np.int64), p)
    return xs + [unit] + powers


def _assemble(L: RestrictedLieAlgebra, ops: list[SparseMatrix], k: int,
              wedge_only: bool = False) -> SparseMatrix:
    """d_k = Σ_i A_i ⊗ x_i + B ⊗ 1 + Σ_j C_j ⊗ x_j^{p-1} as a SparseMatrix.

    Index g·p^n + mono rank, as in _slice_basis; wedge_only restricts to
    the summand Λ^k ⊗ u.
    """
    src, dst = _formal_basis(L.n, k, wedge_only), _formal_basis(L.n, k - 1, wedge_only)
    return kron_sum((len(dst), len(src)), _generator_terms(L, src, dst), ops, L.p)


def _build_slices(L: RestrictedLieAlgebra, U: Ures, top: int) -> list[ChainComplexSlice]:
    dims = [len(_formal_basis(L.n, k)) * U.dim() for k in range(top + 1)]
    for k, dim in enumerate(dims):
        if dim > SLICE_BOUND:
            raise TooLarge(f"degree-{k} slice has dimension {dim}")
    ops = _right_operators(U)
    return [ChainComplexSlice(k, dim, _assemble(L, ops, k) if k else None)
            for k, dim in enumerate(dims)]


def build_resolution(L: RestrictedLieAlgebra, k_max: int) -> Resolution:
    """Slices 0..k_max of the augmented complex, with d² and ε∘d₁ checked.

    One further slice is built internally so that homology can be taken
    at k_max itself.  Each composite is checked once, sparsely, here.

    Raises:
        NotAbelian: nonzero bracket.
        DegreeTooHigh: k_max >= p, where exactness is not available.
        TooLarge: a slice dimension exceeds SLICE_BOUND.
        NotAComplex: ε∘d₁ or some d_{k-1}∘d_k is nonzero.
    """
    if not L.is_abelian:
        raise NotAbelian("resolution is defined for abelian algebras only")
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if k_max >= L.p:
        raise DegreeTooHigh(f"k_max={k_max} not below p={L.p}")
    U = Ures(L)
    slices = _build_slices(L, U, k_max + 1)
    eps = SparseMatrix((1, U.dim()), [0], [U.mono_rank(U.unit_mono)], [1], L.p)
    eps.check_composite(slices[1].d, "eps d_1")
    for k in range(2, k_max + 2):
        slices[k - 1].d.check_composite(slices[k].d, f"d_{k-1} d_{k}")
    return Resolution(L, U, k_max, slices[: k_max + 1], eps, slices[k_max + 1])


def resolution_homology(res: Resolution, k: int) -> int:
    """Homology dimension of the augmented complex at degree k <= k_max.

    dim C_k − rank d_k − rank d_{k+1}, where degree 0 uses ker ε in place
    of ker d₀ (ε is onto GF(p), so its rank is 1).  The complex was
    checked when it was built.  Expected 0 for 0 <= k < p.
    """
    if k < 0 or k > res.k_max:
        raise ValueError(f"k={k} outside built range 0..{res.k_max}")
    rank_out = 1 if k == 0 else res.d_rank(k)
    return res.slices[k].dim - rank_out - res.d_rank(k + 1)


def aux_C_homology(L: RestrictedLieAlgebra, k: int):
    """Homology of the wedge-only complex Λ^k ⊗ U_res at degree k.

    Returns (dim, representatives); dim is C(n,k).  With zero p-operator
    the representatives are e_I ⊗ Π e_i^{p−1}; otherwise they are the
    products of the cycles c_i.  Both facts are verified, not assumed.
    """
    if not L.is_abelian:
        raise NotAbelian("wedge-only complex needs an abelian algebra")
    if k < 0 or k > L.n:
        raise ValueError(f"k={k} outside 0..{L.n}")
    p, n = L.p, L.n
    U = Ures(L)
    monos = U.basis()
    ops = _right_operators(U)
    d_out = _assemble(L, ops, k, wedge_only=True) if k >= 1 else None
    d_in = _assemble(L, ops, k + 1, wedge_only=True) if k + 1 <= n else None
    if d_out is not None and d_in is not None:
        d_out.check_composite(d_in, f"aux d_{k} d_{k + 1}")
    rank_out = rank(d_out, p) if d_out is not None else 0
    rank_in = rank(d_in, p) if d_in is not None else 0
    dim = math.comb(n, k) * len(monos) - rank_out - rank_in
    basis_index = {b: i for i, b in enumerate(itertools.product(
        itertools.combinations(range(n), k), monos))}
    reps = zeros(math.comb(n, k), len(basis_index))
    for row, I in enumerate(itertools.combinations(range(n), k)):
        if L.pi.any():
            for x, v in _c_product(L, U, I).items():
                reps[row, basis_index[(x.I, x.r)]] = v
        else:
            mono = tuple(p - 1 if j in I else 0 for j in range(n))
            reps[row, basis_index[(I, mono)]] = 1
    which, at = np.nonzero(reps)
    rep_cols = SparseMatrix((len(basis_index), len(reps)), at, which, reps[which, at], p)
    if d_out is not None and (d_out @ rep_cols).vals.size:
        raise InvariantFailure(f"aux_C_homology(k={k}): a representative is not a cycle")
    if d_in is None:
        d_in = SparseMatrix((len(basis_index), 0), [], [], [], p)
    joint = rank(SparseMatrix((len(basis_index), d_in.shape[1] + len(reps)),
                              np.concatenate([d_in.rows, rep_cols.rows]),
                              np.concatenate([d_in.cols, rep_cols.cols + d_in.shape[1]]),
                              np.concatenate([d_in.vals, rep_cols.vals]), p), p)
    if joint != rank_in + reps.shape[0]:
        raise InvariantFailure(f"aux_C_homology(k={k}): representatives dependent mod boundaries")
    if reps.shape[0] != dim:
        raise InvariantFailure(f"aux_C_homology(k={k}): {reps.shape[0]} representatives "
                               f"for homology of dimension {dim}")
    return dim, reps


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
    if k_max >= L.p:
        raise DegreeTooHigh(f"k_max={k_max} not below p={L.p}")
    p, n = L.p, L.n
    bases = [_formal_basis(n, k) for k in range(k_max + 2)]
    idx = [{b: i for i, b in enumerate(bk)} for bk in bases]

    def bdry(k: int) -> np.ndarray:
        """Minus the C_j tables of the resolution differential."""
        terms = [(tgt, src, -cf, 0) for tgt, src, cf, op
                 in _generator_terms(L, bases[k], bases[k - 1]) if op > n]
        return kron_sum((len(bases[k - 1]), len(bases[k])), terms, [identity(1)], p)

    def homot(k: int) -> np.ndarray:
        """D: e^mu ⊗ c_I -> Σ_a ±e^{mu+ε_{I_a}} ⊗ c_{I without I_a}."""
        terms = [(idx[k + 1][(mu[:i] + (mu[i] + 1,) + mu[i + 1 :], I[:a] + I[a + 1 :])],
                  col, -1 if a % 2 else 1, 0)
                 for col, (mu, I) in enumerate(bases[k]) for a, i in enumerate(I)]
        return kron_sum((len(bases[k + 1]), len(bases[k])), terms, [identity(1)], p)

    def homotopy_gap(k: int) -> np.ndarray:
        """D∂ + ∂D − (t+s)·id in degree k; homot(0) is zero."""
        lhs = matmul_mod(ds[k + 1], homot(k), p) + matmul_mod(homot(k - 1), ds[k], p)
        return (lhs - np.diag([sum(mu) + len(I) for mu, I in bases[k]])) % p

    ds = [None] + [bdry(k) for k in range(1, k_max + 2)]
    checks = []
    # degree 1 maps into U_res itself; every degree-1 symbol has mu = 0
    checks.append({"name": "d1_zero", "pass": not ds[1].any()})
    bad = next((k for k in range(1, k_max + 1) if homotopy_gap(k).any()), None)
    checks.append({"name": "homotopy_identity", "pass": bad is None,
                   "counterexample": None if bad is None else {"degree": bad}})
    h_dims = {0: L.p ** n - rank(ds[1], p)}
    for k in range(1, k_max + 1):
        h_dims[k] = cohomology(ds[k + 1], ds[k], p).dim
    checks.append({"name": "h0_full", "pass": h_dims[0] == p ** n})
    checks.append({"name": "vanishing", "pass": all(h_dims[k] == 0 for k in range(1, k_max + 1))})
    return {
        "pass": all(c["pass"] for c in checks),
        "p": p,
        "n": n,
        "k_max": k_max,
        "h_dims": h_dims,
        "checks": checks,
    }


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
    the cycle c_i and products of the c_i are cycles.
    """
    if not L.is_abelian:
        raise NotAbelian("product structure needs an abelian algebra")
    if degree_bound >= L.p:
        raise DegreeTooHigh(f"degree_bound={degree_bound} not below p={L.p}")
    p, n = L.p, L.n
    U = Ures(L)
    slices = _build_slices(L, U, degree_bound)
    monos = U.basis()
    bases = [_slice_basis(n, k, monos) for k in range(degree_bound + 1)]
    idx = [{b: i for i, b in enumerate(basis)} for basis in bases]

    def diff(elem: dict) -> dict:
        if not elem:
            return {}
        k = _elem_degree(next(iter(elem)))
        if k == 0:
            return {}
        image = slices[k].d.matvec({idx[k][x]: c for x, c in elem.items()})
        return {bases[k - 1][i]: v for i, v in image.items()}

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
    checks = []
    ok, ce = True, None
    for (na, ia, ea, ka), (nb, ib, eb, kb) in itertools.product(gens, repeat=2):
        if ka + kb > degree_bound:
            continue
        gap = leibniz_gap(ea, eb, ka)
        if gap:
            ok, ce = False, {"left": (na, ia), "right": (nb, ib)}
            break
    checks.append({"name": "leibniz_generators", "pass": ok, "counterexample": ce})

    rng = random.Random(f"dga:{p}:{n}:{degree_bound}")
    ok, ce = True, None
    for trial in range(100):
        ka = rng.randrange(degree_bound + 1)
        kb = rng.randrange(degree_bound + 1 - ka)
        if not bases[ka] or not bases[kb]:
            continue
        a = {rng.choice(bases[ka]): rng.randrange(1, p)}
        b = {rng.choice(bases[kb]): rng.randrange(1, p)}
        gap = leibniz_gap(a, b, ka)
        if gap:
            ok, ce = False, {"trial": trial, "left": next(iter(a)), "right": next(iter(b))}
            break
    checks.append({"name": "leibniz_sampled", "pass": ok, "counterexample": ce})

    gen_ok = all(diff({_g2_key(n, i): 1}) == _c_product(L, U, (i,)) for i in range(n))
    checks.append({"name": "d_of_degree2_generators", "pass": gen_ok})

    cyc_ce = next(({"indices": S} for size in range(1, min(n, degree_bound) + 1)
                   for S in itertools.combinations(range(n), size) if diff(_c_product(L, U, S))),
                  None)
    checks.append({"name": "c_products_are_cycles", "pass": cyc_ce is None,
                   "counterexample": cyc_ce})
    return {
        "pass": all(c["pass"] for c in checks),
        "p": p,
        "n": n,
        "degree_bound": degree_bound,
        "checks": checks,
    }


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
        raise ValueError("degree must be nonnegative")
    if not allow_unproven and k + 1 >= L.p:
        raise DegreeTooHigh(f"k={k} needs k+1 < p={L.p}")
    p, n, m = L.p, L.n, M.m
    pairs = [_formal_basis(n, j) for j in range(k + 2)]
    if len(pairs[k]) != math.comb(n + k - 1, k):
        raise InvariantFailure(f"degree-{k} cochain space has {len(pairs[k])} generators, "
                               f"not C({n + k - 1},{k})")
    # ρ of each operator of _right_operators: x_i, 1, x_j^{p-1}
    rhos = [*M.rho, identity(m)] + [mat_pow_mod(rho, p - 1, p) for rho in M.rho]

    def delta(j: int) -> np.ndarray:
        """Hom(d_{j+1}): the terms of d_{j+1}, transposed, on ρ of each operator."""
        terms = [(src, tgt, cf, op) for tgt, src, cf, op
                 in _generator_terms(L, pairs[j + 1], pairs[j])]
        return kron_sum((len(pairs[j + 1]), len(pairs[j])), terms, rhos, p)

    d_out = delta(k)
    d_in = delta(k - 1) if k >= 1 else None
    return cohomology(d_in, d_out, p).dim
