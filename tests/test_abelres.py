"""Explicit resolution over abelian algebras and its consequences."""

import functools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescoh import abelres, linalg
from rescoh.abelres import (
    DegreeTooHigh,
    NotAbelian,
    abelian_cochain_cohomology,
    aux_C_homology,
    build_resolution,
    dga_check,
    frakC_check,
    resolution_homology,
)
from rescoh.gmod import adjoint_module, trivial_module
from rescoh.liealg import abelian_algebra, heisenberg_algebra, witt_algebra
from rescoh.linalg import NotAComplex, SparseMatrix, UsageError, rank
from rescoh.rescochain import restricted_cohomology
from rescoh.ures import TooLarge, Ures

from conftest import ABELIAN, add_one_at_origin, coefficient_modules, nonzero_pi
from dense_matmul import matmul_mod
from elementwise import differential_by_element, right_operators_by_straightening
import components
import markowitz


def expected_slice_dim(n: int, p: int, k: int) -> int:
    total = 0
    for t in range(k // 2 + 1):
        s = k - 2 * t
        if s > n:
            continue
        total += math.comb(n + t - 1, t) * math.comb(n, s)
    return total * p**n


def test_slice_dimensions():
    res = build_resolution(abelian_algebra(2, 3), 2)
    assert [s.dim for s in res.slices] == [9, 18, 27]
    res = build_resolution(abelian_algebra(2, 5), 4)
    assert [s.dim for s in res.slices] == [25, 50, 75, 100, 125]
    monos = Ures(abelian_algebra(2, 5)).basis()
    for k, s in enumerate(res.slices):
        assert s.dim == expected_slice_dim(2, 5, k) == len(abelres._slice_basis(2, k, monos))


def test_resolution_is_complex(abelian_entry):
    tag, L = abelian_entry
    k_max = min(L.p - 1, 3)
    res = build_resolution(L, k_max)
    assert len(res.slices) == k_max + 1
    assert res.slices[0].d is None
    assert res.eps.shape == (1, L.p**L.n)
    for k in range(1, k_max + 1):
        assert res.slices[k].d.shape == (res.slices[k - 1].dim, res.slices[k].dim)
        if k >= 2:
            assert not matmul_mod(res.slices[k - 1].d, res.slices[k].d, L.p).any()
    assert not matmul_mod(res.eps, res.slices[1].d, L.p).any()
    assert res._extra.d.shape == (res.slices[-1].dim, res._extra.dim)
    assert not matmul_mod(res.slices[-1].d, res._extra.d, L.p).any()


# seeded p-operator tables with every entry nonzero
DENSE_PI = [
    (f"abelian{n}dense_p{p}",
     abelian_algebra(n, p, pi=np.random.default_rng(100 * n + p).integers(1, p, (n, n))))
    for n, p in [(1, 2), (3, 2), (2, 3), (3, 3), (2, 5), (3, 5), (2, 7), (1, 11), (2, 11)]
]


@pytest.mark.parametrize("tag,L", ABELIAN + DENSE_PI, ids=[tag for tag, _ in ABELIAN + DENSE_PI])
def test_assembly_matches_elementwise_oracle(tag, L):
    # every differential through degree min(p-1, 4)+1, bit for bit
    top = min(L.p - 1, 4) + 1
    res = build_resolution(L, top - 1)
    U = Ures(L)
    bases = [abelres._slice_basis(L.n, k, U.basis()) for k in range(top + 1)]
    for k in range(1, top + 1):
        index = {b: i for i, b in enumerate(bases[k - 1])}
        shape, *want = differential_by_element(L, U, bases[k], index)
        d = res.delta(-k)
        assert d.shape == shape, (tag, k)
        for got, expected in zip((d.rows, d.cols, d.vals), want):
            assert got.dtype == expected.dtype and np.array_equal(got, expected), (tag, k)


# seeded dense p-operator tables for the right-multiplication tables
TABLE_PI = [
    (f"abelian{n}dense_p{p}",
     abelian_algebra(n, p, pi=np.random.default_rng(100 * n + p).integers(1, p, (n, n))))
    for n, p in [(1, 2), (2, 2), (3, 2), (2, 3), (4, 3), (2, 5), (3, 5), (2, 7), (2, 11),
                 (2, 13)]
]


@pytest.mark.parametrize("tag,L", ABELIAN + TABLE_PI, ids=[tag for tag, _ in ABELIAN + TABLE_PI])
def test_right_operators_match_the_straightening_oracle(tag, L):
    got = abelres._right_operators(Ures(L))
    want = right_operators_by_straightening(Ures(L))
    assert len(got) == len(want) == 2 * L.n + 1
    for op, (a, b) in enumerate(zip(got, want)):
        assert a.shape == b.shape, (tag, op)
        for x, y in ((a.rows, b.rows), (a.cols, b.cols), (a.vals, b.vals)):
            assert x.dtype == y.dtype and np.array_equal(x, y), (tag, op)


@st.composite
def dense_abelian(draw):
    n, p = draw(st.integers(1, 3)), draw(st.sampled_from([2, 3, 5, 7]))
    pi = draw(st.lists(st.integers(1, p - 1), min_size=n * n, max_size=n * n))
    return abelian_algebra(n, p, pi=np.reshape(pi, (n, n)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(L=dense_abelian())
def test_right_operators_match_straightening_on_dense_tables(L):
    got = abelres._right_operators(Ures(L))
    want = right_operators_by_straightening(Ures(L))
    assert len(got) == len(want) == 2 * L.n + 1
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert all(np.array_equal(x, y) for x, y in
                   ((a.rows, b.rows), (a.cols, b.cols), (a.vals, b.vals)))


def test_right_operators_keep_the_pbw_bound():
    # 59^2 monomials pass the slice bound at k_max=1 but not the PBW bound
    with pytest.raises(TooLarge, match="^PBW basis has 3481 monomials, bound is 3125$"):
        build_resolution(abelian_algebra(2, 59), 1)


def test_wedge_only_assembly_is_the_mu_zero_block(abelian_entry):
    tag, L = abelian_entry
    n, size = L.n, L.p**L.n
    ops = abelres._right_operators(Ures(L))
    for k in range(1, n + 1):
        full = np.asarray(abelres._assemble(L, ops, k))
        wedge = abelres._assemble(L, ops, k, wedge_only=True)
        rows, cols = wedge.shape
        assert (rows, cols) == (math.comb(n, k - 1) * size, math.comb(n, k) * size)
        assert np.array_equal(np.asarray(wedge), full[:rows, :cols]), (tag, k)
        assert not full[rows:, :cols].any(), (tag, k)


@pytest.mark.parametrize("degree", [1, 2])
def test_corrupted_differential_is_refused(monkeypatch, degree):
    # Row 0 of C_{degree-1} is e_0 ⊗ 1 (or 1 at degree 0); its image under
    # d_{degree-1} (or ε) is nonzero, so one extra entry there breaks the complex.
    L = abelian_algebra(2, 3, pi=nonzero_pi(2))
    original = abelres._assemble

    def corrupted(L_, ops, k, *rest):
        d = original(L_, ops, k, *rest)
        return add_one_at_origin(d) if k == degree else d

    monkeypatch.setattr(abelres, "_assemble", corrupted)
    with pytest.raises(NotAComplex):
        build_resolution(L, 2)


def test_dga_check_refuses_a_corrupted_differential(monkeypatch):
    # dga_check reads its d_k from a checked Resolution, so it reports no
    # Leibniz results on a map that is not a differential.
    L = abelian_algebra(2, 3, pi=nonzero_pi(2))
    original = abelres._assemble
    monkeypatch.setattr(abelres, "_assemble", lambda *a: add_one_at_origin(original(*a)))
    with pytest.raises(NotAComplex):
        dga_check(L, 2)


def test_corrupted_differential_is_refused_under_optimize():
    # The check must not be an assert: it has to survive python -O.
    code = (
        "import sys, pytest, rescoh.abelres as ar\n"
        "from conftest import add_one_at_origin\n"
        "from rescoh.liealg import abelian_algebra\n"
        "from rescoh.linalg import NotAComplex\n"
        "orig = ar._assemble\n"
        "def bad(*a):\n"
        "    return add_one_at_origin(orig(*a))\n"
        "ar._assemble = bad\n"
        "with pytest.raises(NotAComplex):\n"
        "    ar.build_resolution(abelian_algebra(2, 3), 2)\n"
        "print('refused', sys.flags.optimize)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "refused 1"


def test_resolution_exact(abelian_entry):
    tag, L = abelian_entry
    k_max = min(L.p - 1, 3)
    res = build_resolution(L, k_max)
    for k in range(k_max + 1):
        assert resolution_homology(res, k) == 0, (tag, k)
    with pytest.raises(ValueError):
        resolution_homology(res, k_max + 1)
    with pytest.raises(ValueError):
        resolution_homology(res, -1)


# The (n, p, kmax) of the pinned resolve reports in test_cli.py; each runs
# with the zero table and with the seeded table those reports use.
RESOLVE_SHAPES = [(4, 5, 2), (3, 5, 3), (4, 3, 2), (2, 7, 5)]


@functools.cache
def resolve_differentials(n: int, p: int, k_max: int, nonzero: bool):
    """d_1 .. d_{k_max+1} of the resolution that ``rescoh resolve`` builds."""
    pi = np.random.default_rng(10 * n + p).integers(0, p, (n, n)) * nonzero
    res = build_resolution(abelian_algebra(n, p, pi=pi), k_max)
    return [s.d for s in res.slices[1:]] + [res._extra.d]


def test_rank_matches_the_markowitz_oracle(abelian_entry):
    tag, L = abelian_entry
    res = build_resolution(L, min(L.p - 1, 3))
    for s in res.slices[1:] + [res._extra]:
        assert rank(s.d, L.p) == markowitz.rank(s.d, L.p), (tag, s.degree)


@pytest.mark.parametrize("nonzero", [False, True], ids=["zero", "pi"])
@pytest.mark.parametrize("n,p,k_max", RESOLVE_SHAPES)
def test_resolve_ranks_match_the_markowitz_oracle(n, p, k_max, nonzero):
    # d_3 of the north star is 6250 x 12500, past the dense oracle
    for k, d in enumerate(resolve_differentials(n, p, k_max, nonzero), 1):
        assert rank(d, p) == markowitz.rank(d, p), k


def test_peel_counts_on_the_north_star():
    # Columns-first rounds take these pivots off d_1, d_2, d_3 of the
    # north-star resolve (n=4, p=5, --kmax 2, zero table) before any
    # arithmetic, and clear d_1; counts, not times, so that losing the
    # peel shows.
    peels = [linalg._peel(*linalg._nonzeros(d, 5)) for d in resolve_differentials(4, 5, 2, False)]
    assert [peeled for peeled, *_ in peels] == [624, 596, 2454]
    assert [left.size for _, left, _, _ in peels] == [0, 4608, 7296]


def test_stacked_component_counts_on_the_north_star():
    # What the peel leaves of d_2 and d_3 splits into hundreds of small
    # components, every one of them stacked, so no entry reaches
    # Markowitz; counts, not times, so that losing the stage shows.
    counts = []
    for d in resolve_differentials(4, 5, 2, False)[1:]:
        shape, *entries = linalg._nonzeros(d, 5)
        peeled, r, c, v = linalg._peel(shape, *entries)
        comps = linalg._components(shape, r, c)[3].size
        stacked, left, _, _ = linalg._stacked_rank(shape, r, c, v, 5)
        counts.append((comps, left.size))
        assert peeled + stacked == rank(d, 5)
    assert counts == [(512, 0), (704, 0)]


@pytest.mark.parametrize("table", ["zero", "seeded", "scaled"])
@pytest.mark.parametrize("n,p,k_max", RESOLVE_SHAPES)
def test_resolve_components_are_numbered_like_the_entry_oracle(n, p, k_max, table):
    # Every differential of the resolve benchmark's inputs, whole and as
    # the peel leaves it; its nonzero tables are the reversal with
    # seeded units, scaled here the same way.
    if table == "scaled":
        units = np.random.default_rng(10 * n + p).integers(1, p, size=n)
        res = build_resolution(abelian_algebra(n, p, pi=nonzero_pi(n) * units[:, None]), k_max)
        ds = [s.d for s in res.slices[1:]] + [res._extra.d]
    else:
        ds = resolve_differentials(n, p, k_max, table == "seeded")
    for d in ds:
        shape, r, c, v = linalg._nonzeros(d, p)
        components.assert_numbered_alike(shape, r, c)
        _, r, c, _ = linalg._peel(shape, r, c, v)
        components.assert_numbered_alike(shape, r, c)


def test_sparse_constructions_on_the_north_star(monkeypatch):
    # One north-star build_resolution makes 13 SparseMatrix objects: the 9
    # operator tables (x_i, 1, x_j^(p-1)), d_1, d_2, d_3 and eps.  The
    # tables' batch rounds and the d.d checks sum their entries without
    # one; counts, not times, so that a construction put back shows.
    made = []
    init = SparseMatrix.__init__

    def counting(self, *args):
        made.append(args[0])
        init(self, *args)

    monkeypatch.setattr(SparseMatrix, "__init__", counting)
    build_resolution(abelian_algebra(4, 5), 2)
    assert len(made) == 13


def test_resolution_guards():
    with pytest.raises(NotAbelian):
        build_resolution(heisenberg_algebra(3), 1)
    with pytest.raises(DegreeTooHigh):
        build_resolution(abelian_algebra(2, 3), 3)
    with pytest.raises(ValueError):
        build_resolution(abelian_algebra(2, 3), -1)
    # the hidden extra slice also counts against the size bound
    with pytest.raises(TooLarge):
        build_resolution(abelian_algebra(9, 2), 1)


@pytest.mark.parametrize("call", [
    lambda: build_resolution(abelian_algebra(2, 3), -1),
    lambda: resolution_homology(build_resolution(abelian_algebra(2, 3), 1), 2),
    lambda: aux_C_homology(abelian_algebra(2, 3), -1),
    lambda: abelian_cochain_cohomology(abelian_algebra(2, 3),
                                       trivial_module(abelian_algebra(2, 3), 1), -1),
    lambda: frakC_check(abelian_algebra(2, 3), -1),
    lambda: dga_check(abelian_algebra(2, 3), -1),
], ids=["build_resolution_kmax", "resolution_homology_k", "aux_C_homology_k",
        "abelian_cochain_cohomology_k", "frakC_check_kmax", "dga_check_degree_bound"])
def test_argument_refusals_are_usage_errors(call):
    with pytest.raises(UsageError):
        call()


def test_aux_homology_dims(abelian_entry):
    tag, L = abelian_entry
    for k in range(L.n + 1):
        dim, reps = aux_C_homology(L, k)
        assert dim == math.comb(L.n, k), (tag, k)
        assert reps.shape[0] == dim


def test_aux_operators_are_built_once_per_algebra(monkeypatch):
    # build_resolution, dga_check and aux_C_homology at k = 0..n share the
    # 2n+1 right multiplications kept on the algebra, made by one table pass
    built, passes = [], []
    original, table_pass = abelres._right_operators, abelres._times_generator
    monkeypatch.setattr(abelres, "_right_operators", lambda U: built.append(U.L) or original(U))
    monkeypatch.setattr(abelres, "_times_generator", lambda *a: passes.append(1) or table_pass(*a))
    L = abelian_algebra(3, 3, pi=nonzero_pi(3))
    assert resolution_homology(build_resolution(L, 2), 2) == 0
    assert dga_check(L, 2)["pass"]
    dims = [aux_C_homology(L, k)[0] for k in range(L.n + 1)]
    assert dims == [math.comb(3, k) for k in range(4)]
    assert built == [L] and passes == [1]
    ops = L._operators
    assert len(ops) == 2 * L.n + 1
    assert all(not a.flags.writeable for op in ops for a in (op.rows, op.cols, op.vals))
    fresh = abelian_algebra(3, 3, pi=nonzero_pi(3))
    assert aux_C_homology(fresh, 1)[0] == 3 and built == [L, fresh]
    assert all(np.array_equal(np.asarray(a), np.asarray(b)) for a, b in zip(ops, fresh._operators))


def test_aux_guards():
    with pytest.raises(NotAbelian):
        aux_C_homology(witt_algebra(3)[0], 1)
    with pytest.raises(ValueError):
        aux_C_homology(abelian_algebra(2, 3), 3)


def test_formal_complex_contraction(abelian_entry):
    tag, L = abelian_entry
    k_max = min(L.p - 1, 4)
    report = frakC_check(L, k_max)
    assert report["pass"], (tag, report)
    assert report["h_dims"][0] == L.p**L.n
    for k in range(1, k_max + 1):
        assert report["h_dims"][k] == 0
    names = [c["name"] for c in report["checks"]]
    assert names == ["d1_zero", "homotopy_identity", "h0_full", "vanishing"]


def test_formal_complex_guards():
    with pytest.raises(NotAbelian):
        frakC_check(heisenberg_algebra(5), 2)
    with pytest.raises(DegreeTooHigh):
        frakC_check(abelian_algebra(1, 3), 3)


def test_dga_leibniz():
    for n in (1, 2):
        report = dga_check(abelian_algebra(n, 5, pi=nonzero_pi(n)), 4)
        assert report["pass"], report
        names = [c["name"] for c in report["checks"]]
        assert names == [
            "leibniz_generators",
            "leibniz_sampled",
            "d_of_degree2_generators",
            "c_products_are_cycles",
        ]
    # smaller prime limits the degree window but the rule still holds
    assert dga_check(abelian_algebra(2, 3), 2)["pass"]


def test_dga_guards():
    with pytest.raises(DegreeTooHigh):
        dga_check(abelian_algebra(2, 3), 3)
    with pytest.raises(NotAbelian):
        dga_check(heisenberg_algebra(5), 2)


def test_dual_cochain_dims_strongly_abelian():
    # zero table and trivial coefficients: every differential vanishes
    for n, p in [(1, 5), (2, 5), (3, 3)]:
        L = abelian_algebra(n, p)
        M = trivial_module(L, 1)
        for k in range(p - 1):
            dim = abelian_cochain_cohomology(L, M, k)
            assert dim == math.comb(n + k - 1, k), (n, p, k)


def test_dual_cochain_guards():
    L = abelian_algebra(2, 3)
    M = trivial_module(L, 1)
    with pytest.raises(DegreeTooHigh):
        abelian_cochain_cohomology(L, M, 2)
    assert isinstance(abelian_cochain_cohomology(L, M, 2, allow_unproven=True), int)
    with pytest.raises(ValueError):
        abelian_cochain_cohomology(L, M, -1)
    with pytest.raises(NotAbelian):
        abelian_cochain_cohomology(
            heisenberg_algebra(3), trivial_module(heisenberg_algebra(3), 1), 1
        )


def test_dual_cochain_matches_restricted_complex(abelian_entry):
    # the two chain-level computations of H^k must agree where both run
    tag, L = abelian_entry
    p = L.p
    for mname, M in coefficient_modules(L):
        for k in (0, 1, 2):
            unproven = k + 1 >= p
            dual = abelian_cochain_cohomology(L, M, k, allow_unproven=unproven)
            direct = restricted_cohomology(L, M, k)[0]
            assert dual == direct, (tag, mname, k)


def test_dimensions_from_ranks_match_the_group_path(monkeypatch):
    # frakC_check, aux_C_homology and abelian_cochain_cohomology read their
    # dimensions from two ranks; read from the groups instead, as they were,
    # every report and value is the same
    def answers():
        out = []
        for tag, L in ABELIAN:
            out.append(frakC_check(L, min(L.p - 1, 4)))
            out += [(dim, reps.tolist()) for dim, reps in (aux_C_homology(L, k)
                                                          for k in range(L.n + 1))]
            out += [abelian_cochain_cohomology(L, M, k, allow_unproven=k + 1 >= L.p)
                    for _, M in coefficient_modules(L) for k in range(4)]
        return out

    from_ranks = answers()
    monkeypatch.setattr(linalg.Complex, "dim", lambda self, k: self.cohomology(k).dim)
    assert answers() == from_ranks
