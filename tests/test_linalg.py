import math
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from rescoh import linalg
from rescoh.linalg import (
    MODULUS_LIMIT,
    Complex,
    InvariantFailure,
    ModulusTooLarge,
    NotAComplex,
    SparseMatrix,
    Subspace,
    TooLarge,
    as_fp,
    cohomology,
    identity,
    kron_sum,
    mat_pow_mod,
    nullspace,
    rank,
    row_space,
    rref,
    sample_vectors,
    zeros,
)

import components
import dense_rref
import markowitz
from dense_matmul import matmul_mod


def random_matrices(p, shapes, tag):
    rng = np.random.default_rng(hash((p, tag)) & 0xFFFF)
    return [rng.integers(0, p, size=s, dtype=np.int64) for s in shapes]


def test_rref_known():
    a = [[2, 4], [1, 2]]
    R, rk, piv = rref(a, 5)
    assert rk == 1
    assert piv == [0]
    assert (R == [[1, 2], [0, 0]]).all()
    R, rk, piv = rref(identity(3), 7)
    assert rk == 3 and piv == [0, 1, 2]


def test_rref_degenerate_shapes():
    for shape in [(0, 3), (3, 0), (0, 0)]:
        R, rk, piv = rref(zeros(*shape), 3)
        assert rk == 0 and piv == [] and R.shape == shape
    with pytest.raises(ValueError):
        rref(np.arange(4), 5)


def to_sparse(a, p):
    a = as_fp(a, p)
    r, c = np.nonzero(a)
    return SparseMatrix(a.shape, r, c, a[r, c], p)


def test_rank_agrees_with_rref():
    shapes = [(4, 6), (6, 4), (5, 5), (1, 8), (8, 1), (12, 9), (0, 4), (4, 0), (0, 0)]
    for p in (2, 3, 5, 7, 11, 13):
        for a in random_matrices(p, shapes, "rank"):
            assert rank(a, p) == rref(a, p)[1], (p, a.shape)
        # low-rank and sparse inputs exercise dependent rows and fill-in
        rng = np.random.default_rng(p)
        for r in (1, 3):
            a = (rng.integers(0, p, size=(7, r)) @ rng.integers(0, p, size=(r, 9))) % p
            assert rank(a, p) == rref(a, p)[1] <= r
        a = rng.integers(0, p, size=(20, 30)) * (rng.random((20, 30)) < 0.1)
        assert rank(a, p) == rref(a, p)[1]
    with pytest.raises(ValueError):
        rank(np.arange(4), 5)


def test_sparse_matrix_rank_matches_dense():
    for p in (2, 3, 5, 7):
        rng = np.random.default_rng(100 + p)
        for shape in [(6, 9), (9, 6), (15, 15), (0, 3), (3, 0)]:
            a = rng.integers(0, p, size=shape) * (rng.random(shape) < 0.3)
            sa = to_sparse(a, p)
            assert (np.asarray(sa) == a).all()
            assert rank(sa, p) == rank(a, p) == rref(a, p)[1]


def test_sparse_matrix_products_and_composite_check():
    p = 5
    rng = np.random.default_rng(7)
    a = rng.integers(0, p, size=(4, 6)) * (rng.random((4, 6)) < 0.5)
    b = rng.integers(0, p, size=(6, 3)) * (rng.random((6, 3)) < 0.5)
    sa, sb = to_sparse(a, p), to_sparse(b, p)
    for c in range(3):
        assert np.array_equal(sa @ b[:, c], (a @ b[:, c]) % p)
    # incoming maps into the kernel of d_out, so the composite vanishes
    d_out = to_sparse([[0, 0, 1]], 3)
    d_in = to_sparse([[1, 2], [2, 0], [0, 0]], 3)
    d_out.check_composite(d_in, "ok")
    with pytest.raises(NotAComplex, match="bad is nonzero on column 1"):
        d_out.check_composite(to_sparse([[1, 0], [0, 0], [0, 2]], 3), "bad")
    with pytest.raises(ValueError):
        d_out.check_composite(sa, "shapes")
    assert (matmul_mod(sa, sb, p) == (a @ b) % p).all()


def test_matmul_refuses_an_array_of_another_length():
    m = SparseMatrix((2, 3), [0, 1], [0, 2], [1, 1], 5)
    assert (m @ np.array([0, 0, 3])).tolist() == [0, 3]
    for shape in ((2,), (4,), (0,), (2, 1), (3, 1, 1), ()):
        with pytest.raises(ValueError, match=rf"^@: a \(2, 3\) matrix and a {re.escape(str(shape))} "
                                             "array do not compose$"):
            m @ np.zeros(shape, dtype=np.int64)


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_matmul_with_arrays_and_the_transpose_match_dense_products(p):
    # 1-d and 2-d arrays, unreduced and negative, and every empty shape
    rng = np.random.default_rng(p)
    for rows, cols, width in [(5, 7, 3), (1, 9, 1), (0, 4, 2), (4, 0, 2), (0, 0, 0), (6, 5, 0)]:
        a = rng.integers(0, p, size=(rows, cols)) * (rng.random((rows, cols)) < 0.4)
        sa = to_sparse(a, p)
        for x in (rng.integers(-3 * p, 3 * p, size=(cols, width)),
                  rng.integers(-3 * p, 3 * p, size=cols)):
            want = np.asarray(a.astype(object) @ x.astype(object) % p, dtype=np.int64)
            got = sa @ x
            assert got.dtype == np.int64 and got.shape == want.shape
            assert np.array_equal(got, want)
        t = sa.T
        assert isinstance(t, SparseMatrix) and t.p == p and t.shape == (cols, rows)
        assert np.array_equal(np.asarray(t), a.T) and np.array_equal(np.asarray(t.T), a)
        assert_column_pointers(t)
    # one row of 5000 products (p-1)^2 sums past 2^32 and stays exact
    n = 5000
    row = SparseMatrix((1, n), np.zeros(n, np.int64), np.arange(n), np.full(n, p - 1), p)
    x = np.full((n, 2), p - 1)
    assert n * (p - 1) ** 2 > 2**32 or p < 65521
    assert (row @ x).tolist() == [[n * (p - 1) ** 2 % p] * 2]
    assert (row @ x[:, 0]).tolist() == [n * (p - 1) ** 2 % p]


def assert_column_pointers(m):
    assert m.ptr.tolist() == np.searchsorted(m.cols, np.arange(m.shape[1] + 1)).tolist()
    assert m.ptr[-1] == m.vals.size
    assert np.diff(m.ptr).tolist() == np.count_nonzero(np.asarray(m), axis=0).tolist()


def test_column_pointers_index_the_canonical_arrays(monkeypatch):
    assert_column_pointers(
        SparseMatrix((3, 4), [2, 0, 1, 2, 0, 1], [3, 1, 1, 3, 0, 1], [1, 4, 2, 2, 5, 5], 7))
    for shape, entries in [((0, 2), ([], [], [])), ((3, 0), ([], [], [])),
                           ((4, 5), ([1, 1, 3], [2, 2, 4], [1, 6, 2])), ((1, 1), ([0], [0], [1]))]:
        assert_column_pointers(SparseMatrix(shape, *entries, 7))
    # a product assembled from blocks of a few columns each
    monkeypatch.setattr(linalg, "_PRODUCT_BLOCK", 3)
    rng = np.random.default_rng(12)
    a = rng.integers(0, 5, size=(9, 11)) * (rng.random((9, 11)) < 0.4)
    b = rng.integers(0, 5, size=(11, 13)) * (rng.random((11, 13)) < 0.4)
    b[:, [0, 4, 12]] = 0
    prod = to_sparse(a, 5) @ to_sparse(b, 5)
    assert (np.asarray(prod) == matmul_mod(a, b, 5)).all()
    assert_column_pointers(prod)


def test_sparse_matrix_canonical_form():
    # entries in any order; equal positions summed mod p, zeros dropped
    m = SparseMatrix((3, 4), [2, 0, 1, 2, 0, 1], [3, 1, 1, 3, 0, 1], [1, 4, 2, 2, 5, 5], 7)
    assert m.rows.tolist() == [0, 0, 2]
    assert m.cols.tolist() == [0, 1, 3]
    assert m.vals.tolist() == [5, 4, 3]
    assert (np.asarray(m) == [[5, 4, 0, 0], [0, 0, 0, 0], [0, 0, 0, 3]]).all()
    empty = SparseMatrix((0, 2), [], [], [], 3)
    assert empty.vals.size == 0 and np.asarray(empty).shape == (0, 2)
    with pytest.raises(ValueError):
        SparseMatrix((2, 2), [2], [0], [1], 3)
    with pytest.raises(ValueError):
        SparseMatrix((2, 2), [0, 1], [0], [1], 3)
    with pytest.raises(ModulusTooLarge, match="^SparseMatrix: modulus 65537 is not below 65536$"):
        SparseMatrix((1, 1), [0], [0], [1], MODULUS_LIMIT + 1)


def summed_by_dict(rows, cols, vals, p):
    """Entries summed mod p in a {(col, row): value} dict, zeros dropped,
    as (rows, cols, vals) lists sorted by column, then row."""
    acc = {}
    for i, j, v in zip(rows, cols, vals):
        acc[j, i] = (acc.get((j, i), 0) + v) % p
    keys = sorted(k for k, v in acc.items() if v)
    return [i for _, i in keys], [j for j, _ in keys], [acc[k] for k in keys]


def constructor_cases(p):
    """(name, shape, rows, cols, vals) for each branch of the constructor's summing."""
    rng = np.random.default_rng(p)
    at = rng.permutation(6 * 7)[:20]  # distinct positions in no order
    units = rng.integers(1, p, size=20)
    twice = np.r_[at[:8], at[:8]]
    return [
        ("distinct", (6, 7), at // 7, at % 7, units),
        ("distinct, some vanish", (6, 7), at // 7, at % 7, units * (np.arange(20) % 3 != 0) * p
         + units * (np.arange(20) % 3 == 0)),
        ("unreduced", (6, 7), at // 7, at % 7, units + p * rng.integers(-3, 4, size=20)),
        ("duplicates cancel", (6, 7), twice // 7, twice % 7, np.r_[units[:8], p - units[:8]]),
        ("duplicates, some cancel", (6, 7), np.r_[at, at[:8]] // 7, np.r_[at, at[:8]] % 7,
         np.r_[units, p - units[:4], units[4:8]]),
        ("all zero", (6, 7), at // 7, at % 7, p * rng.integers(-2, 3, size=20)),
        ("duplicates past 2^32, sums past int64", (6, 7), twice // 7, twice % 7,
         rng.integers(1 << 62, (1 << 63) - 1, size=16)),
        ("the int64 minimum twice", (3, 2), [2, 2], [1, 1], [-(1 << 63)] * 2),
        ("single", (3, 2), [2], [1], [p + 1]),
        ("0 x 5", (0, 5), [], [], []),
        ("5 x 0", (5, 0), [], [], []),
        ("0 x 0", (0, 0), [], [], []),
        ("1 x 1 empty", (1, 1), [], [], []),
    ]


@pytest.mark.parametrize("p", [2, 65521])
def test_sparse_matrix_constructor_matches_a_dict_oracle(p):
    for name, shape, rows, cols, vals in constructor_cases(p):
        m = SparseMatrix(shape, rows, cols, vals, p)
        want = summed_by_dict(np.asarray(rows).tolist(), np.asarray(cols).tolist(),
                              np.asarray(vals).tolist(), p)
        assert (m.rows.tolist(), m.cols.tolist(), m.vals.tolist()) == want, name
        assert m.shape == shape and all(x.dtype == np.int64 for x in (m.rows, m.cols, m.vals))
        assert_column_pointers(m)


def test_sparse_matrix_arrays_are_read_only():
    # rank and rref read them without a copy at the matrix's own p
    m = SparseMatrix((3, 4), [2, 0, 1], [3, 1, 1], [1, 4, 2], 7)
    for x in (m.rows, m.cols, m.vals, m.ptr):
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            x += 1
    shape, *entries = linalg._nonzeros(m, 7)
    assert shape == m.shape and all(x is y for x, y in zip(entries, (m.rows, m.cols, m.vals)))


def test_a_complex_keeps_read_only_maps_and_groups():
    # a plain Complex over a build of SparseMatrix maps, as the dualized
    # resolution and the formal complex make: its callers share what it keeps
    p = 3
    maps = {0: [[1, 0], [0, 0], [0, 0]], 1: [[0, 1, 0]]}
    cx = Complex(lambda k: to_sparse(maps[k], p) if k in maps else None, p)
    for k in maps:
        d = cx.delta(k)
        assert d is cx.delta(k) and isinstance(d, SparseMatrix)
        with pytest.raises(ValueError, match="read-only"):
            d.vals[0] = 2
    for k, dim in enumerate([1, 1, 0]):
        H = cx.cohomology(k)
        assert H is cx.cohomology(k) and H.dim == cx.dim(k) == dim
        for a in (H.cycles, H.boundaries, H.reps):
            assert not a.flags.writeable


# δ(1)∘δ(0) = [[0, 1, 1]]: columns 1 and 2 have a nonzero image
NOT_A_COMPLEX = {0: [[0, 0, 0], [0, 1, 0], [0, 0, 1]], 1: [[0, 1, 1]]}


def complex_of(maps, p):
    """A plain Complex over the SparseMatrix form of each map."""
    return Complex(lambda k: to_sparse(maps[k], p) if k in maps else None, p)


def test_dim_refuses_a_nonzero_composite():
    # the two ranks alone would read dim H^1 = 3 - 1 - 2 = 0; dim checks
    # the composite exactly first and names its first nonzero column
    cx = complex_of(NOT_A_COMPLEX, 5)
    with pytest.raises(NotAComplex, match=r"^delta\(1\) delta\(0\) is nonzero on column 1$"):
        cx.dim(1)
    with pytest.raises(NotAComplex):
        cx.dim(1)  # a failed check is not remembered as passed
    assert (cx.dim(0), cx.dim(2)) == (1, 0)  # one map each: no pair to check


REFUSE_A_NONZERO_COMPOSITE = f"""\
import sys
import numpy as np
from rescoh.linalg import Complex, NotAComplex, SparseMatrix, as_fp
dense = {{k: as_fp(a, 5) for k, a in {NOT_A_COMPLEX!r}.items()}}
sparse = {{k: SparseMatrix(a.shape, *np.nonzero(a), a[np.nonzero(a)], 5) for k, a in dense.items()}}
try:
    Complex(sparse.get, 5).dim(1)
except NotAComplex as exc:
    print(exc)
print("optimize", sys.flags.optimize)
"""


def test_dim_refuses_a_nonzero_composite_under_optimize():
    # the check is no assert: it has to survive python -O
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-O", "-c", REFUSE_A_NONZERO_COMPOSITE],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "delta(1) delta(0) is nonzero on column 1\n" + "optimize 1\n"


def test_dim_without_a_map_is_refused_like_the_group():
    cx = complex_of(NOT_A_COMPLEX, 5)
    for k in (-1, 3):
        for read in (cx.dim, cx.cohomology):
            with pytest.raises(ValueError, match="need at least one map to fix the middle dimension"):
                read(k)


def test_kernels_leave_the_sparse_arrays_as_they_were():
    # rank and rref at the matrix's own p read its arrays themselves, on
    # singletons the peel takes, small blocks the stacked stage takes and
    # a 30 x 50 block that reaches Markowitz; @ and check_composite too.
    p = 5
    rng = np.random.default_rng(3)
    a, b = kernel_pair(rng, p, (30, 50), 20, 0.3)
    c = block_diagonal([rng.integers(0, p, size=(3, 4)) for _ in range(5)] + [identity(3), a],
                       rng, 2, 1)
    mats = [to_sparse(m, p) for m in (a, b, c, c.T, identity(4))]
    copies = [[x.copy() for x in (m.rows, m.cols, m.vals, m.ptr)] for m in mats]
    for m in mats:
        assert rank(m, p) == rref(m, p)[1] == rank(np.asarray(m), p)
    mats[0].check_composite(mats[1], "a b")
    assert (np.asarray(mats[0] @ mats[1]) == 0).all()
    assert (np.asarray(mats[2] @ mats[3]) == matmul_mod(c, c.T, p)).all()
    for m, copy in zip(mats, copies):
        for x, y in zip((m.rows, m.cols, m.vals, m.ptr), copy):
            np.testing.assert_array_equal(x, y)


def test_rank_at_another_p_reduces_mod_that_p():
    # Row 0 is 5 and 12 = 5 mod 7, which vanish mod 5 but are in the
    # matrix's own arrays.
    a = SparseMatrix((2, 3), [0, 0, 1, 1], [0, 1, 1, 2], [5, 12, 1, 1], 7)
    assert a.vals.tolist() == [5, 5, 1, 1]
    assert rank(a, 7) == 2 and rank(a, 5) == 1 == rank(np.asarray(a) % 5, 5)
    assert rref(a, 5)[0].tolist() == [[0, 1, 1], [0, 0, 0]]
    rng = np.random.default_rng(13)
    for _ in range(20):
        dense = rng.integers(0, 13, size=(7, 9)) * (rng.random((7, 9)) < 0.4)
        m = to_sparse(dense, 13)
        for q in (2, 3, 5, 7, 11):
            assert rank(m, q) == rref(dense % q, q)[1] == rref(m, q)[1]
            assert (rref(m, q)[0] == rref(dense % q, q)[0]).all()
    assert a.vals.tolist() == [5, 5, 1, 1]


def kernel_pair(rng, p, shape_a, inner_cols, density):
    """A sparse a and a b whose columns lie in ker a, with some left empty."""
    a = rng.integers(0, p, size=shape_a) * (rng.random(shape_a) < density)
    basis = nullspace(a, p)
    b = (basis.T @ rng.integers(0, p, size=(basis.shape[0], inner_cols))) % p
    b[:, rng.random(inner_cols) < 0.3] = 0
    return a, b


def dense_verdict(a, b, p):
    nonzero = np.flatnonzero(matmul_mod(a, b, p).any(axis=0))
    return f"on column {nonzero[0]}" if nonzero.size else None


def sparse_verdict(a, b, p):
    try:
        to_sparse(a, p).check_composite(to_sparse(b, p), "composite")
    except NotAComplex as exc:
        return str(exc).removeprefix("composite is nonzero ")
    return None


@pytest.mark.parametrize("p", [2, 3, 5, 7, 65521])
def test_vectorised_composite_check_matches_dense_product(p):
    rng = np.random.default_rng(p)
    cases = []
    for shape_a, inner_cols, density in [((4, 6), 5, 0.5), ((3, 9), 8, 0.3), ((7, 7), 6, 0.2),
                                         ((5, 12), 10, 0.1), ((1, 4), 3, 0.9)]:
        a, b = kernel_pair(rng, p, shape_a, inner_cols, density)
        cases.append((a, b))
        # one planted entry of b: the product becomes a scaled column of a
        planted = b.copy()
        k, j = rng.integers(shape_a[1]), rng.integers(inner_cols)
        planted[k, j] = (planted[k, j] + rng.integers(1, p)) % p
        cases.append((a, planted))
        cases.append((a, rng.integers(0, p, size=b.shape) * (rng.random(b.shape) < density)))
    single = zeros(4, 5)
    single[2, 3] = p - 1
    other = zeros(5, 6)
    other[3, 4] = 1
    cases += [(single, other), (single, zeros(5, 6)), (zeros(0, 3), zeros(3, 4)),
              (zeros(3, 0), zeros(0, 4)), (zeros(4, 3), zeros(3, 0)), (zeros(0, 0), zeros(0, 0))]
    verdicts = [dense_verdict(a, b, p) for a, b in cases]
    assert None in verdicts and any(verdicts)
    for (a, b), want in zip(cases, verdicts):
        assert sparse_verdict(a, b, p) == want, (p, a.shape, b.shape)


def test_sparse_product_in_small_blocks_matches_dense(monkeypatch):
    # a block boundary inside the product must not split any column's sum
    monkeypatch.setattr(linalg, "_PRODUCT_BLOCK", 3)
    for p in (2, 5, 65521):
        rng = np.random.default_rng(50 + p)
        a = rng.integers(0, p, size=(9, 11)) * (rng.random((9, 11)) < 0.4)
        b = rng.integers(0, p, size=(11, 13)) * (rng.random((11, 13)) < 0.4)
        b[:, 4] = 0
        assert (np.asarray(to_sparse(a, p) @ to_sparse(b, p)) == matmul_mod(a, b, p)).all()
        assert sparse_verdict(a, b, p) == dense_verdict(a, b, p)
        a, b = kernel_pair(rng, p, (6, 10), 12, 0.5)
        assert sparse_verdict(a, b, p) is None and dense_verdict(a, b, p) is None
        # blocks whose products all cancel, then one nonzero sum in the last block
        basis = nullspace(a, p)
        b = basis.T @ rng.integers(1, p, size=(len(basis), 12)) % p
        b[:, -1] = 0
        b[np.flatnonzero(a.any(axis=0))[0], -1] = 1
        assert (np.asarray(to_sparse(a, p) @ to_sparse(b, p)) == matmul_mod(a, b, p)).all()
        assert sparse_verdict(a, b, p) == dense_verdict(a, b, p) == "on column 11"


def read_off(a, b, p: int):
    """The solution of a @ x = b that is zero on the free columns, read off
    rref([a | b]) as infer_p_operator reads its n systems; None when b's
    column takes a pivot, that is when the system is inconsistent."""
    R, rk, pivots = rref(np.hstack([as_fp(a, p), as_fp(b, p).reshape(-1, 1)]), p)
    if pivots and pivots[-1] == np.shape(a)[1]:
        return None
    x = np.zeros(np.shape(a)[1], dtype=np.int64)
    x[pivots] = R[:rk, -1]
    return x


def test_rank_exact_near_the_int64_bound():
    # Entries near 2**32 would make every product in elimination exceed
    # int64: refused.  At 65521, the last prime below MODULUS_LIMIT, the
    # stacks reduce every second step and the same matrices stay exact.
    a = np.array([[4294967290, 1], [2, 3]], dtype=np.int64)
    for m in (a, to_sparse(a, 65521)):
        with pytest.raises(ModulusTooLarge):
            rank(m, 4294967291)
        with pytest.raises(ModulusTooLarge):
            rref(m, 4294967291)
    p = 65521
    rng = random.Random(p)
    products = []
    for rows, cols, r in [(6, 7, 3), (8, 5, 5), (5, 9, 1), (4, 4, 4)]:
        # B = [I_r; X] and C = [I_r | Y] give B @ C of rank exactly r.
        B = [[int(i == j) for j in range(r)] for i in range(r)]
        B += [[rng.randrange(p) for _ in range(r)] for _ in range(rows - r)]
        C = [[int(i == j) for j in range(r)] + [rng.randrange(p) for _ in range(cols - r)]
             for i in range(r)]
        prod = [[sum(B[i][t] * C[t][j] for t in range(r)) % p for j in range(cols)]
                for i in range(rows)]
        a = np.array(prod, dtype=np.int64)
        products.append(a)
        assert rank(a, p) == r
        assert rank(to_sparse(a, p), p) == r
        # C is already reduced with pivots 0..r-1 and spans the row space
        R, rk, pivots = rref(a, p)
        assert rk == r and pivots == list(range(r))
        assert R[:r].tolist() == C and not R[r:].any()
        ns = nullspace(a, p)
        assert ns.shape == (cols - r, cols)
        assert all(sum(x * y for x, y in zip(row, v)) % p == 0 for row in prod for v in ns.tolist())
        # a consistent right-hand side, and for rows > r the unit vector
        # e_r, off the column space {(y, X y)} of a
        x0 = [rng.randrange(p) for _ in range(cols)]
        b = [sum(x * y for x, y in zip(row, x0)) % p for row in prod]
        x = read_off(a, b, p).tolist()
        assert [sum(u * v for u, v in zip(row, x)) % p for row in prod] == b
        if rows > r:
            assert read_off(a, [int(i == r) for i in range(rows)], p) is None
    # A border of singletons around the 6 x 7 product of rank 3: column 7
    # holds one entry, in row 6, which spans columns 0..7, and row 7 holds
    # one entry, in column 8, which meets rows 0..5 too.  The peel takes
    # both pivots and leaves the product whole.
    bordered = np.zeros((8, 9), dtype=np.int64)
    bordered[:6, :7] = products[0]
    bordered[6, :8] = [rng.randrange(1, p) for _ in range(8)]
    bordered[:6, 8] = [rng.randrange(1, p) for _ in range(6)]
    bordered[7, 8] = p - 2
    peeled, left, _, _ = linalg._peel(*linalg._nonzeros(bordered, p))
    assert peeled == 2 and left.size == np.count_nonzero(products[0])
    # It clears a staircase, one pivot per round, by columns or by rows.
    stair = np.zeros((5, 6), dtype=np.int64)
    stair[range(5), range(5)] = [p - 1 - i for i in range(5)]
    stair[range(5), range(1, 6)] = [p - 7 - i for i in range(5)]
    for m in (stair, stair.T):
        peeled, left, _, _ = linalg._peel(*linalg._nonzeros(m, p))
        assert peeled == 5 and left.size == 0
    for m in (bordered, stair, stair.T):
        assert rank(m, p) == rank(to_sparse(m, p), p) == markowitz.rank(m, p) == rref(m, p)[1]
    assert rank(bordered, p) == 3 + 2


def test_peel_stops_on_a_chain():
    # A bidiagonal matrix yields one singleton column per round, so its
    # first round finds too few pivots to go on; Markowitz takes the rest.
    n, p = 300, 5
    i = np.arange(n)
    a = SparseMatrix((n, n), np.r_[i, i[:-1]], np.r_[i, i[1:]],
                     np.r_[np.full(n, 2), np.full(n - 1, 3)], p)
    peeled, left, _, _ = linalg._peel(*linalg._nonzeros(a, p))
    assert peeled == 1 and left.size == 2 * n - 3
    assert rank(a, p) == markowitz.rank(a, p) == n


def test_the_chain_is_one_component_for_markowitz():
    # What the peel leaves of the chain above is one component, too big
    # to stack, so Markowitz gets all 2n - 3 entries of it.
    n, p = 300, 5
    i = np.arange(n)
    a = SparseMatrix((n, n), np.r_[i, i[:-1]], np.r_[i, i[1:]],
                     np.r_[np.full(n, 2), np.full(n - 1, 3)], p)
    shape, r, c, v = linalg._nonzeros(a, p)
    _, r, c, v = linalg._peel(shape, r, c, v)
    assert linalg._components(shape, r, c)[3].size == 1
    assert np.unique(r).size + np.unique(c).size > linalg._STACK_CUT
    stacked, left, _, _ = linalg._stacked_rank(shape, r, c, v, p)
    assert stacked == 0 and left.size == 2 * n - 3


def test_the_chain_is_numbered_like_the_entry_oracle():
    # The whole 300-chain, and what the peel leaves of it
    n, p = 300, 5
    i = np.arange(n)
    a = SparseMatrix((n, n), np.r_[i, i[:-1]], np.r_[i, i[1:]],
                     np.r_[np.full(n, 2), np.full(n - 1, 3)], p)
    shape, r, c, v = linalg._nonzeros(a, p)
    components.assert_numbered_alike(shape, r, c)
    _, r, c, _ = linalg._peel(shape, r, c, v)
    components.assert_numbered_alike(shape, r, c)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(shape=st.tuples(st.integers(0, 12), st.integers(0, 12)),
       cells=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40, unique=True),
       seed=st.integers(0, 2**32 - 1))
def test_components_are_numbered_like_the_entry_oracle(shape, cells, seed):
    # Empty rows and columns, lone entries and entries in any order.
    cells = [(i, j) for i, j in cells if i < shape[0] and j < shape[1]]
    cells = np.array(cells, dtype=np.int64).reshape(-1, 2)
    r, c = cells[np.random.default_rng(seed).permutation(len(cells))].T
    components.assert_numbered_alike(shape, r, c)


def low_rank_product(rng, rows, cols, r, p):
    """B @ C mod p for B = [I_r; X] and C = [I_r | Y]: rank exactly r."""
    B = [[int(i == j) for j in range(r)] for i in range(r)]
    B += [[rng.randrange(p) for _ in range(r)] for _ in range(rows - r)]
    C = [[int(i == j) for j in range(r)] + [rng.randrange(p) for _ in range(cols - r)]
         for i in range(r)]
    return np.array([[sum(B[i][t] * C[t][j] for t in range(r)) % p for j in range(cols)]
                     for i in range(rows)], dtype=np.int64)


def block_diagonal(blocks, rng, extra_rows=0, extra_cols=0):
    """The blocks on a diagonal, padded with empty rows and columns, with
    rows and columns permuted by the numpy generator rng."""
    rows, cols = sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)
    out = np.zeros((rows + extra_rows, cols + extra_cols), dtype=np.int64)
    i = j = 0
    for b in blocks:
        out[i : i + b.shape[0], j : j + b.shape[1]] = b
        i, j = i + b.shape[0], j + b.shape[1]
    return out[rng.permutation(out.shape[0])][:, rng.permutation(out.shape[1])]


@pytest.mark.parametrize("p", [65521, 65537, 4294967291])
def test_stacked_rank_exact_across_the_dtype_switch(p):
    # The products of test_rank_exact_near_the_int64_bound, block by block:
    # int64 stacks at 65521, the last prime below MODULUS_LIMIT; from
    # there up, where int64 would overflow, the entries are refused
    # before any is read.
    rng = random.Random(p)
    shapes = [(6, 7, 3), (8, 5, 5), (5, 9, 1), (4, 4, 4)]
    blocks = [low_rank_product(rng, *s, p) for s in shapes * 2]
    a = block_diagonal(blocks, np.random.default_rng(p), 2, 3)
    if p >= MODULUS_LIMIT:
        for call in (linalg._nonzeros, rank, to_sparse):
            with pytest.raises(ModulusTooLarge):
                call(a, p)
        return
    shape, r, c, v = linalg._nonzeros(a, p)
    stacked, left, _, _ = linalg._stacked_rank(shape, r, c, v, p)
    assert stacked == 2 * sum(rk for *_, rk in shapes) and left.size == 0
    assert rank(a, p) == rank(to_sparse(a, p), p) == markowitz.rank(a, p) == stacked


@pytest.mark.parametrize("p", [2, 3, 5, 13, 101, 32749, 32771, 65521])
def test_stacked_rank_exact_across_the_deferred_reductions(p):
    # Components about 30 columns wide, all stacked, take about 30 steps,
    # with the stack reduced mod p every 62 steps at p = 2, 30 at 3, 20 at
    # 5, 12 at 13, 7 at 101, 3 at 32749, the last prime below 2^15, and 2
    # from 32771 on.  Entries p - 1, p - 2 and p - 3 (some zeros at p <= 3)
    # push each window towards its bound.
    rng = np.random.default_rng(p)

    def near_top(*shape):
        return (p - 1 - rng.integers(0, 3, size=shape)) % p

    full = near_top(34, 30)
    dependent = near_top(30, 33)
    dependent[5] = dependent[1] * (p - 1) % p
    dependent[9] = (dependent[1] + dependent[2]) % p
    low = near_top(31, 20) @ near_top(20, 31) % p
    # widths 17 and 20 share the 17..32 stack, so their padding columns come
    # up empty; a one-column block's only pivot is in its last column
    narrow = [near_top(24, 17), near_top(20, 26), np.full((3, 1), p - 1)]
    a = block_diagonal([full, dependent, low, *narrow], rng, 2, 3)
    want = markowitz.rank(a, p)
    assert want == dense_rref.rref(a, p)[1]
    for m in (a, to_sparse(a, p)):  # entries by row, then by column
        stacked, left, _, _ = linalg._stacked_rank(*linalg._nonzeros(m, p), p)
        assert left.size == 0 and stacked == want
        assert rank(m, p) == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=st.sampled_from([2, 3, 5, 7, 65521]),
       small=st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9), st.floats(0, 1)), max_size=6),
       cycles=st.lists(st.integers(2, 45), max_size=2),
       extra=st.tuples(st.integers(0, 3), st.integers(0, 3)), seed=st.integers(0, 2**32 - 1))
def test_rank_of_permuted_blocks_matches_the_oracles(p, small, cycles, extra, seed):
    # Random blocks, mostly under the stacking cut, and sprinkled n x n
    # cycles, which the peel leaves whole and which pass the cut from
    # n = 33 on; empty rows and columns; rows and columns permuted.
    rng = np.random.default_rng(seed)
    blocks = [rng.integers(0, p, size=(m, n)) * (rng.random((m, n)) < d) for m, n, d in small]
    for n in cycles:
        b = rng.integers(0, p, size=(n, n)) * (rng.random((n, n)) < 0.05)
        b[np.arange(n), np.arange(n)] = rng.integers(1, p, size=n)
        b[np.arange(n), (np.arange(n) + 1) % n] = rng.integers(1, p, size=n)
        blocks.append(b)
    a = block_diagonal(blocks, rng, *extra)
    want = markowitz.rank(a, p)
    assert rank(a, p) == rank(to_sparse(a, p), p) == want == dense_rref.rref(a, p)[1]


def test_products_refuse_a_large_modulus():
    # (p-1)^2 = 1 mod p, but the int64 product wraps and gives 4294967267
    p = 4294967291
    with pytest.raises(ModulusTooLarge):
        mat_pow_mod([[p - 1]], 2, p)


ELIMINATIONS = (
    rank,
    rref,
    nullspace,
    row_space,
    lambda m, p: Subspace(m, 3, p),
    lambda m, p: cohomology(np.transpose(m), None, p),
    lambda m, p: cohomology(None, m, p),
)


@pytest.mark.parametrize("p", [65537, 4294967291])
def test_every_elimination_refuses_a_large_modulus(p):
    # one int64 path: each elimination refuses on dense input and on a
    # SparseMatrix read at that p, and the same calls work at 65521
    a = np.array([[1, 2, 0], [0, 0, 3]], dtype=np.int64)
    sparse = to_sparse(a, 65521)
    for call in ELIMINATIONS:
        for m in (a, sparse):
            call(m, 65521)
            with pytest.raises(ModulusTooLarge, match=f"modulus {p} is not below 65536$"):
                call(m, p)
    r, c = np.nonzero(a)
    assert np.array_equal(np.asarray(SparseMatrix(a.shape, r, c, a[r, c], 65521)), a)
    with pytest.raises(ModulusTooLarge, match=f"^SparseMatrix: modulus {p} is not below 65536$"):
        SparseMatrix(a.shape, r, c, a[r, c], p)


def test_cohomology_refuses_a_large_modulus():
    # a genuine complex: (p-2)(p-1) + (p-2) = (p-2) p, which int64 misreads
    p = 4294967291
    incoming, outgoing = [[p - 1], [p - 2]], [[p - 2, 1]]
    assert sum(u * v[0] for u, v in zip(outgoing[0], incoming)) % p == 0
    with pytest.raises(ModulusTooLarge):
        cohomology(incoming, outgoing, p)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(p=st.sampled_from([2, 3, 5, 7, 65521]), rows=st.integers(0, 9), cols=st.integers(0, 9),
       density=st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_eliminations_match_the_dense_oracle(p, rows, cols, density, seed):
    # rref and nullspace byte-identical to numpy elimination
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(rows, cols)) * (rng.random((rows, cols)) < density)

    def same(x, y):
        return x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)

    (R, rk, piv), (R0, rk0, piv0) = rref(a, p), dense_rref.rref(a, p)
    assert same(R, R0) and rk == rk0 and piv == piv0
    assert rref(to_sparse(a, p), p)[1:] == (rk0, piv0)
    assert same(nullspace(a, p), dense_rref.nullspace(a, p))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=st.sampled_from([2, 3, 5, 7, 65521]), rows=st.integers(0, 12), cols=st.integers(0, 12),
       density=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
def test_rank_with_planted_singletons_matches_the_dense_oracle(p, rows, cols, density, seed):
    # weight-1 rows and columns planted in a random matrix feed the peel;
    # a column planted later may empty a planted row or add to it
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(rows, cols)) * (rng.random((rows, cols)) < density)
    for i in rng.permutation(rows)[: rng.integers(0, rows + 1)]:
        a[i] = 0
        if cols:
            a[i, rng.integers(cols)] = rng.integers(1, p)
    for j in rng.permutation(cols)[: rng.integers(0, cols + 1)]:
        a[:, j] = 0
        if rows:
            a[rng.integers(rows), j] = rng.integers(1, p)
    want = dense_rref.rref(a, p)[1]
    assert rank(a, p) == rank(to_sparse(a, p), p) == want


def kron_reference(blocks, terms, ops, p):
    """Σ coef · E_rc ⊗ ops[o] summed in Python ints, reduced at the end."""
    a, b = np.shape(ops[0])
    out = np.zeros((blocks[0] * a, blocks[1] * b), dtype=object)
    for r, c, coef, o in terms:
        op = np.asarray(ops[o], dtype=object)
        out[r * a : (r + 1) * a, c * b : (c + 1) * b] += int(coef) * op
    return (out % p).astype(np.int64)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=st.sampled_from([2, 3, 65521]), blocks=st.tuples(st.integers(0, 4), st.integers(0, 4)),
       op_shape=st.tuples(st.integers(0, 3), st.integers(0, 3)), n_ops=st.integers(1, 3),
       n_terms=st.integers(0, 12), pile=st.sampled_from([0, 0, 2000]),
       seed=st.integers(0, 2**32 - 1))
def test_kron_sum_branches_agree(p, blocks, op_shape, n_ops, n_terms, pile, seed):
    # terms repeat blocks and carry negative coefficients; a pile of
    # coefficient -1 terms on an op full of p - 1 sums past 2^32 at p = 65521
    rng = np.random.default_rng(seed)
    ops = [rng.integers(0, p, size=op_shape) for _ in range(n_ops)]
    terms = []
    if blocks[0] and blocks[1]:
        terms = [(int(rng.integers(blocks[0])), int(rng.integers(blocks[1])),
                  int(rng.integers(-3 * p, 3 * p + 1)), int(rng.integers(n_ops)))
                 for _ in range(n_terms)]
        terms += terms[: n_terms // 2]
        if pile:
            ops[0] = np.full(op_shape, p - 1)
            terms += [(0, 0, -1, 0)] * pile
    # dense and SparseMatrix ops give the same SparseMatrix
    dense = kron_sum(blocks, terms, ops, p)
    sparse = kron_sum(blocks, terms, [to_sparse(op, p) for op in ops], p)
    want = kron_reference(blocks, terms, ops, p)
    for got in (dense, sparse):
        assert isinstance(got, SparseMatrix) and got.shape == want.shape and got.p == p
        assert np.array_equal(np.asarray(got), want)
    assert all(np.array_equal(getattr(dense, x), getattr(sparse, x))
               for x in ("rows", "cols", "vals", "ptr"))


def test_kron_sum_refuses_a_large_modulus():
    # the dense op on entry; a sparse op cannot be built at that p at all
    p = 65537
    with pytest.raises(ModulusTooLarge):
        kron_sum((1, 1), [(0, 0, 1, 0)], [identity(2)], p)
    with pytest.raises(ModulusTooLarge):
        kron_sum((1, 1), [(0, 0, 1, 0)], [to_sparse(identity(2), p)], p)


def test_dense_cells_bounds_kron_sum_entries_and_rref(monkeypatch):
    # kron_sum counts its terms' entries, each term the nnz of its op:
    # here 3 terms of 2 and one of 1 on a 2 x 3 grid of 2 x 2 blocks
    terms = [(1, 2, 1, 0), (0, 0, 2, 0), (0, 0, -2, 0), (1, 1, 1, 1)]
    ops = [identity(2), [[0, 0], [3, 0]]]
    monkeypatch.setattr(linalg, "DENSE_CELLS", 7)
    for form in (lambda op: op, lambda op: to_sparse(op, 5)):
        got = kron_sum((2, 3), terms, [form(op) for op in ops], 5)
        assert np.array_equal(np.asarray(got), kron_reference((2, 3), terms, ops, 5))
    monkeypatch.setattr(linalg, "DENSE_CELLS", 6)
    for form in (lambda op: op, lambda op: to_sparse(op, 5)):
        with pytest.raises(TooLarge, match="^kron_sum: 7 entries exceed 6$"):
            kron_sum((2, 3), terms, [form(op) for op in ops], 5)
    # rref's dense R, from the shape alone: a 2 x 3 matrix has 6 cells
    monkeypatch.setattr(linalg, "DENSE_CELLS", 6)
    for a in (zeros(2, 3), to_sparse(identity(2)[:, [0, 1, 1]], 5)):
        assert rref(a, 5)[0].shape == (2, 3)
    monkeypatch.setattr(linalg, "DENSE_CELLS", 5)
    for a in (zeros(2, 3), to_sparse(identity(2)[:, [0, 1, 1]], 5)):
        with pytest.raises(TooLarge, match="^rref: a dense 2 x 3 matrix exceeds 5 cells$"):
            rref(a, 5)
    # so every elimination that returns a basis refuses with it
    for call in (nullspace, row_space, lambda a, p: cohomology(None, a, p)):
        with pytest.raises(TooLarge, match="^rref: a dense 2 x 3 matrix exceeds 5 cells$"):
            call(zeros(2, 3), 5)


def test_dense_bound_keeps_witt_p17_adjoint_delta2():
    # restricted delta_2 of Witt p with adjoint coefficients, the largest
    # matrix rref reads on it: (C(p,3) + p^2) p rows, (C(p,2) + p) p columns
    shape = {p: ((math.comb(p, 3) + p * p) * p, (math.comb(p, 2) + p) * p) for p in (17, 19)}
    assert shape == {17: (16473, 2601), 19: (25270, 3610)}
    assert math.prod(shape[17]) <= linalg.DENSE_CELLS < math.prod(shape[19])


def test_rref_is_idempotent_and_row_equivalent():
    p = 5
    (a,) = random_matrices(p, [(4, 7)], "idem")
    R, rk, _ = rref(a, p)
    R2, rk2, _ = rref(R, p)
    assert rk == rk2 and (R == R2).all()
    # same row space
    assert (row_space(a, p) == row_space(R, p)).all()


def test_nullspace_properties():
    for p in (2, 3, 7):
        for a in random_matrices(p, [(4, 6), (6, 4), (3, 3)], "null"):
            ns = nullspace(a, p)
            assert ns.shape[0] == a.shape[1] - rank(a, p)
            if ns.size:
                assert not matmul_mod(a, ns.T, p).any()
            # rows independent
            assert rank(ns, p) == ns.shape[0]


def test_solve_consistent_and_inconsistent():
    # rref([a | b]) has a pivot in b's column exactly when a @ x = b has
    # no solution; otherwise x[pivots] = R[:rank, -1] is one
    p = 7
    a = as_fp([[1, 2, 3], [2, 4, 6]], p)  # rank 1
    b = [1, 2]
    x = read_off(a, b, p)
    assert x is not None and x.tolist() == [1, 0, 0]
    assert (matmul_mod(a, x.reshape(-1, 1), p).ravel() == as_fp(b, p)).all()
    assert rref(np.hstack([a, [[1], [3]]]), p)[2] == [0, 3]
    assert read_off(a, [1, 3], p) is None


def test_matmul_mod_matches_int_reference():
    for p in (2, 3, 251):
        rng = np.random.default_rng(p)
        a = rng.integers(0, p, size=(17, 23), dtype=np.int64)
        b = rng.integers(0, p, size=(23, 11), dtype=np.int64)
        assert (matmul_mod(a, b, p) == (a @ b) % p).all()
    # inner dimension 0
    assert matmul_mod(zeros(3, 0), zeros(0, 2), 5).shape == (3, 2)


def test_mat_pow_mod():
    p = 5
    m = as_fp([[1, 1], [0, 1]], p)
    assert (mat_pow_mod(m, 0, p) == identity(2)).all()
    acc = identity(2)
    for k in range(1, 8):
        acc = matmul_mod(acc, m, p)
        assert (mat_pow_mod(m, k, p) == acc).all()


def test_mat_pow_mod_of_a_stack():
    p = 5
    stack = np.array(random_matrices(p, [(3, 3)] * 4, "pow-stack")).reshape(2, 2, 3, 3)
    for k in (0, 1, 5, 6):
        got = mat_pow_mod(stack, k, p)
        assert got.shape == stack.shape
        for i, j in np.ndindex(2, 2):
            assert np.array_equal(got[i, j], mat_pow_mod(stack[i, j], k, p))


def test_quotient_dim():
    p = 3
    d_in = as_fp([[1], [0], [0]], p)  # image = e0
    d_out = as_fp([[0, 0, 1]], p)  # kernel = e0, e1
    assert cohomology(d_in, d_out, p).dim == 1
    assert cohomology(None, d_out, p).dim == 2
    assert cohomology(d_in, None, p).dim == 2
    with pytest.raises(ValueError):
        cohomology(None, None, p)
    with pytest.raises(ValueError):
        cohomology(as_fp([[1], [0]], p), d_out, p)
    bad_in = as_fp([[0], [0], [1]], p)
    with pytest.raises(NotAComplex):
        cohomology(bad_in, d_out, p)
    assert issubclass(NotAComplex, InvariantFailure)


def test_subspace():
    p = 5
    s = Subspace([[1, 2, 0], [0, 0, 1], [1, 2, 1]], 3, p)
    assert s.dim == 2
    assert s.contains([2, 4, 3])
    assert not s.contains([0, 1, 0])
    t = Subspace([[2, 4, 1], [0, 0, 2]], 3, p)
    assert s == t
    zero = Subspace(zeros(0, 3), 3, p)
    assert zero.dim == 0
    assert zero.contains([0, 0, 0])
    assert not zero.contains([1, 0, 0])
    with pytest.raises(ValueError):
        Subspace([[1, 2]], 3, p)


def test_quotient_representatives():
    p = 3
    d_out = as_fp([[0, 0, 1]], p)  # cycles e0, e1
    d_in = as_fp([[1], [1], [0]], p)  # boundary e0 + e1
    H = cohomology(d_in, d_out, p)
    assert H.dim == 1
    # the representative spans the quotient and avoids the boundary pivot
    assert (H.boundaries == [[1, 1, 0]]).all() and H.boundary_pivots == [0]
    assert (H.reps == [[0, 1, 0]]).all()
    assert (H.cycles == [[1, 0, 0], [0, 1, 0]]).all()
    none = cohomology(as_fp([[1, 0], [0, 1], [0, 0]], p), d_out, p)
    assert none.dim == 0 and none.reps.shape == (0, 3)
    # coordinates: the class of 2 e0 + e1 is -1 times the representative
    assert (H.coordinates([[2, 1, 0], [1, 1, 0]]) == [[2], [0]]).all()
    assert H.coordinates([[0, 0, 1]]) is None


def test_complex_check_matches_the_product():
    # The check reads no product, so compare it with one on random pairs.
    rng = np.random.default_rng(11)
    refused = 0
    for p in (2, 3, 5):
        for trial in range(40):
            inner = rng.integers(0, p, size=(5, 2))
            outer = nullspace(inner.T, p)[: rng.integers(0, 4)]
            if trial % 2:
                outer = (outer + (rng.random(outer.shape) < 0.2)) % p
            if matmul_mod(outer, inner, p).any():
                refused += 1
                with pytest.raises(NotAComplex):
                    cohomology(inner, outer, p)
            else:
                cohomology(inner, outer, p)
    assert refused > 10


def test_representatives_are_canonical():
    # Changing the bases of the outer spaces leaves every output alone.
    p = 5
    rng = np.random.default_rng(7)
    for trial in range(20):
        inner = rng.integers(0, p, size=(8, 3))
        outer = nullspace(inner.T, p)[:2]  # kills the image of inner
        g_in, g_out = rng.integers(0, p, size=(2, 3, 3))
        if rank(g_in, p) < 3 or rank(g_out[:2, :2], p) < 2:
            continue
        H = cohomology(inner, outer, p)
        G = cohomology(matmul_mod(inner, g_in, p), matmul_mod(g_out[:2, :2], outer, p), p)
        assert H.dim == 8 - rank(outer, p) - rank(inner, p), trial
        for a, b in ((H.reps, G.reps), (H.boundaries, G.boundaries), (H.cycles, G.cycles)):
            assert (a == b).all(), trial
        assert not matmul_mod(outer, H.cycles.T, p).any()


def test_sample_vectors_deterministic():
    a = sample_vectors(5, 4, 6, "x")
    b = sample_vectors(5, 4, 6, "x")
    c = sample_vectors(5, 4, 6, "y")
    assert (a == b).all()
    assert a.shape == (6, 4)
    assert a.min() >= 0 and a.max() < 5
    assert not (a == c).all()
