import random

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from rescoh import linalg
from rescoh.linalg import (
    MODULUS_LIMIT,
    InvariantFailure,
    ModulusTooLarge,
    NotAComplex,
    SparseMatrix,
    Subspace,
    as_fp,
    cohomology,
    identity,
    kron_sum,
    mat_pow_mod,
    matmul_mod,
    nullspace,
    rank,
    row_space,
    rref,
    sample_vectors,
    solve,
    zeros,
)

import dense_rref
import markowitz


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


def column_dict(a, c):
    return {int(r): int(a[r, c]) for r in np.nonzero(a[:, c])[0]}


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


def test_sparse_matrix_matvec_and_composite_check():
    p = 5
    rng = np.random.default_rng(7)
    a = rng.integers(0, p, size=(4, 6)) * (rng.random((4, 6)) < 0.5)
    b = rng.integers(0, p, size=(6, 3)) * (rng.random((6, 3)) < 0.5)
    sa, sb = to_sparse(a, p), to_sparse(b, p)
    for c in range(3):
        want = (a @ b[:, c]) % p
        assert sa.matvec(column_dict(b, c)) == {r: int(v) for r, v in enumerate(want) if v}
    # incoming maps into the kernel of d_out, so the composite vanishes
    d_out = to_sparse([[0, 0, 1]], 3)
    d_in = to_sparse([[1, 2], [2, 0], [0, 0]], 3)
    d_out.check_composite(d_in, "ok")
    with pytest.raises(NotAComplex, match="bad is nonzero on column 1"):
        d_out.check_composite(to_sparse([[1, 0], [0, 0], [0, 2]], 3), "bad")
    with pytest.raises(ValueError):
        d_out.check_composite(sa, "shapes")
    assert (matmul_mod(sa, sb, p) == (a @ b) % p).all()


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
    big = SparseMatrix((1, 1), [0], [0], [1], MODULUS_LIMIT + 1)
    with pytest.raises(ModulusTooLarge):
        big.check_composite(big, "big")


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


def test_rank_exact_near_the_int64_bound():
    # Entries near 2**32 make every product in elimination exceed int64.
    p = 4294967291
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
        x = solve(a, b, p).tolist()
        assert [sum(u * v for u, v in zip(row, x)) % p for row in prod] == b
        if rows > r:
            assert solve(a, [int(i == r) for i in range(rows)], p) is None
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


def test_products_refuse_a_large_modulus():
    # (p-1)^2 = 1 mod p, but the int64 product wraps and gives 4294967267
    p = 4294967291
    with pytest.raises(ModulusTooLarge):
        matmul_mod([[p - 1]], [[p - 1]], p)
    with pytest.raises(ModulusTooLarge):
        mat_pow_mod([[p - 1]], 2, p)


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
    # rref, nullspace and solve byte-identical to numpy elimination
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(rows, cols)) * (rng.random((rows, cols)) < density)

    def same(x, y):
        return x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)

    (R, rk, piv), (R0, rk0, piv0) = rref(a, p), dense_rref.rref(a, p)
    assert same(R, R0) and rk == rk0 and piv == piv0
    assert rref(to_sparse(a, p), p)[1:] == (rk0, piv0)
    assert same(nullspace(a, p), dense_rref.nullspace(a, p))
    x0 = rng.integers(0, p, size=cols)
    for b in ((a @ x0) % p, rng.integers(0, p, size=rows)):
        x, want = solve(a, b, p), dense_rref.solve(a, b, p)
        assert (x is None and want is None) or same(x, want)


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
    dense = kron_sum(blocks, terms, ops, p)
    sparse = kron_sum(blocks, terms, [to_sparse(op, p) for op in ops], p)
    want = kron_reference(blocks, terms, ops, p)
    assert isinstance(sparse, SparseMatrix) and sparse.shape == want.shape
    assert dense.dtype == want.dtype and np.array_equal(dense, want)
    assert np.array_equal(np.asarray(sparse), want)


def test_kron_sum_refuses_a_large_modulus():
    p = 65537
    for ops in ([identity(2)], [to_sparse(identity(2), p)]):
        with pytest.raises(ModulusTooLarge):
            kron_sum((1, 1), [(0, 0, 1, 0)], ops, p)


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
    p = 7
    a = as_fp([[1, 2, 3], [2, 4, 6]], p)  # rank 1
    b = [1, 2]
    x = solve(a, b, p)
    assert x is not None
    assert (matmul_mod(a, x.reshape(-1, 1), p).ravel() == as_fp(b, p)).all()
    assert solve(a, [1, 3], p) is None
    with pytest.raises(ValueError):
        solve(a, [1, 2, 3], p)


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
