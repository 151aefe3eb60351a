"""Exact linear algebra over GF(p).

Matrices are numpy int64 arrays with entries reduced mod p, acting on
coordinate column vectors; very sparse ones, such as the abelian
resolution's differentials, are kept as a SparseMatrix.  ``rref`` and
``rank`` take either form, read its nonzero entries as row-sorted index
arrays and eliminate on {column: value} row dicts in Python ints, exact
for any p; ``rank`` first peels the pivots of columns and rows with one
nonzero off the index arrays, with no arithmetic at all.  The products
and ``cohomology`` sum in int64 and refuse p from MODULUS_LIMIT up.  A
reduced echelon form is unique, so every basis returned here is
reproducible.  ``cohomology`` turns a pair of composable maps into their
quotient ker/im with canonical representatives, eliminating each map
once.  ``kron_sum`` builds every coboundary and differential of the
package from its list of block terms, dense or sparse by the type of
its ops.
"""

from __future__ import annotations

import hashlib
import heapq

import numpy as np


class UsageError(ValueError):
    """An input or argument the library refuses; the CLI exits 2 on it."""


class InvariantFailure(Exception):
    """A computed object broke an identity the mathematics guarantees.

    Hitting this means a bug upstream, not bad input, so it is never
    an ``assert`` (those vanish under ``python -O``).
    """


class NotAComplex(InvariantFailure):
    """Composite of consecutive differentials is nonzero.

    Raised by cohomology and SparseMatrix.check_composite; hitting
    this means a differential or coboundary matrix is wrong upstream,
    so it is deliberately loud.
    """


def as_fp(a, p: int) -> np.ndarray:
    """Coerce to an int64 array with entries in [0, p)."""
    return np.asarray(a, dtype=np.int64) % p


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


class ModulusTooLarge(UsageError):
    """The modulus is at least MODULUS_LIMIT, where int64 sums stop being exact."""


MODULUS_LIMIT = 1 << 16


def _check_modulus(p: int, label: str) -> None:
    """Refuse p from MODULUS_LIMIT up, where int64 product sums stop being exact."""
    if p >= MODULUS_LIMIT:
        raise ModulusTooLarge(f"{label}: GF({p}) products need p below {MODULUS_LIMIT}")


class SparseMatrix:
    """GF(p) matrix stored as three int64 arrays ``rows``, ``cols``, ``vals``.

    They list the nonzero entries sorted by column, then by row, with
    values in [1, p).  The constructor takes entries in any order, sums
    those at one position mod p and drops zeros, so a matrix has exactly
    one form and equal matrices have equal arrays.  ``np.asarray`` gives
    the dense int64 form, so dense consumers (``matmul_mod``, tests) take
    a SparseMatrix unchanged.  The vectorised products (``@`` and
    ``check_composite``) are refused from MODULUS_LIMIT up.
    """

    __slots__ = ("shape", "rows", "cols", "vals", "p")

    def __init__(self, shape: tuple[int, int], rows, cols, vals, p: int):
        n_rows, n_cols = shape = (int(shape[0]), int(shape[1]))
        rows, cols, vals = (np.asarray(x, dtype=np.int64).reshape(-1) for x in (rows, cols, vals))
        if not rows.size == cols.size == vals.size:
            raise ValueError("rows, cols and vals must have one entry each")
        if rows.size and (min(rows.min(), cols.min()) < 0
                          or rows.max() >= n_rows or cols.max() >= n_cols):
            raise ValueError(f"an entry index lies outside the shape {shape}")
        key = cols * n_rows + rows
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        key, vals = key[first], np.add.reduceat(vals[order] % p, first) % p
        keep = vals != 0
        self.shape = shape
        self.cols, self.rows = np.divmod(key[keep], max(n_rows, 1))
        self.vals = vals[keep]
        self.p = p

    def __array__(self, dtype=None, copy=None):
        out = zeros(*self.shape)
        out[self.rows, self.cols] = self.vals
        return out if dtype is None else out.astype(dtype)

    def __matmul__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        blocks = list(_product_blocks(self, other))
        parts = [np.concatenate(x) for x in zip(*blocks)] if blocks else [(), (), ()]
        return SparseMatrix((self.shape[0], other.shape[1]), *parts, self.p)

    def matvec(self, x: dict[int, int]) -> dict[int, int]:
        """self @ x for x given as {column: value}; zeros are dropped.

        Python-int arithmetic over the columns x names, for short x.
        """
        out: dict[int, int] = {}
        for c, xv in x.items():
            lo, hi = np.searchsorted(self.cols, [c, c + 1]).tolist()
            for r, v in zip(self.rows[lo:hi].tolist(), self.vals[lo:hi].tolist()):
                out[r] = (out.get(r, 0) + v * xv) % self.p
        return {r: v for r, v in out.items() if v}

    def check_composite(self, inner: SparseMatrix, label: str) -> None:
        """Raise NotAComplex unless self @ inner == 0.

        Stops at the first block of the product with a nonzero entry;
        the message names the first column whose image is nonzero.
        """
        for _, cols, _ in _product_blocks(self, inner, label):
            raise NotAComplex(f"{label} is nonzero on column {cols[0]}")


_PRODUCT_BLOCK = 1 << 18


def _product_blocks(a: SparseMatrix, b: SparseMatrix, label: str = "product"):
    """The nonzero entries of a @ b as (rows, cols, vals) arrays, block by block.

    Each entry (k, j, v) of b meets column k of a and gives the products
    (i, j, a_ik·v) (Gustavson, ACM TOMS 4(3), 1978, column by column),
    generated by index arithmetic.  Each product is below p² < 2^32 and
    is reduced mod p before the sums by position.  A block covers whole
    columns of b, in order, and about _PRODUCT_BLOCK products, which
    bounds the memory held at once; only blocks with a nonzero entry are
    yielded, each sorted by column, then row.
    """
    if a.shape[1] != b.shape[0] or a.p != b.p:
        raise ValueError(f"{label}: GF({a.p}) {a.shape} and GF({b.p}) {b.shape} do not compose")
    _check_modulus(a.p, label)
    a_start = np.searchsorted(a.cols, b.rows)  # column b.rows[e] of a starts here
    counts = np.searchsorted(a.cols, b.rows, side="right") - a_start
    b_ptr = np.searchsorted(b.cols, np.arange(b.shape[1] + 1))
    work = np.concatenate(([0], np.cumsum(counts)))[b_ptr]  # products before each column of b
    lo = 0
    while lo < b.shape[1]:
        hi = max(lo + 1, int(np.searchsorted(work, work[lo] + _PRODUCT_BLOCK, side="right")) - 1)
        entries = np.arange(b_ptr[lo], b_ptr[hi])
        run = counts[entries]
        src = np.repeat(entries, run)
        at = a_start[src] + np.arange(src.size) - np.repeat(np.cumsum(run) - run, run)
        block = SparseMatrix((a.shape[0], hi - lo), a.rows[at], b.cols[src] - lo,
                             a.vals[at] * b.vals[src], a.p)
        if block.vals.size:
            yield block.rows, block.cols + lo, block.vals
        lo = hi


def kron_sum(blocks: tuple[int, int], terms, ops: list, p: int):
    """Σ coef · E_rc ⊗ ops[o] over the terms (r, c, coef, o), reduced mod p.

    E_rc is the (r, c) unit matrix of a ``blocks`` grid.  The ops (at
    least one, all of one shape) are the ρ(e_j), 1, ρ(e_j)^a and right
    multiplications by x_i and x_j^(p−1) that make up every coboundary
    and resolution differential of the package; terms may repeat a
    block and carry any integer coefficient.

    The type of the ops picks the branch.  SparseMatrix ops give a
    SparseMatrix, per op broadcasting its terms' block offsets over its
    index arrays: the north-star resolution's 6,250 × 12,500 d₃ cannot
    be dense.  Array ops give an array, one block add per term; each
    adds below p² < 2^32, so one reduction at the end is exact.  The
    median job of the jacobson-cohomology benchmark takes about 1 ms and
    builds up to five tiny coboundaries, where the sparse branch took
    0.08-0.24 ms a build against 0.01-0.05 ms dense (Heisenberg p=3 and
    solvable p=5, adjoint; 2-core host, Python 3.11).  Refused from
    MODULUS_LIMIT up.
    """
    _check_modulus(p, "kron_sum")
    R, C = blocks
    if isinstance(ops[0], SparseMatrix):
        a, b = ops[0].shape
        terms = np.array(terms, dtype=np.int64).reshape(-1, 4)
        parts = []
        for o, op in enumerate(ops):
            r, c, cf = terms[terms[:, 3] == o, :3].T
            parts.append(((r[:, None] * a + op.rows).ravel(), (c[:, None] * b + op.cols).ravel(),
                          ((cf % p)[:, None] * op.vals).ravel()))
        return SparseMatrix((R * a, C * b), *(np.concatenate(x) for x in zip(*parts)), p)
    ops = as_fp(ops, p)
    a, b = ops.shape[1:]
    out = zeros(R * a, C * b)
    for r, c, coef, o in terms:
        out[r * a : (r + 1) * a, c * b : (c + 1) * b] += coef % p * ops[o]
    return out % p


def _nonzeros(a, p: int):
    """Shape and the nonzero entries of a as int64 arrays (rows, cols, vals),
    sorted by row, then column, with vals in [1, p)."""
    if isinstance(a, SparseMatrix):
        order = np.argsort(a.rows, kind="stable")  # by row, then column
        r, c, v = a.rows[order], a.cols[order], a.vals[order] % p
        keep = v != 0
        return a.shape, r[keep], c[keep], v[keep]
    A = as_fp(a, p)
    if A.ndim != 2:
        raise ValueError("expected a 2-d array")
    r, c = np.nonzero(A)
    return A.shape, r, c, A[r, c]


def _row_dicts(shape, r, c, v) -> dict[int, dict[int, int]]:
    """The row-sorted entries as {col: value} dicts keyed by row, in order.

    Each column is one shared int object, so the dict and set lookups of
    the eliminations hit on identity."""
    bounds = [0, *(np.flatnonzero(r[1:] != r[:-1]) + 1).tolist(), r.size]
    r, c, v = r.tolist(), np.arange(shape[1]).astype(object)[c].tolist(), v.tolist()
    return {r[s]: dict(zip(c[s:e], v[s:e])) for s, e in zip(bounds, bounds[1:]) if s < e}


_PEEL_YIELD = 64  # see _peel


def _peel(shape, r, c, v):
    """Pivots of singleton columns and rows, taken in rounds, and the
    entries left.

    A round takes every column with one entry as a pivot on its row and
    drops those rows, or else every row with one entry as a pivot on its
    column and drops those columns; each distinct row (column) dropped
    adds 1 to the rank (see ``rank``); no value is read.  Rounds stop
    when none is left, or after one that found fewer pivots than
    1/_PEEL_YIELD of the entries it scanned, so all rounds together scan
    about _PEEL_YIELD times the input's entries: an 8000 x 8000
    bidiagonal chain, one pivot a round, took 568 ms peeled to the end
    against 43 ms in Markowitz.
    """
    peeled = 0
    while r.size:
        single, pivot_on, n = np.bincount(c, minlength=shape[1])[c] == 1, r, shape[0]
        if not single.any():
            single, pivot_on, n = np.bincount(r, minlength=shape[0])[r] == 1, c, shape[1]
            if not single.any():
                break
        hit = np.zeros(n, dtype=bool)
        hit[pivot_on[single]] = True
        found = int(np.count_nonzero(hit))
        keep = ~hit[pivot_on]
        peeled, r, c, v = peeled + found, r[keep], c[keep], v[keep]
        if found * _PEEL_YIELD < keep.size:
            break
    return peeled, r, c, v


def _subtract(row: dict[int, int], f: int, other: dict[int, int], p: int) -> None:
    """row -= f * other in place, dropping the entries that vanish."""
    for j, v in other.items():
        w = (row.get(j, 0) - f * v) % p
        if w:
            row[j] = w
        else:
            del row[j]


def rref(a, p: int):
    """Reduced row echelon form over GF(p).

    Rows join a basis keyed by leading column one at a time, and the
    basis stays reduced: a row first loses its entries on the basis
    pivots, and a nonzero remainder, scaled to lead with 1, clears its
    leading column from the basis rows before it joins.  Python-int
    arithmetic, so no product overflows whatever the size of p.

    Args:
        a: matrix-like or SparseMatrix, any shape, zero rows or columns too.
        p: prime modulus.

    Returns:
        (R, rank, pivots): the reduced form as a dense array of a's
        shape, its rank and the strictly increasing list of pivot columns.
    """
    shape, *entries = _nonzeros(a, p)
    rows = _row_dicts(shape, *entries)
    basis: dict[int, dict[int, int]] = {}
    for row in rows.values():
        for k in [j for j in row if j in basis]:
            _subtract(row, row[k], basis[k], p)
        if row:
            lead = min(row)
            inv = pow(row[lead], -1, p)
            row = {j: v * inv % p for j, v in row.items()}
            for other in basis.values():
                if lead in other:
                    _subtract(other, other[lead], row, p)
            basis[lead] = row
    pivots = sorted(basis)
    R = zeros(*shape)
    R[[i for i, c in enumerate(pivots) for _ in basis[c]],
      [j for c in pivots for j in basis[c]]] = [v for c in pivots for v in basis[c].values()]
    return R, len(pivots), pivots


def rank(a, p: int) -> int:
    """Rank over GF(p) of a dense matrix or a SparseMatrix.

    First ``_peel`` counts, in vectorised rounds on the index arrays, the
    pivots of columns and rows with one nonzero: a column whose only
    nonzero is in row i puts e_i in the column space, so rank A = 1 +
    rank(A without row i), and likewise for rows (singleton removal;
    LaMacchia and Odlyzko, CRYPTO '90).  Markowitz spent a Python step on
    each: on the north-star ``rescoh resolve`` (n=4, p=5, --kmax 2, zero
    table) the peel takes all 624 pivots of d1, 596 of d2's 1876 and 2454
    of d3's 4374, and that job's ranks fell from 47 to 24 ms, those of the
    nine distinct ``resolve`` benchmark jobs from 101 to 67 ms (best of 9,
    interleaved; 2-core host, Python 3.11).

    Markowitz then eliminates what is left on row dicts with Python-int
    arithmetic, so no product overflows whatever the size of p.  Each
    step pivots on a row of least weight and, within it, on the column
    held by the fewest rows, which keeps fill-in low on the sparse
    resolution differentials.  Only the pivot count is needed, so a
    pivot row is dropped once it has cleared its column.

    The column rule is not rref's on purpose.  On the three
    differentials of ``rescoh resolve`` for n=4, p=5, --kmax 2 with a
    dense p-operator, leftmost-column pivots took 1.2 s and rref's row
    by row insertion 29 s, against 0.27 s here; the other way round, the
    holder sets peaked 1.8 MiB above rref on the 2575 x 25 derivations
    system of Witt p=5 (tracemalloc; 2-core host, Python 3.11).
    """
    shape, *entries = _nonzeros(a, p)
    r, *entries = _peel(shape, *entries)
    rows = _row_dicts(shape, *entries)
    holders: dict[int, set[int]] = {}
    for i, row in rows.items():
        for c in row:
            holders.setdefault(c, set()).add(i)
    heap = [(len(row), i) for i, row in rows.items()]
    heapq.heapify(heap)
    while heap:
        weight, i = heapq.heappop(heap)
        row = rows.get(i)
        if row is None or len(row) != weight:
            continue  # stale heap entry
        del rows[i]
        for c in row:
            holders[c].discard(i)
        c = min(row, key=lambda j: len(holders[j]))
        inv = pow(row[c], -1, p)
        for k in list(holders[c]):
            other = rows[k]
            f = other[c] * inv % p
            for j, v in row.items():
                w = (other.get(j, 0) - f * v) % p
                if w:
                    if j not in other:
                        holders[j].add(k)
                    other[j] = w
                elif j in other:
                    del other[j]
                    holders[j].discard(k)
            if other:
                heapq.heappush(heap, (len(other), k))
            else:
                del rows[k]
        r += 1
    return r


def nullspace(a, p: int) -> np.ndarray:
    """Basis of {x : a @ x = 0}, one vector per row, in echelon form.

    The basis vector attached to free column f has a 1 in position f and
    zeros in every other free column, which makes the row set reduced
    echelon after sorting by f.
    """
    R, rk, pivots = rref(a, p)
    free = sorted(set(range(R.shape[1])).difference(pivots))
    basis = zeros(len(free), R.shape[1])
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-R[:rk, free].T) % p
    return basis


def row_space(a, p: int) -> np.ndarray:
    """Nonzero rows of the reduced echelon form."""
    R, rk, _ = rref(a, p)
    return R[:rk]


def solve(a, b, p: int):
    """One exact solution of a @ x = b, or None if inconsistent.

    The particular solution has zeros in all free coordinates (the
    deterministic-pivot choice).
    """
    a = as_fp(a, p)
    b = as_fp(b, p).reshape(-1)
    if a.shape[0] != b.shape[0]:
        raise ValueError("incompatible shapes")
    R, rk, pivots = rref(np.hstack([a, b.reshape(-1, 1)]), p)
    if pivots and pivots[-1] == a.shape[1]:
        return None
    x = np.zeros(a.shape[1], dtype=np.int64)
    x[pivots] = R[:rk, -1]
    return x


def matmul_mod(a, b, p: int) -> np.ndarray:
    """(a @ b) % p, routed through float64 BLAS when exact.

    Entries lie in [0, p), so every dot product is bounded by
    (p-1)^2 * inner; below 2**53 the float64 product is exact and an
    order of magnitude faster than int64 on big matrices.  Refused from
    MODULUS_LIMIT up.
    """
    _check_modulus(p, "matmul_mod")
    a = as_fp(a, p)
    b = as_fp(b, p)
    inner = a.shape[1]
    if inner and (p - 1) * (p - 1) * inner < 2**53:
        prod = np.matmul(a.astype(np.float64), b.astype(np.float64))
        return np.mod(prod, p).astype(np.int64)
    return (a @ b) % p


def mat_pow_mod(m, k: int, p: int) -> np.ndarray:
    """m**k with a reduction mod p after every product; refused from MODULUS_LIMIT up."""
    _check_modulus(p, "mat_pow_mod")
    m = as_fp(m, p)
    result = identity(m.shape[0])
    base = m.copy()
    while k:
        if k & 1:
            result = (result @ base) % p
        base = (base @ base) % p
        k >>= 1
    return result


class Subspace:
    """Row span of a matrix, stored in reduced echelon form."""

    __slots__ = ("ambient_dim", "basis", "p")

    def __init__(self, vectors, ambient_dim: int, p: int):
        vectors = as_fp(vectors, p)
        if vectors.size == 0:
            vectors = zeros(0, ambient_dim)
        if vectors.ndim == 1:
            vectors = vectors.reshape(1, -1)
        if vectors.shape[1] != ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        self.ambient_dim = ambient_dim
        self.p = p
        self.basis = row_space(vectors, p)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains(self, v) -> bool:
        v = as_fp(v, self.p)
        if self.dim == 0:
            return not v.any()
        stacked = np.vstack([self.basis, v.reshape(1, -1)])
        return rank(stacked, self.p) == self.dim

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.p == other.p
            and self.ambient_dim == other.ambient_dim
            and self.basis.shape == other.basis.shape
            and bool((self.basis == other.basis).all())
        )

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, p={self.p})"


class Cohomology:
    """ker(outgoing) / im(incoming) over GF(p), as computed by ``cohomology``.

    ``cycles`` is the nullspace basis of the outgoing map, ``boundaries``
    the reduced echelon basis of the incoming map's image (one vector per
    row) with pivot columns ``boundary_pivots``.  ``reps`` is the reduced
    echelon basis of the cycles that vanish on those pivot columns.  That
    subspace complements the boundaries among the cycles and involves no
    choice, so the representatives are canonical.
    """

    __slots__ = ("cycles", "boundaries", "boundary_pivots", "reps", "p")

    def __init__(self, cycles, boundaries, boundary_pivots, reps, p: int):
        self.cycles = cycles
        self.boundaries = boundaries
        self.boundary_pivots = boundary_pivots
        self.reps = reps
        self.p = p

    @property
    def dim(self) -> int:
        return self.reps.shape[0]

    def coordinates(self, z) -> np.ndarray | None:
        """Class coordinates of each row of z in the ``reps`` basis, one
        row each; None if some row is not a cycle.

        A cycle's boundary part is fixed by its entries on the boundary
        pivot columns.  What is left lies in the span of ``reps`` and is
        read off their pivot columns.  Both bases are reduced already, so
        this takes no further elimination.
        """
        p = self.p
        z = as_fp(z, p)
        rest = (z - z[:, self.boundary_pivots] @ self.boundaries) % p
        coords = rest[:, [int(np.flatnonzero(r)[0]) for r in self.reps]]
        if ((rest - coords @ self.reps) % p).any():
            return None
        return coords


def cohomology(incoming, outgoing, p: int) -> Cohomology:
    """ker(outgoing) / im(incoming), after checking the complex.

    ``incoming`` maps into the middle space (its image is the boundary
    subspace) and ``outgoing`` maps out of it.  ``None`` stands for a
    zero map on either side.  One elimination of the outgoing map gives
    the cycles and one of the incoming map's transpose the boundaries;
    stripping each cycle of its boundary part and reducing the result
    gives the representatives.

    Stripping kills exactly the cycles in the boundary span, so the rank
    falls by the number of boundaries iff every boundary is a cycle, that
    is iff outgoing @ incoming = 0: the check needs no matrix product.

    Raises:
        NotAComplex: if outgoing @ incoming != 0.
        ModulusTooLarge: if p >= MODULUS_LIMIT.
    """
    _check_modulus(p, "cohomology")
    if outgoing is None and incoming is None:
        raise ValueError("need at least one map to fix the middle dimension")
    # The maps are only read: each elimination reduces its own copy.
    mid = np.shape(outgoing)[1] if outgoing is not None else np.shape(incoming)[0]
    if incoming is None:
        boundaries, pivots = zeros(0, mid), []
    else:
        if np.shape(incoming)[0] != mid:
            raise ValueError("incoming/outgoing dimensions disagree")
        R, rk, pivots = rref(np.transpose(incoming), p)
        boundaries = R[:rk]
    cycles = nullspace(outgoing, p) if outgoing is not None else identity(mid)
    stripped = (cycles - cycles[:, pivots] @ boundaries) % p
    R, dim, _ = rref(stripped, p)
    if dim != cycles.shape[0] - len(pivots):
        raise NotAComplex("outgoing @ incoming is nonzero: a boundary is not a cycle")
    return Cohomology(cycles, boundaries, pivots, R[:dim], p)


def sample_vectors(p: int, dim: int, count: int, tag: str) -> np.ndarray:
    """Deterministic pseudo-random vectors over GF(p).

    Seeded from (p, dim, count, tag) so failures reproduce exactly.
    """
    raw = f"{p}:{dim}:{count}:{tag}".encode()
    seed = int.from_bytes(hashlib.sha256(raw).digest()[:8], "big")
    rng = np.random.default_rng(seed)
    return rng.integers(0, p, size=(count, dim), dtype=np.int64)
