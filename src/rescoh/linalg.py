"""Exact linear algebra over GF(p).

Matrices are numpy int64 arrays with entries reduced mod p, acting on
coordinate column vectors; the maps of every complex are kept as a
SparseMatrix.  ``rref`` and ``rank`` read either form as nonzero index
arrays: ``rref`` eliminates on {column: value} row dicts; ``rank`` peels
the pivots of columns and rows with one nonzero, reduces the small
connected components of the rest together in int64 numpy stacks and
leaves the big ones to the row dicts, which alone need the entries
sorted by row.  Every kernel is int64 and refuses p from MODULUS_LIMIT
up: the eliminations where they read their input, a SparseMatrix at
construction, ``mat_pow_mod`` and ``kron_sum``, which read raw arrays,
on entry.  A reduced echelon form is unique, so every basis returned
here is reproducible.  ``cohomology`` turns a pair of composable maps into
their quotient ker/im with canonical representatives, eliminating each
map once; a ``Complex``, which every complex of the package is, builds,
ranks and checks each SparseMatrix map once; a dimension alone is two
ranks.  ``kron_sum`` builds every coboundary and differential of the
package from its list of block terms, as a SparseMatrix whatever the
type of its ops.  One size bound, DENSE_CELLS, caps the entries
``kron_sum`` makes and the dense reduced form ``rref`` returns.  The
error bases live here, with the one check form (``_check``,
``_report``, ``_failing``) that every verifier's report takes.
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

    Raised by cohomology and SparseMatrix.check_composite, which
    Complex.check (so Complex.dim) runs once a pair; hitting this means
    a differential or coboundary matrix is wrong upstream, so it is loud.
    """


class TooLarge(UsageError):
    """An array or a matrix would exceed its size bound."""


def _check(name: str, search) -> dict:
    """A named check: it passes when the lazy counterexample search yields
    nothing, and otherwise records the first counterexample, drawn alone."""
    cx = next(iter(search), None)
    return {"name": name, "pass": cx is None, "counterexample": cx}


def _report(checks: list[dict], **facts) -> dict:
    """A report on checks: passed when all passed, the facts between the two."""
    return {"pass": all(ch["pass"] for ch in checks), **facts, "checks": checks}


def _failing(report: dict):
    """The first failing check of a report, or None."""
    return next((ch for ch in report["checks"] if not ch["pass"]), None)


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
        raise ModulusTooLarge(f"{label}: modulus {p} is not below {MODULUS_LIMIT}")


def _keyed(n_rows: int, rows, cols, vals, p: int):
    """The distinct keys col·n_rows + row of the entries, increasing, and
    their values' sums, reduced mod p once, zero sums kept: exact for
    values below 2^32 in size.  Only repeated keys cost a sum."""
    key = cols * n_rows + rows
    order = np.argsort(key, kind="stable")
    key, vals = key[order], vals[order]
    step = key[1:] != key[:-1]
    if not step.all():  # some key repeats
        first = np.flatnonzero(np.concatenate(([True], step)))
        key, vals = key[first], np.add.reduceat(vals, first)
    return key, vals % p


class SparseMatrix:
    """GF(p) matrix stored as three int64 arrays ``rows``, ``cols``, ``vals``.

    They list the nonzero entries sorted by column, then by row, with
    values in [1, p); column c holds the entries ``ptr[c]:ptr[c + 1]``
    (compressed sparse column pointers), all read-only.  The constructor
    takes entries in any order, sums those at one position mod p and
    drops zeros, so a matrix has one form and equal matrices equal arrays.
    ``np.asarray`` gives the dense int64 form, which no computation of
    the package takes.  A p from MODULUS_LIMIT up is refused here, so
    ``@`` and ``check_composite`` sum in int64 exactly.
    """

    __slots__ = ("shape", "rows", "cols", "vals", "ptr", "p")

    def __init__(self, shape: tuple[int, int], rows, cols, vals, p: int):
        _check_modulus(p, "SparseMatrix")
        n_rows, n_cols = shape = (int(shape[0]), int(shape[1]))
        rows, cols, vals = (np.asarray(x, dtype=np.int64).reshape(-1) for x in (rows, cols, vals))
        if not rows.size == cols.size == vals.size:
            raise ValueError("rows, cols and vals must have one entry each")
        if rows.size and (min(rows.min(), cols.min()) < 0
                          or rows.max() >= n_rows or cols.max() >= n_cols):
            raise ValueError(f"an entry index lies outside the shape {shape}")
        if vals.size and not -(1 << 32) < vals.min() <= vals.max() < 1 << 32:
            vals = vals % p  # small enough for _keyed's exact sums
        self.shape, self.p = shape, p
        key, vals = _keyed(n_rows, rows, cols, vals, p)
        if not (keep := vals != 0).all():
            key, vals = key[keep], vals[keep]
        (self.cols, self.rows), self.vals = np.divmod(key, n_rows), vals  # no entry if n_rows is 0
        self.ptr = np.bincount(self.cols + 1, minlength=n_cols + 1).cumsum()
        for x in (self.rows, self.cols, self.vals, self.ptr):
            x.flags.writeable = False

    def __array__(self, dtype=None, copy=None):
        out = zeros(*self.shape)
        out[self.rows, self.cols] = self.vals
        return out if dtype is None else out.astype(dtype)

    @property
    def T(self) -> SparseMatrix:
        """The transpose, at the same p."""
        return SparseMatrix(self.shape[::-1], self.cols, self.rows, self.vals, self.p)

    def __matmul__(self, other):
        """A SparseMatrix for a SparseMatrix; for a 1-d or 2-d array x, the
        int64 array self @ x reduced mod p.  With x reduced first, each
        product is below p² < 2^32, summed by row in int64 exactly; an x
        of another length than the column count is refused (ValueError)."""
        if isinstance(other, SparseMatrix):
            blocks = list(_product_blocks(self, other))
            key, vals = map(np.concatenate, zip(*blocks)) if blocks else ((), ())
            cols, rows = np.divmod(np.asarray(key, dtype=np.int64), self.shape[0])
            return SparseMatrix((self.shape[0], other.shape[1]), rows, cols, vals, self.p)
        x = as_fp(other, self.p)
        if x.ndim not in (1, 2) or x.shape[0] != self.shape[1]:
            raise ValueError(f"@: a {self.shape} matrix and a {x.shape} array do not compose")
        out = np.zeros(self.shape[:1] + x.shape[1:], dtype=np.int64)
        np.add.at(out, self.rows, self.vals.reshape((-1,) + (1,) * (x.ndim - 1)) * x[self.cols])
        return out % self.p

    def check_composite(self, inner: SparseMatrix, label: str) -> None:
        """Raise NotAComplex unless self @ inner == 0.

        Tests each block's sums by position and stops at the first block
        with a nonzero one; the message names the first column so hit.
        """
        for key, sums in _product_blocks(self, inner, label):
            if sums.any():
                col = key[np.flatnonzero(sums)[0]] // self.shape[0]
                raise NotAComplex(f"{label} is nonzero on column {col}")


_PRODUCT_BLOCK = 1 << 18


def _product_blocks(a: SparseMatrix, b: SparseMatrix, label: str = "product"):
    """a @ b block by block, as ``_keyed`` gives it: each block's sorted
    keys j·rows(a) + i and the sums mod p at them, zeros kept.

    Each entry (k, j, v) of b meets column k of a and gives the products
    (i, j, a_ik·v) (Gustavson, ACM TOMS 4(3), 1978, column by column),
    generated by index arithmetic.  Each product is below p² < 2^32, so
    the sums by position are exact before their one reduction mod p.  A
    block covers whole columns of b, in order, and about _PRODUCT_BLOCK
    products, which bounds the memory held at once.  ``@`` splits the
    keys into rows and columns; ``check_composite`` only tests the sums.
    """
    if a.shape[1] != b.shape[0] or a.p != b.p:
        raise ValueError(f"{label}: GF({a.p}) {a.shape} and GF({b.p}) {b.shape} do not compose")
    a_start = a.ptr[b.rows]  # column b.rows[e] of a starts here
    counts = a.ptr[b.rows + 1] - a_start
    before = np.concatenate(([0], np.cumsum(counts)))  # products before each entry of b
    work = before[b.ptr]  # and before each column of b
    lo = 0
    while lo < b.shape[1]:
        hi = max(lo + 1, int(np.searchsorted(work, work[lo] + _PRODUCT_BLOCK, side="right")) - 1)
        span = slice(b.ptr[lo], b.ptr[hi])  # the entries of b's columns lo..hi-1
        run = counts[span]
        at = np.repeat(a_start[span] - before[span], run) + np.arange(work[lo], work[hi])
        yield _keyed(a.shape[0], a.rows[at], np.repeat(b.cols[span], run),
                     a.vals[at] * np.repeat(b.vals[span], run), a.p)
        lo = hi


DENSE_CELLS = 1 << 26  # kron_sum's entries, rref's cells: Witt's adjoint restricted δ₂
# fits at p=17 (16,473 x 2,601 = 42.8 M cells), not at p=19 (25,270 x 3,610 = 91.2 M)
CHECK_CELLS = 1 << 20  # 8 MiB of int64 a stack: Witt p=11's Hom(ad, ad) pairs (0.8 M cells) fit


def _failing_items(count: int, cells: int, residues):
    """The items of range(count) whose residues are not all zero, in
    order and lazily: residues(s) stacks those of the items in the slice
    s, ``cells`` int64 cells an item, for at most CHECK_CELLS cells at a
    time (one item at least)."""
    step = max(1, CHECK_CELLS // max(1, cells))
    for start in range(0, count, step):
        bad = residues(slice(start, start + step))
        yield from (start + np.flatnonzero(bad.reshape(len(bad), -1).any(axis=1))).tolist()


def kron_sum(blocks: tuple[int, int], terms, ops: list, p: int) -> SparseMatrix:
    """Σ coef · E_rc ⊗ ops[o] over the terms (r, c, coef, o), as a SparseMatrix.

    E_rc is the (r, c) unit matrix of a ``blocks`` grid.  The ops (at
    least one, all of one shape, arrays or SparseMatrix objects) are the
    ρ(e_j), 1, ρ(e_j)^a and right multiplications by x_i and x_j^(p−1)
    that make up every coboundary and resolution differential of the
    package; terms may repeat a block and carry any integer coefficient.

    The ops' entries are read once, an array stack's by one ``np.nonzero``;
    each term gathers those of its op by index arithmetic, its block offset
    and coefficient repeated over them, and the constructor sums them.
    Refused from MODULUS_LIMIT up, and with TooLarge when the terms hold
    more than DENSE_CELLS entries together, before any index array is made.
    """
    _check_modulus(p, "kron_sum")
    if isinstance(ops[0], SparseMatrix):
        (a, b), sizes = ops[0].shape, np.array([op.vals.size for op in ops], dtype=np.int64)
        er, ec, ev = (np.concatenate([getattr(op, x) for op in ops])
                      for x in ("rows", "cols", "vals"))
    else:
        stack = as_fp(ops, p)
        a, b = stack.shape[1:]
        op, er, ec = np.nonzero(stack)  # by op, then row
        sizes, ev = np.bincount(op, minlength=len(stack)), stack[op, er, ec]
    r, c, cf, o = np.array(terms, dtype=np.int64).reshape(-1, 4).T
    count = sizes[o]
    if (total := int(count.sum())) > DENSE_CELLS:
        raise TooLarge(f"kron_sum: {total} entries exceed {DENSE_CELLS}")
    at = np.repeat(np.cumsum(sizes)[o] - np.cumsum(count), count) + np.arange(total)
    return SparseMatrix((blocks[0] * a, blocks[1] * b), np.repeat(r * a, count) + er[at],
                        np.repeat(c * b, count) + ec[at], np.repeat(cf % p, count) * ev[at], p)


def _nonzeros(a, p: int):
    """Shape and the nonzero entries of a as int64 arrays (rows, cols, vals),
    with vals in [1, p): a SparseMatrix's sorted by column, then row (its
    own arrays at its own p), an array's sorted by row, then column.  Every
    elimination starts here, so this refuses p from MODULUS_LIMIT up."""
    _check_modulus(p, "elimination")
    if isinstance(a, SparseMatrix):
        if a.p != p:
            a = SparseMatrix(a.shape, a.rows, a.cols, a.vals, p)
        return a.shape, a.rows, a.cols, a.vals
    A = as_fp(a, p)
    if A.ndim != 2:
        raise ValueError("expected a 2-d array")
    r, c = np.nonzero(A)
    return A.shape, r, c, A[r, c]


def _row_dicts(shape, r, c, v) -> dict[int, dict[int, int]]:
    """The entries, in either order of ``_nonzeros``, as {col: value}
    dicts keyed by row, all in increasing order.

    Each column is one shared int object, so the dict and set lookups of
    the eliminations hit on identity."""
    order = np.argsort(r, kind="stable")
    r, c, v = r[order], c[order], v[order]
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


def _components(shape, r, c):
    """(comp, lr, lc, nr, nc): each entry (i, j)'s component in the graph
    joining row i to column j, the places of i and j in it, and each
    component's row and column counts.  Only the rows and columns with an
    entry are nodes, numbered in order, rows first.  Rounds hook the
    larger root label across each entry onto the least, then pointer
    jumping makes every label a root again (2-3 rounds on the ``resolve``
    differentials, 9 on a permuted 8000-long chain).  A node's key is
    twice its root plus 1 for a column, so one stable sort of the keys
    lists each component's rows, then its columns, and one count of them
    gives the run sizes."""
    c = c + shape[0]  # column j is node shape[0] + j before renumbering
    active = np.zeros(shape[0] + shape[1], dtype=bool)
    active[r] = active[c] = True
    present = active.nonzero()[0]
    label = np.arange(present.size)
    node = np.empty(active.size, dtype=np.int64)
    node[present] = label
    r, c = node[r], node[c]
    while True:
        lr, lc = label[r], label[c]
        if (lr == lc).all():
            break
        np.minimum.at(label, np.maximum(lr, lc), np.minimum(lr, lc))
        while True:
            jumped = label[label]
            if (jumped == label).all():
                break
            label = jumped
    key = 2 * label
    key[np.searchsorted(present, shape[0]):] += 1
    size = np.bincount(key)
    run = size.nonzero()[0]  # every component has rows and columns: two runs each
    size = size[run]
    nodes = np.argsort(key, kind="stable")
    place = np.empty(label.size, dtype=np.int64)
    place[nodes] = np.arange(nodes.size) - np.repeat(np.cumsum(size) - size, size)
    comp = np.empty(2 * label.size, dtype=np.int64)
    comp[run] = np.arange(run.size) // 2
    comp = comp[key]
    return comp[r], place[r], place[c], size[::2], size[1::2]


_STACK_CUT = 64  # see _stacked_rank


def _stacked_rank(shape, r, c, v, p):
    """Rank of the components of at most _STACK_CUT rows plus columns,
    eliminated together, and the entries of the other components.

    A small component, renumbered and turned to have no more columns than
    rows, is one matrix of the dense stack for its power of two of
    columns, held as A[matrix, column, row] so that a step multiplies
    contiguous rows.  The fraction-free step reduces column 0, col =
    A[:, 0, :] mod p, takes its argmax (a nonzero entry, if any) as pivot
    row and sets A ← piv · A[:, 1:, :] − A[:, 1:, pivot row] ⊗ col: the
    pivot row clears itself and column 0 is dropped.  The nonzero pivots
    count the rank; piv is 1 only where a column is empty, and the last
    column is only counted.  With |A| ≤ B the step
    gives at most 2(p − 1)B, from products below (p − 1)B; the stack is
    reduced mod p, back to B = p − 1, only when (p − 1)B reaches 2^62
    and the next step could leave int64.  So it is reduced every 62
    steps at p = 2, 20 at p = 5, 12 at p = 13, 3 up to p = 32749 and 2
    from there to MODULUS_LIMIT.  ``resolve`` components have at most 49 rows plus columns; past
    64 a lone sparse one is cheaper in Markowitz (an n x n cycle took 1.1
    ms stacked against 0.4 at n=32, 10.3 against 1.1 at n=128; 2-core host).
    """
    if not r.size:
        return 0, r, c, v
    comp, lr, lc, nr, nc = _components(shape, r, c)
    tall, wide = np.maximum(nr, nc), np.minimum(nr, nc)
    stack = np.where(nr + nc > _STACK_CUT, -1, np.frexp(wide - 1)[1])
    long, short = np.where((nr < nc)[comp], [lc, lr], [lr, lc])
    rank, cap = 0, (1 << 62) // (p - 1)  # a step is safe while B < cap
    for s in np.unique(stack[stack >= 0]):
        mine = stack == s
        e = mine[comp]
        A = np.zeros((np.count_nonzero(mine), wide[mine].max(), tall[mine].max()), np.int64)
        A[(np.cumsum(mine) - 1)[comp[e]], short[e], long[e]] = v[e]
        at, bound = np.arange(len(A)), p - 1
        while True:
            col = A[:, 0, :] % p
            row = col.argmax(axis=1)  # a nonzero entry, if the column has one
            piv = col[at, row]
            rank += (found := int(np.count_nonzero(piv)))
            if A.shape[1] == 1:
                break
            if found < len(A):
                piv[piv == 0] = 1  # an empty column: the step only drops it
            A = piv[:, None, None] * A[:, 1:, :] - A[at, 1:, row][:, :, None] * col[:, None, :]
            bound *= 2 * (p - 1)
            if bound >= cap:
                A, bound = A % p, p - 1
    keep = stack[comp] < 0
    return rank, r[keep], c[keep], v[keep]


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
    leading column from the basis rows before it joins.

    Args:
        a: matrix-like or SparseMatrix, any shape, zero rows or columns too,
            of at most DENSE_CELLS cells, or TooLarge before any elimination.
        p: prime modulus below MODULUS_LIMIT, or ModulusTooLarge.

    Returns:
        (R, rank, pivots): the reduced form as a dense array of a's
        shape, its rank and the strictly increasing list of pivot columns.
    """
    shape, *entries = _nonzeros(a, p)
    if shape[0] * shape[1] > DENSE_CELLS:
        raise TooLarge(f"rref: a dense {shape[0]} x {shape[1]} matrix exceeds {DENSE_CELLS} cells")
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
    """Rank over GF(p) of a dense matrix or a SparseMatrix, in three stages.

    ``_peel`` counts the pivots of columns and rows with one nonzero in
    vectorised rounds: a column whose only nonzero is in row i puts e_i
    in the column space, so rank A = 1 + rank(A without row i), and
    likewise for rows (LaMacchia and Odlyzko, CRYPTO '90).
    ``_stacked_rank`` splits the rest into connected components, whose
    ranks add (Dumas and Villard, CASC 2002), and eliminates the small
    ones together.  On the north-star ``rescoh resolve`` (n=4, p=5,
    --kmax 2, zero table) the peel takes all 624 pivots of d1, 596 of
    d2's 1876 and 2454 of d3's 4374; the rest of d2 and d3 falls into 512
    and 704 components of at most 10 rows plus columns, all stacked.  The
    job's ranks took 44 ms in Markowitz alone, 25 peeled, 4.9 stacked and
    3.8 reducing only before int64 overflow; numbering nodes, not entries,
    took them from 2.9 to 2.4, and argmax pivots (no step after the last
    column) 6 % lower again, 9-10 % with π ≠ 0 (2-core host, numpy 2.4).

    Markowitz eliminates the components too big to stack on row dicts,
    pivoting on a row of least weight and, within it, on the column held
    by the fewest rows, which keeps fill-in low.  A pivot row is dropped once it has cleared its
    column.  The column rule is not rref's on purpose: on the three
    differentials of ``rescoh resolve`` for n=4, p=5, --kmax 2 with a
    dense p-operator, leftmost-column pivots took 1.2 s and rref's row by
    row insertion 29 s, against 0.27 s here; the other way round, the
    holder sets peaked 1.8 MiB above rref on the 2575 x 25 derivations
    system of Witt p=5 (tracemalloc; 2-core host, Python 3.11).
    """
    shape, *entries = _nonzeros(a, p)
    r, *entries = _peel(shape, *entries)
    stacked, *entries = _stacked_rank(shape, *entries, p)
    r += stacked
    if not entries[0].size:
        return r
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


def mat_pow_mod(m, k: int, p: int) -> np.ndarray:
    """m**k with a reduction mod p after every product, for a matrix or a
    stack of them along the leading axes; refused from MODULUS_LIMIT up."""
    _check_modulus(p, "mat_pow_mod")
    m = as_fp(m, p)
    result = identity(m.shape[-1])  # the first product broadcasts it over a stack
    base = m.copy()
    while k:
        if k & 1:
            result = (result @ base) % p
        base = (base @ base) % p
        k >>= 1
    return result if result.shape == m.shape else np.broadcast_to(result, m.shape).copy()


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
        ModulusTooLarge: if p >= MODULUS_LIMIT, from the eliminations.
    """
    if outgoing is None and incoming is None:
        raise ValueError("need at least one map to fix the middle dimension")
    # The maps are only read: each elimination reduces its own copy.
    mid = np.shape(outgoing)[1] if outgoing is not None else np.shape(incoming)[0]
    if incoming is not None and np.shape(incoming)[0] != mid:
        raise ValueError("incoming/outgoing dimensions disagree")
    # the cycles first, so an oversized outgoing map is refused before any elimination
    cycles = nullspace(outgoing, p) if outgoing is not None else identity(mid)
    if incoming is None:
        boundaries, pivots = zeros(0, mid), []
    else:
        if not isinstance(incoming, SparseMatrix):
            incoming = SparseMatrix(*_nonzeros(incoming, p), p)
        R, rk, pivots = rref(incoming.T, p)
        boundaries = R[:rk]
    stripped = (cycles - cycles[:, pivots] @ boundaries) % p
    R, dim, _ = rref(stripped, p)
    if dim != cycles.shape[0] - len(pivots):
        raise NotAComplex("outgoing @ incoming is nonzero: a boundary is not a cycle")
    return Cohomology(cycles, boundaries, pivots, R[:dim], p)


class Complex:
    """A cochain complex over GF(p): ``build(k)`` gives δ(k): C^k -> C^(k+1), a
    SparseMatrix or None; each map, rank, check and group is made once, and
    each group's arrays are read-only (as a SparseMatrix's are), since they
    may be shared.  A chain complex d_k: C_k -> C_(k-1) is read as C^(-k) = C_k."""

    def __init__(self, build, p: int):
        self._build, self.p = build, p
        self._maps, self._ranks, self._checked, self._groups = {}, {}, set(), {}

    def delta(self, k: int) -> SparseMatrix | None:
        if k not in self._maps:
            self._maps[k] = self._build(k)
        return self._maps[k]

    def rank(self, k: int) -> int:
        if k not in self._ranks:
            d = self.delta(k)
            self._ranks[k] = 0 if d is None else rank(d, self.p)
        return self._ranks[k]

    def check(self, k: int) -> None:
        """Raise NotAComplex unless δ(k)∘δ(k−1) = 0, exactly and once per pair
        of maps; skipped when group k is kept, whose rank test proved it."""
        if k in self._checked or k in self._groups:
            return
        out, inc = self.delta(k), self.delta(k - 1)
        if out is None and inc is None:
            raise ValueError("need at least one map to fix the middle dimension")
        if out is not None and inc is not None:
            out.check_composite(inc, f"delta({k}) delta({k - 1})")
        self._checked.add(k)

    def dim(self, k: int) -> int:
        """dim C^k − rank δ(k) − rank δ(k−1), after ``check(k)``."""
        self.check(k)
        out, inc = self.delta(k), self.delta(k - 1)
        size = inc.shape[0] if out is None else out.shape[1]
        return size - self.rank(k) - self.rank(k - 1)

    def cohomology(self, k: int) -> Cohomology:
        if k not in self._groups:
            self._groups[k] = H = cohomology(self.delta(k - 1), self.delta(k), self.p)
            for a in (H.cycles, H.boundaries, H.reps):
                a.setflags(write=False)
        return self._groups[k]


def sample_vectors(p: int, dim: int, count: int, tag: str) -> np.ndarray:
    """Deterministic pseudo-random vectors over GF(p).

    Seeded from (p, dim, count, tag) so failures reproduce exactly.
    """
    raw = f"{p}:{dim}:{count}:{tag}".encode()
    seed = int.from_bytes(hashlib.sha256(raw).digest()[:8], "big")
    rng = np.random.default_rng(seed)
    return rng.integers(0, p, size=(count, dim), dtype=np.int64)
