"""Markowitz elimination on row dicts, without the singleton peel.

Reference implementation of linalg.rank as it stood before its peel:
each step pivots on a row of least weight and, within it, on the column
held by the fewest rows, in Python ints, so it is exact at any p.  It
reads a SparseMatrix through its index arrays, so it holds differentials
far too large for the dense oracle in dense_rref.py.  It serves only as
an oracle for linalg.rank.
"""

import heapq

import numpy as np

from rescoh.linalg import SparseMatrix, as_fp


def row_dicts(a, p: int) -> dict[int, dict[int, int]]:
    """The nonzero rows of a as {col: value} dicts keyed by row."""
    if isinstance(a, SparseMatrix):
        entries = zip(a.rows.tolist(), a.cols.tolist(), (a.vals % p).tolist())
    else:
        A = as_fp(a, p)
        r, c = np.nonzero(A)
        entries = zip(r.tolist(), c.tolist(), A[r, c].tolist())
    rows: dict[int, dict[int, int]] = {}
    for i, j, v in entries:
        if v:
            rows.setdefault(i, {})[j] = v
    return rows


def rank(a, p: int) -> int:
    """Rank over GF(p), pivot by pivot."""
    rows = row_dicts(a, p)
    holders: dict[int, set[int]] = {}
    for i, row in rows.items():
        for c in row:
            holders.setdefault(c, set()).add(i)
    heap = [(len(row), i) for i, row in rows.items()]
    heapq.heapify(heap)
    r = 0
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
