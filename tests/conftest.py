"""Shared corpus of algebras used across the suite.

Abelian entries cover n = 1, 2 at p in {2, 3, 5} and n = 3 at p in
{2, 3}, each with a zero and a nonzero p-operator table.  Nonabelian
entries are the Heisenberg algebra, the 2-dimensional solvable algebra
and the Witt algebra at p in {2, 3, 5, 7}.
"""

from __future__ import annotations

import numpy as np
import pytest

# the oracle's own asserts, rewritten so that they also run under python -O
pytest.register_assert_rewrite("quotients")

from rescoh.gmod import adjoint_module, trivial_module
from rescoh.linalg import SparseMatrix
from rescoh.liealg import (
    abelian_algebra,
    heisenberg_algebra,
    solvable2_algebra,
    witt_algebra,
)


def nonzero_pi(n: int) -> np.ndarray:
    # reversal permutation; any table is admissible over an abelian algebra
    return np.eye(n, dtype=np.int64)[:, ::-1].copy()


def add_one_at_origin(d: SparseMatrix) -> SparseMatrix:
    """d with 1 added to its entry (0, 0): a corrupted differential."""
    return SparseMatrix(d.shape, np.append(d.rows, 0), np.append(d.cols, 0),
                        np.append(d.vals, 1), d.p)


def make_corpus() -> list[tuple]:
    entries = []
    for n in (1, 2):
        for p in (2, 3, 5):
            entries.append((f"abelian{n}_p{p}", abelian_algebra(n, p)))
            entries.append((f"abelian{n}nz_p{p}", abelian_algebra(n, p, pi=nonzero_pi(n))))
    for p in (2, 3):
        entries.append((f"abelian3_p{p}", abelian_algebra(3, p)))
        entries.append((f"abelian3nz_p{p}", abelian_algebra(3, p, pi=nonzero_pi(3))))
    for p in (2, 3, 5, 7):
        entries.append((f"heisenberg_p{p}", heisenberg_algebra(p)))
        entries.append((f"solvable2_p{p}", solvable2_algebra(p)))
        entries.append((f"witt_p{p}", witt_algebra(p)[0]))
    return entries


CORPUS = make_corpus()
ABELIAN = [(tag, L) for tag, L in CORPUS if L.is_abelian]
NONABELIAN = [(tag, L) for tag, L in CORPUS if not L.is_abelian]


def coefficient_modules(L):
    return [("trivial", trivial_module(L, 1)), ("adjoint", adjoint_module(L))]


@pytest.fixture(params=CORPUS, ids=[tag for tag, _ in CORPUS])
def corpus_entry(request):
    return request.param


@pytest.fixture(params=ABELIAN, ids=[tag for tag, _ in ABELIAN])
def abelian_entry(request):
    return request.param
