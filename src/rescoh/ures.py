"""Restricted enveloping algebras with a PBW normal form.

Elements are sparse dicts mapping exponent tuples (k_1, ..., k_n) with
0 <= k_j < p to nonzero coefficients; the tuple stands for the ordered
monomial e_1^{k_1} ... e_n^{k_n}.  Straightening moves a generator left
through a normal monomial with the commutator rule and reduces p-th
powers through the algebra's p-operator table.  All straightening steps
are memoized on (monomial, generator) pairs, so repeated products over
the same algebra stay cheap.
"""

from __future__ import annotations

import itertools

import numpy as np

from .linalg import TooLarge, mat_pow_mod
from .liealg import RestrictedLieAlgebra


class IndexOutOfRange(IndexError):
    pass


PBW_BOUND = 5**5

Element = dict


def _add_into(acc: dict, mono: tuple, coeff: int, p: int) -> None:
    v = (acc.get(mono, 0) + coeff) % p
    if v:
        acc[mono] = v
    else:
        acc.pop(mono, None)


class Ures:
    """Computation context for the restricted enveloping algebra of L."""

    def __init__(self, L: RestrictedLieAlgebra, basis_bound: int = PBW_BOUND):
        self.L = L
        self.p = L.p
        self.n = L.n
        self.basis_bound = basis_bound
        self.unit_mono = (0,) * L.n
        self._cache: dict = {}

    def dim(self) -> int:
        return self.p**self.n

    def one(self) -> Element:
        return {self.unit_mono: 1}

    def zero(self) -> Element:
        return {}

    def generator(self, g: int) -> Element:
        if not 0 <= g < self.n:
            raise IndexOutOfRange(f"generator index {g} out of range for n={self.n}")
        mono = [0] * self.n
        mono[g] = 1
        return {tuple(mono): 1}

    def basis(self) -> list[tuple]:
        """All exponent tuples in lexicographic order.

        The rank of (k_1, ..., k_n) in this list is sum k_j p^(n-j),
        matching mono_rank.
        """
        if self.dim() > self.basis_bound:
            raise TooLarge(f"PBW basis has {self.dim()} monomials, bound is {self.basis_bound}")
        return list(itertools.product(range(self.p), repeat=self.n))

    def mono_rank(self, mono: tuple) -> int:
        r = 0
        for k in mono:
            r = r * self.p + int(k)
        return r

    def to_vector(self, elem: Element) -> np.ndarray:
        if self.dim() > self.basis_bound:
            raise TooLarge(f"dense vector would have {self.dim()} entries")
        v = np.zeros(self.dim(), dtype=np.int64)
        for mono, coeff in elem.items():
            v[self.mono_rank(mono)] = coeff % self.p
        return v

    def mono_times_gen(self, mono: tuple, g: int) -> Element:
        """Normal form of (ordered monomial) * e_g.  Results are cached;
        callers must not mutate them."""
        key = (mono, g)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        p, n, c = self.p, self.n, self.L.c
        out: dict = {}
        tail = [h for h in range(g + 1, n) if mono[h] > 0]
        if not tail:
            k = mono[g]
            if k + 1 < p:
                bumped = mono[:g] + (k + 1,) + mono[g + 1 :]
                out[bumped] = 1
            else:
                prefix = mono[:g] + (0,) + mono[g + 1 :]
                for l in range(n):
                    w = int(self.L.pi[g, l])
                    if w:
                        for m2, c2 in self.mono_times_gen(prefix, l).items():
                            _add_into(out, m2, w * c2, p)
        else:
            h = tail[-1]
            reduced = mono[:h] + (mono[h] - 1,) + mono[h + 1 :]
            for m2, c2 in self.mono_times_gen(reduced, g).items():
                for m3, c3 in self.mono_times_gen(m2, h).items():
                    _add_into(out, m3, c2 * c3, p)
            for l in range(n):
                w = int(c[g, h, l])
                if w:
                    for m2, c2 in self.mono_times_gen(reduced, l).items():
                        _add_into(out, m2, -w * c2, p)
        self._cache[key] = out
        return out

    def elem_times_gen(self, elem: Element, g: int) -> Element:
        out: dict = {}
        for mono, coeff in elem.items():
            for m2, c2 in self.mono_times_gen(mono, g).items():
                _add_into(out, m2, coeff * c2, self.p)
        return out

    def scale(self, elem: Element, a: int) -> Element:
        a %= self.p
        if a == 0:
            return {}
        return {m: (a * c) % self.p for m, c in elem.items() if (a * c) % self.p}

    def add(self, a: Element, b: Element) -> Element:
        out = dict(a)
        for m, c in b.items():
            _add_into(out, m, c, self.p)
        return out

    def multiply(self, a: Element, b: Element) -> Element:
        """Product in PBW normal form.

        Each monomial of b is expanded as an ascending product of
        generators and folded onto a from the left factor outward.
        """
        out: dict = {}
        for mono, coeff in b.items():
            cur = a
            for g in range(self.n):
                for _ in range(mono[g]):
                    cur = self.elem_times_gen(cur, g)
            for m2, c2 in cur.items():
                _add_into(out, m2, coeff * c2, self.p)
        return out

    def normalize(self, word) -> Element:
        """Normal form of a product of generators given by index."""
        cur = self.one()
        for g in word:
            g = int(g)
            if not 0 <= g < self.n:
                raise IndexOutOfRange(f"generator index {g} out of range for n={self.n}")
            cur = self.elem_times_gen(cur, g)
        return cur

    def from_algebra(self, x) -> Element:
        """Image of a Lie-algebra element under the canonical embedding."""
        x = self.L._check_vec(x)
        out: dict = {}
        for g in np.nonzero(x)[0]:
            mono = [0] * self.n
            mono[int(g)] = 1
            _add_into(out, tuple(mono), int(x[g]), self.p)
        return out

    def augmentation(self, elem: Element) -> int:
        """Counit: coefficient of the empty monomial."""
        return elem.get(self.unit_mono, 0) % self.p

    def mono_action_matrix(self, mono: tuple, rho: np.ndarray) -> np.ndarray:
        """Matrix of the monomial e_1^{k_1} ... e_n^{k_n} in the module
        with generator matrices rho[i]."""
        p = self.p
        m = rho.shape[1]
        out = np.eye(m, dtype=np.int64)
        for g in range(self.n):
            k = int(mono[g])
            if k:
                out = (out @ mat_pow_mod(rho[g], k, p)) % p
        return out
