"""The three Jacobson corrections summed sequence by sequence.

Reference implementations that enumerate all 2^(p-2) tails (and, for
the star-star correction, all 2^j acting/bracketed splits).  They are
exponential in p and serve only as an oracle for the quadrature in
RestrictedLieAlgebra._r2_correction, rescochain.star_correction and
rescochain.star_star_correction.
"""

import itertools

import numpy as np

from rescoh.field import inv_mod
from rescoh.rescochain import _alpha_eval, _phi_eval


def r2_enumeration(L, a, b) -> np.ndarray:
    """Sum of [a, b, l_3, ..., l_p] over l_i in {a, b}, weighted by 1/#(a)."""
    p = L.p
    total = L.zero()
    for tail in itertools.product((0, 1), repeat=p - 2):
        v = L.bracket(a, b)
        for t in tail:
            v = L.bracket(v, a if t == 0 else b)
        total = (total + inv_mod(1 + tail.count(0), p) * v) % p
    return total


def star_enumeration(L, M, phi, a, b) -> np.ndarray:
    p, m = L.p, M.m
    ra, rb = M.matrix_of(a), M.matrix_of(b)
    total = np.zeros(m, dtype=np.int64)
    for tail in itertools.product((0, 1), repeat=p - 2):
        vecs = [a, b] + [a if t == 0 else b for t in tail]
        mats = [ra, rb] + [ra if t == 0 else rb for t in tail]
        weight = inv_mod(1 + tail.count(0), p)
        prefixes = [vecs[0]]
        for idx in range(1, p - 1):
            prefixes.append(L.bracket(prefixes[-1], vecs[idx]))
        acting = np.eye(m, dtype=np.int64)
        term = np.zeros(m, dtype=np.int64)
        for k in range(p - 1):
            val = _phi_eval(phi, prefixes[p - k - 2], vecs[p - k - 1], p)
            val = (acting @ val) % p
            term = (term + (-1) ** k * val) % p
            if k < p - 2:
                acting = (acting @ mats[p - k - 1]) % p
        total = (total + weight * term) % p
    return total


def star_star_enumeration(L, M, alpha, g, h1, h2) -> np.ndarray:
    p, m = L.p, M.m
    r1, r2 = M.matrix_of(h1), M.matrix_of(h2)
    total = np.zeros(m, dtype=np.int64)
    for tail in itertools.product((0, 1), repeat=p - 2):
        vecs = [h1, h2] + [h1 if t == 0 else h2 for t in tail]
        mats = [r1, r2] + [r1 if t == 0 else r2 for t in tail]
        weight = inv_mod(1 + tail.count(0), p)
        prefixes = [vecs[0]]
        for idx in range(1, p - 1):
            prefixes.append(L.bracket(prefixes[-1], vecs[idx]))
        for j in range(p - 1):
            sgn = (-1) ** j
            positions = list(range(p - j, p))
            mid = prefixes[p - j - 2]
            last = vecs[p - j - 1]
            for split in range(1 << j):
                u = g
                for t in reversed(range(j)):
                    if not (split >> t) & 1:
                        u = L.bracket(u, vecs[positions[t]])
                val = _alpha_eval(alpha, u, mid, last, p)
                for t in range(j):
                    if (split >> t) & 1:
                        val = (mats[positions[t]] @ val) % p
                total = (total + weight * sgn * val) % p
    return total
