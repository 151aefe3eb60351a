"""The abelian resolution straightened with the Ures normal form.

Reference implementations that straighten every product with
Ures.mono_times_gen or Ures.multiply: d_k basis element by basis
element e^mu ⊗ e_I ⊗ r, looking each image up in the target basis, and
the 2n+1 right-multiplication tables monomial by monomial.  They serve
only as oracles for the U-linear assembly in abelres._assemble and for
the vectorised tables of abelres._right_operators.
"""

import numpy as np

from rescoh.abelres import ChainBasisElement, _power_mono, _wedge_insert
from rescoh.linalg import SparseMatrix


def right_operators_by_straightening(U):
    """Right multiplication by x_0..x_{n-1}, by 1 and by x_0^{p-1}..x_{n-1}^{p-1}.

    The x_i tables straighten every product monomial·x_i; the table of
    x_j^{p-1} is the (p-1)-st power of the x_j table, p-2 sparse products.
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


def differential_by_element(L, U, src, dst_index):
    """Matrix of d from the src basis into the indexed target basis.

    Returned as its shape and the canonical (rows, cols, vals) arrays of
    a SparseMatrix: nonzero entries sorted by column, then row.
    """
    p, n = L.p, L.n
    cols = []
    for mu, I, r in src:
        col: dict[int, int] = {}
        # wedge slot into U_res; left and right products agree (abelian)
        for a, i in enumerate(I):
            sgn = -1 if a % 2 else 1
            rest = I[:a] + I[a + 1 :]
            for mono, cf in U.mono_times_gen(r, i).items():
                row = dst_index[ChainBasisElement(mu, rest, mono)]
                col[row] = col.get(row, 0) + sgn * cf
        for j in range(n):
            if mu[j] == 0:
                continue
            mu2 = mu[:j] + (mu[j] - 1,) + mu[j + 1 :]
            # symmetric slot replaced by its p-power inside the wedge
            for l in range(n):
                cf = int(L.pi[j, l])
                if cf == 0:
                    continue
                ins = _wedge_insert(I, l)
                if ins is None:
                    continue
                I2, sgn = ins
                row = dst_index[ChainBasisElement(mu2, I2, r)]
                col[row] = col.get(row, 0) + mu[j] * cf * sgn
            # symmetric slot moved to the wedge, (p-1)-st power into U_res
            ins = _wedge_insert(I, j)
            if ins is None:
                continue
            I2, sgn = ins
            pw = {_power_mono(n, j, p - 1): 1}
            for mono, cf in U.multiply(pw, {r: 1}).items():
                row = dst_index[ChainBasisElement(mu2, I2, mono)]
                col[row] = col.get(row, 0) - mu[j] * cf * sgn
        cols.append({row: v % p for row, v in col.items() if v % p})
    entries = [(row, c, col[row]) for c, col in enumerate(cols) for row in sorted(col)]
    rows, cs, vals = np.array(entries, dtype=np.int64).reshape(-1, 3).T
    return (len(dst_index), len(src)), rows, cs, vals
