"""The abelian resolution differential straightened basis element by basis element.

Reference implementation of d_k that straightens every basis element
e^mu ⊗ e_I ⊗ r with the Ures normal form and looks each image up in
the target basis.  It serves only as an oracle for the U-linear
assembly in abelres._assemble.
"""

import numpy as np

from rescoh.abelres import ChainBasisElement, _power_mono, _wedge_insert


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
