"""Connected components numbered entry by entry.

Reference implementation of the numbering linalg._components did before
it sorted the rows and columns once: the components come from one
``np.unique`` over the entries' root labels, and each entry's row and
column are numbered among those of its component by one more
``np.unique`` each, over keys component·base + index.  It serves only
as an oracle for linalg._components.
"""

import numpy as np

from rescoh.linalg import _components


def _local(comp, x, base):
    """Each entry's x (below base) numbered among those of its component, and their counts."""
    key, at = np.unique(comp * base + x, return_inverse=True)
    owner = key // base
    count = np.bincount(owner)
    return (np.arange(key.size) - (np.cumsum(count) - count)[owner])[at], count


def components(shape, r, c):
    """(comp, lr, lc, nr, nc) as linalg._components gives them."""
    label = np.arange(shape[0] + shape[1])
    while True:
        lr, lc = label[r], label[c + shape[0]]
        if (lr == lc).all():
            break
        np.minimum.at(label, np.maximum(lr, lc), np.minimum(lr, lc))
        while (label[label] != label).any():
            label = label[label]
    comp = np.unique(lr, return_inverse=True)[1]
    (lr, nr), (lc, nc) = _local(comp, r, shape[0]), _local(comp, c, shape[1])
    return comp, lr, lc, nr, nc


def assert_numbered_alike(shape, r, c):
    """linalg._components gives the oracle's arrays, value for value."""
    for got, want, name in zip(_components(shape, r, c), components(shape, r, c),
                               ("comp", "lr", "lc", "nr", "nc")):
        np.testing.assert_array_equal(got, want, err_msg=name)
