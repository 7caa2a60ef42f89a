"""Algebras the tests build by hand, beside those of ``homct.fixtures``."""

import itertools

import numpy as np

from homct.algmod import Algebra


def triangular(n: int = 2, p: int = 3) -> Algebra:
    """Upper triangular n x n matrices over F_p on the basis e_ij, i <= j.

    The default is T_2(F_3) on e11, e12, e22: two simples, unit e11 + e22, and
    covers that are sums of the indecomposable projectives A e_t, not free modules.
    """
    idx = [(i, j) for i in range(n) for j in range(i, n)]
    pos = {ij: t for t, ij in enumerate(idx)}
    struct = np.zeros((len(idx),) * 3, dtype=np.int64)
    for (i, j), (k, l) in itertools.product(idx, idx):
        if j == k:
            struct[pos[i, j], pos[k, l], pos[i, l]] = 1
    return Algebra(p, struct, [int(i == j) for i, j in idx])
