"""Seeded input generator for the homct benchmark.

Every workload's algebra is built through homct's public constructors and
then relabeled: the seed picks a permutation of the algebra basis (group
elements, or monomials for A2), so each seed gives an isomorphic algebra and
modules with the same homology.  Seed 0 keeps the natural order, which for
A2 reproduces the shipped ``fixtures/a2*.json`` byte for byte.

Run ``PYTHONPATH=src python3 perfbench/gen.py OUT_DIR --seed N`` to write
every workload's inputs into OUT_DIR.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random

import numpy as np

from homct.algmod import Algebra, make_group_algebra, make_monomial_quotient
from homct.fixtures import simple_k
from homct.schemas import algebra_to_json, module_to_json


def permutation(n: int, seed: int, blocks: list[int] | None = None) -> list[int]:
    """Seeded relabeling of range(n); seed 0 is the identity.

    With ``blocks`` (consecutive block sizes summing to n) each block is
    shuffled in place, so a graded basis stays graded.
    """
    rng = random.Random(seed)
    perm, start = [], 0
    for size in blocks or [n]:
        part = list(range(start, start + size))
        if seed:
            rng.shuffle(part)
        perm += part
        start += size
    return perm


def _relabel_basis(alg: Algebra, perm: list[int]) -> Algebra:
    """The same algebra with old basis element i moved to position perm[i]."""
    n = alg.dim
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    struct = alg.structure[np.ix_(inv, inv, inv)]
    unit = alg.unit[inv]
    names = [alg.basis_names[old] for old in inv]
    return Algebra(alg.p, struct, unit, names)


def _relabel_group_table(table: list[list[int]], perm: list[int]) -> list[list[int]]:
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = perm[table[i][j]]
    return out


def product_group_table(orders: list[int]) -> list[list[int]]:
    """Multiplication table of C_{o1} x ... x C_{or}, elements in mixed radix."""
    elements = list(itertools.product(*(range(o) for o in orders)))
    index = {g: i for i, g in enumerate(elements)}
    return [[index[tuple((a + b) % o for a, b, o in zip(g, h, orders))] for h in elements]
            for g in elements]


def a2_algebra(seed: int) -> Algebra:
    """A2 = F_2[x,y]/(x^2, xy, y^2) with its monomials relabeled within degrees.

    make_monomial_quotient always returns a degree-sorted basis, so the
    relabeling keeps it graded.  Moving the unit out of first place would also
    change how much work the dense eliminator does (a2-pcomp by up to 15%),
    which would make the seed a hidden cost variable.
    """
    alg = make_monomial_quotient(2, [(2, 0), (1, 1), (0, 2)], 2)
    # basis 1 | y, x: degree 0, then degree 1
    return _relabel_basis(alg, permutation(alg.dim, seed, [1, 2]))


def group_algebra(orders: list[int], p: int, seed: int) -> Algebra:
    """F_p[C_{o1} x ...] with its group elements relabeled."""
    table = product_group_table(orders)
    return make_group_algebra(_relabel_group_table(table, permutation(len(table), seed)), p)


# input name -> algebra constructor; the k modules come from fixtures.simple_k
ALGEBRAS = {
    "a2": a2_algebra,
    "c3c3": lambda seed: group_algebra([3, 3], 3, seed),
    "c2x4": lambda seed: group_algebra([2, 2, 2, 2], 2, seed),
}


def _dump(obj: dict, path: str) -> None:
    # same layout as homct.schemas.write_fixture_files
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


def write_inputs(name: str, seed: int, out_dir: str) -> dict[str, str]:
    """Write <name>.json and <name>_k_{right,left}.json; return their paths."""
    os.makedirs(out_dir, exist_ok=True)
    alg = ALGEBRAS[name](seed)
    paths = {"algebra": os.path.join(out_dir, f"{name}.json")}
    _dump(algebra_to_json(alg), paths["algebra"])
    for side in ("right", "left"):
        path = os.path.join(out_dir, f"{name}_k_{side}.json")
        _dump(module_to_json(simple_k(alg, side), f"{name}.json"), path)
        paths[side] = path
    return paths


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--only", choices=sorted(ALGEBRAS), help="write one input set")
    args = ap.parse_args()
    for name in [args.only] if args.only else ALGEBRAS:
        for path in write_inputs(name, args.seed, args.out_dir).values():
            print(path)


if __name__ == "__main__":
    main()
