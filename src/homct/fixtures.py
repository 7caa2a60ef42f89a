"""Shipped fixture algebras and modules.

A1 = F_2[x]/(x^2)            local, self-injective, simplest periodic case
A2 = F_2[x,y]/(x^2,xy,y^2)   local, not self-injective, Betti numbers 2^k
A3 = F_2[x,y]/(x^2,y^2)      local, self-injective (complete intersection)
A4 = F_3[x]/(x^3)            local, self-injective, isomorphic to F_3[C_3]
"""

from __future__ import annotations

import functools

import numpy as np

from .algmod import (
    Algebra,
    FdModule,
    dual_module,
    free_module,
    make_group_algebra,
    make_monomial_quotient,
    quotient_module,
    regular_module,
    simple_modules,
    submodule,
)


@functools.cache
def algebra_a1() -> Algebra:
    return make_monomial_quotient(1, [(2,)], 2)


@functools.cache
def algebra_a2() -> Algebra:
    return make_monomial_quotient(2, [(2, 0), (1, 1), (0, 2)], 2)


@functools.cache
def algebra_a3() -> Algebra:
    return make_monomial_quotient(2, [(2, 0), (0, 2)], 2)


@functools.cache
def algebra_a4() -> Algebra:
    return make_monomial_quotient(1, [(3,)], 3)


def fixture_algebras() -> dict[str, Algebra]:
    return {"a1": algebra_a1(), "a2": algebra_a2(), "a3": algebra_a3(), "a4": algebra_a4()}


def simple_k(a: Algebra, side: str = "left") -> FdModule:
    """The unique simple module of a local fixture algebra."""
    sims = simple_modules(a, side)
    if len(sims) != 1:
        raise ValueError("fixture algebra is not local")
    return sims[0]


def cyclic_group_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def klein_four_table() -> list[list[int]]:
    return [[i ^ j for j in range(4)] for i in range(4)]


def group_algebra_c2_f2() -> Algebra:
    return make_group_algebra(cyclic_group_table(2), 2)


def group_algebra_c3_f3() -> Algebra:
    return make_group_algebra(cyclic_group_table(3), 3)


def a3_mod_ideal(var: str, side: str = "left") -> FdModule:
    """A3/(var) for var in {x, y}: the Gorenstein fixture modules."""
    a = algebra_a3()
    reg = regular_module(a, side)
    idx = a.basis_names.index(var)
    gen = np.zeros(a.dim, dtype=np.int64)
    gen[idx] = 1
    quot, _ = quotient_module(reg, _span_of(reg, [gen]))
    return quot


def a3_mod_x(side: str = "left") -> FdModule:
    return a3_mod_ideal("x", side)


def a3_mod_y(side: str = "left") -> FdModule:
    return a3_mod_ideal("y", side)


def _span_of(m: FdModule, gens):
    from .exactla import Subspace

    _, incl = submodule(m, gens)
    return Subspace(m.p, m.dim, incl.matrix.a.T.copy())


def random_module(a: Algebra, side: str, max_free_rank: int, rng: np.random.Generator) -> FdModule:
    """Seeded random module: a quotient of a small free module.

    Always a valid module; mixes in simples, regulars and duals so a corpus
    contains projectives and injectives.
    """
    kind = int(rng.integers(0, 5))
    if kind == 0:
        return simple_k(a, side)
    if kind == 1:
        return free_module(a, side, int(rng.integers(1, max_free_rank + 1)))
    if kind == 2:
        # injective: dual of a free module over the opposite side
        other = "right" if side == "left" else "left"
        return dual_module(free_module(a, other, int(rng.integers(1, max_free_rank + 1))))
    rank = int(rng.integers(1, max_free_rank + 1))
    fm = free_module(a, side, rank)
    n_gens = int(rng.integers(0, 3))
    gens = [rng.integers(0, a.p, size=fm.dim) for _ in range(n_gens)]
    span = _span_of(fm, gens) if gens else None
    if span is None or span.dim == 0:
        return fm
    if span.dim == fm.dim:
        return simple_k(a, side)
    quot, _ = quotient_module(fm, span)
    return quot


def seeded_corpus(a: Algebra, side: str, count: int, seed: int, max_free_rank: int = 2) -> list[FdModule]:
    rng = np.random.default_rng(seed)
    return [random_module(a, side, max_free_rank, rng) for _ in range(count)]
