"""Finite-dimensional algebras over F_p and their one-sided modules.

An Algebra is given by structure constants c[i][j][k] (e_i e_j = sum_k
c[i][j][k] e_k) and a unit vector.  An FdModule carries one action matrix per
algebra basis element, except a free module A^b or its dual D(A)^b, which
keeps A or D(A) and b, and whose actions ``act`` applies copy by copy; a
ModuleMap is a linear map commuting with every action.  Right modules are
identified with left modules over the opposite algebra by keeping the same
action matrices.

The supported algebra class is the split basic case: algebras whose
semisimple quotient is a product of copies of F_p.  There the radical is
the two-sided ideal generated by the commutators and the x^p - x, certified
by its nilpotency, which also decides the class; simple modules are
one-dimensional, their characters and the primitive idempotents of A/rad
come from Cantor-Zassenhaus splits of 1, and the idempotents are lifted by
p-th powering.  Lifts of a basis of rad/rad^2 generate rad as a left and as a
right ideal, so rad * M and soc M are read from their actions alone.
"""

from __future__ import annotations

import functools
import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .exactla import (
    Matrix,
    SparseMatrix,
    Subquotient,
    Subspace,
    image_basis,
    kernel_basis,
    kron,
    matpow,
    mulmod,
    quotient_and_induced,
    quotient_projection,
    reduced,
    rref,
    solve_matrix,
)

__all__ = [
    "Algebra",
    "FdModule",
    "ModuleMap",
    "TensorSpace",
    "ValidationReport",
    "validate_algebra",
    "validate_module",
    "make_group_algebra",
    "make_monomial_quotient",
    "opposite",
    "radical",
    "dual_module",
    "dual_map",
    "tensor_over_algebra",
    "hom_over_algebra",
    "hom_coords",
    "FreeHomCoords",
    "SubHomCoords",
    "stable_hom",
    "socle",
    "top",
    "submodule",
    "quotient_module",
    "is_isomorphic",
    "direct_sum",
    "regular_module",
    "simple_modules",
    "free_module",
    "act",
]


class UnsupportedAlgebraError(ValueError):
    """Algebra outside the split basic class (semisimple quotient != F_p^s)."""


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str] = field(default_factory=list)

    def __bool__(self):
        return self.ok


class Algebra:
    """Associative unital F_p-algebra by structure constants."""

    def __init__(self, p: int, structure, unit, basis_names=None, check: bool = True):
        structure = np.asarray(structure, dtype=np.int64)
        if structure.ndim != 3 or structure.shape[0] != structure.shape[1] or structure.shape[0] != structure.shape[2]:
            raise ValueError("structure constants must have shape (dim, dim, dim)")
        self.p = p
        self.dim = structure.shape[0]
        self.structure = structure % p
        self.structure.setflags(write=False)
        self.unit = np.asarray(unit, dtype=np.int64) % p
        self.unit.setflags(write=False)
        if basis_names is None:
            basis_names = [f"e{i}" for i in range(self.dim)]
        self.basis_names = list(basis_names)
        self._cache: dict = {}
        if check:
            rep = validate_algebra(self)
            if not rep.ok:
                raise ValueError("invalid algebra: " + "; ".join(rep.violations))

    # -- basic arithmetic ------------------------------------------------

    def mul(self, u, v) -> np.ndarray:
        """The product u * v, row by row for blocks of row vectors.

        u and v are vectors (dim,) or blocks (..., dim) that broadcast
        against each other; u * v = sum_{i,j} u_i v_j e_i e_j is one product
        of the flattened outer products u_i v_j with the structure constants.
        """
        u, v = reduced(u, self.p), reduced(v, self.p)
        outer = reduced(u[..., :, None] * v[..., None, :], self.p)
        n = self.dim
        return mulmod(outer.reshape(outer.shape[:-2] + (n * n,)),
                      self.structure.reshape(n * n, n), self.p)

    def left_mult_matrix(self, v):
        """Matrix of x -> v * x on column coordinates.

        For a block of k row vectors: the k matrices as one (k, dim, dim) array.
        """
        v = reduced(v, self.p)
        n = self.dim
        # (L_v)[k, j] = sum_i v_i c[i][j][k]: one product, then swap (j, k)
        lm = mulmod(v, self.structure.reshape(n, n * n), self.p)
        lm = lm.reshape(v.shape[:-1] + (n, n)).swapaxes(-1, -2)
        return Matrix(self.p, lm) if v.ndim == 1 else lm

    def fingerprint(self) -> str:
        h = self._cache.get("fingerprint")
        if h is None:
            hh = hashlib.sha1()
            hh.update(str(self.p).encode())
            hh.update(self.structure.tobytes())
            hh.update(self.unit.tobytes())
            h = hh.hexdigest()
            self._cache["fingerprint"] = h
        return h

    def __repr__(self):
        return f"Algebra(p={self.p}, dim={self.dim})"

    # -- derived structure -------------------------------------------------

    def opposite(self) -> "Algebra":
        opp = self._cache.get("opposite")
        if opp is None:
            opp = Algebra(
                self.p,
                np.swapaxes(self.structure, 0, 1),
                self.unit,
                self.basis_names,
                check=False,
            )
            opp._cache["opposite"] = self
            self._cache["opposite"] = opp
        return opp

    def radical(self) -> Subspace:
        """rad A, certified by ``_radical_certified``; rad^2 is kept beside it."""
        rad = self._cache.get("radical")
        if rad is None:
            rad, self._cache["radical_squared"] = _radical_certified(self)
            self._cache["radical"] = rad
        return rad

    def radical_generators(self) -> np.ndarray:
        """Rows lifting a basis of rad/rad^2; they generate rad as a left and a right ideal.

        By Nakayama, rad = sum x_i A = sum A x_i, so rad * M = sum x_i M and
        soc M is the common kernel of the x_i.
        """
        gens = self._cache.get("radical_generators")
        if gens is None:
            rad = self.radical()
            gens = Subquotient(rad, self._cache["radical_squared"]).basis_representatives()
            self._cache["radical_generators"] = gens
        return gens

    def generating_basis(self) -> list[int]:
        """Indices of basis elements that generate A as an algebra, chosen by closure.

        Each basis element in turn is taken when it lies outside the subalgebra
        the unit and the elements taken before it generate.  A linear map that
        commutes with the actions of these elements commutes with every action
        of a module, as rho(xy) is rho(x) rho(y) (or rho(y) rho(x)) and rho(1) = 1.
        """
        gens = self._cache.get("generating_basis")
        if gens is None:
            p, n, gens = self.p, self.dim, []
            basis = np.eye(n, dtype=np.int64)
            sub = Subspace(p, n, self.unit[None])
            for i in range(n):
                if sub.contains(basis[i]):
                    continue
                gens.append(i)
                grown = Subspace(p, n, np.vstack([sub.basis.a, basis[i]]))
                while grown.dim > sub.dim:  # right products by the generators until closed
                    sub, rows = grown, grown.basis.a
                    grown = Subspace(p, n, np.vstack([rows, self.mul(rows[:, None], basis[gens]).reshape(-1, n)]))
            self._cache["generating_basis"] = gens
        return gens

    def semisimple_quotient(self) -> tuple[list[int], list[tuple[np.ndarray, np.ndarray]]]:
        """A/rad = F_p^s on the canonical complement coordinates of rad.

        Returns (complement column indices, a (character, primitive idempotent)
        pair per factor, both on those coordinates, sorted by character).
        """
        cached = self._cache.get("ssq")
        if cached is None:
            rad = self.radical()
            cached = (rad.complement_cols(), _quotient_idempotents(_quotient_algebra(self, rad)))
            self._cache["ssq"] = cached
        return cached

    def assert_supported(self) -> None:
        """Raise UnsupportedAlgebraError unless A/rad is a product of F_p's: ``radical`` certifies it."""
        self.radical()

    def primitive_idempotents(self) -> list[np.ndarray]:
        """Complete set of orthogonal primitive idempotents (split basic case)."""
        idem = self._cache.get("idempotents")
        if idem is None:
            idem = _lift_idempotents(self)
            self._cache["idempotents"] = idem
        return idem

    def characters(self) -> list[np.ndarray]:
        """The simple characters A -> F_p, as row vectors on A."""
        chars = self._cache.get("characters")
        if chars is None:
            _, split = self.semisimple_quotient()
            qchars = np.array([chi for chi, _ in split], dtype=np.int64)
            chars = list(mulmod(qchars, quotient_projection(self.radical()).a, self.p))
            self._cache["characters"] = chars
        return chars


def validate_algebra(a: Algebra) -> ValidationReport:
    """Check associativity on all basis triples and the two-sided unit."""
    violations = []
    n, p, c = a.dim, a.p, a.structure
    # one i at a time, dim A^3 entries: (e_i e_j) e_k = sum_t c[i,j,t] c[t,k]; e_i (e_j e_k) = sum_t c[j,k,t] c[i,t]
    for i in range(n):
        lhs = mulmod(c[i], c.reshape(n, n * n), p)
        bad = lhs.reshape(n * n, n) != mulmod(c.reshape(n * n, n), c[i], p)
        if bad.any():
            j, k = divmod(int(bad.argmax()) // n, n)  # the first failing (j, k, s) in row-major order
            violations.append(f"associativity fails at triple ({i},{j},{k})")
            break
    basis = np.eye(n, dtype=np.int64)
    left = (a.mul(a.unit, basis) != basis).any(axis=1)
    right = (a.mul(basis, a.unit) != basis).any(axis=1)
    bad = np.flatnonzero(left | right)
    if bad.size:
        j = int(bad[0])
        violations.append(f"unit fails on the {'left' if left[j] else 'right'} at basis element {j}")
    return ValidationReport(not violations, violations)


def opposite(a: Algebra) -> Algebra:
    return a.opposite()


def radical(a: Algebra) -> Subspace:
    return a.radical()


# -- radical: the ideal certificate ------------------------------------------


def _products(a: Algebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The products x_k y_l of the rows of two blocks, as rows: the stack L_x applied to y."""
    prods = mulmod(a.left_mult_matrix(x), y.T, a.p)  # slice k, column l: x_k y_l
    return prods.transpose(0, 2, 1).reshape(-1, a.dim)


def _radical_certified(a: Algebra) -> tuple[Subspace, Subspace]:
    """(rad, rad^2) of a split basic algebra; UnsupportedAlgebraError for any other.

    I is the two-sided ideal generated by the commutators e_i e_j - e_j e_i
    and the e_i^p - e_i.  A/I is commutative and its Frobenius, additive there,
    fixes a basis, so A/I is reduced and rad <= I.  In a split basic A both
    kinds vanish in A/rad = F_p^s, so I <= rad.  Hence I = rad exactly when I
    is nilpotent, and A is then split basic.
    """
    p, n = a.p, a.dim
    basis = np.eye(n, dtype=np.int64)
    commutators = (a.structure - a.structure.transpose(1, 0, 2)).reshape(n * n, n)
    gens = Subspace(p, n, np.vstack([commutators, _power_elt(a, basis, p) - basis]))
    left = Subspace(p, n, _products(a, basis, gens.basis.a))  # A I_0, a left ideal
    rad = Subspace(p, n, _products(a, left.basis.a, basis))  # A I_0 A
    r = rad.basis.a
    rad2 = Subspace(p, n, _products(a, r, r))
    prev, power = rad, rad2
    while power.dim:  # I^(j+1) = I I^j shrinks until it is 0 or stops shrinking
        if power.dim == prev.dim:
            raise UnsupportedAlgebraError(
                "unsupported algebra class: the ideal of commutators and x^p - x is not "
                "nilpotent, so the semisimple quotient is not a product of copies of F_p"
            )
        prev, power = power, Subspace(p, n, _products(a, r, power.basis.a))
    return rad, rad2


def _quotient_algebra(a: Algebra, rad: Subspace) -> Algebra:
    """A/rad on the canonical complement coordinates of rad.

    With proj the quotient projection, e_x e_y maps to proj(e_x e_y) for
    complement basis elements x, y, and the unit to proj(1).
    """
    comp = rad.complement_cols()
    proj = quotient_projection(rad)
    struct = mulmod(a.structure[comp][:, comp], proj.a.T, a.p)
    return Algebra(a.p, struct, proj.apply(a.unit), check=False)


def _quotient_idempotents(q: Algebra) -> list[tuple[np.ndarray, np.ndarray]]:
    """(character, primitive idempotent) of q = F_p^s, one pair per factor, sorted by character.

    Cantor-Zassenhaus splits, with no scan of F_p: y = ((x + a) f)^((p-1)/2)
    is 1 or -1 on the factors of an idempotent f where x + a is a nonzero
    square or a non-square, and 0 where x + a is 0, so f splits into
    (y^2 + y)/2, (y^2 - y)/2 and f - y^2 (into xf and f - xf at p = 2).  The
    shifts a = 0, 1, 2, ... run over every basis element x in turn; a = -chi(x)
    parts two characters that differ at x, so the s factors part before a = p.
    """
    p, s = q.p, q.dim
    basis = np.eye(s, dtype=np.int64)
    shifts = ((x + a * q.unit) % p for a in range(p) for x in basis)
    parts = q.unit[None]
    while len(parts) < s:
        v = q.mul(next(shifts), parts)  # (x + a) f, one row per part f
        if p == 2:
            pieces = [v, parts - v]
        else:
            y = _power_elt(q, v, (p - 1) // 2)
            y2, half = q.mul(y, y), (p + 1) // 2
            pieces = [reduced(y2 + y, p) * half, reduced(y2 - y, p) * half, parts - y2]
        parts = reduced(np.vstack(pieces), p)
        parts = parts[parts.any(axis=1)]
    split = []
    for f in parts:
        lead = int(np.flatnonzero(f)[0])
        w = q.mul(basis, f)  # row j is e_j f = chi(e_j) f
        split.append((w[:, lead] * pow(int(f[lead]), p - 2, p) % p, f))
    split.sort(key=lambda pair: tuple(int(x) for x in pair[0]))
    return split


def _lift_idempotents(a: Algebra) -> list[np.ndarray]:
    """Orthogonal primitive idempotents lifting those of A/rad (p-power trick)."""
    comp, split = a.semisimple_quotient()
    # a p-power pk > dim A, so that rad^pk = 0
    pk = a.p
    while pk <= a.dim:
        pk *= a.p
    lifted: list[np.ndarray] = []
    total = np.zeros(a.dim, dtype=np.int64)
    for _, ebar in split:
        # any preimage, squeezed into the corner (1 - sum e_t) A (1 - sum e_t)
        pre = np.zeros(a.dim, dtype=np.int64)
        pre[comp] = ebar
        f = (a.unit - total) % a.p
        x = a.mul(a.mul(f, pre), f)
        x = _power_elt(a, x, pk)
        lifted.append(x)
        total = (total + x) % a.p
    if not np.array_equal(total, a.unit):
        raise UnsupportedAlgebraError("idempotent lifting failed to sum to 1")
    for i, e in enumerate(lifted):
        if not np.array_equal(a.mul(e, e), e):
            raise UnsupportedAlgebraError("idempotent lifting produced a non-idempotent")
        for j in range(i):
            z = np.zeros(a.dim, dtype=np.int64)
            if not np.array_equal(a.mul(e, lifted[j]), z) or not np.array_equal(
                a.mul(lifted[j], e), z
            ):
                raise UnsupportedAlgebraError("idempotent lifting lost orthogonality")
    return lifted


def _power_elt(a: Algebra, v: np.ndarray, e: int) -> np.ndarray:
    """v^e = L_v^e applied to the unit; each row of a block v is raised on its own."""
    powers = matpow(a.left_mult_matrix(np.atleast_2d(v)), e, a.p)
    return mulmod(powers, a.unit[:, None], a.p)[..., 0].reshape(np.shape(v))


# -- constructors ----------------------------------------------------------


def make_group_algebra(mult_table, p: int) -> Algebra:
    """Group algebra F_p[G] from a multiplication table (table[i][j] = i*j)."""
    table = np.asarray(mult_table, dtype=np.int64)
    n = table.shape[0]
    if table.shape != (n, n) or (table < 0).any() or (table >= n).any():
        raise ValueError("not a group: malformed table")
    identity = None
    for e in range(n):
        if all(table[e][j] == j and table[j][e] == j for j in range(n)):
            identity = e
            break
    if identity is None:
        raise ValueError("not a group: no identity element")
    for i in range(n):
        if not any(table[i][j] == identity and table[j][i] == identity for j in range(n)):
            raise ValueError(f"not a group: element {i} has no inverse")
    basis = np.eye(n, dtype=np.int64)  # row g is the group element g
    # Algebra checks associativity: (g_i g_j) g_k = g_i (g_j g_k) in F_p[G] iff it holds in the table
    return Algebra(p, basis[table], basis[identity], [f"g{i}" for i in range(n)])


def make_monomial_quotient(num_vars: int, relations, p: int, cutoff: int = 512) -> Algebra:
    """Commutative monomial quotient F_p[x1..xv]/(monomials), v <= 2.

    relations: iterable of exponent tuples.  Raises when the standard monomial
    basis does not close off within the cutoff.
    """
    if num_vars < 0 or num_vars > 2:
        raise ValueError("only up to two variables are supported")
    rels = [tuple(int(e) for e in r) for r in relations]
    for r in rels:
        if len(r) != num_vars or any(e < 0 for e in r):
            raise ValueError("relations must be exponent tuples of the variables")

    def divisible(mono, rel):
        return all(me >= re for me, re in zip(mono, rel))

    def is_standard(mono):
        return not any(divisible(mono, r) for r in rels)

    basis: list[tuple] = []
    frontier = [tuple([0] * num_vars)]
    seen = set(frontier)
    while frontier:
        mono = frontier.pop(0)
        if not is_standard(mono):
            continue
        basis.append(mono)
        if len(basis) > cutoff:
            raise ValueError("not finite dimensional within cutoff")
        for v in range(num_vars):
            nxt = tuple(e + (1 if t == v else 0) for t, e in enumerate(mono))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    basis.sort(key=lambda mono: (sum(mono), mono))
    index = {mono: i for i, mono in enumerate(basis)}
    n = len(basis)
    struct = np.zeros((n, n, n), dtype=np.int64)
    for i, mi in enumerate(basis):
        for j, mj in enumerate(basis):
            prod = tuple(x + y for x, y in zip(mi, mj))
            if is_standard(prod):
                struct[i, j, index[prod]] = 1
    unit = np.eye(n, dtype=np.int64)[index[tuple([0] * num_vars)]]

    def name(mono):
        if sum(mono) == 0:
            return "1"
        vars_ = ["x", "y"][:num_vars]
        parts = []
        for v, e in zip(vars_, mono):
            if e == 1:
                parts.append(v)
            elif e > 1:
                parts.append(f"{v}^{e}")
        return "*".join(parts)

    return Algebra(p, struct, unit, [name(m) for m in basis])


# -- modules ----------------------------------------------------------------


class FdModule:
    """Finite-dimensional one-sided module.

    A module built explicitly (a parsed input, a submodule, a quotient) keeps
    one dense action matrix per algebra basis element.  One built as b copies
    of a base module, a free module A^b or its dual D(A)^b, keeps only the
    base and b: its actions are block diagonal, ``act`` applies them copy by
    copy, and no (b d) x (b d) matrix of it is held.
    """

    def __init__(self, algebra: Algebra, side: str, dim: int, action, check: bool = True,
                 free_rank: int | None = None):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.algebra = algebra
        self.side = side
        self.dim = dim
        self._action = tuple(
            m if isinstance(m, Matrix) else Matrix(algebra.p, m) for m in action
        )
        if len(self._action) != algebra.dim:
            raise ValueError("need one action matrix per algebra basis element")
        for m in self._action:
            if m.rows != dim or m.cols != dim:
                raise ValueError("action matrices must be dim x dim")
        if free_rank is not None and free_rank * algebra.dim != dim:
            raise ValueError(f"free_rank {free_rank} needs dim {free_rank * algebra.dim}, not {dim}")
        self.free_rank = free_rank
        self._base: FdModule | None = None
        self.copies = 1
        self._fp: str | None = None
        if check:
            rep = validate_module(self)
            if not rep.ok:
                raise ValueError("invalid module: " + "; ".join(rep.violations))

    @classmethod
    def _copies_of(cls, base: "FdModule", b: int) -> "FdModule":
        """base^b, kept as base and b; base is an explicit module."""
        m = cls.__new__(cls)
        m.algebra, m.side, m.dim = base.algebra, base.side, base.dim * b
        m._action, m._base, m.copies, m._fp = None, base, b, None
        m.free_rank = None if base.free_rank is None else base.free_rank * b
        return m

    @property
    def base(self) -> "FdModule":
        """The explicit module of which this one is ``copies`` copies (itself when explicit)."""
        return self if self._base is None else self._base

    @property
    def action(self):
        """One action matrix per algebra basis element.  For copies of a base each
        block-diagonal matrix is built when it is read and not kept."""
        return self._action if self._base is None else _BlockActions(self._base, self.copies)

    @property
    def p(self) -> int:
        return self.algebra.p

    def action_of(self, avec):
        """Action matrix of an algebra element.

        For a block of k row vectors: the k actions as one (k, dim, dim) array.
        Only the actions of basis elements that some row uses are stacked, so acting
        by a few sparse elements, such as the radical generators, copies only a few.
        """
        avec = reduced(avec, self.p)
        base = self.base
        d = base.dim
        used = np.flatnonzero(avec.reshape(-1, self.algebra.dim).any(axis=0))
        stack = np.array([base._action[u].a for u in used], dtype=np.int64).reshape(used.size, d * d)
        acts = mulmod(avec[..., used], stack, self.p).reshape(avec.shape[:-1] + (d, d))
        if self.copies != 1:
            acts = _block_diagonal(acts, self.copies)
        return Matrix(self.p, acts) if avec.ndim == 1 else acts

    def fingerprint(self) -> str:
        """SHA-1 of the algebra, side, dimension and the bytes of every action matrix.

        Copies of a base hash each block-diagonal matrix one band of rows at a
        time, (d, b d), so the digest is that of the dense matrices.
        """
        if self._fp is None:
            h = hashlib.sha1()
            h.update(self.algebra.fingerprint().encode())
            h.update(self.side.encode())
            h.update(str(self.dim).encode())
            if self._base is None:
                for m in self._action:
                    h.update(m.a.tobytes())
            else:
                d, b = self._base.dim, self.copies
                band = np.zeros((d, b * d), dtype=np.int64)
                for m in self._base._action:
                    for r in range(b):
                        band[:, r * d:(r + 1) * d] = m.a
                        h.update(band)
                        band[:, r * d:(r + 1) * d] = 0
            self._fp = h.hexdigest()
        return self._fp

    def __eq__(self, other):
        return isinstance(other, FdModule) and (self is other or self.fingerprint() == other.fingerprint())

    def __hash__(self):
        return hash(self.fingerprint())

    def __repr__(self):
        return f"FdModule({self.side}, dim={self.dim}, p={self.p})"

    def as_left_over_opposite(self) -> "FdModule":
        """Right A-module seen as left A-opposite module (same matrices)."""
        if self.side == "left":
            raise ValueError("already a left module")
        if self._base is not None:
            return FdModule._copies_of(self._base.as_left_over_opposite(), self.copies)
        return FdModule(self.algebra.opposite(), "left", self.dim, self._action,
                        check=False, free_rank=self.free_rank)

    def is_zero(self) -> bool:
        return self.dim == 0


class _BlockActions(Sequence):
    """The action matrices of b copies of a base module, each built block diagonal on access."""

    def __init__(self, base: FdModule, b: int):
        self.base, self.b = base, b

    def __len__(self) -> int:
        return len(self.base._action)

    def __getitem__(self, u: int) -> Matrix:
        return Matrix(self.base.p, _block_diagonal(self.base._action[u].a, self.b))


def _block_diagonal(g: np.ndarray, b: int) -> np.ndarray:
    """kron(I_b, g) for each matrix g (r, c) of a stack (..., r, c): (..., b r, b c)."""
    lead, (r, c) = g.shape[:-2], g.shape[-2:]
    out = np.zeros(lead + (b, r, b, c), dtype=np.int64)
    for j in range(b):
        out[..., j, :, j, :] = g
    return out.reshape(lead + (b * r, b * c))


def _tiled(p: int, shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
           copies: int, row_step: int, col_step: int) -> SparseMatrix:
    """The entries (rows, cols, vals) repeated ``copies`` times, copy j shifted by j row_step rows
    and j col_step columns: the entry form of a block-diagonal matrix."""
    j = np.arange(copies)[:, None]
    return SparseMatrix(p, shape, (rows + j * row_step).ravel(), (cols + j * col_step).ravel(),
                        np.tile(vals, copies))


def _nonzeros(p: int, a: np.ndarray) -> SparseMatrix:
    """The entry form of a dense matrix with entries in [0, p)."""
    rows, cols = np.nonzero(a)
    return SparseMatrix(p, a.shape, rows, cols, a[rows, cols])


def act(m: FdModule, x, elements=None, dual: bool = False) -> np.ndarray:
    """rho(a) x: algebra elements acting on a block x (..., dim m, c) of column vectors of m.

    ``elements`` is a basis index u, giving (..., dim m, c); a block (k, dim A)
    of algebra elements, whose (k, dim m, dim m) actions broadcast against x as
    numpy's matmul does; or None for every basis element, giving (dim A, ...,
    dim m, c), one element at a time.  With ``dual`` the actions are transposed,
    the action on D(m): x^T rho(a) is act(m, x, a, dual=True)^T.  For b copies
    of a base module, x is read as (..., b, d, c), so the base's d x d actions
    are the only matrices used.
    """
    x = reduced(x, m.p)
    if elements is None:
        out = np.empty((m.algebra.dim,) + x.shape, dtype=np.int64)
        for u in range(m.algebra.dim):
            out[u] = act(m, x, u, dual)
        return out
    base, b = m.base, m.copies
    if isinstance(elements, (int, np.integer)):
        acts = base._action[elements].a
    else:
        acts = base.action_of(np.atleast_2d(elements))
    if dual:
        acts = acts.swapaxes(-1, -2)
    c = x.shape[-1]
    out = mulmod(acts[..., None, :, :], x.reshape(x.shape[:-2] + (b, base.dim, c)), m.p)
    return out.reshape(out.shape[:-3] + (m.dim, c))


def validate_module(m: FdModule) -> ValidationReport:
    """Check the action respects structure constants and the unit acts as 1.

    Copies of a base module are valid exactly when the base is."""
    if m.copies != 1:
        return validate_module(m.base)
    a = m.algebra
    n = a.dim
    violations = []
    if m.action_of(a.unit) != Matrix.identity(m.p, m.dim):
        violations.append("rho(unit) != id")
    # rho(e_i e_j) against rho(e_i) rho(e_j) (left) or rho(e_j) rho(e_i) (right)
    expected = m.action_of(a.structure.reshape(n * n, n)).reshape(n, n, m.dim, m.dim)
    acts = np.stack([x.a for x in m._action])
    if m.side == "left":
        got = mulmod(acts[:, None], acts[None, :], m.p)
    else:
        got = mulmod(acts[None, :], acts[:, None], m.p)
    bad = np.argwhere((got != expected).any(axis=(2, 3)))
    if bad.size:
        violations.append(f"action violates structure constants at ({bad[0, 0]},{bad[0, 1]})")
    return ValidationReport(not violations, violations)


class ModuleMap:
    """A-linear map between modules of the same side over the same algebra."""

    def __init__(self, source: FdModule, target: FdModule, matrix: Matrix, check: bool = True):
        if source.algebra.fingerprint() != target.algebra.fingerprint() or source.side != target.side:
            raise ValueError("source and target must share algebra and side")
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ValueError("matrix shape does not match modules")
        self.source = source
        self.target = target
        self.matrix = matrix
        if check and not self.commutes():
            raise ValueError("matrix does not commute with the action")

    def commutes(self, elements=None) -> bool:
        """True iff the matrix commutes with the action of every basis element, or of those
        indexed by ``elements``: between modules, Algebra.generating_basis() suffices."""
        f = self.matrix.a
        return all(np.array_equal(act(self.target, f, u), act(self.source, f.T, u, dual=True).T)
                   for u in (range(self.source.algebra.dim) if elements is None else elements))

    @property
    def p(self):
        return self.matrix.p

    @functools.cached_property
    def distinct_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, distinct, which) of a map between free modules, read once per map: the
        positions of its nonzero algebra entries, the distinct ones, and the index into
        ``distinct`` of the entry at each position."""
        return _distinct_entries(_free_block_entries(self))

    def __matmul__(self, other: "ModuleMap") -> "ModuleMap":
        if other.target is not self.source and other.target.fingerprint() != self.source.fingerprint():
            raise ValueError("composition mismatch")
        return ModuleMap(other.source, self.target, self.matrix @ other.matrix, check=False)

    def apply(self, v):
        return self.matrix.apply(v)

    def kernel(self) -> Subspace:
        return kernel_basis(self.matrix)

    def image(self) -> Subspace:
        return image_basis(self.matrix)

    def is_injective(self) -> bool:
        return self.kernel().dim == 0

    def is_surjective(self) -> bool:
        return rref(self.matrix)[2] == self.target.dim

    def is_isomorphism(self) -> bool:
        return self.source.dim == self.target.dim and self.is_injective()

    def inverse(self) -> "ModuleMap":
        if not self.is_isomorphism():
            raise ValueError("map is not invertible")
        inv = solve_matrix(self.matrix, Matrix.identity(self.p, self.target.dim))
        return ModuleMap(self.target, self.source, inv, check=False)

    @staticmethod
    def identity(m: FdModule) -> "ModuleMap":
        return ModuleMap(m, m, Matrix.identity(m.p, m.dim), check=False)

    @staticmethod
    def zero(source: FdModule, target: FdModule) -> "ModuleMap":
        return ModuleMap(source, target, Matrix.zeros(source.p, target.dim, source.dim), check=False)


# -- standard modules --------------------------------------------------------


def regular_module(a: Algebra, side: str = "left") -> FdModule:
    # e_i acts by x -> e_i x (left) or x -> x e_i (right); column j is e_i e_j or e_j e_i
    mult = a.structure if side == "left" else np.swapaxes(a.structure, 0, 1)
    action = [Matrix(a.p, mult[i].T) for i in range(a.dim)]
    return FdModule(a, side, a.dim, action, check=False, free_rank=1)


def free_module(a: Algebra, side: str, rank: int) -> FdModule:
    """Free module A^rank, kept as the regular module and rank (the regular module itself at rank 1)."""
    reg = regular_module(a, side)
    return reg if rank == 1 else FdModule._copies_of(reg, rank)


def _free_map_matrix(m: FdModule, gens: np.ndarray) -> np.ndarray:
    """Matrix of the A-linear map A^b -> m sending free generator r to gens[:, r].

    Column r * dim A + u is a_u . gens[:, r], in the basis order of free_module.
    """
    images = act(m, gens)  # (u, row, r)
    return np.transpose(images, (1, 2, 0)).reshape(m.dim, gens.shape[1] * m.algebra.dim)


def _generator_images(maps: np.ndarray, a: Algebra) -> np.ndarray:
    """Images of the free generators under maps A^b -> m, given as (..., dim m, b * dim A).

    Generator r is the unit of the r-th copy of A, so column r of the result
    (..., dim m, b) is the r-th column block of the map applied to the unit;
    the inverse of _free_map_matrix.
    """
    blocks = maps.reshape(maps.shape[:-1] + (maps.shape[-1] // a.dim, a.dim))
    return mulmod(blocks, a.unit[:, None], a.p)[..., 0]


def _free_block_entries(d: ModuleMap) -> np.ndarray:
    """Algebra-entry matrix M with d = (left) multiplication by M, free modules.

    Entry (r, s) is component r of the image of generator s: (b_tgt, b_src, dim A).
    """
    a = d.source.algebra
    gens = _generator_images(d.matrix.a, a)  # (b_tgt * dim A, b_src)
    return gens.reshape(d.target.free_rank, a.dim, d.source.free_rank).transpose(0, 2, 1)


def _distinct_entries(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, distinct, which) for an entry array (b_tgt, b_src, dim A): the positions of
    the nonzero entries, the distinct nonzero entries as algebra elements, and the index into
    ``distinct`` of the entry at each position."""
    rows, cols = np.nonzero(entries.any(axis=2))
    distinct, which = np.unique(entries[rows, cols], axis=0, return_inverse=True)
    return rows, cols, distinct, which.reshape(-1)


def _entry_actions(entries: np.ndarray, n: FdModule) -> SparseMatrix:
    """The block matrix whose (r, s) block is the action on n of the algebra element
    entries[r, s], by its nonzero entries: only the nonzero entries act.  For n = N^c
    each block is c copies of the action on N, on its diagonal."""
    rows, cols, _ = entries.shape
    dn, e = n.dim, n.base.dim
    r, s = np.nonzero(entries.any(axis=2))
    acts = n.base.action_of(entries[r, s])
    q, x, y = np.nonzero(acts)
    # copy j of block (r, s): rows r * dn + j * e + x, columns s * dn + j * e + y
    return _tiled(n.p, (rows * dn, cols * dn), r[q] * dn + x, s[q] * dn + y, acts[q, x, y], n.copies, e, e)


def simple_modules(a: Algebra, side: str = "left") -> list[FdModule]:
    """The one-dimensional simples (split basic class), ordered by character."""
    a.assert_supported()
    sims = []
    for ch in a.characters():
        action = [Matrix(a.p, [[int(ch[i])]]) for i in range(a.dim)]
        sims.append(FdModule(a, side, 1, action, check=False))
    return sims


def direct_sum(mods: list[FdModule]) -> FdModule:
    if not mods:
        raise ValueError("need at least one summand")
    a = mods[0].algebra
    side = mods[0].side
    dim = sum(m.dim for m in mods)
    action = []
    for i in range(a.dim):
        blocks = [m.action[i].a for m in mods]
        out = np.zeros((dim, dim), dtype=np.int64)
        off = 0
        for b in blocks:
            out[off : off + b.shape[0], off : off + b.shape[1]] = b
            off += b.shape[0]
        action.append(Matrix(a.p, out))
    ranks = [m.free_rank for m in mods]
    fr = sum(ranks) if all(r is not None for r in ranks) else None
    return FdModule(a, side, dim, action, check=False, free_rank=fr)


def dual_module(m: FdModule) -> FdModule:
    """F_p-linear dual; side swaps, action matrices transpose.  D(N^b) is kept as D(N)^b."""
    if m.copies != 1:
        return FdModule._copies_of(dual_module(m.base), m.copies)
    side = "right" if m.side == "left" else "left"
    return FdModule(m.algebra, side, m.dim, [x.transpose() for x in m._action], check=False)


def dual_map(f: ModuleMap) -> ModuleMap:
    """Dual of a map: D(target) -> D(source) with the transposed matrix."""
    return ModuleMap(dual_module(f.target), dual_module(f.source), f.matrix.transpose(), check=False)


class TensorSpace:
    """M tensor_A N as a quotient of the k-tensor square, pair (s, t) at index s * dim N + t.

    project maps tensor-square coordinates to quotient coordinates and lift
    maps these to canonical representatives, so project(lift(c)) == c; both
    take a vector or a block of rows.  For free M = A^b, relations is None and
    the quotient is N^b: a_u tensor x goes to a_u . x in its copy, and x lifts
    to unit tensor x.  Otherwise the quotient coordinates are the complement
    columns of the relation subspace.
    """

    def __init__(self, m: FdModule, n: FdModule, relations: Subspace | None):
        self.p, self.n, self.b, self.relations = n.p, n, m.free_rank, relations
        if relations is None:
            self.dim = self.b * n.dim
        else:
            self._comp = relations.complement_cols()
            self.dim = len(self._comp)

    def project(self, rows) -> np.ndarray:
        if self.relations is not None:
            return np.take(self.relations.reduce(rows), self._comp, axis=-1)
        rows = reduced(rows, self.p)
        lead, da, dn = rows.shape[:-1], self.n.algebra.dim, self.n.dim
        # the coefficients x_u of a_u tensor n, one column per (row, copy); a_u tensor x_u goes to a_u . x_u
        k = math.prod(lead)
        x = rows.reshape(k, self.b, da, dn).transpose(2, 3, 0, 1).reshape(da, dn, k * self.b)
        out = reduced(sum(act(self.n, x[u], u) for u in range(da)), self.p)  # (dn, rows * copies)
        return out.T.reshape(lead + (self.dim,))

    def lift(self, coords) -> np.ndarray:
        coords = reduced(coords, self.p)
        lead = coords.shape[:-1]
        if self.relations is not None:
            out = np.zeros(lead + (self.relations.ambient_dim,), dtype=np.int64)
            out[..., self._comp] = coords
            return out
        a = self.n.algebra
        out = coords.reshape(lead + (self.b, 1, self.n.dim)) * a.unit[:, None] % self.p
        return out.reshape(lead + (self.b * a.dim * self.n.dim,))


def tensor_over_algebra(m: FdModule, n: FdModule) -> TensorSpace:
    """Balanced tensor product of a right module with a left module."""
    if m.side != "right" or n.side != "left":
        raise ValueError("tensor needs (right, left) modules")
    if m.algebra.fingerprint() != n.algebra.fingerprint():
        raise ValueError("modules over different algebras")
    if m.free_rank is not None:
        return TensorSpace(m, n, None)
    return TensorSpace(m, n, _tensor_relations(m, n))


def _tensor_relations(m: FdModule, n: FdModule) -> Subspace:
    """The span of (m_s e_i) tensor n_t - m_s tensor (e_i n_t), pair (s, t) at s * dim n + t.

    For m = N^b the relations of copy r are those of N tensor n, on the
    coordinates from r * dim N * dim n on, so their canonical RREF is one power.
    """
    if m.copies != 1:
        return _tensor_relations(m.base, n).power(m.copies)
    p, dm, dn = m.p, m.dim, n.dim
    # row (i, s, t) is (m_s e_i) tensor n_t - m_s tensor (e_i n_t); zero rows dropped
    eye_m = np.eye(dm, dtype=np.int64)
    eye_n = np.eye(dn, dtype=np.int64)
    rels = np.vstack([np.kron(ma.a.T, eye_n) - np.kron(eye_m, na.a.T)
                      for ma, na in zip(m.action, n.action)]) % p
    return Subspace(p, dm * dn, rels[rels.any(axis=1)])


def hom_over_algebra(m: FdModule, n: FdModule) -> Subspace:
    """Hom_A(m, n) inside F^(dim n * dim m), row-major matrix coordinates."""
    if m.side != n.side or m.algebra.fingerprint() != n.algebra.fingerprint():
        raise ValueError("modules must share algebra and side")
    p = m.p
    dm, dn = m.dim, n.dim
    if dm == 0 or dn == 0:
        return Subspace.full(p, dn * dm)
    if m.free_rank is not None:
        # the maps with one generator image n_v, in generator-coordinate order
        hom = FreeHomCoords(m, n)
        return Subspace(p, dn * dm, hom.to_ambient(np.eye(hom.dim, dtype=np.int64)).reshape(hom.dim, dn * dm))
    if n.copies != 1:
        # Hom(m, N^c) = Hom(m, N)^c: row-major, the rows of copy j fill coordinates j * dim N * dm onwards
        return hom_over_algebra(m, n.base).power(n.copies)
    conds = []
    eye_m = Matrix.identity(p, dm)
    eye_n = Matrix.identity(p, dn)
    for i in range(m.algebra.dim):
        # X rho_m - rho_n X = 0, vec row-major: (I kron rho_m^T - rho_n kron I) vec X
        c = kron(eye_n, m.action[i].transpose()) - kron(n.action[i], eye_m)
        conds.append(c.a)
    stacked = Matrix(p, np.vstack(conds))
    return kernel_basis(stacked)


class FreeHomCoords:
    """Hom_A(A^b, N) in generator coordinates: N^b, the images of the b free generators.

    Coordinate r * dim N + v is component v of the image of generator r, so
    no basis of maps in the (dim N * dim A^b)-dimensional matrix space is built.
    Maps between Hom spaces, (dim tgt, dim self), come by their nonzero entries.
    """

    def __init__(self, pmod: FdModule, qmod: FdModule):
        self.pmod = pmod
        self.qmod = qmod
        self.b = pmod.free_rank
        self.dq = qmod.dim
        self.dim = self.b * self.dq
        self.p = pmod.p

    def to_ambient(self, coords: np.ndarray) -> np.ndarray:
        """The maps (k, dim N, dim P) with a block of coordinates (k, dim), in one product:
        row c holds the images of map c's b generators."""
        k = len(coords)
        gens = reduced(coords, self.p).reshape(k * self.b, self.dq).T
        return _free_map_matrix(self.qmod, gens).reshape(self.dq, k, self.pmod.dim).swapaxes(0, 1)

    def coords(self, rows: np.ndarray) -> np.ndarray:
        """Coordinates of one row-major map (dim N * dim P) or of a block of them.

        The generator images are read off any number r of rows, so a map from
        P into any space, such as the row space of ``solve``'s post, gives its
        r * b coordinates, generator by generator."""
        lead, dp = rows.shape[:-1], self.pmod.dim
        r = rows.shape[-1] // dp if dp else 0
        gens = _generator_images(rows.reshape(lead + (r, dp)), self.pmod.algebra)  # (..., r, b)
        return gens.swapaxes(-1, -2).reshape(lead + (r * self.b,))

    def solve(self, post: Matrix, maps: np.ndarray) -> np.ndarray | None:
        """Coordinates (k, dim) of the g with post o g = maps[c], for a stack (k, post.rows, dim P),
        or None when some system has no solution.  A map out of A^b is fixed by its generator
        images, so one solve against post takes every generator image of every map as a column."""
        k = len(maps)
        gens = self.coords(maps.reshape(k, post.rows * self.pmod.dim)).reshape(k * self.b, post.rows)
        sol = solve_matrix(post, Matrix(self.p, gens.T))
        return None if sol is None else sol.a.T.reshape(k, self.dim)

    def postcompose(self, g: ModuleMap, tgt) -> SparseMatrix:
        """The matrix of f -> g o f, kron(I_b, g): the nonzeros of g, one copy per generator."""
        a = g.matrix.a
        (r, c), (x, y) = a.shape, np.nonzero(a)
        return _tiled(self.p, (self.b * r, self.b * c), x, y, a[x, y], self.b, r, c)

    def precompose(self, d: ModuleMap, tgt) -> SparseMatrix:
        """The matrix of f -> f o d into tgt = Hom(source of d, N): the entry actions of d, transposed."""
        return _entry_actions(_free_block_entries(d).transpose(1, 0, 2), self.qmod)  # d: A^c -> A^b


class SubHomCoords:
    """Hom_A(M, N) in the coordinates of its RREF basis from ``hom_over_algebra``.

    The maps between Hom spaces read ``tgt.coords``, which for this type checks
    that each image lies in tgt, and keep the nonzeros.
    """

    def __init__(self, pmod: FdModule, qmod: FdModule):
        self.pmod = pmod
        self.qmod = qmod
        self.sub = hom_over_algebra(pmod, qmod)
        self.dim = self.sub.dim
        self.coords = self.sub.coords
        self.p = pmod.p

    def to_ambient(self, coords: np.ndarray) -> np.ndarray:
        return self.sub.from_coords(coords).reshape(len(coords), self.qmod.dim, self.pmod.dim)

    def _maps(self) -> np.ndarray:
        """The basis maps (dim, dim N, dim M)."""
        return self.sub.basis.a.reshape(self.dim, self.qmod.dim, self.pmod.dim)

    def solve(self, post: Matrix, maps: np.ndarray) -> np.ndarray | None:
        """Coordinates (k, dim) of the g with post o g = maps[c], for a stack (k, post.rows, dim M),
        or None when some system has no solution: one solve whose columns are post o (basis map h)
        and whose right-hand sides are the k maps."""
        k, flat = len(maps), post.rows * self.pmod.dim
        posted = mulmod(post.a, self._maps(), self.p)  # (dim, post.rows, dim M)
        sol = solve_matrix(Matrix(self.p, posted.reshape(self.dim, flat).T), Matrix(self.p, maps.reshape(k, flat).T))
        return None if sol is None else sol.a.T

    def _images(self, images: np.ndarray, tgt) -> SparseMatrix:
        """The tgt coordinates of the images (dim, ...) of the basis maps, one column each."""
        if not self.dim:
            return SparseMatrix(self.p, (tgt.dim, 0), [], [], [])
        return _nonzeros(self.p, tgt.coords(images.reshape(self.dim, -1)).T)

    def postcompose(self, g: ModuleMap, tgt) -> SparseMatrix:
        """The matrix of f -> g o f into tgt = Hom(M, target of g)."""
        return self._images(mulmod(g.matrix.a, self._maps(), self.p), tgt)

    def precompose(self, d: ModuleMap, tgt) -> SparseMatrix:
        """The matrix of f -> f o d into tgt = Hom(source of d, N)."""
        return self._images(mulmod(self._maps(), d.matrix.a, self.p), tgt)


def hom_coords(m: FdModule, n: FdModule) -> FreeHomCoords | SubHomCoords:
    """Hom_A(m, n) with coordinates: generator images N^b out of a free m = A^b, else
    the RREF basis of ``hom_over_algebra``."""
    return FreeHomCoords(m, n) if m.free_rank is not None else SubHomCoords(m, n)


def stable_hom(m: FdModule, n: FdModule) -> Subquotient:
    """Hom_A(m, n) modulo maps factoring through a projective.

    A map factors through some projective iff it factors through the
    projective cover surjection of n, so the factoring subspace is the image
    of Hom(m, P(n)) under postcomposition with the cover.
    """
    from .resolve import projective_cover

    hom = hom_over_algebra(m, n)
    cover, pi, _ = projective_cover(n)
    hom_to_cover = hom_over_algebra(m, cover)
    maps = hom_to_cover.basis.a.reshape(hom_to_cover.dim, cover.dim, m.dim)
    factored = Subspace(m.p, n.dim * m.dim,
                        mulmod(pi.matrix.a, maps, m.p).reshape(hom_to_cover.dim, n.dim * m.dim))
    return Subquotient(hom, factored)


def socle(m: FdModule) -> Subspace:
    """Annihilator of rad(A) in m: the common kernel of the radical generators; soc(N^b) = soc(N)^b."""
    if m.copies != 1:
        return socle(m.base).power(m.copies)
    gens = m.algebra.radical_generators()
    return kernel_basis(Matrix(m.p, m.action_of(gens).reshape(len(gens) * m.dim, m.dim)))


def radical_submodule(m: FdModule) -> Subspace:
    """rad(A) * m as a subspace of m: the sum of the images of the radical generators.

    For free m = A^b it is (rad A)^b, read off rad A's RREF with no elimination, and
    rad(N^b) = rad(N)^b.
    """
    if m.free_rank is not None:
        return m.algebra.radical().power(m.free_rank)
    if m.copies != 1:
        return radical_submodule(m.base).power(m.copies)
    gens = m.algebra.radical_generators()
    # the columns x . m_j of each generator's action; the actions are freed before eliminating
    return Subspace(m.p, m.dim, m.action_of(gens).transpose(0, 2, 1).reshape(len(gens) * m.dim, m.dim))


def top(m: FdModule) -> tuple[FdModule, ModuleMap]:
    """m / rad(A) m with the canonical projection."""
    return quotient_module(m, radical_submodule(m))


def submodule(m: FdModule, generators) -> tuple[FdModule, ModuleMap]:
    """Smallest submodule containing the generators, with its inclusion."""
    gens = [np.asarray(g, dtype=np.int64) % m.p for g in generators]
    for g in gens:
        if g.shape != (m.dim,):
            raise ValueError("generator has wrong length")
    span = Subspace(m.p, m.dim, np.array(gens, dtype=np.int64) if gens else None)
    while True:
        basis = span.basis.a
        images = act(m, basis.T).transpose(0, 2, 1).reshape(-1, m.dim)  # a_u . basis rows
        bigger = Subspace(m.p, m.dim, np.vstack([basis, images]))
        if bigger.dim == span.dim:
            break
        span = bigger
    return submodule_from_subspace(m, span)


def submodule_from_subspace(m: FdModule, span: Subspace) -> tuple[FdModule, ModuleMap]:
    """Action-stable subspace as a module, with inclusion (stability checked)."""
    basis = span.basis.a
    try:  # one basis element at a time: the images of the basis are dim m x dim span
        action = [Matrix(m.p, span.coords(act(m, basis.T, u).T).T) for u in range(m.algebra.dim)]
    except ValueError:
        raise ValueError("not action-stable") from None
    sub = FdModule(m.algebra, m.side, span.dim, action, check=False)
    incl = ModuleMap(sub, m, Matrix(m.p, basis.T.copy()), check=False)
    return sub, incl


def quotient_module(m: FdModule, sub: Subspace) -> tuple[FdModule, ModuleMap]:
    """m / sub with the canonical projection; sub must be action-stable."""
    if not all(sub.contains(x.apply(sub.basis.a)) for x in m.action):
        raise ValueError("not action-stable")
    action = [quotient_and_induced(m.action[i], sub, sub) for i in range(m.algebra.dim)]
    quot = FdModule(m.algebra, m.side, m.dim - sub.dim, action, check=False)
    proj = ModuleMap(m, quot, quotient_projection(sub), check=False)
    return quot, proj


@dataclass
class IsoResult:
    status: str  # "isomorphic" | "not_isomorphic" | "not_certified"
    witness: ModuleMap | None = None
    reason: str = ""

    def __bool__(self):
        return self.status == "isomorphic"


def is_isomorphic(m: FdModule, n: FdModule, seed: int = 0, tries: int = 200) -> IsoResult:
    """Certified isomorphism search over Hom_A(m, n).

    Returns a verified invertible ModuleMap on success.  Only dimension
    mismatch or an empty Hom space justify "not_isomorphic"; otherwise a
    fruitless search reports "not_certified".
    """
    if m.dim != n.dim:
        return IsoResult("not_isomorphic", reason="dimensions differ")
    if m.dim == 0:
        return IsoResult("isomorphic", ModuleMap.zero(m, n))
    hom = hom_over_algebra(m, n)
    if hom.dim == 0:
        return IsoResult("not_isomorphic", reason="no nonzero homomorphisms")

    def try_vec(vec):
        mat = Matrix(m.p, vec.reshape(n.dim, m.dim))
        if rref(mat)[2] == m.dim:
            return ModuleMap(m, n, mat, check=True)
        return None

    for v in hom.basis.a:
        w = try_vec(v)
        if w is not None:
            return IsoResult("isomorphic", w)
    rng = np.random.default_rng(seed)
    for _ in range(tries):
        coeffs = rng.integers(0, m.p, size=hom.dim)
        vec = hom.from_coords(coeffs)
        if not vec.any():
            continue
        w = try_vec(vec)
        if w is not None:
            return IsoResult("isomorphic", w)
    return IsoResult("not_certified", reason=f"no isomorphism found in {tries} seeded tries")
