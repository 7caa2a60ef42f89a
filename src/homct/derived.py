"""Tor, Ext, connecting homomorphisms, long exact sequences, Tate homology.

This module is the chain layer of the package.  One chain type,
``TensorChain``, is P tensor_A n over a projective resolution P or, as
``TateChain``, over the window of a complete resolution; ``ExtChain`` is
Hom_A(P, n).  Both read (co)homology by one rule, ``_homology``, and keep
their data by one lifetime rule (``_Chain``): a homology space lives until
the end of the degree of the request that made it (``resolve.end_degree``),
and a nonzero differential until the homology on both of its sides is
known.  The functoriality in the second argument is three functions:
``tensor_map`` (id_{P_i} tensor g between memoized chains), ``tor_map`` and
``ext_map`` (Tor_i(m, g) and Ext^j(m, g) in class coordinates).  Other modules build no
tensor differential and no second-argument map of their own.  A differential
d tensor id_n between free components, and f -> f o d on Hom(-, n), is zero
exactly when every algebra entry of d annihilates n (``_acts_as_zero``).  Over
a local algebra with rad^2 = 0, such as A2, the entries of a minimal
resolution lie in rad A and every cosyzygy and syzygy is semisimple, so every
stage of a cosyzygy tower or of the duality route's Ext cotower is such a
chain.  The zero is read off the entries, never built for homology, and the
cycles are the whole component.  A nonzero differential is held as entry
triples (``exactla.SparseMatrix``), as ``algmod._entry_actions`` and the Hom
precompositions write it, and homology eliminates only its core of nonzero
rows and columns; no dense copy is kept.

Homology spaces always carry cycle representatives (through Subquotient), so
connecting maps and tower transition maps are computed on witnesses and then
recorded as matrices in class coordinates.  Tor resolves its first argument
only; sensitivity to the second argument enters through functorial maps and
the towers in the completion module.  The Ext cochains Hom_A(P_j, N) are
``algmod.hom_coords`` spaces: out of a free P_j = A^b a cochain is its b
generator images, a vector of N^b, so the differential is the block matrix
of the actions of d_{j+1}'s algebra entries on N and a second-argument map
is kron(I_b, g); no basis of maps is built and no Kronecker system is solved.
Out of a non-free P_j the cochains keep the RREF basis of the Hom subspace.

Connecting maps in Tor and in Ext are one snake (``_connecting``) read off
the short exact sequence 0 -> N' -f-> N -g-> N'' -> 0.  The sequence
eliminates f and g once each (``exactla.Solver``) and keeps, for every basis
element u of A, the operator V_u = T_f . act_u(N) . S_g, where S_g is the
section of g and T_f the transform with T_f f = rref(f).  On free P_i and
P_{i-1}, a differential is d_i = sum_u D_u a_u with D_u the coefficient
matrices of its entries, so T_f applied to the boundary of the lift of a
cycle y of P_i tensor N'' is sum_u (D_u tensor V_u) y.  Its rows below rank f
must vanish (the boundary lies in im f), and its top rows are the preimage
under id tensor f: the middle chain P tensor N is never built.  In Ext a
cocycle of Hom(P_{i-1}, N'') = (N'')^b is its generator images y_s, and the
lifted cocycle composed with d_i sends generator t of P_i to
sum_s e_st . S_g y_s, so the Ext snake is the Tor snake over d_i's entries
with rows and columns swapped, and its output is in generator coordinates of
Hom(P_i, N') already; no map is lifted and no A-linearity is checked, as
generator images fix the map.  When the top classes are unit vectors (zero
differentials on both sides), the map is sum_u D_u tensor scatter(V_u)
itself, written block by block from the entries of d_i with no
representative block.  On a non-free P the map is two solves through the
middle chain, the same for both functors: lift through id tensor g or
Hom(P, g), apply the middle differential, pull back through id tensor f or
Hom(P, f).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algmod import (
    FdModule,
    FreeHomCoords,
    ModuleMap,
    SubHomCoords,
    TensorSpace,
    _block_diagonal,
    _entry_actions,
    _free_block_entries,
    _nonzeros,
    act,
    hom_coords,
    tensor_over_algebra,
)
from .exactla import (
    Matrix,
    Solver,
    SparseMatrix,
    Subquotient,
    Subspace,
    image_basis,
    kernel_basis,
    kron,
    mulmod,
    solve_matrix,
)
from .resolve import CompleteResolution, Resolution, _degree_scoped, _memoized, min_proj_resolution

__all__ = [
    "HomologySpace",
    "ShortExactSeq",
    "syzygy_ses",
    "TensorChain",
    "ExtChain",
    "tor",
    "ext",
    "connecting_tor",
    "connecting_ext",
    "les_check",
    "tate_tor",
    "tensor_chain",
    "ext_chain",
    "tensor_map",
    "tor_map",
    "ext_map",
    "second_arg_tensor_matrix",
    "second_arg_ext_matrix",
]


@dataclass
class HomologySpace:
    """Homology in one degree with class coordinates and representatives."""

    degree: int
    sq: Subquotient | None  # None encodes a structurally zero space

    @property
    def dim(self) -> int:
        return 0 if self.sq is None else self.sq.dim

    def class_of(self, v: np.ndarray) -> np.ndarray:
        if self.sq is None:
            return np.zeros(np.shape(v)[:-1] + (0,), dtype=np.int64)
        return self.sq.class_of(v)

    def representative(self, cls: np.ndarray) -> np.ndarray:
        if self.sq is None:
            raise ValueError("zero homology space has no representatives")
        return self.sq.representative(cls)


class ShortExactSeq:
    """0 -> left -> middle -> right -> 0 of same-side modules (exactness checked unless check=False).

    f and g are each eliminated once (``Solver``), on first use or by the
    check, and kept with the snake operators, however many connecting maps
    read them.  The check reads the solvers' ranks: f is injective iff its
    rank is dim left, g is surjective iff its rank is dim right, and then
    im f = ker g iff g f = 0 and dim left + dim right = dim middle.
    """

    def __init__(self, f: ModuleMap, g: ModuleMap, check: bool = True):
        if f.target is not g.source and f.target.fingerprint() != g.source.fingerprint():
            raise ValueError("maps do not share the middle module")
        self.f = f
        self.g = g
        self.left = f.source
        self.middle = f.target
        self.right = g.target
        if check and self.f_solver.rank != self.left.dim:
            raise ValueError("first map is not injective")
        if check and self.g_solver.rank != self.right.dim:
            raise ValueError("second map is not surjective")
        if check and (self.left.dim + self.right.dim != self.middle.dim or not (g.matrix @ f.matrix).is_zero()):
            raise ValueError("image != kernel at the middle")

    @functools.cached_property
    def f_solver(self) -> Solver:
        """f eliminated once: its transform T_f pulls a vector of im f back to its preimage."""
        return Solver(self.f.matrix)

    @functools.cached_property
    def g_solver(self) -> Solver:
        """g eliminated once: its section S_g lifts through g."""
        return Solver(self.g.matrix)

    @functools.cached_property
    def snake_operators(self) -> np.ndarray:
        """V_u = T_f . act_u(middle) . S_g for every algebra basis element u: (dim A, dim middle, dim right).

        For a middle of b copies, such as an injective D(A)^b, act_u . S_g is b products of
        the base's d x d action by d rows of S_g."""
        return mulmod(self.f_solver.transform, act(self.middle, self.g_solver.section()), self.f.p)


def syzygy_ses(n: FdModule, k: int) -> ShortExactSeq:
    """0 -> Omega_k n -> P_{k-1} -> Omega_{k-1} n -> 0 from n's minimal resolution (k >= 1),
    checked once per process; every reader shares its eliminations and snake operators."""
    res = min_proj_resolution(n, k)
    incl, cover = res.syzygy_incl(k), res.cover_map(k - 1)
    return _memoized(("syzygy_ses", n.fingerprint(), k), lambda: ShortExactSeq(incl, cover))


def _homology(i: int, p: int, dim: int, out, into) -> HomologySpace:
    """ker(out()) / im(into()) in degree i, where the space has dimension dim.

    A zero space needs no map: then neither is called.  A map that returns None
    is zero: its kernel is the whole space, its image is zero, and neither is
    eliminated (the canonical RREFs are those the eliminations would give).
    A nonzero map is a ``SparseMatrix``; Z is eliminated from its core before
    B's core is built, so at most one dense core is alive at a time.
    """
    if dim == 0:
        return HomologySpace(i, None)
    d_out = out()
    z = Subspace.full(p, dim) if d_out is None else d_out.kernel()
    d_in = into()
    b = Subspace.zero(p, dim) if d_in is None else d_in.transpose().row_space()
    return HomologySpace(i, Subquotient(z, b))


_UNBUILT = object()


class _Chain:
    """The lifetime rule of the chain types: differentials and homology spaces, memoized.

    A differential joins two degrees (``_sides``).  A nonzero one is held as entry
    triples, a ``SparseMatrix`` whose core homology eliminates, and is freed once the
    homology on both of its sides is known, as no homology reads it again; a later
    reader gets it rebuilt (``_differential``), and not kept.  A zero one is kept as
    None, which costs nothing.  A homology space is registered with the memo layer,
    which drops it when the degree of the request that made it ends
    (``resolve.end_degree``); the degrees known stay, so a differential between
    two degrees of the request is freed when the later of them is read.  Every
    reader returns the value it built or found and never reads a dict twice.
    """

    def __init__(self, res, n: FdModule):
        self.res = res
        self.n = n
        self._diffs: dict[int, SparseMatrix | None] = {}  # None: zero, never built for homology
        self._homology: dict[int, HomologySpace] = {}
        self._known: set[int] = set()  # degrees whose homology has been made

    def _sides(self, j: int) -> tuple[int, int]:
        raise NotImplementedError

    def _build(self, j: int) -> SparseMatrix | None:
        raise NotImplementedError

    def _differential(self, j: int) -> SparseMatrix | None:
        d = self._diffs.get(j, _UNBUILT)
        if d is _UNBUILT:
            d = self._build(j)
            if d is None or not self._known.issuperset(self._sides(j)):
                self._diffs[j] = d
        return d

    def differential(self, j: int) -> Matrix:
        """The differential out of degree j as a dense matrix, for readers that need one; it is
        made on each call and not kept.  Homology never asks for it."""
        d = self._differential(j)
        return Matrix.zeros(self.n.p, self.dim(self._sides(j)[1]), self.dim(j)) if d is None else d.to_matrix()

    def _read(self, i: int, out: int, into: int | None) -> HomologySpace:
        """ker d_out / im d_into in degree i, made once while it lives."""
        h = self._homology.get(i)
        if h is None:
            h = self._homology[i] = _homology(i, self.n.p, self.dim(i), lambda: self._differential(out),
                                              lambda: None if into is None else self._differential(into))
            self._known.add(i)
            for j in (out, into):
                if j is not None and self._known.issuperset(self._sides(j)) and self._diffs.get(j) is not None:
                    self._diffs.pop(j, None)
            _degree_scoped(self, i)
        return h

    def drop_homology(self, i: int) -> None:
        self._homology.pop(i, None)


class TensorChain(_Chain):
    """The chain complex P tensor_A n for a fixed resolution P of m (right)."""

    def __init__(self, res: Resolution | CompleteResolution, n: FdModule):
        if res.module.side != "right" or n.side != "left":
            raise ValueError("tensor chain needs a right-module resolution and a left module")
        super().__init__(res, n)
        self._components: dict[int, TensorSpace | None] = {}

    def _space(self, j: int) -> FdModule | None:
        """The projective in degree j; None below degree 0."""
        return self.res.proj(j) if j >= 0 else None

    def component(self, j: int) -> TensorSpace | None:
        if j not in self._components:
            space = self._space(j)
            self._components[j] = None if space is None else tensor_over_algebra(space, self.n)
        return self._components[j]

    def dim(self, j: int) -> int:
        c = self.component(j)
        return 0 if c is None else c.dim

    def _sides(self, j: int) -> tuple[int, int]:
        return j, j - 1

    def _build(self, j: int) -> SparseMatrix | None:
        """d_j tensor id_n, or None when it is zero: at the boundary, or when
        ``_acts_as_zero`` reads it off d_j's entries, so no zero matrix is built."""
        src, tgt = self.component(j), self.component(j - 1)
        if src is None or tgt is None or src.dim == 0 or tgt.dim == 0:
            return None
        d = self.res.differential(j)
        return None if _acts_as_zero(d, self.n) else first_arg_tensor_matrix(d, src, tgt, self.n)

    def homology(self, i: int) -> HomologySpace:
        return self._read(i, i, i + 1)


class TateChain(TensorChain):
    """T tensor_A n for a complete resolution T, in every degree of its window.

    Only the source of the components differs: ``tcx.space`` raises outside
    the window, so a degree there is an error, never a silent zero.
    """

    def _space(self, j: int) -> FdModule:
        return self.res.space(j)

    # an entry of its own, which the tracer times apart from TensorChain's
    homology = TensorChain.homology


def _acts_as_zero(d: ModuleMap, n: FdModule) -> bool:
    """Are d tensor id_n and f -> f o d on Hom(-, n) zero?  Decided from d's algebra entries
    between free modules, False otherwise.

    Block (r, s) of d tensor id_n, and block (s, r) of f -> f o d, is the action on n of the
    entry (r, s), so both maps are zero iff every distinct nonzero entry annihilates n: one
    product of those entries, which d keeps, with n's actions.  Testing the basis elements an
    entry uses would not do, as over a group algebra the entries are sums such as g - 1, which
    annihilate the trivial module while g and 1 do not.
    """
    if d.source.free_rank is None or d.target.free_rank is None:
        return False
    distinct = d.distinct_entries[2]
    return not distinct.size or not n.base.action_of(distinct).any()


def first_arg_tensor_matrix(d: ModuleMap, src: TensorSpace, tgt: TensorSpace, n: FdModule) -> SparseMatrix:
    """d tensor id_n between tensor components, by its nonzero entries."""
    if d.source.free_rank is not None and d.target.free_rank is not None:
        return _entry_actions(_free_block_entries(d), n)
    full = kron(d.matrix, Matrix.identity(n.p, n.dim))
    return _nonzeros(n.p, tgt.project(full.apply(src.lift(np.eye(src.dim, dtype=np.int64)))).T)


def second_arg_tensor_matrix(g: ModuleMap, src: TensorSpace, tgt: TensorSpace, pmod: FdModule) -> Matrix:
    """Matrix of id_P tensor g between components with the same first argument."""
    p = g.p
    if pmod.free_rank is not None:
        return Matrix(p, _block_diagonal(g.matrix.a, pmod.free_rank))
    full = kron(Matrix.identity(p, pmod.dim), g.matrix)
    return Matrix(p, tgt.project(full.apply(src.lift(np.eye(src.dim, dtype=np.int64)))).T)


def tensor_chain(m: FdModule, n: FdModule, depth: int) -> TensorChain:
    """Memoized tensor chain for (resolution of m) tensor n, built to depth."""
    res = min_proj_resolution(m, depth)
    return _memoized(("tensor", m.fingerprint(), n.fingerprint()), lambda: TensorChain(res, n))


def tor(m: FdModule, n: FdModule, i: int) -> HomologySpace:
    """Tor_i(m, n) = H_i(P tensor_A n); zero for i < 0 by convention."""
    if i < 0:
        return HomologySpace(i, None)
    tc = tensor_chain(m, n, i + 1)
    return tc.homology(i)


def tensor_map(g: ModuleMap, m: FdModule, i: int) -> Matrix:
    """id_{P_i} tensor g between the memoized tensor chains of m with g's source and target."""
    src, tgt = tensor_chain(m, g.source, i + 1), tensor_chain(m, g.target, i + 1)
    return second_arg_tensor_matrix(g, src.component(i), tgt.component(i), src.res.proj(i))


def tor_map(g: ModuleMap, m: FdModule, i: int) -> Matrix:
    """Tor_i(m, g) in class coordinates; a zero matrix when either side is zero."""
    ha, hb = tor(m, g.source, i), tor(m, g.target, i)
    if ha.dim == 0 or hb.dim == 0:
        return Matrix.zeros(m.p, hb.dim, ha.dim)
    return hb.sq.induced_from(ha.sq, tensor_map(g, m, i))


class ExtChain(_Chain):
    """The cochain complex Hom_A(P, n) for a fixed resolution P of m."""

    def __init__(self, res: Resolution, n: FdModule):
        if res.module.side != n.side:
            raise ValueError("ext chain needs same-side modules")
        super().__init__(res, n)
        self._hom: dict[int, FreeHomCoords | SubHomCoords] = {}

    def hom_space(self, j: int) -> FreeHomCoords | SubHomCoords:
        """Hom_A(P_j, n) with its coordinates, N^b when P_j = A^b (``algmod.hom_coords``)."""
        if j not in self._hom:
            self._hom[j] = hom_coords(self.res.proj(j), self.n)
        return self._hom[j]

    def dim(self, j: int) -> int:
        return 0 if j < 0 else self.hom_space(j).dim

    def _sides(self, j: int) -> tuple[int, int]:
        return j, j + 1

    def _build(self, j: int) -> SparseMatrix | None:
        """f -> f o d_{j+1} in Hom coordinates, or None when ``_acts_as_zero`` reads it off d_{j+1}'s entries."""
        d = self.res.differential(j + 1)
        return None if _acts_as_zero(d, self.n) else self.hom_space(j).precompose(d, self.hom_space(j + 1))

    def cohomology(self, i: int) -> HomologySpace:
        """H^i in Hom-space coordinates (ambient = hom_space(i) coords)."""
        return self._read(i, i, i - 1 if i >= 1 else None)


def ext_chain(m: FdModule, n: FdModule, depth: int) -> ExtChain:
    """Memoized Hom cochain complex for (resolution of m, n), built to depth."""
    res = min_proj_resolution(m, depth)
    return _memoized(("ext", m.fingerprint(), n.fingerprint()), lambda: ExtChain(res, n))


def ext(m: FdModule, n: FdModule, i: int) -> HomologySpace:
    """Ext^i(m, n) = H^i(Hom_A(P, n)); zero for i < 0."""
    if i < 0:
        return HomologySpace(i, None)
    ec = ext_chain(m, n, i + 1)
    return ec.cohomology(i)


def second_arg_ext_matrix(g: ModuleMap, src: ExtChain, tgt: ExtChain, j: int) -> Matrix:
    """Matrix of postcomposition with g: Hom(P_j, n) -> Hom(P_j, n') coords."""
    return src.hom_space(j).postcompose(g, tgt.hom_space(j)).to_matrix()


def ext_map(g: ModuleMap, m: FdModule, j: int) -> Matrix:
    """Ext^j(m, g) in class coordinates; a zero matrix when either side is zero."""
    ha, hb = ext(m, g.source, j), ext(m, g.target, j)
    if ha.dim == 0 or hb.dim == 0:
        return Matrix.zeros(m.p, hb.dim, ha.dim)
    src, tgt = ext_chain(m, g.source, j + 1), ext_chain(m, g.target, j + 1)
    return hb.sq.induced_from(ha.sq, second_arg_ext_matrix(g, src, tgt, j))


def _snake_by_operators(ses: ShortExactSeq, d: ModuleMap, reps: np.ndarray, transposed: bool) -> np.ndarray:
    """Preimages under id tensor f of the boundaries of the lifts of reps, on free P_i and P_{i-1}.

    d: P_i -> P_{i-1} is sum_u D_u a_u with D_u the coefficient matrices of
    its entries, so T_f applied to the boundary of a lifted y is
    sum_u (D_u tensor V_u) y: no vector of P tensor middle is formed.  reps
    holds one representative per column, generator-major (b_i * dim right, k).
    transposed reads d's entries with rows and columns swapped: the Ext snake,
    whose reps and preimages are generator images, of Hom(P_{i-1}, right) and
    Hom(P_i, left).
    """
    p, entries = ses.f.p, _free_block_entries(d)  # (b_{i-1}, b_i, dim A)
    if transposed:
        entries = entries.transpose(1, 0, 2)
    (b_lo, b_hi, _), r, k = entries.shape, ses.right.dim, reps.shape[1]
    y = reps.reshape(b_hi, r, k)
    if not ses.g_solver.consistent(y):
        raise RuntimeError("connecting map: lift through the surjection failed")
    used = np.flatnonzero(entries.any(axis=(0, 1)))
    # z_u = (D_u tensor id) y, one product for every used u: (used, b_{i-1}, r, k)
    z = mulmod(entries[:, :, used].transpose(2, 0, 1).reshape(used.size * b_lo, b_hi), y.reshape(b_hi, r * k), p)
    v = ses.snake_operators[used]  # (used, dim middle, r)
    transformed = mulmod(v.transpose(1, 0, 2).reshape(v.shape[1], used.size * r),
                         z.reshape(used.size, b_lo, r, k).transpose(0, 2, 1, 3).reshape(used.size * r, b_lo * k), p)
    pulled = ses.f_solver.scatter(transformed)  # checks the sum: every boundary lies in im f
    if pulled is None:
        raise RuntimeError("connecting map: boundary did not come from the kernel")
    return pulled.reshape(ses.left.dim, b_lo, k).transpose(1, 0, 2).reshape(b_lo * ses.left.dim, k)


def _snake_on_units(ses: ShortExactSeq, d: ModuleMap, transposed: bool) -> np.ndarray:
    """``_snake_by_operators`` when the representatives are every unit vector of P_i tensor right
    (or of Hom(P_{i-1}, right), transposed), as they are when that chain's differentials are
    zero: the matrix sum_u D_u tensor W_u, W_u = scatter(V_u), written from d's entries with no
    identity block.

    Its (r, s) block is the entry e_rs acting through the operators, scatter(e_rs . V): one
    product of the distinct nonzero entries with V.  The unit columns are independent, so the
    boundaries all lie in im f iff every distinct entry's rows below rank f vanish, which is
    the check on the sum that ``_snake_by_operators`` makes.
    """
    p, b_lo, b_hi, dim_a = ses.f.p, d.target.free_rank, d.source.free_rank, d.source.algebra.dim
    r, left = ses.right.dim, ses.left.dim
    if ses.g_solver.rank != r:  # some unit vector does not lift through g
        raise RuntimeError("connecting map: lift through the surjection failed")
    rows, cols, distinct, which = d.distinct_entries
    if transposed:
        rows, cols, b_lo, b_hi = cols, rows, b_hi, b_lo
    v = ses.snake_operators  # (dim A, dim middle, r)
    sums = mulmod(distinct, v.reshape(dim_a, -1), p).reshape(len(distinct), v.shape[1], r)
    pulled = ses.f_solver.scatter(sums.transpose(1, 0, 2).reshape(v.shape[1], -1))
    if pulled is None:
        raise RuntimeError("connecting map: boundary did not come from the kernel")
    blocks = pulled.reshape(left, len(distinct), r).transpose(1, 0, 2)  # scatter(e . V) per distinct e
    out = np.zeros((b_lo * left, b_hi * r), dtype=np.int64)
    out.reshape(b_lo, left, b_hi, r)[rows, :, cols, :] = blocks[which]
    return out


def _snake_by_solves(g: Matrix, d_mid: Matrix, f: Matrix, reps: np.ndarray) -> np.ndarray:
    """The same preimages on a non-free P: lift reps through g, apply the middle differential,
    pull back through f, one solve per map."""
    lifted = solve_matrix(g, Matrix(g.p, reps))
    if lifted is None:
        raise RuntimeError("connecting map: lift through the surjection failed")
    pulled = solve_matrix(f, d_mid @ lifted)
    if pulled is None:
        raise RuntimeError("connecting map: boundary did not come from the kernel")
    return pulled.a


def _connecting(ses: ShortExactSeq, m: FdModule, h_top: HomologySpace, h_bot: HomologySpace,
                res: Resolution, i: int, transposed: bool, solves) -> Matrix:
    """The snake map h_top -> h_bot across d_i of m's resolution, in class coordinates; a zero
    matrix when either side is zero.  On free P_i and P_{i-1} it reads the snake operators over
    d_i's entries, transposed for Ext; otherwise solves() gives the maps (g, d_mid, f) of the
    two solves."""
    if h_top.dim == 0 or h_bot.dim == 0:
        return Matrix.zeros(m.p, h_bot.dim, h_top.dim)
    d = res.differential(i)
    if d.source.free_rank is None or d.target.free_rank is None:
        pulled = _snake_by_solves(*solves(), h_top.sq.basis_representatives().T)
    elif h_top.sq.unit_classes:
        pulled = _snake_on_units(ses, d, transposed)
    else:
        # batch the snake over all class representatives, one per column
        pulled = _snake_by_operators(ses, d, h_top.sq.basis_representatives().T, transposed)
    return Matrix(m.p, h_bot.class_of(pulled.T).T)


def connecting_tor(ses: ShortExactSeq, m: FdModule, i: int) -> Matrix:
    """Snake map Tor_i(m, N'') -> Tor_{i-1}(m, N') in class coordinates."""
    if i < 1:
        raise ValueError("connecting map needs i >= 1")
    left, right = (tensor_chain(m, x, i + 1) for x in (ses.left, ses.right))
    return _connecting(ses, m, right.homology(i), left.homology(i - 1), right.res, i, False,
                       lambda: (tensor_map(ses.g, m, i), tensor_chain(m, ses.middle, i + 1).differential(i),
                                tensor_map(ses.f, m, i - 1)))


def connecting_ext(ses: ShortExactSeq, m: FdModule, j: int) -> Matrix:
    """Connecting map Ext^j(m, X'') -> Ext^{j+1}(m, X') in class coordinates."""
    if j < 0:
        raise ValueError("connecting map needs j >= 0")
    left, middle, right = (ext_chain(m, x, j + 2) for x in (ses.left, ses.middle, ses.right))
    return _connecting(ses, m, right.cohomology(j), left.cohomology(j + 1), right.res, j + 1, True,
                       lambda: (second_arg_ext_matrix(ses.g, middle, right, j), middle.differential(j),
                                second_arg_ext_matrix(ses.f, left, middle, j + 1)))


@dataclass
class LesReport:
    degrees: list[int]
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def les_check(ses: ShortExactSeq, m: FdModule, lo: int, hi: int) -> LesReport:
    """Verify im = ker at every joint of the Tor long exact sequence on [lo, hi]."""
    lo = max(lo, 0)
    failures: list[str] = []
    for i in range(lo, hi + 1):
        f_i = tor_map(ses.f, m, i)
        g_i = tor_map(ses.g, m, i)
        if image_basis(f_i) != kernel_basis(g_i):
            failures.append(f"exactness fails at Tor_{i}(middle)")
        if i == 0 and image_basis(g_i).dim != tor(m, ses.right, 0).dim:
            failures.append("right exactness fails at Tor_0(right)")
        if i >= 1:
            delta_i = connecting_tor(ses, m, i)
            if image_basis(g_i) != kernel_basis(delta_i):
                failures.append(f"exactness fails at Tor_{i}(right)")
            if image_basis(delta_i) != kernel_basis(tor_map(ses.f, m, i - 1)):
                failures.append(f"exactness fails at Tor_{i-1}(left)")
    return LesReport(list(range(lo, hi + 1)), failures)


def tate_chain(tcx: CompleteResolution, n: FdModule) -> TateChain:
    """Per-resolution cached Tate chain (components shared across degrees).

    Kept on tcx, not in the fingerprint-keyed memo: a complete resolution has
    no content fingerprint.
    """
    key = n.fingerprint()
    tc = tcx.tate_chains.get(key)
    if tc is None:
        tc = tcx.tate_chains[key] = TateChain(tcx, n)
    return tc


def tate_tor(tcx: CompleteResolution, n: FdModule, i: int) -> HomologySpace:
    """Tate homology in degree i from a certified complete resolution."""
    return tate_chain(tcx, n).homology(i)
