"""Completed cohomology: the Ext cotower, its two computations, and duality.

Cotowers are ``completion.Tower`` objects read as direct systems: ``maps[k]``
is the transition W_k -> W_{k+1}, and ``cotower_limit`` takes the colimit.
``ext_cotower`` is the one builder of the completed-Ext cotower in its
satellite form (Mislin): stage k is Ext^{k+i}(M, Omega_k N), a ``derived``
subquotient, and the transition is the connecting map of
0 -> Omega_{k+1} N -> Q_k -> Omega_k N -> 0, the Ext twin of
``completion.cosyzygy_tower``.  The stable duality route takes its colimit,
and the truncated-Hom route and the duality bridge check against it.
The truncated-Hom route realizes stage k as H^i Hom(P, Q>=k), by chain
map segments of degree -i on a finite window; it is isomorphic to
Ext^{k+i}(M, Omega_k N) because the hard truncation Q>=k is a shifted
projective resolution of the syzygy.  The left-satellite route computes
S_k Ext^{k+i}(M, N) = ker(Ext^{k+i}(M, Omega_k N) -> Ext^{k+i}(M, Q_{k-1})),
which equals the image of the cotower transition into stage k; both
identities are verified on every stage and a failure raises the internal
mismatch error, since the two routes are theorems of each other.

Squares between chain-map segments commute up to the sign (-1)^i:
    d_Q phi_t = (-1)^i phi_{t-1} d_P.
Every lift is ``resolve.lift_chain_map``, which solves degree by degree with
free variables pinned to zero: ``mu_stage_check`` lifts the stable-Hom
classes of a stage, ``SegmentStage.extend_segment`` continues a segment one
degree, and a Benson-Carlson transition lifts through the covers and
restricts to the next syzygies.  A stage's class plumbing takes a block of
classes, one per row, and returns one stack of k maps per window degree, so a
transition is one call: one lift of every class, one ``class_of`` reading
them back.  So is mu: ``mu_forward`` descends a stack of degree-k components
to the syzygies with one cover section and one stable-Hom space.
Hom spaces out of the projectives are ``algmod.hom_coords`` spaces, the type
of ``derived``'s Ext cochains, so a segment class and an Ext class read the
same generator coordinates on a free resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algmod import (
    FdModule,
    FreeHomCoords,
    SubHomCoords,
    dual_module,
    hom_coords,
    stable_hom,
)
from .completion import StabilizationReport, Tower, cosyzygy_tower, tower_limit
from .derived import (
    connecting_ext,
    ext,
    ext_chain,
    ext_map,
    syzygy_ses,
    tensor_chain,
)
from .exactla import (
    Matrix,
    SparseMatrix,
    Subquotient,
    Subspace,
    kernel_basis,
    mulmod,
    rref,
    solve_matrix,
)
from .resolve import Resolution, lift_chain_map, min_proj_resolution

__all__ = [
    "SegmentStage",
    "ext_cotower",
    "bc_ext",
    "pcomp_ext",
    "mu_forward",
    "mu_stage_check",
    "duality_bridge_check",
    "cotower_limit",
]

SEGMENT_BUFFER = 1


def cotower_limit(t: Tower, w: int) -> StabilizationReport:
    """Colimit verdict by dualizing: colim(W)* = lim(W*), so run the tower policy.

    The dual system (W_k*) is a tower over the same stages whose transition
    out of stage k+1 is the transpose of g_k: W_k -> W_{k+1}.
    """
    dual_maps = {k + 1: g.transpose() for k, g in t.maps.items()}
    dual = Tower(t.i, t.k_min, t.stages, dual_maps, t.provenance + "-dual")
    rep = tower_limit(dual, w)
    rep.provenance = t.provenance
    rep.notes.append("colimit computed on the dualized tower")
    return rep


def ext_cotower(m: FdModule, n: FdModule, i: int, K: int) -> Tower:
    """Cotower W_k = Ext^{k+i}(m, Omega_k n) for k = max(0,-i)..K; the transition
    W_k -> W_{k+1} is the connecting map of 0 -> Omega_{k+1} n -> Q_k -> Omega_k n -> 0."""
    k_min = max(0, -i)
    res = min_proj_resolution(n, K + 2)
    stages = [ext(m, res.syzygy(k), k + i) for k in range(k_min, K + 1)]
    maps = {k: connecting_ext(syzygy_ses(n, k + 1), m, k + i) for k in range(k_min, K)}
    return Tower(i, k_min, stages, maps, "ext-cotower")


# -- Benson-Carlson cotower ---------------------------------------------------


def bc_ext(m: FdModule, n: FdModule, i: int, K: int, w: int = 3) -> StabilizationReport:
    """Colimit analysis of the stable-Hom cotower uHom(Omega_k m, Omega_{k-i} n)."""
    t = bc_cotower(m, n, i, K)
    return cotower_limit(t, w)


def bc_cotower(m: FdModule, n: FdModule, i: int, K: int) -> Tower:
    if m.side != n.side:
        raise ValueError("stable-Hom cotower needs same-side modules")
    k_min = max(0, i)
    res_m = min_proj_resolution(m, K + 2)
    res_n = min_proj_resolution(n, K + 2)
    stages = [stable_hom(res_m.syzygy(k), res_n.syzygy(k - i)) for k in range(k_min, K + 1)]
    maps: dict[int, Matrix] = {}
    for k in range(k_min, K):
        src, tgt = stages[k - k_min], stages[k + 1 - k_min]
        # Omega(f) for the representative f of every class at once: lift through
        # the covers, then restrict phi_k: P_k -> Q_{k-i} to the next syzygies
        reps = src.basis_representatives().reshape(src.dim, res_n.syzygy(k - i).dim, res_m.syzygy(k).dim)
        phi = lift_chain_map(reps, k, i, k, res_m, res_n)[0]
        incl_n = res_n.syzygy_incl(k + 1 - i).matrix
        rows = mulmod(phi, res_m.syzygy_incl(k + 1).matrix.a, m.p)  # (classes, dim Q_{k-i}, dim Omega_{k+1} M)
        cols = rows.shape[2]
        sol = solve_matrix(incl_n, Matrix(m.p, rows.transpose(1, 0, 2).reshape(incl_n.rows, src.dim * cols)))
        if sol is None:
            raise RuntimeError("bc cotower: lift does not restrict to syzygies")
        images = sol.a.reshape(incl_n.cols, src.dim, cols).swapaxes(0, 1).reshape(src.dim, tgt.ambient_dim)
        maps[k] = Matrix(m.p, tgt.class_of(images).T)
    return Tower(i, k_min, stages, maps, "benson-carlson")


# -- chain-map segments (truncated Hom route) -----------------------------------


def _rows(maps: np.ndarray) -> np.ndarray:
    """A stack of maps (k, rows, cols) as k row-major rows."""
    return maps.reshape(len(maps), maps.shape[1] * maps.shape[2])


def _placed(block: SparseMatrix, row: int, col: int, negate: bool = False, transpose: bool = False):
    """The entries of a block of a segment system, (block or its transpose) at (row, col), negated
    as p - v."""
    rows, cols = (block.cols, block.rows) if transpose else (block.rows, block.cols)
    return rows + row, cols + col, block.p - block.vals if negate else block.vals


def _system(p: int, shape: tuple[int, int], blocks: list) -> SparseMatrix:
    """One sparse matrix from the _placed entries of its blocks."""
    return SparseMatrix(p, shape, *(np.concatenate(x) for x in zip(*blocks)))


class SegmentStage:
    """H^i Hom(P, Q>=k) on the window [k+i, k+i+SEGMENT_BUFFER], as a subquotient.

    Class coordinates live in stacked Hom coordinates per window degree, one
    ``algmod.hom_coords`` space each (generator images Q^b when P_t = A^b).
    Each segment system is one ``SparseMatrix``: the entries of its precompose
    and postcompose blocks, offset by window degree.
    """

    def __init__(self, res_m: Resolution, res_n: Resolution, i: int, k: int):
        self.res_m = res_m
        self.res_n = res_n
        self.i = i
        self.k = k
        self.lo = k + i
        self.hi = self.lo + SEGMENT_BUFFER
        if self.lo < 0:
            raise ValueError("stage window starts below zero")
        self.p = res_m.module.p
        res_m.extend(self.hi + 1)
        res_n.extend(self.hi - i + 1)
        self.coords: dict[int, FreeHomCoords | SubHomCoords] = {}
        self.coords_up: dict[int, FreeHomCoords | SubHomCoords] = {}
        self.coords_down: dict[int, FreeHomCoords | SubHomCoords] = {}
        for t in range(self.lo, self.hi + 1):
            self.coords[t] = hom_coords(res_m.proj(t), res_n.proj(t - i))
            if t > self.lo:
                self.coords_down[t] = hom_coords(res_m.proj(t), res_n.proj(t - i - 1))
        for t in range(self.lo - 1, self.hi + 1):
            if t >= 0:
                self.coords_up[t] = hom_coords(res_m.proj(t), res_n.proj(t - i + 1))
        self.offsets: dict[int, int] = {}
        off = 0
        for t in range(self.lo, self.hi + 1):
            self.offsets[t] = off
            off += self.coords[t].dim
        self.total = off
        z = self._cocycles()
        b = self._coboundaries()
        self.sq = Subquotient(z, b)

    @property
    def dim(self) -> int:
        return self.sq.dim

    def _at(self, rows: np.ndarray, t: int) -> np.ndarray:
        """The columns of window degree t in a block of rows of a segment system."""
        return rows[:, self.offsets[t]: self.offsets[t] + self.coords[t].dim]

    def _cocycles(self) -> Subspace:
        """Z: the kernel of the squares d_Q phi_t - (-1)^i phi_{t-1} d_P, one row per condition."""
        blocks, r = [], 0
        for t in range(self.lo + 1, self.hi + 1):
            tgt = self.coords_down[t]
            post = self.coords[t].postcompose(self.res_n.differential(t - self.i), tgt)
            pre = self.coords[t - 1].precompose(self.res_m.differential(t), tgt)
            blocks += [_placed(post, r, self.offsets[t]), _placed(pre, r, self.offsets[t - 1], self.i % 2 == 0)]
            r += tgt.dim
        return _system(self.p, (r, self.total), blocks).kernel()

    def _coboundaries(self) -> Subspace:
        """B: the coboundaries of the generators of Hom(P_t, Q_{t-i+1}), one per row."""
        blocks, r = [], 0
        for t, src in sorted(self.coords_up.items()):
            if t >= self.lo:
                post = src.postcompose(self.res_n.differential(t - self.i + 1), self.coords[t])
                blocks.append(_placed(post, r, self.offsets[t], transpose=True))
            if t < self.hi:
                pre = src.precompose(self.res_m.differential(t + 1), self.coords[t + 1])
                blocks.append(_placed(pre, r, self.offsets[t + 1], self.i % 2 == 1, transpose=True))
            r += src.dim
        return _system(self.p, (r, self.total), blocks).row_space()

    # -- segment <-> class plumbing, a block of classes (k, dim) per call ----------
    # A block of k segments is one stack (k, dim Q_{t-i}, dim P_t) per window degree t.

    def segment_from_class(self, cls: np.ndarray) -> list[np.ndarray]:
        """The distinguished segments of a block of classes, one stack per degree of the window."""
        vec = self.sq.representative(cls)
        return [self.coords[t].to_ambient(self._at(vec, t)) for t in range(self.lo, self.hi + 1)]

    def class_of_segment(self, comps: list[np.ndarray]) -> np.ndarray:
        """Class coordinates (k, dim) of a block of segments on this stage's window."""
        vec = np.zeros((len(comps[0]), self.total), dtype=np.int64)
        for t, f in zip(range(self.lo, self.hi + 1), comps):
            self._at(vec, t)[...] = self.coords[t].coords(_rows(f))
        return self.sq.class_of(vec)

    def extend_segment(self, comps: list[np.ndarray]) -> list[np.ndarray]:
        """Extend a block of segments one degree upward: one more degree of their lift
        (projectivity; it exists by row exactness)."""
        t = self.lo + len(comps)
        return lift_chain_map(comps, t, self.i, t, self.res_m, self.res_n)

    def theta_ext_class(self, cls: np.ndarray) -> np.ndarray:
        """The stage isomorphism onto Ext^{k+i}(M, Omega_k N) class coordinates, for a block of classes."""
        f = self.coords[self.lo].to_ambient(self._at(self.sq.representative(cls), self.lo))
        coc = mulmod(self.res_n.cover_map(self.k).matrix.a, f, self.p)  # (k, dim Omega_k N, dim P_lo)
        ec = ext_chain(self.res_m.module, self.res_n.syzygy(self.k), self.lo + 1)
        return ec.cohomology(self.lo).class_of(ec.hom_space(self.lo).coords(_rows(coc)))


def pcomp_ext(m: FdModule, n: FdModule, i: int, K: int, w: int = 3) -> StabilizationReport:
    """Completed Ext by the truncated-Hom route, cross-checked against satellites.

    Raises an internal route-mismatch error when the two routes disagree on any
    stage: satellite stage = image of the transition, stage spaces isomorphic
    to Ext of the syzygy (the stages of ``ext_cotower``), transitions
    conjugate to the connecting maps (its transitions).
    """
    if m.side != n.side:
        raise ValueError("pcomp needs same-side modules")
    k_min = max(0, -i)
    if k_min > K:
        raise ValueError("no stages in range: increase K past -i")
    res_m = min_proj_resolution(m, K + i + SEGMENT_BUFFER + 2 if K + i >= 0 else 2)
    res_n = min_proj_resolution(n, K + 2)
    ext_t = ext_cotower(m, n, i, K)
    stages = [SegmentStage(res_m, res_n, i, k) for k in range(k_min, K + 1)]
    if [st.dim for st in stages] != ext_t.dims():
        raise RuntimeError("internal route mismatch: truncated-Hom stage dim != Ext dim")
    maps: dict[int, Matrix] = {}
    for idx, k in enumerate(range(k_min, K)):
        st, st_next = stages[idx], stages[idx + 1]
        # every class of stage k at once: extend its segments a degree, then drop the bottom one
        comps = st.extend_segment(st.segment_from_class(np.eye(st.dim, dtype=np.int64)))
        maps[k] = Matrix(m.p, st_next.class_of_segment(comps[1:]).T)
    _verify_satellite_route(m, res_n, ext_t, stages, maps)
    return cotower_limit(Tower(i, k_min, stages, maps, "pcomp-ext"), w)


def _verify_satellite_route(m: FdModule, res_n: Resolution, ext_t: Tower,
                            stages: list[SegmentStage], maps: dict[int, Matrix]) -> None:
    """Check S_k Ext = im(transition) and the Theta-naturality squares against the Ext cotower."""
    i, k_min = ext_t.i, ext_t.k_min
    for k in range(k_min + 1, ext_t.k_max + 1):
        st_prev, st = stages[k - 1 - k_min], stages[k - k_min]
        incl = res_n.syzygy_incl(k)
        # left satellite: kernel of Ext^{k+i}(m, Omega_k n) -> Ext^{k+i}(m, Q_{k-1})
        h_om = ext_t.stages[k - k_min]
        if h_om.dim == 0 or ext(m, incl.target, k + i).dim == 0:
            satellite = Subspace.full(m.p, h_om.dim)
        else:
            satellite = kernel_basis(ext_map(incl, m, k + i))
        # transition image, transported through Theta: the transition's columns, one per row
        theta_moved = st.theta_ext_class(maps[k - 1].a.T)
        img = Subspace(m.p, h_om.dim, theta_moved)
        if img != satellite:
            # the image of the transition must equal the satellite subspace
            raise RuntimeError("internal route mismatch: satellite != transition image")
        # Theta-naturality: delta_ext o Theta = (-1)^i Theta o transition, delta_ext the
        # cotower's transition.  The sign comes from d_Q f_{lo+1} = (-1)^i f_lo d_P at the seam.
        sign = 1 if i % 2 == 0 else m.p - 1
        via_theta = st_prev.theta_ext_class(np.eye(st_prev.dim, dtype=np.int64))
        if not np.array_equal(ext_t.maps[k - 1].apply(via_theta), (sign * theta_moved) % m.p):
            raise RuntimeError("internal route mismatch: connecting map square")


# -- the mu comparison ---------------------------------------------------------


def _descend(f: np.ndarray, k: int, i: int, res_m: Resolution, res_n: Resolution) -> np.ndarray:
    """The maps f~: Omega_k M -> Omega_{k-i} N with pi_n f = f~ pi_m, one flat row per map of the stack f."""
    p = res_m.module.p
    pi_m, pi_n = res_m.cover_map(k).matrix, res_n.cover_map(k - i).matrix
    sec = solve_matrix(pi_m, Matrix.identity(p, pi_m.rows))
    if sec is None:
        raise RuntimeError("cover has no linear section")
    pf = mulmod(pi_n.a, f, p)  # (s, dim Omega_{k-i} N, dim P_k)
    cand = mulmod(pf, sec.a, p)
    # well-defined: the candidate must be independent of the section
    if not np.array_equal(mulmod(cand, pi_m.a, p), pf):
        raise RuntimeError("segment does not descend to the cokernels")
    return cand.reshape(len(f), cand.shape[1] * cand.shape[2])


def mu_forward(f: np.ndarray, k: int, i: int, res_m: Resolution, res_n: Resolution):
    """Induced stable-Hom classes f~: Omega_k M -> Omega_{k-i} N of a block of segments.

    f is the stack (s, dim Q_{k-i}, dim P_k) of the segments' degree-k
    components; each induced map on cokernels is well defined modulo maps
    factoring through a projective.  Returns uHom(Omega_k M, Omega_{k-i} N)
    and the class block (s, dim).
    """
    cand = _descend(f, k, i, res_m, res_n)
    sq = stable_hom(res_m.syzygy(k), res_n.syzygy(k - i))
    if not sq.z.contains(cand):
        raise ValueError("induced map does not commute with the action")
    return sq, sq.class_of(cand)


@dataclass
class MuStageReport:
    stage_pairs: list[tuple[int, int]]
    dims_equal: bool
    forward_injective: bool
    roundtrip_exact: bool

    @property
    def ok(self) -> bool:
        return self.dims_equal and self.forward_injective and self.roundtrip_exact


def mu_stage_check(m: FdModule, n: FdModule, i: int, K: int) -> MuStageReport:
    """Stage-level mu: pcomp stage k matches the stable-Hom stage k+i.

    Per stage, one forward map of the class basis (dims equal, injective by its
    rank) and one lift of every stable-Hom class representative, whose forward
    map must be the identity (the round trip is exact).
    """
    res_m = min_proj_resolution(m, K + i + SEGMENT_BUFFER + 2)
    res_n = min_proj_resolution(n, K + 2)
    pairs = []
    dims_equal = injective = roundtrip = True
    for k in range(max(0, -i), K + 1):
        st = SegmentStage(res_m, res_n, i, k)
        pairs.append((k, k + i))
        sq, fwd = mu_forward(st.segment_from_class(np.eye(st.dim, dtype=np.int64))[0], st.lo, i, res_m, res_n)
        if st.dim != sq.dim:
            dims_equal = False
            continue
        if st.dim and rref(Matrix(m.p, fwd))[2] != st.dim:
            injective = False
        reps = sq.basis_representatives().reshape(sq.dim, res_n.syzygy(k).dim, res_m.syzygy(st.lo).dim)
        lifted = lift_chain_map(reps, st.lo, i, st.hi, res_m, res_n)[0]
        back = sq.class_of(_descend(lifted, st.lo, i, res_m, res_n))
        if not np.array_equal(back, np.eye(sq.dim, dtype=np.int64)):
            roundtrip = False
    return MuStageReport(pairs, dims_equal, injective, roundtrip)


# -- duality bridge -------------------------------------------------------------


@dataclass
class DualityBridgeReport:
    stage_dims_tor: list[int]
    stage_dims_ext: list[int]
    pairings_perfect: bool
    squares_commute: bool
    signs: dict[int, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.stage_dims_tor == self.stage_dims_ext
            and self.pairings_perfect
            and self.squares_commute
        )


def duality_bridge_check(m: FdModule, n_op: FdModule, i: int, K: int) -> DualityBridgeReport:
    """Stage-wise duality between the Tor tower of (m, D n) and the Ext cotower of (m, n).

    m is a right module, n_op a left module over the opposite algebra.  The
    evaluation pairing <p tensor phi, c> = phi(c(p)) identifies stage k of
    the cosyzygy tower of (m, D n) with the dual of Ext^{k+i} of the k-th
    syzygy of n over the opposite algebra; the connecting maps are adjoint up
    to a sign recorded per stage.  Minimal resolutions make the acyclic
    complement J of the dualized resolution zero, which this check notes.
    """
    if m.side != "right":
        raise ValueError("first argument must be a right module")
    m_op = m.as_left_over_opposite()
    if n_op.algebra.fingerprint() != m_op.algebra.fingerprint() or n_op.side != "left":
        raise ValueError("second argument must be a left module over the opposite algebra")
    dn = dual_module(n_op).as_left_over_opposite()  # left module over the base algebra
    k_min = max(0, -i)
    tor_tower, ext_t = cosyzygy_tower(m, dn, i, K), ext_cotower(m_op, n_op, i, K)
    res_n = min_proj_resolution(n_op, K + 2)
    pairings: dict[int, Matrix] = {}
    perfect = True
    for k in range(k_min, K + 1):
        h_tor, h_ext = tor_tower.stages[k - k_min], ext_t.stages[k - k_min]
        if h_tor.dim != h_ext.dim:
            perfect = False
            continue
        if h_tor.dim == 0:
            pairings[k] = Matrix.zeros(m.p, 0, 0)
            continue
        # pairing matrix on class bases: <z, c> = sum_{s,t} z[s, t] c[t, s]
        omega = res_n.syzygy(k)
        dx = omega.dim
        chain = tensor_chain(m, dual_module(omega).as_left_over_opposite(), k + i + 1)
        comp = chain.component(k + i)
        ec = ext_chain(m_op, omega, k + i + 1)
        p_dim = chain.res.proj(k + i).dim
        # cycles in P tensor_k D(omega), flat pair index s * dx + t
        z = comp.lift(h_tor.basis_representatives())
        # cocycles P -> omega, flat index t * p_dim + s; transposed to s * dx + t
        c = ec.hom_space(k + i).to_ambient(h_ext.basis_representatives())
        c = c.transpose(0, 2, 1).reshape(h_ext.dim, p_dim * dx)
        mat = Matrix(m.p, mulmod(z, c.T, m.p))
        pairings[k] = mat
        if rref(mat)[2] != h_tor.dim:
            perfect = False
    # adjointness of the connecting maps under the pairings
    squares = True
    signs: dict[int, int] = {}
    for k in range(k_min + 1, K + 1):
        if tor_tower.stage_dim(k) == 0 or tor_tower.stage_dim(k - 1) == 0:
            signs[k] = 1
            continue
        # <delta_tor z, c>_{k-1} vs <z, delta_ext c>_k
        lhs = pairings[k - 1].transpose() @ tor_tower.maps[k]  # indexed (c_{k-1}, z_k)
        rhs = ext_t.maps[k - 1].transpose() @ pairings[k].transpose()
        if lhs == rhs:
            signs[k] = 1
        elif lhs == -rhs:
            signs[k] = -1
        else:
            squares = False
            signs[k] = 0
    rep = DualityBridgeReport(tor_tower.dims(), ext_t.dims(), perfect, squares, signs)
    rep.notes.append("minimal resolutions: acyclic complement J = 0 on the window")
    return rep
