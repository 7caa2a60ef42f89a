"""Satellites, the inverse-limit tower of Tor over cosyzygies, and complete homology.

``Tower`` is the one tower type of the package: the inverse systems built here
and the Ext cotowers of ``cohom`` share it.  The cosyzygy tower at stage k
holds Tor_{k+i}(M, Omega^k N); transition maps are the connecting
homomorphisms of 0 -> Omega^{k-1}N -> I^{k-1} -> Omega^k N -> 0,
computed on cycle representatives.  Right satellites are cokernels
S^k T_{k+i}(N) = coker(T_{k+i}(I^{k-1}) -> T_{k+i}(Omega^k N)); the injection
phi^k lands in stage k-1 of the cosyzygy tower with image equal to the image
of the tower transition, which is exactly how the two towers interleave.

The stabilization verdict is a finite-window certificate and says so: a true
inverse limit over an infinite tower is not finitely computable, and for
towers with growing dimensions no limit dimension is ever claimed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algmod import FdModule, ModuleMap, dual_map
from .derived import connecting_tor, cosyzygy_ses, tate_tor, tor, tor_map
from .exactla import Matrix, Subquotient, Subspace, image_basis, rref
from .resolve import CompleteResolution, is_injective, min_inj_resolution, min_proj_resolution, syzygy_map

__all__ = [
    "Tower",
    "StabilizationReport",
    "cosyzygy_tower",
    "satellite_tower",
    "right_satellite",
    "tower_limit",
    "complete_homology",
    "dimension_shift_check",
    "left_satellite_check",
    "induced_iso_check",
    "interleaving_crosscheck",
    "cosyzygy_map",
]


class Tower:
    """Stages V_{k_min}..V_K with verified transition maps, one per source stage.

    ``maps[k]`` is the transition out of stage k, and the reader picks the
    direction: an inverse system (``tower_limit``) reads it as V_k -> V_{k-1}
    for k >= k_min + 1, a direct system (``cohom.cotower_limit``) reads it as
    W_k -> W_{k+1} for k <= K - 1.
    """

    def __init__(self, i: int, k_min: int, stages: list, maps: dict[int, Matrix], provenance: str):
        self.i = i
        self.k_min = k_min
        self.stages = stages  # index t corresponds to k = k_min + t
        self.maps = maps  # keyed by source stage
        self.provenance = provenance

    @property
    def k_max(self) -> int:
        return self.k_min + len(self.stages) - 1

    def stage_dim(self, k: int) -> int:
        if k < self.k_min:
            return 0
        return self.stages[k - self.k_min].dim

    def dims(self) -> list[int]:
        return [s.dim for s in self.stages]

    def to_dict(self, report: "StabilizationReport | None" = None) -> dict:
        """JSON dump: per-k dims, transition matrices, and the verdict data."""
        out = {
            "provenance": self.provenance,
            "degree": self.i,
            "k_min": self.k_min,
            "dims": self.dims(),
            "transitions": {str(k): self.maps[k].to_lists() for k in sorted(self.maps)},
        }
        if report is not None:
            out["image_chain"] = {str(k): v for k, v in report.image_chain.items()}
            out["verdict"] = report.verdict
            out["limit_dim"] = report.limit_dim
        return out


@dataclass
class StabilizationReport:
    """Finite-window stabilization certificate for a tower (heuristic, says so)."""

    provenance: str
    i: int
    k_min: int
    window: int
    dims: list[int]
    image_chain: dict[int, list[int]]
    verdict: str  # "Stabilized" | "NotStabilized" | "Inconclusive"
    limit_dim: int | None = None
    stable_range: tuple[int, int] | None = None
    lower_bound: int | None = None
    limit_basis: list | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def stabilized(self) -> bool:
        return self.verdict == "Stabilized"

    def to_dict(self) -> dict:
        return {
            "provenance": self.provenance,
            "degree": self.i,
            "k_min": self.k_min,
            "window": self.window,
            "dims": self.dims,
            "image_chain": {str(k): v for k, v in self.image_chain.items()},
            "verdict": self.verdict,
            "limit_dim": self.limit_dim,
            "stable_range": list(self.stable_range) if self.stable_range else None,
            "lower_bound": self.lower_bound,
            "notes": self.notes,
        }


def cosyzygy_tower(m: FdModule, n: FdModule, i: int, K: int) -> Tower:
    """Tower V_k = Tor_{k+i}(m, Omega^k n) for k = max(0,-i)..K."""
    if K < 0:
        raise ValueError("K must be nonnegative")
    k_min = max(0, -i)
    inj = min_inj_resolution(n, K + 1)
    stages = [tor(m, inj.cosyzygy(k), k + i) for k in range(k_min, K + 1)]
    maps = {k: connecting_tor(cosyzygy_ses(n, k), m, k + i) for k in range(k_min + 1, K + 1)}
    return Tower(i, k_min, stages, maps, "cosyzygy")


def right_satellite(m: FdModule, j: int, n_steps: int, n: FdModule) -> Subquotient:
    """S^{n_steps} Tor_j(m, -) evaluated at n.

    The value is the cokernel of Tor_j(m, I^{n_steps-1}) -> Tor_j(m, Omega^{n_steps} n),
    a subquotient of the class coordinates of Tor_j(m, Omega^{n_steps} n): all of
    them modulo the image.  At n_steps = 0 nothing is killed, which gives the
    classes of Tor_j(m, n).
    """
    if n_steps < 0:
        raise ValueError("satellite steps must be nonnegative")
    if n_steps == 0:
        base = tor(m, n, j)
        killed = Subspace.zero(m.p, base.dim)
    else:
        inj = min_inj_resolution(n, n_steps + 1)
        base = tor(m, inj.cosyzygy(n_steps), j)
        if base.dim == 0 or tor(m, inj.space(n_steps - 1), j).dim == 0:
            killed = Subspace.zero(m.p, base.dim)
        else:
            killed = image_basis(tor_map(inj.cosyzygy_proj(n_steps), m, j))
    return Subquotient(Subspace.full(m.p, base.dim), killed)


def satellite_tower(m: FdModule, n: FdModule, i: int, K: int) -> Tower:
    """Tower of right satellites S^k Tor_{k+i}(m, -)(n).

    The transition S^k -> S^{k-1} factors the connecting homomorphism through
    the cokernel and then projects onto the next satellite stage.
    """
    k_min = max(0, -i)
    cos = cosyzygy_tower(m, n, i, K)
    stages = [right_satellite(m, k + i, k, n) for k in range(k_min, K + 1)]
    maps: dict[int, Matrix] = {}
    for k in range(k_min + 1, K + 1):
        src = stages[k - k_min]
        tgt = stages[k - 1 - k_min]
        # class coords in V_{k-1}, projected onto the satellite cokernel
        images = cos.maps[k].apply(src.basis_representatives())
        maps[k] = Matrix(m.p, tgt.class_of(images).T)
    return Tower(i, k_min, stages, maps, "satellite")


@dataclass
class InterleavingReport:
    """Interleaving data for the satellite/cosyzygy comparison at each stage."""

    stages: list[int]
    phi_injective: dict[int, bool]
    image_matches_transition: dict[int, bool]
    squares_commute: dict[int, bool]
    phi_bijective: dict[int, bool]

    @property
    def ok(self) -> bool:
        return (
            all(self.phi_injective.values())
            and all(self.image_matches_transition.values())
            and all(self.squares_commute.values())
        )


def interleaving_crosscheck(m: FdModule, n: FdModule, i: int, K: int) -> InterleavingReport:
    """Check the proof skeleton of the cosyzygy formula stage by stage.

    For each k: phi^k : S^k T_{k+i}(N) -> T_{k-1+i}(Omega^{k-1} N) is
    injective, its image equals the image of the tower transition delta_k,
    and delta_k = phi^k composed with the projection onto the cokernel.
    """
    return _interleaving(m, n, i, K, cosyzygy_tower(m, n, i, K))


def _interleaving(m: FdModule, n: FdModule, i: int, K: int, cos: Tower) -> InterleavingReport:
    """interleaving_crosscheck against an already built cosyzygy tower."""
    k_min = max(0, -i)
    stages = list(range(k_min + 1, K + 1))
    phi_inj: dict[int, bool] = {}
    img_ok: dict[int, bool] = {}
    sq_ok: dict[int, bool] = {}
    phi_bij: dict[int, bool] = {}
    for k in stages:
        sat = right_satellite(m, k + i, k, n)
        delta = cos.maps[k]
        tgt_dim = cos.stage_dim(k - 1)
        phi = Matrix(m.p, delta.apply(sat.basis_representatives()).T)
        rank_phi = rref(phi)[2]
        phi_inj[k] = rank_phi == sat.dim
        img_ok[k] = image_basis(phi) == image_basis(delta)
        phi_bij[k] = phi_inj[k] and rank_phi == tgt_dim
        # square: delta on the full stage factors through the satellite projection,
        # whose matrix has the classes of the stage's unit vectors as columns
        projection = sat.class_of(np.eye(cos.stage_dim(k), dtype=np.int64)).T
        sq_ok[k] = phi @ Matrix(m.p, projection) == delta
    return InterleavingReport(stages, phi_inj, img_ok, sq_ok, phi_bij)


def tower_limit(t: Tower, w: int) -> StabilizationReport:
    """Finite-window stabilization verdict with the image-chain table.

    Row k of the image chain is dim V_k followed by dim Im(V_h -> V_k) for
    h = k+1..K.  The images are pushed down one map at a time,
    Im(V_h -> V_k) = f_{k+1}(Im(V_h -> V_{k+1})), so no composite is formed:
    the whole stage V_{k+1} pushes to Im f_{k+1}, eliminated once per map.
    Stabilized requires equal dims over the last w stages together with
    bijective transitions between the windowed stable images Im(V_K -> V_k);
    for towers whose dims are still moving the verdict is NotStabilized and
    only a lower bound is reported.
    """
    if w < 1:
        raise ValueError("window must be >= 1")
    K = t.k_max
    dims = t.dims()
    chain: dict[int, list[int]] = {K: [dims[-1]]}
    eventual: dict[int, Subspace] = {}  # Im(V_K -> V_k), which limit_basis reads
    above: list[Subspace] = []  # Im(V_h -> V_{k+1}) for h = k+2..K
    for k in range(K - 1, t.k_min - 1, -1):
        f = t.maps[k + 1]
        images = [image_basis(f)]
        for j, s in enumerate(above):
            # the images in one stage are nested, so an image of the dim of the one
            # before it is that image, and pushes to the same subspace
            same = s.dim == (above[j - 1].dim if j else f.cols)
            images.append(images[-1] if same else Subspace(f.p, f.rows, f.apply(s.basis.a)))
        chain[k] = [dims[k - t.k_min]] + [s.dim for s in images]
        eventual[k] = images[-1]
        above = images
    chain = dict(sorted(chain.items()))
    report = StabilizationReport("", t.i, t.k_min, w, dims, chain, "Inconclusive")
    report.provenance = t.provenance
    n_stages = len(dims)
    if n_stages < w + 1:
        report.notes.append("window exceeds available stages")
        report.verdict = "Inconclusive"
        return report
    last = dims[-w:]
    if len(set(last)) != 1:
        report.verdict = "NotStabilized"
        report.lower_bound = max(row[-1] for row in chain.values())
        report.notes.append("stage dims still changing in the window")
        return report
    # windowed stable images E_k = Im(V_K -> V_k); E_K itself is edge data
    k0 = min(K - w + 1, K - 1)
    e_dims = [chain[k][-1] for k in range(k0, K)]
    if len(set(e_dims)) > 1:
        report.verdict = "Inconclusive"
        report.notes.append("stable-image dims not constant across the window")
        return report
    report.verdict = "Stabilized"
    report.limit_dim = e_dims[0]
    report.stable_range = (k0, K)
    report.limit_basis = [list(map(int, row)) for row in eventual[k0].basis.a]
    return report


def complete_homology(m: FdModule, n: FdModule, i: int, K: int, w: int = 3,
                      cross_check: bool = False) -> StabilizationReport:
    """Stabilization analysis of the Tor tower over cosyzygies of n.

    With cross_check the satellite tower interleaving is verified as well and
    a failure raises, since it would signal an internal inconsistency.
    """
    t = cosyzygy_tower(m, n, i, K)
    rep = tower_limit(t, w)
    rep.provenance = "complete-homology"
    if cross_check:
        inter = _interleaving(m, n, i, K, t)
        if not inter.ok:
            raise RuntimeError("satellite/cosyzygy cross-check failed")
        rep.notes.append("satellite cross-check passed")
    return rep


@dataclass
class ShiftCheckReport:
    i: int
    steps: int
    dims_shifted: list[int]
    dims_base: list[int]
    verdicts: tuple[str, str]
    ok: bool
    detail: str = ""


def dimension_shift_check(m: FdModule, n: FdModule, i: int, steps: int, K: int, w: int = 3) -> ShiftCheckReport:
    """Check Ctor_i(m, Omega^steps n) = Ctor_{i-steps}(m, n) through the towers.

    Stage k of the shifted tower matches stage k+steps of the base tower
    (minimal resolutions make the reindexing literal), and so do their
    image-chain rows; limit dims must agree when both verdicts are Stabilized.
    """
    inj = min_inj_resolution(n, K + steps + 1)
    omega = inj.cosyzygy(steps)
    t_shift = cosyzygy_tower(m, omega, i, K)
    t_base = cosyzygy_tower(m, n, i - steps, K + steps)
    rep_shift = tower_limit(t_shift, w)
    rep_base = tower_limit(t_base, w)
    if rep_shift.verdict != "Stabilized" or rep_base.verdict != "Stabilized":
        return ShiftCheckReport(i, steps, rep_shift.dims, rep_base.dims,
                                (rep_shift.verdict, rep_base.verdict), False,
                                "inconclusive: a side failed to stabilize")
    dims_ok = rep_shift.limit_dim == rep_base.limit_dim
    # stage-wise reindexing: under k -> k+steps the image-chain rows agree, stage dim and
    # the dims of the images of every later stage (the rows of both towers have equal lengths)
    base = rep_base.image_chain
    stage_ok = all(row == base[k + steps] for k, row in rep_shift.image_chain.items() if k + steps in base)
    ok = dims_ok and stage_ok
    return ShiftCheckReport(i, steps, rep_shift.dims, rep_base.dims,
                            ("Stabilized", "Stabilized"), ok,
                            "" if ok else "stage or limit mismatch")


@dataclass
class LeftSatelliteReport:
    satellite_dim: int
    tor_dim: int

    @property
    def ok(self) -> bool:
        return self.satellite_dim == self.tor_dim


def left_satellite_check(m: FdModule, i: int, k_steps: int, n: FdModule) -> LeftSatelliteReport:
    """Compare dim S_{k} Tor_i(m,-)(n) with dim Tor_{k+i}(m, n).

    The left satellite is computed from a minimal projective resolution of n:
    S_k T(n) = ker(T(Omega_k n) -> T(P_{k-1})).
    """
    if i < 0:
        raise ValueError("left satellite check needs i >= 0")
    if k_steps == 0:
        d = tor(m, n, i).dim
        return LeftSatelliteReport(d, d)
    res = min_proj_resolution(n, k_steps)
    induced = tor_map(res.syzygy_incl(k_steps), m, i)  # Tor_i(m, Omega_k n) -> Tor_i(m, P_{k-1})
    sat_dim = induced.cols - (rref(induced)[2] if induced.a.size else 0)
    return LeftSatelliteReport(sat_dim, tor(m, n, k_steps + i).dim)


def cosyzygy_map(g: ModuleMap, k: int) -> ModuleMap:
    """Omega^k(g): Omega^k(source) -> Omega^k(target), by duality with syzygies."""
    if k == 0:
        return g
    dual_g = dual_map(g)  # D(target) -> D(source)
    syz = syzygy_map(dual_g, k)  # Omega_k D(target) -> Omega_k D(source)
    back = dual_map(syz)  # Omega^k(source) -> Omega^k(target), dual modules match
    return back


@dataclass
class InducedIsoReport:
    agreement_degree: int
    vanishing_ok: bool
    tor_agreement_ok: bool
    completion_agreement_ok: bool
    details: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.vanishing_ok and self.tor_agreement_ok and self.completion_agreement_ok


def induced_iso_check(m: FdModule, tcx: CompleteResolution, corpus: list[FdModule],
                      degrees: range, K: int, w: int = 3) -> InducedIsoReport:
    """Universal-property evidence for the Tate-homology family of a fixed m.

    Checks on the finite corpus and degree window: Tate homology vanishes on
    injectives, agrees with Tor above the agreement degree, and matches the
    stabilized complete homology in every window degree.  Evidence only: the
    quantification over all functor families is not finitely checkable.
    """
    g = tcx.agreement_degree
    vanish_ok = True
    tor_ok = True
    comp_ok = True
    details: list[str] = []
    for n in corpus:
        injective = is_injective(n)
        for i in degrees:
            td = tate_tor(tcx, n, i).dim
            if injective and td != 0:
                vanish_ok = False
                details.append(f"tate nonzero on injective at degree {i}")
            if i >= g + 1 and td != tor(m, n, i).dim:
                tor_ok = False
                details.append(f"tate != tor at degree {i}")
            rep = complete_homology(m, n, i, K, w)
            if rep.stabilized:
                if rep.limit_dim != td:
                    comp_ok = False
                    details.append(f"tate != complete homology at degree {i}")
            else:
                details.append(f"completion not stabilized at degree {i} (skipped)")
    return InducedIsoReport(g, vanish_ok, tor_ok, comp_ok, details)
