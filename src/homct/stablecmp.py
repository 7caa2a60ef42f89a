"""Stable homology routes and the double-complex window machinery.

Stable homology is never computed from the literal product-modulo-coproduct
complex (not finitely representable); the two finite routes are
  * copure-flat vanishing: stable homology agrees with a shifted Tor once
    Tor_i(M, E) vanishes for all injectives E beyond a certified bound;
  * duality: the k-dual of the completed-Ext cotower over the opposite
    algebra, stage by stage.

The window models the first-quadrant double complex D with components
P_m (x)_A I^n, anti-commuting squares and exact rows.  Elements of the
product totalization (which may have infinite support) are represented by
window elements with an ideal-tail marker: components at columns >= tail_col
stand for a coherent continuation and are never read, which is exactly what
makes the finite sigma construction reproduce the infinite one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algmod import FdModule, dual_module, regular_module, submodule
from .derived import TensorChain, tensor_chain, tensor_map, tor
from .exactla import Matrix, Subquotient, image_basis, kernel_basis, rref, solve_matrix, vstack
from .resolve import (
    detect_periodicity,
    is_projective,
    is_self_injective,
    min_inj_resolution,
    min_proj_resolution,
)

__all__ = [
    "DoubleWindow",
    "WindowElement",
    "CompatibleFamily",
    "WindowExhausted",
    "CopureCertificate",
    "copure_vanishing_certificate",
    "stable_homology_via_vanishing",
    "stable_homology_via_duality",
    "build_double_window",
    "compress_cycle",
    "map_tau",
    "map_eth",
    "map_sigma",
    "sigma_preimage",
    "family_from_limit",
    "injectivity_probe",
]


class WindowExhausted(RuntimeError):
    """A computation ran off the stored window; enlarge and retry."""


class DoubleWindow:
    """First-quadrant window of the double complex D_m^n = P_m (x)_A I^n.

    Horizontal maps carry the sign (-1)^m so squares anti-commute and the
    total differential is vertical + horizontal.
    """

    def __init__(self, m: FdModule, n: FdModule, m_max: int, n_max: int):
        if m.side != "right" or n.side != "left":
            raise ValueError("double window needs (right, left) modules")
        self.m = m
        self.n = n
        self.m_max = m_max
        self.n_max = n_max
        self.res = min_proj_resolution(m, m_max + 1)
        self.inj = min_inj_resolution(n, n_max + 2)
        # column n is the memoized chain P tensor_A I^n, kept here so that a
        # component read skips tensor_chain's memo lock and its
        # min_proj_resolution call
        self._cols: dict[int, TensorChain] = {}
        self._horiz: dict[tuple[int, int], Matrix] = {}

    def _column(self, col: int) -> TensorChain:
        if col not in self._cols:
            self._cols[col] = tensor_chain(self.m, self.inj.space(col), self.m_max + 1)
        return self._cols[col]

    # component D^n_m lives at row m (projective degree), column n (injective degree)
    def component(self, row: int, col: int):
        if row < 0 or col < 0:
            return None
        return self._column(col).component(row)

    def dim(self, row: int, col: int) -> int:
        c = self.component(row, col)
        return 0 if c is None else c.dim

    def vert(self, row: int, col: int) -> Matrix:
        """d^v: D^col_row -> D^col_{row-1} (zero out of row 0)."""
        return self._column(col).differential(row)

    def horiz(self, row: int, col: int) -> Matrix:
        """d^h: D^col_row -> D^{col+1}_row with the sign (-1)^row."""
        key = (row, col)
        if key not in self._horiz:
            mat = tensor_map(self.inj.codifferential(col), self.m, row)
            self._horiz[key] = -mat if row % 2 == 1 else mat
        return self._horiz[key]

    def check_invariants(self, rows: int | None = None, cols: int | None = None) -> None:
        """Verify d^h d^h = 0, d^v d^v = 0, anti-commutation, inner row exactness."""
        rmax = self.m_max if rows is None else rows
        cmax = self.n_max if cols is None else cols
        for r in range(rmax + 1):
            for c in range(cmax):
                if c + 1 < cmax and not (self.horiz(r, c + 1) @ self.horiz(r, c)).is_zero():
                    raise RuntimeError(f"horizontal maps do not square to zero at ({r},{c})")
            for c in range(cmax + 1):
                if r >= 2 and not (self.vert(r - 1, c) @ self.vert(r, c)).is_zero():
                    raise RuntimeError(f"vertical maps do not square to zero at ({r},{c})")
                if r >= 1 and c < cmax:
                    anti = (self.horiz(r - 1, c) @ self.vert(r, c)) + (self.vert(r, c + 1) @ self.horiz(r, c))
                    if not anti.is_zero():
                        raise RuntimeError(f"squares do not anti-commute at ({r},{c})")
        for r in range(rmax + 1):
            for c in range(1, cmax):
                if kernel_basis(self.horiz(r, c)) != image_basis(self.horiz(r, c - 1)):
                    raise RuntimeError(f"row exactness fails at ({r},{c})")


class WindowElement:
    """Finitely supported element of total degree i: components v^c in D^c_{i+c}.

    tail_col = None means the element genuinely has the stored support;
    tail_col = t >= 0 marks an ideal continuation at columns >= t (stored
    components at those columns are dropped and never read).
    """

    def __init__(self, dw: DoubleWindow, i: int, comps: dict[int, np.ndarray] | None = None,
                 tail_col: int | None = None):
        self.dw = dw
        self.i = i
        self.tail_col = tail_col
        self.comps: dict[int, np.ndarray] = {}
        if comps:
            for c, v in comps.items():
                self.set_component(c, v)

    def set_component(self, col: int, v: np.ndarray) -> None:
        row = self.i + col
        if col < 0 or row < 0:
            raise ValueError("component below the first quadrant")
        if col > self.dw.n_max or row > self.dw.m_max:
            raise WindowExhausted(f"component ({row},{col}) outside window")
        if self.tail_col is not None and col >= self.tail_col:
            return
        v = np.asarray(v, dtype=np.int64) % self.dw.m.p
        if v.shape != (self.dw.dim(row, col),):
            raise ValueError("component has wrong dimension")
        if v.any():
            self.comps[col] = v
        else:
            self.comps.pop(col, None)

    def component(self, col: int) -> np.ndarray:
        row = self.i + col
        if col in self.comps:
            return self.comps[col]
        return np.zeros(self.dw.dim(row, col) if row >= 0 else 0, dtype=np.int64)

    def support(self) -> list[int]:
        return sorted(self.comps)

    def is_zero(self) -> bool:
        return not self.comps

    def copy(self) -> "WindowElement":
        return WindowElement(self.dw, self.i, dict(self.comps), self.tail_col)

    def truncate(self, k: int) -> "WindowElement":
        """The element z^{>= k} in the column-truncated complex."""
        return WindowElement(self.dw, self.i, {c: v for c, v in self.comps.items() if c >= k},
                             self.tail_col)

    def add(self, other: "WindowElement", sign: int = 1) -> "WindowElement":
        if other.i != self.i:
            raise ValueError("degree mismatch")
        out = self.copy()
        for c, v in other.comps.items():
            row = self.i + c
            cur = out.component(c)
            out.set_component(c, (cur + sign * v) % self.dw.m.p)
        return out

    def boundary(self) -> "WindowElement":
        """The total differential; exact below tail_col, tail-marked above.

        For genuinely finite elements a nonzero overflow past the stored
        window raises WindowExhausted.
        """
        dw = self.dw
        out = WindowElement(dw, self.i - 1, tail_col=self.tail_col)
        limit = self.tail_col if self.tail_col is not None else dw.n_max + 1
        for c in self.support():
            row = self.i + c
            v = self.comps[c]
            if row >= 1:
                down = dw.vert(row, c).apply(v)
                if c < limit:
                    cur = out.component(c)
                    out.set_component(c, (cur + down) % dw.m.p)
            if c + 1 <= dw.n_max:
                right = dw.horiz(row, c).apply(v)
                if c + 1 < limit:
                    cur = out.component(c + 1)
                    out.set_component(c + 1, (cur + right) % dw.m.p)
            elif self.tail_col is None:
                # horizontal image would leave the window; tolerate only if zero
                if dw.horiz(row, c).apply(v).any():
                    raise WindowExhausted("boundary leaves the stored window")
        return out

    def boundary_truncated(self, k: int) -> "WindowElement":
        """Boundary inside the column-truncated complex (columns >= k)."""
        return self.truncate(k).boundary().truncate(k)


def build_double_window(m: FdModule, n: FdModule, m_max: int, n_max: int,
                        check: bool = True) -> DoubleWindow:
    dw = DoubleWindow(m, n, m_max, n_max)
    if check:
        dw.check_invariants()
    return dw


def compress_cycle(dw: DoubleWindow, v: WindowElement, target_col: int) -> tuple[WindowElement, WindowElement]:
    """Push support left to target_col by subtracting a boundary (claims (a)/(b)).

    Walks right to left from the last component; each step solves a row
    preimage, which exists by row exactness.  Requires the running boundary
    not to obstruct (checked), i.e. claim hypotheses.  Returns (u, v') with
    v' = v - boundary(u) and boundary(v') = boundary(v).
    """
    if target_col < 0:
        raise ValueError("target column must be >= 0")
    cur = v.copy()
    used = WindowElement(dw, v.i + 1)
    while True:
        supp = cur.support()
        if not supp or supp[-1] <= target_col:
            break
        j = supp[-1]
        row = cur.i + j
        comp = cur.comps[j]
        # the hypothesis: no boundary component sticks out at column j+1
        if j + 1 <= dw.n_max:
            sticking = dw.horiz(row, j).apply(comp)
            if sticking.any():
                raise ValueError("not compressible: boundary obstructs at the top column")
        if j == 0:
            break
        pre = solve_matrix(dw.horiz(row, j - 1), Matrix(dw.m.p, comp.reshape(-1, 1)))
        if pre is None:
            raise WindowExhausted("row preimage unavailable (window or exactness edge)")
        u = WindowElement(dw, v.i + 1, {j - 1: pre.a[:, 0]})
        used = used.add(u)
        cur = cur.add(u.boundary(), sign=-1)
    return used, cur


@dataclass
class CopureCertificate:
    bound: int
    reason: str
    periodicity: tuple[int, int] | None = None


def copure_vanishing_certificate(m: FdModule, K: int) -> CopureCertificate | None:
    """Certify Tor_i(m, E) = 0 for every injective E and all i >= bound.

    Routes: self-injective algebra (injectives are flat), projective m, or a
    periodicity certificate whose repeating window shows the vanishing
    pattern persists.  Returns None when nothing certifies within depth K.
    """
    a = m.algebra
    if is_self_injective(a)[0]:
        return CopureCertificate(1, "self-injective algebra: injectives are projective")
    if is_projective(m):
        return CopureCertificate(1, "projective module: flat dimension zero")
    res = min_proj_resolution(m, K)
    cert = detect_periodicity(res, K)
    if cert is None:
        return None
    q, s = cert.offset, cert.period
    if q + s + 1 > K:
        return None
    injectives = _indecomposable_injectives(a)
    bound = q + 1
    for e in injectives:
        for i in range(bound, K + 1):
            if tor(m, e, i).dim != 0:
                return None
    return CopureCertificate(bound, "periodic tail with vanishing window", (q, s))


def _indecomposable_injectives(algebra) -> list[FdModule]:
    """The indecomposable injective left modules D(e_t A)."""
    algebra.assert_supported()
    idems = algebra.primitive_idempotents()
    if len(idems) == 1:
        return [dual_module(regular_module(algebra, "right"))]
    reg = regular_module(algebra, "right")
    out = []
    for e in idems:
        sub, _ = submodule(reg, [e])
        out.append(dual_module(sub))
    return out


def stable_homology_via_vanishing(m: FdModule, n: FdModule, i: int,
                                  cert: CopureCertificate) -> Subquotient:
    """Stable homology as a shifted Tor under a copure-flat certificate.

    Returns Tor_{i+k}(m, Omega^k n) at k = max(0, bound - i); the answer is
    checked to be independent of pushing k one step further.
    """
    if cert is None:
        raise ValueError("no certificate")
    k = max(0, cert.bound - i)
    inj = min_inj_resolution(n, k + 2)
    value = tor(m, inj.cosyzygy(k), i + k)
    check = tor(m, inj.cosyzygy(k + 1), i + k + 1)
    if value.dim != check.dim:
        raise RuntimeError("shift independence failed: certificate is wrong")
    return value


def stable_homology_via_duality(m: FdModule, n: FdModule, i: int, K: int, w: int = 3,
                                realization: str = "segments"):
    """Stable homology through the duality bridge, as a stabilization report.

    Stage spaces are k-duals of the completed-Ext cotower of (m, D n) over
    the opposite algebra.  realization "segments" runs the truncated-Hom
    route with its internal two-route verification; "ext" takes the colimit
    of ``cohom.ext_cotower``, the Theta-conjugate cotower
    Ext^{k+i}(m, Omega_k D n) with connecting-map transitions, which is
    cheaper on algebras with growing Betti numbers and is verified equal to
    the segment route wherever both run.
    """
    if m.side != "right" or n.side != "left":
        raise ValueError("duality route expects (right, left) modules")
    from .cohom import cotower_limit, ext_cotower, pcomp_ext

    m_op = m.as_left_over_opposite()
    dn_op = dual_module(n).as_left_over_opposite()
    if realization == "segments":
        rep = pcomp_ext(m_op, dn_op, i, K, w)
    elif realization == "ext":
        rep = cotower_limit(ext_cotower(m_op, dn_op, i, K), w)
    else:
        raise ValueError("realization must be 'segments' or 'ext'")
    rep.provenance = "stable-via-duality"
    return rep


def to_tor_class(dw: DoubleWindow, k: int, w: WindowElement) -> np.ndarray:
    """Class of a left-edge cycle (single column k) in Tor_{k+i}(m, Omega^k n)."""
    supp = w.support()
    if supp and supp != [k]:
        raise ValueError("element is not supported at the left edge column")
    i = w.i
    row = i + k
    h = tor(dw.m, dw.inj.cosyzygy(k), row)
    if h.dim == 0:
        return np.zeros(0, dtype=np.int64)
    amb = tensor_map(dw.inj.cosyzygy_incl(k), dw.m, row)
    x = solve_matrix(amb, Matrix(dw.m.p, w.component(k).reshape(-1, 1)))
    if x is None:
        raise ValueError("left-edge element is not a horizontal cycle")
    return h.class_of(x.a[:, 0])


def from_tor_class(dw: DoubleWindow, k: int, i: int, cls: np.ndarray) -> WindowElement:
    """Left-edge window representative of a Tor_{k+i}(m, Omega^k n) class."""
    row = i + k
    rep = tor(dw.m, dw.inj.cosyzygy(k), row).representative(cls)
    return WindowElement(dw, i, {k: tensor_map(dw.inj.cosyzygy_incl(k), dw.m, row).apply(rep)})


@dataclass
class CompatibleFamily:
    """Left-edge compatible family ([w^{>=k}]) for k = start..top."""

    dw: DoubleWindow
    i: int
    start: int
    reps: dict[int, WindowElement]

    @property
    def top(self) -> int:
        return max(self.reps) if self.reps else self.start - 1

    def is_zero(self) -> bool:
        return all(not v.comps for v in self.reps.values())

    def witness(self, k: int) -> WindowElement:
        """v^k in D^k_{i+1+k} with boundary(v^k) = w^{>=k} - w^{>=k+1}."""
        dw = self.dw
        diff = self.reps[k].add(self.reps[k + 1], sign=-1)
        row = self.i + 1 + k
        if row > dw.m_max:
            raise WindowExhausted("witness row above the stored window")
        stacked = vstack([dw.vert(row, k), dw.horiz(row, k)])
        rhs = np.concatenate([diff.component(k), diff.component(k + 1)])
        sol = solve_matrix(stacked, Matrix(dw.m.p, rhs.reshape(-1, 1)))
        if sol is None:
            raise ValueError("family is not compatible at stage " + str(k))
        return WindowElement(dw, self.i + 1, {k: sol.a[:, 0]})


def family_from_limit(dw: DoubleWindow, i: int, tower, report, gen_index: int) -> CompatibleFamily:
    """Build a compatible family from a stabilized tower generator.

    Coherent classes are produced by pushing the chosen stable-image basis
    vector down the tower and solving the (bijective on stable images)
    transitions upward.  Left-edge representatives carry the sign twist
    s_{k+1} = (-1)^{k+i} s_k: the canonical comparison element y with
    boundary(y) = w_k + (-1)^{k+i+1} w_{k+1} forces it, so the twisted family
    satisfies the untwisted witness equation exactly.
    """
    if not report.stabilized:
        raise ValueError("tower did not stabilize")
    k0 = report.stable_range[0]
    K = tower.k_max
    gen = np.asarray(report.limit_basis[gen_index], dtype=np.int64)
    classes: dict[int, np.ndarray] = {k0: gen}
    for k in range(k0 - 1, tower.k_min - 1, -1):
        classes[k] = tower.maps[k + 1].apply(classes[k + 1])
    for k in range(k0 + 1, K + 1):
        sol = solve_matrix(tower.maps[k], Matrix(dw.m.p, classes[k - 1].reshape(-1, 1)))
        if sol is None:
            raise RuntimeError("stable transition failed to invert")
        classes[k] = sol.a[:, 0]
    p = dw.m.p
    reps = {}
    sign = 1
    for k in sorted(classes):
        reps[k] = from_tor_class(dw, k, i, (sign * classes[k]) % p)
        sign = (sign * (-1) ** ((k + i) % 2)) % p
    return CompatibleFamily(dw, i, tower.k_min, reps)


def map_tau(fam: CompatibleFamily) -> tuple[Subquotient, np.ndarray]:
    """The augmentation to Tor: send the family to its stage-0 class.

    Returns (Tor_i(m, n) space, class coordinates); for i < 0 the space is
    zero (``tor``'s convention).
    """
    h = tor(fam.dw.m, fam.dw.n, fam.i)
    if fam.i < 0:
        return h, np.zeros(0, dtype=np.int64)
    if 0 not in fam.reps:
        raise ValueError("family does not reach stage 0")
    return h, to_tor_class(fam.dw, 0, fam.reps[0])


def map_eth(z: WindowElement) -> tuple[Subquotient, np.ndarray]:
    """Connecting map: class of boundary(z) in Tor_i(m, n), i = deg z - 1."""
    dw = z.dw
    i = z.i - 1
    dz = z.boundary()
    h = tor(dw.m, dw.n, i)
    if i < 0 or dz.is_zero():
        return h, np.zeros(h.dim, dtype=np.int64)
    _, edge = compress_cycle(dw, dz, 0)
    cls = to_tor_class(dw, 0, edge)
    return h, cls


def map_sigma(z: WindowElement) -> CompatibleFamily:
    """Factorization through complete homology: k-th member [boundary(z^{>=k})].

    Members are compressed to the left edge of each truncation.  For ideal
    tail elements the stages run up to tail_col - 1; stages past the stored
    support of a finite element are zero.
    """
    dw = z.dw
    i = z.i - 1
    d = max(0, -i)
    supp = z.support()
    k_hi = (z.tail_col - 1) if z.tail_col is not None else (supp[-1] + 1 if supp else d)
    k_hi = min(k_hi, dw.n_max - 1)
    reps: dict[int, WindowElement] = {}
    for k in range(d, k_hi + 1):
        w = z.boundary_truncated(k)
        if z.tail_col is not None:
            w = WindowElement(dw, i, {c: v for c, v in w.comps.items() if c < z.tail_col})
        if w.is_zero():
            reps[k] = WindowElement(dw, i)
            continue
        _, edge = compress_cycle(dw, w, k)
        reps[k] = edge
    return CompatibleFamily(dw, i, d, reps)


@dataclass
class InjectivityProbe:
    """Window evidence about the open question whether sigma is injective.

    Records the ranks of eth and sigma on the classes generated from the
    stabilized tower: evidence only, never a theorem.  A full-rank eth on the
    generated span is consistent with injectivity on this window and asserts
    nothing beyond it.
    """

    degree: int
    generators: int
    eth_rank: int
    sigma_zero_kernel_observed: bool
    note: str = "window evidence only (open question)"


def injectivity_probe(dw: DoubleWindow, i: int, K: int, w: int = 3) -> InjectivityProbe:
    """Gather finite evidence on eth/sigma ranks for the window's module pair."""
    from .completion import cosyzygy_tower, tower_limit

    t = cosyzygy_tower(dw.m, dw.n, i, K)
    rep = tower_limit(t, w)
    if not rep.stabilized or rep.limit_dim == 0:
        return InjectivityProbe(i, 0, 0, True)
    h = tor(dw.m, dw.n, i)
    cols = []
    fams = []
    for g in range(rep.limit_dim):
        fam = family_from_limit(dw, i, t, rep, g)
        fams.append(fam)
        z = sigma_preimage(fam)
        _, cls = map_eth(z)
        cols.append(cls)
    if h.dim == 0:
        return InjectivityProbe(i, rep.limit_dim, 0, True)
    mat = Matrix(dw.m.p, np.array(cols, dtype=np.int64).T.reshape(h.dim, len(cols)))
    eth_rank = rref(mat)[2]
    # sigma of each assembled element reproduces its family: no kernel observed
    ok = True
    for fam in fams:
        z = sigma_preimage(fam)
        back = map_sigma(z)
        for k in range(fam.start, fam.top):
            if not np.array_equal(to_tor_class(dw, k, back.reps[k]), to_tor_class(dw, k, fam.reps[k])):
                ok = False
    return InjectivityProbe(i, rep.limit_dim, eth_rank, ok)


def sigma_preimage(fam: CompatibleFamily) -> WindowElement:
    """Assemble z with map_sigma(z) = fam (the surjectivity construction).

    z carries an ideal tail at the family's top stage: its components at
    columns >= top are a coherent continuation, exactly as the product
    totalization element of the infinite construction.
    """
    dw = fam.dw
    d = fam.start
    top = fam.top
    comps: dict[int, np.ndarray] = {}
    for k in range(d, top):
        v = fam.witness(k)
        if v.comps:
            comps[k] = v.component(k)
    z = WindowElement(dw, fam.i + 1, comps, tail_col=top)
    return z
