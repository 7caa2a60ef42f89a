"""Minimal projective/injective resolutions and complete resolutions.

One engine, two faces: injective-side computations are performed by dualizing
to projective-side computations (over the same algebra, opposite side), so
minimality and exactness certificates transfer by duality.

Complete resolutions are built only along the two certifiable routes:
  * self-injective algebra: splice the minimal projective and minimal
    injective resolutions of the module;
  * certified periodic tail: extend the periodic pattern downward.
Failure to construct is reported as non-certification, never as a
non-existence claim.

The memo (``_memo``) lives for the process and holds resolutions, injective
resolutions, checked cosyzygy sequences with their snake operators, and the
chains of ``derived``.  Chain homology is scoped to one degree of a request:
a chain registers each homology space it makes (``_degree_scoped``), and
``end_degree`` drops the spaces this thread made since its last call.

Comparison lifts have one home, ``lift_chain_map``: a stack of maps between
syzygies is lifted through the covers and then degree by degree, with the
sign (-1)^i of a degree -i chain map, one ``hom_solve`` per degree for the
whole stack.  ``hom_solve`` takes and returns stacks only, and solves in the
coordinates of ``algmod.hom_coords``.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from .algmod import (
    Algebra,
    FdModule,
    ModuleMap,
    act,
    direct_sum,
    dual_module,
    free_module,
    hom_coords,
    is_isomorphic,
    radical_submodule,
    regular_module,
    socle,
    submodule,
    submodule_from_subspace,
)
from .exactla import (
    Matrix,
    Subspace,
    kernel_basis,
    mulmod,
    reduced,
    rref,
    solve_matrix,
)

__all__ = [
    "Resolution",
    "InjResolution",
    "CompleteResolution",
    "PeriodicityCertificate",
    "projective_cover",
    "injective_envelope",
    "min_proj_resolution",
    "min_inj_resolution",
    "detect_periodicity",
    "is_self_injective",
    "is_projective",
    "is_injective",
    "complete_resolution",
    "check_total_acyclicity_window",
    "lift_chain_map",
    "syzygy_map",
    "hom_solve",
    "end_degree",
]

# The one process-wide memo of homological data, keyed by content fingerprints:
# ("res", m) projective and ("inj", n) injective resolutions, ("tensor"|"ext", m, n)
# chains in derived, ("cosyzygy_ses", n, k) and ("syzygy_ses", n, k) checked
# sequences with their snake operators in completion and derived, and
# ("self_injective", algebra) verdicts.  Library callers may share it across
# threads: a reader returns the value it built or found and never reads a dict
# a second time, as another thread's end_degree may drop a homology space in
# between.
_memo: dict[tuple, object] = {}
_memo_lock = threading.Lock()
# per thread: chain -> the degrees of the homology spaces it made since the last end_degree
_made = threading.local()


def _memoized(key: tuple, build):
    """The memo entry under key, made by build() on first request.

    build runs under the non-reentrant memo lock, so it must not itself
    request a memo entry or extend a resolution.
    """
    with _memo_lock:
        value = _memo.get(key)
        if value is None:
            value = _memo[key] = build()
        return value


def _degree_scoped(chain, i: int) -> None:
    """Record that chain made its degree-i homology space in this thread's current degree."""
    made = getattr(_made, "chains", None)
    if made is None:
        made = _made.chains = weakref.WeakKeyDictionary()
    made.setdefault(chain, set()).add(i)


def end_degree() -> None:
    """End a degree of this thread's request: every chain drops the homology spaces
    it made in this thread since the last call.

    A cosyzygy-tower stage Tor_{k+i}(M, Omega^k N), like the Tate and Ext spaces
    of a request's degree i, is read by degree i alone, so nothing is made twice.
    The chains, the differentials that a later degree reads, and every other
    memo entry stay.
    """
    made = getattr(_made, "chains", None)
    if made:
        for chain, degrees in list(made.items()):
            for i in degrees:
                chain.drop_homology(i)
        made.clear()


# -- covers and envelopes ---------------------------------------------------


def projective_cover(m: FdModule) -> tuple[FdModule, ModuleMap, Subspace]:
    """Projective cover P(m) with its surjection and its kernel, which lands in rad P.

    Supported class only (split basic).  For projective m returns (m, id, 0).
    The generators lift a basis of top m = top P: of the candidates e_t * (lift
    of a top basis vector), simple by simple, each one independent modulo rad m
    of those before it, which is the column rank profile of the reduced
    candidates, so one elimination finds them.  The cover map is checked
    A-linear on the algebra generators, and ker pi inside rad P, which is
    read off rad A when P is free.
    """
    a = m.algebra
    a.assert_supported()
    if m.dim == 0:
        zero = free_module(a, m.side, 0)
        return zero, ModuleMap(zero, m, Matrix.zeros(a.p, 0, 0), check=False), Subspace.zero(a.p, 0)
    idems = a.primitive_idempotents()
    rad_m = radical_submodule(m)
    comp = rad_m.complement_cols()
    top_dim = len(comp)
    # candidate t * top_dim + c is e_t times the lift of top basis vector c:
    # column comp[c] of e_t's action
    lifts = act(m, np.eye(m.dim, dtype=np.int64)[:, comp], np.array(idems)).transpose(0, 2, 1).reshape(-1, m.dim)
    _, gens, _ = rref(Matrix(a.p, rad_m.reduce(lifts).T))
    if len(gens) != top_dim:
        raise RuntimeError("projective cover: top decomposition failed")
    # generator s has simple type gens[s] // top_dim, and the surjection sends
    # it to its lift v_s: on A it is the orbit [a_u . v_s]_u, on A e_t that
    # orbit restricted along A e_t -> A
    free = free_module(a, m.side, top_dim)
    orbits = np.hsplit(hom_coords(free, m).to_ambient(lifts[gens].reshape(1, -1))[0], top_dim)
    if len(idems) == 1:
        proj = free
    else:
        reg = regular_module(a, m.side)
        pairs = [submodule(reg, [idems[j // top_dim]]) for j in gens]
        orbits = [mulmod(orbit, incl.matrix.a, a.p) for orbit, (_, incl) in zip(orbits, pairs)]
        summand_mods = [sub for sub, _ in pairs]
        proj = direct_sum(summand_mods) if len(summand_mods) > 1 else summand_mods[0]
    pi = ModuleMap(proj, m, Matrix(a.p, np.hstack(orbits)), check=False)
    if not pi.commutes(a.generating_basis()):  # A-linear, as proj and m are modules
        raise ValueError("matrix does not commute with the action")
    ker = pi.kernel()  # one elimination of pi: it is onto iff dim P - dim ker = dim m
    if proj.dim - ker.dim != m.dim:
        raise RuntimeError("projective cover: constructed map is not surjective")
    if not radical_submodule(proj).contains_subspace(ker):
        raise RuntimeError("projective cover: kernel not inside rad P")
    if proj.dim == m.dim:
        return m, ModuleMap.identity(m), ker
    return proj, pi, ker


def injective_envelope(m: FdModule) -> tuple[FdModule, ModuleMap]:
    """Injective envelope as the dual of the projective cover of the dual."""
    dm = dual_module(m)
    cover, pi, _ = projective_cover(dm)
    env = dual_module(cover)
    iota = ModuleMap(m, env, pi.matrix.transpose(), check=False)
    if not iota.is_injective():
        raise RuntimeError("injective envelope: embedding not injective")
    # essential: the socle of E must lie in the image (checked on generators)
    if not iota.image().contains(socle(env).basis.a):
        raise RuntimeError("injective envelope: image not essential")
    if env.dim == m.dim:
        return m, ModuleMap.identity(m)
    return env, iota


def is_projective(m: FdModule) -> bool:
    cover, _, _ = projective_cover(m)
    return cover.dim == m.dim


def is_injective(m: FdModule) -> bool:
    env, _ = injective_envelope(m)
    return env.dim == m.dim


# -- minimal resolutions ------------------------------------------------------


@dataclass
class _Stage:
    proj: FdModule  # P_k
    cover_map: ModuleMap  # P_k ->> Omega_k
    ker: Subspace  # ker of the cover map, Omega_{k+1} inside P_k
    _kernel: tuple[FdModule, ModuleMap] | None = field(default=None, init=False, repr=False)
    _differential: ModuleMap | None = field(default=None, init=False, repr=False)  # d_k, once read

    def kernel(self) -> tuple[FdModule, ModuleMap]:
        """Omega_{k+1} with its inclusion into P_k, induced from ker on first request."""
        if self._kernel is None:
            self._kernel = submodule_from_subspace(self.proj, self.ker)
        return self._kernel


class Resolution:
    """Minimal projective resolution, extended in place on deeper requests.

    Stage k holds P_k, its cover map and ker pi_k.  The module Omega_{k+1} is
    induced on ker pi_k only when stage k + 1, syzygy(k + 1) or
    syzygy_incl(k + 1) reads it, and then once per stage; so is the
    differential d_k.  Stages are appended under the memo lock, so threads
    that share the resolution extend it once.
    """

    def __init__(self, m: FdModule):
        self.module = m
        self._stages: list[_Stage] = []

    def extend(self, depth: int) -> "Resolution":
        if len(self._stages) <= depth:
            with _memo_lock:
                while len(self._stages) <= depth:
                    omega = self._stages[-1].kernel()[0] if self._stages else self.module
                    self._stages.append(_Stage(*projective_cover(omega)))
        return self

    @property
    def depth(self) -> int:
        return len(self._stages) - 1

    def _stage(self, k: int) -> _Stage:
        if k < 0:
            raise ValueError(f"resolution degree {k} is negative")
        self.extend(k)
        return self._stages[k]

    def proj(self, k: int) -> FdModule:
        return self._stage(k).proj

    def betti(self, k: int) -> int:
        """Summands of P_k: dim top P_k, as each top A e_t is one-dimensional (split basic)."""
        proj = self.proj(k)
        return proj.dim - radical_submodule(proj).dim

    def betti_table(self, depth: int) -> list[int]:
        return [self.betti(k) for k in range(depth + 1)]

    def cover_map(self, k: int) -> ModuleMap:
        """The surjection P_k ->> Omega_k (k = 0: the augmentation onto m)."""
        return self._stage(k).cover_map

    def syzygy(self, k: int) -> FdModule:
        """Omega_k; Omega_0 is the resolved module itself."""
        if k < 0:
            raise ValueError(f"syzygy degree {k} is negative")
        return self.module if k == 0 else self._stage(k - 1).kernel()[0]

    def syzygy_incl(self, k: int) -> ModuleMap:
        """The inclusion Omega_k -> P_{k-1} (k >= 1)."""
        if k < 1:
            raise ValueError("syzygy inclusion needs k >= 1")
        return self._stage(k - 1).kernel()[1]

    def differential(self, k: int) -> ModuleMap:
        """d_k: P_k -> P_{k-1} (k >= 1), composite of cover and inclusion, built once per stage."""
        if k < 1:
            raise ValueError("differential needs k >= 1")
        stage = self._stage(k)
        d = stage._differential
        if d is None:
            d = stage._differential = ModuleMap(stage.proj, self.proj(k - 1),
                                                self.syzygy_incl(k).matrix @ stage.cover_map.matrix, check=False)
        return d

    def to_dict(self, depth: int) -> dict:
        self.extend(depth)
        return {
            "module_dim": self.module.dim,
            "side": self.module.side,
            "dims": [self.proj(k).dim for k in range(depth + 1)],
            "betti": self.betti_table(depth),
            "differentials": [self.differential(k).matrix.to_lists() for k in range(1, depth + 1)],
        }


def min_proj_resolution(m: FdModule, depth: int) -> Resolution:
    """Memoized minimal projective resolution of m, extended to depth."""
    return _memoized(("res", m.fingerprint()), lambda: Resolution(m)).extend(depth)


class InjResolution:
    """Minimal injective resolution, realized by dualizing a projective one.

    Each dual is built once per instance: the spaces, cosyzygies and maps are
    cached by degree.
    """

    def __init__(self, n: FdModule, depth: int):
        self.module = n
        self._dual_res = min_proj_resolution(dual_module(n), depth)
        self._cache: dict[tuple[str, int], object] = {}

    def _cached(self, key: tuple[str, int], build):
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build()
        return value

    def extend(self, depth: int) -> "InjResolution":
        self._dual_res.extend(depth)
        return self

    def space(self, j: int) -> FdModule:
        """I^j, an injective module of the same side as n."""
        return self._cached(("space", j), lambda: dual_module(self._dual_res.proj(j)))

    def cosyzygy(self, j: int) -> FdModule:
        """Omega^j n (j = 0 gives back n itself, with identical matrices)."""
        return self._cached(("cosyzygy", j), lambda: dual_module(self._dual_res.syzygy(j)))

    def codifferential(self, j: int) -> ModuleMap:
        """I^j -> I^{j+1}."""
        return self._cached(("codifferential", j), lambda: ModuleMap(
            self.space(j), self.space(j + 1), self._dual_res.differential(j + 1).matrix.transpose(), check=False))

    def augmentation(self) -> ModuleMap:
        """n -> I^0 (an essential embedding)."""
        return self.cosyzygy_incl(0)

    def cosyzygy_incl(self, j: int) -> ModuleMap:
        """Omega^j -> I^j (j = 0: the augmentation)."""
        return self._cached(("cosyzygy_incl", j), lambda: ModuleMap(
            self.cosyzygy(j), self.space(j), self._dual_res.cover_map(j).matrix.transpose(), check=False))

    def cosyzygy_proj(self, j: int) -> ModuleMap:
        """I^{j-1} ->> Omega^j (j >= 1)."""
        return self._cached(("cosyzygy_proj", j), lambda: ModuleMap(
            self.space(j - 1), self.cosyzygy(j), self._dual_res.syzygy_incl(j).matrix.transpose(), check=False))

    def cosyzygy_ses(self, k: int):
        """0 -> Omega^{k-1} -> I^{k-1} -> Omega^k -> 0 (k >= 1)."""
        return (
            self.cosyzygy(k - 1),
            self.space(k - 1),
            self.cosyzygy(k),
            self.cosyzygy_incl(k - 1),
            self.cosyzygy_proj(k),
        )


def min_inj_resolution(n: FdModule, depth: int) -> InjResolution:
    """Memoized minimal injective resolution of n, one instance per fingerprint.

    The instance is built outside the memo lock, as building it requests the
    memoized dual resolution; only its insertion takes the lock.
    """
    key = ("inj", n.fingerprint())
    with _memo_lock:
        inj = _memo.get(key)
    if inj is None:
        inj = InjResolution(n, depth)
        with _memo_lock:
            inj = _memo.setdefault(key, inj)
    return inj.extend(depth)


# -- periodicity and self-injectivity ----------------------------------------


@dataclass
class PeriodicityCertificate:
    offset: int
    period: int
    witness: ModuleMap  # Omega_{offset+period} -> Omega_offset, verified iso

    def to_dict(self):
        return {"offset": self.offset, "period": self.period}


def detect_periodicity(res: Resolution, depth: int, seed: int = 0) -> PeriodicityCertificate | None:
    """Search for a certified isomorphism Omega_{q+s} = Omega_q with q+s <= depth."""
    res.extend(depth)
    for s in range(1, depth + 1):
        for q in range(0, depth - s + 1):
            a, b = res.syzygy(q + s), res.syzygy(q)
            if a.dim != b.dim:
                continue
            iso = is_isomorphic(a, b, seed=seed)
            if iso.status == "isomorphic":
                return PeriodicityCertificate(q, s, iso.witness)
    return None


def is_self_injective(a: Algebra) -> tuple[bool, dict]:
    """True iff the regular module equals its injective envelope; memoized per algebra fingerprint."""

    def build():
        reg = regular_module(a, "left")
        env, _ = injective_envelope(reg)
        return env.dim == reg.dim, {"regular_dim": reg.dim, "envelope_dim": env.dim}

    return _memoized(("self_injective", a.fingerprint()), build)


# -- complete resolutions ------------------------------------------------------


@dataclass
class CompleteResolutionFailure:
    reason: str

    def to_dict(self):
        return {"certified": False, "reason": self.reason}


class CompleteResolution:
    """Window of a totally acyclic complex T with comparison to the resolution.

    Stored on degrees [lo, hi]; the comparison map to the minimal projective
    resolution is the identity in degrees >= agreement_degree.
    """

    def __init__(self, m: FdModule, modules: dict[int, FdModule], diffs: dict[int, ModuleMap],
                 agreement_degree: int, mode: str, certificate: PeriodicityCertificate | None = None):
        self.module = m
        self.modules = modules
        self.diffs = diffs
        self.agreement_degree = agreement_degree
        self.mode = mode
        self.certificate = certificate
        self.tate_chains: dict[str, object] = {}  # n fingerprint -> derived.TateChain
        degrees = sorted(modules)
        self.lo, self.hi = degrees[0], degrees[-1]
        for j in range(self.lo + 2, self.hi + 1):
            comp = diffs[j - 1].matrix @ diffs[j].matrix
            if not comp.is_zero():
                raise RuntimeError(f"complete resolution: d d != 0 at degree {j}")

    def space(self, j: int) -> FdModule:
        if j not in self.modules:
            raise ValueError(f"degree {j} outside stored window [{self.lo}, {self.hi}]")
        return self.modules[j]

    def differential(self, j: int) -> ModuleMap:
        if j not in self.diffs:
            raise ValueError(f"differential {j} outside stored window")
        return self.diffs[j]

    def to_dict(self):
        return {
            "certified": True,
            "mode": self.mode,
            "agreement_degree": self.agreement_degree,
            "window": [self.lo, self.hi],
            "dims": {str(j): self.modules[j].dim for j in sorted(self.modules)},
            "certificate": self.certificate.to_dict() if self.certificate else None,
        }


def complete_resolution(m: FdModule, depth: int, seed: int = 0):
    """Complete resolution of m on the window [-depth-1, depth+1], or a failure report."""
    a = m.algebra
    selfinj, _ = is_self_injective(a)
    res = min_proj_resolution(m, depth + 1)
    if selfinj:
        inj = min_inj_resolution(m, depth + 1)
        modules: dict[int, FdModule] = {}
        diffs: dict[int, ModuleMap] = {}
        for j in range(0, depth + 2):
            modules[j] = res.proj(j)
            if j >= 1:
                diffs[j] = res.differential(j)
        for t in range(0, depth + 1):
            modules[-1 - t] = inj.space(t)
        eps = res.cover_map(0)
        eta = inj.augmentation()
        diffs[0] = ModuleMap(modules[0], modules[-1], eta.matrix @ eps.matrix, check=False)
        for t in range(0, depth):
            cod = inj.codifferential(t)
            diffs[-1 - t] = ModuleMap(modules[-1 - t], modules[-2 - t], cod.matrix, check=False)
        return CompleteResolution(m, modules, diffs, 0, "splice")
    cert = detect_periodicity(res, depth, seed=seed)
    if cert is None:
        return CompleteResolutionFailure(
            "no complete resolution certified: algebra is not self-injective and "
            f"no periodicity certificate found within depth {depth}"
        )
    q, s = cert.offset, cert.period
    res.extend(max(depth + 1, q + s + 1))
    phi = cert.witness.inverse()  # Omega_q -> Omega_{q+s}
    modules = {}
    diffs = {}
    hi = depth + 1
    for j in range(q, hi + 1):
        modules[j] = res.proj(j)
        if j >= q + 1:
            diffs[j] = res.differential(j)
    # seam: P_q -> P_{q+s-1} through Omega_q = Omega_{q+s}
    seam = ModuleMap(
        res.proj(q),
        res.proj(q + s - 1),
        res.syzygy_incl(q + s).matrix @ phi.matrix @ res.cover_map(q).matrix,
        check=False,
    )
    lo = -depth - 1
    j = q
    while j > lo:
        # block below: degrees j-1 .. j-s hold P_{q+s-1} .. P_q
        for t in range(1, s + 1):
            deg = j - t
            if deg < lo:
                break
            modules[deg] = res.proj(q + s - t)
            if t == 1:
                src_map = seam
            else:
                src_map = res.differential(q + s - t + 1)
            diffs[deg + 1] = ModuleMap(modules[deg + 1], modules[deg], src_map.matrix, check=False)
        j -= s
    return CompleteResolution(m, modules, diffs, q, "periodic", cert)


@dataclass
class AcyclicityReport:
    degrees: list[int]
    homology_dims: dict[int, int]
    hom_dual_homology_dims: dict[int, int]
    ok: bool = field(init=False)

    def __post_init__(self):
        self.ok = all(v == 0 for v in self.homology_dims.values()) and all(
            v == 0 for v in self.hom_dual_homology_dims.values()
        )


def check_total_acyclicity_window(tcx: CompleteResolution, window: int) -> AcyclicityReport:
    """Verify H_i(T) = 0 and H^i(Hom(T, A)) = 0 for |i| <= window.

    Hom into the regular module suffices: every projective is a summand of a
    free module, and Hom(T, -) commutes with finite sums.
    """
    degrees = [i for i in range(-window, window + 1)]
    hdims: dict[int, int] = {}
    hhom: dict[int, int] = {}
    a = tcx.module.algebra
    reg = regular_module(a, tcx.module.side)
    # Hom(T, A) at cohomological position i is Hom(T_i, A), with maps by precomposition;
    # each space and each coboundary Hom(T_{j-1}, A) -> Hom(T_j, A) is built once
    homs = {j: hom_coords(tcx.space(j), reg) for j in range(-window - 1, window + 2)}
    cobound = {j: homs[j - 1].precompose(tcx.differential(j), homs[j]) for j in range(-window, window + 2)}
    for i in degrees:
        ker, im = kernel_basis(tcx.differential(i).matrix), tcx.differential(i + 1).image()
        hdims[i] = ker.dim - im.dim
        # exactness at Hom(T_i, A) compares Hom(T_{i-1}) -> Hom(T_i) -> Hom(T_{i+1})
        ker_h = cobound[i + 1].kernel()
        im_h = cobound[i].transpose().row_space()
        hhom[i] = ker_h.dim - im_h.dim
        if not ker_h.contains_subspace(im_h):
            hhom[i] = -1  # exactness violated structurally
    return AcyclicityReport(degrees, hdims, hhom)


# -- comparison lifts -----------------------------------------------------------


def hom_solve(source: FdModule, target: FdModule, post: Matrix, rhs: np.ndarray) -> np.ndarray:
    """The maps g in Hom_A(source, target) with post @ g = rhs[c], for a stack of right-hand sides.

    rhs is (k, post.rows, dim source), and the answer the (k, dim target, dim
    source) stack of the maps (deterministic).  The whole stack is one solve
    in the coordinates of ``hom_coords(source, target)``: generator images for
    a free source, the Hom-subspace basis otherwise.  Free variables are
    pinned to zero, so each map is the one its own solve gives, and each is
    A-linear by construction.
    """
    stack = reduced(rhs, post.p)
    hom = hom_coords(source, target)
    coords = hom.solve(post, stack)
    maps = None if coords is None else hom.to_ambient(coords)
    # post must be A-linear for the solve in Hom coordinates to give post @ g = rhs
    if maps is None or (mulmod(post.a, maps, post.p) != stack).any():
        raise RuntimeError("hom_solve: no A-linear solution")
    return maps


def lift_chain_map(f, k: int, i: int, hi: int, res_m: Resolution, res_n: Resolution) -> list[np.ndarray]:
    """Components phi_t: P_t -> Q_{t-i}, t in [k, hi], of the chain-map lifts of a stack of maps.

    P and Q are the resolutions res_m of M and res_n of N.  f is a stack
    (s, dim Omega_{k-i} N, dim Omega_k M) of maps Omega_k M -> Omega_{k-i} N,
    lifted first through the covers, pi_{k-i} phi_k = f pi_k; or it is a
    segment to continue, the list of its component stacks in the degrees
    below k.  Each further degree solves d_Q phi_t = (-1)^i phi_{t-1} d_P.
    Every degree is one ``hom_solve`` for the whole stack.  Returns the
    segment's components, if any, followed by those of degrees k..hi.
    """
    p = res_m.module.p
    comps = list(f) if isinstance(f, list) else []
    for t in range(k, hi + 1):
        if comps:
            rhs = mulmod(comps[-1], res_m.differential(t).matrix.a, p)
            if i % 2:  # -rhs, kept in [0, p)
                np.subtract(p, rhs, out=rhs, where=rhs != 0)
            post = res_n.differential(t - i).matrix
        else:
            rhs, post = mulmod(f, res_m.cover_map(k).matrix.a, p), res_n.cover_map(k - i).matrix
        comps.append(hom_solve(res_m.proj(t), res_n.proj(t - i), post, rhs))
    return comps


def syzygy_map(f: ModuleMap, k: int) -> ModuleMap:
    """Omega_k(f): Omega_k(source) -> Omega_k(target), via a chain-map lift."""
    if k == 0:
        return f
    res_s = min_proj_resolution(f.source, k)
    res_t = min_proj_resolution(f.target, k)
    phi = lift_chain_map(f.matrix.a[None], 0, 0, k - 1, res_s, res_t)[-1][0]
    mat = solve_matrix(res_t.syzygy_incl(k).matrix, Matrix(f.p, mulmod(phi, res_s.syzygy_incl(k).matrix.a, f.p)))
    if mat is None:
        raise RuntimeError("syzygy_map: lift does not restrict to syzygies")
    return ModuleMap(res_s.syzygy(k), res_t.syzygy(k), mat, check=False)
