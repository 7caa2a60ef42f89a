"""Tests for the completed-Ext cotower, the mu comparison and the duality bridge."""

import tracemalloc

import numpy as np
import pytest

from homct import cohom
from homct.algmod import (
    Algebra,
    FreeHomCoords,
    ModuleMap,
    _free_block_entries,
    _free_map_matrix,
    direct_sum,
    free_module,
    regular_module,
    simple_modules,
    stable_hom,
)
from homct.cohom import (
    SegmentStage,
    bc_cotower,
    bc_ext,
    duality_bridge_check,
    mu_forward,
    mu_stage_check,
    pcomp_ext,
)
from homct.derived import ext, ext_chain
from homct.exactla import Matrix, SparseMatrix, Subspace, image_basis, kernel_basis, rref, solve_matrix
from homct.fixtures import (
    algebra_a1,
    algebra_a2,
    algebra_a3,
    algebra_a4,
    simple_k,
)
from homct.resolve import hom_solve, lift_chain_map, min_proj_resolution


# --- Benson-Carlson cotower -----------------------------------------------------

def test_bc_a1_constant():
    a1 = algebra_a1()
    k = simple_k(a1)
    rep = bc_ext(k, k, 0, 4)
    assert rep.dims == [1, 1, 1, 1, 1]
    assert rep.stabilized and rep.limit_dim == 1


def test_bc_projective_first_argument():
    a1 = algebra_a1()
    reg = regular_module(a1, "left")
    rep = bc_ext(reg, simple_k(a1), 0, 3)
    assert rep.stabilized and rep.limit_dim == 0


def test_bc_a2_growth():
    a2 = algebra_a2()
    k = simple_k(a2)
    rep = bc_ext(k, k, 0, 3)
    assert rep.dims == [1, 4, 16, 64]
    assert rep.verdict == "NotStabilized"


def test_bc_transitions_iso_on_a1():
    a1 = algebra_a1()
    k = simple_k(a1)
    t = bc_cotower(k, k, 0, 4)
    from homct.exactla import rref

    for kk in range(0, 4):
        assert rref(t.maps[kk])[2] == 1


# --- pcomp (truncated Hom route) ---------------------------------------------------

def test_pcomp_a1_all_small_degrees():
    a1 = algebra_a1()
    k = simple_k(a1)
    for i in range(0, 4):
        rep = pcomp_ext(k, k, i, 3)
        assert rep.dims == [1, 1, 1, 1]
        assert rep.stabilized and rep.limit_dim == 1


def test_pcomp_projective_vanishes():
    a1 = algebra_a1()
    reg = regular_module(a1, "left")
    rep = pcomp_ext(reg, simple_k(a1), 1, 3)
    assert rep.stabilized and rep.limit_dim == 0


def test_pcomp_a2_stage_dims_match_bc():
    a2 = algebra_a2()
    k = simple_k(a2)
    rep = pcomp_ext(k, k, 0, 3)
    bc = bc_ext(k, k, 0, 3)
    assert rep.dims == bc.dims == [1, 4, 16, 64]


def test_pcomp_stage_dims_equal_ext_of_syzygy():
    # the internal Theta isomorphism, spot-checked from outside
    a3 = algebra_a3()
    k = simple_k(a3)
    res = min_proj_resolution(k, 5)
    rep = pcomp_ext(k, k, 1, 3)
    for kk in range(0, 4):
        assert rep.dims[kk] == ext(k, res.syzygy(kk), kk + 1).dim


def test_pcomp_a4_odd_degree_signs():
    # p = 3 with i odd exercises the (-1)^i seam sign in the route verification
    a4 = algebra_a4()
    k = simple_k(a4)
    for i in (0, 1, 2):
        rep = pcomp_ext(k, k, i, 3)
        assert rep.stabilized and rep.limit_dim == 1


def triangular_f3() -> Algebra:
    """Upper triangular 2x2 matrices over F_3 (basis e11, e12, e22): two simples, unit e11 + e22."""
    struct = np.zeros((3, 3, 3), dtype=np.int64)
    for (i, j), k in {(0, 0): 0, (0, 1): 1, (1, 2): 1, (2, 2): 2}.items():
        struct[i, j, k] = 1
    return Algebra(3, struct, [1, 0, 1])


def _t2_modules():
    t2 = triangular_f3()
    return dict(zip(["s0", "s1", "reg"], [*simple_modules(t2, "left"), regular_module(t2, "left")]))


# (m, n, i) -> (stage dims, verdict) of pcomp_ext(m, n, i, 3) over T_2(F_3),
# recorded before the segment systems were built in place
T2_PCOMP = {
    ("s0", "s0", 0): ([1, 1, 0, 0], "NotStabilized"), ("s0", "s0", 1): ([0, 0, 0, 0], "Stabilized"),
    ("s0", "s1", 0): ([0, 0, 0, 0], "Stabilized"), ("s0", "s1", 1): ([1, 0, 0, 0], "Stabilized"),
    ("s0", "reg", 0): ([0, 0, 0, 0], "Stabilized"), ("s0", "reg", 1): ([1, 0, 0, 0], "Stabilized"),
    ("s1", "s0", 0): ([0, 0, 0, 0], "Stabilized"), ("s1", "s0", 1): ([0, 0, 0, 0], "Stabilized"),
    ("s1", "s1", 0): ([1, 0, 0, 0], "Stabilized"), ("s1", "s1", 1): ([0, 0, 0, 0], "Stabilized"),
    ("s1", "reg", 0): ([2, 0, 0, 0], "Stabilized"), ("s1", "reg", 1): ([0, 0, 0, 0], "Stabilized"),
    ("reg", "s0", 0): ([1, 0, 0, 0], "Stabilized"), ("reg", "s0", 1): ([0, 0, 0, 0], "Stabilized"),
    ("reg", "s1", 0): ([1, 0, 0, 0], "Stabilized"), ("reg", "s1", 1): ([0, 0, 0, 0], "Stabilized"),
    ("reg", "reg", 0): ([3, 0, 0, 0], "Stabilized"), ("reg", "reg", 1): ([0, 0, 0, 0], "Stabilized"),
}


def test_pcomp_t2_non_free_dims_pinned():
    # non-local: the projectives are sums of indecomposables, so Hom goes through SubHomCoords
    mods = _t2_modules()
    for (a, b, i), (dims, verdict) in T2_PCOMP.items():
        rep = pcomp_ext(mods[a], mods[b], i, 3)
        assert (rep.dims, rep.verdict) == (dims, verdict), (a, b, i)


# --- segment systems against the stacked reference ------------------------------------

def _basis_images(coords, tgt, images):
    """tgt coordinates of the images (dim, rows, cols) of the basis maps of a Hom subspace, one column each."""
    return tgt.coords(images.reshape(coords.dim, images.shape[1] * images.shape[2])).reshape(coords.dim, tgt.dim).T


def _basis_maps(coords):
    return coords.sub.basis.a.reshape(coords.dim, coords.qmod.dim, coords.pmod.dim)


def _ref_post(coords, g, tgt):
    """The matrix of f -> g o f: kron(I_b, g) on a free P, else through the Hom subspace."""
    if isinstance(coords, FreeHomCoords):
        return np.kron(np.eye(coords.b, dtype=np.int64), g.matrix.a)
    return _basis_images(coords, tgt, g.matrix.a @ _basis_maps(coords) % coords.p)



def test_free_compose_entries_match_reference():
    # postcompose: the nonzeros of g tiled over the generators; precompose: the
    # nonzeros of each nonzero entry's action, tiled over the copies of N
    a = algebra_a4()
    rng = np.random.default_rng(5)
    q = regular_module(a, "left")
    q2 = direct_sum([q, simple_k(a, "left")])
    g = ModuleMap(q, q2, Matrix(3, rng.integers(0, 3, size=(q2.dim, q.dim)) * (rng.random((q2.dim, q.dim)) < 0.3)),
                  check=False)
    for b in range(5):
        coords = FreeHomCoords(free_module(a, "left", b), q)
        post = coords.postcompose(g, None)
        assert post.shape == (b * q2.dim, b * q.dim) and post.vals.size == b * np.count_nonzero(g.matrix.a)
        assert np.array_equal(post.to_matrix().a, _ref_post(coords, g, None))
        for n in (q, free_module(a, "left", 2), q2):
            coords = FreeHomCoords(free_module(a, "left", b), n)
            for c in (0, 1, 3):
                gens = rng.integers(0, 3, size=(b * a.dim, c)) * (rng.random((b * a.dim, c)) < 0.4)
                d = ModuleMap(free_module(a, "left", c), free_module(a, "left", b),
                              Matrix(3, _free_map_matrix(free_module(a, "left", b), gens)), check=False)
                pre = coords.precompose(d, None)
                want = _ref_pre(coords, d, None)
                assert pre.shape == want.shape and pre.vals.size == np.count_nonzero(want)
                assert np.array_equal(pre.to_matrix().a, want), (b, n.dim, c)

def _ref_pre(coords, d, tgt):
    """The matrix of f -> f o d: on a free P the action of every entry of d, zero or not, stacked."""
    if isinstance(coords, FreeHomCoords):
        entries = _free_block_entries(d).transpose(1, 0, 2)
        rows, cols, da = entries.shape
        dq = coords.qmod.dim
        acts = coords.qmod.action_of(entries.reshape(rows * cols, da)).reshape(rows, cols, dq, dq)
        return acts.swapaxes(1, 2).reshape(rows * dq, cols * dq)
    return _basis_images(coords, tgt, _basis_maps(coords) @ d.matrix.a % coords.p)


def _stacked_cocycles(st):
    """The cocycle system as it was first built: one zero block per square, stacked."""
    rows = [np.zeros((0, st.total), dtype=np.int64)]
    sign = 1 if st.i % 2 == 0 else -1
    for t in range(st.lo + 1, st.hi + 1):
        tgt = st.coords_down[t]
        block = np.zeros((tgt.dim, st.total), dtype=np.int64)
        block[:, st.offsets[t]: st.offsets[t] + st.coords[t].dim] = _ref_post(
            st.coords[t], st.res_n.differential(t - st.i), tgt)
        block[:, st.offsets[t - 1]: st.offsets[t - 1] + st.coords[t - 1].dim] = -sign * _ref_pre(
            st.coords[t - 1], st.res_m.differential(t), tgt)
        rows.append(block)
    return np.vstack(rows) % st.p


def _stacked_coboundaries(st):
    """The coboundary map (B is its column space): one zero block per source, stacked."""
    sign = 1 if st.i % 2 == 0 else -1
    blocks = [np.zeros((st.total, 0), dtype=np.int64)]
    for t_src in sorted(st.coords_up):
        src = st.coords_up[t_src]
        col = np.zeros((st.total, src.dim), dtype=np.int64)
        if t_src >= st.lo:
            col[st.offsets[t_src]: st.offsets[t_src] + st.coords[t_src].dim, :] = _ref_post(
                src, st.res_n.differential(t_src - st.i + 1), st.coords[t_src])
        t1 = t_src + 1
        if t1 <= st.hi:
            col[st.offsets[t1]: st.offsets[t1] + st.coords[t1].dim, :] += sign * _ref_pre(
                src, st.res_m.differential(t1), st.coords[t1])
        blocks.append(col)
    return np.hstack(blocks) % st.p


def _segment_cases():
    """(m, n, i, k): A2 k with free P, A4 k at odd i (the sign), T_2(F_3) with non-free P."""
    a2, a4 = simple_k(algebra_a2()), simple_k(algebra_a4())
    cases = [(a2, a2, i, k) for i in (0, 1) for k in (0, 1, 2)]
    cases += [(a4, a4, i, k) for i in (1, 3) for k in (0, 1, 2)]
    mods = _t2_modules().values()
    cases += [(m, n, i, k) for m in mods for n in mods for i in (0, 1) for k in (0, 1)]
    return cases


def test_segment_systems_match_stacked_reference(monkeypatch):
    # each system is one sparse matrix: its kernel is Z, its row space B
    systems = {}
    kernel, row_space = SparseMatrix.kernel, SparseMatrix.row_space

    def spy_kernel(self):
        systems["z"] = self.to_matrix().a
        return kernel(self)

    def spy_row_space(self):
        systems["b"] = self.to_matrix().a
        return row_space(self)

    monkeypatch.setattr(SparseMatrix, "kernel", spy_kernel)
    monkeypatch.setattr(SparseMatrix, "row_space", spy_row_space)
    rng = np.random.default_rng(0)
    for m, n, i, k in _segment_cases():
        p = m.p
        res_m, res_n = min_proj_resolution(m, k + i + 4), min_proj_resolution(n, k + 4)
        systems.clear()
        st = SegmentStage(res_m, res_n, i, k)
        cocycles, coboundaries = _stacked_cocycles(st), _stacked_coboundaries(st)
        # generators of B as rows
        assert np.array_equal(systems["z"], cocycles)
        assert np.array_equal(systems["b"], coboundaries.T)
        z = kernel_basis(Matrix(p, cocycles)) if st.total else Subspace.zero(p, 0)
        b = image_basis(Matrix(p, coboundaries))
        assert st.sq.z == z and st.sq.b == b
        assert np.array_equal(st.sq.z.basis.a, z.basis.a) and np.array_equal(st.sq.b.basis.a, b.basis.a)
        # class coordinates, from the dense bases: reduce the Z-coordinates by B's rows
        zb, bp = z.basis.a, np.searchsorted(z.pivots, b.pivots)
        comp = [j for j in range(z.dim) if j not in set(bp.tolist())]
        vecs = rng.integers(0, p, size=(5, z.dim)) @ zb % p
        zc = vecs[:, list(z.pivots)]
        want = (zc - zc[:, bp] @ b.basis.a[:, list(z.pivots)]) % p
        assert np.array_equal(st.sq.class_of(vecs), want[:, comp])
        cls = rng.integers(0, p, size=(3, st.dim))
        assert np.array_equal(st.sq.representative(cls), cls @ zb[comp] % p)


# --- block transitions against the per-class reference -------------------------------

def _ref_segment(st, cls):
    """The distinguished segment of one class, one matrix per window degree."""
    vec = st.sq.representative(cls)
    comps = []
    for t in range(st.lo, st.hi + 1):
        c = st.coords[t]
        x = vec[st.offsets[t]: st.offsets[t] + c.dim]
        if isinstance(c, FreeHomCoords):
            comps.append(_free_map_matrix(c.qmod, x.reshape(c.b, c.dq).T))
        else:
            comps.append(c.sub.from_coords(x).reshape(c.qmod.dim, c.pmod.dim))
    return comps


def _ref_transition(st, st_next):
    """The transition one class at a time, as pcomp_ext computed it before it took blocks:
    extend the segment a degree, drop its bottom component, read the class in stage k+1."""
    p, i, t = st.p, st.i, st.hi + 1
    cols = []
    for cls in np.eye(st.dim, dtype=np.int64):
        comps = _ref_segment(st, cls)
        rhs = (Matrix(p, comps[-1]) @ st.res_m.differential(t).matrix).scale(1 if i % 2 == 0 else -1)
        f_t = hom_solve(st.res_m.proj(t), st.res_n.proj(t - i), st.res_n.differential(t - i).matrix, rhs.a[None])[0]
        vec = np.zeros(st_next.total, dtype=np.int64)
        for t_next, f in zip(range(st_next.lo, st_next.hi + 1), comps[1:] + [f_t]):
            vec[st_next.offsets[t_next]: st_next.offsets[t_next] + st_next.coords[t_next].dim] = (
                st_next.coords[t_next].coords(f.reshape(-1)))
        cols.append(st_next.sq.class_of(vec))
    return np.array(cols, dtype=np.int64).reshape(st.dim, st_next.dim).T


def _ref_theta(st, cls):
    """Theta of one class: the segment's bottom component composed with the cover, as an Ext class."""
    f = _ref_segment(st, cls)[0]
    ec = ext_chain(st.res_m.module, st.res_n.syzygy(st.k), st.lo + 1)
    coc = st.res_n.cover_map(st.k).matrix @ Matrix(st.p, f)
    return ec.cohomology(st.lo).class_of(ec.hom_space(st.lo).coords(coc.a.reshape(-1)))


def test_block_transitions_match_per_class_reference():
    nonzero = 0
    for m, n, i, k in _segment_cases():
        res_m, res_n = min_proj_resolution(m, k + i + 4), min_proj_resolution(n, k + 5)
        st, st_next = SegmentStage(res_m, res_n, i, k), SegmentStage(res_m, res_n, i, k + 1)
        want = _ref_transition(st, st_next)
        comps = st.extend_segment(st.segment_from_class(np.eye(st.dim, dtype=np.int64)))
        got = st_next.class_of_segment(comps[1:]).T
        assert got.shape == want.shape and np.array_equal(got, want), (m.p, i, k)
        nonzero += bool(want.any())
        # Theta of a block of classes, row by row
        block = np.random.default_rng(k).integers(0, m.p, size=(3, st.dim))
        _, theta = st.theta_ext_class(block)
        assert np.array_equal(theta.reshape(3, -1), [_ref_theta(st, c).reshape(-1) for c in block])
    assert nonzero >= 10


def test_segments_memory_peak():
    # a2-pcomp: the largest segment system is 2016 x 960, eliminated from the
    # caller's array; stacked copies and kron(I_b, g) blocks peaked at 83 MiB
    from homct.stablecmp import stable_homology_via_duality

    a2 = algebra_a2()
    m, n = simple_k(a2, "right"), simple_k(a2, "left")
    tracemalloc.start()
    try:
        rep = stable_homology_via_duality(m, n, 0, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.dims == [1, 4, 16, 64] and peak <= 50 * 2**20


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_segment_stage_memory_peak():
    # A2 stage 3: its systems are 384 x 960 and 2016 x 960, block diagonal; only
    # their 5 distinct blocks are dense (6 MiB peak; their whole 256 x 320 and
    # 672 x 640 cores peaked at 9 MiB, and the dense systems and B's rows
    # multiplied through Z at 33 MiB)
    k = simple_k(algebra_a2())
    res = min_proj_resolution(k, 6).extend(6)
    st, peak = _traced_peak(lambda: SegmentStage(res, res, 0, 3))
    assert st.dim == 64 and peak <= 16 * 2**20


def test_pcomp_depth_4_memory_peak():
    # 100 MiB; with each segment system's whole core eliminated at once it was 147 MiB, and
    # with dense segment systems 525 MiB
    k = simple_k(algebra_a2())
    rep, peak = _traced_peak(lambda: pcomp_ext(k, k, 0, 4))
    assert rep.dims == [1, 4, 16, 64, 256] and peak <= 128 * 2**20


def test_duality_segments_depth_5_under_2gb():
    # A2 stable_homology_via_duality at K = 5: the last coboundary system has a
    # 10752 x 10240 core (840 MiB as one dense array) made of repeated small blocks.  The
    # child caps its own address space at 2 000 000 KiB; eliminating the whole core needed
    # 2355 MiB there, and each distinct block once needs under 1 GiB
    import os
    import subprocess
    import sys

    import homct

    cap = 2_000_000 * 1024
    child = ("import resource\n"
             f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
             "from homct.fixtures import algebra_a2, simple_k\n"
             "from homct.stablecmp import stable_homology_via_duality\n"
             "a2 = algebra_a2()\n"
             "rep = stable_homology_via_duality(simple_k(a2, 'right'), simple_k(a2, 'left'), 0, 5)\n"
             "print(rep.dims)\n")
    src = os.path.dirname(os.path.dirname(homct.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[1, 4, 16, 64, 256, 1024]"


def test_duality_ext_depth_6_memory_peak():
    # 118 MiB; lifting every Ext class as a dense stack of maps through g peaked at 1023 MiB
    from homct.stablecmp import stable_homology_via_duality

    a2 = algebra_a2()
    rep, peak = _traced_peak(lambda: stable_homology_via_duality(simple_k(a2, "right"), simple_k(a2, "left"), 0, 6,
                                                                 w=2, realization="ext"))
    assert rep.dims == [1, 4, 16, 64, 256, 1024, 4096] and peak <= 256 * 2**20


# --- mu -----------------------------------------------------------------------------

def test_mu_stage_check_a1():
    a1 = algebra_a1()
    k = simple_k(a1)
    for i in (0, 1):
        rep = mu_stage_check(k, k, i, 3)
        assert rep.ok


def test_mu_stage_check_a2_small():
    a2 = algebra_a2()
    k = simple_k(a2)
    rep = mu_stage_check(k, k, 0, 3)
    assert rep.ok


def test_mu_stage_check_a4():
    a4 = algebra_a4()
    k = simple_k(a4)
    rep = mu_stage_check(k, k, 1, 2)
    assert rep.ok


def test_mu_zero_and_identity():
    a1 = algebra_a1()
    k = simple_k(a1)
    res = min_proj_resolution(k, 5)
    # the zero and the identity syzygy maps, lifted as one stack and read back as one block
    omega2 = res.syzygy(2)
    maps = np.stack([np.zeros((omega2.dim, omega2.dim), dtype=np.int64), np.eye(omega2.dim, dtype=np.int64)])
    seg = lift_chain_map(maps, 2, 0, 4, res, res)
    sq, cls = mu_forward(seg[0], 2, 0, res, res)
    assert cls.shape == (2, sq.dim) == (2, 1)
    # zero lifts to the zero class; the lifted identity is the identity class
    assert not cls[0].any()
    assert np.array_equal(cls[1], sq.class_of(maps[1].reshape(-1)))


def test_mu_roundtrip_generator_a1():
    a1 = algebra_a1()
    k = simple_k(a1)
    res = min_proj_resolution(k, 6)
    omega2 = res.syzygy(2)
    sq = stable_hom(omega2, omega2)
    assert sq.dim == 1
    gen_vec = sq.representative(np.array([1], dtype=np.int64))
    seg = lift_chain_map(gen_vec.reshape(1, omega2.dim, omega2.dim), 2, 0, 5, res, res)
    # all components of the lifted segment are nonzero (the x-shift chain map)
    assert all(c.any() for c in seg)
    sq2, back = mu_forward(seg[0], 2, 0, res, res)
    assert np.array_equal(back, sq.class_of(gen_vec)[None])


# The per-class forward map that mu_forward stacked, kept as its reference.

def _mu_forward_reference(f, k, i, res_m, res_n):
    """Induced stable-Hom class of one degree-k component f: P_k -> Q_{k-i}, as mu_forward computed it."""
    p = res_m.module.p
    pi_m = res_m.cover_map(k)
    pi_n = res_n.cover_map(k - i)
    omega_m = res_m.syzygy(k)
    omega_n = res_n.syzygy(k - i)
    sec = solve_matrix(pi_m.matrix, Matrix.identity(p, omega_m.dim))
    if sec is None:
        raise RuntimeError("cover has no linear section")
    cand = pi_n.matrix @ Matrix(p, f) @ sec
    ftilde = ModuleMap(omega_m, omega_n, cand, check=True)
    # well-defined: the candidate must be independent of the section
    if not (pi_n.matrix @ Matrix(p, f) == ftilde.matrix @ pi_m.matrix):
        raise RuntimeError("segment does not descend to the cokernels")
    sq = stable_hom(omega_m, omega_n)
    return sq, sq.class_of(ftilde.matrix.a.reshape(-1))


def _mu_cases():
    """(m, n, i, K): A1 at i = 0, 1, A2, A3, A4 at odd i (the sign), and T_2(F_3) simples,
    whose projectives are not free and whose stages are zero (empty blocks)."""
    a1, a2, a3, a4 = (simple_k(a) for a in (algebra_a1(), algebra_a2(), algebra_a3(), algebra_a4()))
    mods = _t2_modules()
    return [(a1, a1, 0, 3), (a1, a1, 1, 3), (a2, a2, 0, 3), (a3, a3, 1, 2), (a4, a4, 1, 2),
            (mods["s0"], mods["s1"], 0, 3), (mods["s0"], mods["s0"], 1, 3)]


def test_mu_forward_matches_per_class_reference():
    classes, non_free = 0, 0
    for m, n, i, K in _mu_cases():
        res_m = min_proj_resolution(m, K + i + cohom.SEGMENT_BUFFER + 2)
        res_n = min_proj_resolution(n, K + 2)
        for k in range(max(0, -i), K + 1):
            st = SegmentStage(res_m, res_n, i, k)
            comps = st.segment_from_class(np.eye(st.dim, dtype=np.int64))[0]
            sq, got = mu_forward(comps, st.lo, i, res_m, res_n)
            assert got.shape == (st.dim, sq.dim)
            # the stacked forward map, column by column against the per-class one
            for f, row in zip(comps, got):
                ref_sq, want = _mu_forward_reference(f, st.lo, i, res_m, res_n)
                assert ref_sq.dim == sq.dim and np.array_equal(row, want)
            assert st.dim == sq.dim and (not st.dim or rref(Matrix(m.p, got))[2] == st.dim)
            # every stable-Hom class lifted as one stack comes back as itself
            reps = sq.basis_representatives().reshape(sq.dim, res_n.syzygy(k).dim, res_m.syzygy(st.lo).dim)
            lifted = lift_chain_map(reps, st.lo, i, st.hi, res_m, res_n)[0]
            _, back = mu_forward(lifted, st.lo, i, res_m, res_n)
            assert np.array_equal(back, np.eye(sq.dim, dtype=np.int64))
            assert all(np.array_equal(_mu_forward_reference(f, st.lo, i, res_m, res_n)[1], row)
                       for f, row in zip(lifted, back))
            classes += st.dim
            non_free += res_m.proj(st.lo).free_rank is None
        assert mu_stage_check(m, n, i, K).ok
    assert classes >= 100 and non_free >= 3


def test_mu_forward_rejects_a_non_chain_component():
    # a component that does not carry ker pi_m into ker pi_n has no induced map
    k = simple_k(algebra_a2())
    res = min_proj_resolution(k, 4)
    f = np.random.default_rng(0).integers(0, 2, size=(3, res.proj(1).dim, res.proj(1).dim))
    with pytest.raises(RuntimeError, match="descend"):
        mu_forward(f, 1, 0, res, res)
    # an empty block has an empty class block
    sq, cls = mu_forward(f[:0], 1, 0, res, res)
    assert cls.shape == (0, sq.dim)


def test_bc_cotower_functorial_in_second_argument():
    # a module map n -> n' induces stage maps commuting with the transitions;
    # sum map k + k -> k keeps all stages nonzero
    from homct.algmod import direct_sum
    from homct.resolve import min_proj_resolution, syzygy_map

    a1 = algebra_a1()
    k = simple_k(a1)
    k2 = direct_sum([k, k])
    g = ModuleMap(k2, k, Matrix(2, [[1, 1]]))
    t_src = bc_cotower(k, k2, 0, 3)
    t_tgt = bc_cotower(k, k, 0, 3)
    assert t_src.dims() == [2, 2, 2, 2]
    res_m = min_proj_resolution(k, 5)
    res_k2 = min_proj_resolution(k2, 5)
    res_k = min_proj_resolution(k, 5)

    def stage_map(kk):
        src_sq = t_src.stages[kk]
        tgt_sq = t_tgt.stages[kk]
        gk = syzygy_map(g, kk) if kk else g
        cols = []
        for cls in np.eye(src_sq.dim, dtype=np.int64):
            vec = src_sq.representative(cls)
            f = ModuleMap(res_m.syzygy(kk), res_k2.syzygy(kk),
                          Matrix(2, vec.reshape(res_k2.syzygy(kk).dim, res_m.syzygy(kk).dim)),
                          check=False)
            composed = ModuleMap(res_m.syzygy(kk), res_k.syzygy(kk),
                                 gk.matrix @ f.matrix, check=False)
            cols.append(tgt_sq.class_of(composed.matrix.a.reshape(-1)))
        arr = np.array(cols, dtype=np.int64).T if cols else np.zeros((tgt_sq.dim, 0), dtype=np.int64)
        return Matrix(2, arr.reshape(tgt_sq.dim, src_sq.dim))

    nonzero = 0
    for kk in range(0, 3):
        sm = stage_map(kk)
        if not sm.is_zero():
            nonzero += 1
        sq_lhs = t_tgt.maps[kk] @ sm
        sq_rhs = stage_map(kk + 1) @ t_src.maps[kk]
        assert sq_lhs == sq_rhs
    assert nonzero == 3


# --- duality bridge ----------------------------------------------------------------

def test_duality_bridge_a1():
    a1 = algebra_a1()
    k_r = simple_k(a1, "right")
    n_op = simple_k(a1.opposite(), "left")
    rep = duality_bridge_check(k_r, n_op, 0, 4)
    assert rep.ok
    assert rep.stage_dims_tor == [1, 1, 1, 1, 1]


def test_duality_bridge_injective_dual_side():
    a1 = algebra_a1()
    k_r = simple_k(a1, "right")
    reg_op = regular_module(a1.opposite(), "left")  # D(reg) injective: both sides 0
    rep = duality_bridge_check(k_r, reg_op, 1, 3)
    assert rep.ok
    assert all(d == 0 for d in rep.stage_dims_tor)


def test_duality_bridge_a2_centerpiece():
    a2 = algebra_a2()
    k_r = simple_k(a2, "right")
    n_op = simple_k(a2.opposite(), "left")
    rep = duality_bridge_check(k_r, n_op, 0, 3)
    assert rep.ok
    assert rep.stage_dims_tor == rep.stage_dims_ext == [1, 4, 16, 64]


def test_duality_bridge_a4_signs():
    a4 = algebra_a4()
    k_r = simple_k(a4, "right")
    n_op = simple_k(a4.opposite(), "left")
    for i in (-1, 0, 1):
        rep = duality_bridge_check(k_r, n_op, i, 3)
        assert rep.ok
        assert all(s in (1, -1) for s in rep.signs.values())
