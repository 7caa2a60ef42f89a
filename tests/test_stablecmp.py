"""Tests for the stable homology routes and the double-complex window."""

import numpy as np

from homct.algmod import dual_module, regular_module
from homct.completion import cosyzygy_tower, tower_limit
from homct.derived import tensor_chain
from homct.exactla import Matrix, kernel_basis
from homct.fixtures import (
    a3_mod_x,
    a3_mod_y,
    algebra_a1,
    algebra_a2,
    algebra_a4,
    simple_k,
)
from homct.stablecmp import (
    CompatibleFamily,
    WindowElement,
    build_double_window,
    compress_cycle,
    copure_vanishing_certificate,
    family_from_limit,
    map_eth,
    map_sigma,
    map_tau,
    sigma_preimage,
    stable_homology_via_duality,
    stable_homology_via_vanishing,
    to_tor_class,
)


# --- copure certificates -----------------------------------------------------

def test_certificate_over_self_injective():
    a1 = algebra_a1()
    for m in (simple_k(a1, "right"), regular_module(a1, "right")):
        cert = copure_vanishing_certificate(m, 4)
        assert cert is not None and cert.bound == 1


def test_certificate_projective_over_a2():
    a2 = algebra_a2()
    cert = copure_vanishing_certificate(regular_module(a2, "right"), 4)
    assert cert is not None and cert.bound == 1


def test_no_certificate_for_k_over_a2():
    a2 = algebra_a2()
    assert copure_vanishing_certificate(simple_k(a2, "right"), 6) is None


# --- stable homology via vanishing ---------------------------------------------

def test_via_vanishing_a1_negative_degree():
    a1 = algebra_a1()
    k_r, k_l = simple_k(a1, "right"), simple_k(a1, "left")
    cert = copure_vanishing_certificate(k_r, 4)
    h = stable_homology_via_vanishing(k_r, k_l, -2, cert)
    assert h.dim == 1


def test_via_vanishing_projective_vanishes():
    a1 = algebra_a1()
    reg = regular_module(a1, "right")
    cert = copure_vanishing_certificate(reg, 4)
    for i in (-2, 0, 2):
        assert stable_homology_via_vanishing(reg, simple_k(a1, "left"), i, cert).dim == 0


def test_via_vanishing_a3_pair():
    m, n = a3_mod_x("right"), a3_mod_y("left")
    cert = copure_vanishing_certificate(m, 4)
    assert cert is not None
    assert stable_homology_via_vanishing(m, n, -1, cert).dim == 0


# --- stable homology via duality -------------------------------------------------

def test_via_duality_a1_matches_vanishing():
    a1 = algebra_a1()
    k_r, k_l = simple_k(a1, "right"), simple_k(a1, "left")
    cert = copure_vanishing_certificate(k_r, 4)
    for i in range(-3, 4):
        rep = stable_homology_via_duality(k_r, k_l, i, max(0, -i) + 4)
        assert rep.stabilized
        assert rep.limit_dim == stable_homology_via_vanishing(k_r, k_l, i, cert).dim == 1


def test_via_duality_a2_stage_dims():
    a2 = algebra_a2()
    k_r, k_l = simple_k(a2, "right"), simple_k(a2, "left")
    rep = stable_homology_via_duality(k_r, k_l, 0, 3)
    assert rep.dims == [1, 4, 16, 64]
    assert rep.verdict == "NotStabilized"
    # stage-wise equal to the complete homology tower (the duality bridge)
    t = cosyzygy_tower(k_r, dual_module(simple_k(a2, "right")), 0, 3)
    assert t.dims() == rep.dims


# --- double window ----------------------------------------------------------------

def test_double_window_a1_components():
    a1 = algebra_a1()
    dw = build_double_window(simple_k(a1, "right"), simple_k(a1, "left"), 6, 6)
    for r in range(0, 7):
        for c in range(0, 7):
            assert dw.dim(r, c) == 2  # A1 tensor_A1 A1 = A1


def test_double_window_zero_module():
    a1 = algebra_a1()
    zero = simple_k(a1, "left")
    from homct.algmod import FdModule

    z = FdModule(a1, "left", 0, [Matrix.zeros(2, 0, 0)] * a1.dim, check=False)
    dw = build_double_window(simple_k(a1, "right"), z, 3, 3, check=False)
    assert dw.dim(1, 1) == 0


def test_double_window_a3_anticommutes():
    dw = build_double_window(a3_mod_x("right"), a3_mod_y("left"), 4, 4)
    # build_double_window(check=True) verified anti-commutation and exactness
    assert dw.dim(0, 0) == 4  # A3 tensor_A3 A3 = A3


def test_double_window_columns_are_the_memoized_tensor_chains():
    m, n = a3_mod_x("right"), a3_mod_y("left")
    dw = build_double_window(m, n, 3, 3)
    for c in range(4):
        chain = tensor_chain(m, dw.inj.space(c), 4)
        assert dw._column(c) is chain
        for r in range(4):
            assert dw.component(r, c) is chain.component(r)
            assert dw.vert(r, c) == chain.differential(r)


# --- compression --------------------------------------------------------------------

def same_comps(a, b):
    keys = set(a) | set(b)
    for c in keys:
        va = a.get(c)
        vb = b.get(c)
        if va is None or vb is None:
            if (va is not None and va.any()) or (vb is not None and vb.any()):
                return False
            continue
        if not np.array_equal(va, vb):
            return False
    return True


def _total_cycles(dw, i, cols):
    """Brute-force cycle space of total degree i supported on the given columns."""
    dims = [dw.dim(i + c, c) for c in cols]
    total = sum(dims)
    # assemble the boundary matrix by applying it to unit elements
    targets = sorted({c for c in cols} | {c + 1 for c in cols})
    tdims = {c: dw.dim(i - 1 + c, c) for c in targets if i - 1 + c >= 0}
    rows = sum(tdims.values())
    mat = np.zeros((rows, total), dtype=np.int64)
    offs_t = {}
    off = 0
    for c in sorted(tdims):
        offs_t[c] = off
        off += tdims[c]
    off_s = 0
    for idx_col, c in enumerate(cols):
        for j in range(dims[idx_col]):
            vec = np.zeros(dims[idx_col], dtype=np.int64)
            vec[j] = 1
            el = WindowElement(dw, i, {c: vec})
            bd = el.boundary()
            col_vec = np.zeros(rows, dtype=np.int64)
            for cc, v in bd.comps.items():
                col_vec[offs_t[cc]: offs_t[cc] + tdims[cc]] = v
            mat[:, off_s + j] = col_vec
        off_s += dims[idx_col]
    return kernel_basis(Matrix(dw.m.p, mat)), dims


def test_compress_single_column_is_noop():
    a1 = algebra_a1()
    dw = build_double_window(simple_k(a1, "right"), simple_k(a1, "left"), 6, 6, check=False)
    ker, dims = _total_cycles(dw, 0, [2])
    assert ker.dim > 0
    v = WindowElement(dw, 0, {2: ker.basis.a[0]})
    u, vprime = compress_cycle(dw, v, 2)
    assert u.is_zero() and same_comps(vprime.comps, v.comps)


def test_compress_two_column_cycle_a1():
    a1 = algebra_a1()
    dw = build_double_window(simple_k(a1, "right"), simple_k(a1, "left"), 6, 6, check=False)
    ker, dims = _total_cycles(dw, 0, [2, 3])
    found = False
    for row in ker.basis.a:
        v = WindowElement(dw, 0, {2: row[: dims[0]], 3: row[dims[0]:]})
        if 3 not in v.support():
            continue
        found = True
        u, vp = compress_cycle(dw, v, 2)
        assert vp.support() in ([], [2])
        # exact identities: v' = v - boundary(u), boundary(v') = boundary(v)
        assert same_comps(vp.add(u.boundary()).comps, v.comps)
        assert same_comps(vp.boundary().comps, v.boundary().comps)
    assert found


def test_compress_zero_element():
    a1 = algebra_a1()
    dw = build_double_window(simple_k(a1, "right"), simple_k(a1, "left"), 4, 4, check=False)
    z = WindowElement(dw, 0)
    u, vp = compress_cycle(dw, z, 0)
    assert u.is_zero() and vp.is_zero()


def test_compress_seeded_batch():
    rng = np.random.default_rng(42)
    count = 0
    for dwargs in (
        (simple_k(algebra_a1(), "right"), simple_k(algebra_a1(), "left")),
        (a3_mod_x("right"), a3_mod_y("left")),
        (simple_k(algebra_a4(), "right"), simple_k(algebra_a4(), "left")),
    ):
        dw = build_double_window(dwargs[0], dwargs[1], 6, 6, check=False)
        for i in (0, 1):
            cols = [c for c in range(max(0, -i), 4)]
            ker, dims = _total_cycles(dw, i, cols)
            if ker.dim == 0:
                continue
            for _ in range(12):
                coeffs = rng.integers(0, dw.m.p, size=ker.dim)
                flat = (coeffs @ ker.basis.a) % dw.m.p
                comps = {}
                off = 0
                for c, d in zip(cols, dims):
                    comps[c] = flat[off: off + d]
                    off += d
                v = WindowElement(dw, i, comps)
                target = max(0, -i)
                u, vp = compress_cycle(dw, v, target)
                assert vp.support() in ([], [target])
                assert same_comps(vp.add(u.boundary()).comps, v.comps)
                count += 1
    assert count >= 30


# --- tau, eth, sigma ------------------------------------------------------------------

def _window_fixture(a, m_side="right"):
    return build_double_window(simple_k(a, m_side), simple_k(a, "left"), 6, 6, check=False)


def test_tau_on_limit_family_a1():
    a1 = algebra_a1()
    k_r, k_l = simple_k(a1, "right"), simple_k(a1, "left")
    dw = _window_fixture(a1)
    t = cosyzygy_tower(k_r, k_l, 0, 4)
    rep = tower_limit(t, 3)
    assert rep.stabilized and rep.limit_dim == 1
    fam = family_from_limit(dw, 0, t, rep, 0)
    h, cls = map_tau(fam)
    assert h.dim == 1 and cls.any()  # the generator maps onto the Tor_0 generator


def test_zero_family_maps_to_zero():
    a1 = algebra_a1()
    dw = _window_fixture(a1)
    fam = CompatibleFamily(dw, 0, 0, {k: WindowElement(dw, 0) for k in range(0, 4)})
    h, cls = map_tau(fam)
    assert not cls.any()


def test_eth_of_honest_cycle_is_zero():
    a1 = algebra_a1()
    dw = _window_fixture(a1)
    ker, dims = _total_cycles(dw, 1, [0, 1, 2])
    row = ker.basis.a[0]
    comps, off = {}, 0
    for c, d in zip([0, 1, 2], dims):
        comps[c] = row[off: off + d]
        off += d
    z = WindowElement(dw, 1, comps)
    assert z.boundary().is_zero()
    h, cls = map_eth(z)
    assert not cls.any()


def test_eth_is_zero_on_finite_elements():
    # a finite-support element is a boundary of the coproduct complex, so its
    # connecting image must vanish; only ideal-tail elements can hit generators
    a1 = algebra_a1()
    dw = _window_fixture(a1)
    rng = np.random.default_rng(5)
    for _ in range(20):
        comps = {}
        for c in (0, 1):
            d = dw.dim(1 + c, c)
            comps[c] = rng.integers(0, 2, size=d)
        z = WindowElement(dw, 1, comps)
        h, cls = map_eth(z)
        assert not cls.any()


def test_eth_hits_generator_through_sigma_preimage():
    a1 = algebra_a1()
    k_r, k_l = simple_k(a1, "right"), simple_k(a1, "left")
    dw = _window_fixture(a1)
    t = cosyzygy_tower(k_r, k_l, 0, 4)
    rep = tower_limit(t, 3)
    fam = family_from_limit(dw, 0, t, rep, 0)
    z = sigma_preimage(fam)
    h, cls = map_eth(z)
    assert h.dim == 1 and cls.any()


def test_tau_sigma_eth_identity():
    # exact identity tau(sigma(z)) = eth(z): trivially on finite elements,
    # nontrivially on the ideal-tail elements the sigma construction produces
    rng = np.random.default_rng(11)
    for a in (algebra_a1(), algebra_a4()):
        dw = _window_fixture(a)
        p = a.p
        for _ in range(10):
            comps = {}
            for c in (0, 1, 2, 3):
                d = dw.dim(1 + c, c)
                comps[c] = rng.integers(0, p, size=d)
            z = WindowElement(dw, 1, comps)
            h, eth_cls = map_eth(z)
            fam = map_sigma(z)
            h2, tau_cls = map_tau(fam)
            assert np.array_equal(eth_cls, tau_cls)
        k_r, k_l = simple_k(a, "right"), simple_k(a, "left")
        t = cosyzygy_tower(k_r, k_l, 0, 4)
        rep = tower_limit(t, 3)
        fam = family_from_limit(dw, 0, t, rep, 0)
        z = sigma_preimage(fam)
        h, eth_cls = map_eth(z)
        h2, tau_cls = map_tau(map_sigma(z))
        assert eth_cls.any() and np.array_equal(eth_cls, tau_cls)


def test_sigma_of_truncated_support_vanishes_high():
    a1 = algebra_a1()
    dw = _window_fixture(a1)
    rng = np.random.default_rng(3)
    comps = {c: rng.integers(0, 2, size=dw.dim(1 + c, c)) for c in (0, 1, 2)}
    z = WindowElement(dw, 1, comps)
    fam = map_sigma(z)
    for k in range(4, fam.top + 1):
        assert not fam.reps[k].comps  # zero for k past the support


def test_sigma_preimage_roundtrip_a1():
    a1 = algebra_a1()
    k_r, k_l = simple_k(a1, "right"), simple_k(a1, "left")
    dw = _window_fixture(a1)
    for i in (0, 1):
        t = cosyzygy_tower(k_r, k_l, i, 4)
        rep = tower_limit(t, 3)
        assert rep.stabilized and rep.limit_dim == 1
        fam = family_from_limit(dw, i, t, rep, 0)
        z = sigma_preimage(fam)
        back = map_sigma(z)
        for k in range(fam.start, fam.top):
            assert np.array_equal(
                to_tor_class(dw, k, back.reps[k]), to_tor_class(dw, k, fam.reps[k])
            )


def test_sigma_preimage_roundtrip_a4():
    a4 = algebra_a4()
    k_r, k_l = simple_k(a4, "right"), simple_k(a4, "left")
    dw = build_double_window(k_r, k_l, 6, 6, check=False)
    t = cosyzygy_tower(k_r, k_l, 0, 4)
    rep = tower_limit(t, 3)
    fam = family_from_limit(dw, 0, t, rep, 0)
    z = sigma_preimage(fam)
    back = map_sigma(z)
    for k in range(fam.start, fam.top):
        assert np.array_equal(
            to_tor_class(dw, k, back.reps[k]), to_tor_class(dw, k, fam.reps[k])
        )


def test_sigma_of_honest_cycle_has_zero_classes():
    # a finite cycle's truncations bound inside each truncated complex, so
    # every family member class vanishes even when the elements do not
    a1 = algebra_a1()
    dw = _window_fixture(a1)
    ker, dims = _total_cycles(dw, 1, [0, 1, 2])
    row = ker.basis.a[0]
    comps, off = {}, 0
    for c, d in zip([0, 1, 2], dims):
        comps[c] = row[off: off + d]
        off += d
    z = WindowElement(dw, 1, comps)
    assert z.boundary().is_zero()
    fam = map_sigma(z)
    for k in range(fam.start, fam.top + 1):
        assert not to_tor_class(dw, k, fam.reps[k]).any()


def test_injectivity_probe_a1():
    from homct.stablecmp import injectivity_probe

    a1 = algebra_a1()
    dw = _window_fixture(a1)
    probe = injectivity_probe(dw, 0, 4)
    assert probe.generators == 1 and probe.eth_rank == 1
    assert probe.sigma_zero_kernel_observed
    assert "evidence" in probe.note


def test_sigma_preimage_zero_limit_a3():
    m, n = a3_mod_x("right"), a3_mod_y("left")
    dw = build_double_window(m, n, 6, 6, check=False)
    t = cosyzygy_tower(m, n, 0, 4)
    rep = tower_limit(t, 3)
    assert rep.stabilized and rep.limit_dim == 0
    fam = CompatibleFamily(dw, 0, 0, {k: WindowElement(dw, 0) for k in range(0, 5)})
    z = sigma_preimage(fam)
    assert map_sigma(z).is_zero()
