"""Acceptance suite: every criterion at its stated (exact) tolerance.

Each test prints one PASS line on success; run with -s to see them.  The
independent oracles for the splice/periodic fixtures are hand-built window
complexes, computed here from explicit multiplication matrices and never
through the resolution engine they certify.
"""

import numpy as np

from homct.algmod import (
    direct_sum,
    dual_module,
    hom_over_algebra,
    regular_module,
    submodule,
    quotient_module,
    tensor_over_algebra,
)
from homct.cohom import bc_cotower, duality_bridge_check, mu_stage_check, pcomp_ext
from homct.completion import (
    complete_homology,
    cosyzygy_tower,
    dimension_shift_check,
    left_satellite_check,
    interleaving_crosscheck,
    tower_limit,
)
from homct.derived import ShortExactSeq, ext, les_check, tate_tor, tor
from homct.exactla import Matrix, Subspace, kernel_basis, rref
from homct.fixtures import (
    a3_mod_x,
    a3_mod_y,
    algebra_a1,
    algebra_a2,
    algebra_a3,
    algebra_a4,
    seeded_corpus,
    simple_k,
)
from homct.resolve import (
    CompleteResolution,
    CompleteResolutionFailure,
    complete_resolution,
)
from homct.stablecmp import (
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
    WindowElement,
)

DEGREES_41 = range(-4, 5)


def _passline(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def _hand_homology_dims(component_dim, d_in_rank, d_out_rank):
    return component_dim - d_out_rank - d_in_rank


def _stable_dim(m, n, i, depth=5):
    cert = copure_vanishing_certificate(m, depth)
    if cert is not None:
        return stable_homology_via_vanishing(m, n, i, cert).dim
    rep = stable_homology_via_duality(m, n, i, max(0, -i) + 3, 2, realization="ext")
    return rep.limit_dim


# -- criterion 1: triple agreement over A1 -------------------------------------

def test_criterion_1_triple_agreement_a1():
    a1 = algebra_a1()
    k_r, k_l = simple_k(a1, "right"), simple_k(a1, "left")
    # independent oracle: T = (... -> A1 -> A1 -> ...) with multiplication by x;
    # on A1 tensor_A1 k = k the induced map is the action of x on k, which is 0,
    # so every degree contributes ker/im = 1/0 of a 1-dimensional component
    x_on_k = np.zeros((1, 1), dtype=np.int64)
    rank = rref(Matrix(2, x_on_k))[2]
    oracle_dims = {i: _hand_homology_dims(1, rank, rank) for i in DEGREES_41}
    assert all(d == 1 for d in oracle_dims.values())
    tcx = complete_resolution(k_r, 6)
    assert isinstance(tcx, CompleteResolution)
    for i in DEGREES_41:
        assert tate_tor(tcx, k_l, i).dim == oracle_dims[i]
        rep = complete_homology(k_r, k_l, i, max(0, -i) + 4, 3)
        assert rep.stabilized and rep.limit_dim == oracle_dims[i]
        assert _stable_dim(k_r, k_l, i) == oracle_dims[i]
    _passline(1, "A1, M=N=k: Tate = stable = complete = 1 for i in [-4,4]")


# -- criterion 2: triple agreement over A4 --------------------------------------

def test_criterion_2_triple_agreement_a4():
    a4 = algebra_a4()
    k_r, k_l = simple_k(a4, "right"), simple_k(a4, "left")
    # oracle: T alternates multiplication by x and x^2; both act by zero on
    # k = A4/(x), so every degree has a 1-dimensional homology
    x_on_k = rref(Matrix(3, np.zeros((1, 1), dtype=np.int64)))[2]
    x2_on_k = x_on_k
    assert _hand_homology_dims(1, x_on_k, x2_on_k) == 1
    tcx = complete_resolution(k_r, 6)
    assert isinstance(tcx, CompleteResolution)
    for i in DEGREES_41:
        assert tate_tor(tcx, k_l, i).dim == 1
        rep = complete_homology(k_r, k_l, i, max(0, -i) + 4, 3)
        assert rep.stabilized and rep.limit_dim == 1
        assert _stable_dim(k_r, k_l, i) == 1
    _passline(2, "A4, M=N=k: Tate = stable = complete = 1 for i in [-4,4]")


# -- criterion 3: Gorenstein pair over A3 -----------------------------------------

def test_criterion_3_gorenstein_pair_a3():
    a3 = algebra_a3()
    m = a3_mod_x("right")
    n = a3_mod_y("left")
    # oracle: period-1 complete resolution by multiplication with x; on
    # A3 tensor_A3 R/(y) = R/(y) (basis 1, x) the map sends 1 -> x, x -> 0,
    # so it has rank 1 with kernel equal to image: homology vanishes
    x_on_rmody = np.array([[0, 0], [1, 0]], dtype=np.int64)
    r = rref(Matrix(2, x_on_rmody))[2]
    assert _hand_homology_dims(2, r, r) == 0
    tcx = complete_resolution(m, 6)
    assert isinstance(tcx, CompleteResolution)
    for i in DEGREES_41:
        assert tate_tor(tcx, n, i).dim == 0
        rep = complete_homology(m, n, i, max(0, -i) + 4, 3)
        assert rep.stabilized and rep.limit_dim == 0
        assert _stable_dim(m, n, i) == 0
    assert tor(m, n, 0).dim == 1
    for i in range(1, 5):
        assert tor(m, n, i).dim == 0
    _passline(3, "A3, R/(x) vs R/(y): all three theories vanish; Tor_0 = 1, Tor_>0 = 0")


# -- criterion 4: vanishing on injectives / projectives -----------------------------


def _vanishing_corpus():
    out = []
    for name, a in (
        ("a1", algebra_a1()), ("a2", algebra_a2()), ("a3", algebra_a3()), ("a4", algebra_a4())
    ):
        mods_r = seeded_corpus(a, "right", 7, 11, max_free_rank=1)
        mods_l = seeded_corpus(a, "left", 6, 13, max_free_rank=1)
        out.append((name, a, mods_r[:7], mods_l[:6]))
    return out


def test_criterion_4_vanishing():
    total = 0
    for name, a, mods_r, mods_l in _vanishing_corpus():
        inj = dual_module(regular_module(a, "right"))
        proj = regular_module(a, "right")
        degrees = (-3, -1, 0, 2, 3) if name != "a2" else (-2, 0, 2)
        for m in mods_r:
            total += 1
            for i in degrees:
                rep = complete_homology(m, inj, i, max(0, -i) + 3, 3)
                assert rep.stabilized and rep.limit_dim == 0, (name, i)
        for n in mods_l:
            total += 1
            for i in degrees:
                rep = complete_homology(proj, n, i, max(0, -i) + 3, 3)
                assert rep.stabilized and rep.limit_dim == 0, (name, i)
    assert total == 52
    _passline(4, f"complete homology vanishes on injectives/projectives ({total} corpus modules)")


# -- criterion 5: satellite/cosyzygy interleaving ---------------------------------------------

def test_criterion_5_satellite_cosyzygy_crosscheck():
    checks = 0
    for a in (algebra_a1(), algebra_a4()):
        k_r = simple_k(a, "right")
        pairs = [(k_r, simple_k(a, "left")), (k_r, regular_module(a, "left"))]
        for m, n in pairs:
            for i in (-2, -1, 0, 1, 2):
                rep = interleaving_crosscheck(m, n, i, 5)
                assert rep.ok, (a.p, i)
                checks += 1
    a3 = algebra_a3()
    for m, n in ((a3_mod_x("right"), a3_mod_y("left")),
                 (simple_k(a3, "right"), a3_mod_y("left"))):
        for i in (-2, -1, 0, 1, 2):
            rep = interleaving_crosscheck(m, n, i, 5)
            assert rep.ok
            checks += 1
    a2 = algebra_a2()
    rep = interleaving_crosscheck(simple_k(a2, "right"), simple_k(a2, "left"), 0, 3)
    assert rep.ok and all(rep.phi_bijective[k] for k in rep.stages)
    checks += 1
    _passline(5, f"satellite and cosyzygy towers interleave exactly ({checks} tower pairs)")


# -- criterion 6: dimension shifting ---------------------------------------------------

def test_criterion_6_dimension_shifting():
    cases = [
        (simple_k(algebra_a1(), "right"), simple_k(algebra_a1(), "left")),
        (simple_k(algebra_a4(), "right"), simple_k(algebra_a4(), "left")),
        (a3_mod_x("right"), a3_mod_y("left")),
    ]
    checks = 0
    for m, n in cases:
        for steps in (1, 2, 3):
            for i in (-2, -1, 0, 1, 2):
                rep = dimension_shift_check(m, n, i, steps, max(0, -i) + 4)
                assert rep.ok, (m, steps, i)
                checks += 1
    _passline(6, f"dimension shifting holds on A1/A3/A4 fixtures ({checks} cases)")


# -- criterion 7: left satellites -------------------------------------------------------

def test_criterion_7_left_satellites():
    checks = 0
    for a in (algebra_a1(), algebra_a3(), algebra_a4()):
        k_r = simple_k(a, "right")
        for n in (simple_k(a, "left"), regular_module(a, "left")):
            for i in (0, 1, 2):
                for k in (0, 1, 2, 3):
                    rep = left_satellite_check(k_r, i, k, n)
                    assert rep.ok
                    checks += 1
    a2 = algebra_a2()
    spot = left_satellite_check(simple_k(a2, "right"), 1, 1, simple_k(a2, "left"))
    assert spot.ok and spot.satellite_dim == spot.tor_dim == 4
    checks += 1
    _passline(7, f"left satellite identity S_k T_i = T_k+i holds ({checks} checks; A2 spot = 4)")


# -- criterion 8: non-Gorenstein growth ---------------------------------------------------

def test_criterion_8_a2_growth():
    a2 = algebra_a2()
    k_r, k_l = simple_k(a2, "right"), simple_k(a2, "left")
    t = cosyzygy_tower(k_r, k_l, 0, 3)
    assert t.dims() == [1, 4, 16, 64]
    rep = tower_limit(t, 2)
    assert rep.verdict == "NotStabilized"
    res = complete_resolution(k_r, 5)
    assert isinstance(res, CompleteResolutionFailure)
    assert "no complete resolution certified" in res.reason
    _passline(8, "A2 tower dims [1,4,16,64], NotStabilized, no complete resolution certified")


# -- criterion 9: duality bridge -----------------------------------------------------------

def test_criterion_9_duality_bridge():
    a2 = algebra_a2()
    k_r = simple_k(a2, "right")
    n_op = simple_k(a2.opposite(), "left")
    rep = duality_bridge_check(k_r, n_op, 0, 3)
    assert rep.ok and rep.stage_dims_tor == rep.stage_dims_ext == [1, 4, 16, 64]
    for i in (-1, 1):
        rep_i = duality_bridge_check(k_r, n_op, i, 3)
        assert rep_i.ok
    checks = 3
    for a in (algebra_a1(), algebra_a3(), algebra_a4()):
        m = simple_k(a, "right")
        for n_name in ("k", "reg"):
            n_op = (simple_k(a.opposite(), "left") if n_name == "k"
                    else regular_module(a.opposite(), "left"))
            for i in (-1, 0, 1):
                rep = duality_bridge_check(m, n_op, i, 3)
                assert rep.ok, (a.p, n_name, i)
                checks += 1
    _passline(9, f"duality bridge stage dims and squares verified ({checks} tower pairs)")


# -- criterion 10: window machinery ------------------------------------------------------


def _window_cycles(dw, i, cols, rng, count):
    dims = [dw.dim(i + c, c) for c in cols]
    total = sum(dims)
    targets = sorted({c for c in cols} | {c + 1 for c in cols})
    tdims = {c: dw.dim(i - 1 + c, c) for c in targets if i - 1 + c >= 0}
    rows = sum(tdims.values())
    mat = np.zeros((rows, total), dtype=np.int64)
    offs_t, off = {}, 0
    for c in sorted(tdims):
        offs_t[c] = off
        off += tdims[c]
    off_s = 0
    for c, d in zip(cols, dims):
        for j in range(d):
            vec = np.zeros(d, dtype=np.int64)
            vec[j] = 1
            bd = WindowElement(dw, i, {c: vec}).boundary()
            col = np.zeros(rows, dtype=np.int64)
            for cc, v in bd.comps.items():
                col[offs_t[cc]: offs_t[cc] + tdims[cc]] = v
            mat[:, off_s + j] = col
        off_s += d
    ker = kernel_basis(Matrix(dw.m.p, mat))
    out = []
    for _ in range(count):
        if ker.dim == 0:
            break
        coeffs = rng.integers(0, dw.m.p, size=ker.dim)
        flat = (coeffs @ ker.basis.a) % dw.m.p
        comps, off = {}, 0
        for c, d in zip(cols, dims):
            comps[c] = flat[off: off + d]
            off += d
        out.append(WindowElement(dw, i, comps))
    return out


def test_criterion_10_window_machinery():
    rng = np.random.default_rng(2024)
    fixture_pairs = [
        (simple_k(algebra_a1(), "right"), simple_k(algebra_a1(), "left")),
        (a3_mod_x("right"), a3_mod_y("left")),
        (simple_k(algebra_a4(), "right"), simple_k(algebra_a4(), "left")),
    ]
    windows = {id(p): build_double_window(p[0], p[1], 6, 6, check=True) for p in fixture_pairs}
    compressed = 0
    for pair in fixture_pairs:
        dw = windows[id(pair)]
        for i in (0, 1):
            cycles = _window_cycles(dw, i, list(range(max(0, -i), 4)), rng, 18)
            for v in cycles:
                target = max(0, -i)
                u, vp = compress_cycle(dw, v, target)
                assert vp.support() in ([], [target])
                diff = vp.add(u.boundary())
                assert all(np.array_equal(diff.component(c), v.component(c))
                           for c in set(diff.support()) | set(v.support()))
                compressed += 1
    assert compressed >= 100
    # tau o sigma = eth exactly, on random finite elements and on sigma preimages
    identities = 0
    roundtrips = 0
    for pair in fixture_pairs:
        dw = windows[id(pair)]
        p = dw.m.p
        for _ in range(8):
            comps = {c: rng.integers(0, p, size=dw.dim(1 + c, c)) for c in (0, 1, 2, 3)}
            z = WindowElement(dw, 1, comps)
            _, eth_cls = map_eth(z)
            _, tau_cls = map_tau(map_sigma(z))
            assert np.array_equal(eth_cls, tau_cls)
            identities += 1
        for i in (-1, 0, 1):
            t = cosyzygy_tower(pair[0], pair[1], i, 4)
            rep = tower_limit(t, 3)
            assert rep.stabilized
            for g in range(rep.limit_dim):
                fam = family_from_limit(dw, i, t, rep, g)
                z = sigma_preimage(fam)
                _, eth_cls = map_eth(z)
                _, tau_cls = map_tau(map_sigma(z))
                assert np.array_equal(eth_cls, tau_cls)
                identities += 1
                back = map_sigma(z)
                for k in range(fam.start, fam.top):
                    assert np.array_equal(to_tor_class(dw, k, back.reps[k]),
                                          to_tor_class(dw, k, fam.reps[k]))
                roundtrips += 1
    _passline(10, f"compression exact on {compressed} cycles; tau-sigma-eth exact "
                  f"({identities} elements); sigma preimage round-trips ({roundtrips} generators)")


# -- criterion 11: completed cohomology routes -------------------------------------------------------------------

def test_criterion_11_cohomology_routes():
    stage_checks = 0
    for a in (algebra_a1(), algebra_a3(), algebra_a4()):
        k = simple_k(a, "left")
        reg = regular_module(a, "left")
        for m, n in ((k, k), (k, reg)):
            for i in (0, 1, 2, 3):
                # pcomp_ext raises on any internal route mismatch
                rep = pcomp_ext(m, n, i, 4)
                bc = bc_cotower(m, n, i, 4 + i)
                for kk in range(0, 5):
                    if kk + i == 0:
                        # bottom corner: plain Hom vs stable Hom; mu is an
                        # isomorphism from k+i >= 1 on
                        continue
                    assert rep.dims[kk] == bc.stage_dim(kk + i), (a.p, i, kk)
                    stage_checks += 1
    a2 = algebra_a2()
    k2 = simple_k(a2, "left")
    for i in (0, 1):
        rep = pcomp_ext(k2, k2, i, 2)
        bc = bc_cotower(k2, k2, i, 2 + i)
        for kk in range(0, 3):
            if kk + i == 0:
                continue
            assert rep.dims[kk] == bc.stage_dim(kk + i)
            stage_checks += 1
    # the bottom-stage values still hold on (k, k) pairs
    assert pcomp_ext(simple_k(algebra_a1(), "left"), simple_k(algebra_a1(), "left"), 0, 3).dims == [1, 1, 1, 1]
    mu_checks = 0
    for a in (algebra_a1(), algebra_a4()):
        kmod = simple_k(a, "left")
        for i in (0, 1):
            assert mu_stage_check(kmod, kmod, i, 2).ok
            mu_checks += 1
    assert mu_stage_check(simple_k(a2, "left"), simple_k(a2, "left"), 0, 3).ok
    mu_checks += 1
    _passline(11, f"bc/pcomp stage dims agree ({stage_checks} stages); mu round-trips exact "
                  f"({mu_checks} windows); no internal route mismatches")


# -- criterion 12: derived-functor sanity ----------------------------------------------------------


def _seeded_ses(a, rng):
    reg = regular_module(a, "left")
    base = direct_sum([reg, simple_k(a, "left")]) if rng.integers(0, 2) else reg
    for _ in range(6):
        gens = [rng.integers(0, a.p, size=base.dim) for _ in range(int(rng.integers(1, 3)))]
        sub, incl = submodule(base, gens)
        if 0 < sub.dim < base.dim:
            span = Subspace(a.p, base.dim, incl.matrix.a.T.copy())
            quot, proj = quotient_module(base, span)
            return ShortExactSeq(incl, proj)
    return None


def test_criterion_12_derived_sanity():
    rng = np.random.default_rng(99)
    ses_count = 0
    for a in (algebra_a1(), algebra_a2()):
        m = simple_k(a, "right")
        while_count = 0
        while ses_count < (10 if a.p == 2 and a.dim == 2 else 20) and while_count < 40:
            while_count += 1
            ses = _seeded_ses(a, rng)
            if ses is None:
                continue
            rep = les_check(ses, m, 0, 4)
            assert rep.ok
            ses_count += 1
    assert ses_count == 20
    # unit laws across a small corpus
    unit_checks = 0
    for a in (algebra_a1(), algebra_a2(), algebra_a3(), algebra_a4()):
        k_r = simple_k(a, "right")
        for n in seeded_corpus(a, "left", 4, 5, max_free_rank=1):
            assert tor(k_r, n, 0).dim == tensor_over_algebra(k_r, n).dim
            k_l = simple_k(a, "left")
            assert ext(k_l, n, 0).dim == hom_over_algebra(k_l, n).dim
            unit_checks += 2
    # rank-nullity on 1000 seeded random matrices over p in {2, 3, 5}
    rn = 0
    for p in (2, 3, 5):
        rng_p = np.random.default_rng(1000 + p)
        for _ in range(334):
            rows, cols = int(rng_p.integers(0, 9)), int(rng_p.integers(0, 9))
            mat = Matrix(p, rng_p.integers(0, p, size=(rows, cols)))
            assert kernel_basis(mat).dim + rref(mat)[2] == cols
            rn += 1
    assert rn >= 1000
    _passline(12, f"LES exact on {ses_count} sequences; unit laws ({unit_checks} checks); "
                  f"rank-nullity on {rn} matrices")
