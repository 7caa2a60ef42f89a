"""Tests for towers, satellites, stabilization and complete homology."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homct import cohom, completion, derived, exactla, resolve
from homct.algmod import ModuleMap, dual_module, regular_module, simple_modules
from homct.completion import (
    cosyzygy_map,
    cosyzygy_tower,
    complete_homology,
    dimension_shift_check,
    induced_iso_check,
    left_satellite_check,
    interleaving_crosscheck,
    right_satellite,
    satellite_tower,
    tower_limit,
    Tower,
)
from homct.derived import second_arg_tensor_matrix, tensor_chain, tor
from homct.exactla import Matrix, image_basis, rref
from homct.fixtures import (
    a3_mod_x,
    a3_mod_y,
    algebra_a1,
    algebra_a2,
    algebra_a3,
    algebra_a4,
    simple_k,
)
from homct.resolve import complete_resolution, min_inj_resolution

from algebras import triangular


class _Stage:
    def __init__(self, dim):
        self.dim = dim


def make_tower(dims, map_builder, p=2):
    stages = [_Stage(d) for d in dims]
    maps = {}
    for k in range(1, len(dims)):
        maps[k] = Matrix(p, map_builder(k, dims[k], dims[k - 1]))
    return Tower(0, 0, stages, maps, "synthetic")


# --- cosyzygy towers -----------------------------------------------------

def test_cosyzygy_tower_a1():
    a1 = algebra_a1()
    k_r, k_l = simple_k(a1, "right"), simple_k(a1, "left")
    t = cosyzygy_tower(k_r, k_l, 0, 5)
    assert t.dims() == [1, 1, 1, 1, 1, 1]
    for k in range(1, 6):
        assert rref(t.maps[k])[2] == 1  # all transitions iso


def test_cosyzygy_tower_injective_second_argument():
    a1 = algebra_a1()
    k_r = simple_k(a1, "right")
    inj_mod = regular_module(a1, "left")  # A1 self-injective
    t = cosyzygy_tower(k_r, inj_mod, 1, 4)
    assert all(d == 0 for d in t.dims())
    t0 = cosyzygy_tower(k_r, inj_mod, 0, 4)
    assert t0.dims()[1:] == [0, 0, 0, 0]


def test_cosyzygy_tower_a2_growth():
    a2 = algebra_a2()
    k_r, k_l = simple_k(a2, "right"), simple_k(a2, "left")
    t = cosyzygy_tower(k_r, k_l, 0, 3)
    assert t.dims() == [1, 4, 16, 64]
    # transitions are surjective (image chain stays full)
    for k in range(1, 4):
        assert rref(t.maps[k])[2] == t.stage_dim(k - 1)


def test_cosyzygy_tower_negative_degree_starts_late():
    a1 = algebra_a1()
    k_r, k_l = simple_k(a1, "right"), simple_k(a1, "left")
    t = cosyzygy_tower(k_r, k_l, -2, 6)
    assert t.k_min == 2 and len(t.dims()) == 5
    assert t.dims() == [1, 1, 1, 1, 1]


def test_cosyzygy_ses_checked_once_per_process(monkeypatch):
    monkeypatch.setattr(resolve, "_memo", {})
    checked = []
    real_init = derived.ShortExactSeq.__init__

    def spy(self, f, g, check=True):
        checked.append(check)
        real_init(self, f, g, check)

    monkeypatch.setattr(derived.ShortExactSeq, "__init__", spy)
    a2 = algebra_a2()
    k_r, k_l = simple_k(a2, "right"), simple_k(a2, "left")
    t1 = cosyzygy_tower(k_r, k_l, 0, 3)
    assert checked.count(True) == 3  # k = 1, 2, 3, each verified once
    t2 = cosyzygy_tower(k_r, k_l, 1, 3)
    t3 = cosyzygy_tower(k_r, k_l, -1, 4)
    assert checked.count(True) == 4  # only k = 4 is new
    assert t1.dims() == [1, 4, 16, 64] and t2.k_max == 3 and t3.k_min == 1


def test_non_exact_pair_raises_after_a_genuine_ses_is_verified():
    a2 = algebra_a2()
    k_l = simple_k(a2, "left")
    cosyzygy_tower(simple_k(a2, "right"), k_l, 0, 2)  # verifies the SESs at k = 1, 2
    inj = min_inj_resolution(k_l, 3)
    om_prev, mid, om_next, incl, proj = inj.cosyzygy_ses(1)
    with pytest.raises(ValueError, match="not surjective"):
        derived.ShortExactSeq(incl, ModuleMap.zero(mid, om_next))
    with pytest.raises(ValueError, match="not injective"):
        derived.ShortExactSeq(ModuleMap.zero(om_prev, mid), proj)


def test_cosyzygy_tower_raises_on_a_non_exact_ses(monkeypatch):
    monkeypatch.setattr(resolve, "_memo", {})
    real = derived.min_inj_resolution

    class Broken:  # the injective resolution of n, with a cokernel map that is not onto
        def __init__(self, n, depth):
            self.inj = real(n, depth)

        def __getattr__(self, name):
            return getattr(self.inj, name)

        def cosyzygy_proj(self, k):
            return ModuleMap.zero(self.inj.space(k - 1), self.inj.cosyzygy(k))

    monkeypatch.setattr(derived, "min_inj_resolution", Broken)
    a2 = algebra_a2()
    k_l = simple_k(a2, "left")
    with pytest.raises(ValueError, match="not surjective"):
        cosyzygy_tower(simple_k(a2, "right"), k_l, 0, 2)
    assert ("cosyzygy_ses", k_l.fingerprint(), 1) not in resolve._memo


# --- right satellites -------------------------------------------------------

def test_satellite_step_zero_is_tor():
    a1 = algebra_a1()
    k_r, k_l = simple_k(a1, "right"), simple_k(a1, "left")
    s = right_satellite(k_r, 1, 0, k_l)
    assert s.dim == tor(k_r, k_l, 1).dim == 1


def test_first_satellite_of_tor1_a1():
    a1 = algebra_a1()
    k_r, k_l = simple_k(a1, "right"), simple_k(a1, "left")
    assert right_satellite(k_r, 1, 1, k_l).dim == 1


def test_first_satellite_of_tor0_a1_vanishes():
    a1 = algebra_a1()
    k_r, k_l = simple_k(a1, "right"), simple_k(a1, "left")
    assert right_satellite(k_r, 0, 1, k_l).dim == 0


def test_satellite_values_a2_frozen():
    # hand-derived: S^1 T_1(k) = 1 and S^2 T_2(k) = 4 over A2
    a2 = algebra_a2()
    k_r, k_l = simple_k(a2, "right"), simple_k(a2, "left")
    assert right_satellite(k_r, 1, 1, k_l).dim == 1
    assert right_satellite(k_r, 2, 2, k_l).dim == 4
    assert right_satellite(k_r, 3, 3, k_l).dim == 16


def test_satellite_iteration_identity():
    # S^{k+1} T(N) = S^1 T(Omega^k N) at the level of dimensions
    for a in (algebra_a1(), algebra_a2()):
        k_r, k_l = simple_k(a, "right"), simple_k(a, "left")
        inj = min_inj_resolution(k_l, 3)
        for k in range(0, 3):
            lhs = right_satellite(k_r, k + 2, k + 1, k_l).dim
            rhs = right_satellite(k_r, k + 2, 1, inj.cosyzygy(k)).dim
            assert lhs == rhs


# --- satellite towers ---------------------------------------------------------

def test_satellite_tower_a1():
    a1 = algebra_a1()
    k_r, k_l = simple_k(a1, "right"), simple_k(a1, "left")
    t = satellite_tower(k_r, k_l, 0, 4)
    assert t.dims() == [1, 1, 1, 1, 1]


def test_satellite_tower_injective_is_zero():
    a1 = algebra_a1()
    k_r = simple_k(a1, "right")
    t = satellite_tower(k_r, regular_module(a1, "left"), 1, 3)
    assert all(d == 0 for d in t.dims())


def test_satellite_tower_a2_interleaves_cosyzygy_tower():
    # satellite stages k = 1..4 carry the dims [1, 4, 16, 64]
    a2 = algebra_a2()
    k_r, k_l = simple_k(a2, "right"), simple_k(a2, "left")
    t = satellite_tower(k_r, k_l, 0, 4)
    assert t.dims() == [1, 1, 4, 16, 64]


def test_interleaving_crosscheck_fixtures():
    for a in (algebra_a1(), algebra_a4()):
        k_r, k_l = simple_k(a, "right"), simple_k(a, "left")
        for i in (-1, 0, 1):
            rep = interleaving_crosscheck(k_r, k_l, i, 4)
            assert rep.ok


def test_interleaving_crosscheck_a2_phi_bijective():
    a2 = algebra_a2()
    k_r, k_l = simple_k(a2, "right"), simple_k(a2, "left")
    rep = interleaving_crosscheck(k_r, k_l, 0, 3)
    assert rep.ok
    assert all(rep.phi_bijective[k] for k in rep.stages)


# --- tower limits ----------------------------------------------------------------

def test_tower_limit_constant_identity():
    t = make_tower([1, 1, 1, 1, 1], lambda k, s, r: np.eye(1, dtype=np.int64))
    rep = tower_limit(t, 3)
    assert rep.verdict == "Stabilized" and rep.limit_dim == 1


def test_tower_limit_eventually_zero():
    dims = [2, 1, 0, 0, 0, 0]

    def mb(k, s, r):
        return np.zeros((r, s), dtype=np.int64)

    rep = tower_limit(make_tower(dims, mb), 3)
    assert rep.verdict == "Stabilized" and rep.limit_dim == 0


def test_tower_limit_zero_maps_constant_dims():
    # constant dims but zero transitions: limit is 0, not 1
    t = make_tower([1, 1, 1, 1, 1], lambda k, s, r: np.zeros((r, s), dtype=np.int64))
    rep = tower_limit(t, 3)
    assert rep.verdict == "Stabilized" and rep.limit_dim == 0


def test_tower_limit_a2_not_stabilized():
    a2 = algebra_a2()
    k_r, k_l = simple_k(a2, "right"), simple_k(a2, "left")
    t = cosyzygy_tower(k_r, k_l, 0, 3)
    rep = tower_limit(t, 2)
    assert rep.verdict == "NotStabilized"
    assert rep.lower_bound == 64
    # image chains weakly decreasing in j
    for k, row in rep.image_chain.items():
        assert all(row[j] >= row[j + 1] for j in range(len(row) - 1))


def test_tower_limit_builds_no_subspace_for_the_last_stage(monkeypatch):
    # the verdict reads only the last stage's dimension, so no subspace is made for it: a
    # one-stage tower, which has no map to tell its field, makes none over a guessed p = 2
    made = []
    full = exactla.Subspace.full
    monkeypatch.setattr(exactla.Subspace, "full", staticmethod(lambda p, n: made.append(p) or full(p, n)))
    one = tower_limit(Tower(0, 0, [_Stage(2)], {}, "synthetic"), 1)
    assert (one.image_chain, one.verdict, made) == ({0: [2]}, "Inconclusive", [])
    rep = tower_limit(make_tower([1, 2, 3], lambda k, s, r: np.zeros((r, s), dtype=np.int64), p=3), 2)
    assert (rep.verdict, rep.lower_bound, rep.image_chain) == ("NotStabilized", 3, {0: [1, 0, 0], 1: [2, 0], 2: [3]})
    assert set(made) <= {3}


def test_tower_limit_window_too_large_inconclusive():
    t = make_tower([1, 1], lambda k, s, r: np.eye(1, dtype=np.int64))
    assert tower_limit(t, 3).verdict == "Inconclusive"


def _tower_limit_reference(t: Tower, w: int) -> completion.StabilizationReport:
    """tower_limit as it was before image propagation: every composite V_h -> V_k formed
    as a dense product, its rank read by rref and the last one's image by image_basis."""
    K = t.k_max
    dims = t.dims()
    chain, eventual = {}, {}
    for idx, k in enumerate(range(t.k_min, K + 1)):
        row, comp = [dims[idx]], None
        for khi in range(k + 1, K + 1):
            if comp is not None:
                row.append(rref(comp)[2])
            comp = t.maps[khi] if comp is None else comp @ t.maps[khi]
        if comp is not None:
            eventual[k] = image_basis(comp)
            row.append(eventual[k].dim)
        chain[k] = row
    report = completion.StabilizationReport(t.provenance, t.i, t.k_min, w, dims, chain, "Inconclusive")
    if len(dims) < w + 1:
        report.notes.append("window exceeds available stages")
        return report
    if len(set(dims[-w:])) != 1:
        report.verdict = "NotStabilized"
        report.lower_bound = max(row[-1] for row in chain.values())
        report.notes.append("stage dims still changing in the window")
        return report
    k0 = min(K - w + 1, K - 1)
    e_dims = [chain[k][-1] for k in range(k0, K)]
    if len(set(e_dims)) > 1:
        report.notes.append("stable-image dims not constant across the window")
        return report
    report.verdict = "Stabilized"
    report.limit_dim = e_dims[0]
    report.stable_range = (k0, K)
    report.limit_basis = [list(map(int, row)) for row in eventual[k0].basis.a]
    return report


def _assert_matches_reference(t: Tower, w: int) -> completion.StabilizationReport:
    got, want = tower_limit(t, w), _tower_limit_reference(t, w)
    assert got.to_dict() == want.to_dict() and got.limit_basis == want.limit_basis
    return got


@st.composite
def _towers(draw):
    """Towers over F_2, F_3 and F_(2^31-1) with zero stages and zero, low-rank or onto maps."""
    p = draw(st.sampled_from([2, 3, 2**31 - 1]))
    k_min = draw(st.integers(0, 2))
    dims = draw(st.lists(st.integers(0, 5), min_size=1, max_size=6))
    entries = st.sampled_from([0, 1, 2, p - 1, p // 2])

    def matrix(rows, cols):
        flat = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
        return Matrix(p, np.array(flat, dtype=np.int64).reshape(rows, cols))

    maps = {}
    for k in range(k_min + 1, k_min + len(dims)):
        rows, cols = dims[k - 1 - k_min], dims[k - k_min]
        rank = draw(st.integers(0, min(rows, cols)))  # a product through F_p^rank
        maps[k] = matrix(rows, rank) @ matrix(rank, cols)
    return Tower(draw(st.integers(-1, 1)), k_min, [_Stage(d) for d in dims], maps, "synthetic")


@settings(max_examples=300, deadline=None)
@given(_towers(), st.integers(1, 7))
def test_tower_limit_matches_the_composite_loop(t, w):
    # image propagation against the composite loop it replaced: equal report and limit basis
    _assert_matches_reference(t, w)


def test_tower_limit_matches_the_composite_loop_on_module_towers(monkeypatch):
    # the cosyzygy towers and the Ext cotowers (through cotower_limit, on the dual tower)
    # of k over A1-A4 and of every pair of simples over T_2(F_3)
    t2 = triangular()
    pairs = [(simple_k(a, "right"), simple_k(a, "left"))
             for a in (algebra_a1(), algebra_a2(), algebra_a3(), algebra_a4())]
    pairs += [(m, n) for m in simple_modules(t2, "right") for n in simple_modules(t2, "left")]
    verdicts = set()
    for m, n in pairs:
        m_op, dn_op = m.as_left_over_opposite(), dual_module(n).as_left_over_opposite()
        for i, K, w in itertools.product((-1, 0, 1), (1, 4), (1, 2, 3)):  # K = 1 has 1 or 2 stages
            verdicts.add(_assert_matches_reference(cosyzygy_tower(m, n, i, K), w).verdict)
            cot = cohom.ext_cotower(m_op, dn_op, i, K)
            got = cohom.cotower_limit(cot, w)
            with monkeypatch.context() as mp:
                mp.setattr(cohom, "tower_limit", _tower_limit_reference)
                want = cohom.cotower_limit(cot, w)
            assert got.to_dict() == want.to_dict() and got.limit_basis == want.limit_basis
            verdicts.add(got.verdict)
    assert verdicts == {"Stabilized", "NotStabilized", "Inconclusive"}


def test_tower_limit_forms_no_composite(monkeypatch):
    # A2 K = 4 is onto at every map: one image_basis per map and no product
    products = []
    matmul = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: products.append((a.a.shape, b.a.shape)) or matmul(a, b))
    a2 = algebra_a2()
    t = cosyzygy_tower(simple_k(a2, "right"), simple_k(a2, "left"), 0, 4)
    products.clear()
    rep = tower_limit(t, 2)
    assert rep.image_chain[0] == [1, 1, 1, 1, 1] and rep.image_chain[3] == [64, 64] and products == []


# --- complete homology -------------------------------------------------------------

def test_complete_homology_a1_all_degrees():
    a1 = algebra_a1()
    k_r, k_l = simple_k(a1, "right"), simple_k(a1, "left")
    for i in range(-4, 5):
        rep = complete_homology(k_r, k_l, i, max(0, -i) + 4, 3)
        assert rep.stabilized and rep.limit_dim == 1


def test_complete_homology_vanishing_projective_first():
    a1 = algebra_a1()
    reg_r = regular_module(a1, "right")
    k_l = simple_k(a1, "left")
    for i in (-2, 0, 2):
        rep = complete_homology(reg_r, k_l, i, max(0, -i) + 4, 3)
        assert rep.stabilized and rep.limit_dim == 0


def test_complete_homology_vanishing_injective_second():
    a2 = algebra_a2()
    k_r = simple_k(a2, "right")
    inj = dual_module(regular_module(a2, "right"))
    for i in (-1, 0, 1, 2):
        rep = complete_homology(k_r, inj, i, max(0, -i) + 4, 3)
        assert rep.stabilized and rep.limit_dim == 0


def test_complete_homology_a3_gorenstein_pair():
    m = a3_mod_x("right")
    n = a3_mod_y("left")
    for i in range(-4, 5):
        rep = complete_homology(m, n, i, max(0, -i) + 4, 3)
        assert rep.stabilized and rep.limit_dim == 0


def test_complete_homology_matches_tate_a1():
    a1 = algebra_a1()
    k_r, k_l = simple_k(a1, "right"), simple_k(a1, "left")
    t = complete_resolution(k_r, 6)
    from homct.derived import tate_tor

    for i in range(-3, 4):
        rep = complete_homology(k_r, k_l, i, max(0, -i) + 4, 3)
        assert rep.limit_dim == tate_tor(t, k_l, i).dim == 1


def test_complete_homology_cross_check_flag():
    a1 = algebra_a1()
    k_r, k_l = simple_k(a1, "right"), simple_k(a1, "left")
    rep = complete_homology(k_r, k_l, 0, 4, 3, cross_check=True)
    assert rep.stabilized and "satellite cross-check passed" in rep.notes


def test_complete_homology_cross_check_builds_one_tower(monkeypatch):
    built = []

    def counted(*args, _fn=completion.cosyzygy_tower):
        built.append(args)
        return _fn(*args)

    monkeypatch.setattr(completion, "cosyzygy_tower", counted)
    a1 = algebra_a1()
    k_r, k_l = simple_k(a1, "right"), simple_k(a1, "left")
    rep = complete_homology(k_r, k_l, 0, 4, 3, cross_check=True)
    assert len(built) == 1 and "satellite cross-check passed" in rep.notes


def test_tower_json_dump():
    a1 = algebra_a1()
    k_r, k_l = simple_k(a1, "right"), simple_k(a1, "left")
    t = cosyzygy_tower(k_r, k_l, 0, 4)
    rep = tower_limit(t, 3)
    dump = t.to_dict(rep)
    assert dump["dims"] == [1, 1, 1, 1, 1]
    assert dump["verdict"] == "Stabilized" and dump["limit_dim"] == 1
    assert set(dump["transitions"]) == {"1", "2", "3", "4"}
    assert "image_chain" in dump


def test_extension_stability():
    a4 = algebra_a4()
    k_r, k_l = simple_k(a4, "right"), simple_k(a4, "left")
    t1 = cosyzygy_tower(k_r, k_l, 0, 4)
    t2 = cosyzygy_tower(k_r, k_l, 0, 5)
    assert t1.dims() == t2.dims()[:-1]
    for k in range(1, 5):
        assert t1.maps[k] == t2.maps[k]


# --- dimension shifting ---------------------------------------------------------

def test_dimension_shift_a1():
    a1 = algebra_a1()
    k_r, k_l = simple_k(a1, "right"), simple_k(a1, "left")
    rep = dimension_shift_check(k_r, k_l, 0, 2, 5)
    assert rep.ok and rep.verdicts == ("Stabilized", "Stabilized")


def test_dimension_shift_zero_steps():
    a4 = algebra_a4()
    k_r, k_l = simple_k(a4, "right"), simple_k(a4, "left")
    rep = dimension_shift_check(k_r, k_l, 0, 0, 5)
    assert rep.ok


def test_dimension_shift_a3_pair():
    m = a3_mod_x("right")
    n = a3_mod_y("left")
    rep = dimension_shift_check(m, n, 0, 1, 5)
    assert rep.ok


def test_dimension_shift_reads_the_image_chains(monkeypatch):
    # the stage-wise check compares image-chain rows and eliminates no transition again
    ranks = []
    monkeypatch.setattr(completion, "rref", lambda m: ranks.append(m) or rref(m))
    a1 = algebra_a1()
    k_r, k_l = simple_k(a1, "right"), simple_k(a1, "left")
    assert dimension_shift_check(k_r, k_l, 0, 2, 5).ok and ranks == []
    real = completion.tower_limit

    def shifted_row_off(t, w):  # the shifted tower (degree 0 here) loses rank in its row 1
        rep = real(t, w)
        if t.i == 0:
            rep.image_chain[1] = [rep.image_chain[1][0], 0, *rep.image_chain[1][2:]]
        return rep

    monkeypatch.setattr(completion, "tower_limit", shifted_row_off)
    rep = dimension_shift_check(k_r, k_l, 0, 2, 5)
    assert rep.verdicts == ("Stabilized", "Stabilized") and not rep.ok


# --- left satellites ---------------------------------------------------------------

def test_left_satellite_a1():
    a1 = algebra_a1()
    k_r, k_l = simple_k(a1, "right"), simple_k(a1, "left")
    rep = left_satellite_check(k_r, 0, 1, k_l)
    assert rep.ok and rep.satellite_dim == 1


def test_left_satellite_zero_steps_identity():
    a1 = algebra_a1()
    k_r, k_l = simple_k(a1, "right"), simple_k(a1, "left")
    assert left_satellite_check(k_r, 2, 0, k_l).ok


def test_left_satellite_a2_spot_value():
    # dim S_1 Tor_1(k,-)(k) = dim Tor_2(k,k) = 4
    a2 = algebra_a2()
    k_r, k_l = simple_k(a2, "right"), simple_k(a2, "left")
    rep = left_satellite_check(k_r, 1, 1, k_l)
    assert rep.ok and rep.tor_dim == 4


# --- functoriality and the universal-property probe -------------------------------

def test_tower_functoriality_square():
    a1 = algebra_a1()
    k_r, k_l = simple_k(a1, "right"), simple_k(a1, "left")
    reg = regular_module(a1, "left")
    g = ModuleMap(k_l, reg, Matrix(2, [[0], [1]]))  # socle embedding
    t_src = cosyzygy_tower(k_r, k_l, 0, 3)
    t_tgt = cosyzygy_tower(k_r, reg, 0, 3)
    inj_s = min_inj_resolution(k_l, 4)
    inj_t = min_inj_resolution(reg, 4)
    for k in range(1, 4):
        gk = cosyzygy_map(g, k)
        gk1 = cosyzygy_map(g, k - 1)

        def induced(gmap, om_s, om_t, deg):
            hs = tor(k_r, om_s, deg)
            ht = tor(k_r, om_t, deg)
            if hs.dim == 0 or ht.dim == 0:
                return Matrix.zeros(2, ht.dim, hs.dim)
            cs = tensor_chain(k_r, om_s, deg + 1)
            ct = tensor_chain(k_r, om_t, deg + 1)
            amb = second_arg_tensor_matrix(gmap, cs.component(deg), ct.component(deg), cs.res.proj(deg))
            return ht.induced_from(hs, amb)

        top = induced(gk, inj_s.cosyzygy(k), inj_t.cosyzygy(k), k)
        bot = induced(gk1, inj_s.cosyzygy(k - 1), inj_t.cosyzygy(k - 1), k - 1)
        lhs = t_tgt.maps[k] @ top
        rhs = bot @ t_src.maps[k]
        assert lhs == rhs


def test_induced_iso_check_a1():
    a1 = algebra_a1()
    k_r = simple_k(a1, "right")
    t = complete_resolution(k_r, 6)
    corpus = [simple_k(a1, "left"), regular_module(a1, "left")]
    rep = induced_iso_check(k_r, t, corpus, range(-3, 4), 7, 3)
    assert rep.ok


def test_induced_iso_check_a3_pair():
    m = a3_mod_x("right")
    t = complete_resolution(m, 6)
    corpus = [a3_mod_y("left")]
    rep = induced_iso_check(m, t, corpus, range(-2, 3), 6, 3)
    assert rep.ok
