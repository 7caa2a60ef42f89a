"""Tests for towers, satellites, stabilization and complete homology."""

import numpy as np
import pytest

from homct import completion, derived, exactla, resolve
from homct.algmod import ModuleMap, dual_module, regular_module
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
from homct.exactla import Matrix, rref
from homct.fixtures import (
    a3_mod_x,
    a3_mod_y,
    algebra_a1,
    algebra_a2,
    algebra_a4,
    simple_k,
)
from homct.resolve import complete_resolution, min_inj_resolution


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
    real = completion.min_inj_resolution

    class Broken:  # the injective resolution of n, with a cokernel map that is not onto
        def __init__(self, n, depth):
            self.inj = real(n, depth)

        def cosyzygy(self, k):
            return self.inj.cosyzygy(k)

        def cosyzygy_ses(self, k):
            om_prev, mid, om_next, incl, _ = self.inj.cosyzygy_ses(k)
            return om_prev, mid, om_next, incl, ModuleMap.zero(mid, om_next)

    monkeypatch.setattr(completion, "min_inj_resolution", Broken)
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
