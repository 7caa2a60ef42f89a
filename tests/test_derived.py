"""Tests for Tor, Ext, connecting maps, LES exactness and Tate homology."""

import os

from homct.algmod import (
    FdModule,
    ModuleMap,
    direct_sum,
    dual_module,
    hom_over_algebra,
    regular_module,
    tensor_over_algebra,
)
from homct.derived import (
    ShortExactSeq,
    connecting_tor,
    ext,
    ext_chain,
    les_check,
    tate_chain,
    tate_tor,
    tensor_chain,
    tor,
    second_arg_tensor_matrix,
)
from homct.exactla import Matrix, rref
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
from homct.schemas import parse_module_file

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def swap_side(m: FdModule) -> FdModule:
    """Reinterpret a module over a commutative algebra on the other side."""
    other = "right" if m.side == "left" else "left"
    return FdModule(m.algebra, other, m.dim, m.action, check=True, free_rank=m.free_rank)


def socle_ses_a1():
    """0 -> k -> A1 -> k -> 0 over A1 (socle in, top out)."""
    a1 = algebra_a1()
    k = simple_k(a1)
    reg = regular_module(a1, "left")
    f = ModuleMap(k, reg, Matrix(2, [[0], [1]]))
    g = ModuleMap(reg, k, Matrix(2, [[1, 0]]))
    return ShortExactSeq(f, g)


# --- Tor -----------------------------------------------------------------

def test_tor_k_k_a1_all_degrees():
    a1 = algebra_a1()
    k_r, k_l = simple_k(a1, "right"), simple_k(a1, "left")
    for i in range(0, 7):
        assert tor(k_r, k_l, i).dim == 1


def test_tor_free_first_argument_vanishes():
    for a in (algebra_a1(), algebra_a2()):
        reg = regular_module(a, "right")
        n = simple_k(a, "left")
        for i in range(1, 4):
            assert tor(reg, n, i).dim == 0


def test_tor_k_k_a2_doubling():
    a2 = algebra_a2()
    k_r, k_l = simple_k(a2, "right"), simple_k(a2, "left")
    for j in range(0, 5):
        assert tor(k_r, k_l, j).dim == 2**j


def test_tor_negative_degree_zero():
    a1 = algebra_a1()
    assert tor(simple_k(a1, "right"), simple_k(a1, "left"), -1).dim == 0


def test_tor0_is_tensor():
    for a in (algebra_a1(), algebra_a2(), algebra_a4()):
        k_r, k_l = simple_k(a, "right"), simple_k(a, "left")
        reg_l = regular_module(a, "left")
        for n in (k_l, reg_l, dual_module(regular_module(a, "right"))):
            assert tor(k_r, n, 0).dim == tensor_over_algebra(k_r, n).dim


def test_tor_balance_commutative():
    for a in (algebra_a1(), algebra_a3()):
        k_r, k_l = simple_k(a, "right"), simple_k(a, "left")
        reg_l = regular_module(a, "left")
        for n in (k_l, reg_l):
            for i in range(0, 4):
                lhs = tor(k_r, n, i).dim
                rhs = tor(swap_side(n), swap_side(k_r), i).dim
                assert lhs == rhs


# --- Ext -----------------------------------------------------------------

def test_ext_k_k_a1_all_degrees():
    a1 = algebra_a1()
    k = simple_k(a1)
    for i in range(0, 7):
        assert ext(k, k, i).dim == 1


def test_ext_projective_first_argument():
    for a in (algebra_a1(), algebra_a2()):
        reg = regular_module(a, "left")
        for i in range(1, 4):
            assert ext(reg, simple_k(a), i).dim == 0


def test_ext_k_k_a2_doubling():
    a2 = algebra_a2()
    k = simple_k(a2)
    for j in range(0, 5):
        assert ext(k, k, j).dim == 2**j


def test_ext0_is_hom():
    for a in (algebra_a1(), algebra_a2()):
        k = simple_k(a)
        reg = regular_module(a, "left")
        for n in (k, reg):
            assert ext(k, n, 0).dim == hom_over_algebra(k, n).dim


def test_tor_dual_matches_ext_frozen_value():
    # hand-derived: dim Tor_1(k, D(A2)) = 3 = dim Ext^1(k, A2)
    a2 = algebra_a2()
    k_r = simple_k(a2, "right")
    d_reg = dual_module(regular_module(a2, "right"))  # left module D(A2)
    assert tor(k_r, d_reg, 1).dim == 3
    assert ext(simple_k(a2), regular_module(a2, "left"), 1).dim == 3


def test_tor_dual_matches_ext_window():
    a1 = algebra_a1()
    k_r = simple_k(a1, "right")
    for n_rank in (1,):
        reg_r = regular_module(a1, "right")
        for i in range(0, 4):
            lhs = tor(k_r, dual_module(reg_r), i).dim
            rhs = ext(simple_k(a1), regular_module(a1, "left"), i).dim
            assert lhs == rhs


# --- connecting maps ------------------------------------------------------

def test_connecting_iso_on_socle_ses_a1():
    ses = socle_ses_a1()
    k_r = simple_k(algebra_a1(), "right")
    for i in range(2, 5):
        delta = connecting_tor(ses, k_r, i)
        assert delta.rows == delta.cols == 1
        assert rref(delta)[2] == 1  # isomorphism of 1-dim spaces


def test_connecting_zero_on_split_ses():
    a1 = algebra_a1()
    k = simple_k(a1)
    reg = regular_module(a1, "left")
    both = direct_sum([k, reg])
    f = ModuleMap(k, both, Matrix(2, [[1], [0], [0]]))
    g = ModuleMap(both, reg, Matrix(2, [[0, 1, 0], [0, 0, 1]]))
    ses = ShortExactSeq(f, g)
    k_r = simple_k(a1, "right")
    for i in range(1, 4):
        assert connecting_tor(ses, k_r, i).is_zero()


def test_connecting_rank_on_a2_cosyzygy_ses():
    # 0 -> k -> E(k) -> Omega^1 k -> 0 over A2; delta at i=1 has rank
    # dim Tor_1(k, Omega^1) - rank( Tor_1(k, E) -> Tor_1(k, Omega^1) ) = 4 - 3
    a2 = algebra_a2()
    k_l = simple_k(a2, "left")
    inj = min_inj_resolution(k_l, 2)
    omega0, e0, omega1, incl, proj = inj.cosyzygy_ses(1)
    ses = ShortExactSeq(incl, proj)
    k_r = simple_k(a2, "right")
    delta = connecting_tor(ses, k_r, 1)
    assert tor(k_r, omega1, 1).dim == 4
    c_e = tensor_chain(k_r, e0, 3)
    c_o = tensor_chain(k_r, omega1, 3)
    amb = second_arg_tensor_matrix(proj, c_e.component(1), c_o.component(1), c_e.res.proj(1))
    induced = c_o.homology(1).sq.induced_from(c_e.homology(1).sq, amb)
    assert rref(induced)[2] == 3
    assert rref(delta)[2] == 4 - 3 == 1


# --- long exact sequence ----------------------------------------------------

def test_les_split_ses_exact():
    a1 = algebra_a1()
    k = simple_k(a1)
    reg = regular_module(a1, "left")
    both = direct_sum([k, reg])
    ses = ShortExactSeq(
        ModuleMap(k, both, Matrix(2, [[1], [0], [0]])),
        ModuleMap(both, reg, Matrix(2, [[0, 1, 0], [0, 0, 1]])),
    )
    rep = les_check(ses, simple_k(a1, "right"), 0, 4)
    assert rep.ok


def test_les_socle_ses_a1():
    rep = les_check(socle_ses_a1(), simple_k(algebra_a1(), "right"), 0, 5)
    assert rep.ok


def test_les_socle_ses_a2():
    a2 = algebra_a2()
    k_l = simple_k(a2, "left")
    inj = min_inj_resolution(k_l, 2)
    _, _, _, incl, proj = inj.cosyzygy_ses(1)
    rep = les_check(ShortExactSeq(incl, proj), simple_k(a2, "right"), 0, 4)
    assert rep.ok


# --- Tate homology ------------------------------------------------------------

def test_tate_k_k_a1():
    a1 = algebra_a1()
    k_r = simple_k(a1, "right")
    t = complete_resolution(k_r, 5)
    for i in range(-4, 5):
        assert tate_tor(t, simple_k(a1, "left"), i).dim == 1


def test_tate_k_k_a4():
    a4 = algebra_a4()
    k_r = simple_k(a4, "right")
    t = complete_resolution(k_r, 5)
    for i in range(-4, 5):
        assert tate_tor(t, simple_k(a4, "left"), i).dim == 1


def test_tate_a3_gorenstein_pair_vanishes():
    m = a3_mod_x("right")
    n = a3_mod_y("left")
    t = complete_resolution(m, 5)
    for i in range(-4, 5):
        assert tate_tor(t, n, i).dim == 0


def test_tate_agrees_with_tor_above_agreement_degree():
    for a in (algebra_a1(), algebra_a3(), algebra_a4()):
        k_r = simple_k(a, "right")
        t = complete_resolution(k_r, 5)
        n = simple_k(a, "left")
        for i in range(t.agreement_degree + 1, 5):
            assert tate_tor(t, n, i).dim == tor(k_r, n, i).dim


# --- the process memo -------------------------------------------------------------

def test_memo_shares_chains_across_parsed_copies():
    def parsed(name):
        return parse_module_file(os.path.join(FIXTURES, name))

    m1, m2 = parsed("a1_k_right.json"), parsed("a1_k_right.json")
    n1, n2 = parsed("a1_k_left.json"), parsed("a1_k_left.json")
    assert m1 is not m2 and n1 is not n2
    assert tensor_chain(m1, n1, 2) is tensor_chain(m2, n2, 3)
    l1, l2 = parsed("a1_k_left.json"), parsed("a1_k_left.json")
    assert ext_chain(n1, l1, 2) is ext_chain(n2, l2, 3)


def test_tate_chain_shared_per_complete_resolution():
    a1 = algebra_a1()
    k_r, k_l = simple_k(a1, "right"), simple_k(a1, "left")
    t1, t2 = complete_resolution(k_r, 3), complete_resolution(k_r, 3)
    assert t1 is not t2
    assert tate_chain(t1, k_l) is tate_chain(t1, k_l)
    assert tate_chain(t1, k_l) is not tate_chain(t2, k_l)
    assert tate_tor(t1, k_l, 1).dim == tate_tor(t2, k_l, 1).dim == 1
