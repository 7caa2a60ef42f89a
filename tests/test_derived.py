"""Tests for Tor, Ext, connecting maps, LES exactness and Tate homology."""

import hashlib
import itertools
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homct.algmod import (
    Algebra,
    FdModule,
    ModuleMap,
    _free_block_entries,
    _entry_actions,
    _nonzeros,
    direct_sum,
    quotient_module,
    socle,
    submodule_from_subspace,
    dual_module,
    free_module,
    hom_over_algebra,
    make_group_algebra,
    make_monomial_quotient,
    regular_module,
    simple_modules,
    tensor_over_algebra,
)
import homct.derived as derived
from homct.derived import (
    ExtChain,
    TensorChain,
    _snake_by_operators,
    _acts_as_zero,
    first_arg_tensor_matrix,
    ShortExactSeq,
    connecting_ext,
    connecting_tor,
    ext,
    ext_chain,
    ext_map,
    les_check,
    tate_chain,
    tate_tor,
    tensor_chain,
    tor,
    tor_map,
    second_arg_ext_matrix,
    second_arg_tensor_matrix,
)
from homct.exactla import (
    Matrix,
    SparseMatrix,
    Subquotient,
    Subspace,
    image_basis,
    kernel_basis,
    kron,
    mulmod,
    quotient_projection,
    rref,
    solve_matrix,
)
from homct.fixtures import (
    a3_mod_x,
    a3_mod_y,
    algebra_a1,
    algebra_a2,
    algebra_a3,
    algebra_a4,
    fixture_algebras,
    group_algebra_c3_f3,
    klein_four_table,
    random_module,
    simple_k,
)
from homct.resolve import (
    Resolution, complete_resolution, end_degree, hom_solve, min_inj_resolution, min_proj_resolution,
)
from homct.schemas import parse_module_file

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
C3XC3_TABLE = [[3 * ((g // 3 + h // 3) % 3) + (g + h) % 3 for h in range(9)] for g in range(9)]


def swap_side(m: FdModule) -> FdModule:
    """Reinterpret a module over a commutative algebra on the other side."""
    other = "right" if m.side == "left" else "left"
    return FdModule(m.algebra, other, m.dim, m.action, check=True, free_rank=m.free_rank)


def triangular_f3() -> Algebra:
    """Upper triangular 2x2 matrices over F_3 (basis e11, e12, e22): two simples, unit e11 + e22."""
    struct = np.zeros((3, 3, 3), dtype=np.int64)
    for (i, j), k in {(0, 0): 0, (0, 1): 1, (1, 2): 1, (2, 2): 2}.items():
        struct[i, j, k] = 1
    return Algebra(3, struct, [1, 0, 1])


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


def test_connecting_over_triangular_algebra():
    # right simples have non-free projective covers, so the maps id_P tensor g
    # go through the relation path of second_arg_tensor_matrix
    a = triangular_f3()
    expected = {(0, 0): [(0, 0), (0, 0)], (0, 1): [(0, 0), (0, 0)],
                (1, 0): [[[1]], (0, 0)], (1, 1): [(0, 0), (0, 0)]}
    for (mi, ni), mats in expected.items():
        m = simple_modules(a, "right")[mi]
        res = min_proj_resolution(simple_modules(a, "left")[ni], 2)
        ses = ShortExactSeq(res.syzygy_incl(1), res.cover_map(0))
        assert les_check(ses, m, 0, 2).ok
        for i, want in zip((1, 2), mats):
            delta = connecting_tor(ses, m, i)
            if isinstance(want, tuple):
                assert delta.a.shape == want
            else:
                assert delta.to_lists() == want


def _connecting_cases():
    """(SES, m) pairs: the fixture SESs over A1 and A2, and T_2(F_3), whose
    right simples have non-free projective covers."""
    a1, a2, t2 = algebra_a1(), algebra_a2(), triangular_f3()
    k = simple_k(a1)
    both = direct_sum([k, regular_module(a1, "left")])
    split = ShortExactSeq(ModuleMap(k, both, Matrix(2, [[1], [0], [0]])),
                          ModuleMap(both, regular_module(a1, "left"), Matrix(2, [[0, 1, 0], [0, 0, 1]])))
    _, _, _, incl, proj = min_inj_resolution(simple_k(a2, "left"), 2).cosyzygy_ses(1)
    cases = [(socle_ses_a1(), simple_k(a1, "right")), (split, simple_k(a1, "right")),
             (ShortExactSeq(incl, proj), simple_k(a2, "right"))]
    for mi in range(2):
        for ni in range(2):
            res = min_proj_resolution(simple_modules(t2, "left")[ni], 2)
            cases.append((ShortExactSeq(res.syzygy_incl(1), res.cover_map(0)), simple_modules(t2, "right")[mi]))
    return cases


def _cosyzygy_cases():
    """(SES, k) pairs: the cosyzygy sequences k = 1, 2 of k over A4 and F_3[C_3 x C_3]."""
    cases = []
    for a in (algebra_a4(), make_group_algebra(C3XC3_TABLE, 3)):
        inj = min_inj_resolution(simple_k(a, "left"), 3)
        cases += [(ShortExactSeq(*inj.cosyzygy_ses(k)[3:]), simple_k(a, "right")) for k in (1, 2)]
    return cases


def _connecting_tor_reference(ses, m, i):
    """The snake as connecting_tor computed it through the middle chain: lift every class
    through the dense id_P tensor g, apply the middle differential, pull back through the
    dense id_P tensor f.  None when either system is inconsistent."""
    c_left, c_mid, c_right = (tensor_chain(m, x, i + 1) for x in (ses.left, ses.middle, ses.right))
    h_top, h_bot = c_right.homology(i), c_left.homology(i - 1)
    if h_top.dim == 0 or h_bot.dim == 0:
        return Matrix.zeros(m.p, h_bot.dim, h_top.dim)
    res = c_mid.res
    g_dense = second_arg_tensor_matrix(ses.g, c_mid.component(i), c_right.component(i), res.proj(i))
    lifted = solve_matrix(g_dense, Matrix(m.p, h_top.sq.basis_representatives().T))
    if lifted is None:
        return None
    f_dense = second_arg_tensor_matrix(ses.f, c_left.component(i - 1), c_mid.component(i - 1), res.proj(i - 1))
    pulled = solve_matrix(f_dense, c_mid.differential(i) @ lifted)
    return None if pulled is None else Matrix(m.p, h_bot.class_of(pulled.a.T).T)


def test_connecting_tor_matches_two_solve_snake():
    # the snake from sequence operators against the two dense solves through the
    # middle chain; with f or g replaced by zero one of the systems is inconsistent,
    # and both must refuse it
    paths, solvable = set(), set()
    for ses, m in _connecting_cases() + _cosyzygy_cases():
        broken = (ShortExactSeq(ModuleMap.zero(ses.left, ses.middle), ses.g, check=False),
                  ShortExactSeq(ses.f, ModuleMap.zero(ses.middle, ses.right), check=False))
        for i in (1, 2, 3):
            res = min_proj_resolution(m, i + 1)
            paths.add(res.proj(i).free_rank is None or res.proj(i - 1).free_rank is None)
            for s in (ses, *broken):
                want = _connecting_tor_reference(s, m, i)
                try:
                    got = connecting_tor(s, m, i)
                except RuntimeError:
                    got = None
                assert (got is None) == (want is None)
                assert got is None or got == want
                solvable.add(got is not None)
    assert paths == {False, True}  # both the operator path and the two-solve path ran
    assert solvable == {False, True}  # and both consistent and inconsistent systems


def _entry_action_matrix_reference(entries, n):
    """The block matrix of entry actions as first built: the action of every entry, zero or not, stacked."""
    rows, cols, da = entries.shape
    dn = n.dim
    acts = n.action_of(entries.reshape(rows * cols, da)).reshape(rows, cols, dn, dn)
    return Matrix(n.p, acts.swapaxes(1, 2).reshape(rows * dn, cols * dn))


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_entry_action_matrix_acts_only_on_nonzero_entries(p):
    a = make_monomial_quotient(2, [(3, 0), (1, 1), (0, 3)], p)  # dim 5, local
    n = direct_sum([regular_module(a, "left"), simple_k(a, "left")])
    rng = np.random.default_rng(p % 1000)
    unit = np.asarray(a.unit, dtype=np.int64)
    for rows, cols in ((0, 0), (0, 2), (1, 1), (3, 4), (5, 2)):
        dense = rng.integers(0, p, size=(rows, cols, a.dim))
        sparse = dense * (rng.random((rows, cols, 1)) < 0.3)
        units = np.zeros((rows, cols, a.dim), dtype=np.int64)
        units[rng.random((rows, cols)) < 0.5] = unit
        # N^3 is kept as three copies of N: each action's nonzeros are tiled over them
        for entries, m in itertools.product((dense, sparse, np.zeros_like(dense), units), (n, free_module(a, "left", 3))):
            want = _entry_action_matrix_reference(entries, m)
            got = _entry_actions(entries, m)
            # the nonzeros of the nonzero entries' actions, and nothing else
            assert got.vals.size == np.count_nonzero(want.a)
            assert got.to_matrix() == want
    # the blocks of a resolution differential
    d = min_proj_resolution(simple_k(a, "right"), 2).differential(2)
    entries = _free_block_entries(d)
    assert _entry_actions(entries, n).to_matrix() == _entry_action_matrix_reference(entries, n)


# --- tensor spaces as block operators ---------------------------------------

def dense_projection_section(m: FdModule, n: FdModule) -> tuple[Matrix, Matrix]:
    """The dense projection and section matrices of M tensor_A N, built as
    TensorSpace stored them before it became two block operators."""
    p, dm, dn = m.p, m.dim, n.dim
    if m.free_rank is not None:
        b, da = m.free_rank, m.algebra.dim
        nproj = np.hstack([n.action[i].a for i in range(da)]) if dn else np.zeros((0, 0), dtype=np.int64)
        sec_small = np.kron(m.algebra.unit.reshape(-1, 1), np.eye(dn, dtype=np.int64))
        eye_b = np.eye(b, dtype=np.int64)
        return (Matrix(p, np.kron(eye_b, nproj.reshape(dn, da * dn)) % p),
                Matrix(p, np.kron(eye_b, sec_small) % p))
    eye_m, eye_n = np.eye(dm, dtype=np.int64), np.eye(dn, dtype=np.int64)
    rels = np.vstack([np.kron(ma.a.T, eye_n) - np.kron(eye_m, na.a.T)
                      for ma, na in zip(m.action, n.action)]) % p
    sub = Subspace(p, dm * dn, rels[rels.any(axis=1)])
    return quotient_projection(sub), Matrix(p, np.eye(dm * dn, dtype=np.int64)[:, sub.complement_cols()])


def _first_arg(a, kind, r, simple):
    if kind == "free":
        return free_module(a, "right", r)
    if kind == "simple":
        return simple
    if kind == "syzygy":
        return min_proj_resolution(simple, r + 1).syzygy(r + 1)
    if kind == "dual_free":  # the injectives of complete resolutions
        return dual_module(free_module(a, "left", r))
    return direct_sum([free_module(a, "right", r), simple])  # mixed: free_rank is None


def _second_arg(a, kind):
    if kind == "zero":
        return FdModule(a, "left", 0, [Matrix.zeros(a.p, 0, 0)] * a.dim, check=False)
    if kind == "simple":
        return simple_modules(a, "left")[-1]
    if kind == "regular":
        return regular_module(a, "left")
    return dual_module(free_module(a, "right", 2))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["a1", "a2", "a3", "a4", "t2"]),
    st.sampled_from(["free", "simple", "syzygy", "dual_free", "mixed"]),
    st.integers(min_value=0, max_value=3),  # free rank, or syzygy degree - 1
    st.sampled_from(["zero", "simple", "regular", "injective"]),
    st.integers(min_value=0, max_value=3),  # rows of a block
    st.integers(min_value=0, max_value=2**31 - 1),
)
@example("t2", "free", 2, "regular", 2, 0)  # the unit e11 + e22 is not a basis vector
@example("t2", "mixed", 1, "injective", 1, 1)
@example("a2", "free", 3, "zero", 2, 0)
@example("a4", "free", 0, "simple", 1, 0)
def test_tensor_operators_match_dense_reference(name, kind, r, n_kind, k, seed):
    a = triangular_f3() if name == "t2" else fixture_algebras()[name]
    simples = simple_modules(a, "right")
    m = _first_arg(a, kind, r, simples[seed % len(simples)])
    n = _second_arg(a, n_kind)
    t = tensor_over_algebra(m, n)
    proj, sec = dense_projection_section(m, n)
    assert (t.relations is None) == (m.free_rank is not None) and t.dim == proj.rows
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, a.p, size=(k, m.dim * n.dim))
    coords = rng.integers(0, a.p, size=(k, t.dim))
    assert np.array_equal(t.project(rows), proj.apply(rows))
    assert np.array_equal(t.lift(coords), sec.apply(coords))
    assert np.array_equal(t.project(t.lift(coords)), coords)
    for v, c in zip(rows, coords):  # single vectors
        assert np.array_equal(t.project(v), proj.apply(v))
        assert np.array_equal(t.lift(c), sec.apply(c))


# --- zero stage differentials -----------------------------------------------

def _dense_differential(chain, j):
    """d_j tensor id_n as the general path builds it, zero or not."""
    src, tgt = chain.component(j), chain.component(j - 1)
    if src is None or tgt is None or src.dim == 0 or tgt.dim == 0:
        return Matrix.zeros(chain.n.p, chain.dim(j - 1), chain.dim(j))
    return first_arg_tensor_matrix(chain.res.differential(j), src, tgt, chain.n).to_matrix()


def _homology_reference(chain, i):
    """H_i as the general path computes it: the dense differentials, one kernel and one
    image elimination; None for a zero space."""
    if chain.dim(i) == 0:
        return None
    return Subquotient(kernel_basis(_dense_differential(chain, i)), image_basis(_dense_differential(chain, i + 1)))


def _class_of_reference(sq, v):
    """Class coordinates by Z-coordinates reduced modulo B, for every subquotient."""
    return sq._b_in_z.reduce(sq.z.coords(v))[..., sq._comp]


def _connecting_by_operators_reference(ses, m, i):
    """connecting_tor on free projectives by the general path: the reference homology at both
    ends and ``_snake_by_operators`` on the dense class representatives (unit vectors when
    Z is everything and B is zero)."""
    top = _homology_reference(tensor_chain(m, ses.right, i + 1), i)
    bot = _homology_reference(tensor_chain(m, ses.left, i + 1), i - 1)
    if top is None or bot is None:
        return Matrix.zeros(m.p, 0 if bot is None else bot.dim, 0 if top is None else top.dim)
    res = min_proj_resolution(m, i + 1)
    pulled = _snake_by_operators(ses, res.differential(i), top.basis_representatives().T, False)
    return Matrix(m.p, _class_of_reference(bot, pulled.T).T)


def _stage_cases():
    """(ses, m, degrees): A2's cosyzygy sequences for stages k <= 4 at degrees k + i, i = -1..1,
    and over F_2[C_2 x C_2] and F_3[C_3] the cosyzygy sequences of k and 0 -> Omega k -> P_0 -> k -> 0."""
    a2 = algebra_a2()
    inj = min_inj_resolution(simple_k(a2, "left"), 5)
    cases = [(ShortExactSeq(*inj.cosyzygy_ses(k)[3:]), simple_k(a2, "right"), [k - 1, k, k + 1])
             for k in range(1, 5)]
    for a in (make_group_algebra(klein_four_table(), 2), group_algebra_c3_f3()):
        k_l, k_r = simple_k(a, "left"), simple_k(a, "right")
        inj, res = min_inj_resolution(k_l, 3), min_proj_resolution(k_l, 1)
        cases += [(ShortExactSeq(*inj.cosyzygy_ses(k)[3:]), k_r, [1, 2, 3]) for k in (1, 2)]
        cases.append((ShortExactSeq(res.syzygy_incl(1), res.cover_map(0)), k_r, [1, 2, 3]))
    return cases


def test_zero_stage_differentials_match_the_dense_path():
    # Tor classes and connecting maps read off the entries (no zero differential built,
    # unit classes read as indices) against the dense general path, on A2 and on group
    # algebras, whose zero differentials have entries such as g - 1
    snakes = []
    for ses, m, degrees in _stage_cases():
        for i in (j for j in degrees if j >= 1):
            for x in (ses.left, ses.right):
                chain = tensor_chain(m, x, i + 1)
                for j in (i - 1, i):
                    got, want = tor(m, x, j).sq, _homology_reference(chain, j)
                    if want is None:
                        assert got is None
                        continue
                    assert (got.z, got.b) == (want.z, want.b)
                    v = want.z.from_coords(np.random.default_rng(j).integers(0, m.p, size=(3, want.z.dim)))
                    assert np.array_equal(got.class_of(v), _class_of_reference(want, v))
            snakes.append(tor(m, ses.right, i).dim > 0 and tor(m, ses.right, i).sq.unit_classes)
            assert connecting_tor(ses, m, i) == _connecting_by_operators_reference(ses, m, i)
    assert (len(snakes), sum(snakes)) == (29, 20)  # both the unit and the general snake ran


def _dense_cochain_differential(chain, j):
    """f -> f o d_{j+1} on Hom(P, n) as the general path builds it, zero or not."""
    return chain.hom_space(j).precompose(chain.res.differential(j + 1), chain.hom_space(j + 1)).to_matrix()


def test_zero_test_reads_the_entries_as_algebra_elements():
    # the entry test against the dense d tensor id_n and the dense cochain differential
    # f -> f o d: zero over k for A2 and the group algebras, nonzero on the non-semisimple
    # Omega^1 k over F_3[C_3 x C_3] and on A3's cyclic modules.  A group algebra's entries
    # are sums such as g - 1: the basis elements they use act on k as nonzero, so no test
    # by basis elements would do
    c3c3 = make_group_algebra(C3XC3_TABLE, 3)
    groups = [make_group_algebra(klein_four_table(), 2), group_algebra_c3_f3()]
    cases = [(algebra_a2(), simple_k(algebra_a2()), True)] + [(a, simple_k(a), True) for a in groups]
    cases += [(c3c3, min_inj_resolution(simple_k(c3c3), 2).cosyzygy(1), False),
              (algebra_a3(), a3_mod_x(), False), (algebra_a3(), a3_mod_y(), False)]
    for a, n, zero in cases:
        chain, cochain = tensor_chain(simple_k(a, "right"), n, 3), ext_chain(simple_k(a), n, 3)
        for j in (1, 2, 3):
            d = chain.res.differential(j)
            assert _acts_as_zero(d, n) == _dense_differential(chain, j).is_zero() == zero
            d = cochain.res.differential(j)
            assert _acts_as_zero(d, n) == _dense_cochain_differential(cochain, j - 1).is_zero() == zero
            assert (cochain._differential(j - 1) is None) == zero
            if a in groups:
                used = np.flatnonzero(_free_block_entries(d).any(axis=(0, 1)))
                assert n.action_of(np.eye(a.dim, dtype=np.int64)[used]).any()


def _kron_tensor_differential(chain, j):
    """d_j tensor id_n as a dense matrix by the general path, kron(d_j, I) between the
    components, on free and non-free projectives alike."""
    src, tgt, p = chain.component(j), chain.component(j - 1), chain.n.p
    if src is None or tgt is None or src.dim == 0 or tgt.dim == 0:
        return Matrix.zeros(p, chain.dim(j - 1), chain.dim(j))
    full = kron(chain.res.differential(j).matrix, Matrix.identity(p, chain.n.dim))
    return Matrix(p, tgt.project(full.apply(src.lift(np.eye(src.dim, dtype=np.int64)))).T)


def _composed_cochain_differential(chain, j):
    """f -> f o d_{j+1} as a dense matrix: every coordinate map of Hom(P_j, n) made as a map,
    composed with d_{j+1} and read back in Hom(P_{j+1}, n)'s coordinates."""
    dom, cod, p = chain.hom_space(j), chain.hom_space(j + 1), chain.n.p
    if dom.dim == 0 or cod.dim == 0:
        return Matrix.zeros(p, cod.dim, dom.dim)
    maps = mulmod(dom.to_ambient(np.eye(dom.dim, dtype=np.int64)), chain.res.differential(j + 1).matrix.a, p)
    return Matrix(p, cod.coords(maps.reshape(dom.dim, -1)).T)


def _entry_form_cases():
    """(m right, m left, n): k over A1-A4 against k, A and two random modules; over T_2(F_3),
    whose projectives are not free, each simple against each simple and A; over
    F_3[C_3 x C_3], k against k and the cosyzygy Omega^{-1} k."""
    cases = []
    for a in (algebra_a1(), algebra_a2(), algebra_a3(), algebra_a4()):
        rng = np.random.default_rng(a.dim)
        ns = [simple_k(a), regular_module(a, "left")] + [random_module(a, "left", 2, rng) for _ in range(2)]
        cases += [(simple_k(a, "right"), simple_k(a), n) for n in ns]
    t2 = triangular_f3()
    for m_r, m_l in zip(simple_modules(t2, "right"), simple_modules(t2, "left")):
        cases += [(m_r, m_l, n) for n in simple_modules(t2, "left") + [regular_module(t2, "left")]]
    c3c3 = make_group_algebra(C3XC3_TABLE, 3)
    k_r, k_l = simple_k(c3c3, "right"), simple_k(c3c3)
    cases += [(k_r, k_l, n) for n in (k_l, min_inj_resolution(k_l, 2).cosyzygy(1))]
    return cases


def test_chain_homology_from_entry_form_matches_dense():
    # a chain holds each nonzero differential by its entries and eliminates its core: the
    # cycles, boundaries and classes are those of kernel_basis and image_basis of the
    # dense differentials, bit for bit, for Tor and for Ext, on free and non-free P
    built = dict.fromkeys(itertools.product(("homology", "cohomology"), (True, False)), 0)
    for m_r, m_l, n in _entry_form_cases():
        tensor, cochains = TensorChain(min_proj_resolution(m_r, 4), n), ExtChain(min_proj_resolution(m_l, 4), n)
        for chain, dense, read, step in ((tensor, _kron_tensor_differential, tensor.homology, 1),
                                         (cochains, _composed_cochain_differential, cochains.cohomology, -1)):
            for j in range(4):
                assert chain.differential(j) == dense(chain, j)
                if isinstance(chain._build(j), SparseMatrix):
                    built[read.__name__, chain.res.proj(j).free_rank is not None] += 1
            for i in range(4):
                got = read(i).sq
                if chain.dim(i) == 0:
                    assert got is None
                    continue
                z = kernel_basis(dense(chain, i))
                b = Subspace.zero(m_r.p, chain.dim(i)) if i + step < 0 else image_basis(dense(chain, i + step))
                assert (got.z, got.b) == (z, b) and np.array_equal(got.z.free, z.free)
                v = z.from_coords(np.random.default_rng(i).integers(0, m_r.p, size=(3, z.dim)))
                assert np.array_equal(got.class_of(v), _class_of_reference(Subquotient(z, b), v))
    assert all(built.values()), built  # each chain type, on free and non-free P


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


def _ext_les_cases():
    """(name, SES of left modules, m): the socle and cosyzygy SESs over A1 and A2,
    and the syzygy SESs 0 -> Omega S_n -> P(S_n) -> S_n -> 0 over T_2(F_3)."""
    a1, a2, t2 = algebra_a1(), algebra_a2(), triangular_f3()
    reg = regular_module(a2, "left")
    soc = socle(reg)
    cases = [("a1-socle", socle_ses_a1(), simple_k(a1)),
             ("a2-socle", ShortExactSeq(submodule_from_subspace(reg, soc)[1], quotient_module(reg, soc)[1]),
              simple_k(a2))]
    for name, a in (("a1", a1), ("a2", a2)):
        _, _, _, incl, proj = min_inj_resolution(simple_k(a, "left"), 2).cosyzygy_ses(1)
        cases.append((name + "-cosyzygy", ShortExactSeq(incl, proj), simple_k(a)))
    for mi in range(2):
        for ni in range(2):
            res = min_proj_resolution(simple_modules(t2, "left")[ni], 2)
            cases.append((f"t2-{mi}{ni}", ShortExactSeq(res.syzygy_incl(1), res.cover_map(0)),
                          simple_modules(t2, "left")[mi]))
    return cases


def _digest(mat: Matrix) -> str:
    a = np.ascontiguousarray(mat.a, dtype=np.int64)
    return f"{a.shape[0]}x{a.shape[1]}:" + hashlib.sha1(a.tobytes()).hexdigest()[:12]


class _SubspaceExtChain(ExtChain):
    """Hom_A(P, n) with every cochain space in the RREF basis of hom_over_algebra and
    each differential read one basis map at a time: the coordinates the pins below
    were recorded in, kept as the reference."""

    def hom_space(self, j):
        if j not in self._hom:
            self._hom[j] = hom_over_algebra(self.res.proj(j), self.n)
        return self._hom[j]

    def _build(self, j):
        d, dom, cod = self.res.differential(j + 1), self.hom_space(j), self.hom_space(j + 1)
        maps = dom.basis.a.reshape(dom.dim, self.n.dim, d.matrix.rows)
        images = [cod.coords((Matrix(d.p, f) @ d.matrix).a.reshape(-1)) for f in maps]
        return _nonzeros(d.p, np.array(images, dtype=np.int64).reshape(dom.dim, cod.dim).T)


def _class_basis_change(ec: ExtChain, ref: _SubspaceExtChain, j: int) -> Matrix:
    """H^j classes from ec's coordinates to ref's: class, representative, the cocycle as
    a map (to_ambient), its coordinates in ref's Hom space, then ref's class."""
    h = ec.cohomology(j)
    if h.dim == 0:
        return Matrix.zeros(ec.n.p, ref.cohomology(j).dim, 0)
    maps = ec.hom_space(j).to_ambient(h.sq.basis_representatives()).reshape(h.dim, -1)
    return Matrix(ec.n.p, ref.cohomology(j).class_of(ref.hom_space(j).coords(maps)).T)


def _in_recorded_coordinates(delta: Matrix, ses: ShortExactSeq, m: FdModule, j: int) -> Matrix:
    """delta: Ext^j(m, X'') -> Ext^{j+1}(m, X') conjugated into the reference chains' class coordinates."""
    left, right = (ext_chain(m, x, j + 2) for x in (ses.left, ses.right))
    ref_left, ref_right = _SubspaceExtChain(left.res, ses.left), _SubspaceExtChain(right.res, ses.right)
    to_bottom = _class_basis_change(left, ref_left, j + 1)
    to_top = _class_basis_change(right, ref_right, j)
    from_top = solve_matrix(to_top, Matrix.identity(m.p, to_top.rows))
    return to_bottom @ delta @ from_top


# the connecting matrices delta_0..delta_3, recorded with the Kronecker-system
# implementation (one hom_solve per class, pullback through kron(f, I)) in the
# class coordinates of _SubspaceExtChain
_EXT_CONNECTING = {
    "a1-socle": ["1x1:3da89ee273be"] * 4,
    "a1-cosyzygy": ["1x1:3da89ee273be"] * 4,
    "a2-socle": ["4x1:4bb780410760", "8x2:f5f204e4ff61", "16x4:391f0fc02ed7", "32x8:81c208658b5b"],
    "a2-cosyzygy": ["2x2:4bb780410760", "4x4:9eec7b8fbbde", "8x8:2915489b83cb", "16x16:de0cc27f2336"],
    "t2-00": ["1x1:3da89ee273be"] + ["0x0:da39a3ee5e6b"] * 3,
    "t2-01": ["0x0:da39a3ee5e6b", "0x1:da39a3ee5e6b", "0x0:da39a3ee5e6b", "0x0:da39a3ee5e6b"],
    "t2-10": ["0x0:da39a3ee5e6b"] * 4,
    "t2-11": ["0x1:da39a3ee5e6b"] + ["0x0:da39a3ee5e6b"] * 3,
}


def test_ext_long_exact_sequence():
    # 0 -> Ext^0(m, X') -> Ext^0(m, X) -> Ext^0(m, X'') -> Ext^1(m, X') -> ...
    for name, ses, m in _ext_les_cases():
        chains = [ext_chain(m, x, 5) for x in (ses.left, ses.middle, ses.right)]

        def induced(gmap, ca, cb, j):
            ha, hb = ca.cohomology(j), cb.cohomology(j)
            if ha.dim == 0 or hb.dim == 0:
                return Matrix.zeros(m.p, hb.dim, ha.dim)
            return hb.sq.induced_from(ha.sq, second_arg_ext_matrix(gmap, ca, cb, j))

        prev = Matrix.zeros(m.p, chains[0].cohomology(0).dim, 0)
        digests = []
        for j in range(4):
            f_j, g_j = induced(ses.f, chains[0], chains[1], j), induced(ses.g, chains[1], chains[2], j)
            delta = connecting_ext(ses, m, j)
            assert image_basis(prev) == kernel_basis(f_j), (name, j, "left")
            assert image_basis(f_j) == kernel_basis(g_j), (name, j, "middle")
            assert image_basis(g_j) == kernel_basis(delta), (name, j, "right")
            prev = delta
            digests.append(_digest(_in_recorded_coordinates(delta, ses, m, j)))
        assert digests == _EXT_CONNECTING[name], name


def _cohomology_reference(chain, j):
    """H^j from the dense cochain differentials, one kernel and one image elimination; None for a zero space."""
    if chain.dim(j) == 0:
        return None
    into = Subspace.zero(chain.n.p, chain.dim(j)) if j == 0 else image_basis(_dense_cochain_differential(chain, j - 1))
    return Subquotient(kernel_basis(_dense_cochain_differential(chain, j)), into)


def _connecting_ext_reference(ses, m, j):
    """connecting_ext as it was before it read the snake operators: the classes lifted through g
    as a dense stack of maps (hom_solve), multiplied by the dense d_{j+1}, pulled back through f
    and read in generator coordinates once the maps are checked to be the A-linear ones."""
    e_left, e_mid, e_right = (ext_chain(m, x, j + 2) for x in (ses.left, ses.middle, ses.right))
    h_top, h_bot = _cohomology_reference(e_right, j), _cohomology_reference(e_left, j + 1)
    if h_top is None or h_bot is None or h_top.dim == 0 or h_bot.dim == 0:
        return Matrix.zeros(m.p, 0 if h_bot is None else h_bot.dim, 0 if h_top is None else h_top.dim)
    k, pj, dp = h_top.dim, e_mid.res.proj(j), e_mid.res.proj(j + 1).dim
    reps = e_right.hom_space(j).to_ambient(h_top.basis_representatives())  # (k, dim right, dim P_j)
    lifted = hom_solve(pj, ses.middle, ses.g.matrix, reps)
    boundaries = mulmod(lifted, e_mid.res.differential(j + 1).matrix.a, m.p)
    pulled = ses.f_solver.solve(boundaries.transpose(1, 0, 2).reshape(ses.middle.dim, k * dp))
    assert pulled is not None
    hom, maps = e_left.hom_space(j + 1), pulled.reshape(ses.left.dim, k, dp).swapaxes(0, 1)
    coords = hom.coords(maps.reshape(k, -1))
    assert np.array_equal(hom.to_ambient(coords), maps)  # the pullbacks are A-linear
    return Matrix(m.p, _class_of_reference(h_bot, coords).T)


def _socle_plus_free_ses(a):
    """0 -> soc A -> A + A -> A/soc A + A -> 0 over a local algebra with a simple socle: on the
    free summand f -> f o d is nonzero, so the top Ext classes are not unit vectors."""
    two = free_module(a, "left", 2)
    soc = socle(regular_module(a))
    sub = Subspace(a.p, two.dim, np.hstack([soc.basis.a, np.zeros_like(soc.basis.a)]))
    return ShortExactSeq(submodule_from_subspace(two, sub)[1], quotient_module(two, sub)[1])


def _t2_two_class_case():
    """(ses, m): the syzygy sequence of a simple S over T_2(F_3), whose P_0 is not free, and m = S + S."""
    s = simple_modules(triangular_f3(), "left")[0]
    res = min_proj_resolution(s, 2)
    return ShortExactSeq(res.syzygy_incl(1), res.cover_map(0)), direct_sum([s, s])


def _spy_snakes(monkeypatch) -> list[str]:
    """Record which snake each connecting map runs: units, operators or solves."""
    ran = []
    for fn_name, path in (("_snake_on_units", "units"), ("_snake_by_operators", "operators"),
                          ("_snake_by_solves", "solves")):
        def spy(*args, _fn=getattr(derived, fn_name), _path=path):
            ran.append(_path)
            return _fn(*args)

        monkeypatch.setattr(derived, fn_name, spy)
    return ran


def test_connecting_ext_matches_the_lifted_hom_stack(monkeypatch):
    # bit for bit against the dense lifted-stack reference on the LES cases (units and two
    # solves), on free cases over A1, A3 and A4 whose top classes are not units (operators),
    # and on T_2(F_3) with two classes over a non-free P_0 (two solves)
    ran = _spy_snakes(monkeypatch)
    cases = [(name, ses, m, range(4)) for name, ses, m in _ext_les_cases()]
    cases += [(name, _socle_plus_free_ses(a), simple_k(a), range(4))
              for name, a in (("a1", algebra_a1()), ("a3", algebra_a3()), ("a4", algebra_a4()))]
    cases.append(("t2-sum", *_t2_two_class_case(), range(2)))
    paths = {}
    for name, ses, m, degrees in cases:
        for j in degrees:
            before = len(ran)
            got = connecting_ext(ses, m, j)
            assert got == _connecting_ext_reference(ses, m, j), (name, j)
            for path in ran[before:]:
                paths.setdefault(path, set()).add((name[:2], not got.is_zero()))
    assert {(alg, True) for alg in ("a1", "a3", "a4")} <= paths["operators"]
    assert ("a2", True) in paths["units"] and ("t2", True) in paths["solves"]


def test_connecting_ext_rejects_a_boundary_outside_im_f(monkeypatch):
    # with f replaced by zero, no nonzero boundary lies in im f: each path must say so
    # before its classes are read
    ran = _spy_snakes(monkeypatch)
    a2, a3 = algebra_a2(), algebra_a3()
    *_, incl, proj = min_inj_resolution(simple_k(a2, "left"), 2).cosyzygy_ses(1)
    t2_ses, t2_m = _t2_two_class_case()
    for ses, m, j, path in ((ShortExactSeq(incl, proj), simple_k(a2), 0, "units"),
                            (_socle_plus_free_ses(a3), simple_k(a3), 1, "operators"),
                            (t2_ses, t2_m, 0, "solves")):
        assert not connecting_ext(ses, m, j).is_zero() and ran[-1] == path
        broken = ShortExactSeq(ModuleMap.zero(ses.left, ses.middle), ses.g, check=False)
        with pytest.raises(RuntimeError, match="did not come from the kernel"):
            connecting_ext(broken, m, j)
        assert ran[-1] == path


# --- functoriality in the second argument -----------------------------------

def _tor_map_reference(g: ModuleMap, m: FdModule, i: int) -> Matrix:
    """Tor_i(m, g) by hand from the two tensor chains: the reference for tor_map."""
    ca, cb = tensor_chain(m, g.source, i + 1), tensor_chain(m, g.target, i + 1)
    ha, hb = ca.homology(i), cb.homology(i)
    if ha.dim == 0 or hb.dim == 0:
        return Matrix.zeros(m.p, hb.dim, ha.dim)
    amb = second_arg_tensor_matrix(g, ca.component(i), cb.component(i), ca.res.proj(i))
    return hb.sq.induced_from(ha.sq, amb)


def _ext_map_reference(g: ModuleMap, m: FdModule, j: int) -> Matrix:
    """Ext^j(m, g) by hand from the two Hom cochains: the reference for ext_map."""
    ca, cb = ext_chain(m, g.source, j + 1), ext_chain(m, g.target, j + 1)
    ha, hb = ca.cohomology(j), cb.cohomology(j)
    if ha.dim == 0 or hb.dim == 0:
        return Matrix.zeros(m.p, hb.dim, ha.dim)
    return hb.sq.induced_from(ha.sq, second_arg_ext_matrix(g, ca, cb, j))


def test_tor_map_and_ext_map_match_the_hand_built_maps():
    nonzero = set()
    for name, ses, m in _ext_les_cases():
        right_simples = simple_modules(m.algebra, "right")
        for g in (ses.f, ses.g):
            for i in range(4):
                got = ext_map(g, m, i)
                assert got == _ext_map_reference(g, m, i), (name, i, "ext")
                nonzero.add(("ext", name[:2], not got.is_zero()))
                for mr in right_simples:
                    got = tor_map(g, mr, i)
                    assert got == _tor_map_reference(g, mr, i), (name, i, "tor")
                    nonzero.add(("tor", name[:2], not got.is_zero()))
    # nonzero maps on every algebra, the non-local T_2(F_3) included
    assert {(kind, alg) for kind, alg, nz in nonzero if nz} == {
        (kind, alg) for kind in ("ext", "tor") for alg in ("a1", "a2", "t2")}


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


def test_chains_free_a_differential_once_both_its_homologies_are_known():
    # P tensor A3/(x) and Hom(P, A3/(x)) over A3, whose differentials d_j tensor id and
    # f -> f o d_{j+1} are nonzero: H_2 reads d_3 as its boundaries and keeps it for H_3,
    # which frees it; a reader then gets it rebuilt, equal to the first build and not kept again
    a3 = algebra_a3()
    tensor = TensorChain(Resolution(simple_k(a3, "right")).extend(4), a3_mod_x("left"))
    cochains = ExtChain(Resolution(simple_k(a3)).extend(4), a3_mod_x("left"))
    for chain, lo, hi, read, j in ((tensor, 2, 3, tensor.homology, 3), (cochains, 1, 2, cochains.cohomology, 1)):
        read(lo)
        kept = chain._diffs[j].to_matrix().a.copy()
        read(hi)
        assert j not in chain._diffs
        rebuilt = chain.differential(j)
        assert np.array_equal(rebuilt.a, kept) and j not in chain._diffs


def test_end_degree_drops_the_homology_made_since_the_last_call():
    a3 = algebra_a3()
    chain = TensorChain(Resolution(simple_k(a3, "right")).extend(4), a3_mod_x("left"))
    end_degree()
    h = chain.homology(2)
    assert chain.homology(2) is h
    end_degree()
    assert chain._homology == {} and 2 in chain._known
    again = chain.homology(2)
    assert again is not h and again.dim == h.dim == 1 and again.sq.z == h.sq.z and again.sq.b == h.sq.b


def test_a_reader_returns_the_space_it_made_when_a_degree_end_drops_it(monkeypatch):
    # another request's degree end may drop a space right after it is stored: the
    # reader still returns the space it made, never a second read of the dict
    import homct.derived as derived_module

    monkeypatch.setattr(derived_module, "_degree_scoped", lambda chain, i: chain.drop_homology(i))
    a3 = algebra_a3()
    chain = TensorChain(Resolution(simple_k(a3, "right")).extend(4), a3_mod_x("left"))
    assert chain.homology(2).dim == 1 and chain._homology == {}
