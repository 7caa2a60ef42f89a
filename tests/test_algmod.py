"""Tests for structure-constant algebras and finite-dimensional modules."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homct.algmod import (
    Algebra,
    FdModule,
    ModuleMap,
    dual_module,
    free_module,
    hom_over_algebra,
    is_isomorphic,
    make_group_algebra,
    make_monomial_quotient,
    quotient_module,
    radical,
    radical_submodule,
    regular_module,
    socle,
    stable_hom,
    submodule,
    tensor_over_algebra,
    top,
    validate_algebra,
    validate_module,
)
from homct.exactla import Matrix, Subspace
from homct.fixtures import (
    algebra_a1,
    algebra_a2,
    algebra_a3,
    algebra_a4,
    cyclic_group_table,
    fixture_algebras,
    group_algebra_c2_f2,
    group_algebra_c3_f3,
    simple_k,
)


def nilpotent_closure_ideal(a):
    """Oracle for local fixtures: span of non-invertible basis elements, closed
    under multiplication by everything (the largest nilpotent ideal there)."""
    rows = []
    for i in range(a.dim):
        e = np.zeros(a.dim, dtype=np.int64)
        e[i] = 1
        from homct.exactla import rref

        if rref(a.left_mult_matrix(e))[2] < a.dim:
            rows.append(e)
    span = Subspace(a.p, a.dim, np.array(rows, dtype=np.int64) if rows else None)
    while True:
        new_rows = list(span.basis.a)
        for i in range(a.dim):
            e = np.zeros(a.dim, dtype=np.int64)
            e[i] = 1
            for v in span.basis.a:
                new_rows.append(a.left_mult_matrix(e).apply(v))
                new_rows.append(a.right_mult_matrix(e).apply(v))
        bigger = Subspace(a.p, a.dim, np.array(new_rows, dtype=np.int64))
        if bigger.dim == span.dim:
            return span
        span = bigger


# --- algebra validation ------------------------------------------------

def test_a1_validates():
    assert validate_algebra(algebra_a1()).ok


def test_broken_associativity_reported():
    a1 = algebra_a1()
    bad = np.array(a1.structure, dtype=np.int64).copy()
    bad[1, 1, 1] = 1  # x*x = x breaks associativity with the unit untouched?
    # x*x = x is associative actually; break it properly: (x x) x != x (x x)
    bad[1, 1] = [1, 0]  # x*x = 1 makes A a field ext; assoc still ok.
    # Use a genuinely non-associative table instead:
    bad = np.zeros((2, 2, 2), dtype=np.int64)
    bad[0, 0] = [1, 0]
    bad[0, 1] = [0, 1]
    bad[1, 0] = [0, 1]
    bad[1, 1] = [1, 1]  # x*x = 1 + x over F_2: (xx)x = x + x^2 = 1, x(xx) = same...
    a = Algebra(2, bad, [1, 0], check=False)
    rep = validate_algebra(a)
    # golden-ratio style table is associative iff x^2 = 1 + x defines F_4: it does
    assert rep.ok
    bad2 = bad.copy()
    bad2[1, 1] = [1, 1]
    bad2[0, 1] = [1, 1]  # 1 * x = 1 + x breaks the unit
    a2 = Algebra(2, bad2, [1, 0], check=False)
    rep2 = validate_algebra(a2)
    assert not rep2.ok and rep2.violations


def test_prime_field_is_valid_algebra():
    f3 = make_monomial_quotient(0, [], 3)
    assert f3.dim == 1 and validate_algebra(f3).ok


def test_associativity_violation_located():
    # (e1 e1) e1 != e1 (e1 e1): e1*e1 = e2, e2*e1 = 0 but e1*e2 = 1
    struct = np.zeros((3, 3, 3), dtype=np.int64)
    struct[0, 0, 0] = struct[0, 1, 1] = struct[1, 0, 1] = 1  # e0 is the unit
    struct[0, 2, 2] = struct[2, 0, 2] = 1
    struct[1, 1, 2] = 1  # e1 e1 = e2
    struct[1, 2, 0] = 1  # e1 e2 = 1
    a = Algebra(2, struct, [1, 0, 0], check=False)
    rep = validate_algebra(a)
    assert not rep.ok
    assert "(1,1,1)" in rep.violations[0]


# --- opposite -----------------------------------------------------------

def test_opposite_commutative_is_same_table():
    a1 = algebra_a1()
    assert np.array_equal(a1.opposite().structure, a1.structure)


def test_opposite_involution_on_triangular_matrices():
    # upper triangular 2x2 over F_2: basis e11, e12, e22
    struct = np.zeros((3, 3, 3), dtype=np.int64)
    idx = {"e11": 0, "e12": 1, "e22": 2}
    prod = {
        (0, 0): [0], (0, 1): [1], (1, 2): [1], (2, 2): [2],
    }
    for (i, j), ks in prod.items():
        for k in ks:
            struct[i, j, k] = 1
    a = Algebra(2, struct, [1, 0, 1])
    opp = a.opposite()
    assert not np.array_equal(opp.structure, a.structure)
    assert np.array_equal(opp.opposite().structure, a.structure)
    assert a.opposite().opposite() is a


# --- radical ------------------------------------------------------------

def test_radical_a1_is_span_x():
    a1 = algebra_a1()
    rad = radical(a1)
    assert rad.dim == 1 and rad.contains(np.array([0, 1]))


def test_radical_of_field_is_zero():
    f3 = make_monomial_quotient(0, [], 3)
    assert radical(f3).dim == 0


def test_radical_a2_is_span_xy():
    a2 = algebra_a2()
    rad = radical(a2)
    assert rad.dim == 2
    assert rad.contains(np.array([0, 1, 0])) and rad.contains(np.array([0, 0, 1]))


@pytest.mark.parametrize("name", ["a1", "a2", "a3", "a4"])
def test_radical_matches_nilpotent_closure_on_fixtures(name):
    a = fixture_algebras()[name]
    assert radical(a) == nilpotent_closure_ideal(a)


def test_radical_semisimple_group_algebra():
    # F_3[C_2] is semisimple (|G| invertible): radical 0
    a = group_algebra_c2_f2()
    assert radical(a).dim == 1  # F_2[C_2] is NOT semisimple: rad = span{1+g}
    b = make_group_algebra(cyclic_group_table(2), 3)
    assert radical(b).dim == 0


# --- group algebras and monomial quotients --------------------------------

def test_c2_f2_isomorphic_to_a1():
    # x = g - 1 identifies F_2[C_2] with A1; verify the structure transport
    a = group_algebra_c2_f2()
    a1 = algebra_a1()
    assert a.dim == a1.dim and radical(a).dim == radical(a1).dim
    # change of basis {1, g} -> {1, g-1}: multiplication table becomes A1's
    #   (g-1)^2 = g^2 - 2g + 1 = 2 - 2g = 0 in char 2
    one = np.array([1, 0], dtype=np.int64)
    gm1 = np.array([1, 1], dtype=np.int64)  # 1 + g over F_2
    assert not a.mul(gm1, gm1).any()
    assert np.array_equal(a.mul(one, gm1), gm1)


def test_trivial_group_algebra_is_base_field():
    a = make_group_algebra([[0]], 3)
    assert a.dim == 1 and a.p == 3


def test_c3_f3_matches_truncated_polynomials():
    a = group_algebra_c3_f3()
    a4 = algebra_a4()
    assert a.dim == a4.dim == 3
    # (g-1)^3 = g^3 - 1 = 0 in char 3; radical dims agree
    assert radical(a).dim == radical(a4).dim == 2


def test_not_a_group_rejected():
    with pytest.raises(ValueError):
        make_group_algebra([[0, 1], [1, 1]], 2)


def test_monomial_quotient_dims():
    assert algebra_a1().dim == 2
    assert algebra_a2().dim == 3
    assert sorted(algebra_a2().basis_names) == ["1", "x", "y"]
    assert algebra_a3().dim == 4


def test_monomial_quotient_infinite_rejected():
    with pytest.raises(ValueError):
        make_monomial_quotient(2, [(2, 0)], 2, cutoff=64)


# --- modules ---------------------------------------------------------------

def test_regular_module_valid():
    for a in fixture_algebras().values():
        for side in ("left", "right"):
            assert validate_module(regular_module(a, side)).ok


def test_module_unit_violation_detected():
    a1 = algebra_a1()
    bad = FdModule(a1, "left", 1, [Matrix(2, [[0]]), Matrix(2, [[0]])], check=False)
    rep = validate_module(bad)
    assert not rep.ok and "unit" in rep.violations[0]


def test_simple_module_of_local_algebra():
    k = simple_k(algebra_a1())
    assert k.dim == 1 and validate_module(k).ok


def test_dual_module_swaps_socle_and_top():
    a2 = algebra_a2()
    reg = regular_module(a2, "left")
    d = dual_module(reg)
    assert d.side == "right" and d.dim == 3
    assert validate_module(d).ok
    assert socle(d).dim == top(reg)[0].dim == 1
    assert top(d)[0].dim == socle(reg).dim == 2
    dd = dual_module(d)
    assert all(np.array_equal(x.a, y.a) for x, y in zip(dd.action, reg.action))


def test_dual_preserves_dim_random():
    rng = np.random.default_rng(3)
    from homct.fixtures import seeded_corpus

    for a in (algebra_a1(), algebra_a4()):
        for m in seeded_corpus(a, "left", 5, 11):
            assert dual_module(m).dim == m.dim


# --- tensor / hom -----------------------------------------------------------

def test_tensor_k_k_over_a1():
    a1 = algebra_a1()
    k_r = simple_k(a1, "right")
    k_l = simple_k(a1, "left")
    t = tensor_over_algebra(k_r, k_l)
    assert t.dim == 1


def test_tensor_unit_law():
    for a in (algebra_a1(), algebra_a2(), algebra_a4()):
        reg_r = regular_module(a, "right")
        for n in (simple_k(a, "left"), regular_module(a, "left")):
            t = tensor_over_algebra(reg_r, n)
            assert t.dim == n.dim


def test_tensor_k_rad_a2():
    a2 = algebra_a2()
    k_r = simple_k(a2, "right")
    reg = regular_module(a2, "left")
    rad_sub, incl = submodule(reg, [np.array([0, 1, 0]), np.array([0, 0, 1])])
    assert rad_sub.dim == 2
    t = tensor_over_algebra(k_r, rad_sub)
    assert t.dim == 2


def test_free_tensor_builds_nothing_dense():
    # A^128 tensor A over A2: the dense Kronecker projection alone was 384 x 1152 int64
    m = free_module(algebra_a2(), "right", 128)
    n = regular_module(algebra_a2(), "left")
    tracemalloc.start()
    try:
        t = tensor_over_algebra(m, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.dim == 128 * 3 and peak < 2**20


def test_inconsistent_free_rank_rejected():
    a1 = algebra_a1()
    reg = regular_module(a1, "left")
    with pytest.raises(ValueError, match="free_rank"):
        FdModule(a1, "left", reg.dim, reg.action, check=False, free_rank=2)
    with pytest.raises(ValueError, match="free_rank"):
        FdModule(a1, "left", 0, [Matrix.zeros(2, 0, 0)] * a1.dim, check=False, free_rank=1)


def test_hom_free_module():
    for a in (algebra_a1(), algebra_a2()):
        reg = regular_module(a, "left")
        for n in (simple_k(a, "left"), regular_module(a, "left")):
            assert hom_over_algebra(reg, n).dim == n.dim


def test_hom_k_k_and_k_A_over_a1():
    a1 = algebra_a1()
    k = simple_k(a1)
    assert hom_over_algebra(k, k).dim == 1
    assert hom_over_algebra(k, regular_module(a1, "left")).dim == 1


def test_hom_tensor_adjunction_dims():
    # dim Hom_k(M tensor_A N, k) = dim Hom_A(N, D(M)) for fixtures
    for a in (algebra_a1(), algebra_a2()):
        m = regular_module(a, "right")
        for n in (simple_k(a, "left"), regular_module(a, "left")):
            lhs = tensor_over_algebra(m, n).dim
            rhs = hom_over_algebra(n, dual_module(m)).dim
            assert lhs == rhs


# --- socle / top / sub / quotient -------------------------------------------

def test_socle_of_regular_modules():
    assert socle(regular_module(algebra_a1(), "left")).dim == 1
    assert socle(regular_module(algebra_a2(), "left")).dim == 2
    assert socle(regular_module(algebra_a3(), "left")).dim == 1


def test_top_of_regular_is_simple():
    for a in fixture_algebras().values():
        t, proj = top(regular_module(a, "left"))
        assert t.dim == 1
        assert proj.is_surjective()


def test_submodule_generated_by_x_in_a1():
    a1 = algebra_a1()
    reg = regular_module(a1, "left")
    sub, incl = submodule(reg, [np.array([0, 1])])
    assert sub.dim == 1
    iso = is_isomorphic(sub, simple_k(a1))
    assert iso.status == "isomorphic"


def test_quotient_a1_by_socle():
    a1 = algebra_a1()
    reg = regular_module(a1, "left")
    quot, proj = quotient_module(reg, socle(reg))
    assert quot.dim == 1
    assert is_isomorphic(quot, simple_k(a1)).status == "isomorphic"


def test_submodule_generated_by_unit_is_everything():
    a2 = algebra_a2()
    reg = regular_module(a2, "left")
    sub, _ = submodule(reg, [np.array([1, 0, 0])])
    assert sub.dim == reg.dim


def test_quotient_rejects_non_submodule():
    a1 = algebra_a1()
    reg = regular_module(a1, "left")
    with pytest.raises(ValueError):
        quotient_module(reg, Subspace(2, 2, [[1, 0]]))  # span{1} not stable


def test_dim_additivity_sub_quotient():
    a3 = algebra_a3()
    reg = regular_module(a3, "left")
    rad = radical_submodule(reg)
    sub, _ = submodule(reg, list(rad.basis.a))
    quot, _ = quotient_module(reg, rad)
    assert sub.dim + quot.dim == reg.dim


# --- stable hom --------------------------------------------------------------

def test_stable_hom_k_k_a1():
    a1 = algebra_a1()
    k = simple_k(a1)
    sq = stable_hom(k, k)
    assert sq.dim == 1


def test_stable_hom_projective_source_vanishes():
    for a in (algebra_a1(), algebra_a2()):
        reg = regular_module(a, "left")
        for n in (simple_k(a, "left"), regular_module(a, "left")):
            assert stable_hom(reg, n).dim == 0


def test_stable_hom_k_k_a2():
    a2 = algebra_a2()
    k = simple_k(a2)
    assert stable_hom(k, k).dim == 1


# --- is_isomorphic ------------------------------------------------------------

def test_iso_self_identity():
    m = regular_module(algebra_a1(), "left")
    res = is_isomorphic(m, m)
    assert res.status == "isomorphic" and res.witness.is_isomorphism()


def test_iso_dim_mismatch():
    a1 = algebra_a1()
    assert is_isomorphic(simple_k(a1), regular_module(a1, "left")).status == "not_isomorphic"


def test_iso_syzygy_of_k_over_a1():
    a1 = algebra_a1()
    reg = regular_module(a1, "left")
    sub, _ = submodule(reg, [np.array([0, 1])])
    res = is_isomorphic(sub, simple_k(a1))
    assert res.status == "isomorphic"
    w = res.witness
    assert w.is_isomorphism() and w.commutes()


# --- products at every admissible prime --------------------------------------

PRIMES = [2, 3, 65521, 47453111, 2**31 - 1, 3037000493]


def _obj(x):
    return np.asarray(x, dtype=np.int64).astype(object)


def _ref_mat(x, p):
    return np.asarray(np.asarray(x, dtype=object) % p, dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(PRIMES),
    st.integers(min_value=1, max_value=4),  # dim A
    st.integers(min_value=1, max_value=4),  # dim of the module
    st.integers(min_value=1, max_value=3),  # rows of a block
    st.booleans(),  # entries p - 2 or p - 1: the largest products
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_products_match_exact_reference(p, n, d, k, extreme, seed):
    rng = np.random.default_rng(seed)
    low = max(p - 2, 0) if extreme else 0

    def rand(*shape):
        return rng.integers(low, p, size=shape)

    c = rand(n, n, n)
    a = Algebra(p, c, rand(n), check=False)
    u, v = rand(k, n), rand(k, n)
    co = _obj(c)
    # u * v = sum_{i,j} u_i v_j c[i, j]; (L_v)[k, j] = sum_i v_i c[i, j, k]
    ref_mul = [_ref_mat(np.outer(_obj(x), _obj(y)).reshape(-1).dot(co.reshape(n * n, n)), p)
               for x, y in zip(u, v)]
    ref_left = [_ref_mat(_obj(x).dot(co.reshape(n, n * n)).reshape(n, n).T, p) for x in v]
    ref_right = [_ref_mat(_obj(x).dot(co.swapaxes(0, 1).reshape(n, n * n)).reshape(n, n).T, p)
                 for x in v]
    assert np.array_equal(a.mul(u, v), np.array(ref_mul))
    assert np.array_equal(a.mul(u[0], v[0]), ref_mul[0])
    assert np.array_equal(a.left_mult_matrix(v), np.array(ref_left))
    assert a.left_mult_matrix(v[0]) == Matrix(p, ref_left[0])
    assert np.array_equal(a.right_mult_matrix(v), np.array(ref_right))
    assert a.right_mult_matrix(v[0]) == Matrix(p, ref_right[0])

    acts = rand(n, d, d)
    m = FdModule(a, "left", d, list(acts), check=False)
    ref_act = [_ref_mat(_obj(x).dot(_obj(acts).reshape(n, d * d)).reshape(d, d), p) for x in u]
    assert np.array_equal(m.action_of(u), np.array(ref_act))
    assert m.action_of(u[0]) == Matrix(p, ref_act[0])

    # actions that are powers of one matrix s commute with f = s + s^2 mod p,
    # though s f != f s over the integers
    s = _obj(rand(d, d))
    powers = [np.identity(d, dtype=np.int64).astype(object)]
    for _ in range(max(n, 2)):
        powers.append(powers[-1].dot(s) % p)
    spow = FdModule(a, "left", d, [_ref_mat(x, p) for x in powers[1:n + 1]], check=False)
    poly = ModuleMap(
        spow,
        spow,
        Matrix(p, _ref_mat(powers[1] + powers[2], p)),
        check=False,
    )
    assert poly.commutes()
    f = rand(d, d)
    other = ModuleMap(m, m, Matrix(p, f), check=False)
    truth = all(np.array_equal(_ref_mat(_obj(t).dot(_obj(f)), p), _ref_mat(_obj(f).dot(_obj(t)), p))
                for t in acts)
    assert other.commutes() == truth


def _first_violations(a):
    """The per-triple, per-element validation loop, as a reference for the messages."""
    n = a.dim
    eye = np.eye(n, dtype=np.int64)
    out = []
    triples = ((i, j, k) for i in range(n) for j in range(n) for k in range(n))
    for i, j, k in triples:
        if not np.array_equal(a.mul(a.mul(eye[i], eye[j]), eye[k]),
                              a.mul(eye[i], a.mul(eye[j], eye[k]))):
            out.append(f"associativity fails at triple ({i},{j},{k})")
            break
    for j in range(n):
        if not np.array_equal(a.mul(a.unit, eye[j]), eye[j]):
            out.append(f"unit fails on the left at basis element {j}")
            break
        if not np.array_equal(a.mul(eye[j], a.unit), eye[j]):
            out.append(f"unit fails on the right at basis element {j}")
            break
    return out


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["a1", "a2", "a3", "a4"]),
    st.integers(min_value=0, max_value=3),  # number of perturbed structure constants
    st.booleans(),  # perturb the unit
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_validate_algebra_reports_first_failure(name, flips, bad_unit, seed):
    rng = np.random.default_rng(seed)
    base = fixture_algebras()[name]
    n, p = base.dim, base.p
    c = np.array(base.structure)
    for _ in range(flips):
        c[tuple(rng.integers(0, n, size=3))] = rng.integers(0, p)
    unit = np.array(base.unit)
    if bad_unit:
        unit[rng.integers(0, n)] = rng.integers(0, p)
    a = Algebra(p, c, unit, check=False)
    rep = validate_algebra(a)
    assert rep.violations == _first_violations(a) and rep.ok == (not rep.violations)


def test_validate_module_locates_first_structure_violation():
    a1 = algebra_a1()
    x = Matrix(2, [[0, 0], [1, 0]])
    assert validate_module(FdModule(a1, "left", 2, [Matrix.identity(2, 2), x], check=False)).ok
    bad = FdModule(a1, "left", 2, [Matrix.identity(2, 2), Matrix.identity(2, 2)], check=False)
    assert validate_module(bad).violations == ["action violates structure constants at (1,1)"]


def test_frobenius_check_at_largest_prime():
    a = make_monomial_quotient(1, [(2,)], 3037000493)
    assert np.array_equal(a.mul([-1, -1], [-1, -1]), [1, 2])
    a.assert_supported()  # x^p = x checked by squaring: about 2 log2(p) products
    assert len(a.characters()) == 1
