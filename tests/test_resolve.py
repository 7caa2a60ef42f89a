"""Tests for covers, envelopes, minimal resolutions and complete resolutions."""

import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from homct import resolve
from homct.algmod import (
    Algebra,
    FdModule,
    ModuleMap,
    _free_map_matrix,
    direct_sum,
    dual_module,
    is_isomorphic,
    make_group_algebra,
    make_monomial_quotient,
    quotient_module,
    radical_submodule,
    regular_module,
    simple_modules,
    submodule,
)
from homct.exactla import Matrix, Subspace, kernel_basis, mulmod, solve_matrix
from homct.fixtures import (
    algebra_a1,
    algebra_a2,
    algebra_a3,
    algebra_a4,
    a3_mod_x,
    fixture_algebras,
    simple_k,
)
from homct.resolve import (
    CompleteResolution,
    CompleteResolutionFailure,
    check_total_acyclicity_window,
    complete_resolution,
    detect_periodicity,
    injective_envelope,
    is_injective,
    is_projective,
    is_self_injective,
    lift_chain_map,
    min_inj_resolution,
    min_proj_resolution,
    projective_cover,
)
from homct.schemas import parse_module_file


def hom_map_from_vec(m, n, vec):
    """The map m -> n whose row-major matrix coordinates are vec."""
    return ModuleMap(m, n, Matrix(m.p, np.asarray(vec, dtype=np.int64).reshape(n.dim, m.dim)), check=False)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


# --- covers -----------------------------------------------------------------

def test_cover_of_k_over_a1():
    a1 = algebra_a1()
    k = simple_k(a1)
    cover, pi, _ = projective_cover(k)
    assert cover.dim == 2 and pi.is_surjective()
    ker = pi.kernel()
    assert ker.dim == 1 and ker.contains(np.array([0, 1]))


def test_cover_of_projective_is_identity():
    a2 = algebra_a2()
    reg = regular_module(a2, "left")
    cover, pi, _ = projective_cover(reg)
    assert cover is reg and pi.matrix == pi.matrix.identity(2, 3)


def test_cover_of_k2_over_a2():
    a2 = algebra_a2()
    k = simple_k(a2)
    k2 = direct_sum([k, k])
    cover, pi, _ = projective_cover(k2)
    assert cover.dim == 6
    assert pi.kernel().dim == 4


def test_covers_over_non_local_triangular_algebra():
    # upper triangular 2x2 over F_3: basis e11, e12, e22; two idempotents, so
    # covers are sums of the indecomposable projectives A e_t, not free modules
    struct = np.zeros((3, 3, 3), dtype=np.int64)
    for (i, j), k in {(0, 0): 0, (0, 1): 1, (1, 2): 1, (2, 2): 2}.items():
        struct[i, j, k] = 1
    a = Algebra(3, struct, [1, 0, 1])
    assert len(a.primitive_idempotents()) == 2 and a.radical().dim == 1
    # per simple: cover dim, cover matrix, resolution dims, differentials
    expected = {
        "left": [(2, [[0, 1]], [2, 1, 0], [[[1], [0]], [[]]]),
                 (1, [[1]], [1, 0, 0], [[[]], []])],
        "right": [(1, [[1]], [1, 0, 0], [[[]], []]),
                  (2, [[1, 0]], [2, 1, 0], [[[0], [1]], [[]]])],
    }
    sum_covers = {"left": [[0, 1, 0], [0, 0, 1]], "right": [[1, 0, 0], [0, 1, 0]]}
    for side, rows in expected.items():
        simples = simple_modules(a, side)
        for s, (dim, mat, dims, diffs) in zip(simples, rows):
            cover, pi, _ = projective_cover(s)
            assert cover.dim == dim and pi.matrix.to_lists() == mat
            res = min_proj_resolution(s, 2)
            assert [res.proj(k).dim for k in range(3)] == dims
            assert res.to_dict(2)["differentials"] == diffs
        reg = regular_module(a, side)
        cover, pi, _ = projective_cover(reg)
        assert cover.dim == 3 and cover is reg
        cover, pi, _ = projective_cover(direct_sum(simples))
        assert cover.dim == 3 and pi.matrix.to_lists() == sum_covers[side]
        assert pi.is_surjective() and pi.kernel().dim == 1


def _greedy_cover(m):
    """The reference: the top decomposition as it was, one rank test per candidate
    top generator, kept when the rank modulo rad m grows; returns (generators, pi)."""
    a = m.algebra
    if m.dim == 0:
        return [], Matrix.zeros(a.p, 0, 0)
    idems = a.primitive_idempotents()
    rad_m = radical_submodule(m)
    comp = rad_m.complement_cols()
    summands = []
    taken = Subspace.zero(a.p, m.dim)
    idem_actions = m.action_of(np.array(idems))
    for t in range(len(a.characters())):
        lifts = idem_actions[t][:, comp].T
        for w, red in zip(lifts, rad_m.reduce(lifts)):
            if not red.any():
                continue
            cand = taken.add(Subspace(a.p, m.dim, red.reshape(1, -1)))
            if cand.dim > taken.dim:
                summands.append((t, w))
                taken = cand
            if len(summands) == len(comp):
                break
        if len(summands) == len(comp):
            break
    orbits = np.hsplit(_free_map_matrix(m, np.array([w for _, w in summands]).T), len(comp))
    if len(idems) > 1:
        reg = regular_module(a, m.side)
        incls = [submodule(reg, [idems[t]])[1] for t, _ in summands]
        orbits = [mulmod(orbit, incl.matrix.a, a.p) for orbit, incl in zip(orbits, incls)]
    return summands, Matrix(a.p, np.hstack(orbits))


def _triangular_f3():
    """T_2(F_3), upper triangular 2x2 over F_3 on e11, e12, e22: two simples."""
    struct = np.zeros((3, 3, 3), dtype=np.int64)
    for (i, j), k in {(0, 0): 0, (0, 1): 1, (1, 2): 1, (2, 2): 2}.items():
        struct[i, j, k] = 1
    return Algebra(3, struct, [1, 0, 1])


# F_3[C_3 x C_3]: element 3i + j is (i, j)
C3XC3_TABLE = [[3 * ((g // 3 + h // 3) % 3) + (g + h) % 3 for h in range(9)] for g in range(9)]


def _twisted(m, seed):
    """m in another basis, x -> g x for a random unitriangular-product g: the top
    basis no longer splits along the idempotents, so several candidates of one
    simple type compete, and which one is kept matters."""
    p, n = m.p, m.dim
    rng = np.random.default_rng(seed)
    g = mulmod(np.tril(rng.integers(0, p, size=(n, n)), -1) + np.eye(n, dtype=np.int64),
               np.triu(rng.integers(0, p, size=(n, n)), 1) + np.eye(n, dtype=np.int64), p)
    g_inv = solve_matrix(Matrix(p, g), Matrix.identity(p, n)).a
    action = [Matrix(p, mulmod(mulmod(g, act.a, p), g_inv, p)) for act in m.action]
    return FdModule(m.algebra, m.side, n, action)


def _cover_inputs(a):
    """Per side: the simples, their direct sum, the regular module, the zero
    module, and the first syzygies of k along its minimal resolution; the
    nonzero ones also in a twisted basis."""
    for side in ("left", "right"):
        simples = simple_modules(a, side)
        res = min_proj_resolution(simples[0], 3)
        mods = [*simples, direct_sum(simples + simples[:1]), regular_module(a, side),
                *(res.syzygy(k) for k in range(1, 4))]
        yield from mods
        yield from (_twisted(m, seed) for seed, m in enumerate(mods))
        yield FdModule(a, side, 0, [Matrix.zeros(a.p, 0, 0)] * a.dim, check=False)


@pytest.mark.parametrize("name", ["a1", "a2", "a3", "a4", "t2f3", "c3c3"])
def test_cover_rank_profile_matches_greedy_reference(name):
    a = {**fixture_algebras(), "t2f3": _triangular_f3(),
         "c3c3": make_group_algebra(C3XC3_TABLE, 3)}[name]
    for m in _cover_inputs(a):
        proj, pi, ker = projective_cover(m)
        summands, ref_pi = _greedy_cover(m)
        assert ker == kernel_basis(pi.matrix) and proj.dim - ker.dim == m.dim
        if proj is m:  # projective or zero: the identity, and the reference cover is onto m
            assert pi.matrix == Matrix.identity(a.p, m.dim) and ref_pi.cols == m.dim
            assert m.dim == 0 or kernel_basis(ref_pi).dim == 0
            continue
        # the same generators in the same order give the same orbits, so the same pi
        assert pi.matrix == ref_pi and proj.dim == ref_pi.cols
        assert resolve.Resolution(m).betti(0) == len(summands)


# --- envelopes -----------------------------------------------------------------

def test_envelope_of_k_over_a1():
    a1 = algebra_a1()
    k = simple_k(a1)
    env, iota = injective_envelope(k)
    assert env.dim == 2 and iota.is_injective()
    coker, _ = quotient_module(env, iota.image())
    assert coker.dim == 1


def test_envelope_of_injective_is_identity():
    a1 = algebra_a1()
    reg = regular_module(a1, "left")  # A1 self-injective
    env, iota = injective_envelope(reg)
    assert env is reg


def test_envelope_of_k_over_a2():
    a2 = algebra_a2()
    k = simple_k(a2)
    env, iota = injective_envelope(k)
    assert env.dim == 3
    # E(k) = D(A2): socle of the dual is the dual of the top, so dim 1
    from homct.algmod import socle

    assert socle(env).dim == 1


# --- minimal projective resolutions ----------------------------------------------

def test_resolution_k_a1_periodic():
    a1 = algebra_a1()
    k = simple_k(a1)
    res = min_proj_resolution(k, 4)
    assert res.betti_table(4) == [1, 1, 1, 1, 1]
    for j in range(1, 5):
        assert is_isomorphic(res.syzygy(j), k).status == "isomorphic"


def test_resolution_projective_length_zero():
    a1 = algebra_a1()
    reg = regular_module(a1, "left")
    res = min_proj_resolution(reg, 3)
    assert res.proj(0).dim == reg.dim
    assert res.syzygy(1).dim == 0
    assert all(res.proj(k).dim == 0 for k in range(1, 4))


def test_resolution_k_a2_betti_doubling():
    a2 = algebra_a2()
    k = simple_k(a2)
    res = min_proj_resolution(k, 3)
    assert res.betti_table(3) == [1, 2, 4, 8]
    for j in range(4):
        assert res.syzygy(j).dim == 2**j if j else res.syzygy(0).dim == 1
    assert res.syzygy(1).dim == 2 and res.syzygy(2).dim == 4 and res.syzygy(3).dim == 8


def test_resolution_exactness_and_minimality():
    a3 = algebra_a3()
    k = simple_k(a3)
    res = min_proj_resolution(k, 4)
    from homct.algmod import radical_submodule
    from homct.exactla import image_basis, kernel_basis

    for j in range(1, 4):
        d_j = res.differential(j)
        d_next = res.differential(j + 1)
        assert (d_j.matrix @ d_next.matrix).is_zero()
        assert kernel_basis(d_j.matrix) == image_basis(d_next.matrix)
        assert radical_submodule(res.proj(j - 1)).contains_subspace(d_j.image())


def test_memoization_extends_in_place():
    a1 = algebra_a1()
    k = simple_k(a1)
    r1 = min_proj_resolution(k, 2)
    r2 = min_proj_resolution(k, 5)
    assert r1 is r2 and r2.depth >= 5


@pytest.mark.parametrize("method", ["proj", "cover_map", "syzygy"])
def test_negative_degree_raises(method):
    # a negative index would otherwise read a stage from the end of the list
    res = resolve.Resolution(simple_k(algebra_a2(), "right")).extend(2)
    with pytest.raises(ValueError):
        getattr(res, method)(-1)


# --- minimal injective resolutions ------------------------------------------------

def test_inj_resolution_k_a1():
    a1 = algebra_a1()
    k = simple_k(a1)
    inj = min_inj_resolution(k, 4)
    assert np.array_equal(inj.cosyzygy(0).action[0].a, k.action[0].a)
    for j in range(1, 5):
        assert is_isomorphic(inj.cosyzygy(j), k).status == "isomorphic"


def test_inj_resolution_of_injective_length_zero():
    a1 = algebra_a1()
    reg = regular_module(a1, "left")
    inj = min_inj_resolution(reg, 2)
    assert inj.space(0).dim == 2 and inj.space(1).dim == 0


def test_inj_resolution_k_a2_cosyzygies():
    a2 = algebra_a2()
    k = simple_k(a2)
    inj = min_inj_resolution(k, 2)
    om1 = inj.cosyzygy(1)
    assert om1.dim == 2
    k2 = direct_sum([k, k])
    assert is_isomorphic(om1, k2).status == "isomorphic"
    assert inj.cosyzygy(2).dim == 4


def test_cosyzygy_ses_is_exact():
    a3 = algebra_a3()
    k = simple_k(a3)
    inj = min_inj_resolution(k, 3)
    for j in range(1, 3):
        om_prev, mid, om_next, incl, proj = inj.cosyzygy_ses(j)
        assert incl.is_injective() and proj.is_surjective()
        assert incl.image() == proj.kernel()


def test_duality_intertwines_sides():
    # dim Omega^j(N) over A equals dim Omega_j(D N) over the opposite side
    a2 = algebra_a2()
    k = simple_k(a2, "left")
    inj = min_inj_resolution(k, 3)
    res = min_proj_resolution(dual_module(k), 3)
    for j in range(4):
        assert inj.cosyzygy(j).dim == res.syzygy(j).dim


# --- periodicity / self-injectivity ----------------------------------------------

def test_periodicity_k_a1():
    k = simple_k(algebra_a1())
    cert = detect_periodicity(min_proj_resolution(k, 4), 4)
    assert cert is not None and (cert.offset, cert.period) == (0, 1)
    assert cert.witness.is_isomorphism()


def test_periodicity_a3_mod_x():
    m = a3_mod_x()
    cert = detect_periodicity(min_proj_resolution(m, 4), 4)
    assert cert is not None and (cert.offset, cert.period) == (0, 1)


def test_periodicity_k_a4_period_two():
    k = simple_k(algebra_a4())
    cert = detect_periodicity(min_proj_resolution(k, 4), 4)
    assert cert is not None and (cert.offset, cert.period) == (0, 2)


def test_no_periodicity_k_a2():
    k = simple_k(algebra_a2())
    assert detect_periodicity(min_proj_resolution(k, 6), 6) is None


def test_self_injectivity_verdicts():
    assert is_self_injective(algebra_a1())[0]
    assert not is_self_injective(algebra_a2())[0]
    assert is_self_injective(algebra_a3())[0]
    assert is_self_injective(algebra_a4())[0]


def test_is_projective_is_injective():
    a1 = algebra_a1()
    assert is_projective(regular_module(a1, "left"))
    assert not is_projective(simple_k(a1))
    assert is_injective(regular_module(a1, "left"))
    a2 = algebra_a2()
    assert not is_injective(regular_module(a2, "left"))
    assert is_injective(dual_module(regular_module(a2, "right")))


# --- complete resolutions ----------------------------------------------------------

def test_complete_resolution_k_a1_splice():
    k = simple_k(algebra_a1())
    t = complete_resolution(k, 4)
    assert isinstance(t, CompleteResolution) and t.mode == "splice"
    for j in range(-4, 5):
        assert t.space(j).dim == 2
    rep = check_total_acyclicity_window(t, 3)
    assert rep.ok


def test_complete_resolution_k_a2_fails():
    k = simple_k(algebra_a2())
    t = complete_resolution(k, 5)
    assert isinstance(t, CompleteResolutionFailure)
    assert "no complete resolution certified" in t.reason


def test_complete_resolution_a3_mod_x():
    m = a3_mod_x()
    t = complete_resolution(m, 4)
    assert isinstance(t, CompleteResolution)
    for j in range(-4, 5):
        assert t.space(j).dim == 4
    rep = check_total_acyclicity_window(t, 3)
    assert rep.ok


def test_complete_resolution_k_a4():
    k = simple_k(algebra_a4())
    t = complete_resolution(k, 4)
    assert isinstance(t, CompleteResolution)
    rep = check_total_acyclicity_window(t, 3)
    assert rep.ok


def test_splice_agrees_with_projective_resolution_in_nonneg_degrees():
    k = simple_k(algebra_a3())
    t = complete_resolution(k, 3)
    res = min_proj_resolution(k, 3)
    for j in range(0, 4):
        assert t.space(j).dim == res.proj(j).dim
        if j >= 1:
            assert t.differential(j).matrix == res.differential(j).matrix


# --- comparison lifts -----------------------------------------------------------

def test_lift_module_map_commutes():
    a3 = algebra_a3()
    k = simple_k(a3)
    m = a3_mod_x()
    from homct.algmod import hom_over_algebra

    hom = hom_over_algebra(m, k)
    assert hom.dim >= 1
    f = hom_map_from_vec(m, k, hom.basis.a[0])
    res_m = min_proj_resolution(m, 3)
    res_k = min_proj_resolution(k, 3)
    phis = [Matrix(m.p, phi[0]) for phi in lift_chain_map(f.matrix.a[None], 0, 0, 3, res_m, res_k)]
    eps_m, eps_k = res_m.cover_map(0), res_k.cover_map(0)
    assert (eps_k.matrix @ phis[0]) == (f.matrix @ eps_m.matrix)
    for j in range(1, 4):
        lhs = res_k.differential(j).matrix @ phis[j]
        rhs = phis[j - 1] @ res_m.differential(j).matrix
        assert lhs == rhs


def _hom_solve_reference(source, target, post, rhs):
    """One map per call, as hom_solve solved it before it took stacks: on a free
    source by its generator images, otherwise in Hom-subspace coordinates."""
    from homct.algmod import _generator_images, hom_over_algebra

    p = post.p
    if source.free_rank is not None:
        sol = solve_matrix(post, Matrix(p, _generator_images(rhs.a, source.algebra)))
        if sol is None or not (post @ Matrix(p, _free_map_matrix(target, sol.a))) == rhs:
            raise RuntimeError("no A-linear solution")
        return _free_map_matrix(target, sol.a)
    hom = hom_over_algebra(source, target)
    posted = mulmod(post.a, hom.basis.a.reshape(hom.dim, target.dim, source.dim), p)
    sol = solve_matrix(Matrix(p, posted.reshape(hom.dim, -1).T), Matrix(p, rhs.a.reshape(-1, 1)))
    if sol is None:
        raise RuntimeError("no A-linear solution")
    return hom.from_coords(sol.a[:, 0]).reshape(target.dim, source.dim)


def _t2_left_simples():
    struct = np.zeros((3, 3, 3), dtype=np.int64)
    for (i, j), k in {(0, 0): 0, (0, 1): 1, (1, 2): 1, (2, 2): 2}.items():
        struct[i, j, k] = 1
    return simple_modules(Algebra(3, struct, [1, 0, 1]), "left")


def _lifting_problems():
    """(source, pi, rhs stack): k = 6 maps from a projective source into N, to lift through
    N's cover pi; A2 with the free source A^2, T_2(F_3) with a sum of indecomposable
    projectives (not free)."""
    from homct.algmod import free_module, hom_over_algebra

    a2 = algebra_a2()
    s0, s1 = _t2_left_simples()
    rng = np.random.default_rng(3)
    out = []
    for source, n in ((free_module(a2, "left", 2), min_proj_resolution(simple_k(a2), 2).syzygy(1)),
                      (projective_cover(direct_sum([s0, s0]))[0], direct_sum([s0, s1, s0]))):
        _, pi, _ = projective_cover(n)
        hom = hom_over_algebra(source, n)
        rhs = hom.from_coords(rng.integers(0, n.p, size=(6, hom.dim))).reshape(6, n.dim, source.dim)
        assert rhs.any()
        out.append((source, pi, rhs))
    return out


def test_stacked_hom_solve_equals_single_solves():
    free_kinds = []
    for source, pi, rhs in _lifting_problems():
        target, post = pi.source, pi.matrix
        free_kinds.append(source.free_rank is not None)
        stacked = resolve.hom_solve(source, target, post, rhs)
        singles = [resolve.hom_solve(source, target, post, r[None])[0] for r in rhs]
        assert np.array_equal(stacked, singles)
        assert np.array_equal(stacked, [_hom_solve_reference(source, target, post, Matrix(post.p, r)) for r in rhs])
        assert np.array_equal(mulmod(post.a, stacked, post.p), rhs)
    assert free_kinds == [True, False]


def test_inconsistent_rhs_raises_on_both_paths():
    from homct.algmod import hom_over_algebra

    for source, pi, rhs in _lifting_problems():
        target, post = pi.source, pi.matrix
        # add 1 at the first entry of rhs[2] where that leaves Hom_A: then no lift exists
        hom, bad = hom_over_algebra(source, pi.target), rhs.copy()
        flat = bad[2].reshape(-1)  # a view into bad
        flat[next(j for j in range(flat.size) if not hom.contains(flat + (np.arange(flat.size) == j)))] += 1
        bad %= post.p
        assert not hom.contains(bad[2].reshape(-1))
        with pytest.raises(RuntimeError, match="hom_solve"):
            resolve.hom_solve(source, target, post, bad)
        with pytest.raises(RuntimeError, match="hom_solve"):
            resolve.hom_solve(source, target, post, bad[2:3])


# The per-class lifts that lift_chain_map merged, kept as its reference: one map
# per solve (_hom_solve_reference), as lift_module_map, mu_backward and
# syzygy_map computed them before the merge.

def _lift_module_map_reference(f, res_src, res_tgt, depth):
    """The chain map [phi_0..phi_depth] between resolutions lifting f, as lift_module_map computed it."""
    eps_s, eps_t = res_src.cover_map(0), res_tgt.cover_map(0)
    phis = [Matrix(f.p, _hom_solve_reference(res_src.proj(0), res_tgt.proj(0), eps_t.matrix, f.matrix @ eps_s.matrix))]
    for j in range(1, depth + 1):
        rhs = phis[j - 1] @ res_src.differential(j).matrix
        post = res_tgt.differential(j).matrix
        phis.append(Matrix(f.p, _hom_solve_reference(res_src.proj(j), res_tgt.proj(j), post, rhs)))
    return phis


def _mu_backward_reference(f, k, i, hi, res_m, res_n):
    """The segment phi_k..phi_hi lifting f: Omega_k M -> Omega_{k-i} N, as mu_backward computed it."""
    pi_m, pi_n = res_m.cover_map(k), res_n.cover_map(k - i)
    comps = [Matrix(f.p, _hom_solve_reference(res_m.proj(k), res_n.proj(k - i), pi_n.matrix, f.matrix @ pi_m.matrix))]
    sign = 1 if i % 2 == 0 else -1
    for t in range(k + 1, hi + 1):
        rhs = (comps[-1] @ res_m.differential(t).matrix).scale(sign)
        post = res_n.differential(t - i).matrix
        comps.append(Matrix(f.p, _hom_solve_reference(res_m.proj(t), res_n.proj(t - i), post, rhs)))
    return comps


def _syzygy_map_reference(f, k):
    """Omega_k(f), as syzygy_map computed it through _lift_module_map_reference."""
    res_s, res_t = min_proj_resolution(f.source, k), min_proj_resolution(f.target, k)
    phis = _lift_module_map_reference(f, res_s, res_t, k - 1)
    mat = solve_matrix(res_t.syzygy_incl(k).matrix, phis[k - 1] @ res_s.syzygy_incl(k).matrix)
    assert mat is not None
    return mat.a


def _maps_between(m, n, seed):
    """A stack of maps m -> n: the zero map, the Hom basis and two random combinations of it."""
    from homct.algmod import hom_over_algebra

    hom = hom_over_algebra(m, n)
    coords = np.vstack([np.zeros((1, hom.dim), dtype=np.int64), np.eye(hom.dim, dtype=np.int64),
                        np.random.default_rng(seed).integers(0, m.p, size=(2, hom.dim))])
    return hom.from_coords(coords).reshape(len(coords), n.dim, m.dim)


def _lift_cases():
    """(M, N, k, i, hi): A1 and A2 at p = 2, A4 at p = 3, and T_2(F_3), whose projectives are
    sums of non-free indecomposables and vanish from degree 2 on; i even and odd."""
    s0, s1 = _t2_left_simples()
    t2 = direct_sum([s0, s1])
    cases = [(t2, t2, 0, 0, 2), (t2, t2, 1, 0, 2), (t2, t2, 1, 1, 2), (t2, direct_sum([s1, s1]), 1, 1, 2)]
    for a, params in ((algebra_a1(), [(1, 0, 3), (2, 1, 4)]),
                      (algebra_a2(), [(1, 0, 3), (2, 1, 3)]),
                      (algebra_a4(), [(1, 0, 3), (2, 1, 4), (3, 2, 4), (1, 1, 3)])):
        cases += [(simple_k(a), simple_k(a), k, i, hi) for k, i, hi in params]
    return cases


def test_lift_chain_map_matches_per_class_reference():
    nonzero, non_free, odd = 0, 0, 0
    for m, n, k, i, hi in _lift_cases():
        res_m, res_n = min_proj_resolution(m, hi + 1), min_proj_resolution(n, hi - i + 1)
        src, tgt = res_m.syzygy(k), res_n.syzygy(k - i)
        maps = _maps_between(src, tgt, k + i)
        want = [[c.a for c in _mu_backward_reference(ModuleMap(src, tgt, Matrix(m.p, f), check=False),
                                                     k, i, hi, res_m, res_n)] for f in maps]
        for rows in ([], [0], [len(maps) - 1], list(range(len(maps)))):  # no map, the zero map, one map, many
            got = lift_chain_map(maps[rows], k, i, hi, res_m, res_n)
            assert len(got) == hi - k + 1
            for t, comp in enumerate(got):
                shape = (len(rows), res_n.proj(k + t - i).dim, res_m.proj(k + t).dim)
                assert comp.shape == shape
                assert np.array_equal(comp, np.array([want[r][t] for r in rows], dtype=np.int64).reshape(shape))
        # a segment continued one degree is one more degree of its lift
        assert all(np.array_equal(x, y) for x, y in zip(
            lift_chain_map(lift_chain_map(maps, k, i, hi - 1, res_m, res_n), hi, i, hi, res_m, res_n),
            lift_chain_map(maps, k, i, hi, res_m, res_n)))
        nonzero += any(c.any() for w in want for c in w)
        non_free += res_m.proj(k).free_rank is None
        odd += i % 2 == 1 and m.p != 2 and any(c.any() for w in want for c in w[1:])
    assert nonzero >= 8 and non_free >= 3 and odd >= 2


def test_syzygy_map_and_bc_transitions_match_per_class_reference():
    from homct.cohom import bc_cotower

    s0, s1 = _t2_left_simples()
    for m, n in ((simple_k(algebra_a4()), direct_sum([simple_k(algebra_a4())] * 2)),
                 (direct_sum([s0, s1]), direct_sum([s0, s1, s0]))):
        for f in _maps_between(m, n, 5)[1:]:
            f = ModuleMap(m, n, Matrix(m.p, f), check=False)
            for k in (1, 2):
                assert np.array_equal(resolve.syzygy_map(f, k).matrix.a, _syzygy_map_reference(f, k))
    for a, i, K in ((algebra_a1(), 0, 3), (algebra_a2(), 0, 2), (algebra_a2(), 1, 3), (algebra_a4(), 1, 3),
                    (algebra_a4(), 2, 4)):
        k_ = simple_k(a)
        t = bc_cotower(k_, k_, i, K)
        res = min_proj_resolution(k_, K + 2)
        for k, g in t.maps.items():
            src, tgt = t.stages[k - t.k_min], t.stages[k + 1 - t.k_min]
            sm, sn = res.syzygy(k), res.syzygy(k - i)
            cols = [tgt.class_of(_syzygy_map_reference(ModuleMap(sm, sn, Matrix(a.p, v.reshape(sn.dim, sm.dim)),
                                                                 check=False), 1).reshape(-1))
                    for v in src.basis_representatives()]
            want = np.array(cols, dtype=np.int64).reshape(src.dim, tgt.dim).T
            assert np.array_equal(g.a, want), (a.p, i, k)


# --- the process memo -------------------------------------------------------------

def test_memo_shares_resolution_across_parsed_copies():
    path = os.path.join(FIXTURES, "a2_k_right.json")
    m1, m2 = parse_module_file(path), parse_module_file(path)
    assert m1 is not m2 and m1.algebra is not m2.algebra
    res = min_proj_resolution(m1, 2)
    assert min_proj_resolution(m2, 3) is res
    assert res.depth >= 3


def test_memo_self_injective_once_per_fingerprint(monkeypatch):
    monkeypatch.setattr(resolve, "_memo", {})
    calls = []

    def counting_envelope(m):
        calls.append(m.dim)
        return injective_envelope(m)

    monkeypatch.setattr(resolve, "injective_envelope", counting_envelope)
    a, b = (make_monomial_quotient(1, [(3,)], 3) for _ in range(2))
    assert a is not b and a.fingerprint() == b.fingerprint()
    assert is_self_injective(a) == is_self_injective(b) == is_self_injective(a)
    assert is_self_injective(a)[0]
    assert calls == [3]


def test_memo_one_entry_per_key_under_thread_contention(monkeypatch):
    # a check-then-act race without the lock would hand out distinct objects
    monkeypatch.setattr(resolve, "_memo", {})
    k_r = simple_k(algebra_a2(), "right")
    workers = 8
    barrier = threading.Barrier(workers)

    def race(_):
        barrier.wait(timeout=30)
        return min_proj_resolution(k_r, 3), is_self_injective(k_r.algebra)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = [f.result(timeout=60) for f in [pool.submit(race, j) for j in range(workers)]]
    finally:
        sys.setswitchinterval(interval)
    assert len({id(res) for res, _ in results}) == 1
    assert len({id(verdict) for _, verdict in results}) == 1
    assert results[0][0].depth >= 3 and results[0][1][0] is False


# --- lazy syzygies against the eager reference --------------------------------------


class _EagerResolution:
    """Resolution.extend before lazy syzygies: every stage induces the next syzygy at once."""

    def __init__(self, m):
        self.module = m
        self.stages = []  # (P_k, cover map, Omega_k, Omega_k -> P_{k-1})
        self.next_syzygy, self.next_incl = m, None

    def extend(self, depth):
        while len(self.stages) <= depth:
            omega = self.next_syzygy
            proj, pi, ker = projective_cover(omega)
            sub, incl_sub = resolve.submodule_from_subspace(proj, ker)
            self.stages.append((proj, pi, omega, self.next_incl))
            self.next_syzygy, self.next_incl = sub, incl_sub
        return self


def _triangular_f3():
    struct = np.zeros((3, 3, 3), dtype=np.int64)
    for (i, j), c in {(0, 0): 0, (0, 1): 1, (1, 2): 1, (2, 2): 2}.items():
        struct[i, j, c] = 1
    return Algebra(3, struct, [1, 0, 1])


def _lazy_eager_modules():
    mods = [simple_k(a, side) for a in fixture_algebras().values() for side in ("left", "right")]
    mods += [a3_mod_x("right"), *simple_modules(_triangular_f3(), "left"),
             simple_k(make_group_algebra([[i ^ j for j in range(4)] for i in range(4)], 2), "right")]
    return mods


@pytest.mark.parametrize("idx", range(len(_lazy_eager_modules())))
def test_lazy_resolution_agrees_with_eager_stage_by_stage(idx):
    m = _lazy_eager_modules()[idx]
    depth = 5
    eager = _EagerResolution(m).extend(depth)
    lazy = resolve.Resolution(m).extend(depth)
    for k, (proj, pi, omega, incl) in enumerate(eager.stages):
        assert lazy.proj(k).fingerprint() == proj.fingerprint() and lazy.proj(k).free_rank == proj.free_rank
        assert lazy.cover_map(k).matrix == pi.matrix
        assert lazy.syzygy(k).fingerprint() == omega.fingerprint()
        if k:
            assert lazy.syzygy_incl(k).matrix == incl.matrix
            assert lazy.syzygy_incl(k).source is lazy.syzygy(k)
    assert lazy.syzygy(depth + 1).fingerprint() == eager.next_syzygy.fingerprint()
    assert lazy.syzygy_incl(depth + 1).matrix == eager.next_incl.matrix
    assert lazy.depth == depth


def test_tor_over_elementary_abelian_group_of_order_32():
    # Betti numbers C(i + 4, 4) of k over F_2[(C_2)^5]
    from homct.derived import tor

    n = 32
    a = make_group_algebra([[i ^ j for j in range(n)] for i in range(n)], 2)
    k_r, k_l = simple_k(a, "right"), simple_k(a, "left")
    assert [tor(k_r, k_l, i).dim for i in range(3)] == [1, 5, 15]


def test_inj_resolution_one_instance_per_fingerprint(monkeypatch):
    monkeypatch.setattr(resolve, "_memo", {})
    path = os.path.join(FIXTURES, "a2_k_left.json")
    n1, n2 = parse_module_file(path), parse_module_file(path)
    inj = min_inj_resolution(n1, 2)
    assert min_inj_resolution(n2, 3) is inj
    # each dual is built once: spaces, cosyzygies and maps are the same objects on every call
    assert inj.space(3) is inj.space(3) and inj.cosyzygy(2) is inj.cosyzygy(2)
    assert inj.codifferential(1) is inj.codifferential(1)
    om_prev, mid, om_next, incl, proj = inj.cosyzygy_ses(2)
    assert om_prev is inj.cosyzygy(1) and mid is inj.space(1) and om_next is inj.cosyzygy(2)
    assert incl.source is om_prev and incl.target is mid and proj.source is mid and proj.target is om_next
    assert inj.augmentation() is inj.cosyzygy_incl(0)
    assert [inj.space(j).dim for j in range(4)] == [3, 6, 12, 24]


def test_inj_resolution_one_instance_under_thread_contention(monkeypatch):
    monkeypatch.setattr(resolve, "_memo", {})
    k_l = simple_k(algebra_a2(), "left")
    workers = 8
    barrier = threading.Barrier(workers)

    def race(_):
        barrier.wait(timeout=30)
        return min_inj_resolution(k_l, 3)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = [f.result(timeout=60) for f in [pool.submit(race, j) for j in range(workers)]]
    finally:
        sys.setswitchinterval(interval)
    assert len({id(inj) for inj in results}) == 1
    assert results[0]._dual_res.depth >= 3
