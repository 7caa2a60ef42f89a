"""Unit and property tests for the F_p linear algebra substrate."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homct.exactla import (
    Matrix,
    Subquotient,
    Subspace,
    image_basis,
    kernel_basis,
    preimage,
    quotient_and_induced,
    quotient_projection,
    rref,
    solve,
)


def enumerate_vectors(p, n):
    for tup in itertools.product(range(p), repeat=n):
        yield np.array(tup, dtype=np.int64)


def brute_kernel(m):
    """Oracle: all vectors v with m v = 0, by exhaustive enumeration."""
    return [v for v in enumerate_vectors(m.p, m.cols) if not m.apply(v).any()]


# --- rref -------------------------------------------------------------

def test_rref_identity_f2():
    m = Matrix.identity(2, 2)
    r, pivots, rank = rref(m)
    assert r == m and pivots == [0, 1] and rank == 2


def test_rref_zero_f3():
    m = Matrix.zeros(3, 3, 3)
    r, pivots, rank = rref(m)
    assert r == m and pivots == [] and rank == 0


def test_rref_hand_reduction_f2():
    # [[1,1],[1,1]] -> [[1,1],[0,0]] by subtracting row 0 from row 1
    m = Matrix(2, [[1, 1], [1, 1]])
    r, pivots, rank = rref(m)
    assert r == Matrix(2, [[1, 1], [0, 0]])
    assert rank == 1 and pivots == [0]


# --- kernel / image ---------------------------------------------------

def test_kernel_identity_is_zero():
    assert kernel_basis(Matrix.identity(2, 3)).dim == 0


def test_kernel_zero_matrix_is_full():
    k = kernel_basis(Matrix.zeros(5, 2, 3))
    assert k.dim == 3 and k == Subspace.full(5, 3)


def test_kernel_enumeration_oracle_f2():
    m = Matrix(2, [[1, 1]])
    k = kernel_basis(m)
    vecs = brute_kernel(m)
    assert len(vecs) == 2 ** k.dim == 2
    assert all(k.contains(v) for v in vecs)
    assert k.contains(np.array([1, 1]))


def test_image_identity_full():
    assert image_basis(Matrix.identity(3, 4)) == Subspace.full(3, 4)


def test_image_zero():
    assert image_basis(Matrix.zeros(2, 3, 2)).dim == 0


def test_image_column_f2():
    s = image_basis(Matrix(2, [[1], [1]]))
    assert s.dim == 1 and s.contains(np.array([1, 1]))


# --- solve ------------------------------------------------------------

def test_solve_identity():
    v = np.array([2, 0, 1], dtype=np.int64)
    assert np.array_equal(solve(Matrix.identity(3, 3), v), v)


def test_solve_unsolvable_is_none():
    assert solve(Matrix.zeros(2, 2, 2), np.array([1, 0])) is None


def test_solve_pins_free_variables():
    x = solve(Matrix(2, [[1, 1]]), np.array([1]))
    assert np.array_equal(x, np.array([1, 0]))


# --- preimage ---------------------------------------------------------

def test_preimage_identity_returns_subspace():
    s = Subspace(2, 2, [[1, 0]])
    assert preimage(Matrix.identity(2, 2), s) == s


def test_preimage_full_target():
    s = Subspace.full(3, 2)
    assert preimage(Matrix(3, [[1, 2], [0, 1]]), s) == Subspace.full(3, 2)


def test_preimage_enumeration_oracle():
    m = Matrix(2, [[1, 0]])
    s = Subspace.zero(2, 1)
    pre = preimage(m, s)
    expected = [v for v in enumerate_vectors(2, 2) if s.contains(m.apply(v))]
    assert len(expected) == 2 ** pre.dim == 2
    assert pre.dim == 1 and pre.contains(np.array([0, 1]))


def test_preimage_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        preimage(Matrix(2, [[1, 0]]), Subspace.zero(2, 3))


# --- quotients and induced maps ---------------------------------------

def test_induced_identity_on_quotient():
    s = Subspace(2, 2, [[0, 1]])
    ind = quotient_and_induced(Matrix.identity(2, 2), s, s)
    assert ind == Matrix.identity(2, 1)


def test_induced_into_full_quotient_is_empty():
    full = Subspace.full(2, 2)
    sub = Subspace.zero(2, 2)
    ind = quotient_and_induced(Matrix.identity(2, 2), sub, full)
    assert ind.rows == 0 and ind.cols == 2


def test_induced_complement_basis_example():
    f = Matrix(2, [[1, 0], [0, 0]])
    dom_sub = Subspace(2, 2, [[0, 1]])
    ind = quotient_and_induced(f, dom_sub, Subspace(2, 2, [[0, 1]]))
    assert ind == Matrix(2, [[1]])
    # against the zero subspace the same map has matrix [[1],[0]]
    ind2 = quotient_and_induced(f, dom_sub, Subspace.zero(2, 2))
    assert ind2 == Matrix(2, [[1], [0]])


def test_induced_rejects_incompatible():
    f = Matrix.identity(2, 2)
    with pytest.raises(ValueError):
        quotient_and_induced(f, Subspace(2, 2, [[1, 0]]), Subspace.zero(2, 2))


def test_induced_composition_compatible():
    rng = np.random.default_rng(7)
    p = 3
    f = Matrix(p, rng.integers(0, p, size=(4, 4)))
    g = Matrix(p, rng.integers(0, p, size=(4, 4)))
    sub = kernel_basis(f).intersect(kernel_basis(g @ f))
    zero = Subspace.zero(p, 4)
    # f maps ker-intersection into 0-subspace? Use stable chain: sub -> f(sub)=0
    indf = quotient_and_induced(f, sub, zero)
    indg = quotient_and_induced(g, zero, zero)
    indgf = quotient_and_induced(g @ f, sub, zero)
    assert indgf == indg @ indf


# --- subquotients -----------------------------------------------------

def test_subquotient_roundtrip():
    p = 2
    z = Subspace(p, 3, [[1, 0, 0], [0, 1, 1]])
    b = Subspace(p, 3, [[1, 0, 0]])
    sq = Subquotient(z, b)
    assert sq.dim == 1
    v = np.array([1, 1, 1], dtype=np.int64)
    cls = sq.class_of(v)
    assert np.array_equal(cls, np.array([1]))
    rep = sq.representative(cls)
    assert np.array_equal(sq.class_of(rep), cls)
    assert b.contains((rep - v) % p) or z.contains((rep - v) % p)


def test_subquotient_rejects_bad_containment():
    z = Subspace(2, 2, [[1, 0]])
    b = Subspace(2, 2, [[0, 1]])
    with pytest.raises(ValueError):
        Subquotient(z, b)


# --- invariants (property tests) ---------------------------------------

matrix_strategy = st.tuples(
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=2**31 - 1),
)


def _random_matrix(p, rows, cols, seed):
    rng = np.random.default_rng(seed)
    return Matrix(p, rng.integers(0, p, size=(rows, cols)))


@settings(max_examples=120, deadline=None)
@given(matrix_strategy)
def test_rank_nullity(params):
    p, rows, cols, seed = params
    m = _random_matrix(p, rows, cols, seed)
    _, _, rank = rref(m)
    ker = kernel_basis(m)
    assert ker.dim + rank == cols
    assert not (m.a @ ker.basis.a.T % p).any()  # every kernel row v has m v = 0


@settings(max_examples=80, deadline=None)
@given(matrix_strategy, st.integers(min_value=0, max_value=2**31 - 1))
def test_solve_consistency(params, seed2):
    p, rows, cols, seed = params
    m = _random_matrix(p, rows, cols, seed)
    rng = np.random.default_rng(seed2)
    x = rng.integers(0, p, size=cols)
    b = m.apply(x)
    sol = solve(m, b)
    assert sol is not None
    assert np.array_equal(m.apply(sol), b)


@settings(max_examples=80, deadline=None)
@given(matrix_strategy, st.integers(min_value=0, max_value=2**31 - 1))
def test_rref_canonical_under_row_ops(params, seed2):
    p, rows, cols, seed = params
    m = _random_matrix(p, rows, cols, seed)
    r1, _, _ = rref(m)
    assert rref(r1)[0] == r1
    # random invertible row operation yields the same RREF
    rng = np.random.default_rng(seed2)
    while True:
        g = Matrix(p, rng.integers(0, p, size=(rows, rows)))
        if rref(g)[2] == rows:
            break
    assert rref(g @ m)[0] == r1


@settings(max_examples=60, deadline=None)
@given(matrix_strategy)
def test_preimage_of_cover_is_full(params):
    p, rows, cols, seed = params
    m = _random_matrix(p, rows, cols, seed)
    s = image_basis(m)
    assert preimage(m, s) == Subspace.full(p, cols)


# --- row blocks: every coordinate map takes a vector or a block of rows ------

block_strategy = st.tuples(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=0, max_value=6),  # ambient dimension
    st.integers(min_value=0, max_value=6),  # spanning rows of the subspace
    st.integers(min_value=0, max_value=5),  # rows of the block
    st.integers(min_value=0, max_value=2**31 - 1),
)


def _stacked(fn, rows, width):
    """Per-row reference: fn applied to each row, stacked into a (len(rows), width) block."""
    return np.array([fn(row) for row in rows], dtype=np.int64).reshape(len(rows), width)


@settings(max_examples=150, deadline=None)
@given(block_strategy)
def test_row_block_calls_match_row_by_row(params):
    p, n, gens, k, seed = params
    rng = np.random.default_rng(seed)
    s = Subspace(p, n, rng.integers(0, p, size=(gens, n)))
    comp = s.complement_cols()
    block = rng.integers(0, p, size=(k, n))
    reduced = s.reduce(block)
    assert np.array_equal(reduced, _stacked(s.reduce, block, n))
    assert s.contains((block - reduced) % p) and not reduced[:, list(s.pivots)].any()
    assert s.contains(block) == all(s.contains(row) for row in block)
    f = Matrix(p, rng.integers(0, p, size=(gens, n)))
    assert np.array_equal(f.apply(block), _stacked(f.apply, block, gens))
    # the closed-form projection against reduce(e_j) on the complement, column by column
    columns = _stacked(lambda e: s.reduce(e)[comp], np.eye(n, dtype=np.int64), len(comp))
    assert np.array_equal(quotient_projection(s).a, columns.T)
    coeffs = rng.integers(0, p, size=(k, s.dim))
    members = s.from_coords(coeffs)
    assert np.array_equal(members, _stacked(s.from_coords, coeffs, n))
    assert s.contains(members)
    assert np.array_equal(s.coords(members), _stacked(s.coords, members, s.dim))
    assert np.array_equal(s.coords(members), coeffs)
    if comp and k:
        outside = members.copy()
        outside[int(rng.integers(0, k)), comp[0]] += 1  # one row leaves: pivots stay put
        with pytest.raises(ValueError):
            s.coords(outside)
        assert not s.contains(outside)
    # Z/B with B spanned by some members of Z
    sq = Subquotient(s, Subspace(p, n, members[: k // 2]))
    classes = sq.class_of(members)
    assert np.array_equal(classes, _stacked(sq.class_of, members, sq.dim))
    cls = rng.integers(0, p, size=(k, sq.dim))
    reps = sq.representative(cls)
    assert np.array_equal(reps, _stacked(sq.representative, cls, n))
    assert s.contains(reps) and np.array_equal(sq.class_of(reps), cls)
    assert np.array_equal(sq.basis_representatives(),
                          _stacked(sq.representative, np.eye(sq.dim, dtype=np.int64), n))
