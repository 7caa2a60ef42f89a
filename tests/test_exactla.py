"""Unit and property tests for the F_p linear algebra substrate."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homct.exactla import (
    MAX_MODULUS,
    Matrix,
    Subquotient,
    Subspace,
    _is_prime,
    _mulmod,
    _rref_array,
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
    with pytest.raises(ValueError, match="B is not contained in Z"):
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


# --- kernels against their references ------------------------------------

def _dense_rref(a, p):
    """Reference eliminator: the dense Gauss-Jordan update of every row at each pivot."""
    r = np.array(a, dtype=np.int64) % p
    nrows, ncols = r.shape
    pivots = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        i = row + int(nz[0])
        if i != row:
            r[[row, i]] = r[[i, row]]
        inv = pow(int(r[row, col]), p - 2, p)
        r[row] = (r[row] * inv) % p
        factors = r[:, col].copy()
        factors[row] = 0
        if factors.any():
            r -= np.outer(factors, r[row])
            r %= p
        pivots.append(col)
        row += 1
    return r, pivots


def _exact_product(x, y, p):
    """x @ y mod p in Python integers (dtype=object): no overflow, no rounding."""
    prod = np.asarray(x, dtype=object).dot(np.asarray(y, dtype=object))
    return np.asarray(prod % p, dtype=np.int64).reshape(prod.shape)


LARGE_PRIMES = [2**31 - 1, 3037000493]  # 3037000493: the largest prime <= MAX_MODULUS
SWITCH_PRIME = 47453111  # float64 for inner dimension <= 4, int64 from 5 on


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 2**31 - 1]),
    st.integers(min_value=0, max_value=9),  # rows
    st.integers(min_value=0, max_value=9),  # cols
    st.integers(min_value=0, max_value=9),  # rank cap: inner dimension of the factors
    st.floats(min_value=0.0, max_value=1.0),  # density of the factors
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_rref_matches_dense_eliminator(p, rows, cols, k, density, seed):
    rng = np.random.default_rng(seed)
    left = rng.integers(0, p, size=(rows, k)) * (rng.random((rows, k)) < density)
    right = rng.integers(0, p, size=(k, cols)) * (rng.random((k, cols)) < density)
    a = _exact_product(left, right, p)  # rank <= min(rows, cols, k)
    r, pivots = _rref_array(a, p)
    ref, ref_pivots = _dense_rref(a, p)
    assert pivots == ref_pivots and len(pivots) <= min(rows, cols, k)
    assert r.dtype == np.int64 and np.array_equal(r, ref)


def test_rref_at_the_modulus_bound():
    p = LARGE_PRIMES[1]
    a = np.array([[p - 1, p - 1, 1], [p - 1, 1, p - 2], [2, p - 3, 5]], dtype=np.int64)
    r, pivots = _rref_array(a, p)
    ref, ref_pivots = _dense_rref(a, p)
    assert pivots == ref_pivots and np.array_equal(r, ref)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 7, 65521, SWITCH_PRIME, *LARGE_PRIMES]),
    st.integers(min_value=0, max_value=5),  # rows of x
    st.integers(min_value=0, max_value=8),  # inner dimension
    st.integers(min_value=0, max_value=5),  # cols of y
    st.booleans(),  # entries p - 2 or p - 1: the largest dot products, odd and even
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_mulmod_matches_exact_product(p, k, n, m, extreme, seed):
    rng = np.random.default_rng(seed)
    low = max(p - 2, 0) if extreme else 0
    x, y = rng.integers(low, p, size=(k, n)), rng.integers(low, p, size=(n, m))
    if n * (p - 1) ** 2 >= 2**63:
        with pytest.raises(OverflowError):
            _mulmod(x, y, p)
        return
    out = _mulmod(x, y, p)
    assert out.dtype == np.int64 and np.array_equal(out, _exact_product(x, y, p))
    v = x[0] if k else np.zeros(n, dtype=np.int64)  # a single vector on the left
    assert np.array_equal(_mulmod(v, y, p), _exact_product(v, y, p))


def test_switch_prime_straddles_float64_limit():
    assert 4 * (SWITCH_PRIME - 1) ** 2 < 2**53 <= 5 * (SWITCH_PRIME - 1) ** 2


# --- modulus bounds: products and eliminations fail closed ------------------

def test_square_near_int64_limit_raises():
    p = 2**31 - 1
    m = Matrix(p, np.full((3, 3), p - 1))
    with pytest.raises(OverflowError):
        m @ m  # 3 * (p - 1)^2 >= 2^63; int64 would wrap to 2147483646 instead of 3
    two = Matrix(p, np.full((2, 2), p - 1))
    assert (two @ two) == Matrix(p, np.full((2, 2), 2))


def test_modulus_past_bound_is_rejected():
    assert (MAX_MODULUS - 1) ** 2 < 2**63 <= MAX_MODULUS**2
    for p in (4294967311, 3037000507):  # 3037000507: the first prime past MAX_MODULUS
        assert _is_prime(p)
        with pytest.raises(ValueError, match="exceeds"):
            Matrix(p, [[1]])
    assert Matrix(LARGE_PRIMES[1], [[-1]]).a[0, 0] == LARGE_PRIMES[1] - 1


def test_primality_checked_once_per_modulus():
    p = 10**9 + 7
    _is_prime.cache_clear()
    for _ in range(3):
        Matrix(p, [[1]])
    info = _is_prime.cache_info()
    assert (info.misses, info.hits) == (1, 2)
