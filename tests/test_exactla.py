"""Unit and property tests for the F_p linear algebra substrate."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homct import exactla
from homct.exactla import (
    _LOOP_MAX_ENTRIES,
    MAX_MODULUS,
    Matrix,
    Solver,
    SparseMatrix,
    Subquotient,
    Subspace,
    _UPDATE_ENTRIES,
    _is_prime,
    _reduce,
    _rref_array,
    image_basis,
    kernel_basis,
    matpow,
    mulmod,
    preimage,
    quotient_and_induced,
    quotient_projection,
    reduced,
    rref,
    solve,
    solve_matrix,
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


@pytest.mark.parametrize("p", [2, 3, 7, 2**31 - 1])
def test_full_and_zero_equal_their_eliminated_versions(p):
    # both are built as the RREF they are, with no elimination
    for n in range(6):
        full, zero = Subspace.full(p, n), Subspace.zero(p, n)
        assert full == Subspace(p, n, np.eye(n, dtype=np.int64)) and full.pivots == tuple(range(n))
        assert zero == Subspace(p, n) and zero.pivots == ()
        assert full.basis.a.shape == (n, n) and zero.basis.a.shape == (0, n)


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



# --- the solver against the augmented elimination ---------------------------

def _solve_matrix_reference(m, rhs):
    """solve_matrix as it was before ``Solver``: one elimination of the augmented [m | rhs]."""
    n = m.cols
    r, pivots = _rref_array(np.hstack([m.a, rhs.a]), m.p)
    main = [c for c in pivots if c < n]
    if len(main) < len(pivots) or r[len(main):, n:].any():
        return None
    x = np.zeros((n, rhs.cols), dtype=np.int64)
    x[main] = r[: len(main), n:]
    return Matrix(m.p, x)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 2**31 - 1]),
    st.integers(min_value=0, max_value=9),  # rows
    st.integers(min_value=0, max_value=9),  # cols
    st.integers(min_value=0, max_value=9),  # rank cap
    st.integers(min_value=0, max_value=14),  # consistent columns: rhs may be wider than m
    st.integers(min_value=0, max_value=2),  # random columns, inconsistent unless m has full row rank
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_solver_matches_augmented_elimination(p, rows, cols, k, width, noise, seed):
    rng = np.random.default_rng(seed)
    m = Matrix(p, _exact_product(rng.integers(0, p, size=(rows, k)), rng.integers(0, p, size=(k, cols)), p))
    images = _exact_product(m.a, rng.integers(0, p, size=(cols, width)), p)
    rhs = Matrix(p, np.hstack([images, rng.integers(0, p, size=(rows, noise))])[:, rng.permutation(width + noise)])
    want = _solve_matrix_reference(m, rhs)
    solver = Solver(m)
    got = solver.solve(rhs.a)
    assert solve_matrix(m, rhs) == want
    assert (got is None) == (want is None) == (not solver.consistent(rhs.a))
    assert got is None or np.array_equal(got, want.a)
    # T m = rref(m), and the section gives the pinned solution of every consistent rhs
    red, pivots, rank = rref(m)
    assert solver.pivots == pivots and solver.rank == rank
    assert np.array_equal(mulmod(solver.transform, m.a, p), red.a)
    assert np.array_equal(mulmod(solver.section(), images, p), _solve_matrix_reference(m, Matrix(p, images)).a)


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_solver_zero_size_systems(p):
    for rows, cols in ((0, 0), (0, 3), (3, 0)):
        m = Matrix.zeros(p, rows, cols)
        for rhs in (np.zeros((rows, 2), dtype=np.int64), np.ones((rows, 2), dtype=np.int64)):
            want = _solve_matrix_reference(m, Matrix(p, rhs))
            got = solve_matrix(m, Matrix(p, rhs))
            assert got == want and (got is None) == (rows > 0 and rhs.any())


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
    # exact for every inner size: past inner * (p-1)^2 >= 2^63 the int64 path
    # runs in inner blocks (one column per block at 3037000493)
    out = mulmod(x, y, p)
    assert out.dtype == np.int64 and np.array_equal(out, _exact_product(x, y, p))
    v = x[0] if k else np.zeros(n, dtype=np.int64)  # a single vector on the left
    assert np.array_equal(mulmod(v, y, p), _exact_product(v, y, p))


def test_switch_prime_straddles_float64_limit():
    assert 4 * (SWITCH_PRIME - 1) ** 2 < 2**53 <= 5 * (SWITCH_PRIME - 1) ** 2


# --- modulus bounds: products and eliminations fail closed ------------------

def test_square_near_int64_limit_is_exact():
    p = 2**31 - 1
    m = Matrix(p, np.full((3, 3), p - 1))
    # 3 * (p - 1)^2 >= 2^63: one int64 product would wrap to 2147483646
    assert (m @ m) == Matrix(p, np.full((3, 3), 3))
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


@pytest.mark.parametrize("q", [4, 9, 32, 243])
@pytest.mark.parametrize("e", [0, 1, 2, 5, 16])
def test_matpow_matches_object_power(q, e):
    # composite moduli: the radical chain raises to p^j modulo p^(j+1)
    rng = np.random.default_rng(q * 17 + e)
    stack = rng.integers(0, q, size=(3, 5, 5))
    before = stack.copy()
    for x in (stack, stack[0]):
        ref = np.broadcast_to(np.eye(5, dtype=object), x.shape)
        for _ in range(e):
            ref = (ref @ x.astype(object)) % q
        out = matpow(x, e, q)
        assert out.dtype == np.int64 and np.array_equal(out, ref.astype(np.int64))
    assert np.array_equal(stack, before)  # the input is not overwritten


# --- the lead-batched eliminator, above the loop's size limit ---------------

ELIM_PRIMES = [2, 3, 2**31 - 1, 3037000493]


def _chain_blocks(n, p, rng):
    """Block diagonal (prefix sums of e_0..e_{n-1}) + (bidiagonal chain), 2n x 2n.

    Prefix sums s_j = e_0 + ... + e_j, in order: every round makes one pivot
    e_t and leaves all later rows leading in column t + 1, so n - 1 rounds
    update rows.  Chain rows e_i + c_i e_{i+1} are the pivots of their
    columns from the first round on, and row i is final only after row i + 1:
    n - 1 back-substitution levels clear their rows.
    """
    a = np.zeros((2 * n, 2 * n), dtype=np.int64)
    a[:n, :n] = np.tril(np.ones((n, n), dtype=np.int64)) * rng.integers(1, p, size=(n, 1))
    idx = np.arange(n, 2 * n)
    a[idx, idx] = rng.integers(1, p, size=n)
    a[idx[:-1], idx[1:]] = rng.integers(1, p, size=n - 1)
    return a


def _structured_matrix(kind, p, rng):
    """A matrix of more than _LOOP_MAX_ENTRIES entries, shaped like homct's inputs."""
    if kind == "kron":  # id_P tensor g on a free P = A^b, as the Tor towers build it
        shape = tuple(rng.integers(2, 9, size=2))
        g = rng.integers(0, p, size=shape) * (rng.random(shape) < 0.4)
        b = math.isqrt(_LOOP_MAX_ENTRIES // g.size) + int(rng.integers(1, 4))
        a = np.kron(np.eye(b, dtype=np.int64), g)
    elif kind == "echelon":  # echelon rows of random rank, with combinations of them
        cols, rank = int(rng.integers(60, 90)), int(rng.integers(1, 60))
        piv = np.sort(rng.choice(cols, size=rank, replace=False))
        a = rng.integers(0, p, size=(rank, cols)) * (rng.random((rank, cols)) < 0.1)
        a[np.arange(rank), piv] = rng.integers(1, p, size=rank)
        a[np.arange(cols) < piv[:, None]] = 0
        extra = max(_LOOP_MAX_ENTRIES // cols + 1 - rank, 0) + int(rng.integers(0, 20))
        combos = rng.integers(0, p, size=(extra, rank)) * (rng.random((extra, rank)) < 0.3)
        a = np.vstack([a, _exact_product(combos, a, p)])
    elif kind == "chain":
        a = _chain_blocks(int(rng.integers(33, 45)), p, rng)
    elif kind == "wide":  # dense and wide: the RREF is dense right of its pivots
        rows = int(rng.integers(20, 50))
        a = rng.integers(0, p, size=(rows, _LOOP_MAX_ENTRIES // rows + int(rng.integers(1, 60))))
    else:  # rank 0
        a = np.zeros((int(rng.integers(65, 90)), 64), dtype=np.int64)
    dup = a[rng.integers(0, a.shape[0], size=int(rng.integers(0, 8)))]  # duplicated rows
    a = np.vstack([a, dup, np.zeros((int(rng.integers(0, 5)), a.shape[1]), dtype=np.int64)])
    a = np.insert(a, rng.integers(0, a.shape[1] + 1, size=int(rng.integers(0, 5))), 0, axis=1)
    return a[rng.permutation(a.shape[0])]


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(ELIM_PRIMES),
    st.sampled_from(["kron", "echelon", "chain", "wide", "zero"]),
    st.booleans(),  # entries shifted by multiples of p: negative, >= p, or p on a zero row
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_batched_rref_matches_dense_eliminator(p, kind, unreduced, seed):
    rng = np.random.default_rng(seed)
    a = _structured_matrix(kind, p, rng)
    assert a.size > _LOOP_MAX_ENTRIES
    if unreduced:
        a += p * rng.integers(-1, 3, size=a.shape) * (rng.random(a.shape) < 0.05)
    r, pivots = _rref_array(a, p)
    ref, ref_pivots = _dense_rref(a, p)
    assert pivots == ref_pivots and r.dtype == np.int64 and np.array_equal(r, ref)
    if kind == "zero":
        assert pivots == [] and not r.any()


@pytest.mark.parametrize("p", ELIM_PRIMES)
def test_batched_rref_runs_several_rounds_and_levels(p, monkeypatch):
    # the test counts them: one _reduce_rows call per round that updates rows
    # (a single block below _UPDATE_ENTRIES), one _clear call per level
    # (no stall, so no flush; full rank, so no product over free columns)
    n = 40
    a = _chain_blocks(n, p, np.random.default_rng(p % 1000))
    calls = {"_reduce_rows": 0, "_clear": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(exactla, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(exactla, name, counted)
    r, pivots = _rref_array(a, p)
    assert calls == {"_reduce_rows": n - 1, "_clear": n - 1}
    ref, ref_pivots = _dense_rref(a, p)
    assert pivots == ref_pivots == list(range(2 * n)) and np.array_equal(r, ref)


@pytest.mark.parametrize("p", ELIM_PRIMES)
def test_batched_rref_stall_flush_matches_dense_eliminator(p, monkeypatch):
    # 200 sparse combinations of 40 sparse rows in 120 columns: after the first
    # round most rows lead in columns that already have a pivot, so the rounds
    # stall, and _flush (spied) clears the live rows of all pivots at once
    rng = np.random.default_rng(p % 1000)
    basis = rng.integers(0, p, size=(40, 120)) * (rng.random((40, 120)) < 0.08)
    mix = rng.integers(0, p, size=(200, 40)) * (rng.random((200, 40)) < 0.1)
    a = np.vstack([exactla.mulmod(mix % p, basis % p, p), basis])[rng.permutation(240)]
    stalled = []

    def spy(*args, _fn=exactla._flush):
        stalled.append(args[1].size)
        return _fn(*args)

    monkeypatch.setattr(exactla, "_flush", spy)
    r, pivots = _rref_array(a, p)
    assert stalled
    ref, ref_pivots = _dense_rref(a, p)
    assert pivots == ref_pivots and np.array_equal(r, ref)


@pytest.mark.parametrize("shape, path", [((64, 64), "_rref_loop"), ((64, 65), "_rref_rounds")])
def test_rref_switch_sides(shape, path, monkeypatch):
    # 64 x 64 = _LOOP_MAX_ENTRIES entries stays in the loop; one more column goes to the rounds
    rng = np.random.default_rng(shape[1])
    a = rng.integers(0, 3, size=shape) * (rng.random(shape) < 0.05)
    a[5] = a[3]  # a duplicated row
    used = []
    for name in ("_rref_loop", "_rref_rounds"):
        def spy(*args, _name=name, _fn=getattr(exactla, name)):
            used.append(_name)
            return _fn(*args)
        monkeypatch.setattr(exactla, name, spy)
    r, pivots = _rref_array(a, 3)
    assert used == [path]
    ref, ref_pivots = _dense_rref(a, 3)
    assert pivots == ref_pivots and np.array_equal(r, ref)


def test_batched_rref_memory_peak():
    # sparse 2016 x 960 at p = 2, 3 nonzeros per row, a third of the rows zero:
    # the rounds free their core before allocating the output and update rows
    # in blocks, so no second full-size buffer is held
    rng = np.random.default_rng(0)
    a = np.zeros((2016, 960), dtype=np.int64)
    for i in range(2016):
        a[i, rng.choice(960, size=3, replace=False)] = 1
    a[rng.choice(2016, size=672, replace=False)] = 0
    tracemalloc.start()
    try:
        r, pivots = _rref_array(a, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * r.nbytes
    # the first rounds update more rows than one block of _UPDATE_ENTRIES holds
    ref, ref_pivots = exactla._rref_loop(a, 2)
    assert pivots == ref_pivots and np.array_equal(r, ref)


# --- one-pass kernel basis ---------------------------------------------------

KERNEL_PRIMES = [2, 3, 5, 3037000493]


def _two_pass_kernel(a, p):
    """The reference: null rows of the RREF, canonicalised by a second elimination."""
    return Subspace(p, a.shape[1], exactla._null_rows(*_rref_array(a, p), p))


def _assert_kernel_matches_two_pass(a, p):
    k = kernel_basis(Matrix(p, a))
    ref = _two_pass_kernel(Matrix(p, a).a, p)
    assert k.pivots == ref.pivots and k.ambient_dim == ref.ambient_dim == a.shape[1]
    assert k.basis.a.dtype == np.int64 and k.basis.a.shape == ref.basis.a.shape
    assert np.array_equal(k.basis.a, ref.basis.a)
    assert not mulmod(Matrix(p, a).a, k.basis.a.T, p).any()


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(KERNEL_PRIMES),
    st.integers(min_value=0, max_value=10),  # rows
    st.integers(min_value=0, max_value=10),  # cols
    st.integers(min_value=0, max_value=10),  # rank cap
    st.floats(min_value=0.0, max_value=1.0),  # density of the factors
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_kernel_basis_matches_two_pass(p, rows, cols, k, density, seed):
    rng = np.random.default_rng(seed)
    left = rng.integers(0, p, size=(rows, k)) * (rng.random((rows, k)) < density)
    right = rng.integers(0, p, size=(k, cols)) * (rng.random((k, cols)) < density)
    _assert_kernel_matches_two_pass(_exact_product(left, right, p), p)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(KERNEL_PRIMES),
    st.sampled_from(["kron", "echelon", "chain", "wide", "zero"]),
    st.booleans(),  # transposed: the kernel of a tall matrix is small, of a wide one large
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_kernel_basis_matches_two_pass_batched(p, kind, transposed, seed):
    a = _structured_matrix(kind, p, np.random.default_rng(seed))
    assert a.size > _LOOP_MAX_ENTRIES
    _assert_kernel_matches_two_pass(a.T.copy() if transposed else a, p)


def _pinned_kernel_inputs(p):
    rng = np.random.default_rng(p % 1000)
    sparse = rng.integers(0, p, size=(64, 65)) * (rng.random((64, 65)) < 0.05)
    return {
        "0x0": np.zeros((0, 0), dtype=np.int64),
        "0 rows": np.zeros((0, 5), dtype=np.int64),
        "0 cols": np.zeros((5, 0), dtype=np.int64),
        "zero": np.zeros((4, 6), dtype=np.int64),
        "identity": np.eye(5, dtype=np.int64),
        "full row rank": np.hstack([np.eye(3, dtype=np.int64), rng.integers(0, p, size=(3, 4))]),
        "full column rank": np.vstack([np.eye(4, dtype=np.int64), rng.integers(0, p, size=(3, 4))]),
        "loop, 64x64": sparse[:, :64],  # _LOOP_MAX_ENTRIES entries: the loop
        "rounds, 64x65": sparse,  # one column more: the rounds
        "rounds, zero 70x70": np.zeros((70, 70), dtype=np.int64),
        "rounds, full rank 70x70": np.triu(rng.integers(1, p, size=(70, 70)))[rng.permutation(70)],
    }


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_kernel_basis_pinned_shapes(p, monkeypatch):
    used = []
    for name in ("_rref_loop", "_rref_rounds"):
        def spy(*args, _name=name, _fn=getattr(exactla, name)):
            used.append(_name)
            return _fn(*args)
        monkeypatch.setattr(exactla, name, spy)
    for name, a in _pinned_kernel_inputs(p).items():
        used.clear()
        _assert_kernel_matches_two_pass(a, p)
        assert used[0] == ("_rref_rounds" if name.startswith("rounds") else "_rref_loop"), name
    zero = kernel_basis(Matrix(p, np.zeros((4, 6), dtype=np.int64)))
    assert zero == Subspace.full(p, 6) and zero.pivots == tuple(range(6))
    assert kernel_basis(Matrix.identity(p, 5)).dim == 0


def test_kernel_basis_eliminates_once(monkeypatch):
    calls = []

    def counted(a, p, _fn=exactla._rref_array):
        calls.append(a.shape)
        return _fn(a, p)

    monkeypatch.setattr(exactla, "_rref_array", counted)
    k = kernel_basis(Matrix(3, [[1, 2, 0, 1], [0, 0, 1, 2]]))
    # free columns of the column-reversed elimination (pivots 3 and 2 of m)
    assert calls == [(2, 4)] and k.pivots == (0, 1)
    assert k.basis.to_lists() == [[1, 0, 2, 2], [0, 1, 1, 1]]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(KERNEL_PRIMES),
    st.integers(min_value=0, max_value=9),  # ambient dimension
    st.integers(min_value=0, max_value=6),  # spanning rows of Z
    st.integers(min_value=0, max_value=6),  # rows of B, combinations of Z's
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_subquotient_boundary_coordinates_need_no_elimination(p, n, zr, br, seed):
    # B's RREF basis in Z-coordinates, taken as an RREF as it stands, equals the
    # eliminated one: the rows lead at pivots of Z
    rng = np.random.default_rng(seed)
    z = Subspace(p, n, rng.integers(0, p, size=(zr, n)))
    b = Subspace(p, n, z.from_coords(rng.integers(0, p, size=(br, z.dim))))
    sq = Subquotient(z, b)
    ref = Subspace(p, z.dim, z.coords(b.basis.a))
    assert sq._b_in_z.pivots == ref.pivots and np.array_equal(sq._b_in_z.basis.a, ref.basis.a)
    assert sq.dim == z.dim - b.dim


# --- reduction mod p: only where values can leave [0, p) ----------------------

REDUCE_MODULI = [2, 3, 4, 8, 9, 2**31 - 1, 3037000493]
INT64 = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=2**62 - 2**10, max_value=2**62 + 2**10),
    st.integers(min_value=-(2**62) - 2**10, max_value=-(2**62) + 2**10),
    st.integers(min_value=-20, max_value=20),
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(REDUCE_MODULI),
    st.lists(st.lists(INT64, min_size=3, max_size=3), min_size=0, max_size=6),
)
def test_reduce_matches_np_mod(p, rows):
    a = np.array(rows, dtype=np.int64).reshape(-1, 3)
    ref = np.mod(a, p)
    out = _reduce(a, p)
    assert out is a and np.array_equal(a, ref)  # in place
    assert np.array_equal(reduced(ref - p, p), ref) and reduced(ref, p) is ref


@pytest.mark.parametrize("p", [2, 3, 3037000493])
def test_reduce_in_blocks_and_on_views(p):
    rng = np.random.default_rng(p)
    big = rng.integers(-(2**63), 2**63 - 1, size=(1000, 3 * _UPDATE_ENTRIES // 1000), dtype=np.int64)
    ref = np.mod(big, p)
    _reduce(big.T, p)  # more than _UPDATE_ENTRIES entries, reduced through a transposed view
    assert np.array_equal(big, ref)
    row = rng.integers(-(2**63), 2**63 - 1, size=(1, 3 * _UPDATE_ENTRIES), dtype=np.int64)
    before = row.copy()
    _reduce(row[:, ::2], p)  # one long strided row: the even entries only
    assert np.array_equal(row[:, ::2], np.mod(before[:, ::2], p))
    assert np.array_equal(row[:, 1::2], before[:, 1::2])


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_matrix_reduces_copies_and_freezes_its_entries(p):
    for src in (np.array([[-1, p, 2 * p + 1], [-(2**62), 2**62, 0]], dtype=np.int64),
                np.arange(6, dtype=np.int64).reshape(2, 3) % p,  # in range already
                np.arange(12, dtype=np.int64).reshape(3, 4).T):  # a view, column-major
        m = Matrix(p, src)
        assert np.array_equal(m.a, np.mod(src, p)) and not np.shares_memory(m.a, src)
        with pytest.raises(ValueError):
            m.a[0, 0] = 1
    lists = [[-1, p + 1], [p - 1, -p]]
    assert np.array_equal(Matrix(p, lists).a, np.mod(np.array(lists), p))
    m = Matrix(p, [[1, 2]])
    assert np.array_equal(m.apply([-1, p + 3]), np.mod([-1 + 2 * (p + 3)], p))


# --- compact subspaces against the full-basis reference -------------------------

class FullSubspace:
    """Reference: a subspace stored as its full dim x n RREF basis, every map through it."""

    def __init__(self, p, n, rows=None):
        arr = np.zeros(0, dtype=np.int64) if rows is None else np.asarray(rows, dtype=np.int64)
        red, piv = _rref_array(arr.reshape(-1, n) % p if arr.size else np.zeros((0, n), dtype=np.int64), p)
        self.p, self.n, self.basis, self.pivots = p, n, red[: len(piv)], tuple(piv)
        self.comp = [j for j in range(n) if j not in set(piv)]

    @property
    def dim(self):
        return len(self.pivots)

    def reduce(self, v):
        w = np.asarray(v, dtype=np.int64) % self.p
        return (w - mulmod(w[..., list(self.pivots)], self.basis, self.p)) % self.p

    def contains(self, v):
        return not self.reduce(v).any()

    def coords(self, v):
        w = np.asarray(v, dtype=np.int64) % self.p
        c = w[..., list(self.pivots)]
        if (mulmod(c, self.basis, self.p) != w).any():
            raise ValueError("vector not in subspace")
        return c

    def from_coords(self, c):
        return mulmod(np.asarray(c, dtype=np.int64) % self.p, self.basis, self.p)

    def add(self, other):
        return FullSubspace(self.p, self.n, np.vstack([self.basis, other.basis]))


def _ref_kernel(a, p):
    """Null rows of the RREF, canonicalised by a second elimination."""
    return FullSubspace(p, a.shape[1], exactla._null_rows(*_rref_array(a % p, p), p))


def _ref_annihilator(s):
    return FullSubspace(s.p, s.n, np.eye(s.n, dtype=np.int64)) if s.dim == 0 else _ref_kernel(s.basis, s.p)


def _ref_intersect(s, t):
    return _ref_kernel(np.vstack([_ref_annihilator(s).basis, _ref_annihilator(t).basis]), s.p)


def _ref_preimage(m, s):
    ann = _ref_annihilator(s)
    if ann.dim == 0:
        return FullSubspace(s.p, m.cols, np.eye(m.cols, dtype=np.int64))
    return _ref_kernel(mulmod(ann.basis, m.a, s.p), s.p)


def _ref_induced(f, dom, cod):
    if not cod.contains(f.apply(dom.basis)):
        raise ValueError("not submodule-compatible")
    return cod.reduce(f.a[:, dom.comp].T)[:, cod.comp].T


def _ref_subquotient(z, b):
    """(class_of, representative, basis representatives) of Z/B through the full bases."""
    b_in_z = FullSubspace(z.p, z.dim, z.coords(b.basis))
    reps = z.basis[b_in_z.comp]
    return (lambda v: b_in_z.reduce(z.coords(v))[..., b_in_z.comp],
            lambda cls: mulmod(np.asarray(cls, dtype=np.int64) % z.p, reps, z.p), reps)


def _same(s, ref):
    return (s.pivots == ref.pivots and s.dim == ref.dim and s.ambient_dim == ref.n
            and np.array_equal(s.basis.a, ref.basis) and s.complement_cols() == ref.comp)


COMPACT_PRIMES = [2, 3, 2**31 - 1, 3037000493]


@st.composite
def subspace_rows(draw, p, n):
    """Spanning rows of a subspace of F_p^n: zero, full, or a random rank."""
    kind = draw(st.sampled_from(["zero", "full", "random", "random"]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros((draw(st.integers(0, 2)), n), dtype=np.int64)
    if kind == "full":
        return np.vstack([np.eye(n, dtype=np.int64), rng.integers(0, p, size=(1, n))])
    r = draw(st.integers(0, n))
    mix = rng.integers(0, p, size=(draw(st.integers(0, n + 1)), r))
    return mulmod(mix, rng.integers(0, p, size=(r, n)), p) if r else np.zeros((mix.shape[0], n), dtype=np.int64)


@st.composite
def compact_cases(draw):
    p = draw(st.sampled_from(COMPACT_PRIMES))
    n = draw(st.integers(0, 7))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return p, n, draw(subspace_rows(p, n)), draw(subspace_rows(p, n)), seed


@settings(max_examples=250, deadline=None)
@given(compact_cases())
def test_compact_subspace_matches_full_basis(case):
    p, n, rows, other_rows, seed = case
    rng = np.random.default_rng(seed)
    s, ref = Subspace(p, n, rows), FullSubspace(p, n, rows)
    t, ref_t = Subspace(p, n, other_rows), FullSubspace(p, n, other_rows)
    assert _same(s, ref) and _same(t, ref_t)
    assert s.block.shape == (s.dim, n - s.dim)
    # equality and hash follow the canonical basis
    again = Subspace(p, n, s.basis.a)
    assert s == again and hash(s) == hash(again)
    assert (s == t) == (ref.pivots == ref_t.pivots and np.array_equal(ref.basis, ref_t.basis))
    for k in (None, 0, 1, 4):  # one vector, and row blocks
        shape = (n,) if k is None else (k, n)
        v = rng.integers(-p, 2 * p, size=shape)
        assert np.array_equal(s.reduce(v), ref.reduce(v))
        assert s.contains(v) == ref.contains(v)
        c = rng.integers(0, p, size=shape[:-1] + (s.dim,))
        members = s.from_coords(c)
        assert np.array_equal(members, ref.from_coords(c))
        assert s.contains(members) and np.array_equal(s.coords(members), ref.coords(members))
        if ref.contains(v):
            assert np.array_equal(s.coords(v), ref.coords(v))
        else:
            with pytest.raises(ValueError):
                s.coords(v)
    assert _same(s.add(t), ref.add(ref_t))
    assert _same(s.intersect(t), _ref_intersect(ref, ref_t))
    assert _same(exactla.annihilator(s), _ref_annihilator(ref))
    assert s.contains_subspace(t) == ref.contains(ref_t.basis)
    # maps: preimage of t under f, and the map induced on s -> f(s) + t
    m_dim = int(rng.integers(0, 6))
    f = Matrix(p, rng.integers(0, p, size=(n, m_dim)))
    assert _same(preimage(f, t), _ref_preimage(f, ref_t))
    g = Matrix(p, rng.integers(0, p, size=(m_dim, n)))
    cod_rows = np.vstack([g.apply(ref.basis), rng.integers(0, p, size=(1, m_dim))])
    cod, ref_cod = Subspace(p, m_dim, cod_rows), FullSubspace(p, m_dim, cod_rows)
    assert np.array_equal(quotient_and_induced(g, s, cod).a, _ref_induced(g, ref, ref_cod) % p)
    # Z/B with B spanned by members of Z, and a B outside Z
    b_rows = s.from_coords(rng.integers(0, p, size=(int(rng.integers(0, 3)), s.dim)))
    sq = Subquotient(s, Subspace(p, n, b_rows))
    class_of, representative, reps = _ref_subquotient(ref, FullSubspace(p, n, b_rows))
    members = s.from_coords(rng.integers(0, p, size=(3, s.dim)))
    assert np.array_equal(sq.class_of(members), class_of(members))
    assert np.array_equal(sq.class_of(members[0]), class_of(members[0]))
    cls = rng.integers(0, p, size=(3, sq.dim))
    assert np.array_equal(sq.representative(cls), representative(cls))
    assert np.array_equal(sq.basis_representatives(), reps)
    if not ref.contains(ref_t.basis):
        with pytest.raises(ValueError):
            Subquotient(s, t)


@pytest.mark.parametrize("p", COMPACT_PRIMES)
def test_compact_edge_shapes(p):
    for n in (0, 1, 5):
        full, zero = Subspace.full(p, n), Subspace.zero(p, n)
        assert full.block.shape == (n, 0) and zero.block.shape == (0, n)
        v = np.arange(n, dtype=np.int64) % p
        assert np.array_equal(full.coords(v), v) and not full.reduce(v).any()
        assert np.array_equal(zero.reduce(v), v) and zero.coords(np.zeros(n, dtype=np.int64)).shape == (0,)
        assert np.array_equal(full.from_coords(v), v) and zero.from_coords(np.zeros(0, dtype=np.int64)).shape == (n,)
        assert zero.contains(np.zeros((3, n), dtype=np.int64)) and full.contains(np.ones((3, n), dtype=np.int64))
        with pytest.raises(ValueError):
            full.coords(np.zeros(n + 1, dtype=np.int64))


def test_coords_multiplies_by_the_non_pivot_block_only(monkeypatch):
    # a hyperplane of F_5^6: the membership check is (k x 5) @ (5 x 1), not (k x 5) @ (5 x 6)
    shapes = []

    def spy(x, y, p, _fn=exactla.mulmod):
        shapes.append(y.shape)
        return _fn(x, y, p)

    s = Subspace(5, 6, [[1, 0, 0, 0, 0, 2], [0, 1, 0, 0, 0, 3], [0, 0, 1, 0, 0, 4],
                        [0, 0, 0, 1, 0, 1], [0, 0, 0, 0, 1, 1]])
    members = s.from_coords(np.arange(10, dtype=np.int64).reshape(2, 5) % 5)
    monkeypatch.setattr(exactla, "mulmod", spy)
    assert np.array_equal(s.coords(members), np.arange(10).reshape(2, 5) % 5)
    assert shapes == [(5, 1)]


# --- the sparse form: eliminations by connected component -----------------------

SPARSE_PRIMES = [2, 3, 2**31 - 1]


def _sparse_of(p, a, rng):
    """The entry form of the dense a, its entries in a random order."""
    rows, cols = np.nonzero(a)
    order = rng.permutation(rows.size)
    return SparseMatrix(p, a.shape, rows[order], cols[order], a[rows[order], cols[order]])


def _bit_identical(s, ref):
    return (s == ref and np.array_equal(s.free, ref.free)
            and s.block.dtype == ref.block.dtype and s.block.shape == ref.block.shape)


@pytest.mark.parametrize("p", SPARSE_PRIMES)
@pytest.mark.parametrize("seed", range(4))
def test_sparse_eliminations_match_dense(p, seed):
    # kernel() and row_space() eliminate only the nonzero rows x nonzero columns
    rng = np.random.default_rng(seed)
    shapes = [(0, 0), (0, 5), (5, 0), (1, 1), (4, 4), (7, 9), (20, 13), (13, 20), (90, 80)]
    for (rows, cols), density in itertools.product(shapes, (0.0, 0.03, 0.15, 0.6)):
        a = rng.integers(1, p, size=(rows, cols)) * (rng.random((rows, cols)) < density)
        a[rng.random(rows) < 0.3] = 0  # zero rows
        a[:, rng.random(cols) < 0.3] = 0  # zero columns
        sparse = _sparse_of(p, a, rng)
        assert sparse.to_matrix() == Matrix(p, a)
        m = sparse.to_matrix()
        assert _bit_identical(sparse.kernel(), kernel_basis(m))
        assert _bit_identical(sparse.row_space(), Subspace(p, cols, a))
        # the same matrix with its entries in another order
        again = _sparse_of(p, a, rng)
        assert _bit_identical(again.kernel(), kernel_basis(m)) and again.row_space() == sparse.row_space()


def _core_reference(sparse):
    """The core as it was first built: nonzero rows and columns located by two sorts."""
    rows, at_row = np.unique(sparse.rows, return_inverse=True)
    cols, at_col = np.unique(sparse.cols, return_inverse=True)
    core = np.zeros((rows.size, cols.size), dtype=np.int64)
    core[at_row, at_col] = sparse.vals
    return cols, core


def _core_kernel_reference(sparse):
    """kernel() before the split into components: the whole core's kernel, one elimination,
    plus a unit pivot at each zero column."""
    n = sparse.shape[1]
    cols, core = _core_reference(sparse)
    k = kernel_basis(Matrix(sparse.p, core))
    pivots = np.concatenate([np.delete(np.arange(n), cols), cols[list(k.pivots)]])
    block = np.zeros((pivots.size, k.block.shape[1]), dtype=np.int64)
    block[pivots.size - k.dim:] = k.block
    order = np.argsort(pivots)
    return Subspace._from_rref(sparse.p, n, pivots[order].tolist(), block[order])


def _core_row_space_reference(sparse):
    """row_space() before the split into components: the whole core's row space, one
    elimination, zero at the zero columns."""
    n = sparse.shape[1]
    cols, core = _core_reference(sparse)
    s = Subspace(sparse.p, cols.size, core)
    pivots = cols[list(s.pivots)]
    free = np.delete(np.arange(n), pivots)
    block = np.zeros((s.dim, free.size), dtype=np.int64)
    block[:, np.searchsorted(free, cols[s.free])] = s.block
    return Subspace._from_rref(sparse.p, n, pivots.tolist(), block)


@pytest.mark.parametrize("p", SPARSE_PRIMES)
@pytest.mark.parametrize("seed", range(4))
def test_sparse_transpose_matches_dense(p, seed):
    # homology reads B as transpose().row_space(): the dense image_basis, bit for bit; the
    # transpose shares the entry arrays, and both eliminate as the whole core did
    rng = np.random.default_rng(100 + seed)
    shapes = [(0, 0), (0, 5), (5, 0), (1, 1), (4, 4), (7, 9), (20, 13), (13, 20), (90, 80)]
    for (rows, cols), density in itertools.product(shapes, (0.0, 0.03, 0.15, 0.6)):
        a = rng.integers(1, p, size=(rows, cols)) * (rng.random((rows, cols)) < density)
        a[rng.random(rows) < 0.3] = 0  # zero rows
        a[:, rng.random(cols) < 0.3] = 0  # zero columns
        sparse = _sparse_of(p, a, rng)
        t, m = sparse.transpose(), sparse.to_matrix()
        assert t.shape == (cols, rows) and t.to_matrix() == m.transpose()
        assert t.rows is sparse.cols and t.cols is sparse.rows and t.vals is sparse.vals
        assert _bit_identical(t.row_space(), image_basis(m))
        assert _bit_identical(t.kernel(), kernel_basis(m.transpose()))
        assert _bit_identical(sparse.kernel(), kernel_basis(m))
        assert _bit_identical(t.transpose().row_space(), image_basis(m.transpose()))
        for x in (sparse, t):
            assert _bit_identical(x.kernel(), _core_kernel_reference(x))
            assert _bit_identical(x.row_space(), _core_row_space_reference(x))


def _block_system(p, blocks, zero_rows, zero_cols, rng, keep_order=False):
    """The block-diagonal matrix of ``blocks`` with zero rows and columns added, in entry form
    with its entries in a random order.  Its rows and columns are permuted at random, or, with
    keep_order, interleaved at random, each block's in their own order, so that equal blocks
    stay equal with their rows and columns in ascending order."""
    rows = [b.shape[0] for b in blocks] + [1] * zero_rows
    cols = [b.shape[1] for b in blocks] + [1] * zero_cols
    a = np.zeros((sum(rows), sum(cols)), dtype=np.int64)
    r = c = 0
    for b in blocks:
        a[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    places = []
    for sizes in (rows, cols):
        owner = np.repeat(np.arange(len(sizes)), sizes)
        places.append(np.argsort(rng.permutation(owner), kind="stable") if keep_order else rng.permutation(owner.size))
    out = np.zeros_like(a)
    out[np.ix_(*places)] = a
    return _sparse_of(p, out, rng)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(SPARSE_PRIMES),
    st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4), st.booleans()),
             max_size=5),  # blocks: rows, columns, copies, and a copy that differs in one value
    st.integers(0, 3),  # zero rows
    st.integers(0, 3),  # zero columns
    st.booleans(),  # interleaved rather than permuted: equal blocks stay equal
    st.sampled_from([0.3, 0.6]),  # density of a block: few entries leave the graph a forest
    st.integers(0, 2**32 - 1),
)
def test_sparse_components_match_dense(p, specs, zero_rows, zero_cols, keep_order, density, seed):
    # repeated blocks under random row and column permutations, blocks that differ only in
    # values, zero rows and columns, the empty matrix and one component: each repeated block
    # is eliminated once, and kernel() and row_space() are the dense ones bit for bit
    rng = np.random.default_rng(seed)
    blocks = []
    for r, c, copies, differ in specs:
        b = rng.integers(1, p, size=(r, c)) * (rng.random((r, c)) < density)
        b[rng.integers(r), rng.integers(c)] = rng.integers(1, p)  # every block has an entry
        blocks += [b] * copies
        if differ and p > 2:
            other = b.copy()
            i, j = np.argwhere(other)[rng.integers(np.count_nonzero(other))]
            other[i, j] = other[i, j] % (p - 1) + 1  # the same places, another value
            blocks.append(other)
    sparse = _block_system(p, blocks, zero_rows, zero_cols, rng, keep_order)
    m = sparse.to_matrix()
    for x, dense in ((sparse, m), (sparse.transpose(), m.transpose())):
        kernel, row_space = x.kernel(), x.row_space()
        assert _bit_identical(kernel, kernel_basis(dense)) and _bit_identical(kernel, _core_kernel_reference(x))
        assert _bit_identical(row_space, Subspace(p, dense.cols, dense.a))
        assert _bit_identical(row_space, _core_row_space_reference(x))


def test_sparse_eliminates_each_repeated_block_once(monkeypatch):
    # 40 copies of a 2 x 3 block, 3 of a 1 x 1 block, and one lone block that has the
    # 2 x 3 block's places but other values: the lone block is the whole core.  Three
    # copies of a full 2 x 2 block have 12 entries on 6 rows and 6 columns, enough to
    # connect them, so they are one 6 x 6 core
    shapes = []

    def counted(a, p, _fn=exactla._rref_array):
        shapes.append(a.shape)
        return _fn(a, p)

    p, rng = 3, np.random.default_rng(5)
    b, lone = np.array([[1, 0, 2], [0, 1, 1]]), np.array([[2, 0, 2], [0, 1, 1]])
    cases = [([b] * 40 + [np.array([[2]])] * 3 + [lone], [(1, 1), (2, 3), (2, 3)]),
             ([np.array([[1, 2], [2, 2]])] * 3, [(6, 6)])]
    monkeypatch.setattr(exactla, "_rref_array", counted)
    for blocks, eliminated in cases:
        sparse = _block_system(p, blocks, 2, 2, rng, keep_order=True)
        shapes.clear()
        kernel, row_space = sparse.kernel(), sparse.row_space()
        assert sorted(shapes) == sorted(eliminated * 2)
        m = sparse.to_matrix()
        assert _bit_identical(kernel, kernel_basis(m)) and _bit_identical(row_space, Subspace(p, m.cols, m.a))


@pytest.mark.parametrize("p", SPARSE_PRIMES)
def test_sparse_all_zero_and_empty_shapes(p):
    for rows, cols in ((0, 0), (0, 4), (4, 0), (3, 5)):
        zero = SparseMatrix(p, (rows, cols), [], [], [])
        assert zero.to_matrix() == Matrix.zeros(p, rows, cols)
        assert _bit_identical(zero.kernel(), Subspace.full(p, cols))
        assert _bit_identical(zero.row_space(), Subspace.zero(p, cols))
        assert _bit_identical(zero.transpose().row_space(), image_basis(zero.to_matrix()))
        assert _bit_identical(zero.transpose().kernel(), Subspace.full(p, rows))


def test_sparse_rejects_malformed_entries():
    with pytest.raises(ValueError, match="unequal"):
        SparseMatrix(3, (2, 2), [0, 1], [0], [1, 1])
    with pytest.raises(ValueError, match="outside"):
        SparseMatrix(3, (2, 2), [2], [0], [1])
    with pytest.raises(ValueError, match=r"\[1, 3\)"):
        SparseMatrix(3, (2, 2), [0], [0], [0])
    with pytest.raises(ValueError, match=r"\[1, 3\)"):
        SparseMatrix(3, (2, 2), [0], [0], [3])
    with pytest.raises(ValueError, match="repeated"):
        SparseMatrix(3, (2, 2), [1, 0, 1], [1, 0, 1], [1, 2, 2])


# --- Subquotient: B in Z's coordinates from B's RREF -----------------------------

def _ref_b_in_z(z, b):
    """(piv, comp, block) as Subquotient first read them: Z-coordinates of B's dense rows."""
    b_in_z = z.coords(b._rows())
    piv = np.searchsorted(z.pivots, b.pivots)
    comp = np.delete(np.arange(z.dim), piv)
    return piv, comp, b_in_z[:, comp]


@pytest.mark.parametrize("p", SPARSE_PRIMES)
@pytest.mark.parametrize("seed", range(4))
def test_subquotient_reads_b_in_z_from_its_rref(p, seed):
    rng = np.random.default_rng(seed)
    for n, zr, br in ((0, 0, 0), (1, 1, 0), (1, 1, 1), (6, 3, 2), (12, 8, 5), (30, 20, 12), (12, 12, 12), (40, 9, 3)):
        z = Subspace(p, n, rng.integers(0, p, size=(zr, n)) * (rng.random((zr, n)) < 0.6))
        b = Subspace(p, n, z.from_coords(rng.integers(0, p, size=(br, z.dim))))
        sq = Subquotient(z, b)
        piv, comp, block = _ref_b_in_z(z, b)
        assert np.array_equal(sq._comp, comp) and sq._b_in_z.pivots == tuple(piv.tolist())
        assert np.array_equal(sq._b_in_z.block, block) and sq._b_in_z.block.dtype == block.dtype


@pytest.mark.parametrize("p", SPARSE_PRIMES)
def test_subquotient_rejects_both_containment_failures(p):
    # a pivot of B outside Z's pivots, and B's pivots among Z's with a row of B outside Z
    z = Subspace(p, 4, [[1, 0, 1, 0], [0, 1, 0, 1]])
    for b_rows in ([[0, 0, 1, 0]], [[1, 0, 0, 0]], [[1, 0, 1, 0], [0, 1, 0, 0]]):
        with pytest.raises(ValueError, match="B is not contained in Z"):
            Subquotient(z, Subspace(p, 4, b_rows))
    rng = np.random.default_rng(p % 1000)
    modes = set()
    for _ in range(60):
        n = int(rng.integers(1, 10))
        z = Subspace(p, n, rng.integers(0, p, size=(int(rng.integers(0, n + 1)), n)))
        rows = z.from_coords(rng.integers(0, p, size=(int(rng.integers(1, 4)), z.dim)))
        rows[:, z.free] = (rows[:, z.free] + rng.integers(0, p, size=(len(rows), len(z.free)))
                           * (rng.random((len(rows), len(z.free))) < 0.3)) % p
        b = Subspace(p, n, rows)
        if z.contains(b._rows()):
            assert Subquotient(z, b).dim == z.dim - b.dim
            continue
        modes.add(set(b.pivots) <= set(z.pivots))
        with pytest.raises(ValueError, match="B is not contained in Z"):
            Subquotient(z, b)
    assert modes == {False, True}
