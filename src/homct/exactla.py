"""Exact linear algebra over prime fields F_p on dense numpy arrays.

Everything downstream (module theory, resolutions, homology towers) reduces
to the operations in this module: canonical reduced row echelon form, kernel
and image bases, deterministic solving, preimages of subspaces, and induced
maps on quotients and subquotients.  Matrices are immutable numpy int64 arrays with
entries reduced mod p.  A subspace of dimension r is its canonical RREF less the
identity: its pivot columns and the r x (n - r) block at the other (free) columns.
Coordinate maps (reduce, contains, coords, from_coords, apply, class_of,
representative) take one vector or a block of row vectors.  w has coordinates
c = w at the pivots, where c . basis equals c by construction, so w lies in the
subspace iff c . block equals w at the free columns: checks multiply by the
block only, and the dense basis is built only for callers that need rows.
A ``SparseMatrix`` holds a mostly-zero system by its nonzero entries and
eliminates it by the connected components of its row-column entry graph:
each distinct block that several components repeat once, and the other
components together as one dense core of their rows and columns (all of it
when its entries are enough to connect the graph).  Homology
eliminates every nonzero chain differential in this form: Z as its kernel,
and B as the row space of its transpose (``SparseMatrix.transpose``, which
swaps the entry indices and copies nothing).

A kernel basis is one elimination, of m with its columns reversed: in m's
column order each pivot row is then zero right of its pivot column, so the
null row of a free column f is 1 at f, 0 at every other free column, and
nonzero elsewhere only at pivot columns right of f.  In ascending f these
rows are already the kernel's canonical RREF, pivoted at the free columns.

A solve eliminates m once, beside the identity (``Solver``): the transform T
with T m = rref(m) then solves m X = rhs for any rhs with one product, and
rhs is inconsistent iff a row of T rhs below the rank is nonzero.

The matrices built upstream are block products of small action matrices (and
Kronecker products on non-free Hom and tensor spaces), with one to three
nonzeros per row, so Gauss-Jordan elimination finds pivots in bulk rather
than one column at a time.  It relies on two
invariants: row operations keep zero rows and zero columns zero, so only the
core of nonzero rows and columns is eliminated; and each forward round, which
takes as pivots the first rows leading in columns without a pivot and reduces
every other row by the pivot of its leading column, strictly raises the
leading column of each row it does not zero.  Back substitution then runs by
levels, one product each.  When most live rows lead in columns that have a
pivot already, the pivots are back-substituted early and the live rows cleared
of all of them in one product, so that rows do not crawl through the pivot
columns one round at a time; how many would crawl depends on the order of the
columns.  Inputs of at most 4096 entries keep the
one-pivot-per-step loop.  Every product mod p in homct,
here and in the layers above, goes through ``mulmod``: float64 BLAS while
each dot product stays exactly representable (inner * (p-1)^2 < 2^53), and
int64 ``@`` beyond that, on inner blocks of floor((2^63-1) / (p-1)^2)
columns reduced mod p after each block, so no product wraps and none raises
OverflowError.  The modulus is bounded by (p-1)^2 < 2^63 (MAX_MODULUS), the
range of the eliminator's row update; every prime up to it computes.

Values are reduced mod p only where they can leave [0, p), FFLAS-FFPACK's
rule (Dumas-Giorgi-Pernet, ACM TOMS 2008): after products, row updates, pivot
scaling and subtractions.  Inputs (``Matrix`` entries, vectors, the
eliminator's input) are almost always reduced, so they are checked in one
pass and reduced only when needed, in place by ``_reduce``: at p = 2^k it keeps
the low k bits (a &= p - 1), exact in two's complement; otherwise a -= p *
(a // p), as floor division by a scalar is exact and several times cheaper
than ``%``, and int64 arithmetic is exact mod 2^64 should p * (a // p) wrap.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "Matrix",
    "Subspace",
    "Subquotient",
    "SparseMatrix",
    "rref",
    "kernel_basis",
    "image_basis",
    "solve",
    "solve_matrix",
    "Solver",
    "preimage",
    "quotient_and_induced",
    "mulmod",
    "matpow",
    "reduced",
    "MAX_MODULUS",
]

# largest p with (p-1)^2 < 2^63: a row update r_i - c * r_pivot stays in int64
MAX_MODULUS = math.isqrt(2**63 - 1) + 1


@functools.cache
def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _reduce(a: np.ndarray, p: int) -> np.ndarray:
    """Reduce the int64 array ``a`` mod p >= 2 in place, in blocks of _UPDATE_ENTRIES; return it."""
    if not p & (p - 1):
        a &= p - 1
        return a
    if a.size <= _UPDATE_ENTRIES:
        blocks = (a,)
    else:
        step = max(1, a.shape[0] * _UPDATE_ENTRIES // a.size)
        blocks = (a[s:s + step] for s in range(0, a.shape[0], step))
    for blk in blocks:
        q = blk // p
        q *= p
        blk -= q
    return a


def _in_field(a: np.ndarray, p: int) -> bool:
    """Every entry of the int64 array ``a`` in [0, p)?  One pass: read as uint64, a negative one is >= 2^63."""
    return not a.size or int(a.view(np.uint64).max()) < p


def reduced(v, p: int) -> np.ndarray:
    """v as int64 entries in [0, p): v itself when they lie there already, else a reduced copy."""
    a = np.asarray(v, dtype=np.int64)
    return a if _in_field(a, p) else _reduce(a.copy(), p)


class Matrix:
    """Immutable dense matrix over F_p (row-major, int64 entries in [0, p))."""

    __slots__ = ("p", "a")

    def __init__(self, p: int, entries):
        if p > MAX_MODULUS:  # checked first: trial division of a huge p would not end
            raise ValueError(f"modulus {p} exceeds {MAX_MODULUS}: (p-1)^2 must stay below 2^63")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        a = np.array(entries, dtype=np.int64)  # a copy: never the caller's memory
        if a.ndim != 2:
            raise ValueError("matrix entries must be two-dimensional")
        if not _in_field(a, p):
            _reduce(a, p)
        a.setflags(write=False)
        self.p = p
        self.a = a

    @staticmethod
    def zeros(p: int, rows: int, cols: int) -> "Matrix":
        return Matrix(p, np.zeros((rows, cols), dtype=np.int64))

    @staticmethod
    def identity(p: int, n: int) -> "Matrix":
        return Matrix(p, np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.p == other.p
            and self.a.shape == other.a.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __hash__(self):
        return hash((self.p, self.a.shape, self.a.tobytes()))

    def __repr__(self) -> str:
        return f"Matrix(p={self.p}, {self.rows}x{self.cols})"

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.p != other.p:
            raise ValueError("modulus mismatch")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.a.shape} @ {other.a.shape}")
        return Matrix(self.p, mulmod(self.a, other.a, self.p))

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.p != other.p or self.a.shape != other.a.shape:
            raise ValueError("shape or modulus mismatch")
        return Matrix(self.p, self.a + other.a)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.p != other.p or self.a.shape != other.a.shape:
            raise ValueError("shape or modulus mismatch")
        return Matrix(self.p, self.a - other.a)

    def __neg__(self) -> "Matrix":
        return Matrix(self.p, -self.a)

    def scale(self, c: int) -> "Matrix":
        return Matrix(self.p, self.a * (c % self.p))

    def transpose(self) -> "Matrix":
        return Matrix(self.p, self.a.T)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Apply to a coordinate vector (cols,) or to each row of a block (k, cols)."""
        v = reduced(v, self.p)
        if v.ndim not in (1, 2) or v.shape[-1] != self.cols:
            raise ValueError(f"vector length {v.shape} does not match cols {self.cols}")
        return mulmod(v, self.a.T, self.p)

    def is_zero(self) -> bool:
        return not self.a.any()

    def to_lists(self):
        return [[int(x) for x in row] for row in self.a]


def vstack(ms: list[Matrix]) -> Matrix:
    p = ms[0].p
    return Matrix(p, np.vstack([m.a for m in ms]))


def kron(a: Matrix, b: Matrix) -> Matrix:
    if a.p != b.p:
        raise ValueError("modulus mismatch")
    return Matrix(a.p, np.kron(a.a, b.a))


def mulmod(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """x @ y mod p as int64, for integer operands already reduced into [0, p).

    p need not be prime: any modulus with (p-1)^2 < 2^63 is exact.

    Operands are not re-reduced (``Matrix.a`` is always in [0, p)).  x may
    be a vector or a stack, y is a matrix or a stack of matrices (at least
    two-dimensional), with numpy's ``@`` broadcasting.  Each entry of
    x @ y is a sum of ``inner`` products of at most (p-1)^2.  Below 2^53
    every partial sum is an integer that float64 holds exactly, in any
    summation order, so the product runs on float64 BLAS and converts back
    without rounding error.  Beyond that it runs on int64 ``@`` (no BLAS),
    split into inner blocks of floor((2^63-1) / (p-1)^2) columns, each of
    which stays below 2^63, and reduced after each block.  Every p up to
    MAX_MODULUS computes exactly; nothing wraps or raises.  The sums, the
    only values here that leave [0, p), are reduced in place by ``_reduce``,
    exactly: &= p - 1 at p = 2^k keeps the residue in two's complement, and
    floor division by the scalar p is exact (see the module docstring).
    """
    inner = x.shape[-1]
    if inner * (p - 1) ** 2 < 2**53:
        out = (x.astype(np.float64) @ y.astype(np.float64)).astype(np.int64)
    else:
        step = (2**63 - 1) // (p - 1) ** 2
        out = x[..., :step] @ y[..., :step, :]
        for lo in range(step, inner, step):
            _reduce(out, p)
            out += _reduce(x[..., lo:lo + step] @ y[..., lo:lo + step, :], p)
    return _reduce(out, p)


def matpow(x: np.ndarray, e: int, q: int) -> np.ndarray:
    """x^e mod q for a square matrix or a stack of them, by square-and-multiply.

    Entries are in [0, q), for any modulus q that ``mulmod`` takes; x^0 is the identity.
    """
    out = None
    while e:
        if e & 1:
            out = x if out is None else mulmod(out, x, q)
        e >>= 1
        if e:
            x = mulmod(x, x, q)
    return np.broadcast_to(np.eye(x.shape[-1], dtype=np.int64), x.shape).copy() if out is None else out


# inputs of at most this many entries take the loop: each round costs a fixed
# few dozen numpy calls, so a dense 3x3 takes 18 us in the loop and 125 us in
# the rounds, and the two break even near 64 x 64 at 5 % density
_LOOP_MAX_ENTRIES = 4096
# the rounds update rows in blocks of at most this many entries (4 MiB of
# int64), so the update's two temporaries stay small next to a large core
_UPDATE_ENTRIES = 1 << 19
# a round in which fewer than one live row in this many leads in a new column
# stalls: the pivots are reduced and the live rows cleared of them at once
_STALL_RATIO = 4


def _rref_array(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan elimination mod p; returns (canonical RREF, pivot columns).

    The RREF of a matrix is unique, so both eliminators below return the same
    array and pivot list.  Inputs of at most _LOOP_MAX_ENTRIES entries go
    through the one-pivot-per-step loop, larger ones through the batched
    rounds.  Requires (p-1)^2 < 2^63 (MAX_MODULUS) for the row update.
    """
    a = reduced(a, p)  # every Matrix is reduced already
    if a.size <= _LOOP_MAX_ENTRIES:
        return _rref_loop(a, p)
    return _rref_rounds(a, p)


def _rref_loop(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """One pivot per step: it updates only the rows that are nonzero in its
    column, and only from the pivot column on (the pivot row is zero to its
    left)."""
    r = np.array(a, order="C")
    nrows, ncols = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        nz = np.flatnonzero(r[row:, col])
        if nz.size == 0:
            continue
        i = row + int(nz[0])
        if i != row:
            r[[row, i]] = r[[i, row]]
        inv = pow(int(r[row, col]), p - 2, p)
        if inv != 1:
            r[row, col:] = _reduce(r[row, col:] * inv, p)
        hit = np.flatnonzero(r[:, col])
        hit = hit[hit != row]
        if hit.size:
            r[hit, col:] = _reduce(r[hit, col:] - np.outer(r[hit, col], r[row, col:]), p)
        pivots.append(col)
        row += 1
    return r, pivots


def _rref_rounds(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Lead-batched Gauss-Jordan elimination: one round finds every pivot
    whose leading column is new and updates all other live rows at once.

    Invariants: row operations never make a zero row or a zero column
    nonzero, so only the core (nonzero rows x nonzero columns) is
    eliminated; and every round strictly raises the leading column of each
    row it updates, or zeroes the row, so the rounds end.

    Forward rounds.  A live row leads at its first nonzero column.  In each
    column that has no pivot yet, the first row leading there becomes the
    pivot and is normalised; every other live row subtracts the pivot of its
    leading column, from the round's smallest leading column on.  The result
    is an echelon form whose pivot rows may still be nonzero in each other's
    pivot columns.

    Stalls.  When fewer than one live row in _STALL_RATIO leads in a new
    column, the rows would only crawl through the pivot columns, about one
    per round, and how many crawl depends on the order of the columns.  So
    ``_flush`` clears them of every pivot column at once, after which they
    all lead in new columns.
    """
    nrows, ncols = a.shape
    nz = a != 0
    rows = np.flatnonzero(nz.any(axis=1))
    cols = np.flatnonzero(nz.any(axis=0))
    del nz
    if not rows.size:
        return np.zeros((nrows, ncols), dtype=np.int64), []
    c = a[rows] if cols.size == ncols else a[np.ix_(rows, cols)]
    pivot_row = np.full(c.shape[1], -1, dtype=np.intp)  # core row of each column's pivot
    reduced = np.zeros(c.shape[1], dtype=bool)  # pivot columns back-substituted already
    rows, lead = _leads(np.arange(c.shape[0]), c, 0)
    while rows.size:
        fresh = np.flatnonzero(pivot_row[lead] < 0)
        if _STALL_RATIO * fresh.size < rows.size:
            rows, lead = _flush(c, rows, int(lead.min()), pivot_row, reduced, p)
            continue
        lo = int(lead.min())
        new_cols, first = np.unique(lead[fresh], return_index=True)
        new_rows = rows[fresh[first]]
        pivot_row[new_cols] = new_rows
        if p != 2:
            inv = np.array([pow(int(v), p - 2, p) for v in c[new_rows, new_cols]], dtype=np.int64)
            scale = inv != 1
            at = new_rows[scale]
            c[at, lo:] = _reduce(c[at, lo:] * inv[scale, None], p)
        keep = np.ones(rows.size, dtype=bool)
        keep[fresh[first]] = False
        rows, lead = rows[keep], lead[keep]
        if not rows.size:
            break
        step = max(1, _UPDATE_ENTRIES // (c.shape[1] - lo))  # rows per update block
        parts = [_reduce_rows(c, rows[s:s + step], lead[s:s + step], pivot_row, lo, p)
                 for s in range(0, rows.size, step)]
        rows, lead = (np.concatenate(x) for x in zip(*parts))
    _back_substitute(c, pivot_row, reduced, p)
    pcols = np.flatnonzero(pivot_row >= 0)
    prows = pivot_row[pcols]
    # only the pivot rows are nonzero now; the core is freed before the output exists
    if 3 * np.count_nonzero(c) <= c.size:  # few nonzeros: scatter them, 24 bytes each
        flat = np.flatnonzero(c)
        vals = c.reshape(-1)[flat]
        i, j = np.divmod(flat, c.shape[1])
        out_row = np.empty(c.shape[0], dtype=np.intp)  # core row -> row of the RREF
        out_row[prows] = np.arange(prows.size)
        del c, flat
        r = np.zeros((nrows, ncols), dtype=np.int64)
        r[out_row[i], cols[j]] = vals
    else:
        red = c[prows]
        del c
        r = np.zeros((nrows, ncols), dtype=np.int64)
        r[: red.shape[0], cols] = red
    return r, cols[pcols].tolist()


def _back_substitute(c: np.ndarray, pivot_row: np.ndarray, reduced: np.ndarray, p: int) -> None:
    """Reduce the pivot rows of ``c`` (in place) to zero in each other's pivot
    columns.

    ``reduced`` marks the pivot columns whose rows an earlier call reduced,
    and is updated.  The pivot rows found since are zero in those columns,
    because they were cleared of them before they became pivots.  So only the
    new pivot rows are reduced among themselves, and then the earlier ones
    are cleared of the new pivot columns in one product per block of rows.

    The pivot rows are normalised and zero left of their pivot.  A new pivot
    row is final once every other new pivot column where it is nonzero
    belongs to a final row.  A level clears its rows of the final rows they
    meet in one product over the non-pivot columns; since a final row is zero
    in every pivot column but its own, that leaves the level's rows zero in
    the met pivot columns.
    """
    new = np.flatnonzero((pivot_row >= 0) & ~reduced)
    if not new.size:
        return
    prows = pivot_row[new]
    dep = (c != 0)[prows][:, new]  # new pivot rows x new pivot columns, bool
    np.fill_diagonal(dep, False)
    waiting = dep.sum(axis=1)  # other pivot columns in the row, of rows not yet final
    todo = np.ones(new.size, dtype=bool)
    level = np.flatnonzero(waiting == 0)  # final already
    free = np.flatnonzero(pivot_row < 0)
    while level.size:
        met = np.flatnonzero(dep[level].any(axis=0))
        if met.size:  # the level's rows are zero left of their pivots
            _clear(c, prows[level], new[met], free[free > new[level].min()], pivot_row, p)
        todo[level] = False
        waiting -= dep[:, level].sum(axis=1)
        level = np.flatnonzero(todo & (waiting == 0))
    old = np.flatnonzero(reduced)
    reduced[new] = True
    if old.size:
        _clear(c, pivot_row[old], new, free, pivot_row, p)


def _flush(c: np.ndarray, rows: np.ndarray, lo: int, pivot_row: np.ndarray,
           reduced: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Back-substitute the pivot rows, then clear the live ``rows`` of every
    pivot column in one product; returns their _leads, all in new columns.

    The live rows are zero left of ``lo``, and so is every pivot row they
    meet, so the product runs over the non-pivot columns from ``lo`` on.
    """
    _back_substitute(c, pivot_row, reduced, p)
    _clear(c, rows, np.flatnonzero(reduced), np.flatnonzero(pivot_row[lo:] < 0) + lo,
           pivot_row, p)
    step = max(1, _UPDATE_ENTRIES // c.shape[1])
    parts = [_leads(rows[s:s + step], c[rows[s:s + step]], 0) for s in range(0, rows.size, step)]
    return tuple(np.concatenate(x) for x in zip(*parts))


def _clear(c: np.ndarray, rows: np.ndarray, pcols: np.ndarray, out: np.ndarray,
           pivot_row: np.ndarray, p: int) -> None:
    """Clear the given rows of ``c`` (in place) of the pivot columns
    ``pcols``, whose pivot rows must be reduced.

    A reduced pivot row is 1 in its pivot column and 0 in every other one,
    so subtracting x[j] times the pivot row of j, for each j in ``pcols``,
    zeroes x in ``pcols`` at once.  The product runs over the columns
    ``out``, which must hold every non-pivot column where a met pivot row may
    be nonzero.  Rows and columns go in blocks of about _UPDATE_ENTRIES.
    """
    step = max(1, _UPDATE_ENTRIES // c.shape[1])
    for s in range(0, rows.size, step):
        at = rows[s:s + step]
        x = c[at]
        hit = pcols[x[:, pcols].any(axis=0)]
        if not hit.size:
            continue
        coef = x[:, hit]
        width = max(1, _UPDATE_ENTRIES // hit.size)  # columns per product
        for t in range(0, out.size, width):
            o = out[t:t + width]
            block = x[:, o]
            block -= mulmod(coef, _take(c, pivot_row[hit], o), p)
            x[:, o] = _reduce(block, p)
        x[:, hit] = 0
        c[at] = x


def _take(c: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """c[rows][:, cols]: rows first, then columns from the copy, which is
    cheaper than one two-axis gather unless the rows are many."""
    if rows.size * c.shape[1] <= _UPDATE_ENTRIES:
        return c[rows][:, cols]
    return c[np.ix_(rows, cols)]


def _leads(rows: np.ndarray, block: np.ndarray, lo: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows whose part in ``block`` (columns lo on) is nonzero, and their leading columns."""
    nz = block != 0
    lead = nz.argmax(axis=1)
    live = nz[np.arange(rows.size), lead]
    return rows[live], lead[live] + lo


def _reduce_rows(c: np.ndarray, rows: np.ndarray, lead: np.ndarray, pivot_row: np.ndarray,
                 lo: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Subtract from each row (columns lo on, in place) the pivot of its leading
    column, times its entry there; returns _leads of the result.

    The pivot is normalised and leads in the same column, so that entry
    becomes zero and nothing left of it changes.
    """
    upd = c[rows, lo:]
    sub = c[pivot_row[lead], lo:]
    if p == 2:
        upd ^= sub
    else:
        sub *= c[rows, lead][:, None]
        upd -= sub
        _reduce(upd, p)
    del sub
    c[rows, lo:] = upd
    return _leads(rows, upd, lo)


def rref(m: Matrix) -> tuple[Matrix, list[int], int]:
    """Canonical reduced row echelon form of ``m``.

    Returns (R, pivot_columns, rank).  R is row-equivalent to m; two matrices
    with the same row space have identical R.
    """
    r, pivots = _rref_array(m.a, m.p)
    return Matrix(m.p, r), pivots, len(pivots)


def _row_major(v, p: int) -> np.ndarray:
    """v mod p as a C-ordered int64 array, the left operand of a coordinate matmul.

    numpy's integer matmul is slower on a column-major left operand (0.93 s
    against 0.71 s for a 640x704 by 704x960 product); pivot columns are
    taken with np.take, which keeps C order where w[..., pivots] does not.
    """
    return reduced(np.asarray(v, dtype=np.int64, order="C"), p)


def _checked_block(w: np.ndarray, n: int) -> np.ndarray:
    """w, once it is checked to be one vector of F_p^n or a block of row vectors."""
    if w.ndim not in (1, 2) or w.shape[-1] != n:
        raise ValueError("vector/ambient dimension mismatch")
    return w


def _free_cols(n: int, pivots) -> np.ndarray:
    """The columns of F_p^n that are not pivots, ascending."""
    return np.delete(np.arange(n), list(pivots))


class Subspace:
    """Subspace of F_p^n, stored as its canonical RREF: the pivot columns and
    the dim x (n - dim) block of the basis at the other columns, ``free``."""

    __slots__ = ("p", "ambient_dim", "pivots", "free", "block")

    def __init__(self, p: int, ambient_dim: int, basis_rows=None):
        arr = np.asarray([] if basis_rows is None else basis_rows, dtype=np.int64)
        arr = arr.reshape(-1, ambient_dim) if arr.size else np.zeros((0, ambient_dim), dtype=np.int64)
        red, pivots = _rref_array(arr, p)
        free = _free_cols(ambient_dim, pivots)
        self._set(p, ambient_dim, pivots, free, red[: len(pivots)][:, free])

    def _set(self, p: int, ambient_dim: int, pivots, free: np.ndarray, block: np.ndarray) -> None:
        block.setflags(write=False)
        self.p, self.ambient_dim, self.pivots, self.free, self.block = p, ambient_dim, tuple(pivots), free, block

    @classmethod
    def _from_rref(cls, p: int, ambient_dim: int, pivots, block: np.ndarray) -> "Subspace":
        """The subspace whose canonical RREF has these pivots and non-pivot block: no elimination."""
        s = cls.__new__(cls)
        s._set(p, ambient_dim, pivots, _free_cols(ambient_dim, pivots), block)
        return s

    @staticmethod
    def zero(p: int, ambient_dim: int) -> "Subspace":
        return Subspace._from_rref(p, ambient_dim, (), np.zeros((0, ambient_dim), dtype=np.int64))

    @staticmethod
    def full(p: int, ambient_dim: int) -> "Subspace":
        """F_p^n: pivots 0..n-1 and an n x 0 block."""
        return Subspace._from_rref(p, ambient_dim, range(ambient_dim), np.zeros((ambient_dim, 0), dtype=np.int64))

    def power(self, b: int) -> "Subspace":
        """S^b inside (F_p^n)^b, no elimination: b diagonal copies of S's RREF are canonical,
        with pivots r * n + (S's pivots) and S's non-pivot block on the diagonal."""
        n, (k, f) = self.ambient_dim, self.block.shape
        block = np.zeros((b, k, b, f), dtype=np.int64)
        block[np.arange(b), :, np.arange(b), :] = self.block
        pivots = (n * np.arange(b)[:, None] + np.asarray(self.pivots, dtype=np.intp)).ravel()
        return Subspace._from_rref(self.p, n * b, pivots.tolist(), block.reshape(b * k, b * f))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def basis(self) -> Matrix:
        """The dense RREF basis (dim x ambient_dim), built on each call; no coordinate map needs it."""
        return Matrix(self.p, self._rows())

    def _rows(self, idx=slice(None)) -> np.ndarray:
        """Rows ``idx`` of the dense RREF basis: 1 at their pivots, the block at the free columns."""
        piv = np.asarray(self.pivots, dtype=np.intp)[idx]
        out = np.zeros((piv.size, self.ambient_dim), dtype=np.int64)
        out[np.arange(piv.size), piv] = 1
        out[:, self.free] = self.block[idx]
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.p == other.p
            and self.ambient_dim == other.ambient_dim
            and self.pivots == other.pivots
            and bool(np.array_equal(self.block, other.block))
        )

    def __hash__(self):
        return hash((self.p, self.ambient_dim, self.pivots, self.block.tobytes()))

    def __repr__(self) -> str:
        return f"Subspace(p={self.p}, dim={self.dim}, ambient={self.ambient_dim})"

    def _split(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(c, c . block, w at the free columns) for w = v mod p and c = w at the pivots: w lies in
        the subspace, with coordinates c, iff the last two agree."""
        w = _checked_block(_row_major(v, self.p), self.ambient_dim)
        c = np.take(w, self.pivots, axis=-1)
        return c, mulmod(c, self.block, self.p), np.take(w, self.free, axis=-1)

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Canonical representative of v modulo this subspace (pivot coords zeroed).

        v is a vector (n,) or a block of row vectors (k, n); so is the result.
        """
        _, spanned, rest = self._split(v)
        out = np.zeros(rest.shape[:-1] + (self.ambient_dim,), dtype=np.int64)
        out[..., self.free] = _reduce(rest - spanned, self.p)
        return out

    def contains(self, v: np.ndarray) -> bool:
        """True iff v, or every row of the block v, lies in the subspace."""
        _, spanned, rest = self._split(v)
        return bool(np.array_equal(spanned, rest))

    def contains_subspace(self, other: "Subspace") -> bool:
        return self.contains(other._rows())

    def coords(self, v: np.ndarray) -> np.ndarray:
        """Coordinates of v (or of each row of v) in the RREF basis; requires v in the subspace."""
        c, spanned, rest = self._split(v)
        if not np.array_equal(spanned, rest):
            raise ValueError("vector not in subspace")
        return c

    def from_coords(self, c: np.ndarray) -> np.ndarray:
        """Ambient vector (or row block) with the given RREF-basis coordinates."""
        return self._span(_row_major(c, self.p))

    def _span(self, c: np.ndarray, rows=slice(None)) -> np.ndarray:
        """c times the basis rows ``rows``: c at their pivots, c . block at the free columns."""
        out = np.zeros(c.shape[:-1] + (self.ambient_dim,), dtype=np.int64)
        out[..., np.asarray(self.pivots, dtype=np.intp)[rows]] = c
        out[..., self.free] = mulmod(c, self.block[rows], self.p)
        return out

    def complement_cols(self) -> list[int]:
        """Non-pivot coordinates: the canonical complement's coordinate set."""
        return self.free.tolist()

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient mismatch")
        return Subspace(self.p, self.ambient_dim, np.vstack([self._rows(), other._rows()]))

    def intersect(self, other: "Subspace") -> "Subspace":
        ann = np.vstack([annihilator(self)._rows(), annihilator(other)._rows()])
        return kernel_basis(Matrix(self.p, ann))


def annihilator(s: Subspace) -> Subspace:
    """Orthogonal complement under the standard dot product (nondegenerate on F_p^n)."""
    if s.dim == 0:
        return Subspace.full(s.p, s.ambient_dim)
    return kernel_basis(s.basis)


def _null_rows(r: np.ndarray, pivots, p: int) -> np.ndarray:
    """Rows spanning {v : r v = 0} for r in RREF with the given pivot columns.

    One row per free column f: 1 at f, -r[i, f] at pivot column i, 0 elsewhere.
    """
    pivots = list(pivots)
    piv = set(pivots)
    free = [j for j in range(r.shape[1]) if j not in piv]
    rows = np.zeros((len(free), r.shape[1]), dtype=np.int64)
    rows[:, free] = np.eye(len(free), dtype=np.int64)
    rows[:, pivots] = _reduce(-r[: len(pivots), free].T, p)
    return rows


def kernel_basis(m: Matrix) -> Subspace:
    """Kernel {v : m v = 0} as a canonical Subspace of F_p^cols, in one elimination (see the module docstring)."""
    p, n = m.p, m.cols
    r, rev = _rref_array(m.a[:, ::-1], p)
    free = _free_cols(n, n - 1 - np.array(rev, dtype=np.intp))  # m's free columns, the kernel's pivots
    # r at column n-1-f is m's column f; r's rows reversed put m's pivot columns in ascending order
    block = np.ascontiguousarray(r[: len(rev)][::-1, n - 1 - free].T)
    return Subspace._from_rref(p, n, free.tolist(), _reduce(np.negative(block, out=block), p))


def image_basis(m: Matrix) -> Subspace:
    """Column space of m as a canonical Subspace of F_p^rows."""
    return Subspace(m.p, m.rows, m.a.T)


def _components(ri: np.ndarray, ci: np.ndarray, nr: int, nc: int) -> tuple[np.ndarray, np.ndarray]:
    """Connected components of the graph whose edges are the entries (ri[e], ci[e]) between
    nr rows and nc columns, each of which has an entry: the label of each column and of each
    row, the smallest column of its component.

    Label propagation with pointer jumping (Shiloach-Vishkin).  Each label is a column of the
    same component, no larger than the column it labels, and at the start of a round a root
    (labelled by itself).  A round gives each row the smallest label among its columns; if
    some row sees two labels, each root lowers itself to the smallest row label it meets,
    and every column then jumps to its root.  When every row sees one label, each component
    has one: its smallest column, which can only be labelled by itself."""
    lab, at = np.arange(nc), ci
    while True:
        row = np.full(nr, nc)
        np.minimum.at(row, ri, at)
        seen = row[ri]
        if (seen == at).all():
            return lab, row
        np.minimum.at(lab, at, seen)
        while True:
            up = lab[lab]
            if (up == lab).all():
                break
            lab = up
        at = lab[ci]


def _ranks(ids: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the place of each item among the items with its id, in ascending order; the items
    sorted by id, ascending within each), for ids in [0, counts.size) with these counts."""
    order = np.argsort(ids, kind="stable")
    rank = np.empty(ids.size, dtype=np.intp)
    rank[order] = np.arange(ids.size) - (np.cumsum(counts) - counts)[ids[order]]
    return rank, order


def _repeated_blocks(ri: np.ndarray, ci: np.ndarray, vals: np.ndarray, col_lab: np.ndarray,
                     row_lab: np.ndarray) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """The dense blocks that several components of the entry graph share, each to be
    eliminated once: (cols, block) pairs as ``SparseMatrix._parts`` gives them, with core
    columns for matrix columns; and the mask of the core columns of every other component.

    A component's block has its rows and columns in ascending order.  Equal blocks have as
    many entries, so only components whose number of entries another one has are written
    as dense blocks, and compared with the others of their shape."""
    lone = np.ones(col_lab.size, dtype=bool)
    ids = np.cumsum(col_lab == np.arange(col_lab.size)) - 1  # a component's id: its smallest column's rank
    col_id, row_id = ids[col_lab], ids[row_lab]
    e_id = row_id[ri]
    size = np.bincount(e_id)
    twin = np.bincount(size)[size] > 1  # another component has as many entries
    parts = []
    if twin.any():
        shape = np.stack([np.bincount(row_id), np.bincount(col_id)])
        (r_at, _), (c_at, c_order) = _ranks(row_id, shape[0]), _ranks(col_id, shape[1])
        c_start, slot = np.cumsum(shape[1]) - shape[1], np.empty(size.size, dtype=np.intp)
        for r, c in sorted(set(zip(*shape[:, twin].tolist()))):
            of = twin & (shape[0] == r) & (shape[1] == c)
            at, e = np.flatnonzero(of), np.flatnonzero(of[e_id])
            slot[at] = np.arange(at.size)
            dense = np.zeros((at.size, r * c), dtype=np.int64)
            dense[slot[e_id[e]], r_at[ri[e]] * c + c_at[ci[e]]] = vals[e]
            blocks, which = np.unique(dense, axis=0, return_inverse=True)
            which = which.reshape(-1)
            for d in np.flatnonzero(np.bincount(which) > 1):
                cols = c_order[c_start[at[which == d], None] + np.arange(c)]
                parts.append((cols, blocks[d].reshape(r, c)))
                lone[cols] = False
    return parts, lone


class SparseMatrix:
    """A matrix over F_p by its entry triples (rows, cols, vals): distinct positions, values in [1, p).

    Both eliminations split the matrix into the connected components of its
    row-column entry graph, which sit on disjoint rows and columns, and read
    each component as a dense block, its rows and columns in ascending order.
    A block that several components share is eliminated once; every other
    component goes into one dense core of their rows and columns (with one
    component, the nonzero rows x nonzero columns).  The components are
    looked for only when the entries are too few to connect the nonzero rows
    and columns; otherwise the matrix is one core.  Each elimination runs
    through ``kernel_basis`` or ``Subspace``.  Row operations keep zero rows
    and columns zero, and on disjoint columns the kernel and the row space
    are the direct sums of the blocks' ones, whose canonical RREFs, placed at
    the blocks' columns and sorted by pivot, are the canonical RREF of the
    sum.  So the answer is the same canonical Subspace as on the dense matrix
    (structured Gaussian elimination, LaMacchia-Odlyzko 1990, takes the same
    first step).
    """

    __slots__ = ("p", "shape", "rows", "cols", "vals")

    def __init__(self, p: int, shape: tuple[int, int], rows, cols, vals):
        rows, cols = (np.asarray(x, dtype=np.intp).reshape(-1) for x in (rows, cols))
        vals = np.asarray(vals, dtype=np.int64).reshape(-1)
        if not rows.size == cols.size == vals.size:
            raise ValueError("entry triples of unequal lengths")
        if rows.size and not (0 <= rows.min() and rows.max() < shape[0] and 0 <= cols.min() and cols.max() < shape[1]):
            raise ValueError(f"entry position outside the shape {shape}")
        if rows.size and not (1 <= vals.min() and vals.max() < p):
            raise ValueError(f"entry values must lie in [1, {p})")
        flat = np.sort(rows * shape[1] + cols)
        if (flat[1:] == flat[:-1]).any():
            raise ValueError("repeated entry position")
        self.p, self.shape, self.rows, self.cols, self.vals = p, tuple(shape), rows, cols, vals

    def to_matrix(self) -> Matrix:
        a = np.zeros(self.shape, dtype=np.int64)
        a[self.rows, self.cols] = self.vals
        return Matrix(self.p, a)

    def transpose(self) -> "SparseMatrix":
        """The transpose: the same entries with rows and columns swapped, not checked again."""
        t = SparseMatrix.__new__(SparseMatrix)
        t.p, t.shape, t.rows, t.cols, t.vals = self.p, self.shape[::-1], self.cols, self.rows, self.vals
        return t

    def _parts(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The matrix as dense blocks on disjoint columns: (cols, block) pairs, where each row
        of the g x c array cols holds ascending columns of the matrix, and the r x c block
        sits at each of them, on rows of its own.  The zero columns are in no pair.

        A row's or a column's place in the core is the number of nonzero rows (columns) up to
        it, read off a presence mask, so no index is sorted.  The components are looked for
        only when there are fewer entries than nonzero rows and columns, less one: too few
        edges to connect the entry graph, which then has two components or more.  With as
        many the graph may be connected, and the matrix is one core."""
        if not self.rows.size:
            return []
        row_mask, col_mask = (np.zeros(size, dtype=bool) for size in self.shape)
        row_mask[self.rows] = True
        col_mask[self.cols] = True
        ri, ci, vals = np.cumsum(row_mask)[self.rows] - 1, np.cumsum(col_mask)[self.cols] - 1, self.vals
        cols, nr = np.flatnonzero(col_mask), np.count_nonzero(row_mask)
        parts = []
        if ri.size < nr + cols.size - 1:
            parts, lone = _repeated_blocks(ri, ci, vals, *_components(ri, ci, nr, cols.size))
            parts = [(cols[at], block) for at, block in parts]
        if parts:  # the core is the other components
            keep, in_r = lone[ci], np.zeros(nr, dtype=bool)
            in_r[ri[keep]] = True
            ri, ci, vals, cols = np.cumsum(in_r)[ri[keep]] - 1, np.cumsum(lone)[ci[keep]] - 1, vals[keep], cols[lone]
        if ri.size:
            core = np.zeros((ri.max() + 1, cols.size), dtype=np.int64)
            core[ri, ci] = vals
            parts.append((cols[None], core))
        return parts

    def _eliminate(self, kernel: bool) -> Subspace:
        """The kernel or the row space from those of the _parts' blocks, each eliminated once.

        A block's canonical RREF, its pivots and non-pivot block placed at each of its
        column sets, is a set of rows of the answer's: the zero columns are the answer's
        other pivots (unit rows of the kernel) or free columns (of the row space)."""
        n, parts = self.shape[1], self._parts()
        is_piv, done = np.full(n, kernel), []
        is_piv[self.cols] = False  # the zero columns: unit pivots of the kernel, free in the row space
        while parts:  # popped, so that no block outlives its elimination
            cols, block = parts.pop()
            if kernel:
                block = Matrix(self.p, block)  # a copy, which frees the block before its elimination
                s = kernel_basis(block)
            else:
                s = Subspace(self.p, block.shape[1], block)
            del block
            done.append((cols[:, list(s.pivots)], cols[:, s.free], s.block))
            is_piv[done[-1][0]] = True
        pivots, free = np.flatnonzero(is_piv), np.flatnonzero(~is_piv)
        out = np.zeros((pivots.size, free.size), dtype=np.int64)
        for at_piv, at_free, block in done:
            rows, cols = np.searchsorted(pivots, at_piv), np.searchsorted(free, at_free)
            if len(rows) == 1 and cols.size == free.size:  # every free column: whole rows
                out[rows[0]] = block
            elif len(rows) == 1 and rows.size == pivots.size:  # every pivot: whole columns
                out[:, cols[0]] = block
            else:  # entry by entry, at each copy's rows and columns
                out[rows[:, :, None], cols[:, None, :]] = block
        return Subspace._from_rref(self.p, n, pivots.tolist(), out)

    def kernel(self) -> Subspace:
        """{v : m v = 0}: the blocks' kernels, plus a unit pivot at each zero column."""
        return self._eliminate(kernel=True)

    def row_space(self) -> Subspace:
        """The row space: the blocks' row spaces; the zero columns are free."""
        return self._eliminate(kernel=False)


class Solver:
    """m eliminated once, for solving m X = rhs against any number of right-hand sides.

    The RREF of [m | I] is [rref(m) | T]: T is invertible and T m = rref(m),
    whose rows below rank m are zero.  So m X = rhs iff rref(m) X = T rhs,
    which holds for some X iff the rows of T rhs below the rank are zero; the
    solution with its free variables pinned to zero is then the top rows of
    T rhs scattered to m's pivot rows.  That is the solution the elimination
    of the augmented [m | rhs] gives, as the rows of an RREF are unique.
    """

    __slots__ = ("p", "cols", "pivots", "transform")

    def __init__(self, m: Matrix):
        (rows, n), p = m.a.shape, m.p
        aug = np.zeros((rows, n + rows), dtype=np.int64)
        aug[:, :n] = m.a
        np.fill_diagonal(aug[:, n:], 1)
        r, pivots = _rref_array(aug, p)
        del aug
        self.p, self.cols = p, n
        self.pivots = [c for c in pivots if c < n]  # the first rank pivots are m's
        self.transform = np.ascontiguousarray(r[:, n:])  # T
        self.transform.setflags(write=False)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def section(self) -> np.ndarray:
        """S (cols x rows): S rhs is the pinned solution of every consistent rhs."""
        s = np.zeros((self.cols, self.transform.shape[0]), dtype=np.int64)
        s[self.pivots] = self.transform[: self.rank]
        return s

    def consistent(self, rhs: np.ndarray) -> bool:
        """Is m X = rhs solvable?  rhs, entries in [0, p), has m.rows rows, or is a stack of such blocks.

        Every rhs is when m has full row rank: then no row lies below the rank.
        """
        low = self.transform[self.rank:]
        return not low.size or not mulmod(low, rhs, self.p).any()

    def scatter(self, transformed: np.ndarray) -> np.ndarray | None:
        """The pinned solution X from T rhs, or None when some column is inconsistent."""
        if transformed[self.rank:].any():
            return None
        x = np.zeros((self.cols, transformed.shape[1]), dtype=np.int64)
        x[self.pivots] = transformed[: self.rank]
        return x

    def solve(self, rhs: np.ndarray) -> np.ndarray | None:
        """X with m X = rhs column-wise, free variables pinned to zero; None if inconsistent."""
        return self.scatter(mulmod(self.transform, rhs, self.p))


def solve(m: Matrix, rhs: np.ndarray) -> np.ndarray | None:
    """Deterministic solve m x = rhs; free variables pinned to zero.

    Returns None when the system is inconsistent (a value, not an error).
    """
    rhs = np.asarray(rhs, dtype=np.int64)
    if rhs.shape != (m.rows,):
        raise ValueError("rhs length mismatch")
    x = solve_matrix(m, Matrix(m.p, rhs.reshape(-1, 1)))
    return None if x is None else x.a[:, 0]


def solve_matrix(m: Matrix, rhs: Matrix) -> Matrix | None:
    """Solve m X = rhs column-wise; None if any column is inconsistent.

    One ``Solver``, used once: the elimination has m.rows x (m.cols + m.rows)
    entries whatever the width of rhs.
    """
    if rhs.rows != m.rows:
        raise ValueError("rhs rows mismatch")
    x = Solver(m).solve(rhs.a)
    return None if x is None else Matrix(m.p, x)


def preimage(m: Matrix, s: Subspace) -> Subspace:
    """{v : m v in s}; contains ker m."""
    if s.ambient_dim != m.rows:
        raise ValueError(
            f"subspace ambient {s.ambient_dim} does not match codomain {m.rows}"
        )
    ann = annihilator(s)
    if ann.dim == 0:
        return Subspace.full(m.p, m.cols)
    return kernel_basis(Matrix(m.p, mulmod(ann._rows(), m.a, m.p)))


def quotient_and_induced(f: Matrix, dom_sub: Subspace, cod_sub: Subspace) -> Matrix:
    """Matrix of the induced map (dom/dom_sub) -> (cod/cod_sub).

    Quotient coordinates are the canonical (non-pivot) complement coordinates
    of each RREF subspace, so induced(g o f) = induced(g) @ induced(f).
    Raises ValueError when f does not map dom_sub into cod_sub.
    """
    if dom_sub.ambient_dim != f.cols or cod_sub.ambient_dim != f.rows:
        raise ValueError("subspace/matrix dimension mismatch")
    if not cod_sub.contains(f.apply(dom_sub._rows())):
        raise ValueError("not submodule-compatible: f(dom_sub) not in cod_sub")
    # column j of f is the image of e_j; keep the complement columns of dom_sub
    return Matrix(f.p, cod_sub.reduce(f.a[:, dom_sub.free].T)[:, cod_sub.free].T)


def quotient_projection(sub: Subspace) -> Matrix:
    """Projection F^n -> F^(n - dim sub) onto canonical complement coordinates.

    Column j is reduce(e_j) on the complement: the identity on complement
    columns and -basis[:, comp]^T on pivot columns.
    """
    return Matrix(sub.p, _null_rows(sub._rows(), sub.pivots, sub.p))


class Subquotient:
    """A subquotient Z/B of F_p^n with canonical class coordinates.

    Z and B are subspaces with B <= Z.  Class coordinates are the canonical
    complement coordinates of B (expressed in Z's RREF basis) inside F^dim(Z),
    so every class has one distinguished representative and induced maps
    compose strictly.
    """

    __slots__ = ("p", "ambient_dim", "z", "b", "_b_in_z", "_comp", "unit_classes")

    def __init__(self, z: Subspace, b: Subspace):
        if z.p != b.p or z.ambient_dim != b.ambient_dim:
            raise ValueError("Z/B ambient mismatch")
        # B <= Z puts B's pivots among Z's, at positions piv.  A row of B's RREF then has
        # Z-coordinates 1 at its own piv, 0 at the others, and x, B's block at Z's other
        # pivots, at comp: an RREF already.  It lies in Z iff its block at Z's free columns
        # is Z.block[piv] + x . Z.block[comp] (see the module docstring).
        zp = np.asarray(z.pivots, dtype=np.intp)
        piv = np.searchsorted(zp, np.asarray(b.pivots, dtype=np.intp))
        if piv.size and (piv[-1] >= z.dim or not np.array_equal(zp[piv], b.pivots)):
            raise ValueError("B is not contained in Z")
        comp = _free_cols(z.dim, piv)
        x = b.block[:, np.searchsorted(b.free, zp[comp])]
        spanned = _reduce(mulmod(x, z.block[comp], z.p) + z.block[piv], z.p)
        if not np.array_equal(spanned, b.block[:, np.searchsorted(b.free, z.free)]):
            raise ValueError("B is not contained in Z")
        self.p = z.p
        self.ambient_dim = z.ambient_dim
        self.z = z
        self.b = b
        self._comp = comp
        self._b_in_z = Subspace._from_rref(z.p, z.dim, piv.tolist(), x)
        # Z everything and B zero: a class is its vector, and the class basis is the unit vectors
        self.unit_classes = z.dim == self.ambient_dim and b.dim == 0

    @property
    def dim(self) -> int:
        return self.z.dim - self.b.dim

    def class_of(self, v: np.ndarray) -> np.ndarray:
        """Class coordinates of an ambient vector or row block; requires v in Z.

        With unit classes that is v mod p itself (v when its entries lie in [0, p))."""
        if self.unit_classes:
            return _checked_block(reduced(v, self.p), self.ambient_dim)
        return self._b_in_z.reduce(self.z.coords(v))[..., self._comp]

    def representative(self, cls: np.ndarray) -> np.ndarray:
        """Distinguished ambient representative of class coordinates (vector or row block)."""
        return self.z._span(_row_major(cls, self.p), self._comp)

    def basis_representatives(self) -> np.ndarray:
        """Representatives of the class basis, one per row (dim x ambient)."""
        return self.z._rows(self._comp)

    def induced_from(self, other: "Subquotient", f: Matrix) -> Matrix:
        """Matrix (self.dim x other.dim) of the map other -> self induced by f.

        Checks f(Z_other) <= Z_self and f(B_other) <= B_self.
        """
        cycles = f.apply(other.z._rows())
        if not self.z.contains(cycles):
            raise ValueError("map does not preserve cycles")
        if not self.b.contains(f.apply(other.b._rows())):
            raise ValueError("map does not preserve boundaries")
        # the class basis of other is represented by Z-basis rows of its complement
        return Matrix(self.p, self.class_of(cycles[other._comp]).T)
