"""Exact linear algebra over prime fields F_p on dense numpy arrays.

Everything downstream (module theory, resolutions, homology towers) reduces
to the operations in this module: canonical reduced row echelon form, kernel
and image bases, deterministic solving, preimages of subspaces, and induced
maps on (sub)quotients.  Matrices are immutable numpy int64 arrays with
entries reduced mod p; subspaces always carry their canonical RREF basis, so
subspace equality is entry-wise comparison.  Coordinate maps (reduce,
contains, coords, from_coords, apply, class_of, representative) take either
one vector or a block of row vectors, so a change of basis is one matrix
operation.

The matrices built upstream are Kronecker and block products of small action
matrices and are very sparse, so Gauss-Jordan elimination updates only the
rows that are nonzero in the pivot column.  Every product mod p in homct,
here and in the layers above, goes through ``mulmod``: float64 BLAS while
each dot product stays exactly representable (inner * (p-1)^2 < 2^53), and
int64 ``@`` beyond that, on inner blocks of floor((2^63-1) / (p-1)^2)
columns reduced mod p after each block, so no product wraps and none raises
OverflowError.  The modulus is bounded by (p-1)^2 < 2^63 (MAX_MODULUS), the
range of the eliminator's row update; every prime up to it computes.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "Matrix",
    "Subspace",
    "Subquotient",
    "rref",
    "kernel_basis",
    "image_basis",
    "solve",
    "solve_matrix",
    "preimage",
    "quotient_and_induced",
    "induced_on_subspaces",
    "mulmod",
    "matpow",
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


class Matrix:
    """Immutable dense matrix over F_p (row-major, int64 entries in [0, p))."""

    __slots__ = ("p", "a")

    def __init__(self, p: int, entries):
        if p > MAX_MODULUS:  # checked first: trial division of a huge p would not end
            raise ValueError(f"modulus {p} exceeds {MAX_MODULUS}: (p-1)^2 must stay below 2^63")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        a = np.asarray(entries, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError("matrix entries must be two-dimensional")
        a = np.mod(a, p)
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
        return Matrix(self.p, (self.a + other.a) % self.p)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.p != other.p or self.a.shape != other.a.shape:
            raise ValueError("shape or modulus mismatch")
        return Matrix(self.p, (self.a - other.a) % self.p)

    def __neg__(self) -> "Matrix":
        return Matrix(self.p, (-self.a) % self.p)

    def scale(self, c: int) -> "Matrix":
        return Matrix(self.p, (self.a * (c % self.p)) % self.p)

    def transpose(self) -> "Matrix":
        return Matrix(self.p, self.a.T)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Apply to a coordinate vector (cols,) or to each row of a block (k, cols)."""
        v = np.asarray(v, dtype=np.int64) % self.p
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
    return Matrix(a.p, np.kron(a.a, b.a) % a.p)


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
    MAX_MODULUS computes exactly; nothing wraps or raises.
    """
    inner = x.shape[-1]
    if inner * (p - 1) ** 2 < 2**53:
        out = (x.astype(np.float64) @ y.astype(np.float64)).astype(np.int64)
    else:
        step = (2**63 - 1) // (p - 1) ** 2
        out = x[..., :step] @ y[..., :step, :]
        for lo in range(step, inner, step):
            out %= p
            out += x[..., lo:lo + step] @ y[..., lo:lo + step, :] % p
    out %= p
    return out


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


def _rref_array(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan elimination mod p; returns (canonical RREF, pivot columns).

    Row-sparse: each pivot updates only the rows that are nonzero in its
    column, and only from the pivot column on, since the pivot row is zero
    to its left.  The result is the same canonical RREF as a dense update of
    every row.  Requires (p-1)^2 < 2^63 (MAX_MODULUS) for the row update.
    """
    r = np.mod(np.asarray(a, dtype=np.int64), p, order="C")
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
            r[row, col:] = (r[row, col:] * inv) % p
        hit = np.flatnonzero(r[:, col])
        hit = hit[hit != row]
        if hit.size:
            r[hit, col:] = (r[hit, col:] - np.outer(r[hit, col], r[row, col:])) % p
        pivots.append(col)
        row += 1
    return r, pivots


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
    return np.mod(np.asarray(v, dtype=np.int64), p, order="C")


class Subspace:
    """Subspace of F_p^n, stored as its unique RREF basis (rows)."""

    __slots__ = ("p", "ambient_dim", "basis", "pivots")

    def __init__(self, p: int, ambient_dim: int, basis_rows=None):
        self.p = p
        self.ambient_dim = ambient_dim
        if basis_rows is None:
            arr = np.zeros((0, ambient_dim), dtype=np.int64)
        else:
            arr = np.asarray(basis_rows, dtype=np.int64)
            if arr.size == 0:
                arr = np.zeros((0, ambient_dim), dtype=np.int64)
            else:
                arr = arr.reshape(-1, ambient_dim)
        red, pivots = _rref_array(arr, p)
        red = red[: len(pivots)]
        red.setflags(write=False)
        self.basis = Matrix(p, red)
        self.pivots = tuple(pivots)

    @staticmethod
    def zero(p: int, ambient_dim: int) -> "Subspace":
        return Subspace(p, ambient_dim)

    @staticmethod
    def full(p: int, ambient_dim: int) -> "Subspace":
        return Subspace(p, ambient_dim, np.eye(ambient_dim, dtype=np.int64))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.p == other.p
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.p, self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(p={self.p}, dim={self.dim}, ambient={self.ambient_dim})"

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Canonical representative of v modulo this subspace (pivot coords zeroed).

        v is a vector (n,) or a block of row vectors (k, n); so is the result.
        """
        w = _row_major(v, self.p)
        if w.ndim not in (1, 2) or w.shape[-1] != self.ambient_dim:
            raise ValueError("vector/ambient dimension mismatch")
        return (w - mulmod(np.take(w, self.pivots, axis=-1), self.basis.a, self.p)) % self.p

    def contains(self, v: np.ndarray) -> bool:
        """True iff v, or every row of the block v, lies in the subspace."""
        return not self.reduce(v).any()

    def contains_subspace(self, other: "Subspace") -> bool:
        return self.contains(other.basis.a)

    def coords(self, v: np.ndarray) -> np.ndarray:
        """Coordinates of v (or of each row of v) in the RREF basis; requires v in the subspace."""
        w = _row_major(v, self.p)
        c = np.take(w, self.pivots, axis=-1)
        if (mulmod(c, self.basis.a, self.p) != w).any():
            raise ValueError("vector not in subspace")
        return c

    def from_coords(self, c: np.ndarray) -> np.ndarray:
        """Ambient vector (or row block) with the given RREF-basis coordinates."""
        return mulmod(_row_major(c, self.p), self.basis.a, self.p)

    def complement_cols(self) -> list[int]:
        """Non-pivot coordinates: the canonical complement's coordinate set."""
        piv = set(self.pivots)
        return [j for j in range(self.ambient_dim) if j not in piv]

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient mismatch")
        return Subspace(self.p, self.ambient_dim, np.vstack([self.basis.a, other.basis.a]))

    def intersect(self, other: "Subspace") -> "Subspace":
        ann = np.vstack([annihilator(self).basis.a, annihilator(other).basis.a])
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
    rows[:, pivots] = (-r[: len(pivots), free].T) % p
    return rows


def kernel_basis(m: Matrix) -> Subspace:
    """Kernel {v : m v = 0} as a canonical Subspace of F_p^cols."""
    r, pivots = _rref_array(m.a, m.p)
    return Subspace(m.p, m.cols, _null_rows(r, pivots, m.p))


def image_basis(m: Matrix) -> Subspace:
    """Column space of m as a canonical Subspace of F_p^rows."""
    return Subspace(m.p, m.rows, m.a.T)


def solve(m: Matrix, rhs: np.ndarray) -> np.ndarray | None:
    """Deterministic solve m x = rhs; free variables pinned to zero.

    Returns None when the system is inconsistent (a value, not an error).
    """
    rhs = np.asarray(rhs, dtype=np.int64) % m.p
    if rhs.shape != (m.rows,):
        raise ValueError("rhs length mismatch")
    x = solve_matrix(m, Matrix(m.p, rhs.reshape(-1, 1)))
    return None if x is None else x.a[:, 0]


def solve_matrix(m: Matrix, rhs: Matrix) -> Matrix | None:
    """Solve m X = rhs column-wise; None if any column is inconsistent."""
    if rhs.rows != m.rows:
        raise ValueError("rhs rows mismatch")
    aug = np.hstack([m.a, rhs.a])
    r, pivots = _rref_array(aug, m.p)
    n = m.cols
    main = [c for c in pivots if c < n]
    if len(main) < len(pivots):
        return None
    rank = len(main)
    if r[rank:, n:].any():
        return None
    x = np.zeros((n, rhs.cols), dtype=np.int64)
    for i, c in enumerate(main):
        x[c] = r[i, n:]
    return Matrix(m.p, x)


def preimage(m: Matrix, s: Subspace) -> Subspace:
    """{v : m v in s}; contains ker m."""
    if s.ambient_dim != m.rows:
        raise ValueError(
            f"subspace ambient {s.ambient_dim} does not match codomain {m.rows}"
        )
    ann = annihilator(s)
    if ann.dim == 0:
        return Subspace.full(m.p, m.cols)
    return kernel_basis(Matrix(m.p, mulmod(ann.basis.a, m.a, m.p)))


def quotient_and_induced(f: Matrix, dom_sub: Subspace, cod_sub: Subspace) -> Matrix:
    """Matrix of the induced map (dom/dom_sub) -> (cod/cod_sub).

    Quotient coordinates are the canonical (non-pivot) complement coordinates
    of each RREF subspace, so induced(g o f) = induced(g) @ induced(f).
    Raises ValueError when f does not map dom_sub into cod_sub.
    """
    if dom_sub.ambient_dim != f.cols or cod_sub.ambient_dim != f.rows:
        raise ValueError("subspace/matrix dimension mismatch")
    if not cod_sub.contains(f.apply(dom_sub.basis.a)):
        raise ValueError("not submodule-compatible: f(dom_sub) not in cod_sub")
    # column j of f is the image of e_j; keep the complement columns of dom_sub
    images = f.a[:, dom_sub.complement_cols()].T
    return Matrix(f.p, cod_sub.reduce(images)[:, cod_sub.complement_cols()].T)


def quotient_projection(sub: Subspace) -> Matrix:
    """Projection F^n -> F^(n - dim sub) onto canonical complement coordinates.

    Column j is reduce(e_j) on the complement: the identity on complement
    columns and -basis[:, comp]^T on pivot columns.
    """
    return Matrix(sub.p, _null_rows(sub.basis.a, sub.pivots, sub.p))


def induced_on_subspaces(f: Matrix, dom: Subspace, cod: Subspace) -> Matrix:
    """Matrix of f restricted to dom -> cod in the RREF-basis coordinates.

    Requires f(dom) <= cod (checked via coords).
    """
    # row by row: one block of dom.dim x f.rows images raises peak memory on Ext chains
    cols = [cod.coords(f.apply(row)) for row in dom.basis.a]
    return Matrix(f.p, np.array(cols, dtype=np.int64).reshape(dom.dim, cod.dim).T)


class Subquotient:
    """A subquotient Z/B of F_p^n with canonical class coordinates.

    Z and B are subspaces with B <= Z.  Class coordinates are the canonical
    complement coordinates of B (expressed in Z's RREF basis) inside F^dim(Z),
    so every class has one distinguished representative and induced maps
    compose strictly.
    """

    __slots__ = ("p", "ambient_dim", "z", "b", "_b_in_z", "_comp")

    def __init__(self, z: Subspace, b: Subspace):
        if z.p != b.p or z.ambient_dim != b.ambient_dim:
            raise ValueError("Z/B ambient mismatch")
        try:
            b_in_z = z.coords(b.basis.a)  # raises unless every row of B lies in Z
        except ValueError:
            raise ValueError("B is not contained in Z") from None
        self.p = z.p
        self.ambient_dim = z.ambient_dim
        self.z = z
        self.b = b
        self._b_in_z = Subspace(z.p, z.dim, b_in_z)
        self._comp = self._b_in_z.complement_cols()

    @property
    def dim(self) -> int:
        return self.z.dim - self.b.dim

    def class_of(self, v: np.ndarray) -> np.ndarray:
        """Class coordinates of an ambient vector or row block; requires v in Z."""
        return self._b_in_z.reduce(self.z.coords(v))[..., self._comp]

    def representative(self, cls: np.ndarray) -> np.ndarray:
        """Distinguished ambient representative of class coordinates (vector or row block)."""
        return mulmod(_row_major(cls, self.p), self.basis_representatives(), self.p)

    def basis_representatives(self) -> np.ndarray:
        """Representatives of the class basis, one per row (dim x ambient)."""
        return self.z.basis.a[self._comp]

    def induced_from(self, other: "Subquotient", f: Matrix) -> Matrix:
        """Matrix (self.dim x other.dim) of the map other -> self induced by f.

        Checks f(Z_other) <= Z_self and f(B_other) <= B_self.
        """
        cycles = f.apply(other.z.basis.a)
        if not self.z.contains(cycles):
            raise ValueError("map does not preserve cycles")
        if not self.b.contains(f.apply(other.b.basis.a)):
            raise ValueError("map does not preserve boundaries")
        # the class basis of other is represented by Z-basis rows of its complement
        return Matrix(self.p, self.class_of(cycles[other._comp]).T)
