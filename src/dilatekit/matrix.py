"""Dense matrices over exact rationals.

This is the oracle layer of the package: every closed-form construction
elsewhere is checked against exact Gauss-Jordan arithmetic done here.
Scalars are ``fractions.Fraction`` at the interface; floats are rejected so
that every equality test in the repository is exact.

Internally a matrix also has an integer form, computed on first use and
cached: one common denominator (the lcm of the entry denominators) and rows
of integer numerators. Products and matrix-vector products are integer dot
products over that form with one ``Fraction`` per result entry, and
elimination is fraction-free (Bareiss 1968, "Sylvester's identity and
multistep integer-preserving Gaussian elimination").
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction, str]
Vec = tuple[Fraction, ...]


class MatrixError(ValueError):
    """Base class for matrix arithmetic errors."""


class DimensionMismatch(MatrixError):
    pass


class NonSquareMatrix(MatrixError):
    pass


class SingularMatrix(MatrixError):
    pass


def as_rat(value: Scalar) -> Fraction:
    """Coerce an exact scalar to Fraction. Floats are refused."""
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise TypeError(f"not an exact scalar: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r} (floats are not allowed)")


def vec(values: Iterable[Scalar]) -> Vec:
    return tuple(as_rat(v) for v in values)


def zero_vec(dim: int) -> Vec:
    return (Fraction(0),) * dim


def unit_vec(dim: int, i: int) -> Vec:
    if not 0 <= i < dim:
        raise IndexError(f"unit vector index {i} out of range for dimension {dim}")
    return tuple(Fraction(1 if j == i else 0) for j in range(dim))


def vec_add(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise DimensionMismatch(f"vector lengths differ: {len(a)} vs {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def vec_is_zero(a: Vec) -> bool:
    return all(x == 0 for x in a)


def _integer_form(v: Vec) -> tuple[int, list[int]]:
    """Common denominator (lcm of the denominators) and the numerators over it."""
    den = lcm(*(q.denominator for q in v))
    return den, [q.numerator * (den // q.denominator) for q in v]


def _bareiss_rref(m: list[list[int]]) -> tuple[tuple[Vec, ...], tuple[int, ...]]:
    """RREF and pivot columns of an integer matrix, by fraction-free
    Gauss-Jordan elimination.

    Pivot choice: leftmost nonzero column, first nonzero row from the top.
    Every row other than the pivot row is updated as (p*a - f*b) // prev,
    where p is the pivot and prev the previous pivot; the division is exact
    by Sylvester's identity. At the end each pivot row is divided by its
    pivot, and the rows below the rank are zero.
    """
    rows, cols = len(m), len(m[0])
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        p = top[c]
        for i in range(rows):
            if i != r:
                f = m[i][c]
                m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], top)]
        prev = p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    reduced = tuple(tuple(Fraction(a, row[c]) for a in row) for row, c in zip(m, pivots))
    return reduced + ((Fraction(0),) * cols,) * (rows - r), tuple(pivots)


class Mat:
    """Immutable dense matrix of Fractions, row-major.

    `_ints` caches the integer form, (denominator, rows of numerators), once
    `_integer_rows` has computed it.
    """

    __slots__ = ("rows", "cols", "entries", "_ints")

    def __init__(self, entries: Sequence[Sequence[Scalar]]):
        grid = tuple(tuple(as_rat(v) for v in row) for row in entries)
        if not grid or not grid[0]:
            raise MatrixError("matrix must have at least one row and one column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise MatrixError("ragged rows in matrix literal")
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "_ints", None)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def _raw(cls, grid: tuple[tuple[Fraction, ...], ...]) -> Mat:
        # internal: trusts the grid to be a rectangular tuple of Fractions
        out = cls.__new__(cls)
        object.__setattr__(out, "rows", len(grid))
        object.__setattr__(out, "cols", len(grid[0]))
        object.__setattr__(out, "entries", grid)
        object.__setattr__(out, "_ints", None)
        return out

    def _integer_rows(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """The common denominator and the rows of integer numerators."""
        if self._ints is None:
            den, flat = _integer_form([x for row in self.entries for x in row])
            c = self.cols
            rows = tuple(tuple(flat[i : i + c]) for i in range(0, len(flat), c))
            object.__setattr__(self, "_ints", (den, rows))
        return self._ints

    @classmethod
    def identity(cls, n: int) -> Mat:
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> Mat:
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Scalar]]) -> Mat:
        cols = [vec(c) for c in columns]
        if not cols:
            raise MatrixError("need at least one column")
        if any(len(c) != len(cols[0]) for c in cols):
            raise MatrixError("columns of unequal length")
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))])

    @classmethod
    def block(cls, grid: Sequence[Sequence[Mat]]) -> Mat:
        """Assemble a matrix from a grid of conforming blocks."""
        if not grid or not grid[0]:
            raise MatrixError("empty block grid")
        heights = [row[0].rows for row in grid]
        widths = [b.cols for b in grid[0]]
        for i, row in enumerate(grid):
            if len(row) != len(widths):
                raise DimensionMismatch("ragged block grid")
            for j, b in enumerate(row):
                if b.rows != heights[i] or b.cols != widths[j]:
                    raise DimensionMismatch(
                        f"block ({i},{j}) is {b.rows}x{b.cols}, expected {heights[i]}x{widths[j]}"
                    )
        out = []
        for i, row in enumerate(grid):
            for r in range(heights[i]):
                out.append(tuple(x for b in row for x in b.entries[r]))
        return cls._raw(tuple(out))

    # ------------------------------------------------------------------
    # basic queries

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.entries[i][j]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def to_lists(self) -> list[list[Fraction]]:
        return [list(row) for row in self.entries]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Mat[{body}]"

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other: Mat) -> Mat:
        if not isinstance(other, Mat):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(
                f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )
        return Mat._raw(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other: Mat) -> Mat:
        return self + (-other)

    def __neg__(self) -> Mat:
        return Mat._raw(tuple(tuple(-x for x in row) for row in self.entries))

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise DimensionMismatch(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            da, ra = self._integer_rows()
            db, rb = other._integer_rows()
            den = da * db
            cols = tuple(zip(*rb))
            return Mat._raw(
                tuple(
                    tuple(Fraction(sum(map(mul, row, col)), den) for col in cols)
                    for row in ra
                )
            )
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c: Scalar) -> Mat:
        f = as_rat(c)
        return Mat._raw(tuple(tuple(f * x for x in row) for row in self.entries))

    def __pow__(self, n: int) -> Mat:
        if not self.is_square():
            raise NonSquareMatrix("matrix power requires a square matrix")
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return Mat.identity(self.rows)
        return self._positive_power(n)

    def _positive_power(self, n: int) -> Mat:
        """self ** n for a square self and n >= 1, by repeated squaring that
        stops after the top bit; self ** 1 is self itself, with no product."""
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def apply(self, x: Sequence[Scalar]) -> Vec:
        """Matrix-vector product, returning a plain coordinate tuple."""
        v = vec(x)
        if len(v) != self.cols:
            raise DimensionMismatch(
                f"cannot apply {self.rows}x{self.cols} to vector of length {len(v)}"
            )
        den, nums = self._apply_ints(*_integer_form(v))
        return tuple(Fraction(n, den) for n in nums)

    def _apply_ints(self, den: int, nums: Sequence[int]) -> tuple[int, list[int]]:
        """The product with the vector nums / den, in the same integer form.

        Internal: trusts nums to have length self.cols. The denominator is
        the product of the two, not reduced, so chains of products stay in
        integers and are reduced once, by the caller.
        """
        da, ra = self._integer_rows()
        return da * den, [sum(map(mul, row, nums)) for row in ra]

    def transpose(self) -> Mat:
        return Mat._raw(
            tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols))
        )

    def trace(self) -> Fraction:
        if not self.is_square():
            raise NonSquareMatrix("trace requires a square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), Fraction(0))

    # ------------------------------------------------------------------
    # elimination

    def rref(self) -> tuple[Mat, tuple[int, ...]]:
        """Reduced row echelon form and pivot columns.

        Pivot choice: leftmost nonzero column, first nonzero row from the
        top, pivot normalized to 1. Fully deterministic. Computed on the
        integer numerators, which have the same RREF.
        """
        reduced, pivots = _bareiss_rref([list(row) for row in self._integer_rows()[1]])
        return Mat._raw(reduced), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def inverse(self) -> Mat:
        """Exact inverse by Gauss-Jordan elimination on [A | I]."""
        if not self.is_square():
            raise NonSquareMatrix("inverse requires a square matrix")
        n = self.rows
        aug = Mat.block([[self, Mat.identity(n)]])
        reduced, pivots = aug.rref()
        left_rank = sum(1 for p in pivots if p < n)
        if left_rank < n:
            raise SingularMatrix(f"matrix has rank {left_rank} < {n}")
        return Mat._raw(tuple(row[n:] for row in reduced.entries))

    def column_space_basis(self) -> list[Vec]:
        """Canonical basis of the column space.

        Computed as the nonzero rows of rref(transpose), read back as
        columns, so equal column spaces always yield identical bases.
        """
        reduced, pivots = self.transpose().rref()
        return [reduced.entries[i] for i in range(len(pivots))]

    def kernel_basis(self) -> list[Vec]:
        """Canonical kernel basis from the rref free columns."""
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        basis: list[Vec] = []
        for free in range(self.cols):
            if free in pivot_set:
                continue
            v = [Fraction(0)] * self.cols
            v[free] = Fraction(1)
            for row_idx, p in enumerate(pivots):
                v[p] = -reduced.entries[row_idx][free]
            basis.append(tuple(v))
        return basis


def require_square(T: Mat, name: str = "T") -> Mat:
    if not T.is_square():
        raise NonSquareMatrix(f"{name} must be square, got {T.rows}x{T.cols}")
    return T


def rref_image_kernel(a: Mat) -> tuple[list[Vec], list[Vec]]:
    """Exact bases of the image and kernel; dims sum to a.cols."""
    return a.column_space_basis(), a.kernel_basis()


def span_rank(columns: Sequence[Vec]) -> int:
    """Rank of the span of a (possibly empty) list of coordinate columns."""
    cols = list(columns)
    if not cols:
        return 0
    return Mat.from_columns(cols).rank()


def in_span(columns: Sequence[Vec], x: Vec) -> bool:
    """Exact membership of x in the span of the given columns."""
    if vec_is_zero(x):
        return True
    if not columns:
        return False
    return span_rank(list(columns) + [x]) == span_rank(columns)
