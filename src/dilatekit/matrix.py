"""Dense matrices over exact rationals.

This is the oracle layer of the package: every closed-form construction
elsewhere is checked against exact Gauss-Jordan arithmetic done here.
Scalars are ``fractions.Fraction`` at the interface; floats are rejected so
that every equality test in the repository is exact.

A matrix is stored in one canonical integer form: a denominator and rows of
integer numerators, ``(den, nums)`` with ``den >= 1`` and
``gcd(den, *all nums) == 1``. ``column_of`` and ``reduce_column`` state that
rule once, for a matrix's flattened grid here and for the columns of
``finsupp.FsVec``. The form is unique, so ``==`` and ``hash`` compare
integers. Products, powers, sums and elimination build it directly with one
gcd per result; elimination is fraction-free (Bareiss 1968, "Sylvester's
identity and multistep integer-preserving Gaussian elimination"): rank and
pivots by forward elimination, the inverse in place on the n x n numerators.
``Fraction`` entries appear only in the views read at the boundary:
``entries``, ``m[i, j]``, ``apply``, ``trace`` and the bases.

``_apply_ints`` also multiplies a block of probes, stored column-major over
one denominator as ``finsupp.FsVec`` keeps it, in one call.

Both integer products, ``Mat.__mul__`` and ``Mat._apply_ints``, run one dot
kernel per inner dimension n: a list comprehension with the n products
written out, ``a0*b0 + a1*b1 + ...``, generated from n alone. Its entries
cost no ``sum``, ``map`` or ``operator.mul`` call each, which on the small
integers of most checks cost as much as the multiplications. A kernel is
compiled on first use of its n and kept in ``_DOT_KERNELS``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

Scalar = Union[int, Fraction, str]
Vec = tuple[Fraction, ...]
Column = tuple[int, tuple[int, ...]]  # (den, nums): the numbers nums / den


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
    if isinstance(value, (int, Fraction, str)) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r} (floats and bools are not allowed)")


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


_RATIO = {Fraction: Fraction.as_integer_ratio, int: int.as_integer_ratio}


def column_of(values: Iterable[Scalar]) -> Optional[Column]:
    """The canonical integer form of a column of exact scalars, or None if
    it is zero. Floats and bools are refused, as by ``as_rat``.

    The denominator is the lcm of the entry denominators, built up in one
    pass. No gcd is needed: a prime power p^k that divides it exactly
    divides some entry's denominator b exactly, and that entry's numerator
    a * (den // b) is prime to p.
    """
    den = 1
    nums: list[int] = []
    for x in values:
        ratio = _RATIO.get(type(x))
        n, d = ratio(x) if ratio else as_rat(x).as_integer_ratio()
        if den % d:
            f = d // gcd(den, d)
            nums = [a * f for a in nums]
            den *= f
        nums.append(n * (den // d))
    return (den, tuple(nums)) if any(nums) else None


def reduce_column(den: int, nums: Sequence[int]) -> Optional[Column]:
    """The canonical form of the column nums / den for den >= 1, or None if
    it is zero: one gcd for the whole column."""
    if not any(nums):
        return None
    g = gcd(den, *nums)
    if g == 1:
        return den, tuple(nums)
    return den // g, tuple([n // g for n in nums])


def fractions_of(den: int, nums: Iterable[int]) -> Vec:
    """The Fraction view of the numbers nums / den."""
    return tuple(Fraction(n, den) for n in nums)


def _rows_of(flat: tuple[int, ...], cols: int) -> tuple[tuple[int, ...], ...]:
    return tuple(flat[i : i + cols] for i in range(0, len(flat), cols))


def _bareiss_rref(m: list[list[int]], forward: bool = False) -> tuple[int, tuple[int, ...]]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix, in
    place. Returns d and the pivot columns; the RREF is then m / d.

    Pivot choice: leftmost nonzero column, first nonzero row from the top.
    Every row other than the pivot row is updated as (p*a - f*b) // prev,
    where p is the pivot and prev the previous pivot; the division is exact
    by Sylvester's identity. An earlier pivot entry prev so becomes p, as
    the pivot row is zero in its column: at the end every pivot entry is the
    last pivot d, and the rows below the rank are zero.

    With forward, only the rows below each pivot are updated, from the
    pivot column on: the same pivots, but m is then not the RREF.
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
        if forward:
            tail = top[c:]
            for row in m[r + 1 :]:
                f = row[c]
                row[c:] = [(p * a - f * b) // prev for a, b in zip(row[c:], tail)]
        else:
            for i in range(rows):
                if i != r:
                    f = m[i][c]
                    m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], top)]
        prev = p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return prev, tuple(pivots)


def _dot_source(n: int) -> str:
    """The source of the dot kernel for inner dimension n >= 1: a lambda
    that takes rows and vectors, each an iterable of n-sequences, and lists
    the dot product of every row with every vector, vector by vector.

    The n products are summed as a balanced tree, so the expression nests
    about log2(n) deep; a left-to-right chain nests n deep, and compiling it
    exhausts the recursion limit for n in the thousands.
    """
    terms = [f"a{k}*b{k}" for k in range(n)]
    while len(terms) > 1:
        pairs = [f"({x} + {y})" for x, y in zip(terms[::2], terms[1::2])]
        terms = pairs + terms[2 * len(pairs) :]
    a = "".join(f"a{k}, " for k in range(n))
    b = "".join(f"b{k}, " for k in range(n))
    return f"lambda rows, vectors: [{terms[0]} for {b}in vectors for {a}in rows]"


class _DotKernels(dict):
    """The dot kernel of each inner dimension, compiled on first use."""

    def __missing__(self, n: int):
        code = compile(_dot_source(n), f"<dilatekit.matrix dot kernel n={n}>", "eval")
        kernel = self[n] = eval(code, {})
        return kernel


_DOT_KERNELS = _DotKernels()


_EMPTY = "matrix must have at least one row and one column"


class Mat:
    """Immutable dense rational matrix, row-major, stored only as its
    canonical integer form: ``den`` and the rows of numerators ``nums``.
    """

    __slots__ = ("rows", "cols", "den", "nums")

    def __new__(cls, entries: Sequence[Sequence[Scalar]]) -> Mat:
        grid = [tuple(row) for row in entries]
        if not grid or not grid[0]:
            raise MatrixError(_EMPTY)
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise MatrixError("ragged rows in matrix literal")
        den, flat = column_of(x for row in grid for x in row) or (1, (0,) * (len(grid) * width))
        return cls._raw(den, _rows_of(flat, width))

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    def __reduce__(self):  # for copy and pickle
        return Mat._raw, (self.den, self.nums)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def _raw(cls, den: int, nums: tuple[tuple[int, ...], ...]) -> Mat:
        # internal: trusts (den, nums) to be canonical, with nums a nonempty
        # rectangular tuple of int tuples; the slots' own setters go around
        # the __setattr__ that keeps Mat immutable
        out = object.__new__(cls)
        _set_rows(out, len(nums))
        _set_cols(out, len(nums[0]))
        _set_den(out, den)
        _set_nums(out, nums)
        return out

    @classmethod
    def _reduced(cls, den: int, flat: Sequence[int], cols: int) -> Mat:
        # internal: the matrix with row-major numerators flat over den >= 1,
        # brought to canonical form by one gcd
        den, flat = reduce_column(den, flat) or (1, tuple(flat))
        return cls._raw(den, _rows_of(flat, cols))

    @classmethod
    def identity(cls, n: int) -> Mat:
        if n < 1:
            raise MatrixError(_EMPTY)
        return cls._raw(1, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> Mat:
        if rows < 1 or cols < 1:
            raise MatrixError(_EMPTY)
        return cls._raw(1, ((0,) * cols,) * rows)

    @classmethod
    def block(cls, grid: Sequence[Sequence[Mat]]) -> Mat:
        """Assemble a matrix from a grid of conforming blocks.

        The blocks are brought over the lcm of their denominators, which is
        canonical with no gcd, by the argument in ``column_of``.
        """
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
        den = lcm(*(b.den for row in grid for b in row))
        rows = tuple(
            tuple(den // b.den * n for b in row for n in b.nums[r])
            for row, height in zip(grid, heights)
            for r in range(height)
        )
        return cls._raw(den, rows)

    # ------------------------------------------------------------------
    # Fraction views, for the boundary

    @property
    def entries(self) -> tuple[Vec, ...]:
        """The rows of Fraction entries, built on each read."""
        return tuple(fractions_of(self.den, row) for row in self.nums)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return Fraction(self.nums[i][j], self.den)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Mat[{body}]"

    # ------------------------------------------------------------------
    # basic queries

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(map(any, self.nums))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.den, self.nums))

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other: Mat) -> Mat:
        if not isinstance(other, Mat):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(
                f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        flat = [fa * a + fb * b for ra, rb in zip(self.nums, other.nums) for a, b in zip(ra, rb)]
        return Mat._reduced(den, flat, self.cols)

    def __sub__(self, other: Mat) -> Mat:
        return self + (-other)

    def __neg__(self) -> Mat:
        return Mat._raw(self.den, tuple(tuple(-n for n in row) for row in self.nums))

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise DimensionMismatch(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            flat = _DOT_KERNELS[self.cols](tuple(zip(*other.nums)), self.nums)
            return Mat._reduced(self.den * other.den, flat, other.cols)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c: Scalar) -> Mat:
        p, q = as_rat(c).as_integer_ratio()
        return Mat._reduced(self.den * q, [p * n for row in self.nums for n in row], self.cols)

    def __pow__(self, n: int) -> Mat:
        """By repeated squaring that stops after the top bit; self ** 1 is
        self itself, with no product."""
        if not self.is_square():
            raise NonSquareMatrix("matrix power requires a square matrix")
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return Mat.identity(self.rows)
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
        v = tuple(x)
        column = column_of(v) or (1, (0,) * len(v))
        if len(v) != self.cols:
            raise DimensionMismatch(
                f"cannot apply {self.rows}x{self.cols} to vector of length {len(v)}"
            )
        return fractions_of(*self._apply_ints(*column))

    def _apply_ints(self, den: int, nums: Sequence[int]) -> tuple[int, list[int]]:
        """The product with the vector nums / den, or with each of the
        column-major columns of a block, in the same integer form. It runs
        the dot kernel of self.cols, which writes out the self.cols products
        of each entry and so spends no sum or map call per entry; the kernel
        is compiled on the first product with that many columns, then cached.

        Internal: trusts the length of nums to be a multiple of self.cols.
        The denominator is the product of the two, not reduced, so chains
        of products stay in integers and are reduced once, by the caller.
        """
        columns = zip(*[iter(nums)] * self.cols)
        return self.den * den, _DOT_KERNELS[self.cols](self.nums, columns)

    def transpose(self) -> Mat:
        return Mat._raw(self.den, tuple(zip(*self.nums)))

    def trace(self) -> Fraction:
        if not self.is_square():
            raise NonSquareMatrix("trace requires a square matrix")
        return Fraction(sum(row[i] for i, row in enumerate(self.nums)), self.den)

    # ------------------------------------------------------------------
    # elimination

    def rref(self) -> tuple[Mat, tuple[int, ...]]:
        """Reduced row echelon form and pivot columns.

        Pivot choice: leftmost nonzero column, first nonzero row from the
        top, pivot normalized to 1. Fully deterministic. Computed on the
        integer numerators, which have the same RREF.
        """
        m = [list(row) for row in self.nums]
        d, pivots = _bareiss_rref(m)
        s = 1 if d > 0 else -1
        return Mat._reduced(s * d, [s * a for row in m for a in row], self.cols), pivots

    def pivot_columns(self) -> tuple[int, ...]:
        """The pivot columns of ``rref()``, by forward elimination alone."""
        return _bareiss_rref([list(row) for row in self.nums], forward=True)[1]

    def rank(self) -> int:
        return len(self.pivot_columns())

    def inverse(self) -> Mat:
        """Exact inverse by fraction-free Gauss-Jordan elimination in place.

        ``_bareiss_rref`` on [N | I], N the numerators, kept in n columns:
        the left half's columns before c and the right half's from c on are
        prev times unit vectors until column c is eliminated, which makes
        the right half's column c prev in the pivot row and -f in each other
        row (f its entry in column c), written over column c. A row swap is
        matched by a swap of right-half columns, undone at the end. That
        leaves d N^-1 for the last pivot d; the inverse is den N^-1.
        """
        if not self.is_square():
            raise NonSquareMatrix("inverse requires a square matrix")
        n = self.rows
        m = [list(row) for row in self.nums]
        swaps: list[tuple[int, int]] = []
        prev = 1
        for c in range(n):
            pivot_row = next((i for i in range(c, n) if m[i][c]), None)
            if pivot_row is None:
                raise SingularMatrix(f"matrix has rank {self.rank()} < {n}")
            if pivot_row != c:
                m[c], m[pivot_row] = m[pivot_row], m[c]
                swaps.append((c, pivot_row))
            top = m[c]
            p = top[c]
            for i in range(n):
                if i != c:
                    row = m[i]
                    f = row[c]
                    row = m[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
                    row[c] = -f
            top[c] = prev
            prev = p
        for c, j in reversed(swaps):
            for row in m:
                row[c], row[j] = row[j], row[c]
        f = self.den if prev > 0 else -self.den
        return Mat._reduced(abs(prev), [f * a for row in m for a in row], n)

    def column_space_basis(self) -> list[Vec]:
        """Canonical basis of the column space.

        Computed as the nonzero rows of rref(transpose), read back as
        columns, so equal column spaces always yield identical bases.
        """
        reduced, pivots = self.transpose().rref()
        return list(reduced.entries[: len(pivots)])

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
                v[p] = Fraction(-reduced.nums[row_idx][free], reduced.den)
            basis.append(tuple(v))
        return basis


_set_rows, _set_cols, _set_den, _set_nums = (
    Mat.rows.__set__,
    Mat.cols.__set__,
    Mat.den.__set__,
    Mat.nums.__set__,
)


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
    return Mat(cols).rank()  # the rank of the transpose


def in_span(columns: Sequence[Vec], x: Vec) -> bool:
    """Exact membership of x in the span of the given columns."""
    if not any(x):
        return True
    if not columns:
        return False
    return span_rank(list(columns) + [x]) == span_rank(columns)
