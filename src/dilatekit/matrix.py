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
integers of most checks cost as much as the multiplications.

Elimination runs the same way: every Bareiss row update of ``rref``,
``inverse`` and the forward pass behind ``pivot_columns`` and ``rank`` goes
through one row kernel per row width n. It updates all the other rows of a
pivot step in one call, each entry written out as
``(b0*a_k - a0*b_k) // prev`` with the pivot column first, and drops that
column, so the rows hold only the columns still to be updated; the
inverse's variant of the kernel also appends the right half's column of
the pivot. Each row of the numerators is first divided by its content
(gcd): the RREF and the pivots do not change when a row is scaled, the
inverse takes the scaling back in its right half, and the Bareiss numbers,
minors of the reduced rows, stay smaller.

A kernel of each kind is compiled on the first use of its n, never at
import, and kept in ``_DOT_KERNELS`` or ``_ROW_KERNELS`` under the filename
``<dilatekit.matrix KIND kernel n=N>`` that profiles show
(``_INVERSE_KERNELS`` holds the inverse's row kernels).
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


def _rows_of(flat: Iterable[int], cols: int) -> tuple[tuple[int, ...], ...]:
    return tuple(zip(*[iter(flat)] * cols))


def _content_reduced(nums: Sequence[Sequence[int]]) -> tuple[list[Sequence[int]], list[int]]:
    """The rows divided by their contents (gcds), and the contents. A zero
    row has content 0 and stays zero; a row of content 1 is kept as it is."""
    contents = [gcd(*row) for row in nums]
    if contents.count(1) == len(contents):
        return list(nums), contents
    return [row if g < 2 else [a // g for a in row] for row, g in zip(nums, contents)], contents


def _rref_ints(m: list[Sequence[int]], cols: int) -> tuple[int, tuple[int, ...], list[int]]:
    """Fraction-free Gauss-Jordan elimination of the integer rows m, of
    width cols. Returns the last pivot d, the pivot columns and the RREF's
    numerators over d, row-major.

    Pivot choice: leftmost nonzero column, first nonzero row from the top.
    The row kernel updates every row other than the pivot row as
    (p*a - f*b) // prev, where p is the pivot, prev the previous pivot and
    f the row's entry in the pivot column; the division is exact by
    Sylvester's identity. The rows hold only the columns still to be
    updated, the current one first: the kernel drops the pivot column, and
    a column without a pivot, zero below the rows with pivots, moves to the
    end of every row. The pivot entries are all d at the end, as each step
    turns an earlier one, prev, into p.
    """
    rows = len(m)
    pivots: list[int] = []
    free: list[int] = []  # the columns without a pivot, in the order they were moved
    prev = 1
    for c in range(cols):
        r = len(pivots)
        pivot_row = r if m[r][0] else next((i for i in range(r + 1, rows) if m[i][0]), None)
        if pivot_row is None:
            m = [[*row[1:], row[0]] for row in m]
            free.append(c)
            continue
        top = m.pop(pivot_row)
        if m:
            m = _ROW_KERNELS[len(top)](top, m, prev)
        m.insert(r, top[1:])
        prev = top[0]
        pivots.append(c)
        if r + 1 == rows:
            break
    held = [*range(c + 1, cols), *free]  # the column of each entry the rows still hold
    flat: list[int] = []
    for p, row in zip(pivots, m):
        full = [0] * cols
        full[p] = prev
        for j, a in zip(held, row):
            full[j] = a
        flat += full
    flat += [0] * (cols * (rows - len(pivots)))
    return prev, tuple(pivots), flat


def _forward_pivots(m: list[Sequence[int]]) -> tuple[int, ...]:
    """The pivot columns of ``_rref_ints(m)``, by forward elimination alone.

    Each pivot row is taken out, and the row kernel updates the rows left,
    dropping the pivot column; a column without a pivot, zero in every row
    left, is dropped too. So m shrinks to the rows without a pivot, from
    the current column on; the pivots do not depend on the order of the
    rows.
    """
    pivots: list[int] = []
    prev = 1
    for c in range(len(m[0])):
        pivot_row = 0 if m[0][0] else next((i for i in range(1, len(m)) if m[i][0]), None)
        if pivot_row is None:
            m = [row[1:] for row in m]
            continue
        top = m.pop(pivot_row)
        pivots.append(c)
        if not m:
            break
        m = _ROW_KERNELS[len(top)](top, m, prev)
        prev = top[0]
    return tuple(pivots)


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


def _row_source(n: int, inverse: bool = False) -> str:
    """The source of the Bareiss row kernel for row width n >= 1: a lambda
    that takes the pivot row b, the other rows and the previous pivot prev,
    with the pivot column first in every row, and lists each row a updated
    entry by entry as (b0*a_k - a0*b_k) // prev for k = 1, ..., n - 1. The
    pivot column, which the update makes zero, is dropped.

    The inverse's kernel takes one more number s, and appends -a0*s to each
    row: its entry in the right half's column of the pivot (see
    ``Mat.inverse``).
    """
    a = "".join(f"a{k}, " for k in range(n))
    b = "".join(f"b{k}, " for k in range(n))
    row = "".join(f"(b0*a{k} - a0*b{k}) // prev, " for k in range(1, n))
    if inverse:
        return f"lambda top, rows, prev, s: [[{row}-a0*s] for {b}in (top,) for {a}in rows]"
    return f"lambda top, rows, prev: [[{row}] for {b}in (top,) for {a}in rows]"


class _Kernels(dict):
    """The kernels of one kind, by width n, each compiled on first use from
    the source that ``source(n)`` generates."""

    def __init__(self, kind: str, source):
        super().__init__()
        self.kind, self.source = kind, source

    def __missing__(self, n: int):
        code = compile(self.source(n), f"<dilatekit.matrix {self.kind} kernel n={n}>", "eval")
        kernel = self[n] = eval(code, {})
        return kernel


_DOT_KERNELS = _Kernels("dot", _dot_source)
_ROW_KERNELS = _Kernels("row", _row_source)
_INVERSE_KERNELS = _Kernels("inverse row", lambda n: _row_source(n, inverse=True))


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
        # brought to canonical form by one gcd (a zero matrix to den 1): the
        # rule of reduce_column, without its zero test and tuple copy, as
        # _rows_of builds the rows
        g = gcd(den, *flat)
        if g > 1:
            den, flat = den // g, [n // g for n in flat]
        return cls._raw(den, _rows_of(flat, cols))

    @classmethod
    def identity(cls, n: int) -> Mat:
        if n < 1:
            raise MatrixError(_EMPTY)
        # row i is a slice of one row with its 1 in the middle
        unit = (0,) * (n - 1) + (1,) + (0,) * (n - 1)
        return cls._raw(1, tuple(unit[n - 1 - i : 2 * n - 1 - i] for i in range(n)))

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
        top, pivot normalized to 1. Fully deterministic. Computed by
        ``_rref_ints`` through the row kernel, on the integer numerators
        with each row divided by its content (gcd): scaling a row changes
        neither the RREF nor the pivots, and smaller rows keep the
        eliminated numbers smaller.
        """
        m, _ = _content_reduced(self.nums)
        d, pivots, flat = _rref_ints(m, self.cols)
        if d < 0:
            d, flat = -d, [-a for a in flat]
        return Mat._reduced(d, flat, self.cols), pivots

    def pivot_columns(self) -> tuple[int, ...]:
        """The pivot columns of ``rref()``, by forward elimination alone
        (``_forward_pivots``, through the row kernel) on the numerators
        with each row divided by its content."""
        return _forward_pivots(_content_reduced(self.nums)[0])

    def rank(self) -> int:
        return len(self.pivot_columns())

    def inverse(self) -> Mat:
        """Exact inverse by fraction-free Gauss-Jordan elimination in place.

        The numerators are N = diag(g) N', g the row contents, so with L the
        lcm of g and s = L / g entrywise, U^-1 = den N^-1 = (den / L)
        N'^-1 diag(s): the scaling is folded into the right half of
        [N' | diag(s)], which is eliminated in n columns per row. Before
        step c a row holds the left half's columns from c on, then the right
        half's columns before c; each right-half column j from c on is
        prev s_j e_j. The inverse's row kernel updates the rows other than
        the pivot row, drops column c and appends the right half's column c,
        -f s_c (f the row's entry in column c); the pivot row gets prev s_c
        in its place. A row swap also swaps the entries of s, and is matched
        by a swap of right-half columns, undone at the end. That leaves
        d N'^-1 diag(s) for the last pivot d, and one multiply by den and
        one ``_reduced`` give U^-1.
        """
        if not self.is_square():
            raise NonSquareMatrix("inverse requires a square matrix")
        n = self.rows
        m, contents = _content_reduced(self.nums)
        common = lcm(*contents)  # 0 if a row is zero: then a column has no pivot
        scale = contents if common < 2 else [common // g for g in contents]
        kernel = _INVERSE_KERNELS[n]
        swaps: list[tuple[int, int]] = []
        prev = 1
        for c in range(n):
            pivot_row = c if m[c][0] else next((i for i in range(c + 1, n) if m[i][0]), None)
            if pivot_row is None:
                raise SingularMatrix(f"matrix has rank {self.rank()} < {n}")
            if pivot_row != c:
                m[c], m[pivot_row] = m[pivot_row], m[c]
                scale[c], scale[pivot_row] = scale[pivot_row], scale[c]
                swaps.append((c, pivot_row))
            top = m.pop(c)
            s = scale[c]
            if m:  # the other rows: none when n = 1
                m = kernel(top, m, prev, s)
            m.insert(c, [*top[1:], prev * s])
            prev = top[0]
        for c, j in reversed(swaps):
            for row in m:
                row[c], row[j] = row[j], row[c]
        f = self.den if prev > 0 else -self.den
        return Mat._reduced(abs(prev) * common, [f * a for row in m for a in row], n)

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
