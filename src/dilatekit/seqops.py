"""Structured linear operators on finitely supported sequence spaces.

Operators are kept as structured terms and applied coordinatewise; they
are never materialized as infinite matrices, so every application of an
operator to a finitely supported element is a finite exact computation.

Naming convention for the standard quadruple pieces:

* ``EmbedI``       places an ambient vector at the origin index,
* ``ShiftRight``   moves one-sided coordinates up by one,
* ``ProjStd``      collapses a one-sided family to sum_n T^n x_n at 0,
* ``SchafferU``    acts on two-sided families by (Ux)_n = x_{n+1} + [n=0] T x_0,
* ``SchafferVInv`` is its two-sided inverse, the same operator mirrored,
* ``GridDown`` / ``GridRight`` shift grid rows / columns,
* ``ProjAndo``     collapses a grid to sum_{n,m} T^n S^m x_{n,m} at (0,0).

``Componentwise``, ``ColumnBlocks`` and ``BlockDense`` express general
maps between one-sided spaces with finitely many nonzero blocks;
``Componentwise`` also acts on the other two domains.

Every ``apply`` reads and writes the canonical integer columns of
``FsVec`` directly: shifts move columns without touching a number, and a
matrix action is an integer matrix-vector product followed by one gcd per
output column.

Every operator also acts on a block of probes (``FsVec.width`` > 1), with
one application for all: the matrix-vector product runs over the block's
column-major columns, and one gcd reduces each output block. The image of
a block is the block of its probes' images; ``EmbedI.apply_block`` builds
a block from ambient vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Mapping, Optional, Sequence

from .finsupp import Domain, DomainMismatch, FsVec, Index, accumulate
from .matrix import Column, Mat, Scalar, column_of, reduce_column


class OperandError(ValueError):
    """An operator was constructed from a bad argument; `field` names it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class SeqOp:
    """Base class: a structured operator between finitely supported spaces."""

    domain: Domain

    def apply(self, x: FsVec) -> FsVec:
        raise NotImplementedError

    def power_apply(self, n: int, x: FsVec) -> FsVec:
        """n-fold application; n = 0 is the identity."""
        if n < 0:
            raise ValueError(f"power must be nonnegative, got {n}")
        for _ in range(n):
            x = self.apply(x)
        return x

    def _check_input(self, x: FsVec, dim: int, domain: Domain) -> None:
        if not isinstance(x, FsVec) or x.domain is not domain or x.dim != dim:
            got = f"({x.domain.value}, dim {x.dim})" if isinstance(x, FsVec) else type(x).__name__
            raise DomainMismatch(
                f"{type(self).__name__} expects ({domain.value}, dim {dim}), got {got}"
            )


def _at(index: Index, column: Optional[Column]) -> list[tuple[Index, Column]]:
    """The support of a family with one (possibly zero) column."""
    return [] if column is None else [(index, column)]


def _sum_ints(terms: Sequence[tuple[int, Sequence[int]]]) -> Optional[Column]:
    """The sum of columns or blocks given as (den, nums) in any scale, added
    over the lcm of the denominators: canonical, or None if it is zero.
    A single term is only reduced."""
    if len(terms) == 1:
        return reduce_column(*terms[0])
    den = lcm(*(d for d, _ in terms))
    scaled = ([den // d * n for n in nums] for d, nums in terms)
    return reduce_column(den, [sum(entries) for entries in zip(*scaled)])


@dataclass(frozen=True)
class EmbedI(SeqOp):
    """Injective embedding of the ambient space at the origin index."""

    dim: int
    domain: Domain = Domain.UNINAT

    def apply(self, x: Sequence[Scalar]) -> FsVec:
        return self.apply_block([x])

    def apply_block(self, vectors: Sequence[Sequence[Scalar]]) -> FsVec:
        """The block whose probe j is the embedding of vectors[j]."""
        for x in vectors:
            if not isinstance(x, (tuple, list)) or len(x) != self.dim:
                got = f"length {len(x)}" if isinstance(x, (tuple, list)) else type(x).__name__
                raise DomainMismatch(f"EmbedI: ambient vectors have length {self.dim}, got {got}")
        column = column_of(v for x in vectors for v in x)
        return FsVec._raw(self.domain, self.dim, _at(self.domain.origin, column), len(vectors))


@dataclass(frozen=True)
class CoordProj0(SeqOp):
    """Idempotent projection onto the origin coordinate."""

    dim: int
    domain: Domain = Domain.BIINT

    def apply(self, x: FsVec) -> FsVec:
        self._check_input(x, self.dim, self.domain)
        origin = self.domain.origin
        return FsVec._raw(self.domain, self.dim, _at(origin, x.columns.get(origin)), x.width)


@dataclass(frozen=True)
class _Shift(SeqOp):
    """Moves every coordinate of a family one index along, by `_step`."""

    dim: int

    def apply(self, x: FsVec) -> FsVec:
        self._check_input(x, self.dim, self.domain)
        # every step is increasing in the index order, so the order is kept
        step = self._step
        columns = [(step(k), c) for k, c in x.columns.items()]
        return FsVec._raw(self.domain, self.dim, columns, x.width)


class ShiftRight(_Shift):
    """One-sided shift (x_0, x_1, ...) -> (0, x_0, x_1, ...)."""

    domain = Domain.UNINAT
    _step = staticmethod(lambda k: k + 1)


class ShiftBilat(_Shift):
    """Two-sided shift moving every coordinate up by one index."""

    domain = Domain.BIINT
    _step = staticmethod(lambda k: k + 1)


class GridDown(_Shift):
    """Grid shift (n, m) -> (n+1, m): a zero row appears at the top."""

    domain = Domain.GRID
    _step = staticmethod(lambda k: (k[0] + 1, k[1]))


class GridRight(_Shift):
    """Grid shift (n, m) -> (n, m+1): a zero column appears at the left."""

    domain = Domain.GRID
    _step = staticmethod(lambda k: (k[0], k[1] + 1))


def _square(T: Mat, name: str) -> Mat:
    if not T.is_square():
        raise OperandError(name, f"{name} must be square, got {T.rows}x{T.cols}")
    return T


@dataclass(frozen=True)
class SchafferU(SeqOp):
    """Two-sided operator with rows (Ux)_n = x_{n+1} + [n=0] T x_0: every
    coordinate moves `_step` along, and `_sign` T x_source enters at `_target`."""

    T: Mat
    domain = Domain.BIINT
    _step, _source, _target, _sign = -1, 0, 0, 1

    def __post_init__(self):
        _square(self.T, "T")
        object.__setattr__(self, "_coupling", self.T if self._sign > 0 else -self.T)

    @property
    def dim(self) -> int:
        return self.T.rows

    def apply(self, x: FsVec) -> FsVec:
        self._check_input(x, self.dim, Domain.BIINT)
        step, columns = self._step, x.columns
        acc = {k + step: c for k, c in columns.items()}
        source = columns.get(self._source)
        if source is not None:
            accumulate(acc, self._target, reduce_column(*self._coupling._apply_ints(*source)))
        return FsVec._raw(Domain.BIINT, self.dim, sorted(acc.items()), x.width)


class SchafferVInv(SchafferU):
    """Two-sided inverse with rows (Vx)_n = x_{n-1} + [n=1] (-T) x_{-1}:
    SchafferU mirrored.

    The own-coordinate entry at the origin is zero, so the correction only
    enters at index 1.
    """

    _step, _source, _target, _sign = 1, -1, 1, -1


class _PowerCache:
    """Memoized powers of a fixed square matrix.

    A miss for T^n starts from the largest cached T^k with k < n and stores
    only T^n = T^k T^(n-k), the second factor by repeated squaring: a run of
    consecutive exponents costs one product each, and a single large
    exponent about 2 log2(n). Writes are idempotent dict inserts, so
    concurrent apply calls on the same operator stay safe: racing threads
    at worst recompute the same immutable value.
    """

    def __init__(self, base: Mat):
        self.powers = {0: Mat.identity(base.rows), 1: base}
        self.base = base

    def get(self, n: int) -> Mat:
        powers = self.powers
        cached = powers.get(n)
        if cached is None:
            k = max(j for j in tuple(powers) if j < n)
            cached = powers.setdefault(n, powers[k] * self.base ** (n - k))
        return cached


@dataclass(frozen=True)
class ProjStd(SeqOp):
    """One-sided projection x -> e_0 (x) sum_n T^n x_n.

    Idempotent with range equal to the origin embedding of the ambient
    space. A subclass changes only the domain and `_term`, the term that
    one coordinate adds to the sum.
    """

    T: Mat
    domain = Domain.UNINAT

    def __post_init__(self):
        _square(self.T, "T")
        object.__setattr__(self, "_powers", _PowerCache(self.T))

    @property
    def dim(self) -> int:
        return self.T.rows

    def _term(self, n: int, column: Column) -> tuple[int, Sequence[int]]:
        # T^0 is the identity: the column itself, with no matvec
        return self._powers.get(n)._apply_ints(*column) if n else column

    def apply(self, x: FsVec) -> FsVec:
        domain, term = self.domain, self._term
        self._check_input(x, self.dim, domain)
        terms = [term(k, c) for k, c in x.columns.items()]
        return FsVec._raw(domain, self.dim, _at(domain.origin, _sum_ints(terms)), x.width)


@dataclass(frozen=True)
class ProjAndo(ProjStd):
    """Grid projection x -> e_(0,0) (x) sum_{n,m} T^n S^m x_{n,m}: `ProjStd`
    with a second map S that commutes with T.

    Per exponent m >= 1 it keeps the last column S^m was applied to and
    the image, reused while a cell at m holds that same column object: the
    grid shifts move columns unchanged, so on the cells U^n V^m I x the
    product S^m x is formed once per m, not once per cell (at m = 0 the
    term takes the column itself, as `ProjStd` does at n = 0). Each entry is
    one tuple, replaced whole, so concurrent apply calls stay safe as with
    `_PowerCache`: a racing thread at worst recomputes an image.
    """

    S: Mat
    domain = Domain.GRID

    def __post_init__(self):
        super().__post_init__()
        _square(self.S, "S")
        if self.T.rows != self.S.rows:
            raise OperandError(
                "S", f"operators act on different spaces: {self.T.rows} vs {self.S.rows}"
            )
        object.__setattr__(self, "_s_powers", _PowerCache(self.S))
        object.__setattr__(self, "_s_images", {})  # m -> (column, S^m column)

    def _term(self, cell: tuple[int, int], column: Column) -> tuple[int, Sequence[int]]:
        n, m = cell
        if m:
            last = self._s_images.get(m)
            if last is None or last[0] is not column:
                last = self._s_images[m] = (column, self._s_powers.get(m)._apply_ints(*column))
            column = last[1]
        return super()._term(n, column)


@dataclass(frozen=True)
class BlockDense(SeqOp):
    """A dense matrix acting blockwise on the first K one-sided coordinates.

    The matrix is (K*dim) x (K*dim); inputs supported outside {0..K-1} are
    rejected because the operator is only defined on that finite block.
    Inside it, this is the ``ColumnBlocks`` of the matrix's nonzero
    dim x dim blocks.
    """

    matrix: Mat
    dim: int
    domain = Domain.UNINAT

    def __post_init__(self):
        _square(self.matrix, "matrix")
        if self.matrix.rows % self.dim:
            raise OperandError(
                "matrix",
                f"matrix size {self.matrix.rows} is not a multiple of block dim {self.dim}",
            )
        d, k = self.dim, self.blocks_count
        blocks = {}
        for r in range(k):
            rows = self.matrix.nums[r * d : (r + 1) * d]
            for c in range(k):
                flat = [n for row in rows for n in row[c * d : (c + 1) * d]]
                if any(flat):
                    blocks[(r, c)] = Mat._reduced(self.matrix.den, flat, d)
        object.__setattr__(self, "_blocks", ColumnBlocks(blocks, dim_in=d, dim_out=d))

    @property
    def blocks_count(self) -> int:
        return self.matrix.rows // self.dim

    def apply(self, x: FsVec) -> FsVec:
        self._check_input(x, self.dim, Domain.UNINAT)
        k = self.blocks_count
        if any(index >= k for index in x.indices()):
            raise DomainMismatch(
                f"input supported outside the {k} coordinates this operator acts on"
            )
        return self._blocks.apply(x)


@dataclass(frozen=True)
class Componentwise(SeqOp):
    """Coordinatewise matrix action (x_k) -> (S x_k) on families over
    `domain`, one-sided unless given."""

    S: Mat
    domain: Domain = Domain.UNINAT

    @property
    def dim_in(self) -> int:
        return self.S.cols

    @property
    def dim_out(self) -> int:
        return self.S.rows

    def apply(self, x: FsVec) -> FsVec:
        self._check_input(x, self.dim_in, self.domain)
        columns = [(k, reduce_column(*self.S._apply_ints(*c))) for k, c in x.columns.items()]
        return FsVec._raw(self.domain, self.dim_out, [(k, c) for k, c in columns if c], x.width)


class ColumnBlocks(SeqOp):
    """General one-sided operator given by finitely many nonzero blocks.

    ``blocks[(r, c)]`` is the (dim_out x dim_in) block sending input
    coordinate c into output coordinate r. This is the largest operator
    class the package can check exactly, and exists to express
    user-supplied candidates for the intertwining converse.
    """

    domain = Domain.UNINAT

    def __init__(self, blocks: Mapping[tuple[int, int], Mat], dim_in: int, dim_out: int):
        cleaned: dict[tuple[int, int], Mat] = {}
        for (r, c), b in blocks.items():
            if r < 0 or c < 0:
                raise OperandError("blocks", f"negative block position ({r}, {c})")
            if b.rows != dim_out or b.cols != dim_in:
                raise OperandError(
                    "blocks", f"block ({r},{c}) is {b.rows}x{b.cols}, expected {dim_out}x{dim_in}"
                )
            if not b.is_zero():
                cleaned[(r, c)] = b
        self.blocks = {k: cleaned[k] for k in sorted(cleaned)}
        self.dim_in = dim_in
        self.dim_out = dim_out

    def __repr__(self) -> str:
        return f"ColumnBlocks({sorted(self.blocks)}, dim_in={self.dim_in}, dim_out={self.dim_out})"

    def apply(self, x: FsVec) -> FsVec:
        self._check_input(x, self.dim_in, Domain.UNINAT)
        acc: dict[Index, Column] = {}
        for (r, c), b in self.blocks.items():
            column = x.columns.get(c)
            if column is not None:
                accumulate(acc, r, reduce_column(*b._apply_ints(*column)))
        return FsVec._raw(Domain.UNINAT, self.dim_out, sorted(acc.items()), x.width)


@dataclass(frozen=True)
class Compose(SeqOp):
    """Composition of factors, applied right to left."""

    factors: tuple[SeqOp, ...]

    def apply(self, x):
        for f in reversed(self.factors):
            x = f.apply(x)
        return x


@dataclass(frozen=True)
class PowerOp(SeqOp):
    """A fixed nonnegative power of a single operator."""

    base: SeqOp
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise OperandError("n", f"power must be nonnegative, got {self.n}")

    def apply(self, x):
        return self.base.power_apply(self.n, x)

