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

Every operator has two methods that the verifiers use, and ``apply`` is
written once, in ``SeqOp``, from them:

* ``codomain(space)`` checks an input space ``(domain, dim)`` and returns
  the space of the images, or raises ``DomainMismatch``;
* ``act(columns, space, width)`` maps the canonical integer columns of
  ``FsVec``, ``{index: (den, nums)}``, to those of the image, with no
  check: shifts move columns without touching a number, and a matrix
  action is an integer matrix-vector product and one gcd per column.

A class that defines ``apply`` itself (a test double, say) is always run
through it: its ``act`` wraps the columns in an ``FsVec``, calls that
``apply`` and checks the image's space. A column may be a block of probes
(``FsVec.width`` > 1), acted on by one application for all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm
from typing import Mapping, Optional, Sequence

from .finsupp import (
    Domain,
    DomainMismatch,
    FsVec,
    Index,
    accumulate,
    require_same_space,
    space_name,
)
from .matrix import Column, Mat, Scalar, column_of, reduce_column

Space = tuple[Domain, int]  # (domain, dim)
Columns = dict[Index, Column]  # canonical columns in sorted index order


class OperandError(ValueError):
    """An operator was constructed from a bad argument; `field` names it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class SeqOp:
    """Base class: a structured operator between finitely supported spaces.

    A subclass defines its column action as ``_act`` and, unless it maps
    every space to itself, ``codomain``. ``act``, the column action that
    callers use, is that ``_act``; for a class that defines ``apply``
    itself, it is ``_act_through_apply`` instead.
    """

    domain: Domain

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "apply" in vars(cls):
            cls.act = _act_through_apply
        elif "_act" in vars(cls):
            cls.act = cls._act

    def codomain(self, space: Space) -> Space:
        """The space of the images of families in `space`; DomainMismatch if
        the operator does not act on it. An operator that declares no spaces
        is taken to map each space to itself."""
        return space

    def _act(self, columns: Columns, space: Space, width: int) -> Columns:
        """The columns of the image of the family with these columns, in a
        space that `codomain` accepted."""
        raise NotImplementedError

    act = _act

    def apply(self, x: FsVec) -> FsVec:
        if not isinstance(x, FsVec):
            return self._apply_ambient(x)
        space = (x.domain, x.dim)
        domain, dim = self.codomain(space)
        return FsVec._raw(domain, dim, self._act(x.columns, space, x.width), x.width)

    def __call__(self, x: FsVec) -> FsVec:
        return self.apply(x)

    def _apply_ambient(self, x) -> FsVec:
        # the image of something other than a family: only an EmbedI, or a
        # chain that starts with one, takes an ambient vector
        raise DomainMismatch(f"{type(self).__name__} expects a family, got {type(x).__name__}")

    def power_apply(self, n: int, x: FsVec) -> FsVec:
        """n-fold application; n = 0 is the identity."""
        if n < 0:
            raise ValueError(f"power must be nonnegative, got {n}")
        for _ in range(n):
            x = self.apply(x)
        return x


def _act_through_apply(self: SeqOp, columns: Columns, space: Space, width: int) -> Columns:
    """`act` of a class that defines `apply` itself: the columns of that
    apply's image, which must lie in the space `codomain` names."""
    image = self.apply(FsVec._raw(*space, columns, width))
    require_same_space((image.domain, image.dim, image.width), (*self.codomain(space), width))
    return image.columns


class _OnOneSpace(SeqOp):
    """An operator that acts on one space, `space_in`, and maps it into
    `space_out`: by default both are (domain, dim)."""

    @property
    def space_in(self) -> Space:
        return self.domain, self.dim

    @property
    def space_out(self) -> Space:
        return self.space_in

    def codomain(self, space: Space) -> Space:
        if space != self.space_in:
            raise self._mismatch(space_name(*space))
        return self.space_out

    def _apply_ambient(self, x) -> FsVec:
        raise self._mismatch(type(x).__name__)

    def _mismatch(self, got: str) -> DomainMismatch:
        return DomainMismatch(f"{type(self).__name__} expects {space_name(*self.space_in)}, got {got}")


def _at(index: Index, column: Optional[Column]) -> Columns:
    """The support of a family with one (possibly zero) column."""
    return {} if column is None else {index: column}


def _sum_ints(terms: Sequence[tuple[int, Sequence[int]]]) -> Optional[Column]:
    """The sum of columns or blocks given as (den, nums) in any scale, added
    over the lcm of the denominators: canonical, or None if zero or empty."""
    den = lcm(*(d for d, _ in terms))
    scaled = ([den // d * n for n in nums] for d, nums in terms)
    return reduce_column(den, [sum(entries) for entries in zip(*scaled)])


@dataclass(frozen=True)
class EmbedI(SeqOp):
    """Injective embedding of the ambient space at the origin index.

    Its input is ambient vectors, not families, so it keeps its own
    ``apply`` and acts in no chain of families."""

    dim: int
    domain: Domain = Domain.UNINAT

    def codomain(self, space: Space) -> Space:
        raise DomainMismatch(f"EmbedI: ambient vectors have length {self.dim}, got FsVec")

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
class CoordProj0(_OnOneSpace):
    """Idempotent projection onto the origin coordinate."""

    dim: int
    domain: Domain = Domain.BIINT

    def __post_init__(self):
        object.__setattr__(self, "_origin", self.domain.origin)

    def _act(self, columns: Columns, space: Space, width: int) -> Columns:
        return _at(self._origin, columns.get(self._origin))


@dataclass(frozen=True)
class _Shift(_OnOneSpace):
    """Moves every coordinate of a family one index along, by `_step`."""

    dim: int

    def _act(self, columns: Columns, space: Space, width: int) -> Columns:
        # every step is increasing in the index order, so the order is kept
        step = self._step
        return {step(k): c for k, c in columns.items()}


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
class SchafferU(_OnOneSpace):
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

    def _act(self, columns: Columns, space: Space, width: int) -> Columns:
        step = self._step
        acc = {k + step: c for k, c in columns.items()}
        source = columns.get(self._source)
        if source is not None:
            accumulate(acc, self._target, reduce_column(*self._coupling._apply_ints(*source)))
        return dict(sorted(acc.items()))


class SchafferVInv(SchafferU):
    """Two-sided inverse with rows (Vx)_n = x_{n-1} + [n=1] (-T) x_{-1}:
    SchafferU mirrored.

    The own-coordinate entry at the origin is zero, so the correction only
    enters at index 1.
    """

    _step, _source, _target, _sign = 1, -1, 1, -1


class _PowerCache:
    """Memoized powers of a fixed square matrix, for the projections' terms
    where they cannot step. A miss for T^n starts from the largest cached
    T^k with k < n and stores only T^n = T^k T^(n-k), the second factor by
    repeated squaring: a run of consecutive exponents costs one product
    each, and a single large exponent about 2 log2(n). Writes are
    idempotent dict inserts, so concurrent apply calls on the same operator
    stay safe: racing threads at worst recompute the same immutable value.
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


def _times(M: Mat, image: Optional[Column]) -> Optional[Column]:
    """The canonical column M image, or None if it is zero."""
    return None if image is None else reduce_column(*M._apply_ints(*image))


@dataclass(frozen=True)
class ProjStd(_OnOneSpace):
    """One-sided projection x -> e_0 (x) sum_n T^n x_n, idempotent with range
    the origin embedding of the ambient space.

    It steps from its last image: per slot (`_slot`; one here) it keeps the
    last column seen, its exponent n and its image T^n column, and that
    column met again at n + 1 costs one matvec by T. The shifts move
    columns unchanged, so on the cells U^n I x no power of T is formed; any
    other column takes `_first`, the cached power. Entries are replaced
    whole, so concurrent apply calls stay safe."""

    T: Mat
    domain = Domain.UNINAT
    _origin = 0
    _slot = staticmethod(lambda n: (0, n))  # a coordinate's slot and exponent of T

    def __post_init__(self):
        _square(self.T, "T")
        object.__setattr__(self, "_powers", _PowerCache(self.T))
        object.__setattr__(self, "_steps", {})  # slot -> (column, n, image)

    @property
    def dim(self) -> int:
        return self.T.rows

    def _first(self, n: int, column: Column) -> Optional[Column]:
        # T^0 is the identity: the column itself, with no matvec
        return _times(self._powers.get(n), column) if n else column

    def _term(self, index: Index, column: Column) -> Optional[Column]:
        slot, n = self._slot(index)
        last, n_last, image = self._steps.get(slot, (None, None, None))
        stepped = last is column and n_last == n - 1
        image = _times(self.T, image) if stepped else self._first(index, column)
        self._steps[slot] = (column, n, image)
        return image

    def _act(self, columns: Columns, space: Space, width: int) -> Columns:
        terms = [t for t in map(self._term, columns, columns.values()) if t is not None]
        # a single term is canonical already
        return _at(self._origin, terms[0] if len(terms) == 1 else _sum_ints(terms))


@dataclass(frozen=True)
class ProjAndo(ProjStd):
    """Grid projection x -> e_(0,0) (x) sum_{n,m} T^n S^m x_{n,m}: `ProjStd`
    with a second map S that commutes with T, and a slot per grid column m.
    On row 0 a column also steps along the row, by S from its image at
    (0, m - 1), so on the cells U^n V^m I x no power is formed either."""

    S: Mat
    domain = Domain.GRID
    _origin = (0, 0)
    _slot = staticmethod(lambda cell: (cell[1], cell[0]))

    def __post_init__(self):
        super().__post_init__()
        _square(self.S, "S")
        if self.T.rows != self.S.rows:
            raise OperandError(
                "S", f"operators act on different spaces: {self.T.rows} vs {self.S.rows}"
            )
        object.__setattr__(self, "_s_powers", _PowerCache(self.S))

    def _first(self, cell: tuple[int, int], column: Column) -> Optional[Column]:
        n, m = cell
        left, n_left, image = self._steps.get(m - 1, (None, None, None))
        if left is column and n_left == n == 0:
            return _times(self.S, image)
        return super()._first(n, _times(self._s_powers.get(m), column) if m else column)


@dataclass(frozen=True)
class BlockDense(_OnOneSpace):
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

    def _act(self, columns: Columns, space: Space, width: int) -> Columns:
        k = self.blocks_count
        if any(index >= k for index in columns):
            raise DomainMismatch(
                f"input supported outside the {k} coordinates this operator acts on"
            )
        return self._blocks.act(columns, space, width)


@dataclass(frozen=True)
class Componentwise(_OnOneSpace):
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

    @property
    def space_in(self) -> Space:
        return self.domain, self.S.cols

    @property
    def space_out(self) -> Space:
        return self.domain, self.S.rows

    def _act(self, columns: Columns, space: Space, width: int) -> Columns:
        apply_ints, out = self.S._apply_ints, {}
        for k, c in columns.items():
            c = reduce_column(*apply_ints(*c))
            if c is not None:
                out[k] = c
        return out


class ColumnBlocks(_OnOneSpace):
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

    @property
    def space_in(self) -> Space:
        return Domain.UNINAT, self.dim_in

    @property
    def space_out(self) -> Space:
        return Domain.UNINAT, self.dim_out

    def _act(self, columns: Columns, space: Space, width: int) -> Columns:
        acc: Columns = {}
        for (r, c), b in self.blocks.items():
            column = columns.get(c)
            if column is not None:
                accumulate(acc, r, reduce_column(*b._apply_ints(*column)))
        return dict(sorted(acc.items()))


@dataclass(frozen=True)
class Compose(SeqOp):
    """Composition of factors, applied right to left: their column actions
    chain, and so do their space checks, run once per input space and kept."""

    factors: tuple[SeqOp, ...]

    def __post_init__(self):
        object.__setattr__(self, "_chains", {})  # input space -> the spaces of the steps

    def _spaces(self, space: Space) -> tuple[Space, ...]:
        spaces = self._chains.get(space)
        if spaces is None:
            factors = reversed(self.factors)
            spaces = tuple(itertools.accumulate(factors, lambda s, f: f.codomain(s), initial=space))
            self._chains[space] = spaces
        return spaces

    def codomain(self, space: Space) -> Space:
        return self._spaces(space)[-1]

    def _act(self, columns: Columns, space: Space, width: int) -> Columns:
        for f, f_space in zip(reversed(self.factors), self._spaces(space)):
            columns = f.act(columns, f_space, width)
        return columns

    def _apply_ambient(self, x) -> FsVec:
        # an ambient vector enters through the first factor applied
        if not self.factors:
            return x
        *rest, first = self.factors
        return Compose(tuple(rest)).apply(first.apply(x))


@dataclass(frozen=True)
class PowerOp(SeqOp):
    """A fixed nonnegative power of a single operator."""

    base: SeqOp
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise OperandError("n", f"power must be nonnegative, got {self.n}")

    def codomain(self, space: Space) -> Space:
        # once the base maps a space into itself, further powers stay there
        for _ in range(self.n):
            image = self.base.codomain(space)
            if image == space:
                break
            space = image
        return space

    def _act(self, columns: Columns, space: Space, width: int) -> Columns:
        base = self.base
        for _ in range(self.n):
            columns = base.act(columns, space, width)
            space = base.codomain(space)
        return columns

    def _apply_ambient(self, x) -> FsVec:
        return self.base.power_apply(self.n, x)
