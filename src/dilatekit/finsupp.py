"""Finitely supported coordinate families over three index domains.

Elements of the infinite-dimensional spaces in this package are families
of columns in Q^d indexed by Z+ (one-sided sequences), Z (two-sided
sequences), or Z+ x Z+ (grids), with all but finitely many coordinates
zero. The support is kept in sorted order and zero columns are pruned.

Each column is held in a canonical integer form, a common denominator and
a tuple of numerators, ``(den, nums)`` with ``den >= 1`` and
``gcd(den, *nums) == 1``: the form of ``matrix.Mat``, built by the same
``column_of`` and ``reduce_column``. The form is unique, so structural
equality and hashing coincide with mathematical equality, and the
operators in ``seqops`` compute on it directly. ``Fraction`` coordinates
appear only in the views (``support``, ``coeff``, ``items``) read at the
boundary: JSON, report witnesses and tests.

A family may also be a block of ``width`` probes, carried through the
operators together: each index holds one ``(den, nums)`` for the dim x
width block, column-major, with one gcd for the whole block, so ``==``
compares all probes at once. Width 1 is the plain family; ``probe(j)``
reads probe j back as one, and the Fraction views take width 1 only.
"""

from __future__ import annotations

from enum import Enum
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence, Union

from .matrix import Column, Scalar, Vec, as_rat, column_of, fractions_of, reduce_column, zero_vec

Index = Union[int, tuple[int, int]]


class Domain(str, Enum):
    UNINAT = "uninat"
    BIINT = "biint"
    GRID = "grid"

    @property
    def origin(self) -> Index:
        return (0, 0) if self is Domain.GRID else 0


class FinsuppError(ValueError):
    pass


class DomainMismatch(FinsuppError):
    pass


class BadIndex(FinsuppError):
    pass


def _is_natural(k) -> bool:
    return isinstance(k, int) and not isinstance(k, bool) and k >= 0


def check_index(domain: Domain, index: Index) -> Index:
    if domain is Domain.GRID:
        if isinstance(index, tuple) and len(index) == 2:
            n, m = index
            if _is_natural(n) and _is_natural(m):
                return index
        raise BadIndex(f"grid index must be a pair of nonnegative ints, got {index!r}")
    if not isinstance(index, int) or isinstance(index, bool):
        raise BadIndex(f"index must be an int, got {index!r}")
    if domain is Domain.UNINAT and index < 0:
        raise BadIndex(f"one-sided index must be nonnegative, got {index}")
    return index


def space_name(domain: Domain, dim: int, width: int = 1) -> str:
    """How messages name a space: ``(domain, dim d)``, with the width of a
    block of more than one probe."""
    width_part = "" if width == 1 else f", width {width}"
    return f"({domain.value}, dim {dim}{width_part})"


def require_same_space(a: tuple[Domain, int, int], b: tuple[Domain, int, int]) -> None:
    """Raise DomainMismatch unless the spaces a and b, each (domain, dim,
    width), are one space, as comparing two families of them requires."""
    if a != b:
        raise DomainMismatch(f"incompatible spaces: {space_name(*a)} vs {space_name(*b)}")


def accumulate(acc: dict[Index, Column], index: Index, column: Optional[Column]) -> None:
    """Add a canonical column (None for zero) into acc[index], dropping the
    index if the sum cancels."""
    if column is None:
        return
    if index in acc:
        (da, na), (db, nb) = acc[index], column
        den = lcm(da, db)
        fa, fb = den // da, den // db
        column = reduce_column(den, [fa * x + fb * y for x, y in zip(na, nb)])
        if column is None:
            del acc[index]
            return
    acc[index] = column


class FsVec:
    """Immutable finitely supported family of Q^dim columns, or a block of
    ``width`` of them.

    ``columns`` maps each index of the support, in sorted order, to the
    canonical integer form ``(den, nums)`` of the column, or of the block.
    """

    __slots__ = ("domain", "dim", "width", "columns")

    def __init__(
        self,
        domain: Domain,
        dim: int,
        support: Union[Mapping[Index, Sequence[Scalar]], Iterable[tuple[Index, Sequence[Scalar]]]] = (),
    ):
        if dim < 1:
            raise FinsuppError(f"ambient dimension must be >= 1, got {dim}")
        items = support.items() if isinstance(support, Mapping) else support
        # every index given, with None for a zero column, so that a duplicate
        # is seen whichever of its columns is zero
        cleaned: dict[Index, Optional[Column]] = {}
        for index, value in items:
            index = check_index(domain, index)
            column = tuple(value)
            if len(column) != dim:
                raise DomainMismatch(
                    f"column at index {index} has length {len(column)}, expected {dim}"
                )
            if index in cleaned:
                raise FinsuppError(f"duplicate index {index} in support")
            cleaned[index] = column_of(column)
        _set_domain(self, domain)
        _set_dim(self, dim)
        _set_width(self, 1)
        # the indices are distinct, so sorting the items compares indices only
        _set_columns(self, dict(sorted((k, c) for k, c in cleaned.items() if c is not None)))

    def __setattr__(self, name, value):
        raise AttributeError("FsVec is immutable")

    @classmethod
    def _raw(
        cls,
        domain: Domain,
        dim: int,
        columns: Union[dict[Index, Column], Iterable[tuple[Index, Column]]],
        width: int,
    ) -> FsVec:
        # internal: trusts the indices to be valid for the domain, distinct and
        # in sorted order, and every column to be a nonzero canonical
        # (den, nums) of length dim * width. A dict is taken as it is, not
        # copied: it must be one that no one changes later, such as an
        # operator's fresh image.
        out = cls.__new__(cls)
        _set_domain(out, domain)
        _set_dim(out, dim)
        _set_width(out, width)
        _set_columns(out, columns if type(columns) is dict else dict(columns))
        return out

    @classmethod
    def zero(cls, domain: Domain, dim: int) -> FsVec:
        return cls(domain, dim)

    @classmethod
    def single(cls, domain: Domain, dim: int, index: Index, value: Sequence[Scalar]) -> FsVec:
        """The family supported at one index: e_index tensor value."""
        return cls(domain, dim, [(index, value)])

    def probe(self, j: int) -> FsVec:
        """Probe j of a block, as a width-1 family."""
        lo, hi = j * self.dim, (j + 1) * self.dim
        columns = [(k, reduce_column(c[0], c[1][lo:hi])) for k, c in self.columns.items()]
        return FsVec._raw(self.domain, self.dim, [(k, c) for k, c in columns if c is not None], 1)

    # ------------------------------------------------------------------
    # Fraction views, for the boundary

    @property
    def support(self) -> dict[Index, Vec]:
        """Index -> column of Fractions, in sorted index order."""
        return dict(self.items())

    def coeff(self, index: Index) -> Vec:
        check_index(self.domain, index)
        column = self._single().get(index)
        return zero_vec(self.dim) if column is None else fractions_of(*column)

    def items(self) -> tuple[tuple[Index, Vec], ...]:
        return tuple((k, fractions_of(*c)) for k, c in self._single().items())

    def _single(self) -> dict[Index, Column]:
        if self.width != 1:
            raise FinsuppError(f"a block of {self.width} probes has no Fraction view")
        return self.columns

    # ------------------------------------------------------------------

    def _require_compatible(self, other: FsVec) -> None:
        require_same_space(
            (self.domain, self.dim, self.width), (other.domain, other.dim, other.width)
        )

    def indices(self) -> tuple[Index, ...]:
        return tuple(self.columns)

    def is_zero(self) -> bool:
        return not self.columns

    def __add__(self, other: FsVec) -> FsVec:
        if not isinstance(other, FsVec):
            return NotImplemented
        self._require_compatible(other)
        acc = dict(self.columns)
        for index, column in other.columns.items():
            accumulate(acc, index, column)
        return FsVec._raw(self.domain, self.dim, sorted(acc.items()), self.width)

    def __sub__(self, other: FsVec) -> FsVec:
        return self + other.scale(-1)

    def __neg__(self) -> FsVec:
        return self.scale(-1)

    def scale(self, c: Scalar) -> FsVec:
        f = as_rat(c)
        p, q = f.numerator, f.denominator
        return FsVec._raw(
            self.domain,
            self.dim,
            [] if not p else [
                (k, reduce_column(den * q, [p * n for n in nums]))
                for k, (den, nums) in self.columns.items()
            ],
            self.width,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, FsVec):
            return NotImplemented
        self._require_compatible(other)
        return self.columns == other.columns

    def __hash__(self) -> int:
        return hash((self.domain, self.dim, self.width, tuple(self.columns.items())))

    def __repr__(self) -> str:
        if self.width != 1:
            return f"FsVec({self.domain.value}, dim={self.dim}, width={self.width}, {self.columns})"
        if self.is_zero():
            return f"FsVec({self.domain.value}, dim={self.dim}, 0)"
        parts = ", ".join(
            f"{k}: ({', '.join(str(x) for x in v)})" for k, v in self.items()
        )
        return f"FsVec({self.domain.value}, dim={self.dim}, {{{parts}}})"


# the slots' own setters, which go around the __setattr__ that keeps FsVec
# immutable, and cost less than object.__setattr__
_set_domain, _set_dim, _set_width, _set_columns = (
    FsVec.domain.__set__,
    FsVec.dim.__set__,
    FsVec.width.__set__,
    FsVec.columns.__set__,
)
