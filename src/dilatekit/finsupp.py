"""Finitely supported coordinate families over three index domains.

Elements of the infinite-dimensional spaces in this package are families
of columns in Q^d indexed by Z+ (one-sided sequences), Z (two-sided
sequences), or Z+ x Z+ (grids), with all but finitely many coordinates
zero. The support is kept in sorted order and zero columns are pruned, so
structural equality coincides with mathematical equality.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Mapping, Sequence, Union

from .matrix import Scalar, Vec, vec, vec_add, vec_is_zero, vec_scale

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


def check_index(domain: Domain, index: Index) -> Index:
    if domain is Domain.GRID:
        if (
            isinstance(index, tuple)
            and len(index) == 2
            and all(isinstance(k, int) and not isinstance(k, bool) and k >= 0 for k in index)
        ):
            return index
        raise BadIndex(f"grid index must be a pair of nonnegative ints, got {index!r}")
    if not isinstance(index, int) or isinstance(index, bool):
        raise BadIndex(f"index must be an int, got {index!r}")
    if domain is Domain.UNINAT and index < 0:
        raise BadIndex(f"one-sided index must be nonnegative, got {index}")
    return index


class FsVec:
    """Immutable finitely supported family of Q^dim columns."""

    __slots__ = ("domain", "dim", "support")

    def __init__(
        self,
        domain: Domain,
        dim: int,
        support: Union[Mapping[Index, Sequence[Scalar]], Iterable[tuple[Index, Sequence[Scalar]]]] = (),
    ):
        if dim < 1:
            raise FinsuppError(f"ambient dimension must be >= 1, got {dim}")
        items = support.items() if isinstance(support, Mapping) else support
        cleaned: dict[Index, Vec] = {}
        for index, value in items:
            index = check_index(domain, index)
            column = vec(value)
            if len(column) != dim:
                raise DomainMismatch(
                    f"column at index {index} has length {len(column)}, expected {dim}"
                )
            if index in cleaned:
                raise FinsuppError(f"duplicate index {index} in support")
            if not vec_is_zero(column):
                cleaned[index] = column
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "support", {k: cleaned[k] for k in sorted(cleaned)})

    def __setattr__(self, name, value):
        raise AttributeError("FsVec is immutable")

    @classmethod
    def _raw(cls, domain: Domain, dim: int, support: Iterable[tuple[Index, Vec]]) -> FsVec:
        # internal: trusts the indices to be valid for the domain, distinct and
        # in sorted order, and every column to be a length-dim tuple of
        # Fractions; zero columns are still pruned
        out = cls.__new__(cls)
        object.__setattr__(out, "domain", domain)
        object.__setattr__(out, "dim", dim)
        object.__setattr__(out, "support", {k: v for k, v in support if any(v)})
        return out

    @classmethod
    def zero(cls, domain: Domain, dim: int) -> FsVec:
        return cls(domain, dim)

    @classmethod
    def single(cls, domain: Domain, dim: int, index: Index, value: Sequence[Scalar]) -> FsVec:
        """The family supported at one index: e_index tensor value."""
        return cls(domain, dim, [(index, value)])

    # ------------------------------------------------------------------

    def _require_compatible(self, other: FsVec) -> None:
        if self.domain is not other.domain or self.dim != other.dim:
            raise DomainMismatch(
                f"incompatible spaces: ({self.domain.value}, dim {self.dim}) vs "
                f"({other.domain.value}, dim {other.dim})"
            )

    def coeff(self, index: Index) -> Vec:
        check_index(self.domain, index)
        return self.support.get(index, (vec([0] * self.dim)))

    def indices(self) -> tuple[Index, ...]:
        return tuple(self.support)

    def items(self) -> tuple[tuple[Index, Vec], ...]:
        return tuple(self.support.items())

    def is_zero(self) -> bool:
        return not self.support

    def __add__(self, other: FsVec) -> FsVec:
        if not isinstance(other, FsVec):
            return NotImplemented
        self._require_compatible(other)
        acc = dict(self.support)
        for index, value in other.support.items():
            if index in acc:
                acc[index] = vec_add(acc[index], value)
            else:
                acc[index] = value
        return FsVec(self.domain, self.dim, acc)

    def __sub__(self, other: FsVec) -> FsVec:
        return self + other.scale(-1)

    def __neg__(self) -> FsVec:
        return self.scale(-1)

    def scale(self, c: Scalar) -> FsVec:
        return FsVec(
            self.domain,
            self.dim,
            [(k, vec_scale(c, v)) for k, v in self.support.items()],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, FsVec):
            return NotImplemented
        self._require_compatible(other)
        return self.support == other.support

    def __hash__(self) -> int:
        return hash((self.domain, self.dim, tuple(self.support.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"FsVec({self.domain.value}, dim={self.dim}, 0)"
        parts = ", ".join(
            f"{k}: ({', '.join(str(x) for x in v)})" for k, v in self.support.items()
        )
        return f"FsVec({self.domain.value}, dim={self.dim}, {{{parts}}})"
