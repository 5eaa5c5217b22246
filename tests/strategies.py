"""Shared hypothesis strategies (small exact rationals and matrices) and
test doubles."""

from fractions import Fraction

from hypothesis import strategies as st

from dilatekit import Mat
from dilatekit.finsupp import Domain, FsVec
from dilatekit.matrix import column_of
from dilatekit.seqops import ProjStd, SeqOp, ShiftRight


def rationals(bound: int = 9):
    return st.builds(
        Fraction,
        st.integers(min_value=-bound, max_value=bound),
        st.integers(min_value=1, max_value=bound),
    )


def vectors(dim: int, bound: int = 9):
    return st.lists(rationals(bound), min_size=dim, max_size=dim).map(tuple)


def matrices(min_dim: int = 1, max_dim: int = 4, bound: int = 9):
    def build(dim):
        return st.lists(
            st.lists(rationals(bound), min_size=dim, max_size=dim),
            min_size=dim,
            max_size=dim,
        ).map(Mat)

    return st.integers(min_value=min_dim, max_value=max_dim).flatmap(build)


def square_pairs(max_dim: int = 3, bound: int = 5):
    """Two square matrices of equal size."""

    def build(dim):
        one = st.lists(
            st.lists(rationals(bound), min_size=dim, max_size=dim),
            min_size=dim,
            max_size=dim,
        ).map(Mat)
        return st.tuples(one, one)

    return st.integers(min_value=1, max_value=max_dim).flatmap(build)


def fsvecs(domain: Domain, dim: int, bound: int = 9):
    if domain is Domain.UNINAT:
        index = st.integers(min_value=0, max_value=10)
    elif domain is Domain.BIINT:
        index = st.integers(min_value=-6, max_value=6)
    else:
        index = st.tuples(
            st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5)
        )
    return st.dictionaries(index, vectors(dim, bound), max_size=5).map(
        lambda support: FsVec(domain, dim, support)
    )


class SumOp(SeqOp):
    """The operator x -> a x + b x: a faulty copy of a, when b is a small
    linear defect. Being linear, it acts on every probe on its own."""

    def __init__(self, a: SeqOp, b: SeqOp):
        self.a, self.b = a, b

    def apply(self, x):
        return self.a.apply(x) + self.b.apply(x)


class ShiftedProjStd(ProjStd):
    """ProjStd with its image moved one index along: it lands off the
    origin, and a second application moves it again."""

    def apply(self, x):
        return ShiftRight(self.dim).apply(super().apply(x))


def coordinate(dim: int, j: int) -> Mat:
    """The projection onto coordinate j: a defect that moves only the
    probes with a nonzero coordinate j at the index it reads."""
    return Mat([[int(r == c == j) for c in range(dim)] for r in range(dim)])


def stack(families):
    """The block whose probe j is families[j], all width-1 families on one
    space, built from their Fraction views."""
    first = families[0]
    indices = sorted({k for f in families for k in f.columns})
    columns = [(k, column_of(q for f in families for q in f.coeff(k))) for k in indices]
    return FsVec._raw(first.domain, first.dim, columns, len(families))


def per_probe(apply, x):
    """The block of apply's images of the probes of x: how a test double
    whose defect reads one probe acts on a block."""
    return stack([apply(x.probe(j)) for j in range(x.width)])
