from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dilatekit import Mat
from dilatekit.finsupp import BadIndex, Domain, DomainMismatch, FinsuppError, FsVec
from dilatekit.seqops import Componentwise
from dilatekit.serialize import ParseError, fsvec_from_json, fsvec_to_json

from strategies import fsvecs, stack


def test_disjoint_support_addition():
    a = FsVec.single(Domain.UNINAT, 1, 0, (5,))
    b = FsVec.single(Domain.UNINAT, 1, 2, (7,))
    assert (a + b).indices() == (0, 2)


def test_additive_inverse_empties_support():
    a = FsVec(Domain.UNINAT, 2, {0: (1, 2), 3: (4, 5)})
    assert (a + a.scale(-1)).is_zero()


def test_cancellation_prunes():
    a = FsVec.single(Domain.UNINAT, 1, 0, (3,))
    b = FsVec.single(Domain.UNINAT, 1, 0, (-3,))
    total = a + b
    assert total.is_zero()
    assert total.indices() == ()


def test_zero_columns_pruned_at_construction():
    a = FsVec(Domain.UNINAT, 2, {0: (0, 0), 1: (1, 0)})
    assert a.indices() == (1,)


def test_canonical_zero_equals_empty_support():
    assert FsVec.zero(Domain.BIINT, 2) == FsVec(Domain.BIINT, 2, {})


def test_distinct_indices_not_equal():
    v = (1, 1)
    a = FsVec.single(Domain.UNINAT, 2, 0, v)
    b = FsVec.single(Domain.UNINAT, 2, 1, v)
    assert a != b


def test_insertion_order_does_not_matter():
    # normalize-then-compare: both orders must land on the sorted support
    forward = FsVec(Domain.GRID, 1, [((0, 1), (2,)), ((1, 0), (3,))])
    backward = FsVec(Domain.GRID, 1, [((1, 0), (3,)), ((0, 1), (2,))])
    assert forward == backward
    assert forward.indices() == ((0, 1), (1, 0))


@pytest.mark.parametrize("support", [[(0, (0,)), (0, (1,))], [(0, (1,)), (0, (0,))]])
def test_duplicate_index_is_refused_when_a_column_is_zero(support):
    with pytest.raises(FinsuppError, match="duplicate index 0"):
        FsVec(Domain.UNINAT, 1, support)
    doc = {
        "domain": "uninat",
        "dim": 1,
        "support": [{"index": k, "value": list(v)} for k, v in support],
    }
    with pytest.raises(ParseError, match="duplicate index 0") as exc:
        fsvec_from_json(doc)
    assert exc.value.where == "$.support"


def test_domain_mismatch_raises():
    a = FsVec.single(Domain.UNINAT, 1, 0, (1,))
    b = FsVec.single(Domain.BIINT, 1, 0, (1,))
    with pytest.raises(DomainMismatch):
        a + b
    with pytest.raises(DomainMismatch):
        a == b
    with pytest.raises(DomainMismatch):
        a + FsVec.single(Domain.UNINAT, 2, 0, (1, 1))


def test_index_validation():
    with pytest.raises(BadIndex):
        FsVec.single(Domain.UNINAT, 1, -1, (1,))
    with pytest.raises(BadIndex):
        FsVec.single(Domain.GRID, 1, 3, (1,))
    with pytest.raises(BadIndex):
        FsVec.single(Domain.GRID, 1, (0, -1), (1,))
    FsVec.single(Domain.BIINT, 1, -5, (1,))  # negative is fine on the two-sided domain


def test_coeff_of_absent_index_is_zero():
    a = FsVec.single(Domain.UNINAT, 2, 1, (1, 2))
    assert a.coeff(0) == (Fraction(0), Fraction(0))
    assert a.coeff(1) == (Fraction(1), Fraction(2))


def test_scaling_by_zero_gives_zero():
    a = FsVec(Domain.BIINT, 1, {-2: (5,), 3: (1,)})
    assert a.scale(0).is_zero()


@given(fsvecs(Domain.BIINT, 2), fsvecs(Domain.BIINT, 2))
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(fsvecs(Domain.UNINAT, 2), fsvecs(Domain.UNINAT, 2), fsvecs(Domain.UNINAT, 2))
def test_addition_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(fsvecs(Domain.GRID, 1), fsvecs(Domain.GRID, 1))
def test_no_zero_columns_survive_operations(a, b):
    for result in (a + b, a - b, a.scale(Fraction(-3, 7))):
        for _, column in result.items():
            assert any(x != 0 for x in column)


# ----------------------------------------------------------------------
# the canonical integer form: one representation per family


NATURAL = st.integers(min_value=0, max_value=4)
INDEX = {
    Domain.UNINAT: NATURAL,
    Domain.BIINT: st.integers(min_value=-4, max_value=4),
    Domain.GRID: st.tuples(NATURAL, NATURAL),
}


@st.composite
def spelled_families(draw):
    """Integer columns, a common denominator and a common factor: the data
    of one family, to be spelled several ways."""
    domain = draw(st.sampled_from(list(Domain)))
    dim = draw(st.integers(min_value=1, max_value=3))
    entries = st.lists(st.integers(min_value=-12, max_value=12), min_size=dim, max_size=dim)
    columns = draw(st.dictionaries(INDEX[domain], entries.map(tuple), max_size=4))
    den = draw(st.integers(min_value=1, max_value=12))
    factor = draw(st.integers(min_value=1, max_value=6))
    return domain, dim, columns, den, factor


def spellings(domain, dim, columns, den, factor):
    def family(values):
        return FsVec(domain, dim, {k: values(v) for k, v in columns.items()})

    identity = Mat.identity(dim)
    scaled_up = Componentwise(identity.scale(factor), domain)
    scaled_down = Componentwise(identity.scale(Fraction(1, den * factor)), domain)
    from_ints = family(lambda v: v)
    return {
        "ints, then scaled by 1/den": from_ints.scale(Fraction(1, den)),
        "unreduced Fractions": family(lambda v: [Fraction(n * factor, den * factor) for n in v]),
        "p/q strings": family(lambda v: [f"{n * factor}/{den * factor}" for n in v]),
        "columns scaled by a common factor": family(lambda v: [n * factor for n in v]).scale(
            Fraction(1, den * factor)
        ),
        "operators scaling up, then down": scaled_down.apply(scaled_up.apply(from_ints)),
    }


@given(spelled_families())
def test_every_spelling_of_a_family_is_the_same_value(data):
    forms = spellings(*data)
    reference = forms.pop("unreduced Fractions")
    for how, x in forms.items():
        assert x == reference, how
        assert hash(x) == hash(reference), how
        assert repr(x) == repr(reference), how
        assert fsvec_to_json(x) == fsvec_to_json(reference), how


@given(spelled_families())
def test_columns_are_canonical_and_the_view_holds_fractions(data):
    for x in spellings(*data).values():
        for den, nums in x.columns.values():
            assert den >= 1 and gcd(den, *nums) == 1 and any(nums)
        assert all(type(q) is Fraction for column in x.support.values() for q in column)
        assert list(x.support) == list(x.indices()) == sorted(x.indices())


def test_a_block_is_its_own_space_and_has_no_fraction_view():
    x = FsVec(Domain.GRID, 2, {(0, 1): (1, 2)})
    block = stack([x, FsVec.zero(Domain.GRID, 2), x.scale(3)])
    assert (block.width, block.columns) == (3, {(0, 1): (1, (1, 2, 0, 0, 3, 6))})
    assert block.probe(1).is_zero() and block.probe(2) == x.scale(3)
    with pytest.raises(DomainMismatch, match=r"\(grid, dim 2, width 3\) vs \(grid, dim 2\)"):
        block == x
    for view in (lambda: block.support, lambda: block.coeff((0, 1)), block.items):
        with pytest.raises(FinsuppError, match="block of 3 probes"):
            view()
    assert "width=3" in repr(block)
    assert block + block == block.scale(2) and hash(block + block) == hash(block.scale(2))
