from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dilatekit import Mat
from dilatekit.finsupp import Domain, DomainMismatch, FsVec
from dilatekit.matrix import column_of, vec_add, zero_vec
from dilatekit.report import first_witness
from dilatekit.seqops import (
    BlockDense,
    ColumnBlocks,
    Componentwise,
    Compose,
    CoordProj0,
    EmbedI,
    GridDown,
    GridRight,
    PowerOp,
    ProjAndo,
    ProjStd,
    SchafferU,
    SchafferVInv,
    ShiftBilat,
    ShiftRight,
)
from dilatekit.sequence import check_inverse_pair
from dilatekit.serialize import fsvec_to_json

from strategies import fsvecs, rationals, stack


def proj_std_oracle(T, x):
    """Independent brute-force sum of T^n x_n over the support."""
    total = zero_vec(T.rows)
    for n, v in x.items():
        power = Mat.identity(T.rows)
        for _ in range(n):
            power = T * power
        total = vec_add(total, power.apply(v))
    return FsVec.single(Domain.UNINAT, T.rows, 0, total)


def test_embed_places_at_origin():
    assert EmbedI(2).apply((1, 2)) == FsVec.single(Domain.UNINAT, 2, 0, (1, 2))
    assert EmbedI(1, Domain.BIINT).apply((3,)) == FsVec.single(Domain.BIINT, 1, 0, (3,))
    assert EmbedI(1, Domain.GRID).apply((3,)) == FsVec.single(Domain.GRID, 1, (0, 0), (3,))


def test_shift_right_moves_basis():
    e0 = FsVec.single(Domain.UNINAT, 2, 0, (1, 2))
    assert ShiftRight(2).apply(e0) == FsVec.single(Domain.UNINAT, 2, 1, (1, 2))


def test_proj_std_sums_powers():
    # by hand: coordinate 0 contributes 1, coordinate 2 contributes T^2 = 4
    x = FsVec(Domain.UNINAT, 1, {0: (1,), 2: (1,)})
    p = ProjStd(Mat([[2]]))
    assert p.apply(x) == FsVec.single(Domain.UNINAT, 1, 0, (5,))
    assert p.apply(x) == proj_std_oracle(Mat([[2]]), x)


def test_proj_std_at_a_huge_index_squares_instead_of_stepping():
    # a support index of 10**9 must not build the 10**9 intermediate powers
    n = 10**9
    p = ProjStd(Mat([[1]]))
    assert p.apply(FsVec.single(Domain.UNINAT, 1, n, (3,))) == FsVec.single(
        Domain.UNINAT, 1, 0, (3,)
    )
    nilpotent = ProjStd(Mat([[0, 1], [0, 0]]))
    assert nilpotent.apply(FsVec.single(Domain.UNINAT, 2, n + 1, (1, 1))).is_zero()
    assert sorted(p._powers.powers) == [0, 1, n]


def test_schaffer_u_rows():
    # expanding the defining rows: the input at 0 lands at -1, plus T x_0 at 0
    u = SchafferU(Mat([[2]]))
    x = FsVec.single(Domain.BIINT, 1, 0, (1,))
    assert u.apply(x) == FsVec(Domain.BIINT, 1, {-1: (1,), 0: (2,)})


def test_schaffer_u_general_coordinate():
    u = SchafferU(Mat([[2]]))
    x = FsVec.single(Domain.BIINT, 1, 3, (1,))
    assert u.apply(x) == FsVec.single(Domain.BIINT, 1, 2, (1,))


def test_schaffer_v_inv_rows():
    v = SchafferVInv(Mat([[2]]))
    x = FsVec.single(Domain.BIINT, 1, -1, (1,))
    # the input at -1 moves to 0 and contributes -T at 1
    assert v.apply(x) == FsVec(Domain.BIINT, 1, {0: (1,), 1: (-2,)})


def test_power_apply_zero_is_identity():
    x = FsVec(Domain.UNINAT, 1, {0: (1,), 4: (2,)})
    assert ShiftRight(1).power_apply(0, x) == x


def test_power_apply_shift_three():
    e0 = FsVec.single(Domain.UNINAT, 1, 0, (7,))
    assert ShiftRight(1).power_apply(3, e0) == FsVec.single(Domain.UNINAT, 1, 3, (7,))


def test_power_apply_schaffer_twice():
    # apply twice by hand: e0 -> e_{-1} + 2 e_0 -> e_{-2} + 2 e_{-1} + 4 e_0
    u = SchafferU(Mat([[2]]))
    x = FsVec.single(Domain.BIINT, 1, 0, (1,))
    assert u.power_apply(2, x) == FsVec(Domain.BIINT, 1, {-2: (1,), -1: (2,), 0: (4,)})


def test_inverse_pair_schaffer():
    import random

    rng = random.Random(7)
    T = Mat([[1, 2], [0, 1]])
    probes = []
    for _ in range(100):
        support = {
            rng.randint(-5, 5): (rng.randint(-9, 9), rng.randint(-9, 9))
            for _ in range(rng.randint(0, 5))
        }
        probes.append(FsVec(Domain.BIINT, 2, support))
    report = check_inverse_pair(SchafferU(T), SchafferVInv(T), probes)
    assert report.passed


def test_inverse_pair_failure_carries_witness():
    probe = FsVec.single(Domain.UNINAT, 1, 0, (1,))
    report = check_inverse_pair(ShiftRight(1), ShiftRight(1), [probe])
    assert not report.passed
    assert report.failed_checks()[0].witness["probe"]["support"][0]["index"] == 0


def test_first_witness_stops_at_the_first_hit():
    calls = []

    def hit_on_odd(x):
        calls.append(x)
        return {"x": x} if x % 2 else None

    assert first_witness(range(10), hit_on_odd) == {"x": 1}
    assert calls == [0, 1]
    calls.clear()
    assert first_witness([4, 2, 7, 8, 9], hit_on_odd) == {"x": 7}
    assert calls == [4, 2, 7]
    assert first_witness([0, 2], hit_on_odd) is None


def test_inverse_pair_identity():
    probes = [FsVec.single(Domain.UNINAT, 1, k, (k + 1,)) for k in range(4)]
    identity = PowerOp(ShiftRight(1), 0)
    assert check_inverse_pair(identity, identity, probes).passed


def test_coord_proj_keeps_origin_only():
    p = CoordProj0(1, Domain.BIINT)
    x = FsVec(Domain.BIINT, 1, {-1: (4,), 0: (5,), 2: (6,)})
    assert p.apply(x) == FsVec.single(Domain.BIINT, 1, 0, (5,))
    assert p.apply(p.apply(x)) == p.apply(x)


def test_bilat_shift():
    x = FsVec.single(Domain.BIINT, 1, -3, (1,))
    assert ShiftBilat(1).apply(x) == FsVec.single(Domain.BIINT, 1, -2, (1,))


def test_grid_shifts():
    x = FsVec.single(Domain.GRID, 1, (0, 0), (1,))
    assert GridDown(1).apply(x) == FsVec.single(Domain.GRID, 1, (1, 0), (1,))
    assert GridRight(1).apply(x) == FsVec.single(Domain.GRID, 1, (0, 1), (1,))


def test_proj_ando_collapses_grid():
    T, S = Mat([[2]]), Mat([[3]])
    p = ProjAndo(T, S)
    x = FsVec(Domain.GRID, 1, {(1, 1): (1,), (0, 0): (1,)})
    # 2^1 3^1 * 1 + 2^0 3^0 * 1 = 7
    assert p.apply(x) == FsVec.single(Domain.GRID, 1, (0, 0), (7,))


def test_block_dense_acts_blockwise():
    m = Mat([[0, 1], [1, 0]])  # swaps the two 1-dim blocks
    op = BlockDense(m, dim=1)
    x = FsVec(Domain.UNINAT, 1, {0: (3,), 1: (4,)})
    assert op.apply(x) == FsVec(Domain.UNINAT, 1, {0: (4,), 1: (3,)})
    outside = FsVec.single(Domain.UNINAT, 1, 5, (1,))
    with pytest.raises(DomainMismatch):
        op.apply(outside)


def test_componentwise_changes_dimension():
    S = Mat([[1, 1]])
    op = Componentwise(S)
    x = FsVec(Domain.UNINAT, 2, {0: (1, 2), 3: (4, 5)})
    assert op.apply(x) == FsVec(Domain.UNINAT, 1, {0: (3,), 3: (9,)})


def test_column_blocks():
    blocks = {(0, 0): Mat([[2]]), (1, 0): Mat([[3]]), (0, 2): Mat([[1]])}
    op = ColumnBlocks(blocks, dim_in=1, dim_out=1)
    x = FsVec(Domain.UNINAT, 1, {0: (1,), 2: (5,)})
    assert op.apply(x) == FsVec(Domain.UNINAT, 1, {0: (7,), 1: (3,)})
    with pytest.raises(ValueError):
        ColumnBlocks({(0, 0): Mat([[1, 0]])}, dim_in=1, dim_out=1)


def test_compose_applies_right_to_left():
    op = Compose((ShiftRight(1), EmbedI(1)))
    assert op.apply((5,)) == FsVec.single(Domain.UNINAT, 1, 1, (5,))


def test_domain_mismatch_rejected():
    with pytest.raises(DomainMismatch):
        ShiftRight(1).apply(FsVec.single(Domain.BIINT, 1, 0, (1,)))
    with pytest.raises(DomainMismatch):
        ProjStd(Mat([[1]])).apply(FsVec.single(Domain.UNINAT, 2, 0, (1, 1)))
    with pytest.raises(DomainMismatch):
        GridDown(1).apply(FsVec.single(Domain.UNINAT, 1, 0, (1,)))


def test_mismatch_messages_name_domains_by_value():
    with pytest.raises(DomainMismatch, match=r"expects \(grid, dim 1\), got \(uninat, dim 1\)"):
        GridDown(1).apply(FsVec.single(Domain.UNINAT, 1, 0, (1,)))
    with pytest.raises(DomainMismatch, match=r"got tuple"):
        ShiftRight(1).apply((1,))


def test_embed_rejects_a_sequence_element():
    # EmbedI takes an ambient vector; a family in its own codomain is not one
    with pytest.raises(DomainMismatch, match="ambient vector"):
        EmbedI(1).apply(FsVec.single(Domain.UNINAT, 1, 0, (1,)))
    with pytest.raises(DomainMismatch):
        PowerOp(EmbedI(1), 2).apply(FsVec.single(Domain.UNINAT, 1, 0, (1,)))


# ----------------------------------------------------------------------
# algebraic properties

T2 = Mat([[1, 2], [3, 4]])
S2 = Mat([[2, 0], [0, 2]])

UNINAT_OPS = [
    ShiftRight(2),
    ProjStd(T2),
    Componentwise(T2),
    BlockDense(Mat.identity(4).scale(3), dim=2),
    ColumnBlocks({(0, 1): T2, (2, 0): S2}, dim_in=2, dim_out=2),
    Compose((ShiftRight(2), ProjStd(T2))),
    PowerOp(ShiftRight(2), 3),
]
BIINT_OPS = [ShiftBilat(2), SchafferU(T2), SchafferVInv(T2), CoordProj0(2, Domain.BIINT)]
GRID_OPS = [GridDown(2), GridRight(2), ProjAndo(T2, S2)]


@settings(max_examples=40)
@given(
    st.integers(min_value=0, max_value=len(UNINAT_OPS) - 1),
    fsvecs(Domain.UNINAT, 2, bound=5),
    fsvecs(Domain.UNINAT, 2, bound=5),
    rationals(5),
    rationals(5),
)
def test_linearity_one_sided(i, x, y, alpha, beta):
    op = UNINAT_OPS[i]
    if isinstance(op, BlockDense) and any(k >= 2 for k in (x + y).indices()):
        return
    lhs = op.apply(x.scale(alpha) + y.scale(beta))
    rhs = op.apply(x).scale(alpha) + op.apply(y).scale(beta)
    assert lhs == rhs


@settings(max_examples=40)
@given(
    st.integers(min_value=0, max_value=len(BIINT_OPS) - 1),
    fsvecs(Domain.BIINT, 2, bound=5),
    fsvecs(Domain.BIINT, 2, bound=5),
    rationals(5),
    rationals(5),
)
def test_linearity_two_sided(i, x, y, alpha, beta):
    op = BIINT_OPS[i]
    lhs = op.apply(x.scale(alpha) + y.scale(beta))
    rhs = op.apply(x).scale(alpha) + op.apply(y).scale(beta)
    assert lhs == rhs


@settings(max_examples=40)
@given(
    st.integers(min_value=0, max_value=len(GRID_OPS) - 1),
    fsvecs(Domain.GRID, 2, bound=5),
    fsvecs(Domain.GRID, 2, bound=5),
    rationals(5),
    rationals(5),
)
def test_linearity_grid(i, x, y, alpha, beta):
    op = GRID_OPS[i]
    lhs = op.apply(x.scale(alpha) + y.scale(beta))
    rhs = op.apply(x).scale(alpha) + op.apply(y).scale(beta)
    assert lhs == rhs


@given(st.lists(rationals(), min_size=3, max_size=3))
def test_embed_injective(values):
    image = EmbedI(3).apply(tuple(values))
    assert image.is_zero() == all(v == 0 for v in values)


@given(fsvecs(Domain.UNINAT, 2, bound=5))
def test_proj_std_idempotent_and_ranged(x):
    p = ProjStd(T2)
    once = p.apply(x)
    assert p.apply(once) == once
    assert all(k == 0 for k in once.indices())
    assert p.apply(x) == proj_std_oracle(T2, x)


@given(fsvecs(Domain.GRID, 2, bound=5))
def test_proj_ando_idempotent(x):
    p = ProjAndo(T2, S2)
    once = p.apply(x)
    assert p.apply(once) == once
    assert all(k == (0, 0) for k in once.indices())


@given(st.lists(rationals(), min_size=2, max_size=2))
def test_proj_std_fixes_embedded_vectors(values):
    p = ProjStd(T2)
    embedded = EmbedI(2).apply(tuple(values))
    assert p.apply(embedded) == embedded


# ----------------------------------------------------------------------
# differential oracle: every operator kind against plain-Fraction code
#
# Each operator's result must equal the validating FsVec(...) built from
# the reference columns in every observable way: the support's key order,
# the Fraction type of every entry, ==, hash, repr and the JSON form. The
# inputs include empty supports, terms that cancel to a zero column, and
# denominators up to 10^6.

ORACLE = settings(max_examples=40, deadline=None)
ZERO = Fraction(0)
INDICES = {
    Domain.UNINAT: st.integers(min_value=0, max_value=6),
    Domain.BIINT: st.integers(min_value=-4, max_value=4),
    Domain.GRID: st.tuples(
        st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
    ),
}


def scalars():
    return st.one_of(st.just(ZERO), rationals(3), rationals(10**6))


def draw_vector(data, dim):
    return tuple(data.draw(st.lists(scalars(), min_size=dim, max_size=dim)))


def draw_matrix(data, rows, cols):
    return Mat([draw_vector(data, cols) for _ in range(rows)])


def draw_columns(data, domain, dim, indices=None):
    index = INDICES[domain] if indices is None else indices
    vectors = st.lists(scalars(), min_size=dim, max_size=dim).map(tuple)
    return data.draw(st.dictionaries(index, vectors, max_size=4))


def ref_matvec(m, v):
    return [sum((a * b for a, b in zip(row, v)), ZERO) for row in m.entries]


def ref_power_apply(m, n, v):
    v = list(v)
    for _ in range(n):
        v = ref_matvec(m, v)
    return v


def ref_add(acc, index, value):
    acc[index] = [a + b for a, b in zip(acc[index], value)] if index in acc else list(value)


def assert_matches_reference(result, domain, dim, columns):
    expected = FsVec(domain, dim, columns)
    assert (result.domain, result.dim) == (domain, dim)
    assert list(result.support) == list(expected.support)
    assert all(type(q) is Fraction for v in result.support.values() for q in v)
    assert result == expected
    assert hash(result) == hash(expected)
    assert repr(result) == repr(expected)
    assert fsvec_to_json(result) == fsvec_to_json(expected)


@ORACLE
@given(st.data(), st.sampled_from(list(Domain)), st.integers(min_value=1, max_value=3))
def test_oracle_shifts_origin_projection_and_embedding(data, domain, dim):
    columns = draw_columns(data, domain, dim)
    x = FsVec(domain, dim, columns)
    shifts = {
        Domain.UNINAT: [(ShiftRight(dim), lambda k: k + 1)],
        Domain.BIINT: [(ShiftBilat(dim), lambda k: k + 1)],
        Domain.GRID: [
            (GridDown(dim), lambda k: (k[0] + 1, k[1])),
            (GridRight(dim), lambda k: (k[0], k[1] + 1)),
        ],
    }[domain]
    for op, step in shifts:
        assert_matches_reference(op.apply(x), domain, dim, {step(k): v for k, v in columns.items()})
    origin = domain.origin
    kept = {k: v for k, v in columns.items() if k == origin}
    assert_matches_reference(CoordProj0(dim, domain).apply(x), domain, dim, kept)
    value = columns.get(origin, (ZERO,) * dim)
    assert_matches_reference(EmbedI(dim, domain).apply(list(value)), domain, dim, {origin: value})


@ORACLE
@given(st.data(), st.integers(min_value=1, max_value=3), st.sampled_from([None, "u", "v"]))
def test_oracle_schaffer_pair(data, dim, cancel):
    T = draw_matrix(data, dim, dim)
    columns = draw_columns(data, Domain.BIINT, dim)
    if cancel == "u":  # x_1 = -T x_0: both terms of (Ux)_0 cancel
        x0 = columns.setdefault(0, draw_vector(data, dim))
        columns[1] = tuple(-q for q in ref_matvec(T, x0))
    elif cancel == "v":  # x_0 = T x_-1: both terms of (Vx)_1 cancel
        x_minus = columns.setdefault(-1, draw_vector(data, dim))
        columns[0] = tuple(ref_matvec(T, x_minus))
    x = FsVec(Domain.BIINT, dim, columns)
    ref_u, ref_v = {}, {}
    for k, v in columns.items():
        ref_add(ref_u, k - 1, v)
        if k == 0:
            ref_add(ref_u, 0, ref_matvec(T, v))
        ref_add(ref_v, k + 1, v)
        if k == -1:
            ref_add(ref_v, 1, [-q for q in ref_matvec(T, v)])
    assert_matches_reference(SchafferU(T).apply(x), Domain.BIINT, dim, ref_u)
    assert_matches_reference(SchafferVInv(T).apply(x), Domain.BIINT, dim, ref_v)


@ORACLE
@given(st.data(), st.integers(min_value=1, max_value=3), st.booleans())
def test_oracle_proj_std(data, dim, cancel):
    T = draw_matrix(data, dim, dim)
    if cancel:  # x_0 + T x_1 = 0: the projection is the zero family
        x1 = draw_vector(data, dim)
        columns = {1: x1, 0: tuple(-q for q in ref_matvec(T, x1))}
    else:
        columns = draw_columns(data, Domain.UNINAT, dim)
    x = FsVec(Domain.UNINAT, dim, columns)
    total = [ZERO] * dim
    for n, v in columns.items():
        total = [a + b for a, b in zip(total, ref_power_apply(T, n, v))]
    assert_matches_reference(ProjStd(T).apply(x), Domain.UNINAT, dim, {0: total})


@ORACLE
@given(st.data(), st.integers(min_value=1, max_value=3), st.booleans())
def test_oracle_proj_ando(data, dim, cancel):
    T, S = draw_matrix(data, dim, dim), draw_matrix(data, dim, dim)
    if cancel:  # x_00 + T x_10 + S x_01 = 0 with x_10, x_01 drawn
        x10, x01 = draw_vector(data, dim), draw_vector(data, dim)
        x00 = [-(a + b) for a, b in zip(ref_matvec(T, x10), ref_matvec(S, x01))]
        columns = {(1, 0): x10, (0, 1): x01, (0, 0): tuple(x00)}
    else:
        columns = draw_columns(data, Domain.GRID, dim)
    x = FsVec(Domain.GRID, dim, columns)
    total = [ZERO] * dim
    for (n, m), v in columns.items():
        term = ref_power_apply(T, n, ref_power_apply(S, m, v))
        total = [a + b for a, b in zip(total, term)]
    assert_matches_reference(ProjAndo(T, S).apply(x), Domain.GRID, dim, {(0, 0): total})


@ORACLE
@given(st.data(), st.integers(min_value=1, max_value=3))
def test_proj_ando_reuse_returns_what_a_fresh_instance_returns(data, dim):
    # ProjAndo keeps S^m applied to the last column it saw at m; the inputs
    # revisit an exponent with that same column object, with an equal but
    # distinct column and with a different column, one cell and several
    T, S = draw_matrix(data, dim, dim), draw_matrix(data, dim, dim)
    a, b = column_of(draw_vector(data, dim)), column_of(draw_vector(data, dim))
    assume(a is not None and b is not None and a != b)
    a_copy = (a[0], a[1])
    assert a_copy == a and a_copy is not a
    fixed = [
        [((0, 1), a)],
        [((2, 1), a)],
        [((1, 1), a_copy)],
        [((0, 1), b)],
        [((3, 1), a)],
        [((0, 0), a), ((0, 1), b), ((2, 1), a), ((1, 2), a_copy)],
        [((1, 1), b), ((1, 2), a)],
    ]
    cells = st.tuples(st.integers(0, 3), st.integers(0, 3))
    drawn = st.dictionaries(cells, st.sampled_from([a, a_copy, b]), min_size=1, max_size=4)
    tail = [list(d.items()) for d in data.draw(st.lists(drawn, max_size=6), label="inputs")]
    p = ProjAndo(T, S)
    for support in fixed + tail:
        x = FsVec._raw(Domain.GRID, dim, sorted(support), 1)
        assert p.apply(x).columns == ProjAndo(T, S).apply(x).columns


@ORACLE
@given(
    st.data(),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.booleans(),
)
def test_oracle_componentwise_and_column_blocks(data, dim_in, dim_out, cancel):
    S = draw_matrix(data, dim_out, dim_in)
    columns = draw_columns(data, Domain.UNINAT, dim_in)
    positions = data.draw(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=6)),
            max_size=4,
            unique=True,
        )
    )
    blocks = {p: draw_matrix(data, dim_out, dim_in) for p in positions}
    if cancel:  # blocks S and -S read equal columns 0 and 1 into row 2
        columns[0] = columns[1] = draw_vector(data, dim_in)
        blocks[(2, 0)], blocks[(2, 1)] = S, Mat([[-q for q in row] for row in S.entries])
    x = FsVec(Domain.UNINAT, dim_in, columns)
    expected = {k: ref_matvec(S, v) for k, v in columns.items()}
    assert_matches_reference(Componentwise(S).apply(x), Domain.UNINAT, dim_out, expected)
    expected = {}
    for (r, c), b in blocks.items():
        if c in columns:
            ref_add(expected, r, ref_matvec(b, columns[c]))
    op = ColumnBlocks(blocks, dim_in=dim_in, dim_out=dim_out)
    assert_matches_reference(op.apply(x), Domain.UNINAT, dim_out, expected)


@ORACLE
@given(st.data(), st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=3))
def test_oracle_block_dense(data, dim, k):
    matrix = draw_matrix(data, k * dim, k * dim)
    columns = draw_columns(data, Domain.UNINAT, dim, st.integers(min_value=0, max_value=k - 1))
    x = FsVec(Domain.UNINAT, dim, columns)
    stacked = [q for b in range(k) for q in columns.get(b, (ZERO,) * dim)]
    image = ref_matvec(matrix, stacked)
    expected = {b: image[b * dim : (b + 1) * dim] for b in range(k)}
    assert_matches_reference(BlockDense(matrix, dim).apply(x), Domain.UNINAT, dim, expected)


# ----------------------------------------------------------------------
# blocks of probes: every operator applied to a block of w probes must
# give the block of its w width-1 images, probe by probe, including a zero
# probe inside a nonzero block and a block whose image cancels to zero,
# which is pruned from the support

BLOCK_DENSE_SPAN = 7  # covers every one-sided index that INDICES draws


def block_operators(data, domain, dim):
    """One operator of every kind that acts on (domain, dim), Compose and
    PowerOp included."""
    T, S = draw_matrix(data, dim, dim), draw_matrix(data, dim, dim)
    dim_out = data.draw(st.integers(min_value=1, max_value=3), label="dim_out")
    rect = draw_matrix(data, dim_out, dim)
    ops = [CoordProj0(dim, domain), Componentwise(rect, domain), Componentwise(S, domain)]
    if domain is Domain.UNINAT:
        spots = st.tuples(st.integers(0, 4), st.integers(0, 6))
        positions = data.draw(st.lists(spots, max_size=3, unique=True), label="blocks")
        blocks = {p: draw_matrix(data, dim_out, dim) for p in positions}
        entries = st.lists(st.sampled_from([ZERO, Fraction(1), Fraction(-2, 3)]), min_size=49 * dim * dim)
        flat = data.draw(entries.map(lambda xs: xs[: 49 * dim * dim]), label="dense")
        dense = Mat([flat[r * 7 * dim : (r + 1) * 7 * dim] for r in range(7 * dim)])
        ops += [
            ShiftRight(dim),
            ProjStd(T),
            ColumnBlocks(blocks, dim_in=dim, dim_out=dim_out),
            BlockDense(dense, dim),
            Compose((ProjStd(T), ShiftRight(dim), Componentwise(S))),
            PowerOp(Compose((ShiftRight(dim), ProjStd(T))), 2),
        ]
    elif domain is Domain.BIINT:
        ops += [
            ShiftBilat(dim),
            SchafferU(T),
            SchafferVInv(T),
            Compose((SchafferVInv(T), SchafferU(T))),
            PowerOp(SchafferU(T), 3),
        ]
    else:
        ops += [
            GridDown(dim),
            GridRight(dim),
            ProjAndo(T, S),
            Compose((ProjAndo(T, S), GridDown(dim))),
            PowerOp(Compose((GridRight(dim), ProjAndo(T, S))), 2),
        ]
    return ops


def assert_acts_probe_by_probe(op, families):
    block = stack(families)
    assert [block.probe(j) for j in range(block.width)] == families
    image = op.apply(block)
    images = [op.apply(x) for x in families]
    assert image.width == len(families)
    assert [image.probe(j) for j in range(image.width)] == images
    assert image == stack(images)
    assert all(any(nums) for _, nums in image.columns.values())


@ORACLE
@given(st.data(), st.sampled_from(list(Domain)), st.integers(min_value=1, max_value=2))
def test_every_operator_acts_on_a_block_probe_by_probe(data, domain, dim):
    families = [FsVec(domain, dim, draw_columns(data, domain, dim)) for _ in range(data.draw(st.integers(1, 3)))]
    # a zero probe somewhere in the block
    families.insert(data.draw(st.integers(0, len(families))), FsVec.zero(domain, dim))
    for op in block_operators(data, domain, dim):
        assert_acts_probe_by_probe(op, families)
    vectors = [draw_vector(data, dim) for _ in range(len(families))]
    embed = EmbedI(dim, domain)
    block = embed.apply_block(vectors)
    assert [block.probe(j) for j in range(len(vectors))] == [embed.apply(v) for v in vectors]


@ORACLE
@given(st.data(), st.integers(min_value=1, max_value=2))
def test_a_block_that_cancels_to_zero_is_pruned(data, dim):
    # x_0 = -T x_1 in every probe: the projected block is zero
    T = draw_matrix(data, dim, dim)
    families = []
    for _ in range(data.draw(st.integers(2, 3))):
        x1 = draw_vector(data, dim)
        families.append(FsVec(Domain.UNINAT, dim, {1: x1, 0: tuple(-q for q in ref_matvec(T, x1))}))
    assert_acts_probe_by_probe(ProjStd(T), families)
    image = ProjStd(T).apply(stack(families))
    assert image.is_zero() and image.columns == {}
