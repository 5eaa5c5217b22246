import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilatekit import Mat
from dilatekit.finsupp import Domain, DomainMismatch, FsVec
from dilatekit.matrix import vec_add, zero_vec
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
    check_inverse_pair,
)

from strategies import fsvecs, rationals


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
