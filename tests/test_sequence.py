import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilatekit import Mat
from dilatekit import seqops, sequence
from dilatekit.finite import schur_build
from dilatekit.finsupp import Domain, DomainMismatch, FsVec
from dilatekit.intertwine import make_pair, read_off_intertwiner
from dilatekit.matrix import DimensionMismatch, reduce_column
from dilatekit.sequence import (
    Dilation,
    NonCommuting,
    ando_build,
    ando_verify,
    check_inverse_pair,
    schaffer_build,
    schaffer_verify,
    standard_build,
    standard_minimality_check,
    standard_verify,
)
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
    SeqOp,
    ShiftBilat,
    ShiftRight,
    _PowerCache,
    _sum_ints,
)
from dilatekit.report import Report
from dilatekit.serialize import fsvec_to_json, vec_to_json

from strategies import (
    ShiftedProjStd,
    SumOp,
    coordinate,
    fsvecs,
    matrices,
    per_probe,
    rationals,
    vectors,
)


def random_mat(rng, dim, bound=9):
    return Mat(
        [
            [Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(dim)]
            for _ in range(dim)
        ]
    )


# ----------------------------------------------------------------------
# two-sided construction


def test_schaffer_first_power():
    sd = schaffer_build(Mat([[2]]))
    image = sd.U.apply(sd.I.apply((1,)))
    assert image == FsVec(Domain.BIINT, 1, {-1: (1,), 0: (2,)})
    assert sd.P.apply(image) == FsVec.single(Domain.BIINT, 1, 0, (2,))


def test_schaffer_second_power():
    sd = schaffer_build(Mat([[2]]))
    image = sd.U.power_apply(2, sd.I.apply((1,)))
    assert image.coeff(0) == (Fraction(4),)


def test_schaffer_zero_map_is_plain_shift():
    sd = schaffer_build(Mat.zeros(1, 1))
    x = sd.I.apply((5,))
    for n in (1, 2, 3):
        x = sd.U.apply(x)
        assert sd.P.apply(x).is_zero()
    assert x == FsVec.single(Domain.BIINT, 1, -3, (5,))


def test_schaffer_verify_scalar():
    sd = schaffer_build(Mat([[2]]))
    rep = schaffer_verify(sd, [(1,)], n_max=12)
    assert rep.passed


def test_schaffer_verify_random():
    rng = random.Random(3)
    T = random_mat(rng, 3)
    probes = [tuple(Fraction(rng.randint(-9, 9)) for _ in range(3)) for _ in range(50)]
    seq_probes = [
        FsVec(
            Domain.BIINT,
            3,
            {rng.randint(-5, 5): tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(4)},
        )
        for _ in range(20)
    ]
    rep = schaffer_verify(schaffer_build(T), probes, n_max=8, seq_probes=seq_probes)
    assert rep.passed


def test_each_builder_sets_only_its_own_optional_fields():
    T = Mat([[1, 2], [0, 3]])
    optional = ("U_inv", "S", "V")
    built = {
        "schaffer": schaffer_build(T),
        "standard": standard_build(T),
        "ando": ando_build(T, T * T),
    }
    own = {"schaffer": {"U_inv"}, "standard": set(), "ando": {"S", "V"}}
    for name, dil in built.items():
        assert isinstance(dil, Dilation)
        assert {f for f in optional if getattr(dil, f) is not None} == own[name], name
    assert built["schaffer"].U_inv == SchafferVInv(T)
    assert built["ando"].S == T * T and built["ando"].V == GridRight(2)


def test_schaffer_corrupted_u_fails_at_first_power():
    # dropping the coupling term leaves the plain shift, which projects to 0
    good = schaffer_build(Mat([[2]]))
    corrupted = Dilation(
        T=good.T, U=SchafferU(Mat.zeros(1, 1)), U_inv=good.U_inv, P=good.P, I=good.I
    )
    rep = schaffer_verify(corrupted, [(1,)], n_max=3)
    assert not rep.passed
    compression = [c for c in rep.failed_checks() if "compression" in c.name]
    assert compression and compression[0].witness["n"] == 1


def test_mismatched_dimensions_raise_dimension_mismatch():
    one, two = Mat([[1]]), Mat.identity(2)
    calls = (
        (lambda: schaffer_verify(schaffer_build(two), [(1,)], n_max=1), "probe has length 1, expected 2"),
        (lambda: ando_build(one, two), "T and S act on different spaces: 1 vs 2"),
        (lambda: schur_build("i", one, two, one, one), "B must be 1x1 to match T"),
        (lambda: make_pair(one, one, two), "S must be 1x1 to map the second space into the first, got 2x2"),
    )
    for call, message in calls:
        with pytest.raises(DimensionMismatch, match=f"^{message}$"):
            call()


def test_schaffer_rejects_bad_bound():
    with pytest.raises(ValueError):
        schaffer_verify(schaffer_build(Mat([[1]])), [(1,)], n_max=0)


def test_failure_witness_reproduces_in_isolation():
    from dilatekit.serialize import fsvec_to_json, vec_from_json

    good = schaffer_build(Mat([[2]]))
    corrupted = Dilation(
        T=good.T, U=SchafferU(Mat.zeros(1, 1)), U_inv=good.U_inv, P=good.P, I=good.I
    )
    rep = schaffer_verify(corrupted, [(1,)], n_max=3)
    check = next(c for c in rep.failed_checks() if "compression" in c.name)
    probe = vec_from_json(check.witness["probe"])
    n = check.witness["n"]
    lhs = corrupted.P.apply(corrupted.U.power_apply(n, corrupted.I.apply(probe)))
    rhs = corrupted.I.apply((corrupted.T ** n).apply(probe))
    assert lhs != rhs
    assert fsvec_to_json(lhs) == check.witness["projected"]
    assert fsvec_to_json(rhs) == check.witness["expected"]


@settings(max_examples=20)
@given(matrices(max_dim=3, bound=5))
def test_schaffer_inverse_pair_and_compression(T):
    rng = random.Random(42)
    probes = [tuple(Fraction(rng.randint(-5, 5)) for _ in range(T.rows)) for _ in range(5)]
    seq_probes = [
        FsVec(
            Domain.BIINT,
            T.rows,
            {rng.randint(-4, 4): tuple(rng.randint(-3, 3) for _ in range(T.rows)) for _ in range(3)},
        )
        for _ in range(5)
    ]
    rep = schaffer_verify(schaffer_build(T), probes, n_max=6, seq_probes=seq_probes)
    assert rep.passed


# ----------------------------------------------------------------------
# standard dilation


def test_standard_shift_then_project():
    sd = standard_build(Mat([[2]]))
    image = sd.U.power_apply(3, sd.I.apply((1,)))
    assert sd.P.apply(image) == FsVec.single(Domain.UNINAT, 1, 0, (8,))


def test_standard_projection_mixes_support():
    sd = standard_build(Mat([[2]]))
    x = FsVec(Domain.UNINAT, 1, {0: (1,), 2: (1,)})
    assert sd.P.apply(x) == FsVec.single(Domain.UNINAT, 1, 0, (5,))


def test_standard_projection_fixes_embeds():
    sd = standard_build(Mat([[3, 1], [0, 2]]))
    embedded = sd.I.apply((4, 5))
    assert sd.P.apply(embedded) == embedded


def test_standard_verify_scalar():
    rep = standard_verify(standard_build(Mat([[2]])), [(1,)], n_max=12)
    assert rep.passed


def test_standard_verify_random():
    rng = random.Random(9)
    T = random_mat(rng, 4)
    probes = [tuple(Fraction(rng.randint(-9, 9)) for _ in range(4)) for _ in range(100)]
    rep = standard_verify(standard_build(T), probes, n_max=8)
    assert rep.passed


def test_standard_minimality():
    rep = standard_minimality_check(standard_build(random_mat(random.Random(1), 3)), n_max=10)
    assert rep.passed
    assert "33 basis elements" in rep.checks[0].detail


def test_standard_minimality_trivial_bound():
    with pytest.raises(ValueError, match="^n_max 0 is below the floor of 1$"):
        standard_minimality_check(standard_build(Mat([[7]])), n_max=0)
    rep = standard_minimality_check(standard_build(Mat([[7]])), n_max=1)
    assert rep.passed
    assert "2 basis elements" in rep.checks[0].detail


# ----------------------------------------------------------------------
# two-parameter variant


def test_ando_single_step():
    av = ando_build(Mat([[2]]), Mat([[3]]))
    image = av.V.apply(av.U.apply(av.I.apply((1,))))
    assert av.P.apply(image) == FsVec.single(Domain.GRID, 1, (0, 0), (6,))


def test_ando_mixed_powers():
    av = ando_build(Mat([[2]]), Mat([[3]]))
    image = av.I.apply((1,))
    image = av.U.power_apply(2, image)
    image = av.V.apply(image)
    assert av.P.apply(image).coeff((0, 0)) == (Fraction(12),)


def test_ando_noncommuting_rejected():
    T = Mat([[0, 1], [0, 0]])
    ando_build(T, Mat.identity(2))  # commuting pair builds fine
    with pytest.raises(NonCommuting) as exc:
        ando_build(T, Mat([[0, 0], [1, 0]]))
    assert not exc.value.defect.is_zero()


def test_prepend_identities_on_single_cell():
    av = ando_build(Mat([[2]]), Mat([[3]]))
    x = FsVec.single(Domain.GRID, 1, (0, 0), (1,))
    down, right = av.U.apply(x), av.V.apply(x)
    prepend_zero_row, prepend_zero_column = GridDown(1), GridRight(1)
    assert prepend_zero_column.apply(down) == prepend_zero_row.apply(right)
    assert prepend_zero_column.apply(down) == FsVec.single(Domain.GRID, 1, (1, 1), (1,))
    assert av.V.apply(down) == av.U.apply(right)


def test_ando_verify_scalar_exponentials():
    av = ando_build(Mat([[2]]), Mat([[3]]))
    rep = ando_verify(av, [(1,)], n_max=8, m_max=8)
    assert rep.passed
    # spot value: coordinate (0,0) of P U^n V^m I(1) is 2^n 3^m
    image = av.U.power_apply(3, av.V.power_apply(2, av.I.apply((1,))))
    assert av.P.apply(image).coeff((0, 0)) == (Fraction(8 * 9),)


def test_ando_verify_zero_exponents_fix_embedding():
    av = ando_build(Mat.identity(2), Mat.identity(2))
    embedded = av.I.apply((1, 2))
    assert av.P.apply(embedded) == embedded


@settings(max_examples=15)
@given(matrices(max_dim=2, bound=4))
def test_ando_polynomial_pairs(T):
    S = T * T - T.scale(2) + Mat.identity(T.rows)  # a polynomial in T commutes with T
    av = ando_build(T, S)
    rng = random.Random(5)
    probes = [tuple(Fraction(rng.randint(-4, 4)) for _ in range(T.rows)) for _ in range(3)]
    seq_probes = [
        FsVec(
            Domain.GRID,
            T.rows,
            {
                (rng.randint(0, 4), rng.randint(0, 4)): tuple(
                    rng.randint(-3, 3) for _ in range(T.rows)
                )
                for _ in range(3)
            },
        )
        for _ in range(3)
    ]
    rep = ando_verify(av, probes, n_max=4, m_max=4, seq_probes=seq_probes)
    assert rep.passed


# ----------------------------------------------------------------------
# the verifiers compute their expected side independently of the operators
# under test: an operator wrong at one exponent fails with the witness there


class _PowersOffAt(_PowerCache):
    """Power cache that hands out T^(n+1) in place of T^n at one exponent."""

    def __init__(self, base, at):
        super().__init__(base)
        self.at = at

    def get(self, n):
        return super().get(n + 1 if n == self.at else n)


def _off_at(op, attr, at):
    object.__setattr__(op, attr, _PowersOffAt(getattr(op, attr).base, at))
    return op


class _OffAt(ProjStd):
    """A projection wrong at one index, row or column, through its public
    apply: each coordinate whose index `hit` picks is moved by `extra` (T or
    S) before it is projected, so there it projects T^(n+1) x_n, or
    T^n S^(m+1) x_(n,m), where T^n x_n, or T^n S^m x_(n,m), belongs. The
    fault does not depend on how the projection forms its terms."""

    def __init__(self, *maps, extra, hit):
        super().__init__(*maps)
        object.__setattr__(self, "extra", extra)
        object.__setattr__(self, "hit", hit)

    def apply(self, x):
        hit = [(k, c) for k, c in x.columns.items() if self.hit(k)]
        rest = [(k, c) for k, c in x.columns.items() if not self.hit(k)]
        moved = Componentwise(self.extra, x.domain).apply(FsVec._raw(x.domain, x.dim, hit, x.width))
        return super().apply(FsVec._raw(x.domain, x.dim, rest, x.width)) + super().apply(moved)


class _ProjAndoOffAt(_OffAt, ProjAndo):
    pass


class _StepsWrongAt(dict):
    """A projection memo that keeps a doubled image at one cell (n, m): the
    image there is right, the cells that step from it are not."""

    def __init__(self, cell):
        super().__init__()
        self.cell = cell

    def __setitem__(self, slot, entry):
        column, n, image = entry
        if (n, slot) == self.cell and image is not None:
            image = (image[0], tuple(2 * v for v in image[1]))
        super().__setitem__(slot, (column, n, image))


def _wrong_steps_at(P, cell):
    object.__setattr__(P, "_steps", _StepsWrongAt(cell))
    return P


def test_ando_verify_steps_the_projection_one_matvec_per_cell(monkeypatch):
    # the grid shifts move the probe block's column unchanged, so ProjAndo
    # steps from its image at the cell before: one matvec by S along row 0,
    # one by T down each column, the column itself at (0, 0), and no power
    # of T or S formed at all
    T = Mat([[1, 2], [0, 3]])
    av = ando_build(T, T * T - T)
    # P's own copies of T and S tell its matvecs from the expected side's
    P = ProjAndo(Mat(T.entries), Mat(av.S.entries))
    products, matvecs = [], []
    mul, apply_ints = Mat.__mul__, Mat._apply_ints

    def counting_mul(a, b):
        products.append((a, b))
        return mul(a, b)

    def counting_apply_ints(M, den, nums):
        if M is P.T or M is P.S:
            matvecs.append(M)
        return apply_ints(M, den, nums)

    monkeypatch.setattr(Mat, "__mul__", counting_mul)
    monkeypatch.setattr(Mat, "_apply_ints", counting_apply_ints)
    n_max, m_max = 6, 4
    rep = ando_verify(dataclasses.replace(av, P=P), [(1, 0), (2, -1), (0, 5)], n_max, m_max)
    assert rep.passed
    assert products == []
    assert len(matvecs) == (n_max + 1) * (m_max + 1) - 1
    assert sum(M is P.S for M in matvecs) == m_max


def test_ando_verify_leaves_one_memo_entry_per_column_of_the_grid():
    T = Mat([[1, 2], [0, 3]])
    av = ando_build(T, T * T - T)
    n_max, m_max = 5, 7
    seq_probes = [FsVec(Domain.GRID, 2, {(0, 0): (1, 2), (3, 9): (0, 1)})]
    assert ando_verify(av, [(1, 0), (2, -1)], n_max, m_max, seq_probes=seq_probes).passed
    assert len(av.P._steps) <= m_max + 1


def _grid_single(value):
    return fsvec_to_json(FsVec.single(Domain.GRID, 1, (0, 0), (value,)))


def _failed(rep):
    return {c.name: c.witness for c in rep.failed_checks()}


TWO_PARAMETER = "two-parameter compression I T^n S^m x = P U^n V^m I x"
SINGLE_U = "single-parameter compression P U^n I x = I T^n x"
SINGLE_V = "single-parameter compression P V^m I x = I S^m x"


def test_ando_verify_catches_a_projection_wrong_at_one_row():
    av = ando_build(Mat([[2]]), Mat([[3]]))
    wrong = dataclasses.replace(
        av, P=_ProjAndoOffAt(av.T, av.S, extra=av.T, hit=lambda cell: cell[0] == 3)
    )
    failed = _failed(ando_verify(wrong, [(1,)], n_max=5, m_max=4))
    assert set(failed) == {TWO_PARAMETER, SINGLE_U}
    # the first wrong cell is (3, 0): P reads T^4 x = 16 where T^3 x = 8
    assert failed[TWO_PARAMETER] == {
        "n": 3,
        "m": 0,
        "probe": [1],
        "projected": _grid_single(16),
        "expected": _grid_single(8),
    }
    assert failed[SINGLE_U] == {"n": 3, "probe": [1]}


def test_ando_verify_catches_a_projection_wrong_at_one_column():
    av = ando_build(Mat([[2]]), Mat([[3]]))
    wrong = dataclasses.replace(
        av, P=_ProjAndoOffAt(av.T, av.S, extra=av.S, hit=lambda cell: cell[1] == 2)
    )
    failed = _failed(ando_verify(wrong, [(1,)], n_max=4, m_max=5))
    assert set(failed) == {TWO_PARAMETER, SINGLE_V}
    assert failed[TWO_PARAMETER] == {
        "n": 0,
        "m": 2,
        "probe": [1],
        "projected": _grid_single(27),
        "expected": _grid_single(9),
    }
    assert failed[SINGLE_V] == {"m": 2, "probe": [1]}


def test_ando_verify_catches_a_projection_that_steps_from_a_wrong_image():
    av = ando_build(Mat([[2]]), Mat([[3]]))
    # the image at (1, 2) is right; (2, 2) steps from its doubled copy
    wrong = dataclasses.replace(av, P=_wrong_steps_at(ProjAndo(av.T, av.S), (1, 2)))
    failed = _failed(ando_verify(wrong, [(1,)], n_max=4, m_max=4))
    assert failed == {
        TWO_PARAMETER: {
            "n": 2,
            "m": 2,
            "probe": [1],
            "projected": _grid_single(72),
            "expected": _grid_single(36),
        }
    }
    # on row 0 the cells along the row step from it too: (0, 2) first
    wrong = dataclasses.replace(av, P=_wrong_steps_at(ProjAndo(av.T, av.S), (0, 1)))
    failed = _failed(ando_verify(wrong, [(1,)], n_max=4, m_max=4))
    assert set(failed) == {TWO_PARAMETER, SINGLE_V}
    assert failed[TWO_PARAMETER] == {
        "n": 0,
        "m": 2,
        "probe": [1],
        "projected": _grid_single(18),
        "expected": _grid_single(9),
    }
    assert failed[SINGLE_V] == {"m": 2, "probe": [1]}


def test_standard_verify_catches_a_projection_wrong_at_one_index():
    sd = standard_build(Mat([[2]]))
    wrong = dataclasses.replace(sd, P=_OffAt(sd.T, extra=sd.T, hit=lambda n: n == 4))
    failed = _failed(standard_verify(wrong, [(1,)], n_max=6))
    assert list(failed) == ["dilation equation I T^n x = P U^n I x (0 <= n <= bound)"]
    assert failed["dilation equation I T^n x = P U^n I x (0 <= n <= bound)"] == {
        "n": 4,
        "probe": [1],
        "projected": fsvec_to_json(FsVec.single(Domain.UNINAT, 1, 0, (32,))),
        "expected": fsvec_to_json(FsVec.single(Domain.UNINAT, 1, 0, (16,))),
    }


IDEMPOTENT = "projection idempotent on probes"
RANGE = "range: projection lands at index 0 and fixes embedded vectors"
SHIFT_EXCHANGE = (
    "shift exchange: zero-column-prepended U x equals zero-row-prepended V x, and U V = V U"
)


def _uninat_single(index, value):
    return fsvec_to_json(FsVec.single(Domain.UNINAT, 1, index, (value,)))


def test_standard_verify_catches_a_projection_that_lands_off_the_origin():
    sd = standard_build(Mat([[2]]))
    wrong = dataclasses.replace(sd, P=ShiftedProjStd(sd.T))
    failed = _failed(standard_verify(wrong, [(1,)], n_max=3))
    assert list(failed) == [IDEMPOTENT, RANGE, DILATION_EQUATION]
    # P e_0 = e_1, and P e_1 = 2 e_1, not e_1
    off_origin = {"probe": _uninat_single(0, 1), "projected": _uninat_single(1, 1)}
    assert failed[IDEMPOTENT] == off_origin
    assert failed[RANGE] == off_origin


def test_standard_verify_catches_a_projection_that_fixes_no_embedded_vector():
    # P = 0 is idempotent and lands at index 0, so only the n = 0 case of
    # the dilation equation shows that it fixes no embedded vector
    sd = standard_build(Mat([[2]]))
    wrong = dataclasses.replace(sd, P=Componentwise(Mat([[0]])))
    failed = _failed(standard_verify(wrong, [(1,)], n_max=3))
    assert list(failed) == [RANGE, DILATION_EQUATION]
    assert failed[RANGE] == {"vector": [1]}
    assert failed[DILATION_EQUATION]["n"] == 0


def test_ando_verify_catches_a_forward_shift_along_the_wrong_axis():
    av = ando_build(Mat([[2]]), Mat([[3]]))
    wrong = dataclasses.replace(av, U=GridRight(1))
    failed = _failed(ando_verify(wrong, [(1,)], n_max=2, m_max=2))
    assert list(failed) == [TWO_PARAMETER, SINGLE_U, SHIFT_EXCHANGE]
    probe = fsvec_to_json(FsVec.single(Domain.GRID, 1, (0, 0), (1,)))
    assert failed[SHIFT_EXCHANGE] == {"probe": probe, "identity": "prepend"}


class _GridRightDoublingOffRowZero(GridRight):
    """Doubles its image when the input has support off row 0, which the
    cells V^m I x never have, so only U V = V U can see it."""

    def apply(self, x):
        y = super().apply(x)
        return y.scale(2) if any(n for n, _ in x.indices()) else y


def test_ando_verify_catches_shifts_that_do_not_commute():
    av = ando_build(Mat([[2]]), Mat([[3]]))
    wrong = dataclasses.replace(av, V=_GridRightDoublingOffRowZero(1))
    probe = FsVec.single(Domain.GRID, 1, (0, 0), (1,))
    failed = _failed(ando_verify(wrong, [(1,)], n_max=2, m_max=2, seq_probes=[probe]))
    assert failed == {SHIFT_EXCHANGE: {"probe": fsvec_to_json(probe), "identity": "exchange"}}


class _SchafferUWrongOnThirdStep(SchafferU):
    """Adds e_0 to its image when the input reaches index -2, which U^n I x
    does first at n = 2, so P U^n I x is wrong from n = 3 on."""

    def apply(self, x):
        return per_probe(self._apply_probe, x)

    def _apply_probe(self, x):
        y = super().apply(x)
        if x.support and min(x.support) == -2:
            y = y + FsVec.single(Domain.BIINT, self.dim, 0, (1,) * self.dim)
        return y


def test_schaffer_verify_catches_an_operator_wrong_at_one_power():
    sd = schaffer_build(Mat([[2]]))
    wrong = dataclasses.replace(sd, U=_SchafferUWrongOnThirdStep(sd.T))
    failed = _failed(schaffer_verify(wrong, [(1,)], n_max=5))
    name = "compression: coordinate 0 of U^n(I x) equals T^n x (1 <= n <= bound)"
    assert list(failed) == [name]
    assert failed[name] == {
        "n": 3,
        "probe": [1],
        "projected": fsvec_to_json(FsVec.single(Domain.BIINT, 1, 0, (9,))),
        "expected": fsvec_to_json(FsVec.single(Domain.BIINT, 1, 0, (8,))),
    }


# ----------------------------------------------------------------------
# ando_verify against a copy of the loop it replaced: one pass over the
# cells V^m U^n I x per probe, with the expected side I T^n S^m x formed
# by plain-Fraction matrix-vector products; the operators under test are
# the same objects on both sides


def _fraction_apply(rows, x):
    return tuple(sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows)


def _reference_ando_report(av, probes, n_max, m_max, seq_probes):
    report = Report(
        suite="ando_verify",
        config={
            "n_max": n_max,
            "m_max": m_max,
            "probes": len(probes),
            "seq_probes": len(seq_probes),
        },
    )
    T, S = av.T.entries, av.S.entries
    witness = u_witness = v_witness = None
    for x in probes:
        x = tuple(Fraction(v) for v in x)
        row_shifted = av.I.apply(x)
        orbit = [x]
        for _ in range(m_max):
            orbit.append(_fraction_apply(S, orbit[-1]))
        for n in range(n_max + 1):
            if n > 0:
                orbit = [_fraction_apply(T, y) for y in orbit]
            cell = row_shifted
            for m, value in enumerate(orbit):
                projected = av.P.apply(cell)
                expected = FsVec.single(Domain.GRID, av.dim, (0, 0), value)
                if projected != expected:
                    if witness is None:
                        witness = {
                            "n": n,
                            "m": m,
                            "probe": vec_to_json(x),
                            "projected": fsvec_to_json(projected),
                            "expected": fsvec_to_json(expected),
                        }
                    if u_witness is None and m == 0 < n:
                        u_witness = {"n": n, "probe": vec_to_json(x)}
                    if v_witness is None and n == 0 < m:
                        v_witness = {"m": m, "probe": vec_to_json(x)}
                cell = av.V.apply(cell)
            row_shifted = av.U.apply(row_shifted)
    report.add(TWO_PARAMETER, witness is None, bound=max(n_max, m_max), witness=witness)
    report.add(SINGLE_U, u_witness is None, bound=n_max, witness=u_witness)
    report.add(SINGLE_V, v_witness is None, bound=m_max, witness=v_witness)
    witness = None
    for x in seq_probes:
        down, right = av.U.apply(x), av.V.apply(x)
        if GridRight(av.dim).apply(down) != GridDown(av.dim).apply(right):
            witness = {"probe": fsvec_to_json(x), "identity": "prepend"}
            break
        if av.V.apply(down) != av.U.apply(right):
            witness = {"probe": fsvec_to_json(x), "identity": "exchange"}
            break
    report.add(
        "shift exchange: zero-column-prepended U x equals zero-row-prepended V x, and U V = V U",
        witness is None,
        bound=len(seq_probes),
        witness=witness,
    )
    return report


class _ProjAndoWrongAtCells(ProjAndo):
    """Adds 1 to coordinate j of its output whenever its input has a
    nonzero coordinate j at a cell c, for each (c, j) in `faults`: wrong on
    one coordinate, so only for the probes that reach it."""

    def __init__(self, T, S, faults):
        super().__init__(T, S)
        object.__setattr__(self, "faults", faults)

    def apply(self, x):
        return per_probe(self._apply_probe, x)

    def _apply_probe(self, x):
        y = super().apply(x)
        for cell, j in self.faults:
            if x.coeff(cell)[j]:
                bump = [int(i == j) for i in range(self.dim)]
                y = y + FsVec.single(Domain.GRID, self.dim, (0, 0), bump)
        return y


def test_ando_verify_witnesses_run_probe_first():
    # the second probe breaks at (1, 0), the first only later, at (2, 1)
    av = ando_build(Mat.identity(2), Mat.identity(2))
    wrong = dataclasses.replace(av, P=_ProjAndoWrongAtCells(av.T, av.S, [((1, 0), 1), ((2, 1), 0)]))
    failed = _failed(ando_verify(wrong, [(1, 0), (0, 1)], n_max=3, m_max=3))
    assert failed[TWO_PARAMETER] == {
        "n": 2,
        "m": 1,
        "probe": [1, 0],
        "projected": fsvec_to_json(FsVec.single(Domain.GRID, 2, (0, 0), (2, 0))),
        "expected": fsvec_to_json(FsVec.single(Domain.GRID, 2, (0, 0), (1, 0))),
    }
    assert failed[SINGLE_U] == {"n": 1, "probe": [0, 1]}
    assert SINGLE_V not in failed


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_ando_verify_matches_the_fraction_loop(data):
    T = data.draw(matrices(max_dim=3, bound=3), label="T")
    a, b = data.draw(st.tuples(rationals(3), rationals(3)), label="S = a T + b I")
    S = T.scale(a) + Mat.identity(T.rows).scale(b)
    av = ando_build(T, S)
    n_max, m_max = data.draw(st.tuples(st.integers(1, 3), st.integers(1, 3)), label="bounds")
    cells = st.tuples(st.integers(0, n_max), st.integers(0, m_max))
    if data.draw(st.booleans(), label="stepped"):
        # a plain projection, which steps from cell to cell, with perhaps a
        # wrong image kept at one cell for the next to step from
        P = ProjAndo(T, S)
        step_fault = data.draw(st.none() | cells, label="step fault")
        if step_fault is not None:
            P = _wrong_steps_at(P, step_fault)
    else:
        # wrong at some cells, per probe: its terms come from the powers
        faults = data.draw(st.lists(st.tuples(cells, st.integers(0, T.rows - 1)), max_size=3))
        P = _ProjAndoWrongAtCells(T, S, faults)
        power_fault = data.draw(st.sampled_from([None, "_powers", "_s_powers"]), label="power")
        if power_fault is not None:
            at = data.draw(st.integers(1, n_max if power_fault == "_powers" else m_max))
            P = _off_at(P, power_fault, at)
    av = dataclasses.replace(av, P=P)
    # the basis in some order, so that a coordinate fault breaks the probes at different cells
    basis = [tuple(int(i == j) for i in range(T.rows)) for j in range(T.rows)]
    probes = data.draw(st.permutations(basis), label="basis") + data.draw(
        st.lists(vectors(T.rows, 2), max_size=2), label="probes"
    )
    seq_probes = data.draw(st.lists(fsvecs(Domain.GRID, T.rows, 5), max_size=2), label="seq")
    got = ando_verify(av, probes, n_max, m_max, seq_probes=seq_probes)
    want = _reference_ando_report(av, probes, n_max, m_max, seq_probes)
    assert got.to_json() == want.to_json()


# ----------------------------------------------------------------------
# schaffer_verify, standard_verify and the minimality check against copies
# of their per-probe loops, with the expected side formed by plain-Fraction
# matrix-vector products. The injected defect breaks the second probe at
# n = 1 and the first only at n = 3, which pins the order of the witnesses:
# (n, probe) for the compressions, (basis index, n) for minimality.

SCHAFFER_COMPRESSION = "compression: coordinate 0 of U^n(I x) equals T^n x (1 <= n <= bound)"
DILATION_EQUATION = "dilation equation I T^n x = P U^n I x (0 <= n <= bound)"


def _reference_inverse_pair(report, a, b, seq_probes):
    for name, first, second in (("a(b(x)) = x", b, a), ("b(a(x)) = x", a, b)):
        witness = None
        for x in seq_probes:
            y = second.apply(first.apply(x))
            if y != x:
                witness = {"probe": fsvec_to_json(x), "result": fsvec_to_json(y)}
                break
        report.add(f"inverse pair: {name}", witness is None, bound=len(seq_probes), witness=witness)


def _reference_compression(dil, probes, first_n, n_max):
    """The first (n, probe), in that order, with P U^n I x != I T^n x."""
    T = dil.T.entries
    images = [dil.I.apply(x) for x in probes]
    values = [tuple(Fraction(v) for v in x) for x in probes]
    for n in range(n_max + 1):
        for i, x in enumerate(probes):
            if n > 0:
                images[i] = dil.U.apply(images[i])
                values[i] = _fraction_apply(T, values[i])
            projected = dil.P.apply(images[i])
            expected = FsVec.single(projected.domain, dil.dim, 0, values[i])
            if n >= first_n and projected != expected:
                return {
                    "n": n,
                    "probe": vec_to_json(tuple(Fraction(v) for v in x)),
                    "projected": fsvec_to_json(projected),
                    "expected": fsvec_to_json(expected),
                }
    return None


def _reference_schaffer_report(sd, probes, n_max, seq_probes):
    report = Report(
        suite="schaffer_verify",
        config={"n_max": n_max, "probes": len(probes), "seq_probes": len(seq_probes)},
    )
    _reference_inverse_pair(report, sd.U, sd.U_inv, seq_probes)
    witness = _reference_compression(sd, probes, 1, n_max)
    report.add(SCHAFFER_COMPRESSION, witness is None, bound=n_max, witness=witness)
    return report


def _reference_standard_report(sd, probes, n_max, seq_probes):
    report = Report(
        suite="standard_verify",
        config={"n_max": n_max, "probes": len(probes), "seq_probes": len(seq_probes)},
    )
    basis = [tuple(Fraction(int(i == j)) for j in range(sd.dim)) for i in range(sd.dim)]
    witness = next(
        ({"basis_index": i} for i, e in enumerate(basis) if sd.I.apply(e).is_zero()), None
    )
    report.add(
        "embedding injective (nonzero on basis; structural for index placement)",
        witness is None,
        bound=sd.dim,
        witness=witness,
    )
    witness = next(
        (
            {"probe": fsvec_to_json(x)}
            for x in seq_probes
            if not x.is_zero() and sd.U.apply(x).is_zero()
        ),
        None,
    )
    report.add(
        "forward map injective on probes (structural for the shift)",
        witness is None,
        bound=len(seq_probes),
        witness=witness,
    )
    witness = None
    for x in seq_probes:
        once = sd.P.apply(x)
        if sd.P.apply(once) != once:
            witness = {"probe": fsvec_to_json(x), "projected": fsvec_to_json(once)}
            break
    report.add("projection idempotent on probes", witness is None, bound=len(seq_probes), witness=witness)
    witness = None
    for x in seq_probes:
        image = sd.P.apply(x)
        if any(k != 0 for k in image.indices()):
            witness = {"probe": fsvec_to_json(x), "projected": fsvec_to_json(image)}
            break
    if witness is None:
        for x in probes:
            embedded = sd.I.apply(x)
            if sd.P.apply(embedded) != embedded:
                witness = {"vector": vec_to_json(tuple(Fraction(v) for v in x))}
                break
    report.add(
        "range: projection lands at index 0 and fixes embedded vectors",
        witness is None,
        bound=len(seq_probes) + len(probes),
        witness=witness,
    )
    witness = _reference_compression(sd, probes, 0, n_max)
    report.add(DILATION_EQUATION, witness is None, bound=n_max, witness=witness)
    return report


def _reference_minimality_report(sd, n_max):
    report = Report(suite="standard_minimality", config={"n_max": n_max, "dim": sd.dim})
    witness = None
    for i in range(sd.dim):
        e_i = tuple(Fraction(int(i == j)) for j in range(sd.dim))
        image = sd.I.apply(e_i)
        for n in range(n_max + 1):
            expected = FsVec.single(Domain.UNINAT, sd.dim, n, e_i)
            if witness is None and image != expected:
                witness = {
                    "n": n,
                    "basis_index": i,
                    "got": fsvec_to_json(image),
                    "expected": fsvec_to_json(expected),
                }
            image = sd.U.apply(image)
    report.add(
        "minimality: U^n I e_i equals the basis element at index n",
        witness is None,
        bound=n_max,
        witness=witness,
        detail=f"{(n_max + 1) * sd.dim} basis elements certified",
    )
    return report


# a diagonal T keeps each basis probe on its own coordinate, so that a
# defect reading coordinate j moves only the probes that have one
DIAGONAL = Mat([[2, 0], [0, 3]])
BASIS_FIRST = [(1, 0), (0, 1), (3, 0), (2, 5)]


def test_schaffer_verify_matches_the_per_probe_loop():
    sd = schaffer_build(DIAGONAL)
    # coordinate 1 of x_0 and coordinate 0 of x_-2 are added into index 0:
    # U^n I e_1 is wrong from n = 1 on, U^n I e_0 from n = 3 on
    defect = SumOp(
        Compose((Componentwise(coordinate(2, 1), Domain.BIINT), CoordProj0(2, Domain.BIINT))),
        Compose(
            (
                Componentwise(coordinate(2, 0), Domain.BIINT),
                CoordProj0(2, Domain.BIINT),
                ShiftBilat(2),
                ShiftBilat(2),
            )
        ),
    )
    wrong = dataclasses.replace(sd, U=SumOp(sd.U, defect))
    seq_probes = [FsVec(Domain.BIINT, 2, {-3: (1, 0), 2: (0, 4)}), FsVec(Domain.BIINT, 2, {5: (1, 1)})]
    for dil in (sd, wrong):
        got = schaffer_verify(dil, BASIS_FIRST, 5, seq_probes=seq_probes)
        assert got.to_json() == _reference_schaffer_report(dil, BASIS_FIRST, 5, seq_probes).to_json()
    assert _failed(got)[SCHAFFER_COMPRESSION]["n"] == 1
    assert _failed(got)[SCHAFFER_COMPRESSION]["probe"] == [0, 1]


def test_standard_verify_and_minimality_match_the_per_probe_loops():
    sd = standard_build(DIAGONAL)
    # coordinate 1 of x_0 is added at index 1, coordinate 0 of x_2 at index 3
    defect = ColumnBlocks({(1, 0): coordinate(2, 1), (3, 2): coordinate(2, 0)}, dim_in=2, dim_out=2)
    wrong = dataclasses.replace(sd, U=SumOp(sd.U, defect))
    seq_probes = [FsVec(Domain.UNINAT, 2, {0: (1, 0), 4: (0, 4)}), FsVec(Domain.UNINAT, 2, {2: (1, 1)})]
    for dil in (sd, wrong):
        got = standard_verify(dil, BASIS_FIRST, 5, seq_probes=seq_probes)
        assert got.to_json() == _reference_standard_report(dil, BASIS_FIRST, 5, seq_probes).to_json()
        got_minimality = standard_minimality_check(dil, 5)
        assert got_minimality.to_json() == _reference_minimality_report(dil, 5).to_json()
    assert (_failed(got)[DILATION_EQUATION]["n"], _failed(got)[DILATION_EQUATION]["probe"]) == (1, [0, 1])
    minimality = got_minimality.checks[0].witness
    assert (minimality["basis_index"], minimality["n"]) == (0, 3)


# ----------------------------------------------------------------------
# the compression loop carries T^n z as integer columns; a reference that
# steps z as FsVecs by Componentwise(T, P.domain) yields the same


def _reference_compression_mismatches(T, U, P, starts, n_max):
    t_step = Componentwise(T, P.domain)
    ys, zs = [y for y, _ in starts], [z for _, z in starts]
    for n in range(n_max + 1):
        for i, (y, z) in enumerate(zip(ys, zs)):
            if n > 0:
                ys[i] = y = U.apply(y)
                zs[i] = z = t_step.apply(z)
            for j, projected, expected in sequence.differing_probes(P.apply(y), z):
                yield n, i, j, projected, expected


def _outcome(mismatches):
    """What a run yields, as comparable keys, and the error it ends with."""
    got = []
    try:
        for n, i, j, projected, expected in mismatches:
            got.append((n, i, j) + tuple(
                (f.domain, f.dim, f.width, tuple(f.columns.items())) for f in (projected, expected)
            ))
    except DomainMismatch as exc:
        return got, str(exc)
    return got, None


class _FaultyP(SeqOp):
    """P, made wrong from its `after`-th call on by `fault`: a unit block
    added at the origin, a unit block added at another index, or a width
    one larger than its columns."""

    def __init__(self, P, fault, after=0):
        self.P, self.fault, self.after, self.calls = P, fault, after, 0
        self.domain = P.domain

    def apply(self, y):
        self.calls += 1
        out = self.P.apply(y)
        if self.calls <= self.after:
            return out
        if self.fault == "width":
            return FsVec._raw(out.domain, out.dim, out.columns.items(), out.width + 1)
        other = {Domain.UNINAT: 1, Domain.BIINT: -1, Domain.GRID: (0, 1)}[self.domain]
        index = self.domain.origin if self.fault == "late" else other
        unit = (1, (1,) * (out.dim * out.width))
        return out + FsVec._raw(out.domain, out.dim, [(index, unit)], out.width)


def _dilation_and_starts(domain, T, vecs):
    """(U, P, starts) of the dilation of T on `domain`: the embedded probes,
    and for ando the m-starts with S a polynomial in T."""
    if domain is Domain.GRID:
        av = ando_build(T, T * T + Mat.identity(T.rows))
        starts = [(av.I.apply_block(vecs),) * 2]
        s_step = Componentwise(av.S, Domain.GRID)
        for _ in range(2):
            y, z = starts[-1]
            starts.append((av.V.apply(y), s_step.apply(z)))
        U, P = av.U, av.P
    else:
        dil = standard_build(T) if domain is Domain.UNINAT else schaffer_build(T)
        starts = [(dil.I.apply_block(vecs),) * 2]
        U, P = dil.U, dil.P
    return U, P, starts


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_compression_mismatches_match_the_fsvec_stepping_reference(data):
    domain = data.draw(st.sampled_from(list(Domain)), label="domain")
    T = data.draw(matrices(max_dim=2, bound=4), label="T")
    vecs = data.draw(st.lists(vectors(T.rows, 4), min_size=1, max_size=3), label="probes")
    U, P, starts = _dilation_and_starts(domain, T, vecs)
    random_start = data.draw(st.booleans(), label="random start")
    if random_start:  # a pair (y, z) that need not satisfy the identity
        starts.append((data.draw(fsvecs(domain, T.rows, 4)), data.draw(fsvecs(domain, T.rows, 4))))
    n_max = data.draw(st.integers(0, 4), label="n_max")
    fault = data.draw(st.sampled_from([None, "late", "extra index", "width"]), label="fault")
    late = data.draw(st.integers(0, n_max), label="late n") * len(starts)

    def faulty():
        return P if fault is None else _FaultyP(P, fault, late)

    got = _outcome(sequence.compression_mismatches(T, U, faulty(), starts, n_max))
    want = _outcome(_reference_compression_mismatches(T, U, faulty(), starts, n_max))
    assert got == want
    if fault == "width":
        assert got[1] is not None
    if fault is None and not random_start:
        assert got == ([], None)


@pytest.mark.parametrize("domain", list(Domain))
def test_compression_mismatches_build_no_fsvec_where_the_sides_agree(domain, monkeypatch):
    calls, built, applied = [], [], []
    monkeypatch.setattr(sequence, "differing_probes", lambda a, b: calls.append(1) or iter(()))
    # a denominator, a gcd to take out at each step, and a nilpotent part
    for T in (Mat([["1/2", 1], [0, "2/3"]]), Mat([[2, 4], [0, 0]]), Mat([[0, 1], [0, 0]])):
        vecs = [(1, 0), (3, -6), (0, "1/5")]
        if domain is Domain.GRID:
            dil = ando_build(T, T)
        else:
            dil = standard_build(T) if domain is Domain.UNINAT else schaffer_build(T)
        starts = [(dil.I.apply_block(vecs),) * 2]
        with monkeypatch.context() as patched:
            # the loop carries columns: no FsVec is built and no apply runs
            raw = FsVec._raw
            patched.setattr(FsVec, "_raw", lambda *args: built.append(1) or raw(*args))
            patched.setattr(SeqOp, "apply", lambda op, x: applied.append(op))
            assert list(sequence.compression_mismatches(T, dil.U, dil.P, starts, 6)) == []
    assert calls == built == applied == []


def test_compression_mismatches_reject_a_start_of_the_wrong_space():
    T = Mat([[2, 1], [0, 1]])
    sd = standard_build(T)
    y = sd.I.apply((1, 2))
    for z, got in (
        (FsVec.single(Domain.UNINAT, 1, 0, (1,)), "(uninat, dim 1)"),
        (FsVec.single(Domain.BIINT, 2, 0, (1, 2)), "(biint, dim 2)"),
    ):
        with pytest.raises(DomainMismatch) as exc:
            next(sequence.compression_mismatches(T, sd.U, sd.P, [(y, y), (y, z)], 0))
        assert str(exc.value) == f"Componentwise expects (uninat, dim 2), got {got}"


@given(
    st.integers(1, 60),
    st.lists(st.integers(-30, 30), min_size=1, max_size=6),
)
def test_sum_of_one_term_equals_the_lcm_path(den, nums):
    zero = (1, [0] * len(nums))
    assert _sum_ints([(den, nums)]) == _sum_ints([(den, nums), zero])
    assert _sum_ints([(den, nums)]) == reduce_column(den, nums)


def _doubling(cls):
    """A subclass of the operator class cls that overrides only apply, to
    double the image."""
    return type(f"Doubling{cls.__name__}", (cls,), {"apply": lambda op, x: cls.apply(op, x).scale(2)})


def test_an_overridden_apply_of_every_operator_class_reaches_its_verifier():
    # The verifiers run operators on columns; a class that overrides apply
    # must still be run through it. Each case replaces one operator of a
    # dilation, or the lift, by its doubling subclass and names a check that
    # the doubled image fails.
    T, S = Mat([[2, 1], [0, 3]]), Mat([[3, 1], [0, 4]])
    d, vecs = T.rows, [(1, 0), (1, -2)]
    sd, schaffer, ando = standard_build(T), schaffer_build(T), ando_build(T, S)
    pair = make_pair(T, T, S)

    def standard_fails(**ops):
        return _failed(standard_verify(dataclasses.replace(sd, **ops), vecs, 4))

    def schaffer_fails(**ops):
        return _failed(schaffer_verify(dataclasses.replace(schaffer, **ops), vecs, 4))

    def ando_fails(**ops):
        return _failed(ando_verify(dataclasses.replace(ando, **ops), vecs, 3, 3))

    def read_off(R):
        return read_off_intertwiner(R, pair.dil1, pair.dil2)

    inverse = "inverse pair: a(b(x)) = x"
    left_shift = SchafferU(Mat.zeros(d, d))  # (Ux)_n = x_{n+1}: ShiftBilat's inverse
    blocks = {(0, 0): S}
    cases = {
        ShiftRight: lambda D: DILATION_EQUATION in standard_fails(U=D(d)),
        ProjStd: lambda D: IDEMPOTENT in standard_fails(P=D(T)),
        CoordProj0: lambda D: SCHAFFER_COMPRESSION in schaffer_fails(P=D(d, Domain.BIINT)),
        SchafferU: lambda D: inverse in schaffer_fails(U=D(T)),
        SchafferVInv: lambda D: inverse in schaffer_fails(U_inv=D(T)),
        ShiftBilat: lambda D: not check_inverse_pair(D(d), left_shift, [schaffer.I.apply((1, 2))]).passed,
        GridDown: lambda D: TWO_PARAMETER in ando_fails(U=D(d)),
        GridRight: lambda D: TWO_PARAMETER in ando_fails(V=D(d)),
        ProjAndo: lambda D: TWO_PARAMETER in ando_fails(P=D(T, S)),
        # a lift that doubles its image still intertwines; the map read off
        # it, which the intertwine suite compares with S, is doubled
        Componentwise: lambda D: read_off(D(S)) == S.scale(2),
        ColumnBlocks: lambda D: read_off(D(blocks, dim_in=d, dim_out=d)) == S.scale(2),
        BlockDense: lambda D: read_off(D(S, d)) == S.scale(2),
        Compose: lambda D: read_off(D((Componentwise(S),))) == S.scale(2),
        PowerOp: lambda D: read_off(D(Componentwise(S), 1)) == S.scale(2),
    }
    # EmbedI takes ambient vectors and keeps its own apply: it is on no
    # column path
    public = {
        cls
        for name, cls in vars(seqops).items()
        if isinstance(cls, type) and issubclass(cls, SeqOp) and not name.startswith("_")
    }
    assert public == {*cases, EmbedI, SeqOp}
    for cls, caught in cases.items():
        assert not caught(cls), cls  # the operator itself passes
        assert caught(_doubling(cls)), cls
