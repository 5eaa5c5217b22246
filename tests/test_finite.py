import dataclasses
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilatekit import Mat
from dilatekit.finite import (
    INCONCLUSIVE_VERDICT,
    NOT_SIMILAR,
    SCHUR_CLASSES,
    PreconditionFailed,
    halmos_build,
    inverse_holds,
    ndilation_build,
    ndilation_verify,
    nonsimilar_pair,
    schur_build,
)
from dilatekit.report import Check, Report
from dilatekit.serialize import mat_to_json, vec_to_json
from strategies import matrices, rationals, vectors


def random_mat(rng, dim, bound=9):
    return Mat(
        [
            [Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(dim)]
            for _ in range(dim)
        ]
    )


# ----------------------------------------------------------------------
# two-block dilation


def test_halmos_scalar():
    hd = halmos_build(Mat([[2]]))
    assert hd.U == Mat([[2, 1], [1, 0]])
    assert hd.U_inv == Mat([[0, 1], [1, -2]])
    assert hd.U * hd.U_inv == Mat.identity(2)


def test_halmos_zero_map_is_involution():
    hd = halmos_build(Mat.zeros(3, 3))
    assert hd.U == hd.U_inv
    assert hd.U * hd.U == Mat.identity(6)


def test_halmos_matches_dense_oracle():
    rng = random.Random(11)
    for _ in range(10):
        hd = halmos_build(random_mat(rng, 3))
        assert hd.U_inv == hd.U.inverse()


@given(matrices(max_dim=4))
def test_halmos_closed_form_always_inverts(T):
    hd = halmos_build(T)
    assert hd.U * hd.U_inv == Mat.identity(2 * T.rows)
    assert hd.U_inv * hd.U == Mat.identity(2 * T.rows)


def _written_out(blocks, d):
    """The 2d x 2d matrix of the 2x2 grid of d x d entry lists, entry by entry."""
    return Mat([[blocks[r // d][c // d][r % d][c % d] for c in range(2 * d)] for r in range(2 * d)])


def test_halmos_and_a2_are_the_written_out_blocks():
    rng = random.Random(18)
    for _ in range(20):
        d = rng.randint(1, 4)
        T = random_mat(rng, d)
        t = T.entries
        eye = [[int(r == c) for c in range(d)] for r in range(d)]
        zero = [[0] * d for _ in range(d)]
        neg_t = [[-v for v in row] for row in t]
        U = _written_out([[t, eye], [eye, zero]], d)
        U_inv = _written_out([[zero, eye], [eye, neg_t]], d)
        hd, pair = halmos_build(T), nonsimilar_pair(T)
        assert (hd.U, hd.U_inv) == (U, U_inv)
        assert (pair.A2, pair.A2_inv) == (U, U_inv)


# ----------------------------------------------------------------------
# Schur families


def test_class_i_scalar_instance():
    fam = schur_build("i", Mat([[2]]), Mat([[1]]), Mat([[1]]), Mat([[1]]))
    assert fam.schur == Mat([["1/2"]])
    oracle = Mat([[2, 1], [1, 1]]).inverse()
    assert oracle == Mat([[1, -1], [-1, 2]])
    assert fam.U_inv == oracle
    assert fam.U_inv[0, 0] == 1


def test_class_i_truncated_top_left_is_wrong():
    # Dropping the trailing C T^-1 factor from the top-left entry yields
    # 3/2 on the scalar instance; the true entry is 1. The closed form in
    # the package keeps the full sandwich, and only that version inverts U.
    T, B, C, D = (Mat([[v]]) for v in (2, 1, 1, 1))
    Ti = T.inverse()
    Si = (D - C * Ti * B).inverse()
    truncated = Ti + Ti * B * Si
    assert truncated[0, 0] == Fraction(3, 2)
    full = Ti + Ti * B * Si * C * Ti
    assert full[0, 0] == 1
    fam = schur_build("i", T, B, C, D)
    assert fam.U_inv[0, 0] == full[0, 0]
    broken = Mat.block([[truncated, -(Ti * B * Si)], [-(Si * C * Ti), Si]])
    assert fam.U * broken != Mat.identity(2)


def test_class_ii_zero_top_left():
    fam = schur_build("ii", Mat([[0]]), Mat([[1]]), Mat([[1]]), Mat([[1]]))
    assert fam.schur == Mat([[-1]])
    assert fam.U_inv == Mat([[0, 1], [1, 1]]).inverse()


def test_class_i_singular_top_left_rejected():
    with pytest.raises(PreconditionFailed) as exc:
        schur_build("i", Mat([[0]]), Mat([[1]]), Mat([[1]]), Mat([[1]]))
    assert exc.value.which == "T"


def test_class_i_singular_schur_complement_rejected():
    # D - C T^-1 B = 1 - 1 = 0
    with pytest.raises(PreconditionFailed) as exc:
        schur_build("i", Mat([[1]]), Mat([[1]]), Mat([[1]]), Mat([[1]]))
    assert "D - C T^-1 B" in exc.value.which


@pytest.mark.parametrize(
    "tag, corner, complement",
    [("ii", "D", "T - B D^-1 C"), ("iii", "B", "C - D B^-1 T"), ("iv", "C", "B - T C^-1 D")],
)
def test_classes_ii_to_iv_reject_a_singular_corner_or_complement(tag, corner, complement):
    ones = {name: Mat([[1]]) for name in "TBCD"}
    with pytest.raises(PreconditionFailed) as exc:
        schur_build(tag, **{**ones, corner: Mat([[0]])})
    assert exc.value.which == corner
    # every block 1: each class's complement is 1 - 1 * 1^-1 * 1 = 0
    with pytest.raises(PreconditionFailed) as exc:
        schur_build(tag, **ones)
    assert exc.value.which == complement


def test_unknown_class_rejected():
    with pytest.raises(ValueError):
        schur_build("v", Mat([[1]]), Mat([[1]]), Mat([[1]]), Mat([[1]]))


@pytest.mark.parametrize("tag", SCHUR_CLASSES)
def test_all_classes_match_dense_oracle(tag):
    rng = random.Random(hash(tag) % 1000)
    built = 0
    while built < 15:
        blocks = [random_mat(rng, rng.randint(1, 3)) for _ in range(4)]
        dim = blocks[0].rows
        blocks = [b if b.rows == dim else random_mat(rng, dim) for b in blocks]
        try:
            fam = schur_build(tag, *blocks)
        except PreconditionFailed:
            continue
        assert fam.U_inv == fam.U.inverse()
        assert fam.U * fam.U_inv == Mat.identity(2 * dim)
        built += 1


def test_schur_build_forms_each_sub_product_once(monkeypatch):
    calls = []
    product = Mat.__mul__

    def counting(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(Mat, "__mul__", counting)
    blocks = Mat([[2, 1], [0, 3]]), Mat([[1, 0], [1, 1]]), Mat([[1, 2], [0, 1]]), Mat([[5, 0], [1, 4]])
    counts, families = [], []
    for tag in SCHUR_CLASSES:
        calls.clear()
        families.append(schur_build(tag, *blocks))
        counts.append(len(calls))
    assert counts == [6, 6, 6, 6]
    assert all(fam.U * fam.U_inv == Mat.identity(4) for fam in families)


# ----------------------------------------------------------------------
# non-similar pair


def test_nonsimilar_scalar_two():
    pair = nonsimilar_pair(Mat([[2]]))
    assert pair.A1 == Mat([[2, 1], [3, 2]])
    assert pair.A2 == Mat([[2, 1], [1, 0]])
    assert (pair.trace_a1, pair.trace_a2) == (4, 2)
    assert pair.verdict == NOT_SIMILAR


def test_nonsimilar_scalar_one():
    pair = nonsimilar_pair(Mat([[1]]))
    assert (pair.trace_a1, pair.trace_a2) == (2, 1)
    assert pair.verdict == NOT_SIMILAR


def test_nonsimilar_trace_zero_inconclusive():
    pair = nonsimilar_pair(Mat([[0, 1], [0, 0]]))
    assert pair.trace_a1 == pair.trace_a2 == 0
    assert pair.verdict == INCONCLUSIVE_VERDICT


@given(matrices(max_dim=4))
def test_first_dilation_always_invertible(T):
    # the commuting-block identity T^2 - (T+I)(T-I) = I guarantees this;
    # the test multiplies the closed-form inverse out
    pair = nonsimilar_pair(T)
    assert pair.A1 * pair.A1_inv == Mat.identity(2 * T.rows)
    if pair.verdict == NOT_SIMILAR:
        assert pair.trace_a1 != pair.trace_a2


def test_nonsimilar_inverses_are_closed_forms(monkeypatch):
    calls = []
    inverse = Mat.inverse

    def counting(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(Mat, "inverse", counting)
    T = Mat([[1, 2], [Fraction(1, 3), -1]])
    eye, zero = Mat.identity(2), Mat.zeros(2, 2)
    pair = nonsimilar_pair(T)
    assert calls == []
    assert pair.A1_inv == Mat.block([[T, eye - T], [-(T + eye), T]])
    assert pair.A2_inv == Mat.block([[zero, eye], [eye, -T]])
    assert inverse(pair.A1) == pair.A1_inv and inverse(pair.A2) == pair.A2_inv


# ----------------------------------------------------------------------
# N-step dilation


def test_ndilation_block_pattern():
    nd = ndilation_build(Mat([[2]]), 2)
    assert nd.U == Mat([[2, 0, 1], [1, 0, 0], [0, 1, 0]])
    y = nd.U.apply((1, 0, 0))
    assert y == (2, 1, 0)
    y = nd.U.apply(y)
    assert y == (4, 2, 1)
    y = nd.U.apply(y)
    assert y == (9, 4, 2)  # first coordinate 9 != 8 = T^3


def test_ndilation_zero_map():
    nd = ndilation_build(Mat.zeros(2, 2), 3)
    y = (1, 1) + (0,) * (3 * 2)
    for _ in range(3):
        y = nd.U.apply(y)
        assert y[:2] == (0, 0)


def test_ndilation_requires_positive_n():
    with pytest.raises(ValueError):
        ndilation_build(Mat([[1]]), 0)


COMPRESSION = "compression T^k = P U^k I for all k <= N on probes"


def test_ndilation_verify_pass_then_break():
    nd = ndilation_build(Mat([[2]]), 3)
    rep = ndilation_verify(nd, [(1,)], k_max=4)
    assert rep.suite == "ndilation"
    assert [(c.name, c.status, c.bound) for c in rep.checks] == [
        ("closed-form inverse: U * U_inv = U_inv * U = I", "pass", None),
        (COMPRESSION, "pass", 3),
    ]
    assert rep.passed
    assert rep.data["breaks_at_n_plus_1"] is True
    # U^4 (1, 0, 0, 0) has first block 2^4 + 1
    assert rep.data["beyond_range"] == [
        {
            "name": "compression beyond guaranteed range (k=4)",
            "status": "inconclusive",
            "detail": "identity broke on a probe",
            "witness": {"k": 4, "probe": [1], "first_block": [17], "expected": [16]},
        }
    ]


def test_ndilation_verify_records_every_k_beyond_range():
    nd = ndilation_build(Mat.zeros(1, 1), 1)
    rep = ndilation_verify(nd, [(1,)], k_max=4)
    assert rep.passed
    # U^2 I x = I x for the zero map, so the identity breaks at k = 2 and
    # holds again at k = 3, where both sides are zero
    assert rep.data["breaks_at_n_plus_1"] is True
    beyond = rep.data["beyond_range"]
    assert [entry["name"] for entry in beyond] == [
        f"compression beyond guaranteed range (k={k})" for k in (2, 3, 4)
    ]
    assert {entry["status"] for entry in beyond} == {"inconclusive"}
    assert [entry["detail"] for entry in beyond] == [
        "identity broke on a probe",
        "identity held on all probes",
        "identity broke on a probe",
    ]
    assert "witness" not in beyond[1]
    assert [entry["witness"]["k"] for entry in (beyond[0], beyond[2])] == [2, 4]


def _wrong_at_apply(T: Mat, step: int) -> Mat:
    """T, except that its step-th product with a vector is off by one in the
    first entry."""
    calls = []

    class Wrong(Mat):
        __slots__ = ()

        def _apply_ints(self, den, nums):
            calls.append(nums)
            d, y = super()._apply_ints(den, nums)
            return (d, [y[0] + d] + y[1:]) if len(calls) == step else (d, y)

    return Wrong(T.entries)


def test_ndilation_verify_witness_at_the_power_where_t_is_wrong():
    nd = ndilation_build(Mat([[2, 1], [0, 1]]), 4)
    patched = dataclasses.replace(nd, T=_wrong_at_apply(nd.T, 3))
    rep = ndilation_verify(patched, [(1, 1)], k_max=5)  # one probe: k-th apply is step k
    assert not rep.passed
    check = rep.checks[1]
    assert (check.name, check.status) == (COMPRESSION, "fail")
    # T^3 (1, 1) = (15, 1)
    assert check.witness == {"k": 3, "probe": [1, 1], "first_block": [15, 1], "expected": [16, 1]}
    assert rep.checks[0].status == "pass"


def test_ndilation_identity_map_still_breaks_beyond_n():
    # running the construction settles it: U^{N+1} I x carries first block
    # (T^{N+1} + I) x, so the compression breaks at N+1 for every nonzero
    # probe, identity map included; the break is recorded, not an error
    nd = ndilation_build(Mat.identity(2), 2)
    y = (1, 0) + (0,) * (2 * 2)
    for _ in range(3):
        y = nd.U.apply(y)
    assert y[:2] == (2, 0)
    rep = ndilation_verify(nd, [(1, 0), (0, 1), (2, 3)], k_max=5)
    assert rep.passed
    assert rep.data["breaks_at_n_plus_1"] is True


def _special_or_random(data, dim):
    kind = data.draw(st.sampled_from(["zero", "nilpotent", "identity", "random"]), label="kind")
    if kind == "zero":
        return Mat.zeros(dim, dim)
    if kind == "nilpotent":  # strictly upper triangular
        return Mat([[data.draw(rationals(5)) if c > r else 0 for c in range(dim)] for r in range(dim)])
    if kind == "identity":
        return Mat.identity(dim)
    return Mat([list(data.draw(vectors(dim, 5))) for _ in range(dim)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ndilation_always_breaks_at_n_plus_1_on_a_nonzero_probe(data):
    dim = data.draw(st.integers(1, 3), label="dim")
    T = _special_or_random(data, dim)
    N = data.draw(st.integers(1, 4), label="N")
    probe = data.draw(vectors(dim, 5).filter(any), label="probe")
    assert ndilation_verify(ndilation_build(T, N), [probe]).data["breaks_at_n_plus_1"] is True


def test_ndilation_verify_empty_probes_vacuous():
    nd = ndilation_build(Mat([[2]]), 2)
    rep = ndilation_verify(nd, [], k_max=3)
    assert rep.passed
    check = rep.checks[1]
    assert (check.name, check.status) == (COMPRESSION, "pass")
    assert "vacuous" in check.detail
    assert rep.data["breaks_at_n_plus_1"] is False


def test_ndilation_verify_kmax_too_small():
    nd = ndilation_build(Mat([[2]]), 2)
    with pytest.raises(ValueError, match="k_max must be at least N\\+1 = 3, got 2"):
        ndilation_verify(nd, [(1,)], k_max=2)
    rep = ndilation_verify(nd, [(1,)])
    assert [entry["name"] for entry in rep.data["beyond_range"]] == [
        "compression beyond guaranteed range (k=3)"
    ]


@settings(max_examples=25)
@given(matrices(max_dim=3))
def test_ndilation_compresses_up_to_n(T):
    for n in (1, 2, 3):
        nd = ndilation_build(T, n)
        assert nd.U * nd.U_inv == Mat.identity((n + 1) * T.rows)
        assert nd.U_inv * nd.U == Mat.identity((n + 1) * T.rows)
        x = tuple(Fraction(i + 1) for i in range(T.rows))
        y = x + (0,) * (n * T.rows)
        power = Mat.identity(T.rows)
        for _ in range(n):
            y = nd.U.apply(y)
            power = T * power
        assert y[: T.rows] == power.apply(x)


# ----------------------------------------------------------------------
# the verifiers form the inverse products; the builders do not


def test_builders_form_no_matrix_product(monkeypatch):
    calls = []
    product = Mat.__mul__

    def counting(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(Mat, "__mul__", counting)
    T = Mat([[1, 2], [Fraction(1, 3), -1]])
    halmos_build(T)
    for N in (1, 2, 3):
        ndilation_build(T, N)
    assert calls == []
    hd, nd = halmos_build(T), ndilation_build(T, 2)
    assert inverse_holds(hd.U, hd.U_inv) and inverse_holds(nd.U, nd.U_inv)
    # one product each: for square U, U U_inv = I implies U_inv U = I
    assert len(calls) == 2


def test_a_wrong_closed_form_is_a_failed_check_with_its_witness():
    nd = ndilation_build(Mat([[2]]), 1)
    wrong = dataclasses.replace(nd, U_inv=Mat([[0, 1], [1, 2]]))
    rep = ndilation_verify(wrong, [(1,)])
    check = rep.checks[0]
    assert (check.name, check.status) == ("closed-form inverse: U * U_inv = U_inv * U = I", "fail")
    assert check.witness == {"N": 1, "T": [[2]]}
    hd = halmos_build(Mat([[2]]))
    assert not inverse_holds(hd.U, Mat([[0, 1], [1, 2]]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_inverse_holds_agrees_with_the_two_sided_definition(data):
    U = data.draw(matrices(max_dim=4, bound=5), label="U")
    d = U.rows
    eye = Mat.identity(d)
    candidates = [data.draw(matrices(min_dim=d, max_dim=d, bound=5), label="V")]
    if U.rank() == d:
        exact = U.inverse()
        r, c = data.draw(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)), label="entry")
        delta = data.draw(rationals(5).filter(bool), label="delta")
        changed = [list(row) for row in exact.entries]
        changed[r][c] += delta
        candidates += [exact, Mat(changed)]
    # a singular V: its last row repeats its first, or is zero when d = 1
    rows = [list(row) for row in data.draw(matrices(min_dim=d, max_dim=d, bound=5)).entries]
    rows[-1] = rows[0] if d > 1 else [0]
    candidates.append(Mat(rows))
    for V in candidates:
        two_sided = U * V == eye and V * U == eye
        assert inverse_holds(U, V) == two_sided
    assert U.rank() < d or inverse_holds(U, candidates[1])


# ----------------------------------------------------------------------
# ndilation_verify against a plain-Fraction copy of the loop it replaced:
# both orbits carried by dense matrix-vector products on Fraction tuples


def _fraction_apply(rows, x):
    return tuple(sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows)


def _reference_ndilation_report(nd, probes, k_max):
    eye = Mat.identity(nd.U.rows)
    U, T = nd.U.entries, nd.T.entries
    report = Report(
        suite="ndilation",
        data={"U": partial(mat_to_json, nd.U), "U_inv": partial(mat_to_json, nd.U_inv)},
    )
    report.add(
        "closed-form inverse: U * U_inv = U_inv * U = I",
        nd.U * nd.U_inv == eye and nd.U_inv * nd.U == eye,
        witness={"N": nd.N, "T": mat_to_json(nd.T)},
    )
    probes = [tuple(Fraction(v) for v in x) for x in probes]
    images = [x + (Fraction(0),) * (nd.N * nd.dim) for x in probes]
    t_images = list(probes)
    first_witness = None
    beyond_range = []
    for k in range(1, k_max + 1):
        witness = None
        for i, x in enumerate(probes):
            images[i] = _fraction_apply(U, images[i])
            t_images[i] = _fraction_apply(T, t_images[i])
            first_block = images[i][: nd.dim]
            if witness is None and first_block != t_images[i]:
                witness = {
                    "k": k,
                    "probe": vec_to_json(x),
                    "first_block": vec_to_json(first_block),
                    "expected": vec_to_json(t_images[i]),
                }
        if k <= nd.N:
            first_witness = first_witness or witness
            continue
        if k == nd.N + 1:
            report.data["breaks_at_n_plus_1"] = witness is not None
        held = "held on all probes" if witness is None else "broke on a probe"
        check = Check(
            f"compression beyond guaranteed range (k={k})",
            "inconclusive",
            witness=witness,
            detail=f"identity {held}",
        )
        beyond_range.append(check.as_dict())
    report.add(
        COMPRESSION,
        first_witness is None,
        bound=nd.N,
        witness=first_witness,
        detail="" if probes else "vacuous: no probes supplied",
    )
    report.data["beyond_range"] = beyond_range
    return report


def _nudged(m: Mat, r: int, c: int, delta: Fraction) -> Mat:
    rows = [list(row) for row in m.entries]
    rows[r][c] += delta
    return Mat(rows)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ndilation_verify_matches_the_fraction_loop(data):
    T = data.draw(matrices(max_dim=3, bound=5), label="T")
    N = data.draw(st.integers(1, 3), label="N")
    nd = ndilation_build(T, N)
    fault = data.draw(st.sampled_from(["none", "U", "T"]), label="fault")
    delta = data.draw(rationals(4).filter(bool), label="delta")
    if fault == "U":
        # one entry of U: the identity first breaks at the power where that
        # entry reaches the first block
        size = nd.U.rows
        r, c = data.draw(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)))
        nd = dataclasses.replace(nd, U=_nudged(nd.U, r, c, delta))
    elif fault == "T":
        r, c = data.draw(st.tuples(st.integers(0, T.rows - 1), st.integers(0, T.rows - 1)))
        nd = dataclasses.replace(nd, T=_nudged(T, r, c, delta))
    probes = data.draw(st.lists(vectors(T.rows, 5), max_size=4), label="probes")
    k_max = N + data.draw(st.integers(1, 3), label="k_max - N")
    got = ndilation_verify(nd, probes, k_max)
    assert got.to_json() == _reference_ndilation_report(nd, probes, k_max).to_json()
