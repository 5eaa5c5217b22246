import dataclasses
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilatekit import Mat
from dilatekit.finsupp import Domain, FsVec
from dilatekit import intertwine
from dilatekit.intertwine import (
    NotIntertwining,
    certification_report,
    lift_intertwiner,
    lift_relations,
    make_pair,
    verify_lift,
)
from dilatekit.matrix import column_of
from dilatekit.seqops import ColumnBlocks, Componentwise, Compose, ProjStd, ShiftRight
from dilatekit.report import Report
from dilatekit.serialize import fsvec_to_json, mat_from_json, mat_to_json, vec_to_json

from strategies import ShiftedProjStd, SumOp, coordinate, matrices, vectors


def extracted_map(R, pair, cert_bound):
    return mat_from_json(certification_report(R, pair.dil1, pair.dil2, cert_bound).data["S"])


def failed_certification(R, pair, cert_bound):
    check = certification_report(R, pair.dil1, pair.dil2, cert_bound).checks[0]
    assert check.status == "fail"
    return check.witness


def random_mat(rng, dim, bound=9):
    return Mat(
        [
            [Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(dim)]
            for _ in range(dim)
        ]
    )


def test_scalar_lift():
    pair = make_pair(Mat([[2]]), Mat([[2]]), Mat([[3]]))
    R = lift_intertwiner(pair)
    assert R.apply(pair.dil2.I.apply((1,))) == FsVec.single(Domain.UNINAT, 1, 0, (3,))
    assert R.apply(pair.dil2.I.apply((1,))) == pair.dil1.I.apply(pair.S.apply((1,)))


def test_non_intertwining_rejected_with_defect():
    with pytest.raises(NotIntertwining) as exc:
        make_pair(Mat([[1]]), Mat([[2]]), Mat([[1]]))
    assert exc.value.defect == Mat([[-1]])


def test_nilpotent_self_intertwines():
    T = Mat([[0, 1], [0, 0]])
    pair = make_pair(T, T, T)
    rep = verify_lift(lift_intertwiner(pair), pair, probes=[], n_max=6)
    assert rep.passed


def test_forward_lift_relations_pass_on_mixed_support():
    T = Mat([[1, 1], [0, 1]])
    pair = make_pair(T, T, T * T)
    probe = FsVec(Domain.UNINAT, 2, {0: (1, 2), 1: (3, 4), 3: (5, 6)})
    rep = verify_lift(lift_intertwiner(pair), pair, probes=[probe], n_max=5)
    assert rep.passed


@pytest.mark.parametrize(
    "P, message",
    [
        (
            ShiftedProjStd(Mat([[2]])),
            "P1 R I2 e_i is supported outside the origin: FsVec(uninat, dim=1, {1: (3)})",
        ),
        (Componentwise(Mat([[1], [1]])), "extracted columns have length 2, expected 1"),
    ],
)
def test_read_off_rejects_a_projection_off_the_ambient_space(P, message):
    pair = make_pair(Mat([[2]]), Mat([[2]]), Mat([[3]]))
    dil1 = dataclasses.replace(pair.dil1, P=P)
    with pytest.raises(intertwine.RangeViolation, match=f"^{re.escape(message)}$"):
        intertwine.read_off_intertwiner(lift_intertwiner(pair), dil1, pair.dil2)


def test_shifted_lift_fails_embedding_relation():
    pair = make_pair(Mat([[2]]), Mat([[2]]), Mat([[3]]))
    shifted = Compose((ShiftRight(1), Componentwise(pair.S)))
    rep = verify_lift(shifted, pair, probes=[], n_max=4)
    failing = {c.name for c in rep.failed_checks()}
    assert any("R I2 = I1 S" in name for name in failing)
    embed_check = next(c for c in rep.failed_checks() if "I1 S" in c.name)
    assert embed_check.witness["vector"] == [1]


def test_extract_round_trip_scalar():
    pair = make_pair(Mat([[2]]), Mat([[2]]), Mat([[3]]))
    R = lift_intertwiner(pair)
    assert extracted_map(R, pair, cert_bound=6) == Mat([[3]])


def test_extract_componentwise_over_identity():
    pair = make_pair(Mat.identity(1), Mat.identity(1), Mat([[5]]))
    extracted = extracted_map(Componentwise(Mat([[5]])), pair, cert_bound=3)
    assert extracted == Mat([[5]])


def test_extract_rejects_bad_column_blocks():
    # the block map keeps only coordinate 0, so shifting past it loses mass
    # and the forward-shift relation fails on the very first basis probe
    pair = make_pair(Mat([[2]]), Mat([[2]]), Mat([[3]]))
    bad = ColumnBlocks({(0, 0): Mat([[3]])}, dim_in=1, dim_out=1)
    witness = failed_certification(bad, pair, cert_bound=5)
    assert witness["relation"] == "U1 R = R U2"
    assert witness["probe"]["support"][0]["index"] == 0


def test_extract_rejects_shifted_lift():
    pair = make_pair(Mat([[2]]), Mat([[2]]), Mat([[3]]))
    bad = Compose((ShiftRight(1), Componentwise(pair.S)))
    witness = failed_certification(bad, pair, cert_bound=5)
    assert witness["relation"] == "R P2 = P1 R"


def test_extraction_always_intertwines():
    rng = random.Random(17)
    for trial in range(25):
        d = rng.randint(1, 3)
        T = random_mat(rng, d)
        # S as a polynomial in T guarantees the exact intertwining relation
        S = Mat.identity(d).scale(rng.randint(-3, 3)) + T.scale(rng.randint(-3, 3)) + (T * T).scale(
            rng.randint(-3, 3)
        )
        pair = make_pair(T, T, S)
        R = lift_intertwiner(pair)
        extracted = extracted_map(R, pair, cert_bound=6)
        assert extracted == S
        assert pair.T1 * extracted == extracted * pair.T2


def test_block_diagonal_intertwiner_with_unequal_dimensions():
    rng = random.Random(23)
    A = random_mat(rng, 2)
    B1 = random_mat(rng, 1)
    B2 = random_mat(rng, 2)
    T1 = Mat.block([[A, Mat.zeros(2, 1)], [Mat.zeros(1, 2), B1]])
    T2 = Mat.block([[A, Mat.zeros(2, 2)], [Mat.zeros(2, 2), B2]])
    S = Mat.block([[A, Mat.zeros(2, 2)], [Mat.zeros(1, 2), Mat.zeros(1, 2)]])
    pair = make_pair(T1, T2, S)
    R = lift_intertwiner(pair)
    rep = verify_lift(R, pair, probes=[], n_max=5)
    assert rep.passed
    assert extracted_map(R, pair, cert_bound=5) == S


def test_cert_bound_validation():
    pair = make_pair(Mat([[1]]), Mat([[1]]), Mat([[1]]))
    with pytest.raises(ValueError, match="^cert_bound 0 is below the floor of 1$"):
        certification_report(lift_intertwiner(pair), pair.dil1, pair.dil2, cert_bound=0)
    with pytest.raises(ValueError, match="^n_max 0 is below the floor of 1$"):
        verify_lift(lift_intertwiner(pair), pair, probes=[], n_max=0)


def test_certification_report_passes_on_the_lift():
    pair = make_pair(Mat([[2]]), Mat([[2]]), Mat([[3]]))
    rep = certification_report(lift_intertwiner(pair), pair.dil1, pair.dil2, cert_bound=4)
    assert [c.status for c in rep.checks] == ["pass", "pass"]
    assert rep.checks[1].name == "extracted map intertwines: T1 S = S T2"
    assert rep.data["S"] == [[3]]


def test_certification_report_turns_not_intertwining_into_a_failed_check(monkeypatch):
    # the lift certifies, so only a wrong read-off can fail T1 S = S T2;
    # the report computes the defect and keeps the map out of its data
    monkeypatch.setattr(intertwine, "read_off_intertwiner", lambda *args: Mat([[1, 0], [0, 0]]))
    T = Mat([[1, 1], [0, 1]])
    pair = make_pair(T, T, Mat.identity(2))
    rep = certification_report(lift_intertwiner(pair), pair.dil1, pair.dil2, cert_bound=4)
    assert not rep.passed
    certified, intertwines = rep.checks
    assert certified.status == "pass"
    assert intertwines.name == "extracted map intertwines: T1 S = S T2"
    assert intertwines.status == "fail"
    assert intertwines.witness == {"defect": [[0, -1], [0, 0]]}
    assert "S" not in rep.data


# ----------------------------------------------------------------------
# verify_lift and certification_report against copies of their per-probe
# loops over basis elements built one at a time. The injected defect
# breaks U1 R = R U2 on e_1 at index 0 and on e_0 only at index 2, which
# pins the order of the witnesses: caller probes first, then (index, basis
# index).


def _reference_basis(dim, n_max):
    return [
        FsVec.single(Domain.UNINAT, dim, n, tuple(int(i == j) for j in range(dim)))
        for n in range(n_max + 1)
        for i in range(dim)
    ]


def _reference_relation_witness(lhs, rhs, probes):
    for x in probes:
        left, right = lhs(x), rhs(x)
        if left != right:
            return {"probe": fsvec_to_json(x), "lhs": fsvec_to_json(left), "rhs": fsvec_to_json(right)}
    return None


def _reference_lift_report(R, pair, probes, n_max):
    d2 = pair.T2.rows
    all_probes = list(probes) + _reference_basis(d2, n_max)
    report = Report(suite="intertwine_verify", config={"n_max": n_max, "probes": len(all_probes)})
    for label, relation, lhs, rhs in lift_relations(R, pair.dil1, pair.dil2):
        witness = _reference_relation_witness(lhs, rhs, all_probes)
        report.add(f"{label}: {relation}", witness is None, bound=n_max, witness=witness)
    witness = None
    vec_probes = [tuple(Fraction(int(i == j)) for j in range(d2)) for i in range(d2)]
    vec_probes += [x.coeff(0) for x in probes if not x.is_zero()]
    for v in vec_probes:
        left = R.apply(pair.dil2.I.apply(v))
        right = pair.dil1.I.apply(pair.S.apply(v))
        if left != right:
            witness = {"vector": vec_to_json(v), "lhs": fsvec_to_json(left), "rhs": fsvec_to_json(right)}
            break
    report.add(
        "embeddings intertwine: R I2 = I1 S",
        witness is None,
        bound=len(vec_probes),
        witness=witness,
    )
    return report


def _reference_certification_report(R, dil1, dil2, cert_bound):
    report = Report(suite="intertwine_extract", config={"cert_bound": cert_bound})
    certified = "extraction: relations certified on basis elements up to the bound"
    for _, relation, lhs, rhs in lift_relations(R, dil1, dil2):
        witness = _reference_relation_witness(lhs, rhs, _reference_basis(dil2.dim, cert_bound))
        if witness is not None:
            report.add(certified, False, bound=cert_bound, witness={"relation": relation, **witness})
            return report
    S = intertwine.read_off_intertwiner(R, dil1, dil2)
    report.data["S"] = mat_to_json(S)
    report.add(certified, True, bound=cert_bound)
    report.add("extracted map intertwines: T1 S = S T2", dil1.T * S == S * dil2.T)
    return report


def _diagonal_pair_and_defective_lift():
    T = Mat([[2, 0], [0, 3]])
    pair = make_pair(T, T, Mat([[5, 0], [0, 7]]))
    # coordinate 1 of x_1 and coordinate 0 of x_3 are added at index 0
    defect = ColumnBlocks({(0, 1): coordinate(2, 1), (0, 3): coordinate(2, 0)}, dim_in=2, dim_out=2)
    return pair, SumOp(lift_intertwiner(pair), defect)


def test_verify_lift_matches_the_per_probe_loop():
    pair, wrong = _diagonal_pair_and_defective_lift()
    clean = [FsVec(Domain.UNINAT, 2, {5: (1, 2)}), FsVec(Domain.UNINAT, 2, {})]
    for R in (lift_intertwiner(pair), wrong):
        got = verify_lift(R, pair, clean, n_max=4)
        assert got.to_json() == _reference_lift_report(R, pair, clean, 4).to_json()
    forward = got.failed_checks()[0]
    assert forward.name == "forward shifts intertwine: U1 R = R U2"
    assert forward.witness["probe"] == fsvec_to_json(FsVec.single(Domain.UNINAT, 2, 0, (0, 1)))
    # a caller probe that fails comes before every basis element
    failing = [FsVec(Domain.UNINAT, 2, {2: (1, 1)})]
    got = verify_lift(wrong, pair, clean + failing, n_max=4)
    assert got.to_json() == _reference_lift_report(wrong, pair, clean + failing, 4).to_json()
    assert got.failed_checks()[0].witness["probe"] == fsvec_to_json(failing[0])


def test_certification_report_matches_the_per_probe_loop():
    pair, wrong = _diagonal_pair_and_defective_lift()
    for R in (lift_intertwiner(pair), wrong):
        got = certification_report(R, pair.dil1, pair.dil2, 4)
        assert got.to_json() == _reference_certification_report(R, pair.dil1, pair.dil2, 4).to_json()
    witness = got.checks[0].witness
    assert witness["relation"] == "U1 R = R U2"
    assert witness["probe"] == fsvec_to_json(FsVec.single(Domain.UNINAT, 2, 0, (0, 1)))


class _FreshProjStd(ProjStd):
    """ProjStd through a new projection per application: one that keeps no
    image from one application to the next."""

    def apply(self, x):
        return ProjStd(self.T).apply(x)


@settings(max_examples=25, deadline=None)
@given(matrices(max_dim=2, bound=3), st.data())
def test_lift_relations_agree_when_both_chains_share_one_projection(T, data):
    # T1 == T2, so both dilations are one and R P2 = P1 R runs one
    # projection in both chains; one column object at successive indices
    # lets it step between probes and between the chains
    pair = make_pair(T, T, T * T)
    assert pair.dil1.P is pair.dil2.P
    d = T.rows
    column = column_of(data.draw(vectors(d, 3).filter(any), label="column"))
    probes = [FsVec._raw(Domain.UNINAT, d, [(k, column)], 1) for k in range(4)]
    defect = ColumnBlocks({(0, 2): coordinate(d, 0)}, dim_in=d, dim_out=d)
    R = data.draw(st.sampled_from([lift_intertwiner(pair), SumOp(lift_intertwiner(pair), defect)]))
    fresh = dataclasses.replace(pair.dil1, P=_FreshProjStd(T))
    apart = dataclasses.replace(pair, dil1=fresh, dil2=fresh)
    got = verify_lift(R, pair, probes, 3)
    assert got.to_json() == verify_lift(R, apart, probes, 3).to_json()
