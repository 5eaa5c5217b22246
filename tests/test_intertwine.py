import random
from fractions import Fraction

import pytest

from dilatekit import Mat
from dilatekit.finsupp import Domain, FsVec
from dilatekit import intertwine
from dilatekit.intertwine import (
    NotIntertwining,
    certification_report,
    lift_intertwiner,
    make_pair,
    verify_lift,
)
from dilatekit.seqops import ColumnBlocks, Componentwise, Compose, ShiftRight
from dilatekit.serialize import mat_from_json


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
    with pytest.raises(ValueError):
        certification_report(lift_intertwiner(pair), pair.dil1, pair.dil2, cert_bound=0)
    with pytest.raises(ValueError):
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
