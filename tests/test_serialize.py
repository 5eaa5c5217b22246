import io
import json
import sys
from fractions import Fraction

import pytest

from dilatekit import Mat
from dilatekit.finsupp import Domain, FsVec
from dilatekit.seqops import (
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
from dilatekit.serialize import (
    MAX_DEPTH,
    MAX_POWER,
    DenominatorZero,
    ParseError,
    fsvec_from_json,
    fsvec_to_json,
    load_matrix,
    mat_from_json,
    mat_to_json,
    parse_instance_file,
    rat_from_json,
    rat_to_json,
    seqop_from_json,
    seqop_to_json,
    vec_from_json,
)


def test_rational_parsing():
    assert rat_from_json("3/4") == Fraction(3, 4)
    assert rat_from_json("6/8") == Fraction(3, 4)
    assert rat_from_json(-7) == Fraction(-7)
    assert rat_from_json("-7") == Fraction(-7)


def test_rational_zero_denominator():
    with pytest.raises(DenominatorZero):
        rat_from_json("1/0")


def test_rational_rejects_floats_and_garbage():
    with pytest.raises(ParseError):
        rat_from_json(0.5)
    with pytest.raises(ParseError):
        rat_from_json("three halves")
    with pytest.raises(ParseError):
        rat_from_json(True)


def test_rational_canonical_output():
    assert rat_to_json(Fraction(4)) == 4
    assert rat_to_json(Fraction(-3, 7)) == "-3/7"


def test_matrix_round_trip():
    m = Mat([[1, "1/2"], [-3, 0]])
    assert mat_from_json(mat_to_json(m)) == m


def test_matrix_parse_error_location():
    with pytest.raises(ParseError) as exc:
        mat_from_json([[1, 2], [3, 0.25]])
    assert "[1][1]" in str(exc.value)
    with pytest.raises(ParseError):
        mat_from_json([[1, 2], [3]])


def test_vector_parse_error_location():
    with pytest.raises(ParseError) as exc:
        vec_from_json([1, "x"], where="$.value")
    assert "$.value[1]" in str(exc.value)


def test_fsvec_round_trip_all_domains():
    cases = [
        FsVec(Domain.UNINAT, 2, {0: (1, 2), 4: ("1/3", 0)}),
        FsVec(Domain.BIINT, 1, {-3: (5,), 2: (-1,)}),
        FsVec(Domain.GRID, 1, {(0, 1): (2,), (3, 0): (4,)}),
        FsVec.zero(Domain.GRID, 3),
    ]
    for x in cases:
        assert fsvec_from_json(fsvec_to_json(x)) == x


def test_fsvec_json_shape():
    x = FsVec(Domain.GRID, 1, {(1, 2): (5,)})
    doc = fsvec_to_json(x)
    assert doc == {"domain": "grid", "dim": 1, "support": [{"index": [1, 2], "value": [5]}]}


def test_fsvec_bad_domain():
    with pytest.raises(ParseError) as exc:
        fsvec_from_json({"domain": "triint", "dim": 1, "support": []})
    assert ".domain" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        fsvec_from_json({"domain": [], "dim": 1})
    assert exc.value.where == "$.domain"
    with pytest.raises(ParseError) as exc:
        seqop_from_json({"kind": "embed", "dim": 1, "domain": []})
    assert exc.value.where == "$.domain"


def test_seqop_round_trip():
    ops = [
        EmbedI(2),
        EmbedI(1, Domain.GRID),
        CoordProj0(2, Domain.BIINT),
        ShiftRight(3),
        ShiftBilat(1),
        GridDown(2),
        GridRight(2),
        SchafferU(Mat([[2]])),
        SchafferVInv(Mat([[2]])),
        ProjStd(Mat([[1, 2], [3, 4]])),
        ProjAndo(Mat([[2]]), Mat([[3]])),
        Componentwise(Mat([[1, 2]])),
        Compose((ShiftRight(1), EmbedI(1))),
        PowerOp(ShiftRight(2), 4),
    ]
    for op in ops:
        doc = seqop_to_json(op)
        rebuilt = seqop_from_json(doc)
        assert seqop_to_json(rebuilt) == doc


def test_componentwise_round_trip_is_one_sided():
    op = Componentwise(Mat([[2, "1/3"]]))
    rebuilt = seqop_from_json(seqop_to_json(op))
    assert rebuilt == op
    assert rebuilt.domain is Domain.UNINAT


@pytest.mark.parametrize("domain", [Domain.BIINT, Domain.GRID])
def test_componentwise_off_the_one_sided_domain_is_not_serialised(domain):
    # the wire format has no domain for componentwise: it would read back one-sided
    with pytest.raises(TypeError, match="cannot serialize operator"):
        seqop_to_json(Componentwise(Mat([[2]]), domain))


def test_column_blocks_round_trip():
    op = ColumnBlocks({(0, 1): Mat([[2]]), (3, 0): Mat([["1/2"]])}, dim_in=1, dim_out=1)
    doc = seqop_to_json(op)
    rebuilt = seqop_from_json(doc)
    assert isinstance(rebuilt, ColumnBlocks)
    assert rebuilt.blocks == op.blocks
    probe = FsVec.single(Domain.UNINAT, 1, 1, (4,))
    assert rebuilt.apply(probe) == op.apply(probe)


def test_seqop_unknown_kind():
    with pytest.raises(ParseError) as exc:
        seqop_from_json({"kind": "teleport", "dim": 1})
    assert ".kind" in str(exc.value)


def test_parse_instance_file_dispatch(tmp_path):
    mat_file = tmp_path / "t.json"
    mat_file.write_text('[[2, "1/2"], [0, 1]]')
    assert parse_instance_file(mat_file) == Mat([[2, "1/2"], [0, 1]])

    fs_file = tmp_path / "x.json"
    fs_file.write_text(json.dumps(fsvec_to_json(FsVec.single(Domain.BIINT, 1, -1, (3,)))))
    assert parse_instance_file(fs_file) == FsVec.single(Domain.BIINT, 1, -1, (3,))

    op_file = tmp_path / "r.json"
    op_file.write_text(json.dumps(seqop_to_json(Componentwise(Mat([[5]])))))
    assert isinstance(parse_instance_file(op_file), Componentwise)


def test_parse_instance_stream():
    stream = io.StringIO("[[1]]")
    assert parse_instance_file(stream) == Mat([[1]])


def test_parse_instance_rejects_unknown_shape(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": 1}')
    with pytest.raises(ParseError):
        parse_instance_file(bad)
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{{{")
    with pytest.raises(ParseError):
        parse_instance_file(notjson)


def test_parse_instance_rejects_a_file_that_is_not_utf8(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"[[\xff]]")
    with pytest.raises(ParseError) as exc:
        parse_instance_file(bad)
    assert exc.value.where == "$"
    assert str(exc.value) == "$: file is not UTF-8 text"


def test_load_matrix_type_check(tmp_path):
    f = tmp_path / "op.json"
    f.write_text(json.dumps(seqop_to_json(ShiftRight(1))))
    with pytest.raises(ParseError):
        load_matrix(f)


def test_seqop_constructor_errors_carry_the_field_path():
    cases = [
        ({"kind": "schaffer_u", "T": [[1, 2]]}, "$.T"),
        ({"kind": "block_dense", "dim": 2, "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
         "$.matrix"),
        ({"kind": "proj_ando", "T": [[1]], "S": [[1, 0], [0, 1]]}, "$.S"),
        (
            {"kind": "column_blocks", "dim_in": 1, "dim_out": 1,
             "blocks": [{"row": 0, "col": 0, "block": [[1, 2]]}]},
            "$.blocks",
        ),
        ({"kind": "compose", "factors": [{"kind": "proj_std", "T": [[1, 2]]}]}, "$.factors[0].T"),
    ]
    for doc, where in cases:
        with pytest.raises(ParseError) as exc:
            seqop_from_json(doc)
        assert exc.value.where == where


def test_seqop_power_is_capped():
    base = {"kind": "shift_right", "dim": 1}
    assert seqop_from_json({"kind": "power", "base": base, "n": MAX_POWER}).n == MAX_POWER
    with pytest.raises(ParseError) as exc:
        seqop_from_json({"kind": "power", "base": base, "n": MAX_POWER + 1})
    assert exc.value.where == "$.n"


def test_seqop_nesting_is_capped():
    doc = {"kind": "shift_right", "dim": 1}
    for _ in range(MAX_DEPTH + 1):
        doc = {"kind": "power", "base": doc, "n": 1}
    with pytest.raises(ParseError) as exc:
        seqop_from_json(doc)
    assert exc.value.where == "$" + ".base" * (MAX_DEPTH + 1)
    seqop_from_json(doc["base"])


def test_json_too_deep_for_the_parser_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_instance_file(io.StringIO("[" * 100000 + "]" * 100000))
    assert exc.value.where == "$"


@pytest.fixture
def int_digit_limit():
    """Python's default int-string digit limit, for the test's duration."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-string digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize(
    "text, where",
    [('[["' + "1" * 5000 + '/3"]]', "$[0][0]"), ("[[" + "1" * 5000 + "]]", "$")],
    ids=["rational string", "json integer"],
)
def test_a_number_past_the_int_digit_limit_is_a_parse_error(int_digit_limit, text, where):
    with pytest.raises(ParseError) as exc:
        parse_instance_file(io.StringIO(text))
    assert exc.value.where == where
    assert "digit" in str(exc.value)
