import argparse
import contextlib
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from dilatekit import Mat, cli
from dilatekit.cli import EXIT_FAIL, EXIT_INPUT, EXIT_PASS, main
from dilatekit.harness import Bounds, SuiteConfig, run_suites
from dilatekit.seqops import Componentwise
from dilatekit.serialize import _KINDS, rat_to_json, seqop_to_json
from dilatekit.sizes import SIZES


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_small_suite(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys,
        [
            "run",
            "--seed",
            "7",
            "--trials",
            "2",
            "--suites",
            "halmos,wold",
            "--json",
            str(out_path),
        ],
    )
    assert code == EXIT_PASS
    reports = json.loads(out)
    assert [r["suite"] for r in reports] == ["halmos", "wold"]
    assert json.loads(out_path.read_text()) == reports
    assert "halmos: pass" in err


def test_python_dash_m_dilatekit_runs_the_cli(capsys, tmp_path):
    argv = ["run", "--seed", "7", "--trials", "2", "--suites", "halmos,wold"]
    code, out, _ = run_cli(capsys, argv)
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": package_root}
    env.pop("DILATEKIT_SEED", None)
    proc = subprocess.run([sys.executable, "-m", "dilatekit", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (code, out)


def test_run_prints_elapsed_time_per_suite(capsys):
    argv = ["run", "--seed", "7", "--trials", "2", "--suites", "wold,halmos"]
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_PASS
    lines = err.splitlines()
    assert [line.split(":")[0] for line in lines] == ["halmos", "wold"]
    for line in lines:
        assert re.fullmatch(r"\w+: pass \(\d+ checks, \d+\.\d\d s\)", line), line
    # the timing goes to stderr only; the report equals the suites' own
    config = SuiteConfig(seed=7, trials=2, suites=("halmos", "wold"))
    assert json.loads(out) == json.loads(cli.reports_to_json(run_suites(config)))


def test_parser_is_built_once_per_process(capsys, monkeypatch, tmp_path):
    t_file = write(tmp_path, "t.json", [[2]])
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        assert run_cli(capsys, ["halmos", "--T", t_file])[0] == EXIT_PASS
        assert run_cli(capsys, ["wold", "--T", t_file, "--mode", "strict"])[0] == EXIT_PASS
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_run_is_deterministic(capsys):
    argv = ["run", "--seed", "5", "--trials", "2", "--suites", "standard"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert (code1, code2) == (EXIT_PASS, EXIT_PASS)
    assert out1 == out2


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("DILATEKIT_SEED", "11")
    code, out, _ = run_cli(capsys, ["run", "--trials", "2", "--suites", "halmos"])
    assert code == EXIT_PASS
    assert json.loads(out)[0]["config"]["seed"] == 11
    monkeypatch.setenv("DILATEKIT_SEED", "not-a-number")
    code, _, err = run_cli(capsys, ["run", "--trials", "2", "--suites", "halmos"])
    assert code == EXIT_INPUT
    assert "DILATEKIT_SEED" in err


def test_run_without_flags_builds_the_default_config(capsys, monkeypatch):
    configs = []
    monkeypatch.setattr(cli, "iter_suites", lambda config: configs.append(config) or iter(()))
    monkeypatch.setenv("DILATEKIT_SEED", "11")
    assert run_cli(capsys, ["run"])[0] == EXIT_PASS
    monkeypatch.delenv("DILATEKIT_SEED")
    assert run_cli(capsys, ["run"])[0] == EXIT_PASS
    assert configs == [SuiteConfig(seed=11), SuiteConfig()]


def test_run_rejects_unknown_suite(capsys):
    code, _, err = run_cli(capsys, ["run", "--suites", "halmos,frobenius"])
    assert code == EXIT_INPUT
    assert "frobenius" in err


@pytest.mark.parametrize("suites", [",", "", " , ,"])
def test_run_rejects_suites_naming_no_suite(capsys, suites):
    code, out, err = run_cli(capsys, ["run", "--suites", suites])
    assert code == EXIT_INPUT
    assert out == ""
    assert len(err.splitlines()) == 1 and "--suites" in err


def test_halmos_command(capsys, tmp_path):
    t_file = write(tmp_path, "t.json", [[2]])
    code, out, _ = run_cli(capsys, ["halmos", "--T", t_file])
    assert code == EXIT_PASS
    report = json.loads(out)[0]
    assert report["data"]["U"] == [[2, 1], [1, 0]]
    assert report["data"]["U_inv"] == [[0, 1], [1, -2]]


def test_schur_command_and_precondition_error(capsys, tmp_path):
    t = write(tmp_path, "t.json", [[2]])
    b = write(tmp_path, "b.json", [[1]])
    code, out, _ = run_cli(
        capsys, ["schur", "--class", "i", "--T", t, "--B", b, "--C", b, "--D", b]
    )
    assert code == EXIT_PASS
    assert json.loads(out)[0]["data"]["schur_complement"] == [["1/2"]]

    singular = write(tmp_path, "s.json", [[0]])
    code, _, err = run_cli(
        capsys, ["schur", "--class", "i", "--T", singular, "--B", b, "--C", b, "--D", b]
    )
    assert code == EXIT_INPUT
    assert "T is not invertible" in err


def test_nonsimilar_command_inconclusive_exits_zero(capsys, tmp_path):
    t_file = write(tmp_path, "t.json", [[0, 1], [0, 0]])
    code, out, _ = run_cli(capsys, ["nonsimilar", "--T", t_file])
    assert code == EXIT_PASS
    report = json.loads(out)[0]
    assert report["data"]["verdict"] == "inconclusive"
    assert report["checks"][0]["status"] == "inconclusive"


def test_ndilate_command(capsys, tmp_path):
    t_file = write(tmp_path, "t.json", [[2]])
    code, out, _ = run_cli(capsys, ["ndilate", "--T", t_file, "--N", "2", "--kmax", "3"])
    assert code == EXIT_PASS
    report = json.loads(out)[0]
    assert report["data"]["U"] == [[2, 0, 1], [1, 0, 0], [0, 1, 0]]


@contextlib.contextmanager
def _unlimited_int_strings():
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_ndilate_prints_numbers_past_the_int_digit_limit(capsys, tmp_path):
    # T^2 x + x in the beyond-range witness has about 6000 digits, more than
    # the 4300 that str() allows by default
    t = int("9" * 3000)
    t_file = write(tmp_path, "t.json", [[t]])
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run_cli(capsys, ["ndilate", "--T", t_file, "--N", "1"])
    assert (code, err) == (EXIT_PASS, "")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    witness = json.loads(out, parse_int=str)[0]["data"]["beyond_range"][0]["witness"]
    x = Fraction(witness["probe"][0])
    with _unlimited_int_strings():
        assert witness["first_block"] == [str(rat_to_json(t * t * x + x))]
        assert witness["expected"] == [str(rat_to_json(t * t * x))]


def test_ndilate_refuses_a_number_past_the_int_digit_limit_with_its_path(capsys, tmp_path):
    t_file = tmp_path / "t.json"
    t_file.write_text('[["' + "1" * 5000 + '/3"]]')
    code, out, err = run_cli(capsys, ["ndilate", "--T", str(t_file), "--N", "1"])
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith("error: --T: $[0][0]: number has more digits")
    else:
        assert code == EXIT_PASS


def test_schaffer_and_standard_commands(capsys, tmp_path):
    t_file = write(tmp_path, "t.json", [[2, 1], [0, 1]])
    code, out, _ = run_cli(capsys, ["schaffer", "--T", t_file, "--nmax", "6"])
    assert code == EXIT_PASS
    code, out, _ = run_cli(capsys, ["standard", "--T", t_file, "--nmax", "6", "--minimality"])
    assert code == EXIT_PASS
    assert len(json.loads(out)) == 2


def test_ando_command_and_noncommuting(capsys, tmp_path):
    t = write(tmp_path, "t.json", [[0, 1], [0, 0]])
    s_good = write(tmp_path, "sg.json", [[1, 0], [0, 1]])
    code, _, _ = run_cli(capsys, ["ando", "--T", t, "--S", s_good, "--nmax", "3", "--mmax", "3"])
    assert code == EXIT_PASS
    s_bad = write(tmp_path, "sb.json", [[0, 0], [1, 0]])
    code, _, err = run_cli(capsys, ["ando", "--T", t, "--S", s_bad])
    assert code == EXIT_INPUT
    assert err == "error: operators do not commute; TS - ST = [[1,0],[0,-1]]\n"


def test_wold_command_strict_rejection(capsys, tmp_path):
    t_file = write(tmp_path, "t.json", [[0, 1], [0, 0]])
    code, out, _ = run_cli(capsys, ["wold", "--T", t_file, "--mode", "extended"])
    assert code == EXIT_PASS
    report = json.loads(out)[0]
    assert report["data"]["stabilization_index"] == 2
    code, _, err = run_cli(capsys, ["wold", "--T", t_file, "--mode", "strict"])
    assert code == EXIT_INPUT
    assert err == "error: map is not injective; kernel vector [1,0]\n"


def test_intertwine_lift_and_extract(capsys, tmp_path):
    t_file = write(tmp_path, "t.json", [[2]])
    s_file = write(tmp_path, "s.json", [[3]])
    code, out, _ = run_cli(
        capsys, ["intertwine", "lift", "--T1", t_file, "--T2", t_file, "--S", s_file]
    )
    assert code == EXIT_PASS

    r_file = write(tmp_path, "r.json", seqop_to_json(Componentwise(Mat([[3]]))))
    code, out, _ = run_cli(
        capsys,
        ["intertwine", "extract", "--R", r_file, "--T1", t_file, "--T2", t_file],
    )
    assert code == EXIT_PASS
    assert json.loads(out)[0]["data"]["S"] == [[3]]


def test_intertwine_lift_refuses_a_non_intertwiner_printing_the_defect(capsys, tmp_path):
    t1, t2 = write(tmp_path, "t1.json", [[1]]), write(tmp_path, "t2.json", [[2]])
    argv = ["intertwine", "lift", "--T1", t1, "--T2", t2, "--S", write(tmp_path, "s.json", [[3]])]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "error: intertwining relation fails; T1 S - S T2 = [[-3]]\n"


def test_intertwine_extract_rejects_corrupted(capsys, tmp_path):
    t_file = write(tmp_path, "t.json", [[2]])
    bad = {
        "kind": "compose",
        "factors": [
            {"kind": "shift_right", "dim": 1},
            seqop_to_json(Componentwise(Mat([[3]]))),
        ],
    }
    r_file = write(tmp_path, "r.json", bad)
    code, out, _ = run_cli(
        capsys,
        ["intertwine", "extract", "--R", r_file, "--T1", t_file, "--T2", t_file],
    )
    assert code == EXIT_FAIL
    check = json.loads(out)[0]["checks"][0]
    assert check["status"] == "fail"
    witness = check["witness"]
    assert witness["relation"] == "R P2 = P1 R"
    assert set(witness) == {"relation", "probe", "lhs", "rhs"}
    assert witness["lhs"] != witness["rhs"]


def test_file_subcommands_share_the_suite_check_names(capsys, tmp_path):
    t_file = write(tmp_path, "t.json", [[2, 1], [0, 3]])
    b_file = write(tmp_path, "b.json", [[1, 0], [0, 1]])
    cases = [
        ("halmos", ["halmos", "--T", t_file]),
        ("schur", ["schur", "--class", "i", "--T", t_file, "--B", b_file, "--C", b_file,
                   "--D", t_file]),
    ]
    for suite, argv in cases:
        code, out, _ = run_cli(capsys, argv)
        assert code == EXIT_PASS
        cli_names = [c["name"] for c in json.loads(out)[0]["checks"]]
        config = SuiteConfig(trials=4, dim_max=2, suites=(suite,))
        suite_names = [c.name for c in run_suites(config)[0].checks]
        assert set(cli_names) <= set(suite_names), (cli_names, suite_names)


def test_file_subcommands_honour_seed_env(capsys, tmp_path, monkeypatch):
    t_file = write(tmp_path, "t.json", [[2]])
    monkeypatch.setenv("DILATEKIT_SEED", "not-a-number")
    code, _, err = run_cli(capsys, ["ndilate", "--T", t_file, "--N", "2"])
    assert code == EXIT_INPUT
    assert "DILATEKIT_SEED" in err


def _leaf_parsers(words, parser):
    """(subcommand words, parser) of every subcommand, in the parser's order."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield words, parser
    for group in groups:
        for name, child in group.choices.items():
            yield from _leaf_parsers(words + [name], child)


def _int_flags():
    """{(command, flag): action} for every int flag but --seed; the command is
    the subcommand words and its other required arguments, with a file
    argument written as "R" for an operator descriptor and "T" for a matrix."""
    flags = {}
    for words, parser in _leaf_parsers([], cli.build_parser()):
        for action in parser._actions:
            if action.type is not int or action.dest == "seed":
                continue
            command = list(words)
            for other in parser._actions:
                if not other.required or other is action:
                    continue
                if other.type is int:
                    value = "2"
                elif other.choices:
                    value = other.choices[0]
                else:
                    value = "R" if other.dest == "R" else "T"
                command += [other.option_strings[0], value]
            flags[tuple(command), action.option_strings[0]] = action
    return flags


INT_FLAGS = _int_flags()


@pytest.mark.parametrize(
    "command, flag, cap", [(list(c), flag, SIZES[a.dest][1]) for (c, flag), a in INT_FLAGS.items()]
)
def test_size_flag_over_its_cap_exits_two_naming_the_flag(capsys, tmp_path, command, flag, cap):
    action = INT_FLAGS[tuple(command), flag]
    # each default is the SuiteConfig or Bounds default it stands for; ando's
    # --nmax defaults to m_max's, as the ando suite bounds n by m_max
    owner = SuiteConfig if command[0] == "run" else Bounds
    field = "m_max" if command[0] == "ando" else action.dest
    assert action.default == getattr(owner, field, None)
    files = {
        "T": write(tmp_path, "t.json", [[2]]),
        "R": write(tmp_path, "r.json", {"kind": "componentwise", "S": [[1]]}),
    }
    argv = [files.get(arg, arg) for arg in command] + [flag, str(cap + 1)]
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"error: {flag} {cap + 1} exceeds the cap of {cap}\n"


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (list(c), flag, value)
        for (c, flag), a in INT_FLAGS.items()
        for value in (SIZES[a.dest][0] - 1, SIZES[a.dest][1] + 1)
    ],
)
def test_size_flag_outside_its_row_exits_two_before_any_file_is_read(
    capsys, tmp_path, command, flag, value
):
    floor, cap = SIZES[INT_FLAGS[tuple(command), flag].dest]
    missing = str(tmp_path / "missing.json")
    argv = [missing if arg in ("R", "T") else arg for arg in command] + [flag, str(value)]
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_INPUT
    assert out == ""
    refusal = f"is below the floor of {floor}" if value < floor else f"exceeds the cap of {cap}"
    assert err == f"error: {flag} {value} {refusal}\n"


@pytest.mark.parametrize("t_file", ["missing.json", "t.json"])
def test_kmax_not_past_n_exits_two_naming_the_flags_before_any_file_is_read(
    capsys, tmp_path, t_file
):
    write(tmp_path, "t.json", [[2]])
    argv = ["ndilate", "--T", str(tmp_path / t_file), "--N", "2", "--kmax", "2"]
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: --kmax must be at least --N+1 = 3, got 2\n"


def test_operator_input_errors_exit_two(capsys, tmp_path):
    t_file = write(tmp_path, "t.json", [[2]])
    base = '{"kind": "componentwise", "S": [[1]]}'
    huge_power = '{"kind": "power", "n": 100000000, "base": %s}' % base
    deep = '{"kind": "compose", "factors": [' * 900 + base + "]}" * 900
    for name, text, where in (("power", huge_power, "$.n:"), ("deep", deep, "$: JSON nested")):
        r_file = tmp_path / f"{name}.json"
        r_file.write_text(text)
        code, out, err = run_cli(
            capsys,
            ["intertwine", "extract", "--R", str(r_file), "--T1", t_file, "--T2", t_file],
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith(f"error: --R: {where}")


def test_descriptors_that_reach_too_far_exit_two_at_once(capsys, tmp_path):
    # each would run for minutes or hours: a power of a power multiplies the
    # applications, and a far block position is a high power of T
    t_file = write(tmp_path, "t.json", [[2]])
    shift = {"kind": "shift_right", "dim": 1}
    nested = {"kind": "power", "n": 1000, "base": {"kind": "power", "n": 1000, "base": shift}}
    block = {"row": 10**7, "col": 0, "block": [[1]]}
    far = {"kind": "column_blocks", "dim_in": 1, "dim_out": 1, "blocks": [block]}
    for name, descriptor, where in (("nested", nested, "$.n"), ("far", far, "$.blocks[0].row")):
        r_file = write(tmp_path, f"{name}.json", descriptor)
        argv = ["intertwine", "extract", "--R", r_file, "--T1", t_file, "--T2", t_file]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv + ["--certbound", "2"])
        assert time.perf_counter() - start < 1
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith(f"error: --R: {where}: ") and err.count("\n") == 1


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, ["halmos", "--T", "/nonexistent/t.json"])
    assert code == EXIT_INPUT
    assert "error" in err


def test_unwritable_json_path_exits_two_before_any_suite(capsys, tmp_path):
    argv = ["run", "--trials", "2", "--suites", "halmos", "--json", str(tmp_path / "no" / "r.json")]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("error: ") and err.count("\n") == 1  # no suite line


def test_malformed_matrix_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('[[1, "1/0"]]')
    code, _, err = run_cli(capsys, ["halmos", "--T", str(bad)])
    assert code == EXIT_INPUT
    assert "denominator" in err


def test_non_utf8_file_is_a_parse_error_at_the_root(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff")
    code, out, err = run_cli(capsys, ["halmos", "--T", str(bad)])
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "error: --T: $: file is not UTF-8 text\n"


def test_a_malformed_file_is_refused_under_its_own_flag(capsys, tmp_path):
    good = write(tmp_path, "good.json", [[1]])
    bad = write(tmp_path, "bad.json", [["1", "x"]])
    for bad_flag in ("--B", "--D"):
        argv = ["schur", "--class", "i"]
        for flag in ("--T", "--B", "--C", "--D"):
            argv += [flag, bad if flag == bad_flag else good]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == f"error: {bad_flag}: $[0][1]: malformed rational string 'x'\n"


def test_a_malformed_seed_is_refused_by_name(capsys, tmp_path, monkeypatch):
    t_file = write(tmp_path, "t.json", [[2]])
    monkeypatch.setenv("DILATEKIT_SEED", "x")
    for argv in (["run", "--trials", "1", "--suites", "halmos"], ["halmos", "--T", t_file]):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: DILATEKIT_SEED must be an integer, got 'x'\n"


# the smallest valid descriptor of each wire kind, all on dimension 1
MINIMAL_DESCRIPTORS = {
    "embed": {"dim": 1},
    "coord_proj0": {"dim": 1},
    "shift_right": {"dim": 1},
    "shift_bilat": {"dim": 1},
    "grid_down": {"dim": 1},
    "grid_right": {"dim": 1},
    "schaffer_u": {"T": [[1]]},
    "schaffer_v_inv": {"T": [[1]]},
    "proj_std": {"T": [[1]]},
    "proj_ando": {"T": [[1]], "S": [[1]]},
    "block_dense": {"dim": 1, "matrix": [[1]]},
    "componentwise": {"S": [[1]]},
    "column_blocks": {
        "dim_in": 1, "dim_out": 1, "blocks": [{"row": 0, "col": 0, "block": [[1]]}],
    },
    "compose": {"factors": [{"kind": "embed", "dim": 1}]},
    "power": {"n": 2, "base": {"kind": "embed", "dim": 1}},
}


def test_every_operator_kind_extracts_to_an_exit_code(capsys, tmp_path):
    assert set(MINIMAL_DESCRIPTORS) == set(_KINDS)
    t_file = write(tmp_path, "t.json", [[2]])
    codes = {}
    for kind, fields in MINIMAL_DESCRIPTORS.items():
        r_file = write(tmp_path, f"{kind}.json", {"kind": kind, **fields})
        argv = ["intertwine", "extract", "--R", r_file, "--T1", t_file, "--T2", t_file]
        code, out, err = run_cli(capsys, argv)
        assert code in (EXIT_PASS, EXIT_FAIL, EXIT_INPUT), kind
        assert "Traceback" not in out + err
        if code == EXIT_INPUT:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (kind, err)
        else:
            assert json.loads(out)[0]["suite"] == "intertwine_extract"
        codes[kind] = code
    assert codes["componentwise"] == EXIT_PASS
    assert codes["embed"] == codes["power"] == EXIT_INPUT


# Every file subcommand on fixed small files, with DILATEKIT_SEED unset:
# (argv with {name} for the file written from PINNED_FILES, exit code,
# sha256 of stdout).
PINNED_FILES = {
    "t1": [[2]],
    "t2": [[2, 1], [0, 3]],
    "b2": [[1, 0], [0, 1]],
    "c2": [[1, 1], [0, 1]],
    "d2": [[0, 1], [1, 0]],
    "n2": [[0, 1], [0, 0]],
    "p2": [[3, 1], [0, 4]],
    "q2": [[4, 5], [0, 9]],
    "lift": seqop_to_json(Componentwise(Mat([[3]]))),
    "corrupted": {
        "kind": "compose",
        "factors": [{"kind": "shift_right", "dim": 1}, seqop_to_json(Componentwise(Mat([[3]])))],
    },
}
PINNED_OUTPUTS = {
    "halmos": (
        "halmos --T {t2}",
        EXIT_PASS,
        "4f28125426ee248f398dd1ad1e064230300f0a58e888922a3c6707bab38e98ad",
    ),
    "schur i": (
        "schur --class i --T {t2} --B {b2} --C {c2} --D {d2}",
        EXIT_PASS,
        "4896fd5628e8851570361e22a482ba47a4afbeb1c66358c9a7c7b7d0dfb8fc37",
    ),
    "schur ii": (
        "schur --class ii --T {t2} --B {b2} --C {c2} --D {d2}",
        EXIT_PASS,
        "240be6e3c3a0ec8c647964de877a8eaafb51e7995db67fbf19ef8223be10b83b",
    ),
    "schur iii": (
        "schur --class iii --T {t2} --B {b2} --C {c2} --D {d2}",
        EXIT_PASS,
        "5f2f043d06efae040ed0eff00725402482720133f4841560bbf7dd0ca6200524",
    ),
    "schur iv": (
        "schur --class iv --T {t2} --B {b2} --C {c2} --D {d2}",
        EXIT_PASS,
        "d0ab1136b3d9f47077b4b3836f49ef70331eedd19438b23f537a4a5e687fb3ca",
    ),
    "nonsimilar": (
        "nonsimilar --T {t2}",
        EXIT_PASS,
        "6006de34258dc049187d731f291b3943710c5b7699944005c437f389fab2460c",
    ),
    "ndilate": (
        "ndilate --T {t2} --N 2 --kmax 3",
        EXIT_PASS,
        "96351c57afbcf8743991c0fec487d0a92708cd8b396ea04dffaf278575859962",
    ),
    "schaffer": (
        "schaffer --T {t2} --nmax 6",
        EXIT_PASS,
        "6e78a260cdd791d7083189ecc91896c0726a8aa6950c7b45e58d317c9ef58652",
    ),
    "standard": (
        "standard --T {t2} --nmax 6 --minimality",
        EXIT_PASS,
        "1b2a64e7a72244d66132c61cefd5df0b1a2c15871bff261c3bdd2d84f01d5118",
    ),
    "ando": (
        "ando --T {t2} --S {p2} --nmax 3 --mmax 3",
        EXIT_PASS,
        "fb12c3d17d33d82355b2aac785c0d109364f44e62a6b1dc38b20dfe34019e894",
    ),
    "wold": (
        "wold --T {n2}",
        EXIT_PASS,
        "e2eef1c79f3c12ab36c119d96bd800d19b1be44977656ee9a96a91a3f50d6c1b",
    ),
    "intertwine lift": (
        "intertwine lift --T1 {t2} --T2 {t2} --S {q2} --nmax 6",
        EXIT_PASS,
        "721e64bfa950b753bff412b88a02afc6116827dccc4fd8eb225bf4269eea204d",
    ),
    "intertwine extract": (
        "intertwine extract --R {lift} --T1 {t1} --T2 {t1}",
        EXIT_PASS,
        "755e29f00a1bcfb5a896fc34b1917163b26ab225fe7dd4c7b97fe28731d7d549",
    ),
    "intertwine extract corrupted": (
        "intertwine extract --R {corrupted} --T1 {t1} --T2 {t1} --certbound 4",
        EXIT_FAIL,
        "e0e74dd99734bd3e9da058e860db8374b9e22b1be9d13e15e15727d40bae84c4",
    ),
}


@pytest.mark.parametrize("label", sorted(PINNED_OUTPUTS))
def test_file_subcommand_output_is_pinned(label, capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("DILATEKIT_SEED", raising=False)
    paths = {name: write(tmp_path, f"{name}.json", doc) for name, doc in PINNED_FILES.items()}
    argv, expected_code, digest = PINNED_OUTPUTS[label]
    code, out, _ = run_cli(capsys, argv.format(**paths).split())
    assert code == expected_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
