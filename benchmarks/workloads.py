"""The benchmark's three workloads: their operations and correctness checks.

An operation is one call into a user-facing entry point:

* on the suite path (``finite-dense``, ``sequence-deep``), one
  ``dilatekit.harness.run_suites`` call on one suite, which is what
  ``dilatekit run`` does;
* on the CLI path (``cli-small``), one in-process ``dilatekit.cli.main``
  call with stdout and stderr captured.

A workload is a fixed list of operations built from the workload seed; a
run repeats that list in whole rounds.

Suite operations are stratified by instance size. The cost of a trial is
set almost entirely by the dimension the generator draws for it (about 11x
between dimension 1 and 4 on ``ando``), so drawing dimensions freely makes
the work of a round, and with it every timing, depend on the seed. Each
operation therefore takes the first seed, from a stream derived from the
workload seed, whose trials draw a prescribed dimension (and, for
``ndilation``, a prescribed N), and every dimension appears equally often
in a round. The entries, probes and everything else still come from the
seed. The prediction reads the first draws of ``harness.instance_rng``,
the order ``generate_instance`` uses; if that order changes, operations
fall back to unstratified sizes, which widens the spread but changes no
result.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import reference as ref
from dilatekit import cli, harness
from dilatekit.finite import SCHUR_CLASSES, halmos_build, ndilation_build, nonsimilar_pair, schur_build
from dilatekit.report import reports_to_json
from dilatekit.sequence import ando_build, schaffer_build, standard_build

# Functions are looked up through their modules at call time (harness.run_suites,
# cli.main) so that a traced run sees its wrappers. The names imported directly
# above serve the checks outside the timed rounds.

WORKLOADS = ("finite-dense", "sequence-deep", "cli-small")

# Sizes of the full benchmark and of the self-test.
FULL = {
    "finite": {"dim_max": 6, "copies": 2},
    "sequence": {"dim_max": 4, "n_max": 16, "copies": 2},
    "cli": {"nmax": 4, "certbound": 4},
}
TINY = {
    "finite": {"dim_max": 2, "copies": 1},
    "sequence": {"dim_max": 2, "n_max": 3, "copies": 1},
    "cli": {"nmax": 2, "certbound": 2},
}

SEARCH_LIMIT = 4096


class Checker:
    """Collects failed correctness checks by name."""

    def __init__(self):
        self.names: set[str] = set()
        self.failures: list[str] = []

    def expect(self, name: str, observed, expected) -> bool:
        self.names.add(name)
        if observed == expected:
            return True
        self.failures.append(f"{name}: got {_short(observed)}, expected {_short(expected)}")
        return False

    @property
    def ok(self) -> bool:
        return not self.failures


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 200 else text[:200] + "..."


def _entries(m) -> list[list[Fraction]]:
    """A dilatekit Mat as plain lists of Fractions."""
    return [list(row) for row in m.entries]


def _check_inverse(checker: Checker, name: str, u, u_inv) -> None:
    n = len(u)
    checker.expect(f"{name}: U * U_inv = I", ref.matmul(u, u_inv), ref.identity(n))
    checker.expect(f"{name}: U_inv * U = I", ref.matmul(u_inv, u), ref.identity(n))


def _derived_int(*parts) -> int:
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "big")


# ----------------------------------------------------------------------
# suite path


@dataclass
class SuiteOp:
    """One ``run_suites`` call on one suite."""

    label: str
    config: object  # dilatekit.harness.SuiteConfig

    def __call__(self):
        return harness.run_suites(self.config)

    def canonical(self, reports) -> str:
        return reports_to_json(reports)

    def failed(self, reports) -> bool:
        return False

    def check(self, reports, checker: Checker) -> None:
        suite = self.config.suites[0]
        checker.expect("suite report passes", [r.passed for r in reports], [True])
        ran, expected = [], []
        for c in (c for r in reports for c in r.checks):
            folded = _FOLDED.match(c.detail)
            if folded:
                ran.append(int(folded.group(1)))
                expected.append(self._trials_of(c.name))
        checker.expect("suite report has folded checks", bool(ran), True)
        checker.expect("folded checks ran every trial", ran, expected)
        if suite in SAMPLE_CHECKS:
            SAMPLE_CHECKS[suite](self.config, checker)

    def _trials_of(self, check_name: str) -> int:
        """Trials a folded check covers: all, or for a schur check named after
        one class, the trials of that class (trial t has class t mod 4)."""
        tag = _SCHUR_CHECK.match(check_name)
        if tag is None:
            return self.config.trials
        k = SCHUR_CLASSES.index(tag.group(1))
        return len(range(k, self.config.trials, len(SCHUR_CLASSES)))


_FOLDED = re.compile(r"^(\d+) trials\b")
_SCHUR_CHECK = re.compile(r"^class \((\w+)\):")


def _first_draw(config, suite: str, counter: int, hi: int) -> int:
    """The size `generate_instance` draws first for this trial."""
    return harness.instance_rng(config, suite, counter).randint(1, hi)


def _ndilation_size(config) -> tuple:
    # N is drawn after the entries of T, so read it off the instance itself.
    inst = harness.generate_instance(config, "ndilation", 0)
    return inst["T"].rows, inst["N"]


def _block_diagonal_sizes(config) -> tuple:
    # Trial 1 of intertwine draws its second blocks' sizes after the entries of
    # its first block, so read them off the instance itself.
    inst = harness.generate_instance(config, "intertwine", 1)
    return inst["T1"].rows, inst["T2"].rows


def _stratified(tag: str, base: dict, suite: str, trials: int, accept: Callable) -> SuiteOp:
    """The first seed of the stream `tag` whose instance sizes `accept` takes."""
    for attempt in range(SEARCH_LIMIT):
        config = harness.SuiteConfig(seed=_derived_int(tag, attempt), trials=trials, suites=(suite,), **base)
        if accept(config):
            return SuiteOp(label=tag, config=config)
    raise RuntimeError(f"no seed for {tag} within {SEARCH_LIMIT} attempts")


def _strata(tag: str, base: dict, copies: int, suite: str, trials: int, strata) -> list[SuiteOp]:
    """`copies` operations per stratum; `strata` pairs a label with an accept test."""
    return [_stratified(f"{tag}:{suite}:{label}:{copy}", base, suite, trials, accept)
            for label, accept in strata for copy in range(copies)]


def finite_dense(seed: int, size: dict) -> list[SuiteOp]:
    """Per copy: halmos, nonsimilar and wold once per dimension, ndilation once
    per (dimension, N), schur once per cyclic window of four dimensions (one
    trial per class)."""
    d_max, copies = size["dim_max"], size["copies"]
    base = {"dim_max": d_max}
    tag = f"finite-dense:{seed}"
    dims = range(1, d_max + 1)
    ops = []
    for suite in ("halmos", "nonsimilar", "wold"):
        ops += _strata(tag, base, copies, suite, 1, [
            (d, lambda c, s=suite, d=d: _first_draw(c, s, 0, d_max) == d) for d in dims])
    nd_dim = min(4, d_max)
    ops += _strata(tag, base, copies, "ndilation", 1, [
        (f"{d}x{n}", lambda c, d=d, n=n: _ndilation_size(c) == (d, n))
        for d in range(1, nd_dim + 1) for n in range(1, 5)])
    windows = [sorted((start + k) % d_max + 1 for k in range(4)) for start in range(d_max)]
    ops += _strata(tag, base, copies, "schur", 4, [
        (w, lambda c, w=w: sorted(_first_draw(c, "schur", t, d_max) for t in range(4)) == w)
        for w in windows])
    return ops


def sequence_deep(seed: int, size: dict) -> list[SuiteOp]:
    """Per copy: schaffer, standard and ando once per dimension. Intertwine
    runs two trials, T1 = T2 of dimension d, then block-diagonal T1, T2 with a
    shared core of dimension a and second blocks of sizes (1, 2) or (2, 1),
    once per d >= 2 and block order.

    n_max equals m_max because the ando suite bounds both exponents by
    m_max; with them equal, mending that leaves the work unchanged.
    """
    d_max, copies = size["dim_max"], size["copies"]
    base = {"dim_max": d_max, "n_max": size["n_max"], "m_max": size["n_max"]}
    tag = f"sequence-deep:{seed}"
    ops = []
    for suite in ("schaffer", "standard", "ando"):
        ops += _strata(tag, base, copies, suite, 1, [
            (d, lambda c, s=suite, d=d: _first_draw(c, s, 0, d_max) == d)
            for d in range(1, d_max + 1)])
    a_max = max(1, d_max - 1)
    strata = []
    for d in range(2, d_max + 1):
        a = (d - 2) % a_max + 1
        for b1, b2 in ((1, 2), (2, 1)):
            strata.append((f"{d}:{a}+{b1},{b2}", lambda c, d=d, a=a, b=(a + b1, a + b2): (
                _first_draw(c, "intertwine", 0, d_max) == d
                and _first_draw(c, "intertwine", 1, a_max) == a
                and _block_diagonal_sizes(c) == b)))
    ops += _strata(tag, base, 1, "intertwine", 2, strata)
    return ops


# Reference checks on trial 0 of each suite operation, in plain Fractions.


def _sample_halmos(config, checker: Checker) -> None:
    T = harness.generate_instance(config, "halmos", 0)["T"]
    hd = halmos_build(T)
    u, u_inv = _entries(hd.U), _entries(hd.U_inv)
    _check_inverse(checker, "halmos", u, u_inv)
    t = _entries(T)
    n = len(t)
    eye, zero = ref.identity(n), ref.zeros(n, n)
    checker.expect("halmos: U_inv = [[0, I], [I, -T]]", u_inv, ref.block([[zero, eye], [eye, ref.neg(t)]]))


def _sample_schur(config, checker: Checker) -> None:
    for t in range(config.trials):
        inst = harness.generate_instance(config, "schur", t)
        fam = schur_build(inst["class_tag"], inst["T"], inst["B"], inst["C"], inst["D"])
        u = _entries(fam.U)
        blocks = [[_entries(inst["T"]), _entries(inst["B"])], [_entries(inst["C"]), _entries(inst["D"])]]
        checker.expect("schur: U = [[T, B], [C, D]]", u, ref.block(blocks))
        _check_inverse(checker, f"schur ({inst['class_tag']})", u, _entries(fam.U_inv))


def _sample_nonsimilar(config, checker: Checker) -> None:
    T = harness.generate_instance(config, "nonsimilar", 0)["T"]
    pair = nonsimilar_pair(T)
    tr = ref.trace(_entries(T))
    checker.expect("nonsimilar: traces are 2 tr T and tr T", (pair.trace_a1, pair.trace_a2), (2 * tr, tr))
    _check_inverse(checker, "nonsimilar A1", _entries(pair.A1), _entries(pair.A1_inv))
    _check_inverse(checker, "nonsimilar A2", _entries(pair.A2), _entries(pair.A2_inv))


def _sample_ndilation(config, checker: Checker) -> None:
    inst = harness.generate_instance(config, "ndilation", 0)
    nd = ndilation_build(inst["T"], inst["N"])
    _check_inverse(checker, "ndilation", _entries(nd.U), _entries(nd.U_inv))


def _compression(config, checker: Checker, suite: str, build, first_n: int) -> None:
    inst = harness.generate_instance(config, suite, 0)
    dil = build(inst["T"])
    t = _entries(inst["T"])
    x = inst["probes"][-1]
    image = dil.I.apply(x)
    observed, expected = [], []
    for n in range(config.n_max + 1):
        if n >= first_n:
            observed.append(list(dil.P.apply(image).coeff(0)))
            expected.append(ref.power_apply(t, n, x))
        image = dil.U.apply(image)
    checker.expect(f"{suite}: coordinate 0 of P U^n I x = T^n x", observed, expected)


def _sample_ando(config, checker: Checker) -> None:
    inst = harness.generate_instance(config, "ando", 0)
    av = ando_build(inst["T"], inst["S"])
    t, s = _entries(inst["T"]), _entries(inst["S"])
    x = inst["probes"][-1]
    observed, expected = [], []
    row = av.I.apply(x)
    s_x = list(x)
    s_powers_x = []
    for m in range(config.m_max + 1):
        s_powers_x.append(s_x)
        s_x = ref.matvec(s, s_x)
    for n in range(config.n_max + 1):
        cell = row
        for m in range(config.m_max + 1):
            observed.append(list(av.P.apply(cell).coeff((0, 0))))
            expected.append(ref.power_apply(t, n, s_powers_x[m]))
            cell = av.V.apply(cell)
        row = av.U.apply(row)
    checker.expect("ando: cell (n, m) of P U^n V^m I x = T^n S^m x", observed, expected)


# wold has no sample check beyond its report's certificates, and intertwine
# none beyond the suite's own round trip through extraction.
SAMPLE_CHECKS = {
    "halmos": _sample_halmos,
    "schur": _sample_schur,
    "nonsimilar": _sample_nonsimilar,
    "ndilation": _sample_ndilation,
    "schaffer": lambda config, checker: _compression(config, checker, "schaffer", schaffer_build, 1),
    "standard": lambda config, checker: _compression(config, checker, "standard", standard_build, 0),
    "ando": _sample_ando,
}


# ----------------------------------------------------------------------
# CLI path


@dataclass
class CliOp:
    """One in-process ``dilatekit.cli.main(argv)`` call."""

    label: str
    argv: list[str]
    verify: Optional[Callable] = None  # (report data, checker) -> None
    corrupted: bool = False

    def __call__(self):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(self.argv)
        return code, out.getvalue(), err.getvalue()

    def canonical(self, result) -> str:
        return json.dumps(result)

    def failed(self, result) -> bool:
        # Known fault: a corrupted lift fails bounded certification, but the
        # CLI reports it as an input error (exit 2, no report, no witness)
        # where a failed check should exit 1 with a report.
        return self.corrupted and result[0] == 2

    def check(self, result, checker: Checker) -> None:
        code, out, _ = result
        if self.corrupted:
            if code == 2:
                return
            checker.expect(f"{self.label}: exit code of a failed check", code, 1)
            reports = _json_or_none(out)
            reports = reports if isinstance(reports, list) else []
            witnesses = [c.get("witness") for r in reports if isinstance(r, dict)
                         for c in r.get("checks", ()) if c.get("status") == "fail"]
            checker.expect(f"{self.label}: failed check carries a witness", any(witnesses), True)
            return
        checker.expect(f"{self.label}: exit code", code, 0)
        reports = _json_or_none(out)
        checker.expect(f"{self.label}: prints a JSON list of reports", isinstance(reports, list), True)
        if not isinstance(reports, list):
            return
        checker.expect(f"{self.label}: every report passes", [r.get("passed") for r in reports],
                       [True] * len(reports))
        if self.verify is not None:
            self.verify(reports[0].get("data", {}), checker)


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _wire(m) -> list:
    return [[x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}" for x in row]
            for row in m]


class _Files:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = itertools.count()

    def write(self, doc) -> str:
        path = self.workdir / f"in{next(self.count)}.json"
        path.write_text(json.dumps(doc))
        return str(path)


def _small_matrix(rng: random.Random, d: int) -> list[list[Fraction]]:
    return [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)] for _ in range(d)]


def _poly_in(rng: random.Random, t) -> list[list[Fraction]]:
    """a I + b T with small nonzero a, b: commutes with T."""
    a, b = rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2))
    return ref.add(ref.scale(Fraction(a), ref.identity(len(t))), ref.scale(Fraction(b), t))


# Per class: the corner block K that must be invertible, and X, Y, Z of its
# Schur complement X - Y K^-1 Z, which must be invertible too.
_SCHUR_PARTS = {"i": "TDCB", "ii": "DTBC", "iii": "BCDT", "iv": "CBTD"}


def _schur_blocks(rng: random.Random, tag: str, d: int) -> dict:
    k, x, y, z = _SCHUR_PARTS[tag]
    while True:
        b = {name: _small_matrix(rng, d) for name in "TBCD"}
        try:
            schur = ref.add(b[x], ref.neg(ref.matmul(ref.matmul(b[y], ref.inverse(b[k])), b[z])))
            ref.inverse(schur)
        except ZeroDivisionError:
            continue
        return b


def _expect_data_matrix(checker: Checker, name: str, data: dict, key: str, expected) -> None:
    checker.expect(name, ref.mat(data.get(key, [])), expected)


def _expect_data_inverse(checker: Checker, name: str, data: dict, u_key: str, inv_key: str) -> None:
    _check_inverse(checker, name, ref.mat(data.get(u_key, [[0]])), ref.mat(data.get(inv_key, [[0]])))


def cli_small(seed: int, size: dict, workdir: Path) -> list[CliOp]:
    """Every subcommand once on seeded matrix files of dimension 1-2, plus one
    `intertwine extract` on a corrupted lift."""
    rng = random.Random(_derived_int("cli-small", seed))
    files = _Files(workdir)
    nmax, cert = str(size["nmax"]), str(size["certbound"])
    ops: list[CliOp] = []

    t1 = _small_matrix(rng, 1)

    def halmos_ok(data, checker, t=t1):
        eye, zero = ref.identity(len(t)), ref.zeros(len(t), len(t))
        _expect_data_matrix(checker, "cli halmos: U_inv = [[0, I], [I, -T]]", data, "U_inv",
                            ref.block([[zero, eye], [eye, ref.neg(t)]]))
        _expect_data_inverse(checker, "cli halmos", data, "U", "U_inv")

    ops.append(CliOp("halmos", ["halmos", "--T", files.write(_wire(t1))], halmos_ok))

    for tag, d in (("i", 2), ("ii", 1), ("iii", 2), ("iv", 1)):
        blocks = _schur_blocks(rng, tag, d)
        argv = ["schur", "--class", tag]
        for name in "TBCD":
            argv += [f"--{name}", files.write(_wire(blocks[name]))]

        def schur_ok(data, checker, b=blocks, tag=tag):
            _expect_data_matrix(checker, f"cli schur ({tag}): U = [[T, B], [C, D]]", data, "U",
                                ref.block([[b["T"], b["B"]], [b["C"], b["D"]]]))
            _expect_data_inverse(checker, f"cli schur ({tag})", data, "U", "U_inv")

        ops.append(CliOp(f"schur {tag}", argv, schur_ok))

    t2 = _small_matrix(rng, 2)
    while ref.trace(t2) == 0:
        t2 = _small_matrix(rng, 2)

    def nonsimilar_ok(data, checker, t=t2):
        observed = (ref.rat(data.get("trace_a1", 0)), ref.rat(data.get("trace_a2", 0)))
        checker.expect("cli nonsimilar: traces are 2 tr T and tr T", observed,
                       (2 * ref.trace(t), ref.trace(t)))

    ops.append(CliOp("nonsimilar", ["nonsimilar", "--T", files.write(_wire(t2))], nonsimilar_ok))

    def ndilate_ok(data, checker):
        _expect_data_inverse(checker, "cli ndilate", data, "U", "U_inv")

    t_file = files.write(_wire(_small_matrix(rng, 2)))
    ops.append(CliOp("ndilate", ["ndilate", "--T", t_file, "--N", "2", "--kmax", "3"], ndilate_ok))
    ops.append(CliOp("schaffer", ["schaffer", "--T", files.write(_wire(_small_matrix(rng, 2))),
                                  "--nmax", nmax]))
    ops.append(CliOp("standard", ["standard", "--T", files.write(_wire(_small_matrix(rng, 2))),
                                  "--nmax", nmax, "--minimality"]))

    t = _small_matrix(rng, 2)
    ops.append(CliOp("ando", ["ando", "--T", files.write(_wire(t)),
                              "--S", files.write(_wire(_poly_in(rng, t))),
                              "--nmax", "3", "--mmax", "3"]))
    ops.append(CliOp("wold", ["wold", "--T", files.write(_wire(_small_matrix(rng, 2))),
                              "--mode", "extended"]))

    t = _small_matrix(rng, 2)
    t_file = files.write(_wire(t))
    ops.append(CliOp("intertwine lift", ["intertwine", "lift", "--T1", t_file, "--T2", t_file,
                                         "--S", files.write(_wire(_poly_in(rng, t))),
                                         "--nmax", nmax]))

    def extracted(s):
        def ok(data, checker):
            _expect_data_matrix(checker, "cli extract: returns the S that was written", data, "S", s)
        return ok

    for label, d in (("componentwise", 2), ("column_blocks", 1)):
        t = _small_matrix(rng, d)
        s = _poly_in(rng, t)
        if label == "componentwise":
            descriptor = {"kind": "componentwise", "S": _wire(s)}
        else:
            descriptor = {
                "kind": "column_blocks", "dim_in": d, "dim_out": d,
                "blocks": [{"row": k, "col": k, "block": _wire(s)} for k in range(int(cert) + 2)],
            }
        t_file = files.write(_wire(t))
        ops.append(CliOp(f"intertwine extract {label}",
                         ["intertwine", "extract", "--R", files.write(descriptor),
                          "--T1", t_file, "--T2", t_file, "--certbound", cert],
                         extracted(s)))

    t_file = files.write(_wire(_small_matrix(rng, 1)))
    corrupted = {"kind": "compose", "factors": [
        {"kind": "shift_right", "dim": 1},
        {"kind": "componentwise", "S": [[1]]},
    ]}
    ops.append(CliOp("intertwine extract corrupted",
                     ["intertwine", "extract", "--R", files.write(corrupted),
                      "--T1", t_file, "--T2", t_file, "--certbound", cert],
                     corrupted=True))
    return ops


def build(workload: str, seed: int, size: dict, workdir: Path) -> list:
    if workload == "finite-dense":
        return finite_dense(seed, size["finite"])
    if workload == "sequence-deep":
        return sequence_deep(seed, size["sequence"])
    if workload == "cli-small":
        return cli_small(seed, size["cli"], workdir)
    raise ValueError(f"unknown workload {workload!r}")
