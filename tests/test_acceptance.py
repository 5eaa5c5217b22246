"""Acceptance gate: one test per criterion, every equality exact.

Each test prints one [criterion NN] PASS/FAIL line (visible with -s or in
captured output). Tolerances are zero everywhere: all assertions are exact
arithmetic equalities; the only numeric budgets are wall-clock bounds,
measured in integer nanoseconds.
"""

import hashlib
import os
import subprocess
import sys
import time
from fractions import Fraction

from dilatekit import Mat
from dilatekit.finite import (
    INCONCLUSIVE_VERDICT,
    NOT_SIMILAR,
    ndilation_build,
    nonsimilar_pair,
    schur_build,
)
from dilatekit.harness import SuiteConfig, generate_instance, run_suites
from dilatekit.report import reports_to_json

SECOND_NS = 1_000_000_000
# sha256 of the file `dilatekit run --json PATH` writes at the default config
DEFAULT_REPORT_SHA256 = "1cc4b6d765938a4392adfad320e821eba74202eb303fa479180f7a923dfaaeb0"


def gate(number: int, description: str, ok: bool, detail: str = ""):
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {description}"
    print(line)
    assert ok, f"criterion {number} failed: {detail or description}"


def run_one(suite: str, **overrides) -> tuple[list, int]:
    config = SuiteConfig(suites=(suite,), **overrides)
    start = time.monotonic_ns()
    reports = run_suites(config)
    elapsed = time.monotonic_ns() - start
    return reports, elapsed


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)


def test_criterion_01_halmos():
    reports, elapsed = run_one("halmos", seed=42, trials=200, dim_max=5, entry_bound=9)
    names = {c.name for c in reports[0].checks}
    ok = (
        all_passed(reports)
        and any("U * U_inv" in n for n in names)
        and any("oracle" in n for n in names)
        and elapsed < 5 * SECOND_NS
    )
    gate(
        1,
        "200 seeded two-block dilations (d<=5): closed form inverts and matches the oracle, <5s",
        ok,
        detail=f"elapsed={elapsed / SECOND_NS}s",
    )


def test_criterion_02_schur_families():
    # 400 round-robin trials give each of the four classes 100 instances
    reports, _ = run_one("schur", seed=42, trials=400, dim_max=4)
    per_class = {
        tag: [c for c in reports[0].checks if f"({tag})" in c.name] for tag in ("i", "ii", "iii", "iv")
    }
    coverage = all(
        len(checks) == 2 and all("100 trials" in c.detail for c in checks)
        for checks in per_class.values()
    )

    fam = schur_build("i", Mat([[2]]), Mat([[1]]), Mat([[1]]), Mat([[1]]))
    oracle = Mat([[2, 1], [1, 1]]).inverse()
    corrected_entry = fam.U_inv[0, 0] == Fraction(1) and fam.U_inv == oracle
    Ti = Mat([[2]]).inverse()
    Si = (Mat([[1]]) - Mat([[1]]) * Ti * Mat([[1]])).inverse()
    truncated_entry = (Ti + Ti * Mat([[1]]) * Si)[0, 0]
    discrepancy = truncated_entry == Fraction(3, 2) and truncated_entry != fam.U_inv[0, 0]

    gate(
        2,
        "four Schur classes x100: closed forms equal the dense oracle; "
        "scalar (2,1,1,1) shows the corrected top-left entry 1 (not 3/2)",
        all_passed(reports) and coverage and corrected_entry and discrepancy,
    )


def test_criterion_03_nonsimilar():
    reports, _ = run_one("nonsimilar", seed=42, trials=100, dim_max=4)
    config = SuiteConfig(suites=("nonsimilar",), seed=42, trials=100, dim_max=4)
    spot = True
    for t in range(100):
        T = generate_instance(config, "nonsimilar", t)["T"]
        pair = nonsimilar_pair(T)
        spot = spot and (
            pair.verdict == NOT_SIMILAR
            and pair.trace_a1 == 2 * T.trace()
            and pair.trace_a2 == T.trace()
            and pair.trace_a1 != pair.trace_a2
        )
    zero = nonsimilar_pair(Mat([[0, 1], [0, 0]]))
    gate(
        3,
        "100 nonzero-trace instances: verdict not_similar with traces 2t vs t; "
        "zero-trace block gives inconclusive",
        all_passed(reports) and spot and zero.verdict == INCONCLUSIVE_VERDICT,
    )


def test_criterion_04_ndilation():
    ok = True
    for N in range(1, 6):
        nd = ndilation_build(Mat([[2]]), N)
        y = nd.embed((1,))
        for k in range(1, N + 1):
            y = nd.U.apply(y)
            ok = ok and nd.first_block(y) == (Fraction(2) ** k,)
        y = nd.U.apply(y)
        ok = ok and nd.first_block(y) != (Fraction(2) ** (N + 1),)
        if N == 2:
            ok = ok and nd.first_block(y) == (Fraction(9),)

    reports, _ = run_one("ndilation", seed=42, trials=100, dim_max=4)
    gate(
        4,
        "powers of 2 compress exactly up to N and diverge at N+1 (N=2 gives 9 != 8); "
        "100 random instances pass with exact block inverses",
        ok and all_passed(reports),
    )


def test_criterion_05_schaffer():
    reports, _ = run_one("schaffer", seed=42, trials=100, dim_max=4, n_max=12)
    names = {c.name for c in reports[0].checks}
    gate(
        5,
        "100 two-sided dilations (d<=4): coordinate-0 compression up to n=12 on 20 probes "
        "and exact mutual inverses",
        all_passed(reports)
        and any("compression" in n for n in names)
        and any("inverse pair" in n for n in names),
    )


def test_criterion_06_standard():
    reports, _ = run_one("standard", seed=42, trials=100, dim_max=4, n_max=12)
    names = {c.name for c in reports[0].checks}
    required = ("idempotent", "range", "dilation equation", "minimality")
    gate(
        6,
        "100 standard dilations: projection idempotent and ranged at the origin, "
        "dilation equation to n=12, minimality certificate",
        all_passed(reports) and all(any(r in n for n in names) for r in required),
    )


def test_criterion_07_wold():
    reports, _ = run_one("wold", seed=42, trials=100, dim_max=6)
    names = {c.name for c in reports[0].checks}
    required = (
        "direct sum",
        "invariance",
        "shift certificate",
        "stabilization index",
        "nilpotent block",
        "strict mode rejects",
        "strict mode on an injective map",
    )
    gate(
        7,
        "100 extended splittings (d<=6) fully certified; nilpotent block has zero "
        "bijective part with index d; strict mode rejects/accepts correctly",
        all_passed(reports) and all(any(r in n for n in names) for r in required),
    )


def test_criterion_08_intertwine():
    reports, _ = run_one("intertwine", seed=42, trials=100, dim_max=4, n_max=12)
    names = {c.name for c in reports[0].checks}
    required = ("U1 R = R U2", "R P2 = P1 R", "R I2 = I1 S", "round trip", "corrupted lift")
    gate(
        8,
        "100 constructed intertwiners: all three lift relations exact, extraction round-trips, "
        "and a corrupted lift is rejected with a reproducible witness",
        all_passed(reports) and all(any(r in n for n in names) for r in required),
    )


def test_criterion_09_ando():
    reports, _ = run_one("ando", seed=42, trials=100, dim_max=4, m_max=8)
    names = {c.name for c in reports[0].checks}
    required = (
        "two-parameter compression",
        "P U^n I x = I T^n x",
        "P V^m I x = I S^m x",
        "shift exchange",
    )
    gate(
        9,
        "100 commuting pairs: two-parameter compression to n,m=8, both single-parameter "
        "compressions, and the exchange/prepend identity, all exact",
        all_passed(reports) and all(any(r in n for n in names) for r in required),
    )


def test_criterion_10_determinism_and_budget():
    config = SuiteConfig()  # seed=42, trials=200, dim_max=4, n_max=12
    start = time.monotonic_ns()
    reports = run_suites(config)
    first = reports_to_json(reports)
    elapsed = time.monotonic_ns() - start
    second = reports_to_json(run_suites(config))
    identical = first.encode() == second.encode()
    written = (reports_to_json(reports, indent=2) + "\n").encode()
    pinned = hashlib.sha256(written).hexdigest() == DEFAULT_REPORT_SHA256

    # cross-process: hash randomization must not leak into reports
    cli_outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "dilatekit.cli", "run", "--seed", "9", "--trials", "2",
             "--suites", "halmos,wold"],
            capture_output=True,
            env=env,
            check=True,
        )
        cli_outputs.append(proc.stdout)
    gate(
        10,
        "identical configs give byte-identical reports (in-process and across processes), "
        "the default report has its pinned sha256; full default run under 60s",
        identical
        and cli_outputs[0] == cli_outputs[1]
        and pinned
        and elapsed < 60 * SECOND_NS,
        detail=f"elapsed={elapsed / SECOND_NS}s, report sha256 pinned: {pinned}",
    )
