"""Fast self-test of the benchmark, at tiny sizes.

    python3 benchmarks/selftest.py

For every workload it runs two rounds of the operations with every
correctness check, then runs them again with one deliberately wrong
expected value for each named check and requires each check to report it.
It also runs each workload traced, measures set-up once per workload,
exercises the failure paths that the full runs do not reach (an operation
that raises, a corrupted lift reported as a failed check), and runs the
benchmark in a directory without the package, where it must fail.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402


class WrongOnce(workloads.Checker):
    """Replaces the expected value with a wrong one on the first use of each
    check name, so every check must report a failure once."""

    def __init__(self):
        super().__init__()
        self.tampered: set[str] = set()

    def expect(self, name, observed, expected):
        if name not in self.tampered:
            self.tampered.add(name)
            expected = ("deliberately wrong", expected)
        return super().expect(name, observed, expected)


class Raises:
    label = "raising operation"

    def __call__(self):
        raise ZeroDivisionError("deliberate")


def require(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {what}")


def failed_names(checker: workloads.Checker) -> set[str]:
    return {f.split(": got ", 1)[0] for f in checker.failures}


def run_checked(ops, checker, tracer=None) -> dict:
    result = run.measure(ops, 0, checker, tracer, min_rounds=2, min_ops=0)
    run.check_outputs(ops, result["outputs"], checker)
    return result


def test_workload(name: str, workdir: Path) -> None:
    ops = workloads.build(name, 1, workloads.TINY, workdir)
    checker = workloads.Checker()
    result = run_checked(ops, checker)
    require(checker.ok, f"{name}: checks failed: {checker.failures[:3]}")
    corrupted = sum(getattr(op, "corrupted", False) for op in ops)
    require(result["failed"] == 2 * corrupted, f"{name}: {result['failed']} failed operations")

    wrong = WrongOnce()
    run_checked(ops, wrong)
    missed = wrong.names - failed_names(wrong)
    require(not missed, f"{name}: wrong expected values not reported by {sorted(missed)}")
    require(wrong.names == checker.names, f"{name}: checks differ between runs")
    print(f"{name}: {len(ops)} operations, {len(checker.names)} checks, each shown to fail")


def test_traced(name: str, tracer: tracing.Tracer, workdir: Path, busy: list[str]) -> None:
    ops = workloads.build(name, 1, workloads.TINY, workdir)
    checker = workloads.Checker()
    result = run.measure(ops, 0, checker, tracer, min_rounds=3, min_ops=0)
    require(checker.ok, f"{name} traced: checks failed: {checker.failures[:3]}")
    metrics = run.layer_metrics(result)
    require([m for m, _ in tracing.METRICS] == list(metrics), f"{name} traced: metric names")
    counts = [{k: v for k, v in r.items() if k.endswith(".calls")} for r in result["layer_rounds"]]
    require(all(c == counts[0] for c in counts), f"{name} traced: counts differ between rounds")
    for layer in busy:
        require(metrics[layer]["value"] > 0, f"{name} traced: {layer} is 0")
    self_total = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    require(self_total <= max(result["round_walls"]), f"{name} traced: self times exceed the round")
    print(f"{name} traced: {len(metrics)} per-layer metrics, counts repeat")


def test_failure_paths(workdir: Path) -> None:
    checker = workloads.Checker()
    result = run.measure([Raises()], 0, checker, min_rounds=2, min_ops=0)
    require(result["failed"] == 2, "a raising operation is counted as failed")
    require("raising operation: runs without raising" in failed_names(checker),
            "a raising operation fails its check")

    corrupted = [op for op in workloads.build("cli-small", 1, workloads.TINY, workdir)
                 if op.corrupted][0]
    witness = json.dumps([{"passed": False, "checks": [
        {"name": "R P2 = P1 R", "status": "fail", "witness": {"probe": {}}}]}])
    good = workloads.Checker()
    corrupted.check((1, witness, ""), good)
    require(good.ok and not corrupted.failed((1, witness, "")),
            "a corrupted lift reported as a failed check with a witness is accepted")
    bad = workloads.Checker()
    corrupted.check((0, json.dumps([{"passed": True, "checks": []}]), ""), bad)
    require(not bad.ok, "a corrupted lift that passes is rejected")
    print("failure paths: raising operation and corrupted-lift outcomes classified")


def test_without_package() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "cli-small", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    require(proc.returncode != 0 and '"correct"' not in proc.stdout,
            "without the package the benchmark fails and prints no result")
    print(f"without the package: exit {proc.returncode}, no result")


def main() -> int:
    os.environ.pop("DILATEKIT_SEED", None)
    workdir = run._workdir("selftest")
    try:
        for name in workloads.WORKLOADS:
            test_workload(name, workdir)
        test_failure_paths(workdir)
        tracer = tracing.Tracer()
        tracer.install()
        test_traced("finite-dense", tracer, workdir,
                    ["matrix.mul.calls", "matrix.rref.calls", "matrix.inverse.calls",
                     "finite.build.calls", "finite.verify.self_s", "wold.decompose.self_s",
                     "harness.generate.calls", "harness.suite.self_s"])
        test_traced("sequence-deep", tracer, workdir,
                    ["matrix.apply.calls", "matrix.pow.calls", "finsupp.fsvec.calls",
                     "seqops.apply.calls", "sequence.verify.self_s", "intertwine.verify.self_s",
                     "intertwine.extract.self_s", "matrix.max_bits"])
        test_traced("cli-small", tracer, workdir,
                    ["cli.parser.self_s", "cli.main.self_s", "serialize.parse.self_s",
                     "report.json.self_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name in workloads.WORKLOADS:
        scaled, raw = run.setup_seconds(name, 1)
        print(f"{name} set-up: {scaled:.3f} s scaled, {raw:.3f} s raw")
    test_without_package()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
