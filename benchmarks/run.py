"""dilatekit benchmark: one run of one workload.

    python3 benchmarks/run.py --workload finite-dense --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
The run times whole rounds of the workload's operations until ``--seconds``
have passed (at least three rounds and 100 operations), then checks the
outputs. Reported times are scaled to a reference machine speed (see
CAL_REF_S below); the raw ones are in the line before the result. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The line before it describes the run (seed, commit, Python, CPU count).
See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 9
MIN_ROUNDS = 3
MIN_OPS = 100

# Machine-speed scaling. The speed of this kind of shared 2-vCPU box moves
# by about 20% within minutes and by more than 2x over an hour, for all code
# alike. So every time the benchmark reports is scaled by CAL_REF_S / c,
# where c is the median time of a fixed stdlib-only exact-arithmetic loop
# timed just before and just after the interval: times read as on a machine
# where that loop takes CAL_REF_S. The loop uses no dilatekit code, so a
# change to the package moves the scaled times as it moves the raw ones.
CAL_REF_S = 0.010
CAL_SAMPLES = 3
_CAL_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5, (i + j) % 4 + 1) for j in range(6)]
               for i in range(6)]

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_ms_p50", "ms"), ("op_ms_p90", "ms"),
              ("peak_rss_mb", "MB")]


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _workdir(tag: str) -> Path:
    path = OUT / f"work-{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def calibration_sample() -> list[float]:
    """Times of CAL_SAMPLES passes of the calibration loop."""
    times = []
    for _ in range(CAL_SAMPLES):
        start = time.perf_counter()
        for _ in range(4):
            acc = _CAL_MATRIX
            for _ in range(3):
                acc = [[sum(a * b for a, b in zip(row, col)) for col in zip(*_CAL_MATRIX)]
                       for row in acc]
        times.append(time.perf_counter() - start)
    return times


def speed_scale(before: list[float], after: list[float]) -> float:
    """Factor from raw seconds to reference seconds for one interval."""
    return CAL_REF_S / statistics.median(before + after)


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median time from starting a fresh interpreter to the first operation,
    scaled and raw.

    Each probe is a new interpreter that imports dilatekit and builds the
    workload's inputs, then reports ready. One uncounted probe goes first,
    so bytecode caches are as a user's second run finds them.
    """
    scaled, raw = [], []
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    before = calibration_sample()
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        if line != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
        after = calibration_sample()
        if i:
            scaled.append(elapsed * speed_scale(before, after))
            raw.append(elapsed)
        before = after
    return statistics.median(scaled), statistics.median(raw)


def measure(ops: list, seconds: float, checker, tracer=None,
            min_rounds: int = MIN_ROUNDS, min_ops: int = MIN_OPS) -> dict:
    """Repeat whole rounds of `ops` until `seconds` have passed.

    Each operation's output must be byte-identical in every round; the
    first round's outputs are returned for the correctness checks. Times
    are scaled per round by the calibration loop timed around it.
    """
    min_rounds = max(min_rounds, -(-min_ops // len(ops)))
    clock = time.perf_counter
    latencies: list[float] = []
    round_walls: list[float] = []
    raw_walls: list[float] = []
    layer_rounds: list[dict] = []
    first_outputs = first_texts = None
    attempted = failed = 0
    start = clock()
    before = calibration_sample()
    calibration = list(before)
    while len(round_walls) < min_rounds or clock() - start < seconds:
        outputs = []
        round_latencies = []
        if tracer is not None:
            tracer.active = True
        round_start = clock()
        for op in ops:
            if tracer is not None:
                tracer.op = attempted
            t0 = clock()
            try:
                out = op()
            except Exception as exc:  # recorded as a failed operation below
                out = exc
            round_latencies.append(clock() - t0)
            outputs.append(out)
            attempted += 1
        raw_wall = clock() - round_start
        if tracer is not None:
            tracer.active = False
        after = calibration_sample()
        calibration += after
        factor = speed_scale(before, after)
        before = after
        raw_walls.append(raw_wall)
        round_walls.append(raw_wall * factor)
        latencies += [t * factor for t in round_latencies]
        if tracer is not None:
            layer = tracer.round_metrics()
            layer_rounds.append({k: v * factor if k.endswith("_s") else v for k, v in layer.items()})

        texts = []
        for op, out in zip(ops, outputs):
            if isinstance(out, Exception):
                failed += 1
                trace = "".join(traceback.format_exception(out))
                checker.expect(f"{op.label}: runs without raising", trace, None)
                texts.append(repr(out))
                continue
            failed += op.failed(out)
            texts.append(op.canonical(out))
        if first_texts is None:
            first_outputs, first_texts = outputs, texts
        else:
            for op, text, first in zip(ops, texts, first_texts):
                checker.expect(f"{op.label}: repeated output is byte-identical", text, first)
    return {
        "outputs": first_outputs,
        "latencies": latencies,
        "round_walls": round_walls,
        "raw_walls": raw_walls,
        "calibration": calibration,
        "layer_rounds": layer_rounds,
        "attempted": attempted,
        "failed": failed,
    }


def check_outputs(ops: list, outputs: list, checker) -> None:
    for op, out in zip(ops, outputs):
        if not isinstance(out, Exception):
            op.check(out, checker)


def end_to_end_metrics(run: dict, setup_s: float) -> dict:
    deciles = statistics.quantiles(run["latencies"], n=10, method="inclusive")
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(run["round_walls"]),
        "op_ms_p50": deciles[4] * 1000,
        "op_ms_p90": deciles[8] * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def layer_metrics(run: dict) -> dict:
    from tracing import METRICS

    rounds = run["layer_rounds"]
    return {name: {"value": statistics.median_low(r[name] for r in rounds), "unit": unit}
            for name, unit in METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "dilatekit" / "__init__.py").is_file():
        print(f"error: no dilatekit sources under {SRC}; run from a dilatekit checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("DILATEKIT_SEED", None)  # the CLI workload relies on the default seed
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    if args.setup_probe:
        import workloads

        workdir = _workdir("probe")
        try:
            workloads.build(args.workload, args.seed, workloads.FULL, workdir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    setup_s, raw_setup_s = (None, None) if args.trace else setup_seconds(args.workload, args.seed)

    workdir = _workdir("run")
    try:
        ops = workloads.build(args.workload, args.seed, workloads.FULL, workdir)
        checker = workloads.Checker()
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        run = measure(ops, args.seconds, checker, tracer)
        check_outputs(ops, run["outputs"], checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "commit": _commit(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "trace": args.trace,
        "ops_per_round": len(ops),
        "rounds": len(run["round_walls"]),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "round_wall_s": statistics.median(run["round_walls"]),
        "raw_round_wall_s": statistics.median(run["raw_walls"]),
        "raw_setup_s": raw_setup_s,
        "calibration_ms": statistics.median(run["calibration"]) * 1000,
        "checks": len(checker.names),
        "check_failures": checker.failures[:5],
    }
    if tracer is not None:
        path = OUT / f"trace-{args.workload}.json.gz"
        tracer.write(path, {k: info[k] for k in ("workload", "seed", "commit", "rounds")})
        info["trace_file"] = str(path.relative_to(ROOT))
        metrics = layer_metrics(run)
    else:
        metrics = end_to_end_metrics(run, setup_s)
    for failure in checker.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({
        "correct": checker.ok,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0 if checker.ok else 1


if __name__ == "__main__":
    sys.exit(main())
