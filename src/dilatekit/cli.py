"""Command-line interface.

The construction subcommands come from the registry in `harness`: each
reads JSON files, builds its construction, runs the same verifier as the
seeded suites and prints a JSON report to stdout. `run` executes the full
seeded conformance harness. Exit codes: 0 when every
check passed or was inconclusive, 1 when a check failed, 2 on input
errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import time
from typing import Optional, Sequence

from .finite import PreconditionFailed
from .harness import (
    ALL_SUITES,
    COMMANDS,
    SIZE_CAPS,
    Bounds,
    Construction,
    GenerationExhausted,
    SuiteConfig,
    instance_rng,
    iter_suites,
    overall_exit_code,
)
from .intertwine import NotIntertwining, RangeViolation
from .matrix import MatrixError
from .report import Report, reports_to_json
from .sequence import NonCommuting
from .serialize import ParseError, load_matrix, load_operator
from .wold import NotInjective

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

INPUT_ERRORS = (
    ParseError,
    MatrixError,
    PreconditionFailed,
    NonCommuting,
    NotIntertwining,
    NotInjective,
    RangeViolation,
    GenerationExhausted,
    OSError,
    ValueError,
)

_GROUP_HELP = {"intertwine": "lift or extract an intertwiner"}


def _default_seed() -> int:
    raw = os.environ.get("DILATEKIT_SEED")
    if raw is None:
        return 42
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"DILATEKIT_SEED must be an integer, got {raw!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dilatekit",
        description="Build dilations of linear maps and verify their identities exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the seeded conformance suites")
    run.add_argument("--seed", type=int, default=None)
    defaults = {f.name: f.default for f in dataclasses.fields(SuiteConfig)}
    caps = []
    for name, cap in SIZE_CAPS.items():
        flag = "--" + name.replace("_", "-")
        run.add_argument(flag, type=int, default=defaults[name])
        caps.append((flag, name, cap))
    run.set_defaults(handler=_cmd_run, caps=tuple(caps))
    run.add_argument(
        "--suites",
        default=",".join(ALL_SUITES),
        help="comma-separated subset of: " + ", ".join(ALL_SUITES),
    )
    run.add_argument("--json", dest="json_path", default=None, help="also write the report here")

    groups: dict = {}
    for c in COMMANDS:
        *group, name = (c.command or c.name).split()
        parent = sub
        if group:
            if group[0] not in groups:
                group_parser = sub.add_parser(group[0], help=_GROUP_HELP[group[0]])
                groups[group[0]] = group_parser.add_subparsers(
                    dest=f"{group[0]}_command", required=True
                )
            parent = groups[group[0]]
        cmd = parent.add_parser(name, help=c.help)
        for operand in c.operators:
            cmd.add_argument(f"--{operand}", required=True, help="operator descriptor JSON file")
        for operand in c.files:
            cmd.add_argument(f"--{operand}", required=True)
        caps = []
        for flag, kwargs in c.options + c.bounds:
            kwargs = dict(kwargs)
            if "cap" in kwargs:
                caps.append((flag, kwargs["dest"], kwargs.pop("cap")))
            cmd.add_argument(flag, **kwargs)
        cmd.set_defaults(handler=functools.partial(_cmd_construction, c), caps=tuple(caps))
    return parser


def _check_caps(args) -> None:
    """Refuse a size flag above its cap before any work starts."""
    for flag, dest, cap in args.caps:
        value = getattr(args, dest)
        if value is not None and value > cap:
            raise ValueError(f"{flag} {value} exceeds the cap of {cap}")


def _finish(reports: list[Report], json_path: Optional[str] = None) -> int:
    report_json = reports_to_json(reports, indent=2)
    print(report_json)
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(report_json + "\n")
    return overall_exit_code(reports)


def _cmd_run(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    suites = tuple(s.strip() for s in args.suites.split(",") if s.strip())
    sizes = {name: getattr(args, name) for name in SIZE_CAPS}
    config = SuiteConfig(seed=seed, suites=suites, **sizes)
    reports = []
    start = time.perf_counter()
    for rep in iter_suites(config):
        elapsed = time.perf_counter() - start
        reports.append(rep)
        status = "pass" if rep.passed else "FAIL"
        print(f"{rep.suite}: {status} ({len(rep.checks)} checks, {elapsed:.2f} s)", file=sys.stderr)
        start = time.perf_counter()
    return _finish(reports, args.json_path)


def _cmd_construction(c: Construction, args) -> int:
    """Read the files, draw probes from the seed, then build and verify."""
    rng = instance_rng(SuiteConfig(seed=_default_seed()), f"cli_{c.name}", 0)
    inst = {name: load_operator(getattr(args, name)) for name in c.operators}
    inst.update((name, load_matrix(getattr(args, name))) for name in c.files)
    inst.update((kwargs["dest"], getattr(args, kwargs["dest"])) for _, kwargs in c.options)
    inst.update(c.probes(rng, inst))
    bounds = Bounds(**{kwargs["dest"]: getattr(args, kwargs["dest"]) for _, kwargs in c.bounds})
    # The files obey Python's int-string digit limit; the numbers a report
    # prints, such as T^k x, may outgrow it.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _finish(c.verify(c.build(inst), inst, bounds))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use; parsing leaves it unchanged."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_caps(args)
        return args.handler(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
