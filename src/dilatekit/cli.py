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
import contextlib
import functools
import os
import sys
import time
from typing import Optional, Sequence, TextIO

from .harness import (
    ALL_SUITES,
    COMMANDS,
    CONFIG_SIZES,
    Bounds,
    Construction,
    GenerationExhausted,
    SuiteConfig,
    instance_rng,
    iter_suites,
    overall_exit_code,
)
from .report import Report, reports_to_json
from .serialize import ParseError, load_matrix, load_operator
from .sizes import FLOOR_ABOVE, SIZES, require_above, require_within

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

# every refusal of an input (ParseError, MatrixError, NonCommuting, ...) is a ValueError
INPUT_ERRORS = (ValueError, OSError, GenerationExhausted)

_GROUP_HELP = {"intertwine": "lift or extract an intertwiner"}


def _default_seed() -> int:
    raw = os.environ.get("DILATEKIT_SEED")
    if raw is None:
        return SuiteConfig.seed
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"DILATEKIT_SEED must be an integer, got {raw!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dilatekit",
        description="Build dilations of linear maps and verify their identities exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the seeded conformance suites")
    run.add_argument("--seed", type=int, default=None)
    sizes = {name: "--" + name.replace("_", "-") for name in CONFIG_SIZES}
    for name, flag in sizes.items():
        run.add_argument(flag, type=int, default=getattr(SuiteConfig, name))
    run.set_defaults(handler=_cmd_run, sizes=sizes)
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
        for flag, kwargs in c.options + c.bounds:
            cmd.add_argument(flag, **kwargs)
        sizes = {kw["dest"]: f for f, kw in c.options + c.bounds if kw["dest"] in SIZES}
        cmd.set_defaults(handler=functools.partial(_cmd_construction, c), sizes=sizes)
    return parser


def _finish(reports: list[Report], out: Optional[TextIO] = None) -> int:
    report_json = reports_to_json(reports, indent=2)
    print(report_json)
    if out is not None:
        out.write(report_json + "\n")
    return overall_exit_code(reports)


def _cmd_run(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    suites = tuple(s.strip() for s in args.suites.split(",") if s.strip())
    if not suites:
        raise ValueError(f"--suites {args.suites!r} names no suite")
    sizes = {name: getattr(args, name) for name in CONFIG_SIZES}
    config = SuiteConfig(seed=seed, suites=suites, **sizes)
    # opened before the first suite, so that an unwritable path costs no run
    with open(args.json_path, "w") if args.json_path else contextlib.nullcontext() as out:
        reports = []
        start = time.perf_counter()
        for rep in iter_suites(config):
            elapsed = time.perf_counter() - start
            reports.append(rep)
            status = "pass" if rep.passed else "FAIL"
            line = f"{rep.suite}: {status} ({len(rep.checks)} checks, {elapsed:.2f} s)"
            print(line, file=sys.stderr)
            start = time.perf_counter()
        return _finish(reports, out)


def _load(load, args, name: str):
    """The file given as --name; a ParseError names the flag before its path."""
    try:
        return load(getattr(args, name))
    except ParseError as exc:
        raise ValueError(f"--{name}: {exc}") from exc


def _cmd_construction(c: Construction, args) -> int:
    """Read the files, draw probes from the seed, then run the check."""
    rng = instance_rng(SuiteConfig(seed=_default_seed()), f"cli_{c.name}", 0)
    inst = {name: _load(load_operator, args, name) for name in c.operators}
    inst.update((name, _load(load_matrix, args, name)) for name in c.files)
    inst.update((kwargs["dest"], getattr(args, kwargs["dest"])) for _, kwargs in c.options)
    inst.update(c.probes(rng, inst))
    bounds = Bounds(**{kwargs["dest"]: getattr(args, kwargs["dest"]) for _, kwargs in c.bounds})
    # The files obey Python's int-string digit limit; the numbers a report
    # prints, such as T^k x, may outgrow it.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _finish(c.check(inst, bounds))
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
        flags = args.sizes  # {dest: flag} of the command's sizes
        for dest, flag in flags.items():  # before any work
            require_within(flag, dest, getattr(args, dest))
        for dest, below in FLOOR_ABOVE.items():
            if dest in flags and below in flags:
                require_above(flags[dest], getattr(args, dest), flags[below], getattr(args, below))
        return args.handler(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
