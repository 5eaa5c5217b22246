"""Seeded instance generation, the construction registry, and suites.

Each construction is one `Construction` entry in `CONSTRUCTIONS`: how to
draw a seeded instance, and the one `check` that builds the dilation and
states its identities. The suite loop and the CLI subcommands both run
`check` from that table, so the two paths check the same identities under
the same names.

Instance streams are deterministic functions of (seed, suite, counter):
the RNG for each instance is seeded from a SHA-256 digest of those three
values, so identical configurations produce byte-identical reports
regardless of process, platform, or execution order. Matrix and vector
entries are drawn by `_draw_entries`, which reads the RNG exactly as
`randint` does. Entry magnitudes and verification bounds are capped by the
config to keep arbitrary-precision growth within a desk-scale budget.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
from dataclasses import dataclass, fields
from functools import partial
from fractions import Fraction
from math import lcm
from typing import Callable, Iterator, Optional, Sequence

from .finite import (
    INCONCLUSIVE_VERDICT,
    NOT_SIMILAR,
    SCHUR_CLASSES,
    PreconditionFailed,
    halmos_build,
    inverse_holds,
    ndilation_build,
    ndilation_verify,
    nonsimilar_pair,
    schur_build,
)
from .finsupp import Domain, FsVec
from .intertwine import (
    certification_report,
    lift_intertwiner,
    lift_relations,
    make_pair,
    read_off_intertwiner,
    relation_witness,
    standard_dilations,
    verify_lift,
)
from .matrix import Mat, Vec, unit_vec, vec_add
from .report import FAIL, INCONCLUSIVE, Report
from .seqops import Componentwise, Compose, ShiftRight
from .sequence import (
    ando_build,
    ando_verify,
    schaffer_build,
    schaffer_verify,
    standard_build,
    standard_minimality_check,
    standard_verify,
)
from .serialize import compact_json, fsvec_from_json, mat_to_json
from .sizes import SIZES, require_within
from .wold import EXTENDED, STRICT, NotInjective, verify_wold, wold_decompose

RETRY_LIMIT = 64


class GenerationExhausted(RuntimeError):
    """Bounded resampling failed to hit the instance precondition."""


class SuiteError(RuntimeError):
    """A module error, wrapped with the instance that triggered it."""


# ----------------------------------------------------------------------
# deterministic randomness


def instance_rng(config: SuiteConfig, kind: str, counter: int) -> random.Random:
    """RNG for one instance, independent of process hash randomization."""
    digest = hashlib.sha256(f"{config.seed}:{kind}:{counter}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _draw_entries(rng: random.Random, count: int, bound: int) -> list[tuple[int, int]]:
    """count pairs (rng.randint(-bound, bound), rng.randint(1, bound)), read
    off rng.getrandbits as randint reads them: rejection sampling on
    width.bit_length() bits, so the values and the stream are the same."""
    getrandbits, width = rng.getrandbits, 2 * bound + 1
    kn, kd = width.bit_length(), bound.bit_length()
    draws = []
    for _ in range(count):
        n = getrandbits(kn)
        while n >= width:
            n = getrandbits(kn)
        d = getrandbits(kd)
        while d >= bound:
            d = getrandbits(kd)
        draws.append((n - bound, d + 1))
    return draws


def random_matrix(rng: random.Random, dim: int, bound: int) -> Mat:
    # the draws of random_vector, row by row, brought over their lcm
    draws = _draw_entries(rng, dim * dim, bound)
    den = lcm(*(d for _, d in draws))
    return Mat._reduced(den, [n * (den // d) for n, d in draws], dim)


def random_vector(rng: random.Random, dim: int, bound: int) -> Vec:
    return tuple(Fraction(n, d) for n, d in _draw_entries(rng, dim, bound))


def random_fsvec(rng: random.Random, domain: Domain, dim: int, bound: int) -> FsVec:
    """Random finitely supported element: support size <= 6, small entries."""
    acc: dict = {}
    for _ in range(rng.randint(0, 6)):
        if domain is Domain.UNINAT:
            index = rng.randint(0, 12)
        elif domain is Domain.BIINT:
            index = rng.randint(-6, 6)
        else:
            index = (rng.randint(0, 6), rng.randint(0, 6))
        value = random_vector(rng, dim, bound)
        acc[index] = vec_add(acc[index], value) if index in acc else value
    return FsVec(domain, dim, acc)


def resample(make: Callable, accept: Callable, what: str, limit: int = RETRY_LIMIT):
    for _ in range(limit):
        candidate = make()
        if accept(candidate):
            return candidate
    raise GenerationExhausted(f"no {what} found within {limit} attempts")


def invertible_matrix(rng: random.Random, dim: int, bound: int) -> Mat:
    make = partial(random_matrix, rng, dim, bound)
    return resample(make, lambda m: m.rank() == dim, "invertible matrix")


def polynomial_in(rng: random.Random, T: Mat, max_degree: int = 2) -> Mat:
    """A small-coefficient polynomial in T; always commutes with T exactly."""
    result = Mat.zeros(T.rows, T.rows)
    power = Mat.identity(T.rows)
    for _ in range(max_degree + 1):
        result = result + power.scale(rng.randint(-3, 3))
        power = power * T
    return result


def _basis_plus_random(rng: random.Random, dim: int, count: int) -> list[Vec]:
    """Standard basis first, padded with seeded random vectors to count."""
    probes = [unit_vec(dim, i) for i in range(dim)]
    probes += [random_vector(rng, dim, 9) for _ in range(max(0, count - dim))]
    return probes


def jordan_nilpotent(dim: int) -> Mat:
    return Mat([[1 if j == i + 1 else 0 for j in range(dim)] for i in range(dim)])


def block_diag(a: Mat, b: Mat) -> Mat:
    return Mat.block(
        [[a, Mat.zeros(a.rows, b.cols)], [Mat.zeros(b.rows, a.cols), b]]
    )


# ----------------------------------------------------------------------
# the constructions


@dataclass(frozen=True)
class Bounds:
    """How far the verifiers check identities that quantify over all exponents."""

    n_max: int = 12
    m_max: int = 8
    k_max: Optional[int] = None  # ndilation: last power checked, N + 1 when None
    minimality: bool = True  # standard: also certify minimality

    def __post_init__(self):
        for f in fields(self):
            if f.name in SIZES:
                require_within(f.name, f.name, getattr(self, f.name))


class Construction:
    """One construction: seeded instances, its check, and a CLI subcommand.

    `generate(rng, config, counter)` draws one instance, a dict of named
    exact values. Preconditions are guaranteed by construction (commuting
    pairs, exact intertwiners) or by bounded resampling (invertible blocks,
    nonzero trace), never by rejection at verification time. `probes(rng,
    instance)` draws the probes the verifier needs; the CLI calls it on
    instances read from files. A suite's instances come from
    `generate_instance` alone, so a failing witness replays from its kind and
    counter: `check(generate_instance(SuiteConfig(seed=...), kind, counter), bounds)`.
    `check(instance, bounds)` builds the construction and returns its
    reports: the one place where the construction's identities are checked.
    `finish` adds the suite's checks on fixed instances, given the data of
    each trial's first report.

    The CLI subcommand `command` (the name by default) reads one JSON matrix
    file per name in `files` and one operator descriptor per name in
    `operators`. Its `options` flags go into the instance and its `bounds`
    flags into `Bounds`; a flag is a (flag, argparse keywords) pair with an
    explicit dest, and a flag whose dest names a size is held to its row of
    `sizes.SIZES`.

    `check` calls builders and verifiers by their module-level names, so
    whatever replaces those names (tracing, tests) is seen by the suites and
    the CLI alike.
    """

    name: str
    help: str
    command: Optional[str] = None
    files: tuple[str, ...] = ("T",)
    operators: tuple[str, ...] = ()
    options: tuple[tuple[str, dict], ...] = ()
    bounds: tuple[tuple[str, dict], ...] = ()

    def generate(self, rng: random.Random, config: SuiteConfig, counter: int) -> dict:
        dim = rng.randint(1, config.dim_max)
        return {"T": random_matrix(rng, dim, config.entry_bound)}

    def probes(self, rng: random.Random, inst: dict) -> dict:
        return {}

    def check(self, inst: dict, bounds: Bounds) -> list[Report]:
        raise NotImplementedError

    def finish(self, config: SuiteConfig, rep: Report, trial_data: list[dict]) -> None:
        pass


def _size_flag(flag: str, dest: str, **kwargs) -> tuple[str, dict]:
    """An int flag; a bound's default is the `Bounds` default."""
    return (flag, {"dest": dest, "type": int, "default": getattr(Bounds, dest, None), **kwargs})


_NMAX = _size_flag("--nmax", "n_max")


def _closed_form_report(suite: str, built, inverse: str, oracle: str) -> Report:
    """A closed-form inverse checked by multiplication (`inverse_holds`)
    and against the dense-inverse oracle, under the check names
    `inverse` and `oracle`."""
    U, U_inv = built.U, built.U_inv
    rep = Report(suite, data={"U": partial(mat_to_json, U), "U_inv": partial(mat_to_json, U_inv)})
    rep.add(inverse, inverse_holds(U, U_inv), witness=lambda: {"U": rep.data["U"]()})
    rep.add(
        oracle,
        U_inv == U.inverse(),
        witness=lambda: {"U": rep.data["U"](), "closed_form": rep.data["U_inv"]()},
    )
    return rep


class _Halmos(Construction):
    name = "halmos"
    help = "two-block dilation with closed-form inverse"

    def check(self, inst, bounds):
        inverse = "closed-form inverse: U * U_inv = U_inv * U = I"
        oracle = "closed form equals the dense-inverse oracle entrywise"
        return [_closed_form_report(self.name, halmos_build(inst["T"]), inverse, oracle)]


class _Schur(Construction):
    name = "schur"
    help = "Schur-complement dilation families"
    files = ("T", "B", "C", "D")
    options = (("--class", {"dest": "class_tag", "required": True, "choices": SCHUR_CLASSES}),)

    def generate(self, rng, config, counter):
        class_tag = SCHUR_CLASSES[counter % len(SCHUR_CLASSES)]
        dim = rng.randint(1, config.dim_max)

        def make() -> Optional[dict]:
            blocks = {name: random_matrix(rng, dim, config.entry_bound) for name in "TBCD"}
            try:
                family = schur_build(class_tag, blocks["T"], blocks["B"], blocks["C"], blocks["D"])
            except PreconditionFailed:
                return None
            return {"class_tag": class_tag, **blocks, "family": family}

        return resample(make, lambda inst: inst is not None, f"class ({class_tag}) instance")

    def check(self, inst, bounds):
        # a generated instance was built once already, to test the preconditions
        fam = inst.get("family") or schur_build(
            inst["class_tag"], inst["T"], inst["B"], inst["C"], inst["D"]
        )
        inverse = f"class ({fam.class_tag}): U * U_inv = U_inv * U = I"
        oracle = f"class ({fam.class_tag}): closed form equals the dense-inverse oracle"
        rep = _closed_form_report(self.name, fam, inverse, oracle)
        rep.data["schur_complement"] = partial(mat_to_json, fam.schur)
        return [rep]


class _NonSimilar(Construction):
    name = "nonsimilar"
    help = "trace-witnessed non-similar dilation pair"

    def generate(self, rng, config, counter):
        dim = rng.randint(1, config.dim_max)
        T = resample(
            lambda: random_matrix(rng, dim, config.entry_bound),
            lambda m: m.trace() != 0,
            "matrix with nonzero trace",
        )
        return {"T": T}

    def check(self, inst, bounds):
        pair = nonsimilar_pair(inst["T"])
        trace_t = pair.T.trace()
        traces = {"trace_a1": str(pair.trace_a1), "trace_a2": str(pair.trace_a2)}
        rep = Report(
            suite=self.name,
            data={
                "A1": partial(mat_to_json, pair.A1),
                "A2": partial(mat_to_json, pair.A2),
                "verdict": pair.verdict,
                **traces,
            },
        )
        if trace_t == 0:
            rep.add_inconclusive(
                "trace comparison cannot separate the pair at trace 0",
                detail="both dilations of the zero-trace instance have trace 0",
            )
        else:
            rep.add(
                "nonzero trace yields verdict not_similar",
                pair.verdict == NOT_SIMILAR,
                witness={"verdict": pair.verdict, "trace_T": str(trace_t)},
            )
        rep.add(
            "trace(A1) = 2 trace(T) and trace(A2) = trace(T)",
            pair.trace_a1 == 2 * trace_t and pair.trace_a2 == trace_t,
            witness=traces,
        )
        rep.add(
            "witness soundness: verdict not_similar implies trace(A1) != trace(A2)",
            pair.verdict != NOT_SIMILAR or pair.trace_a1 != pair.trace_a2,
            witness=traces,
        )
        rep.add(
            "both dilations invertible with certified inverses",
            inverse_holds(pair.A1, pair.A1_inv) and inverse_holds(pair.A2, pair.A2_inv),
            witness=lambda: {"A1": rep.data["A1"]()},
        )
        return [rep]

    def finish(self, config, rep, trial_data):
        zero_trace = self.check({"T": Mat([[0, 1], [0, 0]])}, Bounds())[0]
        verdict = zero_trace.data["verdict"]
        rep.add(
            "zero-trace block instance is reported inconclusive",
            verdict == INCONCLUSIVE_VERDICT,
            witness={"verdict": verdict},
        )
        # the check's first entry on a trace-0 instance is the inconclusive one
        rep.checks.append(zero_trace.checks[0])


class _NDilation(Construction):
    name = "ndilation"
    command = "ndilate"
    help = "N-step block dilation"
    options = (_size_flag("--N", "N", required=True),)
    bounds = (_size_flag("--kmax", "k_max"),)

    def generate(self, rng, config, counter):
        dim = rng.randint(1, min(4, config.dim_max))
        return {"T": random_matrix(rng, dim, config.entry_bound), "N": rng.randint(1, 4)}

    def probes(self, rng, inst):
        return {"probes": [random_vector(rng, inst["T"].rows, 9) for _ in range(5)]}

    def check(self, inst, bounds):
        nd = ndilation_build(inst["T"], inst["N"])
        return [ndilation_verify(nd, inst["probes"], bounds.k_max)]

    def finish(self, config, rep, trial_data):
        rep.data["instances_breaking_at_n_plus_1"] = sum(
            1 for data in trial_data if data["breaks_at_n_plus_1"]
        )


class _SequenceConstruction(Construction):
    """A dilation on a sequence space, verified on basis-plus-random vectors
    (padded to `vec_count`) and on `seq_count` random sequence elements."""

    domain: Domain
    vec_count: int
    seq_count: int
    bounds = (_NMAX,)

    def probes(self, rng, inst):
        dim = inst["T"].rows
        return {
            "probes": _basis_plus_random(rng, dim, self.vec_count),
            "seq_probes": [random_fsvec(rng, self.domain, dim, 9) for _ in range(self.seq_count)],
        }


class _Schaffer(_SequenceConstruction):
    name = "schaffer"
    help = "two-sided invertible dilation"
    domain, vec_count, seq_count = Domain.BIINT, 20, 10

    def check(self, inst, bounds):
        sd = schaffer_build(inst["T"])
        return [schaffer_verify(sd, inst["probes"], bounds.n_max, seq_probes=inst["seq_probes"])]


class _Standard(_SequenceConstruction):
    name = "standard"
    help = "standard minimal injective dilation"
    domain, vec_count, seq_count = Domain.UNINAT, 10, 10
    bounds = (_NMAX, ("--minimality", {"dest": "minimality", "action": "store_true"}))

    def check(self, inst, bounds):
        sd = standard_build(inst["T"])
        reports = [
            standard_verify(sd, inst["probes"], bounds.n_max, seq_probes=inst["seq_probes"])
        ]
        if bounds.minimality:
            reports.append(standard_minimality_check(sd, bounds.n_max))
        return reports


class _Wold(Construction):
    name = "wold"
    help = "eventual-image decomposition"
    options = (("--mode", {"dest": "mode", "choices": (STRICT, EXTENDED), "default": EXTENDED}),)

    def check(self, inst, bounds):
        # generated instances carry no mode: the suite runs the extended mode
        return [verify_wold(wold_decompose(inst["T"], inst.get("mode", EXTENDED)))]

    def finish(self, config, rep, trial_data):
        d = config.dim_max
        nilpotent = jordan_nilpotent(d)
        w = wold_decompose(nilpotent, EXTENDED)
        rep.add(
            "nilpotent block: bijective part is zero, index equals nilpotency degree",
            not w.Vb_basis and w.stabilization_index == d and verify_wold(w).passed,
            witness={
                "index": w.stabilization_index,
                "Vb": [list(map(str, v)) for v in w.Vb_basis],
            },
        )

        rejected = False
        witness_ok = False
        try:
            wold_decompose(nilpotent, STRICT)
        except NotInjective as exc:
            rejected = True
            image = nilpotent.apply(exc.witness)
            witness_ok = all(x == 0 for x in image) and any(x != 0 for x in exc.witness)
        rep.add(
            "strict mode rejects non-injective maps with a kernel witness",
            rejected and witness_ok,
            witness={"rejected": rejected, "witness_in_kernel": witness_ok},
        )

        rng = instance_rng(config, "wold_strict", 0)
        T_inv = invertible_matrix(rng, min(3, config.dim_max), config.entry_bound)
        w = wold_decompose(T_inv, STRICT)
        rep.add(
            "strict mode on an injective map: trivial complement, all certificates pass",
            not w.Vs_basis and len(w.Vb_basis) == T_inv.rows and verify_wold(w).passed,
            witness={"Vs": [list(map(str, v)) for v in w.Vs_basis]},
        )


class _Intertwine(Construction):
    name = "intertwine"
    command = "intertwine lift"
    help = "lift S to the dilation spaces and verify"
    files = ("T1", "T2", "S")
    bounds = (_NMAX,)

    def generate(self, rng, config, counter):
        bound = config.entry_bound
        if counter % 2 == 0:
            dim = rng.randint(1, config.dim_max)
            T = random_matrix(rng, dim, bound)
            return {"T1": T, "T2": T, "S": polynomial_in(rng, T)}
        a = rng.randint(1, max(1, config.dim_max - 1))
        A = random_matrix(rng, a, bound)
        B1 = random_matrix(rng, rng.randint(1, 2), bound)
        B2 = random_matrix(rng, rng.randint(1, 2), bound)
        core = polynomial_in(rng, A)
        S = Mat.block(
            [
                [core, Mat.zeros(a, B2.rows)],
                [Mat.zeros(B1.rows, a), Mat.zeros(B1.rows, B2.rows)],
            ]
        )
        return {"T1": block_diag(A, B1), "T2": block_diag(A, B2), "S": S}

    def probes(self, rng, inst):
        return {"probes": [random_fsvec(rng, Domain.UNINAT, inst["T2"].rows, 9) for _ in range(5)]}

    def check(self, inst, bounds):
        pair = make_pair(inst["T1"], inst["T2"], inst["S"])
        R = lift_intertwiner(pair)
        rep = verify_lift(R, pair, inst["probes"], n_max=bounds.n_max)
        if not rep.passed:  # no certificate to read the map off from
            return [rep]
        # the passing relation checks are extraction's certificate, and
        # make_pair has proved that pair.S intertwines
        extracted = read_off_intertwiner(R, pair.dil1, pair.dil2)
        rep.add(
            "round trip: extracted map equals the lifted one",
            extracted == pair.S,
            witness=lambda: {"extracted": mat_to_json(extracted), "S": mat_to_json(pair.S)},
        )
        return [rep]

    def finish(self, config, rep, trial_data):
        rng = instance_rng(config, "intertwine_corrupt", 0)
        d = rng.randint(1, config.dim_max)
        T = random_matrix(rng, d, config.entry_bound)
        pair = make_pair(T, T, Mat.identity(d))
        bad = Compose((ShiftRight(d), Componentwise(Mat.identity(d))))
        # the first check is the certification; its witness is set if it failed
        caught = certification_report(bad, pair.dil1, pair.dil2, config.n_max).checks[0].witness
        reproduced = False
        if caught is not None:
            witness = dict(caught)
            relation = witness.pop("relation")
            relations = lift_relations(bad, pair.dil1, pair.dil2)
            lhs, rhs = next((l, r) for _, name, l, r in relations if name == relation)
            probe = fsvec_from_json(witness["probe"])
            reproduced = relation_witness(lhs, rhs, [probe]) == witness
        rep.add(
            "corrupted lift fails bounded certification with a reproducible witness",
            caught is not None and reproduced,
            bound=config.n_max,
            witness={
                "caught": caught is not None,
                "relation": caught["relation"] if caught else None,
            },
        )


class _Extract(Construction):
    """The converse of the lift: a subcommand, but no suite of its own,
    since the intertwine suite reads S off every lift it verifies."""

    name = "intertwine_extract"
    command = "intertwine extract"
    help = "recover S from an operator descriptor"
    operators = ("R",)
    files = ("T1", "T2")
    bounds = (_size_flag("--certbound", "n_max"),)

    def check(self, inst, bounds):
        dil1, dil2 = standard_dilations(inst["T1"], inst["T2"])
        return [certification_report(inst["R"], dil1, dil2, bounds.n_max)]


class _Ando(_SequenceConstruction):
    name = "ando"
    help = "two-parameter grid dilation of a commuting pair"
    files = ("T", "S")
    domain, vec_count, seq_count = Domain.GRID, 3, 3
    # defect D1: --nmax defaults to m_max, as the ando suite bounds n by m_max
    bounds = (_size_flag("--nmax", "n_max", default=Bounds.m_max), _size_flag("--mmax", "m_max"))

    def generate(self, rng, config, counter):
        T = super().generate(rng, config, counter)["T"]
        return {"T": T, "S": polynomial_in(rng, T)}

    def check(self, inst, bounds):
        av = ando_build(inst["T"], inst["S"])
        probes, seq_probes = inst["probes"], inst["seq_probes"]
        return [ando_verify(av, probes, bounds.n_max, bounds.m_max, seq_probes=seq_probes)]


CONSTRUCTIONS = {
    c.name: c
    for c in (
        _Halmos(),
        _Schur(),
        _NonSimilar(),
        _NDilation(),
        _Schaffer(),
        _Standard(),
        _Wold(),
        _Intertwine(),
        _Ando(),
    )
}
COMMANDS = (*CONSTRUCTIONS.values(), _Extract())  # one CLI subcommand each
ALL_SUITES = tuple(CONSTRUCTIONS)


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 42
    trials: int = 200
    dim_max: int = 4
    n_max: int = Bounds.n_max
    m_max: int = Bounds.m_max
    entry_bound: int = 9
    suites: tuple[str, ...] = ALL_SUITES

    def __post_init__(self):
        for name in CONFIG_SIZES:
            require_within(name, name, getattr(self, name))
        unknown = [s for s in self.suites if s not in ALL_SUITES]
        if unknown:
            raise ValueError(f"unknown suites: {unknown}")

    def echo(self) -> dict:
        return {"seed": self.seed, **{name: getattr(self, name) for name in CONFIG_SIZES}}


# the sizes `run` takes as --trials, --dim-max, ... flags
CONFIG_SIZES = tuple(f.name for f in fields(SuiteConfig) if f.name in SIZES)


def generate_instance(config: SuiteConfig, kind: str, counter: int = 0) -> dict:
    """The counter-th instance of a suite, as the suite checks it: `generate`
    on the stream (seed, kind, counter), then, for a construction that
    overrides `probes`, `probes` on (seed, kind_probes, counter)."""
    if kind not in CONSTRUCTIONS:
        raise ValueError(f"unknown instance kind {kind!r}")
    c = CONSTRUCTIONS[kind]
    inst = c.generate(instance_rng(config, kind, counter), config, counter)
    if type(c).probes is Construction.probes:  # draws no probes: seed no stream for them
        return inst
    return {**inst, **c.probes(instance_rng(config, f"{kind}_probes", counter), inst)}


# ----------------------------------------------------------------------
# aggregation of per-instance reports into one suite report


class _Aggregator:
    """Folds per-trial reports: a named check passes iff it passed on every
    trial; the first failure is kept as witness with instance provenance."""

    def __init__(self):
        self.slots: dict[str, dict] = {}

    def fold(self, rep: Report, trial: int, instance: Callable[[], dict]) -> None:
        # instance() builds the provenance JSON; only a failing check calls it
        for check in rep.checks:
            slot = self.slots.setdefault(
                check.name,
                {"ok": True, "bound": check.bound, "witness": None, "inconclusive": 0, "trials": 0},
            )
            slot["trials"] += 1
            if check.status == FAIL and slot["witness"] is None:
                slot["ok"] = False
                slot["witness"] = {"trial": trial, "instance": instance(), **(check.witness or {})}
            elif check.status == INCONCLUSIVE:
                slot["inconclusive"] += 1

    def emit(self, rep: Report) -> None:
        for name, slot in self.slots.items():
            detail = f"{slot['trials']} trials"
            if slot["inconclusive"]:
                detail += f", {slot['inconclusive']} inconclusive"
            rep.add(name, slot["ok"], bound=slot["bound"], witness=slot["witness"], detail=detail)


def _instance_json(kind: str, counter: int, inst: dict) -> dict:
    out: dict = {"kind": kind, "counter": counter}
    for key, value in inst.items():
        if isinstance(value, Mat):
            out[key] = mat_to_json(value)
        elif isinstance(value, (int, str)):
            out[key] = value
        # probe lists and built objects: generate_instance(config, kind, counter) remakes them
    return out


@contextlib.contextmanager
def _wrap_errors(kind: str, trial: int, instance: dict):
    try:
        yield
    except Exception as exc:
        raise SuiteError(
            f"suite {kind!r} trial {trial} raised {type(exc).__name__}: {exc}; "
            f"instance {compact_json(_instance_json(kind, trial, instance))}"
        ) from exc


# ----------------------------------------------------------------------
# suites


def _run_suite(config: SuiteConfig, c: Construction) -> Report:
    # Known defect, kept so that reports stay byte-identical until it is
    # mended on its own: the ando suite bounds n by m_max, not n_max.
    n_max = config.m_max if isinstance(c, _Ando) else config.n_max
    bounds = Bounds(n_max=n_max, m_max=config.m_max)
    rep = Report(suite=c.name, config=config.echo())
    agg = _Aggregator()
    trial_data = []
    for t in range(config.trials):
        inst = generate_instance(config, c.name, t)
        with _wrap_errors(c.name, t, inst):
            reports = c.check(inst, bounds)
        for trial_rep in reports:
            agg.fold(trial_rep, t, lambda: _instance_json(c.name, t, inst))
        trial_data.append(reports[0].data)
    agg.emit(rep)
    c.finish(config, rep, trial_data)
    return rep


def iter_suites(config: SuiteConfig) -> Iterator[Report]:
    """Run the selected suites in canonical order, yielding each report as
    its suite finishes; deterministic output."""
    for kind in ALL_SUITES:
        if kind in config.suites:
            yield _run_suite(config, CONSTRUCTIONS[kind])


def run_suites(config: SuiteConfig) -> list[Report]:
    """Run the selected suites in canonical order; deterministic output."""
    return list(iter_suites(config))


def overall_exit_code(reports: Sequence[Report]) -> int:
    """0 when nothing failed (inconclusive allowed), 1 otherwise."""
    return 0 if all(r.passed for r in reports) else 1
