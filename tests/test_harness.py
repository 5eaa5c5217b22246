import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from functools import partial

import pytest

from dilatekit import Mat, SingularMatrix, finite, harness, wold
from dilatekit.harness import (
    ALL_SUITES,
    CONSTRUCTIONS,
    GenerationExhausted,
    SuiteConfig,
    _draw_entries,
    generate_instance,
    instance_rng,
    invertible_matrix,
    jordan_nilpotent,
    overall_exit_code,
    polynomial_in,
    random_fsvec,
    random_matrix,
    random_vector,
    resample,
    run_suites,
)
from dilatekit.finite import halmos_build, ndilation_build, ndilation_verify
from dilatekit.finsupp import Domain
from dilatekit.intertwine import certification_report, lift_intertwiner, make_pair, verify_lift
from dilatekit.report import Check, Report, reports_to_json
from dilatekit.seqops import Componentwise, Compose, CoordProj0
from dilatekit.sequence import (
    ando_build,
    ando_verify,
    schaffer_build,
    schaffer_verify,
    standard_build,
    standard_minimality_check,
    standard_verify,
)
from dilatekit.serialize import mat_to_json
from dilatekit.sizes import SIZES

SMALL = SuiteConfig(seed=1, trials=4, dim_max=3, n_max=6, m_max=4)


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(trials=0)
    with pytest.raises(ValueError):
        SuiteConfig(dim_max=0)
    with pytest.raises(ValueError):
        SuiteConfig(suites=("halmos", "nagy"))


def test_sizes_over_their_caps_are_refused():
    assert SIZES == {
        "trials": (1, 10_000), "dim_max": (1, 16), "n_max": (1, 100), "m_max": (1, 100),
        "k_max": (1, 100), "entry_bound": (1, 10**6), "N": (1, 32),
    }
    # the exponent-bound defaults, which SuiteConfig and every CLI flag read
    assert harness.Bounds() == harness.Bounds(n_max=12, m_max=8, k_max=None, minimality=True)
    # the default config and the benchmark's largest sizes are admitted
    SuiteConfig()
    SuiteConfig(dim_max=6, n_max=16, m_max=16)
    bounds = ("n_max", "m_max", "k_max")
    for cls, names in ((SuiteConfig, harness.CONFIG_SIZES), (harness.Bounds, bounds)):
        for name in names:
            floor, cap = SIZES[name]
            with pytest.raises(ValueError, match=f"{name} {floor - 1} is below the floor of {floor}"):
                cls(**{name: floor - 1})
            with pytest.raises(ValueError, match=f"{name} {cap + 1} exceeds the cap of {cap}"):
                cls(**{name: cap + 1})


_T = Mat([[2]])
_PAIR = make_pair(_T, _T, Mat([[3]]))
_STANDARD, _ANDO = standard_build(_T), ando_build(_T, _T)
# every sized argument of a verifier or builder: the call on a 1x1 instance
# that takes the size as a keyword, the argument's name, and its row of SIZES
SIZED_ARGUMENTS = {
    "schaffer_verify": (partial(schaffer_verify, schaffer_build(_T), [(1,)]), "n_max", "n_max"),
    "standard_verify": (partial(standard_verify, _STANDARD, [(1,)]), "n_max", "n_max"),
    "standard_minimality_check": (partial(standard_minimality_check, _STANDARD), "n_max", "n_max"),
    "ando_verify n_max": (partial(ando_verify, _ANDO, [(1,)], m_max=1), "n_max", "n_max"),
    "ando_verify m_max": (partial(ando_verify, _ANDO, [(1,)], n_max=1), "m_max", "m_max"),
    "verify_lift": (partial(verify_lift, lift_intertwiner(_PAIR), _PAIR, []), "n_max", "n_max"),
    "certification_report": (
        partial(certification_report, lift_intertwiner(_PAIR), _PAIR.dil1, _PAIR.dil2),
        "cert_bound",
        "n_max",
    ),
    "ndilation_build": (partial(ndilation_build, _T), "N", "N"),
    "ndilation_verify": (partial(ndilation_verify, ndilation_build(_T, 1), [(1,)]), "k_max", "k_max"),
}


@pytest.mark.parametrize("side", ("floor", "cap"))
@pytest.mark.parametrize("call", SIZED_ARGUMENTS)
def test_sized_arguments_outside_their_rows_are_refused(call, side):
    fn, arg, row = SIZED_ARGUMENTS[call]
    floor, cap = SIZES[row]
    if side == "floor":
        value, refusal = floor - 1, f"is below the floor of {floor}"
    else:
        value, refusal = cap + 1, f"exceeds the cap of {cap}"
    with pytest.raises(ValueError, match=f"^{arg} {value} {refusal}$"):
        fn(**{arg: value})


def test_generate_instance_is_deterministic():
    a = generate_instance(SMALL, "halmos", 3)
    b = generate_instance(SMALL, "halmos", 3)
    assert a == b
    different_seed = generate_instance(SuiteConfig(seed=2, trials=4), "halmos", 3)
    assert a != different_seed


def test_only_constructions_that_draw_probes_seed_a_probe_stream(monkeypatch):
    streams = []

    def recording(config, kind, counter):
        streams.append(kind)
        return instance_rng(config, kind, counter)

    monkeypatch.setattr(harness, "instance_rng", recording)
    for kind in ALL_SUITES:
        generate_instance(SMALL, kind, 0)
    probed = ("ndilation", "schaffer", "standard", "intertwine", "ando")
    assert [k for k in streams if k.endswith("_probes")] == [f"{k}_probes" for k in probed]
    assert [k for k in streams if not k.endswith("_probes")] == list(ALL_SUITES)


def test_instance_streams_differ_by_counter():
    instances = [generate_instance(SMALL, "wold", t) for t in range(6)]
    assert len({json.dumps(str(i)) for i in instances}) > 1


def test_ando_instances_commute_exactly():
    for t in range(10):
        inst = generate_instance(SMALL, "ando", t)
        assert inst["T"] * inst["S"] == inst["S"] * inst["T"]


def test_intertwine_instances_satisfy_relation():
    for t in range(10):
        inst = generate_instance(SMALL, "intertwine", t)
        assert inst["T1"] * inst["S"] == inst["S"] * inst["T2"]


def test_schur_instances_satisfy_preconditions():
    from dilatekit.finite import schur_build

    for t in range(8):
        inst = generate_instance(SMALL, "schur", t)
        schur_build(inst["class_tag"], inst["T"], inst["B"], inst["C"], inst["D"])


def test_nonsimilar_instances_have_nonzero_trace():
    for t in range(10):
        assert generate_instance(SMALL, "nonsimilar", t)["T"].trace() != 0


def test_resample_exhaustion():
    with pytest.raises(GenerationExhausted):
        resample(lambda: 0, lambda _: False, "unsatisfiable instance", limit=5)


def test_invertible_matrix_helper():
    rng = instance_rng(SMALL, "test", 0)
    m = invertible_matrix(rng, 3, 5)
    m.inverse()


def randint_entries(rng, count, bound):
    return [(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(count)]


@pytest.mark.parametrize("bound", range(1, 13))
def test_draw_entries_reads_the_stream_as_randint_does(bound):
    for seed in range(200):
        rng, ref = random.Random(seed), random.Random(seed)
        count = 1 + seed % 7
        assert _draw_entries(rng, count, bound) == randint_entries(ref, count, bound)
        assert rng.random() == ref.random()


def test_draw_entries_spends_a_bit_on_each_denominator_of_bound_one():
    # randint(1, 1) draws getrandbits(1) until it reads 0
    rng, numerators_only = random.Random(5), random.Random(5)
    _draw_entries(rng, 8, 1)
    for _ in range(8):
        numerators_only.randint(-1, 1)
    assert rng.getstate() != numerators_only.getstate()


def test_random_matrix_vector_and_invertible_matrix_keep_the_randint_stream():
    def ref_matrix(rng, dim, bound):
        return Mat([[Fraction(n, d) for n, d in randint_entries(rng, dim, bound)]
                    for _ in range(dim)])

    def ref_invertible(rng, dim, bound):
        # the accept test of the old helper: an inverse exists
        while True:
            m = ref_matrix(rng, dim, bound)
            try:
                m.inverse()
                return m
            except SingularMatrix:
                pass

    for seed in range(100):
        dim, bound = 1 + seed % 4, 1 + seed % 3  # bounds 1 and 2 give many singular draws
        pairs = [
            (random_matrix, ref_matrix),
            (invertible_matrix, ref_invertible),
            (random_vector, lambda rng, dim, bound: tuple(
                Fraction(n, d) for n, d in randint_entries(rng, dim, bound))),
        ]
        for make, ref_make in pairs:
            rng, ref = random.Random(seed), random.Random(seed)
            assert make(rng, dim, bound) == ref_make(ref, dim, bound)
            assert rng.random() == ref.random()


def test_polynomial_commutes():
    rng = instance_rng(SMALL, "test", 1)
    T = Mat([[1, 2], [3, 4]])
    p = polynomial_in(rng, T)
    assert T * p == p * T


def test_jordan_nilpotent_shape():
    j = jordan_nilpotent(3)
    assert j == Mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert (j ** 3).is_zero()


def test_random_fsvec_respects_domain():
    rng = instance_rng(SMALL, "test", 2)
    for domain in Domain:
        x = random_fsvec(rng, domain, 2, 9)
        assert x.domain is domain


def test_run_suites_all_pass_small():
    reports = run_suites(SMALL)
    assert [r.suite for r in reports] == list(ALL_SUITES)
    for rep in reports:
        assert rep.passed, rep.failed_checks()
    assert overall_exit_code(reports) == 0


def test_small_config_report_is_pinned():
    # sha256 of the indented report of all nine suites at a small config;
    # a change here means the report is no longer byte-identical
    config = SuiteConfig(trials=4, dim_max=3, n_max=6, m_max=4)
    text = reports_to_json(run_suites(config), indent=2)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "58deeda15bf4b69448919b117bc9c7d1628acac676fd97a2e414d75209acb610"


def test_sequence_deep_config_report_is_pinned():
    # sha256 of the compact report of the four sequence suites at the
    # bounds of the sequence-deep benchmark workload, where ando runs to
    # m_max = 16 rather than the default 8
    config = SuiteConfig(
        suites=("schaffer", "standard", "intertwine", "ando"),
        dim_max=4,
        n_max=16,
        m_max=16,
        trials=8,
    )
    digest = hashlib.sha256(reports_to_json(run_suites(config)).encode()).hexdigest()
    assert digest == "483811acb010c82fdf296aaa2bb05180499b0ee2539c44e3d259dd7b3a50de21"


def test_registry_lists_every_suite_in_canonical_order():
    assert tuple(CONSTRUCTIONS) == ALL_SUITES


def test_schur_suite_builds_each_family_once(monkeypatch):
    calls = {"all": 0, "built": 0}
    schur_build = harness.schur_build

    def counting(*args):
        calls["all"] += 1
        family = schur_build(*args)
        calls["built"] += 1
        return family

    monkeypatch.setattr(harness, "schur_build", counting)
    reports = run_suites(SuiteConfig(trials=20, suites=("schur",)))
    assert reports[0].passed
    assert calls["built"] == 20
    # one drawn candidate fails its precondition and is drawn again
    assert calls["all"] == 21


def test_reports_byte_identical_across_runs():
    first = reports_to_json(run_suites(SMALL))
    second = reports_to_json(run_suites(SMALL))
    assert first.encode() == second.encode()


def test_suite_order_is_canonical_regardless_of_request_order():
    cfg = SuiteConfig(seed=1, trials=2, suites=("wold", "halmos"))
    reports = run_suites(cfg)
    assert [r.suite for r in reports] == ["halmos", "wold"]


def test_empty_suite_set():
    cfg = SuiteConfig(seed=1, trials=2, suites=())
    assert run_suites(cfg) == []
    assert overall_exit_code([]) == 0


def test_nonsimilar_suite_carries_inconclusive_but_exits_clean():
    cfg = SuiteConfig(seed=3, trials=3, suites=("nonsimilar",))
    reports = run_suites(cfg)
    assert len(reports) == 1
    statuses = {c.status for c in reports[0].checks}
    assert "inconclusive" in statuses
    assert overall_exit_code(reports) == 0


def test_failing_check_requires_witness():
    with pytest.raises(ValueError):
        Check(name="broken", status="fail")
    check = Check(name="broken", status="fail", witness={"probe": 1})
    assert check.witness == {"probe": 1}


def test_witness_function_runs_only_when_the_check_fails():
    calls = []

    def witness():
        calls.append("built")
        return {"probe": 1}

    rep = Report(suite="demo")
    rep.add("passes", True, witness=witness)
    assert calls == []
    rep.add("fails", False, witness=witness)
    assert calls == ["built"]
    assert [c.witness for c in rep.checks] == [None, {"probe": 1}]


def test_exit_code_distinguishes_fail_from_inconclusive():
    failing = Report(suite="demo")
    failing.add("identity", False, witness={"probe": 1})
    assert overall_exit_code([failing]) == 1
    undecided = Report(suite="demo")
    undecided.add_inconclusive("cannot tell")
    assert overall_exit_code([undecided]) == 0


def test_report_json_shape():
    rep = Report(suite="demo")
    rep.add("identity holds", True, bound=5)
    rep.add_inconclusive("undecidable here", detail="because")
    doc = json.loads(rep.to_json())
    assert doc["suite"] == "demo"
    assert doc["passed"] is True
    assert doc["checks"][0] == {"name": "identity holds", "status": "pass", "bound": 5}


def test_intertwine_suite_reports_a_broken_lift_as_a_failed_check(monkeypatch):
    # S applied to the origin coordinate only: U1 R = R U2 fails, and the
    # suite reports verify_lift's witness instead of raising
    def broken_lift(pair):
        return Compose((Componentwise(pair.S), CoordProj0(pair.T2.rows, Domain.UNINAT)))

    monkeypatch.setattr(harness, "lift_intertwiner", broken_lift)
    config = SuiteConfig(seed=3, trials=2, dim_max=2, n_max=3, suites=("intertwine",))
    rep = run_suites(config)[0]
    checks = {c.name: c for c in rep.checks}
    forward = checks["forward shifts intertwine: U1 R = R U2"]
    assert forward.status == "fail"

    inst = generate_instance(config, "intertwine", 0)
    pair = make_pair(inst["T1"], inst["T2"], inst["S"])
    expected = verify_lift(broken_lift(pair), pair, inst["probes"], n_max=3).checks[0]
    assert expected.name == forward.name
    assert forward.witness["trial"] == 0
    assert {k: forward.witness[k] for k in ("probe", "lhs", "rhs")} == expected.witness
    # without the certificate, nothing is read off
    assert "round trip: extracted map equals the lifted one" not in checks


@pytest.mark.parametrize("kind", ALL_SUITES)
def test_the_suite_checks_the_instances_generate_instance_makes(kind, monkeypatch):
    c = CONSTRUCTIONS[kind]
    check, seen = c.check, []

    def recording(inst, bounds):
        seen.append((inst, bounds))
        return check(inst, bounds)

    monkeypatch.setattr(c, "check", recording)
    config = SuiteConfig(seed=1, trials=3, dim_max=3, n_max=6, m_max=4, suites=(kind,))
    assert run_suites(config)[0].passed
    for t, (inst, bounds) in enumerate(seen[:3]):  # finish may check more
        fresh = generate_instance(config, kind, t)
        assert fresh == inst
        assert all(rep.passed for rep in check(fresh, bounds))


def test_a_failing_witness_replays_from_its_kind_and_counter(monkeypatch):
    # faults that spare some instances, so that a witness may name a later trial
    def shifted_build(T, N):  # U of T + I: P U I x = T x + x
        shifted = ndilation_build(T + Mat.identity(T.rows), N)
        return replace(shifted, T=T) if N > 1 else ndilation_build(T, N)

    def broken_lift(pair):  # S applied to the origin coordinate only
        proj = Compose((Componentwise(pair.S), CoordProj0(pair.T2.rows, Domain.UNINAT)))
        return proj if pair.T1 != pair.T2 else lift_intertwiner(pair)

    monkeypatch.setattr(harness, "ndilation_build", shifted_build)
    monkeypatch.setattr(harness, "lift_intertwiner", broken_lift)
    config = SuiteConfig(seed=5, trials=6, dim_max=3, n_max=4, suites=("ndilation", "intertwine"))
    bounds = harness.Bounds(n_max=config.n_max, m_max=config.m_max)
    witnesses = [(c.name, c.witness) for rep in run_suites(config) for c in rep.failed_checks()]
    assert {name for name, _ in witnesses} >= {
        "compression T^k = P U^k I for all k <= N on probes",
        "forward shifts intertwine: U1 R = R U2",
    }
    assert all(witness["trial"] > 0 for _, witness in witnesses)
    for name, witness in witnesses:
        kind, counter = witness["instance"]["kind"], witness["instance"]["counter"]
        inst = generate_instance(config, kind, counter)
        checks = [c for rep in CONSTRUCTIONS[kind].check(inst, bounds) for c in rep.checks]
        again = next(c for c in checks if c.name == name)
        instance = harness._instance_json(kind, counter, inst)
        assert witness == {"trial": counter, "instance": instance, **again.witness}


def test_a_failing_check_folds_the_instance_it_failed_on(monkeypatch):
    monkeypatch.setattr(harness, "inverse_holds", lambda U, U_inv: False)
    config = SuiteConfig(seed=5, trials=3, dim_max=3, suites=("halmos",))
    rep = run_suites(config)[0]
    failed = rep.failed_checks()
    assert [c.name for c in failed] == ["closed-form inverse: U * U_inv = U_inv * U = I"]
    inst = generate_instance(config, "halmos", 0)
    assert failed[0].witness == {
        "trial": 0,
        "instance": harness._instance_json("halmos", 0, inst),
        "U": mat_to_json(halmos_build(inst["T"]).U),
    }


def test_a_suite_whose_builder_raises_names_the_trial_and_its_instance(monkeypatch):
    built = []

    def fails_on_the_second_trial(T):
        built.append(T)
        if len(built) == 2:
            raise ZeroDivisionError("injected")
        return standard_build(T)

    monkeypatch.setattr(harness, "standard_build", fails_on_the_second_trial)
    config = SuiteConfig(seed=2, trials=3, dim_max=2, suites=("standard",))
    with pytest.raises(harness.SuiteError) as exc:
        run_suites(config)
    assert str(exc.value) == (
        "suite 'standard' trial 1 raised ZeroDivisionError: injected; "
        'instance {"kind":"standard","counter":1,"T":[[-1,-1],["5/2",3]]}'
    )
    assert isinstance(exc.value.__cause__, ZeroDivisionError)
    # the instance is JSON, so its kind and counter replay the trial
    instance = json.loads(str(exc.value).split("; instance ", 1)[1])
    inst = generate_instance(config, instance["kind"], instance["counter"])
    assert instance == harness._instance_json("standard", 1, inst)


def test_passing_suites_build_no_provenance_and_serialise_no_matrix(monkeypatch):
    calls = {"_instance_json": 0, "mat_to_json": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(harness, "_instance_json", counting("_instance_json", harness._instance_json))
    for module in (harness, finite, wold):
        monkeypatch.setattr(module, "mat_to_json", counting("mat_to_json", module.mat_to_json))
    reports = run_suites(SMALL)
    assert all(r.passed for r in reports)
    assert calls == {"_instance_json": 0, "mat_to_json": 0}
    # the report's data is built when it is written out
    text = CONSTRUCTIONS["halmos"].check({"T": Mat([[2]])}, None)[0].to_json()
    assert json.loads(text)["data"] == {"U": [[2, 1], [1, 0]], "U_inv": [[0, 1], [1, -2]]}
    assert calls["mat_to_json"] == 2
