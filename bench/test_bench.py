"""Self-tests of the benchmark harness.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_bench.py
"""

import functools
import hashlib
import json
import os
import sys

import pytest

import run
import speed
import tracing
import workloads

sys.path.insert(0, run.SRC)

BENCHMARK = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")

TINY = {
    "corpus": functools.partial(workloads.corpus, N=3,
                                quotas={(2, True): 1, (3, False): 1}),
    "l3-sum": functools.partial(workloads.l3_sum, copies=(1, 1), N=3),
    "cli-mix": functools.partial(workloads.cli_mix, abelian_dim=4,
                                 quotas={(3, False): 2}),
}


def _declared(kind):
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def _result(capsys, argv):
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _reference(problem):
    _, data = problem.finish(problem.run())
    return {problem.name: hashlib.sha256(data).hexdigest()}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Tiny workloads, with reference digests made on the spot."""
    monkeypatch.setattr(run, "WARMUP_S", 0.0)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    for name, builder in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, builder)

    def load_reference(workload):
        _, problems = run.set_up(workload, 3, str(tmp_path))
        reference = {}
        for problem in problems:
            reference.update(_reference(problem))
        return reference

    monkeypatch.setattr(run, "load_reference", load_reference)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_declared_metric(tiny, capsys, workload, trace,
                                               kind):
    out = _result(capsys, ["--workload", workload, "--seed", "3",
                           "--seconds", "0", "--trace", str(trace)])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    units = {name: m["unit"] for name, m in out["metrics"].items()}
    assert units == _declared(kind)


def test_declared_per_layer_metrics_match_tracer():
    assert _declared("per_layer") == dict(tracing.metric_names()
                                          + run.TRACE_METRICS)


@pytest.mark.parametrize("workload, seed", [
    ("corpus", 0), ("l3-sum", 0), ("cli-mix", 0),
    ("cli-mix", 2 * run.REFERENCE_SEEDS - 1)])
def test_every_problem_matches_reference(monkeypatch, capsys, workload, seed):
    monkeypatch.setattr(run, "WARMUP_S", 0.0)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    out = _result(capsys, ["--workload", workload, "--seed", str(seed),
                           "--seconds", "0"])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1


def _one_problem(tmp_path):
    lib = run.import_library()
    return workloads.cli_mix(lib, 0, str(tmp_path), abelian_dim=4,
                             quotas={(3, False): 1})[0]


def test_corrupted_report_byte_is_a_failure(tmp_path):
    problem = _one_problem(tmp_path)
    reference = _reference(problem)
    clean = run.Checker(reference)
    run.attempt(problem, clean)
    assert (clean.attempted, clean.failed) == (1, 0)
    finish = problem.finish

    def corrupt(outcome):
        code, data = finish(outcome)
        return code, bytes([data[0] ^ 1]) + data[1:]

    problem.finish = corrupt
    corrupted = run.Checker(reference)
    run.attempt(problem, corrupted)
    assert (corrupted.attempted, corrupted.failed) == (1, 1)


def test_problem_without_reference_is_a_failure(tmp_path):
    problem = _one_problem(tmp_path)
    checker = run.Checker({})
    run.attempt(problem, checker)
    assert (checker.attempted, checker.failed) == (1, 1)


def test_wrong_expected_exit_code_is_a_failure(tmp_path):
    problem = _one_problem(tmp_path)
    reference = _reference(problem)
    problem.expected = 1
    checker = run.Checker(reference)
    run.attempt(problem, checker)
    assert (checker.attempted, checker.failed) == (1, 1)


def test_raising_problem_is_a_failure(tmp_path):
    problem = _one_problem(tmp_path)

    def boom():
        raise ValueError("boom")

    problem.run = boom
    checker = run.Checker({})
    run.attempt(problem, checker)
    assert (checker.attempted, checker.failed) == (1, 1)


def test_tracer_restores_library(tmp_path):
    lib = run.import_library()
    before = {name: getattr(getattr(lib, name.split(".")[0]),
                            name.split(".")[1]) for name in tracing.SPANS}
    apply_basis = lib.graded.GradedMap.apply_basis
    tracer = tracing.Tracer()
    tracer.install(vars(lib))
    assert lib.transfer.perturbation_lemma is not before[
        "perturbation.perturbation_lemma"]
    tracer.uninstall()
    after = {name: getattr(getattr(lib, name.split(".")[0]),
                           name.split(".")[1]) for name in tracing.SPANS}
    assert after == before
    assert lib.graded.GradedMap.apply_basis is apply_basis
    assert lib.transfer.perturbation_lemma is before[
        "perturbation.perturbation_lemma"]


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [["transfer.transfer", 0.0, 10.0, -1],
                    ["dgla.cup_bracket", 1.0, 4.0, 0],
                    ["dgla.cup_bracket", 5.0, 6.0, 0]]
    values = tracer.metrics()
    assert values["transfer.transfer.s"] == 10.0
    assert values["transfer.transfer.self_s"] == 6.0
    assert values["dgla.cup_bracket.s"] == 4.0
    assert values["dgla.cup_bracket.calls"] == 2


def test_scaled_time_leaves_out_the_yardstick_and_applies_its_speed():
    meter = speed.Speedometer()
    meter.samples, meter.spent = [0.001, 0.003], 0.004
    mark = meter.mark()
    meter.samples.append(0.005)
    meter.spent += 0.005
    # 0.105 s of wall less 0.005 s of yardstick, at the speed of the
    # samples 0.003 and 0.005 (mean 0.004 against the reference 0.002)
    wall, scaled = meter.measured(mark, 0.105)
    assert wall == pytest.approx(0.1)
    assert scaled == pytest.approx(0.1 * speed.YARDSTICK_REF_S / 0.004)
