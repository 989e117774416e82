"""Tests of the benchmark itself: seeding, accounting and tracing.

    python3 -m pytest -q perfbench/selftest.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import accounting  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from accounting import Outcome, account  # noqa: E402


def _dump(jobs) -> str:
    return json.dumps([(j.name, j.command, j.config, j.args, j.ops, j.meta)
                       for j in jobs], sort_keys=True)


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_one_seed_gives_identical_configs(workload):
    make = inputs.WORKLOADS[workload]
    assert _dump(make(7)) == _dump(make(7))


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_different_seeds_give_different_configs(workload):
    make = inputs.WORKLOADS[workload]
    dumps = {_dump(make(seed)) for seed in range(5)}
    assert len(dumps) == 5


def test_every_workload_keeps_its_mix_across_seeds():
    for make in inputs.WORKLOADS.values():
        shapes = {tuple((j.command, j.args, j.ops) for j in make(seed))
                  for seed in range(5)}
        assert len(shapes) == 1


# ------------------------------------------------------------ accounting

def _branch(choices, predicted, observed, failure=None, points=None):
    if points is None:
        points = [{"alpha": 0.0, "residual_norm": 1e-13,
                   "min_component": 0.0 if observed == "persists" else -1e-3,
                   "max_real_eig": -0.1, "stability": "stable"}]
    return {"choices": choices, "predicted": predicted, "observed": observed,
            "exit_alpha": 1e-5 if observed == "vanishes" else None,
            "failure": failure, "points": points}


def test_crashed_job_fails_every_operation():
    out = Outcome(command="continue", ops=27, seconds=0.3, exit_code=None,
                  report=None, error="Traceback ...\nInadmissibleStateError: "
                                     "standard incidence undefined at N = 0\n")
    t = account(out, {})
    assert (t.attempted, t.answered, t.failed, t.wrong) == (27, 0, 27, 0)
    assert "InadmissibleStateError" in t.reasons[0]


@pytest.mark.parametrize("code", [1, 2, -9])
def test_exit_codes_other_than_success_fail_the_job(code):
    out = Outcome(command="analyze", ops=1, seconds=0.1, exit_code=code,
                  report=None)
    assert account(out, {}).failed == 1


def test_partial_report_after_numerical_failure_fails_the_job():
    out = Outcome(command="simulate", ops=4, seconds=0.1, exit_code=3,
                  report={"command": "simulate", "error": "boom"})
    assert account(out, {}).failed == 4


def test_stalled_branch_fails_although_it_says_persists():
    report = {"branches": [
        _branch([0, 1], "persists", "persists",
                failure="Newton stalled at alpha = 0.001, residual 1e-6"),
        _branch([1, 1], "persists", "persists"),
        _branch([1, 0], "persists", "vanishes"),
        _branch([2, 0], "indeterminate", "persists"),
    ], "mismatches": 0}
    out = Outcome(command="continue", ops=4, seconds=1.0, exit_code=3,
                  report=report)
    t = account(out, {})
    assert (t.attempted, t.answered, t.failed, t.wrong) == (4, 3, 1, 0)
    # the stalled branch is not counted as agreeing: 1 mismatch of 2
    assert (t.mismatched, t.determinate) == (1, 2)


def test_branch_breaking_an_invariant_is_wrong():
    bad = _branch([1, 0], "vanishes", "persists")
    bad["points"][0]["min_component"] = -1e-3
    out = Outcome(command="continue", ops=1, seconds=1.0, exit_code=0,
                  report={"branches": [bad]})
    t = account(out, {})
    assert (t.failed, t.wrong) == (1, 1)


def _traj(label, alpha, cls, min_comp=0.0, failure=None):
    return {"label": label, "alpha": alpha, "terminal_classification": cls,
            "min_component_overall": min_comp, "steps": 10,
            "failure": failure}


def test_trajectory_checks():
    ref = {"labels": {accounting.label_key("sys", "a", 0.0): "pattern_1-0",
                      accounting.label_key("sys", "b", 0.0): "pattern_0-0"}}
    report = {"trajectories": [
        _traj("a", 0.0, "pattern_1-0"),
        _traj("b", 0.0, "pattern_1-1"),                 # deviates
        _traj("c", 0.0, "unresolved"),                  # no reference
        _traj("d", 0.0, "pattern_1-0", min_comp=-1e-6),  # left the cone
        _traj("e", 0.0, None, failure="step size underflow"),
    ]}
    out = Outcome(command="simulate", ops=5, seconds=2.0, exit_code=3,
                  report=report, meta={"system": "sys"})
    t = account(out, ref)
    assert (t.answered, t.failed, t.wrong, t.unresolved) == (2, 3, 2, 1)


def test_census_deviation_is_wrong():
    rows = [{"choices": [0, 0], "verdict": "persists"},
            {"choices": [1, 0], "verdict": "vanishes"}]
    report = {"patterns": rows, "persisting_count": 1}
    meta = {"family": "hiv", "classes": ["a", "b"], "net": 0}
    ref = {"verdicts": {"hiv:a,b": ["1"]}}
    out = Outcome(command="census", ops=1, seconds=0.1, exit_code=0,
                  report=report, meta=meta)
    assert account(out, ref).answered == 1
    ref = {"verdicts": {"hiv:a,b": ["3"]}}
    assert account(out, ref).wrong == 1


def test_analyze_tolerance():
    meta = {"family": "hiv", "ids": [0], "beta1": [0.85]}
    want = {"R": 0.95, "regime": "backward_window", "endemic_count": 2,
            "endemic_lambdas": [0.01, 0.05], "R_c_estimate": 0.92}
    ref = {"patches": {"hiv:0.85": want}}
    patch = {"R": 0.95 * (1 + 1e-9), "regime": "backward_window",
             "endemic": [{}, {}], "endemic_lambdas": [0.01, 0.05],
             "R_c_estimate": 0.92}
    out = Outcome(command="analyze", ops=1, seconds=1.0, exit_code=0,
                  report={"patches": [patch]}, meta=meta)
    assert account(out, ref).answered == 1
    patch["R_c_estimate"] = 0.921
    assert account(out, ref).wrong == 1


def test_per_answer_with_zero_answers():
    out = Outcome(command="continue", ops=3, seconds=0.5, exit_code=None,
                  report=None, error="Traceback\nValueError: x\n")
    tallies = [account(out, {})]
    stats = accounting.per_answer([out], tallies, {"continue"})
    assert stats["value"] is None and stats["samples"] == 0
    assert stats["seconds"] == 0.5
    with pytest.raises(run.BenchError):
        run.end_to_end("branches", [[out]], tallies, [1.0], accounting)


def test_per_answer_counts_time_of_failed_jobs():
    crash = Outcome(command="continue", ops=3, seconds=0.5, exit_code=None,
                    report=None, error="Traceback\nValueError: x\n")
    good = Outcome(command="continue", ops=1, seconds=1.5, exit_code=0,
                   report={"branches": [_branch([1], "persists",
                                                "persists")]})
    outs = [crash, good]
    stats = accounting.per_answer(outs, [account(o, {}) for o in outs],
                                  {"continue"})
    assert stats["value"] == pytest.approx(2.0)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert accounting.tail_percentile(10) is None
    assert accounting.tail_percentile(20) == 50
    assert accounting.tail_percentile(100) == 90


# --------------------------------------------------------------- tracing

def test_tracer_sees_cross_module_and_internal_lookups():
    patchepi = run.import_program()
    from patchepi import equilibria, model, network, persist
    from tracing import Tracer

    original = persist.classify_pattern
    params = model.HivParams(**{**inputs.HIV_BASE, "beta1": 1.0})
    mods = [model.hiv_vaccination(params)] * 3
    net = network.preset("fig3b", n=4, m=2, k=1)
    tracer = Tracer()
    tracer.install(patchepi)
    try:
        eqs = [equilibria.patch_equilibria(m) for m in mods]
        persist.predict(equilibria.EquilibriumPattern((1, 0, 0)), mods, net,
                        equilibria=eqs)
    finally:
        tracer.uninstall()
    assert persist.classify_pattern is original
    summ = tracer.summary()
    # looked up through persist's own namespace
    assert summ["network.classify_pattern"]["calls"] == 1
    # looked up inside equilibria through its module globals
    assert summ["equilibria.hiv_lambda_roots"]["calls"] == 3
    rec = summ["equilibria.patch_equilibria"]
    assert rec["calls"] == 3 and 0 < rec["self_s"] < rec["total_s"]


def test_relabeling_reaches_every_digraph():
    reached = {inputs.relabel(base, perm)
               for base in inputs.DIGRAPH_CLASSES
               for perm in inputs.PERMUTATIONS}
    assert reached == set(range(inputs.N_DIGRAPHS))
    # relabeling keeps the edge count
    for base in inputs.DIGRAPH_CLASSES:
        for perm in inputs.PERMUTATIONS:
            assert (bin(inputs.relabel(base, perm)).count("1")
                    == bin(base).count("1"))


def test_benchmark_json_names_every_printed_metric():
    from tracing import Tracer
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    layer = run.per_layer(Tracer(), 0, 1.0, 1.0)
    assert [m["name"] for m in bench["per_layer"]] == list(layer)
    assert all(m["unit"] == layer[m["name"]][1] for m in bench["per_layer"])
    good = Outcome(command="continue", ops=1, seconds=1.5, exit_code=0,
                   report={"branches": [_branch([1], "persists",
                                                "persists")]})
    gated, _, _ = run.end_to_end("branches", [[good]],
                                 [account(good, {})], [1.0], accounting)
    assert ({m["name"]: m["unit"] for m in bench["end_to_end"]}
            == {name: unit for name, (_, unit) in gated.items()})


def test_tracer_reinstall_reuses_its_wrappers():
    patchepi = run.import_program()
    from patchepi import matalg
    from tracing import Tracer
    import numpy as np

    tracer = Tracer()
    for _ in range(2):
        tracer.install(patchepi)
        try:
            matalg.spectral_radius(np.eye(2))
        finally:
            tracer.uninstall()
    assert len(tracer.names) == len(set(tracer.names))
    assert tracer.summary()["matalg.spectral_radius"]["calls"] == 2
