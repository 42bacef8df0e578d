"""Tier-1 checks of the simulator benchmark, at tiny workload sizes."""

import json
import re
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run as simbench  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from layers import LayerTracer  # noqa: E402

SCALE = 0.02
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    with open(HERE.parents[1] / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def tiny_runs():
    """One untraced and one traced run of every workload, seed 0."""
    names = simbench.workload_names()
    # Runs are separate processes; two at a time keeps the test under 5 s.
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = pool.map(
            lambda name: simbench.collect(name, 0, 0.0, None, 1, SCALE), names)
        return dict(zip(names, runs))


def test_traced_digest_equals_untraced(tiny_runs):
    for name, runs in tiny_runs.items():
        untraced, traced = runs
        assert not untraced["traced"] and traced["traced"]
        assert traced["digest"] == untraced["digest"], name
        assert traced["seed"] == untraced["seed"] == 0
        assert simbench.account(runs, {}) == (
            2 * untraced["counts"]["requests"], 0, "unrecorded")


def test_self_times_and_untimed_sum_to_traced_wall(tiny_runs):
    for name, (_, traced) in tiny_runs.items():
        total = sum(traced["self_s"].values()) + traced["untimed_s"]
        assert total == pytest.approx(traced["serve_wall_s"], rel=0.01), name
        assert all(v >= 0 for v in traced["self_s"].values()), name


def test_wrappers_removed_after_traced_pass(tiny_runs):
    for _, traced in tiny_runs.values():
        assert traced["wrappers_left"] == []
    # In-process: every wrapped attribute is the original object again.
    import repro.serving.scheduler as scheduler
    import repro.serving.metrics as metrics
    before = (vars(scheduler.ContinuousBatchingScheduler)["admit"],
              vars(metrics.ServingMetrics)["from_requests"])
    tracer = LayerTracer()
    tracer.install()
    try:
        wrapped = set(tracer.installed_wrappers())
    finally:
        tracer.uninstall()
    # Every declared target holds a wrapper while installed.
    assert wrapped == {f"{cls}.{method}"
                       for _, cls, method in layers._targets()}
    assert LayerTracer.installed_wrappers() == []
    after = (vars(scheduler.ContinuousBatchingScheduler)["admit"],
             vars(metrics.ServingMetrics)["from_requests"])
    assert all(a is b for a, b in zip(before, after))


def test_runs_cycle_through_the_seeds_inputs(monkeypatch):
    monkeypatch.setattr(simbench, "run_worker",
                        lambda name, seed, traced, scale: {"seed": seed,
                                                           "traced": traced})
    k = simbench.INPUTS
    runs = simbench.collect("decode-long", 3, 0.0, 0, k + 1)
    assert [r["seed"] for r in runs] == [3 * k + i for i in range(k)] + [3 * k]
    runs = simbench.collect("decode-long", 3, 0.0, 1, 0)
    assert [(r["seed"], r["traced"]) for r in runs] == [
        (3 * k, False), (3 * k, True)]


def test_host_speed_samples_a_window_and_stops():
    host = HostSpeed(time.perf_counter())
    host.start()
    try:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
        wall, reference = host.split()
    finally:
        host.stop()
    assert host.samples >= 10  # one per PROBE_INTERVAL_S of the window
    assert wall >= 0.1 and reference > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_missing_layer_target_raises_and_restores(monkeypatch):
    monkeypatch.setitem(layers.LAYERS, "scheduler.gone", [
        ("scheduler", "ContinuousBatchingScheduler", "no_such_method")])
    with pytest.raises(LookupError, match="no_such_method"):
        LayerTracer().install()
    assert LayerTracer.installed_wrappers() == []


def test_every_declared_metric_is_emitted_with_its_unit(tiny_runs):
    spec = _spec()
    declared = {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}
    for name, runs in tiny_runs.items():
        untraced = [r for r in runs if not r["traced"]]
        traced = [r for r in runs if r["traced"]]
        emitted = {k: s["unit"]
                   for k, s in simbench.end_to_end(untraced).items()}
        emitted.update({k: unit for k, (_, unit)
                        in simbench.per_layer(untraced, traced).items()})
        assert emitted == declared, name
    for metric, unit in declared.items():
        assert NAME.match(metric) and UNIT.match(unit), metric


def test_corrupted_digest_fails_every_request(tiny_runs):
    runs = tiny_runs["decode-long"]
    attempted, failed, status = simbench.account(runs, {"0": "0" * 64})
    assert failed == attempted > 0 and status == "MISMATCH"
    good = {"0": runs[0]["digest"]}
    assert simbench.account(runs, good) == (attempted, 0, "match")
