#!/usr/bin/env python3
"""Speed benchmark of the serving simulator: five workloads, end-to-end
speed, set-up time and memory, plus per-layer self times from a traced run.

Usage (from the repository root)::

    python3 benchmarks/simulator/run.py                 # a full set, seed 0
    python3 benchmarks/simulator/run.py --workload chat-prefix --seed 1
    python3 benchmarks/simulator/run.py --workload decode-long \
        --seed 3 --seconds 22 --trace 0     # end-to-end metrics only
    python3 benchmarks/simulator/run.py --update-digests --seed 0

Every run is a fresh ``worker.py`` process with one thread.  ``--seed S``
names :data:`INPUTS` inputs: the ``i``-th untraced (or traced) run serves
input seed ``S * INPUTS + i % INPUTS``.  ``--trace 0`` runs at least
``--repeats`` untraced runs and stops at the end of the run nearest to
``--seconds``; it reports the medians of ``sim_req_per_s``, ``setup_s`` and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced runs of each
input and reports the per-layer metrics.  Without ``--trace`` a set runs
``--repeats`` untraced runs and one traced run of each workload and reports
both.  Times are reference seconds: wall seconds corrected for how fast the
shared host ran during the run (``hostspeed.HostSpeed``).

Each run's result is hashed with the exact encoders of
``tools/serving_fingerprint.py`` and compared with the digest
``digests.json`` records for its input seed (or, for an unrecorded input,
with the first run of that input).  A run whose digest differs counts all of
its requests as failed; otherwise a request fails when it ends neither
finished nor shed by tier admission.  The last line of output is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.  The exit code
is 1 when anything failed, 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from layers import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DIGESTS_PATH = HERE / "digests.json"

#: Not part of any set and not gated: the 100k-request chunked-preempt
#: trace, tracked as a trajectory of the simulator's large-study speed.
TRAJECTORY = ("trajectory-chunked-100k",)

#: A single run of a set workload finishes in seconds; a hung one is killed.
WORKER_TIMEOUT_S = 150

#: Distinct inputs one ``--seed`` names, more than one measurement runs.
#: How fast the simulator runs a trace depends on the trace (burst pattern,
#: eviction and preemption counts) by 1.5-4.3% from input to input, while
#: repeating one input varies by under 1% in reference seconds, so every
#: run serves a new input.  Different seeds never share an input.
INPUTS = 12

Metrics = Dict[str, Tuple[float, str]]


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result (no verdict on the code)."""


def workload_names() -> List[str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def run_worker(name: str, seed: int, traced: bool,
               scale: float = 1.0) -> Dict:
    """One run in a fresh single-threaded interpreter; returns its record."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               NUMEXPR_NUM_THREADS="1")
    args = json.dumps({"workload": name, "seed": seed, "traced": traced,
                       "scale": scale})
    timeout = None if name in TRAJECTORY else WORKER_TIMEOUT_S
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), args],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{name} seed {seed}: run exceeded "
                             f"{timeout} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"{name} seed {seed}: worker failed\n"
                             + proc.stderr[-2000:])
    record = json.loads(proc.stdout.splitlines()[-1])
    if traced and record["wrappers_left"]:
        raise BenchmarkError(f"{name}: tracer left wrappers installed: "
                             f"{record['wrappers_left']}")
    return record


def collect(name: str, seed: int, seconds: float, trace: Optional[int],
            repeats: int, scale: float = 1.0) -> List[Dict]:
    """Run ``name`` until the pattern's minimum is met, then stop at the
    end of the pattern cycle nearest to ``seconds``.  Untraced and traced
    runs each cycle through ``seed``'s :data:`INPUTS` inputs, so a traced
    run always has an untraced run of the same input."""
    if trace == 0:
        pattern, minimum = (False,), max(repeats, 1)
    elif trace == 1:
        pattern, minimum = (False, True), 2
    else:
        pattern = (False,) * repeats + (True,)
        minimum = len(pattern)
    runs: List[Dict] = []
    start = time.perf_counter()
    while True:
        if len(runs) >= minimum and len(runs) % len(pattern) == 0:
            elapsed = time.perf_counter() - start
            cycle = elapsed * len(pattern) / len(runs)
            if elapsed + cycle / 2 >= seconds:
                break
        traced = pattern[len(runs) % len(pattern)]
        index = sum(r["traced"] == traced for r in runs) % INPUTS
        runs.append(run_worker(name, seed * INPUTS + index, traced, scale))
    return runs


def account(runs: List[Dict], recorded: Dict[str, str]
            ) -> Tuple[int, int, str]:
    """``(attempted, failed, digest status)`` over all runs.

    ``recorded`` maps input seed -> digest.  A run's reference digest is
    its input's recorded one, or for an unrecorded input the first run of
    that input; a run that differs from it counts every request failed.
    """
    attempted = failed = 0
    first: Dict[str, str] = {}
    mismatch = unrecorded = False
    for run in runs:
        c = run["counts"]
        attempted += c["requests"]
        key = str(run["seed"])
        reference = recorded.get(key)
        if reference is None:
            unrecorded = True
            reference = first.setdefault(key, run["digest"])
        if run["digest"] != reference:
            mismatch = True
            failed += c["requests"]
        else:
            failed += c["requests"] - c["finished"] - c["dropped"]
    status = ("MISMATCH" if mismatch
              else "unrecorded" if unrecorded else "match")
    return attempted, failed, status


def end_to_end(untraced: List[Dict]) -> Dict[str, Dict]:
    """Median, min and max of each end-to-end metric over untraced runs."""
    series = {
        "sim_req_per_s": ([r["counts"]["requests"] / r["wall_s"]
                           for r in untraced], "req/s"),
        "setup_s": ([r["setup_s"] for r in untraced], "s"),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in untraced], "MB"),
    }
    return {name: {"value": median(values), "unit": unit,
                   "min": min(values), "max": max(values), "n": len(values)}
            for name, (values, unit) in series.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(untraced: List[Dict], traced: List[Dict]) -> Metrics:
    """Per-layer metrics: median self times over the traced runs; counts
    and ratios from the first traced run, which serves the seed's first
    input (they repeat exactly).

    Self times are wall seconds that include the host-speed probes, which
    fire evenly over wall time; scaling each by the run's reference ÷ wall
    seconds takes the probes out and converts to reference seconds."""
    def reference(r: Dict, wall_s: float) -> float:
        return wall_s * r["wall_s"] / r["serve_wall_s"]

    m: Metrics = {}
    for layer in LAYERS:
        m[f"{layer}_s"] = (median([reference(r, r["self_s"].get(layer, 0.0))
                                   for r in traced]), "s")
    calls = traced[0]["calls"]
    c = traced[0]["counts"]
    probes = calls.get("kv_cache_manager.needs_pages", 0)
    claims = calls.get("kv_cache_manager.allocate", 0)
    admit_calls = calls.get("scheduler.admit", 0)
    step_calls = calls.get("engine.step_self", 0)
    # Each traced run against the untraced runs of its own input.
    overhead = median([
        r["wall_s"] / median([u["wall_s"] for u in untraced
                              if u["seed"] == r["seed"]])
        for r in traced])
    m.update({
        "scheduler.admit_calls": (admit_calls, "count"),
        "scheduler.scanned_per_admitted": (
            _ratio(c["scanned"], c["admissions"]), "ratio"),
        "scheduler.fast_skip_ratio": (
            _ratio(c["fast_skips"], admit_calls), "ratio"),
        "scheduler.preemptions": (c["preemptions"], "count"),
        "scheduler.recomputed_prefill_tokens": (
            c["recomputed_prefill_tokens"], "count"),
        "kv_cache_manager.needs_pages_calls": (probes, "count"),
        "kv_cache_manager.allocate_calls": (claims, "count"),
        "kv_cache_manager.claim_ratio": (_ratio(claims, probes), "ratio"),
        "engine.price_calls": (calls.get("engine.price", 0), "count"),
        "engine.step_calls": (step_calls, "count"),
        "engine.iterations": (c["iterations"], "count"),
        "engine.useful_step_ratio": (
            _ratio(c["iterations"], step_calls), "ratio"),
        "cost_cache.hit_ratio": (c["cost_cache_hit_ratio"], "ratio"),
        "prefix_cache.evict_calls": (
            calls.get("prefix_cache.evict", 0), "count"),
        "prefix_cache.evicted_pages": (c["prefix_evicted_pages"], "count"),
        "prefix_cache.hit_ratio": (c["prefix_hit_ratio"], "ratio"),
        "prefix_cache.peak_cached_pages": (
            c["prefix_peak_cached_pages"], "count"),
        "cluster.route_calls": (calls.get("cluster.route", 0), "count"),
        "cluster.run_until_calls": (calls.get("cluster.run_until", 0),
                                    "count"),
        "cluster.migrations": (c["migrations"], "count"),
        "autoscaler.decide_calls": (calls.get("autoscaler.decide", 0),
                                    "count"),
        "autoscaler.scale_events": (c["scale_events"], "count"),
        "trace.untimed_s": (median([reference(r, r["untimed_s"])
                                    for r in traced]), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    return m


def load_digests() -> Dict[str, Dict[str, str]]:
    if not DIGESTS_PATH.exists():
        return {}
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def benchmark(name: str, seed: int, seconds: float, trace: Optional[int],
              repeats: int, recorded: Dict[str, str],
              scale: float = 1.0) -> Dict:
    """Measure one workload; returns its report (metrics, accounting)."""
    runs = collect(name, seed, seconds, trace, repeats, scale)
    untraced = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    attempted, failed, status = account(runs, recorded)
    digests: Dict[str, str] = {}
    for run in runs:
        digests.setdefault(str(run["seed"]), run["digest"])
    report = {"workload": name, "seed": seed, "attempted": attempted,
              "failed": failed, "digests": digests,
              "digest_status": status, "end_to_end": {}, "per_layer": {}}
    if trace != 1:
        report["end_to_end"] = end_to_end(untraced)
    if trace != 0:
        report["per_layer"] = {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in per_layer(untraced, traced).items()}
    report["runs"] = {"untraced": len(untraced), "traced": len(traced)}
    return report


def print_report(report: Dict) -> None:
    name = report["workload"]
    runs = report["runs"]
    print(f"{name} runs untraced={runs['untraced']} traced={runs['traced']} "
          f"seed={report['seed']}")
    for metric, s in report["end_to_end"].items():
        print(f"{name} {metric} {s['value']:.6g} {s['unit']} "
              f"(median of n={s['n']}, min {s['min']:.6g}, "
              f"max {s['max']:.6g})")
    for metric, s in report["per_layer"].items():
        print(f"{name} {metric} {s['value']:.6g} {s['unit']}")
    ok = report["attempted"] - report["failed"]
    print(f"{name} requests sent={report['attempted']} ok={ok} "
          f"failed={report['failed']}")
    print(f"{name} digest: {report['digest_status']}")


def write_json(path: Path, reports: List[Dict]) -> None:
    """Merge the reports into ``path``: set workloads under "workloads",
    the trajectory run under "trajectory"."""
    payload = {"workloads": {}, "trajectory": {}}
    if path.exists():
        with open(path) as fh:
            payload.update(json.load(fh))
    for report in reports:
        key = "trajectory" if report["workload"] in TRAJECTORY else "workloads"
        payload[key][report["workload"]] = report
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep repeating runs for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only; 1: per-layer only; "
                             "default: both")
    parser.add_argument("--repeats", type=int, default=None,
                        help=f"minimum untraced runs per workload (default: "
                             f"3; {INPUTS}, one per input, with "
                             f"--update-digests)")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="merge the full reports into PATH")
    parser.add_argument("--update-digests", action="store_true",
                        help="record the digests of the inputs run in "
                             "digests.json")
    args = parser.parse_args(argv)
    repeats = args.repeats or (INPUTS if args.update_digests else 3)

    if not (ROOT / "src" / "repro" / "serving").is_dir():
        print(f"no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    known = workload_names()
    names = args.workload or known
    for name in names:
        if name not in known and name not in TRAJECTORY:
            parser.error(f"unknown workload {name!r}; choose from "
                         f"{', '.join(known + list(TRAJECTORY))}")
    digests = load_digests()
    reports = []
    try:
        for name in names:
            recorded = {} if args.update_digests else digests.get(name, {})
            report = benchmark(name, args.seed, args.seconds, args.trace,
                               repeats, recorded)
            print_report(report)
            reports.append(report)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    if args.update_digests:
        for report in reports:
            if report["digest_status"] == "MISMATCH":
                print(f"{report['workload']}: runs disagree; digests not "
                      f"updated", file=sys.stderr)
                return 1
            digests.setdefault(report["workload"], {}).update(
                report["digests"])
        with open(DIGESTS_PATH, "w") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.json is not None:
        write_json(args.json, reports)

    metrics = {}
    for report in reports:
        prefix = "" if len(reports) == 1 else f"{report['workload']}/"
        for group in ("end_to_end", "per_layer"):
            for metric, s in report[group].items():
                metrics[prefix + metric] = {"value": s["value"],
                                            "unit": s["unit"]}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
