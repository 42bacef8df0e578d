#!/usr/bin/env python
"""Raw-speed benchmark of the serving simulator itself.

Every other benchmark in this directory measures the *simulated* system
(tokens/s on the modelled GPU); this one measures the *simulator* — how many
requests per wall-clock second the event loop chews through — across the
workload shapes that exercise its distinct hot paths:

* ``plain-decode``     — uniform batch decoding, legacy stall-prefill planner;
* ``chunked-preempt``  — Poisson lognormal traffic, chunked prefill with
  preemption (admission + page-pressure heavy);
* ``chunked-telemetry``— the same trace with lifecycle tracing on; the gap
  to ``chunked-preempt`` is the telemetry overhead (gated at <=10%);
* ``prefix-chat``      — multi-turn chat against the prefix cache
  (cache-aware admission ordering);
* ``cluster``          — 4 replicas behind the least-outstanding router on
  bursty heavy-tailed traffic;
* ``speculative``      — draft-and-verify decoding with adaptive lookahead;
* ``precision-fleet``  — heterogeneous FP16 + W4A8KV4 replicas behind the
  precision-aware router on two-tier mixed-precision traffic;
* ``autoscale-tiered`` — flash-crowd multi-tenant traffic on an autoscaled
  fleet with tier-aware admission (the production-traffic hot paths:
  fleet ticks, cold starts, drain migrations, tier sorting);
* ``multiplexed-fleet``— a skewed two-model mix on a shared fleet with
  weight swapping and warm-first routing (the multiplexing hot paths:
  per-replica stepper serialization, residency LRU, swap pricing).

For each scenario it reports simulated requests per wall-clock second and the
extrapolated wall-clock per 100k requests.  Modes size the workloads:
``--smoke`` (CI, a few seconds), the default (stable numbers), and ``--full``
(a genuine 100k-request chunked-prefill trace plus full-size satellites).

Regression tracking::

    PYTHONPATH=src python benchmarks/bench_simulator_throughput.py \
        --smoke --check                  # compare vs BENCH_simulator.json
    PYTHONPATH=src python benchmarks/bench_simulator_throughput.py \
        --smoke --update-baseline        # refresh the committed baseline

``--check`` fails (exit 1) when any scenario's requests/s falls more than
``--tolerance`` (default 25%) below the committed baseline for the same mode.
Improvements never fail.  ``--profile`` wraps the run in cProfile and prints
the top 25 functions by cumulative time.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_simulator.json"

#: Per-mode request counts:
#: (plain, chunked, chat_sessions, cluster, spec, precision, autoscale,
#: multiplex).
_SIZES = {
    "smoke": (200, 400, 30, 200, 100, 120, 150, 150),
    "default": (2000, 5000, 300, 2000, 1000, 1200, 1500, 1500),
    "full": (20000, 100000, 1200, 8000, 4000, 5000, 6000, 6000),
}


def _scenarios(mode: str) -> List[Tuple[str, int, Callable[[], object]]]:
    """Build the scenario list: ``(name, num_requests, run)`` triples.

    Workload construction happens inside each ``run`` so the benchmark
    charges the simulator for everything a fresh serving run pays.
    """
    from repro.gpu import A100
    from repro.model import get_config
    from repro.serving import (
        AutoscalerConfig,
        ClusterEngine,
        SCHEDULING_PRESETS,
        SYSTEM_PRESETS,
        ServingEngine,
        SpeculativeConfig,
        make_bursty_workload,
        make_chat_workload,
        make_flash_crowd_workload,
        make_lognormal_workload,
        make_mixed_precision_workload,
        make_uniform_workload,
    )

    llama7b = get_config("llama-2-7b")
    system = SYSTEM_PRESETS["qserve-w4a8kv4-chn"]
    (n_plain, n_chunked, n_sessions, n_cluster, n_spec,
     n_precision, n_autoscale, n_multiplex) = _SIZES[mode]

    def engine() -> ServingEngine:
        return ServingEngine(llama7b, A100, system, max_seq_len=4096)

    def plain_decode():
        wl = make_uniform_workload(n_plain, prompt_len=512, output_len=128,
                                   arrival_rate=80.0, seed=0)
        return engine().serve(wl, max_num_seqs=64)

    def chunked_preempt():
        wl = make_lognormal_workload(n_chunked, arrival_rate=40.0, seed=0)
        return engine().serve(
            wl, max_num_seqs=64,
            scheduling=SCHEDULING_PRESETS["chunked-preempt"])

    def chunked_telemetry():
        # Same trace as chunked-preempt with the tracing layer on: the gap
        # between the two scenarios is the telemetry overhead, gated at
        # <=10% in the regression baseline.
        wl = make_lognormal_workload(n_chunked, arrival_rate=40.0, seed=0)
        return engine().serve(
            wl, max_num_seqs=64,
            scheduling=SCHEDULING_PRESETS["chunked-preempt"],
            telemetry=True)

    def prefix_chat():
        wl = make_chat_workload(num_sessions=n_sessions, turns_per_session=6,
                                session_rate=2.0, seed=0)
        return engine().serve(wl, max_num_seqs=48,
                              scheduling=SCHEDULING_PRESETS["prefix-aware"])

    def cluster():
        wl = make_bursty_workload(n_cluster, burst_rate=24.0,
                                  lognormal_lengths=True, seed=1)
        c = ClusterEngine(llama7b, A100, system, num_replicas=4,
                          max_seq_len=4096)
        return c.serve(wl, router="least-outstanding", max_num_seqs=32,
                       scheduling=SCHEDULING_PRESETS["chunked-preempt"])

    def speculative():
        wl = make_lognormal_workload(n_spec, arrival_rate=30.0, seed=7)
        spec = SpeculativeConfig(draft_model=get_config("llama-160m"),
                                 profile="low-entropy", lookahead=4,
                                 adaptive=True, seed=11)
        return engine().serve(
            wl, max_num_seqs=32,
            scheduling=SCHEDULING_PRESETS["chunked-preempt"],
            speculative=spec)

    def precision_fleet():
        wl = make_mixed_precision_workload(n_precision, arrival_rate=12.0,
                                           seed=1)
        c = ClusterEngine(llama7b, A100, SYSTEM_PRESETS["trt-fp16"],
                          num_replicas=4, max_seq_len=4096,
                          systems=["trt-fp16", "trt-fp16",
                                   "qserve-w4a8kv4-chn",
                                   "qserve-w4a8kv4-chn"])
        return c.serve(wl, router="precision-aware", max_num_seqs=32,
                       scheduling=SCHEDULING_PRESETS["chunked"])

    def autoscale_tiered():
        # Arrival rates scale with the request count so larger modes stress
        # a longer trace, not a deeper backlog.
        scale = n_autoscale / 150.0
        wl = make_flash_crowd_workload(
            n_autoscale, base_rate=2.0 * scale,
            spikes=((5.0, 30.0 * scale, 6.0),),
            prompt_len=512, output_len=200, tenants=4, seed=7)
        c = ClusterEngine(llama7b, A100, system, num_replicas=4,
                          max_seq_len=2048)
        return c.serve(wl, router="least-outstanding", max_num_seqs=8,
                       scheduling=SCHEDULING_PRESETS["tiered"],
                       autoscaler=AutoscalerConfig(
                           min_replicas=1, max_replicas=4, interval_s=2.0,
                           scale_up_queue_depth=2.0, up_cooldown_s=2.0,
                           down_cooldown_s=4.0, scale_down_outstanding=6.0,
                           ttft_slo_s=0.5))

    def multiplexed_fleet():
        # Two-model 80/20 mix on a shared fleet with residency limit 1:
        # the multiplexing hot paths — per-replica stepper serialization,
        # residency LRU, swap pricing, warm-first routing.
        from repro.serving import MultiplexConfig, make_multi_model_workload
        scale = n_multiplex / 150.0
        wl = make_multi_model_workload(
            n_multiplex, models=("llama-2-7b", "llama-2-13b"),
            weights=(0.8, 0.2), arrival_rate=24.0 * scale,
            prompt_len=256, output_len=64, seed=11)
        c = ClusterEngine(llama7b, A100, SYSTEM_PRESETS["trt-fp16"],
                          num_replicas=4, max_seq_len=2048)
        return c.serve(wl, router="model-aware", max_num_seqs=16,
                       scheduling=SCHEDULING_PRESETS["chunked"],
                       multiplex=MultiplexConfig(
                           models=(llama7b, get_config("llama-2-13b")),
                           max_resident_models=1))

    return [
        ("plain-decode", n_plain, plain_decode),
        ("chunked-preempt", n_chunked, chunked_preempt),
        ("chunked-telemetry", n_chunked, chunked_telemetry),
        ("prefix-chat", n_sessions * 6, prefix_chat),
        ("cluster", n_cluster, cluster),
        ("speculative", n_spec, speculative),
        ("precision-fleet", n_precision, precision_fleet),
        ("autoscale-tiered", n_autoscale, autoscale_tiered),
        ("multiplexed-fleet", n_multiplex, multiplexed_fleet),
    ]


def run_benchmark(mode: str) -> Dict[str, Dict[str, float]]:
    results: Dict[str, Dict[str, float]] = {}
    for name, num_requests, run in _scenarios(mode):
        start = time.perf_counter()
        run()
        wall = time.perf_counter() - start
        results[name] = {
            "requests": num_requests,
            "wall_s": round(wall, 4),
            "requests_per_s": round(num_requests / wall, 2),
            "wall_per_100k_s": round(wall * 100_000 / num_requests, 2),
        }
        r = results[name]
        print(f"{name:16s} {num_requests:7d} req  {r['wall_s']:8.2f} s  "
              f"{r['requests_per_s']:9.1f} req/s  "
              f"({r['wall_per_100k_s']:8.1f} s per 100k)")
    return results


def check_against_baseline(results: Dict[str, Dict[str, float]], mode: str,
                           tolerance: float) -> int:
    """Compare ``results`` to the committed baseline; 0 = within tolerance."""
    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}; run --update-baseline first")
        return 1
    with open(BASELINE_PATH) as fh:
        baseline = json.load(fh)
    if mode not in baseline:
        print(f"baseline has no '{mode}' entry; run --update-baseline")
        return 1
    failures = 0
    print(f"\nvs. baseline ({mode} mode, tolerance {tolerance * 100:.0f}%):")
    for name, current in results.items():
        base = baseline[mode].get(name)
        if base is None:
            print(f"  {name:16s} NEW (no baseline entry)")
            continue
        ref = base["requests_per_s"]
        now = current["requests_per_s"]
        delta = (now - ref) / ref
        status = "ok"
        if delta < -tolerance:
            status = "REGRESSION"
            failures += 1
        print(f"  {name:16s} {ref:9.1f} -> {now:9.1f} req/s "
              f"({delta * 100:+6.1f}%)  {status}")
    if failures:
        print(f"{failures} scenario(s) regressed more than "
              f"{tolerance * 100:.0f}%")
        return 1
    print("all scenarios within tolerance")
    return 0


def update_baseline(results: Dict[str, Dict[str, float]], mode: str) -> None:
    baseline: Dict[str, Dict[str, Dict[str, float]]] = {}
    if BASELINE_PATH.exists():
        with open(BASELINE_PATH) as fh:
            baseline = json.load(fh)
    baseline[mode] = results
    with open(BASELINE_PATH, "w") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"updated {BASELINE_PATH} [{mode}]")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Wall-clock throughput of the serving simulator")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--smoke", action="store_true",
                       help="small CI-sized workloads")
    group.add_argument("--full", action="store_true",
                       help="100k-request chunked trace + full satellites")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed baseline")
    parser.add_argument("--update-baseline", action="store_true",
                        help="write current numbers into BENCH_simulator.json")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional req/s drop (default 0.25)")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile, print top 25 by cumulative")
    args = parser.parse_args()
    mode = "smoke" if args.smoke else "full" if args.full else "default"

    print(f"mode: {mode}")

    if args.profile:
        import cProfile
        import pstats
        profiler = cProfile.Profile()
        profiler.enable()
        results = run_benchmark(mode)
        profiler.disable()
        print("\ntop 25 by cumulative time:")
        pstats.Stats(profiler, stream=sys.stdout) \
            .sort_stats("cumulative").print_stats(25)
    else:
        results = run_benchmark(mode)

    if args.update_baseline:
        update_baseline(results, mode)
        return 0
    if args.check:
        return check_against_baseline(results, mode, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
