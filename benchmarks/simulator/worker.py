"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this script once per run, so no run inherits another's
state: ``make_chat_workload`` draws content ids from a process-global
counter, and a second trace built in the same process would hash its
prompt blocks differently.  Usage (the argument is a JSON object)::

    python benchmarks/simulator/worker.py \
        '{"workload": "decode-long", "seed": 0, "traced": false, "scale": 1.0}'

The last line of standard output is a JSON record of the run: set-up and
serve times (wall and reference seconds, see :class:`HostSpeed`), peak RSS,
the result digest, request accounting, program counters and, for a traced
run, per-layer self times and call counts.
"""

import time

_START = time.perf_counter()  # set-up is timed from here, before any import

from hostspeed import HostSpeed  # noqa: E402

if __name__ == "__main__":
    # Probe the host from the start, so that set-up is corrected too.
    _HOST = HostSpeed(_START)
    _HOST.start()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, Dict, List, Tuple  # noqa: E402

_ROOT = Path(__file__).resolve().parents[2]

#: SLO the study's summary reads goodput at (seconds: TTFT, TPOT).
_SLO = (0.5, 0.05)


def _n(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _build(name: str, seed: int,
           scale: float) -> Tuple[object, Callable, List]:
    """Build ``name``'s trace and engine: ``(workload, serve, engines)``.

    Sizes are per run; ``scale`` shrinks them for the tests.  Every arrival
    schedule is open-loop on the simulated clock and fully generated here,
    before the timed ``serve`` call.
    """
    from repro.gpu import A100
    from repro.model import get_config
    from repro.serving import (
        AutoscalerConfig, ClusterEngine, SCHEDULING_PRESETS, SYSTEM_PRESETS,
        ServingEngine, make_bursty_workload, make_chat_workload,
        make_flash_crowd_workload, make_lognormal_workload,
        make_uniform_workload)

    model = get_config("llama-2-7b")
    system = SYSTEM_PRESETS["qserve-w4a8kv4-chn"]
    presets = SCHEDULING_PRESETS

    def engine():
        return ServingEngine(model, A100, system, max_seq_len=4096)

    if name == "decode-long":
        wl = make_uniform_workload(_n(2500, scale), prompt_len=512,
                                   output_len=512, arrival_rate=40.0,
                                   seed=seed)
        e = engine()
        return wl, lambda: e.serve(wl, max_num_seqs=128), [e]
    if name == "chunked-overload":
        # Arrivals outrun the engine and the sequence cap exceeds the trace,
        # so only the 36,211-page KV pool bounds the batch: decode growth
        # preempts running requests and readmission recomputes their
        # prefill (about 1,000 preemptions per seed).
        wl = make_lognormal_workload(_n(1500, scale), arrival_rate=300.0,
                                     seed=seed)
        e = engine()
        return wl, lambda: e.serve(
            wl, max_num_seqs=2048,
            scheduling=presets["chunked-preempt"]), [e]
    if name == "trajectory-chunked-100k":
        wl = make_lognormal_workload(_n(100_000, scale), arrival_rate=40.0,
                                     seed=seed)
        e = engine()
        return wl, lambda: e.serve(
            wl, max_num_seqs=64,
            scheduling=presets["chunked-preempt"]), [e]
    if name == "chat-prefix":
        wl = make_chat_workload(num_sessions=_n(480, scale),
                                turns_per_session=6, session_rate=2.0,
                                seed=seed)
        e = engine()
        return wl, lambda: e.serve(
            wl, max_num_seqs=48, scheduling=presets["prefix-aware"]), [e]
    if name == "fleet-static":
        wl = make_bursty_workload(_n(2000, scale), burst_rate=48.0,
                                  lognormal_lengths=True, seed=seed)
        c = ClusterEngine(model, A100, system, num_replicas=8,
                          max_seq_len=4096)
        return wl, lambda: c.serve(
            wl, router="least-outstanding", max_num_seqs=32,
            scheduling=presets["chunked-preempt"]), c.engines
    if name == "fleet-autoscale":
        # A 10x spike leaves a deep backlog for tier-sorted admission; the
        # base rate afterwards needs one to two replicas, so the controller
        # keeps scaling up and draining (with KV migrations) until the end.
        wl = make_flash_crowd_workload(
            _n(2500, scale), base_rate=12.0, spikes=((5.0, 8.0, 10.0),),
            prompt_len=512, output_len=200, tenants=4, seed=seed)
        c = ClusterEngine(model, A100, system, num_replicas=4,
                          max_seq_len=2048)
        # The autoscale-tiered controller of bench_simulator_throughput.py.
        autoscaler = AutoscalerConfig(
            min_replicas=1, max_replicas=4, interval_s=2.0,
            scale_up_queue_depth=2.0, up_cooldown_s=2.0, down_cooldown_s=4.0,
            scale_down_outstanding=6.0, ttft_slo_s=0.5)
        return wl, lambda: c.serve(
            wl, router="least-outstanding", max_num_seqs=8,
            scheduling=presets["tiered"], autoscaler=autoscaler), c.engines
    raise ValueError(f"unknown workload {name!r}")


def read_summary(result) -> Dict:
    """What a capacity study reads off a result: TTFT/TPOT/E2E p50 and p99,
    SLO goodput and the full JSON export."""
    m = result.metrics
    return {
        "percentiles": [(s.p50, s.p99) for s in (m.ttft, m.tpot, m.e2e)],
        "goodput": m.slo_goodput(*_SLO, result.total_time_s),
        "json": result.to_json(),
    }


def digest(result) -> str:
    """SHA-256 over the fingerprint tool's exact (hex-float) encoding."""
    sys.path.insert(0, str(_ROOT / "tools"))
    from serving_fingerprint import _cluster_result, _hx, _serving_result

    if hasattr(result, "replica_results"):
        payload = {"cluster": _cluster_result(result)}
        if result.autoscale is not None:
            payload["scale_events"] = [
                [_hx(e.time_s), e.action, e.replica, e.reason]
                for e in result.autoscale.events]
    else:
        payload = {"serving": _serving_result(result)}
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def counts(result, workload, engines) -> Dict[str, float]:
    """Program counters of the run; identical on every run of one input."""
    cluster = hasattr(result, "replica_results")
    reg = result.counters() if cluster else result.counters
    requests = workload.requests
    caches = {id(e): e.cost_cache for e in engines}.values()  # shared engines
    hits = sum(c.hits for c in caches)
    lookups = sum(c.lookups for c in caches)
    prefix_tokens = (reg.get("prefix_hit_tokens_total")
                     + reg.get("prefix_miss_tokens_total"))
    return {
        "requests": len(requests),
        "finished": result.num_finished,
        "dropped": result.num_dropped,
        # Each admission is a first admission, a readmission after a
        # preemption, or a migrant landing on its decode replica.
        "admissions": sum((r.admitted_time is not None) + r.preemptions
                          + r.migrations for r in requests),
        "scanned": reg.get("scheduler_admission_scanned_requests_total"),
        "fast_skips": reg.get("scheduler_admission_fast_skips_total"),
        "preemptions": reg.get("scheduler_preemptions_total"),
        "recomputed_prefill_tokens":
            reg.get("scheduler_recomputed_prefill_tokens_total"),
        "iterations": reg.get("engine_iterations_total"),
        "cost_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "prefix_evicted_pages": reg.get("prefix_evicted_pages_total"),
        "prefix_peak_cached_pages": reg.get("prefix_peak_cached_pages"),
        "prefix_hit_ratio": (reg.get("prefix_hit_tokens_total") / prefix_tokens
                             if prefix_tokens else 0.0),
        "migrations": sum(result.migrations_per_replica) if cluster else 0,
        "scale_events": (len(result.autoscale.events)
                         if cluster and result.autoscale is not None else 0),
    }


def run(name: str, seed: int, traced: bool, host: HostSpeed,
        scale: float = 1.0) -> Dict:
    """One run of ``name``; ``traced`` wraps the layers for its duration.

    ``host``'s open window is the set-up.  ``setup_s`` and ``wall_s`` are
    reference seconds; ``setup_wall_s`` and ``serve_wall_s`` are the same
    windows in wall seconds, which a traced run's self times add up to.
    """
    sys.path.insert(0, str(_ROOT / "src"))
    tracer = None
    if traced:
        from layers import LayerTracer
        tracer = LayerTracer()
        tracer.install()
    try:
        workload, serve, engines = _build(name, seed, scale)
        setup_wall_s, setup_s = host.split()
        result = serve()
        if tracer is None:
            read_summary(result)
        else:
            with tracer.span("metrics.summary"):
                read_summary(result)
        serve_wall_s, wall_s = host.split()
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {
        "workload": name, "seed": seed, "traced": traced,
        "setup_s": setup_s, "wall_s": wall_s,
        "setup_wall_s": setup_wall_s, "serve_wall_s": serve_wall_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": digest(result),
        "counts": counts(result, workload, engines),
    }
    if tracer is not None:
        record["self_s"] = dict(tracer.self_s)
        record["calls"] = dict(tracer.calls)
        record["untimed_s"] = serve_wall_s - tracer.covered_s
        record["wrappers_left"] = LayerTracer.installed_wrappers()
    return record


if __name__ == "__main__":
    args = json.loads(sys.argv[1])
    record = run(args["workload"], args["seed"], args["traced"], _HOST,
                 args.get("scale", 1.0))
    _HOST.stop()
    print(json.dumps(record))
