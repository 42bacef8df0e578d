#!/usr/bin/env python
"""Bitwise fingerprint of the serving simulator across representative configs.

Every perf-focused PR must leave the simulator's *outputs* untouched while
making it faster.  This tool pins that contract down: it runs a fixed suite
of serving scenarios — legacy Table 4 throughput, chunked prefill with
preemption, prefix-cache chat, a multi-replica cluster, disaggregated
prefill/decode, speculative decoding, a heterogeneous mixed-precision fleet,
KV-cache demotion under memory pressure, diurnal multi-tenant traffic with
tier-aware admission, a flash-crowd autoscaled fleet, a multiplexed
multi-model fleet, LRU prefix-cache eviction under memory pressure,
shortest-job-first and cache-aware admission under preemption, a
multiplexed mixed-precision fleet, an autoscaled multiplexed fleet, and
prefix-affinity routing over prefix-cached replicas that evict — and
emits a JSON fingerprint in which every float is hex-encoded
(``float.hex()``: exact, no rounding) and every per-request metrics stream
is hashed.

Usage::

    PYTHONPATH=src python tools/serving_fingerprint.py out.json   # capture
    PYTHONPATH=src python tools/serving_fingerprint.py --compare a.json b.json

Capture a fingerprint before an optimisation, capture again after, and
``--compare`` must report zero differences.  Any mismatch means the change
was not a pure optimisation; the report ends with the mismatch count of
every scenario, so a change meant to move one scenario shows that it moved
only that one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import Counter
from typing import Dict, List


def _hx(value: float) -> str:
    return float(value).hex()


def _metrics_digest(metrics) -> Dict[str, str]:
    """Exact digest of the per-request metrics stream."""
    parts: List[str] = []
    for m in sorted(metrics.requests, key=lambda r: r.request_id):
        parts.append("|".join([
            str(m.request_id), str(m.prompt_len), str(m.output_len),
            _hx(m.arrival_time), _hx(m.first_token_time), _hx(m.finish_time),
            "none" if m.admitted_time is None else _hx(m.admitted_time),
            str(m.preemptions), str(m.migrations), _hx(m.transfer_delay_s),
            str(m.spec_steps), str(m.draft_proposed), str(m.draft_accepted),
        ]))
    blob = "\n".join(parts).encode()
    return {
        "num_requests": str(len(metrics.requests)),
        "sha256": hashlib.sha256(blob).hexdigest(),
    }


def _summaries(metrics) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for name in ("ttft", "tpot", "e2e", "queue_delay"):
        s = getattr(metrics, name)
        for f in ("mean", "p50", "p95", "p99", "maximum"):
            out[f"{name}.{f}"] = _hx(getattr(s, f))
    out["slo_0.2_0.05"] = _hx(metrics.slo_attainment(0.2, 0.05))
    out["slo_1.0_0.01"] = _hx(metrics.slo_attainment(1.0, 0.01))
    return out


def _serving_result(result) -> Dict[str, object]:
    fp: Dict[str, object] = {
        "total_time_s": _hx(result.total_time_s),
        "generated_tokens": result.generated_tokens,
        "prompt_tokens": result.prompt_tokens,
        "peak_batch": result.peak_batch,
        "num_iterations": result.num_iterations,
        "num_finished": result.num_finished,
        "num_unserved": result.num_unserved,
        "num_preemptions": result.num_preemptions,
        "recomputed_prefill_tokens": result.recomputed_prefill_tokens,
        "busy_time_s": _hx(result.busy_time_s),
        "kv_utilization_peak": _hx(result.kv_utilization_peak),
        "throughput": _hx(result.generation_throughput),
    }
    if result.metrics is not None:
        fp["metrics"] = _metrics_digest(result.metrics)
        fp["summaries"] = _summaries(result.metrics)
    if result.prefix_stats is not None:
        s = result.prefix_stats
        fp["prefix"] = {
            "hit_rate": _hx(s.hit_rate),
            "saved_prefill_tokens": s.saved_prefill_tokens,
            "evicted_pages": s.evicted_pages,
        }
    if result.spec_stats is not None:
        s = result.spec_stats
        fp["spec"] = {
            "proposed": s.proposed_tokens, "accepted": s.accepted_tokens,
            "committed": s.committed_tokens, "steps": s.spec_steps,
            "draft_time_s": _hx(s.draft_time_s),
            "verify_time_s": _hx(s.verify_time_s),
        }
    return fp


def _cluster_result(result) -> Dict[str, object]:
    return {
        "replicas": [_serving_result(r) for r in result.replica_results],
        "requests_per_replica": result.requests_per_replica,
        "migrations_per_replica": result.migrations_per_replica,
        "metrics": _metrics_digest(result.metrics),
        "summaries": _summaries(result.metrics),
    }


# ----------------------------------------------------------------------
# Scenario suite
# ----------------------------------------------------------------------
def build_fingerprint() -> Dict[str, object]:
    from repro.gpu import A100
    from repro.model import get_config
    from repro.serving import (
        ClusterEngine,
        SCHEDULING_PRESETS,
        SYSTEM_PRESETS,
        ServingEngine,
        SpeculativeConfig,
        make_chat_workload,
        make_lognormal_workload,
        make_mixed_precision_workload,
        make_router_study_workload,
        make_uniform_workload,
    )
    from repro.serving.throughput import measure_throughput

    llama7b = get_config("llama-2-7b")
    fp: Dict[str, object] = {}

    # 1. Legacy Table 4 path: stall-prefill conservative FCFS.
    for system in ("trt-fp16", "qserve-w4a8kv4-grp"):
        r = measure_throughput(llama7b, A100, SYSTEM_PRESETS[system],
                               batch=48, num_requests=96,
                               prompt_len=1024, output_len=128)
        fp[f"table4/{system}"] = _serving_result(r.serving)

    system = SYSTEM_PRESETS["qserve-w4a8kv4-chn"]

    # 2. Chunked prefill + preemption under Poisson lognormal traffic.
    engine = ServingEngine(llama7b, A100, system, max_seq_len=4096)
    wl = make_lognormal_workload(400, arrival_rate=40.0, seed=3)
    r = engine.serve(wl, max_num_seqs=48,
                     scheduling=SCHEDULING_PRESETS["chunked-preempt"])
    fp["chunked-preempt"] = _serving_result(r)

    # 3. Prefix-cache multi-turn chat (cache-aware admission).
    engine = ServingEngine(llama7b, A100, system, max_seq_len=4096)
    wl = make_chat_workload(num_sessions=12, turns_per_session=5,
                            session_rate=0.5, seed=5)
    r = engine.serve(wl, max_num_seqs=32,
                     scheduling=SCHEDULING_PRESETS["prefix-aware"])
    fp["prefix-chat"] = _serving_result(r)

    # 4. Multi-replica cluster, least-outstanding router.
    cluster = ClusterEngine(llama7b, A100, system, num_replicas=4,
                            max_seq_len=4096)
    r = cluster.serve(make_router_study_workload(120, seed=1),
                      router="least-outstanding", max_num_seqs=24,
                      scheduling=SCHEDULING_PRESETS["chunked-preempt"])
    fp["cluster"] = _cluster_result(r)

    # 5. Disaggregated prefill/decode split.
    cluster = ClusterEngine(llama7b, A100, system, num_replicas=4,
                            max_seq_len=4096,
                            roles=["prefill", "decode", "decode", "decode"])
    r = cluster.serve(make_router_study_workload(120, seed=1),
                      router="disaggregated", max_num_seqs=24,
                      scheduling=SCHEDULING_PRESETS["chunked"])
    fp["disaggregated"] = _cluster_result(r)

    # 6. Speculative decoding (adaptive lookahead, low-entropy traffic).
    engine = ServingEngine(llama7b, A100, system, max_seq_len=4096)
    spec = SpeculativeConfig(draft_model=get_config("llama-160m"),
                             profile="low-entropy", lookahead=4,
                             adaptive=True, seed=11)
    wl = make_lognormal_workload(200, arrival_rate=30.0, seed=7)
    r = engine.serve(wl, max_num_seqs=32,
                     scheduling=SCHEDULING_PRESETS["chunked-preempt"],
                     speculative=spec)
    fp["speculative"] = _serving_result(r)

    # 7. Heterogeneous mixed-precision fleet, precision-aware routing.
    fleet = ClusterEngine(llama7b, A100, SYSTEM_PRESETS["trt-fp16"],
                          num_replicas=4, max_seq_len=4096,
                          systems=["trt-fp16", "trt-fp16",
                                   "qserve-w4a8kv4-chn", "qserve-w4a8kv4-chn"])
    r = fleet.serve(make_mixed_precision_workload(120, arrival_rate=12.0,
                                                  seed=1),
                    router="precision-aware", max_num_seqs=24,
                    scheduling=SCHEDULING_PRESETS["chunked"])
    fp["mixed-fleet"] = {
        "cluster": _cluster_result(r),
        "replica_systems": r.replica_systems,
        "precision_violations": r.metrics.precision_violations,
    }

    # 8. KV-cache demotion under memory pressure (demote-before-evict).
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["trt-fp16"],
                           max_seq_len=4096)
    capacity = 96 * engine.new_kv_manager().bytes_per_page()
    engine.kv_capacity_bytes = lambda: capacity
    wl = make_chat_workload(num_sessions=8, turns_per_session=4,
                            system_prompt_len=192, user_len=32,
                            assistant_len=64, think_time_s=6.0, seed=11)
    r = engine.serve(wl, max_num_seqs=3,
                     scheduling=SCHEDULING_PRESETS["prefix-demote"])
    s = r.prefix_stats
    fp["kv-demotion"] = {
        "serving": _serving_result(r),
        "demoted_pages_total": s.demoted_pages_total,
        "promoted_pages_total": s.promoted_pages_total,
        "demoted_hit_tokens": s.demoted_hit_tokens,
        "peak_demoted_pages": s.peak_demoted_pages,
    }

    # 9. Diurnal multi-tenant traffic, tier-aware admission + load shedding.
    from repro.serving import make_diurnal_workload
    engine = ServingEngine(llama7b, A100, system, max_seq_len=4096)
    wl = make_diurnal_workload(300, base_rate=30.0, amplitude=0.7,
                               period_s=8.0, tenants=6, free_fraction=0.5,
                               seed=13)
    r = engine.serve(wl, max_num_seqs=24,
                     scheduling=SCHEDULING_PRESETS["tiered-shed"])
    by_tier = r.metrics.by_tier()
    fp["diurnal-tiered"] = {
        "serving": _serving_result(r),
        "num_dropped": r.num_dropped,
        "per_tier_requests": {t: len(m.requests)
                              for t, m in sorted(by_tier.items())},
        "per_tier_ttft_p99": {t: _hx(m.ttft.p99)
                              for t, m in sorted(by_tier.items())},
    }

    # 10. Flash-crowd autoscaled fleet (priced cold starts, drain on idle).
    from repro.serving import AutoscalerConfig, make_flash_crowd_workload
    cluster = ClusterEngine(llama7b, A100, system, num_replicas=4,
                            max_seq_len=4096)
    wl = make_flash_crowd_workload(300, base_rate=2.0,
                                   spikes=((5.0, 40.0, 6.0),),
                                   prompt_len=512, output_len=200,
                                   tenants=4, free_fraction=0.5, seed=7)
    r = cluster.serve(wl, max_num_seqs=8,
                      scheduling=SCHEDULING_PRESETS["tiered"],
                      autoscaler=AutoscalerConfig(
                          min_replicas=1, max_replicas=4, interval_s=2.0,
                          scale_up_queue_depth=2.0, up_cooldown_s=2.0,
                          down_cooldown_s=4.0, scale_down_outstanding=6.0,
                          ttft_slo_s=0.5))
    fp["flash-autoscale"] = {
        "cluster": _cluster_result(r),
        "gpu_seconds": _hx(r.gpu_seconds),
        "scale_events": [[_hx(e.time_s), e.action, e.replica, e.reason]
                         for e in r.autoscale.events],
        "windows": [[[_hx(w[0]), _hx(w[1])] for w in slot]
                    for slot in r.autoscale.windows],
    }

    # 11. Multiplexed multi-model fleet (residency, swap pricing, routing).
    from repro.serving import MultiplexConfig, make_multi_model_workload
    llama13b = get_config("llama-2-13b")
    cluster = ClusterEngine(llama7b, A100, system, num_replicas=2,
                            max_seq_len=4096)
    wl = make_multi_model_workload(
        200, models=("llama-2-7b", "llama-2-13b"), weights=(0.8, 0.2),
        arrival_rate=16.0, seed=11)
    r = cluster.serve(wl, router="model-aware",
                      max_num_seqs=16,
                      multiplex=MultiplexConfig(
                          models=(llama7b, llama13b),
                          max_resident_models=1))
    fp["multi-model"] = {
        "cluster": _cluster_result(r),
        "gpu_seconds": _hx(r.gpu_seconds),
        "swap_ins": r.multiplex.swap_ins,
        "swap_outs": r.multiplex.swap_outs,
        "swap_in_s": _hx(r.multiplex.swap_in_s),
        "requests_by_model": {m: n for m, n in
                              sorted(r.multiplex.requests_by_model.items())},
        "per_model_ttft_p99": {m: _hx(metrics.ttft.p99) for m, metrics in
                               sorted(r.metrics.by_model().items())},
    }

    # 12. LRU prefix-cache eviction under memory pressure (no demotion).
    engine = ServingEngine(llama7b, A100, system, max_seq_len=4096)
    capacity = 96 * engine.new_kv_manager().bytes_per_page()
    engine.kv_capacity_bytes = lambda: capacity
    wl = make_chat_workload(num_sessions=8, turns_per_session=4,
                            system_prompt_len=192, user_len=32,
                            assistant_len=64, think_time_s=6.0, seed=11)
    r = engine.serve(wl, max_num_seqs=3,
                     scheduling=SCHEDULING_PRESETS["prefix-aware"])
    s = r.prefix_stats
    fp["prefix-evict"] = {
        "serving": _serving_result(r),
        "inserted_pages": s.inserted_pages,
        "deduped_pages": s.deduped_pages,
        "peak_cached_pages": s.peak_cached_pages,
    }

    # 13. Shortest-job-first under preemption: the victim and claim order
    # read each running request's remaining output.
    from repro.serving import SchedulingConfig
    engine = ServingEngine(llama7b, A100, system, max_seq_len=4096)
    capacity = 400 * engine.new_kv_manager().bytes_per_page()
    engine.kv_capacity_bytes = lambda: capacity
    wl = make_lognormal_workload(150, arrival_rate=20.0, seed=5)
    r = engine.serve(wl, max_num_seqs=32, scheduling=SchedulingConfig(
        policy="sjf", chunked_prefill=True, preemption=True))
    fp["sjf-preempt"] = _serving_result(r)

    # 14. Cache-aware preemption on a pool so tight that decode page claims
    # evict cached prefix blocks before they preempt.
    engine = ServingEngine(llama7b, A100, system, max_seq_len=4096)
    capacity = 64 * engine.new_kv_manager().bytes_per_page()
    engine.kv_capacity_bytes = lambda: capacity
    wl = make_chat_workload(num_sessions=12, turns_per_session=4,
                            system_prompt_len=192, user_len=32,
                            assistant_len=64, think_time_s=1.0,
                            session_rate=2.0, seed=11)
    r = engine.serve(wl, max_num_seqs=8, scheduling=SchedulingConfig(
        policy="cache-aware", chunked_prefill=True, preemption=True,
        prefix_caching=True))
    s = r.prefix_stats
    fp["cache-aware-preempt"] = {
        "serving": _serving_result(r),
        "inserted_pages": s.inserted_pages,
        "deduped_pages": s.deduped_pages,
        "peak_cached_pages": s.peak_cached_pages,
    }

    # 15. Multiplexed mixed-precision fleet: each replica carves HBM and
    # prices swap-ins under its own system, behind the precision router.
    cluster = ClusterEngine(llama7b, A100, SYSTEM_PRESETS["trt-fp16"],
                            num_replicas=2, max_seq_len=4096,
                            systems=["trt-fp16", "qserve-w4a8kv4-chn"])
    wl = make_multi_model_workload(
        120, models=("llama-2-7b", "llama-2-13b"), weights=(0.7, 0.3),
        arrival_rate=12.0, seed=13)
    r = cluster.serve(wl, router="precision-aware", max_num_seqs=16,
                      multiplex=MultiplexConfig(
                          models=(llama7b, llama13b),
                          max_resident_models=1))
    fp["multiplexed-hetero"] = {
        "cluster": _cluster_result(r),
        "replica_systems": r.replica_systems,
        "gpu_seconds": _hx(r.gpu_seconds),
        "swap_ins": r.multiplex.swap_ins,
        "swap_in_s": _hx(r.multiplex.swap_in_s),
        "requests_by_model": {m: n for m, n in
                              sorted(r.multiplex.requests_by_model.items())},
        "kv_pool_bytes": [_hx(s.kv_pool_bytes) for s in r.multiplex.replicas],
        "weight_budget_bytes": [_hx(s.weight_budget_bytes)
                                for s in r.multiplex.replicas],
    }

    # 16. Autoscaled multiplexed fleet: scale-ups swap models onto cold
    # replicas, and drains migrate decodes into the surviving replicas'
    # per-model steppers, each replica holding one model at a time.
    cluster = ClusterEngine(llama7b, A100, system, num_replicas=3,
                            max_seq_len=4096)
    wl = make_flash_crowd_workload(160, base_rate=2.0,
                                   spikes=((3.0, 25.0, 4.0),),
                                   prompt_len=256, output_len=200, seed=17)
    for request in wl.requests:
        if request.request_id % 3 == 2:
            request.model = llama13b.name
    r = cluster.serve(wl, router="model-aware", max_num_seqs=8,
                      scheduling=SCHEDULING_PRESETS["chunked-preempt"],
                      multiplex=MultiplexConfig(models=(llama7b, llama13b),
                                                max_resident_models=1),
                      autoscaler=AutoscalerConfig(
                          min_replicas=1, max_replicas=3, interval_s=1.0,
                          scale_up_queue_depth=2.0, up_cooldown_s=1.0,
                          down_cooldown_s=2.0, scale_down_outstanding=12.0))
    fp["multiplexed-autoscale"] = {
        "cluster": _cluster_result(r),
        "gpu_seconds": _hx(r.gpu_seconds),
        "scale_events": [[_hx(e.time_s), e.action, e.replica, e.reason]
                         for e in r.autoscale.events],
        "swap_ins": r.multiplex.swap_ins,
        "swap_outs": r.multiplex.swap_outs,
        "swap_in_s": _hx(r.multiplex.swap_in_s),
        "requests_by_model": {m: n for m, n in
                              sorted(r.multiplex.requests_by_model.items())},
    }

    # 17. Prefix-affinity routing over four prefix-cached replicas: every
    # arrival probes each replica's cache, all sessions open at once (so
    # concurrent first turns deduplicate their system prompt), and tight
    # pools evict.
    cluster = ClusterEngine(llama7b, A100, system, num_replicas=4,
                            max_seq_len=4096)
    capacity = 96 * cluster.engine.new_kv_manager().bytes_per_page()
    cluster.engine.kv_capacity_bytes = lambda: capacity
    wl = make_chat_workload(num_sessions=16, turns_per_session=5,
                            system_prompt_len=192, user_len=32,
                            assistant_len=64, think_time_s=3.0, seed=19)
    r = cluster.serve(wl, router="prefix-affinity", max_num_seqs=4,
                      scheduling=SCHEDULING_PRESETS["prefix-aware"])
    fp["prefix-affinity"] = {
        "cluster": _cluster_result(r),
        "prefix": [{"inserted_pages": s.inserted_pages,
                    "deduped_pages": s.deduped_pages,
                    "peak_cached_pages": s.peak_cached_pages}
                   for s in (rr.prefix_stats for rr in r.replica_results)],
    }

    return fp


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, f"{prefix}{k}/")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}/")
    else:
        yield prefix.rstrip("/"), obj


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = dict(_flatten(json.load(fh)))
    with open(path_b) as fh:
        b = dict(_flatten(json.load(fh)))
    keys = sorted(set(a) | set(b))
    diffs = [k for k in keys if a.get(k) != b.get(k)]
    for key in diffs:
        print(f"MISMATCH {key}: {a.get(key)!r} != {b.get(key)!r}")
    if diffs:
        # The scenario is a key's first path component.
        per_scenario = Counter(key.split("/", 1)[0] for key in diffs)
        print(f"{len(diffs)} fingerprint mismatches; per scenario:")
        for scenario in sorted({key.split("/", 1)[0] for key in keys}):
            print(f"  {scenario:<18} {per_scenario[scenario]}")
        return 1
    print(f"fingerprints identical ({len(a)} entries)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("paths", nargs="+",
                        help="output path, or two paths with --compare")
    parser.add_argument("--compare", action="store_true",
                        help="compare two previously captured fingerprints")
    args = parser.parse_args()
    if args.compare:
        if len(args.paths) != 2:
            parser.error("--compare needs exactly two fingerprint files")
        return compare(*args.paths)
    if len(args.paths) != 1:
        parser.error("capture mode takes exactly one output path")
    fp = build_fingerprint()
    with open(args.paths[0], "w") as fh:
        json.dump(fp, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.paths[0]} ({sum(1 for _ in _flatten(fp))} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
