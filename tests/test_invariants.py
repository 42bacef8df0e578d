"""Property-based invariant suite over randomized serving scenarios.

The unit suites pin exact behaviour on hand-built cases; this suite attacks
the simulator from the other side.  A seeded generator (hand-rolled — the
container has no ``hypothesis``) samples serving scenarios across the whole
feature matrix — workload shape, scheduling preset (chunked prefill,
preemption, prefix caching, SLO tiers, shedding), speculative decoding,
single engine vs. static cluster vs. autoscaled fleet vs. disaggregated
prefill/decode vs. multiplexed multi-model fleet, static or autoscaled —
and every scenario is checked against the invariants that must hold for
*any* knob combination:

* **Termination** — every request ends terminal (finished or dropped),
  the scheduler drains (no waiting/running leftovers), and the per-state
  accounting adds up to the workload size.
* **KV page conservation** — the paged KV manager's ledger balances:
  nothing double-freed, no pages leaked after the drain (every allocation
  matched by a free when prefix caching is off; only ref-counted shared
  pages may remain when it is on).
* **Monotone clock** — per-request timestamps are ordered
  (arrival <= admission/first token <= finish; drops stamped after
  arrival) and no request finishes after the run's makespan.
* **Counter sanity** — every counter in the unified registry snapshot is
  non-negative, for every replica of every topology.
* **Multiplex residency** — on multiplexed fleets, HBM conservation holds
  (weight budget + per-model KV pools fit the GPU, resident weights never
  exceed the budget or the residency limit) and no (replica, model) slice
  ever batched another model's requests — the observable face of
  model-namespaced prefix caching and admission.

A failing seed is a one-line repro: ``pytest tests/test_invariants.py -k
<seed>`` rebuilds the identical scenario.
"""

import numpy as np
import pytest

from repro.gpu import A100
from repro.model import get_config
from repro.serving import (
    AutoscalerConfig,
    ClusterEngine,
    MultiplexConfig,
    RequestState,
    SCHEDULING_PRESETS,
    ServingEngine,
    SpeculativeConfig,
    assign_tenants,
    get_system,
    make_chat_workload,
    make_diurnal_workload,
    make_flash_crowd_workload,
    make_lognormal_workload,
    make_uniform_workload,
)

MODEL = get_config("llama-2-7b")
SYSTEM = get_system("qserve-w4a8kv4-chn")

#: Scenario count (acceptance floor: 25).  Seeds are the test IDs, so a
#: failure reproduces with ``-k scenario25``.  Seeds 0-27 cycle the four
#: historical topologies; 28-35 run multiplexed multi-model fleets and
#: 36+ autoscaled multiplexed fleets.
NUM_SCENARIOS = 44

#: Scheduling presets the generator samples; ``None`` is the legacy
#: stall-prefill path.  Disaggregation requires chunk-capable planners.
_PRESETS = [None, "chunked", "chunked-preempt", "prefix-aware",
            "tiered", "tiered-shed"]
_DISAGG_PRESETS = ["chunked", "chunked-preempt"]

_EPS = 1e-9


# ----------------------------------------------------------------------
# Scenario generator
# ----------------------------------------------------------------------
def _sample_workload(rng: np.random.Generator):
    """A modest workload whose requests are all individually admittable."""
    kind = rng.choice(["uniform", "lognormal", "diurnal", "flash", "chat"])
    n = int(rng.integers(16, 40))
    prompt = int(rng.integers(32, 384))
    output = int(rng.integers(4, 48))
    seed = int(rng.integers(0, 2**31))
    if kind == "uniform":
        rate = None if rng.random() < 0.3 else float(rng.uniform(2.0, 20.0))
        return make_uniform_workload(n, prompt_len=prompt, output_len=output,
                                     arrival_rate=rate, seed=seed)
    if kind == "lognormal":
        return make_lognormal_workload(
            n, max_prompt_len=512, max_output_len=64,
            arrival_rate=float(rng.uniform(2.0, 20.0)), seed=seed)
    if kind == "diurnal":
        return make_diurnal_workload(
            n, base_rate=float(rng.uniform(4.0, 16.0)),
            amplitude=float(rng.uniform(0.2, 0.9)),
            period_s=float(rng.uniform(4.0, 20.0)),
            prompt_len=prompt, output_len=output, seed=seed)
    if kind == "flash":
        return make_flash_crowd_workload(
            n, base_rate=float(rng.uniform(2.0, 6.0)),
            spikes=((float(rng.uniform(1.0, 4.0)),
                     float(rng.uniform(15.0, 40.0)),
                     float(rng.uniform(1.0, 4.0))),),
            prompt_len=prompt, output_len=output, seed=seed)
    return make_chat_workload(
        num_sessions=int(rng.integers(3, 7)),
        turns_per_session=int(rng.integers(2, 5)),
        system_prompt_len=256, user_len=48, assistant_len=output,
        think_time_s=float(rng.uniform(0.5, 4.0)),
        session_rate=2.0, seed=seed)


def _sample_scenario(seed: int):
    """Sample one full scenario description from ``seed``.

    The topology is a fixed function of the seed (see NUM_SCENARIOS), so
    each serving path gets its scenarios regardless of RNG draws; every
    other knob is sampled from the seeded generator.
    """
    rng = np.random.default_rng(0xC0FFEE + seed)
    if seed < 28:
        topology = ("engine", "cluster", "autoscale", "disagg")[seed % 4]
    elif seed < 36:
        topology = "multiplex"
    else:
        topology = "autoscale-multiplex"
    workload = _sample_workload(rng)
    preset_pool = _DISAGG_PRESETS if topology == "disagg" else _PRESETS
    preset = preset_pool[int(rng.integers(0, len(preset_pool)))]
    if preset in ("tiered", "tiered-shed") and not any(
            r.tenant for r in workload.requests):
        assign_tenants(workload, tenants=4, free_fraction=0.5,
                       seed=int(rng.integers(0, 2**31)))
    multiplex = None
    if topology in ("multiplex", "autoscale-multiplex"):
        # Skewed two-model mix over the sampled workload; residency limit
        # 1 forces swaps, 2 fits both models warm.
        names = (MODEL.name, "llama-2-13b")
        picks = rng.choice(2, size=len(workload.requests), p=[0.7, 0.3])
        for request, pick in zip(workload.requests, picks):
            request.model = names[int(pick)]
        multiplex = MultiplexConfig(
            models=(MODEL, get_config("llama-2-13b")),
            max_resident_models=int(rng.integers(1, 3)))
    speculative = None
    if topology in ("engine", "cluster") and rng.random() < 0.3:
        speculative = SpeculativeConfig(
            draft_model=get_config("llama-160m"),
            lookahead=int(rng.integers(2, 5)),
            adaptive=bool(rng.random() < 0.5),
            seed=int(rng.integers(0, 2**31)))
    max_num_seqs = int(rng.integers(2, 17))
    scheduling = SCHEDULING_PRESETS[preset] if preset else None
    return {
        "topology": topology,
        "workload": workload,
        "preset": preset,
        "scheduling": scheduling,
        "prefix_on": preset == "prefix-aware",
        "speculative": speculative,
        "max_num_seqs": max_num_seqs,
        "multiplex": multiplex,
        "rng": rng,
    }


def _run_scenario(seed: int):
    """Build and run scenario ``seed``; return (scenario, result, counters).

    ``counters`` is one ``as_dict()`` snapshot per replica (a single-entry
    list for the plain engine), so the invariants below can quantify over
    replicas uniformly.
    """
    sc = _sample_scenario(seed)
    rng = sc["rng"]
    if sc["topology"] == "engine":
        engine = ServingEngine(MODEL, A100, SYSTEM, max_seq_len=2048)
        result = engine.serve(sc["workload"],
                              max_num_seqs=sc["max_num_seqs"],
                              scheduling=sc["scheduling"],
                              speculative=sc["speculative"])
        return sc, result, [result.counters.as_dict()]
    if sc["multiplex"] is not None:
        num_replicas = int(rng.integers(2, 4))
        cluster = ClusterEngine(MODEL, A100, SYSTEM,
                                num_replicas=num_replicas, max_seq_len=2048)
        router = ("model-aware",
                  "least-outstanding")[int(rng.integers(0, 2))]
        autoscaler = None
        if sc["topology"] == "autoscale-multiplex":
            # Short cooldowns so these small workloads also scale down,
            # draining multi-model replicas.
            autoscaler = AutoscalerConfig(
                min_replicas=1, max_replicas=num_replicas,
                interval_s=float(rng.uniform(0.5, 1.5)),
                scale_up_queue_depth=float(rng.uniform(1.0, 3.0)),
                up_cooldown_s=1.0, down_cooldown_s=1.0,
                scale_down_outstanding=float(rng.uniform(4.0, 12.0)))
        result = cluster.serve(sc["workload"], router=router,
                               max_num_seqs=sc["max_num_seqs"],
                               scheduling=sc["scheduling"],
                               multiplex=sc["multiplex"],
                               autoscaler=autoscaler)
        return sc, result, [r.counters.as_dict()
                            for r in result.replica_results]
    kwargs = {}
    if sc["topology"] == "disagg":
        roles_pool = (["prefill", "decode"],
                      ["prefill", "decode", "decode"],
                      ["prefill", "prefill", "decode"],
                      ["mixed", "prefill", "decode"])
        kwargs["roles"] = roles_pool[int(rng.integers(0, len(roles_pool)))]
        router = "disaggregated"
        num_replicas = len(kwargs["roles"])
    else:
        router = ("round-robin", "least-outstanding",
                  "shortest-queue")[int(rng.integers(0, 3))]
        num_replicas = int(rng.integers(2, 4))
    cluster = ClusterEngine(MODEL, A100, SYSTEM, num_replicas=num_replicas,
                            max_seq_len=2048, **kwargs)
    autoscaler = None
    if sc["topology"] == "autoscale":
        autoscaler = AutoscalerConfig(
            min_replicas=1, max_replicas=num_replicas,
            interval_s=float(rng.uniform(1.0, 3.0)),
            scale_up_queue_depth=float(rng.uniform(1.5, 5.0)),
            up_cooldown_s=2.0, down_cooldown_s=4.0,
            scale_down_outstanding=float(rng.uniform(2.0, 8.0)))
    result = cluster.serve(sc["workload"], router=router,
                           max_num_seqs=sc["max_num_seqs"],
                           scheduling=sc["scheduling"],
                           speculative=sc["speculative"],
                           autoscaler=autoscaler)
    return sc, result, [r.counters.as_dict() for r in result.replica_results]


# ----------------------------------------------------------------------
# Invariants
# ----------------------------------------------------------------------
def _check_terminal(sc, result) -> None:
    requests = sc["workload"].requests
    finished = [r for r in requests if r.state is RequestState.FINISHED]
    dropped = [r for r in requests if r.state is RequestState.DROPPED]
    nonterminal = [r for r in requests
                   if r.state not in (RequestState.FINISHED,
                                      RequestState.DROPPED)]
    assert not nonterminal, \
        f"non-terminal requests: {[(r.request_id, r.state) for r in nonterminal]}"
    assert len(finished) + len(dropped) == len(requests)
    assert result.num_finished == len(finished)
    for r in finished:
        assert r.generated == r.output_len


def _check_clock(sc, result) -> None:
    makespan = result.total_time_s
    for r in sc["workload"].requests:
        if r.state is RequestState.DROPPED:
            assert r.drop_time is not None
            assert r.drop_time >= r.arrival_time - _EPS
            continue
        assert r.admitted_time is not None
        assert r.admitted_time >= r.arrival_time - _EPS
        assert r.first_token_time is not None
        assert r.first_token_time >= r.arrival_time - _EPS
        assert r.finish_time is not None
        assert r.finish_time >= r.first_token_time - _EPS
        assert r.finish_time <= makespan + _EPS


def _check_kv_conservation(sc, counters) -> None:
    for i, c in enumerate(counters):
        assert c["kv_double_free_total"] == 0, f"replica {i} double-freed"
        assert 0 <= c["kv_used_pages"] <= c["kv_total_pages"]
        assert c["kv_pages_freed_total"] <= c["kv_pages_allocated_total"]
        if sc["prefix_on"]:
            # Prefix caching may retain ref-counted shared pages after the
            # drain (converted private->shared without a matching free);
            # everything still resident must be shared.
            assert c["kv_used_pages"] <= c["kv_shared_pages"]
        else:
            assert c["kv_used_pages"] == 0, f"replica {i} leaked pages"
            assert c["kv_pages_allocated_total"] == c["kv_pages_freed_total"]


def _check_drained(counters) -> None:
    for i, c in enumerate(counters):
        assert c["scheduler_waiting_requests"] == 0, f"replica {i} not drained"
        assert c["scheduler_running_requests"] == 0, f"replica {i} not drained"


def _check_counters_nonnegative(counters) -> None:
    for i, c in enumerate(counters):
        negative = {k: v for k, v in c.items() if v < 0}
        assert not negative, f"replica {i} negative counters: {negative}"


def _check_autoscale(result) -> None:
    report = getattr(result, "autoscale", None)
    if report is None:
        return
    for slot in report.windows:
        for start, end in slot:
            assert 0.0 <= start <= end + _EPS
        # A slot's provisioned windows never overlap.
        for (_, e0), (s1, _) in zip(slot, slot[1:]):
            assert s1 >= e0 - _EPS
    assert report.peak_replicas <= len(report.windows)
    assert report.gpu_seconds >= 0.0
    assert report.num_scale_downs <= report.num_scale_ups + len(report.windows)
    for event in report.events:
        assert event.action in ("up", "down")
        assert event.time_s >= 0.0


def _check_multiplex(sc, result) -> None:
    report = getattr(result, "multiplex", None)
    if report is None:
        return
    config = sc["multiplex"]
    capacity = float(A100.memory_bytes)
    for snap in report.replicas:
        # HBM conservation: the weight budget (peak weights + workspace)
        # plus every model's carved KV pool must fit the GPU.
        assert snap.weight_budget_bytes \
            + snap.kv_pool_bytes * len(config.models) <= capacity + _EPS
        assert snap.peak_resident_bytes <= snap.weight_budget_bytes + _EPS
        assert 1 <= len(snap.resident) <= config.resident_limit
        assert snap.swap_outs <= snap.swap_ins
        assert snap.swap_in_s >= 0.0
    # Per-model isolation: every (replica, model) slice batched only its
    # own model's requests — cross-model adoption would mix the tags.
    for slice_ in result.replica_results:
        models = {m.model for m in slice_.metrics.requests}
        assert len(models) <= 1, f"mixed models in one slice: {models}"
    assert sum(report.requests_by_model.values()) == len(
        sc["workload"].requests)


# ----------------------------------------------------------------------
# The suite: every scenario, every invariant
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(NUM_SCENARIOS),
                         ids=[f"scenario{i}" for i in range(NUM_SCENARIOS)])
def test_invariants(seed):
    sc, result, counters = _run_scenario(seed)
    _check_terminal(sc, result)
    _check_clock(sc, result)
    _check_drained(counters)
    _check_kv_conservation(sc, counters)
    _check_counters_nonnegative(counters)
    _check_autoscale(result)
    _check_multiplex(sc, result)


def test_generator_covers_feature_matrix():
    """The sampled scenarios actually exercise the knobs they claim to."""
    scenarios = [_sample_scenario(seed) for seed in range(NUM_SCENARIOS)]
    topologies = {sc["topology"] for sc in scenarios}
    assert topologies == {"engine", "cluster", "autoscale", "disagg",
                          "multiplex", "autoscale-multiplex"}
    resident_limits = {sc["multiplex"].resident_limit for sc in scenarios
                       if sc["multiplex"] is not None}
    assert resident_limits == {1, 2}
    presets = {sc["preset"] for sc in scenarios}
    assert len(presets) >= 4
    assert any(sc["speculative"] is not None for sc in scenarios)
    assert any(sc["prefix_on"] for sc in scenarios)
    assert any(any(r.tier == "free" for r in sc["workload"].requests)
               for sc in scenarios)


def test_generator_is_deterministic():
    """Same seed, same scenario — failures must be reproducible."""
    for seed in (0, 7, 13):
        a, b = _sample_scenario(seed), _sample_scenario(seed)
        assert a["topology"] == b["topology"]
        assert a["max_num_seqs"] == b["max_num_seqs"]
        wa, wb = a["workload"], b["workload"]
        assert [(r.arrival_time, r.prompt_len, r.output_len, r.tenant, r.tier)
                for r in wa.requests] == \
               [(r.arrival_time, r.prompt_len, r.output_len, r.tenant, r.tier)
                for r in wb.requests]
