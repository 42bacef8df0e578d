"""Tests for multi-model multiplexing: residency accounting, swap pricing,
model-namespaced prefix caching, the model-aware router, per-model metrics
breakouts and the multiplexed serving path."""

import functools
from dataclasses import replace

import numpy as np
import pytest

from repro.gpu import A100, PCIE_GEN4
from repro.model import get_config
from repro.serving import (
    AutoscalerConfig,
    ClusterEngine,
    ContinuousBatchingScheduler,
    MultiplexConfig,
    ModelResidency,
    Request,
    RequestState,
    SCHEDULING_PRESETS,
    ServingEngine,
    Workload,
    get_router,
    get_system,
    load_trace,
    make_flash_crowd_workload,
    make_multi_model_workload,
    make_uniform_workload,
    prompt_block_keys,
    weight_transfer_s,
)

M7 = get_config("llama-2-7b")
M13 = get_config("llama-2-13b")
SYSTEM = get_system("trt-fp16")

GIB = 1 << 30


def _residency(max_resident=1, **kwargs):
    config = MultiplexConfig(models=(M7, M13),
                             max_resident_models=max_resident, **kwargs)
    weights = {M7.name: 13.0 * GIB, M13.name: 25.0 * GIB}
    workspace = {M7.name: 2.0 * GIB, M13.name: 3.0 * GIB}
    return config, ModelResidency(config, A100, weights, workspace)


# ----------------------------------------------------------------------
# MultiplexConfig
# ----------------------------------------------------------------------
def test_config_validation():
    with pytest.raises(ValueError):
        MultiplexConfig(models=())
    with pytest.raises(ValueError):
        MultiplexConfig(models=(M7, M7))
    with pytest.raises(ValueError):
        MultiplexConfig(models=(M7, M13), max_resident_models=0)
    with pytest.raises(ValueError):
        MultiplexConfig(models=(M7,), preload=("nope",))
    with pytest.raises(ValueError):
        MultiplexConfig(models=(M7, M13), queue_cost_s=-1.0)
    for field in ("provision_s", "queue_cost_s"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=field):
                MultiplexConfig(models=(M7, M13), **{field: bad})
    for bad in (1.5, True):
        with pytest.raises(ValueError, match="max_resident_models"):
            MultiplexConfig(models=(M7, M13), max_resident_models=bad)


def test_config_rejects_a_model_preloaded_twice():
    # Regression: preload=(7b, 7b) left 7b resident twice, counted its
    # weights twice in peak_resident_bytes, and a swap-in of 13b then
    # recorded a swap-out while 7b stayed resident.
    with pytest.raises(ValueError, match="preload"):
        MultiplexConfig(models=(M7, M13), max_resident_models=2,
                        preload=(M7.name, M7.name))


def test_config_defaults():
    config = MultiplexConfig(models=(M7, M13))
    assert config.resident_limit == 2
    assert config.default_model == M7.name
    assert config.preload_names() == (M7.name,)
    assert config.model_names == (M7.name, M13.name)


# ----------------------------------------------------------------------
# ModelResidency
# ----------------------------------------------------------------------
def test_residency_lru_swapping():
    _, res = _residency(max_resident=1)
    assert res.resident == [M7.name]
    assert res.is_resident(M7.name)
    cost = res.ensure_resident(M13.name)
    assert cost > 0.0
    assert res.resident == [M13.name]
    assert res.swap_ins == 1 and res.swap_outs == 1
    # Warm hit: no cost, no new swap.
    assert res.ensure_resident(M13.name) == 0.0
    assert res.swap_ins == 1
    back = res.ensure_resident(M7.name)
    assert back > 0.0
    assert res.swap_ins_by_model == {M13.name: 1, M7.name: 1}


def test_residency_lru_order_tracks_recency():
    _, res = _residency(max_resident=2)
    res.ensure_resident(M13.name)
    assert res.resident == [M7.name, M13.name]
    # Touching the LRU model makes it MRU; nothing is evicted at limit 2.
    res.ensure_resident(M7.name)
    assert res.resident == [M13.name, M7.name]
    assert res.swap_outs == 0


def test_swap_cost_matches_autoscaler_cold_start():
    """S2: residency swap-ins and autoscaler cold starts share one price."""
    config, res = _residency(max_resident=1, provision_s=0.25)
    auto = AutoscalerConfig(min_replicas=1, max_replicas=2,
                            host_link=config.host_link, provision_s=0.25)
    weights = res.weight_bytes[M13.name]
    expected = weight_transfer_s(weights, config.host_link, 0.25)
    assert res.swap_cost_s(M13.name) == expected
    assert auto.cold_start_s(weights) == expected
    assert res.swap_cost_s(M7.name) == 0.0  # warm


def test_residency_hbm_accounting():
    _, res = _residency(max_resident=1)
    # Budget sized for the single largest footprint (25 + 3 GiB).
    assert res.weight_budget_bytes == 28.0 * GIB
    assert res.kv_pool_bytes() == (res.hbm_capacity_bytes - 28.0 * GIB) / 2
    res.ensure_resident(M13.name)
    assert res.peak_resident_bytes <= res.weight_budget_bytes
    assert res.reserved_bytes() <= res.hbm_capacity_bytes


def test_residency_rejects_oversubscribed_hbm():
    config = MultiplexConfig(models=(M7, M13))
    weights = {M7.name: 50.0 * GIB, M13.name: 40.0 * GIB}
    workspace = {M7.name: 2.0 * GIB, M13.name: 2.0 * GIB}
    with pytest.raises(ValueError, match="leave no KV memory"):
        ModelResidency(config, A100, weights, workspace)


def test_residency_unknown_model():
    _, res = _residency()
    with pytest.raises(KeyError):
        res.ensure_resident("mystery-model")


# ----------------------------------------------------------------------
# Model-namespaced prefix caching
# ----------------------------------------------------------------------
def test_prefix_keys_namespaced_by_model():
    request = Request(request_id=0, prompt_len=256, output_len=8,
                      arrival_time=0.0)
    plain = prompt_block_keys(request, 16)
    a = prompt_block_keys(request, 16, namespace=M7.name)
    b = prompt_block_keys(request, 16, namespace=M13.name)
    assert len(plain) == len(a) == len(b)
    # No block hash is shared across models, nor with the unsalted chain.
    assert not set(a) & set(b)
    assert not set(plain) & set(a)
    # Same namespace, same keys: sharing within a model still works.
    again = Request(request_id=1, prompt_len=256, output_len=8,
                    arrival_time=0.0)
    assert prompt_block_keys(again, 16, namespace=M7.name) == a


# ----------------------------------------------------------------------
# Scheduler admission guard
# ----------------------------------------------------------------------
def test_scheduler_rejects_mistagged_requests():
    engine = ServingEngine(M7, A100, SYSTEM)
    scheduler = ContinuousBatchingScheduler(kv_manager=engine.new_kv_manager(),
                                            max_num_seqs=4,
                                            model_name=M7.name)
    wrong = Request(request_id=0, prompt_len=32, output_len=4,
                    arrival_time=0.0, model=M13.name)
    with pytest.raises(ValueError, match="targets model"):
        scheduler.submit([wrong])
    # Untagged and correctly tagged requests are both admitted.
    scheduler.submit([Request(request_id=1, prompt_len=32, output_len=4,
                              arrival_time=0.0),
                      Request(request_id=2, prompt_len=32, output_len=4,
                              arrival_time=0.0, model=M7.name)])


# ----------------------------------------------------------------------
# Model-aware router
# ----------------------------------------------------------------------
class _FakeReplica:
    def __init__(self, swap_cost, outstanding):
        self._swap_cost = swap_cost
        self.outstanding_requests = outstanding
        self.queue_cost_s = 0.05

    def swap_cost_s(self, model):
        return self._swap_cost

    def resolve_model(self, request):
        return request.model or M7.name


def test_model_aware_router_prefers_warm_replicas():
    router = get_router("model-aware")
    request = Request(request_id=0, prompt_len=32, output_len=4,
                      arrival_time=0.0, model=M7.name)
    warm_busy = _FakeReplica(swap_cost=0.0, outstanding=6)
    cold_idle = _FakeReplica(swap_cost=1.0, outstanding=0)
    assert router.route(request, [cold_idle, warm_busy]) == 1
    # ...until the warm queue outweighs the swap: 0.05 * 30 > 1.0.
    warm_swamped = _FakeReplica(swap_cost=0.0, outstanding=30)
    assert router.route(request, [cold_idle, warm_swamped]) == 0


def test_model_aware_router_degrades_to_least_outstanding():
    cluster = ClusterEngine(M7, A100, SYSTEM, num_replicas=2)
    wl = make_uniform_workload(num_requests=12, prompt_len=64, output_len=8,
                               arrival_rate=None, seed=3)
    baseline = cluster.serve(wl.copy_fresh(), router="least-outstanding")
    viaaware = cluster.serve(wl.copy_fresh(), router="model-aware")
    assert baseline.requests_per_replica == viaaware.requests_per_replica
    assert baseline.metrics.ttft.p99 == viaaware.metrics.ttft.p99


# ----------------------------------------------------------------------
# Multiplexed serving end to end
# ----------------------------------------------------------------------
def _serve_multiplexed(**overrides):
    wl = make_multi_model_workload(
        60, models=(M7.name, M13.name), weights=(0.8, 0.2),
        arrival_rate=12.0, prompt_len=128, output_len=32, seed=5)
    cluster = ClusterEngine(M7, A100, SYSTEM, num_replicas=2)
    kwargs = dict(router="model-aware", max_num_seqs=8,
                  multiplex=MultiplexConfig(models=(M7, M13),
                                            max_resident_models=1))
    kwargs.update(overrides)
    return cluster.serve(wl, **kwargs)


def test_multiplexed_serving_end_to_end():
    result = _serve_multiplexed()
    assert result.num_finished == 60
    assert result.multiplex is not None
    assert result.multiplex.swap_ins >= 1
    assert result.multiplex.swap_in_s > 0.0
    assert sum(result.multiplex.requests_by_model.values()) == 60
    # GPU-seconds price physical replicas, not (replica, model) slices.
    assert result.num_replicas == 4
    assert result.physical_replicas == 2
    assert result.gpu_seconds == pytest.approx(2 * result.total_time_s)


def test_multiplexed_by_model_breakouts():
    result = _serve_multiplexed()
    by_model = result.metrics.by_model()
    assert set(by_model) == {M7.name, M13.name}
    assert sum(len(m.requests) for m in by_model.values()) == 60
    for metrics in by_model.values():
        assert metrics.ttft.p50 > 0.0
    payload = result.metrics.to_json()["by_model"]
    assert set(payload) == {M7.name, M13.name}


def test_multiplexed_swap_counters_and_spans():
    result = _serve_multiplexed(telemetry=True)
    counters = result.counters().as_dict()
    assert counters["multiplex_swap_ins_total"] == result.multiplex.swap_ins
    assert counters["multiplex_swap_seconds_total"] == pytest.approx(
        result.multiplex.swap_in_s)
    swaps = [e for e in result.chrome_trace()["traceEvents"]
             if e.get("cat") == "swap"]
    assert len(swaps) == result.multiplex.swap_ins
    assert all(e["name"].startswith("swap:") for e in swaps)


def test_role_utilization_counts_physical_replicas():
    # A 1-replica, 2-model fleet fed one burst is busy for its whole
    # makespan; its two result slices share the one GPU timeline.
    wl = make_multi_model_workload(
        16, models=(M7.name, M13.name), weights=(0.5, 0.5),
        arrival_rate=1000.0, prompt_len=128, output_len=16, seed=2)
    result = ClusterEngine(M7, A100, SYSTEM, num_replicas=1).serve(
        wl, max_num_seqs=8,
        multiplex=MultiplexConfig(models=(M7, M13), max_resident_models=1))
    busy = sum(r.busy_time_s for r in result.replica_results)
    utilization = result.role_utilization()["mixed"]
    assert utilization == pytest.approx(busy / result.total_time_s)
    assert 0.9 < utilization <= 1.0


def test_multiplexed_serving_is_deterministic():
    a, b = _serve_multiplexed(), _serve_multiplexed()
    assert a.multiplex.swap_ins == b.multiplex.swap_ins
    assert a.metrics.ttft.p99 == b.metrics.ttft.p99
    assert a.requests_per_replica == b.requests_per_replica


# ----------------------------------------------------------------------
# Per-replica systems on a multiplexed fleet
# ----------------------------------------------------------------------
QSERVE = get_system("qserve-w4a8kv4-chn")
MIXED_SYSTEMS = (SYSTEM, QSERVE)


def _two_model_workload():
    return make_multi_model_workload(
        24, models=(M7.name, M13.name), weights=(0.6, 0.4),
        arrival_rate=12.0, prompt_len=96, output_len=16, seed=7)


def _serve_two_models(model, system, requests, num_replicas=1, models=None,
                      router="round-robin", **kwargs):
    cluster = ClusterEngine(model, A100, system, num_replicas, **kwargs)
    config = MultiplexConfig(models=models or (M7, M13),
                             max_resident_models=1)
    return cluster.serve(Workload(requests=[r.copy_fresh() for r in requests]),
                         router=router, max_num_seqs=8, multiplex=config)


def _slice_bits(result):
    """Exact per-slice outcome: float.hex of every timing, plus each
    finished request's metrics."""
    return [
        (r.total_time_s.hex(), r.busy_time_s.hex(), r.generated_tokens,
         [(m.request_id, m.arrival_time.hex(), m.first_token_time.hex(),
           m.finish_time.hex(), m.admitted_time.hex(), m.preemptions)
          for m in sorted(r.metrics.requests, key=lambda m: m.request_id)])
        for r in result.replica_results]


def test_multiplexed_mixed_precision_fleet_matches_one_replica_runs():
    # Cross-topology oracle: under round-robin every replica of a
    # multiplexed [FP16, W4A8KV4] fleet serves exactly every other arrival,
    # so replica i's (replica, model) slices must equal a one-replica
    # multiplexed fleet under system i serving those arrivals.
    requests = sorted(_two_model_workload().requests,
                      key=lambda r: (r.arrival_time, r.request_id))
    fleet = _serve_two_models(M7, SYSTEM, requests, num_replicas=2,
                              systems=list(MIXED_SYSTEMS))
    assert fleet.num_finished == len(requests)
    assert all(replica.swap_ins > 0 for replica in fleet.multiplex.replicas)
    assert fleet.replica_systems == [SYSTEM.name] * 2 + [QSERVE.name] * 2
    slices = _slice_bits(fleet)
    for i, system in enumerate(MIXED_SYSTEMS):
        alone = _serve_two_models(M7, system, requests[i::2])
        assert slices[2 * i:2 * i + 2] == _slice_bits(alone)
    # Each replica carves HBM under its own system: W4A8KV4 weights leave
    # a larger KV pool than FP16 weights do.
    fp16, w4 = fleet.multiplex.replicas
    assert w4.kv_pool_bytes > fp16.kv_pool_bytes
    assert w4.weight_budget_bytes < fp16.weight_budget_bytes


def test_uniform_systems_on_multiplexed_fleet_is_homogeneous():
    requests = _two_model_workload().requests
    base = _serve_two_models(M7, SYSTEM, requests, num_replicas=2,
                             router="model-aware")
    uniform = _serve_two_models(M7, SYSTEM, requests, num_replicas=2,
                                router="model-aware",
                                systems=[SYSTEM.name] * 2)
    assert _slice_bits(uniform) == _slice_bits(base)
    assert uniform.total_time_s.hex() == base.total_time_s.hex()
    assert uniform.multiplex.to_json() == base.multiplex.to_json()


def test_multiplexed_prefill_decode_split():
    # Roles compose with multiplexing: a two-model 1 prefill + 2 decode
    # fleet that can hold one model's weights at a time prefills every
    # request on the prefill replica, migrates it into the right model's
    # stepper on a decode replica, and generates every output token there.
    wl = make_multi_model_workload(120, models=(M7.name, M13.name),
                                   weights=(0.7, 0.3), arrival_rate=16,
                                   seed=1)
    cluster = ClusterEngine(M7, A100, SYSTEM, num_replicas=3,
                            roles=["prefill", "decode", "decode"])
    result = cluster.serve(
        wl, router="disaggregated", max_num_seqs=16,
        multiplex=MultiplexConfig(models=(M7, M13), max_resident_models=1))
    assert result.num_finished == 120
    assert result.num_migrations == 120
    assert result.generated_tokens == sum(r.output_len for r in wl.requests)
    assert result.replica_roles == ["prefill", "prefill", "decode", "decode",
                                    "decode", "decode"]
    # Slices are (replica, model): the prefill replica decodes nothing.
    assert sum(r.generated_tokens for r in result.replica_results[:2]) == 0
    assert result.multiplex.swap_ins > 0
    for request in wl.requests:
        assert request.migrations == 1


def test_renamed_fp16_replica_is_served_as_fp16():
    # An FP16 system renamed to the W4A8KV4 preset's name is still FP16:
    # engines are keyed by value, so its replica runs every model at FP16.
    renamed = replace(SYSTEM, name=QSERVE.name)
    requests = sorted(_two_model_workload().requests,
                      key=lambda r: (r.arrival_time, r.request_id))
    fleet = _serve_two_models(M7, QSERVE, requests, num_replicas=2,
                              systems=[renamed, QSERVE])
    fp16 = _serve_two_models(M7, SYSTEM, requests[0::2])
    assert _slice_bits(fleet)[:2] == _slice_bits(fp16)


def test_multiplexed_model_sharing_the_base_name_is_priced_as_itself():
    # Regression: multiplexed engines were keyed by model name, so a
    # 16-layer variant called "llama-2-7b" under a 32-layer llama-2-7b base
    # was priced and sized as the base model.
    variant = replace(M7, num_layers=16)
    requests = _two_model_workload().requests
    under_base = _serve_two_models(M7, SYSTEM, requests,
                                   models=(variant, M13))
    as_base = _serve_two_models(variant, SYSTEM, requests,
                                models=(variant, M13))
    assert _slice_bits(under_base) == _slice_bits(as_base)
    assert under_base.multiplex.to_json() == as_base.multiplex.to_json()


def test_precision_aware_router_on_multiplexed_fleet():
    # Regression: the router read ``replica.engine``, which a multiplexed
    # replica does not have.  This multiplexed fleet is homogeneous, so the
    # router must route exactly like least-outstanding.
    cluster = ClusterEngine(M7, A100, get_system("qserve-w4a8kv4-chn"), 2)
    wl = make_multi_model_workload(20, models=(M7.name, M13.name),
                                   weights=(0.8, 0.2), arrival_rate=16,
                                   seed=1)
    config = MultiplexConfig(models=(M7, M13), max_resident_models=1)
    aware = cluster.serve(wl.copy_fresh(), router="precision-aware",
                          multiplex=config)
    lor = cluster.serve(wl.copy_fresh(), router="least-outstanding",
                        multiplex=config)
    assert aware.requests_per_replica == lor.requests_per_replica
    assert aware.num_finished == lor.num_finished == 20
    assert aware.total_time_s == lor.total_time_s


def test_autoscaled_multiplexed_fleet():
    # Autoscaling composes with multiplexing: scale-downs drain in-flight
    # decodes of a multi-model replica into the right (replica, model)
    # slices of the surviving replicas.
    wl = make_flash_crowd_workload(120, base_rate=2.0,
                                   spikes=((3.0, 30.0, 3.0),),
                                   prompt_len=256, output_len=200, seed=9)
    picks = np.random.default_rng(9).choice(2, size=120, p=[0.7, 0.3])
    for request, pick in zip(wl.requests, picks):
        request.model = (M7.name, M13.name)[int(pick)]
    config = MultiplexConfig(models=(M7, M13), max_resident_models=1)
    cluster = ClusterEngine(M7, A100, SYSTEM, num_replicas=3)
    result = cluster.serve(
        wl, router="model-aware", max_num_seqs=8, multiplex=config,
        autoscaler=AutoscalerConfig(
            min_replicas=1, max_replicas=3, interval_s=1.0,
            scale_up_queue_depth=2.0, up_cooldown_s=1.0,
            down_cooldown_s=2.0, scale_down_outstanding=12.0))

    assert result.num_finished == 120
    assert all(r.state is RequestState.FINISHED for r in wl.requests)
    report = result.autoscale
    assert report.num_scale_ups > 0 and report.num_scale_downs > 0
    assert len(report.windows) == result.physical_replicas
    for slot in report.windows:
        assert all(0.0 <= start <= end for start, end in slot)
        assert all(s1 >= e0 for (_, e0), (s1, _) in zip(slot, slot[1:]))
    assert result.gpu_seconds == report.gpu_seconds
    for snap in result.multiplex.replicas:
        assert 1 <= len(snap.resident) <= config.resident_limit
        assert snap.peak_resident_bytes <= snap.weight_budget_bytes
    assert result.num_replicas == 2 * result.physical_replicas
    # Slices run replica-major, model-minor; a migrated decode is counted
    # on the receiving replica's slice for the request's own model.
    names = config.model_names
    for j, name in enumerate(names):
        received = sum(result.migrations_per_replica[j::len(names)])
        assert received == sum(r.migrations for r in wl.requests
                               if r.model == name)
    assert sum(result.migrations_per_replica[1::2]) > 0  # drains hit M13


def test_drain_swap_in_longer_than_a_tick_is_served():
    # Regression: a scale-down drain moves the M13 decode onto a replica
    # holding M7, whose swap-in (3 s) outlasts the 0.5 s tick interval.
    # The next tick steps no host, and must not end the run with the
    # drained request and the replica's own decodes unfinished.
    requests = [Request(request_id=i, prompt_len=128,
                        output_len=50 if i < 2 else 800, model=M7.name)
                for i in range(4)]
    requests.append(Request(request_id=4, prompt_len=128, output_len=300,
                            model=M13.name, arrival_time=1.2))
    cluster = ClusterEngine(M7, A100, SYSTEM, num_replicas=2)
    result = cluster.serve(
        Workload(requests=requests), router="model-aware", max_num_seqs=2,
        multiplex=MultiplexConfig(models=(M7, M13), max_resident_models=1,
                                  provision_s=2.0),
        autoscaler=AutoscalerConfig(
            min_replicas=1, max_replicas=2, interval_s=0.5,
            scale_up_queue_depth=0.0, up_cooldown_s=0.0, provision_s=0.0,
            down_cooldown_s=1.0, scale_down_outstanding=10.0))
    down = [e for e in result.autoscale.events if e.action == "down"]
    assert [(e.time_s, e.replica) for e in down] == [(4.5, 1)]
    assert requests[4].migrations == 1
    assert result.num_finished == 5
    assert all(r.state is RequestState.FINISHED for r in requests)


def _stranded_scans(num_siblings, scheduling=None):
    """Admission scans of a 7b slice whose only request (final footprint
    8000 + 10**7 tokens) no pool can hold, beside ``num_siblings`` 13b
    requests on the same replica."""
    requests = [Request(request_id=0, prompt_len=8000,
                        output_len=10**7, model=M7.name)]
    requests += [Request(request_id=i + 1, prompt_len=256, output_len=64,
                         arrival_time=0.05 * i, model=M13.name)
                 for i in range(num_siblings)]
    result = ClusterEngine(M7, A100, SYSTEM, num_replicas=1).serve(
        Workload(requests=requests), router="model-aware",
        scheduling=scheduling,
        multiplex=MultiplexConfig(models=(M7, M13), max_resident_models=2))
    stranded, sibling = result.replica_results
    assert stranded.num_unserved == 1
    assert sibling.num_finished == num_siblings
    return stranded.counters.as_dict()[
        "scheduler_admission_scanned_requests_total"]


def test_stranded_stepper_is_not_polled_on_every_turn():
    # Regression: a model whose only waiting request can never be admitted
    # (its final footprint exceeds the whole pool) was handed the GPU on
    # every turn of its replica, and each turn scanned the request again,
    # so its scans grew with the sibling model's traffic.
    scans = functools.partial(
        _stranded_scans, scheduling=SCHEDULING_PRESETS["chunked-preempt"])
    assert scans(10) == scans(20) == scans(40) == 1


def test_stranded_conservative_stepper_is_not_polled_on_every_turn():
    # The same under conservative admission (the default), where the request
    # carries a finite page demand larger than the pool: the slice's scans
    # read 6, 16 and 36 while that demand still counted as waiting.
    assert _stranded_scans(10) == _stranded_scans(20) == \
        _stranded_scans(40) == 1


def test_multiplexed_rejects_unknown_model():
    wl = Workload(requests=[Request(request_id=0, prompt_len=32, output_len=4,
                                    arrival_time=0.0, model="yi-34b")])
    cluster = ClusterEngine(M7, A100, SYSTEM, num_replicas=1)
    with pytest.raises(ValueError, match="multiplex set"):
        cluster.serve(wl, multiplex=MultiplexConfig(models=(M7, M13)))


def test_single_model_config_serves_untagged_workloads():
    wl = make_uniform_workload(num_requests=8, prompt_len=64, output_len=8,
                               arrival_rate=8.0, seed=2)
    cluster = ClusterEngine(M7, A100, SYSTEM, num_replicas=2)
    result = cluster.serve(wl, router="model-aware",
                           multiplex=MultiplexConfig(models=(M7,)))
    assert result.num_finished == 8
    assert result.multiplex.swap_ins == 0
    assert result.multiplex.requests_by_model == {M7.name: 8}


# ----------------------------------------------------------------------
# Traffic: model tags in traces and the multi-model generator
# ----------------------------------------------------------------------
def test_load_trace_rejects_unknown_model():
    lines = [
        '{"arrival_s": 0.0, "prompt_tokens": 8, "output_tokens": 2}',
        '{"arrival_s": 0.5, "prompt_tokens": 8, "output_tokens": 2, '
        '"model": "gpt-17"}',
    ]
    with pytest.raises(ValueError, match="trace line 2: unknown model"):
        load_trace(lines)


def test_load_trace_accepts_registered_model():
    lines = ['{"arrival_s": 0.0, "prompt_tokens": 8, "output_tokens": 2, '
             f'"model": "{M13.name}"}}']
    wl = load_trace(lines)
    assert wl.requests[0].model == M13.name


def test_make_multi_model_workload_mix_and_validation():
    wl = make_multi_model_workload(400, models=(M7.name, M13.name),
                                   weights=(0.9, 0.1), seed=4)
    counts = {M7.name: 0, M13.name: 0}
    for r in wl.requests:
        counts[r.model] += 1
    assert counts[M7.name] > counts[M13.name] * 4
    with pytest.raises(ValueError, match="unknown model"):
        make_multi_model_workload(4, models=("nope",))
    with pytest.raises(ValueError):
        make_multi_model_workload(4, models=(M7.name,), weights=(0.5, 0.5))
