"""Tests for the parallel-serving tier: tensor-parallel cost model,
interconnect specs, the incremental EngineStepper, the multi-replica
ClusterEngine with its routers, and the serving-loop/metrics bugfixes that
shipped with it."""

import pytest

from repro.gpu import A100, L40S, NVLINK, PCIE_GEN4, get_interconnect
from repro.model import get_config
from repro.serving import (
    AutoscalerConfig,
    ClusterEngine,
    EngineStepper,
    IterationPlan,
    IterationPlanner,
    LatencySummary,
    MultiplexConfig,
    ParallelConfig,
    Request,
    RequestMetrics,
    RequestState,
    SCHEDULING_PRESETS,
    SchedulingConfig,
    ServingEngine,
    ServingMetrics,
    SYSTEM_PRESETS,
    Workload,
    get_router,
    make_bursty_workload,
    make_router_study_workload,
    make_uniform_workload,
    max_achievable_batch,
    max_achievable_throughput,
    tp_sweep,
)


@pytest.fixture(scope="module")
def llama7b():
    return get_config("llama-2-7b")


@pytest.fixture(scope="module")
def llama70b():
    return get_config("llama-2-70b")


# ----------------------------------------------------------------------
# Interconnect specs
# ----------------------------------------------------------------------
def test_allreduce_latency_model():
    assert NVLINK.allreduce_latency(1 << 20, world_size=1) == 0.0
    t2 = NVLINK.allreduce_latency(1 << 20, world_size=2)
    t4 = NVLINK.allreduce_latency(1 << 20, world_size=4)
    assert 0.0 < t2 < t4                      # more hops, more latency terms
    # Payload scaling: bandwidth term dominates for large messages.
    big = NVLINK.allreduce_latency(1 << 30, world_size=2)
    assert big > 100 * t2 / 2
    # PCIe is strictly slower than NVLink at every size.
    assert PCIE_GEN4.allreduce_latency(1 << 20, 2) > t2


def test_get_interconnect():
    assert get_interconnect("nvlink") is NVLINK
    assert get_interconnect("PCIE") is PCIE_GEN4
    with pytest.raises(KeyError):
        get_interconnect("infiniband")


# ----------------------------------------------------------------------
# ParallelConfig / TP-aware engine
# ----------------------------------------------------------------------
def test_parallel_config_validation(llama7b):
    with pytest.raises(ValueError):
        ParallelConfig(tp_degree=0)
    for bad in (1.5, 2.0, True):
        with pytest.raises(ValueError, match="tp_degree"):
            ParallelConfig(tp_degree=bad)
    ParallelConfig(tp_degree=2).validate_for(llama7b)   # 32 heads: fine
    with pytest.raises(ValueError):
        ParallelConfig(tp_degree=3).validate_for(llama7b)
    with pytest.raises(ValueError):
        ServingEngine(llama7b, A100, SYSTEM_PRESETS["trt-fp16"],
                      parallel=ParallelConfig(tp_degree=5))


def test_tp1_is_bitwise_identical(llama7b):
    base = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                         max_seq_len=1536)
    tp1 = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                        max_seq_len=1536, parallel=ParallelConfig(tp_degree=1))
    assert tp1.kv_capacity_bytes() == base.kv_capacity_bytes()
    assert tp1.decode_step(16, 1024).total == base.decode_step(16, 1024).total
    assert tp1.prefill(4, 1024).total == base.prefill(4, 1024).total
    mixed_args = ([(128, 256)], 8, 512)
    assert tp1.mixed_step(*mixed_args).total == base.mixed_step(*mixed_args).total
    assert tp1.decode_step(16, 1024).comm == 0.0
    # Same workload end to end, bitwise.
    workload = make_uniform_workload(4, prompt_len=128, output_len=16)
    r_base = base.serve(workload.copy_fresh(), max_num_seqs=4)
    r_tp1 = tp1.serve(workload.copy_fresh(), max_num_seqs=4)
    assert r_tp1.total_time_s == r_base.total_time_s
    assert r_tp1.generated_tokens == r_base.generated_tokens


def test_tp_shards_memory_and_charges_comm(llama70b):
    system = SYSTEM_PRESETS["trt-fp16"]
    tp1 = ServingEngine(llama70b, A100, system, max_seq_len=1536)
    tp2 = ServingEngine(llama70b, A100, system, max_seq_len=1536,
                        parallel=ParallelConfig(tp_degree=2))
    assert tp2.weight_bytes_per_gpu() == pytest.approx(tp1.weight_bytes() / 2)
    assert tp1.kv_capacity_bytes() == 0.0          # weights overflow one GPU
    assert tp2.kv_capacity_bytes() > 0.0
    step = tp2.decode_step(32, 1024)
    assert step.comm > 0.0
    assert step.total == pytest.approx(
        step.gemm + step.attention + step.other + step.comm)
    # Sharding cuts per-iteration latency despite the all-reduce cost.
    assert step.total < tp1.decode_step(32, 1024).total
    # PCIe pays more communication than NVLink for the same shard.
    pcie = ServingEngine(llama70b, A100, system, max_seq_len=1536,
                         parallel=ParallelConfig(2, interconnect=PCIE_GEN4))
    assert pcie.decode_step(32, 1024).comm > step.comm


def test_tp2_serves_previously_oom_model(llama70b):
    """Acceptance: a Table 4 OOM entry (batch 0) serves at tp>=2."""
    system = SYSTEM_PRESETS["trt-fp16"]
    assert max_achievable_batch(llama70b, A100, system) == 0
    result = max_achievable_throughput(
        llama70b, A100, system, parallel=ParallelConfig(tp_degree=2))
    assert result.batch > 0
    assert result.tokens_per_second > 0
    assert result.tp_degree == 2


def test_tp_sweep_skips_indivisible_degrees():
    # llama-30b has 52 heads: tp=2 and tp=4 divide, tp=8 does not.
    results = tp_sweep(get_config("llama-30b"), L40S, SYSTEM_PRESETS["trt-fp16"],
                       tp_degrees=(1, 2, 4, 8))
    assert [r.tp_degree for r in results] == [1, 2, 4]


# ----------------------------------------------------------------------
# EngineStepper
# ----------------------------------------------------------------------
def test_stepper_matches_serve(llama7b):
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                           max_seq_len=512)
    workload = make_uniform_workload(6, prompt_len=128, output_len=16,
                                     arrival_rate=100.0, seed=5)
    served = engine.serve(workload.copy_fresh(), max_num_seqs=4)
    stepper = EngineStepper(engine, max_num_seqs=4)
    fresh = workload.copy_fresh()
    stepper.submit(fresh.requests)
    stepper.run()
    result = stepper.result(fresh)
    assert result.total_time_s == served.total_time_s
    assert result.generated_tokens == served.generated_tokens
    assert result.num_iterations == served.num_iterations


def test_stepper_queue_state_views(llama7b):
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                           max_seq_len=512)
    stepper = EngineStepper(engine, max_num_seqs=8)
    assert stepper.outstanding_requests == 0
    assert stepper.pending_prefill_tokens == 0
    stepper.submit(Request(request_id=0, prompt_len=100, output_len=8))
    stepper.submit([Request(request_id=1, prompt_len=50, output_len=8,
                            arrival_time=10.0)])
    assert stepper.outstanding_requests == 2
    assert stepper.pending_prefill_tokens == 150
    stepper.run_until(0.5)
    assert stepper.now >= 0.0 and not stepper.done
    stepper.run()
    assert stepper.done
    assert stepper.outstanding_requests == 0


def test_serve_loop_livelock_terminates(llama7b, monkeypatch):
    """Regression (serve-loop livelock): an iteration that admits nothing and
    plans nothing, with arrived-but-blocked requests and a non-empty running
    batch, must terminate deterministically instead of spinning to the
    10M-iteration guard."""

    class EmptyPlanner(IterationPlanner):
        def plan(self, scheduler, admitted):
            return IterationPlan()

    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                           max_seq_len=256)
    pages5 = 5 * engine.new_kv_manager().bytes_per_page()
    monkeypatch.setattr(engine, "kv_capacity_bytes", lambda: pages5)
    # r0 admits (4 of 5 pages); r1 arrived but stays blocked on pages; with a
    # planner that makes no progress the old loop spun at now=0 forever.
    requests = [Request(request_id=0, prompt_len=48, output_len=16),
                Request(request_id=1, prompt_len=48, output_len=16)]
    stepper = EngineStepper(engine, max_num_seqs=8)
    stepper.planner = EmptyPlanner()
    stepper.submit(requests)
    stepper.run()
    assert stepper._guard < 100                      # no spin
    assert stepper.result(Workload(requests=requests)).num_unserved == 2


def test_serve_loop_livelock_advances_to_next_arrival(llama7b, monkeypatch):
    """The livelock escape jumps the clock to the next strictly-future
    arrival (only a new admission can unwedge the loop) before giving up."""

    class EmptyPlanner(IterationPlanner):
        def plan(self, scheduler, admitted):
            return IterationPlan()

    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                           max_seq_len=256)
    pages5 = 5 * engine.new_kv_manager().bytes_per_page()
    monkeypatch.setattr(engine, "kv_capacity_bytes", lambda: pages5)
    requests = [Request(request_id=0, prompt_len=48, output_len=16),
                Request(request_id=1, prompt_len=48, output_len=16),
                Request(request_id=2, prompt_len=48, output_len=16,
                        arrival_time=5.0)]
    stepper = EngineStepper(engine, max_num_seqs=8)
    stepper.planner = EmptyPlanner()
    stepper.submit(requests)
    stepper.run()
    assert stepper.now == 5.0                        # deterministic advance
    assert stepper._guard < 100


def test_unadmittable_request_strands_only_itself(llama7b, monkeypatch):
    """Regression: an arrived request that can never be admitted must not
    terminate the loop while servable requests are still due to arrive."""
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                           max_seq_len=4096)
    pages200 = 200 * engine.new_kv_manager().bytes_per_page()
    monkeypatch.setattr(engine, "kv_capacity_bytes", lambda: pages200)
    requests = [Request(request_id=0, prompt_len=4000, output_len=200,
                        arrival_time=0.05)]          # footprint > whole cache
    requests += [Request(request_id=i, prompt_len=256, output_len=32,
                         arrival_time=1.0 + 0.1 * i) for i in range(1, 9)]
    result = engine.serve(Workload(requests=requests), max_num_seqs=4)
    assert result.num_unserved == 1
    assert result.num_finished == 8
    assert result.generated_tokens == 8 * 32
    assert requests[0].state is RequestState.WAITING


@pytest.mark.parametrize("fleet", [
    {},
    {"serve": {"autoscaler": AutoscalerConfig(min_replicas=1, max_replicas=2,
                                              interval_s=1.0)}},
    {"init": {"roles": ["prefill", "decode"]}},
], ids=["plain", "autoscaled", "disaggregated"])
def test_cluster_strands_only_an_oversized_request(llama7b, monkeypatch,
                                                   fleet):
    """The cluster loop's stop rule (no event left; a tick without an
    arrival, a cold start or a step ends the ticking) ends plain,
    autoscaled and disaggregated runs with exactly the request larger than
    the KV pool unserved."""
    cluster = ClusterEngine(llama7b, A100,
                            SYSTEM_PRESETS["qserve-w4a8kv4-chn"], 2,
                            max_seq_len=4096, **fleet.get("init", {}))
    pages200 = 200 * cluster.engine.new_kv_manager().bytes_per_page()
    monkeypatch.setattr(cluster.engine, "kv_capacity_bytes", lambda: pages200)
    requests = [Request(request_id=0, prompt_len=4000, output_len=200,
                        arrival_time=0.05)]          # footprint > whole pool
    requests += [Request(request_id=i, prompt_len=256, output_len=32,
                         arrival_time=1.0 + 0.1 * i) for i in range(1, 9)]
    result = cluster.serve(Workload(requests=requests), max_num_seqs=4,
                           **fleet.get("serve", {}))
    assert result.num_unserved == 1
    assert result.num_finished == 8
    assert requests[0].state is RequestState.WAITING


def test_last_arrival_on_a_tick_is_served(llama7b):
    """Regression: a tick that steps no host must not end the run while a
    host is still busy.  The turn that routes the last arrival (t=1.0, also
    a tick) runs the decoding replica past 1.0, so the tick turn at 1.0
    steps nothing; the loop must still finish every request."""
    cluster = ClusterEngine(llama7b, A100,
                            SYSTEM_PRESETS["qserve-w4a8kv4-chn"], 1)
    requests = [Request(request_id=i, prompt_len=128, output_len=400)
                for i in range(4)]                   # decode until ~1.5 s
    requests.append(Request(request_id=4, prompt_len=128, output_len=16,
                            arrival_time=1.0))
    result = cluster.serve(
        Workload(requests=requests), max_num_seqs=8,
        autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=1,
                                    interval_s=1.0))
    assert result.num_finished == 5
    assert all(r.state is RequestState.FINISHED for r in requests)


def test_scale_down_reroutes_a_partial_prefill(llama7b):
    """A scale-down that catches a request mid-prefill preempts it and
    reroutes it to the surviving replica, which recomputes the prefill."""
    cluster = ClusterEngine(llama7b, A100,
                            SYSTEM_PRESETS["qserve-w4a8kv4-chn"], 2)
    # Three short requests queue on the initial replica (scale-up at 0.25);
    # two long prompts then land one per replica and prefill 8 tokens per
    # iteration, so the 2.25 s tick drains replica 1 mid-prefill.
    requests = [Request(request_id=i, prompt_len=64, output_len=30)
                for i in range(3)]
    requests += [Request(request_id=10 + i, prompt_len=2000, output_len=4,
                         arrival_time=2.0) for i in range(2)]
    result = cluster.serve(
        Workload(requests=requests), max_num_seqs=1,
        scheduling=SchedulingConfig(chunked_prefill=True,
                                    prefill_chunk_size=8),
        autoscaler=AutoscalerConfig(
            min_replicas=1, max_replicas=2, interval_s=0.25,
            scale_up_queue_depth=0.0, up_cooldown_s=0.0,
            down_cooldown_s=1.9, scale_down_outstanding=2.0,
            provision_s=0.0))
    down = [e for e in result.autoscale.events if e.action == "down"]
    assert [(e.time_s, e.replica) for e in down[:1]] == [(2.25, 1)]
    drained = requests[4]
    assert drained.preemptions == 1
    assert drained.admitted_time == 2.0
    # Recomputed after the other long request, on the surviving replica.
    assert drained.prefill_done_time > requests[3].finish_time
    assert result.num_finished == 5
    assert result.migrations_per_replica == [0, 0]   # recomputed, not moved


def test_preemption_chunked_prefill_bursty_conservation(llama7b, monkeypatch):
    """Preemption + chunked prefill under bursty arrivals: every allocated
    page is eventually reclaimed and no request is left in PREEMPTED."""
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                           max_seq_len=1536)
    monkeypatch.setattr(engine, "kv_capacity_bytes", lambda: 2.0 * (1 << 30))
    workload = make_bursty_workload(24, burst_rate=60.0, mean_burst_s=1.0,
                                    mean_idle_s=4.0, prompt_len=1024,
                                    output_len=256, seed=2)
    stepper = EngineStepper(engine,
                            scheduling=SCHEDULING_PRESETS["chunked-preempt"])
    stepper.submit(workload.requests)
    stepper.run()
    result = stepper.result(workload)
    assert result.num_finished == 24
    assert result.num_preemptions > 0                # pressure actually hit
    kv = stepper.scheduler.kv_manager
    assert kv.used_pages == 0
    assert kv.pages_allocated_total == kv.pages_freed_total > 0
    assert all(r.state is RequestState.FINISHED for r in workload.requests)


# ----------------------------------------------------------------------
# ClusterEngine + routers
# ----------------------------------------------------------------------
def test_cluster_single_replica_matches_engine(llama7b):
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                           max_seq_len=512)
    cluster = ClusterEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                            num_replicas=1, max_seq_len=512)
    workload = make_uniform_workload(8, prompt_len=256, output_len=32,
                                     arrival_rate=50.0, seed=2)
    single = engine.serve(workload.copy_fresh(), max_num_seqs=8)
    clustered = cluster.serve(workload.copy_fresh(), router="round-robin",
                              max_num_seqs=8)
    assert clustered.total_time_s == single.total_time_s
    assert clustered.generated_tokens == single.generated_tokens
    assert clustered.metrics.ttft.p95 == single.metrics.ttft.p95


def _run_fingerprint(result):
    """Everything a cluster run reports, exactly: per-replica run totals,
    routing, migrations and every request's timestamps."""
    replicas = [(r.total_time_s, r.busy_time_s, r.generated_tokens,
                 r.num_iterations, r.num_preemptions, r.num_finished)
                for r in result.replica_results]
    requests = sorted((m.request_id, m.arrival_time, m.admitted_time,
                       m.first_token_time, m.finish_time, m.preemptions,
                       m.migrations, m.transfer_delay_s)
                      for m in result.metrics.requests)
    return (replicas, result.requests_per_replica,
            result.migrations_per_replica, requests, result.gpu_seconds)


def _oracle_fleet(llama7b, **serve_kwargs):
    cluster = ClusterEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                            num_replicas=4, max_seq_len=4096)
    return cluster.serve(make_router_study_workload(120, seed=1),
                         router="least-outstanding", max_num_seqs=24,
                         scheduling=SCHEDULING_PRESETS["chunked-preempt"],
                         **serve_kwargs)


def test_single_model_multiplex_matches_plain_cluster(llama7b):
    plain = _oracle_fleet(llama7b)
    multiplexed = _oracle_fleet(llama7b,
                                multiplex=MultiplexConfig(models=(llama7b,)))
    assert multiplexed.multiplex.swap_ins == 0
    assert _run_fingerprint(multiplexed) == _run_fingerprint(plain)


def test_single_model_multiplexed_split_matches_plain_split(llama7b):
    """Roles compose with multiplexing: a one-model multiplexed prefill /
    decode split is the plain split, bit for bit."""
    runs = []
    for multiplex in (None, MultiplexConfig(models=(llama7b,))):
        cluster = ClusterEngine(llama7b, A100,
                                SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                                num_replicas=4, max_seq_len=4096,
                                roles=["prefill", "decode", "decode",
                                       "decode"])
        runs.append(cluster.serve(
            make_router_study_workload(120, seed=1), router="disaggregated",
            max_num_seqs=24, scheduling=SCHEDULING_PRESETS["chunked"],
            multiplex=multiplex))
    plain, multiplexed = runs
    assert multiplexed.multiplex.swap_ins == 0
    assert plain.num_migrations == 120
    assert _run_fingerprint(multiplexed) == _run_fingerprint(plain)


def test_fixed_size_autoscaler_matches_static_fleet(llama7b):
    static = _oracle_fleet(llama7b)
    pinned = _oracle_fleet(llama7b, autoscaler=AutoscalerConfig(
        min_replicas=4, max_replicas=4))
    assert pinned.autoscale.events == []
    assert _run_fingerprint(pinned) == _run_fingerprint(static)


def test_cluster_conservation_invariants(llama7b):
    """Σ replica tokens == cluster tokens; every request lands exactly once."""
    cluster = ClusterEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                            num_replicas=3, max_seq_len=4096)
    workload = make_bursty_workload(48, burst_rate=40.0, mean_burst_s=1.0,
                                    mean_idle_s=3.0, lognormal_lengths=True,
                                    seed=4)
    expected_tokens = workload.total_output_tokens
    result = cluster.serve(workload, router="least-outstanding")
    assert sum(result.requests_per_replica) == 48
    assert result.num_finished == 48
    assert result.num_unserved == 0
    per_replica = [r.generated_tokens for r in result.replica_results]
    assert sum(per_replica) == result.generated_tokens == expected_tokens
    assert result.prompt_tokens == workload.total_prompt_tokens
    assert len(result.metrics) == 48
    assert result.total_time_s == max(r.total_time_s
                                      for r in result.replica_results)
    assert result.generation_throughput > 0


def test_round_robin_splits_evenly(llama7b):
    cluster = ClusterEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                            num_replicas=4, max_seq_len=512)
    workload = make_uniform_workload(12, prompt_len=64, output_len=8)
    result = cluster.serve(workload, router="round-robin")
    assert result.requests_per_replica == [3, 3, 3, 3]


def test_least_outstanding_beats_round_robin_on_bursty_p95(llama7b):
    """Acceptance: the queue-aware router beats load-blind round-robin on
    p95 TTFT for the bursty heavy-tailed workload of the cluster benchmark."""
    cluster = ClusterEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                            num_replicas=4, max_seq_len=4096)
    workload = make_router_study_workload()
    results = {router: cluster.serve(workload.copy_fresh(), router=router,
                                     max_num_seqs=6,
                                     scheduling=SCHEDULING_PRESETS["chunked"])
               for router in ("round-robin", "least-outstanding")}
    rr = results["round-robin"].metrics.ttft
    lor = results["least-outstanding"].metrics.ttft
    assert lor.p95 < rr.p95
    assert results["least-outstanding"].num_finished == 120


def test_router_and_cluster_validation(llama7b):
    with pytest.raises(KeyError):
        get_router("random")
    with pytest.raises(ValueError):
        ClusterEngine(llama7b, A100, SYSTEM_PRESETS["trt-fp16"], num_replicas=0)


def test_prefix_affinity_router_keeps_sessions_warm(llama7b):
    """The prefix-affinity router sends a session's turns to the replica
    holding its cache, beating load-blind round-robin on cluster hit rate."""
    from repro.serving import make_chat_workload

    cluster = ClusterEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                            num_replicas=4, max_seq_len=4096)
    workload = make_chat_workload(num_sessions=8, turns_per_session=4,
                                  system_prompt_len=256, user_len=48,
                                  assistant_len=96, think_time_s=6.0, seed=11)
    results = {router: cluster.serve(workload.copy_fresh(), router=router,
                                     max_num_seqs=8,
                                     scheduling=SCHEDULING_PRESETS["prefix"])
               for router in ("round-robin", "prefix-affinity")}
    for result in results.values():
        assert result.num_finished == 32
        assert result.saved_prefill_tokens > 0
    assert results["prefix-affinity"].cache_hit_rate > \
        results["round-robin"].cache_hit_rate


def test_prefix_affinity_falls_back_without_caching(llama7b):
    """With prefix caching off (no probes, no segments) the affinity router
    degrades to least-outstanding routing and still serves everything."""
    cluster = ClusterEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                            num_replicas=2, max_seq_len=512)
    workload = make_uniform_workload(8, prompt_len=128, output_len=16,
                                     arrival_rate=20.0, seed=6)
    result = cluster.serve(workload, router="prefix-affinity", max_num_seqs=4)
    assert result.num_finished == 8
    assert result.cache_hit_rate == 0.0
    assert all(n > 0 for n in result.requests_per_replica)


def test_prefix_affinity_sticks_to_replica_not_view_position():
    """Regression: the sticky session target is the replica itself.  An
    index into the router's view goes stale when the view changes (an
    autoscaled fleet routes among its active slots only)."""

    class Stub:
        def __init__(self, outstanding):
            self.outstanding_requests = outstanding

        def cached_prefix_tokens(self, request):
            return 0

    a, b, c = Stub(0), Stub(1), Stub(2)
    router = get_router("prefix-affinity")

    def turn():
        return Request(request_id=0, prompt_len=64, output_len=4,
                       arrival_time=0.0, prompt_segments=((1, 32), (2, 32)))

    assert router.route(turn(), [a, b]) == 0          # sticks to ``a``
    assert router.route(turn(), [c, b, a]) == 2       # ``a`` moved
    assert router.route(turn(), [c, b]) == 1          # gone: least loaded


def test_prefix_affinity_on_autoscaled_fleet(llama7b):
    """Regression: sticky sessions outlive a scale-down.  This run indexed
    past the shrunken view of active replicas and raised IndexError."""
    from repro.serving import make_chat_workload

    cluster = ClusterEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                            num_replicas=4, max_seq_len=4096)
    workload = make_chat_workload(num_sessions=24, turns_per_session=4,
                                  session_rate=3.0, think_time_s=4.0,
                                  shared_system_prompt=False, seed=8)
    result = cluster.serve(
        workload, router="prefix-affinity", max_num_seqs=8,
        scheduling=SCHEDULING_PRESETS["prefix-aware"],
        autoscaler=AutoscalerConfig(
            min_replicas=1, max_replicas=4, interval_s=1.0,
            scale_up_queue_depth=1.0, up_cooldown_s=1.0,
            down_cooldown_s=1.0, scale_down_outstanding=4.0))
    assert result.autoscale.num_scale_downs > 0
    assert result.num_finished == len(workload.requests) == 96
    assert result.saved_prefill_tokens > 0


def test_cluster_with_tensor_parallel_replicas(llama70b):
    """A 2-replica cluster of tp=2 engines serves a model that OOMs on one
    GPU — the full scale-out composition (4 GPUs total)."""
    cluster = ClusterEngine(llama70b, A100, SYSTEM_PRESETS["trt-fp16"],
                            num_replicas=2, max_seq_len=1536,
                            parallel=ParallelConfig(tp_degree=2))
    assert cluster.total_gpus == 4
    workload = make_uniform_workload(8, prompt_len=1024, output_len=64,
                                     arrival_rate=2.0, seed=3)
    result = cluster.serve(workload, router="shortest-queue", max_num_seqs=4)
    assert result.num_finished == 8
    assert result.generated_tokens == 8 * 64


# ----------------------------------------------------------------------
# Metrics bugfixes
# ----------------------------------------------------------------------
def test_queue_delay_excludes_unknown_admissions():
    """Regression (queue-delay skew): requests without an admission time must
    not drag the summary toward zero."""
    known = RequestMetrics(request_id=0, prompt_len=10, output_len=4,
                           arrival_time=0.0, first_token_time=3.0,
                           finish_time=4.0, admitted_time=2.0)
    unknown = RequestMetrics(request_id=1, prompt_len=10, output_len=4,
                             arrival_time=0.0, first_token_time=3.0,
                             finish_time=4.0, admitted_time=None)
    assert known.queue_delay == pytest.approx(2.0)
    assert unknown.queue_delay is None
    metrics = ServingMetrics(requests=[known, unknown])
    summary = metrics.queue_delay
    assert summary.mean == pytest.approx(2.0)        # not (2.0 + 0.0) / 2
    assert summary.p50 == pytest.approx(2.0)
    # All-unknown: an empty (all-zero) summary, not a fabricated one.
    assert ServingMetrics(requests=[unknown]).queue_delay == \
        LatencySummary.from_values([])


def test_one_token_outputs_judged_on_ttft_only():
    """Regression (SLO for 1-token outputs): tpot==0 must not trivially pass
    the TPOT SLO; such requests are judged on TTFT alone."""
    slow_first = RequestMetrics(request_id=0, prompt_len=10, output_len=1,
                                arrival_time=0.0, first_token_time=9.0,
                                finish_time=9.0)
    fast_first = RequestMetrics(request_id=1, prompt_len=10, output_len=1,
                                arrival_time=0.0, first_token_time=0.1,
                                finish_time=0.1)
    slow_tpot = RequestMetrics(request_id=2, prompt_len=10, output_len=11,
                               arrival_time=0.0, first_token_time=0.1,
                               finish_time=10.1)
    assert not slow_first.meets_slo(ttft_slo_s=1.0, tpot_slo_s=0.05)
    assert fast_first.meets_slo(ttft_slo_s=1.0, tpot_slo_s=0.05)
    # Multi-token requests still fail on TPOT.
    assert not slow_tpot.meets_slo(ttft_slo_s=1.0, tpot_slo_s=0.05)
    metrics = ServingMetrics(requests=[slow_first, fast_first, slow_tpot])
    assert metrics.slo_attainment(1.0, 0.05) == pytest.approx(1 / 3)
