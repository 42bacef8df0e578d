"""Tests for disaggregated prefill/decode serving: replica roles, the
KV-transfer cost model, mid-flight export/import of request KV state,
prefix-cache interaction across the handoff, and the acceptance criterion
that a prefill/decode split cuts p95 TPOT vs mixed replicas at equal GPU
count while mixed mode stays bitwise-identical."""

import pytest

from repro.gpu import A100, NVLINK, PCIE_GEN4
from repro.model import get_config
from repro.serving import (
    ClusterEngine,
    DisaggregatedRouter,
    EngineStepper,
    Request,
    RequestState,
    SCHEDULING_PRESETS,
    SYSTEM_PRESETS,
    ServingEngine,
    Workload,
    get_router,
    make_router_study_workload,
    make_shared_prefix_workload,
    make_uniform_workload,
)


@pytest.fixture(scope="module")
def llama7b():
    return get_config("llama-2-7b")


def _cluster(llama7b, **kwargs):
    return ClusterEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                         max_seq_len=4096, **kwargs)


# ----------------------------------------------------------------------
# Roles and validation
# ----------------------------------------------------------------------
def test_role_validation(llama7b):
    with pytest.raises(ValueError):                 # unknown role
        _cluster(llama7b, num_replicas=2, roles=["prefill", "encode"])
    with pytest.raises(ValueError):                 # wrong length
        _cluster(llama7b, num_replicas=3, roles=["prefill", "decode"])
    with pytest.raises(ValueError):                 # prefill with no decode
        _cluster(llama7b, num_replicas=2, roles=["prefill", "mixed"])
    with pytest.raises(ValueError):                 # nothing can prefill
        _cluster(llama7b, num_replicas=2, roles=["decode", "decode"])
    with pytest.raises(ValueError):                 # decode with no feeder:
        _cluster(llama7b, num_replicas=2,           # mixed never exports, so
                 roles=["mixed", "decode"])         # the decode replica idles
    cluster = _cluster(llama7b, num_replicas=3,
                       roles=["prefill", "decode", "mixed"])
    assert cluster.disaggregated
    assert not _cluster(llama7b, num_replicas=2).disaggregated


def test_all_mixed_roles_bitwise_identical(llama7b):
    """Explicit all-mixed roles take the exact legacy code path: same clock,
    same tokens, same percentiles as a role-less cluster."""
    workload = make_uniform_workload(12, prompt_len=256, output_len=32,
                                     arrival_rate=30.0, seed=7)
    base = _cluster(llama7b, num_replicas=3).serve(
        workload.copy_fresh(), max_num_seqs=4)
    mixed = _cluster(llama7b, num_replicas=3, roles=["mixed"] * 3).serve(
        workload.copy_fresh(), max_num_seqs=4)
    assert mixed.total_time_s == base.total_time_s
    assert mixed.generated_tokens == base.generated_tokens
    assert mixed.metrics.ttft.p95 == base.metrics.ttft.p95
    assert mixed.metrics.tpot.p99 == base.metrics.tpot.p99
    assert mixed.num_migrations == 0
    assert mixed.replica_roles == ["mixed"] * 3
    assert base.transfer_delay.mean == 0.0


def test_disaggregated_router_registry():
    router = get_router("disaggregated")
    assert isinstance(router, DisaggregatedRouter)


# ----------------------------------------------------------------------
# KV-transfer cost model
# ----------------------------------------------------------------------
def test_transfer_delay_cost_model(llama7b):
    cluster = _cluster(llama7b, num_replicas=2, roles=["prefill", "decode"],
                       transfer_link=PCIE_GEN4, transfer_overlap=False)
    short = Request(request_id=0, prompt_len=256, output_len=16)
    long = Request(request_id=1, prompt_len=2048, output_len=16)
    d_short = cluster.transfer_delay(short)
    d_long = cluster.transfer_delay(long)
    # Raw transfer: payload over the link plus one message latency.
    expected = (cluster.engine.kv_bytes_per_token() * 256
                / PCIE_GEN4.bandwidth_bytes_per_s) + PCIE_GEN4.latency_s
    assert d_short == pytest.approx(expected)
    assert d_long > d_short                          # more KV state, more time
    # Tokens the target already caches need no transfer.
    assert cluster.transfer_delay(long, cached_tokens=1024) < d_long
    # Overlap hides the stream behind one decode iteration, floored at the
    # link's message latency.
    overlapped = _cluster(llama7b, num_replicas=2, roles=["prefill", "decode"],
                          transfer_link=PCIE_GEN4, transfer_overlap=True)
    assert overlapped.transfer_delay(long) < d_long
    assert overlapped.transfer_delay(short) >= PCIE_GEN4.latency_s


def test_transfer_overlap_floors_at_link_latency(llama7b):
    """On NVLink the whole KV stream hides behind the first decode step, so
    the exposed delay is exactly the message latency."""
    cluster = _cluster(llama7b, num_replicas=2, roles=["prefill", "decode"],
                       transfer_link=NVLINK)
    request = Request(request_id=0, prompt_len=1024, output_len=16)
    assert cluster.transfer_delay(request) == pytest.approx(NVLINK.latency_s)


# ----------------------------------------------------------------------
# Export / import of in-flight KV state
# ----------------------------------------------------------------------
def test_stepper_exports_on_prefill_completion(llama7b):
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                           max_seq_len=512)
    prefiller = EngineStepper(engine, max_num_seqs=4, migrate_out=True)
    requests = [Request(request_id=i, prompt_len=128, output_len=16)
                for i in range(3)]
    prefiller.submit(list(requests))
    prefiller.run()
    assert [r.request_id for r in prefiller.outbox] == [0, 1, 2]
    assert prefiller.generated == 0                  # prefill role never decodes
    assert prefiller.scheduler.kv_manager.used_pages == 0   # pages reclaimed
    for request in requests:
        assert request.state is RequestState.MIGRATING
        assert request.kv_ready
        assert request.prefill_done_time is not None
        assert request.generated == 0


def test_exports_and_evacuations_are_traced_at_their_clock(llama7b):
    """Prefill-role exports land in the trace when the prefill completes
    (after the iteration's latency), and an evacuation stamps its exports
    and preemptions with the evacuation time."""
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                           max_seq_len=4096)
    prefiller = EngineStepper(engine, max_num_seqs=4, migrate_out=True,
                              telemetry=True)
    requests = [Request(request_id=i, prompt_len=128, output_len=16,
                        arrival_time=0.01 * i) for i in range(3)]
    prefiller.submit(list(requests))
    prefiller.run()
    exports = {rid: t for t, kind, rid, _, _ in prefiller.tracer.events
               if kind == "exported"}
    assert exports == {r.request_id: r.prefill_done_time for r in requests}

    stepper = EngineStepper(engine, max_num_seqs=4,
                            scheduling=SCHEDULING_PRESETS["chunked"],
                            telemetry=True)
    stepper.submit([Request(request_id=0, prompt_len=128, output_len=64),
                    Request(request_id=1, prompt_len=3000, output_len=8)])
    stepper.step()
    stepper.step()
    states = {r.request_id: r.state for r in stepper.scheduler.running}
    assert states == {0: RequestState.DECODING, 1: RequestState.PREFILLING}
    drain_at = stepper.now + 5.0
    exported, waiting = stepper.evacuate(drain_at)
    assert [r.request_id for r in exported] == [0]
    assert [r.request_id for r in waiting] == [1]
    marks = [(kind, rid, t) for t, kind, rid, _, _ in stepper.tracer.events
             if kind in ("exported", "preempted")]
    assert marks == [("exported", 0, drain_at), ("preempted", 1, drain_at)]


def test_decode_stepper_adopts_without_reprefill(llama7b):
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                           max_seq_len=512)
    prefiller = EngineStepper(engine, max_num_seqs=4, migrate_out=True)
    request = Request(request_id=0, prompt_len=128, output_len=16)
    prefiller.submit(request)
    prefiller.run()
    exported = prefiller.outbox.pop(0)
    ready = exported.prefill_done_time + 0.25
    exported.migration_ready_time = ready
    exported.migrations += 1
    decoder = EngineStepper(engine, max_num_seqs=4)
    decoder.submit(exported)
    decoder.run()
    assert exported.state is RequestState.FINISHED
    assert exported.generated == 16
    assert exported.first_token_time >= ready        # waited out the transfer
    kv = decoder.scheduler.kv_manager
    assert kv.pages_transferred_in_total > 0         # adopted, not prefilled
    assert kv.used_pages == 0                        # and reclaimed at finish
    assert decoder.scheduler.recomputed_prefill_tokens == 0
    # The decode replica planned zero prefill work: every iteration decoded.
    assert decoder.iterations == 16
    # Prefill work is attributed where it ran.
    assert prefiller.result(Workload(requests=[exported])).prompt_tokens == 128


def test_run_until_never_jumps_past_its_horizon(llama7b):
    """An idle replica waiting only on a future availability (an in-flight
    KV transfer) must not leap over the cluster's event horizon — admitting
    a later-routed request at a far-future clock would inflate its TTFT."""
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                           max_seq_len=512)
    stepper = EngineStepper(engine, max_num_seqs=4)
    request = Request(request_id=0, prompt_len=128, output_len=4)
    request.kv_ready = True
    request.migration_ready_time = 100.0
    stepper.submit(request)
    stepper.run_until(5.0)
    assert stepper.now <= 5.0                        # parked, not at t=100
    assert not stepper.done
    stepper.run()                                    # unbounded: jumps and serves
    assert stepper.now >= 100.0
    assert request.state is RequestState.FINISHED


def test_pin_for_import_shields_prefix_from_eviction(llama7b):
    """The prefix credited against a transfer's payload is pinned for the
    flight: an eviction pass between pricing and admission cannot reclaim
    it, so priced bytes and adopted pages agree."""
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                           max_seq_len=4096)
    workload = make_shared_prefix_workload(2, shared_prefix_len=512,
                                           unique_len=64, output_len=8, seed=4)
    first, second = workload.requests
    decoder = EngineStepper(engine, max_num_seqs=4,
                            scheduling=SCHEDULING_PRESETS["prefix"])
    # Warm the decode replica: import the first request and run it through.
    prefiller = EngineStepper(engine, max_num_seqs=4, migrate_out=True,
                              scheduling=SCHEDULING_PRESETS["prefix"])
    prefiller.submit(first)
    prefiller.run()
    migrant = prefiller.outbox.pop(0)
    migrant.migration_ready_time = migrant.prefill_done_time
    decoder.submit(migrant)
    decoder.run()
    cache = decoder.prefix_cache
    assert cache.cached_pages > 0                    # publication happened
    assert cache.total_ref_count == 0                # drained after finish
    # Pin the second request's shared prefix as the cluster would when
    # pricing its transfer; a full-cache eviction pass must not touch it.
    pinned_tokens = decoder.pin_for_import(second)
    assert pinned_tokens == 512                      # the whole shared prefix
    evicted = cache.evict(cache.cached_pages)
    assert cache.lookup_tokens(second) == pinned_tokens
    assert evicted < cache.cached_pages + evicted    # pinned blocks survived
    # Stats stayed clean: pinning is not a hit/miss event.
    assert cache.stats.lookups == 0


def test_handoff_over_a_demoted_prefix_pays_its_dequant(llama7b):
    """A handoff whose cached prefix the decode replica demoted to the
    4-bit tier pays the restore on top of the transfer, once."""
    cluster = ClusterEngine(llama7b, A100, SYSTEM_PRESETS["trt-fp16"],
                            num_replicas=2, roles=["prefill", "decode"],
                            max_seq_len=4096)
    engine = cluster.engine
    demote = SCHEDULING_PRESETS["prefix-demote"]
    workload = make_shared_prefix_workload(2, shared_prefix_len=512,
                                           unique_len=64, output_len=8, seed=4)
    prefiller = EngineStepper(engine, max_num_seqs=4, migrate_out=True,
                              scheduling=demote)
    decoder = EngineStepper(engine, max_num_seqs=4, scheduling=demote)
    # Warm the decode replica with the shared prefix, then demote it.
    prefiller.submit(workload.requests)
    prefiller.run()
    migrant, later = sorted(prefiller.outbox, key=lambda r: r.request_id)
    cluster._migrate(migrant, prefiller, decoder, migrant.prefill_done_time)
    decoder.run()
    cache = decoder.prefix_cache
    cache.evict(1)
    assert cache.stats.demoted_pages_total > 0
    pinned = {}
    pin = decoder.pin_for_import

    def spy(request):
        pinned["tokens"] = pin(request)
        pinned["demoted"] = request.demoted_hit_tokens
        return pinned["tokens"]

    decoder.pin_for_import = spy
    now = decoder.now
    cluster._migrate(later, prefiller, decoder, now)
    assert pinned["demoted"] > 0
    expected = (cluster.transfer_delay(later, pinned["tokens"], source=engine,
                                       target=engine)
                + engine.kv_dequant_latency(pinned["demoted"]))
    assert later.transfer_delay_s.hex() == expected.hex()
    assert later.migration_ready_time == now + expected
    assert later.demoted_hit_tokens == 0


def test_export_requires_completed_prefill(llama7b):
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                           max_seq_len=512)
    stepper = EngineStepper(engine, max_num_seqs=4)
    request = Request(request_id=0, prompt_len=128, output_len=16)
    stepper.submit(request)
    with pytest.raises(ValueError):
        stepper.scheduler.export_request(request, 0.0)    # still WAITING


# ----------------------------------------------------------------------
# Cluster-level disaggregated serving
# ----------------------------------------------------------------------
def test_disaggregated_lifecycle_and_conservation(llama7b):
    cluster = _cluster(llama7b, num_replicas=2, roles=["prefill", "decode"])
    workload = make_uniform_workload(10, prompt_len=512, output_len=64,
                                     arrival_rate=10.0, seed=5)
    result = cluster.serve(workload, router="disaggregated", max_num_seqs=8)
    assert result.num_finished == 10
    assert result.num_unserved == 0
    assert result.generated_tokens == 10 * 64
    assert result.num_migrations == 10
    assert result.migrations_per_replica == [0, 10]
    assert result.requests_per_replica == [10, 0]    # arrivals hit prefill tier
    assert result.replica_roles == ["prefill", "decode"]
    # The prefill replica prefilled every prompt but generated nothing; the
    # decode replica generated everything.
    assert result.replica_results[0].generated_tokens == 0
    assert result.replica_results[0].prompt_tokens == 10 * 512
    assert result.replica_results[1].generated_tokens == 10 * 64
    for request in workload.requests:
        assert request.state is RequestState.FINISHED
        assert request.migrations == 1
        assert request.transfer_delay_s > 0.0
        assert request.first_token_time >= request.migration_ready_time
    assert result.metrics.total_migrations == 10
    assert result.transfer_delay.mean > 0.0
    util = result.role_utilization()
    assert set(util) == {"prefill", "decode"}
    assert 0.0 < util["decode"] <= 1.0


def test_disaggregated_with_ordinary_router(llama7b):
    """Any router works for the arrival side; migration targeting falls back
    to least-loaded decode routing."""
    cluster = _cluster(llama7b, num_replicas=3,
                       roles=["prefill", "decode", "decode"])
    workload = make_uniform_workload(8, prompt_len=256, output_len=32,
                                     arrival_rate=20.0, seed=9)
    result = cluster.serve(workload, router="round-robin", max_num_seqs=8)
    assert result.num_finished == 8
    assert result.num_migrations == 8
    assert sum(result.migrations_per_replica[1:]) == 8


def test_preempted_migrated_request_recomputes_locally(llama7b, monkeypatch):
    """A migrated request that loses its adopted pages to preemption falls
    back to local re-prefill on the decode replica and still finishes."""
    cluster = _cluster(llama7b, num_replicas=2, roles=["prefill", "decode"])
    # 145 pages: two 1024-token prompts admit optimistically (64 pages each)
    # but cannot both grow to their 1216-token final footprint (76 pages), so
    # decode-time page pressure must preempt.
    pages145 = 145 * cluster.engine.new_kv_manager().bytes_per_page()
    monkeypatch.setattr(cluster.engine, "kv_capacity_bytes", lambda: pages145)
    workload = make_uniform_workload(12, prompt_len=1024, output_len=192,
                                     arrival_rate=200.0, seed=2)
    result = cluster.serve(workload, router="disaggregated", max_num_seqs=16,
                           scheduling=SCHEDULING_PRESETS["chunked-preempt"])
    assert result.num_finished == 12
    assert result.num_preemptions > 0                # pressure actually hit
    decode = result.replica_results[1]
    assert decode.recomputed_prefill_tokens > 0      # local recompute happened
    for request in workload.requests:
        assert request.state is RequestState.FINISHED
        if request.preemptions > 0:
            # Reclaimed transferred pages are gone for good: the victim was
            # readmitted through the ordinary local-prefill path.
            assert not request.kv_ready


def test_migration_publishes_into_decode_prefix_cache(llama7b):
    """Imported requests publish their prompt blocks on the decode replica,
    so later same-prefix migrations transfer only their cold suffix."""
    cluster = _cluster(llama7b, num_replicas=2, roles=["prefill", "decode"],
                       transfer_link=PCIE_GEN4, transfer_overlap=False)
    workload = make_shared_prefix_workload(6, shared_prefix_len=1024,
                                           unique_len=128, output_len=16,
                                           arrival_rate=2.0, seed=3)
    result = cluster.serve(workload, router="disaggregated", max_num_seqs=8,
                           scheduling=SCHEDULING_PRESETS["prefix"])
    assert result.num_finished == 6
    requests = sorted(workload.requests, key=lambda r: r.arrival_time)
    # The first migration pays for the whole prompt; once its blocks are
    # published on the decode replica, later ones ship only the cold tail.
    assert requests[-1].transfer_delay_s < requests[0].transfer_delay_s
    decode = result.replica_results[1]
    assert decode.prefix_stats is not None
    assert decode.prefix_stats.inserted_pages > 0    # publications happened
    # Migrated admissions don't pollute the replica's hit/miss accounting.
    assert decode.prefix_stats.lookups == 0
    assert decode.prefix_stats.hit_tokens == 0
    # The prefill tier still reuses the shared prefix across arrivals.
    assert result.replica_results[0].prefix_stats.hit_tokens > 0


def test_split_cuts_p95_tpot_vs_mixed_at_equal_gpu_count(llama7b):
    """Acceptance: on the bursty heavy-tailed workload a prefill/decode split
    beats 4 mixed replicas on p95 TPOT at equal GPU count, because decode
    iterations never share the GPU with prompt chunks; the handoff's
    transfer-delay overhead is recorded on the migrated requests."""
    workload = make_router_study_workload()
    mixed = _cluster(llama7b, num_replicas=4).serve(
        workload.copy_fresh(), router="least-outstanding", max_num_seqs=6,
        scheduling=SCHEDULING_PRESETS["chunked"])
    split = _cluster(llama7b, num_replicas=4,
                     roles=["prefill", "decode", "decode", "decode"]).serve(
        workload.copy_fresh(), router="disaggregated", max_num_seqs=6,
        scheduling=SCHEDULING_PRESETS["chunked"])
    assert split.num_finished == mixed.num_finished == 120
    assert split.metrics.tpot.p95 < mixed.metrics.tpot.p95
    assert split.num_migrations == 120
    assert split.transfer_delay.mean > 0.0           # overhead is accounted
    assert mixed.num_migrations == 0


def test_handoff_is_routed_before_the_decode_tier_runs_past_it(llama7b):
    """Regression: the cluster loop advanced the decode replicas past a
    pending prefill handoff before routing it, so a migrated request sat
    idle on a decode replica with free slots (1.257 s for request 119).
    The decode tier here never fills (peak batch 9 of 24), so every
    migrated request must start decoding within two full-batch decode
    iterations of its KV landing."""
    cluster = _cluster(llama7b, num_replicas=4,
                       roles=["prefill", "decode", "decode", "decode"])
    workload = make_router_study_workload(120, seed=1)
    result = cluster.serve(workload, router="disaggregated", max_num_seqs=24,
                           scheduling=SCHEDULING_PRESETS["chunked"])
    assert result.num_migrations == 120
    assert max(r.peak_batch for r in result.replica_results[1:]) < 24
    bound = 2 * cluster.engine.decode_step(24, 4096).total
    waits = [r.first_token_time - r.migration_ready_time
             for r in workload.requests]
    assert max(waits) < bound


@pytest.mark.parametrize("system", ["qserve-w4a8kv4-chn", "trt-fp16"])
@pytest.mark.parametrize("prompt_len, output_len",
                         [(128, 16), (512, 64), (1000, 200)])
def test_single_request_handoff_closed_form(llama7b, system, prompt_len,
                                            output_len):
    """Oracle: one request on a 1 prefill + 1 decode split finishes at its
    chunked prefill, plus the exposed KV transfer, plus one batch-1 decode
    step per output token — the same floats added left to right, bit for
    bit."""
    cluster = ClusterEngine(llama7b, A100, SYSTEM_PRESETS[system],
                            num_replicas=2, roles=["prefill", "decode"])
    scheduling = SCHEDULING_PRESETS["chunked"]
    request = Request(request_id=0, prompt_len=prompt_len,
                      output_len=output_len)
    engine = cluster.engine
    expected = 0.0
    for done in range(0, prompt_len, scheduling.prefill_chunk_size):
        chunk = min(scheduling.prefill_chunk_size, prompt_len - done)
        expected += engine.mixed_step([(chunk, done)], 0, 0).total
    expected += cluster.transfer_delay(
        Request(request_id=0, prompt_len=prompt_len, output_len=output_len))
    for k in range(output_len):
        expected += engine.mixed_step((), 1, prompt_len + k).total
    result = cluster.serve(Workload(requests=[request]),
                           router="disaggregated", scheduling=scheduling)
    assert result.num_migrations == 1
    assert request.finish_time == expected
