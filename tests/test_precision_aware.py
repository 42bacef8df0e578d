"""Tests for precision-aware serving: preset validation, per-block KV
precision tiers (demote/promote/evict conservation), dequant cost charging,
precision-aware SLO accounting, heterogeneous mixed-precision fleets with
cross-precision transfer repricing, and the precision-aware router."""

from dataclasses import replace

import pytest

from repro.gpu import A100
from repro.model import get_config
from repro.serving import (
    ClusterEngine,
    DEMOTED_KV_BITS,
    EngineStepper,
    PagedKVCacheManager,
    PrefixCache,
    Request,
    RequestMetrics,
    SCHEDULING_PRESETS,
    SYSTEM_PRESETS,
    SchedulingConfig,
    ServingEngine,
    ServingMetrics,
    get_system,
    make_chat_workload,
    make_mixed_precision_workload,
    make_shared_prefix_workload,
    validate_presets,
)


@pytest.fixture(scope="module")
def llama7b():
    return get_config("llama-2-7b")


def _manager(model, system="trt-fp16", capacity_gib=10.0, page_size=16):
    return PagedKVCacheManager(model=model, system=get_system(system),
                               capacity_bytes=capacity_gib * (1 << 30),
                               page_size=page_size, max_seq_len=1536)


def _request(rid, segments, output_len=8, arrival=0.0):
    return Request(request_id=rid,
                   prompt_len=sum(length for _, length in segments),
                   output_len=output_len, arrival_time=arrival,
                   prompt_segments=tuple(segments))


# ----------------------------------------------------------------------
# Preset validation and KV geometry
# ----------------------------------------------------------------------
def test_presets_validate_and_unknown_system_raises():
    validate_presets()                           # also runs at import
    with pytest.raises(KeyError, match="unknown system"):
        get_system("no-such-system")


def test_validate_presets_rejects_unresolvable_kernels():
    import dataclasses
    broken = dataclasses.replace(get_system("trt-fp16"), name="broken",
                                 attention_kernel="kv-nonexistent")
    with pytest.raises(ValueError, match="attention_kernel"):
        validate_presets({"broken": broken})


def test_demotion_support_keys_off_strict_byte_saving(llama7b):
    fp16 = _manager(llama7b, "trt-fp16")
    kv4 = _manager(llama7b, "qserve-w4a8kv4-chn")
    non_paged = _manager(llama7b, "quarot-w4a4")
    assert fp16.demotion_supported                # 16-bit KV -> 4-bit saves
    assert not kv4.demotion_supported             # already at 4-bit
    assert not non_paged.demotion_supported       # no pages to demote
    assert fp16.demoted_bytes_per_page() < fp16.bytes_per_page()
    # Demoted payload is the 4-bit tier.
    sys16 = get_system("trt-fp16")
    assert sys16.kv_bits > DEMOTED_KV_BITS
    assert sys16.demoted_kv_bytes_per_token(llama7b) < \
        sys16.kv_bytes_per_token(llama7b)


# ----------------------------------------------------------------------
# KV manager: demote/promote conservation
# ----------------------------------------------------------------------
def test_demote_promote_conserves_lifetime_counters(llama7b):
    mgr = _manager(llama7b)
    mgr.allocate(0, 64)                           # 4 private pages
    for _ in range(4):
        mgr.convert_private_to_shared(0)
    alloc, freed = mgr.pages_allocated_total, mgr.pages_freed_total
    free_before = mgr.free_pages
    for _ in range(3):
        mgr.demote_shared_page()
    assert mgr.demoted_pages == 3
    assert mgr.pages_demoted_total == 3
    # Fractional per-page gain: 3 demotions reclaim whole pages only.
    assert 0 < mgr.reclaimed_pages <= 3
    assert mgr.free_pages == free_before + mgr.reclaimed_pages
    # Demotion never touches the lifetime alloc/free ledger.
    assert (mgr.pages_allocated_total, mgr.pages_freed_total) == (alloc, freed)
    mgr.promote_shared_page()
    assert mgr.demoted_pages == 2 and mgr.pages_promoted_total == 1
    # Releasing a demoted page drops the demoted census with it.
    mgr.release_shared_page(demoted=True)
    mgr.release_shared_page(demoted=True)
    assert mgr.demoted_pages == 0
    mgr.release_shared_page()
    mgr.release_shared_page()
    assert mgr.used_pages == 0
    assert mgr.free_pages == mgr.total_pages
    assert mgr.pages_allocated_total == mgr.pages_freed_total == 4


def test_demote_guards(llama7b):
    kv4 = _manager(llama7b, "qserve-w4a8kv4-chn")
    with pytest.raises(ValueError, match="demot"):
        kv4.demote_shared_page()
    fp16 = _manager(llama7b)
    with pytest.raises(ValueError):
        fp16.demote_shared_page()                 # no shared pages at all
    fp16.allocate(0, 16)
    fp16.convert_private_to_shared(0)
    fp16.demote_shared_page()
    with pytest.raises(ValueError):
        fp16.demote_shared_page()                 # all shared pages demoted
    fp16.promote_shared_page()
    with pytest.raises(ValueError):
        fp16.promote_shared_page()                # nothing left demoted


def test_promotion_page_need_matches_reclaim_delta(llama7b):
    mgr = _manager(llama7b)
    mgr.allocate(0, 96)
    for _ in range(6):
        mgr.convert_private_to_shared(0)
    for _ in range(6):
        mgr.demote_shared_page()
    for count in range(0, 8):
        need = mgr.promotion_page_need(count)
        take = min(count, mgr.demoted_pages)
        assert need == mgr._reclaimable(6) - mgr._reclaimable(6 - take)
    # Promoting everything hands back exactly the reclaimed capacity.
    total_need = mgr.promotion_page_need(6)
    assert total_need == mgr.reclaimed_pages


# ----------------------------------------------------------------------
# Prefix cache: demote-before-evict
# ----------------------------------------------------------------------
def test_demote_before_evict_preserves_blocks(llama7b):
    mgr = _manager(llama7b)
    cache = PrefixCache(mgr, demotion=True)
    request = _request(0, [(1, 64)])
    mgr.allocate(0, 64)
    cache.acquire(request, [])
    cache.insert(request)
    cache.release(0)
    free_before = mgr.free_pages
    got = cache.evict(2)
    assert got == 2
    assert mgr.free_pages == free_before + 2
    # Pressure was covered by demotion alone: every block survives.
    assert cache.cached_pages == 4
    assert cache.stats.evicted_pages == 0
    assert cache.stats.demoted_pages_total == mgr.demoted_pages > 0
    # A re-hit still finds the prefix, now charged as demoted tokens.
    twin = _request(1, [(1, 64), (2, 16)])
    nodes, tokens = cache.match(twin)
    assert tokens == 64
    cache.acquire(twin, nodes)
    assert twin.demoted_hit_tokens > 0
    assert cache.stats.promoted_pages_total > 0


def test_demotion_exhausted_falls_back_to_eviction(llama7b):
    mgr = _manager(llama7b)
    cache = PrefixCache(mgr, demotion=True)
    request = _request(0, [(1, 64)])
    mgr.allocate(0, 64)
    cache.acquire(request, [])
    cache.insert(request)
    cache.release(0)
    # 4 blocks can yield at most reclaimable(4) pages by demotion; asking
    # for more must evict the (already demoted) blocks too.
    got = cache.evict(4)
    assert got == 4
    assert cache.cached_pages == 0
    assert mgr.demoted_pages == 0                 # evicted demoted blocks
    assert mgr.used_pages == 0
    assert mgr.pages_allocated_total == mgr.pages_freed_total == 4
    assert mgr.double_free_count == 0


def test_referenced_blocks_never_demoted(llama7b):
    mgr = _manager(llama7b)
    cache = PrefixCache(mgr, demotion=True)
    holder = _request(0, [(1, 64)])
    mgr.allocate(0, 64)
    cache.acquire(holder, [])
    cache.insert(holder)
    assert cache.evict(2) == 0                    # all blocks referenced
    assert mgr.demoted_pages == 0
    cache.release(0)
    assert cache.evict(1) >= 1                    # now demotable


def test_demotion_disabled_cache_is_plain_lru(llama7b):
    mgr = _manager(llama7b)
    cache = PrefixCache(mgr)                      # demotion off (default)
    request = _request(0, [(1, 64)])
    mgr.allocate(0, 64)
    cache.acquire(request, [])
    cache.insert(request)
    cache.release(0)
    assert cache.evict(2) == 2
    assert mgr.demoted_pages == 0
    assert cache.stats.demoted_pages_total == 0
    assert cache.cached_pages == 2                # evicted, not demoted


def test_page_conservation_through_demote_promote_lifecycle(llama7b,
                                                            monkeypatch):
    """Acceptance: alloc/demote/promote/evict/free interleavings end with
    balanced lifetime counters and zero refcounts after drain."""
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["trt-fp16"],
                           max_seq_len=4096)
    capacity = 160 * engine.new_kv_manager().bytes_per_page()
    monkeypatch.setattr(engine, "kv_capacity_bytes", lambda: capacity)
    workload = make_chat_workload(num_sessions=6, turns_per_session=4,
                                  system_prompt_len=256, user_len=48,
                                  assistant_len=96, think_time_s=4.0, seed=5)
    stepper = EngineStepper(engine,
                            scheduling=SCHEDULING_PRESETS["prefix-demote"],
                            max_num_seqs=4)
    stepper.submit(workload.requests)
    stepper.run()
    result = stepper.result(workload)
    assert result.num_finished == 24
    assert result.prefix_stats.demoted_pages_total > 0
    kv = stepper.scheduler.kv_manager
    cache = stepper.prefix_cache
    # The lifetime ledger counts *physical* page grants; demotion shrinks
    # used_pages by the reclaimed capacity without touching the ledger.
    held = kv.pages_allocated_total - kv.pages_freed_total
    assert held == kv.shared_pages == cache.cached_pages
    assert kv.used_pages == held - kv.reclaimed_pages
    assert cache.total_ref_count == 0
    assert kv.double_free_count == 0
    assert 0 <= kv.demoted_pages <= kv.shared_pages
    cache.clear()
    assert kv.used_pages == 0 and kv.demoted_pages == 0
    assert kv.pages_allocated_total == kv.pages_freed_total > 0


# ----------------------------------------------------------------------
# Engine: dequant pricing and the demotion preset
# ----------------------------------------------------------------------
def test_dequant_and_transcode_latencies_scale(llama7b):
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["trt-fp16"])
    assert engine.kv_dequant_latency(0) == 0.0
    small, big = engine.kv_dequant_latency(64), engine.kv_dequant_latency(2048)
    assert 0.0 < small < big
    assert engine.kv_dequant_latency(64) == small       # memoized
    kv4 = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"])
    cross = kv4.kv_transcode_latency(1024, SYSTEM_PRESETS["trt-fp16"])
    assert cross > 0.0
    assert kv4.kv_transcode_latency(1024, SYSTEM_PRESETS["trt-fp16"]) == cross


def test_kv_demotion_requires_prefix_caching():
    with pytest.raises(ValueError, match="prefix_caching"):
        SchedulingConfig(kv_demotion=True)


def test_demote_preset_beats_plain_lru_under_pressure(llama7b, monkeypatch):
    """Acceptance sketch of claim (b): at equal HBM, demote-before-evict
    keeps more prefixes resident than plain LRU — higher hit rate — while
    still finishing every request with the dequant cost charged."""
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["trt-fp16"],
                           max_seq_len=4096)
    capacity = 96 * engine.new_kv_manager().bytes_per_page()
    monkeypatch.setattr(engine, "kv_capacity_bytes", lambda: capacity)
    workload = make_chat_workload(num_sessions=8, turns_per_session=4,
                                  system_prompt_len=192, user_len=32,
                                  assistant_len=64, think_time_s=6.0, seed=11)
    lru = engine.serve(workload.copy_fresh(), max_num_seqs=3,
                       scheduling=SCHEDULING_PRESETS["prefix"])
    demote = engine.serve(workload.copy_fresh(), max_num_seqs=3,
                          scheduling=SCHEDULING_PRESETS["prefix-demote"])
    assert lru.num_finished == demote.num_finished == 32
    assert demote.prefix_stats.demoted_pages_total > 0
    assert demote.prefix_stats.demoted_hit_tokens > 0
    assert demote.cache_hit_rate > lru.cache_hit_rate
    assert demote.prefix_stats.evicted_pages < lru.prefix_stats.evicted_pages


def test_demotion_off_is_bitwise_identical(llama7b, monkeypatch):
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["trt-fp16"],
                           max_seq_len=2048)
    capacity = 128 * engine.new_kv_manager().bytes_per_page()
    monkeypatch.setattr(engine, "kv_capacity_bytes", lambda: capacity)
    workload = make_shared_prefix_workload(12, shared_prefix_len=256,
                                           unique_len=64, output_len=16,
                                           num_prefix_groups=6,
                                           arrival_rate=2.0, seed=4)
    base = engine.serve(workload.copy_fresh(), max_num_seqs=2,
                        scheduling=SCHEDULING_PRESETS["prefix"])
    # KV4 systems support no demotion, so the demote preset is a no-op.
    kv4 = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                        max_seq_len=2048)
    monkeypatch.setattr(kv4, "kv_capacity_bytes", lambda: capacity)
    off = kv4.serve(workload.copy_fresh(), max_num_seqs=2,
                    scheduling=SCHEDULING_PRESETS["prefix"])
    on = kv4.serve(workload.copy_fresh(), max_num_seqs=2,
                   scheduling=SCHEDULING_PRESETS["prefix-demote"])
    assert on.total_time_s == off.total_time_s
    assert on.num_iterations == off.num_iterations
    assert on.metrics.ttft.p95 == off.metrics.ttft.p95
    assert on.prefix_stats.demoted_pages_total == 0
    assert base.num_finished == 12                # fp16 baseline sanity


# ----------------------------------------------------------------------
# Metrics: precision-aware SLO accounting
# ----------------------------------------------------------------------
def _metric(rid, floor, served):
    return RequestMetrics(request_id=rid, prompt_len=64, output_len=8,
                          arrival_time=0.0, first_token_time=0.1,
                          finish_time=0.5, precision_floor_bits=floor,
                          served_precision_bits=served)


def test_precision_ok_joins_slo():
    ok = _metric(0, 16.0, 16.0)
    violated = _metric(1, 16.0, 4.0)
    unfloored = _metric(2, 0.0, 4.0)
    assert ok.precision_ok and unfloored.precision_ok
    assert not violated.precision_ok
    assert ok.meets_slo(1.0, 1.0)
    assert not violated.meets_slo(1.0, 1.0)       # latency fine, quality not
    metrics = ServingMetrics(requests=[ok, violated, unfloored])
    assert metrics.precision_violations == 1
    assert metrics.slo_attainment(1.0, 1.0) == pytest.approx(2 / 3)


def test_served_precision_stamped_at_admission(llama7b):
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                           max_seq_len=1024)
    workload = make_mixed_precision_workload(num_requests=20, arrival_rate=8.0,
                                             seed=2)
    result = engine.serve(workload)
    served = {m.served_precision_bits for m in result.metrics.requests}
    assert served == {SYSTEM_PRESETS["qserve-w4a8kv4-chn"].min_precision_bits}
    floors = [m for m in result.metrics.requests if m.precision_floor_bits > 0]
    assert floors                                  # interactive tier exists
    assert result.metrics.precision_violations == len(floors)


def test_mixed_precision_workload_structure():
    wl = make_mixed_precision_workload(num_requests=50,
                                       interactive_fraction=0.4, seed=1)
    assert len(wl) == 50
    interactive = [r for r in wl.requests if r.precision_floor_bits > 0]
    batch = [r for r in wl.requests if r.precision_floor_bits == 0]
    assert interactive and batch
    assert all(r.prompt_len < batch[0].prompt_len for r in interactive)
    arrivals = [r.arrival_time for r in wl.requests]
    assert arrivals == sorted(arrivals)
    fresh = wl.copy_fresh()
    assert [r.precision_floor_bits for r in fresh.requests] == \
        [r.precision_floor_bits for r in wl.requests]
    with pytest.raises(ValueError):
        make_mixed_precision_workload(num_requests=0)


# ----------------------------------------------------------------------
# Heterogeneous fleets
# ----------------------------------------------------------------------
def test_uniform_systems_is_bitwise_identical_to_homogeneous(llama7b):
    base = ClusterEngine(llama7b, A100, get_system("trt-fp16"), 3)
    uniform = ClusterEngine(llama7b, A100, get_system("trt-fp16"), 3,
                            systems=["trt-fp16"] * 3)
    assert not uniform.heterogeneous
    assert all(engine is uniform.engine for engine in uniform.engines)
    workload = make_mixed_precision_workload(num_requests=40,
                                             arrival_rate=6.0, seed=3)
    r0 = base.serve(workload.copy_fresh())
    r1 = uniform.serve(workload.copy_fresh())
    assert r1.replica_systems == ["trt-fp16"] * 3
    assert r1.total_time_s == r0.total_time_s
    for a, b in zip(r0.metrics.requests, r1.metrics.requests):
        assert (a.ttft, a.finish_time) == (b.ttft, b.finish_time)


def test_heterogeneous_fleet_shares_engines_per_preset(llama7b):
    fleet = ClusterEngine(llama7b, A100, get_system("trt-fp16"), 4,
                          systems=["trt-fp16", "qserve-w4a8kv4-chn",
                                   "trt-fp16", "qserve-w4a8kv4-chn"])
    assert fleet.heterogeneous
    assert fleet.engines[0] is fleet.engines[2] is fleet.engine
    assert fleet.engines[1] is fleet.engines[3]
    assert fleet.engines[1] is not fleet.engine
    with pytest.raises(ValueError, match="entries"):
        ClusterEngine(llama7b, A100, get_system("trt-fp16"), 2,
                      systems=["trt-fp16"])


def test_heterogeneous_fleet_keys_engines_by_config_not_name(llama7b):
    """A config that only borrows another preset's name gets its own engine."""
    qserve = get_system("qserve-w4a8kv4-chn")
    fp16 = replace(get_system("trt-fp16"), name=qserve.name)
    fleet = ClusterEngine(llama7b, A100, qserve, 2, systems=[fp16, qserve])
    assert fleet.engines[0].system is fp16
    assert (fleet.engines[0].system.weight_bits,
            fleet.engines[0].system.kv_bits) == (16, 16)
    assert fleet.engines[1] is fleet.engine
    assert fleet.engines[0] is not fleet.engine


def test_kv_transcode_memo_keys_on_the_source_config(llama7b):
    """Two source configs that share a name are priced separately."""
    kv4 = ServingEngine(llama7b, A100, get_system("qserve-w4a8kv4-chn"))
    fp16 = get_system("trt-fp16")
    kv8 = replace(get_system("trt-w8a8"), name=fp16.name)
    from_fp16 = kv4.kv_transcode_latency(1024, fp16)
    from_kv8 = kv4.kv_transcode_latency(1024, kv8)
    assert from_kv8 < from_fp16                 # half the bytes to read
    assert kv4.kv_transcode_latency(1024, fp16) == from_fp16
    assert kv4.kv_transcode_latency(1024, kv8) == from_kv8


def test_precision_aware_router_honors_floors_and_tiers(llama7b):
    fleet = ClusterEngine(llama7b, A100, get_system("trt-fp16"), 4,
                          systems=["trt-fp16", "trt-fp16",
                                   "qserve-w4a8kv4-chn", "qserve-w4a8kv4-chn"])
    workload = make_mixed_precision_workload(num_requests=60,
                                             arrival_rate=6.0, seed=7)
    result = fleet.serve(workload, router="precision-aware")
    assert result.num_finished == 60
    assert result.metrics.precision_violations == 0
    # Floored requests all landed on fp16 replicas; batch traffic on kv4.
    floors = [m for m in result.metrics.requests
              if m.precision_floor_bits > 0]
    assert floors
    assert all(m.served_precision_bits == 16.0 for m in floors)
    batch = [m for m in result.metrics.requests
             if m.precision_floor_bits == 0]
    assert all(m.served_precision_bits == 4.0 for m in batch)
    assert sum(result.requests_per_replica[2:]) == len(batch)


def test_precision_aware_router_degrades_on_homogeneous_fleet(llama7b):
    fleet = ClusterEngine(llama7b, A100, get_system("trt-fp16"), 2)
    workload = make_mixed_precision_workload(num_requests=30,
                                             arrival_rate=6.0, seed=5)
    aware = fleet.serve(workload.copy_fresh(), router="precision-aware")
    lor = fleet.serve(workload.copy_fresh(), router="least-outstanding")
    assert aware.requests_per_replica == lor.requests_per_replica
    assert aware.total_time_s == lor.total_time_s


def test_cross_precision_transfer_reprices_payload(llama7b):
    het = ClusterEngine(llama7b, A100, get_system("trt-fp16"), 2,
                        systems=["trt-fp16", "qserve-w4a8kv4-chn"],
                        roles=["prefill", "decode"], transfer_overlap=False)
    fp16, kv4 = het.engines
    request = Request(request_id=0, prompt_len=1024, output_len=64)
    same = het.transfer_delay(request, source=fp16, target=fp16)
    cross = het.transfer_delay(request, source=fp16, target=kv4)
    reverse = het.transfer_delay(request, source=kv4, target=fp16)
    # Same payload on the wire, plus the landing replica's transcode.
    assert cross - same == pytest.approx(
        kv4.kv_transcode_latency(1024, fp16.system))
    # A KV4 exporter ships 4x fewer bytes even counting the transcode.
    assert reverse < same
    # Defaulted engines price exactly as the homogeneous path did.
    assert het.transfer_delay(request) == same


def test_heterogeneous_disaggregated_end_to_end(llama7b):
    het = ClusterEngine(llama7b, A100, get_system("trt-fp16"), 2,
                        systems=["trt-fp16", "qserve-w4a8kv4-chn"],
                        roles=["prefill", "decode"])
    workload = make_mixed_precision_workload(num_requests=30,
                                             arrival_rate=4.0, seed=9)
    result = het.serve(workload, router="disaggregated")
    assert result.num_finished == 30
    assert result.num_migrations == 30
    assert result.replica_systems == ["trt-fp16", "qserve-w4a8kv4-chn"]
    migrated = [m for m in result.metrics.requests if m.migrations > 0]
    assert all(m.transfer_delay_s > 0 for m in migrated)
    # Decode happens on the KV4 tier, so that is the precision served.
    assert all(m.served_precision_bits == 4.0 for m in migrated)
