"""Tests for the speculative decoding subsystem: acceptance profiles and
seeded per-request sampling, draft/verify cost pricing, optimistic KV claims
with trim-on-reject rollback, multi-token scheduler commits, engine and
cluster integration, run determinism, and page conservation across
accept/reject/preempt interleavings."""

import numpy as np
import pytest

from repro.gpu import A100
from repro.model import get_config
from repro.serving import (
    ACCEPTANCE_PROFILES,
    AcceptanceProfile,
    AcceptanceSampler,
    ClusterEngine,
    EngineStepper,
    ParallelConfig,
    Request,
    SCHEDULING_PRESETS,
    SYSTEM_PRESETS,
    ServingEngine,
    SpeculativeConfig,
    SpeculativeDecoder,
    Workload,
    get_acceptance_profile,
    make_shared_prefix_workload,
    make_uniform_workload,
)


@pytest.fixture(scope="module")
def llama7b():
    return get_config("llama-2-7b")


@pytest.fixture(scope="module")
def draft():
    return get_config("llama-160m")


def _engine(llama7b, max_seq_len=1024):
    return ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                         max_seq_len=max_seq_len)


def _spec(draft, **kwargs):
    kwargs.setdefault("profile", "low-entropy")
    return SpeculativeConfig(draft_model=draft, **kwargs)


# ----------------------------------------------------------------------
# Profiles and config validation
# ----------------------------------------------------------------------
def test_acceptance_profile_validation():
    with pytest.raises(ValueError):
        AcceptanceProfile("bad", base_rate=1.0)
    with pytest.raises(ValueError):
        AcceptanceProfile("bad", base_rate=0.5, position_decay=0.0)
    with pytest.raises(ValueError):
        AcceptanceProfile("bad", base_rate=0.5, rate_jitter=-0.1)
    with pytest.raises(KeyError):
        get_acceptance_profile("nonexistent")
    assert get_acceptance_profile("chat") is ACCEPTANCE_PROFILES["chat"]


def test_speculative_config_validation(draft):
    with pytest.raises(ValueError):
        SpeculativeConfig(draft_model=draft, lookahead=0)
    with pytest.raises(ValueError):
        SpeculativeConfig(draft_model=draft, min_lookahead=4, max_lookahead=2)
    with pytest.raises(ValueError):
        SpeculativeConfig(draft_model=draft, lookahead=9, max_lookahead=8)
    for field, bad in (("lookahead", 2.5), ("lookahead", True),
                       ("max_lookahead", 8.5), ("min_lookahead", 1.0)):
        with pytest.raises(ValueError, match=field):
            SpeculativeConfig(draft_model=draft, **{field: bad})
    config = SpeculativeConfig(draft_model=draft, profile="code",
                               draft_system="trt-w4a16")
    assert config.resolved_profile().name == "code"
    assert config.resolved_system().name == "trt-w4a16"


# ----------------------------------------------------------------------
# Acceptance sampler
# ----------------------------------------------------------------------
def test_sampler_seeded_and_per_request():
    profile = ACCEPTANCE_PROFILES["chat"]
    a = AcceptanceSampler(profile, seed=7)
    b = AcceptanceSampler(profile, seed=7)
    draws_a = [a.sample(3, 4) for _ in range(50)]
    draws_b = [b.sample(3, 4) for _ in range(50)]
    assert draws_a == draws_b                       # same seed, same stream
    assert all(0 <= d <= 4 for d in draws_a)
    assert a.sample(3, 0) == 0
    # Independent per-request streams: another id draws differently, and the
    # jittered per-request rates stay clipped to (0, 1).
    c = AcceptanceSampler(profile, seed=7)
    assert [c.sample(4, 4) for _ in range(50)] != draws_a
    rates = [AcceptanceSampler(profile, seed=1).request_rate(i)
             for i in range(100)]
    assert all(0.02 <= r <= 0.98 for r in rates)
    assert len(set(rates)) > 10                     # genuinely jittered


def test_sampler_acceptance_tracks_profile():
    k = 6
    means = {}
    for name in ("high-entropy", "chat", "low-entropy"):
        sampler = AcceptanceSampler(ACCEPTANCE_PROFILES[name], seed=0)
        draws = [sampler.sample(i, k) for i in range(200) for _ in range(5)]
        means[name] = np.mean(draws)
    assert means["high-entropy"] < means["chat"] < means["low-entropy"]


# ----------------------------------------------------------------------
# Cost pricing
# ----------------------------------------------------------------------
def test_verify_step_reuses_chunk_path_plus_full_lm_head(llama7b):
    engine = _engine(llama7b)
    verify = [(5, 512)] * 8
    step = engine.speculative_verify_step(verify)
    base = engine.mixed_step(list(verify), 0, 0)
    lm = engine._lm_head_latency(40) / engine.system.runtime_efficiency
    assert step.total == pytest.approx(base.total + lm)
    assert step.attention == base.attention
    # More drafted tokens per request cost more to verify.
    deeper = engine.speculative_verify_step([(9, 512)] * 8)
    assert deeper.total > step.total
    with pytest.raises(ValueError):
        engine.speculative_verify_step([])


def test_draft_reservation_shrinks_kv_pool(llama7b, draft):
    engine = _engine(llama7b)
    plain = EngineStepper(engine)
    spec = EngineStepper(engine, speculative=_spec(draft))
    assert spec.scheduler.kv_manager.total_pages < plain.scheduler.kv_manager.total_pages
    # A draft that is bigger on both axes (weights *and* KV bytes per token)
    # reserves more: llama-68m vs tinyllama-1.1b.
    small = EngineStepper(engine, speculative=_spec(get_config("llama-68m")))
    bigger = EngineStepper(engine, speculative=_spec(get_config("tinyllama-1.1b")))
    assert bigger.scheduler.kv_manager.total_pages < small.scheduler.kv_manager.total_pages
    # The replicated draft holds weights *and* shadow KV on every GPU of a
    # TP group, so at tp > 1 the target's share of the pool shrinks further.
    decoder = spec.spec
    tp2_engine = ServingEngine(llama7b, A100,
                               SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                               max_seq_len=1024,
                               parallel=ParallelConfig(tp_degree=2))
    tp2 = SpeculativeDecoder(tp2_engine, decoder.config)
    base = 10.0 * (1 << 30)
    assert tp2.usable_kv_capacity(base) < decoder.usable_kv_capacity(base)


# ----------------------------------------------------------------------
# KV manager trim (speculative rollback)
# ----------------------------------------------------------------------
def test_trim_releases_rejected_pages(llama7b):
    from repro.serving import PagedKVCacheManager, get_system
    mgr = PagedKVCacheManager(model=llama7b,
                              system=get_system("qserve-w4a8kv4-chn"),
                              capacity_bytes=1 << 30, page_size=16,
                              max_seq_len=1024)
    mgr.allocate(0, 16 * 10)                      # 10 pages: context + draft
    assert mgr.trim(0, 16 * 7) == 3               # verification kept 7 pages
    assert mgr.used_pages == 7
    assert mgr.trim(0, 16 * 7) == 0               # idempotent
    assert mgr.trim(0, 16 * 9) == 0               # never grows
    assert mgr.pages_allocated_total == 10
    assert mgr.pages_freed_total == 3
    mgr.free(0)
    assert mgr.pages_allocated_total == mgr.pages_freed_total == 10
    assert mgr.double_free_count == 0


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
def test_high_acceptance_cuts_mean_tpot(llama7b, draft):
    """Acceptance criterion: at a high-acceptance profile, speculation beats
    the non-speculative baseline on mean TPOT at equal hardware."""
    engine = _engine(llama7b)
    workload = make_uniform_workload(16, prompt_len=512, output_len=256)
    base = engine.serve(workload.copy_fresh(), max_num_seqs=8,
                        scheduling=SCHEDULING_PRESETS["chunked"])
    spec = engine.serve(workload.copy_fresh(), max_num_seqs=8,
                        scheduling=SCHEDULING_PRESETS["chunked"],
                        speculative=_spec(draft, lookahead=4))
    assert spec.generated_tokens == base.generated_tokens == 16 * 256
    assert spec.num_finished == 16
    assert spec.metrics.tpot.mean < base.metrics.tpot.mean
    assert spec.tokens_per_iteration > base.tokens_per_iteration
    stats = spec.spec_stats
    assert stats is not None
    assert 0.0 < stats.acceptance_rate <= 1.0
    assert stats.mean_accepted_per_step > 0.0
    assert stats.speedup > 1.0
    assert stats.committed_tokens == spec.generated_tokens
    assert base.spec_stats is None
    # Per-request counters surface in the metrics.
    assert spec.metrics.acceptance_rate == pytest.approx(stats.acceptance_rate)
    assert spec.metrics.draft_proposed_tokens == stats.proposed_tokens


def test_speculation_works_under_legacy_stall_prefill(llama7b, draft):
    engine = _engine(llama7b, max_seq_len=512)
    workload = make_uniform_workload(4, prompt_len=128, output_len=64)
    result = engine.serve(workload, max_num_seqs=4,
                          speculative=_spec(draft))
    assert result.num_finished == 4
    assert result.generated_tokens == 4 * 64
    assert result.spec_stats.spec_steps > 0


def test_default_off_is_unperturbed_by_speculative_runs(llama7b, draft):
    """A speculative run leaves no state behind: baseline results before and
    after are identical ServingResults (dataclass equality, exact floats)."""
    engine = _engine(llama7b)
    workload = make_uniform_workload(8, prompt_len=256, output_len=64,
                                     arrival_rate=100.0, seed=3)
    before = engine.serve(workload.copy_fresh(), max_num_seqs=4,
                          scheduling=SCHEDULING_PRESETS["chunked"])
    engine.serve(workload.copy_fresh(), max_num_seqs=4,
                 scheduling=SCHEDULING_PRESETS["chunked"],
                 speculative=_spec(draft))
    after = engine.serve(workload.copy_fresh(), max_num_seqs=4,
                         scheduling=SCHEDULING_PRESETS["chunked"])
    assert before == after


def test_two_identical_speculative_runs_are_identical(llama7b, draft,
                                                      monkeypatch):
    """Determinism: the acceptance sampler is the only stochastic serving
    component and it is explicitly seeded, so two identical runs — here with
    adaptive lookahead, chunked prefill *and* preemption in play — produce
    identical ServingResults."""
    engine = _engine(llama7b, max_seq_len=1536)
    monkeypatch.setattr(engine, "kv_capacity_bytes", lambda: 1.2 * (1 << 30))
    workload = make_uniform_workload(12, prompt_len=1024, output_len=256,
                                     arrival_rate=40.0, seed=5)
    config = _spec(draft, lookahead=4, adaptive=True, profile="chat", seed=11)
    runs = [engine.serve(workload.copy_fresh(), max_num_seqs=12,
                         scheduling=SCHEDULING_PRESETS["chunked-preempt"],
                         speculative=config)
            for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0].spec_stats.spec_steps > 0


def test_zero_output_rejected_and_single_token_decodes_plainly(llama7b, draft):
    """Edge cases of multi-token commits: zero-output requests are rejected
    at the boundary, and a single-token request inside a speculative batch
    never drafts (lookahead clamps to 0) yet finishes in one commit."""
    with pytest.raises(ValueError):
        Request(request_id=0, prompt_len=16, output_len=0)
    engine = _engine(llama7b, max_seq_len=512)
    one = Request(request_id=0, prompt_len=128, output_len=1)
    many = Request(request_id=1, prompt_len=128, output_len=64)
    result = engine.serve(Workload(requests=[one, many]), max_num_seqs=2,
                          scheduling=SCHEDULING_PRESETS["chunked"],
                          speculative=_spec(draft, lookahead=8))
    assert result.num_finished == 2
    assert one.generated == 1 and one.spec_steps == 0
    assert one.draft_proposed == 0
    assert many.generated == 64 and many.spec_steps > 0


def test_commits_never_overshoot_output_len(llama7b, draft):
    engine = _engine(llama7b, max_seq_len=512)
    requests = [Request(request_id=i, prompt_len=64, output_len=3 + i)
                for i in range(4)]
    result = engine.serve(Workload(requests=requests), max_num_seqs=4,
                          scheduling=SCHEDULING_PRESETS["chunked"],
                          speculative=_spec(draft, lookahead=8))
    assert result.num_finished == 4
    for request in requests:
        assert request.generated == request.output_len
    assert result.generated_tokens == sum(3 + i for i in range(4))


def test_stepper_horizon_with_speculation(llama7b, draft):
    """Horizon handling is unchanged by speculation: an idle stepper never
    jumps past the horizon to a later arrival, and a bounded run_until only
    overshoots by atomic iterations."""
    engine = _engine(llama7b, max_seq_len=512)
    stepper = EngineStepper(engine, scheduling=SCHEDULING_PRESETS["chunked"],
                            speculative=_spec(draft))
    stepper.submit([Request(request_id=0, prompt_len=64, output_len=32,
                            arrival_time=5.0)])
    assert stepper.step(horizon=1.0) is False
    assert stepper.now == 0.0
    assert stepper.step(horizon=10.0) is True
    assert stepper.now == 5.0
    stepper.submit([Request(request_id=1, prompt_len=64, output_len=1,
                            arrival_time=1000.0)])
    stepper.run_until(6.0)
    # The first request's work may overshoot 6.0 (iterations are atomic) but
    # the idle jump to t=1000 must not have happened.
    assert stepper.now < 1000.0
    stepper.run()
    assert stepper.done
    assert stepper.generated == 32 + 1


def test_draft_prefill_catchup_is_priced(llama7b, draft):
    """The draft's shadow KV is never free: the first speculative iteration
    pays a draft prefill of the whole context, steady state pays a one-token
    catch-up, and a preemption forces a full draft rebuild."""
    engine = _engine(llama7b)
    decoder = SpeculativeDecoder(engine, _spec(draft, lookahead=4))
    request = Request(request_id=0, prompt_len=512, output_len=256)
    request.generated = 1
    first = decoder.run_iteration([request], [])
    request.generated += first.commits[0]
    second = decoder.run_iteration([request], [])
    assert first.latency_s > second.latency_s      # 512-token draft prefill
    # Preemption reclaims the draft's shadow KV with the target's pages, so
    # the next speculation pays the full draft rebuild again.
    request.generated += second.commits[0]
    request.preemptions += 1
    third = decoder.run_iteration([request], [])
    assert third.latency_s > second.latency_s


def test_chunked_budget_charges_speculative_rows(llama7b):
    """The chunked planner's per-iteration token budget must count a
    speculating request as its whole verified block (lookahead + 1 rows),
    not as one token — otherwise speculation silently blows the cap."""
    from repro.serving import (ChunkedPrefillPlanner,
                               ContinuousBatchingScheduler,
                               PagedKVCacheManager, get_system)
    mgr = PagedKVCacheManager(model=llama7b,
                              system=get_system("qserve-w4a8kv4-chn"),
                              capacity_bytes=1 << 30, page_size=16,
                              max_seq_len=1024)
    scheduler = ContinuousBatchingScheduler(kv_manager=mgr, max_num_seqs=8)
    decoding = Request(request_id=0, prompt_len=64, output_len=64)
    prefilling = Request(request_id=1, prompt_len=256, output_len=16)
    scheduler.submit([decoding, prefilling])
    scheduler.admit(now=0.0)
    scheduler.record_prefill(decoding, 64, now=0.0)
    planner = ChunkedPrefillPlanner(token_budget=16)
    plan = planner.plan(scheduler, [])
    assert plan.prefill_chunks[0][1] == 15           # 16 - 1 decode token
    planner.decode_token_weight = lambda r: 5        # k=4 speculation
    plan = planner.plan(scheduler, [])
    assert plan.prefill_chunks[0][1] == 11           # 16 - (4 + 1) rows
    # The stepper binds the weight automatically when speculation is on.
    draft = get_config("llama-160m")
    stepper = EngineStepper(_engine(llama7b),
                            scheduling=SCHEDULING_PRESETS["chunked"],
                            speculative=_spec(draft, lookahead=4))
    assert stepper.planner.decode_token_weight is not None
    assert EngineStepper(_engine(llama7b),
                         scheduling=SCHEDULING_PRESETS["chunked"]
                         ).planner.decode_token_weight is None


# ----------------------------------------------------------------------
# Page conservation and prefix-cache invariants
# ----------------------------------------------------------------------
def test_page_conservation_across_accept_reject_preempt(llama7b, draft,
                                                        monkeypatch):
    """Speculative claims, trims and preemptions interleave without leaking
    or double-freeing a single page."""
    engine = _engine(llama7b, max_seq_len=1536)
    monkeypatch.setattr(engine, "kv_capacity_bytes", lambda: 1.1 * (1 << 30))
    stepper = EngineStepper(engine,
                            scheduling=SCHEDULING_PRESETS["chunked-preempt"],
                            speculative=_spec(draft, lookahead=4,
                                              profile="chat"))
    workload = make_uniform_workload(12, prompt_len=1024, output_len=256)
    stepper.submit(list(workload.requests))
    stepper.run()
    result = stepper.result(workload)
    assert result.num_finished == 12
    assert result.num_preemptions > 0              # pressure actually fired
    assert result.spec_stats.accepted_tokens < result.spec_stats.proposed_tokens
    kv = stepper.scheduler.kv_manager
    assert kv.used_pages == 0
    assert kv.pages_allocated_total == kv.pages_freed_total > 0
    assert kv.double_free_count == 0


def test_speculation_respects_prefix_cache_refcounts(llama7b, draft):
    """Speculated-token pages are private growth past the shared prefix, so
    trim-on-reject can never touch a ref-counted shared block."""
    engine = _engine(llama7b, max_seq_len=1024)
    workload = make_shared_prefix_workload(12, shared_prefix_len=256,
                                           unique_len=64, output_len=48,
                                           arrival_rate=30.0, seed=4)
    stepper = EngineStepper(engine,
                            scheduling=SCHEDULING_PRESETS["prefix-preempt"],
                            speculative=_spec(draft, lookahead=4))
    stepper.submit(list(workload.requests))
    stepper.run()
    result = stepper.result(workload)
    assert result.num_finished == 12
    assert result.cache_hit_rate > 0.0
    assert result.spec_stats.spec_steps > 0
    kv = stepper.scheduler.kv_manager
    cache = stepper.prefix_cache
    assert cache.total_ref_count == 0
    # Shared blocks survive the run; everything else returned to the pool.
    assert kv.used_pages == kv.shared_pages == cache.cached_pages
    assert kv.pages_allocated_total - kv.pages_freed_total == kv.used_pages
    assert kv.double_free_count == 0


# ----------------------------------------------------------------------
# Adaptive (acceptance-aware) lookahead
# ----------------------------------------------------------------------
def test_adaptive_lookahead_tracks_acceptance(llama7b, draft):
    engine = _engine(llama7b)
    grow = SpeculativeDecoder(engine, _spec(
        draft, lookahead=2, adaptive=True, max_lookahead=8, seed=0,
        profile=AcceptanceProfile("sure", base_rate=0.98,
                                  position_decay=0.999)))
    shrink = SpeculativeDecoder(engine, _spec(
        draft, lookahead=8, adaptive=True, max_lookahead=8, seed=1,
        profile=AcceptanceProfile("hopeless", base_rate=0.02)))
    request = Request(request_id=0, prompt_len=64, output_len=512)
    request.generated = 1
    grow_ks, shrink_ks = [], []
    for _ in range(15):
        grow_ks.append(grow.lookahead_for(request))
        grow.run_iteration([request], [])
        shrink_ks.append(shrink.lookahead_for(request))
        shrink.run_iteration([request], [])
    assert max(grow_ks) == 8                       # climbed to the cap
    assert grow_ks[-1] > grow_ks[0]
    assert min(shrink_ks) == 1                     # collapsed to the floor
    assert shrink_ks[-1] < shrink_ks[0]
    static = SpeculativeDecoder(engine, _spec(draft, lookahead=4))
    assert static.lookahead_for(request) == 4
    # Clamp: one token remaining means no drafting at all.
    request.generated = request.output_len - 1
    assert grow.lookahead_for(request) == 0


# ----------------------------------------------------------------------
# Cluster integration
# ----------------------------------------------------------------------
def test_cluster_speculation_on_mixed_replicas(llama7b, draft):
    cluster = ClusterEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                            num_replicas=2, max_seq_len=1024)
    workload = make_uniform_workload(12, prompt_len=256, output_len=64,
                                     arrival_rate=50.0, seed=2)
    result = cluster.serve(workload, router="least-outstanding",
                           max_num_seqs=4,
                           scheduling=SCHEDULING_PRESETS["chunked"],
                           speculative=_spec(draft))
    assert result.num_finished == 12
    assert result.acceptance_rate > 0.0
    assert all(r.spec_stats is not None for r in result.replica_results)


def test_disaggregated_speculation_runs_on_decode_tier_only(llama7b, draft):
    roles = ["prefill", "decode", "decode"]
    cluster = ClusterEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                            num_replicas=3, max_seq_len=1024, roles=roles)
    workload = make_uniform_workload(12, prompt_len=256, output_len=64,
                                     arrival_rate=50.0, seed=2)
    result = cluster.serve(workload, router="disaggregated", max_num_seqs=4,
                           scheduling=SCHEDULING_PRESETS["chunked"],
                           speculative=_spec(draft))
    assert result.num_finished == 12
    assert result.num_migrations == 12
    assert result.acceptance_rate > 0.0
    prefill_result = result.replica_results[0]
    assert prefill_result.spec_stats is None       # prefill tier hosts no draft
    decode_stats = [r.spec_stats for r in result.replica_results[1:]]
    assert all(s is not None for s in decode_stats)
    assert sum(s.committed_tokens for s in decode_stats) == 12 * 64
