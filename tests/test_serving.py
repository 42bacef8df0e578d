"""Tests for the serving simulator: KV manager, scheduler, engine, throughput,
scheduling policies, chunked prefill, preemption, workload generators and
latency metrics."""

import numpy as np
import pytest

from repro.gpu import A100, L40S
from repro.model import get_config
from repro.serving import (
    ContinuousBatchingScheduler,
    LEGACY_SCHEDULING,
    LatencySummary,
    PageAllocationError,
    PagedKVCacheManager,
    ParallelConfig,
    Request,
    RequestMetrics,
    RequestState,
    SCHEDULING_PRESETS,
    SchedulingConfig,
    ServingEngine,
    ServingMetrics,
    SYSTEM_PRESETS,
    get_policy,
    get_system,
    make_bursty_workload,
    make_lognormal_workload,
    make_uniform_workload,
    max_achievable_batch,
    max_achievable_throughput,
    measure_throughput,
)


@pytest.fixture(scope="module")
def llama7b():
    return get_config("llama-2-7b")


def _manager(model, system="qserve-w4a8kv4-chn", capacity_gib=10.0):
    return PagedKVCacheManager(model=model, system=get_system(system),
                               capacity_bytes=capacity_gib * (1 << 30),
                               page_size=16, max_seq_len=1536)


# ----------------------------------------------------------------------
# KV cache manager
# ----------------------------------------------------------------------
def test_kv_bytes_per_token_scales_with_precision(llama7b):
    kv4 = _manager(llama7b, "qserve-w4a8kv4-chn").bytes_per_token()
    kv8 = _manager(llama7b, "trt-w8a8").bytes_per_token()
    kv16 = _manager(llama7b, "trt-fp16").bytes_per_token()
    assert kv4 < kv8 < kv16
    assert kv16 == pytest.approx(2 * 32 * 32 * 128 * 2)  # 2 * layers * kv_dim * 2B


def test_page_allocation_and_free(llama7b):
    mgr = _manager(llama7b)
    assert mgr.free_pages == mgr.total_pages
    pages = mgr.allocate(0, 100)
    assert pages == mgr.pages_for_tokens(100) == 7
    assert mgr.allocate(0, 100) == 0            # idempotent growth
    assert mgr.allocate(0, 120) == 1            # grow by one page
    assert mgr.used_pages == 8
    assert mgr.free(0) == 8
    assert mgr.used_pages == 0


def test_page_allocation_error_when_full(llama7b):
    mgr = _manager(llama7b, capacity_gib=0.001)
    with pytest.raises(PageAllocationError):
        mgr.allocate(0, 10_000)


@pytest.mark.parametrize("field, value", [
    ("page_size", True), ("page_size", 8.5), ("page_size", 0),
    ("page_size", -16), ("max_seq_len", 0), ("max_seq_len", -5),
    ("max_seq_len", 2.5), ("capacity_bytes", float("nan")),
    ("capacity_bytes", float("inf")), ("capacity_bytes", -1.0),
])
def test_kv_manager_rejects_bad_geometry(llama7b, field, value):
    kwargs = dict(model=llama7b, system=get_system("qserve-w4a8kv4-chn"),
                  capacity_bytes=1 << 30, page_size=16, max_seq_len=1536)
    kwargs[field] = value
    with pytest.raises(ValueError, match=field):
        PagedKVCacheManager(**kwargs)


def _kv_state(mgr):
    return (mgr.free_pages, mgr.used_pages, mgr.pages_allocated_total,
            dict(mgr._allocated))


def test_claim_next_pages_grows_each_request_by_one_page(llama7b):
    mgr = _manager(llama7b)
    mgr.allocate(0, 16)
    mgr.allocate(1, 40)
    assert mgr.claim_next_pages([0, 1]) == 2
    assert mgr.allocated_tokens_capacity(0) == 32
    assert mgr.allocated_tokens_capacity(1) == 64
    assert mgr.used_pages == 6 and mgr.pages_allocated_total == 6
    assert mgr.claim_next_pages([]) == 0
    assert mgr.free(0) + mgr.free(1) == mgr.pages_allocated_total


def test_claim_next_pages_refuses_and_changes_nothing(llama7b):
    page_gib = _manager(llama7b).bytes_per_page() / (1 << 30)
    mgr = _manager(llama7b, capacity_gib=5 * page_gib)   # five pages
    mgr.allocate(0, 16)
    mgr.allocate(1, 32)
    before = _kv_state(mgr)
    with pytest.raises(ValueError, match="request 7"):
        mgr.claim_next_pages([0, 7])     # 7 holds no allocation
    assert _kv_state(mgr) == before
    assert 7 not in mgr._allocated
    mgr.allocate(2, 16)
    assert mgr.free_pages == 1
    before = _kv_state(mgr)
    with pytest.raises(PageAllocationError):
        mgr.claim_next_pages([0, 1])     # two pages, one free
    assert _kv_state(mgr) == before


def test_non_paged_system_reserves_max_seq(llama7b):
    paged = _manager(llama7b, "qserve-w4a8kv4-chn")
    non_paged = _manager(llama7b, "quarot-w4a4")
    assert non_paged.pages_for_tokens(10) == non_paged.pages_for_tokens(1000)
    assert paged.pages_for_tokens(10) < paged.pages_for_tokens(1000)


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------
def test_scheduler_admission_and_completion(llama7b):
    mgr = _manager(llama7b, capacity_gib=4.0)
    sched = ContinuousBatchingScheduler(kv_manager=mgr, max_num_seqs=4)
    requests = [Request(request_id=i, prompt_len=64, output_len=4) for i in range(6)]
    sched.submit(requests)
    admitted = sched.admit(now=0.0)
    assert len(admitted) == 4                    # capped by max_num_seqs
    for request in sched.prefilling_requests():
        sched.record_prefill(request, request.prefill_remaining, now=1.0)
    for step in range(4):
        sched.record_decode_step(now=2.0 + step)
    assert len(sched.finished) == 4
    assert mgr.used_pages == 0 or len(sched.running) == 0
    # The remaining two requests can now be admitted.
    admitted = sched.admit(now=10.0)
    assert len(admitted) == 2


def test_scheduler_respects_arrival_times(llama7b):
    mgr = _manager(llama7b)
    sched = ContinuousBatchingScheduler(kv_manager=mgr, max_num_seqs=8)
    sched.submit([Request(request_id=0, prompt_len=8, output_len=1, arrival_time=5.0)])
    assert sched.admit(now=0.0) == []
    assert len(sched.admit(now=6.0)) == 1


# ----------------------------------------------------------------------
# Engine and throughput
# ----------------------------------------------------------------------
def test_decode_step_breakdown_attention_grows_with_batch(llama7b):
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["trt-w8a8"])
    small = engine.decode_step(1, 1024)
    large = engine.decode_step(64, 1024)
    assert large.total > small.total
    assert large.fraction("attention") > small.fraction("attention")
    assert large.fraction("attention") > 0.5   # Figure 2a: >50% at batch 64


def test_prefill_latency_scales_with_tokens(llama7b):
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["trt-w8a8"])
    assert engine.prefill(4, 1024).total > engine.prefill(1, 1024).total


def test_serving_loop_generates_all_tokens(llama7b):
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                           max_seq_len=160)
    workload = make_uniform_workload(4, prompt_len=128, output_len=32)
    result = engine.serve(workload, max_num_seqs=4)
    assert result.generated_tokens == 4 * 32
    assert result.peak_batch == 4
    assert result.generation_throughput > 0


def test_max_batch_ordering_across_systems(llama7b):
    batches = {name: max_achievable_batch(llama7b, A100, SYSTEM_PRESETS[name])
               for name in ("trt-fp16", "trt-w8a8", "qserve-w4a8kv4-chn")}
    assert batches["trt-fp16"] < batches["trt-w8a8"] < batches["qserve-w4a8kv4-chn"]


def test_fp16_oom_for_70b_on_both_gpus():
    cfg = get_config("llama-2-70b")
    assert max_achievable_batch(cfg, A100, SYSTEM_PRESETS["trt-fp16"]) == 0
    assert max_achievable_batch(cfg, L40S, SYSTEM_PRESETS["trt-fp16"]) == 0
    assert max_achievable_throughput(cfg, L40S, SYSTEM_PRESETS["trt-fp16"]).tokens_per_second == 0
    # QServe still serves the 70B model on the 48 GB L40S.
    assert max_achievable_batch(cfg, L40S, SYSTEM_PRESETS["qserve-w4a8kv4-chn"]) > 0


def test_qserve_beats_best_trt_throughput(llama7b):
    best_trt = max(
        max_achievable_throughput(llama7b, gpu, SYSTEM_PRESETS[name]).tokens_per_second
        for gpu in (A100,) for name in ("trt-fp16", "trt-w4a16", "trt-w8a8"))
    qserve = max_achievable_throughput(
        llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"]).tokens_per_second
    assert qserve > best_trt * 1.1


def test_w4a4_systems_slower_than_trt_w8a8(llama7b):
    w8a8 = max_achievable_throughput(llama7b, A100, SYSTEM_PRESETS["trt-w8a8"])
    for name in ("atom-w4a4", "quarot-w4a4"):
        result = max_achievable_throughput(llama7b, A100, SYSTEM_PRESETS[name])
        assert result.tokens_per_second < w8a8.tokens_per_second


def test_measure_throughput_validation(llama7b):
    with pytest.raises(ValueError):
        measure_throughput(llama7b, A100, SYSTEM_PRESETS["trt-w8a8"], batch=0)
    with pytest.raises(KeyError):
        get_system("nonexistent")
    with pytest.raises(KeyError):
        get_policy("nonexistent")


# ----------------------------------------------------------------------
# Scheduling policies
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kwargs, match", [
    ({"policy": "lifo"}, "unknown policy"),
    ({"prefill_chunk_size": 0}, "prefill_chunk_size"),
    ({"prefill_chunk_size": -512}, "prefill_chunk_size"),
    ({"tier_admission": True, "free_tier_drop_after_s": -1.0},
     "free_tier_drop_after_s"),
    ({"kv_demotion": True}, "prefix_caching"),
    # NaN passes every ``x <= 0`` check; counts must be true integers.
    ({"prefill_chunk_size": 512.0}, "prefill_chunk_size"),
    ({"prefill_chunk_size": True}, "prefill_chunk_size"),
    ({"prefill_chunk_size": float("nan")}, "prefill_chunk_size"),
    ({"tier_admission": True, "free_tier_drop_after_s": float("nan")},
     "free_tier_drop_after_s"),
    ({"tier_admission": True, "free_tier_drop_after_s": float("inf")},
     "free_tier_drop_after_s"),
])
def test_scheduling_config_rejects_bad_settings(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SchedulingConfig(**kwargs)


@pytest.mark.parametrize("bad", [0, -1, 1.5, float("nan"), True])
def test_serve_rejects_bad_max_num_seqs(llama7b, bad):
    """Only ``None`` (no cap) or a positive integer caps the batch: ``0``
    and NaN used to mean "no cap", ``-1`` stranded every request, ``1.5``
    capped at 2 and ``True`` at 1."""
    from repro.serving import ClusterEngine
    system = SYSTEM_PRESETS["qserve-w4a8kv4-chn"]
    workload = make_uniform_workload(4, prompt_len=64, output_len=8)
    engine = ServingEngine(llama7b, A100, system, max_seq_len=160)
    with pytest.raises(ValueError, match="max_num_seqs"):
        engine.serve(workload.copy_fresh(), max_num_seqs=bad)
    cluster = ClusterEngine(llama7b, A100, system, num_replicas=2,
                            max_seq_len=160)
    with pytest.raises(ValueError, match="max_num_seqs"):
        cluster.serve(workload.copy_fresh(), max_num_seqs=bad)
    for cap in (None, 1, np.int64(2)):
        assert engine.serve(workload.copy_fresh(),
                            max_num_seqs=cap).num_finished == 4


@pytest.mark.parametrize("bad", [0, -5, 100.5, float("nan"), True])
def test_engine_rejects_bad_max_seq_len(llama7b, bad):
    """A non-positive or non-integral ``max_seq_len`` used to construct: on
    the non-paged ``quarot-w4a4`` preset ``0`` reserved zero pages per
    request, so 400 requests ran at once with ``kv_utilization_peak``
    0.0."""
    from repro.serving import ClusterEngine
    for system in ("qserve-w4a8kv4-chn", "quarot-w4a4"):
        with pytest.raises(ValueError, match="max_seq_len"):
            ServingEngine(llama7b, A100, SYSTEM_PRESETS[system],
                          max_seq_len=bad)
        with pytest.raises(ValueError, match="max_seq_len"):
            ClusterEngine(llama7b, A100, SYSTEM_PRESETS[system],
                          num_replicas=2, max_seq_len=bad)
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["quarot-w4a4"],
                           max_seq_len=np.int64(4096))
    assert engine.new_kv_manager().pages_for_tokens(1) > 0


@pytest.mark.parametrize("bad", [0, -1, 2.5, float("nan"), True])
def test_cluster_rejects_bad_num_replicas(llama7b, bad):
    """``num_replicas=True`` built one replica and ``2.5`` died with a
    ``TypeError`` from list multiplication."""
    from repro.serving import ClusterEngine
    with pytest.raises(ValueError, match="num_replicas"):
        ClusterEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                      num_replicas=bad)
    cluster = ClusterEngine(llama7b, A100,
                            SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                            num_replicas=np.int64(2), max_seq_len=160)
    assert cluster.num_replicas == 2 and len(cluster.engines) == 2


def test_legacy_preset_matches_default(llama7b):
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                           max_seq_len=160)
    workload = make_uniform_workload(6, prompt_len=128, output_len=16,
                                     arrival_rate=200.0, seed=3)
    default = engine.serve(workload.copy_fresh(), max_num_seqs=4)
    explicit = engine.serve(workload.copy_fresh(), max_num_seqs=4,
                            scheduling=LEGACY_SCHEDULING)
    assert default.total_time_s == explicit.total_time_s
    assert default.generated_tokens == explicit.generated_tokens
    assert default.num_iterations == explicit.num_iterations


def test_fcfs_bypass_vs_strict_fcfs(llama7b):
    # Capacity fits the small request but not the big one: plain FCFS lets
    # the small request overtake; strict-FCFS admits nothing.
    big = Request(request_id=0, prompt_len=1200, output_len=200)
    small = Request(request_id=1, prompt_len=32, output_len=8)
    for policy_name, expected in (("fcfs", [1]), ("strict-fcfs", [])):
        mgr = _manager(llama7b, capacity_gib=0.02)
        assert mgr.pages_for_tokens(1400) > mgr.total_pages
        assert mgr.pages_for_tokens(40) <= mgr.total_pages
        sched = ContinuousBatchingScheduler(
            kv_manager=mgr, scheduling=SchedulingConfig(policy=policy_name),
            max_num_seqs=8)
        sched.submit([big.copy_fresh(), small.copy_fresh()])
        admitted = sched.admit(now=0.0)
        assert [r.request_id for r in admitted] == expected


def test_sjf_admits_short_jobs_first(llama7b):
    mgr = _manager(llama7b, capacity_gib=4.0)
    sched = ContinuousBatchingScheduler(
        kv_manager=mgr, scheduling=SchedulingConfig(policy="sjf"),
        max_num_seqs=2)
    long_req = Request(request_id=0, prompt_len=512, output_len=256)
    short_req = Request(request_id=1, prompt_len=32, output_len=8)
    mid_req = Request(request_id=2, prompt_len=128, output_len=64)
    sched.submit([long_req, short_req, mid_req])
    admitted = sched.admit(now=0.0)
    assert [r.request_id for r in admitted] == [1, 2]  # shortest two of three


# ----------------------------------------------------------------------
# Chunked prefill
# ----------------------------------------------------------------------
def test_mixed_step_reduces_to_decode_step(llama7b):
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["trt-w8a8"])
    mixed = engine.mixed_step([], decode_batch=16, decode_context=1024)
    plain = engine.decode_step(16, 1024)
    assert mixed.total == plain.total


def _closed_form_decode(engine, batch, context):
    """The decode-step formula as written before it became a mixed step."""
    eff = engine.system.runtime_efficiency
    gemm = engine._block_gemm_latency(batch) * engine.model.num_layers
    lm = engine._lm_head_latency(batch)
    return ((gemm + lm) / eff,
            engine._decode_attention_latency(batch, context) / eff,
            100e-6 / eff, _closed_form_comm(engine, batch))


def _closed_form_prefill(engine, batch, prompt_len):
    """The batched-prefill formula as written before it became a mixed step."""
    model, eff = engine.model, engine.system.runtime_efficiency
    tokens = batch * prompt_len
    macs = 2.0 * batch * prompt_len * prompt_len * model.num_heads * model.head_dim
    attn = engine._prefill_attention_latency(macs / engine.tp_degree)
    return (engine._block_gemm_latency(tokens) * model.num_layers / eff,
            attn / eff, 100e-6 / eff, _closed_form_comm(engine, tokens))


def _closed_form_comm(engine, tokens):
    if not engine.parallel.is_parallel:
        return 0.0
    return engine.parallel.block_comm_latency(
        tokens, engine.model.hidden_size, engine.model.num_layers)


def _fields(step):
    return tuple(getattr(step, f).hex()
                 for f in ("gemm", "attention", "other", "comm"))


@pytest.mark.parametrize("tp", [1, 2])
@pytest.mark.parametrize("system", sorted(SYSTEM_PRESETS))
@pytest.mark.parametrize("model", ["llama-2-7b", "llama-2-70b", "mixtral-8x7b"])
def test_decode_and_prefill_are_mixed_steps(model, system, tp):
    """``decode_step`` and ``prefill`` are special cases of ``mixed_step``,
    bit for bit, and equal the closed forms they replaced — including the
    b=256, S=4096 llama-2-70b prefill, whose 2^46 MACs sit closest to the
    2^53 bound below which summing equal chunks is exact."""
    engine = ServingEngine(get_config(model), A100, SYSTEM_PRESETS[system],
                           parallel=ParallelConfig(tp_degree=tp))
    for batch, context in [(1, 1), (16, 1024), (256, 4096)]:
        decode = engine.decode_step(batch, context)
        assert _fields(decode) == _fields(engine.mixed_step((), batch, context))
        assert _fields(decode) == tuple(
            v.hex() for v in _closed_form_decode(engine, batch, context))
        prefill = engine.prefill(batch, context)
        assert _fields(prefill) == _fields(
            engine.mixed_step([(context, 0)] * batch, 0, 0))
        assert _fields(prefill) == tuple(
            v.hex() for v in _closed_form_prefill(engine, batch, context))


def test_decode_and_prefill_reject_empty_batches(llama7b):
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["trt-w8a8"])
    for price in (engine.decode_step, engine.prefill):
        with pytest.raises(ValueError, match="batch must be positive"):
            price(0, 128)


def test_mixed_step_chunk_cost_grows_with_context(llama7b):
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["trt-w8a8"])
    early = engine.mixed_step([(256, 0)], decode_batch=8, decode_context=512)
    late = engine.mixed_step([(256, 768)], decode_batch=8, decode_context=512)
    assert late.attention > early.attention


def test_chunked_prefill_serves_all_tokens(llama7b):
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                           max_seq_len=160)
    workload = make_uniform_workload(6, prompt_len=128, output_len=32)
    result = engine.serve(workload, max_num_seqs=6,
                          scheduling=SCHEDULING_PRESETS["chunked"])
    assert result.generated_tokens == 6 * 32
    assert result.num_finished == 6
    assert result.num_preemptions == 0


def test_chunked_prefill_improves_ttft_under_load(llama7b):
    """Acceptance: at a Poisson load, chunked prefill cuts mean TTFT while
    generation throughput stays within 5% of the stall-prefill loop."""
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                           max_seq_len=1536)
    workload = make_uniform_workload(64, prompt_len=1024, output_len=512,
                                     arrival_rate=48.0, seed=1)
    legacy = engine.serve(workload.copy_fresh(), max_num_seqs=64)
    chunked = engine.serve(
        workload.copy_fresh(), max_num_seqs=64,
        scheduling=SchedulingConfig(chunked_prefill=True,
                                    prefill_chunk_size=1024))
    assert chunked.metrics.ttft.mean < legacy.metrics.ttft.mean
    assert chunked.metrics.ttft.p95 < legacy.metrics.ttft.p95
    ratio = chunked.generation_throughput / legacy.generation_throughput
    assert ratio > 0.95


@pytest.mark.parametrize("system", ["qserve-w4a8kv4-chn", "trt-fp16"])
@pytest.mark.parametrize("batch, prompt_len, output_len",
                         [(4, 128, 16), (32, 512, 64), (64, 1000, 200)])
def test_closed_batch_makespan_closed_form(llama7b, system, batch,
                                           prompt_len, output_len):
    """Oracle: B identical requests arriving together under the default
    scheduling run one batched prefill and then T full-batch decode steps;
    the makespan is those step latencies added left to right, bit for
    bit."""
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS[system])
    workload = make_uniform_workload(batch, prompt_len=prompt_len,
                                     output_len=output_len,
                                     arrival_rate=None, seed=0)
    expected = engine.prefill(batch, prompt_len).total
    for k in range(output_len):
        expected += engine.decode_step(batch, prompt_len + k).total
    result = engine.serve(workload)
    assert result.num_finished == batch
    assert result.num_iterations == output_len + 1
    assert result.total_time_s == expected


def test_chunked_prefill_latency_accounting(llama7b):
    """A chunked prompt's prefill spans several iterations whose combined
    chunk tokens equal the prompt; TTFT lands after prefill completion."""
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                           max_seq_len=640)
    workload = make_uniform_workload(2, prompt_len=512, output_len=8)
    result = engine.serve(workload, max_num_seqs=2,
                          scheduling=SchedulingConfig(chunked_prefill=True,
                                                      prefill_chunk_size=128))
    # 2 * 512 prompt tokens at <=128 tokens/iteration => >= 8 prefill iterations
    # plus 8 decode iterations.
    assert result.num_iterations >= 16
    for request in workload.requests:
        assert request.prefill_done_time is not None
        assert request.first_token_time is not None
        assert request.first_token_time > request.prefill_done_time - 1e-12
        assert request.prefilled == request.prefill_target == 512


# ----------------------------------------------------------------------
# Preemption
# ----------------------------------------------------------------------
def test_preemption_recompute_in_scheduler(llama7b):
    mgr = _manager(llama7b, capacity_gib=0.02)  # 9 pages = 144 tokens
    sched = ContinuousBatchingScheduler(
        kv_manager=mgr, scheduling=SchedulingConfig(preemption=True),
        max_num_seqs=8)
    a = Request(request_id=0, prompt_len=48, output_len=64)
    b = Request(request_id=1, prompt_len=48, output_len=64, arrival_time=0.1)
    sched.submit([a, b])
    assert len(sched.admit(now=0.5)) == 2  # optimistic: both fit their prompts
    for request in sched.prefilling_requests():
        sched.record_prefill(request, request.prefill_remaining, now=1.0)
    # Decode until the cache fills; the later-arrived request gets preempted.
    for step in range(80):
        batch = sched.prepare_decode(now=1.0 + step)
        if not batch:
            break
        sched.record_decode_step(now=2.0 + step)
        if sched.num_preemptions:
            break
    assert sched.num_preemptions >= 1
    assert b.state is RequestState.PREEMPTED
    assert b in sched.waiting
    assert mgr.allocated_tokens_capacity(b.request_id) == 0  # pages reclaimed
    generated_before = b.generated
    assert generated_before > 0
    # While queued, the remaining work already reflects the recompute cost.
    assert b.prefill_remaining == b.prompt_len + generated_before
    # Readmission re-prefills prompt + generated tokens (recompute).
    sched.running.clear()  # simulate request a finishing
    mgr.free(a.request_id)
    assert len(sched.admit(now=100.0)) == 1
    assert b.state is RequestState.PREFILLING
    assert b.prefill_target == b.prompt_len + generated_before
    assert sched.recomputed_prefill_tokens == b.prefill_target


def test_preemption_under_page_pressure_end_to_end(llama7b, monkeypatch):
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                           max_seq_len=1536)
    monkeypatch.setattr(engine, "kv_capacity_bytes", lambda: 0.9 * (1 << 30))
    workload = make_uniform_workload(12, prompt_len=1024, output_len=512)
    result = engine.serve(workload,
                          scheduling=SCHEDULING_PRESETS["chunked-preempt"])
    assert result.num_finished == 12
    assert result.generated_tokens == 12 * 512
    assert result.num_preemptions > 0
    assert result.recomputed_prefill_tokens > 0
    assert result.metrics.total_preemptions == result.num_preemptions


def test_optimistic_admission_beats_conservative_batch(llama7b, monkeypatch):
    """Optimistic admission packs more concurrent requests than reserving
    prompt+output up front, so early decode batches are larger."""
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                           max_seq_len=1536)
    monkeypatch.setattr(engine, "kv_capacity_bytes", lambda: 2.0 * (1 << 30))
    workload = make_uniform_workload(16, prompt_len=1024, output_len=512)
    conservative = engine.serve(workload.copy_fresh())
    optimistic = engine.serve(workload.copy_fresh(),
                              scheduling=SchedulingConfig(preemption=True))
    assert optimistic.peak_batch > conservative.peak_batch
    assert optimistic.num_finished == conservative.num_finished == 16


def test_stall_prefill_with_preemption_survives_admit_eviction(llama7b, monkeypatch):
    """A request admitted and then immediately preempted (as the lowest
    priority victim of a decode-growth claim) must simply drop out of the
    iteration plan, not crash the stall-prefill path."""
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                           max_seq_len=256)
    pages5 = 5 * engine.new_kv_manager().bytes_per_page()
    monkeypatch.setattr(engine, "kv_capacity_bytes", lambda: pages5)
    # req0 (3 prompt pages, final footprint exactly 5 pages) decodes while
    # req1 arrives just after admission and takes the last 2 pages; req0's
    # first page-boundary crossing then preempts the freshly admitted req1.
    from repro.serving import Workload
    req0 = Request(request_id=0, prompt_len=48, output_len=32)
    req1 = Request(request_id=1, prompt_len=32, output_len=16,
                   arrival_time=1e-9)
    result = engine.serve(Workload(requests=[req0, req1]),
                          scheduling=SchedulingConfig(preemption=True))
    assert result.num_preemptions >= 1
    assert result.num_finished == 2
    assert result.generated_tokens == 32 + 16


def test_optimistic_admission_refuses_never_fitting_request(llama7b, monkeypatch):
    """Under preemption, a request whose final footprint exceeds the whole
    cache is never admitted (reported unserved) instead of crashing
    mid-decode with an allocation failure."""
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                           max_seq_len=256)
    pages5 = 5 * engine.new_kv_manager().bytes_per_page()
    monkeypatch.setattr(engine, "kv_capacity_bytes", lambda: pages5)
    from repro.serving import Workload
    too_big = Request(request_id=0, prompt_len=48, output_len=64)  # 7 pages
    ok = Request(request_id=1, prompt_len=32, output_len=16)       # 3 pages
    result = engine.serve(Workload(requests=[too_big, ok]),
                          scheduling=SchedulingConfig(preemption=True))
    assert result.num_unserved == 1
    assert result.num_finished == 1
    assert result.generated_tokens == 16
    assert too_big.state is RequestState.WAITING


def test_unservable_request_terminates_and_prompt_tokens_fix(llama7b, monkeypatch):
    """A request that can never be admitted must not hang the loop nor be
    counted in ``prompt_tokens`` (only prefilled prompts count)."""
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                           max_seq_len=1536)
    monkeypatch.setattr(engine, "kv_capacity_bytes", lambda: 0.05 * (1 << 30))
    from repro.serving import Workload
    requests = [Request(request_id=0, prompt_len=1024, output_len=512),
                Request(request_id=1, prompt_len=64, output_len=16),
                Request(request_id=2, prompt_len=64, output_len=16)]
    workload = Workload(requests=requests)
    result = engine.serve(workload)
    assert result.num_unserved == 1
    assert result.num_finished == 2
    assert result.prompt_tokens == 2 * 64  # not workload.total_prompt_tokens
    assert requests[0].state is RequestState.WAITING


# ----------------------------------------------------------------------
# Workload generators
# ----------------------------------------------------------------------
def test_poisson_arrivals_are_monotonic_and_seeded():
    wl1 = make_uniform_workload(50, arrival_rate=10.0, seed=7)
    wl2 = make_uniform_workload(50, arrival_rate=10.0, seed=7)
    arrivals = [r.arrival_time for r in wl1.requests]
    assert arrivals == sorted(arrivals)
    assert arrivals[-1] > 0
    assert arrivals == [r.arrival_time for r in wl2.requests]


def test_lognormal_workload_shape():
    wl = make_lognormal_workload(500, seed=11)
    prompts = np.array([r.prompt_len for r in wl.requests])
    outputs = np.array([r.output_len for r in wl.requests])
    assert prompts.min() >= 4 and prompts.max() <= 3072
    assert outputs.min() >= 4 and outputs.max() <= 1024
    # Heavy right tail: mean well above median.
    assert prompts.mean() > np.median(prompts)
    assert len(set(prompts.tolist())) > 50  # genuinely mixed lengths


def test_bursty_workload_structure():
    wl = make_bursty_workload(200, burst_rate=20.0, mean_burst_s=2.0,
                              mean_idle_s=10.0, seed=5)
    arrivals = np.array([r.arrival_time for r in wl.requests])
    assert len(arrivals) == 200
    assert (np.diff(arrivals) >= 0).all()
    gaps = np.diff(arrivals)
    # On/off traffic: some gaps are idle periods far above the in-burst mean.
    assert gaps.max() > 10 * gaps.mean()
    # Burstier than Poisson: squared coefficient of variation well above 1.
    cv2 = gaps.var() / gaps.mean() ** 2
    assert cv2 > 2.0


def test_bursty_workload_serves_with_preemption(llama7b, monkeypatch):
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                           max_seq_len=1536)
    monkeypatch.setattr(engine, "kv_capacity_bytes", lambda: 2.0 * (1 << 30))
    workload = make_bursty_workload(24, burst_rate=60.0, mean_burst_s=1.0,
                                    mean_idle_s=4.0, prompt_len=1024,
                                    output_len=256, seed=2)
    result = engine.serve(workload,
                          scheduling=SCHEDULING_PRESETS["chunked-preempt"])
    assert result.num_finished == 24
    assert result.generated_tokens == 24 * 256
    assert len(result.metrics) == 24


def test_workload_copy_fresh_is_independent():
    wl = make_uniform_workload(3, prompt_len=16, output_len=4)
    copy = wl.copy_fresh()
    wl.requests[0].generated = 2
    wl.requests[0].state = RequestState.DECODING
    assert copy.requests[0].generated == 0
    assert copy.requests[0].state is RequestState.WAITING


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_latency_summary_percentiles():
    values = list(range(1, 101))  # 1..100
    summary = LatencySummary.from_values(values)
    assert summary.mean == 50.5
    assert summary.p50 == np.percentile(values, 50)
    assert summary.p95 == np.percentile(values, 95)
    assert summary.p99 == np.percentile(values, 99)
    assert summary.maximum == 100
    empty = LatencySummary.from_values([])
    assert empty.mean == empty.p99 == 0.0


def test_request_metrics_math():
    m = RequestMetrics(request_id=0, prompt_len=100, output_len=11,
                       arrival_time=1.0, first_token_time=3.0, finish_time=8.0)
    assert m.ttft == pytest.approx(2.0)
    assert m.e2e_latency == pytest.approx(7.0)
    assert m.tpot == pytest.approx(0.5)  # (8-3)/(11-1)
    one_token = RequestMetrics(request_id=1, prompt_len=10, output_len=1,
                               arrival_time=0.0, first_token_time=1.0,
                               finish_time=1.0)
    assert one_token.tpot == 0.0


@pytest.mark.parametrize("arrival", [float("nan"), float("inf"), -1.0])
def test_request_rejects_bad_arrival_time(arrival):
    """A NaN arrival would wedge the serving clock, and an infinite one
    would finish at t=inf; both fail at construction, like a negative one."""
    with pytest.raises(ValueError, match="arrival_time"):
        Request(request_id=0, prompt_len=16, output_len=4,
                arrival_time=arrival)


@pytest.mark.parametrize("field", ["prompt_len", "output_len"])
@pytest.mark.parametrize("bad", [2.5, 16.0, True])
def test_request_rejects_non_integer_token_counts(field, bad):
    """Admission derives a waiting request's page demand from its token
    counts once, so they must be true integers; the error names the field."""
    lengths = {"prompt_len": 16, "output_len": 4, field: bad}
    with pytest.raises(ValueError, match=field):
        Request(request_id=0, **lengths)


def test_request_accepts_numpy_integer_token_counts():
    request = Request(request_id=0, prompt_len=np.int64(16),
                      output_len=np.int32(4))
    assert request.context_len == 16


def test_workload_generator_rejects_nan_arrival_rate():
    with pytest.raises(ValueError, match="arrival_time"):
        make_uniform_workload(3, 16, 4, arrival_rate=float("nan"))


def test_slo_attainment_and_goodput():
    metrics = ServingMetrics(requests=[
        RequestMetrics(0, 10, 11, 0.0, 0.5, 2.0),   # ttft 0.5, tpot 0.15
        RequestMetrics(1, 10, 11, 0.0, 2.0, 12.0),  # ttft 2.0, tpot 1.0
    ])
    assert metrics.slo_attainment(ttft_slo_s=1.0, tpot_slo_s=0.2) == 0.5
    assert metrics.slo_attainment(ttft_slo_s=3.0, tpot_slo_s=2.0) == 1.0
    assert metrics.slo_goodput(1.0, 0.2, total_time_s=10.0) == pytest.approx(0.1)
    assert ServingMetrics().slo_attainment(1.0, 1.0) == 0.0


def test_serving_result_exposes_latency_percentiles(llama7b):
    result = measure_throughput(llama7b, A100,
                                SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                                batch=8, prompt_len=128, output_len=16).serving
    metrics = result.metrics
    assert metrics is not None and len(metrics) == 8
    for summary in (metrics.ttft, metrics.tpot, metrics.e2e):
        assert summary.p50 > 0
        assert summary.p50 <= summary.p95 <= summary.p99 <= summary.maximum
    # All requests arrive at t=0 and admit in the first iteration.
    assert metrics.queue_delay.maximum == 0.0
    assert all(r.queue_delay >= 0 for r in metrics.requests)
