"""Regression tests for the memoized simulator core.

The perf refactor's contract is *bitwise identity*: memoized cost models,
early-exit admission and O(1) KV accounting must leave every ServingResult
exactly as the naive code produced it.  These
tests pin that down by running identical workloads with the cost cache on and
off and comparing every float with ``float.hex()`` (no tolerance), and they
lock in the perf properties themselves: cache hit rates on steady decode
loops, admission-scan work staying far below the naive rescan-everything
count, the two waiting queues the fast paths rely on (pending by
availability, ready in admission-key order), and ``step`` calls scaling
with events rather than iterations once quiet decodes coast.

"Cache off" is a test-local :class:`CostModelCache` whose store never
retains an entry, so every lookup recomputes the price from scratch.
"""

import contextlib
import math

import pytest

from repro.gpu import A100
from repro.model import get_config
from repro.serving import engine as engine_module
from repro.serving import (
    AutoscalerConfig,
    ClusterEngine,
    ContinuousBatchingScheduler,
    CostModelCache,
    EngineStepper,
    FCFSPolicy,
    Request,
    SCHEDULING_PRESETS,
    SYSTEM_PRESETS,
    SchedulingConfig,
    ServingEngine,
    SpeculativeConfig,
    make_chat_workload,
    make_bursty_workload,
    make_flash_crowd_workload,
    make_lognormal_workload,
    make_uniform_workload,
)
from repro.serving.cluster import _Fleet

LLAMA7B = get_config("llama-2-7b")
QSERVE = SYSTEM_PRESETS["qserve-w4a8kv4-chn"]


def _engine() -> ServingEngine:
    return ServingEngine(LLAMA7B, A100, QSERVE, max_seq_len=4096)


class _NeverStore(dict):
    """A memo store that drops every write, so each lookup misses."""

    def __setitem__(self, key, value) -> None:
        pass


class _ForgetfulCache(CostModelCache):
    """A cost cache that never retains an entry: every price is recomputed."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__()
        self.store = _NeverStore()


@contextlib.contextmanager
def _cost_cache(enabled: bool):
    """Engines built inside the block (speculative drafts included) memoise
    their prices when ``enabled`` and recompute every one otherwise."""
    if enabled:
        yield
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_module, "CostModelCache", _ForgetfulCache)
        yield


def _result_fingerprint(result) -> dict:
    """Exact (hex-float) digest of a ServingResult, per-request streams included."""
    fp = {
        "total_time_s": result.total_time_s.hex(),
        "busy_time_s": result.busy_time_s.hex(),
        "generated": result.generated_tokens,
        "iterations": result.num_iterations,
        "finished": result.num_finished,
        "preemptions": result.num_preemptions,
        "recomputed": result.recomputed_prefill_tokens,
        "peak_batch": result.peak_batch,
    }
    for m in result.metrics.requests:
        fp[m.request_id] = (m.arrival_time.hex(), m.first_token_time.hex(),
                            m.finish_time.hex(), m.preemptions)
    return fp


# ----------------------------------------------------------------------
# Memoization: bitwise identity cache on vs. off
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheduling,workload", [
    ("legacy", lambda: make_uniform_workload(48, prompt_len=512,
                                             output_len=64)),
    ("chunked", lambda: make_lognormal_workload(80, arrival_rate=40.0,
                                                seed=3)),
    ("chunked-preempt", lambda: make_lognormal_workload(80, arrival_rate=40.0,
                                                        seed=3)),
    ("prefix-aware", lambda: make_chat_workload(num_sessions=6,
                                                turns_per_session=4,
                                                session_rate=0.5, seed=5)),
])
def test_cost_cache_bitwise_identical(scheduling, workload):
    """Cache on/off produce byte-for-byte identical serving results."""
    results = {}
    for enabled in (True, False):
        with _cost_cache(enabled):
            r = _engine().serve(
                workload(), max_num_seqs=24,
                scheduling=SCHEDULING_PRESETS[scheduling])
        results[enabled] = _result_fingerprint(r)
    assert results[True] == results[False]


def test_cost_cache_bitwise_identical_speculative():
    """Speculative decoding (draft engine included) is cache-invariant."""
    spec = SpeculativeConfig(draft_model=get_config("llama-160m"),
                             profile="low-entropy", lookahead=4,
                             adaptive=True, seed=11)
    wl = make_lognormal_workload(60, arrival_rate=30.0, seed=7)
    results = {}
    for enabled in (True, False):
        with _cost_cache(enabled):
            r = _engine().serve(
                wl.copy_fresh(), max_num_seqs=16,
                scheduling=SCHEDULING_PRESETS["chunked-preempt"],
                speculative=spec)
        results[enabled] = _result_fingerprint(r)
    assert results[True] == results[False]


def test_cost_cache_kernel_latencies_identical():
    """Every kernel-level entry point returns identical values on hit and miss."""
    cached = _engine()
    with _cost_cache(False):
        uncached = _engine()
    for batch, context in [(1, 128), (16, 512), (48, 1024), (16, 512)]:
        for name in ("gemm", "attention", "other", "comm"):
            a = getattr(cached.decode_step(batch, context), name)
            b = getattr(uncached.decode_step(batch, context), name)
            assert a.hex() == b.hex(), (name, batch, context)
        a = cached.mixed_step([(256, 0), (128, 256)], batch, context)
        b = uncached.mixed_step([(256, 0), (128, 256)], batch, context)
        assert a.total.hex() == b.total.hex()
    assert cached.cost_cache.hits > 0
    assert len(uncached.cost_cache.store) == 0


# ----------------------------------------------------------------------
# Memoization: hit rates on steady serving loops
# ----------------------------------------------------------------------
def test_cost_cache_hit_rate_steady_decode(monkeypatch):
    """A steady decode loop repeats its shapes: two waves of 24 requests
    price the same ``(batch, context)`` decode shapes.  What the memo and
    the latency rows save is evaluations: every plain decode iteration,
    stepped or coasted, reads its price from its batch's row, so
    ``mixed_step`` runs only for the steps that prefill (2 of 258
    iterations), never per decode iteration.  (The hit rate is no longer
    the gauge: rows answer the repeats before the memo sees them, so the
    memo sees 8 lookups, 3 of them misses.)"""
    shapes, calls, steps = set(), [0], [0]
    mixed_step, step = ServingEngine.mixed_step, EngineStepper.step

    def counted_mixed_step(self, prefill_chunks, decode_batch,
                           decode_context):
        calls[0] += 1
        if not prefill_chunks:
            shapes.add((decode_batch, decode_context))
        return mixed_step(self, prefill_chunks, decode_batch, decode_context)

    def counted_step(self, horizon=None):
        steps[0] += 1
        return step(self, horizon)

    monkeypatch.setattr(ServingEngine, "mixed_step", counted_mixed_step)
    monkeypatch.setattr(EngineStepper, "step", counted_step)
    engine = _engine()
    result = engine.serve(
        make_uniform_workload(48, prompt_len=512, output_len=128),
        max_num_seqs=24)
    cache = engine.cost_cache
    assert result.num_iterations > 250
    assert cache.misses <= 0.6 * result.num_iterations
    assert calls[0] <= len(shapes) + steps[0]
    # Distinct shapes (memo entries and rows) stay small next to the
    # iteration count.
    assert len(cache.store) <= 0.6 * result.num_iterations


def test_cost_cache_hit_rate_chunked():
    engine = _engine()
    engine.serve(make_lognormal_workload(120, arrival_rate=40.0, seed=0),
                 max_num_seqs=32,
                 scheduling=SCHEDULING_PRESETS["chunked-preempt"])
    assert engine.cost_cache.hit_rate > 0.5


def test_cost_cache_clear():
    cache = CostModelCache()
    cache.store[("gemm", 8)] = 1.0
    cache.hits = 3
    cache.misses = 1
    assert len(cache) == 1 and cache.hit_rate == 0.75
    cache.clear()
    assert len(cache) == 0 and cache.lookups == 0


# ----------------------------------------------------------------------
# Admission early-exit: scan work, not just results
# ----------------------------------------------------------------------
def test_admission_scan_work_bounded():
    """A saturated queue resolves most steps via fast paths, not rescans.

    200 requests all arrive at t=0 against a 16-seat cap: the naive scheduler
    re-examined every waiting request on every admit() call.  The early-exit
    scheduler must resolve cap-blocked steps in O(1) and stop each real scan
    at the cap, keeping examined-requests far below the naive count.
    """
    engine = _engine()
    stepper_result = engine.serve(
        make_lognormal_workload(200, seed=0), max_num_seqs=16,
        scheduling=SCHEDULING_PRESETS["chunked-preempt"])
    assert stepper_result.num_finished == 200
    # Re-run through the stepper to read the scheduler's counters.
    from repro.serving import EngineStepper
    stepper = EngineStepper(engine,
                            scheduling=SCHEDULING_PRESETS["chunked-preempt"],
                            max_num_seqs=16)
    stepper.submit(list(make_lognormal_workload(200, seed=0).requests))
    stepper.run()
    scheduler = stepper.scheduler
    naive_work = stepper.iterations * 200  # rescan-everything upper bound
    assert scheduler.admission_fast_skips > 0
    assert scheduler.admission_scanned_requests < naive_work / 10
    # The scan must still have admitted everything.
    assert len(scheduler.finished) == 200


def test_admission_fast_paths_counted():
    """Each provable no-op admission resolves without touching the queue."""
    kv = ContinuousBatchingScheduler(
        kv_manager=_engine().new_kv_manager(), max_num_seqs=2)
    reqs = [Request(request_id=i, prompt_len=64, output_len=8,
                    arrival_time=float(i)) for i in range(4)]
    kv.submit(reqs)
    # Nothing has arrived at t=-1: fast skip, queue untouched.
    before = kv.admission_scanned_requests
    assert kv.admit(-1.0) == []
    assert kv.admission_fast_skips == 1
    assert kv.admission_scanned_requests == before
    # Two admits fill the cap...
    admitted = kv.admit(10.0)
    assert len(admitted) == 2
    # ...after which admission is a constant-time skip.
    assert kv.admit(10.0) == []
    assert kv.admission_fast_skips == 2
    assert [r.request_id for r in kv.waiting] == [2, 3]


def test_waiting_queue_stays_sorted():
    """submit/admit/preempt all preserve the availability-sorted invariant."""
    engine = _engine()
    from repro.serving import EngineStepper
    stepper = EngineStepper(engine,
                            scheduling=SCHEDULING_PRESETS["chunked-preempt"],
                            max_num_seqs=8)
    wl = make_lognormal_workload(60, arrival_rate=50.0, seed=2)
    # Incremental one-at-a-time submission exercises the insort path.
    for request in wl.requests:
        stepper.submit(request)
        stepper.step()
        keys = [(r.available_time, r.request_id)
                for r in stepper.scheduler.waiting]
        assert keys == sorted(keys)
    stepper.run()
    assert stepper.scheduler.all_done


# ----------------------------------------------------------------------
# The two waiting queues: pending by availability, ready in policy order
# ----------------------------------------------------------------------
def _availability_order(requests):
    return sorted(requests, key=lambda r: (r.available_time, r.request_id))


def _expected_demand(scheduler, request):
    """The pages ``request``'s admission needs before any prefix hit, from
    scratch: ``None`` when optimistic admission must refuse it."""
    kv = scheduler.kv_manager
    if (scheduler.scheduling.preemption and kv.pages_for_tokens(
            request.prompt_len + request.output_len) > kv.total_pages):
        return None
    return kv.pages_for_tokens(scheduler._reservation_tokens(request))


def _assert_queues(scheduler):
    """The ready queue is in admission-key order (for a static key), and
    ``waiting`` is the availability-sorted union of both queues.  Every
    ready request holds no private page and carries its page demand, and
    the victim index, once the first pick has built it, pairs exactly the
    running requests with their keys, in key order."""
    ready, policy = scheduler.ready, scheduler.policy
    if policy.static_key:
        assert ready == sorted(ready, key=policy.admission_key)
    queued = list(scheduler.queued())
    assert len({id(r) for r in queued}) == len(queued)
    assert scheduler.waiting == _availability_order(queued)
    kv = scheduler.kv_manager
    for request in ready:
        assert kv.allocated_tokens_capacity(request.request_id) == 0
        assert request._page_demand == _expected_demand(scheduler, request)
    if scheduler._by_key is not None:
        assert scheduler._victim_index_on()
        by_key = [(key, id(r)) for key, r in scheduler._by_key]
        assert by_key == [(policy.admission_key(r), id(r)) for r in sorted(
            scheduler.running, key=policy.admission_key)]


@pytest.fixture
def checked_admit(monkeypatch):
    """Check both queues right after every admit(): in particular, no
    pending request is available by the admission time.  Every preemption
    victim is checked against a full scan of the running requests; the
    fixture's value lists the victims picked."""
    admit = ContinuousBatchingScheduler.admit
    pick_victim = ContinuousBatchingScheduler._pick_victim
    victims = []

    def checked(self, now):
        admitted = admit(self, now)
        assert all(entry[0] > now for entry in self.pending)
        _assert_queues(self)
        return admitted

    def checked_pick(self, request):
        victim = pick_victim(self, request)
        key = self.policy.admission_key
        expected = max(self.running, key=key)
        if expected is request:
            expected = max(self._prefilling, key=key, default=None)
        assert victim is expected
        assert (self._by_key is not None) == self._victim_index_on()
        victims.append(victim)
        return victim

    monkeypatch.setattr(ContinuousBatchingScheduler, "admit", checked)
    monkeypatch.setattr(ContinuousBatchingScheduler, "_pick_victim",
                        checked_pick)
    return victims


def _queue_study_config(policy, preemption, tier):
    return SchedulingConfig(
        policy=policy, chunked_prefill=preemption, preemption=preemption,
        prefix_caching=policy == "cache-aware", tier_admission=tier,
        free_tier_drop_after_s=1.0 if tier else None)


def _queue_study_workload():
    workload = make_chat_workload(num_sessions=6, turns_per_session=5,
                                  think_time_s=0.5, session_rate=4.0, seed=5)
    for request in workload.requests:
        request.tier = "free" if request.request_id % 2 else "paid"
    return workload


@pytest.mark.parametrize("tier", [False, True], ids=["untiered", "tiered"])
@pytest.mark.parametrize("preemption", [False, True],
                         ids=["conservative", "preemptive"])
@pytest.mark.parametrize("policy",
                         ["fcfs", "strict-fcfs", "sjf", "cache-aware"])
def test_ready_queue_order_oracle(checked_admit, policy, preemption, tier):
    """Step by step with one-at-a-time submits, on a KV pool small enough
    to block admissions (and, optimistically, to preempt)."""
    stepper = EngineStepper(
        _engine(), scheduling=_queue_study_config(policy, preemption, tier),
        max_num_seqs=6, kv_capacity_bytes=0.4 * (1 << 30))
    scheduler = stepper.scheduler

    def check(submitted):
        _assert_queues(scheduler)
        # Every submitted request sits in exactly one place.
        assert submitted == (scheduler.num_waiting + len(scheduler.running)
                             + len(scheduler.finished)
                             + len(scheduler.dropped))

    requests = _queue_study_workload().requests
    for submitted, request in enumerate(requests, 1):
        stepper.submit(request)
        stepper.step()
        check(submitted)
    while stepper.step():
        check(len(requests))
    assert scheduler.all_done
    assert scheduler.admission_scanned_requests > len(scheduler.finished)
    if preemption and not tier:
        assert scheduler.num_preemptions > 0
        assert checked_admit  # victims were picked


@pytest.mark.parametrize("policy",
                         ["fcfs", "strict-fcfs", "sjf", "cache-aware"])
def test_ready_queue_order_oracle_disaggregated(checked_admit, policy):
    """Migrants reach the decode replica with ``available_time`` (their KV
    transfer's landing) after their ``arrival_time`` (the admission key's
    FCFS field), so the two queue orders differ there."""
    cluster = ClusterEngine(LLAMA7B, A100, QSERVE, num_replicas=2,
                            max_seq_len=4096, roles=["prefill", "decode"])
    workload = _queue_study_workload()
    result = cluster.serve(
        workload, max_num_seqs=6,
        scheduling=_queue_study_config(policy, preemption=True, tier=False))
    assert result.num_finished == len(workload.requests)
    assert any(r.available_time > r.arrival_time for r in workload.requests)


@pytest.mark.parametrize("policy",
                         ["fcfs", "strict-fcfs", "sjf", "cache-aware"])
def test_ready_queue_order_oracle_evacuation(checked_admit, monkeypatch,
                                             policy):
    """An autoscaled drain exports a decoding request and preempts a
    prefilling one: both leave the victim index, the preempted one rejoins
    a ready queue with a fresh page demand, and the migrant enters the
    target's ready queue holding no pages there."""
    drained = {"exported": 0, "preempted": 0}
    evacuate = EngineStepper.evacuate

    def counted(self, now):
        drained["preempted"] += len(self.scheduler.prefilling_requests())
        exported, waiting = evacuate(self, now)
        drained["exported"] += len(exported)
        return exported, waiting

    monkeypatch.setattr(EngineStepper, "evacuate", counted)
    workload = make_flash_crowd_workload(
        160, base_rate=4.0, spikes=((2.0, 3.0, 10.0),), prompt_len=1024,
        output_len=96, tenants=4, free_fraction=0.5, seed=3)
    cluster = ClusterEngine(LLAMA7B, A100, QSERVE, num_replicas=4,
                            max_seq_len=4096)
    result = cluster.serve(
        workload, max_num_seqs=8,
        scheduling=SchedulingConfig(
            policy=policy, chunked_prefill=True, prefill_chunk_size=64,
            preemption=True, prefix_caching=policy == "cache-aware"),
        autoscaler=AutoscalerConfig(
            min_replicas=1, max_replicas=4, interval_s=1.0,
            scale_up_queue_depth=2.0, up_cooldown_s=1.0,
            down_cooldown_s=2.0, scale_down_outstanding=6.0))
    assert result.num_finished == len(workload.requests)
    assert drained["exported"] > 0 and drained["preempted"] > 0


class _CountingFCFS(FCFSPolicy):
    """FCFS that counts its admission-key calls."""

    def __init__(self) -> None:
        self.key_calls = 0

    def admission_key(self, request):
        self.key_calls += 1
        return super().admission_key(request)


def test_admission_key_calls_bounded_by_events():
    """A deep backlog costs admission O(log n) key calls per event, not a
    re-sort of the backlog on every admitting pass: 600 requests arrive at
    t=0 against a 16-seat cap."""
    stepper = EngineStepper(_engine(),
                            scheduling=SCHEDULING_PRESETS["chunked-preempt"],
                            max_num_seqs=16)
    policy = stepper.scheduler.policy = _CountingFCFS()
    stepper.submit(list(make_lognormal_workload(600, seed=0).requests))
    stepper.run()
    scheduler = stepper.scheduler
    assert len(scheduler.finished) == 600
    admissions = len(scheduler.finished) + scheduler.num_preemptions
    bound = (4 * (admissions + scheduler.num_preemptions)
             * math.ceil(math.log2(600)))
    assert policy.key_calls <= bound


def test_victim_index_waits_for_the_first_pick(monkeypatch):
    """A preemptive FCFS run that never preempts calls the admission key
    only to order the ready queue and each pass's page claims: the victim
    index is built at the first victim pick, so admissions and finishes
    before it pay nothing for it."""
    stepper = EngineStepper(_engine(),
                            scheduling=SCHEDULING_PRESETS["chunked-preempt"],
                            max_num_seqs=16)
    policy = stepper.scheduler.policy = _CountingFCFS()
    ordering_calls = [0]

    def counted(fn):
        def wrapper(*args):
            before = policy.key_calls
            result = fn(*args)
            ordering_calls[0] += policy.key_calls - before
            return result
        return wrapper

    monkeypatch.setattr(ContinuousBatchingScheduler, "_make_ready",
                        counted(ContinuousBatchingScheduler._make_ready))
    policy.admission_order = counted(policy.admission_order)
    stepper.submit(list(make_lognormal_workload(200, arrival_rate=40.0,
                                                seed=1).requests))
    stepper.run()
    scheduler = stepper.scheduler
    assert len(scheduler.finished) == 200
    assert scheduler.num_preemptions == 0 and scheduler._victim_index_on()
    assert policy.key_calls == ordering_calls[0] > 0


def test_victim_pick_costs_no_batch_scan():
    """Preempting from hundreds of running requests costs O(log n) key
    calls per event, not a scan of the batch per victim: 600 requests
    arrive at t=0 with no sequence cap, so only a 24 GiB KV pool bounds a
    batch of over 300 and decode growth preempts hundreds of times."""
    stepper = EngineStepper(_engine(),
                            scheduling=SCHEDULING_PRESETS["chunked-preempt"],
                            max_num_seqs=None,
                            kv_capacity_bytes=24 * (1 << 30))
    policy = stepper.scheduler.policy = _CountingFCFS()
    stepper.submit(list(make_lognormal_workload(600, seed=0).requests))
    peak = [0]
    prepare_decode = stepper.scheduler.prepare_decode

    def tracked(now, lookahead=None):
        peak[0] = max(peak[0], len(stepper.scheduler.running))
        return prepare_decode(now, lookahead)

    stepper.scheduler.prepare_decode = tracked
    stepper.run()
    scheduler = stepper.scheduler
    assert len(scheduler.finished) == 600
    assert peak[0] > 300 and scheduler.num_preemptions > 300
    admissions = len(scheduler.finished) + scheduler.num_preemptions
    bound = (4 * (admissions + scheduler.num_preemptions)
             * math.ceil(math.log2(600)))
    assert policy.key_calls <= bound


# ----------------------------------------------------------------------
# Coasting: quiet decode iterations cost no step
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheduling", ["legacy", "chunked-preempt"])
def test_quiet_decode_costs_one_step_per_event(monkeypatch, scheduling):
    """4 requests (prompt 128, output 200) at t=0 run 201 iterations: one
    prefill and 200 decodes, of which only the first (first tokens) and the
    last (finishes) hold an event.  Stepping every iteration took 202
    ``step`` calls; coasting through the quiet ones takes at most 4."""
    calls = [0]
    plain_step = EngineStepper.step

    def counted_step(self, horizon=None):
        calls[0] += 1
        return plain_step(self, horizon)

    monkeypatch.setattr(EngineStepper, "step", counted_step)
    result = _engine().serve(
        make_uniform_workload(4, prompt_len=128, output_len=200),
        scheduling=SCHEDULING_PRESETS[scheduling])
    assert result.num_finished == 4
    assert result.num_iterations == 201
    assert calls[0] <= 4


def test_fleet_windows_resume_without_a_step(monkeypatch):
    """A steady fleet (8 replicas, as fleet-static) runs a replica only when
    an event can observe it: an arrival advances the hosts whose
    ``stable_until`` bound is before it, plus the host it is routed to.  So
    it makes under half the ``run_until`` calls of the rule that ran every
    replica to every arrival, with exactly the same ``step`` calls.  Inside
    quiet windows, and in steps that only decode, iterations read cached
    latency rows, so ``mixed_step`` runs for well under half of them.
    (Before windows resumed and read rows, every call opened with a
    ``step`` and every iteration ran ``mixed_step``.)"""
    def serve(eager):
        calls = {"step": 0, "run_until": 0, "mixed_step": 0}
        with monkeypatch.context() as patch:
            for cls, name in ((EngineStepper, "step"),
                              (EngineStepper, "run_until"),
                              (ServingEngine, "mixed_step")):
                method = getattr(cls, name)

                def wrapper(*args, _name=name, _method=method, **kwargs):
                    calls[_name] += 1
                    return _method(*args, **kwargs)
                patch.setattr(cls, name, wrapper)
            if eager:
                advance = _Fleet.advance
                patch.setattr(_Fleet, "advance",
                              lambda self, t, lazy=False: advance(self, t))
            cluster = ClusterEngine(LLAMA7B, A100, QSERVE, num_replicas=8,
                                    max_seq_len=4096)
            result = cluster.serve(
                make_bursty_workload(800, burst_rate=48.0,
                                     lognormal_lengths=True, seed=5),
                router="least-outstanding", max_num_seqs=32,
                scheduling=SCHEDULING_PRESETS["chunked-preempt"])
        return result, calls

    result, calls = serve(eager=False)
    _, eager = serve(eager=True)
    iterations = sum(r.num_iterations for r in result.replica_results)
    assert result.num_finished == 800 and iterations > 20000
    # Measured: 2738 steps for 2187 calls (6408 calls when every replica
    # ran to every arrival), and 1234 ``mixed_step`` calls for 37010
    # iterations (12696 while decode-only steps called it, and 37010
    # before windows).
    assert calls["step"] == eager["step"]
    assert calls["run_until"] < 0.5 * eager["run_until"]
    assert calls["mixed_step"] < 0.5 * iterations
