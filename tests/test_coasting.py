"""Coast ≡ step oracle: coasting through quiet decode iterations is exact.

``EngineStepper.run_until`` follows every ``step`` with a coast through the
plain decode iterations that provably hold no event.  Each scenario below
runs twice — as shipped, and with the coast patched to a no-op, which drives
the loop one ``step`` per iteration — and asserts the two runs agree bit for
bit: the ``tools/serving_fingerprint.py`` encoding of the result (hex
floats), the counter registry, and for the traced run the Chrome trace.

The scenarios cover the exactness conditions one by one: pending arrivals
and the sequence cap (legacy, prefix-aware chat), windows that end at a page
crossing for lack of pages (chunked prefill with preemption on small pools,
one where a whole batch crosses on the same iteration), windows that claim
many staggered crossings, tier-aware admission with and without shedding,
windows that coast through passes deferring every waiting free-tier request
and end where the oldest one ages (or where a claim would empty the pool),
KV demotion under preemption, a disaggregated fleet, an autoscaled fleet
that drains, and one stepper fed arrival by arrival and advanced in small
horizons, so its windows are cut and resumed mid-way.  A speculating
stepper must never coast; the last test builds the state in which its
heaps look quiet.

Multiplexed replicas, which serialize several models' steppers on one GPU,
have their own reference: the replica loop as it was before it coasted,
which hands the GPU to one stepper for exactly one ``step`` per turn.

The crossing claim pass has one too: the pass as it was before it renewed
heap entries in place, which ranks the due claimers by the policy and
claims each through ``_claim``.  Preempting runs under several policies,
with and without shared prefix pages, must match it bit for bit.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from repro.gpu import A100
from repro.gpu.specs import InterconnectSpec
from repro.model import get_config
from repro.serving import (
    AutoscalerConfig,
    ClusterEngine,
    ContinuousBatchingScheduler,
    EngineStepper,
    MultiplexConfig,
    Request,
    SCHEDULING_PRESETS,
    SchedulingConfig,
    ServingEngine,
    SpeculativeConfig,
    Workload,
    get_system,
    make_chat_workload,
    make_flash_crowd_workload,
    make_lognormal_workload,
    make_multi_model_workload,
    make_router_study_workload,
    make_uniform_workload,
)
from repro.serving.cluster import _MultiplexReplica
from repro.serving.scheduler import TIER_AGING_S

ROOT = Path(__file__).resolve().parents[1]
MODEL = get_config("llama-2-7b")
MODEL13 = get_config("llama-2-13b")
QSERVE = get_system("qserve-w4a8kv4-chn")


def _load_fingerprint_tool():
    spec = importlib.util.spec_from_file_location(
        "serving_fingerprint", ROOT / "tools" / "serving_fingerprint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FINGERPRINT = _load_fingerprint_tool()


def _engine(system=QSERVE, pages=None):
    engine = ServingEngine(MODEL, A100, system, max_seq_len=4096)
    if pages is not None:
        capacity = pages * engine.new_kv_manager().bytes_per_page()
        engine.kv_capacity_bytes = lambda: capacity
    return engine


def _flash_crowd():
    return make_flash_crowd_workload(160, base_rate=4.0,
                                     spikes=((2.0, 3.0, 10.0),),
                                     prompt_len=256, output_len=96,
                                     tenants=4, free_fraction=0.5, seed=3)


def _legacy():
    return _engine().serve(
        make_uniform_workload(48, prompt_len=256, output_len=64,
                              arrival_rate=20.0, seed=1), max_num_seqs=8)


def _chunked_preempt():
    result = _engine(pages=200).serve(
        make_lognormal_workload(80, arrival_rate=20.0, seed=2),
        max_num_seqs=16, scheduling=SCHEDULING_PRESETS["chunked-preempt"])
    assert result.num_preemptions > 0
    return result


def _lockstep_crossings():
    """Identical requests cross pages on the same iteration, and the pool
    runs out partway through one such crossing."""
    result = _engine(pages=150).serve(
        make_uniform_workload(8, prompt_len=120, output_len=200),
        scheduling=SCHEDULING_PRESETS["chunked-preempt"])
    assert result.num_preemptions > 0
    return result


def _prefix_aware_chat():
    result = _engine().serve(
        make_chat_workload(num_sessions=8, turns_per_session=4,
                           think_time_s=0.5, session_rate=4.0, seed=5),
        max_num_seqs=4, scheduling=SCHEDULING_PRESETS["prefix-aware"])
    assert result.peak_batch == 4
    return result


def _tiered():
    return _engine().serve(_flash_crowd(), max_num_seqs=8,
                           scheduling=SCHEDULING_PRESETS["tiered"])


def _tiered_shed():
    config = SchedulingConfig(chunked_prefill=True, preemption=True,
                              tier_admission=True, free_tier_drop_after_s=1.0)
    result = _engine().serve(_flash_crowd(), max_num_seqs=8,
                             scheduling=config)
    assert result.num_dropped > 0
    return result


def _tiered_deferral(pages=None, scheduling=SCHEDULING_PRESETS["tiered"],
                     telemetry=None):
    """Six long paid decodes leave two of eight seats open, so every free
    request that arrives is deferred until it ages: decode windows coast
    through the deferring passes and end at the aging cuts."""
    requests = [Request(request_id=i, prompt_len=128, output_len=3000)
                for i in range(6)]
    requests += [Request(request_id=6 + i, prompt_len=128 + 8 * i,
                         output_len=100, arrival_time=0.25 + 0.3 * i,
                         tier="free") for i in range(10)]
    return _engine(pages=pages).serve(
        Workload(requests), max_num_seqs=8, scheduling=scheduling,
        telemetry=telemetry)


def _tiered_deferral_lockstep():
    """The paid decodes prefill together, so they cross pages in lockstep,
    and the pool is sized so one such crossing inside a deferring window
    takes the last free page: from there an admission pass is a fast skip,
    not a deferral, so the window must end first."""
    return _tiered_deferral(
        pages=198,
        scheduling=SchedulingConfig(preemption=True, tier_admission=True))


def _prefix_demote_preempt():
    result = _engine(get_system("trt-fp16"), pages=72).serve(
        make_chat_workload(num_sessions=8, turns_per_session=4,
                           system_prompt_len=192, user_len=32,
                           assistant_len=64, think_time_s=1.0,
                           session_rate=2.0, seed=11),
        max_num_seqs=8, scheduling=SCHEDULING_PRESETS["prefix-demote-preempt"])
    assert result.num_preemptions > 0
    return result


def _disaggregated():
    cluster = ClusterEngine(MODEL, A100, QSERVE, num_replicas=3,
                            max_seq_len=4096,
                            roles=["prefill", "decode", "decode"])
    result = cluster.serve(make_router_study_workload(60, seed=1),
                           router="disaggregated", max_num_seqs=12,
                           scheduling=SCHEDULING_PRESETS["chunked"])
    assert sum(result.migrations_per_replica) > 0
    return result


def _autoscaled():
    cluster = ClusterEngine(MODEL, A100, QSERVE, num_replicas=4,
                            max_seq_len=4096)
    result = cluster.serve(
        _flash_crowd(), max_num_seqs=8,
        scheduling=SCHEDULING_PRESETS["chunked-preempt"],
        autoscaler=AutoscalerConfig(
            min_replicas=1, max_replicas=4, interval_s=1.0,
            scale_up_queue_depth=2.0, up_cooldown_s=1.0,
            down_cooldown_s=2.0, scale_down_outstanding=6.0))
    assert any(e.action == "down" for e in result.autoscale.events)
    assert result.num_migrations > 0
    return result


def _staggered_crossings(telemetry=None):
    """Eight decoders whose prompt lengths differ by 2 tokens cross pages
    on different iterations, so one quiet window holds many claim passes;
    the pool is big enough that none of them ends it."""
    requests = [Request(request_id=i, prompt_len=100 + 2 * i,
                        output_len=240 + 16 * i) for i in range(8)]
    return _engine().serve(Workload(requests),
                           scheduling=SCHEDULING_PRESETS["chunked-preempt"],
                           telemetry=telemetry)


def _small_horizons():
    """One stepper fed arrival by arrival, as a cluster replica is, and
    advanced in 20 ms horizons: most calls start inside a quiet window an
    earlier horizon cut, and a new arrival lands on a running batch."""
    workload = make_lognormal_workload(60, arrival_rate=8.0, seed=4)
    stepper = EngineStepper(_engine(pages=400),
                            scheduling=SCHEDULING_PRESETS["chunked-preempt"],
                            max_num_seqs=12)
    t = 0.0
    for request in sorted(workload.requests, key=lambda r: r.arrival_time):
        while t < request.arrival_time:
            t = min(t + 0.02, request.arrival_time)
            stepper.run_until(t)
        stepper.submit(request)
    while not stepper.done:
        t += 0.02
        stepper.run_until(t)
        assert t < 1e4
    return stepper.result(workload)


SCENARIOS = {
    "legacy": _legacy,
    "chunked-preempt": _chunked_preempt,
    "lockstep-crossings": _lockstep_crossings,
    "prefix-aware-chat": _prefix_aware_chat,
    "tiered": _tiered,
    "tiered-shed": _tiered_shed,
    "tiered-deferral": _tiered_deferral,
    "tiered-deferral-lockstep": _tiered_deferral_lockstep,
    "prefix-demote-preempt": _prefix_demote_preempt,
    "disaggregated": _disaggregated,
    "autoscaled": _autoscaled,
    "staggered-crossings": _staggered_crossings,
    "small-horizons": _small_horizons,
}


def _encode(result):
    """Hex-float fingerprint encoding plus the counter registry."""
    if hasattr(result, "replica_results"):
        return (FINGERPRINT._cluster_result(result),
                result.counters().as_dict())
    return FINGERPRINT._serving_result(result), result.counters.as_dict()


def _assert_same_trace(coasted, stepped):
    """The two runs' Chrome traces are the same JSON; a mismatch reports
    where they part (pytest's diff of two whole traces takes minutes)."""
    a, b = (json.dumps(r.chrome_trace(), sort_keys=True)
            for r in (coasted, stepped))
    if a != b:
        at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                  min(len(a), len(b)))
        pytest.fail(f"traces part at character {at}: "
                    f"{a[at - 120:at + 120]!r} != {b[at - 120:at + 120]!r}")


def _run(scenario, coast):
    """Run ``scenario``; returns its result and coast statistics: the
    iterations coasted, those coasted by a window resumed with no
    ``step`` since the previous window, the most claim passes one
    window made, the iterations coasted through tier-deferring passes,
    and the deferring windows that ended where a waiting request aged."""
    stats = {"coasted": 0, "resumed": 0, "claim_passes": 0, "deferred": 0,
             "aging_cuts": 0}
    plain_coast = EngineStepper._coast
    claim_crossings = ContinuousBatchingScheduler.claim_crossings
    claims = [0]
    last_window = {}  # stepper -> its step count when its last window ended

    def counted_claims(self):
        claims[0] += 1
        return claim_crossings(self)

    def counted_coast(self, t):
        before, passes = self.iterations, claims[0]
        deferrals = self.scheduler.tier_deferrals
        resumed = last_window.get(id(self)) == self._guard
        if coast:
            plain_coast(self, t)
        last_window[id(self)] = self._guard
        ran = self.iterations - before
        stats["coasted"] += ran
        if resumed:
            stats["resumed"] += ran
        stats["claim_passes"] = max(stats["claim_passes"],
                                    claims[0] - passes)
        if ran and self.scheduler.tier_deferrals > deferrals:
            stats["deferred"] += ran
            # The window started with every waiting request young, and
            # none joined or left it, so an aged one marks the cut.
            stats["aging_cuts"] += any(
                self.now - r.available_time >= TIER_AGING_S
                for r in self.scheduler.ready)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EngineStepper, "_coast", counted_coast)
        patch.setattr(ContinuousBatchingScheduler, "claim_crossings",
                      counted_claims)
        result = scenario()
    return result, stats


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_coasting_matches_stepping(name):
    coasted, quiet = _run(SCENARIOS[name], coast=True)
    stepped, none = _run(SCENARIOS[name], coast=False)
    assert quiet["coasted"] > 0 and none["coasted"] == 0
    assert _encode(coasted) == _encode(stepped)


def test_deferring_windows_coast_to_the_aging_cut():
    """Windows coast through passes that defer every waiting request and
    end where the oldest one ages; traced, the Chrome trace matches the
    stepped run too."""
    def traced():
        return _tiered_deferral(telemetry=True)

    coasted, stats = _run(traced, coast=True)
    stepped, _ = _run(traced, coast=False)
    assert stats["deferred"] > coasted.num_iterations / 4
    assert stats["aging_cuts"] >= 5
    assert _encode(coasted) == _encode(stepped)
    _assert_same_trace(coasted, stepped)


def test_deferring_windows_read_the_ready_queue_once(monkeypatch):
    """A deferring window costs O(1) per iteration, not O(waiting): the
    earliest aging cut is kept across passes, so a window reads each
    waiting request's availability at most once, and most read none."""
    reads = [0]
    available_time = Request.available_time.fget

    def counted_available_time(request):
        reads[0] += 1
        return available_time(request)

    windows = []  # (iterations, waiting requests, availability reads)
    plain_coast = EngineStepper._coast

    def counted_coast(self, t):
        scheduler = self.scheduler
        before, deferrals, read = (self.iterations, scheduler.tier_deferrals,
                                   reads[0])
        plain_coast(self, t)
        if scheduler.tier_deferrals > deferrals:
            windows.append((self.iterations - before, len(scheduler.ready),
                            reads[0] - read))

    monkeypatch.setattr(Request, "available_time",
                        property(counted_available_time))
    monkeypatch.setattr(EngineStepper, "_coast", counted_coast)
    _tiered_deferral()
    iterations = sum(k for k, _, _ in windows)
    assert iterations >= 1000
    assert all(read <= waiting for _, waiting, read in windows)
    assert sum(read for _, _, read in windows) < iterations / 20


def test_small_horizons_resume_windows():
    """The scenario does what it is for: windows are resumed without a
    step (a replica fed by a cluster resumes the same way)."""
    _, stats = _run(_small_horizons, coast=True)
    assert stats["resumed"] > stats["coasted"] / 4


def test_windows_hold_several_crossing_passes():
    """One window claims the staggered crossings pass after pass, and the
    Chrome trace (which samples free pages per iteration) shows each claim
    on the iteration stepping makes it."""
    def traced():
        return _staggered_crossings(telemetry=True)

    coasted, stats = _run(traced, coast=True)
    stepped, _ = _run(traced, coast=False)
    assert stats["claim_passes"] >= 20
    assert _encode(coasted) == _encode(stepped)
    _assert_same_trace(coasted, stepped)


def test_coasting_keeps_chrome_trace_identical():
    def traced():
        return _engine(pages=200).serve(
            make_lognormal_workload(80, arrival_rate=20.0, seed=2),
            max_num_seqs=16, scheduling=SCHEDULING_PRESETS["chunked-preempt"],
            telemetry=True)

    coasted, quiet = _run(traced, coast=True)
    stepped, _ = _run(traced, coast=False)
    assert quiet["coasted"] > 0
    assert _encode(coasted) == _encode(stepped)
    _assert_same_trace(coasted, stepped)


def test_speculative_stepper_never_coasts():
    """Speculative commits vary per request, so a speculating stepper must
    not coast even when the event heaps are fresh: here a preempted request,
    which already has its first token, re-prefills into an empty batch."""
    stepper = EngineStepper(
        _engine(), scheduling=SCHEDULING_PRESETS["chunked-preempt"],
        speculative=SpeculativeConfig(draft_model=get_config("llama-160m"),
                                      lookahead=2))
    request = Request(request_id=0, prompt_len=64, output_len=64)
    stepper.submit(request)
    stepper.step()                      # prefill
    stepper.step()                      # first speculative decode
    assert request.first_token_time is not None
    stepper.scheduler.preempt(request, stepper.now)
    stepper.step()                      # recompute: rejoins the decode batch
    assert stepper.scheduler.decode_window()[0] > 0
    iterations = stepper.iterations
    stepper._coast(math.inf)
    assert stepper.iterations == iterations


# ----------------------------------------------------------------------
# Multiplexed replicas
# ----------------------------------------------------------------------
def _stepwise_run_until(self, t):
    """The multiplexed replica loop before it coasted, kept as the
    reference: each turn picks the stepper able to start soonest (ties to
    the lowest model index) and runs exactly one ``step`` on it."""
    stepped = False
    stuck = set()
    while True:
        best = None
        for j, stepper in enumerate(self.steppers):
            if j in stuck:
                continue
            ready = stepper.next_ready_time()
            if ready is None:
                continue
            start = max(self.now, ready)
            if best is None or start < best[0]:
                best = (start, j, stepper)
        if best is None or best[0] >= t:
            return stepped
        start, _, stepper = best
        stepper.sync_clock(start)
        if stepper.step(horizon=t):
            self.now = max(self.now, stepper.now)
            stepped = True
        else:
            stuck.add(best[1])


def _two_models(num_requests, arrival_rate, seed):
    return make_multi_model_workload(
        num_requests, models=(MODEL.name, MODEL13.name), weights=(0.7, 0.3),
        arrival_rate=arrival_rate, seed=seed)


def _swapping(num_replicas=2, num_requests=120, telemetry=None):
    """Two models on replicas that hold one model's weights at a time."""
    result = ClusterEngine(MODEL, A100, QSERVE, num_replicas=num_replicas,
                           max_seq_len=4096).serve(
        _two_models(num_requests, 16.0, seed=3), router="model-aware",
        max_num_seqs=16, scheduling=SCHEDULING_PRESETS["chunked-preempt"],
        multiplex=MultiplexConfig(models=(MODEL, MODEL13),
                                  max_resident_models=1),
        telemetry=telemetry)
    assert result.multiplex.swap_outs > 0
    return result


def _multiplexed_autoscaled(telemetry=None):
    """A two-model flash crowd on an autoscaled pool whose drains migrate
    decodes into the surviving replicas' steppers for their model."""
    workload = make_flash_crowd_workload(120, base_rate=2.0,
                                         spikes=((3.0, 30.0, 3.0),),
                                         prompt_len=256, output_len=200,
                                         seed=9)
    for request in workload.requests:
        request.model = (MODEL13 if request.request_id % 3 == 2
                         else MODEL).name
    result = ClusterEngine(MODEL, A100, QSERVE, num_replicas=3,
                           max_seq_len=4096).serve(
        workload, router="model-aware", max_num_seqs=8,
        scheduling=SCHEDULING_PRESETS["chunked-preempt"],
        multiplex=MultiplexConfig(models=(MODEL, MODEL13),
                                  max_resident_models=1),
        autoscaler=AutoscalerConfig(
            min_replicas=1, max_replicas=3, interval_s=1.0,
            scale_up_queue_depth=2.0, up_cooldown_s=1.0,
            down_cooldown_s=2.0, scale_down_outstanding=12.0),
        telemetry=telemetry)
    assert any(e.action == "down" for e in result.autoscale.events)
    assert result.num_migrations > 0
    return result


def _multiplexed_split(telemetry=None):
    """Two models on a 1 prefill + 2 decode fleet: every request migrates
    into its model's stepper on a decode replica."""
    result = ClusterEngine(MODEL, A100, QSERVE, num_replicas=3,
                           max_seq_len=4096,
                           roles=["prefill", "decode", "decode"]).serve(
        _two_models(100, 16.0, seed=1), router="disaggregated",
        max_num_seqs=16,
        multiplex=MultiplexConfig(models=(MODEL, MODEL13),
                                  max_resident_models=1),
        telemetry=telemetry)
    assert result.num_migrations == 100
    return result


def _slow_handoffs(telemetry=None):
    """A decode replica holding both models, fed over a slow link: each
    model's stepper waits on KV transfers that land in the future, so a
    turn must stop where a lower-index sibling's transfer lands and must
    not idle past a higher-index sibling's."""
    result = ClusterEngine(MODEL, A100, QSERVE, num_replicas=2,
                           max_seq_len=4096, roles=["prefill", "decode"],
                           transfer_link=InterconnectSpec(
                               name="slow", bandwidth_gbps=4.0,
                               latency_us=10.0),
                           transfer_overlap=False).serve(
        make_multi_model_workload(60, models=(MODEL.name, MODEL13.name),
                                  weights=(0.5, 0.5), arrival_rate=8.0,
                                  seed=1),
        router="disaggregated", max_num_seqs=16,
        multiplex=MultiplexConfig(models=(MODEL, MODEL13)),
        telemetry=telemetry)
    assert result.multiplex.swap_outs == 0
    return result


MULTIPLEXED = {
    "swapping": _swapping,
    "autoscaled": _multiplexed_autoscaled,
    "prefill-decode": _multiplexed_split,
    "slow-handoffs": _slow_handoffs,
}


@pytest.mark.parametrize("name", list(MULTIPLEXED))
def test_multiplexed_coasting_matches_the_stepwise_loop(name):
    def traced():
        return MULTIPLEXED[name](telemetry=True)

    coasted, quiet = _run(traced, coast=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_MultiplexReplica, "run_until", _stepwise_run_until)
        stepped, none = _run(traced, coast=True)
    assert quiet["coasted"] > 0 and none["coasted"] == 0
    (results, counters), (reference, reference_counters) = (
        _encode(coasted), _encode(stepped))
    if name == "slow-handoffs":
        # A stepper that goes idle short of its next transfer makes one
        # empty admission pass at a sibling's start before it yields the
        # GPU, where the stepwise loop handed the GPU over without one.
        skips = "scheduler_admission_fast_skips_total"
        counters, reference_counters = (
            {k: v for k, v in c.items() if skips not in k}
            for c in (counters, reference_counters))
    assert results == reference
    assert counters == reference_counters
    _assert_same_trace(coasted, stepped)


def test_multiplexed_replicas_pay_per_event():
    """Each turn of a multiplexed replica coasts like any host, so a
    two-model fleet makes far fewer ``step`` calls than iterations (the
    stepwise loop makes one per iteration)."""
    calls = [0]
    plain_step = EngineStepper.step

    def counted_step(self, horizon=None):
        calls[0] += 1
        return plain_step(self, horizon)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EngineStepper, "step", counted_step)
        result = _swapping(num_replicas=4, num_requests=200)
    iterations = sum(r.num_iterations for r in result.replica_results)
    assert calls[0] <= 0.3 * iterations


# ----------------------------------------------------------------------
# The crossing claim pass
# ----------------------------------------------------------------------
def _ranked_claim_crossings(self):
    """The claim pass before it renewed crossing entries in place, kept as
    the reference: pop the due crossings, rank them by the policy, and
    claim each request's next token through ``_claim``."""
    claimed = 0
    for request in self.policy.admission_order(self._pop_crossings()):
        claimed += self._claim(request, request.context_len + 1)
    return claimed


def _preempting_lognormal(policy):
    return _engine(pages=200).serve(
        make_lognormal_workload(80, arrival_rate=20.0, seed=2),
        max_num_seqs=16, telemetry=True,
        scheduling=SchedulingConfig(policy=policy, chunked_prefill=True,
                                    preemption=True))


def _prefix_preempt():
    """Crossings of requests whose leading pages are shared prefix blocks."""
    return _engine(pages=60).serve(
        make_chat_workload(num_sessions=8, turns_per_session=4,
                           system_prompt_len=192, user_len=32,
                           assistant_len=64, think_time_s=1.0,
                           session_rate=2.0, seed=11),
        max_num_seqs=8, scheduling=SCHEDULING_PRESETS["prefix-preempt"],
        telemetry=True)


CLAIM_SCENARIOS = {
    "chunked-preempt": lambda: _preempting_lognormal("fcfs"),
    "prefix-preempt": _prefix_preempt,
    "sjf-preempt": lambda: _preempting_lognormal("sjf"),
    "strict-fcfs-preempt": lambda: _preempting_lognormal("strict-fcfs"),
}


@pytest.mark.parametrize("name", list(CLAIM_SCENARIOS))
def test_claim_pass_matches_the_ranked_reference(name):
    """Same encoding, counters and Chrome trace as the ranked pass, on runs
    whose passes claim for several requests at once (where rank order
    could show) and, with prefix caching, for requests on shared pages."""
    due = []  # per pass: the live decoders whose crossing is due
    claim_crossings = ContinuousBatchingScheduler.claim_crossings

    def observed(self):
        due.append([r for crossing, seq, r in self._crossing_heap
                    if crossing <= self.decode_iterations
                    and r._decode_clock is self and r._run_seq == seq])
        return claim_crossings(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ContinuousBatchingScheduler, "claim_crossings",
                      observed)
        claimed = CLAIM_SCENARIOS[name]()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ContinuousBatchingScheduler, "claim_crossings",
                      _ranked_claim_crossings)
        ranked = CLAIM_SCENARIOS[name]()
    assert _encode(claimed) == _encode(ranked)
    _assert_same_trace(claimed, ranked)
    assert claimed.num_preemptions > 0
    assert any(len(claimers) > 1 for claimers in due)
    if name == "prefix-preempt":
        assert any(r.shared_kv_pages for claimers in due for r in claimers)
