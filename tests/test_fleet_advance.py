"""Lazy ≡ eager oracle for the cluster's advance rule, and the premises
the lazy rule rests on.

An arrival, or a handoff before the last arrival, runs only the fleet
hosts whose ``stable_until`` bound is before it, plus the host it is
routed to; every other host would only coast up to the event, which no
router, drain or autoscaler reads.  A multiplexed replica's bound is the
least of its steppers'.  Each scenario below runs twice — as shipped, and
with ``_Fleet.advance`` replaced by the rule it had before, kept here as
``_eager_advance``, which runs every live host to every event — and
asserts the two runs agree bit for bit: the
``tools/serving_fingerprint.py`` encoding of the result (hex floats), the
counter registry and the Chrome trace.  The scenarios cover every router
a plain-host fleet uses, autoscaling with drains, tiered shedding, tiered
deferral whose quiet windows end where a waiting request ages,
speculative steppers, a tight KV pool whose quiet windows end at claim
passes short of pages, multiplexed replicas that swap (alone, with
prefill roles and autoscaled), and prefill→decode handoffs, one of them
onto decode hosts whose prefix caches the handoff pins.

The bound is also checked directly: in every scenario it is never after
the clock of the stepper's next ``step``, a speculating stepper's bound is
its clock, and the last arrival leaves no busy host behind.  Two oracles
check what the bound assumes and what the lazy rule must keep: a decode
latency row never decreases along context, and every replica's busy time
is the sum of the iterations it traced — none lost, none run twice.  Two
timeline oracles close the file: no iteration starts before its slot's
cold start ends, and (a strict xfail until the multiplexed turn charges
it) none runs for a model whose weights are not resident.
"""

import bisect
import heapq
import importlib.util
import json
import math
from pathlib import Path

import pytest

from repro.gpu import A100
from repro.model import get_config
from repro.serving import (
    AutoscalerConfig,
    ClusterEngine,
    EngineStepper,
    MultiplexConfig,
    Request,
    SCHEDULING_PRESETS,
    SYSTEM_PRESETS,
    SchedulingConfig,
    ServingEngine,
    SpeculativeConfig,
    make_bursty_workload,
    make_chat_workload,
    make_flash_crowd_workload,
    make_mixed_precision_workload,
    make_multi_model_workload,
    make_router_study_workload,
)
from repro.serving.cluster import _Fleet
from repro.serving.metrics import fold_sum

ROOT = Path(__file__).resolve().parents[1]
MODEL = get_config("llama-2-7b")
MODEL13 = get_config("llama-2-13b")
QSERVE = SYSTEM_PRESETS["qserve-w4a8kv4-chn"]


def _load_fingerprint_tool():
    spec = importlib.util.spec_from_file_location(
        "serving_fingerprint", ROOT / "tools" / "serving_fingerprint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FINGERPRINT = _load_fingerprint_tool()


def _eager_advance(self, t, lazy=False):
    """The advance rule before arrivals ran hosts lazily, kept as the
    reference: every live host runs toward every event."""
    progressed, handoffs, tiebreak = False, self.handoffs, self.tiebreak
    for host in self.exporters:
        progressed = host.run_until(t) or progressed
        for stepper in host.steppers:
            for request in stepper.outbox:
                heapq.heappush(handoffs, (request.prefill_done_time,
                                          next(tiebreak), stepper, request))
            stepper.outbox.clear()
    horizon = min(t, handoffs[0][0]) if handoffs else t
    for host in self.followers:
        progressed = host.run_until(horizon) or progressed
    for slot in [s for s in self.starting if self.ready_at[s] <= t]:
        self._set_state(slot, "active")
    return progressed


def _cluster(num_replicas, pages=None, **kwargs):
    cluster = ClusterEngine(MODEL, A100, QSERVE, num_replicas=num_replicas,
                            max_seq_len=4096, **kwargs)
    if pages is not None:
        capacity = pages * cluster.engine.new_kv_manager().bytes_per_page()
        for engine in cluster.engines:
            engine.kv_capacity_bytes = lambda: capacity
    return cluster


def _flash_crowd(num_requests=200):
    return make_flash_crowd_workload(num_requests, base_rate=4.0,
                                     spikes=((2.0, 3.0, 10.0),),
                                     prompt_len=256, output_len=96,
                                     tenants=4, free_fraction=0.5, seed=3)


def _fleet_static(telemetry, num_requests=300):
    """The benchmark's fleet-static shape, scaled down."""
    return _cluster(8).serve(
        make_bursty_workload(num_requests, burst_rate=48.0,
                             lognormal_lengths=True, seed=5),
        router="least-outstanding", max_num_seqs=32,
        scheduling=SCHEDULING_PRESETS["chunked-preempt"], telemetry=telemetry)


def _round_robin(telemetry):
    return _cluster(4).serve(
        make_router_study_workload(120, seed=2), router="round-robin",
        max_num_seqs=16, scheduling=SCHEDULING_PRESETS["chunked"],
        telemetry=telemetry)


def _shortest_queue(telemetry):
    return _cluster(4).serve(
        make_router_study_workload(120, seed=3), router="shortest-queue",
        max_num_seqs=16, scheduling=SCHEDULING_PRESETS["chunked-preempt"],
        telemetry=telemetry)


def _prefix_affinity(telemetry):
    """Every arrival probes every replica's prefix cache; tight pools
    evict."""
    result = _cluster(4, pages=96).serve(
        make_chat_workload(num_sessions=16, turns_per_session=5,
                           system_prompt_len=192, user_len=32,
                           assistant_len=64, think_time_s=3.0, seed=19),
        router="prefix-affinity", max_num_seqs=4,
        scheduling=SCHEDULING_PRESETS["prefix-aware"], telemetry=telemetry)
    assert result.cache_hit_rate > 0
    return result


def _precision_aware(telemetry):
    cluster = ClusterEngine(MODEL, A100, SYSTEM_PRESETS["trt-fp16"],
                            num_replicas=4, max_seq_len=4096,
                            systems=["trt-fp16", "trt-fp16",
                                     "qserve-w4a8kv4-chn",
                                     "qserve-w4a8kv4-chn"])
    return cluster.serve(
        make_mixed_precision_workload(120, arrival_rate=12.0, seed=1),
        router="precision-aware", max_num_seqs=24,
        scheduling=SCHEDULING_PRESETS["chunked"], telemetry=telemetry)


def _autoscaled(telemetry):
    """Cold starts, and drains that migrate decodes and reroute queues."""
    result = _cluster(4).serve(
        _flash_crowd(), max_num_seqs=8,
        scheduling=SCHEDULING_PRESETS["chunked-preempt"],
        autoscaler=AutoscalerConfig(
            min_replicas=1, max_replicas=4, interval_s=1.0,
            scale_up_queue_depth=2.0, up_cooldown_s=1.0,
            down_cooldown_s=2.0, scale_down_outstanding=6.0),
        telemetry=telemetry)
    assert any(e.action == "up" for e in result.autoscale.events)
    assert any(e.action == "down" for e in result.autoscale.events)
    return result


def _tiered_shed(telemetry):
    config = SchedulingConfig(chunked_prefill=True, preemption=True,
                              tier_admission=True, free_tier_drop_after_s=1.0)
    result = _cluster(2).serve(_flash_crowd(240), max_num_seqs=4,
                               scheduling=config, telemetry=telemetry)
    assert result.num_dropped > 0
    return result


def _tiered(telemetry):
    """Young free-tier requests wait under seat pressure, deferred pass
    after pass, so quiet windows end where the oldest of them ages; the
    lazy advance leaves hosts behind in such windows, bounded by that
    aging cut."""
    aging_cut_bounds = []
    route = _Fleet.route

    def spy(self, request):
        aging_cut_bounds.extend(
            host for host in self.followers
            if host.now < request.arrival_time
            and host.stable_until() == host.scheduler._ready_cut)
        return route(self, request)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Fleet, "route", spy)
        result = _cluster(3).serve(
            make_flash_crowd_workload(200, base_rate=1.0,
                                      spikes=((2.0, 6.0, 10.0),),
                                      prompt_len=256, output_len=2048,
                                      tenants=4, free_fraction=0.6, seed=3),
            max_num_seqs=8, scheduling=SCHEDULING_PRESETS["tiered"],
            telemetry=telemetry)
    assert result.counters().get("scheduler_tier_deferrals_total") > 0
    # The eager reference leaves no host behind.
    assert aging_cut_bounds or _Fleet.advance is _eager_advance
    return result


def _speculative(telemetry):
    return _cluster(3).serve(
        make_router_study_workload(150, seed=4), max_num_seqs=16,
        scheduling=SCHEDULING_PRESETS["chunked-preempt"],
        speculative=SpeculativeConfig(draft_model=get_config("llama-160m"),
                                      lookahead=3, seed=2),
        telemetry=telemetry)


def _tight_pool(telemetry):
    """Small pools under chunked prefill with preemption: quiet windows
    end at claim passes that find fewer free pages than the batch, and the
    preemptions there change the pending prefill tokens the router reads."""
    result = _cluster(4, pages=160).serve(
        make_bursty_workload(200, burst_rate=24.0, prompt_len=256,
                             output_len=256, lognormal_lengths=True, seed=7),
        router="shortest-queue", max_num_seqs=16,
        scheduling=SCHEDULING_PRESETS["chunked-preempt"], telemetry=telemetry)
    assert result.num_preemptions > 0
    return result


def _multiplexed(telemetry):
    """Two models on replicas that hold one model's weights at a time, so
    each physical replica serializes two steppers and their swap-ins."""
    result = _cluster(2).serve(
        make_multi_model_workload(120, models=(MODEL.name, MODEL13.name),
                                  weights=(0.7, 0.3), arrival_rate=8.0,
                                  seed=3),
        router="model-aware", max_num_seqs=16,
        scheduling=SCHEDULING_PRESETS["chunked-preempt"],
        multiplex=MultiplexConfig(models=(MODEL, MODEL13),
                                  max_resident_models=1),
        telemetry=telemetry)
    assert result.multiplex.swap_outs > 0
    return result


def _disaggregated(telemetry):
    """Two prefill and two decode replicas: every request is handed off,
    and a decode host a lazy turn left behind coasts to the prefill's
    completion before it receives the request."""
    result = _cluster(4, roles=["prefill", "prefill", "decode", "decode"]
                      ).serve(
        make_router_study_workload(160, seed=6), router="disaggregated",
        max_num_seqs=16, scheduling=SCHEDULING_PRESETS["chunked"],
        telemetry=telemetry)
    assert result.num_migrations == 160
    return result


def _disaggregated_prefix(telemetry):
    """One prefill and two decode replicas with prefix caches on tight
    pools: a handoff pins the prefix its decode host already holds, so the
    catch-up must land before that match."""
    pinned = []
    pin = EngineStepper.pin_for_import

    def spy(self, request):
        tokens = pin(self, request)
        pinned.append(tokens)
        return tokens

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EngineStepper, "pin_for_import", spy)
        result = _cluster(3, pages=128, roles=["prefill", "decode", "decode"]
                          ).serve(
            make_chat_workload(num_sessions=12, turns_per_session=4,
                               system_prompt_len=192, user_len=32,
                               assistant_len=64, think_time_s=2.0, seed=23),
            router="disaggregated", max_num_seqs=8,
            scheduling=SCHEDULING_PRESETS["prefix-aware"],
            telemetry=telemetry)
    assert any(pinned)
    return result


def _multiplexed_roles(telemetry):
    """A two-model 1 prefill + 2 decode fleet holding one model's weights
    at a time: handoffs land on multiplexed decode replicas."""
    result = _cluster(3, roles=["prefill", "decode", "decode"]).serve(
        make_multi_model_workload(120, models=(MODEL.name, MODEL13.name),
                                  weights=(0.7, 0.3), arrival_rate=16.0,
                                  seed=1),
        router="disaggregated", max_num_seqs=16,
        multiplex=MultiplexConfig(models=(MODEL, MODEL13),
                                  max_resident_models=1),
        telemetry=telemetry)
    assert result.num_migrations == 120 and result.multiplex.swap_ins > 0
    return result


def _multiplexed_autoscaled(telemetry):
    """Scale-ups swap models onto cold multiplexed replicas, and drains
    migrate decodes into the surviving replicas' per-model steppers."""
    workload = make_flash_crowd_workload(160, base_rate=2.0,
                                         spikes=((3.0, 25.0, 4.0),),
                                         prompt_len=256, output_len=200,
                                         seed=17)
    for request in workload.requests:
        if request.request_id % 3 == 2:
            request.model = MODEL13.name
    result = _cluster(3).serve(
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
    return result


SCENARIOS = {
    "least-outstanding": _fleet_static,
    "round-robin": _round_robin,
    "shortest-queue": _shortest_queue,
    "prefix-affinity": _prefix_affinity,
    "precision-aware": _precision_aware,
    "autoscaled": _autoscaled,
    "tiered-shed": _tiered_shed,
    "tiered": _tiered,
    "speculative": _speculative,
    "tight-pool": _tight_pool,
    "multiplexed": _multiplexed,
    "disaggregated": _disaggregated,
    "disaggregated-prefix": _disaggregated_prefix,
    "multiplexed-roles": _multiplexed_roles,
    "multiplexed-autoscaled": _multiplexed_autoscaled,
}


def _run(scenario, eager):
    """Run ``scenario`` traced; returns the result and its ``run_until``
    call count."""
    calls = [0]
    run_until = EngineStepper.run_until

    def counted(self, t, horizon=None):
        calls[0] += 1
        return run_until(self, t, horizon)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EngineStepper, "run_until", counted)
        if eager:
            patch.setattr(_Fleet, "advance", _eager_advance)
        result = scenario(telemetry=True)
    return result, calls[0]


def _encode(result):
    return (FINGERPRINT._cluster_result(result), result.counters().as_dict(),
            json.dumps(result.chrome_trace(), sort_keys=True))


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_lazy_advance_matches_eager(name):
    lazy, lazy_calls = _run(SCENARIOS[name], eager=False)
    eager, eager_calls = _run(SCENARIOS[name], eager=True)
    (results, counters, trace), (reference, reference_counters,
                                 reference_trace) = (_encode(lazy),
                                                     _encode(eager))
    assert results == reference
    assert counters == reference_counters
    if trace != reference_trace:
        at = next(i for i, (x, y) in enumerate(zip(trace, reference_trace))
                  if x != y)
        pytest.fail(f"traces part at character {at}: "
                    f"{trace[at - 120:at + 120]!r}")
    # The lazy rule did skip hosts (speculative steppers never coast, so
    # their bound is always their clock).
    if name != "speculative":
        assert lazy_calls < eager_calls


def test_last_arrival_runs_every_host():
    """After the last arrival the stop rule reads whether any host stepped,
    which would count a skipped host's late coast; so the turn that routes
    the last arrival leaves no busy host behind it, as every tick does."""
    behind = []
    route = _Fleet.route

    def spy(self, request):
        t = request.arrival_time
        behind.append([host.now < t and not host.done
                       for host in self.followers])
        return route(self, request)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Fleet, "route", spy)
        _fleet_static(telemetry=None)
    assert any(any(turn) for turn in behind[:-1])
    assert not any(behind[-1])


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_bound_precedes_the_next_step(name):
    """Every ``stable_until`` read at the start of a ``run_until`` call is
    at or before the clock of the next ``step`` the stepper takes, unless
    the stepper received work in between."""
    bounds, checked, late = {}, [0], []
    run_until, step = EngineStepper.run_until, EngineStepper.step

    def bounded_run_until(self, t, horizon=None):
        bounds[self] = self.stable_until()
        return run_until(self, t, horizon)

    def checked_step(self, horizon=None):
        bound = bounds.pop(self, None)
        if bound is not None:
            checked[0] += 1
            if self.now < bound:
                late.append((self.now, bound))
        return step(self, horizon)

    def dropping(method):
        def dropped(self, *args):
            bounds.pop(self, None)
            return method(self, *args)
        return dropped

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EngineStepper, "run_until", bounded_run_until)
        patch.setattr(EngineStepper, "step", checked_step)
        for work in ("submit", "evacuate"):
            patch.setattr(EngineStepper, work,
                          dropping(getattr(EngineStepper, work)))
        patch.setattr(_Fleet, "advance", _eager_advance)
        SCENARIOS[name](telemetry=None)
    assert checked[0] > 0
    assert not late, late[:3]


def test_speculative_bound_is_the_clock():
    """A speculating stepper never coasts, so its next iteration is always
    a step, even in the state where its event heaps look quiet (see
    ``tests/test_coasting.py``)."""
    stepper = EngineStepper(
        ServingEngine(MODEL, A100, QSERVE, max_seq_len=4096),
        scheduling=SCHEDULING_PRESETS["chunked-preempt"],
        speculative=SpeculativeConfig(draft_model=get_config("llama-160m"),
                                      lookahead=2))
    request = Request(request_id=0, prompt_len=64, output_len=64)
    stepper.submit(request)
    stepper.step()                      # prefill
    stepper.step()                      # first speculative decode
    stepper.scheduler.preempt(request, stepper.now)
    stepper.step()                      # recompute: rejoins the decode batch
    assert stepper.scheduler.decode_window()[0] > 0
    assert stepper.stable_until() == stepper.now


def test_a_step_drops_the_recorded_bound():
    """A coast that the caller's time cuts records a bound past the clock;
    a ``step`` taken directly afterwards leaves none behind."""
    stepper = EngineStepper(
        ServingEngine(MODEL, A100, QSERVE, max_seq_len=4096),
        scheduling=SCHEDULING_PRESETS["chunked-preempt"])
    stepper.submit([Request(request_id=i, prompt_len=64, output_len=400)
                    for i in range(4)])
    stepper.run_until(0.5)
    assert stepper.stable_until() > stepper.now
    stepper.step()
    assert stepper.stable_until() == stepper.now


# ----------------------------------------------------------------------
# The bound's premise
# ----------------------------------------------------------------------
@pytest.mark.parametrize("system", list(SYSTEM_PRESETS))
def test_decode_rows_do_not_decrease_along_context(system):
    """``stable_until`` prices a whole quiet window at its first slot, and
    the coast prices a window's slots from the time left at the last one: a
    batch's decode latency must not fall as its context grows.  The rows
    are read from ``decode_row``, the pricer the engine uses, which
    ``tests/test_decode_row.py`` pins to ``mixed_step`` bit for bit."""
    engine = ServingEngine(MODEL, A100, SYSTEM_PRESETS[system],
                           max_seq_len=4096)
    for batch in range(1, 65):
        row = engine.decode_row(batch, 1, 4096)
        drops = [c + 1 for c in range(1, 4096) if row[c] < row[c - 1]]
        assert not drops, (system, batch, drops[:5])


# ----------------------------------------------------------------------
# Work conservation
# ----------------------------------------------------------------------
def _autoscaled_flash_crowd(telemetry):
    result = _cluster(4).serve(
        make_flash_crowd_workload(300, base_rate=2.0,
                                  spikes=((5.0, 40.0, 6.0),),
                                  prompt_len=512, output_len=200,
                                  tenants=4, free_fraction=0.5, seed=7),
        max_num_seqs=8, scheduling=SCHEDULING_PRESETS["tiered"],
        autoscaler=AutoscalerConfig(
            min_replicas=1, max_replicas=4, interval_s=2.0,
            scale_up_queue_depth=2.0, up_cooldown_s=2.0,
            down_cooldown_s=4.0, scale_down_outstanding=6.0),
        telemetry=telemetry)
    assert result.autoscale.events
    return result


@pytest.mark.parametrize("scenario", [_fleet_static, _autoscaled_flash_crowd,
                                      _multiplexed])
def test_replicas_conserve_work(scenario):
    """Each physical replica's busy time is the sum of the iteration spans
    and weight swap-ins its steppers traced, the spans never overlap, each
    stepper traced one per counted iteration, and none ends after the
    replica's final clock."""
    result = scenario(telemetry=True)
    assert result.num_unserved == 0
    replicas = {}
    for stepper in result.replica_results:  # replica<i> or replica<i>/<model>
        name = stepper.telemetry.replica_name.split("/")[0]
        replicas.setdefault(name, []).append(stepper)
    assert len(replicas) == result.physical_replicas
    for steppers in replicas.values():
        spans = []
        for stepper in steppers:
            own = stepper.telemetry.iterations
            assert len(own) == stepper.num_iterations
            assert all(a[1] <= b[0] for a, b in zip(own, own[1:]))
            spans += [span[:2] for span in own]
            spans += [span[:2] for span in stepper.telemetry.swaps]
        spans.sort()
        assert spans
        busy = fold_sum(t1 - t0 for t0, t1 in spans)
        busy_s = fold_sum(stepper.busy_time_s for stepper in steppers)
        assert math.isclose(busy_s, busy, rel_tol=1e-9)
        assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))
        clock = max(stepper.total_time_s for stepper in steppers)
        assert busy_s <= clock
        assert spans[-1][1] <= clock


# ----------------------------------------------------------------------
# Timeline oracles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scenario", [_autoscaled, _autoscaled_flash_crowd])
def test_no_iteration_runs_before_its_cold_start_ends(scenario):
    """Every provisioned window opens at its slot's ``up`` event (or at 0,
    pre-warmed), and no traced iteration on a slot starts before the
    window it starts in has loaded its weights: the window's start plus
    the cold start, or the start alone for a pre-warmed window."""
    result = scenario(telemetry=True)
    report = result.autoscale
    ups = [(e.time_s, e.replica) for e in report.events if e.action == "up"]
    prewarmed = {(0.0, s) for s, windows in enumerate(report.windows)
                 if windows[0][0] == 0.0}
    opened = {(w[0], s) for s, windows in enumerate(report.windows)
              for w in windows}
    assert len(set(ups)) == len(ups) and ups
    assert opened == set(ups) | prewarmed
    assert len(result.replica_results) == len(report.windows)
    checked, early = 0, []
    for s, (stepper, windows) in enumerate(zip(result.replica_results,
                                               report.windows)):
        assert stepper.telemetry.replica_name == f"replica{s}"
        starts = [w[0] for w in windows]
        for span in stepper.telemetry.iterations:
            k = bisect.bisect_right(starts, span[0])
            assert k > 0, (s, span[0], starts)
            start = starts[k - 1]
            cold = 0.0 if (start, s) in prewarmed else report.cold_start_s
            checked += 1
            if span[0] < start + cold:
                early.append((s, start, span[0]))
    assert checked > 0
    assert not early, early[:3]


@pytest.mark.xfail(strict=True, reason="ROADMAP I")
def test_no_iteration_runs_for_a_model_that_is_not_resident():
    """On replicas that hold one model's weights at a time, each traced
    iteration starts while its own model is resident: the model whose
    swap-in last ended before it, or the preloaded first model before any
    swap.  A model a sibling's swap-in evicted keeps decoding its running
    batch without swapping back in, so this fails until that turn charges
    the swap-in."""
    result = _multiplexed(telemetry=True)
    replicas = {}
    for stepper in result.replica_results:  # replica<i>/<model>
        name, model = stepper.telemetry.replica_name.split("/")
        replicas.setdefault(name, []).append((model, stepper.telemetry))
    checked, stale = 0, 0
    for slices in replicas.values():
        swaps = sorted(swap for _, tracer in slices for swap in tracer.swaps)
        ends = [t1 for _, t1, _ in swaps]
        for model, tracer in slices:
            for span in tracer.iterations:
                k = bisect.bisect_right(ends, span[0])
                checked += 1
                stale += (swaps[k - 1][2] if k else MODEL.name) != model
    assert checked > 0
    assert stale == 0, f"{stale} of {checked} iterations ran evicted"
