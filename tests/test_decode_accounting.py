"""Oracles for the scheduler's decode accounting.

* **Token conservation** — the tokens every request reports as generated add
  up to the tokens the run committed (``ServingResult.generated_tokens``),
  on every serving path: legacy stall prefill, chunked prefill with
  preemption, prefix caching with KV demotion under preemption,
  speculative decoding, a disaggregated prefill/decode fleet, a tiered
  flash crowd that sheds free-tier requests and a run with a request no
  admission can take.  A finished request generated exactly its
  ``output_len``; a dropped or never-admitted one generated nothing.
* **Lazy invariants** — after every :meth:`EngineStepper.step` and every
  coast through quiet decode iterations, the scheduler's running-sum mean
  context equals the mean recomputed from the decode batch, and no
  decoding request lacks a page for the tokens it holds; the same holds,
  with exact token counts, when speculative commits and plain steps
  interleave on one scheduler.  Under preemption on paged KV allocation
  is exact: after a step each decoder holds exactly the private pages its
  context needs, and after every crossing claim pass (inside coasted
  windows too) exactly those its next token needs — a pass that claims
  early, twice or not at all fails.
* **Hook order** — the order and timestamps of the ``first_token``,
  ``request_finished`` and ``request_preempted`` trace hooks of one
  preempting chunked-prefill run, pinned against
  ``tests/data/decode_hook_order.json``.  Regenerate it with
  ``PYTHONPATH=src python tests/test_decode_accounting.py`` only for an
  intended change of schedule.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.gpu import A100
from repro.model import get_config
from repro.serving import (
    ClusterEngine,
    Request,
    RequestState,
    SCHEDULING_PRESETS,
    SchedulingConfig,
    ServingEngine,
    SpeculativeConfig,
    Workload,
    get_system,
    make_chat_workload,
    make_flash_crowd_workload,
    make_lognormal_workload,
    make_router_study_workload,
    make_uniform_workload,
)
from repro.serving.engine import EngineStepper
from repro.serving.request import mean_context_len
from repro.serving.scheduler import ContinuousBatchingScheduler
from repro.serving.telemetry import Tracer

MODEL = get_config("llama-2-7b")
QSERVE = get_system("qserve-w4a8kv4-chn")
HOOK_ORDER = Path(__file__).resolve().parent / "data" / "decode_hook_order.json"


def _engine(system=QSERVE, pages=None):
    engine = ServingEngine(MODEL, A100, system, max_seq_len=4096)
    if pages is not None:
        capacity = pages * engine.new_kv_manager().bytes_per_page()
        engine.kv_capacity_bytes = lambda: capacity
    return engine


def _legacy():
    workload = make_uniform_workload(24, prompt_len=256, output_len=48,
                                     arrival_rate=20.0, seed=1)
    return workload, _engine().serve(workload, max_num_seqs=8)


def _chunked_preempt():
    workload = make_lognormal_workload(60, arrival_rate=20.0, seed=2)
    result = _engine(pages=200).serve(
        workload, max_num_seqs=16,
        scheduling=SCHEDULING_PRESETS["chunked-preempt"])
    assert result.num_preemptions > 0
    return workload, result


def _prefix_demote_preempt():
    workload = make_chat_workload(num_sessions=8, turns_per_session=4,
                                  system_prompt_len=192, user_len=32,
                                  assistant_len=64, think_time_s=1.0,
                                  session_rate=2.0, seed=11)
    result = _engine(get_system("trt-fp16"), pages=72).serve(
        workload, max_num_seqs=8,
        scheduling=SCHEDULING_PRESETS["prefix-demote-preempt"])
    assert result.num_preemptions > 0
    assert result.prefix_stats.demoted_pages_total > 0
    return workload, result


def _speculative():
    workload = make_lognormal_workload(40, arrival_rate=20.0, seed=4)
    spec = SpeculativeConfig(draft_model=get_config("llama-160m"),
                             profile="low-entropy", lookahead=4,
                             adaptive=True, seed=3)
    result = _engine(pages=320).serve(
        workload, max_num_seqs=16,
        scheduling=SCHEDULING_PRESETS["chunked-preempt"], speculative=spec)
    assert result.num_preemptions > 0
    return workload, result


def _disaggregated():
    workload = make_router_study_workload(40, seed=1)
    cluster = ClusterEngine(MODEL, A100, QSERVE, num_replicas=3,
                            max_seq_len=4096,
                            roles=["prefill", "decode", "decode"])
    result = cluster.serve(workload, router="disaggregated", max_num_seqs=12,
                           scheduling=SCHEDULING_PRESETS["chunked"])
    assert sum(result.migrations_per_replica) > 0
    return workload, result


def _tiered_shed():
    workload = make_flash_crowd_workload(160, base_rate=4.0,
                                         spikes=((2.0, 3.0, 10.0),),
                                         prompt_len=256, output_len=96,
                                         tenants=4, free_fraction=0.5, seed=3)
    result = _engine().serve(
        workload, max_num_seqs=8,
        scheduling=SchedulingConfig(chunked_prefill=True, preemption=True,
                                    tier_admission=True,
                                    free_tier_drop_after_s=1.0))
    assert result.num_dropped > 0
    return workload, result


def _stranded():
    """One request whose final footprint exceeds the whole pool: optimistic
    admission never takes it, and everything around it still finishes."""
    workload = make_lognormal_workload(30, arrival_rate=20.0, seed=6)
    workload.requests.append(Request(request_id=30, prompt_len=512,
                                     output_len=4000, arrival_time=0.5))
    result = _engine(pages=200).serve(
        workload, max_num_seqs=16,
        scheduling=SCHEDULING_PRESETS["chunked-preempt"])
    assert result.num_unserved == 1
    return workload, result


RUNS = {
    "legacy": _legacy,
    "chunked-preempt": _chunked_preempt,
    "prefix-demote-preempt": _prefix_demote_preempt,
    "speculative": _speculative,
    "disaggregated": _disaggregated,
    "tiered-shed": _tiered_shed,
    "stranded": _stranded,
}


def _generated_tokens(result) -> int:
    replicas = getattr(result, "replica_results", None)
    if replicas is None:
        return result.generated_tokens
    return sum(r.generated_tokens for r in replicas)


@pytest.mark.parametrize("name", list(RUNS))
def test_token_conservation(name):
    workload, result = RUNS[name]()
    finished = [r for r in workload.requests
                if r.state is RequestState.FINISHED]
    unserved = [r for r in workload.requests
                if r.state is not RequestState.FINISHED]
    assert len(unserved) == {"tiered-shed": result.num_dropped,
                             "stranded": 1}.get(name, 0)
    assert all(r.generated == r.output_len for r in finished)
    for request in unserved:
        assert request.admitted_time is None
        assert request.generated == 0
    assert sum(r.generated for r in workload.requests) \
        == _generated_tokens(result) \
        == sum(r.output_len for r in finished)


def _assert_exact_allocation(scheduler, extra_tokens):
    """Under preemption on paged KV, each decoder holds exactly the private
    pages ``context_len + extra_tokens`` tokens need: no fewer (a claim was
    missed) and no more (one came early or twice)."""
    kv = scheduler.kv_manager
    if not (scheduler.scheduling.preemption and kv.system.paged_kv):
        return
    for request in scheduler.decoding_requests():
        held = kv.allocated_tokens_capacity(request.request_id) // kv.page_size
        assert held == (kv.pages_for_tokens(request.context_len + extra_tokens)
                        - request.shared_kv_pages), request.request_id


@pytest.mark.parametrize("name", list(RUNS))
def test_lazy_invariants_hold_after_every_step(name, monkeypatch):
    steps, passes = [0], [0]
    plain_step = EngineStepper.step
    plain_coast = EngineStepper._coast
    plain_claim = ContinuousBatchingScheduler.claim_crossings

    def check(stepper):
        scheduler = stepper.scheduler
        decoding = scheduler.decoding_requests()
        assert decoding == [r for r in scheduler.running
                            if r.state is RequestState.DECODING]
        assert scheduler.decode_context_len() == mean_context_len(decoding)
        kv = scheduler.kv_manager
        for request in decoding:
            assert not kv.needs_pages(request.request_id, request.context_len,
                                      request.shared_kv_pages)
        _assert_exact_allocation(scheduler, 0)
        if scheduler._indexed:
            # A live decoder's crossing entry carries its current crossing
            # iteration, so popping one needs no re-check of the key.
            for key, seq, request in scheduler._crossing_heap:
                if (request._decode_clock is scheduler
                        and request._run_seq == seq):
                    assert key == scheduler._crossing_iteration(request)

    def checked_step(self, horizon=None):
        progressed = plain_step(self, horizon)
        check(self)
        steps[0] += 1
        return progressed

    def checked_coast(self, t):
        # Coasted iterations run no step(); check after each window too.
        # The batch is fixed inside a window, so its mean context (the
        # latency row's index) advances by exactly one per iteration.
        context, iterations = (self.scheduler.decode_context_len(),
                               self.iterations)
        plain_coast(self, t)
        check(self)
        assert (self.scheduler.decode_context_len() - context
                == self.iterations - iterations)

    def checked_claim(self):
        # Every claim pass, also those inside a coasted window: the next
        # token of every decoder now has its page, and no more.
        claimed = plain_claim(self)
        _assert_exact_allocation(self, 1)
        passes[0] += 1
        return claimed

    monkeypatch.setattr(EngineStepper, "step", checked_step)
    monkeypatch.setattr(EngineStepper, "_coast", checked_coast)
    monkeypatch.setattr(ContinuousBatchingScheduler, "claim_crossings",
                        checked_claim)
    RUNS[name]()
    assert steps[0] > 0
    if name in ("chunked-preempt", "prefix-demote-preempt"):
        assert passes[0] > 0


def test_generated_is_owned_by_the_scheduler_while_decoding():
    engine = _engine()
    stepper = EngineStepper(engine)
    request = Request(request_id=0, prompt_len=64, output_len=8)
    stepper.submit(request)
    stepper.step()                       # stall prefill: request decodes
    for expected in (1, 2, 3):
        stepper.step()
        assert request.generated == expected
        assert request.context_len == 64 + expected
    with pytest.raises(RuntimeError, match="owns the generated count"):
        request.generated = 0
    stepper.run()
    assert request.state is RequestState.FINISHED
    assert request.generated == 8
    request.generated = 0                # a finished request's count is
    assert request.generated == 0        # stored outright again


def test_speculative_commits_and_plain_steps_interleave():
    """A commit step leaves the event heaps stale; the plain steps and
    heap claim passes after it must still see every first token, finish
    and page crossing."""
    kv = _engine().new_kv_manager()
    scheduler = ContinuousBatchingScheduler(
        kv_manager=kv, scheduling=SchedulingConfig(preemption=True))
    requests = [Request(request_id=i, prompt_len=29 + 7 * i,
                        output_len=9 + 11 * i) for i in range(5)]
    scheduler.submit(requests)
    scheduler.admit(now=0.0)
    for request in scheduler.prefilling_requests():
        scheduler.record_prefill(request, request.prefill_remaining, now=0.0)
    expected = {r.request_id: 0 for r in requests}
    for step in range(1, 46):
        speculative = step % 3 == 0
        scheduler.prepare_decode(
            now=step, lookahead=(lambda r: 1) if speculative else None)
        batch = scheduler.decoding_requests()
        commits = {r.request_id: 2 for r in batch}
        scheduler.record_decode_step(
            now=step, commits=commits if speculative else None)
        for request in batch:
            expected[request.request_id] = min(
                request.output_len, expected[request.request_id]
                + (2 if speculative else 1))
        assert {r.request_id: r.generated for r in requests} == expected
        assert all(r.first_token_time is not None for r in batch)
        assert {r.request_id for r in scheduler.finished} == {
            r.request_id for r in requests if expected[r.request_id]
            == r.output_len}
        decoding = scheduler.decoding_requests()
        assert scheduler.decode_context_len() == mean_context_len(decoding)
        for request in decoding:
            assert not kv.needs_pages(request.request_id, request.context_len,
                                      request.shared_kv_pages)
    assert scheduler.all_done


def test_preempting_claim_pass_after_a_commit_step_reindexes():
    """A commit step leaves the crossing heap stale; a preempting claim
    pass right after it (fewer free pages than decoders, no lookahead)
    must rebuild the heap first and so match a twin re-indexed before the
    pass: same survivors, same preemptions, same pages per request."""
    def commit_stepped():
        engine = _engine()
        kv = engine.new_kv_manager(
            capacity_bytes=8 * engine.new_kv_manager().bytes_per_page())
        scheduler = ContinuousBatchingScheduler(
            kv_manager=kv, scheduling=SchedulingConfig(preemption=True))
        requests = [Request(request_id=i, prompt_len=31, output_len=20)
                    for i in range(4)]
        scheduler.submit(requests)
        scheduler.admit(now=0.0)
        for request in scheduler.prefilling_requests():
            scheduler.record_prefill(request, request.prefill_remaining,
                                     now=0.0)
        # Every decoder's context reaches its page boundary.
        scheduler.record_decode_step(
            now=1.0, commits={r.request_id: 1 for r in requests})
        assert kv.free_pages < len(scheduler.decoding_requests())
        return scheduler

    lazy, twin = commit_stepped(), commit_stepped()
    assert not lazy._indexed
    twin._reindex()
    survivors = lazy.prepare_decode(now=2.0)
    assert ([r.request_id for r in survivors]
            == [r.request_id for r in twin.prepare_decode(now=2.0)])
    assert lazy.num_preemptions == twin.num_preemptions > 0
    assert ({r.request_id: r.state for r in lazy.running}
            == {r.request_id: r.state for r in twin.running})
    assert ([lazy.kv_manager.allocated_tokens_capacity(i) for i in range(4)]
            == [twin.kv_manager.allocated_tokens_capacity(i)
                for i in range(4)])


# ----------------------------------------------------------------------
# Trace hook order
# ----------------------------------------------------------------------
class _HookRecorder(Tracer):
    """Records (hook, request id, exact time) for the request-level hooks."""

    def __init__(self) -> None:
        super().__init__()
        self.hooks = []

    def first_token(self, request, now):
        self.hooks.append(["first_token", request.request_id, now.hex()])
        super().first_token(request, now)

    def request_finished(self, request, now):
        self.hooks.append(["request_finished", request.request_id, now.hex()])
        super().request_finished(request, now)

    def request_preempted(self, request, now):
        self.hooks.append(["request_preempted", request.request_id, now.hex()])
        super().request_preempted(request, now)


def _record_hooks():
    """Hooks of a preempting chunked-prefill run in which every third
    request generates a single token (first token and finish in one step)."""
    base = make_lognormal_workload(48, arrival_rate=30.0, seed=6)
    workload = Workload(requests=[
        Request(request_id=r.request_id, prompt_len=r.prompt_len,
                output_len=1 if r.request_id % 3 == 0 else r.output_len,
                arrival_time=r.arrival_time)
        for r in base.requests])
    recorder = _HookRecorder()
    result = _engine(pages=200).serve(
        workload, max_num_seqs=16,
        scheduling=SCHEDULING_PRESETS["chunked-preempt"], telemetry=recorder)
    assert result.num_finished == len(workload)
    return recorder.hooks


def test_trace_hook_order_matches_golden():
    hooks = _record_hooks()
    kinds = {kind for kind, _, _ in hooks}
    assert kinds == {"first_token", "request_finished", "request_preempted"}
    assert hooks == json.loads(HOOK_ORDER.read_text())


if __name__ == "__main__":
    HOOK_ORDER.write_text(json.dumps(_record_hooks()) + "\n")
    print(f"wrote {HOOK_ORDER}", file=sys.stderr)
