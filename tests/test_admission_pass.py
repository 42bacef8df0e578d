"""Tier-aware admission ≡ the sort-and-rerank pass it replaced.

``ContinuousBatchingScheduler.admit`` splits the ready queue into
paid-rank and young free-tier requests in one walk, stops at the first
young request that pressure defers, and answers a pass that would defer
every ready request in O(1) (``quiet_pass``).  ``_sorted_admit`` below is
the pass as it was before: a stable sort of the whole queue by tier rank,
then the rank and the pressure test again for every request.  Both run on
twin schedulers over ``hypothesis``-generated tiered queues (FCFS,
strict-FCFS, SJF and cache-aware; with and without a prefix cache whose
eviction runs inside the pass; requests no admission can take;
``now`` one ulp either side of a request's aging instant), and must agree
on every pass: the admitted lists, the ready order left behind and the
admission counters.
"""

import bisect
import heapq
import math
from typing import List

from hypothesis import given, settings, strategies as st

from repro.model import get_config
from repro.serving import (
    ContinuousBatchingScheduler,
    PagedKVCacheManager,
    PrefixCache,
    Request,
    RequestState,
    SchedulingConfig,
    get_system,
)
from repro.serving.scheduler import TIER_AGING_S

MODEL = get_config("llama-2-7b")
SYSTEM = get_system("qserve-w4a8kv4-chn")
PAGE = 16


def _tier_rank(request: Request, now: float) -> int:
    if request.tier != "free":
        return 0
    return 1 if now - request.available_time < TIER_AGING_S else 0


def _sorted_admit(self, now: float) -> List[Request]:
    """The admission pass before the tier partition, kept as the
    reference: the whole ready queue is re-sorted by tier rank on every
    pass, and each request's rank and the pressure are tested again."""
    pending = self.pending
    while pending and pending[0][0] <= now:
        self._make_ready(heapq.heappop(pending)[-1])
    scheduling = self.scheduling
    tier_admission = scheduling.tier_admission
    ready = self.ready
    if (tier_admission and scheduling.free_tier_drop_after_s is not None
            and ready):
        self._shed_free_tier(now)
    skips, deferrals, until = self.quiet_pass()
    if now < until and not deferrals:  # a skip, not a deferral
        self.admission_fast_skips += skips
        return []
    admitted: List[Request] = []
    kv_manager = self.kv_manager
    prefix_cache = self.prefix_cache
    allow_bypass = self.policy.allow_bypass
    if not self.policy.static_key:
        ready.sort(key=self.policy.admission_key)
    order = ready
    if tier_admission:
        order = sorted(order, key=lambda r: _tier_rank(r, now))
    free = kv_manager.free_pages
    seats = self.max_num_seqs - len(self.running)
    last = 0
    for position, request in enumerate(order):
        if (tier_admission and _tier_rank(request, now)
                and self._tier_pressure(len(admitted))):
            self.tier_deferrals += 1
            continue
        self.admission_scanned_requests += 1
        if len(admitted) >= seats:
            break
        need = request._page_demand
        if need is None:
            if not allow_bypass:
                break
            continue
        cached_nodes: List = []
        shared_pages = 0
        pinned = False
        if prefix_cache is not None:
            pinned = prefix_cache.is_pinned(request.request_id)
            if pinned:
                shared_pages = request.shared_kv_pages
            else:
                cached_nodes, _ = prefix_cache.match(request)
                shared_pages = len(cached_nodes)
                need += prefix_cache.promotion_page_need(cached_nodes)
            need -= shared_pages
            shortfall = need - free
            if prefix_cache.can_reclaim(shortfall, cached_nodes):
                prefix_cache.evict(shortfall, protect=cached_nodes)
                free = kv_manager.free_pages
        if need > free:
            if not allow_bypass:
                break
            continue
        tokens = self._reservation_tokens(request)
        if request.kv_ready:
            kv_manager.adopt(request.request_id, tokens, shared_pages)
        else:
            kv_manager.allocate(request.request_id, tokens, shared_pages)
        if prefix_cache is not None and not pinned:
            prefix_cache.acquire(request, cached_nodes,
                                 count_stats=not request.kv_ready)
        request._run_seq = self._next_seq
        self._next_seq += 1
        self._begin_prefill(request, now)
        admitted.append(request)
        last = position
        free = kv_manager.free_pages
    if not admitted:
        return []
    end = len(ready) if tier_admission else last + 1
    admitted_ids = {id(r) for r in admitted}
    ready[:end] = [r for r in ready[:end] if id(r) not in admitted_ids]
    self.running.extend(admitted)
    if self._by_key is not None:
        admission_key = self.policy.admission_key
        for request in admitted:
            bisect.insort(self._by_key, (admission_key(request), request))
    return [r for r in admitted if r.state is RequestState.PREFILLING]


# ----------------------------------------------------------------------
# Generated cases
# ----------------------------------------------------------------------
_QUEUED = st.tuples(
    st.sampled_from(["free", "free", "paid"]),
    st.floats(0.0, 12.0, allow_nan=False),            # arrival time
    st.integers(1, 300),                              # prompt tokens
    st.sampled_from([8, 64, 400, 4000]),              # output tokens
    st.integers(0, 3))                                # prompt content id


@st.composite
def _cases(draw):
    policy = draw(st.sampled_from(["fcfs", "strict-fcfs", "sjf",
                                   "cache-aware"]))
    prefix = policy == "cache-aware" or draw(st.booleans())
    queue = draw(st.lists(_QUEUED, min_size=1, max_size=12))
    # Pass instants: arbitrary ones, and one ulp either side of (or at) a
    # queued request's aging instant.
    nows = draw(st.lists(st.one_of(
        st.floats(0.0, 20.0, allow_nan=False),
        st.tuples(st.integers(0, len(queue) - 1),
                  st.sampled_from([-1, 0, 1])).map(
            lambda pick: _ulps(queue[pick[0]][1] + TIER_AGING_S, pick[1]))),
        min_size=1, max_size=5))
    return dict(
        scheduling=SchedulingConfig(
            policy=policy, preemption=draw(st.booleans()),
            prefix_caching=prefix,
            kv_demotion=prefix and draw(st.booleans()),
            tier_admission=True,
            free_tier_drop_after_s=draw(st.sampled_from([None, None, 2.0]))),
        pages=draw(st.integers(24, 160)),
        max_num_seqs=draw(st.integers(2, 10)),
        warm=draw(st.integers(0, 4)) if prefix else 0,
        running=draw(st.integers(0, 8)),
        queue=queue,
        nows=sorted(nows))


def _ulps(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


def _build(case):
    """A tiered scheduler in the case's state: ``warm`` prefilled requests
    exported to leave unreferenced blocks in the prefix cache, ``running``
    paid requests admitted at 0, and the queue submitted."""
    kv = PagedKVCacheManager(
        model=MODEL, system=SYSTEM, page_size=PAGE, max_seq_len=4096,
        capacity_bytes=case["pages"] * PAGE * SYSTEM.kv_bytes_per_token(MODEL))
    scheduling = case["scheduling"]
    prefix_cache = (PrefixCache(kv, demotion=scheduling.kv_demotion)
                    if scheduling.prefix_caching else None)
    scheduler = ContinuousBatchingScheduler(
        kv_manager=kv, scheduling=scheduling,
        max_num_seqs=case["max_num_seqs"], prefix_cache=prefix_cache)
    rid = iter(range(10**6))
    warm = [Request(request_id=next(rid), prompt_len=96, output_len=8,
                    prompt_segments=((100 + i % 4, 96),))
            for i in range(case["warm"])]
    scheduler.submit(warm)
    for request in scheduler.admit(0.0):
        scheduler.record_prefill(request, request.prefill_remaining, 0.0)
        scheduler.export_request(request, 0.0)
    scheduler.submit([Request(request_id=next(rid), prompt_len=64,
                              output_len=200)
                      for _ in range(case["running"])])
    scheduler.admit(0.0)
    queued = []
    for tier, arrival, prompt, output, content in case["queue"]:
        segments = ((100 + content, min(prompt, 96)),)
        if prompt > 96:
            segments += ((200 + next(rid), prompt - 96),)
        queued.append(Request(request_id=next(rid), prompt_len=prompt,
                              output_len=output, arrival_time=arrival,
                              tier=tier, prompt_segments=segments))
    scheduler.submit(queued)
    return scheduler


def _state(scheduler, admitted):
    prefix = scheduler.prefix_cache
    return dict(
        admitted=[r.request_id for r in admitted],
        ready=[r.request_id for r in scheduler.ready],
        running=[r.request_id for r in scheduler.running],
        dropped=[r.request_id for r in scheduler.dropped],
        tier_deferrals=scheduler.tier_deferrals,
        scanned=scheduler.admission_scanned_requests,
        fast_skips=scheduler.admission_fast_skips,
        free_pages=scheduler.kv_manager.free_pages,
        evicted=None if prefix is None else prefix.stats.evicted_pages)


def _aging_edges(waiting, now):
    """Waiting free-tier requests one ulp short of aging at ``now``, and
    those that age exactly at ``now``."""
    short = at = 0
    for r in waiting:
        if r.tier == "free":
            a = r.available_time
            short += (now - a < TIER_AGING_S
                      <= math.nextafter(now, math.inf) - a)
            at += (math.nextafter(now, -math.inf) - a < TIER_AGING_S
                   <= now - a)
    return short, at


def test_partitioned_pass_matches_the_sorted_reference():
    seen = dict.fromkeys(["quiet", "stopped", "aging_short", "aging_at",
                          "no_demand", "evicted", "shed"], 0)
    policies = set()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=_cases())
    def check(case):
        new, old = _build(case), _build(case)
        policies.add(case["scheduling"].policy)
        for now in case["nows"]:
            # Who waits at ``now`` (pending requests available by then
            # join the ready queue first).
            waiting = list(old.ready) + [e[-1] for e in old.pending
                                         if e[0] <= now]
            before = _state(old, [])
            expected = _state(old, _sorted_admit(old, now))
            assert _state(new, new.admit(now)) == expected
            deferred = expected["tier_deferrals"] - before["tier_deferrals"]
            scanned = expected["scanned"] - before["scanned"]
            seen["quiet"] += bool(deferred) and not scanned
            seen["stopped"] += bool(deferred) and scanned > 0
            short, at = _aging_edges(waiting, now)
            seen["aging_short"] += bool(short)
            seen["aging_at"] += bool(at)
            seen["no_demand"] += any(r._page_demand is None for r in waiting)
            seen["evicted"] += (expected["evicted"] is not None and bool(
                expected["tier_deferrals"] or scanned)
                and expected["evicted"] > before["evicted"])
            seen["shed"] += expected["dropped"] != before["dropped"]

    check()
    assert policies == {"fcfs", "strict-fcfs", "sjf", "cache-aware"}
    assert all(count >= 5 for count in seen.values()), seen


def _aging_edge_holds(scheduler, cut):
    """``cut`` is the aging instant of the ready queue's oldest request:
    every request is still young one ulp before it, and one has aged at
    it."""
    before = math.nextafter(cut, -math.inf)
    ready = scheduler.ready
    return (all(before - r.available_time < TIER_AGING_S for r in ready)
            and any(cut - r.available_time >= TIER_AGING_S for r in ready))


def test_deferral_cut_follows_the_ready_queue():
    """The kept cut is folded on entry and dropped on the way out, and it
    is the exact aging instant even where ``available_time +
    TIER_AGING_S`` rounds one ulp past it."""
    kv = PagedKVCacheManager(model=MODEL, system=SYSTEM, page_size=PAGE,
                             max_seq_len=4096, capacity_bytes=10 * (1 << 30))
    scheduler = ContinuousBatchingScheduler(
        kv_manager=kv, scheduling=SchedulingConfig(tier_admission=True),
        max_num_seqs=8)
    scheduler.submit([Request(request_id=i, prompt_len=64, output_len=8)
                      for i in range(6)])
    assert len(scheduler.admit(0.0)) == 6     # two seats open: pressure

    def free(request_id, arrival):
        return Request(request_id=request_id, prompt_len=64, output_len=8,
                       arrival_time=arrival, tier="free")

    late = 1.8693506643708413    # rounds ``late + TIER_AGING_S`` up a ulp
    for since in (late, 7.087007655448983):  # ... and down one
        cut = scheduler._aging_cut((free(9, since),))
        assert cut != since + TIER_AGING_S
        assert (math.nextafter(cut, -math.inf) - since < TIER_AGING_S
                <= cut - since)
    scheduler.submit([free(10, late), free(11, 2.5), free(12, 3.0)])
    assert scheduler.admit(3.0) == []
    assert scheduler.tier_deferrals == 3
    cut = scheduler.quiet_pass()[2]
    assert _aging_edge_holds(scheduler, cut)
    assert cut < late + TIER_AGING_S

    # A paid arrival folds into the kept cut: it is scanned, not deferred.
    scheduler.submit([Request(request_id=20, prompt_len=64, output_len=8,
                              arrival_time=3.5)])
    assert [r.request_id for r in scheduler.admit(3.5)] == [20]
    assert scheduler.tier_deferrals == 6

    before = math.nextafter(cut, -math.inf)
    scanned = scheduler.admission_scanned_requests
    assert scheduler.admit(before) == []      # one ulp short of aging
    assert scheduler.admission_scanned_requests == scanned
    assert [r.request_id for r in scheduler.admit(cut)] == [10]
    # That filled the last seat, so a pass would stop at the cap before
    # reading the cut; one more seat keeps the replica under pressure.
    scheduler.max_num_seqs += 1
    # Admission dropped the kept cut: the next oldest request sets it.
    assert _aging_edge_holds(scheduler, scheduler.quiet_pass()[2])

    # So does emptying the queues.
    scheduler.take_waiting()
    scheduler.submit([free(30, 20.0)])
    scheduler.admit(20.0)
    assert scheduler.ready and _aging_edge_holds(scheduler,
                                                 scheduler.quiet_pass()[2])


def test_ready_requests_no_admission_can_take_wait_only_for_shedding():
    """A ready request whose final footprint exceeds the whole pool gives a
    turn nothing to do (``next_ready_time`` skips it), unless free-tier
    shedding may drop it."""
    for shed_after, waits in ((None, False), (1.0, True)):
        kv = PagedKVCacheManager(
            model=MODEL, system=SYSTEM, page_size=PAGE, max_seq_len=4096,
            capacity_bytes=50 * PAGE * SYSTEM.kv_bytes_per_token(MODEL))
        scheduler = ContinuousBatchingScheduler(
            kv_manager=kv, max_num_seqs=8, scheduling=SchedulingConfig(
                preemption=True, tier_admission=True,
                free_tier_drop_after_s=shed_after))
        scheduler.submit([Request(request_id=0, prompt_len=64,
                                  output_len=4000, tier="free")])
        assert scheduler.admit(0.0) == []
        assert scheduler.ready and scheduler.ready[0]._page_demand is None
        assert scheduler.ready_can_change() is waits
