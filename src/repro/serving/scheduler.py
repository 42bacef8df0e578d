"""In-flight (continuous) batching scheduler.

QServe, vLLM and TensorRT-LLM all admit new requests into the running batch as
soon as KV-cache pages free up, instead of waiting for the whole batch to
finish.  The scheduler below implements that, parameterised by a
:class:`repro.serving.policies.SchedulerPolicy` that fixes the admission
order, whether blocked requests may be bypassed (head-of-line bypass), and
the eviction order under preemption.

Two admission-reservation modes are supported:

* **conservative** (``preemption=False``, seed behaviour): pages for the
  request's final length (``prompt_len + output_len``) are reserved up front,
  so a running request can never be starved of pages mid-generation — the
  policy TensorRT-LLM uses when preemption is disabled.
* **optimistic** (``preemption=True``): only the tokens the request currently
  holds are reserved, which admits far more requests; when the cache later
  fills, the lowest-priority running request is *preempted*: its pages are
  reclaimed, it returns to the waiting queue in the ``PREEMPTED`` state, and
  on readmission its KV cache is recomputed by re-prefilling
  ``prompt_len + generated`` tokens (vLLM's recompute-style preemption).

With a :class:`~repro.serving.prefix_cache.PrefixCache` attached, admission
first matches each request's longest cached prompt prefix: the hit tokens
need no prefill and no private pages (the shared pool covers them), a
request's freshly prefilled blocks are published to the cache when its
prefill completes, and page pressure — at admission or when a decode crosses
a page boundary — evicts cached-but-unreferenced blocks LRU-first *before*
any running request is preempted.  Preemption and completion release the
request's block references but never reclaim a shared page outright, so a
block referenced by any other request always survives.

Disaggregated serving adds one more flow through the same machinery: a
prefill-role replica calls :meth:`ContinuousBatchingScheduler.export_request`
the moment a prefill completes (the request leaves in the ``MIGRATING`` state
and its pages are reclaimed), and the decode replica's scheduler admits the
arriving request with ``kv_ready`` set — pages are *adopted* for the
transferred KV state, no prefill is planned, and the request joins the decode
batch directly.  See :mod:`repro.serving.cluster` for the transfer pricing.

A plain decode step costs O(events), not O(batch): decoding requests count
their tokens off the scheduler's decode-iteration counter, and heaps keyed
on the iteration at which each request finishes or next needs a KV page
pick out the few requests a step changes (``docs/PERFORMANCE.md``, "Lazy
decode accounting").  The heads of those heaps bound how many plain steps in
a row hold no event at all (:meth:`ContinuousBatchingScheduler.decode_window`),
which the engine runs without a step apiece.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.serving.kv_cache_manager import PagedKVCacheManager, PageAllocationError
from repro.serving.policies import (LEGACY_SCHEDULING, SchedulerPolicy,
                                    SchedulingConfig)
from repro.serving.prefix_cache import PrefixCache
from repro.serving.request import Request, RequestState, check_positive_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.serving.telemetry import Tracer

__all__ = ["ContinuousBatchingScheduler"]


def _waiting_key(request: Request):
    return (request.available_time, request.request_id)


def _run_seq(request: Request) -> int:
    return request._run_seq


def _remove(requests: List[Request], request: Request) -> None:
    """Delete ``request`` from a list kept in running order, by identity."""
    index = bisect.bisect_left(requests, request._run_seq, key=_run_seq)
    if index == len(requests) or requests[index] is not request:
        raise ValueError(f"request {request.request_id} is not listed")
    del requests[index]


#: Tier-aware admission thresholds: a replica is under pressure with fewer
#: than this share of its KV pages free, or with at most this share of its
#: sequence slots open.
FREE_TIER_PAGE_HEADROOM = 0.10
FREE_TIER_SEQ_HEADROOM = 0.25
#: Aging floor: a free-tier request waiting this long counts as paid rank.
TIER_AGING_S = 5.0
#: :meth:`ContinuousBatchingScheduler.quiet_pass` for a pass that scans, and
#: :meth:`ContinuousBatchingScheduler.quiet_window` for no window.
_SCAN = (0, 0, -math.inf)
_NO_WINDOW = (0, 0, 0, 0, -math.inf)


@dataclass
class ContinuousBatchingScheduler:
    """Policy-driven continuous-batching scheduler over a paged KV cache.

    Every setting comes from ``scheduling``: the admission/eviction policy
    (``cache-aware`` is bound to ``prefix_cache``), optimistic reservation
    with preemption, and tier-aware admission.  ``max_num_seqs`` caps the
    running batch: a positive integer, or ``None`` for no cap.  The fields
    after ``model_name`` are the built policy and run state.
    """

    kv_manager: PagedKVCacheManager
    scheduling: SchedulingConfig = LEGACY_SCHEDULING
    max_num_seqs: Optional[int] = 256
    prefix_cache: Optional[PrefixCache] = None
    #: Optional telemetry recorder (:class:`~repro.serving.telemetry.Tracer`).
    #: Every hook below sits behind an ``is not None`` guard, so an untraced
    #: scheduler pays one pointer test per call site at most.
    tracer: Optional["Tracer"] = None
    #: Multi-model serving: the model whose weights every batch iteration of
    #: this scheduler runs.  ``None`` (single-model) admits any request;
    #: otherwise submission rejects requests tagged for a different model —
    #: one scheduler's batch can only ever execute its own resident model,
    #: so a mistagged request would silently produce another model's tokens.
    model_name: Optional[str] = None
    policy: SchedulerPolicy = field(init=False)
    #: The waiting requests, in two queues (``docs/PERFORMANCE.md``, "The
    #: two waiting queues").  ``pending`` is a min-heap of
    #: ``(available_time, request_id, submit seq, request)`` over requests
    #: not yet available; ``ready`` holds the available ones, in admission
    #: key order when the policy's key is static.  Each :meth:`admit` first
    #: moves the pending requests that have become available to ``ready``.
    ready: List[Request] = field(init=False, default_factory=list)
    pending: List[Tuple[float, int, int, Request]] = field(
        init=False, default_factory=list)
    _submit_seq: Iterator[int] = field(init=False,
                                       default_factory=itertools.count)
    running: List[Request] = field(init=False, default_factory=list)
    finished: List[Request] = field(init=False, default_factory=list)
    num_preemptions: int = field(init=False, default=0)
    recomputed_prefill_tokens: int = field(init=False, default=0)
    #: Admission-scan instrumentation: requests actually examined by
    #: :meth:`admit`'s scan loop across the run, and admit() calls resolved
    #: by a constant-time fast path (sequence cap reached, nothing arrived,
    #: or a provably full KV cache) without touching the queue.  Together
    #: they pin down the scheduler's admission work: a run whose queue never
    #: drains should resolve almost every step through the fast path instead
    #: of rescanning the whole waiting list.
    admission_scanned_requests: int = field(init=False, default=0)
    admission_fast_skips: int = field(init=False, default=0)
    #: Tier-aware admission (multi-tenant SLO tiers): paid-tier requests
    #: admit ahead of free-tier ones, and free-tier requests are *deferred*
    #: (skipped without a scan, counted in ``tier_deferrals``) while the
    #: replica is under pressure — fewer than :data:`FREE_TIER_PAGE_HEADROOM`
    #: of the KV pages free, or at most :data:`FREE_TIER_SEQ_HEADROOM` of
    #: the sequence slots open.  A deferred request older than
    #: :data:`TIER_AGING_S` is promoted to paid rank (the aging floor:
    #: sustained paid load can delay free traffic but never starve it).
    #: With ``free_tier_drop_after_s`` set, never-admitted free-tier
    #: requests still waiting that long under pressure are dropped (load
    #: shedding) into ``dropped``.
    dropped: List[Request] = field(init=False, default_factory=list)
    tier_deferrals: int = field(init=False, default=0)
    drops_by_tier: Dict[str, int] = field(init=False, default_factory=dict)
    #: :meth:`_aging_cut` of ``ready``, or ``None`` when stale:
    #: :meth:`_make_ready` folds each entry in, and admission and
    #: :meth:`take_waiting` clear it.  A removal only raises the true
    #: cut, so a cut left stale is early, which costs speed but never
    #: results; shedding, the other way out of ``ready``, leaves it so.
    _ready_cut: Optional[float] = field(init=False, default=None)
    #: Lazy decode accounting (see ``docs/PERFORMANCE.md``).  Plain decode
    #: steps run so far: a plain-decoding request's ``generated`` is derived
    #: from this counter instead of being written every step.
    decode_iterations: int = field(init=False, default=0)
    #: The decode batch and the prefilling requests, each in running order
    #: (``running`` is ordered by ``Request._run_seq``, handed out from
    #: ``_next_seq`` at admission).
    _decoding: List[Request] = field(init=False, default_factory=list)
    _prefilling: List[Request] = field(init=False, default_factory=list)
    #: The victim index: ``(admission key, request)`` for every running
    #: request, in key order, so a preemption victim is read off the end
    #: instead of scanning the batch.  ``None`` until the first pick under
    #: :meth:`_victim_index_on` sorts the batch into it (a run that never
    #: preempts never pays for it); kept from then on.  Keys are unique,
    #: so entries compare by key alone, and each request's key is computed
    #: once on entry and once on exit.
    _by_key: Optional[List[Tuple[Tuple, Request]]] = field(init=False,
                                                           default=None)
    _next_seq: int = field(init=False, default=0)
    #: Sum over the decode batch of ``context_len - decode_iterations``.
    _context_sum: int = field(init=False, default=0)
    #: Event structures, so a plain step touches only the requests an event
    #: happens to: decoders still owed their first token, and heaps of
    #: ``(decode iteration, run seq, request)`` for each request's finish
    #: and next page crossing.  Entries of requests that left go stale and
    #: are skipped when popped.  A speculative commit moves every key, so
    #: it clears ``_indexed`` and the next plain use rebuilds them.
    _fresh: List[Request] = field(init=False, default_factory=list)
    _finish_heap: List[Tuple[int, int, Request]] = field(
        init=False, default_factory=list)
    _crossing_heap: List[Tuple[int, int, Request]] = field(
        init=False, default_factory=list)
    _indexed: bool = field(init=False, default=True)

    def __post_init__(self) -> None:
        if self.max_num_seqs is None:
            self.max_num_seqs = 10**9  # no cap
        check_positive_int("max_num_seqs", self.max_num_seqs)
        self.policy = self.scheduling.build_policy()
        if hasattr(self.policy, "prefix_cache"):
            # Cache-aware policies rank by live cache state.
            self.policy.prefix_cache = self.prefix_cache

    def submit(self, requests: List[Request]) -> None:
        """Add requests to the pending queue (ordered by availability time).

        For ordinary requests availability is the arrival time; migrated
        requests additionally wait for their KV transfer to land
        (:attr:`Request.available_time`).
        """
        if self.model_name is not None:
            for request in requests:
                if request.model is not None \
                        and request.model != self.model_name:
                    raise ValueError(
                        f"request {request.request_id} targets model "
                        f"{request.model!r}; this scheduler batches "
                        f"{self.model_name!r}")
        if self.tracer is not None:
            for request in requests:
                self.tracer.request_queued(request)
        for request in requests:
            heapq.heappush(self.pending, (
                request.available_time, request.request_id,
                next(self._submit_seq), request))

    def queued(self) -> Iterator[Request]:
        """Every waiting request: the ready queue, then the pending heap."""
        return itertools.chain(self.ready,
                               (entry[-1] for entry in self.pending))

    @property
    def waiting(self) -> List[Request]:
        """Every waiting request in availability order: a sorted copy, for
        tests and cold paths only."""
        return sorted(self.queued(), key=_waiting_key)

    @property
    def num_waiting(self) -> int:
        """Requests in both queues."""
        return len(self.ready) + len(self.pending)

    def next_available_time(self) -> Optional[float]:
        """When the earliest pending request becomes available (``None``
        with nothing pending)."""
        return self.pending[0][0] if self.pending else None

    def take_waiting(self) -> List[Request]:
        """Empty both queues; returns their requests in availability order."""
        waiting = self.waiting
        self.ready, self.pending = [], []
        self._ready_cut = None
        return waiting

    def _make_ready(self, request: Request) -> None:
        """Queue an available request for admission, stamping its page
        demand.

        This is the one way into ``ready``.  A waiting request holds no
        private pages (preemption, export and evacuation free them; new
        arrivals and migrants hold none) and its reservation is fixed while
        it waits, so the pages its admission needs before any prefix-cache
        hit are known here once: ``None`` when optimistic admission must
        refuse it outright (see :meth:`admit`).
        """
        kv_manager = self.kv_manager
        if self.scheduling.preemption and kv_manager.pages_for_tokens(
                request.prompt_len + request.output_len) > kv_manager.total_pages:
            request._page_demand = None
        else:
            request._page_demand = kv_manager.pages_for_tokens(
                self._reservation_tokens(request))
        if self.policy.static_key:
            bisect.insort(self.ready, request, key=self.policy.admission_key)
        else:
            self.ready.append(request)  # admit() sorts the queue
        if self._ready_cut is not None:
            self._ready_cut = min(self._ready_cut,
                                  self._aging_cut((request,)))

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _reservation_tokens(self, request: Request) -> int:
        """KV tokens to reserve at admission under the current mode."""
        if self.scheduling.preemption:
            # Optimistic: only what the request holds right now (its prompt,
            # plus any generated tokens to recompute after a preemption).
            return request.context_len
        # Conservative: the request's final footprint, so growth never fails.
        return request.prompt_len + request.output_len

    def admit(self, now: float) -> List[Request]:
        """Admit waiting requests in policy order; returns the new prefills.

        With ``policy.allow_bypass`` (plain FCFS, SJF) a request blocked on
        pages or the sequence cap is skipped and later requests may still be
        admitted.  Under ``strict-fcfs`` admission halts at the first blocked
        request so that arrival order is never violated.

        The returned list feeds the iteration planner, so it contains only
        requests that actually need prefill work: a migrated request
        (``kv_ready``) adopts its transferred pages and enters the running
        batch directly in the decoding state.

        The scan is *incremental*: steps on which admission provably cannot
        change anything — the sequence cap is already reached, no waiting
        request has arrived yet, (without a prefix cache) the KV cache
        has no free page and no waiting request can ever need zero, or every
        waiting request is a young free-tier one under pressure
        (:meth:`quiet_pass`) — return immediately without walking the
        queue, and the scan loop stops the moment the cap is hit, a
        no-bypass policy blocks or pressure defers the young free-tier
        requests left.  Every fast path is a pure short-circuit of the full
        scan: the admissions it returns and the queue it leaves behind are
        identical, step for step.  The scan walks the ready queue in place,
        which a static policy key keeps in admission order between passes,
        so a pass costs the requests it moves or scans, not the backlog.  A scanned request costs a few
        comparisons: its page demand was stamped when it became ready
        (:meth:`_make_ready`), and free pages are read again only after an
        admission or a prefix eviction.
        """
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
        if now < until:
            self.admission_fast_skips += skips
            self.tier_deferrals += deferrals
            return []

        admitted: List[Request] = []
        kv_manager = self.kv_manager
        prefix_cache = self.prefix_cache
        allow_bypass = self.policy.allow_bypass
        if not self.policy.static_key:
            ready.sort(key=self.policy.admission_key)
        order = ready
        if tier_admission:
            # Paid tier first; a free-tier request past the aging floor
            # counts as paid, and each part keeps the policy order.  Tier
            # rank deliberately outranks arrival order — that is what a
            # priority tier *is* — so even strict-FCFS reorders across
            # tiers when this mode is on.
            order, young = [], []
            for request in ready:
                if (request.tier == "free"
                        and now - request.available_time < TIER_AGING_S):
                    young.append(request)
                else:
                    order.append(request)
            first_young = len(order)
            order += young
        # Free pages move only when this pass admits or evicts, so they are
        # read again only then; the running batch grows only after the pass.
        free = kv_manager.free_pages
        seats = self.max_num_seqs - len(self.running)
        last = 0  # the position in ``order`` of the last admission
        for position, request in enumerate(order):
            if (tier_admission and position >= first_young
                    and self._tier_pressure(len(admitted))):
                # Deferred free-tier requests: a constant-time pre-screen,
                # not an admission scan — they must not inflate
                # ``admission_scanned_requests`` (none was examined against
                # pages or the cap).  A deferral changes nothing pressure
                # reads, so every young request after this one defers too.
                self.tier_deferrals += len(order) - position
                break
            self.admission_scanned_requests += 1
            if len(admitted) >= seats:
                # The cap blocks this and every later request (nothing below
                # can admit once it is reached), so stop scanning.
                break
            need = request._page_demand
            if need is None:
                # Optimistic admission still refuses requests whose *final*
                # footprint exceeds the whole cache: no amount of preemption
                # could ever finish them, so admitting would end in a
                # mid-decode allocation failure instead of a clean
                # never-admitted report.
                if not allow_bypass:
                    break
                continue
            cached_nodes: List = []
            shared_pages = 0
            pinned = False
            if prefix_cache is not None:
                pinned = prefix_cache.is_pinned(request.request_id)
                if pinned:
                    # An in-flight migration pinned its prefix when the
                    # transfer was priced; reuse those references (matching
                    # again would double-count them).  The pinned blocks are
                    # referenced, so the eviction pass cannot touch them.
                    shared_pages = request.shared_kv_pages
                else:
                    cached_nodes, _ = prefix_cache.match(request)
                    shared_pages = len(cached_nodes)
                    # Hitting demoted blocks restores them to full precision
                    # at acquire time, which consumes the capacity demotion
                    # reclaimed — budget those pages alongside the cold
                    # suffix so the promotions are pre-funded.  Always zero
                    # with demotion off.
                    need += prefix_cache.promotion_page_need(cached_nodes)
                need -= shared_pages
                shortfall = need - free
                if prefix_cache.can_reclaim(shortfall, cached_nodes):
                    # Reclaim unreferenced cached blocks before refusing
                    # admission, shielding the blocks this request matched.
                    # When even a full eviction pass could not cover the
                    # shortfall (e.g. a request larger than the whole cache)
                    # the shared blocks are left alone: flushing them would
                    # not admit this request but would destroy every other
                    # request's reuse.
                    prefix_cache.evict(shortfall, protect=cached_nodes)
                    free = kv_manager.free_pages
            if need > free:
                if not allow_bypass:
                    break
                continue
            tokens = self._reservation_tokens(request)
            if request.kv_ready:
                # The uncached pages' contents arrive via KV transfer.
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
            # The allocation, any promotions on acquire, and a migrant's
            # deduplicating insert all move the free count.
            free = kv_manager.free_pages
        if not admitted:
            return []  # every arrived request stayed blocked; queue unchanged
        # Drop the admitted requests from the ready queue; the blocked ones
        # keep their order.  Without the tier partition every admission lies
        # in the scanned prefix ``ready[:last + 1]``.
        end = len(ready) if tier_admission else last + 1
        admitted_ids = {id(r) for r in admitted}
        ready[:end] = [r for r in ready[:end] if id(r) not in admitted_ids]
        self._ready_cut = None
        self.running.extend(admitted)
        if self._by_key is not None:
            admission_key = self.policy.admission_key
            for request in admitted:
                bisect.insort(self._by_key, (admission_key(request), request))
        return [r for r in admitted if r.state is RequestState.PREFILLING]

    def quiet_pass(self) -> Tuple[int, int, float]:
        """What an :meth:`admit` pass does when it provably admits nothing,
        with every available request already in the ready queue: ``(skips,
        deferrals, until)``, the fast skips and tier deferrals it adds, for
        a pass at any ``now`` before ``until``; ``until`` is ``-inf`` when
        the pass must scan.

        A pass skips (1; 0 with both queues empty) when nothing has
        arrived, the sequence cap is reached, or (without a prefix cache)
        the KV cache has no free page; ``until`` is then the next pending
        arrival, whose pass moves it to the ready queue.  Under tier
        pressure with every ready request young free tier, a pass defers
        them all (``len(ready)``) and ``until`` is also capped where the
        oldest ages.  With the running batch fixed, free pages only fall,
        so pressure persists and the answer stands until ``ready`` changes.
        The aging cut is kept across calls (``_ready_cut``), so a call
        costs O(1) except the first after an admission, which walks
        ``ready`` once, as the admitting pass did.  Under shedding the
        answer holds once the pass has shed.
        """
        pending = self.pending
        until = pending[0][0] if pending else math.inf
        if not self.ready:
            # Nothing has arrived yet (a skip), or nothing waits at all.
            return (1 if pending else 0), 0, until
        if len(self.running) >= self.max_num_seqs or (
                self.prefix_cache is None and self.kv_manager.free_pages <= 0):
            # The cap blocks every arrived request, or every one needs a
            # fresh page (waiting requests hold no allocation) and there is
            # neither a free page nor a shared pool to evict from.
            return 1, 0, until
        if self.scheduling.tier_admission and self._tier_pressure():
            if self._ready_cut is None:
                self._ready_cut = self._aging_cut(self.ready)
            return 0, len(self.ready), min(until, self._ready_cut)
        return _SCAN

    def quiet_window(self) -> Tuple[int, int, int, int, float]:
        """How far plain decoding can run from here without an event:
        ``(quiet, claim, skips, deferrals, until)``.

        ``quiet`` and ``claim`` are :meth:`decode_window`'s, and every
        iteration of the window must also start before ``until`` and adds
        :meth:`quiet_pass`'s ``skips`` and ``deferrals`` for its admission
        pass.  ``quiet`` is 0 when a ready request may be shed by the
        clock.
        """
        quiet, claim = self.decode_window()
        if quiet <= 0 or (self.ready and self.scheduling
                          .free_tier_drop_after_s is not None):
            return _NO_WINDOW
        return (quiet, claim) + self.quiet_pass()

    def ready_can_change(self) -> bool:
        """Whether an admission pass now may take or shed a ready request.

        Requests no admission can ever take do not count: their final
        footprint exceeds the whole pool, so optimistic admission stamps
        them no page demand (see :meth:`_make_ready`), and conservative
        admission a demand above the pool size, which it can never meet
        without a prefix cache.  With one, a demoted shared tier can hand
        back fractional pages, so every request counts there.  Under
        free-tier shedding any ready request counts, since a pass may drop
        it.
        """
        ready = self.ready
        if not ready or self.scheduling.free_tier_drop_after_s is not None:
            return bool(ready)
        limit = (math.inf if self.prefix_cache is not None
                 else self.kv_manager.total_pages)
        return any(r._page_demand is not None and r._page_demand <= limit
                   for r in ready)

    # ------------------------------------------------------------------
    # Tier-aware admission (multi-tenant SLO tiers)
    # ------------------------------------------------------------------
    @staticmethod
    def _aging_cut(requests: Sequence[Request]) -> float:
        """The first ``now`` at which one of ``requests`` ranks as paid:
        ``-inf`` when one is paid tier, else the least float with ``now -
        available_time >= TIER_AGING_S`` for the oldest (the aging floor
        that keeps sustained paid load from starving free traffic
        forever), so ``now < cut`` is exactly the aging test for all of
        them.  ``inf`` for none."""
        if any(r.tier != "free" for r in requests):
            return -math.inf
        since = min((r.available_time for r in requests), default=math.inf)
        cut = since + TIER_AGING_S
        while cut - since < TIER_AGING_S:
            cut = math.nextafter(cut, math.inf)
        while math.nextafter(cut, -math.inf) - since >= TIER_AGING_S:
            cut = math.nextafter(cut, -math.inf)
        return cut

    def _tier_pressure(self, extra_seqs: int = 0) -> bool:
        """Is the replica under page or queue pressure right now?

        ``extra_seqs`` counts requests admitted earlier in the same pass, so
        pressure can develop mid-scan as admissions consume slots and pages.
        """
        kv = self.kv_manager
        if kv.free_pages < FREE_TIER_PAGE_HEADROOM * kv.total_pages:
            return True
        open_slots = self.max_num_seqs - len(self.running) - extra_seqs
        return open_slots <= FREE_TIER_SEQ_HEADROOM * self.max_num_seqs

    def _shed_free_tier(self, now: float) -> None:
        """Drop never-admitted free-tier requests stuck past the shed cutoff.

        Load shedding applies only under pressure and only to requests that
        were never admitted (``admitted_time is None``): a preempted request
        has already consumed prefill work, so killing it would waste more
        capacity than finishing it.  Dropped requests leave the queue in the
        terminal ``DROPPED`` state with ``drop_time`` stamped.
        """
        if not self._tier_pressure():
            return
        cutoff = self.scheduling.free_tier_drop_after_s
        kept: List[Request] = []
        for request in self.ready:
            if (request.tier == "free" and request.admitted_time is None
                    and now - request.available_time > cutoff):
                request.state = RequestState.DROPPED
                request.drop_time = now
                self.dropped.append(request)
                self.drops_by_tier[request.tier] = \
                    self.drops_by_tier.get(request.tier, 0) + 1
                if self.tracer is not None:
                    self.tracer.request_dropped(request, now)
            else:
                kept.append(request)
        if len(kept) != len(self.ready):
            self.ready[:] = kept

    def _begin_prefill(self, request: Request, now: float) -> None:
        if request.kv_ready:
            # Disaggregated handoff: the full context's KV state was
            # transferred from the prefill replica, so the request skips
            # prefill and joins the decode batch directly.  Its complete
            # prompt blocks are published to this replica's prefix cache so
            # later same-prefix arrivals (and future migrations, which then
            # transfer only their cold suffix) reuse them.
            request.state = RequestState.DECODING
            request.prefill_target = 0
            request.prefilled = 0
            request.served_precision_bits = \
                self.kv_manager.system.min_precision_bits
            if self.prefix_cache is not None:
                self.prefix_cache.insert(request)
            self._join(request)
            if request.admitted_time is None:
                request.admitted_time = now
            if self.tracer is not None:
                self.tracer.request_admitted(request, now)
            return
        was_preempted = request.state is RequestState.PREEMPTED
        request.state = RequestState.PREFILLING
        self._prefilling.append(request)  # the newest run seq sorts last
        request.served_precision_bits = \
            self.kv_manager.system.min_precision_bits
        # Cache-hit tokens (``cached_tokens``, stamped by the prefix cache at
        # acquire time; zero without a cache) need no prefill — only the cold
        # suffix does.  The cap at prompt_len - 1 hit tokens guarantees a
        # nonzero target.
        request.prefill_target = request.context_len - request.cached_tokens
        request.prefilled = 0
        if was_preempted:
            # Recompute-style readmission: the KV cache of the prompt *and*
            # all previously generated tokens must be rebuilt (minus whatever
            # prompt prefix the cache still holds).
            self.recomputed_prefill_tokens += request.prefill_target
        if request.admitted_time is None:
            request.admitted_time = now
        if self.tracer is not None:
            self.tracer.request_admitted(request, now)

    # ------------------------------------------------------------------
    # Prefill progress
    # ------------------------------------------------------------------
    def record_prefill(self, request: Request, tokens: int, now: float) -> None:
        """Account ``tokens`` of prefill progress; completes the prefill when
        the target is reached and moves the request to the decoding state."""
        if request.state is not RequestState.PREFILLING:
            raise ValueError(f"request {request.request_id} is not prefilling")
        request.prefilled += tokens
        if request.prefilled >= request.prefill_target:
            _remove(self._prefilling, request)
            request.state = RequestState.DECODING
            request.prefill_done_time = now
            if self.prefix_cache is not None:
                # Publish the freshly prefilled prompt blocks for reuse.
                self.prefix_cache.insert(request)
            self._join(request)
            if self.tracer is not None:
                self.tracer.prefill_done(request, now)

    # ------------------------------------------------------------------
    # Preemption
    # ------------------------------------------------------------------
    def _release_kv_residency(self, request: Request) -> None:
        """Drop a running request's KV residency on this device.

        Prefix references are released (the shared blocks stay cached for
        other requests), private pages are reclaimed, and the request leaves
        the running batch — the teardown shared by preemption and the
        disaggregated export.
        """
        if request.state is RequestState.DECODING:
            self._leave(request)
        elif request.state is RequestState.PREFILLING:
            _remove(self._prefilling, request)
        if self.prefix_cache is not None:
            self.prefix_cache.release(request.request_id)
        request.cached_tokens = 0
        request.shared_kv_pages = 0
        request.demoted_hit_tokens = 0
        self.kv_manager.free(request.request_id)
        self._stop_running(request)

    def _stop_running(self, request: Request) -> None:
        """Take ``request`` out of ``running`` and the victim index."""
        _remove(self.running, request)
        by_key = self._by_key
        if by_key is not None:
            # ``(key,)`` sorts just before ``(key, request)``.
            index = bisect.bisect_left(
                by_key, (self.policy.admission_key(request),))
            if index == len(by_key) or by_key[index][1] is not request:
                raise ValueError(
                    f"request {request.request_id} is not indexed")
            del by_key[index]

    def _victim_index_on(self) -> bool:
        """Does a victim pick use the index?  Only under preemption
        (nothing else picks a victim) and for a policy whose key is fixed
        for a request's whole life (:attr:`SchedulerPolicy.lifetime_key`).
        Read through ``self.policy`` at each pick, so a policy swapped in
        before the run is honoured."""
        return self.scheduling.preemption and self.policy.lifetime_key

    def preempt(self, request: Request, now: float) -> None:
        """Reclaim a running request's private pages and return it to the
        queue at simulated time ``now``.

        Shared blocks are only de-referenced, never freed here: another
        request may still be reading them, and an unreferenced block stays
        cached for the victim's own readmission.
        """
        self._release_kv_residency(request)
        request.state = RequestState.PREEMPTED
        request.preemptions += 1
        request.prefilled = 0
        # The whole context must be re-prefilled on readmission; keep the
        # target current so prefill_remaining (and SJF ordering) reflect the
        # true recompute cost while the request sits in the queue.  A
        # preempted *migrated* request loses its transferred pages with the
        # rest, so it falls back to local recompute like any other victim.
        request.prefill_target = request.context_len
        request.kv_ready = False
        self._make_ready(request)
        self.num_preemptions += 1
        if self.tracer is not None:
            self.tracer.request_preempted(request, now)

    # ------------------------------------------------------------------
    # Disaggregated handoff
    # ------------------------------------------------------------------
    def export_request(self, request: Request, now: float) -> None:
        """Hand an in-flight request off to another replica (prefill→decode).

        Called by a prefill-role replica the instant a prefill completes: the
        request leaves the running batch in the ``MIGRATING`` state and its
        local KV pages are reclaimed — the KV *state* travels to the decode
        replica as a priced transfer, not as pages on this device.  Prefix
        references are only dropped, so blocks the prefill published stay
        cached here for future same-prefix arrivals.  ``now`` stamps the
        export in the trace.
        """
        if request.state is not RequestState.DECODING:
            raise ValueError(
                f"request {request.request_id} has not completed prefill; "
                f"only prefill-complete requests migrate")
        self._release_kv_residency(request)
        request.state = RequestState.MIGRATING
        request.kv_ready = True
        if self.tracer is not None:
            self.tracer.request_exported(request, now)

    def prepare_decode(self, now: float,
                       lookahead: Optional[Callable[[Request], int]] = None
                       ) -> List[Request]:
        """Guarantee every decoding request can append its next token(s).

        Under optimistic admission a decode step may need a fresh page for a
        request whose context crosses a page boundary.  Pages are claimed here,
        highest-priority request first; when the cache is exhausted the
        policy's lowest-priority *running* request (decoding or prefilling) is
        preempted at ``now`` until the claim fits.  Returns the surviving
        decode batch.

        Only the crossing requests are visited: the crossing heap yields the
        requests whose ``context_len + 1`` claim needs a page this step (a
        claim that needs no page cannot fail, so it would change nothing).
        With no lookahead and at least one free page per decoder, no claim
        can fall short, so claim order cannot matter and the pass is the
        unranked :meth:`claim_crossings`; only the pass that may preempt
        walks the crossings in rank order.
        ``lookahead`` (speculative decoding) returns the extra draft tokens a
        request will verify beyond its next token; claims then vary per
        request and per step, so the crossing requests are found by a scan.
        The claim covers the whole speculated block optimistically; tokens
        rejected at verification are trimmed back by
        :meth:`record_decode_step`, keeping page conservation exact.
        """
        if not self.scheduling.preemption or not self._decoding:
            return self.decoding_requests()
        kv_manager = self.kv_manager
        if lookahead is None:
            if kv_manager.free_pages >= len(self._decoding):
                # A plain crossing claims one page: no claim can fall short.
                self.claim_crossings()
                return self.decoding_requests()
            crossing = self._pop_crossings()
        else:
            crossing = [r for r in self._decoding if kv_manager.needs_pages(
                r.request_id, r.context_len + 1 + lookahead(r),
                r.shared_kv_pages)]
        for request in self.policy.admission_order(crossing):
            if request.state is not RequestState.DECODING:
                continue  # preempted as a victim earlier in this pass
            claim = request.context_len + 1
            if lookahead is not None:
                claim += lookahead(request)
            while True:
                deficit = (kv_manager.pages_needed(
                    request.request_id, claim,
                    request.shared_kv_pages) - kv_manager.free_pages)
                if deficit <= 0:
                    break  # the claim fits
                if (self.prefix_cache is not None
                        and self.prefix_cache.evict(deficit) > 0):
                    # Unreferenced cached blocks go before any running
                    # request is preempted.
                    continue
                victim = self._pick_victim(request)
                if victim is None:
                    # Nothing lower-priority left to evict.
                    if len(self.running) > 1:
                        self.preempt(request, now)
                        break
                    raise PageAllocationError(
                        f"request {request.request_id} needs "
                        f"{claim} tokens of KV cache but the "
                        f"device holds only "
                        f"{kv_manager.total_pages * kv_manager.page_size}")
                self.preempt(victim, now)
            if request.state is RequestState.DECODING:
                self._claim(request, claim)
        return self.decoding_requests()

    def claim_crossings(self) -> int:
        """Claim the page each crossing due this decode iteration needs;
        returns the pages claimed.

        This is :meth:`prepare_decode` without lookahead when at least one
        page per decoder is free: a plain crossing claims one page, so no
        claim falls short and nothing is evicted or preempted.  The
        engine's coast calls it inside a quiet window.

        A decoder's pages always cover the tokens it holds, so a due
        crossing is due on this very iteration, and one more page carries
        it exactly ``page_size`` iterations on: each live entry is renewed
        in place and the pass grows every claimer in one KV call.  Claim
        order shows nowhere (heap keys are unique, no claim falls short,
        and no claim is traced), so the pass does not rank.
        """
        if not self._indexed:
            self._reindex()
        heap = self._crossing_heap
        done = self.decode_iterations
        page_size = self.kv_manager.page_size
        claimers: List[int] = []
        while heap and heap[0][0] <= done:
            crossing, seq, request = heap[0]
            if request._decode_clock is self and request._run_seq == seq:
                heapq.heapreplace(heap, (crossing + page_size, seq, request))
                claimers.append(request.request_id)
            else:
                heapq.heappop(heap)
        return self.kv_manager.claim_next_pages(claimers) if claimers else 0

    def _claim(self, request: Request, tokens: int) -> int:
        """Grow ``request``'s allocation to ``tokens`` tokens and index its
        next crossing; returns the pages claimed.  The caller has made
        room: this never evicts or preempts."""
        claimed = self.kv_manager.allocate(request.request_id, tokens,
                                           request.shared_kv_pages)
        if self._indexed:
            self._index_crossing(request)
        return claimed

    def _pick_victim(self, request: Request) -> Optional[Request]:
        """The request to preempt so ``request``'s claim can fit.

        The running request with the highest current admission key, except
        ``request`` and the decoding requests ranked above it: those already
        hold their claims this pass.  A decoding request's key cannot change
        during a pass, so its key now is its rank at pass start.  Keys end
        in ``request_id``, so they are unique.  One look suffices: unless
        ``request`` itself holds the top key, the top-key request ranks
        below it and is a candidate; if it does, every other decoding
        request is protected and only prefilling ones remain.  With the
        victim index on, the top key is the index's last entry (the first
        pick builds the index); otherwise it takes a scan.
        """
        admission_key = self.policy.admission_key
        if self._victim_index_on():
            if self._by_key is None:
                self._by_key = sorted(
                    (admission_key(r), r) for r in self.running)
            victim = self._by_key[-1][1]
        else:
            victim = max(self.running, key=admission_key)
        if victim is request:
            victim = max(self._prefilling, key=admission_key, default=None)
        return victim

    # ------------------------------------------------------------------
    # Decode accounting
    # ------------------------------------------------------------------
    def record_decode_step(self, now: float,
                           commits: Optional[Dict[int, int]] = None
                           ) -> List[Request]:
        """Account generated tokens per decoding request; retire finished ones.

        Without ``commits`` every decoding request advances by one token (the
        plain decode step): the decode counter ticks, and only the requests
        with an event — a first token or a finish — are touched.  With
        ``commits`` (speculative decoding) each request advances by its
        committed token count — accepted draft tokens plus the bonus token,
        so always >= 1 for participants; requests absent from the mapping
        are left untouched.  Under optimistic reservation the speculative
        page claim made by :meth:`prepare_decode` is trimmed back to the
        tokens actually kept, releasing the rejected tokens' pages
        (conservative reservation never allocated them in the first place).
        No step grows an allocation: conservative admission reserved the
        final footprint and :meth:`prepare_decode` claimed the new tokens.
        """
        completed: List[Request] = []
        if commits is not None:
            for request in list(self._decoding):
                tokens = min(commits.get(request.request_id, 0),
                             request.output_len - request.generated)
                if tokens <= 0:
                    continue
                # Written in place: the stored count and the context sum
                # move together; the event heaps go stale (see below).
                request._generated += tokens
                self._context_sum += tokens
                if self.scheduling.preemption and not request.finished:
                    # Roll back the optimistic speculative claim: pages held
                    # for drafted-but-rejected tokens are released again.
                    self.kv_manager.trim(request.request_id,
                                         request.context_len,
                                         request.shared_kv_pages)
                self._advance(request, now, completed)
            self._indexed = False
        else:
            if not self._indexed:
                self._reindex()
            self.decode_iterations += 1
            events = {r._run_seq: r for r in self._fresh
                      if r._decode_clock is self}
            self._fresh = []
            heap = self._finish_heap
            while heap and heap[0][0] <= self.decode_iterations:
                _, seq, request = heapq.heappop(heap)
                if request._decode_clock is self and request._run_seq == seq:
                    events[seq] = request
            for seq in sorted(events):
                self._advance(events[seq], now, completed)
        self.finished.extend(completed)
        return completed

    def _advance(self, request: Request, now: float,
                 completed: List[Request]) -> None:
        """Stamp ``request``'s first token and retire it if it is done."""
        if request.first_token_time is None:
            request.first_token_time = now
            if self.tracer is not None:
                self.tracer.first_token(request, now)
        if request.finished:
            self._leave(request)
            request.state = RequestState.FINISHED
            request.finish_time = now
            if self.prefix_cache is not None:
                self.prefix_cache.release(request.request_id)
            self.kv_manager.free(request.request_id)
            self._stop_running(request)
            completed.append(request)
            if self.tracer is not None:
                self.tracer.request_finished(request, now)

    # ------------------------------------------------------------------
    # Lazy decode accounting
    # ------------------------------------------------------------------
    def _join(self, request: Request) -> None:
        """Enter the decode batch (the request just became ``DECODING``):
        from now on ``generated`` counts this scheduler's decode steps."""
        request._decode_clock = self
        request._decode_join = self.decode_iterations
        self._context_sum += (request.prompt_len + request._generated
                              - request._decode_join)
        bisect.insort(self._decoding, request, key=_run_seq)
        if self._indexed:
            self._index(request)

    def _leave(self, request: Request) -> None:
        """Leave the decode batch (finish, preemption or export), with the
        ``generated`` count materialised."""
        self._context_sum -= (request.prompt_len + request._generated
                              - request._decode_join)
        request._generated = request.generated
        request._decode_clock = None
        _remove(self._decoding, request)
        if not self._decoding:
            self._reindex()  # drops every stale entry at once

    def _reindex(self) -> None:
        """Rebuild the event structures from the decode batch."""
        self._fresh, self._finish_heap, self._crossing_heap = [], [], []
        self._indexed = True
        for request in self._decoding:
            self._index(request)

    def _index(self, request: Request) -> None:
        """Enter a decoding request's first token, finish and next page
        crossing into the event structures."""
        if request.first_token_time is None:
            self._fresh.append(request)
        finish = (request._decode_join + request.output_len
                  - request._generated)
        heapq.heappush(self._finish_heap, (finish, request._run_seq, request))
        self._index_crossing(request)

    def _crossing_iteration(self, request: Request) -> Optional[int]:
        """The first decode iteration at which ``request``'s claim of
        ``context_len + 1`` tokens needs a fresh page.  ``None`` when no
        claim ever will: conservative admission reserved the final
        footprint, and a non-paged reservation covers ``max_seq_len``."""
        kv_manager = self.kv_manager
        if not self.scheduling.preemption or not kv_manager.system.paged_kv:
            return None
        covered = (kv_manager.allocated_tokens_capacity(request.request_id)
                   + request.shared_kv_pages * kv_manager.page_size)
        return covered - (request.prompt_len + request._generated
                          - request._decode_join)

    def _index_crossing(self, request: Request) -> None:
        crossing = self._crossing_iteration(request)
        if crossing is not None:
            heapq.heappush(self._crossing_heap,
                           (crossing, request._run_seq, request))

    def _pop_crossings(self) -> List[Request]:
        """Decoding requests whose next claim needs a page this step."""
        if not self._indexed:
            self._reindex()
        crossing: List[Request] = []
        heap = self._crossing_heap
        while heap and heap[0][0] <= self.decode_iterations:
            _, seq, request = heapq.heappop(heap)
            if request._decode_clock is self and request._run_seq == seq:
                crossing.append(request)
        return crossing

    def decode_window(self) -> Tuple[int, int]:
        """How far plain decoding can run from here without an event.

        Returns ``(quiet, claim)``: the next ``quiet`` plain decode
        iterations stamp no first token and retire no request, and the
        next ``claim`` of them claim no page, so :meth:`prepare_decode`
        and :meth:`record_decode_step` would change nothing on them beyond
        the decode counter.  ``quiet`` is 0 while a request prefills, a
        decoder awaits its first token, or the event heaps are stale.
        O(1): reads the heads of the event structures; a stale head only
        ends the window early.
        """
        if (self._prefilling or self._fresh or not self._indexed
                or not self._decoding):
            return 0, 0
        done = self.decode_iterations
        quiet = self._finish_heap[0][0] - done - 1
        crossings = self._crossing_heap
        return quiet, crossings[0][0] - done if crossings else quiet

    def decode_context_len(self) -> int:
        """:func:`~repro.serving.request.mean_context_len` of the decode
        batch, in O(1) from the running context sum."""
        batch = len(self._decoding)
        if not batch:
            return 0
        return int((self._context_sum + batch * self.decode_iterations)
                   / batch)

    # ------------------------------------------------------------------
    @property
    def all_done(self) -> bool:
        return not self.ready and not self.pending and not self.running

    def decoding_requests(self) -> List[Request]:
        """The decode batch, in running order (a copy)."""
        return list(self._decoding)

    def prefilling_requests(self) -> List[Request]:
        """The requests still prefilling, in running order (a copy)."""
        return list(self._prefilling)
