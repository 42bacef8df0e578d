"""Scheduling policies and iteration planners for the serving simulator.

The serving loop in :mod:`repro.serving.engine` is deliberately policy-free:
every decision that distinguishes one serving system from another lives here,
behind two small abstractions.

``SchedulerPolicy``
    Decides the *order* in which waiting requests are considered for
    admission, whether a blocked request may be bypassed by later arrivals
    (head-of-line bypass), and which running request to evict first when the
    KV cache runs out of pages (preemption victim selection).  Three policies
    ship by default:

    * ``fcfs`` — first-come-first-served with head-of-line bypass: a request
      blocked on pages does not prevent later, smaller requests from being
      admitted.  This matches the seed scheduler's (previously implicit)
      behaviour.
    * ``strict-fcfs`` — admission stops at the first request that cannot be
      admitted, guaranteeing no request is ever overtaken.
    * ``sjf`` — shortest-job-first: requests with the least total work
      (remaining prefill plus remaining output) are admitted first.  Reduces
      mean latency at the cost of potential starvation of long requests.
    * ``cache-aware`` — requests whose prompt has the longest cached prefix
      (see :mod:`repro.serving.prefix_cache`) are admitted first, FCFS among
      equals: a hit-heavy request costs almost no prefill, so admitting it
      early raises goodput and keeps its blocks referenced (un-evictable).

``IterationPlanner``
    Decides what a single model iteration computes.  ``StallPrefillPlanner``
    reproduces the seed engine exactly: newly admitted prompts are prefilled
    in one batched call while the running batch stalls.
    ``ChunkedPrefillPlanner`` implements Sarathi/vLLM-style chunked prefill:
    each iteration carries a bounded budget of prefill tokens *alongside* the
    full decode batch, so decodes never stall and time-between-tokens stays
    bounded.

``SchedulingConfig`` bundles a policy name, planner choice and preemption
switch into a preset; ``SCHEDULING_PRESETS["legacy"]`` is bit-for-bit
equivalent to the seed serving loop.
"""

from __future__ import annotations

import abc
import math
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Type

from repro.serving.request import Request

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.serving.prefix_cache import PrefixCache
    from repro.serving.scheduler import ContinuousBatchingScheduler

__all__ = [
    "SchedulerPolicy",
    "FCFSPolicy",
    "StrictFCFSPolicy",
    "ShortestJobFirstPolicy",
    "CacheAwarePolicy",
    "POLICIES",
    "get_policy",
    "IterationPlan",
    "IterationPlanner",
    "StallPrefillPlanner",
    "ChunkedPrefillPlanner",
    "SchedulingConfig",
    "SCHEDULING_PRESETS",
    "LEGACY_SCHEDULING",
]


# ----------------------------------------------------------------------
# Scheduler policies
# ----------------------------------------------------------------------
class SchedulerPolicy(abc.ABC):
    """Ordering and bypass rules for admission and preemption."""

    #: Registry key; subclasses override.
    name: str = "abstract"
    #: May a request blocked on pages (or the sequence cap) be overtaken by a
    #: later request in admission order?
    allow_bypass: bool = True
    #: Is a waiting request's admission key fixed while it waits?  Then the
    #: scheduler keeps its ready queue in key order across admission passes;
    #: otherwise (the default) it re-sorts the queue on every pass.
    static_key: bool = False
    #: Is a request's admission key fixed for its whole life, running
    #: included?  Then, under preemption, the scheduler also keeps the
    #: running requests in key order and reads each victim off the end
    #: instead of scanning the batch.  SJF's key falls as a request
    #: progresses and cache-aware's reads live cache state, so both leave
    #: it off.
    lifetime_key: bool = False

    @abc.abstractmethod
    def admission_key(self, request: Request) -> Tuple:
        """Sort key; lower sorts earlier (= higher admission priority)."""

    def admission_order(self, requests: List[Request]) -> List[Request]:
        """Waiting requests in the order admission should consider them.

        Preemption reads the same key the other way round: the running
        request with the highest key is the lowest-priority victim.
        """
        return sorted(requests, key=self.admission_key)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class FCFSPolicy(SchedulerPolicy):
    """First-come-first-served with head-of-line bypass (seed behaviour)."""

    name = "fcfs"
    allow_bypass = True
    static_key = True
    lifetime_key = True  # arrival time and id never change

    def admission_key(self, request: Request) -> Tuple:
        return (request.arrival_time, request.request_id)


class StrictFCFSPolicy(FCFSPolicy):
    """FCFS without bypass: admission halts at the first blocked request."""

    name = "strict-fcfs"
    allow_bypass = False


class ShortestJobFirstPolicy(SchedulerPolicy):
    """Admit the request with the least remaining work first."""

    name = "sjf"
    allow_bypass = True
    static_key = True  # remaining work is fixed while a request waits

    def admission_key(self, request: Request) -> Tuple:
        remaining = (request.prefill_target - request.prefilled) + (
            request.output_len - request.generated)
        return (remaining, request.arrival_time, request.request_id)


class CacheAwarePolicy(SchedulerPolicy):
    """Admit the request with the longest cached prompt prefix first.

    ``prefix_cache`` is bound by the engine stepper when prefix caching is
    enabled; unbound (or with a cold cache) the policy degrades to plain
    FCFS.  Victim selection inherits the reversed admission order, so under
    preemption the *least*-cached running request is evicted first — the one
    whose recompute costs the most cache-able prefill.  The key reads live
    cache state, so ``static_key`` stays off.
    """

    name = "cache-aware"
    allow_bypass = True

    def __init__(self) -> None:
        self.prefix_cache: "PrefixCache | None" = None

    def admission_key(self, request: Request) -> Tuple:
        hit = (self.prefix_cache.lookup_tokens(request)
               if self.prefix_cache is not None else 0)
        return (-hit, request.arrival_time, request.request_id)


POLICIES: Dict[str, Type[SchedulerPolicy]] = {
    cls.name: cls for cls in (FCFSPolicy, StrictFCFSPolicy,
                              ShortestJobFirstPolicy, CacheAwarePolicy)
}


def get_policy(name: str) -> SchedulerPolicy:
    """Instantiate a scheduling policy by registry name."""
    try:
        return POLICIES[name]()
    except KeyError:
        known = ", ".join(sorted(POLICIES))
        raise KeyError(f"unknown policy {name!r}; known: {known}") from None


# ----------------------------------------------------------------------
# Iteration planners
# ----------------------------------------------------------------------
@dataclass
class IterationPlan:
    """What one model iteration computes.

    ``prefill_chunks`` pairs each prefilling request with the number of its
    prompt tokens processed this iteration; ``decode`` lists the requests
    that each generate one token, and ``decode_context`` is their
    :func:`~repro.serving.request.mean_context_len`, the context the decode
    batch is priced at.  ``stalled_prefill`` marks the legacy
    whole-prompt batched prefill, which the engine prices with every prompt
    padded to the longest one (see
    :meth:`repro.serving.engine.ServingEngine.prefill`).
    """

    prefill_chunks: List[Tuple[Request, int]] = field(default_factory=list)
    decode: List[Request] = field(default_factory=list)
    decode_context: int = 0
    stalled_prefill: bool = False

    @property
    def is_empty(self) -> bool:
        return not self.prefill_chunks and not self.decode

    def chunk_pairs(self) -> List[Tuple[int, int]]:
        """Each prefill chunk as the ``(tokens, kv_offset)`` pair the
        engine's mixed-step cost path consumes: a chunk's queries attend to
        the request's cached prefix plus whatever it already prefilled.
        The single source of that mapping — the plain and the speculative
        iteration paths both price chunks through it, so they can never
        drift apart.
        """
        return [(tokens, r.cached_tokens + r.prefilled)
                for r, tokens in self.prefill_chunks]


class IterationPlanner(abc.ABC):
    """Chooses each iteration's prefill/decode composition."""

    @abc.abstractmethod
    def plan(self, scheduler: "ContinuousBatchingScheduler",
             admitted: List[Request]) -> IterationPlan:
        """Build the next iteration's plan from current scheduler state."""


class StallPrefillPlanner(IterationPlanner):
    """Seed behaviour: admitted prompts prefill in full, stalling decodes."""

    def plan(self, scheduler: "ContinuousBatchingScheduler",
             admitted: List[Request]) -> IterationPlan:
        if admitted:
            chunks = [(r, r.prefill_target) for r in admitted]
            return IterationPlan(prefill_chunks=chunks, stalled_prefill=True)
        return IterationPlan(decode=scheduler.decoding_requests(),
                             decode_context=scheduler.decode_context_len())


class ChunkedPrefillPlanner(IterationPlanner):
    """Mix a bounded budget of prefill tokens into every decode iteration.

    ``token_budget`` caps the total tokens per iteration (decode tokens count
    one each); whatever budget the decode batch leaves is handed to waiting
    prefills in scheduler (admission) order.  A prompt therefore streams into
    the batch over several iterations instead of stalling it.
    """

    def __init__(self, token_budget: int = 512) -> None:
        if token_budget <= 0:
            raise ValueError("token_budget must be positive")
        self.token_budget = token_budget
        #: Iteration tokens one decoding request will consume; bound by the
        #: engine stepper when speculative decoding is on (a speculating
        #: request verifies ``lookahead + 1`` rows, not 1), ``None`` counts
        #: each decode as a single token.
        self.decode_token_weight = None

    def plan(self, scheduler: "ContinuousBatchingScheduler",
             admitted: List[Request]) -> IterationPlan:
        decode = scheduler.decoding_requests()
        if self.decode_token_weight is None:
            decode_tokens = len(decode)
        else:
            decode_tokens = sum(self.decode_token_weight(r) for r in decode)
        budget = max(0, self.token_budget - decode_tokens)
        chunks: List[Tuple[Request, int]] = []
        for request in scheduler.prefilling_requests():
            if budget <= 0:
                break
            tokens = min(request.prefill_remaining, budget)
            if tokens > 0:
                chunks.append((request, tokens))
                budget -= tokens
        return IterationPlan(prefill_chunks=chunks, decode=decode,
                             decode_context=scheduler.decode_context_len())


# ----------------------------------------------------------------------
# Scheduling presets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SchedulingConfig:
    """One complete serving-loop configuration.

    Attributes
    ----------
    policy:
        Key into :data:`POLICIES` selecting the admission/eviction order.
    chunked_prefill:
        When true, use :class:`ChunkedPrefillPlanner` so prefill tokens share
        iterations with decodes; otherwise the legacy stall-the-world prefill.
    prefill_chunk_size:
        Per-iteration token budget for chunked prefill.
    preemption:
        When true, admission reserves pages only for the tokens a request
        currently holds (optimistic) and the scheduler preempts-and-recomputes
        low-priority requests when the cache fills; when false, admission
        conservatively reserves ``prompt_len + output_len`` up front and
        preemption never occurs (seed behaviour).
    prefix_caching:
        When true, the engine attaches a
        :class:`~repro.serving.prefix_cache.PrefixCache` to the scheduler:
        prompt prefixes already resident in the KV cache (shared system
        prompts, chat histories) skip prefill and share ref-counted pages,
        with LRU eviction of unreferenced blocks under page pressure.
        Requires a paged-KV system; off by default — all existing results
        are bitwise-unchanged.
    kv_demotion:
        When true (requires ``prefix_caching``), the prefix cache demotes
        cold unreferenced blocks to the 4-bit KV tier under page pressure
        before resorting to LRU eviction: demoted blocks keep their contents
        hittable at ~1/4 the footprint, and a later hit pays a
        dequantization pass (priced by the engine) to restore them.  A no-op
        on systems already storing KV at 4 bits.  Off by default.
    tier_admission:
        When true, admission becomes SLO-tier aware (multi-tenant serving):
        paid-tier requests admit ahead of free-tier ones, free-tier requests
        are deferred while the replica is under page/queue pressure, and a
        deferred request older than the aging floor is promoted to paid rank
        (no starvation); the pressure thresholds and the floor are constants
        of :mod:`repro.serving.scheduler`.  Off by default; untagged requests
        default to the paid tier, so enabling it on a tier-less workload
        changes nothing.
    free_tier_drop_after_s:
        With ``tier_admission``, never-admitted free-tier requests stuck
        longer than this many seconds under pressure are dropped (load
        shedding).  ``None`` (the default) never sheds.

    Construction rejects an unknown ``policy``, a ``prefill_chunk_size``
    that is not a positive integer, a ``free_tier_drop_after_s`` that is
    negative, infinite or NaN, and ``kv_demotion`` without
    ``prefix_caching``.
    """

    policy: str = "fcfs"
    chunked_prefill: bool = False
    prefill_chunk_size: int = 512
    preemption: bool = False
    prefix_caching: bool = False
    kv_demotion: bool = False
    tier_admission: bool = False
    free_tier_drop_after_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; known: "
                             f"{', '.join(sorted(POLICIES))}")
        if isinstance(self.prefill_chunk_size, bool) or not isinstance(
                self.prefill_chunk_size, numbers.Integral):
            raise ValueError(f"prefill_chunk_size must be an integer, got "
                             f"{self.prefill_chunk_size!r}")
        if self.prefill_chunk_size <= 0:
            raise ValueError("prefill_chunk_size must be positive")
        # A chained comparison: NaN fails it like a negative value.
        if (self.free_tier_drop_after_s is not None
                and not 0.0 <= self.free_tier_drop_after_s < math.inf):
            raise ValueError(
                f"free_tier_drop_after_s must be non-negative and finite, "
                f"got {self.free_tier_drop_after_s!r}")
        if self.kv_demotion and not self.prefix_caching:
            raise ValueError(
                "kv_demotion applies to shared prefix-cache blocks; enable "
                "prefix_caching alongside it")

    def build_policy(self) -> SchedulerPolicy:
        return get_policy(self.policy)

    def build_planner(self) -> IterationPlanner:
        if self.chunked_prefill:
            return ChunkedPrefillPlanner(token_budget=self.prefill_chunk_size)
        return StallPrefillPlanner()


#: The seed engine's exact behaviour: conservative FCFS with bypass,
#: whole-prompt stalling prefill, no preemption.
LEGACY_SCHEDULING = SchedulingConfig()

SCHEDULING_PRESETS: Dict[str, SchedulingConfig] = {
    "legacy": LEGACY_SCHEDULING,
    "strict-fcfs": SchedulingConfig(policy="strict-fcfs"),
    "sjf": SchedulingConfig(policy="sjf"),
    "chunked": SchedulingConfig(chunked_prefill=True),
    "chunked-preempt": SchedulingConfig(chunked_prefill=True, preemption=True),
    "prefix": SchedulingConfig(chunked_prefill=True, prefix_caching=True),
    "prefix-aware": SchedulingConfig(chunked_prefill=True, prefix_caching=True,
                                     policy="cache-aware"),
    "prefix-preempt": SchedulingConfig(chunked_prefill=True,
                                       prefix_caching=True, preemption=True),
    "prefix-demote": SchedulingConfig(chunked_prefill=True,
                                      prefix_caching=True, kv_demotion=True),
    "prefix-demote-preempt": SchedulingConfig(
        chunked_prefill=True, prefix_caching=True, preemption=True,
        kv_demotion=True),
    "tiered": SchedulingConfig(chunked_prefill=True, preemption=True,
                               tier_admission=True),
    "tiered-shed": SchedulingConfig(chunked_prefill=True, preemption=True,
                                    tier_admission=True,
                                    free_tier_drop_after_s=20.0),
}
