"""Requests and workloads for the serving simulator.

Besides the paper's uniform 1024-in/512-out benchmark workload
(:func:`make_uniform_workload`), this module provides two generators for
stress-testing schedulers under realistic traffic:

* :func:`make_lognormal_workload` — ShareGPT-like lognormal mixes of prompt
  and output lengths, optionally with Poisson arrivals;
* :func:`make_bursty_workload` — on/off (Markov-modulated Poisson) arrivals:
  bursts of traffic at a high rate separated by idle gaps, the pattern that
  exposes head-of-line blocking and page-pressure preemption;
* :func:`make_shared_prefix_workload` — requests sharing a long system
  prompt / few-shot template ahead of a unique suffix;
* :func:`make_chat_workload` — multi-turn chat sessions whose prompts grow
  with the conversation history, the workload class prefix caching exists
  for.

Prompt *content* is modelled by ``Request.prompt_segments``: an optional
sequence of ``(content_id, length)`` pairs covering the prompt left to
right.  Equal content ids denote identical token spans, which is what the
prefix cache (:mod:`repro.serving.prefix_cache`) keys on; requests without
segments are treated as unique content and never share KV state.  Content
ids are drawn from a module-global counter, so two separate generator calls
never alias each other's content by accident.
"""

from __future__ import annotations

import enum
import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "RequestState",
    "Request",
    "Workload",
    "mean_context_len",
    "make_uniform_workload",
    "make_lognormal_workload",
    "make_bursty_workload",
    "make_router_study_workload",
    "make_shared_prefix_workload",
    "make_chat_workload",
    "make_mixed_precision_workload",
]

#: Global source of fresh prompt-content ids (see module docstring).
_CONTENT_IDS = itertools.count(1)


def check_positive_int(name: str, value) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is a positive
    integer (numpy's included, ``bool`` not)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value <= 0):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _checked_segment(segment) -> Tuple[int, int]:
    """One ``prompt_segments`` entry as a pair of ``int``: a ``ValueError``
    naming ``prompt_segments`` unless it is an integer content id (not
    ``bool``: ``True`` would alias content id 1) and a positive integer
    length (numpy's count)."""
    try:
        content_id, length = segment
    except (TypeError, ValueError):
        raise ValueError(f"prompt_segments entries must be (content_id, "
                         f"length) pairs, got {segment!r}") from None
    if (isinstance(content_id, bool)
            or not isinstance(content_id, numbers.Integral)):
        raise ValueError(f"prompt_segments content ids must be integers, "
                         f"got {content_id!r}")
    check_positive_int("prompt_segments length", length)
    return int(content_id), int(length)


class RequestState(str, enum.Enum):
    """Lifecycle of a request inside the serving engine.

    ``MIGRATING`` is the disaggregated-serving handoff state: the request's
    prefill finished on a prefill-role replica, its KV state is in flight to
    a decode replica, and it re-enters a scheduler's waiting queue there
    (with ``kv_ready`` set) until the transfer lands.
    """

    WAITING = "waiting"
    PREFILLING = "prefilling"
    DECODING = "decoding"
    PREEMPTED = "preempted"
    MIGRATING = "migrating"
    FINISHED = "finished"
    #: Terminal load-shedding state: the request was removed from the waiting
    #: queue by tier-aware admission (free tier under sustained pressure) and
    #: will never be served.  Only reachable with ``tier_admission`` on.
    DROPPED = "dropped"


@dataclass
class Request:
    """One generation request.

    The throughput benchmark of the paper uses 1024 prompt tokens and 512
    output tokens per request; :func:`make_uniform_workload` builds exactly
    that.

    Prefill progress is tracked explicitly (``prefilled`` out of
    ``prefill_target`` tokens) so chunked prefill can spread a prompt over
    several iterations, and so a preempted request can be re-prefilled over
    ``prompt_len + generated`` tokens on readmission (recompute-style
    preemption).
    """

    request_id: int
    prompt_len: int
    output_len: int
    arrival_time: float = 0.0
    #: Prompt content as ``(content_id, length)`` spans (see module
    #: docstring); ``None`` means unique, never-shared content.
    prompt_segments: Optional[Tuple[Tuple[int, int], ...]] = None
    state: RequestState = RequestState.WAITING
    generated: int = 0
    prefill_done_time: Optional[float] = None
    finish_time: Optional[float] = None
    # Prefill progress within the current residency (set at admission).
    prefilled: int = 0
    prefill_target: int = 0
    #: Prompt tokens served from the prefix cache this residency (their
    #: prefill is skipped) and the shared KV pages currently referenced.
    cached_tokens: int = 0
    shared_kv_pages: int = 0
    # Latency bookkeeping.
    first_token_time: Optional[float] = None
    admitted_time: Optional[float] = None
    preemptions: int = 0
    #: Disaggregated serving: the request's KV state arrived via transfer, so
    #: admission adopts the pages and skips prefill entirely.  Cleared on
    #: preemption — reclaimed transferred pages must be recomputed locally.
    kv_ready: bool = False
    #: Simulation time the transferred KV state lands on the target replica;
    #: admission may not precede it.  ``None`` for never-migrated requests.
    migration_ready_time: Optional[float] = None
    #: Prefill→decode handoffs this request went through, and the exposed
    #: (non-overlapped) KV-transfer delay they added to its critical path.
    migrations: int = 0
    transfer_delay_s: float = 0.0
    #: Speculative decoding: draft-and-verify iterations this request took
    #: part in, draft tokens proposed for it, and how many survived
    #: verification.  All zero when speculation is off (or the request only
    #: ever decoded plainly, e.g. a single-token output).
    spec_steps: int = 0
    draft_proposed: int = 0
    draft_accepted: int = 0
    #: Cached prefix tokens that hit blocks held at the demoted 4-bit tier
    #: this residency; the engine charges one dequantization pass over them
    #: when the request's prefill starts.  Zero whenever KV demotion is off.
    demoted_hit_tokens: int = 0
    #: Quality floor: minimum ``min(weight_bits, kv_bits)`` of the system
    #: allowed to serve this request.  ``0.0`` accepts any precision; a
    #: latency-/quality-sensitive request might demand ``16.0`` (FP16-only).
    precision_floor_bits: float = 0.0
    #: ``min_precision_bits`` of the system that admitted the request;
    #: stamped at admission, joins the SLO definition as a quality check.
    served_precision_bits: float = 0.0
    #: Multi-tenancy: the tenant that issued the request and its SLO tier
    #: (``"paid"`` or ``"free"``).  Ignored entirely unless the scheduler is
    #: built with ``tier_admission`` on; the default tier is ``"paid"`` so
    #: untagged workloads behave identically under tiered admission.
    tenant: Optional[str] = None
    tier: str = "paid"
    #: Model name from a replayed trace (informational; single-model engines
    #: serve every request with their own model regardless).
    model: Optional[str] = None
    #: Simulation time tier-aware admission dropped the request (load
    #: shedding); ``None`` for requests that were never dropped.
    drop_time: Optional[float] = None
    # Lazy decode accounting (plain attributes, not dataclass fields): while
    # a scheduler advances this request by plain decode steps, ``generated``
    # reads the stored ``_generated`` plus the decode iterations that
    # scheduler (``_decode_clock``) ran since ``_decode_join``.
    # ``_run_seq`` is the request's position in its scheduler's running
    # order, and ``_page_demand`` the pages its admission needs before any
    # prefix hit, stamped when it joins a scheduler's ready queue (``None``:
    # it can never fit).
    _decode_clock = None
    _decode_join = 0
    _run_seq = 0
    _page_demand = 0

    def __post_init__(self) -> None:
        # Token counts must be true integers (numpy's count): admission
        # derives a request's page demand from them once, when it joins a
        # ready queue.  A positive ``int`` skips the full check.
        for name, value in (("prompt_len", self.prompt_len),
                            ("output_len", self.output_len)):
            if type(value) is not int or value <= 0:
                check_positive_int(name, value)
        # A chained comparison: NaN fails it like a negative value.
        if not 0.0 <= self.arrival_time < math.inf:
            raise ValueError(f"arrival_time must be non-negative and finite, "
                             f"got {self.arrival_time!r}")
        if self.prompt_segments is not None:
            # Pairs of plain ``int`` pass as they are; anything else is
            # checked and converted.  The prefix cache keys on the pairs.
            segments = tuple(self.prompt_segments)
            for segment in segments:
                if (type(segment) is not tuple or len(segment) != 2
                        or type(segment[0]) is not int
                        or type(segment[1]) is not int or segment[1] <= 0):
                    segments = tuple(map(_checked_segment, segments))
                    break
            self.prompt_segments = segments
            if sum(length for _, length in self.prompt_segments) != self.prompt_len:
                raise ValueError("prompt_segments lengths must sum to prompt_len")
        if self.prefill_target <= 0:
            self.prefill_target = self.prompt_len

    @property
    def context_len(self) -> int:
        """Tokens currently occupying KV cache (prompt + generated)."""
        return self.prompt_len + self.generated

    @property
    def available_time(self) -> float:
        """Earliest time a scheduler may admit this request.

        The arrival time, except for migrated requests, which additionally
        wait for their KV transfer to land on the target replica.
        """
        if self.migration_ready_time is None:
            return self.arrival_time
        return max(self.arrival_time, self.migration_ready_time)

    @property
    def prefill_remaining(self) -> int:
        """Prompt (or recompute) tokens still to prefill this residency."""
        return max(0, self.prefill_target - self.prefilled)

    @property
    def finished(self) -> bool:
        return self.generated >= self.output_len

    def copy_fresh(self) -> "Request":
        """A pristine copy (same id/lengths/arrival/content, no progress)."""
        return Request(request_id=self.request_id, prompt_len=self.prompt_len,
                       output_len=self.output_len, arrival_time=self.arrival_time,
                       prompt_segments=self.prompt_segments,
                       precision_floor_bits=self.precision_floor_bits,
                       tenant=self.tenant, tier=self.tier, model=self.model)


def _get_generated(request: Request) -> int:
    clock = request._decode_clock
    if clock is None:
        return request._generated
    return request._generated + clock.decode_iterations - request._decode_join


def _set_generated(request: Request, value: int) -> None:
    if request._decode_clock is not None:
        raise RuntimeError(
            f"request {request.request_id} is decoding; its scheduler owns "
            f"the generated count")
    request._generated = value


# Installed after the dataclass is built, so ``generated`` stays an init
# field with default 0 and every access goes through the lazy count.
Request.generated = property(
    _get_generated, _set_generated,
    doc="Output tokens generated so far (lazy while plain-decoding).")


def mean_context_len(requests: Sequence[Request]) -> int:
    """The one context length a batch is priced at: its members' mean
    ``context_len``, truncated to an integer (0 for an empty batch)."""
    if not requests:
        return 0
    return int(sum(r.context_len for r in requests) / len(requests))


@dataclass
class Workload:
    """A batch of requests plus summary helpers."""

    requests: List[Request] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def total_output_tokens(self) -> int:
        return sum(r.output_len for r in self.requests)

    @property
    def total_prompt_tokens(self) -> int:
        return sum(r.prompt_len for r in self.requests)

    def copy_fresh(self) -> "Workload":
        """A pristine copy of the workload.

        ``ServingEngine.serve`` mutates request state in place; use this to
        run the same workload under several scheduling configurations.
        """
        return Workload(requests=[r.copy_fresh() for r in self.requests])


def make_uniform_workload(num_requests: int, prompt_len: int = 1024,
                          output_len: int = 512,
                          arrival_rate: Optional[float] = None,
                          seed: int = 0) -> Workload:
    """Build the paper's benchmark workload.

    With ``arrival_rate=None`` every request is available at time zero (the
    "maximum achievable throughput" setting); otherwise arrivals follow a
    Poisson process with the given rate (requests/second).
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    arrivals = np.zeros(num_requests)
    if arrival_rate is not None:
        rng = np.random.default_rng(seed)
        arrivals = np.cumsum(rng.exponential(1.0 / arrival_rate, size=num_requests))
    requests = [
        Request(request_id=i, prompt_len=prompt_len, output_len=output_len,
                arrival_time=float(arrivals[i]))
        for i in range(num_requests)
    ]
    return Workload(requests=requests)


#: ShareGPT-like length-distribution defaults, shared by
#: :func:`make_lognormal_workload` and :func:`make_bursty_workload`:
#: (mean_log, sigma_log, min_len, max_len) of the clipped lognormal.
_PROMPT_LOGNORMAL = (6.0, 0.8, 4, 3072)
_OUTPUT_LOGNORMAL = (5.0, 0.9, 4, 1024)


def _lognormal_lengths(rng: np.random.Generator, n: int, mean_log: float,
                       sigma_log: float, lo: int, hi: int) -> np.ndarray:
    lengths = rng.lognormal(mean=mean_log, sigma=sigma_log, size=n)
    return np.clip(np.round(lengths), lo, hi).astype(np.int64)


def make_lognormal_workload(num_requests: int,
                            prompt_mean_log: float = _PROMPT_LOGNORMAL[0],
                            prompt_sigma_log: float = _PROMPT_LOGNORMAL[1],
                            output_mean_log: float = _OUTPUT_LOGNORMAL[0],
                            output_sigma_log: float = _OUTPUT_LOGNORMAL[1],
                            min_len: int = _PROMPT_LOGNORMAL[2],
                            max_prompt_len: int = _PROMPT_LOGNORMAL[3],
                            max_output_len: int = _OUTPUT_LOGNORMAL[3],
                            arrival_rate: Optional[float] = None,
                            seed: int = 0) -> Workload:
    """ShareGPT-like workload: lognormal prompt and output length mixes.

    The defaults give median prompts of ~400 tokens and median outputs of
    ~150 tokens with heavy right tails, roughly the shape of the ShareGPT
    conversation traces used by vLLM's serving benchmarks.  Arrivals are
    Poisson when ``arrival_rate`` is set, otherwise all at time zero.
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    rng = np.random.default_rng(seed)
    prompts = _lognormal_lengths(rng, num_requests, prompt_mean_log,
                                 prompt_sigma_log, min_len, max_prompt_len)
    outputs = _lognormal_lengths(rng, num_requests, output_mean_log,
                                 output_sigma_log, min_len, max_output_len)
    arrivals = np.zeros(num_requests)
    if arrival_rate is not None:
        arrivals = np.cumsum(rng.exponential(1.0 / arrival_rate, size=num_requests))
    requests = [
        Request(request_id=i, prompt_len=int(prompts[i]),
                output_len=int(outputs[i]), arrival_time=float(arrivals[i]))
        for i in range(num_requests)
    ]
    return Workload(requests=requests)


def make_bursty_workload(num_requests: int,
                         burst_rate: float = 8.0,
                         mean_burst_s: float = 4.0,
                         mean_idle_s: float = 8.0,
                         prompt_len: int = 1024,
                         output_len: int = 512,
                         lognormal_lengths: bool = False,
                         seed: int = 0) -> Workload:
    """On/off bursty arrivals (Markov-modulated Poisson process).

    Traffic alternates between ON periods (exponential duration with mean
    ``mean_burst_s``, Poisson arrivals at ``burst_rate`` requests/s) and
    silent OFF periods (mean ``mean_idle_s``).  The long-run average rate is
    ``burst_rate * mean_burst_s / (mean_burst_s + mean_idle_s)``, but the
    instantaneous rate during a burst is much higher — exactly the pattern
    that overflows KV-cache pages and stresses admission/preemption policies.

    With ``lognormal_lengths=True`` request lengths follow the
    :func:`make_lognormal_workload` defaults instead of being uniform.
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    if burst_rate <= 0 or mean_burst_s <= 0 or mean_idle_s < 0:
        raise ValueError("burst_rate/mean_burst_s must be positive, "
                         "mean_idle_s non-negative")
    rng = np.random.default_rng(seed)
    arrivals: List[float] = []
    t = 0.0
    while len(arrivals) < num_requests:
        burst_end = t + rng.exponential(mean_burst_s)
        while len(arrivals) < num_requests:
            t += rng.exponential(1.0 / burst_rate)
            if t > burst_end:
                break
            arrivals.append(t)
        t = burst_end + rng.exponential(mean_idle_s) if mean_idle_s > 0 else burst_end
    arrivals_arr = np.asarray(arrivals[:num_requests])

    if lognormal_lengths:
        prompts = _lognormal_lengths(rng, num_requests, *_PROMPT_LOGNORMAL)
        outputs = _lognormal_lengths(rng, num_requests, *_OUTPUT_LOGNORMAL)
    else:
        prompts = np.full(num_requests, prompt_len, dtype=np.int64)
        outputs = np.full(num_requests, output_len, dtype=np.int64)
    requests = [
        Request(request_id=i, prompt_len=int(prompts[i]),
                output_len=int(outputs[i]), arrival_time=float(arrivals_arr[i]))
        for i in range(num_requests)
    ]
    return Workload(requests=requests)


def make_router_study_workload(num_requests: int = 120, seed: int = 1) -> Workload:
    """The canonical bursty heavy-tailed workload of the cluster router study.

    One fixed parameterisation of :func:`make_bursty_workload` shared by the
    router A/B benchmark (``benchmarks/bench_cluster_scaling.py``), the
    cluster example and the regression test asserting that the
    least-outstanding router beats round-robin on p95 TTFT — so all three
    exercise, and stay honest about, the same traffic.
    """
    return make_bursty_workload(num_requests, burst_rate=24.0, mean_burst_s=6.0,
                                mean_idle_s=6.0, lognormal_lengths=True,
                                seed=seed)


def make_shared_prefix_workload(num_requests: int,
                                shared_prefix_len: int = 512,
                                unique_len: int = 128,
                                output_len: int = 64,
                                num_prefix_groups: int = 1,
                                arrival_rate: Optional[float] = None,
                                seed: int = 0) -> Workload:
    """Requests sharing a long common prefix ahead of a unique suffix.

    Models system-prompt / few-shot-template traffic: requests are assigned
    round-robin to ``num_prefix_groups`` distinct shared prefixes of
    ``shared_prefix_len`` tokens, each followed by a per-request unique span
    of ``unique_len`` tokens.  With prefix caching on, every group's prefix
    is prefilled once and then served from cache.  Arrivals are Poisson at
    ``arrival_rate`` (requests/second) or all at time zero.
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    if num_prefix_groups <= 0:
        raise ValueError("num_prefix_groups must be positive")
    if shared_prefix_len <= 0 or unique_len <= 0:
        raise ValueError("shared_prefix_len and unique_len must be positive")
    rng = np.random.default_rng(seed)
    arrivals = np.zeros(num_requests)
    if arrival_rate is not None:
        arrivals = np.cumsum(rng.exponential(1.0 / arrival_rate, size=num_requests))
    group_ids = [next(_CONTENT_IDS) for _ in range(num_prefix_groups)]
    requests = [
        Request(request_id=i,
                prompt_len=shared_prefix_len + unique_len,
                output_len=output_len,
                arrival_time=float(arrivals[i]),
                prompt_segments=((group_ids[i % num_prefix_groups],
                                  shared_prefix_len),
                                 (next(_CONTENT_IDS), unique_len)))
        for i in range(num_requests)
    ]
    return Workload(requests=requests)


def make_chat_workload(num_sessions: int = 8,
                       turns_per_session: int = 6,
                       system_prompt_len: int = 512,
                       user_len: int = 64,
                       assistant_len: int = 128,
                       think_time_s: float = 10.0,
                       session_rate: Optional[float] = None,
                       shared_system_prompt: bool = True,
                       seed: int = 0) -> Workload:
    """Multi-turn chat sessions with growing conversation histories.

    Each session issues ``turns_per_session`` requests.  Turn ``t``'s prompt
    is the full history — system prompt, every earlier user message and
    assistant reply — plus the new user message, so prompts grow linearly
    with the turn index while all but the latest assistant reply and user
    message were already prefilled by the previous turn.  With
    ``shared_system_prompt`` every session opens with the *same* system
    prompt (cross-session sharing); otherwise each session's is unique.

    Per-turn user/assistant lengths are uniform in ``[len // 2, 2 * len]``
    (seeded), the assistant reply length doubling as the turn's
    ``output_len`` — the reply the engine generates is exactly the content
    the next prompt embeds.  Session start times are Poisson at
    ``session_rate`` (sessions/second) or all zero; successive turns are
    separated by an exponential think time with mean ``think_time_s``.  The
    traffic is open-loop: a turn may arrive while the previous one is still
    decoding, and generated (decode-time) KV state is not cached, so the
    cache-hit frontier of turn ``t + 1`` is turn ``t``'s *prompt*, not its
    reply.
    """
    if num_sessions <= 0 or turns_per_session <= 0:
        raise ValueError("num_sessions and turns_per_session must be positive")
    if system_prompt_len <= 0 or user_len <= 0 or assistant_len <= 0:
        raise ValueError("segment lengths must be positive")
    if think_time_s < 0:
        raise ValueError("think_time_s must be non-negative")
    rng = np.random.default_rng(seed)
    starts = np.zeros(num_sessions)
    if session_rate is not None:
        starts = np.cumsum(rng.exponential(1.0 / session_rate, size=num_sessions))
    shared_system_id = next(_CONTENT_IDS)
    requests: List[Request] = []
    for session in range(num_sessions):
        system_id = shared_system_id if shared_system_prompt else next(_CONTENT_IDS)
        history: List[Tuple[int, int]] = [(system_id, system_prompt_len)]
        now = float(starts[session])
        for _ in range(turns_per_session):
            u_len = int(rng.integers(max(1, user_len // 2), 2 * user_len + 1))
            a_len = int(rng.integers(max(1, assistant_len // 2),
                                     2 * assistant_len + 1))
            user_segment = (next(_CONTENT_IDS), u_len)
            segments = tuple(history + [user_segment])
            requests.append(Request(
                request_id=len(requests),
                prompt_len=sum(length for _, length in segments),
                output_len=a_len,
                arrival_time=now,
                prompt_segments=segments))
            history.extend([user_segment, (next(_CONTENT_IDS), a_len)])
            now += float(rng.exponential(think_time_s)) if think_time_s > 0 else 0.0
    return Workload(requests=requests)


def make_mixed_precision_workload(num_requests: int = 200,
                                  interactive_fraction: float = 0.35,
                                  interactive_prompt_len: int = 128,
                                  interactive_output_len: int = 64,
                                  batch_prompt_len: int = 1024,
                                  batch_output_len: int = 512,
                                  arrival_rate: float = 4.0,
                                  precision_floor_bits: float = 16.0,
                                  seed: int = 0) -> Workload:
    """Two-tier traffic for precision-aware serving studies.

    A fraction of the requests is *interactive quality-tier* traffic — short
    prompts and outputs, tagged with ``precision_floor_bits`` so only a
    full-precision replica counts as serving them correctly (think paying
    customers whose product team has not signed off on quantized outputs).
    The remainder is *batch throughput* traffic — the paper's 1024/512
    benchmark shape, happy to be served at any precision.  Tiers are drawn
    i.i.d. per request and share one Poisson arrival process, so a router
    sees them interleaved, not phased.
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    if not 0.0 <= interactive_fraction <= 1.0:
        raise ValueError("interactive_fraction must be in [0, 1]")
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / arrival_rate, size=num_requests))
    interactive = rng.random(num_requests) < interactive_fraction
    requests: List[Request] = []
    for i in range(num_requests):
        if interactive[i]:
            requests.append(Request(
                request_id=i, prompt_len=interactive_prompt_len,
                output_len=interactive_output_len,
                arrival_time=float(arrivals[i]),
                precision_floor_bits=precision_floor_bits))
        else:
            requests.append(Request(
                request_id=i, prompt_len=batch_prompt_len,
                output_len=batch_output_len,
                arrival_time=float(arrivals[i])))
    return Workload(requests=requests)
