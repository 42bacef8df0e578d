"""Speculative decoding: draft proposals, batched verification, acceptance.

Decode iterations are memory-bound — each one reads every weight byte to
produce a single token per sequence — so the serialized iteration count, not
FLOPs, bounds decode latency.  Speculative decoding (Leviathan et al.,
SpecInfer, vLLM/TensorRT-LLM speculative modes) attacks exactly that: a
cheap *draft* model proposes ``k`` tokens autoregressively, and the target
model scores all ``k + 1`` positions in one batched *verification* step.
Accepted draft tokens commit together with the target's own next token
(the "bonus" token a rejection falls back to), so one target iteration can
commit up to ``k + 1`` tokens — trading extra, largely-free FLOPs for fewer
serialized iterations.

This module models the technique from first principles through the existing
GPU cost model, never by fiat:

* **Draft cost** — the draft is any :class:`~repro.model.config.ModelConfig`
  served under any precision preset; its ``k`` proposal steps are priced as
  ``k`` real decode iterations of a (single-GPU, replicated) draft engine,
  and the draft's shadow KV cache is built lazily at real prefill cost — a
  request's first speculative iteration pays a draft prefill of its whole
  context, a preempted request pays a full rebuild (its shadow KV was
  reclaimed with the target's), and steady state pays one catch-up token
  per block (the target-produced bonus token).
* **Verification cost** — the target scores the drafted block via
  :meth:`repro.serving.engine.ServingEngine.speculative_verify_step`, which
  reuses the chunked-prefill GEMM/attention path (each draft block is a
  ``(k + 1, context)`` chunk) and charges the LM head for *every* verified
  position.
* **Acceptance** — whether a drafted token survives verification depends on
  how predictable the traffic is, not on the cost model, so it is sampled:
  per-request seeded RNG streams draw from a workload
  :class:`AcceptanceProfile` (chat vs. code vs. low-entropy presets, with
  per-request rate jitter and positional decay).  Explicit seeding makes
  every serving run bit-for-bit reproducible.
* **Memory** — the draft's weights (+ workspace) are replicated on every
  GPU of the tensor-parallel group and its KV cache grows with the same
  sequences the target tracks, so both come out of the target's KV budget
  (:meth:`SpeculativeDecoder.usable_kv_capacity`).  Pages for drafted
  tokens are claimed optimistically before the iteration and trimmed back
  after verification rejects them
  (:meth:`repro.serving.kv_cache_manager.PagedKVCacheManager.trim`).

The *acceptance-aware* part of scheduling: with ``adaptive=True`` the
per-request lookahead grows on fully-accepted blocks and collapses on full
rejections, so a request whose draft keeps missing stops paying draft steps
— and stops claiming speculative KV pages — while a predictable one
speculates deeper.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.model.config import ModelConfig
from repro.serving.precision import SystemConfig, get_system
from repro.serving.request import Request, mean_context_len

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.serving.engine import ServingEngine
    from repro.serving.policies import IterationPlan

__all__ = [
    "AcceptanceProfile",
    "ACCEPTANCE_PROFILES",
    "get_acceptance_profile",
    "AcceptanceSampler",
    "SpeculativeConfig",
    "SpeculationStats",
    "SpeculativeStepOutcome",
    "SpeculativeDecoder",
]


# ----------------------------------------------------------------------
# Acceptance model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AcceptanceProfile:
    """How often a workload's drafted tokens survive verification.

    ``base_rate`` is the probability the first drafted token is accepted;
    position ``j`` of the draft accepts with ``base_rate * position_decay**j``
    (conditional on every earlier position accepting — verification stops at
    the first rejection), modelling drafts drifting off-distribution the
    further they run ahead.  ``rate_jitter`` spreads a per-request base rate
    around the profile's (clipped normal), so a workload mixes easy and hard
    requests instead of behaving uniformly.
    """

    name: str
    base_rate: float
    position_decay: float = 1.0
    rate_jitter: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.base_rate < 1.0:
            raise ValueError("base_rate must be in (0, 1)")
        if not 0.0 < self.position_decay <= 1.0:
            raise ValueError("position_decay must be in (0, 1]")
        if self.rate_jitter < 0.0:
            raise ValueError("rate_jitter must be non-negative")


#: Workload presets: how draft-able each traffic class is.  Code and other
#: low-entropy text (boilerplate, structured output) verify far more drafted
#: tokens than open-ended chat; creative/high-entropy sampling accepts least.
ACCEPTANCE_PROFILES: Dict[str, AcceptanceProfile] = {
    "chat": AcceptanceProfile("chat", base_rate=0.70, position_decay=0.97,
                              rate_jitter=0.08),
    "code": AcceptanceProfile("code", base_rate=0.85, position_decay=0.985,
                              rate_jitter=0.05),
    "low-entropy": AcceptanceProfile("low-entropy", base_rate=0.92,
                                     position_decay=0.995, rate_jitter=0.03),
    "high-entropy": AcceptanceProfile("high-entropy", base_rate=0.45,
                                      position_decay=0.93, rate_jitter=0.10),
}


def get_acceptance_profile(name: str) -> AcceptanceProfile:
    """Look up an acceptance profile preset by name."""
    try:
        return ACCEPTANCE_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(ACCEPTANCE_PROFILES))
        raise KeyError(
            f"unknown acceptance profile {name!r}; known: {known}") from None


class AcceptanceSampler:
    """Per-request seeded stochastic acceptance of drafted tokens.

    Each request owns an independent RNG stream keyed by ``(seed,
    request_id)``, so a request's acceptance draws depend only on its own
    verification history — never on how the scheduler interleaved it with
    other requests.  Two runs with the same seed and workload therefore
    sample identically even across preemptions and replica reassignment.
    """

    def __init__(self, profile: AcceptanceProfile, seed: int = 0) -> None:
        self.profile = profile
        self.seed = seed
        self._streams: Dict[int, Tuple[np.random.Generator, float]] = {}

    def request_rate(self, request_id: int) -> float:
        """The per-request base acceptance rate (jittered, deterministic)."""
        return self._stream(request_id)[1]

    def _stream(self, request_id: int) -> Tuple[np.random.Generator, float]:
        state = self._streams.get(request_id)
        if state is None:
            rng = np.random.default_rng((self.seed, request_id))
            rate = self.profile.base_rate
            if self.profile.rate_jitter > 0.0:
                rate = float(np.clip(rng.normal(rate, self.profile.rate_jitter),
                                     0.02, 0.98))
            state = (rng, rate)
            self._streams[request_id] = state
        return state

    def sample(self, request_id: int, k: int) -> int:
        """Leading accepted tokens of a ``k``-token draft (``0..k``).

        Position ``j`` accepts with ``rate * decay**j``; the first rejection
        ends verification (everything after a rejected token was drafted
        from a wrong prefix and is discarded).
        """
        if k <= 0:
            return 0
        rng, rate = self._stream(request_id)
        accepted = 0
        for j in range(k):
            if rng.random() >= rate * self.profile.position_decay ** j:
                break
            accepted += 1
        return accepted


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SpeculativeConfig:
    """One speculative-decoding configuration.

    Attributes
    ----------
    draft_model:
        Geometry of the draft; any registered :class:`ModelConfig` (the
        ``llama-68m`` / ``llama-160m`` / ``tinyllama-1.1b`` presets are the
        usual suspects for Llama-family targets).
    draft_system:
        Precision preset the draft is served under — a key into
        :data:`repro.serving.precision.SYSTEM_PRESETS` or a
        :class:`SystemConfig`.  Aggressively quantized drafts are the point:
        their decode steps are weight-traffic-bound too.
    lookahead:
        Draft tokens proposed per speculative iteration (``k``).  Per
        request it is always clamped to ``output_len - generated - 1`` so a
        committed block can never overshoot the requested output.
    adaptive:
        When true, each request's lookahead adapts to its observed
        acceptance — +1 after a fully accepted block, halved after a full
        rejection, bounded to ``[min_lookahead, max_lookahead]``.
    profile:
        Workload acceptance profile (preset name or
        :class:`AcceptanceProfile`).
    seed:
        Seed of the acceptance sampler's per-request RNG streams.
    """

    draft_model: ModelConfig
    draft_system: Union[str, SystemConfig] = "qserve-w4a8kv4-chn"
    lookahead: int = 4
    adaptive: bool = False
    min_lookahead: int = 1
    max_lookahead: int = 8
    profile: Union[str, AcceptanceProfile] = "chat"
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("lookahead", "min_lookahead", "max_lookahead"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value,
                                                         numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.lookahead < 1:
            raise ValueError("lookahead must be >= 1")
        if not 1 <= self.min_lookahead <= self.max_lookahead:
            raise ValueError("need 1 <= min_lookahead <= max_lookahead")
        if not self.min_lookahead <= self.lookahead <= self.max_lookahead:
            raise ValueError("lookahead must lie in "
                             "[min_lookahead, max_lookahead]")

    def resolved_system(self) -> SystemConfig:
        if isinstance(self.draft_system, SystemConfig):
            return self.draft_system
        return get_system(self.draft_system)

    def resolved_profile(self) -> AcceptanceProfile:
        if isinstance(self.profile, AcceptanceProfile):
            return self.profile
        return get_acceptance_profile(self.profile)


# ----------------------------------------------------------------------
# Run statistics
# ----------------------------------------------------------------------
@dataclass
class SpeculationStats:
    """Counters of one serving run's speculative-decoding behaviour.

    ``committed_tokens`` counts every token committed by speculative
    iterations, including each block's bonus token; requests that a given
    iteration served non-speculatively (one token left) contribute to
    ``committed_tokens`` but not to ``proposed`` / ``accepted``.
    ``baseline_time_s`` / ``spec_time_s`` accumulate, for pure-decode
    iterations only, the time the same token progress would have cost as
    plain one-token decode steps vs. what speculation actually charged — the
    ratio is the run's estimated speculation speedup.
    """

    spec_steps: int = 0
    proposed_tokens: int = 0
    accepted_tokens: int = 0
    committed_tokens: int = 0
    draft_time_s: float = 0.0
    verify_time_s: float = 0.0
    spec_time_s: float = 0.0
    baseline_time_s: float = 0.0

    @property
    def acceptance_rate(self) -> float:
        """Fraction of drafted tokens that survived verification."""
        return (0.0 if self.proposed_tokens == 0
                else self.accepted_tokens / self.proposed_tokens)

    @property
    def mean_accepted_per_step(self) -> float:
        """Mean accepted draft tokens per speculative iteration."""
        return (0.0 if self.spec_steps == 0
                else self.accepted_tokens / self.spec_steps)

    @property
    def mean_committed_per_request_step(self) -> float:
        """Mean committed tokens per *speculating* request per iteration.

        A speculating request always commits ``accepted + 1`` (the bonus
        token), so the mean is derived from those counters alone — plain
        one-token riders inflate ``committed_tokens`` but not this gauge.
        """
        return (0.0 if self.spec_steps == 0
                else (self.accepted_tokens + self.spec_steps) / self.spec_steps)

    @property
    def speedup(self) -> float:
        """Estimated decode speedup vs. one-token-per-iteration serving.

        Ratio of the baseline-equivalent decode time to the speculative time
        actually charged, over pure-decode iterations; 0 when speculation
        never ran a pure-decode iteration.
        """
        return (0.0 if self.spec_time_s == 0.0
                else self.baseline_time_s / self.spec_time_s)


@dataclass
class SpeculativeStepOutcome:
    """What one speculative iteration committed and what it cost."""

    #: Committed tokens per decoding request (accepted drafts + the bonus
    #: token; always >= 1 for every participant).
    commits: Dict[int, int]
    committed_tokens: int
    latency_s: float


# ----------------------------------------------------------------------
# Decoder runtime
# ----------------------------------------------------------------------
class SpeculativeDecoder:
    """Runtime speculative-decoding state of one serving loop.

    Owns the draft engine (built on the target's GPU, single-GPU — drafts
    are far too small to shard, so tensor-parallel targets replicate the
    draft on every GPU of the group), the acceptance sampler and the
    per-request adaptive lookahead; prices and commits one speculative
    iteration per :meth:`run_iteration`.
    """

    def __init__(self, target: "ServingEngine", config: SpeculativeConfig) -> None:
        self.config = config
        self.target = target
        draft_system = config.resolved_system()
        # ``type(target)`` avoids a module cycle: engine.py imports this
        # module for the config/stats types, so the draft engine is built
        # through the target's own class.
        self.draft_engine: "ServingEngine" = type(target)(
            config.draft_model, target.gpu, draft_system,
            max_seq_len=target.max_seq_len)
        self.sampler = AcceptanceSampler(config.resolved_profile(), config.seed)
        self.stats = SpeculationStats()
        self._lookahead_state: Dict[int, int] = {}
        #: Draft-KV tokens built per request, with the preemption count they
        #: were built under: ``(tokens, preemptions)``.  A preemption reclaims
        #: the draft's shadow KV with everything else, so a stale count means
        #: the whole context must be re-prefilled on the draft too.
        self._draft_context: Dict[int, Tuple[int, int]] = {}
        self._target_bpt = target.kv_bytes_per_token()
        self._draft_bpt = self.draft_engine.kv_bytes_per_token()

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    def draft_reserved_bytes_per_gpu(self) -> float:
        """Draft weights + activation workspace resident on *every* GPU."""
        weights = self.draft_engine.weight_bytes()
        return weights * (1.0 + self.draft_engine.system.activation_workspace_factor)

    def usable_kv_capacity(self, base_capacity_bytes: float) -> float:
        """Target-KV bytes left once the draft model moves in.

        The draft's weights (+ workspace) are replicated per GPU and its KV
        cache shadows every running sequence's context — on *every* GPU of
        the TP group, since the draft is replicated rather than sharded —
        so the remaining bytes are split pro rata between the target's
        (group-aggregate) and the draft's (per-GPU times ``tp``) per-token
        KV footprints; the target's page pool only gets its share.
        """
        tp = self.target.tp_degree
        reserved = self.draft_reserved_bytes_per_gpu() * tp
        remaining = max(0.0, base_capacity_bytes - reserved)
        draft_bpt = self._draft_bpt * tp
        return remaining * self._target_bpt / (self._target_bpt + draft_bpt)

    # ------------------------------------------------------------------
    # Lookahead (acceptance-aware)
    # ------------------------------------------------------------------
    def lookahead_for(self, request: Request) -> int:
        """Draft tokens to propose for ``request`` this iteration.

        The adaptive (or static) lookahead, clamped so that the largest
        possible commit (``k`` accepts + the bonus token) lands exactly on
        ``output_len`` — speculation never drafts past the requested output,
        which also keeps the speculative page claim inside the conservative
        ``prompt_len + output_len`` reservation.  Requests one token from
        completion get 0: they decode plainly inside the same iteration.
        """
        base = self.config.lookahead
        if self.config.adaptive:
            base = self._lookahead_state.get(request.request_id, base)
        return max(0, min(base, request.output_len - request.generated - 1))

    def _update_lookahead(self, request: Request, k: int, accepted: int) -> None:
        if not self.config.adaptive:
            return
        current = self._lookahead_state.get(request.request_id,
                                            self.config.lookahead)
        if accepted >= k:
            current = min(self.config.max_lookahead, current + 1)
        elif accepted == 0:
            current = max(self.config.min_lookahead, current // 2)
        self._lookahead_state[request.request_id] = current

    # ------------------------------------------------------------------
    # One speculative iteration
    # ------------------------------------------------------------------
    def _draft_catchup_latency(self, speculating: List[Request]) -> float:
        """Cost of bringing the draft's KV cache up to each request's context.

        The draft shadows the target's sequences but builds its KV lazily:
        a request's first speculative iteration pays a draft prefill of its
        whole context (the draft never saw the prompt — on a decode replica
        it arrived via KV transfer, and draft KV does not transfer), and a
        preempted request pays a full rebuild on its next speculation, just
        as the target pays its recompute prefill.  Deficits are priced as
        draft chunked-prefill chunks attending to the tokens already built.
        """
        chunks: List[Tuple[int, int]] = []
        for request in speculating:
            built, preemptions = self._draft_context.get(
                request.request_id, (0, request.preemptions))
            if preemptions != request.preemptions:
                built = 0  # the draft's shadow KV was reclaimed too
            deficit = request.context_len - built
            if deficit > 0:
                chunks.append((deficit, built))
        if not chunks:
            return 0.0
        return self.draft_engine.mixed_step(chunks, 0, 0).total

    def _draft_latency(self, lookaheads: List[Tuple[Request, int]]) -> float:
        """Cost of proposing every request's draft block.

        The draft decodes autoregressively: sub-step ``j`` batches all
        requests still drafting (``k > j``) at their current draft context
        (the target's context plus the ``j`` tokens drafted so far), each
        sub-step a full decode iteration of the draft engine.
        """
        total = self._draft_catchup_latency([r for r, _ in lookaheads])
        max_k = max((k for _, k in lookaheads), default=0)
        for j in range(max_k):
            batch = [r for r, k in lookaheads if k > j]
            total += self.draft_engine.decode_step(
                len(batch), mean_context_len(batch) + j).total
        return total

    def run_iteration(self, decode: List[Request],
                      prefill_chunks: List[Tuple[int, int]]
                      ) -> SpeculativeStepOutcome:
        """Price and commit one speculative iteration for ``decode``.

        Requests with lookahead 0 (a single token remaining) ride the same
        iteration as plain decodes; everyone else drafts ``k`` tokens,
        verifies ``k + 1`` positions in the batched target step and commits
        the accepted prefix plus the bonus token.  ``prefill_chunks`` is the
        plan's chunked-prefill work as ``(tokens, kv_offset)`` pairs
        (:meth:`repro.serving.policies.IterationPlan.chunk_pairs`); it
        shares the verification step's projection GEMMs, exactly as it
        shares a plain mixed iteration's.
        """
        lookaheads = [(r, self.lookahead_for(r)) for r in decode]
        spec = [(r, k) for r, k in lookaheads if k > 0]
        plain = [r for r, k in lookaheads if k == 0]

        draft_s = self._draft_latency(spec)
        verify_chunks = [(k + 1, r.context_len) for r, k in spec]
        chunk_pairs = list(prefill_chunks)
        plain_context = mean_context_len(plain)
        if verify_chunks:
            verify_s = self.target.speculative_verify_step(
                verify_chunks, chunk_pairs, len(plain), plain_context).total
        else:
            # Every decode request is one token from done: nothing to draft,
            # the iteration is a plain (possibly mixed) decode step.
            verify_s = self.target.mixed_step(chunk_pairs, len(plain),
                                              plain_context).total
        latency = draft_s + verify_s

        commits: Dict[int, int] = {}
        committed_total = 0
        for request, k in lookaheads:
            if k == 0:
                committed = 1
            else:
                accepted = self.sampler.sample(request.request_id, k)
                committed = accepted + 1
                request.spec_steps += 1
                request.draft_proposed += k
                request.draft_accepted += accepted
                self.stats.spec_steps += 1
                self.stats.proposed_tokens += k
                self.stats.accepted_tokens += accepted
                self._update_lookahead(request, k, accepted)
                # The draft keeps KV only for the accepted prefix; the bonus
                # token (target-produced) is ingested by the next catch-up.
                self._draft_context[request.request_id] = (
                    request.context_len + accepted, request.preemptions)
            commits[request.request_id] = committed
            committed_total += committed

        self.stats.committed_tokens += committed_total
        self.stats.draft_time_s += draft_s
        self.stats.verify_time_s += verify_s
        if not prefill_chunks:
            # Speedup gauge over pure-decode iterations only: with prefill
            # chunks sharing the step there is no clean baseline to compare
            # against (the chunks would run once, not once per committed
            # token).
            baseline_iter = self.target.decode_step(
                len(decode), mean_context_len(decode)).total
            self.stats.baseline_time_s += \
                baseline_iter * committed_total / len(decode)
            self.stats.spec_time_s += latency
        return SpeculativeStepOutcome(commits=commits,
                                      committed_tokens=committed_total,
                                      latency_s=latency)
