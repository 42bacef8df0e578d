"""Per-request latency metrics for the serving simulator.

Generation throughput (the paper's Table 4 metric) says nothing about how a
system feels under load; production serving is judged on latency percentiles:

* **TTFT** (time to first token): arrival → first generated token.
* **TPOT** (time per output token): mean inter-token gap after the first
  token, ``(finish - first_token) / (output_len - 1)``.
* **E2E**: arrival → last token.
* **SLO attainment / goodput**: the fraction (and rate) of requests whose
  TTFT *and* TPOT both meet a service-level objective — the quantity bursty
  traffic actually degrades first.  Requests with a single output token have
  no inter-token gap and are judged on TTFT alone.

:class:`ServingMetrics` is assembled by the engine from finished requests and
travels on :class:`repro.serving.engine.ServingResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro.serving.request import Request

__all__ = ["RequestMetrics", "LatencySummary", "ServingMetrics"]


def fold_sum(values: Iterable[float]) -> float:
    """``sum(values)`` as a plain left fold, for float totals on result
    paths.  Python 3.12's ``sum()`` compensates float rounding, so it can
    end a few ulps away from 3.11's; this fold gives 3.11's bits on every
    interpreter."""
    total = 0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class RequestMetrics:
    """Latency record of one finished request (all times in seconds)."""

    request_id: int
    prompt_len: int
    output_len: int
    arrival_time: float
    first_token_time: float
    finish_time: float
    admitted_time: Optional[float] = None
    preemptions: int = 0
    #: Disaggregated serving: prefill→decode handoffs this request went
    #: through, and the exposed KV-transfer delay they added to its TTFT.
    migrations: int = 0
    transfer_delay_s: float = 0.0
    #: Speculative decoding: draft-and-verify iterations, draft tokens
    #: proposed and accepted for this request (all zero when off).
    spec_steps: int = 0
    draft_proposed: int = 0
    draft_accepted: int = 0
    #: Precision-aware serving: the quality floor the request demanded and
    #: the ``min_precision_bits`` of the system that served it.  A floor of
    #: 0 accepts any precision, so both default to the pre-refactor world.
    precision_floor_bits: float = 0.0
    served_precision_bits: float = 0.0
    #: Multi-tenancy: issuing tenant and SLO tier ("paid"/"free"); untagged
    #: workloads carry the defaults.
    tenant: Optional[str] = None
    tier: str = "paid"
    #: Multi-model serving: the model that served the request; ``None`` on
    #: single-model engines (untagged workloads).
    model: Optional[str] = None

    @property
    def ttft(self) -> float:
        """Time to first token."""
        return self.first_token_time - self.arrival_time

    @property
    def queue_delay(self) -> Optional[float]:
        """Arrival → first admission, or ``None`` when the admission time is
        unknown.  Unknown delays are *excluded* from
        :attr:`ServingMetrics.queue_delay` summaries — counting them as zero
        would silently drag the percentiles toward zero."""
        if self.admitted_time is None:
            return None
        return self.admitted_time - self.arrival_time

    @property
    def e2e_latency(self) -> float:
        """End-to-end latency, arrival to final token."""
        return self.finish_time - self.arrival_time

    @property
    def tpot(self) -> float:
        """Mean time per output token after the first.

        Undefined (reported as 0) for 1-token outputs — there is no
        inter-token gap to measure.  SLO checks must therefore judge such
        requests on TTFT alone (see :meth:`meets_slo`); comparing the 0
        against a TPOT SLO would trivially pass every 1-token request.
        """
        if self.output_len <= 1:
            return 0.0
        return (self.finish_time - self.first_token_time) / (self.output_len - 1)

    @property
    def precision_ok(self) -> bool:
        """Whether the serving precision met the request's quality floor."""
        return (self.precision_floor_bits <= 0.0
                or self.served_precision_bits >= self.precision_floor_bits)

    def meets_slo(self, ttft_slo_s: float, tpot_slo_s: float) -> bool:
        """Whether this request met the SLO.

        Requests with a single output token have no inter-token gap, so they
        are judged on TTFT only; everything else must meet both the TTFT and
        TPOT objectives.  A request whose quality floor was violated (served
        below ``precision_floor_bits``) fails the SLO outright — goodput
        counts useful responses, and a response below the demanded precision
        is not one.
        """
        if not self.precision_ok:
            return False
        if self.ttft > ttft_slo_s:
            return False
        return self.output_len <= 1 or self.tpot <= tpot_slo_s

    @classmethod
    def from_request(cls, request: Request) -> "RequestMetrics":
        if request.first_token_time is None or request.finish_time is None:
            raise ValueError(
                f"request {request.request_id} has not finished; no metrics")
        return cls(
            request_id=request.request_id,
            prompt_len=request.prompt_len,
            output_len=request.output_len,
            arrival_time=request.arrival_time,
            first_token_time=request.first_token_time,
            finish_time=request.finish_time,
            admitted_time=request.admitted_time,
            preemptions=request.preemptions,
            migrations=request.migrations,
            transfer_delay_s=request.transfer_delay_s,
            spec_steps=request.spec_steps,
            draft_proposed=request.draft_proposed,
            draft_accepted=request.draft_accepted,
            precision_floor_bits=request.precision_floor_bits,
            served_precision_bits=request.served_precision_bits,
            tenant=request.tenant,
            tier=request.tier,
            model=request.model,
        )


def _pairwise_sum(values: Sequence[float]) -> float:
    """NumPy's float64 pairwise sum of ``values``, bit for bit: a plain fold
    below 8 values, eight strided accumulators up to 128, and above that a
    split at ``n // 2`` rounded down to a multiple of 8."""
    n = len(values)
    if n < 8:
        return fold_sum(values)
    if n <= 128:
        whole = n - n % 8
        r = []
        for lane in range(8):
            acc = values[lane]
            for value in values[lane + 8:whole:8]:
                acc += value
            r.append(acc)
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for value in values[whole:]:
            total += value
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _percentile(ordered: Sequence[float], q: float) -> float:
    """NumPy's linear-method percentile of sorted ``ordered``, bit for bit."""
    index = (len(ordered) - 1) * (q / 100)
    if index >= len(ordered) - 1:  # NumPy takes the last value as is
        return ordered[-1]
    lo = int(index)
    g = index - lo
    a, b = ordered[lo], ordered[lo + 1]
    if g >= 0.5:
        return b - (b - a) * (1 - g)
    return a + (b - a) * g


@dataclass(frozen=True)
class LatencySummary:
    """Mean and p50/p95/p99 of one latency distribution (seconds)."""

    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "LatencySummary":
        """Summarize ``values`` in plain Python.  Every field equals NumPy's
        (``np.mean``, ``np.percentile``'s linear method, ``np.max``) bit for
        bit, so this is the one summary rule the live metrics, the trace
        report and the tests share.  (Where ``0.0`` and ``-0.0`` tie, NumPy's
        partition may return either sign of zero.)"""
        if len(values) == 0:
            return cls(0.0, 0.0, 0.0, 0.0, 0.0)
        ordered = sorted(values)
        total = 0.0 + _pairwise_sum(values)  # NumPy's reduction starts at 0.0
        return cls(mean=total / len(values),
                   p50=_percentile(ordered, 50.0),
                   p95=_percentile(ordered, 95.0),
                   p99=_percentile(ordered, 99.0), maximum=ordered[-1])

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"mean {self.mean * 1e3:.1f} ms / p50 {self.p50 * 1e3:.1f} / "
                f"p95 {self.p95 * 1e3:.1f} / p99 {self.p99 * 1e3:.1f} ms")

    def to_json(self) -> dict:
        """Plain-dict export (seconds, exact float values)."""
        return {"mean": self.mean, "p50": self.p50, "p95": self.p95,
                "p99": self.p99, "max": self.maximum}


@dataclass
class ServingMetrics:
    """Latency metrics over all finished requests of one serving run.

    Every summary reads :class:`RequestMetrics`' own per-request properties,
    so the per-request rules (TPOT of a 1-token output, excluded unknown
    queue delays, the SLO and precision verdicts) are written once.
    """

    requests: List[RequestMetrics] = field(default_factory=list)

    @classmethod
    def from_requests(cls, requests: Sequence[Request]) -> "ServingMetrics":
        """Collect metrics from every request that produced a full output."""
        return cls(requests=[RequestMetrics.from_request(r) for r in requests
                             if r.first_token_time is not None
                             and r.finish_time is not None])

    def __len__(self) -> int:
        return len(self.requests)

    # ------------------------------------------------------------------
    @property
    def ttft(self) -> LatencySummary:
        return LatencySummary.from_values([r.ttft for r in self.requests])

    @property
    def tpot(self) -> LatencySummary:
        return LatencySummary.from_values([r.tpot for r in self.requests])

    @property
    def e2e(self) -> LatencySummary:
        return LatencySummary.from_values(
            [r.e2e_latency for r in self.requests])

    @property
    def queue_delay(self) -> LatencySummary:
        """Queue-delay percentiles over requests whose admission time is known."""
        return LatencySummary.from_values(
            [r.queue_delay for r in self.requests
             if r.admitted_time is not None])

    @property
    def total_preemptions(self) -> int:
        return sum(r.preemptions for r in self.requests)

    @property
    def total_migrations(self) -> int:
        """Prefill→decode handoffs across all finished requests."""
        return sum(r.migrations for r in self.requests)

    @property
    def draft_proposed_tokens(self) -> int:
        """Draft tokens proposed across all finished requests."""
        return sum(r.draft_proposed for r in self.requests)

    @property
    def draft_accepted_tokens(self) -> int:
        """Draft tokens that survived verification across finished requests."""
        return sum(r.draft_accepted for r in self.requests)

    @property
    def acceptance_rate(self) -> float:
        """Draft-token acceptance rate over finished requests.

        Zero when speculation was off (no tokens were ever proposed), so the
        gauge is safe to read unconditionally.
        """
        proposed = self.draft_proposed_tokens
        return 0.0 if proposed == 0 else self.draft_accepted_tokens / proposed

    @property
    def precision_violations(self) -> int:
        """Finished requests served below their demanded precision floor."""
        return sum(not r.precision_ok for r in self.requests)

    @property
    def transfer_delay(self) -> LatencySummary:
        """Exposed KV-transfer delay percentiles over *migrated* requests.

        Never-migrated requests are excluded rather than counted as zero —
        in a mixed cluster they would otherwise drown out the delay the
        handoffs actually paid.  All-zero when nothing migrated.
        """
        return LatencySummary.from_values(
            [r.transfer_delay_s for r in self.requests if r.migrations > 0])

    # ------------------------------------------------------------------
    # Multi-tenant breakouts
    # ------------------------------------------------------------------
    def by_tier(self) -> "dict[str, ServingMetrics]":
        """Per-SLO-tier metrics, keyed by tier name (sorted).

        Each value is a full :class:`ServingMetrics` over that tier's
        finished requests, so every summary (TTFT percentiles, SLO goodput,
        ...) is available per tier.  A tier-less run yields ``{"paid": ...}``.
        """
        return self._split(lambda r: r.tier)

    def by_tenant(self) -> "dict[str, ServingMetrics]":
        """Per-tenant metrics, keyed by tenant name (sorted).

        Untagged requests group under the ``"-"`` pseudo-tenant.
        """
        return self._split(lambda r: r.tenant if r.tenant is not None else "-")

    def by_model(self) -> "dict[str, ServingMetrics]":
        """Per-model metrics, keyed by model name (sorted).

        Each value is a full :class:`ServingMetrics` over that model's
        finished requests, so per-model SLO attainment and goodput come for
        free — the breakout capacity planning reads to decide which models
        should share a fleet.  Untagged requests (single-model engines)
        group under the ``"-"`` pseudo-model.
        """
        return self._split(lambda r: r.model if r.model is not None else "-")

    def _split(self, key) -> "dict[str, ServingMetrics]":
        groups: "dict[str, List[RequestMetrics]]" = {}
        for request in self.requests:
            groups.setdefault(key(request), []).append(request)
        return {name: ServingMetrics(requests=groups[name])
                for name in sorted(groups)}

    # ------------------------------------------------------------------
    def slo_attainment(self, ttft_slo_s: float, tpot_slo_s: float) -> float:
        """Fraction of finished requests meeting the latency SLO.

        Delegates the per-request rule to :meth:`RequestMetrics.meets_slo`:
        both TTFT and TPOT must be met, except that 1-token outputs (which
        have no inter-token gap) are judged on TTFT only.
        """
        if not self.requests:
            return 0.0
        good = sum(r.meets_slo(ttft_slo_s, tpot_slo_s) for r in self.requests)
        return good / len(self.requests)

    def slo_goodput(self, ttft_slo_s: float, tpot_slo_s: float,
                    total_time_s: float) -> float:
        """Requests per second completed within both SLOs (the goodput metric)."""
        if total_time_s <= 0:
            return 0.0
        return (self.slo_attainment(ttft_slo_s, tpot_slo_s)
                * len(self.requests) / total_time_s)

    def summary_text(self) -> str:
        """Human-readable multi-line summary (for examples/benchmarks)."""
        return "\n".join([
            f"requests: {len(self.requests)} "
            f"(preemptions: {self.total_preemptions})",
            f"TTFT: {self.ttft}",
            f"TPOT: {self.tpot}",
            f"E2E:  {self.e2e}",
        ])

    def to_json(self) -> dict:
        """Structured export of every summary gauge (JSON-serializable).

        Covers all of :meth:`summary_text` plus the gauges it omits
        (queue/transfer delays, speculation, precision violations), so
        nothing here is print-only.
        """
        return {
            "num_requests": len(self.requests),
            "ttft": self.ttft.to_json(),
            "tpot": self.tpot.to_json(),
            "e2e": self.e2e.to_json(),
            "queue_delay": self.queue_delay.to_json(),
            "transfer_delay": self.transfer_delay.to_json(),
            "total_preemptions": self.total_preemptions,
            "total_migrations": self.total_migrations,
            "draft_proposed_tokens": self.draft_proposed_tokens,
            "draft_accepted_tokens": self.draft_accepted_tokens,
            "acceptance_rate": self.acceptance_rate,
            "precision_violations": self.precision_violations,
            "by_tier": {
                tier: {"num_requests": len(metrics),
                       "ttft": metrics.ttft.to_json(),
                       "tpot": metrics.tpot.to_json()}
                for tier, metrics in self.by_tier().items()
            },
            "by_model": {
                model: {"num_requests": len(metrics),
                        "ttft": metrics.ttft.to_json(),
                        "tpot": metrics.tpot.to_json()}
                for model, metrics in self.by_model().items()
                if model != "-"
            },
        }
