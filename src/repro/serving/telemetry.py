"""Serving telemetry: lifecycle tracing, iteration timelines, counters.

The simulator's five serving subsystems (chunked prefill, prefix caching,
disaggregated migration, speculation, precision tiers) interact in ways that
end-of-run aggregates cannot explain: when p99 TTFT spikes, a
:class:`~repro.serving.metrics.ServingMetrics` percentile says *that* it
spiked, not *which phase* — queueing, a preemption stall, a KV transfer, a
dequant pass — ate the budget.  This module is the measurement layer that
answers the second question.

Three recorders, all **default-off and zero-overhead when disabled** (every
hook sits behind an ``if tracer is not None`` guard and never touches the
simulated clock, so an untraced run is bitwise-identical to the
pre-telemetry engine — and a *traced* run is too, because telemetry only
observes):

* **Request lifecycle spans** — every request's path through
  queued → admitted → prefill chunks → decode → preempt / migrate / finish,
  as timestamped events.  Phase durations (queued, prefill, stall, transfer,
  decode) are derived from the event stream at export time, off the hot
  path.
* **Per-iteration records** — one record per engine iteration: batch
  composition (prefill chunk tokens, decode batch), tokens committed, step
  latency, free pages, KV utilization, queue depth.
* **Sampled time series** — queue depth, running batch, KV utilization and
  finished-request counts sampled every ``sample_interval_s`` of *simulated*
  time, the inputs of a rolling-goodput plot.

Scattered run counters (admission scans, page conservation ledgers, prefix
and speculation stats, precision violations) are unified in a
:class:`CounterRegistry` with a Prometheus-style text snapshot
(:meth:`CounterRegistry.prometheus_text`); :func:`collect_counters` builds
one from any :class:`~repro.serving.engine.EngineStepper`, traced or not.

Two consumers ship with the tracer:

* :func:`chrome_trace` / :func:`write_chrome_trace` export Chrome
  trace-event JSON — replicas as processes, requests as async spans with
  nested phase spans, iterations as duration slices, time series as counter
  tracks — loadable in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``.  Timestamps are simulated microseconds, so two
  identical runs produce **byte-identical** trace files.
* :func:`trace_phase_records` + :func:`attribute_slo` reconstruct each
  request's TTFT/TPOT *exactly* (the closing span event carries the raw
  second-resolution timestamps, and JSON round-trips doubles losslessly)
  and attribute every TTFT to its phases — the engine behind
  ``tools/trace_report.py``'s "which phase caused the p99 violations"
  report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, IO, Iterable, List, Optional, Sequence, Tuple, Union

from repro.serving.metrics import RequestMetrics, ServingMetrics

__all__ = [
    "TelemetryConfig",
    "CounterRegistry",
    "collect_counters",
    "Tracer",
    "PHASES",
    "chrome_trace",
    "write_chrome_trace",
    "trace_phase_records",
    "PhaseRecord",
    "attribute_slo",
    "SLOAttribution",
]

#: Span names of the request-lifecycle phases, in canonical display order.
#: ``queued`` is arrival → admission, ``prefill`` admission → prefill
#: completion, ``stall`` a preemption's eviction → readmission gap,
#: ``transfer`` a disaggregated KV migration's exposed delay, and ``decode``
#: everything from prefill completion (or adoption) to the final token.
PHASES = ("queued", "prefill", "stall", "transfer", "decode")

_US = 1e6  # seconds → Chrome trace-event microseconds

#: Request event kind -> its Chrome instant marker: the marker's name and
#: its args built from the event's two payload fields (``None``: no args).
#: Kinds not listed draw no marker.
_MARKERS = {
    "first_token": ("first_token", None),
    "preempted": ("preempted", lambda a, b: {"count": a}),
    "exported": ("exported", None),
    "dropped": ("dropped", lambda a, b: {"tier": a}),
    "dequant": ("kv_dequant", lambda a, b: {"tokens": a, "seconds": b}),
    "chunk": ("prefill_chunk", lambda a, b: {"tokens": a, "end_ts": b * _US}),
}

#: The closing ``req`` span event's args, named in the order of the
#: ``finished`` event's payload (:meth:`Tracer.request_finished`).
_FINISH_ARGS = ("arrival_time_s", "first_token_time_s", "finish_time_s",
                "output_len", "prompt_len", "preemptions", "migrations",
                "transfer_delay_s", "precision_floor_bits",
                "served_precision_bits")


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TelemetryConfig:
    """What a :class:`Tracer` records.

    All recorders default on — construct a config only to turn one off or to
    change the sampling cadence.  ``sample_interval_s`` is *simulated* time:
    the time-series recorder emits at most one sample per interval, at
    iteration boundaries (the only instants the simulation state changes).
    """

    spans: bool = True
    iterations: bool = True
    timeseries: bool = True
    sample_interval_s: float = 0.05

    def __post_init__(self) -> None:
        # A chained comparison: NaN fails it like a non-positive value.
        if not 0.0 < self.sample_interval_s < math.inf:
            raise ValueError(f"sample_interval_s must be positive and finite, "
                             f"got {self.sample_interval_s!r}")


# ----------------------------------------------------------------------
# Counter registry
# ----------------------------------------------------------------------
class CounterRegistry:
    """Named numeric counters/gauges with a Prometheus-style text snapshot.

    A thin, deterministic mapping: names are ``snake_case`` strings, values
    plain ints or floats.  ``kind`` distinguishes monotonic ``counter``s
    (summable across replicas) from point-in-time ``gauge``s; :meth:`merge`
    sums both, which is the right aggregation for every counter this
    simulator emits (capacity gauges like ``kv_total_pages`` sum to the
    cluster-wide capacity).
    """

    def __init__(self) -> None:
        self._values: Dict[str, Union[int, float]] = {}
        self._kinds: Dict[str, str] = {}

    def set(self, name: str, value: Union[int, float],
            kind: str = "counter") -> None:
        """Set ``name`` to ``value`` (registering it on first use)."""
        if kind not in ("counter", "gauge"):
            raise ValueError(f"unknown counter kind {kind!r}")
        self._values[name] = value
        self._kinds[name] = kind

    def inc(self, name: str, value: Union[int, float] = 1) -> None:
        """Add ``value`` to ``name`` (0-initialised on first use)."""
        self._values[name] = self._values.get(name, 0) + value
        self._kinds.setdefault(name, "counter")

    def get(self, name: str, default: Union[int, float] = 0
            ) -> Union[int, float]:
        return self._values.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        # Value equality (exact, bitwise for floats) so results carrying a
        # registry still compare by content, e.g. in determinism tests.
        if not isinstance(other, CounterRegistry):
            return NotImplemented
        return (self._values == other._values
                and self._kinds == other._kinds)

    def as_dict(self) -> Dict[str, Union[int, float]]:
        """Name → value mapping, sorted by name (deterministic)."""
        return {name: self._values[name] for name in sorted(self._values)}

    def merge(self, other: "CounterRegistry") -> "CounterRegistry":
        """Sum ``other`` into this registry (cluster-level aggregation)."""
        for name in sorted(other._values):
            self._values[name] = self._values.get(name, 0) + other._values[name]
            self._kinds.setdefault(name, other._kinds[name])
        return self

    def prometheus_text(self, prefix: str = "repro_") -> str:
        """Prometheus exposition-format snapshot (sorted, deterministic)."""
        lines: List[str] = []
        for name in sorted(self._values):
            value = self._values[name]
            lines.append(f"# TYPE {prefix}{name} {self._kinds[name]}")
            rendered = repr(float(value)) if isinstance(value, float) \
                else str(value)
            lines.append(f"{prefix}{name} {rendered}")
        return "\n".join(lines) + ("\n" if lines else "")


def collect_counters(stepper) -> CounterRegistry:
    """Unified counter snapshot of one :class:`EngineStepper`'s run.

    Gathers every counter the run's components kept — scheduler admission
    instrumentation, the KV manager's page-conservation ledger, prefix-cache
    and speculation stats — into one registry, so nothing the human-readable
    summaries print is out of programmatic reach.  Works on any stepper,
    traced or untraced.
    """
    reg = CounterRegistry()
    reg.set("engine_iterations_total", stepper.iterations)
    reg.set("engine_generated_tokens_total", stepper.generated)
    reg.set("engine_busy_seconds_total", stepper.busy_s)
    reg.set("engine_clock_seconds", stepper.now, kind="gauge")
    reg.set("engine_peak_batch", stepper.peak_batch, kind="gauge")
    reg.set("kv_utilization_peak", stepper.kv_utilization_peak, kind="gauge")

    scheduler = stepper.scheduler
    reg.set("scheduler_admission_scanned_requests_total",
            scheduler.admission_scanned_requests)
    reg.set("scheduler_admission_fast_skips_total",
            scheduler.admission_fast_skips)
    reg.set("scheduler_preemptions_total", scheduler.num_preemptions)
    reg.set("scheduler_recomputed_prefill_tokens_total",
            scheduler.recomputed_prefill_tokens)
    reg.set("scheduler_finished_requests_total", len(scheduler.finished))
    reg.set("scheduler_waiting_requests", scheduler.num_waiting, kind="gauge")
    reg.set("scheduler_running_requests", len(scheduler.running), kind="gauge")
    reg.set("scheduler_tier_deferrals_total", scheduler.tier_deferrals)
    reg.set("scheduler_dropped_requests_total", len(scheduler.dropped))
    for tier in sorted(scheduler.drops_by_tier):
        reg.set(f"scheduler_dropped_tier_{tier}_total",
                scheduler.drops_by_tier[tier])

    kv = scheduler.kv_manager
    reg.set("kv_total_pages", kv.total_pages, kind="gauge")
    reg.set("kv_used_pages", kv.used_pages, kind="gauge")
    reg.set("kv_shared_pages", kv.shared_pages, kind="gauge")
    reg.set("kv_demoted_pages", kv.demoted_pages, kind="gauge")
    reg.set("kv_pages_allocated_total", kv.pages_allocated_total)
    reg.set("kv_pages_freed_total", kv.pages_freed_total)
    reg.set("kv_pages_transferred_in_total", kv.pages_transferred_in_total)
    reg.set("kv_pages_demoted_total", kv.pages_demoted_total)
    reg.set("kv_pages_promoted_total", kv.pages_promoted_total)
    reg.set("kv_double_free_total", kv.double_free_count)

    cache = stepper.prefix_cache
    if cache is not None:
        s = cache.stats
        reg.set("prefix_lookups_total", s.lookups)
        reg.set("prefix_hit_tokens_total", s.hit_tokens)
        reg.set("prefix_miss_tokens_total", s.miss_tokens)
        reg.set("prefix_inserted_pages_total", s.inserted_pages)
        reg.set("prefix_deduped_pages_total", s.deduped_pages)
        reg.set("prefix_evicted_pages_total", s.evicted_pages)
        reg.set("prefix_peak_cached_pages", s.peak_cached_pages, kind="gauge")
        reg.set("prefix_demoted_pages_total", s.demoted_pages_total)
        reg.set("prefix_promoted_pages_total", s.promoted_pages_total)
        reg.set("prefix_demoted_hit_tokens_total", s.demoted_hit_tokens)
        reg.set("prefix_peak_demoted_pages", s.peak_demoted_pages,
                kind="gauge")
    if stepper.spec is not None:
        s = stepper.spec.stats
        reg.set("spec_steps_total", s.spec_steps)
        reg.set("spec_proposed_tokens_total", s.proposed_tokens)
        reg.set("spec_accepted_tokens_total", s.accepted_tokens)
        reg.set("spec_committed_tokens_total", s.committed_tokens)
        reg.set("spec_draft_seconds_total", s.draft_time_s)
        reg.set("spec_verify_seconds_total", s.verify_time_s)
    # Multi-model multiplexing: the serving loop attaches each replica's
    # residency manager to exactly one of its steppers, so fleet-level
    # merges count every swap once.
    residency = getattr(stepper, "residency", None)
    if residency is not None:
        reg.set("multiplex_swap_ins_total", residency.swap_ins)
        reg.set("multiplex_swap_outs_total", residency.swap_outs)
        reg.set("multiplex_swap_seconds_total", residency.swap_in_s)
        reg.set("multiplex_resident_models", len(residency.resident),
                kind="gauge")
    return reg


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class Tracer:
    """Per-replica telemetry recorder, threaded through engine and scheduler.

    Hook methods are called by :class:`~repro.serving.engine.EngineStepper`
    and :class:`~repro.serving.scheduler.ContinuousBatchingScheduler` at the
    lifecycle points they own; each appends one small tuple, so the traced
    hot path stays within the perf harness's overhead budget.  All
    timestamps are simulated seconds — the tracer never reads a wall clock,
    which is what makes traced runs deterministic.

    ``events`` is the raw span stream: ``(ts, kind, request_id, a, b)``
    tuples where ``a``/``b`` carry kind-specific payloads (chunk token
    counts, span end times, the finish-summary tuple).  ``iterations`` holds
    ``(t_start, t_end, prefill_tokens, num_chunks, decode_batch,
    committed_tokens, free_pages, kv_utilization, queue_depth)`` and
    ``series`` the sampled ``(t, queue_depth, running, kv_utilization,
    free_pages, finished)`` points.
    """

    def __init__(self, config: Optional[TelemetryConfig] = None,
                 replica_index: int = 0,
                 replica_name: Optional[str] = None) -> None:
        self.config = config or TelemetryConfig()
        self.replica_index = replica_index
        self.replica_name = replica_name or f"replica{replica_index}"
        self.events: List[Tuple] = []
        self.iterations: List[Tuple] = []
        self.series: List[Tuple] = []
        #: Model weight swap-in windows ``(t0, t1, model)`` — multiplexed
        #: serving only; empty lists add nothing to exported traces.
        self.swaps: List[Tuple] = []
        self.counters: Optional[CounterRegistry] = None
        #: Largest simulated timestamp seen; closes dangling spans at export.
        self.clock = 0.0
        self._spans = self.config.spans
        self._next_sample = 0.0
        self._finished = 0

    # -- span hooks (scheduler/stepper call sites) ----------------------
    def request_queued(self, request) -> None:
        """Request entered a waiting queue (submission or migration landing)."""
        if self._spans:
            self.events.append((request.available_time, "queued",
                                request.request_id, request.prompt_len,
                                request.output_len))

    def request_admitted(self, request, now: float) -> None:
        """Admission granted pages and began this residency.

        ``a`` records the residency's prefill target (0 for a ``kv_ready``
        migration adoption, which skips prefill) so phase derivation knows
        whether a prefill span follows.
        """
        if self._spans:
            self.events.append((now, "admitted", request.request_id,
                                request.prefill_target,
                                request.cached_tokens))

    def prefill_chunk(self, request, tokens: int, t0: float,
                      t1: float) -> None:
        """One prefill chunk of ``tokens`` executed over ``[t0, t1]``."""
        if self._spans:
            self.events.append((t0, "chunk", request.request_id, tokens, t1))

    def prefill_done(self, request, now: float) -> None:
        if self._spans:
            self.events.append((now, "prefill_done", request.request_id,
                                request.prompt_len, 0))

    def first_token(self, request, now: float) -> None:
        if self._spans:
            self.events.append((now, "first_token", request.request_id, 0, 0))

    def request_preempted(self, request, now: float) -> None:
        if self._spans:
            self.events.append((now, "preempted", request.request_id,
                                request.preemptions, 0))

    def request_exported(self, request, now: float) -> None:
        """Prefill-role replica handed the request off for migration."""
        if self._spans:
            self.events.append((now, "exported", request.request_id, 0, 0))

    def request_dropped(self, request, now: float) -> None:
        """Tier-aware admission shed the request (terminal, never served)."""
        if self._spans:
            self.events.append((now, "dropped", request.request_id,
                                request.tier, 0))

    def transfer(self, request, start: float, end: float) -> None:
        """A KV migration bound for *this* replica occupies ``[start, end]``."""
        if self._spans:
            self.events.append((start, "transfer", request.request_id,
                                end, 0))

    def kv_dequant(self, request, now: float, tokens: int,
                   seconds: float) -> None:
        """Demoted-prefix dequantization charged at this request's prefill."""
        if self._spans:
            self.events.append((now, "dequant", request.request_id, tokens,
                                seconds))

    def model_swap(self, model: str, t0: float, t1: float) -> None:
        """A weight swap-in of ``model`` held the replica busy over
        ``[t0, t1]`` (multiplexed serving)."""
        if self._spans:
            self.swaps.append((t0, t1, model))
            if t1 > self.clock:
                self.clock = t1

    def request_finished(self, request, now: float) -> None:
        """Final token committed; capture the exact latency timestamps.

        The payload tuple carries the raw second-resolution times and the
        precision fields the metrics layer uses, so a trace consumer
        reconstructs TTFT/TPOT and the SLO verdict bitwise-identically to
        :class:`~repro.serving.metrics.RequestMetrics`.
        """
        if self._spans:
            self.events.append((now, "finished", request.request_id,
                                (request.arrival_time,
                                 request.first_token_time,
                                 request.finish_time,
                                 request.output_len,
                                 request.prompt_len,
                                 request.preemptions,
                                 request.migrations,
                                 request.transfer_delay_s,
                                 request.precision_floor_bits,
                                 request.served_precision_bits), 0))

    # -- iteration + time-series hook -----------------------------------
    def iteration(self, t0: float, t1: float, prefill_tokens: int,
                  num_chunks: int, decode_batch: int, committed: int,
                  stepper) -> None:
        """Record one executed iteration ``[t0, t1]`` and sample the series."""
        if t1 > self.clock:
            self.clock = t1
        scheduler = stepper.scheduler
        self._finished = len(scheduler.finished)
        if self.config.iterations:
            kv = scheduler.kv_manager
            self.iterations.append((
                t0, t1, prefill_tokens, num_chunks, decode_batch, committed,
                kv.free_pages, kv.utilization(), scheduler.num_waiting))
        if self.config.timeseries and t1 >= self._next_sample:
            kv = scheduler.kv_manager
            self.series.append((t1, scheduler.num_waiting,
                                len(scheduler.running), kv.utilization(),
                                kv.free_pages, self._finished))
            interval = self.config.sample_interval_s
            # Next grid point strictly after t1 (skip idle gaps in one step).
            self._next_sample = (t1 // interval + 1.0) * interval

    def finalize(self, stepper) -> None:
        """Snapshot the run's counters (called once, at result assembly)."""
        self.counters = collect_counters(stepper)
        if stepper.now > self.clock:
            self.clock = stepper.now

    # -- export ----------------------------------------------------------
    def _request_events(self) -> Dict[int, List[Tuple]]:
        by_request: Dict[int, List[Tuple]] = {}
        for event in self.events:
            by_request.setdefault(event[2], []).append(event)
        # Stable by timestamp: within one instant, preserve append order
        # (which is causal order inside a step).
        for events in by_request.values():
            events.sort(key=lambda e: e[0])
        return by_request

    def phase_spans(self, end_time: Optional[float] = None
                    ) -> Dict[int, List[Tuple[str, float, float]]]:
        """Derive each request's phase spans from its event stream.

        Returns ``request_id → [(phase, t_start, t_end), ...]`` with phases
        from :data:`PHASES`, in time order.  Requests still in flight when
        the run stopped have their open phase closed at ``end_time``
        (default: the tracer's final clock).
        """
        horizon = self.clock if end_time is None else end_time
        spans: Dict[int, List[Tuple[str, float, float]]] = {}
        for rid, events in self._request_events().items():
            out: List[Tuple[str, float, float]] = []
            phase: Optional[str] = None
            since = 0.0
            for event in events:
                ts, kind = event[0], event[1]
                if kind == "transfer":
                    out.append(("transfer", ts, event[3]))
                    continue
                if kind in ("chunk", "first_token", "dequant"):
                    continue
                if kind == "queued":
                    phase, since = "queued", ts
                elif kind == "admitted":
                    if phase is not None:
                        out.append((phase, since, ts))
                    # A zero prefill target means the KV state was adopted
                    # from a transfer: decode starts immediately.
                    phase = "prefill" if event[3] > 0 else "decode"
                    since = ts
                elif kind == "prefill_done":
                    if phase is not None:
                        out.append((phase, since, ts))
                    phase, since = "decode", ts
                elif kind == "preempted":
                    if phase is not None:
                        out.append((phase, since, ts))
                    phase, since = "stall", ts
                elif kind in ("exported", "finished", "dropped"):
                    if phase is not None:
                        out.append((phase, since, ts))
                    phase = None
            if phase is not None:
                out.append((phase, since, max(horizon, since)))
            spans[rid] = out
        return spans

    def chrome_events(self, end_time: Optional[float] = None) -> List[Dict]:
        """This replica's Chrome trace events (see :func:`chrome_trace`)."""
        horizon = self.clock if end_time is None else end_time
        pid = self.replica_index
        events: List[Dict] = [
            {"ph": "M", "pid": pid, "tid": 0, "ts": 0, "cat": "__metadata",
             "name": "process_name", "args": {"name": self.replica_name}},
            {"ph": "M", "pid": pid, "tid": 0, "ts": 0, "cat": "__metadata",
             "name": "thread_name", "args": {"name": "requests"}},
            {"ph": "M", "pid": pid, "tid": 1, "ts": 0, "cat": "__metadata",
             "name": "thread_name", "args": {"name": "iterations"}},
        ]
        for (t0, t1, prefill_tokens, num_chunks, decode_batch, committed,
             free_pages, kv_util, queue_depth) in self.iterations:
            events.append({
                "ph": "X", "pid": pid, "tid": 1, "ts": t0 * _US,
                "dur": (t1 - t0) * _US, "cat": "iteration", "name": "iter",
                "args": {"prefill_tokens": prefill_tokens,
                         "prefill_chunks": num_chunks,
                         "decode_batch": decode_batch,
                         "committed_tokens": committed,
                         "free_pages": free_pages,
                         "kv_utilization": kv_util,
                         "queue_depth": queue_depth}})
        # Weight swap-in windows share the GPU-timeline thread with the
        # iterations they delayed; absent (every single-model run) the
        # exported trace is byte-identical to the pre-multiplexing format.
        for t0, t1, model in self.swaps:
            events.append({
                "ph": "X", "pid": pid, "tid": 1, "ts": t0 * _US,
                "dur": (t1 - t0) * _US, "cat": "swap",
                "name": f"swap:{model}",
                "args": {"model": model, "seconds": t1 - t0}})
        for t, queue_depth, running, kv_util, free_pages, finished in self.series:
            for name, value in (("queue_depth", queue_depth),
                                ("running", running),
                                ("kv_utilization", kv_util),
                                ("free_pages", free_pages),
                                ("finished", finished)):
                events.append({"ph": "C", "pid": pid, "tid": 1, "ts": t * _US,
                               "cat": "timeseries", "name": name,
                               "args": {"value": value}})
        by_request = self._request_events()
        phase_spans = self.phase_spans(end_time=horizon)
        for rid in sorted(by_request):
            req_events = by_request[rid]
            span = {"pid": pid, "tid": 0, "cat": "request", "id": str(rid)}
            name = f"req {rid}"
            kinds = [e[1] for e in req_events]
            end_ts = max([e[0] for e in req_events]
                         + [e[3] for e in req_events if e[1] == "transfer"])
            finish = [e[3] for e in req_events if e[1] == "finished"]
            if finish:
                end_args = dict(zip(_FINISH_ARGS, finish[-1]))
            elif "dropped" in kinds:
                end_args = {"dropped": True}
            elif "exported" in kinds:
                end_args = {}
            else:  # still in flight: the span stays open to the horizon
                end_args = {"unfinished": True}
                end_ts = max(end_ts, horizon)
            events.append({"ph": "b", **span, "ts": req_events[0][0] * _US,
                           "name": name,
                           "args": {"prompt_len": req_events[0][3]
                                    if kinds[0] == "queued" else 0}})
            for phase, t0, t1 in phase_spans[rid]:
                events.append({"ph": "b", **span, "ts": t0 * _US,
                               "name": phase})
                events.append({"ph": "e", **span, "ts": t1 * _US,
                               "name": phase})
            for ts, kind, _, a, b in req_events:
                marker = _MARKERS.get(kind)
                if marker is not None:
                    event = {"ph": "n", **span, "ts": ts * _US,
                             "name": marker[0]}
                    if marker[1] is not None:
                        event["args"] = marker[1](a, b)
                    events.append(event)
            events.append({"ph": "e", **span, "ts": end_ts * _US,
                           "name": name, "args": end_args})
        return events

    def chrome_trace(self) -> Dict:
        """Single-replica convenience wrapper around :func:`chrome_trace`."""
        return chrome_trace([self])


def resolve_telemetry(telemetry: Union[None, bool, TelemetryConfig, Tracer],
                      allow_tracer: bool = True
                      ) -> Union[None, TelemetryConfig, Tracer]:
    """Normalize a ``telemetry=`` argument: ``None`` when untraced, the
    :class:`TelemetryConfig` to build tracers from (``True``: the default
    one), or a ready-made :class:`Tracer` as is.  A cluster run passes
    ``allow_tracer=False``: each replica needs its own tracer."""
    if telemetry is None or telemetry is False:
        return None
    if telemetry is True:
        return TelemetryConfig()
    if isinstance(telemetry, TelemetryConfig) or (
            allow_tracer and isinstance(telemetry, Tracer)):
        return telemetry
    accepted = ("None, bool, TelemetryConfig or Tracer" if allow_tracer else
                "None, bool or TelemetryConfig (one Tracer cannot serve "
                "several replicas)")
    raise TypeError(f"telemetry must be {accepted}, "
                    f"got {type(telemetry).__name__}")


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
def chrome_trace(tracers: Sequence[Tracer]) -> Dict:
    """Merge per-replica tracers into one Chrome trace-event JSON object.

    Replicas become trace *processes* (their ``replica_index`` is the pid),
    requests async spans (with nested :data:`PHASES` sub-spans and instant
    markers), iterations duration slices on each process's ``iterations``
    thread, and sampled time series counter tracks.  All tracers share the
    cluster's simulated clock, so merging is a deterministic sort — two
    identical runs serialize to byte-identical files.
    """
    if not tracers:
        raise ValueError("chrome_trace needs at least one tracer")
    horizon = max(t.clock for t in tracers)
    events: List[Dict] = []
    for tracer in tracers:
        events.extend(tracer.chrome_events(end_time=horizon))
    # Metadata first, then global time order; pid/name break ties so the
    # ordering is total and stable across runs.
    events.sort(key=lambda e: (e["ph"] != "M", e["ts"], e["pid"],
                               e.get("id", ""), e["name"]))
    return {"displayTimeUnit": "ms", "traceEvents": events}


def write_chrome_trace(path_or_file: Union[str, IO[str]],
                       tracers: Union[Tracer, Sequence[Tracer], Dict]) -> None:
    """Serialize a trace to ``path_or_file`` (deterministic byte output).

    Accepts a single tracer, a sequence of tracers, or an already-built
    trace dict.  Keys are sorted and floats rendered by ``repr`` (exact
    round-trip), so identical runs write identical bytes.
    """
    if isinstance(tracers, Tracer):
        trace = chrome_trace([tracers])
    elif isinstance(tracers, dict):
        trace = tracers
    else:
        trace = chrome_trace(list(tracers))
    if isinstance(path_or_file, str):
        with open(path_or_file, "w") as fh:
            json.dump(trace, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    else:
        json.dump(trace, path_or_file, sort_keys=True, separators=(",", ":"))
        path_or_file.write("\n")


# ----------------------------------------------------------------------
# Trace consumption: phase records + SLO attribution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PhaseRecord(RequestMetrics):
    """One finished request reconstructed from a Chrome trace.

    Its fields come from the raw second-resolution timestamps and the
    precision fields the closing span event carries, so the latencies and
    the SLO rule (precision floor included) are
    :class:`~repro.serving.metrics.RequestMetrics`' own, bitwise-identical
    to the live metrics.  A trace whose closing events predate the
    precision fields reads as served at any precision.  ``replica`` is the
    trace process that closed the request, and ``phase_s`` attributes the
    TTFT window ``[arrival, first_token]`` to the :data:`PHASES` it
    overlapped.
    """

    replica: int = 0
    phase_s: Dict[str, float] = field(default_factory=dict)


def trace_phase_records(trace: Dict) -> List[PhaseRecord]:
    """Reconstruct every finished request from a Chrome trace dict.

    Walks the ``request``-category async spans: the closing event named
    ``req <id>`` carries the exact latency timestamps; the nested phase
    spans (possibly spread over several replicas for migrated requests) are
    clipped to the TTFT window ``[arrival, first_token]`` and accumulated
    into per-phase seconds.  Spans never covered by a phase (e.g. the time
    between routing and queue entry) land in no bucket; the report exposes
    the residual as ``other``.
    """
    finish_args: Dict[str, Tuple[int, Dict]] = {}
    spans: Dict[str, List[Tuple[str, float, float, int]]] = {}
    open_spans: Dict[Tuple[int, str, str], List[Tuple[str, float]]] = {}
    for event in trace.get("traceEvents", []):
        if event.get("cat") != "request":
            continue
        rid = event["id"]
        ph = event["ph"]
        name = event["name"]
        if ph == "b" and name in PHASES:
            open_spans.setdefault((event["pid"], rid, name), []).append(
                (name, event["ts"]))
        elif ph == "e" and name in PHASES:
            stack = open_spans.get((event["pid"], rid, name))
            if stack:
                phase, t0 = stack.pop()
                spans.setdefault(rid, []).append(
                    (phase, t0 / _US, event["ts"] / _US, event["pid"]))
        elif ph == "e" and name.startswith("req "):
            args = event.get("args") or {}
            if "finish_time_s" in args:
                finish_args[rid] = (event["pid"], args)
    records: List[PhaseRecord] = []
    for rid, (pid, args) in sorted(finish_args.items(),
                                   key=lambda kv: int(kv[0])):
        window0, window1 = args["arrival_time_s"], args["first_token_time_s"]
        phase_s = {phase: 0.0 for phase in PHASES}
        for phase, t0, t1, _pid in spans.get(rid, []):
            overlap = min(t1, window1) - max(t0, window0)
            if overlap > 0:
                phase_s[phase] += overlap
        records.append(PhaseRecord(
            request_id=int(rid), replica=pid,
            arrival_time=window0, first_token_time=window1,
            finish_time=args["finish_time_s"],
            prompt_len=args.get("prompt_len", 0),
            output_len=args.get("output_len", 0),
            preemptions=args.get("preemptions", 0),
            migrations=args.get("migrations", 0),
            transfer_delay_s=args.get("transfer_delay_s", 0.0),
            precision_floor_bits=args.get("precision_floor_bits", 0.0),
            served_precision_bits=args.get("served_precision_bits", 0.0),
            phase_s=phase_s))
    return records


@dataclass
class SLOAttribution:
    """Where the TTFT budget went: all requests vs. the SLO violators."""

    ttft_slo_s: float
    tpot_slo_s: float
    records: List[PhaseRecord]
    violators: List[PhaseRecord]

    @property
    def attainment(self) -> float:
        """The live metrics' :meth:`ServingMetrics.slo_attainment` over the
        reconstructed records, so both read the same bits."""
        return ServingMetrics(requests=self.records).slo_attainment(
            self.ttft_slo_s, self.tpot_slo_s)

    @staticmethod
    def _mean_phases(records: Sequence[PhaseRecord]) -> Dict[str, float]:
        out = {phase: 0.0 for phase in PHASES}
        out["other"] = 0.0
        if not records:
            return out
        for record in records:
            accounted = 0.0
            for phase in PHASES:
                seconds = record.phase_s.get(phase, 0.0)
                out[phase] += seconds
                accounted += seconds
            out["other"] += max(0.0, record.ttft - accounted)
        return {phase: total / len(records) for phase, total in out.items()}

    def mean_phase_seconds(self, violators_only: bool = False
                           ) -> Dict[str, float]:
        """Mean per-phase TTFT seconds over all requests or the violators."""
        return self._mean_phases(self.violators if violators_only
                                 else self.records)

    def dominant_phase(self) -> Optional[str]:
        """The phase eating the largest share of the violators' TTFT."""
        if not self.violators:
            return None
        means = self.mean_phase_seconds(violators_only=True)
        return max(means, key=lambda phase: (means[phase], phase))

    def worst(self, n: int = 5) -> List[PhaseRecord]:
        """The ``n`` requests with the largest TTFT."""
        return sorted(self.records, key=lambda r: (-r.ttft, r.request_id))[:n]


def attribute_slo(trace: Dict, ttft_slo_s: float,
                  tpot_slo_s: float) -> SLOAttribution:
    """Answer "which phase caused the SLO violations" for one saved trace."""
    records = trace_phase_records(trace)
    violators = [r for r in records
                 if not r.meets_slo(ttft_slo_s, tpot_slo_s)]
    return SLOAttribution(ttft_slo_s=ttft_slo_s, tpot_slo_s=tpot_slo_s,
                          records=records, violators=violators)
