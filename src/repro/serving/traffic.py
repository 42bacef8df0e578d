"""Production traffic: trace replay, diurnal and flash-crowd arrivals, tenants.

The generators in :mod:`repro.serving.request` model *stationary* traffic
(Poisson, on/off bursts).  Production request streams are not stationary:
rates swing with the day, marketing launches produce step spikes, and the
stream is shared by many tenants with different SLO tiers.  This module adds
the open-loop traffic sources a capacity-planning study needs:

* :func:`make_diurnal_workload` — non-homogeneous Poisson arrivals whose
  rate follows a sinusoid ``rate(t) = base * (1 + amplitude *
  sin(2 * pi * (t - phase) / period))``, sampled exactly by thinning;
* :func:`make_flash_crowd_workload` — piecewise-constant rates: a baseline
  Poisson process overlaid with step/spike segments (e.g. a 10x spike for
  30 s), the trace behind "minimum GPUs to hold p99 TTFT under a spike";
* :func:`make_multi_model_workload` — Poisson arrivals whose requests are
  stamped with models drawn from a popularity mix (e.g. 80/20 across two
  registry models), the skewed trace multiplexing studies replay;
* :func:`load_trace` / :func:`save_trace` — a JSONL trace format
  (``arrival_s``, prompt/output tokens, ``tenant``, ``tier``, ``model``) so
  recorded or hand-authored traces can drive the engine reproducibly;
* :func:`assign_tenants` — stamp an existing workload with a deterministic
  tenant mix and paid/free SLO tiers.

All generators are seeded and return plain :class:`Workload` objects; none
of them changes engine behaviour by itself.  Tier semantics only activate
when the scheduler is built with ``tier_admission`` on (see
:mod:`repro.serving.policies`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.model.config import MODEL_REGISTRY
from repro.serving.metrics import fold_sum
from repro.serving.request import (
    _OUTPUT_LOGNORMAL,
    _PROMPT_LOGNORMAL,
    _lognormal_lengths,
    Request,
    Workload,
)

__all__ = [
    "TIERS",
    "TenantSpec",
    "make_tenant_pool",
    "assign_tenants",
    "make_diurnal_workload",
    "make_flash_crowd_workload",
    "make_multi_model_workload",
    "load_trace",
    "save_trace",
]

#: Priority tiers recognised by tier-aware admission, best first.
TIERS = ("paid", "free")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant sharing the serving fleet.

    ``weight`` is the tenant's relative share of the request stream; tiers
    follow :data:`TIERS` ("paid" admits ahead of "free" under pressure).
    """

    name: str
    tier: str = "paid"
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.tier not in TIERS:
            raise ValueError(f"unknown tier {self.tier!r}; expected {TIERS}")
        if self.weight <= 0:
            raise ValueError("weight must be positive")


def make_tenant_pool(num_tenants: int = 4,
                     free_fraction: float = 0.5) -> Tuple[TenantSpec, ...]:
    """A deterministic pool of equally weighted tenants.

    The first ``round(num_tenants * (1 - free_fraction))`` tenants are paid,
    the rest free — no randomness, so the pool is stable across runs.
    """
    if num_tenants <= 0:
        raise ValueError("num_tenants must be positive")
    if not 0.0 <= free_fraction <= 1.0:
        raise ValueError("free_fraction must be in [0, 1]")
    num_paid = int(round(num_tenants * (1.0 - free_fraction)))
    return tuple(
        TenantSpec(name=f"tenant-{i:02d}",
                   tier="paid" if i < num_paid else "free")
        for i in range(num_tenants))


def _sample_tenants(rng: np.random.Generator, n: int,
                    tenants: Sequence[TenantSpec]) -> List[TenantSpec]:
    weights = np.asarray([t.weight for t in tenants], dtype=np.float64)
    picks = rng.choice(len(tenants), size=n, p=weights / weights.sum())
    return [tenants[int(i)] for i in picks]


def assign_tenants(workload: Workload,
                   tenants: Union[int, Sequence[TenantSpec]] = 4,
                   free_fraction: float = 0.5,
                   seed: int = 0) -> Workload:
    """Stamp ``workload``'s requests with tenants and tiers, in place.

    ``tenants`` is either a tenant count (expanded via
    :func:`make_tenant_pool`) or an explicit sequence of
    :class:`TenantSpec`.  Assignment is an i.i.d. weighted draw from a
    dedicated seeded generator, so the same workload + seed always produces
    the same tenant mix.  Returns the workload for chaining.
    """
    if isinstance(tenants, int):
        tenants = make_tenant_pool(tenants, free_fraction=free_fraction)
    if not tenants:
        raise ValueError("tenants must be non-empty")
    rng = np.random.default_rng(seed)
    for request, spec in zip(workload.requests,
                             _sample_tenants(rng, len(workload), tenants)):
        request.tenant = spec.name
        request.tier = spec.tier
    return workload


def _lengths(rng: np.random.Generator, n: int,
             prompt_len: Optional[int],
             output_len: Optional[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Uniform lengths when given, ShareGPT-like lognormal mixes otherwise."""
    if prompt_len is not None:
        prompts = np.full(n, prompt_len, dtype=np.int64)
    else:
        prompts = _lognormal_lengths(rng, n, *_PROMPT_LOGNORMAL)
    if output_len is not None:
        outputs = np.full(n, output_len, dtype=np.int64)
    else:
        outputs = _lognormal_lengths(rng, n, *_OUTPUT_LOGNORMAL)
    return prompts, outputs


def _build(rng: np.random.Generator, arrivals: Sequence[float],
           prompt_len: Optional[int], output_len: Optional[int],
           tenants: Optional[Union[int, Sequence[TenantSpec]]],
           free_fraction: float, tenant_seed: int) -> Workload:
    n = len(arrivals)
    prompts, outputs = _lengths(rng, n, prompt_len, output_len)
    workload = Workload(requests=[
        Request(request_id=i, prompt_len=int(prompts[i]),
                output_len=int(outputs[i]), arrival_time=float(arrivals[i]))
        for i in range(n)
    ])
    if tenants is not None:
        assign_tenants(workload, tenants, free_fraction=free_fraction,
                       seed=tenant_seed)
    return workload


def make_diurnal_workload(num_requests: int,
                          base_rate: float = 4.0,
                          amplitude: float = 0.6,
                          period_s: float = 120.0,
                          phase_s: float = 0.0,
                          prompt_len: Optional[int] = None,
                          output_len: Optional[int] = None,
                          tenants: Optional[Union[int, Sequence[TenantSpec]]] = None,
                          free_fraction: float = 0.5,
                          seed: int = 0) -> Workload:
    """Sinusoidally modulated Poisson arrivals (a compressed diurnal cycle).

    The instantaneous rate is ``base_rate * (1 + amplitude * sin(2 * pi *
    (t - phase_s) / period_s))``, sampled exactly with the standard thinning
    construction: candidate arrivals are drawn from a homogeneous process at
    the peak rate and accepted with probability ``rate(t) / peak``.  With
    ``amplitude < 1`` the rate never reaches zero; ``amplitude = 1`` gives
    fully silent troughs.  Lengths default to the ShareGPT-like lognormal
    mixes; pass ``prompt_len`` / ``output_len`` for uniform shapes.  With
    ``tenants`` set, requests are stamped via :func:`assign_tenants`.
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    if base_rate <= 0 or period_s <= 0:
        raise ValueError("base_rate and period_s must be positive")
    if not 0.0 <= amplitude <= 1.0:
        raise ValueError("amplitude must be in [0, 1]")
    rng = np.random.default_rng(seed)
    peak = base_rate * (1.0 + amplitude)
    omega = 2.0 * math.pi / period_s
    arrivals: List[float] = []
    t = 0.0
    while len(arrivals) < num_requests:
        t += float(rng.exponential(1.0 / peak))
        rate = base_rate * (1.0 + amplitude * math.sin(omega * (t - phase_s)))
        if rng.random() * peak <= rate:
            arrivals.append(t)
    return _build(rng, arrivals, prompt_len, output_len,
                  tenants, free_fraction, seed + 1)


def make_flash_crowd_workload(num_requests: int,
                              base_rate: float = 2.0,
                              spikes: Sequence[Tuple[float, float, float]] = (
                                  (30.0, 20.0, 10.0),),
                              prompt_len: Optional[int] = None,
                              output_len: Optional[int] = None,
                              tenants: Optional[Union[int, Sequence[TenantSpec]]] = None,
                              free_fraction: float = 0.5,
                              seed: int = 0) -> Workload:
    """Baseline Poisson traffic overlaid with step spikes (flash crowds).

    ``spikes`` is a sequence of ``(start_s, duration_s, multiplier)``
    segments; while inside a segment the instantaneous rate is ``base_rate *
    multiplier`` (overlapping segments multiply).  The default is a single
    10x spike from t=30 s to t=50 s — the "traffic spike" of the capacity
    question.  Sampling uses the memorylessness of the exponential: a draw
    that crosses a rate boundary is restarted at the boundary under the new
    rate, which is exact for piecewise-constant intensities.
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    if base_rate <= 0:
        raise ValueError("base_rate must be positive")
    for start, duration, multiplier in spikes:
        if start < 0 or duration <= 0 or multiplier <= 0:
            raise ValueError("spike segments need start >= 0, duration > 0, "
                             "multiplier > 0")
    rng = np.random.default_rng(seed)
    boundaries = sorted({0.0}
                        | {float(s) for s, _, _ in spikes}
                        | {float(s + d) for s, d, _ in spikes})

    def rate_at(t: float) -> float:
        rate = base_rate
        for start, duration, multiplier in spikes:
            if start <= t < start + duration:
                rate *= multiplier
        return rate

    def next_boundary(t: float) -> float:
        for b in boundaries:
            if b > t:
                return b
        return math.inf

    arrivals: List[float] = []
    t = 0.0
    while len(arrivals) < num_requests:
        candidate = t + float(rng.exponential(1.0 / rate_at(t)))
        boundary = next_boundary(t)
        if candidate > boundary:
            t = boundary  # re-draw under the new segment's rate
            continue
        t = candidate
        arrivals.append(t)
    return _build(rng, arrivals, prompt_len, output_len,
                  tenants, free_fraction, seed + 1)


def make_multi_model_workload(num_requests: int,
                              models: Sequence[str],
                              weights: Optional[Sequence[float]] = None,
                              arrival_rate: float = 8.0,
                              prompt_len: Optional[int] = None,
                              output_len: Optional[int] = None,
                              tenants: Optional[Union[int, Sequence[TenantSpec]]] = None,
                              free_fraction: float = 0.5,
                              seed: int = 0) -> Workload:
    """Poisson arrivals tagged with models drawn from a popularity mix.

    ``models`` names the registry models requests may target; ``weights``
    gives their relative popularity (uniform when omitted) — the skewed
    two-model trace of the multiplexing studies is
    ``models=("llama-2-7b", "llama-2-13b"), weights=(0.8, 0.2)``.  Model
    names are validated against the registry with the same contract as
    :func:`load_trace`.  Lengths default to the ShareGPT-like lognormal
    mixes; ``tenants`` stamps the result via :func:`assign_tenants`.
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")
    if not models:
        raise ValueError("models must be non-empty")
    for name in models:
        if name not in MODEL_REGISTRY:
            raise ValueError(f"unknown model {name!r}")
    probs = None
    if weights is not None:
        if len(weights) != len(models):
            raise ValueError(
                f"weights has {len(weights)} entries for "
                f"{len(models)} models")
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ValueError("weights must be non-negative with a "
                             "positive sum")
        total = float(fold_sum(weights))
        probs = [w / total for w in weights]
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / arrival_rate, num_requests))
    workload = _build(rng, [float(t) for t in arrivals],
                      prompt_len, output_len,
                      tenants, free_fraction, seed + 1)
    picks = rng.choice(len(models), size=num_requests, p=probs)
    for request, pick in zip(workload.requests, picks):
        request.model = models[int(pick)]
    return workload


#: JSONL trace schema: required and optional per-line fields.
_TRACE_REQUIRED = ("arrival_s", "prompt_tokens", "output_tokens")
_TRACE_OPTIONAL = ("tenant", "tier", "model")


def load_trace(source: Union[str, Path, IO[str], Iterable[str]]) -> Workload:
    """Load a JSONL request trace into a :class:`Workload`.

    Each line is one JSON object with required fields ``arrival_s``,
    ``prompt_tokens`` and ``output_tokens``, plus optional ``tenant``,
    ``tier`` (default ``"paid"``) and ``model``.  ``arrival_s`` must be a
    finite number ``>= 0`` and the token counts positive JSON integers; a
    line that breaks the schema raises :class:`ValueError` naming it.
    Requests are sorted by arrival time (ties broken by line order) and
    re-numbered 0..n-1, so the same file always replays into the identical
    workload regardless of line order.  ``source`` may be a path, an open
    text file, or any iterable of lines.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    else:
        lines = list(source)
    records = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"trace line {lineno}: invalid JSON") from exc
        for key in _TRACE_REQUIRED:
            if key not in record:
                raise ValueError(f"trace line {lineno}: missing {key!r}")
        arrival = record["arrival_s"]
        if (isinstance(arrival, bool) or not isinstance(arrival, (int, float))
                or not math.isfinite(arrival) or arrival < 0):
            raise ValueError(f"trace line {lineno}: arrival_s must be a "
                             f"finite number >= 0, got {arrival!r}")
        for key in ("prompt_tokens", "output_tokens"):
            tokens = record[key]
            if (isinstance(tokens, bool) or not isinstance(tokens, int)
                    or tokens <= 0):
                raise ValueError(f"trace line {lineno}: {key} must be a "
                                 f"positive integer, got {tokens!r}")
        tier = record.get("tier", "paid")
        if tier not in TIERS:
            raise ValueError(f"trace line {lineno}: unknown tier {tier!r}")
        model = record.get("model")
        if model is not None and model not in MODEL_REGISTRY:
            raise ValueError(
                f"trace line {lineno}: unknown model {model!r}")
        records.append((float(arrival), lineno, record, tier))
    records.sort(key=lambda item: (item[0], item[1]))
    requests = [
        Request(request_id=i, prompt_len=record["prompt_tokens"],
                output_len=record["output_tokens"], arrival_time=arrival,
                tenant=record.get("tenant"), tier=tier,
                model=record.get("model"))
        for i, (arrival, _, record, tier) in enumerate(records)
    ]
    return Workload(requests=requests)


def save_trace(workload: Workload,
               destination: Union[str, Path, IO[str]]) -> None:
    """Write ``workload`` as a JSONL trace readable by :func:`load_trace`.

    Only the trace-schema fields are written (arrival, lengths, tenant,
    tier, model), so a save/load round trip yields a pristine workload —
    engine-side progress (generated tokens, timestamps) is deliberately not
    serialised.
    """
    def dump(fh: IO[str]) -> None:
        for request in sorted(workload.requests,
                              key=lambda r: (r.arrival_time, r.request_id)):
            record = {
                "arrival_s": request.arrival_time,
                "prompt_tokens": request.prompt_len,
                "output_tokens": request.output_len,
            }
            if request.tenant is not None:
                record["tenant"] = request.tenant
            if request.tier != "paid":
                record["tier"] = request.tier
            if request.model is not None:
                record["model"] = request.model
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as fh:
            dump(fh)
    else:
        dump(destination)
