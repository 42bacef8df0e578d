"""Multi-replica cluster simulator: routers + aggregated serving results.

One :class:`repro.serving.engine.ServingEngine` models a single model
replica (possibly tensor-parallel across several GPUs).  Production
deployments run many such replicas behind a load balancer; this module
simulates that tier.  :class:`ClusterEngine` drives N replica
:class:`~repro.serving.engine.EngineStepper` loops against one shared clock:
requests are dispatched in arrival order, every replica whose queue state
could change by the arrival instant is advanced to it first, and the
pluggable :class:`Router` then picks a replica using the queue state *at
that moment* — exactly the information a real load balancer has.
Disaggregated, autoscaled, mixed-precision and multiplexed fleets (below)
run on that same event loop and compose where their meanings do: only
role-specialised replicas with autoscaling are refused.

Routers shipped by default:

* ``round-robin`` — cyclic assignment, blind to load.  The baseline every
  cluster study compares against.
* ``least-outstanding`` — the replica with the fewest unfinished requests;
  the classic least-outstanding-requests (LOR) balancer.
* ``shortest-queue`` — the replica owing the fewest pending prefill tokens,
  a length-aware refinement of LOR for LLM serving where a single 3k-token
  prompt costs far more than several short ones.
* ``prefix-affinity`` — cache-locality routing for prefix-cached clusters:
  probe every replica's prefix cache for the request's prompt and prefer the
  warmest one (load-penalized), keeping same-prefix sessions on the replica
  that already holds their KV blocks; cold requests stick by session so a
  conversation lands on one replica from its first turn.
* ``disaggregated`` — the prefill/decode split's router: arrivals go to the
  prefill-capable replica owing the fewest pending prefill tokens, and on
  prefill completion the request migrates to the least-loaded decode
  replica.
* ``precision-aware`` — the heterogeneous fleet's router: quality-floored
  and short interactive requests go to the highest-precision replica group,
  throughput traffic to the lowest-precision (cheapest) group,
  least-outstanding within a group.  Degrades to least-outstanding on a
  homogeneous fleet.
* ``model-aware`` — the multiplexed fleet's router: prefer a replica where
  the request's model is already warm, falling back to the least-loaded
  replica worth warming by scoring every candidate
  ``swap_cost_s + queue_cost_s * outstanding``.  Degrades to
  least-outstanding on single-model fleets.

**Multiplexed serving** (``serve(..., multiplex=MultiplexConfig(...))``)
puts several models on every replica: a
:class:`~repro.serving.multiplex.ModelResidency` accounts each model's
weight + workspace footprint against HBM next to the statically carved
per-model KV pools, swaps weights LRU when the residency limit is hit, and
prices each swap-in like an autoscaler cold start — the weights cross the
host link as a replica-busy window on the shared clock.  Co-resident
models are serialized on one GPU timeline per replica; prefix caches are
namespaced by model so no block is ever adopted across models.  Under
per-replica ``systems`` each replica runs every model at its own precision,
so it carves HBM and prices swap-ins under its own system.

**Disaggregated serving** (DistServe/Splitwise-style) gives each replica a
*role*: ``prefill`` replicas run prompt processing only and export every
request the instant its prefill completes, ``decode`` replicas adopt the
transferred KV state and generate tokens, and ``mixed`` replicas (the
default) do both — a cluster of only mixed replicas is bitwise-identical to
the pre-disaggregation engine.  The handoff is priced by a KV-transfer cost
model: the prompt's KV bytes (minus whatever prefix the target replica
already caches) cross an :class:`~repro.gpu.specs.InterconnectSpec` link,
overlappable with the first decode iteration (layer-by-layer streaming), and
the exposed delay lands on the request's TTFT and is reported per request.

Per-replica :class:`~repro.serving.engine.ServingResult`s are aggregated
into a :class:`ClusterResult` with cluster-level throughput (makespan-based),
merged latency percentiles, SLO goodput and — for disaggregated runs —
per-role utilization, migration counts and transfer-delay percentiles.
"""

from __future__ import annotations

import abc
import heapq
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import (Dict, Iterable, List, Optional, Sequence, Tuple, Type,
                    Union)

from repro.gpu.specs import GPUSpec, InterconnectSpec, NVLINK
from repro.model.config import ModelConfig
from repro.serving.autoscaler import (
    AutoscaleReport,
    AutoscalerConfig,
    FleetSnapshot,
    ReactiveAutoscaler,
    ScalingEvent,
)
from repro.serving.engine import EngineStepper, ServingEngine, ServingResult
from repro.serving.metrics import LatencySummary, ServingMetrics, fold_sum
from repro.serving.multiplex import (
    ModelResidency,
    MultiplexConfig,
    MultiplexReport,
)
from repro.serving.parallel import ParallelConfig
from repro.serving.policies import SchedulingConfig
from repro.serving.precision import SystemConfig, get_system
from repro.serving.request import Request, Workload, check_positive_int
from repro.serving.speculative import SpeculativeConfig
from repro.serving.telemetry import (
    CounterRegistry,
    TelemetryConfig,
    Tracer,
    chrome_trace,
    resolve_telemetry,
)

__all__ = [
    "Router",
    "RoundRobinRouter",
    "LeastOutstandingRouter",
    "ShortestQueueRouter",
    "PrefixAffinityRouter",
    "DisaggregatedRouter",
    "PrecisionAwareRouter",
    "ModelAwareRouter",
    "ROUTERS",
    "get_router",
    "REPLICA_ROLES",
    "ClusterResult",
    "ClusterEngine",
]

#: Valid replica roles for disaggregated serving.
REPLICA_ROLES = ("prefill", "decode", "mixed")


# ----------------------------------------------------------------------
# Routers
# ----------------------------------------------------------------------
def _least_outstanding(hosts: Sequence,
                       candidates: Optional[Iterable[int]] = None) -> int:
    """Index of the host with the fewest unfinished requests.

    Searches ``candidates`` (default: every index of ``hosts``); ties break
    toward the lowest index.  The one least-outstanding rule: every router
    that degrades to least-outstanding, and the cluster's drain target,
    call it.
    """
    if candidates is None:
        candidates = range(len(hosts))
    return min(candidates, key=lambda i: (hosts[i].outstanding_requests, i))


class Router(abc.ABC):
    """Chooses the replica each arriving request is dispatched to.

    ``route`` sees every replica's views as of the request's arrival time,
    so queue-state views (:attr:`EngineStepper.outstanding_requests`,
    :attr:`EngineStepper.pending_prefill_tokens`, prefix-cache probes)
    reflect what a load balancer would observe at that instant.  A replica
    whose :meth:`EngineStepper.stable_until` bound (recorded by its last
    coast) is at or after the arrival may still have its clock behind it:
    up to its next ``step`` it only coasts, which changes none of those
    views.  Ties break toward the lowest replica index, keeping every
    router deterministic.
    """

    #: Registry key; subclasses override.
    name: str = "abstract"

    @abc.abstractmethod
    def route(self, request: Request, replicas: Sequence[EngineStepper]) -> int:
        """Index of the replica that should serve ``request``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class RoundRobinRouter(Router):
    """Cyclic assignment, blind to per-replica load."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def route(self, request: Request, replicas: Sequence[EngineStepper]) -> int:
        index = self._next % len(replicas)
        self._next += 1
        return index


class LeastOutstandingRouter(Router):
    """Send to the replica with the fewest unfinished requests."""

    name = "least-outstanding"

    def route(self, request: Request, replicas: Sequence[EngineStepper]) -> int:
        return _least_outstanding(replicas)


class ShortestQueueRouter(Router):
    """Send to the replica owing the fewest pending prefill tokens.

    Counting tokens instead of requests makes the router robust to
    heavy-tailed prompt lengths: one 3k-token prompt weighs as much as many
    short chats.  Outstanding requests break ties so decode-heavy backlogs
    still register.
    """

    name = "shortest-queue"

    def route(self, request: Request, replicas: Sequence[EngineStepper]) -> int:
        return min(range(len(replicas)),
                   key=lambda i: (replicas[i].pending_prefill_tokens,
                                  replicas[i].outstanding_requests, i))


class PrefixAffinityRouter(Router):
    """Send same-prefix sessions to the replica holding their KV cache.

    Each arriving request probes every replica's prefix cache
    (:meth:`EngineStepper.cached_prefix_tokens`) and is routed to the
    replica with the best ``hit_tokens - LOAD_PENALTY_TOKENS * outstanding``
    score, so cache affinity wins until the warm replica's queue grows
    :attr:`LOAD_PENALTY_TOKENS` worth of backlog per waiting request.  Requests
    that hit nowhere (first turns, caching disabled) are routed
    least-outstanding but *stick* by session key — the first two prompt
    segments, i.e. (system prompt, first user message) — so a session's
    later turns find their history where the first turn built it.  The
    sticky target is the replica itself, not its position in the view: on
    an autoscaled fleet the view shrinks and reorders as slots stop, and a
    session whose replica left the view falls back to least-outstanding.
    """

    name = "prefix-affinity"
    #: Prompt tokens of cache hit one outstanding request outweighs.
    LOAD_PENALTY_TOKENS = 512

    def __init__(self) -> None:
        self._sticky: Dict[tuple, EngineStepper] = {}

    @staticmethod
    def _session_key(request: Request) -> Optional[tuple]:
        if not request.prompt_segments:
            return None
        return tuple(request.prompt_segments[:2])

    def route(self, request: Request, replicas: Sequence[EngineStepper]) -> int:
        probes = [replica.cached_prefix_tokens(request) for replica in replicas]
        key = self._session_key(request)
        index = None
        if max(probes) > 0:
            index = min(range(len(replicas)),
                        key=lambda i: (-(probes[i] - self.LOAD_PENALTY_TOKENS
                                         * replicas[i].outstanding_requests), i))
        elif key in self._sticky:
            sticky = self._sticky[key]
            index = next((i for i, replica in enumerate(replicas)
                          if replica is sticky), None)
        if index is None:
            index = _least_outstanding(replicas)
        if key is not None:
            self._sticky[key] = replicas[index]
        return index


class DisaggregatedRouter(ShortestQueueRouter):
    """Router for prefill/decode-split clusters.

    ``route`` places *arrivals*: it sees only the prefill-capable replicas
    (roles ``prefill`` and ``mixed``) and picks the one owing the fewest
    pending prefill tokens — prompt work is what a prefill tier queues on —
    exactly the inherited shortest-queue rule.  ``route_decode`` places
    *migrations*: among the decode-role replicas it picks the least-loaded
    one (fewest outstanding requests, pending-token tiebreak), counting
    in-flight transfers already bound for a replica so a burst of
    simultaneous prefill completions cannot dogpile one target.  Outside a
    disaggregated cluster it is shortest-queue routing.
    """

    name = "disaggregated"

    def route_decode(self, request: Request,
                     replicas: Sequence[EngineStepper]) -> int:
        """Index of the decode replica a finished prefill should migrate to."""
        return min(range(len(replicas)),
                   key=lambda i: (replicas[i].outstanding_requests,
                                  replicas[i].pending_prefill_tokens, i))


class PrecisionAwareRouter(Router):
    """Route by precision tier in a heterogeneous mixed-precision fleet.

    Replicas are grouped by their system preset's
    :attr:`~repro.serving.precision.SystemConfig.min_precision_bits`.
    Requests carrying a quality floor (``precision_floor_bits > 0``) go to
    the replicas that satisfy it; short interactive requests (total work at
    most :attr:`INTERACTIVE_TOKENS` prompt+output tokens) go to the
    highest-precision group, whose replicas are also the fastest per token
    to first byte under light load in a mixed FP16 + W4A8KV4 fleet's
    latency tier; everything else — throughput traffic — lands on the
    lowest-precision (cheapest) group.  Within a group the least-outstanding
    replica wins, lowest index on ties.  On a homogeneous fleet every group
    is the whole fleet, so the router degrades to least-outstanding exactly.
    """

    name = "precision-aware"
    #: Largest prompt+output token total routed as interactive traffic.
    INTERACTIVE_TOKENS = 256

    def route(self, request: Request, replicas: Sequence[EngineStepper]) -> int:
        # Both host types expose their steppers; a multiplexed replica's
        # steppers all run on the replica's one system.
        bits = [replica.steppers[0].engine.system.min_precision_bits
                for replica in replicas]
        hi, lo = max(bits), min(bits)
        if hi == lo:
            group = range(len(replicas))
        elif request.precision_floor_bits > 0.0:
            group = [i for i in range(len(replicas))
                     if bits[i] >= request.precision_floor_bits]
            if not group:
                # No replica meets the floor; fail toward the best quality
                # available rather than refusing to route.
                group = [i for i in range(len(replicas)) if bits[i] == hi]
        elif request.prompt_len + request.output_len <= self.INTERACTIVE_TOKENS:
            group = [i for i in range(len(replicas)) if bits[i] == hi]
        else:
            group = [i for i in range(len(replicas)) if bits[i] == lo]
        return _least_outstanding(replicas, group)


class ModelAwareRouter(Router):
    """Route to a replica where the request's model is already warm.

    On a multiplexed fleet every candidate replica is scored as::

        swap_cost_s(model) + queue_cost_s * outstanding_requests

    A warm replica has zero swap cost, so warm replicas win unless their
    queues are deep enough that paying for a swap-in elsewhere is cheaper
    than waiting — the "least-loaded replica worth warming" fallback falls
    out of the same rule.  Ties break toward the lowest replica index.  On
    fleets whose replicas expose no residency manager (plain single-model
    replicas), the router degrades to least-outstanding exactly.
    """

    name = "model-aware"

    def route(self, request: Request, replicas: Sequence[EngineStepper]) -> int:
        if not hasattr(replicas[0], "swap_cost_s"):
            return _least_outstanding(replicas)
        model = replicas[0].resolve_model(request)
        queue_cost = replicas[0].queue_cost_s
        return min(
            range(len(replicas)),
            key=lambda i: (replicas[i].swap_cost_s(model)
                           + queue_cost * replicas[i].outstanding_requests,
                           i))


ROUTERS: Dict[str, Type[Router]] = {
    cls.name: cls
    for cls in (RoundRobinRouter, LeastOutstandingRouter, ShortestQueueRouter,
                PrefixAffinityRouter, DisaggregatedRouter,
                PrecisionAwareRouter, ModelAwareRouter)
}


def get_router(name: str) -> Router:
    """Instantiate a router by registry name."""
    try:
        return ROUTERS[name]()
    except KeyError:
        known = ", ".join(sorted(ROUTERS))
        raise KeyError(f"unknown router {name!r}; known: {known}") from None


# ----------------------------------------------------------------------
# Cluster result
# ----------------------------------------------------------------------
@dataclass
class ClusterResult:
    """Aggregate outcome of serving one workload on an N-replica cluster."""

    replica_results: List[ServingResult]
    #: Number of requests each replica was routed (arrivals; migrated
    #: requests stay attributed to the prefill replica that admitted them).
    requests_per_replica: List[int]
    #: Physical GPU-holding replicas the result slices come from; fewer
    #: than the slices when those are finer-grained than hardware
    #: (multiplexed runs slice by (replica, model)).
    physical_replicas: int
    #: Cluster-wide latency metrics (union of all replicas' finished requests).
    metrics: ServingMetrics = field(default_factory=ServingMetrics)
    #: Role of each replica ("prefill" / "decode" / "mixed").
    replica_roles: List[str] = field(default_factory=list)
    #: Migrated requests each replica *received* (all-zero without roles).
    migrations_per_replica: List[int] = field(default_factory=list)
    #: System preset name of each replica's engine; uniform for homogeneous
    #: clusters, mixed under per-replica ``systems``.
    replica_systems: List[str] = field(default_factory=list)
    #: What the autoscaler did, for autoscaled runs (``None`` otherwise).
    #: Autoscaled results list only the replica slots that were ever
    #: provisioned; the report's windows say *when* each one was.
    autoscale: Optional[AutoscaleReport] = None
    #: GPUs per replica (tensor-parallel degree); prices
    #: :attr:`gpu_seconds` for static fleets.
    gpus_per_replica: int = 1
    #: Residency and swap accounting of a multiplexed run (``None``
    #: otherwise).  Multiplexed runs list one result slice per
    #: (replica, model) pair; this report is indexed by physical replica.
    multiplex: Optional[MultiplexReport] = None

    @property
    def num_replicas(self) -> int:
        return len(self.replica_results)

    def _sum(self, attr: str) -> int:
        """Sum one numeric field across the per-replica results.

        The single summation point for every cluster-level additive gauge —
        the per-property ``sum(...)`` expressions this replaces had started
        to drift apart.
        """
        return sum(getattr(r, attr) for r in self.replica_results)

    def counters(self) -> CounterRegistry:
        """Cluster-wide counter registry: every replica's counters, summed.

        Run-level counters (pages allocated, admission scans, preemptions,
        prefix/speculation totals) merge exactly; capacity gauges sum to the
        cluster-wide capacity.  Workload-sliced quantities (``num_finished``
        etc.) stay on the properties below — in a disaggregated cluster a
        migrated request finishes on a *different* replica than the one its
        result slice is attributed to, so the two viewpoints differ by
        design.
        """
        merged = CounterRegistry()
        for result in self.replica_results:
            if result.counters is not None:
                merged.merge(result.counters)
        return merged

    @property
    def tracers(self) -> List[Tracer]:
        """The per-replica tracers of a telemetry-enabled run (else empty)."""
        return [r.telemetry for r in self.replica_results
                if r.telemetry is not None]

    def chrome_trace(self) -> Dict:
        """Merged Chrome trace of all replicas on the shared cluster clock."""
        tracers = self.tracers
        if not tracers:
            raise ValueError(
                "this run was not traced; pass telemetry=True to serve()")
        return chrome_trace(tracers)

    @property
    def num_migrations(self) -> int:
        """Prefill→decode handoffs performed during the run."""
        return sum(self.migrations_per_replica)

    @property
    def transfer_delay(self) -> LatencySummary:
        """Exposed KV-transfer delay percentiles over migrated requests."""
        return self.metrics.transfer_delay

    def role_utilization(self) -> Dict[str, float]:
        """Busy-time fraction of each role's replicas over the makespan.

        The quantity disaggregation tuning stares at: a prefill:decode ratio
        is right when neither role sits idle while the other saturates.
        A multiplexed replica's model slices share its one GPU timeline,
        so busy time is divided by the role's physical replicas.
        """
        roles, total = self.replica_roles, self.total_time_s
        out: Dict[str, float] = {}
        for role in sorted(set(roles)):
            members = [r for r, ro in zip(self.replica_results, roles)
                       if ro == role]
            busy = fold_sum(r.busy_time_s for r in members)
            replicas = len(members) * self.physical_replicas / self.num_replicas
            out[role] = 0.0 if total == 0 else busy / (replicas * total)
        return out

    @property
    def total_time_s(self) -> float:
        """Cluster makespan: the clock of the last replica to finish."""
        return max((r.total_time_s for r in self.replica_results), default=0.0)

    @property
    def generated_tokens(self) -> int:
        return self._sum("generated_tokens")

    @property
    def prompt_tokens(self) -> int:
        return self._sum("prompt_tokens")

    @property
    def num_finished(self) -> int:
        return self._sum("num_finished")

    @property
    def num_unserved(self) -> int:
        return self._sum("num_unserved")

    @property
    def num_dropped(self) -> int:
        """Requests shed by tier-aware admission (subset of unserved)."""
        return self._sum("num_dropped")

    @property
    def gpu_seconds(self) -> float:
        """Provisioned GPU-time: the fleet's cost over the run.

        A static fleet holds every replica for the whole makespan; an
        autoscaled fleet pays only for each slot's provisioned windows —
        the number a capacity plan compares the two on.
        """
        if self.autoscale is not None:
            return self.autoscale.gpu_seconds
        return (self.physical_replicas * self.gpus_per_replica
                * self.total_time_s)

    @property
    def num_preemptions(self) -> int:
        return self._sum("num_preemptions")

    @property
    def generation_throughput(self) -> float:
        """Cluster generated tokens per second over the makespan."""
        total = self.total_time_s
        return 0.0 if total == 0 else self.generated_tokens / total

    @property
    def saved_prefill_tokens(self) -> int:
        """Prefill tokens skipped via prefix-cache hits across all replicas."""
        return self._sum("saved_prefill_tokens")

    @property
    def acceptance_rate(self) -> float:
        """Cluster-wide draft-token acceptance rate (0 when speculation is off).

        Aggregated over the replicas that ran speculative decoding — in a
        disaggregated cluster, the decode tier.
        """
        proposed = sum(r.spec_stats.proposed_tokens for r in self.replica_results
                       if r.spec_stats is not None)
        accepted = sum(r.spec_stats.accepted_tokens for r in self.replica_results
                       if r.spec_stats is not None)
        return 0.0 if proposed == 0 else accepted / proposed

    @property
    def cache_hit_rate(self) -> float:
        """Cluster-wide prefix-cache token hit rate (0 when caching is off)."""
        hits = sum(r.prefix_stats.hit_tokens for r in self.replica_results
                   if r.prefix_stats is not None)
        misses = sum(r.prefix_stats.miss_tokens for r in self.replica_results
                     if r.prefix_stats is not None)
        total = hits + misses
        return 0.0 if total == 0 else hits / total

    def slo_goodput(self, ttft_slo_s: float, tpot_slo_s: float) -> float:
        """Cluster requests per second completed within the latency SLO."""
        return self.metrics.slo_goodput(ttft_slo_s, tpot_slo_s,
                                        self.total_time_s)

    def to_json(self) -> Dict:
        """Structured (JSON-serializable) export of the cluster run.

        Cluster-level aggregates plus the full per-replica
        :meth:`~repro.serving.engine.ServingResult.to_json` payloads and the
        merged counter registry.
        """
        return {
            "num_replicas": self.num_replicas,
            "total_time_s": self.total_time_s,
            "generated_tokens": self.generated_tokens,
            "prompt_tokens": self.prompt_tokens,
            "num_finished": self.num_finished,
            "num_unserved": self.num_unserved,
            "num_dropped": self.num_dropped,
            "num_preemptions": self.num_preemptions,
            "num_migrations": self.num_migrations,
            "gpu_seconds": self.gpu_seconds,
            "autoscale": (None if self.autoscale is None
                          else self.autoscale.to_json()),
            "multiplex": (None if self.multiplex is None
                          else self.multiplex.to_json()),
            "generation_throughput": self.generation_throughput,
            "saved_prefill_tokens": self.saved_prefill_tokens,
            "acceptance_rate": self.acceptance_rate,
            "cache_hit_rate": self.cache_hit_rate,
            "requests_per_replica": list(self.requests_per_replica),
            "migrations_per_replica": list(self.migrations_per_replica),
            "replica_roles": list(self.replica_roles),
            "replica_systems": list(self.replica_systems),
            "role_utilization": self.role_utilization(),
            "metrics": self.metrics.to_json(),
            "counters": self.counters().as_dict(),
            "replica_results": [r.to_json() for r in self.replica_results],
        }


# ----------------------------------------------------------------------
# Multiplexed replica
# ----------------------------------------------------------------------
class _MultiplexReplica:
    """One physical replica hosting several models behind one GPU clock.

    Holds one :class:`EngineStepper` per servable model plus the replica's
    :class:`~repro.serving.multiplex.ModelResidency`.  The steppers share
    the accelerator: this wrapper serializes them on a single timeline —
    at any instant at most one model's iteration (or weight swap-in)
    occupies the GPU — while each stepper keeps its own scheduler, KV pool
    and model-namespaced prefix cache, all carved statically by the
    residency manager.  It offers the cluster loop the same host interface
    as a plain :class:`EngineStepper`.
    """

    def __init__(self, config: MultiplexConfig,
                 steppers: List[EngineStepper],
                 residency: ModelResidency) -> None:
        self.config = config
        self.steppers = steppers
        self.by_model: Dict[str, EngineStepper] = {
            stepper.model_name: stepper for stepper in steppers}
        self.residency = residency
        # Fleet counter merges must count each swap once: the residency
        # manager reports through this replica's first stepper only.
        steppers[0].residency = residency
        #: Serialized GPU frontier: the time up to which the accelerator
        #: is committed (iterations and swap windows of *any* model).
        self.now = 0.0

    # -- router-facing views -------------------------------------------
    @property
    def outstanding_requests(self) -> int:
        return sum(s.outstanding_requests for s in self.steppers)

    @property
    def pending_prefill_tokens(self) -> int:
        return sum(s.pending_prefill_tokens for s in self.steppers)

    def cached_prefix_tokens(self, request: Request) -> int:
        return self.stepper_for(request).cached_prefix_tokens(request)

    @property
    def queue_cost_s(self) -> float:
        return self.config.queue_cost_s

    def resolve_model(self, request: Request) -> str:
        """The model this request runs on (fleet default when untagged)."""
        model = (request.model if request.model is not None
                 else self.config.default_model)
        if model not in self.by_model:
            raise ValueError(
                f"request {request.request_id} targets model {model!r}, "
                f"not in this fleet's multiplex set "
                f"{sorted(self.by_model)}")
        return model

    def swap_cost_s(self, model: str) -> float:
        return self.residency.swap_cost_s(model)

    # -- host interface -------------------------------------------------
    def stepper_for(self, request: Request) -> EngineStepper:
        """The stepper serving ``request``'s model on this replica."""
        return self.by_model[self.resolve_model(request)]

    def sync_clock(self, t: float) -> None:
        """Hold the whole replica idle until ``t`` (never backwards)."""
        self.now = max(self.now, t)
        for stepper in self.steppers:
            stepper.sync_clock(t)

    def stable_until(self) -> float:
        """The least of the steppers' :meth:`EngineStepper.stable_until`.

        Until then every turn only coasts.  A stepper with ready or running
        work bounds at its own clock, so no model that could take the GPU
        before an event is left behind."""
        return min(stepper.stable_until() for stepper in self.steppers)

    def submit(self, request: Request) -> None:
        """Queue ``request`` on its model's stepper, swapping in if cold.

        A cold model pays its weight transfer as a replica-busy window on
        the shared clock — priced exactly like an autoscaler cold start —
        before the stepper may run an iteration for it.  The window opens
        no earlier than the request is available (a migrated request's KV
        transfer lands first).
        """
        stepper = self.stepper_for(request)
        cost = self.residency.ensure_resident(stepper.model_name)
        if cost > 0.0:
            stepper.sync_clock(max(self.now, request.available_time))
            t0 = stepper.charge_busy(cost)
            self.now = stepper.now
            if stepper.tracer is not None:
                stepper.tracer.model_swap(stepper.model_name, t0, stepper.now)
        stepper.submit(request)

    def run_until(self, t: float) -> bool:
        """Advance the serialized timeline until no stepper can start < ``t``.

        Each turn hands the GPU to the stepper able to start soonest — its
        own ready time, but never before the replica's committed frontier;
        ties go to the lowest model index — for one
        :meth:`EngineStepper.run_until` call, so a multiplexed replica
        coasts like any other host.  The call runs until the start of a
        lower-index sibling, which takes the GPU then; its idle jumps stop
        at every sibling's start, since a higher-index sibling takes the
        GPU once this stepper idles past it.  Returns whether any stepper
        progressed.
        """
        progressed = False
        stuck: set = set()
        while True:
            starts = []
            for j, stepper in enumerate(self.steppers):
                ready = None if j in stuck else stepper.next_ready_time()
                if ready is not None:
                    starts.append((max(self.now, ready), j))
            if not starts or min(starts)[0] >= t:
                return progressed
            start, j = min(starts)
            until = min([t] + [s for s, k in starts if k < j])
            horizon = min([until] + [s for s, k in starts if k > j])
            stepper = self.steppers[j]
            stepper.sync_clock(start)
            if stepper.run_until(until, horizon):
                self.now = max(self.now, stepper.now)
                progressed = True
            else:
                # No admissible work on this model before the horizon (or
                # ever); stop re-polling it this pass.
                stuck.add(j)


#: What the cluster loop drives in one replica slot.
_Host = Union[EngineStepper, _MultiplexReplica]


# ----------------------------------------------------------------------
# Cluster engine
# ----------------------------------------------------------------------
class ClusterEngine:
    """N replica engines behind a pluggable router, on one event loop.

    By default every replica shares the same (model, GPU, system, parallel)
    engine — the cost model is stateless — but owns its scheduler, KV cache
    and clock.  Replicas are independent once requests are assigned, so the
    shared-clock simulation only has to synchronise at events: before each
    routing, migration or scaling decision the live replicas advance to the
    event instant — for a routing decision, only those whose queue state
    could change before it — giving the decision an honest view of queue
    depths then.

    ``systems`` makes the fleet *heterogeneous*: one system preset (name or
    :class:`~repro.serving.precision.SystemConfig`) per replica, so an FP16
    latency tier and a W4A8KV4 throughput tier serve behind one router.
    Replicas with an equal preset share one engine (and its cost-model
    cache); passing a uniform ``systems`` list equal to ``system`` is
    bitwise-identical to omitting it.  Precision changes a replica's page
    geometry (KV bytes per token → KV capacity in pages), its kernel costs,
    and — for migrations between tiers — the transfer payload: KV bytes are
    priced at the *source* replica's KV precision, and landing on a replica
    with a different KV bit-width additionally pays that replica's
    transcode (dequant/requant) cost for the cold tokens.

    ``roles`` turns on disaggregated serving: one role per replica, from
    :data:`REPLICA_ROLES`.  ``prefill`` replicas export each request the
    moment its prefill completes; the request's KV state is transferred over
    ``transfer_link`` to a ``decode`` replica, which adopts the pages and
    generates every output token.  ``mixed`` replicas (the default when
    ``roles`` is omitted) serve requests end to end exactly as before.  With
    ``transfer_overlap`` (layer-by-layer streaming, DistServe-style) the
    transfer hides behind one decode iteration's worth of time and only the
    remainder — floored at the link's message latency — is exposed as delay.
    """

    def __init__(self, model: ModelConfig, gpu: GPUSpec, system: SystemConfig,
                 num_replicas: int, max_seq_len: int = 2048,
                 parallel: Optional[ParallelConfig] = None,
                 roles: Optional[Sequence[str]] = None,
                 transfer_link: InterconnectSpec = NVLINK,
                 transfer_overlap: bool = True,
                 systems: Optional[Sequence[Union[str, SystemConfig]]] = None
                 ) -> None:
        check_positive_int("num_replicas", num_replicas)
        if systems is not None and len(systems) != num_replicas:
            raise ValueError(
                f"systems has {len(systems)} entries for "
                f"{num_replicas} replicas")
        self.num_replicas = num_replicas
        self._gpu, self._max_seq_len, self._parallel = gpu, max_seq_len, parallel
        self._engines: Dict[Tuple[ModelConfig, SystemConfig],
                            ServingEngine] = {}
        self.engine = self._engine(model, system)
        self.engines: List[ServingEngine] = [
            self._engine(model, get_system(s) if isinstance(s, str) else s)
            for s in systems or [system] * num_replicas]
        self.roles = list(roles) if roles is not None else \
            ["mixed"] * num_replicas
        if len(self.roles) != num_replicas:
            raise ValueError(
                f"roles has {len(self.roles)} entries for "
                f"{num_replicas} replicas")
        unknown = sorted(set(self.roles) - set(REPLICA_ROLES))
        if unknown:
            raise ValueError(f"unknown replica roles {unknown}; "
                             f"valid: {', '.join(REPLICA_ROLES)}")
        if self.disaggregated:
            if not any(r in ("prefill", "mixed") for r in self.roles):
                raise ValueError(
                    "disaggregated cluster has no prefill-capable replica")
            if "prefill" in self.roles and "decode" not in self.roles:
                raise ValueError(
                    "prefill-role replicas need at least one decode replica "
                    "to migrate to")
            if "decode" in self.roles and "prefill" not in self.roles:
                # Only prefill-role replicas export; mixed replicas serve
                # end to end, so a decode replica without a prefill feeder
                # would idle for the whole run.
                raise ValueError(
                    "decode-role replicas need at least one prefill replica "
                    "to receive migrations from")
        self.transfer_link = transfer_link
        self.transfer_overlap = transfer_overlap

    def _engine(self, model: ModelConfig, system: SystemConfig
                ) -> ServingEngine:
        """The cluster's one engine running ``model`` under ``system``.

        Every replica slot and every multiplexed model asks this table, so
        equal (model, system) pairs share one engine and its cost-model
        cache across slots and ``serve()`` calls.  Keys are values: two
        configs that only share a name get different engines.
        """
        engine = self._engines.get((model, system))
        if engine is None:
            engine = self._engines[model, system] = ServingEngine(
                model, self._gpu, system, max_seq_len=self._max_seq_len,
                parallel=self._parallel)
        return engine

    @property
    def disaggregated(self) -> bool:
        """Whether any replica is role-specialised (prefill or decode)."""
        return any(role != "mixed" for role in self.roles)

    @property
    def heterogeneous(self) -> bool:
        """Whether replicas run under more than one system preset."""
        return len({engine.system for engine in self.engines}) > 1

    @property
    def total_gpus(self) -> int:
        """GPUs across the whole cluster (replicas x TP degree)."""
        return self.num_replicas * self.engine.tp_degree

    def serve(self, workload: Workload,
              router: Union[str, Router] = "least-outstanding",
              max_num_seqs: Optional[int] = None,
              scheduling: Optional[SchedulingConfig] = None,
              speculative: Optional[SpeculativeConfig] = None,
              telemetry: Union[None, bool, TelemetryConfig] = None,
              autoscaler: Optional[AutoscalerConfig] = None,
              multiplex: Optional[MultiplexConfig] = None
              ) -> ClusterResult:
        """Serve ``workload`` across the cluster and aggregate the results.

        ``router`` is a registry name or a :class:`Router` instance (fresh
        instances keep round-robin state per run).  ``max_num_seqs`` and
        ``scheduling`` apply per replica, exactly as in
        :meth:`ServingEngine.serve`.  ``speculative`` enables speculative
        decoding on every decode-capable replica (``decode`` and ``mixed``
        roles; prefill-role replicas never decode, so they keep their full
        KV budget instead of hosting a draft model).  In a disaggregated
        cluster the router sees only the prefill-capable replicas; migration
        targets are picked by :meth:`DisaggregatedRouter.route_decode`
        (least-loaded fallback for routers without one).  ``telemetry``
        attaches one :class:`~repro.serving.telemetry.Tracer` per replica,
        all on the shared cluster clock; merge them with
        :meth:`ClusterResult.chrome_trace`.

        ``autoscaler`` turns the fixed fleet into a reactive one:
        ``num_replicas`` becomes the replica *pool* and the
        :class:`~repro.serving.autoscaler.AutoscalerConfig` decides, every
        ``interval_s`` on the shared clock, how many of its slots are
        provisioned.  A scale-up at ``t`` provisions the lowest stopped
        slot, which serves from ``t + cold_start_s`` — its window (and GPU
        bill) starts at ``t``, when the GPU is held to load weights.  A
        scale-down drains the least-loaded serving replica: decoding
        requests move to the remaining replicas with their KV state priced
        on the wire (exactly a prefill→decode handoff), prefilling ones are
        recomputed elsewhere, and the waiting queue is rerouted.  Ticks
        continue after the last arrival so the fleet also scales down
        through the drain tail.

        ``multiplex`` turns every replica into a multi-model host: a
        :class:`~repro.serving.multiplex.MultiplexConfig` names the model
        set, how many may hold weights in HBM at once, and the host link
        swap-ins are priced over.  Each replica serializes its models on
        one GPU timeline; routing sees whole replicas (pass
        ``router="model-aware"`` for warm-first placement) and the result
        carries one slice per (replica, model) plus a
        :class:`~repro.serving.multiplex.MultiplexReport`.  Multiplexing
        composes with autoscaling, role-specialised replicas and per-replica
        ``systems`` (each replica runs every model under its own system);
        only roles exclude autoscaling.

        All of these run on one event loop, :class:`_Fleet`, over per-slot
        replica hosts (an :class:`EngineStepper`, or a multiplexed replica
        serializing one stepper per model) with one method per event.  Each
        slot is ``stopped``, ``starting`` or ``active``; without an
        autoscaler every slot is active from t=0.  Three event kinds
        interleave in time order, ties resolved handoff < arrival < tick:
        prefill completions waiting to migrate, workload arrivals (routed
        among the active prefill-capable slots) and autoscaler ticks.  Each
        turn advances the hosts toward the next arrival or tick ``t`` —
        prefill-role hosts to ``t``, every other host no further than the
        earliest pending handoff, and for an arrival other than the last
        (or a handoff before it) only the hosts it can observe (see
        :meth:`_Fleet.advance`) — and handles one event.  A tick with no
        arrival left, no slot starting and no host stepped ends the ticking;
        the loop stops once no event is left, after every host has run as
        far as it can.
        """
        if isinstance(router, str):
            router = get_router(router)
        if self.disaggregated and autoscaler is not None:
            raise ValueError(
                "autoscaling and role-specialised replicas are mutually "
                "exclusive; use mixed roles")
        scaler = None
        if autoscaler is not None:
            max_replicas = (self.num_replicas if autoscaler.max_replicas is None
                            else autoscaler.max_replicas)
            if max_replicas > self.num_replicas:
                raise ValueError(
                    f"max_replicas={max_replicas} exceeds the replica pool "
                    f"(num_replicas={self.num_replicas})")
            scaler = ReactiveAutoscaler(autoscaler, max_replicas)
        fleet = _Fleet(self, router, scheduling, max_num_seqs, speculative,
                       resolve_telemetry(telemetry, allow_tracer=False),
                       scaler, multiplex)
        fleet.run(workload.requests)
        return fleet.result()

    # ------------------------------------------------------------------
    # KV migration
    # ------------------------------------------------------------------
    def transfer_delay(self, request: Request, cached_tokens: int = 0,
                       source: Optional[ServingEngine] = None,
                       target: Optional[ServingEngine] = None) -> float:
        """Exposed delay of shipping ``request``'s KV state to a decode replica.

        The payload is the KV bytes of the prompt's context minus
        ``cached_tokens`` the target replica already holds in its prefix
        cache (those blocks need no transfer).  It crosses ``transfer_link``
        as one point-to-point message; with ``transfer_overlap`` the
        layer-by-layer stream hides behind one decode iteration at the
        request's context length and only the remainder — never less than
        the link's message latency — is exposed on the critical path.

        In a heterogeneous fleet ``source``/``target`` name the two
        replicas' engines (both default to the cluster's base engine): the
        wire payload is priced at the *source* engine's KV precision —
        that is what the exporter holds — and when the two tiers store KV
        at different bit-widths the landing replica additionally pays its
        transcode cost to rewrite the cold tokens into its own format
        before decode can touch them.
        """
        src = self.engine if source is None else source
        dst = self.engine if target is None else target
        cold_tokens = max(0, request.context_len - cached_tokens)
        raw = self.transfer_link.transfer_latency(
            src.kv_bytes_per_token() * cold_tokens)
        if src.system.kv_bits != dst.system.kv_bits:
            raw += dst.kv_transcode_latency(cold_tokens, src.system)
        if not self.transfer_overlap:
            return raw
        overlap = dst.mixed_step((), 1, request.context_len).total
        return max(self.transfer_link.latency_s, raw - overlap)

    def _migrate(self, request: Request, source: EngineStepper,
                 target: _Host, now: float) -> EngineStepper:
        """Move an exported request's KV state from ``source`` to ``target``.

        Shared by prefill→decode handoffs and autoscaler drains.  The
        request is submitted with ``migration_ready_time`` set to ``now``
        plus the exposed transfer delay, so the target admits it no earlier
        (the transfer occupies the interconnect, not the GPU, so other
        work proceeds meanwhile).  Returns the receiving stepper.
        """
        stepper = target.stepper_for(request)
        # Pinning the target's matched prefix keeps the priced payload
        # honest: the credited blocks cannot be evicted mid-transfer.
        delay = self.transfer_delay(
            request, stepper.pin_for_import(request),
            source=source.engine, target=stepper.engine)
        if request.demoted_hit_tokens:
            # The pinned prefix includes blocks the target had demoted to
            # the 4-bit tier; they are restored before decode adopts them,
            # and the restore rides the transfer window.
            delay += stepper.engine.kv_dequant_latency(
                request.demoted_hit_tokens)
            request.demoted_hit_tokens = 0
        request.migrations += 1
        request.transfer_delay_s += delay
        request.migration_ready_time = now + delay
        if stepper.tracer is not None:
            # The transfer occupies the interconnect toward the target
            # replica for its exposed window; the span lands on the
            # target's timeline, where the request decodes next.
            stepper.tracer.transfer(request, now, now + delay)
        target.submit(request)
        return stepper


# ----------------------------------------------------------------------
# Cluster event loop
# ----------------------------------------------------------------------
@dataclass(eq=False)
class _Fleet:
    """One :meth:`ClusterEngine.serve` run: its replica slots and event loop.

    Slot ``s`` is described by four parallel lists: ``hosts[s]`` (built on
    first provision), ``state[s]`` (``"stopped"``, ``"starting"`` or
    ``"active"``), ``ready_at[s]`` (when its cold start ends) and
    ``windows[s]`` (its provisioned ``[start, end]`` windows).  Three dicts
    keyed by stepper hold the arrivals routed to it (``assigned``), the
    migrations it received (``migrations_in``) and how many of its finished
    requests the autoscaler has seen (``seen_finished``).  Prefill-role
    hosts are the ``exporters``; the finished prefills they park wait on
    the ``handoffs`` heap.  Each event kind has one method: :meth:`route`
    (arrival), :meth:`hand_off` (handoff) and :meth:`tick`, which may
    :meth:`provision` or :meth:`drain` a slot; :meth:`advance` runs the
    hosts toward each event and :meth:`run` is the loop.

    The views the loop reads on every event list hosts in slot order,
    since routers break ties by index; :meth:`_set_state` rebuilds them
    when a slot is provisioned, becomes active or is drained.
    """

    cluster: ClusterEngine
    router: Router
    scheduling: Optional[SchedulingConfig]
    max_num_seqs: Optional[int]
    speculative: Optional[SpeculativeConfig]
    tracing: Optional[TelemetryConfig]
    scaler: Optional[ReactiveAutoscaler]
    multiplex: Optional[MultiplexConfig]

    def __post_init__(self) -> None:
        pool = self.cluster.num_replicas
        self.decode_router = (self.router if isinstance(
            self.router, DisaggregatedRouter) else DisaggregatedRouter())
        self.hosts: List[Optional[_Host]] = [None] * pool
        self.state = ["stopped"] * pool
        self.ready_at = [0.0] * pool
        self.windows: List[List[List[float]]] = [[] for _ in range(pool)]
        self.assigned: Dict[EngineStepper, List[Request]] = defaultdict(list)
        self.migrations_in: Dict[EngineStepper, int] = defaultdict(int)
        self.seen_finished: Dict[EngineStepper, int] = defaultdict(int)
        for slot in range(pool if self.scaler is None
                          else self.scaler.config.min_replicas):
            self.provision(slot, 0.0, 0.0)  # the initial fleet is pre-warmed
        #: (prefill completion time, tiebreak, source stepper, request) —
        #: min-heap of finished prefills awaiting migration routing.  The
        #: source prices the transfer payload at the exporter's KV
        #: precision in a heterogeneous fleet.
        self.handoffs: List[Tuple[float, int, EngineStepper, Request]] = []
        self.tiebreak = itertools.count()

    def build(self, slot: int) -> _Host:
        """This run's replica host for ``slot``.

        A slot runs one stepper per model on :meth:`ClusterEngine._engine`
        under the slot's own system: the base model alone on a plain
        replica, every model of ``multiplex`` on a multiplexed one.  A
        multiplexed replica also owns a
        :class:`~repro.serving.multiplex.ModelResidency` whose static carve,
        sized from those engines, sets its per-model KV pools.  Traced runs
        give every stepper its own trace process: ``replica<i>`` (plain) or
        ``replica<i>/<model>`` (multiplexed), suffixed with a non-mixed role.
        """
        cluster, multiplex = self.cluster, self.multiplex
        models = ((cluster.engine.model,) if multiplex is None
                  else multiplex.models)
        role = cluster.roles[slot]
        suffix = "" if role == "mixed" else f" ({role})"
        engines = [cluster._engine(model, cluster.engines[slot].system)
                   for model in models]
        residency = None if multiplex is None else ModelResidency(
            multiplex, cluster.engine.gpu,
            {e.model.name: e.weight_bytes() for e in engines},
            {e.model.name: e.workspace_bytes_per_gpu() * e.tp_degree
             for e in engines},
            tp_degree=cluster.engine.tp_degree)
        steppers = []
        for j, engine in enumerate(engines):
            name = None if multiplex is None else engine.model.name
            label = f"replica{slot}" + ("" if name is None else f"/{name}")
            steppers.append(EngineStepper(
                engine, scheduling=self.scheduling,
                max_num_seqs=self.max_num_seqs,
                migrate_out=(role == "prefill"),
                speculative=None if role == "prefill" else self.speculative,
                telemetry=None if self.tracing is None else Tracer(
                    self.tracing, replica_index=slot * len(models) + j,
                    replica_name=label + suffix),
                model_name=name,
                kv_capacity_bytes=(None if residency is None
                                   else residency.kv_pool_bytes())))
        return (steppers[0] if residency is None
                else _MultiplexReplica(multiplex, steppers, residency))

    def _set_state(self, slot: int, status: str) -> None:
        """Move ``slot`` to ``status`` and rebuild the slot-ordered views:
        the live hosts :meth:`advance` runs, prefill-role ones (the
        exporters) first, the starting and active slots, and the active
        hosts arrivals and handoffs are routed among."""
        self.state[slot] = status
        roles, hosts = self.cluster.roles, self.hosts
        live = [s for s, st in enumerate(self.state) if st != "stopped"]
        # Prefill-role replicas park finished prefills in their outboxes.
        self.exporters = [hosts[s] for s in live if roles[s] == "prefill"]
        self.followers = [hosts[s] for s in live if roles[s] != "prefill"]
        self.starting = [s for s in live if self.state[s] == "starting"]
        self.active = active = [s for s in live if self.state[s] == "active"]
        self.arrival_hosts = [hosts[s] for s in active if roles[s] != "decode"]
        self.decode_hosts = [hosts[s] for s in active if roles[s] == "decode"]

    def provision(self, slot: int, start: float, ready: float) -> None:
        """Open a window on ``slot`` at ``start``; it serves from ``ready``."""
        if self.hosts[slot] is None:
            self.hosts[slot] = self.build(slot)
        # A replica cannot run before its weights land; a reactivated
        # slot also never rewinds its own clock.
        self.hosts[slot].sync_clock(ready)
        self.ready_at[slot] = ready
        self.windows[slot].append([start, None])
        self._set_state(slot, "active" if ready <= start else "starting")

    def drain(self, slot: int, now: float) -> None:
        """Empty ``slot`` into the other active slots and stop it."""
        hosts = self.hosts
        targets = [s for s in self.active if s != slot]
        for stepper in hosts[slot].steppers:
            exported, waiting = stepper.evacuate(now)
            for request in exported:
                target = hosts[_least_outstanding(hosts, targets)]
                self.migrations_in[self.cluster._migrate(
                    request, stepper, target, now)] += 1
            for request in waiting:
                hosts[_least_outstanding(hosts, targets)].submit(request)
        self._set_state(slot, "stopped")
        self.windows[slot][-1][1] = now

    def tick(self, now: float) -> None:
        """Show the autoscaler the fleet at ``now`` and apply its decision."""
        config, hosts, active = self.scaler.config, self.hosts, self.active
        steppers = [st for s in active for st in hosts[s].steppers]
        recent = [r for st in steppers
                  for r in st.scheduler.finished[self.seen_finished[st]:]]
        for stepper in steppers:
            self.seen_finished[stepper] = len(stepper.scheduler.finished)
        slo = config.ttft_slo_s
        recent_ok = sum(1 for r in recent if slo is None
                        or r.first_token_time - r.arrival_time <= slo)
        decision = self.scaler.decide(FleetSnapshot(
            now=now, num_active=len(active), num_starting=len(self.starting),
            queue_depth=sum(st.scheduler.num_waiting for st in steppers),
            outstanding=sum(hosts[s].outstanding_requests for s in active),
            recent_finished=len(recent), recent_slo_ok=recent_ok))
        if decision is None:
            return
        action, reason = decision
        if action == "up":
            slot = self.state.index("stopped")
            self.provision(slot, now, now + config.cold_start_s(
                self.cluster.engines[slot].weight_bytes()))
        else:
            slot = min(active, key=lambda s: (hosts[s].outstanding_requests, -s))
            self.drain(slot, now)
        self.scaler.commit(ScalingEvent(now, action, slot, len(self.active),
                                        reason))

    def advance(self, t: float, lazy: bool = False) -> bool:
        """Run the live hosts toward ``t``; whether any host stepped.

        Prefill-role hosts receive only arrivals, so they run to ``t`` and
        their handoffs are collected first; every other host then stops at
        the earliest handoff still to route, which may land work on it.

        ``lazy`` runs only the hosts an arrival or a handoff can observe:
        those whose ``stable_until()`` is before ``t``, a bound each
        stepper's last coast recorded (a multiplexed replica's is the least
        of its steppers').  Any other host would only coast, which changes
        none of the views a router reads, so it stays behind and coasts the
        same iterations when a later event runs it (:meth:`route` and
        :meth:`hand_off` run the chosen one first).  Prefill-role hosts
        never decode, so their bound is their clock or ``inf``; they run
        to ``t`` either way.  Starting slots whose cold start has ended
        still become active.
        """
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
            # A host whose clock is at ``t`` already would do nothing.
            if lazy and (host.now >= t or host.stable_until() >= t):
                continue
            progressed = host.run_until(horizon) or progressed
        for slot in [s for s in self.starting if self.ready_at[s] <= t]:
            self._set_state(slot, "active")
        return progressed

    def route(self, request: Request) -> None:
        """Dispatch an arrival to the host the router picks.

        A host a lazy :meth:`advance` left behind (its clock before the
        arrival, its bound at or after it) coasts to the arrival before it
        receives the request."""
        host = self.arrival_hosts[self.router.route(request,
                                                    self.arrival_hosts)]
        arrival = request.arrival_time
        if host.now < arrival <= host.stable_until():
            host.run_until(arrival)
        self.assigned[host.stepper_for(request)].append(request)
        host.submit(request)

    def hand_off(self) -> None:
        """Migrate the earliest finished prefill to a decode host.

        Like :meth:`route`, it first coasts a host a lazy :meth:`advance`
        left behind to the prefill's completion."""
        done_time, _, source, request = heapq.heappop(self.handoffs)
        target = self.decode_hosts[self.decode_router.route_decode(
            request, self.decode_hosts)]
        if target.now < done_time <= target.stable_until():
            target.run_until(done_time)
        self.migrations_in[self.cluster._migrate(request, source, target,
                                                 done_time)] += 1

    def run(self, requests: Iterable[Request]) -> None:
        """The event loop: one event per turn, handoff < arrival < tick.

        Each turn first advances the hosts toward the event: lazily for an
        arrival other than the last, or a handoff before it, on every fleet
        shape; every host for a tick, the last arrival and the final drain.
        """
        arrivals = sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
        # Arrivals before ``lazy_end`` advance lazily.  The last one does
        # not: after it the stop rule reads ``progressed``, so from there on
        # every host runs to every event.
        pos, lazy_end = 0, len(arrivals) - 1
        next_tick = interval = (math.inf if self.scaler is None
                                else self.scaler.config.interval_s)
        while True:
            next_arrival = (arrivals[pos].arrival_time
                            if pos < len(arrivals) else math.inf)
            t = min(next_arrival, next_tick)
            # Read before advancing: a slot whose cold start ends by ``t``
            # still keeps this tick from being the last.
            starting = bool(self.starting)
            progressed = self.advance(t, next_arrival == t and pos < lazy_end)
            if self.handoffs and self.handoffs[0][0] <= t:
                self.hand_off()
            elif t == math.inf:
                break  # every host has drained as far as it can
            elif next_arrival == t:
                self.route(arrivals[pos])
                pos += 1
            elif pos == len(arrivals) and not starting and not progressed:
                # A tick without an arrival, a cold start or a step: stop
                # ticking and let the next turn drain every host.  A host
                # whose last iteration or swap-in ran past ``t`` still has
                # work, so this must not end the run.
                next_tick = math.inf
            else:
                next_tick += interval
                self.tick(t)

    def result(self) -> ClusterResult:
        """Aggregate the run over every slot that was ever provisioned."""
        cluster, hosts, assigned = self.cluster, self.hosts, self.assigned
        used = [s for s, host in enumerate(hosts) if host is not None]
        steppers = [st for s in used for st in hosts[s].steppers]
        report = None
        if self.scaler is not None:
            makespan = max(st.now for st in steppers)
            for s in used:
                window = self.windows[s][-1]
                if window[1] is None:
                    window[1] = max(window[0], makespan)
            report = AutoscaleReport(
                events=self.scaler.events,
                windows=[[tuple(w) for w in self.windows[s]] for s in used],
                cold_start_s=self.scaler.config.cold_start_s(
                    cluster.engine.weight_bytes()),
                gpus_per_replica=cluster.engine.tp_degree, makespan_s=makespan)
        results = [st.result(Workload(requests=assigned[st]))
                   for st in steppers]
        return ClusterResult(
            replica_results=results,
            requests_per_replica=[len(assigned[st]) for st in steppers],
            physical_replicas=len(used),
            metrics=ServingMetrics(
                requests=[m for r in results if r.metrics is not None
                          for m in r.metrics.requests]),
            replica_roles=[cluster.roles[s] for s in used
                           for _ in hosts[s].steppers],
            migrations_per_replica=[self.migrations_in[st] for st in steppers],
            replica_systems=[st.engine.system.name for st in steppers],
            autoscale=report, gpus_per_replica=cluster.engine.tp_degree,
            multiplex=None if self.multiplex is None else MultiplexReport(
                replicas=[hosts[s].residency.snapshot() for s in used],
                requests_by_model={
                    m.name: sum(len(assigned[hosts[s].by_model[m.name]])
                                for s in used)
                    for m in self.multiplex.models}))
