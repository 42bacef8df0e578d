"""Reactive replica autoscaling for the cluster simulator.

Production serving fleets are not fixed-size: a deployment provisions
replicas against the *current* load and pays for what it keeps warm.  This
module models the reactive tier of that control loop — the part a
Kubernetes HPA or an in-house fleet controller implements — on the
simulator's shared cluster clock:

* :class:`AutoscalerConfig` declares the policy: fleet bounds, the
  evaluation ``interval_s``, the scale-up signals (queue depth per replica,
  optionally recent TTFT SLO attainment), the scale-down idleness test, and
  the up/down cooldowns that give the loop hysteresis so one burst does not
  make the fleet flap.
* :class:`ReactiveAutoscaler` is the decision procedure: a pure function of
  the :class:`FleetSnapshot` observed at each tick plus the cooldown
  clocks, emitting at most one action per tick.
* Cold start is *priced*, not free: a scale-up decision at ``t`` yields a
  replica that starts serving at ``t + cold_start_s`` where the dominant
  term is shipping the model weights across the host link
  (:attr:`AutoscalerConfig.host_link`, PCIe by default — weights come from
  host memory or local cache, not over NVLink).
* :class:`AutoscaleReport` records what happened — every
  :class:`ScalingEvent` and each replica slot's active windows — and turns
  the windows into the cost metric capacity planning compares on:
  GPU-seconds actually provisioned, versus a static fleet's
  ``replicas x makespan``.

The cluster integration lives in
:meth:`repro.serving.cluster.ClusterEngine.serve` (``autoscaler=`` keyword):
scale-down drains a replica through the same migration machinery as
disaggregated serving, so in-flight decodes move with their KV state priced
on the wire instead of being killed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.gpu.specs import InterconnectSpec, PCIE_GEN4
from repro.serving.metrics import fold_sum

__all__ = [
    "weight_transfer_s",
    "AutoscalerConfig",
    "FleetSnapshot",
    "ScalingEvent",
    "ReactiveAutoscaler",
    "AutoscaleReport",
]


def weight_transfer_s(weight_bytes: float, host_link: InterconnectSpec,
                      provision_s: float = 0.0) -> float:
    """Seconds to bring a model's weights onto a replica over ``host_link``.

    ``provision_s`` of fixed bring-up plus the time to ship ``weight_bytes``
    across the host link.  For a tensor-parallel replica pass the whole
    model's bytes; the shards load in parallel but each GPU's share crosses
    the same host link its neighbours contend on, so the full-model transfer
    time is the honest lower bound.

    This is the single pricing formula for every "weights move onto a GPU"
    event in the simulator: autoscaler cold starts
    (:meth:`AutoscalerConfig.cold_start_s`) and multi-model residency
    swap-ins (:class:`repro.serving.multiplex.ModelResidency`) both charge
    exactly this.
    """
    return provision_s + host_link.transfer_latency(weight_bytes)


@dataclass(frozen=True)
class AutoscalerConfig:
    """Policy knobs of the reactive autoscaler.

    The fleet scales between ``min_replicas`` and ``max_replicas`` (the
    cluster's replica pool size when ``None``).  Every ``interval_s`` the
    controller takes a :class:`FleetSnapshot` and applies, in order:

    * **scale up** when the fleet-wide waiting-queue depth exceeds
      ``scale_up_queue_depth`` requests per provisioned replica, or — with
      ``ttft_slo_s`` set — when fewer than ``slo_floor`` of the requests
      finished since the last tick met their TTFT SLO (given at least
      ``slo_min_samples`` of them, so one slow request cannot trigger a
      replica).
    * **scale down** when nothing is queued, the outstanding work would fit
      on the remaining replicas at ``scale_down_outstanding`` requests each,
      and no replica is still provisioning.

    ``up_cooldown_s`` / ``down_cooldown_s`` are the hysteresis: after a
    scale-up, further ups wait ``up_cooldown_s`` and downs wait
    ``down_cooldown_s`` (so capacity added for a burst is given time to
    prove itself before being reclaimed); after a scale-down, further downs
    wait ``down_cooldown_s``.

    A new replica is not free: it serves only after
    :meth:`cold_start_s` — ``provision_s`` of instance/process bring-up plus
    the model weights crossing ``host_link`` (PCIe from host memory by
    default).
    """

    min_replicas: int = 1
    max_replicas: Optional[int] = None
    interval_s: float = 5.0
    scale_up_queue_depth: float = 4.0
    scale_down_outstanding: float = 1.0
    up_cooldown_s: float = 10.0
    down_cooldown_s: float = 30.0
    provision_s: float = 2.0
    host_link: InterconnectSpec = PCIE_GEN4
    ttft_slo_s: Optional[float] = None
    slo_floor: float = 0.9
    slo_min_samples: int = 5

    def __post_init__(self) -> None:
        # Counts must be true integers; every float bound below is written
        # as a chained comparison, which NaN fails like any out-of-range
        # value.  A finite positive tick interval is what lets the cluster
        # loop reach its stop rule.
        for name in ("min_replicas", "max_replicas", "slo_min_samples"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool) or not
                                      isinstance(value, numbers.Integral)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.min_replicas < 1:
            raise ValueError("min_replicas must be >= 1")
        if self.max_replicas is not None \
                and self.max_replicas < self.min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        if not 0.0 < self.interval_s < math.inf:
            raise ValueError(
                f"interval_s must be positive and finite, got "
                f"{self.interval_s!r}")
        for name in ("scale_up_queue_depth", "scale_down_outstanding",
                     "up_cooldown_s", "down_cooldown_s", "provision_s"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(
                    f"{name} must be non-negative and finite, got {value!r}")
        if self.ttft_slo_s is not None and not 0.0 < self.ttft_slo_s < math.inf:
            raise ValueError(
                f"ttft_slo_s must be positive and finite, got "
                f"{self.ttft_slo_s!r}")
        if not 0.0 < self.slo_floor <= 1.0:
            raise ValueError("slo_floor must be in (0, 1]")
        if self.slo_min_samples < 1:
            raise ValueError("slo_min_samples must be >= 1")

    def cold_start_s(self, weight_bytes: int) -> float:
        """Delay between a scale-up decision and the replica serving.

        ``provision_s`` of bring-up plus the time to ship ``weight_bytes``
        of model weights over ``host_link`` — for a tensor-parallel replica
        pass the whole model's bytes; the shards load in parallel but each
        GPU's share crosses the same host link its neighbours contend on,
        so the full-model transfer time is the honest lower bound.
        """
        return weight_transfer_s(weight_bytes, self.host_link,
                                 self.provision_s)


@dataclass(frozen=True)
class FleetSnapshot:
    """What the controller observes at one evaluation tick."""

    #: Tick time on the shared cluster clock.
    now: float
    #: Replicas currently serving.
    num_active: int
    #: Replicas provisioning (scale-up decided, cold start not elapsed).
    num_starting: int
    #: Waiting (queued, unadmitted) requests across the active replicas.
    queue_depth: int
    #: Waiting + running requests across the active replicas.
    outstanding: int
    #: Requests finished since the previous tick (SLO signal window).
    recent_finished: int = 0
    #: Of those, how many met the TTFT SLO.
    recent_slo_ok: int = 0


@dataclass(frozen=True)
class ScalingEvent:
    """One committed autoscaling action."""

    time_s: float
    #: ``"up"`` or ``"down"``.
    action: str
    #: Replica slot provisioned or drained.
    replica: int
    #: Replicas *serving* immediately after the action (a scale-up does not
    #: raise this until its cold start elapses).
    num_active: int
    #: Which signal fired: ``"queue-depth"``, ``"slo-attainment"``, ``"idle"``.
    reason: str

    def to_json(self) -> Dict:
        return {"time_s": self.time_s, "action": self.action,
                "replica": self.replica, "num_active": self.num_active,
                "reason": self.reason}


class ReactiveAutoscaler:
    """The tick-by-tick decision procedure.

    Stateless apart from the cooldown clocks and the committed event log —
    the cluster loop owns the fleet itself (which slots run, cold-start
    completion, draining).  :meth:`decide` proposes at most one action for
    the snapshot; the loop applies it and calls :meth:`commit`, which is
    when the cooldown clocks advance (a decision that is never applied does
    not consume a cooldown).
    """

    def __init__(self, config: AutoscalerConfig, max_replicas: int) -> None:
        if max_replicas < config.min_replicas:
            raise ValueError("max_replicas must be >= config.min_replicas")
        self.config = config
        self.max_replicas = max_replicas
        self.events: List[ScalingEvent] = []
        self._last_up = float("-inf")
        self._last_down = float("-inf")

    def decide(self, snapshot: FleetSnapshot
               ) -> Optional[Tuple[str, str]]:
        """``("up"|"down", reason)`` for this tick, or ``None`` to hold."""
        cfg = self.config
        capacity = snapshot.num_active + snapshot.num_starting
        if (capacity < self.max_replicas
                and snapshot.now - self._last_up >= cfg.up_cooldown_s):
            if snapshot.queue_depth > cfg.scale_up_queue_depth * capacity:
                return ("up", "queue-depth")
            if (cfg.ttft_slo_s is not None
                    and snapshot.recent_finished >= cfg.slo_min_samples
                    and snapshot.recent_slo_ok
                    < cfg.slo_floor * snapshot.recent_finished):
                return ("up", "slo-attainment")
        if (snapshot.num_active > cfg.min_replicas
                and snapshot.num_starting == 0
                and snapshot.now - self._last_up >= cfg.down_cooldown_s
                and snapshot.now - self._last_down >= cfg.down_cooldown_s
                and snapshot.queue_depth == 0
                and snapshot.outstanding
                <= cfg.scale_down_outstanding * (snapshot.num_active - 1)):
            return ("down", "idle")
        return None

    def commit(self, event: ScalingEvent) -> None:
        """Record an applied action and start its cooldown."""
        self.events.append(event)
        if event.action == "up":
            self._last_up = event.time_s
        else:
            self._last_down = event.time_s


@dataclass
class AutoscaleReport:
    """What the autoscaler did over one run, and what it cost.

    ``windows`` holds, per replica slot, the ``(start, end)`` intervals the
    slot was *provisioned* — from the scale-up decision (the GPU is held
    while weights load) to the drain, or to the makespan for slots still up
    at the end.  Summed and multiplied by the replica's GPU count they give
    :attr:`gpu_seconds`, the quantity a capacity plan compares against a
    static fleet's ``num_replicas x makespan``.
    """

    events: List[ScalingEvent] = field(default_factory=list)
    #: Per replica slot: provisioned ``(start, end)`` windows.
    windows: List[List[Tuple[float, float]]] = field(default_factory=list)
    #: Cold-start delay priced into every scale-up of this run.
    cold_start_s: float = 0.0
    #: GPUs per replica (tensor-parallel degree).
    gpus_per_replica: int = 1
    #: Cluster makespan the open windows were closed at.
    makespan_s: float = 0.0

    @property
    def num_scale_ups(self) -> int:
        return sum(1 for e in self.events if e.action == "up")

    @property
    def num_scale_downs(self) -> int:
        return sum(1 for e in self.events if e.action == "down")

    @property
    def replica_seconds(self) -> float:
        """Total provisioned replica-time across all windows."""
        return fold_sum(end - start
                        for slot in self.windows for start, end in slot)

    @property
    def gpu_seconds(self) -> float:
        """Provisioned GPU-time: the autoscaled fleet's cost metric."""
        return self.replica_seconds * self.gpus_per_replica

    @property
    def peak_replicas(self) -> int:
        """Most replicas provisioned at any instant."""
        bounds = []
        for slot in self.windows:
            for start, end in slot:
                bounds.append((start, 1))
                bounds.append((end, -1))
        peak = current = 0
        for _, delta in sorted(bounds):
            current += delta
            peak = max(peak, current)
        return peak

    def to_json(self) -> Dict:
        return {
            "events": [e.to_json() for e in self.events],
            "windows": [[list(w) for w in slot] for slot in self.windows],
            "cold_start_s": self.cold_start_s,
            "gpus_per_replica": self.gpus_per_replica,
            "makespan_s": self.makespan_s,
            "num_scale_ups": self.num_scale_ups,
            "num_scale_downs": self.num_scale_downs,
            "replica_seconds": self.replica_seconds,
            "gpu_seconds": self.gpu_seconds,
            "peak_replicas": self.peak_replicas,
        }
