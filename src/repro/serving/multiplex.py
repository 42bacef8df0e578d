"""Multi-model multiplexing: model residency and swap pricing on shared fleets.

A production fleet rarely serves one model.  The JSONL trace schema
(:mod:`repro.serving.traffic`) already tags each request with a ``model``
name; this module supplies the missing layers that let several models share
one replica pool:

* :class:`MultiplexConfig` declares the model set a fleet serves, the host
  link weights cross when a model is swapped in, and how many models one
  replica may keep resident at once.
* :class:`ModelResidency` is the per-replica residency manager: it accounts
  weight memory (plus activation workspace) for every resident
  :class:`~repro.model.config.ModelConfig` against GPU HBM, evicts the
  least-recently-used model when a swap-in would not fit, and prices each
  swap-in exactly like an autoscaler cold start
  (:func:`repro.serving.autoscaler.weight_transfer_s`: weights over
  ``host_link``, charged on the shared clock as a replica-busy window).
* :class:`MultiplexReport` aggregates what happened — per-replica swap
  counts and busy-seconds, final resident sets and the HBM accounting the
  invariant tests check.

The memory model is a static carve: the residency budget reserves room for
the ``max_resident_models`` largest models (weights + activation
workspace), and the remaining HBM is split evenly into one KV page pool per
model.  A swapped-out model's KV pool (and therefore its prefix cache)
stays reserved and warm — only the weights leave the GPU — so at every
instant ``resident weights + workspace + all KV pools <= HBM capacity``
holds by construction.

The routing and serving side lives in :mod:`repro.serving.cluster`
(``ModelAwareRouter`` and ``ClusterEngine.serve(multiplex=...)``): this
module holds only the residency/accounting state so the cluster can import
it without cycles.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.gpu.specs import GPUSpec, InterconnectSpec, PCIE_GEN4
from repro.model.config import ModelConfig
from repro.serving.autoscaler import weight_transfer_s
from repro.serving.metrics import fold_sum

__all__ = [
    "MultiplexConfig",
    "ModelResidency",
    "ResidencySnapshot",
    "MultiplexReport",
]


@dataclass(frozen=True)
class MultiplexConfig:
    """Policy knobs of a multi-model shared fleet.

    ``models`` is the full set a fleet may serve (requests naming anything
    else are rejected at submit time).  ``max_resident_models`` caps how
    many of them one replica keeps resident simultaneously; ``None`` means
    all of them.  ``preload`` names the models warm on every replica at
    time zero (default: the first model, matching a fleet booted for its
    primary model); preloaded weights are not charged.

    A swap-in costs ``provision_s`` plus the model's weights over
    ``host_link`` — the same formula as an autoscaler cold start.
    Swap-*out* is free: serving weights are read-only, so eviction just
    drops them.

    ``queue_cost_s`` is the router's exchange rate between swap cost and
    queue delay: a candidate replica's score is its swap-in cost plus
    ``queue_cost_s`` per outstanding request, and the lowest score wins
    (see ``ModelAwareRouter``).
    """

    models: Tuple[ModelConfig, ...]
    max_resident_models: Optional[int] = None
    preload: Optional[Tuple[str, ...]] = None
    host_link: InterconnectSpec = PCIE_GEN4
    provision_s: float = 0.0
    queue_cost_s: float = 0.05

    def __post_init__(self) -> None:
        if not self.models:
            raise ValueError("multiplex needs at least one model")
        names = [m.name for m in self.models]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate model names: {names}")
        cap = self.max_resident_models
        if cap is not None and (
                isinstance(cap, bool) or not isinstance(cap, numbers.Integral)
                or not 1 <= cap <= len(self.models)):
            raise ValueError(f"max_resident_models must be an integer in "
                             f"[1, {len(self.models)}], got {cap!r}")
        # Chained comparisons: NaN fails them like a negative value.
        for name in ("provision_s", "queue_cost_s"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(
                    f"{name} must be non-negative and finite, got {value!r}")
        if self.preload is not None:
            unknown = [n for n in self.preload if n not in names]
            if unknown:
                raise ValueError(f"preload names unknown models: {unknown}")
            if len(set(self.preload)) != len(self.preload):
                raise ValueError(f"preload names a model more than once: "
                                 f"{list(self.preload)}")
            if len(self.preload) > self.resident_limit:
                raise ValueError("preload exceeds max_resident_models")

    @property
    def resident_limit(self) -> int:
        """Models one replica may keep resident at once."""
        if self.max_resident_models is None:
            return len(self.models)
        return self.max_resident_models

    @property
    def model_names(self) -> Tuple[str, ...]:
        return tuple(m.name for m in self.models)

    @property
    def default_model(self) -> str:
        """Model served to requests without a ``model`` tag."""
        if self.preload:
            return self.preload[0]
        return self.models[0].name

    def preload_names(self) -> Tuple[str, ...]:
        return self.preload if self.preload is not None \
            else (self.models[0].name,)


@dataclass
class ResidencySnapshot:
    """Final state of one replica's residency manager (JSON-friendly)."""

    resident: List[str]
    swap_ins: int
    swap_outs: int
    swap_in_s: float
    swap_ins_by_model: Dict[str, int]
    weight_budget_bytes: float
    peak_resident_bytes: float
    kv_pool_bytes: float

    def to_json(self) -> Dict:
        return {
            "resident": list(self.resident),
            "swap_ins": self.swap_ins,
            "swap_outs": self.swap_outs,
            "swap_in_s": self.swap_in_s,
            "swap_ins_by_model": dict(self.swap_ins_by_model),
            "weight_budget_bytes": self.weight_budget_bytes,
            "peak_resident_bytes": self.peak_resident_bytes,
            "kv_pool_bytes": self.kv_pool_bytes,
        }


class ModelResidency:
    """Weight-memory residency of one replica's model set.

    Tracks which models' weights are on the GPU, in least-recently-used
    order.  :meth:`ensure_resident` is the one mutating entry point: it
    returns the swap-in cost in seconds (zero when the model is already
    warm), evicting LRU models first if the resident set is full.  The
    caller charges that cost on the replica's clock as a busy window —
    the GPU's copy engines and the host link are occupied by the weight
    transfer, so no iteration of any co-resident model runs meanwhile.

    Memory accounting (all byte figures are aggregated across the
    replica's tensor-parallel group):

    * per model, ``footprint = weights + weights * workspace_factor +
      1 GiB * tp`` — the same workspace formula as
      :meth:`repro.serving.engine.ServingEngine.kv_capacity_bytes`;
    * the **weight budget** reserves the ``resident_limit`` largest
      footprints;
    * what remains of HBM is split evenly into one KV page pool per model
      (:meth:`kv_pool_bytes`), reserved whether or not the model is
      currently resident — swapping drops weights, never KV state.
    """

    def __init__(self, config: MultiplexConfig, gpu: GPUSpec,
                 weight_bytes: Dict[str, float],
                 workspace_bytes: Dict[str, float],
                 tp_degree: int = 1) -> None:
        self.config = config
        self.gpu = gpu
        self.tp_degree = tp_degree
        self.weight_bytes = dict(weight_bytes)
        self.workspace_bytes = dict(workspace_bytes)
        self.hbm_capacity_bytes = float(gpu.memory_bytes) * tp_degree
        footprints = sorted((self.footprint_bytes(name)
                             for name in config.model_names), reverse=True)
        self.weight_budget_bytes = float(
            fold_sum(footprints[:config.resident_limit]))
        kv_total = self.hbm_capacity_bytes - self.weight_budget_bytes
        if kv_total <= 0:
            raise ValueError(
                f"{config.resident_limit} resident models "
                f"({self.weight_budget_bytes / (1 << 30):.1f} GiB of weights "
                f"+ workspace) leave no KV memory on "
                f"{gpu.name} x{tp_degree}")
        self._kv_pool_bytes = kv_total / len(config.models)
        #: Resident models in LRU order (index 0 = least recently used).
        self.resident: List[str] = list(config.preload_names())
        self.swap_ins = 0
        self.swap_outs = 0
        self.swap_in_s = 0.0
        self.swap_ins_by_model: Dict[str, int] = {}
        self.peak_resident_bytes = self.resident_bytes()

    # ------------------------------------------------------------------
    def footprint_bytes(self, model: str) -> float:
        """HBM footprint of one resident model (weights + workspace)."""
        return self.weight_bytes[model] + self.workspace_bytes[model]

    def resident_bytes(self) -> float:
        """HBM currently held by resident weights + workspace."""
        return float(fold_sum(self.footprint_bytes(m) for m in self.resident))

    def kv_pool_bytes(self) -> float:
        """Per-model KV page-pool capacity under the static carve."""
        return self._kv_pool_bytes

    def is_resident(self, model: str) -> bool:
        return model in self.resident

    def swap_cost_s(self, model: str) -> float:
        """Seconds a swap-in of ``model`` would cost now (0 when warm)."""
        if model in self.resident:
            return 0.0
        return weight_transfer_s(self.weight_bytes[model],
                                 self.config.host_link,
                                 self.config.provision_s)

    # ------------------------------------------------------------------
    def ensure_resident(self, model: str) -> float:
        """Make ``model`` resident; returns the swap-in cost in seconds.

        Already-warm models cost zero and move to the most-recently-used
        end.  Otherwise LRU models are evicted until the set has room, the
        swap is counted, and the priced transfer time is returned for the
        caller to charge on the replica clock.
        """
        if model not in self.weight_bytes:
            raise KeyError(f"unknown model {model!r}; fleet serves "
                           f"{sorted(self.weight_bytes)}")
        if model in self.resident:
            self.resident.remove(model)
            self.resident.append(model)
            return 0.0
        while len(self.resident) >= self.config.resident_limit:
            self.resident.pop(0)
            self.swap_outs += 1
        cost = weight_transfer_s(self.weight_bytes[model],
                                 self.config.host_link,
                                 self.config.provision_s)
        self.resident.append(model)
        self.swap_ins += 1
        self.swap_in_s += cost
        self.swap_ins_by_model[model] = \
            self.swap_ins_by_model.get(model, 0) + 1
        self.peak_resident_bytes = max(self.peak_resident_bytes,
                                       self.resident_bytes())
        return cost

    # ------------------------------------------------------------------
    def reserved_bytes(self) -> float:
        """Peak HBM claim: resident weights + every model's KV pool.

        The invariant tests assert this never exceeds
        :attr:`hbm_capacity_bytes` — weight residency composes with the KV
        carve instead of double-booking memory.
        """
        return (self.peak_resident_bytes
                + self._kv_pool_bytes * len(self.config.models))

    def snapshot(self) -> ResidencySnapshot:
        return ResidencySnapshot(
            resident=list(self.resident),
            swap_ins=self.swap_ins,
            swap_outs=self.swap_outs,
            swap_in_s=self.swap_in_s,
            swap_ins_by_model=dict(sorted(self.swap_ins_by_model.items())),
            weight_budget_bytes=self.weight_budget_bytes,
            peak_resident_bytes=self.peak_resident_bytes,
            kv_pool_bytes=self._kv_pool_bytes,
        )


@dataclass
class MultiplexReport:
    """Fleet-level summary of a multiplexed serving run."""

    #: One snapshot per replica, in replica order.
    replicas: List[ResidencySnapshot] = field(default_factory=list)
    #: Requests routed to each model across the fleet.
    requests_by_model: Dict[str, int] = field(default_factory=dict)

    @property
    def swap_ins(self) -> int:
        return sum(r.swap_ins for r in self.replicas)

    @property
    def swap_outs(self) -> int:
        return sum(r.swap_outs for r in self.replicas)

    @property
    def swap_in_s(self) -> float:
        return float(fold_sum(r.swap_in_s for r in self.replicas))

    def to_json(self) -> Dict:
        return {
            "swap_ins": self.swap_ins,
            "swap_outs": self.swap_outs,
            "swap_in_s": self.swap_in_s,
            "requests_by_model": dict(sorted(self.requests_by_model.items())),
            "replicas": [r.to_json() for r in self.replicas],
        }
