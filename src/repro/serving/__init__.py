"""QServe serving-system simulator.

The efficiency results of the paper (Table 4, Figures 15/17) measure the
*maximum achievable generation throughput* of a serving system under a fixed
device-memory budget, with 1024-token prompts and 512-token outputs.  This
package reproduces that measurement as a discrete, event-driven simulation,
and extends it with the latency side of serving (TTFT/TPOT percentiles, SLO
goodput) under pluggable scheduling policies:

* :mod:`repro.serving.precision` — serving-system presets (TensorRT-LLM FP16 /
  W8A8 / W4A16, Atom, QuaRot, QServe per-channel & per-group) mapping onto the
  GPU cost model's GEMM/attention kernels;
* :mod:`repro.serving.request` — request and workload definitions, including
  ShareGPT-like lognormal and bursty on/off workload generators;
* :mod:`repro.serving.cost_cache` — per-engine memoization of the pure
  cost-model latencies, keyed on their arguments (bitwise-identical hits);
* :mod:`repro.serving.kv_cache_manager` — paged KV cache with per-head scale
  storage, whole-request page reclamation, a ref-counted shared-page pool and
  per-block precision tiers (4-bit demotion of cold shared blocks);
* :mod:`repro.serving.prefix_cache` — radix-tree prefix sharing: prompt
  prefixes already resident in the KV cache skip prefill, with
  demote-before-evict and LRU eviction of unreferenced blocks under page
  pressure;
* :mod:`repro.serving.policies` — scheduler policies (FCFS, strict-FCFS,
  SJF), iteration planners (stall prefill, chunked prefill) and
  :class:`SchedulingConfig` presets;
* :mod:`repro.serving.scheduler` — in-flight (continuous) batching scheduler
  with optimistic admission and preempt-and-recompute under page pressure;
* :mod:`repro.serving.metrics` — per-request TTFT/TPOT/E2E latency with
  p50/p95/p99 summaries and SLO goodput;
* :mod:`repro.serving.telemetry` — default-off lifecycle tracing: request
  spans, per-iteration records, sampled time series, a unified counter
  registry with a Prometheus-style snapshot, Chrome trace-event export
  (Perfetto-loadable) and SLO phase attribution;
* :mod:`repro.serving.engine` — per-iteration latency from the GPU cost model
  (one pricing rule, ``ServingEngine.mixed_step``) plus the event-driven
  serving loop (whole-run ``serve`` and the iteration-level
  :class:`EngineStepper`);
* :mod:`repro.serving.parallel` — tensor-parallel sharding + all-reduce cost
  model (:class:`ParallelConfig`);
* :mod:`repro.serving.speculative` — speculative decoding: draft-model cost
  modeling, seeded per-request acceptance sampling under workload profiles,
  acceptance-aware adaptive lookahead (:class:`SpeculativeConfig`);
* :mod:`repro.serving.traffic` — production traffic modeling: diurnal and
  flash-crowd arrival processes, multi-tenant assignment with paid/free SLO
  tiers, and a JSONL trace format for replaying recorded request logs;
* :mod:`repro.serving.autoscaler` — reactive fleet autoscaling: queue-depth
  and SLO-attainment signals with cooldown hysteresis, priced cold starts
  (weights over the host link), and provisioned GPU-seconds accounting;
* :mod:`repro.serving.multiplex` — multi-model multiplexing: per-replica
  model residency accounting against HBM (weights + workspace next to the
  statically carved per-model KV pools), LRU weight swapping priced like
  autoscaler cold starts, and per-model swap/residency reporting;
* :mod:`repro.serving.cluster` — multi-replica cluster simulation behind
  pluggable routers (round-robin, least-outstanding, shortest-queue,
  prefix-affinity, disaggregated, precision-aware, model-aware), including
  role-specialised prefill/decode replicas with priced KV-state migration,
  heterogeneous mixed-precision fleets (per-replica system presets,
  cross-precision transfer repricing), autoscaled fleets and multiplexed
  multi-model fleets with swap-priced warm-first routing;
* :mod:`repro.serving.throughput` — memory-budgeted maximum-batch search,
  throughput measurement and tensor-parallel sweeps.
"""

from repro.serving.precision import (
    SystemConfig,
    SYSTEM_PRESETS,
    get_system,
    validate_presets,
    DEMOTED_KV_BITS,
    DYNAMIC_KV_PARAM_BYTES,
)
from repro.serving.request import (
    Request,
    RequestState,
    Workload,
    make_uniform_workload,
    make_lognormal_workload,
    make_bursty_workload,
    make_router_study_workload,
    make_shared_prefix_workload,
    make_chat_workload,
    make_mixed_precision_workload,
)
from repro.serving.traffic import (
    TIERS,
    TenantSpec,
    make_tenant_pool,
    assign_tenants,
    make_diurnal_workload,
    make_flash_crowd_workload,
    make_multi_model_workload,
    load_trace,
    save_trace,
)
from repro.serving.autoscaler import (
    AutoscalerConfig,
    FleetSnapshot,
    ScalingEvent,
    ReactiveAutoscaler,
    AutoscaleReport,
    weight_transfer_s,
)
from repro.serving.multiplex import (
    MultiplexConfig,
    ModelResidency,
    ResidencySnapshot,
    MultiplexReport,
)
from repro.serving.cost_cache import CostModelCache
from repro.serving.kv_cache_manager import PagedKVCacheManager, PageAllocationError
from repro.serving.prefix_cache import (
    PrefixCache,
    PrefixCacheStats,
    prompt_block_keys,
)
from repro.serving.policies import (
    SchedulerPolicy,
    FCFSPolicy,
    StrictFCFSPolicy,
    ShortestJobFirstPolicy,
    CacheAwarePolicy,
    POLICIES,
    get_policy,
    IterationPlan,
    IterationPlanner,
    StallPrefillPlanner,
    ChunkedPrefillPlanner,
    SchedulingConfig,
    SCHEDULING_PRESETS,
    LEGACY_SCHEDULING,
)
from repro.serving.metrics import RequestMetrics, LatencySummary, ServingMetrics
from repro.serving.telemetry import (
    TelemetryConfig,
    CounterRegistry,
    collect_counters,
    Tracer,
    PHASES,
    chrome_trace,
    write_chrome_trace,
    trace_phase_records,
    PhaseRecord,
    attribute_slo,
    SLOAttribution,
)
from repro.serving.scheduler import ContinuousBatchingScheduler
from repro.serving.parallel import ParallelConfig
from repro.serving.speculative import (
    AcceptanceProfile,
    ACCEPTANCE_PROFILES,
    get_acceptance_profile,
    AcceptanceSampler,
    SpeculativeConfig,
    SpeculationStats,
    SpeculativeDecoder,
)
from repro.serving.engine import (
    EngineStepper,
    ServingEngine,
    ServingResult,
    StepBreakdown,
)
from repro.serving.cluster import (
    Router,
    RoundRobinRouter,
    LeastOutstandingRouter,
    ShortestQueueRouter,
    PrefixAffinityRouter,
    DisaggregatedRouter,
    PrecisionAwareRouter,
    ModelAwareRouter,
    ROUTERS,
    get_router,
    REPLICA_ROLES,
    ClusterResult,
    ClusterEngine,
)
from repro.serving.throughput import (
    ThroughputResult,
    max_achievable_batch,
    measure_throughput,
    max_achievable_throughput,
    tp_sweep,
)

__all__ = [
    "SystemConfig", "SYSTEM_PRESETS", "get_system", "validate_presets",
    "DEMOTED_KV_BITS", "DYNAMIC_KV_PARAM_BYTES",
    "Request", "RequestState", "Workload", "make_uniform_workload",
    "make_lognormal_workload", "make_bursty_workload",
    "make_router_study_workload", "make_shared_prefix_workload",
    "make_chat_workload", "make_mixed_precision_workload",
    "TIERS", "TenantSpec", "make_tenant_pool", "assign_tenants",
    "make_diurnal_workload", "make_flash_crowd_workload",
    "make_multi_model_workload", "load_trace", "save_trace",
    "AutoscalerConfig", "FleetSnapshot", "ScalingEvent",
    "ReactiveAutoscaler", "AutoscaleReport", "weight_transfer_s",
    "MultiplexConfig", "ModelResidency", "ResidencySnapshot",
    "MultiplexReport",
    "CostModelCache",
    "PagedKVCacheManager", "PageAllocationError",
    "PrefixCache", "PrefixCacheStats", "prompt_block_keys",
    "SchedulerPolicy", "FCFSPolicy", "StrictFCFSPolicy",
    "ShortestJobFirstPolicy", "CacheAwarePolicy", "POLICIES", "get_policy",
    "IterationPlan", "IterationPlanner", "StallPrefillPlanner",
    "ChunkedPrefillPlanner", "SchedulingConfig", "SCHEDULING_PRESETS",
    "LEGACY_SCHEDULING",
    "RequestMetrics", "LatencySummary", "ServingMetrics",
    "TelemetryConfig", "CounterRegistry", "collect_counters", "Tracer",
    "PHASES", "chrome_trace", "write_chrome_trace", "trace_phase_records",
    "PhaseRecord", "attribute_slo", "SLOAttribution",
    "ContinuousBatchingScheduler",
    "ParallelConfig",
    "AcceptanceProfile", "ACCEPTANCE_PROFILES", "get_acceptance_profile",
    "AcceptanceSampler", "SpeculativeConfig", "SpeculationStats",
    "SpeculativeDecoder",
    "EngineStepper", "ServingEngine", "ServingResult", "StepBreakdown",
    "Router", "RoundRobinRouter", "LeastOutstandingRouter",
    "ShortestQueueRouter", "PrefixAffinityRouter", "DisaggregatedRouter",
    "PrecisionAwareRouter", "ModelAwareRouter", "ROUTERS", "get_router",
    "REPLICA_ROLES",
    "ClusterResult", "ClusterEngine",
    "ThroughputResult", "max_achievable_batch", "measure_throughput",
    "max_achievable_throughput", "tp_sweep",
]
