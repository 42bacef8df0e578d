"""Serving engine: per-iteration latency model + event-driven serving loop.

``ServingEngine`` binds a model geometry, a GPU and a serving-system preset.
It answers two kinds of questions:

* *kernel-level*: how long does one iteration — prefill chunks plus a
  decode batch at some context length — take?  One rule,
  :meth:`ServingEngine.mixed_step`, prices every shape (a decode step and a
  batched prefill are its special cases) from the GPU cost model
  (:mod:`repro.gpu.gemm`, :mod:`repro.gpu.attention_kernel`); it drives
  Figures 2a, 17 and the throughput tables.  The serving loop prices a
  plain decode iteration from its batch's latency row instead, which
  :meth:`ServingEngine.decode_row` fills a run of contexts at a time with
  the same formula in row form.
* *system-level*: given a workload, a memory budget and a
  :class:`repro.serving.policies.SchedulingConfig`, run the continuous
  batching loop on a simulated clock and report generation throughput (the
  quantity Table 4 calls "maximum achievable throughput") together with
  per-request latency metrics (TTFT/TPOT/E2E percentiles, SLO goodput).

The engine is optionally tensor-parallel: a
:class:`repro.serving.parallel.ParallelConfig` shards every projection,
attention head and the KV cache across ``tp_degree`` GPUs and charges the
two per-layer activation all-reduces to the interconnect
(:class:`repro.gpu.specs.InterconnectSpec`).  ``tp_degree=1`` (the default)
is bitwise-identical to the single-GPU engine.

The serving loop itself is policy-free: admission order and head-of-line
bypass come from the scheduling config's :class:`SchedulerPolicy`, the
composition of each iteration from its :class:`IterationPlanner` (legacy
stall-the-world prefill, or chunked prefill where prompt tokens share
iterations with the decode batch), and page pressure is resolved by
preempt-and-recompute when the config enables it.  The default
``LEGACY_SCHEDULING`` preset reproduces the seed engine's behaviour exactly —
same admissions, same cost-model calls in the same order, bitwise-identical
throughput.

The loop is exposed at two granularities: :meth:`ServingEngine.serve` runs a
workload to completion, while :class:`EngineStepper` advances the same loop
one iteration per ``step`` or up to a time with ``run_until`` — the hook
:class:`repro.serving.cluster.ClusterEngine` uses to run several replica
engines against one shared clock.  ``run_until`` coasts through the plain
decode iterations that hold no event, so a run pays per event, not per
iteration; a coast that the caller's time cuts short records when the
next non-coast iteration can start at the earliest (``stable_until``), so
the cluster runs a replica only when an event can observe it.

With a :class:`repro.serving.speculative.SpeculativeConfig` attached, decode
iterations run speculatively: a draft engine proposes ``k`` tokens per
request (priced as ``k`` real draft decode steps), the target verifies all
``k + 1`` positions in one batched step (:meth:`speculative_verify_step`,
which reuses the chunked-prefill GEMM/attention path plus a full-width LM
head), and the accepted prefix commits in a single multi-token scheduler
step.  ``speculative=None`` (the default) leaves every existing result
bitwise-identical.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.gpu.attention_kernel import (
    KERNEL_LAUNCH_OVERHEAD_S,
    KV_KERNELS,
    attention_decode_latency,
    attention_decode_row,
)
from repro.gpu.gemm import GEMM_PRECISIONS, gemm_latency
from repro.gpu.specs import GPUSpec
from repro.model.config import ModelConfig
from repro.serving.cost_cache import CostModelCache, memoised
from repro.serving.kv_cache_manager import PagedKVCacheManager
from repro.serving.metrics import ServingMetrics
from repro.serving.parallel import ParallelConfig
from repro.serving.prefix_cache import PrefixCache, PrefixCacheStats
from repro.serving.policies import (
    IterationPlan,
    LEGACY_SCHEDULING,
    SchedulingConfig,
)
from repro.serving.precision import SystemConfig
from repro.serving.request import (Request, RequestState, Workload,
                                   check_positive_int)
from repro.serving.scheduler import ContinuousBatchingScheduler
from repro.serving.speculative import (
    SpeculationStats,
    SpeculativeConfig,
    SpeculativeDecoder,
)
from repro.serving.telemetry import (
    CounterRegistry,
    TelemetryConfig,
    Tracer,
    collect_counters,
    resolve_telemetry,
)

__all__ = ["StepBreakdown", "ServingResult", "ServingEngine", "EngineStepper"]

#: Fixed per-iteration overhead for kernels not modelled explicitly
#: (normalisation, rotary embedding, sampling, python/runtime launch gaps).
_STEP_OVERHEAD_S = 100e-6

#: Guard against a non-terminating serving loop (scheduler/planner bugs).
_MAX_ITERATIONS = 10_000_000


@dataclass
class StepBreakdown:
    """Latency decomposition of one model iteration (seconds).

    ``comm`` is the tensor-parallel all-reduce time; it is zero on a
    single-GPU engine.
    """

    gemm: float
    attention: float
    other: float
    comm: float = 0.0

    @property
    def total(self) -> float:
        return self.gemm + self.attention + self.other + self.comm

    def fraction(self, part: str) -> float:
        value = getattr(self, part)
        return 0.0 if self.total == 0 else value / self.total


@dataclass
class ServingResult:
    """Outcome of a full serving-loop simulation."""

    total_time_s: float
    generated_tokens: int
    prompt_tokens: int
    peak_batch: int
    num_iterations: int
    num_finished: int = 0
    num_unserved: int = 0
    #: Requests shed by tier-aware admission (a subset of ``num_unserved``);
    #: zero unless ``tier_admission`` with a drop cutoff was on.
    num_dropped: int = 0
    num_preemptions: int = 0
    recomputed_prefill_tokens: int = 0
    #: Simulated seconds the GPU spent executing iterations (excludes idle
    #: gaps between arrivals); ``busy_time_s / total_time_s`` is the
    #: replica's utilization over the run.
    busy_time_s: float = 0.0
    metrics: Optional[ServingMetrics] = None
    #: Peak KV-page utilization observed across the run's iterations.
    kv_utilization_peak: float = 0.0
    #: Prefix-cache counters; ``None`` unless prefix caching was enabled.
    prefix_stats: Optional[PrefixCacheStats] = None
    #: Speculative-decoding counters; ``None`` unless speculation was enabled.
    spec_stats: Optional[SpeculationStats] = None
    #: Unified counter snapshot of the whole run
    #: (:class:`~repro.serving.telemetry.CounterRegistry`): every gauge the
    #: human-readable summaries print, reachable programmatically — and a
    #: Prometheus-style text dump via ``counters.prometheus_text()``.
    counters: Optional[CounterRegistry] = None
    #: The run's :class:`~repro.serving.telemetry.Tracer`; ``None`` unless
    #: the run was started with ``telemetry=`` enabled.
    telemetry: Optional[Tracer] = None

    @property
    def generation_throughput(self) -> float:
        """Generated tokens per second — the paper's headline metric."""
        return 0.0 if self.total_time_s == 0 else self.generated_tokens / self.total_time_s

    @property
    def tokens_per_iteration(self) -> float:
        """Mean generated tokens committed per executed iteration.

        Plain decoding commits at most one token per running sequence per
        iteration, so the decode batch size caps this gauge; speculative
        decoding is the only way past that cap.
        """
        return (0.0 if self.num_iterations == 0
                else self.generated_tokens / self.num_iterations)

    @property
    def acceptance_rate(self) -> float:
        """Draft-token acceptance rate (0 when speculation was off)."""
        return 0.0 if self.spec_stats is None else self.spec_stats.acceptance_rate

    @property
    def speculation_speedup(self) -> float:
        """Estimated decode speedup vs. one-token iterations (0 when off)."""
        return 0.0 if self.spec_stats is None else self.spec_stats.speedup

    @property
    def cache_hit_rate(self) -> float:
        """Prefix-cache token hit rate (0 when caching was off)."""
        return 0.0 if self.prefix_stats is None else self.prefix_stats.hit_rate

    @property
    def saved_prefill_tokens(self) -> int:
        """Prefill tokens skipped via prefix-cache hits (0 when off)."""
        return (0 if self.prefix_stats is None
                else self.prefix_stats.saved_prefill_tokens)

    def summary_text(self) -> str:
        """Human-readable summary: latency percentiles plus the KV-cache
        utilization and prefix-cache hit-rate gauges."""
        lines = [f"throughput: {self.generation_throughput:.1f} tok/s "
                 f"({self.num_finished} finished, {self.num_unserved} unserved)"]
        if self.metrics is not None and len(self.metrics):
            lines.append(self.metrics.summary_text())
        lines.append(f"KV utilization: peak {self.kv_utilization_peak * 100:.1f}%")
        lines.append(f"tokens/iteration: {self.tokens_per_iteration:.2f}")
        if self.spec_stats is not None:
            s = self.spec_stats
            lines.append(
                f"speculation: acceptance {s.acceptance_rate * 100:.1f}%, "
                f"{s.mean_accepted_per_step:.2f} accepted tokens/step, "
                f"est. speedup {s.speedup:.2f}x")
        if self.prefix_stats is not None:
            s = self.prefix_stats
            lines.append(
                f"prefix cache: hit rate {s.hit_rate * 100:.1f}%, "
                f"{s.saved_prefill_tokens} prefill tokens saved, "
                f"{s.evicted_pages} pages evicted")
            if s.demoted_pages_total:
                lines.append(
                    f"KV demotion: {s.demoted_pages_total} pages demoted "
                    f"(peak {s.peak_demoted_pages} resident), "
                    f"{s.promoted_pages_total} promoted, "
                    f"{s.demoted_hit_tokens} hit tokens dequantized")
        return "\n".join(lines)

    def to_json(self) -> Dict:
        """Structured (JSON-serializable) export of the whole result.

        Everything :meth:`summary_text` prints — and every derived gauge —
        appears here as plain dicts and numbers, so benchmark sweeps and
        notebooks consume results without parsing text.
        """
        payload: Dict = {
            "total_time_s": self.total_time_s,
            "generated_tokens": self.generated_tokens,
            "prompt_tokens": self.prompt_tokens,
            "peak_batch": self.peak_batch,
            "num_iterations": self.num_iterations,
            "num_finished": self.num_finished,
            "num_unserved": self.num_unserved,
            "num_dropped": self.num_dropped,
            "num_preemptions": self.num_preemptions,
            "recomputed_prefill_tokens": self.recomputed_prefill_tokens,
            "busy_time_s": self.busy_time_s,
            "kv_utilization_peak": self.kv_utilization_peak,
            "generation_throughput": self.generation_throughput,
            "tokens_per_iteration": self.tokens_per_iteration,
            "acceptance_rate": self.acceptance_rate,
            "speculation_speedup": self.speculation_speedup,
            "cache_hit_rate": self.cache_hit_rate,
            "saved_prefill_tokens": self.saved_prefill_tokens,
            "metrics": None if self.metrics is None else self.metrics.to_json(),
            "prefix_stats": (None if self.prefix_stats is None
                             else asdict(self.prefix_stats)),
            "spec_stats": (None if self.spec_stats is None
                           else asdict(self.spec_stats)),
            "counters": (None if self.counters is None
                         else self.counters.as_dict()),
        }
        return payload

    def chrome_trace(self) -> Dict:
        """Chrome trace-event JSON of the run (requires ``telemetry=`` on)."""
        if self.telemetry is None:
            raise ValueError(
                "this run was not traced; pass telemetry=True to serve()")
        return self.telemetry.chrome_trace()


class ServingEngine:
    """Cost-model-driven serving simulator for one (model, GPU, system) triple.

    ``parallel`` shards the replica across ``tp_degree`` GPUs (weights, KV
    cache, GEMM and attention work) and adds the per-layer all-reduce cost;
    omitted it defaults to the single-GPU identity.
    """

    def __init__(self, model: ModelConfig, gpu: GPUSpec, system: SystemConfig,
                 max_seq_len: int = 2048,
                 parallel: Optional[ParallelConfig] = None) -> None:
        check_positive_int("max_seq_len", max_seq_len)
        self.model = model
        self.gpu = gpu
        self.system = system
        self.max_seq_len = max_seq_len
        self.parallel = parallel or ParallelConfig()
        self.parallel.validate_for(model)
        self.gemm_precision = GEMM_PRECISIONS[system.gemm_precision]
        self.attention_kernel = KV_KERNELS[system.attention_kernel]
        #: Memoises the pure per-shape latency evaluations below (see
        #: :mod:`repro.serving.cost_cache`).  Everything that feeds the
        #: latency formulas besides their arguments is fixed at
        #: construction, so hits are bitwise-identical to recomputation.
        self.cost_cache = CostModelCache()

    @property
    def tp_degree(self) -> int:
        return self.parallel.tp_degree

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    def weight_bytes(self) -> float:
        """Whole-model weight footprint (across all TP shards)."""
        return float(self.model.weight_bytes(self.system.weight_bits))

    def weight_bytes_per_gpu(self) -> float:
        """Per-GPU weight footprint under tensor-parallel sharding."""
        return self.weight_bytes() / self.parallel.tp_degree

    def workspace_bytes_per_gpu(self) -> float:
        """Per-GPU activation workspace: a share of the weights plus 1 GiB."""
        return (self.weight_bytes_per_gpu()
                * self.system.activation_workspace_factor + 1.0 * (1 << 30))

    def kv_capacity_bytes(self) -> float:
        """Memory left for KV cache, aggregated across the TP group.

        Each GPU keeps ``1/tp`` of the weights plus its own activation
        workspace; KV heads shard the same way, so the replica's usable KV
        capacity is the per-GPU leftover times the TP degree.
        """
        weights = self.weight_bytes_per_gpu()
        workspace = self.workspace_bytes_per_gpu()
        per_gpu = max(0.0, self.gpu.memory_bytes - weights - workspace)
        return per_gpu * self.parallel.tp_degree

    def kv_bytes_per_token(self) -> float:
        """KV bytes per token under this engine's precision preset.

        Delegates to the preset's shared geometry formula, so the cluster's
        transfer pricing and the speculative decoder's draft-KV split read
        the exact float the page allocator uses — no rebuilt managers.
        """
        return self.system.kv_bytes_per_token(self.model)

    def new_kv_manager(self, capacity_bytes: Optional[float] = None
                       ) -> PagedKVCacheManager:
        """A fresh KV manager; ``capacity_bytes`` overrides the memory-model
        capacity (speculative decoding reserves part of it for the draft)."""
        if capacity_bytes is None:
            capacity_bytes = self.kv_capacity_bytes()
        return PagedKVCacheManager(
            model=self.model, system=self.system,
            capacity_bytes=capacity_bytes,
            max_seq_len=self.max_seq_len)

    # ------------------------------------------------------------------
    # Kernel-level latency
    # ------------------------------------------------------------------
    @memoised("gemm")
    def _block_gemm_latency(self, tokens: int) -> float:
        """Sum of one transformer block's per-GPU GEMM latencies for ``tokens`` rows.

        Under tensor parallelism the QKV and gate/up projections shard their
        output dimension and the output/down projections shard their
        reduction dimension (Megatron column/row parallelism), so each GPU
        runs the same four GEMMs at ``1/tp`` of one matrix dimension.
        Memoised on ``tokens`` — a serving loop prices the same row counts
        (the decode batch sizes and chunk budgets in flight) thousands of
        times per run.
        """
        h = self.model.hidden_size
        kv = self.model.kv_dim
        inter = self.model.intermediate_size
        tp = self.parallel.tp_degree
        p = self.gemm_precision
        shapes = [
            (tokens, (h + 2 * kv) // tp, h),    # fused QKV projection (column)
            (tokens, h, h // tp),               # output projection (row)
            (tokens, 2 * inter // tp, h),       # fused gate + up projection (column)
            (tokens, h, inter // tp),           # down projection (row)
        ]
        total = 0.0
        for m, n, k in shapes:
            total += gemm_latency(self.gpu, m, n, k, p).total
        if self.model.num_experts > 1:
            # MoE: each token is routed to `experts_per_token` experts; GEMM
            # work scales accordingly but weight traffic covers all experts'
            # parameters once per iteration (they all must be resident).
            moe_factor = self.model.experts_per_token
            ffn = (gemm_latency(self.gpu, tokens, 2 * inter // tp, h, p).total
                   + gemm_latency(self.gpu, tokens, h, inter // tp, p).total)
            total += ffn * (moe_factor - 1)
        return total

    def _prefill_attention_latency(self, macs: float) -> float:
        """Compute-bound FP16 tensor-core attention latency for ``macs`` MACs."""
        return (2.0 * macs / (self.gpu.tensor_core_tops("fp16") * 1e12
                              * self.gpu.compute_efficiency)) * self.model.num_layers

    @memoised("lm_head")
    def _lm_head_latency(self, batch: int) -> float:
        """Latency of the (vocab-sharded) FP16 LM head for ``batch`` tokens."""
        vocab = self.parallel.shard_ceil(self.model.vocab_size)
        return gemm_latency(self.gpu, batch, vocab, self.model.hidden_size,
                            GEMM_PRECISIONS["fp16"]).total

    @memoised("comm")
    def _comm_latency(self, tokens: int) -> float:
        """Tensor-parallel all-reduce time of one iteration over ``tokens``
        rows; callers skip it on a single GPU, where it is zero."""
        return self.parallel.block_comm_latency(
            tokens, self.model.hidden_size, self.model.num_layers)

    @memoised("attn")
    def _decode_attention_latency(self, batch: int, context_len: int) -> float:
        """All-layer decode-attention latency for ``batch`` sequences over
        ``context_len`` cached tokens (memoised on the ``(batch, context)``
        shape — the pair a steady decode batch repeats step after step)."""
        tp = self.parallel.tp_degree
        return attention_decode_latency(
            self.gpu, self.attention_kernel, batch, max(1, context_len),
            self.model.num_heads // tp, self.model.num_kv_heads // tp,
            self.model.head_dim,
        ).total * self.model.num_layers

    def _kv_reprice_latency(self, tokens: int, read_bytes_per_token: float,
                            write_bytes_per_token: float) -> float:
        """Cost of re-quantizing ``tokens`` of KV state on this engine's GPUs.

        One fused pass over the KV elements, shaped like the Fig. 18 dequant
        epilogue of the QServe KV4 kernel: memory moves the source bytes in
        and the target bytes out, CUDA cores pay the bit-trick dequantization
        plus control overhead per element in FP16, and the roofline max of
        the two plus one kernel launch is the cost.  KV heads shard across
        the TP group like everywhere else.
        """
        if tokens <= 0:
            return 0.0
        tp = self.parallel.tp_degree
        elements = 2.0 * tokens * self.model.num_layers * self.model.kv_dim / tp
        mem_bytes = (read_bytes_per_token + write_bytes_per_token) * tokens / tp
        mem_time = mem_bytes / (self.gpu.effective_bandwidth_gbps * 1e9)
        kernel = KV_KERNELS["kv4-qserve"]
        ops = kernel.dequant_ops_per_element + kernel.control_ops_per_element
        cuda_peak = (self.gpu.cuda_core_tops(kernel.compute_dtype) * 1e12
                     * self.gpu.compute_efficiency)
        compute_time = elements * ops / cuda_peak
        return ((max(mem_time, compute_time) + KERNEL_LAUNCH_OVERHEAD_S)
                / self.system.runtime_efficiency)

    @memoised("kv_dequant")
    def kv_dequant_latency(self, tokens: int) -> float:
        """Cost of promoting ``tokens`` of demoted (4-bit) KV state back to
        this system's native precision — charged when a request hits a
        prefix-cache block the cache demoted under memory pressure."""
        return self._kv_reprice_latency(
            tokens,
            self.system.demoted_kv_bytes_per_token(self.model),
            self.system.kv_bytes_per_token(self.model))

    @memoised("kv_transcode")
    def kv_transcode_latency(self, tokens: int, source: SystemConfig) -> float:
        """Cost of re-quantizing ``tokens`` of KV state arriving from a
        replica running ``source`` into this engine's KV precision — the
        landing-side repricing of a mixed-precision KV migration."""
        return self._kv_reprice_latency(
            tokens,
            source.kv_bytes_per_token(self.model),
            self.system.kv_bytes_per_token(self.model))

    def decode_step(self, batch: int, context_len: int) -> StepBreakdown:
        """Latency of one decoding iteration for ``batch`` sequences: the
        :meth:`mixed_step` with no prefill chunks."""
        if batch <= 0:
            raise ValueError("batch must be positive")
        return self.mixed_step((), batch, context_len)

    def prefill(self, batch: int, prompt_len: int) -> StepBreakdown:
        """Latency of prefilling ``batch`` prompts of ``prompt_len`` tokens:
        the :meth:`mixed_step` of ``batch`` whole-prompt chunks with no
        decodes."""
        if batch <= 0:
            raise ValueError("batch must be positive")
        return self.mixed_step([(prompt_len, 0)] * batch, 0, 0)

    def mixed_step(self, prefill_chunks: Sequence[Tuple[int, int]],
                   decode_batch: int, decode_context: int) -> StepBreakdown:
        """Latency of one iteration — the engine's single pricing rule.

        ``prefill_chunks`` holds ``(chunk_len, tokens_already_prefilled)``
        pairs: each chunk's queries attend to the KV state accumulated so far
        plus the chunk itself, so a prompt split into chunks costs the same
        order of attention MACs as the monolithic prefill.  Prefill attention
        is a compute-bound FP16 matmul of ``2 * chunk_len * (done +
        chunk_len) * H * D`` MACs per layer (QK^T and SV) on tensor cores;
        head sharding divides the MACs across the TP group.
        ``decode_batch`` sequences additionally each generate one token
        against ``decode_context`` tokens of KV cache.  GEMM cost is shared —
        all prefill-chunk and decode tokens go through the projections as
        one batched matmul, which is exactly why chunked prefill keeps the
        GPU saturated without stalling decodes.  A plain decode step and a
        batched prefill are the two special cases (:meth:`decode_step`,
        :meth:`prefill`).
        """
        model = self.model
        tokens = decode_batch
        attn = 0.0
        if prefill_chunks:
            macs = 0.0
            for chunk_len, done in prefill_chunks:
                tokens += chunk_len
                macs += 2.0 * chunk_len * (done + chunk_len) * \
                    model.num_heads * model.head_dim
            attn = self._prefill_attention_latency(
                macs / self.parallel.tp_degree)
        if tokens <= 0:
            raise ValueError("mixed_step needs at least one token of work")
        gemm = self._block_gemm_latency(tokens) * model.num_layers
        # LM head only for the decode tokens; mid-prompt logits are discarded.
        lm = 0.0
        if decode_batch > 0:
            attn += self._decode_attention_latency(decode_batch, decode_context)
            lm = self._lm_head_latency(decode_batch)
        eff = self.system.runtime_efficiency
        return StepBreakdown(
            gemm=(gemm + lm) / eff, attention=attn / eff,
            other=_STEP_OVERHEAD_S / eff,
            comm=(self._comm_latency(tokens) if self.parallel.is_parallel
                  else 0.0))

    def decode_row(self, batch: int, first_context: int,
                   count: int) -> List[float]:
        """``decode_step(batch, c).total`` for each of the ``count`` contexts
        ``c`` from ``first_context`` on, bit for bit, in one pass.

        A plain decode step's total is ``((G + A(c)) + O) + C`` in
        :meth:`mixed_step`'s float order, and only the attention term
        ``A(c)`` depends on the context: the GEMM and LM-head term ``G``,
        the fixed overhead ``O`` and the all-reduce ``C`` are read once per
        call, and ``A`` comes from the attention roofline's row form
        (:func:`~repro.gpu.attention_kernel.attention_decode_row`).
        """
        model, tp = self.model, self.parallel.tp_degree
        layers, eff = model.num_layers, self.system.runtime_efficiency
        gemm = (self._block_gemm_latency(batch) * layers
                + self._lm_head_latency(batch)) / eff
        other = _STEP_OVERHEAD_S / eff
        comm = self._comm_latency(batch) if self.parallel.is_parallel else 0.0
        first = max(1, first_context)  # context 0 prices as context 1
        attn = attention_decode_row(
            self.gpu, self.attention_kernel, batch, first, count,
            model.num_heads // tp, model.num_kv_heads // tp, model.head_dim)
        if first > first_context:
            attn = (attn[:1] * (first - first_context) + attn)[:count]
        return [((gemm + a * layers / eff) + other) + comm for a in attn]

    def _decode_latency(self, batch: int, context: int) -> float:
        """``decode_step(batch, context).total``, read from ``batch``'s
        latency row (:meth:`CostModelCache.row`) and priced into it by
        :meth:`decode_row` if missing."""
        row, start = self.cost_cache.row(batch, context)
        slot = context - start
        if slot == len(row) or row[slot] != row[slot]:  # NaN: unpriced
            row[slot:slot + 1] = array("d", self.decode_row(batch, context, 1))
        return row[slot]

    def speculative_verify_step(self, verify_chunks: List[Tuple[int, int]],
                                prefill_chunks: List[Tuple[int, int]] = (),
                                decode_batch: int = 0,
                                decode_context: int = 0) -> StepBreakdown:
        """Latency of one speculative verification iteration.

        ``verify_chunks`` holds one ``(tokens, context)`` pair per
        speculating request: the ``k + 1`` candidate positions (drafted
        tokens plus the bonus position) score against ``context`` tokens of
        KV state plus the block itself — the same GEMM/attention shape as a
        chunked-prefill chunk, so verification reuses :meth:`mixed_step`'s
        cost path and shares its projection GEMMs with any ``prefill_chunks``
        and plain decodes riding the iteration.  The one difference from a
        prefill chunk: *every* verified position needs logits to compare
        against the draft, so the LM head covers all verify tokens instead
        of being skipped for mid-chunk positions.
        """
        if not verify_chunks:
            raise ValueError("speculative_verify_step needs >= 1 verify chunk")
        chunks = list(prefill_chunks) + list(verify_chunks)
        base = self.mixed_step(chunks, decode_batch, decode_context)
        lm = self._lm_head_latency(sum(t for t, _ in verify_chunks))
        eff = self.system.runtime_efficiency
        return StepBreakdown(gemm=base.gemm + lm / eff, attention=base.attention,
                             other=base.other, comm=base.comm)

    # ------------------------------------------------------------------
    # System-level serving loop
    # ------------------------------------------------------------------
    def _plan_latency(self, plan: IterationPlan) -> float:
        """Cost-model latency of executing one iteration plan.

        A plan with no prefill chunks is a plain decode iteration: its
        latency is its slot of the batch's latency row, the row the coast
        reads (:meth:`_decode_latency`).

        Prefix-cache hits shrink the work: only a request's cold suffix is
        prefilled, but its queries still attend across the cached prefix, so
        cached tokens enter the attention context (the ``done`` offset of
        each chunk) without contributing projection GEMM rows.  The legacy
        stall-the-world prefill pads every admitted prompt to the longest
        one (a batched prefill) unless a cache hit gives some prompt an
        offset, in which case it prices the exact chunks like any plan.
        """
        prefills = plan.prefill_chunks
        if not prefills:
            return self._decode_latency(len(plan.decode), plan.decode_context)
        if plan.stalled_prefill and not any(
                r.cached_tokens for r, _ in prefills):
            prompt_len = max(r.prefill_target for r, _ in prefills)
            chunks = [(prompt_len, 0)] * len(prefills)
        else:
            chunks = plan.chunk_pairs()
        return self.mixed_step(chunks, len(plan.decode),
                               plan.decode_context).total

    def serve(self, workload: Workload, max_num_seqs: Optional[int] = None,
              scheduling: Optional[SchedulingConfig] = None,
              speculative: Optional[SpeculativeConfig] = None,
              telemetry: Union[None, bool, TelemetryConfig, Tracer] = None
              ) -> ServingResult:
        """Run the continuous-batching loop over ``workload`` on a simulated clock.

        ``scheduling`` selects the policy/planner/preemption preset; the
        default :data:`LEGACY_SCHEDULING` reproduces the seed engine exactly.
        ``speculative`` turns decode iterations into draft-and-verify steps
        (see :mod:`repro.serving.speculative`); ``None`` keeps every result
        bitwise-identical to the non-speculative engine.
        ``telemetry`` attaches a :class:`~repro.serving.telemetry.Tracer`
        (``True`` for the defaults, a :class:`TelemetryConfig` to tune the
        recorders, or a pre-built tracer); the trace rides back on
        ``ServingResult.telemetry``.  Tracing only *observes* — a traced run
        simulates the exact same schedule as an untraced one.
        Requests a configuration can never admit (e.g. a context larger than
        the whole KV cache under conservative reservation) are left unserved
        and counted in ``ServingResult.num_unserved`` rather than hanging the
        loop.
        """
        stepper = EngineStepper(self, scheduling=scheduling,
                                max_num_seqs=max_num_seqs,
                                speculative=speculative,
                                telemetry=telemetry)
        stepper.submit(list(workload.requests))
        stepper.run()
        return stepper.result(workload)


class EngineStepper:
    """Incremental driver of one engine's continuous-batching loop.

    Owns the scheduler, planner and simulated clock of a single serving run
    and advances them one iteration per :meth:`step`; :meth:`run_until`
    (and :meth:`run`) add a coast through the event-free decode iterations
    between steps.  :meth:`ServingEngine.serve` simply drives a stepper to
    completion; :class:`repro.serving.cluster.ClusterEngine` instead
    interleaves several steppers so that routing decisions observe each
    replica's queue state at the moment a request arrives.

    Unlike :meth:`ServingEngine.serve`, requests may be submitted
    incrementally between steps (arrival times must not precede work already
    simulated — the cluster router feeds requests in arrival order).
    """

    def __init__(self, engine: ServingEngine,
                 scheduling: Optional[SchedulingConfig] = None,
                 max_num_seqs: Optional[int] = None,
                 migrate_out: bool = False,
                 speculative: Optional[SpeculativeConfig] = None,
                 telemetry: Union[None, bool, TelemetryConfig, Tracer] = None,
                 model_name: Optional[str] = None,
                 kv_capacity_bytes: Optional[float] = None
                 ) -> None:
        self.engine = engine
        #: Multi-model serving: the model this stepper runs.  Guards
        #: admission (the scheduler rejects requests tagged for another
        #: model) and namespaces the prefix cache's block hashes so no two
        #: models can share KV blocks.  ``None`` (the default) is the
        #: single-model world, bitwise-identical to before.
        self.model_name = model_name
        #: Multiplexed serving attaches the replica's
        #: :class:`~repro.serving.multiplex.ModelResidency` to exactly one
        #: of the replica's steppers; counter collection picks it up there.
        self.residency = None
        #: Telemetry recorder; ``None`` (the default) records nothing and
        #: keeps the loop's hot path free of tracing work beyond one pointer
        #: test per hook site.
        telemetry = resolve_telemetry(telemetry)
        self.tracer: Optional[Tracer] = (
            Tracer(telemetry) if isinstance(telemetry, TelemetryConfig)
            else telemetry)
        #: Prefill-role behaviour (disaggregated serving): the instant a
        #: request completes its prefill it is exported from the scheduler
        #: and parked in :attr:`outbox` for the cluster to migrate, so this
        #: replica never runs a decode iteration.
        self.migrate_out = migrate_out
        self.outbox: List[Request] = []
        self.scheduling = scheduling or LEGACY_SCHEDULING
        self.planner = self.scheduling.build_planner()
        #: Speculative-decoding runtime; ``None`` runs plain decode
        #: iterations.  The draft model's weights and shadow KV cache come
        #: out of this replica's KV budget, so the page pool shrinks.
        self.spec: Optional[SpeculativeDecoder] = None
        #: ``kv_capacity_bytes`` overrides the engine memory model's KV
        #: budget (multiplexed serving carves one pool per resident-capable
        #: model); the speculative draft reservation then applies on top.
        kv_capacity: Optional[float] = kv_capacity_bytes
        if speculative is not None:
            self.spec = SpeculativeDecoder(engine, speculative)
            kv_capacity = self.spec.usable_kv_capacity(
                engine.kv_capacity_bytes() if kv_capacity_bytes is None
                else kv_capacity_bytes)
            if hasattr(self.planner, "decode_token_weight"):
                # A speculating request consumes lookahead + 1 iteration
                # tokens (its verified block), so the chunked planner's
                # per-iteration token budget must charge it accordingly —
                # otherwise speculation would silently blow the cap the
                # budget exists to enforce.
                self.planner.decode_token_weight = \
                    lambda r: self.spec.lookahead_for(r) + 1
        kv_manager = engine.new_kv_manager(capacity_bytes=kv_capacity)
        self.prefix_cache: Optional[PrefixCache] = None
        if self.scheduling.prefix_caching:
            if not engine.system.paged_kv:
                raise ValueError(
                    f"prefix caching requires a paged KV cache; system "
                    f"{engine.system.name!r} is non-paged")
            self.prefix_cache = PrefixCache(
                kv_manager, demotion=self.scheduling.kv_demotion,
                namespace=model_name)
        self.scheduler = ContinuousBatchingScheduler(
            kv_manager=kv_manager,
            scheduling=self.scheduling,
            max_num_seqs=max_num_seqs,
            prefix_cache=self.prefix_cache,
            tracer=self.tracer,
            model_name=model_name)
        self.now = 0.0
        self.iterations = 0
        self.peak_batch = 0
        self.generated = 0
        self.busy_s = 0.0
        self.kv_utilization_peak = 0.0
        self._guard = 0
        #: The bound :meth:`stable_until` reads (``-inf`` for none).
        self._quiet_bound = -math.inf

    # ------------------------------------------------------------------
    def submit(self, requests) -> None:
        """Queue more requests (a list, or one request) for this run."""
        if isinstance(requests, Request):
            requests = [requests]
        self._quiet_bound = -math.inf  # the work may start a step sooner
        self.scheduler.submit(list(requests))

    @property
    def done(self) -> bool:
        """No waiting or running requests remain."""
        return self.scheduler.all_done

    # -- queue-state views used by cluster routers ----------------------
    @property
    def outstanding_requests(self) -> int:
        """Requests accepted but not yet finished (waiting + running)."""
        return self.scheduler.num_waiting + len(self.scheduler.running)

    @property
    def pending_prefill_tokens(self) -> int:
        """Prefill (or recompute) tokens still owed to queued/prefilling requests."""
        scheduler = self.scheduler
        return (sum(r.prefill_remaining for r in scheduler.queued())
                + sum(r.prefill_remaining for r in scheduler.prefilling_requests()))

    def cached_prefix_tokens(self, request: Request) -> int:
        """Prompt tokens this replica's prefix cache would serve ``request``.

        Zero when prefix caching is off; used by the cluster's
        prefix-affinity router to find the warmest replica.
        """
        if self.prefix_cache is None:
            return 0
        return self.prefix_cache.lookup_tokens(request)

    def pin_for_import(self, request: Request) -> int:
        """Pin the cached prefix an incoming migration will reuse; returns
        its token count.

        Called by the cluster when it routes a prefill→decode handoff here:
        the KV-transfer payload is priced minus these tokens, so the blocks
        are referenced immediately — eviction cannot pull them out while the
        transfer is in flight, keeping the priced payload and the pages
        adopted at admission consistent.  Admission detects the existing
        references and skips re-matching.
        """
        if self.prefix_cache is None:
            return 0
        nodes, tokens = self.prefix_cache.match(request)
        self.prefix_cache.acquire(request, nodes, count_stats=False)
        return tokens

    # -- multiplexed-replica hooks --------------------------------------
    def sync_clock(self, t: float) -> None:
        """Advance the idle clock to ``t`` (never backwards).

        Multiplexed serving serializes one replica's per-model steppers on
        one GPU timeline: while a sibling model's iteration (or a weight
        swap) ran, this stepper was stalled, so its clock must not lag the
        replica clock when it next executes.  Pure idle time — busy-seconds
        are untouched.
        """
        if t > self.now:
            self.now = t

    def charge_busy(self, seconds: float) -> float:
        """Occupy the replica for ``seconds`` (e.g. a weight swap-in).

        Advances the clock and busy-time without running an iteration;
        returns the window's start time so callers can record a span.
        """
        t0 = self.now
        self.now += seconds
        self.busy_s += seconds
        return t0

    def next_ready_time(self) -> Optional[float]:
        """Earliest instant this stepper could execute work.

        ``now`` when something is running, or an arrived request waits that
        a pass may take or shed
        (:meth:`~ContinuousBatchingScheduler.ready_can_change`: a turn at
        ``now`` would only scan the others and admit nothing), the head
        pending request's availability otherwise, ``None`` when the
        stepper is fully drained.  The multiplexed replica loop uses this
        to pick which model's stepper owns the GPU next.
        """
        scheduler = self.scheduler
        if scheduler.running or scheduler.ready_can_change():
            return self.now
        available = scheduler.next_available_time()
        return None if available is None else max(self.now, available)

    # -- cluster host interface -----------------------------------------
    @property
    def steppers(self) -> Tuple["EngineStepper", ...]:
        """The steppers a cluster slot hosts: a plain replica is one."""
        return (self,)

    def stepper_for(self, request: Request) -> "EngineStepper":
        """The stepper that would serve ``request`` on this replica."""
        return self

    def stable_until(self) -> float:
        """A lower bound on when this stepper's next :meth:`step` starts.

        Until then :meth:`run_until` only coasts (see :meth:`_coast`), which
        changes nothing a router, the drain target or the autoscaler reads:
        no request arrives, is admitted, prefills, gets a first token,
        finishes or is shed, and no prefix-cache block moves.  So a cluster
        may leave this stepper behind an event at or before the bound and
        coast it later, to the same iterations.

        The bound the last :meth:`_coast` recorded for the window it
        stopped in; a :meth:`step` or a :meth:`submit` since then drops
        it.  Without one, ``inf`` with nothing left to do, else the clock.
        (An evacuated stepper may keep a stale one: it holds no work, so
        any bound holds until a submit drops it.)
        """
        if self._quiet_bound > self.now:  # a window that ``t`` cut
            return self._quiet_bound
        return math.inf if self.scheduler.all_done else self.now

    def evacuate(self, now: float) -> Tuple[List[Request], List[Request]]:
        """Empty this replica at ``now`` for a scale-down drain.

        Decoding requests are exported with their KV state for the caller
        to migrate; partially prefilled ones are preempted — a partial
        prefill is cheaper to recompute than to ship — and join the waiting
        queue, which is handed back whole for rerouting.  Returns
        ``(exported, waiting)``; trace events land at ``now``.
        """
        scheduler = self.scheduler
        exported = scheduler.decoding_requests()
        for request in exported:
            scheduler.export_request(request, now)
        for request in scheduler.prefilling_requests():
            scheduler.preempt(request, now)
        return exported, scheduler.take_waiting()

    # ------------------------------------------------------------------
    def step(self, horizon: Optional[float] = None) -> bool:
        """Run one pass of the serving-loop body.

        Returns ``False`` once no further progress is possible with the
        requests submitted so far: everything finished, or the remaining
        requests can never be admitted (they stay unserved).

        ``horizon`` bounds the idle jump: an idle replica never advances its
        clock past it to a strictly-later availability.  The cluster's event
        loop passes the current event time so that a replica waiting only on
        an in-flight KV transfer does not leap over events (arrivals,
        earlier migrations) the cluster has yet to deliver.  Iterations
        themselves stay atomic and may still overshoot.
        """
        scheduler = self.scheduler
        self._quiet_bound = -math.inf
        if scheduler.all_done:
            return False
        self._guard += 1
        if self._guard > _MAX_ITERATIONS:
            raise RuntimeError("serving loop failed to terminate")
        admitted = scheduler.admit(self.now)
        if self.scheduling.preemption:
            # Claim pages for every decode before planning; may preempt
            # any running request — including one admitted just above, so
            # drop evictees from the admitted list before planning.  With
            # speculation the claim covers the whole drafted block
            # (rejected tokens are trimmed back after verification).
            scheduler.prepare_decode(
                self.now,
                lookahead=None if self.spec is None else self.spec.lookahead_for)
            admitted = [r for r in admitted
                        if r.state is RequestState.PREFILLING]
        plan = self.planner.plan(scheduler, admitted)
        if plan.is_empty:
            # Nothing runnable at ``now``, and replanning at the same clock
            # would make no progress: jump to the next strictly-future
            # arrival (for migrated requests, the instant their KV transfer
            # lands) — only a new admission can unwedge the loop — or stop
            # and report the stuck requests as unserved.  This applies with
            # or without a running batch: an arrived request that can never
            # be admitted (larger than the whole KV cache) strands only
            # itself, not every later arrival.  Admission just moved every
            # request available by ``now`` out of the pending queue, so that
            # arrival is the pending head.
            jump = scheduler.next_available_time()
            if jump is None:
                return False
            if horizon is not None and jump > horizon:
                return False
            self.now = jump
            return True
        self.kv_utilization_peak = max(self.kv_utilization_peak,
                                       self.scheduler.kv_manager.utilization())
        outcome = None
        if self.spec is not None and plan.decode:
            outcome = self.spec.run_iteration(plan.decode, plan.chunk_pairs())
            latency = outcome.latency_s
        else:
            latency = self.engine._plan_latency(plan)
        latency += self._dequant_charge(plan)
        t0 = self.now
        self.now += latency
        self.busy_s += latency
        self.iterations += 1
        committed = 0
        if plan.decode:
            self.peak_batch = max(self.peak_batch, len(plan.decode))
            if outcome is not None:
                committed = outcome.committed_tokens
                self.generated += committed
                scheduler.record_decode_step(self.now, commits=outcome.commits)
            else:
                committed = len(plan.decode)
                self.generated += committed
                scheduler.record_decode_step(self.now)
        if self.tracer is not None:
            for request, tokens in plan.prefill_chunks:
                self.tracer.prefill_chunk(request, tokens, t0, self.now)
        for request, tokens in plan.prefill_chunks:
            scheduler.record_prefill(request, tokens, self.now)
        if self.migrate_out:
            # Prefill role: anything that just completed its prefill (state
            # DECODING, before any decode step could be planned for it) is
            # exported for migration to a decode replica, stamped after
            # this iteration's latency elapsed.
            for request in scheduler.decoding_requests():
                scheduler.export_request(request, self.now)
                self.outbox.append(request)
        if self.tracer is not None:
            self.tracer.iteration(
                t0, self.now, sum(t for _, t in plan.prefill_chunks),
                len(plan.prefill_chunks), len(plan.decode), committed, self)
        return True

    def _dequant_charge(self, plan: IterationPlan) -> float:
        """Latency of the dequantization passes ``plan``'s prefills pay.

        A prefill starting over demoted prefix-cache blocks first pays the
        pass that restores them (see :meth:`ServingEngine.kv_dequant_latency`);
        only a request's first chunk carries the charge.  Zero — which
        leaves the iteration latency bitwise-untouched — whenever demotion
        is off.  Traced passes are stamped at the iteration's start.
        """
        dequant = 0.0
        for request, _ in plan.prefill_chunks:
            if request.prefilled == 0 and request.demoted_hit_tokens:
                cost = self.engine.kv_dequant_latency(
                    request.demoted_hit_tokens)
                dequant += cost
                if self.tracer is not None:
                    self.tracer.kv_dequant(request, self.now,
                                           request.demoted_hit_tokens, cost)
        return dequant

    def run(self) -> None:
        """Step until no further progress is possible."""
        self.run_until(math.inf)

    def run_until(self, t: float, horizon: Optional[float] = None) -> bool:
        """Advance the clock to (at least) ``t`` or until progress stops.

        The clock may overshoot ``t`` because iterations are atomic, but an
        idle replica never *jumps* past ``horizon`` (default ``t``): a
        replica whose only pending work becomes available after it (e.g. a
        migrated request with an in-flight KV transfer) keeps its clock and
        waits for a later call.  A multiplexed replica passes a horizon
        before ``t``: the instant a sibling model may take the GPU.
        The call first resumes the quiet decode window an earlier call's
        horizon cut short, and follows each :meth:`step` with a coast
        through the quiet iterations after it (both :meth:`_coast`), so a
        run pays per event, not per iteration.  A cluster calls it only
        when an event can observe the replica (see :meth:`stable_until`),
        so a window may resume many events after the call that cut it.
        Returns whether any iteration or idle jump ran.
        """
        iterations = self.iterations
        self._coast(t)
        stepped = False
        while not self.done and self.now < t:
            if not self.step(horizon=t if horizon is None else horizon):
                break
            stepped = True
            self._coast(t)
        return stepped or self.iterations != iterations

    def _coast(self, t: float) -> None:
        """Run the plain decode iterations that provably hold no event,
        while the clock is before ``t``: one quiet window.

        Each one is exactly the iteration :meth:`step` would run: admission
        changes nothing but its counters, nothing prefills, and no first
        token or finish falls due before the window's next event, ``until``
        (:meth:`~ContinuousBatchingScheduler.quiet_window`).  The window
        may start after a :meth:`step` or resume where a call's ``t`` cut it.

        Inside the window the batch is fixed and the mean context grows by
        exactly one per iteration, so iteration ``k`` costs slot ``k`` of
        the batch's latency row from the window's first context
        (:meth:`CostModelCache.row`, the row :meth:`step` reads).  A
        missing slot is priced in one :meth:`ServingEngine.decode_row` call
        with the slots after it that fit before ``t`` at the previous slot's
        latency, as a row does not fall along context, or alone if no
        previous slot is priced.
        Latencies are added to the clock one at a time, in order, so it is
        bitwise that of stepping; the counters are written once, at the
        end.  A page crossing is claimed in the window
        (:meth:`~ContinuousBatchingScheduler.claim_crossings`) while at
        least one page per decoder is free — a plain crossing claims one
        page, so the pass cannot evict or preempt — and otherwise ends the
        window; a deferring window also keeps one page more, so the pool
        never empties and turns its passes into fast skips.  A speculative
        stepper never coasts, since its commits vary per request.

        The call records the bound :meth:`stable_until` reads: the clock,
        unless ``t`` rather than an event ends the window (then see
        :meth:`_cut_bound`).
        """
        scheduler = self.scheduler
        self._quiet_bound = now = self.now
        if self.spec is not None:
            return
        quiet, claim, skips, deferred, until = scheduler.quiet_window()
        if quiet <= 0 or now >= until:
            return
        cut = t < until  # else the window's next event comes first
        if not cut:
            t = until
        batch = len(scheduler.running)  # nothing prefills: all decode
        context = scheduler.decode_context_len()
        tracer, kv, nan = self.tracer, scheduler.kv_manager, math.nan
        row, start = self.engine.cost_cache.row(batch, context)
        slot, size = context - start, len(row)
        busy, free = self.busy_s, None  # free pages: read at the first claim
        floor = batch + 1 if deferred else batch  # free pages a claim needs
        # ``d`` is the decode iteration about to run: the window ends before
        # ``end``, and the next crossing pass is due at ``due``.
        first = d = scheduler.decode_iterations
        end, due = d + quiet, d + claim
        while d < end and now < t:
            if d >= due:
                if free is None:
                    free = kv.free_pages
                if free < floor:
                    break
                scheduler.decode_iterations = d
                free -= scheduler.claim_crossings()
                due = d + scheduler.decode_window()[1]
            latency = row[slot] if slot < size else nan
            if latency != latency:  # NaN: price the slots ``t`` lets run
                n, prev = end - d, row[slot - 1] if slot else nan
                if prev != prev:
                    n = 1
                elif t - now < n * prev:  # rows do not fall along context
                    n = int((t - now) / prev) + 1
                row[slot:slot + n] = array("d", self.engine.decode_row(
                    batch, start + slot, n))
                latency, size = row[slot], len(row)
            slot += 1
            t0 = now
            now += latency
            busy += latency
            d += 1
            if tracer is not None:
                scheduler.decode_iterations = d
                tracer.iteration(t0, now, 0, 0, batch, batch, self)
        ran = d - first
        if ran:
            # A plain decode step with no event is the decode counter's tick.
            scheduler.decode_iterations = d
            scheduler.admission_fast_skips += skips * ran
            scheduler.tier_deferrals += deferred * ran
            self.now, self.busy_s = now, busy
            self.iterations += ran
            self.generated += batch * ran
            self.peak_batch = max(self.peak_batch, batch)
            self.kv_utilization_peak = max(self.kv_utilization_peak,
                                           kv.utilization())
        if cut and d < end and now >= t:
            self._quiet_bound = self._cut_bound(
                batch, start + slot, end - d, due - d, floor, until)

    def _cut_bound(self, batch: int, context: int, left: int, due: int,
                   floor: int, until: float) -> float:
        """The bound :meth:`stable_until` reads after a quiet window that
        the caller's ``t`` cut, ``left`` iterations short of its end, at
        ``context``: the clock after the remaining iterations (those before
        the claim pass due in ``due`` iterations, if pages may run short
        there: a decoder claims at most one page per ``page_size``
        iterations, and a claim needs ``floor`` free pages), each priced as
        the next, since a latency row does not decrease along context; less
        a relative 1e-9 plus two ulps of the window's end per iteration, for
        the rounding of the clock's sequential sum; and capped at
        ``until``."""
        kv = self.scheduler.kv_manager
        if due < left and kv.free_pages < batch * (
                left // kv.page_size + 1) + floor:
            left = due
        latency = self.engine._decode_latency(batch, context)
        stop = self.now + left * latency
        return min(until, stop - left * (
            latency * 1e-9 + 2 * math.ulp(stop)))

    # ------------------------------------------------------------------
    def result(self, workload: Workload) -> ServingResult:
        """Assemble the :class:`ServingResult` of the requests in ``workload``.

        Per-request statistics (prompt tokens, finished/unserved counts,
        latency metrics) cover exactly ``workload``'s requests; run-level
        counters (clock, iterations, generated tokens, preemptions) always
        describe the whole run, which for a stepper fed several workloads is
        more than this slice.
        """
        # Count only prompts that actually completed a prefill: a loop that
        # stops with requests still waiting must not claim their tokens.
        prefilled_prompt_tokens = sum(
            r.prompt_len for r in workload.requests
            if r.prefill_done_time is not None)
        finished = [r for r in workload.requests if r.finish_time is not None]
        scheduler = self.scheduler
        if self.tracer is not None:
            self.tracer.finalize(self)
        return ServingResult(
            total_time_s=self.now,
            generated_tokens=self.generated,
            prompt_tokens=prefilled_prompt_tokens,
            peak_batch=self.peak_batch,
            num_iterations=self.iterations,
            num_finished=len(finished),
            num_unserved=len(workload.requests) - len(finished),
            num_dropped=len(scheduler.dropped),
            num_preemptions=scheduler.num_preemptions,
            recomputed_prefill_tokens=scheduler.recomputed_prefill_tokens,
            busy_time_s=self.busy_s,
            metrics=ServingMetrics.from_requests(finished),
            kv_utilization_peak=self.kv_utilization_peak,
            prefix_stats=(None if self.prefix_cache is None
                          else self.prefix_cache.stats),
            spec_stats=None if self.spec is None else self.spec.stats,
            counters=collect_counters(self),
            telemetry=self.tracer,
        )
