"""Decode-attention kernel latency model (Table 1, Section 5.3).

The decoding-stage attention kernel is a fused batched GEMV executed on CUDA
cores.  Its memory traffic is dominated by reading the KV cache; its compute
is the QK/SV dot products plus — for quantized caches — the per-element
dequantization.  The paper's observation is that on the A100 (whose FP32 CUDA
cores peak at only ~19.5 TFLOPS, a roofline turning point of ~9.8 ops/byte)
the 5 ALU ops a *naive* KV4 dequantization spends per element push the fused
kernel into the compute-bound region, so halving the memory traffic makes it
*slower* than KV8.  QServe gets back to memory-bound by (a) computing in FP16
instead of FP32 (doubling the roof), (b) using the 2-op bit-trick
dequantization of Kim et al., and (c) simplifying control flow / prefetching
scaling factors, modelled as a fixed per-element overhead that drops from 2
ops to 0.5 ops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.gpu.specs import GPUSpec

__all__ = [
    "AttentionKernelConfig",
    "AttentionLatency",
    "attention_decode_latency",
    "attention_decode_row",
    "KV_KERNELS",
    "KERNEL_LAUNCH_OVERHEAD_S",
]


@dataclass(frozen=True)
class AttentionKernelConfig:
    """One decode-attention kernel implementation.

    Attributes
    ----------
    kv_bits:
        KV-cache storage precision.
    dequant_ops_per_element:
        CUDA-core ops spent dequantizing each KV element (0 for FP16/INT8
        caches that convert with a single instruction folded into the MAC).
    control_ops_per_element:
        Additional per-element overhead for address calculation / control
        flow / scale handling.
    compute_dtype:
        CUDA-core dtype of the QK/SV arithmetic (FP32 for the TRT-LLM-style
        baseline kernels, FP16 for QServe's optimised kernel).
    dynamic_params:
        Whether per-head dynamic scales/zero points are stored with the cache
        (adds a small amount of memory traffic).
    """

    name: str
    kv_bits: int
    dequant_ops_per_element: float
    control_ops_per_element: float
    compute_dtype: str
    dynamic_params: bool = False


#: Fixed per-kernel-launch overhead (softmax epilogue, cross-warp reductions,
#: launch latency); calibrated so the KV8 baseline matches Table 1 end to end.
KERNEL_LAUNCH_OVERHEAD_S = 30e-6

#: Kernel variants compared in Table 1 and the Section 6.4 breakdown.  The
#: control-op constants are calibrated so the A100 column of Table 1 is
#: reproduced: the naive dynamic-per-head KV4 kernel (un-prefetched scales,
#: branchy control flow) is *slower* than TRT-LLM's static KV8 kernel, the
#: bit-trick dequantization recovers most of it, and the full QServe kernel
#: (FP16 arithmetic + simplified control + prefetched scales) is ~1.3-1.5x
#: faster than KV8.
KV_KERNELS: Dict[str, AttentionKernelConfig] = {
    "kv16": AttentionKernelConfig(
        name="kv16", kv_bits=16, dequant_ops_per_element=0.0,
        control_ops_per_element=1.0, compute_dtype="fp32"),
    "kv8-trt": AttentionKernelConfig(
        name="kv8-trt", kv_bits=8, dequant_ops_per_element=1.0,
        control_ops_per_element=1.0, compute_dtype="fp32"),
    "kv4-naive": AttentionKernelConfig(
        name="kv4-naive", kv_bits=4, dequant_ops_per_element=5.0,
        control_ops_per_element=7.0, compute_dtype="fp32", dynamic_params=True),
    "kv4-bittrick": AttentionKernelConfig(
        name="kv4-bittrick", kv_bits=4, dequant_ops_per_element=2.0,
        control_ops_per_element=7.0, compute_dtype="fp32", dynamic_params=True),
    "kv4-simplectrl": AttentionKernelConfig(
        name="kv4-simplectrl", kv_bits=4, dequant_ops_per_element=2.0,
        control_ops_per_element=3.0, compute_dtype="fp32", dynamic_params=True),
    "kv4-qserve": AttentionKernelConfig(
        name="kv4-qserve", kv_bits=4, dequant_ops_per_element=2.0,
        control_ops_per_element=1.0, compute_dtype="fp16", dynamic_params=True),
}


@dataclass
class AttentionLatency:
    """Latency breakdown of one decode-attention call (seconds)."""

    total: float
    memory: float
    compute: float

    @property
    def is_compute_bound(self) -> bool:
        return self.compute > self.memory


def _decode_roofline(spec: GPUSpec, kernel: AttentionKernelConfig,
                     batch: int, first_context: int, count: int,
                     num_heads: int, num_kv_heads: int, head_dim: int
                     ) -> Iterator[Tuple[float, float, float]]:
    """``(total, memory, compute)`` of one layer's decode attention at each
    of the ``count`` contexts from ``first_context`` on.

    Both sides of the roofline are linear in the context: the per-token
    element and byte counts below are exact integers, so scaling them by
    the context gives the same floats as counting the whole history at once.
    """
    if batch <= 0 or first_context <= 0:
        raise ValueError("batch and seq_len must be positive")
    per_token = 2.0 * batch * num_kv_heads * head_dim  # K and V elements

    # Memory traffic: quantized KV payload plus (for dynamic quantization) one
    # FP16 scale and zero point per head per token per tensor.
    bytes_per_token = per_token * kernel.kv_bits / 8.0
    if kernel.dynamic_params:
        bytes_per_token += 2.0 * batch * num_kv_heads * 2 * 2
    bandwidth = spec.effective_bandwidth_gbps * 1e9

    # Compute: every query head runs a MAC against every cached KV element of
    # its KV head (QK^T and SV), i.e. the KV elements are each used
    # `gqa_ratio` times, plus per-element dequantization and control overhead.
    macs_per_element = 2.0 * (num_heads / num_kv_heads)
    overhead_per_element = (kernel.dequant_ops_per_element
                            + kernel.control_ops_per_element)
    cuda_peak = spec.cuda_core_tops(kernel.compute_dtype) * 1e12
    throughput = cuda_peak * spec.compute_efficiency

    for context in range(first_context, first_context + count):
        elements = per_token * context
        memory = bytes_per_token * context / bandwidth
        compute = (elements * macs_per_element
                   + overhead_per_element * elements) / throughput
        yield (max(memory, compute) + KERNEL_LAUNCH_OVERHEAD_S,
               memory, compute)


def attention_decode_row(spec: GPUSpec, kernel: AttentionKernelConfig,
                         batch: int, first_context: int, count: int,
                         num_heads: int, num_kv_heads: int, head_dim: int
                         ) -> List[float]:
    """Total latency of one layer's decode attention at each of the
    ``count`` contexts from ``first_context`` on: the roofline in row form,
    for pricing a decode batch whose context grows by one per iteration.

    Slot ``i`` equals ``attention_decode_latency(..., first_context + i,
    ...).total`` bit for bit: both read the one formula.
    """
    return [total for total, _, _ in _decode_roofline(
        spec, kernel, batch, first_context, count,
        num_heads, num_kv_heads, head_dim)]


def attention_decode_latency(
    spec: GPUSpec,
    kernel: AttentionKernelConfig,
    batch: int,
    seq_len: int,
    num_heads: int,
    num_kv_heads: int,
    head_dim: int,
) -> AttentionLatency:
    """Latency of one layer's decode attention over a ``seq_len`` KV history.

    ``batch`` sequences each attend over ``seq_len`` cached tokens with
    ``num_heads`` query heads sharing ``num_kv_heads`` KV heads of width
    ``head_dim``.  A row of one (see :func:`attention_decode_row`).
    """
    total, memory, compute = next(_decode_roofline(
        spec, kernel, batch, seq_len, 1, num_heads, num_kv_heads, head_dim))
    return AttentionLatency(total=total, memory=memory, compute=compute)
