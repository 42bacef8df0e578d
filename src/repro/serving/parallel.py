"""Tensor-parallel sharding and communication model.

A model too large for one device is served by sharding every transformer
block across ``tp_degree`` GPUs Megatron-style: the QKV and gate/up
projections are split along their output dimension (column parallel), the
output and down projections along their input dimension (row parallel), and
attention heads are divided across devices.  Each layer then needs exactly
two all-reduces of the activations — one after the attention output
projection and one after the FFN down projection — which
:class:`ParallelConfig` charges to the interconnect's ring-all-reduce cost
model (:class:`repro.gpu.specs.InterconnectSpec`).

The memory side is what makes tensor parallelism interesting for Table 4:
weights and KV cache divide across GPUs, so a model whose weights alone
overflow one device (the table's "OOM" entries) becomes servable at
``tp_degree >= 2``, at the price of per-layer communication and smaller
per-GPU GEMMs.

``tp_degree == 1`` is the strict identity: no sharding, no communication,
and every latency/memory quantity bitwise equal to the single-GPU engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpu.specs import InterconnectSpec, NVLINK
from repro.model.config import ModelConfig
from repro.serving.request import check_positive_int

__all__ = ["ParallelConfig"]


@dataclass(frozen=True)
class ParallelConfig:
    """Tensor-parallel execution plan for one replica engine.

    Attributes
    ----------
    tp_degree:
        Number of GPUs one model replica is sharded across (1 = no
        parallelism).
    interconnect:
        Link the per-layer all-reduces run over
        (:data:`repro.gpu.specs.NVLINK` or :data:`~repro.gpu.specs.PCIE_GEN4`).
    """

    tp_degree: int = 1
    interconnect: InterconnectSpec = field(default=NVLINK)

    def __post_init__(self) -> None:
        check_positive_int("tp_degree", self.tp_degree)

    @property
    def is_parallel(self) -> bool:
        return self.tp_degree > 1

    def validate_for(self, model: ModelConfig) -> None:
        """Check that ``model`` shards evenly across ``tp_degree`` GPUs.

        Head sharding requires the query and KV head counts to divide by the
        TP degree (real deployments replicate KV heads below that point; the
        cost model keeps the honest constraint instead), and the FFN split
        requires the intermediate size to divide as well.
        """
        if self.tp_degree == 1:
            return
        for attr in ("num_heads", "num_kv_heads", "intermediate_size"):
            value = getattr(model, attr)
            if value % self.tp_degree != 0:
                raise ValueError(
                    f"{model.name}: {attr}={value} is not divisible by "
                    f"tp_degree={self.tp_degree}")

    # ------------------------------------------------------------------
    # Sharding helpers
    # ------------------------------------------------------------------
    def shard_ceil(self, dim: int) -> int:
        """Per-GPU share of a padded dimension (vocab-style sharding)."""
        return -(-dim // self.tp_degree)

    # ------------------------------------------------------------------
    # Communication cost
    # ------------------------------------------------------------------
    def allreduce_latency(self, payload_bytes: float) -> float:
        """Ring all-reduce time for one activation tensor (0 at tp=1)."""
        return self.interconnect.allreduce_latency(payload_bytes, self.tp_degree)

    def block_comm_latency(self, tokens: int, hidden_size: int,
                           num_layers: int) -> float:
        """Per-iteration all-reduce time across all transformer blocks.

        Each block all-reduces its FP16 activations twice (after the
        attention output projection and after the FFN down projection), so
        one iteration over ``tokens`` rows pays ``2 * num_layers`` ring
        all-reduces of ``tokens * hidden_size * 2`` bytes.
        """
        if not self.is_parallel:
            return 0.0
        payload = tokens * hidden_size * 2.0
        return 2 * num_layers * self.allreduce_latency(payload)
