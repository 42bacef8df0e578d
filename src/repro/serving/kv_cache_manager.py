"""Paged KV cache management (Section 5.1, "KV Cache Management").

QServe follows vLLM / TensorRT-LLM and stores the KV cache in fixed-size pages
to avoid fragmentation; unlike those systems it performs *per-head dynamic*
quantization, storing FP16 scales and zero points for each head immediately
after the quantized features inside each page.  The manager below implements
the bookkeeping: page-granular allocation per request, byte accounting that
includes the in-page quantization parameters, and the non-paged fallback used
to model systems without paged-attention support (QuaRot).

Reclamation: :meth:`PagedKVCacheManager.free` releases *all* pages of a
request at once — used both when a request finishes and when the scheduler
preempts it (recompute-style preemption rebuilds the KV cache from scratch on
readmission, so partial reclamation is never needed).  Freeing an id that was
already freed is counted in ``double_free_count`` (a refcounting bug that the
conservation accounting alone would hide) while freeing an id that never
allocated stays a legitimate no-op.

Pages live in two populations that both count toward capacity:

* **private** pages, owned by exactly one request (the historical behaviour);
* **shared** pages, owned by the prefix cache
  (:mod:`repro.serving.prefix_cache`) and referenced by any number of
  requests.  A shared page counts *once* toward ``used_pages`` no matter how
  many requests reference it; ``allocate``'s ``shared_pages`` argument tells
  the allocator how many of a request's pages are covered by the shared pool
  so the private allocation covers only the remainder.

Shared pages additionally carry a *precision tier*: under memory pressure the
prefix cache may **demote** a cold, unreferenced block to the 4-bit tier
(:data:`repro.serving.precision.DEMOTED_KV_BITS`), shrinking its byte
footprint without discarding its contents.  The page-granular accounting
models this as fractional capacity reclamation: ``demoted_pages`` blocks
each occupy only ``demoted_bytes_per_page / bytes_per_page`` of a page, and
the bytes they give back are re-granted as whole free pages
(``reclaimed_pages``, floored so capacity is never oversold).  Demotion and
promotion move pages between tiers without touching the lifetime
allocate/free counters — a demoted page is still one shared page — so the
conservation invariant ``pages_allocated_total == pages_freed_total`` at
drain is unchanged.  With zero demoted pages every quantity below is
bitwise-identical to the pre-tier accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

from repro.model.config import ModelConfig
from repro.serving.precision import SystemConfig
from repro.serving.request import check_positive_int

__all__ = ["PageAllocationError", "PagedKVCacheManager"]


class PageAllocationError(RuntimeError):
    """Raised when a request cannot be granted the pages it needs."""


@dataclass
class PagedKVCacheManager:
    """Page-granular KV cache allocator for one model on one device.

    Parameters
    ----------
    model:
        Model geometry (layers, KV heads, head dim).
    system:
        Serving-system preset; supplies KV precision, per-head parameter
        overhead and whether paging is supported at all.
    capacity_bytes:
        Device memory available for KV cache (what is left after weights and
        activation workspace).
    page_size:
        Tokens per page (16 in vLLM/TensorRT-LLM-style systems).
    max_seq_len:
        Worst-case sequence length; non-paged systems must reserve this much
        per request up front.
    """

    model: ModelConfig
    system: SystemConfig
    capacity_bytes: float
    page_size: int = 16
    max_seq_len: int = 2048
    _allocated: Dict[int, int] = field(default_factory=dict, init=False)
    #: Pages owned by the prefix cache's shared pool (each counted once).
    shared_pages: int = field(default=0, init=False)
    #: Subset of ``shared_pages`` currently held at the demoted 4-bit tier.
    demoted_pages: int = field(default=0, init=False)
    #: Lifetime tier-transition counters (diagnostics; never part of the
    #: allocate/free conservation ledger).
    pages_demoted_total: int = field(default=0, init=False)
    pages_promoted_total: int = field(default=0, init=False)
    #: Lifetime counters; every allocated page must eventually be freed, so a
    #: clean run ends with ``pages_allocated_total == pages_freed_total``.
    pages_allocated_total: int = field(default=0, init=False)
    pages_freed_total: int = field(default=0, init=False)
    #: Of the pages ever allocated, how many were filled by a KV transfer
    #: from another replica (disaggregated prefill→decode handoff) rather
    #: than by local prefill.  Subset of ``pages_allocated_total``.
    pages_transferred_in_total: int = field(default=0, init=False)
    #: Debug counter: frees of an id whose pages were already released.  A
    #: correct scheduler never double-frees; the counter exists so refcount
    #: bugs can't hide inside the conservation accounting.
    double_free_count: int = field(default=0, init=False)
    _freed_ids: Set[int] = field(default_factory=set, init=False)
    #: Running sum of privately allocated pages; kept in lockstep with
    #: ``_allocated`` so ``used_pages``/``free_pages`` are O(1) instead of
    #: re-summing the allocation table on every admission probe.
    _private_pages: int = field(default=0, init=False)
    _bytes_per_token: float = field(default=0.0, init=False)
    _demoted_bytes_per_token: float = field(default=0.0, init=False)
    _total_pages: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        # Page arithmetic (crossing iterations, ceil division) is integer
        # arithmetic: a float or bool page size would leak into every count.
        check_positive_int("page_size", self.page_size)
        check_positive_int("max_seq_len", self.max_seq_len)
        if not (math.isfinite(self.capacity_bytes)
                and self.capacity_bytes >= 0):
            raise ValueError(f"capacity_bytes must be finite and "
                             f"non-negative, got {self.capacity_bytes!r}")
        # Model geometry, KV precision and capacity are all fixed for the
        # manager's lifetime, so the page geometry is computed exactly once.
        # The per-token byte count comes from the preset itself — the single
        # KV-geometry formula every layer shares (see repro.serving.precision).
        self._bytes_per_token = self.system.kv_bytes_per_token(self.model)
        self._demoted_bytes_per_token = self.system.demoted_kv_bytes_per_token(
            self.model)
        self._total_pages = int(self.capacity_bytes
                                // (self._bytes_per_token * self.page_size))

    # ------------------------------------------------------------------
    # Byte accounting
    # ------------------------------------------------------------------
    def bytes_per_token(self) -> float:
        """KV bytes per token across all layers, including dynamic parameters."""
        return self._bytes_per_token

    def bytes_per_page(self) -> float:
        return self._bytes_per_token * self.page_size

    def demoted_bytes_per_page(self) -> float:
        """Byte footprint of one shared page at the demoted 4-bit tier."""
        return self._demoted_bytes_per_token * self.page_size

    @property
    def demotion_supported(self) -> bool:
        """Whether the demoted tier strictly saves bytes on this system.

        Requires paged KV (the tier only applies to shared prefix-cache
        pages) and a native precision above the demoted tier — a KV4 system
        has nothing to shrink, so demotion degenerates to a no-op there.
        """
        return (self.system.paged_kv
                and self._demoted_bytes_per_token < self._bytes_per_token)

    @property
    def total_pages(self) -> int:
        return self._total_pages

    def _reclaimable(self, demoted: int) -> int:
        """Whole free pages the byte savings of ``demoted`` pages amount to.

        Floored so fractional savings never grant capacity that isn't
        physically there; zero demoted pages reclaim exactly zero.
        """
        if demoted <= 0:
            return 0
        gain = self.bytes_per_page() - self.demoted_bytes_per_page()
        return int(demoted * gain // self.bytes_per_page())

    @property
    def reclaimed_pages(self) -> int:
        """Free pages re-granted by the current demoted population."""
        return self._reclaimable(self.demoted_pages)

    # ``used_pages`` and ``free_pages`` are read on every claim pass and
    # admission, so they skip the reclaimed-page call while nothing is
    # demoted (it is exactly zero then).
    @property
    def used_pages(self) -> int:
        used = self._private_pages + self.shared_pages
        demoted = self.demoted_pages
        return used - self._reclaimable(demoted) if demoted else used

    @property
    def free_pages(self) -> int:
        free = self._total_pages - self._private_pages - self.shared_pages
        demoted = self.demoted_pages
        return free + self._reclaimable(demoted) if demoted else free

    def pages_for_tokens(self, num_tokens: int) -> int:
        """Pages needed to hold ``num_tokens`` tokens of KV state.

        A zero-token probe costs zero pages on every system — non-paged
        systems reserve ``max_seq_len`` up front only for requests that
        actually hold tokens.
        """
        if num_tokens <= 0:
            return 0
        if not self.system.paged_kv:
            # Non-paged systems reserve the whole maximum sequence up front.
            num_tokens = self.max_seq_len
        return -(-num_tokens // self.page_size)  # ceil division

    # ------------------------------------------------------------------
    # Allocation API
    # ------------------------------------------------------------------
    def pages_needed(self, request_id: int, num_tokens: int,
                     shared_pages: int = 0) -> int:
        """Fresh pages a grow-to-``num_tokens`` allocation would consume.

        ``shared_pages`` of the request's footprint are covered by the prefix
        cache's shared pool and need no private allocation.
        """
        target = self.pages_for_tokens(num_tokens) - shared_pages
        return target - self._allocated.get(request_id, 0)

    def needs_pages(self, request_id: int, num_tokens: int,
                    shared_pages: int = 0) -> bool:
        """Whether growing to ``num_tokens`` needs at least one fresh page:
        ``pages_needed(...) > 0``, the probe the speculative claim scan
        makes for each drafting request (plain decodes find their page
        crossings on the scheduler's crossing heap instead)."""
        return self.pages_needed(request_id, num_tokens, shared_pages) > 0

    def allocate(self, request_id: int, num_tokens: int,
                 shared_pages: int = 0) -> int:
        """Grow the allocation of ``request_id`` to cover ``num_tokens`` tokens.

        ``shared_pages`` leading pages are served by the prefix cache's
        shared pool, so only the remainder is privately allocated.  Returns
        the number of newly allocated pages.  Raises
        :class:`PageAllocationError` when the cache is full.
        """
        target = self.pages_for_tokens(num_tokens) - shared_pages
        current = self._allocated.get(request_id, 0)
        needed = target - current
        if needed <= 0:
            return 0
        if needed > self.free_pages:
            raise PageAllocationError(
                f"request {request_id} needs {needed} pages, only "
                f"{self.free_pages} free")
        self._allocated[request_id] = target
        self._freed_ids.discard(request_id)
        self._private_pages += needed
        self.pages_allocated_total += needed
        return needed

    def claim_next_pages(self, request_ids: Sequence[int]) -> int:
        """Grow each listed request's private allocation by one page.

        The decode claim pass in one call: each id is a request whose next
        token starts a fresh page, so the pass needs exactly
        ``len(request_ids)`` pages and one capacity check covers it.  Raises
        :class:`PageAllocationError` when the pass needs more than
        ``free_pages``, and ``ValueError`` for an id that holds no
        allocation (the pass grows allocations, it never starts one); either
        way nothing changes.  Returns the pages claimed.
        """
        count = len(request_ids)
        free = self.free_pages
        if count > free:
            raise PageAllocationError(
                f"the pass needs {count} pages, only {free} free")
        allocated = self._allocated
        for request_id in request_ids:
            if request_id not in allocated:
                raise ValueError(
                    f"request {request_id} holds no allocation to grow")
        for request_id in request_ids:
            allocated[request_id] += 1
        self._private_pages += count
        self.pages_allocated_total += count
        return count

    def adopt(self, request_id: int, num_tokens: int,
              shared_pages: int = 0) -> int:
        """Allocate pages whose contents arrive via KV transfer, not prefill.

        Identical to :meth:`allocate` — the pages live, count and free the
        same way — but the newly granted pages are additionally tallied in
        ``pages_transferred_in_total`` so a disaggregated run can report how
        much of its KV footprint was imported rather than computed locally.
        """
        adopted = self.allocate(request_id, num_tokens, shared_pages)
        self.pages_transferred_in_total += adopted
        return adopted

    def trim(self, request_id: int, num_tokens: int,
             shared_pages: int = 0) -> int:
        """Shrink ``request_id``'s allocation to cover ``num_tokens`` tokens.

        Speculative decoding's rollback: pages claimed optimistically for a
        drafted block are released again for the tokens verification
        rejected.  Never grows an allocation, and a request already at or
        below the target is untouched; returns the pages freed (tallied in
        ``pages_freed_total``, so conservation accounting stays exact).
        """
        target = max(0, self.pages_for_tokens(num_tokens) - shared_pages)
        current = self._allocated.get(request_id, 0)
        if current <= target:
            return 0
        freed = current - target
        if target == 0:
            self._allocated.pop(request_id)
            self._freed_ids.add(request_id)
        else:
            self._allocated[request_id] = target
        self._private_pages -= freed
        self.pages_freed_total += freed
        return freed

    def free(self, request_id: int) -> int:
        """Release all private pages of a finished request; returns pages freed.

        Freeing an id with no live allocation is distinguished: an id whose
        pages were already released counts as a double-free (see
        ``double_free_count``), an id that never allocated is a legitimate
        no-op (e.g. a request that was fully served by shared pages).
        """
        if request_id in self._allocated:
            freed = self._allocated.pop(request_id)
            self._freed_ids.add(request_id)
            self._private_pages -= freed
            self.pages_freed_total += freed
            return freed
        if request_id in self._freed_ids:
            self.double_free_count += 1
        return 0

    # ------------------------------------------------------------------
    # Shared-page pool (prefix cache)
    # ------------------------------------------------------------------
    def convert_private_to_shared(self, request_id: int,
                                  count: int = 1) -> None:
        """Move ``count`` pages of ``request_id`` into the shared pool.

        Used when the prefix cache publishes freshly prefilled blocks: the
        pages' bytes stay where they are, only ownership changes, so neither
        ``used_pages`` nor the lifetime counters move.
        """
        if self._allocated.get(request_id, 0) < count:
            raise ValueError(
                f"request {request_id} has fewer than {count} private "
                f"pages to share")
        self._allocated[request_id] -= count
        self._private_pages -= count
        self.shared_pages += count

    def drop_private_page(self, request_id: int) -> None:
        """Discard one private page (deduplicated against a shared copy)."""
        if self._allocated.get(request_id, 0) <= 0:
            raise ValueError(
                f"request {request_id} has no private page to drop")
        self._allocated[request_id] -= 1
        self._private_pages -= 1
        self.pages_freed_total += 1

    def release_shared_page(self, demoted: bool = False) -> None:
        """Free one shared-pool page (prefix-cache eviction).

        Pass ``demoted=True`` when the evicted block lives at the demoted
        tier so its tier population shrinks with it; the page still counts
        exactly once toward ``pages_freed_total`` — a demoted page is one
        shared page in the conservation ledger.
        """
        if self.shared_pages <= 0:
            raise ValueError("shared pool is empty")
        if demoted:
            if self.demoted_pages <= 0:
                raise ValueError("demoted tier is empty")
            self.demoted_pages -= 1
        self.shared_pages -= 1
        self.pages_freed_total += 1

    # ------------------------------------------------------------------
    # Demoted tier (dynamic KV-cache precision under memory pressure)
    # ------------------------------------------------------------------
    def demote_shared_page(self) -> None:
        """Move one shared page to the demoted 4-bit tier.

        Only tier populations move — ``shared_pages`` and the lifetime
        allocate/free counters are untouched, so conservation holds across
        any demote/promote/evict interleaving.
        """
        if not self.demotion_supported:
            raise ValueError(
                f"system {self.system.name!r} does not support KV demotion")
        if self.demoted_pages >= self.shared_pages:
            raise ValueError("no full-precision shared page to demote")
        self.demoted_pages += 1
        self.pages_demoted_total += 1

    def promote_shared_page(self) -> None:
        """Restore one demoted page to full precision.

        May consume free capacity (the reclaimed fraction is handed back);
        callers must check :meth:`promotion_page_need` fits before promoting.
        """
        if self.demoted_pages <= 0:
            raise ValueError("demoted tier is empty")
        self.demoted_pages -= 1
        self.pages_promoted_total += 1

    def promotion_page_need(self, count: int) -> int:
        """Free pages that promoting ``count`` demoted pages would consume.

        The reclaimed-page grant is floored, so promoting ``count`` pages
        hands back ``reclaimable(d) - reclaimable(d - count)`` whole pages —
        possibly less than the raw byte delta suggests, never more.
        """
        if count <= 0:
            return 0
        count = min(count, self.demoted_pages)
        return (self._reclaimable(self.demoted_pages)
                - self._reclaimable(self.demoted_pages - count))

    def allocated_tokens_capacity(self, request_id: int) -> int:
        return self._allocated.get(request_id, 0) * self.page_size

    def utilization(self) -> float:
        total = self.total_pages
        return 0.0 if total == 0 else self.used_pages / total

    def max_concurrent_requests(self, tokens_per_request: int) -> int:
        """How many requests of a given final length fit simultaneously."""
        pages_each = self.pages_for_tokens(tokens_per_request)
        if pages_each == 0:
            return 0
        return self.total_pages // pages_each
