"""Memoization layer for the engine's pure cost-model evaluations.

The serving loop re-prices identical kernel shapes relentlessly: every decode
iteration at batch ``b`` runs the same four projection GEMMs, every chunked
prefill re-evaluates the same LM-head and all-reduce shapes, and a 100k
-request trace asks the GEMM model the same ``(m, n, k, precision)`` question
millions of times.  All of those calls are *pure* — the engine's model
geometry, GPU spec, precision preset and parallel plan are fixed at
construction — so each engine owns a :class:`CostModelCache` and keys its
hot-path latencies on the only thing that varies: the arguments.

Correctness is trivial by construction: a hit returns the exact float the
miss computed, so memoised and recomputed prices are bitwise-identical (the
contract ``tests/test_perf_core.py`` locks in across schedulers, prefix
caching and speculation).  Invalidation is equally simple: there is none.
The cache never observes a key whose value could change, because everything
else that feeds the latency formulas is immutable for the engine's lifetime;
anything that *does* vary (context length, chunk boundaries, decode batch,
a migration's source preset) is an argument and therefore part of the key.
Code that mutates an engine's model/GPU/system in place (no in-tree code
does) must call :meth:`CostModelCache.clear`, which drops the latency rows
below as well.

*Latency rows* price every plain decode iteration (a batch of ``B``
decoders and no prefill, whose context ``c`` grows by exactly one per
iteration), stepped or coasted.  :meth:`CostModelCache.row` keeps one
``array('d')`` per batch size under the key ``("row", B)``: slot ``i``
holds the latency at context ``start + i``, NaN until the engine prices a
run of slots in one call to :meth:`ServingEngine.decode_row`.  That call
is ``mixed_step((), B, c).total``'s formula in row form, not a replay of
it: one formula in two shapes, which ``tests/test_decode_row.py`` pins
together as float hex.  A row spans only the contexts its batch reached,
from ``start``, not from context 0, so it costs 8 bytes per slot; a dict
entry per ``(B, c)`` costs an order of magnitude more.  Row reads count
as neither hits nor misses.

:func:`memoised` and :meth:`CostModelCache.row` are the only code that
reads or writes a cache.  On CPython 3.11 (2-core Xeon host, best of 15
in-process rounds) a hit through the decorator costs 0.21 µs, against
0.18 µs for the dictionary probe hand-inlined into each method; a
``mixed_step`` with decodes makes three lookups, and a ``decode_row`` call
two, once per run of slots (one more each under tensor parallelism).
The key is one flat tuple built as ``(kind,) + args``: a nested
``(kind, args)`` key measured 0.26 µs and holds a second tuple per entry,
and unpacking, ``(kind, *args)``, measured 0.32 µs.
"""

from __future__ import annotations

import math
from array import array
from functools import wraps
from typing import Callable, Dict, Tuple

__all__ = ["CostModelCache", "memoised"]

#: One unpriced row slot.
_UNPRICED = array("d", [math.nan])


class CostModelCache:
    """Hit-counted memo table for one engine's cost-model evaluations.

    Keys are ``(kind, *args)`` tuples — e.g. ``("gemm", tokens)`` for one
    transformer block's projection GEMMs, ``("attn", batch, context)`` for
    the decode-attention kernel, or ``("kv_transcode", tokens, source)`` for
    a mixed-precision migration landing from the ``source`` preset — and
    values are latencies in seconds.  :func:`memoised` fills it; the
    counters keep the hit-rate gauge honest.
    """

    __slots__ = ("hits", "misses", "store")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.store: Dict[Tuple, float] = {}

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when never probed)."""
        total = self.hits + self.misses
        return 0.0 if total == 0 else self.hits / total

    def clear(self) -> None:
        """Drop every memoised value (counters included)."""
        self.store.clear()
        self.hits = 0
        self.misses = 0

    def row(self, batch: int, context: int) -> Tuple[array, int]:
        """Decode batch ``batch``'s latency row and the context of its slot
        0, grown so that ``context``'s slot exists or is the next append.

        Slot ``i`` holds ``decode_row(batch, start + i, 1)[0]``, or NaN
        while unpriced; the caller prices and stores missing slots.
        Growing down to an earlier context replaces the row, so a caller
        holds the returned pair for one window only.
        """
        key = ("row", batch)
        entry = self.store.get(key)
        if entry is None:
            row, start = array("d"), context
        else:
            row, start = entry
            if context >= start:
                gap = context - start - len(row)
                if gap > 0:
                    row.extend(_UNPRICED * gap)
                return row, start
            row, start = _UNPRICED * (start - context) + row, context
        self.store[key] = (row, start)
        return row, start

    def __len__(self) -> int:
        return len(self.store)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CostModelCache({len(self.store)} entries, "
                f"hit rate {self.hit_rate * 100:.1f}%)")


def memoised(kind: str) -> Callable[[Callable], Callable]:
    """Memoise a pure engine method in ``self.cost_cache`` under ``kind``.

    The decorated method takes positional arguments only; they form the
    key, so every argument must be hashable and must determine the result
    together with the engine's construction-fixed state.
    """
    def decorate(method: Callable) -> Callable:
        prefix = (kind,)

        @wraps(method)
        def cached(self, *args):
            cache = self.cost_cache
            key = prefix + args
            try:
                value = cache.store[key]
            except KeyError:
                cache.misses += 1
                value = cache.store[key] = method(self, *args)
                return value
            cache.hits += 1
            return value
        return cached
    return decorate
