"""Per-layer self-time tracing of the serving simulator, from outside it.

The traced worker wraps the public methods of ``repro.serving`` listed in
:data:`LAYERS` before it builds anything, runs the workload, and puts every
original back afterwards.  Nothing under ``src/`` knows it is being timed,
and untraced runs execute the unmodified classes.

A layer's *self time* is the summed duration of its wrapped calls minus the
time their nested wrapped calls cover, so the self times of all layers plus
the time outside every wrapper (``untimed``) add up to the traced wall time.
:data:`COUNTED` methods are only counted: they run millions of times inside
a timed layer, and giving them spans would mostly time the tracer.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

#: Layer name -> (module under ``repro.serving``, class, method) it wraps.
#: The ``<layer>_s`` per-layer metrics report each layer's self time.
LAYERS: Dict[str, List[Tuple[str, str, str]]] = {
    "scheduler.admit": [("scheduler", "ContinuousBatchingScheduler", "admit")],
    "scheduler.prepare_decode": [
        ("scheduler", "ContinuousBatchingScheduler", "prepare_decode")],
    "scheduler.record_decode": [
        ("scheduler", "ContinuousBatchingScheduler", "record_decode_step")],
    "scheduler.record_prefill": [
        ("scheduler", "ContinuousBatchingScheduler", "record_prefill")],
    "engine.price": [("engine", "ServingEngine", name) for name in (
        "decode_step", "prefill", "mixed_step", "speculative_verify_step",
        "kv_dequant_latency")],
    "engine.step_self": [("engine", "EngineStepper", "step")],
    "policies.plan": [("policies", "StallPrefillPlanner", "plan"),
                      ("policies", "ChunkedPrefillPlanner", "plan")],
    "prefix_cache.match": [("prefix_cache", "PrefixCache", "match")],
    "prefix_cache.lookup": [("prefix_cache", "PrefixCache", "lookup_tokens")],
    "prefix_cache.insert": [("prefix_cache", "PrefixCache", "insert")],
    "prefix_cache.evict": [("prefix_cache", "PrefixCache", "evict")],
    "prefix_cache.evictable_pages": [
        ("prefix_cache", "PrefixCache", "evictable_pages")],
    # The cluster loop's own cost: ClusterEngine.serve (and the serve loop
    # it dispatches to) plus the per-replica catch-up calls it makes.
    "cluster.self": [("cluster", "ClusterEngine", "serve"),
                     ("engine", "EngineStepper", "run_until")],
    # The router both cluster workloads use.
    "cluster.route": [("cluster", "LeastOutstandingRouter", "route")],
    "autoscaler.decide": [("autoscaler", "ReactiveAutoscaler", "decide")],
    # Plus the benchmark's own summary read, traced with span().
    "metrics.summary": [("metrics", "ServingMetrics", "from_requests")],
}

#: Count-only methods: name -> (module, class, method).
COUNTED: Dict[str, Tuple[str, str, str]] = {
    "kv_cache_manager.needs_pages": (
        "kv_cache_manager", "PagedKVCacheManager", "needs_pages"),
    "kv_cache_manager.allocate": (
        "kv_cache_manager", "PagedKVCacheManager", "allocate"),
    "cluster.run_until": ("engine", "EngineStepper", "run_until"),
}


def _targets() -> List[Tuple[str, str, str]]:
    """Every ``(module, class, method)`` in :data:`LAYERS` and :data:`COUNTED`."""
    return ([t for ts in LAYERS.values() for t in ts]
            + list(COUNTED.values()))


class LayerTracer:
    """Wraps the layer methods in place; :meth:`uninstall` restores them.

    ``self_s`` maps layer -> self seconds, ``calls`` maps layer (and each
    :data:`COUNTED` name) -> calls, ``covered_s`` is the time inside
    outermost spans.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.covered_s = 0.0
        self._stack: List[float] = []
        self._originals: List[Tuple[type, str, object]] = []

    # -- span accounting ------------------------------------------------
    def _enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, layer: str, start: float) -> None:
        elapsed = time.perf_counter() - start
        children = self._stack.pop()
        self.self_s[layer] += elapsed - children
        if self._stack:
            self._stack[-1] += elapsed
        else:
            self.covered_s += elapsed

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Time a block of the benchmark's own code as ``layer``."""
        self.calls[layer] += 1
        start = self._enter()
        try:
            yield
        finally:
            self._exit(layer, start)

    def _timed(self, layer: str, fn: Callable) -> Callable:
        calls, enter, exit_ = self.calls, self._enter, self._exit

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            start = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(layer, start)
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ---------------------------------------------------
    def _wrap(self, module_name: str, cls_name: str, method: str,
              make: Callable[[Callable], Callable]) -> None:
        """Wrap ``method`` where ``cls_name`` defines it.  A target that is
        gone (renamed, moved, inherited) raises: a silently skipped layer
        would report 0 s and read as a gain."""
        cls = getattr(importlib.import_module(f"repro.serving.{module_name}"),
                      cls_name, None)
        raw = None if cls is None else vars(cls).get(method)
        if raw is None:
            self.uninstall()
            raise LookupError(f"layer target {module_name}.{cls_name}."
                              f"{method} is not defined; update LAYERS")
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._originals.append((cls, method, raw))
        setattr(cls, method, wrapped)

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("layer tracer already installed")
        for layer, targets in LAYERS.items():
            for module_name, cls_name, method in targets:
                self._wrap(module_name, cls_name, method,
                           lambda fn, layer=layer: self._timed(layer, fn))
        # Count-only wrappers go outermost, so a method that is both timed
        # and counted (run_until) is counted without a second span.
        for name, (module_name, cls_name, method) in COUNTED.items():
            self._wrap(module_name, cls_name, method,
                       lambda fn, name=name: self._counted(name, fn))

    def uninstall(self) -> None:
        """Restore every wrapped method, innermost wrapper last."""
        while self._originals:
            cls, method, raw = self._originals.pop()
            setattr(cls, method, raw)

    @staticmethod
    def installed_wrappers() -> List[str]:
        """``Class.method`` names in :data:`LAYERS`/:data:`COUNTED` that
        currently hold a tracer wrapper (empty once uninstalled)."""
        found = []
        for module_name, cls_name, method in _targets():
            module = importlib.import_module(f"repro.serving.{module_name}")
            raw = vars(getattr(module, cls_name)).get(method)
            fn = getattr(raw, "__func__", raw)
            if getattr(fn, "__qualname__", "").startswith("LayerTracer."):
                found.append(f"{cls_name}.{method}")
        return found
