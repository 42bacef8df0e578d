"""Tests for the prefix-sharing KV cache subsystem: block hashing, the
radix-tree cache (match/acquire/insert/release/evict), ref-counted shared
pages in the KV manager, scheduler/engine integration, chat and
shared-prefix workload generators, cache-aware admission, double-free
detection, zero-token page probes, page-conservation invariants under
alloc/free/evict/preempt interleavings, a differential oracle for the
incremental eviction bookkeeping, and naive references for the memoised
block keys and the index-probed match."""

import collections
import functools
import gc
import heapq
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu import A100
from repro.model import get_config
from repro.serving import (
    ContinuousBatchingScheduler,
    PagedKVCacheManager,
    PrefixCache,
    Request,
    RequestState,
    SCHEDULING_PRESETS,
    SchedulingConfig,
    ServingEngine,
    SYSTEM_PRESETS,
    get_policy,
    get_system,
    make_chat_workload,
    make_shared_prefix_workload,
    make_uniform_workload,
    prompt_block_keys,
)
from repro.serving import prefix_cache as prefix_cache_module


@pytest.fixture(scope="module")
def llama7b():
    return get_config("llama-2-7b")


def _manager(model, system="qserve-w4a8kv4-chn", capacity_gib=10.0,
             page_size=16):
    return PagedKVCacheManager(model=model, system=get_system(system),
                               capacity_bytes=capacity_gib * (1 << 30),
                               page_size=page_size, max_seq_len=1536)


def _request(rid, segments, output_len=8, arrival=0.0):
    return Request(request_id=rid,
                   prompt_len=sum(length for _, length in segments),
                   output_len=output_len, arrival_time=arrival,
                   prompt_segments=tuple(segments))


def _engine(llama7b, **kwargs):
    return ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                         **kwargs)


# ----------------------------------------------------------------------
# Block keys
# ----------------------------------------------------------------------
def test_block_keys_shared_prefix_and_divergence():
    a = _request(0, [(1, 64), (2, 32)])     # 96 tokens = 6 blocks @ 16
    b = _request(1, [(1, 64), (3, 32)])     # same 64-token prefix, then diverges
    ka, kb = prompt_block_keys(a, 16), prompt_block_keys(b, 16)
    assert len(ka) == len(kb) == 6
    assert ka[:4] == kb[:4]                 # blocks covering content id 1
    assert ka[4:] != kb[4:]                 # divergent content
    assert len(set(ka)) == 6                # chained keys are position-unique


def test_block_keys_partial_block_and_no_segments():
    aligned = _request(0, [(1, 32)])
    ragged = _request(1, [(1, 32), (2, 7)])  # 39 tokens: trailing partial block
    assert len(prompt_block_keys(aligned, 16)) == 2
    assert prompt_block_keys(ragged, 16)[:2] == prompt_block_keys(aligned, 16)
    assert len(prompt_block_keys(ragged, 16)) == 2   # partial block excluded
    no_segments = Request(request_id=2, prompt_len=64, output_len=4)
    assert prompt_block_keys(no_segments, 16) == []
    short = _request(3, [(1, 10)])           # shorter than one block
    assert prompt_block_keys(short, 16) == []


def test_block_keys_offset_sensitive():
    # The same content id at a different block offset must not collide.
    a = _request(0, [(1, 32)])
    b = _request(1, [(2, 16), (1, 16)])
    assert prompt_block_keys(a, 16)[0] != prompt_block_keys(b, 16)[0]


def _naive_block_keys(request, page_size, namespace=None):
    """Reference: cut the whole prompt into blocks, then hash the chain."""
    if request.prompt_segments is None:
        return []
    n_complete = request.prompt_len // page_size
    if n_complete == 0:
        return []
    blocks = []
    current = []
    filled = 0
    for content_id, length in request.prompt_segments:
        offset = 0
        while offset < length and len(blocks) < n_complete:
            take = min(page_size - filled, length - offset)
            current.append((content_id, offset, offset + take))
            filled += take
            offset += take
            if filled == page_size:
                blocks.append(tuple(current))
                current = []
                filled = 0
        if len(blocks) >= n_complete:
            break
    keys = []
    parent = 0
    if namespace is not None:
        parent = hash((0, tuple(ord(c) for c in namespace)))
    for block in blocks:
        parent = hash((parent, block))
        keys.append(parent)
    return keys


_SEGMENT = st.tuples(st.integers(0, 5), st.integers(1, 40))


@st.composite
def _prompt_family(draw):
    """Prompts that share segment prefixes: each one extends an earlier
    prompt's segments (or starts afresh) by a few segments, as chat turns
    do, and they are then hashed in a drawn order."""
    prompts = []
    for _ in range(draw(st.integers(1, 12))):
        base = []
        if prompts and draw(st.booleans()):
            parent = draw(st.sampled_from(prompts))
            base = list(parent[:draw(st.integers(0, len(parent)))])
        prompts.append(tuple(base + draw(st.lists(_SEGMENT, min_size=1,
                                                  max_size=4))))
    return draw(st.permutations(prompts))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(prompts=_prompt_family(), page_size=st.integers(1, 32),
       namespace=st.sampled_from([None, "llama-2-7b", "llama-2-13b"]))
def test_memoised_block_keys_match_naive_reference(llama7b, prompts,
                                                   page_size, namespace):
    cache = PrefixCache(_manager(llama7b, page_size=page_size),
                        namespace=namespace)
    for rid, segments in enumerate(prompts):
        request = _request(rid, segments)
        expected = _naive_block_keys(request, page_size, namespace)
        assert cache._keys(request) == expected
        assert cache._keys(request) == expected          # memo hit
        assert cache._keys(request.copy_fresh()) == expected  # trie hit
        assert prompt_block_keys(request, page_size, namespace) == expected


def test_block_keys_pinned_literals():
    # The exact integers: a change to the chain's hashing (slice layout,
    # root salt, block order) must fail here on every interpreter.
    request = _request(0, [(7, 20), (9, 30)])
    assert prompt_block_keys(request, 16) == [
        692431664194700352, 6113105305654295638, 4531710828689408125]
    assert prompt_block_keys(request, 16, namespace="llama-2-7b") == [
        -8744947293869992248, 677880339331471729, 3591838672575915126]


def test_chat_turn_hashes_only_its_new_blocks(llama7b, monkeypatch):
    """A six-turn session's last turn hashes only the blocks its two new
    segments complete; the naive chain rehashes the whole history."""
    wl = make_chat_workload(num_sessions=1, turns_per_session=6,
                            system_prompt_len=100, user_len=40,
                            assistant_len=60, seed=3)
    *earlier, last = wl.requests
    cache = PrefixCache(_manager(llama7b))
    for request in earlier:
        cache._keys(request)
    hashed = []

    def counting_hash(value):
        hashed.append(value)
        return hash(value)

    monkeypatch.setattr(prefix_cache_module, "hash", counting_hash,
                        raising=False)
    keys = cache._keys(last)
    assert last.prompt_segments[:-2] == earlier[-1].prompt_segments
    history = sum(length for _, length in last.prompt_segments[:-2])
    assert len(hashed) == len(keys) - history // 16 > 0
    assert len(keys) > 4 * len(hashed)
    hashed.clear()
    assert cache._keys(last.copy_fresh()) == keys      # trie hit
    assert hashed == []


# ----------------------------------------------------------------------
# KV manager satellites: zero-token probes and double-free detection
# ----------------------------------------------------------------------
def test_zero_token_probe_costs_zero_pages(llama7b):
    paged = _manager(llama7b, "qserve-w4a8kv4-chn")
    non_paged = _manager(llama7b, "quarot-w4a4")
    assert paged.pages_for_tokens(0) == 0
    assert non_paged.pages_for_tokens(0) == 0       # regression: was max_seq_len
    # Non-zero probes on non-paged systems still reserve the full sequence.
    assert non_paged.pages_for_tokens(1) == non_paged.pages_for_tokens(1000)


def test_free_distinguishes_double_free_from_unknown(llama7b):
    mgr = _manager(llama7b)
    mgr.allocate(0, 100)
    assert mgr.free(0) > 0
    assert mgr.double_free_count == 0
    assert mgr.free(0) == 0                     # pages already released
    assert mgr.double_free_count == 1
    assert mgr.free(42) == 0                    # never allocated: legitimate
    assert mgr.double_free_count == 1
    # Reallocation clears the freed mark (preempt -> readmit -> finish).
    mgr.allocate(0, 50)
    assert mgr.free(0) > 0
    assert mgr.double_free_count == 1


def test_shared_page_pool_accounting(llama7b):
    mgr = _manager(llama7b)
    mgr.allocate(0, 64)                         # 4 private pages
    assert mgr.used_pages == 4
    mgr.convert_private_to_shared(0)
    mgr.convert_private_to_shared(0)
    assert mgr.shared_pages == 2
    assert mgr.used_pages == 4                  # ownership move, not growth
    assert mgr.pages_allocated_total == 4 and mgr.pages_freed_total == 0
    # A request whose leading pages are shared allocates only the remainder.
    assert mgr.pages_needed(1, 64, shared_pages=2) == 2
    assert mgr.allocate(1, 64, shared_pages=2) == 2
    mgr.drop_private_page(1)                    # dedup against a shared copy
    assert mgr.pages_freed_total == 1
    mgr.release_shared_page()
    assert mgr.shared_pages == 1
    assert mgr.pages_allocated_total - mgr.pages_freed_total == mgr.used_pages
    with pytest.raises(ValueError):
        mgr.convert_private_to_shared(99)
    with pytest.raises(ValueError):
        mgr.drop_private_page(99)
    empty = _manager(llama7b)
    with pytest.raises(ValueError):
        empty.release_shared_page()


# ----------------------------------------------------------------------
# PrefixCache unit behaviour
# ----------------------------------------------------------------------
def test_match_insert_reuse_cycle(llama7b):
    mgr = _manager(llama7b)
    cache = PrefixCache(mgr)
    first = _request(0, [(1, 64), (2, 32)])
    nodes, tokens = cache.match(first)
    assert nodes == [] and tokens == 0          # cold cache
    mgr.allocate(0, first.prompt_len)
    cache.acquire(first, nodes)
    cache.insert(first)                         # publish all 6 blocks
    assert cache.cached_pages == 6
    assert mgr.shared_pages == 6
    assert first.shared_kv_pages == 6
    # A same-prefix request hits the 4 blocks of content id 1.
    second = _request(1, [(1, 64), (3, 32)])
    nodes, tokens = cache.match(second)
    assert len(nodes) == 4 and tokens == 64
    cache.acquire(second, nodes)
    assert second.cached_tokens == 64
    assert cache.total_ref_count == 6 + 4
    cache.release(0)
    cache.release(1)
    assert cache.total_ref_count == 0
    assert cache.cached_pages == 6              # blocks stay for future hits


def test_full_aligned_match_recomputes_last_block(llama7b):
    """A fully cached, block-aligned prompt still prefills its last block:
    the final prompt token must be computed to produce the first logits."""
    mgr = _manager(llama7b)
    cache = PrefixCache(mgr)
    first = _request(0, [(1, 64)])
    mgr.allocate(0, 64)
    cache.acquire(first, [])
    cache.insert(first)
    twin = _request(1, [(1, 64)])
    nodes, tokens = cache.match(twin)
    assert len(nodes) == 3 and tokens == 48     # 4 cached, 3 served
    assert cache.lookup_tokens(twin) == 48


def test_insert_dedups_concurrent_prefills(llama7b):
    """Two same-content requests prefilled concurrently: the second insert
    drops its private duplicate pages and references the published blocks."""
    mgr = _manager(llama7b)
    cache = PrefixCache(mgr)
    a, b = _request(0, [(1, 64)]), _request(1, [(1, 64)])
    mgr.allocate(0, 64)
    mgr.allocate(1, 64)
    cache.acquire(a, [])
    cache.acquire(b, [])
    cache.insert(a)
    used_before = mgr.used_pages
    cache.insert(b)
    assert cache.stats.deduped_pages == 4
    assert cache.cached_pages == 4              # no duplicate nodes
    assert mgr.used_pages == used_before - 4    # duplicates were freed
    assert b.shared_kv_pages == 4
    assert cache.total_ref_count == 8


def test_lru_eviction_leaves_first_and_protect(llama7b):
    mgr = _manager(llama7b)
    cache = PrefixCache(mgr)
    old = _request(0, [(1, 32)])
    new = _request(1, [(2, 32)])
    for request in (old, new):
        mgr.allocate(request.request_id, 32)
        cache.acquire(request, [])
        cache.insert(request)
    cache.release(0)
    cache.release(1)
    cache.match(new)                            # refresh "new"'s recency
    assert cache.evict(2) == 2
    assert cache.lookup_tokens(_request(2, [(1, 32), (3, 16)])) == 0  # old gone
    assert cache.lookup_tokens(_request(3, [(2, 32), (3, 16)])) == 32  # new kept
    # Protected nodes survive even as LRU candidates.
    nodes, _ = cache.match(_request(4, [(2, 32), (3, 16)]))
    assert cache.evict(10, protect=nodes) == 0
    assert cache.cached_pages == 2
    # Shielding is per call: unprotected, the same blocks are reclaimable.
    assert cache.evict(10) == 2
    assert cache.cached_pages == 0


def test_referenced_blocks_never_evicted(llama7b):
    mgr = _manager(llama7b)
    cache = PrefixCache(mgr)
    holder = _request(0, [(1, 64)])
    mgr.allocate(0, 64)
    cache.acquire(holder, [])
    cache.insert(holder)
    assert cache.evict(100) == 0                # every block referenced
    cache.release(0)
    assert cache.evict(100) == 4                # now reclaimable, leaf-first
    assert cache.cached_pages == 0
    assert mgr.shared_pages == 0


# ----------------------------------------------------------------------
# Scheduler integration
# ----------------------------------------------------------------------
def test_admission_skips_prefill_for_cached_prefix(llama7b):
    mgr = _manager(llama7b)
    cache = PrefixCache(mgr)
    sched = ContinuousBatchingScheduler(kv_manager=mgr, max_num_seqs=8,
                                        prefix_cache=cache)
    warm = _request(0, [(1, 64), (2, 32)])
    sched.submit([warm])
    sched.admit(now=0.0)
    assert warm.prefill_target == 96            # cold cache: full prompt
    for request in sched.prefilling_requests():
        sched.record_prefill(request, request.prefill_remaining, now=1.0)
    for step in range(warm.output_len):
        sched.record_decode_step(now=2.0 + step)
    assert warm.state is RequestState.FINISHED
    hit = _request(1, [(1, 64), (3, 32)], arrival=5.0)
    sched.submit([hit])
    sched.admit(now=5.0)
    assert hit.cached_tokens == 64
    assert hit.prefill_target == 32             # only the cold suffix
    assert hit.shared_kv_pages == 4
    # Private pages cover just the suffix: 6 total - 4 shared.
    assert mgr.pages_needed(1, hit.prompt_len + hit.output_len, 4) <= 2


def test_preemption_releases_refs_and_rematches(llama7b):
    mgr = _manager(llama7b)
    cache = PrefixCache(mgr)
    sched = ContinuousBatchingScheduler(
        kv_manager=mgr, scheduling=SchedulingConfig(preemption=True),
        max_num_seqs=8, prefix_cache=cache)
    victim = _request(0, [(1, 64), (2, 32)], output_len=16)
    sched.submit([victim])
    sched.admit(now=0.0)
    for request in sched.prefilling_requests():
        sched.record_prefill(request, request.prefill_remaining, now=1.0)
    assert victim.shared_kv_pages == 6
    sched.preempt(victim, now=1.0)
    assert victim.cached_tokens == 0 and victim.shared_kv_pages == 0
    assert cache.total_ref_count == 0
    assert cache.cached_pages == 6              # blocks survive the preemption
    # Readmission hits its own published prefix; only the cold tail (partial
    # prompt block + generated tokens) is recomputed.
    sched.admit(now=2.0)
    assert victim.state is RequestState.PREFILLING
    assert victim.cached_tokens == 80           # 5 complete blocks of 6
    assert victim.prefill_target == victim.context_len - 80
    assert sched.recomputed_prefill_tokens == victim.prefill_target
    assert mgr.double_free_count == 0


# ----------------------------------------------------------------------
# Engine-level behaviour
# ----------------------------------------------------------------------
def test_shared_prefix_workload_hits_and_improves_ttft(llama7b):
    engine = _engine(llama7b, max_seq_len=1024)
    workload = make_shared_prefix_workload(16, shared_prefix_len=512,
                                           unique_len=96, output_len=32,
                                           arrival_rate=20.0, seed=2)
    base = engine.serve(workload.copy_fresh(), max_num_seqs=16,
                        scheduling=SCHEDULING_PRESETS["chunked"])
    cached = engine.serve(workload.copy_fresh(), max_num_seqs=16,
                          scheduling=SCHEDULING_PRESETS["prefix"])
    assert cached.num_finished == base.num_finished == 16
    assert cached.generated_tokens == base.generated_tokens
    assert cached.prefix_stats is not None
    assert cached.saved_prefill_tokens > 0
    assert cached.cache_hit_rate > 0.5          # 15 of 16 requests hit 512/608
    assert cached.metrics.ttft.mean < base.metrics.ttft.mean
    assert cached.total_time_s < base.total_time_s


def test_chat_workload_multi_turn_hit_rate_grows(llama7b):
    engine = _engine(llama7b, max_seq_len=4096)
    workload = make_chat_workload(num_sessions=4, turns_per_session=5,
                                  system_prompt_len=256, user_len=48,
                                  assistant_len=96, think_time_s=8.0, seed=3)
    result = engine.serve(workload.copy_fresh(), max_num_seqs=8,
                          scheduling=SCHEDULING_PRESETS["prefix"])
    assert result.num_finished == 20
    assert result.cache_hit_rate > 0.4
    # Histories grow: each session's last turn dwarfs its first.
    first_turns = [r for i, r in enumerate(workload.requests) if i % 5 == 0]
    assert all(r.prompt_len < workload.requests[i * 5 + 4].prompt_len
               for i, r in enumerate(first_turns))


def test_prefix_caching_off_is_bitwise_identical(llama7b):
    """Acceptance: with prefix caching disabled (default presets) the serving
    loop's outputs are bitwise-identical to the pre-cache code paths, and a
    cache enabled on segment-less prompts changes nothing either."""
    engine = _engine(llama7b, max_seq_len=1536)
    workload = make_uniform_workload(8, prompt_len=512, output_len=64,
                                     arrival_rate=30.0, seed=7)
    off = engine.serve(workload.copy_fresh(), max_num_seqs=8,
                       scheduling=SCHEDULING_PRESETS["chunked"])
    on_no_segments = engine.serve(workload.copy_fresh(), max_num_seqs=8,
                                  scheduling=SCHEDULING_PRESETS["prefix"])
    assert on_no_segments.total_time_s == off.total_time_s
    assert on_no_segments.num_iterations == off.num_iterations
    assert on_no_segments.generated_tokens == off.generated_tokens
    assert on_no_segments.metrics.ttft.p95 == off.metrics.ttft.p95
    assert on_no_segments.saved_prefill_tokens == 0


def test_prefix_caching_requires_paged_kv(llama7b):
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["quarot-w4a4"],
                           max_seq_len=1536)
    with pytest.raises(ValueError, match="paged"):
        engine.serve(make_uniform_workload(1, 64, 8),
                     scheduling=SCHEDULING_PRESETS["prefix"])


def test_cache_aware_policy_prioritizes_warm_requests(llama7b):
    mgr = _manager(llama7b)
    cache = PrefixCache(mgr)
    warm_content = _request(0, [(1, 64), (2, 32)])
    mgr.allocate(0, 96)
    cache.acquire(warm_content, [])
    cache.insert(warm_content)
    cache.release(0)
    mgr.free(0)
    policy = get_policy("cache-aware")
    policy.prefix_cache = cache
    cold = _request(1, [(3, 64), (4, 32)], arrival=0.0)
    warm = _request(2, [(1, 64), (5, 32)], arrival=1.0)   # later but cached
    assert [r.request_id
            for r in policy.admission_order([cold, warm])] == [2, 1]
    # Preemption takes the highest key: the least-cached request.
    assert max([cold, warm], key=policy.admission_key) is cold


def test_eviction_under_page_pressure_end_to_end(llama7b, monkeypatch):
    """Under a tight page budget, cached-but-unreferenced blocks are evicted
    (LRU) to admit new prefixes instead of blocking or preempting."""
    engine = _engine(llama7b, max_seq_len=1024)
    pages = 64 * engine.new_kv_manager().bytes_per_page()
    monkeypatch.setattr(engine, "kv_capacity_bytes", lambda: pages)
    workload = make_shared_prefix_workload(12, shared_prefix_len=256,
                                           unique_len=64, output_len=16,
                                           num_prefix_groups=6,
                                           arrival_rate=2.0, seed=4)
    result = engine.serve(workload, max_num_seqs=2,
                          scheduling=SCHEDULING_PRESETS["prefix"])
    assert result.num_finished == 12
    assert result.prefix_stats.evicted_pages > 0
    assert result.kv_utilization_peak > 0.5


# ----------------------------------------------------------------------
# Conservation under the full lifecycle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("preset,pages,max_seqs,think_s", [
    ("prefix", 160, 4, 4.0),
    ("prefix-aware", 160, 4, 4.0),
    # Optimistic admission + a tight budget: evictions *and* preemptions.
    ("prefix-preempt", 120, 12, 0.5),
])
def test_page_conservation_through_full_lifecycle(llama7b, monkeypatch, preset,
                                                  pages, max_seqs, think_s):
    """Acceptance: alloc/free/evict/preempt interleavings end with
    ``pages_allocated_total - pages_freed_total == used_pages`` and every
    block refcount at zero after drain."""
    from repro.serving import EngineStepper

    engine = _engine(llama7b, max_seq_len=4096)
    # The budget admits every request alone, but the sessions' cached
    # histories (~560 distinct blocks) cannot all stay resident — the run
    # must evict, and under the preempt preset also preempt.
    capacity = pages * engine.new_kv_manager().bytes_per_page()
    monkeypatch.setattr(engine, "kv_capacity_bytes", lambda: capacity)
    workload = make_chat_workload(num_sessions=6, turns_per_session=4,
                                  system_prompt_len=256, user_len=48,
                                  assistant_len=96, think_time_s=think_s,
                                  seed=5)
    stepper = EngineStepper(engine, scheduling=SCHEDULING_PRESETS[preset],
                            max_num_seqs=max_seqs)
    stepper.submit(workload.requests)
    stepper.run()
    result = stepper.result(workload)
    assert result.num_finished == 24
    assert result.prefix_stats.evicted_pages > 0
    if preset == "prefix-preempt":
        assert result.num_preemptions > 0
    kv = stepper.scheduler.kv_manager
    cache = stepper.prefix_cache
    # Conservation: what is still allocated is exactly the cached blocks.
    assert kv.pages_allocated_total - kv.pages_freed_total == kv.used_pages
    assert kv.used_pages == kv.shared_pages == cache.cached_pages
    assert cache.total_ref_count == 0
    assert kv.double_free_count == 0
    # Draining the cache returns the manager to empty, counters balanced.
    cache.clear()
    assert kv.used_pages == 0
    assert kv.pages_allocated_total == kv.pages_freed_total > 0


def test_hopeless_request_does_not_flush_cache(llama7b, monkeypatch):
    """Regression: a request that could never be admitted (footprint larger
    than the whole KV cache) must not trigger eviction of shared blocks on
    every admit pass — that would destroy reuse for everyone else."""
    engine = _engine(llama7b, max_seq_len=4096)
    pages = 200 * engine.new_kv_manager().bytes_per_page()
    monkeypatch.setattr(engine, "kv_capacity_bytes", lambda: pages)
    workload = make_shared_prefix_workload(16, shared_prefix_len=512,
                                           unique_len=96, output_len=32,
                                           arrival_rate=5.0, seed=8)
    baseline = engine.serve(workload.copy_fresh(), max_num_seqs=4,
                            scheduling=SCHEDULING_PRESETS["prefix"])
    # Same traffic plus one hopeless request arriving early.
    poisoned = workload.copy_fresh()
    poisoned.requests.append(
        Request(request_id=99, prompt_len=4000, output_len=200,
                arrival_time=0.05))
    result = engine.serve(poisoned, max_num_seqs=4,
                          scheduling=SCHEDULING_PRESETS["prefix"])
    assert result.num_unserved == 1
    assert result.num_finished == 16
    # Reuse survives: hit rate within noise of the clean run.
    assert result.cache_hit_rate > 0.9 * baseline.cache_hit_rate > 0


def test_evictable_pages_respects_pins(llama7b):
    mgr = _manager(llama7b)
    cache = PrefixCache(mgr)
    base = _request(0, [(1, 32)])                 # 2 blocks: A -> B
    extended = _request(1, [(1, 32), (2, 32)])    # 4 blocks: A -> B -> C -> D
    for request in (base, extended):
        mgr.allocate(request.request_id, request.prompt_len)
        cache.acquire(request, cache.match(request)[0])
        cache.insert(request)
    cache.release(1)
    # Request 0 still pins A and B; only the C -> D tail is reclaimable.
    assert cache.evictable_pages() == 2
    protect = _linear_walk(cache, base)
    assert len(protect) == 2
    assert cache.evictable_pages(protect) == 2
    cache.release(0)
    assert cache.evictable_pages() == 4
    # Protecting the matched A -> B -> C chain leaves only the D leaf.
    assert cache.evictable_pages(cache.match(extended)[0]) == 1


def test_dropped_cache_leaves_no_reference_cycles(llama7b):
    """A radix tree of hundreds of blocks is freed by reference counting
    alone: no node holds its children, so the tree has no cycles."""
    gc.collect()
    gc.disable()
    try:
        mgr = _manager(llama7b)
        cache = PrefixCache(mgr)
        for rid in range(4):
            request = _request(rid, [(0, 512), (rid + 1, 1024)])
            mgr.allocate(rid, request.prompt_len)
            cache.acquire(request, cache.match(request)[0])
            cache.insert(request)
        assert cache.cached_pages >= 100
        cache.release(0)
        del mgr, cache, request
        assert gc.collect() == 0
    finally:
        gc.enable()


class _RecordingSlot:
    """A ``_RadixNode`` slot that logs which nodes have it written."""

    def __init__(self, slot, log):
        self.slot, self.log = slot, log

    def __get__(self, node, owner=None):
        return self if node is None else self.slot.__get__(node, owner)

    def __set__(self, node, value):
        self.log.add(id(node))
        self.slot.__set__(node, value)


def test_acquire_and_release_write_one_node(llama7b, monkeypatch):
    """Pinning a 200-block chain and unpinning it touch only its tip."""
    mgr = _manager(llama7b)
    cache = PrefixCache(mgr)
    first = _request(0, [(1, 200 * 16), (2, 8)])
    mgr.allocate(0, first.prompt_len)
    cache.acquire(first, cache.match(first)[0])
    cache.insert(first)
    cache.release(0)
    second = _request(1, [(1, 200 * 16), (3, 8)])
    nodes, _ = cache.match(second)
    assert len(nodes) == 200
    written = set()
    node_class = prefix_cache_module._RadixNode
    for name in node_class.__slots__:
        monkeypatch.setattr(node_class, name,
                            _RecordingSlot(getattr(node_class, name), written))
    cache.acquire(second, nodes)
    assert written == {id(nodes[-1])}
    cache.release(1)
    assert written == {id(nodes[-1])}
    assert cache.total_ref_count == 0


def test_admission_bound_falls_back_to_exact_count(llama7b):
    """``can_reclaim`` answers from its O(1) bound when the pool has slack
    and counts exactly when pinned chains overlap enough to defeat it."""
    mgr = _manager(llama7b)
    cache = PrefixCache(mgr)
    for rid in range(3):                      # three pins on one 4-block chain
        request = _request(rid, [(1, 64), (2, 8)])
        mgr.allocate(rid, request.prompt_len)
        cache.acquire(request, cache.match(request)[0])
        cache.insert(request)
    other = _request(9, [(5, 96), (6, 8)])    # and a 6-block unpinned chain
    mgr.allocate(9, other.prompt_len)
    cache.acquire(other, cache.match(other)[0])
    cache.insert(other)
    cache.release(9)
    assert cache.cached_pages == 10 and cache.total_ref_count == 12
    assert cache.evictable_pages() == 6
    exact = []
    count = cache.evictable_pages

    def counted(protect=()):
        exact.append(len(protect))
        return count(protect)

    cache.evictable_pages = counted
    assert not cache.can_reclaim(0, [])
    # The bound, 10 - 12 - 0, settles nothing: both answers need the count.
    assert cache.can_reclaim(6, [])
    assert not cache.can_reclaim(7, [])
    assert exact == [0, 0]
    for rid in range(3):
        cache.release(rid)
    # Unpinned, the bound is exact: it settles a fit alone, and a request
    # one page larger falls through to the count.
    assert cache.can_reclaim(10, [])
    assert exact == [0, 0]
    assert not cache.can_reclaim(11, [])
    assert exact == [0, 0, 0]


# ----------------------------------------------------------------------
# Differential oracle: tip pins and eviction bookkeeping vs a full rescan
# ----------------------------------------------------------------------
def _child_map(cache):
    """Each cached block's children, keyed by the parent's id, derived
    from the ``parent`` links alone."""
    children = {}
    for key, node in cache._nodes.items():
        children.setdefault(id(node.parent), {})[key] = node
    return children


def _tip_refcounts(cache):
    """Per-block refcounts derived from the pinned tips: the number of
    tips in each block's subtree."""
    counts = dict.fromkeys(cache._nodes, 0)
    for tip in cache._request_blocks.values():
        node = tip
        while node is not cache._root:
            counts[node.key] += 1
            node = node.parent
    return counts


def _reference_evictable_pages(side, protect=()):
    """Whole-tree recount: blocks whose subtree is unreferenced and
    unprotected (the definition :meth:`PrefixCache.evictable_pages` keeps),
    from the reference refcounts."""
    protected = {id(node) for node in protect}
    children = _child_map(side.cache)

    def count(node):
        total, all_free = 0, True
        for child in children.get(id(node), {}).values():
            below, free = count(child)
            total += below
            all_free = all_free and free
        pinned = side.refs[node.key] > 0 or id(node) in protected
        if pinned or not all_free:
            return total, False
        return total + 1, True

    return sum(count(child)[0]
               for child in children.get(id(side.cache._root), {}).values())


def _reference_demote(side, pages_needed, protected):
    """LRU demotion of the blocks the reference refcounts leave
    unreferenced (the behaviour of :meth:`PrefixCache._demote`)."""
    cache, mgr = side.cache, side.mgr
    heap = [(node.last_used, key) for key, node in cache._nodes.items()
            if side.refs[key] == 0 and not node.demoted
            and id(node) not in protected]
    heapq.heapify(heap)
    reclaimed = 0
    while heap and reclaimed < pages_needed:
        node = cache._nodes[heapq.heappop(heap)[1]]
        before = mgr.free_pages
        mgr.demote_shared_page()
        node.demoted = True
        cache.stats.demoted_pages_total += 1
        reclaimed += mgr.free_pages - before
    cache.stats.peak_demoted_pages = max(cache.stats.peak_demoted_pages,
                                         mgr.demoted_pages)
    return reclaimed


def _reference_evict(side, pages_needed, protect=(), *, demote_first=True):
    """LRU leaf eviction with the candidate heap rebuilt from the whole tree
    on every call (the behaviour :meth:`PrefixCache.evict` must match)."""
    if pages_needed <= 0:
        return 0
    cache = side.cache
    protected = {id(node) for node in protect}
    reclaimed = 0
    if cache.demotion and demote_first:
        reclaimed = _reference_demote(side, pages_needed, protected)
        if reclaimed >= pages_needed:
            return reclaimed

    def evictable(node):
        return (side.refs[node.key] == 0
                and id(node) not in _child_map(cache)
                and id(node) not in protected)

    heap = [(node.last_used, key) for key, node in cache._nodes.items()
            if evictable(node)]
    heapq.heapify(heap)
    while heap and reclaimed < pages_needed:
        last_used, key = heapq.heappop(heap)
        node = cache._nodes.get(key)
        if node is None or node.last_used != last_used or not evictable(node):
            continue
        parent = node.parent
        before = cache.kv_manager.free_pages
        cache._evict_node(node)
        reclaimed += cache.kv_manager.free_pages - before
        if parent is not cache._root and evictable(parent):
            heapq.heappush(heap, (parent.last_used, parent.key))
    return reclaimed


class _Side:
    """One cache, its KV manager and eviction log, and the eviction methods
    under comparison: the cache's own, or the whole-tree references.

    Every side keeps reference bookkeeping next to its cache: each
    request's block list, from what :meth:`PrefixCache.match` returned and
    what :meth:`PrefixCache.insert` published, and per-block refcounts
    over those lists.  The reference methods read only these.
    """

    def __init__(self, llama7b, system, demotion, reference):
        probe = _manager(llama7b, system=system)
        self.mgr = PagedKVCacheManager(
            model=llama7b, system=get_system(system),
            capacity_bytes=48 * probe.bytes_per_page(), page_size=16,
            max_seq_len=1536)
        self.cache = PrefixCache(self.mgr, demotion=demotion)
        self.chains = {}
        self.refs = collections.Counter()
        self.reference = reference
        if reference:
            self.evict = functools.partial(_reference_evict, self)
            self.evictable_pages = functools.partial(
                _reference_evictable_pages, self)
        else:
            self.evict = self.cache.evict
            self.evictable_pages = self.cache.evictable_pages
        self.evicted = []
        evict_node = self.cache._evict_node

        def logged(node):
            assert self.refs[node.key] == 0
            self.evicted.append(node.key)
            evict_node(node)

        self.cache._evict_node = logged
        self.requests = {}

    def admit(self, rid, segments):
        """Scheduler-style admission: match, evict to fit, allocate, pin.

        Returns whether it admitted, and whether it chose to evict.  The
        choice is :meth:`PrefixCache.can_reclaim` on the cache's own side
        and the whole-tree recount on the reference side; both equal
        ``0 < shortfall <= evictable_pages``.
        """
        request = self.requests[rid] = _request(rid, segments)
        nodes, _ = self.cache.match(request)

        def shortfall():
            return (self.mgr.pages_needed(rid, request.prompt_len, len(nodes))
                    + self.cache.promotion_page_need(nodes)
                    - self.mgr.free_pages)

        exact = 0 < shortfall() <= self.evictable_pages(nodes)
        if not self.reference:
            assert self.cache.can_reclaim(shortfall(), nodes) == exact
        if exact:
            self.evict(shortfall(), nodes)
        if shortfall() > 0:
            return False, exact
        self.mgr.allocate(rid, request.prompt_len, len(nodes))
        self.cache.acquire(request, nodes)
        self.chains[rid] = list(nodes)
        self.refs.update(node.key for node in nodes)
        return True, exact

    def insert(self, rid):
        """Publish ``rid``'s blocks; the published ones extend its list."""
        request = self.requests[rid]
        published = self.cache.insert(request)
        chain = self.chains[rid]
        keys = _naive_block_keys(request, self.cache.page_size)
        chain.extend(self.cache._nodes[key]
                     for key in keys[len(chain):len(chain) + published])
        self.refs.update(node.key for node in chain[len(chain) - published:])
        return published, chain

    def release(self, rid):
        self.cache.release(rid)
        self.mgr.free(rid)
        self.refs.subtract(node.key for node in self.chains.pop(rid))

    def clear(self):
        return self.evict(len(self.cache._nodes), demote_first=False)


def _random_segments(rng):
    segments = [(rng.randrange(3), rng.choice((16, 32, 40)))]
    for _ in range(rng.randrange(3)):
        segments.append((10 + rng.randrange(6), rng.choice((8, 16, 24))))
    return segments


def _tree(cache, refcounts):
    return {key: (refcounts[key], node.demoted, node.last_used,
                  node.parent.key)
            for key, node in cache._nodes.items()}


def _linear_walk(cache, request):
    """Reference walk: the request's cached chain, child by child from the
    radix tree's root, over children derived from the parent links."""
    children = _child_map(cache)
    nodes = []
    node = cache._root
    for key in _naive_block_keys(request, cache.page_size, cache.namespace):
        node = children.get(id(node), {}).get(key)
        if node is None:
            break
        nodes.append(node)
    return nodes


def _linear_match(cache, request):
    """Reference match: the walk, giving back blocks until the last prompt
    token is left to recompute."""
    nodes = _linear_walk(cache, request)
    while nodes and len(nodes) * cache.page_size >= request.prompt_len:
        nodes.pop()
    return nodes


def _assert_agree(fast, ref, segments):
    cache = fast.cache
    derived = _tip_refcounts(cache)
    # The refcounts the tips imply are the reference ones, on both sides.
    for side in (fast, ref):
        assert _tip_refcounts(side.cache) == {
            key: side.refs[key] for key in side.cache._nodes}
        assert side.cache.total_ref_count == sum(side.refs.values())
    assert _tree(cache, derived) == _tree(ref.cache, ref.refs)
    assert fast.evicted == ref.evicted
    assert fast.mgr.free_pages == ref.mgr.free_pages
    unreferenced = sum(1 for key in ref.cache._nodes if ref.refs[key] == 0)
    assert cache.unreferenced_pages == unreferenced
    # Protect with the (non-mutating) cached chain of a probe prompt; the
    # index-probed lookup must find the same length as the child walk.
    probe = _request(-1, segments)
    chain_fast = _linear_walk(cache, probe)
    chain_ref = _linear_walk(ref.cache, probe)
    assert cache.lookup_tokens(probe) == (len(_linear_match(cache, probe))
                                          * cache.page_size)
    assert cache.evictable_pages() == ref.evictable_pages()
    assert cache.evictable_pages(chain_fast) == ref.evictable_pages(chain_ref)
    for node in cache._nodes.values():
        if node.parent is not cache._root:
            assert derived[node.parent.key] >= derived[node.key]


def _drive(llama7b, system, demotion, steps, seed, weights):
    """Random match/acquire/insert/release/evict interleaving, applied to a
    cache and to a twin that counts and evicts by whole-tree rescans."""
    rng = random.Random(seed)
    fast = _Side(llama7b, system, demotion, reference=False)
    ref = _Side(llama7b, system, demotion, reference=True)
    sides = (fast, ref)
    pending, inserted = [], []
    rebuilds = 0
    ops = ("admit", "insert", "release", "match", "evict", "clear")
    for step in range(steps):
        op = rng.choices(ops, weights)[0]
        segments = _random_segments(rng)
        heap_before = len(fast.cache._leaf_heap)
        if op == "admit":
            admitted = {side.admit(step, segments) for side in sides}
            assert len(admitted) == 1
            if admitted.pop()[0]:
                pending.append(step)
        elif op == "insert" and pending:
            rid = pending.pop(rng.randrange(len(pending)))
            for side in sides:
                tick = side.cache._tick
                published, chain = side.insert(rid)
                assert [node.last_used for node in chain[
                    len(chain) - published:]] == list(
                        range(tick + 1, tick + 1 + published))
            inserted.append(rid)
        elif op == "release" and (pending or inserted):
            pool = rng.choice([p for p in (pending, inserted) if p])
            rid = pool.pop(rng.randrange(len(pool)))
            for side in sides:
                side.release(rid)
        elif op == "match":
            for side in sides:
                probe = _request(-1, segments)
                expected = _linear_match(side.cache, probe)
                tick = side.cache._tick
                nodes, tokens = side.cache.match(probe)
                assert nodes == expected
                assert tokens == len(expected) * side.cache.page_size
                # Stamped root first, one fresh tick per block.
                assert [node.last_used for node in nodes] == list(
                    range(tick + 1, tick + 1 + len(nodes)))
                assert side.cache._tick == tick + len(nodes)
        elif op == "evict":
            pages = rng.randrange(1, 9)
            demote_first = rng.random() < 0.7
            results = set()
            for side in sides:
                protect, _ = side.cache.match(_request(-1, segments))
                results.add((side.evictable_pages(protect),
                             side.evict(pages, protect,
                                        demote_first=demote_first)))
            assert len(results) == 1
        elif op == "clear":
            assert fast.clear() == ref.clear()
        if op in ("release", "match"):
            # Both only ever push; a shorter heap means a push rebuilt it.
            rebuilds += len(fast.cache._leaf_heap) < heap_before
        _assert_agree(fast, ref, segments)
    # Draining reaches every unreferenced block, including any that an
    # earlier call shielded.
    assert fast.clear() == ref.clear()
    _assert_agree(fast, ref, segments)
    assert fast.cache.unreferenced_pages == 0
    return fast, rebuilds


@pytest.mark.parametrize("system,demotion", [
    ("qserve-w4a8kv4-chn", False),
    ("trt-fp16", False),
    ("trt-fp16", True),
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eviction_bookkeeping_matches_full_rescan(llama7b, system, demotion,
                                                  seed):
    """``evictable_pages``, ``unreferenced_pages``, ``total_ref_count``, the
    tips' implied refcounts and the LRU eviction order equal whole-tree
    recounts over reference bookkeeping and a per-call candidate rebuild
    after every operation of a random admission/insert/release/evict
    interleaving."""
    fast, _ = _drive(llama7b, system, demotion, steps=400, seed=seed,
                     weights=(6, 4, 5, 3, 2, 0.1))
    assert fast.evicted                       # the pool really overflowed
    if demotion:
        assert fast.cache.stats.demoted_pages_total > 0


def test_eviction_heap_rebuild_keeps_lru_order(llama7b):
    """A long, match-heavy run piles stale entries onto the persistent leaf
    heap until it is rebuilt from the tree; eviction order still matches."""
    fast, rebuilds = _drive(llama7b, "qserve-w4a8kv4-chn", False, steps=3000,
                            seed=7, weights=(2, 2, 2, 20, 0.2, 0))
    assert rebuilds > 0
    assert fast.evicted


def test_summary_text_reports_gauges(llama7b):
    engine = _engine(llama7b, max_seq_len=1024)
    workload = make_shared_prefix_workload(6, shared_prefix_len=256,
                                           unique_len=64, output_len=16)
    result = engine.serve(workload, max_num_seqs=6,
                          scheduling=SCHEDULING_PRESETS["prefix"])
    text = result.summary_text()
    assert "KV utilization" in text
    assert "prefix cache: hit rate" in text
    assert "TTFT" in text and "TPOT" in text
    # Without caching the hit-rate gauge is absent but KV utilization stays.
    plain = engine.serve(workload.copy_fresh(), max_num_seqs=6)
    plain_text = plain.summary_text()
    assert "KV utilization" in plain_text
    assert "prefix cache" not in plain_text


# ----------------------------------------------------------------------
# Workload generators
# ----------------------------------------------------------------------
def test_shared_prefix_workload_structure():
    wl = make_shared_prefix_workload(8, shared_prefix_len=128, unique_len=32,
                                     num_prefix_groups=2, seed=1)
    assert len(wl) == 8
    groups = {r.prompt_segments[0][0] for r in wl.requests}
    assert len(groups) == 2
    uniques = [r.prompt_segments[1][0] for r in wl.requests]
    assert len(set(uniques)) == 8               # suffixes never collide
    for request in wl.requests:
        assert request.prompt_len == 160
        assert sum(length for _, length in request.prompt_segments) == 160


def test_chat_workload_structure():
    wl = make_chat_workload(num_sessions=3, turns_per_session=4,
                            system_prompt_len=128, user_len=32,
                            assistant_len=64, think_time_s=5.0, seed=9)
    assert len(wl) == 12
    for s in range(3):
        turns = wl.requests[s * 4:(s + 1) * 4]
        arrivals = [r.arrival_time for r in turns]
        assert arrivals == sorted(arrivals)
        lengths = [r.prompt_len for r in turns]
        assert lengths == sorted(lengths) and lengths[0] < lengths[-1]
        # Every turn's prompt extends the previous turn's prompt segments.
        for prev, cur in zip(turns, turns[1:]):
            assert cur.prompt_segments[:len(prev.prompt_segments)] == \
                prev.prompt_segments
        # All sessions share one system prompt segment.
        assert turns[0].prompt_segments[0] == wl.requests[0].prompt_segments[0]
    unique_systems = make_chat_workload(num_sessions=2, turns_per_session=1,
                                        shared_system_prompt=False, seed=1)
    first, second = unique_systems.requests
    assert first.prompt_segments[0][0] != second.prompt_segments[0][0]


def test_chat_workload_copy_fresh_preserves_segments():
    wl = make_chat_workload(num_sessions=1, turns_per_session=2, seed=0)
    copy = wl.copy_fresh()
    assert [r.prompt_segments for r in copy.requests] == \
        [r.prompt_segments for r in wl.requests]


def test_request_segment_validation():
    with pytest.raises(ValueError, match="sum to prompt_len"):
        Request(request_id=0, prompt_len=100, output_len=4,
                prompt_segments=((1, 64),))
    with pytest.raises(ValueError):
        make_shared_prefix_workload(0)
    with pytest.raises(ValueError):
        make_chat_workload(num_sessions=0)
    with pytest.raises(ValueError):
        make_chat_workload(think_time_s=-1.0)


@pytest.mark.parametrize("segments", [
    ((1.9, 50), (True, 50)),          # truncation aliased both to id 1
    ((True, 50), (2, 50)),
    ((1, -5), (2, 105)),
    ((1, 0), (2, 100)),
    ((1, 50.0), (2, 50)),
    ((1, True), (2, 99)),
    ((1, 50, 0), (2, 50)),
    ((1, "50"), (2, 50)),
])
def test_request_rejects_malformed_segments(segments):
    with pytest.raises(ValueError, match="prompt_segments"):
        Request(request_id=0, prompt_len=100, output_len=4,
                prompt_segments=segments)


def test_request_accepts_numpy_segments():
    request = Request(request_id=0, prompt_len=100, output_len=4,
                      prompt_segments=[[np.int64(-3), np.int32(60)],
                                       (7, np.uint8(40))])
    assert request.prompt_segments == ((-3, 60), (7, 40))
    assert all(type(value) is int
               for segment in request.prompt_segments for value in segment)
