"""Prefix-sharing KV cache: radix-tree block index over ref-counted pages.

Production LLM traffic is dominated by shared prefixes — system prompts,
few-shot templates, multi-turn chat histories — and modern engines (vLLM's
automatic prefix caching, SGLang's RadixAttention) skip the prefill of any
prompt prefix whose KV state is already resident.  This module brings that
reuse to the simulator:

* Prompts carry *content* as ``Request.prompt_segments`` — a sequence of
  ``(content_id, length)`` pairs.  :func:`prompt_block_keys` folds them into
  one chained hash per complete ``page_size``-token block, so two prompts
  that share an identical token prefix share identical leading block keys
  (and requests without segments never alias each other).  A cache keeps
  the chains in a trie keyed by segment prefix, so each distinct prefix is
  hashed once: a chat turn pays for its new segments' blocks, not for the
  whole history it repeats.
* :class:`PrefixCache` keeps a radix tree of those blocks.  Each node is one
  KV page held in the :class:`~repro.serving.kv_cache_manager.\
PagedKVCacheManager`'s *shared pool*: a shared page counts once toward
  capacity no matter how many requests reference it, and carries a refcount
  so reclamation can never pull a page out from under a running request.
* Cached-but-unreferenced blocks are reclaimed **LRU, leaves first** under
  page pressure (:meth:`PrefixCache.evict`), which preserves the radix
  invariant that every cached block's prefix chain is also cached.
* Every request pins a *root chain*: :meth:`PrefixCache.acquire` pins the
  matched prefix and :meth:`PrefixCache.insert` extends it block by block.
  The cache records only the chain's deepest block — its *tip* — so pinning
  and unpinning cost O(1) whatever the chain's length.  A block's refcount
  is the number of tips in its subtree, which makes refcounts monotone
  along every path, so an unreferenced block never has a referenced
  descendant.  A leaf's refcount is its own pin count, and that is all the
  eviction path reads: the LRU leaf candidates live in one heap kept for
  the cache's lifetime instead of being rebuilt from the whole tree on
  every :meth:`PrefixCache.evict`.  No node holds its children (a child is
  found through the block index, since keys are chained), so the tree has
  no reference cycles for the garbage collector to trace.
* With ``demotion=True`` (and a KV precision above 4 bits), eviction gets a
  cheaper first resort: cold unreferenced blocks are **demoted** to the
  4-bit tier (:data:`repro.serving.precision.DEMOTED_KV_BITS`) LRU-first,
  reclaiming most of their footprint while keeping their contents hittable.
  Only when demotion cannot cover the shortfall does true LRU eviction run.
  A hit on a demoted block costs a dequantization pass (charged by the
  engine via ``Request.demoted_hit_tokens``) and promotes the block back to
  full precision when capacity allows; demotion never applies to referenced
  or protected blocks, so running requests always attend over the pages
  they pinned.

Lifecycle, as driven by the scheduler:

1. *Admission* — :meth:`match` finds the request's longest cached prefix
   (capped at ``prompt_len - 1``: the final prompt token is always
   recomputed to produce the first output logits) by a binary search of
   the block index, and :meth:`acquire` pins the matched blocks.  Only the
   cold suffix is prefilled and only its pages are privately allocated.
2. *Prefill completion* — :meth:`insert` publishes the request's complete
   prompt blocks into the tree, converting private pages to shared ones (or
   deduplicating against blocks another request published first).
3. *Finish / preemption* — :meth:`release` drops the request's references.
   The blocks stay cached for future hits; preemption therefore reclaims
   only private pages and can never free a block another request still
   references.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.serving.kv_cache_manager import PagedKVCacheManager
from repro.serving.request import Request

__all__ = ["prompt_block_keys", "PrefixCacheStats", "PrefixCache"]

#: Hash-chain seed for the first block of every prompt (the radix root).
_ROOT_KEY = 0

#: The eviction heap drops stale entries lazily; once a push leaves it with
#: more than this many entries per cached block it is rebuilt from the
#: tree.  That caps it at twice the peak block count, and since a rebuild
#: leaves at most one entry per block and every eviction pops its own
#: entry, more pushes than blocks separate two rebuilds: O(1) per push.
_HEAP_ENTRIES_PER_BLOCK = 2


class _ChainState:
    """The block-key chain of one segment prefix: a node of a segment trie.

    ``keys`` holds the chained keys of the prefix's complete blocks, ``tip``
    the last of them (the root salt before the first block), and
    ``partial`` / ``filled`` the open block's content slices and its token
    count.  ``children`` maps a next ``(content_id, length)`` segment to
    the state after it, so a chain is hashed once per distinct segment
    prefix, however many prompts extend it: a chat turn repeats the
    previous turn's segments plus two, so it hashes only the blocks its two
    new segments complete.
    """

    __slots__ = ("keys", "tip", "partial", "filled", "children")

    def __init__(self, keys: List[int], tip: int,
                 partial: Tuple[Tuple[int, int, int], ...],
                 filled: int) -> None:
        self.keys = keys
        self.tip = tip
        self.partial = partial
        self.filled = filled
        self.children: Dict[Tuple[int, int], "_ChainState"] = {}

    @classmethod
    def root(cls, namespace: Optional[str]) -> "_ChainState":
        """The empty prefix, salted by ``namespace`` (see
        :func:`prompt_block_keys`)."""
        salt = _ROOT_KEY
        if namespace is not None:
            salt = hash((_ROOT_KEY, tuple(ord(c) for c in namespace)))
        return cls([], salt, (), 0)

    def keys_of(self, segments: Optional[Tuple[Tuple[int, int], ...]],
                page_size: int) -> List[int]:
        """Block keys of a prompt with ``segments``, this being the root.

        They are the keys of the state after the last segment: ``Request``
        requires the segment lengths to sum to ``prompt_len``, so that
        state's list holds exactly the prompt's complete blocks.  The list
        is shared with the trie; never mutate it.
        """
        if segments is None:
            return []
        state = self
        for segment in segments:
            child = state.children.get(segment)
            if child is None:
                child = state.children[segment] = state._extend(
                    segment[0], segment[1], page_size)
            state = child
        return state.keys

    def _extend(self, content_id: int, length: int,
                page_size: int) -> "_ChainState":
        """The state after appending ``length`` tokens of ``content_id``.

        A block's content is its slices ``(content_id, start, end)``: the
        open block closes with the segment's head, whole blocks inside the
        segment are one slice each, and the tail opens the next block.
        """
        new: List[int] = []
        parent = self.tip
        partial = self.partial
        offset = 0
        if self.filled:
            offset = min(page_size - self.filled, length)
            partial += ((content_id, 0, offset),)
            if self.filled + offset < page_size:
                return _ChainState(self.keys, parent, partial,
                                   self.filled + offset)
            parent = hash((parent, partial))
            new.append(parent)
        end = length - (length - offset) % page_size
        for start in range(offset, end, page_size):
            parent = hash((parent, ((content_id, start, start + page_size),)))
            new.append(parent)
        tail = ((content_id, end, length),) if end < length else ()
        return _ChainState(self.keys + new if new else self.keys, parent,
                           tail, length - end)


def prompt_block_keys(request: Request, page_size: int,
                      namespace: Optional[str] = None) -> List[int]:
    """Chained content hashes of the request's *complete* prompt blocks.

    Block ``i`` covers prompt tokens ``[i * page_size, (i + 1) * page_size)``
    and its key hashes the block's content slices together with the previous
    block's key, so equal keys imply equal full prefixes (vLLM-style chained
    block hashing).  The trailing partial block, and requests without
    ``prompt_segments``, produce no keys — their KV state is never shared.
    Content ids and offsets are plain integers, so keys are deterministic
    across processes (no string-hash randomization; namespaces are hashed
    through the same integer chain via their characters' code points).

    ``namespace`` salts the chain's root: multi-model serving passes the
    model name so byte-identical prompts produce disjoint key chains per
    model — KV state encodes model activations, so cross-model block
    adoption would be silently wrong.  ``None`` (the default) keeps the
    historical unsalted chain.  :class:`PrefixCache` derives the same keys
    from a segment trie it keeps (:class:`_ChainState`).
    """
    return _ChainState.root(namespace).keys_of(request.prompt_segments,
                                               page_size)


@dataclass
class PrefixCacheStats:
    """Counters of one serving run's prefix-cache behaviour.

    ``hit_tokens`` / ``miss_tokens`` partition every admitted prompt's tokens
    into served-from-cache and cold-prefilled (recompute of generated tokens
    after a preemption is not cache-eligible and is excluded); the ratio is
    the token hit rate.  ``inserted`` / ``deduped`` / ``evicted_pages`` trace
    the shared pool's churn.
    """

    lookups: int = 0
    hit_tokens: int = 0
    miss_tokens: int = 0
    inserted_pages: int = 0
    deduped_pages: int = 0
    evicted_pages: int = 0
    peak_cached_pages: int = 0
    #: Demoted-tier churn: pages squeezed to 4-bit under pressure, pages
    #: restored to full precision, and hit tokens served from demoted blocks
    #: (each of which cost a dequantization pass).
    demoted_pages_total: int = 0
    promoted_pages_total: int = 0
    demoted_hit_tokens: int = 0
    peak_demoted_pages: int = 0

    @property
    def saved_prefill_tokens(self) -> int:
        """Prefill tokens the engine skipped thanks to cache hits."""
        return self.hit_tokens

    @property
    def hit_rate(self) -> float:
        """Token hit rate over all admitted prompt tokens."""
        total = self.hit_tokens + self.miss_tokens
        return 0.0 if total == 0 else self.hit_tokens / total


class _RadixNode:
    """One cached KV block: a node of the prefix radix tree.

    ``children`` counts the node's children and ``pins`` the requests whose
    chain ends here; ``depth`` is the chain's length in blocks.
    """

    __slots__ = ("key", "parent", "depth", "children", "pins", "last_used",
                 "demoted")

    def __init__(self, key: Optional[int], parent: Optional["_RadixNode"]) -> None:
        self.key = key
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1
        self.children = 0
        self.pins = 0
        self.last_used = 0
        self.demoted = False


class PrefixCache:
    """Radix-tree index of shared KV blocks over one paged KV manager.

    The cache and the scheduler share one
    :class:`~repro.serving.kv_cache_manager.PagedKVCacheManager`: shared
    pages live in the manager's shared pool and private (per-request) pages
    keep their existing semantics, so ``used_pages`` and the lifetime
    conservation counters cover both populations at all times.
    """

    def __init__(self, kv_manager: PagedKVCacheManager,
                 demotion: bool = False,
                 namespace: Optional[str] = None) -> None:
        self.kv_manager = kv_manager
        self.page_size = kv_manager.page_size
        #: Key-chain salt (see :func:`prompt_block_keys`); multi-model
        #: serving sets it to the model name so no two models' caches can
        #: ever produce — let alone adopt — each other's block keys.
        self.namespace = namespace
        #: Segment trie of this cache's key chains, and the tag a request's
        #: memoised keys carry (see :meth:`_keys`).
        self._chains = _ChainState.root(namespace)
        self._chain_tag = (self.page_size, namespace)
        #: Demote cold blocks to 4-bit before evicting.  Silently off on
        #: systems where the demoted tier saves no bytes (native KV4) or
        #: that lack paged KV — demotion would be a pure no-op there.
        self.demotion = demotion and kv_manager.demotion_supported
        self._root = _RadixNode(key=None, parent=None)
        self._nodes: Dict[int, _RadixNode] = {}
        #: Each pinning request's chain tip (the root for an empty chain).
        self._request_blocks: Dict[int, _RadixNode] = {}
        #: The pinned chains' summed lengths: the sum of all refcounts.
        self._pinned_depth = 0
        self._tick = 0
        #: ``(last_used, key)`` of unreferenced leaves, pushed whenever a
        #: block becomes one or is restamped while one.  Entries go stale
        #: when their block is referenced, gains a child, is touched again
        #: or is evicted; :meth:`evict` skips those as it pops.
        self._leaf_heap: List[Tuple[int, int]] = []
        self.stats = PrefixCacheStats()

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def cached_pages(self) -> int:
        """Blocks currently cached (referenced or not)."""
        return len(self._nodes)

    @property
    def unreferenced_pages(self) -> int:
        """Cached blocks no running request references (eviction candidates).

        Because requests pin root chains, these blocks' whole subtrees are
        unreferenced too, so every one of them is reclaimable leaves-first.
        Counted by walking up from each pinned tip: O(referenced blocks).
        """
        return len(self._nodes) - len(self._held())

    def evictable_pages(self, protect: Sequence["_RadixNode"] = ()) -> int:
        """Pages :meth:`evict` could reclaim right now, leaves-first.

        A block is reclaimable only if its entire subtree is unreferenced
        (and unprotected) — evicting it must not orphan a referenced
        descendant.  Callers use this to avoid flushing the cache for a
        request that could not be admitted even after a full eviction pass.

        Refcounts are monotone along every root path (each request pins a
        root chain), so an unreferenced block has no referenced descendant;
        ``protect`` is a root chain too (what :meth:`match` returned), so an
        unprotected block has no protected descendant.  The reclaimable
        blocks are therefore exactly those on no pinned chain and outside
        ``protect``, counted in O(referenced blocks + len(protect)).
        """
        return len(self._nodes) - len(self._held(protect))

    def can_reclaim(self, pages: int, protect: Sequence["_RadixNode"]) -> bool:
        """Whether ``0 < pages <= evictable_pages(protect)``, bound first.

        No more blocks are held than the pinned chains' lengths plus
        ``protect``'s, so a pool with that much slack answers in O(1); only
        a tighter one pays the exact count.
        """
        if pages <= 0:
            return False
        bound = len(self._nodes) - self._pinned_depth - len(protect)
        return pages <= bound or pages <= self.evictable_pages(protect)

    @property
    def total_ref_count(self) -> int:
        """Sum of all block refcounts; zero once every request drained."""
        return self._pinned_depth

    def _held(self, protect: Sequence[_RadixNode] = ()) -> set:
        """Ids of the blocks on a pinned chain or in ``protect`` (a root
        chain), found by walking up from each tip to a block already seen."""
        root = self._root
        held = set()
        tips = list(self._request_blocks.values())
        tips.extend(protect[-1:])
        for node in tips:
            while node is not root and id(node) not in held:
                held.add(id(node))
                node = node.parent
        return held

    def _push_leaf(self, node: _RadixNode) -> None:
        """Record ``node`` (an unreferenced leaf) as an eviction candidate."""
        heap = self._leaf_heap
        heapq.heappush(heap, (node.last_used, node.key))
        if len(heap) > _HEAP_ENTRIES_PER_BLOCK * len(self._nodes):
            # In place, so an :meth:`evict` loop holding ``heap`` sees it.
            heap[:] = [(n.last_used, key) for key, n in self._nodes.items()
                       if not n.pins and not n.children]
            heapq.heapify(heap)

    def _keys(self, request: Request) -> List[int]:
        """Block keys of ``request``, memoised on the request object.

        ``prompt_segments`` is immutable after construction, so a request's
        chain is looked up once — cache-aware admission and the affinity
        router probe the same request many times per run — and the segment
        trie hashes each distinct segment prefix once per cache, so a chat
        turn pays only for the blocks its new segments complete.  The list
        is shared with the trie and with every cache of the same page size
        and namespace: read it, never mutate it.
        """
        cached = getattr(request, "_block_keys_cache", None)
        if cached is not None and cached[0] == self._chain_tag:
            return cached[1]
        keys = self._chains.keys_of(request.prompt_segments, self.page_size)
        request._block_keys_cache = (self._chain_tag, keys)
        return keys

    def _match_length(self, request: Request) -> Tuple[List[int], int]:
        """The request's keys and how many leading ones are cached, capped.

        Keys are chained and the radix invariant keeps every cached block's
        prefix chain cached, so the cached keys are a leading run of
        ``keys`` and a binary search over the index finds its length.  The
        cap: never serve the entire prompt from cache — the final prompt
        token must be recomputed to produce the first output logits, so a
        fully block-aligned full match gives back its last block.
        """
        keys = self._keys(request)
        nodes = self._nodes
        low = 0
        high = min(len(keys), (request.prompt_len - 1) // self.page_size)
        while low < high:
            mid = (low + high + 1) >> 1
            if keys[mid - 1] in nodes:
                low = mid
            else:
                high = mid - 1
        return keys, low

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def match(self, request: Request) -> Tuple[List[_RadixNode], int]:
        """Longest cached prefix of ``request``: (blocks, covered tokens).

        Marks the matched blocks as recently used.  The caller must
        :meth:`acquire` (or abandon) the returned blocks before any eviction
        it triggers itself — :meth:`evict` takes a ``protect`` list for the
        window between match and acquire.
        """
        keys, length = self._match_length(request)
        if not length:
            return [], 0
        # One index probe finds the deepest matched block, and parent links
        # give the rest of its chain.  Ticks rise from the root's child to
        # the deepest block, as a walk down from the root would stamp them.
        root = self._root
        deepest = node = self._nodes[keys[length - 1]]
        tick = self._tick = self._tick + length
        nodes = []
        while node is not root:
            node.last_used = tick
            tick -= 1
            nodes.append(node)
            node = node.parent
        nodes.reverse()
        # Every other matched block has the next one as a child, so only the
        # deepest can be an unreferenced leaf, restamped.
        if not deepest.pins and not deepest.children:
            self._push_leaf(deepest)
        return nodes, length * self.page_size

    def lookup_tokens(self, request: Request) -> int:
        """Non-mutating probe: cached prefix tokens a request would hit now.

        Used by the cache-aware admission policy and the prefix-affinity
        router; does not update recency.
        """
        return self._match_length(request)[1] * self.page_size

    # ------------------------------------------------------------------
    # Reference lifecycle
    # ------------------------------------------------------------------
    def acquire(self, request: Request, nodes: List[_RadixNode],
                count_stats: bool = True) -> None:
        """Pin ``nodes`` (the blocks :meth:`match` returned) for ``request``.

        Records the admission in the hit/miss token statistics and stamps the
        request's ``cached_tokens`` / ``shared_kv_pages`` bookkeeping fields.
        ``count_stats=False`` pins without touching the hit/miss counters —
        used for migrated requests, whose uncached tokens arrive via KV
        transfer rather than a cold local prefill and would otherwise skew
        the replica's hit rate.
        """
        tip = nodes[-1] if nodes else self._root
        tip.pins += 1
        self._pinned_depth += len(nodes)
        self._request_blocks[request.request_id] = tip
        request.cached_tokens = len(nodes) * self.page_size
        request.shared_kv_pages = len(nodes)
        # Only a cache that demotes holds demoted blocks.  Root first:
        # promotion checks the free pool block by block.
        demoted = self.demotion and [node for node in nodes if node.demoted]
        if demoted:
            # Every demoted hit pays a dequantization pass (charged by the
            # engine when the request's prefill starts), whether or not the
            # block can be promoted back to full precision right now.
            request.demoted_hit_tokens = len(demoted) * self.page_size
            self.stats.demoted_hit_tokens += request.demoted_hit_tokens
            self._promote(demoted)
        if count_stats:
            self.stats.lookups += 1
            self.stats.hit_tokens += request.cached_tokens
            self.stats.miss_tokens += request.prompt_len - request.cached_tokens

    def insert(self, request: Request) -> int:
        """Publish the request's (fully prefilled) complete prompt blocks.

        Each block beyond the request's matched prefix either becomes a new
        tree node — one of the request's private pages converts into a shared
        page — or already exists because another request published the same
        content first, in which case the private duplicate page is dropped
        and the shared copy referenced (``deduped_pages``).  Returns the
        number of blocks newly referenced.

        Drops stay in block order (a demoted duplicate's promotion reads the
        free count right after its drop); the conversions move no free page,
        so they are made in one call at the end.
        """
        keys = self._keys(request)
        if not keys:
            return 0
        request_id = request.request_id
        tip = self._request_blocks.get(request_id)
        node = tip or self._root
        start = node.depth
        index = self._nodes
        tick = self._tick
        created = 0
        for key in keys[start:]:
            # Keys are chained, so an indexed block extends ``node``.
            child = index.get(key)
            if child is None:
                child = index[key] = _RadixNode(key, node)
                node.children += 1
                created += 1
            else:
                self.kv_manager.drop_private_page(request_id)
                self.stats.deduped_pages += 1
                if child.demoted:
                    # The request just prefilled this block at full
                    # precision; the drop above freed a whole page, so the
                    # (at most one-page) promotion always fits.
                    self._promote([child])
            # Referenced from here on, so the stamp pushes no leaf.
            tick += 1
            child.last_used = tick
            node = child
        self._tick = tick
        if node is not tip:
            # Move the request's pin to its new tip.
            if tip is not None:
                tip.pins -= 1
            node.pins += 1
            self._request_blocks[request_id] = node
            self._pinned_depth += node.depth - start
        if created:
            self.kv_manager.convert_private_to_shared(request_id, created)
            self.stats.inserted_pages += created
        request.shared_kv_pages = node.depth
        self.stats.peak_cached_pages = max(self.stats.peak_cached_pages,
                                           len(self._nodes))
        return node.depth - start

    def is_pinned(self, request_id: int) -> bool:
        """Whether ``request_id`` already holds block references.

        True for requests whose prefix was pinned ahead of admission (an
        in-flight migration); admission must then reuse those references
        instead of matching again, or the refcounts would double.
        """
        return request_id in self._request_blocks

    def release(self, request_id: int) -> None:
        """Drop the request's block references (finish or preemption).

        The blocks stay cached — unreferenced blocks are exactly the LRU
        eviction candidates — so a departing request costs nothing to its
        prefix siblings.
        """
        tip = self._request_blocks.pop(request_id, None)
        if tip is None:
            return
        tip.pins -= 1
        self._pinned_depth -= tip.depth
        if not tip.pins and not tip.children and tip is not self._root:
            self._push_leaf(tip)

    # ------------------------------------------------------------------
    # Demoted tier
    # ------------------------------------------------------------------
    def promotion_page_need(self, nodes: Iterable[_RadixNode]) -> int:
        """Free pages that promoting the demoted blocks in ``nodes`` costs.

        The admission path budgets this alongside the cold suffix's private
        pages so :meth:`acquire`'s promotions are pre-funded.  Zero whenever
        demotion is off or no matched block is demoted.
        """
        count = sum(1 for node in nodes if node.demoted)
        return self.kv_manager.promotion_page_need(count)

    def _promote(self, nodes: List[_RadixNode]) -> None:
        """Restore demoted ``nodes`` to full precision, as capacity allows.

        Promotion consumes the fractional capacity demotion reclaimed; a
        block whose marginal page cost exceeds the free pool simply stays
        demoted (still hittable, still priced as a demoted hit next time).
        """
        for node in nodes:
            if not node.demoted:
                continue
            if self.kv_manager.promotion_page_need(1) > self.kv_manager.free_pages:
                continue
            self.kv_manager.promote_shared_page()
            node.demoted = False
            self.stats.promoted_pages_total += 1

    def _demote(self, pages_needed: int, protected: set) -> int:
        """Demote cold unreferenced blocks, LRU first; returns pages freed.

        Any unreferenced block qualifies, interior or leaf — demotion keeps
        the node in the tree, so the radix invariant is untouched (and a
        referenced block's ancestors are always referenced themselves, so
        no running request can ever attend over a block demoted here).
        Page gains are measured as the allocator's ``free_pages`` delta:
        the demoted tier's savings are fractional and only whole reclaimed
        pages count.
        """
        held = self._held()
        heap = [(node.last_used, key) for key, node in self._nodes.items()
                if not node.demoted and id(node) not in held
                and id(node) not in protected]
        heapq.heapify(heap)
        reclaimed = 0
        while heap and reclaimed < pages_needed:
            node = self._nodes[heapq.heappop(heap)[1]]
            before = self.kv_manager.free_pages
            self.kv_manager.demote_shared_page()
            node.demoted = True
            self.stats.demoted_pages_total += 1
            reclaimed += self.kv_manager.free_pages - before
        self.stats.peak_demoted_pages = max(self.stats.peak_demoted_pages,
                                            self.kv_manager.demoted_pages)
        return reclaimed

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def evict(self, pages_needed: int,
              protect: Iterable[_RadixNode] = (), *,
              demote_first: bool = True) -> int:
        """Reclaim up to ``pages_needed`` pages from unreferenced blocks.

        With demotion enabled (and ``demote_first``), cold blocks are first
        squeezed to the 4-bit tier LRU-first — they stay hittable — and true
        eviction only covers whatever shortfall remains.  Eviction itself is
        LRU over childless nodes (radix invariant: a cached block's whole
        prefix chain stays cached); evicting a leaf may expose its parent,
        which joins the candidate heap with its own recency.  ``protect``
        shields blocks matched-but-not-yet-acquired during the current
        admission.  Returns the number of pages reclaimed (for a demoted
        block, the whole pages its eviction actually returns).

        The candidates come from the cache's persistent leaf heap rather
        than a scan of the tree.  Since refcounts are monotone along root
        paths, a block turns into an unreferenced leaf only when its last
        reference is released or its last child is evicted, and both push
        it; :meth:`match` pushes it again when it restamps one.  Stale
        entries are skipped as they pop, protected leaves are set aside and
        pushed back on return, and ``last_used`` ticks are unique, so the
        pop order is the LRU order over the current unreferenced leaves.
        """
        if pages_needed <= 0:
            return 0
        protected = {id(node) for node in protect}
        reclaimed = 0
        if self.demotion and demote_first:
            reclaimed = self._demote(pages_needed, protected)
            if reclaimed >= pages_needed:
                return reclaimed

        heap = self._leaf_heap
        shielded: List[Tuple[int, int]] = []
        while heap and reclaimed < pages_needed:
            last_used, key = entry = heapq.heappop(heap)
            node = self._nodes.get(key)
            if (node is None or node.last_used != last_used
                    or node.pins or node.children):
                continue  # stale heap entry
            if id(node) in protected:
                shielded.append(entry)
                continue
            before = self.kv_manager.free_pages
            self._evict_node(node)
            reclaimed += self.kv_manager.free_pages - before
        for entry in shielded:
            heapq.heappush(heap, entry)
        return reclaimed

    def _evict_node(self, node: _RadixNode) -> None:
        parent = node.parent
        parent.children -= 1
        del self._nodes[node.key]
        self.kv_manager.release_shared_page(demoted=node.demoted)
        self.stats.evicted_pages += 1
        if (parent is not self._root and not parent.pins
                and not parent.children):
            self._push_leaf(parent)

    def clear(self) -> int:
        """Evict every unreferenced block (e.g. to drain after a run).

        Bypasses the demotion tier — draining means the pages must actually
        come back, not shrink.
        """
        return self.evict(len(self._nodes), demote_first=False)
