"""Subhypergraph embedding search and guaranteed embedding procedures.

``embed`` is an exhaustive backtracking search over injective vertex
maps; ``greedy_tree_embed`` and ``expansion_embed`` are the two
non-backtracking procedures whose preconditions guarantee success.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import AbstractSet, Collection, Iterable, Mapping, Optional, Sequence

from .core import (
    BudgetExceeded, Edge, Hypergraph, _Budget, _infer_r, _pack_disjoint, kernel_degree
)
from .trees import TreeCertificate, _check, _steps

FOUND = "found"
NONE = "none"
BUDGET = "budget"


@dataclass(frozen=True)
class EmbedResult:
    status: str
    map: Optional[dict[int, int]]
    nodes: int

    @property
    def found(self) -> bool:
        return self.status == FOUND


def _verify_map(
    h_edges: Iterable[Iterable[int]],
    f_edges: AbstractSet[Edge],
    amap: Mapping[int, int],
) -> None:
    """``f_edges`` holds the host's edges in canonical sorted-tuple form."""
    values = list(amap.values())
    assert len(values) == len(set(values)), "embedding map must be injective"
    for e in h_edges:
        assert tuple(sorted(amap[v] for v in e)) in f_edges, "edge image missing from host"


def _is_uniform_matching(pattern: Hypergraph) -> bool:
    r = _infer_r(pattern.distinct_edges)
    return r is not None and len(pattern.incidence) == r * len(pattern.distinct_edges)


def _backtrack_embed(
    pattern: Hypergraph,
    host: Hypergraph,
    starts: Iterable[Mapping[int, int]],
    budget: _Budget,
) -> Optional[dict[int, int]]:
    """Exhaustive search for an injective map extending a start; None only after all fail.

    Degrees count distinct edges.  The next variable is the unassigned
    vertex lying in the most-mapped edge, ties broken by descending
    degree then id; candidate targets ascend.  Pruning: every pattern
    edge must keep some host edge that contains its mapped part and
    avoids all other used targets.  Only the least candidate of each host
    twin class (``host.twins``) is pushed: a later one would be tried only
    after the earlier ones failed, and swapping it with its failed twin
    fixes every used target and maps the host onto itself, so its subtree
    fails too.  A stack entry is (vertices placed before it, placements);
    popping one truncates ``placed`` to restore ``assignment``.  The
    starts are the stack's roots in turn.  An entry that places vertices
    ticks ``budget`` once, as does each placing start when a pattern
    edge size missing from the host leaves nothing to search.
    """
    h_edges, edges_of = pattern.distinct_edges, pattern.incidence
    f_set, f_inc, twins = set(host.distinct_edges), host.incidence, host.twins
    h_support = sorted(edges_of)
    if not {len(e) for e in h_edges} <= {len(e) for e in f_set}:
        for _ in filter(None, starts):
            budget.tick()
        return None

    assignment: dict[int, int] = {}
    used: set[int] = set()
    placed: list[int] = []
    for start in starts:
        assert start.keys() <= edges_of.keys(), "start map must live on the pattern"
        stack: list[tuple[int, Collection[tuple[int, int]]]] = [(0, start.items())]
        while stack:
            count, placements = stack.pop()
            for u in placed[count:]:
                used.discard(assignment.pop(u))
            del placed[count:]
            if placements:
                budget.tick()
            for v, target in placements:
                assignment[v] = target
                used.add(target)
                placed.append(v)
            # each edge's mapped part must still extend to a host edge avoiding
            # used; the unmapped edges all ask once whether some host edge does
            parts = [frozenset(assignment[u] for u in e if u in assignment) for e in h_edges]
            if not all(
                p in f_set if len(p) == len(e) else next(host.extensions(p, used), None) is not None
                for p, e in zip(parts, h_edges) if p
            ) or (not all(parts) and not any(map(used.isdisjoint, host.distinct_edges))):
                continue
            if len(assignment) == len(h_support):
                return dict(assignment)
            v = min(
                (u for u in h_support if u not in assignment),
                key=lambda u: (-max(len(parts[i]) for i in edges_of[u]), -len(edges_of[u]), u),
            )
            mapped = max((parts[i] for i in edges_of[v]), key=len)
            pool = set().union(*host.extensions(mapped, used)) if mapped else f_inc
            degree = len(edges_of[v])
            least: dict[int, int] = {}  # twin class -> its least candidate
            for w in sorted(w for w in pool if w not in used and len(f_inc.get(w, ())) >= degree):
                least.setdefault(twins[w], w)
            stack.extend((len(placed), ((v, w),)) for w in reversed(least.values()))
    return None


def embed(pattern: Hypergraph, host: Hypergraph, budget: Optional[int] = None) -> EmbedResult:
    """Search for an injective vertex map sending every edge to a host edge.

    Budget exhaustion is its own result status, never conflated with a
    completed negative search.  Patterns that are uniform matchings run
    through a direct disjoint-edge packing, whose nodes charge the budget.
    """
    h_edges = pattern.distinct_edges
    tracker = _Budget(budget)

    amap: Optional[dict[int, int]] = None
    try:
        if _is_uniform_matching(pattern):
            r = len(h_edges[0])
            pool = [fe for fe in host.distinct_edges if len(fe) == r]
            size, picked = _pack_disjoint(pool, len(h_edges), tracker)
            if size == len(h_edges):
                amap = {
                    a: b
                    for he, idx in zip(h_edges, picked)
                    for a, b in zip(sorted(he), sorted(pool[idx]))
                }
        else:
            amap = _backtrack_embed(pattern, host, [{}], tracker)
    except BudgetExceeded:
        return EmbedResult(BUDGET, None, tracker.nodes)
    if amap is None:
        return EmbedResult(NONE, None, tracker.nodes)
    _verify_map(h_edges, set(host.edges), amap)
    return EmbedResult(FOUND, amap, tracker.nodes)


def is_free(host: Hypergraph, pattern: Hypergraph) -> bool:
    """True when an exhaustive search finds no copy of ``pattern``."""
    return embed(pattern, host).status == NONE


def _anchored(
    pattern: Hypergraph, host: Hypergraph, anchor: frozenset[int], budget: _Budget
) -> bool:
    """Does ``host`` contain the pattern with an edge on ``anchor``, an edge
    of ``host``?  Ticks ``budget`` per root placement and per search node,
    or per packing node when the pattern is a uniform matching."""
    h_edges = pattern.distinct_edges
    if not h_edges:
        return True

    if _is_uniform_matching(pattern):
        r = len(h_edges[0])
        if len(anchor) != r:
            return False
        pool = [fe for fe in host.distinct_edges if len(fe) == r and not fe & anchor]
        size, _ = _pack_disjoint(pool, len(h_edges) - 1, budget)
        return size >= len(h_edges) - 1

    perms = list(itertools.permutations(sorted(anchor)))
    starts = (dict(zip(sorted(root), p)) for root in h_edges if len(root) == len(anchor) for p in perms)
    return _backtrack_embed(pattern, host, starts, budget) is not None


def contains_anchored(
    pattern: Hypergraph,
    family: Sequence[frozenset[int]],
    anchor: frozenset[int],
    budget: Optional[int] = None,
) -> bool:
    """Does ``family + anchor`` contain the pattern with an edge on ``anchor``?

    Any new copy created by adding one edge must use that edge, so this
    is the incremental forbidden-subgraph check.  A budget, when given,
    raises BudgetExceeded instead of returning a wrong answer.
    """
    edges = [*family, anchor]
    n = 1 + max((v for e in edges for v in e), default=-1)
    host = Hypergraph(n, edges, allow_multi=True)
    return _anchored(pattern, host, anchor, _Budget(budget))


# -- guaranteed procedures ---------------------------------------------------


@functools.lru_cache
def _host_read(edges: tuple[Edge, ...], r: int) -> tuple[frozenset[Edge], tuple[int, ...], int]:
    """The greedy embedding's read of a host with canonical edge tuple
    ``edges``: its distinct edges, its sorted support, and the least
    (r-1)-shadow degree over the distinct edges (0 when there are none).

    Memoised on the edge tuple, which equal hosts share, so a caller that
    builds a fresh ``Hypergraph`` per call still hits.  The cache keeps the
    stdlib default of 128 hosts.  A caller cycling through more misses
    every time, and each miss adds one hash of the edge tuple to the read,
    a few percent of its cost.
    """
    distinct = frozenset(edges)
    counts = Counter(itertools.chain.from_iterable(
        map(itertools.combinations, distinct, itertools.repeat(r - 1))
    ))
    return distinct, tuple(sorted(set().union(*distinct))), min(counts.values(), default=0)


def greedy_tree_embed(
    tree: Hypergraph,
    cert: TreeCertificate,
    host: Hypergraph,
    start_map: Mapping[int, int],
) -> dict[int, int]:
    """Extend a first-edge placement along a tight ordering, no backtracking.

    Requires the host's minimum (r-1)-shadow degree to reach the tree's
    vertex count minus r-1; under that bound an eligible extension vertex
    always exists and the smallest one is taken.  The host is read once
    per distinct edge tuple, through ``_host_read``: the bound counts the
    (r-1)-subsets of the distinct edges, the degree in the simple host,
    and each step takes the least unused ``w`` of the host's support
    that completes the image of its overlap to an edge.  Every check runs
    on every call, whether the read came from the cache or not.
    """
    r = tree.require_uniform()
    if r < 2 or host.uniform_r != r:
        raise ValueError("host and tree must share the same uniformity (r >= 2)")
    if not _check(tree, cert.order, cert.parent):
        raise ValueError("greedy embedding requires a tight certificate")
    if not tree.m:
        raise ValueError("greedy embedding needs a tree with at least one edge")
    f_edges, support, floor = _host_read(host.edges, r)
    if floor < len(tree.support()) - r + 1:
        raise ValueError("host shadow degree too small for guaranteed embedding")
    first = tree.edge_sets[cert.order[0]]
    amap = dict(start_map)
    if set(amap) != set(first):
        raise ValueError("starting map must cover exactly the first edge")
    if len(set(amap.values())) != len(amap):
        raise ValueError("starting map must be injective")
    if tuple(sorted(amap.values())) not in f_edges:
        raise ValueError("starting map must send the first edge onto a host edge")
    used = set(amap.values())
    for _, e, _, overlap in _steps(tree, cert.order, cert.parent):
        fresh = e - overlap
        assert len(fresh) == 1, "tight ordering adds one vertex per edge"
        u = next(iter(fresh))
        image = [amap[v] for v in overlap]
        extension = next(
            (w for w in support if w not in used and tuple(sorted([*image, w])) in f_edges),
            None,
        )
        assert extension is not None, "degree precondition guarantees an extension"
        amap[u] = extension
        used.add(extension)
    _verify_map(tree.edges, f_edges, amap)
    return amap


def expansion_embed(
    expanded: Hypergraph,
    degree_one: Iterable[int],
    host: Hypergraph,
    kernel_map: Mapping[int, int],
) -> dict[int, int]:
    """Embed an expansion whose reduced edges all have large kernel degree.

    Each reduced edge image is grown to a host edge whose petal avoids
    everything placed so far; with kernel degree at least the vertex
    count of the pattern such an edge always exists.
    """
    r = expanded.require_uniform()
    if host.uniform_r != r:
        raise ValueError("host and expansion must share the same uniformity")
    s_verts = frozenset(degree_one)
    support = expanded.support()
    if not s_verts <= support:
        raise ValueError("degree-1 set must consist of covered vertices")
    deg = Counter(v for e in expanded.edges for v in e)
    if any(deg[v] != 1 for v in s_verts):
        raise ValueError("every designated expansion vertex must have degree 1")
    kept = support - s_verts
    amap = dict(kernel_map)
    if set(amap) != set(kept):
        raise ValueError("kernel map must cover exactly the non-expansion vertices")
    if len(set(amap.values())) != len(amap):
        raise ValueError("kernel map must be injective")
    size = len(support)
    kernels = []
    for e in expanded.edge_sets:
        d = e - s_verts
        img = frozenset(amap[v] for v in d)
        if kernel_degree(host, img, size) < size:
            raise ValueError(f"kernel degree below {size} for reduced edge {sorted(d)}")
        kernels.append((e, img))
    used = set(amap.values())
    for e, img in kernels:
        slots = sorted(e & s_verts)
        # rests of one size order as their edges do
        rest = min(host.extensions(img, used), key=sorted, default=None)
        assert rest is not None, "kernel degree precondition guarantees an extension"
        petal = sorted(rest)
        assert len(petal) == len(slots)
        for a, b in zip(slots, petal):
            amap[a] = b
        used |= set(petal)
    _verify_map(expanded.edges, set(host.edges), amap)
    return amap


def find_sunflower(
    hg: Hypergraph, kernel: Iterable[int], petals: int
) -> Optional[list[Edge]]:
    """``petals`` edges pairwise intersecting exactly in ``kernel``, or None."""
    if petals < 1:
        raise ValueError("a sunflower needs at least one petal")
    d = frozenset(kernel)
    pool = [p for p in hg.extensions(d) if p]
    size, picked = _pack_disjoint(pool, petals)
    if size < petals:
        return None
    return sorted(tuple(sorted(d | pool[i])) for i in picked)
