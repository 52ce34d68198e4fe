"""Exact vertex covers and cross-cuts.

A cover meets every edge in at least one vertex, a cross-cut in exactly
one.  tau is the minimum cover size; sigma is the minimum cross-cut size
(infinite when no cross-cut exists).  Both come from one exact search,
sized for desk-scale instances: a branch and bound for the minimum size,
then an ascending vertex walk to the lex-least minimum set.

The search runs on integer bitsets over the sorted support.  Its entries
are (size, hit-edge mask, blocked-vertex mask) triples, where blocked
vertices are the banned ones plus, for a cross-cut, every vertex of a hit
edge.  Each unhit edge keeps only its unblocked, usable part, and the
lower bound packs disjoint usable parts, each needing a vertex of its
own: the disjoint-conflict bound of Max-SAT branch and bound (Li, Manyà
& Planes 2005) on the columns that exact-cover search leaves open
(Knuth, "Dancing Links", 2000).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .core import Hypergraph


@dataclass(frozen=True)
class Cover:
    vertices: frozenset[int]


@dataclass(frozen=True)
class CrossCut:
    vertices: frozenset[int]


def is_cover(hg: Hypergraph, vertices: Iterable[int]) -> bool:
    s = frozenset(vertices)
    return all(e & s for e in hg.edge_sets)


def is_crosscut(hg: Hypergraph, vertices: Iterable[int]) -> bool:
    s = frozenset(vertices)
    return all(len(e & s) == 1 for e in hg.edge_sets)


def _smallest(
    edges: Sequence[int], masks: Sequence[int], stars: Sequence[int], forced: tuple[int, ...],
    banned: int, cap: int, exact: bool, low: int,
) -> Optional[int]:
    """Vertex mask of a smallest set that hits every edge, exactly once
    when ``exact`` (a cross-cut) and at least once otherwise (a cover),
    contains ``forced`` and avoids ``banned``; None when there is none of
    size at most ``cap``.  Vertices are bit positions: ``edges`` are
    vertex-bit masks, and vertex k has the edge mask ``masks[k]`` and the
    star ``stars[k]``, the vertex bits of its edges.

    Fail-first branch and bound over an explicit stack of (size, hit-edge
    mask, blocked-vertex mask, chosen-vertex mask) entries.  Blocked are
    the banned vertices and, for a cross-cut, every vertex of a hit edge.
    An unhit edge's usable part is its unblocked vertices.  A popped entry
    is cut when a part is empty, or when its size plus a greedy packing of
    disjoint parts, each needing a vertex of its own, cannot beat the best
    set so far.  Otherwise it branches on the first part with the fewest
    vertices, children pushed in reverse so they pop in ascending order.
    The search stops once it finds a set of size ``low``, a known lower
    bound, and returns the last set it found.
    """
    hit, blocked, chosen = 0, banned, 0
    for k in forced:
        if exact and hit & masks[k]:
            return None
        hit |= masks[k]
        chosen |= 1 << k
        if exact:
            blocked |= stars[k]
    best, found = cap + 1, None
    stack = [(len(forced), hit, blocked, chosen)]
    while stack and best > low:
        size, hit, blocked, chosen = stack.pop()
        parts = [e & ~blocked for i, e in enumerate(edges) if not hit >> i & 1]
        if 0 in parts:
            continue
        used = bound = 0
        for part in parts:
            if not part & used:
                used |= part
                bound += 1
        if size + bound >= best:
            continue
        if not parts:
            best, found = size, chosen
            continue
        part = min(parts, key=int.bit_count)
        while part:
            k = part.bit_length() - 1
            stack.append((
                size + 1, hit | masks[k], blocked | stars[k] if exact else blocked, chosen | 1 << k
            ))
            part ^= 1 << k
    return found


def _minimum_sets(hg: Hypergraph, exact: bool) -> Iterator[frozenset[int]]:
    """Every minimum cross-cut (``exact``) or minimum cover, lexicographically
    ascending; none when no cross-cut exists.

    An ascending vertex walk, include first, that enters a branch only
    with a witness: a minimum set of the branch, found by ``_smallest``.
    When vertex k is in the node's witness, the include branch takes it
    as its own without a call; otherwise the witness serves the exclude
    branch, which needs a call only when it does not.  Vertex k of the
    walk is the k-th least vertex of the support and bit k of every mask.
    """
    if any(not e for e in hg.edge_sets):
        raise ValueError("covers are undefined when the empty set is an edge")
    inc = hg.incidence
    vertices = sorted(inc)
    bit = {v: 1 << k for k, v in enumerate(vertices)}
    edges = [sum(bit[v] for v in e) for e in hg.distinct_edges]
    masks = [sum(1 << j for j in inc[v]) for v in vertices]
    stars = [functools.reduce(operator.or_, (edges[j] for j in inc[v])) for v in vertices]
    found = _smallest(edges, masks, stars, (), 0, len(vertices), exact, 0)
    if found is None:
        return
    value = found.bit_count()
    # (position, forced, banned, a minimum set containing forced and
    # avoiding banned, or None when one is yet to be found)
    stack: list[tuple[int, tuple[int, ...], int, Optional[int]]] = [(0, (), 0, found)]
    while stack:
        k, forced, banned, witness = stack.pop()
        if witness is None:
            witness = _smallest(edges, masks, stars, forced, banned, value, exact, value)
            if witness is None:
                continue
        if len(forced) == value:
            yield frozenset(vertices[j] for j in forced)
            continue
        take = forced + (k,)
        if witness >> k & 1:
            inside, witness = witness, None
        else:
            inside = _smallest(edges, masks, stars, take, banned, value, exact, value)
        stack.append((k + 1, forced, banned | 1 << k, witness))
        if inside is not None:
            stack.append((k + 1, take, banned, inside))


def tau(hg: Hypergraph) -> tuple[int, Cover]:
    """Minimum vertex cover size with the lexicographically least witness."""
    cover = next(_minimum_sets(hg, False))
    return len(cover), Cover(cover)


def sigma(hg: Hypergraph) -> tuple[float, Optional[CrossCut]]:
    """Minimum cross-cut size, or infinity when no cross-cut exists.

    The witness is the lexicographically least minimum cross-cut.
    """
    cut = next(_minimum_sets(hg, True), None)
    if cut is None:
        return math.inf, None
    return len(cut), CrossCut(cut)


def enumerate_min_crosscuts(hg: Hypergraph) -> list[CrossCut]:
    """All minimum cross-cuts, lexicographically sorted."""
    cuts = [CrossCut(s) for s in _minimum_sets(hg, True)]
    if not cuts:
        raise ValueError("hypergraph has no cross-cut")
    return cuts
