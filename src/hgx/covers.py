"""Exact vertex covers and cross-cuts.

A cover meets every edge in at least one vertex, a cross-cut in exactly
one.  tau is the minimum cover size; sigma is the minimum cross-cut size
(infinite when no cross-cut exists).  Both come from one exact search,
sized for desk-scale instances: a branch and bound for the minimum size,
then an ascending vertex walk to the lex-least minimum set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

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


def _matching_lower_bound(edges: list[frozenset[int]]) -> int:
    """Greedy disjoint-edge count; each needs its own cover vertex."""
    used: set[int] = set()
    count = 0
    for e in edges:
        if not (e & used):
            used |= e
            count += 1
    return count


def _smallest(
    edges: Sequence[frozenset[int]], masks: Mapping[int, int], forced: tuple[int, ...],
    banned: frozenset[int], cap: int, exact: bool, low: int,
) -> Optional[int]:
    """Size of the smallest set that hits every edge, exactly once when
    ``exact`` (a cross-cut) and at least once otherwise (a cover), contains
    ``forced`` and avoids ``banned``; None when there is none of size at
    most ``cap``.  ``masks`` maps each vertex to the bitmask of its edges.

    Fail-first branch and bound over an explicit stack of (size, hit-edge
    bitmask) entries: branch on the unhit edge with the fewest usable
    vertices, children pushed in reverse so they pop in ascending order,
    and cut an entry, when popped, whose size plus the disjoint unhit
    edges cannot beat the best set so far.  No set is kept.  The search
    stops once it finds a set of size ``low``, a known lower bound.
    """
    hit = 0
    for v in forced:
        if exact and hit & masks[v]:
            return None
        hit |= masks[v]
    best = cap + 1
    stack = [(len(forced), hit)]
    while stack and best > low:
        size, hit = stack.pop()
        # hit's binary digits, edge 0 first; a set bit past the last edge keeps leading zeros
        unhit = [i for i, b in enumerate(reversed(f"{hit | 1 << len(edges):b}")) if b == "0"]
        if size + _matching_lower_bound([edges[i] for i in unhit]) >= best:
            continue
        if not unhit:
            best = size
            continue
        usable = (
            [v for v in sorted(edges[i]) if v not in banned and not (exact and hit & masks[v])]
            for i in unhit
        )
        stack.extend((size + 1, hit | masks[v]) for v in reversed(min(usable, key=len)))
    return best if best <= cap else None


def _minimum_sets(hg: Hypergraph, exact: bool) -> Iterator[frozenset[int]]:
    """Every minimum cross-cut (``exact``) or minimum cover, lexicographically
    ascending; none when no cross-cut exists.

    An ascending vertex walk, include first, that enters a branch only
    when ``_smallest`` finds a minimum set left in it.  When no minimum
    set contains the vertex, one avoids it, unchecked.
    """
    if any(not e for e in hg.edge_sets):
        raise ValueError("covers are undefined when the empty set is an edge")
    edges, vertices = hg.distinct_edges, sorted(hg.incidence)
    masks = {v: sum(1 << j for j in js) for v, js in hg.incidence.items()}
    value = _smallest(edges, masks, (), frozenset(), len(vertices), exact, 0)
    if value is None:
        return
    # (position, forced, banned, whether a minimum set is known to be left)
    stack = [(0, (), frozenset(), True)]
    while stack:
        k, forced, banned, holds = stack.pop()
        if not holds and _smallest(edges, masks, forced, banned, value, exact, value) is None:
            continue
        if len(forced) == value:
            yield frozenset(forced)
            continue
        take = forced + (vertices[k],)
        inside = _smallest(edges, masks, take, banned, value, exact, value) is not None
        stack.append((k + 1, forced, banned | {vertices[k]}, not inside))
        if inside:
            stack.append((k + 1, take, banned, True))


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
