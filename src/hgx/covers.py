"""Exact vertex covers and cross-cuts.

A cross-cut meets every edge in exactly one vertex; sigma is the minimum
cross-cut size (infinite when no cross-cut exists).  tau is the ordinary
minimum vertex cover size.  Both solvers are exact branch and bound,
sized for desk-scale instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .core import Hypergraph


@dataclass(frozen=True)
class Cover:
    vertices: frozenset[int]
    optimal: bool = True


@dataclass(frozen=True)
class CrossCut:
    vertices: frozenset[int]
    optimal: bool = True


def is_cover(hg: Hypergraph, vertices: Iterable[int]) -> bool:
    s = frozenset(vertices)
    return all(e & s for e in hg.edge_sets)


def is_crosscut(hg: Hypergraph, vertices: Iterable[int]) -> bool:
    s = frozenset(vertices)
    return all(len(e & s) == 1 for e in hg.edge_sets)


def _distinct_edges(hg: Hypergraph) -> list[frozenset[int]]:
    if any(not e for e in hg.edge_sets):
        raise ValueError("covers are undefined when the empty set is an edge")
    return list(hg.distinct_edges)


def _matching_lower_bound(edges: list[frozenset[int]]) -> int:
    """Greedy disjoint-edge count; each needs its own cover vertex."""
    used: set[int] = set()
    count = 0
    for e in edges:
        if not (e & used):
            used |= e
            count += 1
    return count


def tau(hg: Hypergraph) -> tuple[int, Cover]:
    """Minimum vertex cover size with the lexicographically least witness."""
    edges = _distinct_edges(hg)
    if not edges:
        return 0, Cover(frozenset())

    best = len({v for e in edges for v in e})  # cover by full support

    def bound_search(uncovered: list[frozenset[int]], size: int) -> None:
        nonlocal best
        if size + _matching_lower_bound(uncovered) >= best:
            return
        if not uncovered:
            best = size
            return
        pivot = min(uncovered, key=len)
        for v in sorted(pivot):
            rest = [e for e in uncovered if v not in e]
            bound_search(rest, size + 1)

    bound_search(edges, 0)
    value = best

    # Lexicographically least optimum: ascending vertex scan, include first.
    vertices = sorted({v for e in edges for v in e})

    def lex_search(idx: int, chosen: list[int], uncovered: list[frozenset[int]]) -> Optional[list[int]]:
        if not uncovered:
            return list(chosen)
        if len(chosen) + _matching_lower_bound(uncovered) > value:
            return None
        if idx == len(vertices):
            return None
        # an uncovered edge whose vertices are all behind us is a dead end
        v = vertices[idx]
        if any(max(e) < v for e in uncovered):
            return None
        if len(chosen) < value and any(v in e for e in uncovered):
            chosen.append(v)
            found = lex_search(idx + 1, chosen, [e for e in uncovered if v not in e])
            if found is not None:
                return found
            chosen.pop()
        return lex_search(idx + 1, chosen, uncovered)

    witness = lex_search(0, [], edges)
    assert witness is not None and len(witness) == value
    return value, Cover(frozenset(witness))


def _smallest_cut(
    hg: Hypergraph, forced: tuple[int, ...], banned: frozenset[int], cap: int
) -> Optional[int]:
    """Size of the smallest cross-cut containing ``forced`` and avoiding
    ``banned``, or None when there is none of size at most ``cap``.

    Fail-first branch and bound: branch on the unhit edge with the fewest
    usable vertices, and cut a node whose size plus the disjoint unhit
    edges cannot beat the best cut so far.  No cut is kept.
    """
    edges, incident = hg.distinct_edges, hg.incidence
    hit = [False] * len(edges)
    for v in forced:
        for j in incident[v]:
            if hit[j]:
                return None
            hit[j] = True
    best = cap + 1

    def usable(i: int) -> list[int]:
        return [
            v for v in sorted(edges[i])
            if v not in banned and not any(hit[j] for j in incident[v])
        ]

    def search(size: int) -> None:
        nonlocal best
        unhit = [i for i, h in enumerate(hit) if not h]
        if size + _matching_lower_bound([edges[i] for i in unhit]) >= best:
            return
        if not unhit:
            best = size
            return
        for v in min((usable(i) for i in unhit), key=len):
            for j in incident[v]:
                hit[j] = True
            search(size + 1)
            for j in incident[v]:
                hit[j] = False

    search(len(forced))
    return best if best <= cap else None


def _min_crosscuts(hg: Hypergraph) -> Iterator[frozenset[int]]:
    """Every minimum cross-cut, lexicographically ascending; none when
    no cross-cut exists.

    An ascending vertex walk, include first, that enters a branch only
    when ``_smallest_cut`` finds a minimum cut left in it.  When no
    minimum cut contains the vertex, one avoids it, unchecked.
    """
    _distinct_edges(hg)  # rejects an empty edge
    vertices = sorted(hg.incidence)
    value = _smallest_cut(hg, (), frozenset(), len(vertices))
    if value is None:
        return
    # (position, forced, banned, whether a minimum cut is known to be left)
    stack = [(0, (), frozenset(), True)]
    while stack:
        k, forced, banned, holds = stack.pop()
        if not holds and _smallest_cut(hg, forced, banned, value) is None:
            continue
        if len(forced) == value:
            yield frozenset(forced)
            continue
        take = forced + (vertices[k],)
        inside = _smallest_cut(hg, take, banned, value) is not None
        stack.append((k + 1, forced, banned | {vertices[k]}, not inside))
        if inside:
            stack.append((k + 1, take, banned, True))


def sigma(hg: Hypergraph) -> tuple[float, Optional[CrossCut]]:
    """Minimum cross-cut size, or infinity when no cross-cut exists.

    The witness is the lexicographically least minimum cross-cut.
    """
    cut = next(_min_crosscuts(hg), None)
    if cut is None:
        return math.inf, None
    return len(cut), CrossCut(cut)


def enumerate_min_crosscuts(hg: Hypergraph) -> list[CrossCut]:
    """All minimum cross-cuts, lexicographically sorted."""
    cuts = [CrossCut(s) for s in _min_crosscuts(hg)]
    if not cuts:
        raise ValueError("hypergraph has no cross-cut")
    return cuts
