"""Exact vertex covers and cross-cuts.

A cross-cut meets every edge in exactly one vertex; sigma is the minimum
cross-cut size (infinite when no cross-cut exists).  tau is the ordinary
minimum vertex cover size.  Both solvers are exact branch and bound,
sized for desk-scale instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

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
    return list(dict.fromkeys(hg.edge_sets))


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


def _min_crosscuts(hg: Hypergraph) -> tuple[Optional[int], list[frozenset[int]]]:
    """Minimum exact-hitting-set size and all witnesses of that size."""
    edges = _distinct_edges(hg)
    if not edges:
        return 0, [frozenset()]

    incident: dict[int, list[int]] = {}
    for i, e in enumerate(edges):
        for v in e:
            incident.setdefault(v, []).append(i)

    best: Optional[int] = None
    # One search keeps every cut at the running minimum.  Its cap never
    # falls below the final minimum and its branching depends only on
    # ``hit``, so it visits every minimum cut.  Cuts are kept as tuples, a
    # sixth the size of frozensets: thousands may pile up at a size above
    # the final minimum before a smaller cut clears them.
    solutions: list[tuple[int, ...]] = []

    def search(chosen: list[int], hit: list[bool]) -> None:
        nonlocal best
        unhit = [i for i, h in enumerate(hit) if not h]
        if not unhit:
            if best is None or len(chosen) < best:
                best = len(chosen)
                solutions.clear()
            solutions.append(tuple(chosen))
            return
        if best is not None:
            disjoint = _matching_lower_bound([edges[i] for i in unhit])
            if len(chosen) + disjoint > best:
                return
        # fail-first: branch on the unhit edge with fewest feasible vertices
        def feasible(i: int) -> list[int]:
            return [v for v in sorted(edges[i]) if all(not hit[j] for j in incident[v])]

        options = [(feasible(i), i) for i in unhit]
        options.sort(key=lambda t: len(t[0]))
        verts, _ = options[0]
        for v in verts:
            marked = []
            for j in incident[v]:
                if not hit[j]:
                    hit[j] = True
                    marked.append(j)
            chosen.append(v)
            search(chosen, hit)
            chosen.pop()
            for j in marked:
                hit[j] = False

    search([], [False] * len(edges))
    if best is None:
        return None, []
    uniq = sorted({frozenset(s) for s in solutions}, key=sorted)
    assert all(len(s) == best for s in uniq)
    return best, uniq


def sigma(hg: Hypergraph) -> tuple[float, Optional[CrossCut]]:
    """Minimum cross-cut size, or infinity when no cross-cut exists.

    The witness is the lexicographically least minimum cross-cut.
    """
    value, sols = _min_crosscuts(hg)
    if value is None:
        return math.inf, None
    return value, CrossCut(sols[0])


def enumerate_min_crosscuts(hg: Hypergraph) -> list[CrossCut]:
    """All minimum cross-cuts, lexicographically sorted."""
    value, sols = _min_crosscuts(hg)
    if value is None:
        raise ValueError("hypergraph has no cross-cut")
    return [CrossCut(s) for s in sols]
