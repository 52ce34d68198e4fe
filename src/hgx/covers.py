"""Exact vertex covers and cross-cuts.

A cover meets every edge in at least one vertex, a cross-cut in exactly
one.  tau is the minimum cover size; sigma is the minimum cross-cut size
(infinite when no cross-cut exists).  Both come from one exact search on
bitsets of the sorted support, whose residue holds the usable parts of
the unhit edges.  Parts joined by shared vertices form components, solved
apart and memoised as in #SAT component caching (Bayardo & Pehoushek
2000): sizes add, and lex-least sets unite into the lex-least set.  A
residue is cut when a greedy packing of disjoint parts, each needing a
vertex of its own, exceeds its cap (Li, Manyà & Planes 2005).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Generator, Iterable, Iterator, Optional, Sequence

from .core import Hypergraph, _drive


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


def _components(parts: Sequence[int]) -> Iterator[tuple[int, list[int], int]]:
    """Each component of ``parts`` with its union and a greedy count of its
    disjoint parts, listed as they join it, so its residues split in few passes."""
    while parts:
        union = used = parts[0]
        comp, rest, grown, bound = [union], parts[1:], True, 1
        while grown:
            grown, keep = False, []
            for q in rest:
                if q & union:
                    union |= q
                    comp.append(q)
                    grown = True
                    if not q & used:
                        used |= q
                        bound += 1
                else:
                    keep.append(q)
            rest = keep
        yield union, comp, bound
        parts = rest


def _first(a: int, b: int) -> int:
    """Nonzero when the least vertex where sets ``a`` and ``b`` differ is in ``a``."""
    return (a ^ b) & -(a ^ b) & a


def _minimum_sets(hg: Hypergraph, exact: bool, every: bool) -> tuple[float, list[frozenset[int]]]:
    """The minimum size of a cross-cut (``exact``) or cover with its lex-least
    set, or all of them in lex order when ``every``; (inf, []) for no cross-cut.
    Bit k is the k-th least vertex; choosing it drops ``stars[k]``.  The memo
    maps a component to (size, sets), or to (cap, None): none of size <= cap."""
    if any(not e for e in hg.edge_sets):
        raise ValueError("covers are undefined when the empty set is an edge")
    inc = hg.incidence
    vertices = sorted(inc)
    bit = {v: 1 << k for k, v in enumerate(vertices)}
    edges = [sum(bit[v] for v in e) for e in hg.distinct_edges]
    stars = [functools.reduce(operator.or_, (edges[j] for j in inc[v])) for v in vertices if exact]
    memo: dict[frozenset[int], tuple[int, Optional[list[int]]]] = {}

    def solve(parts: Sequence[int], cap: int) -> Generator:
        """(size, sets) of a residue, or None when it has no set of size <= cap."""
        total, groups, pending = 0, [], []
        for union, comp, bound in _components(parts):
            if len(comp) == 1 and not every:  # its least vertex
                size, sets = 1, [union & -union]
            else:
                key = frozenset(comp)
                size, sets = memo.get(key, (-1, None))
            if sets is None:
                size = max(bound, size + 1)
                pending.append((size, key, union, comp))
            else:
                groups.append(sets)
            total += size
            if total > cap:  # cut before splitting the rest
                return None
        for bound, key, union, comp in pending:
            got = yield branch(comp, union, cap - total + bound)
            memo[key] = got or (cap - total + bound, None)
            if got is None:
                return None
            total += got[0] - bound
            groups.append(got[1])
        return total, [sum(pick) for pick in itertools.product(*groups)]

    def branch(parts: list[int], union: int, cap: int) -> Generator:
        """Each vertex of a smallest part heads a branch that bans the ones
        before it.  A child may tie the best set unless the least vertex where
        the best set and the child's vertices differ is in the best set."""
        part = min(parts, key=int.bit_count)
        best, found, banned = cap, None, 0
        while part:
            v = part & -part
            part ^= v
            drop = banned | (stars[v.bit_length() - 1] if exact else 0)
            banned |= v
            child = [q & ~drop for q in parts if not q & v]
            if 0 in child:
                continue
            tie = every or not found or _first(union & ~drop, found[0])
            got = yield solve(child, best - 1 if tie else best - 2)
            if got is None:
                continue
            size, sets = got[0] + 1, [s | v for s in got[1]]
            if not found or size < best:
                best, found = size, sets
            elif every:
                found += sets
            elif _first(sets[0], found[0]):
                found = sets
        return None if found is None else (best, found)

    size, sets = _drive(solve(edges, len(vertices))) or (math.inf, [])
    cuts = sorted(tuple(v for k, v in enumerate(vertices) if s >> k & 1) for s in sets)
    return size, [frozenset(c) for c in cuts]


def tau(hg: Hypergraph) -> tuple[int, Cover]:
    """Minimum vertex cover size with the lexicographically least witness."""
    size, (cover,) = _minimum_sets(hg, False, False)
    return size, Cover(cover)


def sigma(hg: Hypergraph) -> tuple[float, Optional[CrossCut]]:
    """Minimum cross-cut size, or infinity when no cross-cut exists.

    The witness is the lexicographically least minimum cross-cut.
    """
    size, cuts = _minimum_sets(hg, True, False)
    return size, CrossCut(cuts[0]) if cuts else None


def enumerate_min_crosscuts(hg: Hypergraph) -> list[CrossCut]:
    """All minimum cross-cuts, lexicographically sorted."""
    cuts = _minimum_sets(hg, True, True)[1]
    if not cuts:
        raise ValueError("hypergraph has no cross-cut")
    return [CrossCut(c) for c in cuts]
