"""Independent brute-force oracles and generators shared by the tests.

Everything here recomputes expected values from definitions, by plain
enumeration, so library results are checked against a second route.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import sys
from contextlib import contextmanager, suppress
from typing import Iterable, Iterator, Optional

from hgx import (
    Hypergraph,
    TreeCertificate,
    compress,
    find_tree_ordering,
    min_shadow_degree,
    r_partition,
    trace_certified,
)


def brute_shadow(edges: Iterable[Iterable[int]], p: int) -> set[tuple[int, ...]]:
    out: set[tuple[int, ...]] = set()
    for e in edges:
        out.update(itertools.combinations(sorted(set(e)), p))
    return out


def brute_min_covers(hg: Hypergraph) -> tuple[int, list[frozenset[int]]]:
    support = sorted(hg.support())
    if not hg.edges:
        return 0, [frozenset()]
    for size in range(len(support) + 1):
        hits = [
            frozenset(c)
            for c in itertools.combinations(support, size)
            if all(set(c) & set(e) for e in hg.edges)
        ]
        if hits:
            return size, hits
    raise AssertionError("a cover always exists when no edge is empty")


def brute_min_crosscuts(hg: Hypergraph) -> tuple[Optional[int], list[frozenset[int]]]:
    support = sorted(hg.support())
    if not hg.edges:
        return 0, [frozenset()]
    for size in range(len(support) + 1):
        hits = [
            frozenset(c)
            for c in itertools.combinations(support, size)
            if all(len(set(c) & set(e)) == 1 for e in hg.edges)
        ]
        if hits:
            return size, hits
    return None, []


def brute_embeds(pattern: Hypergraph, host: Hypergraph) -> bool:
    """All injective maps, no pruning. Feasible for tiny instances only."""
    h_support = sorted(pattern.support())
    f_support = sorted(host.support())
    if not h_support:
        return True
    if len(h_support) > len(f_support):
        return False
    f_set = set(host.edge_sets)
    for image in itertools.permutations(f_support, len(h_support)):
        amap = dict(zip(h_support, image))
        if all(frozenset(amap[v] for v in e) in f_set for e in pattern.edge_sets):
            return True
    return False


def brute_turan(n: int, r: int, pattern: Hypergraph) -> int:
    """Scan every subfamily of the r-set universe. Tiny universes only."""
    universe = list(itertools.combinations(range(n), r))
    assert len(universe) <= 16, "keep the exhaustive scan tractable"
    best = 0
    for bits in range(1 << len(universe)):
        fam = [universe[i] for i in range(len(universe)) if bits >> i & 1]
        if len(fam) <= best:
            continue
        if not brute_embeds(pattern, Hypergraph(n, fam, uniform_r=r)):
            best = len(fam)
    return best


def brute_contains_anchored(
    pattern: Hypergraph, family: list[frozenset[int]], anchor: frozenset[int]
) -> bool:
    """Copy of the pattern in family + anchor with an edge landing on anchor."""
    edges = list(dict.fromkeys(list(family) + [anchor]))
    host = Hypergraph(
        max((v + 1 for e in edges for v in e), default=0),
        [sorted(e) for e in edges],
    )
    h_support = sorted(pattern.support())
    f_support = sorted(host.support())
    if len(h_support) > len(f_support):
        return False
    f_set = set(host.edge_sets)
    for image in itertools.permutations(f_support, len(h_support)):
        amap = dict(zip(h_support, image))
        images = [frozenset(amap[v] for v in e) for e in pattern.edge_sets]
        if all(i in f_set for i in images) and anchor in images:
            return True
    return False


def brute_kernel_degree(hg: Hypergraph, kernel: Iterable[int], cap: int) -> int:
    d = frozenset(kernel)
    candidates = [e for e in hg.edge_sets if d < e]
    best = 0
    for size in range(min(cap, len(candidates)), 0, -1):
        for combo in itertools.combinations(candidates, size):
            if all(a & b == d for a, b in itertools.combinations(combo, 2)):
                return size
    return best


def brute_tree_ordering(hg: Hypergraph, root: Optional[int] = None) -> Optional[list[int]]:
    """Some ordering of the distinct edges with the running-intersection
    property, or None.  Searches the permutations with the first edge
    pinned (to ``root``'s edge when given); a prefix that already fails
    the property is not extended, since every prefix of an ordering is
    one.  Returns indices into the distinct edges in first-seen order."""
    dist = list(dict.fromkeys(hg.edge_sets))
    if not dist:
        return []
    firsts = range(len(dist)) if root is None else [dist.index(hg.edge_sets[root])]

    def extend(order: list[int], union: frozenset[int]) -> Optional[list[int]]:
        if len(order) == len(dist):
            return order
        for i in range(len(dist)):
            if i in order or not any((dist[i] & union) <= dist[j] for j in order):
                continue
            found = extend(order + [i], union | dist[i])
            if found is not None:
                return found
        return None

    for first in firsts:
        found = extend([first], dist[first])
        if found is not None:
            return found
    return None


def brute_tight_ordering(hg: Hypergraph, root: Optional[int] = None) -> Optional[list[int]]:
    """Some tight ordering of the edges, or None.  The edges must all be
    r-sets for one r; every edge after the first adds exactly one vertex
    not seen before (so a repeated edge rules an ordering out) and meets
    the earlier edges inside a single one of them.  Searches the
    permutations with the first edge pinned (to ``root`` when given); a
    prefix that already fails is not extended.  Returns edge indices."""
    sets = hg.edge_sets
    if not sets:
        return []
    if len({len(e) for e in sets}) != 1:
        return None
    firsts = range(len(sets)) if root is None else [root]

    def extend(order: list[int], union: frozenset[int]) -> Optional[list[int]]:
        if len(order) == len(sets):
            return order
        for i in range(len(sets)):
            if i in order or len(sets[i] - union) != 1:
                continue
            if not any((sets[i] & union) <= sets[j] for j in order):
                continue
            found = extend(order + [i], union | sets[i])
            if found is not None:
                return found
        return None

    for first in firsts:
        found = extend([first], sets[first])
        if found is not None:
            return found
    return None


def random_tree(
    rng: random.Random, r: int, max_edges: int, tight: bool = False
) -> tuple[Hypergraph, TreeCertificate]:
    """Random tree built by its defining ordering, certificate included.

    Each new edge picks a parent, keeps a subset of it (all of size r-1
    when tight), and fills up with fresh vertices.
    """
    m = rng.randint(1, max_edges)
    edges: list[list[int]] = [list(range(r))]
    parent: dict[int, int] = {}
    fresh = r
    for i in range(1, m):
        p = rng.randrange(i)
        keep = r - 1 if tight else rng.randint(0, r - 1)
        overlap = rng.sample(edges[p], keep)
        new = list(range(fresh, fresh + r - keep))
        fresh += r - keep
        edges.append(sorted(overlap + new))
        parent[i] = p
    hg = Hypergraph(fresh, edges, uniform_r=r)
    cert = TreeCertificate(tuple(range(m)), parent, tight=tight)
    return hg, cert


def fold_one_at_a_time(sub: Hypergraph, tree: Hypergraph) -> tuple[Hypergraph, TreeCertificate]:
    """The smallest hosting tree by its definition, one fold at a time.

    Orders the tree from ``sub``'s first edge.  While a vertex lies
    outside ``sub``, takes the least one, recolours the current tree and
    ``compress``es that vertex onto the same-colour vertex of the parent
    of its first edge.  Then traces on every vertex, which drops the
    repeated edges.
    """
    rooted = find_tree_ordering(tree, root=tree.edges.index(sub.edges[0]))
    cur, cur_cert = tree, rooted
    target = sub.support()
    while cur.support() != target:
        x = min(cur.support() - target)
        classes = r_partition(cur, cur_cert)
        (same,) = [cl for cl in classes if x in cl]
        sets = cur.edge_sets
        pos = next(p for p in range(cur.m) if x in sets[cur_cert.order[p]])
        (y,) = sets[cur_cert.order[cur_cert.parent[pos]]] & same
        cur, cur_cert = compress(cur, cur_cert, pos, x, y)
    return trace_certified(cur, cur_cert, range(cur.n))


def random_hypergraph(
    rng: random.Random, n: int, r: int, m: int
) -> Hypergraph:
    universe = list(itertools.combinations(range(n), r))
    rng.shuffle(universe)
    return Hypergraph(n, sorted(universe[: min(m, len(universe))]), uniform_r=r)


def all_tight_trees(r: int, max_vertices: int) -> list[Hypergraph]:
    """Every tight r-tree with at most ``max_vertices`` vertices, grown by
    the one-new-vertex rule, deduplicated by labelled edge set."""
    seen: set[frozenset[frozenset[int]]] = set()
    out: list[Hypergraph] = []

    def grow(edges: list[tuple[int, ...]], used: int) -> None:
        key = frozenset(frozenset(e) for e in edges)
        if key in seen:
            return
        seen.add(key)
        out.append(Hypergraph(used, list(edges), uniform_r=r))
        if used >= max_vertices:
            return
        for base in list(edges):
            for drop in base:
                overlap = tuple(v for v in base if v != drop)
                new_edge = tuple(sorted(overlap + (used,)))
                if new_edge in edges:
                    continue
                grow(edges + [new_edge], used + 1)

    grow([tuple(range(r))], r)
    return out


def copy_hypergraph(n: int, r: int, pattern: Hypergraph) -> Hypergraph:
    """Copies of the pattern in the complete r-graph on n vertices, as a
    hypergraph whose vertices number the r-sets in lex order."""
    number = {e: i for i, e in enumerate(itertools.combinations(range(n), r))}
    support = sorted(pattern.support())
    copies = set()
    for image in itertools.permutations(range(n), len(support)):
        amap = dict(zip(support, image))
        copies.add(frozenset(number[tuple(sorted(amap[v] for v in e))] for e in pattern.edges))
    return Hypergraph(len(number), [sorted(c) for c in copies])


def shuffled_relabelled(rng: random.Random, hg: Hypergraph) -> Hypergraph:
    """``hg`` with its vertices permuted and its edges listed in random order."""
    labels = rng.sample(range(hg.n), hg.n)
    edges = [[labels[v] for v in e] for e in hg.edges]
    rng.shuffle(edges)
    return Hypergraph(hg.n, edges, uniform_r=hg.uniform_r, allow_multi=hg.allow_multi)


def random_multi_hypergraph(
    rng: random.Random, n: int, sizes: list[int], m: int
) -> Hypergraph:
    """Random edges of the given sizes (empty ones too), some repeated."""
    edges = [rng.sample(range(n), min(rng.choice(sizes), n)) for _ in range(m)]
    edges += [rng.choice(edges) for _ in range(rng.randint(0, m))] if edges else []
    rng.shuffle(edges)
    return Hypergraph(n, edges, allow_multi=True)


def brute_distinct_edges(hg: Hypergraph) -> list[frozenset[int]]:
    out: list[frozenset[int]] = []
    for e in hg.edges:
        if frozenset(e) not in out:
            out.append(frozenset(e))
    return out


def brute_incidence(hg: Hypergraph) -> dict[int, list[int]]:
    dist = brute_distinct_edges(hg)
    support = {v for e in dist for v in e}
    return {v: [i for i, e in enumerate(dist) if v in e] for v in support}


def brute_extensions(
    hg: Hypergraph, img: Iterable[int], used: Iterable[int]
) -> list[frozenset[int]]:
    """``e - img`` for the distinct edges ``e`` containing ``img`` whose rest
    misses ``used``, in order of first appearance."""
    img, used = frozenset(img), frozenset(used)
    return [e - img for e in brute_distinct_edges(hg) if img <= e and not (e - img) & used]


def swap_preserves(hg: Hypergraph, u: int, v: int) -> bool:
    """Does swapping u and v map the distinct edge set onto itself?"""
    swap = {u: v, v: u}
    edges = {frozenset(e) for e in hg.edges}
    return {frozenset(swap.get(w, w) for w in e) for e in edges} == edges


def brute_twins(hg: Hypergraph) -> tuple[int, ...]:
    """Vertex -> least vertex it can be swapped with, by trying every
    transposition on every edge."""
    return tuple(min(u for u in range(v + 1) if swap_preserves(hg, u, v)) for v in range(hg.n))


def greedy_precondition(tree: Hypergraph, host: Hypergraph) -> bool:
    """The greedy embedding's degree bound, from ``min_shadow_degree``:
    the minimum (r-1)-shadow degree of the simple host, each distinct edge
    counted once, reaches the tree's vertex count minus r-1."""
    r = tree.uniform_r
    simple = Hypergraph(host.n, set(host.edges), uniform_r=r)
    return host.m > 0 and min_shadow_degree(simple, r - 1) >= len(tree.support()) - r + 1


def brute_greedy_map(
    tree: Hypergraph, cert: TreeCertificate, host: Hypergraph, start: dict[int, int]
) -> Optional[dict[int, int]]:
    """Extend ``start`` along ``cert.order`` of a tight tree: each edge's one
    new vertex goes to the least unused host vertex ``w`` such that the
    image of the rest of the edge plus ``w`` is in ``host.edges``.  None
    when some step has no such ``w``."""
    edges = {frozenset(e) for e in host.edges}
    amap = dict(start)
    for i in cert.order[1:]:
        (u,) = [v for v in tree.edges[i] if v not in amap]
        overlap = {amap[v] for v in tree.edges[i] if v != u}
        fits = [w for w in range(host.n) if w not in amap.values() and overlap | {w} in edges]
        if not fits:
            return None
        amap[u] = min(fits)
    return amap


@contextmanager
def recursion_headroom(frames: int) -> Iterator[None]:
    """Lower the recursion limit to the current stack depth plus ``frames``,
    so that a search whose depth grows with its input fails fast."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def reference_edges(
    n: int, edges: Iterable[Iterable[int]], uniform_r: Optional[int] = None, allow_multi: bool = False
) -> tuple[tuple[int, ...], ...]:
    """The carrier's edge tuple by its definition: every edge sorted and
    de-duplicated, then checked edge by edge for its range and then its
    size, then the whole list for repeats.  Raises the carrier's
    ``ValueError`` for the first failing check."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    canon = tuple(tuple(sorted(set(e))) for e in edges)
    for e in canon:
        if e and (e[0] < 0 or e[-1] >= n):
            raise ValueError(f"edge {e} has vertices outside 0..{n - 1}")
        if uniform_r is not None and len(e) != uniform_r:
            raise ValueError(f"edge {e} violates uniformity r={uniform_r}")
    if not allow_multi and len(set(canon)) != len(canon):
        raise ValueError("duplicate edge in a simple hypergraph")
    return canon


def reference_embed(
    pattern: Hypergraph, host: Hypergraph, budget: Optional[int] = None
) -> tuple[str, Optional[dict[int, int]], int]:
    """``embed``'s backtracking search, (status, map, nodes), with every
    pattern edge checked through ``host.extensions`` at every node, the
    unmapped ones one by one.  Variable order, candidate order, twin
    pruning and node charging are the library's; the pattern must not be
    a uniform matching, which ``embed`` packs instead."""
    h_edges, edges_of = pattern.distinct_edges, pattern.incidence
    f_set, f_inc, twins = set(host.distinct_edges), host.incidence, host.twins
    h_support = sorted(edges_of)
    if not {len(e) for e in h_edges} <= {len(e) for e in f_set}:
        return "none", None, 0
    nodes = 0
    assignment: dict[int, int] = {}
    used: set[int] = set()
    placed: list[int] = []
    stack: list[tuple[int, tuple[tuple[int, int], ...]]] = [(0, ())]
    while stack:
        count, placements = stack.pop()
        for u in placed[count:]:
            used.discard(assignment.pop(u))
        del placed[count:]
        if placements:
            nodes += 1
            if budget is not None and nodes > budget:
                return "budget", None, nodes
        for v, target in placements:
            assignment[v] = target
            used.add(target)
            placed.append(v)
        parts = [frozenset(assignment[u] for u in e if u in assignment) for e in h_edges]
        if not all(
            p in f_set if len(p) == len(e) else next(host.extensions(p, used), None) is not None
            for p, e in zip(parts, h_edges)
        ):
            continue
        if len(assignment) == len(h_support):
            return "found", dict(assignment), nodes
        v = min(
            (u for u in h_support if u not in assignment),
            key=lambda u: (-max(len(parts[i]) for i in edges_of[u]), -len(edges_of[u]), u),
        )
        mapped = max((parts[i] for i in edges_of[v]), key=len)
        pool = set().union(*host.extensions(mapped, used)) if mapped else f_inc
        least: dict[int, int] = {}
        for w in sorted(w for w in pool if w not in used and len(f_inc.get(w, ())) >= len(edges_of[v])):
            least.setdefault(twins[w], w)
        stack.extend((len(placed), ((v, w),)) for w in reversed(least.values()))
    return "none", None, nodes


def _reference_shape(hg: Hypergraph, cert: TreeCertificate) -> None:
    m = hg.m
    if sorted(cert.order) != list(range(m)):
        raise ValueError("certificate order is not a permutation of the edges")
    if set(cert.parent) != set(range(1, m)):
        raise ValueError("certificate parent map must cover positions 1..m-1")
    for i, p in cert.parent.items():
        if not 0 <= p < i:
            raise ValueError(f"parent of position {i} must be an earlier position")


def reference_check(hg: Hypergraph, cert: TreeCertificate) -> bool:
    """The certificate check in two passes: the shape, then the running
    intersection edge by edge, then the ``tight`` flag from every edge's
    intersection with its parent (r read off the edges).  Raises the
    library's ``ValueError`` for the first failing check."""
    _reference_shape(hg, cert)
    sets = hg.edge_sets
    seen: set[int] = set()
    for i, oi in enumerate(cert.order):
        e = sets[oi]
        if i and not (e & seen) <= sets[cert.order[cert.parent[i]]]:
            raise ValueError("invalid tree certificate")
        seen |= e
    sizes = {len(s) for s in sets}
    if len(sizes) != 1:
        return not sets
    r = sizes.pop()
    return all(
        len(sets[cert.order[i]] & sets[cert.order[cert.parent[i]]]) == r - 1
        for i in range(1, hg.m)
    )


def reference_verify_certificate(hg: Hypergraph, cert: TreeCertificate) -> tuple[bool, dict]:
    """``verify_certificate``'s report built with its own running union."""
    _reference_shape(hg, cert)
    sets = hg.edge_sets
    seen: set[int] = set()
    valid = True
    positions = []
    for i, oi in enumerate(cert.order):
        e = sets[oi]
        if i == 0:
            seen |= e
            continue
        pe = sets[cert.order[cert.parent[i]]]
        holds = (e & seen) <= pe
        valid = valid and holds
        new_vertices = sorted(e - pe)
        first_edge_ok = {str(x): x not in seen for x in new_vertices}
        separation_ok = {
            f"{x},{y}": not any(x in s and y in s for s in sets)
            for x in new_vertices
            for y in sorted(pe - e)
        }
        positions.append(
            {
                "position": i,
                "edge": sorted(e),
                "parent": cert.parent[i],
                "holds": holds,
                "new_vertices": new_vertices,
                "first_edge_ok": first_edge_ok,
                "separation_ok": separation_ok,
            }
        )
        seen |= e
    return valid, {"valid": valid, "positions": positions}


def random_certificate_case(rng: random.Random) -> tuple[Hypergraph, TreeCertificate]:
    """A seeded certificate to check, valid or not: a random tree with
    r = 1..4 and, each by chance, repeated edges, an edge of another size,
    a shuffled order, corrupted parents and a mis-shaped order or parent
    map."""
    tree, cert = random_tree(rng, rng.randint(1, 4), 7, tight=rng.random() < 0.3)
    edges = [list(e) for e in tree.edges]  # random_tree lists edges in order
    parent = dict(cert.parent)
    if rng.random() < 0.3:
        for _ in range(rng.randint(1, 2)):
            parent[len(edges)] = k = rng.randrange(len(edges))
            edges.append(list(edges[k]))
    if rng.random() < 0.3:
        parent[len(edges)] = k = rng.randrange(len(edges))
        size = rng.randint(0, len(edges[k]) + 1)
        kept = rng.sample(edges[k], min(size, len(edges[k])))
        edges.append(kept + list(range(tree.n, tree.n + size - len(kept))))
    hg = Hypergraph(tree.n + 2, edges, allow_multi=True)
    m = len(edges)
    order = list(range(m))
    shuffle = rng.random()
    if shuffle < 0.3:
        # a random linear extension of the parent order keeps a valid tree valid
        placed, ready = [], [0]
        while ready:
            placed.append(ready.pop(rng.randrange(len(ready))))
            ready.extend(i for i, p in parent.items() if p == placed[-1])
        order = placed
        parent = {placed.index(i): placed.index(p) for i, p in parent.items()}
    elif shuffle < 0.5:
        order = rng.sample(range(m), m)
        parent = {i: rng.randrange(i) for i in range(1, m)}
    if m > 1 and rng.random() < 0.3:
        for i in rng.sample(range(1, m), min(2, m - 1)):
            parent[i] = rng.randrange(i)
    shape = rng.randrange(20)
    if shape == 0:
        order.pop()
    elif shape == 1 and m > 1:
        order[rng.randrange(m)] = order[rng.randrange(m)]
    elif shape == 2:
        order[rng.randrange(m)] = m
    elif shape == 3 and m > 1:
        del parent[rng.randrange(1, m)]
    elif shape == 4:
        parent[m] = 0
    elif shape == 5 and m > 1:
        i = rng.randrange(1, m)
        parent[i] = rng.choice([i, m, -1])
    return hg, TreeCertificate(tuple(order), parent)


def reference_turan(n: int, r: int, pattern: Hypergraph) -> tuple[int, Hypergraph, int]:
    """The oracle without its upper-bound stop, (value, witness, nodes):
    the seed, then the whole include-first colex search on the library's
    copy list, keeping the last family it yields."""
    from hgx.extremal import _colex_universe, _construction, _pattern_copies, _search
    from hgx.core import _Budget

    seeds = []
    if n >= r:
        seeds.append(_construction(pattern, n, "S")[0])
        with suppress(ValueError):  # no C seed without a cross-cut
            seeds.append(_construction(pattern, n, "C")[0])
    seed = max(seeds, key=lambda g: g.m, default=Hypergraph(n, (), uniform_r=r))
    best_edges: Iterable[Iterable[int]] = seed.edges
    universe = _colex_universe(n, r)
    tracker = _Budget(None)
    for found in _search(len(universe), _pattern_copies(pattern, n, universe), seed.m, tracker):
        best_edges = [universe[i] for i in found]
    witness = Hypergraph(n, sorted(tuple(sorted(e)) for e in best_edges), uniform_r=r)
    return witness.m, witness, tracker.nodes


def reference_pattern_copies(
    pattern: Hypergraph, n: int, universe: list[frozenset[int]]
) -> list[tuple[int, ...]]:
    """The oracle's copy list through a frozenset-keyed index: each edge
    image is built as a frozenset and looked up whole.  Same maps, same
    walk order, same dedup and the same sort by last index as the
    library."""
    from hgx.extremal import _class_maps, _twin_classes

    index = {e: i for i, e in enumerate(universe)}
    classes = _twin_classes(pattern)
    place = {v: k for k, v in enumerate(v for c in classes for v in c)}
    edges = [[place[v] for v in e] for e in pattern.distinct_edges]
    copies = {
        tuple(sorted(index[frozenset(image[k] for k in e)] for e in edges))
        for image in _class_maps([len(c) for c in classes], range(n))
    }
    return sorted(copies, key=operator.itemgetter(-1))


def reference_pack_disjoint(petals, cap: int, budget=None) -> tuple[int, list[int]]:
    """``_pack_disjoint``'s branch and bound with each disjointness test
    made by building the intersection: same petal order, same nodes
    ticked, same cap stop."""
    order = sorted(range(len(petals)), key=lambda i: (len(petals[i]), sorted(petals[i])))
    size = len(order)
    best_pick: list[int] = []
    picked: list[int] = []
    stack = [[0, frozenset()]]
    if budget is not None:
        budget.tick()
    while stack:
        frame = stack[-1]
        j, used = frame
        while j < size and used & petals[order[j]]:
            j += 1
        if j == size or len(picked) + (size - j) <= len(best_pick):
            stack.pop()
            if picked:
                picked.pop()
            continue
        frame[0] = j + 1
        picked.append(order[j])
        if budget is not None:
            budget.tick()
        if len(picked) > len(best_pick):
            best_pick = list(picked)
            if len(best_pick) >= cap:
                break
        stack.append([j + 1, used | petals[order[j]]])
    return len(best_pick), best_pick


def reference_s_edges(n: int, r: int, t: int) -> list[tuple[int, ...]]:
    """The r-sets of [n] meeting {0..t-1}, filtered by set intersection,
    in ``combinations`` order."""
    marked = set(range(t))
    return [c for c in itertools.combinations(range(n), r) if marked & set(c)]


def _reference_smallest(edges, masks, stars, forced, banned, cap, exact, low):
    """Vertex mask of a smallest set that hits every edge (exactly once when
    ``exact``), contains ``forced`` and avoids ``banned``, or None when there
    is none of size at most ``cap``; a branch and bound over every edge, with
    no component split.  Vertex k has the edge mask ``masks[k]`` and the star
    ``stars[k]``; the search stops at a set of size ``low``."""
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


def reference_minimum_sets(hg: Hypergraph, exact: bool) -> Iterator[frozenset[int]]:
    """Every minimum cross-cut (``exact``) or minimum cover in ascending
    lex order, none when no cross-cut exists, by a route apart from the
    component search of ``covers``: an ascending vertex walk, include first,
    that enters a branch only with a witness found by ``_reference_smallest``
    and reuses its node's witness for the include branch when that holds
    the vertex."""
    if any(not e for e in hg.edge_sets):
        raise ValueError("covers are undefined when the empty set is an edge")
    inc = hg.incidence
    vertices = sorted(inc)
    bit = {v: 1 << k for k, v in enumerate(vertices)}
    edges = [sum(bit[v] for v in e) for e in hg.distinct_edges]
    masks = [sum(1 << j for j in inc[v]) for v in vertices]
    stars = [functools.reduce(operator.or_, (edges[j] for j in inc[v])) for v in vertices]
    found = _reference_smallest(edges, masks, stars, (), 0, len(vertices), exact, 0)
    if found is None:
        return
    value = found.bit_count()
    stack: list[tuple[int, tuple[int, ...], int, Optional[int]]] = [(0, (), 0, found)]
    while stack:
        k, forced, banned, witness = stack.pop()
        if witness is None:
            witness = _reference_smallest(edges, masks, stars, forced, banned, value, exact, value)
            if witness is None:
                continue
        if len(forced) == value:
            yield frozenset(vertices[j] for j in forced)
            continue
        take = forced + (k,)
        if witness >> k & 1:
            inside, witness = witness, None
        else:
            inside = _reference_smallest(edges, masks, stars, take, banned, value, exact, value)
        stack.append((k + 1, forced, banned | 1 << k, witness))
        if inside is not None:
            stack.append((k + 1, take, banned, inside))
