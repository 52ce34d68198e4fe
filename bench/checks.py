"""Correctness checks for the benchmark, written apart from hgx.

Nothing here imports hgx.  Every expected value comes from a published
closed form, from how an input was built, or from a brute-force search
in this file, so a wrong answer from the library cannot agree with its
own check.  Each ``check_*`` function returns a list of problems; an
empty list means the answer passed.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Mapping, Optional, Sequence

Edges = Sequence[Sequence[int]]

# Brute-force minima are exponential in the support; above this size
# only the witness properties and the values a construction fixes are
# checked.
BRUTE_SUPPORT_MAX = 14


# -- published closed forms ------------------------------------------------------


def ekr_m2(n: int) -> int:
    """Erdos-Ko-Rado: a 3-graph with no two disjoint edges has at most C(n-1, 2) edges (n >= 6)."""
    return math.comb(n - 1, 2)


def mantel(n: int) -> int:
    """Mantel: a triangle-free graph has at most floor(n^2 / 4) edges."""
    return n * n // 4


def erdos_gallai_2k2(n: int) -> int:
    """Erdos-Gallai: a graph with no two disjoint edges has at most max(n - 1, 3) edges."""
    return max(n - 1, 3)


def frankl_l32(n: int) -> int:
    """Frankl 1977: 3-graphs with no two edges meeting in exactly one vertex (n >= 4)."""
    return {0: n, 1: n - 1}.get(n % 4, n - 2)


def sts_packing(n: int) -> int:
    """Maximum partial Steiner triple system (no two triples share a pair).

    Schonheim's bound floor(n/3 * floor((n-1)/2)), one less when n = 5 mod 6.
    """
    d = n * ((n - 1) // 2) // 3
    return d - 1 if n % 6 == 5 else d


CLOSED_FORMS = {
    "M2": ekr_m2,
    "K3": mantel,
    "2K2": erdos_gallai_2k2,
    "L32": frankl_l32,
    "P": sts_packing,
}


# -- copy search ------------------------------------------------------------------


def find_copy(
    pattern: Edges, host: Iterable[Iterable[int]], anchor: Optional[Iterable[int]] = None
) -> Optional[dict[int, int]]:
    """An injective vertex map sending every pattern edge onto a host edge.

    Pattern edges are placed one at a time; each is tried on every host
    edge of its size under every bijection that agrees with the vertices
    already placed.  With ``anchor``, some pattern edge must land on it.
    """
    p_edges = list(dict.fromkeys(tuple(sorted(set(e))) for e in pattern))
    h_sets = list(dict.fromkeys(frozenset(e) for e in host))
    anchor_set = frozenset(anchor) if anchor is not None else None
    if anchor_set is not None and anchor_set not in h_sets:
        h_sets.append(anchor_set)
    if not p_edges:
        return {}

    def place(order: list[tuple[int, ...]], first_pool: list[frozenset[int]]) -> Optional[dict[int, int]]:
        amap: dict[int, int] = {}
        used: set[int] = set()

        def step(i: int) -> bool:
            if i == len(order):
                return True
            e = order[i]
            pool = first_pool if i == 0 else h_sets
            fixed = [v for v in e if v in amap]
            free = [v for v in e if v not in amap]
            for h in pool:
                if len(h) != len(e) or any(amap[v] not in h for v in fixed):
                    continue
                spare = sorted(h - {amap[v] for v in fixed})
                if any(w in used for w in spare):
                    continue
                for image in itertools.permutations(spare):
                    for v, w in zip(free, image):
                        amap[v] = w
                        used.add(w)
                    if step(i + 1):
                        return True
                    for v, w in zip(free, image):
                        del amap[v]
                        used.discard(w)
            return False

        return dict(amap) if step(0) else None

    def connected_order(first: tuple[int, ...]) -> list[tuple[int, ...]]:
        order = [first]
        rest = [e for e in p_edges if e != first]
        while rest:
            seen = {v for e in order for v in e}
            nxt = max(rest, key=lambda e: len(seen & set(e)))
            order.append(nxt)
            rest.remove(nxt)
        return order

    if anchor_set is None:
        return place(connected_order(p_edges[0]), h_sets)
    for root in p_edges:
        if len(root) == len(anchor_set):
            found = place(connected_order(root), [anchor_set])
            if found is not None:
                return found
    return None


def _edge_list_problems(n: int, r: int, edges: Edges) -> list[str]:
    problems = []
    sets = [frozenset(e) for e in edges]
    if len(set(sets)) != len(sets):
        problems.append("repeated edge")
    for e in edges:
        if len(set(e)) != r or any(not 0 <= v < n for v in e):
            problems.append(f"edge {list(e)} is not an {r}-set of 0..{n - 1}")
    return problems


# -- oracle ------------------------------------------------------------------------------


def check_oracle(
    n: int,
    r: int,
    pattern_name: str,
    pattern: Edges,
    value: int,
    witness: Edges,
    certified: bool,
) -> list[str]:
    """A certified value must equal the closed form; any witness must be a
    pattern-free family of ``value`` r-sets on n vertices."""
    problems = []
    expected = CLOSED_FORMS[pattern_name](n)
    if certified and value != expected:
        problems.append(f"value {value} != closed form {expected}")
    if not certified and value > expected:
        problems.append(f"lower bound {value} exceeds the closed form {expected}")
    if len(witness) != value:
        problems.append(f"witness has {len(witness)} edges, value is {value}")
    problems += _edge_list_problems(n, r, witness)
    copy = find_copy(pattern, witness)
    if copy is not None:
        problems.append(f"witness contains the pattern via {copy}")
    return problems


# -- analyze ------------------------------------------------------------------------------


def brute_is_tree(edges: Edges) -> bool:
    """Subset DP: a set of edges has a tree ordering iff some edge can come
    last, meeting the union of the others inside one of them.

    Exponential in the edge count; meant for inputs of about ten edges.
    """
    sets = list(dict.fromkeys(frozenset(e) for e in edges))
    k = len(sets)
    ok = [False] * (1 << k)
    ok[0] = True
    for mask in range(1, 1 << k):
        members = [i for i in range(k) if mask >> i & 1]
        for last in members:
            rest_mask = mask & ~(1 << last)
            if not ok[rest_mask]:
                continue
            rest = [sets[i] for i in members if i != last]
            if not rest:
                ok[mask] = True
                break
            shared = sets[last] & frozenset().union(*rest)
            if any(shared <= f for f in rest):
                ok[mask] = True
                break
    return ok[-1]


def check_certificate(edges: Edges, cert: Mapping, r: Optional[int]) -> list[str]:
    """Running-intersection check of a certificate in the CLI's JSON form."""
    sets = [frozenset(e) for e in edges]
    m = len(sets)
    try:
        order = [int(i) for i in cert["order"]]
        parent = {int(k): int(v) for k, v in cert["parent"].items()}
        tight = bool(cert["tight"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return [f"malformed certificate: {exc!r}"]
    if sorted(order) != list(range(m)):
        return ["order is not a permutation of the edges"]
    if set(parent) != set(range(1, m)) or any(not 0 <= p < i for i, p in parent.items()):
        return ["parent map must send each position i >= 1 to an earlier position"]
    problems = []
    seen = set(sets[order[0]]) if m else set()
    for i in range(1, m):
        e = sets[order[i]]
        pe = sets[order[parent[i]]]
        if not (e & seen) <= pe:
            problems.append(f"position {i}: overlap {sorted(e & seen)} not inside parent {sorted(pe)}")
        if tight and (r is None or len(e & pe) != r - 1):
            problems.append(f"position {i}: tight certificate but parent overlap {len(e & pe)}")
        seen |= e
    return problems


def is_cover(edges: Edges, vertices: Iterable[int]) -> bool:
    s = set(vertices)
    return all(s & set(e) for e in edges)


def is_crosscut(edges: Edges, vertices: Iterable[int]) -> bool:
    s = set(vertices)
    return all(len(s & set(e)) == 1 for e in edges)


def brute_min(edges: Edges, test) -> Optional[int]:
    """Smallest subset of the support passing ``test``, by plain enumeration."""
    support = sorted({v for e in edges for v in e})
    for size in range(len(support) + 1):
        if any(test(edges, c) for c in itertools.combinations(support, size)):
            return size
    return None


def check_analyze(item: Mapping, results: Mapping) -> list[str]:
    """Check one ``hg analyze --certify`` report against how the input was built.

    ``item`` carries the input's ``edges`` and ``r`` and the built facts:
    ``tree`` (True, False, or None to decide by brute force), ``tight``
    (True when built tight), and ``tau``/``sigma`` when the construction
    fixes them.
    """
    edges = item["edges"]
    r = item["r"]
    problems = []
    expect_tree = item.get("tree")
    if expect_tree is None:
        expect_tree = brute_is_tree(edges)
    if results.get("tree") is not expect_tree:
        problems.append(f"tree verdict {results.get('tree')} != built {expect_tree}")
    cert = results.get("certificate")
    if expect_tree:
        if cert is None:
            problems.append("tree reported without a certificate")
        else:
            problems += check_certificate(edges, cert, r)
            if bool(cert.get("tight")) is not bool(results.get("tight")):
                problems.append("certificate tightness disagrees with the report")
        if item.get("tight") and results.get("tight") is not True:
            problems.append("built tight, reported not tight")
        partition = results.get("partition") or []
        if len(partition) != r or not all(
            len(set(c) & set(e)) == 1 for e in edges for c in partition
        ):
            problems.append("partition classes do not meet every edge exactly once")
    elif cert is not None:
        problems.append("non-tree reported with a certificate")

    tau, tau_wit = results.get("tau"), results.get("tau_witness") or []
    if not is_cover(edges, tau_wit) or len(tau_wit) != tau:
        problems.append(f"tau witness {tau_wit} is not a cover of size {tau}")
    sigma, sigma_wit = results.get("sigma"), results.get("sigma_witness")
    if sigma is None:
        if expect_tree:
            problems.append("a tree always has a cross-cut, sigma reported infinite")
    elif sigma_wit is None or not is_crosscut(edges, sigma_wit) or len(sigma_wit) != sigma:
        problems.append(f"sigma witness {sigma_wit} is not a cross-cut of size {sigma}")

    small = len({v for e in edges for v in e}) <= BRUTE_SUPPORT_MAX
    if "tau" in item or small:
        want = item["tau"] if "tau" in item else brute_min(edges, is_cover)
        if tau != want:
            problems.append(f"tau {tau} != minimum {want}")
    if "sigma" in item or small:
        want = item["sigma"] if "sigma" in item else brute_min(edges, is_crosscut)
        if sigma != want:
            problems.append(f"sigma {sigma} != minimum {want}")
    return problems


# -- verify -------------------------------------------------------------------------------


def check_greedy(
    tree: Edges, host: Edges, start: Mapping[int, int], amap: Mapping[int, int]
) -> list[str]:
    """The map must extend the start, be injective on the tree's vertices,
    and send every tree edge onto a host edge."""
    problems = []
    support = {v for e in tree for v in e}
    if set(amap) != support:
        problems.append("map does not cover exactly the tree's vertices")
        return problems
    if any(amap[v] != w for v, w in start.items()):
        problems.append("map does not extend the starting placement")
    if len(set(amap.values())) != len(amap):
        problems.append("map is not injective")
    host_sets = {frozenset(e) for e in host}
    for e in tree:
        if frozenset(amap[v] for v in e) not in host_sets:
            problems.append(f"tree edge {list(e)} lands off the host")
    return problems


def uncovered_count(graph: Edges, pattern: Edges) -> int:
    """Edges of the graph that lie in no copy of the pattern inside it."""
    sets = [frozenset(e) for e in graph]
    return sum(
        1 for i, e in enumerate(sets) if find_copy(pattern, sets[:i] + sets[i + 1 :], anchor=e) is None
    )


def check_missing(
    n: int, r: int, graph: Edges, pattern: Edges, uncovered: int, bound: int, holds: bool
) -> list[str]:
    """Prop 9.1 count: uncovered edges against (m-1) * |missing r-sets|."""
    problems = []
    want = uncovered_count(graph, pattern)
    want_bound = (len(pattern) - 1) * (math.comb(n, r) - len(graph))
    if uncovered != want:
        problems.append(f"uncovered {uncovered} != brute-force count {want}")
    if bound != want_bound:
        problems.append(f"bound {bound} != {want_bound}")
    if holds != (want <= want_bound):
        problems.append(f"verdict {holds} != {want <= want_bound}")
    return problems


def check_tree_shadow(
    host: Edges, tree: Edges, r: int, lhs: int, rhs: int, holds: bool
) -> list[str]:
    """Prop 5.4: |F| <= (p - r) * |(r-1)-shadow of F|, recomputed here."""
    p = len({v for e in tree for v in e})
    shadow = {c for e in host for c in itertools.combinations(sorted(e), r - 1)}
    want_lhs, want_rhs = len(host), (p - r) * len(shadow)
    problems = []
    if (lhs, rhs) != (want_lhs, want_rhs):
        problems.append(f"(lhs, rhs) = {(lhs, rhs)} != {(want_lhs, want_rhs)}")
    if holds != (want_lhs <= want_rhs):
        problems.append(f"verdict {holds} != {want_lhs <= want_rhs}")
    if not want_lhs <= want_rhs:
        problems.append("Prop 5.4 fails on a host built free of the tree")
    return problems
