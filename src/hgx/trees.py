"""Hypergraph-tree recognition and transformation.

A tree certificate is an edge ordering plus a parent map witnessing the
running-intersection property: every edge meets the union of its
predecessors inside its parent edge.  Recognition is greedy GYO ear
removal, which is polynomial and cannot get stuck on a tree, even with
the first edge pinned (Beeri, Fagin, Maier & Yannakakis 1983).  Every
tree ordering of a tight tree is tight, so tight recognition is the
same ear removal plus a check of the certificate's ``tight`` flag.
Every certificate is read through ``_steps`` and checked by ``_check``
once per public call: inputs at the boundary, outputs when built.

Certificate positions are 0-based: ``order`` is a permutation of edge
indices and ``parent`` maps every position ``i >= 1`` to a position
``alpha(i) < i``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .core import Edge, Hypergraph, _infer_r, remove
from .covers import is_crosscut


@dataclass(frozen=True)
class TreeCertificate:
    order: tuple[int, ...]
    parent: Mapping[int, int]
    tight: bool = False

    def to_json_obj(self) -> dict:
        return {
            "order": list(self.order),
            "parent": {str(i): p for i, p in sorted(self.parent.items())},
            "tight": self.tight,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TreeCertificate":
        """Inverse of ``to_json_obj``; malformed JSON raises ValueError."""
        try:
            order, parent, tight = obj["order"], obj["parent"], obj["tight"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed certificate JSON: {exc}") from exc
        if not isinstance(order, list) or not all(type(i) is int for i in order):
            raise ValueError("field 'order' must be a list of integers")
        if not isinstance(parent, dict) or not all(
            isinstance(k, str) and k.removeprefix("-").isdecimal() and type(v) is int
            for k, v in parent.items()
        ):
            raise ValueError("field 'parent' must map integer strings to integers")
        if not isinstance(tight, bool):
            raise ValueError("field 'tight' must be a boolean")
        return cls(tuple(order), {int(k): v for k, v in parent.items()}, tight)


def _check_shape(hg: Hypergraph, order: Sequence[int], parent: Mapping[int, int]) -> None:
    if sorted(order) != list(range(hg.m)):
        raise ValueError("certificate order is not a permutation of the edges")
    if set(parent) != set(range(1, hg.m)):
        raise ValueError("certificate parent map must cover positions 1..m-1")
    for i, p in parent.items():
        if not 0 <= p < i:
            raise ValueError(f"parent of position {i} must be an earlier position")


def _steps(
    hg: Hypergraph, order: Sequence[int], parent: Mapping[int, int]
) -> Iterator[tuple[int, frozenset[int], frozenset[int], frozenset[int]]]:
    """``(i, edge, parent's edge, overlap with all earlier edges)`` at every
    position ``i >= 1``; checks nothing, so a well-shaped certificate never raises."""
    sets = hg.edge_sets
    seen = set(sets[order[0]]) if order else set()
    for i in range(1, len(order)):
        e = sets[order[i]]
        yield i, e, sets[order[parent[i]]], e & seen
        seen |= e


def _check(hg: Hypergraph, order: Sequence[int], parent: Mapping[int, int]) -> bool:
    """The ``tight`` flag, from the pass that raises ValueError unless
    ``(order, parent)`` certifies ``hg``.  r comes from the edges; a valid
    overlap lies in the earlier parent edge, so it equals ``e & pe``."""
    _check_shape(hg, order, parent)
    r = _infer_r(hg.edge_sets)
    tight = r is not None or not hg.m
    for _, _, pe, overlap in _steps(hg, order, parent):
        if not overlap <= pe:
            raise ValueError("invalid tree certificate")
        tight = tight and len(overlap) == r - 1
    return tight


def verify_certificate(hg: Hypergraph, cert: TreeCertificate) -> tuple[bool, dict]:
    """Check the running-intersection condition position by position.

    The report also records, for every position, that each freshly
    introduced vertex appears here first and shares no edge with the
    parent-only vertices; those facts must hold whenever the certificate
    is valid.
    """
    _check_shape(hg, cert.order, cert.parent)
    edges_of = {v: set(ix) for v, ix in hg.incidence.items()}
    positions = []
    for i, e, pe, overlap in _steps(hg, cert.order, cert.parent):
        new_vertices = sorted(e - pe)
        positions.append(
            {
                "position": i,
                "edge": sorted(e),
                "parent": cert.parent[i],
                "holds": overlap <= pe,
                "new_vertices": new_vertices,
                "first_edge_ok": {str(x): x not in overlap for x in new_vertices},
                "separation_ok": {
                    f"{x},{y}": edges_of[x].isdisjoint(edges_of[y])
                    for x in new_vertices
                    for y in sorted(pe - e)
                },
            }
        )
    valid = all(p["holds"] for p in positions)
    return valid, {"valid": valid, "positions": positions}


def _certified(
    hg: Hypergraph, order: Sequence[int], parent: Mapping[int, int]
) -> TreeCertificate:
    """The certificate ``(order, parent)`` of ``hg``, with its computed
    ``tight`` flag; raises ValueError unless it is valid."""
    order, parent = tuple(order), dict(parent)
    return TreeCertificate(order, parent, _check(hg, order, parent))


def _in_order(
    out: Hypergraph, parent: Mapping[int, int]
) -> tuple[Hypergraph, TreeCertificate]:
    """``out`` with the checked certificate ordering its edges as listed."""
    return out, _certified(out, range(out.m), parent)


def _induced(
    hg: Hypergraph, cert: TreeCertificate, positions: Sequence[int]
) -> tuple[Hypergraph, TreeCertificate]:
    """Edges at ``positions`` (ascending), multi-edges kept, inherited parents.

    Every position but the first must have its parent among ``positions``.
    """
    edges = [hg.edges[cert.order[i]] for i in positions]
    out = Hypergraph(hg.n, edges, uniform_r=hg.uniform_r, allow_multi=hg.allow_multi)
    index_of = {p: k for k, p in enumerate(positions)}
    assert all(cert.parent[i] in index_of for i in positions[1:]), "parent left out"
    parent = {k: index_of[cert.parent[i]] for k, i in enumerate(positions) if k}
    return _in_order(out, parent)


# -- recognition ----------------------------------------------------------


def _removal_order(
    dist: Sequence[frozenset[int]], root_pos: Optional[int]
) -> Optional[tuple[list[int], dict[int, int]]]:
    """Ear-removal ordering of distinct edges, or None.

    Removes, step by step, an edge whose intersection with the union of
    the others lies inside one remaining edge; the reversed removal
    sequence is the ordering.  That intersection is the edge's vertices
    that another remaining edge also holds, read off a count of vertex
    occurrences.  Greedy removal picks the highest index and the lowest
    covering edge, so the final ordering prefers low indices.  Removing
    an ear keeps a tree a tree, and a tree with two or more edges has
    two or more ears, so greedy removal gets stuck, with or without the
    root pinned, exactly when there is no ordering.
    """
    count = Counter(v for e in dist for v in e)
    removal: list[tuple[int, int]] = []
    remaining = list(range(len(dist)))
    while len(remaining) > 1:
        for i in reversed(remaining):
            if i == root_pos:
                continue
            shared = {v for v in dist[i] if count[v] > 1}
            cov = next((j for j in remaining if j != i and shared <= dist[j]), None)
            if cov is not None:
                break
        else:
            return None
        removal.append((i, cov))
        remaining.remove(i)
        count.subtract(dist[i])

    order = remaining + [i for i, _ in reversed(removal)]
    pos_of = {e: idx for idx, e in enumerate(order)}
    parent = {pos_of[i]: pos_of[cov] for i, cov in removal}
    return order, parent


def find_tree_ordering(
    hg: Hypergraph, root: Optional[int] = None, require_tight: bool = False
) -> Optional[TreeCertificate]:
    """Tree-defining ordering of the edges, or None when there is none.

    Duplicate edges are ordered after their first copies (first copies
    carry the structure).  With ``root`` given, only orderings whose
    first edge is the rooted one are accepted.  ``None`` is an answer,
    not an error.

    With ``require_tight`` the same certificate is returned when it is
    tight and None otherwise, because every tree ordering of a tight
    tree is tight.  Let k distinct r-sets have a tight ordering, so they
    span r+k-1 vertices.  In any tree ordering each later edge adds at
    least one new vertex, or it would lie inside its parent; so each
    adds exactly one, and its r-1 old vertices lie in its parent.
    Repeated edges or mixed edge sizes admit no tight ordering, and
    ``_check`` says so.
    """
    if root is not None and not 0 <= root < hg.m:
        raise ValueError("root edge index out of range")
    sets, dist = hg.edge_sets, hg.distinct_edges
    first: dict[frozenset[int], int] = {}
    for idx, s in enumerate(sets):
        first.setdefault(s, idx)
    root_pos = dist.index(sets[root]) if root is not None else None
    found = _removal_order(dist, root_pos)
    if found is None:
        return None
    order_pos, parent = found
    order = [first[dist[p]] for p in order_pos]
    place = {sets[i]: k for k, i in enumerate(order)}
    for idx, s in enumerate(sets):
        if idx != first[s]:
            parent[len(order)] = place[s]
            order.append(idx)
    cert = _certified(hg, order, parent)
    return cert if cert.tight or not require_tight else None


# -- tight completion ------------------------------------------------------


def tighten(hg: Hypergraph, cert: TreeCertificate) -> tuple[Hypergraph, TreeCertificate]:
    """Complete a tree into a tight tree on the same vertices.

    Each edge whose overlap with its parent is short is reached by a
    chain of intermediate edges swapping one vertex at a time (swapped-in
    vertices ascending).  The input's first edge stays first, and every
    chain edge is new.
    """
    r = hg.require_uniform()
    _check(hg, cert.order, cert.parent)
    if hg.m == 0:
        return hg, cert
    first = hg.edge_sets[cert.order[0]]
    new_edges: list[Edge] = [tuple(sorted(first))]
    pos_of: dict[frozenset[int], int] = {first: 0}
    parent: dict[int, int] = {}
    for _, e, pe, overlap in _steps(hg, cert.order, cert.parent):
        prev_pos = pos_of[pe]
        cur = set(pe)
        for old, v in zip(sorted(pe - overlap), sorted(e - overlap)):
            cur.discard(old)
            cur.add(v)
            # cur holds the new vertices swapped in so far, all outside the
            # earlier edges: edges of earlier chains lie inside them and
            # earlier links lack v, so no edge repeats
            fs = frozenset(cur)
            pos = len(new_edges)
            new_edges.append(tuple(sorted(fs)))
            pos_of[fs] = pos
            parent[pos] = prev_pos
            prev_pos = pos
    out, cert_out = _in_order(Hypergraph(hg.n, new_edges, uniform_r=r), parent)
    assert cert_out.tight
    assert all(s in pos_of for s in hg.edge_sets)
    return out, cert_out


# -- colourings -------------------------------------------------------------


def r_partition(hg: Hypergraph, cert: TreeCertificate) -> list[frozenset[int]]:
    """Colour classes meeting every edge exactly once.

    The first edge is coloured in ascending vertex order and colours are
    propagated along the ordering; for tight trees the result is unique
    up to permuting classes.
    """
    r = hg.require_uniform()
    _check(hg, cert.order, cert.parent)
    colour = _colouring(hg, cert.order, r)
    return [frozenset(v for v, c in colour.items() if c == k) for k in range(r)]


def _colouring(hg: Hypergraph, order: Sequence[int], r: int) -> dict[int, int]:
    """``r_partition``'s vertex -> colour map, for a certified ``order``."""
    colour: dict[int, int] = {}
    sets = hg.edge_sets
    if hg.m:
        for c, v in enumerate(sorted(sets[order[0]])):
            colour[v] = c
    for i in range(1, hg.m):
        e = sets[order[i]]
        used = {colour[v] for v in e if v in colour}
        fresh = sorted(v for v in e if v not in colour)
        missing = sorted(set(range(r)) - used)
        assert len(used) == len(e) - len(fresh), "colour clash on a valid certificate"
        assert len(missing) == len(fresh)
        for v, c in zip(fresh, missing):
            colour[v] = c
    return colour


# -- compression and hosting --------------------------------------------------


def compress(
    hg: Hypergraph, cert: TreeCertificate, pos: int, x: int, y: int
) -> tuple[Hypergraph, TreeCertificate]:
    """Replace ``x`` by ``y`` in every edge containing ``x``.

    ``x`` must be a fresh vertex of the edge at ``pos`` and ``y`` a
    parent-only vertex there.  The same order and parent map certify the
    result; duplicate edges may arise and are retained.
    """
    _check(hg, cert.order, cert.parent)
    if not 1 <= pos < hg.m:
        raise ValueError("compression position must have a parent")
    e = hg.edge_sets[cert.order[pos]]
    pe = hg.edge_sets[cert.order[cert.parent[pos]]]
    if x not in e or x in pe:
        raise ValueError(f"vertex {x} is not a fresh vertex of the edge at {pos}")
    if y not in pe or y in e:
        raise ValueError(f"vertex {y} is not a parent-only vertex at {pos}")
    assert not any(x in s and y in s for s in hg.edge_sets), "x,y share an edge"
    new_edges = [
        sorted((set(s) - {x}) | {y}) if x in s else sorted(s) for s in hg.edge_sets
    ]
    out = Hypergraph(hg.n, new_edges, uniform_r=hg.uniform_r, allow_multi=True)
    return out, _certified(out, cert.order, cert.parent)


def host_tree(
    sub: Hypergraph, tree: Hypergraph, cert: TreeCertificate
) -> tuple[Hypergraph, TreeCertificate]:
    """Smallest hosting tree: compress ``tree`` down to the vertices of ``sub``.

    Every vertex outside ``sub`` is folded onto the same-colour vertex of
    the parent of its first edge, so the result still contains ``sub``
    verbatim and lives on exactly its vertex set.

    The folds are one substitution over one colouring of the tree rooted
    at ``sub``'s first edge.  Folding one vertex at a time with ``compress``
    gives the same tree: a fold changes no colour, ordering or first edge,
    so each vertex lands on the final image of its parent vertex.
    """
    tree_sets = set(tree.edge_sets)
    if any(s not in tree_sets for s in sub.edge_sets):
        raise ValueError("the hosted hypergraph must be a subgraph of the tree")
    if sub.m == 0:
        raise ValueError("hosting an empty hypergraph is undefined")
    _check(tree, cert.order, cert.parent)
    return _host(sub, tree)


def _host(sub: Hypergraph, tree: Hypergraph) -> tuple[Hypergraph, TreeCertificate]:
    """``host_tree`` for a subgraph ``sub`` of a tree, with no input checks."""
    root = tree.edges.index(sub.edges[0])
    rooted = find_tree_ordering(tree, root=root)
    assert rooted is not None, "a certified tree admits a rooted ordering"
    target, sets = sub.support(), tree.edge_sets
    assert sets[root] <= target, "the root edge lies inside the hosted subgraph"
    # a tree with nothing to fold need not be uniform
    folds = tree.support() != target
    colour = _colouring(tree, rooted.order, tree.require_uniform()) if folds else {}
    image: dict[int, int] = {}
    for _, e, pe, _ in _steps(tree, rooted.order, rooted.parent):
        # outside sub, e - pe holds the edge's fresh vertices and ones already folded
        for x in (e - pe - target).difference(image):
            y = next(v for v in pe if colour[v] == colour[x])
            image[x] = image.get(y, y)
    folded = Hypergraph(tree.n, [[image.get(v, v) for v in e] for e in sets], allow_multi=True)
    out, out_cert = _in_order(*_trace(folded, rooted, range(tree.n)))
    assert out.support() == target
    out_sets = set(out.edge_sets)
    assert all(s in out_sets for s in sub.edge_sets)
    return out, out_cert


# -- substructure ----------------------------------------------------------------


def subtree_at(
    hg: Hypergraph, cert: TreeCertificate, x: int
) -> tuple[Hypergraph, TreeCertificate]:
    """Edges through ``x`` in inherited order; inherited parents certify it."""
    _check(hg, cert.order, cert.parent)
    if not 0 <= x < hg.n:
        raise ValueError(f"vertex {x} out of range")
    sets = hg.edge_sets
    return _induced(hg, cert, [i for i in range(hg.m) if x in sets[cert.order[i]]])


@dataclass(frozen=True)
class LimbDetachment:
    w: int
    limb: Hypergraph
    limb_cert: TreeCertificate
    rest: Hypergraph
    rest_cert: TreeCertificate
    limb_edge: Edge
    anchor_edge: Edge


def detach_limb(
    hg: Hypergraph, cert: TreeCertificate, crosscut: Iterable[int]
) -> LimbDetachment:
    """Split a tree at the cross-cut vertex covered last by the ordering.

    Returns the limb (edges through that vertex), the remaining tree with
    its induced certificate, a starting edge of the limb and the edge of
    the rest meeting the limb in exactly their shared vertices.
    """
    _check(hg, cert.order, cert.parent)
    s = frozenset(crosscut)
    if len(s) < 2:
        raise ValueError("limb detachment needs a cross-cut with at least 2 vertices")
    if not is_crosscut(hg, s):
        raise ValueError("the given set is not a cross-cut")
    if not s <= hg.support():
        raise ValueError("cross-cut vertices must be covered by edges")
    sets = hg.edge_sets
    first_cover = {
        v: next(i for i in range(hg.m) if v in sets[cert.order[i]]) for v in s
    }
    w = max(s, key=lambda v: first_cover[v])
    limb, limb_cert = _induced(hg, cert, [i for i in range(hg.m) if w in sets[cert.order[i]]])
    rest, rest_cert = _induced(hg, cert, [i for i in range(hg.m) if w not in sets[cert.order[i]]])
    k0 = first_cover[w]
    assert k0 >= 1, "a 2+ cross-cut cannot be covered entirely by the first edge"
    limb_edge = hg.edges[cert.order[k0]]
    anchor_edge = hg.edges[cert.order[cert.parent[k0]]]
    assert limb.support() & rest.support() == frozenset(limb_edge) & frozenset(anchor_edge)
    return LimbDetachment(w, limb, limb_cert, rest, rest_cert, limb_edge, anchor_edge)


# -- traces of certified trees ----------------------------------------------------


def trace_certified(
    hg: Hypergraph, cert: TreeCertificate, keep: Iterable[int]
) -> tuple[Hypergraph, TreeCertificate]:
    """Trace of a certified tree, with the induced certificate.

    Empty traces are dropped and duplicates collapse onto their first
    copies; an edge whose traced parent vanished became disjoint from all
    of its predecessors, so any earlier edge may serve as its parent.
    """
    _check(hg, cert.order, cert.parent)
    return _in_order(*_trace(hg, cert, keep))


def _trace(
    hg: Hypergraph, cert: TreeCertificate, keep: Iterable[int]
) -> tuple[Hypergraph, dict[int, int]]:
    """``trace_certified``'s trace and parent map, for a certified ``cert``."""
    keep_set = frozenset(keep)
    sets = hg.edge_sets
    new_edges: list[Edge] = []
    pos_of: dict[frozenset[int], int] = {}
    parent: dict[int, int] = {}
    for i, oi in enumerate(cert.order):
        s = sets[oi] & keep_set
        if not s or s in pos_of:
            continue
        p = len(new_edges)
        new_edges.append(tuple(sorted(s)))
        pos_of[s] = p
        if p == 0:
            continue
        ps = sets[cert.order[cert.parent[i]]] & keep_set
        parent[p] = pos_of[ps] if ps and ps in pos_of else 0
    return Hypergraph(hg.n, new_edges, uniform_r=_infer_r(new_edges)), parent


def remove_certified(
    hg: Hypergraph, cert: TreeCertificate, drop: Iterable[int]
) -> tuple[Hypergraph, TreeCertificate]:
    return trace_certified(hg, cert, set(range(hg.n)) - set(drop))


# -- cross-cut deletion -------------------------------------------------------------


def delete_crosscut(
    sub: Hypergraph, tree: Hypergraph, cert: TreeCertificate, crosscut: Iterable[int]
) -> tuple[Hypergraph, TreeCertificate]:
    """Delete a cross-cut of ``sub`` and re-host the remainder in an (r-1)-tree.

    Extends the cross-cut by one degree-1 vertex per untouched tree edge,
    traces, rounds short edges back to size r-1 with fresh vertices, and
    compresses the result down to the vertices of ``sub`` minus the cut.
    Fails when some untouched tree edge has no degree-1 vertex.
    """
    r = tree.require_uniform()
    tree_sets = set(tree.edge_sets)
    if any(s not in tree_sets for s in sub.edge_sets):
        raise ValueError("the covered hypergraph must be a subgraph of the tree")
    s = frozenset(crosscut)
    if not is_crosscut(sub, s):
        raise ValueError("the given set is not a cross-cut of the subgraph")
    _check(tree, cert.order, cert.parent)

    deg = Counter(v for e in tree.edges for v in e)
    picks: set[int] = set()
    for e in tree.edge_sets:
        if e & s:
            continue
        degree_one = sorted(v for v in e if deg[v] == 1)
        if not degree_one:
            raise ValueError(
                "a tree edge disjoint from the cross-cut has no degree-1 vertex"
            )
        picks.add(degree_one[0])

    reduced = remove(sub, s)
    if reduced.m == 0:
        return _in_order(Hypergraph(sub.n, (), uniform_r=r - 1), {})

    traced, _ = _trace(tree, cert, set(range(tree.n)) - s - picks)
    fresh = tree.n
    rounded_edges: list[list[int]] = []
    for e in traced.edges:
        pad = r - 1 - len(e)
        rounded_edges.append([*e, *range(fresh, fresh + pad)])
        fresh += pad
    hosted, hosted_cert = _host(reduced, Hypergraph(fresh, rounded_edges, uniform_r=r - 1))
    return Hypergraph(sub.n, hosted.edges, uniform_r=r - 1), hosted_cert


# -- reductions and expansions --------------------------------------------------------


@dataclass
class ExpansionMap:
    """A reduced base plus per-edge copy counts.

    Expanding adds k fresh vertices to every copy, with disjoint fresh
    sets across copies, reversing a k-reduction up to relabelling of the
    expansion vertices.  ``deleted`` records which vertices the reduction
    removed from each original edge.
    """

    base: Hypergraph
    k: int
    multiplicity: dict[Edge, int]
    deleted: tuple[Edge, ...] = ()

    def expanded_r(self) -> int:
        return self.base.require_uniform() + self.k


def is_k_reducible(hg: Hypergraph, k: int) -> bool:
    """True when every edge has at least k vertices of degree 1."""
    r = hg.require_uniform()
    if not 1 <= k <= r - 1:
        raise ValueError(f"reduction order must lie in 1..{r - 1}")
    deg = Counter(v for e in hg.edges for v in e)
    return all(sum(1 for v in e if deg[v] == 1) >= k for e in hg.edges)


def k_reduce(hg: Hypergraph, k: int) -> ExpansionMap:
    """Delete the k lowest-id degree-1 vertices from every edge."""
    if not is_k_reducible(hg, k):
        raise ValueError(f"hypergraph is not {k}-reducible")
    r = hg.require_uniform()
    deg = Counter(v for e in hg.edges for v in e)
    reduced: list[Edge] = []
    deleted: list[Edge] = []
    for e in hg.edges:
        gone = tuple(sorted(v for v in e if deg[v] == 1)[:k])
        deleted.append(gone)
        reduced.append(tuple(v for v in e if v not in gone))
    mult = Counter(reduced)
    base = Hypergraph(hg.n, list(mult), uniform_r=r - k)
    return ExpansionMap(base, k, dict(mult), tuple(deleted))


def expand(exp: ExpansionMap) -> Hypergraph:
    """Rebuild the r-graph with fresh, pairwise-disjoint expansion vertices."""
    if exp.k < 1:
        raise ValueError("expansion order must be positive")
    fresh = exp.base.n
    edges: list[list[int]] = []
    for e in exp.base.edges:
        copies = exp.multiplicity.get(e, 1)
        if copies < 1:
            raise ValueError("multiplicities must be positive")
        for _ in range(copies):
            extra = list(range(fresh, fresh + exp.k))
            fresh += exp.k
            edges.append(list(e) + extra)
    return Hypergraph(fresh, edges, uniform_r=exp.expanded_r())
