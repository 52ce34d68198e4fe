"""Hypergraph carrier type and the basic set-system toolbox.

Vertices are integers ``0..n-1``.  Edges are kept as sorted,
duplicate-free tuples: edges of one size that are already strictly
increasing are kept as given, and any other input is canonicalised edge
by edge.  The edge *list* is ordered because tree certificates index into
it; edge order is ignored by equality, which compares edge multisets.

The searches read edges through four views on the carrier:
``distinct_edges`` (repeats dropped, first appearances kept),
``incidence`` (vertex -> indices into ``distinct_edges``) and ``twins``
(vertex -> least vertex of its twin class), all cached on first use,
and ``extensions`` (the rests of the distinct edges through a partial
image that avoid given vertices, scanned from the image's rarest
vertex).  The shadow and degree functions here are one-pass readers:
they scan ``edges`` or ``edge_sets`` directly and build none of them.
``embedding.greedy_tree_embed`` builds none either; its callers often
make a fresh host per call, so it reads the host through a bounded memo
keyed on ``edges``, the tuple that equal hosts share.

Every operation here is a pure function of immutable values, so objects
can be shared freely across threads.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from typing import Collection, Iterable, Iterator, NamedTuple, Optional, Sequence

Edge = tuple[int, ...]


def canonical_edge(vertices: Iterable[int]) -> Edge:
    """Sorted, duplicate-free tuple form of an edge."""
    return tuple(sorted(set(vertices)))


class Hypergraph:
    """Finite hypergraph on the vertex set ``{0, .., n-1}``.

    ``uniform_r`` pins the edge size (checked at construction);
    ``allow_multi`` permits repeated edges.  Without it, a duplicate edge
    is a construction error.
    """

    __slots__ = ("n", "edges", "uniform_r", "allow_multi", "_sets", "_distinct", "_incidence", "_twins")

    def __init__(
        self,
        n: int,
        edges: Iterable[Iterable[int]] = (),
        uniform_r: Optional[int] = None,
        allow_multi: bool = False,
    ):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        canon = tuple(map(tuple, edges))
        sizes = set(map(len, canon))
        cols = list(zip(*canon))
        # strictly increasing edges are canonical as given; when all have one
        # size, their least and greatest vertices sit in the end columns
        if len(sizes) == 1 and all(all(map(operator.lt, a, b)) for a, b in zip(cols, cols[1:])):
            low, high = (min(cols[0]), max(cols[-1])) if cols else (0, -1)
        else:
            canon = tuple([e if all(map(operator.lt, e, e[1:])) else canonical_edge(e) for e in canon])
            sizes = set(map(len, canon))
            vertices = set().union(*canon)
            low, high = (min(vertices), max(vertices)) if vertices else (0, -1)
        # range and size are checked once over all edges, (0, -1) standing for
        # no vertices; the loop only names the first bad edge
        if low < 0 or high >= n or (uniform_r is not None and sizes - {uniform_r}):
            for e in canon:
                if e and (e[0] < 0 or e[-1] >= n):
                    raise ValueError(f"edge {e} has vertices outside 0..{n - 1}")
                if uniform_r is not None and len(e) != uniform_r:
                    raise ValueError(f"edge {e} violates uniformity r={uniform_r}")
        if not allow_multi and len(set(canon)) != len(canon):
            raise ValueError("duplicate edge in a simple hypergraph")
        self.n = n
        self.edges = canon
        self.uniform_r = uniform_r
        self.allow_multi = allow_multi
        self._sets: Optional[tuple[frozenset[int], ...]] = None
        self._distinct: Optional[tuple[frozenset[int], ...]] = None
        self._incidence: Optional[dict[int, list[int]]] = None
        self._twins: Optional[tuple[int, ...]] = None

    # -- basic views ---------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def edge_sets(self) -> tuple[frozenset[int], ...]:
        if self._sets is None:
            self._sets = tuple(frozenset(e) for e in self.edges)
        return self._sets

    @property
    def distinct_edges(self) -> tuple[frozenset[int], ...]:
        """Edge sets without repeats, in order of first appearance."""
        if self._distinct is None:
            self._distinct = tuple(dict.fromkeys(self.edge_sets))
        return self._distinct

    @property
    def incidence(self) -> dict[int, list[int]]:
        """Vertex -> ascending indices into ``distinct_edges`` of its edges."""
        if self._incidence is None:
            self._incidence = {}
            for i, e in enumerate(self.distinct_edges):
                for v in e:
                    self._incidence.setdefault(v, []).append(i)
        return self._incidence

    @property
    def twins(self) -> tuple[int, ...]:
        """Vertex -> least vertex of its twin class.

        u and v are twins when swapping them maps the distinct edge set
        onto itself, an equivalence since (u w) = (u v)(v w)(u v).  Only
        vertices of equal degree are compared, each against the least
        vertex of every class so far.  For those it is enough that every
        edge through v maps onto an edge: the swap fixes the edges through
        both or neither, and then sends the edges through v alone onto
        the equally many through u alone.  The isolated vertices form one
        class, so they are filled in at once and only the support is looped.
        """
        if self._twins is None:
            edges, inc = self.distinct_edges, self.incidence
            edge_set = set(edges)
            support = sorted(inc)
            isolated = next((i for i, v in enumerate(support) if i != v), len(support))
            twins = [isolated] * self.n
            leaders: dict[int, list[int]] = {}  # degree -> least vertices of its classes
            for v in support:
                through = inc[v]
                same = leaders.setdefault(len(through), [])
                least = next((u for u in same if all(
                    frozenset(u if w == v else v if w == u else w for w in edges[i]) in edge_set
                    for i in through
                )), v)
                if least == v:
                    same.append(v)
                twins[v] = least
            self._twins = tuple(twins)
        return self._twins

    def extensions(self, img: Iterable[int], used: Collection[int] = ()) -> Iterator[frozenset[int]]:
        """``e - img`` for each distinct edge ``e`` containing ``img`` whose
        rest avoids ``used``, in edge order; empty when ``e == img``.

        Only the edges through the rarest vertex of ``img`` are scanned.
        """
        img = frozenset(img)
        edges, inc = self.distinct_edges, self.incidence
        for i in min([inc.get(v, ()) for v in img], key=len) if img else range(len(edges)):
            e = edges[i]
            if img <= e:
                rest = e - img
                if rest.isdisjoint(used):
                    yield rest

    def support(self) -> frozenset[int]:
        """Vertices incident to at least one edge."""
        return frozenset(v for e in self.edges for v in e)

    def is_simple(self) -> bool:
        return len(set(self.edges)) == len(self.edges)

    def require_uniform(self) -> int:
        if self.uniform_r is None:
            raise ValueError("operation requires a uniform hypergraph")
        return self.uniform_r

    # -- interchange format --------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "r": self.uniform_r,
            "multi": self.allow_multi,
            "edges": [list(e) for e in self.edges],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Hypergraph":
        if not isinstance(obj, dict):
            raise ValueError("hypergraph JSON must be an object")
        try:
            n = obj["n"]
            edges = obj["edges"]
        except KeyError as exc:
            raise ValueError(f"hypergraph JSON missing field {exc}") from exc
        r = obj.get("r")
        multi = obj.get("multi", False)
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError("field 'n' must be an integer")
        if not isinstance(multi, bool):
            raise ValueError("field 'multi' must be a boolean")
        if r is not None and (not isinstance(r, int) or isinstance(r, bool)):
            raise ValueError("field 'r' must be an integer or null")
        if not isinstance(edges, list):
            raise ValueError("field 'edges' must be a list of vertex lists")
        for e in edges:
            if not isinstance(e, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in e
            ):
                raise ValueError(f"edge {e!r} must be a list of integers")
        return cls(n, edges, uniform_r=r, allow_multi=multi)

    # -- comparison -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.uniform_r == other.uniform_r
            and self.allow_multi == other.allow_multi
            and sorted(self.edges) == sorted(other.edges)
        )

    def __repr__(self) -> str:
        r = f", r={self.uniform_r}" if self.uniform_r is not None else ""
        multi = ", multi" if self.allow_multi else ""
        return f"Hypergraph(n={self.n}, m={self.m}{r}{multi})"


def _infer_r(edges: Iterable[Collection[int]]) -> Optional[int]:
    """The one edge size, or None when there are no edges or several sizes."""
    sizes = {len(e) for e in edges}
    return sizes.pop() if len(sizes) == 1 else None


def _derived(n: int, edge_sets: Iterable[Iterable[int]]) -> Hypergraph:
    """Simple hypergraph from computed edges, in sorted edge order."""
    edges = sorted({canonical_edge(e) for e in edge_sets})
    return Hypergraph(n, edges, uniform_r=_infer_r(edges))


# -- search budgets ---------------------------------------------------------


class BudgetExceeded(RuntimeError):
    """Raised by operations whose node budget ran out mid-search."""


class _Budget:
    """The node counter and limit behind every ``budget=`` argument."""

    __slots__ = ("limit", "nodes")

    def __init__(self, limit: Optional[int]):
        self.limit = limit
        self.nodes = 0

    def tick(self, k: int = 1) -> None:
        self.nodes += k
        if self.limit is not None and self.nodes > self.limit:
            raise BudgetExceeded(f"search budget of {self.limit} nodes exhausted")


# -- shadows and degrees ------------------------------------------------


def shadow(hg: Hypergraph, p: int) -> Hypergraph:
    """All p-sets contained in an edge, as a simple p-uniform hypergraph."""
    if p < 1:
        raise ValueError("shadow order must be positive")
    if any(len(e) < p for e in hg.edges):
        raise ValueError(f"shadow order {p} exceeds the size of some edge")
    out: set[Edge] = set()
    for e in hg.edges:
        out.update(itertools.combinations(e, p))
    return Hypergraph(hg.n, sorted(out), uniform_r=p)


def degree(hg: Hypergraph, subset: Iterable[int]) -> int:
    """Number of edges containing ``subset``, counted with multiplicity."""
    d = frozenset(subset)
    return sum(1 for e in hg.edge_sets if d <= e)


def min_shadow_degree(hg: Hypergraph, i: int) -> int:
    """Minimum degree over the i-shadow of a nonempty uniform hypergraph."""
    r = hg.require_uniform()
    if hg.m == 0:
        raise ValueError("minimum shadow degree of an empty hypergraph")
    if not 1 <= i <= r - 1:
        raise ValueError(f"shadow order must lie in 1..{r - 1}")
    counts = Counter(d for e in hg.edges for d in itertools.combinations(e, i))
    return min(counts[d] for d in shadow(hg, i).edges)


# -- sunflowers and kernel degrees ---------------------------------------


def _pack_disjoint(
    petals: Sequence[frozenset[int]], cap: int, budget: Optional[_Budget] = None
) -> tuple[int, list[int]]:
    """Largest pairwise-disjoint selection among ``petals``, capped.

    Exact branch and bound; returns (size, chosen indices).  Search stops
    as soon as ``cap`` disjoint petals are found, so results are exact
    only up to the cap.  Each search node ticks ``budget`` when given.
    """
    order = sorted(range(len(petals)), key=lambda i: (len(petals[i]), sorted(petals[i])))
    size = len(order)
    best_pick: list[int] = []
    picked: list[int] = []
    stack = [[0, frozenset()]]  # per open node: the next position to try, the vertices used
    if budget is not None:
        budget.tick()
    while stack:
        frame = stack[-1]
        j, used = frame
        while j < size and not used.isdisjoint(petals[order[j]]):
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


def kernel_degree(hg: Hypergraph, kernel: Iterable[int], cap: int) -> int:
    """Largest s <= cap such that s edges pairwise intersect exactly in
    ``kernel`` (each with a nonempty petal).

    Maximum set packing underneath, so a cap is mandatory; the answer is
    exact up to it.
    """
    if cap < 1:
        raise ValueError("kernel degree cap must be positive")
    petals = [p for p in hg.extensions(kernel) if p]
    size, _ = _pack_disjoint(petals, cap)
    return size


def kernel_graph(hg: Hypergraph, s: int, p: Optional[int] = None) -> Hypergraph:
    """All kernels (nonempty proper subsets of edges) with kernel degree >= s.

    Restricting candidates to proper subsets of edges loses nothing: a
    set with a sunflower through it lies properly inside each of its
    petal edges.  The empty kernel is not reported.
    """
    if s < 1:
        raise ValueError("kernel graph threshold must be positive")
    candidates: set[frozenset[int]] = set()
    for e in hg.edge_sets:
        for size in range(1, len(e)):
            if p is not None and size != p:
                continue
            candidates.update(frozenset(c) for c in itertools.combinations(sorted(e), size))
    hits = [d for d in candidates if kernel_degree(hg, d, s) >= s]
    return _derived(hg.n, hits)


# -- links, products, complements, traces ---------------------------------


def link(hg: Hypergraph, x: int) -> Hypergraph:
    """Edges through ``x`` with ``x`` removed."""
    if not 0 <= x < hg.n:
        raise ValueError(f"vertex {x} out of range")
    edges = [e - {x} for e in hg.edge_sets if x in e]
    return Hypergraph(
        hg.n,
        [sorted(e) for e in edges],
        uniform_r=_infer_r(edges),
        allow_multi=hg.allow_multi,
    )


def common_link(hg: Hypergraph, vertices: Iterable[int]) -> Hypergraph:
    """Sets D with D + {a} an edge for every a in A.

    Computed as the intersection of the individual links; any D in every
    link is automatically disjoint from A.
    """
    a = sorted(set(vertices))
    if not a:
        raise ValueError("common link over an empty vertex set")
    shared = set(link(hg, a[0]).edge_sets)
    for v in a[1:]:
        shared &= set(link(hg, v).edge_sets)
    return _derived(hg.n, shared)


def product(a: Hypergraph, b: Hypergraph) -> Hypergraph:
    """All unions of one edge from each factor, deduplicated."""
    n = max(a.n, b.n)
    return _derived(n, (ea | eb for ea in a.edge_sets for eb in b.edge_sets))


def complement(hg: Hypergraph) -> Hypergraph:
    """All r-sets of the vertex set that are not edges."""
    r = hg.require_uniform()
    if not hg.is_simple() or hg.allow_multi:
        raise ValueError("complement requires a simple uniform hypergraph")
    present = set(hg.edges)
    edges = [c for c in itertools.combinations(range(hg.n), r) if c not in present]
    return Hypergraph(hg.n, edges, uniform_r=r)


def trace(hg: Hypergraph, keep: Iterable[int]) -> Hypergraph:
    """Restriction of every edge to ``keep``; empty traces are dropped and
    duplicates eliminated."""
    s = frozenset(keep)
    return _derived(hg.n, (e & s for e in hg.edge_sets if e & s))


def remove(hg: Hypergraph, drop: Iterable[int]) -> Hypergraph:
    """Trace on the complement of ``drop``."""
    s = set(drop)
    return trace(hg, set(range(hg.n)) - s)


# -- Kruskal-Katona shadow bound ------------------------------------------


def real_binomial(x: float, k: int) -> float:
    """Generalised binomial coefficient C(x, k) for real x."""
    num = 1.0
    for i in range(k):
        num *= x - i
    return num / math.factorial(k)


class KKCheck(NamedTuple):
    x: float
    bound: float
    holds: bool
    shadow: int  # edges of the p-shadow


_KK_TOL = 1e-9  # bisection width for the real root x


def kk_check(hg: Hypergraph, p: int) -> KKCheck:
    """Shadow-size lower bound check.

    Solves ``C(x, r) = |F|`` for real ``x >= r - 1`` by bisection, then
    verifies ``|shadow(F, p)| >= C(x, p)``.  The verdict rounds the bound
    down by 1e-6 to absorb float error; the bound itself is reported
    unrounded.
    """
    r = hg.require_uniform()
    if not hg.is_simple() or hg.allow_multi:
        raise ValueError("the shadow bound applies to simple hypergraphs")
    if hg.m == 0:
        raise ValueError("the shadow bound applies to nonempty hypergraphs")
    if not 1 <= p <= r - 1:
        raise ValueError(f"shadow order must lie in 1..{r - 1}")
    m = hg.m
    lo, hi = float(r - 1), float(r)
    while real_binomial(hi, r) < m:
        hi *= 2
    while hi - lo > _KK_TOL:
        mid = (lo + hi) / 2
        if real_binomial(mid, r) < m:
            lo = mid
        else:
            hi = mid
    x = (lo + hi) / 2
    bound = real_binomial(x, p)
    shadow_size = shadow(hg, p).m
    return KKCheck(x=x, bound=bound, holds=shadow_size >= bound - 1e-6, shadow=shadow_size)
