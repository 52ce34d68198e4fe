"""Extremal constructions, bound formulas, and the exact Turan oracle.

The two lower-bound constructions (all r-sets meeting a t-set; all
r-sets meeting it exactly once) come with closed-form sizes that are
asserted at generation time.  The oracle maximises an H-free family by
include/exclude branch and bound over the colex-ordered edge universe.
It lists every copy of the pattern in the complete r-graph once, then
forward-checks on per-copy counters: an edge that would complete a copy
is blocked, and each node is bounded by the edges still unblocked.  The
search stops at the Katona-Nemetz-Simonovits bound, proven by the same
oracle on one vertex fewer.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import logging
import math
import operator
import random
from collections import Counter
from dataclasses import dataclass
from typing import Generator, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .core import BudgetExceeded, Edge, Hypergraph, _Budget, degree, kernel_degree, shadow
from .covers import sigma, tau
from .embedding import _anchored, is_free
from .trees import find_tree_ordering

log = logging.getLogger(__name__)


def _comb(n: int, k: int) -> int:
    return math.comb(n, k) if 0 <= k <= n else 0


# -- constructions ----------------------------------------------------------


def gen_S(n: int, r: int, t: int) -> Hypergraph:
    """All r-sets of [n] meeting {0..t-1}; size C(n,r) - C(n-t,r)."""
    if not (0 <= t <= n and 1 <= r <= n):
        raise ValueError("need 0 <= t <= n and 1 <= r <= n")
    edges = [c for c in itertools.combinations(range(n), r) if c[0] < t]
    out = Hypergraph(n, edges, uniform_r=r)
    assert out.m == _comb(n, r) - _comb(n - t, r)
    return out


def gen_C(n: int, r: int, t: int) -> Hypergraph:
    """All r-sets of [n] meeting {0..t-1} in exactly one vertex; size t*C(n-t,r-1)."""
    if not (0 <= t <= n and 1 <= r <= n):
        raise ValueError("need 0 <= t <= n and 1 <= r <= n")
    edges = [
        tuple(sorted((i,) + rest))
        for i in range(t)
        for rest in itertools.combinations(range(t, n), r - 1)
    ]
    out = Hypergraph(n, edges, uniform_r=r)
    assert out.m == t * _comb(n - t, r - 1)
    return out


def _parameter(pattern: Hypergraph, which: str) -> int:
    """tau of the pattern for the S construction, its finite sigma for C."""
    pattern.require_uniform()
    if which == "S":
        return tau(pattern)[0]
    if which != "C":
        raise ValueError("construction must be 'S' or 'C'")
    s_cut, _ = sigma(pattern)
    if s_cut == float("inf"):
        raise ValueError("pattern has no cross-cut; 3.2 does not apply")
    return int(s_cut)


def _closed_form(pattern: Hypergraph, n: int, which: str, t: int) -> int:
    """The size Props 3.1 and 3.2 state for the construction on n
    vertices, given the pattern's ``_parameter`` t."""
    r = pattern.require_uniform()
    if which == "S":
        return sum(_comb(n - i, r - 1) for i in range(1, t))
    return (t - 1) * _comb(n - t + 1, r - 1)


def _construction(
    pattern: Hypergraph, n: int, which: str, t: Optional[int] = None
) -> tuple[Hypergraph, int]:
    """``gen_S`` on a (tau-1)-set or ``gen_C`` on a (sigma-1)-set of [n]:
    the pattern-free lower-bound constructions of Props 3.1 and 3.2,
    with their closed-form sizes, both from one tau or sigma (the
    pattern's ``_parameter`` ``t``, computed unless given)."""
    if t is None:
        t = _parameter(pattern, which)
    family = (gen_S if which == "S" else gen_C)(n, pattern.uniform_r, min(t - 1, n))
    return family, _closed_form(pattern, n, which, t)


def _matching(s: int, r: int) -> Hypergraph:
    if s < 0 or r < 1:
        raise ValueError("matching needs s >= 0 and r >= 1")
    return Hypergraph(s * r, [range(i * r, (i + 1) * r) for i in range(s)], uniform_r=r)


def _linear_star(p: int, r: int) -> Hypergraph:
    if p < 1 or r < 2:
        raise ValueError("linear star needs p >= 1 petals and r >= 2")
    edges = [[0] + list(range(1 + i * (r - 1), 1 + (i + 1) * (r - 1))) for i in range(p)]
    return Hypergraph(1 + p * (r - 1), edges, uniform_r=r)


def _linear_cycle(m: int, r: int = 3) -> Hypergraph:
    # spine a_0..a_{m-1} first, then the r-2 private vertices of each edge
    if m < 2 or r < 2:
        raise ValueError("linear cycle needs m >= 2 edges and r >= 2")
    edges = []
    for i in range(m):
        extras = range(m + i * (r - 2), m + (i + 1) * (r - 2))
        edges.append([i, (i + 1) % m, *extras])
    return Hypergraph(m + m * (r - 2), edges, uniform_r=r)


def _linear_path(m: int, r: int = 3) -> Hypergraph:
    if m < 1 or r < 2:
        raise ValueError("linear path needs m >= 1 edges and r >= 2")
    edges = []
    for i in range(m):
        extras = range(m + 1 + i * (r - 2), m + 1 + (i + 1) * (r - 2))
        edges.append([i, i + 1, *extras])
    return Hypergraph(m + 1 + m * (r - 2), edges, uniform_r=r)


def _tight_path(v: int, r: int) -> Hypergraph:
    if r < 1 or v < r:
        raise ValueError("tight path needs v >= r >= 1")
    return Hypergraph(v, [range(i, i + r) for i in range(v - r + 1)], uniform_r=r)


def _k_pp(p: int, s: int) -> Hypergraph:
    if p < 1 or s < 1:
        raise ValueError("complete p-partite graph needs p, s >= 1")
    parts = [range(i * s, (i + 1) * s) for i in range(p)]
    return Hypergraph(p * s, list(itertools.product(*parts)), uniform_r=p)


def _ex511() -> Hypergraph:
    # two hub vertices labelled 1 and 2; each hub's three edges follow the
    # 2-shadow path 3-4-5-6, and the six private tip vertices are 0 and
    # 7..11.  The path's colour classes {3,5} and {4,6} are minimum
    # cross-cuts too, alongside the hubs {1,2}.
    edges = [
        [1, 3, 4, 0],
        [1, 4, 5, 7],
        [1, 5, 6, 8],
        [2, 3, 4, 9],
        [2, 4, 5, 10],
        [2, 5, 6, 11],
    ]
    return Hypergraph(12, edges, uniform_r=4)


def _fur() -> Hypergraph:
    return Hypergraph(6, [[0, 1, 2], [0, 1, 3], [2, 4, 5], [3, 4, 5]], uniform_r=3)


_FAMILIES = {
    "S": gen_S,
    "C": gen_C,
    "matching": _matching,
    "linear_star": _linear_star,
    "linear_cycle": _linear_cycle,
    "linear_path": _linear_path,
    "tight_path": _tight_path,
    "k_pp": _k_pp,
    "ex511": _ex511,
    "fur": _fur,
}


def gen_standard(name: str, **params) -> Hypergraph:
    """Standard families by name under canonical 0-based labels.

    ``S`` and ``C`` are the constructions ``gen_S`` and ``gen_C``; the
    rest are forbidden-graph fixtures.  Kernel/spine vertices come first
    in every family except ``ex511``, whose two degree-3 hub vertices sit
    at ids 1 and 2.  ``ex511`` has three minimum cross-cuts: ``{1,2}``,
    ``{3,5}`` and ``{4,6}``.
    """
    try:
        builder = _FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; known: {sorted(_FAMILIES)}") from None
    try:
        return builder(**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for family {name!r}: {exc}") from exc


# -- bound formulas -----------------------------------------------------------


def bound_tau_lower(pattern: Hypergraph, n: int) -> int:
    """Sum of C(n-i, r-1) for i = 1..tau-1."""
    return _closed_form(pattern, n, "S", _parameter(pattern, "S"))


def bound_sigma_lower(pattern: Hypergraph, n: int) -> int:
    """(sigma-1) * C(n-sigma+1, r-1); needs a finite cross-cut number."""
    return _closed_form(pattern, n, "C", _parameter(pattern, "C"))


def critical_formula(n: int, r: int, sig: int) -> int:
    """C(n,r) - C(n-sigma+1,r)."""
    if sig < 1:
        raise ValueError("cross-cut number must be positive")
    return _comb(n, r) - _comb(n - sig + 1, r)


def phi_star_matching(p: int) -> int:
    """Max 2-graph size avoiding both a p-star and a p-matching (display only)."""
    if p < 2:
        raise ValueError("needs p >= 2")
    return p * (p - 1) if p % 2 else (p - 1) ** 2 + (p - 2) // 2


# -- the exact oracle ----------------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    value: int
    witness: Hypergraph
    nodes: int
    certified: bool


def _colex_universe(n: int, r: int) -> list[frozenset[int]]:
    out = []
    for top in range(r - 1, n):
        for rest in itertools.combinations(range(top), r - 1):
            out.append(frozenset(rest + (top,)))
    return out


def _twin_classes(pattern: Hypergraph) -> list[list[int]]:
    """The pattern's support split into twin classes, each ascending."""
    classes: dict[int, list[int]] = {}
    for v in sorted(pattern.incidence):
        classes.setdefault(pattern.twins[v], []).append(v)
    return list(classes.values())


def _copy_charge(pattern: Hypergraph, n: int) -> int:
    """P(n, k) / prod |class|!: the maps ``_pattern_copies`` walks for a
    support of k vertices in the given twin classes."""
    sizes = [len(c) for c in _twin_classes(pattern)]
    return math.perm(n, sum(sizes)) // math.prod(math.factorial(s) for s in sizes)


def _class_maps(sizes: Sequence[int], free: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Injective images in ``free`` for consecutive classes of the given
    sizes, increasing within each class."""
    if not sizes:
        yield ()
        return
    for pick in itertools.combinations(free, sizes[0]):
        rest = [w for w in free if w not in pick] if sizes[1:] else ()
        for tail in _class_maps(sizes[1:], rest):
            yield pick + tail


class _EdgeIndex(dict):
    """Universe index of an edge read off a map as a tuple (at r = 1 the
    bare vertex ``itemgetter`` returns), in any order.  Each order is stored
    on its first lookup: all r! orders of every edge, P(n, r) keys, would
    outgrow the maps walked for a small pattern."""

    def __init__(self, universe: Sequence[frozenset[int]]):
        super().__init__()
        self.by_set = {e: i for i, e in enumerate(universe)}

    def __missing__(self, key: tuple[int, ...] | int) -> int:
        i = self[key] = self.by_set[frozenset(key if isinstance(key, tuple) else (key,))]
        return i


def _pattern_copies(
    pattern: Hypergraph, n: int, universe: Sequence[frozenset[int]]
) -> list[tuple[int, ...]]:
    """Every copy of the pattern in the complete r-graph on n vertices.

    Each injective map of the pattern's support into range(n) gives a
    copy: the sorted tuple of the universe indices of its edge images.
    Each edge image is one lookup: an ``itemgetter`` reads it off the map
    as a tuple, and ``_EdgeIndex`` finds it in whatever order it comes.
    Permuting a twin class (``Hypergraph.twins``) maps the pattern onto
    itself, so only maps that send each class to increasing images are
    walked (Grochow & Kellis 2007); ``_copy_charge`` counts them.  Maps
    that still differ by an automorphism give the same copy, kept once.
    The copies come ordered by their largest index, so those inside the
    first C(k, r) edges, the universe of [k], are a prefix.
    """
    index = _EdgeIndex(universe)
    classes = _twin_classes(pattern)
    place = {v: k for k, v in enumerate(v for c in classes for v in c)}
    edges = [operator.itemgetter(*(place[v] for v in e)) for e in pattern.distinct_edges]
    copies = {
        tuple(sorted(index[get(image)] for get in edges))
        for image in _class_maps([len(c) for c in classes], range(n))
    }
    return sorted(copies, key=operator.itemgetter(-1))


def _search(
    total: int, copies: Sequence[tuple[int, ...]], best: int, budget: _Budget
) -> Iterator[list[int]]:
    """Include/exclude search over universe indices 0..total-1 for the
    largest family containing no copy, if it is larger than ``best``.

    Yields each family larger than all before it, so the last one yielded
    is the first maximum in include-first order; each node ticks ``budget``.

    Forward checking: per copy, ``left`` counts the edges not yet
    included and ``rest`` sums their indices.  Once a copy has one edge
    left, that edge (``rest``) is blocked: it is exactly the edge that
    would complete the copy.  A node is cut when the family plus every
    unblocked edge still ahead cannot beat ``best``.
    """
    through: list[list[int]] = [[] for _ in range(total)]
    for c, copy in enumerate(copies):
        for j in copy:
            through[j].append(c)
    left = [len(copy) for copy in copies]
    rest = [sum(copy) for copy in copies]
    blocked = [0] * total
    for copy in copies:
        if len(copy) == 1:
            blocked[copy[0]] += 1
    current: list[int] = []
    # Depth-first.  (idx, ahead) visits the node that decides edge idx,
    # where ``ahead`` counts the blocked edges from idx on; (~idx, 0)
    # takes edge idx back out once its include subtree is done.
    stack = [(0, sum(1 for b in blocked if b))]
    while stack:
        idx, ahead = stack.pop()
        if idx < 0:
            idx = ~idx
            for c in through[idx]:
                if left[c] == 1 and rest[c] > idx:
                    blocked[rest[c]] -= 1
                left[c] += 1
                rest[c] += idx
            current.pop()
            continue
        budget.tick()
        if len(current) + (total - idx) - ahead <= best or idx == total:
            continue
        if blocked[idx]:
            stack.append((idx + 1, ahead - 1))
            continue
        stack.append((idx + 1, ahead))
        current.append(idx)
        fresh = 0
        for c in through[idx]:
            left[c] -= 1
            rest[c] -= idx
            # an edge left behind idx was excluded already
            if left[c] == 1 and rest[c] > idx:
                blocked[rest[c]] += 1
                fresh += blocked[rest[c]] == 1
        if len(current) > best:
            best = len(current)
            yield list(current)
        stack.append((~idx, 0))
        stack.append((idx + 1, ahead + fresh))


def turan_oracle(
    n: int, r: int, pattern: Hypergraph, budget: Optional[int] = None
) -> OracleResult:
    """Exact maximum size of a pattern-free r-graph on n vertices.

    Include/exclude branch and bound over the colex edge universe, seeded
    with the larger of the two lower-bound constructions.  Every copy of
    the pattern in the complete r-graph is listed once before the search,
    which then forward-checks on per-copy counters (see ``_search``).
    The witness is the first maximum family in include-first colex
    order, or the seed when no family beats it.

    The search stops at the Katona-Nemetz-Simonovits bound
    U = floor(n * ex(n-1) / (n-r)) once U is known: ``_search`` yields
    strictly growing families in a fixed order, so the first one of size
    U is the first maximum, and a seed of size U is returned unsearched.
    ex(n-1) comes from the same oracle on the first C(n-1, r) edges of
    the universe, with the copies that lie inside them, and level n-1
    bounds itself the same way; the chain is at most n-r levels deep and
    is kept on an explicit stack.  A level asks for ex(k-1) only when its
    bound could certify the level's best b, that is when
    floor(k * low / (k-r)) <= b for the best known lower bound ``low`` on
    ex(k-1): the larger closed-form seed on k-1 vertices, or b minus the
    least vertex degree of the best family (deleting that vertex leaves a
    free family on k-1 vertices).  While the gate is closed U > b, so the
    gate decides only when U is computed, never the answer.

    One ``budget`` is charged P(n, |support|) / prod |class|! steps for
    the copy list (one per map it walks: injective maps of the pattern's
    support that send each twin class to increasing images), then one per
    search node at every level; ``nodes`` sums the search nodes.
    Running out in the copy list returns the seed with ``certified=False``
    and ``nodes`` 0; running out in any search returns the best family
    found at level n so far, also with ``certified=False``.
    """
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    if pattern.uniform_r != r:
        raise ValueError("pattern must be r-uniform for the requested r")
    if pattern.m == 0:
        raise ValueError("the empty pattern is contained in every hypergraph")

    params = {}  # tau for the S seed, sigma for the C seed, once per call
    if n >= r:
        params["S"] = _parameter(pattern, "S")
        with contextlib.suppress(ValueError):  # no C seed without a cross-cut
            params["C"] = _parameter(pattern, "C")

    def seed_on(k: int) -> Hypergraph:  # k < r only when n < r, with no params
        seeds = [_construction(pattern, k, which, t)[0] for which, t in params.items()]
        seed = max(seeds, key=lambda g: g.m, default=Hypergraph(k, (), uniform_r=r))
        if not is_free(seed, pattern):
            raise RuntimeError("lower-bound seed contains the pattern; construction bug")
        return seed

    def gate(k: int, best: int, family: Sequence[Iterable[int]]) -> bool:
        deg = Counter(v for e in family for v in e)
        low = max([best - min(deg[v] for v in range(k))]
                  + [_closed_form(pattern, k - 1, which, t) for which, t in params.items()])
        return k * low // (k - r) <= best

    def level(k: int, seed: Hypergraph) -> Generator[int, int, int]:
        """Level k's search: yields k - 1 to ask for ex(k-1), which is sent
        back, and returns ex(k).  Level n keeps its best family in ``top``."""
        nonlocal top
        best, family, bound = seed.m, seed.edge_sets, None
        search = None
        while best != bound:
            if bound is None and k > r and gate(k, best, family):
                bound = k * (yield k - 1) // (k - r)
                assert bound >= best, "Katona-Nemetz-Simonovits bound below a free family"
                continue
            if search is None:
                total = _comb(k, r)
                inside = bisect.bisect_left(copies, total, key=operator.itemgetter(-1))
                search = _search(total, copies[:inside], best, tracker)
            step = next(search, None)
            if step is None:
                break
            best, family = len(step), [universe[i] for i in step]
            if k == n:
                top = step
        return best

    seed = seed_on(n)
    top: Optional[list[int]] = None
    build = _copy_charge(pattern, n)
    tracker = _Budget(budget)
    try:
        tracker.tick(build)
        universe = _colex_universe(n, r)
        copies = _pattern_copies(pattern, n, universe)
        chain = [level(n, seed)]
        reply = None
        while chain:
            try:
                k = chain[-1].send(reply)
            except StopIteration as done:
                chain.pop()
                reply = done.value
            else:
                chain.append(level(k, seed_on(k)))
                reply = None
        certified = True
    except BudgetExceeded:
        certified = False
    nodes = max(tracker.nodes - build, 0)  # search nodes only, not the copy list's steps

    best_edges = seed.edges if top is None else [universe[i] for i in top]
    best = len(best_edges)
    witness = Hypergraph(n, sorted(tuple(sorted(e)) for e in best_edges), uniform_r=r)
    if certified:
        assert witness.m == best
        assert is_free(witness, pattern), "oracle witness failed the freeness recheck"
    return OracleResult(value=best, witness=witness, nodes=nodes, certified=certified)


# -- certified checks -----------------------------------------------------------


def certify_construction_free(pattern: Hypergraph, n: int, which: str) -> bool:
    """Verify the lower-bound construction avoids the pattern.

    A False return means the construction machinery itself is broken and
    is logged as an error.
    """
    ok = is_free(_construction(pattern, n, which)[0], pattern)
    if not ok:
        log.error(
            "construction %s(n=%d, r=%d) unexpectedly contains the pattern", which, n, pattern.uniform_r
        )
    return ok


class TreeShadowBound(NamedTuple):
    lhs: int
    rhs: int
    holds: bool


def tree_shadow_bound_check(host: Hypergraph, tree: Hypergraph) -> TreeShadowBound:
    """|F| <= (p - r) * |(r-1)-shadow(F)| for F free of a p-vertex r-tree."""
    r = tree.require_uniform()
    if host.uniform_r != r:
        raise ValueError("host and tree must share the same uniformity")
    if find_tree_ordering(tree) is None:
        raise ValueError("the forbidden pattern is not a hypergraph tree")
    if not is_free(host, tree):
        raise ValueError("the bound is only claimed for hosts avoiding the tree")
    p = len(tree.support())
    lhs = host.m
    rhs = (p - r) * (shadow(host, r - 1).m if host.m else 0)
    return TreeShadowBound(lhs, rhs, lhs <= rhs)


class MissingVsNonM(NamedTuple):
    uncovered: int
    bound: int
    holds: bool


def missing_vs_nonm_check(
    graph: Hypergraph, pattern: Hypergraph, budget: Optional[int] = None
) -> MissingVsNonM:
    """|G_0| <= (m-1) * |complement(G)| where G_0 collects the edges of G
    lying in no copy of the m-edge pattern inside G.  One anchored search
    per edge runs on G itself, all charging one ``budget``."""
    m = pattern.m
    if m < 2:
        raise ValueError("the count needs a pattern with at least 2 edges")
    r = pattern.require_uniform()
    if graph.uniform_r != r or not graph.is_simple():
        raise ValueError("the graph must be simple and share the pattern uniformity")
    tracker = _Budget(budget)
    uncovered = sum(not _anchored(pattern, graph, e, tracker) for e in graph.edge_sets)
    missing = _comb(graph.n, r) - graph.m
    bound = (m - 1) * missing
    return MissingVsNonM(uncovered, bound, uncovered <= bound)


# -- homogeneous and centralized families ------------------------------------------


Pattern = frozenset  # of frozenset[int]: class-index sets


def _validate_partition(
    family: Hypergraph, partition: Sequence[Iterable[int]]
) -> tuple[tuple[frozenset[int], ...], dict[int, int]]:
    r = family.require_uniform()
    classes = tuple(frozenset(c) for c in partition)
    if len(classes) != r:
        raise ValueError(f"partition must have exactly r={r} classes")
    class_of: dict[int, int] = {}
    for k, cl in enumerate(classes):
        for v in cl:
            if v in class_of:
                raise ValueError(f"vertex {v} appears in two classes")
            class_of[v] = k
    return classes, class_of


def _normalise_pattern(r: int, pattern: Iterable[Iterable[int]]) -> Pattern:
    out = set()
    for index_set in pattern:
        s = frozenset(index_set)
        if not s <= frozenset(range(r)) or len(s) == r:
            raise ValueError("pattern members must be proper subsets of the classes")
        out.add(s)
    return frozenset(out)


def _projection(e: frozenset[int], class_of: Mapping[int, int], idx: frozenset[int]) -> frozenset[int]:
    return frozenset(v for v in e if class_of.get(v) in idx)


def _weak_projections(
    family: Hypergraph,
    sets: Iterable[frozenset[int]],
    class_of: Mapping[int, int],
    index_sets: Iterable[frozenset[int]],
    threshold: int,
) -> Iterator[tuple[frozenset[int], frozenset[int]]]:
    """Each (edge, index set) whose projection has kernel degree below
    ``threshold`` in ``family``, edge by edge."""
    for e in sets:
        for idx in index_sets:
            if kernel_degree(family, _projection(e, class_of, idx), threshold) < threshold:
                yield e, idx


@dataclass(frozen=True)
class HomogeneityReport:
    partition: tuple[frozenset[int], ...]
    pattern: Pattern
    threshold: int
    r_partite_ok: bool
    kernel_ok: bool
    forbidden_ok: bool
    closed_ok: bool
    failures: tuple[str, ...]

    @property
    def homogeneous(self) -> bool:
        return self.r_partite_ok and self.kernel_ok and self.forbidden_ok and self.closed_ok


def homogeneous_check(
    family: Hypergraph,
    partition: Sequence[Iterable[int]],
    pattern: Iterable[Iterable[int]],
    threshold: int,
) -> HomogeneityReport:
    """Verify the three homogeneity conditions for a candidate pattern.

    (1) the partition makes the family r-partite; (2) projections onto
    pattern members have kernel degree >= threshold, and no two edges
    intersect exactly in a projection outside the pattern; (3) the
    pattern is closed under intersection.
    """
    classes, class_of = _validate_partition(family, partition)
    r = family.require_uniform()
    pat = _normalise_pattern(r, pattern)
    failures: list[str] = []

    sets = family.distinct_edges
    r_partite = all(
        len(e) == r and all(v in class_of for v in e) and len({class_of[v] for v in e}) == r
        for e in sets
    )
    if not r_partite:
        failures.append("family is not r-partite under the given partition")

    kernel_ok = True
    forbidden_ok = True
    if r_partite:
        weak = next(_weak_projections(family, sets, class_of, pat, threshold), None)
        if weak is not None:
            kernel_ok = False
            e, idx = weak
            failures.append(
                f"kernel degree below threshold at projection {sorted(idx)} of {sorted(e)}"
            )
        for a, b in itertools.combinations(sets, 2):
            occurring = frozenset(class_of[v] for v in a & b)
            if occurring not in pat:
                forbidden_ok = False
                failures.append(
                    f"edges {sorted(a)} and {sorted(b)} meet in pattern {sorted(occurring)}"
                )
                break

    closed_ok = all(a & b in pat for a in pat for b in pat)
    if not closed_ok:
        failures.append("pattern is not closed under intersection")

    return HomogeneityReport(
        partition=classes,
        pattern=pat,
        threshold=threshold,
        r_partite_ok=r_partite,
        kernel_ok=kernel_ok,
        forbidden_ok=forbidden_ok,
        closed_ok=closed_ok,
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class Classification:
    case: Optional[int]
    cases: tuple[int, ...]
    central_class: Optional[int]
    central: Optional[dict[Edge, int]]
    small_bound: int


def classify(
    family: Hypergraph,
    partition: Sequence[Iterable[int]],
    pattern: Iterable[Iterable[int]],
    threshold: int,
) -> Classification:
    """Which structural case a homogeneous family falls into.

    (1) small: |F| <= C(n, r-2); (2) two classes a,b with every pattern
    avoiding both present; (3) a central class i: removing an edge's
    i-vertex leaves a set lying in that edge only, while every proper
    projection through i keeps kernel degree >= threshold.
    """
    classes, class_of = _validate_partition(family, partition)
    r = family.require_uniform()
    pat = _normalise_pattern(r, pattern)
    sets = family.distinct_edges
    cases: list[int] = []

    small_bound = _comb(family.n, r - 2)
    if family.m <= small_bound:
        cases.append(1)

    def all_subsets_in_pattern(rest: tuple[int, ...]) -> bool:
        return all(
            frozenset(s) in pat
            for k in range(len(rest) + 1)
            for s in itertools.combinations(rest, k)
        )

    if any(
        all_subsets_in_pattern(tuple(sorted(set(range(r)) - {a, b})))
        for a, b in itertools.combinations(range(r), 2)
    ):
        cases.append(2)

    central_class = None
    central: Optional[dict[Edge, int]] = None
    for i in range(r):
        through_i = [
            frozenset(s)
            for k in range(1, r)
            for s in itertools.combinations(range(r), k)
            if i in s
        ]
        witness: dict[Edge, int] = {}
        good = True
        for e in sets:
            spoke = _projection(e, class_of, frozenset([i]))
            if (
                len(spoke) != 1
                or degree(family, e - spoke) != 1
                or any(_weak_projections(family, [e], class_of, through_i, threshold))
            ):
                good = False
                break
            witness[tuple(sorted(e))] = next(iter(spoke))
        if good and sets:
            central_class = i
            central = witness
            cases.append(3)
            break

    return Classification(
        case=min(cases) if cases else None,
        cases=tuple(sorted(set(cases))),
        central_class=central_class,
        central=central,
        small_bound=small_bound,
    )


def centralized_check(
    family: Hypergraph, threshold: int, central: Mapping[Edge, int]
) -> bool:
    """Every proper subset through the designated central vertex of each
    edge must have kernel degree >= threshold."""
    if threshold < 1:
        raise ValueError("threshold must be positive")
    for e in family.edges:
        if e not in central:
            raise ValueError(f"no central element designated for edge {e}")
        c = central[e]
        if c not in e:
            raise ValueError(f"central element {c} does not lie in edge {e}")
        others = [v for v in e if v != c]
        for k in range(len(others) + 1):
            for extra in itertools.combinations(others, k):
                d = frozenset((c,) + extra)
                if len(d) == len(e):
                    continue
                if kernel_degree(family, d, threshold) < threshold:
                    return False
    return True


def _closure(pattern: set[frozenset[int]]) -> set[frozenset[int]]:
    out = set(pattern)
    while True:
        extra = {a & b for a in out for b in out} - out
        if not extra:
            return out
        out |= extra


def homogeneous_extract(
    family: Hypergraph, threshold: int, tries: int = 20, seed: int = 0
) -> tuple[Hypergraph, tuple[frozenset[int], ...], Pattern]:
    """Best-effort extraction of a homogeneous subfamily.

    Randomised greedy: sample r-partitions, keep the transversal edges,
    and delete edges until every occurring intersection pattern (closed
    up) has kernel degree >= threshold.  Returns the largest survivor
    over all tries; the output always passes ``homogeneous_check`` but
    carries no size guarantee.
    """
    r = family.require_uniform()
    rng = random.Random(seed)
    support = sorted(family.support())
    best: tuple[int, Optional[tuple]] = (-1, None)

    for _ in range(max(1, tries)):
        assignment = {v: rng.randrange(r) for v in support}
        classes = tuple(
            frozenset(v for v in support if assignment[v] == k) for k in range(r)
        )
        survivors = [
            e for e in family.distinct_edges
            if len({assignment[v] for v in e}) == r
        ]
        while True:
            sub = Hypergraph(family.n, [sorted(e) for e in survivors], uniform_r=r)
            occurring = {
                frozenset(assignment[v] for v in a & b)
                for a, b in itertools.combinations(survivors, 2)
            }
            pat = _closure(occurring) if occurring else set()
            bad = Counter(e for e, _ in _weak_projections(sub, survivors, assignment, pat, threshold))
            if not bad:
                break
            worst = max(bad.items(), key=lambda kv: (kv[1], sorted(kv[0])))
            survivors.remove(worst[0])
        if len(survivors) > best[0]:
            best = (len(survivors), (survivors, classes, frozenset(pat)))

    assert best[1] is not None
    survivors, classes, pat = best[1]
    out = Hypergraph(family.n, sorted(tuple(sorted(e)) for e in survivors), uniform_r=r)
    report = homogeneous_check(out, classes, pat, threshold)
    assert report.homogeneous, "extraction invariant: output must verify"
    return out, classes, pat
