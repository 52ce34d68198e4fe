"""The benchmark's workloads: inputs made from a seed, queries that call
hgx, and the independent check each answer must pass.

Inputs are plain edge lists built here, without hgx, so that the checks
in ``checks.py`` can say how each input was built.  Queries reach hgx
only through attribute lookups on the package object at call time, so
that a traced round sees every call through its wrappers.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable

import checks

WORKLOADS = ("oracle", "analyze", "verify")


@dataclass
class Query:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    # canonical form of an answer; later rounds must repeat the first exactly
    key: Callable[[Any], Any] = lambda out: out


def build(workload: str, lib: ModuleType, seed: int, workdir: str) -> list[Query]:
    """The fixed query list of one workload for one seed.

    ``lib`` is the imported ``hgx`` package with ``hgx.cli`` loaded;
    ``workdir`` is an empty directory for input files.
    """
    builders = {"oracle": _oracle, "analyze": _analyze, "verify": _verify}
    return builders[workload](lib, seed, workdir)


def _relabel(rng: random.Random, n: int, edges) -> list[list[int]]:
    """Edges under a random vertex permutation, in a random order."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [sorted(perm[v] for v in e) for e in edges]
    rng.shuffle(out)
    return out


def _order(edges) -> int:
    return 1 + max(v for e in edges for v in e)


# -- oracle ------------------------------------------------------------------------------

# name -> (r, edges)
PATTERNS = {
    "M2": (3, [(0, 1, 2), (3, 4, 5)]),  # the 3-uniform 2-matching
    "L32": (3, [(0, 1, 2), (0, 3, 4)]),  # the linear star with 2 petals
    "P": (3, [(0, 1, 2), (1, 2, 3)]),  # two triples sharing a pair
    "K3": (2, [(0, 1), (0, 2), (1, 2)]),  # the triangle
    "2K2": (2, [(0, 1), (2, 3)]),  # two disjoint edges
}

# (n, pattern, node budget).  The last query recurses once per r-set of
# the 1330-set universe and raises RecursionError until the oracle's
# search runs on an explicit stack; it counts as failed in every round.
ORACLE_QUERIES = (
    (6, "M2", None),
    (7, "M2", None),
    (7, "L32", None),
    (7, "P", None),
    (7, "K3", None),
    (9, "2K2", None),
    (21, "M2", 1000),
)


def _oracle(lib: ModuleType, seed: int, workdir: str) -> list[Query]:
    # The oracle workload is a fixed set; the seed changes nothing.
    queries = []
    for n, name, budget in ORACLE_QUERIES:
        r, edges = PATTERNS[name]

        def run(n=n, r=r, edges=edges, budget=budget):
            pattern = lib.Hypergraph(_order(edges), edges, uniform_r=r)
            res = lib.turan_oracle(n, r, pattern, budget=budget)
            return res.value, [list(e) for e in res.witness.edges], res.nodes, res.certified

        def check(out, n=n, r=r, name=name, edges=edges):
            value, witness, _, certified = out
            return checks.check_oracle(n, r, name, edges, value, witness, certified)

        queries.append(Query(f"turan({n},{r},{name})", run, check))
    return queries


# -- analyze -----------------------------------------------------------------------------

TREE_CLASSES = ((3, True), (3, False), (4, True), (4, False))  # (r, built tight)
TREES_PER_CLASS = 16
PENDANTS = (12, 13, 14, 15)  # pendant edges on each linear triangle


def _random_tree(rng: random.Random, r: int, m: int, tight: bool) -> tuple[int, list[list[int]]]:
    """A tree grown by its defining ordering: each new edge keeps part of
    an earlier edge (r-1 vertices when tight) and adds fresh vertices."""
    edges = [list(range(r))]
    fresh = r
    for _ in range(1, m):
        keep = r - 1 if tight else rng.randint(0, r - 1)
        edge = rng.sample(rng.choice(edges), keep) + list(range(fresh, fresh + r - keep))
        fresh += r - keep
        edges.append(edge)
    return fresh, edges


def _linear_cycle(m: int) -> list[tuple[int, ...]]:
    return [(i, (i + 1) % m, m + i) for i in range(m)]


def _linear_path(m: int) -> list[tuple[int, ...]]:
    return [(i, i + 1, m + 1 + i) for i in range(m)]


# (name, r, edges, built tight); whether each is a tree is decided by
# checks.brute_is_tree.
STANDARD = (
    ("matching(3,3)", 3, [(0, 1, 2), (3, 4, 5), (6, 7, 8)], False),
    ("matching(2,4)", 4, [(0, 1, 2, 3), (4, 5, 6, 7)], False),
    ("linear_star(3,3)", 3, [(0, 1, 2), (0, 3, 4), (0, 5, 6)], False),
    ("linear_star(2,4)", 4, [(0, 1, 2, 3), (0, 4, 5, 6)], False),
    ("linear_path(4,3)", 3, _linear_path(4), False),
    ("tight_path(6,3)", 3, [(i, i + 1, i + 2) for i in range(4)], True),
    ("linear_cycle(4,3)", 3, _linear_cycle(4), False),
    ("linear_cycle(5,3)", 3, _linear_cycle(5), False),
    ("k_pp(3,2)", 3, list(itertools.product((0, 1), (2, 3), (4, 5))), False),
    (
        "ex511",
        4,
        [(1, 3, 4, 0), (1, 4, 5, 7), (1, 5, 6, 8), (2, 3, 4, 9), (2, 4, 5, 10), (2, 5, 6, 11)],
        False,
    ),
    ("fur", 3, [(0, 1, 2), (0, 1, 3), (2, 4, 5), (3, 4, 5)], False),
)


def _triangle_with_pendants(rng: random.Random, pendants: int) -> tuple[int, list, dict]:
    """A linear triangle on core vertices 0, 1, 2 (tips 3, 4, 5) with
    pendant edges, each one core vertex plus two fresh vertices.

    No ordering can place the last triangle edge: its two core vertices
    lie in different earlier edges, so this is not a tree.  With at least
    one pendant at every core vertex, tau = 3 (one pendant at each is a
    3-matching, and {0, 1, 2} covers), and a cross-cut holds at most one
    core vertex c, so sigma = 2 + pendants - (most pendants at one core vertex).
    """
    counts = [1, 1, 1]
    for _ in range(pendants - 3):
        counts[rng.randrange(3)] += 1
    edges = [[0, 1, 3], [1, 2, 4], [2, 0, 5]]
    fresh = 6
    for core, count in enumerate(counts):
        for _ in range(count):
            edges.append([core, fresh, fresh + 1])
            fresh += 2
    return fresh, edges, {"tree": False, "tau": 3, "sigma": 2 + pendants - max(counts)}


def _analyze(lib: ModuleType, seed: int, workdir: str) -> list[Query]:
    rng = random.Random(f"analyze-{seed}")
    items = []  # (name, n, r, facts)
    for r, tight in TREE_CLASSES:
        for i in range(TREES_PER_CLASS):
            n, edges = _random_tree(rng, r, 4 + i % 8, tight)
            kind = "tight" if tight else "tree"
            items.append((f"{kind}{r}-{i}", n, r, edges, {"tree": True, "tight": tight}))
    for name, r, edges, tight in STANDARD:
        items.append((name, _order(edges), r, edges, {"tree": None, "tight": tight}))
    for p in PENDANTS:
        n, edges, facts = _triangle_with_pendants(rng, p)
        items.append((f"triangle+{p}", n, 3, edges, facts))

    queries = []
    for idx, (name, n, r, edges, facts) in enumerate(items):
        edges = _relabel(rng, n, edges)
        path = os.path.join(workdir, f"{idx:03d}.json")
        with open(path, "w") as fh:
            json.dump({"n": n, "r": r, "multi": False, "edges": edges}, fh)
        item = {"edges": edges, "r": r, **facts}

        def run(path=path):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = lib.cli.main(["analyze", path, "--certify"])
            if code != 0:
                raise RuntimeError(f"hg analyze exited {code}: {err.getvalue().strip()}")
            return json.loads(out.getvalue())["results"]

        queries.append(Query(f"analyze({name})", run, lambda out, item=item: checks.check_analyze(item, out)))
    return queries


# -- verify ------------------------------------------------------------------------------------

# Props 3.1 (S: r-sets meeting a (tau-1)-set) and 3.2 (C: r-sets meeting
# a (sigma-1)-set exactly once).  Each is an exhaustive embed search
# that answers "none" after 16k-80k nodes.
FREENESS = (("C5", 9, "S"), ("C5", 9, "C"), ("C5", 10, "C"), ("C5", 11, "C"), ("C6", 9, "C"))
NAMED = {
    "C5": _linear_cycle(5),
    "C6": _linear_cycle(6),
    "P5": _linear_path(5),
    "P4": _linear_path(4),
    "M3": [(0, 1, 2), (3, 4, 5), (6, 7, 8)],
    "M2": PATTERNS["M2"][1],
    "L32": PATTERNS["L32"][1],
    "P": PATTERNS["P"][1],
}
# tau = sigma for each tree used in the Prop 5.4 checks
TREE_TAU = {"M3": 3, "P4": 2, "P5": 3}
TREE_SHADOW = (("M3", 10, "C"), ("P4", 11, "S"), ("P4", 11, "C"), ("P5", 9, "C"))
# Prop 9.1 on random 3-graphs: (n, edge count, pattern)
MISSING = tuple((n, m, name) for n, m in ((7, 8), (8, 10), (10, 15), (10, 30)) for name in ("M2", "L32", "P"))
MISSING_BUDGET = 1_000_000
HOSTS = 50  # criterion-6 hosts on 12 vertices
HOST_N = 12


def _construction(n: int, t: int, which: str) -> list[tuple[int, ...]]:
    """S: all triples meeting {0..t-1}; C: those meeting it exactly once."""
    want = (lambda k: k >= 1) if which == "S" else (lambda k: k == 1)
    return [c for c in itertools.combinations(range(n), 3) if want(sum(v < t for v in c))]


def tight_trees(r: int = 3, max_vertices: int = 7) -> list[tuple[int, list, dict]]:
    """Every tight r-tree on at most ``max_vertices`` vertices grown by
    the one-new-vertex rule, deduplicated by labelled edge set, with the
    growth order as its tight certificate: (vertices, edges, parent)."""
    seen: set[frozenset] = set()
    out = []

    def grow(edges: list, parent: dict, used: int) -> None:
        key = frozenset(frozenset(e) for e in edges)
        if key in seen:
            return
        seen.add(key)
        out.append((used, list(edges), dict(parent)))
        if used >= max_vertices:
            return
        for p, base in enumerate(list(edges)):
            for drop in base:
                new = tuple(sorted([v for v in base if v != drop] + [used]))
                grow(edges + [new], {**parent, len(edges): p}, used + 1)

    grow([tuple(range(r))], {}, r)
    return out


def dense_host(rng: random.Random, need: int = 5) -> list[tuple[int, ...]]:
    """Triples of [12] meeting {0,1,2} once, plus random triples until every
    pair in the 2-shadow lies in at least ``need`` edges."""
    edges = set(_construction(HOST_N, 3, "C"))
    codegree = Counter(p for e in edges for p in itertools.combinations(e, 2))
    pool = [c for c in itertools.combinations(range(HOST_N), 3) if c not in edges]
    rng.shuffle(pool)
    while min(codegree.values()) < need:
        e = pool.pop()
        edges.add(e)
        codegree.update(itertools.combinations(e, 2))
    return sorted(edges)


def _verify(lib: ModuleType, seed: int, workdir: str) -> list[Query]:
    rng = random.Random(f"verify-{seed}")
    queries = []

    for name, n, which in FREENESS:
        edges = _relabel(rng, _order(NAMED[name]), NAMED[name])

        def run(edges=edges, n=n, which=which):
            pattern = lib.Hypergraph(_order(edges), edges, uniform_r=3)
            return lib.certify_construction_free(pattern, n, which)

        queries.append(
            Query(
                f"free({name},{n},{which})",
                run,
                lambda out: [] if out is True else [f"construction reported not free: {out!r}"],
            )
        )

    for name, n, which in TREE_SHADOW:
        host = _relabel(rng, n, _construction(n, TREE_TAU[name] - 1, which))
        tree = _relabel(rng, _order(NAMED[name]), NAMED[name])

        def run(host=host, tree=tree, n=n):
            res = lib.tree_shadow_bound_check(
                lib.Hypergraph(n, host, uniform_r=3), lib.Hypergraph(_order(tree), tree, uniform_r=3)
            )
            return res.lhs, res.rhs, res.holds

        def check(out, host=host, tree=tree):
            return checks.check_tree_shadow(host, tree, 3, *out)

        queries.append(Query(f"shadow54({name},{n},{which})", run, check))

    for n, m, name in MISSING:
        universe = list(itertools.combinations(range(n), 3))
        graph = sorted(rng.sample(universe, m))
        pattern = NAMED[name]

        def run(graph=graph, pattern=pattern, n=n):
            res = lib.missing_vs_nonm_check(
                lib.Hypergraph(n, graph, uniform_r=3),
                lib.Hypergraph(_order(pattern), pattern, uniform_r=3),
                budget=MISSING_BUDGET,
            )
            return res.uncovered, res.bound, res.holds

        def check(out, graph=graph, pattern=pattern, n=n):
            return checks.check_missing(n, 3, graph, pattern, *out)

        queries.append(Query(f"missing91({n},{m},{name})", run, check))

    hosts = [dense_host(rng) for _ in range(HOSTS)]
    for idx, (size, edges, parent) in enumerate(tight_trees()):
        host = hosts[idx % HOSTS]
        image = list(rng.choice(host))
        rng.shuffle(image)
        start = dict(zip(edges[0], image))

        def run(size=size, edges=edges, parent=parent, host=host, start=start):
            tree = lib.Hypergraph(size, edges, uniform_r=3)
            cert = lib.TreeCertificate(tuple(range(len(edges))), parent, tight=True)
            return lib.greedy_tree_embed(tree, cert, lib.Hypergraph(HOST_N, host, uniform_r=3), start)

        def check(out, edges=edges, host=host, start=start):
            return checks.check_greedy(edges, host, start, out)

        queries.append(Query(f"greedy({idx})", run, check, key=lambda out: sorted(out.items())))
    return queries
