"""Byte-identity pins for tree certificates, embedding searches and the
Turan oracle.

Each test serialises every answer over a seeded corpus and compares its
sha256 digest with a pinned literal, so any change in a certificate, a
``tight`` flag, a tree transform, an ``embed`` result or an oracle
answer (search node counts and ``certified`` flags included) fails.
``embed``'s ``(status, map)`` and its node counts have separate pins,
so a change that only prunes the search moves only the second.
"""

import hashlib
import json
import math
import random
from collections import Counter

from helpers import brute_twins, random_hypergraph, random_multi_hypergraph, random_tree
from hgx import (
    Hypergraph,
    contains_anchored,
    delete_crosscut,
    detach_limb,
    embed,
    find_tree_ordering,
    host_tree,
    r_partition,
    remove_certified,
    sigma,
    subtree_at,
    tighten,
    trace_certified,
    turan_oracle,
)

# the benchmark's oracle patterns: name -> (r, edges)
ORACLE_PATTERNS = {
    "M2": (3, [(0, 1, 2), (3, 4, 5)]),
    "L32": (3, [(0, 1, 2), (0, 3, 4)]),
    "P": (3, [(0, 1, 2), (1, 2, 3)]),
    "K3": (2, [(0, 1), (0, 2), (1, 2)]),
    "2K2": (2, [(0, 1), (2, 3)]),
}


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _relabel(rng: random.Random, hg: Hypergraph, extra: int = 0) -> Hypergraph:
    """Shuffled vertex labels and edge order, plus ``extra`` repeated edges."""
    perm = list(range(hg.n))
    rng.shuffle(perm)
    edges = [[perm[v] for v in e] for e in hg.edges]
    edges += [rng.choice(edges) for _ in range(extra)] if edges else []
    rng.shuffle(edges)
    return Hypergraph(hg.n, edges, uniform_r=hg.uniform_r, allow_multi=hg.allow_multi or extra > 0)


def _mixed_tree(rng: random.Random, max_edges: int) -> Hypergraph:
    """A tree whose edges have sizes 1..4: each keeps part of its parent."""
    edges = [list(range(rng.randint(1, 4)))]
    fresh = len(edges[0])
    for i in range(1, rng.randint(1, max_edges)):
        par = edges[rng.randrange(i)]
        keep = rng.sample(par, rng.randint(0, len(par)))
        new = list(range(fresh, fresh + max(1 - len(keep), rng.randint(0, 2))))
        fresh += len(new)
        edges.append(keep + new)
    return Hypergraph(fresh, edges, allow_multi=True)


def _tree_corpus() -> list[Hypergraph]:
    rng = random.Random(20260)
    out = []
    for k in range(240):
        kind = k % 6
        if kind < 3:
            tree, _ = random_tree(rng, rng.randint(2, 4), 7, tight=kind == 1)
            out.append(_relabel(rng, tree, extra=rng.randint(0, 2) if kind == 2 else 0))
        elif kind == 3:
            out.append(_relabel(rng, _mixed_tree(rng, 7), extra=rng.randint(0, 2)))
        elif kind == 4:
            n = rng.randint(1, 7)
            out.append(random_multi_hypergraph(rng, n, [1, 2, 3, 4], rng.randint(0, 6)))
        else:
            n = rng.randint(4, 7)
            out.append(random_hypergraph(rng, n, 3, rng.randint(1, 6)))
    return out


def _cert_json(cert) -> str:
    return json.dumps(cert.to_json_obj() if cert is not None else None, sort_keys=True)


def _pair_json(pair) -> str:
    hg, cert = pair
    return json.dumps([hg.n, hg.uniform_r, hg.edges, cert.to_json_obj()], sort_keys=True)


def _tree_lines() -> tuple[list[str], list[str]]:
    """Lines for every answer but the tight-mode certificates, and the
    tight-mode certificates (``require_tight=True``) on their own."""
    rng = random.Random(7)
    lines, tight_lines = [], []
    for hg in _tree_corpus():
        lines.append(json.dumps(hg.to_json_obj(), sort_keys=True))
        for root in (None, *range(hg.m)):
            lines.append(_cert_json(find_tree_ordering(hg, root)))
            tight_lines.append(_cert_json(find_tree_ordering(hg, root, require_tight=True)))
        cert = find_tree_ordering(hg)
        if cert is None:
            continue
        keep = rng.sample(range(hg.n), rng.randint(0, hg.n))
        lines.append(_pair_json(trace_certified(hg, cert, keep)))
        if hg.uniform_r is None or not hg.is_simple() or hg.m == 0:
            continue
        lines.append(json.dumps([sorted(c) for c in r_partition(hg, cert)]))
        lines.append(_pair_json(tighten(hg, cert)))
        sub = Hypergraph(hg.n, [rng.choice(hg.edges)], uniform_r=hg.uniform_r)
        lines.append(_pair_json(host_tree(sub, hg, cert)))
    return lines, tight_lines


def _limb_json(got) -> str:
    limb, rest = _pair_json((got.limb, got.limb_cert)), _pair_json((got.rest, got.rest_cert))
    return json.dumps([got.w, limb, rest, got.limb_edge, got.anchor_edge])


def _transform_lines() -> tuple[list[str], Counter]:
    """Every answer of ``subtree_at``, ``remove_certified``, ``host_tree``,
    ``detach_limb`` and ``delete_crosscut`` over seeded random trees, the
    ValueError message where one is raised, and a tally of the cases that
    the composed transforms take apart."""
    rng = random.Random(28)
    lines: list[str] = []
    seen: Counter = Counter()

    def record(show, fn, *args) -> None:
        try:
            lines.append(show(fn(*args)))
        except ValueError as exc:
            lines.append(json.dumps(["ValueError", str(exc)]))
            seen[str(exc)] += 1

    for k in range(160):
        kind = k % 4
        if kind < 2:
            tree, cert = random_tree(rng, rng.randint(1, 4), 6, tight=kind == 1)
        else:
            base = random_tree(rng, rng.randint(1, 4), 6)[0] if kind == 2 else _mixed_tree(rng, 6)
            tree = _relabel(rng, base, extra=rng.randint(0, 2))
            cert = find_tree_ordering(tree)
        record(_pair_json, subtree_at, tree, cert, rng.randrange(tree.n))
        record(_pair_json, remove_certified, tree, cert, rng.sample(range(tree.n), rng.randint(0, tree.n)))
        _, cut = sigma(tree)
        record(_limb_json, detach_limb, tree, cert, cut.vertices if cut else ())
        sub_edges = rng.sample(tree.edges, rng.randint(1, tree.m))
        sub = Hypergraph(tree.n, sub_edges, uniform_r=tree.uniform_r, allow_multi=True)
        seen["several folds"] += len(tree.support() - sub.support()) > 1
        record(_pair_json, host_tree, sub, tree, cert)
        _, cut = sigma(sub)
        cut = cut.vertices if cut else frozenset()
        seen["empty remainder"] += bool(cut) and all(e <= cut for e in sub.edge_sets)
        record(_pair_json, delete_crosscut, sub, tree, cert, cut)
        if tree.uniform_r is not None:
            record(_pair_json, delete_crosscut, sub, *tighten(tree, cert), cut)
    return lines, seen


# Budgeted pairs of the embed corpus whose search runs out without the
# twin skip in ``_backtrack_embed`` -> their status with it: six now finish.
RAN_OUT_WITHOUT_TWINS = {
    7: "none", 49: "none", 55: "budget", 57: "none", 119: "none",
    154: "none", 191: "budget", 272: "budget", 283: "none",
}


def _embed_runs() -> list[tuple]:
    """(embed result, contains_anchored answer) for 300 seeded pairs."""
    rng = random.Random(11)
    runs = []
    for k in range(300):
        r = rng.choice([2, 3])
        if k % 2:
            pattern, _ = random_tree(rng, r, 5, tight=k % 4 == 1)
        else:
            pattern = random_hypergraph(rng, rng.randint(r, 6), r, rng.randint(1, 4))
        host = random_hypergraph(rng, rng.randint(4, 9), r, rng.randint(1, 30))
        res = embed(pattern, host, budget=rng.choice([None, 40, 5000]))
        anchor = rng.choice(host.edge_sets)
        family = [e for e in host.edge_sets if e != anchor]
        runs.append((res, contains_anchored(pattern, family, anchor)))
    return runs


def _embed_lines(runs: list[tuple]) -> list[str]:
    """``(status, map)`` of every search outside ``RAN_OUT_WITHOUT_TWINS``,
    and every contains_anchored answer."""
    lines = []
    for k, (res, anchored) in enumerate(runs):
        if k not in RAN_OUT_WITHOUT_TWINS:
            amap = sorted(res.map.items()) if res.map is not None else None
            lines.append(json.dumps([res.status, amap]))
        lines.append(json.dumps(anchored))
    return lines


def _copy_charge(pattern: Hypergraph, n: int) -> int:
    """P(n, k) / prod |class|! over the twin classes of the support."""
    sizes = Counter(brute_twins(pattern)[v] for v in pattern.support()).values()
    return math.perm(n, sum(sizes)) // math.prod(math.factorial(s) for s in sizes)


def _oracle_lines() -> list[str]:
    """Every bench pattern at n = r..7 under budgets that run out in the
    copy list (below ``charge``, the maps it walks), exactly at it,
    during the search, or not at all.  A row names its budget by its
    offset from the charge, so it reads the same for any charge."""
    lines = []
    for name, (r, edges) in ORACLE_PATTERNS.items():
        pattern = Hypergraph(1 + max(max(e) for e in edges), edges, uniform_r=r)
        for n in range(r, 8):
            charge = _copy_charge(pattern, n)
            budgets = {None: None, 0: 0}
            budgets.update({f"charge{k:+d}" if k else "charge": charge + k for k in (-1, 0, 1, 10, 300)})
            for label, budget in budgets.items():
                res = turan_oracle(n, r, pattern, budget=budget)
                row = [name, n, label, res.value, res.witness.edges, res.nodes, res.certified]
                lines.append(json.dumps(row))
    return lines


def test_tree_certificates_and_transforms_are_pinned():
    lines, _ = _tree_lines()
    assert len(lines) == 2062
    assert _digest(lines) == "683a810477f050755167de6264f84c61ecae6ac18e2b981f62364eabda68560f"


def test_tree_transforms_are_pinned():
    lines, seen = _transform_lines()
    assert seen["several folds"] >= 40
    assert seen["empty remainder"] >= 5
    assert seen["a tree edge disjoint from the cross-cut has no degree-1 vertex"] >= 5
    assert len(lines) == 920
    assert _digest(lines) == "83d781e78e13cea9a009577b35e1c166281544faef5e455bdcf1fdbb7fd0b8f9"


def test_tight_mode_certificates_are_pinned():
    # tight mode returns the plain certificate when it is tight
    _, lines = _tree_lines()
    assert len(lines) == 1239
    assert _digest(lines) == "7d51752887ffd31d317098fa92f15a2dd1e67c91fe28e09e1a93cf2e1d03f5c2"


def test_tight_mode_is_the_plain_certificate_when_tight():
    for hg in _tree_corpus():
        for root in (None, *range(hg.m)):
            plain = find_tree_ordering(hg, root)
            tight = find_tree_ordering(hg, root, require_tight=True)
            assert tight == (plain if plain is not None and plain.tight else None)


def test_embed_results_are_pinned():
    # the twin skip prunes only failed subtrees, so a finished search
    # returns the same status and map as the plain backtracking
    lines = _embed_lines(_embed_runs())
    assert len(lines) == 591
    assert _digest(lines) == "bf8c870273d2a2803bb9e53d2d6ce26bcabc15d2858684282db0d4a9a00e78af"


def test_embed_budget_runouts():
    runs = _embed_runs()
    ran_out = {k: res.status for k, (res, _) in enumerate(runs) if k in RAN_OUT_WITHOUT_TWINS}
    assert ran_out == RAN_OUT_WITHOUT_TWINS
    assert [k for k, (res, _) in enumerate(runs) if res.status == "budget"] == [55, 191, 272]


def test_embed_node_counts_are_pinned():
    # the matching packing charges one node per search node
    nodes = [res.nodes for res, _ in _embed_runs()]
    assert sum(nodes) == 4155
    assert _digest([json.dumps(nodes)]) == "1dbbb0d1714c25f95500bcda9f630e6c0d9d943a1fec36f97105c4ea20678fa7"


def test_oracle_answers_are_pinned():
    lines = _oracle_lines()
    assert len(lines) == 189
    assert _digest(lines) == "7c3c3ebca0c4f547947bc47e21a8cc303e3a2d265d94c09fef51c29853c59272"


def test_oracle_values_and_witnesses_are_pinned():
    # the unbudgeted rows without their node counts: a change that only
    # prunes the search keeps this pin and moves only the one above
    rows = [json.loads(line) for line in _oracle_lines()]
    lines = [json.dumps([name, n, value, witness, certified])
             for name, n, label, value, witness, _, certified in rows if label is None]
    assert len(lines) == 27
    assert _digest(lines) == "d94a43db79358f4dde44769b1f2a06a656d08479b69091c9dc1072a4c98e670a"
