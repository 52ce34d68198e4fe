"""Byte-identity pins for tree certificates, embedding searches and the
Turan oracle.

Each test serialises every answer over a seeded corpus and compares its
sha256 digest with a pinned literal, so any change in a certificate, a
``tight`` flag, a tree transform, an ``embed`` result or an oracle
answer (search node counts and ``certified`` flags included) fails.
"""

import hashlib
import json
import math
import random

from helpers import random_hypergraph, random_multi_hypergraph, random_tree
from hgx import (
    Hypergraph,
    contains_anchored,
    embed,
    find_tree_ordering,
    host_tree,
    r_partition,
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


def _embed_lines() -> list[str]:
    rng = random.Random(11)
    lines = []
    for k in range(300):
        r = rng.choice([2, 3])
        if k % 2:
            pattern, _ = random_tree(rng, r, 5, tight=k % 4 == 1)
        else:
            pattern = random_hypergraph(rng, rng.randint(r, 6), r, rng.randint(1, 4))
        host = random_hypergraph(rng, rng.randint(4, 9), r, rng.randint(1, 30))
        res = embed(pattern, host, budget=rng.choice([None, 40, 5000]))
        amap = sorted(res.map.items()) if res.map is not None else None
        lines.append(json.dumps([res.status, amap, res.nodes]))
        anchor = rng.choice(host.edge_sets)
        family = [e for e in host.edge_sets if e != anchor]
        lines.append(json.dumps(contains_anchored(pattern, family, anchor)))
    return lines


def _oracle_lines() -> list[str]:
    """Every bench pattern at n = r..7 under budgets that run out in the
    copy list (below ``build``, the copy list's P(n, |support|) steps),
    exactly at it, during the search, or not at all."""
    lines = []
    for name, (r, edges) in ORACLE_PATTERNS.items():
        pattern = Hypergraph(1 + max(max(e) for e in edges), edges, uniform_r=r)
        for n in range(r, 8):
            build = math.perm(n, len(pattern.support()))
            for budget in (None, 0, build - 1, build, build + 1, build + 10, build + 300):
                res = turan_oracle(n, r, pattern, budget=budget)
                row = [name, n, budget, res.value, res.witness.edges, res.nodes, res.certified]
                lines.append(json.dumps(row))
    return lines


def test_tree_certificates_and_transforms_are_pinned():
    lines, _ = _tree_lines()
    assert len(lines) == 2062
    assert _digest(lines) == "683a810477f050755167de6264f84c61ecae6ac18e2b981f62364eabda68560f"


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
    lines = _embed_lines()
    assert len(lines) == 600
    assert _digest(lines) == "0e47c93bebeb92c425af6baf24fc93c55d700dca790d183abadf4f5c3673d3e8"


def test_oracle_answers_are_pinned():
    lines = _oracle_lines()
    assert len(lines) == 189
    assert _digest(lines) == "5111fbc7ec6a89e560ede285e07ec6abc813b8941f8a1ff03afdd0f37558ab29"
