import itertools
import random
from collections import Counter

import pytest

from helpers import (
    brute_embeds,
    brute_greedy_map,
    brute_kernel_degree,
    greedy_precondition,
    random_hypergraph,
    random_multi_hypergraph,
    random_tree,
    reference_embed,
)
from hgx import (
    BudgetExceeded,
    Hypergraph,
    contains_anchored,
    embed,
    expansion_embed,
    find_sunflower,
    find_tree_ordering,
    gen_C,
    gen_S,
    gen_standard,
    greedy_tree_embed,
    is_free,
    kernel_degree,
    min_shadow_degree,
    missing_vs_nonm_check,
)
from hgx.embedding import _host_read
from hgx.trees import TreeCertificate


def complete(n, r):
    return Hypergraph(n, list(itertools.combinations(range(n), r)), uniform_r=r)


# -- embed ----------------------------------------------------------------


def test_embed_matching_into_complete(m2):
    res = embed(m2, complete(6, 3))
    assert res.found
    assert len(set(res.map.values())) == 6


def test_embed_c34_into_star_free_family(c34):
    res = embed(c34, gen_C(10, 3, 1))
    assert res.status == "none"


def test_embed_into_empty():
    single = Hypergraph(3, [[0, 1, 2]], uniform_r=3)
    assert embed(single, Hypergraph(4, [], uniform_r=3)).status == "none"


def test_embed_empty_pattern(t3):
    res = embed(Hypergraph(0, []), t3)
    assert res.found and res.map == {}


def test_embed_budget_is_a_distinct_result(c34):
    res = embed(c34, gen_C(10, 3, 1), budget=3)
    assert res.status == "budget"
    assert res.map is None


def test_embed_budget_bounds_the_matching_packing():
    # the 4-matching packing into S(16, 3, 3) runs 167,945 nodes to "none"
    pattern = gen_standard("matching", s=4, r=3)
    res = embed(pattern, gen_S(16, 3, 3), budget=1000)
    assert (res.status, res.map, res.nodes) == ("budget", None, 1001)
    res = embed(pattern, gen_S(12, 3, 3))
    assert (res.status, res.nodes) == ("none", 10417)


def test_embed_resulting_map_hits_edges(t3, k35):
    res = embed(t3, k35)
    assert res.found
    f_set = set(k35.edge_sets)
    for e in t3.edge_sets:
        assert frozenset(res.map[v] for v in e) in f_set


def test_embed_matches_naive_search():
    rng = random.Random(67)
    for _ in range(60):
        r = rng.choice([2, 3])
        pattern = random_hypergraph(rng, rng.randint(r, 6), r, rng.randint(1, 4))
        host = random_hypergraph(rng, rng.randint(r, 8), r, rng.randint(0, 14))
        if len(pattern.support()) > 6 or not pattern.m:
            continue
        expected = brute_embeds(pattern, host)
        assert embed(pattern, host).found == expected


def test_embed_long_path_into_itself():
    # the least candidate always fits, so each vertex costs one node
    path = gen_standard("linear_path", m=200)
    res = embed(path, path)
    assert (res.status, res.nodes) == ("found", 401)


def test_embed_matches_the_edge_by_edge_reference():
    # mixed edge sizes keep the pattern off the matching packing.  An empty
    # pattern edge needs a host with an empty edge, which avoids every used
    # target, so the unmapped edges' shared check can prune only without one.
    rng = random.Random(5)
    seen = Counter()
    for _ in range(1500):
        n = rng.randint(3, 7)
        edges = [rng.sample(range(n), rng.randint(1, 3)) for _ in range(rng.randint(2, 6))]
        if rng.random() < 0.3:
            edges.append([])
        pattern = Hypergraph(n, edges, allow_multi=True)
        if len({len(e) for e in pattern.distinct_edges}) < 2:
            continue
        sizes = [0, 1, 2, 3] if rng.random() < 0.3 else [1, 2, 3]
        host = random_multi_hypergraph(rng, rng.randint(3, 8), sizes, rng.randint(2, 20))
        budget = rng.choice([None, None, rng.randint(1, 10)])
        res = embed(pattern, host, budget)
        assert (res.status, res.map, res.nodes) == reference_embed(pattern, host, budget)
        seen[res.status] += 1
    assert min(seen.values()) >= 100 and len(seen) == 3, seen


def test_is_free_examples(c34, t3, k35):
    assert is_free(gen_C(10, 3, 1), c34)
    assert not is_free(k35, t3)
    assert is_free(Hypergraph(0, []), Hypergraph(3, [[0, 1, 2]], uniform_r=3))


# -- greedy tree embedding ---------------------------------------------------


def test_greedy_short_path(k35):
    path = Hypergraph(4, [[0, 1, 2], [1, 2, 3]], uniform_r=3)
    cert = find_tree_ordering(path, require_tight=True)
    assert min_shadow_degree(k35, 2) >= 4 - 3 + 1
    amap = greedy_tree_embed(path, cert, k35, {0: 0, 1: 1, 2: 2})
    assert amap[3] == 3  # lowest eligible extension vertex


def test_greedy_t3_any_start(t3, k35):
    cert = find_tree_ordering(t3, require_tight=True)
    for image in itertools.permutations(range(5), 3):
        start = dict(zip(sorted(t3.edge_sets[cert.order[0]]), image))
        amap = greedy_tree_embed(t3, cert, k35, start)
        assert len(set(amap.values())) == 5


def test_greedy_rejects_small_host(t3):
    host = gen_C(7, 3, 1)  # minimum pair degree over the shadow is 1
    cert = find_tree_ordering(t3, require_tight=True)
    assert min_shadow_degree(host, 2) < 5 - 3 + 1
    with pytest.raises(ValueError):
        greedy_tree_embed(t3, cert, host, {0: 1, 1: 2, 2: 3})


def test_greedy_rejects_non_tight_certificate(m2, k35):
    cert = find_tree_ordering(m2)
    with pytest.raises(ValueError):
        greedy_tree_embed(m2, cert, k35, {0: 0, 1: 1, 2: 2})


def test_greedy_rejects_bad_start(t3, k35):
    cert = find_tree_ordering(t3, require_tight=True)
    with pytest.raises(ValueError):
        greedy_tree_embed(t3, cert, k35, {0: 0, 1: 1})
    with pytest.raises(ValueError):
        greedy_tree_embed(t3, cert, k35, {0: 0, 1: 1, 3: 2})


def test_greedy_rejects_edgeless_tree(k35):
    empty = Hypergraph(0, [], uniform_r=3)
    with pytest.raises(ValueError, match="at least one edge"):
        greedy_tree_embed(empty, TreeCertificate((), {}, tight=True), k35, {})


def greedy_outcome(tree, cert, host, start):
    """The map, or the message of the ValueError raised instead."""
    try:
        return greedy_tree_embed(tree, cert, host, start)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("r, multi, outcomes", [
    (3, False, {"map": 82, "small": 118}),
    (3, True, {"map": 75, "small": 125}),
    (4, False, {"map": 72, "small": 128}),
    (4, True, {"map": 71, "small": 129}),
])
def test_greedy_matches_the_brute_force_reference(r, multi, outcomes):
    rng = random.Random(10 * r + multi)
    seen = Counter()
    for _ in range(200):
        n = rng.randint(r + 1, r + 5)
        universe = list(itertools.combinations(range(n), r))
        edges = rng.sample(universe, rng.randint(1, len(universe)))
        if multi:
            edges += [rng.choice(edges) for _ in range(rng.randint(1, len(edges)))]
        host = Hypergraph(n, edges, uniform_r=r, allow_multi=multi)
        tree, cert = random_tree(rng, r, 4, tight=True)
        image = rng.sample(rng.choice(edges), r)
        start = dict(zip(sorted(tree.edge_sets[cert.order[0]]), image))
        # once on a cold host memo, once on the entry that call left
        _host_read.cache_clear()
        outcome = greedy_outcome(tree, cert, host, start)
        assert greedy_outcome(tree, cert, host, start) == outcome
        assert _host_read.cache_info()[:2] == (1, 1)  # hits, misses
        if not greedy_precondition(tree, host):
            seen["small"] += 1
            assert outcome == "host shadow degree too small for guaranteed embedding"
            continue
        seen["map"] += 1
        assert outcome == brute_greedy_map(tree, cert, host, start)
    assert seen == outcomes


def test_greedy_verdict_ignores_edge_order_and_repeats():
    rng = random.Random(19)
    for _ in range(60):
        r = rng.randint(2, 4)
        n = rng.randint(r + 1, r + 4)
        universe = list(itertools.combinations(range(n), r))
        edges = rng.sample(universe, rng.randint(len(universe) // 2, len(universe)))
        tree, cert = random_tree(rng, r, 4, tight=True)
        start = dict(zip(sorted(tree.edge_sets[cert.order[0]]), rng.sample(edges[0], r)))
        hosts = [
            Hypergraph(n, edges, uniform_r=r),
            Hypergraph(n, edges[::-1], uniform_r=r),
            Hypergraph(n, edges + edges[: rng.randint(1, len(edges))], uniform_r=r, allow_multi=True),
        ]
        outcomes = [greedy_outcome(tree, cert, host, start) for host in hosts]
        assert outcomes[1] == outcomes[2] == outcomes[0]


def test_greedy_host_memo_is_bounded():
    assert _host_read.cache_info().maxsize is not None


# -- expansion embedding --------------------------------------------------------


def test_expansion_embed_star(l33):
    # nine pairwise-disjoint petals at a common hub
    host = Hypergraph(19, [[0, 1 + 2 * i, 2 + 2 * i] for i in range(9)], uniform_r=3)
    amap = expansion_embed(l33, set(range(1, 7)), host, {0: 0})
    assert amap[0] == 0
    petals = [frozenset(amap[v] for v in e) - {0} for e in l33.edge_sets]
    assert all(not a & b for a, b in itertools.combinations(petals, 2))


def test_expansion_embed_matching(m2):
    host = gen_standard("matching", s=6, r=3)
    amap = expansion_embed(m2, set(range(6)), host, {})
    images = [frozenset(amap[v] for v in e) for e in m2.edge_sets]
    assert not images[0] & images[1]


def test_expansion_embed_rejects_low_kernel_degree(m2):
    host = gen_standard("matching", s=5, r=3)  # matching number 5 < 6 vertices
    with pytest.raises(ValueError):
        expansion_embed(m2, set(range(6)), host, {})


# -- sunflowers -------------------------------------------------------------------


def test_find_sunflower_examples(l33, t3, k35):
    assert find_sunflower(l33, {0}, 3) == [(0, 1, 2), (0, 3, 4), (0, 5, 6)]
    assert find_sunflower(t3, {2}, 3) is None
    assert find_sunflower(k35, set(), 1) is not None


def test_sunflower_matches_kernel_degree():
    rng = random.Random(71)
    for _ in range(60):
        g = random_hypergraph(rng, 8, 3, rng.randint(1, 14))
        verts = sorted(g.support())
        if not verts:
            continue
        d = frozenset(rng.sample(verts, rng.randint(0, 2)))
        s = rng.randint(1, 4)
        flower = find_sunflower(g, d, s)
        kd = kernel_degree(g, d, s)
        assert (flower is not None) == (kd >= s)
        assert kd == min(brute_kernel_degree(g, d, s), s)
        if flower:
            assert len(flower) == s
            for a, b in itertools.combinations(flower, 2):
                assert set(a) & set(b) == set(d)


def test_greedy_never_fails_on_random_trees():
    rng = random.Random(73)
    host = complete(9, 3)
    for _ in range(25):
        tree, _ = random_tree(rng, 3, 4, tight=True)
        if len(tree.support()) > 7:
            continue
        cert = find_tree_ordering(tree, require_tight=True)
        first = sorted(tree.edge_sets[cert.order[0]])
        image = rng.sample(range(9), 3)
        host_edges = set(host.edge_sets)
        if frozenset(image) not in host_edges:
            image = sorted(image)
        amap = greedy_tree_embed(tree, cert, host, dict(zip(first, image)))
        assert len(set(amap.values())) == len(tree.support())


# -- pinned search node counts ------------------------------------------------------
# ``nodes`` follows the search order exactly, so these literals catch any
# change to variable order, candidate order or pruning.


@pytest.mark.parametrize(
    "cycle, host, nodes",
    [
        (5, gen_S(9, 3, 2), 24),
        (5, gen_C(9, 3, 2), 19),
        (5, gen_C(10, 3, 2), 19),
        (5, gen_C(11, 3, 2), 19),
        (6, gen_C(9, 3, 2), 19),
    ],
    ids=["S9", "C9", "C10", "C11", "C6-C9"],
)
def test_embed_node_counts_on_constructions(cycle, host, nodes):
    # tau = sigma = 3 for C5 and C6, so t = 2 constructions are free of
    # them; their two twin classes (marked, unmarked) leave few targets
    res = embed(gen_standard("linear_cycle", m=cycle, r=3), host)
    assert (res.status, res.map, res.nodes) == ("none", None, nodes)


def test_embed_node_count_with_a_host_edge_equal_to_a_partial_image():
    # host edge {1,3} equals the image of a mapped pair of a pattern triple;
    # its empty rest still counts as an extension, so the triple stays feasible
    pattern = Hypergraph(6, [[1, 2, 5], [1, 3, 4], [1, 4, 5]])
    host = Hypergraph(6, [[0, 3, 5], [1, 3], [1, 3, 4], [2, 3, 4], [2, 3, 5]])
    res = embed(pattern, host)
    assert (res.status, res.map, res.nodes) == ("found", {1: 3, 2: 1, 3: 5, 4: 2, 5: 4}, 8)


def test_missing_vs_nonm_on_a_random_graph():
    g = random_hypergraph(random.Random(100), 8, 3, 10)
    c3 = gen_standard("linear_cycle", m=3, r=3)
    assert tuple(missing_vs_nonm_check(g, c3)) == (2, 92, True)


# -- anchored search ---------------------------------------------------------


def test_anchored_search_charges_each_placement_when_an_edge_size_is_missing():
    # the host has no pair, so nothing is searched, but each of the six
    # placements of the triple (2,3,4) on the anchor is still charged
    pattern = Hypergraph(5, [(0, 1), (2, 3, 4)])
    family, anchor = [frozenset({0, 1, 2}), frozenset({3, 4, 5})], frozenset({0, 1, 2})
    with pytest.raises(BudgetExceeded):
        contains_anchored(pattern, family, anchor, budget=5)
    assert contains_anchored(pattern, family, anchor, budget=6) is False


def test_anchored_search_tries_placements_in_order():
    # Only the last root, (3,4,5), fits on the anchor, and only with 3 -> 12:
    # the fifth of its six placements.  The 16 placements before it each
    # cost one node and die at once; the copy costs 1 + 3 more.
    pattern = Hypergraph(6, [(0, 1, 2), (1, 2, 3), (3, 4, 5)])
    family = [frozenset({12, 13, 14}), frozenset({13, 14, 15})]
    anchor = frozenset({10, 11, 12})
    with pytest.raises(BudgetExceeded):
        contains_anchored(pattern, family, anchor, budget=19)
    assert contains_anchored(pattern, family, anchor, budget=20) is True
