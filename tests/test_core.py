import itertools
import json
import random
import re
from collections import Counter

import pytest

from helpers import (
    brute_distinct_edges,
    brute_extensions,
    brute_incidence,
    brute_kernel_degree,
    brute_shadow,
    brute_twins,
    random_hypergraph,
    random_multi_hypergraph,
    reference_edges,
    reference_pack_disjoint,
    swap_preserves,
)
from hgx import (
    Hypergraph,
    common_link,
    complement,
    degree,
    embed,
    find_sunflower,
    gen_C,
    gen_S,
    kernel_degree,
    kernel_graph,
    kk_check,
    link,
    min_shadow_degree,
    product,
    real_binomial,
    remove,
    shadow,
    trace,
)
from hgx.core import BudgetExceeded, _Budget, _pack_disjoint, canonical_edge


def edge_set(hg):
    return {tuple(e) for e in hg.edges}


# -- carrier type -----------------------------------------------------------


def test_construction_canonicalises_edges():
    h = Hypergraph(5, [[2, 1, 0], [4, 3, 2]], uniform_r=3)
    assert h.edges == ((0, 1, 2), (2, 3, 4))


def test_construction_rejects_out_of_range():
    with pytest.raises(ValueError):
        Hypergraph(3, [[0, 3]])


def test_construction_rejects_nonuniform():
    with pytest.raises(ValueError):
        Hypergraph(4, [[0, 1], [0, 1, 2]], uniform_r=2)


@pytest.mark.parametrize(
    "n, edges, r, message",
    [
        (3, [[0, 1], [3, 0]], None, r"^edge \(0, 3\) has vertices outside 0\.\.2$"),
        (3, [[0, 1], [-1, 2]], None, r"^edge \(-1, 2\) has vertices outside 0\.\.2$"),
        (4, [[1, 0], [2, 1, 0], [3, 4, 5, 6]], 2, r"^edge \(0, 1, 2\) violates uniformity r=2$"),
        (5, [[0, 1, 2], [4, 3, 9], [0, 1]], 3, r"^edge \(3, 4, 9\) has vertices outside 0\.\.4$"),
        (5, [[0, 1, 2], [0, 1], [2, 3, 9]], 3, r"^edge \(0, 1\) violates uniformity r=3$"),
        (0, [[0]], None, r"^edge \(0,\) has vertices outside 0\.\.-1$"),
    ],
)
def test_construction_errors_name_the_first_bad_edge(n, edges, r, message):
    with pytest.raises(ValueError, match=message):
        Hypergraph(n, edges, uniform_r=r)


def test_construction_rejects_duplicates_when_simple():
    with pytest.raises(ValueError):
        Hypergraph(3, [[0, 1], [1, 0]])
    Hypergraph(3, [[0, 1], [1, 0]], allow_multi=True)  # fine


# each form builds a fresh iterable over an edge's drawn vertices
_EDGE_FORMS = {
    "sorted": lambda vs: tuple(sorted(vs)),
    "list": list,
    "reversed": lambda vs: tuple(sorted(vs, reverse=True)),
    "repeated": lambda vs: [*vs, *vs[-1:]],
    "set": set,
    "range": lambda vs: range(vs[0], vs[0] + len(vs)) if vs else range(0),
    "generator": lambda vs: (v for v in vs),
}


def _carrier_input(rng):
    """(n, edge specs, uniform_r, allow_multi); a spec is (form, vertices)."""
    n = rng.choice([-1, 0, 1, 2, 3, 5, 8, 8])
    k = rng.randint(0, 4)
    uniform = rng.random() < 0.7
    forms = rng.choice([["sorted"], ["sorted"], ["sorted", "list"], list(_EDGE_FORMS)])
    specs = []
    for _ in range(rng.choice([0, *range(1, 8)])):
        size = k if uniform else rng.randint(0, 4)
        form = rng.choice(forms)
        if form == "range":
            start = rng.randint(0, max(n - size, 0))
            verts = list(range(start, start + size))
        elif size <= n:
            verts = rng.sample(range(n), size)
        else:
            verts = [rng.randrange(max(n, 1)) for _ in range(size)]
        specs.append((form, verts))
    if specs and rng.random() < 0.25:
        _, verts = specs[rng.choice([0, -1])]
        if verts:
            verts[rng.randrange(len(verts))] = rng.choice([-1, n, n + 3])
    if specs and rng.random() < 0.3:
        specs.insert(rng.randint(0, len(specs)), (rng.choice(forms), list(rng.choice(specs)[1])))
    r = rng.choice([None, k, k, rng.randint(0, 4)])
    return n, specs, r, rng.random() < 0.5


def test_construction_matches_the_reference_canonicalisation():
    def outcome(build, n, specs, r, multi):
        try:
            return build(n, [_EDGE_FORMS[form](verts) for form, verts in specs], r, multi)
        except ValueError as exc:
            return str(exc)

    rng = random.Random(21)
    seen = Counter()
    for _ in range(4000):
        args = _carrier_input(rng)
        got = outcome(lambda *a: Hypergraph(*a).edges, *args)
        assert got == outcome(reference_edges, *args), args
        if isinstance(got, tuple):
            specs = args[1]
            given_sorted = len({len(v) for _, v in specs}) == 1 and all(
                f in ("sorted", "range") and len(set(v)) == len(v) for f, v in specs
            )
            seen["kept as given" if given_sorted else "canonicalised"] += 1
        else:
            seen[re.sub(r"edge \(.*\)|-?\d+", "", got)] += 1
    # every branch of the constructor and every error is exercised
    assert len(seen) == 6 and min(seen.values()) >= 100, seen


def test_mixed_size_edges_match_canonical_edge_and_keep_sorted_ones():
    rng = random.Random(31)
    errors = Counter()
    for _ in range(1500):
        n = rng.randint(1, 8)
        edges = []
        for _ in range(rng.randint(2, 7)):
            verts = [rng.randrange(n) for _ in range(rng.randint(0, 4))]
            form = rng.choice(["sorted", "sorted", "unsorted", "repeated"])
            if form == "sorted":
                verts = sorted(set(verts))
            elif form == "repeated" and verts:
                verts.insert(rng.randrange(len(verts) + 1), rng.choice(verts))
            edges.append(tuple(verts))
        sizes = {len(canonical_edge(e)) for e in edges}
        if len(sizes) == 1:  # one more size makes the input mixed
            edges.append(tuple(range(min(k for k in range(5) if k not in sizes))))
        if rng.random() < 0.15:
            edges[rng.randrange(len(edges))] = (0, n)
        multi = rng.random() < 0.5
        try:
            h = Hypergraph(n, edges, allow_multi=multi)
        except ValueError as exc:
            with pytest.raises(ValueError) as ref:
                reference_edges(n, edges, allow_multi=multi)
            assert str(exc) == str(ref.value), (n, edges)
            errors[re.sub(r"edge \(.*\)|-?\d+", "", str(exc))] += 1
            continue
        assert h.edges == tuple(canonical_edge(e) for e in edges), (n, edges)
        # a strictly increasing tuple is kept as the object given
        assert all(got is e for got, e in zip(h.edges, edges) if got == e)
        errors["built"] += 1
    assert len(errors) == 3 and min(errors.values()) >= 100, errors


def test_json_round_trip(t3):
    blob = json.dumps(t3.to_json_obj())
    again = Hypergraph.from_json_obj(json.loads(blob))
    assert again == t3


def test_json_rejects_bad_vertices():
    with pytest.raises(ValueError):
        Hypergraph.from_json_obj({"n": 2, "r": None, "multi": False, "edges": [[0, 5]]})
    with pytest.raises(ValueError):
        Hypergraph.from_json_obj(
            {"n": 3, "r": None, "multi": False, "edges": [[0, 1], [1, 0]]}
        )


@pytest.mark.parametrize("multi", ["false", "true", 0, 1, None, [], {}])
def test_json_multi_must_be_a_boolean(multi):
    with pytest.raises(ValueError, match="multi"):
        Hypergraph.from_json_obj({"n": 2, "multi": multi, "edges": [[0, 1], [0, 1]]})


def test_carrier_views_match_their_definitions():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(1, 8)
        g = random_multi_hypergraph(rng, n, [0, 1, 2, 3, 4], rng.randint(0, 10))
        dist = brute_distinct_edges(g)
        assert list(g.distinct_edges) == dist
        assert g.incidence == brute_incidence(g)
        queries = [(frozenset(), ()), (frozenset(), frozenset(rng.sample(range(n), 1)))]
        for e in dist:
            part = frozenset(rng.sample(sorted(e), rng.randint(0, len(e))))
            used = frozenset(rng.sample(range(n), rng.randint(0, n)))
            queries += [(e, ()), (e, used), (part, used), (part, used - part)]
        queries.append((frozenset(rng.sample(range(n), rng.randint(1, n))), ()))
        for img, used in queries:
            assert list(g.extensions(img, used)) == brute_extensions(g, img, used)
        # the empty rest of an edge equal to the image is yielded, not skipped
        assert all(frozenset() in g.extensions(e) for e in dist)


def test_twins_match_the_transposition_brute_force():
    rng = random.Random(31)
    classes = 0
    for k in range(300):
        n = rng.randint(1, 8)
        if k % 3 == 0:
            g = random_multi_hypergraph(rng, n, [0, 1, 2, 3, 4], rng.randint(0, 10))
        elif k % 3 == 1:
            g = random_hypergraph(rng, n, min(n, rng.randint(1, 3)), rng.randint(0, 6))
        else:
            # a few random edges closed under permuting a random block
            block = rng.sample(range(n), rng.randint(1, n))
            seeds = [rng.sample(range(n), rng.randint(1, min(n, 3))) for _ in range(rng.randint(1, 3))]
            g = Hypergraph(n, {
                tuple(sorted(dict(zip(block, perm)).get(v, v) for v in e))
                for e in seeds
                for perm in itertools.permutations(block)
            })
        assert g.twins == brute_twins(g), g.edges
        for u, v in itertools.combinations(range(n), 2):
            # twins is an equivalence: same least vertex exactly when swappable
            assert (g.twins[u] == g.twins[v]) == swap_preserves(g, u, v)
        classes += len(set(g.twins)) < n
    assert classes == 230  # most cases have a class of two or more


@pytest.mark.parametrize(
    "build, n, t",
    [(gen_S, 9, 2), (gen_C, 9, 2), (gen_C, 10, 2), (gen_C, 11, 2), (gen_S, 11, 1), (gen_C, 11, 1)],
)
def test_construction_twins_are_marked_and_unmarked(build, n, t):
    # the exhaustive freeness hosts of Props 3.1/3.2 have two classes
    assert build(n, 3, t).twins == tuple(0 if v < t else t for v in range(n))


def test_twins_of_a_huge_sparse_host(t3):
    # the isolated vertices form one class, found without a loop over n
    n = 10**6
    host = Hypergraph(n, [[1, 2, 5], [2, 5, 6]], uniform_r=3)
    assert host.twins[:10] == brute_twins(Hypergraph(10, host.edges, uniform_r=3))
    assert host.twins[:10] == (0, 1, 2, 0, 0, 2, 1, 0, 0, 0)
    # every vertex from 10 on is isolated, so its least swap partner is 0
    assert len(host.twins) == n and set(host.twins[10:]) == {0}
    assert swap_preserves(host, 0, n - 1) and not swap_preserves(host, 1, n - 1)
    assert embed(t3, host).status == "none"


# -- shadow -------------------------------------------------------------------


def test_shadow_t3(t3):
    got = shadow(t3, 2)
    assert edge_set(got) == {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)}
    assert edge_set(got) == brute_shadow(t3.edges, 2)


def test_shadow_complete(k35):
    assert shadow(k35, 2).m == 10


def test_shadow_identity_at_r(m2):
    assert shadow(m2, 3) == m2


def test_shadow_rejects_large_p(m2):
    with pytest.raises(ValueError):
        shadow(m2, 4)


def test_shadow_monotone():
    rng = random.Random(11)
    for _ in range(25):
        g = random_hypergraph(rng, 8, 3, 12)
        sub = Hypergraph(8, g.edges[: g.m // 2], uniform_r=3)
        assert edge_set(shadow(sub, 2)) <= edge_set(shadow(g, 2))


# -- degrees -----------------------------------------------------------------


def test_degree_examples(t3, k35, m2):
    assert degree(t3, {2, 3}) == 2
    assert degree(k35, {0, 1}) == 3
    assert degree(m2, {0, 3}) == 0


def test_degree_handshake():
    rng = random.Random(5)
    for _ in range(20):
        g = random_hypergraph(rng, 9, 3, 15)
        if g.m == 0:
            continue
        total = sum(degree(g, d) for d in shadow(g, 2).edges)
        assert total == 3 * g.m


def test_min_shadow_degree_examples(t3, k35, m2):
    assert min_shadow_degree(t3, 2) == 1
    assert min_shadow_degree(k35, 2) == 3
    assert min_shadow_degree(m2, 1) == 1


def test_min_shadow_degree_matches_degree_scan():
    # degrees count repeated edges with multiplicity
    rng = random.Random(31)
    for _ in range(60):
        r = rng.randint(2, 4)
        edges = [rng.sample(range(7), r) for _ in range(rng.randint(1, 8))]
        edges += [rng.choice(edges) for _ in range(rng.randint(0, 3))]
        g = Hypergraph(7, edges, uniform_r=r, allow_multi=True)
        for i in range(1, r):
            expected = min(
                sum(1 for e in g.edges if set(d) <= set(e)) for d in brute_shadow(g.edges, i)
            )
            assert min_shadow_degree(g, i) == expected


def test_min_shadow_degree_rejects_empty():
    with pytest.raises(ValueError):
        min_shadow_degree(Hypergraph(4, [], uniform_r=3), 1)


# -- kernel degrees -----------------------------------------------------------


def test_kernel_degree_examples(l33, t3, m2):
    assert kernel_degree(l33, {0}, 5) == 3
    assert kernel_degree(t3, {2}, 5) == 2
    assert kernel_degree(t3, {2}, 5) == brute_kernel_degree(t3, {2}, 5)
    assert kernel_degree(m2, {0, 3}, 5) == 0


def test_kernel_degree_capped(l33):
    assert kernel_degree(l33, {0}, 2) == 2


def test_kernel_degree_vs_degree():
    # equality at degree <= 1 needs the kernel to be a proper subset of
    # its edge; a kernel equal to an edge has no petal at all
    rng = random.Random(3)
    for _ in range(40):
        g = random_hypergraph(rng, 8, 3, 10)
        verts = sorted(g.support())
        if len(verts) < 2:
            continue
        d = frozenset(rng.sample(verts, rng.randint(1, 2)))
        kd = kernel_degree(g, d, 10)
        assert kd <= degree(g, d)
        if degree(g, d) <= 1 and d not in set(g.edge_sets):
            assert kd == degree(g, d)


def _pack_run(pack, petals, cap, limit):
    """(size, picks, nodes) of a packing under a budget of ``limit``
    nodes, or ("budget", nodes) when it runs out."""
    budget = _Budget(limit)
    try:
        size, picks = pack(petals, cap, budget)
    except BudgetExceeded:
        return "budget", budget.nodes
    return size, picks, budget.nodes


def test_pack_disjoint_matches_the_intersection_reference():
    rng = random.Random(29)
    runs = Counter()
    for _ in range(300):
        petals = [frozenset(rng.sample(range(8), rng.randint(0, 4))) for _ in range(rng.randint(0, 9))]
        for _ in range(rng.randint(0, 3)):  # repeated petals, empty ones included
            petals.insert(rng.randint(0, len(petals)), rng.choice(petals or [frozenset()]))
        for cap in range(1, 6):
            assert _pack_disjoint(petals, cap) == reference_pack_disjoint(petals, cap)
            full = _pack_run(_pack_disjoint, petals, cap, None)
            assert full == _pack_run(reference_pack_disjoint, petals, cap, None), (petals, cap)
            nodes = full[-1]
            for limit in sorted({0, nodes // 2, nodes - 1, nodes}):
                got = _pack_run(_pack_disjoint, petals, cap, limit)
                assert got == _pack_run(reference_pack_disjoint, petals, cap, limit), (petals, cap, limit)
                runs[got[0] == "budget"] += 1
    # both outcomes are compared at the limits: running out and finishing
    assert min(runs[True], runs[False]) >= 500, runs


def test_kernel_graph_examples(l33, m2, k35):
    assert edge_set(kernel_graph(l33, 3, 1)) == {(0,)}
    assert kernel_graph(m2, 2, 1).m == 0
    assert edge_set(kernel_graph(k35, 3, 2)) == set(
        itertools.combinations(range(5), 2)
    )


def test_kernel_graph_candidate_restriction_matches_brute_force():
    # restricting kernels to proper subsets of edges loses nothing:
    # compare against scanning every nonempty subset of the vertex set
    rng = random.Random(17)
    cases = [random_hypergraph(rng, 7, 3, 8) for _ in range(10)]
    cases.append(random_hypergraph(rng, 10, 3, 12))
    cases.append(random_hypergraph(rng, 10, 4, 10))
    for g in cases:
        s = rng.randint(1, 3)
        got = edge_set(kernel_graph(g, s))
        expected = set()
        for size in range(1, g.n):
            for cand in itertools.combinations(range(g.n), size):
                if kernel_degree(g, cand, s) >= s:
                    expected.add(cand)
        assert got == expected


def test_extension_property_via_sunflower():
    # a kernel degree above |Y| yields an edge through the kernel whose
    # petal avoids Y entirely
    rng = random.Random(23)
    for _ in range(60):
        g = random_hypergraph(rng, 8, 3, 12)
        verts = sorted(g.support())
        if len(verts) < 3:
            continue
        d = frozenset(rng.sample(verts, rng.randint(1, 2)))
        y = frozenset(rng.sample(range(8), rng.randint(0, 3))) - d
        if kernel_degree(g, d, len(y) + 1) > len(y):
            flower = find_sunflower(g, d, len(y) + 1)
            assert flower is not None
            assert any(not ((set(e) - d) & y) for e in flower)
            assert any(d <= set(e) and not ((set(e) - d) & y) for e in g.edges)


# -- links --------------------------------------------------------------------


def test_link_example(t3):
    assert edge_set(link(t3, 2)) == {(0, 1), (1, 3), (3, 4)}


def test_common_link_examples(k35, m2):
    # every D here pairs with each of 0 and 1 separately to form an edge
    assert edge_set(common_link(k35, {0, 1})) == {(2, 3), (2, 4), (3, 4)}
    assert common_link(m2, {0, 3}).m == 0


def test_common_link_identities():
    rng = random.Random(29)
    for _ in range(20):
        g = random_hypergraph(rng, 8, 3, 14)
        vs = sorted(g.support())
        if len(vs) < 3:
            continue
        x, a, b = rng.sample(vs, 3)
        assert edge_set(common_link(g, {x})) == edge_set(link(g, x))
        lhs = edge_set(common_link(g, {a, b}))
        rhs = edge_set(common_link(g, {a})) & edge_set(common_link(g, {b}))
        assert lhs == rhs


# -- product, complement, trace -------------------------------------------------


def test_product_examples():
    assert edge_set(product(Hypergraph(1, [[0]]), Hypergraph(3, [[1, 2]]))) == {(0, 1, 2)}
    assert edge_set(product(Hypergraph(2, [[0], [1]]), Hypergraph(4, [[2, 3]]))) == {
        (0, 2, 3),
        (1, 2, 3),
    }
    assert edge_set(product(Hypergraph(2, [[0]]), Hypergraph(2, [[0, 1]]))) == {(0, 1)}


def test_complement_examples(k35, m2):
    assert complement(k35).m == 0
    empty = Hypergraph(5, [], uniform_r=3)
    assert complement(empty) == k35
    m2_wide = Hypergraph(6, m2.edges, uniform_r=3)
    assert complement(m2_wide).m == 18


def test_complement_involution():
    rng = random.Random(31)
    for _ in range(20):
        g = random_hypergraph(rng, 7, 3, 12)
        assert complement(complement(g)) == g


def test_complement_rejects_nonuniform():
    with pytest.raises(ValueError):
        complement(Hypergraph(4, [[0, 1], [0, 1, 2]]))


def test_trace_examples(t3):
    assert edge_set(trace(t3, {1, 2, 3})) == {(1, 2), (1, 2, 3), (2, 3)}
    assert edge_set(remove(t3, {2})) == {(0, 1), (1, 3), (3, 4)}
    assert trace(t3, set(range(5))) == Hypergraph(
        5, sorted(t3.edges), uniform_r=3
    )


def test_trace_drops_empty():
    g = Hypergraph(4, [[0, 1], [2, 3]])
    assert edge_set(trace(g, {0, 1})) == {(0, 1)}


# -- Kruskal-Katona -------------------------------------------------------------


def test_kk_complete(k35):
    res = kk_check(k35, 2)
    assert abs(res.x - 5) < 1e-6
    assert abs(res.bound - 10) < 1e-4
    assert res.holds


def test_kk_m2(m2):
    res = kk_check(m2, 2)
    assert abs(real_binomial(res.x, 3) - 2) < 1e-6
    assert res.bound < 6
    assert res.holds


def test_kk_t3(t3):
    res = kk_check(t3, 2)
    assert abs(real_binomial(res.x, 3) - 3) < 1e-6
    assert res.bound < 7
    assert res.holds


def test_kk_random_families():
    rng = random.Random(37)
    for _ in range(50):
        r = rng.choice([3, 4])
        n = rng.randint(r + 1, 10)
        g = random_hypergraph(rng, n, r, rng.randint(1, 20))
        if g.m == 0:
            continue
        p = rng.randint(1, r - 1)
        assert kk_check(g, p).holds


def test_kk_rejects_bad_args(m2):
    with pytest.raises(ValueError):
        kk_check(Hypergraph(4, [], uniform_r=3), 2)
    with pytest.raises(ValueError):
        kk_check(m2, 3)
