import random
import time

import pytest

from helpers import (
    brute_min_covers,
    brute_min_crosscuts,
    random_hypergraph,
    random_tree,
    reference_minimum_sets,
    shuffled_relabelled,
)
from hgx import (
    Cover,
    CrossCut,
    Hypergraph,
    enumerate_min_crosscuts,
    gen_standard,
    is_cover,
    is_crosscut,
    sigma,
    tau,
)


def test_tau_matching(m2):
    value, witness = tau(m2)
    assert value == 2
    assert is_cover(m2, witness.vertices)


def test_tau_t3(t3):
    value, witness = tau(t3)
    assert value == 1
    assert witness.vertices == {2}


def test_tau_c34(c34):
    value, witness = tau(c34)
    assert value == 2
    assert witness.vertices == {0, 2}


def test_tau_witness_is_lex_least():
    rng = random.Random(41)
    for _ in range(240):
        r = rng.randint(1, 4)
        n = rng.randint(r, 7)
        edges = [rng.sample(range(n), rng.randint(1, r)) for _ in range(rng.randint(1, 9))]
        edges += [rng.choice(edges) for _ in range(rng.choice((0, 0, 1, 3)))]
        g = Hypergraph(n, edges, allow_multi=True)
        value, witness = tau(g)
        size, all_covers = brute_min_covers(g)
        assert value == size
        assert sorted(witness.vertices) == min(sorted(c) for c in all_covers)


def test_edgeless_tau_and_sigma():
    g = Hypergraph(4, [])
    assert tau(g) == (0, Cover(frozenset()))
    assert sigma(g) == (0, CrossCut(frozenset()))


def test_tau_rejects_empty_edge():
    with pytest.raises(ValueError):
        tau(Hypergraph(3, [[]], allow_multi=True))


def test_sigma_ex511(ex511):
    value, witness = sigma(ex511)
    assert value == 2
    assert witness.vertices == {1, 2}


def test_sigma_ex511_not_unique(ex511):
    # exhaustive enumeration finds three minimum cross-cuts, not one
    size, cuts = brute_min_crosscuts(ex511)
    assert size == 2
    assert sorted(sorted(c) for c in cuts) == [[1, 2], [3, 5], [4, 6]]
    got = [sorted(c.vertices) for c in enumerate_min_crosscuts(ex511)]
    assert got == [[1, 2], [3, 5], [4, 6]]


def test_sigma_matchings():
    # an s-matching has 3^s minimum cross-cuts; sigma must not list them
    for s in (1, 2, 3, 4, 12, 40):
        g = gen_standard("matching", s=s, r=3)
        value, witness = sigma(g)
        assert value == s
        assert witness.vertices == set(range(0, 3 * s, 3))  # lex-least
        assert is_crosscut(g, witness.vertices)
        assert tau(g) == (s, Cover(witness.vertices))


def test_sigma_c34(c34):
    value, witness = sigma(c34)
    assert value == 2
    assert sorted(witness.vertices) == [0, 2]


def test_sigma_infinite(triangle):
    value, witness = sigma(triangle)
    assert value == float("inf")
    assert witness is None
    with pytest.raises(ValueError):
        enumerate_min_crosscuts(triangle)


def test_enumerate_matching(m2):
    cuts = enumerate_min_crosscuts(m2)
    assert len(cuts) == 9
    assert all(is_crosscut(m2, c.vertices) for c in cuts)
    listed = [sorted(c.vertices) for c in cuts]
    assert listed == sorted(listed)


def test_enumerate_single_edge():
    g = Hypergraph(3, [[0, 1, 2]], uniform_r=3)
    assert [sorted(c.vertices) for c in enumerate_min_crosscuts(g)] == [[0], [1], [2]]


def test_enumeration_matches_brute_force():
    rng = random.Random(43)
    answers = {True: 0, False: 0}
    for _ in range(240):
        r = rng.randint(1, 4)
        g = random_hypergraph(rng, rng.randint(r, 7), r, rng.randint(1, 9))
        if rng.random() < 0.3:
            edges = list(g.edges) + [rng.choice(g.edges) for _ in range(rng.randint(1, 3))]
            g = Hypergraph(g.n, edges, uniform_r=r, allow_multi=True)
        size, cuts = brute_min_crosscuts(g)
        answers[size is None] += 1
        if size is None:
            assert sigma(g) == (float("inf"), None)
            with pytest.raises(ValueError):
                enumerate_min_crosscuts(g)
            continue
        value, witness = sigma(g)
        assert value == size
        got = [frozenset(c.vertices) for c in enumerate_min_crosscuts(g)]
        assert got == sorted(cuts, key=sorted)
        assert witness.vertices == got[0]
    assert min(answers.values()) >= 30, answers


def test_sigma_at_least_tau():
    rng = random.Random(47)
    for _ in range(40):
        g = random_hypergraph(rng, 8, 3, rng.randint(1, 12))
        if g.m == 0:
            continue
        s, _ = sigma(g)
        t, _ = tau(g)
        if s != float("inf"):
            assert s >= t


def _triangle_with_pendants(counts):
    """Linear triangle on core vertices 0, 1, 2 (tips 3, 4, 5) with
    counts[c] pendant edges {c, fresh, fresh + 1} at core vertex c."""
    edges = [[0, 1, 3], [1, 2, 4], [2, 0, 5]]
    fresh = 6
    for core, count in enumerate(counts):
        for _ in range(count):
            edges.append([core, fresh, fresh + 1])
            fresh += 2
    return Hypergraph(fresh, edges, uniform_r=3)


@pytest.mark.parametrize("counts", [(10, 10, 10), (4, 9, 17), (1, 1, 28)])
def test_linear_triangle_with_30_pendants(counts):
    # A cross-cut holds at most one core vertex c; the triangle edge away
    # from c and every pendant away from c then need a vertex each, so
    # sigma = 2 + p - max(counts).  A packing that ignores the vertices
    # blocked by c took about 33 s here.
    g = _triangle_with_pendants(counts)
    value, witness = sigma(g)
    assert value == 2 + sum(counts) - max(counts)
    assert is_crosscut(g, witness.vertices)
    assert tau(g) == (3, Cover(frozenset({0, 1, 2})))


def test_mixed_sizes_match_the_brute_force():
    rng = random.Random(53)
    answers = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(1, 10)
        edges = [rng.sample(range(n), rng.randint(1, min(n, 4))) for _ in range(rng.randint(1, 12))]
        edges += [rng.choice(edges) for _ in range(rng.choice((0, 0, 1, 3)))]
        g = Hypergraph(n, edges, allow_multi=True)
        size, covers = brute_min_covers(g)
        assert tau(g) == (size, Cover(min(covers, key=sorted)))
        size, cuts = brute_min_crosscuts(g)
        answers[size is None] += 1
        if size is None:
            assert sigma(g) == (float("inf"), None)
            with pytest.raises(ValueError):
                enumerate_min_crosscuts(g)
            continue
        cuts.sort(key=sorted)
        assert sigma(g) == (size, CrossCut(cuts[0]))
        assert enumerate_min_crosscuts(g) == [CrossCut(c) for c in cuts]
    assert min(answers.values()) >= 50, answers


def test_sparse_labels_index_the_support():
    # bit positions follow the support, not the vertex ids
    base = 10**6 - 10
    small = Hypergraph(10, [[0, 1, 2], [2, 3, 4], [4, 5, 9], [6, 7, 8], [1, 6]], allow_multi=True)
    g = Hypergraph(10**6, [[base + v for v in e] for e in small.edges], allow_multi=True)

    def shift(vs):
        return frozenset(base + v for v in vs)

    assert tau(g) == (tau(small)[0], Cover(shift(tau(small)[1].vertices)))
    assert sigma(g) == (sigma(small)[0], CrossCut(shift(sigma(small)[1].vertices)))
    assert [c.vertices for c in enumerate_min_crosscuts(g)] == [
        shift(c.vertices) for c in enumerate_min_crosscuts(small)
    ]
    size, cuts = brute_min_crosscuts(g)
    assert sigma(g) == (size, CrossCut(min(cuts, key=sorted)))


def _parity_case(rng):
    """A random input for the parity test: mixed or uniform edges with
    repeats, an edgeless one, a tree, possibly with extra edges that close
    cycles, or a sparse graph on up to 24 vertices, under shuffled edges
    and fresh vertex labels.  The sparse graphs fall apart into components
    that recur under different caps, where a memo entry must keep its cap."""
    kind = rng.randrange(10)
    if kind == 0:
        return Hypergraph(rng.randint(0, 3), [])
    r = rng.randint(1, 4)
    if kind >= 8:
        n = rng.randint(12, 24)
        edges = [rng.sample(range(n), 2) for _ in range(n + rng.randint(0, 4))]
    elif kind < 4:
        tree, _ = random_tree(rng, r, 6)
        edges = [list(e) for e in tree.edges]
        if kind == 3:  # a non-tree: edges across the tree
            edges += [rng.sample(range(tree.n), min(r, tree.n)) for _ in range(rng.randint(1, 3))]
    else:
        n = rng.randint(1, 11)
        sizes = range(1, r + 1) if kind < 7 else (r,)
        edges = [rng.sample(range(n), min(rng.choice(sizes), n)) for _ in range(rng.randint(1, 14))]
        edges += [rng.choice(edges) for _ in range(rng.choice((0, 0, 1, 3)))]
    labels = rng.sample(range(40), 1 + max(v for e in edges for v in e))
    edges = [[labels[v] for v in e] for e in edges]
    rng.shuffle(edges)
    return Hypergraph(40, edges, allow_multi=True)


def test_search_matches_the_walk_reference():
    # values, witnesses and cut lists against the vertex walk, on 3,000 inputs
    rng = random.Random(59)
    for _ in range(3000):
        g = _parity_case(rng)
        cover = next(reference_minimum_sets(g, False))
        assert tau(g) == (len(cover), Cover(cover))
        cuts = list(reference_minimum_sets(g, True))
        if not cuts:
            assert sigma(g) == (float("inf"), None)
            with pytest.raises(ValueError):
                enumerate_min_crosscuts(g)
            continue
        assert sigma(g) == (len(cuts[0]), CrossCut(cuts[0]))
        assert enumerate_min_crosscuts(g) == [CrossCut(c) for c in cuts]


@pytest.mark.parametrize("which, family, params, value", [
    ("tau", "linear_path", {"m": 200}, 100),
    ("sigma", "linear_path", {"m": 200}, 100),
    ("tau", "matching", {"s": 1200, "r": 3}, 1200),
], ids=["tau-path-200", "sigma-path-200", "tau-matching-1200"])
def test_search_scales_on_long_paths_and_large_matchings(which, family, params, value):
    # a path or a matching falls apart into components whatever its labels
    # and edge order; a search without the split took over a second at 52 edges
    g = shuffled_relabelled(random.Random(5), gen_standard(family, **params))
    started = time.perf_counter()
    size, witness = {"tau": tau, "sigma": sigma}[which](g)
    assert time.perf_counter() - started < 2.0
    assert size == value
    assert (is_cover if which == "tau" else is_crosscut)(g, witness.vertices)
