import itertools
import math
import operator
import random
from collections import Counter

import pytest

from helpers import (
    brute_turan,
    brute_twins,
    copy_hypergraph,
    random_hypergraph,
    reference_pattern_copies,
    reference_s_edges,
    reference_turan,
)
from hgx import (
    BudgetExceeded,
    Hypergraph,
    bound_sigma_lower,
    bound_tau_lower,
    centralized_check,
    certify_construction_free,
    classify,
    critical_formula,
    find_tree_ordering,
    gen_C,
    gen_S,
    gen_standard,
    homogeneous_check,
    homogeneous_extract,
    is_free,
    missing_vs_nonm_check,
    phi_star_matching,
    sigma,
    tau,
    tighten,
    tree_shadow_bound_check,
    turan_oracle,
)
from hgx.extremal import (
    _class_maps,
    _colex_universe,
    _copy_charge,
    _EdgeIndex,
    _pattern_copies,
    _twin_classes,
)


def edge_set(hg):
    return {tuple(e) for e in hg.edges}


def complete(n, r):
    return Hypergraph(n, list(itertools.combinations(range(n), r)), uniform_r=r)


# -- constructions -----------------------------------------------------------


def test_gen_sizes_examples():
    assert gen_S(6, 3, 2).m == 16
    assert gen_C(6, 3, 2).m == 12
    assert gen_S(6, 3, 0).m == 0


def test_gen_closed_forms_spot():
    for n, r, t in [(8, 3, 1), (10, 4, 3), (7, 2, 4), (5, 3, 5)]:
        assert gen_S(n, r, t).m == math.comb(n, r) - math.comb(n - t, r)
        assert gen_C(n, r, t).m == t * math.comb(n - t, r - 1)


def test_gen_s_edges_are_the_set_filtered_combinations():
    for n in range(9):
        for r in range(1, n + 1):
            for t in range(n + 1):
                assert list(gen_S(n, r, t).edges) == reference_s_edges(n, r, t), (n, r, t)


def test_gen_rejects_bad_params():
    with pytest.raises(ValueError):
        gen_S(4, 5, 1)
    with pytest.raises(ValueError):
        gen_C(4, 2, 5)


def test_gen_standard_families(c34):
    assert c34.n == 8 and c34.m == 4
    assert edge_set(c34) == {(0, 1, 4), (1, 2, 5), (2, 3, 6), (0, 3, 7)}
    cycle4 = gen_standard("k_pp", p=2, s=2)
    assert cycle4.uniform_r == 2 and cycle4.m == 4
    assert edge_set(cycle4) == {(0, 2), (0, 3), (1, 2), (1, 3)}
    assert gen_standard("matching", s=2, r=3) == Hypergraph(
        6, [[0, 1, 2], [3, 4, 5]], uniform_r=3
    )
    path = gen_standard("linear_path", m=2, r=3)
    assert edge_set(path) == {(0, 1, 3), (1, 2, 4)}
    assert edge_set(gen_standard("tight_path", v=5, r=3)) == {(0, 1, 2), (1, 2, 3), (2, 3, 4)}
    with pytest.raises(ValueError):
        gen_standard("tight_path", v=2, r=3)
    fur = gen_standard("fur")
    assert fur.m == 4 and fur.n == 6
    with pytest.raises(ValueError):
        gen_standard("no_such_family")
    with pytest.raises(ValueError):
        gen_standard("matching", s=2)


def test_ex511_shape(ex511):
    assert ex511.n == 12 and ex511.m == 6 and ex511.uniform_r == 4
    # the two hubs 1 and 2 split the edges three and three
    assert sum(1 for e in ex511.edges if 1 in e) == 3
    assert sum(1 for e in ex511.edges if 2 in e) == 3


# -- bound formulas -------------------------------------------------------------


def test_critical_formula():
    assert critical_formula(6, 3, 2) == 10
    assert critical_formula(10, 4, 1) == 0


def test_bound_sigma_lower(c34):
    assert bound_sigma_lower(c34, 10) == 36


def test_bound_tau_lower():
    single = Hypergraph(3, [[0, 1, 2]], uniform_r=3)
    assert bound_tau_lower(single, 9) == 0  # tau = 1, empty sum
    m2 = gen_standard("matching", s=2, r=3)
    assert bound_tau_lower(m2, 8) == math.comb(7, 2)


def test_bound_sigma_rejects_infinite(triangle):
    with pytest.raises(ValueError):
        bound_sigma_lower(triangle, 8)


def test_phi_star_matching_values():
    assert phi_star_matching(2) == 1
    assert phi_star_matching(3) == 6
    assert phi_star_matching(4) == 10
    assert phi_star_matching(5) == 20


# -- oracle ----------------------------------------------------------------------


def test_oracle_single_edge():
    single = Hypergraph(3, [[0, 1, 2]], uniform_r=3)
    res = turan_oracle(6, 3, single)
    assert res.value == 0 and res.witness.m == 0 and res.certified


def test_oracle_matching(m2):
    res = turan_oracle(6, 3, m2)
    assert res.value == 10
    assert res.certified
    assert res.nodes == 2047  # a changed traversal shows up here
    assert res.witness.m == 10
    assert is_free(res.witness, m2)
    # the witness is the full star of vertex 0
    assert edge_set(res.witness) == edge_set(gen_S(6, 3, 1))


def test_oracle_triangle(triangle):
    res = turan_oracle(5, 2, triangle)
    assert res.value == 6 and res.certified
    assert res.nodes == 23  # 6 = floor(5 * 4 / 3) stops the search


def test_oracle_triples_sharing_a_pair():
    # free of two triples on a common pair = every pair in at most one
    # triple: a partial Steiner triple system, at most 4 triples on 6 points
    pair = Hypergraph(4, [[0, 1, 2], [1, 2, 3]], uniform_r=3)
    res = turan_oracle(6, 3, pair)
    assert res.value == 4 and res.certified
    assert res.nodes == 36  # 4 = floor(6 * 2 / 3) stops the search
    assert is_free(res.witness, pair)


def test_oracle_budget_returns_partial(m2):
    res = turan_oracle(6, 3, m2, budget=50)
    assert not res.certified
    assert res.value >= 10  # the seed construction is already optimal here
    assert is_free(res.witness, m2)


def test_oracle_budget_on_a_deep_universe(m2):
    # listing the copies of M2 among 21 vertices takes P(21, 6) / (3! 3!)
    # = 1,085,280 steps, far past the budget, so the seed comes back
    # without a search
    res = turan_oracle(21, 3, m2, budget=1000)
    assert not res.certified
    assert res.value == 190 and res.nodes == 0
    assert res.witness.m == 190


def test_oracle_dominates_lower_bounds(m2, l32, triangle):
    # exact values where classical results pin them: one-vertex stars are
    # the unique maxima for single matchings once n is past the tie zone
    m2_pairs = Hypergraph(4, [[0, 1], [2, 3]], uniform_r=2)
    fixtures = [
        (6, 3, m2, 10),
        (7, 3, m2, 15),
        (7, 3, l32, None),
        (5, 2, triangle, 6),
        (6, 2, m2_pairs, 5),
        (7, 2, m2_pairs, 6),
    ]
    for n, r, pattern, exact in fixtures:
        res = turan_oracle(n, r, pattern)
        bound = bound_tau_lower(pattern, n)
        if sigma(pattern)[0] != float("inf"):
            bound = max(bound, bound_sigma_lower(pattern, n))
        assert res.value >= bound, (n, r, pattern)
        if exact is not None:
            assert res.value == exact, (n, r, pattern)


def test_oracle_closed_forms(m2, l32, triangle):
    pair = Hypergraph(4, [[0, 1, 2], [1, 2, 3]], uniform_r=3)
    fixtures = [
        (8, 3, m2, math.comb(7, 2)),  # Erdos-Ko-Rado: the star of a vertex
        (9, 3, m2, math.comb(8, 2)),
        (8, 2, triangle, 16),  # Mantel: n^2 / 4
        (8, 3, pair, 8),  # the largest partial Steiner triple system on 8 points
        (8, 3, l32, 8),  # Frankl 1977
    ]
    for n, r, pattern, exact in fixtures:
        res = turan_oracle(n, r, pattern)
        assert res.certified and res.value == exact, (n, r, pattern)
        assert res.witness.m == exact and is_free(res.witness, pattern)


def test_oracle_witness_is_first_maximum_in_colex_order(m2, l32, triangle):
    # the witness rule is part of the API, so the witnesses are literals
    pair = Hypergraph(4, [[0, 1, 2], [1, 2, 3]], uniform_r=3)
    k4 = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    fano = [[0, 1, 2], [0, 3, 4], [0, 5, 6], [1, 3, 5], [1, 4, 6], [2, 3, 6], [2, 4, 5]]
    k3_4 = [[0, v] for v in (1, 2, 3, 4)] + [[u, v] for u in (1, 2, 3, 4) for v in (5, 6)]
    fixtures = [
        (7, 3, l32, k4 + [[4, 5, 6]]),
        (7, 3, pair, fano),
        (7, 2, triangle, k3_4),
    ]
    for n, r, pattern, witness in fixtures:
        res = turan_oracle(n, r, pattern)
        assert res.certified and res.value == len(witness)
        assert res.witness == Hypergraph(n, witness, uniform_r=r)
    # a budget too small for the copy list (20 maps for M2 on 6 vertices)
    # returns the seed unsearched
    res = turan_oracle(6, 3, m2, budget=19)
    assert not res.certified and res.value == 10 and res.nodes == 0
    assert res.witness == gen_S(6, 3, 1) and is_free(res.witness, m2)


def _random_patterns(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        r = rng.choice([2, 3])
        pattern = random_hypergraph(rng, rng.randint(r, 5), r, rng.randint(1, 4))
        yield pattern, rng.randint(r, 6)


def test_copy_charge_counts_the_maps_walked():
    for pattern, n in _random_patterns(41, 300):
        classes = _twin_classes(pattern)
        # the classes are the brute-force twin classes of the support
        support = sorted(pattern.support())
        assert sorted(v for c in classes for v in c) == support
        assert all(brute_twins(pattern)[v] == c[0] for c in classes for v in c)
        maps = list(_class_maps([len(c) for c in classes], range(n)))
        assert len(maps) == _copy_charge(pattern, n)
        assert len(set(maps)) == len(maps)
        assert all(len(set(m)) == len(m) == len(support) for m in maps)


class _Walked:
    """A sequence that counts how often it is walked."""

    def __init__(self, items):
        self.items, self.walks = list(items), 0

    def __iter__(self):
        self.walks += 1
        return iter(self.items)


def test_class_maps_copy_the_free_vertices_only_for_a_later_class():
    # the last class reads no rest, so picking it costs one walk in all
    free = _Walked(range(7))
    assert list(_class_maps([3], free)) == list(itertools.combinations(range(7), 3))
    assert free.walks == 1
    free = _Walked(range(7))
    maps = list(_class_maps([1, 2], free))
    rests = {a: [w for w in range(7) if w != a] for a in range(7)}
    assert maps == [(a, *pair) for a in range(7) for pair in itertools.combinations(rests[a], 2)]
    assert free.walks == 1 + 7


def test_pattern_copies_match_the_permutation_brute_force():
    for pattern, n in _random_patterns(43, 300):
        r = pattern.uniform_r
        universe = _colex_universe(n, r)
        fast = {frozenset(universe[i] for i in c) for c in _pattern_copies(pattern, n, universe)}
        lex = list(itertools.combinations(range(n), r))
        brute = {frozenset(frozenset(lex[i]) for i in c) for c in copy_hypergraph(n, r, pattern).edges}
        assert fast == brute, (pattern.edges, n)


def test_pattern_copies_match_the_frozenset_reference_at_every_uniformity():
    rng = random.Random(47)
    seen = Counter()
    for _ in range(400):
        r = rng.randint(1, 4)
        pattern = random_hypergraph(rng, rng.randint(r, min(r + 3, 6)), r, rng.randint(1, 4))
        n = rng.randint(r, 8)
        universe = _colex_universe(n, r)
        copies = _pattern_copies(pattern, n, universe)
        assert copies == reference_pattern_copies(pattern, n, universe), (pattern.edges, n)
        assert all(all(map(operator.lt, c, c[1:])) for c in copies)
        assert len(set(copies)) == len(copies)
        # the chain reads the copies inside a prefix of the universe by bisect
        assert all(a[-1] <= b[-1] for a, b in zip(copies, copies[1:]))
        seen[r] += bool(copies)
    assert sorted(seen) == [1, 2, 3, 4] and min(seen.values()) >= 20, seen


def test_edge_index_holds_only_the_orders_looked_up():
    # all 720 orders of each 6-set would be P(12, 6) = 665,280 keys
    universe = _colex_universe(12, 6)
    index = _EdgeIndex(universe)
    assert len(index) == 0
    for i, e in enumerate(universe):
        assert index[tuple(sorted(e, reverse=True))] == index[tuple(sorted(e))] == i
    assert len(index) == 2 * len(universe)
    with pytest.raises(KeyError):
        index[(0, 1)]
    # at r = 1 itemgetter hands over the bare vertex
    singles = _EdgeIndex(_colex_universe(5, 1))
    assert [singles[v] for v in range(5)] == list(range(5))


def test_oracle_matches_min_cover_of_copy_hypergraph(m2, l32, triangle):
    from helpers import copy_hypergraph

    pair = Hypergraph(4, [[0, 1, 2], [1, 2, 3]], uniform_r=3)
    cases = [(6, 3, m2), (6, 3, pair), (6, 3, l32), (5, 2, triangle), (7, 2, triangle)]
    for n, r, pattern in cases:
        # a pattern-free family is the complement of a cover of the copies
        cover, _ = tau(copy_hypergraph(n, r, pattern))
        assert turan_oracle(n, r, pattern).value == math.comb(n, r) - cover, (n, r)


def test_oracle_rejects_bad_input(m2):
    with pytest.raises(ValueError):
        turan_oracle(6, 4, m2)
    with pytest.raises(ValueError):
        turan_oracle(6, 3, Hypergraph(3, [], uniform_r=3))


def test_oracle_matches_exhaustive_scan(m2, l32, triangle):
    from helpers import brute_turan

    m2_pairs = Hypergraph(4, [[0, 1], [2, 3]], uniform_r=2)
    path3 = Hypergraph(3, [[0, 1], [1, 2]], uniform_r=2)
    cases = [
        (5, 2, triangle),
        (5, 2, m2_pairs),
        (5, 2, path3),
        (5, 3, l32),
        (5, 3, m2),  # the pattern needs 6 vertices, so nothing is excluded
        (4, 3, Hypergraph(3, [[0, 1, 2]], uniform_r=3)),
    ]
    for n, r, pattern in cases:
        assert turan_oracle(n, r, pattern).value == brute_turan(n, r, pattern), (n, r)


def test_oracle_matches_the_plain_search_reference():
    # the stop at the Katona-Nemetz-Simonovits bound changes no value,
    # witness or flag; universes of up to 21 edges keep the plain search
    # fast, and those of up to 10 are also scanned exhaustively
    rng = random.Random(2024)
    stopped = scanned = 0
    for _ in range(60):
        r = rng.choice([2, 3])
        pattern = random_hypergraph(rng, rng.randint(r + 1, 2 * r + 1), r, rng.randint(2, 4))
        for n in (n for n in range(r, 8) if math.comb(n, r) <= 21):
            res = turan_oracle(n, r, pattern)
            value, witness, nodes = reference_turan(n, r, pattern)
            assert (res.value, res.witness, res.certified) == (value, witness, True), (pattern.edges, n)
            stopped += res.nodes < nodes
            if math.comb(n, r) <= 10:
                assert value == brute_turan(n, r, pattern), (pattern.edges, n)
                scanned += 1
    assert stopped > 50 and scanned > 100


def test_oracle_stops_at_the_kns_bound(m2, triangle):
    # Mantel: ex(9, K3) = 20 = floor(9 * 16 / 7), proven by the chain of
    # levels below 9 instead of the whole colex search
    res = turan_oracle(9, 2, triangle)
    assert res.value == 20 and res.certified and res.nodes < 1000
    # the gate stays closed for single matchings: the plain search's counts
    assert turan_oracle(7, 3, m2).nodes == 5828
    assert turan_oracle(9, 2, Hypergraph(4, [[0, 1], [2, 3]], uniform_r=2)).nodes == 184
    assert turan_oracle(10, 3, m2, budget=3_000_000).nodes == 76541


def test_anchored_check_matches_exhaustive_scan():
    from helpers import brute_contains_anchored
    from hgx import contains_anchored

    rng = random.Random(131)
    patterns = [
        gen_standard("matching", s=2, r=3),
        gen_standard("linear_star", p=2, r=3),
        Hypergraph(4, [[0, 1, 2], [1, 2, 3]], uniform_r=3),
        Hypergraph(3, [[0, 1], [1, 2], [0, 2]], uniform_r=2),
    ]
    for _ in range(80):
        pattern = rng.choice(patterns)
        r = pattern.uniform_r
        host = random_hypergraph(rng, rng.randint(r + 1, 7), r, rng.randint(0, 10))
        family = list(host.edge_sets)
        anchor = frozenset(rng.sample(range(7), r))
        family = [e for e in family if e != anchor]
        got = contains_anchored(pattern, family, anchor)
        assert got == brute_contains_anchored(pattern, family, anchor)


# -- freeness certification ---------------------------------------------------------


def test_certify_examples(c34, m2):
    assert certify_construction_free(c34, 10, "C")
    assert certify_construction_free(m2, 8, "S")
    assert certify_construction_free(m2, 8, "C")


def test_certify_rejects_unknown_construction(m2):
    with pytest.raises(ValueError):
        certify_construction_free(m2, 8, "X")
    with pytest.raises(ValueError):
        certify_construction_free(Hypergraph(3, [[0, 1], [0, 2], [1, 2]], uniform_r=2), 8, "C")


# -- tree-shadow bound ----------------------------------------------------------------


def test_tree_shadow_empty_host(m2):
    empty = Hypergraph(6, [], uniform_r=3)
    res = tree_shadow_bound_check(empty, m2)
    assert res == (0, 0, True)


def test_tree_shadow_on_oracle_witness(m2):
    witness = turan_oracle(6, 3, m2).witness
    tight, _ = tighten(m2, find_tree_ordering(m2))
    res = tree_shadow_bound_check(witness, tight)
    assert res.holds
    assert res.lhs == 10 and res.rhs == 3 * 15


def test_tree_shadow_on_construction(c34):
    host = gen_C(8, 3, 1)
    tree = Hypergraph(8, list(c34.edges) + [[0, 1, 2], [0, 2, 3]], uniform_r=3)
    res = tree_shadow_bound_check(host, tree)
    assert res.holds


def test_tree_shadow_rejects_non_free_host(t3):
    # the star family contains tight paths, so the precondition fails
    with pytest.raises(ValueError):
        tree_shadow_bound_check(gen_C(8, 3, 1), t3)


def test_tree_shadow_rejects_non_tree(c34):
    with pytest.raises(ValueError):
        tree_shadow_bound_check(Hypergraph(8, [], uniform_r=3), c34)


# -- missing edges vs pattern-free edges -----------------------------------------------


def test_missing_vs_nonm_near_complete(m2):
    k6 = complete(6, 3)
    g = Hypergraph(6, [e for e in k6.edges if e != (3, 4, 5)], uniform_r=3)
    res = missing_vs_nonm_check(g, m2)
    assert res == (1, 1, True)


def test_missing_vs_nonm_complete(m2):
    res = missing_vs_nonm_check(complete(6, 3), m2)
    assert res == (0, 0, True)


def test_missing_vs_nonm_matching_itself(m2):
    g = Hypergraph(6, m2.edges, uniform_r=3)
    res = missing_vs_nonm_check(g, m2)
    assert res.uncovered == 0 and res.holds


def test_missing_vs_nonm_random():
    rng = random.Random(79)
    m2 = gen_standard("matching", s=2, r=3)
    for _ in range(40):
        g = random_hypergraph(rng, rng.randint(6, 8), 3, rng.randint(0, 20))
        assert missing_vs_nonm_check(g, m2).holds


def test_missing_vs_nonm_matches_exhaustive_scan():
    from helpers import brute_contains_anchored

    rng = random.Random(83)
    patterns = [
        gen_standard("matching", s=2, r=3),
        gen_standard("linear_cycle", m=3, r=3),
        Hypergraph(4, [[0, 1, 2], [1, 2, 3]], uniform_r=3),
    ]
    for _ in range(30):
        pattern = rng.choice(patterns)
        g = random_hypergraph(rng, rng.randint(5, 7), 3, rng.randint(1, 14))
        sets = list(g.edge_sets)
        uncovered = sum(
            not brute_contains_anchored(pattern, sets[:i] + sets[i + 1 :], e)
            for i, e in enumerate(sets)
        )
        assert missing_vs_nonm_check(g, pattern).uncovered == uncovered


def test_missing_vs_nonm_budget_covers_the_whole_check(c34):
    # 20 anchored checks of at most 24 nodes each, 174 in total
    g = random_hypergraph(random.Random(0), 9, 3, 20)
    with pytest.raises(BudgetExceeded):
        missing_vs_nonm_check(g, c34, budget=173)
    assert tuple(missing_vs_nonm_check(g, c34, budget=174)) == (1, 192, True)


def test_missing_vs_nonm_budget_covers_the_matching_packing(m3):
    # the 20 anchored packings for a 3-matching take 69 nodes together
    g = random_hypergraph(random.Random(0), 9, 3, 20)
    with pytest.raises(BudgetExceeded):
        missing_vs_nonm_check(g, m3, budget=68)
    assert tuple(missing_vs_nonm_check(g, m3, budget=69)) == (12, 128, True)


def test_missing_vs_nonm_rejects_single_edge_pattern():
    single = Hypergraph(3, [[0, 1, 2]], uniform_r=3)
    with pytest.raises(ValueError):
        missing_vs_nonm_check(complete(5, 3), single)


# -- homogeneous and centralized families ------------------------------------------------


def rainbow_star():
    # hub 0, classes {1,2,3} and {4,5,6}; all nine transversal edges
    edges = [[0, x, y] for x in (1, 2, 3) for y in (4, 5, 6)]
    return Hypergraph(7, edges, uniform_r=3), [{0}, {1, 2, 3}, {4, 5, 6}]


def test_homogeneous_single_edge():
    single = Hypergraph(3, [[0, 1, 2]], uniform_r=3)
    report = homogeneous_check(single, [{0}, {1}, {2}], [], 1)
    assert report.homogeneous
    got = classify(single, [{0}, {1}, {2}], [], 1)
    assert got.case == 1


def test_homogeneous_rainbow_star():
    star, partition = rainbow_star()
    pattern = [{0}, {0, 1}, {0, 2}]
    report = homogeneous_check(star, partition, pattern, 3)
    assert report.homogeneous
    got = classify(star, partition, pattern, 3)
    assert got.case == 3
    assert got.central_class == 0
    assert all(v == 0 for v in got.central.values())


def test_homogeneous_rejects_unclosed_pattern():
    star, partition = rainbow_star()
    report = homogeneous_check(star, partition, [{0, 1}, {0, 2}], 3)
    assert not report.closed_ok and not report.homogeneous


def test_homogeneous_flags_missing_pattern():
    star, partition = rainbow_star()
    # edges meet in patterns {0}, {0,1}, {0,2}; restricting the pattern
    # set makes those intersections forbidden
    report = homogeneous_check(star, partition, [{0}], 3)
    assert not report.forbidden_ok


def test_homogeneous_flags_low_kernel_degree():
    star, partition = rainbow_star()
    # every projection through the hub has kernel degree 3; the report
    # names the first failing one and stops scanning
    report = homogeneous_check(star, partition, [{0}, {0, 1}, {0, 2}], 4)
    assert (report.r_partite_ok, report.kernel_ok, report.forbidden_ok, report.closed_ok) == (
        True, False, True, True
    )
    assert report.failures == ("kernel degree below threshold at projection [0, 1] of [0, 1, 4]",)


def test_homogeneous_flags_non_partite_family(t3):
    # edge [2,3,4] has two vertices in the class {2,4}; under the second
    # partition vertices 3 and 4 lie in no class
    for partition in ([{0, 3}, {1}, {2, 4}], [{0}, {1}, {2}]):
        report = homogeneous_check(t3, partition, [], 1)
        assert not report.r_partite_ok and not report.homogeneous
        assert report.kernel_ok and report.forbidden_ok and report.closed_ok
        assert report.failures == ("family is not r-partite under the given partition",)


def test_classify_case_2_before_case_3():
    star, partition = rainbow_star()
    # classes 0 and 1 avoid the pattern {∅, {2}}, which holds every
    # subset of the remaining class 2
    got = classify(star, partition, [set(), {2}], 3)
    assert (got.case, got.cases, got.central_class) == (2, (2, 3), 0)


def test_classify_rejects_central_classes():
    star, partition = rainbow_star()
    # with the hub's class second, class 0 fails the unique-completion
    # test (an edge minus its class-0 vertex lies in three edges)
    moved = [partition[1], partition[0], partition[2]]
    got = classify(star, moved, [{1}, {0, 1}, {1, 2}], 3)
    assert (got.case, got.cases, got.central_class) == (3, (3,), 1)
    assert set(got.central.values()) == {0}
    # at threshold 4 the hub's projections fall short, and no class is central
    got = classify(star, partition, [{0}, {0, 1}, {0, 2}], 4)
    assert (got.case, got.cases, got.central_class, got.central) == (None, (), None, None)


def test_homogeneous_check_rejects_malformed_partition(t3):
    with pytest.raises(ValueError):
        homogeneous_check(t3, [{0}, {1}], [], 1)
    with pytest.raises(ValueError):
        homogeneous_check(t3, [{0, 1}, {1, 2}, {3}], [], 1)
    with pytest.raises(ValueError):
        homogeneous_check(t3, [{0}, {1}, {2}], [{0, 1, 2}], 1)


def test_centralized_full_star():
    full = Hypergraph(
        7, [[0] + list(c) for c in itertools.combinations(range(1, 7), 2)], uniform_r=3
    )
    assert centralized_check(full, 3, {e: 0 for e in full.edges})


def test_centralized_matching_fails(m2):
    assert not centralized_check(m2, 2, {e: e[0] for e in m2.edges})


def test_centralized_empty():
    assert centralized_check(Hypergraph(0, [], uniform_r=3), 2, {})


def test_centralized_rejects_foreign_center(m2):
    with pytest.raises(ValueError):
        centralized_check(m2, 1, {e: 99 for e in m2.edges})


def test_extract_outputs_verify():
    rng = random.Random(83)
    fixtures = [gen_C(9, 3, 1), Hypergraph(9, [], uniform_r=3)]
    fixtures.append(random_hypergraph(rng, 9, 3, 20))
    for fam in fixtures:
        out, partition, pattern = homogeneous_extract(fam, 2, tries=6, seed=5)
        report = homogeneous_check(out, partition, pattern, 2)
        assert report.homogeneous
        assert edge_set(out) <= edge_set(fam)
    # the star family keeps a nonempty homogeneous core
    out, _, _ = homogeneous_extract(gen_C(9, 3, 1), 2, tries=6, seed=5)
    assert out.m > 0


def test_extract_drops_the_edge_with_most_weak_projections():
    # pins the greedy: each round removes the edge with the most
    # projections below the threshold, so every weak one must be counted
    fam = random_hypergraph(random.Random(83), 8, 3, 25)
    out, partition, pattern = homogeneous_extract(fam, 2, tries=6, seed=5)
    assert out.edges == ((1, 2, 3), (1, 3, 5))
    assert partition == (frozenset({0, 2, 4, 5, 6}), frozenset({1, 7}), frozenset({3}))
    assert pattern == frozenset({frozenset({1, 2})})


def test_extract_deterministic_per_seed():
    fam = random_hypergraph(random.Random(5), 9, 3, 18)
    a = homogeneous_extract(fam, 2, tries=5, seed=11)
    b = homogeneous_extract(fam, 2, tries=5, seed=11)
    assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]
