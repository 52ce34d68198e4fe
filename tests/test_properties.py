"""Seeded randomised invariants across modules."""

import random

from helpers import (
    brute_tight_ordering,
    brute_tree_ordering,
    fold_one_at_a_time,
    random_hypergraph,
    random_tree,
    recursion_headroom,
    shuffled_relabelled,
)
from hgx import (
    Hypergraph,
    compress,
    embed,
    find_tree_ordering,
    gen_standard,
    is_crosscut,
    r_partition,
    remove_certified,
    shadow,
    sigma,
    subtree_at,
    tau,
    tighten,
    trace_certified,
    turan_oracle,
    verify_certificate,
)


def edge_set(hg):
    return {tuple(e) for e in hg.edges}


def test_tree_operations_preserve_treeness():
    rng = random.Random(97)
    for _ in range(120):
        r = rng.choice([2, 3, 4])
        hg, cert = random_tree(rng, r, 8)
        assert verify_certificate(hg, cert)[0]

        found = find_tree_ordering(hg)
        assert found is not None
        assert verify_certificate(hg, found)[0]

        # shadows of the recognised structure survive traces and removals
        keep = set(rng.sample(range(hg.n), rng.randint(1, hg.n)))
        traced, traced_cert = trace_certified(hg, found, keep)
        assert verify_certificate(traced, traced_cert)[0]
        assert find_tree_ordering(traced) is not None

        dropped, dropped_cert = remove_certified(hg, found, set(rng.sample(range(hg.n), rng.randint(0, 2))))
        assert verify_certificate(dropped, dropped_cert)[0]

        x = rng.choice(sorted(hg.support()))
        sub, sub_cert = subtree_at(hg, found, x)
        assert verify_certificate(sub, sub_cert)[0]
        assert all(x in e for e in sub.edges)

        tight, tight_cert = tighten(hg, found)
        assert tight_cert.tight
        assert edge_set(hg) <= edge_set(tight)
        assert tight.support() == hg.support()
        assert tight.edges[tight_cert.order[0]] == hg.edges[found.order[0]]

        classes = r_partition(hg, found)
        for e in hg.edge_sets:
            assert all(len(e & c) == 1 for c in classes)


def test_recognition_matches_brute_force_ordering_search():
    # Ear removal has no backtracking, so a second route checks that it
    # never misses an ordering: plain search over edge permutations.
    rng = random.Random(131)
    answers = {True: 0, False: 0}
    for _ in range(300):
        r = rng.choice([2, 3, 4])
        kind = rng.randrange(3)
        if kind == 2:
            hg = random_hypergraph(rng, rng.randint(r, r + 4), r, rng.randint(1, 6))
        else:
            hg, _ = random_tree(rng, r, 6 - kind)
            if kind == 1:
                extra = sorted(rng.sample(sorted(hg.support()), r))
                edges = list(dict.fromkeys(hg.edges + (tuple(extra),)))
                hg = Hypergraph(hg.n, edges, uniform_r=r)
        for root in [None, *range(hg.m)]:
            found = find_tree_ordering(hg, root=root)
            expected = brute_tree_ordering(hg, root)
            assert (found is None) == (expected is None), (hg.edges, root)
            if found is not None:
                assert verify_certificate(hg, found)[0]
                if root is not None:
                    assert hg.edge_sets[found.order[0]] == hg.edge_sets[root]
            answers[found is None] += 1
    assert min(answers.values()) >= 200, answers


def test_tight_recognition_matches_brute_force_ordering_search():
    # Tight recognition is ear removal plus the certificate's tight flag;
    # the second route is plain search over edge permutations.
    rng = random.Random(137)
    answers = {True: 0, False: 0}
    for _ in range(300):
        r = rng.randint(1, 4)
        kind = rng.randrange(4)
        if kind == 3:
            hg = random_hypergraph(rng, rng.randint(r, r + 3), r, rng.randint(1, 6))
        else:
            hg, _ = random_tree(rng, r, 6 - kind, tight=kind < 2)
            if kind == 1:
                # replace one edge of a tight tree by a random r-set, or add one
                edges = list(hg.edges)
                if hg.m > 1 and rng.random() < 0.5:
                    edges.pop(rng.randrange(hg.m))
                edges.append(tuple(sorted(rng.sample(range(hg.n + 1), r))))
                hg = Hypergraph(hg.n + 1, list(dict.fromkeys(edges)), uniform_r=r)
        for root in [None, *range(hg.m)]:
            found = find_tree_ordering(hg, root=root, require_tight=True)
            expected = brute_tight_ordering(hg, root)
            assert (found is None) == (expected is None), (hg.edges, root)
            if found is not None:
                assert found.tight and verify_certificate(hg, found)[0]
                seen = set(hg.edge_sets[found.order[0]])
                for pos in range(1, hg.m):
                    e = hg.edge_sets[found.order[pos]]
                    assert len(e - seen) == 1
                    assert len(e & hg.edge_sets[found.order[found.parent[pos]]]) == r - 1
                    seen |= e
                if root is not None:
                    assert found.order[0] == root
            answers[found is None] += 1
    assert min(answers.values()) >= 200, answers


def test_compression_keeps_certificates():
    rng = random.Random(101)
    done = 0
    while done < 60:
        r = rng.choice([3, 4])
        hg, cert = random_tree(rng, r, 7)
        if hg.m < 2:
            continue
        pos = rng.randrange(1, hg.m)
        e = hg.edge_sets[cert.order[pos]]
        pe = hg.edge_sets[cert.order[cert.parent[pos]]]
        xs, ys = sorted(e - pe), sorted(pe - e)
        if not xs or not ys:
            continue
        x, y = rng.choice(xs), rng.choice(ys)
        out, out_cert = compress(hg, cert, pos, x, y)
        assert verify_certificate(out, out_cert)[0]
        # edges without x survive verbatim
        for before, after in zip(hg.edges, out.edges):
            if x not in before:
                assert before == after
            else:
                assert set(after) == (set(before) - {x}) | {y}
        done += 1


def test_colour_classes_are_crosscuts():
    rng = random.Random(103)
    for _ in range(60):
        hg, cert = random_tree(rng, rng.choice([2, 3, 4]), 8)
        for cls in r_partition(hg, cert):
            assert is_crosscut(hg, cls)


def test_shadow_of_certified_tree_identity():
    rng = random.Random(107)
    for _ in range(40):
        hg, _ = random_tree(rng, 3, 6)
        assert edge_set(shadow(hg, 3)) == set(hg.edges)


def test_detach_limb_postconditions_random():
    from hgx import Hypergraph, detach_limb, sigma

    rng = random.Random(113)
    done = 0
    while done < 50:
        r = rng.choice([2, 3, 4])
        hg, _ = random_tree(rng, r, 8)
        cert = find_tree_ordering(hg)
        value, witness = sigma(hg)
        if value == float("inf") or value < 2:
            continue
        got = detach_limb(hg, cert, witness.vertices)
        assert verify_certificate(got.limb, got.limb_cert)[0]
        assert verify_certificate(got.rest, got.rest_cert)[0]
        assert got.rest.m >= 1
        assert all(got.w in e for e in got.limb.edges)
        assert all(got.w not in e for e in got.rest.edges)
        assert got.limb.m + got.rest.m == hg.m
        shared = got.limb.support() & got.rest.support()
        assert shared == set(got.limb_edge) & set(got.anchor_edge)
        done += 1


def test_host_tree_postconditions_random():
    from hgx import Hypergraph, host_tree

    rng = random.Random(127)
    done = 0
    while done < 50:
        r = rng.choice([3, 4])
        tree, _ = random_tree(rng, r, 7)
        cert = find_tree_ordering(tree)
        take = rng.randint(1, tree.m)
        sub = Hypergraph(tree.n, rng.sample(tree.edges, take), uniform_r=r)
        hosted, hosted_cert = host_tree(sub, tree, cert)
        assert verify_certificate(hosted, hosted_cert)[0]
        assert hosted.support() == sub.support()
        assert set(sub.edges) <= set(hosted.edges)
        done += 1


def test_host_tree_matches_folding_one_vertex_at_a_time():
    # host_tree folds every outside vertex in one substitution; the second
    # route recolours and compresses after each fold
    import json

    from hgx import host_tree

    rng = random.Random(139)
    several = 0
    for _ in range(1000):
        r = rng.choice([2, 3, 4])
        tree, _ = random_tree(rng, r, 8)
        edges = list(tree.edges)
        if rng.random() < 0.3:
            edges += rng.choices(edges, k=rng.randint(1, 3))
            rng.shuffle(edges)
        tree = Hypergraph(tree.n, edges, uniform_r=r, allow_multi=True)
        sub_edges = rng.sample(edges, rng.randint(1, len(edges)))
        if rng.random() < 0.3:
            sub_edges += rng.choices(sub_edges, k=rng.randint(1, 2))
        sub = Hypergraph(tree.n, sub_edges, uniform_r=r, allow_multi=True)
        cert = find_tree_ordering(tree)
        got, got_cert = host_tree(sub, tree, cert)
        want, want_cert = fold_one_at_a_time(sub, tree)
        assert got.edges == want.edges, (tree.edges, sub.edges)
        assert json.dumps(got_cert.to_json_obj()) == json.dumps(want_cert.to_json_obj())
        several += len(tree.support() - sub.support()) > 1
    assert several >= 500, several


def test_expansion_embed_random_instances():
    import itertools

    from hgx import Hypergraph, expansion_embed, gen_standard

    rng = random.Random(137)
    host = Hypergraph(
        12, list(itertools.combinations(range(12), 3)), uniform_r=3
    )
    host_sets = set(host.edge_sets)
    for _ in range(20):
        petals = rng.randint(1, 2)
        pattern = gen_standard("linear_star", p=petals, r=3)
        degree_one = set(range(1, pattern.n))
        hub_image = rng.randrange(12)
        amap = expansion_embed(pattern, degree_one, host, {0: hub_image})
        assert len(set(amap.values())) == pattern.n
        assert all(
            frozenset(amap[v] for v in e) in host_sets for e in pattern.edge_sets
        )


def test_greedy_all_starting_maps():
    import itertools

    from hgx import Hypergraph, greedy_tree_embed, min_shadow_degree

    host = Hypergraph(9, list(itertools.combinations(range(9), 3)), uniform_r=3)
    assert min_shadow_degree(host, 2) >= 5
    trees = [
        Hypergraph(5, [[0, 1, 2], [1, 2, 3], [2, 3, 4]], uniform_r=3),
        Hypergraph(7, [[0, 1, 2], [1, 2, 3], [1, 2, 4], [0, 1, 5], [0, 1, 6]], uniform_r=3),
    ]
    for tree in trees:
        cert = find_tree_ordering(tree, require_tight=True)
        assert cert is not None
        first = sorted(tree.edge_sets[cert.order[0]])
        for target in host.edges[:20]:
            for image in itertools.permutations(target):
                amap = greedy_tree_embed(tree, cert, host, dict(zip(first, image)))
                assert len(set(amap.values())) == len(tree.support())


def test_delete_crosscut_postconditions_random():
    from collections import Counter

    from hgx import Hypergraph, delete_crosscut, remove, sigma

    rng = random.Random(109)
    done = 0
    while done < 40:
        r = rng.choice([3, 4])
        tree, _ = random_tree(rng, r, 6)
        cert = find_tree_ordering(tree)
        take = rng.randint(1, tree.m)
        sub = Hypergraph(tree.n, rng.sample(tree.edges, take), uniform_r=r)
        value, witness = sigma(sub)
        if value == float("inf"):
            continue
        cut = witness.vertices
        deg = Counter(v for e in tree.edges for v in e)
        feasible = all(
            e & cut or any(deg[v] == 1 for v in e) for e in tree.edge_sets
        )
        if not feasible:
            continue
        hosted, hosted_cert = delete_crosscut(sub, tree, cert, cut)
        reduced = remove(sub, cut)
        assert verify_certificate(hosted, hosted_cert)[0]
        assert hosted.uniform_r == r - 1
        assert hosted.support() == reduced.support()
        assert set(reduced.edges) <= set(hosted.edges)
        done += 1


def test_search_depth_does_not_grow_with_the_input():
    # a recursive search takes a frame per placed or chosen vertex, far more than 50
    path, long_path = gen_standard("linear_path", m=40), gen_standard("linear_path", m=150)
    matching = gen_standard("matching", s=80, r=3)
    shuffled = shuffled_relabelled(random.Random(0), long_path)
    singletons = Hypergraph(2, [[0], [1]], uniform_r=1)
    with recursion_headroom(50):
        assert embed(path, path).found
        assert tau(matching)[0] == 80
        assert sigma(long_path)[0] == 75
        assert tau(shuffled)[0] == 75
        # the oracle's chain of ex(k) levels runs 199 deep, k = 200 down to 2
        result = turan_oracle(200, 1, singletons)
        assert (result.value, result.certified, result.nodes) == (1, True, 3)
