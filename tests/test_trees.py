import gc
import itertools
import json
import random
import re
import time
from collections import Counter

import pytest

from helpers import (
    random_certificate_case,
    random_tree,
    reference_check,
    reference_verify_certificate,
)
from hgx import (
    Hypergraph,
    TreeCertificate,
    compress,
    delete_crosscut,
    detach_limb,
    expand,
    find_tree_ordering,
    gen_standard,
    greedy_tree_embed,
    host_tree,
    is_k_reducible,
    k_reduce,
    r_partition,
    remove_certified,
    subtree_at,
    tighten,
    trace_certified,
    verify_certificate,
)
from hgx import embedding, trees
from hgx.trees import _check


def edge_set(hg):
    return {tuple(e) for e in hg.edges}


# -- recognition -----------------------------------------------------------


def test_rooted_tight_recognition(t3):
    cert = find_tree_ordering(t3, root=0, require_tight=True)
    assert cert is not None
    assert cert.order == (0, 1, 2)
    assert cert.parent == {1: 0, 2: 1}
    assert cert.tight


def test_tight_flag_does_not_depend_on_declared_uniformity():
    # t3's edges with no declared r: recognition infers the edge size,
    # so plain and tight mode agree
    g = Hypergraph(5, [[0, 1, 2], [1, 2, 3], [2, 3, 4]])
    plain = find_tree_ordering(g)
    tight = find_tree_ordering(g, require_tight=True)
    assert plain.order == tight.order == (0, 1, 2)
    assert plain.parent == tight.parent == {1: 0, 2: 1}
    assert plain.tight and tight.tight
    mixed = Hypergraph(4, [[0, 1, 2], [2, 3]])
    assert not find_tree_ordering(mixed).tight
    assert find_tree_ordering(mixed, require_tight=True) is None


def test_c34_is_not_a_tree(c34):
    assert find_tree_ordering(c34) is None
    assert find_tree_ordering(c34, require_tight=True) is None


def test_matching_ordering(m2):
    cert = find_tree_ordering(m2)
    assert cert.order == (0, 1)
    assert cert.parent == {1: 0}
    assert not cert.tight


def test_empty_and_single_edge():
    empty = Hypergraph(3, [], uniform_r=3)
    cert = find_tree_ordering(empty)
    assert cert.order == ()
    single = Hypergraph(3, [[0, 1, 2]], uniform_r=3)
    cert = find_tree_ordering(single, require_tight=True)
    assert cert.order == (0,)
    assert verify_certificate(single, cert)[0]


def test_multi_edges_ordered_after_first_copy():
    g = Hypergraph(4, [[0, 1, 2], [1, 2, 3], [0, 1, 2]], allow_multi=True, uniform_r=3)
    cert = find_tree_ordering(g)
    assert cert is not None
    assert verify_certificate(g, cert)[0]
    assert cert.order.index(0) < cert.order.index(2)
    assert find_tree_ordering(g, require_tight=True) is None


def test_rooted_recognition_every_edge():
    g = Hypergraph(9, [[0, 1, 2], [1, 2, 3], [2, 3, 4], [0, 5, 6], [5, 7, 8]], uniform_r=3)
    for root in range(g.m):
        cert = find_tree_ordering(g, root=root)
        assert cert is not None
        assert cert.order[0] == root
        assert verify_certificate(g, cert)[0]


def test_fur_is_not_a_tree():
    from hgx import gen_standard

    assert find_tree_ordering(gen_standard("fur")) is None


def _triangle_with_pendants(pendants):
    """Linear triangle on core vertices 0, 1, 2 with pendant edges, each a
    core vertex (in turn) plus two fresh vertices.  Not a tree."""
    edges = [[0, 1, 3], [1, 2, 4], [0, 2, 5]]
    for k in range(pendants):
        edges.append([k % 3, 6 + 2 * k, 7 + 2 * k])
    return Hypergraph(6 + 2 * pendants, edges, uniform_r=3)


def test_triangle_with_many_pendants_is_rejected_fast():
    g = _triangle_with_pendants(40)
    assert find_tree_ordering(g) is None
    assert find_tree_ordering(g, root=0) is None
    assert find_tree_ordering(g, root=g.m - 1) is None


def _tight_star_with_loose_edge(k):
    """k triples on the pair 0, 1 plus an edge meeting them only in vertex
    0.  A tree, but not a tight one: the last edge adds two vertices."""
    n = k + 2
    edges = [[0, 1, 2 + i] for i in range(k)] + [[0, n, n + 1]]
    return Hypergraph(n + 2, edges, uniform_r=3)


def test_tight_star_with_loose_edge_is_rejected_fast():
    g = _tight_star_with_loose_edge(40)
    assert find_tree_ordering(g) is not None
    started = time.perf_counter()
    for root in (None, 0, g.m - 1):
        assert find_tree_ordering(g, root=root, require_tight=True) is None
    assert time.perf_counter() - started < 0.1


def test_rejection_leaves_no_cyclic_garbage():
    cases = [
        (_triangle_with_pendants(12), False),
        (_tight_star_with_loose_edge(12), True),
    ]
    for g, require_tight in cases:
        gc.collect()
        gc.disable()
        try:
            assert find_tree_ordering(g, require_tight=require_tight) is None
            assert gc.collect() == 0
        finally:
            gc.enable()


# -- verification -----------------------------------------------------------


def test_verify_accepts_valid(t3):
    cert = find_tree_ordering(t3)
    ok, report = verify_certificate(t3, cert)
    assert ok and report["valid"]
    for entry in report["positions"]:
        assert entry["holds"]
        assert all(entry["first_edge_ok"].values())
        assert all(entry["separation_ok"].values())


def test_verify_rejects_bad_parent_choice(t3):
    bad = TreeCertificate(order=(0, 2, 1), parent={1: 0, 2: 0})
    ok, report = verify_certificate(t3, bad)
    assert not ok
    assert [e["holds"] for e in report["positions"]] == [True, False]


def test_verify_rejects_malformed(t3):
    with pytest.raises(ValueError):
        verify_certificate(t3, TreeCertificate(order=(0, 1, 2), parent={1: 0, 2: 2}))
    with pytest.raises(ValueError):
        verify_certificate(t3, TreeCertificate(order=(0, 1), parent={1: 0}))


# The parent of the last edge misses vertex 3, which it shares with the
# edge before it.
BAD_T3 = TreeCertificate(order=(0, 1, 2), parent={1: 0, 2: 0})


def test_transforms_reject_invalid_certificate(t3):
    assert not verify_certificate(t3, BAD_T3)[0]
    with pytest.raises(ValueError, match="invalid tree certificate"):
        tighten(t3, BAD_T3)
    with pytest.raises(ValueError, match="invalid tree certificate"):
        r_partition(t3, BAD_T3)
    with pytest.raises(ValueError, match="invalid tree certificate"):
        compress(t3, BAD_T3, 1, 3, 0)
    with pytest.raises(ValueError, match="invalid tree certificate"):
        subtree_at(t3, BAD_T3, 2)
    with pytest.raises(ValueError, match="invalid tree certificate"):
        trace_certified(t3, BAD_T3, {1, 2, 3})
    with pytest.raises(ValueError, match="invalid tree certificate"):
        remove_certified(t3, BAD_T3, {2})
    with pytest.raises(ValueError, match="invalid tree certificate"):
        host_tree(t3, t3, BAD_T3)
    with pytest.raises(ValueError, match="invalid tree certificate"):
        detach_limb(t3, BAD_T3, {0, 3})
    with pytest.raises(ValueError, match="invalid tree certificate"):
        delete_crosscut(t3, t3, BAD_T3, {0, 3})


def test_each_certificate_is_checked_once_per_call(monkeypatch, t3, m2):
    # the input certificate once at the public boundary, and each
    # returned or recognised certificate once, when it is built
    calls = []

    def counted(hg, order, parent):
        calls.append(hg)
        return _check(hg, order, parent)

    def checks(fn, *args) -> int:
        calls.clear()
        fn(*args)
        return len(calls)

    cert, m2_cert = find_tree_ordering(t3), find_tree_ordering(m2)
    tight, tight_cert = tighten(m2, m2_cert)
    path = Hypergraph(4, [[0, 1, 2], [1, 2, 3]], uniform_r=3)
    single = Hypergraph(4, [[0, 1, 2]], uniform_r=3)
    host = Hypergraph(6, list(itertools.combinations(range(6), 3)), uniform_r=3)
    monkeypatch.setattr(trees, "_check", counted)
    monkeypatch.setattr(embedding, "_check", counted)
    assert checks(verify_certificate, t3, cert) == 0
    assert checks(find_tree_ordering, t3) == 1
    assert checks(r_partition, t3, cert) == 1
    assert checks(greedy_tree_embed, t3, cert, host, {0: 0, 1: 1, 2: 2}) == 1
    assert checks(trace_certified, t3, cert, {1, 2, 3}) == 2
    assert checks(remove_certified, t3, cert, {2}) == 2
    assert checks(subtree_at, t3, cert, 2) == 2
    assert checks(tighten, m2, m2_cert) == 2
    assert checks(compress, m2, m2_cert, 1, 3, 0) == 2
    assert checks(detach_limb, m2, m2_cert, {0, 3}) == 3
    assert checks(host_tree, t3, t3, cert) == 3  # nothing to fold
    assert checks(host_tree, single, path, find_tree_ordering(path)) == 3
    assert checks(delete_crosscut, m2, tight, tight_cert, {0, 3}) == 3


def test_greedy_embed_rejects_invalid_certificate(t3):
    from hgx import greedy_tree_embed

    host = Hypergraph(8, list(itertools.combinations(range(8), 3)), uniform_r=3)
    with pytest.raises(ValueError, match="invalid tree certificate"):
        greedy_tree_embed(t3, BAD_T3, host, {0: 0, 1: 1, 2: 2})
    # Validity comes before tightness.  On this loose path the second edge
    # meets its parent in one vertex, not r - 1 = 2; with the third edge's
    # parent moved to the first edge, the certificate is invalid as well.
    path = Hypergraph(7, [[0, 1, 2], [2, 3, 4], [4, 5, 6]], uniform_r=3)
    with pytest.raises(ValueError, match="requires a tight certificate"):
        greedy_tree_embed(path, TreeCertificate((0, 1, 2), {1: 0, 2: 1}), host, {0: 0, 1: 1, 2: 2})
    with pytest.raises(ValueError, match="invalid tree certificate"):
        greedy_tree_embed(path, TreeCertificate((0, 1, 2), {1: 0, 2: 0}), host, {0: 0, 1: 1, 2: 2})


def test_certificate_json_round_trip(t3):
    cert = find_tree_ordering(t3)
    blob = json.dumps(cert.to_json_obj())
    again = TreeCertificate.from_json_obj(json.loads(blob))
    assert again == cert


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"order": [0], "parent": [], "tight": False}, "field 'parent'"),
        ({"order": [0, 1], "parent": {"1": 0}, "tight": "false"}, "field 'tight'"),
        ({"order": "01", "parent": {"1": 0}, "tight": False}, "field 'order'"),
        ({"order": 2, "parent": {"1": 0}, "tight": False}, "field 'order'"),
        ({"order": [0, True], "parent": {"1": 0}, "tight": False}, "field 'order'"),
        ({"order": [0, 1.0], "parent": {"1": 0}, "tight": False}, "field 'order'"),
        ({"order": [0, 1], "parent": {"one": 0}, "tight": False}, "field 'parent'"),
        ({"order": [0, 1], "parent": {"1": "0"}, "tight": False}, "field 'parent'"),
        ({"order": [0, 1], "parent": {"1": False}, "tight": False}, "field 'parent'"),
        ({"order": [0, 1], "parent": {"1": 0}, "tight": 0}, "field 'tight'"),
        ({"order": [0, 1], "parent": {"1": 0}}, "malformed certificate JSON"),
        ([0, 1], "malformed certificate JSON"),
    ],
)
def test_certificate_json_rejects_malformed(obj, message):
    with pytest.raises(ValueError, match=message):
        TreeCertificate.from_json_obj(obj)


def test_certificate_check_matches_the_two_pass_reference():
    def outcome(check, hg, cert):
        try:
            return check(hg, cert)
        except ValueError as exc:
            return str(exc)

    rng = random.Random(23)
    seen = Counter()
    for _ in range(3000):
        hg, cert = random_certificate_case(rng)
        got = outcome(lambda h, c: _check(h, c.order, c.parent), hg, cert)
        assert got == outcome(reference_check, hg, cert), cert
        assert outcome(verify_certificate, hg, cert) == outcome(
            reference_verify_certificate, hg, cert
        ), cert
        found = find_tree_ordering(hg)
        if found is not None:
            assert found.tight == reference_check(hg, found)
        seen[got if isinstance(got, bool) else re.sub(r"\d+", "i", got)] += 1
    # every outcome, shape errors included, comes up many times
    assert len(seen) == 6 and min(seen.values()) >= 100, seen


def test_certificate_report_on_a_long_path_matches_the_reference():
    # every position has fresh and parent-only vertices, so every report
    # has separation pairs to answer
    hg = gen_standard("linear_path", m=400)
    cert = find_tree_ordering(hg)
    report = verify_certificate(hg, cert)
    assert report == reference_verify_certificate(hg, cert)
    assert sum(len(p["separation_ok"]) for p in report[1]["positions"]) >= 399


def test_linear_extensions_stay_valid():
    rng = random.Random(53)
    for _ in range(40):
        hg, cert = random_tree(rng, rng.choice([2, 3, 4]), 8)
        order = list(cert.order)
        parent = dict(cert.parent)
        # random linear extension of the parent partial order
        placed: list[int] = []
        ready = [0]
        while ready:
            pos = rng.choice(ready)
            ready.remove(pos)
            placed.append(pos)
            ready.extend(i for i, p in parent.items() if p == pos)
        new_order = tuple(order[p] for p in placed)
        new_parent = {
            placed.index(i): placed.index(parent[i]) for i in parent
        }
        shuffled = TreeCertificate(new_order, new_parent)
        assert verify_certificate(hg, shuffled)[0]


# -- tighten ------------------------------------------------------------------


def test_tighten_matching(m2):
    cert = find_tree_ordering(m2)
    tight, tight_cert = tighten(m2, cert)
    assert tight_cert.tight
    assert verify_certificate(tight, tight_cert)[0]
    assert edge_set(m2) <= edge_set(tight)
    assert tight.support() == m2.support()
    assert tight.edges[tight_cert.order[0]] == m2.edges[cert.order[0]]


def test_tighten_already_tight(t3):
    cert = find_tree_ordering(t3, require_tight=True)
    tight, tight_cert = tighten(t3, cert)
    assert tight == t3
    assert tight_cert.tight


def test_tighten_edgeless_tree_is_its_input():
    empty = Hypergraph(3, [], uniform_r=3)
    cert = find_tree_ordering(empty)
    assert tighten(empty, cert) == (empty, cert)


def test_tighten_l32(l32):
    tight, tight_cert = tighten(l32, find_tree_ordering(l32))
    assert tight_cert.tight
    assert edge_set(l32) <= edge_set(tight)
    assert tight.support() == l32.support()
    assert tight.m <= 3


# -- partitions ----------------------------------------------------------------


def test_partition_t3(t3):
    cert = find_tree_ordering(t3)
    classes = r_partition(t3, cert)
    assert set(classes) == {frozenset({0, 3}), frozenset({1, 4}), frozenset({2})}


def test_partition_matching(m2):
    classes = r_partition(m2, find_tree_ordering(m2))
    for e in m2.edge_sets:
        assert all(len(e & c) == 1 for c in classes)


def test_partition_single_edge():
    g = Hypergraph(3, [[0, 1, 2]], uniform_r=3)
    classes = r_partition(g, find_tree_ordering(g))
    assert classes == [frozenset({0}), frozenset({1}), frozenset({2})]


def test_tight_partition_unique():
    rng = random.Random(59)
    for _ in range(30):
        hg, cert = random_tree(rng, 3, 7, tight=True)
        base = set(map(frozenset, r_partition(hg, cert)))
        other = find_tree_ordering(hg, require_tight=True)
        assert other is not None
        again = set(map(frozenset, r_partition(hg, other)))
        assert base == again


# -- compression ------------------------------------------------------------------


def test_compress_t3(t3):
    cert = find_tree_ordering(t3, root=0, require_tight=True)
    out, out_cert = compress(t3, cert, 2, 4, 1)
    assert out.edges == ((0, 1, 2), (1, 2, 3), (1, 2, 3))
    assert verify_certificate(out, out_cert)[0]


def test_compress_duplicates_retained():
    g = Hypergraph(4, [[0, 1, 2], [1, 2, 3]], uniform_r=3)
    cert = find_tree_ordering(g)
    out, out_cert = compress(g, cert, 1, 3, 0)
    assert out.edges == ((0, 1, 2), (0, 1, 2))
    assert out.allow_multi
    assert verify_certificate(out, out_cert)[0]


def test_compress_preserves_untouched_edges(m2):
    cert = find_tree_ordering(m2)
    out, _ = compress(m2, cert, 1, 3, 0)
    assert out.edges[0] == m2.edges[0]


def test_compress_rejects_bad_vertices(t3):
    cert = find_tree_ordering(t3)
    with pytest.raises(ValueError):
        compress(t3, cert, 2, 0, 1)  # 0 is not in the edge at position 2
    with pytest.raises(ValueError):
        compress(t3, cert, 2, 4, 3)  # 3 lies in both edges


# -- hosting -------------------------------------------------------------------


def test_host_tree_identity(t3):
    cert = find_tree_ordering(t3)
    out, _ = host_tree(t3, t3, cert)
    assert out == t3


def test_host_tree_single_edge_in_path():
    path = Hypergraph(4, [[0, 1, 2], [1, 2, 3]], uniform_r=3)
    single = Hypergraph(4, [[0, 1, 2]], uniform_r=3)
    out, out_cert = host_tree(single, path, find_tree_ordering(path))
    assert edge_set(out) == {(0, 1, 2)}
    assert verify_certificate(out, out_cert)[0]


def test_host_tree_c34(c34):
    tree = Hypergraph(8, list(c34.edges) + [[0, 1, 2], [0, 2, 3]], uniform_r=3)
    cert = find_tree_ordering(tree)
    assert cert is not None
    hosted, hosted_cert = host_tree(c34, tree, cert)
    assert edge_set(c34) <= edge_set(hosted)
    assert hosted.support() == c34.support()
    assert verify_certificate(hosted, hosted_cert)[0]


def test_host_tree_rejects_non_subgraph(t3, m2):
    with pytest.raises(ValueError):
        host_tree(m2, t3, find_tree_ordering(t3))


# -- subtrees and limbs ------------------------------------------------------------


def test_subtree_at_center(t3):
    cert = find_tree_ordering(t3, root=0, require_tight=True)
    sub, sub_cert = subtree_at(t3, cert, 2)
    assert edge_set(sub) == edge_set(t3)
    assert verify_certificate(sub, sub_cert)[0]


def test_subtree_at_leaf(t3):
    sub, _ = subtree_at(t3, find_tree_ordering(t3), 0)
    assert edge_set(sub) == {(0, 1, 2)}


def test_subtree_at_star_center(l33):
    sub, _ = subtree_at(l33, find_tree_ordering(l33), 0)
    assert edge_set(sub) == edge_set(l33)


def test_detach_limb_matching(m2):
    got = detach_limb(m2, find_tree_ordering(m2), {0, 3})
    assert got.w == 3
    assert edge_set(got.limb) == {(3, 4, 5)}
    assert edge_set(got.rest) == {(0, 1, 2)}
    assert set(got.limb_edge) & set(got.anchor_edge) == set()


def test_detach_limb_path():
    g = Hypergraph(5, [[0, 1, 2], [2, 3, 4]], uniform_r=3)
    got = detach_limb(g, find_tree_ordering(g), {1, 3})
    assert got.w == 3
    assert edge_set(got.limb) == {(2, 3, 4)}
    assert edge_set(got.rest) == {(0, 1, 2)}
    assert got.limb.support() & got.rest.support() == {2}
    assert set(got.limb_edge) & set(got.anchor_edge) == {2}


def test_detach_limb_rejects_small_cut(m2):
    with pytest.raises(ValueError):
        detach_limb(m2, find_tree_ordering(m2), {0})
    with pytest.raises(ValueError):
        detach_limb(m2, find_tree_ordering(m2), {0, 1})  # not a cross-cut


# -- traces -------------------------------------------------------------------------


def test_trace_certified(t3):
    cert = find_tree_ordering(t3)
    traced, traced_cert = trace_certified(t3, cert, {1, 2, 3})
    assert edge_set(traced) == {(1, 2), (1, 2, 3), (2, 3)}
    assert verify_certificate(traced, traced_cert)[0]
    removed, removed_cert = remove_certified(t3, cert, {2})
    assert edge_set(removed) == {(0, 1), (1, 3), (3, 4)}
    assert verify_certificate(removed, removed_cert)[0]


# -- cross-cut deletion ----------------------------------------------------------------


def test_delete_crosscut_matching(m2):
    tree, cert = tighten(m2, find_tree_ordering(m2))
    out, out_cert = delete_crosscut(m2, tree, cert, {0, 3})
    assert out.uniform_r == 2
    assert {(1, 2), (4, 5)} <= edge_set(out)
    assert out.support() == {1, 2, 4, 5}
    assert verify_certificate(out, out_cert)[0]


def test_delete_crosscut_needs_degree_one(c34):
    tree = Hypergraph(8, list(c34.edges) + [[0, 1, 2], [0, 2, 3]], uniform_r=3)
    cert = find_tree_ordering(tree)
    with pytest.raises(ValueError):
        delete_crosscut(c34, tree, cert, {4, 5, 6, 7})


def test_delete_crosscut_single_edge():
    g = Hypergraph(3, [[0, 1, 2]], uniform_r=3)
    out, _ = delete_crosscut(g, g, find_tree_ordering(g), {0})
    assert edge_set(out) == {(1, 2)}


def test_delete_crosscut_empty_remainder_is_tight():
    # an edgeless remainder gets the certificate recognition gives it
    g = Hypergraph(2, [[0], [1]], uniform_r=1)
    out, cert = delete_crosscut(g, g, find_tree_ordering(g), {0, 1})
    assert out.m == 0
    assert cert == find_tree_ordering(out)
    assert cert.tight


# -- reductions -----------------------------------------------------------------------


def test_is_k_reducible(t3, c34, m2):
    assert not is_k_reducible(t3, 1)
    assert is_k_reducible(c34, 1)
    assert not is_k_reducible(c34, 2)
    assert is_k_reducible(m2, 1)
    assert is_k_reducible(m2, 2)


def test_k_reduce_matching(m2):
    exp = k_reduce(m2, 2)
    assert edge_set(exp.base) == {(2,), (5,)}
    assert exp.multiplicity == {(2,): 1, (5,): 1}
    assert exp.deleted == ((0, 1), (3, 4))


def test_k_reduce_star_multiplicity(l33):
    exp = k_reduce(l33, 2)
    assert edge_set(exp.base) == {(0,)}
    assert exp.multiplicity == {(0,): 3}


def test_k_reduce_rejects_irreducible(t3):
    with pytest.raises(ValueError):
        k_reduce(t3, 1)


def _expansion_isomorphic(original, exp, rebuilt):
    # map each original edge's deleted vertices onto the fresh vertices of
    # the matching rebuilt edge; kept vertices map to themselves
    base_r = exp.base.uniform_r
    kept_of_rebuilt = {}
    for e in rebuilt.edges:
        kept = tuple(v for v in e if v < exp.base.n)
        kept_of_rebuilt.setdefault(kept, []).append(e)
    mapping = {}
    for e, gone in zip(original.edges, exp.deleted):
        kept = tuple(v for v in e if v not in gone)
        candidates = kept_of_rebuilt[kept]
        partner = candidates.pop()
        fresh = [v for v in partner if v >= exp.base.n]
        for a, b in zip(gone, fresh):
            mapping[a] = b
        for v in kept:
            mapping.setdefault(v, v)
    image = {tuple(sorted(mapping[v] for v in e)) for e in original.edges}
    return image == set(rebuilt.edges) and len(set(mapping.values())) == len(mapping)


def test_expand_round_trip(m2, l33):
    rng = random.Random(61)
    cases = [(m2, 2), (m2, 1), (l33, 2), (l33, 1)]
    for _ in range(10):
        hg, _ = random_tree(rng, 4, 5)
        if is_k_reducible(hg, 2):
            cases.append((hg, 2))
    for hg, k in cases:
        exp = k_reduce(hg, k)
        rebuilt = expand(exp)
        assert rebuilt.m == hg.m
        assert _expansion_isomorphic(hg, exp, rebuilt)
