"""Tests of the benchmark's own checks and tracer.

Each check must pass a right answer and reject a wrong one: a value off
by one, a witness with a copy of the pattern added, a broken
certificate, a non-minimum cut, a bad embedding map.  Run with
``PYTHONPATH=src python -m pytest bench``.
"""

import itertools
import json
import random
import sys
from pathlib import Path

import pytest

import checks
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
import hgx  # noqa: E402
import hgx.cli  # noqa: E402,F401

M2 = workloads.PATTERNS["M2"][1]
STAR6 = [c for c in itertools.combinations(range(6), 3) if 0 in c]


def test_closed_forms_at_the_benchmark_sizes():
    assert [checks.ekr_m2(6), checks.ekr_m2(7)] == [10, 15]
    assert checks.mantel(7) == 12
    assert checks.erdos_gallai_2k2(9) == 8
    assert checks.frankl_l32(7) == 5
    assert checks.sts_packing(7) == 7  # the Fano plane
    assert [checks.sts_packing(n) for n in (5, 6, 9)] == [2, 4, 12]


def test_find_copy():
    assert checks.find_copy(M2, [(0, 1, 2), (3, 4, 5)]) is not None
    assert checks.find_copy(M2, STAR6) is None
    path = [(0, 1, 2), (1, 2, 3)]
    assert checks.find_copy(path, [(0, 1, 2), (1, 2, 3), (5, 6, 7)], anchor=(1, 2, 3)) is not None
    assert checks.find_copy(path, [(0, 1, 2), (1, 2, 3), (5, 6, 7)], anchor=(5, 6, 7)) is None


def test_oracle_check():
    assert checks.check_oracle(6, 3, "M2", M2, 10, STAR6, True) == []
    assert checks.check_oracle(6, 3, "M2", M2, 11, STAR6, True)  # off by one
    with_copy = STAR6 + [(3, 4, 5)]  # (0, 1, 2) and (3, 4, 5) are disjoint
    problems = checks.check_oracle(6, 3, "M2", M2, len(with_copy), with_copy, False)
    assert any("contains the pattern" in p for p in problems)
    assert checks.check_oracle(6, 3, "M2", M2, 9, STAR6[:9] + [(0, 1, 9)], False)  # vertex 9 >= n


def test_certificate_check():
    edges = [(0, 1, 2), (1, 2, 3), (2, 3, 4)]
    good = {"order": [0, 1, 2], "parent": {"1": 0, "2": 1}, "tight": True}
    assert checks.check_certificate(edges, good, 3) == []
    broken = {"order": [0, 1, 2], "parent": {"1": 0, "2": 0}, "tight": False}
    assert checks.check_certificate(edges, broken, 3)  # (2,3,4) meets {3} outside (0,1,2)
    assert checks.check_certificate(edges, {**good, "order": [0, 0, 2]}, 3)
    loose = [(0, 1, 2), (2, 3, 4)]
    assert checks.check_certificate(loose, {"order": [0, 1], "parent": {"1": 0}, "tight": True}, 3)


def test_brute_is_tree():
    assert checks.brute_is_tree([(0, 1, 2), (1, 2, 3), (2, 3, 4)])
    assert checks.brute_is_tree([(0, 1, 2), (3, 4, 5)])
    assert not checks.brute_is_tree([(0, 1, 3), (1, 2, 4), (2, 0, 5)])
    assert not checks.brute_is_tree([(0, 1, 2), (0, 1, 3), (2, 4, 5), (3, 4, 5)])


def _path_report():
    return {
        "tree": True,
        "tight": False,
        "tau": 2,
        "tau_witness": [1, 3],
        "sigma": 2,
        "sigma_witness": [1, 3],
        "partition": [[0, 2, 4], [1, 3], [5, 6, 7, 8]],
        "certificate": {"order": [0, 1, 2, 3], "parent": {"1": 0, "2": 1, "3": 2}, "tight": False},
    }


def test_analyze_check():
    item = {"edges": workloads._linear_path(4), "r": 3, "tree": None, "tight": False}
    assert checks.check_analyze(item, _path_report()) == []
    assert checks.check_analyze(item, {**_path_report(), "tree": False, "certificate": None})
    assert checks.check_analyze(item, {**_path_report(), "tau": 3, "tau_witness": [1, 3, 0]})
    # {1, 3, 8} meets every edge exactly once but is not a minimum cross-cut
    assert checks.is_crosscut(item["edges"], [0, 2, 8])
    assert checks.check_analyze(item, {**_path_report(), "sigma": 3, "sigma_witness": [0, 2, 8]})
    assert checks.check_analyze(item, {**_path_report(), "sigma_witness": [1, 2]})
    broken = {"order": [0, 2, 1, 3], "parent": {"1": 0, "2": 1, "3": 2}, "tight": False}
    assert checks.check_analyze(item, {**_path_report(), "certificate": broken})


def test_analyze_check_uses_built_values_for_large_non_trees():
    n, edges, facts = workloads._triangle_with_pendants(random.Random(3), 12)
    item = {"edges": edges, "r": 3, **facts}
    core_cut = max(range(3), key=lambda c: sum(c in e for e in edges))
    cut = [core_cut, 3 + (core_cut + 1) % 3] + [
        e[1] for e in edges[3:] if e[0] != core_cut
    ]
    report = {"tree": False, "tight": None, "certificate": None, "tau": 3, "tau_witness": [0, 1, 2],
              "sigma": len(cut), "sigma_witness": sorted(cut)}
    assert checks.check_analyze(item, report) == []
    assert checks.check_analyze(item, {**report, "sigma": len(cut) + 1})


def test_greedy_check():
    tree = [(0, 1, 2), (1, 2, 3)]
    host = [(5, 6, 7), (6, 7, 8), (1, 2, 3)]
    start = {0: 5, 1: 6, 2: 7}
    assert checks.check_greedy(tree, host, start, {**start, 3: 8}) == []
    assert checks.check_greedy(tree, host, start, {**start, 3: 5})  # not injective
    assert checks.check_greedy(tree, host, start, {**start, 3: 1})  # off the host
    assert checks.check_greedy(tree, host, start, {0: 6, 1: 5, 2: 7, 3: 8})  # ignores the start


def test_missing_and_shadow_checks():
    assert checks.uncovered_count([(0, 1, 2), (3, 4, 5), (0, 1, 6)], M2) == 0
    assert checks.uncovered_count([(0, 1, 2), (0, 1, 3), (0, 1, 4)], M2) == 3
    graph = [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
    assert checks.check_missing(6, 3, graph, M2, 3, 17, True) == []
    assert checks.check_missing(6, 3, graph, M2, 2, 17, True)
    host = workloads._construction(6, 1, "S")
    lhs, rhs = len(host), 6 * 15  # M3: p - r = 6; every pair lies in the star's shadow
    assert checks.check_tree_shadow(host, workloads.NAMED["M3"], 3, lhs, rhs, True) == []
    assert checks.check_tree_shadow(host, workloads.NAMED["M3"], 3, lhs + 1, rhs, True)


@pytest.mark.parametrize("workload, picks", [
    ("oracle", ["turan(6,3,M2)", "turan(9,2,2K2)"]),
    ("analyze", ["analyze(tight3-0)", "analyze(tree4-1)", "analyze(ex511)", "analyze(triangle+12)"]),
    ("verify", ["shadow54(M3,10,C)", "missing91(10,30,P)", "greedy(0)", "greedy(1068)"]),
])
def test_workload_answers_pass_their_checks(tmp_path, workload, picks):
    queries = {q.name: q for q in workloads.build(workload, hgx, 5, str(tmp_path))}
    for name in picks:
        assert queries[name].check(queries[name].run()) == [], name


def test_inputs_depend_only_on_the_seed(tmp_path):
    def inputs(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        workloads.build("analyze", hgx, seed, str(d))
        return [p.read_text() for p in sorted(d.iterdir())]

    assert inputs(1, "a") == inputs(1, "b") != inputs(2, "c")
    assert len(workloads.tight_trees()) == 1069


def test_tracer_wraps_every_binding_and_restores_it():
    original = hgx.core.shadow
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hgx.shadow is not original and hgx.core.shadow is hgx.extremal.shadow
        hg = hgx.Hypergraph(4, [[0, 1, 2], [1, 2, 3]], uniform_r=3)
        hgx.min_shadow_degree(hg, 2)
    finally:
        tracer.uninstall()
    assert hgx.shadow is original and hgx.core.shadow is original
    stats = tracer.stats
    assert stats["core.min_shadow_degree"].calls == 1 and stats["core.shadow"].calls == 1
    assert stats["core.Hypergraph"].calls >= 2  # the input and the shadow
    (msd,) = [s for s in tracer.spans if s[1] == "core.min_shadow_degree"]
    (sh,) = [s for s in tracer.spans if s[1] == "core.shadow"]
    assert sh[4] == msd[0] and msd[2] <= sh[2] <= sh[3] <= msd[3]
    assert stats["core.min_shadow_degree"].self_s <= msd[3] - msd[2] - (sh[3] - sh[2]) + 1e-9
    assert set(tracer.metrics(1, 0.0)) == {name for name, _ in tracing.PER_LAYER}


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "query_p50_ms", "peak_rss_mb"}
