import json
import random
import subprocess
import sys
import time

import pytest

from hgx import Hypergraph, find_tree_ordering, gen_standard
from hgx.cli import main


def write(tmp_path, name, hg):
    path = tmp_path / name
    path.write_text(json.dumps(hg.to_json_obj()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_t3(tmp_path, capsys, t3):
    path = write(tmp_path, "t3.json", t3)
    code, out, _ = run(capsys, "analyze", path, "--certify")
    assert code == 0
    report = json.loads(out)
    res = report["results"]
    assert res["tree"] and res["tight"]
    assert res["tau"] == 1 and res["tau_witness"] == [2]
    assert res["sigma"] == 1 and res["sigma_witness"] == [2]
    assert res["certificate"]["order"] == [0, 1, 2]
    assert res["reducibility"] == 0
    assert sorted(map(sorted, res["partition"])) == [[0, 3], [1, 4], [2]]


def test_analyze_certifies_a_tight_tree_with_its_plain_certificate(tmp_path, capsys):
    # a shuffled tight 3-tree: the certificate is the one plain recognition
    # gives, whose last edge hangs off its third, not its second
    hg = Hypergraph(6, [[0, 1, 4], [0, 2, 3], [0, 2, 5], [0, 1, 2]], uniform_r=3)
    path = write(tmp_path, "tight.json", hg)
    code, out, _ = run(capsys, "analyze", path, "--certify")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["tight"] is True
    assert res["certificate"] == find_tree_ordering(hg).to_json_obj()
    assert res["certificate"]["parent"] == {"1": 0, "2": 1, "3": 2}


def test_analyze_c34(tmp_path, capsys, c34):
    path = write(tmp_path, "c34.json", c34)
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    res = json.loads(out)["results"]
    assert res["tree"] is False and res["tight"] is None
    assert res["sigma"] == 2 and res["tau"] == 2
    assert res["reducibility"] == 1
    assert res["partition"] is None


def test_analyze_ex511(tmp_path, capsys, ex511):
    path = write(tmp_path, "ex511.json", ex511)
    code, out, _ = run(capsys, "analyze", path)
    res = json.loads(out)["results"]
    assert code == 0
    assert res["sigma"] == 2 and res["sigma_witness"] == [1, 2]


def test_analyze_large_matching_is_fast(tmp_path, capsys):
    # 3^12 minimum cross-cuts; sigma must find the lex-least without listing them
    path = write(tmp_path, "m12.json", gen_standard("matching", s=12, r=3))
    started = time.perf_counter()
    code, out, _ = run(capsys, "analyze", path)
    assert time.perf_counter() - started < 1.0
    res = json.loads(out)["results"]
    assert code == 0
    assert res["sigma"] == 12 and res["sigma_witness"] == list(range(0, 36, 3))
    assert res["tau"] == 12


def test_analyze_reports_are_deterministic(tmp_path, capsys, c34):
    path = write(tmp_path, "c34.json", c34)
    _, out1, _ = run(capsys, "analyze", path)
    _, out2, _ = run(capsys, "analyze", path)
    a, b = json.loads(out1), json.loads(out2)
    a.pop("timing_s"), b.pop("timing_s")
    assert a == b


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "edges": [[0, 7]]}')
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert out == "" and "error" in err


def test_string_multi_flag_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "multi": "false", "edges": [[0, 1], [0, 1]]}')
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert out == "" and err == "error: field 'multi' must be a boolean\n"


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    # a bare nested list, and one nested inside an edge
    nested = "[" * 100_000 + "]" * 100_000
    for name, text in [("deep.json", nested), ("edge.json", '{"n": 3, "edges": [' + nested + "]}")]:
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_construct_round_trip(capsys):
    code, out, _ = run(capsys, "construct", "--family", "linear_cycle", "--params", "m=4,r=3")
    assert code == 0
    parsed = Hypergraph.from_json_obj(json.loads(out))
    assert parsed == gen_standard("linear_cycle", m=4, r=3)


def test_construct_gen_s(capsys):
    code, out, _ = run(capsys, "construct", "--family", "S", "--params", "n=6,r=3,t=2")
    assert code == 0
    assert len(json.loads(out)["edges"]) == 16


def test_construct_unknown_family(capsys):
    code, _, err = run(capsys, "construct", "--family", "mystery")
    assert code == 2 and "error" in err


@pytest.mark.parametrize(
    "family, params", [("S", "n=5,r=3"), ("C", "n=5,r=3,q=1")]
)
def test_construct_bad_parameters_usage_error(capsys, family, params):
    code, out, err = run(capsys, "construct", "--family", family, "--params", params)
    assert code == 2 and out == ""
    assert err.startswith("error: bad parameters") and err.count("\n") == 1


def test_construct_parameter_without_value(capsys):
    code, out, err = run(capsys, "construct", "--family", "S", "--params", "n")
    assert code == 2 and out == ""
    assert err == "error: malformed parameter 'n'; expected key=value\n"


def test_shadow_command(tmp_path, capsys, t3):
    path = write(tmp_path, "t3.json", t3)
    code, out, _ = run(capsys, "shadow", path, "-p", "2")
    assert code == 0
    parsed = Hypergraph.from_json_obj(json.loads(out))
    assert parsed.m == 7


def test_sigma_tau_commands(tmp_path, capsys, m2):
    path = write(tmp_path, "m2.json", m2)
    code, out, _ = run(capsys, "sigma", path)
    assert code == 0 and json.loads(out)["results"]["value"] == 2
    code, out, _ = run(capsys, "tau", path)
    assert code == 0 and json.loads(out)["results"]["value"] == 2


def test_sigma_infinite(tmp_path, capsys, triangle):
    path = write(tmp_path, "triangle.json", triangle)
    code, out, _ = run(capsys, "sigma", path)
    res = json.loads(out)["results"]
    assert code == 0 and res["value"] is None and res["witness"] is None


def test_embed_command(tmp_path, capsys, m2, k35):
    h = write(tmp_path, "m2.json", m2)
    f = write(
        tmp_path,
        "k36.json",
        Hypergraph(6, [list(c) for c in __import__("itertools").combinations(range(6), 3)], uniform_r=3),
    )
    code, out, _ = run(capsys, "embed", h, f)
    res = json.loads(out)["results"]
    assert code == 0 and res["status"] == "found"
    assert len(res["map"]) == 6


def test_embed_deep_matching_into_itself(tmp_path, capsys):
    # the disjoint packing picks all 1,200 edges without one frame per pick
    path = write(tmp_path, "m1200.json", gen_standard("matching", s=1200, r=3))
    code, out, _ = run(capsys, "embed", path, path)
    res = json.loads(out)["results"]
    assert code == 0 and res["status"] == "found"
    assert res["map"] == {str(v): v for v in range(3600)} and res["nodes"] == 1201


def test_embed_budget_status(tmp_path, capsys, c34):
    from hgx import gen_C

    h = write(tmp_path, "c34.json", c34)
    f = write(tmp_path, "star.json", gen_C(10, 3, 1))
    code, out, _ = run(capsys, "--budget", "3", "embed", h, f)
    assert code == 0
    assert json.loads(out)["results"]["status"] == "budget"


def test_turan_command(tmp_path, capsys, triangle):
    path = write(tmp_path, "k3.json", triangle)
    code, out, _ = run(capsys, "turan", "-n", "5", "-r", "2", "--forbid", path)
    res = json.loads(out)["results"]
    assert code == 0 and res["value"] == 6 and res["certified"]
    witness = Hypergraph.from_json_obj(res["witness"])
    assert witness.m == 6


def test_turan_budget_on_a_deep_universe(tmp_path, capsys, m2):
    path = write(tmp_path, "m2.json", m2)
    code, out, err = run(
        capsys, "--budget", "1000", "turan", "-n", "21", "-r", "3", "--forbid", path
    )
    res = json.loads(out)["results"]
    assert code == 0 and err == ""
    assert res["certified"] is False and res["value"] == 190


def test_verify_kk(tmp_path, capsys, k35):
    path = write(tmp_path, "k35.json", k35)
    code, out, _ = run(capsys, "verify", "--prop", "kk", path, "-p", "2")
    assert code == 0
    assert json.loads(out)["results"]["holds"]


def test_verify_constructions(tmp_path, capsys, c34):
    path = write(tmp_path, "c34.json", c34)
    code, out, _ = run(capsys, "verify", "--prop", "3.2", path, "-n", "10")
    assert code == 0 and json.loads(out)["results"]["holds"]
    code, out, _ = run(capsys, "verify", "--prop", "3.1", path, "-n", "10")
    assert code == 0 and json.loads(out)["results"]["holds"]


def test_verify_computes_each_value_once(tmp_path, capsys, monkeypatch, c34, k35):
    from hgx import core, extremal

    calls = {"tau": 0, "sigma": 0, "shadow": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(extremal, "tau")
    counted(extremal, "sigma")
    counted(core, "shadow")
    c34_path = write(tmp_path, "c34.json", c34)
    k35_path = write(tmp_path, "k35.json", k35)
    assert run(capsys, "verify", "--prop", "3.1", c34_path, "-n", "10")[0] == 0
    assert run(capsys, "verify", "--prop", "3.2", c34_path, "-n", "10")[0] == 0
    code, out, _ = run(capsys, "verify", "--prop", "kk", k35_path, "-p", "2")
    assert code == 0 and json.loads(out)["results"]["shadow"] == 10
    assert calls == {"tau": 1, "sigma": 1, "shadow": 1}


def test_verify_tree_shadow_rejects_non_tree(tmp_path, capsys, c34):
    host = write(tmp_path, "host.json", Hypergraph(8, [], uniform_r=3))
    pattern = write(tmp_path, "c34.json", c34)
    code, _, err = run(capsys, "verify", "--prop", "5.4", host, pattern)
    assert code == 2 and "error" in err


def test_verify_tree_shadow_report(tmp_path, capsys):
    # K_4^(3) holds no linear 2-path: any two of its triples share two vertices
    k43 = Hypergraph(4, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]], uniform_r=3)
    host = write(tmp_path, "k43.json", k43)
    tree = write(tmp_path, "p2.json", gen_standard("linear_path", m=2, r=3))
    code, out, err = run(capsys, "verify", "--prop", "5.4", host, tree)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["command"] == "verify 5.4"
    assert sorted(report["inputs"]) == sorted([host, tree])
    assert report["results"] == {"lhs": 4, "rhs": 12, "holds": True}


@pytest.mark.parametrize(
    "prop, argv, message",
    [
        ("kk", ["-n", "5"], "verify kk needs FILE and -p"),
        ("3.1", ["-p", "2"], "verify 3.1 needs H-FILE and -n"),
        ("3.2", [], "verify 3.2 needs H-FILE and -n"),
        ("5.4", [], "verify 5.4 needs F-FILE and H-FILE"),
        ("9.1", [], "verify 9.1 needs G-FILE and M-FILE"),
    ],
)
def test_verify_usage_messages(tmp_path, capsys, prop, argv, message):
    # the usage check comes before the (missing) file is read
    missing = str(tmp_path / "missing.json")
    code, out, err = run(capsys, "verify", "--prop", prop, missing, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_verify_missing_vs_nonm(tmp_path, capsys, m2):
    import itertools

    k6 = Hypergraph(6, [list(c) for c in itertools.combinations(range(6), 3)], uniform_r=3)
    g = write(tmp_path, "g.json", k6)
    m = write(tmp_path, "m2.json", m2)
    code, out, _ = run(capsys, "verify", "--prop", "9.1", g, m)
    assert code == 0 and json.loads(out)["results"]["holds"]


def test_verify_budget_exhausted_is_usage_error(tmp_path, capsys, c34):
    import random

    from helpers import random_hypergraph

    g = write(tmp_path, "g.json", random_hypergraph(random.Random(0), 9, 3, 20))
    m = write(tmp_path, "c34.json", c34)
    code, out, err = run(capsys, "--budget", "10", "verify", "--prop", "9.1", g, m)
    assert code == 2 and out == ""
    assert err == "error: search budget of 10 nodes exhausted\n"


def test_verify_budget_bounds_the_whole_check(tmp_path, capsys, c34):
    # the 20 anchored checks take at most 24 nodes each and 174 together
    import random

    from helpers import random_hypergraph

    g = write(tmp_path, "g.json", random_hypergraph(random.Random(0), 9, 3, 20))
    m = write(tmp_path, "c34.json", c34)
    code, out, err = run(capsys, "--budget", "100", "verify", "--prop", "9.1", g, m)
    assert code == 2 and out == ""
    assert err == "error: search budget of 100 nodes exhausted\n"
    code, out, _ = run(capsys, "--budget", "174", "verify", "--prop", "9.1", g, m)
    assert code == 0 and json.loads(out)["results"]["uncovered"] == 1


@pytest.mark.parametrize("command", ["embed", "turan"])
def test_negative_budget_is_a_usage_error(tmp_path, capsys, c34, command):
    from hgx import gen_C

    h = write(tmp_path, "c34.json", c34)
    f = write(tmp_path, "star.json", gen_C(10, 3, 1))
    argv = {"embed": ["embed", h, f], "turan": ["turan", "-n", "6", "-r", "3", "--forbid", h]}
    with pytest.raises(SystemExit) as exc:
        main(["--budget", "-5", *argv[command]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--budget: must be non-negative" in captured.err


def test_table_rendering(tmp_path, capsys, t3):
    path = write(tmp_path, "t3.json", t3)
    code, out, _ = run(capsys, "--table", "tau", path)
    assert code == 0
    assert "results.value = 1" in out


def test_table_analyze_certify(tmp_path, capsys, t3):
    path = write(tmp_path, "t3.json", t3)
    code, out, _ = run(capsys, "--table", "analyze", path, "--certify")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == 'command = "analyze"'
    assert lines[1].startswith(f"inputs.{path} = ")
    assert lines[2:-1] == [
        "results.certificate.order = [0, 1, 2]",
        "results.certificate.parent.1 = 0",
        "results.certificate.parent.2 = 1",
        "results.certificate.tight = true",
        "results.edge_count = 3",
        "results.multi = false",
        "results.n = 5",
        "results.partition = [[0, 3], [1, 4], [2]]",
        "results.r = 3",
        "results.reducibility = 0",
        "results.sigma = 1",
        "results.sigma_witness = [2]",
        "results.tau = 1",
        "results.tau_witness = [2]",
        "results.tight = true",
        "results.tree = true",
    ]
    assert lines[-1].startswith("timing_s = ")


def test_seed_flag_is_gone(tmp_path, t3):
    path = write(tmp_path, "t3.json", t3)
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "0", "tau", path])
    assert exc.value.code == 2


def test_console_script_runs(tmp_path, t3):
    path = write(tmp_path, "t3.json", t3)
    proc = subprocess.run(
        [sys.executable, "-m", "hgx.cli", "tau", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["value"] == 1


def test_missing_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_env_budget_has_no_effect(tmp_path, capsys, c34, monkeypatch):
    # --budget is the only budget knob; HG_BUDGET is not read
    from hgx import gen_C

    h = write(tmp_path, "c34.json", c34)
    f = write(tmp_path, "star.json", gen_C(10, 3, 1))
    monkeypatch.setenv("HG_BUDGET", "3")
    code, out, _ = run(capsys, "embed", h, f)
    assert code == 0
    assert json.loads(out)["results"]["status"] == "none"
    code, out, _ = run(capsys, "--budget", "3", "embed", h, f)
    assert json.loads(out)["results"]["status"] == "budget"


def _mutate(rng, text):
    """One malformed variant of a hypergraph JSON text: a truncation, a
    type swap, a byte edit or deep nesting."""
    swaps = ["x", 1.5, None, True, {}, [], [[]], -1, 0, 3, [0, "a"], [[0, 1, 1]], [[7]]]
    kind = rng.randrange(4)
    if kind == 0:
        return text[: rng.randrange(len(text))]
    if kind == 1:
        obj = json.loads(text)
        key = rng.choice(["n", "edges", "r", "multi", "edge", "vertex", "root"])
        if key == "root":
            return json.dumps(rng.choice(swaps))
        if key in ("edge", "vertex"):
            edges = obj["edges"]
            i = rng.randrange(len(edges))
            if key == "vertex":
                edges, i = edges[i], rng.randrange(len(edges[i]))
            edges[i] = rng.choice(swaps)
        else:
            obj[key] = rng.choice(swaps)
        return json.dumps(obj)
    if kind == 2:
        i = rng.randrange(len(text))
        digit = text[i].isdigit() and rng.random() < 0.5
        chars = "0123456789" if digit else '0123456789[]{},:" -.a'
        return text[:i] + rng.choice(chars) + text[i + 1 :]
    depth = rng.choice([50, 5000, 100_000])
    nested = "[" * depth + "]" * depth
    return rng.choice([nested, '{"n": 3, "edges": [' + nested + "]}"])


def test_cli_fuzz_never_escapes_main(tmp_path, capsys, t3, m2, c34, triangle):
    # malformed input ends in exit 2 with one error line, never a traceback
    rng = random.Random(2024)
    bases = [t3, m2, c34, triangle, gen_standard("linear_path", m=2, r=3)]
    good, bad = str(tmp_path / "good.json"), str(tmp_path / "bad.json")
    commands = [
        ["analyze", bad, "--certify"],
        ["tau", bad],
        ["sigma", bad],
        ["embed", bad, good],
        ["embed", good, bad],
        ["turan", "-n", "6", "-r", "3", "--forbid", bad],
        ["verify", "--prop", "kk", bad, "-p", "2"],
        ["verify", "--prop", "3.1", bad, "-n", "7"],
        ["verify", "--prop", "3.2", bad, "-n", "7"],
        ["verify", "--prop", "5.4", good, bad],
        ["verify", "--prop", "9.1", bad, good],
    ]
    codes = set()
    for _ in range(500):
        text = json.dumps(rng.choice(bases).to_json_obj())
        (tmp_path / "good.json").write_text(text)
        (tmp_path / "bad.json").write_text(_mutate(rng, text))
        table = ["--table"] if rng.random() < 0.2 else []
        code, _, err = run(capsys, "--budget", "2000", *table, *rng.choice(commands))
        codes.add(code)
        assert code in (0, 1, 2)
        assert err == "" or (err.startswith("error: ") and err.count("\n") == 1)
        assert err.endswith("\n") or not err
    assert {0, 2} <= codes
