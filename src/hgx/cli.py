"""Batch command-line front end.

Loads hypergraph JSON, dispatches to the library, and prints a single
deterministic JSON report on stdout (tables via ``--table``); stderr
carries diagnostics.  Exit codes: 0 success/pass, 1 verification
failure, 2 usage or input errors or an exhausted search budget.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from typing import Optional

from . import core, covers, embedding, extremal, trees

DEFAULT_BUDGET = 10_000_000


def _load(path: str) -> tuple[core.Hypergraph, str]:
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    return core.Hypergraph.from_json_obj(json.loads(raw)), digest


def _flatten(prefix: str, obj, out: list[str]) -> None:
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], out)
    else:
        out.append(f"{prefix} = {json.dumps(obj)}")


def _emit(args: argparse.Namespace, payload: dict) -> None:
    if args.table:
        lines: list[str] = []
        _flatten("", payload, lines)
        print("\n".join(lines))
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _report(command: str, inputs: dict, results: dict, started: float) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "timing_s": round(time.perf_counter() - started, 6),
    }


# -- subcommands ----------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    hg, digest = _load(args.file)
    cert = trees.find_tree_ordering(hg)
    tau_val, tau_wit = covers.tau(hg)
    sigma_val, sigma_wit = covers.sigma(hg)
    reducibility: Optional[int] = None
    if hg.uniform_r is not None and hg.uniform_r >= 2:
        reducibility = 0
        for k in range(1, hg.uniform_r):
            if trees.is_k_reducible(hg, k):
                reducibility = k
            else:
                break
    partition = None
    if cert is not None and hg.uniform_r is not None:
        partition = [sorted(c) for c in trees.r_partition(hg, cert)]
    results = {
        "n": hg.n,
        "r": hg.uniform_r,
        "edge_count": hg.m,
        "multi": not hg.is_simple(),
        "tree": cert is not None,
        "tight": cert.tight if cert is not None else None,
        "tau": tau_val,
        "tau_witness": sorted(tau_wit.vertices),
        "sigma": None if sigma_val == float("inf") else int(sigma_val),
        "sigma_witness": sorted(sigma_wit.vertices) if sigma_wit else None,
        "reducibility": reducibility,
        "partition": partition,
    }
    if args.certify:
        results["certificate"] = cert.to_json_obj() if cert is not None else None
    _emit(args, _report("analyze", {args.file: digest}, results, started))
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    params = {}
    if args.params:
        for item in args.params.split(","):
            key, _, value = item.partition("=")
            if not _ or not key:
                raise ValueError(f"malformed parameter {item!r}; expected key=value")
            params[key.strip()] = int(value)
    hg = extremal.gen_standard(args.family, **params)
    print(json.dumps(hg.to_json_obj(), sort_keys=True))
    return 0


def cmd_shadow(args: argparse.Namespace) -> int:
    hg, _ = _load(args.file)
    print(json.dumps(core.shadow(hg, args.p).to_json_obj(), sort_keys=True))
    return 0


def cmd_tau(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    hg, digest = _load(args.file)
    value, witness = covers.tau(hg)
    results = {"value": value, "witness": sorted(witness.vertices), "optimal": True}
    _emit(args, _report("tau", {args.file: digest}, results, started))
    return 0


def cmd_sigma(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    hg, digest = _load(args.file)
    value, witness = covers.sigma(hg)
    results = {
        "value": None if value == float("inf") else int(value),
        "witness": sorted(witness.vertices) if witness else None,
        "optimal": True,
    }
    _emit(args, _report("sigma", {args.file: digest}, results, started))
    return 0


def cmd_embed(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    pattern, d1 = _load(args.pattern)
    host, d2 = _load(args.host)
    res = embedding.embed(pattern, host, budget=args.budget)
    results = {
        "status": res.status,
        "map": {str(k): v for k, v in sorted(res.map.items())} if res.map else None,
        "nodes": res.nodes,
    }
    _emit(args, _report("embed", {args.pattern: d1, args.host: d2}, results, started))
    return 0


def cmd_turan(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    pattern, digest = _load(args.forbid)
    res = extremal.turan_oracle(args.n, args.r, pattern, budget=args.budget)
    results = {
        "value": res.value,
        "witness": res.witness.to_json_obj(),
        "nodes": res.nodes,
        "certified": res.certified,
    }
    _emit(args, _report("turan", {args.forbid: digest}, results, started))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    prop = args.prop
    inputs: dict[str, str] = {}
    if prop == "kk":
        if len(args.files) != 1 or args.p is None:
            raise ValueError("verify kk needs FILE and -p")
        hg, digest = _load(args.files[0])
        inputs[args.files[0]] = digest
        check = core.kk_check(hg, args.p)
        results = {
            "x": round(check.x, 9),
            "bound": round(check.bound, 9),
            "shadow": check.shadow,
            "holds": check.holds,
        }
        passed = check.holds
    elif prop in ("3.1", "3.2"):
        if len(args.files) != 1 or args.n is None:
            raise ValueError(f"verify {prop} needs H-FILE and -n")
        hg, digest = _load(args.files[0])
        inputs[args.files[0]] = digest
        which = "S" if prop == "3.1" else "C"
        family, bound = extremal._construction(hg, args.n, which)
        free = embedding.is_free(family, hg)
        results = {
            "construction": which,
            "size": family.m,
            "closed_form": bound,
            "free": free,
            "holds": free and family.m == bound,
        }
        passed = results["holds"]
    elif prop == "5.4":
        if len(args.files) != 2:
            raise ValueError("verify 5.4 needs F-FILE and H-FILE")
        host, d1 = _load(args.files[0])
        tree, d2 = _load(args.files[1])
        inputs = {args.files[0]: d1, args.files[1]: d2}
        check = extremal.tree_shadow_bound_check(host, tree)
        results = {"lhs": check.lhs, "rhs": check.rhs, "holds": check.holds}
        passed = check.holds
    elif prop == "9.1":
        if len(args.files) != 2:
            raise ValueError("verify 9.1 needs G-FILE and M-FILE")
        graph, d1 = _load(args.files[0])
        pattern, d2 = _load(args.files[1])
        inputs = {args.files[0]: d1, args.files[1]: d2}
        check = extremal.missing_vs_nonm_check(graph, pattern, budget=args.budget)
        results = {
            "uncovered": check.uncovered,
            "bound": check.bound,
            "holds": check.holds,
        }
        passed = check.holds
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown property {prop!r}")
    _emit(args, _report(f"verify {prop}", inputs, results, started))
    return 0 if passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hg", description="hypergraph tree and Turan-number toolbox"
    )
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="search node budget")
    parser.add_argument(
        "--table", action="store_true", help="render the report as a table"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structure report for a hypergraph file")
    p.add_argument("file")
    p.add_argument("--certify", action="store_true", help="include the certificate")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("construct", help="emit a standard family as JSON")
    p.add_argument("--family", required=True)
    p.add_argument("--params", default="", help="comma-separated key=value pairs")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("shadow", help="emit the p-shadow as JSON")
    p.add_argument("file")
    p.add_argument("-p", type=int, required=True)
    p.set_defaults(func=cmd_shadow)

    p = sub.add_parser("tau", help="minimum vertex cover")
    p.add_argument("file")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("sigma", help="minimum cross-cut")
    p.add_argument("file")
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("embed", help="search for a subhypergraph embedding")
    p.add_argument("pattern")
    p.add_argument("host")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("turan", help="exact Turan number at small n")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--forbid", required=True, help="forbidden pattern JSON file")
    p.set_defaults(func=cmd_turan)

    p = sub.add_parser("verify", help="run a named bound check")
    p.add_argument("--prop", required=True, choices=["kk", "3.1", "3.2", "5.4", "9.1"])
    p.add_argument("files", nargs="*")
    p.add_argument("-n", type=int, default=None)
    p.add_argument("-p", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.budget < 0:
        build_parser().error(f"argument --budget: must be non-negative, got {args.budget}")
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, embedding.BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
