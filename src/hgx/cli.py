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
    try:
        hg = core.Hypergraph.from_json_obj(json.loads(raw))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    return hg, hashlib.sha256(raw).hexdigest()


def _flatten(prefix: str, obj, out: list[str]) -> None:
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], out)
    else:
        out.append(f"{prefix} = {json.dumps(obj)}")


def _run(args: argparse.Namespace, command: str, paths: list[str], compute) -> int:
    """The one report path.  Loads and digests ``paths``, calls
    ``compute(args, *hypergraphs) -> (results, passed)``, prints the timed
    report and returns 0, or 1 when the command's check failed."""
    started = time.perf_counter()
    inputs: dict[str, str] = {}
    hgs = []
    for path in paths:
        hg, inputs[path] = _load(path)
        hgs.append(hg)
    results, passed = compute(args, *hgs)
    report = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "timing_s": round(time.perf_counter() - started, 6),
    }
    if args.table:
        lines: list[str] = []
        _flatten("", report, lines)
        print("\n".join(lines))
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if passed else 1


# -- subcommands ----------------------------------------------------------------


def _analyze(args: argparse.Namespace, hg: core.Hypergraph) -> tuple[dict, bool]:
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
    return results, True


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


def _tau(args: argparse.Namespace, hg: core.Hypergraph) -> tuple[dict, bool]:
    value, witness = covers.tau(hg)
    results = {"value": value, "witness": sorted(witness.vertices), "optimal": True}
    return results, True


def _sigma(args: argparse.Namespace, hg: core.Hypergraph) -> tuple[dict, bool]:
    value, witness = covers.sigma(hg)
    results = {
        "value": None if value == float("inf") else int(value),
        "witness": sorted(witness.vertices) if witness else None,
        "optimal": True,
    }
    return results, True


def _embed(
    args: argparse.Namespace, pattern: core.Hypergraph, host: core.Hypergraph
) -> tuple[dict, bool]:
    res = embedding.embed(pattern, host, budget=args.budget)
    results = {
        "status": res.status,
        "map": {str(k): v for k, v in sorted(res.map.items())} if res.map else None,
        "nodes": res.nodes,
    }
    return results, True


def _turan(args: argparse.Namespace, pattern: core.Hypergraph) -> tuple[dict, bool]:
    res = extremal.turan_oracle(args.n, args.r, pattern, budget=args.budget)
    results = {
        "value": res.value,
        "witness": res.witness.to_json_obj(),
        "nodes": res.nodes,
        "certified": res.certified,
    }
    return results, True


def _fields(check, **rounded) -> tuple[dict, bool]:
    return {**check._asdict(), **rounded}, check.holds


def _kk(args: argparse.Namespace, hg: core.Hypergraph) -> tuple[dict, bool]:
    check = core.kk_check(hg, args.p)
    return _fields(check, x=round(check.x, 9), bound=round(check.bound, 9))


def _construction(which: str, args: argparse.Namespace, hg: core.Hypergraph) -> tuple[dict, bool]:
    family, bound = extremal._construction(hg, args.n, which)
    free = embedding.is_free(family, hg)
    holds = free and family.m == bound
    results = {
        "construction": which,
        "size": family.m,
        "closed_form": bound,
        "free": free,
        "holds": holds,
    }
    return results, holds


def _tree_shadow(
    args: argparse.Namespace, host: core.Hypergraph, tree: core.Hypergraph
) -> tuple[dict, bool]:
    return _fields(extremal.tree_shadow_bound_check(host, tree))


def _missing(
    args: argparse.Namespace, graph: core.Hypergraph, pattern: core.Hypergraph
) -> tuple[dict, bool]:
    return _fields(extremal.missing_vs_nonm_check(graph, pattern, budget=args.budget))


# prop -> (usage message, file count, required flag, check)
VERIFY = {
    "kk": ("verify kk needs FILE and -p", 1, "p", _kk),
    "3.1": ("verify 3.1 needs H-FILE and -n", 1, "n", functools.partial(_construction, "S")),
    "3.2": ("verify 3.2 needs H-FILE and -n", 1, "n", functools.partial(_construction, "C")),
    "5.4": ("verify 5.4 needs F-FILE and H-FILE", 2, None, _tree_shadow),
    "9.1": ("verify 9.1 needs G-FILE and M-FILE", 2, None, _missing),
}


def cmd_verify(args: argparse.Namespace) -> int:
    usage, count, flag, check = VERIFY[args.prop]
    if len(args.files) != count or (flag and getattr(args, flag) is None):
        raise ValueError(usage)
    return _run(args, f"verify {args.prop}", args.files, check)


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
    p.set_defaults(func=lambda args: _run(args, "analyze", [args.file], _analyze))

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
    p.set_defaults(func=lambda args: _run(args, "tau", [args.file], _tau))

    p = sub.add_parser("sigma", help="minimum cross-cut")
    p.add_argument("file")
    p.set_defaults(func=lambda args: _run(args, "sigma", [args.file], _sigma))

    p = sub.add_parser("embed", help="search for a subhypergraph embedding")
    p.add_argument("pattern")
    p.add_argument("host")
    p.set_defaults(func=lambda args: _run(args, "embed", [args.pattern, args.host], _embed))

    p = sub.add_parser("turan", help="exact Turan number at small n")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--forbid", required=True, help="forbidden pattern JSON file")
    p.set_defaults(func=lambda args: _run(args, "turan", [args.forbid], _turan))

    p = sub.add_parser("verify", help="run a named bound check")
    p.add_argument("--prop", required=True, choices=list(VERIFY))
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
    except (ValueError, OSError, embedding.BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
