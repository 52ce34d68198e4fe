"""Run one hgx benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload oracle --seed 0 --seconds 28 --trace 0

Run it from the root of a source checkout; it imports hgx from ``src/``.
One process sends one query at a time in a closed loop.  The run
repeats whole rounds of the workload's fixed query list for about
``--seconds``, checks the first round's answers with the
independent checks in ``checks.py``, and requires every later round to
repeat them exactly.

With ``--trace 0`` nothing is wrapped and the end-to-end metrics are
reported.  With ``--trace 1`` untraced and traced rounds alternate; the
per-layer metrics come from the traced rounds and ``trace.overhead_s``
is the median traced round minus the median untraced round.  Each run
writes its result, and a traced run its spans, under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
# After a query at least this long, a full collection runs outside the
# timed region, so the next query starts from the heap a fresh `hg`
# process would have.  Without it, the moment at which the collector
# frees a large query's cyclic garbage moves peak RSS and later latencies.
COLLECT_AFTER_S = 0.01

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _purge_hgx() -> None:
    for name in [n for n in sys.modules if n == "hgx" or n.startswith("hgx.")]:
        del sys.modules[name]


def setup(workload: str, seed: int, workdir: str):
    """Import hgx afresh and build the inputs, SETUP_REPEATS times.

    Returns the queries of the last set-up, whose hgx import is the one a
    traced round wraps, and the median set-up time.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        _purge_hgx()
        started = time.perf_counter()
        lib = importlib.import_module("hgx")
        importlib.import_module("hgx.cli")
        queries = workloads.build(workload, lib, seed, workdir)
        times.append(time.perf_counter() - started)
    if Path(lib.__file__).resolve().parent != SRC / "hgx":
        raise ImportError(f"hgx was imported from {lib.__file__}, not from {SRC}")
    return queries, statistics.median(times)


def run_round(queries, tracer, round_no: int):
    """One pass over the queries: (wall_s, latencies_s, answers).

    ``wall_s`` sums the queries' own times, without the collections run
    between them.  A query that raises is failed: its answer is the
    exception and its latency is infinite, since it missed any limit.
    """
    wall, latencies, answers = 0.0, [], []
    for idx, q in enumerate(queries):
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                tracer.query = round_no * len(queries) + idx
                out = tracer.span(f"query:{q.name}", q.run)
            else:
                out = q.run()
        except Exception as exc:  # a failed query is counted, not fatal
            out = exc
        elapsed = time.perf_counter() - t0
        wall += elapsed
        latencies.append(math.inf if isinstance(out, Exception) else elapsed)
        answers.append(out)
        if elapsed >= COLLECT_AFTER_S:
            gc.collect()
    return wall, latencies, answers


def _key(q, out):
    if isinstance(out, Exception):
        return ("failed", type(out).__name__)
    return q.key(out)


def measure(queries, seconds: float, tracer):
    """Run whole rounds for about ``seconds``; with a tracer, untraced and
    traced rounds alternate, starting untraced, at least one of each.

    Returns (rounds, attempted, failed, problems); each round is
    (traced, wall_s, latencies).
    """
    rounds, problems = [], []
    attempted = failed = 0
    reference = None
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            wall, latencies, answers = run_round(queries, tracer if traced else None, len(rounds))
        finally:
            if traced:
                tracer.uninstall()
        rounds.append((traced, wall, latencies))
        attempted += len(queries)
        failed += sum(isinstance(a, Exception) for a in answers)
        keys = [_key(q, a) for q, a in zip(queries, answers)]
        if reference is None:
            reference = keys
            for q, a in zip(queries, answers):
                if isinstance(a, Exception):
                    print(f"{q.name} failed: {type(a).__name__}: {str(a)[:200]}", file=sys.stderr)
                else:
                    problems += [f"{q.name}: {p}" for p in q.check(a)]
        else:
            problems += [
                f"{q.name}: round {len(rounds)} differs from round 1"
                for q, k, ref in zip(queries, keys, reference)
                if k != ref
            ]
        # Stop at the round count nearest to ``seconds``, so that a run of
        # long rounds neither overshoots by a whole round nor changes its
        # round count with small changes in machine speed.
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(rounds) / 2 >= seconds and (tracer is None or len(rounds) >= 2):
            return rounds, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hgx" / "__init__.py").is_file():
        print(f"error: no hgx sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        queries, setup_s = setup(args.workload, args.seed, workdir)
        tracer = tracing.Tracer() if args.trace else None
        rounds, attempted, failed, problems = measure(queries, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [lat for traced, _, lat in rounds if not traced]
    wall_s = statistics.median(w for traced, w, _ in rounds if not traced)
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "query_p50_ms": (statistics.median(x for lat in plain for x in lat) * 1000.0, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        traced_walls = [w for traced, w, _ in rounds if traced]
        layer = tracer.metrics(len(traced_walls), statistics.median(traced_walls) - wall_s)
        units = dict(tracing.PER_LAYER)
        metrics = {name: (value, units[name]) for name, value in layer.items()}
        with open(OUT / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "traced_rounds": len(traced_walls), **tracer.dump()}, fh)

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    medians = {q.name: statistics.median(lat[i] for lat in plain) for i, q in enumerate(queries)}
    detail = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "rounds": [{"traced": traced, "wall_s": w} for traced, w, _ in rounds],
        "query_median_s": {name: m for name, m in medians.items() if m != math.inf},
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
