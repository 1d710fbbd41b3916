#!/usr/bin/env python3
"""Repeat runs and compare result sets against ``BENCHMARK.json``.

From the root of a checkout::

    # ten seeds per workload; prints median, quartiles and spread per metric
    python3 perfbench/tools.py repeat --workload all --runs 10 --out A
    # the same for another commit, then the regression gate
    python3 perfbench/tools.py repeat --workload all --runs 10 --out B
    python3 perfbench/tools.py compare A B

``repeat`` runs ``perfbench/run.py`` once per seed, one process after the
other, and writes ``<out>/<workload>.json``. The spread of a metric is
the distance between its first and third quartile over its median.
``compare`` fails (exit 1) when a median got worse by more than the
metric's bound or the share of failed operations changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values: list) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark process; its parsed result plus the wall time."""
    command = _bench()["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall_s = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(seed=seed, wall_s=wall_s)
    return result


def summarize(runs: list, declared: list) -> list:
    """Rows ``(metric, unit, q1, median, q3, spread, bound)``."""
    rows = []
    for metric in declared:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, median, q3 = quartiles(values)
        spread = (q3 - q1) / median if median else float("inf")
        rows.append((metric["name"], metric["unit"], q1, median, q3, spread,
                     metric.get("bound")))
    return rows


def repeat(args) -> int:
    bench = _bench()
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    declared = bench["per_layer" if args.trace else "end_to_end"]
    seconds = args.seconds or bench["run_seconds"]
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    unsteady = 0
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            runs.append(run_once(workload, args.seed0 + i, seconds,
                                 args.trace))
            print(f"{workload} seed {args.seed0 + i}: "
                  f"{runs[-1]['wall_s']:.1f} s wall", file=sys.stderr)
        walls = [r["wall_s"] for r in runs]
        failed = {(r["failed"], r["attempted"]) for r in runs}
        print(f"\n{workload}: {len(runs)} runs, wall {min(walls):.1f}-"
              f"{max(walls):.1f} s, failed/attempted "
              f"{sorted(failed)}, correct "
              f"{all(r['correct'] for r in runs)}")
        print(f"  {'metric':34s} {'q1':>12s} {'median':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, unit, q1, median, q3, spread, bound in summarize(
                runs, declared):
            flag = ""
            if bound is not None and name != "setup_s":
                if spread > bound:
                    flag, unsteady = "  OVER BOUND", unsteady + 1
                elif spread > bound / 3:
                    flag = "  over a third of bound"
            print(f"  {name:34s} {q1:12.6g} {median:12.6g} {q3:12.6g} "
                  f"{spread:8.2%} {'' if bound is None else bound:>6} "
                  f"{unit}{flag}")
        if out:
            (out / f"{workload}.json").write_text(
                json.dumps({"workload": workload, "trace": args.trace,
                            "runs": runs}, indent=1) + "\n")
    return 1 if unsteady else 0


def compare(args) -> int:
    bench = _bench()
    regressions = 0
    for path in sorted(Path(args.base).glob("*.json")):
        other = Path(args.new) / path.name
        if not other.is_file():
            print(f"{path.stem}: no result in {args.new}")
            regressions += 1
            continue
        base = json.loads(path.read_text())["runs"]
        new = json.loads(other.read_text())["runs"]
        print(f"{path.stem}:")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = statistics.median(r["metrics"][name]["value"] for r in base)
            b = statistics.median(r["metrics"][name]["value"] for r in new)
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            verdict = "REGRESSION" if worse > bound else "ok"
            regressions += worse > bound
            print(f"  {name:20s} {a:12.6g} -> {b:12.6g} "
                  f"({-worse:+.2%} better, bound {bound:.0%}) {verdict}")
        shares = [
            {r["failed"] / r["attempted"] for r in runs}
            for runs in (base, new)
        ]
        if shares[0] != shares[1]:
            regressions += 1
            print(f"  failed share changed: {sorted(shares[0])} -> "
                  f"{sorted(shares[1])}")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rep = sub.add_parser("repeat", help="run several seeds, print spreads")
    rep.add_argument("--workload", default="all")
    rep.add_argument("--runs", type=int, default=10)
    rep.add_argument("--seed0", type=int, default=1)
    rep.add_argument("--seconds", type=int, default=0,
                     help="run length (default: run_seconds)")
    rep.add_argument("--trace", type=int, choices=(0, 1), default=0)
    rep.add_argument("--out", help="directory for <workload>.json results")
    cmp_ = sub.add_parser("compare", help="gate NEW against BASE")
    cmp_.add_argument("base")
    cmp_.add_argument("new")
    args = parser.parse_args(argv)
    return repeat(args) if args.command == "repeat" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
