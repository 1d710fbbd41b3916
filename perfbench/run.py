#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload solo --seed 1 --seconds 10 --trace 0

``--trace 0`` times the named workload untraced, in this process alone,
and reports every end-to-end metric of ``BENCHMARK.json``. ``--trace 1``
runs all four workloads, each for a quarter of ``--seconds`` and set up
once, with spans recorded around calls into every measured layer, and
reports every per-layer metric plus the tracing overhead. The last line
of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

from tracing import Tracer, per_call_overhead_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: BLAS threads: the models are small enough that one thread is fastest
#: and steadiest, and it stays within any machine's core count.
BLAS_THREADS = "1"
#: Cold set-ups per timed run; ``setup_s`` is their median.
SETUPS = 5
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_FRAMEWORKS",
)


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    spec_path = ROOT / "BENCHMARK.json"
    package = ROOT / "src" / "repro" / "__init__.py"
    if not spec_path.is_file():
        return _fail(f"{spec_path.name} not found at the checkout root")
    if not package.is_file():
        return _fail("the repro package is missing (expected src/repro)")
    bench = json.loads(spec_path.read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(names)}")

    # Before numpy loads: BLAS reads its thread count once, and a warm
    # on-disk plan cache would hide the cold set-up that setup_s measures.
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    os.environ.pop("REPRO_PLAN_CACHE_DIR", None)
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}, "
          f"BLAS threads {BLAS_THREADS} of {os.cpu_count()} cores")
    if args.trace:
        declared = bench["per_layer"]
        metrics, checks = _traced(workloads, args.seed, args.seconds)
    else:
        declared = bench["end_to_end"]
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, setups=SETUPS)
        metrics, checks = outcome.e2e, outcome.checks
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )

    missing = sorted({m["name"] for m in declared} - set(metrics))
    if missing:
        return _fail(f"metrics not produced: {', '.join(missing)}")
    result = {}
    for m in declared:
        value = float(metrics[m["name"]])
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:34s} {value:14.6g} {m['unit']}")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    print(f"  checks: {checks.attempted} attempted, "
          f"{len(checks.failures)} failed")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": result,
    }))
    return 0


def _traced(workloads, seed: int, seconds: float) -> tuple:
    """Every workload once, traced; per-layer metrics and all checks."""
    checks = workloads.Checks()
    metrics: dict = {}
    wall_s = 0.0
    with Tracer() as tracer:
        workloads.trace_layers(tracer)
        for run in workloads.WORKLOADS.values():
            start = time.perf_counter()
            outcome = run(seed, seconds / len(workloads.WORKLOADS),
                          setups=1, tracer=tracer)
            wall_s += time.perf_counter() - start
            metrics.update(outcome.layer)
            checks.merge(outcome.checks)
    metrics.update({
        "models.build_s": tracer.outermost_s({"models.build"}),
        "program.plan_ms": 1e3 * tracer.outermost_s({"program.plan"}),
        "hw.profile_s": tracer.outermost_s({"hw.profile"}),
        "hw.simulate_ms": workloads.span_ms(tracer.summary(),
                                            "hw.simulate_plan"),
    })
    per_call = per_call_overhead_s()
    print(f"tracing overhead: {len(tracer.spans)} spans x "
          f"{1e6 * per_call:.2f} us = "
          f"{100 * len(tracer.spans) * per_call / wall_s:.3f}% "
          f"of {wall_s:.1f} s traced")
    return metrics, checks


if __name__ == "__main__":
    sys.exit(main())
