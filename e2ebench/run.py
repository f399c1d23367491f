"""Repo-wide benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Workloads: ``paper``, ``search``, ``bmc-sweep`` (in-process, see
``workloads.py``) and ``serve`` (a daemon under seeded load, see
``serve_load.py``).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the layer-traced variant and prints the per-layer
metrics, writing the raw spans to ``.e2ebench-run/``.  Failures are
counted by kind on standard error; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: End-to-end metrics: name -> unit.  Every workload prints all of them.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_s": "s",
    "query_p95_s": "s",
    "serve_p50_s": "s",
    "serve_p99_s": "s",
    "serve_max_rps": "1/s",
    "peak_rss_mb": "MB",
}

WORKLOADS = ("paper", "search", "bmc-sweep", "serve")

#: Program imports timed in fresh interpreters, on top of this process's
#: own; the in-process workloads count their median in ``setup_s``.
IMPORT_SAMPLES = 4
_IMPORT = (
    "import time; start = time.perf_counter(); "
    "import repro, repro.bmc.session; print(time.perf_counter() - start)"
)


def import_seconds(own: float) -> float:
    """Median time to import the program, over this process's import and
    :data:`IMPORT_SAMPLES` fresh interpreters."""
    from stats import median

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    samples = [own]
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        )
        samples.append(float(done.stdout))
    return median(samples)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"e2ebench: no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    start = time.perf_counter()
    import repro  # noqa: F401  (import time is part of setup)
    import repro.bmc.session  # noqa: F401

    own_import_s = time.perf_counter() - start
    import oracle
    import workloads

    checker = workloads.Checker(oracle.load_table())
    if args.workload == "serve":
        import serve_load

        outcome = serve_load.run(ROOT, args.seed, args.seconds, bool(args.trace), checker)
    else:
        outcome = workloads.run(
            args.workload,
            args.seconds,
            bool(args.trace),
            import_seconds(own_import_s),
            checker,
        )
    if "spans" in outcome:
        os.makedirs(os.path.join(ROOT, ".e2ebench-run"), exist_ok=True)
        path = os.path.join(ROOT, ".e2ebench-run", f"spans-{args.workload}-{args.seed}.json")
        with open(path, "w") as handle:
            json.dump(outcome["spans"], handle)
    metrics = outcome["metrics"]
    if args.trace:
        import layers

        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    else:
        units = END_TO_END
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"e2ebench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    failures = {kind: checker.failures[kind] for kind in workloads.FAILURE_KINDS}
    print(json.dumps({"failures_by_kind": failures}), file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": checker.correct,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
