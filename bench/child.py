"""One repetition of a workload in a fresh interpreter.

Started by run.py; not meant to be run by hand.  Writes a JSON record to
``--result``.  ``--spawned`` is the parent's ``time.monotonic()`` just before
the start, so that ``setup_s`` runs from interpreter start to inputs ready
(CLOCK_MONOTONIC is shared by all processes of the machine).
"""

import argparse
import json
import os
import resource
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    import deltaconvex as dc
    import deltaconvex.cli  # noqa: F401  (binds dc.cli)
    import numpy as np
    import scipy

    import workloads
    from tracer import Tracer
    imported = time.monotonic()
    expected = os.path.join(root, "src", "deltaconvex")
    if os.path.dirname(os.path.abspath(dc.__file__)) != expected:
        sys.exit(f"deltaconvex imported from {dc.__file__}, not {expected}")

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(dc)
    make_inputs, run, check = dict(workloads.WORKLOADS,
                                   **workloads.REPRODUCERS)[args.workload]
    inputs = make_inputs(dc, args.seed, args.outdir)
    ready = time.monotonic()

    ops = workloads.Ops(tracer)
    t0 = time.perf_counter()
    done = run(dc, inputs, ops)
    # the calibration runs between operations; it is not the program's time
    wall_s = time.perf_counter() - t0 - sum(ops.probe_s[1:])

    acc = check(dc, inputs, ops, done)
    rec = {
        "trace": args.trace,
        "setup_s": ready - args.spawned,
        "import_s": imported - args.spawned,
        "inputs_s": ready - imported,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "attempted": len(ops.labels),
        "labels": ops.labels,
        "failed": ops.failed,
        "latency_s": ops.latency_s,
        "probe_s": ops.probe_s,
        "solves": acc.solves,
        "evals": acc.evals,
        "slack_min": min(acc.slack) if acc.slack else None,
        "oracle_err_max": acc.oracle_err_max,
        "csv": {k: workloads.digest(p) for k, p in acc.csv.items()
                if os.path.exists(p)},
        "csv_bytes": sum(os.path.getsize(p) for p in acc.csv.values()
                         if os.path.exists(p)),
        "env": {"python": sys.version.split()[0], "numpy": np.__version__,
                "scipy": scipy.__version__, "blas": _blas(np)},
    }
    if tracer is not None:
        rec["per_layer"] = tracer.per_layer()
        rec["ops_without_root"] = tracer.ops_without_root(len(ops.labels))
        tracer.write(os.path.join(args.outdir, "spans.csv.gz"))
    with open(args.result, "w") as fh:
        json.dump(rec, fh)


def _blas(np):
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


if __name__ == "__main__":
    main()
