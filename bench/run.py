"""deltaconvex benchmark.

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each repetition runs in a fresh interpreter (bench/child.py), so
``setup_s`` includes the import and no solver cache carries over.  New
repetitions start until the next one would end after ``--seconds``, with at
least MIN_REPS of them.  With ``--trace 1`` the repetitions alternate
untraced and traced; the traced ones give the per-layer metrics.

The report goes to standard output, one metric a line with its unit; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics without tracing, the per-layer metrics
with it).  ``setup_s`` and ``wall_s`` are in reference seconds (see
REF_PROBE_S).  Every repetition's record, and the spans of each traced one,
are kept under ``.bench_out/``.  See bench/README.md.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import PER_LAYER  # noqa: E402
from workloads import REPRODUCERS, WORKLOADS  # noqa: E402

MIN_REPS = 3
RUN_LIMIT_S = 170  # a run must end well within 180 s
# Time metrics are given in reference seconds: seconds as read, times
# REF_PROBE_S over the repetition's median calibration time
# (workloads.probe).  The machine's speed drifts by tens of percent over tens
# of seconds, and the rescaling cancels most of that drift.  5 ms is about
# the kernel's median in a repetition on the 2-vCPU Xeon the bounds were set
# on.
REF_PROBE_S = 0.005

# (name, unit) of the end-to-end metrics in the JSON line; they have a
# bound in BENCHMARK.json.  The report prints more (see README.md).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)

THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in THREAD_PINS:
        env[var] = "1"
    return env


def run_rep(workload, seed, trace, repdir, deadline):
    os.makedirs(repdir)
    result = os.path.join(repdir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--outdir", repdir, "--result", result]
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned", repr(spawned)], env=child_env(), cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{workload} repetition exited with code "
                           f"{proc.returncode}")
    with open(result) as fh:
        rec = json.load(fh)
    rec["rep_s"] = time.monotonic() - spawned
    return rec


def tail_percentile(samples):
    """Highest of the usual percentiles (nearest rank) with at least ten
    samples beyond it, as (percentile, value); None below 20 samples."""
    xs = sorted(samples)
    n = len(xs)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(n * p / 100.0)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return None


def env_record(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": git_commit(), "seed": seed}


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_workload(workload, seed, seconds, trace):
    name = f"{workload}-seed{seed}" + ("-trace" if trace else "")
    outdir = os.path.join(ROOT, ".bench_out", name)
    shutil.rmtree(outdir, ignore_errors=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    reps = []
    while True:
        tr = trace and len(reps) % 2 == 1
        repdir = os.path.join(outdir, f"rep{len(reps)}")
        reps.append(run_rep(workload, seed, int(tr), repdir, deadline))
        longest = max(r["rep_s"] for r in reps)
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed + longest > seconds:
            break
        if elapsed + longest > RUN_LIMIT_S:
            break
    return summarize(workload, seed, trace, reps, outdir)


def summarize(workload, seed, trace, reps, outdir):
    plain = [r for r in reps if not r["trace"]]
    traced = [r for r in reps if r["trace"]]
    problems = []

    # a CSV must be byte-identical to the first repetition's
    first = reps[0]["csv"]
    for r in reps:
        if set(r["csv"]) != set(first):
            problems.append("repetitions wrote different CSV sets")
        for label, dig in r["csv"].items():
            op = str(r["labels"].index(label))
            if first.get(label) != dig and op not in r["failed"]:
                r["failed"][op] = (f"{label}: CSV differs from the first "
                                   "repetition")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(len(r["failed"]) for r in reps)
    for r in reps:
        for reason in r["failed"].values():
            problems.append(f"failed {reason.strip()}")

    med = statistics.median
    lat = [t for r in plain for t in r["latency_s"]]
    slack = [r["slack_min"] for r in plain if r["slack_min"] is not None]
    for r in reps:
        r["speed"] = REF_PROBE_S / med(r["probe_s"])
    e2e = {
        "setup_s": med(r["setup_s"] * r["speed"] for r in plain),
        "wall_s": med(r["wall_s"] * r["speed"] for r in plain),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
    }
    extra = {
        "setup_raw_s": med(r["setup_s"] for r in plain),
        "wall_raw_s": med(r["wall_s"] for r in plain),
        "probe_ms": 1e3 * med(med(r["probe_s"]) for r in plain),
        "call_ms_p50": 1e3 * med(lat),
        "bound_slack_min": min(slack) if slack else float("nan"),
        "solves_per_s": med(r["solves"] / r["wall_s"] for r in plain),
        "ops_failed_frac": failed / attempted,
        "oracle_err_max": max(r["oracle_err_max"] for r in reps),
        "evals": plain[0]["evals"],
        "solves": plain[0]["solves"],
        "reps": len(plain),
    }
    tail = tail_percentile(lat)

    layers = {}
    if trace:
        for name, _ in PER_LAYER:
            vals = [r["per_layer"][name] for r in traced]
            layers[name] = med(vals)
        layers["setup.import_s"] = med(r["import_s"] * r["speed"]
                                       for r in plain)
        layers["setup.inputs_s"] = med(r["inputs_s"] * r["speed"]
                                       for r in plain)
        layers["cli.csv_bytes"] = med(r["csv_bytes"] for r in traced)
        layers["trace.wall_ratio"] = (
            med(r["wall_s"] * r["speed"] for r in traced) / e2e["wall_s"])
        # trace completeness: every call of the solver went through a
        # wrapper, and every operation opened with a wrapped call
        for r in traced:
            span_evals = r["per_layer"]["regularize.evals"]
            own = {r["evals"]} | {p["evals"] for p in plain}
            if own != {span_evals}:
                problems.append(
                    f"trace incomplete: span evaluations {span_evals} vs "
                    f"untraced/CSV totals {sorted(own)}")
            if r["ops_without_root"]:
                problems.append(f"trace incomplete: operations "
                                f"{r['ops_without_root']} have no root span")

    record = {"workload": workload, "env": dict(env_record(seed),
                                                **reps[0]["env"]),
              "end_to_end": e2e, "extra": extra, "per_layer": layers,
              "call_ms_tail": tail and {"percentile": tail[0],
                                        "value_ms": 1e3 * tail[1],
                                        "samples": len(lat)},
              "problems": problems, "reps": reps}
    with open(os.path.join(outdir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    report(record, trace)
    metrics = layers if trace else e2e
    units = dict(PER_LAYER) if trace else dict(END_TO_END)
    return {"correct": not problems, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units}}


def report(rec, trace):
    w = rec["workload"]
    env = rec["env"]
    print(f"# {w}: python {env['python']}, numpy {env['numpy']}, scipy "
          f"{env['scipy']}, BLAS {env['blas']}, nproc {env['nproc']}, "
          f"cpu {env['cpu']}, commit {env['commit']}, seed {env['seed']}")
    e2e, extra = rec["end_to_end"], rec["extra"]
    units = dict(END_TO_END)
    for k, v in e2e.items():
        print(f"{w} {k} {v:.6g} {units[k]}")
    print(f"{w} setup_raw_s {extra['setup_raw_s']:.6g} s (as read)")
    print(f"{w} wall_raw_s {extra['wall_raw_s']:.6g} s (as read; "
          f"calibration kernel {extra['probe_ms']:.4g} ms, reference "
          f"{1e3 * REF_PROBE_S:g} ms)")
    print(f"{w} call_ms_p50 {extra['call_ms_p50']:.6g} ms")
    print(f"{w} solves_per_s {extra['solves_per_s']:.6g} 1/s "
          f"({extra['solves']} solves, {extra['evals']} evaluations)")
    tail = rec["call_ms_tail"]
    if tail:
        print(f"{w} call_ms_tail {tail['value_ms']:.6g} ms "
              f"(p{tail['percentile']:g} of {tail['samples']} calls)")
    print(f"{w} ops_failed_frac {extra['ops_failed_frac']:.6g} ratio")
    print(f"{w} oracle_err_max {extra['oracle_err_max']:.6g} abs")
    print(f"{w} bound_slack_min {extra['bound_slack_min']:.6g} abs")
    print(f"{w} repetitions {extra['reps']} untraced")
    if trace:
        layer_units = dict(PER_LAYER)
        for k, v in rec["per_layer"].items():
            print(f"{w} {k} {v:.6g} {layer_units[k]}")
    for p in rec["problems"]:
        print(f"{w} PROBLEM {p}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + sorted(REPRODUCERS)
                    + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "deltaconvex",
                                       "__init__.py")):
        sys.exit(f"no deltaconvex sources under {ROOT}/src")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, args.seconds, args.trace)
               for w in names}
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}.{k}": v for w, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
