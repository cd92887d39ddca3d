"""The four benchmark workloads.

Each workload has three parts, all taking the imported package ``dc``:

- ``inputs(dc, seed, outdir)`` builds everything the timed section needs;
- ``run(dc, inputs, ops)`` is the timed section: one pass of public calls
  through ``ops``, one caller in a closed loop (the next call starts when
  the previous one has returned);
- ``check(dc, inputs, ops, done)`` checks the outputs after the timing,
  marks failed operations on ``ops`` and returns the workload's own
  ``Account``: solves, solver evaluations as the public API returns them,
  result-row slacks, the largest oracle error, and the CSV files written.
"""

import contextlib
import hashlib
import io
import math
import os
import time
import traceback

import numpy as np

import oracle

TOL = 1e-6  # solver tolerance; an oracle error above 2*TOL fails the call


PROBE_EVERY_S = 0.2
_PROBE_ROWS = np.random.default_rng(0).random((2048, 3))


def probe():
    """Seconds taken by a fixed calibration kernel that does not touch the
    package: numpy calls on small and mid-size arrays plus a pure-Python
    loop, the mix that the workloads run.  The machine's speed drifts by
    tens of percent over tens of seconds, and this kernel drifts with it."""
    t0 = time.perf_counter()
    for _ in range(32):
        a = _PROBE_ROWS * 1.0001
        np.sqrt((a * a).sum(axis=1)).argmin()
    row = _PROBE_ROWS[:4]
    for _ in range(400):
        np.abs(row - 0.5).max(axis=-1)
    s = 0
    for k in range(16000):
        s += k * k
    return time.perf_counter() - t0


class Ops:
    """Runs and times one public call at a time; counts failures.

    An operation is one grid call, one CLI subcommand or one single-point
    call.  It fails when it raises, or when a later check marks it.  Between
    operations, at most every PROBE_EVERY_S, the calibration kernel runs;
    its time is kept apart from the operations' latencies.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.labels = []
        self.latency_s = []
        self.failed = {}
        self.probe_s = [probe()]
        self._probed = time.perf_counter()

    def call(self, label, fn, *args, **kwargs):
        i = len(self.labels)
        self.labels.append(label)
        if self.tracer is not None:
            self.tracer.op = i
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:  # a failed call is counted, the run goes on
            self.fail(i, traceback.format_exc(limit=3))
            out = None
        finally:
            t1 = time.perf_counter()
            if self.tracer is not None:
                self.tracer.op = None
        self.latency_s.append(t1 - t0)
        if t1 - self._probed >= PROBE_EVERY_S:
            self.probe_s.append(probe())
            self._probed = time.perf_counter()
        return i, out

    def fail(self, i, reason):
        self.failed.setdefault(i, f"{self.labels[i]}: {reason}")


class Account:
    def __init__(self):
        self.solves = 0
        self.evals = 0
        self.slack = []
        self.oracle_err_max = 0.0
        self.csv = {}  # op label -> path

    def oracle_row(self, ops, i, err):
        """One result row of an oracle check: bound 2*TOL, slack = bound -
        error."""
        self.oracle_err_max = max(self.oracle_err_max, err)
        self.slack.append(2.0 * TOL - err)
        if not err <= 2.0 * TOL:
            ops.fail(i, f"oracle error {err:.3g} > {2 * TOL:g}")


def _corpus(dc, space):
    """The package corpus without ``distance``: the gated workloads leave
    it out because of the defect that ``distance-basins`` reproduces."""
    return [f for f in dc.make_corpus(space) if f.label != "distance"]


def _csv_rows(path):
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines()
                 if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _check_csv(ops, acc, i, rc, path):
    if rc != 0:
        ops.fail(i, f"exit code {rc}")
    if not os.path.exists(path):
        ops.fail(i, "no CSV written")
        return []
    rows = _csv_rows(path)
    for r in rows:
        slack = float(r["slack"])
        acc.slack.append(slack)
        if not slack >= 0.0:
            ops.fail(i, f"row slack {slack:.3g} < 0")
    return rows


# ---------------------------------------------------------------------------
# euclid-grid: the criterion-1 path, solver plus Euclidean norm
# ---------------------------------------------------------------------------

EUCLID_GRIDS = ((2, 21), (3, 9))
EUCLID_LAMBDAS = (9.0, 36.0, 144.0)


def euclid_grid_inputs(dc, seed, outdir):
    cases = []
    for dim, n in EUCLID_GRIDS:
        space = dc.NormedSpace(dim, 2.0)
        X = dc.ball_grid(space, np.zeros(dim), 1.0, n)
        cases.append((space, X, _corpus(dc, space)))
    cfg = dc.SolverConfig(coarse_samples=160, starts=2, tolerance=TOL,
                          seed=seed)
    return {"cases": cases, "cfg": cfg}


def euclid_grid_run(dc, inp, ops):
    cfg = inp["cfg"]
    done = []
    for space, X, corpus in inp["cases"]:
        for f in corpus:
            for lam in EUCLID_LAMBDAS:
                tag = f"{space.describe()}:{f.label}:{lam:g}"
                i, q = ops.call(f"regularize_power_grid:{tag}",
                                dc.regularize_power_grid, f, 2.0, lam, X,
                                space, cfg)
                j, m = ops.call(f"inf_convolve_grid:{tag}",
                                dc.inf_convolve_grid, f, 2.0, lam, X,
                                space, cfg)
                done.append((X, f, lam, (i, q), (j, m)))
    return done


def euclid_grid_check(dc, inp, ops, done):
    acc = Account()
    for X, f, lam, (i, q), (j, m) in done:
        for res in (q, m):
            if res is not None:
                acc.solves += X.shape[0]
                acc.evals += int(res[2])
        if q is None or m is None:
            continue
        if f.label in oracle.ORACLE_LABELS:
            want = oracle.envelope(f.label, X, lam)
            acc.oracle_row(ops, i, float(np.abs(q[0] - want).max()))
            acc.oracle_row(ops, j, float(np.abs(m[0] - want).max()))
        else:
            # no closed form: the two routes must agree (criterion 1) and
            # neither may exceed f, since y = x is a candidate
            gap = float(np.abs(q[0] - m[0]).max())
            acc.slack.append(2.0 * TOL - gap)
            if not gap <= 2.0 * TOL:
                ops.fail(j, f"two-route gap {gap:.3g} > {2 * TOL:g}")
            fX = np.asarray(f(X), dtype=float)
            for k, res in ((i, q), (j, m)):
                excess = float((res[0] - fX).max())
                if not excess <= 2.0 * TOL:
                    ops.fail(k, f"value exceeds f by {excess:.3g}")
    return acc


# ---------------------------------------------------------------------------
# lq-schedule: CLI converge + sandwich at power 4 on l4^2
# ---------------------------------------------------------------------------

LQ_GRID = 15
# converge checks a rate bound far above solver accuracy, so distance stays
# in; sandwich checks at solver tolerance, where distance shows the defect
# that distance-basins reproduces
LQ_SKIP = {"converge": (), "sandwich": ("distance",)}


def lq_schedule_inputs(dc, seed, outdir):
    space = dc.NormedSpace(2, 4.0)
    npts = dc.ball_grid(space, np.zeros(2), 1.0, LQ_GRID).shape[0]
    argv = []
    for sub in ("converge", "sandwich"):
        for label in dc.CORPUS_LABELS:
            if label in LQ_SKIP[sub]:
                continue
            argv.append((f"{sub}:{label}", [
                sub, "--set", "dim=2", "--set", "p=4", "--set", "power=4",
                "--set", f"function={label}", "--set", f"grid={LQ_GRID}",
                "--seed", str(seed)],
                os.path.join(outdir, f"{sub}-{label}.csv")))
    return {"argv": argv, "npts": npts}


def lq_schedule_run(dc, inp, ops):
    return [(ops.call(label, dc.cli.main, argv + ["--out", out]), out)
            for label, argv, out in inp["argv"]]


def lq_schedule_check(dc, inp, ops, done):
    acc = Account()
    for (i, rc), out in done:
        acc.csv[ops.labels[i]] = out
        for r in _check_csv(ops, acc, i, rc, out):
            acc.evals += int(r["evaluations"])
            # a converge row is one grid call, a sandwich row two
            calls = 2 if r["experiment"] == "sandwich" else 1
            acc.solves += calls * inp["npts"]
    return acc


# ---------------------------------------------------------------------------
# tree-adversary: the l_inf side; the solver never runs
# ---------------------------------------------------------------------------

ADVERSARY_DEPTHS = "32,64"   # the family check broadcasts 1023 x 1023 x 98
EXHAUSTIVE_DEPTH = 10        # 2047 nodes, every pair
SAMPLED_DEPTH = 16           # 131071 nodes, past the 2M-pair cap
SAVED_DEPTH = 10


def tree_adversary_inputs(dc, seed, outdir):
    saved = os.path.join(outdir, f"tree{SAVED_DEPTH}.txt")
    dc.save_tree(dc.build_sign_tree(SAVED_DEPTH), saved)
    trees = {}
    for depth in (EXHAUSTIVE_DEPTH, SAMPLED_DEPTH):
        trees[depth] = (dc.build_sign_tree(depth),
                        dc.NormedSpace(depth, math.inf))
    return {"seed": seed, "saved": saved, "trees": trees, "outdir": outdir}


def tree_adversary_run(dc, inp, ops):
    seed, outdir = inp["seed"], inp["outdir"]
    adv = ops.call("adversary", dc.cli.main, [
        "adversary", "--set", f"depths={ADVERSARY_DEPTHS}", "--seed",
        str(seed), "--out", os.path.join(outdir, "adversary.csv")])
    tree, space = inp["trees"][EXHAUSTIVE_DEPTH]
    n = tree.node_count
    exh = ops.call("validate_tree:exhaustive", dc.validate_tree, tree, space,
                   sample_pairs=n * (n - 1) // 2, seed=seed)
    tree, space = inp["trees"][SAMPLED_DEPTH]
    smp = ops.call("validate_tree:sampled", dc.validate_tree, tree, space,
                   seed=seed)
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        vcli = ops.call("validate-tree", dc.cli.main,
                        ["validate-tree", inp["saved"]])
    mod = ops.call("modulus", dc.cli.main, [
        "modulus", "--set", "dim=3", "--set", "p=3", "--set", "samples=1024",
        "--seed", str(seed), "--out", os.path.join(outdir, "modulus.csv")])
    return adv, exh, smp, (vcli, text.getvalue()), mod


def tree_adversary_check(dc, inp, ops, done):
    acc = Account()
    adv, exh, smp, (vcli, text), mod = done
    for name, (i, rc) in (("adversary", adv), ("modulus", mod)):
        acc.csv[name] = os.path.join(inp["outdir"], f"{name}.csv")
        _check_csv(ops, acc, i, rc, acc.csv[name])
    for (i, rep), exhaustive in ((exh, True), (smp, False)):
        if rep is None:
            continue
        if not (rep.midpoint_exact and rep.separation_ok
                and rep.exhaustive_pairs == exhaustive):
            ops.fail(i, f"validation report {rep}")
    i, rc = vcli
    if rc != 0 or "separation_ok=True" not in text:
        ops.fail(i, f"exit code {rc}: {text!r}")
    return acc


# ---------------------------------------------------------------------------
# point-queries: the same solver at batch size 1
# ---------------------------------------------------------------------------

POINTS = 60
POINT_LAMBDA = 9.0
POINT_LABELS = tuple(x for x in oracle.ORACLE_LABELS if x != "distance")


def point_queries_inputs(dc, seed, outdir):
    space = dc.NormedSpace(2, 2.0)
    rng = np.random.default_rng(seed)
    points = space.ball_sample(rng, POINTS)
    corpus = {f.label: f for f in _corpus(dc, space)}
    cfg = dc.SolverConfig(seed=seed)
    pairs = {label: dc.decompose(corpus[label], POINT_LAMBDA, space, cfg)
             for label in POINT_LABELS}
    return {"space": space, "points": points, "corpus": corpus, "cfg": cfg,
            "pairs": pairs}


def point_queries_run(dc, inp, ops):
    space, cfg, lam = inp["space"], inp["cfg"], POINT_LAMBDA
    done = []
    for k, x in enumerate(inp["points"]):
        label = POINT_LABELS[k % len(POINT_LABELS)]
        f = inp["corpus"][label]
        rq = ops.call(f"regularize_quadratic:{label}",
                      dc.regularize_quadratic, f, lam, x, space, cfg)
        ic = ops.call(f"inf_convolve:{label}",
                      dc.inf_convolve, f, 2.0, lam, x, space, cfg)
        dd = ops.call(f"decompose.d:{label}", inp["pairs"][label].d, x)
        done.append((x, label, rq, ic, dd))
    return done


def point_queries_check(dc, inp, ops, done):
    acc = Account()
    lam = POINT_LAMBDA
    for x, label, rq, ic, dd in done:
        want = float(oracle.envelope(label, x, lam)[0])
        pair = inp["pairs"][label]
        for i, res in (rq, ic):
            if res is not None:
                acc.solves += 1
                acc.evals += int(res.evaluations)
                acc.oracle_row(ops, i, abs(res.value - want))
        i, d = dd
        if d is not None:
            acc.solves += 1
            acc.oracle_row(ops, i, abs(float(pair.c(x)) - d - want))
    return acc


# ---------------------------------------------------------------------------
# distance-basins: reproduces a known solver defect; not in BENCHMARK.json
# ---------------------------------------------------------------------------

BASIN_POINTS = 64
BASIN_OFFSET = 2e-4
BASIN_LAMBDAS = (9.0, 36.0)


def _bisector_points(rng, anchors, n, offset):
    """n points, each the projection of a point of the unit ball of l2^3 on
    the bisector plane of its two nearest anchors, moved ``offset`` towards
    the nearer one.  There f(y) + lam*|x - y|^2 has two basins whose minima
    differ by at most 2*offset."""
    out = []
    while len(out) < n:
        x = rng.uniform(-1.0, 1.0, size=anchors.shape[1])
        if x @ x > 1.0:
            continue
        i, j = np.argsort(np.linalg.norm(x - anchors, axis=1))[:2]
        u = anchors[j] - anchors[i]
        u /= np.linalg.norm(u)
        mid = 0.5 * (anchors[i] + anchors[j])
        y = x - ((x - mid) @ u + offset) * u
        near = np.argsort(np.linalg.norm(y - anchors, axis=1))[:2]
        if set(near) == {i, j}:
            out.append(y)
    return np.array(out)


def distance_basins_inputs(dc, seed, outdir):
    rng = np.random.default_rng(seed)
    space = dc.NormedSpace(3, 2.0)
    anchors = rng.uniform(-1.5, 1.5, size=(5, 3))  # the corpus' own law
    X = _bisector_points(rng, anchors, BASIN_POINTS, BASIN_OFFSET)
    f = dc.distance_function(space, dc.PointSet(anchors))
    cfg = dc.SolverConfig(coarse_samples=160, starts=2, tolerance=TOL,
                          seed=seed)
    npts = dc.ball_grid(dc.NormedSpace(2, 4.0), np.zeros(2), 1.0,
                        LQ_GRID).shape[0]
    sandwich = (["sandwich", "--set", "dim=2", "--set", "p=4", "--set",
                 "power=4", "--set", "function=distance", "--set",
                 f"grid={LQ_GRID}", "--seed", str(seed)],
                os.path.join(outdir, "sandwich-distance.csv"))
    return {"space": space, "anchors": anchors, "X": X, "f": f, "cfg": cfg,
            "sandwich": sandwich, "npts": npts}


def distance_basins_run(dc, inp, ops):
    space, X, f, cfg = inp["space"], inp["X"], inp["f"], inp["cfg"]
    done = []
    for lam in BASIN_LAMBDAS:
        for name, fn in (("regularize_power_grid", dc.regularize_power_grid),
                         ("inf_convolve_grid", dc.inf_convolve_grid)):
            done.append((lam, ops.call(f"{name}:distance:{lam:g}", fn, f,
                                       2.0, lam, X, space, cfg)))
    argv, out = inp["sandwich"]
    return done, (ops.call("sandwich:distance", dc.cli.main,
                           argv + ["--out", out]), out)


def distance_basins_check(dc, inp, ops, done):
    acc = Account()
    grid, ((i, rc), out) = done
    for lam, (k, res) in grid:
        if res is not None:
            acc.solves += inp["X"].shape[0]
            acc.evals += int(res[2])
            want = oracle.envelope("distance", inp["X"], lam, inp["anchors"])
            acc.oracle_row(ops, k, float(np.abs(res[0] - want).max()))
    acc.csv[ops.labels[i]] = out
    for r in _check_csv(ops, acc, i, rc, out):
        acc.evals += int(r["evaluations"])
        acc.solves += 2 * inp["npts"]
    return acc


# name -> (inputs, run, check); the workloads of BENCHMARK.json
WORKLOADS = {
    "euclid-grid": (euclid_grid_inputs, euclid_grid_run, euclid_grid_check),
    "lq-schedule": (lq_schedule_inputs, lq_schedule_run, lq_schedule_check),
    "tree-adversary": (tree_adversary_inputs, tree_adversary_run,
                       tree_adversary_check),
    "point-queries": (point_queries_inputs, point_queries_run,
                      point_queries_check),
}

# reproducers of known defects: they fail on most seeds, so no bound or
# correctness gate can use them
REPRODUCERS = {
    "distance-basins": (distance_basins_inputs, distance_basins_run,
                        distance_basins_check),
}


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
