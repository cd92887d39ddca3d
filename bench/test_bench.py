"""Tests of the benchmark's own parts: the closed-form oracle, the span
arithmetic, the tail percentile and the wrapping of the package.

    python3 -m pytest -q bench
"""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import oracle
import run
import workloads
from tracer import PER_LAYER, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_huber_pins_criterion_2_values():
    # f = |.| on l2^1, lambda = 1: inside and outside the quadratic zone
    got = oracle.envelope("norm", np.array([[0.25], [2.0]]), 1.0)
    assert got.tolist() == [0.0625, 1.75]


@pytest.mark.parametrize("label", oracle.ORACLE_LABELS)
@pytest.mark.parametrize("lam", [1.0, 9.0, 144.0])
def test_envelope_matches_brute_force_in_one_dimension(label, lam):
    anchors = np.array([[-0.7], [0.4], [1.3]])
    funcs = {
        "norm": np.abs,
        "linear": lambda y: y,
        "sawtooth": lambda y: np.abs(y - np.round(y)),
        "distance": lambda y: np.abs(y[:, None] - anchors[:, 0]).min(axis=1),
    }
    xs = np.linspace(-1.5, 1.5, 61)
    ys = np.linspace(-4.0, 4.0, 400_001)
    fy = funcs[label](ys)
    brute = [float((fy + lam * (x - ys) ** 2).min()) for x in xs]
    want = oracle.envelope(label, xs[:, None], lam, anchors)
    # a grid point lies within 1e-5 of the minimiser, where the objective's
    # slope is at most 2
    assert np.abs(want - brute).max() <= 2e-5


def test_unknown_label_is_refused():
    with pytest.raises(KeyError):
        oracle.envelope("max-affine", np.zeros((1, 2)), 9.0)


def test_bisector_points_sit_just_off_the_bisector():
    rng = np.random.default_rng(5)
    anchors = rng.uniform(-1.5, 1.5, size=(5, 3))
    X = workloads._bisector_points(rng, anchors, 32, 2e-4)
    d = np.sort(np.linalg.norm(X[:, None, :] - anchors[None], axis=2),
                axis=1)
    # |y - b| - |y - a| = 2*offset*|a - b| / (|y - a| + |y - b|) <= 4e-4
    gap = d[:, 1] - d[:, 0]
    assert X.shape == (32, 3)
    assert (gap > 0).all() and (gap <= 4e-4 + 1e-12).all()


def test_self_time_skips_transparent_spans():
    t = Tracer()
    # cli.main [0, 10] > helper (no layer) [1, 9] > run_converge [2, 8]
    # > norm [3, 4]; run_converge's time counts against cli.main
    t.spans = [
        ["cli.main", 0.0, 10.0, -1, 0, None],
        ["regularize.ball_grid", 1.0, 9.0, 0, 0, None],
        ["experiments.run_converge", 2.0, 8.0, 1, 0, {"rows": 3}],
        ["spaces.NormedSpace.norm", 3.0, 4.0, 2, 0,
         {"rows": 5, "bytes": 80}],
    ]
    assert t.self_times() == [4.0, 0.0, 5.0, 1.0]
    layers = t.per_layer()
    assert layers["cli.main.self_s"] == 4.0
    assert layers["experiments.run_converge.rows"] == 3
    assert layers["spaces.norm.rows"] == 5
    assert t.ops_without_root(2) == [1]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(100))) == (90.0, 89)
    assert run.tail_percentile(list(range(20))) == (50.0, 9)
    assert run.tail_percentile(list(range(19))) is None


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == \
        sorted(run.WORKLOADS)


def test_install_reaches_from_imports_and_the_cli_table(tmp_path):
    # in a child interpreter, so the wrapped package does not leak into
    # other tests
    code = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {os.path.join(ROOT, 'bench')!r})
        import deltaconvex as dc, deltaconvex.cli
        from tracer import Tracer
        t = Tracer()
        t.install(dc)
        out = {str(tmp_path / 'c.csv')!r}
        t.op = 0
        rc = dc.cli.main(["converge", "--set", "dim=1", "--set", "grid=5",
                          "--set", "lambdas=16,64",
                          "--set", "coarse_samples=32", "--out", out])
        t.op = None
        rows = [l for l in open(out) if l[0] not in "#e"]
        csv_evals = sum(int(l.split(",")[7]) for l in rows)
        layers = t.per_layer()
        print(rc, csv_evals, layers["regularize.evals"],
              layers["experiments.run_converge.calls"],
              layers["cli.main.calls"], t.ops_without_root(1))
    """)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    rc, csv_evals, span_evals, runs, mains, rootless = \
        out.stdout.split(maxsplit=5)
    assert rc == "0"
    assert int(csv_evals) > 0 and span_evals == csv_evals
    assert (runs, mains, rootless.strip()) == ("1", "1", "[]")
