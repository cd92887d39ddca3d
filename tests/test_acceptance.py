"""End-to-end acceptance criteria.  Each test prints a single PASS line with
the measured quantity; a failure shows up as the test's FAIL line instead."""

import math

import numpy as np
import pytest

from deltaconvex import (CORPUS_LABELS, NormedSpace, SolverConfig,
                         analytic_modulus_lower, ball_grid, build_sign_tree,
                         build_tree_family, inf_convolve_grid, make_corpus,
                         modulus_of_convexity, rate_bound,
                         regularize_power_grid, regularize_quadratic,
                         run_adversary, validate_tree)
from deltaconvex.experiments import (ExperimentConfig, run_converge,
                                     run_sandwich)
from deltaconvex.cli import main

TOL = 1e-6
LEAN = SolverConfig(coarse_samples=160, starts=2, tolerance=TOL)


def _pass(n, msg):
    print(f"\nPASS criterion {n}: {msg}")


# ---------------------------------------------------------------------------
# criteria 4 & 5 share one sweep: envelope + inf-convolution per combo
# ---------------------------------------------------------------------------

RATE_CASES = [(2.0, 2), (4.0, 2), (2.0, 3)]
RATE_LAMBDAS = (16.0, 64.0, 256.0)


@pytest.fixture(scope="module")
def rate_sweep():
    out = {}
    for p, d in RATE_CASES:
        space = NormedSpace(d, p)
        grid = 41 if d == 2 else 17
        X = ball_grid(space, np.zeros(d), 1.0, grid)
        for f in make_corpus(space):
            fX = np.asarray(f(X), dtype=float)
            for lam in RATE_LAMBDAS:
                env, _, _, _, _ = regularize_power_grid(
                    f, p, lam, X, space, LEAN)
                infc, _, _, _, _ = inf_convolve_grid(
                    f, p, lam, X, space, LEAN)
                out[(p, d, f.label, lam)] = (fX, env, infc)
    return out


def test_criterion_01_hilbert_identity():
    worst = 0.0
    for d in (1, 2, 3):
        space = NormedSpace(d, 2.0)
        X = ball_grid(space, np.zeros(d), 1.0, 41)
        for f in make_corpus(space):
            for lam in (9.0, 36.0, 144.0):
                env, _, _, _, _ = regularize_power_grid(
                    f, 2.0, lam, X, space, LEAN)
                moreau, _, _, _, _ = inf_convolve_grid(
                    f, 2.0, lam, X, space, LEAN)
                worst = max(worst, float(np.abs(env - moreau).max()))
    assert worst <= 2.0 * TOL
    _pass(1, f"Hilbert operator identity, max grid gap {worst:.3e} "
             f"<= {2 * TOL:.0e} (41^d grids, d in 1..3)")


def test_criterion_02_huber_oracle():
    space = NormedSpace(1, 2.0)
    f = [g for g in make_corpus(space) if g.label == "norm"][0]
    errs = []
    for x, want in ((0.25, 0.0625), (2.0, 1.75)):
        got = regularize_quadratic(f, 1.0, np.array([x]), space).value
        errs.append(abs(got - want))
        assert abs(got - want) <= 1e-6
    _pass(2, f"Huber oracle f_1(0.25)=0.0625, f_1(2)=1.75, "
             f"max err {max(errs):.2e} <= 1e-06")


def test_criterion_03_monotone_sandwich():
    space = NormedSpace(2, 2.0)
    X = ball_grid(space, np.zeros(2), 1.0, 21)
    worst_mono, worst_upper = -math.inf, -math.inf
    for f in make_corpus(space):
        fX = np.asarray(f(X), dtype=float)
        prev = None
        for lam in (4.0, 16.0, 64.0):
            env, _, _, _, _ = regularize_power_grid(
                f, 2.0, lam, X, space, LEAN)
            worst_upper = max(worst_upper, float((env - fX).max()))
            if prev is not None:
                worst_mono = max(worst_mono, float((prev - env).max()))
            prev = env
    assert worst_mono <= 2.0 * TOL
    assert worst_upper <= 2.0 * TOL
    _pass(3, f"monotone sandwich over corpus, worst monotonicity gap "
             f"{worst_mono:.2e}, worst f-excess {worst_upper:.2e} "
             f"<= {2 * TOL:.0e}")


def test_criterion_04_rate_reproduction(rate_sweep):
    worst_margin = -math.inf
    for (p, d, label, lam), (fX, env, _) in rate_sweep.items():
        measured = float(np.abs(fX - env).max())
        bound = rate_bound(p, 1.0, lam, 1.0) + 1e-4
        worst_margin = max(worst_margin, measured - bound)
        assert measured <= bound, (p, d, label, lam, measured, bound)
    assert np.isclose(rate_bound(2.0, 1.0, 100.0), 0.01)
    _pass(4, f"rate reproduction on {len(rate_sweep)} (p,d,f,lambda) combos, "
             f"worst measured-bound margin {worst_margin:.2e} <= 0")


def test_criterion_05_eq26_sandwich(rate_sweep):
    worst = -math.inf
    for (p, d, label, lam), (fX, env, infc) in rate_sweep.items():
        low = float((infc - env).max())
        high = float((env - fX).max())
        worst = max(worst, low, high)
        assert max(low, high) <= 2.0 * TOL, (p, d, label, lam, low, high)
    _pass(5, f"three-way sandwich inf_conv <= f_lambda^p <= f, worst "
             f"violation {worst:.2e} <= {2 * TOL:.0e}")


def test_criterion_06_inequality_fuzz():
    rng = np.random.default_rng(20240817)
    n = 100_000
    slack = 1e-9

    # Eq (1): defect2 >= (|x| - |y|)^2 >= 0
    worst1 = math.inf
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        sp = NormedSpace(3, p)
        x = sp.ball_sample(rng, n, radius=2.0)
        y = sp.ball_sample(rng, n, radius=2.0)
        gap = sp.defect2(x, y) - (sp.norm(x) - sp.norm(y)) ** 2
        worst1 = min(worst1, float(gap.min()))
        assert gap.min() >= -slack

    # Lemma 3.1: on l_q, q >= 2, p = q: defect_p >= |x-y|^p
    worst2 = math.inf
    for q in (2.0, 2.5, 3.0, 4.0):
        sp = NormedSpace(3, q)
        x = sp.ball_sample(rng, n, radius=2.0)
        y = sp.ball_sample(rng, n, radius=2.0)
        gap = sp.defect_p(q, x, y) - sp.norm(x - y) ** q
        worst2 = min(worst2, float(gap.min()))
        assert gap.min() >= -slack

    # Eq (25): |u+v|^p + |u-v|^p >= 2|u|^p + C'|v|^p with C' = 2
    worst3 = math.inf
    for q in (2.0, 2.5, 3.0, 4.0):
        sp = NormedSpace(3, q)
        u = sp.ball_sample(rng, n, radius=2.0)
        v = sp.ball_sample(rng, n, radius=2.0)
        gap = (sp.norm(u + v) ** q + sp.norm(u - v) ** q
               - 2.0 * sp.norm(u) ** q - 2.0 * sp.norm(v) ** q)
        worst3 = min(worst3, float(gap.min()))
        assert gap.min() >= -slack

    # per-pair chain: defect2(x, z) for z between x and y is controlled by
    # defect2(x, y) plus norm-level correction terms
    worst4 = math.inf
    for p in (1.0, 2.0, 3.0, math.inf):
        sp = NormedSpace(3, p)
        x = sp.ball_sample(rng, n, radius=2.0)
        y = sp.ball_sample(rng, n, radius=2.0)
        mu = rng.random(n)[:, None]
        z = mu * x + (1.0 - mu) * y
        nx2 = sp.norm(x) ** 2
        ny2 = sp.norm(y) ** 2
        nm2 = sp.norm(0.5 * (x + y)) ** 2
        rhs = (sp.defect2(x, y) + np.abs(nx2 - ny2)
               + 4.0 * np.maximum(np.abs(nm2 - nx2), np.abs(nm2 - ny2)))
        gap = rhs - sp.defect2(x, z)
        worst4 = min(worst4, float(gap.min()))
        assert gap.min() >= -slack

    _pass(6, f"fuzz suites ({n} trials each): defect lower bound "
             f"{worst1:.2e}, power defect {worst2:.2e}, two-point power "
             f"inequality {worst3:.2e}, convex-combination chain "
             f"{worst4:.2e}, all >= -1e-09")


def test_criterion_07_tree_validity():
    tree = build_sign_tree(16)
    assert tree.node_count == 131071
    space = NormedSpace(16, math.inf)
    rep = validate_tree(tree, space)
    assert rep.midpoint_exact
    assert rep.min_separation >= 1.0
    assert rep.separation_ok

    fam = build_tree_family([2, 4, 6])
    fspace = NormedSpace(fam.ambient_dim, math.inf)
    arrays = [np.vstack([t.level_array(k) for k in range(t.depth + 1)])
              for t in fam.trees]
    cross_min = math.inf
    for i in range(3):
        frep = validate_tree(fam.trees[i], fspace)
        assert frep.midpoint_exact and frep.separation_ok
        for j in range(i + 1, 3):
            dist = fspace.norm(arrays[i][:, None, :] - arrays[j][None, :, :])
            cross_min = min(cross_min, float(dist.min()))
    assert cross_min >= 1.0
    _pass(7, f"depth-16 tree: midpoint law bit-exact on 131071 nodes, "
             f"separation {rep.min_separation:g} ({rep.pairs_checked} pairs); "
             f"3-member family mutual distance {cross_min:g} >= 1")


def test_criterion_08_adversary_lower_bounds():
    cfg = ExperimentConfig(values={"depths": "8,16,32"})
    result = run_adversary(cfg)
    assert result.violations == []
    by_pair = {}
    for row in result.rows:
        assert row.measured >= row.bound - 1e-9
        by_pair.setdefault(row.function, []).append(row.bound)
    assert by_pair["sup-quad"] == [0.0, 0.125, 0.1875]  # M = 1 sequence
    assert by_pair["zero"] == [0.25, 0.25, 0.25]
    worst = min(r.measured - r.bound for r in result.rows)
    _pass(8, f"adversary bounds on depths 8/16/32 for "
             f"{len(by_pair)} convex pairs, min measured-bound slack "
             f"{worst:.4g} >= 0; walk soundness held on every run")


def test_criterion_09_modulus_brackets():
    space = NormedSpace(2, 2.0)
    worst = 0.0
    for eps in (0.5, 1.0, 1.5):
        est = modulus_of_convexity(space, eps)
        ref = analytic_modulus_lower(space, eps)
        worst = max(worst, abs(est.upper - ref))
        assert abs(est.upper - ref) <= 1e-3
        assert est.lower <= est.upper
    l1 = modulus_of_convexity(NormedSpace(2, 1.0), 1.0)
    assert l1.upper == 0.0
    _pass(9, f"modulus brackets: Euclidean match within {worst:.2e} "
             f"<= 1e-03; l1 upper at eps=1 is {l1.upper:g}")


def test_criterion_10_determinism(tmp_path):
    runs = {
        "converge": ["converge", "--set", "dim=1", "--set", "grid=9",
                     "--set", "lambdas=16,64", "--set", "coarse_samples=64"],
        "adversary": ["adversary", "--set", "depths=4,8",
                      "--set", "deep_samples=32"],
    }
    for name, argv in runs.items():
        outs = []
        for tag in ("a", "b"):
            path = tmp_path / f"{name}-{tag}.csv"
            assert main(argv + ["--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1], name
    _pass(10, "identical config + seed give byte-identical CSV "
              "(converge, adversary)")


# (q, power) on l_q^2 and the radii of the grids far from the origin
WHOLE_SPACE_CASES = [(2.0, 2.0), (4.0, 4.0)]
WHOLE_SPACE_RADII = (1e3, 1e6)


def test_criterion_11_whole_space_rate():
    # with a proven C the search ball's radius does not depend on x, so
    # the rate bound holds on the whole space; the difference formula of Q
    # lost it to rounding far from the origin (1.4e11 against a bound of
    # 0.40 at radius 1e6 on l4^2)
    worst_ratio, worst_sandwich, runs = 0.0, 0.0, 0
    for q, power in WHOLE_SPACE_CASES:
        for radius in WHOLE_SPACE_RADII:
            for label in CORPUS_LABELS:
                values = {"dim": "2", "p": f"{q:g}", "power": f"{power:g}",
                          "radius": f"{radius:g}", "function": label}
                conv = run_converge(ExperimentConfig(values=dict(values)))
                sand = run_sandwich(ExperimentConfig(values=dict(values)))
                case = (q, power, radius, label)
                assert conv.violations == [], (case, conv.violations)
                assert sand.violations == [], (case, sand.violations)
                worst_ratio = max(worst_ratio, max(
                    r.measured / r.bound for r in conv.rows))
                worst_sandwich = max(worst_sandwich, max(
                    r.measured for r in sand.rows))
                runs += 2
    _pass(11, f"whole-space rate on l2^2 (power 2) and l4^2 (power 4) at "
              f"radius 1e3 and 1e6 over the corpus, {runs} runs: worst "
              f"measured/bound {worst_ratio:.3g} <= 1, worst sandwich "
              f"violation {worst_sandwich:.2e} <= {2 * TOL:.0e}")
