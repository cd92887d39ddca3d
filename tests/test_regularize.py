import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import deltaconvex.regularize as reg
from deltaconvex import (CORPUS_LABELS, ConvexPair, DimensionMismatchError,
                         LipschitzFunction, NormedSpace, ParameterError, SolverConfig,
                         SolverError, ball_grid, corpus_function, decompose,
                         inf_convolve, inf_convolve_grid, inner_minimize,
                         rate_bound, regularize_power, regularize_power_grid,
                         regularize_quadratic)

L2_1 = NormedSpace(1, 2.0)
L2_2 = NormedSpace(2, 2.0)


def _bound(obj):
    """A test objective ``obj(H, idx)`` in the bound form of the solver:
    ``idx`` to an evaluator of the offsets ``H``."""
    return lambda idx: lambda H: obj(H, idx)


def abs_fn():
    return corpus_function(L2_1, "norm")  # |x| in 1D


def const_fn(space, c):
    def ev(x):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape[:-1], c) if x.ndim > 1 else c
    return LipschitzFunction(ev, 1.0, "const")


def huber(x, lam=1.0):
    x = abs(x)
    return lam * x * x if x <= 1.0 / (2 * lam) else x - 1.0 / (4 * lam)


class TestSearchRadius:
    """The radius the power operators return: |x| plus the Clarkson ball's
    radius where a constant is proven, else the restricted ball's
    2(1 + |x|), which needs lambda >= 3L."""

    CFG = SolverConfig(coarse_samples=16, refine_iterations=5)
    L1_2 = NormedSpace(2, 1.0)

    def test_examples(self):
        f = corpus_function(self.L1_2, "norm")
        X = np.array([[1.0, 0.0], [0.0, 0.0], [0.5, -1.5]])
        R = regularize_power_grid(f, 2.0, 3.0, X, self.L1_2, self.CFG)[4]
        assert R.tolist() == [4.0, 2.0, 6.0]
        r = regularize_quadratic(f, 10.0, X[1], self.L1_2, self.CFG)
        assert r.search_radius == 2.0
        # L = 2, lambda = 6 renormalizes to the threshold case
        f2 = LipschitzFunction(lambda x: 2.0 * f(x), 2.0, "twice-norm")
        R = regularize_power_grid(f2, 2.0, 6.0, X[:1], self.L1_2, self.CFG)[4]
        assert R.tolist() == [4.0]
        # l2^1 has C = 1: |x| + L/(lambda C)
        R = regularize_power_grid(abs_fn(), 2.0, 4.0, np.array([[1.0]]), L2_1,
                                  self.CFG)[4]
        assert R.tolist() == [1.25]

    def test_below_threshold(self):
        f = corpus_function(self.L1_2, "norm")
        with pytest.raises(ParameterError, match="[Rr]aise lambda"):
            regularize_power_grid(f, 2.0, 2.0, np.zeros((1, 2)), self.L1_2,
                                  self.CFG)


class TestInnerMinimize:
    def test_smooth_quadratic(self):
        q = np.array([0.3, -0.4])

        def obj(y):
            y = np.atleast_2d(y)
            return ((y - q) ** 2).sum(axis=-1)

        y, v, diag = inner_minimize(obj, np.zeros(2), 2.0)
        assert v <= 1e-8
        assert np.abs(y - q).max() <= 1e-4
        assert diag["evaluations"] > 0

    def test_constant(self):
        def obj(y):
            y = np.atleast_2d(y)
            return np.full(y.shape[0], 7.0)

        _, v, _ = inner_minimize(obj, np.zeros(1), 1.0)
        assert v == 7.0

    def test_1d_kinked_oracle(self):
        # min of |y| + (y-1)^2 is 0.75 at y = 0.5 (frozen dense-grid value)
        def obj(y):
            y = np.atleast_2d(y)[:, 0]
            return np.abs(y) + (y - 1.0) ** 2

        y, v, _ = inner_minimize(obj, np.zeros(1), 3.0)
        assert abs(v - 0.75) <= 1e-6
        assert abs(y[0] - 0.5) <= 1e-3

    def test_scalar_objective_wrapped(self):
        y, v, _ = inner_minimize(lambda y: float((y ** 2).sum()),
                                 np.array([0.5]), 1.0)
        assert v <= 1e-8

    def test_non_finite_reported(self):
        def obj(y):
            y = np.atleast_2d(y)
            out = y[:, 0].copy()
            out[out > 0.5] = math.nan
            return out

        with pytest.raises(SolverError) as err:
            inner_minimize(obj, np.zeros(1), 2.0)
        assert err.value.point is not None

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            inner_minimize(lambda y: 0.0, np.zeros(1), 0.0)


class TestRegularizeQuadratic:
    def test_huber_oracle(self):
        f = abs_fn()
        for x in (0.25, 2.0, 0.0, -0.7):
            r = regularize_quadratic(f, 1.0, np.array([x]), L2_1)
            assert abs(r.value - huber(x)) <= 1e-6

    def test_huber_closed_form_within_finish_step(self):
        # the compass finishes at tolerance/8, which bounds the error here
        f = abs_fn()
        X = np.linspace(-2.0, 2.0, 41)[:, None]
        for lam in (1.0, 4.0, 16.0):
            vals, _, _, _, _ = regularize_power_grid(f, 2.0, lam, X, L2_1)
            want = np.array([huber(x, lam) for x in X[:, 0]])
            assert np.abs(vals - want).max() <= SolverConfig().tolerance / 8

    def test_constant_function(self):
        f = const_fn(L2_2, 5.0)
        for lam in (1.0, 4.0, 100.0):
            r = regularize_quadratic(f, lam, np.array([0.3, -0.9]), L2_2)
            assert abs(r.value - 5.0) <= 1e-9

    def test_upper_bound_contract_and_radius(self):
        f = corpus_function(L2_2, "distance")
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(40, 2))
        vals, pts, _, _, R = regularize_power_grid(f, 2.0, 9.0, X, L2_2)
        assert np.all(vals <= f(X) + 1e-12)
        assert np.all(L2_2.norm(pts) <= R + 1e-9)

    def test_monotone_in_lambda(self):
        f = corpus_function(L2_2, "sawtooth")
        X = ball_grid(L2_2, np.zeros(2), 1.0, 9)
        prev = None
        for lam in (4.0, 16.0, 64.0):
            vals, _, _, _, _ = regularize_power_grid(f, 2.0, lam, X, L2_2)
            if prev is not None:
                assert np.all(prev <= vals + 2e-6)
            prev = vals

    def test_threshold_on_non_clarkson_space(self):
        space = NormedSpace(2, math.inf)
        f = corpus_function(space, "norm")
        with pytest.raises(ParameterError, match="threshold"):
            regularize_power_grid(f, 2.0, 1.0, np.zeros((1, 2)), space)
        vals, _, _, _, _ = regularize_power_grid(
            f, 2.0, 4.0, np.zeros((1, 2)), space)
        assert vals[0] <= 1e-9


class TestRegularizePower:
    def test_p2_matches_quadratic(self):
        f = corpus_function(L2_2, "max-affine")
        X = ball_grid(L2_2, np.zeros(2), 1.0, 7)
        a, _, _, _, _ = regularize_power_grid(f, 2.0, 9.0, X, L2_2)
        b = np.array([regularize_quadratic(f, 9.0, x, L2_2).value
                      for x in X])
        assert np.abs(a - b).max() <= 2e-6

    def test_p4_identity_rate(self):
        f = corpus_function(L2_1, "linear")
        X = np.linspace(-1.0, 1.0, 81)[:, None]
        vals, _, _, _, _ = regularize_power_grid(f, 4.0, 16.0, X, L2_1)
        sup = float(np.max(f(X) - vals))
        assert sup <= (1.0 / 16.0) ** (1.0 / 3.0)

    def test_constant(self):
        f = const_fn(L2_1, -2.0)
        r = regularize_power(f, 4.0, 16.0, np.array([0.4]), L2_1)
        assert abs(r.value + 2.0) <= 1e-9

    def test_bad_power(self):
        f = abs_fn()
        with pytest.raises(ParameterError):
            regularize_power(f, 1.5, 16.0, np.array([0.0]), L2_1)


class TestInfConvolve:
    def test_huber(self):
        f = abs_fn()
        r = inf_convolve(f, 2.0, 1.0, np.array([0.25]), L2_1)
        assert abs(r.value - 0.0625) <= 1e-6

    def test_pasch_hausdorff_identity(self):
        # power 1 with lambda >= L leaves a Lipschitz function unchanged
        f = corpus_function(L2_2, "distance")
        X = ball_grid(L2_2, np.zeros(2), 1.0, 7)
        vals, _, _, _, _ = inf_convolve_grid(f, 1.0, 1.0, X, L2_2)
        assert np.abs(vals - f(X)).max() <= 2e-6

    def test_constant(self):
        f = const_fn(L2_2, 3.0)
        r = inf_convolve(f, 2.0, 5.0, np.array([0.1, 0.1]), L2_2)
        assert abs(r.value - 3.0) <= 1e-9

    def test_bad_parameters(self):
        f = abs_fn()
        with pytest.raises(ParameterError):
            inf_convolve(f, 0.5, 1.0, np.array([0.0]), L2_1)
        with pytest.raises(ParameterError):
            inf_convolve(f, 2.0, -1.0, np.array([0.0]), L2_1)


class TestDecompose:
    def test_zero_function_closed_form(self):
        f = const_fn(L2_1, 0.0)
        pair = decompose(f, 4.0, L2_1)
        for x in (0.0, 0.5, -1.2):
            xv = np.array([x])
            assert abs(pair.d(xv) - 8.0 * x * x) <= 1e-6
            assert abs(pair.c(xv) - pair.d(xv)) <= 2e-6

    def test_identity_against_regularizer(self):
        f = corpus_function(L2_2, "sawtooth")
        pair = decompose(f, 9.0, L2_2)
        X = ball_grid(L2_2, np.zeros(2), 1.0, 5)
        lhs = pair.c(X) - pair.d(X)
        rhs, _, _, _, _ = regularize_power_grid(f, 2.0, 9.0, X, L2_2)
        assert np.abs(lhs - rhs).max() <= 2e-6

    def test_midpoint_convexity_fuzz(self):
        f = corpus_function(L2_2, "max-affine")
        pair = decompose(f, 9.0, L2_2)
        rng = np.random.default_rng(3)
        u = L2_2.ball_sample(rng, 10_000, radius=2.0)
        v = L2_2.ball_sample(rng, 10_000, radius=2.0)
        for g in (pair.c, pair.d):
            gu, gv, gm = g(u), g(v), g(0.5 * (u + v))
            assert np.max(gm - 0.5 * (gu + gv)) <= 1e-9 + 4e-6

    def test_d_route_keeps_solver_config(self, monkeypatch):
        import deltaconvex.regularize as reg
        seen = []
        real = reg._minimize_rows

        def spy(obj, X, space, cfg, *args, **kwargs):
            seen.append(cfg)
            return real(obj, X, space, cfg, *args, **kwargs)

        monkeypatch.setattr(reg, "_minimize_rows", spy)
        cfg = SolverConfig(coarse_samples=64, refine_iterations=20,
                           tolerance=1e-5, seed=7, starts=1)
        decompose(const_fn(L2_1, 0.0), 4.0, L2_1, cfg).d(np.array([0.3]))
        assert seen == [SolverConfig(coarse_samples=64, refine_iterations=20,
                                     tolerance=1e-5, seed=8, starts=1)]

    @pytest.mark.parametrize("q", [2.0, 4.0])
    @pytest.mark.parametrize("label", ["sawtooth", "max-affine"])
    def test_d_is_c_minus_regularizer(self, q, label):
        # d = c - f_lam, solved by the regularizer with d's own seed
        space = NormedSpace(2, q)
        f = corpus_function(space, label)
        cfg = SolverConfig(coarse_samples=64, seed=5)
        X = ball_grid(space, np.zeros(2), 1.0, 5)
        d = decompose(f, 9.0, space, cfg).d(X)
        f_lam = regularize_power_grid(f, 2.0, 9.0, X, space,
                                      replace(cfg, seed=cfg.seed + 1))[0]
        assert np.array_equal(d, 2.0 * 9.0 * space.norm(X) ** 2 - f_lam)

    def test_pair_fields(self):
        pair = decompose(const_fn(L2_1, 0.0), 4.0, L2_1)
        assert isinstance(pair, ConvexPair)
        assert pair.lam == 4.0
        assert pair.c(np.array([0.0])) == 0.0


class TestThresholdRule:
    """One lambda >= 3L rule, with one message, behind every operator that
    searches the restricted ball |y| <= 2(1 + |x|)."""

    CFG = SolverConfig(coarse_samples=16, refine_iterations=5)

    def calls(self, lam):
        l1, linf = NormedSpace(2, 1.0), NormedSpace(2, math.inf)
        X = np.zeros((1, 2))
        return [
            lambda: regularize_power_grid(corpus_function(l1, "norm"), 2.0,
                                          lam, X, l1, self.CFG),
            lambda: regularize_power_grid(corpus_function(linf, "norm"), 2.0,
                                          lam, X, linf, self.CFG),
            lambda: decompose(corpus_function(l1, "norm"), lam, l1,
                              self.CFG),
        ]

    def test_below_threshold_one_message(self):
        messages = set()
        for call in self.calls(2.9):
            with pytest.raises(ParameterError) as err:
                call()
            messages.add(str(err.value))
        assert len(messages) == 1
        msg = messages.pop()
        assert "threshold" in msg and "raise lambda" in msg

    def test_at_threshold_accepted(self):
        for call in self.calls(3.0):
            call()


class TestGridHelpers:
    def test_ball_grid_filters(self):
        pts = ball_grid(L2_2, np.zeros(2), 1.0, 41)
        assert np.all(L2_2.norm(pts) <= 1.0 + 1e-12)
        assert len(pts) < 41 * 41

    def test_ball_grid_guards(self):
        with pytest.raises(ValueError):
            ball_grid(L2_2, np.zeros(2), 1.0, 1)
        with pytest.raises(ValueError):
            ball_grid(NormedSpace(5, 2.0), np.zeros(5), 1.0, 3)


BOUNDARY_CFG = SolverConfig(coarse_samples=16, refine_iterations=5)


def _entry_points(space):
    f = corpus_function(space, "linear")
    return {
        "regularize_power_grid": lambda X: regularize_power_grid(
            f, 2.0, 4.0, X, space, BOUNDARY_CFG),
        "inf_convolve_grid": lambda X: inf_convolve_grid(
            f, 2.0, 4.0, X, space, BOUNDARY_CFG),
        "decompose.d": lambda X: decompose(f, 4.0, space, BOUNDARY_CFG).d(X),
        "inner_minimize": lambda X: inner_minimize(
            lambda Y: np.asarray(Y)[..., 0], X[0], 1.0, BOUNDARY_CFG, space),
    }


class TestBoundaryValidation:
    """Each public entry point checks its points once, before any solve."""

    @pytest.mark.parametrize("q", [2.0, 4.0, math.inf])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point(self, q, bad):
        space = NormedSpace(2, q)
        for name, call in _entry_points(space).items():
            with pytest.raises(ValueError, match="non-finite"):
                call(np.array([[0.1, bad]]))

    @pytest.mark.parametrize("dim", [1, 3])
    def test_wrong_dimension(self, dim):
        for name, call in _entry_points(L2_2).items():
            with pytest.raises(DimensionMismatchError):
                call(np.zeros((1, dim)))

    @pytest.mark.parametrize("name,shape", [
        *[(name, shape) for name in ("regularize_quadratic",
                                     "regularize_power", "inf_convolve")
          for shape in [(), (1, 2), (3, 2)]],
        ("inner_minimize", (1, 2)), ("inner_minimize", (3, 2)),
        *[(name, shape) for name in ("decompose.d", "regularize_power_grid",
                                     "inf_convolve_grid")
          for shape in [(), (1, 1, 2), (2, 512, 2)]]])
    def test_point_shape(self, monkeypatch, name, shape):
        # a batch at a single-point call, or a scalar or a 3-D batch at a
        # batch call, fails with its shape before any solve or evaluation
        def solve(*args, **kwargs):
            raise AssertionError("solved")

        def objective(Y):
            raise AssertionError("evaluated")

        monkeypatch.setattr(reg, "_minimize_rows", solve)
        f = corpus_function(L2_2, "linear")
        call = {
            "regularize_quadratic": lambda x: regularize_quadratic(
                f, 4.0, x, L2_2, BOUNDARY_CFG),
            "regularize_power": lambda x: regularize_power(
                f, 2.0, 4.0, x, L2_2, BOUNDARY_CFG),
            "inf_convolve": lambda x: inf_convolve(
                f, 2.0, 4.0, x, L2_2, BOUNDARY_CFG),
            "inner_minimize": lambda x: inner_minimize(
                objective, x, 1.0, BOUNDARY_CFG, L2_2),
            "decompose.d": decompose(f, 4.0, L2_2, BOUNDARY_CFG).d,
            "regularize_power_grid": lambda x: regularize_power_grid(
                f, 2.0, 4.0, x, L2_2, BOUNDARY_CFG),
            "inf_convolve_grid": lambda x: inf_convolve_grid(
                f, 2.0, 4.0, x, L2_2, BOUNDARY_CFG),
        }[name]
        with pytest.raises(DimensionMismatchError,
                           match=re.escape(str(shape))):
            call(np.zeros(shape))

    def test_inner_minimize_checks_before_evaluating(self):
        calls = []

        def obj(Y):
            calls.append(Y)
            return np.zeros(np.atleast_2d(Y).shape[0])

        with pytest.raises(ValueError, match="non-finite"):
            inner_minimize(obj, np.array([math.nan, 0.0]), 1.0)
        assert calls == []


class TestRateBound:
    def test_paper_value(self):
        assert np.isclose(rate_bound(2.0, 1.0, 100.0, 1.0), 0.01)

    def test_scaled_value(self):
        # L * (L/(lam C))^(1/(p-1)) with L=2: 2 * (2/100) = 0.04
        assert np.isclose(rate_bound(2.0, 1.0, 100.0, 2.0), 0.04)

    def test_p4_value(self):
        assert np.isclose(rate_bound(4.0, 1.0, 1000.0, 1.0), 0.1)

    def test_rejects_bad_constant(self):
        with pytest.raises(ParameterError):
            rate_bound(2.0, 0.0, 100.0)
        with pytest.raises(ParameterError):
            rate_bound(2.0, 1.5, 100.0)

    # L = -1 gave the complex (-2e-17-0.333j), nan gave nan and 0 gave 0.0
    @pytest.mark.parametrize("L", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_bad_lipschitz_constant(self, L):
        with pytest.raises(ParameterError, match="L must be"):
            rate_bound(3.0, 1.0, 9.0, L=L)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(coarse_samples=0)
        for tol in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="tolerance"):
                SolverConfig(tolerance=tol)
        with pytest.raises(ValueError):
            SolverConfig(starts=0)
        with pytest.raises(ValueError):
            SolverConfig(refine_iterations=-1)
        # each message opens with the field's name, which ExperimentConfig
        # maps to a ConfigError; these once failed inside the first solve
        bad = [("seed", -1), ("seed", 1.5), ("seed", math.nan),
               ("coarse_samples", 2.5), ("starts", 2.5),
               ("refine_iterations", 2.5)]
        for name, value in bad:
            with pytest.raises(ValueError, match=f"^{name} must be"):
                SolverConfig(**{name: value})
        # numpy integers are integers
        cfg = SolverConfig(coarse_samples=np.int64(64), seed=np.uint8(3),
                           starts=np.int32(2), refine_iterations=np.int16(5))
        assert cfg == SolverConfig(coarse_samples=64, seed=3, starts=2,
                                   refine_iterations=5)

    def test_determinism(self):
        f = corpus_function(L2_2, "distance")
        X = np.array([[0.3, -0.2], [0.9, 0.1]])
        a = regularize_power_grid(f, 2.0, 9.0, X, L2_2)[0]
        b = regularize_power_grid(f, 2.0, 9.0, X, L2_2)[0]
        assert np.array_equal(a, b)


class TestCompassFinish:
    """A row finishes at tolerance/8, but the search counts as converged
    when every row's step ended below the tolerance itself."""

    # the cap refine_iterations + 40*d is 40 iterations in 1-D
    CFG = SolverConfig(refine_iterations=0, tolerance=1e-12)

    def compass(self, y0):
        def obj(Y, idx):
            return np.abs(Y[:, 0])

        # a ball about 0, so the offset h is the point y
        H = np.array([[y0]])
        step = np.array([0.25])
        conv = reg._compass(_bound(obj), H, obj(H, None), step, L2_1,
                            self.CFG, np.array([10.0]))
        return bool(conv), step[0]

    def test_capped_below_tolerance_converged(self):
        # no move improves on y = 0: 40 halvings leave 0.25 * 2^-40
        conv, step = self.compass(0.0)
        assert step == 0.25 * 2.0 ** -40
        assert self.CFG.tolerance / 8 <= step < self.CFG.tolerance
        assert conv

    def test_capped_at_tolerance_not_converged(self):
        # four moves to y = 0 leave 36 halvings: 0.25 * 2^-36 >= tolerance
        conv, step = self.compass(1.0)
        assert step == 0.25 * 2.0 ** -36
        assert not conv


# The solver with points stored row by row, (rows, d), in the offset frame
# h = y - centre: the reference for the coordinate-major layout, which must
# reproduce it bit for bit (values, minimizers, evaluation counts and
# converged flags).  It binds the objective on every evaluation and counts
# and checks the values itself.

def _ref_eval(obj, idx, H, centers, counter):
    """obj bound to rows ``idx`` at the offsets ``H``, counted and checked:
    a non-finite value reports its point y = centre + h."""
    v = np.asarray(obj(idx)(H), dtype=float)
    counter.evals += H.shape[0]
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise SolverError("objective returned a non-finite value",
                          point=centers[idx[bad[0]]] + H[bad[0]])
    return v


def _ref_project_rows(space, H, radii):
    nd = space._norm(H)
    over = nd > radii
    if over.any():
        H = H.copy()
        scale = np.broadcast_to(radii, nd.shape)[over] / nd[over]
        H[over] = H[over] * scale[:, None]
    return H


def _ref_lex_best(cands, vals):
    tied = np.flatnonzero(vals == vals.min())
    if tied.size == 1:
        return int(tied[0])
    return int(tied[np.lexsort(cands[tied].T[::-1])[0]])


def _ref_coarse_stage(obj, space, cfg, centers, radii, counter, n_keep=8):
    N, d = radii.size, space.dim
    m = cfg.coarse_samples
    k = min(n_keep, m)
    pool = reg._unit_ball_pool(space, m, cfg.seed)
    keep_pts = np.empty((N, k, d))
    chunk = max(1, (1 << 18) // m)
    for lo in range(0, N, chunk):
        hi = min(N, lo + chunk)
        rows = np.arange(lo, hi)
        cand = radii[lo:hi][:, None, None] * pool[None, :, :]
        vals = _ref_eval(obj, np.repeat(rows, m), cand.reshape(-1, d),
                         centers, counter).reshape(-1, m)
        part = np.argpartition(vals, k - 1, axis=1)[:, :k]
        r = np.arange(hi - lo)[:, None]
        order = np.argsort(vals[r, part], axis=1, kind="stable")
        sel = part[r, order]
        keep_pts[lo:hi] = cand[r, sel]
        tied = np.flatnonzero((vals == vals[r, sel[:, :1]]).sum(axis=1) > 1)
        for t in tied:
            keep_pts[lo + t, 0] = cand[t, _ref_lex_best(cand[t], vals[t])]
    return keep_pts


def _ref_compass(obj, H, vals, step, space, cfg, radii, counter, centers):
    N, d = H.shape
    dirs = np.vstack([np.eye(d), -np.eye(d)])
    tol = cfg.tolerance
    for _ in range(cfg.refine_iterations + 40 * d):
        active = step >= tol / 8.0
        if not active.any():
            break
        rows = np.flatnonzero(active)
        T = H[rows][:, None, :] + step[rows][:, None, None] * dirs[None]
        T = _ref_project_rows(space, T, radii[rows][:, None])
        tv = _ref_eval(obj, np.repeat(rows, 2 * d), T.reshape(-1, d),
                       centers, counter).reshape(-1, 2 * d)
        j = tv.argmin(axis=1)
        tmin = tv[np.arange(rows.size), j]
        better = tmin < vals[rows]
        moved = rows[better]
        H[moved] = T[better, j[better]]
        vals[moved] = tmin[better]
        step[rows[~better]] *= 0.5
    return (step < tol).all()


def _ref_minimize_rows(obj, X, space, cfg, centers, radii, extra_vals=None):
    """The row-major stacked minimizer."""
    N = X.shape[0]
    counter = reg._Counter()
    keep_pts = _ref_coarse_stage(obj, space, cfg, centers, radii, counter)
    starts = reg._select_starts(space, keep_pts, sep=radii * 0.25,
                                k_starts=cfg.starts)
    owner = np.tile(np.arange(N), len(starts))

    def stacked(idx):
        return obj(owner[idx])

    H = np.concatenate(starts)
    vals = _ref_eval(obj, owner, H, centers, counter)
    converged = _ref_compass(stacked, H, vals, radii[owner] * 0.25, space,
                             cfg, radii[owner], counter, centers[owner])
    best = vals.reshape(-1, N).argmin(axis=0) * N + np.arange(N)
    best_vals = vals[best]
    best_pts = centers + H[best]
    if extra_vals is not None:
        upd = extra_vals < best_vals
        best_vals[upd] = extra_vals[upd]
        best_pts[upd] = X[upd]
    return best_vals, best_pts, counter.evals, converged


def _sequential_minimize(obj, X, space, cfg, centers, radii, extra_vals=None):
    """Reference: one row-major compass search per start, reduced in start
    order with a strict <, as the minimizer ran before the starts were
    stacked."""
    N, d = X.shape
    counter = reg._Counter()
    keep_pts = _ref_coarse_stage(obj, space, cfg, centers, radii, counter)
    starts = reg._select_starts(space, keep_pts, sep=radii * 0.25,
                                k_starts=cfg.starts)
    best_vals = np.full(N, np.inf)
    best_pts = np.empty((N, d))
    converged = True
    for H0 in starts:
        H = H0.copy()
        vals = _ref_eval(obj, np.arange(N), H, centers, counter)
        conv = _ref_compass(obj, H, vals, radii * 0.25, space, cfg, radii,
                            counter, centers)
        converged = converged and conv
        upd = vals < best_vals
        best_vals[upd] = vals[upd]
        best_pts[upd] = centers[upd] + H[upd]
    if extra_vals is not None:
        upd = extra_vals < best_vals
        best_vals[upd] = extra_vals[upd]
        best_pts[upd] = X[upd]
    return best_vals, best_pts, counter.evals, converged


def _assert_same_solve(got, want):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]
    assert bool(got[3]) == bool(want[3])


STACK_CFG = SolverConfig(coarse_samples=64, refine_iterations=40, seed=3)
STACK_CASES = [(NormedSpace(2, 2.0), 2.0), (NormedSpace(2, 4.0), 4.0),
               (NormedSpace(3, 1.0), 2.0), (NormedSpace(2, math.inf), 2.0)]


class TestStackedMultistart:
    """The stacked compass search returns exactly what one search per start
    returned: values, minimizers, evaluation count and converged flag."""

    @pytest.fixture
    def solves(self, monkeypatch):
        seen = []
        real = reg._minimize_rows

        def spy(*args, **kwargs):
            got = real(*args, **kwargs)
            seen.append((got, _sequential_minimize(*args, **kwargs)))
            return got

        monkeypatch.setattr(reg, "_minimize_rows", spy)
        return seen

    def assert_identical(self, solves, calls):
        assert len(solves) == calls
        for got, want in solves:
            _assert_same_solve(got, want)

    @pytest.mark.parametrize("starts", [1, 2, 3, 5])
    @pytest.mark.parametrize("space,p", STACK_CASES,
                             ids=lambda c: c.describe() if hasattr(c, "describe")
                             else f"p{c:g}")
    @pytest.mark.parametrize("n", [1, 6])
    def test_power_and_inf_convolution(self, solves, space, p, starts, n):
        cfg = replace(STACK_CFG, starts=starts)
        X = space.ball_sample(np.random.default_rng(n), n)
        for label in ("norm", "max-affine"):
            f = corpus_function(space, label)
            regularize_power_grid(f, p, 9.0, X, space, cfg)
            inf_convolve_grid(f, p, 9.0, X, space, cfg)
        self.assert_identical(solves, 4)

    def test_grid_of_more_than_100_rows(self, solves):
        X = ball_grid(L2_2, np.zeros(2), 1.0, 13)
        assert X.shape[0] > 100
        f = corpus_function(L2_2, "distance")
        regularize_power_grid(f, 2.0, 9.0, X, L2_2, STACK_CFG)
        inf_convolve_grid(f, 2.0, 9.0, X, L2_2, STACK_CFG)
        self.assert_identical(solves, 2)

    @pytest.mark.parametrize("starts", [1, 2, 3, 5])
    def test_decompose_d_and_scalar_inner_minimize(self, solves, starts):
        cfg = replace(STACK_CFG, starts=starts)
        f = corpus_function(L2_2, "sawtooth")
        decompose(f, 9.0, L2_2, cfg).d(ball_grid(L2_2, np.zeros(2), 1.0, 5))
        inner_minimize(lambda y: float(np.abs(y - 0.3).sum()),
                       np.array([0.1, -0.2]), 1.0, cfg)
        self.assert_identical(solves, 2)

    @pytest.mark.parametrize("m", [1, 4, 7])
    def test_pool_smaller_than_keep(self, solves, m):
        cfg = replace(STACK_CFG, coarse_samples=m, starts=3)
        X = L2_2.ball_sample(np.random.default_rng(m), 6)
        for label in ("norm", "max-affine"):
            f = corpus_function(L2_2, label)
            regularize_power_grid(f, 2.0, 9.0, X, L2_2, cfg)
            inf_convolve_grid(f, 2.0, 9.0, X, L2_2, cfg)
        self.assert_identical(solves, 4)

    @pytest.mark.parametrize("k", [1, 2, 4, 7])
    def test_short_keep_equals_padded_keep(self, k):
        # a pool of m < 8 points keeps k = m candidates; padding them to 8
        # with copies of column k-1 selects the same starts
        keep = np.random.default_rng(k).uniform(-1.0, 1.0, (60, k, 2))
        keep[::3] *= 0.05  # rows whose candidates sit within the separation
        padded = np.concatenate(
            [keep, np.repeat(keep[:, -1:], 8 - k, axis=1)], axis=1)
        sep = np.full(60, 0.25)
        for starts in (1, 2, 3, 5, 9):
            got = reg._select_starts(L2_2, keep, sep, starts)
            want = reg._select_starts(L2_2, padded, sep, starts)
            assert len(got) == len(want) == starts
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("starts", [2, 3])
    def test_tie_goes_to_the_earlier_start(self, starts):
        # two flat-bottomed basins where the objective is exactly 0: every
        # start already sits at 0, so all compass endpoints tie
        def obj(Y, idx):
            y = Y[:, 0]
            return np.maximum(
                0.0, np.minimum(np.abs(y - 0.6), np.abs(y + 0.6)) - 0.2)

        X = np.zeros((1, 1))
        radii = np.array([1.5])
        cfg = replace(STACK_CFG, starts=starts)
        keep_pts = reg._coarse_stage(_bound(obj), L2_1, cfg, radii)
        first = reg._select_starts(L2_1, keep_pts, sep=radii * 0.25,
                                   k_starts=starts)
        assert all(obj(Y0, None)[0] == 0.0 for Y0 in first)
        assert not np.array_equal(first[0], first[1])
        vals, pts, _, _ = reg._minimize_rows(_bound(obj), X, L2_1, cfg,
                                             X, radii)
        want = _sequential_minimize(_bound(obj), X, L2_1, cfg, X, radii)
        assert vals[0] == 0.0
        assert np.array_equal(pts, first[0])
        assert np.array_equal(pts, want[1])


REF_CFG = SolverConfig(coarse_samples=24, refine_iterations=12,
                       tolerance=1e-5, starts=2, seed=5)
REF_BATCHES = (1, 63, 64, 65, 700)


class TestCoordinateMajorLayout:
    """Candidate, start and trial points stored by coordinate, gathered by
    ``take``: the solver returns exactly what the row-major solver
    returned."""

    @pytest.fixture
    def solves(self, monkeypatch):
        seen = []
        real = reg._minimize_rows

        def spy(*args, **kwargs):
            got = real(*args, **kwargs)
            seen.append((got, _ref_minimize_rows(*args, **kwargs)))
            return got

        monkeypatch.setattr(reg, "_minimize_rows", spy)
        return seen

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, 4.0, math.inf])
    def test_operators_equal_row_major(self, solves, q, d):
        # each batch size gets another corpus function; power 4 on l3 and
        # l4 runs the defect kernel past its quadratic case
        space = NormedSpace(d, q)
        p = 4.0 if q in (3.0, 4.0) else 2.0
        X = space.ball_sample(np.random.default_rng(d), max(REF_BATCHES))
        for k, n in enumerate(REF_BATCHES):
            f = corpus_function(space, CORPUS_LABELS[(k + d) % 5])
            regularize_power_grid(f, p, 9.0, X[:n], space, REF_CFG)
            inf_convolve_grid(f, 2.0, 9.0, X[:n], space, REF_CFG)
        assert len(solves) == 2 * len(REF_BATCHES)
        for got, want in solves:
            _assert_same_solve(got, want)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, 4.0, math.inf])
    def test_boundary_minima_equal_row_major(self, q, d):
        # a linear objective has its minimum on the ball's boundary, so the
        # best candidates start there and the compass trials are projected
        space = NormedSpace(d, q)
        X = space.ball_sample(np.random.default_rng(7 + d), 65)
        radii = np.linspace(0.5, 1.5, 65)

        def obj(Y, idx):
            return -(Y[:, 0] + 0.5 * Y[:, d - 1])

        for n in (1, 65):
            args = (_bound(obj), X[:n], space, REF_CFG, X[:n],
                    radii[:n])
            got = reg._minimize_rows(*args)
            _assert_same_solve(got, _ref_minimize_rows(*args))
            r = space.norm(got[1] - X[:n])
            assert np.allclose(r, radii[:n], rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("d", [8, 9])
    @pytest.mark.parametrize("q", [2.0, 3.0])
    def test_wide_rows_equal_row_major(self, solves, q, d):
        # from 8 coordinates numpy sums a contiguous row pairwise, so the
        # strided rows of a coordinate-major block are summed as copies
        space = NormedSpace(d, q)
        X = space.ball_sample(np.random.default_rng(d), 7)
        cfg = replace(REF_CFG, coarse_samples=64)
        for label in ("norm", "distance"):
            f = corpus_function(space, label)
            inf_convolve_grid(f, 2.0, 9.0, X, space, cfg)
            regularize_power_grid(f, 2.0, 9.0, X[:1], space, cfg)
        assert len(solves) == 4
        for got, want in solves:
            _assert_same_solve(got, want)

    def test_grid_across_coarse_chunks(self, solves):
        # 512 pool points on l2^2 make a chunk of 2^16 // 1024 = 64 rows,
        # so 700 rows take eleven chunks, the last of 60 rows
        cfg = replace(REF_CFG, coarse_samples=512)
        X = L2_2.ball_sample(np.random.default_rng(3), 700)
        regularize_power_grid(corpus_function(L2_2, "distance"), 2.0, 9.0, X,
                              L2_2, cfg)
        assert len(solves) == 1
        _assert_same_solve(*solves[0])

    @pytest.mark.parametrize("m", [2, 8, 160])
    def test_coarse_ties_equal_row_major(self, m):
        # a staircase objective ties many candidates of a row, often more
        # than the 8 that are kept; the leading one goes to the least in
        # lexicographic order
        def obj(Y, idx):
            return np.floor(4.0 * Y[:, 0]) + 0.0 * Y[:, 1]

        cfg = replace(REF_CFG, coarse_samples=m)
        X = L2_2.ball_sample(np.random.default_rng(m), 70)
        radii = np.full(70, 0.3)
        got = reg._coarse_stage(_bound(obj), L2_2, cfg, radii)
        want = _ref_coarse_stage(_bound(obj), L2_2, cfg, X, radii,
                                 reg._Counter())
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_non_finite_objective_reports_point(self, d):
        space = NormedSpace(d, 2.0)
        X = space.ball_sample(np.random.default_rng(d), 5)
        radii = np.full(5, 2.0)

        def obj(H, idx):
            out = X[idx, 0] + H[:, 0]  # coordinate 0 of y = centre + h
            out[out > 0.5] = math.nan
            return out

        errors = []
        for solve in (reg._minimize_rows, _ref_minimize_rows):
            with pytest.raises(SolverError) as err:
                solve(_bound(obj), X, space, REF_CFG, X, radii)
            errors.append(err.value.point)
        got, want = errors
        assert got.shape == (d,) and got[0] > 0.5
        assert np.array_equal(got, want)

    @staticmethod
    def raised_points(monkeypatch, call):
        """The SolverError point of ``call``, then those of the solver and
        of the row-major reference given the arguments it received."""
        real = reg._minimize_rows
        points = []

        def spy(*args, **kwargs):
            for solve in (real, _ref_minimize_rows):
                with pytest.raises(SolverError) as err:
                    solve(*args, **kwargs)
                points.append(err.value.point)
            return real(*args, **kwargs)

        monkeypatch.setattr(reg, "_minimize_rows", spy)
        with pytest.raises(SolverError) as err:
            call()
        return [err.value.point] + points

    @pytest.mark.parametrize("q", [1.0, math.inf])
    def test_non_finite_reports_y_on_restricted_route(self, monkeypatch, q):
        # l_1 and l_inf search a ball about 0, not about x: the failing
        # point is y = 0 + h, where f is not finite
        space = NormedSpace(2, q)

        def ev(Y):
            return np.where(Y[..., 0] > 0.5, math.nan, Y[..., 1])

        f = LipschitzFunction(ev, 1.0, "nan-right")
        X = np.array([[0.25, -0.5], [-0.75, 0.5]])
        points = self.raised_points(
            monkeypatch, lambda: regularize_power_grid(f, 2.0, 9.0, X, space,
                                                       REF_CFG))
        assert len(points) == 3
        for y in points:
            assert np.array_equal(y, points[0]) and np.isnan(f(y))

    def test_non_finite_reports_y_through_inner_minimize(self, monkeypatch):
        center = np.array([0.7, -0.4])

        def objective(Y):
            return np.where(Y[:, 0] > 1.0, math.nan, Y.sum(axis=1))

        points = self.raised_points(
            monkeypatch, lambda: inner_minimize(objective, center, 1.0,
                                                REF_CFG))
        assert len(points) == 3
        for y in points:
            assert np.array_equal(y, points[0]) and y[0] > 1.0

    def test_objective_receives_point_rows(self):
        # objectives get (n, d) float arrays, which may be strided views
        seen = []

        def obj(Y):
            seen.append((Y.ndim, Y.shape[-1], Y.dtype))
            return (Y ** 2).sum(axis=-1)

        inner_minimize(obj, np.array([0.2, -0.1, 0.4]), 1.0, REF_CFG)
        assert set(seen) == {(2, 3, np.dtype(float))}


class TestBatchIndependence:
    """A row's value and minimiser do not depend on how many rows share its
    grid call: the kernels behind the solver take a different summation path
    below 64 rows, with identical rounding."""

    @pytest.mark.parametrize("label", ["norm", "linear", "max-affine",
                                       "sawtooth", "distance"])
    @pytest.mark.parametrize("q", [2.0, 4.0])
    def test_grid_rows_equal_single_rows(self, q, label):
        space = NormedSpace(2, q)
        cfg = SolverConfig(coarse_samples=160, starts=2, seed=3)
        X = ball_grid(space, np.zeros(2), 1.0, 11)
        assert X.shape[0] > 64
        f = corpus_function(space, label)
        vals, pts, _, _, _ = regularize_power_grid(f, q, 9.0, X, space, cfg)
        for i in (0, X.shape[0] // 2, X.shape[0] - 1):
            v, y, _, _, _ = regularize_power_grid(f, q, 9.0, X[i:i + 1],
                                                  space, cfg)
            assert v[0] == vals[i]
            assert np.array_equal(y[0], pts[i])


class TestPublicParameters:
    """lambda, power and radius are checked once, at the public entry."""

    @pytest.mark.parametrize("lam", [-1.0, 0.0, math.inf, math.nan])
    def test_lambda_must_be_finite_positive(self, lam):
        f = corpus_function(L2_2, "norm")
        x = np.zeros(2)
        calls = [
            lambda: regularize_quadratic(f, lam, x, L2_2),
            lambda: regularize_power_grid(f, 4.0, lam, x[None], L2_2),
            lambda: inf_convolve_grid(f, 2.0, lam, x[None], L2_2),
            lambda: inf_convolve(f, 1.0, lam, x, L2_2),
            lambda: rate_bound(2.0, 1.0, lam),
        ]
        for call in calls:
            with pytest.raises(ParameterError, match="lambda"):
                call()

    @pytest.mark.parametrize("lam", [-1.0, 0.0, math.inf])
    @pytest.mark.parametrize("q", [2.0, 1.0])
    def test_decompose_checks_lambda_before_any_solve(self, monkeypatch,
                                                      lam, q):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the lambda check")

        monkeypatch.setattr(reg, "_minimize_rows", no_solve)
        space = NormedSpace(2, q)
        with pytest.raises(ParameterError, match="lambda"):
            decompose(corpus_function(space, "norm"), lam, space)

    def test_power_must_be_finite(self):
        f = corpus_function(L2_2, "norm")
        x = np.zeros(2)
        for call in (lambda: inf_convolve(f, math.inf, 9.0, x, L2_2),
                     lambda: regularize_power(f, math.inf, 9.0, x, L2_2),
                     lambda: rate_bound(math.inf, 1.0, 9.0),
                     lambda: rate_bound(math.nan, 1.0, 9.0),
                     lambda: rate_bound(1.0, 1.0, 9.0)):
            with pytest.raises(ParameterError, match="power"):
                call()

    @pytest.mark.parametrize("radius", [math.inf, math.nan, -1.0])
    def test_radius_must_be_finite_positive(self, radius):
        with pytest.raises(ParameterError, match="radius"):
            inner_minimize(lambda y: 0.0, np.zeros(2), radius)


# one-row chunks and slices, then sizes that split the batches unevenly:
# on l^2 with 24 pool points, block 97 makes coarse chunks of 2 rows and
# compass slices of 12 rows, and block 337 chunks of 7; on l^3 they are 1
# and 5, then 4 and 18
SOLVER_BLOCKS = (1, 97, 337)
BLOCK_CASES = [(NormedSpace(2, 2.0), 2.0), (NormedSpace(3, 2.0), 2.0),
               (NormedSpace(2, 4.0), 4.0), (NormedSpace(3, 1.0), 2.0),
               (NormedSpace(2, math.inf), 2.0)]


class TestSolverBlocks:
    """The coarse stage and the compass search take their rows in blocks of
    about ``spaces._BLOCK`` doubles; any block size returns exactly what the
    default block and the row-major solver return."""

    @pytest.fixture
    def solves(self, monkeypatch):
        seen = []
        real = reg._minimize_rows

        def spy(*args, **kwargs):
            got = real(*args, **kwargs)
            blocked, default = [], reg._BLOCK
            for block in SOLVER_BLOCKS:
                monkeypatch.setattr(reg, "_BLOCK", block)
                blocked.append(real(*args, **kwargs))
            monkeypatch.setattr(reg, "_BLOCK", default)
            seen.append((got, blocked, _ref_minimize_rows(*args, **kwargs)))
            return got

        monkeypatch.setattr(reg, "_minimize_rows", spy)
        return seen

    def assert_identical(self, solves, calls):
        assert len(solves) == calls
        for got, blocked, want in solves:
            _assert_same_solve(got, want)
            for other in blocked:
                _assert_same_solve(other, got)

    @pytest.mark.parametrize("space,p", BLOCK_CASES,
                             ids=lambda c: c.describe() if hasattr(c, "describe")
                             else f"p{c:g}")
    def test_operators(self, solves, space, p):
        X = space.ball_sample(np.random.default_rng(11), 9)
        for label in ("norm", "max-affine", "distance"):
            f = corpus_function(space, label)
            regularize_power_grid(f, p, 9.0, X, space, REF_CFG)
            inf_convolve_grid(f, p, 9.0, X, space, REF_CFG)
        self.assert_identical(solves, 6)

    def test_decompose_d_and_scalar_inner_minimize(self, solves):
        space = NormedSpace(3, 2.0)
        f = corpus_function(space, "sawtooth")
        decompose(f, 9.0, space, REF_CFG).d(
            space.ball_sample(np.random.default_rng(2), 9))
        inner_minimize(lambda y: float(np.abs(y - 0.3).sum()),
                       np.array([0.1, -0.2, 0.05]), 1.0, REF_CFG)
        self.assert_identical(solves, 2)

    def test_objective_calls_follow_the_block(self, monkeypatch):
        # block 97 on l2^2 with 24 pool points: coarse chunks of 2 rows (48
        # candidates), the 18 stacked starts in one call, then compass
        # slices of at most 12 rows (48 trial points)
        monkeypatch.setattr(reg, "_BLOCK", 97)
        sizes = []

        def obj(Y, idx):
            sizes.append(Y.shape[0])
            return ((Y - 0.1) ** 2).sum(axis=1)

        X = L2_2.ball_sample(np.random.default_rng(4), 9)
        reg._minimize_rows(_bound(obj), X, L2_2, REF_CFG, X,
                           np.full(9, 0.5))
        assert sizes[:6] == [48, 48, 48, 48, 24, 18]
        assert max(sizes[6:]) == 48
        assert all(n % 4 == 0 for n in sizes[6:])

    def test_criterion_one_solve_memory(self):
        # one criterion-1 grid call (l2^3, 41 per axis, 33,401 rows) peaked
        # near 115 MB with coarse chunks of 2^18 // 160 rows; in blocks of
        # about 2^16 doubles it peaks near 63 MB.  A fresh interpreter runs
        # the call in a child and reports the child's peak.
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(reg.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        solve = ("import numpy as np; import deltaconvex as dc; "
                 "sp = dc.NormedSpace(3, 2.0); "
                 "X = dc.ball_grid(sp, np.zeros(3), 1.0, 41); "
                 "cfg = dc.SolverConfig(coarse_samples=160, starts=2); "
                 "v = dc.regularize_power_grid(dc.corpus_function(sp, "
                 "'norm'), 2.0, 9.0, X, sp, cfg)[0]; "
                 "print(X.shape[0], bool(np.isfinite(v).all()))")
        probe = ("import resource, subprocess, sys; "
                 f"out = subprocess.run([sys.executable, '-c', {solve!r}], "
                 "capture_output=True, text=True).stdout.strip(); "
                 "print(out or 'failed', resource.getrusage("
                 "resource.RUSAGE_CHILDREN).ru_maxrss)")
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=600)
        *report, peak_kib = proc.stdout.split()
        assert report == ["33401", "True"], proc.stderr
        assert int(peak_kib) / 1024 < 90


# every space and power the compacted compass search was checked on: l2^2,
# l1^3, l_inf^2, l4^2 at p = 4, l10^2 at power 12 (the compensated defect),
# 1-D l3 and l2^3 at p = 3
COMPACT_CASES = [(NormedSpace(2, 2.0), 2.0), (NormedSpace(3, 1.0), 2.0),
                 (NormedSpace(2, math.inf), 2.0), (NormedSpace(2, 4.0), 4.0),
                 (NormedSpace(2, 10.0), 12.0), (NormedSpace(1, 3.0), 2.0),
                 (NormedSpace(3, 2.0), 3.0)]
COMPACT_IDS = [f"{s.describe()}-p{p:g}" for s, p in COMPACT_CASES]


def _pulls(space, n, seed):
    """A row-dependent objective, (obj, targets, sizes): row i pulls
    towards targets[i] with its own weight.  ``sizes`` records the number
    of points of every call."""
    rng = np.random.default_rng(seed)
    targets = space.ball_sample(rng, n, radius=0.8)
    weights = rng.uniform(0.5, 2.0, n)
    sizes = []

    def obj(Y, idx):
        sizes.append(Y.shape[0])
        return weights[idx] * space._norm(Y - targets[idx])

    return obj, targets, sizes


def _both_compasses(space, obj, Y, step, cfg):
    """The compacted search and the row-major reference from the same rows
    ``Y`` (N, d) with unit balls around 0, where the offset is the point:
    (new, reference), each as (minimizers, values, steps, converged,
    evaluations)."""
    N = Y.shape[0]
    radii = np.ones(N)
    zeros = np.zeros_like(Y)
    out = []
    for compacted in (True, False):
        counter = reg._Counter()
        Y0, s0 = Y.copy(), step.copy()
        v0 = _ref_eval(_bound(obj), np.arange(N), Y0, zeros, counter)
        if compacted:
            YT = np.ascontiguousarray(Y0.T)
            conv = reg._compass(reg._checked(_bound(obj), counter, zeros),
                                YT, v0, s0, space, cfg, radii)
            Y0 = YT.T
        else:
            conv = _ref_compass(_bound(obj), Y0, v0, s0, space, cfg, radii,
                                counter, zeros)
        out.append((Y0, v0, s0, bool(conv), counter.evals))
    return out


def _assert_same_compass(got, want):
    for a, b in zip(got[:3], want[:3]):
        assert np.array_equal(a, b)
    assert got[3:] == want[3:]


class TestCompactedCompass:
    """The compass search works on a compacted copy of its active rows and
    rebinds the objective only when that set shrinks: it returns exactly
    what the row-major search and one search per start return."""

    @pytest.mark.parametrize("space,p", COMPACT_CASES, ids=COMPACT_IDS)
    def test_rows_finish_on_different_iterations(self, space, p):
        # each row starts a few of its own steps from its target, so it
        # stops moving early and then needs its own number of halvings
        n = 12
        obj, targets, sizes = _pulls(space, n, 1)
        step = 0.25 * 2.0 ** -np.arange(0.0, n)
        Y = targets + 3.3 * step[:, None] * np.linspace(1.0, 0.5, space.dim)
        cfg = SolverConfig(refine_iterations=200, tolerance=1e-6)
        got, want = _both_compasses(space, obj, Y, step, cfg)
        _assert_same_compass(got, want)
        assert got[3] and (got[2] < cfg.tolerance / 8).all()
        # the active set shrank at least four times
        assert len(set(sizes)) >= 5

    @pytest.mark.parametrize("space,p", COMPACT_CASES, ids=COMPACT_IDS)
    def test_capped_rows_written_back(self, space, p):
        # steps from 2^-40 to 2^100 near the targets: the short ones finish
        # early, the long ones still search at the cap of 40*d iterations
        n = 15
        obj, targets, _ = _pulls(space, n, 3)
        step = 2.0 ** np.linspace(-40.0, 100.0, n)
        Y = targets + 3.3 * np.minimum(step, 2.0 ** -10)[:, None]
        cfg = SolverConfig(refine_iterations=0, tolerance=1e-12)
        got, want = _both_compasses(space, obj, Y, step, cfg)
        _assert_same_compass(got, want)
        finished = got[2] < cfg.tolerance / 8
        assert finished.any() and not finished.all() and not got[3]
        assert not np.array_equal(got[0], Y)

    @pytest.mark.parametrize("width", [1, 3, 5])
    @pytest.mark.parametrize("space,p", COMPACT_CASES, ids=COMPACT_IDS)
    def test_slices_of_one_or_an_odd_number_of_rows(self, monkeypatch, space,
                                                    p, width):
        d = space.dim
        monkeypatch.setattr(reg, "_BLOCK", 2 * d * d * width)
        seen = []
        real = reg._minimize_rows

        def spy(*args, **kwargs):
            got = real(*args, **kwargs)
            for ref in (_ref_minimize_rows, _sequential_minimize):
                _assert_same_solve(got, ref(*args, **kwargs))
            seen.append(got)
            return got

        monkeypatch.setattr(reg, "_minimize_rows", spy)
        X = space.ball_sample(np.random.default_rng(width), 7)
        for label in ("norm", "max-affine"):
            f = corpus_function(space, label)
            regularize_power_grid(f, p, 9.0, X, space, REF_CFG)
            inf_convolve_grid(f, p, 9.0, X, space, REF_CFG)
        decompose(corpus_function(space, "sawtooth"), 9.0, space,
                  REF_CFG).d(X[:3])
        inner_minimize(lambda y: float(np.abs(y - 0.3).sum()), X[0], 1.0,
                       REF_CFG, space)
        assert len(seen) == 6
        # every compass call holds at most ``width`` rows of 2d trials
        obj, _, sizes = _pulls(space, 7, 5)
        real(_bound(obj), X, space, REF_CFG, X, np.full(7, 0.5))
        trials = sizes[sizes.index(7 * REF_CFG.starts) + 1:]
        assert max(trials) == 2 * d * width
        assert all(t % (2 * d) == 0 for t in trials)

    @pytest.mark.parametrize("space,p", COMPACT_CASES, ids=COMPACT_IDS)
    def test_non_finite_after_compaction(self, space, p):
        # the objective of row 0, which has the longest step, turns to nan
        # once three rows have finished: both searches report its first
        # trial point
        n = 12
        pull, targets, sizes = _pulls(space, n, 6)
        d = space.dim

        def obj(Y, idx):
            out = pull(Y, idx)
            if len(idx) <= 2 * d * (n - 3):
                out[idx == 0] = math.nan
            return out

        step = 0.25 * 2.0 ** -np.arange(0.0, n)
        Y = targets + 3.3 * step[:, None]
        cfg = SolverConfig(refine_iterations=200, tolerance=1e-6)
        errors = []
        zeros = np.zeros_like(Y)
        for compacted in (True, False):
            counter = reg._Counter()
            v0 = _ref_eval(_bound(pull), np.arange(n), Y, zeros, counter)
            del sizes[:]
            with pytest.raises(SolverError) as err:
                if compacted:
                    reg._compass(reg._checked(_bound(obj), counter, zeros),
                                 Y.T.copy(), v0, step.copy(), space, cfg,
                                 np.ones(n))
                else:
                    _ref_compass(_bound(obj), Y.copy(), v0, step.copy(),
                                 space, cfg, np.ones(n), counter, zeros)
            errors.append((err.value.point, counter.evals))
            assert sizes[-1] <= 2 * d * (n - 3) < sizes[0]
        (got, got_evals), (want, want_evals) = errors
        assert got.shape == (d,) and np.isfinite(got).all()
        assert np.array_equal(got, want) and got_evals == want_evals

    @pytest.mark.parametrize("q", [2.0, 4.0, math.inf])
    def test_screen_projects_at_the_boundary(self, monkeypatch, q):
        # slices of one row.  Rows 0-3 start on the unit sphere, within the
        # screen's margin of it, and rows 4-7 near 0, all pulled to targets
        # outside the ball with long steps, so trials leave the ball on many
        # iterations; rows 8-11 stay well inside.  Skipped and projecting
        # slices both occur, and the search matches the reference, which
        # projects every trial
        space = NormedSpace(2, q)
        d, n = 2, 12
        monkeypatch.setattr(reg, "_BLOCK", 2 * d * d)
        rng = np.random.default_rng(7)
        dirs = rng.standard_normal((n, d))
        dirs /= space.norm(dirs)[:, None]
        turn = dirs[:, ::-1] * [1.0, -1.0]
        turn /= space.norm(turn)[:, None]
        Y = dirs * np.repeat([1.0, 0.2, 0.1], 4)[:, None]
        targets = (dirs + 0.3 * turn) * np.repeat([1.5, 1.3, 0.3], 4)[:, None]
        step = np.repeat([0.5, 0.25, 0.05], 4)
        assert (np.abs(space.norm(Y[:4]) - 1.0) < 1e-15).all()
        assert (space.norm(targets[:8]) > 1.0).all()
        sizes, moved = [], []

        def obj(Y, idx):
            sizes.append(Y.shape[0])
            return space._norm(Y - targets[idx])

        def project(space, B, radii):
            before = B.copy()
            real(space, B, radii)
            moved.append(not np.array_equal(B, before))

        real = reg._project
        monkeypatch.setattr(reg, "_project", project)
        cfg = SolverConfig(refine_iterations=40, tolerance=1e-6)
        got, want = _both_compasses(space, obj, Y, step, cfg)
        _assert_same_compass(got, want)
        # the compacted search evaluates n start values, then one slice of
        # 2d trials per call, until the reference's n start values
        slice_calls = sizes.index(n, 1) - 1
        assert set(sizes[1:slice_calls + 1]) == {2 * d}
        assert 0 < len(moved) < slice_calls
        assert any(moved)
        assert (space.norm(got[0][:8]) > 0.99).all()

    def test_screen_margin_at_the_last_ulp(self):
        # on l_1 the bound |h| + s and the trial's norm add the same three
        # doubles in a different order: here the bound rounds to the radius
        # 1 and the +e_0 trial to 1 + 2^-52, so a screen of b + s <= r
        # would skip a projection that moves the winning trial.  The
        # objective is flat beyond y_0 = 0.9, so that first move is the
        # last one and its bits are the result
        space = NormedSpace(2, 1.0)
        Y = np.array([[0.7060739738961044, 0.04392602610389576]])
        step = np.array([0.25])
        assert (Y[0, 0] + Y[0, 1]) + step[0] == 1.0
        assert (Y[0, 0] + step[0]) + Y[0, 1] > 1.0
        cfg = SolverConfig(refine_iterations=10, tolerance=1e-3)
        got, want = _both_compasses(
            space, lambda Y, idx: -np.minimum(Y[:, 0], 0.9), Y, step, cfg)
        _assert_same_compass(got, want)
        assert space.norm(got[0][0]) <= 1.0 and got[1][0] == -0.9

    @pytest.mark.parametrize("seed", [0, 5])
    def test_single_points_equal_references(self, monkeypatch, seed):
        # one point per call at the default profile, as the public
        # single-point operators run it
        seen = []
        real = reg._minimize_rows

        def spy(*args, **kwargs):
            got = real(*args, **kwargs)
            assert args[1].shape[0] == 1
            for ref in (_ref_minimize_rows, _sequential_minimize):
                _assert_same_solve(got, ref(*args, **kwargs))
            seen.append(got)
            return got

        monkeypatch.setattr(reg, "_minimize_rows", spy)
        cfg = SolverConfig(seed=seed)
        L4_2 = NormedSpace(2, 4.0)
        rng = np.random.default_rng(seed)
        for k, label in enumerate(("norm", "linear", "sawtooth",
                                   "max-affine")):
            x = L2_2.ball_sample(rng, 1)[0]
            f = corpus_function(L2_2, label)
            regularize_quadratic(f, 9.0, x, L2_2, cfg)
            inf_convolve(f, 2.0, 9.0, x, L2_2, cfg)
            decompose(f, 9.0, L2_2, cfg).d(x)
            regularize_power(corpus_function(L4_2, label), 4.0, 9.0, x,
                             L4_2, cfg)
        assert len(seen) == 16
