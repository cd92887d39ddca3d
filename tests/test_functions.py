import math

import numpy as np
import pytest

from deltaconvex import (CORPUS_LABELS, LipschitzFunction, NormedSpace,
                         PointSet, corpus_function, distance_function,
                         make_corpus)


def sampled_ratio(f, space, trials=4000, seed=1, radius=3.0):
    """Largest |f(x) - f(y)| / |x - y| over random pairs of the ball: a
    lower bound on the Lipschitz constant of f."""
    rng = np.random.default_rng(seed)
    xs = space.ball_sample(rng, trials, radius=radius)
    ys = space.ball_sample(rng, trials, radius=radius)
    den = space.norm(xs - ys)
    keep = den > 1e-9
    return float((np.abs(f(xs[keep]) - f(ys[keep])) / den[keep]).max())


class TestLipschitzFunction:
    # an infinite constant was accepted, and the regularizer then failed
    # with a non-finite objective value
    @pytest.mark.parametrize("L", [math.inf, math.nan, 0.0, -1.0])
    def test_constant_must_be_finite_positive(self, L):
        with pytest.raises(ValueError, match="lipschitz_constant"):
            LipschitzFunction(lambda x: x[..., 0], L, "x")


class TestDistanceFunction:
    def test_values(self):
        space = NormedSpace(2, 2.0)
        pts = PointSet(np.array([[0.0, 0.0], [2.0, 1.0]]))
        f = distance_function(space, pts)
        assert np.isclose(f(np.array([0.0, 2.0])), 2.0)
        assert np.isclose(f(np.array([1.0, 0.0])), 1.0)
        assert f(np.array([2.0, 1.0])) == 0.0

    def test_batch_matches_scalar(self):
        space = NormedSpace(3, 2.0)
        rng = np.random.default_rng(0)
        pts = PointSet(rng.normal(size=(4, 3)))
        f = distance_function(space, pts)
        X = rng.normal(size=(50, 3))
        batch = f(X)
        singles = np.array([float(f(row)) for row in X])
        assert np.allclose(batch, singles, rtol=1e-12, atol=1e-12)

    def test_other_norms(self):
        space = NormedSpace(2, math.inf)
        f = distance_function(space, PointSet(np.array([[0.0, 0.0]])))
        assert f(np.array([0.5, -2.0])) == 2.0

    def test_dim_mismatch(self):
        space = NormedSpace(3, 2.0)
        with pytest.raises(ValueError):
            distance_function(space, PointSet(np.array([[0.0, 0.0]])))

    @pytest.mark.parametrize("rows", [1, 63, 64, 65, 10_000])
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, 4.0, math.inf])
    def test_streamed_equals_broadcast(self, q, rows):
        # the running minimum over anchors equals the minimum of one
        # (rows, anchors, d) broadcast bit for bit, in either memory layout
        space = NormedSpace(3, q)
        rng = np.random.default_rng(rows)
        anchors = rng.uniform(-1.5, 1.5, size=(5, 3))
        f = distance_function(space, PointSet(anchors))
        X = rng.uniform(-2.0, 2.0, size=(rows, 3))
        want = space._norm(X[:, None, :] - anchors).min(axis=-1)
        assert np.array_equal(f(X), want)
        assert np.array_equal(f(np.asfortranarray(X)), want)
        assert f(X[0]) == want[0]


class TestCorpus:
    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, math.inf])
    def test_declared_constants_hold(self, p):
        space = NormedSpace(2, p)
        for f in make_corpus(space):
            ratio = sampled_ratio(f, space)
            assert ratio <= f.lipschitz_constant * (1 + 1e-9), (f.label, ratio)

    def test_labels(self):
        space = NormedSpace(2, 2.0)
        assert tuple(f.label for f in make_corpus(space)) == CORPUS_LABELS

    def test_corpus_function_lookup(self):
        space = NormedSpace(2, 2.0)
        f = corpus_function(space, "sawtooth")
        assert f.label == "sawtooth"
        with pytest.raises(KeyError):
            corpus_function(space, "nope")

    def test_sawtooth_values(self):
        space = NormedSpace(1, 2.0)
        f = corpus_function(space, "sawtooth")
        assert f(np.array([0.25])) == 0.25
        assert f(np.array([0.5])) == 0.5
        assert f(np.array([1.0])) == 0.0

    def test_mislabeled_constant_flagged(self):
        space = NormedSpace(2, 2.0)
        bad = LipschitzFunction(lambda x: 2.0 * space.norm(x), 1.0, "bad")
        assert sampled_ratio(bad, space) > 1.5

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_max_affine_running_maximum(self, d):
        # the running maximum returns what np.maximum.reduce over the three
        # stacked pieces returned, on every layout the solver passes
        e1, elast = np.eye(d)[0], np.eye(d)[-1]
        pieces = [(e1, -0.25), (-e1, -0.25), (0.1 * elast, 0.2)]
        f = corpus_function(NormedSpace(d, 4.0), "max-affine")
        x = np.random.default_rng(d).uniform(-2.0, 2.0, (500, d))
        for a in (x, np.asfortranarray(x), np.ascontiguousarray(x.T).T,
                  x[:1], x[7]):
            want = np.maximum.reduce([a @ v + b for v, b in pieces])
            got = f(a)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)
