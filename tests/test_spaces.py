import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltaconvex import (DimensionMismatchError, NormedSpace,
                         analytic_modulus_lower, analytic_power_constant,
                         modulus_of_convexity)
from deltaconvex.regularize import _rows
from deltaconvex.spaces import (_err_sum3, _modulus_witness, _norm_rounding,
                                _q_kernel, _root, _rowsum)


def vec(*xs):
    return np.array(xs, dtype=float)


class TestNorm:
    def test_linf_example(self):
        assert NormedSpace(2, math.inf).norm(vec(1.0, -2.0)) == 2.0

    def test_l2_example(self):
        assert NormedSpace(2, 2.0).norm(vec(3.0, 4.0)) == 5.0

    def test_l1_example(self):
        assert NormedSpace(3, 1.0).norm(vec(0.5, -0.5, 1.0)) == 2.0

    def test_general_p(self):
        n = NormedSpace(2, 3.0).norm(vec(1.0, 1.0))
        assert np.isclose(n, 2.0 ** (1.0 / 3.0))

    def test_batched(self):
        space = NormedSpace(2, 2.0)
        out = space.norm(np.array([[3.0, 4.0], [0.0, 0.0]]))
        assert np.allclose(out, [5.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            NormedSpace(3, 2.0).norm(vec(1.0, 2.0))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            NormedSpace(2, 2.0).norm(vec(1.0, math.nan))

    def test_bad_exponent_rejected(self):
        with pytest.raises(ValueError):
            NormedSpace(2, 0.5)
        with pytest.raises(ValueError):
            NormedSpace(0, 2.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-100, 100), min_size=3, max_size=3),
           st.lists(st.floats(-100, 100), min_size=3, max_size=3),
           st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
           st.floats(-10, 10))
    def test_norm_axioms(self, xs, ys, p, t):
        space = NormedSpace(3, p)
        x, y = vec(*xs), vec(*ys)
        nx, ny = space.norm(x), space.norm(y)
        assert nx >= 0
        assert space.norm(x + y) <= nx + ny + 1e-9 * (1 + nx + ny)
        assert np.isclose(space.norm(t * x), abs(t) * nx,
                          rtol=1e-12, atol=1e-12)


class TestDefects:
    def test_defect2_antipodal(self):
        space = NormedSpace(2, 2.0)
        e1 = vec(1.0, 0.0)
        assert space.defect2(e1, -e1) == 4.0

    def test_defect_p_tightness_witness(self):
        # |x-y|^4 = 16 is attained at the antipodal pair on l_2
        space = NormedSpace(2, 2.0)
        e1 = vec(1.0, 0.0)
        assert space.defect_p(4.0, e1, -e1) == 16.0

    def test_defect2_zero_at_equal_points(self):
        space = NormedSpace(2, 1.0)
        x = vec(1.0, 2.0)
        assert abs(space.defect2(x, x)) < 1e-12

    def test_parallelogram_l2(self):
        space = NormedSpace(3, 2.0)
        rng = np.random.default_rng(0)
        x = space.ball_sample(rng, 500, radius=2.0)
        y = space.ball_sample(rng, 500, radius=2.0)
        q = space.defect2(x, y)
        ref = space.norm(x - y) ** 2
        assert np.allclose(q, ref, rtol=1e-13, atol=1e-12)

    def test_defect2_lower_bound_fuzz(self):
        rng = np.random.default_rng(1)
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            space = NormedSpace(3, p)
            x = space.ball_sample(rng, 2000, radius=2.0)
            y = space.ball_sample(rng, 2000, radius=2.0)
            gap = space.defect2(x, y) - (space.norm(x) - space.norm(y)) ** 2
            assert gap.min() >= -1e-9

    def test_defect_p_high_power_compensated(self):
        space = NormedSpace(2, 2.0)
        rng = np.random.default_rng(2)
        x = space.ball_sample(rng, 200, radius=1.0)
        q = space.defect_p(12.0, x, x * (1.0 + 1e-9))
        assert np.all(q >= -1e-9)

    def test_defect_p_rejects_small_exponent(self):
        with pytest.raises(ValueError):
            NormedSpace(2, 2.0).defect_p(1.5, vec(1, 0), vec(0, 1))


def near_diagonal(d, n=1000, seed=17):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (n, d))
    return x, x + rng.normal(0.0, 1e-3, (n, d))


def root_formula(space, p, x, y):
    """The defect as computed from p-th-root norms raised back to p."""
    a = 2.0 ** (p - 1.0) * space.norm(x) ** p
    b = 2.0 ** (p - 1.0) * space.norm(y) ** p
    c = -(space.norm(x + y) ** p)
    return _err_sum3(a, b, c) if p > 8.0 else a + b + c


def exact_defect(q, x, y):
    """Q_q(x, y) = 2^(q-1)(|x|_q^q + |y|_q^q) - |x+y|_q^q of each row pair,
    exactly, as a Fraction (q an integer)."""
    out = []
    for xr, yr in zip(x, y):
        fx, fy = [Fraction(v) for v in xr], [Fraction(v) for v in yr]
        out.append(2 ** (q - 1) * sum(abs(v) ** q for v in fx + fy)
                   - sum(abs(a + b) ** q for a, b in zip(fx, fy)))
    return out


# the even-integer kernel's first-order error bound for q <= 8 and d <= 9:
# at most 27 roundings of half an ulp (s, t, the squares, the Horner steps
# and the row sum); the rows of these tests measure below 6 ulps
SPLIT_ULPS = 16


def assert_within_ulps(got, ref):
    for v, r in zip(got, ref):
        assert abs(Fraction(v) - r) <= SPLIT_ULPS * Fraction(2) ** -52 * r


class TestPowerKernel:
    @pytest.mark.parametrize("q,d", [(2, 2), (2, 3), (4, 2), (4, 3), (6, 3),
                                     (8, 2)])
    def test_exact_reference_p_equals_q(self, q, d):
        # near-diagonal pairs in the unit cube, then the same offsets
        # moved out to |x| = 1e6, where the difference formula cancels
        space = NormedSpace(d, float(q))
        x, y = near_diagonal(d)
        far = np.geomspace(1.0, 1e6, x.shape[0])[:, None] * x
        x, y = np.vstack([x, far]), np.vstack([y, far + (y - x)])
        got = space.defect_p(float(q), x, y)
        old = root_formula(space, float(q), x, y)
        ref = exact_defect(q, x, y)
        err_new = [abs(Fraction(v) - r) for v, r in zip(got, ref)]
        err_old = [abs(Fraction(v) - r) for v, r in zip(old, ref)]
        assert max(err_new) <= max(err_old)
        assert max(err_new[:1000]) < 3e-14
        assert_within_ulps(got, ref)
        assert (got >= 0.0).all()

    @pytest.mark.parametrize("q,p", [(3.0, 4.0), (math.inf, 2.0),
                                     (1.0, 2.0), (2.0, 4.0), (3.0, 12.0)])
    def test_other_exponents_bit_identical(self, q, p):
        space = NormedSpace(3, q)
        x, y = near_diagonal(3, n=500)
        assert np.array_equal(space.defect_p(p, x, y),
                              root_formula(space, p, x, y))
        assert np.array_equal(space._powered(x - y, p),
                              space.norm(x - y) ** p)

    def test_defect2_is_defect_p2(self):
        for q in (1.0, 2.0, 3.0, math.inf):
            space = NormedSpace(3, q)
            x, y = near_diagonal(3, n=200)
            assert np.array_equal(space.defect2(x, y),
                                  space.defect_p(2.0, x, y))

    @pytest.mark.parametrize("q", [2.0, 3.0, 4.0, 5.0, 8.0, 2.5, 10.0])
    def test_powered_matches_norm_power(self, q):
        space = NormedSpace(4, q)
        v = np.random.default_rng(1).uniform(-2.0, 2.0, (300, 4))
        assert np.allclose(space._powered(v, q), space.norm(v) ** q,
                           rtol=1e-14, atol=0.0)

    def test_checked_entry_points(self):
        space = NormedSpace(2, 4.0)
        for bad in (vec(1.0, math.nan), vec(math.inf, 0.0)):
            with pytest.raises(ValueError):
                space.defect_p(4.0, bad, vec(0.0, 0.0))
            with pytest.raises(ValueError):
                space.defect2(vec(0.0, 0.0), bad)
        with pytest.raises(DimensionMismatchError):
            space.defect_p(4.0, vec(1.0, 2.0, 3.0), vec(0.0, 0.0))


def _dispatched_powered(space, x, power):
    """|x|^power as ``NormedSpace._powered`` computed it when it chose its
    branch on every call."""
    if power != space.p_exponent or power in (1.0, math.inf):
        return space._norm(x) ** power
    if float(power).is_integer() and power <= 8.0:
        n = int(power)
        sq = x * x
        acc = sq
        for _ in range(n // 2 - 1):
            acc = acc * sq
        if n % 2:
            acc = acc * np.abs(x)
        return _rowsum(acc)
    return _rowsum(np.abs(x) ** power)


def _dispatched_defect(space, p, x, y):
    """The power-p defect as ``NormedSpace._defect`` computed it from
    ``_defect_term`` and ``_powered``."""
    ax = 2.0 ** (p - 1.0) * _dispatched_powered(space, x, p)
    b = 2.0 ** (p - 1.0) * _dispatched_powered(space, y, p)
    c = -_dispatched_powered(space, x + y, p)
    if p > 8.0:
        return _err_sum3(ax, b, c)
    return ax + b + c


KERNEL_POWERS = (1.0, 2.0, 3.0, 4.0, 4.5, 8.0, 9.0, 12.0)


class TestResolvedKernel:
    """The Q kernel resolved once per (space, power) computes bit for bit
    what the per-call dispatch computed, on every layout the solver
    passes."""

    @pytest.mark.parametrize("rows", [5, 64, 200])
    @pytest.mark.parametrize("d", [1, 3, 9])
    @pytest.mark.parametrize("q", [1.0, 2.0, 3.0, 4.0, 4.5, 10.0, math.inf])
    def test_bit_identical_to_dispatch(self, q, d, rows):
        space = NormedSpace(d, q)
        rng = np.random.default_rng(rows + d)
        x = rng.uniform(-2.0, 2.0, (rows, d))
        y = x + rng.normal(0.0, 0.3, (rows, d))
        # contiguous rows, then the strided views of blocks stored by
        # coordinate
        layouts = [(x, y), (np.ascontiguousarray(x.T).T,
                            np.ascontiguousarray(y.T).T)]
        for power in KERNEL_POWERS:
            powered, defect, split = _q_kernel(space, power)
            assert _q_kernel(space, power)[0] is powered
            even = power == q and power in (2.0, 4.0, 6.0, 8.0)
            assert (split is not None) == even
            for a, b in layouts:
                want = _dispatched_powered(space, a, power)
                assert np.array_equal(powered(a), want)
                assert np.array_equal(space._powered(a, power), want)
                want = _dispatched_defect(space, power, a, b)
                assert np.array_equal(defect(a, b, a + b), want)
                if even:
                    # defect_p sums the split form: checked against the
                    # exact value in place of the difference formula
                    got = space.defect_p(power, a, b)
                    assert np.array_equal(got, split(a + b, a - b))
                    assert_within_ulps(got, exact_defect(int(power), a, b))
                    want = got
                elif power >= 2.0:
                    assert np.array_equal(space.defect_p(power, a, b), want)
            if power == 2.0:
                assert np.array_equal(space.defect2(x, y), want)


def rowsum_values(kind, shape, seed=5):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.uniform(-1.0, 1.0, shape)
    if kind == "tiny":  # squares in the subnormal range
        return np.square(rng.uniform(0.0, 1e-160, shape))
    return rng.uniform(0.0, 1e150, shape)


class TestRowsum:
    """``_rowsum`` must round exactly as numpy's ``sum(axis=-1)``: below 8
    terms numpy adds a row in plain order.  If a numpy release changes its
    reduction order, these tests fail."""

    @pytest.mark.parametrize("rows", [1, 63, 64, 65, 10_000])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 12])
    def test_equals_numpy_sum(self, d, rows):
        for kind in ("random", "tiny", "huge"):
            a = rowsum_values(kind, (rows, d))
            assert np.array_equal(_rowsum(a), a.sum(axis=-1))

    @pytest.mark.parametrize("rows", [1, 63, 64, 65, 1000])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 8, 12])
    def test_any_layout(self, d, rows):
        # the solver sums the (rows, d) view of blocks stored by coordinate;
        # from 8 terms numpy would add such strided rows in plain order
        # instead of pairwise
        for kind in ("random", "tiny", "huge"):
            a = rowsum_values(kind, (rows, d))
            want = a.sum(axis=-1)
            for view in (np.asfortranarray(a),
                         np.ascontiguousarray(a.T).T,
                         np.repeat(a, 2, axis=1)[:, ::2]):
                assert np.array_equal(_rowsum(view), want)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 8])
    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_select_starts_shape(self, d, n):
        # (N, n_keep, d), as the start selection measures its candidates
        for kind in ("random", "tiny", "huge"):
            a = rowsum_values(kind, (n, 8, d))
            got = _rowsum(a)
            assert got.shape == (n, 8)
            assert np.array_equal(got, a.sum(axis=-1))


class TestBatchIndependence:
    """A row's norm and power kernel do not depend on the batch it comes
    in, on either side of the short-batch fallback of ``_rowsum``."""

    @pytest.mark.parametrize("q", [1.0, 2.0, 3.0, 4.0, 6.0, 8.0])
    def test_norm_and_powered_per_row(self, q):
        space = NormedSpace(3, q)
        X = np.random.default_rng(8).uniform(-2.0, 2.0, (200, 3))
        powers = (q, q + 1.0, 12.0)
        batch = [space._norm(X)] + [space._powered(X, w) for w in powers]
        for i in range(X.shape[0]):
            row = X[i:i + 1]
            single = [space._norm(row)] + [space._powered(row, w)
                                           for w in powers]
            for b, s in zip(batch, single):
                assert s.shape == (1,)
                assert b[i] == s[0]


class UfuncSpy(np.ndarray):
    """An array that records each ufunc call made on it, with the shape of
    its first input, and passes its view on to the results."""

    calls = []

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        def plain(a):
            return a.view(np.ndarray) if isinstance(a, UfuncSpy) else a

        UfuncSpy.calls.append((ufunc.__name__, np.shape(inputs[0])))
        if out is not None:
            kwargs["out"] = tuple(plain(o) for o in out)
        result = getattr(ufunc, method)(*map(plain, inputs), **kwargs)
        if isinstance(result, np.ndarray) and result.ndim:
            return result.view(UfuncSpy)
        return result


def norm_ulps(mpmath, x, got, p):
    """Largest distance, in ulps of the result, between ``got`` and the
    l_p norms of the rows of x computed to 60 digits."""
    worst = 0.0
    with mpmath.workdps(60):
        for row, g in zip(x, got):
            ref = mpmath.root(mpmath.fsum(abs(mpmath.mpf(float(v))) ** p
                                          for v in row), p)
            ulp = math.ulp(float(ref))
            worst = max(worst, float(abs(mpmath.mpf(float(g)) - ref)) / ulp)
    return worst


class TestNormKernel:
    """At finite p other than 1 and 2 the norm is the Q kernel's
    ``powered`` sum and a root: square and cube roots at integer p <= 8
    but 5 and 7, where no general pow runs on the coordinates."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("p", [3, 4, 6, 8])
    def test_within_two_ulps(self, p, d):
        # ** (1.0 / p) takes a rounded exponent: up to 7.6 ulps off at
        # p = 3 and 6
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(10 * p + d)
        scale = 10.0 ** rng.uniform(-6.0, 6.0, (400, 1))
        x = rng.uniform(-1.0, 1.0, (400, d)) * scale
        got = NormedSpace(d, float(p))._norm(x)
        assert norm_ulps(mpmath, x, got, p) <= 2.0

    @pytest.mark.parametrize("p", [3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 4.5])
    @pytest.mark.parametrize("rows", [5, 200])
    def test_any_layout(self, p, rows):
        # the solver norms (points, d) views of blocks stored by coordinate
        space = NormedSpace(3, p)
        B = np.random.default_rng(rows).uniform(-2.0, 2.0, (3, rows))
        view = _rows(B)
        assert not view.flags.c_contiguous
        got = space._norm(view)
        assert np.array_equal(got, space._norm(np.ascontiguousarray(view)))
        # one point as a vector: its row sum is a numpy scalar, and the root
        # takes no pow or numpy's (a scalar's ** is libm's pow)
        assert space._norm(view[3]) == got[3]

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0, 4.5, 5.0, 6.0, 7.0, 8.0,
                                   10.0])
    def test_one_vector_is_its_batch_row(self, p):
        # with ** on the scalar row sum, 48-64 of these 1,000 vectors
        # differed from their batch row in the last bit at p = 1.5, 4.5, 5,
        # 7 and 10
        space = NormedSpace(3, p)
        X = np.random.default_rng(3).uniform(-2.0, 2.0, (1000, 3))
        batch = space.norm(X)
        assert np.array_equal([space.norm(x) for x in X], batch)

    @pytest.mark.parametrize("p", [1.5, 4.5, 10.0])
    def test_real_exponent_unchanged(self, p):
        space = NormedSpace(3, p)
        x = np.random.default_rng(4).uniform(-3.0, 3.0, (300, 3))
        for a in (x, np.asfortranarray(x), x[:10], x[0]):
            assert np.array_equal(space._norm(a), np.power(
                _rowsum(np.abs(a) ** p), 1.0 / p))

    @pytest.mark.parametrize("p", [3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    def test_no_pow_on_coordinates(self, p):
        x = np.random.default_rng(2).uniform(-2.0, 2.0, (100, 3))
        UfuncSpy.calls.clear()
        got = NormedSpace(3, p)._norm(x.view(UfuncSpy))
        pows = [shape for name, shape in UfuncSpy.calls if name == "power"]
        # only the root at p = 5 and 7, on the row sums
        assert pows == ([(100,)] if p in (5.0, 7.0) else [])
        assert np.array_equal(got, NormedSpace(3, p)._norm(x))

    @pytest.mark.parametrize("d", [1, 3, 9])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 8.0, 10.0,
                                   12.5, math.inf])
    def test_rounding_bound(self, p, d):
        # (1 - kappa)|x| - eta <= N(x) <= (1 + kappa)|x| + eta, from
        # subnormal coordinates up to |x| = big, where pow's rounded
        # exponent errs most
        mpmath = pytest.importorskip("mpmath")
        space = NormedSpace(d, p)
        kappa, eta, big = _norm_rounding(space)
        rng = np.random.default_rng(d)
        top = math.log2(min(big, 2.0 ** 1000) / d)
        scale = 2.0 ** rng.uniform(-1080.0, top, (300, 1))
        x = rng.uniform(-1.0, 1.0, (300, d)) * scale
        got = space._norm(x)
        with mpmath.workdps(60):
            for row, g in zip(x, got):
                a = [abs(mpmath.mpf(float(v))) for v in row]
                exact = (max(a) if p == math.inf else
                         mpmath.fsum(v ** p for v in a) ** (1 / mpmath.mpf(p)))
                assert exact <= big
                assert (1 - kappa) * exact - eta <= g
                assert g <= (1 + kappa) * exact + eta

    @pytest.mark.parametrize("p", [3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 2.5])
    def test_root_inverts_power(self, p):
        v = np.geomspace(1e-300, 1e300, 601)
        assert np.allclose(_root(v, p) ** p, v, rtol=1e-13, atol=0.0)


class TestModulus:
    def test_l2_analytic_match(self):
        space = NormedSpace(2, 2.0)
        for eps in (0.5, 1.0, 1.5):
            est = modulus_of_convexity(space, eps)
            ref = analytic_modulus_lower(space, eps)
            assert abs(est.upper - ref) <= 1e-3
            assert est.lower <= est.upper + 1e-12

    def test_l2_eps_one_value(self):
        ref = analytic_modulus_lower(NormedSpace(2, 2.0), 1.0)
        assert np.isclose(ref, 1.0 - math.sqrt(3.0) / 2.0)

    def test_l1_flat_at_one(self):
        est = modulus_of_convexity(NormedSpace(2, 1.0), 1.0)
        assert est.upper == 0.0

    def test_eps_two_full_convexity(self):
        est = modulus_of_convexity(NormedSpace(2, 2.0), 2.0)
        assert abs(est.upper - 1.0) <= 1e-3

    def test_domain(self):
        space = NormedSpace(2, 2.0)
        with pytest.raises(ValueError):
            modulus_of_convexity(space, 0.0)
        with pytest.raises(ValueError):
            modulus_of_convexity(space, 2.5)


ULPS8 = 8.0 * 2.0 ** -53


def exact_modulus(mp, q, eps):
    """delta(eps) of l_q^d, d >= 2, 1 < q < inf, to 50 digits: Clarkson's
    formula for q >= 2, the root of Hanner's equation for q < 2."""
    q, h = mp.mpf(q), mp.mpf(eps) / 2
    if q >= 2:
        return 1 - (1 - h ** q) ** (1 / q)
    return mp.findroot(lambda t: (1 - t + h) ** q + abs(1 - t - h) ** q - 2,
                       (mp.mpf(0), mp.mpf(1)), solver="anderson")


class TestModulusReference:
    """The bracket against 50-digit references, and its witness pairs."""

    @pytest.mark.parametrize("q", [1.05, 1.1, 1.25, 1.5, 1.75, 2.0, 2.5,
                                   3.0, 4.0, 6.0, 8.0, 17.0])
    @pytest.mark.parametrize("d", [2, 3])
    def test_bracket_holds_exact_value(self, q, d):
        # near eps = 2 Hanner's equation (q < 2) flattens, and the float
        # bisection's rounding moves its root by up to 1e-14 (q = 1.05,
        # eps = 1.999); Clarkson's 1 - (eps/2)^q (q >= 2) cancels there
        # unless computed as -expm1(q*log1p(eps/2 - 1))
        mpmath = pytest.importorskip("mpmath")
        space = NormedSpace(d, q)
        near_two = (1.959, 1.99, 1.999, 1.9995)
        with mpmath.workdps(50):
            for eps in (0.25, 0.5, 1.0, 1.5, 1.9) + near_two:
                exact = exact_modulus(mpmath, q, eps)
                est = modulus_of_convexity(space, eps)
                assert est.lower <= exact <= est.upper
                assert exact - est.lower <= 1e-12
                assert est.upper - exact <= 1e-12
                x, y = _modulus_witness(space, eps)
                assert space.norm(np.stack([x, y])).max() <= 1.0 + ULPS8
                assert space.norm(x - y) >= eps - ULPS8

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, math.inf])
    def test_closed_cases(self, q):
        for eps in (0.25, 1.0, 1.9, 2.0):
            assert analytic_modulus_lower(NormedSpace(1, q), eps) == eps / 2
            est = modulus_of_convexity(NormedSpace(1, q), eps)
            assert est.lower <= eps / 2 <= est.upper
            if q in (1.0, math.inf):
                est = modulus_of_convexity(NormedSpace(3, q), eps)
                assert est.lower == est.upper == 0.0
        if q not in (1.0, math.inf):
            for d in (2, 3):
                assert analytic_modulus_lower(NormedSpace(d, q), 2.0) == 1.0
                est = modulus_of_convexity(NormedSpace(d, q), 2.0)
                assert est.lower == est.upper == 1.0

    def test_witnesses_feasible(self):
        for q in (1.0, 1.1, 1.5, 2.0, 2.5, 17.0, math.inf):
            for d in (1, 2, 5):
                space = NormedSpace(d, q)
                for eps in (1e-6, 0.3, 1.0, 1.99, 2.0):
                    x, y = _modulus_witness(space, eps)
                    assert space.norm(np.stack([x, y])).max() <= 1.0 + ULPS8
                    assert space.norm(x - y) >= eps - ULPS8
                    est = modulus_of_convexity(space, eps)
                    assert est.lower <= est.upper


class TestPowerType:
    def test_clarkson_rule(self):
        for q, p, want in [(2.0, 2.0, 1.0), (3.0, 4.0, 1.0), (4.0, 4.0, 1.0),
                           (4.0, 3.0, None), (1.0, 2.0, None),
                           (1.5, 4.0, None), (math.inf, 2.0, None),
                           (math.inf, math.inf, None)]:
            space = NormedSpace(2, q)
            assert analytic_power_constant(space, p) == want
