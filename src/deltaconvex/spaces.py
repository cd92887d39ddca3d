"""Finite-dimensional l_p spaces and their convexity-defect arithmetic."""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NormedSpace",
    "ModulusEstimate",
    "PowerTypeConstant",
    "SampleBudget",
    "DimensionMismatchError",
    "modulus_of_convexity",
    "power_type_constant",
]


class DimensionMismatchError(ValueError):
    pass


def _err_sum3(a, b, c):
    """a + b + c with error-free transformations (vectorized Kahan-style).

    The power-p defect is a difference of large near-equal terms; for big
    exponents the naive sum loses all significant digits.
    """
    s1 = a + b
    e1 = b - (s1 - a)
    s2 = s1 + c
    e2 = c - (s2 - s1)
    return s2 + (e1 + e2)


# below this many rows one reduce call costs less than the column loop
_ROWSUM_MIN_ROWS = 64


def _rowsum(a):
    """``a.sum(axis=-1)`` bit for bit, faster on a short last axis.

    numpy adds fewer than 8 terms of a row in plain order, so adding the
    columns one at a time into a copy of column 0 rounds the same way and
    skips the slow reduce over a short axis.  From 8 terms on numpy sums
    pairwise, and below 64 rows the loop costs more than the reduce; both
    cases run the reduce itself.
    """
    d = a.shape[-1]
    if d >= 8 or a.size < _ROWSUM_MIN_ROWS * d:
        return np.add.reduce(a, axis=-1)
    s = a[..., 0].copy()
    for k in range(1, d):
        s += a[..., k]
    return s


@dataclass(frozen=True)
class NormedSpace:
    """R^dim under the l_p norm. ``p_exponent`` is a real >= 1 or math.inf."""

    dim: int
    p_exponent: float

    def __post_init__(self):
        if self.dim < 1 or int(self.dim) != self.dim:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        if self.p_exponent != math.inf and not self.p_exponent >= 1.0:
            raise ValueError(f"p_exponent must be >= 1 or inf, got {self.p_exponent}")

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"expected vectors of dim {self.dim}, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("non-finite coordinate in input vector")
        return x

    def norm(self, x):
        """l_p norm, batched over the leading axes of ``x``.

        Dispatch is exact per case: p = 1, 2 and inf never go through the
        power/root formula.
        """
        return self._norm(self._check(x))

    def _norm(self, x):
        """``norm`` without input checks, for rows already validated.

        Row sums run column by column (``_rowsum``) for dim < 8 on batches
        of at least 64 rows, bit-identical to numpy's ``sum``.
        """
        p = self.p_exponent
        if p == 1.0:
            return _rowsum(np.abs(x))
        if p == 2.0:
            return np.sqrt(_rowsum(np.square(x)))
        if p == math.inf:
            return np.abs(x).max(axis=-1)
        return _rowsum(np.abs(x) ** p) ** (1.0 / p)

    def _powered(self, x, power):
        """|x|^power per row, without input checks: the one distance kernel
        of every Q evaluation.

        When ``power`` is the space's own finite exponent the sum of
        coordinate powers is returned as is, with no root taken and then
        undone; otherwise the result is ``_norm(x) ** power``.  The sums
        run through ``_rowsum``, as in ``_norm``.
        """
        if power != self.p_exponent or power in (1.0, math.inf):
            return self._norm(x) ** power
        if float(power).is_integer() and power <= 8.0:
            # at most four roundings from repeated products of x*x, and much
            # cheaper than a general pow per coordinate
            n = int(power)
            sq = x * x
            acc = sq
            for _ in range(n // 2 - 1):
                acc = acc * sq
            if n % 2:
                acc = acc * np.abs(x)
            return _rowsum(acc)
        return _rowsum(np.abs(x) ** power)

    def _defect_term(self, p, x):
        """2^(p-1)|x|^p: the term of the power-p defect fixed per x row."""
        return 2.0 ** (p - 1.0) * self._powered(x, p)

    def _defect(self, p, ax, y, xy):
        """Power-p defect 2^(p-1)(|x|^p + |y|^p) - |x+y|^p from its hoisted
        x term ``ax = _defect_term(p, x)``, ``y`` and ``xy = x + y``; the one
        formula for Q_p in the package, unchecked."""
        b = self._defect_term(p, y)
        c = -self._powered(xy, p)
        if p > 8.0:
            return _err_sum3(ax, b, c)
        return ax + b + c

    def dual_exponent(self):
        p = self.p_exponent
        if p == 1.0:
            return math.inf
        if p == math.inf:
            return 1.0
        return p / (p - 1.0)

    def defect2(self, x, y):
        """Quadratic convexity defect 2|x|^2 + 2|y|^2 - |x+y|^2 (>= 0)."""
        x = self._check(x)
        y = self._check(y)
        return self._defect(2.0, self._defect_term(2.0, x), y, x + y)

    def defect_p(self, p, x, y):
        """Power-p defect 2^(p-1)(|x|^p + |y|^p) - |x+y|^p, p >= 2."""
        if not p >= 2.0:
            raise ValueError(f"defect exponent must be >= 2, got {p}")
        x = self._check(x)
        y = self._check(y)
        return self._defect(p, self._defect_term(p, x), y, x + y)

    def unit_sphere_sample(self, rng, n):
        """n points with l_p norm exactly 1 (up to one final division)."""
        g = rng.standard_normal((n, self.dim))
        g[np.abs(g).max(axis=-1) < 1e-12] = 1.0
        return g / self.norm(g)[..., None]

    def ball_sample(self, rng, n, radius=1.0, center=None):
        """Uniform-ish rejection-free sample of the ball: sphere point times
        a radial factor with the right density for volume uniformity in l_2;
        adequate as a search cloud for any p."""
        pts = self.unit_sphere_sample(rng, n)
        r = rng.random(n) ** (1.0 / self.dim)
        pts = pts * (radius * r)[:, None]
        if center is not None:
            pts = pts + np.asarray(center, dtype=float)
        return pts

    def describe(self):
        p = self.p_exponent
        if p == math.inf:
            ptxt = "inf"
        elif float(p).is_integer():
            ptxt = str(int(p))
        else:
            ptxt = repr(p)
        return f"l{ptxt}^{self.dim}"


@dataclass(frozen=True)
class SampleBudget:
    samples: int = 4096
    refine_iterations: int = 200
    seed: int = 0


@dataclass(frozen=True)
class ModulusEstimate:
    epsilon: float
    lower: float
    upper: float
    samples_used: int

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper <= 1.0 + 1e-12):
            raise ValueError(f"inconsistent bracket [{self.lower}, {self.upper}]")


@dataclass(frozen=True)
class PowerTypeConstant:
    value: float
    empirical: bool


def analytic_modulus_lower(space, epsilon):
    """Clarkson lower bound for delta(eps) on l_q, q >= 2; zero otherwise."""
    q = space.p_exponent
    if q == 2.0:
        return 1.0 - math.sqrt(max(0.0, 1.0 - epsilon**2 / 4.0))
    if 2.0 < q < math.inf:
        return 1.0 - (max(0.0, 1.0 - (epsilon / 2.0) ** q)) ** (1.0 / q)
    return 0.0


def _structured_pairs(space, epsilon):
    """Deterministic extreme-point pairs; exact witnesses for l_1/l_inf."""
    d = space.dim
    eye = np.eye(d)
    pairs = []
    for i in range(d):
        pairs.append((eye[i], -eye[i]))
        for j in range(i + 1, d):
            pairs.append((eye[i], eye[j]))
            pairs.append((eye[i], -eye[j]))
    out = [(x, y) for x, y in pairs if space.norm(x - y) >= epsilon - 1e-15]
    return out


def _separated_sphere_pair(space, rng, epsilon):
    """A pair on the unit sphere with separation == epsilon (bisection)."""
    x = space.unit_sphere_sample(rng, 1)[0]
    w = -x  # separation 2, always feasible
    lo, hi = 0.0, 1.0

    def sep(t):
        y = (1.0 - t) * x + t * w
        ny = space.norm(y)
        if ny < 1e-14:
            return -epsilon, y
        y = y / ny
        return space.norm(x - y) - epsilon, y

    y = w
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        s, y_mid = sep(mid)
        if s >= 0.0:
            hi, y = mid, y_mid
        else:
            lo = mid
    return x, y


def modulus_of_convexity(space, epsilon, budget=SampleBudget()):
    """Bracket the modulus of convexity delta(eps).

    upper: smallest 1 - |(x+y)/2| found over sampled pairs in the unit ball
    with |x - y| >= eps, then a derivative-free local refinement of the best
    candidate (search only certifies upper bounds, delta being an infimum
    over a nonconvex set).
    lower: analytic Clarkson bound where known, else 0.
    """
    if not (0.0 < epsilon <= 2.0):
        raise ValueError(f"epsilon must lie in (0, 2], got {epsilon}")
    rng = np.random.default_rng(budget.seed)
    d = space.dim

    def value(x, y):
        return 1.0 - space.norm(0.5 * (x + y))

    best_val = math.inf
    best_pair = None
    used = 0

    for x, y in _structured_pairs(space, epsilon):
        used += 1
        v = value(x, y)
        if v < best_val:
            best_val, best_pair = v, (x.copy(), y.copy())

    n_pairs = max(8, budget.samples // 8)
    for _ in range(n_pairs):
        used += 1
        x, y = _separated_sphere_pair(space, rng, epsilon)
        v = value(x, y)
        if v < best_val:
            best_val, best_pair = v, (x.copy(), y.copy())

    # random interior pairs, filtered by the separation constraint
    n_rand = budget.samples
    xs = space.ball_sample(rng, n_rand)
    ys = space.ball_sample(rng, n_rand)
    seps = space.norm(xs - ys)
    ok = seps >= epsilon
    used += int(ok.sum())
    if ok.any():
        vals = 1.0 - space.norm(0.5 * (xs[ok] + ys[ok]))
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val, best_pair = float(vals[i]), (xs[ok][i], ys[ok][i])

    # compass refinement of the concatenated pair, with feasibility projection
    x, y = best_pair
    step = 0.25
    it = 0
    while step > 1e-9 and it < budget.refine_iterations:
        it += 1
        improved = False
        for k in range(2 * d):
            for sgn in (1.0, -1.0):
                xt, yt = x.copy(), y.copy()
                if k < d:
                    xt[k] += sgn * step
                else:
                    yt[k - d] += sgn * step
                nx, ny = space.norm(xt), space.norm(yt)
                if nx > 1.0:
                    xt /= nx
                if ny > 1.0:
                    yt /= ny
                if space.norm(xt - yt) < epsilon:
                    continue
                used += 1
                v = value(xt, yt)
                if v < best_val - 1e-15:
                    best_val, x, y = v, xt, yt
                    improved = True
        if not improved:
            step *= 0.5

    upper = max(0.0, best_val)
    lower = min(analytic_modulus_lower(space, epsilon), upper)
    return ModulusEstimate(epsilon=epsilon, lower=lower, upper=upper,
                           samples_used=used)


def analytic_power_constant(space, p):
    """Clarkson constant C = 1 with C|x-y|^p <= defect_p(x, y), proven for
    l_q with 2 <= q <= p and q finite; None elsewhere."""
    q = space.p_exponent
    if 2.0 <= q <= p and q != math.inf:
        return 1.0
    return None


def power_type_constant(space, p, samples=100_000, seed=0):
    """Largest known C with C|x-y|^p <= defect_p(x, y) for all pairs.

    Analytic (Clarkson) C = 1 for l_q, 2 <= q <= p.  Otherwise an empirical
    sampled infimum, clamped to [0, 1] and flagged; empirical values are
    rejected by rate_bound unless explicitly overridden.
    """
    if not p >= 2.0:
        raise ValueError(f"power exponent must be >= 2, got {p}")
    if analytic_power_constant(space, p) is not None:
        return PowerTypeConstant(value=1.0, empirical=False)

    rng = np.random.default_rng(seed)
    best = 1.0
    # exact extreme-point witnesses first (l_1 and l_inf collapse here)
    for x, y in _structured_pairs(space, 0.0):
        den = space.norm(x - y) ** p
        if den > 1e-12:
            best = min(best, float(space.defect_p(p, x, y) / den))
    chunk = 8192
    done = 0
    while done < samples:
        n = min(chunk, samples - done)
        xs = space.ball_sample(rng, n, radius=2.0)
        ys = space.ball_sample(rng, n, radius=2.0)
        den = space.norm(xs - ys) ** p
        mask = den > 1e-9
        if mask.any():
            r = space.defect_p(p, xs[mask], ys[mask]) / den[mask]
            best = min(best, float(r.min()))
        done += n
    return PowerTypeConstant(value=float(min(1.0, max(0.0, best))), empirical=True)
