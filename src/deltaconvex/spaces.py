"""Finite-dimensional l_p spaces, their convexity-defect arithmetic and
their exact moduli of convexity."""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "NormedSpace",
    "ModulusEstimate",
    "DimensionMismatchError",
    "modulus_of_convexity",
    "analytic_modulus_lower",
    "analytic_power_constant",
]


class DimensionMismatchError(ValueError):
    pass


_MAX_POWER = 1025.0  # from here on 2^(p-1), the Q kernel's scale, overflows

# doubles in one working block (512 KB, which fits in L2): the tree checks
# and both solver stages split their rows into blocks of about this size
_BLOCK = 1 << 16

# below this many rows one reduce call costs less than the column loop
_ROWSUM_MIN_ROWS = 64


def _rowsum(a):
    """``a.sum(axis=-1)`` of a row-major copy of ``a``, bit for bit, for any
    memory layout of ``a``; faster on a short last axis.

    numpy adds fewer than 8 terms of a row in plain order, so adding the
    columns one at a time into a copy of column 0 rounds the same way and
    skips the slow reduce over a short axis.  From 8 terms on numpy sums a
    contiguous row pairwise but a strided one in plain order, so those rows
    are made contiguous first; below 64 rows the loop costs more than the
    reduce.  Both cases run the reduce itself.
    """
    d = a.shape[-1]
    if d >= 8:
        return np.add.reduce(np.ascontiguousarray(a), axis=-1)
    if a.size < _ROWSUM_MIN_ROWS * d:
        return np.add.reduce(a, axis=-1)
    s = a[..., 0].copy()
    for k in range(1, d):
        s += a[..., k]
    return s


def _root(v, p):
    """v ** (1/p) for v >= 0: by square and cube roots at p = 3, 4, 6 and 8,
    about an ulp from the exact root; a power 1.0 / p takes a rounded
    exponent, which lands up to 7.6 ulps off at p = 3 and 6.  By
    ``np.power`` at any other p, which sends an array and a scalar (the row
    sum of one vector) through the same loop, so one vector's norm is its
    row's norm in a batch; ``**`` on a numpy scalar calls libm's pow."""
    if p == 4.0:
        return np.sqrt(np.sqrt(v))
    if p == 8.0:
        return np.sqrt(np.sqrt(np.sqrt(v)))
    if p == 3.0:
        return np.cbrt(v)
    if p == 6.0:
        return np.cbrt(np.sqrt(v))
    return np.power(v, 1.0 / p)


def _norm_rounding(space):
    """(kappa, eta, big): a bound on the rounding of ``space._norm``.  For
    every x with |x| <= big the computed value N(x) obeys

        (1 - kappa)|x| - eta  <=  N(x)  <=  (1 + kappa)|x| + eta,

    and no term, product or sum of the kernel overflows.

    In units of u = 2^-53: the row sum of d terms >= 0 adds at most
    (d - 1)u; a term |x_i|^p at most 7u as products of x*x (integer p <= 8)
    and 8u through pow (4 ulps; libm's pow is within 1, numpy allows its
    cbrt 2); the root (``_root``) at most 8u by sqrt and cbrt, and through
    ``np.power`` at the rounded exponent (1/p)(1 + delta) a further
    |ln v|u/p <= 745u, as |ln v| <= 745 for every positive double v.  The
    root's p-th root only shrinks the sum's error.  That is (d + 760)u to
    first order, and kappa = 2(d + 760)u holds the higher orders.  eta
    covers underflow: each term errs by at most 4 subnormal ulps, so the
    sum by at most A = d * 2^-1072, which the root, subadditive, turns into
    A^(1/p), doubled for the root's own rounding.  big = (2^1018/d)^(1/p)
    keeps d|x|^p, and with it every product and partial sum, below
    2^1018.  On l_inf the norm is a max of abs values and rounds nothing.
    """
    p = space.p_exponent
    if p == math.inf:
        return 0.0, 0.0, math.inf
    d = space.dim
    kappa = 2.0 * (d + 760) * 2.0 ** -53
    eta = 2.0 * (d * 2.0 ** -1072) ** (1.0 / p)
    big = (2.0 ** 1018 / d) ** (1.0 / p)
    return kappa, eta, big


@dataclass(frozen=True)
class NormedSpace:
    """R^dim under the l_p norm: 1 <= p_exponent < 1025, or math.inf."""

    dim: int
    p_exponent: float

    def __post_init__(self):
        if self.dim < 1 or int(self.dim) != self.dim:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        p = self.p_exponent
        if p != math.inf and not 1.0 <= p < _MAX_POWER:
            raise ValueError(f"p_exponent must be inf, or >= 1 and below "
                             f"{_MAX_POWER:g} (2^(p-1) overflows), got {p}")

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
        of at least 64 rows, bit-identical to numpy's ``sum``.  At finite p
        other than 1 and 2, |x|_p^p is the Q kernel's ``powered`` (products
        of x*x at integer p <= 8) and the root comes from ``_root``.
        """
        p = self.p_exponent
        if p == 1.0:
            return _rowsum(np.abs(x))
        if p == 2.0:
            return np.sqrt(_rowsum(np.square(x)))
        if p == math.inf:
            return np.abs(x).max(axis=-1)
        return _root(_q_kernel(self, p)[0](x), p)

    def defect2(self, x, y):
        """Quadratic convexity defect 2|x|^2 + 2|y|^2 - |x+y|^2 (>= 0)."""
        return self.defect_p(2.0, x, y)

    def defect_p(self, p, x, y):
        """Power-p defect 2^(p-1)(|x|^p + |y|^p) - |x+y|^p, 2 <= p < 1025;
        at an even integer p equal to the space's exponent (p <= 8) it is
        summed from s = x + y and t = x - y without cancellation."""
        if not 2.0 <= p < _MAX_POWER:
            raise ValueError(f"defect exponent must be >= 2 and below "
                             f"{_MAX_POWER:g} (2^(p-1) overflows), got {p}")
        _, defect, split = _q_kernel(self, p)
        x = self._check(x)
        y = self._check(y)
        if split is not None:
            return split(x + y, x - y)
        return defect(x, y, x + y)

    def ball_sample(self, rng, n, radius=1.0):
        """Uniform-ish rejection-free sample of the ball about 0: a Gaussian
        point scaled to l_p norm 1 (up to one division), times a radial
        factor with the right density for volume uniformity in l_2;
        adequate as a search cloud for any p."""
        g = rng.standard_normal((n, self.dim))
        g[np.abs(g).max(axis=-1) < 1e-12] = 1.0
        r = rng.random(n) ** (1.0 / self.dim)
        return g / self.norm(g)[..., None] * (radius * r)[:, None]

    def describe(self):
        p = self.p_exponent
        if p == math.inf:
            ptxt = "inf"
        elif float(p).is_integer():
            ptxt = str(int(p))
        else:
            ptxt = repr(p)
        return f"l{ptxt}^{self.dim}"


@lru_cache(maxsize=64)
def _q_kernel(space, power):
    """The one Q kernel, resolved once per (space, power) and unchecked:
    ``(powered, defect, split)`` with ``powered(x)`` = |x|^power per row,
    ``defect(x, y, x + y)`` the difference formula
    2^(power-1)(|x|^power + |y|^power) - |x+y|^power, its three terms all
    taken per call and summed plainly at every power, and ``split``.

    At the space's own finite exponent ``powered`` takes no root: it sums
    products of x*x at integer powers up to 8 (at most four roundings, and
    much cheaper than a general pow), squared in place, else |x_i|^power;
    at any other power it is ``_norm(x) ** power``.  Sums run through
    ``_rowsum``.  ``_norm`` takes |x|_p^p from here at every finite p
    other than 1 and 2, so each sum of |x_i|^p in the solver has this one
    source, and its root from ``_root``: square and cube roots at integer
    p <= 8 but 5 and 7.

    The difference formula subtracts terms of size about 2^power |x|^power,
    so its rounding grows with |x| and can fall below 0.  Where power is an
    even integer q <= 8 equal to the space's exponent, ``split(s, t)`` with
    s = x + y and t = x - y (or t = y - x) gives Q without that loss: per
    coordinate 2^(q-1)(x^q + y^q) - (x+y)^q = ((s+t)^q + (s-t)^q)/2 - s^q,
    the sum over even k >= 2 of C(q, k) s^(q-k) t^k, which is t^2 at q = 2
    and t^2 (6 s^2 + t^2) at q = 4.  Every term is >= 0, so the float value
    is within a few ulps of Q at any |x|.  It is computed by Horner's rule
    in s^2 with products only, and overwrites its argument s; ``split`` is
    None for every other pair.
    """
    if power != space.p_exponent or power in (1.0, math.inf):
        def powered(x):
            return space._norm(x) ** power
    elif float(power).is_integer() and power <= 8.0:
        half, odd = divmod(int(power), 2)

        def powered(x):
            # the products (x^2 x^2) x^2 ... in order, and one |x| last at
            # odd powers: |x^2 x| rounds as x^2 |x|
            acc = sq = x * x
            if half == 2:
                acc *= acc
            elif half > 2:
                acc = sq * sq
                for _ in range(half - 2):
                    acc *= sq
            if odd:
                acc *= x
                np.abs(acc, out=acc)
            return _rowsum(acc)
    else:
        def powered(x):
            return _rowsum(np.abs(x) ** power)
    scale = 2.0 ** (power - 1.0)

    def defect(x, y, xy):
        return scale * powered(x) + scale * powered(y) - powered(xy)
    split = None
    if power == space.p_exponent and power in (2.0, 4.0, 6.0, 8.0):
        q = int(power)
        # C(q, 2), ..., C(q, q - 2): the Horner coefficients before C(q, q)
        coef = [float(math.comb(q, k)) for k in range(2, q, 2)]

        def split(s, t):
            v = t * t
            if not coef:
                return _rowsum(v)
            u = np.square(s, out=s)
            # Horner's rule in u; at q = 4 it runs in u's own buffer
            acc = np.multiply(u, coef[0], out=u if len(coef) == 1 else None)
            vk = v
            for c in coef[1:]:
                acc += c * vk
                acc *= u
                vk = vk * v
            acc += vk
            acc *= v
            return _rowsum(acc)
    return powered, defect, split


# 8 units in the last place of 1: how far the bracket of
# ``modulus_of_convexity`` moves each rounded end outward
_ROUND_OUT = 8.0 * 2.0 ** -53


@dataclass(frozen=True)
class ModulusEstimate:
    epsilon: float
    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper <= 1.0):
            raise ValueError(f"inconsistent bracket [{self.lower}, {self.upper}]")


# a bound on the rounding error of the float value of the left side of
# Hanner's equation at t in [0, 1] for 1 < q < 2 (the left side is below
# 5): 3u and 2u in its two bases, 12u + 8u and 4u + 2u in the two powers
# (u = 2^-53, pow within one ulp), 4u in the sum; 30u < 2^-48
_HANNER_ERR = 2.0 ** -48


def _hanner_bracket(q, epsilon, level=2.0):
    """(lo, hi) from a float bisection on [0, 1] of Hanner's equation
    (1 - t + eps/2)^q + |1 - t - eps/2|^q = 2 for 1 < q < 2: the float left
    side is >= ``level`` at lo (or lo = 0) and < ``level`` at hi.

    At ``level = 2 + _HANNER_ERR`` the exact left side is >= 2 at lo, and
    as it decreases in t, lo lies at or below the root delta: about
    _HANNER_ERR / |slope at delta| below it, which grows as eps nears 2 and
    the slope flattens."""
    h = epsilon / 2.0
    lo, hi = 0.0, 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if (1.0 - mid + h) ** q + abs(1.0 - mid - h) ** q >= level:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _one_minus_power(v, q):
    """1 - v^q for 0 < v <= 1, to a few ulps of the result: the plain
    difference cancels as v nears 1 (eps near 2 in Clarkson's formula)."""
    return -math.expm1(q * math.log1p(v - 1.0))


def analytic_modulus_lower(space, epsilon):
    """The exact modulus of convexity delta(eps) of the space: eps/2 in
    dimension 1; 0 on l_1 and l_inf; Clarkson's (1936)
    1 - (1 - (eps/2)^q)^(1/q) for 2 <= q < inf; for 1 < q < 2 a proven
    lower bound on the root of Hanner's (1956) equation, the low end of
    its bisection bracket held above the float evaluation's rounding error
    (``_hanner_bracket``); and exactly 1 at eps = 2, where Hanner's
    equation has a flat double root."""
    q = space.p_exponent
    if space.dim == 1:
        return epsilon / 2.0
    if q in (1.0, math.inf):
        return 0.0
    if epsilon == 2.0:
        return 1.0
    if q >= 2.0:
        return 1.0 - _one_minus_power(epsilon / 2.0, q) ** (1.0 / q)
    return _hanner_bracket(q, epsilon, 2.0 + _HANNER_ERR)[0]


def _modulus_witness(space, epsilon):
    """Rows x, y of the unit ball, |x - y| = eps up to rounding, at which
    1 - |(x + y)/2| attains delta(eps); rows whose computed norm exceeds 1
    are divided by it."""
    q = space.p_exponent
    W = np.zeros((2, space.dim))
    if space.dim == 1:
        W[:, 0] = 1.0, 1.0 - epsilon
    elif q == math.inf:
        W[:, :2] = (1.0, 1.0), (1.0, -1.0)
    elif q == 1.0:
        W[:, :2] = (1.0, 0.0), (0.0, 1.0)
    elif epsilon == 2.0:
        W[:, 0] = 1.0, -1.0
    elif q >= 2.0:
        v = epsilon / 2.0
        u = _one_minus_power(v, q) ** (1.0 / q)
        W[:, :2] = (u, v), (u, -v)
    else:
        delta = _hanner_bracket(q, epsilon)[1]
        s = 2.0 ** (-1.0 / q)
        a = s * (1.0 - delta + epsilon / 2.0)
        b = s * (1.0 - delta - epsilon / 2.0)
        W[:, :2] = (a, b), (b, a)
    W /= np.maximum(space.norm(W), 1.0)[:, None]
    return W[0], W[1]


def modulus_of_convexity(space, epsilon):
    """Two-sided bracket on delta(eps) = inf {1 - |(x+y)/2| : |x|, |y| <= 1,
    |x - y| >= eps}.

    lower: the theorem value ``analytic_modulus_lower``.  upper:
    1 - |(x+y)/2| at the explicit witness pair of ``_modulus_witness``.
    On l_1 and l_inf and at eps = 2 in dimension >= 2 the witnesses have
    coordinates 0 and +-1 and both ends are exact; elsewhere each end
    carries rounding and moves outward by 8 ulps of 1, so the bracket
    holds as printed.
    """
    if not (0.0 < epsilon <= 2.0):
        raise ValueError(f"epsilon must lie in (0, 2], got {epsilon}")
    x, y = _modulus_witness(space, epsilon)
    lower = analytic_modulus_lower(space, epsilon)
    upper = 1.0 - float(space.norm(0.5 * (x + y)))
    exact = space.dim > 1 and (space.p_exponent in (1.0, math.inf)
                               or epsilon == 2.0)
    pad = 0.0 if exact else _ROUND_OUT
    return ModulusEstimate(epsilon=epsilon, lower=max(0.0, lower - pad),
                           upper=min(1.0, upper + pad))


def analytic_power_constant(space, p):
    """Clarkson constant C = 1 with C|x-y|^p <= defect_p(x, y), proven for
    l_q with 2 <= q <= p and q finite, and for every q in dimension 1, where
    each l_q norm is |x| (p >= 2 in both cases); None elsewhere."""
    q = space.p_exponent
    if p >= 2.0 and (space.dim == 1 or 2.0 <= q <= p and q != math.inf):
        return 1.0
    return None
