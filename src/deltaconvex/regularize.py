"""Delta-convex regularization operators and the shared inner minimizer.

The quadratic/power operators minimize f(y) + lambda * Q_p(x, y), and the
inf-convolution baseline minimizes f(y) + lambda * |x - y|^power.  Both
search one ball about x, of radius r = (L/(lambda*C))^(1/(p-1)) with C
Clarkson's constant: any y that beats y = x has lambda*C|x-y|^p <= L|x-y|.
The inf-convolution has C = 1 on every norm and takes power > 1; the power
operators and ``decompose`` refuse, before any evaluation of f, a pair
where no C is proven, as no theorem bounds their search or their rate
there.  So r is one number per call.  The pair of ``decompose`` has
d = c - f_lambda, solved on the regularizer's own objective.  Its row solve
``_power_rows`` (the power grid and d) and ``inf_convolve_grid`` call one
derivative-free solver with y = x as a candidate: a coarse stage on an
in-package scrambled Sobol' pool (bit-identical to scipy's), then compass
search from the best separated candidates (three by default), run as one
batch over every start of every row until each step is below
tolerance/8; the single-point operators call the grid ones.  The solver
works in an offset frame: it stores h = y - x for each row and searches
the ball of radius r about 0, so coarse candidates are ``r * pool`` and a
compass trial is projected with no subtraction; only the winners are
moved back to y = x + h.  A slice of compass trials is projected only when
a proven screen says one may leave the ball: each row carries a bound on
|h|, its norm at compaction plus the steps it has taken since, and a slice
whose rows all keep that bound plus the step below r, less a margin
derived from the iteration cap, d and the norm's rounding, skips a
projection that would move nothing.
It stores its points by coordinate, as (d, ...) blocks whose coordinates
are contiguous runs.
Its objectives are bound per block: ``obj(idx)`` gathers the data of rows
``idx`` once and returns an evaluator of the (n, d) view of a block of
offsets, which may be non-contiguous.  The compass search keeps only its
active rows, compacted, and rebinds when that set shrinks.  Both stages
take their rows in blocks of about ``spaces._BLOCK`` doubles.

A returned value is f at the rounded point y = x + h plus lambda times Q
at the offset h.  On l_q at an even integer power p = q <= 8,
Q(x, x + h) is summed from t = -h and s = y + x as nonnegative terms
(``spaces._q_kernel``), to a few ulps at every |x|: a value is the
objective at x + h up to those ulps and L times the rounding of x + h, so
the rate bound holds on the whole space.  Every other pair evaluates the
difference formula at the rounded y; its rounding grows as 2^p |x|^p and
the minimizer can exploit it, so there a value can undershoot the
infimum by that much.  The inf-convolution evaluates |x - y|^power at the
rounded y.
"""

import math
import operator
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ._sobol import ScrambledSobol
from .spaces import (_BLOCK, _MAX_POWER, DimensionMismatchError,
                     _norm_rounding, _q_kernel, analytic_power_constant)

__all__ = [
    "SolverConfig",
    "RegularizationResult",
    "ConvexPair",
    "ParameterError",
    "SolverError",
    "regularize_quadratic",
    "regularize_power",
    "inf_convolve",
    "regularize_power_grid",
    "inf_convolve_grid",
    "decompose",
    "rate_bound",
    "ball_grid",
]

_POOL_BATCH = 1 << 16  # Sobol' points drawn at once for a unit-ball pool
_POOL_DRAWS = 1 << 20  # Sobol' points drawn for one pool at most
_N_KEEP = 8  # coarse candidates kept per row for the start selection
_GRID_MAX_DIM = 4  # the largest dimension ``ball_grid`` covers


class ParameterError(ValueError):
    pass


class SolverError(RuntimeError):
    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


@dataclass(frozen=True)
class SolverConfig:
    coarse_samples: int = 512
    refine_iterations: int = 80
    tolerance: float = 1e-6
    seed: int = 0
    starts: int = 3

    def __post_init__(self):
        for name in ("coarse_samples", "refine_iterations", "seed", "starts"):
            value = getattr(self, name)
            try:
                operator.index(value)  # numpy integers pass
            except TypeError:
                raise ValueError(
                    f"{name} must be an integer, got {value!r}") from None
        if self.coarse_samples < 1:
            raise ValueError("coarse_samples must be >= 1")
        if self.refine_iterations < 0:
            raise ValueError("refine_iterations must be >= 0")
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.starts < 1:
            raise ValueError("starts must be >= 1")


@dataclass(frozen=True)
class RegularizationResult:
    """``search_radius`` bounds where the search looked, in the ball of
    radius r = (L/(lambda*C))^(1/(p-1)) about x: from ``regularize_power``
    the bound |x| + r on |y|, from ``inf_convolve`` r itself."""
    value: float
    minimizer: np.ndarray
    search_radius: float
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class ConvexPair:
    c: object
    d: object
    lam: float


@lru_cache(maxsize=32)
def _unit_ball_pool(space, m, seed):
    """m low-discrepancy points in the unit ball of the space norm, as an
    (m, d) array stored by coordinate (its transpose is contiguous): the
    first m in-ball points of one scrambled Sobol' sequence in the cube,
    drawn in batches of 2m, 4m, ... points, at most _POOL_BATCH at once and
    _POOL_DRAWS in all."""
    sob = ScrambledSobol(space.dim, seed)
    kept, found, drawn = [], 0, 0
    nbatch = 1
    while found < m:
        if drawn >= _POOL_DRAWS:
            raise ParameterError(
                f"{drawn} points of the cube put {found} in the unit ball of "
                f"l_{space.p_exponent:g}^{space.dim}, fewer than the {m} "
                "coarse samples")
        nbatch = min(max(nbatch * 2, 2 * m), _POOL_BATCH,
                     _POOL_DRAWS - drawn)
        draw = 2.0 * sob.random(nbatch) - 1.0
        kept.append(draw[space.norm(draw) <= 1.0])
        found += kept[-1].shape[0]
        drawn += nbatch
    pool = np.vstack(kept)[:m].copy(order="F")
    pool.setflags(write=False)
    return pool


def _rows(B):
    """The (points, d) view of a block B stored by coordinate, shape
    (d, ...): row r holds point r's coordinates, each column a contiguous
    run of B.  Objectives and norms receive blocks through it."""
    return B.reshape(B.shape[0], -1).T


def _project(space, B, r):
    """Radial projection, in place, of every offset of the coordinate-major
    block B, shape (d, ...), into the ball of radius r about 0.  A point
    inside the ball is untouched, so a row's result does not depend on the
    other rows of the batch.  A projected point is each coordinate times
    radius/norm <= 1, so projection only shrinks a point; the compass
    search relies on that in its screen, and calls this only for slices
    whose screen fails (``_compass``)."""
    nd = space._norm(_rows(B)).reshape(B.shape[1:])
    over = nd > r
    if np.count_nonzero(over):
        B[:, over] *= r / nd[over]


class _Counter:
    __slots__ = ("evals",)

    def __init__(self):
        self.evals = 0


def _checked(obj, counter, X):
    """``obj`` bound for the stages.  ``obj(idx)`` returns an evaluator g
    of one offset per row of ``idx``.  The result maps ``idx`` to g with
    every evaluation counted in ``counter`` and checked: a non-finite value
    raises SolverError at its point y = x + h, x a row of X.  The
    evaluator names that row from its own copy of ``idx`` in the smallest
    unsigned type holding every row of X (one byte a row up to 256 rows),
    not the caller's int64 array."""
    rowtype = np.min_scalar_type(max(X.shape[0] - 1, 0))

    def bind(idx):
        g = obj(idx)
        idx = idx.astype(rowtype)

        def ev(H):
            v = np.asarray(g(H), dtype=float)
            counter.evals += H.shape[0]
            finite = np.isfinite(v)
            if np.count_nonzero(finite) < finite.size:
                bad = int(np.argmin(finite))
                raise SolverError("objective returned a non-finite value",
                                  point=X[idx[bad]] + H[bad])
            return v
        return ev
    return bind


def _lex_best(cands, vals):
    """Index of the minimal value among the columns of ``cands`` (d, m);
    ties broken by lexicographic order of candidate coordinates."""
    vmin = vals.min()
    tied = np.flatnonzero(vals == vmin)
    if tied.size == 1:
        return int(tied[0])
    order = np.lexsort(cands.take(tied, axis=1)[::-1])
    return int(tied[order[0]])


def _coarse_stage(obj, space, cfg, N, r):
    """Evaluate the offsets ``r * pool`` at each of N rows; return the
    min(_N_KEEP, m) best per row, value-sorted, as an
    (N, min(_N_KEEP, m), d) array.  The pool lies in the unit ball, so an
    offset leaves the ball by rounding only and needs no projection.  A
    chunk holds ``_BLOCK // (m*d)`` rows (at least one), so its (d, n*m)
    candidate block, one copy of ``r * pool`` per row, is about ``_BLOCK``
    doubles."""
    d, m = space.dim, cfg.coarse_samples
    k = min(_N_KEEP, m)
    pool = r * _unit_ball_pool(space, m, cfg.seed).T  # (d, m)
    keep_pts = np.empty((N, k, d))
    chunk = max(1, _BLOCK // (m * d))
    for lo in range(0, N, chunk):
        hi = min(N, lo + chunk)
        n = hi - lo
        cand = np.tile(pool, n)  # (d, n*m)
        vals = obj(np.repeat(np.arange(lo, hi), m))(_rows(cand)).reshape(n, m)
        # flat indices into vals of each row's k best, value-sorted
        part = (np.argpartition(vals, k - 1, axis=1)[:, :k]
                + np.arange(0, n * m, m)[:, None])
        order = np.argsort(vals.take(part), axis=1, kind="stable")
        sel = part.take(order + np.arange(0, n * k, k)[:, None])
        keep_pts[lo:hi] = cand.take(sel, axis=1).transpose(1, 2, 0)
        if k > 1:
            # exact lexicographic tie-break for the leading candidate: every
            # copy of the minimum is among the k best, so a tie shows in
            # the two best values
            best = vals.take(sel[:, :2])
            for t in np.flatnonzero(best[:, 0] == best[:, 1]):
                keep_pts[lo + t, 0] = pool[:, _lex_best(pool, vals[t])]
    return keep_pts


def _select_starts(space, keep_pts, sep, k_starts):
    """Greedy value-ordered starts: start r is each row's best candidate
    at least ``sep`` from every earlier start, else candidate
    min(r, n_keep - 1), which may repeat one.  One mask runs across the
    rounds, so each start but the last has its distances computed once."""
    N, n_keep = keep_pts.shape[:2]
    rows = np.arange(N)
    ok = np.ones((N, n_keep), dtype=bool)
    starts = []
    for r in range(k_starts):
        idx = np.where(ok.any(axis=1), ok.argmax(axis=1), min(r, n_keep - 1))
        starts.append(keep_pts[rows, idx])
        if r < k_starts - 1:
            ok &= space._norm(keep_pts - starts[-1][:, None]) >= sep
            ok[rows, idx] = False
    return starts


def _compass(obj, H, vals, step, space, cfg, r):
    """Compass search of every row's offset, in place.  ``H`` holds the
    offsets by coordinate, shape (d, N), each kept in the ball of radius r
    about 0.  A row finishes once its step falls below
    tolerance/8; the search counts as converged when every row's step ended
    below the tolerance itself.  Iterations run on a compacted copy of the
    active rows, in slices of ``_BLOCK // (2*d*d)`` rows (at least one, so
    a (d, 2d, n) trial block is about ``_BLOCK`` doubles), each with its
    objective, views and index range bound once.  Steps never grow, so the
    copy is written back and compacted again only when a step falls below
    tolerance/8, and at the iteration cap; rows move only on their own
    values, so neither the slicing nor the compaction changes a result.

    A slice projects its trials only when one of them may leave the ball.
    Each row carries a bound b on |h|: the computed norm at compaction,
    plus the step of every move it accepts since.  A trial moves one
    coordinate by exactly s, |e_k| = 1 in every l_p, and a projection only
    shrinks a point, so |h + s e_k| <= |h| + s.  With (kappa, eta, big) the
    norm's rounding bound (``spaces._norm_rounding``), u = 2^-53 and at most
    ``cap`` moves between compactions, the slice skips ``_project`` when
    every row has

        b + s <= (min(r, big) - 3 eta) (1 - m),
        m = 2 kappa + 2 (cap + 4) u.

    Then the exact |h| stays below (b + eta)((1+u)/(1-u))^cap / (1-kappa),
    each trial's computed norm is at most (1+kappa)|T| + eta <= r, and
    ``_project`` would have moved nothing: 2 kappa pays for the norm at
    compaction and at the trial, 2u per move for b's sum and the trial's
    one rounded coordinate, and the last 8u for the trial, b + s and the
    limit itself.  Values are checked finite, so ``~(tmin >= v)`` is
    ``tmin < v``."""
    d = H.shape[0]
    # dirs[k, j] is coordinate k of direction j: +e_0, ..., +e_{d-1}, -e_0, ...
    dirs = np.hstack([np.eye(d), -np.eye(d)])[:, :, None]
    tol8 = cfg.tolerance / 8.0
    width = max(1, _BLOCK // (2 * d * d))
    cap = cfg.refine_iterations + 40 * d
    kappa, eta, big = _norm_rounding(space)
    margin = 2.0 * kappa + 2.0 * (cap + 4) * 2.0 ** -53
    limit = (min(r, big) - 3.0 * eta) * (1.0 - margin)
    rows = None
    for it in range(cap):
        if rows is None:
            rows = (step >= tol8).nonzero()[0]
            if not rows.size:
                break
            Ha, va, sa = H.take(rows, axis=1), vals.take(rows), step.take(rows)
            ba = space._norm(_rows(Ha))
            slices = []
            for lo in range(0, rows.size, width):
                sl = slice(lo, lo + width)
                n = va[sl].size
                slices.append((
                    Ha[:, sl], Ha[:, None, sl], va[sl], sa[sl], ba[sl],
                    np.arange(n), n,
                    obj(np.concatenate((rows[sl],) * (2 * d)))))
        for h, h3, v, s, b, ar, n, g in slices:
            # trial point j of row i of the slice sits at T[:, j, i]
            T = h3 + s * dirs
            if np.count_nonzero(b + s > limit):
                _project(space, T, r)
            tv = g(_rows(T))
            pick = tv.reshape(2 * d, n).argmin(axis=0) * n + ar
            tmin = tv.take(pick)
            worse = tmin >= v
            better = ~worse
            np.copyto(h, T.reshape(d, -1).take(pick, axis=1), where=better)
            np.copyto(v, tmin, where=better)
            np.add(b, s, out=b, where=better)
            np.multiply(s, 0.5, out=s, where=worse)
        if np.count_nonzero(sa < tol8) or it == cap - 1:
            H[:, rows], vals[rows], step[rows] = Ha, va, sa
            rows = None
    return (step < cfg.tolerance).all()


def _minimize_rows(obj, X, space, cfg, r, extra_vals):
    """Shared batch minimizer in the offset frame.  Row i minimizes over
    the ball of radius r about X[i], as a search over offsets h = y - X[i]
    in the ball about 0.  ``obj(idx)`` binds the objective to rows
    ``idx``: it returns an evaluator of one offset per row, which
    evaluates f at y = x + h (see ``_checked``).  ``extra_vals`` holds its
    value at X[i], and y = X[i] wins where it beats the search.  Returns
    (values, minimizers y = x + h, evaluations, converged), empty for no
    rows.

    Coarse candidates, compass points and trial points are stored by
    coordinate, so that each coordinate of a block is one contiguous run,
    and per-row gathers are ``take`` calls; the objective receives the
    (n, d) view ``_rows`` of such a block.  The compass search runs once
    over all starts of all rows, stacked so that row s*N + i is start s of
    row i; every stacked row moves only on its own values, so the result
    equals one search per start."""
    N = X.shape[0]
    counter = _Counter()
    obj = _checked(obj, counter, X)
    keep_pts = _coarse_stage(obj, space, cfg, N, r)
    starts = _select_starts(space, keep_pts, sep=r * 0.25,
                            k_starts=cfg.starts)
    owner = np.tile(np.arange(N), len(starts))

    def stacked(idx):
        return obj(owner.take(idx))

    H = np.concatenate(starts).T.copy()
    vals = obj(owner)(H.T)
    converged = _compass(stacked, H, vals, np.full(owner.size, r * 0.25),
                         space, cfg, r)
    # argmin keeps the first minimum: a tie goes to the earlier start
    best = vals.reshape(len(starts), N).argmin(axis=0) * N + np.arange(N)
    best_vals = vals.take(best)
    best_pts = X + np.ascontiguousarray(H.take(best, axis=1).T)
    upd = extra_vals < best_vals
    best_vals[upd] = extra_vals[upd]
    best_pts[upd] = X[upd]
    return best_vals, best_pts, counter.evals, converged


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _check_lambda(lam):
    """Every public operator takes a finite positive lambda: at 0 the ball
    radius divides by zero, below it the infimum is not a regularization,
    and at inf no search ball is finite."""
    if not 0.0 < lam < math.inf:
        raise ParameterError(
            f"lambda must be positive and finite, got {lam}")


def _check_exponent(p, least):
    """A power exponent lies in [least, 1025): 2^(p-1) overflows beyond."""
    if not least <= p < _MAX_POWER:
        raise ParameterError(f"power must be >= {least:g} and below "
                             f"{_MAX_POWER:g} (2^(p-1) overflows), got {p}")


def _proven_constant(space, p):
    """Clarkson's C for Q_p on ``space`` (``analytic_power_constant``); a
    pair without a proven C is refused, as no theorem bounds its search
    ball or its rate.  The one place that rule and its message live."""
    C = analytic_power_constant(space, p)
    if C is None:
        raise ParameterError(
            f"no proven bound on {space.describe()} at power {p:g}; it "
            "needs l_q with 2 <= q <= power, q finite, or dimension 1")
    return C


def _search_radius(L, lam, p, C):
    """The radius r = (L/(lam*C))^(1/(p-1)) of the ball about x that holds
    the infimum of f(y) + lam*Q_p(x, y), or of f(y) + lam*|x-y|^p with
    C = 1: any y beating y = x has lam*C*|x-y|^p <= L*|x-y|.  An r that
    is not finite is refused before any solve."""
    try:
        r = (L / (lam * C)) ** (1.0 / (p - 1.0))
    except OverflowError:
        r = math.inf
    if not r < math.inf:
        raise ParameterError(
            f"the search radius (L/(lambda*C))^(1/(p-1)) overflows at power "
            f"{p:g} and lambda {lam:g}; raise lambda or the power")
    return r


def _power_rows(f, p, lam, X, space, cfg, r):
    """The power-p regularizer at the checked rows of X, searched in the
    ball of radius r about each row: (values, minimizers, evaluations,
    converged).

    An objective value is f at the rounded point y = x + h plus lam*Q.  A
    ``split`` kernel exists only at an even integer p equal to the space's
    exponent, where t = x - y is -h before rounding and Q is
    ``split(y + x, h)``, which never cancels.  Every other pair evaluates
    the difference formula at y."""
    _, defect, split = _q_kernel(space, p)
    XT = np.ascontiguousarray(X.T)
    if split is not None:
        def obj(idx):
            Xi = XT.take(idx, axis=1).T

            def g(H):
                Y = Xi + H
                fy = f(Y)  # before the kernel's temporaries; may view Y
                s = Y + Xi
                del Y  # freed here unless fy views it
                return fy + lam * split(s, H)
            return g
    else:
        def obj(idx):
            Xi = XT.take(idx, axis=1).T

            def g(H):
                Y = Xi + H
                return f(Y) + lam * defect(Xi, Y, Xi + Y)
            return g

    return _minimize_rows(obj, X, space, cfg, r,
                          np.asarray(f(X), dtype=float))


def _at_point(grid, f, p, lam, x, space, cfg):
    """``grid`` at the one point x, as a RegularizationResult; a batch or
    a scalar fails here, before any solve."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatchError(
            f"expected one point of shape ({space.dim},), got shape "
            f"{x.shape}")
    vals, pts, evals, conv, R = grid(f, p, lam, x[None], space, cfg)
    return RegularizationResult(value=float(vals[0]), minimizer=pts[0],
                                search_radius=float(R[0]),
                                evaluations=evals, converged=conv)


def _batch(points, space):
    """points as a checked (n, d) batch, one point of shape (d,) as a batch
    of one; any other shape fails here, before any solve."""
    x = np.asarray(points, dtype=float)
    if x.ndim not in (1, 2):
        raise DimensionMismatchError(
            f"expected shape ({space.dim},) or (n, {space.dim}), got shape "
            f"{x.shape}")
    return space._check(np.atleast_2d(x))


def regularize_power_grid(f, p, lam, points, space, cfg=SolverConfig()):
    """Values of the power-p regularizer at every row of ``points``, with
    the bound |x| + r on each minimizer's norm."""
    _check_exponent(p, 2.0)
    _check_lambda(lam)
    r = _search_radius(f.lipschitz_constant, lam, p,
                       _proven_constant(space, p))
    X = _batch(points, space)
    return _power_rows(f, p, lam, X, space, cfg, r) + (space._norm(X) + r,)


def regularize_power(f, p, lam, x, space, cfg=SolverConfig()):
    return _at_point(regularize_power_grid, f, p, lam, x, space, cfg)


def regularize_quadratic(f, lam, x, space, cfg=SolverConfig()):
    """Theorem-1 operator: inf over y of f(y) + lambda * Q_2(x, y)."""
    return regularize_power(f, 2.0, lam, x, space, cfg)


def inf_convolve_grid(f, power, lam, points, space, cfg=SolverConfig()):
    """Values of (f square lam*|.|^power) at every row of ``points``, at
    a power above 1, with the search radius r of each row."""
    _check_exponent(power, 1.0)
    if power == 1.0:
        raise ParameterError("power must be > 1: no search ball is proven "
                             "at power 1")
    _check_lambda(lam)
    r = _search_radius(f.lipschitz_constant, lam, power, 1.0)
    X = _batch(points, space)
    XT = np.ascontiguousarray(X.T)
    powered = _q_kernel(space, power)[0]

    def obj(idx):
        Xi = XT.take(idx, axis=1).T

        def g(H):
            Y = Xi + H
            fy = f(Y)
            t = Xi - Y
            del Y  # freed here unless fy views it
            return fy + lam * powered(t)
        return g

    return _minimize_rows(obj, X, space, cfg, r,
                          np.asarray(f(X), dtype=float)) + (
                              np.full(X.shape[0], r),)


def inf_convolve(f, power, lam, x, space, cfg=SolverConfig()):
    return _at_point(inf_convolve_grid, f, power, lam, x, space, cfg)


def decompose(f, lam, space, cfg=SolverConfig()):
    """Convex pair (c, d) with c - d equal to the quadratic regularizer:
    c(x) = 2*lam*|x|^2 and d = c - f_lam, on a space with a proven
    Clarkson constant at power 2 (refused here otherwise, with lambda).

    d solves f_lam with its own solver seed, so comparing c - d against
    regularize_quadratic is a genuine two-route consistency check.
    """
    # fail here rather than at the first call of d
    _check_lambda(lam)
    r = _search_radius(f.lipschitz_constant, lam, 2.0,
                       _proven_constant(space, 2.0))
    d_cfg = replace(cfg, seed=cfg.seed + 1)

    def c(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * lam * space.norm(x) ** 2

    def d(x):
        x = np.asarray(x, dtype=float)
        X = _batch(x, space)
        out = (2.0 * lam * space._norm(X) ** 2
               - _power_rows(f, 2.0, lam, X, space, d_cfg, r)[0])
        return float(out[0]) if x.ndim == 1 else out

    return ConvexPair(c=c, d=d, lam=lam)


def ball_grid(space, center, radius, n):
    """Regular n-per-axis grid on the enclosing cube, restricted to the ball
    (in the space norm).  The ball may keep no grid point."""
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    try:
        n = operator.index(n)  # numpy integers pass
    except TypeError:
        raise ValueError(f"grid must be an integer, got {n!r}") from None
    if n < 2:
        raise ValueError("grid must have at least 2 points per axis")
    if space.dim > _GRID_MAX_DIM:
        raise ValueError(
            f"grid evaluation is limited to dimension <= {_GRID_MAX_DIM}")
    center = np.asarray(center, dtype=float)
    axes = [np.linspace(c - radius, c + radius, n) for c in center]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    keep = space.norm(pts - center) <= radius + 1e-12
    return pts[keep]


def rate_bound(p, C, lam, L=1.0):
    """Theorem-3 sup-error guarantee L * (L / (lam C))^(1/(p-1)), transported
    from the 1-Lipschitz case through the scaling identity."""
    if not 0.0 < C <= 1.0:
        raise ParameterError(f"constant must lie in (0, 1], got {C}")
    _check_exponent(p, 2.0)
    _check_lambda(lam)
    if not 0.0 < L < math.inf:
        raise ParameterError(f"L must be positive and finite, got {L}")
    return L * (L / (lam * C)) ** (1.0 / (p - 1.0))
