"""Delta-convex regularization operators and the shared inner minimizer.

The quadratic/power operators minimize f(y) + lambda * Q_p(x, y), and the
inf-convolution baseline minimizes f(y) + lambda * |x - y|^power.  Both take
their search ball from one rule: radius (L/(lambda*C))^(1/(p-1)) around x
where a Clarkson constant C is proven (C = 1 for the inf-convolution at
power > 1, which searches radius 8 at power 1), and |y| <= 2(1 + |x|)
otherwise, which needs lambda >= 3L.  The pair of ``decompose`` has
d = c - f_lambda, solved on the regularizer's own objective.  All searches
share one derivative-free solver: a coarse stage on an in-package
scrambled Sobol' pool (bit-identical to scipy's), then compass search from
the best separated candidates (three by default), run as one batch over
every start of every row until each step is below tolerance/8.  The solver
works in an offset frame: it stores h = y - centre for each row and
searches the ball of the row's radius about 0, so coarse candidates are
``radius * pool`` and a compass trial is projected with no subtraction;
only the winners are moved back to y = centre + h.  A slice of compass
trials is projected only when a proven screen says one may leave its
ball: each row carries a bound on |h|, its norm at compaction plus the
steps it has taken since, and a slice whose rows all keep that bound plus
the step below the radius, less a margin derived from the iteration cap,
d and the norm's rounding, skips a projection that would move nothing.
It stores its points by coordinate, as (d, ...) blocks whose coordinates
are contiguous runs.
Its objectives are bound per block: ``obj(idx)`` gathers the data of rows
``idx`` once and returns an evaluator of the (n, d) view of a block of
offsets, which may be non-contiguous.  The compass search keeps only its
active rows, compacted, and rebinds when that set shrinks.  Both stages
take their rows in blocks of about ``spaces._BLOCK`` doubles.

A returned value is f at the rounded point y = centre + h plus lambda
times Q at the offset h.  On l_q at an even integer power p = q <= 8 the
ball is centred at x, and Q(x, x + h) is summed from t = -h and s = y + x
as nonnegative terms (``spaces._q_kernel``), to a few ulps at every |x|:
a value is the objective at x + h up to those ulps and L times the
rounding of x + h, so the rate bound holds on the whole space.  Every
other pair, the restricted-infimum route about 0 included, evaluates the
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
from .spaces import (_BLOCK, DimensionMismatchError, NormedSpace,
                     _norm_rounding, _q_kernel, analytic_power_constant)

__all__ = [
    "SolverConfig",
    "RegularizationResult",
    "ConvexPair",
    "ParameterError",
    "SolverError",
    "inner_minimize",
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
_POWER1_RADIUS = 8.0  # search radius of the inf-convolution at power 1
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


def _project(space, B, radii):
    """Radial projection, in place, of every offset of the coordinate-major
    block B, shape (d, ...), into the ball of radius ``radii`` about 0;
    ``radii`` need only broadcast against B's point axes.  A point inside
    its ball is untouched, so a row's result does not depend on the other
    rows of the batch.  A projected point is each coordinate times
    radius/norm <= 1, so projection only shrinks a point; the compass
    search relies on that in its screen, and calls this only for slices
    whose screen fails (``_compass``)."""
    nd = space._norm(_rows(B)).reshape(B.shape[1:])
    over = nd > radii
    if np.count_nonzero(over):
        B[:, over] *= np.broadcast_to(radii, nd.shape)[over] / nd[over]


class _Counter:
    __slots__ = ("evals",)

    def __init__(self):
        self.evals = 0


def _checked(obj, counter, centers):
    """``obj`` bound for the stages.  ``obj(idx)`` returns an evaluator g
    of one offset per row of ``idx``.  The result maps ``idx`` to g with
    every evaluation counted in ``counter`` and checked: a non-finite value
    raises SolverError at its point y = centre + h, the centre a row of
    ``centers``.  The evaluator names that row from its own copy of
    ``idx`` in the smallest unsigned type holding every row of
    ``centers`` (one byte a row up to 256 rows), not the caller's int64
    array."""
    rowtype = np.min_scalar_type(max(centers.shape[0] - 1, 0))

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
                                  point=centers[idx[bad]] + H[bad])
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


def _coarse_stage(obj, space, cfg, radii):
    """Evaluate the offsets ``radii[i] * pool`` of each row i; return the
    min(_N_KEEP, m) best per row, value-sorted, as an
    (N, min(_N_KEEP, m), d) array.  The pool lies in the unit ball, so an
    offset leaves its ball by rounding only and needs no projection.  A
    chunk holds ``_BLOCK // (m*d)`` rows (at least one), so its (d, n, m)
    candidate block is about ``_BLOCK`` doubles."""
    d, N = space.dim, radii.size
    m = cfg.coarse_samples
    k = min(_N_KEEP, m)
    pool = _unit_ball_pool(space, m, cfg.seed).T
    keep_pts = np.empty((N, k, d))
    chunk = max(1, _BLOCK // (m * d))
    for lo in range(0, N, chunk):
        hi = min(N, lo + chunk)
        n = hi - lo
        cand = radii[lo:hi, None] * pool[:, None, :]  # (d, n, m)
        vals = obj(np.repeat(np.arange(lo, hi), m))(_rows(cand)).reshape(n, m)
        # flat indices into vals of each row's k best, value-sorted
        part = (np.argpartition(vals, k - 1, axis=1)[:, :k]
                + np.arange(0, n * m, m)[:, None])
        order = np.argsort(vals.take(part), axis=1, kind="stable")
        sel = part.take(order + np.arange(0, n * k, k)[:, None])
        keep_pts[lo:hi] = cand.reshape(d, -1).take(sel, axis=1).transpose(
            1, 2, 0)
        if k > 1:
            # exact lexicographic tie-break for the leading candidate: every
            # copy of the minimum is among the k best, so a tie shows in
            # the two best values
            best = vals.take(sel[:, :2])
            for t in np.flatnonzero(best[:, 0] == best[:, 1]):
                keep_pts[lo + t, 0] = cand[:, t, _lex_best(cand[:, t],
                                                           vals[t])]
    return keep_pts


def _select_starts(space, keep_pts, sep, k_starts):
    """Greedy value-ordered start selection, forcing mutual separation so the
    multistart explores distinct basins."""
    N, n_keep, d = keep_pts.shape
    starts = [keep_pts[:, 0, :]]
    chosen = [np.zeros(N, dtype=int)]
    for _ in range(1, k_starts):
        ok = np.ones((N, n_keep), dtype=bool)
        for idx in chosen:
            prev = keep_pts[np.arange(N), idx]
            dist = space._norm(keep_pts - prev[:, None, :])
            ok &= dist >= sep[:, None]
        for idx in chosen:
            ok[np.arange(N), idx] = False
        any_ok = ok.any(axis=1)
        first_ok = np.where(any_ok, ok.argmax(axis=1),
                            np.minimum(len(chosen), n_keep - 1))
        chosen.append(first_ok)
        starts.append(keep_pts[np.arange(N), first_ok])
    return starts


def _compass(obj, H, vals, step, space, cfg, radii):
    """Compass search of every row's offset, in place.  ``H`` holds the
    offsets by coordinate, shape (d, N), each kept in the ball of radius
    ``radii`` about 0.  A row finishes once its step falls below
    tolerance/8; the search counts as converged when every row's step ended
    below the tolerance itself.  Iterations run on a compacted copy of the
    active rows, in slices of ``_BLOCK // (2*d*d)`` rows (at least one, so
    a (d, 2d, n) trial block is about ``_BLOCK`` doubles), each with its
    objective, views and index range bound once.  Steps never grow, so the
    copy is written back and compacted again only when a step falls below
    tolerance/8, and at the iteration cap; rows move only on their own
    values, so neither the slicing nor the compaction changes a result.

    A slice projects its trials only when one of them may leave its ball.
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
    limits = (np.minimum(radii, big) - 3.0 * eta) * (1.0 - margin)
    rows = None
    for it in range(cap):
        if rows is None:
            rows = (step >= tol8).nonzero()[0]
            if not rows.size:
                break
            Ha, va, sa = H.take(rows, axis=1), vals.take(rows), step.take(rows)
            ra, limit = radii.take(rows), limits.take(rows)
            ba = space._norm(_rows(Ha))
            slices = []
            for lo in range(0, rows.size, width):
                sl = slice(lo, lo + width)
                n = ra[sl].size
                slices.append((
                    Ha[:, sl], Ha[:, None, sl], va[sl], sa[sl], ba[sl],
                    limit[sl], ra[sl], np.arange(n), n,
                    obj(np.concatenate((rows[sl],) * (2 * d)))))
        for h, h3, v, s, b, lim, r, ar, n, g in slices:
            # trial point j of row i of the slice sits at T[:, j, i]
            T = h3 + s * dirs
            if np.count_nonzero(b + s > lim):
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


def _minimize_rows(obj, X, space, cfg, centers, radii, extra_vals=None):
    """Shared batch minimizer in the offset frame.  Row i minimizes over
    the ball of radius radii[i] about centers[i] (both (N, ...)), as a
    search over offsets h = y - centers[i] in the ball about 0.
    ``obj(idx)`` binds the objective to rows ``idx``: it returns an
    evaluator of one offset per row, which evaluates f at y = centre + h
    (see ``_checked``).  ``extra_vals``, when given, holds its value at
    X[i], and y = X[i] wins where it beats the search.  Returns (values,
    minimizers y = centre + h, evaluations, converged).

    Coarse candidates, compass points and trial points are stored by
    coordinate, so that each coordinate of a block is one contiguous run,
    and per-row gathers are ``take`` calls; the objective receives the
    (n, d) view ``_rows`` of such a block.  The compass search runs once
    over all starts of all rows, stacked so that row s*N + i is start s of
    row i; every stacked row moves only on its own values, so the result
    equals one search per start."""
    N = X.shape[0]
    counter = _Counter()
    obj = _checked(obj, counter, centers)
    keep_pts = _coarse_stage(obj, space, cfg, radii)
    starts = _select_starts(space, keep_pts, sep=radii * 0.25,
                            k_starts=cfg.starts)
    owner = np.tile(np.arange(N), len(starts))

    def stacked(idx):
        return obj(owner.take(idx))

    H = np.concatenate(starts).T.copy()
    vals = obj(owner)(H.T)
    rad = radii.take(owner)
    converged = _compass(stacked, H, vals, rad * 0.25, space, cfg, rad)
    # argmin keeps the first minimum: a tie goes to the earlier start
    best = vals.reshape(-1, N).argmin(axis=0) * N + np.arange(N)
    best_vals = vals.take(best)
    best_pts = centers + np.ascontiguousarray(H.take(best, axis=1).T)
    if extra_vals is not None:
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
    """A power exponent is finite and at least ``least``."""
    if not least <= p < math.inf:
        raise ParameterError(
            f"power must be finite and >= {least:g}, got {p}")


def _check_threshold(L, lam):
    """The restricted-infimum reduction |y| <= 2(1 + |x|) is proven only
    for lambda >= 3L; the one place that rule is checked."""
    if lam < 3.0 * L - 1e-12:
        raise ParameterError(
            f"lambda = {lam:.6g} below the proven threshold 3L = "
            f"{3.0 * L:.6g} of the restricted-infimum reduction; raise "
            "lambda.")


def _search_ball(X, nx, L, lam, p, C):
    """Centres and radii of the ball holding the infimum of
    f(y) + lam*Q_p(x, y) for each row x of X (nx = |x|), and of
    f(y) + lam*|x-y|^p with C = 1.

    With a proven Clarkson constant C, any y beating y = x satisfies
    lam*C*|x-y|^p <= L*|x-y|, so the infimum lies in ball(x, r_loc) for
    every lambda > 0.  Without one, only the restricted-infimum reduction
    |y| <= 2(1 + |x|) is available, and it needs lambda >= 3L.
    """
    if C is not None:
        return X, np.full(X.shape[0], (L / (lam * C)) ** (1.0 / (p - 1.0)))
    _check_threshold(L, lam)
    return np.zeros_like(X), 2.0 * (1.0 + nx)


def _power_rows(f, p, lam, X, nx, space, cfg, C):
    """The power-p regularizer at the checked rows of X (nx = |x|, C the
    Clarkson constant or None): (values, minimizers, evaluations,
    converged, radii).

    An objective value is f at the rounded point y = centre + h plus
    lam*Q.  A ``split`` kernel exists only at an even integer p equal to
    the space's exponent, where C = 1 and the ball is centred at x, so
    t = x - y is -h before rounding and Q is ``split(y + x, h)``, which
    never cancels.  Every other pair evaluates the difference formula at y
    about the ball's centre: x, or 0 on the restricted-infimum route."""
    centers, radii = _search_ball(X, nx, f.lipschitz_constant, lam, p, C)
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
        CT = np.ascontiguousarray(centers.T)

        def obj(idx):
            Ci, Xi = CT.take(idx, axis=1).T, XT.take(idx, axis=1).T

            def g(H):
                Y = Ci + H
                return f(Y) + lam * defect(Xi, Y, Xi + Y)
            return g

    return _minimize_rows(obj, X, space, cfg, centers, radii,
                          extra_vals=np.asarray(f(X), dtype=float)) + (radii,)


def _point(x, space):
    """x as one point: a batch or a scalar fails here, before any solve."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatchError(
            f"expected one point of shape ({space.dim},), got shape "
            f"{x.shape}")
    return x


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
    """Values of the power-p regularizer at every row of ``points``."""
    _check_exponent(p, 2.0)
    _check_lambda(lam)
    X = _batch(points, space)
    C = analytic_power_constant(space, p)
    nx = space._norm(X)
    vals, pts, evals, conv, radii = _power_rows(f, p, lam, X, nx, space, cfg,
                                                C)
    R = nx + radii if C is not None else radii
    return vals, pts, evals, conv, R


def regularize_power(f, p, lam, x, space, cfg=SolverConfig()):
    x = _point(x, space)
    vals, pts, evals, conv, R = regularize_power_grid(f, p, lam, x[None],
                                                      space, cfg)
    return RegularizationResult(value=float(vals[0]), minimizer=pts[0],
                                search_radius=float(R[0]),
                                evaluations=evals, converged=conv)


def regularize_quadratic(f, lam, x, space, cfg=SolverConfig()):
    """Theorem-1 operator: inf over y of f(y) + lambda * Q_2(x, y)."""
    return regularize_power(f, 2.0, lam, x, space, cfg)


def inf_convolve_grid(f, power, lam, points, space, cfg=SolverConfig()):
    """Values of (f square lam*|.|^power) at every row of ``points``."""
    _check_exponent(power, 1.0)
    _check_lambda(lam)
    X = _batch(points, space)
    if power > 1.0:
        _, radii = _search_ball(X, None, f.lipschitz_constant, lam, power,
                                1.0)
    else:
        radii = np.full(X.shape[0], _POWER1_RADIUS)

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

    vals, pts, evals, conv = _minimize_rows(
        obj, X, space, cfg, X, radii,
        extra_vals=np.asarray(f(X), dtype=float))
    return vals, pts, evals, conv, radii


def inf_convolve(f, power, lam, x, space, cfg=SolverConfig()):
    x = _point(x, space)
    vals, pts, evals, conv, radii = inf_convolve_grid(
        f, power, lam, x[None], space, cfg)
    return RegularizationResult(value=float(vals[0]), minimizer=pts[0],
                                search_radius=float(radii[0]),
                                evaluations=evals, converged=conv)


def inner_minimize(objective, center, radius, cfg=SolverConfig(), space=None):
    """Minimize a black-box objective over ball(center, radius).

    The objective may be batch-aware ((n, d) -> (n,)) or scalar-only; scalar
    evaluators are wrapped row by row.  A batch is an (n, d) float array
    that may be a non-contiguous view, so an objective must not assume a
    memory layout.  Returns (minimizer, value, diagnostics).
    """
    if not 0.0 < radius < math.inf:
        raise ParameterError("radius must be positive and finite")
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if space is None:
        space = NormedSpace(dim=center.shape[-1], p_exponent=2.0)
    center = space._check(_point(center, space))

    batch = objective
    try:
        # the probe doubles as the value at the centre, a candidate itself
        cval = np.asarray(batch(center[None]), dtype=float)
        if cval.shape != (1,):
            raise TypeError
    except Exception:
        def batch(Y):
            return np.array([float(objective(row)) for row in Y])
        cval = batch(center[None])

    X = center[None]
    radii = np.array([float(radius)])

    def obj(idx):
        return lambda H: batch(center + H)

    vals, pts, evals, conv = _minimize_rows(obj, X, space, cfg, X, radii,
                                            extra_vals=cval)
    diagnostics = {"evaluations": evals, "converged": bool(conv)}
    return pts[0], float(vals[0]), diagnostics


def decompose(f, lam, space, cfg=SolverConfig()):
    """Convex pair (c, d) with c - d equal to the quadratic regularizer:
    c(x) = 2*lam*|x|^2 and d = c - f_lam.

    d solves f_lam with its own solver seed, so comparing c - d against
    regularize_quadratic is a genuine two-route consistency check.
    """
    # fail here rather than at the first call of d
    _check_lambda(lam)
    C = analytic_power_constant(space, 2.0)
    if C is None:
        _check_threshold(f.lipschitz_constant, lam)
    d_cfg = replace(cfg, seed=cfg.seed + 1)

    def c(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * lam * space.norm(x) ** 2

    def d(x):
        x = np.asarray(x, dtype=float)
        X = _batch(x, space)
        nx = space._norm(X)
        out = (2.0 * lam * nx ** 2
               - _power_rows(f, 2.0, lam, X, nx, space, d_cfg, C)[0])
        return float(out[0]) if x.ndim == 1 else out

    return ConvexPair(c=c, d=d, lam=lam)


def ball_grid(space, center, radius, n):
    """Regular n-per-axis grid on the enclosing cube, restricted to the ball
    (in the space norm)."""
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
