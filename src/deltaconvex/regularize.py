"""Delta-convex regularization operators and the shared inner minimizer.

The quadratic/power operators minimize f(y) + lambda * Q_p(x, y), and the
inf-convolution baseline minimizes f(y) + lambda * |x - y|^power.  Both take
their search ball from one rule: radius (L/(lambda*C))^(1/(p-1)) around x
where a Clarkson constant C is proven (C = 1 for the inf-convolution at
power > 1, which searches a fixed diameter at power 1), and |y| <= 2(1 + |x|)
otherwise, which needs lambda >= 3L.  The pair of ``decompose`` has
d = c - f_lambda, solved on the regularizer's own objective.  All searches
share one derivative-free solver: a coarse stage on an in-package
scrambled Sobol' pool (bit-identical to scipy's), then compass search from
the best separated candidates (three by default), run as one batch over
every start of every row until each step is below tolerance/8.
Returned values are objective values at points the solver found, so they
are upper bounds on the true infimum up to the rounding of lambda*Q, which
the minimizer can exploit at about the 1e-12 level.
"""

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ._sobol import ScrambledSobol
from .spaces import NormedSpace, analytic_power_constant

__all__ = [
    "SolverConfig",
    "RegularizationResult",
    "ConvexPair",
    "ParameterError",
    "SolverError",
    "search_radius",
    "inner_minimize",
    "regularize_quadratic",
    "regularize_power",
    "inf_convolve",
    "regularize_power_grid",
    "inf_convolve_grid",
    "decompose",
    "sup_distance",
    "rate_bound",
    "ball_grid",
]

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
        if self.coarse_samples < 1:
            raise ValueError("coarse_samples must be >= 1")
        if self.refine_iterations < 0:
            raise ValueError("refine_iterations must be >= 0")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
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
    """m low-discrepancy points in the unit ball of the space norm."""
    sob = ScrambledSobol(space.dim, seed)
    pts = np.empty((0, space.dim))
    nbatch = 1
    while pts.shape[0] < m:
        nbatch = max(nbatch * 2, 2 * m)
        draw = 2.0 * sob.random(nbatch) - 1.0
        keep = draw[space.norm(draw) <= 1.0]
        pts = np.vstack([pts, keep])
    pool = pts[:m].copy()
    pool.setflags(write=False)
    return pool


def _project_rows(space, Y, centers, radii):
    """Radial projection of each row into ball(centers[i], radii[i]).  Rows
    inside their ball come back untouched, so a row's result does not depend
    on the other rows of the batch.  ``centers`` and ``radii`` need only
    broadcast against ``Y`` and its rows: one centre per row of a candidate
    block serves all of the block."""
    diff = Y - centers
    nd = space._norm(diff)
    over = nd > radii
    if over.any():
        Y = Y.copy()
        scale = np.broadcast_to(radii, nd.shape)[over] / nd[over]
        Y[over] = (np.broadcast_to(centers, Y.shape)[over]
                   + diff[over] * scale[:, None])
    return Y


class _Counter:
    __slots__ = ("evals",)

    def __init__(self):
        self.evals = 0


def _checked(obj, Y, idx, counter):
    v = np.asarray(obj(Y, idx), dtype=float)
    counter.evals += Y.shape[0]
    if not np.isfinite(v).all():
        bad = int(np.argmax(~np.isfinite(v)))
        raise SolverError("objective returned a non-finite value",
                          point=Y[bad].copy())
    return v


def _lex_best(cands, vals):
    """Index of the minimal value; ties broken by lexicographic order of
    candidate coordinates."""
    vmin = vals.min()
    tied = np.flatnonzero(vals == vmin)
    if tied.size == 1:
        return int(tied[0])
    order = np.lexsort(cands[tied].T[::-1])
    return int(tied[order[0]])


def _coarse_stage(obj, X, space, cfg, centers, radii, counter, n_keep=8):
    """Evaluate the shared pool around each row; return the min(n_keep, m)
    best candidates per row, value-sorted, as an (N, min(n_keep, m), d)
    array.  A chunk holds at most 2^18 candidate rows, which bounds the
    memory of one objective call."""
    N, d = X.shape
    m = cfg.coarse_samples
    k = min(n_keep, m)
    pool = _unit_ball_pool(space, m, cfg.seed)
    keep_pts = np.empty((N, k, d))
    chunk = max(1, (1 << 18) // m)
    for lo in range(0, N, chunk):
        hi = min(N, lo + chunk)
        rows = np.arange(lo, hi)
        ctr = centers[lo:hi][:, None, :]
        rad = radii[lo:hi][:, None]
        cand = _project_rows(space, ctr + rad[:, :, None] * pool[None, :, :],
                             ctr, rad)
        flat = cand.reshape(-1, d)
        vals = _checked(obj, flat, np.repeat(rows, m), counter).reshape(-1, m)
        part = np.argpartition(vals, k - 1, axis=1)[:, :k]
        r = np.arange(hi - lo)[:, None]
        order = np.argsort(vals[r, part], axis=1, kind="stable")
        sel = part[r, order]
        keep_pts[lo:hi] = cand[r, sel]
        # exact lexicographic tie-break for the leading candidate
        tied = np.flatnonzero((vals == vals[r, sel[:, :1]]).sum(axis=1) > 1)
        for t in tied:
            keep_pts[lo + t, 0] = cand[t, _lex_best(cand[t], vals[t])]
    return keep_pts


def _select_starts(space, keep_pts, sep, k_starts=3):
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


def _compass(obj, Y, vals, step, space, cfg, centers, radii, counter):
    """Compass search of every row, in place.  A row finishes once its step
    falls below tolerance/8; the search counts as converged when every
    row's step ended below the tolerance itself."""
    N, d = Y.shape
    dirs = np.vstack([np.eye(d), -np.eye(d)])  # (2d, d)
    tol = cfg.tolerance
    for _ in range(cfg.refine_iterations + 40 * d):
        active = step >= tol / 8.0
        if not active.any():
            break
        rows = np.flatnonzero(active)
        T = Y[rows][:, None, :] + step[rows][:, None, None] * dirs[None]
        T = _project_rows(space, T, centers[rows][:, None, :],
                          radii[rows][:, None])
        flat = T.reshape(-1, d)
        tv = _checked(obj, flat, np.repeat(rows, 2 * d), counter).reshape(-1, 2 * d)
        j = tv.argmin(axis=1)
        tmin = tv[np.arange(rows.size), j]
        better = tmin < vals[rows]
        moved = rows[better]
        Y[moved] = T[better, j[better]]
        vals[moved] = tmin[better]
        step[rows[~better]] *= 0.5
    return (step < tol).all()


def _minimize_rows(obj, X, space, cfg, centers, radii, extra_vals=None):
    """Shared batch minimizer.  Row i minimizes obj(., i) over
    ball(centers[i], radii[i]); ``extra_vals``, when given, holds
    obj(X[i], i), and y = X[i] wins where it beats the search.  Returns
    (values, minimizers, evaluations, converged).

    The compass search runs once over all starts of all rows, stacked so
    that row s*N + i is start s of row i; every stacked row moves only on
    its own values, so the result equals one search per start."""
    N = X.shape[0]
    counter = _Counter()
    keep_pts = _coarse_stage(obj, X, space, cfg, centers, radii, counter)
    starts = _select_starts(space, keep_pts, sep=radii * 0.25,
                            k_starts=cfg.starts)
    owner = np.tile(np.arange(N), len(starts))

    def stacked(Y, idx):
        return obj(Y, owner[idx])

    Y = np.concatenate(starts)
    vals = _checked(obj, Y, owner, counter)
    converged = _compass(stacked, Y, vals, radii[owner] * 0.25, space, cfg,
                         centers[owner], radii[owner], counter)
    # argmin keeps the first minimum: a tie goes to the earlier start
    best = vals.reshape(-1, N).argmin(axis=0) * N + np.arange(N)
    best_vals = vals[best]
    best_pts = Y[best]
    if extra_vals is not None:
        upd = extra_vals < best_vals
        best_vals[upd] = extra_vals[upd]
        best_pts[upd] = X[upd]
    return best_vals, best_pts, counter.evals, converged


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def search_radius(x, L, lam, space):
    """Radius of the ball on which the regularizer's infimum is attained:
    R = 2(1 + |x|), valid once lambda >= 3L."""
    if not L > 0 or not lam > 0:
        raise ParameterError("L and lambda must be positive")
    return float(_search_ball(x, space.norm(x), L, lam, None, None)[1])


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
    converged, radii)."""
    centers, radii = _search_ball(X, nx, f.lipschitz_constant, lam, p, C)
    ax = space._defect_term(p, X)  # fixed per row; hoisted out of the loop

    def obj(Y, idx):
        return f(Y) + lam * space._defect(p, ax[idx], Y, X[idx] + Y)

    return _minimize_rows(obj, X, space, cfg, centers, radii,
                          extra_vals=np.asarray(f(X), dtype=float)) + (radii,)


def regularize_power_grid(f, p, lam, points, space, cfg=SolverConfig()):
    """Values of the power-p regularizer at every row of ``points``."""
    if not p >= 2.0:
        raise ParameterError(f"power exponent must be >= 2, got {p}")
    X = space._check(np.atleast_2d(points))
    C = analytic_power_constant(space, p)
    nx = space._norm(X)
    vals, pts, evals, conv, radii = _power_rows(f, p, lam, X, nx, space, cfg,
                                                C)
    R = nx + radii if C is not None else radii
    return vals, pts, evals, conv, R


def regularize_power(f, p, lam, x, space, cfg=SolverConfig()):
    x = np.asarray(x, dtype=float)
    vals, pts, evals, conv, R = regularize_power_grid(f, p, lam, x[None],
                                                      space, cfg)
    return RegularizationResult(value=float(vals[0]), minimizer=pts[0],
                                search_radius=float(R[0]),
                                evaluations=evals, converged=conv)


def regularize_quadratic(f, lam, x, space, cfg=SolverConfig()):
    """Theorem-1 operator: inf over y of f(y) + lambda * Q_2(x, y)."""
    return regularize_power(f, 2.0, lam, x, space, cfg)


def inf_convolve_grid(f, power, lam, points, space, cfg=SolverConfig(),
                      diameter=8.0):
    """Values of (f square lam*|.|^power) at every row of ``points``."""
    if not power >= 1.0:
        raise ParameterError(f"power must be >= 1, got {power}")
    if not lam > 0:
        raise ParameterError("lambda must be positive")
    X = space._check(np.atleast_2d(points))
    if power > 1.0:
        _, radii = _search_ball(X, None, f.lipschitz_constant, lam, power,
                                1.0)
    else:
        radii = np.full(X.shape[0], diameter)

    def obj(Y, idx):
        return f(Y) + lam * space._powered(X[idx] - Y, power)

    vals, pts, evals, conv = _minimize_rows(
        obj, X, space, cfg, X, radii,
        extra_vals=np.asarray(f(X), dtype=float))
    return vals, pts, evals, conv, radii


def inf_convolve(f, power, lam, x, space, cfg=SolverConfig(), diameter=8.0):
    x = np.asarray(x, dtype=float)
    vals, pts, evals, conv, radii = inf_convolve_grid(
        f, power, lam, x[None], space, cfg, diameter)
    return RegularizationResult(value=float(vals[0]), minimizer=pts[0],
                                search_radius=float(radii[0]),
                                evaluations=evals, converged=conv)


def inner_minimize(objective, center, radius, cfg=SolverConfig(), space=None):
    """Minimize a black-box objective over ball(center, radius).

    The objective may be batch-aware ((n, d) -> (n,)) or scalar-only; scalar
    evaluators are wrapped row by row.  Returns (minimizer, value,
    diagnostics).
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    center = np.atleast_1d(np.asarray(center, dtype=float))
    d = center.shape[0]
    if space is None:
        space = NormedSpace(dim=d, p_exponent=2.0)
    center = space._check(center)

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

    def obj(Y, idx):
        return batch(Y)

    X = center[None]
    radii = np.array([float(radius)])
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
    C = analytic_power_constant(space, 2.0)
    if C is None:
        _check_threshold(f.lipschitz_constant, lam)  # fail before any solve
    d_cfg = replace(cfg, seed=cfg.seed + 1)

    def c(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * lam * space.norm(x) ** 2

    def d(x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = space._check(np.atleast_2d(x))
        nx = space._norm(X)
        out = (2.0 * lam * nx ** 2
               - _power_rows(f, 2.0, lam, X, nx, space, d_cfg, C)[0])
        return float(out[0]) if single else out

    return ConvexPair(c=c, d=d, lam=lam)


def ball_grid(space, center, radius, n):
    """Regular n-per-axis grid on the enclosing cube, restricted to the ball
    (in the space norm)."""
    if n < 2:
        raise ValueError("grid must have at least 2 points per axis")
    if space.dim > 4:
        raise ValueError("grid evaluation is limited to dimension <= 4")
    center = np.asarray(center, dtype=float)
    axes = [np.linspace(c - radius, c + radius, n) for c in center]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    keep = space.norm(pts - center) <= radius + 1e-12
    return pts[keep]


def sup_distance(f, g, space, center, radius, grid):
    """Grid maximum of |f - g| over the ball; a lower bound on the true sup
    at grid resolution."""
    pts = ball_grid(space, center, radius, grid)
    fv = np.asarray(f(pts), dtype=float)
    gv = np.asarray(g(pts), dtype=float)
    return float(np.abs(fv - gv).max())


def rate_bound(p, C, lam, L=1.0):
    """Theorem-3 sup-error guarantee L * (L / (lam C))^(1/(p-1)), transported
    from the 1-Lipschitz case through the scaling identity."""
    if not 0.0 < C <= 1.0:
        raise ParameterError(f"constant must lie in (0, 1], got {C}")
    if not p >= 2.0:
        raise ParameterError("p must be >= 2")
    return L * (L / (lam * C)) ** (1.0 / (p - 1.0))
