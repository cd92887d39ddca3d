"""Delta-convex regularization operators and the shared inner minimizer.

The quadratic/power operators minimize f(y) + lambda * Q_p(x, y) over the
ball of radius (L/(lambda*C))^(1/(p-1)) around x where a Clarkson constant C
is proven, and over |y| <= 2(1 + |x|) otherwise; the inf-convolution
baseline minimizes f(y) + w * |x - y|^power over a ball centered at x.  All
searches share one derivative-free solver: a coarse stage on an in-package
scrambled Sobol' pool (bit-identical to scipy's), compass search from the
best three separated candidates, and a golden-section axis polish.
Returned values are objective values at points the solver found, so they
are upper bounds on the true infimum up to the rounding of lambda*Q, which
the minimizer can exploit at about the 1e-12 level.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ._sobol import ScrambledSobol
from .spaces import NormedSpace, PowerTypeConstant, analytic_power_constant

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

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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
    """Radial projection of each row into ball(centers[i], radii[i])."""
    diff = Y - centers
    nd = space._norm(diff)
    over = nd > radii
    if np.any(over):
        scale = np.where(over, radii / np.maximum(nd, 1e-300), 1.0)
        Y = centers + diff * scale[..., None]
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
    """Evaluate the shared pool around each row; return the n_keep best
    candidates (points and values) per row, value-sorted."""
    N, d = X.shape
    m = cfg.coarse_samples
    pool = _unit_ball_pool(space, m, cfg.seed)
    keep_pts = np.empty((N, n_keep, d))
    keep_vals = np.empty((N, n_keep))
    chunk = max(1, int(4_000_000 // max(m, 1)))
    for lo in range(0, N, chunk):
        hi = min(N, lo + chunk)
        rows = np.arange(lo, hi)
        cand = centers[rows][:, None, :] + \
            radii[rows][:, None, None] * pool[None, :, :]
        flat = cand.reshape(-1, d)
        flat = _project_rows(space, flat,
                             np.repeat(centers[rows], m, axis=0),
                             np.repeat(radii[rows], m))
        vals = _checked(obj, flat, np.repeat(rows, m), counter).reshape(-1, m)
        cand = flat.reshape(-1, m, d)
        k = min(n_keep, m)
        part = np.argpartition(vals, k - 1, axis=1)[:, :k]
        r = np.arange(hi - lo)[:, None]
        pv = vals[r, part]
        order = np.argsort(pv, axis=1, kind="stable")
        sel = part[r, order]
        keep_vals[lo:hi, :k] = vals[r, sel]
        keep_pts[lo:hi, :k] = cand[r, sel]
        if k < n_keep:
            keep_vals[lo:hi, k:] = keep_vals[lo:hi, k - 1][:, None]
            keep_pts[lo:hi, k:] = keep_pts[lo:hi, k - 1][:, None, :]
        # exact lexicographic tie-break for the leading candidate
        tied = np.flatnonzero(
            (vals == keep_vals[lo:hi, 0][:, None]).sum(axis=1) > 1)
        for t in tied:
            j = _lex_best(cand[t], vals[t])
            keep_vals[lo + t, 0] = vals[t, j]
            keep_pts[lo + t, 0] = cand[t, j]
    return keep_pts, keep_vals


def _select_starts(space, keep_pts, keep_vals, sep, k_starts=3):
    """Greedy value-ordered start selection, forcing mutual separation so the
    multistart explores distinct basins."""
    N, n_keep, d = keep_pts.shape
    starts = [keep_pts[:, 0, :].copy()]
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
        starts.append(keep_pts[np.arange(N), first_ok].copy())
    return starts


def _compass(obj, Y, vals, step, space, cfg, centers, radii, counter):
    N, d = Y.shape
    dirs = np.vstack([np.eye(d), -np.eye(d)])  # (2d, d)
    tol = cfg.tolerance
    for _ in range(cfg.refine_iterations + 40 * d):
        active = step >= tol
        if not active.any():
            break
        rows = np.flatnonzero(active)
        T = Y[rows][:, None, :] + step[rows][:, None, None] * dirs[None]
        flat = T.reshape(-1, d)
        flat = _project_rows(space, flat,
                             np.repeat(centers[rows], 2 * d, axis=0),
                             np.repeat(radii[rows], 2 * d))
        tv = _checked(obj, flat, np.repeat(rows, 2 * d), counter).reshape(-1, 2 * d)
        j = tv.argmin(axis=1)
        tmin = tv[np.arange(rows.size), j]
        better = tmin < vals[rows]
        moved = rows[better]
        Y[moved] = flat.reshape(-1, 2 * d, d)[better, j[better]]
        vals[moved] = tmin[better]
        step[rows[~better]] *= 0.5
    return (step < tol).all()


def _axis_polish(obj, Y, vals, space, cfg, centers, radii, counter,
                 sweeps=2, iters=30):
    """Golden-section descent along each axis inside a small bracket around
    the compass endpoint; keeps the result only when it improves."""
    N, d = Y.shape
    b0 = max(64.0 * cfg.tolerance, 1e-5)
    idx = np.arange(N)
    for _ in range(sweeps):
        for k in range(d):
            a = np.full(N, -b0)
            b = np.full(N, b0)
            x1 = b - _INVPHI * (b - a)
            x2 = a + _INVPHI * (b - a)

            def val_at(t):
                P = Y.copy()
                P[:, k] = Y[:, k] + t
                P = _project_rows(space, P, centers, radii)
                return _checked(obj, P, idx, counter)

            f1 = val_at(x1)
            f2 = val_at(x2)
            for _ in range(iters):
                shrink1 = f1 < f2  # keep [a, x2], reuse x1 as new interior
                b = np.where(shrink1, x2, b)
                a = np.where(shrink1, a, x1)
                x_keep = np.where(shrink1, x1, x2)
                f_keep = np.where(shrink1, f1, f2)
                x_new = np.where(shrink1, b - _INVPHI * (b - a),
                                 a + _INVPHI * (b - a))
                f_new = val_at(x_new)
                x1 = np.where(shrink1, x_new, x_keep)
                f1 = np.where(shrink1, f_new, f_keep)
                x2 = np.where(shrink1, x_keep, x_new)
                f2 = np.where(shrink1, f_keep, f_new)
            t_best = np.where(f1 < f2, x1, x2)
            f_best = np.minimum(f1, f2)
            improved = f_best < vals
            if improved.any():
                P = Y.copy()
                P[:, k] = Y[:, k] + t_best
                P = _project_rows(space, P, centers, radii)
                Y[improved] = P[improved]
                vals[improved] = f_best[improved]
    return Y, vals


def _minimize_rows(obj, X, space, cfg, centers, radii, extra_vals=None,
                   extra_pts=None):
    """Shared batch minimizer.  Row i minimizes obj(., i) over
    ball(centers[i], radii[i]).  Returns (values, minimizers, evaluations,
    converged)."""
    N, d = X.shape
    counter = _Counter()
    keep_pts, keep_vals = _coarse_stage(
        obj, X, space, cfg, centers, radii, counter)
    starts = _select_starts(space, keep_pts, keep_vals,
                            sep=radii * 0.25, k_starts=cfg.starts)
    best_vals = np.full(N, np.inf)
    best_pts = np.empty((N, d))
    converged = True
    for s, Y0 in enumerate(starts):
        Y = Y0.copy()
        vals = _checked(obj, Y, np.arange(N), counter)
        step = radii * 0.25
        conv = _compass(obj, Y, vals, step, space, cfg, centers, radii,
                        counter)
        converged = converged and conv
        upd = vals < best_vals
        best_vals[upd] = vals[upd]
        best_pts[upd] = Y[upd]
    # a single axis polish of the best compass endpoint per row
    best_pts, best_vals = _axis_polish(obj, best_pts, best_vals, space, cfg,
                                       centers, radii, counter)
    if extra_vals is not None:
        upd = extra_vals < best_vals
        best_vals[upd] = extra_vals[upd]
        best_pts[upd] = extra_pts[upd]
    return best_vals, best_pts, counter.evals, converged


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def search_radius(x, L, lam, space):
    """Radius of the ball on which the regularizer's infimum is attained:
    R = 2(1 + |x|), valid once the 1-Lipschitz-normalized parameter
    lambda / L is at least 3."""
    if not L > 0 or not lam > 0:
        raise ParameterError("L and lambda must be positive")
    if lam / L < 3.0 - 1e-12:
        raise ParameterError(
            f"normalized parameter lambda/L = {lam / L:.6g} < 3; the "
            "restricted-infimum reduction is only proven there. Raise lambda "
            f"to at least {3.0 * L:.6g}.")
    return 2.0 * (1.0 + float(space.norm(x)))


def _search_ball(X, nx, L, lam, p, C):
    """Centres and radii of the ball holding the infimum of
    f(y) + lam*Q_p(x, y) for each row x of X (nx = |x|).

    With a proven Clarkson constant C, any y beating y = x satisfies
    lam*C*|x-y|^p <= L*|x-y|, so the infimum lies in ball(x, r_loc) for
    every lambda > 0.  Without one, only the restricted-infimum reduction
    |y| <= 2(1 + |x|) is available; it needs lambda/L >= 3, which each
    caller checks with its own message.
    """
    if C is not None:
        return X, np.full(X.shape[0], (L / (lam * C)) ** (1.0 / (p - 1.0)))
    return np.zeros_like(X), 2.0 * (1.0 + nx)


def _defect_objective(f, lam, p, X, space):
    ax = space._defect_term(p, X)  # fixed per row; hoisted out of the loop

    def obj(Y, idx):
        return f(Y) + lam * space._defect(p, ax[idx], Y, X[idx] + Y)
    return obj


def regularize_power_grid(f, p, lam, points, space, cfg=SolverConfig()):
    """Values of the power-p regularizer at every row of ``points``."""
    if not p >= 2.0:
        raise ParameterError(f"power exponent must be >= 2, got {p}")
    X = space._check(np.atleast_2d(points))
    L = f.lipschitz_constant
    C = analytic_power_constant(space, p)
    if C is None and lam < 3.0 * L - 1e-12:
        raise ParameterError(
            f"lambda = {lam:.6g} below the proven threshold {3.0 * L:.6g} "
            f"for p = {p} on {space.describe()}; raise lambda.")
    nx = space._norm(X)
    centers, radii = _search_ball(X, nx, L, lam, p, C)
    vals, pts, evals, conv = _minimize_rows(
        _defect_objective(f, lam, p, X, space), X, space, cfg, centers,
        radii, extra_vals=np.asarray(f(X), dtype=float), extra_pts=X)
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
    L = f.lipschitz_constant
    if power > 1.0:
        r = (L / lam) ** (1.0 / (power - 1.0))
    else:
        r = diameter
    radii = np.full(X.shape[0], r)

    def obj(Y, idx):
        return f(Y) + lam * space._powered(X[idx] - Y, power)

    vals, pts, evals, conv = _minimize_rows(
        obj, X, space, cfg, X, radii,
        extra_vals=np.asarray(f(X), dtype=float), extra_pts=X)
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
        probe = np.asarray(batch(center[None]), dtype=float)
        if probe.shape != (1,):
            raise TypeError
    except Exception:
        def batch(Y):
            return np.array([float(objective(row)) for row in Y])

    def obj(Y, idx):
        return batch(Y)

    X = center[None]
    radii = np.array([float(radius)])
    cval = np.asarray(batch(center[None]), dtype=float)
    vals, pts, evals, conv = _minimize_rows(
        obj, X, space, cfg, X, radii,
        extra_vals=cval, extra_pts=X)
    diagnostics = {"evaluations": evals, "converged": bool(conv)}
    return pts[0], float(vals[0]), diagnostics


def decompose(f, lam, space, cfg=SolverConfig()):
    """Convex pair (c, d) with c - d equal to the quadratic regularizer:
    c(x) = 2*lam*|x|^2 and d(x) a bounded-ball supremum search.

    d uses its own solver seed, so comparing c - d against
    regularize_quadratic is a genuine two-route consistency check.
    """
    L = f.lipschitz_constant
    C = analytic_power_constant(space, 2.0)
    if C is None and lam / L < 3.0 - 1e-12:
        raise ParameterError(
            f"normalized parameter lambda/L = {lam / L:.6g} < 3")
    d_cfg = replace(cfg, seed=cfg.seed + 1)

    def c(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * lam * space.norm(x) ** 2

    def d(x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = space._check(np.atleast_2d(x))
        # sup_y lam|x+y|^2 - 2lam|y|^2 - f(y)  ==  c(x) - inf_y (f + lam*Q2)
        # searched directly as a minimization of the negated objective
        nx = space._norm(X)

        def obj(Y, idx):
            return f(Y) + lam * (2.0 * space._powered(Y, 2.0)
                                 - space._powered(X[idx] + Y, 2.0))

        centers, radii = _search_ball(X, nx, L, lam, 2.0, C)
        extra = np.asarray(f(X), dtype=float) - 2.0 * lam * nx ** 2
        vals, _, _, _ = _minimize_rows(
            obj, X, space, d_cfg, centers, radii,
            extra_vals=extra, extra_pts=X)
        out = -vals
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


def rate_bound(p, C, lam, L=1.0, allow_empirical=False):
    """Theorem-3 sup-error guarantee L * (L / (lam C))^(1/(p-1)), transported
    from the 1-Lipschitz case through the scaling identity."""
    if isinstance(C, PowerTypeConstant):
        if C.empirical and not allow_empirical:
            raise ParameterError(
                "refusing an empirical power-type constant in a rate "
                "guarantee; pass allow_empirical=True to override")
        C = C.value
    if not 0.0 < C <= 1.0:
        raise ParameterError(f"constant must lie in (0, 1], got {C}")
    if not p >= 2.0:
        raise ParameterError("p must be >= 2")
    return L * (L / (lam * C)) ** (1.0 / (p - 1.0))
