"""Lipschitz test functions: distance functions, a standard corpus, and a
sampling-based Lipschitz-constant verifier.

Evaluators are black boxes: callables taking a float array of shape (d,)
or (n, d) and returning a scalar / shape-(n,) array.  The solver passes
(n, d) views of blocks it stores by coordinate, which are not contiguous,
so an evaluator must not assume a memory layout.  They must be pure and
reentrant.  The norm and distance evaluators call the unchecked norm kernel:
the solver feeds them validated rows and rejects any non-finite value
they return.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LipschitzFunction",
    "PointSet",
    "LipschitzReport",
    "distance_function",
    "make_corpus",
    "corpus_function",
    "CORPUS_LABELS",
    "verify_lipschitz",
]


@dataclass(frozen=True)
class LipschitzFunction:
    evaluator: object
    lipschitz_constant: float
    label: str

    def __post_init__(self):
        if not 0.0 < self.lipschitz_constant < np.inf:
            raise ValueError("lipschitz_constant must be positive and finite")

    def __call__(self, x):
        return self.evaluator(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class PointSet:
    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise ValueError("point set must be nonempty")
        if not np.isfinite(pts).all():
            raise ValueError("point set contains non-finite coordinates")
        object.__setattr__(self, "points", pts)

    @property
    def dim(self):
        return self.points.shape[1]

    @classmethod
    def from_file(cls, path):
        """One point per line, whitespace-separated reals; dimension inferred
        from the first line."""
        rows = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    row = [float(tok) for tok in line.split()]
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: bad coordinate ({exc})")
                if rows and len(row) != len(rows[0]):
                    raise ValueError(
                        f"{path}:{lineno}: expected {len(rows[0])} coordinates, "
                        f"got {len(row)}")
                rows.append(row)
        if not rows:
            raise ValueError(f"{path}: no points found")
        return cls(points=np.array(rows, dtype=float))

    def to_file(self, path):
        with open(path, "w") as fh:
            for row in self.points:
                fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def distance_function(space, point_set):
    """f(x) = min over q in the set of |x - q| in the space norm; L = 1."""
    if point_set.dim != space.dim:
        raise ValueError(
            f"point set dim {point_set.dim} != space dim {space.dim}")
    pts = point_set.points

    def ev(x):
        # a running minimum over the anchors: no (rows, anchors, d) block
        x = np.asarray(x, dtype=float)
        out = space._norm(x - pts[0])
        for a in pts[1:]:
            out = np.minimum(out, space._norm(x - a))
        return out

    return LipschitzFunction(evaluator=ev, lipschitz_constant=1.0,
                             label="distance")


def _sawtooth(t):
    # distance from t to the nearest integer: period-1 triangle wave, 1-Lipschitz
    return np.abs(t - np.round(t))


CORPUS_LABELS = ("norm", "linear", "max-affine", "sawtooth", "distance")


def make_corpus(space, seed=2357):
    """Standard 1-Lipschitz test functions on the given space.

    All labels carry a correct declared constant for that space's norm
    (coefficient vectors have dual norm <= 1 for every l_p).
    """
    d = space.dim
    e1 = np.zeros(d)
    e1[0] = 1.0
    elast = np.zeros(d)
    elast[-1] = 1.0

    def f_norm(x):
        return space._norm(x)

    def f_linear(x):
        return np.asarray(x, dtype=float)[..., 0]

    pieces = [(e1, -0.25), (-e1, -0.25), (0.1 * elast, 0.2)]

    def f_max_affine(x):
        x = np.asarray(x, dtype=float)
        vals = [x @ a + b for a, b in pieces]
        return np.maximum.reduce(vals)

    def f_sawtooth(x):
        return _sawtooth(np.asarray(x, dtype=float)[..., 0])

    rng = np.random.default_rng(seed)
    anchors = PointSet(rng.uniform(-1.5, 1.5, size=(5, d)))
    f_dist = distance_function(space, anchors)

    return [
        LipschitzFunction(f_norm, 1.0, "norm"),
        LipschitzFunction(f_linear, 1.0, "linear"),
        LipschitzFunction(f_max_affine, 1.0, "max-affine"),
        LipschitzFunction(f_sawtooth, 1.0, "sawtooth"),
        LipschitzFunction(f_dist.evaluator, 1.0, "distance"),
    ]


def corpus_function(space, label, seed=2357):
    for f in make_corpus(space, seed=seed):
        if f.label == label:
            return f
    raise KeyError(f"no corpus function labeled {label!r}")


@dataclass(frozen=True)
class LipschitzReport:
    max_ratio: float
    witness: tuple
    violation: bool
    trials: int


def verify_lipschitz(f, space, trials=10_000, seed=0, radius=3.0):
    """Empirical max of |f(x)-f(y)| / |x-y| over random pairs in the ball of
    the given radius (default covers where the regularizers search)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    max_ratio = 0.0
    witness = None
    done = 0
    while done < trials:
        n = min(20_000, trials - done)
        xs = space.ball_sample(rng, n, radius=radius)
        ys = space.ball_sample(rng, n, radius=radius)
        den = space.norm(xs - ys)
        mask = den > 1e-9
        if mask.any():
            ratios = np.abs(f(xs[mask]) - f(ys[mask])) / den[mask]
            i = int(np.argmax(ratios))
            if ratios[i] > max_ratio:
                max_ratio = float(ratios[i])
                witness = (xs[mask][i].copy(), ys[mask][i].copy())
        done += n
    violation = max_ratio > f.lipschitz_constant * (1.0 + 1e-9)
    return LipschitzReport(max_ratio=max_ratio, witness=witness,
                           violation=violation, trials=trials)
