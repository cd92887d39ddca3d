"""Lipschitz test functions: distance functions to finite point sets and a
standard corpus, each carrying a proven Lipschitz constant.

Evaluators are black boxes: callables taking a float array of shape (d,)
or (n, d) and returning a scalar / shape-(n,) array.  The solver passes
(n, d) views of blocks it stores by coordinate, which are not contiguous,
so an evaluator must not assume a memory layout.  They must be pure and
reentrant.  The norm and distance evaluators call the unchecked norm kernel:
the solver feeds them validated rows and rejects any non-finite value
they return.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LipschitzFunction",
    "PointSet",
    "distance_function",
    "make_corpus",
    "corpus_function",
    "CORPUS_LABELS",
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
_CORPUS_SEED = 2357  # seeds the anchors of the "distance" function


def make_corpus(space):
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
        # a running maximum over the pieces: no (pieces, rows) block
        x = np.asarray(x, dtype=float)
        (a, b), *rest = pieces
        out = np.atleast_1d(x @ a + b)
        for a, b in rest:
            np.maximum(out, x @ a + b, out=out)
        return out if x.ndim > 1 else out[0]

    def f_sawtooth(x):
        return _sawtooth(np.asarray(x, dtype=float)[..., 0])

    rng = np.random.default_rng(_CORPUS_SEED)
    anchors = PointSet(rng.uniform(-1.5, 1.5, size=(5, d)))
    f_dist = distance_function(space, anchors)

    return [
        LipschitzFunction(f_norm, 1.0, "norm"),
        LipschitzFunction(f_linear, 1.0, "linear"),
        LipschitzFunction(f_max_affine, 1.0, "max-affine"),
        LipschitzFunction(f_sawtooth, 1.0, "sawtooth"),
        LipschitzFunction(f_dist.evaluator, 1.0, "distance"),
    ]


def corpus_function(space, label):
    for f in make_corpus(space):
        if f.label == label:
            return f
    raise KeyError(f"no corpus function labeled {label!r}")
