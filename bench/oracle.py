"""Closed-form Moreau envelopes of the Euclidean test corpus.

For a Euclidean norm, Q_2(x, y) = |x - y|^2, so both the quadratic
regulariser and the power-2 inf-convolution equal the Moreau envelope

    e_lam f(x) = inf_y f(y) + lam * |x - y|^2.

The envelopes below are exact and never touch the package's solver, so they
give evidence that is independent of the two-route identity check.
"""

import numpy as np

ORACLE_LABELS = ("norm", "linear", "sawtooth", "distance")


def huber(r, lam):
    """Envelope of t -> |t| at distance r >= 0: lam*r^2 inside 1/(2 lam),
    r - 1/(4 lam) outside."""
    r = np.asarray(r, dtype=float)
    return np.where(r <= 0.5 / lam, lam * r * r, r - 0.25 / lam)


def envelope(label, X, lam, anchors=None):
    """e_lam f at every row of X for a corpus label in ORACLE_LABELS.

    ``anchors`` are the distance function's point set (rows), needed only
    for ``distance``: the envelope of a minimum is the minimum of the
    envelopes, each of which is Huber of the distance to that anchor.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if label == "norm":
        return huber(np.sqrt((X * X).sum(axis=1)), lam)
    if label == "linear":
        return X[:, 0] - 0.25 / lam
    if label == "sawtooth":
        # Huber grows with the distance, so the nearest integer wins, and
        # it is one of the two that bracket x_0
        t = X[:, 0]
        lo = np.floor(t)
        return np.minimum(huber(t - lo, lam), huber(lo + 1.0 - t, lam))
    if label == "distance":
        if anchors is None:
            raise ValueError("distance envelope needs the anchor set")
        diff = X[:, None, :] - np.asarray(anchors, dtype=float)[None, :, :]
        return huber(np.sqrt((diff * diff).sum(axis=2)), lam).min(axis=1)
    raise KeyError(f"no closed-form envelope for {label!r}")
