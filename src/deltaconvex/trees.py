"""Dyadic sign trees in l_inf^D, tree families on disjoint coordinate
blocks, the distance counterexample function, and the adversarial branch
walk that certifies approximation-error lower bounds for convex pairs.

Blocks of nodes come from one accessor, ``DyadicTree._place``, which turns
a block of sign prefixes (one per column, zero-padded) into coordinates,
and the branch walk's children from another, ``DyadicTree._children``.  A
sign tree computes them from the signs, so walks on very deep trees never
materialize the node set.  An explicit tree (loaded from a file, or copied
with one node replaced) gathers them from one read-only array in heap
order: level k fills rows 2^k - 1 .. 2^(k+1) - 2, listed by
``_level_signs``; ``_heap_index`` finds the rows of a block of signs.

Every check over many nodes runs in blocks of about ``spaces._BLOCK``
doubles, the package's one block size: a block holds ``_BLOCK // D`` rows
of D coordinates, and the pair kernel takes as many rows as fill
``_BLOCK`` distances.  Blocks only split rows, so no result depends
on the block size.  Random nodes follow one law: a level uniform on
0..depth, then independent fair signs, drawn as packed random bytes.

Pair distances take one of two routes, chosen by one accessor,
``DyadicTree._int_rows``: int8 rows and a scale, or none.  On l_inf a tree
whose coordinates are small integer multiples of one number is measured on
the integers: a sign tree on its sign prefixes (scale theta), an explicit
tree whose every coordinate is c * 2^e with |c| <= 63 on those codes c
(scale 2^e, ``DyadicTree._codes``).  Coordinate differences are then exact
multiples of the scale, so the distance is the scale times the largest
integer difference, the float distance bit for bit.  The exhaustive pairs
hand the heap-ordered rows to the one all-pairs kernel,
``_min_pair_distance``, and scale its minimum.  Any other tree, and any
finite p, places the nodes (the sampled pairs a block at a time) and takes
the float norm; ``validate_tree`` checks its inputs once, at entry.

A sampled pair is routed from the packed bits of its two draws
(``_draw_packed``): ``_differ`` marks the pairs whose signs differ below
the shallower level, which with equal levels is the same-node test for
every tree.  A sign tree on l_inf takes its distance from those bits and
the levels alone, theta times 2, 1 or 0 (``DyadicTree._draw_distances``);
every other tree unpacks the draws to sign prefixes and takes
``DyadicTree._distances``, on the int8 rows where ``_int_rows`` gives
them.

On the sampled path the structured pairs (parent/child and siblings) are
two ``DyadicTree._distances`` calls on sign prefixes; the midpoint law is
checked on the placed coordinates.

The branch walk writes the two children of each visited node in place, a
copy of the node with one coordinate set (an explicit tree gathers their
two heap rows), and evaluates only what its choice needs: the evaluator that
picks the child at both children, the other at the child taken.  The
counterexample f, which steers nothing, runs once after the walk on the
stacked visited nodes; it sweeps a coordinate-major copy of a batch, one
numpy call per coordinate row.
"""

import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .functions import LipschitzFunction
from .spaces import _BLOCK, DimensionMismatchError, _root

__all__ = [
    "DyadicTree",
    "TreeFamily",
    "TreeValidation",
    "WalkLevel",
    "WalkReport",
    "build_sign_tree",
    "build_tree_family",
    "validate_tree",
    "counterexample_function",
    "adversarial_branch_walk",
    "SolverEvalError",
    "error_lower_bound",
    "save_tree",
    "load_tree",
]

_ENUM_CAP = 1 << 21  # max node count for exhaustive materialization
_ENUM_DEPTH = _ENUM_CAP.bit_length() - 2  # deepest tree within _ENUM_CAP
_EXHAUSTIVE_PAIRS = 1 << 22  # node pairs always checked exhaustively
_DRAW_BATCH = 1 << 16  # node pairs drawn at once by the sampled check
_STRUCTURED_BUDGET = 4096  # parents per level in the structured pairs


def _level_signs(k, lo=0, hi=None):
    """(k, hi - lo) int8 array whose column j is the sign prefix of row
    lo + j (all rows by default) of level k in heap order: bit 0 -> +1,
    bit 1 -> -1, most significant first."""
    hi = 1 << k if hi is None else hi
    dtype = np.int32 if k < 32 else np.int64  # holds every row of level k
    shifts = np.arange(k - 1, -1, -1, dtype=dtype)[:, None]
    signs = ((np.arange(lo, hi, dtype=dtype) >> shifts) & 1).astype(np.int8)
    signs *= -2
    signs += 1
    return signs


def _heap_index(signs):
    """Heap rows of the sign prefixes in ``signs``: the root is row 0, row
    i has children 2i + 1 (sign +1) and 2i + 2 (sign -1).  A (k, m) array
    gives the rows of m prefixes stored by column, padded with zeros (no
    move), as an (m,) array; a sequence of k signs gives one row.  Each
    sign maps row r to 2r + 1 + (s < 0), in the dtype of the rows, so int8
    signs need no wider copy."""
    signs = np.asarray(signs)
    # the deepest row of level k is 2^(k+1) - 2
    dtype = np.int32 if signs.shape[0] < 30 else np.int64
    rows = np.zeros(signs.shape[1:], dtype=dtype)
    for s in signs:
        rows += (s != 0) * (rows + 1)
        rows += s < 0
    return rows


@dataclass(frozen=True)
class DyadicTree:
    """A dyadic (depth, theta)-tree: indices are sign tuples of length
    0..depth, each parent the exact midpoint of its children.

    A sign tree (``nodes`` None) computes its nodes from their signs:
    coordinates block_start.. hold a leading theta if ``lead``, then the
    sign prefix scaled by theta; every other coordinate is 0.  An explicit
    tree holds every node in the read-only heap-ordered array ``nodes``,
    as doubles: the pair kernel runs in the dtype of its rows, where int8
    differences wrap and integer rows take no root, so integer rows reach
    it only through ``_int_rows``, which bounds them."""
    depth: int
    theta: float
    ambient_dim: int
    block_start: int = 0
    lead: bool = False
    nodes: np.ndarray = None

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if not (math.isfinite(self.theta) and self.theta > 0):
            raise ValueError(f"theta {self.theta} is not finite and positive")
        end = self.block_start + self.lead + self.depth
        if self.nodes is not None:
            object.__setattr__(self, "nodes",
                               np.asarray(self.nodes, dtype=np.float64))
            shape = (self.node_count, self.ambient_dim)
            if self.nodes.shape != shape:
                raise ValueError(f"nodes array of shape {self.nodes.shape} "
                                 f"is not (node_count, ambient_dim) {shape}")
            self.nodes.flags.writeable = False
        elif end > self.ambient_dim:
            raise ValueError(f"block [{self.block_start}, {end}) overflows "
                             f"ambient dimension {self.ambient_dim}")

    @property
    def node_count(self):
        return (1 << (self.depth + 1)) - 1

    def _place(self, signs):
        """The nodes whose sign prefixes are the columns of ``signs``, a
        (k, m) array padded with zeros, as the rows of an (m, D) array."""
        if self.nodes is not None:
            return self.nodes.take(_heap_index(signs), axis=0)
        out = np.zeros((signs.shape[1], self.ambient_dim))
        off = self.block_start + self.lead
        if self.lead:
            out[:, self.block_start] = self.theta
        np.multiply(signs.T, self.theta, out=out[:, off:off + signs.shape[0]])
        return out

    @cached_property
    def _codes(self):
        """(codes, 2^e) with ``nodes == codes.T * 2^e`` exactly: codes is a
        (D, node_count) int8 array of integers in [-63, 63], stored by
        coordinate, and 2^e a normal double with 126 * 2^e finite.  None
        for a sign tree, and for an explicit tree whose coordinates are not
        all such multiples of one power of two.

        One e serves if any does.  With big the largest |coordinate| and
        2^(E-1) <= big < 2^E, an e that bounds the codes by 63 has
        big <= 63 * 2^e < 2^(e+6), so e >= E - 6; and a multiple of 2^e is
        a multiple of every smaller power of two.  So the codes are tried at
        e = E - 6, where big / 2^e < 64 bounds them, in blocks of rows.
        Each block is divided by 2^e, rounded, and multiplied back: a code c
        with |c| <= 63 times a normal power of two is exact, so equality
        with the node proves it."""
        if self.nodes is None:
            return None
        nodes = self.nodes
        big = max(float(nodes.max()), -float(nodes.min()))
        e = math.frexp(big)[1] - 6 if big > 0 else 0
        if not (math.isfinite(big) and -1022 <= e <= 1016):
            return None
        scale = math.ldexp(1.0, e)
        codes = np.empty(nodes.shape[::-1], dtype=np.int8)
        rows = max(1, _BLOCK // self.ambient_dim)
        for lo in range(0, nodes.shape[0], rows):
            x = nodes[lo:lo + rows]
            c = np.rint(x / scale)
            if not (np.abs(c).max() <= 63 and (c * scale == x).all()):
                return None
            codes[:, lo:lo + rows] = c.T
        return codes, scale

    def _int_rows(self, space, signs):
        """The pair kernel's rows for the nodes whose sign prefixes are the
        columns of ``signs`` (a (k, m) array as for ``_place``): an (m, w)
        int8 array and a scale such that the ``space`` distance of two
        nodes is the scale times the l_inf distance of their rows, bit for
        bit; or None, and the pairs are measured on placed coordinates.

        - A sign tree on l_inf: its sign prefixes, scale theta.  The lead
          coordinates cancel to +0, and block coordinate j of the float
          difference is exactly theta*(sa_j - sb_j), one of 0, +-theta and
          +-2*theta.
        - An explicit tree on l_inf whose ``_codes`` exist: the code rows of
          the nodes, scale 2^e.  Coordinate j of the float difference is
          the exact value (ca_j - cb_j) * 2^e, an integer of size <= 126
          times a normal power of two, so the subtraction rounds nothing.
        - Anything else: None.

        On both routes abs is exact and max picks one of the exact terms,
        so the distance is the scale times the largest |ra_j - rb_j|, the
        same double.  The scale is > 0, and multiplying by it is exact for
        a power of two and monotone for theta, so it keeps the order and
        the ties of pairs: the minimum, the first minimizing pair and the
        pair count are the float kernel's.  The int8 differences cannot
        wrap: |ra_j - rb_j| <= 126 < 127 (the kernel's mask value)."""
        if space.p_exponent != math.inf:
            return None
        if self.nodes is None:
            return signs.T, self.theta
        if self._codes is None:
            return None
        codes, scale = self._codes
        return codes.take(_heap_index(signs), axis=1).T, scale

    def _distances(self, space, sa, sb):
        """``space`` distances between the nodes whose sign prefixes are
        the columns of ``sa`` and ``sb`` (two (k, m) arrays as for
        ``_place``), as an (m,) array: on the int8 rows of ``_int_rows``
        where it gives them, otherwise by placing both node sets
        ``_BLOCK // D`` pairs at a time and taking the unchecked norm of
        their difference, which ``_rowsum`` makes independent of the
        block."""
        route = self._int_rows(space, sa)
        if route is not None:
            ra, scale = route
            return _scaled_distances(ra, self._int_rows(space, sb)[0], scale)
        w = max(1, _BLOCK // self.ambient_dim)
        dist = np.empty(sa.shape[1])
        for r0 in range(0, dist.size, w):
            diff = self._place(sa[:, r0:r0 + w])
            diff -= self._place(sb[:, r0:r0 + w])
            dist[r0:r0 + w] = space._norm(diff)
        return dist

    def _draw_distances(self, space, a, b, differ):
        """The ``space`` distances of the node pairs of two draws ``a`` and
        ``b`` (each (levels, packed) from ``_draw_packed``), whose sign
        prefixes differ below the shallower level where ``differ`` is 1, as
        (values, scale): the distances are scale * values, and scale > 0
        keeps their order and ties.

        A sign tree on l_inf, whose ``_int_rows`` are its sign prefixes,
        gives uint8 values max(2 * differ, ka != kb) and scale theta, and
        unpacks nothing.  That is the int8 route's theta * max_j
        |sa_j - sb_j|, bit for bit: below the shallower level both signs
        are +-1, so |sa_j - sb_j| is 0 or 2, and 2 at some such row exactly
        where ``differ`` is 1; from that level up to the deeper one a sign
        meets a pad, 1 apart; past both levels both are pads, 0 apart.  So
        the largest difference is 2 where ``differ`` is 1, else 1 where the
        levels differ, else 0, and theta times it is the same product.
        theta * 0 < theta * 1 < theta * 2 for every finite theta > 0, so the
        order and ties are the scaled ones.  Every other tree unpacks both
        draws to their sign prefixes (``_draw_signs``) and gives the
        doubles of ``_distances`` with scale 1."""
        if space.p_exponent == math.inf and self.nodes is None:
            gap = np.left_shift(differ, 1)
            np.maximum(gap, a[0] != b[0], out=gap)
            return gap, self.theta
        return self._distances(space, _draw_signs(*a), _draw_signs(*b)), 1.0

    def _children(self, k, row, node):
        """The +1 and -1 children of the level-k node in heap row ``row``
        whose coordinates are ``node``, as a read-only (2, D) array.  An
        explicit tree gathers heap rows 2 row + 1 and 2 row + 2.  A sign
        tree copies ``node`` twice and sets coordinate block_start + lead
        + k to +theta and -theta: ``_place`` writes theta * +-1 there, the
        same doubles, and every other coordinate of a child is its
        parent's."""
        if self.nodes is not None:
            return self.nodes[2 * row + 1:2 * row + 3]
        out = np.empty((2, self.ambient_dim))
        out[:] = node
        j = self.block_start + self.lead + k
        out[0, j] = self.theta
        out[1, j] = -self.theta
        out.flags.writeable = False
        return out

    def _sign_index(self, alpha):
        alpha = tuple(int(s) for s in alpha)
        if any(s not in (-1, 1) for s in alpha) or len(alpha) > self.depth:
            raise KeyError(f"bad sign index {alpha}")
        return alpha

    def node(self, alpha):
        """Node ``alpha`` as a read-only row."""
        signs = np.array(self._sign_index(alpha), dtype=np.int8)
        x = self._place(signs[:, None])[0]
        x.flags.writeable = False
        return x

    def level_array(self, k):
        if k > self.depth:
            raise ValueError(f"level {k} exceeds depth {self.depth}")
        return self._level_rows(k, 0, 1 << k)

    def _level_rows(self, k, lo, hi, signs=None):
        """Rows lo..hi-1 of level k: for an explicit tree a read-only view
        of its heap rows 2^k - 1 + lo .. 2^k - 2 + hi, for a sign tree
        placed from ``signs``, their sign prefixes
        (``_level_signs(k, lo, hi)`` by default)."""
        if self.nodes is not None:
            first = (1 << k) - 1
            return self.nodes[first + lo:first + hi]
        return self._place(_level_signs(k, lo, hi) if signs is None
                           else signs)

    def indices(self):
        for k in range(self.depth + 1):
            yield from map(tuple, _level_signs(k).T.tolist())

    def to_explicit(self):
        if self.node_count > _ENUM_CAP:
            raise ValueError("tree too deep to materialize")
        return replace(self, nodes=_heap_nodes(self))

    def with_node(self, alpha, vec):
        """Copy with one node replaced (fault injection in tests)."""
        nodes = self.to_explicit().nodes.copy()
        nodes[_heap_index(self._sign_index(alpha))] = vec
        return replace(self, nodes=nodes)


def _scaled_distances(ra, rb, scale):
    """scale times the l_inf distances of the int8 rows of ``ra`` and
    ``rb``, as doubles: the ``space`` distances of the rows' nodes, for
    rows and a scale from ``DyadicTree._int_rows``."""
    diff = np.subtract(ra, rb)
    return scale * np.abs(diff, out=diff).max(axis=1)


def build_sign_tree(depth, block_start=0, ambient_dim=None, scale=1.0,
                    lead=False):
    """Sign tree in l_inf: the leaf for signs e has coordinate
    block_start+i equal to e_i; interior nodes truncate (equivalently,
    average their children).  A (depth, 1)-tree in the unit ball under
    l_inf for scale = 1."""
    if ambient_dim is None:
        ambient_dim = block_start + depth + lead
    if not 0 < scale <= 1.0:
        raise ValueError("scale must lie in (0, 1]")
    return DyadicTree(depth=depth, theta=scale, ambient_dim=ambient_dim,
                      block_start=block_start, lead=lead)


@dataclass(frozen=True)
class TreeFamily:
    trees: tuple

    @property
    def ambient_dim(self):
        return self.trees[0].ambient_dim


def build_tree_family(depths, ambient_dim=None, scale=1.0):
    """One sign tree per requested depth, each in its own disjoint
    coordinate block, realized as the subtree rooted at the first child of a
    depth+1 tree (every node carries the value ``scale`` in its block's
    first coordinate).  Mutual l_inf distance is exactly ``scale``, by
    construction: member i's nodes hold ``scale`` at ``block_start_i``,
    where every other member holds 0, and every other coordinate of a cross
    difference is 0 or +-``scale`` (disjoint blocks, exact differences with
    0).  So every cross pair is exactly ``scale`` apart, at every level and
    for every accepted (depths, ambient_dim, scale)."""
    depths = list(depths)
    if not depths:
        raise ValueError("family needs at least one member")
    need = sum(n + 1 for n in depths)
    if ambient_dim is None:
        ambient_dim = need
    if ambient_dim < need:
        raise ValueError(
            f"ambient dimension {ambient_dim} < required {need}")
    trees = []
    off = 0
    for n in depths:
        trees.append(build_sign_tree(n, block_start=off,
                                     ambient_dim=ambient_dim, scale=scale,
                                     lead=True))
        off += n + 1
    return TreeFamily(trees=tuple(trees))


def _min_pair_distance(space, X):
    """Smallest ``space`` distance between two rows i < j of X.

    Returns (min, (i, j), pairs_checked) with (i, j) the first minimizing
    pair in row-major order.  Rows go in blocks of about _BLOCK distances,
    and a block accumulates one coordinate at a time, so memory stays
    bounded whatever the row count and dimension.  A coordinate zero in
    every row adds nothing to any l_p distance and is skipped.

    The blocks are in the dtype of X.  Integer rows, such as the int8 rows
    of ``DyadicTree._int_rows``, need p = inf, where no power is taken and
    the distances are the largest coordinate differences.
    """
    p = space.p_exponent
    # the lower triangle's mask value, above every distance
    masked = math.inf if X.dtype.kind == "f" else np.iinfo(X.dtype).max
    combine = np.maximum if p == math.inf else np.add

    def term(x, out=None):
        out = np.abs(x, out=out)
        if p == 2.0:
            np.square(out, out=out)
        elif p not in (1.0, math.inf):
            np.power(out, p, out=out)
        return out

    Xt = np.ascontiguousarray(X[:, (X != 0).any(axis=0)].T)

    n = X.shape[0]
    step = max(1, _BLOCK // max(n, 1))
    best, pair, checked = math.inf, None, 0
    for lo in range(0, n - 1, step):
        hi = min(n, lo + step)
        j0 = lo + 1
        acc = np.zeros((hi - lo, n - j0), dtype=X.dtype)
        buf = np.empty_like(acc)
        for x in Xt:
            np.subtract(x[lo:hi, None], x[None, j0:], out=buf)
            combine(acc, term(buf, out=buf), out=acc)
        if p == 2.0:
            np.sqrt(acc, out=acc)
        elif p not in (1.0, math.inf):
            acc = _root(acc, p)
        # row lo+r, column j0+c: the pair is i < j exactly when c >= r.  So
        # only the leading (hi - lo)-column square holds masked pairs, and
        # as r <= n - j0, row r masks exactly r of them
        h = hi - lo
        square = acc[:, :h]
        square[np.tri(*square.shape, -1, dtype=bool)] = masked
        checked += acc.size - h * (h - 1) // 2
        r, c = divmod(int(np.argmin(acc)), acc.shape[1])
        if acc[r, c] < best:
            best = float(acc[r, c])
            pair = (lo + r, j0 + c)
    return best, pair, checked


@dataclass(frozen=True)
class TreeValidation:
    midpoint_exact: bool
    worst_midpoint_gap: float
    midpoint_violation: tuple
    min_separation: float
    separation_pair: tuple
    separation_ok: bool
    pairs_checked: int
    exhaustive_pairs: bool
    max_norm: float


def validate_tree(tree, space, sample_pairs=2_000_000, seed=0):
    """Midpoint law checked bit-exactly on every internal node; separation
    >= theta by full pairwise enumeration up to max(sample_pairs, 2^22)
    pairs (a depth-10 tree has 2,094,081), deterministic subsampling of
    sample_pairs pairs beyond.

    Every stage runs in blocks of ``_BLOCK // D`` rows, so memory stays
    bounded at any depth: the midpoint pass walks each level in blocks of
    parent rows (children 2lo..2hi), and on the sampled path takes the
    structured pairs (parent/child and siblings among the first 4096
    parents of each level) from the same blocks.  The sampled pairs are
    drawn 2^16 at a time, each node a level uniform on 0..depth and fair
    signs, so the sample depends on the seed alone.  The structured pairs
    are measured by ``DyadicTree._distances`` on the block's sign
    prefixes, on int8 rows wherever ``DyadicTree._int_rows`` gives them;
    the midpoint pass always takes the placed blocks.  Each block builds
    its children's sign prefixes once, and places the parents from the
    first children's prefixes; on l_inf its ``max_norm`` term is the
    largest |coordinate| of the children, the same double as their largest
    row norm.  On the
    depth-16 sign tree the midpoint and structured pass takes about 21 ms
    on 2 cores, 26 ms when parents, children and structured pairs each
    built their signs.

    On l_inf a tree whose ``DyadicTree._int_rows`` exist (a sign tree, or
    an explicit tree on a dyadic grid, such as a saved sign tree at a
    dyadic theta) measures pairs on int8 rows, the float distances bit for
    bit: the sampled path a whole draw batch at once (a sign tree on the
    draw's packed bits, ``DyadicTree._draw_distances``), the exhaustive path
    by giving the all-pairs kernel the heap-ordered rows and scaling its
    minimum.  The sampled pairs of the benchmark's depth-16 sign tree
    (seed 5, 1,986,601 counted) take about 48 ms on 2 cores, 33 ms of them
    in the generator calls, against 91 ms when both draws were unpacked to
    int8 signs.  At depth 10 (2,094,081 pairs, 2 cores) that takes about 6 ms
    on a sign tree and 6-8 ms on the same tree loaded from a file (finding
    its codes included), against 40-47 ms for the float kernel on its
    placed nodes.  Any other tree, or a finite p, places the nodes in
    blocks of rows and takes the float norm.
    A sampled pair counts unless both draws are the same node: equal
    levels and no sign differing below them (``_differ``), tested on the
    packed draw bits for every tree.  Two distinct nodes that coincide, or
    whose l_p distance underflows to 0, count at distance 0.
    ``separation_pair`` is the first minimum.  On the exhaustive path it
    is (i, j), the two nodes' rows in level order (root first).  On the
    sampled path it names its kind: ("parent-child", k, i) for child i of
    level k + 1 and its parent, ("siblings", k, i) for the two children of
    node i of level k, and ("sampled", index among the distinct pairs from
    the batch start) for a sampled pair.
    ``max_norm`` is the largest node norm over every node on the exhaustive
    path, and on the sampled path over the children in the structured
    pairs only, so not the root.

    The midpoint of children a and b is (a + b) * 0.5, which is (a + b)/2
    correctly rounded wherever a + b is finite: a sum below 2^-1021 in size
    is exact, as the doubles there are the multiples of 2^-1074, and is
    halved with one rounding; from 2^-1021 up the halving is exact and
    commutes with rounding.  A sum overflows only from 2^1024 - 2^970, and
    no double exceeds 2^1024 - 2^971, so there |a|, |b| >= 2^970, and
    0.5*a + 0.5*b, taken instead, has exact halves and rounds once, to the
    same midpoint.  That form rounds once wherever its halves are exact,
    so the two differ only where halving a subnormal rounds: at
    theta = 5e-324, 0.5*theta + 0.5*theta is 0.

    Raises DimensionMismatchError when the space's dimension is not the
    tree's, and ValueError on an explicit tree with a non-finite node and
    on a ``sample_pairs`` that is negative or not an integer (numpy
    integers pass, through ``operator.index``).
    """
    try:
        sample_pairs = operator.index(sample_pairs)
    except TypeError:
        raise ValueError(f"sample_pairs {sample_pairs!r} is not an "
                         f"integer") from None
    if sample_pairs < 0:
        raise ValueError(f"sample_pairs {sample_pairs} is negative")
    if space.dim != tree.ambient_dim:
        raise DimensionMismatchError(
            f"space of dim {space.dim} for a tree in dim {tree.ambient_dim}")
    if tree.nodes is not None:
        space._check(tree.nodes)  # the blocks below use the unchecked _norm
    n = tree.node_count
    total_pairs = n * (n - 1) // 2
    exhaustive = total_pairs <= max(sample_pairs, _EXHAUSTIVE_PAIRS)
    rows = max(1, _BLOCK // tree.ambient_dim)
    worst_gap = 0.0
    violation = None
    min_sep = math.inf
    sep_pair = None
    max_norm = 0.0
    pairs_checked = 0
    for k in range(tree.depth):
        width = 1 << k
        budget = 0 if exhaustive else min(width, _STRUCTURED_BUDGET)
        # first minimum of the parent/child and of the sibling distances
        best = [(math.inf, None), (math.inf, None)]
        for lo in range(0, width, rows):
            hi = min(width, lo + rows)
            # the children's sign prefixes; a parent's are its first
            # child's less the last sign
            sc = _level_signs(k + 1, 2 * lo, 2 * hi)
            parents = tree._level_rows(k, lo, hi, sc[:k, 0::2])
            children = tree._level_rows(k + 1, 2 * lo, 2 * hi, sc)
            a, b = children[0::2], children[1::2]
            with np.errstate(over="ignore"):
                mid = np.add(a, b)
            mid *= 0.5
            if not (parents == mid).all():
                over = np.isinf(mid)  # a + b overflowed: halve first there
                mid[over] = 0.5 * a[over] + 0.5 * b[over]
                gaps = np.abs(parents - mid).max(axis=1)
                bad = int(np.argmax(gaps))
                if gaps[bad] > worst_gap:
                    worst_gap = float(gaps[bad])
                    row = lo + bad
                    violation = tuple(
                        _level_signs(k, row, row + 1)[:, 0].tolist())
            if lo >= budget:
                continue
            top = min(hi, budget) - lo
            sc, children = sc[:, :2 * top], children[:2 * top]
            # on l_inf the largest |coordinate|, the same double as the
            # largest row norm
            top_norm = (np.abs(children).max() if space.p_exponent == math.inf
                        else space._norm(children).max())
            max_norm = max(max_norm, float(top_norm))
            sp = np.repeat(sc[:, 0::2], 2, axis=1)
            sp[k] = 0  # each child's parent: its prefix less the last sign
            dpc = tree._distances(space, sp, sc)
            dss = tree._distances(space, sc[:, 0::2], sc[:, 1::2])
            for s, (dist, first) in enumerate(((dpc, 2 * lo), (dss, lo))):
                i = int(np.argmin(dist))
                if dist[i] < best[s][0]:
                    best[s] = (float(dist[i]), first + i)
                pairs_checked += dist.size
        for kind, (dist, i) in zip(("parent-child", "siblings"), best):
            if dist < min_sep:
                min_sep, sep_pair = dist, (kind, k, i)
    midpoint_exact = violation is None

    if exhaustive:
        signs = _heap_signs(tree.depth)
        all_nodes = tree._place(signs)
        max_norm = float(space._norm(all_nodes).max())
        rows, scale = tree._int_rows(space, signs) or (all_nodes, 1.0)
        sep, sep_pair, pairs_checked = _min_pair_distance(space, rows)
        min_sep = scale * sep
    else:
        rng = np.random.default_rng(seed)
        remaining = max(sample_pairs - pairs_checked, 0)
        for lo in range(0, remaining, _DRAW_BATCH):
            m = min(remaining - lo, _DRAW_BATCH)
            a = _draw_packed(tree, rng, m)
            b = _draw_packed(tree, rng, m)
            differ = _differ(a, b)
            dist, scale = tree._draw_distances(space, a, b, differ)
            # the same node: equal levels and no differing sign below them
            same = a[0] == b[0]
            same &= differ == 0
            if same.any():
                dist = dist[~same]
            if dist.size:
                i = int(np.argmin(dist))
                if scale * dist[i] < min_sep:
                    min_sep = float(scale * dist[i])
                    sep_pair = ("sampled", lo + i)
            pairs_checked += dist.size

    return TreeValidation(
        midpoint_exact=midpoint_exact,
        worst_midpoint_gap=worst_gap,
        midpoint_violation=violation,
        min_separation=min_sep,
        separation_pair=sep_pair,
        separation_ok=min_sep >= tree.theta - 1e-12,
        pairs_checked=pairs_checked,
        exhaustive_pairs=exhaustive,
        max_norm=max_norm,
    )


def _draw_packed(tree, rng, m):
    """The generator calls of a draw of m random nodes, in their order: an
    int64 level uniform on 0..depth per node, then ``depth`` rows of fair
    sign bits packed in random bytes (bit 1 is +1, node j at bit j, most
    significant bit first).  Returns (levels, packed), the levels cast to
    ``np.min_scalar_type(depth)`` and packed a (depth, ceil(m / 8)) uint8
    array whose bits past m are unused.  The levels are drawn as int64:
    a uint8 draw would be cheaper, but it would change every sample."""
    ks = rng.integers(0, tree.depth + 1, size=m)
    packed = rng.integers(0, 256, size=(tree.depth, -(-m // 8)),
                          dtype=np.uint8)
    return ks.astype(np.min_scalar_type(tree.depth)), packed


def _draw_signs(ks, packed):
    """The (depth, m) int8 sign prefixes of a draw from ``_draw_packed``:
    column j holds node j's ks[j] signs followed by zeros."""
    signs = np.unpackbits(packed, axis=1, count=ks.size).view(np.int8)
    signs *= 2
    signs -= 1
    # zero past the level, row by row; the bool mask viewed as int8 0/1
    # keeps the multiply in the int8 loop
    for j, row in enumerate(signs):
        row *= (ks > j).view(np.int8)
    return signs


def _draw_nodes(tree, rng, m):
    """Signs of m random nodes: a level uniform on 0..depth, then ``depth``
    fair signs (``_draw_packed``).  Returns a (depth, m) int8 array whose
    column j holds node j's sign prefix followed by zeros, so two draws are
    the same node exactly when their columns are equal."""
    return _draw_signs(*_draw_packed(tree, rng, m))


def _differ(a, b):
    """For the node pairs of two draws ``a`` and ``b`` (each (levels,
    packed) from ``_draw_packed``), a (m,) uint8 array: 1 where the two
    sign prefixes differ in a row below the shallower level, else 0.  The
    draws' bytes are XORed, ANDed with the packed mask of those rows, ORed
    over the rows, and the one row left is unpacked."""
    (ka, pa), (kb, pb) = a, b
    rows = np.arange(pa.shape[0], dtype=ka.dtype)[:, None]
    below = rows < np.minimum(ka, kb)
    bits = np.bitwise_xor(pa, pb)
    bits &= np.packbits(below, axis=1)
    return np.unpackbits(np.bitwise_or.reduce(bits, axis=0), count=ka.size)


def _random_nodes(tree, rng, m):
    """m random nodes (the law of ``_draw_nodes``) as an (m, D) array."""
    return tree._place(_draw_nodes(tree, rng, m))


def _heap_signs(depth, levels=None):
    """(depth, m) int8 array whose columns are the sign prefixes, padded
    with zeros, of levels 0 .. levels - 1 (all by default) in heap order."""
    levels = depth + 1 if levels is None else min(levels, depth + 1)
    signs = np.zeros((depth, (1 << levels) - 1), dtype=np.int8)
    for k in range(1, levels):
        signs[:k, (1 << k) - 1:(2 << k) - 1] = _level_signs(k)
    return signs


def _heap_nodes(tree, levels=None):
    """Levels 0 .. levels - 1 (all by default) in heap order."""
    return tree._place(_heap_signs(tree.depth, levels))


def counterexample_function(family, space):
    """1-Lipschitz distance to the union of even-level nodes of the family
    (level counted within each member subtree, root = even).

    Defined for l_inf sign-tree families, where the distance is evaluated in
    closed form, so the function stays exact at depths where the node set
    cannot be enumerated.  The evaluator takes one point (D,), giving a
    scalar, or a batch (..., D), giving an array of shape (...).

    The distance from x to level k of member t is max(P_k, S_k, out, lead):
    P_k = max_{j<k} ||x_j| - theta| over its first k signed coordinates
    (P_0 = 0), S_k = max_{j>=k} |x_j| over the rest of its block (0 at
    k = depth), out the largest |x_i| outside its block and lead
    |x_lead - theta|.  The batch is read once into a contiguous (D, n)
    copy of |x|, one row per coordinate, so every step is one numpy call
    over all n points: a backward sweep over the block's rows builds S at
    the even k from the pair maxima of its rows, a forward sweep builds P
    there from the pair maxima of ||x_j| - theta|, and the minimum over
    even k, the outside term and the member minimum are reductions over
    rows.  The result is the same double as any other evaluation order:
    every term is abs of a double or 0, so >= +0, and abs, max and min
    round nothing and, on values >= +0, return one of their operands
    whatever the grouping (a nan coordinate makes the value nan either
    way).  So min_k max(a_k, b) = max(min_k a_k, b) exactly, and the
    outside and lead terms join once, after the minimum over k.

    A batch pays about one numpy call per block coordinate, whatever its
    row count, so at a few rows the call count is the cost: the branch
    walk hands it the visited nodes as one batch, in ``_BLOCK // D``-row
    blocks.  On the adversary's two 4095-node error
    sets (D = 98) it takes about 9 ms on 2 cores, against 23 ms when each
    point's block was swept along its own row.
    """
    if space.dim != family.ambient_dim:
        raise ValueError("space dimension does not match the family")
    if space.p_exponent != math.inf or any(
            t.nodes is not None for t in family.trees):
        raise ValueError("the counterexample needs l_inf and a family of "
                         "sign trees")
    D = family.ambient_dim

    def member(t, xT, absT):
        n = absT.shape[1]
        h = t.depth // 2
        off = t.block_start + t.lead
        end = off + t.depth
        blk = absT[off:end]
        # S[i] = S_2i: pair maxima of the block's rows, then a backward
        # running maximum
        S = np.empty((h + 1, n))
        S[h] = blk[-1] if t.depth % 2 else 0.0
        np.maximum(blk[0:2 * h:2], blk[1:2 * h:2], out=S[:h])
        for i in range(h - 1, -1, -1):
            np.maximum(S[i], S[i + 1], out=S[i])
        # P[i] = P_2i: pair maxima of ||x_j| - theta|, then a forward one
        P = np.empty((h + 1, n))
        P[0] = 0.0
        np.abs(np.subtract(blk[0:2 * h:2], t.theta, out=P[1:]), out=P[1:])
        q = np.abs(np.subtract(blk[1:2 * h:2], t.theta))
        np.maximum(P[1:], q, out=P[1:])
        for i in range(2, h + 1):
            np.maximum(P[i], P[i - 1], out=P[i])
        dist = np.maximum(P, S, out=P).min(axis=0)
        for rows in (absT[:t.block_start], absT[end:]):
            if rows.shape[0]:
                np.maximum(dist, rows.max(axis=0), out=dist)
        if t.lead:
            np.maximum(dist, np.abs(xT[t.block_start] - t.theta), out=dist)
        return dist

    def ev(x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (D,):
            raise DimensionMismatchError(
                f"points of shape {x.shape} for a family in dim {D}")
        xT = x.reshape(-1, D).T
        absT = np.abs(xT, order="C")
        best = None
        for t in family.trees:
            dist = member(t, xT, absT)
            best = dist if best is None else np.minimum(best, dist, out=best)
        return best.reshape(x.shape[:-1]) if x.ndim > 1 else best[0]

    return LipschitzFunction(ev, 1.0, "tree-counterexample")


@dataclass(frozen=True)
class WalkLevel:
    alpha: tuple
    node: np.ndarray
    c_value: float
    d_value: float
    f_value: float
    hypothesis_gap: float


@dataclass(frozen=True)
class WalkReport:
    branch: tuple
    levels: tuple
    c_increments: tuple
    total_c_growth: float
    guaranteed_growth: float
    hypothesis_held: bool
    max_gap: float


def adversarial_branch_walk(c, d, tree, f, delta):
    """Two-step greedy branch walk: from each even node pick the child
    maximizing d, then its child maximizing c (ties toward the +1 child).
    Under the hypothesis |f - (c - d)| <= delta at every visited node, c
    must grow by at least theta/2 - 2*delta per double step.

    c and d steer the walk, so they get one node per call, a read-only
    (D,) row, and only where the walk needs it: both at the root; d at
    both children on a step to an odd level, then c at the child taken;
    c at both children on a step to an even level, then d at the child
    taken.  f, the costly counterexample, runs after the walk, once on the
    depth + 1 visited nodes stacked root first as a read-only (m, D) batch
    (in blocks of ``_BLOCK // D`` rows, so one call at the depths run),
    and must return one value per row.  A value that is not finite raises
    ``SolverEvalError`` naming the evaluator and the node: c and d in walk
    order, then f at the first visited node where it fails.  A child the
    walk does not take never reaches f, nor c on an odd step or d on an
    even one, so a non-finite value there raises nothing.

    Each level's two children come from ``DyadicTree._children``: on a sign
    tree the visited node copied into one (2, D) array with the level's
    coordinate set to +theta and -theta, the doubles that placing their
    sign prefixes gives; on an explicit tree the node's two child rows.
    The 8 walks of ``adversary --set depths=32,64`` take about 11 ms on
    2 cores, 13 ms when each level placed both children from an int8 sign
    array."""
    if tree.depth % 2 != 0:
        raise ValueError("walk needs an even tree depth")

    def value(fn, name, x, alpha):
        v = float(fn(x))
        if not math.isfinite(v):
            raise SolverEvalError(name, alpha)
        return v

    # row k: the node visited on level k
    nodes = np.empty((tree.depth + 1, tree.ambient_dim))
    nodes[0] = root = tree.node(())
    alphas = [()]
    cvs, dvs = [value(c, "c", root, ())], [value(d, "d", root, ())]
    alpha, row = (), 0  # the last visited node and its heap row
    for k in range(tree.depth):
        odd = k % 2 == 0  # the children are on level k + 1
        pick, other = ((d, "d"), (c, "c")) if odd else ((c, "c"), (d, "d"))
        children = tree._children(k, row, nodes[k])
        v = [value(*pick, x, alpha + (s,)) for x, s in zip(children, (1, -1))]
        i = 0 if v[0] >= v[1] else 1
        alpha += (1 - 2 * i,)
        row = 2 * row + 1 + i
        nodes[k + 1] = x = children[i]
        w = value(*other, x, alpha)
        cv, dv = (w, v[i]) if odd else (v[i], w)
        alphas.append(alpha)
        cvs.append(cv)
        dvs.append(dv)
    nodes.flags.writeable = False
    fvs = []
    rows = max(1, _BLOCK // tree.ambient_dim)
    for lo in range(0, nodes.shape[0], rows):
        block = nodes[lo:lo + rows]
        v = np.asarray(f(block), dtype=float)
        if v.shape != block.shape[:1]:
            raise ValueError(f"f returned shape {v.shape} for "
                             f"{block.shape[0]} nodes")
        finite = np.isfinite(v)
        if not finite.all():
            raise SolverEvalError("f", alphas[lo + int(np.argmin(finite))])
        fvs += v.tolist()
    levels = [WalkLevel(alpha=a, node=x, c_value=cv, d_value=dv,
                        f_value=fv, hypothesis_gap=abs(fv - (cv - dv)))
              for a, x, cv, dv, fv in zip(alphas, nodes, cvs, dvs, fvs)]
    even = levels[0::2]
    total = levels[-1].c_value - levels[0].c_value
    max_gap = max(lv.hypothesis_gap for lv in levels)
    return WalkReport(
        branch=alpha,
        levels=tuple(levels),
        c_increments=tuple(b.c_value - a.c_value
                           for a, b in zip(even, even[1:])),
        total_c_growth=total,
        guaranteed_growth=_walk_guarantee(tree.theta, delta, tree.depth),
        hypothesis_held=max_gap <= delta,
        max_gap=max_gap,
    )


def _walk_guarantee(theta, delta, depth):
    """The c growth along a depth-``depth`` branch that the walk guarantees
    when |f - (c - d)| <= delta at every visited node: theta/2 - 2*delta
    per double step."""
    return (theta / 2.0 - 2.0 * delta) * (depth / 2.0)


class SolverEvalError(RuntimeError):
    def __init__(self, which, alpha):
        super().__init__(f"evaluator {which!r} failed at node {alpha}")
        self.alpha = alpha


def error_lower_bound(M, theta, depth):
    """Any convex pair with |c| <= M on the ball and |f - (c-d)| <= delta on
    the tree forces delta >= theta/4 - 2M/depth."""
    if not (math.isfinite(M) and M >= 0):
        raise ValueError(f"M {M} is not finite and nonnegative")
    if not (math.isfinite(theta) and theta > 0):
        raise ValueError(f"theta {theta} is not finite and positive")
    if depth < 2 or depth % 2 != 0:
        raise ValueError("depth must be an even integer >= 2")
    return max(0.0, theta / 4.0 - 2.0 * M / depth)


# ---------------------------------------------------------------------------
# serialization: header "depth D theta", then one node per line as a +/-
# sign string (empty for the root, whose line starts with its coordinates)
# followed by D coordinates
# ---------------------------------------------------------------------------


_SIGN_BITS = str.maketrans("+-", "01")


def save_tree(tree, path):
    nodes = tree.to_explicit().nodes  # rejects trees past _ENUM_CAP nodes
    with open(path, "w") as fh:
        fh.write(f"{tree.depth} {tree.ambient_dim} {tree.theta:.17g}\n")
        for alpha, x in zip(tree.indices(), nodes):
            coords = " ".join(f"{v:.17g}" for v in x)
            prefix = "".join("+" if s > 0 else "-" for s in alpha)
            fh.write((prefix + " " + coords).lstrip() + "\n")


def load_tree(path):
    """Read a tree file; a malformed one raises ValueError naming the file
    and, where one is at fault, the line.

    One pass over the lines finds each node's heap row from its sign
    string, as a binary numeral with - for 1 (level k starts at row
    2^k - 1), and keeps its coordinate tokens in file order; then one
    ``np.array`` parses them all and one ``np.isfinite`` checks them.
    ``line_of`` maps each heap row to its line.  A line at fault gives the
    message a parse line by line would: a coordinate error on an earlier
    line wins over a structural one, and only an error path parses again
    line by line to find it."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError(f"{path}: bad header")
        try:
            depth, D, theta = int(header[0]), int(header[1]), float(header[2])
        except ValueError as exc:
            raise ValueError(f"{path}:1: bad header ({exc})") from None
        # compared before any shift: a huge depth must not build a number
        if not 1 <= depth <= _ENUM_DEPTH:
            raise ValueError(f"{path}:1: depth {depth} is below 1 or has "
                             f"more than {_ENUM_CAP} nodes")
        if D < 1:
            raise ValueError(f"{path}:1: dimension {D} is below 1")
        if not (math.isfinite(theta) and theta > 0):
            raise ValueError(f"{path}:1: theta {theta} is not positive")
        line_of = [0] * ((1 << (depth + 1)) - 1)  # 0: no line yet
        order = []  # heap rows in file order
        tokens = []  # their coordinates, D per node

        def parsed():
            """The coordinates read so far, one row per node in file order;
            the first line with a bad or non-finite one raises."""
            # numpy parses each str with Python's float, so the line by
            # line parse below meets the same fault
            try:
                values = np.array(tokens, dtype=float).reshape(-1, D)
                if np.isfinite(values).all():
                    return values
            except ValueError:
                pass
            for i, row in enumerate(order):
                lineno = line_of[row]
                try:
                    values = [float(t) for t in tokens[i * D:(i + 1) * D]]
                except ValueError as exc:
                    raise ValueError(
                        f"{path}:{lineno}: bad coordinate ({exc})") from None
                if not all(map(math.isfinite, values)):
                    raise ValueError(f"{path}:{lineno}: non-finite coordinate")

        def fault(lineno, msg):
            parsed()
            return ValueError(f"{path}:{lineno}: {msg}")

        for lineno, line in enumerate(fh, 2):
            toks = line.split()
            if not toks:
                continue
            signs = toks[0]
            if signs.strip("+-"):
                signs, row = "", 0
            else:
                del toks[0]
                k = len(signs)
                if k > depth:
                    raise fault(lineno, f"sign string {signs} deeper than "
                                        f"depth {depth}")
                row = int(signs.translate(_SIGN_BITS), 2) + (1 << k) - 1
            if len(toks) != D:
                raise fault(lineno, f"expected {D} coordinates")
            if line_of[row]:
                raise fault(lineno, f"node {signs or 'root'} given twice")
            line_of[row] = lineno
            order.append(row)
            tokens += toks
    values = parsed()
    if len(order) < len(line_of):
        raise ValueError(f"{path}: tree has {len(order)} nodes, "
                         f"expected {len(line_of)}")
    nodes = np.empty_like(values)
    nodes[order] = values
    return DyadicTree(depth=depth, theta=theta, ambient_dim=D, nodes=nodes)
