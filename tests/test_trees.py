import dataclasses
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import deltaconvex
from deltaconvex import (DimensionMismatchError, DyadicTree, NormedSpace,
                         adversarial_branch_walk,
                         build_sign_tree, build_tree_family,
                         convex_pair_catalog, counterexample_function,
                         error_lower_bound, load_tree, save_tree,
                         validate_tree)
from deltaconvex import trees as trees_mod
from deltaconvex.cli import main
from deltaconvex.trees import TreeFamily

LINF2 = NormedSpace(2, math.inf)


class TestConstruction:
    def test_depth2_node_table(self):
        t = build_sign_tree(2)
        want = {
            (): [0, 0], (1,): [1, 0], (-1,): [-1, 0],
            (1, 1): [1, 1], (1, -1): [1, -1],
            (-1, 1): [-1, 1], (-1, -1): [-1, -1],
        }
        for alpha, coords in want.items():
            assert np.array_equal(t.node(alpha), np.array(coords, float))
        assert t.node_count == 7

    def test_block_overflow(self):
        with pytest.raises(ValueError, match="overflows"):
            build_sign_tree(4, block_start=1, ambient_dim=4)
        # a tree without a node array is a sign tree, checked the same way
        with pytest.raises(ValueError, match=r"\[2, 6\) overflows"):
            trees_mod.DyadicTree(depth=3, theta=1.0, ambient_dim=5,
                                 block_start=2, lead=True)

    def test_bad_index(self):
        t = build_sign_tree(2)
        with pytest.raises(KeyError):
            t.node((1, 0))
        with pytest.raises(KeyError):
            t.node((1, 1, 1))

    @pytest.mark.parametrize("theta", [0.0, -1.0, math.nan, math.inf])
    def test_theta_must_be_finite_positive(self, theta):
        # the rule load_tree applies to a file's header, for every tree
        with pytest.raises(ValueError, match="not finite and positive"):
            trees_mod.DyadicTree(depth=4, theta=theta, ambient_dim=4)
        nodes = build_sign_tree(2).to_explicit().nodes
        with pytest.raises(ValueError, match="not finite and positive"):
            trees_mod.DyadicTree(depth=2, theta=theta, ambient_dim=2,
                                 nodes=nodes)

    @pytest.mark.parametrize("shape, ambient_dim", [
        ((5, 2), 2), ((15, 2), 4), ((15,), 2), ((16, 2), 2)],
        ids=["too-few-rows", "too-few-columns", "one-axis", "extra-row"])
    def test_nodes_shape_checked(self, shape, ambient_dim):
        # a (5, 2) array once built and then failed in validate_tree with an
        # IndexError; a (15, 2) array in a 4-dimensional tree failed later
        with pytest.raises(ValueError, match=re.escape(
                f"shape {shape} is not (node_count, ambient_dim) "
                f"(15, {ambient_dim})")):
            trees_mod.DyadicTree(depth=3, theta=1.0, ambient_dim=ambient_dim,
                                 nodes=np.zeros(shape))

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float32])
    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_nodes_held_as_doubles(self, dtype, p):
        # int8 nodes at +-100 once wrapped in the pair kernel (separation 56
        # for 100), and int64 nodes at p = 2 raised from np.sqrt
        signs = build_sign_tree(3).to_explicit().nodes
        want = validate_tree(
            trees_mod.DyadicTree(depth=3, theta=100.0, ambient_dim=3,
                                 nodes=100.0 * signs), NormedSpace(3, p))
        t = trees_mod.DyadicTree(depth=3, theta=100.0, ambient_dim=3,
                                 nodes=(100 * signs).astype(dtype))
        assert t.nodes.dtype == np.float64
        assert not t.nodes.flags.writeable
        rep = validate_tree(t, NormedSpace(3, p))
        assert rep == want
        assert rep.min_separation == 100.0 and rep.separation_ok

    def test_scale(self):
        t = build_sign_tree(2, scale=0.5)
        assert t.theta == 0.5
        assert np.array_equal(t.node((1, -1)), np.array([0.5, -0.5]))
        with pytest.raises(ValueError):
            build_sign_tree(2, scale=1.5)


class TestValidation:
    def test_exhaustive_small_tree(self):
        t = build_sign_tree(6)
        space = NormedSpace(6, math.inf)
        rep = validate_tree(t, space)
        assert rep.midpoint_exact
        assert rep.exhaustive_pairs
        assert rep.min_separation == 1.0
        assert rep.separation_ok
        assert rep.max_norm == 1.0
        n = t.node_count
        assert rep.pairs_checked == n * (n - 1) // 2

    def test_midpoint_fault_detected(self):
        t = build_sign_tree(4).with_node((1, 1), [1.0, 1.0 + 1e-9, 0, 0])
        rep = validate_tree(t, NormedSpace(4, math.inf))
        assert not rep.midpoint_exact
        assert rep.worst_midpoint_gap > 0
        # the worst violated parent is the perturbed node itself (its own
        # children no longer average to it)
        assert rep.midpoint_violation in ((1, 1), (1,))

    def test_separation_fault_detected(self):
        # move a leaf next to its sibling
        t = build_sign_tree(3)
        near = t.node((1, 1, -1)) + np.array([0.0, 0.0, 1.9])
        t = t.with_node((1, 1, 1), near)
        rep = validate_tree(t, NormedSpace(3, math.inf))
        assert rep.min_separation < 1.0
        assert not rep.separation_ok

    @pytest.mark.parametrize("depth", [4, 11], ids=["exhaustive", "sampled"])
    def test_nan_node_raises(self, depth):
        # a NaN has no code, and the node check rejects it before any pair
        tree = build_sign_tree(depth).with_node(
            (1,), np.r_[math.nan, np.zeros(depth - 1)])
        assert tree._codes is None
        with pytest.raises(ValueError, match="non-finite coordinate"):
            validate_tree(tree, NormedSpace(depth, math.inf))

    @pytest.mark.parametrize("depth", [4, 11], ids=["exhaustive", "sampled"])
    @pytest.mark.parametrize("explicit", [False, True])
    def test_dimension_mismatch_raises(self, depth, explicit):
        tree = build_sign_tree(depth)
        tree = tree.to_explicit() if explicit else tree
        for dim in (depth - 1, depth + 1):
            with pytest.raises(DimensionMismatchError):
                validate_tree(tree, NormedSpace(dim, math.inf))

    @pytest.mark.parametrize("bad, match", [
        (-1, "negative"), (2.5, "not an integer"), (1e6, "not an integer")])
    def test_sample_pairs_checked_at_entry(self, bad, match):
        # -1 was taken as 0, and a float failed inside range
        tree = build_sign_tree(11)
        with pytest.raises(ValueError, match=match):
            validate_tree(tree, NormedSpace(11, math.inf), sample_pairs=bad)

    def test_numpy_integer_sample_pairs(self):
        tree = build_sign_tree(11)
        space = NormedSpace(11, math.inf)
        rep = validate_tree(tree, space, sample_pairs=np.int64(10_000),
                            seed=1)
        assert rep == validate_tree(tree, space, sample_pairs=10_000, seed=1)
        assert type(rep.pairs_checked) is int

    @pytest.mark.parametrize("depth", [4, 11], ids=["exhaustive", "sampled"])
    def test_inputs_checked_once(self, monkeypatch, depth):
        # an explicit tree's nodes are checked at entry, a sign tree's never
        calls = []
        check = NormedSpace._check

        def counted(space, x):
            calls.append(np.shape(x))
            return check(space, x)

        monkeypatch.setattr(NormedSpace, "_check", counted)
        tree = build_sign_tree(depth)
        for p in (math.inf, 3.0):
            space = NormedSpace(depth, p)
            validate_tree(tree, space, sample_pairs=20_000)
            assert calls == []
            validate_tree(tree.to_explicit(), space, sample_pairs=20_000)
            assert calls == [(tree.node_count, depth)]
            del calls[:]

    def test_subnormal_theta_midpoints_exact(self):
        # 0.5*theta rounds to 0 at the least subnormal, so the halves of
        # two equal children no longer sum to them
        rep = validate_tree(build_sign_tree(5, scale=5e-324),
                            NormedSpace(5, math.inf))
        assert rep.midpoint_exact and rep.worst_midpoint_gap == 0.0

    def test_children_summing_past_the_largest_double(self):
        # children 1.75 * 2^1023 and 1.25 * 2^1023 overflow when added;
        # their midpoint 1.5 * 2^1023 still checks exactly, and a parent
        # one ulp off is still caught, with no overflow warning
        big = 2.0 ** 1023
        nodes = np.array([[1.5 * big], [1.75 * big], [1.25 * big]])
        tree = DyadicTree(depth=1, theta=big / 4, ambient_dim=1, nodes=nodes)
        space = NormedSpace(1, math.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = validate_tree(tree, space)
            assert rep.midpoint_exact and rep.worst_midpoint_gap == 0.0
            off = tree.with_node((), np.nextafter(nodes[0], 0.0))
            rep = validate_tree(off, space)
        assert not rep.midpoint_exact and rep.midpoint_violation == ()
        assert rep.worst_midpoint_gap == nodes[0, 0] - off.nodes[0, 0]


def _brute_separation(tree, space):
    """Reference for exhaustive validation: one broadcast over all pairs,
    first minimum of the upper triangle in row-major order."""
    nodes = np.vstack([tree.level_array(k) for k in range(tree.depth + 1)])
    n = nodes.shape[0]
    d = space.norm(nodes[:, None, :] - nodes[None, :, :])
    d[~(np.arange(n)[:, None] < np.arange(n)[None, :])] = math.inf
    i, j = np.unravel_index(np.argmin(d), d.shape)
    return float(d[i, j]), (int(i), int(j)), n * (n - 1) // 2


def _reference_trees():
    out = []
    for tree in (build_sign_tree(3), build_sign_tree(6),
                 build_tree_family([3, 5], scale=0.5).trees[1]):
        out.append(tree)
        # move the all-plus leaf off the lattice of the other nodes, to
        # 0.8125 * theta from its sibling in l_inf
        leaf = (1,) * tree.depth
        sib = tree.node(leaf[:-1] + (-1,))
        bump = np.zeros(tree.ambient_dim)
        bump[-1] = 0.375
        bump[-2] = 0.8125 * tree.theta
        out.append(tree.with_node(leaf, sib + bump))
    return out


SIGN_THETAS = [1.0, 0.75, 0.1, 2.0 ** -40]


def _kernel_dtypes(monkeypatch):
    """Record the dtype of the rows of each ``_min_pair_distance`` call."""
    seen = []
    kernel = trees_mod._min_pair_distance

    def spy(space, X):
        seen.append(X.dtype)
        return kernel(space, X)

    monkeypatch.setattr(trees_mod, "_min_pair_distance", spy)
    return seen


def _close(p, got, want):
    if p in (1.0, math.inf):
        return got == want
    return math.isclose(got, want, rel_tol=4 * np.finfo(float).eps)


class TestPairKernel:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("block", [None, 64])
    def test_kernel_matches_broadcast(self, monkeypatch, p, block):
        if block is not None:
            monkeypatch.setattr(trees_mod, "_BLOCK", block)
        rng = np.random.default_rng(5)
        space = NormedSpace(9, p)
        # columns 6-8 are zero in every row, so the kernel skips them
        X = rng.uniform(-1, 1, size=(40, 9))
        X[:, 6:] = 0.0
        d = space.norm(X[:, None, :] - X[None, :, :])
        d[~(np.arange(len(X))[:, None] < np.arange(len(X)))] = math.inf
        i, j = np.unravel_index(np.argmin(d), d.shape)
        got, pair, count = trees_mod._min_pair_distance(space, X)
        assert pair == (i, j)
        assert count == int(np.isfinite(d).sum())
        assert _close(p, got, float(d[i, j]))

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("block", [None, 64])
    @pytest.mark.parametrize("tree", _reference_trees(),
                             ids=lambda t: f"d{t.depth}-D{t.ambient_dim}-"
                             f"{'clean' if t.nodes is None else 'fault'}")
    def test_exhaustive_matches_broadcast(self, monkeypatch, tree, p, block):
        # a small block puts tied minima in different row blocks, where only
        # the first in row-major order may win
        if block is not None:
            monkeypatch.setattr(trees_mod, "_BLOCK", block)
        space = NormedSpace(tree.ambient_dim, p)
        rep = validate_tree(tree, space)
        want_min, want_pair, want_pairs = _brute_separation(tree, space)
        assert rep.exhaustive_pairs
        assert rep.pairs_checked == want_pairs
        assert rep.separation_pair == want_pair
        assert _close(p, rep.min_separation, want_min)

    @pytest.mark.parametrize("theta", SIGN_THETAS)
    @pytest.mark.parametrize("depth", range(1, 11))
    def test_exhaustive_signs_match_float_kernel(self, monkeypatch, depth,
                                                 theta):
        # an l_inf sign tree hands its int8 sign prefixes to the kernel: the
        # float kernel's minimum, first pair and count on the placed nodes
        tree = build_sign_tree(depth, scale=theta)
        space = NormedSpace(depth, math.inf)
        nodes = trees_mod._heap_nodes(tree)
        want = trees_mod._min_pair_distance(space, nodes)
        seen = _kernel_dtypes(monkeypatch)
        rep = validate_tree(tree, space)
        assert seen == [np.int8]
        assert rep.exhaustive_pairs
        assert (rep.min_separation, rep.separation_pair,
                rep.pairs_checked) == want
        assert rep.min_separation == theta  # the root and a child

    @pytest.mark.parametrize("block", [None, 64])
    @pytest.mark.parametrize("theta", SIGN_THETAS)
    def test_exhaustive_signs_on_family_members(self, monkeypatch, theta,
                                                block):
        # members with a lead coordinate, one past block_start 0, in an
        # ambient space wider than the family; a small block spreads the
        # int8 pairs over many row blocks
        if block is not None:
            monkeypatch.setattr(trees_mod, "_BLOCK", block)
        fam = build_tree_family([3, 6, 9], ambient_dim=24, scale=theta)
        space = NormedSpace(24, math.inf)
        for tree in fam.trees:
            nodes = trees_mod._heap_nodes(tree)
            want = trees_mod._min_pair_distance(space, nodes)
            seen = _kernel_dtypes(monkeypatch)
            rep = validate_tree(tree, space)
            assert seen == [np.int8]
            assert (rep.min_separation, rep.separation_pair,
                    rep.pairs_checked) == want
            # the explicit copy measures int8 codes where every coordinate
            # is a small multiple of one power of two, with the same report;
            # 0.1 is not, and keeps the float kernel
            seen.clear()
            assert validate_tree(tree.to_explicit(), space) == rep
            assert seen == [np.float64 if theta == 0.1 else np.int8]

    @pytest.mark.parametrize("theta", [1.0, 0.75, 2.0 ** -40, 2.0 ** 1000])
    def test_dyadic_explicit_trees_take_int8(self, monkeypatch, theta):
        # every coordinate c * 2^e with |c| <= 63: a saved sign tree at a
        # dyadic theta, and a copy with a leaf moved by 0.375 * theta.  At
        # 2^1000 the codes are +-32 at e = 995, and every product is exact
        sign = trees_mod.DyadicTree(depth=5, theta=theta, ambient_dim=7,
                                    lead=True)
        leaf = sign.node((1,) * 5).copy()
        leaf[-1] += 0.375 * theta
        space = NormedSpace(7, math.inf)
        for tree in (sign.to_explicit(), sign.with_node((1,) * 5, leaf)):
            want = trees_mod._min_pair_distance(space, tree.nodes)
            seen = _kernel_dtypes(monkeypatch)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rep = validate_tree(tree, space)
            codes, scale = tree._codes
            assert codes.dtype == np.int8 and np.abs(codes).max() <= 63
            assert np.array_equal(codes.T * scale, tree.nodes)
            assert seen == [np.int8]
            assert (rep.min_separation, rep.separation_pair,
                    rep.pairs_checked) == want
            monkeypatch.undo()

    @pytest.mark.parametrize("tree", [
        build_sign_tree(5, scale=0.3).to_explicit(),
        build_sign_tree(5).with_node((1, -1), [1.0, -1.0, 0.1, 0.0, 0.0]),
        build_sign_tree(5).with_node((1, -1), [1.0, -1.0, 100.0, 0.0, 0.0]),
        build_sign_tree(5, scale=5e-324).to_explicit(),
    ], ids=["theta-0.3", "coordinate-0.1", "codes-past-63", "theta-5e-324"])
    def test_explicit_trees_off_the_grid_keep_float_kernel(self, monkeypatch,
                                                           tree):
        # 0.3 and 0.1 are no small multiple of a power of two; 100 and 1
        # are, of 2^0, but past the code range; 5e-324 = 2^-1074 would need
        # the scale 2^-1079, which is no double
        space = NormedSpace(5, math.inf)
        want = trees_mod._min_pair_distance(space, tree.nodes)
        seen = _kernel_dtypes(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = validate_tree(tree, space)
        assert tree._codes is None
        assert seen == [np.float64]
        assert (rep.min_separation, rep.separation_pair,
                rep.pairs_checked) == want

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_finite_p_keeps_float_kernel(self, monkeypatch, p):
        tree = build_tree_family([3, 6], ambient_dim=14, scale=0.75).trees[1]
        space = NormedSpace(14, p)
        seen = _kernel_dtypes(monkeypatch)
        rep = validate_tree(tree, space)
        assert seen == [np.float64]
        seen.clear()
        assert validate_tree(tree.to_explicit(), space) == rep
        assert seen == [np.float64]

    @pytest.mark.parametrize("block", [None, 64])
    def test_kernel_runs_in_integer_dtype(self, monkeypatch, block):
        # int8 rows in the kernel against the same rows as doubles: the
        # lower triangle's mask value is the dtype's maximum, above every
        # distance, so no masked pair wins a block
        if block is not None:
            monkeypatch.setattr(trees_mod, "_BLOCK", block)
        rng = np.random.default_rng(9)
        space = NormedSpace(7, math.inf)
        X = rng.integers(-1, 2, size=(90, 7)).astype(np.int8)
        X[:, 5:] = 0
        got = trees_mod._min_pair_distance(space, X)
        assert got == trees_mod._min_pair_distance(space, X.astype(float))

    @pytest.mark.parametrize("block", [16, 100, 256])
    @pytest.mark.parametrize("m", [1, 2, 7, 13, 31])
    @pytest.mark.parametrize("dtype", [np.int8, np.float64])
    def test_upper_triangle_against_double_loop(self, monkeypatch, dtype, m,
                                                block):
        # blocks of 1-16 rows, some ending on the last row, where the block
        # has one column fewer than rows; few distinct values make ties,
        # where only the first pair in row-major order may win
        monkeypatch.setattr(trees_mod, "_BLOCK", block)
        rng = np.random.default_rng(m)
        space = NormedSpace(4, math.inf)
        X = rng.integers(-2, 3, size=(m, 4))
        X = X.astype(np.int8) if dtype == np.int8 else 0.375 * X
        best, pair = math.inf, None
        for i in range(m):
            for j in range(i + 1, m):
                dist = float(np.abs(X[i].astype(float) - X[j]).max())
                if dist < best:
                    best, pair = dist, (i, j)
        got = trees_mod._min_pair_distance(space, X)
        assert got == (best, pair, m * (m - 1) // 2)

    def test_explicit_sampler_matches_implicit(self):
        tree = build_tree_family([3, 6], scale=0.5).trees[1]
        explicit = tree.to_explicit()
        for seed in range(3):
            want = trees_mod._random_nodes(
                tree, np.random.default_rng(seed), 5000)
            got = trees_mod._random_nodes(
                explicit, np.random.default_rng(seed), 5000)
            assert np.array_equal(got, want)

    def test_deep_family_memory(self, tmp_path):
        # the adversary on the depth-32/64/128 family (D = 227) must run in
        # bounded memory: no step may hold pairs of the family's nodes at
        # once (a broadcast over pairs of its first 10 levels once peaked at
        # 3.7 GB).  A child's ru_maxrss counts the memory of the process it
        # was forked from, so a fresh interpreter runs the CLI and reports
        # its peak.
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(deltaconvex.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        argv = [sys.executable, "-m", "deltaconvex.cli", "adversary",
                "--set", "depths=32,64,128", "--set", "deep_samples=64",
                "--out", str(tmp_path / "adv.csv")]
        probe = ("import resource, subprocess; "
                 f"rc = subprocess.run({argv!r}).returncode; "
                 "print(rc, resource.getrusage("
                 "resource.RUSAGE_CHILDREN).ru_maxrss)")
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=600)
        rc, peak_kib = map(int, proc.stdout.split())
        assert rc == 0, proc.stderr
        assert peak_kib / 1024 < 600


class TestFamily:
    @pytest.mark.parametrize("scale", [1.0, 0.5, 0.1])
    @pytest.mark.parametrize("depths, ambient_dim, levels", [
        ([2, 4], None, None),
        ([2, 4, 6], None, None),
        ([3, 6, 9], 24, None),
        ([8, 16, 32], None, 10),  # the adversary's default, first 10 levels
    ], ids=["2-4", "2-4-6", "3-6-9-D24", "8-16-32-top10"])
    def test_mutual_distance_exact(self, depths, ambient_dim, levels, scale):
        # the gap holds by construction (build_tree_family): every cross
        # pair of members is exactly scale apart
        fam = build_tree_family(depths, ambient_dim=ambient_dim, scale=scale)
        D = ambient_dim or sum(n + 1 for n in depths)
        assert fam.ambient_dim == D
        assert all(t.theta == scale for t in fam.trees)
        space = NormedSpace(D, math.inf)
        nodes = [trees_mod._heap_nodes(t, levels) for t in fam.trees]
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                for lo in range(0, len(a), 64):
                    cross = space.norm(a[lo:lo + 64, None, :] - b[None, :, :])
                    assert (cross == scale).all()

    def test_lead_coordinate(self):
        fam = build_tree_family([2, 2])
        assert fam.trees[0].node(())[0] == 1.0
        assert fam.trees[1].node(())[3] == 1.0

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            build_tree_family([2, 2], ambient_dim=5)
        with pytest.raises(ValueError):
            build_tree_family([])


class TestCounterexample:
    def test_analytic_matches_enumeration(self):
        fam = build_tree_family([4, 6])
        space = NormedSpace(fam.ambient_dim, math.inf)
        f = counterexample_function(fam, space)
        pts = []
        for t in fam.trees:
            for k in range(0, t.depth + 1, 2):
                pts.append(t.level_array(k))
        P = np.vstack(pts)
        rng = np.random.default_rng(0)
        X = rng.uniform(-1.5, 1.5, size=(3000, fam.ambient_dim))
        brute = np.abs(X[:, None, :] - P[None]).max(-1).min(-1)
        assert np.array_equal(f(X), brute)

    def test_node_values(self):
        fam = build_tree_family([4])
        space = NormedSpace(fam.ambient_dim, math.inf)
        f = counterexample_function(fam, space)
        t = fam.trees[0]
        for k in range(t.depth + 1):
            vals = f(t.level_array(k))
            want = 0.0 if k % 2 == 0 else 1.0
            assert np.all(vals == want)

    def test_refuses_other_spaces_and_explicit_members(self):
        fam = build_tree_family([2, 4])
        with pytest.raises(ValueError, match="l_inf"):
            counterexample_function(fam, NormedSpace(fam.ambient_dim, 2.0))
        mixed = TreeFamily(trees=(fam.trees[0].to_explicit(), fam.trees[1]))
        with pytest.raises(ValueError, match="sign trees"):
            counterexample_function(
                mixed, NormedSpace(fam.ambient_dim, math.inf))

    @pytest.mark.parametrize("scale", [0.75, 1 / 3])
    def test_matches_unfactored_form(self, scale):
        # members with a lead coordinate, one at block_start 0 and one past
        # it; [4, 7] has an odd depth and three extra ambient coordinates
        # outside every block, [32, 64] is the adversary's family (D = 98)
        for depths, dim in (([4, 7], 16), ([32, 64], 98)):
            fam = build_tree_family(depths, ambient_dim=dim, scale=scale)
            f = counterexample_function(fam, NormedSpace(dim, math.inf))
            rng = np.random.default_rng(4)
            X = rng.uniform(-1.5, 1.5, size=(500, dim))
            X[:40, sum(depths) + len(depths):] = 0.0  # on the blocks' span
            X[40:45] = np.round(X[40:45])  # exact zeros, +-1 and ties
            X = np.vstack([X]
                          + [trees_mod._heap_nodes(t, 8) for t in fam.trees]
                          + [trees_mod._random_nodes(t, rng, 100)
                             for t in fam.trees] + [np.zeros((1, dim))])
            for x in (X[0], X[-1], X, X[:60].reshape(3, 20, dim), X[:0],
                      X[:1], np.asfortranarray(X), X[::-2]):
                got, want = f(x), _counterexample_unfactored(fam, x)
                assert type(got) is type(want)
                assert np.shape(got) == np.shape(want)
                assert (np.asarray(got).tobytes()
                        == np.asarray(want).tobytes())

    @pytest.mark.parametrize("shape", [(), (16,), (3, 7), (2, 5, 16)])
    def test_point_dimension_checked(self, shape):
        # points of another dimension raise; they are not read in rows of D
        fam = build_tree_family([4, 2])
        f = counterexample_function(fam, NormedSpace(8, math.inf))
        with pytest.raises(DimensionMismatchError, match="dim 8"):
            f(np.zeros(shape))

    def test_lipschitz_one(self):
        fam = build_tree_family([4])
        space = NormedSpace(fam.ambient_dim, math.inf)
        f = counterexample_function(fam, space)
        rng = np.random.default_rng(1)
        x = rng.uniform(-2, 2, size=(2000, fam.ambient_dim))
        y = rng.uniform(-2, 2, size=(2000, fam.ambient_dim))
        lhs = np.abs(f(x) - f(y))
        assert np.all(lhs <= space.norm(x - y) + 1e-12)


def _counterexample_unfactored(family, x):
    """The counterexample unfactored: every level's distance takes the
    outside and lead terms before the min over even levels."""
    x = np.asarray(x, dtype=float)
    absx = np.abs(x)
    best = None
    for t in family.trees:
        outmask = np.ones(family.ambient_dim, dtype=bool)
        outmask[t.block_start:t.block_start + t.lead + t.depth] = False
        out = absx[..., outmask].max(axis=-1) if outmask.any() else 0.0
        off = t.block_start + t.lead
        lead_pen = (np.abs(x[..., t.block_start] - t.theta) if t.lead
                    else 0.0)
        blk = absx[..., off:off + t.depth]
        P = np.concatenate(
            [np.zeros_like(blk[..., :1]),
             np.maximum.accumulate(np.abs(blk - t.theta), axis=-1)], axis=-1)
        S = np.concatenate(
            [np.flip(np.maximum.accumulate(np.flip(blk, -1), -1), -1),
             np.zeros_like(blk[..., :1])], axis=-1)
        dk = np.maximum(P, S)
        dk = np.maximum(dk, np.asarray(out)[..., None])
        dk = np.maximum(dk, np.asarray(lead_pen)[..., None])
        dist = dk[..., 0::2].min(axis=-1)
        best = dist if best is None else np.minimum(best, dist)
    return best


def _zero(x):
    """0 at each node: a scalar for one node (D,), one value per row for a
    batch, as ``adversarial_branch_walk`` passes f the visited nodes."""
    return np.zeros(np.shape(x)[:-1])


class TestWalk:
    def test_greedy_example(self):
        t = build_sign_tree(2)

        def c(x):
            return np.abs(np.asarray(x, float)).max(-1)

        rep = adversarial_branch_walk(c, lambda x: 0.0, t, _zero, delta=0.5)
        assert rep.branch == (1, 1)  # ties break toward the +1 child
        assert rep.total_c_growth == 1.0
        assert [lv.alpha for lv in rep.levels] == [(), (1,), (1, 1)]
        assert rep.guaranteed_growth == (0.5 - 1.0) * 1.0

    def test_d_step_prefers_larger(self):
        t = build_sign_tree(2)

        def d(x):
            x = np.asarray(x, float)
            return -x[0]  # favors the -1 child at the first level

        rep = adversarial_branch_walk(lambda x: 0.0, d, t, _zero, delta=1.0)
        assert rep.branch[0] == -1

    def test_hypothesis_gap_recorded(self):
        fam = build_tree_family([2])
        space = NormedSpace(fam.ambient_dim, math.inf)
        f = counterexample_function(fam, space)
        rep = adversarial_branch_walk(lambda x: 0.0, lambda x: 0.0,
                                      fam.trees[0], f, delta=0.25)
        assert rep.max_gap == 1.0  # f = 1 on odd nodes, c - d = 0
        assert not rep.hypothesis_held

    def test_odd_depth_rejected(self):
        t = build_sign_tree(3)
        with pytest.raises(ValueError):
            adversarial_branch_walk(lambda x: 0.0, lambda x: 0.0, t, _zero,
                                    0.0)

    @pytest.mark.parametrize("scale", [1.0, 0.75])
    def test_matches_reference_walk(self, scale):
        # the catalog pairs and a pair that turns both ways, on sign trees
        # of depths 2-64 and an explicit copy
        fam = build_tree_family([2, 4, 16, 64], scale=scale)
        space = NormedSpace(fam.ambient_dim, math.inf)
        f = counterexample_function(fam, space)
        pairs = [(c, d) for _, c, d, _ in
                 convex_pair_catalog(space)]
        pairs.append(_turning_pair(fam.ambient_dim))
        for c, d in pairs:
            for tree in fam.trees + (fam.trees[2].to_explicit(),):
                for delta in (0.0, 0.1):
                    got = adversarial_branch_walk(c, d, tree, f, delta)
                    want = _reference_walk(c, d, tree, f, delta)
                    assert _fields(got) == _fields(want)

    def test_evaluations_per_walk(self):
        # f once, on the depth + 1 visited nodes, root first; c and d at
        # the root, once per step at the taken child and at both children
        # on the steps they choose
        fam = build_tree_family([2, 16, 64])
        space = NormedSpace(fam.ambient_dim, math.inf)
        f = counterexample_function(fam, space)
        c, d = _turning_pair(fam.ambient_dim)
        for tree in fam.trees:
            calls = {"c": [], "d": [], "f": []}

            def counted(name, fn):
                def call(x):
                    calls[name].append(x)
                    return fn(x)
                return call

            rep = adversarial_branch_walk(counted("c", c), counted("d", d),
                                          tree, counted("f", f), 0.0)
            n = tree.depth
            [batch] = calls["f"]
            assert batch.shape == (n + 1, fam.ambient_dim)
            assert not batch.flags.writeable
            assert len(calls["c"]) == len(calls["d"]) == 1 + 3 * n // 2
            for k, (x, lv) in enumerate(zip(batch, rep.levels)):
                assert len(lv.alpha) == k
                assert np.shares_memory(x, lv.node)
                assert x.tobytes() == tree.node(lv.alpha).tobytes()

    @pytest.mark.parametrize("tree", [
        build_sign_tree(2), build_sign_tree(16),
        build_sign_tree(12, scale=1 / 3),
        *build_tree_family([32, 64]).trees,
        *build_tree_family([4, 8], scale=1 / 3).trees,
        build_sign_tree(10).to_explicit(),
        build_sign_tree(6, scale=1 / 3, lead=True).to_explicit(),
        build_tree_family([2, 8], scale=0.75).trees[1].to_explicit(),
    ], ids=["sign-2", "sign-16", "theta-1/3", "member-32", "member-64",
            "member-4-1/3", "member-8-1/3", "explicit-10", "explicit-lead",
            "explicit-member"])
    def test_children_match_tree_nodes(self, tree):
        # the children written in place are tree.node's bytes, and c and d
        # get one read-only (D,) row per call: both at the root, then per
        # step the choosing evaluator at the +1 and the -1 child and the
        # other at the child taken
        c, d = _turning_pair(tree.ambient_dim)
        calls = []

        def counted(name, fn):
            def call(x):
                calls.append((name, x.shape, x.flags.writeable, x.tobytes()))
                return fn(x)
            return call

        rep = adversarial_branch_walk(counted("c", c), counted("d", d), tree,
                                      _zero, 0.0)
        assert {1, -1} <= set(rep.branch) or tree.depth == 2
        for lv in rep.levels:
            assert lv.node.tobytes() == tree.node(lv.alpha).tobytes()
        want = [("c", ()), ("d", ())]
        for k, lv in enumerate(rep.levels[1:]):
            up = rep.levels[k].alpha
            pick, other = ("d", "c") if k % 2 == 0 else ("c", "d")
            want += [(pick, up + (1,)), (pick, up + (-1,)), (other, lv.alpha)]
        assert calls == [(name, (tree.ambient_dim,), False,
                          tree.node(alpha).tobytes()) for name, alpha in want]

    @pytest.mark.parametrize("block", [98, 98 * 5, None])
    def test_f_gets_visited_nodes_in_blocks(self, monkeypatch, block):
        # blocks of _BLOCK // D rows: 1, 5 and all 65 rows of a depth-64
        # walk on the adversary's family, with the same report
        fam = build_tree_family([32, 64])
        space = NormedSpace(fam.ambient_dim, math.inf)
        f = counterexample_function(fam, space)
        c, d = _turning_pair(fam.ambient_dim)
        tree = fam.trees[1]
        want = _reference_walk(c, d, tree, f, 0.0)
        if block is not None:
            monkeypatch.setattr(trees_mod, "_BLOCK", block)
        sizes = []

        def counted(x):
            sizes.append(x.shape[0])
            return f(x)

        got = adversarial_branch_walk(c, d, tree, counted, 0.0)
        assert _fields(got) == _fields(want)
        rows = 65 if block is None else block // 98
        assert sizes == [rows] * (65 // rows) + [65 % rows] * (65 % rows > 0)

    def test_f_must_give_one_value_per_node(self):
        t = build_sign_tree(2)
        for f in (lambda x: 0.0, lambda x: np.zeros((x.shape[0], 1))):
            with pytest.raises(ValueError, match="f returned shape"):
                adversarial_branch_walk(_zero, _zero, t, f, 0.0)

    def test_non_finite_values(self):
        t = build_sign_tree(2)
        zero = _zero  # ties take (1,), then (1, 1)

        def nan_at(alpha):
            # nan at the node ``alpha``, for one node or a batch of them
            node = t.node(alpha)
            return lambda x: np.where((x == node).all(axis=-1), math.nan,
                                      0.0)

        # f at a child the walk does not take is never evaluated
        for alpha in ((-1,), (1, -1)):
            with pytest.raises(trees_mod.SolverEvalError):
                _reference_walk(zero, zero, t, nan_at(alpha), 0.0)
            rep = adversarial_branch_walk(zero, zero, t, nan_at(alpha), 0.0)
            assert rep.branch == (1, 1)
        # f on the branch, or the value that picks the child, still raises
        for fns, name, alpha in (((zero, zero, nan_at((1,))), "f", (1,)),
                                 ((zero, zero, nan_at((1, 1))), "f", (1, 1)),
                                 ((zero, nan_at((-1,)), zero), "d", (-1,)),
                                 ((nan_at((1, -1)), zero, zero), "c",
                                  (1, -1))):
            c, d, f = fns
            with pytest.raises(trees_mod.SolverEvalError,
                               match=f"'{name}' failed") as err:
                adversarial_branch_walk(c, d, t, f, 0.0)
            assert err.value.alpha == alpha


class TestCatalog:
    def test_max_affine_matches_stacked_pieces(self):
        # the running maximum returns the bytes and type that
        # np.maximum.reduce over the three stacked pieces returned, on a
        # node, C- and F-order batches and a 3-D batch; rounded rows put
        # exact zeros of both signs and ties among the pieces
        fam = build_tree_family([4, 8])
        space = NormedSpace(fam.ambient_dim, math.inf)
        [(_, c, _, _)] = [p for p in convex_pair_catalog(space)
                          if p[0] == "max-affine"]
        X = np.random.default_rng(2).uniform(-1.5, 1.5,
                                             (60, fam.ambient_dim))
        X[:10] = np.round(X[:10] * 2) / 2
        X[0, 0] = -0.0
        for x in (fam.trees[1].node((1, -1)), X[0], X, np.asfortranarray(X),
                  X.reshape(3, 20, -1), X[:0]):
            want = np.maximum.reduce([x[..., 0], -x[..., 0],
                                      0.5 * x[..., 1] + 0.25])
            got = c(x)
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _turning_pair(dim):
    """A convex pair whose walk takes both signs: c a shifted quadratic,
    d linear."""
    rng = np.random.default_rng(11)
    a, g = rng.uniform(-1, 1, size=(2, dim))

    def c(x):
        return float(((np.asarray(x) - a) ** 2).sum())

    def d(x):
        return float(np.asarray(x) @ g)

    return c, d


def _reference_walk(c, d, tree, f, delta):
    """The walk as first written: c, d and f at both children of every
    step, each node from ``tree.node``."""
    def visit(alpha):
        node = tree.node(alpha)
        cv, dv, fv = float(c(node)), float(d(node)), float(f(node))
        for name, v in (("c", cv), ("d", dv), ("f", fv)):
            if not math.isfinite(v):
                raise trees_mod.SolverEvalError(name, alpha)
        return trees_mod.WalkLevel(alpha=alpha, node=node, c_value=cv,
                                   d_value=dv, f_value=fv,
                                   hypothesis_gap=abs(fv - (cv - dv)))

    alpha = ()
    levels = [visit(alpha)]
    increments = []
    for _ in range(tree.depth // 2):
        plus, minus = visit(alpha + (1,)), visit(alpha + (-1,))
        odd = plus if plus.d_value >= minus.d_value else minus
        plus, minus = visit(odd.alpha + (1,)), visit(odd.alpha + (-1,))
        even = plus if plus.c_value >= minus.c_value else minus
        alpha = even.alpha
        increments.append(even.c_value - levels[-1].c_value)
        levels.extend([odd, even])
    max_gap = max(lv.hypothesis_gap for lv in levels)
    return trees_mod.WalkReport(
        branch=alpha, levels=tuple(levels), c_increments=tuple(increments),
        total_c_growth=levels[-1].c_value - levels[0].c_value,
        guaranteed_growth=(tree.theta / 2.0 - 2.0 * delta)
        * (tree.depth / 2.0),
        hypothesis_held=max_gap <= delta, max_gap=max_gap)


def _fields(obj):
    """A dataclass as a tuple of (name, value), an array as its dtype,
    shape, bytes and write flag, and each walk level in the same way."""
    out = []
    for field in dataclasses.fields(obj):
        v = getattr(obj, field.name)
        if isinstance(v, np.ndarray):
            v = (v.dtype.str, v.shape, v.tobytes(), v.flags.writeable)
        elif field.name == "levels":
            v = tuple(map(_fields, v))
        out.append((field.name, v))
    return tuple(out)


class TestErrorLowerBound:
    def test_values(self):
        assert error_lower_bound(1.0, 1.0, 8) == 0.0
        assert error_lower_bound(1.0, 1.0, 16) == 0.125
        assert error_lower_bound(1.0, 1.0, 32) == 0.1875
        assert error_lower_bound(0.0, 1.0, 8) == 0.25

    def test_guards(self):
        with pytest.raises(ValueError):
            error_lower_bound(-1.0, 1.0, 8)
        with pytest.raises(ValueError):
            error_lower_bound(1.0, 1.0, 7)
        # a nan M or theta gave 0.0, and theta = inf gave inf
        for M in (math.nan, math.inf):
            with pytest.raises(ValueError, match="M .* not finite"):
                error_lower_bound(M, 1.0, 4)
        for theta in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="theta .* not finite"):
                error_lower_bound(0.0, theta, 4)


# malformed depth-1 tree files: (text, line at fault, message)
_DEPTH1_BODY = "0 0\n+ 1 0\n- -1 0\n"
MALFORMED = {
    "over-deep": ("1 2 1\n0 0\n+ 1 0\n++ 1 1\n", 4, "deeper than depth"),
    "repeated": ("1 2 1\n0 0\n+ 1 0\n- -1 0\n- 5 0\n", 5, "given twice"),
    "repeated-root": ("1 2 1\n0 0\n0 0\n+ 1 0\n- -1 0\n", 3,
                      "root given twice"),
    "nan-theta": ("1 2 nan\n" + _DEPTH1_BODY, 1, "theta"),
    "inf-theta": ("1 2 inf\n" + _DEPTH1_BODY, 1, "theta"),
    "zero-theta": ("1 2 0\n" + _DEPTH1_BODY, 1, "theta"),
    "negative-theta": ("1 2 -1\n" + _DEPTH1_BODY, 1, "theta"),
    "depth-past-cap": ("40 2 1\n" + _DEPTH1_BODY, 1, "depth 40"),
    # checked before any shift: 1 << (10**30 + 1) cannot be built
    "depth-huge": (f"{10 ** 30} 2 1\n" + _DEPTH1_BODY, 1,
                   f"depth {10 ** 30}"),
    "depth-zero": ("0 2 1\n0 0\n", 1, "depth 0"),
    "unparsed-depth": ("a 2 1\n0 0\n", 1, "bad header"),
    "unparsed-coordinate": ("1 2 1\n0 0\n+ 1 x\n- -1 0\n", 3,
                            "bad coordinate"),
    "nan-coordinate": ("1 2 1\nnan 0\n+ 1 0\n- -1 0\n", 2, "non-finite"),
    "inf-coordinate": ("1 2 1\n0 0\n+ 1 -inf\n- -1 0\n", 3, "non-finite"),
    # a coordinate fault on an earlier line wins over a later fault
    "bad-coordinate-then-repeat": ("1 2 1\n0 0\n+ 1 x\n- -1 0\n- 5 0\n", 3,
                                   "bad coordinate"),
    "non-finite-then-bad": ("1 2 1\n0 inf\n+ 1 x\n- -1 0\n", 2,
                            "non-finite"),
    "bad-coordinate-then-missing": ("1 2 1\n0 0\n+ x 0\n", 3,
                                    "bad coordinate"),
    "dimension-zero": ("1 0 1\n\n+\n-\n", 1, "dimension 0"),
    "dimension-negative": ("1 -2 1\n" + _DEPTH1_BODY, 1, "dimension -2"),
}


class TestSerialization:
    def test_round_trip(self, tmp_path):
        t = build_sign_tree(4, scale=0.5)
        path = tmp_path / "tree.txt"
        save_tree(t, path)
        back = load_tree(path)
        assert back.depth == 4 and back.theta == 0.5
        for alpha in t.indices():
            assert np.array_equal(back.node(alpha), t.node(alpha))

    def test_any_line_order(self, tmp_path):
        # each line's sign string places its node, wherever the line is
        t = build_sign_tree(4, scale=0.5).with_node((1, -1), [0.5, -0.5, 0.3,
                                                              0.0])
        path = tmp_path / "tree.txt"
        save_tree(t, path)
        header, *body = path.read_text().splitlines()
        path.write_text("\n".join([header] + body[::-1]) + "\n")
        back = load_tree(path)
        assert np.array_equal(back.nodes, t.nodes)

    def test_missing_nodes_rejected(self, tmp_path):
        t = build_sign_tree(3)
        path = tmp_path / "tree.txt"
        save_tree(t, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="expected"):
            load_tree(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "tree.txt"
        path.write_text("3 4\n")
        with pytest.raises(ValueError, match="header"):
            load_tree(path)

    def test_wrong_coordinate_count(self, tmp_path):
        path = tmp_path / "tree.txt"
        path.write_text("1 2 1\n0 0\n+ 1\n- -1 0\n")
        with pytest.raises(ValueError, match="coordinates"):
            load_tree(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_load_rejects(self, tmp_path, case):
        text, lineno, msg = MALFORMED[case]
        path = tmp_path / "tree.txt"
        path.write_text(text)
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}:{lineno}: ") + ".*" + msg):
            load_tree(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_validate_tree_cli_exits_two(self, tmp_path, capsys, case):
        text, lineno, _ = MALFORMED[case]
        path = tmp_path / "tree.txt"
        path.write_text(text)
        assert main(["validate-tree", str(path)]) == 2
        assert f"{path}:{lineno}: " in capsys.readouterr().err


def _level_signs_int64(k, lo=0, hi=None):
    """``_level_signs`` as first written, from int64 shifts, the
    reference for the int32 form."""
    hi = 1 << k if hi is None else hi
    bits = (np.arange(lo, hi) >> np.arange(k - 1, -1, -1)[:, None]) & 1
    return (1 - 2 * bits).astype(np.int8)


class TestHeapLayout:
    @pytest.mark.parametrize("tree", [
        build_sign_tree(5), build_tree_family([3, 5], scale=0.5).trees[1]],
        ids=["sign", "family-member"])
    def test_explicit_matches_sign_tree(self, tree):
        explicit = tree.to_explicit()
        levels = [tree.level_array(k) for k in range(tree.depth + 1)]
        assert np.array_equal(explicit.nodes, np.vstack(levels))
        for k, level in enumerate(levels):
            assert np.array_equal(explicit.level_array(k), level)
        for levels_cap in range(1, tree.depth + 3):
            assert np.array_equal(trees_mod._heap_nodes(explicit, levels_cap),
                                  trees_mod._heap_nodes(tree, levels_cap))
        for row, alpha in enumerate(tree.indices()):
            assert trees_mod._heap_index(alpha) == row
            assert np.array_equal(explicit.node(alpha), tree.node(alpha))

    @pytest.mark.parametrize("k", [*range(21), 31, 32, 40, 62])
    def test_level_signs_match_int64_formula(self, k):
        # full levels up to 20; windows on every level, also past the
        # levels whose rows int32 holds
        n = 1 << k
        lo = n // 3
        odd = min((n - lo) - (n - lo + 1) % 2, 4097)  # odd, from lo
        windows = [(lo, lo + odd), (n // 2, n // 2), (n - 1, n), (0, 1)]
        if k <= 20:
            windows.append((0, None))
        for window in windows:
            got = trees_mod._level_signs(k, *window)
            want = _level_signs_int64(k, *window)
            assert got.dtype == np.int8
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_heap_index_of_level_signs(self):
        for k in range(1, 7):
            signs = trees_mod._level_signs(k).astype(int)
            rows = trees_mod._heap_index(signs)
            assert np.array_equal(rows, np.arange((1 << k) - 1,
                                                  (1 << (k + 1)) - 1))
        # zero-padded prefixes of different lengths in one array
        padded = np.array([[1, -1, 0], [-1, 0, 0], [0, 0, 0], [-1, -1, -1]])
        assert list(trees_mod._heap_index(padded.T)) == [4, 2, 0, 14]

    def test_heap_index_of_drawn_signs(self):
        # the int8 draws of the sampled path, against each column's sign
        # string read as a binary numeral (- is 1) past the 2^k - 1 rows
        # of the levels above
        tree = build_sign_tree(12)
        signs = trees_mod._draw_nodes(tree, np.random.default_rng(4), 3000)
        want = []
        for col in signs.T:
            bits = "".join("1" if s < 0 else "0" for s in col if s)
            want.append(int(bits or "0", 2) + (1 << len(bits)) - 1)
        assert trees_mod._heap_index(signs).tolist() == want

    def test_with_node_writes_one_row(self):
        tree = build_sign_tree(5)
        source = tree.to_explicit()
        before = source.nodes.copy()
        for row, alpha in ((0, ()), (4, (1, -1)), (62, (-1,) * 5)):
            changed = source.with_node(alpha, np.full(5, 7.0))
            differs = (changed.nodes != source.nodes).any(axis=1)
            assert np.flatnonzero(differs).tolist() == [row]
            assert np.array_equal(changed.node(alpha), np.full(5, 7.0))
            assert np.array_equal(source.nodes, before)
            assert tree.nodes is None
            assert np.array_equal(tree.with_node(alpha, np.full(5, 7.0)).nodes,
                                  changed.nodes)
        with pytest.raises(KeyError):
            tree.with_node((1, 0), np.zeros(5))

    def test_node_array_read_only(self, tmp_path):
        path = tmp_path / "tree.txt"
        save_tree(build_sign_tree(3), path)
        for tree in (build_sign_tree(3).to_explicit(), load_tree(path),
                     build_sign_tree(3).with_node((1,), np.ones(3))):
            assert not tree.nodes.flags.writeable
            with pytest.raises(ValueError):
                tree.nodes[0, 0] = 1.0
            with pytest.raises(ValueError):
                tree.node((1, 1))[0] = 1.0


class TestRandomNodes:
    def test_draw_pinned(self):
        # rows and generator state as drawn by _draw_nodes: the levels, then
        # the signs as packed random bytes
        rng = np.random.default_rng(3)
        X = trees_mod._random_nodes(build_sign_tree(16), rng, 8)
        want = ["----++-------000", "-000000000000000", "---0000000000000",
                "--+-000000000000", "++-0000000000000", "+++-----+--+-000",
                "++++----+-+-+-00", "-+------+0000000"]
        sym = {"+": 1.0, "-": -1.0, "0": 0.0}
        assert np.array_equal(
            X, np.array([[sym[c] for c in row] for row in want]))
        assert list(rng.integers(0, 1000, 3)) == [621, 479, 264]

    @pytest.mark.parametrize("depth", [1, 7, 16, 64, 300])
    def test_draw_matches_broadcast_mask(self, depth):
        # the row-by-row level mask (uint16 levels past depth 255) against
        # one broadcast int64 mask: the same signs and generator state
        tree = build_sign_tree(depth)
        for m in (1, 13, 1001):
            rng, ref = (np.random.default_rng(depth + m) for _ in range(2))
            got = trees_mod._draw_nodes(tree, rng, m)
            ks = ref.integers(0, depth + 1, size=m)
            packed = ref.integers(0, 256, size=(depth, -(-m // 8)),
                                  dtype=np.uint8)
            want = np.unpackbits(packed, axis=1, count=m).view(np.int8) * 2 - 1
            want *= np.arange(depth)[:, None] < ks
            assert got.dtype == np.int8 and got.shape == (depth, m)
            assert np.array_equal(got, want)
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_sampled_path_unchanged_past_exhaustive_cap(self):
        # depth 12 has 33,542,145 pairs, past the exhaustive cap, so the
        # default budget of 2M pairs is sampled; the count (distinct pairs
        # among the draws) pins the draws
        t = build_sign_tree(12)
        rep = validate_tree(t, NormedSpace(12, math.inf), seed=5)
        assert not rep.exhaustive_pairs
        assert rep.pairs_checked == 1_976_604
        assert rep.min_separation == 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_explicit_copy_samples_like_sign_tree(self, seed):
        # both kinds draw sample_pairs pairs: the same nodes, the same report
        t = build_sign_tree(12)
        space = NormedSpace(12, math.inf)
        want = validate_tree(t, space, seed=seed)
        assert not want.exhaustive_pairs
        assert validate_tree(t.to_explicit(), space, seed=seed) == want

    def test_sampled_path_rejects_non_finite_explicit_tree(self):
        # depth 14 puts the last leaf past the structured-pair budget, so
        # only the node table check can see the NaN there
        t = build_sign_tree(14).with_node((-1,) * 14, np.full(14, math.nan))
        with pytest.raises(ValueError, match="non-finite"):
            validate_tree(t, NormedSpace(14, math.inf), seed=0)


# depth 11 is past the exhaustive cap; 3 * (2^11 - 1) structured pairs
# (parent/child and siblings) come before the sampled ones
SAMPLED_DEPTH = 11
STRUCTURED_PAIRS = 3 * ((1 << SAMPLED_DEPTH) - 1)


def _offset(tree, alpha, shift):
    """Node ``alpha`` moved ``shift`` in the last coordinate, which is 0 at
    every node above the last level."""
    x = tree.node(alpha).copy()
    x[-1] += shift
    return x


def _sampled_trees():
    """Trees on the sampled path: sign trees with a lead coordinate and a
    scale, and explicit copies whose closest pair (node (1,) near or on
    node (-1, 1), neither parent and child nor siblings) only the sampled
    pairs can find."""
    sign = build_sign_tree(SAMPLED_DEPTH, lead=True, scale=0.5)
    member = build_tree_family([3, SAMPLED_DEPTH]).trees[1]
    return [sign, member,
            sign.with_node((1,), _offset(sign, (-1, 1), 0.125)),
            member.with_node((1,), member.node((-1, 1)))]


def _structured_trees():
    """Trees whose structured pairs take the int8 rows: sign trees, a
    family member, a saved sign tree with a lead coordinate, the explicit
    trees of ``_sampled_trees``, and leaves moved by a dyadic step to 0.25
    from their parent and from their sibling."""
    sign = build_sign_tree(SAMPLED_DEPTH)
    leaf = (1,) * SAMPLED_DEPTH
    return [sign, build_sign_tree(SAMPLED_DEPTH, scale=1 / 3),
            *_sampled_trees()[1:2],
            build_sign_tree(SAMPLED_DEPTH, lead=True, scale=0.5).to_explicit(),
            *_sampled_trees()[2:],
            sign.with_node(leaf, _offset(sign, leaf, -0.75)),
            sign.with_node(leaf, _offset(sign, leaf[:-1] + (-1,), 0.25))]


def _distinct_draws(tree, seed, m):
    """Pairs of distinct nodes, by heap row, among the first m sampled
    pairs of ``validate_tree`` at ``seed`` (m at most one draw batch)."""
    rng = np.random.default_rng(seed)
    rows = [trees_mod._heap_index(
        trees_mod._draw_nodes(tree, rng, m).astype(np.int64))
        for _ in range(2)]
    return int((rows[0] != rows[1]).sum())


def _reference_sampled(tree, space, structured, sample_pairs, seed):
    """validate_tree's report at ``sample_pairs``, from ``structured``, its
    report at sample_pairs=0 (the structured pairs only), and the sampled
    loop as first written: both draws unpacked by ``_draw_nodes``, measured
    by ``_distances``, and the pairs at distance 0 whose columns are equal
    dropped as the same node."""
    min_sep, sep_pair = structured.min_separation, structured.separation_pair
    checked = structured.pairs_checked
    rng = np.random.default_rng(seed)
    remaining = max(sample_pairs - checked, 0)
    for lo in range(0, remaining, trees_mod._DRAW_BATCH):
        m = min(remaining - lo, trees_mod._DRAW_BATCH)
        sa = trees_mod._draw_nodes(tree, rng, m)
        sb = trees_mod._draw_nodes(tree, rng, m)
        dist = tree._distances(space, sa, sb)
        zero = np.flatnonzero(dist == 0.0)
        if zero.size:
            same = (sa[:, zero] == sb[:, zero]).all(axis=0)
            dist = np.delete(dist, zero[same])
        if dist.size:
            i = int(np.argmin(dist))
            if dist[i] < min_sep:
                min_sep, sep_pair = float(dist[i]), ("sampled", lo + i)
        checked += dist.size
    return dataclasses.replace(
        structured, min_separation=min_sep, separation_pair=sep_pair,
        separation_ok=min_sep >= tree.theta - 1e-12, pairs_checked=checked)


class TestStreamedChecks:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("tree", _sampled_trees(),
                             ids=["sign-lead-scale", "family-member",
                                  "explicit-near", "explicit-coincident"])
    def test_block_invariance(self, monkeypatch, tree, p):
        # 80,000 pairs span two draw batches
        space = NormedSpace(tree.ambient_dim, p)
        for block, pairs in ((48, STRUCTURED_PAIRS + 3000), (1000, 80_000)):
            want = validate_tree(tree, space, sample_pairs=pairs, seed=1)
            monkeypatch.setattr(trees_mod, "_BLOCK", block)
            got = validate_tree(tree, space, sample_pairs=pairs, seed=1)
            monkeypatch.undo()
            assert not got.exhaustive_pairs
            assert got == want
        if tree.nodes is not None:
            assert got.separation_pair[0] == "sampled"

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    def test_coincident_nodes_count(self, p):
        tree = _sampled_trees()[-1]
        rep = validate_tree(tree, NormedSpace(tree.ambient_dim, p),
                            sample_pairs=STRUCTURED_PAIRS + 50_000, seed=2)
        assert rep.min_separation == 0.0
        assert not rep.separation_ok
        assert rep.separation_pair[0] == "sampled"
        assert rep.pairs_checked == (STRUCTURED_PAIRS
                                     + _distinct_draws(tree, 2, 50_000))

    @pytest.mark.parametrize("p, want", [(2.0, 0.0), (math.inf, 1e-200)])
    def test_underflowing_distance_counts(self, p, want):
        # 1e-200 apart: the l2 distance underflows to 0, yet the nodes are
        # distinct and the pair counts
        sign = build_sign_tree(SAMPLED_DEPTH)
        tree = sign.with_node((1,), _offset(sign, (-1, 1), 1e-200))
        rep = validate_tree(tree, NormedSpace(tree.ambient_dim, p),
                            sample_pairs=STRUCTURED_PAIRS + 50_000, seed=2)
        assert rep.min_separation == want
        assert rep.separation_pair[0] == "sampled"
        assert rep.pairs_checked == (STRUCTURED_PAIRS
                                     + _distinct_draws(tree, 2, 50_000))

    def test_structured_pair_names_parent_child(self):
        # leaf (1, ..., 1) moved to 0.25 from its parent; its sibling stays
        # 1.25 away
        sign = build_sign_tree(SAMPLED_DEPTH)
        leaf = (1,) * SAMPLED_DEPTH
        tree = sign.with_node(leaf, _offset(sign, leaf, -0.75))
        rep = validate_tree(tree, NormedSpace(SAMPLED_DEPTH, math.inf),
                            sample_pairs=STRUCTURED_PAIRS + 1000, seed=0)
        kind, k, i = rep.separation_pair
        assert (kind, k) == ("parent-child", SAMPLED_DEPTH - 1)
        assert rep.min_separation == 0.25
        parent = tree._level_rows(k, i // 2, i // 2 + 1)
        child = tree._level_rows(k + 1, i, i + 1)
        assert np.abs(parent - child).max() == 0.25

    def test_structured_pair_names_siblings(self):
        # leaf (1, ..., 1) moved to 0.25 from its sibling (1, ..., 1, -1),
        # 0.75 from its parent
        sign = build_sign_tree(SAMPLED_DEPTH)
        leaf = (1,) * SAMPLED_DEPTH
        tree = sign.with_node(leaf, _offset(sign, leaf[:-1] + (-1,), 0.25))
        rep = validate_tree(tree, NormedSpace(SAMPLED_DEPTH, math.inf),
                            sample_pairs=STRUCTURED_PAIRS + 1000, seed=0)
        kind, k, i = rep.separation_pair
        assert (kind, k) == ("siblings", SAMPLED_DEPTH - 1)
        assert rep.min_separation == 0.25
        pair = tree._level_rows(k + 1, 2 * i, 2 * i + 2)
        assert np.abs(pair[0] - pair[1]).max() == 0.25

    def test_clean_tree_first_pair_is_root_and_child(self):
        rep = validate_tree(build_sign_tree(SAMPLED_DEPTH),
                            NormedSpace(SAMPLED_DEPTH, math.inf),
                            sample_pairs=STRUCTURED_PAIRS + 1000, seed=0)
        assert rep.separation_pair == ("parent-child", 0, 0)

    @pytest.mark.parametrize("tree", [
        build_sign_tree(SAMPLED_DEPTH),
        build_sign_tree(SAMPLED_DEPTH, scale=0.75),
        build_sign_tree(SAMPLED_DEPTH, scale=1 / 3),
        build_sign_tree(SAMPLED_DEPTH, scale=0.1),
        build_tree_family([3, SAMPLED_DEPTH], scale=1 / 3).trees[1],
    ], ids=["theta-1", "theta-0.75", "theta-1/3", "theta-0.1", "member"])
    def test_sign_route_matches_float_route(self, tree):
        # an l_inf sign tree measures sampled pairs on its int8 signs, its
        # explicit copy on placed coordinates: the same distances bit for
        # bit, so the same report over two draw batches
        space = NormedSpace(tree.ambient_dim, math.inf)
        copy = tree.to_explicit()
        rng = np.random.default_rng(6)
        sa, sb = (trees_mod._draw_nodes(tree, rng, 5000) for _ in range(2))
        got = tree._distances(space, sa, sb)
        want = copy._distances(space, sa, sb)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert set(np.unique(got).tolist()) == {
            0.0, tree.theta, 2 * tree.theta}
        pairs = STRUCTURED_PAIRS + 80_000
        rep = validate_tree(tree, space, sample_pairs=pairs, seed=1)
        assert not rep.exhaustive_pairs
        assert validate_tree(copy, space, sample_pairs=pairs, seed=1) == rep

    @pytest.mark.parametrize("tree", _structured_trees(),
                             ids=["theta-1", "theta-1/3", "member",
                                  "explicit-lead", "explicit-near",
                                  "explicit-coincident", "parent-child",
                                  "siblings"])
    def test_structured_pairs_take_int8(self, monkeypatch, tree):
        # sign trees and explicit trees on the dyadic grid measure their
        # parent/child and sibling pairs on int8 rows: two calls a level,
        # then one for the 5000 sampled pairs; the float route on an
        # explicit copy gives the same report
        space = NormedSpace(tree.ambient_dim, math.inf)
        pairs = STRUCTURED_PAIRS + 5000
        seen = []
        kernel = trees_mod._scaled_distances

        def spy(ra, rb, scale):
            seen.append((ra.dtype, rb.dtype))
            return kernel(ra, rb, scale)

        monkeypatch.setattr(trees_mod, "_scaled_distances", spy)
        rep = validate_tree(tree, space, sample_pairs=pairs, seed=3)
        # a sign tree's sampled pairs are measured on the packed draw bits
        # (``DyadicTree._draw_distances``), without this kernel
        sampled = int(tree.nodes is not None)
        assert seen == [(np.int8, np.int8)] * (2 * tree.depth + sampled)
        monkeypatch.setattr(trees_mod.DyadicTree, "_int_rows",
                            lambda self, space, signs: None)
        seen.clear()
        want = validate_tree(tree.to_explicit(), space, sample_pairs=pairs,
                             seed=3)
        assert seen == []
        assert not rep.exhaustive_pairs
        assert rep == want

    @pytest.mark.parametrize("tree", _sampled_trees()[2:],
                             ids=["explicit-near", "explicit-coincident"])
    def test_code_route_matches_placed_coordinates(self, tree):
        # explicit trees on the dyadic grid measure sampled pairs on code
        # rows gathered from the drawn signs' heap rows
        space = NormedSpace(tree.ambient_dim, math.inf)
        assert tree._codes is not None
        rng = np.random.default_rng(6)
        sa, sb = (trees_mod._draw_nodes(tree, rng, 5000) for _ in range(2))
        got = tree._distances(space, sa, sb)
        want = space._norm(tree._place(sa) - tree._place(sb))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("tree", [
        *(build_sign_tree(depth, scale=theta) for depth in (11, 12, 16)
          for theta in (1.0, 1 / 3, 5e-324)),
        build_tree_family([3, 12]).trees[1],
    ], ids=[*(f"depth-{depth}-{theta}" for depth in (11, 12, 16)
              for theta in ("1", "1/3", "2^-1074")), "member"])
    def test_packed_pairs_match_reference(self, monkeypatch, tree, seed):
        # the sampled pairs measured on the packed draw bits give the
        # report of the loop that unpacked both draws, measured them with
        # _distances and dropped the same nodes, and of the float route on
        # an explicit copy; the last batch is not a multiple of 8 pairs
        space = NormedSpace(tree.ambient_dim, math.inf)
        structured = validate_tree(tree, space, sample_pairs=0, seed=seed)
        last = (13, 1003, 40_005, 7)[seed]
        pairs = structured.pairs_checked + seed * (1 << 16) + last
        rep = validate_tree(tree, space, sample_pairs=pairs, seed=seed)
        assert not rep.exhaustive_pairs
        assert rep == _reference_sampled(tree, space, structured, pairs, seed)
        monkeypatch.setattr(trees_mod.DyadicTree, "_int_rows",
                            lambda self, space, signs: None)
        assert validate_tree(tree.to_explicit(), space, sample_pairs=pairs,
                             seed=seed) == rep

    @pytest.mark.parametrize("tree", [
        build_sign_tree(11), build_sign_tree(16, scale=1 / 3),
        build_tree_family([3, 12], scale=0.5).trees[1],
        build_sign_tree(11).to_explicit()])
    def test_packed_draw_distances(self, tree):
        # per pair, the same node test and scale * values against the
        # unpacked signs: column equality and _distances, bit for bit
        space = NormedSpace(tree.ambient_dim, math.inf)
        rng, ref = (np.random.default_rng(7) for _ in range(2))
        for m in (1, 8, 13, 5000):
            a, b = (trees_mod._draw_packed(tree, rng, m) for _ in range(2))
            sa, sb = (trees_mod._draw_nodes(tree, ref, m) for _ in range(2))
            differ = trees_mod._differ(a, b)
            assert differ.shape == (m,) and set(differ.tolist()) <= {0, 1}
            same = (a[0] == b[0]) & (differ == 0)
            assert np.array_equal(same, (sa == sb).all(axis=0))
            values, scale = tree._draw_distances(space, a, b, differ)
            want = tree._distances(space, sa, sb)
            assert (scale * values).tobytes() == want.tobytes()
            assert (values.dtype == np.uint8) == (tree.nodes is None)
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_sign_route_counts_distinct_pairs(self):
        tree = build_sign_tree(SAMPLED_DEPTH, lead=True, scale=0.5)
        rep = validate_tree(tree, NormedSpace(tree.ambient_dim, math.inf),
                            sample_pairs=STRUCTURED_PAIRS + 50_000, seed=2)
        assert rep.pairs_checked == (STRUCTURED_PAIRS
                                     + _distinct_draws(tree, 2, 50_000))
        assert rep.min_separation == 0.5

    def test_benchmark_call_pinned(self):
        # the sampled depth-16 call of the tree-adversary benchmark
        rep = validate_tree(build_sign_tree(16), NormedSpace(16, math.inf),
                            seed=5)
        assert not rep.exhaustive_pairs
        assert rep.pairs_checked == 1_986_601
        assert rep.separation_pair == ("parent-child", 0, 0)
        assert rep.min_separation == 1.0
        assert rep.max_norm == 1.0
        assert rep.midpoint_exact and rep.separation_ok

    def test_draw_law(self):
        # member 1 of the family: lead coordinate 4, signs in 5..16
        tree = build_tree_family([3, 12], scale=0.5).trees[1]
        m = 20_000
        signs = trees_mod._draw_nodes(tree, np.random.default_rng(0), m)
        # the levels are the first draw from the generator
        ks = np.random.default_rng(0).integers(0, tree.depth + 1, size=m)
        assert set(ks.tolist()) == set(range(tree.depth + 1))
        assert signs.shape == (tree.depth, m)
        # +-1 on the first ks[j] coordinates of column j, 0 past them
        past = np.arange(tree.depth)[:, None] >= ks
        assert np.all(signs[past] == 0)
        assert set(np.unique(signs[~past]).tolist()) == {-1, 1}
        X = trees_mod._random_nodes(tree, np.random.default_rng(0), m)
        assert np.array_equal((X[:, 5:] != 0).sum(axis=1), ks)
        assert np.array_equal(X[:, 5:], 0.5 * signs.T)
        assert np.all(X[:, 4] == 0.5) and np.all(X[:, :4] == 0.0)

    def test_deep_tree_memory(self):
        # depth 20 once built every level whole (near 800 MB peak); streamed,
        # each block holds about _BLOCK doubles.  As in
        # test_deep_family_memory, a fresh interpreter runs the check in a
        # child and reports the child's peak.
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(deltaconvex.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        check = ("import math; import deltaconvex as dc; "
                 "rep = dc.validate_tree(dc.build_sign_tree(20), "
                 "dc.NormedSpace(20, math.inf)); "
                 "print(rep.midpoint_exact, rep.separation_ok)")
        probe = ("import resource, subprocess, sys; "
                 f"out = subprocess.run([sys.executable, '-c', {check!r}], "
                 "capture_output=True, text=True).stdout.strip(); "
                 "print(out or 'failed', resource.getrusage("
                 "resource.RUSAGE_CHILDREN).ru_maxrss)")
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=600)
        *report, peak_kib = proc.stdout.split()
        assert report == ["True", "True"], proc.stderr
        assert int(peak_kib) / 1024 < 150
