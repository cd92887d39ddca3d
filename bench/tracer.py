"""Span tracing of the deltaconvex public API from inside the benchmark
process.

The package is not modified: ``Tracer.install`` replaces every public
function named in a module's ``__all__`` (and every public method of the
public classes there) by a wrapper, in every module of the package that binds
it.  Private helpers are never wrapped.  A span is recorded only while an
operation is open, so set-up work is not traced.

A span is ``[name, start, end, parent, op, info]``: ``parent`` is the index
of the enclosing span (-1 for a root span) and ``op`` the operation id shared
by all spans of one operation.  ``info`` holds counts taken at the boundary
(rows, evaluations, pairs checked, ...).
"""

import dataclasses
import functools
import gzip
import inspect
import sys
import time

import numpy as np

MODULES = ("spaces", "functions", "regularize", "trees", "experiments", "cli")

# span name -> layer name used by the per-layer metrics
LAYER = {
    "spaces.NormedSpace.norm": "spaces.norm",
    "spaces.NormedSpace.defect_p": "spaces.defect_p",
    "spaces.modulus_of_convexity": "spaces.modulus_of_convexity",
    "regularize.regularize_power_grid": "regularize.grid",
    "regularize.inf_convolve_grid": "regularize.grid",
    "regularize.regularize_power": "regularize.point",
    "regularize.regularize_quadratic": "regularize.point",
    "regularize.inf_convolve": "regularize.point",
    "regularize.decompose.d": "regularize.decompose_d",
    "trees.build_tree_family": "trees.build_tree_family",
    "trees.validate_tree": "trees.validate_tree",
    "trees.adversarial_branch_walk": "trees.adversarial_branch_walk",
    "trees.load_tree": "trees.load_tree",
    "experiments.run_converge": "experiments.run_converge",
    "experiments.run_sandwich": "experiments.run_sandwich",
    "experiments.run_adversary": "experiments.run_adversary",
    "experiments.run_modulus": "experiments.run_modulus",
    "cli.main": "cli.main",
    "functions.eval": "functions.eval",
    "trees.counterexample": "trees.counterexample",
}

# (metric, unit) in the order they are reported; see per_layer()
PER_LAYER = (
    ("spaces.norm.calls", "count"), ("spaces.norm.rows", "count"),
    ("spaces.norm.self_s", "s"), ("spaces.norm.bytes_computed", "B"),
    ("spaces.defect_p.calls", "count"), ("spaces.defect_p.rows", "count"),
    ("spaces.defect_p.self_s", "s"),
    ("spaces.modulus_of_convexity.calls", "count"),
    ("spaces.modulus_of_convexity.self_s", "s"),
    ("functions.eval.calls", "count"), ("functions.eval.rows", "count"),
    ("functions.eval.self_s", "s"),
    ("regularize.grid.calls", "count"), ("regularize.grid.rows", "count"),
    ("regularize.grid.self_s", "s"),
    ("regularize.evals", "count"), ("regularize.evals_per_solve", "ratio"),
    ("regularize.nonconverged_calls", "count"),
    ("regularize.point.calls", "count"), ("regularize.point.self_s", "s"),
    ("regularize.decompose_d.calls", "count"),
    ("regularize.decompose_d.self_s", "s"),
    ("trees.build_tree_family.calls", "count"),
    ("trees.build_tree_family.self_s", "s"),
    ("trees.validate_tree.calls", "count"),
    ("trees.validate_tree.self_s", "s"),
    ("trees.validate_tree.pairs_per_s", "1/s"),
    ("trees.counterexample.rows", "count"),
    ("trees.counterexample.self_s", "s"),
    ("trees.adversarial_branch_walk.calls", "count"),
    ("trees.adversarial_branch_walk.self_s", "s"),
    ("trees.adversarial_branch_walk.levels", "count"),
    ("trees.load_tree.self_s", "s"),
    ("experiments.run_converge.calls", "count"),
    ("experiments.run_converge.self_s", "s"),
    ("experiments.run_converge.rows", "count"),
    ("experiments.run_sandwich.calls", "count"),
    ("experiments.run_sandwich.self_s", "s"),
    ("experiments.run_sandwich.rows", "count"),
    ("experiments.run_adversary.calls", "count"),
    ("experiments.run_adversary.self_s", "s"),
    ("experiments.run_adversary.rows", "count"),
    ("experiments.run_modulus.calls", "count"),
    ("experiments.run_modulus.self_s", "s"),
    ("experiments.run_modulus.rows", "count"),
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"),
    ("cli.csv_bytes", "B"),
    ("setup.import_s", "s"), ("setup.inputs_s", "s"),
    ("trace.spans", "count"), ("trace.wall_ratio", "ratio"),
)


def _rows(x):
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _norm_info(args, result):
    x = args[1]
    rows = _rows(x)
    # input rows plus one output value per row, float64
    return {"rows": rows, "bytes": 8 * (rows * np.shape(x)[-1] + rows)}


def _defect_info(args, result):
    return {"rows": max(_rows(args[2]), _rows(args[3]))}


def _eval_info(args, result):
    return {"rows": _rows(args[1])}


def _grid_info(args, result):
    vals, _, evals, converged, _ = result
    return {"rows": len(vals), "evals": int(evals),
            "converged": bool(converged)}


def _rows_info(args, result):
    return {"rows": len(result.rows)}


INFO = {
    "spaces.NormedSpace.norm": _norm_info,
    "spaces.NormedSpace.defect_p": _defect_info,
    "functions.LipschitzFunction.__call__": _eval_info,
    "regularize.regularize_power_grid": _grid_info,
    "regularize.inf_convolve_grid": _grid_info,
    "trees.validate_tree": lambda a, r: {"pairs": int(r.pairs_checked)},
    "trees.adversarial_branch_walk": lambda a, r: {"levels": len(r.levels)},
    "experiments.run_converge": _rows_info,
    "experiments.run_sandwich": _rows_info,
    "experiments.run_adversary": _rows_info,
    "experiments.run_modulus": _rows_info,
}


def _eval_name(args):
    # the tree counterexample is a LipschitzFunction too, but it belongs to
    # the trees layer
    if args[0].label == "tree-counterexample":
        return "trees.counterexample"
    return "functions.eval"


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    # -- recording --------------------------------------------------------

    def wrap(self, name, fn):
        """``fn`` recording one span per call while an operation is open.
        ``name`` is a string or a function of the call's arguments."""
        info = INFO.get(name)
        if name == "functions.LipschitzFunction.__call__":
            name = _eval_name
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name if isinstance(name, str) else name(args), 0.0, 0.0,
                    stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(args, result)
            return result

        return traced

    def _wrap_decompose(self, decompose):
        """``d`` of the returned pair is a closure, so it is wrapped per
        pair, also when the pair is built outside an operation."""
        @functools.wraps(decompose)
        def traced(*args, **kwargs):
            pair = decompose(*args, **kwargs)
            return dataclasses.replace(
                pair, d=self.wrap("regularize.decompose.d", pair.d))

        return traced

    def install(self, package):
        """Wrap the public API of ``package`` in place, rebinding every
        module-level name and module-level dict value that refers to a
        wrapped function (``from x import f`` copies, dispatch tables)."""
        replaced = {}
        for short in MODULES:
            mod = sys.modules[f"{package.__name__}.{short}"]
            public = getattr(mod, "__all__", None) or [
                n for n, v in vars(mod).items()
                if inspect.isfunction(v) and v.__module__ == mod.__name__
                and not n.startswith("_")]
            for attr in public:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj):
                    replaced[obj] = self.wrap(f"{short}.{attr}", obj)
                    if obj.__name__ == "decompose":
                        replaced[obj] = self._wrap_decompose(replaced[obj])
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(f"{short}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if name != package.__name__ and not name.startswith(
                    package.__name__ + "."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in replaced:
                    setattr(mod, attr, replaced[val])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if inspect.isfunction(v) and v in replaced:
                            val[k] = replaced[v]

    def _wrap_methods(self, prefix, cls):
        for attr, val in list(vars(cls).items()):
            if not inspect.isfunction(val) or inspect.isgeneratorfunction(val):
                continue
            if attr.startswith("_") and attr != "__call__":
                continue
            setattr(cls, attr, self.wrap(f"{prefix}.{attr}", val))

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """Per span, its length minus the time covered by its children.

        Spans of functions that feed no layer metric (``ball_grid``,
        ``DyadicTree.node``, ...) are transparent: their time stays with the
        nearest enclosing layer span, and the layer spans below them count as
        that span's children.  Calls nest on one thread, so children never
        overlap.  Transparent spans get a self time of 0.
        """
        covered = [0.0] * len(self.spans)
        owner = []  # nearest layer span at or above each span, -1 if none
        for i, (name, t0, t1, parent, op, info) in enumerate(self.spans):
            above = owner[parent] if parent >= 0 else -1
            if name in LAYER:
                if above >= 0:
                    covered[above] += t1 - t0
                owner.append(i)
            else:
                owner.append(above)
        return [s[2] - s[1] - c if s[0] in LAYER else 0.0
                for s, c in zip(self.spans, covered)]

    def ops_without_root(self, n_ops):
        rooted = {s[4] for s in self.spans if s[3] == -1}
        return [i for i in range(n_ops) if i not in rooted]

    def per_layer(self):
        """Aggregate the spans into the PER_LAYER metrics (except setup.*,
        trace.wall_ratio and cli.csv_bytes, which the caller measures)."""
        out = {m: 0 for m, _ in PER_LAYER}
        pairs = pair_time = 0.0
        selfs = self.self_times()
        for (name, t0, t1, parent, op, info), self_s in zip(self.spans,
                                                            selfs):
            layer = LAYER.get(name)
            if layer is None:
                continue
            if f"{layer}.self_s" in out:
                out[f"{layer}.self_s"] += self_s
            nested = (parent >= 0 and layer == "regularize.point"
                      and LAYER.get(self.spans[parent][0]) == layer)
            if f"{layer}.calls" in out and not nested:
                out[f"{layer}.calls"] += 1
            info = info or {}
            if f"{layer}.rows" in out:
                out[f"{layer}.rows"] += info.get("rows", 0)
            if layer == "spaces.norm":
                out["spaces.norm.bytes_computed"] += info["bytes"]
            elif layer == "regularize.grid":
                out["regularize.evals"] += info["evals"]
                out["regularize.nonconverged_calls"] += not info["converged"]
            elif layer == "trees.validate_tree":
                pairs += info["pairs"]
                pair_time += t1 - t0
            elif layer == "trees.adversarial_branch_walk":
                out["trees.adversarial_branch_walk.levels"] += info["levels"]
        if out["regularize.grid.rows"]:
            out["regularize.evals_per_solve"] = (
                out["regularize.evals"] / out["regularize.grid.rows"])
        if pair_time:
            out["trees.validate_tree.pairs_per_s"] = pairs / pair_time
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path):
        """All spans as gzip'd CSV: id,name,start_s,end_s,parent,op."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start_s,end_s,parent,op\n")
            for i, (name, t0, t1, parent, op, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0:.9f},{t1:.9f},{parent},{op}\n")
