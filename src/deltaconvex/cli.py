"""Command-line driver.

Subcommands: converge, sandwich, adversary, modulus, validate-tree.
Results go to CSV with the fully resolved configuration echoed as
'# key=value' header comments; identical config and seed produce
byte-identical output.  Exit codes: 0 success, 1 a measured value violated
its bound, 2 configuration error or a solve that failed (``SolverError``).
"""

import argparse
import functools
import math
import sys
import time

from . import experiments as _exp
from . import trees as _trees
from .regularize import ParameterError, SolverError
from .spaces import NormedSpace

CSV_HEADER = ("experiment,space,function,lambda,measured,bound,slack,"
              "evaluations,runtime_ms,seed")

_RUNNERS = {
    "converge": _exp.run_converge,
    "sandwich": _exp.run_sandwich,
    "adversary": _exp.run_adversary,
    "modulus": _exp.run_modulus,
}


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def format_rows(rows, resolved):
    lines = [f"# {k}={_fmt(v)}" for k, v in sorted(resolved.items())]
    lines.append(CSV_HEADER)
    for r in rows:
        lines.append(",".join([
            r.experiment, r.space, r.function, _fmt(r.lam), _fmt(r.measured),
            _fmt(r.bound), _fmt(r.slack), str(r.evaluations),
            str(r.runtime_ms), str(r.seed)]))
    return "\n".join(lines) + "\n"


def _emit(text, out_path):
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _run_experiment(name, args):
    try:
        cfg = _exp.ExperimentConfig.from_sources(
            path=args.config, overrides=args.set or (), seed=args.seed)
        t0 = time.perf_counter()
        result = _RUNNERS[name](cfg)
        elapsed_ms = int(round((time.perf_counter() - t0) * 1000.0))
    except (_exp.ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    rows = result.rows
    if args.timing and rows:
        # wall time attributed to the last row; omitted by default so that
        # repeat runs stay byte-identical
        import dataclasses
        rows = rows[:-1] + [dataclasses.replace(rows[-1],
                                                runtime_ms=elapsed_ms)]
    _emit(format_rows(rows, cfg.resolved), args.out)
    for msg in result.warnings:
        print(f"warning: {msg}", file=sys.stderr)
    for msg in result.violations:
        print(f"bound violation: {msg}", file=sys.stderr)
    return result.exit_code


def _pair_text(pair):
    """The kind and place of a ``validate_tree`` separation pair."""
    kind = pair[0]
    if kind == "sampled":
        return f"sampled pair {pair[1]}"
    if kind in ("parent-child", "siblings"):
        return f"{kind} pair (level {pair[1]}, index {pair[2]})"
    return f"node pair {pair} (rows in level order)"


def _run_validate_tree(args):
    try:
        tree = _trees.load_tree(args.tree)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    space = NormedSpace(dim=tree.ambient_dim, p_exponent=math.inf)
    report = _trees.validate_tree(tree, space)
    ok = report.midpoint_exact and report.separation_ok
    print(f"depth={tree.depth} nodes={tree.node_count} "
          f"theta={tree.theta:g}")
    print(f"midpoint_exact={report.midpoint_exact} "
          f"worst_gap={report.worst_midpoint_gap:.3g}")
    print(f"min_separation={report.min_separation:.17g} "
          f"separation_ok={report.separation_ok} "
          f"pairs_checked={report.pairs_checked} "
          f"exhaustive={report.exhaustive_pairs}")
    if not ok:
        if report.midpoint_violation is not None:
            print(f"midpoint violated at node {report.midpoint_violation}",
                  file=sys.stderr)
        if not report.separation_ok:
            print(f"separation {report.min_separation:.6g} below theta "
                  f"{tree.theta:g} at {_pair_text(report.separation_pair)}",
                  file=sys.stderr)
    return 0 if ok else 1


@functools.cache
def build_parser():
    """The argument parser, built once per process: ``parse_args`` keeps
    no state between calls (each returns a new namespace, and ``--set``
    starts a new list), so ``main`` can reuse it."""
    parser = argparse.ArgumentParser(
        prog="deltaconvex",
        description="Regularization and tree-adversary experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="key = value config file")
        p.add_argument("--out", default=None, help="CSV path (default stdout)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--set", action="append", metavar="K=V",
                       help="override a config key")
        p.add_argument("--timing", action="store_true",
                       help="record wall time in runtime_ms (breaks "
                            "byte-identical reruns)")
    pv = sub.add_parser("validate-tree")
    pv.add_argument("tree", help="tree file to validate")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "validate-tree":
        return _run_validate_tree(args)
    return _run_experiment(args.command, args)


if __name__ == "__main__":
    sys.exit(main())
