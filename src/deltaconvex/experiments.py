"""Experiment runners behind the CLI: convergence-rate sweeps, the
three-way sandwich, the tree adversary, and modulus bracketing.  Each
runner consumes a resolved ExperimentConfig and returns deterministic
ResultRow lists plus any bound violations."""

import math
from dataclasses import dataclass, field

import numpy as np

from .spaces import (NormedSpace, analytic_power_constant,
                     modulus_of_convexity)
from .functions import LipschitzFunction, corpus_function, CORPUS_LABELS
from .regularize import (_GRID_MAX_DIM, SolverConfig, ball_grid,
                         inf_convolve_grid, rate_bound,
                         regularize_power_grid)
from . import trees as _trees

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ResultRow",
    "ExperimentResult",
    "run_converge",
    "run_sandwich",
    "run_adversary",
    "run_modulus",
    "convex_pair_catalog",
]


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field name."""

    def __init__(self, field_name, message):
        super().__init__(f"config field {field_name!r}: {message}")
        self.field_name = field_name


def _finite_real(raw):
    """float(raw), refusing nan and +-inf: nan slips past every ordered
    check, and inf fails deep inside a solve."""
    val = float(raw)
    if not math.isfinite(val):
        raise ValueError(raw)
    return val


@dataclass
class ExperimentConfig:
    """Flat key -> string configuration with typed, defaulted accessors.

    Every key that an experiment reads is recorded with its final value, so
    the CSV header can echo the fully resolved configuration."""
    values: dict = field(default_factory=dict)
    resolved: dict = field(default_factory=dict)

    @classmethod
    def from_sources(cls, path=None, overrides=(), seed=None):
        values = {}
        if path is not None:
            with open(path) as fh:
                for lineno, line in enumerate(fh, 1):
                    line = line.split("#", 1)[0].strip()
                    if not line:
                        continue
                    if "=" not in line:
                        raise ConfigError(
                            f"{path}:{lineno}",
                            f"expected 'key = value', got {line!r}")
                    k, v = line.split("=", 1)
                    values[k.strip()] = v.strip()
        for item in overrides:
            if "=" not in item:
                raise ConfigError("--set", f"expected K=V, got {item!r}")
            k, v = item.split("=", 1)
            values[k.strip()] = v.strip()
        if seed is not None:
            values["seed"] = str(seed)
        return cls(values=values)

    def _get(self, key, default, cast, kind):
        raw = self.values.get(key)
        if raw is None:
            val = default
        else:
            try:
                val = cast(raw)
            except (TypeError, ValueError):
                raise ConfigError(key, f"cannot parse {raw!r} as {kind}")
        self.resolved[key] = val
        return val

    def get_int(self, key, default):
        return self._get(key, default, int, "integer")

    def get_float(self, key, default):
        return self._get(key, default, _finite_real, "finite real")

    def get_str(self, key, default):
        return self._get(key, default, str, "text")

    def get_float_list(self, key, default):
        def cast(raw):
            return [_finite_real(t) for t in raw.replace(",", " ").split()]
        return self._get(key, list(default), cast, "list of finite reals")

    def get_int_list(self, key, default):
        def cast(raw):
            return [int(t) for t in raw.replace(",", " ").split()]
        return self._get(key, list(default), cast, "list of integers")

    def unknown_keys(self):
        return sorted(set(self.values) - set(self.resolved))

    def solver(self):
        kw = dict(
            coarse_samples=self.get_int("coarse_samples", 512),
            refine_iterations=self.get_int("refine_iterations", 80),
            tolerance=self.get_float("tolerance", 1e-6),
            seed=_seed(self),
            starts=self.get_int("starts", 3),
        )
        try:
            return SolverConfig(**kw)
        except ValueError as exc:
            # SolverConfig's messages open with the offending field's name
            raise ConfigError(str(exc).split()[0], str(exc)) from None


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    space: str
    function: str
    lam: float
    measured: float
    bound: float
    slack: float
    evaluations: int
    runtime_ms: int
    seed: int

    def __post_init__(self):
        for name in ("lam", "measured", "bound", "slack"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite {name} in result row")


@dataclass
class ExperimentResult:
    rows: list
    violations: list
    warnings: list = field(default_factory=list)

    @property
    def exit_code(self):
        return 1 if self.violations else 0


def _seed(cfg):
    seed = cfg.get_int("seed", 0)
    if seed < 0:
        raise ConfigError("seed", f"must be >= 0, got {seed}")
    return seed


def _space(cfg):
    dim = cfg.get_int("dim", 2)
    p_raw = cfg.get_str("p", "2.0")
    try:
        p = math.inf if p_raw in ("inf", "oo") else float(p_raw)
        space = NormedSpace(dim=dim, p_exponent=p)
    except ValueError as exc:
        raise ConfigError("p" if "exponent" in str(exc) else "dim", str(exc))
    return space


def _function(cfg, space):
    label = cfg.get_str("function", "norm")
    if label not in CORPUS_LABELS:
        raise ConfigError(
            "function", f"{label!r} not in corpus {sorted(CORPUS_LABELS)}")
    return corpus_function(space, label)


def _region(cfg, space):
    if space.dim > _GRID_MAX_DIM:
        raise ConfigError("dim", f"grid runners take dim <= {_GRID_MAX_DIM}, "
                          f"got {space.dim}")
    radius = cfg.get_float("radius", 1.0)
    if radius <= 0:
        raise ConfigError("radius", "must be positive")
    grid = cfg.get_int("grid", 21 if space.dim <= 2 else 9)
    if grid < 2:
        raise ConfigError("grid", "must be >= 2")
    return np.zeros(space.dim), radius, grid


def _power(cfg, space, default):
    """The ``power`` key, at least 2, and Clarkson's C = 1 there, behind
    both the rate bound and the lower sandwich inequality; C is proven only
    on l_q with 2 <= q <= power, q finite, and on every l_q in dimension 1,
    and other spaces are refused."""
    power = cfg.get_float("power", default)
    if power < 2.0:
        raise ConfigError("power", "must be >= 2")
    C = analytic_power_constant(space, power)
    if C is None:
        raise ConfigError(
            "power", f"no proven bound on {space.describe()} at power "
            f"{power:g}; it needs l_q with 2 <= q <= power, q finite, "
            "or dimension 1")
    return power, C


def _lambdas(cfg, default):
    lams = cfg.get_float_list("lambdas", default)
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ConfigError("lambdas", "schedule must be strictly increasing")
    if not lams or lams[0] <= 0:
        raise ConfigError("lambdas", "schedule must be positive, nonempty")
    return lams


def _sweep(experiment, space, f, lams, region, solver, power, operators,
           measure):
    """The lambda loop of the grid runners.  At each lambda every grid
    operator in ``operators`` runs at ``power`` on the ball grid of
    ``region``; one warning names, in call order, those that did not
    converge.  ``measure(lam, fX, values, state)`` gets f on the grid, the
    operators' values and what it returned as state at the previous lambda
    (None at the first), and returns (measured, bound, messages, state);
    each message becomes a violation prefixed with the lambda."""
    X = ball_grid(space, *region)
    fX = np.asarray(f(X), dtype=float)
    rows, violations, warnings = [], [], []
    state = None
    for lam in lams:
        vals, _, evals, conv, _ = zip(*[op(f, power, lam, X, space, solver)
                                        for op in operators])
        failed = [op.__name__ for op, ok in zip(operators, conv) if not ok]
        if failed:
            warnings.append(f"{experiment} lambda={lam:g}: "
                            f"{', '.join(failed)} did not converge")
        measured, bound, messages, state = measure(lam, fX, vals, state)
        rows.append(ResultRow(
            experiment=experiment, space=space.describe(), function=f.label,
            lam=lam, measured=measured, bound=bound, slack=bound - measured,
            evaluations=int(sum(evals)), runtime_ms=0, seed=solver.seed))
        violations += [f"lambda={lam:g}: {m}" for m in messages]
    return ExperimentResult(rows=rows, violations=violations,
                            warnings=warnings)


def run_converge(cfg):
    """Rate sweep: sup grid |f - f_lambda^p| against the analytic guarantee
    (L/(lambda C))^(1/(p-1)) with Clarkson C = 1, which is proven only on
    l_q with 2 <= q <= power and in dimension 1; other spaces are
    refused."""
    space = _space(cfg)
    f = _function(cfg, space)
    power, C = _power(cfg, space, max(2.0, min(space.p_exponent, 8.0)
                                      if space.p_exponent != math.inf
                                      else 2.0))
    lams = _lambdas(cfg, [16.0, 64.0, 256.0])
    region = _region(cfg, space)
    tol = cfg.get_float("bound_slack", 1e-4)
    solver = cfg.solver()

    def measure(lam, fX, vals, prev):
        measured = float(np.abs(fX - vals[0]).max())
        bound = rate_bound(power, C, lam, f.lipschitz_constant)
        messages = []
        if measured > bound + tol:
            messages.append(f"measured {measured:.6g} exceeds bound "
                            f"{bound:.6g} + {tol:g}")
        if prev is not None and measured > prev + 2.0 * solver.tolerance:
            messages.append(f"error not non-increasing "
                            f"({measured:.6g} > {prev:.6g})")
        return measured, bound, messages, measured

    return _sweep("converge", space, f, lams, region, solver, power,
                  [regularize_power_grid], measure)


def run_sandwich(cfg):
    """Three-way check inf_convolve(p, lambda*C) <= f_lambda^p <= f on the
    grid, with Clarkson's C = 1, reported as the worst one-sided violation;
    spaces where C is not proven are refused."""
    space = _space(cfg)
    f = _function(cfg, space)
    power, _ = _power(cfg, space, 2.0)
    lams = _lambdas(cfg, [4.0, 16.0, 64.0])
    region = _region(cfg, space)
    solver = cfg.solver()
    bound = 2.0 * solver.tolerance

    def measure(lam, fX, vals, prev):
        env, infc = vals
        low = float(np.max(infc - env, initial=0.0))
        high = float(np.max(env - fX, initial=0.0))
        mono = 0.0
        if prev is not None:
            mono = float(np.max(prev - env, initial=0.0))
        measured = max(low, high, mono, 0.0)
        messages = []
        if measured > bound:
            messages.append(f"sandwich violated by {measured:.6g}")
        return measured, bound, messages, env

    return _sweep("sandwich", space, f, lams, region, solver, power,
                  [regularize_power_grid, inf_convolve_grid], measure)


def convex_pair_catalog(space):
    """Built-in convex (c, d) test pairs with |c| <= M on the unit ball."""
    def zero(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1]) if x.ndim > 1 else 0.0

    def sup_quad(x):
        return space.norm(np.asarray(x, dtype=float)) ** 2

    def half_quad(x):
        return 0.5 * space.norm(np.asarray(x, dtype=float)) ** 2

    def max_affine(x):
        x = np.asarray(x, dtype=float)
        x0 = x[..., 0]
        # a running maximum over the pieces: no (pieces, rows) block
        out = np.atleast_1d(np.maximum(x0, -x0))
        np.maximum(out, 0.5 * x[..., 1] + 0.25, out=out)
        return out if x.ndim > 1 else out[0]

    return [
        ("zero", zero, zero, 0.0),
        ("sup-quad", sup_quad, zero, 1.0),
        ("half-quad", half_quad, zero, 0.5),
        ("max-affine", max_affine, zero, 1.0),
    ]


def _tree_error_nodes(tree, rng, deep_samples=2048):
    """Node arrays used to measure the sup error: full levels up to 10 plus
    a deterministic random sample of deeper nodes."""
    nodes = _trees._heap_nodes(tree, 11)
    if tree.depth <= 10:
        return nodes
    return np.vstack([nodes, _trees._random_nodes(tree, rng, deep_samples)])


def run_adversary(cfg):
    """Finite-depth lower bound: for each catalog pair and tree depth, the
    measured sup node error must reach max(0, theta/4 - 2M/n), and the
    branch walk's growth guarantee must hold at the observed gap level."""
    depths = cfg.get_int_list("depths", [8, 16, 32])
    if not depths:
        raise ConfigError("depths", "needs at least one depth")
    for n in depths:
        if n < 2 or n % 2 != 0:
            raise ConfigError("depths", f"depths must be even, >= 2; got {n}")
    scale = cfg.get_float("theta", 1.0)
    if not 0.0 < scale <= 1.0:
        raise ConfigError("theta", "must lie in (0, 1]")
    seed = _seed(cfg)
    deep_samples = cfg.get_int("deep_samples", 2048)
    if deep_samples < 0:
        raise ConfigError("deep_samples", f"must be >= 0, got {deep_samples}")

    family = _trees.build_tree_family(depths, scale=scale)
    space = NormedSpace(dim=family.ambient_dim, p_exponent=math.inf)
    f = _trees.counterexample_function(family, space)
    catalog = convex_pair_catalog(space)

    # every catalog pair is measured on the same nodes of a tree
    error_nodes = []
    for tree in family.trees:
        rng = np.random.default_rng(seed + tree.depth)
        nodes = _tree_error_nodes(tree, rng, deep_samples)
        error_nodes.append((nodes, np.asarray(f(nodes), dtype=float)))

    rows, violations = [], []
    for name, c, d, M in catalog:
        for tree, (nodes, f_nodes) in zip(family.trees, error_nodes):
            n = tree.depth
            gaps = np.abs(f_nodes - (np.asarray(c(nodes), dtype=float)
                                     - np.asarray(d(nodes), dtype=float)))
            report = _trees.adversarial_branch_walk(c, d, tree, f, delta=0.0)
            measured = float(max(gaps.max(), report.max_gap))
            bound = _trees.error_lower_bound(M, tree.theta, n)
            evals = nodes.shape[0] + len(report.levels)
            rows.append(ResultRow(
                experiment="adversary", space=space.describe(),
                function=f"{name}", lam=float(n), measured=measured,
                bound=bound, slack=measured - bound,
                evaluations=int(evals), runtime_ms=0, seed=seed))
            if measured < bound - 1e-9:
                violations.append(
                    f"pair {name}, depth {n}: measured {measured:.6g} below "
                    f"bound {bound:.6g}")
            # walk soundness at the observed gap level on the visited branch
            delta_hat = report.max_gap
            need = _trees._walk_guarantee(tree.theta, delta_hat, n)
            if report.total_c_growth < need - 1e-9:
                violations.append(
                    f"pair {name}, depth {n}: walk growth "
                    f"{report.total_c_growth:.6g} below guaranteed "
                    f"{need:.6g}")
    return ExperimentResult(rows=rows, violations=violations)


def run_modulus(cfg):
    """Modulus-of-convexity brackets over an epsilon schedule: ``bound`` is
    the theorem value of delta(eps) and ``measured`` is 1 - |(x+y)/2| at one
    explicit witness pair, both from ``modulus_of_convexity`` and rounded
    outward.  A row with measured below bound is a violation.  The key
    ``samples`` is still read and echoed but has no effect; ``seed`` is
    validated and echoed and changes nothing else."""
    space = _space(cfg)
    epsilons = cfg.get_float_list("epsilons", [0.5, 1.0, 1.5])
    if not epsilons:
        raise ConfigError("epsilons", "needs at least one epsilon")
    for e in epsilons:
        if not 0.0 < e <= 2.0:
            raise ConfigError("epsilons", f"epsilon {e:g} outside (0, 2]")
    cfg.get_int("samples", 4096)
    seed = _seed(cfg)
    rows, violations = [], []
    for eps in epsilons:
        est = modulus_of_convexity(space, eps)
        rows.append(ResultRow(
            experiment="modulus", space=space.describe(),
            function=f"eps={eps:g}", lam=eps, measured=est.upper,
            bound=est.lower, slack=est.upper - est.lower, evaluations=1,
            runtime_ms=0, seed=seed))
        if est.upper < est.lower:
            violations.append(
                f"epsilon={eps:g}: witness value {est.upper:.6g} below "
                f"the theorem value {est.lower:.6g}")
    return ExperimentResult(rows=rows, violations=violations)
