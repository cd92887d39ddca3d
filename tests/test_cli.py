import argparse
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import deltaconvex
from deltaconvex import (ExperimentConfig, NormedSpace, SolverConfig,
                         ball_grid, build_sign_tree, corpus_function,
                         inf_convolve_grid, rate_bound, regularize_power_grid,
                         run_converge, run_sandwich, save_tree)
from deltaconvex import cli, experiments, trees
from deltaconvex.cli import CSV_HEADER, main

FAST_CONVERGE = ["--set", "dim=1", "--set", "grid=9",
                 "--set", "lambdas=16,64", "--set", "coarse_samples=64"]


def run(tmp_path, argv, name="out.csv"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


class TestSubcommands:
    def test_converge(self, tmp_path):
        code, data = run(tmp_path, ["converge"] + FAST_CONVERGE)
        assert code == 0
        text = data.decode()
        assert CSV_HEADER in text
        assert "# dim=1" in text
        assert text.count("\nconverge,") == 2

    def test_sandwich(self, tmp_path):
        code, data = run(tmp_path, [
            "sandwich", "--set", "dim=1", "--set", "grid=9",
            "--set", "lambdas=4,16", "--set", "coarse_samples=64"])
        assert code == 0
        assert data.count(b"\nsandwich,") == 2

    def test_adversary(self, tmp_path):
        code, data = run(tmp_path, [
            "adversary", "--set", "depths=4,8", "--set", "deep_samples=16"])
        assert code == 0
        assert data.count(b"\nadversary,") == 8  # 4 pairs x 2 depths

    def test_modulus(self, tmp_path):
        code, data = run(tmp_path, [
            "modulus", "--set", "p=2", "--set", "epsilons=1",
            "--set", "samples=512"])
        assert code == 0
        assert b"eps=1" in data


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["converge"] + FAST_CONVERGE,
        ["sandwich", "--set", "dim=1", "--set", "grid=9",
         "--set", "lambdas=4,16", "--set", "coarse_samples=64"],
    ], ids=lambda argv: argv[0])
    def test_byte_identical_reruns(self, tmp_path, argv):
        _, a = run(tmp_path, argv, "a.csv")
        _, b = run(tmp_path, argv, "b.csv")
        assert a == b and a

    def test_seed_changes_output_not_schema(self, tmp_path):
        _, a = run(tmp_path, ["modulus", "--seed", "1",
                              "--set", "samples=512"], "a.csv")
        _, b = run(tmp_path, ["modulus", "--seed", "2",
                              "--set", "samples=512"], "b.csv")
        assert a != b
        assert b"# seed=1" in a and b"# seed=2" in b

    def test_timing_flag_fills_runtime(self, tmp_path):
        code, data = run(tmp_path, ["modulus", "--set", "samples=512",
                                    "--set", "epsilons=1", "--timing"])
        assert code == 0
        last = data.decode().strip().splitlines()[-1].split(",")
        assert last[-2].isdigit()


class TestParser:
    def test_built_once_without_shared_state(self, tmp_path):
        # main reuses one parser: a second call's --set list starts empty
        assert cli.build_parser() is cli.build_parser()
        _, a = run(tmp_path, ["modulus", "--set", "dim=3", "--set", "p=4",
                              "--set", "epsilons=1"], "a.csv")
        _, b = run(tmp_path, ["modulus", "--set", "epsilons=0.5"], "b.csv")
        assert b"# dim=3\n" in a and b"# p=4\n" in a
        assert b"# dim=2\n" in b and b"# p=2.0\n" in b
        assert b"# epsilons=[0.5]\n" in b
        assert cli.build_parser().parse_args(["modulus"]).set is None


class TestDocumentedSubcommands:
    """cli's module docstring and README's CLI command block name exactly
    the parser's subcommands, in its order."""

    def _parser_commands(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        return list(sub.choices)

    def test_module_docstring(self):
        listed = re.search(r"Subcommands: ([^.]*)\.", cli.__doc__).group(1)
        assert [c.strip() for c in listed.split(",")] == (
            self._parser_commands())

    def test_readme_command_block(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir,
                              "README.md")
        with open(readme) as fh:
            section = fh.read().split("\n## CLI\n", 1)[1]
        block = section.split("```\n", 2)[1]
        assert [ln.split()[1] for ln in block.splitlines()
                if ln.startswith("deltaconvex ")] == self._parser_commands()


def _documented_keys(readme_text):
    """subcommand -> sorted keys, from README's ``- `name`: k, k`` lines
    in its CLI section."""
    section = readme_text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return {m.group(1): sorted(k.strip() for k in m.group(2).split(","))
            for m in re.finditer(r"^- `([a-z-]+)`: (.+)$", section, re.M)}


class _Resolved(Exception):
    pass


class TestDocumentedKeys:
    """README lists, per subcommand, exactly the keys its runner reads."""

    def _runner_keys(self, monkeypatch):
        # the resolved keys at the unknown-key check, before any work
        def record(cfg):
            raise _Resolved(sorted(cfg.resolved))

        monkeypatch.setattr(ExperimentConfig, "reject_unknown", record)
        keys = {}
        for name, runner in cli._RUNNERS.items():
            with pytest.raises(_Resolved) as exc:
                runner(ExperimentConfig())
            keys[name] = exc.value.args[0]
        return keys

    def test_readme_lists_each_runners_keys(self, monkeypatch):
        readme = os.path.join(os.path.dirname(__file__), os.pardir,
                              "README.md")
        with open(readme) as fh:
            text = fh.read()
        keys = self._runner_keys(monkeypatch)
        assert _documented_keys(text) == keys
        # a copy with one key dropped fails the comparison
        dropped = text.replace(", bound_slack,", ",", 1)
        assert dropped != text
        assert _documented_keys(dropped) != keys


class TestReadAfterCheck:
    """After ``reject_unknown`` no key can be read: a read there would
    escape the unknown-key check."""

    @pytest.mark.parametrize("runner,values", [
        (experiments.run_converge, {"dim": "1", "grid": "5",
                                    "lambdas": "16", "coarse_samples": "16"}),
        (experiments.run_sandwich, {"dim": "1", "grid": "5",
                                    "lambdas": "16", "coarse_samples": "16"}),
        (experiments.run_adversary, {"depths": "4", "deep_samples": "4"}),
        (experiments.run_modulus, {"epsilons": "1"}),
    ], ids=lambda v: getattr(v, "__name__", ""))
    def test_runner_refuses_a_later_read(self, runner, values):
        cfg = ExperimentConfig(values=dict(values))
        assert runner(cfg).violations == []
        for read in (lambda: cfg.get_int("seed", 0),
                     lambda: cfg.get_str("p", "2.0"),
                     lambda: cfg.get_float("unread", 1.0),
                     cfg.solver):
            with pytest.raises(RuntimeError, match="after the unknown-key"):
                read()

    def test_not_a_settable_field(self):
        with pytest.raises(TypeError):
            ExperimentConfig(values={}, checked=True)


class TestExitCodes:
    @pytest.mark.parametrize("argv,field", [
        (["modulus", "--set", "p=1e308"], "'p'"),
        (["converge", "--set", "power=1e308"], "power must be"),
        (["converge", "--set", "p=2000", "--set", "power=2000"], "'p'"),
    ], ids=["modulus-p", "converge-power", "converge-p-and-power"])
    def test_overflowing_exponent(self, tmp_path, capsys, argv, field):
        # 2^(p-1) overflows a double from 1025 on: a config error, not a
        # traceback with the bound-violation code
        code, data = run(tmp_path, argv)
        err = capsys.readouterr().err
        assert code == 2 and data == b""
        assert err.startswith("config error") and "overflows" in err
        assert field in err and "Traceback" not in err

    def test_unknown_key(self, tmp_path):
        code, _ = run(tmp_path, ["converge", "--set", "lambda_sched=4"])
        assert code == 2

    @pytest.mark.parametrize("runner", ["converge", "sandwich", "adversary",
                                        "modulus"])
    def test_unknown_key_before_any_work(self, tmp_path, capsys, monkeypatch,
                                         runner):
        # no solve, tree build or modulus call runs before an unknown key
        # exits 2
        called = []

        def spy(*args, **kwargs):
            called.append(args)
            raise AssertionError("work before the unknown key")

        for owner, name in ((experiments, "regularize_power_grid"),
                            (experiments, "inf_convolve_grid"),
                            (trees, "build_tree_family"),
                            (experiments, "modulus_of_convexity")):
            monkeypatch.setattr(owner, name, spy)
        code, data = run(tmp_path, [runner, "--set", "lambda_sched=4"])
        assert code == 2 and data == b"" and called == []
        assert ("config field 'lambda_sched': unknown key"
                in capsys.readouterr().err)
        # the spies do catch the runner's work when no key is unknown
        with pytest.raises(AssertionError, match="unknown key"):
            main([runner])
        assert len(called) == 1

    @pytest.mark.parametrize("runner", ["converge", "sandwich"])
    def test_empty_grid(self, tmp_path, capsys, runner):
        # two points per axis keep no point of the l_2 ball: a config
        # error (exit 2), not a bound violation (exit 1)
        code, data = run(tmp_path, [runner, "--set", "grid=2"])
        assert code == 2
        assert data == b""
        assert "config field 'grid'" in capsys.readouterr().err

    def test_solver_error_exits_two(self, tmp_path, capsys):
        # at lambda 1e-300 the search ball's Q overflows to a non-finite
        # value: one stderr line and exit 2, not a traceback with the
        # bound-violation code, and no CSV
        code, data = run(tmp_path, ["converge", "--set", "lambdas=1e-300",
                                    "--set", "grid=3"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2 and data == b""
        assert len(err) == 1
        assert err[0].startswith("solver error: objective returned a "
                                 "non-finite value")

    def test_removed_subcommand(self, capsys):
        # the deleted subcommand is refused like any unknown command
        with pytest.raises(SystemExit) as exc:
            main(["hilbert-equiv"])
        assert exc.value.code == 2
        assert "invalid choice: 'hilbert-equiv'" in capsys.readouterr().err

    def test_modulus_refine_is_unknown(self, tmp_path, capsys):
        code, data = run(tmp_path, ["modulus", "--set", "refine=1"])
        assert code == 2
        assert data == b""
        assert "config field 'refine'" in capsys.readouterr().err

    def test_modulus_still_reads_samples(self, tmp_path):
        code, data = run(tmp_path, ["modulus", "--set", "samples=1024"])
        assert code == 0
        assert b"# samples=1024\n" in data

    def test_unparseable_value(self, tmp_path):
        code, _ = run(tmp_path, ["converge", "--set", "grid=soon"])
        assert code == 2

    @pytest.mark.parametrize("runner", ["converge", "sandwich"])
    def test_grid_dimension_limit(self, tmp_path, capsys, runner):
        # ball_grid covers dimension <= 4; beyond it the runners exit 2
        # with a config error (exit 1 is for bound violations)
        code, data = run(tmp_path, [runner, "--set", "dim=5"])
        assert code == 2
        assert data == b""
        assert "config error: config field 'dim'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["adversary", "--set", "depths="],
                                      ["modulus", "--set", "epsilons="]],
                             ids=["adversary-depths", "modulus-epsilons"])
    def test_empty_schedule(self, tmp_path, capsys, argv):
        # an empty list once ended adversary in a ValueError traceback
        # (exit 1) and ran modulus with no rows (exit 0)
        code, data = run(tmp_path, argv)
        assert code == 2
        assert data == b""
        key = argv[-1].split("=")[0]
        assert f"config field {key!r}" in capsys.readouterr().err

    def test_non_monotone_schedule(self, tmp_path):
        code, _ = run(tmp_path, ["converge", "--set", "lambdas=64,16"])
        assert code == 2

    @pytest.mark.parametrize("setting", ["coarse_samples=0", "starts=0",
                                         "tolerance=0",
                                         "refine_iterations=-1"])
    def test_bad_solver_setting(self, tmp_path, capsys, setting):
        code, data = run(tmp_path, ["converge", "--set", "dim=1",
                                    "--set", "grid=5", "--set", setting])
        assert code == 2
        assert data == b""
        key = setting.split("=")[0]
        assert f"config field {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [
        "bound_slack=nan", "tolerance=inf", "lambdas=16,inf", "lambdas=nan",
        "radius=inf", "power=inf"])
    def test_non_finite_real(self, tmp_path, capsys, setting):
        # nan passes every ordered check (bound_slack=nan would switch the
        # rate check off), and inf fails inside a solve
        code, data = run(tmp_path, ["converge", "--set", "grid=5",
                                    "--set", setting])
        assert code == 2
        assert data == b""
        key = setting.split("=")[0]
        assert f"config field {key!r}" in capsys.readouterr().err

    def test_malformed_config_file(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("dim: 2\n")
        code, _ = run(tmp_path, ["converge", "--config", str(cfgfile)])
        assert code == 2

    def test_config_file_plus_override(self, tmp_path):
        cfgfile = tmp_path / "ok.cfg"
        cfgfile.write_text("# comment\ndim = 1\ngrid = 9\n"
                           "lambdas = 16,64\ncoarse_samples = 64\n")
        out = tmp_path / "out.csv"
        code = main(["converge", "--config", str(cfgfile),
                     "--set", "grid=5", "--out", str(out)])
        assert code == 0
        assert "# grid=5" in out.read_text()

    @pytest.mark.parametrize("space", [
        ["--set", "p=inf"],
        ["--set", "p=1"],
        ["--set", "p=3", "--set", "power=2"],
    ])
    def test_converge_refuses_unproven_bound(self, tmp_path, space):
        code, data = run(tmp_path, ["converge"] + FAST_CONVERGE + space
                         + ["--set", "dim=2"])
        assert code == 2
        assert data == b""

    @pytest.mark.parametrize("space", [
        ["--set", "p=inf"],
        ["--set", "p=1"],
        ["--set", "p=3", "--set", "power=2"],
    ])
    def test_converge_dimension_one_runs(self, tmp_path, space):
        # every l_q norm is |x| in dimension 1, where C = 1 at every power
        code, data = run(tmp_path, ["converge"] + FAST_CONVERGE + space)
        assert code == 0
        assert data.count(b"\nconverge,") == 2

    def test_converge_lq_power_runs(self, tmp_path):
        code, data = run(tmp_path, ["converge"] + FAST_CONVERGE
                         + ["--set", "p=4", "--set", "power=4"])
        assert code == 0
        assert data.count(b"\nconverge,") == 2

    def test_bound_violation_exits_one(self, tmp_path):
        # a negative slack allowance turns any honest run into a failure
        code, data = run(tmp_path, ["converge"] + FAST_CONVERGE
                         + ["--set", "bound_slack=-1"])
        assert code == 1
        assert data  # rows are still emitted

    @pytest.mark.parametrize("space", ["p=1", "p=inf"])
    def test_sub_threshold_lambda(self, tmp_path, capsys, space):
        # no Clarkson constant on l_1 or l_inf: the sandwich's lower
        # inequality is unproven there, so the space is refused before the
        # lambda >= 3L threshold is reached
        code, data = run(tmp_path, ["sandwich", "--set", space, "--set",
                                    "lambdas=1,2", "--set", "grid=5"])
        assert code == 2
        assert data == b""
        err = capsys.readouterr().err
        assert "config field 'power': no proven bound on l" in err
        assert "it needs l_q with 2 <= q <= power, q finite" in err

    @pytest.mark.parametrize("argv", [
        ["converge", "--set", "p=inf"],
        ["sandwich", "--set", "p=inf", "--set", "function=distance"],
        ["sandwich", "--set", "p=4"],
        ["sandwich", "--set", "p=1.5", "--set", "power=4"],
    ], ids=["converge-linf", "sandwich-linf", "sandwich-l4-power2",
            "sandwich-l1.5"])
    def test_unproven_clarkson_refused(self, tmp_path, capsys, argv):
        code, data = run(tmp_path, argv + ["--set", "dim=2",
                                           "--set", "grid=9"])
        assert code == 2
        assert data == b""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: config field 'power': no "
                                 "proven bound on l")

    @pytest.mark.parametrize("argv", [
        ["converge"] + FAST_CONVERGE,
        ["sandwich", "--set", "dim=1", "--set", "grid=5"],
        ["adversary", "--set", "depths=4"],
        ["modulus", "--set", "epsilons=1", "--set", "samples=512"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed(self, tmp_path, capsys, argv):
        code, data = run(tmp_path, argv + ["--seed", "-1"])
        assert code == 2
        assert data == b""
        assert "config field 'seed'" in capsys.readouterr().err

    def test_negative_deep_samples(self, tmp_path, capsys):
        code, data = run(tmp_path, ["adversary", "--set", "depths=12",
                                    "--set", "deep_samples=-1"])
        assert code == 2
        assert data == b""
        assert "config field 'deep_samples'" in capsys.readouterr().err


class TestModulusBracket:
    @pytest.mark.parametrize("p", ["2", "4"])
    def test_eps_two_is_full_convexity(self, tmp_path, p):
        code, data = run(tmp_path, ["modulus", "--set", f"p={p}",
                                    "--set", "epsilons=2"])
        assert code == 0
        row = data.decode().strip().splitlines()[-1].split(",")
        assert row[4] == row[5] == "1"

    def test_hanner_value(self, tmp_path):
        code, data = run(tmp_path, ["modulus", "--set", "p=1.5",
                                    "--set", "epsilons=1"])
        assert code == 0
        row = data.decode().strip().splitlines()[-1].split(",")
        assert abs(float(row[5]) - 0.0671) <= 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_bench_argv_slack_nonnegative(self, tmp_path, seed):
        code, data = run(tmp_path, [
            "modulus", "--set", "dim=3", "--set", "p=3",
            "--set", "samples=1024", "--seed", str(seed)])
        assert code == 0
        rows = [ln.split(",") for ln in data.decode().splitlines()
                if ln.startswith("modulus,")]
        assert len(rows) == 3
        for row in rows:
            assert float(row[6]) >= 0.0
            assert float(row[4]) >= float(row[5])


class TestValidateTree:
    def test_valid_tree(self, tmp_path, capsys):
        path = tmp_path / "tree.txt"
        save_tree(build_sign_tree(4), path)
        assert main(["validate-tree", str(path)]) == 0
        assert "separation_ok=True" in capsys.readouterr().out

    def test_corrupt_tree(self, tmp_path):
        t = build_sign_tree(4).with_node(
            (1, -1), np.array([1.0, -0.999999, 0.0, 0.0]))
        path = tmp_path / "tree.txt"
        save_tree(t, path)
        assert main(["validate-tree", str(path)]) == 1

    def test_missing_file(self, tmp_path):
        assert main(["validate-tree", str(tmp_path / "nope.txt")]) == 2

    def test_non_finite_coordinate_exits_two(self, tmp_path):
        # the module entry point, as a user runs it: a NaN root once passed
        # the loader and ended in a traceback with exit 1
        path = tmp_path / "tree.txt"
        path.write_text("1 2 1\nnan 0\n+ 1 0\n- -1 0\n")
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(deltaconvex.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run(
            [sys.executable, "-m", "deltaconvex.cli", "validate-tree",
             str(path)], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2
        assert proc.stderr.strip() == (
            f"config error: {path}:2: non-finite coordinate")

    def test_package_runs_as_module(self, tmp_path):
        # python -m deltaconvex from a checkout, with src on the path only
        path = tmp_path / "tree.txt"
        save_tree(build_sign_tree(4), path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(
            os.path.dirname(deltaconvex.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "deltaconvex", "validate-tree", str(path)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "depth=4 nodes=31 theta=1\n"
            "midpoint_exact=True worst_gap=0\n"
            "min_separation=1 separation_ok=True pairs_checked=465 "
            "exhaustive=True\n")

    @pytest.mark.parametrize("depth, want", [
        (4, "node pair"), (11, "siblings pair (level 10, index")])
    def test_separation_failure_names_pair_kind(self, tmp_path, capsys,
                                                depth, want):
        # the last leaf moved next to its sibling; depth 11 is past the
        # exhaustive cap, so its structured pairs find it
        t = build_sign_tree(depth)
        leaf = (1,) * depth
        near = t.node(leaf[:-1] + (-1,)).copy()
        near[-1] += 0.25
        path = tmp_path / "tree.txt"
        save_tree(t.with_node(leaf, near), path)
        assert main(["validate-tree", str(path)]) == 1
        err = capsys.readouterr().err
        assert "separation 0.25 below theta 1" in err
        assert want in err

    def test_depth10_stdout_pinned(self, tmp_path, capsys):
        # the benchmark's saved tree, now measured on int8 codes: the same
        # report, byte for byte, as on its float coordinates
        path = tmp_path / "tree10.txt"
        save_tree(build_sign_tree(10), path)
        assert main(["validate-tree", str(path)]) == 0
        assert capsys.readouterr().out == (
            "depth=10 nodes=2047 theta=1\n"
            "midpoint_exact=True worst_gap=0\n"
            "min_separation=1 separation_ok=True pairs_checked=2094081 "
            "exhaustive=True\n")

    def test_depth10_tree_checked_exhaustively(self, tmp_path, capsys):
        path = tmp_path / "tree10.txt"
        save_tree(build_sign_tree(10), path)
        assert main(["validate-tree", str(path)]) == 0
        assert ("pairs_checked=2094081 exhaustive=True"
                in capsys.readouterr().out)


class TestNonConvergedWarnings:
    def test_sandwich_warns_per_lambda(self, tmp_path, capsys):
        # the flat quartic objective of the distance function on l4^2 keeps
        # inf_convolve_grid's compass search at its iteration cap at
        # lambda 16 and 64 (and both operators at lambda 4)
        code, data = run(tmp_path, [
            "sandwich", "--set", "dim=2", "--set", "p=4",
            "--set", "power=4", "--set", "function=distance"])
        assert code == 0
        assert data.count(b"\nsandwich,") == 3
        lines = capsys.readouterr().err.splitlines()
        warned = [ln for ln in lines if ln.startswith("warning: ")]
        assert warned == lines
        lams = [ln.split("lambda=")[1].split(":")[0] for ln in warned]
        assert len(set(lams)) == len(lams)
        for lam in ("16", "64"):
            line = warned[lams.index(lam)]
            assert line.startswith(f"warning: sandwich lambda={lam}: ")
            assert "inf_convolve_grid" in line
            assert line.endswith("did not converge")

    def test_converged_run_is_silent(self, tmp_path, capsys):
        code, _ = run(tmp_path, ["converge"] + FAST_CONVERGE)
        assert code == 0
        assert "warning:" not in capsys.readouterr().err

    @pytest.mark.parametrize("runner, lams", [
        ("converge", ["16", "64", "256"]),
        ("sandwich", ["4", "16", "64"]),
    ], ids=["converge", "sandwich"])
    def test_every_runner_warns_per_lambda(self, tmp_path, capsys, runner,
                                           lams):
        # no solve reaches a tolerance of 1e-300, so every lambda warns,
        # naming the operators in call order.  sandwich checks at solver
        # tolerance, so it fails a row only where its worst term is not
        # exactly 0.  On l2^1 both kernels are a square rounded once, so a
        # term is 0 or about an ulp of the values; the CSV's slack column
        # says which rows fail
        got, data = run(tmp_path, [
            runner, "--set", "dim=1", "--set", "grid=9",
            "--set", "coarse_samples=64", "--set", "tolerance=1e-300"])
        rows = [ln.split(",") for ln in data.decode().splitlines()
                if ln.startswith(f"{runner},")]
        assert [r[3] for r in rows] == lams
        failed = [r[3] for r in rows if float(r[6]) < 0.0]
        assert got == (1 if failed else 0)
        ops = ("regularize_power_grid" if runner == "converge"
               else "regularize_power_grid, inf_convolve_grid")
        lines = capsys.readouterr().err.splitlines()
        assert lines[:len(lams)] == [
            f"warning: {runner} lambda={lam}: {ops} did not converge"
            for lam in lams]
        violations = lines[len(lams):]
        assert len(violations) == len(failed)
        for line, lam in zip(violations, failed):
            assert line.startswith(f"bound violation: lambda={lam}: ")


class TestWholeSpace:
    """Far from the origin the rate bound still holds: the difference
    formula of Q made both commands report false violations (measured 2
    against a bound of 0.157 on l4^2, 0.254 against 0.0039 on l2^2)."""

    @pytest.mark.parametrize("argv", [
        ["--set", "p=4", "--set", "radius=1000", "--set", "function=linear"],
        ["--set", "radius=1e6", "--set", "function=linear"],
    ])
    def test_converge_exits_zero(self, tmp_path, capsys, argv):
        code, data = run(tmp_path, ["converge"] + argv)
        assert code == 0
        assert capsys.readouterr().err == ""
        rows = [ln.split(",") for ln in data.decode().splitlines()
                if ln.startswith("converge,")]
        assert [r[3] for r in rows] == ["16", "64", "256"]
        assert all(float(r[6]) > 0.0 for r in rows)


class TestSweepRows:
    """Every row of the grid runners recomputed from the operators."""

    def _setup(self, p):
        space = NormedSpace(2, p)
        f = corpus_function(space, "sawtooth")
        X = ball_grid(space, np.zeros(2), 1.0, 5)
        solver = SolverConfig(coarse_samples=64, seed=1)
        return space, f, X, solver

    def _run(self, runner, argv):
        cfg = ExperimentConfig.from_sources(
            overrides=["dim=2", "grid=5", "coarse_samples=64",
                       "function=sawtooth"] + argv, seed=1)
        result = runner(cfg)
        assert result.violations == []
        return result.rows

    def _check(self, row, lam, measured, bound, evals):
        assert (row.lam, row.measured, row.bound) == (lam, measured, bound)
        assert row.slack == bound - measured
        assert row.evaluations == evals
        assert (row.runtime_ms, row.seed) == (0, 1)

    def test_converge(self):
        lams = [16.0, 64.0]
        rows = self._run(run_converge, ["p=4", "power=4", "lambdas=16,64"])
        space, f, X, solver = self._setup(4.0)
        assert len(rows) == len(lams)
        for row, lam in zip(rows, lams):
            vals, _, evals, _, _ = regularize_power_grid(
                f, 4.0, lam, X, space, solver)
            measured = float(np.abs(f(X) - vals).max())
            bound = rate_bound(4.0, 1.0, lam, f.lipschitz_constant)
            self._check(row, lam, measured, bound, evals)

    def test_sandwich(self):
        lams = [4.0, 16.0, 64.0]
        rows = self._run(run_sandwich, ["p=4", "power=4"])
        space, f, X, solver = self._setup(4.0)
        assert len(rows) == len(lams)
        prev = None
        for row, lam in zip(rows, lams):
            env, _, ev1, _, _ = regularize_power_grid(
                f, 4.0, lam, X, space, solver)
            infc, _, ev2, _, _ = inf_convolve_grid(
                f, 4.0, lam, X, space, solver)
            terms = [np.max(infc - env, initial=0.0),
                     np.max(env - f(X), initial=0.0), 0.0]
            if prev is not None:
                # f_lambda rises with lambda
                terms.append(np.max(prev - env, initial=0.0))
            self._check(row, lam, float(max(terms)), 2e-6, ev1 + ev2)
            prev = env

    def _stand_ins(self, monkeypatch, env, infc=None, failing=()):
        """Replace the grid operators with constants per lambda; the
        inf-convolution fails to converge at the lambdas in ``failing``."""
        def regularize_power_grid(f, power, lam, X, space, solver):
            return env(f, X, lam), None, 3, True, None

        def inf_convolve_grid(f, power, lam, X, space, solver):
            return (np.full(len(X), infc[lam]), None, 4, lam not in failing,
                    None)

        monkeypatch.setattr(experiments, "regularize_power_grid",
                            regularize_power_grid)
        monkeypatch.setattr(experiments, "inf_convolve_grid",
                            inf_convolve_grid)

    def test_converge_checks_against_previous_lambda(self, monkeypatch):
        # an error of lam/1024 rises with lambda past the rate bound 1/lam
        self._stand_ins(monkeypatch, lambda f, X, lam: f(X) - lam / 1024)
        result = run_converge(ExperimentConfig.from_sources(
            overrides=["dim=2", "grid=5"]))
        assert result.warnings == []
        assert result.violations == [
            "lambda=64: measured 0.0625 exceeds bound 0.015625 + 0.0001",
            "lambda=64: error not non-increasing (0.0625 > 0.015625)",
            "lambda=256: measured 0.25 exceeds bound 0.00390625 + 0.0001",
            "lambda=256: error not non-increasing (0.25 > 0.0625)"]

    def test_sandwich_takes_the_worst_term(self, monkeypatch):
        # f = |x| is 0 at the grid's centre.  Lambda 4 puts the regularizer
        # above f, lambda 16 drops it below lambda 4's (monotonicity), and
        # lambda 64 puts the inf-convolution above it
        env = {4.0: 1 / 1024, 16.0: -11 / 1024, 64.0: -11 / 1024}
        self._stand_ins(monkeypatch, lambda f, X, lam: np.full(len(X),
                                                               env[lam]),
                        {4.0: -1.0, 16.0: -1.0, 64.0: 37 / 1024}, (16.0,))
        result = run_sandwich(ExperimentConfig.from_sources(
            overrides=["dim=2", "grid=5"]))
        assert [r.measured for r in result.rows] == [1 / 1024, 12 / 1024,
                                                     48 / 1024]
        assert [r.evaluations for r in result.rows] == [7, 7, 7]
        assert result.warnings == [
            "sandwich lambda=16: inf_convolve_grid did not converge"]
        assert result.violations == [
            "lambda=4: sandwich violated by 0.000976562",
            "lambda=16: sandwich violated by 0.0117188",
            "lambda=64: sandwich violated by 0.046875"]
