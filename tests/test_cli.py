import argparse
import inspect
import json
import os
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from tenreg import datagen, harness, solver, spectral
from tenreg.cli import build_parser, main
from tenreg.datagen import ModelClassSpec, VarModel, gen_truth, var_spectral_extrema
from tenreg.errors import ValidationError
from tenreg.solver import RegressionProblem, load_problem, save_problem


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_strict_json(path):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    with open(path) as fh:
        return json.loads(fh.read(), parse_constant=reject)


def save_scaled_problem(prob_dir, n, scale=1e160):
    """A 3x3x3 scalar-response problem with covariates scaled by `scale`."""
    r = np.random.default_rng(42)
    save_problem(
        prob_dir,
        RegressionProblem(
            covariates=scale * r.standard_normal((n, 3, 3, 3)),
            responses=r.standard_normal(n),
            split=3,
        ),
    )


class TestGenSolve:
    def test_gen_then_solve(self, tmp_path, capsys):
        spec = json.dumps({"kind": "theta1", "shape": [3, 3, 3], "s": 2})
        prob_dir = str(tmp_path / "prob")
        code, out, _ = run_cli(
            ["--seed", "3", "--out", prob_dir, "gen", "--spec", spec,
             "--n", "200", "--sigma", "0.3"],
            capsys,
        )
        assert code == 0
        assert os.path.exists(os.path.join(prob_dir, "manifest.json"))
        res_path = str(tmp_path / "result.json")
        code, _, _ = run_cli(
            ["--seed", "3", "--out", res_path, "solve", "--problem", prob_dir,
             "--regularizer", "entry_l1", "--lam", "0.05"],
            capsys,
        )
        assert code == 0
        result = json.loads(Path(res_path).read_text())
        assert result["status"] == "Converged"
        assert result["estimate_shape"] == [3, 3, 3]

    def test_solve_auto_lambda(self, tmp_path, capsys):
        spec = json.dumps({"kind": "theta1", "shape": [3, 3, 3], "s": 2})
        prob_dir = str(tmp_path / "prob")
        run_cli(
            ["--seed", "5", "--out", prob_dir, "gen", "--spec", spec,
             "--n", "300", "--sigma", "0.5"],
            capsys,
        )
        code, _, _ = run_cli(
            ["--seed", "5", "--out", str(tmp_path / "r.json"), "solve",
             "--problem", prob_dir, "--regularizer", "entry_l1",
             "--lam", "auto", "--width-draws", "200"],
            capsys,
        )
        assert code == 0

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        spec = json.dumps({"kind": "theta1", "shape": [3, 3, 3], "s": 2})
        prob_dir = str(tmp_path / "prob")
        run_cli(
            ["--seed", "7", "--out", prob_dir, "gen", "--spec", spec,
             "--n", "100", "--sigma", "0.3"],
            capsys,
        )
        code, _, _ = run_cli(
            ["--out", str(tmp_path / "r.json"), "solve", "--problem", prob_dir,
             "--regularizer", "entry_l1", "--lam", "0.01", "--max-iters", "1"],
            capsys,
        )
        assert code == 3

    def test_diverged_result_is_strict_json(self, tmp_path, capsys):
        r = np.random.default_rng(39)
        prob_dir = str(tmp_path / "prob")
        save_problem(
            prob_dir,
            RegressionProblem(
                covariates=1e160 * r.standard_normal((200, 5, 4)),
                responses=r.standard_normal((200, 3)),
                split=2,
            ),
        )
        res_path = str(tmp_path / "r.json")
        code, _, _ = run_cli(
            ["--out", res_path, "solve", "--problem", prob_dir,
             "--regularizer", "entry_l1", "--lam", "0.1"],
            capsys,
        )
        assert code == 3
        result = read_strict_json(res_path)
        assert result["status"] == "Diverged"
        assert result["kkt_residual"] is None

    @pytest.mark.parametrize("reg", ["entry_l1", "pairwise", "matricized_nuclear_sum"])
    def test_finite_covariates_whose_sum_overflows_diverge(self, tmp_path, capsys, reg):
        prob_dir = str(tmp_path / "prob")
        save_problem(prob_dir, RegressionProblem(np.full((4, 3, 3, 3), 1e308), np.ones(4), 3))
        res_path = str(tmp_path / "r.json")
        code, _, err = run_cli(
            ["--out", res_path, "solve", "--problem", prob_dir, "--regularizer", reg,
             "--lam", "0.1"],
            capsys,
        )
        assert code == 3, err
        assert read_strict_json(res_path)["status"] == "Diverged"

    @pytest.mark.parametrize(
        "spec, sigma, message",
        [({"kind": "theta1", "shape": [3, 3, 3], "s": 2}, "1e308", "overflow encountered"),
         ({"kind": "theta1", "shape": [3, 3, 3], "s": 2, "magnitude": 1e308}, "1.0",
          "overflow encountered"),
         ({"kind": "theta1", "shape": [3, 3, 3], "s": 2}, "nan",
          "noise_sigma must be a finite number >= 0, got nan")],
        ids=["sigma", "magnitude", "sigma-nan"],
    )
    def test_gen_overflow_is_an_input_error(self, tmp_path, capsys, spec, sigma, message):
        prob_dir = tmp_path / "prob"
        code, _, err = run_cli(
            ["--out", str(prob_dir), "gen", "--spec", json.dumps(spec), "--n", "50",
             "--sigma", sigma],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert "Traceback" not in err
        assert not prob_dir.exists()

    @pytest.mark.parametrize("n", [60, 20])  # Gram, data space
    def test_admm_diverged_result_is_strict_json(self, tmp_path, capsys, n):
        prob_dir = str(tmp_path / "prob")
        save_scaled_problem(prob_dir, n)
        res_path = str(tmp_path / "r.json")
        code, _, err = run_cli(
            ["--out", res_path, "solve", "--problem", prob_dir,
             "--regularizer", "matricized_nuclear_sum", "--lam", "0.1"],
            capsys,
        )
        assert code == 3, err
        result = read_strict_json(res_path)
        assert result["status"] == "Diverged"
        assert result["kkt_residual"] is None
        assert result["estimate_shape"] == [3, 3, 3]

    @pytest.mark.parametrize("lam", ["nan", "inf", "-1"])
    @pytest.mark.parametrize(
        "reg", ["entry_l1", "matricized_nuclear_sum", "pairwise"]
    )
    def test_bad_lambda_exit_code(self, tmp_path, capsys, reg, lam):
        prob_dir = str(tmp_path / "prob")
        save_scaled_problem(prob_dir, 30, scale=1.0)
        res_path = tmp_path / "r.json"
        code, _, err = run_cli(
            ["--out", str(res_path), "solve", "--problem", prob_dir,
             "--regularizer", reg, "--lam", lam],
            capsys,
        )
        assert code == 2
        assert "lam must be a finite number >= 0" in err
        assert not res_path.exists()

    def test_tensor_spectral_refused_at_zero_lambda(self, tmp_path, capsys):
        prob_dir = str(tmp_path / "prob")
        save_scaled_problem(prob_dir, 30, scale=1.0)
        res_path = tmp_path / "r.json"
        code, _, err = run_cli(
            ["--out", str(res_path), "solve", "--problem", prob_dir,
             "--regularizer", "tensor_spectral", "--lam", "0"],
            capsys,
        )
        assert code == 2
        assert "tensor_spectral_dual_only is not prox-friendly" in err
        assert "has no solver for it" in err and "ADMM" not in err
        assert not res_path.exists()

    @pytest.mark.parametrize(
        "reg, message",
        [('{"kind": "entry_l1", "mode": 7, "axes": [0, 9]}', "entry_l1 takes no mode"),
         ('{"kind": "matricized_nuclear_sum", "axes": [0, 1]}', "takes no axes"),
         ('{"kind": "fiber_group", "mode": 0, "axes": [0, 1]}', "fiber_group takes no axes"),
         ('{"kind": "slice_frob", "axes": [0, 1], "mode": 2}', "slice_frob takes no mode"),
         ("entry_l1:3", "cannot parse regularizer 'entry_l1:3'"),
         ("matricized_nuclear_sum:1", "cannot parse regularizer"),
         ("tensor_spectral:2", "cannot parse regularizer"),
         ("pairwise:1", "cannot parse regularizer")],
        ids=["entry-mode", "matricized-axes", "fiber-axes", "slice-mode",
             "entry-shorthand-arg", "matricized-shorthand-arg",
             "tensor-spectral-shorthand-arg", "pairwise-shorthand-arg"],
    )
    def test_a_field_the_kind_does_not_take_exit_code(
        self, tmp_path, capsys, monkeypatch, reg, message
    ):
        # refused as the penalty is read: no width draw or solve runs
        monkeypatch.setattr(harness, "auto_lambda", pytest.fail)
        prob_dir = str(tmp_path / "prob")
        save_scaled_problem(prob_dir, 30, scale=1.0)
        res_path = tmp_path / "r.json"
        code, _, err = run_cli(
            ["--out", str(res_path), "solve", "--problem", prob_dir, "--regularizer", reg],
            capsys,
        )
        assert code == 2
        assert message in err
        assert not res_path.exists()

    @pytest.mark.parametrize("max_iters", ["0", "-5"])
    @pytest.mark.parametrize(
        "reg", ["entry_l1", "matricized_nuclear_sum", "pairwise"]
    )
    def test_max_iters_below_one_exit_code(self, tmp_path, capsys, reg, max_iters):
        # refused before any iteration, not run as a zero-step MaxIters solve
        prob_dir = str(tmp_path / "prob")
        save_scaled_problem(prob_dir, 30, scale=1.0)
        res_path = tmp_path / "r.json"
        code, _, err = run_cli(
            ["--out", str(res_path), "solve", "--problem", prob_dir,
             "--regularizer", reg, "--lam", "0.1", "--max-iters", max_iters],
            capsys,
        )
        assert code == 2
        assert f"max_iters must be an integer >= 1, got {max_iters}" in err
        assert not res_path.exists()

    @pytest.mark.parametrize(
        "args, split, message",
        [(["--regularizer", "entry_l1", "--max-iters", "0"], 3,
          "max_iters must be an integer >= 1, got 0"),
         (["--regularizer", "entry_l1", "--c-u", "0"], 3, "c_u > 0"),
         (["--regularizer", "entry_l1", "--c-u", "nan"], 3, "c_u > 0"),
         (["--regularizer", "matricized_nuclear_sum", "--c-u", "0"], 3, "c_u > 0"),
         (["--regularizer", "tensor_spectral"], 3, "has no solver for it"),
         (["--regularizer", "pairwise"], 1, "scalar response")],
        ids=["max-iters", "c-u", "c-u-nan", "c-u-matricized", "tensor-spectral",
             "pairwise-split-1"],
    )
    def test_refused_before_the_width_draws(
        self, tmp_path, capsys, monkeypatch, args, split, message
    ):
        # an input that `solve` or the tuning rule refuses is refused before
        # the automatic lambda draws its width
        for width in ("gaussian_width_mc", "_exact_estimate"):
            monkeypatch.setattr(harness, width, lambda *a, **k: pytest.fail("width drawn"))
        r = np.random.default_rng(42)
        prob_dir = str(tmp_path / "prob")
        cov_shape = (3, 3, 3)[:split]
        save_problem(
            prob_dir,
            RegressionProblem(
                covariates=r.standard_normal((30,) + cov_shape),
                responses=r.standard_normal((30,) + (3, 3, 3)[split:]),
                split=split,
            ),
        )
        res_path = tmp_path / "r.json"
        code, _, err = run_cli(
            ["--out", str(res_path), "solve", "--problem", prob_dir, *args], capsys
        )
        assert code == 2
        assert message in err
        assert not res_path.exists()

    def test_validation_exit_code(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["gen", "--spec", '{"kind": "theta1", "shape": [3,3,3], "s": 99}',
             "--n", "10"],
            capsys,
        )
        assert code == 2
        assert "error" in err

    def test_cached_parser_keeps_no_state_between_calls(self, tmp_path, capsys):
        # the parser is built once per process; a call with other values, then
        # one refused on a bad flag, must leave the next plain call on the
        # defaults (--seed 0, --max-iters 2000), writing the first call's bytes
        spec = json.dumps({"kind": "theta1", "shape": [3, 3, 3], "s": 2})
        prob_dir = str(tmp_path / "prob")
        run_cli(["--seed", "4", "--out", prob_dir, "gen", "--spec", spec,
                 "--n", "60", "--sigma", "0.3"], capsys)
        solve = ["solve", "--problem", prob_dir, "--regularizer", "entry_l1",
                 "--lam", "auto", "--width-draws", "200"]
        first, other, last = (tmp_path / f"{name}.json" for name in ("first", "other", "last"))
        assert run_cli(["--out", str(first), *solve], capsys)[0] == 0
        code, _, _ = run_cli(
            ["--seed", "9", "--out", str(other), *solve, "--max-iters", "5"], capsys
        )
        assert code == 3
        assert json.loads(other.read_text())["iterations"] == 5
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "7", *solve, "--max-iters", "4", "--no-such-flag"])
        assert exc.value.code == 2
        assert "--no-such-flag" in capsys.readouterr().err
        args = build_parser().parse_args(solve)
        assert (args.seed, args.max_iters, args.out) == (0, 2000, None)
        assert run_cli(["--out", str(last), *solve], capsys)[0] == 0
        assert last.read_bytes() == first.read_bytes()
        assert first.read_bytes() != other.read_bytes()


class TestAutoLambda:
    @pytest.mark.parametrize("sigma", [0.5, 0.0])
    def test_rate_and_solve_share_lambda(self, tmp_path, capsys, sigma):
        model = {"kind": "theta1", "shape": [3, 3, 3], "s": 2}
        config = {
            "model": model,
            "regularizer": {"kind": "entry_l1"},
            "n_grid": [40, 80, 160, 320],
            "replications": 10,
            "seed": 23,
            "rate_tag": "s_log_total_over_n",
            "width_draws": 150,
            "noise_sigma": sigma,
        }
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        code, out, _ = run_cli(["rate", "--config", cfg_path], capsys)
        assert code == 0
        rate_lam = json.loads(out)["per_n"][0]["lambda"]
        prob_dir = str(tmp_path / "prob")
        code, _, _ = run_cli(
            ["--seed", "23", "--out", prob_dir, "gen", "--spec", json.dumps(model),
             "--n", "40", "--sigma", str(sigma)],
            capsys,
        )
        assert code == 0
        code, out, _ = run_cli(
            ["--seed", "23", "solve", "--problem", prob_dir, "--regularizer",
             "entry_l1", "--lam", "auto", "--width-draws", "150"],
            capsys,
        )
        assert code in (0, 3)
        assert json.loads(out)["lambda"] == rate_lam
        assert rate_lam > 0

    def test_group_lambda_ignores_seed_and_draws(self, tmp_path, capsys, monkeypatch):
        # the exact width: no draw runs, and the lambda is the same at any
        # --seed and --width-draws; fewer than 100 draws are still
        # refused, as for a drawn width
        monkeypatch.setattr(harness, "gaussian_width_mc", pytest.fail)
        prob_dir = str(tmp_path / "prob")
        run_cli(["--seed", "6", "--out", prob_dir, "gen", "--spec",
                 json.dumps({"kind": "theta1", "shape": [3, 3, 3], "s": 2}),
                 "--n", "60"], capsys)
        lams = set()
        for flags, draws in ((["--seed", "1"], "2000"),
                             (["--seed", "2"], "2000"),
                             (["--seed", "3"], "5000")):
            code, out, _ = run_cli(
                [*flags, "solve", "--problem", prob_dir, "--regularizer",
                 "entry_l1", "--lam", "auto", "--width-draws", draws],
                capsys,
            )
            assert code in (0, 3)
            lams.add(json.loads(out)["lambda"])
        assert len(lams) == 1
        code, out, err = run_cli(
            ["solve", "--problem", prob_dir, "--regularizer", "entry_l1",
             "--lam", "auto", "--width-draws", "50"],
            capsys,
        )
        assert code == 2
        assert "draws must be an integer >= 100" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["width", "solve-pairwise", "solve-lam", "gen"])
    def test_threads_flag_is_refused(self, tmp_path, capsys, command):
        # a width has one stream per seed, so there is no thread count to
        # set: the parser exits 2 before any command runs, also before
        # those that draw no width
        prob_dir = str(tmp_path / "prob")
        save_scaled_problem(prob_dir, 30, scale=1.0)
        out = tmp_path / "out"
        args = {
            "width": ["width", "--kinds", "entry_l1", "--shapes", "4x4x4", "--draws", "100"],
            "solve-pairwise": ["solve", "--problem", prob_dir, "--regularizer", "pairwise",
                               "--width-draws", "100"],
            "solve-lam": ["solve", "--problem", prob_dir, "--regularizer", "entry_l1",
                          "--lam", "0.1"],
            "gen": ["gen", "--spec", '{"kind": "theta1", "shape": [3, 3, 3], "s": 2}',
                    "--n", "10"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "2", "--out", str(out), *args])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "tenreg: error:" in captured.err
        assert not out.exists()

    def test_width_of_the_pairwise_penalty(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["width", "--kinds", "pairwise", "--shapes", "3x4x5", "--draws", "200"],
            capsys,
        )
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert row["kind"] == "pairwise_component_nuclear"
        assert row["rate_expression"] == np.sqrt(5)
        # a rate config naming the penalty by its shorthand echoes it as its
        # penalty object, and draws the table's width at the same seed and draws
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"model": {"kind": "t4", "shape": [3, 4, 5], "r": 1}, "regularizer": "pairwise",
             "split": 3, "n_grid": [50, 100, 200, 400], "replications": 10, "seed": 0,
             "rate_tag": "r_max_dim_over_n", "width_draws": 200}
        ))
        code, out, _ = run_cli(["rate", "--config", str(cfg_path)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["config"]["regularizer"] == {"kind": "pairwise_component_nuclear"}
        assert report["width"]["mean"] == row["estimate"]

    @pytest.mark.parametrize("shape", ["1x1x1", "1x2x1"])
    def test_width_on_one_or_two_entries(self, capsys, shape):
        code, out, _ = run_cli(
            ["width", "--kinds", "entry_l1", "--shapes", shape, "--draws", "200"],
            capsys,
        )
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert row["rate_expression"] == 1.0
        assert np.isfinite(row["ratio"]) and row["ratio"] == row["estimate"]

    @pytest.mark.parametrize(
        "kind", ["tensor_spectral", "entry_l1", "matricized_nuclear_sum"]
    )
    def test_width_rejects_a_zero_dimension(self, capsys, kind):
        code, out, err = run_cli(
            ["width", "--kinds", kind, "--shapes", "0x3x3", "--draws", "100"],
            capsys,
        )
        assert code == 2
        assert "shape must be three integers >= 1, got (0, 3, 3)" in err
        assert out == ""


class TestDeterminism:
    def test_width_replay_byte_identical(self, tmp_path, capsys):
        outs = []
        for name in ("a.json", "b.json"):
            path = str(tmp_path / name)
            code, _, _ = run_cli(
                ["--seed", "11", "--out", path, "width", "--kinds",
                 "entry_l1,fiber_group:0", "--shapes", "4x4x4,5x5x5",
                 "--draws", "200"],
                capsys,
            )
            assert code == 0
            outs.append(Path(path).read_bytes())
        assert outs[0] == outs[1]

    def test_width_csv_replay(self, tmp_path, capsys):
        outs = []
        for name in ("a.csv", "b.csv"):
            path = str(tmp_path / name)
            run_cli(
                ["--seed", "11", "--format", "csv", "--out", path, "width",
                 "--kinds", "entry_l1", "--shapes", "4x4x4", "--draws", "150"],
                capsys,
            )
            outs.append(Path(path).read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "optional", [{"width_draws": 150, "noise_sigma": 0.5}, {}], ids=["set", "defaults"]
    )
    def test_rate_replay_byte_identical(self, tmp_path, capsys, optional, fmt):
        # a config of the required keys alone runs on the dataclass defaults
        # and echoes them; a CSV report's header is its cells' own keys
        config = {
            "model": {"kind": "theta1", "shape": [3, 3, 3], "s": 2},
            "regularizer": {"kind": "entry_l1"},
            "n_grid": [50, 100, 200, 400],
            "replications": 10,
            "seed": 13,
            "rate_tag": "s_log_total_over_n",
            **optional,
        }
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        outs = []
        for name in ("r1", "r2"):
            path = str(tmp_path / name)
            code, _, _ = run_cli(
                ["--format", fmt, "--out", path, "rate", "--config", cfg_path], capsys
            )
            assert code == 0
            outs.append(Path(path).read_bytes())
        assert outs[0] == outs[1]
        if fmt == "csv":
            assert outs[0].startswith(b"n,replication,fro_sq,emp_sq,status,iterations\n")
        else:
            echoed = json.loads(outs[0])["config"]
            unset = RATE_DEFAULTS.keys() - config.keys()
            assert {k: echoed[k] for k in unset} == {k: RATE_DEFAULTS[k] for k in unset}

    def test_packing_replay(self, tmp_path, capsys):
        outs = []
        for name in ("p1.json", "p2.json"):
            path = str(tmp_path / name)
            code, _, _ = run_cli(
                ["--seed", "17", "--out", path, "packing", "--kind", "full",
                 "--d", "12", "--delta", "1.0", "--budget", "5000"],
                capsys,
            )
            assert code == 0
            outs.append(Path(path).read_bytes())
        assert outs[0] == outs[1]

    def test_packing_prints_sorted_indented_json(self, capsys):
        code, out, _ = run_cli(
            ["--seed", "17", "packing", "--kind", "sparse", "--d", "8", "--s", "2",
             "--delta", "1.0", "--budget", "300"],
            capsys,
        )
        assert code == 0
        pack = harness.hypercube_packing(8, 1.0, kind="sparse", budget=300, seed=17, s=2)
        assert out == json.dumps(pack.to_json(), sort_keys=True, indent=2) + "\n"

    def test_gen_deterministic_problem_files(self, tmp_path, capsys):
        spec = json.dumps({"kind": "theta1", "shape": [3, 3, 3], "s": 2})
        payloads = []
        for sub in ("p1", "p2"):
            prob_dir = str(tmp_path / sub)
            run_cli(
                ["--seed", "19", "--out", prob_dir, "gen", "--spec", spec,
                 "--n", "50", "--sigma", "0.2"],
                capsys,
            )
            with open(os.path.join(prob_dir, "covariates.tns"), "rb") as fh:
                payloads.append(fh.read())
        assert payloads[0] == payloads[1]


class TestGenVar:
    """`gen` on the VAR class t3 draws a lag-window series, in the one VAR
    layout only."""

    SPEC = {"kind": "t3", "shape": [3, 2, 3], "s": 2}

    def test_default_split_is_refused(self, tmp_path, capsys):
        out = tmp_path / "var"
        code, _, err = run_cli(
            ["--out", str(out), "gen", "--spec", json.dumps(self.SPEC), "--n", "5"], capsys
        )
        assert code == 2
        assert "a t3 (VAR) sample needs" in err
        assert not out.exists()

    def test_split_two_writes_a_lag_window_series(self, tmp_path, capsys):
        out = tmp_path / "var"
        code, _, _ = run_cli(
            ["--seed", "4", "--out", str(out), "gen", "--spec", json.dumps(self.SPEC),
             "--n", "30", "--split", "2"],
            capsys,
        )
        assert code == 0
        problem = load_problem(str(out))
        spec = ModelClassSpec.from_json(self.SPEC)
        assert (problem.n, problem.cov_shape) == (30, (3, 2))
        assert np.array_equal(problem.truth, gen_truth(spec, 4))
        # lag 1 of each covariate is the previous response
        assert np.array_equal(problem.covariates[1:, :, 0], problem.responses[:-1])
        meta = problem.meta
        assert (meta["class"], meta["seed"], meta["certificate"]["ok"]) == (spec.to_json(), 4, True)
        code, _, _ = run_cli(
            ["--out", str(tmp_path / "r.json"), "solve", "--problem", str(out),
             "--regularizer", "fiber_group:1", "--lam", "auto", "--width-draws", "200"],
            capsys,
        )
        assert code == 0


@pytest.mark.parametrize(
    "spec, n, split",
    [
        ({"kind": "theta1", "shape": [3, 3, 3], "s": 2}, 5, 3),
        ({"kind": "theta1", "shape": [3, 3, 3], "s": 2}, 400, 3),
        # m p = 6 lag coordinates: a rate cell yields the series at n = 5
        # and its statistics at n = 30
        ({"kind": "t3", "shape": [3, 2, 3], "s": 2}, 5, 2),
        ({"kind": "t3", "shape": [3, 2, 3], "s": 2}, 30, 2),
    ],
)
def test_gen_writes_the_library_sample(tmp_path, capsys, spec, n, split):
    out = tmp_path / "prob"
    code, _, _ = run_cli(
        ["--seed", "6", "--out", str(out), "gen", "--spec", json.dumps(spec),
         "--n", str(n), "--split", str(split)],
        capsys,
    )
    assert code == 0
    got = load_problem(str(out))
    want = datagen.gen_sample(ModelClassSpec.from_json(spec), n, split, 1.0, (6, 6))
    for name in ("covariates", "responses", "truth"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.meta.get("model") == want.meta.get("model")


class TestVarExtremaCommand:
    def test_closed_form(self, tmp_path, capsys):
        model = VarModel(coeffs=0.5 * np.eye(2)[None, :, :])
        mpath = str(tmp_path / "model.json")
        with open(mpath, "w") as fh:
            json.dump(model.to_json(), fh)
        out_path = str(tmp_path / "ext.json")
        code, _, _ = run_cli(
            ["--out", out_path, "var-extrema", "--model", mpath], capsys
        )
        assert code == 0
        res = json.loads(Path(out_path).read_text())
        assert res["mu_min"] == pytest.approx(0.25, abs=1e-6)
        assert res["mu_max"] == pytest.approx(2.25, abs=1e-6)

    def test_prints_sorted_indented_json(self, capsys):
        model = VarModel(coeffs=np.array([[[0.5, 0.1], [0.0, 0.3]]]))
        code, out, _ = run_cli(
            ["var-extrema", "--model", json.dumps(model.to_json()), "--grid", "64"], capsys
        )
        assert code == 0
        want = var_spectral_extrema(model, grid=64)
        assert out == json.dumps(want, sort_keys=True, indent=2) + "\n"

    def test_unstable_model_rejected(self, tmp_path, capsys):
        mpath = str(tmp_path / "model.json")
        with open(mpath, "w") as fh:
            json.dump({"coeffs": [[[1.5]]]}, fh)
        code, _, err = run_cli(["var-extrema", "--model", mpath], capsys)
        assert code == 2
        assert "error" in err


class TestMissingJsonKeys:
    def test_var_extrema_names_missing_key(self, capsys):
        code, _, err = run_cli(["var-extrema", "--model", "{}"], capsys)
        assert code == 2
        assert "'coeffs'" in err

    def test_gen_names_missing_key(self, capsys):
        code, _, err = run_cli(
            ["gen", "--spec", '{"kind": "theta1"}', "--n", "10"], capsys
        )
        assert code == 2
        assert "'shape'" in err

    def test_rate_names_missing_key(self, tmp_path, capsys):
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump({"model": {"kind": "theta1", "shape": [3, 3, 3]}}, fh)
        code, _, err = run_cli(["rate", "--config", cfg_path], capsys)
        assert code == 2
        assert "'regularizer'" in err

    @pytest.mark.parametrize(
        "drop", ["paths", "M", "sigma", "paths.covariates", "paths.responses", "n",
                 "cov_shape", "resp_shape"]
    )
    def test_solve_names_missing_manifest_key(self, tmp_path, capsys, drop):
        prob_dir = str(tmp_path / "prob")
        save_scaled_problem(prob_dir, 10, scale=1.0)
        manifest_path = os.path.join(prob_dir, "manifest.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        *parents, key = drop.split(".")
        holder = manifest
        for parent in parents:
            holder = holder[parent]
        del holder[key]
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        code, _, err = run_cli(
            ["solve", "--problem", prob_dir, "--regularizer", "entry_l1",
             "--lam", "0.1"],
            capsys,
        )
        assert code == 2
        assert f"{key!r}" in err

    @pytest.mark.parametrize(
        "key, value", [("n", 999), ("cov_shape", [7]), ("resp_shape", [5, 5])]
    )
    def test_solve_refuses_a_manifest_that_contradicts_its_tensors(
        self, tmp_path, capsys, key, value
    ):
        prob_dir = str(tmp_path / "prob")
        save_scaled_problem(prob_dir, 10, scale=1.0)
        manifest_path = os.path.join(prob_dir, "manifest.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        manifest[key] = value
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        code, _, err = run_cli(
            ["solve", "--problem", prob_dir, "--regularizer", "entry_l1", "--lam", "0.1"],
            capsys,
        )
        assert code == 2
        assert f"manifest key {key!r} is {value!r}" in err

    @pytest.mark.parametrize(
        "sigma", ["abc", None, -1, float("nan"), True],
        ids=["str", "null", "negative", "nan", "true"],
    )
    def test_solve_rejects_a_manifest_sigma_that_is_not_a_finite_number(
        self, tmp_path, capsys, sigma
    ):
        prob_dir = str(tmp_path / "prob")
        save_scaled_problem(prob_dir, 10, scale=1.0)
        manifest_path = os.path.join(prob_dir, "manifest.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        manifest["sigma"] = sigma
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        code, _, err = run_cli(
            ["solve", "--problem", prob_dir, "--regularizer", "entry_l1", "--lam", "auto"],
            capsys,
        )
        assert code == 2
        assert "noise_sigma must be a finite number >= 0" in err

    @pytest.mark.parametrize(
        "raw",
        [b"TNS1\x03\x00", b"TNS1\x03\x00\x00\x00\x0a",
         b"TNS1\xe8\x03\x00\x00" + b"\x00" * 16],
        ids=["cut-order", "cut-extents", "order-1000"],
    )
    def test_solve_rejects_a_truncated_header(self, tmp_path, capsys, raw):
        prob_dir = str(tmp_path / "prob")
        save_scaled_problem(prob_dir, 10, scale=1.0)
        Path(prob_dir, "covariates.tns").write_bytes(raw)
        code, _, err = run_cli(
            ["solve", "--problem", prob_dir, "--regularizer", "entry_l1", "--lam", "0.1"],
            capsys,
        )
        assert code == 2
        assert "truncated header" in err

    def test_rate_rejects_a_regularizer_string(self, tmp_path, capsys):
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(
                {"model": {"kind": "theta1", "shape": [3, 3, 3], "s": 2},
                 "regularizer": "entry_l1", "n_grid": [50, 100, 200, 400],
                 "replications": 10, "seed": 1, "rate_tag": "s_log_total_over_n"},
                fh,
            )
        code, _, err = run_cli(["rate", "--config", cfg_path], capsys)
        assert code == 2
        assert "'entry_l1'" in err

    @pytest.mark.parametrize(
        "field, value, message",
        [("replications", "ten", "replications must be an integer"),
         ("replications", True, "replications must be an integer"),
         ("n_grid", [50, "100", 200, 400], "n_grid entries must be integers"),
         ("n_grid", [50, 100, 200, 400.0], "n_grid entries must be integers")],
        ids=["replications-str", "replications-bool", "n_grid-str", "n_grid-float"],
    )
    def test_rate_rejects_a_non_integer_count(
        self, tmp_path, capsys, field, value, message
    ):
        cfg = {"model": {"kind": "theta1", "shape": [3, 3, 3], "s": 2},
               "regularizer": {"kind": "entry_l1"}, "n_grid": [50, 100, 200, 400],
               "replications": 10, "seed": 1, "rate_tag": "s_log_total_over_n"}
        cfg[field] = value
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        code, _, err = run_cli(["rate", "--config", cfg_path], capsys)
        assert code == 2
        assert message in err


    @pytest.mark.parametrize(
        "fields, message",
        [({"n_grid": 400}, "n_grid must be a list"),
         ({"seed": "abc"}, "seed must be an integer >= 0"),
         ({"seed": -1}, "seed must be an integer >= 0"),
         ({"max_iters": "5"}, "max_iters must be an integer"),
         ({"max_iters": 0}, "max_iters must be an integer >= 1"),
         ({"width_draws": 200.0}, "width_draws must be an integer"),
         ({"split": None}, "split must be an integer"),
         ({"c_u": None}, "c_u > 0"),
         ({"c_u": 0}, "c_u > 0"),
         ({"lambda_multiplier": 1.0}, "rate config JSON has unknown keys ['lambda_multiplier']"),
         ({"max_iter": 50}, "rate config JSON has unknown keys ['max_iter']"),
         ({"noise_sigma": -1}, "noise_sigma must be a finite number >= 0"),
         ({"noise_sigma": float("nan")}, "noise_sigma must be a finite number >= 0"),
         ({"n_grid": [0, 1, 2, 3]}, "n_grid entries must be integers >= 1"),
         ({"n_grid": [-3, -2, -1, 0]}, "n_grid entries must be integers >= 1"),
         ({"split": 5}, "split must be an integer in 1..3, got 5"),
         ({"regularizer": {"kind": "nope"}}, "unknown penalty kind"),
         ({"regularizer": "pairwise"}, "split must be 3"),
         ({"regularizer": {"kind": "pairwise_component_nuclear"}}, "split must be 3"),
         ({"regularizer": {"kind": "entry_l1", "mode": 7, "axes": [0, 9]}},
          "entry_l1 takes no mode"),
         ({"regularizer": {"kind": "pairwise_component_nuclear", "axes": [0, 1]}},
          "pairwise_component_nuclear takes no axes"),
         ({"regularizer": {"kind": "slice_nuclear", "axes": [0, 1], "mode": 1}},
          "slice_nuclear takes no mode"),
         ({"regularizer": {"kind": "tensor_spectral_dual_only"}}, "has no solver for it"),
         ({"model": {"kind": "t3", "shape": [3, 2, 3], "s": 2}, "noise_sigma": 2.0},
          "a t3 (VAR) sample needs"),
         ({"model": {"kind": "t3", "shape": [3, 2, 3], "s": 2}, "split": 1},
          "a t3 (VAR) sample needs"),
         ({"model": {"kind": "t3", "shape": [3, 2, 5], "s": 2},
           "regularizer": {"kind": "fiber_group", "mode": 1},
           "rate_tag": "s_max_p_2logm_over_n"}, "VAR truth shape must be (m, p, m)"),
         ({"model": {"kind": "theta1", "shape": [3, 3, 3], "s": 28}},
          "need 0 <= s <= 27 entries"),
         ({"model": {"kind": "theta4", "shape": [3, 3, 3], "r": 10},
           "regularizer": {"kind": "slice_nuclear", "axes": [0, 1]},
           "rate_tag": "r_max_m_logp_over_n"}, "need 1 <= r <= 9"),
         ({"width_draws": 50}, "width_draws must be an integer >= 100"),
         ({"model": {"kind": "t4", "shape": [3, 3, 3], "r": 1}, "regularizer": "pairwise",
           "split": 3}, "rate tag 's_log_total_over_n' names the entry_l1 penalty, but the "
                        "config solves pairwise_component_nuclear"),
         ({"rate_tag": "rsq_sum_dims_over_n"}, "rate tag 'rsq_sum_dims_over_n' names the "
                                               "tensor_spectral_dual_only penalty"),
         ({"model": {"kind": "theta1", "shape": [3, 3, 3], "s": 0}},
          "a theta1 rate needs the model's s to be an integer >= 1, got 0"),
         ({"model": {"kind": "t4", "shape": [3, 3, 3]}, "regularizer": "pairwise",
           "rate_tag": "r_max_dim_over_n", "split": 3},
          "a t4 rate needs the model's r to be an integer >= 1, got None"),
         ({"model": {"kind": "t1", "shape": [50, 4, 4], "s": 3},
           "n_grid": [500, 1000, 2000, 4000], "replications": 12, "seed": 301,
           "rate_tag": "s_max_msq_logp_over_n", "split": 2},
          "rate tag 's_max_msq_logp_over_n' names the slice_frob penalty, but the config "
          "solves entry_l1")],
        ids=["n_grid-int", "seed-str", "seed-negative", "max_iters-str", "max_iters-zero",
             "width_draws-float", "split-null", "c_u-null", "c_u-zero",
             "lambda_multiplier-unknown", "max_iter-unknown", "noise_sigma-negative",
             "noise_sigma-nan", "n_grid-zero", "n_grid-negative", "split-five",
             "regularizer-unknown-kind", "pairwise-split-two", "pairwise-spec-split-two",
             "entry-l1-mode-and-axes", "pairwise-axes", "slice-nuclear-mode", "tensor-spectral",
             "t3-noise-sigma-two", "t3-split-one", "t3-shape-not-m-p-m", "theta1-s-above-27",
             "theta4-r-above-9", "width_draws-fifty", "t4-unset-s", "theta1-unset-r",
             "theta1-zero-s", "t4-unset-r", "tag-kind-mismatch"],
    )
    def test_rate_rejects_a_bad_field_before_running(
        self, tmp_path, capsys, monkeypatch, fields, message
    ):
        # rejected as the config is read: no width draw or solve runs
        monkeypatch.setattr(harness, "rate_experiment", pytest.fail)
        cfg = {"model": {"kind": "theta1", "shape": [3, 3, 3], "s": 2},
               "regularizer": {"kind": "entry_l1"}, "n_grid": [50, 100, 200, 400],
               "replications": 10, "seed": 1, "rate_tag": "s_log_total_over_n",
               **fields}
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)  # writes NaN, which json.load reads back
        code, _, err = run_cli(["rate", "--config", cfg_path], capsys)
        assert code == 2
        assert message in err


class TestBadGeometry:
    @pytest.mark.parametrize(
        "spec, field",
        [({"kind": "theta3", "s": 1, "axes": [0, 5]}, "axes"),
         ({"kind": "theta4", "r": 1, "axes": [0, 5]}, "axes"),
         ({"kind": "theta2", "s": 1, "mode": 3}, "mode"),
         ({"kind": "theta1", "s": 1, "shape": [4.0, 4, 4]}, "shape"),
         ({"kind": "theta2", "s": 1, "mode": 1.0}, "mode"),
         ({"kind": "theta3", "s": 1, "axes": [0, 1.0]}, "axes"),
         ({"kind": "theta2", "s": 1, "mode": -1}, "mode"),
         ({"kind": "theta1", "s": 1, "shape": [-2, 4, 4]}, "shape")],
        ids=["theta3-axes-range", "theta4-axes-range", "mode-range", "shape-float",
             "mode-float", "axes-float", "mode-negative", "shape-negative"],
    )
    def test_gen_rejects_bad_class_geometry(self, tmp_path, capsys, spec, field):
        spec = {"shape": [4, 4, 4], **spec}
        prob_dir = tmp_path / "prob"
        code, out, err = run_cli(
            ["--out", str(prob_dir), "gen", "--spec", json.dumps(spec), "--n", "10"],
            capsys,
        )
        assert code == 2
        assert err.startswith(f"error: {field} must be")
        assert out == ""
        assert not prob_dir.exists()

    @pytest.mark.parametrize(
        "spec, field",
        [({"shape": 4}, "shape"),
         ({"axes": None}, "axes"),
         ({"s": "2"}, "s"),
         ({"s": 1.5}, "s"),
         ({"s": True}, "s"),
         ({"magnitude": "big"}, "magnitude"),
         ({"magnitude": float("nan")}, "magnitude")],  # json.dumps writes NaN
        ids=["shape-int", "axes-null", "s-string", "s-float", "s-bool",
             "magnitude-string", "magnitude-nan"],
    )
    def test_gen_rejects_bad_class_types(self, tmp_path, capsys, spec, field):
        spec = {"kind": "theta3", "shape": [4, 4, 4], "s": 1, **spec}
        prob_dir = tmp_path / "prob"
        code, out, err = run_cli(
            ["--out", str(prob_dir), "gen", "--spec", json.dumps(spec), "--n", "10"],
            capsys,
        )
        assert code == 2
        assert err.startswith(f"error: {field} must be")
        assert out == ""
        assert not prob_dir.exists()

    @pytest.mark.parametrize(
        "reg, field",
        [({"kind": "slice_frob", "axes": [0, 5]}, "axes"),
         ({"kind": "fiber_group", "mode": 1.0}, "mode")],
        ids=["slice-axes-range", "fiber-mode-float"],
    )
    def test_width_rejects_bad_penalty_geometry(self, tmp_path, capsys, reg, field):
        reg_path = tmp_path / "reg.json"
        reg_path.write_text(json.dumps(reg))
        code, out, err = run_cli(
            ["width", "--kinds", str(reg_path), "--shapes", "4x4x4", "--draws", "100"],
            capsys,
        )
        assert code == 2
        assert field in err
        assert out == ""

    @pytest.mark.parametrize("axes", [5, "01", {"0": 1}], ids=["int", "str", "object"])
    def test_solve_rejects_axes_that_are_not_a_list(self, tmp_path, capsys, axes):
        prob_dir = str(tmp_path / "prob")
        save_scaled_problem(prob_dir, 10, scale=1.0)
        reg = json.dumps({"kind": "slice_frob", "axes": axes})
        code, out, err = run_cli(
            ["solve", "--problem", prob_dir, "--regularizer", reg, "--lam", "0.1"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: axes must be two distinct integers")
        assert out == ""


def test_main_restores_numpy_error_state(tmp_path, capsys):
    before = np.geterr()
    code, _, _ = run_cli(
        ["--out", str(tmp_path / "p.json"), "packing", "--kind", "full",
         "--d", "8", "--delta", "1.0", "--budget", "200"],
        capsys,
    )
    assert code == 0
    assert np.geterr() == before


@pytest.mark.parametrize(
    "args",
    [
        ["--delta", "nan"],
        ["--delta", "inf"],
        ["--delta", "0"],
        ["--delta", "-1"],
        ["--delta", "1.0", "--budget", "0"],
        ["--delta", "1.0", "--kind", "lowrank", "--d1", "12", "--d2", "8", "--r", "0"],
        ["--delta", "1.0", "--kind", "lowrank", "--d1", "12", "--d2", "8", "--r", "-1"],
        ["--delta", "1.0", "--d", "5"],
        ["--delta", "1.0", "--kind", "sparse", "--d", "20"],
        ["--delta", "1.0", "--kind", "lowrank", "--d1", "12", "--d2", "8"],
    ],
    ids=["delta-nan", "delta-inf", "delta-0", "delta-neg", "budget-0", "rank-0", "rank-neg",
         "d-5", "sparse-no-s", "lowrank-no-r"],
)
def test_packing_rejects_bad_input(tmp_path, capsys, args):
    out = tmp_path / "p.json"
    code, _, err = run_cli(["--out", str(out), "packing"] + args, capsys)
    assert code == 2
    assert ("budget must be an integer >= 1" if "--budget" in args else "packing needs") in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, work",
    [(["packing", "--delta", "1.0", "--budget", "200"], (harness, "hypercube_packing")),
     (["solve", "--problem", "p", "--regularizer", "entry_l1", "--lam", "0.1"],
      (solver, "load_problem")),
     (["var-extrema", "--model", '{"coeffs": [[[0.5]]]}'], (datagen.VarModel, "from_json"))],
    ids=["packing", "solve", "var-extrema"],
)
def test_csv_is_refused_before_a_command_without_a_csv_form(
    tmp_path, capsys, monkeypatch, argv, work
):
    monkeypatch.setattr(*work, pytest.fail)
    out = tmp_path / "report.csv"
    code, stdout, err = run_cli(["--format", "csv", "--out", str(out)] + argv, capsys)
    assert (code, stdout) == (2, "")
    assert f"unknown CSV report kind {argv[0]!r}: choose one of rate, width" in err
    assert not out.exists()


def _library_default(func, name):
    return inspect.signature(func).parameters[name].default


RATE_DEFAULTS = {f.name: f.default for f in fields(harness.RateExperimentConfig)}
# (command line, flag's attribute, the library defaults it mirrors)
MIRRORED_FLAGS = [
    (["solve", "--problem", "p", "--regularizer", "entry_l1"], "max_iters",
     [_library_default(solver.solve, "max_iters"),
      _library_default(solver.fista_solve, "max_iters"),
      _library_default(solver.admm_matricized, "max_iters"), RATE_DEFAULTS["max_iters"]]),
    (["solve", "--problem", "p", "--regularizer", "entry_l1"], "width_draws",
     [_library_default(spectral.gaussian_width_mc, "draws"), RATE_DEFAULTS["width_draws"]]),
    (["solve", "--problem", "p", "--regularizer", "entry_l1"], "c_u",
     [_library_default(harness.auto_lambda, "c_u"), RATE_DEFAULTS["c_u"]]),
    (["width", "--kinds", "entry_l1", "--shapes", "3x3x3"], "draws",
     [_library_default(harness.width_experiment, "draws")]),
    (["packing", "--delta", "1"], "kind", [_library_default(harness.hypercube_packing, "kind")]),
    (["packing", "--delta", "1"], "budget",
     [_library_default(harness.hypercube_packing, "budget")]),
    (["var-extrema", "--model", "m.json"], "grid",
     [_library_default(datagen.var_spectral_extrema, "grid")]),
    (["packing", "--delta", "1"], "format", [_library_default(harness.emit_report, "fmt")]),
]


@pytest.mark.parametrize(
    "argv, attr, library", MIRRORED_FLAGS, ids=[f"{a[0]}-{attr}" for a, attr, _ in MIRRORED_FLAGS]
)
def test_a_flag_mirroring_a_library_parameter_takes_its_default(argv, attr, library):
    # every library default the flag stands for is the same value, and the
    # flag left out gives it
    assert len(set(library)) == 1
    assert getattr(build_parser().parse_args(argv), attr) == library[0]


def _flag(parser, option, command=None):
    """The argparse action of `option`, on `command`'s subparser if given."""
    if command is not None:
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[command]
    return parser._option_string_actions[option]


@pytest.mark.parametrize(
    "command, option, choices, refuse",
    [(None, "--format", harness.REPORT_FORMATS,
      lambda v: harness.emit_report({"kind": "width"}, v)),
     ("packing", "--kind", harness.PACKING_KINDS,
      lambda v: harness.hypercube_packing(12, 1.0, kind=v))],
    ids=["format", "packing-kind"],
)
def test_a_choice_flag_offers_the_library_choices(command, option, choices, refuse):
    # argparse offers exactly the tuple the library checks against, and the
    # library's refusal lists the same values in the same order
    assert tuple(_flag(build_parser(), option, command).choices) == choices
    with pytest.raises(ValidationError, match=re.escape(f"choose one of {', '.join(choices)}")):
        refuse("nope")
