"""Experiment harness and command-line interface, end to end."""

import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import fogas
from fogas import harness
from fogas.cli import main as cli_main
from fogas.oracle import evaluate_policy, solve_optimal
from fogas.solver import FogasConfig, canonical_d_theta, theoretical_min_iterations

from conftest import edit_archive, read_archive


class TestBehaviorPolicy:
    def test_uniform(self, default_mdp):
        beh = harness.behavior_policy(default_mdp, "uniform")
        assert np.allclose(beh.probs, 1.0 / 3.0)

    def test_eps_zero_is_optimal(self, default_mdp):
        beh = harness.behavior_policy(default_mdp, "eps:0")
        pi_star, _ = solve_optimal(default_mdp)
        assert np.array_equal(beh.probs, pi_star.probs)

    def test_eps_one_is_uniform(self, default_mdp):
        beh = harness.behavior_policy(default_mdp, "eps:1")
        assert np.allclose(beh.probs, 1.0 / 3.0)

    def test_invalid_specs(self, default_mdp):
        for spec in ("eps:1.5", "greedy", "eps:abc", "eps:", "eps:nan"):
            message = f'behavior must be "uniform" or "eps:<v>" with v in [0, 1], got {spec!r}'
            with pytest.raises(ValueError) as info:
                harness.behavior_policy(default_mdp, spec)
            assert str(info.value) == message


class TestExperimentConfig:
    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        for key, value in (("bogus", 1), ("output_dir", "/nonexistent/x")):
            path.write_text(json.dumps({
                "mdp": {"states": 5, "actions": 3, "dim": 4, "gamma": 0.9},
                key: value,
            }))
            with pytest.raises(ValueError, match=key):
                harness.ExperimentConfig.from_json(path)

    def test_empty_seeds_rejected(self):
        # Non-integer seeds are rejected too, never truncated, and so are
        # negative ones, which numpy's generators refuse.
        for seeds in ((), (1.5,), (True,), (0, 1.0), (0, -1)):
            with pytest.raises(ValueError, match="seeds"):
                harness.ExperimentConfig(mdp={"path": "x"}, seeds=seeds)

    def test_bad_n_rejected(self):
        for n_values in ((0,), (), (64.9, True), (64.0,), (True,), (64, -1)):
            with pytest.raises(ValueError, match="n_values|n values"):
                harness.ExperimentConfig(mdp={"path": "x"}, n_values=n_values)

    @pytest.mark.parametrize("key, value", [
        ("states", 0), ("states", 5.0), ("actions", True), ("dim", -2), ("dim", "4"),
        ("seed", -1), ("seed", 1.7), ("gamma", 1.0), ("gamma", 0.0), ("gamma", float("nan")),
        ("gamma", "0.9"), ("gamma", True),
    ])
    def test_bad_generator_params_rejected(self, key, value):
        """Each generator value out of range or of the wrong type is named:
        a float seed is never truncated to another generator seed."""
        mdp = {"states": 5, "actions": 3, "dim": 4, "gamma": 0.9, key: value}
        with pytest.raises(ValueError, match=f"mdp {key} must"):
            harness.ExperimentConfig(mdp=mdp)

    def test_unknown_sampling_mode_rejected(self):
        with pytest.raises(ValueError, match="^unknown sampling_mode 'bogus'$"):
            harness.ExperimentConfig(mdp={"path": "x"}, sampling_mode="bogus")

    def test_generator_params(self):
        cfg = harness.ExperimentConfig(
            mdp={"states": 5, "actions": 3, "dim": 4, "gamma": 0.9, "seed": 2})
        mdp = cfg.load_mdp()
        assert mdp.num_states == 5 and mdp.dim == 4


class TestExperimentSpecs:
    SPEC_DIR = Path(__file__).resolve().parent.parent / "experiments"

    def test_every_spec_parses(self):
        paths = sorted(self.SPEC_DIR.glob("*.json"))
        assert paths
        for path in paths:
            harness.ExperimentConfig.from_json(path)

    def test_default_grid(self):
        """The default sample-size grid, A9's cells among them, every key
        written out."""
        path = self.SPEC_DIR / "default.json"
        assert harness.ExperimentConfig.from_json(path) == harness.ExperimentConfig(
            mdp={"states": 5, "actions": 3, "dim": 4, "gamma": 0.9, "seed": 0},
            behavior="uniform",
            sampling_mode="uniform",
            n_values=(256, 1024, 4096, 16384),
            seeds=tuple(range(10)),
            fogas={"auto_tune": True, "T_cap": 20000},
        )
        assert set(json.loads(path.read_text())) == {
            f.name for f in fields(harness.ExperimentConfig)}


class TestResolveIterations:
    """A sweep's T comes from ``FogasConfig.resolved``: the explicit value, or
    the theoretical minimum rounded up and capped by T_cap."""

    def test_explicit_wins(self, default_mdp):
        assert FogasConfig(T=7, auto_tune=True).resolved(default_mdp, 4096).T == 7

    def test_cap_applies(self, default_mdp):
        T = FogasConfig(T_cap=500, auto_tune=True).resolved(default_mdp, 10**7).T
        assert T == 500

    def test_theorem_minimum_used(self, default_mdp):
        T = FogasConfig(auto_tune=True).resolved(default_mdp, 1024).T
        assert T == int(np.ceil(theoretical_min_iterations(default_mdp, 1024, 0.05)))


class TestRunCell:
    def test_record_sane(self, default_mdp):
        beh = fogas.uniform_policy(5, 3)
        record, run = harness.run_cell(default_mdp, beh, "uniform", 256, 0,
                                       {"auto_tune": True, "T": 40})
        assert record.n == 256 and record.T == 40
        assert record.suboptimality >= -1e-9
        assert record.suboptimality <= 1.0 / (1.0 - 0.9)
        assert record.mean_suboptimality >= -1e-9
        assert record.coverage_ratio > 0
        assert record.status == "ok"

    def test_t1_suboptimality_is_uniform_gap(self, default_mdp):
        beh = fogas.uniform_policy(5, 3)
        record, _ = harness.run_cell(default_mdp, beh, "uniform", 128, 0,
                                     {"auto_tune": True, "T": 1})
        _, star = solve_optimal(default_mdp)
        uniform_gap = star.return_value \
            - evaluate_policy(default_mdp, beh).return_value
        assert abs(record.suboptimality - uniform_gap) <= 1e-10


class TestSweep:
    def make_config(self, **overrides):
        fields = dict(
            mdp={"states": 5, "actions": 3, "dim": 4, "gamma": 0.9, "seed": 0},
            behavior="uniform",
            sampling_mode="uniform",
            n_values=(64, 128),
            seeds=(0, 1),
            fogas={"auto_tune": True, "T": 30},
        )
        fields.update(overrides)
        return harness.ExperimentConfig(**fields)

    def test_grid_shape_and_schema(self, tmp_path):
        records = harness.run_sweep(self.make_config())
        assert len(records) == 4
        out = tmp_path / "results.csv"
        harness.write_records(records, out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ("mdp_id,n,seed,T,coverage_ratio,suboptimality,"
                            "mean_suboptimality,wall_time_ms,status")
        assert len(lines) == 5

    def test_reproducible_modulo_timing(self):
        def strip_timing(records):
            return [(r.n, r.seed, r.T, r.coverage_ratio,
                     r.suboptimality, r.mean_suboptimality, r.status)
                    for r in records]
        a = harness.run_sweep(self.make_config())
        b = harness.run_sweep(self.make_config())
        assert strip_timing(a) == strip_timing(b)

    def test_records_match_per_seed_cells(self):
        """A sweep's records equal the one-seed cells' in every field but the
        wall time."""
        config = self.make_config(n_values=(64, 256), seeds=(0, 1, 2))
        records = harness.run_sweep(config)
        mdp = config.load_mdp()
        beh = harness.behavior_policy(mdp, config.behavior)
        cells = [harness.run_cell(mdp, beh, config.sampling_mode, n, seed, config.fogas)[0]
                 for n in config.n_values for seed in config.seeds]
        assert [replace(r, wall_time_ms=0.0) for r in records] == \
            [replace(r, wall_time_ms=0.0) for r in cells]
        assert all(r.wall_time_ms > 0 for r in records)

    def test_one_cell_and_one_run_per_grid_point(self, monkeypatch):
        """``run_sweep`` calls ``run_cell``, and it ``run_fogas``, once per
        (n, seed), in grid order, failed cells included."""
        calls = {"run_cell": [], "run_fogas": []}
        for name in calls:
            def counting(*args, name=name, original=getattr(harness, name)):
                calls[name].append(args)
                return original(*args)
            monkeypatch.setattr(harness, name, counting)
        grid = [(n, seed) for n in (64, 128, 256) for seed in (3, 0)]
        harness.run_sweep(self.make_config(n_values=(64, 128, 256), seeds=(3, 0)))
        assert [args[3:5] for args in calls["run_cell"]] == grid
        assert [(len(ds), cfg.seed) for _, ds, cfg in calls["run_fogas"]] == grid
        for name in calls:
            calls[name].clear()
        failing = self.make_config(fogas={"auto_tune": True, "T": 30, "eta": 1e250,
                                          "d_theta": 1e100})
        assert all(r.status == "error:FloatingPointError" for r in harness.run_sweep(failing))
        assert len(calls["run_cell"]) == len(calls["run_fogas"]) == 4

    def test_optimal_policy_solved_once_per_sweep(self, monkeypatch):
        """An eps:0.5 occupancy sweep solves pi* once, for the behavior and
        every cell's scores, and the shared evaluation cannot be edited."""
        calls = []

        def counting(mdp, original=fogas.oracle.solve_optimal):
            calls.append(mdp)
            return original(mdp)
        monkeypatch.setattr(fogas.oracle, "solve_optimal", counting)
        config = self.make_config(behavior="eps:0.5", sampling_mode="occupancy")
        records = harness.run_sweep(config)
        assert [r.status for r in records] == ["ok"] * 4
        assert len(calls) == 1
        _, star = calls[0].optimal
        for name in ("q", "v", "theta_pi", "mu", "lambda_pi"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(star, name)[0] = 0.0

    def test_failures_recorded_per_row(self):
        config = self.make_config(
            fogas={"auto_tune": True, "T": 30, "eta": 1e250, "d_theta": 1e100})
        records = harness.run_sweep(config)
        assert all(r.status.startswith("error:") for r in records)
        assert all(r.message for r in records)

    def test_summary_median(self):
        records = harness.run_sweep(self.make_config())
        summary = harness.summarize_by_n(records)
        assert set(summary) == {64, 128}
        assert all(np.isfinite(v) for v in summary.values())

    def test_median_suboptimality_improves_with_n(self, default_mdp):
        """Sample-size sweep on the default environment: the bigger dataset
        should score better in the median."""
        beh = fogas.uniform_policy(5, 3)
        medians = {}
        for n in (256, 16384):
            subs = [harness.run_cell(default_mdp, beh, "uniform", n, seed,
                                     {"auto_tune": True, "T_cap": 20000})[0]
                    .suboptimality for seed in range(10)]
            medians[n] = np.median(subs)
        assert medians[16384] < medians[256]


class TestCli:
    def generate(self, tmp_path):
        mdp_path = tmp_path / "m.npz"
        code = cli_main(["generate", "--states", "5", "--actions", "3",
                         "--dim", "4", "--gamma", "0.9", "--seed", "1",
                         "--out", str(mdp_path)])
        assert code == 0
        return mdp_path

    def test_generate_validate(self, tmp_path, capsys):
        mdp_path = self.generate(tmp_path)
        out = capsys.readouterr().out
        assert "R = " in out and "d = 4" in out
        assert cli_main(["validate", "--mdp", str(mdp_path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_generate_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.npz"
        b = tmp_path / "b.npz"
        for p in (a, b):
            cli_main(["generate", "--states", "5", "--actions", "3",
                      "--dim", "4", "--gamma", "0.9", "--seed", "1",
                      "--out", str(p)])
        assert a.read_bytes() == b.read_bytes()

    def test_generate_negative_seed(self, tmp_path, capsys):
        code = cli_main(["generate", "--states", "5", "--actions", "3", "--dim", "4",
                         "--gamma", "0.9", "--seed", "-1", "--out", str(tmp_path / "m.npz")])
        assert code == 2
        assert capsys.readouterr().err == "seed must be an integer >= 0, got -1\n"

    def test_generate_bad_dim(self, tmp_path, capsys):
        code = cli_main(["generate", "--states", "5", "--actions", "3",
                         "--dim", "0", "--gamma", "0.9",
                         "--out", str(tmp_path / "m.npz")])
        assert code == 2
        assert "dim must be" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--states", "0", "states must be an integer >= 1, got 0"),
        ("--gamma", "1.5", "gamma must lie in (0, 1), got 1.5"),
    ])
    def test_generate_flag_out_of_range(self, tmp_path, capsys, flag, value, message):
        argv = {"--states": "5", "--actions": "3", "--dim": "4", "--gamma": "0.9",
                flag: value}
        mdp_path = tmp_path / "m.npz"
        code = cli_main(["generate", *(x for item in argv.items() for x in item),
                         "--out", str(mdp_path)])
        assert code == 2
        assert capsys.readouterr().err == message + "\n"
        assert not mdp_path.exists()

    def test_validate_flags_corruption(self, tmp_path, capsys):
        mdp_path = self.generate(tmp_path)
        edit_archive(mdp_path, lambda doc: doc.update(omega=np.full(4, 3.0)))  # > sqrt(d)
        assert cli_main(["validate", "--mdp", str(mdp_path)]) == 1
        assert "omega-norm" in capsys.readouterr().out

    def test_nonfinite_mdp_rejected(self, tmp_path, capsys):
        mdp_path = self.generate(tmp_path)
        edit_archive(mdp_path, lambda doc: doc["omega"].__setitem__(0, float("nan")))
        assert cli_main(["validate", "--mdp", str(mdp_path)]) == 1
        assert "omega is not finite" in capsys.readouterr().err
        code = cli_main(["collect", "--mdp", str(mdp_path), "--behavior", "eps:0.1",
                         "--n", "10", "--out", str(tmp_path / "d.npz")])
        assert code == 1
        assert "omega is not finite" in capsys.readouterr().err

    def test_mdp_missing_key_rejected(self, tmp_path, capsys):
        mdp_path = self.generate(tmp_path)
        edit_archive(mdp_path, lambda doc: doc.pop("psi"))
        assert cli_main(["validate", "--mdp", str(mdp_path)]) == 1
        assert "lacks the entry 'psi'" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert cli_main(["validate", "--mdp", str(tmp_path / "nope.npz")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_out_is_directory(self, tmp_path, capsys):
        """Any OSError exits 1 with one line naming the file."""
        code = cli_main(["generate", "--states", "5", "--actions", "3", "--dim", "4",
                         "--gamma", "0.9", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == f"{tmp_path}: Is a directory\n"

    def test_collect_row_count(self, tmp_path, capsys):
        mdp_path = self.generate(tmp_path)
        data_path = tmp_path / "d.npz"
        code = cli_main(["collect", "--mdp", str(mdp_path), "--n", "10",
                         "--seed", "0", "--out", str(data_path)])
        assert code == 0
        entries = read_archive(data_path)
        assert entries.pop("kind") == "fogas-dataset/1"
        assert {name: len(column) for name, column in entries.items()} == {
            "x": 10, "a": 10, "r": 10, "x_next": 10}

    def test_collect_bad_n(self, tmp_path, capsys):
        mdp_path = self.generate(tmp_path)
        data_path = tmp_path / "d.npz"
        code = cli_main(["collect", "--mdp", str(mdp_path), "--n", "0",
                         "--out", str(data_path)])
        assert code == 2
        assert "n must be" in capsys.readouterr().err
        assert not data_path.exists()

    def test_collect_bad_seed(self, tmp_path, capsys):
        mdp_path = self.generate(tmp_path)
        data_path = tmp_path / "d.npz"
        code = cli_main(["collect", "--mdp", str(mdp_path), "--n", "16", "--seed", "-1",
                         "--out", str(data_path)])
        assert code == 2
        assert capsys.readouterr().err == "seed must be an integer >= 0, got -1\n"
        assert not data_path.exists()

    def test_collect_bad_behavior(self, tmp_path, capsys):
        mdp_path = self.generate(tmp_path)
        data_path = tmp_path / "d.npz"
        for spec in ("bogus", "eps:abc", "eps:"):
            code = cli_main(["collect", "--mdp", str(mdp_path), "--n", "16",
                             "--behavior", spec, "--out", str(data_path)])
            assert code == 2
            assert capsys.readouterr().err == (
                f'behavior must be "uniform" or "eps:<v>" with v in [0, 1], got {spec!r}\n')
            assert not data_path.exists()

    def pipeline(self, tmp_path, extra_solve_args=()):
        mdp_path = self.generate(tmp_path)
        data_path = tmp_path / "d.npz"
        run_path = tmp_path / "run.npz"
        cli_main(["collect", "--mdp", str(mdp_path), "--n", "256",
                  "--seed", "0", "--out", str(data_path)])
        code = cli_main(["solve", "--mdp", str(mdp_path), "--data",
                         str(data_path), "--auto-tune", "--T", "40",
                         "--seed", "0", "--out", str(run_path),
                         *extra_solve_args])
        assert code == 0
        return mdp_path, data_path, run_path

    def test_solve_and_diagnose(self, tmp_path, capsys):
        mdp_path, data_path, run_path = self.pipeline(
            tmp_path, ("--record-trajectory",))
        report_path = tmp_path / "gap.csv"
        code = cli_main(["diagnose", "--mdp", str(mdp_path), "--data",
                         str(data_path), "--run", str(run_path),
                         "--out", str(report_path)])
        assert code == 0
        lines = report_path.read_text().strip().split("\n")
        assert lines[0].startswith("gap,regret_pi,regret_lambda")
        values = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(values["decomposition_residual"]) <= 1e-8
        assert float(values["identity_residual"]) <= 1e-8

    def test_solve_without_results_scores_no_iterates(self, tmp_path, capsys,
                                                      monkeypatch):
        """Only the --results row reads the mean-iterate suboptimality, so a
        recorded solve without it never scores the iterates."""
        def refuse(*args):
            raise AssertionError("iterates scored without --results")

        monkeypatch.setattr(harness, "mean_iterate_suboptimality", refuse)
        self.pipeline(tmp_path, ("--record-trajectory",))
        assert "suboptimality = " in capsys.readouterr().out

    def test_solve_results_row_scores_iterates(self, tmp_path, capsys):
        """With --record-trajectory and --results the row's mean suboptimality
        is finite and equals mean_iterate_suboptimality on the loaded run.
        The run file and the printed line are those of a solve without
        --results."""
        results = tmp_path / "results.csv"
        mdp_path, data_path, run_path = self.pipeline(
            tmp_path, ("--record-trajectory", "--results", str(results)))
        printed = capsys.readouterr().out.splitlines()[-1]  # after generate's and collect's
        header, line = results.read_text().strip().split("\n")
        row = dict(zip(header.split(","), line.split(",")))
        mdp = fogas.load_mdp(mdp_path)
        run = fogas.load_run(run_path, mdp)
        want = harness.mean_iterate_suboptimality(mdp, run, solve_optimal(mdp)[1].return_value)
        assert np.isfinite(want) and float(row["mean_suboptimality"]) == want

        plain_path = tmp_path / "plain.npz"
        assert cli_main(["solve", "--mdp", str(mdp_path), "--data", str(data_path),
                         "--auto-tune", "--T", "40", "--seed", "0", "--record-trajectory",
                         "--out", str(plain_path)]) == 0
        assert capsys.readouterr().out.splitlines() == [printed]
        assert plain_path.read_bytes() == run_path.read_bytes()

    def test_solve_results_appends_under_its_header_only(self, tmp_path, capsys):
        """--results appends a row to a new, empty or results file, and refuses
        a file with another first line before running the solver."""
        mdp_path, data_path, run_path = self.pipeline(tmp_path)
        solve = ["solve", "--mdp", str(mdp_path), "--data", str(data_path),
                 "--auto-tune", "--T", "40", "--out", str(run_path), "--results"]
        results = tmp_path / "results.csv"
        results.write_text("")
        for seed in ("0", "1"):
            assert cli_main([*solve, str(results), "--seed", seed]) == 0
        header, *rows = results.read_text().splitlines()
        assert header == harness.RESULTS_HEADER
        assert [row.split(",")[2] for row in rows] == ["0", "1"]

        other = tmp_path / "other.csv"
        other.write_text("a,b,c\n1,2,3\n")
        run_path.unlink()
        capsys.readouterr()
        assert cli_main([*solve, str(other)]) == 1
        assert capsys.readouterr().err == (
            f"{other} is not a results CSV: its first line is not {harness.RESULTS_HEADER}\n")
        assert other.read_text() == "a,b,c\n1,2,3\n"
        assert not run_path.exists()

    def test_solve_results_ends_an_unterminated_last_row(self, tmp_path):
        """A results file whose last row lacks its newline gets it before the
        appended row, so the two rows stay apart."""
        mdp_path, data_path, run_path = self.pipeline(tmp_path)
        results = tmp_path / "results.csv"
        solve = ["solve", "--mdp", str(mdp_path), "--data", str(data_path), "--auto-tune",
                 "--T", "40", "--out", str(run_path), "--results", str(results)]
        assert cli_main([*solve, "--seed", "0"]) == 0
        results.write_text(results.read_text().removesuffix("\n"))
        assert cli_main([*solve, "--seed", "1"]) == 0
        header, *rows = results.read_text().split("\n")
        assert header == harness.RESULTS_HEADER
        assert rows[-1] == ""
        assert [row.split(",")[2] for row in rows[:-1]] == ["0", "1"]
        assert all(len(row.split(",")) == len(header.split(",")) for row in rows[:-1])

    def test_diagnose_without_trajectory_advises(self, tmp_path, capsys):
        mdp_path, data_path, run_path = self.pipeline(tmp_path)
        code = cli_main(["diagnose", "--mdp", str(mdp_path), "--data",
                         str(data_path), "--run", str(run_path),
                         "--out", str(tmp_path / "gap.csv")])
        assert code == 1
        assert "--record-trajectory" in capsys.readouterr().err

    def diagnose(self, tmp_path, mdp_path, data_path, run_path):
        return cli_main(["diagnose", "--mdp", str(mdp_path), "--data",
                         str(data_path), "--run", str(run_path),
                         "--out", str(tmp_path / "gap.csv")])

    def test_run_file_unknown_config_key_rejected(self, tmp_path, capsys):
        paths = self.pipeline(tmp_path, ("--record-trajectory",))
        edit_archive(paths[2], lambda doc: doc.update({"config.bogus": np.array(1)}))
        assert self.diagnose(tmp_path, *paths) == 1
        assert "bogus" in capsys.readouterr().err

    def test_run_file_short_trajectory_rejected(self, tmp_path, capsys):
        paths = self.pipeline(tmp_path, ("--record-trajectory",))
        edit_archive(paths[2], lambda doc: doc.update(thetas=doc["thetas"][:-1]))
        assert self.diagnose(tmp_path, *paths) == 1
        assert "thetas has shape (39, 4), expected (40, 4)" in capsys.readouterr().err

    def test_run_file_nonfinite_rejected(self, tmp_path, capsys):
        """A NaN in the run file fails diagnose instead of a NaN residual
        printed as asserted."""
        paths = self.pipeline(tmp_path, ("--record-trajectory",))
        edit_archive(paths[2], lambda doc: doc["thetas"][0].__setitem__(0, float("nan")))
        assert self.diagnose(tmp_path, *paths) == 1
        assert "thetas is not finite" in capsys.readouterr().err

    def test_solve_manual_rates(self, tmp_path, capsys):
        mdp_path = self.generate(tmp_path)
        data_path = tmp_path / "d.npz"
        cli_main(["collect", "--mdp", str(mdp_path), "--n", "128",
                  "--seed", "0", "--out", str(data_path)])
        results = tmp_path / "results.csv"
        code = cli_main(["solve", "--mdp", str(mdp_path), "--data",
                         str(data_path), "--rates", "0.01,0.1,0.05,0.001",
                         "--T", "30", "--seed", "0",
                         "--out", str(tmp_path / "run.npz"),
                         "--results", str(results)])
        assert code == 0
        lines = results.read_text().strip().split("\n")
        assert len(lines) == 2 and lines[1].split(",")[1] == "128"
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["wall_time_ms"]) > 0

    def test_solve_rates_resolves_T_and_radius(self, tmp_path, capsys):
        """Without --T and --d-theta, T is the theoretical minimum rounded up
        and the radius sqrt(d)/(1-gamma), as in an auto-tuned run."""
        mdp_path = self.generate(tmp_path)
        data_path, run_path = tmp_path / "d.npz", tmp_path / "run.npz"
        cli_main(["collect", "--mdp", str(mdp_path), "--n", "128", "--out", str(data_path)])
        assert cli_main(["solve", "--mdp", str(mdp_path), "--data", str(data_path),
                         "--rates", "0.01,0.1,0.05,0.001", "--out", str(run_path)]) == 0
        entries = read_archive(run_path)
        mdp = fogas.load_mdp(mdp_path)
        for name, dtype, want in (
                ("T", np.int64, np.ceil(theoretical_min_iterations(mdp, 128, 0.05))),
                ("T_cap", np.int64, 20000),
                ("d_theta", np.float64, canonical_d_theta(mdp))):
            entry = entries[f"config.{name}"]
            assert entry.dtype == dtype and entry.shape == () and entry == want, name

    def test_solve_auto_tune_keeps_d_theta(self, tmp_path, capsys):
        _, _, run_path = self.pipeline(tmp_path, ("--d-theta", "0.5"))
        assert read_archive(run_path)["config.d_theta"] == 0.5

    def test_solve_bad_T(self, tmp_path, capsys):
        mdp_path = self.generate(tmp_path)
        run_path = tmp_path / "run.npz"
        code = cli_main(["solve", "--mdp", str(mdp_path), "--data",
                         str(tmp_path / "d.npz"), "--auto-tune", "--T", "0",
                         "--out", str(run_path)])
        assert code == 2
        assert "T must be" in capsys.readouterr().err
        assert not run_path.exists()

    @pytest.mark.parametrize("args, message", [
        (("--auto-tune", "--T", "20", "--delta", "2"), "delta must lie in (0, 1)"),
        # Without --T, the auto-tuned T divides by log(1/delta).
        (("--auto-tune", "--delta", "0"), "delta must lie in (0, 1)"),
        (("--auto-tune", "--delta", "1"), "delta must lie in (0, 1)"),
        (("--auto-tune", "--T", "20", "--d-theta", "-1"), "d_theta must be positive"),
        (("--rates", "0.1,0.1,-1,0.1", "--T", "20"), "eta must be positive"),
        (("--auto-tune", "--T", "20", "--seed", "-3"), "seed must be an integer >= 0"),
        (("--rates", "0.1,0.2,0.3", "--T", "20"),
         "--rates expects four comma-separated values: alpha,rho,eta,beta"),
    ], ids=["delta-2", "delta-0-auto-T", "delta-1-auto-T", "d-theta", "rates", "seed",
            "three-rates"])
    def test_solve_flag_out_of_range(self, tmp_path, capsys, args, message):
        mdp_path = self.generate(tmp_path)
        data_path = tmp_path / "d.npz"
        cli_main(["collect", "--mdp", str(mdp_path), "--n", "16", "--out", str(data_path)])
        run_path = tmp_path / "run.npz"
        code = cli_main(["solve", "--mdp", str(mdp_path), "--data", str(data_path), *args,
                         "--out", str(run_path)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not run_path.exists()

    def test_solve_requires_rates_or_auto(self, tmp_path, capsys):
        mdp_path = self.generate(tmp_path)
        data_path = tmp_path / "d.npz"
        cli_main(["collect", "--mdp", str(mdp_path), "--n", "16",
                  "--seed", "0", "--out", str(data_path)])
        code = cli_main(["solve", "--mdp", str(mdp_path), "--data",
                         str(data_path), "--T", "5", "--seed", "0",
                         "--out", str(tmp_path / "run.npz")])
        assert code == 2
        assert capsys.readouterr().err == (
            "all of alpha, rho, eta, beta must be set unless auto_tune\n")

    def test_sweep_csv(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "mdp": {"states": 5, "actions": 3, "dim": 4, "gamma": 0.9,
                    "seed": 0},
            "n_values": [64, 128],
            "seeds": [0, 1],
            "fogas": {"auto_tune": True, "T": 20},
        }))
        out = tmp_path / "results.csv"
        assert cli_main(["sweep", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 5
        printed = capsys.readouterr().out
        assert "median_mean_suboptimality" in printed

    def test_sweep_unwritable_out_runs_no_cell(self, tmp_path, capsys, monkeypatch):
        """An --out in a missing directory, or one that is a directory, fails
        before the first cell."""
        calls = []
        monkeypatch.setattr(harness, "run_cell", lambda *args: calls.append(args))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"mdp": {"states": 5, "actions": 3, "dim": 4,
                                                "gamma": 0.9}, "n_values": [64]}))
        missing = tmp_path / "missing" / "results.csv"
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(missing)]) == 1
        assert capsys.readouterr().err.startswith(f"file not found: {missing}")
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"{tmp_path}: Is a directory\n"
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_sweep_replaces_out_only_when_done(self, tmp_path, capsys, monkeypatch):
        """An existing --out keeps its content while the grid runs and when the
        sweep is interrupted; the partial file is removed either way."""
        class Interrupted(BaseException):
            pass

        out = tmp_path / "results.csv"
        out.write_text("old\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "mdp": {"states": 5, "actions": 3, "dim": 4, "gamma": 0.9},
            "n_values": [64], "seeds": [0, 1], "fogas": {"auto_tune": True, "T": 20}}))
        run_cell = harness.run_cell

        def checking(*args):
            assert out.read_text() == "old\n"
            if interrupt:
                raise Interrupted
            return run_cell(*args)

        monkeypatch.setattr(harness, "run_cell", checking)
        interrupt = True
        with pytest.raises(Interrupted):
            cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "results.csv"]
        assert out.read_text() == "old\n"
        interrupt = False
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == harness.RESULTS_HEADER
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "results.csv"]

    def test_sweep_incomplete_generator_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"mdp": {"states": 5}}))
        assert cli_main(["sweep", "--config", str(cfg_path),
                         "--out", str(tmp_path / "results.csv")]) == 2
        assert "missing ['actions', 'dim', 'gamma']" in capsys.readouterr().err

    def test_sweep_bad_grid_rejected(self, tmp_path, capsys):
        mdp = {"states": 5, "actions": 3, "dim": 4, "gamma": 0.9}
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "results.csv"
        for grid, message in (({"n_values": []}, "n_values list must be nonempty"),
                              ({"n_values": [64.9]}, "n values must be integers"),
                              ({"seeds": [1.5]}, "seeds must be integers"),
                              ({"seeds": [0, -1]}, "seeds must be integers >= 0"),
                              ({"mdp": {**mdp, "seed": -1}}, "mdp seed must be an integer"),
                              ({"mdp": {**mdp, "sed": 7}},
                               "unknown keys in a generator mdp spec: ['sed']"),
                              ({"mdp": {"path": str(tmp_path / "m.npz"), "states": 5}},
                               "unknown keys in a path mdp spec: ['states']"),
                              # An integer path would be opened as a file descriptor.
                              *(({"mdp": {"path": path}}, f"mdp path must be a file path, "
                                                          f"got {path!r}")
                                for path in (0, None, ["m.npz"], True)),
                              ({"mdp": {**mdp, "gamma": 1.5}}, "mdp gamma must lie in"),
                              ({"mdp": {**mdp, "states": 2, "actions": 1, "dim": 3}},
                               "dim (3) must not exceed num_states*num_actions (2)"),
                              *(({"behavior": spec}, 'behavior must be "uniform" or '
                                                     f'"eps:<v>" with v in [0, 1], got {spec!r}')
                                for spec in ("eps:2", "bogus", 3, "eps:x")),
                              ({"fogas": {"auto_tune": True, "etta": 0.1}},
                               "unknown fogas config keys: ['etta']"),
                              # Bad fogas values fail the parse, not every cell; a
                              # T or T_cap is never truncated.
                              ({"fogas": {"auto_tune": True, "T": 30, "eta": float("nan")}},
                               "eta is not finite"),
                              *(({"fogas": {"auto_tune": True, key: value}},
                                 f"{key} must be an integer >= 1, got {value!r}")
                                for key, value in (("T", 2.7), ("T", 0), ("T_cap", 2.5),
                                                   ("T_cap", True))),
                              ({"fogas": {"auto_tune": "false", "T": 20}},
                               "auto_tune must be a bool, got 'false'"),
                              ({"fogas": {"auto_tune": True, "delta": "0.1"}},
                               "delta must lie in (0, 1), got '0.1'"),
                              ({"fogas": {"auto_tune": True, "eta": "0.1"}},
                               "eta must be a number, got '0.1'"),
                              # Manual rates are all given, or the parse fails
                              # instead of every cell.
                              ({"fogas": {"auto_tune": False, "T": 20}},
                               "all of alpha, rho, eta, beta must be set unless auto_tune"),
                              ({"mdp": "mypath"}, "mdp must be an object, got 'mypath'"),
                              ({"mdp": 5}, "mdp must be an object, got 5"),
                              ({"fogas": ["T"]}, "fogas must be an object, got ['T']"),
                              ({"seeds": 3}, "seeds must be a list, got 3"),
                              ({"n_values": "64"}, "n_values must be a list, got '64'")):
            cfg_path.write_text(json.dumps({"mdp": mdp, **grid}))
            assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()
        for doc, message in (([mdp], "a sweep config must be a JSON object, got list"),
                             ({"seeds": [0]}, "a sweep config needs an mdp spec")):
            cfg_path.write_text(json.dumps(doc))
            assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
            assert capsys.readouterr().err == message + "\n"
            assert not out.exists()

    def test_sweep_non_json_config_names_its_file(self, tmp_path, capsys):
        """An empty or non-UTF-8 config is refused with exit 2, its path and
        the decoder's reason."""
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "results.csv"
        for content, reason in ((b"", "Expecting value: line 1 column 1 (char 0)"),
                                (b"\xff{}", "'utf-8' codec can't decode byte 0xff")):
            cfg_path.write_bytes(content)
            assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(f"{cfg_path}: not a JSON file: {reason}")
            assert not out.exists()

    def test_sweep_reports_failed_cells(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "mdp": {"states": 5, "actions": 3, "dim": 4, "gamma": 0.9,
                    "seed": 0},
            "n_values": [64],
            "seeds": [0, 1],
            "fogas": {"auto_tune": True, "T": 30, "eta": 1e250, "d_theta": 1e100},
        }))
        assert cli_main(["sweep", "--config", str(cfg_path),
                         "--out", str(tmp_path / "results.csv")]) == 1
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 2
        assert err[0].startswith("n=64 seed=0 error:FloatingPointError: non-finite")
