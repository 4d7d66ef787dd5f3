import json
from pathlib import Path

import numpy as np
import pytest

from meanfield.cli import main, run, validate


def write_config(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload))
    return path


def coupling_config(out_dir=None, **overrides):
    cfg = {
        "kind": "coupling_rate",
        "seed": 321,
        "n_list": [10, 20, 40],
        "replicas": 4,
        "time": {"t0": 0.0, "t_end": 0.3, "dt": 0.01},
        "params": {"lambda": 1.0, "kappa": 1.0, "m0": 1.0, "v0": 1.0},
    }
    if out_dir is not None:
        cfg["out_dir"] = str(out_dir)
    cfg.update(overrides)
    return cfg


class TestValidate:
    def test_valid_config_no_violations(self):
        assert validate(coupling_config()) == []

    def test_empty_n_list_names_field(self):
        violations = validate(coupling_config(n_list=[]))
        assert any(v.startswith("n_list") for v in violations)

    def test_unsorted_n_list(self):
        violations = validate(coupling_config(n_list=[40, 10, 20]))
        assert any("ascending" in v for v in violations)

    def test_missing_seed(self):
        cfg = coupling_config()
        del cfg["seed"]
        assert any(v.startswith("seed") for v in validate(cfg))

    def test_unknown_kind(self):
        assert any(v.startswith("kind") for v in validate(coupling_config(kind="nonsense")))

    def test_eks_requires_spd_covariances(self):
        cfg = {
            "kind": "eks", "seed": 1, "n_list": [50],
            "params": {"G": [[1.0, 0.0], [0.0, 1.0]], "y": [0.0, 0.0],
                       "Gamma": [[1.0, 2.0], [2.0, 1.0]], "Gamma0": [[1.0, 0.0], [0.0, 1.0]]},
        }
        violations = validate(cfg)
        assert any("Gamma" in v and "positive definite" in v for v in violations)

    def test_sweep_kinds_need_three_sizes(self):
        violations = validate(coupling_config(n_list=[10, 20]))
        assert any("at least 3" in v for v in violations)

    def test_cmc_burn_in_must_leave_samples(self):
        cfg = {"kind": "cmc", "seed": 8, "n_list": [20], "params": {"steps": 30, "burn_in": 30}}
        assert any(v.startswith("params.burn_in") for v in validate(cfg))
        cfg["params"]["burn_in"] = 29
        assert validate(cfg) == []

    def test_kuramoto_case_init_checked(self):
        cfg = {
            "kind": "kuramoto_sweep", "seed": 1, "n_list": [20],
            "time": {"t0": 0.0, "t_end": 1.0, "dt": 0.1},
            "params": {"cases": [{"coupling": 2.0, "init": "weird"}]},
        }
        assert any("init" in v for v in validate(cfg))

    def test_eks_non_numeric_covariance_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "kind": "eks", "seed": 1, "n_list": [50],
            "params": {"G": [[1.0, 0.0], [0.0, 1.0]], "y": [0.0, 0.0],
                       "Gamma": "abc", "Gamma0": [[1.0, 0.0], [1.0]]},
        })
        violations = validate(json.loads(cfg.read_text()))
        assert any(v.startswith("params.Gamma: Gamma must be a numeric matrix") for v in violations)
        assert any(v.startswith("params.Gamma0: Gamma0 must be a numeric matrix") for v in violations)
        assert main(["validate", str(cfg)]) == 2
        assert run(cfg, out_dir=tmp_path / "out") == 2

    def test_kuramoto_non_object_case_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "kind": "kuramoto_sweep", "seed": 1, "n_list": [20],
            "time": {"t0": 0.0, "t_end": 1.0, "dt": 0.1},
            "params": {"cases": [{"coupling": 2.0, "init": "uniform"}, 3]},
        })
        assert validate(json.loads(cfg.read_text())) == ["params.cases[1]: must be an object, got 3"]
        assert main(["validate", str(cfg)]) == 2
        assert run(cfg, out_dir=tmp_path / "out") == 2

    @pytest.mark.parametrize("payload", [
        [1, 2],
        {"kind": ["eks"], "seed": 1, "n_list": [10]},
        {"kind": "kuramoto_sweep", "seed": 1, "n_list": [20],
         "time": {"t0": 0.0, "t_end": 1.0, "dt": 0.1}, "params": {"cases": 3}},
    ])
    def test_malformed_structure_is_a_violation(self, tmp_path, payload):
        cfg = write_config(tmp_path / "c.json", payload)
        assert validate(payload)
        assert main(["validate", str(cfg)]) == 2


    @pytest.mark.parametrize("thresholds, field", [
        ({"slope": 0.5}, "thresholds.slope:"),
        (["slope"], "thresholds:"),
        ({"slope": {"range": [1]}}, "thresholds.slope:"),
        ({"slope": {"min": "a"}}, "thresholds.slope:"),
        ({"slope": {"maximum": 1.0}}, "thresholds.slope:"),
    ])
    def test_threshold_shape_exit_2(self, tmp_path, thresholds, field):
        payload = coupling_config(thresholds=thresholds)
        cfg = write_config(tmp_path / "c.json", payload)
        assert [v for v in validate(payload) if v.startswith("thresholds")][0].startswith(field)
        assert main(["validate", str(cfg)]) == 2
        assert run(cfg, out_dir=tmp_path / "out") == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("payload, field", [
        ({"kind": "kuramoto_sweep", "seed": 1, "n_list": [20],
          "time": {"t0": 0.0, "t_end": 1.0, "dt": 0.1},
          "params": {"cases": [{"init": "uniform"}]}}, "params.cases[0].coupling:"),
        ({"kind": "eks", "seed": 1, "n_list": [50],
          "params": {"G": "abc", "y": [0.0, 0.0],
                     "Gamma": [[1.0, 0.0], [0.0, 1.0]], "Gamma0": [[1.0, 0.0], [0.0, 1.0]]}},
         "params.G:"),
        ({"kind": "eks", "seed": 1, "n_list": [50],
          "params": {"G": [[1.0, 0.0], [0.0, 1.0]], "y": [0.0, [1.0]],
                     "Gamma": [[1.0, 0.0], [0.0, 1.0]], "Gamma0": [[1.0, 0.0], [0.0, 1.0]]}},
         "params.y:"),
    ])
    def test_runner_fields_exit_2(self, tmp_path, payload, field):
        cfg = write_config(tmp_path / "c.json", payload)
        violations = validate(payload)
        assert len(violations) == 1 and violations[0].startswith(field)
        assert main(["validate", str(cfg)]) == 2
        assert run(cfg, out_dir=tmp_path / "out") == 2


class TestRun:
    def test_malformed_config_exit_2_no_artifacts(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out"
        assert run(bad, out_dir=out) == 2
        assert not out.exists()

    def test_invalid_config_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", coupling_config(n_list=[]))
        out = tmp_path / "out"
        assert run(cfg, out_dir=out) == 2
        assert not out.exists()

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", coupling_config())
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(cfg, out_dir=a) == 0
        assert run(cfg, out_dir=b) == 0
        for name in ("manifest.json", "summary.json", "coupling_N10.csv", "coupling_N40.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_thread_count_does_not_change_artifacts(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", coupling_config())
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(cfg, threads=1, out_dir=a) == 0
        assert run(cfg, threads=4, out_dir=b) == 0
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_threshold_failure_exit_4(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            coupling_config(thresholds={"slope": {"range": [-0.01, 0.01]}}),
        )
        out = tmp_path / "out"
        assert run(cfg, out_dir=out) == 4
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pass"] is False
        assert summary["checks"]["slope"]["pass"] is False

    @pytest.mark.parametrize("name", ["slopee", "sup_mse"])
    def test_unusable_threshold_exit_4(self, tmp_path, capsys, name):
        # "slopee" has no summary entry; "sup_mse" is a per-N table, not a number
        cfg = write_config(tmp_path / "cfg.json", coupling_config(thresholds={name: {"max": 0.1}}))
        out = tmp_path / "out"
        assert run(cfg, out_dir=out) == 4
        assert f"thresholds.{name}" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pass"] is False
        check = summary["checks"][name]
        assert check["pass"] is False and check["value"] is None
        assert f"thresholds.{name}" in check["error"]

    def test_cmc_burn_in_at_steps_exit_2(self, tmp_path, capsys):
        # burn_in == steps used to run, keep no samples and fail on NaN moments
        cfg = write_config(tmp_path / "cfg.json", {
            "kind": "cmc", "seed": 8, "n_list": [20], "params": {"steps": 30, "burn_in": 30},
        })
        out = tmp_path / "out"
        assert run(cfg, out_dir=out) == 2
        assert "params.burn_in" in capsys.readouterr().err
        assert not out.exists()

    def test_runtime_failure_exit_3(self, tmp_path, capsys):
        # schema-valid eks config whose forward map shape clashes with y
        cfg = write_config(tmp_path / "cfg.json", {
            "kind": "eks", "seed": 2, "n_list": [50],
            "params": {"G": [[1.0, 0.0], [0.0, 1.0]], "y": [0.0, 0.0, 0.0],
                       "Gamma": [[1.0, 0.0], [0.0, 1.0]],
                       "Gamma0": [[1.0, 0.0], [0.0, 1.0]], "steps": 5},
        })
        out = tmp_path / "out"
        assert run(cfg, out_dir=out) == 3
        assert (out / "manifest.json").exists()
        assert not (out / "summary.json").exists()

    def test_manifest_contents(self, tmp_path):
        cfg_dict = coupling_config()
        cfg = write_config(tmp_path / "cfg.json", cfg_dict)
        out = tmp_path / "out"
        run(cfg, out_dir=out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 321
        assert manifest["config"] == cfg_dict
        assert "tool_version" in manifest


class TestExperimentKinds:
    def test_dsmc_compare(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "kind": "dsmc_compare", "seed": 5, "n_list": [200], "replicas": 1,
            "time": {"t0": 0.0, "t_end": 0.5, "dt": 0.1},
            "params": {"pairs": 2, "d": 2},
        })
        out = tmp_path / "out"
        assert run(cfg, out_dir=out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["w1_self_mean"] > 0
        assert (out / "dsmc_pairs.csv").exists()

    def test_cbo(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "kind": "cbo", "seed": 6, "n_list": [40],
            "params": {"objective": "quadratic", "target": [1.0, 0.5], "dim": 2,
                       "seeds": 3, "steps": 200, "dt": 0.02, "tol": 0.2, "init_width": 2.0},
        })
        out = tmp_path / "out"
        assert run(cfg, out_dir=out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["successes"] >= 2
        assert len(summary["consensus"]) == 2
        assert "objective_at_consensus" in summary
        assert (out / summary["trajectory_csv"]).exists()

    def test_eks(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "kind": "eks", "seed": 7, "n_list": [300],
            "params": {"G": [[0.7, -0.5], [-0.8, 1.4]], "Gamma": [[1.0, 0.0], [0.0, 1.0]],
                       "Gamma0": [[1.0, 0.0], [0.0, 1.0]], "y": [1.0, -0.5],
                       "dt": 0.02, "steps": 300},
        })
        out = tmp_path / "out"
        assert run(cfg, out_dir=out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mean_error_in_posterior_std"] < 0.5

    def test_cmc(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "kind": "cmc", "seed": 8, "n_list": [100],
            "params": {"h": 0.5, "steps": 150, "burn_in": 50},
        })
        out = tmp_path / "out"
        assert run(cfg, out_dir=out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["pooled_mean"]) < 0.3
        assert (out / "cmc_accept_trace.csv").exists()

    def test_bossy_talay(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "kind": "bossy_talay", "seed": 9, "n_list": [50, 100, 200], "replicas": 4,
            "time": {"t0": 0.0, "t_end": 0.01, "dt": 1e-4},
            "params": {"sigma": 1.0},
        })
        out = tmp_path / "out"
        assert run(cfg, out_dir=out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert -1.0 < summary["slope"] < 0.0
        assert (out / "bossy_checkpoints.csv").exists()

    def test_kuramoto_sweep(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "kind": "kuramoto_sweep", "seed": 10, "n_list": [100],
            "time": {"t0": 0.0, "t_end": 5.0, "dt": 0.05},
            "params": {"seeds": 2, "cases": [
                {"coupling": 2.0, "init": "concentrated"},
                {"coupling": 0.2, "init": "uniform"},
            ]},
        })
        out = tmp_path / "out"
        assert run(cfg, out_dir=out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["cases"][0]["r_median"] > summary["cases"][1]["r_median"]
        assert (out / "kuramoto_r.csv").exists()


class TestMain:
    def test_validate_subcommand(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", coupling_config())
        assert main(["validate", str(cfg)]) == 0
        bad = write_config(tmp_path / "bad.json", coupling_config(n_list=[]))
        assert main(["validate", str(bad)]) == 2
        assert "n_list" in capsys.readouterr().out

    def test_run_subcommand_with_out_flag(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", coupling_config())
        out = tmp_path / "cli_out"
        assert main(["run", str(cfg), "--out", str(out), "--threads", "2"]) == 0
        assert (out / "summary.json").exists()
