import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meanfield import cli
from meanfield.cli import main, run, validate
from meanfield.core import Ensemble, RngStream, TimeGrid
from meanfield.jump import CmcConfig, cmc_run
from meanfield.mckean import kuramoto_model, simulate
from meanfield.metrics import kuramoto_order_parameter


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


_EYE = [[1.0, 0.0], [0.0, 1.0]]
SMALL_CONFIGS = {
    "dsmc_compare": {"kind": "dsmc_compare", "seed": 5, "n_list": [20],
                     "time": {"t0": 0.0, "t_end": 0.1, "dt": 0.1}, "params": {"pairs": 1, "d": 2}},
    "cbo": {"kind": "cbo", "seed": 6, "n_list": [20], "params": {"dim": 2, "seeds": 1, "steps": 5}},
    "eks": {"kind": "eks", "seed": 7, "n_list": [20],
            "params": {"G": _EYE, "y": [0.0, 0.0], "Gamma": _EYE, "Gamma0": _EYE, "steps": 5}},
    "cmc": {"kind": "cmc", "seed": 8, "n_list": [20], "params": {"steps": 20, "burn_in": 5, "dim": 1}},
    "bossy_talay": {"kind": "bossy_talay", "seed": 9, "n_list": [10, 20, 40],
                    "time": {"t0": 0.0, "t_end": 0.01, "dt": 1e-3}, "params": {"grid_points": 101}},
}


def small_config(kind, **params):
    """A small valid config of ``kind`` with ``params`` merged into its params."""
    cfg = json.loads(json.dumps(SMALL_CONFIGS[kind]))
    cfg["params"].update(params)
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

    @pytest.mark.parametrize("count", [0, "x", 2.5, True])
    @pytest.mark.parametrize("kind", ["kuramoto_sweep", "cbo"])
    def test_seed_count_exit_2(self, tmp_path, kind, count):
        payload = {"kind": kind, "seed": 1, "n_list": [20], "params": {"seeds": count}}
        if kind == "kuramoto_sweep":
            payload["time"] = {"t0": 0.0, "t_end": 0.1, "dt": 0.05}
            payload["params"]["cases"] = [{"coupling": 1.0, "init": "uniform"}]
        cfg = write_config(tmp_path / "c.json", payload)
        violations = validate(payload)
        assert len(violations) == 1 and violations[0].startswith("params.seeds:")
        assert main(["validate", str(cfg)]) == 2
        assert run(cfg, out_dir=tmp_path / "out") == 2

    @pytest.mark.parametrize("count", [0, "x", 2.5, True])
    def test_replica_count_exit_2(self, tmp_path, count):
        payload = coupling_config(replicas=count)
        cfg = write_config(tmp_path / "c.json", payload)
        assert [v for v in validate(payload) if v.startswith("replicas:")]
        assert main(["validate", str(cfg)]) == 2
        assert run(cfg, out_dir=tmp_path / "out") == 2

    @pytest.mark.parametrize("overrides, field", [
        ({"seed": True}, "seed:"),
        ({"seed": False}, "seed:"),
        ({"n_list": [True, 20, 40]}, "n_list:"),
    ])
    def test_boolean_integer_exit_2(self, tmp_path, overrides, field):
        # isinstance(True, int) holds: "seed": true used to run as seed 1
        payload = coupling_config(**overrides)
        cfg = write_config(tmp_path / "c.json", payload)
        violations = validate(payload)
        assert len(violations) == 1 and violations[0].startswith(field)
        assert main(["validate", str(cfg)]) == 2
        assert run(cfg, out_dir=tmp_path / "out") == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("payload, name", [
        (coupling_config(thresholds={"slopee": {"max": 0.1}}), "slopee"),
        (coupling_config(thresholds={"slopee.10": {"max": 0.1}}), "slopee.10"),
        ({"kind": "cmc", "seed": 8, "n_list": [20], "params": {"steps": 30, "burn_in": 10},
          "thresholds": {"slope": {"max": 0.1}}}, "slope"),
    ], ids=["slopee", "dotted", "key-of-another-kind"])
    def test_threshold_name_exit_2(self, tmp_path, capsys, payload, name):
        # the first dotted component of a threshold name must be a key of the kind's summary
        cfg = write_config(tmp_path / "c.json", payload)
        violations = validate(payload)
        assert len(violations) == 1 and violations[0].startswith(f"thresholds.{name}:")
        assert main(["validate", str(cfg)]) == 2
        assert run(cfg, out_dir=tmp_path / "out") == 2
        assert f"thresholds.{name}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, name, value", [
        ("dsmc_compare", "pairs", 0), ("dsmc_compare", "pairs", True), ("dsmc_compare", "d", 1),
        ("cbo", "dim", 0), ("cbo", "steps", 2.5), ("eks", "steps", 0),
        ("cmc", "steps", "x"), ("cmc", "dim", 0), ("cmc", "burn_in", "x"), ("cmc", "burn_in", -1),
        ("bossy_talay", "grid_points", 1), ("bossy_talay", "grid_points", False),
    ])
    def test_integer_param_exit_2(self, tmp_path, capsys, kind, name, value):
        # "pairs": 0 used to run and pass with NaN means; "burn_in": "x" and
        # "grid_points": 1 reached the runners and exited 3
        payload = small_config(kind, **{name: value})
        cfg = write_config(tmp_path / "c.json", payload)
        violations = validate(payload)
        assert len(violations) == 1 and violations[0].startswith(f"params.{name}:")
        assert main(["validate", str(cfg)]) == 2
        assert f"params.{name}:" in capsys.readouterr().out
        assert run(cfg, out_dir=tmp_path / "out") == 2
        assert f"params.{name}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, params", [
        ("dsmc_compare", {"pairs": 1, "d": 2}), ("cbo", {"dim": 1, "steps": 1}),
        ("eks", {"steps": 1}), ("cmc", {"dim": 1, "burn_in": 0}), ("bossy_talay", {"grid_points": 2}),
    ])
    def test_integer_params_at_their_least_values_pass(self, kind, params):
        assert validate(small_config(kind, **params)) == []

    @pytest.mark.parametrize("kind, name, value", [
        ("cmc", "h", 0), ("cmc", "h", -0.5), ("cmc", "h", True), ("cmc", "h", "x"), ("cmc", "h", math.inf),
        ("cbo", "dt", -0.1), ("cbo", "dt", 0.0), ("cbo", "alpha", 0), ("cbo", "lambda", None),
        ("cbo", "sigma", -1.0), ("cbo", "eps_heaviside", "x"), ("eks", "dt", -0.1),
        ("dsmc_compare", "bird_dt", 0), ("bossy_talay", "sigma", 0),
        ("coupling_rate", "v0", -1), ("coupling_rate", "v0", False), ("coupling_rate", "v0", math.nan),
    ])
    def test_real_param_exit_2(self, tmp_path, capsys, kind, name, value):
        # each of these used to pass validate; most then failed in the runner with
        # exit 3, and a boolean or an infinite "h" ran to exit 0
        payload = coupling_config() if kind == "coupling_rate" else small_config(kind)
        payload["params"][name] = value
        cfg = write_config(tmp_path / "c.json", payload)
        violations = validate(payload)
        assert len(violations) == 1 and violations[0].startswith(f"params.{name}:")
        assert main(["validate", str(cfg)]) == 2
        assert f"params.{name}:" in capsys.readouterr().out
        assert run(cfg, out_dir=tmp_path / "out") == 2
        assert f"params.{name}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, params", [
        ("cmc", {"h": 1e-3}), ("cbo", {"dt": 0.5, "alpha": 1, "lambda": 2.0, "sigma": 0, "eps_heaviside": 0.0}),
        ("eks", {"dt": 1e-3}), ("dsmc_compare", {"bird_dt": 0.05}), ("bossy_talay", {"sigma": 0.1}),
        ("coupling_rate", {"v0": 0}),
    ])
    def test_real_params_at_their_bounds_pass(self, kind, params):
        payload = coupling_config() if kind == "coupling_rate" else small_config(kind)
        payload["params"].update(params)
        assert validate(payload) == []

    def test_threshold_names_of_summary_keys_pass(self):
        thresholds = {"slope": {"max": 0.0}, "r2": {"min": 0.5}, "sup_mse.10": {"max": 1.0}}
        assert validate(coupling_config(thresholds=thresholds)) == []


class TestParamTable:
    """cli._PARAMS is the one list of each kind's params, with their checks and defaults."""

    KURAMOTO = {"kind": "kuramoto_sweep", "seed": 1, "n_list": [20],
                "time": {"t0": 0.0, "t_end": 0.1, "dt": 0.05},
                "params": {"seeds": 1, "cases": [{"coupling": 1.0, "init": "uniform"}]}}

    @pytest.mark.parametrize("kind, params, time, field", [
        ("cmc", {"stpes": 10}, None, "params.stpes:"),
        ("coupling_rate", {"lamda": 1.0}, None, "params.lamda:"),
        ("dsmc_compare", {"pair": 2}, None, "params.pair:"),
        ("cbo", {"objectve": "rastrigin"}, None, "params.objectve:"),
        ("eks", {"derivative-free": True}, None, "params.derivative-free:"),
        ("bossy_talay", {"grid": 101}, None, "params.grid:"),
        ("kuramoto_sweep", {"case": []}, None, "params.case:"),
        ("cbo", {"tol": "x"}, None, "params.tol:"),
        ("cbo", {"init_width": "x"}, None, "params.init_width:"),
        ("coupling_rate", {"lambda": "x"}, None, "params.lambda:"),
        ("eks", {"derivative_free": "yes"}, None, "params.derivative_free:"),
        ("dsmc_compare", {"bird_dt": 0.2}, None, "params.bird_dt:"),
        ("cmc", {"h": 1e-300}, None, "params.h:"),
        ("dsmc_compare", {}, {"t0": 0.1, "t_end": 0.3, "dt": 0.1}, "time.t0:"),
        ("bossy_talay", {}, {"t0": 0.01, "t_end": 0.02, "dt": 1e-3}, "time.t0:"),
        ("cbo", {"target": [1.0, 2.0, 3.0]}, None, "params.target:"),
        ("cbo", {"target": [1.0]}, None, "params.target:"),
        ("cbo", {"target": [[1.0, 2.0]]}, None, "params.target:"),
        ("kuramoto_sweep", {"cases": []}, None, "params.cases:"),
    ], ids=["cmc-stpes", "coupling-unknown", "dsmc-unknown", "cbo-unknown", "eks-unknown",
            "bossy-unknown", "kuramoto-unknown", "cbo-tol", "cbo-init_width", "coupling-lambda",
            "eks-derivative_free", "bird_dt-above-t_end", "cmc-tiny-h", "dsmc-t0", "bossy-t0",
            "cbo-target-too-long", "cbo-target-too-short", "cbo-target-matrix", "kuramoto-empty-cases"])
    def test_param_exit_2(self, tmp_path, capsys, kind, params, time, field):
        # each of these used to pass validate: an unknown name ran on the defaults,
        # the tiny h ran to exit 0 with no proposal accepted, t0 was ignored and
        # the rest exited 3 with a traceback
        configs = {**SMALL_CONFIGS, "coupling_rate": coupling_config(), "kuramoto_sweep": self.KURAMOTO}
        payload = json.loads(json.dumps(configs[kind]))
        payload["params"].update(params)
        if time is not None:
            payload["time"] = time
        cfg = write_config(tmp_path / "c.json", payload)
        violations = validate(payload)
        assert len(violations) == 1 and violations[0].startswith(field), violations
        assert main(["validate", str(cfg)]) == 2
        assert field in capsys.readouterr().out
        assert run(cfg, out_dir=tmp_path / "out") == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_kuramoto_sweep_without_cases_exit_2(self, tmp_path, capsys):
        # a sweep with no cases used to simulate nothing and exit 0 with "pass": true
        payload = {**self.KURAMOTO, "params": {"seeds": 1}}
        cfg = write_config(tmp_path / "c.json", payload)
        assert validate(payload) == ["params.cases: required"]
        assert main(["validate", str(cfg)]) == 2
        assert "params.cases" in capsys.readouterr().out
        assert run(cfg, out_dir=tmp_path / "out") == 2
        assert "params.cases" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, change, field", [
        ("coupling_rate", {"replica": 64}, "replica:"),
        ("coupling_rate", {"time": {"t0": 0.0, "t_end": 0.3, "dt": 0.01, "dtt": 5}}, "time.dtt:"),
        ("cmc", {"time": {"t_end": -1}}, "time:"),
        ("cbo", {"time": {"t0": 0.0, "t_end": 1.0, "dt": 0.1}}, "time:"),
        ("eks", {"time": {"t0": 0.0, "t_end": 1.0, "dt": 0.1}}, "time:"),
    ], ids=["top-level-replica", "time-dtt", "cmc-time", "cbo-time", "eks-time"])
    def test_unknown_key_exit_2(self, tmp_path, capsys, kind, change, field):
        # each of these used to pass validate and run on what the runner reads
        configs = {**SMALL_CONFIGS, "coupling_rate": coupling_config()}
        payload = {**json.loads(json.dumps(configs[kind])), **change}
        cfg = write_config(tmp_path / "c.json", payload)
        violations = validate(payload)
        assert len(violations) == 1 and violations[0].startswith(field), violations
        assert main(["validate", str(cfg)]) == 2
        assert field in capsys.readouterr().out
        assert run(cfg, out_dir=tmp_path / "out") == 2
        assert not (tmp_path / "out").exists()

    def test_defaults_pass_their_own_checks(self):
        for kind, table in cli._PARAMS.items():
            for name, (check, bound, default) in table.items():
                if default is not None:
                    assert cli._param_errors(name, default, check, bound) == [], (kind, name)

    def test_readme_table_matches(self):
        # README's CLI section lists every param as | `kind` | `name` | check | bound | default |
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = {tuple(cell.strip() for cell in line.strip().strip("|").split("|"))
                for line in readme.splitlines() if line.startswith("| `")}
        expected = set()
        for kind, table in cli._PARAMS.items():
            for name, (check, bound, default) in table.items():
                if check == "count" or check.startswith("real"):
                    op = ">=" if check == "count" else check[len("real"):]
                    shown = "any" if bound == -math.inf else f"{op} {bound!r}"
                else:
                    shown = " or ".join(f"`{b}`" for b in bound) if check == "choice" else ""
                value = "required" if default is None else f"`{json.dumps(default)}`"
                expected.add((f"`{kind}`", f"`{name}`", check.rstrip("<>="), shown, value))
        assert rows == expected


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

    @pytest.mark.parametrize("name", ["sup_mse"])
    def test_unusable_threshold_exit_4(self, tmp_path, capsys, name):
        # "sup_mse" passes validate, a summary key, but it is a per-N table, not a number
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

    def test_unencodable_summary_exit_3(self, tmp_path, monkeypatch, capsys):
        # summaries hold built-in JSON types only; a runner that breaks this fails at run time
        keys = cli._RUNNERS["cmc"][1]
        monkeypatch.setitem(cli._RUNNERS, "cmc", (
            lambda config, out, threads: {"kind": "cmc", "pooled_mean": np.int64(1)}, keys))
        cfg = write_config(tmp_path / "cfg.json", small_config("cmc"))
        out = tmp_path / "out"
        assert run(cfg, out_dir=out) == 3
        assert "not JSON serializable" in capsys.readouterr().err
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


def numpy_std_normal_log_density(x):
    """The dense formula that the CLI's cmc target must equal bit for bit."""
    return -0.5 * float(np.sum(np.asarray(x) ** 2))


class TestStdNormalTarget:
    @pytest.mark.parametrize("dim", range(1, 11))
    def test_equals_the_numpy_formula(self, dim):
        # dims 1-7 take the Python-float loop, 8-10 the pairwise np.sum
        rng = RngStream(97, dim)
        rows = list(rng.normal((2000, dim)))
        rows += list(rng.normal((2000, dim)) * 10.0 ** (300.0 * rng.uniform((2000, dim)) - 150.0))
        edge = [0.0, -0.0, 5e-324, -2.5e-310, 1e-150, -3e-150, 2e150, -7e150, 1.5]
        rows += [np.array([edge[(i + k) % len(edge)] for k in range(dim)]) for i in range(len(edge))]
        rows += [np.zeros(dim), -np.zeros(dim)]
        for row in rows:
            got = cli._std_normal_log_density(row)
            assert type(got) is float
            assert got.hex() == numpy_std_normal_log_density(row).hex(), row

    @pytest.mark.parametrize("dim", [1, 3])
    def test_cmc_run_matches_the_numpy_formula(self, dim):
        runs = []
        for target in (numpy_std_normal_log_density, cli._std_normal_log_density):
            cfg = CmcConfig(target_log_density=target, h=0.5, n=50, steps=10, dim=dim)
            runs.append(cmc_run(cfg, Ensemble(RngStream(98, dim).normal((50, dim))), RngStream(99, dim)))
        old, new = runs
        assert old.accept_trace.tobytes() == new.accept_trace.tobytes()
        assert old.samples.tobytes() == new.samples.tobytes()


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

    def test_kuramoto_r_column_equals_lone_per_seed_runs(self, tmp_path):
        # the sweep runs each case's seeds as one batch; seed k of case c
        # must still give the r of a lone run on substream k of substream c
        cases = [{"coupling": 2.0, "init": "concentrated"}, {"coupling": 0.5, "init": "uniform"}]
        cfg = write_config(tmp_path / "c.json", {
            "kind": "kuramoto_sweep", "seed": 19, "n_list": [30],
            "time": {"t0": 0.0, "t_end": 0.5, "dt": 0.05},
            "params": {"seeds": 3, "cases": cases},
        })
        out = tmp_path / "out"
        assert run(cfg, out_dir=out) == 0
        lines = (out / "kuramoto_r.csv").read_text().splitlines()
        grid = TimeGrid(0.0, 0.5, 0.05)
        expected = []
        for c, case in enumerate(cases):
            for k in range(3):
                s = RngStream(19).substream(c).substream(k)
                theta0 = (np.zeros((30, 1)) if case["init"] == "concentrated"
                          else s.substream(0).uniform((30, 1)) * 2.0 * math.pi)
                final = simulate(kuramoto_model(case["coupling"]), Ensemble(theta0), grid, s.substream(1))
                expected.append(repr(kuramoto_order_parameter(final.states[:, 0])))
        assert [line.split(",")[-1] for line in lines[1:]] == expected


class TestMain:
    def test_dsmc_compare_does_not_import_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma on its first call, a module that no step of a dsmc_compare run needs
        cfg = write_config(tmp_path / "cfg.json", SMALL_CONFIGS["dsmc_compare"])
        code = ("import sys; from meanfield.cli import main; "
                f"assert main(['run', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0; "
                "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'")
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

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
