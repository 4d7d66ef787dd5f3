import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from meanfield import cli
from meanfield.cli import main, run, validate
from meanfield.core import Ensemble, RngStream, TimeGrid
from meanfield.jump import MAX_BANDWIDTH, MIN_BANDWIDTH, CmcConfig, cmc_run
from meanfield.mckean import kuramoto_model, simulate
from meanfield.metrics import kuramoto_order_parameter
from meanfield.schemes1d import CdfScheme, bossy_talay_run


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

    def test_dsmc_compare_needs_two_particles(self):
        cfg = small_config("dsmc_compare")
        cfg["n_list"] = [1]
        assert validate(cfg) == ["n_list: the dsmc_compare runner collides pairs of particles; "
                                 "it needs at least 2, got 1"]
        cfg["n_list"] = [2]
        assert validate(cfg) == []

    def test_a_one_particle_dsmc_compare_exits_2_before_writing(self, tmp_path, capsys):
        # it used to pass validate, write manifest.json and exit 3 from the exact engine
        cfg = write_config(tmp_path / "c.json", {**small_config("dsmc_compare"), "n_list": [1]})
        assert main(["validate", str(cfg)]) == 2
        assert capsys.readouterr().out.startswith("n_list: the dsmc_compare runner")
        assert run(cfg, out_dir=tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith("invalid config: n_list: the dsmc_compare runner")
        assert not (tmp_path / "out").exists()

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
        ("cmc", "h", math.nextafter(MIN_BANDWIDTH, 0.0)),  # the mixture's -1 / (2 h^2) is -inf there
        ("cmc", "h", math.nextafter(MAX_BANDWIDTH, math.inf)), ("cmc", "h", 1e154),  # and -0.0 there
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
        ("coupling_rate", {"v0": 0}), ("cmc", {"h": MIN_BANDWIDTH}), ("cmc", {"h": MAX_BANDWIDTH}),
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
        ("coupling_rate", {}, {"t0": 0.0, "t_end": math.inf, "dt": 0.1}, "time:"),
        ("coupling_rate", {}, {"t0": 0.0, "t_end": 1.0, "dt": 1e-320}, "time:"),
        ("kuramoto_sweep", {}, {"t0": 0.0, "t_end": 1e300, "dt": 1.0}, "time:"),
        ("kuramoto_sweep", {}, {"t0": 0.0, "t_end": 1e10, "dt": 1.0}, "time:"),
        ("eks", {"G": [[1.0, 2.0]], "y": [1.0, 2.0, 3.0], "Gamma": [[1.0]]}, None, "params.y:"),
        ("eks", {"G": [[1.0, 2.0]], "y": [1.0], "Gamma": [[1.0]], "Gamma0": [[1.0]]}, None, "params.Gamma0:"),
        ("eks", {"Gamma": [[1.0]]}, None, "params.Gamma:"),
        ("eks", {"G": [_EYE]}, None, "params.G:"),
        ("eks", {"y": [[0.0, 0.0]]}, None, "params.y:"),
    ], ids=["cmc-stpes", "coupling-unknown", "dsmc-unknown", "cbo-unknown", "eks-unknown",
            "bossy-unknown", "kuramoto-unknown", "cbo-tol", "cbo-init_width", "coupling-lambda",
            "eks-derivative_free", "bird_dt-above-t_end", "cmc-tiny-h", "dsmc-t0", "bossy-t0",
            "cbo-target-too-long", "cbo-target-too-short", "cbo-target-matrix", "kuramoto-empty-cases",
            "time-infinite-t_end", "time-underflowing-dt", "time-1e300-steps", "time-1e10-steps", "eks-y-length",
            "eks-Gamma0-shape", "eks-Gamma-shape", "eks-G-3d", "eks-y-matrix"])
    def test_param_exit_2(self, tmp_path, capsys, kind, params, time, field):
        # each of these used to pass validate: an unknown name ran on the defaults,
        # the tiny h ran to exit 0 with no proposal accepted, t0 was ignored, a
        # step count of inf exited 1 with an OverflowError, one of 1e300 exited 3
        # with numpy's "Maximum allowed dimension exceeded", one of 1e10 would
        # have allocated its grid, and the rest exited 3 with a traceback
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

    @pytest.mark.parametrize("kind, params, field", [
        ("eks", {"Gamma": [[math.inf, 0.0], [0.0, 1.0]]}, "params.Gamma:"),
        ("eks", {"Gamma0": [[1.0, 0.0], [0.0, math.nan]]}, "params.Gamma0:"),
        ("eks", {"G": [[math.nan, 0.0], [0.0, 1.0]]}, "params.G:"),
        ("eks", {"y": [0.0, -math.inf]}, "params.y:"),
        ("cbo", {"target": math.nan}, "params.target:"),
        ("cbo", {"target": [0.0, math.inf]}, "params.target:"),
    ], ids=["eks-Gamma-inf", "eks-Gamma0-nan", "eks-G-nan", "eks-y-inf", "cbo-target-nan", "cbo-target-inf"])
    def test_non_finite_array_param_exit_2(self, tmp_path, capsys, kind, params, field):
        # an infinite Gamma ran to exit 0; NaN in G or target exited 3 with a traceback
        cfg = write_config(tmp_path / "c.json", small_config(kind, **params))
        violations = validate(json.loads(cfg.read_text()))
        assert len(violations) == 1 and violations[0].startswith(field) and "finite" in violations[0]
        assert main(["validate", str(cfg)]) == 2
        assert field in capsys.readouterr().out
        assert run(cfg, out_dir=tmp_path / "out") == 2
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

    @pytest.mark.parametrize("kind", ["dsmc_compare", "cbo", "eks", "cmc", "kuramoto_sweep"])
    def test_replicas_on_a_kind_that_reads_none_exit_2(self, tmp_path, capsys, kind):
        # these runners used to ignore the count; dsmc_compare's is params.pairs
        payload = {**SMALL_CONFIGS, "kuramoto_sweep": self.KURAMOTO}[kind] | {"replicas": 4}
        cfg = write_config(tmp_path / "c.json", payload)
        violations = validate(payload)
        assert len(violations) == 1 and violations[0].startswith(f"replicas: the {kind} runner"), violations
        assert ("params.pairs" in violations[0]) == (kind == "dsmc_compare")
        assert main(["validate", str(cfg)]) == 2
        assert "replicas:" in capsys.readouterr().out
        assert run(cfg, out_dir=tmp_path / "out") == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["dsmc_compare", "cbo", "eks", "cmc", "kuramoto_sweep"])
    def test_several_sizes_on_a_kind_that_runs_one_exit_2(self, tmp_path, capsys, kind):
        # these runners used to run the last size alone and ignore the others
        payload = {**SMALL_CONFIGS, "kuramoto_sweep": self.KURAMOTO}[kind] | {"n_list": [10, 20]}
        cfg = write_config(tmp_path / "c.json", payload)
        assert validate(payload) == [f"n_list: the {kind} runner runs one size; give exactly one"]
        assert main(["validate", str(cfg)]) == 2
        assert "n_list:" in capsys.readouterr().out
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
                    low, high = bound if isinstance(bound, tuple) else (bound, math.inf)
                    shown = "any" if low == -math.inf else f"{op} {low!r}"
                    shown += f" and <= {high!r}" if high < math.inf else ""
                else:
                    shown = " or ".join(f"`{b}`" for b in bound) if check == "choice" else ""
                value = "required" if default is None else f"`{json.dumps(default)}`"
                expected.add((f"`{kind}`", f"`{name}`", check.rstrip("<>="), shown, value))
        assert rows == expected


class TestConfigAudit:
    """Every field a config accepts is read: perturbing it changes some artifact other than the
    manifest (which records the config as given), or ``validate`` refuses the result, unless it is
    a no-op named below. Each config below sets every param of its kind, every time key its runner
    reads, and, in the test, one threshold and an ``out_dir``."""

    CONFIGS = {
        "coupling_rate": {"kind": "coupling_rate", "seed": 1, "n_list": [4, 5, 6], "replicas": 2,
                          "time": {"t0": 0.1, "t_end": 0.3, "dt": 0.1},
                          "params": {"lambda": 1.0, "kappa": 1.0, "m0": 1.0, "v0": 1.0}},
        "dsmc_compare": {"kind": "dsmc_compare", "seed": 2, "n_list": [10],
                         "time": {"t0": 0.0, "t_end": 0.2, "dt": 0.1},
                         "params": {"d": 2, "pairs": 1, "bird_dt": 0.1}},
        "cbo": {"kind": "cbo", "seed": 3, "n_list": [6],
                "params": {"objective": "quadratic", "dim": 2, "target": 0.5, "seeds": 1, "tol": 1.0,
                           "init_width": 1.0, "alpha": 30.0, "lambda": 1.0, "sigma": 0.5, "dt": 0.01,
                           "steps": 3, "eps_heaviside": 0.1}},
        # the CLI's forward map is a matrix, for which the derivative-free mode is the gradient
        # mode in exact arithmetic: the two differ in rounding only (this G moves the last bits)
        "eks": {"kind": "eks", "seed": 4, "n_list": [6],
                "params": {"G": [[1.3, 0.7], [-0.4, 2.1]], "y": [0.3, -0.2], "Gamma": _EYE, "Gamma0": _EYE,
                           "dt": 0.02, "steps": 3, "derivative_free": False}},
        "cmc": {"kind": "cmc", "seed": 5, "n_list": [6], "params": {"h": 0.5, "steps": 3, "burn_in": 1, "dim": 1}},
        "bossy_talay": {"kind": "bossy_talay", "seed": 6, "n_list": [4, 5, 6], "replicas": 2,
                        "time": {"t0": 0.0, "t_end": 0.01, "dt": 0.005},
                        "params": {"sigma": 1.0, "grid_points": 11}},
        "kuramoto_sweep": {"kind": "kuramoto_sweep", "seed": 7, "n_list": [5],
                           "time": {"t0": 0.1, "t_end": 0.2, "dt": 0.05},
                           "params": {"seeds": 2, "cases": [{"coupling": 2.0, "init": "uniform"}]}},
    }
    THRESHOLDS = {"coupling_rate": "slope", "dsmc_compare": "ratio", "cbo": "median_distance",
                  "eks": "mean_error", "cmc": "pooled_mean", "bossy_talay": "slope",
                  "kuramoto_sweep": "cases.0.r_median"}
    CHOICES = {"kind": cli.KINDS, "objective": cli._PARAMS["cbo"]["objective"][1],
               "init": ("concentrated", "uniform")}
    # the fields that change no artifact, with the kinds where they do not, each with its reason
    NO_OPS = {
        # accepted for compatibility: replicas run one after another in index order
        "--threads": cli.KINDS,
        # a path, which the --out of every run here overrides
        "out_dir": cli.KINDS,
        # one cell without a free flow runs the whole call as one step, whatever its length, and
        # the runner always uses CellGrid.single_cell() with a flow-free Maxwell model. Refusing
        # both waits on a benchmark change: the dsmc workload and perfbench's self-test set them
        "params.bird_dt": ("dsmc_compare",),
        "time.dt": ("dsmc_compare",),
    }

    @classmethod
    def fields(cls, config):
        """The path of every field of ``config``: top-level values, time keys, params (a Kuramoto
        case's keys one by one) and threshold bounds; then the run's ``--threads``."""
        for key, value in config.items():
            if key == "time":
                yield from (("time", k) for k in value)
            elif key == "params":
                for name, param in value.items():
                    if name == "cases":
                        yield from (("params", name, i, k) for i, case in enumerate(param) for k in case)
                    else:
                        yield ("params", name)
            elif key == "thresholds":
                yield from (("thresholds", name, b) for name, bound in value.items() for b in bound)
            else:
                yield (key,)
        yield ("--threads",)

    @classmethod
    def perturbed(cls, value, key):
        """A bool negated, an integer + 1, a real x 1.25 (0 + 1), a string the next choice (a path
        another one), and every entry of a list so."""
        if isinstance(value, bool):
            return not value
        if isinstance(value, int):
            return value + 1
        if isinstance(value, float):
            return value * 1.25 if value else 1.0
        if key == "out_dir":
            return value + "_moved"
        if isinstance(value, str):
            choices = cls.CHOICES[key]
            return choices[(choices.index(value) + 1) % len(choices)]
        return [cls.perturbed(v, key) for v in value]

    @staticmethod
    def digests(out: Path) -> dict:
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in out.iterdir() if p.name != "manifest.json"}

    @pytest.mark.parametrize("kind", cli.KINDS)
    def test_every_field_changes_an_artifact_or_is_refused(self, tmp_path, capsys, kind):
        base = {**self.CONFIGS[kind], "thresholds": {self.THRESHOLDS[kind]: {"max": 1e9}},
                "out_dir": str(tmp_path / "unused")}
        assert validate(base) == []
        assert run(write_config(tmp_path / "base.json", base), out_dir=tmp_path / "base") == 0
        want = self.digests(tmp_path / "base")
        no_ops = set()
        for k, path in enumerate(self.fields(base)):
            config, threads = json.loads(json.dumps(base)), 2 if path == ("--threads",) else 1
            if threads == 1:
                *parents, last = path
                holder = config
                for part in parents:
                    holder = holder[part]
                holder[last] = self.perturbed(holder[last], path[-1] if isinstance(last, str) else path[-2])
            code = run(write_config(tmp_path / f"{k}.json", config), threads, out_dir=tmp_path / str(k))
            label = ".".join(map(str, path))
            assert code != 3, f"{label}: {capsys.readouterr().err}"
            if code != 2 and self.digests(tmp_path / str(k)) == want:
                no_ops.add(label)
        assert no_ops == {field for field, kinds in self.NO_OPS.items() if kind in kinds}
        assert not (tmp_path / "unused").exists() and not (tmp_path / "unused_moved").exists()


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

    @pytest.mark.parametrize("bound, code", [
        ({"min": -1.0}, 0), ({"min": 2.0}, 4), ({"max": 2.0}, 0), ({"max": -1.0}, 4),
    ], ids=["min-pass", "min-fail", "max-pass", "max-fail"])
    def test_min_and_max_bounds(self, tmp_path, bound, code):
        # r2 lies in [0, 1]
        cfg = write_config(tmp_path / "cfg.json", coupling_config(thresholds={"r2": bound}))
        out = tmp_path / "out"
        assert run(cfg, out_dir=out) == code
        summary = json.loads((out / "summary.json").read_text())
        check = summary["checks"]["r2"]
        assert summary["pass"] is check["pass"] is (code == 0)
        assert check["bound"] == bound and 0.0 <= check["value"] <= 1.0

    def test_a_bound_at_the_value_passes(self, tmp_path):
        first = tmp_path / "first"
        assert run(write_config(tmp_path / "cfg.json", coupling_config()), out_dir=first) == 0
        r2 = json.loads((first / "summary.json").read_text())["r2"]
        for k, bound in enumerate([{"min": r2}, {"max": r2}, {"range": [r2, r2]}]):
            cfg = write_config(tmp_path / "cfg.json", coupling_config(thresholds={"r2": bound}))
            out = tmp_path / f"out{k}"
            assert run(cfg, out_dir=out) == 0
            check = json.loads((out / "summary.json").read_text())["checks"]["r2"]
            assert check == {"value": r2, "bound": bound, "pass": True}

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

    @pytest.mark.parametrize("name, code", [
        ("cases.0.r_median", 0), ("cases.1.r_median", 4), ("cases.-1.r_median", 4),
        (f"cases.{'9' * 5000}.r_median", 4),
    ], ids=["first-case", "past-the-end", "negative", "more-digits-than-int-reads"])
    def test_a_list_index_reaches_a_kuramoto_case(self, tmp_path, capsys, name, code):
        # the sweep has one case: index 1 is past its end, -1 is not a decimal index, and int()
        # refuses a string of more than 4300 digits
        cfg = {**TestParamTable.KURAMOTO, "thresholds": {name: {"max": 2.0}}}
        assert validate(cfg) == []
        out = tmp_path / "out"
        assert run(write_config(tmp_path / "cfg.json", cfg), out_dir=out) == code
        summary = json.loads((out / "summary.json").read_text())
        value = summary["cases"][0]["r_median"] if code == 0 else None
        check = summary["checks"][name]
        assert (check["value"], check["bound"], check["pass"]) == (value, {"max": 2.0}, code == 0)
        assert (f"thresholds.{name}" in capsys.readouterr().err) is (code == 4)

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
        # schema-valid eks config whose forward map overflows the drift
        cfg = write_config(tmp_path / "cfg.json", {
            "kind": "eks", "seed": 2, "n_list": [50],
            "params": {"G": [[1e200, 0.0], [0.0, 1.0]], "y": [0.0, 0.0],
                       "Gamma": [[1.0, 0.0], [0.0, 1.0]],
                       "Gamma0": [[1.0, 0.0], [0.0, 1.0]], "steps": 5},
        })
        out = tmp_path / "out"
        with warnings.catch_warnings():  # as under -W error: numpy's overflow warning must not escape
            warnings.simplefilter("error")
            assert run(cfg, out_dir=out) == 3
        err = capsys.readouterr().err
        assert "StepError: non-finite drift | particle=0 | step=0" in err and "RuntimeWarning" not in err
        assert (out / "manifest.json").exists()
        assert not (out / "summary.json").exists()

    def test_an_overflowing_exact_reference_exits_3_with_a_step_error(self, tmp_path, capsys):
        # a valid config whose exact mean exp(1000 t) overflows a double past t = 0.7098
        cfg = write_config(tmp_path / "cfg.json", coupling_config(
            seed=1, n_list=[5, 10, 20], replicas=2, time={"t0": 0.0, "t_end": 1.0, "dt": 0.01},
            params={"lambda": -1000.0, "kappa": 1.0}))
        assert main(["validate", str(cfg)]) == 0
        assert run(cfg, out_dir=tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert "StepError: non-finite reference drift: GaussianReference" in err
        assert "step=71" in err and "OverflowError" not in err

    def test_unencodable_summary_exit_3(self, tmp_path, monkeypatch, capsys):
        # summaries hold built-in JSON types only; a runner that breaks this fails at run time
        keys = cli._RUNNERS["cmc"][1]
        monkeypatch.setitem(cli._RUNNERS, "cmc", (
            lambda config, p, base, out: {"pooled_mean": np.int64(1)}, keys))
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
            "kind": "dsmc_compare", "seed": 5, "n_list": [200],
            "time": {"t0": 0.0, "t_end": 0.5, "dt": 0.1},
            "params": {"pairs": 2, "d": 2},
        })
        out = tmp_path / "out"
        assert run(cfg, out_dir=out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["w1_self_mean"] > 0
        assert (out / "dsmc_pairs.csv").exists()
        # each run expects 199 * 0.5 / 2 = 49.75 collisions; Bird's Maxwell cell, whose counter moves
        # by 1 / 99.5 per collision, applies floor(49.75) + 1 of them
        expected = summary["expected_collisions"]
        assert expected == 49.75 and summary["bird_accepted_mean"] == 50.0
        assert abs(summary["exact_accepted_mean"] - expected) <= 3.0 * math.sqrt(expected / 6)

    @pytest.mark.parametrize("thresholds, code", [({}, 0), ({"ratio": {"max": 3}}, 4)], ids=["none", "ratio"])
    def test_dsmc_compare_with_a_zero_self_distance_writes_a_null_ratio(self, tmp_path, capsys, thresholds, code):
        # at this seed the two exact self-runs end with the same first coordinates: W1 distance 0
        cfg = write_config(tmp_path / "c.json", {
            "kind": "dsmc_compare", "seed": 3, "n_list": [10],
            "time": {"t0": 0.0, "t_end": 0.2, "dt": 0.1}, "params": {"pairs": 1}, "thresholds": thresholds,
        })
        out = tmp_path / "out"
        assert run(cfg, out_dir=out) == code

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
        assert summary["w1_self_mean"] == 0.0 and summary["ratio"] is None
        if thresholds:
            assert "thresholds.ratio" in capsys.readouterr().err
            assert summary["checks"]["ratio"]["value"] is None

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

    def test_bossy_checkpoints_are_replica_zero_of_the_largest_n(self, tmp_path):
        # dt = 0.003 does not divide t_end: T/2 snaps to the step at 0.006
        cfg = write_config(tmp_path / "c.json", {
            "kind": "bossy_talay", "seed": 9, "n_list": [10, 20, 40], "replicas": 3,
            "time": {"t0": 0.0, "t_end": 0.01, "dt": 0.003},
        })
        out = tmp_path / "out"
        assert run(cfg, out_dir=out) == 0
        rows = [[float(v) for v in line.split(",")]
                for line in (out / "bossy_checkpoints.csv").read_text().splitlines()[1:]]
        scheme = CdfScheme(k1=0.0, k2=1.0, n=40, dt=0.003, T=0.01, initial=lambda m, rng: np.zeros(m))
        (cdfs,) = bossy_talay_run(scheme, [RngStream(9).substream(2).substream(0)], checkpoints=[0.005, 0.01])
        assert [row[0] for row in rows] == [cdf.time for cdf in cdfs] == [0.006, 0.01]
        assert [row[1:] for row in rows] == [cdf.samples.tolist() for cdf in cdfs]

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
