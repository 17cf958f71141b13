"""Command-line surface: exit codes, outputs, config errors."""

import json

import pytest

from bsumnet.cli import main


def base_config(tmp_path):
    return {
        "dataset": {"kind": "synthetic", "seed": 0, "n_samples": 20,
                    "n_features": 3, "teacher_dims": [3, 2, 1],
                    "noise_sigma": 0.05},
        "network": {"dims": [3, 2, 1], "activation": "logistic",
                    "regularizer": {"kind": "l2", "lam": 0.01}},
        "loss": "l2",
        "methods": [{"name": "prop",
                     "schedule": {"kind": "inverse_root", "c": 1.0},
                     "max_iterations": 10, "adapt_gamma": False}],
        "seeds": [0],
        "output_dir": str(tmp_path / "out"),
    }


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(base_config(tmp_path)), encoding="utf-8")
    return p


# (path into the config, malformed value): each must exit 2 before any run
MALFORMED = [
    ("network.activation", {"kind": "leaky_relu_smooth", "alpha": 2}),
    ("loss", {"kind": "exponential", "c": -1}),
    ("network.regularizer", {"kind": "l2", "lam": -1}),
    ("network.regularizer", {"kind": "none", "lam": 0.1}),
    ("network.feasible", {"kind": "frobenius_ball", "radius": -1}),
    ("methods.0.upperbound", {"kind": "first_order_prox", "gamma": "x"}),
    ("methods.0.upperbound", {"kind": "first_order_prox", "gamma": 0}),
    ("methods.0.upperbound", {"kind": "proximal", "max_iters": 0}),
    ("methods.0.upperbound", {"kind": "proximal", "gamma": -1}),
    ("methods.0.upperbound", "proximal"),  # logistic blocks are not certified
    ("methods.0.upperbound", {"kind": "linear"}),  # no longer a family
    ("methods.0.exact_bcd", True),
    ("methods.0.schedule", {"kind": "constant", "c": 2}),
    ("methods.0.schedule", {"kind": "armijo", "alpha_init": 4.0}),
    ("methods.0.sampler", {"mode": "fixed", "batch_size": "x"}),
    ("methods.0.max_iterations", "x"),
    ("methods.0.grad_norm_tol", "x"),
    ("methods.0.record_every", "x"),
    ("network.dims", ["a", 2, 1]),
    ("network.dims", 3),
    ("network.init_scale", "x"),
    ("seeds", ["x"]),
    ("dataset.n_samples", "x"),
    ("dataset.n_samples", 0),
    ("dataset.teacher_dims", [3, "a", 1]),
    ("dataset.noise_sigma", "x"),
    ("baselines", [{"kind": "bp_clr", "rate": "x"}]),
    ("baselines", [{"kind": "adagrad", "max_iterations": "x"}]),
    ("methods.0.adapt_gamma", "false"),
    ("methods.0.max_iterations", 2.5),
    ("methods.0.record_every", 1.5),
    ("methods.0.sampler", {"mode": "fixed", "batch_size": 2.5}),
    # a fixed batch larger than the dataset's 20 samples
    ("methods.0.sampler", {"mode": "fixed", "batch_size": 1000}),
    ("methods.0.upperbound", {"kind": "proximal", "max_iters": 2.5}),
    ("methods.0.upperbound", {"kind": "first_order_prox", "gamma": True}),
    ("network.dims", [3, 2.5, 1]),
    ("seeds", [0.5]),
    ("dataset.n_samples", 8.7),
    ("baselines", [{"kind": "bp_clr", "rate": -1}]),
    ("baselines", [{"kind": "adagrad", "eps": 0}]),
    ("baselines", [{"kind": "bp_clr", "record_every": 0}]),
    ("methods", 5),
    ("baselines", 5),
    ("dataset", {"kind": "csv", "path": 5, "target_cols": ["y"]}),
    ("dataset", {"kind": "csv", "path": "d.csv", "target_cols": 5}),
    ("dataset", {"kind": "csv", "path": "d.csv", "target_cols": [True]}),
    # a dataset the [3, 2, 1] network cannot read: two targets, one feature
    ("dataset.teacher_dims", [3, 2, 2]),
    ("dataset", {"kind": "csv", "path": "d.csv", "target_cols": ["y"]}),
    # per-layer lists need one entry per layer of the [3, 2, 1] network
    ("methods.0.schedule", [{"kind": "constant", "c": 0.5}] * 3),
    ("methods.0.upperbound", ["first_order_prox"] * 3),
    ("network.activation", ["logistic"] * 3),
    ("methods.0.upperbound", None),
    # a method name is the stem of its output files
    ("methods.0.name", "../escaped"),
    ("methods.0.name", "a,b"),
    # negative or repeated seeds: numpy's ValueError, or the same files twice
    ("seeds", [-1]),
    ("seeds", [0, 0]),
    ("dataset.seed", -2),
    ("methods.0.sampler", {"mode": "fixed", "batch_size": 4, "seed": -1}),
    # an init scale or a noise level out of range
    ("network.init_scale", -1),
    ("network.init_scale", 0),
    ("network", {"dims": [3, 2, 1], "init": "gaussian", "init_scale": -1}),
    ("dataset.noise_sigma", -1),
    # a baseline setting that is never read, or an empty baseline run
    ("baselines", [{"kind": "bp_clr", "eps": 123}]),
    ("baselines", [{"kind": "bp_clr", "max_iterations": 0}]),
    ("baselines", [{"kind": "adagrad", "max_iterations": -3}]),
]


class TestTrainCommand:
    def test_success_exit_zero(self, config_path, tmp_path, capsys):
        code = main(["train", "--config", str(config_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "curve" in out and "summary" in out
        assert (tmp_path / "out" / "prop_seed0.csv").exists()

    def test_out_and_seed_overrides(self, config_path, tmp_path):
        code = main(["train", "--config", str(config_path),
                     "--out", str(tmp_path / "elsewhere"), "--seed", "5"])
        assert code == 0
        assert (tmp_path / "elsewhere" / "prop_seed5.csv").exists()

    def test_missing_config_exit_two(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_config_exit_two(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"dataset": {"kind": "synthetic"},
                                 "network": {"dims": [2, 1]},
                                 "seeds": [0], "unexpected": True}),
                     encoding="utf-8")
        assert main(["train", "--config", str(p)]) == 2

    @pytest.mark.parametrize("path,value", MALFORMED,
                             ids=[f"{p}={json.dumps(v)}" for p, v in MALFORMED])
    def test_malformed_value_exit_two(self, tmp_path, capsys, monkeypatch,
                                      path, value):
        # a readable CSV, so a csv dataset fails on its malformed value only
        (tmp_path / "d.csv").write_text("x,y\n1,2\n3,4\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        raw = base_config(tmp_path)
        keys = [int(k) if k.isdigit() else k for k in path.split(".")]
        node = raw
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["train", "--config", str(p)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seeds", [["-3"], ["1", "1"]], ids=["negative", "repeated"])
    def test_bad_seed_override_exit_two(self, config_path, tmp_path, capsys, seeds):
        args = [arg for seed in seeds for arg in ("--seed", seed)]
        assert main(["train", "--config", str(config_path), *args]) == 2
        assert "config error: seeds: need distinct integers >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_newton_block_over_the_hessian_budget_exit_two(self, tmp_path, capsys):
        # the 101 x 101 middle block has 10,201 parameters: once block 1
        # stepped and block 2 failed the run mid-way with exit 1
        raw = base_config(tmp_path)
        raw["dataset"] = {"kind": "synthetic", "seed": 0, "n_samples": 8}
        raw["network"] = {"dims": [2, 101, 101, 1], "activation": "tanh"}
        raw["methods"] = [{"name": "newton", "upperbound": "second_order_prox",
                           "unit_stepsize": True, "max_iterations": 3}]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["train", "--config", str(p)]) == 2
        assert ("config error: methods[0]: block 2: 10201 parameters, over the 10000 budget"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_mini_batch_needs_first_order_family(self, tmp_path, capsys):
        raw = base_config(tmp_path)
        raw["methods"][0].update(sampler={"mode": "fixed", "batch_size": 4},
                                 upperbound="second_order_prox")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["train", "--config", str(p)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change,rule", [
        ({"upperbound": "second_order_prox"}, "only supported with the first-order family"),
        ({"schedule": {"kind": "armijo"}}, "Armijo search needs a smooth regularizer"),
        ({"baselines": [{"kind": "bp_clr", "rate": 0.1}]}, "need smooth regularizers"),
    ], ids=["second_order", "armijo", "baseline"])
    def test_l1_combination_the_trainer_refuses_exit_two(self, tmp_path, capsys,
                                                          change, rule):
        raw = base_config(tmp_path)
        raw["network"]["regularizer"] = {"kind": "l1", "lam": 0.01}
        if "baselines" in change:
            raw.update(change)
        else:
            raw["methods"][0].update(change)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["train", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and rule in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_targets_outside_the_loss_labels_exit_two(self, tmp_path, capsys, command):
        # the synthetic dataset has real-valued targets, not -1/+1 labels
        raw = base_config(tmp_path)
        raw["loss"] = "logistic"
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw), encoding="utf-8")
        assert main([command, "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert "config error: dataset: logistic targets must be one of" in err
        assert not (tmp_path / "out").exists()

    def test_failed_run_exit_one(self, tmp_path, capsys):
        raw = {
            "dataset": {"kind": "synthetic", "seed": 0, "n_samples": 16,
                        "n_features": 3, "teacher_dims": [3, 1],
                        "noise_sigma": 2.0},
            "network": {"dims": [3, 1], "activation": "identity",
                        "regularizer": {"kind": "l2", "lam": 1e-6}},
            "loss": {"kind": "exponential", "c": 1.0},
            "methods": [{"name": "explosive",
                         "upperbound": {"kind": "first_order_prox",
                                        "gamma": 1e-9},
                         "schedule": {"kind": "constant", "c": 0.9},
                         "max_iterations": 20, "adapt_gamma": False}],
            "seeds": [0],
            "output_dir": str(tmp_path / "out"),
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw), encoding="utf-8")
        code = main(["train", "--config", str(p)])
        assert code == 1
        assert "FAILED" in capsys.readouterr().err

    def test_unwritable_curve_file_exit_one(self, config_path, tmp_path, capsys):
        # a directory where the curve file goes: that run fails with a FAILED
        # line naming the path, no traceback, and its summary is still written
        (tmp_path / "out" / "prop_seed0.csv").mkdir(parents=True)
        assert main(["train", "--config", str(config_path)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("FAILED  prop seed 0: cannot write curve file")
        assert "prop_seed0.csv" in err and "Traceback" not in err
        assert "summary " in out and "prop_seed0.summary.json" in out


class TestValidateScheduleCommand:
    def test_inverse_root_true(self, capsys):
        code = main(["validate-schedule", "--kind", "inverse-root",
                     "--param", "c=1.0"])
        assert code == 0
        assert "= true" in capsys.readouterr().out

    def test_geometric_false(self, capsys):
        code = main(["validate-schedule", "--kind", "geometric"])
        assert code == 0
        assert "= false" in capsys.readouterr().out

    def test_unknown_kind_exit_two(self, capsys):
        assert main(["validate-schedule", "--kind", "mystery"]) == 2

    def test_bad_param_exit_two(self, capsys):
        assert main(["validate-schedule", "--kind", "constant",
                     "--param", "c=oops"]) == 2


class TestGradcheckCommand:
    def test_configured_problem_passes(self, config_path, capsys):
        code = main(["gradcheck", "--config", str(config_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "relative error" in out
        assert "FAIL" not in out

    def test_l1_layers_are_skipped(self, tmp_path, capsys):
        raw = base_config(tmp_path)
        raw["network"]["regularizer"] = [{"kind": "l1", "lam": 0.01},
                                         {"kind": "l2", "lam": 0.01}]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["gradcheck", "--config", str(p)]) == 0
        out = capsys.readouterr().out
        assert "skip l2 layer 1: L1 regularizer has no gradient" in out
        assert "ok   l2 layer 2: relative error" in out

    def test_catalog_sweep(self, config_path, capsys):
        code = main(["gradcheck", "--config", str(config_path), "--catalog"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cross_entropy" in out and "bent_identity" in out
