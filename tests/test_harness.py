"""Dataset ingestion, baselines, curve files, configs, experiment runs."""

import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsumnet import (ConfigError, Dataset, Identity, IngestError, L2Loss,
                     Logistic, NetworkSpec, Network, NonSmoothError,
                     Regularizer, SpecError, baseline_adagrad,
                     baseline_bp_clr, build_network, emit_curves, forward,
                     load_csv_dataset, parse_config, parse_curves,
                     run_experiment, synth_regression)
from bsumnet.functions import sqnorm
from bsumnet.gradients import all_block_gradients
from bsumnet.harness import CURVE_HEADER, BaselineSpec, _zero_wall, load_config
from bsumnet.trainer import TraceRow, TrainTrace


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsvDataset:
    def test_shapes_from_three_row_file(self, tmp_path):
        p = write_csv(tmp_path / "d.csv",
                      "a,b,target\n1,2,3\n4,5,6\n7,8,9\n")
        data = load_csv_dataset(p, ["target"])
        assert data.X.shape == (2, 3)
        assert data.Y.shape == (1, 3)
        np.testing.assert_array_equal(data.X, [[1, 4, 7], [2, 5, 8]])
        np.testing.assert_array_equal(data.Y, [[3, 6, 9]])

    def test_standardize_population_zscore(self, tmp_path):
        # (1, 2, 3) -> (x - 2)/s with population std s = sqrt(2/3)
        p = write_csv(tmp_path / "d.csv", "x,y\n1,0\n2,0\n3,0\n")
        data = load_csv_dataset(p, ["y"], standardize=True)
        s = math.sqrt(2.0 / 3.0)
        np.testing.assert_allclose(data.X[0], [(1 - 2) / s, 0.0, (3 - 2) / s],
                                   atol=1e-12)
        assert data.X[0][0] == pytest.approx(-1.224744871391589)

    def test_constant_feature_row_left_at_zero(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "x,y\n5,1\n5,2\n5,3\n")
        data = load_csv_dataset(p, ["y"], standardize=True)
        np.testing.assert_array_equal(data.X[0], [0.0, 0.0, 0.0])

    def test_target_by_index(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,b\n1,2\n3,4\n")
        data = load_csv_dataset(p, [0])
        np.testing.assert_array_equal(data.Y, [[1, 3]])
        np.testing.assert_array_equal(data.X, [[2, 4]])

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="not found"):
            load_csv_dataset(tmp_path / "missing.csv", ["y"])

    def test_non_numeric_cell_reports_location(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,y\n1,2\noops,4\n")
        with pytest.raises(IngestError, match=r"row 3, column 'a'"):
            load_csv_dataset(p, ["y"])

    def test_bad_target_column(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,y\n1,2\n")
        with pytest.raises(IngestError, match="not in header"):
            load_csv_dataset(p, ["z"])

    def test_benchmark_scale_file(self, tmp_path):
        # 13 features + 1 target, 252 rows: the regression benchmark shape
        rng = np.random.default_rng(0)
        rows = ["f%d" % i for i in range(13)] + ["target"]
        lines = [",".join(rows)]
        for _ in range(252):
            lines.append(",".join(f"{v:.6f}" for v in rng.standard_normal(14)))
        p = write_csv(tmp_path / "bodyfat_like.csv", "\n".join(lines) + "\n")
        data = load_csv_dataset(p, ["target"], standardize=True)
        assert data.X.shape == (13, 252)
        assert data.Y.shape == (1, 252)


class TestSynthRegression:
    def test_deterministic_bitwise(self):
        a = synth_regression(seed=5, n_samples=40, n_features=6)
        b = synth_regression(seed=5, n_samples=40, n_features=6)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)

    def test_noiseless_is_realizable(self):
        data, teacher = synth_regression(seed=3, n_samples=30, n_features=5,
                                         teacher_dims=[5, 4, 1], noise_sigma=0.0,
                                         return_teacher=True)
        out = forward(teacher, data.X).output
        assert np.array_equal(out, data.Y)

    def test_default_dims_mirror_benchmark(self):
        data = synth_regression(seed=0)
        assert data.X.shape == (13, 252)
        assert data.Y.shape == (1, 252)

    @pytest.mark.parametrize("kwargs", [{"seed": -2}, {"noise_sigma": -1.0}])
    def test_negative_seed_or_noise_rejected(self, kwargs):
        # a negative seed was numpy's ValueError; a negative noise_sigma
        # silently gave noiseless targets
        with pytest.raises(SpecError, match="seed >= 0 and noise_sigma >= 0"):
            synth_regression(n_samples=8, n_features=3, **kwargs)


class TestBaselines:
    def _ridge_problem(self, seed=0, lam=0.05, n=40):
        rng = np.random.default_rng(seed)
        spec = NetworkSpec.homogeneous([4, 2], Identity(),
                                       regularizer=Regularizer.l2(lam))
        net = build_network(spec, "uniform", seed=seed)
        data = Dataset(rng.standard_normal((4, n)), rng.standard_normal((2, n)))
        return net, data, lam

    def test_zero_rate_frozen_flat_trace(self):
        net, data, _ = self._ridge_problem()
        trace = baseline_bp_clr(net, data, L2Loss(), rate=0.0, max_iterations=5)
        assert all(r.f == trace.initial_f for r in trace.rows)
        assert trace.final_f == trace.initial_f

    def test_bp_clr_monotone_below_stability_rate(self):
        net, data, lam = self._ridge_problem()
        # classical bound: monotone descent for rate < 2/L with
        # L = 2*lmax(XX')/N + 2*lam on the ridge objective
        lmax = np.linalg.eigvalsh(data.X @ data.X.T).max()
        lip = 2 * lmax / data.n_samples + 2 * lam
        trace = baseline_bp_clr(net, data, L2Loss(), rate=1.0 / lip,
                                max_iterations=50)
        fs = [trace.initial_f] + [r.f for r in trace.rows]
        assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))

    def test_bp_clr_divergence_aborts(self):
        net, data, _ = self._ridge_problem()
        trace = baseline_bp_clr(net, data, L2Loss(), rate=1e6,
                                max_iterations=200)
        assert trace.aborted
        assert "diverged" in trace.abort_reason

    def test_bp_clr_updates_all_layers_simultaneously(self):
        rng = np.random.default_rng(1)
        spec = NetworkSpec.homogeneous([3, 3, 2], Logistic(),
                                       regularizer=Regularizer.l2(0.01))
        net = build_network(spec, "uniform", seed=1)
        data = Dataset(rng.standard_normal((3, 10)), rng.standard_normal((2, 10)))
        rate = 0.1
        grads = all_block_gradients(net, data, L2Loss())
        trace = baseline_bp_clr(net, data, L2Loss(), rate=rate, max_iterations=1)
        assert trace.iterations_run == 1
        # reproduce the single simultaneous step by hand
        want = [w - rate * g for w, g in zip(net.weights, grads)]
        got_net = net.copy()
        for j in range(got_net.depth):
            got_net.weights[j] = want[j]
        from bsumnet.gradients import objective_value
        assert trace.rows[0].f == pytest.approx(
            objective_value(got_net, data, L2Loss()))

    def _logistic_problem(self):
        rng = np.random.default_rng(1)
        spec = NetworkSpec.homogeneous([4, 3, 2], Logistic(),
                                       regularizer=Regularizer.l2(0.01))
        net = build_network(spec, "uniform", seed=1)
        data = Dataset(rng.standard_normal((4, 10)), rng.standard_normal((2, 10)))
        return net, data

    @staticmethod
    def _residual_after_one_step(net, data, rate):
        grads = all_block_gradients(net, data, L2Loss())
        stepped = Network(net.spec, [w - rate * g for w, g in zip(net.weights, grads)])
        return math.sqrt(sum(sqnorm(g) for g in all_block_gradients(stepped, data, L2Loss())))

    def test_row_reports_the_residual_after_its_step(self):
        # row k's grad_norm is taken at W_k, as the block methods' rows are
        net, data = self._logistic_problem()
        want = self._residual_after_one_step(net, data, 0.1)
        trace = baseline_bp_clr(net, data, L2Loss(), rate=0.1, max_iterations=1)
        assert trace.rows[0].full_grad_norm == want
        assert want != trace.initial_grad_norm

    def test_converges_at_the_first_iterate_within_tolerance(self):
        net, data = self._logistic_problem()
        tol = self._residual_after_one_step(net, data, 0.1)
        trace = baseline_bp_clr(net, data, L2Loss(), rate=0.1, max_iterations=5,
                                grad_norm_tol=tol)
        assert trace.converged
        assert trace.iterations_run == 1
        assert trace.final_grad_norm == tol

    def test_zero_tolerance_stops_only_at_a_zero_gradient(self):
        net, data, _ = self._ridge_problem()
        trace = baseline_bp_clr(net, data, L2Loss(), rate=0.01, max_iterations=5)
        assert not trace.converged
        assert trace.iterations_run == 5
        # Y = W X bitwise, so the gradient at the start and after it is 0
        rng = np.random.default_rng(3)
        w = rng.standard_normal((2, 3))
        X = rng.standard_normal((3, 12))
        net = Network(NetworkSpec.homogeneous([3, 2], Identity()), [w])
        trace = baseline_bp_clr(net, Dataset(X, w @ X), L2Loss(), rate=0.5,
                                max_iterations=10)
        assert trace.converged
        assert trace.iterations_run == 1
        assert trace.final_grad_norm == 0.0

    @pytest.mark.parametrize("baseline", [baseline_bp_clr, baseline_adagrad])
    def test_step_norm_is_the_residual_it_stepped_from(self, baseline):
        # both are at W_{k-1}: row k's step norm is row k-1's residual, bitwise
        net, data = self._logistic_problem()
        trace = baseline(net, data, L2Loss(), rate=0.1, max_iterations=6)
        before = [trace.initial_grad_norm] + [r.full_grad_norm for r in trace.rows[:-1]]
        assert len(trace.rows) == 6
        assert [r.block_grad_norm for r in trace.rows] == before

    def test_adagrad_first_step_scaling(self):
        net, data, _ = self._ridge_problem(seed=2)
        rate, eps = 0.5, 1e-8
        grads = all_block_gradients(net, data, L2Loss())
        trace = baseline_adagrad(net, data, L2Loss(), rate=rate, eps=eps,
                                 max_iterations=1)
        g = grads[0]
        want = net.weights[0] - rate * g / np.sqrt(g * g + eps)
        # recompute the step through the recorded objective
        stepped = net.copy()
        stepped.weights[0] = want
        from bsumnet.gradients import objective_value
        assert trace.rows[0].f == pytest.approx(
            objective_value(stepped, data, L2Loss()), rel=1e-12)

    def test_adagrad_zero_gradient_frozen(self):
        # start exactly at the unregularized optimum: Y = W X
        rng = np.random.default_rng(3)
        w = rng.standard_normal((2, 3))
        spec = NetworkSpec.homogeneous([3, 2], Identity())
        net = Network(spec, [w.copy()])
        X = rng.standard_normal((3, 12))
        data = Dataset(X, w @ X)
        trace = baseline_adagrad(net, data, L2Loss(), rate=0.5,
                                 max_iterations=10)
        assert trace.final_f == pytest.approx(0.0, abs=1e-20)
        assert trace.final_grad_norm == pytest.approx(0.0, abs=1e-12)

    def test_adagrad_accumulator_shrinks_steps(self):
        net, data, _ = self._ridge_problem(seed=4)
        trace = baseline_adagrad(net, data, L2Loss(), rate=0.05,
                                 max_iterations=80)
        assert trace.final_f < trace.initial_f

    @pytest.mark.parametrize("baseline", [baseline_bp_clr, baseline_adagrad])
    @pytest.mark.parametrize("iterations", [0, -3])
    def test_no_iterations_rejected(self, baseline, iterations):
        # once an empty run reported status ok
        net, data, _ = self._ridge_problem()
        with pytest.raises(SpecError, match="max_iterations and record_every must be >= 1"):
            baseline(net, data, L2Loss(), rate=0.1, max_iterations=iterations)

    def test_bp_clr_takes_no_eps(self):
        # its eps was once accepted and never read
        assert BaselineSpec("adagrad", eps=1e-6).eps == 1e-6
        with pytest.raises(SpecError, match="no eps"):
            BaselineSpec("bp_clr", eps=1e-8)

    def test_l1_regularizer_refused(self):
        rng = np.random.default_rng(5)
        spec = NetworkSpec.homogeneous([3, 2], Identity(),
                                       regularizer=Regularizer.l1(0.1))
        net = build_network(spec, "uniform", seed=5)
        data = Dataset(rng.standard_normal((3, 6)), rng.standard_normal((2, 6)))
        with pytest.raises(NonSmoothError):
            baseline_bp_clr(net, data, L2Loss(), rate=0.1)


def toy_trace(k_values):
    rows = [TraceRow(k, ((k - 1) % 2) + 1, 1.0 / k, 0.5 / k, 0.1, 0.2,
                     0.3, 1.5, 0.001 * k) for k in k_values]
    return TrainTrace(rows=rows, initial_f=2.0, initial_grad_norm=1.0,
                      final_f=rows[-1].f if rows else math.nan)


class TestCurveFiles:
    def test_empty_trace_header_only(self, tmp_path):
        p = emit_curves([("m", 0, TrainTrace())], tmp_path / "c.csv")
        assert p.read_text(encoding="utf-8") == CURVE_HEADER + "\n"

    def test_round_trip_exact(self, tmp_path):
        trace = toy_trace([1, 2, 3])
        # adversarial floats: 17 significant digits must survive
        trace.rows[0] = TraceRow(1, 1, 1 / 3, math.pi, 0.55, 0.1 + 0.2,
                                 0.9999999999999999, 1.0, 1e-17)
        p = emit_curves([("m", 7, trace)], tmp_path / "c.csv")
        rows = parse_curves(p)
        # columns: method, seed, k, f, nmse, grad_norm (full), alpha, wall
        assert rows[0] == ("m", 7, 1, 1 / 3, math.pi, 0.1 + 0.2,
                           0.9999999999999999, 1e-17)
        assert rows[1][3] == trace.rows[1].f

    def test_rows_grouped_by_method_seed_k(self, tmp_path):
        t1, t2 = toy_trace([2, 1]), toy_trace([1])
        p = emit_curves([("zeta", 0, t2), ("alpha", 1, t1), ("alpha", 0, t2)],
                        tmp_path / "c.csv")
        rows = parse_curves(p)
        keys = [(r[0], r[1], r[2]) for r in rows]
        assert keys == sorted(keys)

    def test_lf_newlines_utf8(self, tmp_path):
        p = emit_curves([("m", 0, toy_trace([1]))], tmp_path / "c.csv")
        raw = p.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8")


def minimal_config(tmp_path, **overrides):
    raw = {
        "dataset": {"kind": "synthetic", "seed": 0, "n_samples": 24,
                    "n_features": 4, "teacher_dims": [4, 3, 1],
                    "noise_sigma": 0.05},
        "network": {"dims": [4, 3, 1], "activation": "logistic",
                    "regularizer": {"kind": "l2", "lam": 0.01}},
        "loss": "l2",
        "methods": [{"name": "prop", "upperbound":
                     {"kind": "first_order_prox", "gamma": 0.5},
                     "schedule": {"kind": "inverse_root", "c": 1.0},
                     "max_iterations": 40, "record_every": 2,
                     "adapt_gamma": False}],
        "baselines": [{"kind": "bp_clr", "rate": 0.1, "max_iterations": 20}],
        "seeds": [0],
        "output_dir": str(tmp_path / "out"),
    }
    raw.update(overrides)
    return raw


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def traces(draw):
    ks = sorted(draw(st.sets(st.integers(1, 10**6), max_size=8)))
    rows = [TraceRow(k, draw(st.integers(0, 5)), *draw(st.tuples(*[finite] * 7)))
            for k in ks]
    return TrainTrace(rows, *draw(st.tuples(*[finite] * 4)), draw(st.integers(0, 10**6)),
                      draw(st.booleans()), draw(st.booleans()), draw(st.text(max_size=5)))


class TestCurveProperties:
    @given(traces(), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_emit_parse_round_trip(self, trace, seed):
        with tempfile.TemporaryDirectory() as tmp:
            rows = parse_curves(emit_curves([("m", seed, trace)], Path(tmp) / "c.csv"))
        assert rows == [("m", seed, r.k, r.f, r.normalized_mse, r.full_grad_norm,
                         r.alpha, r.wall_seconds) for r in trace.rows]

    @given(st.lists(st.tuples(st.integers(1, 10**6),
                              *[st.floats(allow_subnormal=True) | st.sampled_from(
                                  [math.inf, -math.inf, math.nan, -0.0, 5e-324, -2e-310])] * 5),
                    max_size=6),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_row_text_is_the_joined_17_digit_fields(self, values, seed):
        # each row is one %-string; it writes what joining format(x, ".17g")
        # of each field wrote, for finite, infinite, nan, -0.0 and subnormal x
        trace = TrainTrace([TraceRow(k, 1, f, nmse, 0.5, norm, alpha, 1.0, wall)
                            for k, f, nmse, norm, alpha, wall in values])
        with tempfile.TemporaryDirectory() as tmp:
            text = emit_curves([("m", seed, trace)], Path(tmp) / "c.csv").read_text()
        old = [",".join(["m", str(int(seed)), str(int(r.k))] + [
                   format(float(x), ".17g") for x in
                   (r.f, r.normalized_mse, r.full_grad_norm, r.alpha, r.wall_seconds)])
               for r in sorted(trace.rows, key=lambda r: r.k)]
        assert text == "\n".join([CURVE_HEADER] + old) + "\n"

    @given(traces())
    @settings(max_examples=60, deadline=None)
    def test_zero_wall_changes_only_wall_seconds(self, trace):
        zeroed = _zero_wall(trace)
        assert [r.wall_seconds for r in zeroed.rows] == [0.0] * len(trace.rows)
        assert [dataclasses.astuple(r)[:-1] for r in zeroed.rows] == \
            [dataclasses.astuple(r)[:-1] for r in trace.rows]
        fields = [f.name for f in dataclasses.fields(TrainTrace) if f.name != "rows"]
        assert all(getattr(zeroed, f) == getattr(trace, f) for f in fields)


class TestConfigParsing:
    def test_minimal_config_parses(self, tmp_path):
        cfg = parse_config(minimal_config(tmp_path))
        assert cfg.spec.dims == (4, 3, 1)
        assert cfg.methods[0].name == "prop"
        assert cfg.baselines[0].name == "bp_clr"

    def test_unknown_top_level_key_rejected(self, tmp_path):
        raw = minimal_config(tmp_path)
        raw["surprise"] = 1
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(raw)

    def test_unknown_nested_key_rejected(self, tmp_path):
        raw = minimal_config(tmp_path)
        raw["methods"][0]["learning_rate"] = 0.1
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(raw)

    def test_unknown_kind_rejected(self, tmp_path):
        raw = minimal_config(tmp_path)
        raw["loss"] = "l3"
        with pytest.raises(ConfigError, match="unknown loss"):
            parse_config(raw)
        raw = minimal_config(tmp_path)
        raw["methods"][0]["upperbound"] = {"kind": "linear"}
        with pytest.raises(ConfigError, match="unknown upperbound 'linear'"):
            parse_config(raw)

    def test_needs_some_method(self, tmp_path):
        raw = minimal_config(tmp_path, methods=[], baselines=[])
        with pytest.raises(ConfigError, match="at least one"):
            parse_config(raw)

    def test_seeds_required_nonempty(self, tmp_path):
        raw = minimal_config(tmp_path, seeds=[])
        with pytest.raises(ConfigError):
            parse_config(raw)

    @pytest.mark.parametrize("seeds", [[-1], [0, 0], [2, 1, 2]])
    def test_seeds_distinct_and_nonnegative(self, tmp_path, seeds):
        # a repeated seed wrote the same files twice
        with pytest.raises(ConfigError, match=r"seeds: need distinct integers >= 0"):
            parse_config(minimal_config(tmp_path, seeds=seeds))

    def test_data_is_what_the_reader_returns(self, tmp_path):
        csv_path = write_csv(tmp_path / "d.csv",
                             "a,b,y,c,d\n1,2,0.5,3,1\n4,6,1.5,5,0\n7,9,2.5,8,2\n")
        raw = minimal_config(tmp_path)
        del raw["dataset"]["n_features"]  # defaults to network dims[0]
        want = synth_regression(seed=0, n_samples=24, n_features=4, teacher_dims=[4, 3, 1],
                                noise_sigma=0.05)
        got = parse_config(raw).data
        raw["dataset"] = {"kind": "csv", "path": str(csv_path), "target_cols": ["y"],
                          "standardize": True}
        want_csv = load_csv_dataset(csv_path, ["y"], standardize=True)
        got_csv = parse_config(raw).data
        for got, want in ((got, want), (got_csv, want_csv)):
            for a, b in ((got.X, want.X), (got.Y, want.Y)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dataset,message", [
        ({"kind": "csv", "path": "missing.csv", "target_cols": ["y"]},
         "dataset: dataset file not found: missing.csv"),
        ({"kind": "csv", "target_cols": ["y"]},
         "dataset: load_csv_dataset() missing 1 required positional argument: 'path'"),
        ({"kind": "synthetic", "noise_sigma": -1},
         "dataset: need n_samples >= 1, seed >= 0 and noise_sigma >= 0"),
    ], ids=["missing_file", "missing_path", "negative_noise"])
    def test_dataset_errors_at_load(self, tmp_path, monkeypatch, dataset, message):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigError) as exc:
            parse_config(minimal_config(tmp_path, dataset=dataset))
        assert str(exc.value).startswith(message)

    def test_load_config_bad_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(p)

    def test_per_layer_lists(self, tmp_path):
        raw = minimal_config(tmp_path)
        raw["network"]["activation"] = ["softplus", "logistic"]
        raw["network"]["regularizer"] = [{"kind": "l2", "lam": 0.1},
                                         {"kind": "none"}]
        cfg = parse_config(raw)
        assert cfg.spec.activations[0].name == "softplus"
        assert cfg.spec.regularizers[1].kind == "none"

    def test_readme_config_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = parse_config(json.loads(block))
        assert [m.name for m in cfg.methods] == ["prop_invroot", "prop_recursive",
                                                 "prop_geometric"]
        assert [b.name for b in cfg.baselines] == ["bp_clr", "adagrad"]


class TestRunExperiment:
    def test_single_method_single_seed_cardinality(self, tmp_path):
        raw = minimal_config(tmp_path, baselines=[])
        result = run_experiment(parse_config(raw))
        assert len(result.curve_paths) == 1
        assert len(result.summary_paths) == 1
        assert not result.failures
        assert result.curve_paths[0].exists()

    def test_identical_config_bitwise_identical_curves(self, tmp_path):
        raw = minimal_config(tmp_path)
        cfg = parse_config(raw)
        r1 = run_experiment(cfg, out_dir=tmp_path / "a")
        r2 = run_experiment(cfg, out_dir=tmp_path / "b")
        for p1, p2 in zip(sorted(r1.curve_paths), sorted(r2.curve_paths)):
            assert p1.read_bytes() == p2.read_bytes()

    def test_methods_share_initial_network_per_seed(self, tmp_path):
        raw = minimal_config(tmp_path)
        cfg = parse_config(raw)
        result = run_experiment(cfg)
        summaries = {}
        for p in result.summary_paths:
            s = json.loads(p.read_text(encoding="utf-8"))
            summaries[s["method"]] = s
        assert summaries["prop"]["initial_f"] == summaries["bp_clr"]["initial_f"]

    def test_failed_run_reported_others_written(self, tmp_path):
        raw = minimal_config(tmp_path)
        # a second method with an explosive configuration aborts on overflow
        raw["loss"] = {"kind": "exponential", "c": 0.01}
        raw["methods"].append({
            "name": "explosive",
            "upperbound": {"kind": "first_order_prox", "gamma": 1e-9},
            "schedule": {"kind": "constant", "c": 0.9},
            "max_iterations": 30, "adapt_gamma": False})
        raw["dataset"]["noise_sigma"] = 3.0
        result = run_experiment(parse_config(raw))
        assert result.failures
        assert any("explosive" in f for f in result.failures)
        assert len(result.curve_paths) == 3  # all runs still wrote files

    def test_run_that_raises_is_summarized(self, tmp_path):
        # exact BCD on an unregularized deep linear net: block 1's downstream
        # factor (2 x 3) is rank-deficient, so its closed-form solve raises on
        # the first step; the summary and curve still appear
        raw = minimal_config(tmp_path, baselines=[])
        raw["dataset"]["teacher_dims"] = raw["network"]["dims"] = [3, 3, 2]
        raw["dataset"]["n_features"] = 3
        raw["network"].update(activation="identity", regularizer="none")
        raw["methods"][0].update(upperbound={"kind": "proximal", "gamma": 0},
                                 unit_stepsize=True, schedule=None)
        result = run_experiment(parse_config(raw))
        message = ("SingularError: normal equations singular; "
                   "use lam > 0 or full-rank factors")
        assert result.failures == [f"prop seed 0: {message}"]
        summary = json.loads(result.summary_paths[0].read_text(encoding="utf-8"))
        del summary["wall_time_seconds"]
        assert summary == {"method": "prop", "seed": 0, "status": "failed",
                           "error": message, "final_f": None, "final_grad_norm": None,
                           "initial_f": None, "initial_grad_norm": None,
                           "iterations": 0, "cycle_equivalents": 0, "converged": False}
        assert result.curve_paths[0].read_text(encoding="utf-8") == CURVE_HEADER + "\n"

    def test_unwritable_curve_fails_only_its_run(self, tmp_path):
        # a directory where method a's curve goes: a fails, b still writes
        # its curve and its summary
        raw = minimal_config(tmp_path, baselines=[])
        raw["methods"] = [dict(raw["methods"][0], name=name) for name in ("a", "b")]
        (tmp_path / "out" / "a_seed0.csv").mkdir(parents=True)
        result = run_experiment(parse_config(raw))
        assert len(result.failures) == 1
        assert result.failures[0].startswith("a seed 0: cannot write curve file")
        assert "a_seed0.csv" in result.failures[0]
        assert [p.name for p in result.curve_paths] == ["b_seed0.csv"]
        assert [p.name for p in result.summary_paths] == ["a_seed0.summary.json",
                                                          "b_seed0.summary.json"]
        assert parse_curves(result.curve_paths[0])
        summary = json.loads(result.summary_paths[1].read_text(encoding="utf-8"))
        assert summary["method"] == "b" and summary["status"] == "ok"

    def test_unwritable_summary_fails_only_its_run(self, tmp_path):
        raw = minimal_config(tmp_path, baselines=[])
        raw["methods"] = [dict(raw["methods"][0], name=name) for name in ("a", "b")]
        (tmp_path / "out" / "a_seed0.summary.json").mkdir(parents=True)
        result = run_experiment(parse_config(raw))
        assert len(result.failures) == 1
        assert result.failures[0].startswith("a seed 0: cannot write summary file")
        assert [p.name for p in result.curve_paths] == ["a_seed0.csv", "b_seed0.csv"]
        assert [p.name for p in result.summary_paths] == ["b_seed0.summary.json"]

    def test_seed_override(self, tmp_path):
        raw = minimal_config(tmp_path, baselines=[])
        result = run_experiment(parse_config(raw), seeds=[3, 4])
        assert len(result.curve_paths) == 2
        names = sorted(p.name for p in result.curve_paths)
        assert names == ["prop_seed3.csv", "prop_seed4.csv"]

    def test_seed_override_needs_integers(self, tmp_path):
        raw = minimal_config(tmp_path, baselines=[])
        with pytest.raises(ConfigError, match=r"seeds\[0\]: expected int"):
            run_experiment(parse_config(raw), seeds=[0.5])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seeds", [[-3], [1, 1]])
    def test_seed_override_checked_as_config_seeds(self, tmp_path, seeds):
        raw = minimal_config(tmp_path, baselines=[])
        with pytest.raises(ConfigError, match=r"seeds: need distinct integers >= 0"):
            run_experiment(parse_config(raw), seeds=seeds)
        assert not (tmp_path / "out").exists()

    def test_csv_config_runs_after_its_file_is_gone(self, tmp_path):
        # the dataset is read once, when the config loads
        data = synth_regression(seed=1, n_samples=12, n_features=4, teacher_dims=[4, 3, 1])
        rows = [",".join(["a", "b", "c", "d", "y"])]
        rows += [",".join(repr(float(v)) for v in col) for col in np.vstack([data.X, data.Y]).T]
        csv_path = write_csv(tmp_path / "d.csv", "\n".join(rows) + "\n")
        raw = minimal_config(tmp_path)
        raw["dataset"] = {"kind": "csv", "path": str(csv_path), "target_cols": ["y"]}
        cfg = parse_config(raw)
        csv_path.unlink()
        result = run_experiment(cfg)
        assert not result.failures
        assert len(result.curve_paths) == 2

    def test_five_curve_benchmark_shape(self, tmp_path):
        # three proposed schedule variants plus two baselines, one seed
        raw = minimal_config(tmp_path)
        raw["methods"] = [
            {"name": "prop_invroot",
             "schedule": {"kind": "inverse_root", "c": 1.0},
             "max_iterations": 24, "adapt_gamma": False},
            {"name": "prop_recursive",
             "schedule": {"kind": "recursive", "alpha0": 1.0, "t": 0.99},
             "max_iterations": 24, "adapt_gamma": False},
            {"name": "prop_geometric",
             "schedule": {"kind": "geometric", "c": 1.0},
             "max_iterations": 24, "adapt_gamma": False},
        ]
        raw["baselines"] = [
            {"kind": "bp_clr", "rate": 0.05, "max_iterations": 12},
            {"kind": "adagrad", "rate": 0.05, "max_iterations": 12},
        ]
        result = run_experiment(parse_config(raw))
        assert len(result.curve_paths) == 5
        assert not result.failures
        methods = set()
        for p in result.curve_paths:
            for row in parse_curves(p):
                methods.add(row[0])
        assert methods == {"prop_invroot", "prop_recursive", "prop_geometric",
                           "bp_clr", "adagrad"}

    def test_wall_seconds_zeroed_in_curves(self, tmp_path):
        raw = minimal_config(tmp_path, baselines=[])
        result = run_experiment(parse_config(raw))
        for row in parse_curves(result.curve_paths[0]):
            assert row[7] == 0.0
        summary = json.loads(result.summary_paths[0].read_text(encoding="utf-8"))
        assert summary["wall_time_seconds"] > 0


class TestRunnerDetails:
    def test_emit_curves_io_error_carries_path(self, tmp_path):
        target = tmp_path / "is_a_dir"
        target.mkdir()
        with pytest.raises(IngestError, match="is_a_dir"):
            emit_curves([("m", 0, toy_trace([1]))], target)

    def test_trace_rows_strictly_increasing_cyclic_blocks(self, tmp_path):
        raw = minimal_config(tmp_path, baselines=[])
        raw["methods"][0]["record_every"] = 1
        raw["methods"][0]["max_iterations"] = 17
        cfg = parse_config(raw)
        result = run_experiment(cfg)
        rows = parse_curves(result.curve_paths[0])
        ks = [r[2] for r in rows]
        assert ks == sorted(set(ks))
        depth = len(cfg.spec.dims) - 1
        # block identity is recoverable from k under the cyclic rule
        assert all(((k - 1) % depth) + 1 in range(1, depth + 1) for k in ks)


class TestBaselineComparison:
    def test_bp_clr_needs_more_cycles_than_proposed(self):
        """Median cycles to shrink the residual norm by 10x, over 5 seeds:
        the block method with an inverse-root schedule beats constant-rate
        backprop at a representative rate."""
        from bsumnet import (FirstOrderProx, InverseRoot, L2Loss, Logistic,
                             NetworkSpec, build_network, synth_regression,
                             train)
        from bsumnet.gradients import all_block_gradients
        from bsumnet.trainer import TrainConfig

        data = synth_regression(seed=0, n_samples=252, n_features=13,
                                noise_sigma=0.1)
        spec = NetworkSpec.homogeneous([13, 10, 10, 10, 1], Logistic(),
                                       regularizer=Regularizer.l2(1e-2))
        loss = L2Loss()
        cap = 1000
        prop_cycles, bp_cycles = [], []
        for seed in range(5):
            net = build_network(spec, "uniform", seed=seed)
            grads = all_block_gradients(net, data, loss)
            initial = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
            target = 0.1 * initial
            depth = net.depth
            cfg = TrainConfig(upperbound=FirstOrderProx(0.25),
                              schedule=InverseRoot(2.0),
                              max_outer_iterations=cap * depth,
                              grad_norm_tol=target, adapt_gamma=False)
            _, tp = train(net, data, loss, cfg)
            prop_cycles.append(tp.iterations_run // depth if tp.converged else cap)
            tb = baseline_bp_clr(net, data, loss, rate=0.1,
                                 max_iterations=cap, grad_norm_tol=target)
            bp_cycles.append(tb.iterations_run if tb.converged else cap)
        assert np.median(prop_cycles) < np.median(bp_cycles), \
            (prop_cycles, bp_cycles)
