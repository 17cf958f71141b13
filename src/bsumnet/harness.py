"""Experiment harness: dataset ingestion, baselines, and reproducible runs.

An experiment is a JSON config naming a dataset (CSV file or seeded synthetic
generator), a network, a loss, one or more proposed-method variants, and
optional baseline optimizers. ``parse_config`` checks it all and reads the
dataset, so a config that loads can run. Every (method, seed) pair trains
from the same seed-determined initial network and produces one curve CSV
plus one JSON summary; the baselines are steps run by the trainer's loop.
Curve files are byte-reproducible: the wall_seconds column is zeroed on
emission (real timings live in the summaries).
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import re
import time
import typing
from dataclasses import dataclass, field, is_dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (ConfigError, CurvatureError, DomainError, IngestError, NonSmoothError,
                     SizeError, SpecError)
from .functions import ACTIVATIONS, LOSSES, REGULARIZERS, Logistic
from .gradients import NetworkPass
from .netcore import (FEASIBLE_SETS, INIT_SCHEMES, Dataset, Network,
                      NetworkSpec, build_network, forward)
from .trainer import SCHEDULES, TrainConfig, TraceRow, TrainTrace, run_loop, train
from .upperbounds import UPPERBOUNDS

__all__ = [
    "load_csv_dataset", "synth_regression",
    "baseline_bp_clr", "baseline_adagrad",
    "emit_curves", "parse_curves",
    "ExperimentConfig", "BaselineSpec", "MethodSpec", "ExperimentResult",
    "parse_config", "load_config", "run_experiment",
]

CURVE_HEADER = "method,seed,k,f,normalized_mse,grad_norm,alpha,wall_seconds"

_DIVERGENCE_CAP = 1e12


# ---------------------------------------------------------------------------
# dataset ingestion
# ---------------------------------------------------------------------------

def load_csv_dataset(path: str, target_cols: list, standardize: bool = False) -> Dataset:
    """Read a numeric CSV (header row required) into feature/target matrices.

    ``target_cols`` selects target columns by header name or 0-based index;
    the remaining columns become features, in file order. Matrices are
    transposed to the (d, N) layout. With ``standardize`` each feature row is
    z-scored using the population standard deviation; constant rows are left
    at zero after centering.
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"dataset file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file, header row required") from None
        header = [h.strip() for h in header]
        rows = []
        for i, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise IngestError(f"{path}: row {i} has {len(row)} cells, header has {len(header)}")
            vals = []
            for name, cell in zip(header, row):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise IngestError(
                        f"{path}: row {i}, column {name!r}: non-numeric cell {cell!r}") from None
            rows.append(vals)
    if not rows:
        raise IngestError(f"{path}: no data rows")

    t_idx = []
    for col in target_cols:
        if isinstance(col, bool):
            raise IngestError(f"target column {col!r} is neither a header name nor an index")
        if isinstance(col, int):
            if not 0 <= col < len(header):
                raise IngestError(f"target column index {col} outside 0..{len(header) - 1}")
            t_idx.append(col)
        else:
            if col not in header:
                raise IngestError(f"target column {col!r} not in header {header}")
            t_idx.append(header.index(col))
    if not t_idx:
        raise IngestError("at least one target column is required")
    if len(set(t_idx)) != len(t_idx):
        raise IngestError(f"duplicate target columns in {target_cols}")
    f_idx = [i for i in range(len(header)) if i not in t_idx]
    if not f_idx:
        raise IngestError("no feature columns left after removing targets")

    table = np.asarray(rows, dtype=float)
    X = table[:, f_idx].T.copy()
    Y = table[:, t_idx].T.copy()
    if standardize:
        mean = X.mean(axis=1, keepdims=True)
        std = X.std(axis=1, keepdims=True)
        X = X - mean
        live = std[:, 0] > 0
        X[live] /= std[live]
    return Dataset(X, Y)


def synth_regression(seed: int = 0, n_samples: int = 252, n_features: int = 13,
                     teacher_dims: list[int] | None = None,
                     noise_sigma: float = 0.1, return_teacher: bool = False):
    """Gaussian inputs through a seeded logistic teacher network plus noise.

    Defaults mirror the benchmark scale (N=252, 13 features, one target).
    Deterministic in all arguments.
    """
    if n_samples < 1 or seed < 0 or not noise_sigma >= 0:
        raise SpecError(f"need n_samples >= 1, seed >= 0 and noise_sigma >= 0, "
                        f"got {n_samples}, {seed} and {noise_sigma}")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_features, n_samples))
    dims = list(teacher_dims) if teacher_dims is not None \
        else [n_features, 10, 10, 10, 1]
    if dims[0] != n_features:
        raise SpecError(f"teacher dims start at {dims[0]}, expected {n_features}")
    spec = NetworkSpec.homogeneous(dims, Logistic())
    teacher = build_network(spec, "gaussian", seed=int(rng.integers(2 ** 31)))
    Y = forward(teacher, X).output
    if noise_sigma > 0:
        Y = Y + noise_sigma * rng.standard_normal(Y.shape)
    data = Dataset(X, Y)
    return (data, teacher) if return_teacher else data


# ---------------------------------------------------------------------------
# baseline optimizers
# ---------------------------------------------------------------------------

def _check_baseline(kind: str, rate: float, max_iterations: int, record_every: int,
                    eps: float | None = None) -> None:
    if kind not in ("bp_clr", "adagrad"):
        raise SpecError(f"unknown baseline {kind!r}")
    if kind == "bp_clr" and not (rate >= 0 and eps is None):
        raise SpecError("bp_clr takes a nonnegative learning rate and no eps")
    if kind == "adagrad" and not (rate > 0 and (eps is None or eps > 0)):
        raise SpecError("rate and eps must be positive")
    if max_iterations < 1 or record_every < 1:
        raise SpecError("max_iterations and record_every must be >= 1")


def _check_smooth(spec: NetworkSpec) -> None:
    if any(not r.smooth for r in spec.regularizers):
        raise NonSmoothError("baseline optimizers need smooth regularizers everywhere")


def _baseline(net: Network, data: Dataset, loss, rate: float, update,
              max_iterations: int, record_every: int,
              grad_norm_tol: float) -> TrainTrace:
    """Simultaneous update W_j <- update(j, W_j, G_j) of every layer, all
    from the gradients at the same iterate, stepped on one pass by the
    trainer's loop (``run_loop``) with a cycle of one iteration."""
    _check_smooth(net.spec)
    full = NetworkPass(net, data, loss)

    def step(k, residual):
        for j, g in enumerate(full.grads()):
            full._install(j + 1, update(j, full.net.weights[j], g))  # a fresh array
        return 0, rate, 0.0, lambda: residual

    return run_loop(full, step, max_iterations, 1, record_every, grad_norm_tol,
                    _DIVERGENCE_CAP)


def baseline_bp_clr(net: Network, data: Dataset, loss, rate: float,
                    max_iterations: int = 1000, record_every: int = 1,
                    grad_norm_tol: float = 0.0) -> TrainTrace:
    """Plain backprop with a constant learning rate.

    All layers step simultaneously from gradients taken at the same iterate
    (one iteration here is a full-cycle equivalent of the block methods).
    Row k has f and the residual at W_k; the run converges at the first W_k
    with residual <= ``grad_norm_tol`` (with 0, only at a zero gradient) and
    aborts once f exceeds the divergence cap. rate = 0 freezes the weights.
    """
    _check_baseline("bp_clr", rate, max_iterations, record_every)
    return _baseline(net, data, loss, rate, lambda j, w, g: w - rate * g,
                     max_iterations, record_every, grad_norm_tol)


def baseline_adagrad(net: Network, data: Dataset, loss, rate: float = 0.01,
                     eps: float = 1e-8, max_iterations: int = 1000,
                     record_every: int = 1, grad_norm_tol: float = 0.0) -> TrainTrace:
    """Backprop scaled per entry by accumulated squared gradients.

    Accumulators start at zero and grow monotonically; the update is
    rate * g / sqrt(accum + eps). Rows and stopping as in ``baseline_bp_clr``.
    """
    _check_baseline("adagrad", rate, max_iterations, record_every, eps)
    accum = [np.zeros_like(w) for w in net.weights]

    def update(j, w, g):
        accum[j] += g * g
        return w - rate * g / np.sqrt(accum[j] + eps)

    return _baseline(net, data, loss, rate, update, max_iterations, record_every,
                     grad_norm_tol)


# ---------------------------------------------------------------------------
# curve files
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def emit_curves(traces, path) -> Path:
    """Write (method, seed, trace) triples as one CSV, LF newlines, UTF-8.

    Rows are grouped by method, then seed, then iteration. Floats use 17
    significant digits so parse(emit(trace)) round-trips exactly.
    """
    path = Path(path)
    entries = sorted(traces, key=lambda t: (t[0], t[1]))
    lines = [CURVE_HEADER]
    for method, seed, trace in entries:
        for r in sorted(trace.rows, key=lambda r: r.k):
            lines.append(",".join([
                method, str(int(seed)), str(int(r.k)),
                _fmt(r.f), _fmt(r.normalized_mse), _fmt(r.full_grad_norm),
                _fmt(r.alpha), _fmt(r.wall_seconds),
            ]))
    try:
        with open(path, "w", newline="\n", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IngestError(f"cannot write curve file {path}: {exc}") from exc
    return path


def parse_curves(path):
    """Inverse of emit_curves: list of (method, seed, k, f, nmse, grad_norm,
    alpha, wall_seconds) tuples."""
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if ",".join(header) != CURVE_HEADER:
            raise IngestError(f"{path}: unexpected header {header}")
        for row in reader:
            out.append((row[0], int(row[1]), int(row[2])) + tuple(float(c) for c in row[3:]))
    return out


# ---------------------------------------------------------------------------
# experiment configs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MethodSpec:
    name: str
    train: TrainConfig


@dataclass(frozen=True)
class BaselineSpec:
    name: str            # "bp_clr" | "adagrad"
    rate: float = 0.01
    eps: float | None = None  # adagrad only; None keeps baseline_adagrad's default
    max_iterations: int = 1000
    record_every: int = 1
    grad_norm_tol: float = 0.0

    def __post_init__(self):
        _check_baseline(self.name, self.rate, self.max_iterations, self.record_every, self.eps)


@dataclass(frozen=True)
class ExperimentConfig:
    data: Dataset
    spec: NetworkSpec
    loss: object
    methods: tuple
    baselines: tuple
    seeds: tuple
    output_dir: str = "out"
    init: str = "uniform"
    init_scale: float | None = None

    def __post_init__(self):
        if not self.methods and not self.baselines:
            raise ConfigError("configure at least one method or baseline")
        if not self.seeds or min(self.seeds) < 0 or len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"seeds: need distinct integers >= 0, got {list(self.seeds)}")
        if self.init not in INIT_SCHEMES:
            raise ConfigError(f"network.init: unknown scheme {self.init!r}")
        if not (self.init_scale is None or self.init_scale > 0):
            raise ConfigError(f"network.init_scale: must be > 0, got {self.init_scale}")


def _reject_unknown(d: dict, allowed, where: str) -> None:
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object, got {value!r}")
    return dict(value)


def _typed(value, hint, where: str):
    """``value`` checked against a constructor annotation. A bool, str or
    list needs that JSON type, an int an integral number, a float any number
    (stored as a float); ``X | None`` also takes null, ``list[X]`` checks
    each element, and a dataclass is built by _construct. Other
    annotations take any value."""
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
    if typing.get_origin(hint) is list:
        (elem,) = typing.get_args(hint)
        return [_typed(v, elem, f"{where}[{i}]")
                for i, v in enumerate(_typed(value, list, where))]
    if is_dataclass(hint):
        return _construct(hint, value, where)
    if hint in (bool, str, list):
        ok = isinstance(value, hint)
    elif hint in (int, float):
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) \
            and (hint is float or isinstance(value, int) or value.is_integer())
    else:
        return value
    if not ok:
        raise ConfigError(f"{where}: expected {hint.__name__}, got {value!r}")
    return hint(value)


def _construct(cls, params: dict, where: str, renamed: dict | None = None):
    """``cls(**params)`` with each value typed by the constructor's
    annotation. The allowed keys are its parameters, ``renamed`` ones
    (JSON key -> parameter) under their JSON key; a value the constructor
    rejects is a ConfigError at ``where``."""
    params = _object(params, where)
    renamed = renamed or {}
    keys = set(inspect.signature(cls).parameters) - set(renamed.values())
    _reject_unknown(params, keys | set(renamed), where)
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in params.items():
        param = renamed.get(key, key)
        kwargs[param] = _typed(value, hints.get(param), f"{where}.{key}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc} (given {params})") from None


def _parse_kind(value, registry: dict, family: str, where: str):
    """The object a kind name or a ``{"kind": name, **params}`` entry names."""
    d = {"kind": value} if isinstance(value, str) else _object(value, where)
    kind = d.pop("kind", None)
    if not isinstance(kind, str) or kind not in registry:
        raise ConfigError(f"{where}: unknown {family} {kind!r}; options: {sorted(registry)}")
    return _construct(registry[kind], d, where)


def _maybe_list(value, registry, family, where):
    """One kind object, or from a list one per layer (its consumer checks the length)."""
    if isinstance(value, list):
        return tuple(_parse_kind(v, registry, family, f"{where}[{i}]")
                     for i, v in enumerate(value))
    return _parse_kind(value, registry, family, where)


def _config_fields(d: dict, keys, where: str) -> dict:
    """Those of ``keys`` set in ``d``, typed as the ExperimentConfig fields."""
    hints = typing.get_type_hints(ExperimentConfig)
    return {key: _typed(d[key], hints[key], where + key) for key in keys if key in d}


def _read_dataset(value, dims: tuple, loss) -> Dataset:
    """The dataset read from its CSV file or built by the synthetic generator
    (with the network's ``dims[0]`` features by default); one that cannot be
    read or built, whose feature or target count differs from the network's
    input or output width, or whose targets the loss does not accept, is a
    ConfigError."""
    ds = _object(value, "dataset")
    kind = ds.pop("kind", None)
    if kind == "csv":
        read, keys = load_csv_dataset, ("path", "target_cols", "standardize")
    elif kind == "synthetic":
        read, keys = synth_regression, ("seed", "n_samples", "n_features",
                                        "teacher_dims", "noise_sigma")
        ds = {"n_features": dims[0], **ds}
    else:
        raise ConfigError(f"dataset: unknown kind {kind!r}")
    _reject_unknown(ds, keys, "dataset")
    hints = typing.get_type_hints(read)
    params = {key: _typed(v, hints.get(key), f"dataset.{key}") for key, v in ds.items()}
    try:
        data = read(**params)
        loss.check_labels(data.Y)
    except (TypeError, IngestError, SpecError, DomainError) as exc:
        raise ConfigError(f"dataset: {exc}") from None
    if (len(data.X), len(data.Y)) != (dims[0], dims[-1]):
        raise ConfigError(f"dataset: {len(data.X)} features and {len(data.Y)} targets, "
                          f"the network takes {dims[0]} and outputs {dims[-1]}")
    return data


def _parse_network(d: dict) -> dict:
    _reject_unknown(d, ("dims", "activation", "feasible", "regularizer",
                        "init", "init_scale"), "network")
    if "dims" not in d:
        raise ConfigError("network: dims is required")
    dims = _typed(d["dims"], list[int], "network.dims")
    depth = len(dims) - 1

    def widen(key, default, registry, family):
        parsed = _maybe_list(d.get(key, default), registry, family, f"network.{key}")
        return parsed if isinstance(parsed, tuple) else (parsed,) * depth

    acts = widen("activation", "logistic", ACTIVATIONS, "activation")
    feas = widen("feasible", "unconstrained", FEASIBLE_SETS, "feasible set")
    regs = widen("regularizer", "none", REGULARIZERS, "regularizer")
    try:
        spec = NetworkSpec(tuple(dims), acts, feas, regs)
    except SpecError as exc:
        raise ConfigError(f"network: {exc}") from None
    return {"spec": spec, **_config_fields(d, ("init", "init_scale"), "network.")}


def _parse_method(d: dict, idx: int, spec: NetworkSpec, loss, n_samples: int) -> MethodSpec:
    where = f"methods[{idx}]"
    name = _typed(d.pop("name", f"prop{idx}"), str, f"{where}.name")
    if not re.fullmatch(r"[A-Za-z0-9_-][A-Za-z0-9_.-]*", name):
        raise ConfigError(f"{where}.name: {name!r} is not a file stem of letters, "
                          "digits, '_', '-' and '.' (not starting with '.')")
    for key, registry in (("upperbound", UPPERBOUNDS), ("schedule", SCHEDULES)):
        if d.get(key) is not None:
            d[key] = _maybe_list(d[key], registry, key, f"{where}.{key}")
    train = _construct(TrainConfig, d, where, {"max_iterations": "max_outer_iterations"})
    try:
        train.blocks(spec, loss)
        train.sampler.check_size(n_samples)
    except (SpecError, NonSmoothError, SizeError, CurvatureError) as exc:
        raise ConfigError(f"{where}: {exc}") from None
    return MethodSpec(name, train)


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a config dict and read its dataset; unknown keys are rejected."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(raw, ("dataset", "network", "loss", "methods",
                          "baselines", "seeds", "output_dir"), "config")
    for key in ("dataset", "network", "seeds"):
        if key not in raw:
            raise ConfigError(f"config: {key} is required")

    network = _parse_network(_object(raw["network"], "network"))
    loss = _parse_kind(raw.get("loss", "l2"), LOSSES, "loss", "loss")
    data = _read_dataset(raw["dataset"], network["spec"].dims, loss)
    methods = tuple(_parse_method(_object(m, f"methods[{i}]"), i, network["spec"], loss,
                                  data.n_samples)
                    for i, m in enumerate(_typed(raw.get("methods", []), list, "methods")))
    baselines = tuple(_construct(BaselineSpec, b, f"baselines[{i}]", {"kind": "name"})
                      for i, b in enumerate(_typed(raw.get("baselines", []), list,
                                                   "baselines")))
    if baselines:
        try:
            _check_smooth(network["spec"])
        except NonSmoothError as exc:
            raise ConfigError(f"baselines: {exc}") from None
    names = [m.name for m in methods] + [b.name for b in baselines]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate method/baseline names in {names}")
    return ExperimentConfig(
        data=data, loss=loss, methods=methods, baselines=baselines,
        seeds=tuple(_typed(raw["seeds"], list[int], "seeds")),
        **network, **_config_fields(raw, ("output_dir",), ""))


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return parse_config(raw)


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    curve_paths: list = field(default_factory=list)
    summary_paths: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def _zero_wall(trace: TrainTrace) -> TrainTrace:
    # byte-identical reruns: timings stay in the JSON summaries only
    return replace(trace, rows=[TraceRow(r.k, r.block, r.f, r.normalized_mse, r.block_grad_norm,
                                         r.full_grad_norm, r.alpha, r.gamma, 0.0)
                                for r in trace.rows])


def _run_one(cfg: ExperimentConfig, spec, seed: int, net0: Network, out_dir: Path,
             result: ExperimentResult) -> None:
    """Train one (method, seed) pair and write its curve and summary into
    ``result``; an aborted run or an unwritable file is that run's failure."""
    name = spec.name
    t0 = time.perf_counter()
    trace = TrainTrace()
    cycle = cfg.spec.depth if isinstance(spec, MethodSpec) else 1
    try:
        if isinstance(spec, MethodSpec):
            _, trace = train(net0.copy(), cfg.data, cfg.loss, spec.train)
        else:
            run = baseline_bp_clr if name == "bp_clr" else baseline_adagrad
            options = {k: v for k, v in vars(spec).items() if k != "name" and v is not None}
            trace = run(net0.copy(), cfg.data, cfg.loss, **options)
    except Exception as exc:  # noqa: BLE001 - surfaced in the summary
        trace.abort(f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    failures = [trace.abort_reason] if trace.aborted else []

    try:
        result.curve_paths.append(
            emit_curves([(name, seed, _zero_wall(trace))], out_dir / f"{name}_seed{seed}.csv"))
    except IngestError as exc:
        failures.append(str(exc))

    def num(x):
        # keep the summaries strict JSON: no NaN/Infinity tokens
        return x if math.isfinite(x) else None

    summary = {
        "method": name,
        "seed": seed,
        "status": "failed" if trace.aborted else "ok",
        "error": trace.abort_reason,
        "final_f": num(trace.final_f),
        "final_grad_norm": num(trace.final_grad_norm),
        "initial_f": num(trace.initial_f),
        "initial_grad_norm": num(trace.initial_grad_norm),
        "iterations": trace.iterations_run,
        "cycle_equivalents": trace.iterations_run // cycle,
        "converged": trace.converged,
        "wall_time_seconds": wall,
    }
    summary_path = out_dir / f"{name}_seed{seed}.summary.json"
    try:
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        result.summary_paths.append(summary_path)
    except OSError as exc:
        failures.append(f"cannot write summary file {summary_path}: {exc}")
    result.failures.extend(f"{name} seed {seed}: {failure}" for failure in failures)


def run_experiment(cfg: ExperimentConfig, out_dir=None, seeds=None) -> ExperimentResult:
    """Train every configured (method, seed) pair and write curves/summaries.

    All methods share the seed's initial network, so comparisons start from
    the same point. Runs that abort are recorded as failed but do not stop
    the remaining runs, nor does a curve or summary that cannot be written.
    ``seeds`` replaces cfg.seeds and is checked alike.
    """
    if seeds:
        cfg = replace(cfg, seeds=tuple(_typed(seeds, list[int], "seeds")))
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    result = ExperimentResult()
    for seed in cfg.seeds:
        net0 = build_network(cfg.spec, cfg.init, seed=seed, scale=cfg.init_scale)
        for spec in cfg.methods + cfg.baselines:
            _run_one(cfg, spec, seed, net0, out, result)
    return result
