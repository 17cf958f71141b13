"""Command-line entry points.

    bsumnet train --config cfg.json [--out DIR] [--seed N ...]
    bsumnet validate-schedule --kind inverse_root [--param c=1.0 ...]
    bsumnet gradcheck --config cfg.json [--catalog] [--fd-tol 1e-6]

Exit codes: 0 success, 1 a run or check failed, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import ConfigError, IngestError, SpecError
from .functions import ACTIVATIONS, LOSSES, Logistic, Regularizer
from .gradients import NetworkPass, fd_gradient
from .harness import _parse_kind, load_config, run_experiment
from .netcore import Dataset, NetworkSpec, Unconstrained, build_network
from .trainer import SCHEDULES


def _parse_params(pairs):
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--param expects key=value, got {pair!r}")
        key, val = pair.split("=", 1)
        try:
            out[key] = float(val)
        except ValueError:
            raise ConfigError(f"--param {key}: bad value {val!r}") from None
    return out


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    result = run_experiment(cfg, out_dir=args.out, seeds=args.seed or None)
    for path in result.curve_paths:
        print(f"curve   {path}")
    for path in result.summary_paths:
        print(f"summary {path}")
    if result.failures:
        for failure in result.failures:
            print(f"FAILED  {failure}", file=sys.stderr)
        return 1
    return 0


def _cmd_validate_schedule(args) -> int:
    kind = args.kind.replace("-", "_")
    schedule = _parse_kind({"kind": kind, **_parse_params(args.param)},
                           SCHEDULES, "schedule", "--kind")
    verdict = "true" if schedule.satisfies_eq7 else "false"
    print(f"{kind}: satisfies stepsize conditions = {verdict}")
    print(f"  {schedule.witness}")
    return 0


def _gradcheck_net(net, data, loss, tol: float, label: str) -> bool:
    """Central-difference check of each block gradient; L1 blocks are skipped."""
    ok, fb = True, NetworkPass(net, data, loss)
    for j in range(1, net.depth + 1):
        if not net.spec.regularizers[j - 1].smooth:
            print(f"  skip {label} layer {j}: L1 regularizer has no gradient")
            continue
        analytic = fb.grad(j)
        numeric = fd_gradient(lambda w: fb.probe(j, w).objective(),
                              net.weights[j - 1], h=1e-6)
        err = float(np.linalg.norm(analytic - numeric) / max(1.0, np.linalg.norm(numeric)))
        status = "ok  " if err <= tol else "FAIL"
        print(f"  {status} {label} layer {j}: relative error {err:.3e}")
        ok = ok and err <= tol
    return ok


def _cmd_gradcheck(args) -> int:
    cfg = load_config(args.config)
    net = build_network(cfg.spec, cfg.init, seed=cfg.seeds[0], scale=cfg.init_scale)
    print(f"configured problem ({cfg.loss.name} loss):")
    ok = _gradcheck_net(net, cfg.data, cfg.loss, args.fd_tol, cfg.loss.name)

    if args.catalog:
        rng = np.random.default_rng(0)
        dims = cfg.spec.dims
        n = min(cfg.data.n_samples, 16)
        X = rng.standard_normal((dims[0], n))
        for loss_name, loss_cls in sorted(LOSSES.items()):
            loss = loss_cls()
            for act_name, act_cls in sorted(ACTIVATIONS.items()):
                spec = _catalog_spec(dims, act_cls(), loss_name)
                probe = build_network(spec, "uniform", seed=7)
                Y = _labels_for(loss, probe, X, rng)
                print(f"catalog: {loss_name} loss, {act_name} activation")
                ok = _gradcheck_net(probe, Dataset(X, Y), loss, args.fd_tol,
                                    f"{loss_name}/{act_name}") and ok
    return 0 if ok else 1


def _catalog_spec(dims, act, loss_name: str) -> NetworkSpec:
    """Sweep spec: cross-entropy needs predictions in (0,1), so its output
    layer stays logistic while hidden layers carry the swept activation."""
    depth = len(dims) - 1
    acts = [act] * depth
    if loss_name == "cross_entropy":
        acts[-1] = Logistic()
    return NetworkSpec(tuple(dims), tuple(acts), (Unconstrained(),) * depth,
                       (Regularizer.l2(1e-3),) * depth)


def _labels_for(loss, net, X, rng):
    """Random targets the loss accepts: its labels, or standard normal."""
    shape = (net.spec.dims[-1], X.shape[1])
    if loss.labels is None:
        return rng.standard_normal(shape)
    return np.where(rng.random(shape) < 0.5, *loss.labels)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bsumnet",
        description="Block-surrogate training runs and diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run an experiment config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", default=None, help="override the output directory")
    p_train.add_argument("--seed", type=int, action="append",
                         help="override config seeds (repeatable)")
    p_train.set_defaults(func=_cmd_train)

    p_val = sub.add_parser("validate-schedule",
                           help="classify a stepsize schedule")
    p_val.add_argument("--kind", required=True)
    p_val.add_argument("--param", action="append",
                       help="schedule parameter key=value (repeatable)")
    p_val.set_defaults(func=_cmd_validate_schedule)

    p_gc = sub.add_parser("gradcheck",
                          help="check analytic gradients against finite differences")
    p_gc.add_argument("--config", required=True)
    p_gc.add_argument("--catalog", action="store_true",
                      help="also sweep every loss/activation pair")
    p_gc.add_argument("--fd-tol", type=float, default=1e-6)
    p_gc.set_defaults(func=_cmd_gradcheck)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SpecError, IngestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
