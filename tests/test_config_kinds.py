"""Config parsing of every kind in the six kind families.

Each kind written as ``{"kind": name, ...explicit params}`` must parse to an
object equal to the one its constructor builds directly, and a key the
constructor does not take must be rejected as an unknown key. The case
table covers every entry of the six registries.
"""

import pytest

from bsumnet import (ACTIVATIONS, FEASIBLE_SETS, LOSSES, REGULARIZERS,
                     SCHEDULES, UPPERBOUNDS, ArmijoRule, BentIdentity,
                     ConfigError, Constant, CrossEntropyLoss, ExponentialLoss,
                     FirstOrderProx, FrobeniusBall, Geometric, Identity,
                     InverseRoot, L2Loss, LeakyReluSmooth,
                     Logistic, LogisticLoss, Proximal, Recursive,
                     Regularizer, SecondOrderProx, Softplus, SquaredHingeLoss,
                     Tanh, Toeplitz, Unconstrained, parse_config)

# family -> (where the kind goes in a config, how to read it back)
SLOTS = {
    "activation": (("network", "activation"), lambda c: c.spec.activations[0]),
    "loss": (("loss",), lambda c: c.loss),
    "feasible": (("network", "feasible"), lambda c: c.spec.feasible_sets[0]),
    "regularizer": (("network", "regularizer"), lambda c: c.spec.regularizers[0]),
    "upperbound": (("methods", 0, "upperbound"),
                   lambda c: c.methods[0].train.upperbound),
    "schedule": (("methods", 0, "schedule"), lambda c: c.methods[0].train.schedule),
    "dataset": (("dataset",), lambda c: c.data),
}

CASES = [
    ("activation", {"kind": "identity"}, Identity()),
    ("activation", {"kind": "logistic"}, Logistic()),
    ("activation", {"kind": "tanh"}, Tanh()),
    ("activation", {"kind": "softplus"}, Softplus()),
    ("activation", {"kind": "leaky_relu_smooth", "alpha": 0.2}, LeakyReluSmooth(0.2)),
    ("activation", {"kind": "bent_identity"}, BentIdentity()),
    ("loss", {"kind": "l2"}, L2Loss()),
    ("loss", {"kind": "exponential", "c": 2.0}, ExponentialLoss(2.0)),
    ("loss", {"kind": "cross_entropy"}, CrossEntropyLoss()),
    ("loss", {"kind": "squared_hinge", "c": 0.5}, SquaredHingeLoss(0.5)),
    ("loss", {"kind": "logistic"}, LogisticLoss()),
    ("feasible", {"kind": "unconstrained"}, Unconstrained()),
    ("feasible", {"kind": "toeplitz"}, Toeplitz()),
    ("feasible", {"kind": "frobenius_ball", "radius": 2.0}, FrobeniusBall(2.0)),
    ("regularizer", {"kind": "none"}, Regularizer.none()),
    ("regularizer", {"kind": "l2", "lam": 0.1}, Regularizer.l2(0.1)),
    ("regularizer", {"kind": "l1", "lam": 0.2}, Regularizer.l1(0.2)),
    ("upperbound", {"kind": "first_order_prox", "gamma": 0.5}, FirstOrderProx(0.5)),
    ("upperbound", {"kind": "second_order_prox", "gamma": 2.0}, SecondOrderProx(2.0)),
    ("upperbound", {"kind": "proximal", "gamma": 0.3, "max_iters": 7, "grad_tol": 1e-6},
     Proximal(0.3, max_iters=7, grad_tol=1e-6)),
    ("schedule", {"kind": "inverse_root", "c": 2.0}, InverseRoot(2.0)),
    ("schedule", {"kind": "geometric", "c": 0.5}, Geometric(0.5)),
    ("schedule", {"kind": "recursive", "alpha0": 0.5, "t": 0.9}, Recursive(0.5, 0.9)),
    ("schedule", {"kind": "constant", "c": 0.2}, Constant(0.2)),
    ("schedule", {"kind": "armijo", "shrink": 0.3, "slope": 1e-3,
                  "alpha_init": 0.8}, ArmijoRule(0.3, 1e-3, 0.8)),
]


def base_config():
    return {
        "dataset": {"kind": "synthetic", "seed": 0, "n_samples": 8,
                    "n_features": 3, "teacher_dims": [3, 2, 1]},
        "network": {"dims": [3, 2, 1]},
        "loss": "l2",
        "methods": [{"name": "prop", "schedule": {"kind": "inverse_root"}}],
        "seeds": [0],
    }


def config_with(family, value):
    raw = base_config()
    path, _ = SLOTS[family]
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


def case_id(case):
    return f"{case[0]}-{case[1]['kind']}"


def label_dataset(tmp_path, labels):
    """A CSV dataset for the [3, 2, 1] network whose targets are ``labels``."""
    rows = ["a,b,c,y"] + [f"{i},{-i},{i % 3},{labels[i % 2]}" for i in range(8)]
    (tmp_path / "labels.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return {"kind": "csv", "path": str(tmp_path / "labels.csv"), "target_cols": ["y"]}


@pytest.mark.parametrize("family,value,want", CASES, ids=[case_id(c) for c in CASES])
def test_kind_parses_to_direct_constructor(family, value, want, tmp_path):
    raw = config_with(family, dict(value))
    if family == "loss" and want.labels is not None:
        # the synthetic targets are real numbers, which a label loss refuses
        raw["dataset"] = label_dataset(tmp_path, want.labels)
    if family == "upperbound" and want.certificate is not None:
        # an L2-penalized identity network is certified strongly convex
        raw["network"].update(activation="identity", regularizer={"kind": "l2", "lam": 0.1})
    got = SLOTS[family][1](parse_config(raw))
    assert type(got) is type(want)
    assert got == want


@pytest.mark.parametrize("family,value,want", CASES, ids=[case_id(c) for c in CASES])
def test_extra_key_rejected(family, value, want):
    with pytest.raises(ConfigError, match=r"unknown keys \['bogus'\]"):
        parse_config(config_with(family, dict(value, bogus=1)))


def test_proximal_gamma_zero_parses():
    # exact block coordinate descent is the proximal family at gamma = 0,
    # solved in closed form on an identity network
    raw = config_with("upperbound", {"kind": "proximal", "gamma": 0})
    raw["network"]["activation"] = "identity"
    got = SLOTS["upperbound"][1](parse_config(raw))
    assert type(got) is Proximal
    assert got == Proximal(0.0)


def test_extra_inner_solver_key_rejected():
    value = {"kind": "proximal", "max_iters": 5, "bogus": 1}
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(config_with("upperbound", value))


REGISTRIES = {"activation": ACTIVATIONS, "loss": LOSSES, "feasible": FEASIBLE_SETS,
              "regularizer": REGULARIZERS, "upperbound": UPPERBOUNDS,
              "schedule": SCHEDULES}


def test_cases_cover_every_registered_kind():
    for family, registry in REGISTRIES.items():
        assert sorted(v["kind"] for f, v, _ in CASES if f == family) == sorted(registry)
        assert all(cls.name == name for name, cls in registry.items())


@pytest.mark.parametrize("family,value", [
    ("regularizer", {"kind": "none", "lam": 0.1}),
    ("regularizer", {"kind": "l2", "lam": "0.1"}),
    ("feasible", {"kind": "frobenius_ball", "radius": "2"}),
    ("upperbound", {"kind": "first_order_prox", "gamma": "0.5"}),
    ("dataset", {"kind": "csv", "path": "d.csv", "target_cols": [0],
                 "standardize": "false"}),
])
def test_stricter_inputs_rejected(family, value):
    # an ignored key, a number given as a string and a flag given as a string
    # were all accepted once
    with pytest.raises(ConfigError):
        parse_config(config_with(family, value))
