"""Tracing of bsumnet from outside the package.

The tracer replaces public functions and methods of ``src/bsumnet`` with
wrappers that record one span per call: ``[name, start, end, parent, j,
caller]``. Spans stay in memory until the run ends; ``per_layer_metrics``
then turns them into self times, call counts and computed sizes, and
``write_spans`` saves them as CSV.

Modules bind names such as ``forward`` or ``objective_value`` at import, so a
function is replaced at every module attribute of the package that holds it,
not only where it is defined. Methods (activations, losses, feasible-set
projections, ``Network.with_block``) are replaced on their classes.
``uninstall`` restores every original.

Which end-to-end figure each group of per-layer metrics should move:

- ``functions.activation.*``, ``functions.loss.self_s``: ``iters_per_s`` on
  fo_logistic, armijo_probe and readme_cli; nothing on curvature (tanh) for a
  logistic-only change.
- ``netcore.forward.*``, ``gradients.objective_value/delta_recursion/
  all_block_gradients.*``: ``iters_per_s`` on fo_logistic and armijo_probe.
- ``gradients.probe.*``, ``netcore.with_block.*``, ``netcore.project.*``,
  ``upperbounds.gamma.*``, ``trainer.armijo.*``: ``iters_per_s`` on
  armijo_probe, and its iterations to tolerance if acceptance changes.
- ``gradients.block_hessian.*``, ``gradients.block_gradient.calls``,
  ``upperbounds.cholesky.*``, ``upperbounds.direction.self_s``:
  ``iters_per_s`` on curvature and nothing elsewhere.
- ``trainer.train.*``, ``trainer.stepsize.self_s``, ``trainer.stage.*``: all
  workloads that train.
- ``harness.*``, ``cli.main.self_s``: ``iters_per_s`` on readme_cli.

The stage split ``trainer.stage.*`` covers only wrapped calls made directly
by ``train``'s loop, each put in a stage by the private function that made
it. Work the loop does in its own code is in no stage: in ``_direction`` the
block-gradient matmul, ``reg.grad`` and the gradient norm; elsewhere the
loop's bookkeeping. That remainder is ``trainer.train.self_s``, so the stages
plus ``trainer.train.self_s`` add up to the traced time inside ``train``. On
fo_logistic this leaves ``backward_s`` with only ``delta_recursion`` and
``direction_s`` with only the projection.
"""

from __future__ import annotations

import csv
import math
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.linalg

# span name -> the per-layer metric holding its self time. Every span name the
# tracer records is listed, so these metrics add up to the traced run time.
SELF_METRICS = {
    "functions.activation.value": "functions.activation.value_s",
    "functions.activation.derivative": "functions.activation.derivative_s",
    "functions.loss": "functions.loss.self_s",
    "netcore.forward": "netcore.forward.self_s",
    "netcore.with_block": "netcore.with_block.self_s",
    "netcore.project": "netcore.project.self_s",
    "gradients.objective_value": "gradients.objective_value.self_s",
    "gradients.delta_recursion": "gradients.delta_recursion.self_s",
    "gradients.all_block_gradients": "gradients.all_block_gradients.self_s",
    "gradients.block_gradient": "gradients.block_gradient.self_s",
    "gradients.block_hessian": "gradients.block_hessian.self_s",
    "gradients.probe": "gradients.probe.self_s",
    "upperbounds.direction": "upperbounds.direction.self_s",
    "trainer.train": "trainer.train.self_s",
    "trainer.stepsize": "trainer.stepsize.self_s",
    "trainer.armijo": "trainer.stepsize.self_s",
    "harness.baseline": "harness.baseline.self_s",
    "harness.emit_curves": "harness.emit_curves.self_s",
    "harness.run_experiment": "harness.run_experiment.self_s",
    "harness.load_config": "harness.load_config.self_s",
    "cli.main": "cli.main.self_s",
}

CALL_METRICS = {
    "functions.activation.calls": ("functions.activation.value",
                                   "functions.activation.derivative"),
    "netcore.forward.calls": ("netcore.forward",),
    "netcore.with_block.calls": ("netcore.with_block",),
    "netcore.project.calls": ("netcore.project",),
    "gradients.objective_value.calls": ("gradients.objective_value",),
    "gradients.delta_recursion.calls": ("gradients.delta_recursion",),
    "gradients.all_block_gradients.calls": ("gradients.all_block_gradients",),
    "gradients.block_gradient.calls": ("gradients.block_gradient",),
    "gradients.block_hessian.calls": ("gradients.block_hessian",),
    "gradients.probe.calls": ("gradients.probe",),
    "trainer.train.calls": ("trainer.train",),
    "trainer.armijo.calls": ("trainer.armijo",),
}

STAGES = ("forward", "backward", "direction", "stepsize", "diagnostics", "other")

# The trainer's loop calls into the layers from these private functions; the
# caller of a span directly under ``trainer.train`` names its stage. A caller
# missing here (say, after the loop is refactored) lands in ``other``.
_STAGE_OF_CALLER = {
    "_alpha_for_step": "stepsize",
    "_apply_update": "stepsize",
    "_full_diagnostics": "diagnostics",
}


def _stage(caller: str, name: str) -> str:
    if caller == "_direction":
        if name in ("netcore.forward", "gradients.objective_value"):
            return "forward"
        if name == "gradients.delta_recursion":
            return "backward"
        return "direction"
    return _STAGE_OF_CALLER.get(caller, "other")


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


class Tracer:
    """Span recorder for one measured call; install, run, uninstall."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = [-1]
        self._undo = []

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, name, j_pos=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        getframe = sys._getframe

        def traced(*args, **kwargs):
            parent = stack[-1]
            caller = None
            if parent >= 0 and spans[parent][0] == "trainer.train":
                caller = getframe(1).f_code.co_name
            j = None
            if j_pos is not None:
                j = args[j_pos] if len(args) > j_pos else kwargs.get("j")
            rec = [name, 0.0, 0.0, parent, j, caller]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                out = after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _rebind(self, orig, new):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "bsumnet" or mod_name.startswith("bsumnet."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, key, new)

    def _patch_function(self, module, attr, name, **kw):
        orig = getattr(module, attr)
        self._rebind(orig, self._wrap(orig, name, **kw))

    def _patch_methods(self, base, methods, name, **kw):
        for cls in [base] + _subclasses(base):
            for meth in methods:
                if meth in cls.__dict__:
                    self._replace(cls, meth, self._wrap(cls.__dict__[meth], name, **kw))

    # -- hooks (run after the span closes) --------------------------------

    def _count_flop(self, args, out):
        net, X = args[0], args[1]
        dims = net.spec.dims
        self.counts["forward_flop"] += 2 * np.shape(X)[1] * sum(
            a * b for a, b in zip(dims[1:], dims[:-1]))
        return out

    def _count_copy(self, args, out):
        self.counts["with_block_bytes"] += sum(w.nbytes for w in args[0].weights)
        return out

    def _count_doublings(self, args, out):
        gamma0 = args[2] if len(args) > 2 else None
        if gamma0:
            self.counts["gamma_doublings"] += round(math.log2(out[1] / gamma0))
        self.counts["gamma_searches"] += 1
        return out

    def _count_rejection(self, args, out):
        self.counts["armijo_rejections"] += not out[1]
        return out

    def _count_written(self, args, out):
        self.counts["curve_bytes"] += os.path.getsize(out)
        return out

    def _counted_cho_factor(self, orig):
        counts = self.counts

        def cho_factor(*args, **kwargs):
            counts["cholesky_calls"] += 1
            try:
                return orig(*args, **kwargs)
            except np.linalg.LinAlgError:
                counts["cholesky_retries"] += 1
                raise

        return cho_factor

    # -- install / uninstall ---------------------------------------------

    def install(self) -> "Tracer":
        import bsumnet.cli as cli
        from bsumnet import functions, gradients, harness, netcore, trainer, upperbounds

        self._patch_methods(functions.Activation, ("value",), "functions.activation.value")
        self._patch_methods(functions.Activation, ("derivative",),
                            "functions.activation.derivative")
        self._patch_methods(functions.Loss, ("value", "grad_H"), "functions.loss")
        self._patch_methods(netcore.FeasibleSet, ("project",), "netcore.project")
        self._patch_methods(netcore.Network, ("with_block",), "netcore.with_block",
                            j_pos=1, after=self._count_copy)

        fn = self._patch_function
        fn(netcore, "forward", "netcore.forward", after=self._count_flop)
        fn(gradients, "objective_value", "gradients.objective_value")
        fn(gradients, "delta_recursion", "gradients.delta_recursion")
        fn(gradients, "all_block_gradients", "gradients.all_block_gradients")
        fn(gradients, "block_gradient", "gradients.block_gradient", j_pos=3)
        fn(gradients, "block_hessian", "gradients.block_hessian", j_pos=3)
        for attr in ("descent_direction_first_order", "descent_direction_second_order",
                     "descent_direction_proximal", "descent_direction_linear",
                     "prox_l1_step", "closed_form_linear_block"):
            fn(upperbounds, attr, "upperbounds.direction")
        fn(upperbounds, "first_order_direction_backtracked", "upperbounds.direction",
           after=self._count_doublings)
        fn(trainer, "train", "trainer.train")
        fn(trainer, "stochastic_train", "trainer.train")
        fn(trainer, "stepsize_next", "trainer.stepsize")
        fn(trainer, "armijo_stepsize", "trainer.armijo", after=self._count_rejection)
        fn(harness, "baseline_bp_clr", "harness.baseline")
        fn(harness, "baseline_adagrad", "harness.baseline")
        fn(harness, "emit_curves", "harness.emit_curves", after=self._count_written)
        fn(harness, "run_experiment", "harness.run_experiment")
        fn(harness, "load_config", "harness.load_config")
        fn(cli, "main", "cli.main")

        # block_objective_fn only builds closures; the closures are the probes
        orig = gradients.block_objective_fn

        def block_objective_fn(*args, **kwargs):
            value, grad = orig(*args, **kwargs)
            return (self._wrap(value, "gradients.probe"),
                    self._wrap(grad, "gradients.probe"))

        self._rebind(orig, block_objective_fn)
        self._replace(scipy.linalg, "cho_factor",
                      self._counted_cho_factor(scipy.linalg.cho_factor))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def per_layer_metrics(self, iterations: int) -> dict:
        """Aggregate the spans into the per-layer metrics (name -> value)."""
        n = len(self.spans)
        child_time = [0.0] * n
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        calls = Counter()
        stage_s = dict.fromkeys(STAGES, 0.0)
        probes_in_armijo = 0
        for i, (name, start, end, parent, j, caller) in enumerate(self.spans):
            dur = end - start
            self_s[name] += dur - child_time[i]
            total_s[name] += dur
            calls[name] += 1
            if name == "gradients.block_hessian" and j is not None:
                total_s[f"gradients.block_hessian.j{j}"] += dur
            if caller is not None:
                stage_s[_stage(caller, name)] += dur
            if name == "gradients.probe" and parent >= 0 \
                    and self.spans[parent][0] == "trainer.armijo":
                probes_in_armijo += 1

        m = dict.fromkeys(SELF_METRICS.values(), 0.0)
        for name, value in self_s.items():
            m[SELF_METRICS[name]] += value
        for metric, names in CALL_METRICS.items():
            m[metric] = sum(calls[x] for x in names)
        m["gradients.probe.total_s"] = total_s["gradients.probe"]
        m["gradients.block_hessian.total_s"] = total_s["gradients.block_hessian"]
        for j in (1, 2, 3):
            key = f"gradients.block_hessian.j{j}"
            m[f"{key}.total_s"] = total_s[key]
        m["harness.load_config.total_s"] = total_s["harness.load_config"]
        for stage in STAGES:
            m[f"trainer.stage.{stage}_s"] = stage_s[stage]

        c = self.counts
        m["trainer.train.iterations"] = iterations
        m["netcore.forward.per_iter"] = calls["netcore.forward"] / iterations if iterations else 0.0
        m["netcore.forward.mflop"] = c["forward_flop"] / 1e6
        m["netcore.with_block.mb_copied"] = c["with_block_bytes"] / 1e6
        m["upperbounds.gamma.doublings"] = c["gamma_doublings"]
        candidates = c["gamma_searches"] + c["gamma_doublings"]
        m["upperbounds.gamma.accept_ratio"] = c["gamma_searches"] / candidates if candidates else 0.0
        m["upperbounds.cholesky.calls"] = c["cholesky_calls"]
        m["upperbounds.cholesky.retries"] = c["cholesky_retries"]
        m["trainer.armijo.rejections"] = c["armijo_rejections"]
        armijo_calls = calls["trainer.armijo"]
        m["trainer.armijo.probes_per_step"] = probes_in_armijo / armijo_calls if armijo_calls else 0.0
        m["harness.emit_curves.mb_written"] = c["curve_bytes"] / 1e6
        m["perfbench.trace.spans"] = n
        return m

    def write_spans(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent", "j", "caller"])
            for i, (name, start, end, parent, j, caller) in enumerate(self.spans):
                out.writerow([i, name, repr(start), repr(end), parent,
                              "" if j is None else j, caller or ""])
