"""Block-surrogate training for layered networks.

A single cyclic block-update loop, parameterized by surrogate family
(first-order proximal, damped Newton, proximal, linear), stepsize schedule,
loss, activation, regularizer, and per-layer feasible set. Backpropagation,
gradient descent, damped Newton, and proximal block minimization all fall
out as configurations.
"""

from .errors import (ConfigError, CurvatureError, DomainError, IngestError,
                     NonSmoothError, ShapeError, SingularError, SizeError,
                     SpecError)
from .functions import (ACTIVATIONS, LOSSES, REGULARIZERS, BentIdentity,
                        CrossEntropyLoss, ExponentialLoss, Identity,
                        L1Regularizer, L2Loss, L2Regularizer, LeakyReluSmooth,
                        Logistic, LogisticLoss, Regularizer, Softplus,
                        SquaredHingeLoss, Tanh, classify_convexity)
from .gradients import (BatchSampler, NetworkPass, all_block_gradients,
                        block_gradient, block_hessian, delta_recursion,
                        fd_gradient, objective_value)
from .harness import (baseline_adagrad, baseline_bp_clr, emit_curves,
                      load_config, load_csv_dataset, parse_config,
                      parse_curves, run_experiment, synth_regression)
from .netcore import (FEASIBLE_SETS, Dataset, FrobeniusBall, Network,
                      NetworkSpec, Toeplitz, Unconstrained, build_network,
                      forward)
from .trainer import (SCHEDULES, ArmijoRule, Constant, Geometric, InverseRoot,
                      Recursive, TrainConfig, TrainTrace, armijo_stepsize,
                      normalized_mse, stepsize_next, stochastic_train, train,
                      train_step)
from .upperbounds import (UPPERBOUNDS, Anchor, FirstOrderProx, LinearBound,
                          Proximal, SecondOrderProx, closed_form_linear_block,
                          descent_direction_first_order,
                          descent_direction_linear,
                          descent_direction_proximal,
                          descent_direction_second_order, prox_l1_step)

__version__ = "0.1.0"
