"""Hold-out early stopping over a checkpointed trajectory.

The hold-out rule is the practical surrogate for the theoretical
stopping iteration: evaluate the trajectory's whole coefficient block
on a validation sample and keep the first minimizer. Ties break toward the earliest (cheapest)
checkpoint, and the curve is used raw, with no smoothing; densify the
checkpoints instead if the curve is noisy.
"""

from dataclasses import dataclass

import numpy as np

from .data import Sample, check_sign_labels
from .iterations import Trajectory
from .spaces import feature_matrix

METRICS = ("mse", "zero-one")


@dataclass(frozen=True)
class StoppingOutcome:
    chosen_t: int
    checkpoints: tuple
    errors: tuple
    rule: str

    @property
    def chosen_error(self) -> float:
        return self.errors[self.checkpoints.index(self.chosen_t)]


def holdout_stop(
    trajectory: Trajectory, validation: Sample, metric: str = "mse"
) -> StoppingOutcome:
    """First checkpoint minimizing the validation error.

    The validation features are built once, the cross matrix K(x_val,
    anchors) (kernel) or the input matrix (euclidean), and
    :meth:`Trajectory.values` evaluates every checkpoint on them as one
    (n_cp, n_val) block. Each checkpoint's error equals
    :func:`~sgdlsq.spaces.mean_square_error` or
    :func:`~sgdlsq.data.misclassification` of its vector bit for bit.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    if len(trajectory.checkpoints) == 0:
        raise ValueError("trajectory has no checkpoints")
    y = validation.y
    if metric == "zero-one":
        check_sign_labels(y)
    preds = trajectory.values(feature_matrix(trajectory, validation.x))
    if metric == "mse":
        errors = ((preds - y) ** 2).mean(axis=1)
    else:  # sign(0) counts as +1
        errors = (np.where(preds >= 0, 1.0, -1.0) != y).mean(axis=1)
    best = int(np.argmin(errors))  # argmin returns the first minimizer
    return StoppingOutcome(
        chosen_t=trajectory.checkpoints[best],
        checkpoints=trajectory.checkpoints,
        errors=tuple(float(e) for e in errors),
        rule="holdout-argmin",
    )


def tstar_outcome(trajectory: Trajectory, t_star: int) -> StoppingOutcome:
    """Select the checkpoint at (or the last one before) a prescribed
    stopping iteration, without looking at any data."""
    eligible = [t for t in trajectory.checkpoints if t <= t_star]
    if not eligible:
        raise ValueError(f"no checkpoint at or before t_star={t_star}")
    return StoppingOutcome(
        chosen_t=eligible[-1],
        checkpoints=trajectory.checkpoints,
        errors=(),
        rule="theoretical-Tstar",
    )
