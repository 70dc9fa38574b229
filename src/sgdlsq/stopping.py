"""Hold-out early stopping over a checkpointed trajectory.

The hold-out rule is the practical surrogate for the theoretical
stopping iteration: evaluate the trajectory's whole coefficient block
on a validation sample and keep the first minimizer. Ties break toward the earliest (cheapest)
checkpoint, and the curve is used raw, with no smoothing; densify the
checkpoints instead if the curve is noisy.
"""

from dataclasses import dataclass

import numpy as np

from .data import Sample
from .spaces import Trajectory, predict, prediction_errors


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

    :func:`~sgdlsq.spaces.predict` evaluates every checkpoint on the
    validation points in one (n_cp, n_val) block, from the input matrix
    (euclidean) or K(x_val, anchors) formed one tile of rows at a time
    (kernel), and :func:`~sgdlsq.spaces.prediction_errors` reduces its
    rows.
    """
    if len(trajectory.checkpoints) == 0:
        raise ValueError("trajectory has no checkpoints")
    errors = prediction_errors(predict(trajectory, validation.x), validation.y, metric)
    best = int(np.argmin(errors))  # argmin returns the first minimizer
    return StoppingOutcome(
        chosen_t=trajectory.checkpoints[best],
        checkpoints=trajectory.checkpoints,
        errors=tuple(float(e) for e in errors),
        rule="holdout-argmin",
    )
