# Parameter recipes and hold-out early stopping.
#
# The recipe table turns (m, zeta, gamma) into concrete run settings;
# the theoretical stopping iteration depends on regularity constants
# nobody knows in practice, so the practical surrogate is to checkpoint
# the run and keep the iterate with the smallest validation error.

import json

import numpy as np

from sgdlsq import (
    KernelSpec,
    StepSchedule,
    gen_synthetic_abs,
    holdout_stop,
    log_checkpoints,
    mean_square_error,
    recipe_table,
    run_sgm,
    sample_index_plan,
    split,
)

m = 300

print("recipe table for m=300, zeta=0.5, gamma=1:")
for rec in recipe_table(m, zeta=0.5, gamma=1.0, eps=0.3):
    print(" ", json.dumps(rec.to_json_dict()))

# train with the sqrt-batch setting, but stop by validation instead of T*
sample = gen_synthetic_abs(m, seed=3, noise_sd=1.0)
train, val, test = split(sample, (0.6, 0.2, 0.2), seed=4)
# the iterate is an expansion over the training points; SGM builds their
# Gram for its run only, and hold-out and the test error read the kernel
# at the points they evaluate
kernel = KernelSpec("gaussian", sigma=0.2)

b = int(np.ceil(np.sqrt(train.m)))
schedule = StepSchedule(1.0 / (8 * np.sqrt(train.m)))
T = 40 * train.m // b  # checkpoint out to 40 passes
plan = sample_index_plan(train.m, b, T, seed=5)
trajectory = run_sgm(train, kernel, schedule, plan, log_checkpoints(T, 20))

outcome = holdout_stop(trajectory, val)
print(f"\nvalidation curve over checkpoints {outcome.checkpoints}:")
print(" ", np.array2string(np.array(outcome.errors), precision=4))
print(f"hold-out rule stops at t={outcome.chosen_t} "
      f"(validation mse {outcome.chosen_error:.4f})")

chosen = trajectory.vector_at(outcome.chosen_t)
last = trajectory.final
print(f"test mse at chosen iterate: {mean_square_error(chosen, test.x, test.y):.4f}")
print(f"test mse if run to the last checkpoint: {mean_square_error(last, test.x, test.y):.4f}")
