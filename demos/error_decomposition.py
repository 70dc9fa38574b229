# Error decomposition along a mini-batch training run.
#
# A fixed training sample is drawn from a kinked target with heavy noise.
# Three processes run side by side with the same step size:
#   * the population iteration, which sees exact target values on a dense
#     surrogate point set (its error is the bias),
#   * the batch iteration on the noisy sample (distance to the population
#     iterate is the sample variance),
#   * 50 mini-batch runs with independent index draws (spread around the
#     batch iterate is the computational variance).
# Early on the bias dominates; with more passes it shrinks while the
# sample variance grows. The best iterate sits where the two curves
# cross, and the index-sampling term stays negligible throughout.

import numpy as np

from sgdlsq import (
    AnchorSet,
    KernelSpec,
    StepSchedule,
    abs_target,
    decompose,
    gen_synthetic_abs,
    log_checkpoints,
)

m = 100
kernel = KernelSpec("gaussian", sigma=0.2)
sample = gen_synthetic_abs(m, seed=12, noise_sd=1.0)

# surrogate measure: 2000 uniform points standing in for the input law
surrogate = AnchorSet.build(kernel, np.linspace(0.0, 1.0, 2000), check_psd=False)

schedule = StepSchedule(1.0 / (8 * np.sqrt(m)))  # the sqrt-batch step size
report = decompose(
    sample,
    surrogate,
    abs_target,
    kernel,
    schedule,
    b=10,
    T=1000,
    R=50,
    base_seed=20240501,
    checkpoints=log_checkpoints(1000, 20),
)

print(f"{'t':>5} {'passes':>6} {'bias^2':>10} {'sample^2':>10} {'sampling^2':>11} {'total':>10}")
for row in report.rows():
    print(
        f"{row['t']:>5} {row['pass']:>6} {row['bias_sq']:>10.5f} "
        f"{row['sample_var_sq']:>10.5f} {row['comp_var_sq']:>11.6f} {row['total']:>10.5f}"
    )

t_best = report.total_minimizer()
i = report.checkpoints.index(t_best)
print(f"\ntotal error is minimized at t={t_best} ({report.passes[i]} passes), "
      f"where bias^2={report.bias_sq[i]:.5f} and sample^2={report.sample_var_sq[i]:.5f} balance")
print(f"the index-sampling term there is {report.comp_var_sq[i]:.6f}, "
      f"{report.comp_var_sq[i] / (report.bias_sq[i] + report.sample_var_sq[i]):.1%} of their sum")
print("decomposition inequality holds at every checkpoint:", all(report.ineq_ok))
