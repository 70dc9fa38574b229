# Learning curves under the bundled parameter recipes.
#
# For growing sample sizes, each recipe fixes the mini-batch size, the
# step size, and the stopping iteration from (m, zeta, gamma) alone. The
# excess risk at the stopping iteration then decays polynomially in m;
# fitting a line through (ln m, ln risk) recovers the decay exponent.
# With zeta = 1/2 and gamma = 1 the predicted exponent is -1/2; small-m
# effects usually make the measured slope a bit steeper.

import numpy as np

from sgdlsq import (
    AnchorSet,
    KernelSpec,
    Trajectory,
    abs_target,
    excess_risk,
    fit_rate,
    gen_synthetic_abs,
    mix_seed,
    recipe,
    run_sgm_trials,
    sample_index_table,
)

kernel = KernelSpec("gaussian", sigma=0.2)
surrogate = np.linspace(0.0, 1.0, 2000)
m_grid = (64, 128, 256, 512)
trials = 8

print("recipe C3: single-point batches, step ~ 1/m, stop at m^(3/2)")
rows = []
for mi, m in enumerate(m_grid):
    rec = recipe("C3", m, zeta=0.5, gamma=1.0, c_eta=0.125)
    streams = [mix_seed(mix_seed(11, mi), trial) for trial in range(trials)]
    samples = [gen_synthetic_abs(m, seed=mix_seed(s, 0), noise_sd=1.0) for s in streams]
    table = sample_index_table(m, rec.b, rec.t_star, [mix_seed(s, 1) for s in streams])
    # the trials advance together as one (1, trials, m) block of coefficients
    block = run_sgm_trials(samples, kernel, rec.schedule, table, (rec.t_star,))
    # excess risk: mean squared gap to the target over the surrogate points
    risks = [excess_risk(Trajectory((rec.t_star,), block[:, r], AnchorSet(s.x, kernel)),
                         surrogate, abs_target)[0]
             for r, s in enumerate(samples)]
    rows.append((m, float(np.mean(risks))))
    print(f"  m={m:>5}  T*={rec.t_star:>6}  passes={rec.passes:>3}  "
          f"excess risk={rows[-1][1]:.5f}")

fit = fit_rate(rows)
print(f"\nfitted slope {fit.slope:.3f} (r^2 = {fit.r_squared:.3f}); theory predicts -0.5")
