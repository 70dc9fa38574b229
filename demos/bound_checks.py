# Numeric verification of the closed-form estimates.
#
# The step-size and stopping analysis leans on a handful of deterministic
# facts: two-sided estimates for partial sums of k^(-theta), a bound on
# a harmonic-weighted convolution, and a contraction bound for products
# of (1 - eta_l * sigma) against any nonnegative spectrum. Each check
# computes the brute-force quantity with compensated summation and
# compares it to the closed form; a failure would mean the code and the
# analysis disagree about arithmetic conventions.

from sgdlsq import (
    StepSchedule,
    acceptance_sweep,
    check_contraction_bound,
    check_convolution_bound,
    check_sum_bounds,
)

print("sample checks")
for theta, t in ((0.0, 5), (0.5, 4), (0.9, 1000)):
    for v in check_sum_bounds(theta, t):
        print(f"  {v.lemma:<14} theta={theta:<4} t={t:<5} lhs={v.lhs:.5f} "
              f"bound={v.bound:.5f} slack={v.slack:+.5f} pass={v.passed}")

for q, t in ((1.0, 3), (0.0, 3), (2.0, 10_000)):
    v = check_convolution_bound(q, t)
    print(f"  {v.lemma:<14} q={q:<7} t={t:<5} lhs={v.lhs:.5f} "
          f"bound={v.bound:.5f} pass={v.passed}")

v = check_contraction_bound([1.0, 0.5], StepSchedule(0.5), zeta=1.0, k=0, t=2)
print(f"  {v.lemma:<14} two eigenvalues, two steps: lhs={v.lhs:.5f} "
      f"bound={v.bound:.5f} pass={v.passed}")

print("\nfull sweep (the regression grid shipped with the package)")
verdicts = acceptance_sweep(t_max=10_000)
failures = [v for v in verdicts if not v.passed]
print(f"  {len(verdicts)} inequalities checked, {len(failures)} failures")
