"""Seeded sweeps: limits vs finite samples, reproducibly.

A sweep varies one parameter over a grid, runs independent seeded trials
at each point, and reports theory plus empirical columns.  Per-trial
streams derive from (base_seed, grid_index, trial_index), so rows do not
depend on execution order, and adding trials never changes existing ones.
The feasibility rate of the hard estimator exhibits its sharp transition
around the threshold.
"""

from svrisk import (
    SweepSpec,
    delta_star,
    feasibility_curve,
    run_sweep,
    standard_gaussian,
)

gauss = standard_gaussian()

spec = SweepSpec(estimator="ssvr", swept="cost", grid=(0.5, 2.4, 10.0),
                 fixed={"delta": 2.0, "sigma": 1.0, "beta": 1.0, "eps": 0.6},
                 p=150, trials=8, base_seed=11, theory=True, noise=gauss)
print("soft estimator vs C at delta = 2 (p = 150, 8 seeds):")
print(f"{'C':>6} {'theory':>9} {'empirical':>10} {'stderr':>8}")
for row in run_sweep(spec):
    print(f"{row.swept_value:6.1f} {row.theory_risk:9.5f} "
          f"{row.mean_risk:10.5f} {row.stderr_risk:8.5f}")

print("\nrerunning the sweep gives identical rows:", run_sweep(spec) == run_sweep(spec))

dstar = delta_star(1.0, 1.0, gauss)
print(f"\nhard-tube feasibility rate around the threshold ({dstar:.3f}), p = 120:")
rows = feasibility_curve(p=120, eps=1.0, sigma=1.0, noise=gauss,
                         delta_grid=(0.8 * dstar, 0.95 * dstar, 1.05 * dstar,
                                     1.2 * dstar),
                         trials=10, base_seed=0)
for delta, rate in rows:
    print(f"  delta = {delta:6.3f} ({delta/dstar:4.2f} x threshold): rate = {rate:.2f}")
