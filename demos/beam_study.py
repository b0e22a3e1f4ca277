"""Vector-output case: random vibration of a clamped-free beam.

Young's modulus and density are lognormal; the output is two-dimensional
(peak r.m.s. acceleration and strain along the beam) and the failure mode
is a squared sum of the ensemble-normalised peaks.  The full pipeline --
sampling, forward runs, density/information estimation on a 2-D grid, and
certification of every bound -- is one runner call.

Run:  python demos/beam_study.py   (a few seconds)
"""

import numpy as np

from probsens.runner import RunConfig, run_case

config = RunConfig(
    case="beam",
    n_samples=5000,
    seed=1,
    percentiles=list(range(5, 100, 5)),
)
report = run_case(config)

print("cantilever beam study")
print(f"  E   ~ LN(24.85, 0.47^2)  [~69 GPa mean]")
print(f"  rho ~ LN(7.88, 0.20^2)   [~2700 kg/m^3 mean]")
print(f"  samples: {report['provenance']['n_samples']}")
print()
print(f"characteristic roots drive the modal model; information caps the sensitivity:")
print(f"  tr(F_x) analytic  = {report['tr_fx']:.4f}")
print(f"  tr(F_y) estimated = {report['tr_fy']:.4f}  (2-D kernel density)")
print()
print(f"{'pct':>4} {'z':>8} {'P_f':>6} {'norm^2':>9}")
for row in report["rows"]:
    print(f"{row['percentile']:4.0f} {row['z']:8.4f} {row['p_f']:6.3f} {row['grad_norm_sq']:9.4f}")

norms = [r["grad_norm_sq"] for r in report["rows"]]
print(f"\nchain max norm^2 = {max(norms):.4f} <= tr(F_y) = {report['tr_fy']:.2f} "
      f"<= tr(F_x) = {report['tr_fx']:.2f}")
print("all bounds satisfied:", report["all_bounds_satisfied"])

print("\nperturbation bound across paired re-runs (one line per parameter shift):")
for p in report["perturbations"]:
    db = np.array(p["db"])
    moved = ", ".join(
        f"{n}{'+' if v > 0 else '-'}" for n, v in zip(report["param_names"], db) if v != 0.0
    )
    print(
        f"  shift [{moved:26s}] max|dPf|^2 {p['max_dpf_sq']:.2e} "
        f"<= {p['quad_fx']:.2e} : {'ok' if p['violations_fx'] + p['violations_fy'] == 0 else 'VIOLATED'}"
    )
