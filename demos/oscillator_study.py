"""Threshold-independent sensitivity screening on a damped oscillator.

The response magnitude of a harmonically forced oscillator depends on two
random inputs, the frequency ratio and the damping factor.  The question a
designer asks: which input dominates the exceedance probability, and does
the answer survive a moving threshold?

The probability gradient changes with the threshold; the two information
traces do not.  This script produces the data behind that comparison: a
norm^2 curve over percentile thresholds sitting under two flat bound
lines, tr(F_y) from the output density and the weaker tr(F_x) known
analytically before a single model evaluation.

Run:  python demos/oscillator_study.py
"""

import numpy as np

import probsens as ps
from probsens.models import sho_response

N = 50_000

model = ps.InputModel((ps.normal(1.0, 0.1), ps.normal(0.1, 0.01)))
batch = ps.sample(model, N, seed=1)
h = lambda x: sho_response(x[:, 0], x[:, 1])
g = lambda v: np.asarray(v, dtype=float)

outputs = h(batch.draws)
curve = ps.sensitivity_curve(g(outputs), batch.scores, np.arange(5, 100, 5), direction="below")

dg = ps.estimate_output_density(outputs, batch.scores)
f_y = ps.estimate_output_fim(dg)
f_x = model.fim()

print(f"oscillator study: beta ~ N(1, 0.1^2), zeta ~ N(0.1, 0.01^2), N={N}")
print(f"input information trace (no model runs needed): tr(F_x) = {f_x.trace:.0f}")
print(f"output information trace (from the response density): tr(F_y) = {f_y.trace:.1f}")
print()
print(f"{'pct':>4} {'z':>7} {'P_f':>6} {'norm^2':>9}  bound margin to tr(F_y)")
rep = ps.check_sensitivity_bound(curve, f_y)
for pct, z, p_f, norm_sq, margin in zip(range(5, 100, 5), curve.z, curve.p_f, curve.grad_norm_sq, rep.margin):
    print(f"{pct:4d} {z:7.3f} {p_f:6.3f} {norm_sq:9.2f}  {margin:10.2f}")

worst = rep.margin.min()
print(f"\nsensitivity norm stays below tr(F_y) at every threshold (worst margin {worst:.1f})")
print(f"ordering tr(F_y) <= tr(F_x): {ps.info_processing_check(f_y, f_x).satisfied}")

# Per-component view at the median threshold: damping carries nearly all
# of the probability sensitivity at this design point.
for name, grad in zip(model.param_names, curve.gradient[len(curve) // 2]):
    print(f"  dP_f/d({name:9s}) = {grad:9.3f}")
