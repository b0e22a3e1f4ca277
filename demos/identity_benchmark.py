"""Benchmark walk-through: the identity map y = x on a Normal input.

Everything about this case has a closed form, so it is the place to watch
the estimators converge.  One batch of scored samples yields:

  * the failure probability P(Y <= z) across a sweep of thresholds,
  * its gradient w.r.t. (mu, sigma) from the same samples (no re-runs),
  * the squared gradient norm, which peaks at 1/(2 pi sigma^2) at z = mu
    and always stays below the information trace 3/sigma^2.

Run:  python demos/identity_benchmark.py
"""

import numpy as np

import probsens as ps
from probsens.models import identity_analytic

MU, SIGMA, N = 1.0, 0.2, 100_000

model = ps.InputModel((ps.normal(MU, SIGMA),))
batch = ps.sample(model, N, seed=1)
h = lambda x: x[:, 0]
g = lambda v: np.asarray(v, dtype=float)

# One sample set, the whole threshold sweep.  CDF convention: P(Y <= z).
curve = ps.sensitivity_curve(g(h(batch.draws)), batch.scores, np.arange(5, 100, 5), direction="below")

print(f"identity benchmark: mu={MU}, sigma={SIGMA}, N={N}")
print(f"{'z':>8} {'P_f':>8} {'dP/dmu':>9} {'dP/dsig':>9} {'norm^2':>8} {'exact':>8}")
for res in curve:
    exact = float(identity_analytic(MU, SIGMA, res.z).norm_sq)
    print(
        f"{res.z:8.4f} {res.p_f:8.4f} {res.gradient[0]:9.4f} "
        f"{res.gradient[1]:9.4f} {res.grad_norm_sq:8.4f} {exact:8.4f}"
    )

# The gradient norm is capped by the Fisher information trace: here the
# output information equals the input information because y = x.
dg = ps.estimate_output_density(batch.draws[:, 0], batch.scores)
f_y = ps.estimate_output_fim(dg)
f_x = model.fim()
peak = max(r.grad_norm_sq for r in curve)
print(f"\npeak norm^2        {peak:8.4f}   (closed form {1/(2*np.pi*SIGMA**2):.4f})")
print(f"tr(F_y) estimated  {f_y.trace:8.4f}   (analytic {f_x.trace:.1f})")
print(f"bound chain: {peak:.3f} <= {f_y.trace:.3f} <= {f_x.trace:.1f}")

# The same samples also certify the entropy form of the bound: nudge the
# parameters, re-run paired, and compare |dP_f|^2 with db^T F db = 2 dH.
db = np.array([0.01 * SIGMA, 0.01 * SIGMA])
batch_p = ps.sample(model.shifted(db), N, seed=1)
z_mid = float(np.median(h(batch.draws)))
pf_0 = float(np.mean(h(batch.draws) <= z_mid))
pf_p = float(np.mean(h(batch_p.draws) <= z_mid))
rep = ps.check_perturbation_bound(pf_0, pf_p, db, f_x)
print(
    f"\nperturbation at the median: |dP_f|^2 = {rep.lhs:.3e} "
    f"<= db^T F db = {rep.rhs:.3e} (dH = {rep.context['delta_h']:.3e})"
)
print("bound satisfied:", rep.satisfied)
