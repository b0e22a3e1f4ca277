"""Why the perturbation bound holds: the discrete picture, exactly.

On a finite probability mass function nothing is estimated, so every
quantity in the bound chain can be evaluated to machine precision:

    |dP_f|^2  <=  D1^2 (sqrt-probability distance)  ~  db^T F db / 4
    |dP_f|^2  <=  db^T F db  =  2 dH

The square-root embedding q_i = sqrt(p_i) puts every PMF on the unit
sphere; a failure probability is a squared projection onto the failure
cells, so a parameter nudge cannot move any projection further than it
moves the point on the sphere.  Pinsker's inequality closes the loop from
the L1 distance to the KL divergence.

Run:  python demos/discrete_geometry.py
"""

import itertools

import numpy as np

import probsens as ps

# A Bernoulli family first: theta = 0.5 is the extremal case, where the
# information is smallest relative to the probability change.
fam = ps.DiscretePmfFamily(d=2, pmf=lambda b: np.array([1.0 - b[0], b[0]]))
res = ps.discrete_simplex_oracle(fam, b=np.array([0.5]), db=np.array([1e-3]), failure_sets=[[0, 1]])
print("Bernoulli(0.5), failure = {heads}, dtheta = 1e-3")
print(f"  |dP_f|^2          = {res.delta_pf[0] ** 2:.3e}")
print(f"  D1^2 exact        = {res.d1_sq:.3e}")
print(f"  db^T F db         = {res.quad_form:.3e}   (F = 1/(theta(1-theta)) = 4)")
print(f"  first-order D1^2  = {res.d1_sq_linear:.3e}   (= quadratic form / 4)")
print(f"  bound holds: {res.eq2_satisfied[0]}")

# The first-order sqrt-space distance is a quarter of the quadratic form,
# not the quadratic form itself -- visible above and asserted here.
assert abs(res.d1_sq_linear - res.quad_form / 4.0) < 1e-15

# Exhaustive certification: every failure set of a binomial(5, theta),
# three parameter points, zero violations allowed.  One oracle call covers
# all 64 failure sets: only the probability changes depend on the set.
every_set = np.array(list(itertools.product((0, 1), repeat=6)))
outs = [
    ps.discrete_simplex_oracle(ps.binomial_family(5), np.array([theta]), np.array([1e-3]), every_set)
    for theta in (0.2, 0.5, 0.8)
]
violations = sum(int(np.count_nonzero(~out.eq2_satisfied)) for out in outs)
worst = min(out.eq2_margin.min() for out in outs)
print(f"\nbinomial(5): 3 x 64 failure sets, violations = {violations}, tightest margin = {worst:.2e}")

# The supporting inequalities as standalone checks.
lhs, rhs, ok = ps.titu([1.0, 2.0], [1.0, 1.0])
print(f"\nTitu: (1+2)^2/2 = {lhs} <= 1 + 4 = {rhs}  ->  {ok}")
rep = ps.pinsker_check([0.6, 0.4], [0.5, 0.5])
print(f"Pinsker: ||P-Q||_1^2 = {rep.lhs:.4f} <= 2 KL = {rep.rhs:.4f}  ->  {rep.satisfied}")

# And the entropy side: the KL divergence between nearby members of the
# family matches its quadratic form to first order.
f = fam.fim(np.array([0.5]))
for eps in (0.02, 0.01, 0.005):
    p = fam.probs(np.array([0.5]))
    q = fam.probs(np.array([0.5 + eps]))
    kl = ps.discrete_kl(p, q)
    err = ps.kl_quadratic_consistency(f, np.array([eps]), kl)
    print(f"KL vs quadratic form at dtheta = {eps}: relative error {err:.4f}")
