"""Numerical certification of the sensitivity and perturbation bounds.

Two kinds of checks live here:

* exact-arithmetic theorem checks (Titu/Sedrakyan, Pinsker, the discrete
  simplex oracle) where any violation beyond 1e-12 * scale is a bug, and
* estimator-facing checks (trace ordering, matrix ordering) whose
  comparisons build documented statistical slack into the right-hand side,
  never into the report's pass rule.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distributions import _integer
from .errors import ContractError, ParameterDomainError, SupportError, as_floats, expect
from .fisher import FisherMatrix
from .mclr import SensitivityResult


# relative slack of the relaxed matrix ordering in info_processing_check
_EIG_TOL = 0.05


def _holds(lhs, rhs):
    """The one pass rule of every bound: lhs <= rhs + 1e-12 * max(1, rhs),
    elementwise on arrays."""
    return lhs <= rhs + 1e-12 * np.maximum(1.0, rhs)


def _plain(a: np.ndarray):
    """A 0-d array as its Python scalar; any other array as it is."""
    return a.item() if a.ndim == 0 else a


@dataclass(frozen=True)
class BoundReport:
    """One lhs <= rhs comparison with its margin and context, or one per
    element when lhs is an array (lhs, satisfied and margin are then arrays)."""

    name: str
    lhs: float | np.ndarray
    rhs: float
    satisfied: bool | np.ndarray
    margin: float | np.ndarray
    context: dict = field(default_factory=dict)

    @staticmethod
    def of(name: str, lhs, rhs: float, context: dict | None = None) -> "BoundReport":
        lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
        return BoundReport(
            name=name,
            lhs=_plain(lhs),
            rhs=float(rhs),
            satisfied=_plain(_holds(lhs, rhs)),
            margin=_plain(rhs - lhs),
            context=context or {},
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "satisfied": self.satisfied,
            "margin": self.margin,
            "context": self.context,
        }


def check_sensitivity_bound(curve: SensitivityResult, f_y: FisherMatrix) -> BoundReport:
    """The link |grad|^2 <= tr(F_y) of the chain at every threshold of
    ``curve``, judged in one comparison; the link tr(F_y) <= tr(F_x) holds
    for every threshold at once and is :func:`info_processing_check`.

    lhs, satisfied and margin are arrays of shape (T,), one entry per row
    of the curve, and the context holds the curve's z and p_f columns.
    """
    expect("curve", curve, SensitivityResult)
    expect("F_y", f_y, FisherMatrix)
    if curve.gradient.shape[1:] != (f_y.n,):
        raise ContractError("parameter dimensions of gradient and information matrix differ")
    return BoundReport.of("grad_norm_sq<=tr_Fy", curve.grad_norm_sq, f_y.trace, {"z": curve.z, "p_f": curve.p_f})


def check_perturbation_bound(p_f_at_b, p_f_at_b_plus, db, fim: FisherMatrix) -> BoundReport:
    """|delta P_f|^2 <= db^T F db; also reports delta-H = quad/2.

    ``p_f_at_b`` and ``p_f_at_b_plus`` are one failure probability each, or
    equal-length arrays of them (one per threshold), judged elementwise.
    The bound is only informative while the quadratic form stays <= 1
    (probabilities cannot change by more than 1); larger perturbations
    get one vacuous-bound warning per call.
    """
    if np.shape(p_f_at_b) != np.shape(p_f_at_b_plus):
        raise ContractError("p_f_at_b and p_f_at_b_plus must have the same shape")
    dp = as_floats("p_f_at_b_plus", p_f_at_b_plus) - as_floats("p_f_at_b", p_f_at_b)
    if not np.all(np.isfinite(dp)):
        raise ParameterDomainError("failure probabilities must be finite")
    quad = expect("information matrix", fim, FisherMatrix).quad_form(db)
    if quad > 1.0:
        warnings.warn(
            f"perturbation quadratic form {quad:.3g} > 1: bound is vacuous", RuntimeWarning
        )
    return BoundReport.of(
        "dPf_sq<=quad_form",
        dp * dp,
        quad,
        {"delta_pf": _plain(dp), "delta_h": 0.5 * quad, "vacuous": quad > 1.0},
    )


def titu(u, v) -> tuple[float, float, bool]:
    """Sedrakyan/Titu inequality (sum u)^2 / sum v <= sum u^2/v for v > 0."""
    u, v = as_floats("u", u), as_floats("v", v)
    if u.shape != v.shape or u.ndim != 1 or u.size == 0:
        raise ContractError("u and v must be non-empty, 1-D and of equal length")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise ParameterDomainError("u and v entries must be finite")
    if np.any(v <= 0.0):
        raise ParameterDomainError("all v entries must be > 0")
    if np.any(u < 0.0):
        raise ParameterDomainError("u entries must be >= 0")
    lhs = float(u.sum()) ** 2 / float(v.sum())
    rhs = float(np.sum(u * u / v))
    return lhs, rhs, bool(_holds(lhs, rhs))


def discrete_kl(p, q) -> float:
    """KL divergence of two PMFs on a shared support."""
    p, q = as_floats("P", p), as_floats("Q", q)
    if p.shape != q.shape:
        raise ContractError("P and Q must share a support")
    # a NaN entry would drop out of the active set below
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise ParameterDomainError("P and Q entries must be finite")
    active = p > 0.0
    if np.any(q[active] <= 0.0):
        raise SupportError("Q must be strictly positive wherever P is")
    return float(np.sum(p[active] * np.log(p[active] / q[active])))


def _require_pmf(p, name: str) -> np.ndarray:
    p = as_floats(name, p)
    if not np.all(np.isfinite(p)):
        raise ParameterDomainError(f"{name} entries must be finite")
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
        raise ContractError(f"{name} is not a probability vector (sum {p.sum()!r})")
    return np.clip(p, 0.0, None)


def pinsker_check(p, q) -> BoundReport:
    """Pinsker's inequality ||P - Q||_1^2 <= 2 KL[P || Q].

    Also records the failure-set restriction chain: the worst failure set
    changes by the total variation distance, and (2 TV)^2 = L1^2 dominates
    every |delta P_f(A)|^2.
    """
    p = _require_pmf(p, "P")
    q = _require_pmf(q, "Q")
    kl = discrete_kl(p, q)
    l1 = float(np.abs(p - q).sum())
    tv = 0.5 * l1
    return BoundReport.of(
        "l1_sq<=2kl",
        l1 * l1,
        2.0 * kl,
        {"kl": kl, "tv": tv, "worst_set_dpf_sq": tv * tv, "chain_ok": bool(_holds(tv * tv, l1 * l1))},
    )


@dataclass(frozen=True)
class DiscretePmfFamily:
    """A parametric PMF on d cells.

    ``pmf(b)`` maps a parameter vector to d probabilities; ``dpdb`` may
    supply the exact (d, n) Jacobian, otherwise it is built from high-order
    central differences.
    """

    d: int
    pmf: Callable[[np.ndarray], np.ndarray]
    dpdb: Callable[[np.ndarray], np.ndarray] | None = None

    def probs(self, b) -> np.ndarray:
        p = as_floats("pmf(b)", self.pmf(as_floats("b", b)))
        if p.shape != (self.d,):
            raise ContractError(f"pmf returned shape {p.shape}, expected ({self.d},)")
        return _require_pmf(p, "pmf(b)")

    def jacobian(self, b) -> np.ndarray:
        b = as_floats("b", b)
        if self.dpdb is not None:
            jac = as_floats("dpdb(b)", self.dpdb(b))
            if jac.shape != (self.d, b.size):
                raise ContractError(f"dpdb returned shape {jac.shape}")
            return jac
        # 4th-order central stencil per parameter
        jac = np.empty((self.d, b.size))
        for j in range(b.size):
            hj = 1e-4 * max(1.0, abs(b[j]))
            e = np.zeros_like(b)
            e[j] = 1.0
            jac[:, j] = (
                -self.probs(b + 2 * hj * e)
                + 8.0 * self.probs(b + hj * e)
                - 8.0 * self.probs(b - hj * e)
                + self.probs(b - 2 * hj * e)
            ) / (12.0 * hj)
        return jac

    def fim(self, b) -> FisherMatrix:
        p = self.probs(b)
        jac = self.jacobian(b)
        active = p > 0.0
        f = (jac[active].T / p[active]) @ jac[active]
        return FisherMatrix(0.5 * (f + f.T))


@dataclass(frozen=True)
class SimplexOracleResult:
    """Exact PMF evaluation of every quantity in the perturbation chain.

    The failure-set quantities are arrays with one entry per failure set;
    the rest depend on the family, b and db alone.
    """

    delta_pf: np.ndarray
    pf_b: np.ndarray
    pf_b_plus: np.ndarray
    eq2_satisfied: np.ndarray        # |delta P_f|^2 <= db^T F db
    eq2_margin: np.ndarray
    geometric_satisfied: np.ndarray  # |delta P_f|^2 <= D1^2 + |db|^3
    geometric_margin: np.ndarray
    d1_sq: float           # exact squared distance in sqrt-probability space
    d1_sq_linear: float    # first-order version; equals quad_form / 4 exactly
    quad_form: float       # db^T F db


def discrete_simplex_oracle(fam: DiscretePmfFamily, b, db, failure_sets) -> SimplexOracleResult:
    """Brute-force check of the perturbation bound on a finite PMF.

    ``failure_sets`` is a (sets, d) 0/1 matrix, one failure set per row.
    Everything is computed exactly from the PMF: the probability change of
    each failure set, the distance in sqrt-probability coordinates, and the
    quadratic form of the exact information matrix.  Only the probability
    changes depend on the failure set; the rest is computed once.  The
    geometric relation |delta P_f|^2 <= D1^2 is checked with O(|db|^3)
    slack (its first-order derivation ignores curvature); the final bound
    |delta P_f|^2 <= db^T F db is checked outright.

    Note the first-order D1^2 built from d(sqrt p)/db equals one quarter of
    the quadratic form, not the quadratic form itself; both values are
    reported so the discrepancy in the geometric derivation stays visible.
    """
    b, db = as_floats("b", b), as_floats("db", db)
    if b.ndim != 1 or db.shape != b.shape:
        raise ContractError(f"b must be a parameter vector and db have the shape of b, got {b.shape} and {db.shape}")
    p = fam.probs(b)
    q = fam.probs(b + db)

    sets = np.asarray(failure_sets)
    if sets.ndim != 2 or sets.shape[1] != fam.d or not np.all((sets == 0) | (sets == 1)):
        raise ContractError(f"failure sets must be a (sets, {fam.d}) 0/1 matrix, got shape {sets.shape}")
    dead = np.flatnonzero((p == 0.0) & np.any(sets == 1, axis=0))
    if dead.size:
        warnings.warn(f"failure cells with zero probability excluded: {dead.tolist()}", RuntimeWarning)
    member = (sets == 1) & (p > 0.0)
    # row sums over contiguous rows: a set's value does not depend on the other rows
    pf_b = np.where(member, p, 0.0).sum(axis=1)
    pf_bp = np.where(member, q, 0.0).sum(axis=1)
    dpf = pf_bp - pf_b

    d1_sq = float(np.sum((np.sqrt(q) - np.sqrt(p)) ** 2))
    jac = fam.jacobian(b)
    active = p > 0.0
    dq_lin = (jac[active] @ db) / (2.0 * np.sqrt(p[active]))
    d1_sq_linear = float(np.sum(dq_lin * dq_lin))
    quad = fam.fim(b).quad_form(db)

    dpf_sq = dpf * dpf
    geometric_rhs = d1_sq + float(np.linalg.norm(db)) ** 3
    return SimplexOracleResult(
        delta_pf=dpf,
        pf_b=pf_b,
        pf_b_plus=pf_bp,
        eq2_satisfied=_holds(dpf_sq, quad),
        eq2_margin=quad - dpf_sq,
        geometric_satisfied=_holds(dpf_sq, geometric_rhs),
        geometric_margin=geometric_rhs - dpf_sq,
        d1_sq=d1_sq,
        d1_sq_linear=d1_sq_linear,
        quad_form=quad,
    )


@functools.lru_cache(maxsize=64)
def _binomial_pmf(n_trials: int, theta: float) -> np.ndarray:
    """Binomial(n_trials, theta) probabilities in closed form, read-only
    because every family over the same (n_trials, theta) shares them."""
    p = np.array(
        [math.comb(n_trials, k) * theta**k * (1.0 - theta) ** (n_trials - k) for k in range(n_trials + 1)]
    )
    p.flags.writeable = False
    return p


def binomial_family(n_trials: int) -> DiscretePmfFamily:
    """Binomial(n_trials, theta) family with exact probability Jacobian.

    The closed form needs binomial coefficients that fit a float, which
    holds for n_trials <= 1000.
    """
    n_trials = _integer("n_trials", n_trials)
    if not 0 <= n_trials <= 1000:
        raise ParameterDomainError(f"n_trials must be in [0, 1000], got {n_trials}")

    def theta_of(b) -> float:
        b = np.atleast_1d(as_floats("b", b))
        if b.shape != (1,):
            raise ContractError(f"the binomial family has one parameter, got shape {b.shape}")
        theta = float(b[0])
        if not 0.0 < theta < 1.0:
            raise ParameterDomainError("theta must be in (0, 1)")
        return theta

    def pmf(b):
        return _binomial_pmf(n_trials, theta_of(b))

    def dpdb(b):
        theta = theta_of(b)
        k = np.arange(n_trials + 1)
        return (_binomial_pmf(n_trials, theta) * (k - n_trials * theta) / (theta * (1.0 - theta)))[:, None]

    return DiscretePmfFamily(d=n_trials + 1, pmf=pmf, dpdb=dpdb)


def info_processing_check(f_y: FisherMatrix, f_x: FisherMatrix) -> BoundReport:
    """Deterministic maps cannot create information: tr(F_y) <= tr(F_x).

    The matrix ordering F_y <= F_x would need min eig(F_x - F_y) >= 0; with
    a kernel-estimated F_y only a relaxed check is possible, recorded in
    the context as a secondary report with rhs = _EIG_TOL * tr(F_x).
    """
    if expect("F_y", f_y, FisherMatrix).n != expect("F_x", f_x, FisherMatrix).n:
        raise ContractError("information matrices differ in dimension")
    diff = f_x.matrix - f_y.matrix
    min_eig = float(np.linalg.eigvalsh(0.5 * (diff + diff.T)).min())
    secondary = BoundReport.of(
        "neg_min_eig<=tol*tr_Fx", -min_eig, _EIG_TOL * f_x.trace, {"min_eigenvalue": min_eig}
    )
    return BoundReport.of(
        "tr_Fy<=tr_Fx",
        f_y.trace,
        f_x.trace,
        {"min_eigenvalue": min_eig, "matrix_order": secondary.to_dict()},
    )


def kl_quadratic_consistency(fim: FisherMatrix, db, kl_direct: float) -> float:
    """Relative error of a measured KL against its quadratic form.

    |kl - 0.5 db^T F db| / (0.5 db^T F db).  The expansion has an O(|db|)
    remainder, so halving the perturbation should roughly halve the error.
    """
    kl = as_floats("measured KL", kl_direct)
    if kl.ndim != 0:
        raise ContractError(f"measured KL must be one number, got shape {kl.shape}")
    if not math.isfinite(kl):
        raise ParameterDomainError(f"measured KL must be finite, got {kl_direct}")
    half_quad = 0.5 * expect("information matrix", fim, FisherMatrix).quad_form(db)
    if half_quad <= 0.0:
        raise ContractError("quadratic form must be positive for a relative error")
    return abs(float(kl) - half_quad) / half_quad
