"""The acceptance criteria: one table read by ``verify`` and the acceptance tests.

Each criterion reads a measure from a :func:`probsens.runner.run_case` report,
the zero-mean score check from its in-memory ``_scores`` entry, which
``report.json`` does not hold.  A relative error or a score mean in standard
errors passes below its tolerance, a violation count passes at zero.
Tolerances are stated at N = 1e5; a Monte-Carlo one widens by sqrt(1e5 / N).
"""

import math
from typing import Callable, NamedTuple

import numpy as np

from .bounds import pinsker_check, titu
from .models import identity_analytic

FULL_N = 100_000
_SAMPLED = ("identity", "sho", "beam")
_TR_FX = {"identity": 75.0, "sho": 30300.0, "beam": 3.0 / 0.47**2 + 3.0 / 0.2**2}  # sum of 3 / sigma^2
_MU, _SIGMA = 1.0, 0.2  # the identity case's normal input
_PF_WINDOW = (0.05, 0.95)  # identity rows with enough failures on both sides
_MC_TOL = 0.05


class Criterion(NamedTuple):
    name: str
    cases: tuple[str, ...]
    measure: Callable[[dict], float]
    tol: float  # at N = FULL_N; 0 for a violation count
    mc_scaled: bool = False  # widens by sqrt(FULL_N / N)


class Outcome(NamedTuple):
    name: str
    value: float
    tol: float
    ok: bool


def _chain_violations(r: dict) -> int:
    return sum(not row["norm_le_tr_fy"] for row in r["rows"]) + (not r["info_processing"]["satisfied"])


def _perturbation_violations(r: dict) -> int:
    return sum(p["violations_fx"] + p["violations_fy"] for p in r["perturbations"])


def _norm_rel_err(r: dict) -> float:
    rows = [row for row in r["rows"] if _PF_WINDOW[0] <= row["p_f"] <= _PF_WINDOW[1]]
    exact = identity_analytic(_MU, _SIGMA, np.array([row["z"] for row in rows])).norm_sq
    return float(np.max(np.abs(np.array([row["grad_norm_sq"] for row in rows]) - exact) / exact))


def _peak_rel_err(r: dict) -> float:
    exact = 1.0 / (2.0 * math.pi * _SIGMA**2)
    return abs(max(row["grad_norm_sq"] for row in r["rows"]) - exact) / exact


def _score_mean_in_std_errs(r: dict) -> float:
    """The largest |mean score| of the run's batch, in standard errors."""
    scores = r["_scores"]
    return float(np.max(np.abs(scores["mean"]) / np.array(scores["std_err"])))


def _kl_rel_err(r: dict) -> float:
    return max(r["kl_consistency"]["rel_err_forward_fx"], r["kl_consistency"]["rel_err_reverse_fx"])


CRITERIA = (
    Criterion("zero-mean scores", _SAMPLED, _score_mean_in_std_errs, 5.0),
    Criterion("tr_Fx vs closed form", _SAMPLED, lambda r: abs(r["tr_fx"] - _TR_FX[r["case"]]), 1e-9),
    Criterion("sensitivity chain violations", _SAMPLED, _chain_violations, 0),
    Criterion("perturbation bound violations", _SAMPLED, _perturbation_violations, 0),
    Criterion("gradient vs finite differences", _SAMPLED, lambda r: r["gradient_fd_check"]["max_rel_err"], 0.02),
    Criterion("norm^2 vs closed form", ("identity",), _norm_rel_err, _MC_TOL, mc_scaled=True),
    Criterion("peak norm^2 vs closed form", ("identity",), _peak_rel_err, _MC_TOL, mc_scaled=True),
    Criterion("KL quadratic consistency", ("identity",), _kl_rel_err, _MC_TOL, mc_scaled=True),
)


def evaluate(report: dict) -> list[Outcome]:
    """Every criterion of the report's case, at the report's sample count."""
    out = []
    for c in CRITERIA:
        if report["case"] in c.cases:
            value = c.measure(report)
            tol = c.tol * math.sqrt(FULL_N / report["provenance"]["n_samples"]) if c.mc_scaled else c.tol
            out.append(Outcome(c.name, value, tol, bool(value < tol if tol else value == 0)))
    return out


def theorem_suites(rng: np.random.Generator) -> dict[str, bool]:
    """Titu's lemma and Pinsker's inequality, each on 1000 random instances."""
    titu_ok = all(
        titu(rng.uniform(0.0, 10.0, size=k), rng.uniform(1e-3, 10.0, size=k))[2]
        for k in rng.integers(2, 16, size=1000)
    )
    pinsker_ok = True
    for _ in range(1000):
        k = int(rng.integers(2, 11))
        p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k)) + 1e-12
        pinsker_ok &= pinsker_check(p, q / q.sum()).satisfied
    return {
        "Titu inequality (1000 random instances)": titu_ok,
        "Pinsker inequality (1000 random simplex pairs)": pinsker_ok,
    }
