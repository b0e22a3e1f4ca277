"""The acceptance criteria: one table read by ``verify`` and the acceptance tests.

Each criterion reads a measure from a :func:`probsens.runner.run_case` report
(a sampled case's or the discrete oracle's), the zero-mean score check from
its in-memory ``_scores`` entry, which ``report.json`` does not hold;
:func:`theorem_suites` checks what needs no run.  Each check is an
:class:`Outcome`: a relative error or a score mean in standard errors passes
below its tolerance, a violation count passes at zero.  Tolerances are
stated at N = 1e5; a Monte-Carlo one widens by sqrt(1e5 / N).
"""

import math
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from .bounds import pinsker_check, titu
from .distributions import lognormal, normal
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
    Criterion("discrete simplex oracle violations", ("discrete-oracle",), lambda r: r["violations"], 0),
)


def _judge(name: str, value: float, tol: float) -> Outcome:
    return Outcome(name, value, tol, bool(value < tol if tol else value == 0))


def evaluate(report: dict) -> list[Outcome]:
    """Every criterion of the report's case, at the report's sample count."""
    out = []
    for c in CRITERIA:
        if report["case"] in c.cases:
            value = c.measure(report)
            tol = c.tol * math.sqrt(FULL_N / report["provenance"]["n_samples"]) if c.mc_scaled else c.tol
            out.append(_judge(c.name, value, tol))
    return out


def theorem_suites(rng: np.random.Generator) -> list[Outcome]:
    """The score formulas against log-density finite differences, then
    Titu's lemma and Pinsker's inequality, each on 1000 random instances."""
    max_rel = 0.0
    for spec in (normal(1.0, 0.2), normal(0.0, 1.0), lognormal(24.85, 0.47), lognormal(0.0, 1.0)):
        x = spec.ppf(rng.uniform(0.05, 0.95, size=64))
        s = spec.score(x)
        for j, name in enumerate(("mu", "sigma")):
            value = getattr(spec, name)
            hstep = 1e-6 * max(1.0, abs(value))
            hi = replace(spec, **{name: value + hstep})
            lo = replace(spec, **{name: value - hstep})
            fd = (hi.logpdf(x) - lo.logpdf(x)) / (2.0 * hstep)
            rel = np.abs(s[:, j] - fd) / np.maximum(np.abs(fd), 1e-12)
            max_rel = max(max_rel, float(rel.max()))
    titu_violations = sum(
        not titu(rng.uniform(0.0, 10.0, size=k), rng.uniform(1e-3, 10.0, size=k))[2]
        for k in rng.integers(2, 16, size=1000)
    )
    pinsker_violations = 0
    for _ in range(1000):
        k = int(rng.integers(2, 11))
        p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k)) + 1e-12
        pinsker_violations += not pinsker_check(p, q / q.sum()).satisfied
    return [
        _judge("scores match log-density finite differences", max_rel, 1e-6),
        _judge("Titu inequality violations in 1000 random instances", titu_violations, 0),
        _judge("Pinsker inequality violations in 1000 random simplex pairs", pinsker_violations, 0),
    ]
