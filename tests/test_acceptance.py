"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.  The three case studies execute once at full scale
(N = 1e5 for identity and the oscillator, N = 2e4 for the beam) via
module-scoped fixtures; the criteria assert against those reports.
"""

import numpy as np
import pytest

from probsens.criteria import evaluate, theorem_suites
from conftest import identity_stationarity
from probsens.models import beam_roots, identity_analytic
from probsens.runner import RunConfig, run, run_case

SEED = 1


def _criterion(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def identity_report():
    return run_case(RunConfig(case="identity", seed=SEED))


@pytest.fixture(scope="module")
def sho_report():
    return run_case(RunConfig(case="sho", seed=SEED))


@pytest.fixture(scope="module")
def beam_report():
    return run_case(RunConfig(case="beam", seed=SEED))


def _table(num: int, desc: str, report, *names: str):
    """The named entries of the criteria table, at the report's sample count."""
    outcomes = [o for o in evaluate(report) if o.name in names]
    assert sorted(o.name for o in outcomes) == sorted(names)
    detail = ", ".join(f"{o.name} {o.value:.4g} vs {o.tol:.4g}" for o in outcomes)
    _criterion(num, desc, all(o.ok for o in outcomes), detail)


_TRACE_AND_CHAIN = ("tr_Fx vs closed form", "sensitivity chain violations")


def test_criterion_1_identity_closed_form(identity_report):
    _table(
        1,
        "identity curve matches closed forms, trace closed form, zero violations",
        identity_report,
        *_TRACE_AND_CHAIN,
        "norm^2 vs closed form",
        "peak norm^2 vs closed form",
    )
    assert identity_report["all_bounds_satisfied"]


def test_criterion_2_stationary_point():
    d1, d2 = identity_stationarity(1.0, 0.2)
    eps = 1e-4
    ns = identity_analytic(1.0, 0.2, np.array([1.0 - eps, 1.0 + eps])).norm_sq
    slope = abs(ns[1] - ns[0]) / (2 * eps)
    ok = d1 == 0.0 and d2 == 0.0 and slope < 1e-3
    _criterion(2, "sensitivity norm is stationary and flat at y = mu", ok, f"fd slope {slope:.2e}")


def test_criterion_3_sho_chain(sho_report):
    assert len(sho_report["rows"]) == 99
    _table(3, "oscillator chain norm^2 <= tr_Fy <= tr_Fx at 99 thresholds", sho_report, *_TRACE_AND_CHAIN)
    assert sho_report["all_bounds_satisfied"]


def test_criterion_4_beam_chain_and_roots(beam_report):
    assert beam_report["provenance"]["n_samples"] >= 20000
    assert np.allclose(beam_roots(3), [1.875, 4.694, 7.855], atol=1e-3)
    _table(
        4, "beam chain holds, tr_Fx closed form, characteristic roots reproduced", beam_report, *_TRACE_AND_CHAIN
    )
    assert beam_report["all_bounds_satisfied"]


@pytest.mark.parametrize("case_name", ["identity", "sho", "beam"])
def test_criterion_5_perturbation_bound(case_name, identity_report, sho_report, beam_report):
    rep = {"identity": identity_report, "sho": sho_report, "beam": beam_report}[case_name]
    assert len(rep["perturbations"]) >= 2 * len(rep["param_names"]) + 2
    _table(
        5, f"perturbation bound |dPf|^2 <= db^T F db holds for {case_name}", rep, "perturbation bound violations"
    )


def test_criterion_6_kl_quadratic_consistency(identity_report, exact_normal_kl_errors):
    kb = identity_report["kl_consistency"]
    agree = {o.name: o.ok for o in evaluate(identity_report)}["KL quadratic consistency"]
    # linear error scaling on exact densities, sigma perturbations, 4 halvings
    (_, slope_f), (_, slope_r) = exact_normal_kl_errors
    ok = agree and slope_f >= 0.8 and slope_r >= 0.8
    _criterion(
        6,
        "grid KL agrees with quadratic form (both orderings) and error is O(|db|)",
        ok,
        f"rel {kb['rel_err_forward_fx']:.4f}/{kb['rel_err_reverse_fx']:.4f}, slopes {slope_f:.2f}/{slope_r:.2f}",
    )


def test_criterion_7_theorem_suites():
    oracle = run_case(RunConfig(case="discrete-oracle"))
    outcomes = theorem_suites(np.random.default_rng(2024)) + evaluate(oracle)
    assert len(outcomes) == 4
    ok = all(o.ok for o in outcomes) and oracle["instances"] == 192 and oracle["violations"] == 0
    _criterion(
        7,
        "score formulas, Titu/Pinsker randomized suites and exhaustive binomial oracle",
        ok,
        f"{oracle['instances']} oracle instances, " + ", ".join(f"{o.name} {o.value:.3g}" for o in outcomes),
    )


@pytest.mark.parametrize("case_name", ["identity", "sho", "beam"])
def test_criterion_8_gradient_correctness(case_name, identity_report, sho_report, beam_report):
    rep = {"identity": identity_report, "sho": sho_report, "beam": beam_report}[case_name]
    _table(
        8, f"gradient vs common-random-number finite differences for {case_name}", rep, "gradient vs finite differences"
    )


def test_criterion_9_reproducibility(tmp_path):
    dirs = []
    # 20000 samples make five CHUNK-row chunks of the forward map
    for name in ("r1", "r2", "r3"):
        out = tmp_path / name
        cfg = RunConfig(case="identity", n_samples=20000, seed=SEED, out_dir=str(out))
        run(cfg)
        dirs.append(out)
    curve = [(d / "curve.csv").read_bytes() for d in dirs]
    reports = [(d / "report.json").read_bytes() for d in dirs]
    ok = curve[0] == curve[1] == curve[2] and reports[0] == reports[1] == reports[2]
    _criterion(9, "byte-identical curve.csv and report.json across repeated runs", ok)
