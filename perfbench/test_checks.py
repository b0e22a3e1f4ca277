"""Each benchmark check accepts correct output and rejects a corrupted copy.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import spans

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _identity_curve():
    rows = []
    for pct in range(1, 100):
        p = pct / 100.0
        lo, hi = -10.0, 10.0
        for _ in range(200):  # invert Phi by bisection
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < p else (lo, mid)
        t = 0.5 * (lo + hi)
        phi = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
        rows.append({
            "percentile": float(pct),
            "z": 1.0 + 0.2 * t,
            "p_f": p,
            "grad_norm_sq": phi * phi * (1.0 + t * t) / 0.04,
            "tr_fy": 70.0,
            "tr_fx": 75.0,
        })
    report = {
        "tr_fy": 70.0,
        "tr_fx": 75.0,
        "gradient_fd_check": {"max_rel_err": 0.001},
        "provenance": {"n_samples": 100000},
    }
    return rows, report


def test_identity_check_accepts_closed_form():
    assert checks.check_identity(*_identity_curve()) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda rows, rep: rows[49].update(grad_norm_sq=rows[49]["grad_norm_sq"] * 1.06),
        lambda rows, rep: rows[4].update(grad_norm_sq=rows[4]["grad_norm_sq"] * 1.25),
        lambda rows, rep: rows[9].update(p_f=rows[9]["p_f"] + 0.02),
        lambda rows, rep: rep.update(tr_fx=74.0),
        lambda rows, rep: rows[0].update(grad_norm_sq=71.0),
        lambda rows, rep: rep.update(tr_fy=76.0),
        lambda rows, rep: rep["gradient_fd_check"].update(max_rel_err=0.03),
    ],
    ids=["norm_off_closed_form", "norm_off_at_tail", "pf_off_cdf", "tr_fx", "norm_above_tr_fy", "tr_fy_above_tr_fx", "fd_error"],
)
def test_identity_check_rejects(corrupt):
    rows, rep = _identity_curve()
    corrupt(rows, rep)
    assert checks.check_identity(rows, rep)


def test_beam_check_matches_program_and_rejects_drift():
    from probsens.runner import RunConfig, build_case

    case = build_case(RunConfig(case="beam", n_samples=3000))
    draws = np.array([[6.0e10, 2700.0], [2.1e11, 7850.0], [1.1e11, 4500.0]])
    outputs = case.h(draws)
    assert checks.check_beam_forward(draws, outputs) == []
    drifted = outputs.copy()
    drifted[1, 1] *= 1.0 + 1e-7
    assert len(checks.check_beam_forward(draws, drifted)) == 1


def _oracle_report(n_trials=3, thetas=(0.2, 0.5), dtheta=1e-3):
    margins = checks.oracle_margins(n_trials, thetas, dtheta)
    return {
        "n_trials": n_trials,
        "thetas": list(thetas),
        "dtheta": dtheta,
        "instances": len(margins),
        "violations": 0,
        "worst_margin": min(margins),
    }


def test_oracle_check_accepts_program_report():
    from probsens.runner import RunConfig, run_case

    assert checks.check_oracle(run_case(RunConfig(case="discrete-oracle"))) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda rep: rep.update(instances=rep["instances"] - 1),
        lambda rep: rep.update(violations=1),
        lambda rep: rep.update(worst_margin=rep["worst_margin"] * (1.0 + 1e-6)),
    ],
    ids=["instances", "violations", "worst_margin"],
)
def test_oracle_check_rejects(corrupt):
    rep = _oracle_report()
    assert checks.check_oracle(rep) == []
    corrupt(rep)
    assert checks.check_oracle(rep)


def test_tracer_reports_missing_names_and_self_time():
    def inner(x):
        return np.zeros(x)

    def outer(x):
        return module.inner(x)

    module = types.SimpleNamespace(outer=outer, inner=inner, check_a=lambda: 1, check_b=lambda: 2)
    layers = (
        ("outer", "a.outer", None),
        ("inner", "a.inner", lambda a, k, r: r.shape[0]),
        ("_fd_check", "runner.fd_check", None),
        ("check_*", "bounds.check", None),
        ("nothing_*", "none", None),
    )
    tracer = spans.Tracer()
    tracer.install(module, layers)
    assert tracer.absent == ["_fd_check", "nothing_*"]
    assert module.outer(5).shape == (5,)
    module.check_a(), module.check_b()
    m = tracer.layer_metrics()
    assert m["a.inner"]["count"] == 5
    assert m["bounds.check"]["calls"] == 2
    assert m["a.outer"]["self_s"] == pytest.approx(m["a.outer"]["s"] - m["a.inner"]["s"])
    assert [s["parent"] for s in tracer.spans[:2]] == [None, 0]
