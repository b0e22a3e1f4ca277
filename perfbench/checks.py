"""Correctness checks for benchmark runs, computed apart from the program.

Each check returns a list of failure messages; an empty list means the
run's outputs are correct.  The checks use closed forms, a direct modal
sum, exact binomial enumeration and the bound properties themselves, and
never compare against a stored copy of earlier output.  Nothing here
imports ``probsens``.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np

# The 5% and 0.02 tolerances are those of the package's acceptance tests;
# five standard errors keep a correct Monte-Carlo estimate inside on every
# seed; the beam map is deterministic, so only rounding may separate it
# from the direct sum.
IDENTITY_REL_TOL = 0.05
IDENTITY_SE_TOL = 5.0
FD_REL_TOL = 0.02
BEAM_REL_TOL = 1e-9

# Identity case: Normal(1.0, 0.2) input, g(y) = y, failure event y <= z.
IDENTITY_MU, IDENTITY_SIGMA = 1.0, 0.2

# Beam case: 1 m clamped-free beam with a 20 mm x 2 mm section, 10% modal
# damping, unit force spectral density at mid-span, three modes, 101
# response positions and 4000 frequencies; E and rho are Lognormal.
BEAM = {
    "length": 1.0,
    "second_moment": 0.02 * 0.002**3 / 12.0,
    "section_area": 0.02 * 0.002,
    "damping": 0.1,
    "excitation": 0.5,
    "force_psd": 1.0,
    "modes": 3,
    "positions": 101,
    "freqs": 4000,
    "ln_e": (24.85, 0.47),
    "ln_rho": (7.88, 0.2),
}


def read_curve(path) -> list[dict]:
    """Rows of a ``curve.csv`` as dicts of floats."""
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def check_bound_chain(curve: list[dict], report: dict) -> list[str]:
    """|grad|^2 <= tr(F_y) on every row, tr(F_y) <= tr(F_x), FD agreement."""
    failures = []
    if not curve:
        failures.append("curve.csv has no rows")
    for row in curve:
        if not row["grad_norm_sq"] <= row["tr_fy"]:
            failures.append(
                f"percentile {row['percentile']}: grad_norm_sq {row['grad_norm_sq']!r} > tr_fy {row['tr_fy']!r}"
            )
    if not report["tr_fy"] <= report["tr_fx"]:
        failures.append(f"tr_fy {report['tr_fy']!r} > tr_fx {report['tr_fx']!r}")
    fd_err = report["gradient_fd_check"]["max_rel_err"]
    if not fd_err < FD_REL_TOL:
        failures.append(f"gradient_fd_check.max_rel_err {fd_err!r} >= {FD_REL_TOL}")
    return failures


def _identity_gradient(t: float, n: int) -> tuple[float, float]:
    """Exact |grad P_f|^2 at u = t and the standard error of its N-sample estimate.

    With u = (x - mu) / sigma standard Normal and the failure event u <= t,
    the estimator averages a = 1{u<=t} u / sigma and b = 1{u<=t} (u^2 - 1) / sigma.
    Their means and covariance follow from the truncated moments
    M_k = E[1{u<=t} u^k]; the delta method gives var |g|^2 = 4 g' C g / N.
    """
    sigma = IDENTITY_SIGMA
    phi = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    m0 = 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))
    m1 = -phi
    m2 = m0 - t * phi
    m3 = -(t * t + 2.0) * phi
    m4 = 3.0 * m0 - (t**3 + 3.0 * t) * phi
    ga, gb = m1 / sigma, (m2 - m0) / sigma
    caa = m2 / sigma**2 - ga * ga
    cbb = (m4 - 2.0 * m2 + m0) / sigma**2 - gb * gb
    cab = (m3 - m1) / sigma**2 - ga * gb
    var = 4.0 * (ga * ga * caa + 2.0 * ga * gb * cab + gb * gb * cbb) / n
    return ga * ga + gb * gb, math.sqrt(max(var, 0.0))


def check_identity(curve: list[dict], report: dict) -> list[str]:
    """Closed form |grad P_f|^2 = phi(t)^2 (1 + t^2) / sigma^2, P_f = Phi(t), tr(F_x) = 75.

    A row passes within the 5% acceptance tolerance or within
    IDENTITY_SE_TOL standard errors of the estimate, whichever is wider:
    near p_f = 0.05 and 0.95 one standard error is about 2.4% at N = 1e5,
    so 5% alone fails on some seeds with correct code.
    """
    failures = check_bound_chain(curve, report)
    n = report["provenance"]["n_samples"]
    checked = 0
    for row in curve:
        if not 0.05 <= row["p_f"] <= 0.95:
            continue
        checked += 1
        t = (row["z"] - IDENTITY_MU) / IDENTITY_SIGMA
        exact, se = _identity_gradient(t, n)
        err = abs(row["grad_norm_sq"] - exact)
        if not err <= max(IDENTITY_REL_TOL * exact, IDENTITY_SE_TOL * se):
            failures.append(
                f"percentile {row['percentile']}: |grad|^2 {row['grad_norm_sq']!r} vs closed form {exact!r}"
                f" ({err / exact:.4f} relative, {err / se:.1f} standard errors)"
            )
        p_exact = 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))
        if not abs(row["p_f"] - p_exact) <= IDENTITY_SE_TOL * math.sqrt(p_exact * (1.0 - p_exact) / n) + 1.0 / n:
            failures.append(f"percentile {row['percentile']}: p_f {row['p_f']!r} vs Phi(t) {p_exact!r}")
    if checked == 0:
        failures.append("no curve row with 0.05 <= p_f <= 0.95")
    tr_fx_exact = 3.0 / IDENTITY_SIGMA**2  # diag(1/s^2, 2/s^2)
    for tr in [report["tr_fx"]] + [row["tr_fx"] for row in curve]:
        if not abs(tr - tr_fx_exact) <= 1e-9 * tr_fx_exact:
            failures.append(f"tr_fx {tr!r} != {tr_fx_exact}")
            break
    return failures


def _clamped_free_roots(n: int) -> list[float]:
    """Roots of cos(x) cosh(x) = -1 by bisection on cos(x) + 1/cosh(x)."""
    roots = []
    for r in range(1, n + 1):
        lo, hi = (r - 0.5) * math.pi - 1.0, (r - 0.5) * math.pi + 1.0
        f_lo = math.cos(lo) + 1.0 / math.cosh(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            f_mid = math.cos(mid) + 1.0 / math.cosh(mid)
            if (f_mid > 0.0) == (f_lo > 0.0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return roots


def beam_rms_direct(e: float, rho: float) -> tuple[float, float]:
    """Peak r.m.s. acceleration and strain of one beam by a direct modal sum.

    Builds the complex receptance at every (position, frequency) pair,
    H(u, w) = sum_r phi_r(u) phi_r(u_F) / (w_r^2 - w^2 + 2i zeta w_r w),
    and integrates 2 S_F w^4 |H|^2 (acceleration) and 2 S_F |H''|^2
    (strain) over the frequency grid by the trapezoidal rule.  Mode shapes
    are cosh - cos - sigma_r (sinh - sin) scaled by 1/sigma_r, the
    normalisation of the beam case.
    """
    b = BEAM
    roots = _clamped_free_roots(b["modes"])
    fac = math.sqrt(b["second_moment"] / (b["section_area"] * b["length"] ** 4))
    (mu_e, s_e), (mu_r, s_r) = b["ln_e"], b["ln_rho"]
    speed_mean = math.sqrt(math.exp(mu_e + 0.5 * s_e**2) / math.exp(mu_r + 0.5 * s_r**2))
    speed_hi = math.exp(0.5 * (mu_e - mu_r) + 2.0 * math.hypot(s_e, s_r))
    omega = np.linspace(
        0.01 * roots[0] ** 2 * fac * speed_mean,
        1.2 * roots[-1] ** 2 * fac * speed_hi,
        b["freqs"],
    )
    tw = np.full(omega.size, omega[1] - omega[0])
    tw[[0, -1]] *= 0.5
    u = np.linspace(0.0, 1.0, b["positions"])[:, None]

    h_disp = np.zeros((u.size, omega.size), dtype=complex)
    h_curv = np.zeros((u.size, omega.size), dtype=complex)
    for beta in roots:
        k = (math.sinh(beta) + math.sin(beta)) / (math.cosh(beta) + math.cos(beta))

        def shape(x):
            return k * (np.cosh(beta * x) - np.cos(beta * x)) - (np.sinh(beta * x) - np.sin(beta * x))

        curv = beta**2 * (k * (np.cosh(beta * u) + np.cos(beta * u)) - (np.sinh(beta * u) + np.sin(beta * u)))
        curv /= b["length"] ** 2
        wr = beta**2 * fac * math.sqrt(e / rho)
        receptance = shape(b["excitation"]) / (wr * wr - omega**2 + 2j * b["damping"] * wr * omega)
        h_disp += shape(u) * receptance
        h_curv += curv * receptance
    acc_sq = (2.0 * b["force_psd"] * omega**4 * tw * np.abs(h_disp) ** 2).sum(axis=1)
    str_sq = (2.0 * b["force_psd"] * tw * np.abs(h_curv) ** 2).sum(axis=1)
    return math.sqrt(acc_sq.max()), math.sqrt(str_sq.max())


def check_beam_forward(draws, outputs) -> list[str]:
    """Program outputs for a few (E, rho) rows against the direct modal sum."""
    failures = []
    for (e, rho), got in zip(draws, outputs):
        want = beam_rms_direct(float(e), float(rho))
        for name, g, w in zip(("acceleration", "strain"), got, want):
            rel = abs(float(g) - w) / abs(w)
            if not rel <= BEAM_REL_TOL:
                failures.append(f"beam {name} at E={e!r}, rho={rho!r}: {g!r} vs direct sum {w!r}")
    return failures


def oracle_margins(n_trials: int, thetas, dtheta: float) -> list[float]:
    """Exact db^T F db - |dP_f|^2 for every failure subset of every theta.

    PMFs come from ``math.comb``; F is the binomial information
    n / (theta (1 - theta)).
    """
    cells = range(n_trials + 1)
    margins = []
    for theta in thetas:

        def pmf(t):
            return [math.comb(n_trials, k) * t**k * (1.0 - t) ** (n_trials - k) for k in cells]

        diff = [q - p for p, q in zip(pmf(theta), pmf(theta + dtheta))]
        quad = dtheta * dtheta * n_trials / (theta * (1.0 - theta))
        for r in range(n_trials + 2):
            for subset in itertools.combinations(cells, r):
                dpf = math.fsum(diff[k] for k in subset)
                margins.append(quad - dpf * dpf)
    return margins


def check_oracle(report: dict) -> list[str]:
    """Instance count, zero violations, and the worst margin recomputed exactly."""
    failures = []
    n_trials, thetas = report["n_trials"], report["thetas"]
    expected = len(thetas) * 2 ** (n_trials + 1)
    if report["instances"] != expected:
        failures.append(f"instances {report['instances']} != len(thetas) * 2^(n_trials+1) = {expected}")
    if report["violations"] != 0:
        failures.append(f"{report['violations']} violations")
    margins = oracle_margins(n_trials, thetas, report["dtheta"])
    if min(margins) < 0.0:
        failures.append(f"exact enumeration finds a violated instance (margin {min(margins)!r})")
    scale = max(margins)
    if not abs(report["worst_margin"] - min(margins)) <= 1e-9 * scale:
        failures.append(f"worst_margin {report['worst_margin']!r} vs exact {min(margins)!r}")
    return failures
