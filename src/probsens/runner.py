"""Configuration-driven case studies with bound certification and file outputs.

A run draws one scored sample batch, sweeps percentile thresholds, and
certifies every inequality: the sensitivity chain at each threshold, the
information-processing trace ordering, the perturbation bound for a set of
parameter shifts (paired runs on common random numbers), and the
KL/quadratic-form consistency.  Results go to ``curve.csv``,
``density.csv`` and ``report.json``; numbers are written in shortest
round-trip decimal form so identical configurations produce byte-identical
files under any worker count.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import operator
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__ as _VERSION
from .bounds import (
    binomial_family,
    check_perturbation_bound,
    check_sensitivity_bound,
    discrete_simplex_oracle,
    info_processing_check,
    kl_quadratic_consistency,
    pinsker_check,
    titu,
)
from .distributions import InputModel, lognormal, normal, sample
from .errors import ConfigError
from .mclr import (
    _threshold_sums,
    estimate_gradient_fd,
    estimate_kl,
    estimate_output_density,
    estimate_output_fim,
    evaluate_outputs,
    sensitivity_curve,
)
from .models import beam_rms_ensemble, identity_analytic, sho_response
from .models.beam import BeamConfig

CASES = ("identity", "sho", "beam", "discrete-oracle")

_BEAM_KEYS = (
    "length",
    "second_moment",
    "section_area",
    "modal_damping",
    "excitation_frac",
    "force_psd",
    "n_modes",
    "n_response",
    "n_freq",
    "omega_lo",
    "omega_hi",
)
_ORACLE_KEYS = ("n_trials", "thetas", "dtheta")


@dataclass
class RunConfig:
    """Validated run configuration; unknown keys are rejected."""

    case: str = "identity"
    n_samples: int | None = None
    seed: int = 1
    percentiles: list = field(default_factory=lambda: list(range(1, 100)))
    perturbation_scale: float = 0.01
    perturbations: list | None = None
    bandwidth: list | None = None
    fd_rel_step: float = 1e-2
    beam: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)
    out_dir: str | None = None
    workers: int = 1

    def __post_init__(self):
        if self.case not in CASES:
            raise ConfigError(f"unknown case {self.case!r}; expected one of {CASES}")
        if self.n_samples is None:
            self.n_samples = 20000 if self.case == "beam" else 100000
        for name in ("n_samples", "workers", "seed"):
            try:
                setattr(self, name, operator.index(getattr(self, name)))
            except TypeError as exc:
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}") from exc
        if self.case != "discrete-oracle" and self.n_samples < 1000:
            raise ConfigError("n_samples must be >= 1000 (density estimation needs it)")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not 0.0 < self.perturbation_scale:
            raise ConfigError("perturbation_scale must be positive")
        if not 0.0 < self.fd_rel_step < 0.1:
            raise ConfigError("fd_rel_step must be in (0, 0.1)")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        self.percentiles = [float(p) for p in self.percentiles]
        if not self.percentiles:
            raise ConfigError("percentiles must not be empty")
        if any(not 0.0 < p < 100.0 for p in self.percentiles):
            raise ConfigError("percentiles must lie strictly inside (0, 100)")
        unknown = set(self.beam) - set(_BEAM_KEYS)
        if unknown:
            raise ConfigError(f"unknown beam keys {sorted(unknown)}; allowed {_BEAM_KEYS}")
        unknown = set(self.oracle) - set(_ORACLE_KEYS)
        if unknown:
            raise ConfigError(f"unknown oracle keys {sorted(unknown)}; allowed {_ORACLE_KEYS}")

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        known = {f.name for f in fields(RunConfig)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}; allowed {sorted(known)}")
        try:
            return RunConfig(**d)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        return asdict(self)

    def provenance_dict(self) -> dict:
        """Config echo without delivery knobs (out_dir, workers): those cannot
        change any computed value, and reports must be byte-identical across
        worker counts."""
        d = self.to_dict()
        d.pop("out_dir")
        d.pop("workers")
        return d


def default_config(case: str = "identity") -> RunConfig:
    return RunConfig(case=case)


def _beam_config(overrides: dict) -> BeamConfig:
    kw = dict(overrides)
    lo = kw.pop("omega_lo", None)
    hi = kw.pop("omega_hi", None)
    if (lo is None) != (hi is None):
        raise ConfigError("omega_lo and omega_hi must be overridden together")
    if lo is not None:
        kw["omega_span"] = (float(lo), float(hi))
    return BeamConfig(**kw)


@dataclass
class CaseStudy:
    """Everything the runner needs to execute one case end to end."""

    name: str
    model: InputModel
    h: Callable[[np.ndarray], np.ndarray]
    # performance value per row of the normalised outputs
    g: Callable[[np.ndarray], np.ndarray]
    direction: str
    # divisors fitted once on the base ensemble; every batch's outputs are
    # divided by them before g and the density grid see them
    scale: Callable[[np.ndarray], np.ndarray | float] = lambda outputs: 1.0


def build_case(config: RunConfig) -> CaseStudy:
    if config.case == "identity":
        return CaseStudy(
            name="identity",
            model=InputModel((normal(1.0, 0.2),)),
            h=lambda x: x[:, 0],
            g=lambda y: y,
            direction="below",
        )
    if config.case == "sho":
        return CaseStudy(
            name="sho",
            model=InputModel((normal(1.0, 0.1), normal(0.1, 0.01))),
            h=lambda x: sho_response(x[:, 0], x[:, 1]),
            g=lambda y: y,
            direction="below",
        )
    if config.case == "beam":
        beam_cfg = _beam_config(config.beam)
        return CaseStudy(
            name="beam",
            model=InputModel((lognormal(24.85, 0.47), lognormal(7.88, 0.2))),
            h=lambda x: beam_rms_ensemble(x[:, 0], x[:, 1], beam_cfg),
            # squared sum of the peak responses, each normalised by its ensemble maximum
            g=lambda y: y[:, 0] ** 2 + y[:, 1] ** 2,
            direction="above",
            scale=lambda outputs: outputs.max(axis=0),
        )
    raise ConfigError(f"case {config.case!r} has no sampling pipeline")


def _auto_perturbations(model: InputModel, scale: float) -> list[np.ndarray]:
    """Per-parameter +-scale*sigma_j steps plus two mixed-direction vectors."""
    scales = scale * model.param_scales()
    n = scales.size
    out = []
    for j in range(n):
        for sign in (1.0, -1.0):
            db = np.zeros(n)
            db[j] = sign * scales[j]
            out.append(db)
    out.append(scales.copy())
    alt = scales * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    out.append(alt)
    return out


def run_case(config: RunConfig) -> dict:
    """Execute one case study and return the full report as a plain dict."""
    if config.case == "discrete-oracle":
        return _run_discrete_oracle(config)

    case = build_case(config)
    model = case.model
    n = config.n_samples

    batch = sample(model, n, config.seed)
    outputs = evaluate_outputs(case.h, batch.draws, workers=config.workers)
    scale = case.scale(outputs)
    y = outputs / scale
    gvals = case.g(y)

    # threshold sweep
    curve = sensitivity_curve(
        case.h, case.g, config.percentiles, batch, direction=case.direction, outputs=y
    )
    zs = np.array([r.z for r in curve])

    # output density, output/input information
    bandwidth = np.asarray(config.bandwidth, dtype=float) if config.bandwidth else None
    dg = estimate_output_density(y, batch.scores, bandwidth=bandwidth)
    f_y = estimate_output_fim(dg)
    f_x = model.fim()

    rows = []
    chain_ok = True
    for pct, res in zip(config.percentiles, curve):
        rep_norm, _ = check_sensitivity_bound(res, f_y, f_x)
        chain_ok &= rep_norm.satisfied
        rows.append(
            {
                "percentile": pct,
                "z": res.z,
                "p_f": res.p_f,
                "std_err_pf": res.std_err_pf,
                "gradient": [float(v) for v in res.gradient],
                "grad_norm_sq": res.grad_norm_sq,
                "norm_le_tr_fy": rep_norm.satisfied,
                "margin": rep_norm.margin,
            }
        )
    info_rep = info_processing_check(f_y, f_x)

    # gradient vs likelihood-ratio finite differences at every threshold
    fd_check = _fd_check(case, batch, gvals, curve, config.percentiles, config.fd_rel_step)

    # perturbation bound on paired common-random-number runs
    if config.perturbations is not None:
        dbs = [np.asarray(v, dtype=float) for v in config.perturbations]
    else:
        dbs = _auto_perturbations(model, config.perturbation_scale)
    perturbation_reports = []
    all_pert_ok = True
    kl_block = None
    pf_base = np.array([r.p_f for r in curve])
    for db in dbs:
        shifted = model.shifted(db)
        batch_p = sample(shifted, n, config.seed)
        y_p = evaluate_outputs(case.h, batch_p.draws, workers=config.workers) / scale
        pf_p = _threshold_sums(case.g(y_p), zs, case.direction)[0] / n
        viol_x = viol_y = 0
        worst = None
        for pb, pp in zip(pf_base, pf_p):
            rx = check_perturbation_bound(pb, pp, db, f_x)
            ry = check_perturbation_bound(pb, pp, db, f_y)
            viol_x += not rx.satisfied
            viol_y += not ry.satisfied
            m = min(rx.margin, ry.margin)
            worst = m if worst is None else min(worst, m)
        all_pert_ok &= viol_x == 0 and viol_y == 0
        perturbation_reports.append(
            {
                "db": [float(v) for v in db],
                "quad_fx": f_x.quad_form(db),
                "quad_fy": f_y.quad_form(db),
                "delta_h_fx": 0.5 * f_x.quad_form(db),
                "max_dpf_sq": float(np.max((pf_p - pf_base) ** 2)),
                "violations_fx": int(viol_x),
                "violations_fy": int(viol_y),
                "worst_margin": float(worst) if worst is not None else None,
            }
        )
        # reuse the all-positive perturbation pair for the KL consistency block
        if kl_block is None and np.all(db > 0):
            dg_p = estimate_output_density(y_p, batch_p.scores, bandwidth=dg.bandwidth, axes=dg.axes)
            kl_fwd = estimate_kl(dg, dg_p)
            kl_rev = estimate_kl(dg_p, dg)
            kl_block = {
                "db": [float(v) for v in db],
                "kl_forward": kl_fwd,
                "kl_reverse": kl_rev,
                "half_quad_fy": 0.5 * f_y.quad_form(db),
                "half_quad_fx": 0.5 * f_x.quad_form(db),
                "rel_err_forward_fy": kl_quadratic_consistency(f_y, db, kl_fwd),
                "rel_err_reverse_fy": kl_quadratic_consistency(f_y, db, kl_rev),
                "rel_err_forward_fx": kl_quadratic_consistency(f_x, db, kl_fwd),
                "rel_err_reverse_fx": kl_quadratic_consistency(f_x, db, kl_rev),
            }

    all_ok = bool(chain_ok and info_rep.satisfied and all_pert_ok)
    param_names = list(model.param_vector().names)
    return {
        "case": case.name,
        "all_bounds_satisfied": all_ok,
        "tr_fx": f_x.trace,
        "tr_fy": f_y.trace,
        "param_names": param_names,
        "direction": case.direction,
        "rows": rows,
        "info_processing": info_rep.to_dict(),
        "gradient_fd_check": fd_check,
        "perturbations": perturbation_reports,
        "kl_consistency": kl_block,
        "density": {
            "bandwidth": [float(v) for v in dg.bandwidth],
            "mass": dg.mass(),
            "grad_mass": [dg.grad_mass(j) for j in range(len(param_names))],
        },
        "provenance": {
            "package_version": _VERSION,
            "seed": config.seed,
            "n_samples": config.n_samples,
            "config": config.provenance_dict(),
        },
        "_density_grid": dg,  # stripped before serialisation
    }


def _fd_check(case, batch, gvals, curve, percentiles, rel_step) -> dict:
    """Compare the curve's score-weighted gradients against likelihood-ratio
    central differences on the same draws, at every threshold.

    Components with |value| <= 0.1 are skipped (relative error of a
    near-zero quantity is uninformative).
    """
    zs = np.array([r.z for r in curve])
    grads = np.array([r.gradient for r in curve])
    fds = estimate_gradient_fd(gvals, zs, case.model, batch, case.direction, rel_step=rel_step)
    big = np.abs(grads) > 0.1
    rels = np.abs(grads - fds)[big] / np.abs(grads[big])
    detail = [
        {
            "percentile": pct,
            "z": float(z),
            "gradient": [float(v) for v in grad],
            "fd": [float(v) for v in fd],
        }
        for pct, z, grad, fd in zip(percentiles, zs, grads, fds)
        if pct in range(10, 100, 10)  # keep the report compact
    ]
    return {"rel_step": rel_step, "max_rel_err": float(rels.max(initial=0.0)), "thresholds": detail}


def _run_discrete_oracle(config: RunConfig) -> dict:
    """Exhaustive failure-set enumeration for the binomial family."""
    n_trials = int(config.oracle.get("n_trials", 5))
    thetas = [float(t) for t in config.oracle.get("thetas", (0.2, 0.5, 0.8))]
    dtheta = float(config.oracle.get("dtheta", 1e-3))
    cells = n_trials + 1
    instances = 0
    violations = 0
    worst_margin = None
    for theta in thetas:
        for r in range(cells + 1):
            for subset in itertools.combinations(range(cells), r):
                fam = binomial_family(n_trials, subset)
                res = discrete_simplex_oracle(fam, np.array([theta]), np.array([dtheta]))
                instances += 1
                if not (res.bound_eq2.satisfied and res.bound_geometric.satisfied):
                    violations += 1
                m = res.bound_eq2.margin
                worst_margin = m if worst_margin is None else min(worst_margin, m)
    return {
        "case": "discrete-oracle",
        "all_bounds_satisfied": violations == 0,
        "n_trials": n_trials,
        "thetas": thetas,
        "dtheta": dtheta,
        "instances": instances,
        "violations": violations,
        "worst_margin": worst_margin,
        "provenance": {
            "package_version": _VERSION,
            "seed": config.seed,
            "config": config.provenance_dict(),
        },
    }


def _fmt(x) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(x))


def _fmt_all(values: np.ndarray) -> list[str]:
    """:func:`_fmt` of every element, in C order."""
    return list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def write_outputs(report: dict, out_dir: str) -> list[str]:
    """Write curve.csv, density.csv and report.json; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    dg = report.pop("_density_grid", None)
    if report.get("rows"):
        param_names = report["param_names"]
        path = out / "curve.csv"
        with path.open("w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(
                ["percentile", "z", "p_f", "std_err_pf"]
                + [f"grad_{name}" for name in param_names]
                + ["grad_norm_sq", "tr_fy", "tr_fx"]
            )
            for row in report["rows"]:
                w.writerow(
                    [_fmt(row["percentile"]), _fmt(row["z"]), _fmt(row["p_f"]), _fmt(row["std_err_pf"])]
                    + [_fmt(v) for v in row["gradient"]]
                    + [_fmt(row["grad_norm_sq"]), _fmt(report["tr_fy"]), _fmt(report["tr_fx"])]
                )
        written.append(str(path))

    if dg is not None:
        param_names = report["param_names"]
        path = out / "density.csv"
        # one row per grid point in C order; each axis value is formatted once
        axes = ["y"] if dg.ndim == 1 else [f"y{i + 1}" for i in range(dg.ndim)]
        index = np.meshgrid(*[np.arange(ax.size) for ax in dg.axes], indexing="ij")
        columns = [
            [labels[i] for i in idx.ravel().tolist()]
            for labels, idx in zip(map(_fmt_all, dg.axes), index)
        ]
        columns += [_fmt_all(v) for v in (dg.density, *dg.density_grad)]
        with path.open("w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(axes + ["density"] + [f"d_density_{nm}" for nm in param_names])
            w.writerows(zip(*columns))
        written.append(str(path))

    path = out / "report.json"
    with path.open("w", newline="") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(str(path))
    return written


def run(config: RunConfig) -> tuple[dict, int]:
    """Run a case, write outputs if configured, return (report, exit code)."""
    report = run_case(config)
    if config.out_dir:
        write_outputs(report, config.out_dir)
    else:
        report.pop("_density_grid", None)
    return report, (0 if report["all_bounds_satisfied"] else 1)


# ---------------------------------------------------------------------------
# reduced-scale invariant suite


def verify(
    n_samples: int = 20000,
    seed: int = 1,
    cases: tuple[str, ...] = ("identity", "sho"),
    _negate_scores: bool = False,
    log: Callable[[str], None] = print,
) -> int:
    """Run the invariant suite at reduced sample count; returns an exit code.

    The closed-form tolerances scale with 1/sqrt(N) from their full-scale
    values at N = 1e5.  ``_negate_scores`` is a fault-injection hook used by
    the test suite to prove the gradient/finite-difference check can fail.
    """
    from .distributions import ScoredSampleBatch

    failures = []

    def check(name: str, ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        log(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
        if not ok:
            failures.append(name)

    tol_scale = math.sqrt(1e5 / n_samples)
    rng = np.random.default_rng(seed)

    for case_name in cases:
        cfg = RunConfig(case=case_name, n_samples=n_samples, seed=seed, percentiles=list(range(5, 100, 5)))
        case = build_case(cfg)
        batch = sample(case.model, n_samples, seed)
        if _negate_scores:
            batch = ScoredSampleBatch(draws=batch.draws, scores=-batch.scores, seed=seed)
        outputs = evaluate_outputs(case.h, batch.draws)
        y = outputs / case.scale(outputs)
        gvals = case.g(y)

        # zero-mean score, self-normalised to 5 standard errors
        mean = batch.scores.mean(axis=0)
        se = batch.scores.std(axis=0, ddof=1) / math.sqrt(n_samples)
        check(f"{case_name}: zero-mean scores", bool(np.all(np.abs(mean) <= 5.0 * se)))

        # bound chain
        dg = estimate_output_density(y, batch.scores)
        f_y = estimate_output_fim(dg)
        f_x = case.model.fim()
        curve = sensitivity_curve(case.h, case.g, cfg.percentiles, batch, case.direction, outputs=y)
        norms = np.array([r.grad_norm_sq for r in curve])
        check(
            f"{case_name}: sensitivity chain",
            bool(np.all(norms <= f_y.trace) and f_y.trace <= f_x.trace),
            f"max norm^2 {norms.max():.3g} <= tr_Fy {f_y.trace:.5g} <= tr_Fx {f_x.trace:.5g}",
        )

        # gradient vs likelihood-ratio finite differences, as in run_case
        max_rel = _fd_check(case, batch, gvals, curve, cfg.percentiles, cfg.fd_rel_step)["max_rel_err"]
        check(f"{case_name}: gradient vs finite differences", max_rel < 0.02, f"max rel err {max_rel:.2e}")

        if case_name == "identity":
            zs = np.array([r.z for r in curve])
            pfs = np.array([r.p_f for r in curve])
            exact = identity_analytic(1.0, 0.2, zs).norm_sq
            mask = (pfs >= 0.05) & (pfs <= 0.95)
            rel = np.abs(norms[mask] - exact[mask]) / exact[mask]
            tol = 0.05 * tol_scale
            check("identity: norm^2 matches closed form", bool(rel.max() < tol), f"max rel {rel.max():.3f} < {tol:.3f}")

            db = cfg.perturbation_scale * case.model.param_scales()
            batch_p = sample(case.model.shifted(db), n_samples, seed)
            dg_p = estimate_output_density(
                batch_p.draws[:, 0], batch_p.scores, bandwidth=dg.bandwidth, axes=dg.axes
            )
            kl_f = estimate_kl(dg, dg_p)
            kl_r = estimate_kl(dg_p, dg)
            err = max(
                kl_quadratic_consistency(f_x, db, kl_f), kl_quadratic_consistency(f_x, db, kl_r)
            )
            check("identity: KL quadratic consistency", err < 0.05 * tol_scale, f"max rel {err:.3f}")

    # score formulas against log-density differences
    from .distributions import MarginalSpec

    max_rel = 0.0
    for spec_m in (normal(1.0, 0.2), normal(0.0, 1.0), lognormal(24.85, 0.47), lognormal(0.0, 1.0)):
        x = spec_m.ppf(rng.uniform(0.05, 0.95, size=64))
        s = spec_m.score(x)
        for j, name in enumerate(("mu", "sigma")):
            hstep = 1e-6 * max(1.0, abs(getattr(spec_m, name)))
            hi = MarginalSpec(
                spec_m.family,
                spec_m.mu + (hstep if j == 0 else 0.0),
                spec_m.sigma + (hstep if j == 1 else 0.0),
            )
            lo = MarginalSpec(
                spec_m.family,
                spec_m.mu - (hstep if j == 0 else 0.0),
                spec_m.sigma - (hstep if j == 1 else 0.0),
            )
            fd = (hi.logpdf(x) - lo.logpdf(x)) / (2.0 * hstep)
            rel = np.abs(s[:, j] - fd) / np.maximum(np.abs(fd), 1e-12)
            max_rel = max(max_rel, float(rel.max()))
    check("scores match log-density finite differences", max_rel < 1e-6, f"max rel {max_rel:.2e}")

    # theorem property suites
    ok = True
    for _ in range(1000):
        k = int(rng.integers(2, 12))
        u = rng.uniform(0.0, 10.0, size=k)
        v = rng.uniform(0.1, 10.0, size=k)
        lhs, rhs, sat = titu(u, v)
        ok &= sat
    check("Titu inequality (1000 random instances)", ok)

    ok = True
    for _ in range(1000):
        k = int(rng.integers(2, 11))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k)) + 1e-9
        q = q / q.sum()
        ok &= pinsker_check(p, q).satisfied
    check("Pinsker inequality (1000 random simplex pairs)", ok)

    oracle_report = _run_discrete_oracle(RunConfig(case="discrete-oracle", seed=seed))
    check(
        "discrete simplex oracle (exhaustive binomial)",
        oracle_report["violations"] == 0,
        f"{oracle_report['instances']} instances",
    )

    if failures:
        log(f"{len(failures)} verification check(s) failed: {failures}")
        return 1
    log("all verification checks passed")
    return 0
