"""Configuration-driven case studies with bound certification and file outputs.

A run draws one scored sample batch, sweeps percentile thresholds, and
certifies every inequality: the sensitivity chain at each threshold, the
information-processing trace ordering, the perturbation bound for a set of
parameter shifts, and the KL/quadratic-form consistency.  The shifted runs
are paired with the base run on common random numbers: each shifted
model maps the base batch's standard normals to its own draws, bit for bit
the draws a fresh :func:`~probsens.distributions.sample` of it would give,
and no shifted batch is scored: the KL block reads one batch's density
alone.  Each N-length array of the base run is released after its last
reader: the draws, the performance values and their sort order after the
threshold sweep and the finite-difference check, which run back to back;
the outputs and the scores after the base density.  The perturbation loop
reads the standard normals alone.  Results go to ``curve.csv``,
``density.csv`` and ``report.json``; numbers are written in shortest
round-trip decimal form so identical configurations produce byte-identical
files under any worker count.  Both CSV files go through one writer that
formats and writes their rows block by block, so its memory does not grow
with the density grid; the bytes are those of formatting every row at once.
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, fields, replace
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
)
from .criteria import evaluate, theorem_suites
from .distributions import InputModel, _integer as _index, normal, sample
from .errors import ConfigError
from .mclr import (
    _sort_order,
    _threshold_sums,
    estimate_gradient_fd,
    estimate_kl,
    estimate_output_density,
    estimate_output_fim,
    evaluate_outputs,
    sensitivity_curve,
)
from .models import beam_rms_ensemble, sho_response
from .models.beam import BeamConfig

CASES = ("identity", "sho", "beam", "discrete-oracle")

_ORACLE_DEFAULTS = {"n_trials": 5, "thetas": (0.2, 0.5, 0.8), "dtheta": 1e-3}
# every one of the 2^(n_trials + 1) failure sets is enumerated at once
_MAX_ORACLE_TRIALS = 16
# relative step of the likelihood-ratio finite differences that check the gradients
_FD_REL_STEP = 1e-2


def _integer(name: str, value) -> int:
    return _index(name, value, ConfigError)


# JSON true and false load as bools, which numbers.Real takes for 1 and 0
def _real(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name}: {value!r} is not a number")
    return float(value)


def _list(name: str, values, item=_real) -> list:
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise ConfigError(f"{name} must be a list, got {values!r}")
    return [item(name, v) for v in values]


# how each oracle override is converted
_ORACLE_KEYS = {"n_trials": _integer, "thetas": _list, "dtheta": _real}


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
    oracle: dict = field(default_factory=dict)
    out_dir: str | None = None
    workers: int = 1

    def __post_init__(self):
        if self.case not in CASES:
            raise ConfigError(f"unknown case {self.case!r}; expected one of {CASES}")
        if self.n_samples is None:
            self.n_samples = 20000 if self.case == "beam" else 100000
        for name in ("n_samples", "workers", "seed"):
            setattr(self, name, _integer(name, getattr(self, name)))
        self.perturbation_scale = _real("perturbation_scale", self.perturbation_scale)
        self.percentiles = _list("percentiles", self.percentiles)
        if self.bandwidth is not None:
            self.bandwidth = _list("bandwidth", self.bandwidth)
            if not self.bandwidth or not all(math.isfinite(h) and h > 0.0 for h in self.bandwidth):
                raise ConfigError(f"bandwidth must be a non-empty list of positive finite widths, got {self.bandwidth}")
        if self.perturbations is not None:
            self.perturbations = _list("perturbations", self.perturbations, item=_list)
        if self.case != "discrete-oracle" and self.n_samples < 1000:
            raise ConfigError("n_samples must be >= 1000 (density estimation needs it)")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not 0.0 < self.perturbation_scale:
            raise ConfigError("perturbation_scale must be positive")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        if not self.percentiles:
            raise ConfigError("percentiles must not be empty")
        if any(not 0.0 < p < 100.0 for p in self.percentiles):
            raise ConfigError("percentiles must lie strictly inside (0, 100)")
        if not isinstance(self.oracle, dict):
            raise ConfigError(f"oracle must be an object, got {self.oracle!r}")
        unknown = set(self.oracle) - set(_ORACLE_KEYS)
        if unknown:
            raise ConfigError(f"unknown oracle keys {sorted(unknown)}; allowed {tuple(_ORACLE_KEYS)}")
        self.oracle = {k: _ORACLE_KEYS[k](f"oracle.{k}", v) for k, v in self.oracle.items()}
        oracle = {**_ORACLE_DEFAULTS, **self.oracle}
        if not 0 <= oracle["n_trials"] <= _MAX_ORACLE_TRIALS:
            raise ConfigError(f"oracle.n_trials must be in [0, {_MAX_ORACLE_TRIALS}], got {oracle['n_trials']}")
        if not oracle["thetas"] or any(not 0.0 < t < 1.0 for t in oracle["thetas"]):
            raise ConfigError(f"oracle.thetas must be a non-empty list inside (0, 1), got {oracle['thetas']}")
        if not math.isfinite(oracle["dtheta"]) or oracle["dtheta"] == 0.0:
            raise ConfigError(f"oracle.dtheta must be finite and nonzero, got {oracle['dtheta']}")

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


@dataclass
class CaseStudy:
    """Everything the runner needs to execute one case end to end."""

    name: str
    model: InputModel
    h: Callable[[np.ndarray], np.ndarray]
    # performance value per row of the normalised outputs
    g: Callable[[np.ndarray], np.ndarray]
    direction: str
    n_outputs: int = 1
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
        beam_cfg = BeamConfig()
        return CaseStudy(
            name="beam",
            model=InputModel((beam_cfg.e_spec, beam_cfg.rho_spec)),
            h=lambda x: beam_rms_ensemble(x[:, 0], x[:, 1], beam_cfg),
            # squared sum of the peak responses, each normalised by its ensemble maximum
            g=lambda y: y[:, 0] ** 2 + y[:, 1] ** 2,
            direction="above",
            n_outputs=2,
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
    if config.bandwidth is not None and len(config.bandwidth) not in (1, case.n_outputs):
        raise ConfigError(
            f"bandwidth needs one width or one per output dimension ({case.n_outputs}), got {len(config.bandwidth)}"
        )
    model = case.model
    n = config.n_samples
    if config.perturbations is not None:
        dbs = [np.asarray(v, dtype=float) for v in config.perturbations]
    else:
        dbs = _auto_perturbations(model, config.perturbation_scale)
    # a perturbation that gives no valid model is refused before any sampling
    shifted_models = [model.shifted(db) for db in dbs]

    batch = sample(model, n, config.seed)
    # the zero-mean score check of the criteria table, column by column: an
    # axis-0 reduction of the row-major scores takes ten times as long
    score_moments = {
        "mean": [float(c.mean()) for c in batch.scores.T],
        "std_err": [float(c.std(ddof=1)) / math.sqrt(n) for c in batch.scores.T],
    }
    # evaluate_outputs returns a fresh array: normalise it in place
    y = evaluate_outputs(case.h, batch.draws, workers=config.workers)
    scale = case.scale(y)
    y /= scale
    gvals = case.g(y)

    # threshold sweep; one stable order of g (_sort_order) serves the curve and the FD check
    order = _sort_order(gvals)
    curve = sensitivity_curve(gvals, batch.scores, config.percentiles, case.direction, _order=order)
    # gradient vs likelihood-ratio finite differences at every threshold
    fd_check = _fd_check(case, batch, gvals, curve, config.percentiles, _FD_REL_STEP, order)
    # the density reads the scores and the perturbation loop the normals;
    # nothing else of the batch is read again
    scores, normals = batch.scores, batch.normals
    del batch, gvals, order

    # output density, output/input information
    dg = estimate_output_density(y, scores, bandwidth=config.bandwidth)
    del y, scores
    f_y = estimate_output_fim(dg)
    f_x = model.fim()

    # every quadratic form before any shifted batch is mapped: a perturbation
    # whose form is not finite raises here
    quads = [(f_x.quad_form(db), f_y.quad_form(db)) for db in dbs]

    chain = check_sensitivity_bound(curve, f_y)
    chain_ok = bool(np.all(chain.satisfied))
    columns = {
        "percentile": config.percentiles,
        "z": curve.z.tolist(),
        "p_f": curve.p_f.tolist(),
        "std_err_pf": curve.std_err_pf.tolist(),
        "gradient": curve.gradient.tolist(),
        "grad_norm_sq": curve.grad_norm_sq.tolist(),
        "norm_le_tr_fy": chain.satisfied.tolist(),
        "margin": chain.margin.tolist(),
    }
    rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
    info_rep = info_processing_check(f_y, f_x)

    # perturbation bound on paired runs: each shifted model maps the base
    # batch's standard normals, so the pairs share their random numbers
    perturbation_reports = []
    all_pert_ok = True
    kl_block = None
    for db, shifted, (quad_fx, quad_fy) in zip(dbs, shifted_models, quads):
        draws_p = shifted.from_standard(normals)
        y_p = evaluate_outputs(case.h, draws_p, workers=config.workers)
        y_p /= scale
        pf_p = _threshold_sums(case.g(y_p), curve.z, case.direction)[0] / n
        rx = check_perturbation_bound(curve.p_f, pf_p, db, f_x)
        ry = check_perturbation_bound(curve.p_f, pf_p, db, f_y)
        viol_x = int(np.count_nonzero(~rx.satisfied))
        viol_y = int(np.count_nonzero(~ry.satisfied))
        all_pert_ok &= viol_x == 0 and viol_y == 0
        perturbation_reports.append(
            {
                "db": [float(v) for v in db],
                "quad_fx": quad_fx,
                "quad_fy": quad_fy,
                "delta_h_fx": 0.5 * quad_fx,
                "max_dpf_sq": float(np.max((pf_p - curve.p_f) ** 2)),
                "violations_fx": viol_x,
                "violations_fy": viol_y,
                "worst_margin": float(min(rx.margin.min(), ry.margin.min())),
            }
        )
        # reuse the all-positive perturbation pair for the KL consistency block
        if kl_block is None and np.all(db > 0):
            # estimate_kl reads the density alone: bin no score column
            dg_p = estimate_output_density(y_p, np.empty((n, 0)), bandwidth=dg.bandwidth, axes=dg.axes)
            kl_fwd = estimate_kl(dg, dg_p)
            kl_rev = estimate_kl(dg_p, dg)
            kl_block = {
                "db": [float(v) for v in db],
                "kl_forward": kl_fwd,
                "kl_reverse": kl_rev,
                "half_quad_fy": 0.5 * quad_fy,
                "half_quad_fx": 0.5 * quad_fx,
                "rel_err_forward_fy": kl_quadratic_consistency(f_y, db, kl_fwd),
                "rel_err_reverse_fy": kl_quadratic_consistency(f_y, db, kl_rev),
                "rel_err_forward_fx": kl_quadratic_consistency(f_x, db, kl_fwd),
                "rel_err_reverse_fx": kl_quadratic_consistency(f_x, db, kl_rev),
            }

    all_ok = bool(chain_ok and info_rep.satisfied and all_pert_ok)
    param_names = list(model.param_names)
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
        # in memory only: stripped before serialisation (_pop_private)
        "_density_grid": dg,
        "_scores": score_moments,
    }


def _fd_check(case, batch, gvals, curve, percentiles, rel_step, order=None) -> dict:
    """Compare the curve's score-weighted gradients against likelihood-ratio
    central differences on the same draws, at every threshold.

    Components with |value| <= 0.1 are skipped (relative error of a
    near-zero quantity is uninformative).
    """
    zs, grads = curve.z, curve.gradient
    fds = estimate_gradient_fd(gvals, zs, case.model, batch, case.direction, rel_step=rel_step, _order=order)
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
    """Every failure set of the binomial family, one oracle call per theta."""
    oracle = {**_ORACLE_DEFAULTS, **config.oracle}
    n_trials, thetas, dtheta = oracle["n_trials"], list(oracle["thetas"]), oracle["dtheta"]
    cells = n_trials + 1
    # row m is the failure set of the cells whose bits are set in m
    sets = (np.arange(2**cells)[:, None] >> np.arange(cells)) & 1
    fam = binomial_family(n_trials)
    violations, worst_margin = 0, math.inf
    for theta in thetas:
        res = discrete_simplex_oracle(fam, [theta], [dtheta], sets)
        violations += int(np.count_nonzero(~(res.eq2_satisfied & res.geometric_satisfied)))
        worst_margin = min(worst_margin, float(res.eq2_margin.min()))
    return {
        "case": "discrete-oracle",
        "all_bounds_satisfied": violations == 0,
        "n_trials": n_trials,
        "thetas": thetas,
        "dtheta": dtheta,
        "instances": len(thetas) * len(sets),
        "violations": violations,
        "worst_margin": worst_margin,
        "provenance": {
            "package_version": _VERSION,
            "seed": config.seed,
            "config": config.provenance_dict(),
        },
    }


def _fmt_all(values) -> list[str]:
    """The shortest decimal that round-trips to the same float, for every
    element in C order."""
    return list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


# rows formatted per write: the writer holds one block's strings, whatever the table's length
_BLOCK_ROWS = 4096


def _write_csv(path: Path, header: list[str], table: np.ndarray, labels: tuple[list[str], ...] = ()) -> None:
    """One header line, then one line per row of the float ``table``.

    ``labels`` holds the formatted values of each axis of a grid; row r of
    ``table`` is grid point r in C order, and its line starts with that
    point's axis values.  Rows are formatted and written in blocks of
    ``_BLOCK_ROWS``, each read through a slice of ``table``, so the writer's
    memory does not grow with the table.  Every field is a float repr or a
    header name: nothing needs quoting.
    """
    shape = tuple(map(len, labels))
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start : start + _BLOCK_ROWS]
            index = np.unravel_index(np.arange(start, start + len(block)), shape) if labels else ()
            columns = [[axis[i] for i in idx.tolist()] for axis, idx in zip(labels, index)]
            columns += [_fmt_all(column) for column in block.T]
            fh.writelines(f"{','.join(row)}\n" for row in zip(*columns))


def write_outputs(report: dict, out_dir: str) -> list[str]:
    """Write curve.csv, density.csv and report.json; returns the paths.

    Both CSV files go through :func:`_write_csv`, block by block, so
    writing the density grid holds one block's strings and not the whole
    file's; the bytes are those of formatting every row at once.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    dg = _pop_private(report).get("_density_grid")
    param_names = report.get("param_names")
    rows = report.get("rows")
    if rows:
        path = out / "curve.csv"
        keys = ("percentile", "z", "p_f", "std_err_pf", "gradient", "grad_norm_sq")
        table = np.array([np.hstack([*(row[k] for k in keys), report["tr_fy"], report["tr_fx"]]) for row in rows])
        grads = [f"grad_{name}" for name in param_names]
        _write_csv(path, ["percentile", "z", "p_f", "std_err_pf", *grads, "grad_norm_sq", "tr_fy", "tr_fx"], table)
        written.append(str(path))

    if dg is not None:
        path = out / "density.csv"
        axes = ["y"] if dg.ndim == 1 else [f"y{i + 1}" for i in range(dg.ndim)]
        table = np.column_stack([v.ravel() for v in (dg.density, *dg.density_grad)])
        header = axes + ["density"] + [f"d_density_{nm}" for nm in param_names]
        _write_csv(path, header, table, labels=tuple(map(_fmt_all, dg.axes)))
        written.append(str(path))

    path = out / "report.json"
    with path.open("w", newline="") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(str(path))
    return written


def _pop_private(report: dict) -> dict:
    """Remove the report's in-memory entries, whose keys start with ``_``, and
    return them."""
    return {key: report.pop(key) for key in [key for key in report if key.startswith("_")]}


def run(config: RunConfig) -> tuple[dict, int]:
    """Run a case, write outputs if configured, return (report, exit code)."""
    report = run_case(config)
    if config.out_dir:
        write_outputs(report, config.out_dir)
    else:
        _pop_private(report)
    return report, (0 if report["all_bounds_satisfied"] else 1)


def verify(config: RunConfig, cases: tuple[str, ...] = ("identity", "sho")) -> int:
    """Run the invariant suite at the config's sample count; returns an exit code.

    Each case, and the discrete oracle, is one :func:`run_case` on ``config``
    with its case replaced, judged by the :mod:`probsens.criteria` table,
    whose Monte-Carlo tolerances widen by sqrt(1e5 / N); the theorem suites
    follow at the config's seed.  One line is printed per outcome.
    """
    outcomes = [
        outcome._replace(name=f"{case}: {outcome.name}")
        for case in dict.fromkeys((*cases, "discrete-oracle"))
        for outcome in evaluate(run_case(replace(config, case=case)))
    ]
    outcomes += theorem_suites(np.random.default_rng(config.seed))
    for name, value, tol, ok in outcomes:
        print(f"[{'PASS' if ok else 'FAIL'}] {name} ({value:.3g}, tolerance {tol:.3g})")
    failures = [o.name for o in outcomes if not o.ok]
    if failures:
        print(f"{len(failures)} verification check(s) failed: {failures}")
        return 1
    print("all verification checks passed")
    return 0
