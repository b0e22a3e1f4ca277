"""Configuration-driven case studies with bound certification and file outputs.

A run draws one scored sample batch, sweeps percentile thresholds, and
certifies every inequality: the sensitivity chain at each threshold, the
information-processing trace ordering, the perturbation bound for the
fixed set of parameter shifts (:func:`_auto_perturbations`), and the
KL/quadratic-form consistency.  The shifted runs are paired with the base
run on common random numbers: each shifted model maps the base batch's
standard normals to its own draws, bit for bit the draws a fresh
:func:`~probsens.distributions.sample` of it would give, and no shifted
batch is scored: the KL block reads one batch's density alone.  Each
N-length array of the base run is released after its last reader: the
draws, the performance values and their sort order after the threshold
sweep and the finite-difference check, which run back to back; the outputs
and the scores after the base density.  The perturbation loop reads the
standard normals alone, and each shifted model's draws are released once
mapped, before its threshold counts and the KL density.  Every N-length
array is written where it is kept (:func:`~probsens.distributions.sample`,
:func:`~probsens.mclr.evaluate_outputs`), since a fresh ``probsens run``
process pays a page fault for each new page it writes.

A case runs in two stages, in the one order of :func:`_run`.  The base
stage (:func:`_base_stage`) samples, maps, sweeps and FD-checks the base
batch, then forms its density grid, both informations and the chain
check: everything the CSV files read.  The perturbation stage
(:func:`_perturbation_stage`) maps the shifted batches and adds the
perturbation bounds, the KL block and the grid sums.  With ``out_dir``
set, a forked writer process writes ``curve.csv`` and ``density.csv``
while this process runs the perturbation stage, and they move into place
with ``report.json`` only when the run completes.  Numbers are written in
shortest round-trip decimal form so identical configurations produce
byte-identical files.  Both CSV files go through one writer that reads a
sequence of value columns and formats and writes their rows block by
block.  Every CSV field is what
``repr(float)`` prints: the shortest decimal that reads back as the
same double, found for a whole block at once by the Schubfach algorithm
(R. Giulietti, "The Schubfach way to render doubles", 2020) in
:mod:`probsens._floatfmt`, positional when ``-4 < decpt <= 16`` for the
value ``0.d1d2... * 10**decpt`` and with an exponent of at least two digits
otherwise; NaN, infinities and subnormals take ``repr`` itself.  The
density file's columns are raveled views of the density grid and its
derivative grids, so no table is stacked from them and the writer's memory
does not grow with the grid; the bytes are those of formatting every row at
once.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import numbers
import os
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__ as _VERSION
from . import _floatfmt
from .bounds import (
    binomial_family,
    check_perturbation_bound,
    check_sensitivity_bound,
    discrete_simplex_oracle,
    info_processing_check,
    kl_quadratic_consistency,
)
from .criteria import evaluate, theorem_suites
from .distributions import InputModel, _integer as _index, _seed, normal, sample
from .errors import ConfigError
from .fisher import FisherMatrix
from .mclr import (
    _FD_REL_STEP,
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

# the oracle's trial count unless the config sets one, its parameter points and its step
_ORACLE_TRIALS, _ORACLE_THETAS, _ORACLE_DTHETA = 5, (0.2, 0.5, 0.8), 1e-3
# every one of the 2^(n_trials + 1) failure sets is enumerated at once
_MAX_ORACLE_TRIALS = 16


def _integer(name: str, value) -> int:
    return _index(name, value, ConfigError)


# JSON true and false load as bools, which numbers.Real takes for 1 and 0
def _real(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name}: {value!r} is not a number")
    return float(value)


def _list(name: str, values) -> list:
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise ConfigError(f"{name} must be a list, got {values!r}")
    return [_real(name, v) for v in values]


@dataclass
class RunConfig:
    """Validated run configuration; unknown keys are rejected."""

    case: str = "identity"
    n_samples: int | None = None
    seed: int = 1
    percentiles: list = field(default_factory=lambda: list(range(1, 100)))
    perturbation_scale: float = 0.01
    bandwidth: list | None = None
    oracle: dict = field(default_factory=dict)
    out_dir: str | None = None

    def __post_init__(self):
        if self.case not in CASES:
            raise ConfigError(f"unknown case {self.case!r}; expected one of {CASES}")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a directory path, got {self.out_dir!r}")
        if self.n_samples is None:
            self.n_samples = 20000 if self.case == "beam" else 100000
        self.n_samples = _integer("n_samples", self.n_samples)
        self.seed = _seed(self.seed, ConfigError)
        self.perturbation_scale = _real("perturbation_scale", self.perturbation_scale)
        self.percentiles = _list("percentiles", self.percentiles)
        if self.bandwidth is not None:
            self.bandwidth = _list("bandwidth", self.bandwidth)
            if not self.bandwidth or not all(math.isfinite(h) and h > 0.0 for h in self.bandwidth):
                raise ConfigError(f"bandwidth must be a non-empty list of positive finite widths, got {self.bandwidth}")
        if self.case != "discrete-oracle" and self.n_samples < 1000:
            raise ConfigError("n_samples must be >= 1000 (density estimation needs it)")
        if not 0.0 < self.perturbation_scale:
            raise ConfigError("perturbation_scale must be positive")
        if not self.percentiles:
            raise ConfigError("percentiles must not be empty")
        if any(not 0.0 < p < 100.0 for p in self.percentiles):
            raise ConfigError("percentiles must lie strictly inside (0, 100)")
        if not isinstance(self.oracle, dict):
            raise ConfigError(f"oracle must be an object, got {self.oracle!r}")
        unknown = set(self.oracle) - {"n_trials"}
        if unknown:
            raise ConfigError(f"unknown oracle keys {sorted(unknown)}; allowed ('n_trials',)")
        if self.oracle:
            n_trials = _integer("oracle.n_trials", self.oracle["n_trials"])
            if not 0 <= n_trials <= _MAX_ORACLE_TRIALS:
                raise ConfigError(f"oracle.n_trials must be in [0, {_MAX_ORACLE_TRIALS}], got {n_trials}")
            self.oracle = {"n_trials": n_trials}

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
        """Config echo without the output directory, which cannot change any
        computed value: reports are byte-identical wherever they are written."""
        d = self.to_dict()
        d.pop("out_dir")
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
    """Per-parameter +scale*sigma_j and -scale*sigma_j steps, then two mixed
    vectors: every step positive, and the signs alternating."""
    scales = scale * model.param_scales()
    # np.diag(-scales), not -np.diag(scales): a zero entry stays +0.0
    steps = [db for pair in zip(np.diag(scales), np.diag(-scales)) for db in pair]
    return steps + [scales, scales * np.resize([1.0, -1.0], scales.size)]


def run_case(config: RunConfig) -> dict:
    """The full report of one case study, in-memory ``_`` entries included:
    :func:`_run` with ``out_dir`` unset, so it writes no file."""
    return _run(replace(config, out_dir=None))


def _run(config: RunConfig) -> dict:
    """The stages in their one order: the oracle or the base stage, then the
    output set (:func:`_output_set`) and the perturbation stage."""
    oracle = config.case == "discrete-oracle"
    report, base = (_run_discrete_oracle(config), None) if oracle else _base_stage(config)
    with _output_set(report, config.out_dir) as commit:
        commit(report if oracle else _perturbation_stage(config, report, base))
    return report


class _Base(NamedTuple):
    """What the perturbation stage reads of the base stage."""

    case: CaseStudy
    # (db, shifted model, (db' F_x db, db' F_y db)) per perturbation
    shifts: list
    normals: np.ndarray
    scale: np.ndarray | float
    f_y: FisherMatrix
    f_x: FisherMatrix
    bounds_ok: bool


def _base_stage(config: RunConfig) -> tuple[dict, _Base]:
    """Sample, map, sweep and FD-check the base batch, then its density,
    the two informations and the chain check.  Returns the report's first
    part, every value the CSV files read among them, and what the
    perturbation stage reads."""
    case = build_case(config)
    if config.bandwidth is not None and len(config.bandwidth) not in (1, case.n_outputs):
        raise ConfigError(
            f"bandwidth needs one width or one per output dimension ({case.n_outputs}), got {len(config.bandwidth)}"
        )
    model = case.model
    n = config.n_samples
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
    y = evaluate_outputs(case.h, batch.draws)
    scale = case.scale(y)
    y /= scale
    gvals = case.g(y)

    # threshold sweep; one stable order of g (_sort_order) serves the curve and the FD check
    order = _sort_order(gvals)
    curve = sensitivity_curve(gvals, batch.scores, config.percentiles, case.direction, _order=order)
    # gradient vs likelihood-ratio finite differences at every threshold
    fd_check = _fd_check(case, batch, gvals, curve, config.percentiles, order)
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
    info_rep = info_processing_check(f_y, f_x)
    param_names = list(model.param_names)
    report = {
        "case": case.name,
        "tr_fx": f_x.trace,
        "tr_fy": f_y.trace,
        "param_names": param_names,
        "direction": case.direction,
        "rows": [dict(zip(columns, row)) for row in zip(*columns.values())],
        "info_processing": info_rep.to_dict(),
        "gradient_fd_check": fd_check,
        "provenance": {
            "package_version": _VERSION,
            "seed": config.seed,
            "n_samples": config.n_samples,
            "config": config.provenance_dict(),
        },
        # in memory only: stripped before serialisation (_pop_private)
        "_curve": curve,
        "_density_grid": dg,
        "_scores": score_moments,
    }
    bounds_ok = bool(np.all(chain.satisfied) and info_rep.satisfied)
    shifts = list(zip(dbs, shifted_models, quads))
    return report, _Base(case, shifts, normals, scale, f_y, f_x, bounds_ok)


def _perturbation_stage(config: RunConfig, report: dict, base: _Base) -> dict:
    """The perturbation bounds and the KL block of the base stage's report;
    completes the report and returns it."""
    case, f_y, f_x = base.case, base.f_y, base.f_x
    curve, dg = report["_curve"], report["_density_grid"]
    n = config.n_samples
    # perturbation bound on paired runs: each shifted model maps the base
    # batch's standard normals, so the pairs share their random numbers
    perturbation_reports = []
    all_pert_ok = True
    kl_block = None
    for db, shifted, (quad_fx, quad_fy) in base.shifts:
        # the shifted draws are released once mapped, before the sweep and the KL density
        y_p = evaluate_outputs(case.h, shifted.from_standard(base.normals))
        y_p /= base.scale
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

    report["all_bounds_satisfied"] = bool(base.bounds_ok and all_pert_ok)
    report["perturbations"] = perturbation_reports
    report["kl_consistency"] = kl_block
    # the grid sums come last, where the loop's freed memory serves their
    # temporaries: before the loop they raised the beam run's resident mark
    report["density"] = {
        "bandwidth": [float(v) for v in dg.bandwidth],
        "mass": dg.mass(),
        "grad_mass": [dg.grad_mass(j) for j in range(len(report["param_names"]))],
    }
    return report


def _fd_check(case, batch, gvals, curve, percentiles, order=None) -> dict:
    """Compare the curve's score-weighted gradients against likelihood-ratio
    central differences on the same draws, at every threshold.

    Components with |value| <= 0.1 are skipped (relative error of a
    near-zero quantity is uninformative).
    """
    zs, grads = curve.z, curve.gradient
    fds = estimate_gradient_fd(gvals, zs, case.model, batch, case.direction, _order=order)
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
    return {"rel_step": _FD_REL_STEP, "max_rel_err": float(rels.max(initial=0.0)), "thresholds": detail}


def _run_discrete_oracle(config: RunConfig) -> dict:
    """Every failure set of the binomial family, one oracle call per theta."""
    n_trials = config.oracle.get("n_trials", _ORACLE_TRIALS)
    cells = n_trials + 1
    # row m is the failure set of the cells whose bits are set in m
    sets = (np.arange(2**cells)[:, None] >> np.arange(cells)) & 1
    fam = binomial_family(n_trials)
    violations, worst_margin = 0, math.inf
    for theta in _ORACLE_THETAS:
        res = discrete_simplex_oracle(fam, [theta], [_ORACLE_DTHETA], sets)
        violations += int(np.count_nonzero(~(res.eq2_satisfied & res.geometric_satisfied)))
        worst_margin = min(worst_margin, float(res.eq2_margin.min()))
    return {
        "case": "discrete-oracle",
        "all_bounds_satisfied": violations == 0,
        "n_trials": n_trials,
        "thetas": list(_ORACLE_THETAS),
        "dtheta": _ORACLE_DTHETA,
        "instances": len(_ORACLE_THETAS) * len(sets),
        "violations": violations,
        "worst_margin": worst_margin,
        "provenance": {
            "package_version": _VERSION,
            "seed": config.seed,
            "config": config.provenance_dict(),
        },
    }


# rows formatted per write: the writer holds one block's bytes, whatever the
# table's length; 2048-row blocks raised the beam run's resident high-water mark
_BLOCK_ROWS = 1024
# the longest failure message a writer process sends back: one pipe write
# of at most PIPE_BUF bytes never blocks on an empty pipe
_MESSAGE_BYTES = 512


def _write_csv(path: Path, header: list[str], columns, labels: tuple[np.ndarray, ...] = ()) -> None:
    """One header line, then one line per row of ``columns``, a sequence
    of equal-length 1-D float arrays, one per value column.

    ``labels`` holds the values of each axis of a grid; row r is grid point
    r in C order, and its line starts with that point's axis values.  Every
    number is written as ``repr(float)`` writes it, by the vectorised
    shortest round-trip formatter of :mod:`probsens._floatfmt` (the
    Schubfach algorithm, R. Giulietti 2020): positional when its decimal
    point position ``decpt`` satisfies ``-4 < decpt <= 16``, otherwise
    ``d.ddde±XX`` with at least two exponent digits; NaN, infinities and
    subnormals take ``repr`` itself.  Each axis is formatted once, and a
    block's label fields are copied from runs of them, with no index per
    row (:func:`probsens._floatfmt.grid`); rows are formatted and written
    in blocks of ``_BLOCK_ROWS``, each read through a slice of every column
    and written with one ``write``, so the writer's memory does not grow
    with the table and no table is stacked from the columns.  Every field
    is a number or a header name: nothing needs quoting.
    """
    grid = _floatfmt.grid(labels, _BLOCK_ROWS)
    with path.open("wb") as fh:
        fh.write(f"{','.join(header)}\n".encode())
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            values = np.stack([column[start : start + _BLOCK_ROWS] for column in columns], axis=1)
            fh.write(_floatfmt.lines(values, grid, start))


def _tables(report: dict) -> dict[str, tuple]:
    """The CSV files of a report, by name: header, value columns and grid
    axes for :func:`_write_csv`.

    curve.csv has one line per threshold, read from the curve's columns
    and the two traces; density.csv one line per grid point, its value
    columns raveled views of the density grid and of its derivative grids.
    Each file is there when the report holds its source.
    """
    tables = {}
    names = report.get("param_names")
    curve, dg = report.get("_curve"), report.get("_density_grid")
    if curve is not None:
        grads = [f"grad_{name}" for name in names]
        header = ["percentile", "z", "p_f", "std_err_pf", *grads, "grad_norm_sq", "tr_fy", "tr_fx"]
        percentiles = np.array(report["provenance"]["config"]["percentiles"])
        traces = [np.full(len(curve), report[key]) for key in ("tr_fy", "tr_fx")]
        columns = [percentiles, curve.z, curve.p_f, curve.std_err_pf, *curve.gradient.T, curve.grad_norm_sq, *traces]
        tables["curve.csv"] = (header, columns, ())
    if dg is not None:
        axes = ["y"] if dg.ndim == 1 else [f"y{i + 1}" for i in range(dg.ndim)]
        header = axes + ["density"] + [f"d_density_{name}" for name in names]
        tables["density.csv"] = (header, [v.ravel() for v in (dg.density, *dg.density_grad)], dg.axes)
    return tables


def _write_tables(tables: dict[str, tuple], paths: dict[str, Path]) -> None:
    """Write each table of :func:`_tables` to its path in ``paths``."""
    for name, (header, columns, labels) in tables.items():
        _write_csv(paths[name], header, columns, labels)


def _attempt(write: Callable[[], None]) -> str | None:
    """The failure of ``write()`` as a message, or None when it succeeds."""
    try:
        write()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _start(write: Callable[[], None]) -> Callable[[], str | None]:
    """Call ``write()`` in a forked child process, or in this process where
    ``os.fork`` does not exist.  Returns ``finish``: it waits for the child,
    once, and gives the failure of ``write`` as a message (sent through a
    pipe), or None.  The child always leaves through ``os._exit``, so it
    never returns into the caller and flushes no buffer it shares with this
    process."""
    if not hasattr(os, "fork"):
        message = _attempt(write)
        return lambda: message
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            message = _attempt(write)
            if message is None:
                status = 0
            else:
                os.write(write_fd, message.encode(errors="replace")[:_MESSAGE_BYTES])
        finally:
            os._exit(status)
    os.close(write_fd)

    @functools.cache
    def finish() -> str | None:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        message = os.read(read_fd, _MESSAGE_BYTES).decode(errors="replace")
        os.close(read_fd)
        return message or (f"the writer process ended with status {status}" if status else None)

    return finish


@contextlib.contextmanager
def _output_set(report: dict, out_dir: str | None):
    """Write the files of ``report`` to ``out_dir``, all or nothing; where
    ``out_dir`` is unset, the yielded ``commit`` does nothing.

    The CSV files the report holds so far (:func:`_tables`) are started in
    a writer process (:func:`_start`) under temporary names.  The caller
    passes the completed report to the yielded ``commit``, which writes
    report.json under a temporary name, waits for the writer, raises
    ``OSError`` with its message if it failed, and moves every file into
    place.  However the block ends, the writer has been waited for and no
    temporary is left; unless ``commit`` moved the files, ``out_dir`` is as
    it was, and a directory made for it is removed again.
    """
    if not out_dir:
        yield lambda final: []
        return
    out = Path(out_dir)
    made = [d for d in (out, *out.parents) if not d.exists()]
    out.mkdir(parents=True, exist_ok=True)
    tables = _tables(report)
    names = [*tables, "report.json"]
    staged = {name: out / f".{name}.{os.getpid()}.tmp" for name in names}
    finish = _start(functools.partial(_write_tables, tables, staged)) if tables else lambda: None
    written = []

    def commit(final: dict) -> list[str]:
        _pop_private(final)
        with staged["report.json"].open("w", newline="") as fh:
            json.dump(final, fh, indent=2, sort_keys=True)
            fh.write("\n")
        message = finish()
        if message is not None:
            raise OSError(f"writing the CSV files failed: {message}")
        for name in names:
            os.replace(staged[name], out / name)
            written.append(str(out / name))
        return written

    try:
        yield commit
    finally:
        finish()
        for path in staged.values():
            path.unlink(missing_ok=True)
        if not written:
            for d in made:
                with contextlib.suppress(OSError):
                    d.rmdir()


def write_outputs(report: dict, out_dir: str) -> list[str]:
    """Write the curve.csv, density.csv and report.json of a finished
    report, all or nothing, the CSV files (:func:`_tables`) by a writer
    process as in :func:`run`; returns the paths."""
    with _output_set(report, out_dir) as commit:
        return commit(report)


def _pop_private(report: dict) -> dict:
    """Remove the report's in-memory entries, whose keys start with ``_``, and
    return them."""
    return {key: report.pop(key) for key in [key for key in report if key.startswith("_")]}


def run(config: RunConfig) -> tuple[dict, int]:
    """Run a case (:func:`_run`), write its files if ``out_dir`` is set, and
    return (report, exit code), the report without its in-memory entries.

    Two processes write the files.  Once the base stage has returned (the
    curve, both traces and the density grid), a forked writer process
    writes curve.csv and density.csv under temporary names in ``out_dir``,
    while this process runs the perturbation stage, then writes
    report.json, waits for the writer, and moves the three files into
    place with ``os.replace`` only when both sides have succeeded; a
    failure on either side leaves ``out_dir`` as it was
    (:func:`_output_set`).  A failure in the writer raises ``OSError`` with
    its message.  The oracle writes report.json alone and starts no
    writer.  Where ``os.fork`` does not exist, the writer runs in this
    process first.

    The writer is safe to fork although a multi-threaded BLAS may run
    threads in this process: the child formats and writes with numpy's
    element-wise, copying and reducing routines alone, so it calls no BLAS
    routine and takes no lock that a BLAS thread could hold at the fork,
    other than the allocator's, which the C library's ``fork`` leaves
    consistent in the child.  It imports nothing, prints nothing and
    leaves through ``os._exit``.
    """
    report = _run(config)
    _pop_private(report)
    return report, (0 if report["all_bounds_satisfied"] else 1)


def verify(config: RunConfig, cases: tuple[str, ...] = ("identity", "sho")) -> int:
    """Run the invariant suite at the config's sample count; returns an exit code.

    Each case, and the discrete oracle, is one :func:`run_case` on ``config``
    with its case replaced, judged by the :mod:`probsens.criteria` table,
    whose Monte-Carlo tolerances widen by sqrt(1e5 / N); the theorem suites
    follow at the config's seed.  One line is printed per outcome, and no
    file is written, whatever ``out_dir`` holds.
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
