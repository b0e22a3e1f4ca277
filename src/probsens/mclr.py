"""Monte-Carlo likelihood-ratio estimators.

Everything here is a weighted average over the rows of a
:class:`~probsens.distributions.ScoredSampleBatch`:

* failure probability          mean of the failure indicator
* probability gradient         mean of indicator * score  (one run, no re-simulation)
* output density and d/db      kernel-smoothed versions of the same sums on a grid
* output Fisher information    floored grid quadrature of (dp/db_j)(dp/db_k)/p
* relative entropy             grid quadrature of p * ln(p/q)

Reductions ride on numpy's fixed pairwise summation over fully assembled
arrays, so results do not depend on how the batch was produced.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distributions import InputModel, ScoredSampleBatch
from .errors import ContractError, EvaluationError, ParameterDomainError
from .fisher import FisherMatrix
from .rng import CHUNK, chunk_ranges

_DIRECTIONS = ("above", "below")

# Grid cells with density below DENSITY_FLOOR * max(p) are excluded from the
# 1/p quadratures: the integrand diverges in empty tails, and exclusion only
# biases the information estimate downward (conservative for upper bounds).
DENSITY_FLOOR = 1e-6


@dataclass(frozen=True)
class FailureSpec:
    """Performance function, threshold, and exceedance direction.

    ``above`` counts g(y) > z as failure (ties break toward non-failure);
    ``below`` is the exact complement g(y) <= z, i.e. the CDF convention.
    """

    g: Callable[[np.ndarray], np.ndarray]
    z: float
    direction: str = "above"

    def __post_init__(self):
        if self.direction not in _DIRECTIONS:
            raise ParameterDomainError(f"direction must be one of {_DIRECTIONS}")

    def indicator(self, outputs: np.ndarray) -> np.ndarray:
        """0/1 failure indicator per sample row."""
        gv = np.asarray(self.g(outputs), dtype=float)
        if gv.ndim != 1:
            raise ContractError("performance function must reduce outputs to one scalar per row")
        above = gv > self.z
        return (above if self.direction == "above" else ~above).astype(float)


@dataclass(frozen=True)
class SensitivityResult:
    """Failure probability and its parameter gradient at one threshold."""

    z: float
    p_f: float
    gradient: np.ndarray = field(repr=False)
    grad_norm_sq: float
    n_samples: int
    std_err_pf: float
    grad_std_err: np.ndarray = field(repr=False)


def evaluate_outputs(
    h: Callable[[np.ndarray], np.ndarray],
    draws: np.ndarray,
    chunk: int = CHUNK,
    workers: int = 1,
) -> np.ndarray:
    """Apply the forward map h to every draw, in fixed chunks.

    The chunk partition is constant, so worker count never changes the
    result.  Non-finite outputs are reported with the offending draw index.
    """
    ranges = chunk_ranges(draws.shape[0], chunk)

    def one(rng):
        start, stop = rng
        try:
            out = np.asarray(h(draws[start:stop]), dtype=float)
        except Exception as exc:  # noqa: BLE001 - annotate with draw range
            raise EvaluationError(f"forward map failed on draws [{start}, {stop})") from exc
        return out

    if workers > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(one, ranges))
    else:
        parts = [one(r) for r in ranges]
    outputs = np.concatenate(parts, axis=0)
    bad = ~np.all(np.isfinite(np.atleast_2d(outputs.T)), axis=0)
    if np.any(bad):
        idx = int(np.flatnonzero(bad)[0])
        raise EvaluationError(f"forward map returned a non-finite output at draw {idx}")
    return outputs


def _outputs_for(h, batch: ScoredSampleBatch, outputs) -> np.ndarray:
    if outputs is None:
        return evaluate_outputs(h, batch.draws)
    outputs = np.asarray(outputs, dtype=float)
    if outputs.shape[0] != batch.n:
        raise ContractError("cached outputs do not match the batch length")
    return outputs


def estimate_pf(h, spec: FailureSpec, batch: ScoredSampleBatch, outputs=None):
    """Failure probability and its binomial standard error."""
    if batch.n < 1:
        raise ContractError("batch is empty")
    ind = spec.indicator(_outputs_for(h, batch, outputs))
    p = float(np.mean(ind))
    return p, math.sqrt(p * (1.0 - p) / batch.n)


def estimate_gradient(h, spec: FailureSpec, batch: ScoredSampleBatch, outputs=None) -> SensitivityResult:
    """Gradient of the failure probability w.r.t. the distribution parameters.

    Single-run estimator: mean over samples of indicator * score.  The
    per-component standard error is the sample std of that summand / sqrt(N).
    """
    ind = spec.indicator(_outputs_for(h, batch, outputs))
    summand = ind[:, None] * batch.scores
    grad = summand.mean(axis=0)
    grad_se = summand.std(axis=0, ddof=1) / math.sqrt(batch.n)
    p = float(np.mean(ind))
    return SensitivityResult(
        z=spec.z,
        p_f=p,
        gradient=grad,
        grad_norm_sq=float(grad @ grad),
        n_samples=batch.n,
        std_err_pf=math.sqrt(p * (1.0 - p) / batch.n),
        grad_std_err=grad_se,
    )


def estimate_gradient_fd(
    h,
    spec: FailureSpec,
    model: InputModel,
    batch: ScoredSampleBatch,
    rel_step: float = 1e-2,
    steps=None,
    outputs=None,
) -> np.ndarray:
    """Finite-difference gradient oracle on the same draws.

    Central differences of the likelihood-ratio-reweighted probability:
    the indicator is held fixed and the parameter perturbation enters only
    through exact log-density ratios.  Shares all randomness with
    :func:`estimate_gradient`, so the comparison isolates the analytic
    score formulas from Monte-Carlo noise.

    Steps default to ``rel_step`` times each parameter's natural scale (the
    owning marginal's sigma), which keeps the likelihood-ratio exponents
    of order rel_step; pass ``steps`` for explicit per-parameter control.
    """
    ind = spec.indicator(_outputs_for(h, batch, outputs))
    base_logp = model.logpdf(batch.draws)
    if steps is None:
        steps = rel_step * model.param_scales()
    else:
        steps = np.broadcast_to(np.asarray(steps, dtype=float), (model.n_params,))
    if np.any(steps <= 0.0):
        raise ParameterDomainError("finite-difference steps must be positive")
    grad = np.empty(model.n_params)
    for j in range(model.n_params):
        db = np.zeros(model.n_params)
        db[j] = steps[j]
        w_plus = np.exp(model.shifted(db).logpdf(batch.draws) - base_logp)
        w_minus = np.exp(model.shifted(-db).logpdf(batch.draws) - base_logp)
        grad[j] = float(np.mean(ind * (w_plus - w_minus))) / (2.0 * steps[j])
    return grad


def sensitivity_curve(
    h,
    g,
    percentiles,
    batch: ScoredSampleBatch,
    direction: str = "above",
    outputs=None,
) -> list[SensitivityResult]:
    """One SensitivityResult per threshold, thresholds taken as empirical
    percentiles of the performance values g(h(x))."""
    if direction not in _DIRECTIONS:
        raise ParameterDomainError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")
    percentiles = np.asarray(percentiles, dtype=float)
    if np.any(percentiles <= 0.0) or np.any(percentiles >= 100.0):
        raise ParameterDomainError("percentiles must lie strictly inside (0, 100)")
    outputs = _outputs_for(h, batch, outputs)
    gvals = np.asarray(g(outputs), dtype=float)
    if gvals.max() == gvals.min():
        warnings.warn("degenerate output: all performance values equal", RuntimeWarning)
    results = []
    for p in percentiles:
        z = float(np.percentile(gvals, p))
        above = gvals > z
        ind = (above if direction == "above" else ~above).astype(float)
        summand = ind[:, None] * batch.scores
        grad = summand.mean(axis=0)
        pf = float(np.mean(ind))
        results.append(
            SensitivityResult(
                z=z,
                p_f=pf,
                gradient=grad,
                grad_norm_sq=float(grad @ grad),
                n_samples=batch.n,
                std_err_pf=math.sqrt(pf * (1.0 - pf) / batch.n),
                grad_std_err=summand.std(axis=0, ddof=1) / math.sqrt(batch.n),
            )
        )
    return results


@dataclass(frozen=True)
class DensityGrid:
    """Gridded output density p(y|b) and its parameter derivatives.

    ``density_grad[j]`` approximates dp/db_j on the same grid.  The scores
    entering the derivative sums are centred on their sample mean: the true
    derivative integrates to d(1)/db = 0, and centring enforces that
    constraint instead of letting the O(1/sqrt(N)) mean-score noise leak in.
    """

    axes: tuple[np.ndarray, ...]
    density: np.ndarray = field(repr=False)
    density_grad: np.ndarray = field(repr=False)
    bandwidth: np.ndarray

    @property
    def ndim(self) -> int:
        return len(self.axes)

    def cell_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights over the full grid."""
        ws = []
        for ax in self.axes:
            w = np.full(ax.size, ax[1] - ax[0])
            w[0] *= 0.5
            w[-1] *= 0.5
            ws.append(w)
        if len(ws) == 1:
            return ws[0]
        return np.multiply.outer(ws[0], ws[1])

    def mass(self) -> float:
        return float(np.sum(self.cell_weights() * self.density))

    def grad_mass(self, j: int) -> float:
        return float(np.sum(self.cell_weights() * self.density_grad[j]))

    def same_grid(self, other: "DensityGrid") -> bool:
        return self.ndim == other.ndim and all(
            np.array_equal(a, b) for a, b in zip(self.axes, other.axes)
        )


def kde_bandwidth(outputs: np.ndarray) -> np.ndarray:
    """Default per-dimension kernel widths.

    1-D: 1.06 * std * N^(-1/5); 2-D: Scott-type std * N^(-1/6).
    """
    n, k = outputs.shape
    std = outputs.std(axis=0, ddof=1)
    if k == 1:
        return 1.06 * std * n ** (-1.0 / 5.0)
    return std * n ** (-1.0 / 6.0)


def _grid_axes(outputs, bandwidth, points_per_dim):
    axes = []
    for j in range(outputs.shape[1]):
        lo = outputs[:, j].min() - 3.0 * bandwidth[j]
        hi = outputs[:, j].max() + 3.0 * bandwidth[j]
        axes.append(np.linspace(lo, hi, points_per_dim))
    return tuple(axes)


def _gauss(grid: np.ndarray, pts: np.ndarray, h: float) -> np.ndarray:
    """Kernel matrix K[(grid_i - pt_j)/h] / h, shape (grid, pts)."""
    z = (grid[:, None] - pts[None, :]) / h
    return np.exp(-0.5 * z * z) / (h * math.sqrt(2.0 * math.pi))


def estimate_output_density(
    outputs,
    scores,
    bandwidth=None,
    points_per_dim: int | None = None,
    axes: tuple[np.ndarray, ...] | None = None,
    chunk: int = CHUNK,
) -> DensityGrid:
    """Kernel-smoothed output density and its parameter derivatives.

    The Dirac delta of the sampling representation is replaced by a product
    Gaussian kernel; the derivative grids weight the same kernels with the
    (centred) per-sample scores.

    Parameters
    ----------
    outputs : (N,) or (N, k) array, k <= 2
    scores : (N, n) score matrix of the generating batch
    bandwidth : optional per-dimension kernel widths (default: KDE rules)
    points_per_dim : grid resolution (default 512 for k=1, 256 for k=2)
    axes : optional fixed grid, e.g. to place a perturbed density on the
        grid of its base case
    """
    outputs = np.asarray(outputs, dtype=float)
    if outputs.ndim == 1:
        outputs = outputs[:, None]
    n, k = outputs.shape
    if k not in (1, 2):
        raise ContractError(f"density grids support 1 or 2 output dimensions, got {k}")
    if n < 1000:
        raise ContractError(f"need at least 1000 samples for a stable density, got {n}")
    scores = np.asarray(scores, dtype=float)
    if scores.shape[0] != n:
        raise ContractError("scores do not match outputs in length")

    if bandwidth is None:
        bandwidth = kde_bandwidth(outputs)
    bandwidth = np.broadcast_to(np.asarray(bandwidth, dtype=float), (k,)).copy()
    if np.any(bandwidth <= 0.0):
        raise ParameterDomainError("bandwidth must be positive")

    if axes is None:
        if points_per_dim is None:
            points_per_dim = 512 if k == 1 else 256
        axes = _grid_axes(outputs, bandwidth, points_per_dim)
    else:
        axes = tuple(np.asarray(a, dtype=float) for a in axes)
        if len(axes) != k:
            raise ContractError("fixed grid dimension does not match outputs")

    n_params = scores.shape[1]
    centred = scores - scores.mean(axis=0)

    if k == 1:
        density = np.zeros(axes[0].size)
        grads = np.zeros((n_params, axes[0].size))
        for start, stop in chunk_ranges(n, chunk):
            km = _gauss(axes[0], outputs[start:stop, 0], bandwidth[0])
            density += km.sum(axis=1)
            grads += (km @ centred[start:stop]).T
    else:
        shape = (axes[0].size, axes[1].size)
        density = np.zeros(shape)
        grads = np.zeros((n_params,) + shape)
        for start, stop in chunk_ranges(n, chunk):
            a = _gauss(axes[0], outputs[start:stop, 0], bandwidth[0])
            b = _gauss(axes[1], outputs[start:stop, 1], bandwidth[1])
            density += a @ b.T
            for j in range(n_params):
                grads[j] += a @ (b * centred[start:stop, j][None, :]).T
    density /= n
    grads /= n
    return DensityGrid(axes=axes, density=density, density_grad=grads, bandwidth=bandwidth)


def estimate_output_fim(dg: DensityGrid, floor: float = DENSITY_FLOOR) -> FisherMatrix:
    """Output Fisher information by floored trapezoidal quadrature.

    F_jk = integral of (dp/db_j)(dp/db_k)/p over cells with p above the
    floor.  A warning is attached when more than 5% of the grid mass sits
    below the floor.
    """
    w = dg.cell_weights()
    p = dg.density
    mask = p >= floor * p.max()
    excluded = float(np.sum(w * np.where(mask, 0.0, p)))
    total = float(np.sum(w * p))
    if total > 0 and excluded > 0.05 * total:
        warnings.warn(
            f"{excluded / total:.1%} of grid mass below the density floor; "
            "information estimate may be strongly biased down",
            RuntimeWarning,
        )
    n = dg.density_grad.shape[0]
    grads = dg.density_grad
    inv_p = np.where(mask, w / np.where(mask, p, 1.0), 0.0)
    fim = np.empty((n, n))
    for j in range(n):
        for kk in range(j, n):
            val = float(np.sum(inv_p * grads[j] * grads[kk]))
            fim[j, kk] = val
            fim[kk, j] = val
    return FisherMatrix(fim)


def estimate_kl(dg_b: DensityGrid, dg_b_plus: DensityGrid, floor: float = DENSITY_FLOOR) -> float:
    """Relative entropy KL[p(.|b) || p(.|b+db)] by grid quadrature.

    Both grids must be identical; cells where either density falls below
    its floor are excluded (the tails there are estimator noise).
    """
    if not dg_b.same_grid(dg_b_plus):
        raise ContractError("relative entropy needs both densities on the same grid")
    w = dg_b.cell_weights()
    p = dg_b.density
    q = dg_b_plus.density
    mask = (p >= floor * p.max()) & (q >= floor * q.max()) & (p > 0.0) & (q > 0.0)
    ratio = np.where(mask, p / np.where(mask, q, 1.0), 1.0)
    kl = float(np.sum(np.where(mask, w * p * np.log(ratio), 0.0)))
    if kl < -1e-6:
        warnings.warn(f"relative entropy came out {kl:.3e} < 0 beyond quadrature noise", RuntimeWarning)
    return kl
