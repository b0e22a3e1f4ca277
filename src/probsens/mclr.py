"""Monte-Carlo likelihood-ratio estimators.

Everything here is a weighted average over the rows of a
:class:`~probsens.distributions.ScoredSampleBatch`:

* failure probability          mean of the failure indicator
* probability gradient         mean of indicator * score  (one run, no re-simulation)
* finite-difference oracle     mean of indicator * likelihood-ratio weight difference
* output density and d/db      kernel-smoothed versions of the same sums on a grid
* output Fisher information    floored grid quadrature of (dp/db_j)(dp/db_k)/p
* relative entropy             grid quadrature of p * ln(p/q)

The three indicator-weighted means come from one sorted sweep that serves
every threshold at once (:func:`_threshold_sums`).  Reductions run in a
fixed order over fully assembled arrays (numpy's pairwise sums, or
cumulative sums in sorted order), so results do not depend on how the
batch was produced.
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

# grid points per output axis, by output dimension
_GRID_POINTS = {1: 512, 2: 256}


@dataclass(frozen=True)
class SensitivityResult:
    """Failure probability and its parameter gradient at one threshold."""

    z: float
    p_f: float
    gradient: np.ndarray = field(repr=False)
    grad_norm_sq: float
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
            raise EvaluationError(f"forward map failed on draws [{start}, {stop}): {exc}") from exc
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


def _threshold_sums(gvals, zs, direction: str, weights=None):
    """Failure-set size and weight column sums at every threshold at once.

    ``above`` fails on g > z and ``below`` on g <= z, so ties break toward
    non-failure for ``above``.  After one stable sort of g, the failure set
    at each z is a prefix (below) or suffix (above) of the sorted rows, of
    length found by ``searchsorted(side="right")``; each column sum is then
    one row of a cumulative sum over the sorted weights.  A threshold's
    result depends only on its own failure set, never on the other
    thresholds, and no (thresholds, rows) array is formed.

    Returns the counts, shape (T,), and the sums, shape (T,) + weights.shape[1:]
    (None without weights).
    """
    if direction not in _DIRECTIONS:
        raise ParameterDomainError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")
    gvals = np.asarray(gvals, dtype=float)
    if gvals.ndim != 1:
        raise ContractError("performance function must reduce outputs to one scalar per row")
    bad = ~np.isfinite(gvals)
    if np.any(bad):
        raise EvaluationError(f"performance value is not finite at row {int(np.flatnonzero(bad)[0])}")
    order = np.argsort(gvals, kind="stable")
    n_below = np.searchsorted(gvals[order], np.asarray(zs, dtype=float), side="right")
    counts = n_below if direction == "below" else gvals.size - n_below
    if weights is None:
        return counts, None
    weights = np.asarray(weights, dtype=float)
    if weights.shape[0] != gvals.size:
        raise ContractError("weights do not match the performance values in length")
    sorted_w = weights[order] if direction == "below" else weights[order[::-1]]
    csum = np.zeros((gvals.size + 1,) + weights.shape[1:])
    np.cumsum(sorted_w, axis=0, out=csum[1:])
    return counts, csum[counts]


def estimate_gradient_fd(
    gvals,
    zs,
    model: InputModel,
    batch: ScoredSampleBatch,
    direction: str = "above",
    rel_step: float = 1e-2,
    steps=None,
) -> np.ndarray:
    """Finite-difference gradient oracle at every threshold, on the same draws.

    Central differences of the likelihood-ratio-reweighted probability:
    the indicator is held fixed and the parameter perturbation enters only
    through exact log-density ratios.  Shares all randomness with
    :func:`sensitivity_curve`, so the comparison isolates the analytic
    score formulas from Monte-Carlo noise.

    Steps default to ``rel_step`` times each parameter's natural scale (the
    owning marginal's sigma), which keeps the likelihood-ratio exponents
    of order rel_step; pass ``steps`` for explicit per-parameter control.
    Returns one row of n_params components per threshold in ``zs``.
    """
    if steps is None:
        steps = rel_step * model.param_scales()
    else:
        steps = np.broadcast_to(np.asarray(steps, dtype=float), (model.n_params,))
    if np.any(steps <= 0.0):
        raise ParameterDomainError("finite-difference steps must be positive")
    base_logp = model.logpdf(batch.draws)
    wdiff = np.empty((batch.n, model.n_params))
    for j, step in enumerate(steps):
        db = np.zeros(model.n_params)
        db[j] = step
        w_plus = np.exp(model.shifted(db).logpdf(batch.draws) - base_logp)
        w_minus = np.exp(model.shifted(-db).logpdf(batch.draws) - base_logp)
        wdiff[:, j] = (w_plus - w_minus) / (2.0 * step)
    _, sums = _threshold_sums(gvals, zs, direction, wdiff)
    return sums / batch.n


def sensitivity_curve(gvals, scores, percentiles, direction: str = "above") -> list[SensitivityResult]:
    """One SensitivityResult per threshold, thresholds taken as empirical
    percentiles of the performance values ``gvals``, one per row of the
    (N, n) ``scores``.

    At each threshold z: P_f is the failure-set fraction, the gradient the
    mean of indicator * score, and its per-component standard error the
    sample std (ddof=1) of that summand / sqrt(N), from the summand's first
    two moments.
    """
    percentiles = np.asarray(percentiles, dtype=float)
    if np.any(percentiles <= 0.0) or np.any(percentiles >= 100.0):
        raise ParameterDomainError("percentiles must lie strictly inside (0, 100)")
    gvals = np.asarray(gvals, dtype=float)
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[0] != gvals.size:
        raise ContractError("scores must be an (N, n) matrix with one row per performance value")
    if gvals.max() == gvals.min():
        warnings.warn("degenerate output: all performance values equal", RuntimeWarning)
    zs = np.percentile(gvals, percentiles)
    n, n_params = scores.shape
    counts, sums = _threshold_sums(gvals, zs, direction, np.concatenate([scores, scores**2], axis=1))
    grads = sums[:, :n_params] / n
    var = (sums[:, n_params:] - n * grads**2) / (n - 1)  # rounding can take 0 below 0
    grad_se = np.sqrt(np.maximum(var, 0.0)) / math.sqrt(n)
    results = []
    for z, count, grad, se in zip(zs, counts, grads, grad_se):
        pf = float(count / n)
        results.append(
            SensitivityResult(
                z=float(z),
                p_f=pf,
                gradient=grad,
                grad_norm_sq=float(grad @ grad),
                std_err_pf=math.sqrt(pf * (1.0 - pf) / n),
                grad_std_err=se,
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
    axes: tuple[np.ndarray, ...] | None = None,
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
    axes : optional fixed grid, e.g. to place a perturbed density on the
        grid of its base case (default: 512 points for k=1, 256 per axis
        for k=2)
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
        axes = _grid_axes(outputs, bandwidth, _GRID_POINTS[k])
    else:
        axes = tuple(np.asarray(a, dtype=float) for a in axes)
        if len(axes) != k:
            raise ContractError("fixed grid dimension does not match outputs")

    n_params = scores.shape[1]
    centred = scores - scores.mean(axis=0)

    if k == 1:
        density = np.zeros(axes[0].size)
        grads = np.zeros((n_params, axes[0].size))
        for start, stop in chunk_ranges(n, CHUNK):
            km = _gauss(axes[0], outputs[start:stop, 0], bandwidth[0])
            density += km.sum(axis=1)
            grads += (km @ centred[start:stop]).T
    else:
        shape = (axes[0].size, axes[1].size)
        density = np.zeros(shape)
        grads = np.zeros((n_params,) + shape)
        for start, stop in chunk_ranges(n, CHUNK):
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
