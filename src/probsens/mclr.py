"""Monte-Carlo likelihood-ratio estimators.

Everything here is a weighted average over the rows of a
:class:`~probsens.distributions.ScoredSampleBatch`:

* failure probability          mean of the failure indicator
* probability gradient         mean of indicator * score  (one run, no re-simulation)
* finite-difference oracle     mean of indicator * likelihood-ratio weight difference
* output density and d/db      kernel-smoothed versions of the same sums on a grid,
                               binned onto a fine lattice before smoothing
* output Fisher information    floored grid quadrature of (dp/db_j)(dp/db_k)/p
* relative entropy             grid quadrature of p * ln(p/q)

The three indicator-weighted means come from one sorted sweep that serves
every threshold at once (:func:`_threshold_sums`).  Its order is the stable
argsort of the performance values, which :func:`_sort_order` takes from
numpy's default sort and from the stable sort only when two values tie:
without ties the sorting permutation is unique.  The sweep takes its
weights as a function of row indices and asks for one block of ``CHUNK``
(4096) sorted rows at a time, so no caller forms an (N, columns) weight
array: the curve gathers its score rows and their squares, the
finite-difference oracle computes its likelihood-ratio weights, block by
block.  The density grid is a binned kernel estimator
(:func:`estimate_output_density`): the weights are binned linearly onto a
lattice 16 (1-D) or 2 (2-D) times finer than the output axes, and the
Gaussian sampled on that lattice, cut at 8 widths, is summed at the axis
nodes, so the cost grows with the grid, not with N times the grid.
Against the exact kernel sum the 1-D density moves by at most 9e-8 of its
peak and the 2-D beam density by 3e-5; tr(F_y) by 1.3e-9 and 2.3e-6
relative.  Reductions run in a fixed order, so results do not depend on
how the batch was produced.  The sweep's cumulative sum restarts each
block from the previous block's last total, and the binning adds each
block's shares into the lattice with ``np.add.at``, corner by corner.
Both add in the order of one pass over all rows (a sequential cumulative
sum, one ``bincount`` per column), so every bit equals that of the
whole-array forms.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .distributions import InputModel, ScoredSampleBatch, _integer
from .errors import ContractError, EvaluationError, ParameterDomainError, as_floats
from .fisher import FisherMatrix
from .rng import CHUNK, chunk_ranges

_DIRECTIONS = ("above", "below")

# Grid cells with density below DENSITY_FLOOR * max(p) are excluded from the
# 1/p quadratures: the integrand diverges in empty tails, and exclusion only
# biases the information estimate downward (conservative for upper bounds).
DENSITY_FLOOR = 1e-6

# grid points per output axis, by output dimension
_GRID_POINTS = {1: 512, 2: 256}

# Binning lattice spacing is the axis step divided by this, by output
# dimension, and the sampled kernel is cut at _KERNEL_CUT widths; see
# estimate_output_density for the measured error and cost.
_REFINE = {1: 16, 2: 2}
_KERNEL_CUT = 8.0


@dataclass(frozen=True)
class SensitivityResult:
    """Failure probability and its parameter gradient along a whole curve.

    Row t of every column belongs to threshold ``z[t]``: ``z``, ``p_f``,
    ``grad_norm_sq`` and ``std_err_pf`` have shape (T,), ``gradient`` and
    ``grad_std_err`` shape (T, n).  ``len`` is T.
    """

    z: np.ndarray
    p_f: np.ndarray
    gradient: np.ndarray = field(repr=False)
    grad_norm_sq: np.ndarray
    std_err_pf: np.ndarray
    grad_std_err: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.z.size


def evaluate_outputs(
    h: Callable[[np.ndarray], np.ndarray],
    draws: np.ndarray,
    workers: int = 1,
) -> np.ndarray:
    """Apply the forward map h to every draw, in fixed chunks of ``CHUNK`` rows.

    The chunk partition is constant, so worker count never changes the
    result.  Non-finite outputs are reported with the offending draw index.
    ``draws`` is an (N, inputs) matrix with N >= 1, and ``workers`` a
    thread count >= 1.
    """
    draws = as_floats("draws", draws)
    if draws.ndim != 2 or draws.shape[0] == 0:
        raise ContractError(f"draws must be an (N, inputs) matrix with N >= 1, got shape {draws.shape}")
    workers = _integer("workers", workers)
    if workers < 1:
        raise ParameterDomainError(f"workers must be >= 1, got {workers}")
    ranges = chunk_ranges(draws.shape[0], CHUNK)

    def one(rng):
        start, stop = rng
        try:
            out = np.asarray(h(draws[start:stop]), dtype=float)
        except Exception as exc:  # noqa: BLE001 - annotate with draw range
            raise EvaluationError(f"forward map failed on draws [{start}, {stop}): {exc}") from exc
        return out

    if workers > 1 and len(ranges) > 1:
        # imported here: a run with one worker or one chunk starts no thread
        from concurrent.futures import ThreadPoolExecutor

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


def _performance_values(gvals) -> np.ndarray:
    """The performance values as a float vector; a non-finite one raises."""
    gvals = as_floats("performance values", gvals)
    if gvals.ndim != 1 or gvals.size == 0:
        raise ContractError(f"performance values must be one scalar per row, one row at least; got shape {gvals.shape}")
    bad = ~np.isfinite(gvals)
    if np.any(bad):
        raise EvaluationError(f"performance value is not finite at row {int(np.flatnonzero(bad)[0])}")
    return gvals


def _linear_percentiles(sorted_g: np.ndarray, percentiles: np.ndarray) -> np.ndarray:
    """``np.percentile(g, percentiles)`` from the sorted g, bit for bit.

    numpy's default ``linear`` rule: the virtual index (n - 1) p / 100, and
    between its two neighbours the interpolation ``a + (b - a) t`` for a
    fraction t < 1/2 and ``b - (b - a)(1 - t)`` otherwise.  It spares the
    ``numpy.ma`` import that ``np.percentile`` makes on first use.
    """
    virtual = (sorted_g.size - 1) * (percentiles / 100)
    below = np.floor(virtual)
    t = virtual - below
    lo = below.astype(np.intp)
    a, b = sorted_g[lo], sorted_g[np.minimum(lo + 1, sorted_g.size - 1)]
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def _sort_order(gvals: np.ndarray) -> np.ndarray:
    """``np.argsort(gvals, kind="stable")``, bit for bit, from the faster
    default sort when it can.

    When the sorted g strictly increases, only one permutation sorts it,
    so the default sort returns the stable order on any machine.  Otherwise
    two values tie (``-0.0`` and ``0.0`` are equal) or a NaN is present,
    and the stable sort runs after all.
    """
    order = np.argsort(gvals)
    sorted_g = gvals[order]
    if np.all(sorted_g[1:] > sorted_g[:-1]):
        return order
    return np.argsort(gvals, kind="stable")


def _threshold_sums(gvals, zs, direction: str, weights=None, order=None):
    """Failure-set size and weight column sums at every threshold at once.

    ``above`` fails on g > z and ``below`` on g <= z, so ties break toward
    non-failure for ``above``.  The ``below`` count at z is the
    ``searchsorted(side="right")`` position of z in the sorted g; counts
    alone need only ``np.sort``.  With weights, the rows are taken in the
    stable order of g, ``order``: its ``argsort(kind="stable")``, which
    :func:`_sort_order` gives and the caller passes when it already holds
    it.  The failure set at each z is then a prefix (below) or suffix
    (above) of the sorted rows of that length; each column sum is one row
    of a cumulative sum over the sorted weights.  A threshold's result
    depends only on its own failure set, never on the other thresholds,
    and no (thresholds, rows) array is formed.

    ``weights`` is a function that returns a new (rows, columns) array of
    the weight rows of an array of row indices; the sweep may write to it.
    The sweep calls it with each block of ``CHUNK`` sorted rows, and once
    with no rows for the column count, so weights are never held for all
    rows at once.  Each block's first row is added to the previous block's
    last total before its cumulative sum, so every total is formed by the
    same sequential additions as one cumulative sum over all rows (addition
    commutes exactly; the first block gets no ``+0.0`` carry, which would
    turn a ``-0.0`` first weight into ``+0.0``).  A threshold reads its row
    from the block that holds its count, and count 0 reads ``0.0``.

    Returns the counts, shape (T,), and the sums, shape (T, columns)
    (None without weights).
    """
    if direction not in _DIRECTIONS:
        raise ParameterDomainError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")
    gvals = _performance_values(gvals)
    zs = as_floats("thresholds", zs)
    if zs.ndim != 1:
        raise ContractError(f"thresholds must be a 1-D list, got shape {zs.shape}")
    if not np.all(np.isfinite(zs)):
        raise ParameterDomainError("thresholds must be finite")
    if weights is None and order is None:
        sorted_g = np.sort(gvals)
    else:
        if order is None:
            order = _sort_order(gvals)
        sorted_g = gvals[order]
    n_below = np.searchsorted(sorted_g, zs, side="right")
    counts = n_below if direction == "below" else gvals.size - n_below
    if weights is None:
        return counts, None
    rows = order if direction == "below" else order[::-1]
    sums = np.zeros((zs.size, weights(rows[:0]).shape[1]))
    for start, stop in chunk_ranges(gvals.size, CHUNK):
        block = weights(rows[start:stop])
        if start:
            block[0] += csum[-1]
        csum = np.cumsum(block, axis=0)
        hit = (counts > start) & (counts <= stop)
        sums[hit] = csum[counts[hit] - start - 1]
    return counts, sums


def estimate_gradient_fd(
    gvals,
    zs,
    model: InputModel,
    batch: ScoredSampleBatch,
    direction: str = "above",
    rel_step: float = 1e-2,
    *,
    _order=None,
) -> np.ndarray:
    """Finite-difference gradient oracle at every threshold, on the same draws.

    Central differences of the likelihood-ratio-reweighted probability:
    the indicator is held fixed and the parameter perturbation enters only
    through exact log-density ratios.  Shares all randomness with
    :func:`sensitivity_curve`, so the comparison isolates the analytic
    score formulas from Monte-Carlo noise.

    Each parameter's step is ``rel_step`` times its natural scale (the
    owning marginal's sigma), which keeps the likelihood-ratio exponents
    of order rel_step.  Returns one row of n_params components per
    threshold in ``zs``.  ``_order`` is the stable argsort of ``gvals``
    (:func:`_sort_order`) when the caller holds it.

    The 2n shifted models are built once.  The weight differences are the
    sweep's weight function (:func:`_threshold_sums`): for each block of
    sorted rows, the block's draws are gathered, and its base log-density,
    both likelihood ratios ``exp(shifted logpdf - base)`` and their central
    difference are computed for those rows only.  Every step is
    elementwise within a row, so the bits equal those of forming every
    row's weights first, and no N-length weight is held.
    """
    steps = rel_step * model.param_scales()
    if np.any(steps <= 0.0):
        raise ParameterDomainError("finite-difference steps must be positive")
    if np.size(gvals) != batch.n:
        raise ContractError("performance values must have one row per draw of the batch")
    # per parameter: the models shifted by +-step along it, and the difference's width
    pairs = [(model.shifted(db), model.shifted(-db), 2.0 * step) for db, step in zip(np.diag(steps), steps)]

    def wdiff(rows):
        draws = batch.draws[rows]
        base_logp = model.logpdf(draws)
        out = np.empty((rows.size, model.n_params))
        for j, (plus, minus, width) in enumerate(pairs):
            w_plus = np.exp(plus.logpdf(draws) - base_logp)
            w_minus = np.exp(minus.logpdf(draws) - base_logp)
            out[:, j] = (w_plus - w_minus) / width
        return out

    _, sums = _threshold_sums(gvals, zs, direction, wdiff, _order)
    return sums / batch.n


def sensitivity_curve(
    gvals, scores, percentiles, direction: str = "above", *, _order=None
) -> SensitivityResult:
    """The sensitivity curve over thresholds taken as empirical percentiles
    of the performance values ``gvals``, one per row of the (N, n)
    ``scores``; one row of every column per percentile.

    At each threshold z: P_f is the failure-set fraction, the gradient the
    mean of indicator * score, and its per-component standard error the
    sample std (ddof=1) of that summand / sqrt(N), from the summand's first
    two moments.  ``_order`` is the stable argsort of ``gvals``
    (:func:`_sort_order`) when the caller holds it.
    """
    percentiles = as_floats("percentiles", percentiles)
    if not np.all((percentiles > 0.0) & (percentiles < 100.0)):
        raise ParameterDomainError("percentiles must lie strictly inside (0, 100)")
    gvals = _performance_values(gvals)
    scores = as_floats("scores", scores)
    if scores.ndim != 2 or scores.shape[0] != gvals.size:
        raise ContractError("scores must be an (N, n) matrix with one row per performance value")
    if gvals.max() == gvals.min():
        warnings.warn("degenerate output: all performance values equal", RuntimeWarning)
    order = _sort_order(gvals) if _order is None else _order
    zs = _linear_percentiles(gvals[order], percentiles)
    n, n_params = scores.shape

    def moments(rows):
        # each gathered score row and its squares: the summand's first two moments
        block = np.take(scores, rows, axis=0)
        return np.hstack([block, block * block])

    counts, sums = _threshold_sums(gvals, zs, direction, moments, order)
    grads = sums[:, :n_params] / n
    var = (sums[:, n_params:] - n * grads**2) / (n - 1)  # rounding can take 0 below 0
    p_f = counts / n
    return SensitivityResult(
        z=zs,
        p_f=p_f,
        gradient=grads,
        grad_norm_sq=np.vecdot(grads, grads),
        std_err_pf=np.sqrt(p_f * (1.0 - p_f) / n),
        grad_std_err=np.sqrt(np.maximum(var, 0.0)) / math.sqrt(n),
    )


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


def _lattice(values, axis, h, refine):
    """One output axis of the binning lattice: the sampled kernel taps and
    each row's lattice coordinate.

    The lattice spacing is the axis step divided by ``refine``.  Axis node i
    is lattice node ``pad + i * refine``, and the lattice runs ``pad`` nodes
    past both ends of the axis, ``pad`` being the most whole spacings within
    the kernel cut: beyond it no row reaches an axis node.  The taps are a
    Gaussian sampled at the spacing from -pad to +pad.

    A row binned between two lattice nodes meets the linear interpolant of
    the sampled kernel, which has on average the kernel's variance plus
    spacing^2 / 6, that of the binning hat.  The taps therefore use the
    width whose variance plus spacing^2 / 6 is h^2, taking off at most half
    of h^2 when the spacing is coarse.

    Returns ``(taps, coordinates, lattice size)``.
    """
    spacing = (axis[-1] - axis[0]) / (axis.size - 1)
    delta = spacing / refine
    pad = int(_KERNEL_CUT * h / delta)
    width = h * math.sqrt(max(1.0 - (delta / h) ** 2 / 6.0, 0.5))
    t = np.arange(-pad, pad + 1) * (delta / width)
    taps = np.exp(-0.5 * t * t) / (width * math.sqrt(2.0 * math.pi))
    return taps, (values - axis[0]) / delta + pad, (axis.size - 1) * refine + 2 * pad + 1


def _block(u, size):
    """Lattice nodes [lo, hi) around the coordinates u, which lie in [0, size - 1]."""
    lo = int(u.min(initial=size - 2))
    return lo, max(lo + 2, min(int(u.max(initial=0.0)) + 2, size))


def _linear_bin(coords, shape, scores, centre):
    """Linear (1-D) or bilinear (2-D) binning of weight columns onto a lattice.

    ``coords`` holds one array of lattice coordinates in [0, shape[j] - 1]
    per axis.  The weight columns are a column of ones, then each score
    column ``scores[:, j] - centre[j]``.  Each row's weight is split between
    the 2^k nodes of its lattice cell in proportion to the opposite
    sub-cell volumes, so every column keeps its total.

    Each row's lowest cell node and its fractions along each axis are found
    once.  Each column then starts from a zeroed lattice and gets
    ``np.add.at`` of the shares times the weights, for each cell corner in
    ``itertools.product`` order and, inside a corner, for each block of
    ``CHUNK`` rows; a score column is centred block by block.  Every
    lattice node so receives the same additions in the same order as from
    one ``bincount`` of all corners' rows, and no (rows, columns) or
    (corners * rows) array is formed.

    Yields the lattice sums of one column at a time, each a new array of
    shape ``shape`` (so a caller may keep every yielded lattice).  The
    generator drops its own reference after each ``yield``, before it
    allocates the next lattice, so a caller that releases each lattice
    before asking for the next holds only one at a time.
    """
    low = [np.minimum(u.astype(np.intp), size - 2) for u, size in zip(coords, shape)]
    frac = [u - i for u, i in zip(coords, low)]
    # each row's lowest cell node; a corner adds a fixed offset to it
    base = low[0] if len(shape) == 1 else np.ravel_multi_index(low, shape)
    corners = [(np.ravel_multi_index(c, shape), c) for c in itertools.product((0, 1), repeat=len(shape))]
    blocks = chunk_ranges(base.size, CHUNK)
    for j in range(-1, scores.shape[1]):
        out = np.zeros(math.prod(shape))
        for offset, corner in corners:
            for start, stop in blocks:
                shares = math.prod(f[start:stop] if c else 1.0 - f[start:stop] for f, c in zip(frac, corner))
                if j >= 0:
                    shares = shares * (scores[start:stop, j] - centre[j])
                np.add.at(out, base[start:stop] + offset, shares)
        yield out.reshape(shape)
        del out


def _kernel_matrix(taps, refine, n_nodes, lo, hi) -> np.ndarray:
    """Taps between every axis node (rows) and lattice nodes lo..hi-1 (columns)."""
    offset = np.arange(lo, hi)[None, :] - refine * np.arange(n_nodes)[:, None]
    inside = (offset >= 0) & (offset < taps.size)
    return np.where(inside, taps[np.clip(offset, 0, taps.size - 1)], 0.0)


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

    The kernel sums are binned (Wand 1994; Fan & Marron 1994).  The weight
    columns [1, centred scores] are binned linearly (bilinearly in 2-D)
    onto a lattice ``_REFINE[k]`` times finer than the output axes (16 in
    1-D, 2 in 2-D) and aligned with them.  The Gaussian sampled on that
    lattice, at the width that makes up for the variance the binning adds
    (:func:`_lattice`), and cut at 8 widths, is then applied once per axis,
    at the axis nodes only: through strided windows in 1-D, and as two
    matrix products in 2-D, where only the block of lattice nodes that
    holds rows is formed.  The lattice spans the axes plus 8 widths on each
    side, so rows beyond it, such as far outliers from a fixed grid, are
    dropped and cannot grow memory.

    Against the exact kernel sum (kept in the tests) on the shipped cases
    at seeds 1, 7 and 141, on the base and the perturbed grid: the 1-D
    density moves by at most 9e-8 of its peak, tr(F_y) by 1.3e-9 and the
    KL by 3e-7 relative; the 2-D beam density (2000 and 20000 samples) by
    3e-5 of its peak, tr(F_y) by 2.3e-6 and the KL by 5.5e-4 relative.  The
    rows are binned in blocks (:func:`_linear_bin`), so no (N, columns)
    weight array is formed.

    Parameters
    ----------
    outputs : (N,) or (N, k) array, k <= 2
    scores : (N, n) score matrix of the generating batch
    bandwidth : optional kernel widths, one or one per output dimension,
        each positive and finite (default: KDE rules)
    axes : optional fixed grid of evenly spaced axes, e.g. to place a
        perturbed density on the grid of its base case (default: 512
        points for k=1, 256 per axis for k=2)
    """
    outputs = as_floats("outputs", outputs)
    if outputs.ndim == 1:
        outputs = outputs[:, None]
    if outputs.ndim != 2:
        raise ContractError(f"outputs must be an (N,) or (N, k) array, got shape {outputs.shape}")
    n, k = outputs.shape
    if k not in (1, 2):
        raise ContractError(f"density grids support 1 or 2 output dimensions, got {k}")
    if n < 1000:
        raise ContractError(f"need at least 1000 samples for a stable density, got {n}")
    scores = as_floats("scores", scores)
    if scores.ndim != 2 or scores.shape[0] != n:
        raise ContractError("scores must be an (N, n) matrix with one row per output row")
    bad = ~np.all(np.isfinite(outputs), axis=1)
    if np.any(bad):
        raise EvaluationError(f"output is not finite at row {int(np.flatnonzero(bad)[0])}")

    if bandwidth is None:
        bandwidth = kde_bandwidth(outputs)
    bandwidth = as_floats("bandwidth", bandwidth)
    if bandwidth.ndim > 1 or bandwidth.size not in (1, k):
        raise ContractError(f"bandwidth needs one width or one per output dimension ({k}), got {bandwidth.shape}")
    bandwidth = np.broadcast_to(bandwidth, (k,)).copy()
    if not np.all(np.isfinite(bandwidth) & (bandwidth > 0.0)):
        raise ParameterDomainError(f"bandwidth must be positive and finite, got {bandwidth.tolist()}")

    if axes is None:
        axes = _grid_axes(outputs, bandwidth, _GRID_POINTS[k])
    else:
        axes = tuple(as_floats("axes", a) for a in axes)
        if len(axes) != k:
            raise ContractError("fixed grid dimension does not match outputs")
        for a in axes:
            steps = np.diff(a) if a.ndim == 1 and np.all(np.isfinite(a)) else np.empty(0)
            if steps.size == 0 or steps.min() <= 0.0 or np.ptp(steps) > 1e-6 * steps.mean():
                raise ContractError("fixed grid axes must be finite, increasing and evenly spaced")

    refine = _REFINE[k]
    taps, coords, sizes = zip(*(_lattice(v, a, h, refine) for v, a, h in zip(outputs.T, axes, bandwidth)))
    centre = scores.mean(axis=0)
    inside = np.logical_and.reduce([(u >= 0.0) & (u <= size - 1) for u, size in zip(coords, sizes)])
    if not inside.all():
        coords = [u[inside] for u in coords]
        scores = scores[inside]
    sums = np.empty((scores.shape[1] + 1,) + tuple(a.size for a in axes))
    if k == 1:
        for out, cells in zip(sums, _linear_bin(coords, sizes, scores, centre)):
            # the 2 pad + 1 lattice nodes around each axis node, read in place:
            # a dense kernel matrix would hold nodes x lattice taps, about 40 MB for identity
            out[:] = sliding_window_view(cells, taps[0].size)[::refine] @ taps[0]
    else:
        blocks = [_block(u, size) for u, size in zip(coords, sizes)]
        k0, k1 = (_kernel_matrix(t, refine, a.size, lo, hi) for t, a, (lo, hi) in zip(taps, axes, blocks))
        lattice = iter(_linear_bin([u - lo for u, (lo, _) in zip(coords, blocks)], [hi - lo for lo, hi in blocks], scores, centre))
        for out in sums:
            cells = next(lattice)
            out[:] = k0 @ cells @ k1.T
            del cells  # before the next lattice is allocated
    sums /= n
    return DensityGrid(axes=axes, density=sums[0], density_grad=sums[1:], bandwidth=bandwidth)


def estimate_output_fim(dg: DensityGrid) -> FisherMatrix:
    """Output Fisher information by floored trapezoidal quadrature.

    F_jk = integral of (dp/db_j)(dp/db_k)/p over cells with p at or above
    ``DENSITY_FLOOR * max(p)``.  A warning is attached when more than 5% of
    the grid mass sits below that floor.  An infinite or NaN entry, as from a density that
    underflows on a grid far wider than the outputs, raises
    :class:`EvaluationError`: no bound can be judged against it.
    """
    w = dg.cell_weights()
    p = dg.density
    mask = p >= DENSITY_FLOOR * p.max()
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
    fim = np.empty((n, n))
    # an overflow here is reported below as a non-finite matrix
    with np.errstate(over="ignore", invalid="ignore"):
        inv_p = np.where(mask, w / np.where(mask, p, 1.0), 0.0)
        for j in range(n):
            for kk in range(j, n):
                val = float(np.sum(inv_p * grads[j] * grads[kk]))
                fim[j, kk] = val
                fim[kk, j] = val
    if not np.all(np.isfinite(fim)):
        raise EvaluationError(f"output Fisher information is not finite: {fim.tolist()}")
    return FisherMatrix(fim)


def estimate_kl(dg_b: DensityGrid, dg_b_plus: DensityGrid) -> float:
    """Relative entropy KL[p(.|b) || p(.|b+db)] by grid quadrature.

    Both grids must be identical; cells where either density falls below
    ``DENSITY_FLOOR`` times its maximum are excluded (the tails there are
    estimator noise).
    """
    if not dg_b.same_grid(dg_b_plus):
        raise ContractError("relative entropy needs both densities on the same grid")
    w = dg_b.cell_weights()
    p = dg_b.density
    q = dg_b_plus.density
    mask = (p >= DENSITY_FLOOR * p.max()) & (q >= DENSITY_FLOOR * q.max()) & (p > 0.0) & (q > 0.0)
    ratio = np.where(mask, p / np.where(mask, q, 1.0), 1.0)
    kl = float(np.sum(np.where(mask, w * p * np.log(ratio), 0.0)))
    if kl < -1e-6:
        warnings.warn(f"relative entropy came out {kl:.3e} < 0 beyond quadrature noise", RuntimeWarning)
    return kl
