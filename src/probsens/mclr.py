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
without ties the sorting permutation is unique.  No sorted copy of the
values is formed: the tie check reads them block by block, the counts are
searched through the order and a percentile gathers only its two
neighbours.  The sweep takes its
weights as a function of row indices and asks for one block of ``CHUNK``
(4096) sorted rows at a time, so no caller forms an (N, columns) weight
array: the curve gathers its score rows and their squares, the
finite-difference oracle computes its likelihood-ratio weights, block by
block.  The density grid is a binned kernel estimator
(:func:`estimate_output_density`): the weights are binned linearly onto a
lattice 16 (1-D) or 2 (2-D) times finer than the output axes, and the
Gaussian sampled on that lattice, cut at 8 widths, is summed at the axis
nodes through one banded strip per axis (:func:`_smooth`), so the cost
grows with the grid, not with N times the grid.  Each node's sum is
within w x 2^-51 of ``|K0| |cells|`` (``|K0| |cells| |K1|^T`` in 2-D),
the absolute products of the dense kernel matrices K it replaced, w being
the lattice block's width summed over the axes.  The score columns are
centred on their column means, the same pairwise sums as the run's
zero-mean score check.  Against the exact kernel sum the 1-D density
moves by at most 9e-8 of its peak and the 2-D beam density by 3e-5;
tr(F_y) by 1.3e-9 and 2.3e-6 relative.  Reductions run in a fixed
order, so results do not depend on how the batch was produced.  The
sweep's cumulative sum restarts each block from the previous block's
last total, and the binning adds each block's shares into the lattice
with ``np.add.at``, corner by corner, from the lattice coordinates, split
in place into fractions, and one cell index per row.  Both add in the
order of one pass
over all rows (a sequential cumulative sum, one ``bincount`` per
column), so every bit equals that of the whole-array forms.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distributions import InputModel, ScoredSampleBatch
from .errors import ContractError, EvaluationError, ParameterDomainError, as_floats, expect
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
# axis nodes per kernel strip of the smoothing (_smooth), by output
# dimension.  Fewer hold less but run slower: of 4 to 16 in 1-D, 8 and more
# are equally fast on identity, and of 16 to 256 in 2-D, 32 smooths the
# beam grid fastest
_STRIP = {1: 8, 2: 32}

# step of estimate_gradient_fd's central differences, relative to each parameter's scale
_FD_REL_STEP = 1e-2


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


def evaluate_outputs(h: Callable[[np.ndarray], np.ndarray], draws: np.ndarray) -> np.ndarray:
    """Apply the forward map h to every draw, in fixed chunks of ``CHUNK`` rows.

    ``draws`` is an (N, inputs) matrix with N >= 1.  The result, (N,) or
    (N, k), is allocated from the first chunk's shape and filled chunk by
    chunk.  Each chunk of ``rows`` draws must map to ``(rows,)``, or
    ``(rows, k)`` with the first chunk's k, and to finite values; otherwise
    :class:`EvaluationError` names the draw range or the first non-finite
    draw.
    """
    draws = as_floats("draws", draws)
    if draws.ndim != 2 or draws.shape[0] == 0:
        raise ContractError(f"draws must be an (N, inputs) matrix with N >= 1, got shape {draws.shape}")
    outputs = None
    for start, stop in chunk_ranges(draws.shape[0], CHUNK):
        try:
            part = np.asarray(h(draws[start:stop]), dtype=float)
        except Exception as exc:  # noqa: BLE001 - annotate with draw range
            raise EvaluationError(f"forward map failed on draws [{start}, {stop}): {exc}") from exc
        if outputs is None and part.ndim in (1, 2):
            outputs = np.empty(draws.shape[:1] + part.shape[1:])
        if outputs is None or part.shape != (stop - start,) + outputs.shape[1:]:
            want = "(rows,) or (rows, k)" if outputs is None else (stop - start,) + outputs.shape[1:]
            raise EvaluationError(f"forward map returned shape {part.shape} on draws [{start}, {stop}), expected {want}")
        finite = np.isfinite(part)
        if not finite.all():
            idx = start + int(np.flatnonzero(~finite.reshape(stop - start, -1).all(axis=1))[0])
            raise EvaluationError(f"forward map returned a non-finite output at draw {idx}")
        outputs[start:stop] = part
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


def _score_matrix(scores, n: int) -> np.ndarray:
    """The scores as an (n, params) float matrix; a non-finite score raises,
    since it would come back as a NaN gradient or density derivative."""
    scores = as_floats("scores", scores)
    if scores.ndim != 2 or scores.shape[0] != n:
        raise ContractError(f"scores must be an (N, n) matrix with one row per sample, got shape {scores.shape}")
    finite = np.isfinite(scores)
    if not finite.all():
        raise EvaluationError(f"score is not finite at row {int(np.flatnonzero(~finite.all(axis=1))[0])}")
    return scores


def _linear_percentiles(gvals: np.ndarray, order: np.ndarray, percentiles: np.ndarray) -> np.ndarray:
    """``np.percentile(gvals, percentiles)`` from the order that sorts g,
    bit for bit.

    numpy's default ``linear`` rule: the virtual index (n - 1) p / 100, and
    between its two neighbours the interpolation ``a + (b - a) t`` for a
    fraction t < 1/2 and ``b - (b - a)(1 - t)`` otherwise; only those two
    neighbours are gathered.  It spares the ``numpy.ma`` import that
    ``np.percentile`` makes on first use.
    """
    virtual = (gvals.size - 1) * (percentiles / 100)
    below = np.floor(virtual)
    t = virtual - below
    lo = below.astype(np.intp)
    a, b = gvals[order[lo]], gvals[order[np.minimum(lo + 1, gvals.size - 1)]]
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def _sort_order(gvals: np.ndarray) -> np.ndarray:
    """``np.argsort(gvals, kind="stable")``, bit for bit, from the faster
    default sort when it can.

    When the sorted g strictly increases, only one permutation sorts it,
    so the default sort returns the stable order on any machine.  Otherwise
    two values tie (``-0.0`` and ``0.0`` are equal) or a NaN is present,
    and the stable sort runs after all.  The sorted g is checked one block
    of ``CHUNK`` values at a time, with no sorted copy of g.
    """
    order = np.argsort(gvals)
    for start, stop in chunk_ranges(order.size, CHUNK):
        sorted_g = gvals[order[start : stop + 1]]
        if not np.all(sorted_g[1:] > sorted_g[:-1]):
            return np.argsort(gvals, kind="stable")
    return order


def _threshold_sums(gvals, zs, direction: str, weights=None, order=None):
    """Failure-set size and weight column sums at every threshold at once.

    ``above`` fails on g > z and ``below`` on g <= z, so ties break toward
    non-failure for ``above``.  The ``below`` count at z is the
    ``searchsorted(side="right")`` position of z in the sorted g, searched
    through ``order`` when there is one; counts alone need only
    ``np.sort``.  With weights, the rows are taken in the
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
        n_below = np.searchsorted(np.sort(gvals), zs, side="right")
    else:
        if order is None:
            order = _sort_order(gvals)
        n_below = np.searchsorted(gvals, zs, side="right", sorter=order)
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
    *,
    _order=None,
) -> np.ndarray:
    """Finite-difference gradient oracle at every threshold, on the same draws.

    Central differences of the likelihood-ratio-reweighted probability:
    the indicator is held fixed and the parameter perturbation enters only
    through exact log-density ratios.  Shares all randomness with
    :func:`sensitivity_curve`, so the comparison isolates the analytic
    score formulas from Monte-Carlo noise.

    Each parameter's step is ``_FD_REL_STEP`` = 1e-2 times its natural
    scale (the owning marginal's sigma), which keeps the likelihood-ratio
    exponents of order 1e-2.  Returns one row of n_params components per
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
    steps = _FD_REL_STEP * expect("model", model, InputModel).param_scales()
    if np.size(gvals) != expect("batch", batch, ScoredSampleBatch).n:
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
    scores = _score_matrix(scores, gvals.size)
    if gvals.max() == gvals.min():
        warnings.warn("degenerate output: all performance values equal", RuntimeWarning)
    order = _sort_order(gvals) if _order is None else _order
    zs = _linear_percentiles(gvals, order, percentiles)
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

    The fields are checked and stored as float arrays: each axis 1-D,
    finite, increasing and evenly spaced with 2 points at least
    (:func:`_checked_axes`); ``density`` of the axes' shape and
    ``density_grad`` of shape (n, *shape), every value finite; and one
    finite width >= 0 per axis (0.0 for an exact density).
    """

    axes: tuple[np.ndarray, ...]
    density: np.ndarray = field(repr=False)
    density_grad: np.ndarray = field(repr=False)
    bandwidth: np.ndarray

    def __post_init__(self):
        axes = _checked_axes(self.axes)
        shape = tuple(a.size for a in axes)
        density = as_floats("density", self.density)
        grads = as_floats("density derivatives", self.density_grad)
        bandwidth = as_floats("bandwidth", self.bandwidth)
        if density.shape != shape or grads.shape[1:] != shape:
            raise ContractError(
                f"density must have the axes' shape {shape} and density_grad (n,) + that shape, "
                f"got {density.shape} and {grads.shape}"
            )
        if bandwidth.shape != (len(axes),):
            raise ContractError(f"bandwidth needs one width per grid axis ({len(axes)}), got shape {bandwidth.shape}")
        if not (np.isfinite(density).all() and np.isfinite(grads).all()):
            raise ParameterDomainError("density and its derivatives must be finite")
        if not np.all(np.isfinite(bandwidth) & (bandwidth >= 0.0)):
            raise ParameterDomainError(f"bandwidth must be finite and >= 0, got {bandwidth.tolist()}")
        for name, value in (("axes", axes), ("density", density), ("density_grad", grads), ("bandwidth", bandwidth)):
            object.__setattr__(self, name, value)

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
        return functools.reduce(np.multiply.outer, ws)

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


def _checked_axes(axes) -> tuple[np.ndarray, ...]:
    """The grid axes as float vectors; an axis with fewer than 2 points, or
    not 1-D, finite, increasing and evenly spaced, raises
    :class:`ContractError`.  Steps may differ by 1e-6 of their mean plus
    the 4 units in the last place that ``np.linspace`` rounds them by."""
    if not np.iterable(axes):
        raise ContractError(f"grid axes must be a sequence of axes, got {axes!r}")
    axes = tuple(as_floats("axes", a) for a in axes)
    for a in axes:
        steps = np.diff(a) if a.ndim == 1 and np.all(np.isfinite(a)) else np.empty(0)
        if (
            steps.size == 0
            or not np.all(np.isfinite(steps) & (steps > 0.0))
            or np.ptp(steps) > 1e-6 * steps.mean() + 4.0 * np.spacing(np.abs(a).max())
        ):
            raise ContractError("grid axes must be finite, increasing and evenly spaced, with 2 points at least")
    return axes


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

    Returns ``(taps, coordinates, lattice size)``; a width whose taps
    cannot be formed raises :class:`ParameterDomainError`.
    """
    spacing = (axis[-1] - axis[0]) / (axis.size - 1)
    delta = spacing / refine
    width = h * math.sqrt(max(1.0 - (delta / h) ** 2 / 6.0, 0.5))
    reach = _KERNEL_CUT * float(h) / float(delta)
    try:
        pad = int(reach)
        t = np.arange(-pad, pad + 1) * (delta / width)
    except (OverflowError, ValueError, MemoryError):
        # more taps than a float, an array or the memory holds
        raise ParameterDomainError(f"bandwidth {h} needs {reach:.3g} kernel taps each side: the lattice cannot be formed") from None
    taps = np.exp(-0.5 * t * t) / (width * math.sqrt(2.0 * math.pi))
    coords = np.subtract(values, axis[0])
    coords /= delta
    coords += pad
    return taps, coords, (axis.size - 1) * refine + 2 * pad + 1


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
    once, in place: the fractions overwrite ``coords`` (each ``u - floor(u)``
    is exact), and the axis-0 node indices become each cell's flat index.
    Each column then starts from a zeroed lattice and gets
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
    low = []
    for u, size in zip(coords, shape):
        i = u.astype(np.intp)
        low.append(np.minimum(i, size - 2, out=i))
        np.subtract(u, i, out=u)  # the fraction, in place of the coordinate
    # each row's lowest cell node as a C-order flat index; a corner adds a fixed offset to it
    base, *rest = low
    for i, size in zip(rest, shape[1:]):
        base *= size
        base += i
    del low, rest
    corners = [(np.ravel_multi_index(c, shape), c) for c in itertools.product((0, 1), repeat=len(shape))]
    blocks = chunk_ranges(base.size, CHUNK)
    for j in range(-1, scores.shape[1]):
        out = np.zeros(math.prod(shape))
        for offset, corner in corners:
            for start, stop in blocks:
                parts = (f[start:stop] if c else 1.0 - f[start:stop] for f, c in zip(coords, corner))
                shares = functools.reduce(operator.mul, parts)  # no 1 * array, as math.prod's start
                if j >= 0:
                    shares = shares * (scores[start:stop, j] - centre[j])
                np.add.at(out, base[start:stop] + offset, shares)
        yield out.reshape(shape)
        del out


def _smooth(lattices, sums, taps, refine, blocks):
    """``sums[j] = K0 @ lattice j`` (1-D) or ``K0 @ lattice j @ K1.T`` (2-D)
    into the zeroed ``sums``, K being the taps between an axis's nodes and
    its lattice nodes lo..hi-1.

    Node i reads the taps.size lattice nodes from ``refine * i``, so K's
    rows for every ``_STRIP[k]`` consecutive nodes are one Toeplitz strip,
    built once per axis and cut to the block's columns.  Each axis-0 strip
    multiplies only the lattice rows it reads: in 1-D straight into
    ``sums[j]``, in 2-D through each axis-1 tile of the product, each tile
    reading only the columns it needs.  A strip or tile whose windows miss
    the block leaves +0.0.  No lattice is copied, and no dense kernel
    matrix (nodes x block) is formed.
    """
    n_rows = _STRIP[len(taps)]
    bands = []
    for t, n_nodes, (lo, hi) in zip(taps, sums.shape[1:], blocks):
        strip = np.zeros((n_rows, refine * (n_rows - 1) + t.size))
        for i, row in enumerate(strip):
            row[refine * i : refine * i + t.size] = t
        band = []
        for first in range(0, n_nodes, n_rows):
            rows, start = min(n_rows, n_nodes - first), refine * first
            a, b = max(start, lo), min(start + refine * (rows - 1) + t.size, hi)
            if a < b:
                band.append((slice(first, first + rows), strip[:rows, a - start : b - start], slice(a - lo, b - lo)))
        bands.append(band)
    strips, *tiles = bands
    for out in sums:
        cells = next(lattices)
        for nodes0, k0, cells0 in strips:
            if tiles:
                part = k0 @ cells[cells0]
                for nodes1, k1, cells1 in tiles[0]:
                    np.matmul(part[:, cells1], k1.T, out=out[nodes0, nodes1])
            else:
                np.matmul(k0, cells[cells0], out=out[nodes0])
        del cells  # before the next lattice is allocated


def estimate_output_density(
    outputs,
    scores,
    bandwidth=None,
    axes: tuple[np.ndarray, ...] | None = None,
) -> DensityGrid:
    """Kernel-smoothed output density and its parameter derivatives.

    The Dirac delta of the sampling representation is replaced by a product
    Gaussian kernel; the derivative grids weight the same kernels with the
    per-sample scores, centred on their column means (each column's
    pairwise sum, as in ``run_case``'s zero-mean score check).

    The kernel sums are binned (Wand 1994; Fan & Marron 1994).  The weight
    columns [1, centred scores] are binned linearly (bilinearly in 2-D)
    onto a lattice ``_REFINE[k]`` times finer than the output axes (16 in
    1-D, 2 in 2-D) and aligned with them.  The Gaussian sampled on that
    lattice, at the width that makes up for the variance the binning adds
    (:func:`_lattice`), and cut at 8 widths, is then applied once per axis,
    at the axis nodes only, through one banded Toeplitz strip of
    ``_STRIP[k]`` axis nodes at a time (:func:`_smooth`).  Only the block of
    lattice nodes that holds rows is binned and smoothed, each strip
    reading only the lattice nodes its windows reach, one lattice at a time
    and with no copy.  Each node's sum is within w x 2^-51 of the absolute
    products of the dense kernel matrices, w being the block's width summed
    over the axes.  The lattice spans the axes plus 8 widths on each side,
    so rows beyond it, such as far outliers from a fixed grid, are dropped
    and cannot grow memory.

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
    scores = _score_matrix(scores, n)
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
        with np.errstate(over="ignore", invalid="ignore"):
            axes = _grid_axes(outputs, bandwidth, _GRID_POINTS[k])
        try:
            axes = _checked_axes(axes)
        except ContractError:  # beyond the largest float, or nodes that repeat
            raise ParameterDomainError(f"bandwidth {bandwidth.tolist()} gives no grid axes of distinct finite nodes") from None
    else:
        axes = _checked_axes(axes)
        if len(axes) != k:
            raise ContractError("fixed grid dimension does not match outputs")

    refine = _REFINE[k]
    taps, coords, sizes = zip(*(_lattice(v, a, h, refine) for v, a, h in zip(outputs.T, axes, bandwidth)))
    # column by column, the pairwise sums of run_case's score mean: an axis-0
    # reduction of the row-major scores takes ten times as long
    centre = [c.mean() for c in scores.T]
    if any(u.min() < 0.0 or u.max() > size - 1 for u, size in zip(coords, sizes)):
        inside = np.logical_and.reduce([(u >= 0.0) & (u <= size - 1) for u, size in zip(coords, sizes)])
        coords = [u[inside] for u in coords]
        scores = scores[inside]
    blocks = [_block(u, size) for u, size in zip(coords, sizes)]
    for u, (lo, _) in zip(coords, blocks):
        u -= lo  # exact: lo is an integer at or below every coordinate
    sums = np.zeros((scores.shape[1] + 1,) + tuple(a.size for a in axes))
    _smooth(iter(_linear_bin(coords, [hi - lo for lo, hi in blocks], scores, centre)), sums, taps, refine, blocks)
    sums /= n
    return DensityGrid(axes=axes, density=sums[0], density_grad=sums[1:], bandwidth=bandwidth)


def estimate_output_fim(dg: DensityGrid) -> FisherMatrix:
    """Output Fisher information by floored trapezoidal quadrature.

    F_jk = integral of (dp/db_j)(dp/db_k)/p over cells with p at or above
    ``DENSITY_FLOOR * max(p)``.  A warning is attached when more than 5% of
    the grid mass sits below that floor.  An infinite or NaN entry, as from a density that
    underflows on a grid far wider than the outputs, raises
    :class:`EvaluationError`: no bound can be judged against it.

    The grid products are formed with ``out=`` in one reused buffer and in
    the trapezoid weights' own array, in the order of the plain
    expressions, so every entry keeps their bits.
    """
    expect("density grid", dg, DensityGrid)
    w = dg.cell_weights()
    p = dg.density
    mask = p >= DENSITY_FLOOR * p.max()
    buf = np.where(mask, 0.0, p)
    excluded = float(np.sum(np.multiply(w, buf, out=buf)))
    total = float(np.sum(np.multiply(w, p, out=buf)))
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
        # w / p at or above the floor and 0.0 below it
        inv_p = np.divide(w, p, out=w, where=mask)
        inv_p[~mask] = 0.0
        for j in range(n):
            for kk in range(j, n):
                np.multiply(inv_p, grads[j], out=buf)
                val = float(np.sum(np.multiply(buf, grads[kk], out=buf)))
                fim[j, kk] = val
                fim[kk, j] = val
    if not np.all(np.isfinite(fim)):
        raise EvaluationError(f"output Fisher information is not finite: {fim.tolist()}")
    return FisherMatrix(fim)


def estimate_kl(dg_b: DensityGrid, dg_b_plus: DensityGrid) -> float:
    """Relative entropy KL[p(.|b) || p(.|b+db)] by grid quadrature.

    Both grids must be identical; cells where either density falls below
    ``DENSITY_FLOOR`` times its maximum are excluded (the tails there are
    estimator noise).  The grid products of ``w * p * ln(p / q)`` are
    formed with ``out=`` in one reused buffer and in the trapezoid weights'
    own array, in the order of the plain expression, so the sum keeps its
    bits.
    """
    expect("density grid", dg_b, DensityGrid)
    expect("perturbed density grid", dg_b_plus, DensityGrid)
    if not dg_b.same_grid(dg_b_plus):
        raise ContractError("relative entropy needs both densities on the same grid")
    w = dg_b.cell_weights()
    p = dg_b.density
    q = dg_b_plus.density
    mask = (p >= DENSITY_FLOOR * p.max()) & (q >= DENSITY_FLOOR * q.max()) & (p > 0.0) & (q > 0.0)
    # ln(p / q) on the kept cells; elsewhere ln(1.0) = 0.0, which the masked product keeps
    buf = np.divide(p, q, out=np.ones(p.shape), where=mask)
    np.log(buf, out=buf)
    kl = float(np.sum(np.multiply(np.multiply(w, p, out=w), buf, out=buf, where=mask)))
    if kl < -1e-6:
        warnings.warn(f"relative entropy came out {kl:.3e} < 0 beyond quadrature noise", RuntimeWarning)
    return kl
