import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import probsens as ps
from probsens.errors import ContractError
from probsens.mclr import DensityGrid
from probsens.rng import CHUNK, chunk_ranges, uniform_open
from probsens.special import ndtri


def normal_pdf_grid(axis: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    """Exact Normal pdf evaluated on a grid (for oracle density pairs)."""
    z = (axis - mu) / sigma
    return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))


def norm_sq_dy(mu: float, sigma: float, y) -> np.ndarray:
    """First y-derivative of the identity case's squared sensitivity norm:
    -2 p^2 (y-mu)^3 / sigma^4."""
    y = np.asarray(y, dtype=float)
    pdf, dev = normal_pdf_grid(y, mu, sigma), y - mu
    return -2.0 * pdf * pdf * dev**3 / sigma**4


def norm_sq_d2y(mu: float, sigma: float, y) -> np.ndarray:
    """Second y-derivative: -2 p^2 [3(y-mu)^2 - 2(y-mu)^4/sigma^2] / sigma^4."""
    y = np.asarray(y, dtype=float)
    pdf, dev = normal_pdf_grid(y, mu, sigma), y - mu
    return -2.0 * pdf * pdf * (3.0 * dev**2 - 2.0 * dev**4 / sigma**2) / sigma**4


def identity_stationarity(mu: float, sigma: float) -> tuple[float, float]:
    """First and second y-derivatives of the norm at y = mu; both vanish,
    leaving the characteristic flat top of the sensitivity-norm curve."""
    return float(norm_sq_dy(mu, sigma, mu)), float(norm_sq_d2y(mu, sigma, mu))


def pairwise_peak(num: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The largest num^T G num over positions for each row of a symmetric G,
    accumulated one (S, positions) multiply-add per upper-triangle pair: the
    reference for ``models.beam._peak``."""
    m = num.shape[1]
    sq = np.zeros((g.shape[0], num.shape[0]))
    term = np.empty_like(sq)
    for a in range(m):
        for b in range(a, m):
            pair = num[:, a] * num[:, b] * (1.0 if a == b else 2.0)
            np.multiply(g[:, a, b, None], pair, out=term)
            sq += term
    return sq.max(axis=1)


def weight_rows(weights):
    """The weight function of ``mclr._threshold_sums`` for a whole (N, columns)
    matrix: the rows of an array of row indices, gathered with ``np.take``."""
    return functools.partial(np.take, np.asarray(weights, dtype=float), axis=0)


def stable_threshold_sums(gvals, zs, direction, weights=None):
    """The sweep as it was before ``mclr._sort_order`` and ``np.take``: the
    stable argsort of g and a fancy-index gather of the sorted weight rows,
    the reference for ``mclr._threshold_sums``."""
    order = np.argsort(gvals, kind="stable")
    n_below = np.searchsorted(gvals[order], zs, side="right")
    counts = n_below if direction == "below" else gvals.size - n_below
    if weights is None:
        return counts, None
    sorted_w = weights[order] if direction == "below" else weights[order[::-1]]
    csum = np.zeros((gvals.size + 1,) + weights.shape[1:])
    np.cumsum(sorted_w, axis=0, out=csum[1:])
    return counts, csum[counts]


def bincount_linear_bin(coords, shape, weights):
    """The binning as it was before row blocks: every corner's nodes and
    shares concatenated, and one ``bincount`` per column of the (N, columns)
    ``weights``; the reference for ``mclr._linear_bin``."""
    low = [np.minimum(u.astype(np.intp), size - 2) for u, size in zip(coords, shape)]
    frac = [u - i for u, i in zip(coords, low)]
    nodes, shares = [], []
    for corner in itertools.product((0, 1), repeat=len(shape)):
        nodes.append(np.ravel_multi_index([i + c for i, c in zip(low, corner)], shape))
        shares.append(math.prod(f if c else 1.0 - f for f, c in zip(frac, corner)))
    nodes, shares = np.concatenate(nodes), np.concatenate(shares)
    tiles = 2 ** len(shape)
    return [np.bincount(nodes, shares * np.tile(w, tiles), math.prod(shape)).reshape(shape) for w in weights.T]


def whole_array_gradient_fd(gvals, zs, model, batch, direction="above", rel_step=1e-2):
    """The finite-difference oracle as it was before per-block weights: the
    base log-density, both likelihood ratios and the (N, n) weight
    differences of every row formed before the sweep; the reference for
    ``mclr.estimate_gradient_fd``."""
    steps = rel_step * model.param_scales()
    base_logp = model.logpdf(batch.draws)
    wdiff = np.empty((batch.n, model.n_params))
    for j, step in enumerate(steps):
        db = np.zeros(model.n_params)
        db[j] = step
        w_plus = np.exp(model.shifted(db).logpdf(batch.draws) - base_logp)
        w_minus = np.exp(model.shifted(-db).logpdf(batch.draws) - base_logp)
        wdiff[:, j] = (w_plus - w_minus) / (2.0 * step)
    _, sums = stable_threshold_sums(np.asarray(gvals, dtype=float), np.asarray(zs, dtype=float), direction, wdiff)
    return sums / batch.n


def whole_array_normals(model: ps.InputModel, n: int, seed: int) -> np.ndarray:
    """The standard normals of ``sample`` as one ``ndtri`` over each whole
    column of uniforms; the reference for the chunked inversion."""
    normals = np.empty((n, model.n_inputs))
    for j in range(model.n_inputs):
        normals[:, j] = ndtri(uniform_open(seed, j, 0, n))
    return normals


def _gauss(grid: np.ndarray, pts: np.ndarray, h: float) -> np.ndarray:
    """Kernel matrix K[(grid_i - pt_j)/h] / h, shape (grid, pts)."""
    z = (grid[:, None] - pts[None, :]) / h
    return np.exp(-0.5 * z * z) / (h * math.sqrt(2.0 * math.pi))


def exact_output_density(outputs, scores, bandwidth, axes) -> DensityGrid:
    """The kernel sum of every row at every grid node, with no binning: the
    reference for the binned estimator, on the same bandwidth and axes."""
    outputs = np.asarray(outputs, dtype=float).reshape(len(scores), -1)
    bandwidth = np.asarray(bandwidth, dtype=float)
    n, n_params = scores.shape
    centred = scores - scores.mean(axis=0)
    shape = tuple(ax.size for ax in axes)
    density = np.zeros(shape)
    grads = np.zeros((n_params,) + shape)
    for start, stop in chunk_ranges(n, CHUNK):
        kms = [_gauss(ax, outputs[start:stop, j], bandwidth[j]) for j, ax in enumerate(axes)]
        if len(axes) == 1:
            density += kms[0].sum(axis=1)
            grads += (kms[0] @ centred[start:stop]).T
        else:
            a, b = kms
            density += a @ b.T
            for j in range(n_params):
                grads[j] += a @ (b * centred[start:stop, j][None, :]).T
    return DensityGrid(axes=axes, density=density / n, density_grad=grads / n, bandwidth=bandwidth)


def peak_bytes(fn) -> int:
    """Peak bytes traced by tracemalloc while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def min_eigenvalue(fim: ps.FisherMatrix) -> float:
    return float(np.linalg.eigvalsh(fim.matrix).min())


def joint_score_and_fim(model: ps.InputModel, batch: ps.ScoredSampleBatch):
    """Joint scores, the analytic input FIM, and its Monte-Carlo estimate.

    Returns ``(scores, fim, fim_mc)`` where ``fim_mc`` is the sample mean of
    the score outer products E[s s^T], used to cross-validate the analytic
    block-diagonal matrix.
    """
    scores = model.scores(batch.draws)
    if scores.shape != batch.scores.shape:
        raise ContractError("batch was not drawn from this model (score shape mismatch)")
    mc = (scores.T @ scores) / scores.shape[0]
    mc = 0.5 * (mc + mc.T)
    return scores, model.fim(), ps.FisherMatrix(mc)


def all_failure_sets(d: int) -> np.ndarray:
    """Every subset of d cells as a (2^d, d) 0/1 matrix."""
    return np.array(list(itertools.product((0, 1), repeat=d)))


@pytest.fixture(scope="session")
def exact_normal_kl_errors():
    """KL/quadratic-form relative errors of exact normal densities under
    (mu, sigma) shifts of s * sigma for s halving from 0.01: one
    ``(errors, log-log slope against s)`` pair per KL ordering."""
    mu, sigma = 1.0, 0.2
    axis = np.linspace(mu - 8 * sigma, mu + 8 * sigma, 4096)
    f = ps.FisherMatrix(np.diag([1.0 / sigma**2, 2.0 / sigma**2]))

    def grid(mu_, sigma_):
        return DensityGrid(
            axes=(axis,),
            density=normal_pdf_grid(axis, mu_, sigma_),
            density_grad=np.zeros((2, axis.size)),
            bandwidth=np.array([0.0]),
        )

    scales = [0.01 / 2**k for k in range(5)]
    errs_fwd, errs_rev = [], []
    for s in scales:
        db = np.array([s * sigma, s * sigma])
        dg0 = grid(mu, sigma)
        dg1 = grid(mu + db[0], sigma + db[1])
        # exact densities carry no estimator noise: disable the tail floor
        errs_fwd.append(ps.kl_quadratic_consistency(f, db, ps.estimate_kl(dg0, dg1, floor=0.0)))
        errs_rev.append(ps.kl_quadratic_consistency(f, db, ps.estimate_kl(dg1, dg0, floor=0.0)))
    return [(errs, float(np.polyfit(np.log(scales), np.log(errs), 1)[0])) for errs in (errs_fwd, errs_rev)]
