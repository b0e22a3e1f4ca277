import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import probsens as ps
from probsens import mclr
from probsens._floatfmt import _DECPT, _DIGIT, _E, _K_MAX, _K_MIN, _M32, _M63, _POSITIONS, _SEP, _WORDS, _words
from probsens.errors import ContractError
from probsens.mclr import DensityGrid
from probsens.models import beam as beam_module
from probsens.models.beam import beam_natural_frequencies
from probsens.rng import CHUNK, chunk_ranges, uniform_open
from probsens.special import DIGAMMA_ERROR, digamma, ndtri


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


def _floatfmt_g(k: int) -> int:
    """``floor(10**-k / 2**r) + 1``, with ``r`` such that it lies in [2**125, 2**126)."""
    if k <= 0:
        p = 10**-k
        r = p.bit_length() - 126
        return (p >> r if r >= 0 else p << -r) + 1
    m = 10**k
    return (1 << (125 + m.bit_length())) // m + 1


def floatfmt_tables() -> dict[str, np.ndarray]:
    """The tables of ``_floatfmt._tables`` as they were first built (the
    ``g(k)`` list one power of ten at a time, the digit groups by integer
    division): the reference for the faster construction."""
    # row e is biased exponent e with regular spacing, row 2048 + e the
    # irregular spacing of a power of two (below the smallest normal's)
    q = np.tile(np.arange(2048, dtype=np.int64) - 1075, 2)
    irregular = np.repeat(np.arange(2, dtype=np.int64), 2048)
    # floor(log10(2**q)), or floor(log10(3/4 2**q)); floor(log2(10**-k))
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = q + ((-k * 913_124_641_741) >> 38) + 2
    g = [_floatfmt_g(kk) for kk in range(_K_MIN, _K_MAX + 1)]
    g1 = np.array([x >> 63 for x in g], dtype=np.uint64)[k - _K_MIN]
    g0 = np.array([x & _M63 for x in g], dtype=np.uint64)[k - _K_MIN]
    # row 0 holds zeros, subnormals, infinities and NaN, with f = 0: decpt 1
    # prints a zero as 0.0, and the others take repr
    k[0] = -15

    ascii_digits = np.arange(10, dtype=np.uint8) + ord("0")
    first = np.tile(np.frombuffer(b"-0.0000.", dtype=np.uint8), (10, 1))
    first[:, _DIGIT] = ascii_digits
    group = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    groups = np.full((10_000, 8), ord("."), dtype=np.uint8)
    groups[:, ::2] = ascii_digits[group]
    decpt = np.arange(-_DECPT, _DECPT)
    exp10 = abs(decpt - 1)
    exponents = np.tile(np.frombuffer(b"e+000,  ", dtype=np.uint8), (decpt.size, 1))
    exponents[:, 1] = np.where(decpt - 1 < 0, ord("-"), ord("+"))
    exponents[:, 2:5] = ascii_digits[exp10[:, None] // np.array([100, 10, 1]) % 10]
    # the position, counted from the first digit, of the last non-zero digit
    # of group g at place p (0 for g = 0) is last[p * 10_000 + g]
    length = 4 - np.argmax(group[:, ::-1] != 0, axis=1)
    last = np.where(np.arange(10_000) == 0, 0, np.arange(0, 16, 4)[:, None] + length)

    # mask[neg, use_exp, position, n - 1, slot]; position: decpt + 3 in
    # positional notation, whether the exponent has three digits otherwise
    neg, use_exp, position, n = np.ix_(range(2), range(2), range(_POSITIONS), range(1, 18))
    j = np.arange(8 * _WORDS)
    digit_slot = (j >= _DIGIT) & (j < _E) & (j % 2 == 0)
    dot_slot = (j > _DIGIT) & (j < _E) & (j % 2 == 1)
    i = (j - _DIGIT) // 2
    point = position[..., None] - 3
    n = n[..., None]
    positional = (
        ((j == 1) | (j == 2)) & (point <= 0)
        | (j >= 3) & (j < _DIGIT) & (j - 3 < -point)
        | digit_slot & (i < np.maximum(n, point + 1))
        | dot_slot & (i == point - 1)
    )
    exponential = (
        digit_slot & (i < n)
        | dot_slot & (i == 0) & (n > 1)
        | (j >= _E) & (j < _SEP) & (j != _E + 2)
        | (j == _E + 2) & (position[..., None] == 1)
    )
    mask = (j == 0) & (neg[..., None] == 1) | (j == _SEP) | np.where(use_exp[..., None] == 1, exponential, positional)
    # the part of the mask key that decpt sets: notation and position
    use = (decpt <= -4) | (decpt > 16)
    layout = (use * _POSITIONS + np.where(use, exp10 >= 100, decpt + 3)) * 17

    return {
        "k": k + (_DECPT + 16),
        "h": h.astype(np.uint64),
        "g1": g1,
        "g0": g0,
        "g1_hi": g1 >> 32,
        "g1_lo": g1 & _M32,
        "g0_hi": g0 >> 32,
        "g0_lo": g0 & _M32,
        "words": _words(np.concatenate([first, groups, exponents])),
        "last": last.astype(np.uint8).reshape(-1),
        "layout": layout,
        "masks": _words(mask.reshape(-1, _WORDS, 8) * 0xFF),
    }


def per_row_cross_spectra(wr: np.ndarray, cfg):
    """Trapezoid sums G_ab of Re[T_a conj(T_b)] weighted by 2 S_0 w^4 (acceleration)
    and 2 S_0 (strain), for natural frequencies wr of shape (S, m), with
    every residue and its power u_b**k formed per row: the closed form as it
    was before ``models.beam`` kept per-configuration residue tables.

    Returns ((g_acc, g_str), (e_acc, e_str)): (S, m, m) sums and, for each,
    eps times the sum of the magnitudes of its terms, which bounds the
    rounding error of every G_ab.
    """
    lo, hi = cfg.omega_span
    n = cfg.n_freq
    step = (hi - lo) / (n - 1)
    zeta = cfg.modal_damping
    wr = wr[:, :, None]
    # the poles u of T_a in the upper half plane, (S, m, 2); the complex root
    # keeps overdamped modes (zeta > 1) on the imaginary axis
    u = wr * (np.sqrt(1.0 - zeta * zeta + 0j) * np.array([1.0, -1.0])) + 1j * zeta * wr
    # trapezoid sum of 1 / (w - u) over the grid lo + i step, i < n
    a = (lo - u) / step
    psi_hi, psi_lo = digamma(a + n), digamma(a)
    end_lo, end_hi = 1.0 / (lo - u), 1.0 / (hi - u)
    trap = psi_hi - psi_lo - 0.5 * step * (end_lo + end_hi)
    # what eps-relative rounding can move it by: the magnitudes of its parts,
    # each digamma's own error of DIGAMMA_ERROR eps |psi|,
    # plus (|lo - u| + |u|) times the sum of step / |w - u|^2 over the grid,
    # for rounding of the pole u itself; that sum is at most
    # pi / y + step / y^2 (y = Im u) and at most (hi - lo + step) / d^2 (d the
    # distance from u to the span)
    y = u.imag
    gap = np.maximum(np.maximum(lo - u.real, u.real - hi), 0.0)
    slope = np.minimum(math.pi / y + step / (y * y), (hi - lo + step) / (y * y + gap * gap))
    size = (
        (1.0 + DIGAMMA_ERROR) * (np.abs(psi_hi) + np.abs(psi_lo))
        + 0.5 * step * (np.abs(end_lo) + np.abs(end_hi))
        + (np.abs(lo - u) + np.abs(u)) * slope
    )
    # residue of T_a(w) T_b(-w) at u: T_b(-u) / D_a'(u), (S, m_a, 2, m_b)
    w_b = wr[:, None, None, :, 0]
    u_b = u[..., None]
    res = 1.0 / (2.0 * (1j * zeta * wr - u))[..., None] / (w_b * w_b - u_b * u_b - 2j * zeta * w_b * u_b)
    sums, errs = [], []
    # w^4 T_a(w) T_b(-w) tends to 1 at infinity; its trapezoid sum has hi - lo more
    for k, const in ((4, hi - lo), (0, 0.0)):
        res_k = res * u_b**k
        # the residues at the lower-half-plane poles of pair (a, b) are the
        # conjugates of those at the upper poles of pair (b, a)
        half = (res_k * trap[..., None]).sum(axis=2).real
        terms = (np.abs(res_k) * size[..., None]).sum(axis=2)
        sums.append(2.0 * cfg.force_psd * (half + half.transpose(0, 2, 1) + const))
        errs.append(2.0 * cfg.force_psd * np.finfo(float).eps * (terms + terms.transpose(0, 2, 1) + const))
    return sums, errs


def per_row_beam_peaks(e, rho, cfg):
    """Peak mean squares of acceleration and strain, (S, 2), and their
    rounding bounds by the per-row closed form, all rows at once: the
    reference for ``models.beam._block``."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sums, errs = per_row_cross_spectra(beam_natural_frequencies(e, rho, cfg), cfg)
        peak, shift = [], []
        for num, g, err in zip(beam_module._modal_tables(cfg), sums, errs):
            reach = np.abs(num[:, :, None] * num[:, None, :]).max(axis=0)
            peak.append(pairwise_peak(num, g))
            shift.append((err * reach).sum(axis=(1, 2)))
    return np.column_stack(peak), np.column_stack(shift)


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


def whole_array_gradient_fd(gvals, zs, model, batch, direction="above"):
    """The finite-difference oracle as it was before per-block weights: the
    base log-density, both likelihood ratios and the (N, n) weight
    differences of every row formed before the sweep; the reference for
    ``mclr.estimate_gradient_fd``."""
    steps = mclr._FD_REL_STEP * model.param_scales()
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
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mclr, "DENSITY_FLOOR", 0.0)
            errs_fwd.append(ps.kl_quadratic_consistency(f, db, ps.estimate_kl(dg0, dg1)))
            errs_rev.append(ps.kl_quadratic_consistency(f, db, ps.estimate_kl(dg1, dg0)))
    return [(errs, float(np.polyfit(np.log(scales), np.log(errs), 1)[0])) for errs in (errs_fwd, errs_rev)]
