"""The working set of each N-length stage, and the grid forms that bound
it against the whole-array forms they replaced.

``sample``, ``InputModel.from_standard``, ``InputModel.scores`` and
``evaluate_outputs`` write each N-length result straight into the one
array that keeps it, and the 1-D density holds two N-length arrays, the
lattice coordinates (split in place into fractions) and the cell index.
tracemalloc's peak is deterministic, so each bound is the arrays the
design keeps plus a fixed allowance.

``mclr._smooth`` applies the kernel to a lattice block through one banded
strip per axis, in 1-D and in 2-D; the dense kernel matrices it replaced,
built from an index formula, are kept here as its reference, and the two
products agree within the stated bound w x 2^-51 (|K| |cells| ...).  It
holds one lattice at a time and copies none.  ``estimate_output_fim`` and
``estimate_kl`` form their grid products in reused buffers; the plain
expressions they replaced are the references, bit for bit.  Equal arrays
must also agree in the sign of every zero.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probsens as ps
from conftest import peak_bytes
from probsens import distributions, mclr, runner
from probsens.mclr import DENSITY_FLOOR, _REFINE, _STRIP, _block, _lattice, _smooth
from probsens.rng import CHUNK, uniform_open
from probsens.special import ndtri

N = 100_000
# numpy's array objects, views and the ufuncs' own buffers: far below one
# N-length array (800 kB)
_OBJECTS = 16e3
_MODELS = {
    "identity": ps.InputModel((ps.normal(1.0, 0.2),)),
    "normal-lognormal": ps.InputModel((ps.normal(1.0, 0.2), ps.lognormal(7.88, 0.2))),
}


def _support_mask(model) -> int:
    # a lognormal's support check forms one bool per row
    return N * any(m.family == "lognormal" for m in model.marginals)


@pytest.mark.parametrize("name", list(_MODELS))
def test_sample_holds_its_batch_and_one_inversion_chunk(name):
    # identity: 3.20 MB, the normals, draws and scores alone.  Drawing and
    # scoring through whole-column temporaries traced 5.60 MB
    model = _MODELS[name]
    batch = ps.sample(model, N, 1)
    kept = batch.normals.nbytes + batch.draws.nbytes + batch.scores.nbytes
    chunk = peak_bytes(lambda: ndtri(uniform_open(1, 0, 0, distributions._INVERSION_CHUNK)))
    assert peak_bytes(lambda: ps.sample(model, N, 1)) <= kept + chunk + _support_mask(model) + _OBJECTS


@pytest.mark.parametrize("name", list(_MODELS))
def test_draws_and_scores_trace_only_their_result(name):
    # two marginals: stacking columns formed apart traced 3.20 MB for
    # 1.6 MB of draws and 6.40 MB for 3.2 MB of scores
    model = _MODELS[name]
    batch = ps.sample(model, N, 1)
    assert peak_bytes(lambda: model.from_standard(batch.normals)) <= batch.draws.nbytes + _OBJECTS
    assert peak_bytes(lambda: model.scores(batch.draws)) <= batch.scores.nbytes + _support_mask(model) + _OBJECTS


@pytest.mark.parametrize("h", [lambda x: x[:, 0], lambda x: 2.0 * x], ids=["view", "new-array"])
def test_evaluate_outputs_traces_its_result_and_a_chunk(h):
    # one chunk's outputs, the next chunk's as it is formed, and one
    # chunk's finiteness mask beside the result.  A list of chunks and its
    # concatenation traced 1.00 and 1.80 MB
    draws = ps.sample(_MODELS["identity"], N, 1).draws
    out = mclr.evaluate_outputs(h, draws)
    row = out.nbytes // N
    assert peak_bytes(lambda: mclr.evaluate_outputs(h, draws)) <= out.nbytes + CHUNK * (2 * row + row // 8) + _OBJECTS


@pytest.mark.parametrize("shared_scores", [True, False], ids=["scores", "density-only"])
def test_one_dimensional_density_holds_two_row_arrays(shared_scores):
    # the lattice coordinates, split in place into fractions, and one cell
    # index per row are the only N-length arrays, beside the grid sums, the
    # lattice block, one strip and at most eight block-length temporaries of
    # the binning (shares, weights and node indices of a block and the
    # next): 2.11 MB.  The coordinates' temporaries, the clamped index's
    # and fractions formed apart traced 3.01 MB
    batch = ps.sample(_MODELS["identity"], N, 1)
    y = batch.draws[:, 0].copy()
    scores = batch.scores if shared_scores else np.empty((N, 0))
    dg = mclr.estimate_output_density(y, scores, bandwidth=[0.04])
    taps, coords, size = _lattice(y, dg.axes[0], dg.bandwidth[0], _REFINE[1])
    lo, hi = _block(coords, size)
    rows = _STRIP[1]
    grid = dg.density.nbytes + dg.density_grad.nbytes + 8 * (hi - lo) + 8 * rows * (_REFINE[1] * (rows - 1) + taps.size)
    bound = 2 * 8 * N + grid + taps.nbytes + 8 * 8 * CHUNK + _OBJECTS
    assert peak_bytes(lambda: mclr.estimate_output_density(y, scores, bandwidth=[0.04])) <= bound


@pytest.mark.parametrize("name", list(_MODELS))
def test_batch_scores_are_the_marginal_score_formula(name):
    # every batch's score columns come from MarginalSpec.score's formula,
    # bit for bit, and that formula is the plain expression
    model = _MODELS[name]
    batch = ps.sample(model, 3 * CHUNK + 5, 7)
    for j, m in enumerate(model.marginals):
        x = batch.draws[:, j]
        dev = (np.log(x) if m.family == "lognormal" else x) - m.mu
        s2 = m.sigma * m.sigma
        plain = np.stack([dev / s2, (dev * dev - s2) / (s2 * m.sigma)], axis=-1)
        assert _same_bits(batch.scores[:, 2 * j : 2 * j + 2], m.score(x))
        assert _same_bits(m.score(x), plain)


def _same_bits(a, b) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def index_kernel_matrix(taps, refine, n_nodes, lo, hi):
    """Entry (i, c) is ``taps[lo + c - refine * i]`` inside the taps, else 0.0,
    from a matrix of offsets."""
    offset = np.arange(lo, hi)[None, :] - refine * np.arange(n_nodes)[:, None]
    inside = (offset >= 0) & (offset < taps.size)
    return np.where(inside, taps[np.clip(offset, 0, taps.size - 1)], 0.0)


@st.composite
def lattice_blocks(draw):
    """One or two axes, each with taps, a node count (below, at and above
    multiples of its ``_STRIP``) and a block [lo, hi) of the lattice its
    windows span, which may cut the windows at either end or miss some of
    them wholly; one refinement (up to 16 in 1-D, 4 in 2-D); and random
    lattice values on the block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.sampled_from([1, 2]))
    refine = draw(st.integers(1, 16 if k == 1 else 4))
    rows = _STRIP[k]
    axes = []
    for _ in range(k):
        taps = rng.random(draw(st.integers(1, 41)))
        n_nodes = draw(st.sampled_from([1, 2, rows - 1, rows, rows + 1, 2 * rows, 2 * rows + 7]))
        lattice = (n_nodes - 1) * refine + taps.size
        lo = draw(st.integers(0, lattice - 1))
        axes.append((taps, n_nodes, lo, draw(st.integers(lo + 1, lattice))))
    cells = rng.standard_normal(tuple(hi - lo for _, _, lo, hi in axes))
    return cells, refine, axes


def _kernel_products(ks, cells):
    """``K0 @ cells``, or ``K0 @ cells @ K1.T`` with two kernel matrices."""
    out = ks[0] @ cells
    return out @ ks[1].T if len(ks) == 2 else out


@settings(max_examples=300, deadline=None)
@given(lattice_blocks())
def test_banded_smoothing_matches_dense_kernel_matrices(block):
    # Either product of a sum of m terms is within gamma_m = m u / (1 - m u)
    # of the product of the absolute values (u = 2^-53) per product,
    # whatever the order of the terms (Higham, Accuracy and Stability, 3.5),
    # and m is at most the block's width on that axis: so the two differ by
    # at most 2 gamma_w0 |K0| |cells| in 1-D and
    # 2 (gamma_w0 + gamma_w1 + gamma_w0 gamma_w1) |K0| |cells| |K1|^T in
    # 2-D, below (w0 + w1) 2^-51 times it.  Where a node's window misses the
    # block both read exact +0.0.
    cells, refine, axes = block
    out = np.zeros((1,) + tuple(n_nodes for _, n_nodes, _, _ in axes))
    _smooth(iter([cells]), out, [taps for taps, *_ in axes], refine, [(lo, hi) for *_, lo, hi in axes])
    ks = [index_kernel_matrix(taps, refine, n_nodes, lo, hi) for taps, n_nodes, lo, hi in axes]
    scale = _kernel_products([np.abs(k) for k in ks], np.abs(cells))
    assert np.all(np.abs(out[0] - _kernel_products(ks, cells)) <= sum(cells.shape) * 2.0**-51 * scale)
    for axis, k in enumerate(ks):
        missed = np.moveaxis(out[0], axis, 0)[~k.any(axis=1)]
        assert not np.any(missed) and not np.signbit(missed).any()


@pytest.mark.parametrize(
    "case, n, slack",
    [
        # identity: three grid sums (12 KB), a 6455-node lattice block
        # (52 KB) and one 8-row strip (301 KB); the rest, the taps (37 KB),
        # the binning's per-row state and one block's temporaries, traced
        # 115 KB (480 KB in all).  A lattice copy traced 516 KB, the
        # previous lattice held 532 KB
        ("identity", 1000, 0.13e6),
        # beam: five grid sums (2.62 MB), a 427 x 429 lattice block
        # (1.47 MB) and two 32-row strips (0.15 MB); the rest, binning
        # temporaries and one strip's product, traced 0.37 MB (4.60 MB in
        # all).  One axis-nodes x block kernel matrix (256 x 429, 0.88 MB)
        # traced 5.48 MB
        ("beam", 2000, 0.5e6),
    ],
    ids=["identity", "beam"],
)
def test_smoothing_holds_one_lattice_and_one_strip_per_axis(case, n, slack):
    # the base density at seed 1.  A copy of the lattice, the previous
    # lattice held while the next one is binned or a dense kernel matrix
    # breaks the bound
    config = runner.RunConfig(case=case, n_samples=n)
    built = runner.build_case(config)
    batch = ps.sample(built.model, n, 1)
    outputs = mclr.evaluate_outputs(built.h, batch.draws)
    y = (outputs / built.scale(outputs)).reshape(n, -1)
    dg = mclr.estimate_output_density(y, batch.scores)
    sums = dg.density.nbytes + dg.density_grad.nbytes
    refine, rows = _REFINE[dg.ndim], _STRIP[dg.ndim]
    taps, coords, sizes = zip(*(_lattice(v, a, h, refine) for v, a, h in zip(y.T, dg.axes, dg.bandwidth)))
    lattice = 8 * math.prod(hi - lo for lo, hi in map(_block, coords, sizes))
    strips = sum(8 * rows * (refine * (rows - 1) + t.size) for t in taps)
    assert peak_bytes(lambda: mclr.estimate_output_density(y, batch.scores)) < sums + lattice + strips + slack


@pytest.mark.parametrize(
    "config", [{"case": "identity", "n_samples": 4000}, {"case": "beam", "n_samples": 2000, "perturbation_scale": 0.2}]
)
def test_density_centre_is_the_run_score_mean(config, monkeypatch):
    # the base density centres its score columns on the means of run_case's
    # zero-mean score check, bit for bit: the score mean has one definition
    centres = []
    linear_bin = mclr._linear_bin

    def recording(coords, shape, scores, centre):
        centres.append(centre)
        return linear_bin(coords, shape, scores, centre)

    monkeypatch.setattr(mclr, "_linear_bin", recording)
    report = runner.run_case(runner.RunConfig(**config))
    assert _same_bits(np.array(centres[0]), np.array(report["_scores"]["mean"]))


def plain_fim(dg):
    """``estimate_output_fim``'s quadrature as plain whole-grid expressions."""
    w = dg.cell_weights()
    p = dg.density
    mask = p >= DENSITY_FLOOR * p.max()
    inv_p = np.where(mask, w / np.where(mask, p, 1.0), 0.0)
    n = dg.density_grad.shape[0]
    fim = np.empty((n, n))
    for j in range(n):
        for k in range(j, n):
            fim[j, k] = fim[k, j] = float(np.sum(inv_p * dg.density_grad[j] * dg.density_grad[k]))
    return fim


def plain_kl(dg_b, dg_b_plus):
    """``estimate_kl``'s quadrature as plain whole-grid expressions."""
    w = dg_b.cell_weights()
    p, q = dg_b.density, dg_b_plus.density
    mask = (p >= DENSITY_FLOOR * p.max()) & (q >= DENSITY_FLOOR * q.max()) & (p > 0.0) & (q > 0.0)
    ratio = np.where(mask, p / np.where(mask, q, 1.0), 1.0)
    return float(np.sum(np.where(mask, w * p * np.log(ratio), 0.0)))


@st.composite
def grid_pairs(draw):
    """Two densities with their derivative grids on one 1-D or 2-D grid,
    with cells at zero and below the floor in either, and a positive
    maximum."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = tuple(draw(st.lists(st.integers(2, 40), min_size=1, max_size=2)))
    axes = tuple(np.linspace(-1.0, 2.0, n) for n in shape)
    n_params = draw(st.integers(1, 4))
    grids = []
    for _ in range(2):
        p = rng.lognormal(sigma=3.0, size=shape)
        p[rng.random(shape) < draw(st.floats(0.0, 0.5))] = 0.0
        p[rng.random(shape) < 0.2] *= DENSITY_FLOOR * 0.1
        p.flat[rng.integers(p.size)] = 1.0  # a positive maximum
        grad = rng.standard_normal((n_params,) + shape)
        grids.append(ps.DensityGrid(axes=axes, density=p, density_grad=grad, bandwidth=np.ones(len(shape))))
    return grids


def _same_quadratures(dg, dg_p) -> bool:
    return (
        _same_bits(ps.estimate_output_fim(dg).matrix, plain_fim(dg))
        and _same_bits(np.array(ps.estimate_kl(dg, dg_p)), np.array(plain_kl(dg, dg_p)))
        and _same_bits(np.array(ps.estimate_kl(dg_p, dg)), np.array(plain_kl(dg_p, dg)))
    )


@settings(max_examples=200, deadline=None)
@given(grid_pairs())
def test_grid_quadratures_match_plain_expressions(grids):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert _same_quadratures(*grids)


@pytest.mark.parametrize("k", [1, 2])
def test_grid_quadratures_match_plain_expressions_on_estimated_grids(k):
    # a density estimate and, on its grid, that of the outputs moved by 1%
    model = ps.InputModel((ps.normal(1.0, 0.2), ps.normal(0.5, 0.1)))
    batch = ps.sample(model, 3000, 7)
    outputs = batch.draws[:, :k]
    dg = ps.estimate_output_density(outputs, batch.scores)
    dg_p = ps.estimate_output_density(outputs * 1.01, np.empty((batch.n, 0)), axes=dg.axes)
    assert _same_quadratures(dg, dg_p)
