"""The layers that stream rows in blocks against the whole-array forms they
replaced, bit for bit.

The threshold sweep (``mclr._threshold_sums``), the finite-difference
oracle's likelihood-ratio weights (``mclr.estimate_gradient_fd``), the
density binning (``mclr._linear_bin``) and the sampler process the batch in
row blocks (``rng.CHUNK`` rows; four times that in the sampler); the
references in ``conftest`` hold every row at once.
The block length is patched down to 4 and 12 rows, so that small inputs
span several blocks and end in a partial one.  Equal arrays must also agree
in the sign of every zero.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probsens as ps
from conftest import (
    bincount_linear_bin,
    peak_bytes,
    stable_threshold_sums,
    weight_rows,
    whole_array_gradient_fd,
    whole_array_normals,
)
from probsens import distributions, mclr, runner
from probsens.distributions import MarginalSpec
from probsens.mclr import _linear_bin, _sort_order, _threshold_sums

BLOCKS = (4, 12)


def _same_bits(a, b) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


_MARGINAL = st.tuples(st.sampled_from(["normal", "lognormal"]), st.floats(-3.0, 3.0), st.floats(0.01, 1.0))


@st.composite
def sweeps(draw):
    """Performance values with ties, weights with signed zeros (all weights
    of the smallest and largest values -0.0 when drawn so, which puts a
    -0.0 in the first sorted row of either direction), and a threshold at
    every distinct value and beyond both ends, so every count from 0 to N
    that the ties allow is read."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = np.round(rng.standard_normal(n), draw(st.integers(0, 2)))
    weights = rng.standard_normal((n, draw(st.integers(1, 3))))
    weights[rng.random(weights.shape) < 0.2] = -0.0
    weights[rng.random(weights.shape) < 0.2] = 0.0
    if draw(st.booleans()):
        weights[(g == g.min()) | (g == g.max())] = -0.0
    zs = np.concatenate([[g.min() - 1.0, g.max() + 1.0], np.unique(g)])
    return g, weights, zs


@pytest.mark.filterwarnings("ignore:degenerate output")
@pytest.mark.parametrize("block", BLOCKS)
@settings(deadline=None)
@given(sweeps(), st.sampled_from(["above", "below"]))
def test_threshold_sums_match_one_cumulative_sum(block, sweep, direction):
    g, weights, zs = sweep
    ref_counts, ref_sums = stable_threshold_sums(g, zs, direction, weights)
    real_sweep, curve_sums = mclr._threshold_sums, []

    def spy(*args):
        # the curve's own call: its score rows and their squares, from its weight function
        out = real_sweep(*args)
        curve_sums.append((args[1], out[1]))
        return out

    with pytest.MonkeyPatch.context() as mp, np.errstate(divide="ignore", invalid="ignore"):
        mp.setattr(mclr, "CHUNK", block)
        for order in (None, _sort_order(g)):
            counts, sums = _threshold_sums(g, zs, direction, weight_rows(weights), order)
            assert np.array_equal(counts, ref_counts)
            assert _same_bits(sums, ref_sums)
        mp.setattr(mclr, "_threshold_sums", spy)
        mclr.sensitivity_curve(g, weights, np.linspace(1.0, 99.0, 9), direction)
    ((curve_z, sums),) = curve_sums
    assert _same_bits(sums, stable_threshold_sums(g, curve_z, direction, np.hstack([weights, weights**2]))[1])


@pytest.mark.parametrize("direction", ["above", "below"])
@pytest.mark.parametrize("block", BLOCKS)
def test_threshold_sums_keep_a_negative_zero_first_row(block, direction):
    # a +0.0 carry into the first block would turn these sums into +0.0
    g = np.arange(10.0)
    weights = np.full((10, 1), -0.0)
    zs = np.arange(-1.0, 10.0)  # counts 0 to N in both directions
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mclr, "CHUNK", block)
        counts, sums = _threshold_sums(g, zs, direction, weight_rows(weights))
    assert sorted(counts) == list(range(11))
    assert np.all(np.signbit(sums[counts > 0])) and not np.any(np.signbit(sums[counts == 0]))


@pytest.mark.parametrize("block", BLOCKS)
@settings(max_examples=40, deadline=None)
@given(
    marginals=st.lists(_MARGINAL, min_size=1, max_size=2),
    n=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    decimals=st.integers(0, 2),
    direction=st.sampled_from(["above", "below"]),
)
def test_gradient_fd_matches_whole_array_weights(block, marginals, n, seed, decimals, direction):
    # tied performance values, and a threshold at every distinct value and beyond both ends
    model = ps.InputModel(tuple(MarginalSpec(*m) for m in marginals))
    batch = ps.sample(model, n, seed)
    g = np.round(np.log(np.abs(batch.draws).sum(axis=1)), decimals)
    zs = np.concatenate([[g.min() - 1.0, g.max() + 1.0], np.unique(g)])
    ref = whole_array_gradient_fd(g, zs, model, batch, direction)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mclr, "CHUNK", block)
        for order in (None, _sort_order(g)):
            assert _same_bits(mclr.estimate_gradient_fd(g, zs, model, batch, direction, _order=order), ref)


@st.composite
def binnings(draw):
    """Lattice coordinates anywhere on a 1-D or 2-D lattice, its ends
    included, and score columns with signed zeros, over up to 60 rows."""
    k = draw(st.sampled_from([1, 2]))
    shape = tuple(draw(st.integers(2, 9)) for _ in range(k))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coords = []
    for size in shape:
        u = rng.random(n) * (size - 1)
        u[rng.random(n) < 0.2] = 0.0
        u[rng.random(n) < 0.2] = size - 1
        coords.append(u)
    scores = rng.standard_normal((n, draw(st.integers(1, 3))))
    scores[rng.random(scores.shape) < 0.2] = -0.0
    centre = scores.mean(axis=0) if draw(st.booleans()) else np.zeros(scores.shape[1])
    return coords, shape, scores, centre


@pytest.mark.parametrize("block", BLOCKS)
@settings(deadline=None)
@given(binnings())
def test_linear_bin_matches_one_bincount_per_column(block, binning):
    coords, shape, scores, centre = binning
    weights = np.column_stack([np.ones(len(scores)), scores - centre])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mclr, "CHUNK", block)
        cells = list(_linear_bin(coords, shape, scores, centre))
    ref = bincount_linear_bin(coords, shape, weights)
    assert len(cells) == len(ref)
    assert all(_same_bits(a, b) for a, b in zip(cells, ref))


def _bincount_adapter(coords, shape, scores, centre):
    return bincount_linear_bin(coords, shape, np.column_stack([np.ones(len(scores)), scores - centre]))


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("k", [1, 2])
def test_density_grid_with_rows_off_a_fixed_grid(k, block, monkeypatch):
    # a batch half off the base grid with one far row, so rows are dropped
    # before binning; 1001 rows end in a partial block of either length
    rng = np.random.default_rng(5)
    n = 1001
    scores = rng.normal(size=(n, 2))
    dg = ps.estimate_output_density(rng.normal(size=(n, k)), scores)
    y = rng.normal(size=(n, k)) + 2.5
    y[7] = 1e6

    def grid():
        return ps.estimate_output_density(y, scores, bandwidth=dg.bandwidth, axes=dg.axes)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mclr, "CHUNK", block)
        blocked = grid()
    monkeypatch.setattr(mclr, "_linear_bin", _bincount_adapter)
    ref = grid()
    assert _same_bits(blocked.density, ref.density)
    assert _same_bits(blocked.density_grad, ref.density_grad)


@pytest.mark.parametrize("block", BLOCKS)
@settings(max_examples=40, deadline=None)
@given(marginals=st.lists(_MARGINAL, min_size=1, max_size=3), n=st.integers(1, 60), seed=st.integers(0, 2**64 - 1))
def test_sample_matches_whole_array_inversion(block, marginals, n, seed):
    model = ps.InputModel(tuple(MarginalSpec(*m) for m in marginals))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distributions, "_INVERSION_CHUNK", block)
        batch = ps.sample(model, n, seed)
    normals = whole_array_normals(model, n, seed)
    assert _same_bits(batch.normals, normals)
    draws = model.from_standard(normals)
    assert _same_bits(batch.draws, draws)
    assert _same_bits(batch.scores, model.scores(draws))


def test_sample_default_chunks_match_whole_array_inversion():
    # the default inversion chunk is a multiple of CHUNK; three chunks, the last partial
    model = ps.InputModel((ps.normal(1.0, 0.2), ps.lognormal(7.88, 0.2)))
    n = 2 * distributions._INVERSION_CHUNK + 5
    assert _same_bits(ps.sample(model, n, 11).normals, whole_array_normals(model, n, 11))


def test_sweep_and_density_memory_does_not_grow_with_the_columns():
    # at N = 1e5 with two scores the whole-array forms traced 11.2 MB (the
    # sweep) and 11.5 MB (the density grid); blocked, 2.0 and 2.9 MB
    n = 100_000
    rng = np.random.default_rng(3)
    g, scores = rng.standard_normal(n), rng.standard_normal((n, 2))
    assert peak_bytes(lambda: mclr.sensitivity_curve(g, scores, np.arange(1, 100), "below")) < 4e6
    assert peak_bytes(lambda: mclr.estimate_output_density(g, scores)) < 4e6


def test_gradient_fd_memory_does_not_grow_with_the_parameters():
    # identity at N = 1e5: forming every row's weights before the sweep
    # traced 6.4 MB; per sorted block, 2.1 MB (the sort of g included)
    model = ps.InputModel((ps.normal(1.0, 0.2),))
    batch = ps.sample(model, 100_000, 1)
    g = batch.draws[:, 0]
    zs = np.linspace(0.5, 1.5, 99)
    assert peak_bytes(lambda: mclr.estimate_gradient_fd(g, zs, model, batch, "below")) < 3e6


def test_two_dimensional_density_holds_one_lattice():
    # the KL batch of the beam at 2000 samples, on its base grid: each of
    # its five weight columns bins onto a 2.65 MB lattice.  Holding the
    # previous lattice while the next is filled traced 10.56 MB; one at a
    # time, 9.55 MB
    case = runner.build_case(runner.RunConfig(case="beam", n_samples=2000))
    batch = ps.sample(case.model, 2000, 1)
    outputs = mclr.evaluate_outputs(case.h, batch.draws)
    scale = case.scale(outputs)
    dg = mclr.estimate_output_density(outputs / scale, batch.scores)
    shifted = case.model.shifted(0.2 * case.model.param_scales())
    draws_p = shifted.from_standard(batch.normals)
    y_p, scores_p = mclr.evaluate_outputs(case.h, draws_p) / scale, shifted.scores(draws_p)
    assert peak_bytes(lambda: mclr.estimate_output_density(y_p, scores_p, bandwidth=dg.bandwidth, axes=dg.axes)) < 10e6
