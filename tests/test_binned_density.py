"""The binned density grid against the exact kernel sum it replaced.

``conftest.exact_output_density`` sums every row's kernel at every grid
node, the estimator the binned one replaced, kept as the reference.  On
the shipped cases the binned grid must match it to the bounds below, set
four to thirty times above the largest shift measured at seeds 1, 7 and
141.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import probsens as ps
from conftest import exact_output_density, peak_bytes
from probsens.mclr import _linear_bin
from probsens.runner import RunConfig, _auto_perturbations, build_case

# Largest shifts measured (1-D: identity and sho at 1e5 samples; 2-D: beam
# at 2000 samples), each on the base and the perturbed grid: density 8.6e-8
# and 2.7e-5 of its peak, density_grad 4.9e-7 and 2.0e-4 of its peak, F_y
# entries 1.8e-9 and 2.1e-6 of tr(F_y), KL 2.9e-7 and 4.4e-5 relative, mass
# and grad_mass 1.7e-10 and 3.5e-7 of the grid's absolute mass.
BOUNDS = {
    1: {"density": 1e-6, "density_grad": 2e-6, "fim": 1e-8, "kl": 1e-5, "mass": 1e-9},
    2: {"density": 2e-4, "density_grad": 1e-3, "fim": 2e-5, "kl": 5e-4, "mass": 2e-6},
}

WORKLOADS = {
    "identity": {},
    "sho": {},
    "beam": {"n_samples": 2000, "perturbation_scale": 0.2},
}


def _batch_outputs(case, model, n, seed, scale):
    batch = ps.sample(model, n, seed)
    return ps.evaluate_outputs(case.h, batch.draws) / scale, batch


def _assert_grids_close(new, ref, bounds):
    def peak_rel(a, b):
        return np.abs(a - b).max() / np.abs(b).max()

    assert all(np.array_equal(a, b) for a, b in zip(new.axes, ref.axes))
    assert peak_rel(new.density, ref.density) <= bounds["density"]
    for got, want in zip(new.density_grad, ref.density_grad):
        assert peak_rel(got, want) <= bounds["density_grad"]
    w = ref.cell_weights()
    assert abs(new.mass() - ref.mass()) <= bounds["mass"] * np.sum(w * np.abs(ref.density))
    for j, want in enumerate(ref.density_grad):
        assert abs(new.grad_mass(j) - ref.grad_mass(j)) <= bounds["mass"] * np.sum(w * np.abs(want))


@pytest.mark.parametrize("seed", [1, 7, 141])
@pytest.mark.parametrize("case_name", sorted(WORKLOADS))
def test_binned_grid_matches_exact_kernel_sum(case_name, seed):
    config = RunConfig(case=case_name, seed=seed, **WORKLOADS[case_name])
    case = build_case(config)
    n = config.n_samples
    outputs, batch = _batch_outputs(case, case.model, n, seed, 1.0)
    scale = case.scale(outputs)
    y = outputs / scale
    # the perturbed batch of the run's KL block, on the base grid
    db = next(v for v in _auto_perturbations(case.model, config.perturbation_scale) if np.all(v > 0))
    y_p, batch_p = _batch_outputs(case, case.model.shifted(db), n, seed, scale)

    dg = ps.estimate_output_density(y, batch.scores)
    dg_p = ps.estimate_output_density(y_p, batch_p.scores, bandwidth=dg.bandwidth, axes=dg.axes)
    ref = exact_output_density(y, batch.scores, dg.bandwidth, dg.axes)
    ref_p = exact_output_density(y_p, batch_p.scores, dg.bandwidth, dg.axes)
    bounds = BOUNDS[dg.ndim]

    _assert_grids_close(dg, ref, bounds)
    _assert_grids_close(dg_p, ref_p, bounds)
    f_y, f_ref = ps.estimate_output_fim(dg), ps.estimate_output_fim(ref)
    assert np.abs(f_y.matrix - f_ref.matrix).max() <= bounds["fim"] * f_ref.trace
    for kl, kl_ref in ((ps.estimate_kl(dg, dg_p), ps.estimate_kl(ref, ref_p)),
                       (ps.estimate_kl(dg_p, dg), ps.estimate_kl(ref_p, ref))):
        assert kl_ref > 0.0
        assert abs(kl - kl_ref) <= bounds["kl"] * kl_ref


@pytest.mark.parametrize("k", [1, 2])
def test_rows_off_a_fixed_grid(k):
    # a batch shifted half off the base grid, with one row at 1e6: the
    # lattice is bounded by the axes plus the kernel cut, so the far rows
    # are dropped, memory does not grow, and the grid still matches the
    # exact sum, to which those rows add nothing above rounding
    rng = np.random.default_rng(11)
    n = 4000
    base = rng.normal(size=(n, k))
    scores = rng.normal(size=(n, 2))
    dg = ps.estimate_output_density(base, scores)
    shifted = base + 2.5
    far = shifted.copy()
    far[0] = 1e6

    # the binning error integrates to zero over a whole density, not over a
    # grid that cuts it off: there mass moves as much as density_grad does
    bounds = {**BOUNDS[k], "mass": BOUNDS[k]["density_grad"]}
    grids = [ps.estimate_output_density(y, scores, bandwidth=dg.bandwidth, axes=dg.axes) for y in (shifted, far)]
    for y, grid in zip((shifted, far), grids):
        assert np.all(np.isfinite(grid.density)) and np.all(np.isfinite(grid.density_grad))
        _assert_grids_close(grid, exact_output_density(y, scores, dg.bandwidth, dg.axes), bounds)

    def density_of(y):
        return lambda: ps.estimate_output_density(y, scores, bandwidth=dg.bandwidth, axes=dg.axes)

    assert peak_bytes(density_of(far)) <= 1.05 * peak_bytes(density_of(shifted))
    # a grid of the batch's own range: its far row only widens the axes
    assert np.all(np.isfinite(ps.estimate_output_density(far, scores).density))


@st.composite
def binnings(draw):
    k = draw(st.sampled_from([1, 2]))
    shape = tuple(draw(st.integers(2, 9)) for _ in range(k))
    n = draw(st.integers(1, 40))
    # coordinates anywhere in the lattice, its two ends included
    coord = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]))
    coords = [np.array(draw(st.lists(coord, min_size=n, max_size=n))) * (size - 1) for size in shape]
    cols = draw(st.integers(1, 3))
    weights = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n * cols, max_size=n * cols))).reshape(n, cols)
    return coords, shape, weights


@settings(deadline=None)
@given(binnings())
@example(([np.array([0.0]), np.array([0.5])], (2, 2), np.array([[5e-324]])))  # both halves underflow
def test_linear_binning_keeps_column_totals_and_means(binning):
    coords, shape, scores = binning
    # uncentred, the weight columns are the ones column and the scores as drawn
    cells = np.array(list(_linear_bin([u.copy() for u in coords], shape, scores, np.zeros(scores.shape[1]))))
    weights = np.column_stack([np.ones(len(scores)), scores])
    assert cells.shape == (weights.shape[1],) + shape
    # rounding: relative to the column's absolute sum, plus the absolute
    # floor of a product that underflows, one per node a row is split to
    tol = 1e-12 * np.abs(weights).sum(axis=0) + 2 ** len(shape) * len(weights) * np.finfo(float).smallest_subnormal
    axes = tuple(range(1, len(shape) + 1))
    assert np.all(np.abs(cells.sum(axis=axes) - weights.sum(axis=0)) <= tol)
    # linear binning also keeps every column's first moment along each axis
    for j, u in enumerate(coords):
        node = np.arange(shape[j]).reshape([-1 if a == j else 1 for a in range(len(shape))])
        moment = (cells * node).sum(axis=axes)
        assert np.all(np.abs(moment - u @ weights) <= tol * shape[j])
