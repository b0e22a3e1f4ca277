"""The grid forms that bound the working set against the whole-array forms
they replaced, bit for bit.

``mclr._kernel_matrix`` copies each axis node's tap window into a zeroed
matrix; the index formula it replaced, which built offset, mask and gather
arrays the size of the matrix, is kept here as its reference.
``estimate_output_fim`` and ``estimate_kl`` form their grid products in
reused buffers; the plain expressions they replaced are the references.
Equal arrays must also agree in the sign of every zero.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probsens as ps
from probsens.mclr import DENSITY_FLOOR, _kernel_matrix


def _same_bits(a, b) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def index_kernel_matrix(taps, refine, n_nodes, lo, hi):
    """Entry (i, c) is ``taps[lo + c - refine * i]`` inside the taps, else 0.0,
    from a matrix of offsets."""
    offset = np.arange(lo, hi)[None, :] - refine * np.arange(n_nodes)[:, None]
    inside = (offset >= 0) & (offset < taps.size)
    return np.where(inside, taps[np.clip(offset, 0, taps.size - 1)], 0.0)


@st.composite
def kernel_blocks(draw):
    """Taps (signed zeros among them), a refinement, a node count, and a
    block [lo, hi) of the lattice those nodes' windows span, so that a
    block may cut the windows at either end or hold whole ones."""
    size = draw(st.integers(1, 41))
    taps = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(size)
    taps[:: draw(st.integers(2, 5))] = draw(st.sampled_from([0.0, -0.0]))
    refine = draw(st.integers(1, 16))
    n_nodes = draw(st.integers(1, 20))
    lattice = (n_nodes - 1) * refine + size
    lo = draw(st.integers(0, lattice - 1))
    hi = draw(st.integers(lo + 1, lattice))
    return taps, refine, n_nodes, lo, hi


@settings(max_examples=300, deadline=None)
@given(kernel_blocks())
def test_kernel_matrix_matches_index_formula(block):
    assert _same_bits(_kernel_matrix(*block), index_kernel_matrix(*block))


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
