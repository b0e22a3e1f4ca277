import numpy as np
import pytest

import probsens as ps
from probsens import mclr
from conftest import min_eigenvalue, normal_pdf_grid, weight_rows
from probsens.mclr import DensityGrid, _threshold_sums

IDENTITY = ps.InputModel((ps.normal(1.0, 0.2),))


@pytest.fixture(scope="module")
def batch():
    return ps.sample(IDENTITY, 100000, seed=1)


def test_pf_threshold_below_all_samples(batch):
    counts, _ = _threshold_sums(batch.draws[:, 0], [-100.0], "above")
    assert counts[0] / batch.n == 1.0


def test_pf_at_mean_by_symmetry(batch):
    counts, _ = _threshold_sums(batch.draws[:, 0], [1.0], "below")
    pf = counts[0] / batch.n
    assert abs(pf - 0.5) <= 3 * np.sqrt(pf * (1.0 - pf) / batch.n)


def test_pf_at_median_is_half(batch):
    z = float(np.median(batch.draws[:, 0]))
    for direction in ("above", "below"):
        counts, _ = _threshold_sums(batch.draws[:, 0], [z], direction)
        assert abs(counts[0] / batch.n - 0.5) <= 1.0 / batch.n + 1e-12


def test_gradient_is_mean_score_when_always_failing(batch):
    counts, sums = _threshold_sums(batch.draws[:, 0], [-100.0], "above", weight_rows(batch.scores))
    assert counts[0] == batch.n
    # P_f == 1 is parameter independent; gradient is the (zero-mean) score mean
    grad = sums[0] / batch.n
    assert np.allclose(grad, batch.scores.mean(axis=0), rtol=0.0, atol=1e-12)
    assert np.all(np.abs(grad) <= 5 * batch.scores.std(axis=0, ddof=1) / np.sqrt(batch.n))


def test_gradient_closed_form_at_mean(batch):
    # CDF convention at z = mu: d/dmu = -p(mu) = -1.9947, d/dsigma = 0
    curve = ps.sensitivity_curve(batch.draws[:, 0], batch.scores, [50.0], direction="below")
    assert len(curve) == 1
    (z,), (grad,), (grad_se,), (norm_sq,) = curve.z, curve.gradient, curve.grad_std_err, curve.grad_norm_sq
    assert abs(z - 1.0) < 0.01
    assert grad[0] == pytest.approx(-1.9947, rel=0.02)
    assert abs(grad[1]) <= 5 * grad_se[1]
    assert norm_sq == pytest.approx(float(grad @ grad))


def test_gradient_vs_fd_step_1e3(batch, monkeypatch):
    # 1e-3 steps (5e-3 of sigma = 0.2), half the fixed step; agreement
    # wherever |component| > 0.1
    monkeypatch.setattr(mclr, "_FD_REL_STEP", 5e-3)
    curve = ps.sensitivity_curve(batch.draws[:, 0], batch.scores, (10, 30, 50, 70, 90), direction="below")
    fds = ps.estimate_gradient_fd(batch.draws[:, 0], curve.z, IDENTITY, batch, "below")
    for grad, fd in zip(curve.gradient, fds):
        for gj, fj in zip(grad, fd):
            if abs(gj) > 0.1:
                assert abs(gj - fj) / abs(gj) < 0.02


def test_curve_median_and_monotonicity(batch):
    curve = ps.sensitivity_curve(batch.draws[:, 0], batch.scores, range(5, 100, 5), direction="above")
    assert np.all(np.diff(curve.z) > 0)
    assert np.all(np.diff(curve.p_f) <= 0)  # non-increasing in z for exceedance
    assert abs(curve.p_f[len(curve) // 2] - 0.5) <= 1.0 / batch.n + 1e-12


def test_curve_bell_with_flat_top(batch):
    # norm^2 peaks near y = mu and falls toward both tails
    curve = ps.sensitivity_curve(batch.draws[:, 0], batch.scores, range(1, 100), direction="below")
    norms = curve.grad_norm_sq
    peak_z = curve.z[norms.argmax()]
    assert abs(peak_z - 1.0) < 0.05
    assert norms[0] < 0.5 * norms.max()
    assert norms[-1] < 0.5 * norms.max()


def test_curve_rejects_bad_percentiles(batch):
    for percentiles in ([0.0, 50.0], [50.0, 100.0], [np.nan], [50.0, np.nan]):
        with pytest.raises(ps.ParameterDomainError):
            ps.sensitivity_curve(batch.draws[:, 0], batch.scores, percentiles)
    # a 2-D list of percentiles or thresholds is a contract error, not an IndexError
    with pytest.raises(ps.ContractError, match="1-D"):
        ps.sensitivity_curve(batch.draws[:, 0], batch.scores, [[50.0]])
    with pytest.raises(ps.ContractError, match="1-D"):
        ps.estimate_gradient_fd(batch.draws[:, 0], [[1.0]], IDENTITY, batch, "below")
    # a threshold that is not finite has no failure set
    for z in (np.nan, np.inf):
        with pytest.raises(ps.ParameterDomainError, match="thresholds"):
            ps.estimate_gradient_fd(batch.draws[:, 0], [z], IDENTITY, batch, "below")


def test_curve_rejects_scores_of_another_shape(batch):
    gvals = batch.draws[:, 0]
    for scores in (batch.scores[:, 0], batch.scores[1:]):
        with pytest.raises(ps.ContractError, match="scores"):
            ps.sensitivity_curve(gvals, scores, [50.0])
    # no rows at all: refused before the degenerate-output check reduces them
    with pytest.raises(ps.ContractError, match="one row at least"):
        ps.sensitivity_curve(gvals[:0], batch.scores[:0], [50.0])


def test_curve_rejects_unknown_direction(batch):
    # a misspelt direction must not silently fall back to "below"
    for direction in ("Above", "exceed", ""):
        with pytest.raises(ps.ParameterDomainError, match="direction"):
            ps.sensitivity_curve(batch.draws[:, 0], batch.scores, [50.0], direction=direction)


def test_degenerate_output_flagged(batch):
    with pytest.warns(RuntimeWarning, match="degenerate"):
        ps.sensitivity_curve(np.zeros(batch.n), batch.scores, [50.0])


def test_curve_rejects_nonfinite_performance(batch):
    # a sort would count NaN rows as exceedances; the sweep must fail closed
    half_nan = batch.draws[:, 0].copy()
    half_nan[3::2] = np.nan
    for direction in ("above", "below"):
        with pytest.raises(ps.EvaluationError, match="row 3"):
            ps.sensitivity_curve(half_nan, batch.scores, [50.0], direction=direction)
    gv = batch.draws[:, 0].copy()
    gv[7] = -np.inf
    with pytest.raises(ps.EvaluationError, match="row 7"):
        ps.estimate_gradient_fd(gv, [1.0], IDENTITY, batch, "below")
    # a non-finite score would come back as a NaN gradient, read as a violated bound
    for bad in (np.nan, np.inf, -np.inf):
        scores = batch.scores.copy()
        scores[11, 1] = bad
        with pytest.raises(ps.EvaluationError, match="score is not finite at row 11"):
            ps.sensitivity_curve(batch.draws[:, 0], scores, [10.0, 50.0], direction="below")


def test_nonfinite_output_reports_draw_index():
    m = ps.InputModel((ps.normal(0.0, 1.0),))
    b = ps.sample(m, 64, seed=0)

    def bad_h(x):
        out = x[:, 0].copy()
        out[5] = np.nan
        return out

    with pytest.raises(ps.EvaluationError, match="draw 5"):
        ps.evaluate_outputs(bad_h, b.draws)


def test_evaluate_outputs_input_contracts():
    h = lambda x: x[:, 0]  # noqa: E731
    with pytest.raises(ps.ContractError, match="N >= 1"):
        ps.evaluate_outputs(h, np.empty((0, 1)))


# ---------------------------------------------------------------------------
# density grids


@pytest.fixture(scope="module")
def grid(batch):
    return ps.estimate_output_density(batch.draws[:, 0], batch.scores)


def test_density_matches_normal_pdf(grid):
    i = int(np.argmin(np.abs(grid.axes[0] - 1.0)))
    assert grid.density[i] == pytest.approx(1.9947, rel=0.05)


def test_density_mass_invariant(grid):
    assert 0.98 <= grid.mass() <= 1.0 + 1e-9


def test_density_grad_mass_invariant(grid):
    for j in range(2):
        assert abs(grid.grad_mass(j)) <= 0.02


def test_density_grad_matches_closed_form(grid):
    # dp/dmu = (y - mu)/sigma^2 * p(y) for the identity case
    y = grid.axes[0]
    p_exact = np.exp(-0.5 * ((y - 1.0) / 0.2) ** 2) / (0.2 * np.sqrt(2 * np.pi))
    expected = (y - 1.0) / 0.04 * p_exact
    mask = grid.density > 0.1 * grid.density.max()
    # exclude the sign change at y = mu where relative error is undefined
    mask &= np.abs(expected) > 0.1 * np.abs(expected).max()
    rel = np.abs(grid.density_grad[0][mask] - expected[mask]) / np.abs(expected[mask])
    assert rel.max() < 0.10


def test_density_input_contracts(batch):
    with pytest.raises(ps.ContractError):
        ps.estimate_output_density(batch.draws[:500, 0], batch.scores[:500])
    with pytest.raises(ps.ParameterDomainError):
        ps.estimate_output_density(batch.draws[:, 0], batch.scores, bandwidth=0.0)
    # one width, or one per output dimension; an empty list is not the default
    for bandwidth in ([0.04, 0.05], []):
        with pytest.raises(ps.ContractError, match="bandwidth"):
            ps.estimate_output_density(batch.draws[:, 0], batch.scores, bandwidth=bandwidth)
    for bandwidth in ([np.nan], [np.inf]):
        with pytest.raises(ps.ParameterDomainError, match="finite"):
            ps.estimate_output_density(batch.draws[:, 0], batch.scores, bandwidth=bandwidth)
    with pytest.raises(ps.ContractError, match="bandwidth must be numbers"):
        ps.estimate_output_density(batch.draws[:, 0], batch.scores, bandwidth="x")
    with pytest.raises(ps.ContractError):
        ps.estimate_output_density(np.zeros((2000, 3)), np.zeros((2000, 2)))
    with pytest.raises(ps.ContractError, match="scores"):  # one score column as a 1-D array
        ps.estimate_output_density(batch.draws[:, 0], batch.scores[:, 0])
    with pytest.raises(ps.ContractError):  # fixed grid of the wrong dimension
        ps.estimate_output_density(
            batch.draws[:, 0], batch.scores, axes=(np.linspace(0, 2, 64), np.linspace(0, 2, 64))
        )
    # the binning lattice needs evenly spaced increasing axes
    bad_axes = (np.linspace(0, 2, 64) ** 2, np.linspace(2, 0, 64), np.ones(64), np.array([1.0]),
                np.array([0.0, np.inf, 2.0]), np.array([np.nan, 1.0, 2.0]), np.ones((8, 8)))
    for axis in bad_axes:
        with pytest.raises(ps.ContractError, match="evenly spaced"):
            ps.estimate_output_density(batch.draws[:, 0], batch.scores, axes=(axis,))
    y = batch.draws[:, 0].copy()
    y[9] = np.nan
    with pytest.raises(ps.EvaluationError, match="row 9"):
        ps.estimate_output_density(y, batch.scores)
    # a non-finite score would spread NaN over the derivative grid
    for bad in (np.nan, np.inf, -np.inf):
        scores = batch.scores.copy()
        scores[13, 0] = bad
        with pytest.raises(ps.EvaluationError, match="score is not finite at row 13"):
            ps.estimate_output_density(batch.draws[:, 0], scores)


def test_output_fim_identity_trace(grid):
    f = ps.estimate_output_fim(grid)
    assert f.trace == pytest.approx(75.0, rel=0.10)
    assert np.array_equal(f.matrix, f.matrix.T)  # symmetric by construction
    assert min_eigenvalue(f) >= -1e-8 * f.trace


@pytest.mark.parametrize("sigma", [0.1, 0.2, 0.4])
def test_output_fim_scale_check(sigma):
    # doubling sigma quarters the information entries: tr = 3/sigma^2
    m = ps.InputModel((ps.normal(1.0, sigma),))
    b = ps.sample(m, 100000, seed=6)
    dg = ps.estimate_output_density(b.draws[:, 0], b.scores)
    f = ps.estimate_output_fim(dg)
    assert f.trace == pytest.approx(3.0 / sigma**2, rel=0.10)


def _exact_grid(mu, sigma, axes, n_params=1):
    density = normal_pdf_grid(axes[0], mu, sigma)
    return DensityGrid(
        axes=axes,
        density=density,
        density_grad=np.zeros((n_params, axes[0].size)),
        bandwidth=np.array([0.0]),
    )


def test_kl_identical_inputs_is_zero(grid):
    assert ps.estimate_kl(grid, grid) == pytest.approx(0.0, abs=1e-12)


def test_kl_exact_normal_shift():
    axes = (np.linspace(-6.0, 6.0, 2048),)
    dg0 = _exact_grid(0.0, 1.0, axes)
    dg1 = _exact_grid(0.1, 1.0, axes)
    kl = ps.estimate_kl(dg0, dg1)
    assert kl == pytest.approx(0.1**2 / 2.0, rel=0.02)
    assert ps.estimate_kl(dg0, dg0) == 0.0
    assert kl >= -1e-6


def test_kl_grid_mismatch_is_contract_error(grid):
    other = DensityGrid(
        axes=(grid.axes[0] + 1.0,),
        density=grid.density,
        density_grad=grid.density_grad,
        bandwidth=grid.bandwidth,
    )
    with pytest.raises(ps.ContractError):
        ps.estimate_kl(grid, other)


def test_kl_quadratic_consistency_identity(batch, grid):
    db = np.array([0.002, 0.002])  # 0.01 * sigma per parameter
    b2 = ps.sample(IDENTITY.shifted(db), 100000, seed=1)
    dg2 = ps.estimate_output_density(
        b2.draws[:, 0], b2.scores, bandwidth=grid.bandwidth, axes=grid.axes
    )
    f = IDENTITY.fim()
    for kl in (ps.estimate_kl(grid, dg2), ps.estimate_kl(dg2, grid)):
        assert ps.kl_quadratic_consistency(f, db, kl) < 0.05
