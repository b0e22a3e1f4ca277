"""The sorted threshold sweep against the per-threshold loop it replaced.

``_reference_*`` below are the masked-mean loops the sweep superseded,
kept as the reference: one full pass over the rows per threshold.  The
sweep must give the same counts bit for bit, and the same sums up to
reordered floating-point addition.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probsens as ps
from probsens.mclr import _threshold_sums
from probsens.runner import RunConfig, _auto_perturbations, _fd_check, build_case

# Reordering N additions moves a sum by a few ulps of the sum of magnitudes.
SUM_RTOL = 1e-12
# Sequential and pairwise sums of 1e5 scores differ by ~1e-14 of the largest
# gradient component; a wrong failure set moves it by ~1e-5.
COLUMN_RTOL = 1e-10


def _reference_indicator(gvals, z, direction):
    above = gvals > z
    return (above if direction == "above" else ~above).astype(float)


def _reference_curve(gvals, percentiles, scores, direction):
    """(z, p_f, std_err_pf, gradient, grad_norm_sq, grad_std_err) per threshold."""
    n = gvals.size
    rows = []
    for p in percentiles:
        z = float(np.percentile(gvals, p))
        ind = _reference_indicator(gvals, z, direction)
        summand = ind[:, None] * scores
        grad = summand.mean(axis=0)
        pf = float(np.mean(ind))
        rows.append(
            (z, pf, math.sqrt(pf * (1.0 - pf) / n), grad, float(grad @ grad),
             summand.std(axis=0, ddof=1) / math.sqrt(n))
        )
    return rows


def _reference_fd(gvals, zs, model, batch, direction, rel_step):
    steps = rel_step * model.param_scales()
    base_logp = model.logpdf(batch.draws)
    wdiff = np.empty((model.n_params, batch.n))
    for j in range(model.n_params):
        db = np.zeros(model.n_params)
        db[j] = steps[j]
        w_plus = np.exp(model.shifted(db).logpdf(batch.draws) - base_logp)
        w_minus = np.exp(model.shifted(-db).logpdf(batch.draws) - base_logp)
        wdiff[j] = (w_plus - w_minus) / (2.0 * steps[j])
    return np.array([wdiff @ _reference_indicator(gvals, z, direction) / batch.n for z in zs])


def _reference_pf(gvals, zs, direction):
    return np.array([float(np.mean(_reference_indicator(gvals, z, direction))) for z in zs])


def _assert_columns_close(new, ref):
    new, ref = (np.reshape(a, (len(a), -1)) for a in (new, ref))
    scale = np.abs(ref).max(axis=0)
    assert np.all(np.abs(new - ref) <= COLUMN_RTOL * scale)


WORKLOADS = {
    "identity": {},
    "sho": {},
    "beam": {"n_samples": 2000, "perturbation_scale": 0.2},
}


@pytest.mark.parametrize("seed", [1, 7, 141])
@pytest.mark.parametrize("case_name", sorted(WORKLOADS))
def test_sweep_matches_per_threshold_loop(case_name, seed):
    config = RunConfig(case=case_name, seed=seed, **WORKLOADS[case_name])
    case = build_case(config)
    n = config.n_samples
    batch = ps.sample(case.model, n, seed)
    outputs = ps.evaluate_outputs(case.h, batch.draws)
    scale = case.scale(outputs)
    y = outputs / scale
    gvals = case.g(y)

    curve = ps.sensitivity_curve(gvals, batch.scores, config.percentiles, case.direction)
    ref = _reference_curve(gvals, config.percentiles, batch.scores, case.direction)
    for res, (z, pf, se, grad, norm, grad_se) in zip(curve, ref):
        assert (res.z, res.p_f, res.std_err_pf) == (z, pf, se)
        # from two moments instead of centred squares: ~1e-12 relative apart
        assert np.allclose(res.grad_std_err, grad_se, rtol=COLUMN_RTOL, atol=0.0)
    _assert_columns_close([r.gradient for r in curve], [row[3] for row in ref])
    _assert_columns_close([r.grad_norm_sq for r in curve], [row[4] for row in ref])

    zs = np.array([r.z for r in curve])
    fds = ps.estimate_gradient_fd(gvals, zs, case.model, batch, case.direction, rel_step=config.fd_rel_step)
    ref_fds = _reference_fd(gvals, zs, case.model, batch, case.direction, config.fd_rel_step)
    _assert_columns_close(fds, ref_fds)
    ref_grads = np.array([row[3] for row in ref])
    big = np.abs(ref_grads) > 0.1
    ref_max_rel = float((np.abs(ref_grads - ref_fds)[big] / np.abs(ref_grads[big])).max())
    max_rel = _fd_check(case, batch, gvals, curve, config.percentiles, config.fd_rel_step)["max_rel_err"]
    assert max_rel == pytest.approx(ref_max_rel, rel=1e-8)

    # perturbed batches: p_f at the base thresholds, bit for bit
    for db in _auto_perturbations(case.model, config.perturbation_scale):
        batch_p = ps.sample(case.model.shifted(db), n, seed)
        gvals_p = case.g(ps.evaluate_outputs(case.h, batch_p.draws) / scale)
        counts, _ = _threshold_sums(gvals_p, zs, case.direction)
        assert np.array_equal(counts / n, _reference_pf(gvals_p, zs, case.direction))


# ---------------------------------------------------------------------------
# properties of the kernel on small inputs with many ties

@st.composite
def sweeps(draw):
    n = draw(st.integers(min_value=2, max_value=60))
    # few distinct values, so thresholds land on ties
    gvals = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float)
    weights = np.array(
        draw(st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=2 * n, max_size=2 * n))
    ).reshape(n, 2)
    zs = np.array(draw(st.lists(st.floats(-4.0, 4.0, allow_nan=False), min_size=1, max_size=8)))
    zs = np.concatenate([zs, draw(st.lists(st.sampled_from(gvals.tolist()), max_size=4))])
    return gvals, weights, zs


@settings(deadline=None)
@given(sweeps(), st.sampled_from(["above", "below"]), st.randoms(use_true_random=False))
def test_sweep_properties(sweep, direction, rnd):
    gvals, weights, zs = sweep
    n = gvals.size
    col_scale = np.abs(weights).sum(axis=0)
    counts, sums = _threshold_sums(gvals, zs, direction, weights)

    # against the reference loop
    ref = [_reference_indicator(gvals, z, direction) for z in zs]
    assert np.array_equal(counts, [int(ind.sum()) for ind in ref])
    assert np.all(np.abs(sums - np.array([ind @ weights for ind in ref])) <= SUM_RTOL * col_scale)

    # row order changes the counts not at all, the sums only by rounding
    perm = list(range(n))
    rnd.shuffle(perm)
    counts_p, sums_p = _threshold_sums(gvals[perm], zs, direction, weights[perm])
    assert np.array_equal(counts_p, counts)
    assert np.all(np.abs(sums_p - sums) <= SUM_RTOL * col_scale)

    # the two directions partition the rows
    other = "below" if direction == "above" else "above"
    counts_o, sums_o = _threshold_sums(gvals, zs, other, weights)
    assert np.all(counts + counts_o == n)
    assert np.all(np.abs((sums + sums_o) / n - weights.mean(axis=0)) <= SUM_RTOL * col_scale / n)


@pytest.mark.filterwarnings("ignore:degenerate output")
@settings(deadline=None)
@given(sweeps(), st.sampled_from(["above", "below"]), st.lists(st.floats(1.0, 99.0), min_size=1, max_size=6))
def test_one_threshold_call_matches_curve_row(sweep, direction, percentiles):
    gvals, scores, _ = sweep
    n = gvals.size
    curve = ps.sensitivity_curve(gvals, scores, percentiles, direction)
    weights = np.concatenate([scores, scores**2], axis=1)
    for res in curve:
        counts, sums = _threshold_sums(gvals, [res.z], direction, weights)
        assert res.p_f == counts[0] / n
        assert np.array_equal(res.gradient, sums[0, :2] / n)
