"""The sorted threshold sweep against the per-threshold loop it replaced.

``_reference_*`` below are the masked-mean loops the sweep superseded,
kept as the reference: one full pass over the rows per threshold.  The
sweep must give the same counts bit for bit, and the same sums up to
reordered floating-point addition.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probsens as ps
from probsens import mclr, runner
from probsens.mclr import _sort_order, _threshold_sums
from probsens.runner import RunConfig, _auto_perturbations, _fd_check, build_case, run_case

from conftest import stable_threshold_sums, weight_rows

# Reordering N additions moves a sum by a few ulps of the sum of magnitudes.
SUM_RTOL = 1e-12
# Sequential and pairwise sums of 1e5 scores differ by ~1e-14 of the largest
# gradient component; a wrong failure set moves it by ~1e-5.
COLUMN_RTOL = 1e-10


def _reference_indicator(gvals, z, direction):
    above = gvals > z
    return (above if direction == "above" else ~above).astype(float)


def _reference_curve(gvals, percentiles, scores, direction):
    """The columns z, p_f, std_err_pf, gradient, grad_norm_sq and
    grad_std_err, one row per threshold."""
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
    return tuple(map(np.array, zip(*rows)))


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


def _reference_sorted_counts(gvals, zs, direction):
    """How the sweep counted before counting without a sort of g: the
    thresholds' ``searchsorted(side="right")`` positions in the sorted g."""
    n_below = np.searchsorted(np.sort(gvals, kind="stable"), zs, side="right")
    return n_below if direction == "below" else gvals.size - n_below


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
    z, pf, se, grad, norm, grad_se = _reference_curve(gvals, config.percentiles, batch.scores, case.direction)
    assert len(curve) == len(config.percentiles)
    for new, ref in ((curve.z, z), (curve.p_f, pf), (curve.std_err_pf, se)):
        assert np.array_equal(new, ref)
    # from two moments instead of centred squares: ~1e-12 relative apart
    assert np.allclose(curve.grad_std_err, grad_se, rtol=COLUMN_RTOL, atol=0.0)
    _assert_columns_close(curve.gradient, grad)
    _assert_columns_close(curve.grad_norm_sq, norm)

    zs = curve.z
    fds = ps.estimate_gradient_fd(gvals, zs, case.model, batch, case.direction)
    ref_fds = _reference_fd(gvals, zs, case.model, batch, case.direction, mclr._FD_REL_STEP)
    _assert_columns_close(fds, ref_fds)
    big = np.abs(grad) > 0.1
    ref_max_rel = float((np.abs(grad - ref_fds)[big] / np.abs(grad[big])).max())
    max_rel = _fd_check(case, batch, gvals, curve, config.percentiles)["max_rel_err"]
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
    counts, sums = _threshold_sums(gvals, zs, direction, weight_rows(weights))

    # against the reference loop
    ref = [_reference_indicator(gvals, z, direction) for z in zs]
    assert np.array_equal(counts, [int(ind.sum()) for ind in ref])
    assert np.all(np.abs(sums - np.array([ind @ weights for ind in ref])) <= SUM_RTOL * col_scale)

    # row order changes the counts not at all, the sums only by rounding
    perm = list(range(n))
    rnd.shuffle(perm)
    counts_p, sums_p = _threshold_sums(gvals[perm], zs, direction, weight_rows(weights[perm]))
    assert np.array_equal(counts_p, counts)
    assert np.all(np.abs(sums_p - sums) <= SUM_RTOL * col_scale)

    # the two directions partition the rows
    other = "below" if direction == "above" else "above"
    counts_o, sums_o = _threshold_sums(gvals, zs, other, weight_rows(weights))
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
    for z, p_f, grad in zip(curve.z, curve.p_f, curve.gradient):
        counts, sums = _threshold_sums(gvals, [z], direction, weight_rows(weights))
        assert p_f == counts[0] / n
        assert np.array_equal(grad, sums[0, :2] / n)


@settings(deadline=None)
@given(sweeps(), st.sampled_from(["above", "below"]), st.randoms(use_true_random=False))
def test_count_only_sweep_matches_sorted_counts(sweep, direction, rnd):
    # thresholds on tied values, repeated and out of order
    gvals, weights, zs = sweep
    zs = np.concatenate([zs, zs[: len(zs) // 2 + 1]])
    rnd.shuffle(zs)
    counts, sums = _threshold_sums(gvals, zs, direction)
    assert sums is None and counts.dtype.kind == "i"
    assert np.array_equal(counts, _reference_sorted_counts(gvals, zs, direction))
    assert np.array_equal(counts, _threshold_sums(gvals, zs, direction, weight_rows(weights))[0])


# ---------------------------------------------------------------------------
# the tie-guarded default sort against the stable sort it stands in for

@st.composite
def sort_inputs(draw):
    """Performance values with and without ties, long enough for numpy's
    default sort to leave its insertion-sort path: normal draws, the same
    rounded, a few repeated values, or signed zeros among them; shuffled,
    sorted or reversed."""
    n = draw(st.integers(min_value=1, max_value=3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "rounded", "repeated", "signed_zeros"]))
    g = rng.standard_normal(n)
    if kind == "rounded":
        g = np.round(g, draw(st.integers(0, 4)))
    elif kind == "repeated":
        g = rng.integers(-3, 4, n).astype(float)
    elif kind == "signed_zeros":
        g[rng.random(n) < 0.2] = 0.0
        g[rng.random(n) < 0.2] = -0.0
    layout = draw(st.sampled_from(["shuffled", "sorted", "reversed"]))
    if layout == "sorted":
        g = np.sort(g, kind="stable")
    elif layout == "reversed":
        g = np.sort(g, kind="stable")[::-1].copy()
    return g


@settings(deadline=None)
@given(st.one_of(sort_inputs(), st.lists(st.floats(allow_nan=False), min_size=1, max_size=40).map(np.array)))
def test_sort_order_is_the_stable_argsort(g):
    assert np.array_equal(_sort_order(g), np.argsort(g, kind="stable"))


@pytest.mark.parametrize(
    "g", [[0.5], [-0.0], [1.0, 2.0], [2.0, 1.0], [1.0, 1.0], [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]]
)
def test_sort_order_on_one_and_two_values(g):
    g = np.array(g)
    assert np.array_equal(_sort_order(g), np.argsort(g, kind="stable"))


@settings(deadline=None)
@given(
    st.one_of(sort_inputs(), sweeps().map(lambda sweep: sweep[0])),
    st.sampled_from(["above", "below"]),
    st.integers(0, 2**32 - 1),
)
def test_threshold_sums_match_stable_gather(g, direction, seed):
    # with and without weights, and with the order passed in, bit for bit
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((g.size, 3))
    zs = np.concatenate([rng.standard_normal(5), rng.choice(g, 4)])
    for w in (None, weights):
        ref_counts, ref_sums = stable_threshold_sums(g, zs, direction, w)
        for order in (None, _sort_order(g)):
            counts, sums = _threshold_sums(g, zs, direction, None if w is None else weight_rows(w), order)
            assert np.array_equal(counts, ref_counts)
            assert (sums is None) if w is None else np.array_equal(sums, ref_sums)


def _stable_argsort(gvals):
    return np.argsort(gvals, kind="stable")


@pytest.mark.parametrize(
    "case_name, overrides",
    [
        ("identity", {"n_samples": 8193}),
        ("sho", {"n_samples": 4000}),
        ("beam", {"n_samples": 2000, "perturbation_scale": 0.2}),
    ],
)
def test_run_case_identical_with_the_stable_sort(case_name, overrides, monkeypatch):
    config = RunConfig(case=case_name, **overrides)

    def report_and_grid():
        report = run_case(config)
        dg = report.pop("_density_grid")
        # the curve object; its values are the report's rows
        report.pop("_curve")
        return json.dumps(report, sort_keys=True), dg

    report, dg = report_and_grid()
    monkeypatch.setattr(mclr, "_sort_order", _stable_argsort)
    monkeypatch.setattr(runner, "_sort_order", _stable_argsort)
    ref_report, ref_dg = report_and_grid()
    assert report == ref_report
    for a, b in zip((*dg.axes, dg.density, dg.density_grad), (*ref_dg.axes, ref_dg.density, ref_dg.density_grad)):
        assert np.array_equal(a, b)
