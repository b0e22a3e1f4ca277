import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probsens as ps
from conftest import all_failure_sets
from probsens.mclr import SensitivityResult


def _curve(gradients, z=None, p_f=None):
    """A curve with the given (T, n) gradient rows; z and p_f default to
    0 and 0.5 in every row."""
    gradients = np.asarray(gradients, dtype=float)
    t = gradients.shape[0]
    return SensitivityResult(
        z=np.zeros(t) if z is None else np.asarray(z, dtype=float),
        p_f=np.full(t, 0.5) if p_f is None else np.asarray(p_f, dtype=float),
        gradient=gradients,
        grad_norm_sq=np.vecdot(gradients, gradients),
        std_err_pf=np.zeros(t),
        grad_std_err=np.zeros_like(gradients),
    )


def test_titu_equality_and_strict_cases():
    lhs, rhs, ok = ps.titu([1.0, 1.0], [1.0, 1.0])
    assert (lhs, rhs, ok) == (2.0, 2.0, True)
    lhs, rhs, ok = ps.titu([1.0, 2.0], [1.0, 1.0])
    assert lhs == pytest.approx(4.5)
    assert rhs == pytest.approx(5.0)
    assert ok


def test_titu_randomized_property():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        k = int(rng.integers(2, 16))
        u = rng.uniform(0.0, 10.0, size=k)
        v = rng.uniform(1e-3, 10.0, size=k)
        _, _, ok = ps.titu(u, v)
        assert ok


def test_titu_input_validation():
    with pytest.raises(ps.ParameterDomainError):
        ps.titu([1.0], [0.0])
    with pytest.raises(ps.ContractError):
        ps.titu([1.0, 2.0], [1.0])
    # bad input is refused, not read as a violation of the lemma
    for u, v in (([1.0], [np.nan]), ([np.nan], [1.0]), ([np.inf], [1.0]), ([1.0], [np.inf])):
        with pytest.raises(ps.ParameterDomainError):
            ps.titu(u, v)


def test_pinsker_identity_and_direct_value():
    rep = ps.pinsker_check([0.5, 0.5], [0.5, 0.5])
    assert rep.lhs == 0.0 and rep.satisfied
    rep = ps.pinsker_check([0.6, 0.4], [0.5, 0.5])
    kl = 0.6 * np.log(1.2) + 0.4 * np.log(0.8)
    assert rep.lhs == pytest.approx(0.04)
    assert rep.rhs == pytest.approx(2 * kl)
    assert rep.satisfied
    assert rep.context["chain_ok"]


def test_pinsker_randomized_property():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        k = int(rng.integers(2, 11))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k)) + 1e-12
        q /= q.sum()
        assert ps.pinsker_check(p, q).satisfied


def test_pinsker_support_violation():
    with pytest.raises(ps.SupportError):
        ps.pinsker_check([0.5, 0.5], [1.0, 0.0])
    # a NaN probability is bad input, not a violated bound
    with pytest.raises(ps.ParameterDomainError):
        ps.pinsker_check([0.5, 0.5], [np.nan, np.nan])
    # PMFs on supports of different sizes are refused, not an IndexError
    for call in (ps.pinsker_check, ps.discrete_kl):
        with pytest.raises(ps.ContractError, match="support"):
            call([0.5, 0.5], [0.2, 0.3, 0.5])


def test_sensitivity_bound_reports():
    f_y = ps.FisherMatrix(np.diag([20.0, 40.0]))
    f_x = ps.FisherMatrix(np.diag([25.0, 50.0]))
    # a zero gradient is trivially satisfied with margin tr(F_y)
    r1 = ps.check_sensitivity_bound(_curve([[1.0, 2.0], [0.0, 0.0]]), f_y)
    assert r1.satisfied.tolist() == [True, True] and r1.rhs == pytest.approx(60.0)
    assert r1.lhs[0] == pytest.approx(5.0) and r1.margin[1] == pytest.approx(f_y.trace)
    # the chain's second link tr(F_y) <= tr(F_x) does not depend on the threshold
    r2 = ps.info_processing_check(f_y, f_x)
    assert r2.satisfied and r2.margin == pytest.approx(15.0)


def test_sensitivity_bound_dimension_mismatch():
    f_y = ps.FisherMatrix(np.diag([1.0, 2.0]))
    with pytest.raises(ps.ContractError):
        ps.check_sensitivity_bound(_curve([[1.0], [0.5]]), f_y)
    with pytest.raises(ps.ContractError):  # one threshold's gradient, not a (T, n) curve
        ps.check_sensitivity_bound(dataclasses.replace(_curve([[1.0, 0.0]]), gradient=np.array([1.0, 0.0])), f_y)


def test_sensitivity_bound_judges_every_row():
    # one comparison over the whole curve, row by row the pass rule
    # lhs <= rhs + 1e-12 max(1, rhs): rows at the bound, inside its
    # tolerance and just past it
    f_y = ps.FisherMatrix(np.diag([20.0, 40.0]))
    rng = np.random.default_rng(5)
    grads = rng.normal(0.0, 5.0, size=(40, 2))
    edge = np.sqrt(f_y.trace / 2.0)
    grads = np.vstack([grads, [[edge, edge], [edge, edge * (1 + 1e-14)], [edge, edge * (1 + 1e-9)]]])
    t = len(grads)
    rep = ps.check_sensitivity_bound(_curve(grads, z=0.1 * np.arange(t), p_f=np.arange(t) / 50), f_y)
    norm_sq = [float(g @ g) for g in grads]
    assert rep.lhs.tolist() == norm_sq
    assert rep.rhs == f_y.trace == 60.0
    assert rep.margin.tolist() == [60.0 - v for v in norm_sq]
    assert rep.satisfied.tolist() == [v <= 60.0 + 1e-12 * 60.0 for v in norm_sq]
    assert rep.satisfied.tolist()[-3:] == [True, True, False]
    assert 0 < np.count_nonzero(rep.satisfied) < t
    assert rep.context["z"].tolist() == [0.1 * i for i in range(t)]
    assert rep.context["p_f"].tolist() == [i / 50 for i in range(t)]


def test_perturbation_bound_zero_shift():
    f = ps.FisherMatrix(np.diag([25.0, 50.0]))
    rep = ps.check_perturbation_bound(0.3, 0.3, np.zeros(2), f)
    assert rep.satisfied and rep.lhs == 0.0 and rep.rhs == 0.0


def test_perturbation_bound_identity_numbers():
    # delta-mu = 0.01 at sigma = 0.2: |dPf|^2 ~ (p(mu)*0.01)^2 <= 25e-4
    f = ps.FisherMatrix(np.diag([25.0, 50.0]))
    dpf = 1.9947 * 0.01
    rep = ps.check_perturbation_bound(0.5, 0.5 + dpf, np.array([0.01, 0.0]), f)
    assert rep.lhs == pytest.approx(3.98e-4, rel=0.01)
    assert rep.rhs == pytest.approx(2.5e-3)
    assert rep.satisfied
    assert rep.context["delta_h"] == pytest.approx(1.25e-3)


def test_perturbation_bound_vacuous_warning():
    f = ps.FisherMatrix(np.diag([25.0, 50.0]))
    with pytest.warns(RuntimeWarning, match="vacuous"):
        rep = ps.check_perturbation_bound(0.1, 0.2, np.array([1.0, 0.0]), f)
    assert rep.context["vacuous"]


def test_perturbation_bound_arrays_match_scalar_calls():
    # one call over every threshold: elementwise the scalar call's numbers,
    # and a vacuous bound warns once per call
    f = ps.FisherMatrix(np.diag([25.0, 50.0]))
    rng = np.random.default_rng(4)
    pb, pp = rng.uniform(0.0, 1.0, size=(2, 40))
    db = np.array([0.05, -0.02])
    rep = ps.check_perturbation_bound(pb, pp, db, f)
    scalar = [ps.check_perturbation_bound(b, p, db, f) for b, p in zip(pb, pp)]
    assert rep.lhs.tolist() == [r.lhs for r in scalar]
    assert rep.margin.tolist() == [r.margin for r in scalar]
    assert rep.satisfied.tolist() == [r.satisfied for r in scalar]
    assert 0 < np.count_nonzero(rep.satisfied) < pb.size
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ps.check_perturbation_bound(pb, pp, np.array([1.0, 0.0]), f)
    assert [str(w.message) for w in caught] == ["perturbation quadratic form 25 > 1: bound is vacuous"]
    # arrays of different lengths are refused, not broadcast
    for b, p in (([0.1, 0.2], [0.1]), (0.1, [0.1, 0.2]), (pb, pp[:-1])):
        with pytest.raises(ps.ContractError):
            ps.check_perturbation_bound(b, p, db, f)
    # a failure probability that is not finite is bad input, not a violated bound
    for b, p in ((0.1, np.nan), (np.inf, 0.1), (pb, np.where(np.arange(pb.size) == 3, np.nan, pp))):
        with pytest.raises(ps.ParameterDomainError):
            ps.check_perturbation_bound(b, p, db, f)


def test_bound_report_tolerance_rule():
    rep = ps.BoundReport.of("t", 1.0 + 1e-13, 1.0)
    assert rep.satisfied  # inside 1e-12 * max(1, rhs)
    rep = ps.BoundReport.of("t", 1.0 + 1e-11, 1.0)
    assert not rep.satisfied


def test_fisher_matrix_validation():
    with pytest.raises(ps.ContractError):
        ps.FisherMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))  # asymmetric
    with pytest.raises(ps.ContractError):
        ps.FisherMatrix(np.array([[1.0, 0.0], [0.0, -0.5]]))  # negative eigenvalue
    with pytest.raises(ps.ContractError):
        ps.FisherMatrix(np.ones((2, 3)))  # not square
    for bad in (np.nan, np.inf):
        with pytest.raises(ps.ParameterDomainError):
            ps.FisherMatrix(np.array([[bad]]))
    f = ps.FisherMatrix(np.diag([2.0, 3.0]))
    assert f.quad_form([1.0, 1.0]) == pytest.approx(5.0)
    with pytest.raises(ps.ContractError):
        f.quad_form([1.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# discrete simplex oracle


def test_bernoulli_oracle_values():
    def pmf(b):
        theta = float(b[0])
        return np.array([1.0 - theta, theta])

    fam = ps.DiscretePmfFamily(d=2, pmf=pmf)
    res = ps.discrete_simplex_oracle(fam, np.array([0.5]), np.array([1e-3]), [[0, 1]])
    assert res.delta_pf[0] == pytest.approx(1e-3)
    assert res.delta_pf[0] ** 2 == pytest.approx(1e-6)
    # Bernoulli information 1/(theta(1-theta)) = 4 at theta = 0.5
    assert res.quad_form == pytest.approx(4e-6, rel=1e-4)
    assert res.eq2_satisfied[0]
    assert res.geometric_satisfied[0]
    # first-order sqrt-space distance is a quarter of the quadratic form
    assert res.d1_sq_linear == pytest.approx(res.quad_form / 4.0, rel=1e-6)


def test_oracle_zero_shift():
    res = ps.discrete_simplex_oracle(ps.binomial_family(5), np.array([0.4]), np.array([0.0]), [[1, 0, 0, 1, 0, 0]])
    assert res.delta_pf[0] == 0.0 and res.d1_sq == 0.0 and res.quad_form == 0.0


def test_oracle_rejects_malformed_failure_sets():
    fam = ps.binomial_family(2)
    for bad in ([0, 1, 1], [[0, 1]], [[0, 2, 1]], [[0.5, 0, 0]]):
        with pytest.raises(ps.ContractError, match="failure sets"):
            ps.discrete_simplex_oracle(fam, [0.5], [1e-3], bad)


def test_oracle_fd_jacobian_agrees_with_analytic():
    fam = ps.binomial_family(6)
    fam_fd = ps.DiscretePmfFamily(d=fam.d, pmf=fam.pmf, dpdb=None)
    b = np.array([0.37])
    assert np.allclose(fam.jacobian(b), fam_fd.jacobian(b), rtol=1e-8, atol=1e-12)


def test_binomial_pmf_closed_form_and_domain():
    fam = ps.binomial_family(9)
    p = fam.pmf(np.array([0.3]))
    t = Fraction(0.3)
    exact = [float(math.comb(9, k) * t**k * (1 - t) ** (9 - k)) for k in range(10)]
    assert np.allclose(p, exact, rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError):
        p[0] = 1.0  # shared by every family over the same (n_trials, theta)
    with pytest.raises(ps.ParameterDomainError):
        fam.pmf(np.array([1.0]))
    with pytest.raises(ps.ParameterDomainError):
        ps.binomial_family(1001)
    # a fractional or boolean trial count is refused, not built with d = n + 1
    for n_trials in (2.5, 9.0, True, "9"):
        with pytest.raises(ps.ParameterDomainError):
            ps.binomial_family(n_trials)


@pytest.mark.parametrize("theta", [0.2, 0.5, 0.8])
def test_binomial_exhaustive_failure_sets(theta):
    # every subset of {0..5}: the perturbation bound must hold each time
    res = ps.discrete_simplex_oracle(ps.binomial_family(5), np.array([theta]), np.array([1e-3]), all_failure_sets(6))
    assert res.eq2_satisfied.shape == (64,)
    assert np.all(res.eq2_satisfied), np.flatnonzero(~res.eq2_satisfied)
    assert np.all(res.geometric_satisfied), np.flatnonzero(~res.geometric_satisfied)


def _softmax_family(w):
    d = w.size

    def pmf(b):
        logits = w + b[0] * np.arange(d)
        e = np.exp(logits - logits.max())
        return e / e.sum()

    return ps.DiscretePmfFamily(d=d, pmf=pmf)


def test_exhaustive_small_supports_random_families():
    # random softmax-parameterised families on supports d <= 6, all failure sets
    rng = np.random.default_rng(3)
    for d in (2, 3, 4, 5, 6):
        fam = _softmax_family(rng.normal(size=d))
        res = ps.discrete_simplex_oracle(fam, np.array([0.3]), np.array([1e-3]), all_failure_sets(d))
        assert np.all(res.eq2_satisfied)


softmax_cases = st.tuples(
    st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=8).map(np.array),
    st.floats(-1.0, 1.0),
    st.floats(-0.05, 0.05),
)


@settings(deadline=None)
@given(softmax_cases, st.data())
def test_one_set_call_matches_its_row(case, data):
    w, b, db = case
    fam = _softmax_family(w)
    sets = all_failure_sets(w.size)
    full = ps.discrete_simplex_oracle(fam, [b], [db], sets)
    i = data.draw(st.integers(0, len(sets) - 1))
    one = ps.discrete_simplex_oracle(fam, [b], [db], sets[i : i + 1])
    for field in dataclasses.fields(full):
        whole = getattr(full, field.name)
        row = whole[i : i + 1] if np.ndim(whole) else whole  # per-set arrays, then per-family scalars
        assert np.array_equal(getattr(one, field.name), row), field.name


@settings(deadline=None)
@given(softmax_cases)
def test_worst_set_margin_is_total_variation(case):
    # the set {q > p} moves by the total variation distance, and no set moves further
    w, b, db = case
    fam = _softmax_family(w)
    res = ps.discrete_simplex_oracle(fam, [b], [db], all_failure_sets(w.size))
    tv = float(np.sum(np.maximum(fam.probs([b + db]) - fam.probs([b]), 0.0)))
    assert abs(res.eq2_margin.min() - (res.quad_form - tv * tv)) <= 1e-12 * max(1.0, res.quad_form)


def test_oracle_warns_on_zero_probability_failure_cell():
    def pmf(b):
        theta = float(b[0])
        return np.array([1.0 - theta, theta, 0.0])

    fam = ps.DiscretePmfFamily(d=3, pmf=pmf)
    with pytest.warns(RuntimeWarning, match="zero probability"):
        res = ps.discrete_simplex_oracle(fam, np.array([0.5]), np.array([1e-3]), [[0, 1, 1]])
    assert res.eq2_satisfied[0]


# ---------------------------------------------------------------------------
# information processing and KL consistency


def test_info_processing_identity_map():
    m = ps.InputModel((ps.normal(1.0, 0.2),))
    b = ps.sample(m, 100000, seed=1)
    dg = ps.estimate_output_density(b.draws[:, 0], b.scores)
    f_y = ps.estimate_output_fim(dg)
    rep = ps.info_processing_check(f_y, m.fim())
    assert rep.satisfied
    # identity map: traces agree within estimator noise
    assert abs(rep.rhs - rep.lhs) / rep.rhs < 0.10
    assert rep.context["matrix_order"]["satisfied"]


def test_info_processing_zero_output_information():
    f_x = ps.FisherMatrix(np.diag([25.0, 50.0]))
    f_y = ps.FisherMatrix(np.zeros((2, 2)))
    rep = ps.info_processing_check(f_y, f_x)
    assert rep.satisfied and rep.margin == pytest.approx(75.0)


def test_kl_quadratic_consistency_exact_gaussians():
    f = ps.FisherMatrix(np.array([[1.0]]))
    for delta in (0.1, 0.05, 0.025):
        kl_exact = delta**2 / 2.0  # both orderings for a pure mean shift
        assert ps.kl_quadratic_consistency(f, np.array([delta]), kl_exact) == pytest.approx(0.0, abs=1e-12)
    # a measured KL that is not finite has no relative error
    for bad in (np.nan, np.inf):
        with pytest.raises(ps.ParameterDomainError):
            ps.kl_quadratic_consistency(f, np.array([0.1]), bad)


def test_kl_error_halves_with_perturbation(exact_normal_kl_errors):
    # sigma perturbations of exact normals carry a genuine O(|db|) remainder
    for errs, slope in exact_normal_kl_errors:
        ratios = np.array(errs[:-1]) / np.array(errs[1:])
        assert np.all(ratios > 2.0 / 1.5)  # halving db halves the error within 1.5x
        assert np.all(ratios < 2.0 * 1.5)
        assert slope >= 0.8


def test_kl_consistency_requires_positive_quadratic_form():
    with pytest.raises(ps.ContractError):
        ps.kl_quadratic_consistency(ps.FisherMatrix(np.zeros((1, 1))), np.array([0.1]), 0.01)
