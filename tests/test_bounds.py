import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import probsens as ps
from probsens.mclr import SensitivityResult


def _result(gradient, z=0.0, p_f=0.5):
    gradient = np.asarray(gradient, dtype=float)
    return SensitivityResult(
        z=z,
        p_f=p_f,
        gradient=gradient,
        grad_norm_sq=float(gradient @ gradient),
        n_samples=1000,
        std_err_pf=0.0,
        grad_std_err=np.zeros_like(gradient),
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


def test_sensitivity_bound_reports():
    f_y = ps.FisherMatrix(np.diag([20.0, 40.0]))
    f_x = ps.FisherMatrix(np.diag([25.0, 50.0]))
    r1, r2 = ps.check_sensitivity_bound(_result([1.0, 2.0]), f_y, f_x)
    assert r1.satisfied and r1.lhs == pytest.approx(5.0) and r1.rhs == pytest.approx(60.0)
    assert r2.satisfied and r2.margin == pytest.approx(15.0)
    # zero gradient: trivially satisfied with margin tr(F_y)
    r1, _ = ps.check_sensitivity_bound(_result([0.0, 0.0]), f_y, f_x)
    assert r1.satisfied and r1.margin == pytest.approx(f_y.trace)


def test_sensitivity_bound_dimension_mismatch():
    with pytest.raises(ps.ContractError):
        ps.check_sensitivity_bound(
            _result([1.0]), ps.FisherMatrix(np.diag([1.0, 2.0])), ps.FisherMatrix(np.diag([1.0, 2.0]))
        )


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

    fam = ps.DiscretePmfFamily(d=2, pmf=pmf, failure_set=(1,))
    res = ps.discrete_simplex_oracle(fam, np.array([0.5]), np.array([1e-3]))
    assert res.delta_pf == pytest.approx(1e-3)
    assert res.delta_pf_sq == pytest.approx(1e-6)
    # Bernoulli information 1/(theta(1-theta)) = 4 at theta = 0.5
    assert res.quad_form == pytest.approx(4e-6, rel=1e-4)
    assert res.bound_eq2.satisfied
    assert res.bound_geometric.satisfied
    # first-order sqrt-space distance is a quarter of the quadratic form
    assert res.d1_sq_linear == pytest.approx(res.quad_form / 4.0, rel=1e-6)


def test_oracle_zero_shift():
    fam = ps.binomial_family(5, (0, 3))
    res = ps.discrete_simplex_oracle(fam, np.array([0.4]), np.array([0.0]))
    assert res.delta_pf == 0.0 and res.d1_sq == 0.0 and res.quad_form == 0.0


def test_oracle_fd_jacobian_agrees_with_analytic():
    fam = ps.binomial_family(6, (1, 2))
    fam_fd = ps.DiscretePmfFamily(d=fam.d, pmf=fam.pmf, failure_set=fam.failure_set, dpdb=None)
    b = np.array([0.37])
    assert np.allclose(fam.jacobian(b), fam_fd.jacobian(b), rtol=1e-8, atol=1e-12)


def test_binomial_pmf_closed_form_and_domain():
    fam = ps.binomial_family(9, (0,))
    p = fam.pmf(np.array([0.3]))
    t = Fraction(0.3)
    exact = [float(math.comb(9, k) * t**k * (1 - t) ** (9 - k)) for k in range(10)]
    assert np.allclose(p, exact, rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError):
        p[0] = 1.0  # shared by every family over the same (n_trials, theta)
    with pytest.raises(ps.ParameterDomainError):
        fam.pmf(np.array([1.0]))
    with pytest.raises(ps.ParameterDomainError):
        ps.binomial_family(1001, (0,))


@pytest.mark.parametrize("theta", [0.2, 0.5, 0.8])
def test_binomial_exhaustive_failure_sets(theta):
    # every subset of {0..5}: the perturbation bound must hold each time
    cells = 6
    for r in range(cells + 1):
        for subset in itertools.combinations(range(cells), r):
            fam = ps.binomial_family(5, subset)
            res = ps.discrete_simplex_oracle(fam, np.array([theta]), np.array([1e-3]))
            assert res.bound_eq2.satisfied, (theta, subset)
            assert res.bound_geometric.satisfied, (theta, subset)


def test_exhaustive_small_supports_random_families():
    # random softmax-parameterised families on supports d <= 6, all failure sets
    rng = np.random.default_rng(3)
    for d in (2, 3, 4, 5, 6):
        w = rng.normal(size=d)

        def pmf(b, w=w, d=d):
            logits = w + b[0] * np.arange(d)
            e = np.exp(logits - logits.max())
            return e / e.sum()

        fam_sets = [
            ps.DiscretePmfFamily(d=d, pmf=pmf, failure_set=subset)
            for r in range(d + 1)
            for subset in itertools.combinations(range(d), r)
        ]
        for fam in fam_sets:
            res = ps.discrete_simplex_oracle(fam, np.array([0.3]), np.array([1e-3]))
            assert res.bound_eq2.satisfied


def test_oracle_warns_on_zero_probability_failure_cell():
    def pmf(b):
        theta = float(b[0])
        return np.array([1.0 - theta, theta, 0.0])

    fam = ps.DiscretePmfFamily(d=3, pmf=pmf, failure_set=(1, 2))
    with pytest.warns(RuntimeWarning, match="zero probability"):
        res = ps.discrete_simplex_oracle(fam, np.array([0.5]), np.array([1e-3]))
    assert res.bound_eq2.satisfied


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
