import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probsens as ps
from conftest import joint_score_and_fim
from probsens import distributions
from probsens.distributions import MarginalSpec
from probsens.rng import CHUNK


def test_score_normal_plug_in():
    assert ps.normal(0, 1).score(1.0).tolist() == [1.0, 0.0]
    assert ps.normal(0, 1).score(0.0).tolist() == [0.0, -1.0]


def test_score_lognormal_at_e():
    d_mu, d_sigma = ps.lognormal(0, 1).score(np.e)
    assert d_mu == pytest.approx(1.0)
    assert d_sigma == pytest.approx(0.0)


def test_score_closed_forms():
    # Normal: ((x-mu)/s^2, ((x-mu)^2 - s^2)/s^3); Lognormal: same at ln x
    mu, sigma, x = 1.3, 0.4, 2.1
    d_mu, d_sigma = ps.normal(mu, sigma).score(x)
    assert d_mu == pytest.approx((x - mu) / sigma**2)
    assert d_sigma == pytest.approx(((x - mu) ** 2 - sigma**2) / sigma**3)
    d_mu_ln, d_sigma_ln = ps.lognormal(mu, sigma).score(np.exp(x))
    assert d_mu_ln == pytest.approx(d_mu)
    assert d_sigma_ln == pytest.approx(d_sigma)


def test_lognormal_support_error():
    with pytest.raises(ps.SupportError):
        ps.lognormal(0, 1).score(-1.0)
    with pytest.raises(ps.SupportError):
        ps.lognormal(0, 1).logpdf(0.0)


def test_parameter_domain_validation_at_construction():
    with pytest.raises(ps.ParameterDomainError):
        ps.normal(0.0, 0.0)
    with pytest.raises(ps.ParameterDomainError):
        ps.lognormal(0.0, -0.5)
    with pytest.raises(ps.ParameterDomainError):
        MarginalSpec("cauchy", 0.0, 1.0)
    with pytest.raises(ps.ParameterDomainError, match="finite numbers"):
        ps.normal("a", 1.0)


def test_analytic_fim_values():
    f = ps.normal(1.0, 0.2).fim()
    assert np.allclose(f.matrix, np.diag([25.0, 50.0]))
    assert f.trace == pytest.approx(75.0)
    assert np.allclose(ps.normal(0, 1).fim().matrix, np.diag([1.0, 2.0]))
    # Lognormal: same form w.r.t. the underlying (mu, sigma)
    assert np.allclose(ps.lognormal(7.88, 0.2).fim().matrix, np.diag([25.0, 50.0]))


def test_sampling_is_deterministic():
    m = ps.InputModel((ps.normal(0.0, 1.0),))
    b1 = ps.sample(m, 4, seed=7)
    b2 = ps.sample(m, 4, seed=7)
    assert np.array_equal(b1.draws, b2.draws)
    assert np.array_equal(b1.scores, b2.scores)
    # a seed outside [0, 2**64) is refused, as the run configuration refuses it
    for seed in (-1, 2**64):
        with pytest.raises(ps.ParameterDomainError, match="seed"):
            ps.sample(m, 4, seed=seed)
    # a fractional or boolean count or seed is refused, not truncated or read as 1
    for n, seed in ((10, 1.5), (10.0, 1), (True, 1), (10, True)):
        with pytest.raises(ps.ParameterDomainError, match="integer"):
            ps.sample(m, n, seed)


def test_sampling_is_chunk_schedule_independent(monkeypatch):
    m = ps.InputModel((ps.normal(1.0, 0.2), ps.lognormal(0.0, 0.5)))
    full = ps.sample(m, 10001, seed=3)
    for chunk in (8, 1000, 4096, 100000):
        monkeypatch.setattr(distributions, "_INVERSION_CHUNK", chunk)
        again = ps.sample(m, 10001, seed=3)
        assert np.array_equal(full.draws, again.draws)


# one marginal and its shift: family, mu, sigma, d_mu, and d_sigma as a
# fraction of sigma that keeps the shifted sigma above 0
_SHIFTED_MARGINAL = st.tuples(
    st.sampled_from(["normal", "lognormal"]),
    st.floats(-3.0, 3.0),
    st.floats(0.01, 1.0),
    st.floats(-0.5, 0.5),
    st.floats(-0.99, 0.99),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    marginals=st.lists(_SHIFTED_MARGINAL, min_size=1, max_size=3),
    n=st.integers(1, 2 * CHUNK + 8).filter(lambda n: n % CHUNK != 0),
    seed=st.integers(0, 2**64 - 1),
)
def test_shifted_batch_from_base_normals_is_a_fresh_sample(marginals, n, seed):
    # the draws and scores a shifted model makes from the base batch's
    # standard normals are bit for bit those of sampling it afresh
    model = ps.InputModel(tuple(MarginalSpec(f, mu, sigma) for f, mu, sigma, _, _ in marginals))
    db = np.array([d for _, _, sigma, d_mu, frac in marginals for d in (d_mu, frac * sigma)])
    shifted = model.shifted(db)
    draws = shifted.from_standard(ps.sample(model, n, seed).normals)
    fresh = ps.sample(shifted, n, seed)
    assert np.array_equal(draws, fresh.draws)
    assert np.array_equal(shifted.scores(draws), fresh.scores)


def test_sample_mean_tolerance():
    # standard error sigma/sqrt(N); stay within a 5-sigma band
    m = ps.InputModel((ps.normal(1.0, 0.2),))
    b = ps.sample(m, 100000, seed=1)
    assert abs(b.draws.mean() - 1.0) < 5 * 0.2 / np.sqrt(100000)


def test_lognormal_draws_positive():
    m = ps.InputModel((ps.lognormal(24.85, 0.47),))
    b = ps.sample(m, 100000, seed=1)
    assert np.all(b.draws > 0)


@pytest.mark.parametrize(
    "spec",
    [ps.normal(1.0, 0.2), ps.normal(0.0, 1.0), ps.lognormal(24.85, 0.47), ps.lognormal(7.88, 0.2)],
)
def test_zero_mean_score(spec):
    m = ps.InputModel((spec,))
    b = ps.sample(m, 100000, seed=2)
    mean = b.scores.mean(axis=0)
    se = b.scores.std(axis=0, ddof=1) / np.sqrt(b.n)
    assert np.all(np.abs(mean) <= 5 * se)


@pytest.mark.parametrize("family", ["normal", "lognormal"])
def test_zero_mean_score_at_random_parameter_points(family):
    rng = np.random.default_rng(11)
    for trial in range(5):
        spec = MarginalSpec(family, rng.uniform(-5.0, 25.0), rng.uniform(0.05, 2.0))
        b = ps.sample(ps.InputModel((spec,)), 20000, seed=100 + trial)
        mean = b.scores.mean(axis=0)
        se = b.scores.std(axis=0, ddof=1) / np.sqrt(b.n)
        assert np.all(np.abs(mean) <= 5 * se), spec


@pytest.mark.parametrize("family", ["normal", "lognormal"])
def test_score_fd_agreement_at_random_parameter_points(family):
    rng = np.random.default_rng(12)
    for _ in range(10):
        spec = MarginalSpec(family, rng.uniform(-5.0, 25.0), rng.uniform(0.05, 2.0))
        x = spec.ppf(rng.uniform(0.01, 0.99, size=32))
        s = spec.score(x)
        for j, pname in enumerate(("mu", "sigma")):
            h = 1e-6 * max(1.0, abs(getattr(spec, pname)))
            up = MarginalSpec(family, spec.mu + h * (j == 0), spec.sigma + h * (j == 1))
            dn = MarginalSpec(family, spec.mu - h * (j == 0), spec.sigma - h * (j == 1))
            fd = (up.logpdf(x) - dn.logpdf(x)) / (2 * h)
            assert np.abs(s[:, j] - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max()), spec


@pytest.mark.parametrize("spec", [ps.normal(1.0, 0.2), ps.lognormal(7.88, 0.2)])
def test_fim_mc_convergence(spec):
    # entrywise error against the analytic matrix shrinks roughly as 1/sqrt(N)
    m = ps.InputModel((spec,))
    analytic = spec.fim().matrix
    errs = []
    for n in (1000, 10000, 100000, 1000000):
        b = ps.sample(m, n, seed=4)
        _, _, mc = joint_score_and_fim(m, b)
        errs.append(np.abs(mc.matrix - analytic).max() / np.abs(analytic).max())
    assert errs[-1] < 0.02
    assert errs[-1] < errs[0] / 5.0


def test_lognormal_fim_verified_by_monte_carlo():
    # diag(1/s^2, 2/s^2) adopted for the lognormal; cross-check E[s s^T]
    spec = ps.lognormal(7.88, 0.2)
    m = ps.InputModel((spec,))
    b = ps.sample(m, 1000000, seed=9)
    _, _, mc = joint_score_and_fim(m, b)
    rel = np.abs(np.diag(mc.matrix) - np.array([25.0, 50.0])) / np.array([25.0, 50.0])
    assert rel.max() < 0.02


def test_joint_fim_block_diagonal_trace():
    m = ps.InputModel((ps.normal(1.0, 0.1), ps.normal(0.1, 0.01)))
    b = ps.sample(m, 1000, seed=0)
    scores, fim, _ = joint_score_and_fim(m, b)
    assert scores.shape == (1000, 4)
    assert fim.trace == pytest.approx(300.0 + 30000.0)
    # single marginal: joint equals the marginal matrix
    m1 = ps.InputModel((ps.normal(1.0, 0.1),))
    assert np.allclose(m1.fim().matrix, ps.normal(1.0, 0.1).fim().matrix)


def test_joint_fim_mc_close_to_analytic():
    m = ps.InputModel((ps.normal(1.0, 0.1), ps.normal(0.1, 0.01)))
    b = ps.sample(m, 1000000, seed=5)
    _, fim, mc = joint_score_and_fim(m, b)
    d_rel = np.abs(np.diag(mc.matrix) - np.diag(fim.matrix)) / np.diag(fim.matrix)
    assert d_rel.max() < 0.02


def test_score_matches_logpdf_finite_differences():
    rng = np.random.default_rng(0)
    for spec in (ps.normal(1.0, 0.2), ps.lognormal(24.85, 0.47)):
        x = spec.ppf(rng.uniform(0.05, 0.95, size=128))
        s = spec.score(x)
        for j, pname in enumerate(("mu", "sigma")):
            h = 1e-6 * max(1.0, abs(getattr(spec, pname)))
            up = MarginalSpec(spec.family, spec.mu + h * (j == 0), spec.sigma + h * (j == 1))
            dn = MarginalSpec(spec.family, spec.mu - h * (j == 0), spec.sigma - h * (j == 1))
            fd = (up.logpdf(x) - dn.logpdf(x)) / (2 * h)
            rel = np.abs(s[:, j] - fd) / np.maximum(np.abs(fd), 1e-9)
            assert rel.max() < 1e-6


def test_lognormal_normal_score_duality():
    rng = np.random.default_rng(1)
    x = np.exp(rng.normal(0.5, 0.3, size=64))
    ln = ps.lognormal(0.5, 0.3).score(x)
    nm = ps.normal(0.5, 0.3).score(np.log(x))
    assert np.allclose(ln, nm)


def test_param_names():
    m = ps.InputModel((ps.normal(1.0, 0.1), ps.normal(0.1, 0.01)))
    assert m.param_names == ("x0.mu", "x0.sigma", "x1.mu", "x1.sigma")
    assert len(m.param_names) == m.n_params


def test_shifted_model_and_scales():
    m = ps.InputModel((ps.normal(1.0, 0.1), ps.normal(0.1, 0.01)))
    assert np.allclose(m.param_scales(), [0.1, 0.1, 0.01, 0.01])
    m2 = m.shifted(np.array([0.01, 0.0, 0.0, -0.001]))
    assert m2.marginals[0].mu == pytest.approx(1.01)
    assert m2.marginals[1].sigma == pytest.approx(0.009)
    with pytest.raises(ps.ParameterDomainError):
        m.shifted(np.array([0.0, 0.0, 0.0, -0.02]))  # sigma would go negative


def test_dimension_mismatch_is_contract_error():
    m = ps.InputModel((ps.normal(0.0, 1.0),))
    b = ps.sample(m, 100, seed=0)
    m2 = ps.InputModel((ps.normal(0.0, 1.0), ps.normal(0.0, 1.0)))
    with pytest.raises(ps.ContractError):
        joint_score_and_fim(m2, b)


def test_uniform_stream_stays_strictly_inside_unit_interval():
    from probsens.rng import uniform_open

    u = uniform_open(0, 0, 0, 100000)
    assert u.min() > 0.0 and u.max() < 1.0
    # offsets must land on counter-block boundaries
    with pytest.raises(ValueError):
        uniform_open(0, 0, 3, 8)
