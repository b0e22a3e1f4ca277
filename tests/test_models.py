import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import probsens as ps
import probsens.models.beam as beam_module
from probsens import mclr
from conftest import identity_stationarity, norm_sq_d2y, norm_sq_dy, pairwise_peak
from probsens.cli import main
from probsens.models import (
    BeamConfig,
    beam_mode_shape,
    beam_natural_frequencies,
    beam_rms_ensemble,
    beam_roots,
    identity_analytic,
    sho_response,
)
from probsens.runner import RunConfig, build_case

# ---------------------------------------------------------------------------
# identity case


def test_identity_analytic_at_mean():
    res = identity_analytic(1.0, 0.2, 1.0)
    assert float(res.p_f) == pytest.approx(0.5)
    assert float(res.norm_sq) == pytest.approx(1.0 / (2 * math.pi * 0.04), rel=1e-12)
    assert float(res.d_mu) == pytest.approx(-1.9947, rel=1e-4)
    assert float(res.d_sigma) == 0.0


def test_identity_norm_decays_in_both_tails():
    y = np.array([-3.0, 5.0])  # 20 sigma away from mu = 1
    res = identity_analytic(1.0, 0.2, y)
    assert np.all(res.norm_sq < 1e-30)


def test_identity_gradient_matches_mclr():
    m = ps.InputModel((ps.normal(1.0, 0.2),))
    b = ps.sample(m, 100000, seed=1)
    est = ps.sensitivity_curve(b.draws[:, 0], b.scores, [50.0], direction="below")
    (grad,), (grad_se,) = est.gradient, est.grad_std_err
    exact = identity_analytic(1.0, 0.2, est.z[0])
    assert grad[0] == pytest.approx(float(exact.d_mu), rel=0.02)
    assert abs(grad[1] - float(exact.d_sigma)) <= 5 * grad_se[1]


def test_identity_full_curve_converges_to_closed_forms():
    # P_f, both gradient components, and the squared norm against the exact
    # expressions, across the percentile band with P_f in [0.05, 0.95]
    m = ps.InputModel((ps.normal(1.0, 0.2),))
    b = ps.sample(m, 100000, seed=1)
    curve = ps.sensitivity_curve(b.draws[:, 0], b.scores, range(5, 96), direction="below")
    exact = identity_analytic(1.0, 0.2, curve.z)
    grad, se = curve.gradient, curve.grad_std_err
    for i in range(len(curve)):
        assert curve.p_f[i] == pytest.approx(float(exact.p_f[i]), rel=0.05)
        assert abs(grad[i, 0] - exact.d_mu[i]) < max(0.05 * abs(exact.d_mu[i]), 6 * se[i, 0])
        assert abs(grad[i, 1] - exact.d_sigma[i]) < max(0.05 * abs(exact.d_sigma[i]), 6 * se[i, 1])
        assert curve.grad_norm_sq[i] == pytest.approx(float(exact.norm_sq[i]), rel=0.05)


def test_stationarity_closed_forms_vanish():
    assert identity_stationarity(1.0, 0.2) == (0.0, 0.0)
    assert identity_stationarity(-3.7, 2.5) == (0.0, 0.0)


def test_stationarity_fd_slope_below_tolerance():
    mu, sigma = 1.0, 0.2
    for eps in (1e-4,):
        ns = identity_analytic(mu, sigma, np.array([mu - eps, mu + eps])).norm_sq
        slope = (ns[1] - ns[0]) / (2 * eps)
        assert abs(slope) < 1e-3


def test_norm_derivatives_match_finite_differences():
    mu, sigma = 1.0, 0.2
    ys = np.linspace(mu - 3 * sigma, mu + 3 * sigma, 13)
    eps = 1e-6
    for y in ys:
        f = lambda t: float(identity_analytic(mu, sigma, t).norm_sq)
        d1_fd = (f(y + eps) - f(y - eps)) / (2 * eps)
        d2_fd = (f(y + eps) - 2 * f(y) + f(y - eps)) / eps**2
        assert norm_sq_dy(mu, sigma, y) == pytest.approx(d1_fd, rel=1e-5, abs=1e-6)
        assert norm_sq_d2y(mu, sigma, y) == pytest.approx(d2_fd, rel=1e-3, abs=1e-2)


# ---------------------------------------------------------------------------
# oscillator


def test_sho_static_resonant_and_asymptotic():
    assert sho_response(0.0, 0.3) == pytest.approx(1.0)
    assert sho_response(1.0, 0.1) == pytest.approx(5.0)
    assert sho_response(1e6, 0.1) < 1e-9


def test_sho_guards_divide_by_zero():
    with pytest.raises(ps.EvaluationError):
        sho_response(1.0, 0.0)


# ---------------------------------------------------------------------------
# beam


def test_beam_roots_reference_values():
    r = beam_roots(4)
    assert r[0] == pytest.approx(1.875, abs=1e-3)
    assert r[1] == pytest.approx(4.694, abs=1e-3)
    assert r[2] == pytest.approx(7.855, abs=1e-3)
    assert r[3] == pytest.approx(10.996, abs=1e-3)


def test_beam_roots_residuals():
    for x in beam_roots(3):
        assert abs(math.cos(x) * math.cosh(x) + 1.0) < 1e-12


def test_beam_roots_domain():
    with pytest.raises(ps.ParameterDomainError):
        beam_roots(0)
    with pytest.raises(ps.ParameterDomainError):
        beam_roots(11)


def test_mode_shape_boundary_conditions():
    eps = 1e-7
    for bl in beam_roots(3):
        phi0, _ = beam_mode_shape(bl, 0.0)
        assert abs(phi0) < 1e-12
        # clamped end: zero slope
        pm, pp = beam_mode_shape(bl, eps)[0], beam_mode_shape(bl, 2 * eps)[0]
        slope0 = pm / eps
        assert abs(slope0) < 1e-4
        # free end: zero curvature relative to the curvature scale
        u = np.linspace(0.0, 1.0, 201)
        curv = beam_mode_shape(bl, u)[1]
        assert abs(curv[-1]) < 1e-6 * np.abs(curv).max()


def test_mode_curvature_matches_second_differences():
    u = np.linspace(0.05, 0.95, 19)
    eps = 1e-4  # balances truncation against cancellation in the 2nd difference
    for bl in beam_roots(3):
        phi_c, curv = beam_mode_shape(bl, u)
        phi_p = beam_mode_shape(bl, u + eps)[0]
        phi_m = beam_mode_shape(bl, u - eps)[0]
        curv_fd = (phi_p - 2 * phi_c + phi_m) / eps**2
        rel = np.abs(curv - curv_fd) / np.abs(curv_fd)
        assert rel.max() < 1e-4


def test_natural_frequency_scaling():
    cfg = BeamConfig()
    e0, rho0 = 69e9, 2700.0
    w = beam_natural_frequencies(e0, rho0, cfg)
    assert np.allclose(beam_natural_frequencies(4 * e0, rho0, cfg), 2 * w)
    assert np.allclose(beam_natural_frequencies(e0, 4 * rho0, cfg), 0.5 * w)


def test_beam_rms_deterministic():
    cfg = BeamConfig()
    a = beam_rms_ensemble(np.array([69e9]), np.array([2700.0]), cfg)
    b = beam_rms_ensemble(np.array([69e9]), np.array([2700.0]), cfg)
    assert a.shape == (1, 2)
    assert np.array_equal(a, b)


def test_beam_excited_at_clamped_end_stays_still():
    # every mode shape vanishes there: zero output, not a refused row
    out = beam_rms_ensemble(np.array([69e9, 1e11]), np.array([2700.0, 3000.0]), BeamConfig(excitation_frac=0.0))
    assert np.array_equal(out, np.zeros((2, 2)))


def test_beam_ensemble_matches_batching():
    cfg = BeamConfig()
    rng = np.random.default_rng(0)
    e = np.exp(rng.normal(24.85, 0.47, size=300))
    rho = np.exp(rng.normal(7.88, 0.2, size=300))
    full = beam_rms_ensemble(e, rho, cfg)
    again = beam_rms_ensemble(e, rho, cfg)
    assert np.array_equal(full, again)
    assert np.all(np.isfinite(full)) and np.all(full > 0)


# standard-normal coordinates of lognormal (E, rho) rows, out to 4 sigma
_BEAM_ROWS = st.lists(
    st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)), min_size=1, max_size=12
)


def _lognormal_rows(z):
    z = np.asarray(z, dtype=float)
    return np.exp(24.85 + 0.47 * z[:, 0]), np.exp(7.88 + 0.2 * z[:, 1])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(z=_BEAM_ROWS, data=st.data())
def test_beam_ensemble_rows_independent_of_block_order_and_batch(z, data):
    # each row's result depends only on that row: bit-identical for any
    # row order, and when the row is evaluated alone
    cfg = BeamConfig()
    e, rho = _lognormal_rows(z)
    ref = beam_rms_ensemble(e, rho, cfg)
    perm = np.array(data.draw(st.permutations(range(e.size))))
    assert np.array_equal(beam_rms_ensemble(e[perm], rho[perm], cfg), ref[perm])
    alone = np.vstack([beam_rms_ensemble(e[i : i + 1], rho[i : i + 1], cfg) for i in range(e.size)])
    assert np.array_equal(alone, ref)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    modes=st.integers(1, 5),
    rows=st.integers(1, 40),
    positions=st.integers(2, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_peak_matches_pairwise_loop(modes, rows, positions, seed):
    # one product over the pairs sums in the loop's order: bit for bit the
    # same peaks, also for a row alone (BeamConfig keeps >= 2 positions)
    rng = np.random.default_rng(seed)
    num = rng.standard_normal((positions, modes)) * 10.0 ** rng.uniform(-3, 3, size=modes)
    g = rng.standard_normal((rows, modes, modes)) * 10.0 ** rng.uniform(-3, 3, size=(rows, 1, 1))
    g = g + g.transpose(0, 2, 1)
    ref = pairwise_peak(num, g)
    assert np.array_equal(beam_module._peak(num, g), ref)
    assert np.array_equal(beam_module._peak(num, g[-1:]), ref[-1:])


def _direct_modal_rms(e, rho, cfg):
    """Peak r.m.s. by the plain modal sum over positions x frequencies:
    complex receptances H(u, w), squared moduli, trapezoidal integrals."""
    u = cfg.response_fractions()
    omega = cfg.omega_grid()
    wr = beam_natural_frequencies(e, rho, cfg)
    h_disp = np.zeros((u.size, omega.size), dtype=complex)
    h_curv = np.zeros((u.size, omega.size), dtype=complex)
    for r, bl in enumerate(beam_roots(cfg.n_modes)):
        phi, curv = beam_mode_shape(bl, u)
        phi_ex = beam_mode_shape(bl, cfg.excitation_frac)[0]
        t = 1.0 / (wr[r] ** 2 - omega**2 + 2j * cfg.modal_damping * wr[r] * omega)
        h_disp += np.outer(phi * phi_ex, t)
        h_curv += np.outer(curv / cfg.length**2 * phi_ex, t)
    acc = np.trapezoid(2.0 * cfg.force_psd * omega**4 * np.abs(h_disp) ** 2, omega, axis=1)
    strain = np.trapezoid(2.0 * cfg.force_psd * np.abs(h_curv) ** 2, omega, axis=1)
    return math.sqrt(acc.max()), math.sqrt(strain.max())


def test_beam_ensemble_matches_direct_modal_sum():
    cfg = BeamConfig()
    rng = np.random.default_rng(11)
    z = np.vstack([rng.normal(size=(6, 2)), [[4.0, -4.0], [-4.0, 4.0]]])
    e, rho = _lognormal_rows(z)
    got = beam_rms_ensemble(e, rho, cfg)
    for i in range(e.size):
        want = _direct_modal_rms(e[i], rho[i], cfg)
        assert got[i, 0] == pytest.approx(want[0], rel=1e-12)
        assert got[i, 1] == pytest.approx(want[1], rel=1e-12)


# rows at the mean and the four +-4 sigma corners
_DOMAIN_ROWS = np.array([[0.0, 0.0], [4.0, -4.0], [-4.0, 4.0], [4.0, 4.0], [-4.0, -4.0]])


@pytest.mark.parametrize("span", [None, (1.0, 20.0), (100.0, 300.0)])
@pytest.mark.parametrize("zeta", [0.001, 0.1, 0.5, 0.99, 1.5])
def test_beam_closed_form_accurate_or_refused(zeta, span):
    cfg = BeamConfig(modal_damping=zeta, omega_span=span)
    e, rho = _lognormal_rows(_DOMAIN_ROWS)
    if span is None:
        beam_rms_ensemble(e, rho, cfg)  # the default span refuses no row
    # held to 1e-12, every row matches the direct modal sum to 1e-12 or is
    # refused, and each damping and span keeps rows in the accurate domain
    accepted = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(beam_module, "_MAX_ROUNDING", 1e-12)
        for i in range(e.size):
            try:
                got = beam_rms_ensemble(e[i : i + 1], rho[i : i + 1], cfg)[0]
            except ps.EvaluationError:
                continue
            accepted += 1
            want = _direct_modal_rms(e[i], rho[i], cfg)
            assert got[0] == pytest.approx(want[0], rel=1e-12)
            assert got[1] == pytest.approx(want[1], rel=1e-12)
    assert accepted >= 1


def test_beam_default_rounding_bound_below_1e_14():
    # the bound counts the digamma's own measured error; rows out to 6 sigma
    # of the default configuration still carry a bound below 1e-14
    t = np.linspace(-6.0, 6.0, 13)
    e, rho = _lognormal_rows(np.array([[a, b] for a in t for b in t]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(beam_module, "_MAX_ROUNDING", 1e-14)
        assert np.all(np.isfinite(beam_rms_ensemble(e, rho, BeamConfig())))


@pytest.mark.parametrize(
    "beam",[{"modal_damping": 1.0}, {"omega_lo": 2000.0, "omega_hi": 4000.0}], ids=["zeta-1", "off-resonance"]
)
def test_beam_closed_form_fails_closed(beam, tmp_path, capsys):
    # a double pole (zeta = 1) or a span far above every mode cancels the
    # partial fractions: the library raises and the CLI exits 2
    cfg = build_case(RunConfig(case="beam", beam=beam))
    e, rho = _lognormal_rows(_DOMAIN_ROWS)
    with pytest.raises(ps.EvaluationError, match="frequency span"):
        cfg.h(np.column_stack([e, rho]))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"beam": beam}))
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg_path), "--case", "beam", "--samples", "1000"])
    assert exc.value.code == 2
    assert "frequency span" in capsys.readouterr().err


def test_beam_ensemble_threaded_chunks_match_serial(monkeypatch):
    # evaluate_outputs runs h on a thread pool; work buffers must not be shared
    cfg = BeamConfig()
    rng = np.random.default_rng(2)
    draws = np.column_stack(_lognormal_rows(rng.normal(size=(96, 2))))

    def h(x):
        return beam_rms_ensemble(x[:, 0], x[:, 1], cfg)

    monkeypatch.setattr(mclr, "CHUNK", 8)
    serial = ps.evaluate_outputs(h, draws, workers=1)
    threaded = ps.evaluate_outputs(h, draws, workers=2)
    assert np.array_equal(serial, threaded)


def test_beam_run_bytes_independent_of_workers(tmp_path):
    # 4200 samples make two evaluation chunks (CHUNK = 4096), so --workers 2
    # really evaluates the forward map on two threads; one perturbation and
    # three thresholds keep the run short
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"percentiles": [25, 50, 75], "perturbations": [[0.0047, 0.0, 0.0, 0.0]]})
    )
    outs, codes = [], []
    for workers in ("1", "2"):
        d = tmp_path / f"w{workers}"
        argv = ["run", "--config", str(cfg_path), "--case", "beam", "--samples", "4200"]
        codes.append(main(argv + ["--workers", workers, "--out", str(d)]))
        outs.append(d)
    assert codes[0] == codes[1]
    for name in ("curve.csv", "density.csv", "report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_single_mode_strain_matches_white_noise_integral():
    # one-mode beam vs the closed-form single-resonator value pi/(4 zeta w1^3)
    e0, rho0 = 69e9, 2700.0
    cfg_probe = BeamConfig(n_modes=1)
    w1 = float(beam_natural_frequencies(e0, rho0, cfg_probe)[0])
    cfg = BeamConfig(
        n_modes=1,
        n_freq=2000,
        n_response=11,
        excitation_frac=1.0,
        omega_span=(1e-4 * w1, 5.0 * w1),
    )
    out = beam_rms_ensemble(np.array([e0]), np.array([rho0]), cfg)[0]
    bl = beam_roots(1)[0]
    u = cfg.response_fractions()
    phi, curv = beam_mode_shape(bl, u)
    phi_ex = beam_mode_shape(bl, 1.0)[0]
    n_str = np.abs(curv / cfg.length**2 * phi_ex).max()
    exact = n_str * math.sqrt(2.0 * math.pi / (4.0 * cfg.modal_damping * w1**3))
    assert out[1] == pytest.approx(exact, rel=0.05)


def test_single_mode_acceleration_matches_quadrature():
    e0, rho0 = 69e9, 2700.0
    cfg_probe = BeamConfig(n_modes=1)
    w1 = float(beam_natural_frequencies(e0, rho0, cfg_probe)[0])
    cfg = BeamConfig(
        n_modes=1, n_freq=2000, n_response=11, excitation_frac=1.0, omega_span=(1e-4 * w1, 5.0 * w1)
    )
    out = beam_rms_ensemble(np.array([e0]), np.array([rho0]), cfg)[0]
    bl = beam_roots(1)[0]
    phi_ex = beam_mode_shape(bl, 1.0)[0]
    n_acc = phi_ex * phi_ex  # response and excitation both at the tip
    zeta = cfg.modal_damping
    val, _ = quad(
        lambda w: w**4 / ((w1**2 - w**2) ** 2 + (2 * zeta * w1 * w) ** 2),
        cfg.omega_span[0],
        cfg.omega_span[1],
        limit=400,
    )
    exact = n_acc * math.sqrt(2.0 * val)
    assert out[0] == pytest.approx(exact, rel=0.05)


def test_default_span_covers_three_modes():
    cfg = BeamConfig()
    e_mean = math.exp(24.85 + 0.5 * 0.47**2)
    rho_mean = math.exp(7.88 + 0.5 * 0.2**2)
    w3 = beam_natural_frequencies(e_mean, rho_mean, cfg)[2]
    assert cfg.omega_span[1] >= 1.2 * w3


def _beam_performance(outputs):
    # the beam case's g on outputs divided by its ensemble scale
    case = build_case(RunConfig(case="beam"))
    return case.g(outputs / case.scale(outputs))


def test_beam_performance_examples():
    outputs = np.array([[2.0, 3.0], [1.0, 1.5], [0.0, 0.0]])
    assert _beam_performance(outputs).tolist() == pytest.approx([2.0, 0.5, 0.0])


def test_beam_performance_ensemble_range():
    rng = np.random.default_rng(5)
    y = np.abs(rng.normal(1.0, 0.3, size=(2000, 2))) + 1e-6
    g = _beam_performance(y)
    assert np.all(g > 0) and np.all(g <= 2.0 + 1e-12)
    assert g.max() <= 2.0 + 1e-12


def test_beam_config_validation():
    with pytest.raises(ps.ConfigError):
        BeamConfig(length=-1.0)
    with pytest.raises(ps.ConfigError):
        BeamConfig(excitation_frac=1.5)
    with pytest.raises(ps.ConfigError):
        BeamConfig(omega_span=(10.0, 1.0))
