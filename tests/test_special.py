"""probsens.special against scipy.special, the standard library and mpmath.

Error bounds are in units of the float64 spacing (ulp) or of eps times the
reference's magnitude, fixed from the dtype and the measured errors stated
in the module docstring.
"""

import json
import math
import statistics
import subprocess
import sys

import mpmath
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special as sp

from probsens.mclr import _linear_percentiles
from probsens.models.beam import BeamConfig, beam_natural_frequencies
from probsens.special import DIGAMMA_ERROR, digamma, ndtr, ndtri

EPS = np.finfo(float).eps

# p from 2^-54 (the smallest uniform the sampler draws) to 1 - 2^-53
TAIL_P = np.concatenate([2.0 ** -np.arange(1.0, 55.0), 1.0 - 2.0 ** -np.arange(1.0, 54.0)])
GRID_P = np.concatenate([np.linspace(0.0, 1.0, 2001)[1:-1], TAIL_P, [0.075, 0.925, np.nextafter(0.075, 1.0)]])


def _ulps(x, ref):
    return np.abs(x - ref) / np.spacing(np.abs(ref))


def _mp_ndtri(p: float) -> float:
    p = mpmath.mpf(p)
    # erfinv of the exact 2p - 1, or of 1 - 2p below the median
    x = mpmath.sqrt(2) * mpmath.erfinv(2 * p - 1) if p >= 0.5 else -mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * p)
    return float(x)


def test_ndtri_grid_against_scipy_and_statistics():
    x = ndtri(GRID_P)
    assert np.all(_ulps(x, sp.ndtri(GRID_P)) <= 8)
    # the same AS241 operations in the same order as the standard library
    inv = statistics.NormalDist().inv_cdf
    assert np.all(_ulps(x, np.array([inv(p) for p in GRID_P])) <= 1)


def test_ndtri_grid_against_mpmath():
    with mpmath.workdps(40):
        ref = np.array([_mp_ndtri(p) for p in GRID_P[::4].tolist() + TAIL_P.tolist()])
    x = ndtri(np.concatenate([GRID_P[::4], TAIL_P]))
    assert np.all(_ulps(x, ref) <= 8)


@settings(deadline=None, max_examples=300)
@given(st.floats(2.0**-54, 1.0 - 2.0**-53))
@example(2.0**-54)
@example(0.425 + 0.5)
def test_ndtri_property(p):
    x = ndtri(np.array([p]))[0]
    assert _ulps(x, sp.ndtri(p)) <= 8
    assert _ulps(x, statistics.NormalDist().inv_cdf(p)) <= 1


def test_ndtri_edges_and_shape():
    out = ndtri(np.array([0.0, 1.0, 0.5, -0.1, 1.1, np.nan]))
    assert out[0] == -np.inf and out[1] == np.inf and out[2] == 0.0
    assert np.all(np.isnan(out[3:]))
    assert ndtri(np.full((2, 3), 0.25)).shape == (2, 3)
    assert ndtri(0.975).shape == ()


def test_ndtr_against_scipy_and_mpmath():
    # erfc's relative condition number grows like z^2, hence the (1 + z^2)
    z = np.linspace(-8.0, 8.0, 1601)
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.ncdf(v)) for v in z.tolist()])
    cond = 1.0 + z * z
    assert np.all(np.abs(ndtr(z) - ref) <= 2.0 * EPS * cond * ref)
    assert np.all(np.abs(ndtr(z) - sp.ndtr(z)) <= 4.0 * EPS * cond * ref)
    assert ndtr(np.zeros((3, 1))).shape == (3, 1) and ndtr(0.0) == 0.5


# Near the origin psi is small while ln w and the recurrence terms that
# cancel to it are about ln 12, so there the error is measured against that.
PSI_FLOOR = math.log(12.0)


def _psi_errors(z, floor=0.0):
    """|digamma - mpmath| and |digamma - scipy| in units of eps max(|psi|, floor)."""
    with mpmath.workdps(30):
        ref = np.array([complex(mpmath.digamma(mpmath.mpc(v.real, v.imag))) for v in z.tolist()])
    ours = digamma(z)
    scale = EPS * np.maximum(np.abs(ref), floor)
    return np.abs(ours - ref) / scale, np.abs(ours - sp.psi(z)) / scale


def test_digamma_over_the_beam_arguments():
    # the arguments a and a + n_freq of the beam's closed form, for rows out
    # to 6 sigma of both inputs: DIGAMMA_ERROR holds here by measurement
    cfg = BeamConfig()
    t = np.linspace(-6.0, 6.0, 13)
    ln_e, ln_rho = np.meshgrid(cfg.e_spec.mu + cfg.e_spec.sigma * t, cfg.rho_spec.mu + cfg.rho_spec.sigma * t)
    wr = beam_natural_frequencies(np.exp(ln_e.ravel()), np.exp(ln_rho.ravel()), cfg)[:, :, None]
    zeta = cfg.modal_damping
    u = wr * (np.sqrt(1.0 - zeta * zeta + 0j) * np.array([1.0, -1.0])) + 1j * zeta * wr
    lo, hi = cfg.omega_span
    a = ((lo - u) / ((hi - lo) / (cfg.n_freq - 1))).ravel()
    z = np.concatenate([a, a + cfg.n_freq])
    assert z.real.min() < -8000 and z.real.max() > 12000 and z.imag.max() < -0.9
    err_mp, err_scipy = _psi_errors(z)
    assert err_mp.max() <= DIGAMMA_ERROR
    assert err_scipy.max() <= DIGAMMA_ERROR + 3.0


def test_digamma_on_both_half_planes():
    x = np.concatenate([np.linspace(-60.5, 60.5, 41), [-0.4, 0.0, 0.49, 0.5, 0.51, 1.0]])
    y = np.array([-500.0, -30.0, -3.0, -0.5, 0.5, 3.0, 30.0, 500.0])
    z = (x[:, None] + 1j * y[None, :]).ravel()
    err_mp, err_scipy = _psi_errors(z, PSI_FLOOR)
    assert err_mp.max() <= 3.0
    # scipy's own error reaches 11 eps |psi| on this grid, at 0.49 - 0.5i
    assert err_scipy.max() <= 16.0


@settings(deadline=None, max_examples=200)
@given(st.floats(-1e4, 1e4), st.floats(0.5, 1e3), st.booleans())
@example(0.6897673349851, 0.6953125, False)
def test_digamma_property(x, y, lower):
    z = np.array([complex(x, -y if lower else y)])
    assert _psi_errors(z, PSI_FLOOR)[0][0] <= 3.0


def test_digamma_real_axis_and_shape():
    with mpmath.workdps(30):
        for v in (0.25, 1.0, 1.4616321449683622, 2.5, 30.0, -2.5):
            assert abs(digamma(v) - float(mpmath.digamma(v))) <= 4 * EPS * max(1.0, abs(float(mpmath.digamma(v))))
    assert digamma(np.ones((2, 2))).shape == (2, 2)


@st.composite
def sorted_samples(draw):
    n = draw(st.integers(1, 50))
    # few distinct values, so the interpolation lands on ties
    values = draw(st.lists(st.integers(-3, 3).map(float) | st.floats(-1e6, 1e6), min_size=n, max_size=n))
    return np.sort(np.array(values))


NEAR_EDGES = [5e-324, 1e-12, 0.5, 1.0, 50.0, 99.0, 100.0 - 1e-12, np.nextafter(100.0, 0.0), 0.0, 100.0]


@settings(deadline=None, max_examples=300)
@given(sorted_samples(), st.lists(st.floats(0.0, 100.0), min_size=1, max_size=8))
@example(np.array([2.5]), NEAR_EDGES)
@example(np.array([1.0, 1.0, 1.0, 2.0]), NEAR_EDGES)
def test_linear_percentiles_match_numpy_bit_for_bit(sorted_g, percentiles):
    percentiles = np.array(percentiles)
    ours = _linear_percentiles(sorted_g, np.arange(sorted_g.size), percentiles)
    assert np.array_equal(ours, np.percentile(sorted_g, percentiles))


def test_linear_percentiles_on_a_run_sized_sample():
    g = np.random.default_rng(5).standard_normal(100_000)
    percentiles = np.concatenate([np.arange(1.0, 100.0), [1e-9, 33.3, 66.7, 100.0 - 1e-9]])
    order = np.argsort(g, kind="stable")
    assert np.array_equal(_linear_percentiles(g, order, percentiles), np.percentile(g, percentiles))


def test_cli_import_and_runs_load_no_scipy_or_new_module():
    # a fresh interpreter: importing the CLI loads no scipy module, and a run
    # of each kind imports nothing more, so no import cost lands in a run
    code = """
import json, sys
import probsens.cli
from probsens.runner import RunConfig, run_case
found = {"import": sorted(m for m in sys.modules if m.startswith("scipy"))}
before = set(sys.modules)
for cfg in ({"case": "identity", "n_samples": 5000}, {"case": "beam", "n_samples": 1000}, {"case": "discrete-oracle"}):
    run_case(RunConfig.from_dict(cfg))
    found[cfg["case"]] = sorted(set(sys.modules) - before)
print(json.dumps(found))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"import": [], "identity": [], "beam": [], "discrete-oracle": []}

