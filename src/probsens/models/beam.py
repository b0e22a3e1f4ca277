"""Random vibration of a thin clamped-free beam under bandlimited white noise.

The forward map takes (Young's modulus, density) to the peak r.m.s.
acceleration and strain along the beam.  Displacement and strain frequency
response functions come from a three-mode modal summation with mode shapes
phi_r and natural frequencies omega_r = (beta_r L)^2 sqrt(EI / (rho A L^4));
response spectra are integrated by the trapezoidal rule on a fixed
frequency grid.

For the r.m.s. integrals the modal sum is expanded into a 3 x 3 matrix of
cross-spectral sums G_ab = trapezoid sum of w(omega) Re[T_a conj(T_b)],
with T_r = 1 / (omega_r^2 - omega^2 + 2i zeta omega_r omega).  Each is
evaluated in closed form, so a member costs O(modes^2) digammas whatever
the number of frequency points.  T_r has real coefficients, so
conj T_b(omega) = T_b(-omega) and omega^k T_a(omega) T_b(-omega) (k = 4
for acceleration, 0 for strain) is rational with four simple poles; in
partial fractions it is [k = 4] + sum_j c_j r_j^k / (omega - r_j), and on
the grid lo + i step, i < n, the trapezoid sum of 1 / (omega - r) is
psi(a + n) - psi(a) - (step / 2) (1 / (lo - r) + 1 / (hi - r)) with
a = (lo - r) / step (Abramowitz & Stegun, section 6.3).  This is the same
trapezoid sum as summing the grid, not the exact integral.

The partial fractions cancel where the band holds little of the response:
spans far above or below the modes, or damping near 1 (zeta = 1 exactly is
a double pole).  Every member therefore carries a rounding bound: eps times
the magnitudes of all the terms it summed and of how far rounding of its
poles can move them, carried through to the relative error of its output.  A
member whose bound exceeds ``_MAX_ROUNDING`` (1e-10), or whose result is
not finite, raises :class:`EvaluationError` instead of returning a value.
The default configuration stays below 1e-14 out to 6 sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import psi

from ..distributions import MarginalSpec, lognormal
from ..errors import ConfigError, EvaluationError, ParameterDomainError

# Largest rounding bound a returned row may carry, relative to its output.
_MAX_ROUNDING = 1e-10

_MAX_MODES = 10


def beam_roots(n: int) -> np.ndarray:
    """First n roots of the clamped-free characteristic equation.

    Solves cos(x) cosh(x) = -1 by Newton iteration on the numerically
    stable equivalent cos(x) + sech(x) = 0, starting from (r - 1/2) pi,
    then polishes to the float64 neighbor minimising the raw residual.
    """
    if not 1 <= n <= _MAX_MODES:
        raise ParameterDomainError(f"mode count must be in [1, {_MAX_MODES}], got {n}")
    roots = np.empty(n)
    for r in range(1, n + 1):
        x = (r - 0.5) * math.pi
        for _ in range(100):
            f = math.cos(x) + 1.0 / math.cosh(x)
            if abs(f) < 1e-14:
                break
            df = -math.sin(x) - math.tanh(x) / math.cosh(x)
            x -= f / df
        else:
            raise EvaluationError(f"characteristic root {r} did not converge")
        candidates = [x]
        for _ in range(3):
            candidates.append(math.nextafter(candidates[-1], math.inf))
        for _ in range(3):
            candidates.insert(0, math.nextafter(candidates[0], -math.inf))
        roots[r - 1] = min(candidates, key=lambda c: abs(math.cos(c) * math.cosh(c) + 1.0))
    return roots


def beam_mode_shape(beta_l: float, u) -> tuple[np.ndarray, np.ndarray]:
    """Mode shape and its curvature at relative positions u = xi / L.

    Normalisation constant 1; curvature is with respect to u (divide by
    L^2 for physical coordinates).  Clamped end: phi(0) = phi'(0) = 0;
    free end: the curvature vanishes because beta_l solves the
    characteristic equation.
    """
    u = np.asarray(u, dtype=float)
    s, sh = math.sin(beta_l), math.sinh(beta_l)
    c, ch = math.cos(beta_l), math.cosh(beta_l)
    a = s - sh
    b = c + ch
    su, shu = np.sin(beta_l * u), np.sinh(beta_l * u)
    cu, chu = np.cos(beta_l * u), np.cosh(beta_l * u)
    phi = (a * (su - shu) + b * (cu - chu)) / a
    curv = beta_l**2 * (a * (-su - shu) + b * (-cu - chu)) / a
    return phi, curv


@dataclass(frozen=True)
class BeamConfig:
    """Geometry, material specs, and discretisation of the beam study.

    Default section is a 20 mm x 2 mm rectangle of length 1 m, excited at
    mid-span with unit force spectral density.  The frequency grid spans
    from 1% of the first natural frequency (at mean properties) up to 1.2x
    the third natural frequency of a +4 sigma stiffness-to-density draw,
    so each ensemble member keeps its three modes inside the band.
    """

    length: float = 1.0
    e_spec: MarginalSpec = lognormal(24.85, 0.47)
    rho_spec: MarginalSpec = lognormal(7.88, 0.2)
    second_moment: float = 0.02 * 0.002**3 / 12.0
    section_area: float = 0.02 * 0.002
    modal_damping: float = 0.1
    excitation_frac: float = 0.5
    force_psd: float = 1.0
    n_modes: int = 3
    n_response: int = 101
    n_freq: int = 4000
    omega_span: tuple[float, float] | None = None

    def __post_init__(self):
        for name in ("length", "second_moment", "section_area", "modal_damping", "force_psd"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 <= self.excitation_frac <= 1.0:
            raise ConfigError("excitation position must lie on the beam")
        if self.n_response < 2 or self.n_freq < 2:
            raise ConfigError("response and frequency grids must be non-empty")
        if not 1 <= self.n_modes <= _MAX_MODES:
            raise ConfigError(f"n_modes must be in [1, {_MAX_MODES}]")
        if self.omega_span is None:
            object.__setattr__(self, "omega_span", self._default_span())
        lo, hi = self.omega_span
        if not 0.0 < lo < hi:
            raise ConfigError("frequency span must satisfy 0 < lo < hi")

    def _freq_factor(self) -> float:
        # omega_r = roots[r]^2 * _freq_factor() * sqrt(E / rho)
        return math.sqrt(self.second_moment / (self.section_area * self.length**4))

    def _default_span(self) -> tuple[float, float]:
        roots = beam_roots(self.n_modes)
        fac = self._freq_factor()
        e_mean = math.exp(self.e_spec.mu + 0.5 * self.e_spec.sigma**2)
        rho_mean = math.exp(self.rho_spec.mu + 0.5 * self.rho_spec.sigma**2)
        s_nominal = math.sqrt(e_mean / rho_mean)
        # +4 sigma of sqrt(E/rho), which is lognormal itself
        sd_ln_s = 0.5 * math.hypot(self.e_spec.sigma, self.rho_spec.sigma)
        s_hi = math.exp(0.5 * (self.e_spec.mu - self.rho_spec.mu) + 4.0 * sd_ln_s)
        lo = 0.01 * roots[0] ** 2 * fac * s_nominal
        hi = 1.2 * roots[-1] ** 2 * fac * s_hi
        return lo, hi

    def omega_grid(self) -> np.ndarray:
        return np.linspace(self.omega_span[0], self.omega_span[1], self.n_freq)

    def response_fractions(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_response)


def beam_natural_frequencies(e, rho, cfg: BeamConfig) -> np.ndarray:
    """omega_r for each (E, rho); shape (n_modes,) or (S, n_modes)."""
    e = np.asarray(e, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if np.any(e <= 0.0) or np.any(rho <= 0.0):
        raise ParameterDomainError("E and rho must be positive")
    roots = beam_roots(cfg.n_modes)
    speed = np.sqrt(e / rho)
    return np.multiply.outer(speed, roots**2) * cfg._freq_factor()


def _modal_tables(cfg: BeamConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-configuration (positions, modes) numerators of acceleration and strain."""
    roots = beam_roots(cfg.n_modes)
    u = cfg.response_fractions()
    phi = np.empty((u.size, cfg.n_modes))
    curv = np.empty((u.size, cfg.n_modes))
    phi_ex = np.empty(cfg.n_modes)
    for m, bl in enumerate(roots):
        phi[:, m], curv[:, m] = beam_mode_shape(bl, u)
        phi_ex[m] = beam_mode_shape(bl, cfg.excitation_frac)[0]
    curv /= cfg.length**2
    return phi * phi_ex, curv * phi_ex


def _cross_spectra(wr: np.ndarray, cfg: BeamConfig):
    """Trapezoid sums G_ab of Re[T_a conj(T_b)] weighted by 2 S_0 w^4 (acceleration)
    and 2 S_0 (strain), for natural frequencies wr of shape (S, m).

    Returns ((g_acc, g_str), (e_acc, e_str)): (S, m, m) sums and, for each,
    eps times the sum of the magnitudes of its terms, which bounds the
    rounding error of every G_ab.
    """
    lo, hi = cfg.omega_span
    n = cfg.n_freq
    step = (hi - lo) / (n - 1)
    zeta = cfg.modal_damping
    wr = wr[:, :, None]
    # the poles u of T_a in the upper half plane, (S, m, 2); the complex root
    # keeps overdamped modes (zeta > 1) on the imaginary axis
    u = wr * (np.sqrt(1.0 - zeta * zeta + 0j) * np.array([1.0, -1.0])) + 1j * zeta * wr
    # trapezoid sum of 1 / (w - u) over the grid lo + i step, i < n
    a = (lo - u) / step
    psi_hi, psi_lo = psi(a + n), psi(a)
    end_lo, end_hi = 1.0 / (lo - u), 1.0 / (hi - u)
    trap = psi_hi - psi_lo - 0.5 * step * (end_lo + end_hi)
    # what eps-relative rounding can move it by: the magnitudes of its parts,
    # plus (|lo - u| + |u|) times the sum of step / |w - u|^2 over the grid,
    # for rounding of the pole u itself; that sum is at most
    # pi / y + step / y^2 (y = Im u) and at most (hi - lo + step) / d^2 (d the
    # distance from u to the span)
    y = u.imag
    gap = np.maximum(np.maximum(lo - u.real, u.real - hi), 0.0)
    slope = np.minimum(math.pi / y + step / (y * y), (hi - lo + step) / (y * y + gap * gap))
    size = (
        np.abs(psi_hi)
        + np.abs(psi_lo)
        + 0.5 * step * (np.abs(end_lo) + np.abs(end_hi))
        + (np.abs(lo - u) + np.abs(u)) * slope
    )
    # residue of T_a(w) T_b(-w) at u: T_b(-u) / D_a'(u), (S, m_a, 2, m_b)
    w_b = wr[:, None, None, :, 0]
    u_b = u[..., None]
    res = 1.0 / (2.0 * (1j * zeta * wr - u))[..., None] / (w_b * w_b - u_b * u_b - 2j * zeta * w_b * u_b)
    sums, errs = [], []
    # w^4 T_a(w) T_b(-w) tends to 1 at infinity; its trapezoid sum has hi - lo more
    for k, const in ((4, hi - lo), (0, 0.0)):
        res_k = res * u_b**k
        # the residues at the lower-half-plane poles of pair (a, b) are the
        # conjugates of those at the upper poles of pair (b, a)
        half = (res_k * trap[..., None]).sum(axis=2).real
        terms = (np.abs(res_k) * size[..., None]).sum(axis=2)
        sums.append(2.0 * cfg.force_psd * (half + half.transpose(0, 2, 1) + const))
        errs.append(2.0 * cfg.force_psd * np.finfo(float).eps * (terms + terms.transpose(0, 2, 1) + const))
    return sums, errs


def _peak(num: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The largest num^T G num over positions, for each row of a symmetric G."""
    m = num.shape[1]
    sq = np.zeros((g.shape[0], num.shape[0]))
    term = np.empty_like(sq)
    for a in range(m):
        for b in range(a, m):
            pair = num[:, a] * num[:, b] * (1.0 if a == b else 2.0)
            np.multiply(g[:, a, b, None], pair, out=term)
            sq += term
    return sq.max(axis=1)


def beam_rms_ensemble(e, rho, cfg: BeamConfig) -> np.ndarray:
    """Peak r.m.s. acceleration and strain for each ensemble member.

    Returns an (S, 2) array of [peak acceleration, peak strain].  Results
    for each member depend only on its own (E, rho), never on the batch:
    every operation is elementwise or a reduction within one row.  A member
    whose relative rounding bound exceeds ``_MAX_ROUNDING``, or whose result
    is not finite, raises :class:`EvaluationError`.
    """
    e = np.atleast_1d(np.asarray(e, dtype=float))
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    if e.shape != rho.shape or e.ndim != 1:
        raise ParameterDomainError("E and rho must be 1-D arrays of equal length")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sums, errs = _cross_spectra(beam_natural_frequencies(e, rho, cfg), cfg)
        peak = np.empty((e.size, 2))
        # the peak over positions moves by at most sum_ab max_x |num_a num_b| err_ab
        shift = np.empty((e.size, 2))
        for i, (num, g, err) in enumerate(zip(_modal_tables(cfg), sums, errs)):
            peak[:, i] = _peak(num, g)
            reach = np.abs(num[:, :, None] * num[:, None, :]).max(axis=0)
            shift[:, i] = (err * reach).sum(axis=(1, 2))
        # the square root halves the relative error
        ok = np.all(0.5 * shift <= _MAX_ROUNDING * peak, axis=1) & np.all(np.isfinite(peak), axis=1)
    if not np.all(ok):
        i = int(np.flatnonzero(~ok)[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.max(0.5 * shift[i] / peak[i])
        raise EvaluationError(
            f"beam closed form is not accurate for the row E={float(e[i])!r}, rho={float(rho[i])!r}: "
            f"relative rounding bound {rel:.3g} (largest allowed {_MAX_ROUNDING:g}) over the "
            f"frequency span {tuple(map(float, cfg.omega_span))} at modal damping {cfg.modal_damping!r}"
        )
    return np.sqrt(peak)
