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
evaluated in closed form, so a member costs four digammas per mode
whatever the number of frequency points.  T_r has real coefficients, so
conj T_b(omega) = T_b(-omega) and omega^k T_a(omega) T_b(-omega) (k = 4
for acceleration, 0 for strain) is rational with four simple poles; in
partial fractions it is [k = 4] + sum_j c_j r_j^k / (omega - r_j), and on
the grid lo + i step, i < n, the trapezoid sum of 1 / (omega - r) is
psi(a + n) - psi(a) - (step / 2) (1 / (lo - r) + 1 / (hi - r)) with
a = (lo - r) / step (Abramowitz & Stegun, section 6.3).  This is the same
trapezoid sum as summing the grid, not the exact integral.

Every natural frequency is s r_r, with the row's speed s = sqrt(E / rho)
and r_r = (beta_r L)^2 sqrt(I / (A L^4)), so every pole is s u1 and every
residue c / s^3, u1 and c being those at unit speed.  With the residue
tables C4 = 2 S_0 c u1^4 and C0 = 2 S_0 c, and trap[a, j] the trapezoid
sum at the pole s u1[a, j]:

    acceleration  G_ab = s H(C4)_ab + 2 S_0 (hi - lo),
    strain        G_ab = s^-3 H(C0)_ab,
    H(C)_ab = Re sum_j (C[a, j, b] trap[a, j] + C[b, j, a] trap[b, j]).

``_tables``, an ``lru_cache`` keyed by the frozen :class:`BeamConfig` and
built on first use, holds u1, the tables as coefficients of [Re trap,
Im trap] for each pair a <= b, the modal numerators' pair products and
their reach (the largest |num_a num_b| over positions).  u1 and c come from
the exact roots, to 256 bits, rounded once.  A row forms only its poles,
one digamma call, its trapezoid sums, the pair entries and the peak.

The partial fractions cancel where the band holds little of the response:
spans far above or below the modes, or damping near 1 (zeta = 1 exactly is
a double pole).  So every member carries a bound on the rounding of its
peak mean square: the sum over the G entries of their reach times

* eps times the magnitude of each term summed: |C| times the size of its
  trapezoid sum, that is the magnitudes of its two digammas (each with
  its measured error of ``DIGAMMA_ERROR`` eps |psi|) and end corrections,
  and how far rounding of the pole s u1 (once per component) and of
  (lo - s u1) / step can move the sum;
* the tables' own rounding: one ulp of each coefficient times |Re trap|
  or |Im trap|;
* the rounding of s^p and of the product by it, once for s and four times
  for s^-3 = 1 / (s s s): eps times that count times |G_ab|;
* eps times the constant 2 S_0 (hi - lo) of the acceleration.

The first two are per-configuration weights, W[a, j] = 2 sum_b |C[a, j, b]|
reach_ab and V, so a row's bound is s^p (size @ W + |trap| @ V) plus the
last two terms.  It is the bound for the row's speed as rounded; half of
it, relative to the peak, bounds the r.m.s. output.  A member whose bound
exceeds ``_MAX_ROUNDING`` (1e-10) of its output, or whose result is not
finite, raises :class:`EvaluationError`.  The default configuration stays
below 1e-14 out to 6 sigma.

A row's result depends on its own (E, rho) alone, so the ensemble runs in
blocks of ``_ROW_BLOCK`` (256) rows: the temporaries stay one block's size
however long the batch, and every bit is that of one pass over all rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..distributions import MarginalSpec, lognormal
from ..errors import ConfigError, ContractError, EvaluationError, ParameterDomainError
from ..special import DIGAMMA_ERROR, digamma

# Largest rounding bound a returned row may carry, relative to its output.
_MAX_ROUNDING = 1e-10

_MAX_MODES = 10

# fewest bits after the binary point of the residue tables' exact arithmetic
_RESIDUE_BITS = 256

# rows of one block of beam_rms_ensemble
_ROW_BLOCK = 256


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
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite")
        if not 0.0 <= self.excitation_frac <= 1.0:
            raise ConfigError("excitation position must lie on the beam")
        if self.n_response < 2 or self.n_freq < 2:
            raise ConfigError("response and frequency grids must be non-empty")
        if not 1 <= self.n_modes <= _MAX_MODES:
            raise ConfigError(f"n_modes must be in [1, {_MAX_MODES}]")
        try:
            fac = self._freq_factor()
        except (OverflowError, ZeroDivisionError):
            fac = math.nan
        if not 0.0 < fac < math.inf:
            raise ConfigError(
                f"length {self.length!r}, second_moment {self.second_moment!r} and section_area "
                f"{self.section_area!r} give no finite positive natural frequency"
            )
        # a tuple, so that the configuration is hashable and keys its tables
        span = self._default_span() if self.omega_span is None else self.omega_span
        object.__setattr__(self, "omega_span", tuple(span))
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


def _speed(e, rho) -> np.ndarray:
    """sqrt(E / rho) of each (E, rho) pair: every natural frequency is this
    speed times a per-configuration constant.

    A pair that is not finite and positive, or whose speed overflows or
    underflows, raises :class:`ParameterDomainError` naming the first such
    row.
    """
    try:
        e, rho = np.broadcast_arrays(np.asarray(e, dtype=float), np.asarray(rho, dtype=float))
    except ValueError:
        raise ContractError(f"E and rho of shapes {np.shape(e)} and {np.shape(rho)} do not broadcast") from None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        speed = np.sqrt(e / rho)
    ok = (e > 0.0) & (e < math.inf) & (rho > 0.0) & (rho < math.inf) & (speed > 0.0) & (speed < math.inf)
    if not np.all(ok):
        i = int(np.flatnonzero(~ok)[0])
        raise ParameterDomainError(
            f"E and rho must be finite and positive, with a finite positive speed sqrt(E/rho); "
            f"row {i} has E={float(e.flat[i])!r}, rho={float(rho.flat[i])!r}"
        )
    return speed


def beam_natural_frequencies(e, rho, cfg: BeamConfig) -> np.ndarray:
    """omega_r for each (E, rho); shape (n_modes,) or (S, n_modes)."""
    roots = beam_roots(cfg.n_modes)
    return np.multiply.outer(_speed(e, rho), roots**2) * cfg._freq_factor()


def _pair_products(num: np.ndarray) -> np.ndarray:
    """num_a num_b at each position for the upper-triangle pairs a <= b of
    the modes, off-diagonal ones doubled: (positions, pairs)."""
    a, b = np.triu_indices(num.shape[1])
    return num[:, a] * num[:, b] * np.where(a == b, 1.0, 2.0)


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


def _ratio(n: int, d: int) -> float:
    """n / d correctly rounded (CPython's int true division), +-inf past the
    largest float."""
    try:
        return n / d
    except OverflowError:
        return math.inf if (n < 0) == (d < 0) else -math.inf


def _residues(r: np.ndarray, zeta: float, force_psd: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unit-speed poles u1 (m, 2) and the tables 2 S_0 c u^4 and 2 S_0 c
    (m, 2, m), each within one ulp of its exact value.

    The poles are the exact roots u = r_a (+-sqrt(1 - zeta^2) + i zeta) of
    r_a^2 - u^2 + 2 i zeta r_a u for the floats r and zeta; c[a, j, b] is the
    residue of T_a(w) T_b(-w) there, 1 / (d1 d2) with d1 = 2 (i zeta r_a - u)
    and d2 = r_b^2 - u^2 - 2 i zeta r_b u.  Every float is an integer
    multiple of 2^-L (L >= ``_RESIDUE_BITS``), sqrt|1 - zeta^2| is taken to
    L bits by ``math.isqrt``, the rest is exact integer arithmetic, and each
    entry is one correctly rounded division.  So neither the rounding of the
    poles nor the cancellation in d2 near a resonance (about eps / zeta in
    float arithmetic) reaches the tables.  A double pole (zeta = 1) has no
    residues: its tables are NaN.
    """
    m = r.size
    c4 = np.full((m, 2, m), complex(math.nan, math.nan))
    c0 = c4.copy()
    u1 = np.empty((m, 2), dtype=complex)
    values = [zeta, force_psd, *r.tolist()]
    scale = max(_RESIDUE_BITS, *(x.as_integer_ratio()[1].bit_length() - 1 for x in values))

    def fixed(x: float) -> int:  # x 2^L
        n, d = x.as_integer_ratio()
        return n << (scale + 1 - d.bit_length())

    def mul(p, q):
        return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]

    z, s0, rs = fixed(zeta), fixed(force_psd), [fixed(x) for x in r.tolist()]
    root = math.isqrt(abs((1 << 2 * scale) - z * z))  # sqrt|1 - zeta^2| 2^L
    for a, ra in enumerate(rs):
        # at 2^-2L; overdamped modes (zeta > 1) have their poles on the imaginary axis
        if z <= 1 << scale:
            poles = [(ra * root, ra * z), (-ra * root, ra * z)]
        else:
            poles = [(0, ra * (z + root)), (0, ra * (z - root))]
        for j, u in enumerate(poles):
            u1[a, j] = complex(_ratio(u[0], 1 << 2 * scale), _ratio(u[1], 1 << 2 * scale))
            # d1 at 2^-2L, u^2 at 2^-4L, u^4 at 2^-8L
            d1 = -2 * u[0], 2 * (z * ra - u[1])
            u2 = mul(u, u)
            u4 = mul(u2, u2)
            for b, rb in enumerate(rs):
                # d2 at 2^-4L, d1 d2 at 2^-6L and |d1 d2|^2 at 2^-12L
                d2 = (rb * rb << 2 * scale) - u2[0] + 2 * z * rb * u[1], -u2[1] - 2 * z * rb * u[0]
                x, y = mul(d1, d2)
                den = x * x + y * y
                if den == 0:
                    continue
                # 2 S_0 c = 2 s0 conj(d1 d2) 2^5L / den; times u^4, / 2^8L more
                num = 2 * s0 * x, -2 * s0 * y
                c0[a, j, b] = complex(_ratio(num[0] << 5 * scale, den), _ratio(num[1] << 5 * scale, den))
                c4[a, j, b] = complex(*(_ratio(v, den << 3 * scale) for v in mul(num, u4)))
    return u1, c4, c0


@functools.lru_cache(maxsize=16)
def _tables(cfg: BeamConfig) -> tuple[np.ndarray, tuple[tuple, tuple]]:
    """Everything of the closed form that does not depend on the row, built
    on first use for each configuration: the (m, 2) unit-speed poles u1 in
    the upper half plane, and for acceleration (G ~ s) and strain (G ~ s^-3):

    * coeffs (4 m, pairs): unit-speed G entries from [Re, Im] of the
      trapezoid sums;
    * const: the constant of every G entry;
    * pairs (positions, pairs): the numerators' ``_pair_products``;
    * weights (6 m,): rounding weights of the trapezoid sums' sizes and of
      their |Re| and |Im|;
    * entry_weights (pairs,): rounding weights of the |G entries|;
    * const_bound: the constant's rounding, carried to the peak.
    """
    eps = np.finfo(float).eps
    lo, hi = cfg.omega_span
    u1, *residues = _residues(beam_roots(cfg.n_modes) ** 2 * cfg._freq_factor(), cfg.modal_damping, cfg.force_psd)
    a, b = np.triu_indices(cfg.n_modes)
    outputs = []
    # the row's speed s enters as s c u^4 (acceleration) and c / s^3 (strain);
    # s^-3 = 1 / (s s s) and the product by it round 4 times, s once
    for c, num, const, rounds in zip(
        residues,
        _modal_tables(cfg),
        (2.0 * cfg.force_psd * (hi - lo), 0.0),
        (1, 4),
    ):
        # G_ab = Re sum_j (c[a, j, b] trap[a, j] + c[b, j, a] trap[b, j]), so
        # trap[a, j] enters each pair that holds mode a through c[a, j, the
        # other mode], a diagonal pair twice; Re(c t) = Re c Re t - Im c Im t
        coeffs = np.zeros((cfg.n_modes, 2, 2, a.size))
        for p, (pa, pb) in enumerate(zip(a, b)):
            coeffs[pa, :, 0, p] += c[pa, :, pb].real
            coeffs[pa, :, 1, p] -= c[pa, :, pb].imag
            coeffs[pb, :, 0, p] += c[pb, :, pa].real
            coeffs[pb, :, 1, p] -= c[pb, :, pa].imag
        coeffs = coeffs.reshape(-1, a.size)
        pairs = _pair_products(num)
        # the peak over positions moves by at most sum_ab reach_ab |error of
        # G_ab|, or sum_p pair_reach_p |error of G_p| over the pairs
        pair_reach = np.abs(pairs).max(axis=0)
        reach = np.zeros((cfg.n_modes, cfg.n_modes))
        reach[a, b] = reach[b, a] = np.abs(num[:, a] * num[:, b]).max(axis=0)
        size_weights = 2.0 * eps * (np.abs(c) * reach[:, None, :]).sum(axis=2).ravel()
        table_weights = np.spacing(np.abs(coeffs)) @ pair_reach
        weights = np.concatenate([size_weights, table_weights])
        outputs.append((coeffs, const, pairs, weights, rounds * eps * pair_reach, eps * const * reach.sum()))
    for array in (u1, *(x for out in outputs for x in out if isinstance(x, np.ndarray))):
        array.flags.writeable = False
    return u1, tuple(outputs)


def _peak(pairs: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The largest num^T G num over positions, for each row of upper-triangle
    entries g of a symmetric G and the pair products of num.

    One product over the upper-triangle pairs (a <= b, off-diagonal ones
    doubled).  ``einsum`` without ``optimize`` adds the pairs into each
    output element one at a time in that order, as a loop over the pairs
    would, so long as there are at least two positions (``n_response`` >= 2);
    with a single output element it would reduce them in a vectorised
    order.  It is not a BLAS product: BLAS may order its sums by the block
    it is handed, so a row's bits would depend on the rows around it.
    """
    return np.einsum("sp,xp->sx", g, pairs).max(axis=1)


def _block(speed: np.ndarray, tables, cfg: BeamConfig) -> tuple[np.ndarray, np.ndarray]:
    """Peak mean squares of acceleration and strain for rows of speed
    s = sqrt(E / rho), (S, 2), and the rounding bound of each.

    Only the poles s u1 and their trapezoid sums are formed per row; the
    G entries are s^p [Re trap, Im trap] @ coeffs + const, by ``einsum``
    without ``optimize``, which sums each entry's terms in one order
    whatever the rows around it.
    """
    lo, hi = cfg.omega_span
    n = cfg.n_freq
    step = (hi - lo) / (n - 1)
    u1, outputs = tables
    u = speed[:, None, None] * u1
    # trapezoid sum of 1 / (w - u) over the grid lo + i step, i < n
    a = (lo - u) / step
    psi_hi, psi_lo = digamma(np.stack([a + n, a]))
    end_lo, end_hi = 1.0 / (lo - u), 1.0 / (hi - u)
    trap = psi_hi - psi_lo - 0.5 * step * (end_lo + end_hi)
    # what eps-relative rounding can move it by: the magnitudes of its parts,
    # each digamma's own error of DIGAMMA_ERROR eps |psi|,
    # plus (|lo - u| + |u|) times the sum of step / |w - u|^2 over the grid,
    # for rounding of the pole u itself; that sum is at most
    # pi / y + step / y^2 (y = Im u) and at most (hi - lo + step) / d^2 (d the
    # distance from u to the span)
    y = u.imag
    gap = np.maximum(np.maximum(lo - u.real, u.real - hi), 0.0)
    slope = np.minimum(math.pi / y + step / (y * y), (hi - lo + step) / (y * y + gap * gap))
    size = (
        (1.0 + DIGAMMA_ERROR) * (np.abs(psi_hi) + np.abs(psi_lo))
        + 0.5 * step * (np.abs(end_lo) + np.abs(end_hi))
        + (np.abs(lo - u) + np.abs(u)) * slope
    )
    parts = trap.view(float).reshape(speed.size, -1)
    magnitudes = np.concatenate([size.reshape(speed.size, -1), np.abs(parts)], axis=1)
    peak = np.empty((speed.size, 2))
    shift = np.empty((speed.size, 2))
    for i, (out, scale) in enumerate(zip(outputs, (speed, 1.0 / (speed * speed * speed)))):
        coeffs, const, pairs, weights, entry_weights, const_bound = out
        g = np.einsum("sk,kp->sp", parts, coeffs) * scale[:, None]
        shift[:, i] = (
            scale * np.einsum("sk,k->s", magnitudes, weights)
            + np.einsum("sp,p->s", np.abs(g), entry_weights)
            + const_bound
        )
        g += const
        peak[:, i] = _peak(pairs, g)
    return peak, shift


def beam_rms_ensemble(e, rho, cfg: BeamConfig) -> np.ndarray:
    """Peak r.m.s. acceleration and strain for each ensemble member.

    Returns an (S, 2) array of [peak acceleration, peak strain].  The
    configuration's residue tables are built once (``_tables``); per row
    only the speed sqrt(E/rho) enters.  Results for each member depend only
    on its own (E, rho), never on the batch: every operation is elementwise
    or a reduction within one row, so the blocks of ``_ROW_BLOCK`` rows keep
    every bit.  An E or rho that is not finite and positive, or whose speed
    overflows, raises :class:`ParameterDomainError`; a member whose relative
    rounding bound exceeds ``_MAX_ROUNDING``, or whose result is not finite,
    raises :class:`EvaluationError`.
    """
    e = np.atleast_1d(np.asarray(e, dtype=float))
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    if e.shape != rho.shape or e.ndim != 1:
        raise ParameterDomainError("E and rho must be 1-D arrays of equal length")
    speed = _speed(e, rho)
    peak = np.empty((e.size, 2))
    shift = np.empty((e.size, 2))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tables = _tables(cfg)
        for start in range(0, e.size, _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            peak[rows], shift[rows] = _block(speed[rows], tables, cfg)
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
