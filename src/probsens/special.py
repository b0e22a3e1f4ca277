"""Special functions on numpy alone: the normal quantile and CDF, and the complex digamma.

They are written here, not taken from ``scipy.special``, because importing
that module costs about 0.24 s (it pulls in ``numpy.f2py`` and
``numpy.ma``), more than most runs spend computing; ``import probsens``
loads no scipy module.

* :func:`ndtri`, the standard normal quantile, is Wichura's algorithm AS241
  (PPND16; *Applied Statistics* 37:477, 1988), the algorithm of the
  standard library's ``statistics.NormalDist.inv_cdf``: a rational function
  of ``0.180625 - q^2`` for ``|q| <= 0.425`` (q = p - 1/2), and of
  ``sqrt(-ln min(p, 1 - p))`` in two tail pieces.  The central piece is
  evaluated over the whole array, the tails on their subset only.  Over
  50,000 points from p = 2^-54 to 1 - 2^-53 it is within 6 ulp of
  ``scipy.special.ndtri`` and of a 40-digit mpmath reference (scipy's own
  error: 4 ulp), and it equals ``inv_cdf`` bit for bit.
* :func:`ndtr`, the standard normal CDF, is ``0.5 erfc(-x / sqrt(2))`` from
  the C library, one element at a time: its callers pass a few hundred
  values at most.  For |x| <= 8 its relative error against mpmath is below
  0.9 eps (1 + x^2), erfc's own condition number.
* :func:`digamma` of a complex argument reflects ``Re z < 1/2`` by
  ``psi(z) = psi(1 - z) - pi cot(pi z)``.  The cotangent's argument is first
  reduced by ``round(Re z)``, so ``pi z`` loses nothing to rounding, and it is
  evaluated as ``-i s (1 + 2q / (1 - q))`` with ``q = exp(2 pi i s z)``, s the
  sign of Im z, a small correction to ``-i s`` away from the real axis.
  Then ``psi(w) = psi(w + 1) - 1/w`` moves w until ``|w| >= 12``, where
  seven terms of the asymptotic series ``ln w - 1/(2w) - sum B_2k / (2k
  w^2k)`` (Abramowitz & Stegun 6.3.18) leave a truncation error below
  3e-18.  Over the 78,732 arguments the beam model passes for rows on an
  81 x 81 grid out to +-6 sigma (Re z in [-8910, 12912], Im z in [-896,
  -0.92]) its error against mpmath is at most 1.15 eps |psi(z)|
  (``scipy.special.psi``: 2.5).  Near the origin psi is small but the
  terms that cancel to it are about ln 12; on 6,000 random points with
  |Re z| <= 15 and 0.5 <= |Im z| <= 15 the error measured at most
  1.9 eps max(|psi(z)|, ln 12).
"""

from __future__ import annotations

import math

import numpy as np

# Largest error of digamma, in units of eps |psi(z)|, over the beam
# model's arguments; measured 1.15 against mpmath, rounded up.
DIGAMMA_ERROR = 1.5

# AS241 coefficients, highest degree first: central piece (|q| <= 0.425),
# then the tail pieces for r = sqrt(-ln p) <= 5 and r > 5.
_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4, 4.5921953931549871457e4,
     1.3731693765509461125e4, 1.9715909503065514427e3, 1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4, 2.1213794301586595867e4,
     5.3941960214247511077e3, 6.8718700749205790830e2, 4.2313330701600911252e1, 1.0),
)
_NEAR_TAIL = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1, 1.27045825245236838258e0,
     3.64784832476320460504e0, 5.76949722146069140550e0, 4.63033784615654529590e0, 1.42343711074968357734e0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2, 1.48103976427480074590e-1,
     6.89767334985100004550e-1, 1.67638483018380384940e0, 2.05319162663775882187e0, 1.0),
)
_FAR_TAIL = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3, 2.65321895265761230930e-2,
     2.96560571828504891230e-1, 1.78482653991729133580e0, 5.46378491116411436990e0, 6.65790464350110377720e0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5, 7.86869131145613259100e-4,
     1.48753612908506148525e-2, 1.36929880922735805310e-1, 5.99832206555887937690e-1, 1.0),
)

# B_2k / (2k), k = 1..7: the asymptotic series of digamma in 1 / w^2.
_DIGAMMA_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)
_DIGAMMA_SHIFT_TO = 12.0


def _horner(coeffs, r):
    acc = coeffs[0] * r
    acc += coeffs[1]
    for c in coeffs[2:]:
        acc *= r
        acc += c
    return acc


def ndtri(p) -> np.ndarray:
    """Standard normal quantile, elementwise: -inf at 0, +inf at 1, NaN outside [0, 1]."""
    p = np.asarray(p, dtype=float)
    shape, p = p.shape, p.ravel()
    q = p - 0.5
    r = 0.180625 - q * q
    x = _horner(_CENTRAL[0], r) * q / _horner(_CENTRAL[1], r)
    tail = np.abs(q) > 0.425
    if np.any(tail):
        pt, qt = p[tail], q[tail]
        # p = 0 or 1 makes r infinite, p outside [0, 1] makes it NaN
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.sqrt(-np.log(np.where(qt <= 0.0, pt, 1.0 - pt)))
            r_near = r - 1.6
            xt = _horner(_NEAR_TAIL[0], r_near) / _horner(_NEAR_TAIL[1], r_near)
            far = ~(r <= 5.0)
            if np.any(far):
                r_far = r[far] - 5.0
                x_far = _horner(_FAR_TAIL[0], r_far) / _horner(_FAR_TAIL[1], r_far)
                xt[far] = np.where(np.isinf(r_far), np.inf, x_far)
        x[tail] = np.where(qt < 0.0, -xt, xt)
    return x.reshape(shape)


def ndtr(x) -> np.ndarray:
    """Standard normal CDF, elementwise."""
    x = np.asarray(x, dtype=float)
    out = [0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x.ravel().tolist()]
    return np.array(out).reshape(x.shape)


def digamma(z) -> np.ndarray:
    """Digamma function of complex z, elementwise; z must avoid the poles 0, -1, -2, ..."""
    z = np.asarray(z, dtype=complex)
    shape, z = z.shape, z.ravel()
    reflect = z.real < 0.5
    w = np.where(reflect, 1.0 - z, z)
    acc = np.zeros_like(w)
    # Re w >= 1/2, so twelve steps reach |w| >= 12
    for _ in range(int(_DIGAMMA_SHIFT_TO)):
        short = np.abs(w) < _DIGAMMA_SHIFT_TO
        if not np.any(short):
            break
        acc[short] -= 1.0 / w[short]
        w[short] += 1.0
    v = 1.0 / (w * w)
    series = _horner(_DIGAMMA_SERIES[::-1], v) * v
    out = np.log(w) - 0.5 / w - series + acc
    if np.any(reflect):
        zr = z[reflect]
        zr = zr - np.round(zr.real)
        # pi cot(pi z) = -s pi i (1 + 2q / (1 - q)), q = exp(2 pi i s z) and
        # s the sign of Im z, so |q| <= 1 and the correction to -s pi i is small
        s = np.where(zr.imag > 0.0, 1.0, -1.0)
        q = np.exp(2j * math.pi * s * zr)
        out[reflect] += s * (1j * math.pi) * (1.0 + 2.0 * q / (1.0 - q))
    return out.reshape(shape)
