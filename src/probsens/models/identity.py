"""Closed forms for the identity map on a Normal input, y = x ~ N(mu, sigma^2).

The probability measure here is the CDF, P_f(y) = P(Y <= y), so every
Monte-Carlo estimate of the curve has an exact analytic counterpart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterDomainError
from ..special import ndtr


@dataclass(frozen=True)
class IdentityAnalytic:
    """P_f, its parameter gradient, and the squared gradient norm at y."""

    p_f: np.ndarray = field(repr=False)
    d_mu: np.ndarray = field(repr=False)
    d_sigma: np.ndarray = field(repr=False)
    norm_sq: np.ndarray = field(repr=False)


def _check_sigma(sigma: float) -> None:
    if sigma <= 0.0:
        raise ParameterDomainError(f"sigma must be > 0, got {sigma}")


def _pdf(mu, sigma, y):
    z = (np.asarray(y, dtype=float) - mu) / sigma
    return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi)), z


def identity_analytic(mu: float, sigma: float, y) -> IdentityAnalytic:
    """Exact CDF, gradient (-p, -(y-mu)/sigma * p), and its squared norm."""
    _check_sigma(sigma)
    y = np.asarray(y, dtype=float)
    pdf, z = _pdf(mu, sigma, y)
    return IdentityAnalytic(
        p_f=ndtr(z),
        d_mu=-pdf,
        d_sigma=-z * pdf,
        norm_sq=pdf * pdf * (1.0 + z * z),
    )
