"""Parametric input distributions: sampling, log-densities, scores, Fisher information.

Supported families are Normal and Lognormal, each parameterised by
``(mu, sigma)``.  For the Lognormal these are the mean and standard
deviation of ``ln x``, so every score and information formula is the
Normal one evaluated at ``ln x``.

Scores are the per-parameter derivatives of the log-density,
``d ln p(x | mu, sigma) / d(mu, sigma)``; they are the likelihood-ratio
weights used by every estimator in :mod:`probsens.mclr`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .errors import ContractError, ParameterDomainError, SupportError
from .fisher import FisherMatrix
from .rng import CHUNK, chunk_ranges, uniform_open

_FAMILIES = ("normal", "lognormal")

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class MarginalSpec:
    """One independent input: family plus location/scale parameters."""

    family: str
    mu: float
    sigma: float

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ParameterDomainError(f"unknown family {self.family!r}; expected one of {_FAMILIES}")
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ParameterDomainError("mu and sigma must be finite")
        if self.sigma <= 0.0:
            raise ParameterDomainError(f"sigma must be > 0, got {self.sigma}")

    # -- support ------------------------------------------------------------

    def _require_support(self, x: np.ndarray) -> None:
        if self.family == "lognormal" and np.any(x <= 0.0):
            raise SupportError("lognormal support is x > 0")

    # -- transforms ---------------------------------------------------------

    def ppf(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF; each uniform maps to exactly one draw."""
        z = ndtri(u)
        x = self.mu + self.sigma * z
        if self.family == "lognormal":
            return np.exp(x)
        return x

    def logpdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self._require_support(x)
        if self.family == "lognormal":
            t = np.log(x)
            extra = -t  # Jacobian of the log transform: -ln x
        else:
            t = x
            extra = 0.0
        z = (t - self.mu) / self.sigma
        return -0.5 * z * z - math.log(self.sigma) - _LOG_SQRT_2PI + extra

    def score(self, x) -> np.ndarray:
        """Score vector (d lnp/d mu, d lnp/d sigma), shape (..., 2)."""
        x = np.asarray(x, dtype=float)
        self._require_support(x)
        t = np.log(x) if self.family == "lognormal" else x
        dev = t - self.mu
        s2 = self.sigma * self.sigma
        d_mu = dev / s2
        d_sigma = (dev * dev - s2) / (s2 * self.sigma)
        return np.stack([d_mu, d_sigma], axis=-1)

    def fim(self) -> FisherMatrix:
        """Analytic information matrix w.r.t. (mu, sigma): diag(1/s^2, 2/s^2)."""
        s2 = self.sigma * self.sigma
        return FisherMatrix(np.diag([1.0 / s2, 2.0 / s2]))


def normal(mu: float, sigma: float) -> MarginalSpec:
    return MarginalSpec("normal", mu, sigma)


def lognormal(mu: float, sigma: float) -> MarginalSpec:
    return MarginalSpec("lognormal", mu, sigma)


@dataclass(frozen=True)
class ParamVector:
    """Named distribution parameters, the differentiation variables."""

    names: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ContractError("parameter vector must be 1-D with at least one entry")
        if len(self.names) != values.size:
            raise ContractError("parameter names and values differ in length")
        if len(set(self.names)) != len(self.names):
            raise ContractError("parameter names must be unique")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class InputModel:
    """Ordered independent marginals; the joint density is the product."""

    marginals: tuple[MarginalSpec, ...]

    def __post_init__(self):
        if len(self.marginals) < 1:
            raise ParameterDomainError("model needs at least one marginal")
        object.__setattr__(self, "marginals", tuple(self.marginals))

    @property
    def n_inputs(self) -> int:
        return len(self.marginals)

    @property
    def n_params(self) -> int:
        return 2 * len(self.marginals)

    def param_vector(self) -> ParamVector:
        names, values = [], []
        for i, m in enumerate(self.marginals):
            names += [f"x{i}.mu", f"x{i}.sigma"]
            values += [m.mu, m.sigma]
        return ParamVector(tuple(names), np.array(values))

    def param_scales(self) -> np.ndarray:
        """Natural scale of each parameter: the sigma of the owning marginal."""
        return np.repeat([m.sigma for m in self.marginals], 2).astype(float)

    def shifted(self, db) -> "InputModel":
        """New model with parameters moved by db (same ordering as param_vector)."""
        db = np.asarray(db, dtype=float)
        if db.shape != (self.n_params,):
            raise ContractError(f"expected perturbation of length {self.n_params}, got {db.shape}")
        out = []
        for i, m in enumerate(self.marginals):
            out.append(MarginalSpec(m.family, m.mu + db[2 * i], m.sigma + db[2 * i + 1]))
        return InputModel(tuple(out))

    def _require_draws(self, draws: np.ndarray) -> np.ndarray:
        draws = np.asarray(draws, dtype=float)
        if draws.ndim != 2 or draws.shape[1] != self.n_inputs:
            raise ContractError(
                f"draws must have shape (N, {self.n_inputs}), got {draws.shape}"
            )
        return draws

    def logpdf(self, draws) -> np.ndarray:
        draws = self._require_draws(draws)
        total = np.zeros(draws.shape[0])
        for j, m in enumerate(self.marginals):
            total += m.logpdf(draws[:, j])
        return total

    def scores(self, draws) -> np.ndarray:
        """Joint score rows (N, n_params): concatenated marginal scores."""
        draws = self._require_draws(draws)
        cols = [m.score(draws[:, j]) for j, m in enumerate(self.marginals)]
        return np.concatenate(cols, axis=1)

    def fim(self) -> FisherMatrix:
        """Analytic joint information matrix: block diagonal over marginals."""
        return FisherMatrix.from_blocks([m.fim().matrix for m in self.marginals])


@dataclass(frozen=True)
class ScoredSampleBatch:
    """Input draws with per-parameter scores.

    ``draws[i, j]`` is a pure function of ``(seed, j, i)``, so identical
    ``(model, n, seed)`` give bit-identical batches under any chunked or
    parallel generation schedule.
    """

    draws: np.ndarray = field(repr=False)
    scores: np.ndarray = field(repr=False)
    seed: int

    def __post_init__(self):
        draws = np.asarray(self.draws, dtype=float)
        scores = np.asarray(self.scores, dtype=float)
        if draws.ndim != 2 or scores.ndim != 2 or draws.shape[0] != scores.shape[0]:
            raise ContractError("draws and scores must be 2-D with matching row counts")
        for a in (draws, scores):
            a.setflags(write=False)
        object.__setattr__(self, "draws", draws)
        object.__setattr__(self, "scores", scores)

    @property
    def n(self) -> int:
        return self.draws.shape[0]


def sample(model: InputModel, n: int, seed: int, chunk: int = CHUNK) -> ScoredSampleBatch:
    """Draw n i.i.d. realisations of the model and fill in their scores.

    Column j uses the counter-based stream (seed, j); the chunk size only
    batches the work and never changes the output bits.
    """
    if n < 1:
        raise ParameterDomainError(f"sample count must be >= 1, got {n}")
    draws = np.empty((n, model.n_inputs))
    for j, marg in enumerate(model.marginals):
        for start, stop in chunk_ranges(n, chunk):
            u = uniform_open(seed, j, start, stop - start)
            draws[start:stop, j] = marg.ppf(u)
    return ScoredSampleBatch(draws=draws, scores=model.scores(draws), seed=seed)
