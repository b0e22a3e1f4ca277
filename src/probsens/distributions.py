"""Parametric input distributions: sampling, log-densities, scores, Fisher information.

Supported families are Normal and Lognormal, each parameterised by
``(mu, sigma)``.  For the Lognormal these are the mean and standard
deviation of ``ln x``, so every score and information formula is the
Normal one evaluated at ``ln x``.

Every draw is ``from_standard`` of a standard normal: ``mu + sigma * z``,
exponentiated for a Lognormal.  A batch keeps its standard normals, so a
model with shifted parameters maps them to draws paired with the batch's
on common random numbers.

Scores are the per-parameter derivatives of the log-density,
``d ln p(x | mu, sigma) / d(mu, sigma)``; they are the likelihood-ratio
weights used by every estimator in :mod:`probsens.mclr`.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ParameterDomainError, ProbsensError, SupportError, as_floats
from .fisher import FisherMatrix
from .rng import CHUNK, chunk_ranges, uniform_open
from .special import ndtri

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
        if not all(isinstance(v, numbers.Real) and math.isfinite(v) for v in (self.mu, self.sigma)):
            raise ParameterDomainError(f"mu and sigma must be finite numbers, got {self.mu!r}, {self.sigma!r}")
        if self.sigma <= 0.0:
            raise ParameterDomainError(f"sigma must be > 0, got {self.sigma}")

    # -- support ------------------------------------------------------------

    def _require_support(self, x: np.ndarray) -> None:
        if self.family == "lognormal" and np.any(x <= 0.0):
            raise SupportError("lognormal support is x > 0")

    # -- transforms ---------------------------------------------------------

    def from_standard(self, z: np.ndarray) -> np.ndarray:
        """Draws from standard normals: ``mu + sigma * z``, exponentiated for
        a lognormal.  Every draw of this marginal goes through it."""
        x = self.mu + self.sigma * z
        if self.family == "lognormal":
            return np.exp(x)
        return x

    def ppf(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF; each uniform maps to exactly one draw."""
        return self.from_standard(ndtri(u))

    def logpdf(self, x) -> np.ndarray:
        x = as_floats("x", x)
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
        x = as_floats("x", x)
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

    @property
    def param_names(self) -> tuple[str, ...]:
        """The differentiation variables, in the order of every score column,
        information matrix and perturbation: ``x<i>.mu``, ``x<i>.sigma``."""
        return tuple(f"x{i}.{name}" for i in range(self.n_inputs) for name in ("mu", "sigma"))

    def param_scales(self) -> np.ndarray:
        """Natural scale of each parameter: the sigma of the owning marginal."""
        return np.repeat([m.sigma for m in self.marginals], 2).astype(float)

    def shifted(self, db) -> "InputModel":
        """New model with parameters moved by db (ordered as param_names)."""
        db = as_floats("perturbation", db)
        if db.shape != (self.n_params,):
            raise ContractError(f"expected perturbation of length {self.n_params}, got {db.shape}")
        out = []
        for i, m in enumerate(self.marginals):
            out.append(MarginalSpec(m.family, m.mu + db[2 * i], m.sigma + db[2 * i + 1]))
        return InputModel(tuple(out))

    def _require_draws(self, draws: np.ndarray) -> np.ndarray:
        draws = as_floats("draws", draws)
        if draws.ndim != 2 or draws.shape[1] != self.n_inputs:
            raise ContractError(
                f"draws must have shape (N, {self.n_inputs}), got {draws.shape}"
            )
        return draws

    def from_standard(self, normals) -> np.ndarray:
        """Draws (N, n_inputs) from standard normals of the same shape,
        column j through marginal j.  Models that differ only in parameters
        map the same normals to paired draws on common random numbers."""
        normals = self._require_draws(normals)
        return np.column_stack([m.from_standard(normals[:, j]) for j, m in enumerate(self.marginals)])

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
    """Input draws with per-parameter scores and the standard normals they
    were mapped from.

    ``normals[i, j]`` is a pure function of ``(seed, j, i)``, so identical
    ``(model, n, seed)`` give bit-identical batches under any chunked or
    parallel generation schedule, and ``draws`` is
    ``model.from_standard(normals)``.
    """

    draws: np.ndarray = field(repr=False)
    scores: np.ndarray = field(repr=False)
    normals: np.ndarray = field(repr=False)
    seed: int

    def __post_init__(self):
        draws = np.asarray(self.draws, dtype=float)
        scores = np.asarray(self.scores, dtype=float)
        normals = np.asarray(self.normals, dtype=float)
        if draws.ndim != 2 or scores.ndim != 2 or draws.shape[0] != scores.shape[0]:
            raise ContractError("draws and scores must be 2-D with matching row counts")
        if normals.shape != draws.shape:
            raise ContractError(f"normals must have the draws' shape {draws.shape}, got {normals.shape}")
        for a in (draws, scores, normals):
            a.setflags(write=False)
        object.__setattr__(self, "draws", draws)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "normals", normals)

    @property
    def n(self) -> int:
        return self.draws.shape[0]


# Rows inverted per ndtri call.  ndtri makes about 75 numpy calls, each with
# a fixed cost, so small chunks pay it often, and the temporaries of a whole
# 1e5-row column outgrow the cache.  On a 2-core x86-64 machine, sampling
# 1e5 identity rows in 16384-row chunks took 15-25% less time than in
# 4096-row chunks and 7-12% less than as one column (six interleaved runs,
# medians of 80-120 calls each).
_INVERSION_CHUNK = 4 * CHUNK


def _integer(name: str, value, error: type[ProbsensError] = ParameterDomainError) -> int:
    """``value`` as an int.  A bool, which ``operator.index`` takes for 1 or 0
    (JSON true and false load as bools), raises ``error``, as does a float."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise error(f"{name} must be an integer, got {value!r}")


def sample(model: InputModel, n: int, seed: int) -> ScoredSampleBatch:
    """Draw n i.i.d. realisations of the model and fill in their scores.

    Column j of the standard normals comes from the counter-based stream
    (seed, j) through ``ndtri``, one chunk of ``_INVERSION_CHUNK`` rows at
    a time: each chunk's uniforms are drawn, inverted and written straight
    into their rows, so no N-length uniform or ``ndtri`` temporary is
    formed.  ``ndtri`` is elementwise, so the chunk size never changes the
    output bits.  The draws are ``model.from_standard(normals)``, so for
    any shifted model
    ``shifted.from_standard(batch.normals)`` is bit for bit the draws of
    ``sample(shifted, n, seed)``, without drawing or inverting again.
    """
    n, seed = _integer("sample count", n), _integer("seed", seed)
    if n < 1:
        raise ParameterDomainError(f"sample count must be >= 1, got {n}")
    if not 0 <= seed < 2**64:
        raise ParameterDomainError(f"seed must be in [0, 2**64), got {seed}")
    normals = np.empty((n, model.n_inputs))
    for j in range(model.n_inputs):
        for start, stop in chunk_ranges(n, _INVERSION_CHUNK):
            normals[start:stop, j] = ndtri(uniform_open(seed, j, start, stop - start))
    draws = model.from_standard(normals)
    return ScoredSampleBatch(draws=draws, scores=model.scores(draws), normals=normals, seed=seed)
