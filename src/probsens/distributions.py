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
from collections.abc import Sequence
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
        a lognormal."""
        return self._draws_into(z, np.empty(np.shape(z)))

    def _draws_into(self, z, out: np.ndarray) -> np.ndarray:
        """``from_standard(z)`` written into ``out`` in place, each step the
        plain expression's IEEE operation.  Every draw of this marginal goes
        through it."""
        np.multiply(z, self.sigma, out=out)
        np.add(out, self.mu, out=out)
        if self.family == "lognormal":
            np.exp(out, out=out)
        return out

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
        return self._score_into(x, np.empty(x.shape + (2,)))

    def _score_into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``score(x)`` written into ``out`` in place, each step the IEEE
        operation of ``dev = t - mu`` (t = ln x for a lognormal),
        ``dev / s2`` and ``(dev * dev - s2) / (s2 * sigma)``: the one score
        formula, of :meth:`score` and of every batch."""
        self._require_support(x)
        d_mu, d_sigma = out[..., 0], out[..., 1]
        if self.family == "lognormal":
            np.log(x, out=d_mu)
            np.subtract(d_mu, self.mu, out=d_mu)
        else:
            np.subtract(x, self.mu, out=d_mu)
        s2 = self.sigma * self.sigma
        np.multiply(d_mu, d_mu, out=d_sigma)
        np.subtract(d_sigma, s2, out=d_sigma)
        np.divide(d_sigma, s2 * self.sigma, out=d_sigma)
        np.divide(d_mu, s2, out=d_mu)
        return out

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
        marginals = self.marginals
        if not (isinstance(marginals, Sequence) and marginals and all(isinstance(m, MarginalSpec) for m in marginals)):
            raise ContractError(f"marginals must be a non-empty sequence of MarginalSpec, got {marginals!r}")
        object.__setattr__(self, "marginals", tuple(marginals))

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
        draws = np.empty(normals.shape)
        for j, m in enumerate(self.marginals):
            m._draws_into(normals[:, j], draws[:, j])
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
        scores = np.empty((draws.shape[0], self.n_params))
        for j, m in enumerate(self.marginals):
            m._score_into(draws[:, j], scores[:, 2 * j : 2 * j + 2])
        return scores

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
        draws = as_floats("draws", self.draws)
        scores = as_floats("scores", self.scores)
        normals = as_floats("normals", self.normals)
        if draws.ndim != 2 or scores.ndim != 2 or draws.shape[0] != scores.shape[0]:
            raise ContractError("draws and scores must be 2-D with matching row counts")
        if normals.shape != draws.shape:
            raise ContractError(f"normals must have the draws' shape {draws.shape}, got {normals.shape}")
        for a in (draws, scores, normals):
            a.setflags(write=False)
        object.__setattr__(self, "draws", draws)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "seed", _seed(self.seed))

    @property
    def n(self) -> int:
        return self.draws.shape[0]


# Rows inverted per ndtri call.  ndtri makes about 75 numpy calls, each with
# a fixed cost, so small chunks pay it often, and a fresh process faults in
# every page of a large chunk's temporaries; at 16384 rows each is 128 KiB,
# glibc's default mmap threshold, so each is a new mapping.  Sampling 1e5
# identity rows in a freshly forked process (2-core x86-64, one BLAS
# thread, three rounds of 15 forks): 4096 rows took 10.9-12.8 ms and 1,300
# minor faults, 8192 rows 10.2-13.5 ms and 1,340, 12288 rows 9.4-11.5 ms
# and 1,470, 16384 rows 12.6-15.8 ms and 2,245.
_INVERSION_CHUNK = 2 * CHUNK


def _integer(name: str, value, error: type[ProbsensError] = ParameterDomainError) -> int:
    """``value`` as an int.  A bool, which ``operator.index`` takes for 1 or 0
    (JSON true and false load as bools), raises ``error``, as does a float."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise error(f"{name} must be an integer, got {value!r}")


def _seed(value, error: type[ProbsensError] = ParameterDomainError) -> int:
    """``value`` as a seed of the counter-based streams, an integer in
    [0, 2**64); anything else raises ``error``."""
    seed = _integer("seed", value, error)
    if not 0 <= seed < 2**64:
        raise error(f"seed must be in [0, 2**64), got {seed}")
    return seed


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
    ``sample(shifted, n, seed)``, without drawing or inverting again.  The
    draws and the scores are filled in place, column by column, so the
    batch is the only N-length memory a call forms.
    """
    n, seed = _integer("sample count", n), _seed(seed)
    if n < 1:
        raise ParameterDomainError(f"sample count must be >= 1, got {n}")
    try:
        normals = np.empty((n, model.n_inputs))
    except (ValueError, MemoryError):  # numpy's "too big" and "cannot allocate"
        raise ParameterDomainError(f"sample count {n} is too large: its batch cannot be allocated") from None
    for j in range(model.n_inputs):
        for start, stop in chunk_ranges(n, _INVERSION_CHUNK):
            normals[start:stop, j] = ndtri(uniform_open(seed, j, start, stop - start))
    draws = model.from_standard(normals)
    return ScoredSampleBatch(draws=draws, scores=model.scores(draws), normals=normals, seed=seed)
