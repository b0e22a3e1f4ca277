"""Semantic exception types shared across the package, and the float
conversion and type check of public arguments that raise them."""

import numpy as np


class ProbsensError(Exception):
    """Base class for all package errors."""


class ParameterDomainError(ProbsensError, ValueError):
    """A distribution or estimator parameter is outside its domain (e.g. sigma <= 0)."""


class SupportError(ProbsensError, ValueError):
    """An evaluation point lies outside the support of a distribution."""


class ContractError(ProbsensError, ValueError):
    """Inputs violate an interface contract (shape/grid/dimension mismatch)."""


class ConfigError(ProbsensError, ValueError):
    """A run configuration is malformed or contains unknown keys."""


class EvaluationError(ProbsensError, RuntimeError):
    """A forward model produced an invalid value for a specific draw."""


def as_floats(name: str, value) -> np.ndarray:
    """``np.asarray(value, dtype=float)``; a value numpy cannot read as floats
    (a string, a ragged list, a dict) raises :class:`ContractError`."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ContractError(f"{name} must be numbers, got {value!r}") from exc


def expect(name: str, value, kind: type):
    """``value`` itself; a value that is not a ``kind``, such as a string
    where an object of the package is expected, raises :class:`ContractError`."""
    if not isinstance(value, kind):
        raise ContractError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")
    return value
