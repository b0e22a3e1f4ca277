"""Symmetric positive-semidefinite Fisher information matrices."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ParameterDomainError, as_floats

# Eigenvalues may dip slightly below zero from floating-point noise; anything
# worse than -1e-8 * trace indicates a real construction bug.
_PSD_TOL = 1e-8


@dataclass(frozen=True)
class FisherMatrix:
    """An n x n information matrix, validated symmetric and PSD up to noise."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = as_floats("information matrix", self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ContractError(f"information matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ParameterDomainError("information matrix entries must be finite")
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.T).max() > 1e-10 * scale:
            raise ContractError("information matrix is not symmetric")
        tr = float(np.trace(m))
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -_PSD_TOL * max(tr, 1.0):
            raise ContractError(
                f"information matrix is not PSD: min eigenvalue {eigs.min():.3e}, trace {tr:.3e}"
            )
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))

    def quad_form(self, db) -> float:
        """Quadratic form db^T F db; a perturbation that makes it infinite or
        NaN raises, since no bound can be judged against it."""
        db = as_floats("perturbation", db)
        if db.shape != (self.n,):
            raise ContractError(f"expected perturbation of length {self.n}, got {db.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            quad = float(db @ self.matrix @ db)
        if not np.isfinite(quad):
            raise ParameterDomainError(f"quadratic form db^T F db is {quad} for the perturbation {db.tolist()}")
        return quad

    @staticmethod
    def from_blocks(blocks: list[np.ndarray]) -> "FisherMatrix":
        """Block-diagonal assembly (independent input groups)."""
        n = sum(b.shape[0] for b in blocks)
        out = np.zeros((n, n))
        k = 0
        for b in blocks:
            d = b.shape[0]
            out[k : k + d, k : k + d] = b
            k += d
        return FisherMatrix(out)
