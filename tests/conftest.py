import itertools
import math

import numpy as np
import pytest

import probsens as ps
from probsens.errors import ContractError
from probsens.mclr import DensityGrid


def normal_pdf_grid(axis: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    """Exact Normal pdf evaluated on a grid (for oracle density pairs)."""
    z = (axis - mu) / sigma
    return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))


def min_eigenvalue(fim: ps.FisherMatrix) -> float:
    return float(np.linalg.eigvalsh(fim.matrix).min())


def joint_score_and_fim(model: ps.InputModel, batch: ps.ScoredSampleBatch):
    """Joint scores, the analytic input FIM, and its Monte-Carlo estimate.

    Returns ``(scores, fim, fim_mc)`` where ``fim_mc`` is the sample mean of
    the score outer products E[s s^T], used to cross-validate the analytic
    block-diagonal matrix.
    """
    scores = model.scores(batch.draws)
    if scores.shape != batch.scores.shape:
        raise ContractError("batch was not drawn from this model (score shape mismatch)")
    mc = (scores.T @ scores) / scores.shape[0]
    mc = 0.5 * (mc + mc.T)
    return scores, model.fim(), ps.FisherMatrix(mc)


def all_failure_sets(d: int) -> np.ndarray:
    """Every subset of d cells as a (2^d, d) 0/1 matrix."""
    return np.array(list(itertools.product((0, 1), repeat=d)))


@pytest.fixture(scope="session")
def exact_normal_kl_errors():
    """KL/quadratic-form relative errors of exact normal densities under
    (mu, sigma) shifts of s * sigma for s halving from 0.01: one
    ``(errors, log-log slope against s)`` pair per KL ordering."""
    mu, sigma = 1.0, 0.2
    axis = np.linspace(mu - 8 * sigma, mu + 8 * sigma, 4096)
    f = ps.FisherMatrix(np.diag([1.0 / sigma**2, 2.0 / sigma**2]))

    def grid(mu_, sigma_):
        return DensityGrid(
            axes=(axis,),
            density=normal_pdf_grid(axis, mu_, sigma_),
            density_grad=np.zeros((2, axis.size)),
            bandwidth=np.array([0.0]),
        )

    scales = [0.01 / 2**k for k in range(5)]
    errs_fwd, errs_rev = [], []
    for s in scales:
        db = np.array([s * sigma, s * sigma])
        dg0 = grid(mu, sigma)
        dg1 = grid(mu + db[0], sigma + db[1])
        # exact densities carry no estimator noise: disable the tail floor
        errs_fwd.append(ps.kl_quadratic_consistency(f, db, ps.estimate_kl(dg0, dg1, floor=0.0)))
        errs_rev.append(ps.kl_quadratic_consistency(f, db, ps.estimate_kl(dg1, dg0, floor=0.0)))
    return [(errs, float(np.polyfit(np.log(scales), np.log(errs), 1)[0])) for errs in (errs_fwd, errs_rev)]
