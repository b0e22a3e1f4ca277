import numpy as np
import pytest

import probsens as ps
from probsens.bounds import normal_pdf_grid
from probsens.mclr import DensityGrid


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
