"""Case-study forward maps and their closed forms."""

from .beam import (
    BeamConfig,
    beam_mode_shape,
    beam_natural_frequencies,
    beam_rms_ensemble,
    beam_roots,
)
from .identity import (
    IdentityAnalytic,
    identity_analytic,
    identity_stationarity,
    norm_sq_d2y,
    norm_sq_dy,
)
from .sho import sho_response

__all__ = [
    "BeamConfig",
    "IdentityAnalytic",
    "beam_mode_shape",
    "beam_natural_frequencies",
    "beam_rms_ensemble",
    "beam_roots",
    "identity_analytic",
    "identity_stationarity",
    "norm_sq_d2y",
    "norm_sq_dy",
    "sho_response",
]
