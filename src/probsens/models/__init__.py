"""Case-study forward maps and their closed forms."""

from .beam import (
    BeamConfig,
    beam_mode_shape,
    beam_natural_frequencies,
    beam_rms_ensemble,
    beam_roots,
)
from .identity import IdentityAnalytic, identity_analytic
from .sho import sho_response

__all__ = [
    "BeamConfig",
    "IdentityAnalytic",
    "beam_mode_shape",
    "beam_natural_frequencies",
    "beam_rms_ensemble",
    "beam_roots",
    "identity_analytic",
    "sho_response",
]
