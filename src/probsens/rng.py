"""Counter-based random streams for reproducible, schedule-independent sampling.

Uniform draw ``i`` of stream ``(seed, stream)`` is a pure function of
``(seed, stream, i)``: streams are backed by the Philox counter-based
generator and sub-ranges are produced by advancing the counter, so any
chunked or parallel partition of the index range reproduces the exact
bits of a single sequential pass.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

# Fixed chunk length for all chunked evaluation.  Must be a multiple of 4:
# one Philox counter block yields 4 of the 64-bit words consumed per double.
CHUNK = 4096

# Affine squeeze of [0, 1) into the open interval (0, 1) so that inverse-CDF
# transforms stay finite even for the draw u == 0.
_OPEN_SCALE = 1.0 - 2.0**-53
_OPEN_SHIFT = 2.0**-54


def uniform_open(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """Uniforms on (0, 1) at indices [start, start+count) of a stream.

    ``start`` must be a multiple of 4 so it falls on a Philox counter-block
    boundary.
    """
    if start % 4 != 0:
        raise ValueError(f"stream offset must be a multiple of 4, got {start}")
    bitgen = Philox(key=[np.uint64(seed), np.uint64(stream)])
    if start:
        bitgen.advance(start // 4)
    u = Generator(bitgen).random(count)
    return u * _OPEN_SCALE + _OPEN_SHIFT


def chunk_ranges(n: int, chunk: int = CHUNK) -> list[tuple[int, int]]:
    """Fixed [start, stop) partition of range(n) into ``chunk``-row pieces; the last may be shorter."""
    if chunk % 4 != 0:
        raise ValueError(f"chunk size must be a multiple of 4, got {chunk}")
    return [(s, min(s + chunk, n)) for s in range(0, n, chunk)]
