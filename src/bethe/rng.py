"""Deterministic random number generation.

All randomness in the library flows through `seeded_rng`. The generator
is numpy's Philox4x64, a counter-based generator keyed by
``(seed, stream)``: identical key pairs produce identical sequences on
every platform, and distinct stream ids give statistically independent
streams. Chunked Monte Carlo loops derive one stream per chunk so the
result is independent of chunking/parallelism.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

__all__ = ["seeded_rng"]


def seeded_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Return a Generator for the given (seed, stream) pair.

    Philox keys are 128-bit; seed and stream each occupy one 64-bit word.
    """
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed {seed} must be a non-negative 64-bit integer")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
