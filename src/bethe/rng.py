"""Deterministic random number generation and sample accumulation.

All randomness in the library flows through `seeded_rng`. The generator
is numpy's Philox4x64, a counter-based generator keyed by
``(seed, stream)``: identical key pairs produce identical sequences on
every platform, and distinct stream ids give statistically independent
streams. Chunked Monte Carlo loops derive one stream per chunk so the
result is independent of chunking/parallelism.

Every average over samples (covers, liftings, unit-vector draws) goes
through `Moments`, which merges one chunk of values at a time and keeps
no per-sample list, so a rerun with the same seed and chunking
reproduces its mean and standard error bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

__all__ = ["Moments", "seeded_rng"]


def seeded_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Return a Generator for the given (seed, stream) pair.

    Philox keys are 128-bit; seed and stream each occupy one 64-bit word.
    """
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed {seed} must be a non-negative 64-bit integer")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class Moments:
    """Running mean and variance of real or complex samples.

    Each `add` merges one chunk's mean and sum of squared deviations into
    the running ones (Chan, Golub & LeVeque), separately for the real and
    imaginary parts. The variance is a sum of squares, so it is never
    negative and needs no clamp.
    """

    def __init__(self):
        self.count = 0
        self._complex = False
        self._mean = np.zeros(2)  # real and imaginary part
        self._m2 = np.zeros(2)

    def add(self, values) -> None:
        values = np.asarray(values).reshape(-1)
        k = values.size
        if k == 0:
            return
        self._complex = self._complex or np.iscomplexobj(values)
        parts = np.stack([values.real, np.imag(values)])
        mean = parts.mean(axis=1)
        delta = mean - self._mean
        total = self.count + k
        self._m2 = self._m2 + (
            ((parts - mean[:, None]) ** 2).sum(axis=1)
            + delta**2 * (self.count * k / total)
        )
        self._mean = self._mean + delta * (k / total)
        self.count = total

    @property
    def mean(self):
        """The sample mean: a float, or a complex if any chunk was complex."""
        if self.count == 0:
            raise ValueError("no samples added")
        re, im = (float(x) for x in self._mean)
        return complex(re, im) if self._complex else re

    def _stderr(self, part):
        if self.count < 2:
            return None
        return math.sqrt(float(self._m2[part]) / (self.count - 1) / self.count)

    @property
    def stderr(self) -> float | None:
        """Standard error of the real part of the mean; None below two
        samples."""
        return self._stderr(0)

    @property
    def imag_stderr(self) -> float | None:
        """Standard error of the imaginary part of the mean; None below
        two samples."""
        return self._stderr(1)
