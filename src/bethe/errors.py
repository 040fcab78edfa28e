"""Exception hierarchy shared by all modules.

Each class maps to a CLI exit code: failed numerical sanity checks exit
with 1, validation/structural problems with 2, exceeded budgets with 3,
and failed iterations with 4.
"""


class BetheError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class ValidationError(BetheError):
    """Malformed input: bad graph structure, schema violation, bad matrix."""

    exit_code = 2


class StructuralError(ValidationError):
    """Graph shape mismatch (table size vs. incident alphabets, bad edge)."""


class ResourceError(BetheError):
    """A configured enumeration or memory budget would be exceeded."""

    exit_code = 3


class ConvergenceError(BetheError):
    """An iterative method did not reach its tolerance."""

    exit_code = 4

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ScalingFailureError(ConvergenceError):
    """Sinkhorn scaling stalled before reaching tolerance."""


class DegenerateFixedPointError(BetheError):
    """A fixed point with a vanishing edge normalizer; the pseudo-dual
    Bethe value (and the loop-calculus transform) are undefined there."""

    exit_code = 4


class NumericalError(BetheError):
    """A numerical sanity condition failed (non-finite value, imaginary
    residue above tolerance)."""
