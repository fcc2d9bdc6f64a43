"""Exception taxonomy shared across the library, and the JSON integer check.

The CLI maps these onto process exit codes, so the split matters:
validation errors are caller mistakes, resource errors are size caps,
stage failures are legitimate empty results (a parameter outside the
viable range), and consistency errors are internal bugs.
"""


class TreeConfigError(Exception):
    """Base class for all library errors."""


class ValidationError(TreeConfigError, ValueError):
    """Malformed input: bad spec fields, mismatched dimensions, bad ranges."""


class ResourceCapError(TreeConfigError):
    """A configured size cap would be exceeded; message names the cap."""


class EmptyRestrictionError(TreeConfigError):
    """A measure restriction kept no atoms (failed pigeonhole stage upstream)."""


class StageFailureError(TreeConfigError):
    """A pigeonhole stage produced a zero-mass field.

    Signals that (t, eps) lies outside the viable interval rather than a bug.
    Carries the failing stage index and the kernel parameters.
    """

    def __init__(self, stage: int, t: float, eps: float):
        self.stage = stage
        self.t = t
        self.eps = eps
        super().__init__(
            f"pigeonhole stage {stage} failed: field has zero mass at t={t}, eps={eps}"
        )


class DegenerateRadiiError(ValidationError):
    """Every sampled ball was empty at some radius; try larger radii."""


class InternalConsistencyError(TreeConfigError):
    """A certified inequality failed on computed data. Always a bug."""


def json_int(value, name: str) -> int:
    """value when it is a JSON integer (an int, not a bool); else a ValidationError naming it."""
    if type(value) is not int:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return value
