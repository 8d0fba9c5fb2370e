"""Exception types shared across the package."""


class DegenerateSystemError(RuntimeError):
    """Raised when a measurement set leaves no row to solve against."""


class DegenerateIterateError(RuntimeError):
    """Raised when an iterate cannot be renormalized (zero trace or no
    positive spectrum left after thresholding)."""


class InvariantViolation(RuntimeError):
    """Raised when a per-projection runtime check fails (Hermiticity drift or
    a measurement constraint not met). Indicates a convention bug, not bad
    data."""


class WorkerPoolError(RuntimeError):
    """Raised when a ``sweep --jobs N`` cell worker process dies or cannot
    be started."""


class SchemaError(ValueError):
    """Raised when a JSON input file does not match the declared format."""
