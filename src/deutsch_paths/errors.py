"""Exception types shared across the package."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


class UsageError(ValueError):
    """Bad arguments or environment, detected before any work starts."""
