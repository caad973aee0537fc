"""Exception hierarchy shared across the package."""


class PolarcheckError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(PolarcheckError):
    """Vectors or matrices with incompatible shapes."""


class InvalidInputError(PolarcheckError):
    """Unsupported family, parameter, or malformed user input."""


class ClosureError(PolarcheckError):
    """A span that fails bracket closure or membership; carries the residual."""

    def __init__(self, message, residual=None):
        if residual is not None:
            message = f"{message} (residual {residual:.3e})"
        super().__init__(message)
        self.residual = residual


class NonPrincipalPointError(PolarcheckError):
    """The polarity criterion was invoked at a non-principal point."""
