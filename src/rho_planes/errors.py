"""Exception taxonomy shared by all modules."""


class RhoPlanesError(Exception):
    """Base class for all library errors."""


class ConfigurationError(RhoPlanesError):
    """Invalid norm-spec parameters (non-convex polygon, p < 1, ...)."""


class DomainError(RhoPlanesError):
    """Arguments outside an operation's domain (zero vector, bad rho, ...)."""


class DegenerateChordError(DomainError):
    """Chord endpoints coincide."""


class UnsupportedSpecError(RhoPlanesError):
    """Operation requires a smooth, strictly convex norm."""


class NumericalError(RhoPlanesError):
    """A solver could not bracket or converge; never silently swallowed."""


class NonClosingError(RhoPlanesError):
    """An orbit expected to close ran out of steps without returning."""


class GeometryError(RhoPlanesError):
    """Inconsistent geometric inputs (e.g. an indefinite conic fit)."""
