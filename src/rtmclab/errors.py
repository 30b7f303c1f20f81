"""Exception types shared across the package."""


class RtmcError(Exception):
    """Base class for all package errors."""


class ConfigError(RtmcError):
    """Malformed or inconsistent experiment configuration."""


class WindowExhausted(RtmcError):
    """A driver path was asked to extend beyond its configured maximum radius."""


class AdmissibilityError(RtmcError):
    """A word or prefix is not admissible along the requested fibers."""


class DepthOverflow(RtmcError):
    """A cylinder depth exceeded the configured maximum."""


class ConvergenceError(RtmcError):
    """An iterative solve failed to stabilize within its horizon."""


class InvariantViolation(RtmcError):
    """A certified bound or structural invariant failed a hard check."""
