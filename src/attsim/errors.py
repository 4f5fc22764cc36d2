"""Exception types shared across the package."""


class AttsimError(Exception):
    """Base class for all errors raised by attsim."""


class InvalidInput(AttsimError):
    """An argument violates a documented precondition."""


class NumericalFailure(AttsimError):
    """An iterative or linear-algebra routine could not produce a result."""


class DegenerateQuaternion(NumericalFailure):
    """Quaternion norm too small to normalize."""


class GibbsSingularity(NumericalFailure):
    """Gibbs vector undefined: rotation is at (or numerically near) 180 degrees."""


class DegenerateGeometry(AttsimError):
    """Vector pair too close to collinear to span a triad."""


class UnderdeterminedAttitude(AttsimError):
    """Observation set does not pin down a unique attitude."""


class ConfigError(AttsimError):
    """Simulation configuration file is missing, malformed, or inconsistent."""
