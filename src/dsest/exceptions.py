"""Exception hierarchy shared across the toolkit."""


class DsestError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatchError(DsestError, ValueError):
    """Incompatible matrix / subspace dimensions."""


class DecompositionError(DsestError):
    """A decomposition could not be certified against its invariants."""


class SynthesisError(DsestError):
    """Estimator synthesis refused or failed an internal consistency check."""


class SimulationError(DsestError):
    """Bad simulation setup (inconsistent initial condition, grid mismatch, ...)."""
