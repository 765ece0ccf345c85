"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so keep the hierarchy flat
and specific rather than reusing ValueError everywhere.
"""


class CohesiveTransportError(Exception):
    """Base class for all package-specific errors."""


class UnpinnedNetworkError(CohesiveTransportError, ValueError):
    """No robot carries a virtual-source stiffness; the pinned Laplacian
    would be singular and consensus to a reference is impossible."""


class CalibrationError(CohesiveTransportError, ValueError):
    """Displacement/force records imply a non-positive stiffness."""


class UnstableGainError(CohesiveTransportError, ValueError):
    """Requested gain lies outside the stable range."""


class DivergenceError(CohesiveTransportError, RuntimeError):
    """Simulated positions overflowed or went non-finite."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"diverged at step {step}")


class CrosscheckError(CohesiveTransportError, RuntimeError):
    """The per-robot update disagrees with the stacked update, so the
    step is not certified as computable from local measurements."""


class TuningInfeasibleError(CohesiveTransportError, RuntimeError):
    """No controller parameters satisfy the tuning constraints."""


class ConfigError(CohesiveTransportError, ValueError):
    """Scenario config file failed to parse or validate."""
