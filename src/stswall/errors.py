"""Exception types shared across the package."""


class StswallError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(StswallError):
    """Invalid or inconsistent case configuration."""


class AssemblyError(StswallError):
    """Operator cannot be assembled on the given grid/wall combination."""


class ClosureSingularityError(StswallError, ZeroDivisionError):
    """Robin saturation term evaluated at a surface or ambient u <= 0."""


class SaturationDomainError(StswallError, ValueError):
    """Saturation pressure asked for at or below the law's 159.5 K pole."""


class IngestionError(StswallError):
    """Boundary time-series file failed validation."""


class DivergenceError(StswallError):
    """A time march diverged: non-finite, overflowing or far out-of-box values.

    Carries the outer step index and simulation time at detection, and the
    cause in the message.
    """

    def __init__(self, scheme: str, step: int, time: float, cause: str = "non-finite state"):
        self.scheme = scheme
        self.step = step
        self.time = time
        super().__init__(
            f"{scheme} run diverged ({cause}) at outer step {step}, t={time:.6g}"
        )


class StaleScheduleError(StswallError):
    """Super-step schedule was built for a smaller stiffness than the operator has."""
