"""Exception types shared across the simulators."""


class MeanFieldError(Exception):
    """Base class for all package errors."""


class DegenerateWeights(MeanFieldError):
    """All weights vanished or were non-finite in a weighted average."""


class StepError(MeanFieldError):
    """A time step produced a non-finite drift/diffusion/state/objective value.

    Carries enough context (replica index, particle index, step index, time)
    to locate the blow-up in a long run.
    """

    def __init__(self, message, particle=None, step=None, time=None, replica=None):
        self.replica = replica
        self.particle = particle
        self.step = step
        self.time = time
        parts = [message]
        if replica is not None:
            parts.append(f"replica={replica}")
        if particle is not None:
            parts.append(f"particle={particle}")
        if step is not None:
            parts.append(f"step={step}")
        if time is not None:
            parts.append(f"time={time:g}")
        super().__init__(" | ".join(parts))


class ModelSpecError(MeanFieldError):
    """A model factory received parameters violating its contract."""


class UnsupportedReference(MeanFieldError):
    """An exact reference law was requested for an incompatible model."""


class BoundViolation(MeanFieldError):
    """A declared rate or density bound was exceeded during simulation."""
