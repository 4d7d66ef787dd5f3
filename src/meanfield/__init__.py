"""Simulation and empirical verification toolkit for mean-field
interacting particle systems: McKean-Vlasov diffusions, Boltzmann collision
models with DSMC simulators, mean-field jump processes, and particle-based
optimization and sampling, plus the chaos diagnostics to check their
convergence rates at desk scale."""

__version__ = "0.1.0"

from .core import (
    Ensemble,
    RngStream,
    TimeGrid,
    empirical_mean,
    empirical_moments,
    weighted_mean,
)
from .errors import (
    BoundViolation,
    DegenerateWeights,
    MeanFieldError,
    ModelSpecError,
    StepError,
    UnsupportedReference,
)

__all__ = [
    "BoundViolation",
    "DegenerateWeights",
    "Ensemble",
    "MeanFieldError",
    "ModelSpecError",
    "RngStream",
    "StepError",
    "TimeGrid",
    "UnsupportedReference",
    "empirical_mean",
    "empirical_moments",
    "weighted_mean",
    "__version__",
]
