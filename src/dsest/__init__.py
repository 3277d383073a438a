"""dsest: analysis, functional ODE estimator synthesis, and simulation for
rectangular linear time-invariant descriptor systems

    E x'(t) = A x(t) + B u(t),   y(t) = C x(t) + D u(t),   z(t) = K x(t).

The toolkit decides whether the functional z admits an ODE estimator driven
by (u, y), constructs one when it exists, and certifies convergence of the
estimation error by simulation.
"""

from .exceptions import (
    DecompositionError,
    DimensionMismatchError,
    DsestError,
    SimulationError,
    SynthesisError,
)
from .linalg import DEFAULT_TOL, Subspace, Tolerance, numeric_rank
from .wong import WongLimits, wong_limits
from .decomp import (
    KalmanDecomposition,
    PencilQKF,
    StaircaseDecomposition,
    kalman_controllability,
    observability_staircase,
    qkf,
)
from .analysis import (
    AnalysisReport,
    DescriptorSystem,
    build_F,
    build_F_K,
    characterization_suite,
    is_partially_causal,
    is_partially_causal_detectable,
    is_partially_detectable,
    is_partially_impulse_observable,
)
from .synthesis import EstimatorRealization, SynthesisTrace, synthesize_estimator
from .signals import InputSignal
from .sim import (
    DecayMetrics,
    SimulationTrace,
    decay_metrics,
    estimation_error,
    run_estimator,
    simulate,
    solve_plant,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "DecayMetrics",
    "DecompositionError",
    "DescriptorSystem",
    "DimensionMismatchError",
    "DsestError",
    "DEFAULT_TOL",
    "EstimatorRealization",
    "InputSignal",
    "KalmanDecomposition",
    "PencilQKF",
    "SimulationError",
    "SimulationTrace",
    "StaircaseDecomposition",
    "Subspace",
    "SynthesisError",
    "SynthesisTrace",
    "Tolerance",
    "WongLimits",
    "build_F",
    "build_F_K",
    "characterization_suite",
    "decay_metrics",
    "estimation_error",
    "is_partially_causal",
    "is_partially_causal_detectable",
    "is_partially_detectable",
    "is_partially_impulse_observable",
    "kalman_controllability",
    "numeric_rank",
    "observability_staircase",
    "qkf",
    "run_estimator",
    "simulate",
    "solve_plant",
    "synthesize_estimator",
    "wong_limits",
]
