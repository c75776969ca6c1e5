"""Online kernel adaptive filtering.

Regularized kernel RLS with approximate-linear-dependency sparsification,
kernel LMS, linear LMS/RLS baselines, batch reference solvers, synthetic
experiment streams, and a deterministic CLI harness.
"""

from .base import StepOutput
from .dictionary import AldResult, Dictionary
from .exceptions import (
    DimensionMismatchError,
    KafError,
    NearSingularGrowthError,
    NonFiniteInputError,
    NumericalError,
    ValidationError,
)
from .experiments import (
    FilterConfig,
    LearningCurve,
    StreamConfig,
    generate,
    run_trial,
    run_trials,
)
from .kernels import (
    KernelSpec,
    gram,
    kernel_eval,
    kernel_matrix,
)
from .klms import Klms
from .krls import KrlsAldReg
from .linear import Lms, Rls
from .oracle import (
    BatchProblem,
    batch_krr,
    batch_solve_regularized,
)

__version__ = "0.1.0"

__all__ = [
    "AldResult",
    "BatchProblem",
    "Dictionary",
    "DimensionMismatchError",
    "FilterConfig",
    "KafError",
    "KernelSpec",
    "Klms",
    "KrlsAldReg",
    "LearningCurve",
    "Lms",
    "NearSingularGrowthError",
    "NonFiniteInputError",
    "NumericalError",
    "Rls",
    "StepOutput",
    "StreamConfig",
    "ValidationError",
    "batch_krr",
    "batch_solve_regularized",
    "generate",
    "gram",
    "kernel_eval",
    "kernel_matrix",
    "run_trial",
    "run_trials",
]
