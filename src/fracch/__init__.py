"""Mixed finite element / convolution quadrature solver for a stochastic
Cahn-Hilliard equation with a Caputo time derivative and fractionally
integrated Q-Wiener forcing on the unit interval.

Submodules
----------
fem1d    piecewise-linear finite elements on a uniform grid
fracops  convolution quadrature weights and their Toeplitz blocks
mlf      Mittag-Leffler evaluation and the exact linear solution
noise    Q-Wiener increment sampling, coarsening, projection
solver   the coupled time stepper (Newton on the two-field system)
harness  convergence studies, rate theory, CSV emission, config checks
"""

from fracch.fem1d import FeFunction, GaussRule, SymTridiagonal, UniformMesh1D
from fracch.fracops import CqWeights, cq_weights
from fracch.harness import (
    ErrorTable,
    ExperimentPlan,
    plan_from_json,
    run_study,
    theoretical_rate,
    validate_config,
)
from fracch.mlf import mittag_leffler
from fracch.noise import BrownianPath, NoiseSpec, ProjectedNoiseTrack
from fracch.solver import (
    MassDriftError,
    NewtonDivergence,
    PathFailure,
    SchemeConfig,
    SolutionHistory,
    StepReport,
    initial_state,
    run_path,
)

__version__ = "0.1.0"

__all__ = [
    "BrownianPath",
    "CqWeights",
    "ErrorTable",
    "ExperimentPlan",
    "FeFunction",
    "GaussRule",
    "MassDriftError",
    "NewtonDivergence",
    "NoiseSpec",
    "PathFailure",
    "ProjectedNoiseTrack",
    "SchemeConfig",
    "SolutionHistory",
    "StepReport",
    "SymTridiagonal",
    "UniformMesh1D",
    "cq_weights",
    "initial_state",
    "mittag_leffler",
    "plan_from_json",
    "run_path",
    "run_study",
    "theoretical_rate",
    "validate_config",
]
