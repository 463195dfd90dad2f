"""Simulation toolkit for consensus-based resource allocation over
randomly failing networks: deviation-tracking iteration, weighted-gradient
baseline, stepsize feasibility calculus, and Monte-Carlo convergence
measurement."""

from .costs import (AllocationProblem, KktSolution, QuadraticCosts,
                    allocation_problem, kkt_solve, quadratic_costs)
from .engine import DisturbanceSpec, RunResult, run, run_points
from .errors import (CapacityError, ConfigError, InfeasibleNetworkError,
                     InfeasiblePlanError)
from .metrics import (RateEstimate, TRACE_COLUMNS, aggregate, empirical_rate,
                      loglinear_r2, non_convergent, residuals)
from .network import (NetworkModel, SpectralReport, build_model,
                      complete_graph, expected_square_matrix,
                      expected_weight_matrix, metropolis_weights,
                      mixing_matrix, spectral_report)
from .stepsizes import (OptimalStepsizes, PlanVerdict,
                        RateConstants, SharedVerdict, constants,
                        feasible_region_mean, feasible_region_shared,
                        feasible_region_uncoordinated, optimal_stepsizes,
                        plan_constants, predicted_rate, wga_default_alpha)

__version__ = "0.1.0"

__all__ = [
    "AllocationProblem", "KktSolution", "QuadraticCosts",
    "allocation_problem", "kkt_solve", "quadratic_costs",
    "DisturbanceSpec", "RunResult", "run", "run_points",
    "CapacityError", "ConfigError", "InfeasibleNetworkError",
    "InfeasiblePlanError",
    "RateEstimate", "TRACE_COLUMNS", "aggregate", "empirical_rate",
    "loglinear_r2", "non_convergent", "residuals",
    "NetworkModel", "SpectralReport", "build_model",
    "complete_graph", "expected_square_matrix", "expected_weight_matrix",
    "metropolis_weights", "mixing_matrix", "spectral_report",
    "OptimalStepsizes", "PlanVerdict", "RateConstants",
    "SharedVerdict", "constants", "feasible_region_mean",
    "feasible_region_shared", "feasible_region_uncoordinated",
    "optimal_stepsizes", "plan_constants", "predicted_rate",
    "wga_default_alpha",
]
