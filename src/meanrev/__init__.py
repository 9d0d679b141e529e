"""Optimal dynamic trading of correlated mean-reverting assets.

Solves the matrix Riccati ODEs behind the power-utility portfolio problem
for correlated Ornstein-Uhlenbeck assets, evaluates the optimal position
rule and value function, simulates wealth paths, and quantifies the cost
of parameter misspecification through a moment-generating ODE framework.
"""

from .model import (
    OUParams,
    Preferences,
    normalize,
    step_covariance,
    validate,
)
from .riccati import (
    RiccatiSolution,
    d_common_kappa,
    d_scalar_closed_form,
    d_single_mr,
    d_uncorrelated,
    solve_A,
    solve_D,
)
from .control import (
    StrategySpec,
    ValueReport,
    log_utility_value,
    misspecified_strategy,
    optimal_strategy,
    solve_value,
    value_function,
)
from .wealth import SimulationEnsemble, WealthDecomposition, decompose, simulate
from .misspec import misspec_sweep, p_epsilon, sharpe, solve_Q
from .analysis import (
    CorrSensitivityReport,
    corr_sensitivity,
    d_curve_1d,
    lambda_closed_form,
    psi_closed_form,
    psi_integral,
    value_at_mean,
    value_vs_kappa2_rho,
)
from .grids import SensitivityGrid

__version__ = "0.1.0"
