"""riskreg: regularization-parameter selection for discrete linear inverse problems.

The package solves Tikhonov-regularized problems, evaluates the predictive
risk and its computable lower bound, selects the regularization parameter by
eight different rules, generates classical benchmark problems, and runs
reproducible replicate studies.
"""

from .bench import (AlphaGrid, EfficiencyReport, StudyConfig, default_grid,
                    efficiency, matrix_free_grid, oracle_error, rel_error,
                    run_study, write_reports)
from .errors import ConvergenceError, DegenerateDataError
from .linop import (LinearOperator, SpectralDecomposition, as_operator,
                    largest_eigenvalue, power_iteration, svd)
from .problems import (NoisyData, ProblemInstance, add_noise, load_container,
                       make_problem, parallel_tomo, save_container, sigma_for_snr,
                       snr_db)
from .risk import (MinimizerResult, RiskCurve, T_h, T_h_derivative, alpha_bounds,
                   global_minimizer_certificate, lower_bound_T, minimize_T,
                   predictive_risk, predictive_risk_derivative,
                   upper_bound_threshold)
from .rules import (RuleSelection, bp, dp, gcv, ipro, lc, pro, pro_estimated, qoc,
                    upre)
from .tikhonov import (InfluencePath, RegularizedSolution, SolutionPath, golub_kahan,
                       influence_path_exact, influence_path_stochastic, iterative_path,
                       solve_spectral, spectral_path)

__version__ = "0.1.0"
