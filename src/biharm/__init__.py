"""Entire solutions of Delta^2 u + u^-q = 0 on R^3 by integral fixed point.

The package solves u = P + v with v a fixed point of the kernel convolution
v -> (1/8 pi) int K(x, y) (P + |v|)^-q dy, K either |x - y| (unshifted) or
|x - y| - |y| (shifted), and verifies the result against the differential
equation, against independent re-evaluations of the integral, against an
integral identity of Pohozaev type, and against a radial ODE integrator.
"""

from .model import (ConfigError, GridSpec, NonFiniteError, NotIntegrableError,
                    InsufficientTailError, Profile, QuadraticPolynomial,
                    SolveConfig, load_profile_csv, report_json,
                    save_profile_csv, validate_config)
from .kernels import mc_kernel_oracle
from .operator import continuation_eps_to_zero, solve_fixed_point
from .analysis import (check_hessian_decay, compute_beta, decompose,
                       fit_growth, ray_values)
from .verify import (exact_q7_profile, exact_q7_value, integral_residual,
                     pde_residual, pohozaev_residual)
from .shooting import (BracketNotFoundError, bisect_growth_threshold,
                       borderline_exponent, integrate_radial,
                       threshold_growth_diagnostics, universal_coefficient)

__version__ = "1.0.0"

# what the CLI, the demos and the README use, plus the exception types;
# everything else is reached through its module (biharm.operator, ...)
__all__ = [
    "BracketNotFoundError", "ConfigError", "GridSpec",
    "InsufficientTailError", "NonFiniteError", "NotIntegrableError",
    "Profile", "QuadraticPolynomial", "SolveConfig",
    "bisect_growth_threshold", "borderline_exponent", "check_hessian_decay",
    "compute_beta", "continuation_eps_to_zero", "decompose",
    "exact_q7_profile", "exact_q7_value", "fit_growth", "integral_residual",
    "integrate_radial", "load_profile_csv", "mc_kernel_oracle",
    "pde_residual", "pohozaev_residual", "ray_values", "report_json",
    "save_profile_csv", "solve_fixed_point", "threshold_growth_diagnostics",
    "universal_coefficient", "validate_config",
]
