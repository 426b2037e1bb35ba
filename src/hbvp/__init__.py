"""Holder-space laboratory for parameter-dependent linear BVPs."""

from .expr import EvalError, ParseError, diff_t, evaluate, parse_expression
from .grid import (GridFunction, HolderIndex, NormValue, algebra_constant,
                   holder_norm, interpolate, product)
from .problem import (BoundaryOperator, ConfigError, ProblemFamily,
                      ProblemInstance, apply_B, boundedness_certificate,
                      family_from_config, gallery, GALLERY_NAMES,
                      instantiate, load_problem)
from .solver import (CharacteristicMatrix, ConditionZeroViolated,
                     SolveRejected, SolveResult, apply_L, build_companion,
                     characteristic_matrix, fredholm_nullity,
                     fundamental_matrix, liouville_defect,
                     recover_coefficients, solve_bvp, solve_bvp_direct)
from .analysis import (discrepancy, extract_coefficients_monomials,
                       geometric_eps, main_theorem_suite, tends_to_zero,
                       two_sided_sweep)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
