"""Simulation and well-posedness auditing for forced Lur'e systems with feedthrough."""

from .analyzer import (AnalysisReport, AnalyzerOptions, CheckRecord, ProbeGrid,
                       analyze_system, check_determinant_condition,
                       check_growth_condition, check_lower_lipschitz,
                       check_monotonicity, check_upper_lipschitz,
                       probe_fibre_convexity, probe_fibre_nonempty,
                       probe_radial_unboundedness, theorem_applicability)
from .catalog import (EXAMPLE_NAMES, CatalogEntry, Reference, build_example,
                      list_examples, reference_residuals, verify_example)
from .config import (SystemConfig, compile_scalar_expression,
                     compile_vector_expression, config_text, entry_to_config,
                     load_config, parse_config)
from .derivatives import (JacobianSample, finite_diff_jacobian,
                          finite_diff_jacobians, sample_clarke_jacobian,
                          sample_clarke_jacobians)
from .errors import (ConfigurationError, EmptyFibreError, EvaluationError,
                     LuresimError, UsageError)
from .inclusion import (ConvexityVerdict, InclusionOptions, SelectionPolicy,
                        check_image_convexity, enumerate_fibre,
                        select_from_fibre, simulate_inclusion)
from .integrator import (SimOptions, Termination, TrajectoryRecord,
                         compare_to_reference, refine_escape_time, simulate,
                         summary_dict, write_csv, write_summary_json)
from .nonlinearity import (Nonlinearity, ScalarPiece, deadzone_saturation,
                           halfband_slopes, identity_minus_atan,
                           linear_nonlinearity, normalized_gain,
                           normalized_rotation, parabolic_band,
                           piecewise_scalar, radial_scalar_profile,
                           radial_three_zone, rotated_radial,
                           saturation_scaled, zero_nonlinearity)
from .output_solver import (FibreSet, OutputSolution, SolveOptions,
                            brute_force_fibre_oracle, enumerate_fibre_exact,
                            enumerate_fibre_multistart,
                            exact_structure_available, residual_norm,
                            solve_output)
from .signals import (InputSignal, constant_input, piecewise_constant_input,
                      polynomial_input, zero_input)
from .system import SystemMatrices, eval_F

__version__ = "0.1.0"
