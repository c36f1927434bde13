"""Rotated-polynomial frames on S^{d-1}.

Build frame-generating coefficient tables, verify frame and duality
properties from the spectral profile, compose rotation-group quadrature
grids from sphere rules, run analysis/synthesis, and compute localization
and directionality diagnostics.
"""

from .constructions import (PolarGrid, curvelet_eval_closed, curvelet_spec,
                            kappa, kappa1, kappa2, make_g0, phi, polar_sample,
                            wavelet_spec, zeta, zeta_table, zonal_spec)
from .diagnostics import (LocalizationRecord, ScaleAudit, StructureReport,
                          audit_conditions, autocorrelation,
                          autocorrelation_closed, localization_report,
                          structure_report, uncertainty_product, var_momentum,
                          var_space, xi0_d_spectral, xi0_numeric)
from .errors import (CapacityError, DegenerateSignalError, DomainError,
                     ExactnessError, FormatError, IndexSetError,
                     NotAFrameError, ParameterError, SphereFrameError,
                     TableShapeError, UndefinedVarianceError)
from .frames import (FrameBounds, FrameSpec, FrameSystem, ParsevalGap, Scale,
                     Signal, analysis, apply_Lambda_J, build_system,
                     canonical_dual, check_dual, dual_residuals, frame_bounds,
                     invariance_order, parseval_check, random_signal, sigma_J,
                     sigma_profile, steerable_order, synthesis)
from .harmonics import (ExpansionEvaluator, addition_kernel, basis_matrix,
                        cartesian_to_spherical, dim_harmonic, eval_expansion,
                        eval_harmonic, index_set, matrix_function_block,
                        spherical_to_cartesian, to_cartesian, to_spherical)
from .quadrature import (RotationRule, Rule1D, SphereRule, circle_rule,
                         embed_rotation, embed_subsphere_rotation,
                         gauss_symmetric_jacobi, random_rotation,
                         rotation_rule, section_rotation, sphere_rule)
from .specfun import Q_d, gegenbauer, gegenbauer_table, log_norm_A, q_d

__version__ = "0.1.0"
