"""fourvel: 4-velocity fields extracted from relativistic wavefunctions,
with a certified chain of residual diagnostics.

Conventions (see core4): coordinates stored as real (x1, x2, x3, t); the
imaginary fourth coordinate x4 = i c t is folded into derivative operators
and 4-vector components, so contractions are plain subscript sums.
"""

__version__ = "0.1.0"

from .core4 import (ANALYTIC, DEFAULT_EPS_PSI, DerivativeMethod, Event,
                    EventArray, NATURAL_UNITS, PhysicalConstants, boost_x1,
                    central, contract, field_strength, four_displacement,
                    four_vector)
from .dirac import (GammaSet, clifford_residual, dirac_residual,
                    dirac_to_kg_check, factorization_residual,
                    form_relation_matrix, gamma_dot, gamma_matrices,
                    kg_operator_on_spinor, spinor_velocity_consistency)
from .errors import (ConfigError, DegenerateParameterError, FourvelError,
                     InsufficientComponentsError, InvalidBoostError,
                     NearZeroWavefunctionError, ParameterError,
                     QuadratureError, SingularPointError,
                     UnsupportedConfigurationError)
from .fields import (GaugeFunction, PotentialField, coulomb_potential,
                     gauge_transform, lorenz_gauge_residual, polynomial_gauge,
                     pure_gauge_potential, zero_potential)
from .runner import (CheckResult, ResidualReport, ScenarioConfig,
                     config_from_dict, default_config, export_report,
                     list_scenarios, run_scenario)
from .velocityfield import (ActionResult, DivergenceResult, action_integral,
                            canonical_momentum, curl_k, divergence_mu,
                            extract_u, kg_residual, mass_shell_residual,
                            momentum_gradient, newton_residual,
                            nonlinear_wave_residual)
from .wavefunctions import (ScalarWave, SpinorWave, dirac_coulomb_1s,
                            dirac_plane_wave, gaussian_polynomial_wave,
                            kg_coulomb_1s, plane_wave, random_smooth_spinor,
                            random_spinor_family)
from .worldline import (PiercePoint, Worldline, boost_worldline,
                        classify_speed, make_worldline, pierce_points,
                        write_pierce_csv)

__all__ = [name for name in dir() if not name.startswith("_")]
