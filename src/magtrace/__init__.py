"""Numerical laboratory for semiclassical trace asymptotics of magnetic
Laplacians on constant-curvature surfaces and the deformed-sphere example.

The spectral side sums closed-form Landau-level ladders; the geometric
side evaluates coefficient predictions from classical orbit data
(periods, actions, holonomies, Maslov indices, return maps); residual
diagnostics quantify their agreement as the tensor power N grows.
"""

from .errors import (ChartError, DegenerateOrbitError, IntegratorError,
                     MagtraceError, ManeLevelError, MixedSupportError,
                     QuadratureError, ResonanceError, ValidationError)
from .testfn import (PairValidation, PoissonReport, TestFunction,
                     linear_combination, make_fourier_bump, make_gaussian,
                     make_gaussian_modulated, poisson_check, validate_pair)
from .geometry import Geometry, Hyperbolic, Katok, Sphere, Torus
from .spectra import (EnergyLevel, HyperbolicModel, SphereModel, SpectrumEntry,
                      TorusModel, Window, enumerate_window, hyperbolic_levels,
                      sphere_levels, torus_levels)
from .tracesum import TraceValue, y_n, y_sequence
from .asymptotics import (ClusterCheck, CoefficientPrediction, KSumControl,
                          ResidualReport, general_c0_nondegenerate,
                          general_c0_volume, hyperbolic_c01, katok_c0,
                          katok_term_closed, residual_report, sphere_c01,
                          torus_c01, torus_cluster_check)
from .dynamics import (ClosedOrbitSet, FlowResult, GeometrySpec, KatokMonodromy,
                       MaslovData, MCVolume, OrbitInvariants, PhaseState,
                       canonical_orbit_state, circle_distance,
                       closed_orbit_invariants, flow_rhs, hamiltonian,
                       integrate, katok_first_integral, katok_monodromy_numeric,
                       katok_poincare_analytic, liouville_volume, maslov_katok,
                       mc_liouville_volume, metric_area, numeric_holonomy)

__version__ = "0.1.0"
