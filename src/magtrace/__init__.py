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
# GeometrySpec and the *Model names are kept for perfbench/setup_probe.py and reference.py
from .geometry import (ClosedOrbitSet, Geometry, GeometrySpec, Hyperbolic, Katok,
                       KatokMonodromy, OrbitInvariants, PhaseState, Sphere, Torus,
                       katok_first_integral, katok_poincare_analytic)
from .spectra import (EnergyLevel, HyperbolicModel, SphereModel, SpectrumEntry,
                      TorusModel, Window, enumerate_window, levels)
from .tracesum import TraceValue, y_n
from .asymptotics import (ClusterCheck, CoefficientPrediction, KSumControl,
                          ResidualReport, general_c0_nondegenerate,
                          general_c0_volume, katok_c0, katok_term_closed,
                          poisson_c01, residual_report, torus_cluster_check)
from .dynamics import (FlowResult, MaslovData, MCVolume, canonical_orbit_state,
                       circle_distance, integrate, katok_monodromy_numeric,
                       liouville_volume, maslov_katok, mc_liouville_volume,
                       numeric_holonomy)

__version__ = "0.1.0"
