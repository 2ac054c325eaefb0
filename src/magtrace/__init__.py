"""Numerical laboratory for semiclassical trace asymptotics of magnetic
Laplacians on constant-curvature surfaces and the deformed-sphere example.

The spectral side sums closed-form Landau-level ladders; the geometric
side evaluates coefficient predictions from classical orbit data
(periods, actions, holonomies, Maslov indices, return maps); residual
diagnostics quantify their agreement as the tensor power N grows.
"""

import importlib.util
import sys

from .errors import (ChartError, DegenerateOrbitError, IntegratorError,
                     MagtraceError, ManeLevelError, MixedSupportError,
                     ResonanceError, ValidationError)
from .testfn import (TestFunction, make_fourier_bump, make_gaussian,
                     make_gaussian_modulated)
# GeometrySpec and the *Model names are kept for perfbench/setup_probe.py and reference.py
from .geometry import (ClosedOrbitSet, Geometry, GeometrySpec, Hyperbolic, Katok,
                       KatokMonodromy, OrbitInvariants, PhaseState, Sphere, Torus,
                       katok_first_integral, katok_poincare_analytic)
from .spectra import (EnergyLevel, HyperbolicModel, SphereModel, SpectrumEntry,
                      TorusModel, Window, enumerate_window, levels)
from .tracesum import TraceValue, y_n
from .asymptotics import (CoefficientPrediction, KSumControl, ResidualReport,
                          general_c0_nondegenerate, general_c0_volume, katok_c0,
                          katok_term_closed, poisson_c01, residual_report)

__version__ = "0.1.0"


def _lazy(name: str):
    """Register the module ``name`` in sys.modules without running it: its
    code runs on the first attribute read (``importlib.util.LazyLoader``)."""
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# The flow integrator and its orbit measurements, with ``ode`` and numpy,
# which they import, load only for the dynamics and katok commands: the
# module object is in place for ``from magtrace import dynamics`` (and a
# tracer that patches it), but its code runs on first use.
dynamics = _lazy(__name__ + ".dynamics")
_DYNAMICS_NAMES = {"FlowResult", "MaslovData", "MCVolume", "canonical_orbit_state",
                   "circle_distance", "integrate", "katok_monodromy_numeric",
                   "liouville_volume", "maslov_katok", "mc_liouville_volume",
                   "numeric_holonomy"}


def __getattr__(name: str):
    if name in _DYNAMICS_NAMES:
        return getattr(dynamics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
