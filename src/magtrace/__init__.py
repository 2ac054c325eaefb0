"""Numerical laboratory for semiclassical trace asymptotics of magnetic
Laplacians on constant-curvature surfaces and the deformed-sphere example.

The spectral side sums closed-form Landau-level ladders; the geometric
side evaluates coefficient predictions from classical orbit data
(periods, actions, holonomies, Maslov indices, return maps); residual
diagnostics quantify their agreement as the tensor power N grows.

``import magtrace`` runs only this file and ``errors``.  The submodules
``geometry``, ``katok``, ``testfn``, ``bump``, ``spectra``, ``tracesum``,
``asymptotics``, ``dynamics`` and ``cli`` are registered in ``sys.modules``
at import, but each one's code runs on its first attribute read.  A public
name such as ``magtrace.y_n`` is read from its module when it is used
(``_EXPORTS``), so a command runs only the modules it calls.  Besides
``magtrace``, ``errors``, ``floats``, ``geometry`` and ``cli``:

* a gaussian ``spectrum`` runs ``testfn`` and ``spectra``, ``trace`` adds
  ``tracesum``, ``predict`` runs ``testfn`` and ``asymptotics``, and
  ``residual`` all four;
* a ``fourier_bump`` test function adds ``bump``, and a deformed sphere
  ``katok``;
* ``dynamics`` runs ``dynamics`` and ``ode``;
* ``katok`` runs ``katok``, ``dynamics``, ``ode`` and ``asymptotics``.
"""

import importlib.util
import sys

from .errors import (ChartError, DegenerateOrbitError, IntegratorError,
                     MagtraceError, ManeLevelError, MixedSupportError,
                     ResonanceError, ValidationError)

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


# The module objects are in place for ``from magtrace import dynamics`` and
# for a tracer that looks them up in sys.modules and patches them.
geometry, katok, testfn, bump, spectra, tracesum, asymptotics, dynamics, cli = (
    _lazy(f"{__name__}.{name}") for name in
    ("geometry", "katok", "testfn", "bump", "spectra", "tracesum", "asymptotics", "dynamics",
     "cli"))

# module -> the public names it defines.  GeometrySpec and the *Model names
# are kept for perfbench/setup_probe.py and reference.py.
_EXPORTS = {
    "testfn": ("TestFunction", "make_gaussian", "make_gaussian_modulated"),
    "bump": ("make_fourier_bump",),
    "geometry": ("ClosedOrbitSet", "EnergyLevel", "Geometry", "GeometrySpec",
                 "Hyperbolic", "HyperbolicModel", "OrbitInvariants", "PhaseState", "Sphere",
                 "SphereModel", "Torus", "TorusModel"),
    "katok": ("Katok", "KatokMonodromy"),
    "spectra": ("Window", "enumerate_window"),
    "tracesum": ("TraceValue", "y_n"),
    "asymptotics": ("CoefficientPrediction", "KSumControl", "ResidualReport",
                    "general_c0_nondegenerate", "general_c0_volume", "katok_c0",
                    "poisson_c01", "residual_report"),
    "dynamics": ("FlowResult", "MCVolume", "canonical_orbit_state", "circle_distance",
                 "integrate", "katok_monodromy_numeric", "liouville_volume",
                 "mc_liouville_volume", "numeric_holonomy", "tangent_flow"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
