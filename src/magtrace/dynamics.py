"""Magnetic geodesic flows: integration, closed orbits, and orbit invariants.

All four example geometries run through the same Hamiltonian system

    dq/dt = (1/H) g^{-1} p,
    dp/dt = (1/H) [ -(1/2) <d(g^{-1}) p, p> + F p^sharp ],

with H = sqrt(g^{-1}(p,p) + 1); the field-strength signs are fixed so that
each geometry's orbit invariants (holonomies, actions) reproduce the
closed forms its coefficient predictions are built on.  A trajectory's
action S = L sqrt(E^2-1) + hol is defined modulo 2 pi; forward-time
primitive orbits always take the plus sign on the length term.

Each geometry's Hamiltonian, flow field, connection form and closed-form
orbit data are methods of its class in ``geometry``; this module integrates
the flow in one chart and measures along it.

Orientation labels: the deformed sphere carries two equatorial orbits,
"+" (increasing phi) and "-"; the unique closed orbits of the other
geometries circulate clockwise and are labelled "-".
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import ode
from .errors import IntegratorError, ResonanceError, ValidationError
from .geometry import Geometry, Katok, PhaseState, branch_sign, half_lattice_distance
# dynamics.GeometrySpec is read by perfbench/reference.py
from .geometry import GeometrySpec  # noqa: F401

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class FlowSegment:
    t0: float
    t1: float
    sol: ode.DenseSolution  # dense output over [t0, t1]


@dataclasses.dataclass(frozen=True)
class FlowResult:
    """An integrated trajectory with conservation monitors.

    ``energy_drift`` is max |H - E| over dense samples; for the deformed
    sphere ``first_integral_drift`` additionally monitors the conserved
    quantity of the integrable structure.  ``segments`` holds the one
    FlowSegment of the run, none for a run of time 0.
    """

    geo: Geometry
    E: float
    t_final: float
    final: PhaseState
    energy_drift: float
    first_integral_drift: float | None
    segments: tuple

    def sample(self, n: int) -> tuple:
        """n states at uniform times: (t, y[4, n])."""
        ts = np.linspace(0.0, self.t_final, n)
        (seg,) = self.segments
        return ts, seg.sol(ts)


def _on_floats(field):
    """The right-hand side (tt, y) -> field(y) for ``ode.dop853``, run on y's
    Python floats, on which the geometry's formulas use ``math`` and give the
    values they give on the array.  Where the float arithmetic raises (a
    division by zero, an overflow or a math-domain error), field runs on the
    array y itself, so numpy gives its inf or nan and its warning as before."""

    def rhs(tt, y):
        try:
            return field(y.tolist())
        except (ZeroDivisionError, OverflowError, ValueError):
            return field(y)
    return rhs


def integrate(geo: Geometry, s0: PhaseState, E: float, t: float,
              tol: float = 1e-11) -> FlowResult:
    """Integrate the flow for time t with adaptive 8th-order Runge-Kutta.

    Local tolerance ``tol`` drives both rtol and atol; energy drift (and,
    for the deformed sphere, first-integral drift) above 100*tol raises.
    The run stays in one chart: on the two spheres a path whose 256
    monitor samples cross a pole margin, theta = pole_margin or
    pi - pole_margin, raises IntegratorError, while a path wholly inside a
    margin runs.
    """
    y0 = s0.as_array()
    geo.check_state(y0)
    H0 = float(geo.hamiltonian(y0))
    if abs(H0 - E) > 1e-10 * max(1.0, abs(E)):
        raise ValidationError(f"initial state off-shell: H={H0!r}, E={E!r}")
    P0 = geo.first_integral(y0)
    fdrift = None if P0 is None else 0.0
    if t == 0.0:
        return FlowResult(geo=geo, E=E, t_final=0.0, final=s0, energy_drift=0.0,
                          first_integral_drift=fdrift, segments=())
    if t < 0.0:
        raise ValidationError("integration time must be nonnegative")

    t_end, y_end, sol, status = ode.dop853(_on_floats(geo.flow), 0.0, y0, t, tol)
    if status < 0:
        raise IntegratorError(f"integration failed at t={t_end:.6g}: {ode.STEP_COLLAPSE}")

    # pole crossings and conservation monitors over dense samples
    ys = sol(np.linspace(0.0, t, 256))
    margin = geo.pole_margin
    if margin is not None:
        for edge, pole in ((margin, "0"), (math.pi - margin, "pi")):
            if np.any((ys[0] < edge) != (y0[0] < edge)):
                raise IntegratorError(f"path crossed theta = {edge:.6g}, the margin of the "
                                      f"pole theta = {pole}; the run keeps to one chart")
    drift = float(np.max(np.abs(geo.hamiltonian(ys) - E)))
    if P0 is not None:
        fdrift = float(np.max(np.abs(geo.first_integral(ys) - P0)))
    budget = 100.0 * tol
    if drift > budget:
        raise IntegratorError(f"energy drift {drift:.3e} exceeds budget {budget:.3e}")
    if fdrift is not None and fdrift > budget:
        raise IntegratorError(f"first-integral drift {fdrift:.3e} exceeds budget {budget:.3e}")

    final = PhaseState(q=(float(y_end[0]), float(y_end[1])),
                       p=(float(y_end[2]), float(y_end[3])))
    return FlowResult(geo=geo, E=E, t_final=t, final=final, energy_drift=drift,
                      first_integral_drift=fdrift,
                      segments=(FlowSegment(t0=0.0, t1=float(t_end), sol=sol),))


# ---------------------------------------------------------------------------
# the canonical closed orbit
# ---------------------------------------------------------------------------

def _speed(E: float) -> float:
    if not (E > 1.0 and math.isfinite(E)):
        raise ValidationError(f"energy must exceed 1, got {E}")
    return math.sqrt(E * E - 1.0)


# also called by perfbench/reference.py
def canonical_orbit_state(geo: Geometry, E: float,
                          orientation: str = "+") -> tuple:
    """An on-shell initial state on the canonical closed orbit, with its period.

    Returns (PhaseState, T).  For the hyperbolic flow this requires
    cR < 1 (below the Mane level); only the deformed sphere, with its two
    equatorial orbits, reads ``orientation``.
    """
    return geo.orbit_state(E, _speed(E), orientation)


# ---------------------------------------------------------------------------
# holonomy quadrature along integrated paths
# ---------------------------------------------------------------------------

def numeric_holonomy(geo: Geometry, flow: FlowResult) -> float:
    """Line integral of the connection form along a closed integrated orbit.

    The connection form A(q) . dq/dt is the geometry's, in the
    trivialization its closed forms use (``connection``).  Composite
    16-point Gauss-Legendre quadrature over the dense solution; the value
    is canonically defined modulo 2 pi and returned unreduced.  Paths that
    fail to close within 1e-7 are rejected, as are sphere paths
    leaving the upper hemisphere (the sphere's trivialization is only the
    hemispheric one).
    """
    if not flow.segments:
        return 0.0
    (seg,) = flow.segments
    gap = geo.closure_gap(seg.sol(seg.t0), seg.sol(seg.t1))
    if gap > 1e-7:
        raise ValidationError(f"path is not closed: endpoint gap {gap:.3e} > 1.0e-07")

    # numpy.polynomial is imported here, on the dynamics commands' path only
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(16)
    n_panels = max(64, int(math.ceil(8.0 * (seg.t1 - seg.t0))))
    edges = np.linspace(seg.t0, seg.t1, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    states = seg.sol((mid[:, None] + half[:, None] * nodes).ravel())
    vals = geo.connection(states).reshape(n_panels, len(nodes))
    # one dot per panel: a single vals @ weights product sums in another order
    return math.fsum(h * float(np.dot(weights, v)) for h, v in zip(half, vals))


# ---------------------------------------------------------------------------
# deformed-sphere monodromy and Maslov data
# ---------------------------------------------------------------------------

def _katok_jacobian(eps: float, E: float, y) -> np.ndarray:
    """Jacobian of the reduced constant-E flow field, for variational runs."""
    th, _, pth, pph = y
    s, c = math.sin(th), math.cos(th)
    D = 1.0 - eps * eps * s * s
    Dp = -2.0 * eps * eps * s * c
    J = np.zeros((4, 4))
    J[0, 0] = Dp * pth / E
    J[0, 2] = D / E
    J[1, 0] = -(2.0 * c * D / (E * s**3)) * (2.0 * eps * eps * s * s + D) * pph
    J[1, 3] = D * D / (E * s * s)
    J[2, 0] = (eps * eps / E) * math.cos(2.0 * th) * pth * pth \
        + (1.0 / E) * ((-s * s - 3.0 * c * c) / s**4 - eps**4 * math.cos(2.0 * th)) * pph * pph \
        - (2.0 * eps / E) * pph / (s * s)
    J[2, 2] = (2.0 * eps * eps / E) * s * c * pth
    J[2, 3] = (2.0 / E) * (c / s**3 - eps**4 * s * c) * pph + (2.0 * eps / E) * (c / s)
    J[3, 0] = -(eps / E) * pth * (2.0 * math.cos(2.0 * th) * D
                                  - math.sin(2.0 * th) * Dp) / (D * D)
    J[3, 2] = -(eps / E) * math.sin(2.0 * th) / D
    return J


def _katok_variational(eps: float, E: float):
    """The flow field of z = (y, M) with the 4x4 state-transition matrix M
    riding along, as a list or as an array z, like ``Geometry.flow``."""
    geo = Katok(eps)

    def field(z):
        y, M = z[:4], np.reshape(z[4:], (4, 4))
        return np.concatenate([geo.flow(y), (_katok_jacobian(eps, E, y) @ M).ravel()])
    return field


def katok_monodromy_numeric(eps: float, E: float, orientation: str,
                            tol: float = 1e-11) -> np.ndarray:
    """Transverse monodromy by integrating the variational system one period.

    The full 4x4 state-transition matrix rides along the equatorial orbit;
    the returned 2x2 block is its restriction to the invariant
    (Theta, P_theta) plane.
    """
    state, T = canonical_orbit_state(Katok(eps), E, orientation)
    y0 = np.concatenate([state.as_array(), np.eye(4).ravel()])
    _, z, _, status = ode.dop853(_on_floats(_katok_variational(eps, E)), 0.0, y0, T, tol,
                                 dense_output=False)
    if status < 0:
        raise IntegratorError(f"variational integration failed: {ode.STEP_COLLAPSE}")
    M = z[4:].reshape(4, 4)
    return M[np.ix_([0, 2], [0, 2])]


@dataclasses.dataclass(frozen=True)
class MaslovData:
    """Index m = sgn R + 2 kappa of an equatorial orbit iterate at E = sqrt(2)."""

    k: int
    orientation: str
    m: int
    kappa: int
    sgn_r: int


def maslov_katok(k: int, eps: float, orientation: str,
                 resonance_margin: float = 1e-6) -> MaslovData:
    """Maslov index of the k-th iterate at E = sqrt(2), from the rotation
    angle x = 2k/(1 -+ eps) in units of pi alone; no flow is integrated.

    kappa = round(x) and sgn R follows the two-interval rule in the
    fractional part of x.  m = sgn R + 2 kappa equals the closed form
    ``katok_maslov_closed``, 2*floor(x) + 2*sign(k) + 1 (see the tests).
    """
    if not (isinstance(k, (int, np.integer)) and not isinstance(k, bool) and k != 0):
        raise ValidationError(f"iterate index k must be a nonzero integer, got {k}")
    Katok(eps)  # refuses eps outside (0, 1)
    sg = branch_sign(orientation)
    x = 2.0 * k / (1.0 - sg * eps)  # rotation angle in units of pi
    if 2.0 * half_lattice_distance(x) <= resonance_margin:
        raise ResonanceError(
            f"k={k}, branch {orientation}: 2k/(1{'-' if sg > 0 else '+'}eps)={x:.9g} "
            "is too close to the half-integer lattice; the index is ill-defined there")
    kappa = int(round(x))
    frac = x - math.floor(x)
    sgn_r = (1 if frac < 0.5 else -1) + 2 * (1 if k > 0 else -1)
    return MaslovData(k=int(k), orientation=orientation, m=sgn_r + 2 * kappa,
                      kappa=kappa, sgn_r=sgn_r)


# ---------------------------------------------------------------------------
# phase-space volumes
# ---------------------------------------------------------------------------

def liouville_volume(geo: Geometry, E: float) -> float:
    """Liouville volume of the energy shell, Vol(X_E) = 2 pi E Area(M).

    Note the deformed sphere: the published display 8 pi^2 E holds only
    modulo eps^2; the exact area 4 pi/(1-eps^2) is used here (the Monte
    Carlo cross-check agrees with this value, not the display).
    """
    _speed(E)  # refuses E <= 1
    return TWO_PI * E * geo.area


@dataclasses.dataclass(frozen=True)
class MCVolume:
    """Monte Carlo cross-check of the Liouville volume (reported, not asserted)."""

    estimate: float | None
    stderr: float | None
    closed_form: float
    rel_dev: float | None
    note: str | None = None


def mc_liouville_volume(geo: Geometry, E: float, n_samples: int = 200_000,
                        seed: int = 0) -> MCVolume:
    """Estimate Vol(X_E) = 2 pi E * integral sqrt(det g) by seeded Monte Carlo.

    The hyperbolic surface has no parameterized fundamental domain here;
    its closed form (Gauss-Bonnet) is reported without an estimate.
    """
    closed = liouville_volume(geo, E)
    if geo.mc_area is None:  # no generator, so numpy.random stays unimported
        return MCVolume(estimate=None, stderr=None, closed_form=closed,
                        rel_dev=None,
                        note="fundamental domain not parameterized; closed form only")
    vals, cell = geo.mc_area(np.random.default_rng(seed), n_samples)
    area_est = cell * float(np.mean(vals))
    stderr = cell * float(np.std(vals, ddof=1) / math.sqrt(n_samples))
    est = TWO_PI * E * area_est
    return MCVolume(estimate=est, stderr=TWO_PI * E * stderr, closed_form=closed,
                    rel_dev=abs(est - closed) / closed)


def circle_distance(a: float, b: float) -> float:
    """Distance between angles modulo 2 pi."""
    return abs(math.remainder(a - b, TWO_PI))
