"""Magnetic geodesic flows: integration, closed orbits, and orbit invariants.

All four example geometries run through the same Hamiltonian system

    dq/dt = (1/H) g^{-1} p,
    dp/dt = (1/H) [ -(1/2) <d(g^{-1}) p, p> + F p^sharp ],

with H = sqrt(g^{-1}(p,p) + 1); the field-strength signs are fixed so that
each geometry's orbit invariants (holonomies, actions) reproduce the
closed forms its coefficient predictions are built on.  A trajectory's
action S = L sqrt(E^2-1) + hol is defined modulo 2 pi; forward-time
primitive orbits always take the plus sign on the length term.

Each geometry's Hamiltonian, flow field, connection form, charts and
closed-form orbit data are methods of its class in ``geometry``; this
module integrates the flow and measures along it.

Orientation labels: the deformed sphere carries two equatorial orbits,
"+" (increasing phi) and "-"; the unique closed orbits of the other
geometries circulate clockwise and are labelled "-".
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

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
    chart: str
    t0: float
    t1: float
    sol: ode.DenseSolution  # dense output over [t0, t1]


@dataclasses.dataclass(frozen=True)
class FlowResult:
    """An integrated trajectory with conservation monitors.

    ``energy_drift`` is max |H - E| over dense samples; for the deformed
    sphere ``first_integral_drift`` additionally monitors the conserved
    quantity of the integrable structure.  Sampling across chart switches
    reports each sample's own chart.
    """

    geo: Geometry
    E: float
    t_final: float
    final: PhaseState
    energy_drift: float
    first_integral_drift: float | None
    chart_switches: int
    segments: tuple

    def sample(self, n: int) -> tuple:
        """n states at uniform times: (t, y[4, n], charts list)."""
        ts = np.linspace(0.0, self.t_final, n)
        ys = np.empty((4, n))
        # each time belongs to the first segment that ends at or after it
        which = np.minimum(np.searchsorted([seg.t1 for seg in self.segments], ts),
                           len(self.segments) - 1)
        for k, seg in enumerate(self.segments):
            at = which == k
            if at.any():
                ys[:, at] = seg.sol(np.clip(ts[at], seg.t0, seg.t1))
        return ts, ys, [self.segments[k].chart for k in which]


def integrate(geo: Geometry, s0: PhaseState, E: float, t: float,
              tol: float = 1e-11) -> FlowResult:
    """Integrate the flow for time t with adaptive 8th-order Runge-Kutta.

    Local tolerance ``tol`` drives both rtol and atol; energy drift (and,
    for the deformed sphere, first-integral drift) above 100*tol raises.
    The round sphere switches between its two polar charts when theta
    leaves (0.1, pi - 0.1), at most 64 times; the deformed sphere's chart
    has no isometric rotation, so its trajectories must keep clear of the
    poles.
    """
    y0 = s0.as_array()
    chart = s0.chart if s0.chart != "default" else geo.default_chart
    geo.check_chart(y0, s0.chart)
    H0 = float(geo.hamiltonian(y0))
    if abs(H0 - E) > 1e-10 * max(1.0, abs(E)):
        raise ValidationError(f"initial state off-shell: H={H0!r}, E={E!r}")
    P0 = geo.first_integral(y0)
    fdrift = None if P0 is None else 0.0
    if t == 0.0:
        return FlowResult(geo=geo, E=E, t_final=0.0, final=s0, energy_drift=0.0,
                          first_integral_drift=fdrift,
                          chart_switches=0, segments=())
    if t < 0.0:
        raise ValidationError("integration time must be nonnegative")

    events = ()
    margin = geo.pole_margin
    if margin is not None:
        events = (lambda tt, y: y[0] - margin,
                  lambda tt, y: y[0] - (math.pi - margin))

    segments = []
    switches = 0
    t_cur, y_cur = 0.0, y0
    while t_cur < t:
        t_end, y_cur, sol, status = ode.dop853(lambda tt, y: geo.flow(y), t_cur, y_cur, t,
                                               tol, events)
        if status < 0:
            raise IntegratorError(f"integration failed at t={t_end:.6g}: {ode.STEP_COLLAPSE}")
        segments.append(FlowSegment(chart=chart, t0=t_cur, t1=float(t_end), sol=sol))
        t_cur = float(t_end)
        if status == 1:  # hit a pole guard
            y_cur, chart = geo.switch_chart(y_cur, chart)
            switches += 1
            if switches > 64:
                raise IntegratorError("too many chart switches; step-size collapse suspected")

    # conservation monitors over dense samples
    n_mon = 256
    drift = 0.0
    for seg in segments:
        ys = seg.sol(np.linspace(seg.t0, seg.t1,
                                 max(2, int(n_mon * (seg.t1 - seg.t0) / t))))
        drift = max(drift, float(np.max(np.abs(geo.hamiltonian(ys) - E))))
        if P0 is not None:
            fdrift = max(fdrift, float(np.max(np.abs(geo.first_integral(ys) - P0))))
    budget = 100.0 * tol
    if drift > budget:
        raise IntegratorError(f"energy drift {drift:.3e} exceeds budget {budget:.3e}")
    if fdrift is not None and fdrift > budget:
        raise IntegratorError(f"first-integral drift {fdrift:.3e} exceeds budget {budget:.3e}")

    final = PhaseState(q=(float(y_cur[0]), float(y_cur[1])),
                       p=(float(y_cur[2]), float(y_cur[3])),
                       chart=chart)
    return FlowResult(geo=geo, E=E, t_final=t, final=final, energy_drift=drift,
                      first_integral_drift=fdrift, chart_switches=switches,
                      segments=tuple(segments))


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
    hemispheric one) and paths that switched charts.
    """
    if not flow.segments:
        return 0.0
    if flow.chart_switches:
        raise ValidationError("holonomy quadrature needs a single-chart path")
    y_start = flow.segments[0].sol(flow.segments[0].t0)
    y_end = flow.segments[-1].sol(flow.segments[-1].t1)
    gap = geo.closure_gap(y_start, y_end)
    if gap > 1e-7:
        raise ValidationError(f"path is not closed: endpoint gap {gap:.3e} > 1.0e-07")

    nodes, weights = leggauss(16)
    total = []
    for seg in flow.segments:
        span = seg.t1 - seg.t0
        n_panels = max(64, int(math.ceil(8.0 * span)))
        edges = np.linspace(seg.t0, seg.t1, n_panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        states = seg.sol((mid[:, None] + half[:, None] * nodes).ravel())
        vals = geo.connection(states).reshape(n_panels, len(nodes))
        # one dot per panel: a single vals @ weights product sums in another order
        total += [h * float(np.dot(weights, v)) for h, v in zip(half, vals)]
    return math.fsum(total)


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


def katok_monodromy_numeric(eps: float, E: float, orientation: str,
                            tol: float = 1e-11) -> np.ndarray:
    """Transverse monodromy by integrating the variational system one period.

    The full 4x4 state-transition matrix rides along the equatorial orbit;
    the returned 2x2 block is its restriction to the invariant
    (Theta, P_theta) plane.
    """
    geo = Katok(eps)
    state, T = canonical_orbit_state(geo, E, orientation)
    y0 = np.concatenate([state.as_array(), np.eye(4).ravel()])

    def rhs(tt, z):
        y = z[:4]
        M = z[4:].reshape(4, 4)
        return np.concatenate([geo.flow(y), (_katok_jacobian(eps, E, y) @ M).ravel()])

    _, z, _, status = ode.dop853(rhs, 0.0, y0, T, tol, dense_output=False)
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
    """Maslov index of the k-th iterate by rotation counting, at E = sqrt(2).

    kappa counts the transverse rotation angle k*alpha through the windows
    ((2 kappa - 1) pi/2, (2 kappa + 1) pi/2); sgn R follows the two-interval
    rule in the fractional part of x = 2k/(1 -+ eps).  The combination
    equals the closed form 2*floor(x) + 2*sign(k) + 1 (see the tests).
    """
    if not (isinstance(k, (int, np.integer)) and k != 0):
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
    sample = geo.mc_area(np.random.default_rng(seed), n_samples)
    if sample is None:
        return MCVolume(estimate=None, stderr=None, closed_form=closed,
                        rel_dev=None,
                        note="fundamental domain not parameterized; closed form only")
    vals, cell = sample
    area_est = cell * float(np.mean(vals))
    stderr = cell * float(np.std(vals, ddof=1) / math.sqrt(n_samples))
    est = TWO_PI * E * area_est
    return MCVolume(estimate=est, stderr=TWO_PI * E * stderr, closed_form=closed,
                    rel_dev=abs(est - closed) / closed)


def circle_distance(a: float, b: float) -> float:
    """Distance between angles modulo 2 pi."""
    d = math.fmod(a - b, TWO_PI)
    if d < -math.pi:
        d += TWO_PI
    elif d > math.pi:
        d -= TWO_PI
    return abs(d)
