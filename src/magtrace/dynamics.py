"""Magnetic geodesic flows: integration, closed orbits, and orbit invariants.

All four example geometries run through the same Hamiltonian system

    dq/dt = (1/H) g^{-1} p,
    dp/dt = (1/H) [ -(1/2) <d(g^{-1}) p, p> + F p^sharp ],

with H = sqrt(g^{-1}(p,p) + 1); the field-strength signs are fixed so that
each geometry's orbit invariants (holonomies, actions) reproduce the
closed forms its coefficient predictions are built on.  A trajectory's
action S = L sqrt(E^2-1) + hol is defined modulo 2 pi; forward-time
primitive orbits always take the plus sign on the length term.

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
from .errors import (ChartError, IntegratorError, ResonanceError,
                     ValidationError)

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)

# spherical charts are trusted away from their coordinate poles
_THETA_MARGIN = 0.1
_KATOK_THETA_MARGIN = 0.05


# ---------------------------------------------------------------------------
# geometry and state records
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class GeometrySpec:
    """One of the four example geometries with its quantized field strength."""

    kind: str
    R: float | None = None
    genus: int | None = None
    eps: float | None = None

    @classmethod
    def torus(cls) -> "GeometrySpec":
        return cls(kind="torus")

    @classmethod
    def sphere(cls, R: float) -> "GeometrySpec":
        if not (R > 0.0 and math.isfinite(R)):
            raise ValidationError(f"sphere radius must be positive, got {R}")
        return cls(kind="sphere", R=R)

    @classmethod
    def hyperbolic(cls, R: float, genus: int) -> "GeometrySpec":
        if not (R > 0.0 and math.isfinite(R)):
            raise ValidationError(f"curvature scale must be positive, got {R}")
        if not (isinstance(genus, int) and genus >= 2):
            raise ValidationError(f"genus must be an integer >= 2, got {genus}")
        return cls(kind="hyperbolic", R=R, genus=genus)

    @classmethod
    def katok(cls, eps: float) -> "GeometrySpec":
        if not (0.0 < eps < 1.0):
            raise ValidationError(f"deformation parameter must lie in (0,1), got {eps}")
        return cls(kind="katok", eps=eps)

    @property
    def B(self) -> float:
        """Quantized magnetic field strength of the implemented case."""
        return {"torus": TWO_PI, "sphere": 0.5, "hyperbolic": 1.0,
                "katok": float("nan")}[self.kind]


@dataclasses.dataclass(frozen=True)
class PhaseState:
    """Chart coordinates (q1, q2) and momenta (p1, p2).

    chart is "default" except on the round sphere, where "z" and "x" name
    the polar charts about the corresponding axes.
    """

    q: tuple
    p: tuple
    chart: str = "default"

    def as_array(self) -> np.ndarray:
        return np.array([self.q[0], self.q[1], self.p[0], self.p[1]], dtype=float)


def _check_chart(geo: GeometrySpec, y, chart: str) -> None:
    q1, q2 = y[0], y[1]
    if geo.kind in ("sphere", "katok"):
        if not 0.0 < q1 < math.pi:
            raise ChartError(f"polar angle theta={q1:.6g} outside (0, pi)")
    elif geo.kind == "hyperbolic":
        if not q2 > 0.0:
            raise ChartError(f"half-plane chart needs y > 0, got y={q2:.6g}")
    if geo.kind == "sphere":
        if chart not in ("z", "x", "default"):
            raise ChartError(f"unknown sphere chart {chart!r}")
    elif chart != "default":
        raise ChartError(f"geometry {geo.kind} has a single chart, got {chart!r}")


# ---------------------------------------------------------------------------
# Hamiltonian and flow field
# ---------------------------------------------------------------------------

def _hamiltonian_array(geo: GeometrySpec, y):
    """H of one state y = (q1, q2, p1, p2), or of each column of a (4, n) batch."""
    q1, q2, p1, p2 = y
    if geo.kind == "torus":
        k = p1 * p1 + p2 * p2
    elif geo.kind == "sphere":
        R2 = geo.R * geo.R
        s = np.sin(q1)
        k = (p1 * p1 + p2 * p2 / (s * s)) / R2
    elif geo.kind == "hyperbolic":
        k = (q2 * q2 / (geo.R * geo.R)) * (p1 * p1 + p2 * p2)
    elif geo.kind == "katok":
        s2 = np.sin(q1) ** 2
        D = 1.0 - geo.eps**2 * s2
        k = D * p1 * p1 + (D * D / s2) * p2 * p2
    else:
        raise ValidationError(f"unknown geometry {geo.kind!r}")
    return np.sqrt(k + 1.0)


def hamiltonian(geo: GeometrySpec, s: PhaseState) -> float:
    """Energy H = sqrt(g^{-1}(p,p) + 1) >= 1, with equality only at p = 0."""
    _check_chart(geo, s.as_array(), s.chart)
    return float(_hamiltonian_array(geo, s.as_array()))


def _rhs(geo: GeometrySpec, y) -> np.ndarray:
    """Flow field at one state (4,) or at each column of a (4, n) batch."""
    q1, q2, p1, p2 = y
    H = _hamiltonian_array(geo, y)
    if geo.kind == "torus":
        B = TWO_PI
        return np.array([p1 / H, p2 / H, B * p2 / H, -B * p1 / H])
    if geo.kind == "sphere":
        R2 = geo.R * geo.R
        B = 0.5
        s, c = np.sin(q1), np.cos(q1)
        return np.array([
            p1 / (R2 * H),
            p2 / (R2 * s * s * H),
            (c / (R2 * s**3)) * p2 * p2 / H + B * p2 / (R2 * s * H),
            -B * s * p1 / (R2 * H),
        ])
    if geo.kind == "hyperbolic":
        R2 = geo.R * geo.R
        B = 1.0
        return np.array([
            q2 * q2 * p1 / (R2 * H),
            q2 * q2 * p2 / (R2 * H),
            B * p2 / (R2 * H),
            -(q2 / R2) * (p1 * p1 + p2 * p2) / H - B * p1 / (R2 * H),
        ])
    if geo.kind == "katok":
        e = geo.eps
        s, c = np.sin(q1), np.cos(q1)
        D = 1.0 - e * e * s * s
        return np.array([
            D * p1 / H,
            (D * D / (s * s)) * p2 / H,
            (e * e * s * c * p1 * p1
             + (c / s**3 - e**4 * s * c) * p2 * p2
             + 2.0 * e * (c / s) * p2) / H,
            -(e * np.sin(2.0 * q1) / D) * p1 / H,
        ])
    raise ValidationError(f"unknown geometry {geo.kind!r}")


def flow_rhs(geo: GeometrySpec, s: PhaseState, E: float) -> tuple:
    """Right-hand side of the reduced flow at an on-shell state.

    Returns ((dq1, dq2), (dp1, dp2)); the state must satisfy H = E to 1e-10.
    """
    y = s.as_array()
    _check_chart(geo, y, s.chart)
    H = float(_hamiltonian_array(geo, y))
    if abs(H - E) > 1e-10 * max(1.0, abs(E)):
        raise ValidationError(f"state is off-shell: H={H!r} but E={E!r}")
    d = _rhs(geo, y)
    return (d[0], d[1]), (d[2], d[3])


def katok_first_integral(eps: float, y):
    """Conserved quantity P = p_phi + eps sin^2(theta)/(1 - eps^2 sin^2(theta))."""
    s2 = np.sin(y[0]) ** 2
    return y[3] + eps * s2 / (1.0 - eps * eps * s2)


# ---------------------------------------------------------------------------
# sphere chart transitions (rotation isometry via the embedding)
# ---------------------------------------------------------------------------

def _sphere_axes(chart: str) -> tuple:
    # chart "x" relabels the axes cyclically: its (x, y, z) are world (y, z, x)
    return ((0, 1, 2) if chart == "z" else (1, 2, 0))


def _sphere_to_world(y, chart, R, H):
    """World position n and velocity dn/dt of a sphere chart state."""
    ax = _sphere_axes(chart)
    q1, q2, p1, p2 = y
    s, c = math.sin(q1), math.cos(q1)
    n_loc = np.array([s * math.cos(q2), s * math.sin(q2), c])
    dth = p1 / (R * R * H)
    dph = p2 / (R * R * s * s * H)
    v_loc = (dth * np.array([c * math.cos(q2), c * math.sin(q2), -s])
             + dph * np.array([-s * math.sin(q2), s * math.cos(q2), 0.0]))
    n = np.empty(3)
    v = np.empty(3)
    n[list(ax)] = n_loc
    v[list(ax)] = v_loc
    return n, v


def _sphere_from_world(n, v, chart, R, H):
    ax = _sphere_axes(chart)
    n_loc = n[list(ax)]
    v_loc = v[list(ax)]
    q1 = math.acos(max(-1.0, min(1.0, n_loc[2])))
    q2 = math.atan2(n_loc[1], n_loc[0])
    s = math.sin(q1)
    dth = -v_loc[2] / s
    dph = (v_loc[1] * n_loc[0] - n_loc[1] * v_loc[0]) / (n_loc[0] ** 2 + n_loc[1] ** 2)
    return np.array([q1, q2, R * R * H * dth, R * R * s * s * H * dph])


def _sphere_switch_chart(y, chart, R):
    H = _hamiltonian_array(GeometrySpec.sphere(R), y)
    n, v = _sphere_to_world(y, chart, R, H)
    new_chart = "x" if chart == "z" else "z"
    return _sphere_from_world(n, v, new_chart, R, H), new_chart


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

    geo: GeometrySpec
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


def integrate(geo: GeometrySpec, s0: PhaseState, E: float, t: float,
              tol: float = 1e-11, max_chart_switches: int = 64) -> FlowResult:
    """Integrate the flow for time t with adaptive 8th-order Runge-Kutta.

    Local tolerance ``tol`` drives both rtol and atol; energy drift (and,
    for the deformed sphere, first-integral drift) above 100*tol raises.
    The round sphere switches between its two polar charts when theta
    leaves (0.1, pi - 0.1); the deformed sphere's chart has no isometric
    rotation, so its trajectories must keep clear of the poles.
    """
    y0 = s0.as_array()
    chart = s0.chart if s0.chart != "default" else ("z" if geo.kind == "sphere" else "default")
    _check_chart(geo, y0, s0.chart)
    H0 = float(_hamiltonian_array(geo, y0))
    if abs(H0 - E) > 1e-10 * max(1.0, abs(E)):
        raise ValidationError(f"initial state off-shell: H={H0!r}, E={E!r}")
    if t == 0.0:
        return FlowResult(geo=geo, E=E, t_final=0.0, final=s0, energy_drift=0.0,
                          first_integral_drift=(0.0 if geo.kind == "katok" else None),
                          chart_switches=0, segments=())
    if t < 0.0:
        raise ValidationError("integration time must be nonnegative")

    events = ()
    if geo.kind in ("sphere", "katok"):
        margin = _THETA_MARGIN if geo.kind == "sphere" else _KATOK_THETA_MARGIN
        events = (lambda tt, y: y[0] - margin,
                  lambda tt, y: y[0] - (math.pi - margin))

    segments = []
    switches = 0
    t_cur, y_cur = 0.0, y0
    while t_cur < t:
        t_end, y_cur, sol, status = ode.dop853(lambda tt, y: _rhs(geo, y), t_cur, y_cur, t,
                                               tol, events)
        if status < 0:
            raise IntegratorError(f"integration failed at t={t_end:.6g}: {ode.STEP_COLLAPSE}")
        segments.append(FlowSegment(chart=chart, t0=t_cur, t1=float(t_end), sol=sol))
        t_cur = float(t_end)
        if status == 1:  # hit a pole guard
            if geo.kind == "katok":
                raise IntegratorError(
                    f"trajectory approached a coordinate pole (theta={y_cur[0]:.4g}) "
                    "of the deformed-sphere chart; no rotated chart exists for this metric"
                )
            y_cur, chart = _sphere_switch_chart(y_cur, chart, geo.R)
            switches += 1
            if switches > max_chart_switches:
                raise IntegratorError("too many chart switches; step-size collapse suspected")

    # conservation monitors over dense samples
    n_mon = 256
    drift = 0.0
    fdrift = 0.0 if geo.kind == "katok" else None
    P0 = katok_first_integral(geo.eps, y0) if geo.kind == "katok" else None
    for seg in segments:
        ys = seg.sol(np.linspace(seg.t0, seg.t1,
                                 max(2, int(n_mon * (seg.t1 - seg.t0) / t))))
        drift = max(drift, float(np.max(np.abs(_hamiltonian_array(geo, ys) - E))))
        if P0 is not None:
            fdrift = max(fdrift, float(np.max(np.abs(katok_first_integral(geo.eps, ys) - P0))))
    budget = 100.0 * tol
    if drift > budget:
        raise IntegratorError(f"energy drift {drift:.3e} exceeds budget {budget:.3e}")
    if fdrift is not None and fdrift > budget:
        raise IntegratorError(f"first-integral drift {fdrift:.3e} exceeds budget {budget:.3e}")

    final = PhaseState(q=(float(y_cur[0]), float(y_cur[1])),
                       p=(float(y_cur[2]), float(y_cur[3])),
                       chart=(chart if geo.kind == "sphere" else "default"))
    return FlowResult(geo=geo, E=E, t_final=t, final=final, energy_drift=drift,
                      first_integral_drift=fdrift, chart_switches=switches,
                      segments=tuple(segments))


# ---------------------------------------------------------------------------
# canonical closed orbits and their invariants
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class OrbitInvariants:
    """Closed-form invariants of one primitive closed orbit.

    S is the action L*sqrt(E^2-1) + hol, stored unreduced; it is defined
    modulo 2 pi.  maslov is None where the source material does not state
    an index (see maslov_note).
    """

    geometry: str
    orientation: str
    E: float
    L: float
    T: float
    Tsharp: float
    S: float
    hol: float
    maslov: int | None
    maslov_note: str
    detIminusP: float


@dataclasses.dataclass(frozen=True)
class ClosedOrbitSet:
    """Closed orbits of the flow at one energy (possibly none)."""

    orbits: tuple
    note: str | None = None

    @property
    def has_orbits(self) -> bool:
        return len(self.orbits) > 0


def closed_orbit_invariants(geo: GeometrySpec, E: float) -> ClosedOrbitSet:
    """Closed-form orbit data for each geometry at energy E > 1.

    Above (or at) the Mane level the hyperbolic flow has no closed
    trajectories and an empty result is returned rather than an error.
    """
    if not (E > 1.0 and math.isfinite(E)):
        raise ValidationError(f"energy must exceed 1, got {E}")
    c = math.sqrt(E * E - 1.0)
    if geo.kind == "torus":
        B = TWO_PI
        T = TWO_PI * E / B
        L = TWO_PI * c / B
        hol = -math.pi * (E * E - 1.0) / B
        return ClosedOrbitSet(orbits=(OrbitInvariants(
            geometry="torus", orientation="-", E=E, L=L, T=T, Tsharp=T,
            S=L * c + hol, hol=hol, maslov=4, maslov_note="",
            detIminusP=0.0),))
    if geo.kind == "sphere":
        B, R = 0.5, geo.R
        w = math.sqrt(c * c + B * B / (R * R))
        T = TWO_PI * E * R / w
        L = TWO_PI * c * R / w
        hol = -TWO_PI * B * (1.0 - (B / R) / w)
        return ClosedOrbitSet(orbits=(OrbitInvariants(
            geometry="sphere", orientation="-", E=E, L=L, T=T, Tsharp=T,
            S=L * c + hol, hol=hol, maslov=None,
            maslov_note="no stated index for this orbit family", detIminusP=0.0),))
    if geo.kind == "hyperbolic":
        R = geo.R
        if c * R >= 1.0:
            return ClosedOrbitSet(orbits=(), note=(
                f"cR = {c * R:.6g} >= 1: at or above the Mane level the flow has "
                "no periodic trajectories (horocycles at cR = 1, Anosov above)"))
        root = math.sqrt(1.0 - c * c * R * R)
        T = TWO_PI * E * R * R / root
        L = TWO_PI * c * R * R / root
        hol = -TWO_PI * (1.0 / root - 1.0)
        return ClosedOrbitSet(orbits=(OrbitInvariants(
            geometry="hyperbolic", orientation="-", E=E, L=L, T=T, Tsharp=T,
            S=L * c + hol, hol=hol, maslov=None,
            maslov_note="no stated index for this orbit family", detIminusP=0.0),))
    if geo.kind == "katok":
        e = geo.eps
        T = TWO_PI * E / ((1.0 - e * e) * c)
        L = TWO_PI / (1.0 - e * e)
        orbits = []
        at_sqrt2 = abs(E - SQRT2) < 1e-12
        for branch, label in ((+1, "+"), (-1, "-")):
            hol = branch * TWO_PI * e / (1.0 - e * e)
            kat = katok_poincare_analytic(e, E, label)
            if at_sqrt2:
                x = 2.0 / (1.0 - branch * e)
                if abs(x - round(2.0 * x) / 2.0) <= 1e-9:
                    maslov = None
                    note = "index ill-defined at this resonant deformation"
                else:
                    maslov = 2 * int(math.floor(x)) + 3
                    note = ""
            else:
                maslov = None
                note = "index formula stated only at E = sqrt(2)"
            orbits.append(OrbitInvariants(
                geometry="katok", orientation=label, E=E, L=L, T=T, Tsharp=T,
                S=L * c + hol, hol=hol, maslov=maslov, maslov_note=note,
                detIminusP=kat.det_i_minus_p))
        return ClosedOrbitSet(orbits=tuple(orbits))
    raise ValidationError(f"unknown geometry {geo.kind!r}")


def canonical_orbit_state(geo: GeometrySpec, E: float,
                          orientation: str = "+") -> tuple:
    """An on-shell initial state on the canonical closed orbit, with its period.

    Returns (PhaseState, T).  For the hyperbolic flow this requires
    cR < 1 (below the Mane level).
    """
    if not (E > 1.0 and math.isfinite(E)):
        raise ValidationError(f"energy must exceed 1, got {E}")
    c = math.sqrt(E * E - 1.0)
    if geo.kind == "torus":
        return PhaseState(q=(0.0, 0.0), p=(c, 0.0)), E
    if geo.kind == "sphere":
        B, R = 0.5, geo.R
        w = math.sqrt(c * c + B * B / (R * R))
        theta0 = math.atan2(c * R, B)  # northern latitude circle
        return (PhaseState(q=(theta0, 0.0), p=(0.0, -c * R * math.sin(theta0)),
                           chart="z"),
                TWO_PI * E * R / w)
    if geo.kind == "hyperbolic":
        R = geo.R
        if c * R >= 1.0:
            raise ValidationError(
                f"cR = {c * R:.6g} >= 1: no closed hyperbolic orbit to start on")
        root = math.sqrt(1.0 - c * c * R * R)
        r = math.atanh(c * R)  # normalized radius, tanh r = cR
        y_bottom = math.exp(-r)  # circle about (0, 1): lowest point
        return (PhaseState(q=(0.0, y_bottom), p=(-c * R / y_bottom, 0.0)),
                TWO_PI * E * R * R / root)
    if geo.kind == "katok":
        if orientation not in ("+", "-"):
            raise ValidationError(f"orientation must be '+' or '-', got {orientation!r}")
        sign = 1.0 if orientation == "+" else -1.0
        e = geo.eps
        return (PhaseState(q=(math.pi / 2.0, 0.0), p=(0.0, sign * c / (1.0 - e * e))),
                TWO_PI * E / ((1.0 - e * e) * c))
    raise ValidationError(f"unknown geometry {geo.kind!r}")


# ---------------------------------------------------------------------------
# holonomy quadrature along integrated paths
# ---------------------------------------------------------------------------

def _vector_potential_pullback(geo: GeometrySpec, y):
    """A(q) . dq/dt along the flow, in the trivializations the closed forms use.

    torus: A = B x dy on the universal cover; sphere: A = B (1-cos theta)
    dphi over the upper hemisphere; hyperbolic: A = (B/y) dx; deformed
    sphere: A = eps sin^2/(1-eps^2 sin^2) dphi (sign fixed by the branch
    pairing of the orbit actions).  y is one state or a (4, n) batch.
    """
    d = _rhs(geo, y)
    if geo.kind == "torus":
        return TWO_PI * y[0] * d[1]
    if geo.kind == "sphere":
        return 0.5 * (1.0 - np.cos(y[0])) * d[1]
    if geo.kind == "hyperbolic":
        return (1.0 / y[1]) * d[0]
    if geo.kind == "katok":
        s2 = np.sin(y[0]) ** 2
        return geo.eps * s2 / (1.0 - geo.eps**2 * s2) * d[1]
    raise ValidationError(f"unknown geometry {geo.kind!r}")


def _closure_gap(geo: GeometrySpec, y0, y1) -> float:
    dq = np.array(y1[:2]) - np.array(y0[:2])
    dp = np.array(y1[2:]) - np.array(y0[2:])
    if geo.kind == "torus":
        dq = dq - np.round(dq)  # projected loop closes modulo the lattice
    elif geo.kind in ("sphere", "katok"):
        dq[1] -= TWO_PI * round(dq[1] / TWO_PI)
    return float(max(np.max(np.abs(dq)), np.max(np.abs(dp))))


def numeric_holonomy(geo: GeometrySpec, flow: FlowResult,
                     closure_tol: float = 1e-7) -> float:
    """Line integral of the connection form along a closed integrated orbit.

    Composite 16-point Gauss-Legendre quadrature over the dense solution;
    the value is canonically defined modulo 2 pi and returned unreduced.
    Paths that fail to close within ``closure_tol`` are rejected, as are
    sphere paths leaving the upper hemisphere (the trivialization above is
    only the hemispheric one) and paths that switched charts.
    """
    if not flow.segments:
        return 0.0
    if flow.chart_switches:
        raise ValidationError("holonomy quadrature needs a single-chart path")
    y_start = flow.segments[0].sol(flow.segments[0].t0)
    y_end = flow.segments[-1].sol(flow.segments[-1].t1)
    gap = _closure_gap(geo, y_start, y_end)
    if gap > closure_tol:
        raise ValidationError(
            f"path is not closed: endpoint gap {gap:.3e} > {closure_tol:.1e}")

    nodes, weights = leggauss(16)
    total = []
    for seg in flow.segments:
        span = seg.t1 - seg.t0
        n_panels = max(64, int(math.ceil(8.0 * span)))
        edges = np.linspace(seg.t0, seg.t1, n_panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        states = seg.sol((mid[:, None] + half[:, None] * nodes).ravel())
        if geo.kind == "sphere" and np.any(states[0] >= math.pi / 2.0):
            raise ValidationError(
                "orbit leaves the upper hemisphere; the hemispheric "
                "trivialization does not cover it")
        vals = _vector_potential_pullback(geo, states).reshape(n_panels, len(nodes))
        # one dot per panel: a single vals @ weights product sums in another order
        total += [h * float(np.dot(weights, v)) for h, v in zip(half, vals)]
    return math.fsum(total)


# ---------------------------------------------------------------------------
# deformed-sphere monodromy and Maslov data
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class KatokMonodromy:
    """Transverse return map of an equatorial orbit in (Theta, P_theta)."""

    matrix: np.ndarray
    a: float
    alpha: float
    det_i_minus_p: float


def _branch_sign(orientation: str) -> int:
    if orientation not in ("+", "-"):
        raise ValidationError(f"orientation must be '+' or '-', got {orientation!r}")
    return 1 if orientation == "+" else -1


def katok_poincare_analytic(eps: float, E: float, orientation: str) -> KatokMonodromy:
    """Closed-form linearized return map of the equatorial orbits.

    With a = [(E^2-1)(1+eps^2) +- 2 eps sqrt(E^2-1)]^{1/2} and rotation
    angle alpha = (2 pi/(1-eps^2)) [1+eps^2 +- 2 eps/sqrt(E^2-1)]^{1/2},
    the map is the rotation-like matrix
    [[cos a, (1-e^2)/a sin a], [-a/(1-e^2) sin a, cos a]] (angle alpha),
    and |I - P| = 4 sin^2(alpha/2).
    """
    if not (0.0 < eps < 1.0):
        raise ValidationError(f"deformation parameter must lie in (0,1), got {eps}")
    if not E > 1.0:
        raise ValidationError(f"energy must exceed 1, got {E}")
    sg = _branch_sign(orientation)
    c = math.sqrt(E * E - 1.0)
    a = math.sqrt((E * E - 1.0) * (1.0 + eps * eps) + sg * 2.0 * eps * c)
    alpha = (TWO_PI / (1.0 - eps * eps)) * math.sqrt(1.0 + eps * eps + sg * 2.0 * eps / c)
    ca, sa = math.cos(alpha), math.sin(alpha)
    mat = np.array([[ca, (1.0 - eps * eps) / a * sa],
                    [-a / (1.0 - eps * eps) * sa, ca]])
    return KatokMonodromy(matrix=mat, a=a, alpha=alpha,
                          det_i_minus_p=4.0 * math.sin(alpha / 2.0) ** 2)


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
    geo = GeometrySpec.katok(eps)
    state, T = canonical_orbit_state(geo, E, orientation)
    y0 = np.concatenate([state.as_array(), np.eye(4).ravel()])

    def rhs(tt, z):
        y = z[:4]
        M = z[4:].reshape(4, 4)
        return np.concatenate([_rhs(geo, y), (_katok_jacobian(eps, E, y) @ M).ravel()])

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
    rule in the fractional part of x = 2k/(1 -+ eps).  The combination is
    checked against the closed form 2*floor(x) + 2*sign(k) + 1.
    """
    if not (isinstance(k, (int, np.integer)) and k != 0):
        raise ValidationError(f"iterate index k must be a nonzero integer, got {k}")
    if not (0.0 < eps < 1.0):
        raise ValidationError(f"deformation parameter must lie in (0,1), got {eps}")
    sg = _branch_sign(orientation)
    x = 2.0 * k / (1.0 - sg * eps)  # rotation angle in units of pi
    d_half_lattice = abs(x - round(2.0 * x) / 2.0)
    if 2.0 * d_half_lattice <= resonance_margin:
        raise ResonanceError(
            f"k={k}, branch {orientation}: 2k/(1{'-' if sg > 0 else '+'}eps)={x:.9g} "
            "is too close to the half-integer lattice; the index is ill-defined there")
    kappa = int(round(x))
    frac = x - math.floor(x)
    sgn_r = (1 if frac < 0.5 else -1) + 2 * (1 if k > 0 else -1)
    m = sgn_r + 2 * kappa
    m_closed = 2 * int(math.floor(x)) + 2 * (1 if k > 0 else -1) + 1
    assert m == m_closed, (m, m_closed)
    return MaslovData(k=int(k), orientation=orientation, m=m, kappa=kappa, sgn_r=sgn_r)


# ---------------------------------------------------------------------------
# phase-space volumes
# ---------------------------------------------------------------------------

def metric_area(geo: GeometrySpec) -> float:
    """Riemannian area of the configuration manifold."""
    if geo.kind == "torus":
        return 1.0
    if geo.kind == "sphere":
        return 4.0 * math.pi * geo.R * geo.R
    if geo.kind == "hyperbolic":
        return TWO_PI * geo.R * geo.R * (2 * geo.genus - 2)  # Gauss-Bonnet
    if geo.kind == "katok":
        # int sqrt(det g) = 2 pi int sin/(1-eps^2 sin^2)^{3/2} = 4 pi/(1-eps^2)
        return 4.0 * math.pi / (1.0 - geo.eps * geo.eps)
    raise ValidationError(f"unknown geometry {geo.kind!r}")


def liouville_volume(geo: GeometrySpec, E: float) -> float:
    """Liouville volume of the energy shell, Vol(X_E) = 2 pi E Area(M).

    Note the deformed sphere: the published display 8 pi^2 E holds only
    modulo eps^2; the exact area 4 pi/(1-eps^2) is used here (the Monte
    Carlo cross-check agrees with this value, not the display).
    """
    if not (E > 1.0 and math.isfinite(E)):
        raise ValidationError(f"energy must exceed 1, got {E}")
    return TWO_PI * E * metric_area(geo)


@dataclasses.dataclass(frozen=True)
class MCVolume:
    """Monte Carlo cross-check of the Liouville volume (reported, not asserted)."""

    estimate: float | None
    stderr: float | None
    closed_form: float
    rel_dev: float | None
    note: str | None = None


def mc_liouville_volume(geo: GeometrySpec, E: float, n_samples: int = 200_000,
                        seed: int = 0) -> MCVolume:
    """Estimate Vol(X_E) = 2 pi E * integral sqrt(det g) by seeded Monte Carlo.

    The hyperbolic surface has no parameterized fundamental domain here;
    its closed form (Gauss-Bonnet) is reported without an estimate.
    """
    closed = liouville_volume(geo, E)
    if geo.kind == "hyperbolic":
        return MCVolume(estimate=None, stderr=None, closed_form=closed,
                        rel_dev=None,
                        note="fundamental domain not parameterized; closed form only")
    rng = np.random.default_rng(seed)
    if geo.kind == "torus":
        vals = np.ones(n_samples)
        cell = 1.0
    else:
        th = rng.uniform(0.0, math.pi, n_samples)
        if geo.kind == "sphere":
            vals = geo.R * geo.R * np.sin(th)
        else:
            s2 = np.sin(th) ** 2
            vals = np.sin(th) / (1.0 - geo.eps**2 * s2) ** 1.5
        cell = math.pi * TWO_PI  # chart rectangle (0,pi) x (0,2pi)
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
