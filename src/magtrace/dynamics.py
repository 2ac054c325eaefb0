"""Magnetic geodesic flows: integration, closed orbits, and orbit invariants.

All four example geometries run through the same Hamiltonian system

    dq/dt = (1/H) g^{-1} p,
    dp/dt = (1/H) [ -(1/2) <d(g^{-1}) p, p> + F p^sharp ],

with H = sqrt(g^{-1}(p,p) + 1), written once in ``geometry.Geometry``; the
field-strength signs are fixed so that each geometry's orbit invariants
(holonomies, actions) reproduce the closed forms its coefficient
predictions are built on.  A trajectory's action S = L sqrt(E^2-1) + hol is
defined modulo 2 pi; forward-time primitive orbits always take the plus
sign on the length term.

This module integrates the flow and its tangent flow in one chart and
measures along them; the chart coefficients, connection form, closed
orbits (``closed_orbits``) and their start points (``orbit_state``) are
methods of each geometry's class, and a run takes its period from the
closed orbit it starts on.

Orientation labels: the deformed sphere carries two equatorial orbits,
"+" (increasing phi) and "-"; the unique closed orbits of the other
geometries circulate clockwise and are labelled "-".
"""

from __future__ import annotations

import math

import numpy as np

from . import ode
from .errors import IntegratorError, ValidationError, record
from .geometry import EnergyLevel, Geometry, Katok, PhaseState
# dynamics.GeometrySpec is read by perfbench/reference.py
from .geometry import GeometrySpec  # noqa: F401

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

@record
class FlowSegment:
    t0: float
    t1: float
    sol: ode.DenseSolution  # dense output over [t0, t1]


@record
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
    """The right-hand side (tt, y) -> field(y), as an array, for ``ode.dop853``,
    run on y's Python floats, on which the formulas use ``math`` and give the
    array's values.  Where float arithmetic raises (a division by zero, an
    overflow or a math-domain error), field runs on the array y, so numpy
    gives its inf or nan and its warning."""

    def rhs(tt, y):
        try:
            return np.array(field(y.tolist()))
        except (ZeroDivisionError, OverflowError, ValueError):
            return np.array(field(y))
    return rhs


def _goes_negative(b) -> bool:
    """Whether a polynomial on [0, 1], one per row of Bernstein coefficients
    b, goes negative: one with a negative end does, one with no negative
    coefficient does not, and the rest are halved (de Casteljau) until one
    or the other holds, or, after 60 halvings, touch 0 only to rounding."""
    for _ in range(60):
        rows = [b[b.min(axis=1) < 0.0]]
        if not len(rows[0]) or np.any(rows[0][:, [0, -1]] < 0.0):
            return len(rows[0]) > 0
        while rows[-1].shape[1] > 1:
            rows.append(0.5 * (rows[-1][:, :-1] + rows[-1][:, 1:]))
        b = np.vstack([np.stack([r[:, 0] for r in rows], axis=1),
                       np.stack([r[:, -1] for r in rows[::-1]], axis=1)])
    return False


def integrate(geo: Geometry, s0: PhaseState, E: float, t: float,
              tol: float = 1e-11) -> FlowResult:
    """Integrate the flow for time t with adaptive 8th-order Runge-Kutta.

    Local tolerance ``tol`` drives both rtol and atol; energy drift (and,
    for the deformed sphere, first-integral drift) at 256 dense samples
    above 100*tol raises.  The run stays in one chart: on the two spheres a
    path that crosses a pole margin, theta = pole_margin or pi - pole_margin,
    anywhere in a step (seen by its theta polynomial's Bernstein hull)
    raises IntegratorError, while a path wholly inside a margin runs.
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

    t_end, y_end, sol, status = ode.dop853(_on_floats(lambda y: geo.flow_terms(y)[1]),
                                           0.0, y0, t, tol)
    if status < 0:
        raise IntegratorError(f"integration failed at t={t_end:.6g}: {ode.STEP_COLLAPSE}")

    margin = geo.pole_margin
    if margin is not None:
        theta = sol.bernstein(0)
        for edge, pole in ((margin, "0"), (math.pi - margin, "pi")):
            if _goes_negative(theta - edge if y0[0] >= edge else edge - theta):
                raise IntegratorError(f"path crossed theta = {edge:.6g}, the margin of the "
                                      f"pole theta = {pole}; the run keeps to one chart")
    ys = sol(np.linspace(0.0, t, 256))
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

# also called by perfbench/reference.py
def canonical_orbit_state(geo: Geometry, E: float,
                          orientation: str = "+") -> tuple:
    """An on-shell initial state on the canonical closed orbit, with its period.

    Returns (PhaseState, T), T the orbit's from ``closed_orbits``; a geometry
    with no closed orbit at E (the hyperbolic one at or above the Mane level)
    is refused.  Only the deformed sphere, with its two equatorial orbits,
    reads ``orientation``.
    """
    c = EnergyLevel.from_E(E).c
    orbits = geo.closed_orbits(E, c)
    if not orbits.has_orbits:
        raise ValidationError(orbits.note)
    return geo.orbit_state(c, orientation), orbits.pick(orientation).T


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
# the tangent flow and the monodromy
# ---------------------------------------------------------------------------

def _variational(geo: Geometry):
    """The flow field of z = (y, M), M' = Df(y) M, as a list, on a list or an
    array z like ``Geometry.flow``.  f = n/H reads only s, p1 and p2, so
    d f_i = (d n_i - f_i dH)/H has three columns; Df M sums three products."""
    k = geo.s_index

    def field(z):
        p1, p2 = z[2], z[3]
        H, f, (a, b, F, da, db) = geo.flow_terms(z[:4])
        dF, dda, ddb = geo.coefficients(z[k], True)
        # d n_i/d(s, p1, p2) of n = H f = (a p1, b p2, F b p2, -F a p1) - G e_s,
        # G = (a' p1^2 + b' p2^2)/2 = H dH/ds; dH/dp = (f_1, f_2)
        dn = [(da * p1, a, 0.0), (db * p2, 0.0, b),
              ((dF * b + F * db) * p2, 0.0, F * b), (-(dF * a + F * da) * p1, -F * a, 0.0)]
        dG = ((dda * p1 * p1 + ddb * p2 * p2) / 2.0, da * p1, db * p2)
        dn[2 + k] = [n - g for n, g in zip(dn[2 + k], dG)]
        Hs = (da * p1 * p1 + db * p2 * p2) / (2.0 * H)
        Ms, M1, M2 = z[4 + 4 * k:8 + 4 * k], z[12:16], z[16:20]
        out = list(f)
        for fi, (ns, n1, n2) in zip(f, dn):
            js, j1, j2 = (ns - fi * Hs) / H, (n1 - fi * f[0]) / H, (n2 - fi * f[1]) / H
            out += [js * u + j1 * v + j2 * w for u, v, w in zip(Ms, M1, M2)]
        return out
    return field


def tangent_flow(geo: Geometry, state: PhaseState, t: float, tol: float = 1e-11) -> np.ndarray:
    """The 4x4 state-transition matrix M of the flow over time t from state, M(0) = I."""
    z0 = np.concatenate([state.as_array(), np.eye(4).ravel()])
    _, z, _, status = ode.dop853(_on_floats(_variational(geo)), 0.0, z0, t, tol,
                                 dense_output=False)
    if status < 0:
        raise IntegratorError(f"variational integration failed: {ode.STEP_COLLAPSE}")
    return z[4:].reshape(4, 4)


def katok_monodromy_numeric(geo: Katok, E: float, orientation: str,
                            tol: float = 1e-11) -> np.ndarray:
    """Transverse monodromy of a deformed-sphere equator: the one-period
    ``tangent_flow`` restricted to the invariant (Theta, P_theta) plane."""
    state, T = canonical_orbit_state(geo, E, orientation)
    return tangent_flow(geo, state, T, tol)[np.ix_([0, 2], [0, 2])]


# ---------------------------------------------------------------------------
# phase-space volumes
# ---------------------------------------------------------------------------

def liouville_volume(geo: Geometry, E: float) -> float:
    """Liouville volume of the energy shell, Vol(X_E) = 2 pi E Area(M).

    Note the deformed sphere: the published display 8 pi^2 E holds only
    modulo eps^2; the exact area 4 pi/(1-eps^2) is used here (the Monte
    Carlo cross-check agrees with this value, not the display).
    """
    EnergyLevel.from_E(E)  # refuses E <= 1
    return TWO_PI * E * geo.area


@record
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
