"""Flow integration, orbit invariants, monodromy, holonomy, volumes."""

import math

import mpmath
import numpy as np
import pytest

from magtrace import (ChartError, EnergyLevel, Hyperbolic, IntegratorError, Katok,
                      ManeLevelError, PhaseState, ResonanceError, Sphere, Torus, ValidationError,
                      canonical_orbit_state, circle_distance, integrate,
                      katok_monodromy_numeric, liouville_volume, mc_liouville_volume,
                      numeric_holonomy)
from magtrace.dynamics import _on_floats, _variational, tangent_flow

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)
EPS5 = 1.0 / math.sqrt(5.0)
# the canonical one-period orbit of each geometry, at its benchmark energy
CANONICAL = [
    (Torus(), 2.0),
    (Sphere(0.5), SQRT2),
    (Hyperbolic(1.0, 2), 1.2),
    (Katok(EPS5), SQRT2),
]


# ---------------------------------------------------------------------------
# Hamiltonian and field
# ---------------------------------------------------------------------------

def test_hamiltonian_rest_states():
    for geo, q in ((Torus(), (0.3, 0.4)),
                   (Sphere(1.0), (1.0, 0.5)),
                   (Hyperbolic(1.0, 2), (0.1, 2.0)),
                   (Katok(0.3), (1.2, 0.0))):
        assert geo.hamiltonian(PhaseState(q=q, p=(0.0, 0.0)).as_array()) == 1.0


def test_hamiltonian_values():
    assert Torus().hamiltonian(np.array([0.0, 0.0, 1.0, 1.0])) == pytest.approx(
        math.sqrt(3.0), rel=1e-15)
    eps = 0.3
    p_phi = 1.0 / (1.0 - eps * eps)  # c = 1 at E = sqrt(2)
    st = PhaseState(q=(math.pi / 2.0, 0.0), p=(0.0, p_phi))
    assert Katok(eps).hamiltonian(st.as_array()) == pytest.approx(SQRT2, rel=1e-15)


@pytest.mark.parametrize("geo,E", CANONICAL, ids=lambda v: getattr(v, "kind", None))
def test_hamiltonian_is_the_flows_H_bit_for_bit(geo, E):
    # hamiltonian forms H from a and b alone; flow_terms forms it beside the field
    st, _ = canonical_orbit_state(geo, E)
    batch = st.as_array()[:, None] + np.random.default_rng(7).uniform(-0.05, 0.05, (4, 64))
    assert np.array_equal(geo.hamiltonian(batch), geo.flow_terms(batch)[0])
    for y in batch.T.tolist():
        assert type(geo.hamiltonian(y)) is float
        assert geo.hamiltonian(y) == geo.flow_terms(y)[0]


def test_chart_violations():
    with pytest.raises(ChartError):
        Sphere(1.0).check_state(np.array([0.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ChartError):
        Hyperbolic(1.0, 2).check_state(np.array([0.0, -1.0, 0.0, 0.0]))


def test_flow_rhs_torus_example():
    st = PhaseState(q=(0.0, 0.0), p=(math.sqrt(3.0), 0.0))
    dx, dy, dpx, dpy = Torus().flow(st.as_array())
    assert dx == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-15)
    assert dy == 0.0
    assert dpx == 0.0
    assert dpy == pytest.approx(-(TWO_PI / 2.0) * math.sqrt(3.0), rel=1e-15)


def test_flow_rhs_katok_equator():
    eps = 0.3
    for sign in (1.0, -1.0):
        st = PhaseState(q=(math.pi / 2.0, 0.1), p=(0.0, sign / (1.0 - eps * eps)))
        dth, dph, dpth, dpph = Katok(eps).flow(st.as_array())
        assert dth == 0.0
        assert dph == pytest.approx(sign * (1.0 / SQRT2) * (1.0 - eps * eps), rel=1e-14)
        assert abs(dpth) < 1e-15  # cos(pi/2) is machine-zero, not exact zero
        assert dpph == 0.0


def test_flow_rhs_sphere_chart_regularity():
    geo = Sphere(1.0)
    for th in np.linspace(0.1, math.pi - 0.1, 9):
        p_phi = 0.4 * math.sin(th)
        st = PhaseState(q=(float(th), 0.0), p=(0.3, p_phi))
        assert np.all(np.isfinite(geo.flow(st.as_array())))


def _float_path_states(geo, rng, n):
    """n seeded states (4, n) of geo: a quarter with momenta scaled up by 1e6
    to 1e88, and on the two spheres a quarter within 1e-2 of a pole margin."""
    margin = geo.pole_margin
    if margin is not None:
        q1 = rng.uniform(1e-3, math.pi - 1e-3, n)
        inside = margin + 10.0 ** rng.uniform(-15.0, -2.0, n // 4)
        q1[n // 4:n // 2] = np.where(rng.random(n // 4) < 0.5, inside, math.pi - inside)
    else:
        q1 = rng.uniform(-3.0, 3.0, n)
    q2 = (10.0 ** rng.uniform(-3.0, 3.0, n) if geo.kind == "hyperbolic"
          else rng.uniform(-4.0, 4.0, n))
    p = rng.standard_normal((2, n)) * 10.0 ** rng.uniform(-6.0, 6.0, (2, n))
    p[:, :n // 4] *= 10.0 ** rng.uniform(6.0, 88.0, (2, n // 4))
    return np.vstack([q1, q2, p])


def _orbit_states(geo, E, orientation):
    """The states a one-period run of the benchmark orbit passes through."""
    st, T = canonical_orbit_state(geo, E, orientation)
    res = integrate(geo, st, E, T, tol=1e-11)
    return res.sample(500)[1]


@pytest.mark.parametrize("geo,E", CANONICAL, ids=lambda v: getattr(v, "kind", None))
def test_float_path_equals_array_path_bit_for_bit(geo, E):
    # the integrator calls flow on four Python floats (math), the monitors on
    # arrays (numpy): they must agree in every bit, never within a tolerance
    states = [_float_path_states(geo, np.random.default_rng(20261019), 10_000),
              _orbit_states(geo, E, "+")]
    if geo.kind == "katok":
        states.append(_orbit_states(geo, E, "-"))
    for y in np.hstack(states).T:
        floats = y.tolist()
        H = geo.hamiltonian(floats)
        assert type(H) is float
        assert np.float64(H).tobytes() == geo.hamiltonian(y).tobytes(), floats
        assert geo.flow(floats).tobytes() == geo.flow(y).tobytes(), floats


def test_float_adapter_falls_back_to_the_array_path():
    # at the pole the float path divides by zero; the adapter then runs the
    # array path, which gives inf and nan with numpy's warnings, as before
    geo = Sphere(1.0)
    y = np.array([0.0, 0.3, 0.5, 0.2])
    with pytest.raises(ZeroDivisionError):
        geo.flow(y.tolist())
    with np.errstate(all="ignore"):
        want = geo.flow(y)
        got = _on_floats(geo.flow)(0.0, y)
    assert not np.all(np.isfinite(want))
    assert got.tobytes() == want.tobytes()
    with pytest.warns(RuntimeWarning):
        _on_floats(geo.flow)(0.0, y)


@pytest.mark.parametrize("geo,E", CANONICAL, ids=lambda v: getattr(v, "kind", None))
def test_tangent_field_matches_central_differences(geo, E):
    # the variational field's M' at M = I is Df; central differences of the
    # flow with steps h = 1e-6 agree with it to about h^2 times the third
    # derivative, far below 1e-8
    rng = np.random.default_rng(20261020)
    field = _variational(geo)
    n = 100  # theta in [0.3, pi - 0.3], y in [0.3, 3]
    states = np.vstack([rng.uniform(0.3, math.pi - 0.3, n), rng.uniform(0.3, 3.0, n),
                        rng.standard_normal((2, n))])
    for y in states.T:
        z = np.concatenate([y, np.eye(4).ravel()])
        out = np.array(field(z.tolist()))
        assert out[:4].tobytes() == geo.flow(y).tobytes()
        assert np.array(field(z)).tobytes() == out.tobytes()
        J = out[4:].reshape(4, 4)
        h = 1e-6 * np.maximum(1.0, np.abs(y))
        fd = np.array([(geo.flow(y + e) - geo.flow(y - e)) / (2.0 * e[j])
                       for j, e in enumerate(np.diag(h))]).T
        assert np.max(np.abs(J - fd)) <= 1e-8 * max(1.0, np.max(np.abs(J))), y


def test_integrate_off_shell_rejected():
    st = PhaseState(q=(0.0, 0.0), p=(1.0, 0.0))  # H = sqrt(2)
    with pytest.raises(ValidationError, match="off-shell"):
        integrate(Torus(), st, 3.0, 1.0)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_integrate_time_zero_is_identity():
    geo = Katok(EPS5)
    st, _ = canonical_orbit_state(geo, SQRT2, "+")
    res = integrate(geo, st, SQRT2, 0.0)
    assert res.final.q == st.q and res.final.p == st.p


def test_katok_equator_closes_after_one_period():
    geo = Katok(EPS5)
    for orientation, sign in (("+", 1.0), ("-", -1.0)):
        st, T = canonical_orbit_state(geo, SQRT2, orientation)
        assert T == pytest.approx(TWO_PI * SQRT2 / (1.0 - EPS5**2), rel=1e-15)
        res = integrate(geo, st, SQRT2, T, tol=1e-11)
        y0, y1 = st.as_array(), res.final.as_array()
        gap = max(abs(y1[0] - y0[0]), abs(y1[1] - y0[1] - sign * TWO_PI),
                  abs(y1[2] - y0[2]), abs(y1[3] - y0[3]))
        assert gap < 1e-8
        assert res.energy_drift < 1e-9
        assert res.first_integral_drift < 1e-9


def test_hyperbolic_orbit_stays_on_circle():
    geo = Hyperbolic(1.0, 2)
    E = 1.2
    st, T = canonical_orbit_state(geo, E, "+")
    res = integrate(geo, st, E, T, tol=1e-11)
    c = math.sqrt(E * E - 1.0)
    r = math.atanh(c * geo.R)
    center_y, radius = math.cosh(r), math.sinh(r)  # Euclidean data of the circle
    _, ys = res.sample(400)
    dist = np.hypot(ys[0], ys[1] - center_y)
    assert np.max(np.abs(dist - radius)) < 1e-7
    gap = np.max(np.abs(res.final.as_array() - st.as_array()))
    assert gap < 1e-8


def test_torus_and_sphere_orbits_close():
    for geo, E in ((Torus(), 2.0), (Sphere(0.5), SQRT2)):
        st, T = canonical_orbit_state(geo, E, "+")
        res = integrate(geo, st, E, T, tol=1e-11)
        y0, y1 = st.as_array(), res.final.as_array()
        dq = y1[:2] - y0[:2]
        if geo.kind == "sphere":
            dq[1] -= TWO_PI * round(dq[1] / TWO_PI)
        gap = max(np.max(np.abs(dq)), np.max(np.abs(y1[2:] - y0[2:])))
        assert gap < 1e-8
        assert res.energy_drift < 1e-9


def test_sphere_path_crossing_the_pole_margin_is_refused():
    geo = Sphere(1.0)
    # aim straight at the north pole: the path crosses theta = 0.1, and the
    # run keeps to one chart
    st = PhaseState(q=(0.8, 0.3), p=(-1.7, 0.0))
    E = geo.hamiltonian(st.as_array())
    with pytest.raises(IntegratorError, match="pole"):
        integrate(geo, st, E, 4.0, tol=1e-10)


@pytest.mark.parametrize("t", [20.0, 200.0, 1000.0])
def test_sphere_dip_across_the_margin_between_steps_is_refused(t):
    # this path dips to theta = 0.09996 below the margin 0.1 inside steps
    # whose ends all lie above it (the lowest end is at 0.10004), so neither
    # the step ends nor fixed samples see the crossing; the step's theta
    # polynomial does
    geo = Sphere(1.0)
    st = PhaseState(q=(0.6, 0.0), p=(-0.8, -0.005))
    E = float(geo.hamiltonian(st.as_array()))
    with pytest.raises(IntegratorError, match="crossed theta = 0.1"):
        integrate(geo, st, E, t)


def test_sphere_latitude_circle_inside_the_pole_margin_runs():
    # at E = 1.0013 the latitude circle sits at theta0 = 0.051, inside the
    # margin 0.1: a path wholly inside a margin crosses none
    geo, E = Sphere(0.5), 1.0013
    st, T = canonical_orbit_state(geo, E)
    assert st.q[0] < geo.pole_margin
    res = integrate(geo, st, E, 3.0 * T, tol=1e-11)
    _, ys = res.sample(400)
    assert np.max(np.abs(ys[0] - st.q[0])) < 1e-8
    assert res.energy_drift < 1e-9


@pytest.mark.parametrize("geo,E", CANONICAL)
def test_sample_matches_per_point(geo, E):
    st, T = canonical_orbit_state(geo, E, "+")
    res = integrate(geo, st, E, T, tol=1e-11)
    (seg,) = res.segments
    n = 401
    ts, ys = res.sample(n)
    # per-point reference: one dense-output call per time
    assert np.array_equal(ts, np.linspace(0.0, T, n))
    assert np.array_equal(ys, np.array([seg.sol(t) for t in ts]).T)


@pytest.mark.parametrize("geo,E", CANONICAL)
def test_drift_monitors_match_per_point(geo, E):
    st, T = canonical_orbit_state(geo, E, "+")
    res = integrate(geo, st, E, T, tol=1e-11)
    katok = geo.kind == "katok"
    P0 = geo.first_integral(st.as_array())
    drift, fdrift = 0.0, 0.0
    for seg in res.segments:
        for t in np.linspace(seg.t0, seg.t1, max(2, int(256 * (seg.t1 - seg.t0) / T))):
            y = seg.sol(t)
            drift = max(drift, abs(geo.hamiltonian(y) - E))
            if katok:
                fdrift = max(fdrift, abs(geo.first_integral(y) - P0))
    assert res.energy_drift == drift
    assert res.first_integral_drift == (fdrift if katok else None)


@pytest.mark.parametrize("geo,E", CANONICAL)
def test_holonomy_matches_per_point(geo, E):
    st, T = canonical_orbit_state(geo, E, "+")
    res = integrate(geo, st, E, T, tol=1e-11)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    terms = []
    for seg in res.segments:
        edges = np.linspace(seg.t0, seg.t1, max(64, math.ceil(8.0 * (seg.t1 - seg.t0))) + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            m, h = 0.5 * (a + b), 0.5 * (b - a)
            vals = np.array([geo.connection(seg.sol(t))
                             for t in m + h * nodes])
            terms.append(h * float(np.dot(weights, vals)))
    assert numeric_holonomy(geo, res) == math.fsum(terms)


def test_katok_pole_guard():
    geo = Katok(0.3)
    # P = 0 polar-ish orbit heads into the pole region
    th0 = 0.6
    s2 = math.sin(th0) ** 2
    D = 1.0 - 0.09 * s2
    p_phi = -0.3 * s2 / D  # makes the first integral vanish
    st = PhaseState(q=(th0, 0.0), p=(-2.0, p_phi))
    E = geo.hamiltonian(st.as_array())
    with pytest.raises(IntegratorError):
        integrate(geo, st, E, 6.0, tol=1e-9)


# ---------------------------------------------------------------------------
# closed-orbit invariants and holonomy
# ---------------------------------------------------------------------------

def test_torus_invariants_closed_forms():
    out = Torus().closed_orbits(3.0, math.sqrt(8.0))
    (o,) = out.orbits
    assert o.S == pytest.approx(4.0, rel=1e-14)
    assert o.T == pytest.approx(3.0, rel=1e-15)
    assert o.L == pytest.approx(2.0 * SQRT2, rel=1e-14)
    assert o.maslov == 4
    assert o.detIminusP == 0.0


def test_sphere_invariants_closed_forms():
    lev = EnergyLevel.from_E(SQRT2)
    out = Sphere(0.5).closed_orbits(lev.E, lev.c)
    (o,) = out.orbits
    assert o.S == pytest.approx(-math.pi + math.pi * SQRT2, abs=1e-13)
    assert o.maslov is None and "no stated index" in o.maslov_note


def test_hyperbolic_invariants_and_trichotomy():
    E = math.sqrt(1.25)  # c = 1/2 at R = 1
    out = Hyperbolic(1.0, 2).closed_orbits(E, math.sqrt(E * E - 1.0))
    (o,) = out.orbits
    assert o.S == pytest.approx(TWO_PI * (1.0 - math.sqrt(3.0) / 2.0), abs=1e-13)
    assert o.L == pytest.approx(TWO_PI * 0.5 / math.sqrt(0.75), rel=1e-13)
    # at and above the Mane level: no closed orbits, reported not raised
    for E_hi in (SQRT2, 1.8):
        res = Hyperbolic(1.0, 2).closed_orbits(E_hi, math.sqrt(E_hi * E_hi - 1.0))
        assert not res.has_orbits
        assert "no periodic trajectories" in res.note


def _circle_reference(geo, E) -> dict:
    """T, L, hol and S of the circle family by each surface's own closed form,
    at 40 digits: the torus at B = 2pi, the sphere at B = 1/2 with
    w = sqrt(c^2 + B^2/R^2), the hyperbolic surface at B = 1 with
    r = sqrt(1 - c^2 R^2)."""
    with mpmath.workdps(40):
        E = mpmath.mpf(E)
        c, tp = mpmath.sqrt(E * E - 1), 2 * mpmath.pi
        if geo.kind == "torus":
            T, L, hol = E, c, -(E * E - 1) / 2
        elif geo.kind == "sphere":
            B, R = mpmath.mpf(0.5), mpmath.mpf(geo.R)
            w = mpmath.sqrt(c * c + B * B / (R * R))
            T, L, hol = tp * E * R / w, tp * c * R / w, -tp * B * (1 - (B / R) / w)
        else:
            R = mpmath.mpf(geo.R)
            r = mpmath.sqrt(1 - c * c * R * R)
            T, L, hol = tp * E * R * R / r, tp * c * R * R / r, -tp * (1 / r - 1)
        return {"T": T, "L": L, "hol": hol, "S": L * c + hol}


@pytest.mark.parametrize("geo,Es", [
    (Torus(), (1.1, 2.0, 3.0, 10.0)),
    (Sphere(0.5), (1.05, SQRT2, 2.5, 7.0)),
    (Sphere(1.3), (1.05, SQRT2, 2.5, 7.0)),
    (Hyperbolic(1.0, 2), (1.05, 1.2, 1.3, 1.4)),
    (Hyperbolic(0.7, 3), (1.1, 1.3, 1.6, 1.7)),
], ids=lambda v: getattr(v, "kind", None))
def test_circle_family_matches_each_surfaces_closed_form(geo, Es):
    # the one formula of ConstantCurvature against the per-surface ones at 40
    # digits: within 10 ulps of the reference (8.2 at most, L on the
    # hyperbolic R = 0.7 at E = 1.7, where Q^2 = b^2 (1 - 0.93) cancels)
    for E in Es:
        (o,) = geo.closed_orbits(E, EnergyLevel.from_E(E).c).orbits
        ref = _circle_reference(geo, E)
        for key, want in ref.items():
            got = getattr(o, key)
            assert abs(got - want) <= 10 * math.ulp(float(want)), (E, key, got, float(want))
        assert o.T == geo.k_frequency(E)  # the frequency the k-sum is evaluated at


@pytest.mark.parametrize("R", [1.0, 0.7, 0.9741785401533375])
def test_no_hyperbolic_orbit_exactly_where_check_energy_refuses(R):
    # one Mane test: closed_orbits notes "no periodic trajectories" at each E
    # check_energy refuses, and below it gives an orbit or refuses an energy
    # whose Q^2/b^2 rounds to 0
    geo = Hyperbolic(R, 2)
    m = geo.mane_E
    for E in (m, math.nextafter(m, 2.0), m + 1e-9, math.nextafter(m, 1.0), m - 1e-6, 1.01):
        try:
            geo.check_energy(E)
            refused = False
        except ManeLevelError:
            refused = True
        try:
            out = geo.closed_orbits(E, EnergyLevel.from_E(E).c)
        except ValidationError as exc:
            assert not refused and "needs a finite positive Q^2" in str(exc)
            continue
        assert out.has_orbits is not refused
        assert refused is ("no periodic trajectories" in (out.note or ""))
    with pytest.raises(ValidationError, match="no periodic trajectories"):
        canonical_orbit_state(geo, math.nextafter(m, 2.0))


def test_katok_invariants_closed_forms():
    eps = 0.3
    lev = EnergyLevel.from_E(SQRT2)
    out = Katok(eps).closed_orbits(lev.E, lev.c)
    by_label = {o.orientation: o for o in out.orbits}
    for label, branch in (("+", 1.0), ("-", -1.0)):
        o = by_label[label]
        assert o.L == pytest.approx(TWO_PI / (1.0 - eps * eps), rel=1e-14)
        assert o.T == pytest.approx(TWO_PI * SQRT2 / (1.0 - eps * eps), rel=1e-14)
        assert o.hol == pytest.approx(branch * TWO_PI * eps / (1.0 - eps * eps),
                                      rel=1e-14)
        assert o.S == pytest.approx(TWO_PI / (1.0 - branch * eps), rel=1e-13)
    assert by_label["+"].maslov == 7  # 2 floor(2/0.7) + 3
    assert by_label["-"].maslov == 5


@pytest.mark.parametrize("geo,E", [
    (Torus(), 2.0),
    (Sphere(0.5), SQRT2),
    (Hyperbolic(1.0, 2), math.sqrt(1.25)),
    (Katok(0.3), SQRT2),
])
def test_holonomy_and_action_identity(geo, E):
    orientation = "+"
    st, T = canonical_orbit_state(geo, E, orientation)
    res = integrate(geo, st, E, T, tol=1e-12)
    hol = numeric_holonomy(geo, res)
    inv = geo.closed_orbits(E, math.sqrt(E * E - 1.0)).pick(orientation)
    assert hol == pytest.approx(inv.hol, abs=1e-6)
    c = math.sqrt(E * E - 1.0)
    assert circle_distance(inv.S, inv.L * c + hol) < 1e-8


def test_holonomy_closed_form_values():
    # torus at E = 2: -(pi/2pi)(E^2-1) = -3/2
    st, T = canonical_orbit_state(Torus(), 2.0, "+")
    res = integrate(Torus(), st, 2.0, T, tol=1e-12)
    assert numeric_holonomy(Torus(), res) == pytest.approx(-1.5, abs=1e-6)
    # deformed sphere at eps = 0.3, "+": +2 pi eps/(1-eps^2)
    geo = Katok(0.3)
    st, T = canonical_orbit_state(geo, SQRT2, "+")
    res = integrate(geo, st, SQRT2, T, tol=1e-12)
    expect = TWO_PI * 0.3 / (1.0 - 0.09)
    assert numeric_holonomy(geo, res) == pytest.approx(expect, abs=1e-6)


def test_holonomy_open_path_rejected():
    geo = Katok(0.3)
    st, T = canonical_orbit_state(geo, SQRT2, "+")
    res = integrate(geo, st, SQRT2, 0.5 * T, tol=1e-11)
    with pytest.raises(ValidationError):
        numeric_holonomy(geo, res)


def test_holonomy_rejects_path_leaving_upper_hemisphere():
    # the canonical latitude circle theta = pi/4 run with p_phi negated is the
    # same-size circle turning the other way, about a point of the equator:
    # it spans theta in [pi/4, 3pi/4] and crosses no pole margin
    geo = Sphere(0.5)
    st, T = canonical_orbit_state(geo, SQRT2)
    res = integrate(geo, PhaseState(q=st.q, p=(st.p[0], -st.p[1])), SQRT2, T, tol=1e-11)
    _, ys = res.sample(400)
    assert ys[0].min() < math.pi / 4.0 + 1e-3 and ys[0].max() > 3.0 * math.pi / 4.0 - 1e-3
    with pytest.raises(ValidationError, match="upper hemisphere"):
        numeric_holonomy(geo, res)


def test_holonomy_zero_length_path():
    geo = Katok(0.3)
    st, _ = canonical_orbit_state(geo, SQRT2, "+")
    res = integrate(geo, st, SQRT2, 0.0)
    assert numeric_holonomy(geo, res) == 0.0


# ---------------------------------------------------------------------------
# monodromy and Maslov machinery
# ---------------------------------------------------------------------------

def test_hyperbolic_general_radius_orbit():
    # closure after T = 2 pi E R^2/sqrt(1-c^2 R^2) checks the R^2 factor
    # that the published prose drops (it quotes the R = 1 values)
    for R, E in ((2.0, 1.1), (0.5, SQRT2)):
        geo = Hyperbolic(R, 2)
        st, T = canonical_orbit_state(geo, E, "+")
        res = integrate(geo, st, E, T, tol=1e-12)
        gap = np.max(np.abs(res.final.as_array() - st.as_array()))
        assert gap < 1e-8
        hol = numeric_holonomy(geo, res)
        (inv,) = geo.closed_orbits(E, math.sqrt(E * E - 1.0)).orbits
        c = math.sqrt(E * E - 1.0)
        assert hol == pytest.approx(inv.hol, abs=1e-6)
        assert circle_distance(inv.S, inv.L * c + hol) < 1e-8


def test_katok_general_energy_orbit():
    # orbit data away from E = sqrt(2): period, return map and action
    # identity all follow the general-E formulas
    eps, E = 0.3, 1.8
    geo = Katok(eps)
    c = math.sqrt(E * E - 1.0)
    for orientation, sign in (("+", 1), ("-", -1)):
        st, T = canonical_orbit_state(geo, E, orientation)
        assert T == pytest.approx(TWO_PI * E / ((1.0 - eps * eps) * c), rel=1e-15)
        res = integrate(geo, st, E, T, tol=1e-11)
        y0, y1 = st.as_array(), res.final.as_array()
        gap = max(abs(y1[0] - y0[0]), abs(y1[1] - y0[1] - sign * TWO_PI),
                  abs(y1[2] - y0[2]), abs(y1[3] - y0[3]))
        assert gap < 1e-8
        num = katok_monodromy_numeric(geo, E, orientation, tol=1e-11)
        ana = geo.return_map(E, sign)
        assert np.max(np.abs(num - ana.matrix)) < 1e-6
        hol = numeric_holonomy(geo, res)
        inv = next(o for o in geo.closed_orbits(E, math.sqrt(E * E - 1.0)).orbits
                   if o.orientation == orientation)
        assert inv.maslov is None and "sqrt(2)" in inv.maslov_note
        assert circle_distance(inv.S, inv.L * c + hol) < 1e-8


def test_poincare_analytic_values():
    ana = Katok(0.3).return_map(SQRT2, +1)
    assert ana.alpha == pytest.approx(TWO_PI / 0.7, rel=1e-14)
    assert ana.a == pytest.approx(1.3, rel=1e-14)  # sqrt((1+eps)^2) at E=sqrt2
    assert ana.det_i_minus_p == pytest.approx(4.0 * math.sin(math.pi / 0.7) ** 2,
                                              rel=1e-13)
    ana_m = Katok(0.3).return_map(SQRT2, -1)
    assert ana_m.alpha == pytest.approx(TWO_PI / 1.3, rel=1e-14)
    assert ana_m.a == pytest.approx(0.7, rel=1e-13)


def test_monodromy_numeric_matches_analytic():
    geo = Katok(EPS5)
    for orientation, branch in (("+", 1), ("-", -1)):
        num = katok_monodromy_numeric(geo, SQRT2, orientation, tol=1e-11)
        ana = geo.return_map(SQRT2, branch)
        assert np.max(np.abs(num - ana.matrix)) < 1e-6
        assert abs(np.linalg.det(num) - 1.0) < 1e-9
        det_num = float(np.linalg.det(np.eye(2) - num))
        assert abs(det_num - ana.det_i_minus_p) < 1e-8


@pytest.mark.parametrize("geo,E", CANONICAL[:3], ids=lambda v: getattr(v, "kind", None))
def test_one_period_tangent_flow_fixes_the_energy_shell(geo, E):
    # every orbit at energy E closes after the same period T, so the period
    # map is the identity on the energy shell and M v = v for every v with
    # dH v = 0; the variational run meets that to 1e-8 (2.6e-11, 1.8e-11 and
    # 1.4e-9 on the torus, the sphere and the hyperbolic surface)
    st, T = canonical_orbit_state(geo, E)
    M = tangent_flow(geo, st, T, tol=1e-11)
    y = st.as_array()
    dH = [(geo.hamiltonian(y + e) - geo.hamiltonian(y - e)) / 2e-7 for e in np.eye(4) * 1e-7]
    shell = np.linalg.svd(np.array([dH]))[2][1:].T  # an orthonormal basis of dH v = 0
    assert np.max(np.abs(M @ shell - shell)) < 1e-8
    assert abs(np.linalg.det(M) - 1.0) < 1e-9  # the flow preserves volume


def test_monodromy_small_deformation_limit():
    # eps -> 0: the return map approaches the round-sphere rotation
    eps = 1e-4
    geo = Katok(eps)
    for orientation, branch in (("+", 1), ("-", -1)):
        num = katok_monodromy_numeric(geo, SQRT2, orientation, tol=1e-11)
        ana = geo.return_map(SQRT2, branch)
        assert np.max(np.abs(num - ana.matrix)) < 1e-6
        assert ana.alpha == pytest.approx(TWO_PI, rel=2.5 * eps)


def test_maslov_resonance_guard():
    with pytest.raises(ResonanceError, match="lattice distance 0.000e"):
        Katok(0.5).check_resonance(1, +1, 1e-6)  # 2/(1-eps) = 4 on the lattice


def test_metric_areas_and_volumes():
    assert liouville_volume(Torus(), 2.0) == pytest.approx(
        4.0 * math.pi, rel=1e-15)
    assert liouville_volume(Sphere(0.5), SQRT2) == pytest.approx(
        2.0 * math.pi**2 * SQRT2, rel=1e-14)
    assert liouville_volume(Hyperbolic(1.0, 2), 1.2) == pytest.approx(
        TWO_PI**2 * 2.0 * 1.2, rel=1e-14)
    # deformed sphere: exact area 4 pi/(1-eps^2)
    eps = EPS5
    geo = Katok(eps)
    assert geo.area == pytest.approx(4.0 * math.pi / (1.0 - eps * eps),
                                             rel=1e-14)
    vol = liouville_volume(geo, SQRT2)
    assert vol / TWO_PI**2 == pytest.approx(2.0 * SQRT2 / (1.0 - eps * eps),
                                            rel=1e-14)


def test_katok_area_integral_oracle():
    from scipy.integrate import quad
    eps = 0.37
    val, _ = quad(lambda th: math.sin(th) / (1.0 - eps**2 * math.sin(th) ** 2) ** 1.5,
                  0.0, math.pi, epsabs=1e-13)
    assert TWO_PI * val == pytest.approx(Katok(eps).area,
                                         rel=1e-11)


def test_mc_volume_cross_check():
    for geo, E in ((Sphere(0.5), SQRT2),
                   (Katok(EPS5), SQRT2),
                   (Torus(), 2.0)):
        mc = mc_liouville_volume(geo, E, n_samples=200_000, seed=0)
        assert mc.rel_dev < 0.01
    hyp = mc_liouville_volume(Hyperbolic(1.0, 2), 1.2)
    assert hyp.estimate is None and hyp.note


def test_mc_volume_deterministic_under_seed():
    a = mc_liouville_volume(Katok(0.3), SQRT2, 50_000, seed=3)
    b = mc_liouville_volume(Katok(0.3), SQRT2, 50_000, seed=3)
    assert a.estimate == b.estimate
