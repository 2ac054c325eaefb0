"""The in-package DOP853 integrator against SciPy's, bit for bit.

``magtrace.ode`` repeats the arithmetic of ``solve_ivp(method="DOP853")``
operation for operation, so every comparison here is exact
(``np.array_equal`` or ``==``), never a tolerance.  SciPy is imported only
inside the tests: the package itself must not need it.
"""

import math

import numpy as np
import pytest

from magtrace import ode
from magtrace.dynamics import (_katok_jacobian, canonical_orbit_state, integrate,
                               katok_monodromy_numeric)
from magtrace.geometry import Hyperbolic, Katok, PhaseState, Sphere, Torus

pytest.importorskip("scipy")

SQRT2 = math.sqrt(2.0)
EPS_K = 1.0 / math.sqrt(5.0)
TOL = 1e-11
ORBITS = [
    (Torus(), 2.0, "+"),
    (Sphere(0.5), SQRT2, "+"),
    (Hyperbolic(1.0, 2), 1.2, "+"),
    (Katok(EPS_K), SQRT2, "+"),
    (Katok(EPS_K), SQRT2, "-"),
]


def _solve_ivp(fun, t1, y0, tol, **kwargs):
    from scipy.integrate import solve_ivp
    return solve_ivp(fun, (0.0, t1), y0, method="DOP853", rtol=tol, atol=tol, **kwargs)


def _pole_guards(margin):
    guards = (lambda tt, y: y[0] - margin, lambda tt, y: y[0] - (math.pi - margin))
    for g in guards:
        g.terminal = True
    return guards


def test_tableau_matches_scipy():
    from scipy.integrate._ivp import dop853_coefficients as ref
    for name in ("A", "B", "C", "E3", "E5", "D"):
        assert np.array_equal(getattr(ode, name), getattr(ref, name)), name


@pytest.mark.parametrize("periods", [1, 8])
@pytest.mark.parametrize("geo,E,orientation", ORBITS,
                         ids=lambda v: getattr(v, "kind", None))
def test_canonical_orbits_bit_identical(geo, E, orientation, periods):
    state, T = canonical_orbit_state(geo, E, orientation)

    def fun(tt, y):
        return geo.flow(y)

    ref = _solve_ivp(fun, periods * T, state.as_array(), TOL, dense_output=True)
    t_end, y_end, sol, status = ode.dop853(fun, 0.0, state.as_array(), periods * T, TOL)
    assert status == ref.status == 0
    assert np.array_equal(sol.ts, ref.t)
    assert len(sol.interpolants) == len(ref.sol.interpolants)
    assert t_end == ref.t[-1]
    assert np.array_equal(y_end, ref.y[:, -1])
    ts = np.linspace(0.0, periods * T, 3001)
    # shuffled times exercise the sort, the grouping by step and the restore
    shuffled = np.random.default_rng(5).permutation(ts)
    assert np.array_equal(sol(shuffled), ref.sol(shuffled))
    assert np.array_equal(sol(ts), ref.sol(ts))
    for t in ts[::10]:
        assert np.array_equal(sol(t), ref.sol(t))


def test_sphere_pole_guard_bit_identical():
    # an off-equator start that runs into the pole guard of chart z
    geo = Sphere(1.0)
    state = PhaseState(q=(0.8, 0.3), p=(-1.7, 0.0), chart="z")

    def fun(tt, y):
        return geo.flow(y)

    guards = _pole_guards(geo.pole_margin)
    ref = _solve_ivp(fun, 4.0, state.as_array(), 1e-10, dense_output=True, events=guards)
    t_end, y_end, sol, status = ode.dop853(fun, 0.0, state.as_array(), 4.0, 1e-10, guards)
    assert status == ref.status == 1
    assert t_end == ref.t[-1] == ref.t_events[0][0]
    assert np.array_equal(y_end, ref.y[:, -1])
    assert np.array_equal(sol.ts, ref.t)
    ts = np.linspace(0.0, t_end, 501)
    assert np.array_equal(sol(ts), ref.sol(ts))
    # integrate switches charts at that very state
    flow = integrate(geo, state, geo.hamiltonian(state.as_array()), 4.0, tol=1e-10)
    assert flow.segments[0].t1 == t_end
    assert np.array_equal(flow.segments[0].sol(t_end), y_end)


def test_katok_pole_guard_matches_scipy_event():
    geo = Katok(0.3)
    s2 = math.sin(0.6) ** 2
    state = PhaseState(q=(0.6, 0.0), p=(-2.0, -0.3 * s2 / (1.0 - 0.09 * s2)))

    def fun(tt, y):
        return geo.flow(y)

    guards = _pole_guards(geo.pole_margin)
    ref = _solve_ivp(fun, 6.0, state.as_array(), 1e-9, dense_output=True, events=guards)
    t_end, y_end, sol, status = ode.dop853(fun, 0.0, state.as_array(), 6.0, 1e-9, guards)
    assert status == ref.status == 1
    assert t_end == ref.t[-1]
    assert np.array_equal(y_end, ref.y[:, -1])


@pytest.mark.parametrize("orientation", ["+", "-"])
def test_katok_variational_bit_identical(orientation):
    geo = Katok(EPS_K)
    state, T = canonical_orbit_state(geo, SQRT2, orientation)

    def rhs(tt, z):
        y, M = z[:4], z[4:].reshape(4, 4)
        return np.concatenate([geo.flow(y), (_katok_jacobian(EPS_K, SQRT2, y) @ M).ravel()])

    z0 = np.concatenate([state.as_array(), np.eye(4).ravel()])
    ref = _solve_ivp(rhs, T, z0, TOL)
    t_end, y_end, sol, status = ode.dop853(rhs, 0.0, z0, T, TOL, dense_output=False)
    assert sol is None
    assert t_end == ref.t[-1]
    assert np.array_equal(y_end, ref.y[:, -1])
    block = ref.y[4:, -1].reshape(4, 4)[np.ix_([0, 2], [0, 2])]
    assert np.array_equal(katok_monodromy_numeric(EPS_K, SQRT2, orientation), block)


@pytest.mark.parametrize("f,a,b", [
    (math.cos, 0.0, 3.0),
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.exp(x) - 2.0, -1.0, 4.0),
    (lambda x: math.atan(x - 0.3), -10.0, 50.0),
    (lambda x: x * x - 2.0, 0.0, 3.0),
    (lambda x: math.tanh(40.0 * (x - 0.7)), -2.0, 5.0),
    (lambda x: x, -1.0, 0.0),
])
def test_brentq_matches_scipy(f, a, b):
    from scipy.optimize import brentq
    tol = 4.0 * np.finfo(float).eps
    assert ode.brentq(f, a, b) == brentq(f, a, b, xtol=tol, rtol=tol)


def test_brentq_fails_where_scipy_fails():
    from scipy.optimize import brentq
    tol = 4.0 * np.finfo(float).eps
    with pytest.raises(ValueError):
        ode.brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    # the flat fifth-order root exhausts 100 iterations in both
    with pytest.raises(RuntimeError):
        brentq(lambda x: (x - 1.0) ** 5, 0.0, 1.7, xtol=tol, rtol=tol)
    with pytest.raises(RuntimeError):
        ode.brentq(lambda x: (x - 1.0) ** 5, 0.0, 1.7)


def test_step_size_collapse_matches_scipy():
    # y' = y^2 blows up at t = 1; the steps shrink until they cannot
    def fun(tt, y):
        return y * y

    ref = _solve_ivp(fun, 2.0, np.array([1.0]), 1e-9)
    t_end, y_end, sol, status = ode.dop853(fun, 0.0, np.array([1.0]), 2.0, 1e-9)
    assert status == ref.status == -1
    assert ref.message == ode.STEP_COLLAPSE
    assert t_end == ref.t[-1]
    assert np.array_equal(y_end, ref.y[:, -1])
