"""The in-package DOP853 integrator against SciPy's, bit for bit.

``magtrace.ode`` repeats the arithmetic of ``solve_ivp(method="DOP853")``
operation for operation, so every comparison here is exact
(``np.array_equal`` or ``==``), never a tolerance.  ``ode.dop853`` takes the
flow field on a list of Python floats, SciPy the right-hand side
``fun(t, y)`` on arrays.  SciPy is imported only inside the tests: the
package itself must not need it.
"""

import math

import numpy as np
import pytest

from magtrace import ode
from magtrace.dynamics import (_variational, canonical_orbit_state, katok_monodromy_numeric,
                               tangent_flow)
from magtrace.geometry import Hyperbolic, Sphere, Torus
from magtrace.katok import Katok

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


def test_tableau_matches_scipy():
    from scipy.integrate._ivp import dop853_coefficients as ref
    for name in ("A", "B", "E3", "E5", "D"):
        assert np.array_equal(getattr(ode, name), getattr(ref, name)), name


@pytest.mark.parametrize("periods", [1, 8])
@pytest.mark.parametrize("geo,E,orientation", ORBITS,
                         ids=lambda v: getattr(v, "kind", None))
def test_canonical_orbits_bit_identical(geo, E, orientation, periods):
    state, T = canonical_orbit_state(geo, E, orientation)
    ref = _solve_ivp(lambda tt, y: geo.flow(y), periods * T, state, TOL,
                     dense_output=True)
    t_end, y_end, sol, status = ode.dop853(geo.flow, 0.0, state, periods * T, TOL)
    assert status == ref.status == 0
    assert np.array_equal(sol.ts, ref.t)
    assert len(sol.interpolants) == len(ref.sol.interpolants)
    assert t_end == ref.t[-1]
    assert np.array_equal(y_end, ref.y[:, -1])
    ts = np.linspace(0.0, periods * T, 3001)
    # unsorted times: each is evaluated on its own step, wherever it stands
    shuffled = np.random.default_rng(5).permutation(ts)
    assert np.array_equal(sol(shuffled), ref.sol(shuffled))
    assert np.array_equal(sol(ts), ref.sol(ts))
    for t in ts[::10]:
        assert np.array_equal(sol(t), ref.sol(t))


@pytest.mark.parametrize("periods", [1, 8])
@pytest.mark.parametrize("geo,E,orientation", ORBITS,
                         ids=lambda v: getattr(v, "kind", None))
def test_float_rhs_matches_scipy_on_arrays(geo, E, orientation, periods):
    # dynamics hands dop853 the flow's tuple of Python floats; SciPy gets the
    # flow on arrays
    state, T = canonical_orbit_state(geo, E, orientation)
    ref = _solve_ivp(lambda tt, y: geo.flow(y), periods * T, state, TOL,
                     dense_output=True)
    t_end, y_end, sol, status = ode.dop853(lambda y: geo.flow_terms(y)[1], 0.0,
                                           state, periods * T, TOL)
    assert status == ref.status == 0
    assert np.array_equal(sol.ts, ref.t)
    assert t_end == ref.t[-1]
    assert np.array_equal(y_end, ref.y[:, -1])
    ts = np.linspace(0.0, periods * T, 3001)
    assert np.array_equal(sol(ts), ref.sol(ts))


def test_l2_is_numpy_norm():
    rng = np.random.default_rng(20261019)
    for n in range(1, 41):
        for _ in range(50):
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-150.0, 150.0, n)
            got, want = ode._l2(x), np.linalg.norm(x)
            assert type(got) is type(want)
            assert got.tobytes() == want.tobytes()


def _variational_run_matches_scipy(geo, E, orientation):
    """The variational system run on arrays by SciPy, and by ``dop853``, as
    ``tangent_flow`` runs it, on Python floats: the same steps and the same
    final z, bit for bit.  Returns SciPy's final M."""
    state, T = canonical_orbit_state(geo, E, orientation)
    field = _variational(geo)
    z0 = np.concatenate([state, np.eye(4).ravel()])
    ref = _solve_ivp(lambda tt, z: np.array(field(z)), T, z0, TOL)
    t_end, y_end, sol, status = ode.dop853(field, 0.0, z0, T, TOL, dense_output=False)
    assert sol is None
    assert t_end == ref.t[-1]
    assert np.array_equal(y_end, ref.y[:, -1])
    M = ref.y[4:, -1].reshape(4, 4)
    assert np.array_equal(tangent_flow(geo, state, T, TOL), M)
    return M


@pytest.mark.parametrize("orientation", ["+", "-"])
def test_katok_variational_bit_identical(orientation):
    geo = Katok(EPS_K)
    M = _variational_run_matches_scipy(geo, SQRT2, orientation)
    block = M[np.ix_([0, 2], [0, 2])]
    assert np.array_equal(katok_monodromy_numeric(geo, SQRT2, orientation), block)


@pytest.mark.parametrize("geo,E,orientation", ORBITS[:3],
                         ids=lambda v: getattr(v, "kind", None))
def test_ladder_variational_bit_identical(geo, E, orientation):
    _variational_run_matches_scipy(geo, E, orientation)


@pytest.mark.parametrize("geo,E,orientation", ORBITS[1::2],
                         ids=lambda v: getattr(v, "kind", None))
def test_bernstein_rows_bound_the_dense_output(geo, E, orientation):
    # each step's hull holds its dense values, and its end coefficients are
    # the values at the step's ends
    state, T = canonical_orbit_state(geo, E, orientation)
    _, _, sol, _ = ode.dop853(geo.flow, 0.0, state, T, TOL)
    for i in range(4):
        b = sol.bernstein(i)
        assert b.shape == (len(sol.interpolants), 8)
        assert np.array_equal(b[:, 0], sol._y_old[:, i])
        ends = sol(sol.ts[1:])[i]
        assert np.allclose(b[:, -1], ends, rtol=0.0, atol=1e-15 * max(1.0, np.max(np.abs(ends))))
        x = np.linspace(0.0, 1.0, 33)
        t = sol.ts[:-1, None] + x * sol._h[:, None]
        vals = sol(t.ravel())[i].reshape(t.shape)
        slack = 1e-14 * max(1.0, np.max(np.abs(b)))
        assert np.all(vals >= b.min(axis=1)[:, None] - slack)
        assert np.all(vals <= b.max(axis=1)[:, None] + slack)


def test_step_budget_ends_a_run_past_it(monkeypatch):
    # a run of n steps ends under a budget of n, and stops short, with no
    # dense output, under a budget of n - 1
    geo, E, orientation = ORBITS[2]
    state, T = canonical_orbit_state(geo, E, orientation)

    def run():
        return ode.dop853(geo.flow, 0.0, state, T, TOL)
    steps = len(run()[2].interpolants)
    monkeypatch.setattr(ode, "MAX_STEPS", steps)
    assert run()[3] == 0
    monkeypatch.setattr(ode, "MAX_STEPS", steps - 1)
    t_end, _, sol, status = run()
    assert (status, sol) == (-2, None) and t_end < T


def _square(y):
    return [y[0] * y[0]]


def test_step_size_collapse_matches_scipy():
    # y' = y^2 blows up at t = 1; the steps shrink until they cannot
    ref = _solve_ivp(lambda tt, y: y * y, 2.0, np.array([1.0]), 1e-9)
    t_end, y_end, sol, status = ode.dop853(_square, 0.0, np.array([1.0]), 2.0, 1e-9)
    assert status == ref.status == -1
    assert ref.message == ode.STEP_COLLAPSE
    assert t_end == ref.t[-1]
    assert np.array_equal(y_end, ref.y[:, -1])


def test_step_size_collapse_on_the_first_step_matches_scipy():
    # y' = y^2 from 1e20 overflows at once; every step is rejected until the
    # step size collapses, so no step is accepted and the solution is empty
    from scipy.integrate import solve_ivp
    with np.errstate(over="ignore", invalid="ignore"):
        ref = solve_ivp(lambda tt, y: y * y, (1.0, 2.0), np.array([1e20]), method="DOP853",
                        rtol=1e-9, atol=1e-9, dense_output=True)
        t_end, y_end, sol, status = ode.dop853(_square, 1.0, np.array([1e20]), 2.0, 1e-9)
    assert status == ref.status == -1
    assert t_end == ref.t[-1] == 1.0
    assert np.array_equal(y_end, ref.y[:, -1])
    assert np.array_equal(sol.ts, ref.t)
    assert len(sol.interpolants) == len(ref.sol.interpolants) == 0
