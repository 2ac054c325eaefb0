"""Transform-pair correctness, decay contracts, and Poisson summation."""

import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from magtrace import (ValidationError, linear_combination, make_fourier_bump,
                      make_gaussian, make_gaussian_modulated, poisson_check,
                      validate_pair)
from magtrace import testfn
from magtrace.testfn import TestFunction

SQRT_2PI = math.sqrt(2.0 * math.pi)
# period of the Katok equator that the isolated-orbit bump is centred on
KATOK_TSHARP = 2.0 * math.pi * math.sqrt(2.0) / (1.0 - 1.0 / 5.0)

# oracle values, frozen from adaptive quadrature before the build:
#   (1/2pi) int_{-1}^{1} exp(-1/(1-t^2)) dt
BUMP_PHI0 = 0.07066381054538412
#   int exp(-x^2/2) exp(-2ix) dx  (= sqrt(2pi) e^{-2})
GAUSS_HAT2 = 0.3392352475160882


def test_gaussian_pointwise_values():
    f = make_gaussian(1.0)
    assert f.phi(0.0) == 1.0
    assert f.phi_hat(0.0) == pytest.approx(SQRT_2PI, abs=1e-15)
    assert f.phi_hat(2.0) == pytest.approx(GAUSS_HAT2, abs=1e-14)
    f2 = make_gaussian(2.0)
    assert f2.phi(2.0) == pytest.approx(math.exp(-0.5), abs=1e-15)


def test_gaussian_hat2_quadrature_oracle():
    val, _ = quad(lambda x: math.exp(-x * x / 2.0) * math.cos(2.0 * x), -10, 10,
                  epsabs=1e-15, epsrel=1e-13)
    assert val == pytest.approx(GAUSS_HAT2, abs=1e-13)


def test_gaussian_pair_identity_quadrature():
    # pointwise pair identity on |xi| <= 6/s against direct quadrature
    for s in (0.5, 1.0, 2.0):
        f = make_gaussian(s)
        rep = validate_pair(f, np.linspace(-6.0 / s, 6.0 / s, 13), tol=1e-12)
        assert rep.passed and rep.max_abs_dev < 1e-12


def test_validate_pair_reports_nonconvergent_quadrature():
    # a jump in phi defeats the smooth-panel quadrature; the refinement
    # check must raise rather than return a silently wrong comparison
    from magtrace import QuadratureError
    f = make_gaussian(1.0)
    jumpy = TestFunction(
        kind="combination", complex_valued=False, params={},
        phi=lambda x: np.sign(np.asarray(x) - 0.123) * f.phi(x),
        phi_hat=f.phi_hat,
        phi_hat_d1=f.phi_hat_d1, phi_hat_d2=f.phi_hat_d2,
        time_env=f.time_env, hat_env=f.hat_env,
        _radius_fn=f._radius_fn, _hat_radius_fn=f._hat_radius_fn,
        _hat_abs_fn=f._hat_abs_fn)
    with pytest.raises(QuadratureError):
        validate_pair(jumpy, [0.0, 1.0], tol=1e-10)


def test_validate_pair_detects_injected_error():
    f = make_gaussian(1.0)
    broken = TestFunction(
        kind="combination", complex_valued=False, params={},
        phi=f.phi, phi_hat=lambda xi: f.phi_hat(xi) + 1e-3,
        phi_hat_d1=f.phi_hat_d1, phi_hat_d2=f.phi_hat_d2,
        time_env=f.time_env, hat_env=f.hat_env,
        _radius_fn=f._radius_fn, _hat_radius_fn=f._hat_radius_fn,
        _hat_abs_fn=f._hat_abs_fn)
    rep = validate_pair(broken, [0.0, 1.0, 2.0], tol=1e-10)
    assert not rep.passed
    assert rep.max_abs_dev == pytest.approx(1e-3, rel=1e-6)


def test_bump_center_edge_and_outside():
    f = make_fourier_bump(0.0, 1.0)
    assert f.phi_hat(0.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert f.phi_hat(1.0) == 0.0
    assert f.phi_hat(-1.0) == 0.0
    g = make_fourier_bump(5.0, 0.5)
    assert g.phi_hat(4.4) == 0.0
    assert g.phi_hat(5.6) == 0.0
    xs = np.linspace(5.51, 20.0, 57)
    assert np.all(g.phi_hat(xs) == 0.0)


def test_bump_inverse_value_at_zero():
    f = make_fourier_bump(0.0, 1.0)
    assert f.phi(0.0) == pytest.approx(BUMP_PHI0, abs=1e-12)
    # recompute the oracle live
    val, _ = quad(lambda t: math.exp(-1.0 / (1.0 - t * t)), -1.0, 1.0,
                  epsabs=1e-15, epsrel=1e-13)
    assert val / (2.0 * math.pi) == pytest.approx(BUMP_PHI0, abs=1e-13)


@pytest.fixture(scope="module")
def mp_bump_rule():
    """The 1024-node rule in its exponential form, evaluated to 40 digits.

    phi(x) = (w/2pi) sum_m W_m psi(t_m) exp(i (tau0 + w t_m) x) over the
    double nodes and weights, with no use of the rule's symmetry.
    """
    nodes, weights = leggauss(1024)
    with mpmath.workdps(40):
        ts = [mpmath.mpf(float(t)) for t in nodes]
        cs = [mpmath.mpf(float(W)) * mpmath.exp(-1 / (1 - t * t))
              for t, W in zip(ts, weights)]

    def value(tau0, w, x):
        with mpmath.workdps(40):
            tau0, w, x = mpmath.mpf(tau0), mpmath.mpf(w), mpmath.mpf(x)
            s = mpmath.fsum(c * mpmath.expj((tau0 + w * t) * x) for c, t in zip(cs, ts))
            return complex(s * w / (2 * mpmath.pi))
    return value


@pytest.mark.parametrize("tau0,w", [(0.0, 1.0), (2.0, 0.5), (KATOK_TSHARP, 1.0)])
def test_bump_phi_matches_40_digit_rule(mp_bump_rule, tau0, w):
    f = make_fourier_bump(tau0, w)
    us = [0.0, 0.37, 3.1, -3.1, 25.0, 180.5, 700.0, 955.25, -1234.5, 1600.0]
    for u in us:
        x = u / w
        assert abs(complex(f.phi(x)) - mp_bump_rule(tau0, w, x)) <= 5e-16, u


def test_bump_radius_does_not_depend_on_tau0():
    # |phi(x)| = |g(w x)| for every tau0
    tol = 1e-14
    r = make_fourier_bump(2.0, 0.5).radius(tol)
    assert make_fourier_bump(4.0, 0.5).radius(tol) == r
    assert make_fourier_bump(math.pi, 0.5).radius(tol) == r
    # the Katok bump's phi falls below tol well inside the search cap
    r1 = make_fourier_bump(0.0, 1.0).radius(tol)
    assert make_fourier_bump(KATOK_TSHARP, 1.0).radius(tol) == r1 < testfn._BUMP_U_CAP


def test_bump_radius_is_memoized_per_instance(monkeypatch):
    calls = []
    probe = testfn._bump_cosine_sum

    def counting(u, coeff):
        calls.append(u.size)
        return probe(u, coeff)
    monkeypatch.setattr(testfn, "_bump_cosine_sum", counting)
    f = make_fourier_bump(2.0, 0.5)
    r = f.radius(1e-10)
    assert calls
    calls.clear()
    assert f.radius(1e-10) == r
    assert not calls
    # a fresh instance with the same parameters searches again
    assert make_fourier_bump(2.0, 0.5).radius(1e-10) == r
    assert calls


def test_bump_phi_dtype():
    xs = np.linspace(-40.0, 40.0, 9)
    real = make_fourier_bump(0.0, 1.0)
    assert real.phi(xs).dtype == np.float64
    assert isinstance(real.phi(1.5), np.float64)
    assert make_fourier_bump(2.0, 0.5).phi(xs).dtype == np.complex128


def test_import_leaves_scipy_unloaded():
    code = ("import sys, magtrace; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_bump_pair_double_quadrature():
    f = make_fourier_bump(0.0, 1.0)
    rep = validate_pair(f, [0.0, 0.5], tol=1e-8)
    assert rep.passed


def test_bump_hat_derivatives_match_quadrature_route():
    # phi_hat' and phi_hat'' are closed-form; cross-check against quadrature
    # of (-i x)^m phi(x) e^{-i xi x} dx
    f = make_fourier_bump(0.0, 1.0)  # phi is real and even here
    R = f.radius(1e-13)
    for xi in (0.2, 0.6):
        # integral (-ix) phi e^{-i xi x} dx = -2 int_0^R x phi sin(xi x) dx
        d1, _ = quad(lambda x: -2.0 * x * f.phi(x), 0, R,
                     weight="sin", wvar=xi, limit=400)
        assert float(f.phi_hat_d1(xi)) == pytest.approx(d1, abs=2e-8)
        # integral (-ix)^2 phi e^{-i xi x} dx = -2 int_0^R x^2 phi cos(xi x) dx
        d2, _ = quad(lambda x: -2.0 * x * x * f.phi(x), 0, R,
                     weight="cos", wvar=xi, limit=400)
        assert float(f.phi_hat_d2(xi)) == pytest.approx(d2, abs=2e-7)


def test_modulated_gaussian_pair():
    f = make_gaussian_modulated(1.0, 3.0)
    assert f.complex_valued
    assert f.phi_hat(3.0) == pytest.approx(SQRT_2PI, abs=1e-15)
    rep = validate_pair(f, [2.0, 3.0, 4.5], tol=1e-10)
    assert rep.passed


@pytest.mark.parametrize("f,tol", [
    (make_gaussian(1.0), 1e-10),
    (make_gaussian(2.5), 1e-12),
    (make_gaussian_modulated(1.0, 2.0), 1e-10),
    (make_fourier_bump(0.0, 1.0), 1e-8),
    (make_fourier_bump(3.0, 0.5), 1e-8),
])
def test_effective_radius_contract(f, tol):
    r = f.radius(tol)
    xs = np.concatenate([np.linspace(r, 2.0 * r, 201), [4.0 * r]])
    assert np.all(np.abs(f.phi(xs)) <= tol * (1.0 + 1e-12))


@pytest.mark.parametrize("f", [
    make_gaussian(1.0),
    make_gaussian_modulated(0.7, 4.0),
    make_fourier_bump(0.0, 1.0),
    make_fourier_bump(11.0, 0.5),
])
def test_time_envelope_dominates(f):
    xs = np.linspace(0.1, 60.0, 400)
    assert np.all(np.abs(f.phi(xs)) <= np.asarray(f.time_env(xs)) * (1 + 1e-12))
    assert np.all(np.abs(f.phi(-xs)) <= np.asarray(f.time_env(xs)) * (1 + 1e-12))


def test_hat_envelope_and_radius():
    f = make_gaussian_modulated(1.3, 2.0)
    r = f.hat_radius(1e-9)
    xs = np.linspace(2.0 + r, 2.0 + r + 10.0, 101)
    assert np.all(np.abs(f.phi_hat(xs)) <= 1e-9 * (1.0 + 1e-12))
    u = np.linspace(0.0, 8.0, 81)
    assert np.all(np.abs(f.phi_hat(2.0 + u)) <= np.asarray(f.hat_env(u)) * (1 + 1e-12))


def test_linear_combination_is_exact():
    f1 = make_gaussian(1.0)
    f2 = make_fourier_bump(0.0, 1.0)
    a, b = 2.5, -0.75
    combo = linear_combination([a, b], [f1, f2])
    xs = np.linspace(-7.0, 7.0, 101)
    assert np.all(combo.phi(xs) == a * f1.phi(xs) + b * f2.phi(xs))
    assert np.all(combo.phi_hat(xs) == a * f1.phi_hat(xs) + b * f2.phi_hat(xs))


def test_bump_envelope_constants_are_upper_bounds():
    # closed-form derivatives of psi = exp(-1/(1-t^2)):
    #   psi''  = (6 t^4 - 2) psi / (1-t^2)^4
    #   psi'''' = (120 t^10 + 180 t^8 - 528 t^6 + 232 t^4 + 24 t^2 - 12) psi
    #             / (1-t^2)^8
    def psi(t):
        return math.exp(-1.0 / (1.0 - t * t))

    def d2(t):
        return (6 * t**4 - 2) * psi(t) / (1 - t * t) ** 4

    def d4(t):
        num = 120 * t**10 + 180 * t**8 - 528 * t**6 + 232 * t**4 + 24 * t**2 - 12
        return num * psi(t) / (1 - t * t) ** 8

    from magtrace.testfn import _BUMP_D0, _BUMP_D2, _BUMP_D4
    D0, _ = quad(psi, -1, 1, limit=500)
    D2, _ = quad(lambda t: abs(d2(t)), -1, 1, limit=800)
    D4, _ = quad(lambda t: abs(d4(t)), -1, 1, limit=800)
    assert D0 <= _BUMP_D0 <= 1.05 * D0
    assert D2 <= _BUMP_D2 <= 1.05 * D2
    assert D4 <= _BUMP_D4 <= 1.05 * D4


def test_parameter_validation():
    with pytest.raises(ValidationError):
        make_gaussian(0.0)
    with pytest.raises(ValidationError):
        make_gaussian(-1.0)
    with pytest.raises(ValidationError):
        make_fourier_bump(0.0, 0.0)
    with pytest.raises(ValidationError):
        make_gaussian(1.0).radius(2.0)


def test_poisson_summation_gaussian():
    f = make_gaussian(1.0)
    rep = poisson_check(f, P=2.0, t=0.3)
    assert rep.diff <= 1e-12
    assert rep.lhs_tail < 1e-15 and rep.rhs_tail < 1e-15


def test_poisson_summation_bump_and_modulated():
    rep = poisson_check(make_fourier_bump(0.0, 1.0), P=3.0, t=0.1)
    assert rep.diff <= max(1e-10, 2 * (rep.lhs_tail + rep.rhs_tail))
    rep2 = poisson_check(make_gaussian_modulated(1.0, 1.5), P=2.0, t=0.4)
    assert rep2.diff <= 1e-11
