"""Transform-pair correctness, decay contracts, and Poisson summation."""

import ast
import json
import math
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from labchecks import linear_combination, poisson_check
from magtrace import (KSumControl, ValidationError, make_fourier_bump, make_gaussian,
                      make_gaussian_modulated)
from magtrace import bump, testfn

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


def _pair_deviation(f, grid):
    """max |phi_hat(xi) - quad of phi(x) e^{-i xi x} dx over [-R, R]| on the
    grid, R = f.radius(1e-14).

    Every phi checked here has phi(-x) = conj(phi(x)), so the integral is
    2 int_0^R (Re phi cos(xi x) + Im phi sin(xi x)) dx.  An IntegrationWarning
    from quad fails the test; at these tolerances quad raises none.
    """
    R = f.radius(1e-14)

    def part(take, weight, xi):
        return quad(lambda x: take(complex(f.phi(x))), 0.0, R, weight=weight, wvar=xi,
                    epsabs=1e-13, epsrel=1e-11, limit=200)[0]

    devs = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        for xi in grid:
            val = part(lambda z: z.real, "cos", xi)
            if f.complex_valued:
                val += part(lambda z: z.imag, "sin", xi)
            devs.append(abs(complex(f.phi_hat(xi)) - 2.0 * val))
    return max(devs)


def test_gaussian_pair_identity_quadrature():
    # pointwise pair identity on |xi| <= 6/s against direct quadrature
    for s in (0.5, 1.0, 2.0):
        f = make_gaussian(s)
        assert _pair_deviation(f, np.linspace(-6.0 / s, 6.0 / s, 13)) < 1e-12


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
def exact_bump_phi():
    """phi(x) of the bump (tau0, w) to 40 digits: the exact inverse transform.

    The trapezoidal rule of step h = 1/1024 on [-1, 1] for the integral of
    psi(t) cos(u t), u = w|x|, is exact up to the aliased transforms
    Psi(2 pi m/h -+ u), m != 0, as psi vanishes to every order at +-1.  For
    u <= 1600 they sit past 4,800, where |Psi| < 1e-32.  The phase
    exp(i tau0 x) is taken at 40 digits of the double tau0 and x.
    """
    n = 1024
    with mpmath.workdps(40):
        h = mpmath.mpf(1) / n
        psi = [mpmath.exp(-1 / (1 - (j * h) ** 2)) for j in range(n)]

    def value(tau0, w, x):
        with mpmath.workdps(40):
            x = mpmath.mpf(x)
            z, zj, terms = mpmath.expj(w * abs(x) * h), mpmath.mpf(1), []
            for j in range(1, n):
                zj *= z
                terms.append(psi[j] * zj.real)
            g = w * h * (psi[0] + 2 * mpmath.fsum(terms)) / (2 * mpmath.pi)
            return complex(mpmath.expj(tau0 * x) * g)
    return value


@pytest.mark.parametrize("tau0,w", [(0.0, 1.0), (2.0, 0.5), (KATOK_TSHARP, 1.0)])
def test_bump_phi_matches_40_digit_rule(exact_bump_phi, tau0, w):
    # the double phi against the exact inverse transform at 40 points, out to
    # the cap: the trapezoid rule's aliasing is below 1e-20 w, so what shows
    # is the rounding of the cosine sum, its arguments m u/512 and the phase
    # tau0 x, at most 7.8e-17 w at 400 seeded points (the phase, near u = 2)
    f = make_fourier_bump(tau0, w)
    rng = np.random.default_rng(20261019)
    us = [0.0, 0.37, 1.85, 3.1, -3.1, 25.0, 180.5, 700.0, 955.25, -1234.5, 1600.0]
    for u in us + rng.uniform(-bump._BUMP_U_CAP, bump._BUMP_U_CAP, 29).tolist():
        x = u / w
        assert abs(complex(f.phi(x)) - exact_bump_phi(tau0, w, x)) <= 1e-16 * w, u


def test_bump_cosine_sum_is_even():
    # cos is even and sin odd, so the angle addition keeps g(-u) == g(u) bit
    # for bit, past the cap too
    coeff = bump._bump_cosine_table()
    u = np.random.default_rng(20261020).uniform(0.0, 2.0 * bump._BUMP_U_CAP, 1000)
    u[:4] = 0.0, 5e-324, 1.0, bump._BUMP_U_CAP
    assert np.array_equal(bump._bump_cosine_sum(-u, coeff), bump._bump_cosine_sum(u, coeff))


def test_bump_radius_does_not_depend_on_tau0():
    # |phi(x)| = |g(w x)| for every tau0
    tol = 1e-14
    r = make_fourier_bump(2.0, 0.5).radius(tol)
    assert make_fourier_bump(4.0, 0.5).radius(tol) == r
    assert make_fourier_bump(math.pi, 0.5).radius(tol) == r
    # the Katok bump's phi falls below tol well inside the cap
    r1 = make_fourier_bump(0.0, 1.0).radius(tol)
    assert make_fourier_bump(KATOK_TSHARP, 1.0).radius(tol) == r1 < bump._BUMP_U_CAP


@pytest.fixture
def cosine_rows(monkeypatch):
    """The row count of each ``_bump_cosine_sum`` call the test makes."""
    rows = []
    probe = bump._bump_cosine_sum

    def counting(u, coeff):
        rows.append(u.size)
        return probe(u, coeff)
    monkeypatch.setattr(bump, "_bump_cosine_sum", counting)
    return rows


def test_bump_radius_is_memoized_per_instance(cosine_rows):
    # the radius is closed form, so it needs no memo: a repeat call on one
    # instance and a call on a fresh one agree, and neither evaluates phi
    f = make_fourier_bump(2.0, 0.5)
    r = f.radius(1e-10)
    assert f.radius(1e-10) == r
    assert make_fourier_bump(2.0, 0.5).radius(1e-10) == r
    # a tol below phi's rounding noise gives the cap, still without sampling
    assert make_fourier_bump(0.0, 1.0).radius(5e-324) == bump._BUMP_U_CAP
    assert not cosine_rows


@pytest.mark.parametrize("w", [0.05, 0.5, 1.0, 3.0, 1e-100, 1e100])
def test_bump_radius_search_work_is_bounded(cosine_rows, w):
    # the radius is the envelope's closed-form crossing with tol: no tol, not
    # even one below phi's rounding noise, evaluates phi
    tols = [5e-324, 1e-300, 1e-18, 1e-14, 1e-10, 1e-6, 1e-2, 0.5, 0.999]
    f = make_fourier_bump(0.0, w)
    radii = [f.radius(tol) for tol in tols]
    assert all(0.0 < r <= bump._BUMP_U_CAP / w for r in radii)
    assert radii == sorted(radii, reverse=True)
    # the benchmark's w at its tail_tol stays inside the cap
    if w in (0.5, 1.0):
        assert f.radius(1e-14) < bump._BUMP_U_CAP / w
    assert not cosine_rows


def test_bump_cosine_table_is_the_512_step_trapezoid():
    c = bump._bump_cosine_table()
    # psi(t_m) from libm, one node t_m = m/512 at a time, whatever SIMD exp
    # numpy dispatches to
    psi = np.array([math.exp(-1.0 / (1.0 - (m / 512) ** 2)) for m in range(512)])
    expected = 2.0 * psi / (512 * 2.0 * math.pi)
    expected[0] /= 2.0
    assert np.array_equal(c, expected)
    assert not c.flags.writeable


def test_bump_trapezoid_aliasing_is_certified():
    # Poisson summation: the rule of step 1/M misses the integral of
    # psi(t) cos(u t) by the aliased transforms Psi(2 pi k M -+ u), k >= 1,
    # each bounded (per unit w) by the envelope (1/2pi) min_j D_j/v^j; past
    # k = K the leg j = 24 at v >= pi k M bounds their sum by
    # (2/2pi) D_24 (pi M)^-24 K^-23/23
    M, K = bump._BUMP_M, 8
    assert bump._BUMP_U_CAP <= math.pi * M  # so 2 pi k M - u >= pi k M
    env = bump.PowerEnvelope(1.0, bump._BUMP_D)
    u = np.linspace(0.0, bump._BUMP_U_CAP, 64001)
    alias = sum(env(2.0 * math.pi * k * M - u) + env(2.0 * math.pi * k * M + u)
                for k in range(1, K + 1))
    d24 = dict(bump._BUMP_D)[24]
    alias += 2.0 * d24 / (2.0 * math.pi) * (math.pi * M) ** -24 * K**-23 / 23
    assert alias.max() <= 1e-20


def _radius_cases():
    # the benchmark's four bumps, then a seeded grid of (w, tol)
    cases = [(2.0, 0.5, 1e-14), (4.0, 0.5, 1e-14), (math.pi, 0.5, 1e-14),
             (KATOK_TSHARP, 1.0, 1e-14)]
    rng = np.random.default_rng(20261018)
    for w, e in zip(rng.uniform(0.05, 3.0, 40), rng.uniform(-16.5, -4.0, 40)):
        cases.append((0.0, float(w), float(10.0 ** e)))
    return cases + [(0.0, 1.0, 1e-18)]  # below phi's rounding noise


def test_bump_envelope_certifies_radius(exact_bump_phi):
    # past each radius, |phi| on a 0.5 grid in u = w|x| out to the cap stays
    # under the envelope, which is at most tol there: the 40-digit |phi| at
    # the radius and where the double phi comes closest to the envelope, and
    # the double phi up to 1e-16 w.  That phi is exact up to aliasing below
    # 1e-20 w, so its excess is the rounding of the cosine sum and its
    # arguments, at most 7.1e-17 w on this grid
    for tau0, w, tol in _radius_cases():
        f = make_fourier_bump(tau0, w)
        r = f.radius(tol)
        env = f.time_env
        assert env(r) <= tol * (1.0 + 1e-12), (w, tol)
        xs = np.arange(w * r, bump._BUMP_U_CAP, 0.5) / w
        bound = np.asarray(env(xs))
        assert np.all(np.diff(bound) <= 0.0)
        phi = np.abs(f.phi(xs))
        assert np.all(phi <= bound + 1e-16 * w), (w, tol)
        for x in (r, xs[np.argmax(phi / bound)]):
            assert abs(exact_bump_phi(0.0, w, x)) <= env(x), (w, tol, x)
    # case 11: past the sampled radius of the former search, u = 116.19,
    # |phi| still passed tol on u in [118.83, 118.87], between its samples
    tau0, w, tol = _radius_cases()[11]
    f = make_fourier_bump(tau0, w)
    assert abs(exact_bump_phi(0.0, w, 118.85 / w)) > tol and w * f.radius(tol) > 118.87


@pytest.mark.parametrize("w", [1e-150, 1e-3, 1.0, 1e3, 1e150])
def test_bump_envelope_at_extreme_w_and_x(w):
    # the legs stay in u = w|x| and past the cap leg only powers of 1/u < 1
    # are formed, so nothing overflows (a RuntimeWarning fails the test)
    f = make_fourier_bump(0.0, w)
    xs = np.array([0.0, 5e-324, 1e-300, 1e-3, 1.0, 1e3, 1e150, 1e300, np.finfo(float).max])
    v = f.time_env(xs)
    assert np.all(np.isfinite(v)) and np.all(v >= 0.0) and np.all(np.diff(v) <= 0.0)
    moments = [f.time_env.halfline_moment(float(a), 1.0, 1.0) for a in xs[1:]]
    assert all(math.isfinite(m) for m in moments) and moments == sorted(moments, reverse=True)
    assert all(0.0 < f.radius(tol) < math.inf for tol in (5e-324, 1e-14, 0.5))


def test_bump_phi_dtype():
    xs = np.linspace(-40.0, 40.0, 9)
    real = make_fourier_bump(0.0, 1.0)
    assert real.phi(xs).dtype == np.float64
    assert isinstance(real.phi(1.5), np.float64)
    assert make_fourier_bump(2.0, 0.5).phi(xs).dtype == np.complex128


def test_bump_phi_peak_memory_is_cache_sized():
    # the cosine sum runs in blocks of 256 points (about 400 KB of cosines,
    # sines and partial sums), so a 1000-point call never holds all of them
    f = make_fourier_bump(2.0, 0.5)
    xs = np.linspace(-50.0, 50.0, 1000)
    f.phi(xs[:1])  # builds the shared cosine table
    tracemalloc.start()
    try:
        f.phi(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_import_leaves_scipy_unloaded(tmp_path):
    code = ("import sys, magtrace; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
    # nor do the commands that integrate the flow, in a fresh process
    katok = {"kind": "katok", "eps": 1.0 / math.sqrt(5.0)}
    configs = {
        "dynamics": {"schema": "magtrace/1", "geometry": {"kind": "sphere", "R": 0.5},
                     "E": math.sqrt(2.0), "orbit_samples": 16},
        "katok": {"schema": "magtrace/1", "geometry": katok, "E": math.sqrt(2.0),
                  "N": {"value": 3}},
    }
    argvs = []
    for sub, cfg in configs.items():
        path = tmp_path / f"{sub}.json"
        path.write_text(json.dumps(cfg))
        argvs.append([sub, "--config", str(path), "--out", str(tmp_path / sub)])
    code = ("import sys; from magtrace import cli; "
            f"codes = [cli.main(a) for a in {argvs!r}]; "
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[0, 0] []"
    assert (tmp_path / "dynamics" / "orbit.csv").exists()
    assert (tmp_path / "katok" / "katok_report.json").exists()


def test_src_never_imports_scipy():
    src = Path(testfn.__file__).parent
    imports = re.compile(r"^\s*(import|from)\s+scipy\b", re.MULTILINE)
    assert [p.name for p in sorted(src.rglob("*.py")) if imports.search(p.read_text())] == []


# top-level definitions of src/ that no src/ code uses, each with its reason
_UNREACHED_ALLOWED = {
    "GeometrySpec": "old constructor names; dynamics re-exports it for perfbench/reference.py",
}


def test_src_has_no_unreached_definitions():
    # a top-level function or class counts as reached when some src/ module
    # other than __init__ names it in code; an import or re-export does not
    src = Path(testfn.__file__).parent
    trees = [ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))
             if p.name != "__init__.py"]
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    used = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert sorted(defined - used) == sorted(_UNREACHED_ALLOWED)


# the self-checks that live in tests/labchecks.py or were replaced by direct checks
_SELF_CHECKS = ("poisson_check", "PoissonReport", "torus_cluster_check", "ClusterCheck",
                "validate_pair", "PairValidation", "_fourier_quadrature",
                "linear_combination", "SumEnvelope", "QuadratureError")


# the deformed sphere's equator data, now methods of katok.Katok, and the
# second Maslov rule, now labchecks.maslov_two_interval
_KATOK_FUNCTIONS = ("maslov_katok", "MaslovData", "katok_poincare_analytic",
                    "katok_maslov_closed", "katok_first_integral", "katok_term_closed")


def test_self_checks_stay_out_of_the_package():
    import magtrace

    gone = _SELF_CHECKS + _KATOK_FUNCTIONS
    assert [n for n in gone if hasattr(magtrace, n)] == []
    src = Path(testfn.__file__).parent
    names = re.compile(r"\b(" + "|".join(gone) + r")\b")
    assert [p.name for p in sorted(src.rglob("*.py")) if names.search(p.read_text())] == []


def test_bump_pair_double_quadrature():
    f = make_fourier_bump(0.0, 1.0)
    assert _pair_deviation(f, [0.0, 0.5]) <= 1e-8


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
    assert _pair_deviation(f, [2.0, 3.0, 4.5]) <= 1e-10


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
    assert np.all(np.abs(f.phi_hat(2.0 + u)) <= f.hat_abs_bounds(u)[0] * (1 + 1e-12))


@pytest.mark.parametrize("tau0,w", [(0.0, 1.0), (2.0, 0.5), (KATOK_TSHARP, 1.0), (-3.0, 3.0)])
def test_bump_hat_side_agrees_on_floats_and_arrays(tau0, w):
    # a Python float runs on libm's exp and an array on numpy's, which may
    # differ by an ulp; the support's edge and all past it are exact zeros on both
    f = make_fourier_bump(tau0, w)
    hats = (f.phi_hat, f.phi_hat_d1, f.phi_hat_d2)
    inside = tau0 + w * np.linspace(-0.999, 0.999, 2001)
    edge = np.array([tau0 - w, tau0 + w])
    outside = tau0 + w * np.array([-1e3, -2.0, -1.001, 1.001, 2.0, 1e3])
    for h in hats:
        on_array = h(inside)
        on_floats = np.array([h(x) for x in inside.tolist()])
        assert type(h(float(inside[0]))) is float
        assert np.all(np.abs(on_floats - on_array)
                      <= 4.0 * np.spacing(np.maximum(np.abs(on_floats), np.abs(on_array))))
        for xi in (edge, outside):
            assert np.all(h(xi) == 0.0) and all(h(x) == 0.0 for x in xi.tolist())
    u_in, u_out = np.linspace(0.0, w, 101)[:-1], np.array([w, 1.001 * w, 2.0 * w, 1e3 * w])
    for order, caps in enumerate(f.hat_abs_bounds(u_in)):
        assert np.all(caps > 0.0)
        assert [f.hat_abs_bounds(u)[order] for u in u_in.tolist()] == caps.tolist()
        assert np.all(f.hat_abs_bounds(u_out)[order] == 0.0)
        assert all(f.hat_abs_bounds(u)[order] == 0.0 for u in u_out.tolist())


@pytest.mark.parametrize("tau0,w", [(0.0, 0.05), (2.0, 0.5), (KATOK_TSHARP, 1.0), (-3.0, 3.0),
                                    (0.0, 40.0)])
def test_bump_hat_abs_bound_covers_derivatives(tau0, w):
    # the caps 0.3679, 1/w and 12/w^2 against the maxima e^-1, 0.7984/w and
    # 7.7497/w^2 of |phi_hat|, |phi_hat'| and |phi_hat''|, and 0 past the support
    f = make_fourier_bump(tau0, w)
    xi = tau0 + w * np.linspace(-1.25, 1.25, 50_001)
    u = np.abs(xi - tau0)
    peaks = []
    for order, (h, cap) in enumerate(zip((f.phi_hat, f.phi_hat_d1, f.phi_hat_d2),
                                         f.hat_abs_bounds(u))):
        v = np.abs(h(xi))
        assert np.all(v <= cap), order
        peaks.append(float(v.max()) * w**order)
    assert peaks == pytest.approx([math.exp(-1.0), 0.7984, 7.7497], rel=1e-4)


def test_gaussian_radii_past_one_over_dbl_max():
    # 1/tol and amp/tol overflow at these tolerances; the radii do not
    s = 0.5
    f = make_gaussian(s)
    amp = mpmath.sqrt(2 * mpmath.pi) * s
    for tol in (1e-310, 5e-324):
        assert f.radius(tol) == pytest.approx(
            float(s * mpmath.sqrt(-2 * mpmath.log(tol))), rel=1e-14)
    for tol in (1e-308, 5e-324):
        assert f.hat_radius(tol) == pytest.approx(
            float(mpmath.sqrt(2 * mpmath.log(amp / tol)) / s), rel=1e-14)


def test_linear_combination_is_exact():
    f1 = make_gaussian(1.0)
    f2 = make_fourier_bump(0.0, 1.0)
    a, b = 2.5, -0.75
    combo = linear_combination([a, b], [f1, f2])
    xs = np.linspace(-7.0, 7.0, 101)
    assert np.all(combo.phi(xs) == a * f1.phi(xs) + b * f2.phi(xs))
    assert np.all(combo.phi_hat(xs) == a * f1.phi_hat(xs) + b * f2.phi_hat(xs))


def _bump_derivative_norms(k_top):
    """40-digit D_k = int_{-1}^{1} |psi^(k)| dt, k = 2, 4, ..., k_top.

    psi^(k) = p_k(t) (1-t^2)^(-2k) psi with integer polynomials
    p_{k+1} = p_k' (1-t^2)^2 + (4kt(1-t^2) - 2t) p_k, so psi^(k) changes sign
    only at zeros of p_k, and between consecutive ones (and +-1, where every
    psi^(j) vanishes) int |psi^(k)| is the jump of psi^(k-1): no quadrature.
    For even k, p_k(t) = q(t^2) and psi^(k-1) is odd, so the zeros are those
    of q in (0, 1), isolated exactly by sympy and refined at 40 digits, and
    D_k is twice the sum over [0, 1].
    """
    import sympy

    t, s = sympy.symbols("t s")
    p = [sympy.Poly(1, t)]
    for k in range(k_top):
        p.append(p[k].diff(t) * sympy.Poly((1 - t**2) ** 2, t)
                 + sympy.Poly(4 * k * t * (1 - t**2) - 2 * t, t) * p[k])
    norms = {}
    with mpmath.workdps(40):
        def refine(c, a, b):
            # Newton inside the isolating interval, bisecting whenever a step leaves it
            fa, x = mpmath.polyval(c, a), (a + b) / 2
            while True:
                fx, dfx = mpmath.polyval(c, x, derivative=True)
                if fx == 0:
                    return x
                if (fx > 0) == (fa > 0):
                    a, fa = x, fx
                else:
                    b = x
                nx = x - fx / dfx
                if not a < nx < b:
                    nx = (a + b) / 2
                if abs(nx - x) <= mpmath.mpf(10) ** -25:
                    return nx
                x = nx

        for k in range(2, k_top + 1, 2):
            q = sympy.Poly.from_list(p[k].all_coeffs()[::2], s)
            c = [mpmath.mpf(int(v)) for v in q.all_coeffs()]
            prev = [mpmath.mpf(int(v)) for v in p[k - 1].all_coeffs()]
            zeros = []
            for (a, b), _ in q.intervals(inf=0, sup=1):
                a, b = mpmath.mpf(a.p) / a.q, mpmath.mpf(b.p) / b.q
                zeros.append(a if a == b else refine(c, a, b))

            def antiderivative(x):  # psi^(k-1)
                if x >= 1:
                    return mpmath.mpf(0)
                om = 1 - x * x
                return mpmath.polyval(prev, x) / om ** (2 * k - 2) * mpmath.exp(-1 / om)
            ends = [mpmath.mpf(0), *sorted(mpmath.sqrt(z) for z in zeros if 0 < z < 1), 1]
            norms[k] = 2 * mpmath.fsum(abs(antiderivative(b) - antiderivative(a))
                                       for a, b in zip(ends, ends[1:]))
    return norms


def test_bump_envelope_constants_are_upper_bounds():
    # each shipped D_k is at least its 40-digit value and within 1e-3 of it,
    # and the legs meet in order: the crossings (D_j/D_i)^(1/(j-i)) increase
    from magtrace.bump import _BUMP_D, PowerEnvelope

    with mpmath.workdps(40):
        exact = {0: mpmath.quad(lambda t: mpmath.exp(-1 / (1 - t * t)), [-1, 0, 1]),
                 **_bump_derivative_norms(24)}
    assert [k for k, _ in _BUMP_D] == list(exact) == list(range(0, 25, 2))
    for k, d in _BUMP_D:
        assert exact[k] <= d <= exact[k] * (1 + 1e-3), k
    crossings = PowerEnvelope(1.0, _BUMP_D)._crossings
    assert all(a < b for a, b in zip(crossings, crossings[1:]))


@pytest.mark.parametrize("a", [2.0, 20.0, 60.0, 700.0, 3000.0, 5000.0])
@pytest.mark.parametrize("c0,c1", [(1.0, 0.0), (0.0, 1.0), (50.0, 2.0)])
def test_power_envelope_halfline_moment_is_exact(a, c0, c1):
    # the w=0.5 bump's legs meet at x = 5.4, 36.7, 141, ..., 3956: a = 2, 20,
    # 60, 700, 3000 and 5000 start on the legs k = 0, 2, 4, 12, 20 and 24
    w = 0.5
    env = make_fourier_bump(2.0, w).time_env
    breaks = [u / w for u in env._crossings]

    def integrand(x):
        return (c0 + c1 * x) * w / (2 * mpmath.pi) * min(d * (w * x) ** -k
                                                         for k, d in env.legs)
    with mpmath.workdps(30):
        exact = mpmath.quad(integrand, [a, *(x for x in breaks if x > a), mpmath.inf])
        assert float(integrand(a)) == pytest.approx(float(env(a)) * (c0 + c1 * a), rel=1e-13)
    assert env.halfline_moment(a, c0, c1) == pytest.approx(float(exact), rel=1e-12)


def test_parameter_validation():
    with pytest.raises(ValidationError):
        make_gaussian(0.0)
    with pytest.raises(ValidationError):
        make_gaussian(-1.0)
    with pytest.raises(ValidationError):
        make_fourier_bump(0.0, 0.0)
    for w in (1e-300, 1e-160, 1e160, 1e300):  # phi_hat'' divides by w^2
        with pytest.raises(ValidationError, match="leave the double range"):
            make_fourier_bump(0.0, w)
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


def test_poisson_rhs_tail_bounds_off_centre_combination():
    # the member's transform is centred at b = 30, the combination's at 0
    f = linear_combination([1.0], [make_gaussian_modulated(1.0, 30.0)])
    P = math.pi
    rep = poisson_check(f, P, 0.3)
    step = 2.0 * math.pi / P
    hr = f.hat_radius(1e-22)
    k_hi = int(math.ceil(hr / step)) + 1
    k_lo = int(math.floor(-hr / step)) - 1
    omitted = [k for k in range(k_lo - 200, k_hi + 201) if not k_lo <= k <= k_hi]
    with mpmath.workdps(30):
        total = mpmath.fsum(mpmath.sqrt(2 * mpmath.pi) * mpmath.exp(-(step * k - 30) ** 2 / 2)
                            for k in omitted) / P
    assert total > 1e-56
    assert rep.rhs_tail >= total


def _mp_omitted(term, env, start, sign):
    """40-digit sum of |term(i)| for i = start, start + sign, ..., stopped once
    the decreasing env(i) falls 45 digits below the sum."""
    total, i = mpmath.mpf(0), start
    while True:
        total += abs(term(i))
        if env(i) < total * mpmath.mpf(10) ** -45 or env(i) < mpmath.mpf(10) ** -10000:
            return total
        i += sign


# (coeff, s, b) of each gaussian member, summed by linear_combination where
# combo.  At the six single-member cases a geometric-series bound on the
# lattice tail falls 2e-15 to 6e-14 short of the omitted sum.
@pytest.mark.parametrize("members,P,combo", [
    ([(1.0, 0.3, 0.0)], math.pi, False),
    ([(1.0, 0.3, 7.0)], 1.0, False),
    ([(1.0, 0.7, 1.5)], 5.0, False),
    ([(1.0, 1.0, 30.0)], 5.0, False),
    ([(1.0, 2.0, -12.0)], 8.0, False),
    ([(1.0, 3.0, 0.0)], 8.0, False),
    ([(1.0, 2.0, 30.0)], 0.5, True),
    ([(2.0, 1.0, 0.0), (-0.5j, 0.3, 7.0)], 1.0, True),
])
def test_poisson_tails_dominate_omitted_sums(members, P, combo):
    # both tails against 40-digit sums of |phi| and |phi_hat|/P over the
    # lattice points and periods poisson_check leaves out, both exactly: the
    # per-period bound on the frequency side is |phi_hat| widened outward by
    # its own rounding.  Sums below 1e-300 are skipped: the bounds underflow.
    t = 0.3
    fns = [make_gaussian_modulated(s, b) for _, s, b in members]
    f = linear_combination([c for c, _, _ in members], fns) if combo else fns[0]
    rep = poisson_check(f, P, t)
    # the windows poisson_check sums
    R = f.radius(1e-22)
    n_lo, n_hi = math.floor((-R - t) / P) - 1, math.ceil((R - t) / P) + 1
    k_max = KSumControl.for_function(f, 2.0 * math.pi / P, 1e-22).k_max
    with mpmath.workdps(40):
        mp_P, mp_step = mpmath.mpf(P), 2 * mpmath.pi / mpmath.mpf(P)

        def phi(x):
            return sum(c * mpmath.exp(-x * x / (2 * s * s)) * mpmath.expj(b * x)
                       for c, s, b in members)

        def phi_hat(xi):
            return sum(c * s * mpmath.sqrt(2 * mpmath.pi) * mpmath.exp(-(s * (xi - b)) ** 2 / 2)
                       for c, s, b in members)

        def x(n):
            return t + n * mp_P

        lhs = sum(_mp_omitted(lambda n: phi(x(n)),
                              lambda n: sum(abs(c) * mpmath.exp(-x(n) ** 2 / (2 * s * s))
                                            for c, s, _ in members), start, sign)
                  for start, sign in ((n_hi + 1, 1), (n_lo - 1, -1)))
        rhs = sum(_mp_omitted(lambda k: phi_hat(k * mp_step),
                              lambda k: sum(abs(c) * mpmath.exp(-(s * (k * mp_step - b)) ** 2 / 2)
                                            for c, s, b in members), start, sign)
                  for start, sign in ((k_max + 1, 1), (-k_max - 1, -1))) / mp_P
    assert lhs >= 1e-300 or rhs >= 1e-300
    if lhs >= 1e-300:
        assert rep.lhs_tail >= lhs
    if rhs >= 1e-300:
        assert rep.rhs_tail >= rhs


@pytest.mark.parametrize("P,t", [(1e9, 0.3), (1e-9, 0.3), (math.nan, 0.3), (math.inf, 0.3),
                                 (0.0, 0.3), (2.0, math.nan)])
def test_poisson_check_refuses_hostile_arguments(P, t):
    # each is refused before anything is allocated: a lattice or k-sum of
    # ~1e9 terms, or a period or shift that is not a finite number
    with pytest.raises(ValidationError):
        poisson_check(make_gaussian(1.0), P, t)


@pytest.mark.parametrize("t", [1e17, 1e300])
def test_poisson_check_reduces_large_shifts(t):
    # both sides have period P in t; unreduced, t + n P would keep no
    # lattice offset and e^{2pi i k t/P} no phase
    f = make_gaussian(1.0)
    rep = poisson_check(f, 2.0, t)
    assert rep == poisson_check(f, 2.0, math.fmod(t, 2.0))
    assert rep.diff <= 1e-12
