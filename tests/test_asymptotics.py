"""Coefficient predictions, general-form building blocks, diagnostics."""

import cmath
import dataclasses
import math
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labchecks import linear_combination, maslov_two_interval
from magtrace import (CoefficientPrediction, DegenerateOrbitError, EnergyLevel,
                      Hyperbolic, Katok, KSumControl, ManeLevelError,
                      MixedSupportError, ResonanceError, Sphere, Torus,
                      TraceValue, ValidationError, general_c0_nondegenerate,
                      general_c0_volume, katok_c0, make_fourier_bump,
                      make_gaussian, make_gaussian_modulated, poisson_c01,
                      residual_report)

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# torus
# ---------------------------------------------------------------------------

def test_torus_single_term_window():
    # bump support inside (-E, E): only k = 0 survives
    E = 2.0
    lev = EnergyLevel.from_E(E)
    f = make_fourier_bump(0.0, min(E, math.pi) / 2.0)
    [p] = poisson_c01([7], Torus(), lev, f, KSumControl(8))
    assert p.c0 == pytest.approx((E / TWO_PI) * complex(f.phi_hat(0.0)), rel=1e-15)
    # phi_hat is even here, so its derivative vanishes at 0 and c1 = 0
    assert p.c1 == 0.0
    assert p.k_tail == 0.0


def test_torus_single_term_asymmetric_window():
    # support inside (-E, E) but off-center: c1 = (i/2pi) phi_hat'(0)
    # (corrected transcription; the published display reads
    #  -(i/2pi E^2) phi_hat'(0) here and fails the residual sweep)
    E = 2.0
    lev = EnergyLevel.from_E(E)
    f = make_fourier_bump(0.3, 0.4)
    [p] = poisson_c01([5], Torus(), lev, f, KSumControl(8))
    assert p.c0 == pytest.approx((E / TWO_PI) * complex(f.phi_hat(0.0)), rel=1e-15)
    assert p.c1 == pytest.approx((1j / TWO_PI) * complex(f.phi_hat_d1(0.0)), rel=1e-14)


def test_torus_wide_k_oracle():
    E, N = 2.0, 7
    lev = EnergyLevel.from_E(E)
    f = make_gaussian(1.0)
    [p] = poisson_c01([N], Torus(), lev, f, KSumControl(8))
    ks = np.arange(-50, 51)
    phase = np.exp(1j * math.pi * ks) * np.exp(-1j * ks * (E * E - 1.0) * N / 2.0)
    c0 = np.sum((E / TWO_PI) * f.phi_hat(ks * E) * phase)
    c1 = np.sum(((1j / TWO_PI) * f.phi_hat_d1(ks * E)
                 + (1j * ks * E / (4.0 * math.pi)) * f.phi_hat_d2(ks * E)) * phase)
    assert abs(p.c0 - c0) <= 1e-14 * abs(c0)
    assert abs(p.c1 - c1) <= 1e-14 * max(abs(c1), 1.0)


def test_torus_c1_correction_is_forced_by_residuals():
    # the implemented c1 keeps N*|Y - c0 N - c1| bounded; the published
    # display -sum_k[(i/2piE^2)fhat' + (ik/4piE)fhat'']e^{-ik(E^2-1)N/2}
    # leaves an O(1) residual.  An off-center transform makes c1 complex
    # and exercises both formula pieces.
    from magtrace import y_n
    E = 2.0
    lev = EnergyLevel.from_E(E)
    f = make_gaussian_modulated(1.0, 0.5)
    ctl = KSumControl(20)
    for N in (200, 400, 800):
        y = y_n(Torus(), N, lev, f, tail_tol=1e-15).value
        [p] = poisson_c01([N], Torus(), lev, f, ctl)
        assert N * abs(y - p.c0 * N - p.c1) < 1.0
        ks = np.arange(-20, 21)
        published = -np.sum(
            ((1j / (TWO_PI * E * E)) * f.phi_hat_d1(ks * E)
             + (1j * ks / (4.0 * math.pi * E)) * f.phi_hat_d2(ks * E))
            * np.exp(-1j * ks * (E * E - 1.0) * N / 2.0))
        assert N * abs(y - p.c0 * N - published) > 10.0


def test_torus_k_truncation_soundness():
    lev = EnergyLevel.from_E(2.0)
    f = make_gaussian(1.0)
    [p1] = poisson_c01([9], Torus(), lev, f, KSumControl(6))
    [p2] = poisson_c01([9], Torus(), lev, f, KSumControl(12))
    assert abs(p2.c0 - p1.c0) <= p1.k_tail
    assert abs(p2.c1 - p1.c1) <= p1.k_tail


def test_torus_bohr_sommerfeld_phase_is_N_independent():
    E = math.sqrt(1.0 + 4.0 * math.pi)  # (E^2-1)/2 = 2 pi
    lev = EnergyLevel.from_E(E)
    f = make_gaussian(1.0)
    preds = poisson_c01([3, 17, 64], Torus(), lev, f, KSumControl(10))
    for p in preds[1:]:
        assert p.c0 == pytest.approx(preds[0].c0, rel=1e-14)
        assert p.c1 == pytest.approx(preds[0].c1, rel=1e-14)


def test_real_test_function_gives_real_c0():
    lev = EnergyLevel.from_E(2.0)
    f = make_gaussian(1.0)
    for N in (1, 5, 23, 111):
        [p] = poisson_c01([N], Torus(), lev, f, KSumControl(10))
        assert abs(p.c0.imag) <= 1e-13 * max(1.0, abs(p.c0))
        assert abs(p.c1.imag) <= 1e-13 * max(1.0, abs(p.c1))


def test_coefficient_boundedness_over_sweep():
    lev = EnergyLevel.from_E(2.0)
    f = make_gaussian(1.0)
    ctl = KSumControl(10)
    abs_bound = (lev.E / TWO_PI) * float(
        np.sum(np.abs(f.phi_hat(np.arange(-10, 11) * lev.E))))
    vals = []
    for N in range(1, 501, 7):
        [p] = poisson_c01([N], Torus(), lev, f, ctl)
        vals.append(abs(p.c0))
        assert abs(p.c0) <= abs_bound + p.k_tail + 1e-12
    assert max(vals) < 10.0 * abs_bound


# ---------------------------------------------------------------------------
# sphere
# ---------------------------------------------------------------------------

def _sphere_specialized_half(N, E, f, k_max):
    """Published R = 1/2 display, as an independent oracle."""
    ks = np.arange(-k_max, k_max + 1)
    phase = np.exp(1j * math.pi * ks * (N + 1)) * np.exp(-1j * math.pi * ks * E * N)
    c0 = np.sum((E / 2.0) * f.phi_hat(math.pi * ks) * phase)
    c1 = np.sum((0.5j * f.phi_hat_d1(math.pi * ks)
                 - 0.25j * math.pi * ks * f.phi_hat(math.pi * ks)) * phase)
    return c0, c1


def test_sphere_specialization_agreement():
    model = Sphere(R=0.5)
    lev = EnergyLevel.from_E(SQRT2)
    f = make_gaussian(1.0)
    for N in (1, 4, 9, 40):
        [p] = poisson_c01([N], model, lev, f, KSumControl(12))
        c0, c1 = _sphere_specialized_half(N, lev.E, f, 12)
        assert abs(p.c0 - c0) <= 1e-14 * abs(c0)
        assert abs(p.c1 - c1) <= 1e-14 * max(abs(c1), 1e-3)


def test_sphere_wide_k_oracle():
    model = Sphere(R=0.5)
    lev = EnergyLevel.from_E(SQRT2)
    f = make_gaussian(1.0)
    [p] = poisson_c01([4], model, lev, f, KSumControl(10))
    c0, c1 = _sphere_specialized_half(4, lev.E, f, 50)
    assert abs(p.c0 - c0) <= 1e-14 * abs(c0)
    assert abs(p.c1 - c1) <= 1e-14 * max(abs(c1), 1e-3)


def test_sphere_general_radius_residual_bounded():
    # the general-R display verified off the specialization point: R = 1,
    # E = 1.5, with a wide transform so the k = +-1 terms carry weight
    from magtrace import Sphere as SM, y_n
    model = SM(R=1.0)
    lev = EnergyLevel.from_E(1.5)
    f = make_gaussian(0.25)
    ctl = KSumControl(20)
    for N in (200, 400, 800):
        y = y_n(model, N, lev, f, tail_tol=1e-15).value
        [p] = poisson_c01([N], model, lev, f, ctl)
        assert N * abs(y - p.c0 * N - p.c1) < 1.0


def test_sphere_volume_term():
    # k = 0 coefficient equals the phase-space volume term exactly
    model = Sphere(R=0.75)
    E = 1.9
    lev = EnergyLevel.from_E(E)
    f = make_fourier_bump(0.0, 0.5)  # only k = 0 in the support
    [p] = poisson_c01([3], model, lev, f, KSumControl(6))
    vol = 8.0 * math.pi**2 * E * model.R**2
    assert p.c0 == pytest.approx(general_c0_volume(complex(f.phi_hat(0.0)), vol, 2),
                                 rel=1e-15)


# ---------------------------------------------------------------------------
# hyperbolic plane
# ---------------------------------------------------------------------------

def test_hyperbolic_volume_term_and_guard():
    model = Hyperbolic(R=1.0, genus=2)
    lev = EnergyLevel.from_E(1.2)
    f = make_fourier_bump(0.0, 1.0)
    [p] = poisson_c01([6], model, lev, f, KSumControl(6))
    vol = TWO_PI**2 * (2 * model.genus - 2) * lev.E * model.R**2
    assert p.c0 == pytest.approx(general_c0_volume(complex(f.phi_hat(0.0)), vol, 2),
                                 rel=1e-13)
    # boundary guard: 1.41 passes, sqrt(2) does not
    poisson_c01([6], model, EnergyLevel.from_E(1.41), f, KSumControl(6))
    with pytest.raises(ManeLevelError) as exc:
        poisson_c01([6], model, EnergyLevel.from_E(SQRT2), f, KSumControl(6))
    assert exc.value.boundary == pytest.approx(SQRT2, rel=1e-15)


def test_hyperbolic_wide_k_oracle():
    model = Hyperbolic(R=1.0, genus=2)
    E = 1.2
    lev = EnergyLevel.from_E(E)
    f = make_gaussian(0.25)  # wide transform so k = +-1 terms matter
    [p] = poisson_c01([6], model, lev, f, KSumControl(10))
    q = math.sqrt(1.0 / model.R**2 + 1.0 - E * E)
    g2 = 2.0 * model.genus - 2.0
    ks = np.arange(-50, 51)
    xi = TWO_PI * E * model.R * ks / q
    phase = np.exp(1j * math.pi * ks) * np.exp(2j * math.pi * ks * model.R * q * 6)
    c0 = np.sum(g2 * E * model.R**2 * f.phi_hat(xi) * phase)
    b0 = math.pi * E * model.R / (4.0 * q)
    b2 = math.pi * E * (model.R**2 + 1.0) * model.R / q**3
    c1 = np.sum(g2 * (1j * model.R**2 * f.phi_hat_d1(xi)
                      + 1j * b0 * ks * f.phi_hat(xi)
                      + 1j * b2 * ks * f.phi_hat_d2(xi)) * phase)
    assert abs(p.c0 - c0) <= 1e-14 * abs(c0)
    assert abs(p.c1 - c1) <= 1e-14 * max(abs(c1), 1.0)


# ---------------------------------------------------------------------------
# general-form building blocks
# ---------------------------------------------------------------------------

def test_general_volume_term():
    assert general_c0_volume(0.0, 5.0, 2) == 0.0
    # torus phase-space volume 2 pi E at E = 2
    val = general_c0_volume(1.0 + 0.0j, TWO_PI * 2.0, 2)
    assert val == pytest.approx(2.0 / TWO_PI, rel=1e-15)
    # (2pi)^-2 * 8 pi^2 sqrt(2) = 2 sqrt(2): the round-sphere-limit shell
    val = general_c0_volume(1.0 + 0.0j, 8.0 * math.pi**2 * SQRT2, 2)
    assert val == pytest.approx(2.0 * SQRT2, rel=1e-15)
    with pytest.raises(ValidationError):
        general_c0_volume(1.0, -1.0, 2)


def test_torus_k0_term_equals_volume_route():
    E = 2.0
    lev = EnergyLevel.from_E(E)
    f = make_fourier_bump(0.0, 0.5)  # only k = 0 in the support
    [p] = poisson_c01([4], Torus(), lev, f, KSumControl(4))
    assert p.c0 == pytest.approx(
        general_c0_volume(complex(f.phi_hat(0.0)), TWO_PI * E, 2), rel=1e-15)


def test_general_nondegenerate_basics():
    assert general_c0_nondegenerate(1.0, 3, 0.7, 2.0, 1.0, 0.0, 5) == 0.0
    # action in 2 pi Z: N-independent value
    vals = [general_c0_nondegenerate(2.0, 1, 2.0 * TWO_PI, 1.5, 2.0, 1.0, N)
            for N in (1, 7, 19)]
    assert vals[1] == pytest.approx(vals[0], rel=1e-12)
    assert vals[2] == pytest.approx(vals[0], rel=1e-12)
    with pytest.raises(DegenerateOrbitError):
        general_c0_nondegenerate(1.0, 1, 0.0, 1e-9, 1.0, 1.0, 1)


def test_general_nondegenerate_formula_value():
    # direct arithmetic check of the assembled expression
    Tsharp, m, S, det, Tg, N = 2.5, 5, 0.9, 3.0, 2.5, 4
    hat = 0.7 - 0.2j
    val = general_c0_nondegenerate(Tsharp, m, S, det, Tg, hat, N)
    expect = (Tsharp * cmath.exp(1j * math.pi * m / 4.0)
              / (TWO_PI * math.sqrt(det)) * cmath.exp(-1j * N * S) * hat)
    assert val == pytest.approx(expect, rel=1e-15)


# ---------------------------------------------------------------------------
# deformed sphere (Katok example)
# ---------------------------------------------------------------------------

def _report_maslov(geo, k, branch):
    # the katok report's (m, kappa, sgn_r): the closed form, kappa = round(x_k)
    m, kappa = geo.maslov(k, branch), round(geo.rotation(k, branch))
    return m, kappa, m - 2 * kappa


def test_maslov_index_examples():
    geo = Katok(0.3)
    assert geo.maslov(1, +1) == 7
    assert geo.maslov(1, -1) == 5
    assert geo.maslov(-1, +1) == -7
    assert _report_maslov(geo, 1, +1) == maslov_two_interval(1, 0.3, +1) == (7, 3, 1)
    assert _report_maslov(geo, 1, -1) == maslov_two_interval(1, 0.3, -1) == (5, 2, 1)


def test_maslov_rotation_counting_consistency():
    rng = np.random.default_rng(7)
    for eps in rng.uniform(0.05, 0.92, 12):
        geo = Katok(float(eps))
        for k in (1, 2, 3, -1, -2, -3, 5, -5):
            for branch in (1, -1):
                x = 2.0 * k / (1.0 - branch * eps)
                if abs(x - round(2.0 * x) / 2.0) < 1e-3:
                    continue
                m, kappa, sgn_r = maslov_two_interval(k, eps, branch)
                assert m == sgn_r + 2 * kappa == geo.maslov(k, branch)


@pytest.mark.parametrize("eps", np.linspace(0.013, 0.947, 48).tolist())
def test_maslov_rotation_count_equals_closed_form(eps):
    # (m, kappa, sgn R) by rotation counting is the report's: the closed form
    # m = 2 floor(2k/(1 -+ eps)) + 2 sign(k) + 1 on both branches
    geo = Katok(eps)
    for k in [*range(1, 13), *range(-12, 0)]:
        for branch in (1, -1):
            x = 2.0 * k / (1.0 - branch * eps)
            assert abs(x - round(2.0 * x) / 2.0) > 1e-4  # the grid is non-resonant
            assert _report_maslov(geo, k, branch) == maslov_two_interval(k, eps, branch)


def test_katok_zero_period_window():
    eps = 1.0 / math.sqrt(5.0)
    f = make_gaussian(1.0)  # effective hat support well inside (-T#, T#)
    [p] = katok_c0([3], Katok(eps), f, KSumControl(4))
    assert p.d == 1.0
    # exact shell volume 2 pi E * 4 pi/(1 - eps^2); the published display
    # drops the (1-eps^2)^{-1} (valid only modulo eps^2)
    expect = 2.0 * SQRT2 * complex(f.phi_hat(0.0)) / (1.0 - eps * eps)
    assert p.c0 == pytest.approx(expect, rel=1e-14)


def test_katok_isolated_orbit_window_matches_assembly():
    eps = 1.0 / math.sqrt(5.0)
    Tsharp = TWO_PI * SQRT2 / (1.0 - eps * eps)
    f = make_fourier_bump(Tsharp, 0.4)  # isolates k = 1 for both branches
    N = 4
    geo = Katok(eps)
    [p] = katok_c0([N], geo, f, KSumControl(4))
    assert p.d == 0.0
    lev = EnergyLevel.from_E(SQRT2)
    inv = {o.orientation: o for o in geo.closed_orbits(lev.E, lev.c).orbits}
    total = 0.0 + 0.0j
    hat = complex(f.phi_hat(Tsharp))
    for label, branch in (("+", 1), ("-", -1)):
        ana = geo.return_map(SQRT2, branch)
        m = maslov_two_interval(1, eps, branch)[0]
        total += general_c0_nondegenerate(
            Tsharp=inv[label].T, m=m, S=inv[label].S,
            detIminusP=ana.det_i_minus_p, Tgamma=inv[label].T,
            phi_hat_at_Tgamma=hat, N=N)
    assert abs(p.c0 - total) <= 1e-12 * abs(total)


def test_katok_empty_window():
    eps = 1.0 / math.sqrt(5.0)
    f = make_fourier_bump(5.0, 0.5)  # no period inside [4.5, 5.5]
    [p] = katok_c0([2], Katok(eps), f, KSumControl(4))
    assert p.c0 == 0.0 and p.d == 0.0


def test_katok_mixed_support_rejected():
    eps = 1.0 / math.sqrt(5.0)
    Tsharp = TWO_PI * SQRT2 / (1.0 - eps * eps)
    f = make_fourier_bump(Tsharp / 2.0, Tsharp / 2.0 + 0.5)  # covers 0 and T#
    with pytest.raises(MixedSupportError):
        katok_c0([2], Katok(eps), f, KSumControl(4))
    # a support of about 54,000 nonzero periods: the message names their
    # number and the first and last, on one short line
    with pytest.raises(MixedSupportError) as exc:
        katok_c0([3], Katok(eps), make_gaussian(2e-5), KSumControl(4))
    msg = str(exc.value)
    assert len(msg) < 300 and "\n" not in msg
    assert "53612 nonzero period(s)" in msg and "-26806 to 26806" in msg


def test_katok_k_tail_covers_the_periods_k_max_leaves_out():
    # the support holds k = 2..4; k = 1 and k = 5 lie outside it, inside k_max
    eps, f = 0.1001, make_gaussian_modulated(0.2, 26.926563261565853)
    Tsharp = TWO_PI * SQRT2 / (1.0 - eps * eps)
    amp = 1.0 / (SQRT2 * (1.0 - eps * eps))
    omitted = sum(amp * float(f.phi_hat(k * Tsharp))
                  / abs(math.sin(math.pi * k / (1.0 - b * eps)))
                  for k in (1, 5) for b in (1, -1))
    tails = {katok_c0([40], Katok(eps), f, KSumControl(k_max), support_tol=1e-3)[0].k_tail
             for k_max in (4, 9, 12)}
    assert len(tails) == 1 and tails.pop() >= omitted > 2e-3


def test_katok_tiny_resonance_margin_is_accepted():
    # the guard's reach is taken at 1e-25 * margin / amp, below 1/DBL_MAX here
    eps, f = 1.0 / math.sqrt(5.0), make_gaussian(1.0)
    geo = Katok(eps)
    [p] = katok_c0([3], geo, f, KSumControl(4, resonance_margin=1e-290))
    assert p.k_tail == pytest.approx(katok_c0([3], geo, f, KSumControl(4))[0].k_tail, rel=1e-12)


def test_katok_scan_past_the_k_cap_is_refused():
    # the support reaches k = 1.8e5 periods, past MAX_K_MAX; the refusal comes
    # before the support is scanned, so no width makes that scan run long
    f = make_fourier_bump(1.5e6, 0.5e6)
    with pytest.raises(ValidationError, match="k is capped"):
        katok_c0([4], Katok(1.0 / math.sqrt(5.0)), f, KSumControl(4))


def test_katok_tail_guard_refuses_the_first_hit_plus_branch_first():
    # at margin 0.99 both branches of k = 1 hit (|sin| 0.975 and 0.663 at
    # eps = 0.3), and k = 1 lies outside the support around k = 3
    geo = Katok(0.3)
    f = make_gaussian_modulated(0.2, 3.0 * geo.k_frequency(SQRT2))
    with pytest.raises(ResonanceError, match=r"^k=1, branch \+"):
        katok_c0([40], geo, f, KSumControl(4, resonance_margin=0.99), support_tol=1e-3)


def test_katok_resonance_detection():
    # eps = 1/2: sin(pi k/(1-eps)) = sin(2 pi k) = 0 at k = 1
    with pytest.raises(ResonanceError):
        Katok(0.5).term(1, 1, +1, 1.0, 1e-6)
    # eps = 1/3, "+" branch: the sine is -1 (no determinant degeneracy) but
    # 2k/(1-eps) = 3 sits exactly on the index-formula discontinuity
    with pytest.raises(ResonanceError) as exc:
        Katok(1.0 / 3.0).term(1, 1, +1, 1.0, 1e-6)
    assert "lattice" in str(exc.value)
    # a generic irrational-like eps is clean on both branches
    for branch in (+1, -1):
        assert abs(Katok(0.3).term(1, 1, branch, 1.0, 1e-6)) > 0.0


# ---------------------------------------------------------------------------
# k-sums over an N grid
# ---------------------------------------------------------------------------

_LADDERS = [(Torus(), 2.0), (Sphere(R=0.5), SQRT2), (Hyperbolic(R=1.0, genus=2), 1.2)]
_GRID_HATS = {"gaussian": lambda T: make_gaussian(1.0),
              "modulated": lambda T: make_gaussian_modulated(1.0, 0.5),
              "bump": lambda T: make_fourier_bump(T, 0.5)}
_GRIDS = st.lists(st.integers(1, 10**6), min_size=1, max_size=10, unique=True).map(sorted)


def _bits(p):
    return (p.N, *(x.hex() for x in (p.c0.real, p.c0.imag, p.c1.real, p.c1.imag,
                                     p.d, p.k_tail)))


@pytest.mark.parametrize("hat", sorted(_GRID_HATS))
@pytest.mark.parametrize("model,E", _LADDERS, ids=["torus", "sphere", "hyperbolic"])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(Ns=_GRIDS)
def test_poisson_grid_equals_single_N_calls(model, E, hat, Ns):
    lev = EnergyLevel.from_E(E)
    freq = model.k_frequency(E)
    f = _GRID_HATS[hat](freq)
    ctl = KSumControl.for_function(f, freq, 1e-15)
    grid = poisson_c01(Ns, model, lev, f, ctl)
    assert [_bits(p) for p in grid] == [_bits(poisson_c01([N], model, lev, f, ctl)[0])
                                        for N in Ns]


@pytest.mark.parametrize("regime", ["zero_period", "tsharp"])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(Ns=_GRIDS)
def test_katok_grid_equals_single_N_calls(regime, Ns):
    geo = Katok(1.0 / math.sqrt(5.0))
    Tsharp = geo.k_frequency(SQRT2)
    f = make_gaussian(1.0) if regime == "zero_period" else make_fourier_bump(Tsharp, 0.4)
    grid = katok_c0(Ns, geo, f, KSumControl(4))
    assert grid[0].d == (1.0 if regime == "zero_period" else 0.0)
    assert [_bits(p) for p in grid] == [_bits(katok_c0([N], geo, f, KSumControl(4))[0])
                                        for N in Ns]


@pytest.mark.parametrize("model,E", _LADDERS, ids=["torus", "sphere", "hyperbolic"])
def test_grid_past_double_range_is_refused_at_its_first_such_N(model, E):
    # k_max * theta(N) overflows from N = 1e307; the first such N is named
    lev, f, ctl = EnergyLevel.from_E(E), make_gaussian(1.0), KSumControl(100)
    with pytest.raises(ValidationError) as single:
        poisson_c01([10**307], model, lev, f, ctl)
    with pytest.raises(ValidationError) as grid:
        poisson_c01([5, 10**307, 10**308], model, lev, f, ctl)
    assert str(grid.value) == str(single.value)
    assert "N=" + str(10**307) in str(grid.value)


def _counted(f, calls):
    """f with the points of every hat and hat-bound evaluation counted in calls:
    one per Python float, one per element of an array."""
    def count(name, fn):
        def wrapped(*args):
            calls[name] += np.size(args[-1])
            return fn(*args)
        return wrapped
    return dataclasses.replace(
        f, phi_hat=count("phi_hat", f.phi_hat), phi_hat_d1=count("phi_hat_d1", f.phi_hat_d1),
        phi_hat_d2=count("phi_hat_d2", f.phi_hat_d2),
        _hat_abs_fn=count("hat_abs_bounds", f._hat_abs_fn))


_EPS5 = 1.0 / math.sqrt(5.0)
_TSHARP5 = Katok(_EPS5).k_frequency(SQRT2)
# every hat bound, of one order (katok) or of all three (the k-tails), is
# one call of the all-orders envelope, counted as "hat_abs_bounds"
_ALL_ONCE = ("phi_hat", "phi_hat_d1", "phi_hat_d2", "hat_abs_bounds")
_KATOK_ONCE = ("phi_hat", "hat_abs_bounds")


@pytest.mark.parametrize("model,E,f,expect", [
    (Torus(), 2.0, make_gaussian(1.0), _ALL_ONCE),
    (Sphere(R=0.5), SQRT2, make_gaussian_modulated(1.0, 0.5), _ALL_ONCE),
    (Hyperbolic(R=1.0, genus=2), 1.2, make_fourier_bump(0.0, 1.0), _ALL_ONCE),
    (Katok(_EPS5), SQRT2, make_gaussian(1.0), _KATOK_ONCE),
    (Katok(_EPS5), SQRT2, make_fourier_bump(_TSHARP5, 0.4), _KATOK_ONCE),
], ids=["torus", "sphere", "hyperbolic", "katok-zero-period", "katok-tsharp"])
def test_predict_evaluates_each_hat_once_per_grid(model, E, f, expect):
    # a ten-N grid evaluates each hat at the points a one-N grid does, and
    # phi_hat at each summed period once
    ctl = KSumControl.for_function(f, model.k_frequency(E), 1e-15)
    counts = []
    for Ns in ([100], list(range(100, 1001, 100))):
        calls = Counter()
        preds = model.predict(Ns, EnergyLevel.from_E(E), _counted(f, calls), ctl, 1e-12)
        assert [p.N for p in preds] == Ns
        counts.append(calls)
    assert counts[1] == counts[0] and set(counts[0]) == set(expect)
    summed = 1 if isinstance(model, Katok) else 2 * ctl.k_max + 1
    assert counts[0]["phi_hat"] == summed


# ---------------------------------------------------------------------------
# k-tails against 40-digit sums of what they leave out
# ---------------------------------------------------------------------------

def _mp_hat(members, xi):
    """phi_hat and its first two derivatives at xi, 40 digits, for the sum
    of (coeff, kind, a, b) members: gaussian width a, centre b; bump centre
    a, half-width b."""
    out = [mpmath.mpc(0)] * 3
    for coeff, kind, a, b in members:
        if kind == "gaussian":
            u = xi - b
            h = a * mpmath.sqrt(2 * mpmath.pi) * mpmath.exp(-a * a * u * u / 2)
            hs = (h, -a * a * u * h, (a**4 * u * u - a * a) * h)
        else:
            t = (xi - a) / b
            om = 1 - t * t
            e = mpmath.exp(-1 / om) if om > 0 else mpmath.mpf(0)
            hs = (e, e * -2 * t / (b * om**2), e * 2 * (3 * t**4 - 1) / (b * b * om**4))
        out = [o + coeff * h for o, h in zip(out, hs)]
    return out


def _build(members):
    fns = [make_gaussian_modulated(a, b) if kind == "gaussian" else make_fourier_bump(a, b)
           for _, kind, a, b in members]
    return fns[0] if len(fns) == 1 else linear_combination([m[0] for m in members], fns)


# members as functions of the first period: the modulated gaussian is
# centred on it, the bump on the second
_K_HATS = {"gaussian": lambda T: [(1.0, "gaussian", 1.0, 0.0)],
           "modulated": lambda T: [(1.0, "gaussian", 1.0, T)],
           "bump": lambda T: [(1.0, "bump", 2.0 * T, 0.5)],
           "combination": lambda T: [(1.0, "gaussian", 1.0, 0.0),
                                     (-0.5j, "gaussian", 1.5, 1.0)]}
_K_GEOMETRIES = [(Torus(), 2.0), (Sphere(R=0.5), SQRT2), (Hyperbolic(R=1.0, genus=2), 1.2),
                 (Katok(1.0 / math.sqrt(5.0)), SQRT2)]


@pytest.mark.parametrize("k_max", ["small", "auto"])
@pytest.mark.parametrize("hat", sorted(_K_HATS))
@pytest.mark.parametrize("model,E", _K_GEOMETRIES,
                         ids=["torus", "sphere", "hyperbolic", "katok"])
def test_k_tail_dominates_brute_force(model, E, hat, k_max):
    freq = model.k_frequency(E)
    members = _K_HATS[hat](freq)
    f = _build(members)
    ctl = KSumControl(0) if k_max == "small" else KSumControl.for_function(f, freq, 1e-15)
    k_tail = model.predict([40], EnergyLevel.from_E(E), f, ctl, 1e-12)[0].k_tail
    reach = (abs(f.hat_center) + f.hat_radius(1e-300)) / freq
    ks = [k for k in range(-10 * int(reach) - 10, 10 * int(reach) + 11) if k]
    with mpmath.workdps(40):
        mp_E = mpmath.mpf(E)
        if isinstance(model, Katok):
            lo, hi = f.hat_support_interval(1e-12)
            eps = mpmath.mpf(model.eps)
            T = 2 * mpmath.pi * mpmath.sqrt(2) / (1 - eps * eps)
            amp = 1 / (mpmath.sqrt(2) * (1 - eps * eps))
            terms = [amp * abs(_mp_hat(members, k * T)[0])
                     * (1 / abs(mpmath.sin(mpmath.pi * k / (1 - eps)))
                        + 1 / abs(mpmath.sin(mpmath.pi * k / (1 + eps))))
                     for k in ks if not lo <= k * freq <= hi]
        else:
            b, K = mpmath.mpf(model.field), mpmath.mpf(model.curvature)
            c = mpmath.mpf(model.measure_coeff)
            Q = mpmath.sqrt(b * b + K * (mp_E * mp_E - 1))
            a2, a0 = mpmath.pi * mp_E * (b * b - K) / Q**3, mpmath.pi * K * mp_E / (4 * Q)
            terms = []
            for k in ks:
                if abs(k) > ctl.k_max:
                    h0, h1, h2 = _mp_hat(members, k * 2 * mpmath.pi * mp_E / Q)
                    terms.append(c * (abs(mp_E * h0) + abs(h1 + a2 * k * h2 - a0 * k * h0)))
        brute = mpmath.fsum(terms)
    assert brute <= k_tail


# ---------------------------------------------------------------------------
# residual diagnostics and the cluster check
# ---------------------------------------------------------------------------

def _fake_pair(N, c0, c1, y, abs_scale=None):
    t = TraceValue(N=N, value=complex(y), tail_bound=0.0,
                   abs_sum=abs(y) if abs_scale is None else abs_scale)
    p = CoefficientPrediction(N=N, c0=complex(c0), c1=complex(c1), d=1.0,
                              k_tail=0.0)
    return t, p


def test_residual_report_exact_input_converges():
    c0, c1 = 0.8, -0.3
    pairs = [_fake_pair(N, c0, c1, c0 * N + c1) for N in (10, 20, 40, 80, 160)]
    rep = residual_report([t for t, _ in pairs], [p for _, p in pairs])
    assert rep.converged and rep.slope is None


def test_residual_report_constructed_decay():
    c0, c1 = 0.8, -0.3
    Ns = [10, 20, 40, 80, 160, 320]
    pairs = [_fake_pair(N, c0, c1, c0 * N + c1 + 1.0 / N) for N in Ns]
    rep = residual_report([t for t, _ in pairs], [p for _, p in pairs])
    assert not rep.converged
    assert rep.slope == pytest.approx(-1.0, abs=0.01)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_residual_report_median_matches_numpy(n):
    # odd and even counts, with a tie among the middle values when n = 8
    c0, c1 = 0.8, -0.3
    bumps = np.random.default_rng(n).uniform(0.5, 2.0, n)
    if n == 8:
        bumps[3] = bumps[5]
    pairs = [_fake_pair(N, c0, c1, c0 * N + c1 + b / N)
             for N, b in zip([10 * 2**i for i in range(n)], bumps)]
    rep = residual_report([t for t, _ in pairs], [p for _, p in pairs])
    assert rep.median_scaled == float(np.median(rep.scaled))


def test_residual_report_validation():
    pairs = [_fake_pair(N, 1.0, 0.0, N * 1.0) for N in (1, 2, 3)]
    with pytest.raises(ValidationError):
        residual_report([t for t, _ in pairs], [p for _, p in pairs])


def test_cluster_check_values():
    # at E = sqrt(1 + 4 pi m) the Bohr-Sommerfeld cluster is the rung j* = m N,
    # with lam = sqrt(E^2 N^2 + 2 pi N)
    E = math.sqrt(1.0 + 4.0 * math.pi)
    m = round((E * E - 1.0) / (4.0 * math.pi))
    assert m == 1  # so j* = N
    lam = math.sqrt(Torus().ladder(10, m * 10)[0] + 10 * 10)
    lam_formula = math.sqrt(E * E * 100.0 + TWO_PI * 10.0)
    assert lam == pytest.approx(lam_formula, rel=1e-15)
    assert abs(lam - lam_formula) / lam_formula < 1e-14


def test_cluster_gap_limit():
    # N (lam - E N - pi/E) -> -pi^2/(2 E^3): arithmetic-expansion oracle
    E = math.sqrt(1.0 + 4.0 * math.pi)
    gaps = [N * abs(math.sqrt(Torus().ladder(N, N)[0] + N * N) - E * N - math.pi / E)
            for N in range(10, 201, 10)]
    assert max(gaps) <= 2.0 * gaps[-1] + 1.0
    limit = math.pi**2 / (2.0 * E**3)
    assert gaps[-1] == pytest.approx(limit, rel=0.05)
