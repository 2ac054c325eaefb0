"""Coefficient predictions, general-form building blocks, diagnostics."""

import cmath
import math

import numpy as np
import pytest

from magtrace import (CoefficientPrediction, DegenerateOrbitError, EnergyLevel,
                      Hyperbolic, Katok, KSumControl, ManeLevelError,
                      MixedSupportError, ResonanceError, Sphere, Torus,
                      TraceValue, ValidationError, general_c0_nondegenerate,
                      general_c0_volume, katok_c0, katok_term_closed,
                      make_fourier_bump, make_gaussian, make_gaussian_modulated,
                      maslov_katok, poisson_c01, residual_report,
                      torus_cluster_check)

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
    p = poisson_c01(7, Torus(), lev, f, KSumControl(8))
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
    p = poisson_c01(5, Torus(), lev, f, KSumControl(8))
    assert p.c0 == pytest.approx((E / TWO_PI) * complex(f.phi_hat(0.0)), rel=1e-15)
    assert p.c1 == pytest.approx((1j / TWO_PI) * complex(f.phi_hat_d1(0.0)), rel=1e-14)


def test_torus_wide_k_oracle():
    E, N = 2.0, 7
    lev = EnergyLevel.from_E(E)
    f = make_gaussian(1.0)
    p = poisson_c01(N, Torus(), lev, f, KSumControl(8))
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
        p = poisson_c01(N, Torus(), lev, f, ctl)
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
    p1 = poisson_c01(9, Torus(), lev, f, KSumControl(6))
    p2 = poisson_c01(9, Torus(), lev, f, KSumControl(12))
    assert abs(p2.c0 - p1.c0) <= p1.k_tail
    assert abs(p2.c1 - p1.c1) <= p1.k_tail


def test_torus_bohr_sommerfeld_phase_is_N_independent():
    E = math.sqrt(1.0 + 4.0 * math.pi)  # (E^2-1)/2 = 2 pi
    lev = EnergyLevel.from_E(E)
    f = make_gaussian(1.0)
    preds = [poisson_c01(N, Torus(), lev, f, KSumControl(10)) for N in (3, 17, 64)]
    for p in preds[1:]:
        assert p.c0 == pytest.approx(preds[0].c0, rel=1e-14)
        assert p.c1 == pytest.approx(preds[0].c1, rel=1e-14)


def test_real_test_function_gives_real_c0():
    lev = EnergyLevel.from_E(2.0)
    f = make_gaussian(1.0)
    for N in (1, 5, 23, 111):
        p = poisson_c01(N, Torus(), lev, f, KSumControl(10))
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
        p = poisson_c01(N, Torus(), lev, f, ctl)
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
        p = poisson_c01(N, model, lev, f, KSumControl(12))
        c0, c1 = _sphere_specialized_half(N, lev.E, f, 12)
        assert abs(p.c0 - c0) <= 1e-14 * abs(c0)
        assert abs(p.c1 - c1) <= 1e-14 * max(abs(c1), 1e-3)


def test_sphere_wide_k_oracle():
    model = Sphere(R=0.5)
    lev = EnergyLevel.from_E(SQRT2)
    f = make_gaussian(1.0)
    p = poisson_c01(4, model, lev, f, KSumControl(10))
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
        p = poisson_c01(N, model, lev, f, ctl)
        assert N * abs(y - p.c0 * N - p.c1) < 1.0


def test_sphere_volume_term():
    # k = 0 coefficient equals the phase-space volume term exactly
    model = Sphere(R=0.75)
    E = 1.9
    lev = EnergyLevel.from_E(E)
    f = make_fourier_bump(0.0, 0.5)  # only k = 0 in the support
    p = poisson_c01(3, model, lev, f, KSumControl(6))
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
    p = poisson_c01(6, model, lev, f, KSumControl(6))
    vol = TWO_PI**2 * (2 * model.genus - 2) * lev.E * model.R**2
    assert p.c0 == pytest.approx(general_c0_volume(complex(f.phi_hat(0.0)), vol, 2),
                                 rel=1e-13)
    # boundary guard: 1.41 passes, sqrt(2) does not
    poisson_c01(6, model, EnergyLevel.from_E(1.41), f, KSumControl(6))
    with pytest.raises(ManeLevelError) as exc:
        poisson_c01(6, model, EnergyLevel.from_E(SQRT2), f, KSumControl(6))
    assert exc.value.boundary == pytest.approx(SQRT2, rel=1e-15)


def test_hyperbolic_wide_k_oracle():
    model = Hyperbolic(R=1.0, genus=2)
    E = 1.2
    lev = EnergyLevel.from_E(E)
    f = make_gaussian(0.25)  # wide transform so k = +-1 terms matter
    p = poisson_c01(6, model, lev, f, KSumControl(10))
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
    p = poisson_c01(4, Torus(), lev, f, KSumControl(4))
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

def test_maslov_index_examples():
    assert maslov_katok(1, 0.3, "+").m == 7
    assert maslov_katok(1, 0.3, "-").m == 5
    assert maslov_katok(-1, 0.3, "+").m == -7
    d = maslov_katok(1, 0.3, "+")
    assert (d.kappa, d.sgn_r) == (3, 1)
    d = maslov_katok(1, 0.3, "-")
    assert (d.kappa, d.sgn_r) == (2, 1)


def test_maslov_rotation_counting_consistency():
    rng = np.random.default_rng(7)
    for eps in rng.uniform(0.05, 0.92, 12):
        for k in (1, 2, 3, -1, -2, -3, 5, -5):
            for orientation in ("+", "-"):
                x = 2.0 * k / (1.0 - (1 if orientation == "+" else -1) * eps)
                if abs(x - round(2.0 * x) / 2.0) < 1e-3:
                    continue
                d = maslov_katok(k, eps, orientation)
                assert d.m == d.sgn_r + 2 * d.kappa


@pytest.mark.parametrize("eps", np.linspace(0.013, 0.947, 48).tolist())
def test_maslov_rotation_count_equals_closed_form(eps):
    # m = sgn R + 2 kappa by rotation counting is the closed form
    # 2 floor(2k/(1 -+ eps)) + 2 sign(k) + 1 on both branches
    for k in [*range(1, 13), *range(-12, 0)]:
        for orientation, sg in (("+", 1), ("-", -1)):
            x = 2.0 * k / (1.0 - sg * eps)
            assert abs(x - round(2.0 * x) / 2.0) > 1e-4  # the grid is non-resonant
            m = maslov_katok(k, eps, orientation).m
            assert m == 2 * math.floor(x) + 2 * (1 if k > 0 else -1) + 1


def test_katok_zero_period_window():
    eps = 1.0 / math.sqrt(5.0)
    f = make_gaussian(1.0)  # effective hat support well inside (-T#, T#)
    p = katok_c0(3, eps, f, KSumControl(4))
    assert p.d == 1.0
    # exact shell volume 2 pi E * 4 pi/(1 - eps^2); the published display
    # drops the (1-eps^2)^{-1} (valid only modulo eps^2)
    expect = 2.0 * SQRT2 * complex(f.phi_hat(0.0)) / (1.0 - eps * eps)
    assert p.c0 == pytest.approx(expect, rel=1e-14)


def test_katok_isolated_orbit_window_matches_assembly():
    from magtrace import katok_poincare_analytic
    eps = 1.0 / math.sqrt(5.0)
    Tsharp = TWO_PI * SQRT2 / (1.0 - eps * eps)
    f = make_fourier_bump(Tsharp, 0.4)  # isolates k = 1 for both branches
    N = 4
    p = katok_c0(N, eps, f, KSumControl(4))
    assert p.d == 0.0
    lev = EnergyLevel.from_E(SQRT2)
    inv = {o.orientation: o for o in Katok(eps).closed_orbits(lev.E, lev.c).orbits}
    total = 0.0 + 0.0j
    hat = complex(f.phi_hat(Tsharp))
    for label in ("+", "-"):
        ana = katok_poincare_analytic(eps, SQRT2, label)
        m = maslov_katok(1, eps, label).m
        total += general_c0_nondegenerate(
            Tsharp=inv[label].Tsharp, m=m, S=inv[label].S,
            detIminusP=ana.det_i_minus_p, Tgamma=inv[label].Tsharp,
            phi_hat_at_Tgamma=hat, N=N)
    assert abs(p.c0 - total) <= 1e-12 * abs(total)


def test_katok_empty_window():
    eps = 1.0 / math.sqrt(5.0)
    f = make_fourier_bump(5.0, 0.5)  # no period inside [4.5, 5.5]
    p = katok_c0(2, eps, f, KSumControl(4))
    assert p.c0 == 0.0 and p.d == 0.0


def test_katok_mixed_support_rejected():
    eps = 1.0 / math.sqrt(5.0)
    Tsharp = TWO_PI * SQRT2 / (1.0 - eps * eps)
    f = make_fourier_bump(Tsharp / 2.0, Tsharp / 2.0 + 0.5)  # covers 0 and T#
    with pytest.raises(MixedSupportError):
        katok_c0(2, eps, f, KSumControl(4))


def test_katok_resonance_detection():
    # eps = 1/2: sin(pi k/(1-eps)) = sin(2 pi k) = 0 at k = 1
    with pytest.raises(ResonanceError):
        katok_term_closed(1, 0.5, 1, +1, 1.0)
    # eps = 1/3, "+" branch: the sine is -1 (no determinant degeneracy) but
    # 2k/(1-eps) = 3 sits exactly on the index-formula discontinuity
    with pytest.raises(ResonanceError) as exc:
        katok_term_closed(1, 1.0 / 3.0, 1, +1, 1.0)
    assert "lattice" in str(exc.value)
    # a generic irrational-like eps is clean on both branches
    for branch in (+1, -1):
        assert abs(katok_term_closed(1, 0.3, 1, branch, 1.0)) > 0.0


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


def test_residual_report_validation():
    pairs = [_fake_pair(N, 1.0, 0.0, N * 1.0) for N in (1, 2, 3)]
    with pytest.raises(ValidationError):
        residual_report([t for t, _ in pairs], [p for _, p in pairs])


def test_cluster_check_values():
    E = math.sqrt(1.0 + 4.0 * math.pi)
    lev = EnergyLevel.from_E(E)
    rep = torus_cluster_check(lev, [10])
    assert rep.j_star[0] == 10
    assert rep.lam[0] == pytest.approx(math.sqrt(E * E * 100.0 + TWO_PI * 10.0),
                                       rel=1e-15)
    assert rep.formula_rel_dev[0] < 1e-14
    # smallest case: m = 1, N = 1
    rep1 = torus_cluster_check(lev, [1])
    assert rep1.j_star[0] == 1


def test_cluster_gap_limit():
    # N (lam - E N - pi/E) -> -pi^2/(2 E^3): arithmetic-expansion oracle
    E = math.sqrt(1.0 + 4.0 * math.pi)
    lev = EnergyLevel.from_E(E)
    rep = torus_cluster_check(lev, list(range(10, 201, 10)))
    assert rep.bounded
    limit = math.pi**2 / (2.0 * E**3)
    assert rep.scaled_gap[-1] == pytest.approx(limit, rel=0.05)


def test_cluster_check_requires_quantized_energy():
    with pytest.raises(ValidationError):
        torus_cluster_check(EnergyLevel.from_E(2.0), [10])
