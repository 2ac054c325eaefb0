"""Trace-sum evaluation against brute-force oracles and its invariants."""

import math

import numpy as np

from labchecks import linear_combination
from magtrace import (EnergyLevel, Sphere, Torus, make_fourier_bump, make_gaussian,
                      make_gaussian_modulated, y_n)

TWO_PI = 2.0 * math.pi


def _torus_brute(N, E, f, j_max=1_000_000):
    j = np.arange(0, j_max, dtype=float)
    lam = np.sqrt(N * N + TWO_PI * N * (2.0 * j + 1.0))
    vals = np.asarray(f.phi(lam - E * N))
    if f.complex_valued:
        return complex(math.fsum(N * vals.real), math.fsum(N * vals.imag))
    return complex(math.fsum(N * vals.astype(float)), 0.0)


def test_zero_function_gives_exact_zero():
    f = linear_combination([0.0], [make_gaussian(1.0)])
    t = y_n(Torus(), 10, EnergyLevel.from_E(2.0), f)
    assert t.value == 0.0 + 0.0j


def test_torus_matches_brute_force():
    f = make_gaussian(1.0)
    t = y_n(Torus(), 20, EnergyLevel.from_E(2.0), f, tail_tol=1e-14)
    brute = _torus_brute(20, 2.0, f)
    assert abs(t.value - brute) <= 1e-12 * abs(brute)


def test_sphere_matches_brute_force():
    f = make_gaussian(1.0)
    model = Sphere(R=0.5)
    E = math.sqrt(2.0)
    t = y_n(model, 15, EnergyLevel.from_E(E), f, tail_tol=1e-14)
    j = np.arange(0, 1_000_000, dtype=float)
    lam = np.sqrt(225.0 + (j * (j + 1.0) + 7.5 * (2.0 * j + 1.0)) / 0.25)
    brute = math.fsum((15 + 2.0 * j + 1.0) * np.asarray(f.phi(lam - 15.0 * E), dtype=float))
    assert abs(t.value - brute) <= 1e-12 * abs(brute)


def test_real_input_real_output_exactly():
    f = make_gaussian(1.0)
    t = y_n(Torus(), 33, EnergyLevel.from_E(1.7), f)
    assert t.value.imag == 0.0


def test_complex_test_function_complex_trace():
    f = make_gaussian_modulated(1.0, 1.0)
    t = y_n(Torus(), 20, EnergyLevel.from_E(2.0), f)
    assert t.value.imag != 0.0
    brute = _torus_brute(20, 2.0, f)
    assert abs(t.value - brute) <= 1e-12 * abs(brute)


def test_linearity():
    f1 = make_gaussian(1.0)
    f2 = make_fourier_bump(0.0, 1.0)
    a, b = 1.75, -0.4
    combo = linear_combination([a, b], [f1, f2])
    lev = EnergyLevel.from_E(2.0)
    t1 = y_n(Torus(), 30, lev, f1)
    t2 = y_n(Torus(), 30, lev, f2)
    tc = y_n(Torus(), 30, lev, combo)
    expect = a * t1.value + b * t2.value
    assert abs(tc.value - expect) <= 1e-13 * max(1.0, abs(expect))


def test_truncation_soundness():
    f = make_gaussian(1.0)
    lev = EnergyLevel.from_E(2.0)
    t_small = y_n(Torus(), 40, lev, f, tail_tol=1e-8)
    # quadrupling log(1/tol) doubles the gaussian window radius
    t_big = y_n(Torus(), 40, lev, f, tail_tol=1e-32)
    assert abs(t_small.value - t_big.value) <= t_small.tail_bound


def test_summation_order_independence():
    # exact summation: ascending and descending accumulation agree bitwise
    f = make_gaussian(1.0)
    from magtrace import enumerate_window
    win = enumerate_window(Torus(), 50, EnergyLevel.from_E(2.0), f, 1e-14)
    terms = win.mult * np.asarray(f.phi(win.x), dtype=float)
    assert math.fsum(terms) == math.fsum(terms[::-1])

