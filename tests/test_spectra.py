"""Eigenvalue ladders and certified window queries."""

import math

import numpy as np
import pytest

from magtrace import spectra
from magtrace import (EnergyLevel, Hyperbolic, ManeLevelError, Sphere,
                      Torus, ValidationError, enumerate_window, levels,
                      make_fourier_bump, make_gaussian)

TWO_PI = 2.0 * math.pi


def test_torus_level_values():
    e = levels(Torus(), 1, 0)
    assert e.nu == pytest.approx(TWO_PI, abs=1e-14)
    assert e.mult == 1
    e = levels(Torus(), 3, 2)
    assert e.nu == pytest.approx(30.0 * math.pi, rel=1e-15)
    assert e.mult == 3
    # frozen arithmetic oracle: sqrt(25 + 10 pi)
    assert levels(Torus(), 5, 0).lam == pytest.approx(7.511053623553618, abs=1e-14)


def test_sphere_level_values():
    m = Sphere(R=0.5)
    e = levels(m, 1, 0)
    assert e.nu == pytest.approx(2.0, abs=1e-14)
    assert e.mult == 2
    m1 = Sphere(R=1.0)
    e = levels(m1, 2, 1)
    assert e.nu == pytest.approx(5.0, abs=1e-14)
    assert e.mult == 5
    e = levels(m1, 1, 0)
    assert e.lam == pytest.approx(math.sqrt(1.5), abs=1e-15)


def test_hyperbolic_level_values_and_range():
    m = Hyperbolic(R=1.0, genus=2)
    e = levels(m, 2, 0)
    assert e.nu == pytest.approx(2.0, abs=1e-13)
    assert e.mult == 3
    e = levels(m, 2, 1)
    assert e.nu == pytest.approx(4.0, abs=1e-13)
    assert e.mult == 1
    with pytest.raises(ValidationError):
        levels(m, 2, 2)


@pytest.mark.parametrize("R", [0.3, 1.0, 2.5])
def test_hyperbolic_displayed_forms_agree(R):
    # nu = [1/4 + N^2 - (j+1/2-N)^2]/R^2 = [(2j+1) N - j(j+1)]/R^2
    m = Hyperbolic(R=R, genus=3)
    for N in (1, 2, 7, 40, 1_000, 123_457, 10**7):
        for j in sorted({0, min(1, N - 1), N // 3, N // 2, N - 1}):
            nu = levels(m, N, j).nu
            alt = ((2 * j + 1.0) * N - j * (j + 1.0)) / (R * R)
            assert abs(nu - alt) <= 1e-15 * max(1.0, abs(nu)), (N, j)


def test_model_validation():
    with pytest.raises(ValidationError):
        Torus(B=1.0)
    with pytest.raises(ValidationError):
        Sphere(R=-1.0)
    with pytest.raises(ValidationError):
        Sphere(R=1.0, B=1.0)
    with pytest.raises(ValidationError):
        Hyperbolic(R=1.0, genus=1)
    with pytest.raises(ValidationError):
        EnergyLevel.from_E(1.0)


def test_energy_level_relations():
    lev = EnergyLevel.from_E(2.0)
    assert lev.c**2 == pytest.approx(lev.E**2 - 1.0, rel=1e-15)


@pytest.mark.parametrize("maker", [
    lambda j: levels(Torus(), 7, j).nu,
    lambda j: levels(Sphere(R=0.5), 7, j).nu,
])
def test_monotonicity_in_j(maker):
    nus = np.array([maker(j) for j in range(0, 10_001, 250)])
    assert np.all(np.diff(nus) > 0)


def test_hyperbolic_monotone_and_bounded():
    m = Hyperbolic(R=1.0, genus=2)
    N = 10_000
    js = np.arange(0, N)
    nus = (0.25 + N * N - (js + 0.5 - N) ** 2) / m.R**2
    assert np.all(np.diff(nus) > 0)
    lam_cap = math.sqrt(N * N + (N * N + 0.25) / m.R**2)
    entries = [levels(m, N, int(j)) for j in (0, N // 2, N - 1)]
    assert all(e.lam > N for e in entries)
    assert all(e.lam < lam_cap for e in entries)
    mults = [e.mult for e in entries]
    assert mults[0] > mults[1] > mults[2] >= 1


def _torus_brute(N, E, f, j_max=1_000_000):
    j = np.arange(0, j_max, dtype=float)
    lam = np.sqrt(N * N + TWO_PI * N * (2.0 * j + 1.0))
    return math.fsum(N * np.asarray(f.phi(lam - E * N), dtype=float))


def _sphere_brute(model, N, E, f, j_max=1_000_000):
    j = np.arange(0, j_max, dtype=float)
    lam = np.sqrt(N * N + (j * (j + 1.0) + 0.5 * N * (2.0 * j + 1.0)) / model.R**2)
    return math.fsum((N + 2.0 * j + 1.0) * np.asarray(f.phi(lam - E * N), dtype=float))


def test_torus_window_completeness_and_tail():
    f = make_gaussian(1.0)
    lev = EnergyLevel.from_E(2.0)
    win = enumerate_window(Torus(), 10, lev, f, 1e-14)
    windowed = math.fsum(win.mult * np.asarray(f.phi(win.x), dtype=float))
    brute = _torus_brute(10, 2.0, f)
    assert abs(windowed - brute) <= win.tail_bound + 1e-15
    assert win.tail_bound < 1e-12


def test_sphere_window_completeness():
    f = make_gaussian(1.0)
    lev = EnergyLevel.from_E(math.sqrt(2.0))
    model = Sphere(R=0.5)
    win = enumerate_window(model, 15, lev, f, 1e-14)
    windowed = math.fsum(win.mult * np.asarray(f.phi(win.x), dtype=float))
    brute = _sphere_brute(model, 15, math.sqrt(2.0), f)
    assert abs(windowed - brute) <= win.tail_bound + 1e-15


def test_bump_window_tail_is_valid_bound():
    f = make_fourier_bump(0.0, 1.0)
    lev = EnergyLevel.from_E(2.0)
    win = enumerate_window(Torus(), 12, lev, f, 1e-10)
    windowed = math.fsum(win.mult * np.asarray(f.phi(win.x), dtype=float))
    brute = _torus_brute(12, 2.0, f, j_max=2_000_000)
    assert abs(windowed - brute) <= win.tail_bound


def test_hyperbolic_window_range_and_mane_guard():
    f = make_gaussian(1.0)
    m = Hyperbolic(R=1.0, genus=2)
    win = enumerate_window(m, 3, EnergyLevel.from_E(1.2), f, 1e-14)
    assert len(win.j) <= 3  # integrable range 0 <= j < N - 1/2 forces it
    with pytest.raises(ManeLevelError) as exc:
        enumerate_window(m, 3, EnergyLevel.from_E(1.5), f, 1e-14)
    assert exc.value.boundary == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_hyperbolic_full_integrable_range_vs_brute():
    f = make_gaussian(0.5)
    m = Hyperbolic(R=1.0, genus=2)
    E = 1.2
    N = 40
    win = enumerate_window(m, N, EnergyLevel.from_E(E), f, 1e-14)
    windowed = math.fsum(win.mult * np.asarray(f.phi(win.x), dtype=float))
    js = np.arange(0, N, dtype=float)
    lam = np.sqrt(N * N + (0.25 + N * N - (js + 0.5 - N) ** 2) / m.R**2)
    mult = (m.genus - 1) * (2.0 * N - 2.0 * js - 1.0)
    brute = math.fsum(mult * np.asarray(f.phi(lam - E * N), dtype=float))
    assert abs(windowed - brute) <= win.tail_bound + 1e-15


def test_window_doubling_within_bound():
    # enlarging the window moves the sum by less than the certified bound
    f = make_gaussian(1.0)
    lev = EnergyLevel.from_E(2.0)
    small = enumerate_window(Torus(), 25, lev, f, 1e-8)
    big = enumerate_window(Torus(), 25, lev, f, 1e-30)
    s = math.fsum(small.mult * np.asarray(f.phi(small.x), dtype=float))
    b = math.fsum(big.mult * np.asarray(f.phi(big.x), dtype=float))
    assert abs(s - b) <= small.tail_bound


def test_window_entries_ascending_and_consistent():
    f = make_gaussian(1.0)
    win = enumerate_window(Sphere(R=0.5), 9, EnergyLevel.from_E(1.5), f, 1e-12)
    assert np.all(np.diff(win.j) == 1)
    for nu, lam, mult in zip(win.nu, win.lam, win.mult):
        assert lam == pytest.approx(math.sqrt(nu + win.N**2), rel=1e-15)
        assert mult >= 1


# the benchmark's three ladders and energies
_LADDERS = [(Torus(), 2.0), (Sphere(R=0.5), math.sqrt(2.0)),
            (Hyperbolic(R=1.0, genus=2), 1.2)]


@pytest.mark.parametrize("model,E", _LADDERS, ids=["torus", "sphere", "hyperbolic"])
def test_window_budget_admits_N_1e7(model, E):
    radius = make_gaussian(1.0).radius(1e-14)
    N = 10**7
    j_first, j_last = spectra._window_indices(model, N, E, radius)
    assert 0 < j_first <= j_last < spectra.MAX_WINDOW_RUNGS
    if isinstance(model, Hyperbolic):
        assert N - j_first <= spectra.MAX_WINDOW_RUNGS


def test_window_budget_refuses_before_allocating(monkeypatch):
    def no_arrays(*args, **kwargs):
        raise AssertionError("a refused window allocated its ladder")
    monkeypatch.setattr(spectra.np, "arange", no_arrays)
    wide = make_gaussian(1e6)  # radius 8e6: about 1.3e10 torus rungs at N=400
    with pytest.raises(ValidationError, match="ladder rungs, over the budget"):
        enumerate_window(Torus(), 400, EnergyLevel.from_E(2.0), wide, 1e-14)
    # N itself bounds the hyperbolic ladder
    with pytest.raises(ValidationError, match="over the budget"):
        enumerate_window(Hyperbolic(R=1.0, genus=2), 10**9,
                         EnergyLevel.from_E(1.2), make_gaussian(1.0), 1e-14)
    # E*N is finite but lam^2 overflows
    with pytest.raises(ValidationError, match="no finite ladder index bounds"):
        enumerate_window(Torus(), 400, EnergyLevel.from_E(1e154),
                         make_gaussian(1.0), 1e-14)
    with pytest.raises(ValidationError, match="finite square"):
        EnergyLevel.from_E(1e200)


# ---------------------------------------------------------------------------
# closed-form tail bounds against brute-force ladder sums
# ---------------------------------------------------------------------------

def _rungs(model, N, j_hi):
    """lam and mult of rungs 0..j_hi, from the displayed level formulas."""
    j = np.arange(0, j_hi + 1, dtype=float)
    if isinstance(model, Torus):
        nu, mult = TWO_PI * N * (2.0 * j + 1.0), np.full(j.shape, float(N))
    elif isinstance(model, Sphere):
        nu = (j * (j + 1.0) + 0.5 * N * (2.0 * j + 1.0)) / model.R**2
        mult = N + 2.0 * j + 1.0
    else:
        nu = ((2.0 * j + 1.0) * N - j * (j + 1.0)) / model.R**2
        mult = (model.genus - 1) * (2.0 * N - 2.0 * j - 1.0)
    return np.sqrt(nu + N * N), mult


def _brute_omitted(model, N, E, f, win, reach):
    """fsum of mult * env(|x|) over every rung outside the window.

    env >= |phi|, so this dominates the omitted part of Y_N.  An infinite
    ladder is summed out to x = reach past E N.
    """
    if isinstance(model, Hyperbolic):
        j_hi = N - 1
    else:
        j_hi = int(math.ceil(model.j_of_lam(N, E * N + reach)))
    lam, mult = _rungs(model, N, j_hi)
    t = mult * np.asarray(f.time_env(np.abs(lam - E * N)), dtype=float)
    if win.j.size:
        t[win.j[0]:win.j[-1] + 1] = 0.0
    return math.fsum(t)


def _sweep_reference(model, N, E, f, win):
    """The O(N) bound the closed forms replaced, inlined as the reference.

    An exact fsum over every rung below the window (and, on the hyperbolic
    ladder, above it), the unchanged upper walk on infinite ladders, and the
    hyperbolic non-integrable majorant.
    """
    env = f.time_env
    if isinstance(model, Hyperbolic):
        j_hi = N - 1
    else:
        j_hi = int(math.ceil(model.j_of_lam(N, E * N))) + 2
    lam, mult = _rungs(model, N, j_hi)
    t = mult * np.asarray(env(np.abs(lam - E * N)), dtype=float)
    if win.j.size:
        first, last = int(win.j[0]), int(win.j[-1])
    else:
        first = int(np.count_nonzero(lam < E * N))
        last = first - 1
    below = math.fsum(t[:first])
    if isinstance(model, Hyperbolic):
        return (below + math.fsum(t[last + 1:])
                + model.chaotic_tail(N, E, env))
    return below + spectra._upper_tail_bound(model, N, E, env, last + 1)


_FUNCTIONS = {"gauss_0.5": lambda: make_gaussian(0.5),
              "gauss_1": lambda: make_gaussian(1.0),
              "bump": lambda: make_fourier_bump(2.0, 0.5)}


@pytest.mark.parametrize("N", [3, 40, 400, 10_000])
@pytest.mark.parametrize("fname", sorted(_FUNCTIONS))
@pytest.mark.parametrize("model,E", _LADDERS, ids=["torus", "sphere", "hyperbolic"])
def test_closed_form_tail_dominates_brute_force(model, E, fname, N):
    f = _FUNCTIONS[fname]()
    win = enumerate_window(model, N, EnergyLevel.from_E(E), f, 1e-14)
    if isinstance(model, Hyperbolic) and N >= 400 and fname != "bump":
        assert 0 < win.j[0] and win.j[-1] < N - 1  # rungs omitted on both sides
    # the bump's 1/x^4 envelope is summed out to 2e6 torus rungs at N=3
    reach = 60.0 if fname != "bump" else 1e4
    brute = _brute_omitted(model, N, E, f, win, reach)
    assert brute <= win.tail_bound * (1.0 + 1e-12)
    reference = _sweep_reference(model, N, E, f, win)
    assert win.tail_bound <= 2.0 * reference


@pytest.mark.parametrize("N", [39, 40])
@pytest.mark.parametrize("model,E", _LADDERS, ids=["torus", "sphere", "hyperbolic"])
def test_empty_window_tails_split_at_E_N(model, E, N):
    # E N falls between two rungs, nearer the upper one in four of the six
    # cases, where rounding j(E N) would put a rung above E N in the lower tail
    f = make_gaussian(0.01)
    win = enumerate_window(model, N, EnergyLevel.from_E(E), f, 1e-14)
    assert win.j.size == 0
    brute = _brute_omitted(model, N, E, f, win, reach=1.0)
    assert brute <= win.tail_bound * (1.0 + 1e-12)
    assert win.tail_bound <= 2.0 * _sweep_reference(model, N, E, f, win)


@pytest.mark.parametrize("model,E", _LADDERS, ids=["torus", "sphere", "hyperbolic"])
def test_window_cost_is_independent_of_N(model, E, monkeypatch):
    arange = np.arange

    def window_sized(start, stop, *args, **kwargs):
        if stop - start > 10_000:
            raise AssertionError(f"an array of {stop - start} rungs was built")
        return arange(start, stop, *args, **kwargs)
    monkeypatch.setattr(spectra.np, "arange", window_sized)
    win = enumerate_window(model, 10**7, EnergyLevel.from_E(E), make_gaussian(1.0), 1e-14)
    assert 0 < win.j.size < 100
    assert 0.0 < win.tail_bound < 1e-6
