"""Eigenvalue ladders and certified window queries."""

import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from magtrace import spectra
from magtrace import (EnergyLevel, Hyperbolic, ManeLevelError, Sphere,
                      Torus, ValidationError, enumerate_window, make_fourier_bump,
                      make_gaussian, y_n)
from magtrace.geometry import ConstantCurvature

TWO_PI = 2.0 * math.pi


def _rung(model, N, j):
    """(nu, lam, mult) of rung j of the ladder at N, lam = sqrt(nu + N^2)."""
    nu, mult = model.ladder(N, j)
    return nu, math.sqrt(nu + N * N), mult


def test_torus_level_values():
    nu, _, mult = _rung(Torus(), 1, 0)
    assert nu == pytest.approx(TWO_PI, abs=1e-14)
    assert mult == 1
    nu, _, mult = _rung(Torus(), 3, 2)
    assert nu == pytest.approx(30.0 * math.pi, rel=1e-15)
    assert mult == 3
    # frozen arithmetic oracle: sqrt(25 + 10 pi)
    assert _rung(Torus(), 5, 0)[1] == pytest.approx(7.511053623553618, abs=1e-14)


def test_sphere_level_values():
    m = Sphere(R=0.5)
    nu, _, mult = _rung(m, 1, 0)
    assert nu == pytest.approx(2.0, abs=1e-14)
    assert mult == 2
    m1 = Sphere(R=1.0)
    nu, _, mult = _rung(m1, 2, 1)
    assert nu == pytest.approx(5.0, abs=1e-14)
    assert mult == 5
    assert _rung(m1, 1, 0)[1] == pytest.approx(math.sqrt(1.5), abs=1e-15)


def test_hyperbolic_level_values_and_range():
    m = Hyperbolic(R=1.0, genus=2)
    nu, _, mult = _rung(m, 2, 0)
    assert nu == pytest.approx(2.0, abs=1e-13)
    assert mult == 3
    nu, _, mult = _rung(m, 2, 1)
    assert nu == pytest.approx(4.0, abs=1e-13)
    assert mult == 1
    # the integrable branch 0 <= j < N - 1/2 ends at j = 1 for N = 2
    assert m.j_cap(2) == 1


@pytest.mark.parametrize("R", [0.3, 1.0, 2.5])
def test_hyperbolic_displayed_forms_agree(R):
    # nu = [1/4 + N^2 - (j+1/2-N)^2]/R^2 = [(2j+1) N - j(j+1)]/R^2
    m = Hyperbolic(R=R, genus=3)
    for N in (1, 2, 7, 40, 1_000, 123_457, 10**7):
        for j in sorted({0, min(1, N - 1), N // 3, N // 2, N - 1}):
            nu = m.ladder(N, j)[0]
            alt = ((2 * j + 1.0) * N - j * (j + 1.0)) / (R * R)
            assert abs(nu - alt) <= 1e-15 * max(1.0, abs(nu)), (N, j)


def test_model_validation():
    # the quantized field is a class constant, not a constructor argument
    with pytest.raises(TypeError):
        Torus(B=1.0)
    with pytest.raises(ValidationError):
        Sphere(R=-1.0)
    with pytest.raises(TypeError):
        Sphere(R=1.0, B=1.0)
    with pytest.raises(ValidationError):
        Hyperbolic(R=1.0, genus=1)
    with pytest.raises(ValidationError):
        EnergyLevel.from_E(1.0)


def test_energy_level_relations():
    lev = EnergyLevel.from_E(2.0)
    assert lev.c**2 == pytest.approx(lev.E**2 - 1.0, rel=1e-15)


@pytest.mark.parametrize("maker", [
    lambda j: Torus().ladder(7, j)[0],
    lambda j: Sphere(R=0.5).ladder(7, j)[0],
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
    entries = [_rung(m, N, j) for j in (0, N // 2, N - 1)]
    assert all(lam > N for _, lam, _ in entries)
    assert all(lam < lam_cap for _, lam, _ in entries)
    mults = [mult for _, _, mult in entries]
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
    def no_block(*args, **kwargs):
        raise AssertionError("a refused window allocated its ladder")
    monkeypatch.setattr(spectra, "block", no_block)
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
    if len(win.j):
        t[win.j[0]:win.j[-1] + 1] = 0.0
    return math.fsum(t)


def _sweep_reference(model, N, E, f, win):
    """The O(N) bound the closed forms replaced, inlined as the reference.

    An exact fsum over every rung below the window (and, on the hyperbolic
    ladder, above it), the former upper walk on infinite ladders, and the
    hyperbolic non-integrable majorant.
    """
    env = f.time_env
    if isinstance(model, Hyperbolic):
        j_hi = N - 1
    else:
        j_hi = int(math.ceil(model.j_of_lam(N, E * N))) + 2
    lam, mult = _rungs(model, N, j_hi)
    t = mult * np.asarray(env(np.abs(lam - E * N)), dtype=float)
    if len(win.j):
        first, last = int(win.j[0]), int(win.j[-1])
    else:
        first = int(np.count_nonzero(lam < E * N))
        last = first - 1
    below = math.fsum(t[:first])
    if isinstance(model, Hyperbolic):
        return (below + math.fsum(t[last + 1:])
                + model.chaotic_tail(N, E, env))
    return below + _upper_walk(model, N, E, env, last + 1)


def _upper_walk(model, N, E, env, j):
    """The upper tail bound of the torus and sphere before the one tail rule:
    walk forward until three terms mult_j env(x_j) decrease, then close with
    t_J + c int_{x_J}^inf (x + E N) env(x) dx."""
    total = 0.0
    while True:
        nu, mult = model.ladder(N, np.array([j, j + 1, j + 2], dtype=float))
        x = np.sqrt(nu + N * N) - E * N
        t = mult * np.asarray(env(np.abs(x)), dtype=float)
        if x[0] > 0.0 and t[1] <= t[0] and t[2] <= t[1]:
            return (total + t[0]
                    + model.measure_coeff * env.halfline_moment(x[0], E * N, 1.0))
        total += t[0]
        j += 1


# name -> (test function, tail_tol); at the loose tolerances the bump's omitted
# rungs start on its envelope's cap and D2/u^2 legs
_FUNCTIONS = {"gauss_0.5": (lambda: make_gaussian(0.5), 1e-14),
              "gauss_1": (lambda: make_gaussian(1.0), 1e-14),
              "bump": (lambda: make_fourier_bump(2.0, 0.5), 1e-14),
              "bump_tol1e-2": (lambda: make_fourier_bump(2.0, 0.5), 1e-2),
              "bump_tol1e-3": (lambda: make_fourier_bump(2.0, 0.5), 1e-3)}


@pytest.mark.parametrize("N", [3, 40, 400, 10_000])
@pytest.mark.parametrize("fname", sorted(_FUNCTIONS))
@pytest.mark.parametrize("model,E", _LADDERS, ids=["torus", "sphere", "hyperbolic"])
def test_closed_form_tail_dominates_brute_force(model, E, fname, N):
    make, tol = _FUNCTIONS[fname]
    f = make()
    win = enumerate_window(model, N, EnergyLevel.from_E(E), f, tol)
    if isinstance(model, Hyperbolic) and N >= 400 and fname.startswith("gauss"):
        assert 0 < win.j[0] and win.j[-1] < N - 1  # rungs omitted on both sides
    # the bump's power-law envelope is summed out to 2e6 torus rungs at N=3
    reach = 1e4 if fname.startswith("bump") else 60.0
    brute = _brute_omitted(model, N, E, f, win, reach)
    assert brute <= win.tail_bound * (1.0 + 1e-12)
    # the ladder's part of the bound stays near the sum it bounds (the worst
    # case, the loose bump on the hyperbolic ladder at N=40, reads 7.2x)
    assert win.tail_bound - model.chaotic_tail(N, E, f.time_env) <= 8.0 * brute
    reference = _sweep_reference(model, N, E, f, win)
    assert win.tail_bound <= 2.0 * reference


def test_bump_tail_bound_at_large_N():
    # the torus bump's omitted rungs at N=1e6 weighed 0.130 under the
    # three-leg envelope min(cap, D2/u^2, D4/u^4); the legs up to u^-24 bound
    # them 10^4 tighter at least
    win = enumerate_window(Torus(), 10**6, EnergyLevel.from_E(2.0),
                           make_fourier_bump(4.0, 0.5), 1e-14)
    assert 0.0 < win.tail_bound <= 0.130e-4


@pytest.mark.parametrize("N", [39, 40])
@pytest.mark.parametrize("model,E", _LADDERS, ids=["torus", "sphere", "hyperbolic"])
def test_empty_window_tails_split_at_E_N(model, E, N):
    # E N falls between two rungs, nearer the upper one in four of the six
    # cases, where rounding j(E N) would put a rung above E N in the lower tail
    f = make_gaussian(0.01)
    win = enumerate_window(model, N, EnergyLevel.from_E(E), f, 1e-14)
    assert len(win.j) == 0
    brute = _brute_omitted(model, N, E, f, win, reach=1.0)
    assert brute <= win.tail_bound * (1.0 + 1e-12)
    assert win.tail_bound <= 2.0 * _sweep_reference(model, N, E, f, win)


@pytest.mark.parametrize("model,E", _LADDERS, ids=["torus", "sphere", "hyperbolic"])
def test_window_cost_is_independent_of_N(model, E, monkeypatch):
    block = spectra.block

    def window_sized(lo, hi, *args):
        if hi - lo >= 10_000:
            raise AssertionError(f"a block of {hi - lo + 1} rungs was built")
        return block(lo, hi, *args)
    monkeypatch.setattr(spectra, "block", window_sized)
    win = enumerate_window(model, 10**7, EnergyLevel.from_E(E), make_gaussian(1.0), 1e-14)
    assert 0 < len(win.j) < 100
    assert 0.0 < win.tail_bound < 1e-6


@pytest.mark.parametrize("model,E,block_rungs", [
    (Torus(), 2.0, {11}), (Sphere(R=0.5), math.sqrt(2.0), {14}),
    (Hyperbolic(R=1.0, genus=2), 1.2, {31, 32})], ids=["torus", "sphere", "hyperbolic"])
def test_y_n_work_is_set_by_its_window_not_by_N(model, E, block_rungs, monkeypatch):
    # counted, not timed, so the same on every host: a gaussian y_n builds its
    # ladder once, evaluates its block of rungs (each alone, on floats) and
    # at most four more for the two tails, as many at N = 1e6 as at N = 1e2
    ladder_at = ConstantCurvature.ladder_at
    builds, evaluated = [], []

    def counted_ladder_at(self, N):
        builds.append(N)
        ladder = ladder_at(self, N)

        def counted(j):
            evaluated.append(np.size(j))
            return ladder(j)
        return counted
    monkeypatch.setattr(ConstantCurvature, "ladder_at", counted_ladder_at)
    totals = []
    for N in (10**2, 10**6):
        builds.clear()
        evaluated.clear()
        y_n(model, N, EnergyLevel.from_E(E), make_gaussian(1.0), 1e-14)
        assert builds == [N]
        assert set(evaluated) == {1} and len(evaluated) - 4 in block_rungs
        totals.append(len(evaluated))
    assert abs(totals[1] - totals[0]) <= 1


def test_window_without_a_rung_loads_no_numpy():
    # every rung of the block lies outside the radius, 0.08, of a narrow gaussian
    code = ("import sys; from magtrace import EnergyLevel, Torus, make_gaussian, y_n\n"
            "t = y_n(Torus(), 1, EnergyLevel.from_E(2.0), make_gaussian(0.01), 1e-14)\n"
            "print(t.value, t.abs_sum, 'numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["0j", "0.0", "False"]


# ---------------------------------------------------------------------------
# the one constant-curvature family against the three hand-written ladders
# ---------------------------------------------------------------------------

class _TorusDisplay:
    """The flat torus's ladder and Poisson image as first written out: the
    reference the family must reproduce."""

    def ladder(self, N, j):
        return TWO_PI * N * (2.0 * j + 1.0), np.full(np.shape(j), float(N))

    def j_of_lam(self, N, lam):
        return (lam * lam - N * N - TWO_PI * N) / (4.0 * math.pi * N)

    measure_coeff = 1.0 / TWO_PI

    def k_frequency(self, E):
        return E

    def poisson_image(self, N, E):
        def terms(ks, h0, h1, h2):
            phase = np.exp(1j * math.pi * ks) * np.exp(-1j * ks * (E * E - 1.0) * N / 2.0)
            return ((E / TWO_PI) * h0 * phase,
                    ((1j / TWO_PI) * h1 + (1j * ks * E / (4.0 * math.pi)) * h2) * phase)

        def bound(kk, h0, h1, h2):
            return ((E / TWO_PI) * h0 + (1.0 / TWO_PI) * h1
                    + (abs(kk) * E / (4.0 * math.pi)) * h2)
        return math.pi + (E * E - 1.0) * N, terms, bound


class _SphereDisplay:
    def __init__(self, R):
        self.R = R
        self.measure_coeff = 2.0 * R * R

    def ladder(self, N, j):
        nu = (j * (j + 1.0) + 0.5 * N * (2.0 * j + 1.0)) / (self.R * self.R)
        return nu, N + 2.0 * j + 1.0

    def j_of_lam(self, N, lam):
        u2 = self.R * self.R * (lam * lam - N * N) + (N * N + 1.0) / 4.0
        return math.sqrt(max(u2, 0.0)) - (N + 1.0) / 2.0

    def _beta(self, E):
        return math.sqrt((E * E - 1.0) * self.R * self.R + 0.25)

    def k_frequency(self, E):
        return TWO_PI * E * self.R * self.R / self._beta(E)

    def poisson_image(self, N, E):
        R, beta = self.R, self._beta(E)
        a2 = math.pi * E * R**4 * (4.0 * R * R - 1.0) / (2.0 * beta**3)
        a0 = math.pi * E * R * R / (2.0 * beta)

        def terms(ks, h0, h1, h2):
            phase = (np.exp(1j * math.pi * ks * (N + 1.0))
                     * np.exp(-2j * math.pi * ks * beta * N))
            return (2.0 * E * R * R * h0 * phase,
                    (2j * R * R * h1 - 1j * a2 * ks * h2 - 1j * a0 * ks * h0) * phase)

        def bound(kk, h0, h1, h2):
            return (2.0 * E * R * R * h0 + 2.0 * R * R * h1
                    + abs(a2 * kk) * h2 + abs(a0 * kk) * h0)
        return math.pi * (N + 1.0) + TWO_PI * beta * N, terms, bound


class _HyperbolicDisplay:
    def __init__(self, R, genus):
        self.R, self.genus = R, genus
        self.measure_coeff = 2.0 * (genus - 1) * R * R

    def ladder(self, N, j):
        nu = (0.25 + N * N - (j + 0.5 - N) ** 2) / (self.R * self.R)
        return nu, (self.genus - 1) * (2.0 * N - 2.0 * j - 1.0)

    def j_of_lam(self, N, lam):
        arg = 0.25 + N * N - self.R * self.R * (lam * lam - N * N)
        return N - 0.5 - math.sqrt(max(arg, 0.0))

    def _q(self, E):
        return math.sqrt(1.0 / (self.R * self.R) + 1.0 - E * E)

    def k_frequency(self, E):
        return TWO_PI * E * self.R / self._q(E)

    def poisson_image(self, N, E):
        R, q = self.R, self._q(E)
        g2 = 2.0 * self.genus - 2.0
        b0 = math.pi * E * R / (4.0 * q)
        b2 = math.pi * E * (R * R + 1.0) * R / q**3

        def terms(ks, h0, h1, h2):
            phase = np.exp(1j * math.pi * ks) * np.exp(2j * math.pi * ks * R * q * N)
            return (g2 * E * R * R * h0 * phase,
                    g2 * (1j * R * R * h1 + 1j * b0 * ks * h0 + 1j * b2 * ks * h2) * phase)

        def bound(kk, h0, h1, h2):
            return g2 * (E * R * R * h0 + R * R * h1
                         + b0 * abs(kk) * h0 + b2 * abs(kk) * h2)
        return math.pi + TWO_PI * R * q * N, terms, bound


_FAMILY = [(Torus(), _TorusDisplay()),
           (Sphere(R=0.7), _SphereDisplay(0.7)), (Sphere(R=1.3), _SphereDisplay(1.3)),
           (Hyperbolic(R=0.5, genus=3), _HyperbolicDisplay(0.5, 3)),
           (Hyperbolic(R=0.55, genus=2), _HyperbolicDisplay(0.55, 2))]
_FAMILY_IDS = ["torus", "sphere_0.7", "sphere_1.3", "hyperbolic_g3", "hyperbolic_g2"]
EPS = 2.0 ** -52


def _family_rungs(geo, N):
    top = N - 1 if isinstance(geo, Hyperbolic) else 3 * N
    return np.unique(np.linspace(0, top, 41).round()).astype(float)


@pytest.mark.parametrize("N", [7, 60, 400])
@pytest.mark.parametrize("geo,ref", _FAMILY, ids=_FAMILY_IDS)
def test_family_ladder_matches_the_displays(geo, ref, N):
    j = _family_rungs(geo, N)
    nu, mult = geo.ladder(N, j)
    nu_ref, mult_ref = ref.ladder(N, j)
    np.testing.assert_allclose(nu, nu_ref, rtol=4 * EPS, atol=0)
    assert np.array_equal(mult, mult_ref)  # integers, formed exactly
    assert geo.measure_coeff == pytest.approx(ref.measure_coeff, rel=4 * EPS)
    # the measure identity: nu is quadratic in j, so its central difference
    # is dnu/dj up to the rounding of nu, and dnu/dj = 2 mult / c
    dnu = (geo.ladder(N, j + 1.0)[0] - geo.ladder(N, j - 1.0)[0]) / 2.0
    np.testing.assert_allclose(dnu, 2.0 * mult / geo.measure_coeff, rtol=8 * EPS,
                               atol=8 * EPS * float(np.max(nu)))
    # below the top of the ladder, rungs and the points between them invert alike
    for jj in np.concatenate([j, j[:-1] + 0.5]):
        lam = math.sqrt(geo.ladder(N, jj)[0] + N * N)
        assert abs(geo.j_of_lam(N, lam) - ref.j_of_lam(N, lam)) <= 1e-12 * (1 + N) ** 2
        assert abs(geo.j_of_lam(N, lam) - jj) <= 1e-12 * (1 + N) ** 2


@pytest.mark.parametrize("N", [7, 60, 400])
@pytest.mark.parametrize("E", [1.05, 1.2, 2.0])
@pytest.mark.parametrize("geo,ref", _FAMILY, ids=_FAMILY_IDS)
def test_family_poisson_image_matches_the_displays(geo, ref, E, N):
    assert geo.k_frequency(E) == pytest.approx(ref.k_frequency(E), rel=8 * EPS)
    scale, terms, bound = geo.poisson_image(N, E)
    scale_ref, terms_ref, bound_ref = ref.poisson_image(N, E)
    assert scale <= scale_ref * (1 + 4 * EPS)  # the phase argument only shrinks
    ks = np.arange(-12, 13)
    rng = np.random.default_rng(N)
    h = [rng.normal(size=ks.size) + 1j * rng.normal(size=ks.size) for _ in range(3)]
    # both phases round arguments up to |k| times their scale: allow a few
    # eps of that, and a few eps of each coefficient
    allow = 8 * EPS * (1.0 + np.abs(ks) * max(scale, scale_ref))
    for got, want in zip(terms(ks, *h), terms_ref(ks, *h)):
        assert np.all(np.abs(got - want) <= allow * np.maximum(np.abs(want), 1e-300)
                      + 8 * EPS * np.abs(want))
    for k in ks:
        habs = [abs(x[0]) for x in h]
        assert bound(k, *habs) == pytest.approx(bound_ref(k, *habs), rel=8 * EPS)


def test_family_phase_near_the_mane_level_against_40_digits():
    # Near the Mane level s = Q/b -> 0, and s^2 = 1 - R^2 (E^2-1) cancels, so a
    # c0 summand's phase is off by about |k| (phase scale + pi N/s) eps.  Over
    # energies log-spread toward the level the family stays within that and,
    # taking the smaller phase representative, is no worse than the display.
    R, N = 0.55, 400
    geo, ref = Hyperbolic(R=R, genus=2), _HyperbolicDisplay(R, 2)
    ks = np.arange(1, 13)
    one = np.ones(ks.size)
    errs, errs_ref = [], []
    for E in geo.mane_E * (1.0 - 10.0 ** np.random.default_rng(0).uniform(-8, -1, 100)):
        with mpmath.workdps(40):
            Em, Rm = mpmath.mpf(E), mpmath.mpf(R)
            s = Rm * mpmath.sqrt(1 / Rm**2 + 1 - Em**2)
            # the c0 summand c E exp(-2 pi i k j0) at fhat = 1, j0 = -s N - 1/2
            exact = np.array([2 * Em * Rm**2 * mpmath.expj(mpmath.pi * k * (1 + 2 * N * s))
                              for k in ks], dtype=complex)
        scale, terms, _ = geo.poisson_image(N, E)
        err = np.abs(terms(ks, one, one, one)[0] - exact) / np.abs(exact)
        assert np.all(err <= 8 * EPS * (1 + ks * (scale + math.pi * N / float(s)))), E
        errs.append(err.max())
        errs_ref.append(np.max(np.abs(ref.poisson_image(N, E)[1](ks, one, one, one)[0] - exact)
                               / np.abs(exact)))
    assert np.median(errs) <= np.median(errs_ref)


@pytest.mark.parametrize("R", [1e-78, 1e-150])
def test_family_scales_by_the_field(R):
    # b = 1/(2R^2) is finite, b^2 is not: the k-sum's frequency and
    # coefficients are formed from Q/b, so they stay finite
    geo = Sphere(R=R)
    assert 0.0 < geo.k_frequency(2.0) < math.inf
    scale, terms, bound = geo.poisson_image(10, 2.0)
    assert math.isfinite(scale) and math.isfinite(bound(3, 1.0, 1.0, 1.0))
    assert all(np.all(np.isfinite(t)) for t in terms(np.arange(-3, 4), *[np.ones(7)] * 3))
