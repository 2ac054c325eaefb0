"""Eigenvalue windows on the closed-form ladders of the magnetic Laplacians.

Three exactly solvable geometries are covered, each at the quantized
field strength its closed-form spectrum requires (the ladders are methods
of the ``geometry`` classes):

* flat torus, B = 2pi:      nu_{N,j} = 2 pi N (2j+1),              mult N
* round sphere, B = 1/2:    nu_{N,j} = [j(j+1) + (N/2)(2j+1)]/R^2, mult N+2j+1
* hyperbolic surface, B = 1 (integrable branch, 0 <= j < N-1/2):
      nu_{N,j} = [1/4 + N^2 - (j+1/2-N)^2]/R^2,  mult (g-1)(2N-2j-1)

Throughout, lambda_{N,j} = sqrt(nu_{N,j} + N^2) and window queries are
made around E*N.  ``enumerate_window`` certifies everything it omits:
the returned tail bound dominates the absolute contribution of all
eigenvalues outside the window (including, for the hyperbolic surface,
a Weyl-type majorant for the non-integrable part of the spectrum, whose
lambdas all sit above the Mane level and contribute O(N^-infinity)).

The tails are bounded in closed form, at a cost independent of N, from the
exact measure identity  mult(j) dj = c lam dlam  along each ladder:

* torus:       c = 1/(2 pi);
* sphere:      c = 2 R^2         (u = j + (N+1)/2, mult = 2u);
* hyperbolic:  c = 2 (g-1) R^2   (u = N - j - 1/2, mult = 2(g-1)u,
                                  R^2 dnu = -2u du).

Each tail's terms mult_j env(|x_j|) are monotone in j, so a sum over rungs
compares with the integral of the envelope against c lam dlam.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ValidationError
from .geometry import Hyperbolic, Sphere, Torus
from .testfn import TestFunction

# Largest ladder index range a window query may touch, checked before any
# array is built: rungs 0..j_last, or j_first..N-1 on the finite hyperbolic
# ladder.  Only the window's own rungs are built and each tail bound costs
# O(1), so the cap no longer guards memory; it keeps queries where the
# offsets lam - E N, rounded to about eps E N, have been checked, until they
# are formed in compensated arithmetic.  A hyperbolic ladder has N rungs, so
# N <= 1e7 always fits; a gaussian s=1 window at N = 1e7 reaches index 2.4e6
# on the torus at E=2.
MAX_WINDOW_RUNGS = 10_000_000


# ---------------------------------------------------------------------------
# energy bookkeeping and models
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class EnergyLevel:
    """Energy pair (E, c) with c^2 = E^2 - 1."""

    E: float
    c: float

    @classmethod
    def from_E(cls, E: float) -> "EnergyLevel":
        c2 = E * E - 1.0
        if not (E > 1.0 and math.isfinite(c2)):
            raise ValidationError(f"energy E must exceed 1 and have a finite square, got {E}")
        return cls(E=E, c=math.sqrt(c2))

    def check_N(self, N: int) -> None:
        """Refuse an N whose (E N)^2 overflows a double.

        Windows square lam ~ E N and the k-sums multiply E^2 N, so such an N
        only yields overflow warnings and a late failure.
        """
        try:
            EN = self.E * N
        except OverflowError:  # an integer N past the float range
            EN = math.inf
        if not math.isfinite(EN * EN):
            raise ValidationError(
                f"N={N} is too large at E={self.E:.6g}: (E*N)^2 overflows a double")


# the closed-form ladders' old names, kept for perfbench/setup_probe.py and reference.py
TorusModel, SphereModel, HyperbolicModel = Torus, Sphere, Hyperbolic


@dataclasses.dataclass(frozen=True)
class SpectrumEntry:
    """One eigenvalue datum: lam = sqrt(nu + N^2) taken with multiplicity."""

    N: int
    j: int
    nu: float
    lam: float
    mult: int


def _check_Nj(N, j):
    if not (isinstance(N, (int, np.integer)) and N >= 1):
        raise ValidationError(f"N must be a positive integer, got {N}")
    if not (isinstance(j, (int, np.integer)) and j >= 0):
        raise ValidationError(f"j must be a nonnegative integer, got {j}")


def levels(model, N: int, j: int) -> SpectrumEntry:
    """Rung j of the ladder at N, with lam = sqrt(nu + N^2).

    Raises a range error past the hyperbolic ladder's integrable branch
    0 <= j < N - 1/2: those indices belong to the non-integrable part of the
    spectrum, which this module does not model.
    """
    _check_Nj(N, j)
    cap = model.j_cap(N)
    if cap is not None and j > cap:
        raise ValidationError(
            f"j={j} is outside the integrable range 0 <= j < N - 1/2 for N={N}; "
            "the requested eigenvalue belongs to the chaotic part of the spectrum"
        )
    nu, mult = model.ladder(N, float(j))
    return SpectrumEntry(N=int(N), j=int(j), nu=float(nu),
                         lam=math.sqrt(nu + N * N), mult=int(mult))


# ---------------------------------------------------------------------------
# window enumeration with certified truncation
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Window:
    """All eigenvalues with |lam - E N| <= radius, plus an omitted-tail bound.

    ``tail_bound`` dominates sum_{omitted} mult * |phi(lam - E N)| for the
    test function the window was built for.
    """

    N: int
    E: float
    radius: float
    j: np.ndarray
    nu: np.ndarray
    lam: np.ndarray
    mult: np.ndarray
    tail_bound: float

    @property
    def x(self) -> np.ndarray:
        """Window offsets lam - E*N."""
        return self.lam - self.E * self.N


def _upper_tail_bound(model, N, E, env, j_start):
    """Certified bound on sum_{j >= j_start} mult_j env(|x_j|), for x_{j_start} > 0.

    On the hyperbolic ladder mult falls with j, so the terms decrease from
    J = j_start on and, with mult dj = c lam dlam, the sum up to rung N-1 is
    at most  t_J + c int_{x_J}^inf (x + E N) env(x) dx.  On the infinite
    ladders mult grows: walks forward until the envelope term sequence is
    decreasing (the log-terms have monotone increments, so one confirmed
    decrease is permanent), then closes with the same integral.
    """
    if j_start < 0:
        j_start = 0
    c_geo = model.measure_coeff
    j_cap = model.j_cap(N)
    if j_cap is not None:
        if j_start > j_cap:
            return 0.0
        nu, mult = model.ladder(N, np.array([j_start], dtype=float))
        x = math.sqrt(nu[0] + N * N) - E * N
        return float(mult[0] * float(env(x)) + c_geo * env.halfline_moment(x, E * N, 1.0))
    total = 0.0
    j = j_start
    for _ in range(10_000_000):
        jj = np.array([j, j + 1, j + 2], dtype=float)
        nu, mult = model.ladder(N, jj)
        lam = np.sqrt(nu + N * N)
        x = lam - E * N
        t = mult * np.asarray(env(np.abs(x)), dtype=float)
        if x[0] > 0.0 and t[1] <= t[0] and t[2] <= t[1]:
            return total + t[0] + c_geo * env.halfline_moment(x[0], E * N, 1.0)
        total += t[0]
        j += 1
    raise AssertionError("upper tail bound failed to reach the decreasing regime")


def _lower_tail_bound(model, N, E, env, j_end):
    """Certified bound on sum_{0 <= j <= j_end} mult_j env(|x_j|), for x_{j_end} < 0.

    With J = j_end and a = -x_J: below E N the envelope grows with j, so a
    rung's env is at most its mean over [j, j+1], and there mult, affine in
    j, exceeds its value by at most d = max(0, mult_J - mult_{J+1}).  With
    mult dj = c lam dlam, lam <= lam_J, and mult >= mult_J wherever d > 0,

        sum_{j<J} mult_j env_j <= int_0^J (mult + d) env dj
                               <= (1 + d/mult_J) c lam_J int_a^inf env(u) du.

    d is 0 on the torus and the sphere and 2(g-1) on the hyperbolic ladder.
    """
    if j_end < 0:
        return 0.0
    nu, mult = model.ladder(N, np.array([j_end, j_end + 1], dtype=float))
    lam = math.sqrt(nu[0] + N * N)
    a = E * N - lam
    drop = max(0.0, mult[0] - mult[1])
    moment = model.measure_coeff * env.halfline_moment(a, lam, 0.0)
    return float(mult[0] * float(env(a)) + (1.0 + drop / mult[0]) * moment)


def _window_indices(model, N, E, radius):
    """Index block [j_first, j_last] covering |lam - E N| <= radius.

    Raises ValidationError, before anything is allocated, when the block's
    bounds are not finite or when the index range the query touches (rungs
    0..j_last, or j_first..N-1 on the hyperbolic ladder) spans more than
    ``MAX_WINDOW_RUNGS`` rungs.
    """
    lam_lo = E * N - radius
    lam_hi = E * N + radius
    j_cap = model.j_cap(N)
    if lam_hi <= 0.0:
        return 0, -1  # empty window
    lo_real = model.j_of_lam(N, max(lam_lo, 0.0)) if lam_lo > 0 else 0.0
    hi_real = model.j_of_lam(N, lam_hi)
    where = f"the window E*N +- {radius:.6g} at N={N}, E={E:.6g}"
    if not (math.isfinite(lo_real) and math.isfinite(hi_real)):
        raise ValidationError(f"{where} has no finite ladder index bounds")
    j_first = max(0, int(math.floor(lo_real)) - 2)
    j_last = int(math.ceil(hi_real)) + 2
    if j_cap is not None:
        j_last = min(j_last, j_cap)
    rungs = max(j_last + 1, 0 if j_cap is None else j_cap - j_first + 1)
    if rungs > MAX_WINDOW_RUNGS:
        raise ValidationError(f"{where} needs {rungs:.3g} ladder rungs, over the "
                              f"budget of {MAX_WINDOW_RUNGS:.3g}")
    return j_first, j_last


def enumerate_window(model, N: int, level: EnergyLevel, f: TestFunction,
                     tail_tol: float) -> Window:
    """Eigenvalues with |lam - E N| <= f.radius(tail_tol), tails certified.

    The returned ``tail_bound`` is a rigorous upper bound (through the test
    function's decay envelope) on the omitted eigenvalues' total
    contribution sum mult * |phi(lam - E N)|.  Only the window's rungs are
    built: rungs below it go to ``_lower_tail_bound`` and rungs above it to
    ``_upper_tail_bound``, at a cost that does not grow with N.
    """
    model.check_spectrum()
    _check_Nj(N, 0)
    E = level.E
    model.check_energy(E)
    radius = f.radius(tail_tol)
    env = f.time_env
    j_first, j_last = _window_indices(model, N, E, radius)

    j = np.arange(j_first, j_last + 1, dtype=float)
    nu, mult = model.ladder(N, j)
    lam = np.sqrt(nu + N * N)
    x = lam - E * N
    kept = np.flatnonzero(np.abs(x) <= radius * (1.0 + 1e-15))
    if kept.size:
        sel = slice(int(kept[0]), int(kept[-1]) + 1)
    else:
        # empty window: rungs with lam < E N go to the lower tail, the rest
        # (lam > E N, since none is kept) to the upper one
        below = int(np.count_nonzero(x < 0.0))
        sel = slice(below, below)
    first_kept, last_kept = j_first + sel.start, j_first + sel.stop - 1

    tail = (_lower_tail_bound(model, N, E, env, first_kept - 1)
            + _upper_tail_bound(model, N, E, env, last_kept + 1)
            + model.chaotic_tail(N, E, env))

    return Window(N=int(N), E=E, radius=radius, j=j[sel].astype(np.int64),
                  nu=nu[sel], lam=lam[sel], mult=mult[sel], tail_bound=float(tail))
