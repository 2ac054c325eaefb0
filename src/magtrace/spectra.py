"""Closed-form eigenvalue ladders of the magnetic Laplacians.

Three exactly solvable geometries are covered, each at the quantized
field strength its closed-form spectrum requires:

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
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ManeLevelError, ValidationError
from .testfn import TestFunction

TWO_PI = 2.0 * math.pi

# Most ladder rungs one window, or one of its finite tail sweeps, may span,
# checked before any array is built: a sweep takes about 56 bytes a rung, so
# 0.56 GB at the cap.  A hyperbolic ladder has N rungs, so N <= 1e7 always
# fits; a gaussian s=1 window at N = 1e7 needs 2.4e6 on the torus at E=2.
MAX_WINDOW_RUNGS = 10_000_000


# ---------------------------------------------------------------------------
# energy bookkeeping and models
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class EnergyLevel:
    """Energy triple (E, calE, c) with c^2 = E^2 - 1 and calE = c^2/2."""

    E: float
    calE: float
    c: float

    @classmethod
    def from_E(cls, E: float) -> "EnergyLevel":
        c2 = E * E - 1.0
        if not (E > 1.0 and math.isfinite(c2)):
            raise ValidationError(f"energy E must exceed 1 and have a finite square, got {E}")
        return cls(E=E, calE=c2 / 2.0, c=math.sqrt(c2))


@dataclasses.dataclass(frozen=True)
class TorusModel:
    """Flat torus R^2/Z^2; only the quantized field B = 2pi is implemented."""

    B: float = TWO_PI

    def __post_init__(self):
        if self.B != TWO_PI:
            raise ValidationError("TorusModel implements the quantized case B = 2pi only")


@dataclasses.dataclass(frozen=True)
class SphereModel:
    """Round sphere of radius R; field strength frozen to B = 1/2."""

    R: float
    B: float = 0.5

    def __post_init__(self):
        if not (self.R > 0.0 and math.isfinite(self.R)):
            raise ValidationError(f"sphere radius must be positive, got {self.R}")
        if self.B != 0.5:
            raise ValidationError("SphereModel implements the quantized case B = 1/2 only")


@dataclasses.dataclass(frozen=True)
class HyperbolicModel:
    """Compact hyperbolic surface of genus g >= 2, curvature -1/R^2, B = 1."""

    R: float
    genus: int
    B: float = 1.0

    def __post_init__(self):
        if not (self.R > 0.0 and math.isfinite(self.R)):
            raise ValidationError(f"curvature scale must be positive, got {self.R}")
        if not (isinstance(self.genus, int) and self.genus >= 2):
            raise ValidationError(f"genus must be an integer >= 2, got {self.genus}")
        if self.B != 1.0:
            raise ValidationError("HyperbolicModel implements the quantized case B = 1 only")

    @property
    def mane_E(self) -> float:
        """Upper limit of serviceable energies, sqrt(1/R^2 + 1)."""
        return math.sqrt(1.0 / (self.R * self.R) + 1.0)

    def check_energy(self, E: float) -> None:
        if not E < self.mane_E:
            raise ManeLevelError(E, self.mane_E)


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


def torus_levels(N: int, j: int) -> SpectrumEntry:
    """Landau level nu = 2 pi N (2j+1) on the torus, multiplicity N."""
    _check_Nj(N, j)
    nu = TWO_PI * N * (2 * j + 1)
    return SpectrumEntry(N=int(N), j=int(j), nu=nu,
                         lam=math.sqrt(nu + N * N), mult=int(N))


def sphere_levels(model: SphereModel, N: int, j: int) -> SpectrumEntry:
    """Spherical Landau level nu = [j(j+1) + (N/2)(2j+1)]/R^2, mult N+2j+1."""
    _check_Nj(N, j)
    nu = (j * (j + 1.0) + 0.5 * N * (2 * j + 1.0)) / (model.R * model.R)
    return SpectrumEntry(N=int(N), j=int(j), nu=nu,
                         lam=math.sqrt(nu + N * N), mult=int(N + 2 * j + 1))


def hyperbolic_levels(model: HyperbolicModel, N: int, j: int) -> SpectrumEntry:
    """Hyperbolic Landau level on the integrable branch 0 <= j < N - 1/2.

    Raises a range error outside that branch: those indices belong to the
    non-integrable part of the spectrum, which this module does not model.
    """
    _check_Nj(N, j)
    if not j < N - 0.5:
        raise ValidationError(
            f"j={j} is outside the integrable range 0 <= j < N - 1/2 for N={N}; "
            "the requested eigenvalue belongs to the chaotic part of the spectrum"
        )
    nu = (0.25 + N * N - (j + 0.5 - N) ** 2) / (model.R * model.R)
    mult = (model.genus - 1) * (2 * N - 2 * j - 1)
    return SpectrumEntry(N=int(N), j=int(j), nu=nu,
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

    def entries(self) -> list:
        return [SpectrumEntry(N=self.N, j=int(j), nu=float(nu), lam=float(lam),
                              mult=int(m))
                for j, nu, lam, m in zip(self.j, self.nu, self.lam, self.mult)]


def _torus_arrays(model, N, j):
    nu = TWO_PI * N * (2.0 * j + 1.0)
    mult = np.full(j.shape, float(N))
    return nu, mult


def _sphere_arrays(model, N, j):
    nu = (j * (j + 1.0) + 0.5 * N * (2.0 * j + 1.0)) / (model.R * model.R)
    mult = N + 2.0 * j + 1.0
    return nu, mult


def _hyperbolic_arrays(model, N, j):
    nu = (0.25 + N * N - (j + 0.5 - N) ** 2) / (model.R * model.R)
    mult = (model.genus - 1) * (2.0 * N - 2.0 * j - 1.0)
    return nu, mult


def _arrays(model, N, j):
    if isinstance(model, TorusModel):
        return _torus_arrays(model, N, j)
    if isinstance(model, SphereModel):
        return _sphere_arrays(model, N, j)
    if isinstance(model, HyperbolicModel):
        return _hyperbolic_arrays(model, N, j)
    raise ValidationError(f"unknown model {model!r}")


def _j_from_lambda(model, N, lam):
    """Real-valued index solving lambda(j) = lam (clipped below at 0)."""
    if isinstance(model, TorusModel):
        return (lam * lam - N * N - TWO_PI * N) / (4.0 * math.pi * N)
    if isinstance(model, SphereModel):
        R2 = model.R * model.R
        u2 = R2 * (lam * lam - N * N) + (N * N + 1.0) / 4.0
        return math.sqrt(max(u2, 0.0)) - (N + 1.0) / 2.0
    if isinstance(model, HyperbolicModel):
        R2 = model.R * model.R
        arg = 0.25 + N * N - R2 * (lam * lam - N * N)
        return N - 0.5 - math.sqrt(max(arg, 0.0))
    raise ValidationError(f"unknown model {model!r}")


def _j_max(model, N):
    """Largest admissible index (inclusive), or None when unbounded."""
    if isinstance(model, HyperbolicModel):
        return N - 1  # integer part of the open bound N - 1/2
    return None


def _measure_coeff(model):
    """c_geo with   mult(j) dj <= c_geo (x + E N) dx   along the ladder.

    Exact identities: on the torus mult dj = lam dlam / (2 pi); on the
    sphere mult dj = 2 R^2 lam dlam (u-substitution u = j + (N+1)/2).
    """
    if isinstance(model, TorusModel):
        return 1.0 / TWO_PI
    if isinstance(model, SphereModel):
        return 2.0 * model.R * model.R
    raise ValidationError("measure coefficient is only defined for infinite ladders")


def _upper_tail_bound(model, N, E, env, j_start):
    """Certified bound on sum_{j >= j_start} mult_j env(|x_j|) (infinite ladders).

    Walks forward until the envelope term sequence is decreasing (the
    log-terms have monotone increments, so one confirmed decrease is
    permanent), then closes with the measure-comparison integral.
    """
    if j_start < 0:
        j_start = 0
    c_geo = _measure_coeff(model)
    total = 0.0
    j = j_start
    for _ in range(10_000_000):
        jj = np.array([j, j + 1, j + 2], dtype=float)
        nu, mult = _arrays(model, N, jj)
        lam = np.sqrt(nu + N * N)
        x = lam - E * N
        t = mult * np.asarray(env(np.abs(x)), dtype=float)
        if x[0] > 0.0 and t[1] <= t[0] and t[2] <= t[1]:
            return total + t[0] + c_geo * env.halfline_moment(x[0], E * N, 1.0)
        total += t[0]
        j += 1
    raise AssertionError("upper tail bound failed to reach the decreasing regime")


def _finite_tail_bound(model, N, E, env, j_lo, j_hi):
    """Exact envelope sum over the finite index block [j_lo, j_hi]."""
    if j_hi < j_lo:
        return 0.0
    j = np.arange(j_lo, j_hi + 1, dtype=float)
    nu, mult = _arrays(model, N, j)
    lam = np.sqrt(nu + N * N)
    t = mult * np.asarray(env(np.abs(lam - E * N)), dtype=float)
    return float(np.sum(t))


def _hyperbolic_chaotic_bound(model, N, E, env):
    """Weyl-majorant bound for the non-integrable spectral branch.

    Every such eigenvalue has lam >= Lambda_0 = sqrt(N^2 + (N^2+1/4)/R^2),
    i.e. sits at least (mane_E - E) N above the window center.  The counting
    function is majorized by four times the Weyl density of the Bochner
    Laplacian, count(nu <= V) <= W V with W = Vol(M)/pi and
    Vol(M) = 2 pi R^2 (2g-2); the layer-cake bound for a nonincreasing
    envelope g then gives

        sum g(lam_i) <= W (Lambda_0^2 - N^2) g(x_0) +
                        2 W integral_{x_0}^inf (x + E N) g(x) dx.
    """
    R2 = model.R * model.R
    W = 2.0 * R2 * (2 * model.genus - 2)
    lam0 = math.sqrt(N * N + (N * N + 0.25) / R2)
    x0 = lam0 - E * N
    if x0 <= 0.0:
        raise ManeLevelError(E, model.mane_E)
    boundary = W * ((N * N + 0.25) / R2) * float(env(x0))
    return boundary + 2.0 * W * env.halfline_moment(x0, E * N, 1.0)


def _window_indices(model, N, E, radius):
    """Index block [j_first, j_last] covering |lam - E N| <= radius.

    Raises ValidationError, before anything is allocated, when the block's
    bounds are not finite or when the window or one of its finite tail
    sweeps would span more than ``MAX_WINDOW_RUNGS`` rungs.
    """
    lam_lo = E * N - radius
    lam_hi = E * N + radius
    j_cap = _j_max(model, N)
    if lam_hi <= 0.0:
        return 0, -1  # empty window
    lo_real = _j_from_lambda(model, N, max(lam_lo, 0.0)) if lam_lo > 0 else 0.0
    hi_real = _j_from_lambda(model, N, lam_hi)
    where = f"the window E*N +- {radius:.6g} at N={N}, E={E:.6g}"
    if not (math.isfinite(lo_real) and math.isfinite(hi_real)):
        raise ValidationError(f"{where} has no finite ladder index bounds")
    j_first = max(0, int(math.floor(lo_real)) - 2)
    j_last = int(math.ceil(hi_real)) + 2
    if j_cap is not None:
        j_last = min(j_last, j_cap)
    # the window and the lower sweep stay within rungs 0..j_last; the upper
    # sweep of a finite ladder starts at or after j_first
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
    contribution sum mult * |phi(lam - E N)|.
    """
    _check_Nj(N, 0)
    E = level.E
    if isinstance(model, HyperbolicModel):
        model.check_energy(E)
    radius = f.radius(tail_tol)
    env = f.time_env
    j_cap = _j_max(model, N)
    j_first, j_last = _window_indices(model, N, E, radius)

    if j_last >= j_first:
        j = np.arange(j_first, j_last + 1, dtype=float)
        nu, mult = _arrays(model, N, j)
        lam = np.sqrt(nu + N * N)
        keep = np.abs(lam - E * N) <= radius * (1.0 + 1e-15)
    else:
        j = np.empty(0)
        keep = np.empty(0, dtype=bool)

    if keep.any():
        idx = np.flatnonzero(keep)
        first_kept = j_first + int(idx[0])
        last_kept = j_first + int(idx[-1])
        sel = slice(int(idx[0]), int(idx[-1]) + 1)
        jj = j[sel].astype(np.int64)
        nu_k, mult_k, lam_k = nu[sel], mult[sel], lam[sel]
    else:
        # empty window: split the ladder at the index closest to E N
        split = max(0, int(round(_j_from_lambda(model, N, E * N))))
        if j_cap is not None:
            split = min(split, j_cap)
        first_kept, last_kept = split + 1, split
        jj = np.empty(0, dtype=np.int64)
        nu_k = np.empty(0)
        mult_k = np.empty(0)
        lam_k = np.empty(0)

    tail = _finite_tail_bound(model, N, E, env, 0, first_kept - 1)
    if j_cap is None:
        tail += _upper_tail_bound(model, N, E, env, last_kept + 1)
    else:
        tail += _finite_tail_bound(model, N, E, env, last_kept + 1, j_cap)
        tail += _hyperbolic_chaotic_bound(model, N, E, env)

    return Window(N=int(N), E=E, radius=radius, j=jj, nu=nu_k, lam=lam_k,
                  mult=mult_k, tail_bound=float(tail))
