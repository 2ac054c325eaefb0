"""Geometric-side predictions c0(N, phi), c1(N, phi) and residual diagnostics.

Each solvable geometry admits an expansion
``Y_N(phi) ~ c0(N) N^d + c1(N) N^(d-1) + O(N^(d-2))`` with d = 1 for the
periodic flows and d = 0 for isolated-orbit windows; the coefficient k-sums
below are Poisson-summation images of the spectral ladders.

Two transcription corrections, both confirmed by brute-force residual
sweeps against the exact spectra (the corrected forms give bounded
N * r_N, the published displays leave an O(1) residual):

* torus c1:   c1 = sum_k [ (i/2pi) fhat'(kE) + (i k E/4pi) fhat''(kE) ]
              * exp(i k pi) exp(-i k (E^2-1) N / 2);
* hyperbolic c1: the fhat' coefficient is i R^2 (not 2 i R^2) and the
  fhat'' coefficient is +i pi k E (R^2+1) R / (1/R^2+1-E^2)^{3/2}.

The sphere display needs no correction and doubles as a cross-check of
the derivation route (its published coefficients are reproduced exactly).
Both corrected forms, and the sphere's, are what the one constant-curvature
formula (``geometry.ConstantCurvature.poisson_image``) gives at its three
parameter sets (b, K): with c = A/2pi and Q = sqrt(b^2 + K(E^2-1)),
c1 = c sum_k i [fhat' + pi k E (b^2-K)/Q^3 fhat'' - pi k K E/(4Q) fhat] at
k 2pi E/Q, times exp(-2 pi i k j0), j0 = (E^2-1) N/(Q+b) - 1/2.

Each ``k_tail`` bounds every period its k-sum leaves out, with no walk: the
per-k bounds are summed at each omitted period out to the hat's reach at
_HAT_FLOOR (``_k_reach``), and the first period past the reach, k_top,
counts k_top times, for itself and each period below 2 k_top, as the bounds
fall with |k| there.  Past that a compact hat is 0 and a Gaussian one below
_HAT_FLOOR^4/amp^3, under 1e-700 for any width ``make_gaussian`` accepts;
that remainder is left out as lying below double underflow.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import (DegenerateOrbitError, MixedSupportError, ValidationError,
                     check_tensor_power, record)
from .floats import TWO_PI, block, cis, each, fsum_complex
from .geometry import EnergyLevel

if TYPE_CHECKING:  # read in annotations only, so katok runs no testfn code
    from .katok import Katok
    from .testfn import TestFunction

# Largest k_max and k-tail reach: 2 k_max + 1 terms, on numpy arrays past
# floats.FLOAT_BLOCK of them.  At the cap a gaussian predict takes about 0.07 s
# and 19 MB over a process with numpy loaded (2 cores of a Xeon, Python 3.11).
MAX_K_MAX = 100_000
_HAT_FLOOR = 1e-300  # the k-tails sum term by term out to the reach at this level


@record
class KSumControl:
    """Truncation and resonance policy for the coefficient k-sums.

    ``poisson_c01`` sums |k| <= k_max; ``katok_c0`` sums the periods in the
    hat's support and ignores k_max.  ``k_tail`` bounds every period left out.
    """

    k_max: int
    resonance_margin: float = 1e-6

    def __post_init__(self):
        if not (isinstance(self.k_max, int) and not isinstance(self.k_max, bool)
                and 0 <= self.k_max <= MAX_K_MAX):
            raise ValidationError(f"k_max must be an integer in [0, {MAX_K_MAX:,}] "
                                  f"(capped), got {self.k_max}")
        if not (self.resonance_margin > 0.0):
            raise ValidationError("resonance_margin must be positive")

    @classmethod
    def for_function(cls, f: TestFunction, freq: float, tail_tol: float = 1e-16,
                     resonance_margin: float = 1e-6) -> "KSumControl":
        """Pick k_max so |phi_hat| at the first dropped node is below tail_tol."""
        if freq <= 0:
            raise ValidationError("frequency scale must be positive")
        return cls(k_max=int(math.ceil(_k_reach(f, freq, tail_tol))) + 1,
                   resonance_margin=resonance_margin)


@record
class CoefficientPrediction:
    """Leading coefficients of the trace expansion at one N.

    ``d`` is the leading power (1 for the periodic geometries, 0 for
    isolated-orbit windows); ``k_tail`` certifies what the truncated
    k-sums omit.
    """

    N: int
    c0: complex
    c1: complex
    d: float
    k_tail: float


def _k_order(k_lo: int, k_hi: int):
    """The periods k_lo, -k_lo, k_lo + 1, ..., k_hi, -k_hi: the fixed order
    of every k-tail, a list or an array by their count (``floats.block``)."""
    return block(k_lo, k_hi, (1, -1))


def _k_reach(f: TestFunction, freq: float, tol: float) -> float:
    """(|hat_center| + hat_radius(tol)) / freq: the largest |k| whose period
    k * freq the hat reaches above tol, refused past MAX_K_MAX."""
    k = (abs(f.hat_center) + f.hat_radius(tol)) / freq
    if not k < MAX_K_MAX:  # refuses an infinite quotient too
        raise ValidationError(f"the k-sum must reach k={k:.6g} periods to bring |phi_hat| "
                              f"below {tol:g}; k is capped at {MAX_K_MAX:,}")
    return k


def _tail_periods(k_lo: int, k_reach: float):
    """The periods from k_lo out to k_top, the first past the reach, and the
    weight of each: 1, but k_top at +-k_top (the module docstring's rule)."""
    k_top = max(k_lo - 1, int(k_reach)) + 1
    ks = _k_order(k_lo, k_top)
    return ks, each(lambda k: 1.0 + (abs(k) == k_top) * (k_top - 1.0), ks)


# ---------------------------------------------------------------------------
# coefficient sums of the closed-form ladders
# ---------------------------------------------------------------------------

def poisson_c01(Ns, model, level: EnergyLevel, f: TestFunction,
                ctl: KSumControl) -> list:
    """c0 and c1 of a closed-form ladder at each N of a grid: its Poisson image.

    Sums fhat, fhat', fhat'' at k * freq, k = 0, +-1, ..., +-k_max, with the
    summands, phases and per-k bounds of ``model.poisson_image``, and returns
    one prediction per N.  The hats, their bounds and ``k_tail`` do not depend
    on N and are evaluated once per grid; only the phases and sums run per N.
    Refused before any evaluation, at the first N in grid order that fails: a
    hat whose reach passes MAX_K_MAX periods, a sum whose largest squared
    k * freq (the tail's included), phase argument or coefficient is not
    finite, and a hyperbolic energy at or above the Mane level.
    """
    E = level.E
    freq = model.k_frequency(E)
    tail_ks, weight = _tail_periods(ctl.k_max + 1, _k_reach(f, freq, _HAT_FLOOR))
    top = abs(int(tail_ks[-1])) * freq
    images = []
    for N in Ns:
        try:
            phase_scale, terms, bound = model.poisson_image(N, E)
            finite = math.isfinite(top * top) and math.isfinite(ctl.k_max * phase_scale)
        except OverflowError:  # a coefficient power such as Q**3
            finite = False
        if not finite:
            raise ValidationError(f"the k-sum at N={N}, E={E:.6g} leaves the double range")
        images.append(terms)
    if not images:
        return []
    ks = block(-ctl.k_max, ctl.k_max)  # in any order: the sums are exact
    hats = [each(lambda k: h(k * freq), ks) for h in (f.phi_hat, f.phi_hat_d1, f.phi_hat_d2)]

    def tail_term(k, wt):
        # bound, unlike terms, is the same at every N
        return wt * bound(k, *f.hat_abs_bounds(abs(k * freq - f.hat_center)))
    k_tail = math.fsum(each(tail_term, tail_ks, weight))
    preds = []
    for N, terms in zip(Ns, images):
        c0_terms, c1_terms = each(terms, ks, *hats, width=2)
        preds.append(CoefficientPrediction(N=int(N), c0=fsum_complex(c0_terms),
                                           c1=fsum_complex(c1_terms), d=1.0, k_tail=k_tail))
    return preds


# ---------------------------------------------------------------------------
# general-form building blocks
# ---------------------------------------------------------------------------

def general_c0_volume(phi_hat_0: complex, volXE: float, n: int) -> complex:
    """Volume term (2pi)^{-n} fhat(0) Vol(X_E) of the zero-period window."""
    if not (volXE > 0.0):
        raise ValidationError(f"phase-space volume must be positive, got {volXE}")
    if not (isinstance(n, int) and not isinstance(n, bool) and n >= 1):
        raise ValidationError(f"dimension n must be a positive integer, got {n}")
    return complex(phi_hat_0) * volXE / TWO_PI**n


def general_c0_nondegenerate(Tsharp: float, m: int, S: float, detIminusP: float,
                             Tgamma: float, phi_hat_at_Tgamma: complex, N: int,
                             resonance_margin: float = 1e-6) -> complex:
    """Isolated nondegenerate orbit contribution to c0.

        (T# e^{i pi m/4} / (2 pi |I-P|^{1/2})) e^{-i N S} fhat(T_gamma)

    ``detIminusP`` is |det(I - P)| of the orbit's (iterated) transverse
    Poincare map; its positive square root enters the denominator.
    """
    if not (Tsharp > 0.0):
        raise ValidationError(f"primitive period must be positive, got {Tsharp}")
    if detIminusP <= resonance_margin:
        raise DegenerateOrbitError(
            f"det(I-P)={detIminusP:.3e} is within the resonance margin "
            f"{resonance_margin:.1e}; the nondegeneracy hypothesis fails numerically"
        )
    amp = Tsharp / (TWO_PI * math.sqrt(detIminusP))
    return amp * cis(math.pi * m / 4.0) * cis(-(N * S)) * complex(phi_hat_at_Tgamma)


def katok_c0(Ns, geo: Katok, f: TestFunction, ctl: KSumControl,
             support_tol: float = 1e-12) -> list:
    """Leading trace coefficient for the deformed-sphere example at E = sqrt(2),
    one prediction per N of a grid.

    Two disjoint regimes, selected by the (effective) support of phi_hat:

    * support containing only the zero period: d = 1 and c0 is the volume
      term (2pi)^-2 fhat(0) Vol(X_E) (``general_c0_volume``) of the shell
      volume at ``geo.stated_E``, 2 sqrt(2) fhat(0)/(1-eps^2);
    * support containing only nonzero periods k T#, T# = 2 pi sqrt(2)/(1-eps^2)
      the equators' period (``geo.k_frequency``):
      d = 0 and c0 sums the two equatorial orbits' iterate contributions

          (1/(sqrt(2)(1-eps^2))) e^{i pi m_{k,+-}/4} e^{-2 pi i N k/(1 -+ eps)}
          / |sin(pi k/(1 -+ eps))| * fhat(2 pi sqrt(2) k / (1-eps^2)),

      with Maslov indices m_{k,+-} = 2 floor(2k/(1 -+ eps)) + 2 sign k + 1
      (``Katok.term``).  Each term is exactly the nondegenerate-orbit formula
      evaluated on the equators' closed-form invariants.

    Windows containing both the zero and a nonzero period are rejected.
    ``k_tail`` bounds each nonzero period outside the support by amp |fhat|
    / max(|sin|, margin) per branch; the resonance guard sees each whose
    bound passes 1e-25.  Only the phases and sums depend on N: the support,
    the hats, ``k_tail`` and its guard are evaluated once per grid.
    """
    E = geo.stated_E
    Tsharp = geo.k_frequency(E)
    for N in Ns:
        check_tensor_power(N)
    amp = geo.amplitude
    margin = ctl.resonance_margin
    lo, hi = f.hat_support_interval(support_tol)
    zero_in = lo <= 0.0 <= hi
    if zero_in and (hi >= Tsharp or lo <= -Tsharp):
        k_lo, k_hi = math.ceil(lo / Tsharp), math.floor(hi / Tsharp)
        raise MixedSupportError(
            f"phi_hat support contains the zero period and {k_hi - k_lo} nonzero "
            f"period(s) k*T#, k from {k_lo} to {k_hi}; the two asymptotic regimes are "
            "disjoint, use a window isolating one")
    # reach past the support and every period whose capped term can pass 1e-25
    ks, weight = _tail_periods(1, _k_reach(f, Tsharp, min(_HAT_FLOOR, support_tol,
                                                            1e-25 * margin / amp)))
    k_in, bounds = [], []
    for k, wt in zip(map(int, ks), map(float, weight)):
        if lo <= k * Tsharp <= hi:
            k_in.append(k)
            continue
        hk = f.hat_abs_bounds(abs(k * Tsharp - f.hat_center))[0]
        for branch in (1, -1):  # the guard refuses the first hit in ks's order, + first
            s = geo.sine(k, branch)
            if s <= margin and amp * hk / margin > 1e-25:
                geo.check_resonance(k, branch, margin)
            bounds.append(wt * amp * hk / max(s, margin))
    k_tail = math.fsum(bounds)

    if zero_in or not k_in:
        c0 = (general_c0_volume(complex(f.phi_hat(0.0)), geo.liouville_volume(E), 2)
              if zero_in else 0.0 + 0.0j)
        # the N^{d-1} coefficient is not part of the implemented display
        return [CoefficientPrediction(N=int(N), c0=c0, c1=0.0 + 0.0j,
                                      d=1.0 if zero_in else 0.0, k_tail=k_tail) for N in Ns]

    hats = [complex(f.phi_hat(k * Tsharp)) for k in k_in]
    return [CoefficientPrediction(
        N=int(N), c0=fsum_complex([geo.term(N, k, branch, hat, margin)
                                   for k, hat in zip(k_in, hats) for branch in (+1, -1)]),
        c1=0.0 + 0.0j, d=0.0, k_tail=k_tail) for N in Ns]


# ---------------------------------------------------------------------------
# residual diagnostics
# ---------------------------------------------------------------------------

@record
class ResidualReport:
    """Remainder analysis of Y_N against c0 N^d + c1 N^{d-1}.

    ``converged`` flags the degenerate fit in which every residual sits at
    the double-precision noise floor of its own trace sum; that outcome
    counts as a pass of the O(N^{d-2}) remainder check.
    """

    N: tuple
    residual: tuple
    scaled: tuple          # N^{2-d} |r_N|
    noise_floor: tuple
    max_scaled: float
    median_scaled: float
    slope: float | None
    converged: bool
    n_fit: int
    d: float

    @property
    def passed(self) -> bool:
        return self.converged or (self.slope is not None and -1.6 <= self.slope <= -0.6)


def _median(values) -> float:
    """np.median's value, on Python floats."""
    s = sorted(values)
    m = len(s) // 2
    return float(s[m] if len(s) % 2 else (s[m - 1] + s[m]) / 2)


def _slope(points) -> float:
    """Least-squares slope of log r against log N over (N, r) points: the
    closed form of a degree-1 fit, with centred sums taken exactly."""
    lx = [math.log(n) for n, _ in points]
    ly = [math.log(r) for _, r in points]
    mx, my = math.fsum(lx) / len(lx), math.fsum(ly) / len(ly)
    return (math.fsum((x - mx) * (y - my) for x, y in zip(lx, ly))
            / math.fsum((x - mx) ** 2 for x in lx))


def residual_report(traces: list, preds: list) -> ResidualReport:
    """Compute r_N = Y_N - c0 N^d - c1 N^{d-1} and its decay diagnostics.

    The log-log slope is fit over residuals above a conditioning-aware
    noise floor, 1e-13 * max(1, |Y_N|_abs + |c0| N^d + |c1| N^{d-1});
    residuals below it are indistinguishable from double-precision
    rounding of the trace sum itself.
    """
    if len(traces) != len(preds) or len(traces) < 5:
        raise ValidationError("residual_report needs matched N lists of length >= 5")
    if any(t.N != p.N for t, p in zip(traces, preds)):
        raise ValidationError("trace/prediction N lists differ")
    d = preds[0].d
    if any(p.d != d for p in preds):
        raise ValidationError("mixed leading powers d in predictions")

    Ns, res, scaled, floors = [], [], [], []
    for t, p in zip(traces, preds):
        Nf = float(t.N)
        r = t.value - p.c0 * Nf**d - p.c1 * Nf ** (d - 1.0)
        scale = t.abs_sum + abs(p.c0) * Nf**d + abs(p.c1) * Nf ** (d - 1.0)
        Ns.append(t.N)
        res.append(r)
        scaled.append(Nf ** (2.0 - d) * abs(r))
        floors.append(1e-13 * max(1.0, scale))

    usable = [(n, abs(r)) for n, r, fl in zip(Ns, res, floors) if abs(r) > fl]
    if len(usable) >= 2:
        slope = _slope(usable)
        converged = False
    else:
        slope = None
        converged = True
    return ResidualReport(
        N=tuple(Ns), residual=tuple(res), scaled=tuple(scaled),
        noise_floor=tuple(floors),
        max_scaled=float(max(scaled)), median_scaled=_median(scaled),
        slope=slope, converged=converged, n_fit=len(usable), d=d,
    )
