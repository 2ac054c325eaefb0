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
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import (DegenerateOrbitError, MixedSupportError, ResonanceError,
                     ValidationError)
from .geometry import Katok, Torus, half_lattice_distance, katok_maslov_closed
from .spectra import EnergyLevel, levels
from .testfn import TestFunction

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)

# Largest k_max of a k-sum (2 k_max + 1 terms, about 0.15 s and 26 MB at the cap)
MAX_K_MAX = 100_000


@dataclasses.dataclass(frozen=True)
class KSumControl:
    """Truncation and resonance policy for the coefficient k-sums."""

    k_max: int
    resonance_margin: float = 1e-6

    def __post_init__(self):
        if not (isinstance(self.k_max, int) and 0 <= self.k_max <= MAX_K_MAX):
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
        reach = abs(f.hat_center) + f.hat_radius(tail_tol)
        if not reach / freq < MAX_K_MAX:  # refuses an infinite quotient too
            raise ValidationError(
                f"the k-sum needs k_max > {reach / freq:.6g} to reach |phi_hat| <= "
                f"{tail_tol:g}; k_max is capped at {MAX_K_MAX:,}")
        return cls(k_max=int(math.ceil(reach / freq)) + 1,
                   resonance_margin=resonance_margin)


@dataclasses.dataclass(frozen=True)
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


def _fsum_complex(terms) -> complex:
    arr = np.asarray(list(terms), dtype=complex)
    if arr.size == 0:
        return 0.0 + 0.0j
    return complex(math.fsum(arr.real), math.fsum(arr.imag))


def _k_order(k_max: int):
    """Fixed summation order 0, +1, -1, +2, -2, ..."""
    yield 0
    for k in range(1, k_max + 1):
        yield k
        yield -k


def _k_tail_bound(bound_at, k_start: int) -> float:
    """Certified bound on sum_{|k| > k_start - 1} |term_k|.

    ``bound_at(k)`` must dominate |term_k| + |term_{-k}|.  The per-k bounds
    here are (polynomial) x (nonincreasing envelope) sequences, whose term
    ratios are eventually decreasing; after two consecutive halvings the
    rest is dominated by a geometric series with ratio 1/2.
    """
    total = 0.0
    k = k_start
    prev = float(bound_at(k))
    halvings = 0
    for _ in range(200_000):
        total += prev
        if prev == 0.0:
            return total
        nxt = float(bound_at(k + 1))
        halvings = halvings + 1 if nxt <= 0.5 * prev else 0
        if halvings >= 2:
            return total + 2.0 * nxt
        prev = nxt
        k += 1
    raise ValidationError("k-sum tail bound failed to enter the geometric regime")


# ---------------------------------------------------------------------------
# coefficient sums of the closed-form ladders
# ---------------------------------------------------------------------------

def poisson_c01(N: int, model, level: EnergyLevel, f: TestFunction,
                ctl: KSumControl) -> CoefficientPrediction:
    """c0 and c1 of a closed-form ladder at one N: its Poisson image.

    Sums fhat, fhat', fhat'' at k * freq, k = 0, +-1, ..., +-k_max, with the
    summands, phases and per-k bounds of ``model.poisson_image``.  Refused
    before any evaluation: a sum whose largest squared k * freq (the tail
    walk's first two steps included), phase argument or coefficient is not
    finite, and a hyperbolic energy at or above the Mane level.
    """
    E = level.E
    freq = model.k_frequency(E)
    try:
        phase_scale, terms, bound = model.poisson_image(N, E)
        top = (ctl.k_max + 2) * freq
        finite = math.isfinite(top * top) and math.isfinite(ctl.k_max * phase_scale)
    except OverflowError:  # a coefficient power such as the sphere's beta**3
        finite = False
    if not finite:
        raise ValidationError(f"the k-sum at N={N}, E={E:.6g} leaves the double range")
    ks = np.array(list(_k_order(ctl.k_max)))
    xi = ks * freq
    c0_terms, c1_terms = terms(ks, *(np.asarray(h(xi), dtype=complex)
                                     for h in (f.phi_hat, f.phi_hat_d1, f.phi_hat_d2)))

    def bound_at(k):
        out = 0.0
        for kk in (k, -k):
            u = abs(kk * freq - f.hat_center)
            out += bound(kk, *(f.hat_abs_bound(order, u) for order in range(3)))
        return out

    return CoefficientPrediction(N=int(N), c0=_fsum_complex(c0_terms),
                                 c1=_fsum_complex(c1_terms), d=1.0,
                                 k_tail=_k_tail_bound(bound_at, ctl.k_max + 1))


# ---------------------------------------------------------------------------
# general-form building blocks
# ---------------------------------------------------------------------------

def general_c0_volume(phi_hat_0: complex, volXE: float, n: int) -> complex:
    """Volume term (2pi)^{-n} fhat(0) Vol(X_E) of the zero-period window."""
    if not (volXE > 0.0):
        raise ValidationError(f"phase-space volume must be positive, got {volXE}")
    if not (isinstance(n, int) and n >= 1):
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
    return (amp * complex(math.cos(math.pi * m / 4.0), math.sin(math.pi * m / 4.0))
            * complex(math.cos(N * S), -math.sin(N * S))
            * complex(phi_hat_at_Tgamma))


def _katok_resonance_guard(k: int, branch: int, eps: float, margin: float):
    x = 2.0 * k / (1.0 - branch * eps)
    s = abs(math.sin(math.pi * k / (1.0 - branch * eps)))
    # distance to the half-integer lattice covers both floor discontinuities
    d = half_lattice_distance(x)
    if s <= margin or 2.0 * d <= margin:
        sign = "+" if branch > 0 else "-"
        raise ResonanceError(
            f"k={k}, branch {sign}: 2k/(1{'-' if branch > 0 else '+'}eps)={x:.9g} "
            f"is resonant (|sin|={s:.3e}, lattice distance {d:.3e})"
        )


def katok_term_closed(N: int, eps: float, k: int, branch: int,
                      phi_hat_value: complex,
                      resonance_margin: float = 1e-6) -> complex:
    """One (k, branch) term of the deformed-sphere isolated-orbit display.

        (1/(sqrt(2)(1-eps^2))) e^{i pi m/4} e^{-2 pi i N k/(1 -+ eps)}
        / |sin(pi k/(1 -+ eps))| * phi_hat_value

    with m the closed-form Maslov index of the iterate.  branch is +1 for
    the "+" equator (denominators 1-eps) and -1 for the "-" one.
    """
    if branch not in (+1, -1):
        raise ValidationError(f"branch must be +1 or -1, got {branch}")
    if k == 0:
        raise ValidationError("closed-form orbit terms need k != 0")
    _katok_resonance_guard(k, branch, eps, resonance_margin)
    m = katok_maslov_closed(k, branch, eps)
    amp = 1.0 / (SQRT2 * (1.0 - eps * eps))
    denom = abs(math.sin(math.pi * k / (1.0 - branch * eps)))
    phase = (complex(math.cos(math.pi * m / 4.0), math.sin(math.pi * m / 4.0))
             * complex(math.cos(TWO_PI * N * k / (1.0 - branch * eps)),
                       -math.sin(TWO_PI * N * k / (1.0 - branch * eps))))
    return amp * phase * complex(phi_hat_value) / denom


def katok_c0(N: int, eps: float, f: TestFunction, ctl: KSumControl,
             support_tol: float = 1e-12) -> CoefficientPrediction:
    """Leading trace coefficient for the deformed-sphere example at E = sqrt(2).

    Two disjoint regimes, selected by the (effective) support of phi_hat:

    * support containing only the zero period: d = 1 and
      c0 = 2 sqrt(2) fhat(0)  (the phase-space volume term);
    * support containing only nonzero periods k T# (T# = 2 pi sqrt(2)/(1-eps^2)):
      d = 0 and c0 sums the two equatorial orbits' iterate contributions

          (1/(sqrt(2)(1-eps^2))) e^{i pi m_{k,+-}/4} e^{-2 pi i N k/(1 -+ eps)}
          / |sin(pi k/(1 -+ eps))| * fhat(2 pi sqrt(2) k / (1-eps^2)),

      with Maslov indices m_{k,+-} = 2 floor(2k/(1 -+ eps)) + 2 sign k + 1.
      (Each term is exactly the nondegenerate-orbit formula evaluated on the
      equators' closed-form invariants.)

    Windows containing both the zero and a nonzero period are rejected.
    """
    Tsharp = Katok(eps).k_frequency(SQRT2)  # refuses eps outside (0, 1)
    if not (isinstance(N, (int, np.integer)) and N >= 1):
        raise ValidationError(f"N must be a positive integer, got {N}")
    lo, hi = f.hat_support_interval(support_tol)
    zero_in = lo <= 0.0 <= hi
    k_in = [k for k in range(int(math.floor(lo / Tsharp)) - 1,
                             int(math.ceil(hi / Tsharp)) + 2)
            if k != 0 and lo <= k * Tsharp <= hi]
    if zero_in and k_in:
        raise MixedSupportError(
            "phi_hat support contains the zero period and the nonzero period(s) "
            f"{sorted(k_in)}*T#; the two asymptotic regimes are disjoint, use a "
            "window isolating one"
        )

    amp = 1.0 / (SQRT2 * (1.0 - eps * eps))

    def excluded_bound(k):
        # |phi_hat| envelope at the dropped periods, both branches.  Near a
        # resonance the guard only fires when the capped contribution is
        # non-negligible; astronomically small envelope terms are simply
        # bounded with the margin in the denominator.
        u = abs(k * Tsharp - f.hat_center)
        h = float(f.hat_abs_bound(0, u))
        if h == 0.0:
            return 0.0
        total = 0.0
        for branch in (+1, -1):
            s = abs(math.sin(math.pi * k / (1.0 - branch * eps)))
            if s <= ctl.resonance_margin and amp * h / ctl.resonance_margin > 1e-25:
                _katok_resonance_guard(k, branch, eps, ctl.resonance_margin)
            total += amp * h / max(s, ctl.resonance_margin)
        return total

    # everything beyond the scanned range is excluded by construction
    k_tail = _k_tail_bound(
        lambda k: excluded_bound(k) + excluded_bound(-k),
        max(ctl.k_max, max((abs(k) for k in k_in), default=0)) + 1,
    )

    if zero_in or not k_in:
        # exact energy-shell volume 2 pi E * 4 pi/(1-eps^2); the published
        # display drops the (1-eps^2)^{-1}, valid only modulo eps^2
        vol = 8.0 * math.pi**2 * SQRT2 / (1.0 - eps * eps)
        c0 = general_c0_volume(complex(f.phi_hat(0.0)), vol, 2) if zero_in else 0.0 + 0.0j
        # the N^{d-1} coefficient is not part of the implemented display
        return CoefficientPrediction(N=int(N), c0=c0, c1=0.0 + 0.0j, d=1.0 if zero_in else 0.0,
                                     k_tail=k_tail)

    terms = []
    for k in sorted(k_in, key=abs):
        hval = complex(f.phi_hat(k * Tsharp))
        for branch in (+1, -1):
            terms.append(katok_term_closed(N, eps, k, branch, hval,
                                           ctl.resonance_margin))
    return CoefficientPrediction(N=int(N), c0=_fsum_complex(terms),
                                 c1=0.0 + 0.0j, d=0.0, k_tail=k_tail)


# ---------------------------------------------------------------------------
# residual diagnostics and the Bohr-Sommerfeld cluster check
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
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
        ln = np.log([u[0] for u in usable])
        lr = np.log([u[1] for u in usable])
        slope = float(np.polyfit(ln, lr, 1)[0])
        converged = False
    else:
        slope = None
        converged = True
    return ResidualReport(
        N=tuple(Ns), residual=tuple(res), scaled=tuple(scaled),
        noise_floor=tuple(floors),
        max_scaled=float(max(scaled)), median_scaled=float(np.median(scaled)),
        slope=slope, converged=converged, n_fit=len(usable), d=d,
    )


@dataclasses.dataclass(frozen=True)
class ClusterCheck:
    """Bohr-Sommerfeld cluster localization on the torus."""

    N: tuple
    j_star: tuple
    lam: tuple
    formula_rel_dev: tuple   # lam vs sqrt(E^2 N^2 + 2 pi N)
    scaled_gap: tuple        # N |lam - E N - pi/E|
    bounded: bool


def torus_cluster_check(level: EnergyLevel, N_list) -> ClusterCheck:
    """Check the single-cluster localization at E = sqrt(1 + 4 pi m).

    At these energies the action is a multiple of 2 pi and the nearest
    eigenvalue to E N + pi/E is the j* = mN ladder rung, with
    lam = sqrt(E^2 N^2 + 2 pi N) and N |lam - E N - pi/E| bounded.
    """
    E = level.E
    m_real = (E * E - 1.0) / (4.0 * math.pi)
    m = int(round(m_real))
    if m < 1 or abs(m_real - m) > 1e-9:
        raise ValidationError(
            f"cluster check requires E = sqrt(1+4 pi m) for a positive integer m; "
            f"E={E} gives m={m_real}"
        )
    N_list = list(N_list)
    if not N_list:
        raise ValidationError("N list must be nonempty")
    Ns, js, lams, devs, gaps = [], [], [], [], []
    for N in N_list:
        j_star = m * N
        entry = levels(Torus(), N, j_star)
        lam_formula = math.sqrt(E * E * N * N + TWO_PI * N)
        Ns.append(N)
        js.append(j_star)
        lams.append(entry.lam)
        devs.append(abs(entry.lam - lam_formula) / lam_formula)
        gaps.append(N * abs(entry.lam - E * N - math.pi / E))
    bounded = max(gaps) <= 2.0 * gaps[-1] + 1.0
    return ClusterCheck(N=tuple(Ns), j_star=tuple(js), lam=tuple(lams),
                        formula_rel_dev=tuple(devs), scaled_gap=tuple(gaps),
                        bounded=bounded)
