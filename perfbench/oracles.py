"""Reference values computed apart from the program.

Nothing here imports ``magtrace``.  Each oracle starts from the paper's
displays: the closed-form Landau ladders, the Poisson k-sums for c0, the
isolated-orbit display of the deformed sphere and the closed-form orbit
data of the magnetic geodesic flows.  Ladder sums run in mpmath at 40
digits; the bump's phi comes from adaptive oscillatory quadrature.
"""

from __future__ import annotations

import math
import warnings

import mpmath as mp
from scipy.integrate import IntegrationWarning, quad

mp.mp.dps = 40
EPS_DOUBLE = 2.0 ** -52
TWO_PI = 2.0 * math.pi

# Past u = w*|x| = 1000 the bump's |phi| is below 1e-17 and still falling
# faster than any power; the few rungs out there enter the allowance as
# (rung count) * mult * PHI_BEYOND instead of being summed.
BUMP_U_MAX = 1000.0
BUMP_U_FAR = 1600.0
PHI_BEYOND = 1e-17


# ---------------------------------------------------------------------------
# Landau ladders: nu_{N,j}, mult_{N,j} and the index range near a lambda
# ---------------------------------------------------------------------------

def ladder_nu_mult(geo: dict, N: int, j: int):
    """Closed-form eigenvalue nu_{N,j} (mpf) and multiplicity (int)."""
    kind = geo["kind"]
    N_, j_ = mp.mpf(N), mp.mpf(j)
    if kind == "torus":                      # B = 2 pi
        return 2 * mp.pi * N_ * (2 * j_ + 1), N
    if kind == "sphere":                     # B = 1/2
        R2 = mp.mpf(geo["R"]) ** 2
        return (j_ * (j_ + 1) + N_ * (2 * j_ + 1) / 2) / R2, N + 2 * j + 1
    if kind == "hyperbolic":                 # B = 1, integrable branch j < N - 1/2
        R2 = mp.mpf(geo["R"]) ** 2
        nu = (mp.mpf(1) / 4 + N_ ** 2 - (j_ + mp.mpf(1) / 2 - N_) ** 2) / R2
        return nu, (geo["genus"] - 1) * (2 * N - 2 * j - 1)
    raise ValueError(f"no closed-form ladder for {kind!r}")


def _j_of_lambda(geo: dict, N: int, lam: float) -> float:
    """Real index whose eigenvalue is lam (float search helper only)."""
    nu = max(lam * lam - N * N, 0.0)
    kind = geo["kind"]
    if kind == "torus":
        return (nu / (TWO_PI * N) - 1.0) / 2.0
    if kind == "sphere":
        R2 = geo["R"] ** 2
        return (-(1.0 + N) + math.sqrt((1.0 + N) ** 2 - 2.0 * N + 4.0 * R2 * nu)) / 2.0
    R2 = geo["R"] ** 2
    return N - 0.5 - math.sqrt(max(0.25 + N * N - R2 * nu, 0.0))


def ladder_rungs(geo: dict, N: int, E: float, reach: float):
    """Yield (mult, x) for every rung with |x| <= reach, x = lam - E N exact.

    x is formed in 40-digit arithmetic and returned as an mpf.
    """
    j_lo = max(0, math.floor(_j_of_lambda(geo, N, max(E * N - reach, 0.0))) - 3)
    j_hi = math.ceil(_j_of_lambda(geo, N, E * N + reach)) + 3
    if geo["kind"] == "hyperbolic":
        j_hi = min(j_hi, N - 1)
    EN = mp.mpf(E) * N
    for j in range(j_lo, j_hi + 1):
        nu, mult = ladder_nu_mult(geo, N, j)
        x = mp.sqrt(nu + N * N) - EN
        if abs(x) <= reach:
            yield mult, x


# ---------------------------------------------------------------------------
# spectral side
# ---------------------------------------------------------------------------

def gaussian_trace(geo: dict, N: int, E: float, s: float, radius: float):
    """Exact Y_N for phi = exp(-x^2/(2 s^2)) and what a window may omit.

    Returns (Y, abs_sum, omissible) as floats: Y sums every rung out to
    |x| = 13 s (the rest is below 1e-35 of the total), and omissible is the
    mass of the rungs at or beyond ``radius``, which a window of that
    radius is allowed to drop.
    """
    total = mp.mpf(0)
    abs_sum = mp.mpf(0)
    omissible = mp.mpf(0)
    for mult, x in ladder_rungs(geo, N, E, 13.0 * s):
        term = mult * mp.exp(-x * x / (2 * mp.mpf(s) ** 2))
        total += term
        abs_sum += term
        if abs(x) >= radius * (1.0 - 1e-9):
            omissible += term
    return float(total), float(abs_sum), float(omissible)


def _bump_psi(t: float) -> float:
    return math.exp(-1.0 / (1.0 - t * t)) if abs(t) < 1.0 else 0.0


def bump_Psi(u: float) -> tuple:
    """(int_{-1}^{1} psi(t) cos(u t) dt, error estimate) by QAWO quadrature."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(_bump_psi, -1.0, 1.0, weight="cos", wvar=abs(u),
                        limit=200, epsabs=1e-17, epsrel=1e-14)
    return val, err


def bump_phi(tau0: float, w: float, x: float) -> tuple:
    """phi(x) = (w/2pi) e^{i tau0 x} Psi(w x) with its quadrature error."""
    val, err = bump_Psi(w * x)
    scale = w / TWO_PI
    return scale * complex(math.cos(tau0 * x), math.sin(tau0 * x)) * val, scale * err


def bump_trace(geo: dict, N: int, E: float, tau0: float, w: float,
               tail_tol: float):
    """Sum of the quadrature phi over the closed-form ladder.

    Returns (Y, abs_sum, omissible, error, mult_sum).  ``omissible`` is the
    mass of rungs with |phi| <= tail_tol, which a window is allowed to
    drop; ``error`` adds the quadrature error estimates and the rungs past
    BUMP_U_MAX, bounded by PHI_BEYOND each; ``mult_sum`` is the summed
    rungs' total multiplicity.
    """
    total = 0j
    abs_sum = omissible = error = 0.0
    mult_sum = 0
    for mult, x in ladder_rungs(geo, N, E, BUMP_U_FAR / w):
        if abs(w * x) > BUMP_U_MAX:
            error += mult * PHI_BEYOND
            continue
        phi, err = bump_phi(tau0, w, float(x))
        total += mult * phi
        abs_sum += mult * abs(phi)
        error += mult * err
        mult_sum += mult
        if abs(phi) <= tail_tol * (1.0 + 1e-6):
            omissible += mult * abs(phi)
    return total, abs_sum, omissible, error, mult_sum


# ---------------------------------------------------------------------------
# geometric side: c0 k-sums and the Katok isolated-orbit display
# ---------------------------------------------------------------------------

def gaussian_hat(s: float):
    return lambda xi: s * mp.sqrt(2 * mp.pi) * mp.exp(-(mp.mpf(s) * xi) ** 2 / 2)


def bump_hat(tau0: float, w: float):
    def hat(xi):
        t = (xi - mp.mpf(tau0)) / w
        return mp.exp(-1 / (1 - t * t)) if abs(t) < 1 else mp.mpf(0)
    return hat


def c0_terms(geo: dict, N: int, E: float, hat, k_reach: int = 60):
    """Terms (k, value, phase argument) of the paper's c0 k-sum display.

    torus:      c0 = (E/2pi) sum_k fhat(kE) e^{i pi k} e^{-i k (E^2-1) N/2}
    sphere:     c0 = 2 E R^2 sum_k fhat(k 2pi E R^2/beta) e^{i pi k (N+1)}
                     e^{-2 pi i k beta N},   beta = sqrt((E^2-1) R^2 + 1/4)
    hyperbolic: c0 = (2g-2) E R^2 sum_k fhat(k 2pi E R/q) e^{i pi k}
                     e^{2 pi i k R q N},     q = sqrt(1/R^2 + 1 - E^2)
    """
    E_ = mp.mpf(E)
    kind = geo["kind"]
    if kind == "torus":
        amp, freq = E_ / (2 * mp.pi), E_

        def arg(k):
            return mp.pi * k - k * (E_ ** 2 - 1) * N / 2
    elif kind == "sphere":
        R = mp.mpf(geo["R"])
        beta = mp.sqrt((E_ ** 2 - 1) * R ** 2 + mp.mpf(1) / 4)
        amp, freq = 2 * E_ * R ** 2, 2 * mp.pi * E_ * R ** 2 / beta

        def arg(k):
            return mp.pi * k * (N + 1) - 2 * mp.pi * k * beta * N
    else:
        R = mp.mpf(geo["R"])
        q = mp.sqrt(1 / R ** 2 + 1 - E_ ** 2)
        amp = (2 * geo["genus"] - 2) * E_ * R ** 2
        freq = 2 * mp.pi * E_ * R / q

        def arg(k):
            return mp.pi * k + 2 * mp.pi * k * R * q * N
    out = []
    for k in range(-k_reach, k_reach + 1):
        h = hat(k * freq)
        if h != 0:
            a = arg(k)
            out.append((k, amp * h * mp.expj(a), abs(a)))
    return out


def c0_check(c0: complex, terms, omit_below: float) -> tuple:
    """(deviation, allowance) of a program c0 against the k-sum terms.

    The allowance covers double rounding of each term's phase argument
    (8 eps |arg| + 8 eps per term) and the terms small enough
    (|term| <= omit_below) for a truncated k-sum to drop.
    """
    ref = mp.mpc(0)
    allow = 0.0
    for _, t, a in terms:
        ref += t
        mag = float(abs(t))
        allow += 8.0 * EPS_DOUBLE * mag * (1.0 + float(a))
        if mag <= omit_below:
            allow += mag
    return abs(c0 - complex(ref)), allow + 1e-300


def katok_maslov(k: int, branch: int, eps: float) -> int:
    """m = 2 floor(2k/(1 -+ eps)) + 2 sign(k) + 1 at E = sqrt(2)."""
    return 2 * math.floor(2.0 * k / (1.0 - branch * eps)) + 2 * (1 if k > 0 else -1) + 1


def katok_term(N: int, eps: float, k: int, branch: int, hat_value) -> complex:
    """One (k, branch) term of the deformed sphere's isolated-orbit display.

    (1/(sqrt2 (1-eps^2))) e^{i pi m/4} e^{-2 pi i N k/(1 -+ eps)}
    / |sin(pi k/(1 -+ eps))| * fhat(k T#)
    """
    e = mp.mpf(eps)
    d = 1 - branch * e
    m = katok_maslov(k, branch, eps)
    val = (mp.expj(mp.pi * m / 4) * mp.expj(-2 * mp.pi * N * k / d)
           / (mp.sqrt(2) * (1 - e * e) * abs(mp.sin(mp.pi * k / d))) * hat_value)
    return complex(val)


# ---------------------------------------------------------------------------
# orbit data of the magnetic geodesic flows
# ---------------------------------------------------------------------------

def orbit_closed_forms(geo: dict, E: float, branch: int = -1) -> dict:
    """Period T, length L and holonomy of the canonical closed orbit.

    torus (B = 2pi): T = E, L = c, hol = -(E^2-1)/2
    sphere (B = 1/2): w = sqrt(c^2 + B^2/R^2), T = 2pi E R/w,
        L = 2pi c R/w, hol = -2pi B (1 - (B/R)/w)
    hyperbolic (B = 1, cR < 1): r = sqrt(1 - c^2 R^2), T = 2pi E R^2/r,
        L = 2pi c R^2/r, hol = -2pi (1/r - 1)
    Katok: T = 2pi E/((1-eps^2) c), L = 2pi/(1-eps^2),
        hol = +-2pi eps/(1-eps^2) on the +- equator (branch +-1)
    """
    c = math.sqrt(E * E - 1.0)
    kind = geo["kind"]
    if kind == "torus":
        return {"T": E, "L": c, "hol": -(E * E - 1.0) / 2.0, "c": c}
    if kind == "sphere":
        B, R = 0.5, geo["R"]
        w = math.sqrt(c * c + B * B / (R * R))
        return {"T": TWO_PI * E * R / w, "L": TWO_PI * c * R / w,
                "hol": -TWO_PI * B * (1.0 - (B / R) / w), "c": c}
    if kind == "hyperbolic":
        R = geo["R"]
        r = math.sqrt(1.0 - c * c * R * R)
        return {"T": TWO_PI * E * R * R / r, "L": TWO_PI * c * R * R / r,
                "hol": -TWO_PI * (1.0 / r - 1.0), "c": c}
    e = geo["eps"]
    return {"T": TWO_PI * E / ((1.0 - e * e) * c), "L": TWO_PI / (1.0 - e * e),
            "hol": branch * TWO_PI * e / (1.0 - e * e), "c": c}


def hamiltonian(geo: dict, q1, q2, p1, p2) -> float:
    """H = sqrt(g^{-1}(p, p) + 1) in each geometry's chart."""
    kind = geo["kind"]
    if kind == "torus":
        k = p1 * p1 + p2 * p2
    elif kind == "sphere":
        s = math.sin(q1)
        k = (p1 * p1 + p2 * p2 / (s * s)) / geo["R"] ** 2
    elif kind == "hyperbolic":
        k = q2 * q2 * (p1 * p1 + p2 * p2) / geo["R"] ** 2
    else:
        s2 = math.sin(q1) ** 2
        D = 1.0 - geo["eps"] ** 2 * s2
        k = D * p1 * p1 + D * D * p2 * p2 / s2
    return math.sqrt(k + 1.0)


def katok_P(eps: float, q1: float, p2: float) -> float:
    """First integral P = p_phi + eps sin^2/(1 - eps^2 sin^2) of the Katok flow."""
    s2 = math.sin(q1) ** 2
    return p2 + eps * s2 / (1.0 - eps * eps * s2)


def metric_area(geo: dict) -> float:
    """Area of the surface (Gauss-Bonnet for the hyperbolic one)."""
    kind = geo["kind"]
    if kind == "torus":
        return 1.0
    if kind == "sphere":
        return 4.0 * math.pi * geo["R"] ** 2
    if kind == "katok":
        return 4.0 * math.pi / (1.0 - geo["eps"] ** 2)
    return TWO_PI * geo["R"] ** 2 * (2 * geo["genus"] - 2)


def katok_monodromy(eps: float, E: float, branch: int) -> tuple:
    """Closed-form transverse return map of the +- equator and det(I - P).

    a = sqrt((E^2-1)(1+eps^2) +- 2 eps c), alpha = (2pi/(1-eps^2))
    sqrt(1 + eps^2 +- 2 eps/c), P = [[cos alpha, (1-eps^2)/a sin alpha],
    [-a/(1-eps^2) sin alpha, cos alpha]].  At E = sqrt2, alpha = 2pi/(1 -+ eps)
    and det(I - P) = 4 sin^2(pi/(1 -+ eps)).
    """
    c = math.sqrt(E * E - 1.0)
    a = math.sqrt((E * E - 1.0) * (1.0 + eps * eps) + branch * 2.0 * eps * c)
    alpha = TWO_PI / (1.0 - eps * eps) * math.sqrt(1.0 + eps * eps + branch * 2.0 * eps / c)
    ca, sa = math.cos(alpha), math.sin(alpha)
    mat = [[ca, (1.0 - eps * eps) / a * sa], [-a / (1.0 - eps * eps) * sa, ca]]
    det = 4.0 * math.sin(math.pi / (1.0 - branch * eps)) ** 2
    return mat, det
