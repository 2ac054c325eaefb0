"""Schwartz test functions paired with their Fourier transforms.

Transform convention used throughout the package::

    phi_hat(xi) = integral phi(x) exp(-i*xi*x) dx
    phi(x)      = (1/2pi) integral phi_hat(xi) exp(+i*xi*x) dxi

Three families are provided:

``gaussian``
    phi(x) = exp(-x^2/(2 s^2)),  phi_hat(xi) = s*sqrt(2pi)*exp(-s^2 xi^2/2).
``gaussian_modulated``
    phi(x) = exp(-x^2/(2 s^2)) * exp(i b x); the transform is the gaussian
    one recentred at ``b``.  Complex-valued for b != 0.
``fourier_bump``
    phi_hat is the standard smooth bump exp(-1/(1-t^2)), t = (xi-tau0)/w,
    identically zero outside [tau0-w, tau0+w]; phi is recovered by a fixed
    Gauss-Legendre rule on the support.  The rule is symmetric and the bump
    even, so the rule's sine half cancels exactly and phi is evaluated in its
    real cosine form phi(x) = exp(i tau0 x) g(w x), with g a sum of cosines
    over the positive nodes.  Those nodes and their weights ship as data
    (``_legendre1024``, bit-identical to ``leggauss(1024)``); the cosine
    table is built from them once per process, on the first bump.
    Complex-valued for tau0 != 0.

Every instance also carries a *certified decay envelope* of phi and bounds
on |phi_hat| and its first two derivatives.  The envelope bounds what the
spectral windows and the lattice side of the Poisson-summation self-test
leave out; the hat bounds do the same for the k-sums, the self-test's
frequency side among them.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureError, ValidationError, read_kind, refuse_past_double_range

TWO_PI = 2.0 * math.pi

# L1 norms D_m = int_{-1}^{1} |psi^(m)(t)| dt of the unit bump
# psi(t) = exp(-1/(1-t^2)), computed offline from the exact symbolic
# derivatives and rounded *up* (2% headroom): they only ever enter as
# upper bounds.  |phi(x)| <= w^(1-m) * D_m / (2pi |x|^m) for the bump of
# half-width w, by m-fold integration by parts.
_BUMP_D0 = 0.4441
_BUMP_D2 = 3.258
_BUMP_D4 = 1098.0

# Fixed Gauss-Legendre rule for the bump's inverse transform, shipped as the
# positive half of ``leggauss(1024)`` in ``_legendre1024``.  The rule
# resolves cos(t*w*x) on [-1, 1] while the node count exceeds w*|x|/2 plus a
# margin for the bump itself; 1024 nodes keep full precision out to
# w*|x| ~ 1600, past which the bump's phi is below double-precision
# resolution anyway.  The dyadic radius search is capped there accordingly.
_BUMP_U_CAP = 1600.0

# Largest offset of a gaussian's phi: its radius at the smallest positive
# double, s*sqrt(2 ln(1/5e-324)) ~ 38.6 s (a bump's is _BUMP_U_CAP/w).
_GAUSS_MAX_OFFSET = math.sqrt(-2.0 * math.log(5e-324))


def _refuse_lost_phase(what: str, phase: float) -> None:
    """Refuse a modulation whose largest phase reaches 2^53, past which
    exp(1j*phase) keeps no phase information."""
    if not abs(phase) < 2.0**53:
        raise ValidationError(f"{what}: the largest phase of phi, {abs(phase):.3g}, "
                              "reaches 2^53, where exp(i*phase) keeps no phase information")


# Points per block of the bump's cosine sum: bounds the (block x 512)
# temporary to 8 MB.
_BUMP_BLOCK = 2048

# Points in the first block of a radius probe, and in each block of the
# lattice scan after it: a probe that fails is loud near its start, and the
# scan runs down to the radius, so most stop after a block or a few.
_BUMP_PROBE_HEAD = 64


# ---------------------------------------------------------------------------
# decay envelopes
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class GaussianEnvelope:
    """Envelope amp*exp(-u^2/(2 scale^2)) for u = distance past the center."""

    amp: float
    scale: float

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        return self.amp * np.exp(-np.square(u) / (2.0 * self.scale**2))

    def halfline_moment(self, a: float, c0: float, c1: float) -> float:
        """Exact integral_a^inf (c0 + c1*x) env(x) dx  (a > 0)."""
        s = self.scale
        gauss_tail = s * math.sqrt(math.pi / 2.0) * math.erfc(a / (s * math.sqrt(2.0)))
        exp_term = s * s * math.exp(-a * a / (2.0 * s * s))
        return self.amp * (c0 * gauss_tail + c1 * exp_term)


@dataclasses.dataclass(frozen=True)
class PowerEnvelope:
    """Envelope min(cap, c2/u^2, c4/u^4) for compactly band-limited phi."""

    cap: float
    c2: float
    c4: float

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore"):
            v2 = np.where(u > 0, self.c2 / np.square(u), np.inf)
            v4 = np.where(u > 0, self.c4 / np.square(np.square(u)), np.inf)
        return np.minimum(self.cap, np.minimum(v2, v4))

    def halfline_moment(self, a: float, c0: float, c1: float) -> float:
        """integral_a^inf (c0 + c1*x) env(x) dx, leg by leg: cap up to
        sqrt(c2/cap), c2/u^2 up to sqrt(c4/c2), then c4/u^4 (exact when the
        legs meet in that order; each leg dominates env, so a bound always)."""
        if a <= 0.0:
            raise ValidationError("halfline_moment needs a > 0")
        p = max(a, math.sqrt(self.c2 / self.cap))
        q = max(p, math.sqrt(self.c4 / self.c2))
        return (self.cap * (c0 * (p - a) + c1 * (p - a) * (p + a) / 2.0)
                + self.c2 * (c0 * (1.0 / p - 1.0 / q) + c1 * math.log(q / p))
                + self.c4 * (c1 / (2.0 * q * q) + c0 / (3.0 * q**3)))


@dataclasses.dataclass(frozen=True)
class SumEnvelope:
    """|a1| env1(u) + |a2| env2(u) + ... for linear combinations."""

    terms: tuple  # of (|coeff|, envelope)

    def __call__(self, u):
        return sum(c * env(u) for c, env in self.terms)

    def halfline_moment(self, a, c0, c1):
        return sum(c * env.halfline_moment(a, c0, c1) for c, env in self.terms)


# ---------------------------------------------------------------------------
# the test function record
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class TestFunction:
    """A Schwartz function with explicit evaluators for both transform sides.

    All evaluators are pure, vectorized over numpy arrays, and safe to call
    concurrently; instances are immutable after construction.

    Attributes
    ----------
    kind : str
        One of ``gaussian``, ``gaussian_modulated``, ``fourier_bump`` (or
        ``combination`` for harness-built linear combinations).
    complex_valued : bool
        Whether phi takes complex values.
    params : dict
        Defining parameters, for reports and CLI round-trips.
    hat_support : tuple or None
        Exact support interval of phi_hat when compact, else None.
    hat_center : float
        Center of mass of phi_hat's decay (b for modulated gaussians).
    time_env
        Certified decay envelope, |phi(x)| <= time_env(|x|), nonincreasing.
        The transform side is bounded by ``hat_abs_bound`` instead.
    """

    __test__ = False  # domain type, not a pytest collection target

    kind: str
    complex_valued: bool
    params: dict
    phi: Callable
    phi_hat: Callable
    phi_hat_d1: Callable
    phi_hat_d2: Callable
    time_env: object
    hat_center: float = 0.0
    hat_support: tuple | None = None
    _radius_fn: Callable = None
    _hat_radius_fn: Callable = None
    _hat_abs_fn: Callable = None

    def hat_abs_bound(self, order: int, u) -> float:
        """Upper bound for |phi_hat^{(order)}| at distance u from hat_center.

        order is 0, 1 or 2; used to certify truncations of k-sums built on
        phi_hat and its first two derivatives.
        """
        if order not in (0, 1, 2):
            raise ValidationError(f"hat_abs_bound supports orders 0..2, got {order}")
        return self._hat_abs_fn(order, u)

    def radius(self, tol: float) -> float:
        """Smallest reported r with |phi(x)| <= tol for all |x| >= r."""
        if not (0.0 < tol < 1.0):
            raise ValidationError(f"radius tolerance must lie in (0,1), got {tol}")
        return self._radius_fn(tol)

    def hat_radius(self, tol: float) -> float:
        """Radius around hat_center past which |phi_hat| <= tol."""
        if not (0.0 < tol < 1.0):
            raise ValidationError(f"hat_radius tolerance must lie in (0,1), got {tol}")
        return self._hat_radius_fn(tol)

    def hat_support_interval(self, tol: float) -> tuple:
        """Interval outside which |phi_hat| <= tol (exact for bumps)."""
        if self.hat_support is not None:
            return self.hat_support
        r = self.hat_radius(tol)
        return (self.hat_center - r, self.hat_center + r)


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------


# also wrapped by perfbench/tracer.py and called by perfbench/reference.py
def make_gaussian(s: float) -> TestFunction:
    """Gaussian pair phi(x) = exp(-x^2/(2 s^2)), phi_hat = s*sqrt(2pi)*exp(-s^2 xi^2/2).

    The b = 0 case of ``make_gaussian_modulated``, under its own kind.
    """
    return dataclasses.replace(make_gaussian_modulated(s, 0.0), kind="gaussian",
                               params={"s": s})


def make_gaussian_modulated(s: float, b: float) -> TestFunction:
    """Modulated gaussian exp(-x^2/(2 s^2)) exp(i b x); phi_hat recentred at b.

    phi is real-valued at b = 0, where the modulation is exactly 1.
    """
    if not (s > 0.0 and math.isfinite(s)):
        raise ValidationError(f"gaussian width s must be positive, got {s}")
    # s^4 of phi_hat'', 1/s^2 of the envelopes, the exponent (s b)^2 of phi_hat(0)
    refuse_past_double_range(f"gaussian parameters s={s:g}, b={b:g}",
                             lambda: (s**4, 1.0 / (s * s), s * s * (b * b)))
    _refuse_lost_phase(f"gaussian parameters s={s:g}, b={b:g}", b * _GAUSS_MAX_OFFSET * s)
    amp = s * math.sqrt(TWO_PI)

    def phi(x):
        x = np.asarray(x, dtype=float)
        g = np.exp(-np.square(x) / (2.0 * s * s))
        return g * np.exp(1j * b * x) if b != 0.0 else g

    def phi_hat(xi):
        u = np.asarray(xi, dtype=float) - b
        return amp * np.exp(-s * s * np.square(u) / 2.0)

    def phi_hat_d1(xi):
        u = np.asarray(xi, dtype=float) - b
        return -s * s * u * phi_hat(xi)

    def phi_hat_d2(xi):
        u = np.asarray(xi, dtype=float) - b
        return (s**4 * np.square(u) - s * s) * phi_hat(xi)

    # -log(tol), not log(1/tol): 1/tol overflows for tol below 1/DBL_MAX
    def radius(tol):
        return s * math.sqrt(-2.0 * math.log(tol))

    def hat_radius(tol):
        if tol >= amp:
            return 0.0
        return math.sqrt(2.0 * (math.log(amp) - math.log(tol))) / s

    hat_decay = GaussianEnvelope(amp, 1.0 / s)

    def hat_abs(order, u):
        e = hat_decay(u)
        if order == 0:
            return e
        if order == 1:
            return s * s * np.abs(u) * e
        return (s**4 * np.square(u) + s * s) * e

    return TestFunction(
        kind="gaussian_modulated", complex_valued=(b != 0.0),
        params={"s": s, "b": b},
        phi=phi, phi_hat=phi_hat, phi_hat_d1=phi_hat_d1, phi_hat_d2=phi_hat_d2,
        time_env=GaussianEnvelope(1.0, s),
        hat_center=b,
        _radius_fn=radius, _hat_radius_fn=hat_radius, _hat_abs_fn=hat_abs,
    )


def _bump_psi(t, form=lambda e, t, om: e):
    """form(psi(t), t, 1 - t^2) inside |t| < 1, for the unit bump
    psi(t) = exp(-1/(1-t^2)) (psi itself by default); exactly 0 outside."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    om = 1.0 - ti * ti
    out[inside] = form(np.exp(-1.0 / om), ti, om)
    return out


@functools.cache
def _bump_cosine_table():
    """Positive Gauss-Legendre nodes t_m and unit cosine coefficients c_m.

    The shipped rule (``leggauss(1024)``, bit for bit) is exactly symmetric
    about 0 and psi is even, so the inverse transform of the bump of
    half-width w collapses to

        (w/2pi) sum_m W_m psi(t_m) exp(i (tau0 + w t_m) x)
            = exp(i tau0 x) * w * sum_{t_m > 0} c_m cos(t_m w x),

    c_m = 2 W_m psi(t_m) / 2pi.  Built on the first bump, shared by all of
    them; the arrays are read-only because every caller gets the same ones.
    """
    from ._legendre1024 import positive_half

    t, weights = positive_half()  # read-only views of the shipped bytes
    c = 2.0 * weights * _bump_psi(t) / TWO_PI
    c.flags.writeable = False
    return t, c


def _bump_cosine_sum(u, coeff):
    """g(u) = sum_m coeff_m cos(t_m u) over the shared positive nodes, u 1-D."""
    t, _ = _bump_cosine_table()
    out = np.empty(u.shape)
    for i in range(0, u.size, _BUMP_BLOCK):
        arg = np.multiply.outer(u[i:i + _BUMP_BLOCK], t)
        np.cos(arg, out=arg)
        arg *= coeff
        out[i:i + _BUMP_BLOCK] = arg.sum(axis=1)
    return out


def make_fourier_bump(tau0: float, w: float) -> TestFunction:
    """Bump on the transform side: phi_hat(xi) = exp(-1/(1-t^2)), t = (xi-tau0)/w.

    phi_hat vanishes identically outside [tau0-w, tau0+w], so only the
    flow periods inside that interval can contribute to any k-sum built
    on it.  phi itself is the fixed 1024-point Gauss-Legendre rule on the
    support (the integrand is smooth there), evaluated in its exact cosine
    form phi(x) = exp(i tau0 x) g(w x) with 512 real cosines per point from
    the shared table of ``_bump_cosine_table``, which is built once per
    process, on the first bump, from the shipped nodes and weights; phi is
    complex-valued whenever tau0 != 0.  |phi| = |g(w x)| does not depend on
    tau0, so neither does ``radius``, which each instance memoizes per
    ``tol`` (instances never share radii).  The radius search probes
    [u, 2u] at dyadic u until one is quiet (a probe stops at its first block
    of points where |g| exceeds ``tol``), then scans the points
    u/2 + k u/2048, k = 1024 down to 1, in blocks until one is loud; the
    radius is the point just past the highest loud one.
    """
    if not (w > 0.0 and math.isfinite(w)):
        raise ValidationError(f"bump half-width w must be positive, got {w}")
    # w^3 and 1/w^3 of the envelope, the largest phase tau0 x of phi
    refuse_past_double_range(f"bump parameters tau0={tau0:g}, w={w:g}",
                             lambda: (w**3, 1.0 / w**3, tau0 * _BUMP_U_CAP / w))
    _refuse_lost_phase(f"bump parameters tau0={tau0:g}, w={w:g}", tau0 * _BUMP_U_CAP / w)

    coeff = w * _bump_cosine_table()[1]
    real_valued = (tau0 == 0.0)

    def phi(x):
        x = np.asarray(x, dtype=float)
        flat = np.atleast_1d(x).ravel()
        out = np.zeros(flat.shape, dtype=(float if real_valued else complex))
        # past the rule's resolution the true |phi| is below 1e-16; report 0
        # there rather than quadrature aliasing noise
        ok = np.flatnonzero(np.abs(flat) * w <= _BUMP_U_CAP)
        xs = flat[ok]
        g = _bump_cosine_sum(w * xs, coeff)
        out[ok] = g if real_valued else np.exp(1j * tau0 * xs) * g
        return out.reshape(np.shape(x)) if np.ndim(x) else out[0]

    def phi_hat(xi):
        xi = np.asarray(xi, dtype=float)
        return _bump_psi((xi - tau0) / w)

    def phi_hat_d1(xi):
        return _bump_psi((np.asarray(xi, dtype=float) - tau0) / w,
                         lambda e, t, om: e * (-2.0 * t) / (w * om * om))

    def phi_hat_d2(xi):
        return _bump_psi((np.asarray(xi, dtype=float) - tau0) / w,
                         lambda e, t, om: e * 2.0 * (3.0 * t**4 - 1.0) / (w * w * om**4))

    env = PowerEnvelope(
        cap=w * _BUMP_D0 / TWO_PI,
        c2=_BUMP_D2 / (TWO_PI * w),
        c4=_BUMP_D4 / (TWO_PI * w**3),
    )

    def _probe_quiet(u, tol):
        # dense probe of [u, min(2u, cap)] on u = w*|x|, where |phi| = |g(u)|:
        # is max |g| <= tol?  g is summed row by row, so a block's values are
        # those of one call on all the points; the first loud block decides.
        top = min(2.0 * u, _BUMP_U_CAP)
        n_probe = int(min(4096, max(64, 2.0 * (top - u) + 64)))
        pts = np.linspace(u, top, n_probe)
        edges = [0, *range(_BUMP_PROBE_HEAD, n_probe, _BUMP_BLOCK), n_probe]
        for lo, hi in zip(edges, edges[1:]):
            if not np.max(np.abs(_bump_cosine_sum(pts[lo:hi], coeff))) <= tol:
                return False
        return True

    def search(tol):
        u = 1.0
        while u < _BUMP_U_CAP:
            if _probe_quiet(u, tol):
                break
            u *= 2.0
        else:
            return _BUMP_U_CAP / w  # capped; envelope still certifies decay
        # scan the lattice u/2 + k u/2048, k = 1024..1, top down in blocks:
        # the radius is the point just past the highest loud one
        step = u / 2048.0
        for top in range(1024, 0, -_BUMP_PROBE_HEAD):
            ks = np.arange(top, top - _BUMP_PROBE_HEAD, -1)  # 64 divides 1024
            loud = ~(np.abs(_bump_cosine_sum(u / 2.0 + ks * step, coeff)) <= tol)
            if loud.any():
                return (u / 2.0 + min(int(ks[loud.argmax()]) + 1, 1024) * step) / w
        return (u / 2.0 + step) / w

    radii = {}

    def radius(tol):
        if tol not in radii:
            radii[tol] = search(tol)
        return radii[tol]

    def hat_radius(tol):
        # exact compact support around tau0, independent of the tolerance
        return w

    def hat_abs(order, u):
        # crude but safe sup-norm caps inside the support, exact zero outside
        caps = (0.3679, 1.0 / w, 12.0 / (w * w))
        u = np.asarray(u, dtype=float)
        return np.where(u > w, 0.0, caps[order])

    return TestFunction(
        kind="fourier_bump", complex_valued=(tau0 != 0.0),
        params={"tau0": tau0, "w": w},
        phi=phi, phi_hat=phi_hat, phi_hat_d1=phi_hat_d1, phi_hat_d2=phi_hat_d2,
        time_env=env,
        hat_center=tau0, hat_support=(tau0 - w, tau0 + w),
        _radius_fn=radius, _hat_radius_fn=hat_radius, _hat_abs_fn=hat_abs,
    )


def linear_combination(coeffs, fns) -> TestFunction:
    """Formal linear combination sum_i a_i f_i as a TestFunction.

    Evaluators combine exactly (same floating-point expression the
    linearity invariants demand); envelopes combine by |a_i|-weighted sums.
    Intended for verification harnesses.
    """
    coeffs = [complex(c) for c in coeffs]
    fns = list(fns)
    if len(coeffs) != len(fns) or not fns:
        raise ValidationError("linear_combination needs matching nonempty lists")
    is_complex = (any(f.complex_valued for f in fns)
                  or any(c.imag != 0.0 for c in coeffs))
    if not is_complex:
        coeffs = [c.real for c in coeffs]  # keep real evaluators exactly real

    def lift(attr):
        def ev(x):
            out = coeffs[0] * getattr(fns[0], attr)(x)
            for c, f in zip(coeffs[1:], fns[1:]):
                out = out + c * getattr(f, attr)(x)
            return out
        return ev

    # zero-coefficient members contribute exactly nothing to the decay data
    active = [(c, f) for c, f in zip(coeffs, fns) if abs(c) > 0.0]
    time_env = SumEnvelope(tuple((abs(c), f.time_env) for c, f in active))

    # each active member gets an equal share of the tolerance
    def radius(tol):
        return max((f.radius(min(0.5, tol / (len(active) * abs(c)))) for c, f in active),
                   default=1.0)

    def hat_radius(tol):
        return max((abs(f.hat_center) + f.hat_radius(min(0.5, tol / (len(active) * abs(c))))
                    for c, f in active), default=1.0)

    supports = [f.hat_support for f in fns]
    if all(s is not None for s in supports):
        support = (min(s[0] for s in supports), max(s[1] for s in supports))
    else:
        support = None

    def hat_abs(order, u):
        u = np.asarray(u, dtype=float)
        out = 0.0
        for c, f in zip(coeffs, fns):
            # shrinking the distance by |center| keeps each bound valid
            out = out + abs(c) * f.hat_abs_bound(
                order, np.maximum(u - abs(f.hat_center), 0.0))
        return out

    return TestFunction(
        kind="combination",
        complex_valued=is_complex,
        params={"n_terms": len(fns)},
        phi=lift("phi"), phi_hat=lift("phi_hat"),
        phi_hat_d1=lift("phi_hat_d1"), phi_hat_d2=lift("phi_hat_d2"),
        time_env=time_env,
        hat_center=0.0, hat_support=support,
        _radius_fn=radius, _hat_radius_fn=hat_radius, _hat_abs_fn=hat_abs,
    )


# config kind -> (factory, param -> type), read like geometry.KINDS
KINDS = {
    "gaussian": (make_gaussian, {"s": float}),
    "gaussian_modulated": (make_gaussian_modulated, {"s": float, "b": float}),
    "fourier_bump": (make_fourier_bump, {"tau0": float, "w": float}),
}


# the name cli calls; perfbench/tracer.py wraps it and perfbench/setup_probe.py calls it
def from_config(spec: dict) -> TestFunction:
    """Build a TestFunction from its CLI/JSON description."""
    return read_kind(spec, "test_function", KINDS)


# ---------------------------------------------------------------------------
# verification: transform-pair consistency
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class PairValidation:
    """Result of checking phi_hat against direct quadrature of phi."""

    grid: tuple
    deviations: tuple
    max_abs_dev: float
    truncation_bound: float
    refinement_delta: float
    tol: float
    passed: bool


def _fourier_quadrature(f: TestFunction, xi_grid, rel_floor: float):
    """Quadrature of integral phi(x) exp(-i xi x) dx on [-R, R].

    Composite 16-point Gauss-Legendre with panels short enough to resolve
    the fastest oscillation; returns (values, truncation bound, refinement
    delta), the last from doubling the panel count.
    """
    xi_grid = np.asarray(xi_grid, dtype=float)
    R = f.radius(rel_floor)
    xi_max = float(np.max(np.abs(xi_grid))) if xi_grid.size else 0.0
    panel = min(1.0, math.pi / (2.0 * (xi_max + 1.0)))
    n_panels = max(8, int(math.ceil(2.0 * R / panel)))

    def run(n_panels):
        edges = np.linspace(-R, R, n_panels + 1)
        nodes, weights = leggauss(16)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        xs = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
        ws = (half[:, None] * weights[None, :]).ravel()
        vals = f.phi(xs) * ws
        out = np.empty(xi_grid.shape, dtype=complex)
        for i, xi in enumerate(xi_grid.ravel()):
            out.ravel()[i] = np.sum(vals * np.exp(-1j * xi * xs))
        return out

    coarse = run(n_panels)
    fine = run(2 * n_panels)
    trunc = 2.0 * f.time_env.halfline_moment(R, 1.0, 0.0)
    return fine, trunc, float(np.max(np.abs(fine - coarse)))


def validate_pair(f: TestFunction, grid, tol: float) -> PairValidation:
    """Compare phi_hat against numeric quadrature of phi on a frequency grid.

    Raises
    ------
    QuadratureError
        If the quadrature refinement step does not converge below tol/10.
    """
    grid = list(grid)
    if not grid:
        raise ValidationError("validate_pair needs a nonempty grid")
    xi = np.asarray(grid, dtype=float)
    quad, trunc, delta = _fourier_quadrature(f, xi, rel_floor=min(tol * 1e-3, 1e-10))
    if delta > tol / 10.0:
        raise QuadratureError(
            f"fourier quadrature did not converge: refinement moved the result "
            f"by {delta:.3e} (> {tol / 10.0:.3e})"
        )
    dev = np.abs(np.asarray(f.phi_hat(xi), dtype=complex) - quad)
    max_dev = float(np.max(dev))
    return PairValidation(
        grid=tuple(grid), deviations=tuple(float(d) for d in dev),
        max_abs_dev=max_dev, truncation_bound=trunc, refinement_delta=delta,
        tol=tol, passed=bool(max_dev <= tol),
    )
