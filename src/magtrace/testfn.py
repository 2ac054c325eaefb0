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
    identically zero outside [tau0-w, tau0+w]; phi is its trapezoid rule.
    It is built in its own module, ``bump``, which ``KINDS`` loads on the
    first bump, so a gaussian command never runs it.

Every instance also carries a *certified decay envelope* of phi and bounds
on |phi_hat| and its first two derivatives.  The envelope bounds what the
spectral windows leave out; the hat bounds do the same for the k-sums.
Every radius is closed form: a gaussian's from its exponent, a bump's from
its envelope (``bump``).  No radius samples phi.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

from .errors import ValidationError, read_kind, record, refuse_past_double_range
from .floats import TWO_PI, as_floats, cis
_EPS = 2.0**-52

# Largest offset of a gaussian's phi: its radius at the smallest positive
# double, s*sqrt(2 ln(1/5e-324)) ~ 38.6 s (a bump's is bump._BUMP_U_CAP/w).
_GAUSS_MAX_OFFSET = math.sqrt(-2.0 * math.log(5e-324))


def _refuse_lost_phase(what: str, phase: float) -> None:
    """Refuse a modulation whose largest phase reaches 2^53, past which
    exp(1j*phase) keeps no phase information."""
    if not abs(phase) < 2.0**53:
        raise ValidationError(f"{what}: the largest phase of phi, {abs(phase):.3g}, "
                              "reaches 2^53, where exp(i*phase) keeps no phase information")


# ---------------------------------------------------------------------------
# decay envelopes
# ---------------------------------------------------------------------------

@record
class GaussianEnvelope:
    """Envelope amp*exp(-u^2/(2 scale^2)) for u = distance past the center."""

    amp: float
    scale: float

    def __call__(self, u):
        u, m = as_floats(u)
        return self.amp * m.exp(-(u * u) / (2.0 * self.scale**2))

    def halfline_moment(self, a: float, c0: float, c1: float) -> float:
        """Exact integral_a^inf (c0 + c1*x) env(x) dx  (a > 0)."""
        s = self.scale
        gauss_tail = s * math.sqrt(math.pi / 2.0) * math.erfc(a / (s * math.sqrt(2.0)))
        exp_term = s * s * math.exp(-a * a / (2.0 * s * s))
        return self.amp * (c0 * gauss_tail + c1 * exp_term)


# ---------------------------------------------------------------------------
# the test function record
# ---------------------------------------------------------------------------

# A real dataclass, not an errors.record like the package's other records:
# make_gaussian, perfbench/tracer.py and the tests derive variants with
# dataclasses.replace.
@dataclasses.dataclass(frozen=True)
class TestFunction:
    """A Schwartz function with explicit evaluators for both transform sides.

    All evaluators are pure and safe to call concurrently, and take a Python
    float or anything numpy reads as an array.  They run on ``math`` for a
    Python float and on numpy otherwise (``floats.as_floats``), so a
    gaussian command, and a bump's k-sums, never import numpy; a bump's phi
    (the trapezoid rule of step 1/512, aliasing below 7.9e-21 w) and its
    envelope run on numpy whatever they are given.  Instances are immutable
    after construction.

    Attributes
    ----------
    kind : str
        One of ``gaussian``, ``gaussian_modulated``, ``fourier_bump``.
    complex_valued : bool
        Whether phi takes complex values.
    params : dict
        Defining parameters, for reports and CLI round-trips.
    hat_abs_bounds
        Upper bounds (on |phi_hat|, |phi_hat'|, |phi_hat''|) at distance u
        from hat_center, from one envelope; they certify the truncations of
        the k-sums built on phi_hat and its first two derivatives.
    time_env
        Certified decay envelope, |phi(x)| <= time_env(|x|), nonincreasing.
    hat_center : float
        Center of mass of phi_hat's decay (b for modulated gaussians, tau0
        for bumps).
    """

    __test__ = False  # domain type, not a pytest collection target

    kind: str
    complex_valued: bool
    params: dict
    phi: Callable
    phi_hat: Callable
    phi_hat_d1: Callable
    phi_hat_d2: Callable
    hat_abs_bounds: Callable
    time_env: object
    hat_center: float = 0.0
    _radius_fn: Callable = None
    _hat_radius_fn: Callable = None

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
        """Interval outside which |phi_hat| <= tol (a bump's exact support)."""
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
        x, m = as_floats(x)
        g = m.exp(-(x * x) / (2.0 * s * s))
        return g * cis(b * x) if b != 0.0 else g

    def phi_hat(xi):
        xi, m = as_floats(xi)
        u = xi - b
        return amp * m.exp(-s * s * (u * u) / 2.0)

    def phi_hat_d1(xi):
        xi, _ = as_floats(xi)
        return -s * s * (xi - b) * phi_hat(xi)

    def phi_hat_d2(xi):
        xi, _ = as_floats(xi)
        u = xi - b
        return (s**4 * (u * u) - s * s) * phi_hat(xi)

    # -log(tol), not log(1/tol): 1/tol overflows for tol below 1/DBL_MAX
    def radius(tol):
        return s * math.sqrt(-2.0 * math.log(tol))

    def hat_radius(tol):
        if tol >= amp:
            return 0.0
        return math.sqrt(2.0 * (math.log(amp) - math.log(tol))) / s

    half_s2, widen = 0.5 * s * s, 8.0 * _EPS * amp

    def hat_abs(u):
        # |phi_hat| widened outward by 8 eps (1 + arg): the three roundings of
        # the exponent arg move exp by up to 1.5 eps arg, and the dozen or so
        # around it, those of each order's factor included, by under 8 eps
        u, m = as_floats(u)
        arg = half_s2 * (u * u)
        e = m.exp(-arg) * (amp + widen * (1.0 + arg))
        return e, s * s * abs(u) * e, (s**4 * (u * u) + s * s) * e

    return TestFunction(
        kind="gaussian_modulated", complex_valued=(b != 0.0),
        params={"s": s, "b": b},
        phi=phi, phi_hat=phi_hat, phi_hat_d1=phi_hat_d1, phi_hat_d2=phi_hat_d2,
        hat_abs_bounds=hat_abs, time_env=GaussianEnvelope(1.0, s), hat_center=b,
        _radius_fn=radius, _hat_radius_fn=hat_radius,
    )


def _fourier_bump(tau0, w):
    """``bump.make_fourier_bump(tau0, w)``: its module loads on the first bump."""
    from .bump import make_fourier_bump
    return make_fourier_bump(tau0, w)


# config kind -> (factory, param -> type), read like geometry.KINDS
KINDS = {
    "gaussian": (make_gaussian, {"s": float}),
    "gaussian_modulated": (make_gaussian_modulated, {"s": float, "b": float}),
    "fourier_bump": (_fourier_bump, {"tau0": float, "w": float}),
}


# the name cli calls; perfbench/tracer.py wraps it and perfbench/setup_probe.py calls it
def from_config(spec: dict) -> TestFunction:
    """Build a TestFunction from its CLI/JSON description."""
    return read_kind(spec, "test_function", KINDS)
