"""The Fourier bump: a test function whose transform is the standard smooth
bump, exactly zero outside [tau0 - w, tau0 + w].

    phi_hat(xi) = exp(-1/(1-t^2)),  t = (xi - tau0)/w,

so only the flow periods inside the support reach a k-sum built on it.
phi is recovered by the trapezoid rule of step 1/512 on the support, exact
up to aliasing that the bump's envelope certifies below 7.9e-21 w out to the
cap.  The rule is symmetric and the bump even, so phi is evaluated in its
real cosine form phi(x) = exp(i tau0 x) g(w x), with g a sum of 512 cosines
taken by angle addition, 96 trig calls per point.  The cosine table is built
once per process, on the first bump phi, so building a bump and its k-sums
need no numpy.  Complex-valued for tau0 != 0.

The envelope of phi, ``PowerEnvelope``, is the least of the integration by
parts bounds w D_k/(2pi (w|x|)^k), k = 0, 2, ..., 24, and the radius is
where it meets the tolerance, in closed form; no radius samples phi.

``testfn.KINDS`` and ``magtrace.make_fourier_bump`` load this module on
first use, so a gaussian command never runs it.
"""

from __future__ import annotations

import functools
import math

from .errors import ValidationError, record, refuse_past_double_range
from .floats import as_floats
from .testfn import TWO_PI, TestFunction, _refuse_lost_phase

# L1 norms D_k = int_{-1}^{1} |psi^(k)(t)| dt of the unit bump
# psi(t) = exp(-1/(1-t^2)), k = 0, 2, ..., 24, rounded *up* in the sixth
# digit from their 40-digit values (the k >= 2 ones exact sums of
# psi^(k-1) between the zeros of psi^(k)): they only ever enter as upper
# bounds.  k-fold integration by parts bounds the bump of half-width w by
# |phi(x)| <= w D_k / (2pi u^k), u = w|x|, for every k; ``PowerEnvelope``
# takes the least of these legs.
_BUMP_D = ((0, 0.443994), (2, 3.19372), (4, 1076.13), (6, 5.31659e6), (8, 1.26374e11),
           (10, 9.21691e15), (12, 1.61037e21), (14, 5.75809e26), (16, 3.77755e32),
           (18, 4.19636e38), (20, 7.42286e44), (22, 1.99162e51), (24, 7.79237e57))

# Steps per unit of t of the trapezoid rule for the bump's inverse transform,
# nodes t_m = m/_BUMP_M on [-1, 1].  Its error is the aliased transforms
# (w/2pi) sum_{k>=1} [Psi(2pi k M - u) + Psi(2pi k M + u)], u = w|x|, which
# the envelope legs bound by 7.9e-21 w for u <= _BUMP_U_CAP (M = 448 would
# certify only 2e-18 w there).  Past the cap the bump's phi is below 1e-20 w,
# under the rounding of the cosine sum; phi reads 0 there, and no radius
# lies beyond it.
_BUMP_M = 512
_BUMP_U_CAP = 1600.0

# Points per block of the bump's cosine sum: bounds its temporaries, the
# (2 x 32 x block) cosines and sines and the (2 x 2 x 16 x block) partial
# sums, to about 400 KB, within a core's L2 cache.  Each point is summed on its own,
# so the block size does not change a bit of phi.
_BUMP_BLOCK = 256


@record
class PowerEnvelope:
    """Envelope (w/2pi) min_k D_k/u^k, u = w|x|, of a band-limited phi.

    ``legs`` holds (k, D_k) with k increasing from 0, the cap.  Each leg
    bounds |phi| on its own; the legs meet in order (the crossings
    (D_j/D_i)^(1/(j-i)) of neighbours increase), so leg k is the least one
    between its crossings with its neighbours, and only that leg is
    evaluated.  The legs stay in u: no power of w is formed.
    """

    w: float
    legs: tuple

    @functools.cached_property
    def _crossings(self) -> tuple:
        return tuple((d2 / d1) ** (1.0 / (k2 - k1))
                     for (k1, d1), (k2, d2) in zip(self.legs, self.legs[1:]))

    def __call__(self, x):
        import numpy as np
        # clipping |x| only raises the nonincreasing envelope, and keeps w|x| finite
        u = self.w * np.minimum(np.abs(np.asarray(x, dtype=float)), 1e300 / self.w)
        k, d = (np.array(c, dtype=float) for c in zip(*self.legs))
        leg = np.searchsorted(self._crossings, u)
        return self.w / TWO_PI * d[leg] * (1.0 / np.maximum(u, self._crossings[0])) ** k[leg]

    def halfline_moment(self, a: float, c0: float, c1: float) -> float:
        """integral_a^inf (c0 + c1*x) env(x) dx, leg by leg over the stretch of
        u = w x where each leg is the least (exact; a bound whatever the
        stretches, as each leg dominates env)."""
        if a <= 0.0:
            raise ValidationError("halfline_moment needs a > 0")
        ua = self.w * a
        m0 = m1 = 0.0  # integral of min_k D_k/u^k, and of u times it, past ua
        ends = (0.0, *self._crossings, math.inf)
        for (k, d), lo, hi in zip(self.legs, ends, ends[1:]):
            p, q = max(lo, ua), max(hi, ua)
            if p < q:
                m0 += d * _power_integral(p, q, -k)
                m1 += d * _power_integral(p, q, 1 - k)
        return (c0 * m0 + c1 / self.w * m1) / TWO_PI


def _power_integral(p: float, q: float, e: int) -> float:
    """integral_p^q u^e du, 0 <= p < q <= inf (p > 0 if e = -1; q < inf unless e < -1)."""
    if e == -1:
        return math.log(q / p)
    return (q ** (e + 1) - p ** (e + 1)) / (e + 1)


def _bump_psi(t, form=lambda e, t, om: e):
    """form(psi(t), t, 1 - t^2) inside |t| < 1, for the unit bump
    psi(t) = exp(-1/(1-t^2)) (psi itself by default); exactly 0 outside.
    A Python float runs on ``math``, anything else on a float array."""
    t, m = as_floats(t)
    if m is math:
        if not abs(t) < 1.0:
            return 0.0
        om = 1.0 - t * t
        return form(math.exp(-1.0 / om), t, om)
    out = m.zeros_like(t)
    inside = m.abs(t) < 1.0
    ti = t[inside]
    om = 1.0 - ti * ti
    out[inside] = form(m.exp(-1.0 / om), ti, om)
    return out


@functools.cache
def _bump_cosine_table():
    """Unit cosine coefficients c_m, m = 0..511, of the trapezoid rule of step 1/512.

    The rule is exactly symmetric about 0 and psi is even and zero at +-1,
    so with nodes t_m = m/512 the inverse transform of the bump of
    half-width w collapses to

        (w/2pi) sum_{|m| < 512} psi(t_m) exp(i (tau0 + w t_m) x) / 512
            = exp(i tau0 x) * w * sum_{m >= 0} c_m cos(t_m w x),

    c_m = 2 psi(t_m) / (512 * 2pi), halved at m = 0.  psi(t_m) is taken node
    by node on Python floats, from libm's exp, so the table is the same
    whatever SIMD exp numpy dispatches to.  Built on the first bump phi,
    shared by all bumps; the array is read-only because every caller gets
    the same one.
    """
    import numpy as np
    c = 2.0 * np.array([_bump_psi(m / _BUMP_M) for m in range(_BUMP_M)]) / (_BUMP_M * TWO_PI)
    c[0] *= 0.5
    c.flags.writeable = False
    return c


def _bump_cosine_sum(u, coeff):
    """g(u) = sum_m coeff_m cos(m u/512), m = 0..511, u 1-D, by angle addition.

    With m = 32a + b (a < 16, b < 32), g(u) = sum_a [cos(a u/16) P_a -
    sin(a u/16) Q_a], where P_a and Q_a sum coeff_{32a+b} times cos and sin of
    b u/512 over b: 96 trig calls per point, each argument a dyadic multiple
    of u rounded once.  P and Q are multiply-adds over b in a fixed order
    (no BLAS, whose order depends on the host), and each point is summed on
    its own.  cos is even and sin odd, so g(-u) == g(u) bit for bit.
    """
    import numpy as np
    rows = coeff.reshape(_BUMP_M // 32, 32).T[:, :, None]  # rows[b][a] = coeff_{32a+b}
    fine = (np.arange(32) / _BUMP_M)[:, None]
    coarse = (np.arange(_BUMP_M // 32) * (32 / _BUMP_M))[:, None]
    out = np.empty(u.shape)
    for i in range(0, u.size, _BUMP_BLOCK):
        ub = u[i:i + _BUMP_BLOCK]
        arg = fine * ub  # b u/512, one row per b
        cs = np.stack((np.cos(arg), np.sin(arg)))
        pq, term = np.zeros((2, 2, len(coarse), ub.size))
        for b, row in enumerate(rows):
            pq += np.multiply(cs[:, b, None], row, out=term)
        p, q = pq
        arg = coarse * ub
        p *= np.cos(arg)
        q *= np.sin(arg)
        p -= q
        out[i:i + _BUMP_BLOCK] = p.sum(axis=0)
    return out


def make_fourier_bump(tau0: float, w: float) -> TestFunction:
    """Bump on the transform side: phi_hat(xi) = exp(-1/(1-t^2)), t = (xi-tau0)/w.

    phi_hat vanishes identically outside [tau0-w, tau0+w], so only the
    flow periods inside that interval can contribute to any k-sum built
    on it.  phi itself is the trapezoid rule of step 1/512 on the support
    (aliasing below 7.9e-21 w for w|x| <= 1600; its rounding measures up to
    4.5e-17 w), evaluated in its exact cosine form phi(x) = exp(i tau0 x)
    g(w x): 512 real cosines from the shared table of
    ``_bump_cosine_table``, summed by angle addition with 96 trig calls per
    point.  The table is built once per process, on the first call of any
    bump's phi; phi is complex-valued whenever tau0 != 0.
    phi_hat, its two derivatives and the hat bounds take Python floats on
    ``math``, so a bump's k-sums load no numpy.  The envelope is the least
    of the legs w D_k/(2pi u^k), u = w|x|, k = 0, 2, ..., 24 (``_BUMP_D``), and
    the radius is where it meets ``tol``, in closed form: the least over
    k >= 2 of (w D_k/(2pi tol))^(1/k), at most ``_BUMP_U_CAP``, divided by
    w.  It samples phi nowhere, and like |phi| = |g(w x)| it does not
    depend on tau0.
    """
    if not (w > 0.0 and math.isfinite(w)):
        raise ValidationError(f"bump half-width w must be positive, got {w}")
    # w^2 and 1/w^2 of phi_hat'' and its cap, the largest phase tau0 x of phi
    refuse_past_double_range(f"bump parameters tau0={tau0:g}, w={w:g}",
                             lambda: (w * w, 1.0 / (w * w), tau0 * _BUMP_U_CAP / w))
    _refuse_lost_phase(f"bump parameters tau0={tau0:g}, w={w:g}", tau0 * _BUMP_U_CAP / w)

    real_valued = (tau0 == 0.0)

    @functools.cache
    def coeff():
        return w * _bump_cosine_table()

    def phi(x):
        import numpy as np
        x = np.asarray(x, dtype=float)
        flat = np.atleast_1d(x).ravel()
        out = np.zeros(flat.shape, dtype=(float if real_valued else complex))
        # past the cap the true |phi| is below 1e-20 w, under the sum's
        # rounding; report 0 there rather than that noise
        ok = np.flatnonzero(np.abs(flat) * w <= _BUMP_U_CAP)
        xs = flat[ok]
        g = _bump_cosine_sum(w * xs, coeff())
        out[ok] = g if real_valued else np.exp(1j * tau0 * xs) * g
        return out.reshape(np.shape(x)) if np.ndim(x) else out[0]

    def phi_hat(xi):
        return _bump_psi((as_floats(xi)[0] - tau0) / w)

    def phi_hat_d1(xi):
        return _bump_psi((as_floats(xi)[0] - tau0) / w,
                         lambda e, t, om: e * (-2.0 * t) / (w * om * om))

    def phi_hat_d2(xi):
        # powers as products, rounded alike on floats and arrays: numpy's pow
        # and libm's may differ by an ulp, which 3 t^4 - 1 amplifies near 0
        return _bump_psi((as_floats(xi)[0] - tau0) / w,
                         lambda e, t, om: e * 2.0 * (3.0 * (t * t) * (t * t) - 1.0)
                         / (w * w * (om * om) * (om * om)))

    def radius(tol):
        # each leg k >= 2 falls to tol at u = (w D_k/(2pi tol))^(1/k)
        u = min((w * d / (TWO_PI * tol)) ** (1.0 / k) for k, d in _BUMP_D if k)
        return min(u, _BUMP_U_CAP) / w

    def hat_radius(tol):
        # exact compact support around tau0, independent of the tolerance
        return w

    caps = (0.3679, 1.0 / w, 12.0 / (w * w))

    def hat_abs(u):
        # crude but safe sup-norm caps inside the support, exact zero on its
        # edge, where the bump and its derivatives vanish, and outside
        u, m = as_floats(u)
        if m is math:
            return (0.0, 0.0, 0.0) if u >= w else caps
        return tuple(m.where(u >= w, 0.0, cap) for cap in caps)

    return TestFunction(
        kind="fourier_bump", complex_valued=(tau0 != 0.0),
        params={"tau0": tau0, "w": w},
        phi=phi, phi_hat=phi_hat, phi_hat_d1=phi_hat_d1, phi_hat_d2=phi_hat_d2,
        time_env=PowerEnvelope(w, _BUMP_D),
        hat_center=tau0, hat_support=(tau0 - w, tau0 + w),
        _radius_fn=radius, _hat_radius_fn=hat_radius, _hat_abs_fn=hat_abs,
    )
