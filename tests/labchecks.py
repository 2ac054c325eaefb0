"""Reference self-checks of the lab, used only by the tests.

The Poisson-summation self-test of a test function (``poisson_check``),
formal linear combinations of test functions (``linear_combination``, with
their summed envelope ``SumEnvelope``), the rotation-counting Maslov index
of the deformed sphere's equators (``maslov_two_interval``) and one rung of
a closed-form ladder (``rung``).  No command reaches them, so they live
beside the tests rather than in the package.  The file name keeps pytest
from collecting it; tests import it from their own directory.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from magtrace.asymptotics import (_HAT_FLOOR, MAX_K_MAX, KSumControl, _k_order, _k_reach,
                                  _tail_periods)
from magtrace.errors import ValidationError
from magtrace.floats import fsum_complex
from magtrace.testfn import TestFunction

TWO_PI = 2.0 * math.pi


def rung(model, N, j):
    """(nu, lam, mult) of rung j of ``model``'s ladder at N, lam = sqrt(nu + N^2),
    from ``ladder_at``: for a number j on ``math``, for an array of them on numpy."""
    sqrt = np.sqrt if isinstance(j, np.ndarray) else math.sqrt
    return model.ladder_at(N, 0.0, sqrt)(j)[:3]


@dataclasses.dataclass(frozen=True)
class SumEnvelope:
    """|a1| env1(u) + |a2| env2(u) + ... for linear combinations."""

    terms: tuple  # of (|coeff|, envelope)

    def __call__(self, u):
        return sum(c * env(u) for c, env in self.terms)

    def halfline_moment(self, a, c0, c1):
        return sum(c * env.halfline_moment(a, c0, c1) for c, env in self.terms)


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

    def hat_abs(u):
        u = np.asarray(u, dtype=float)
        out = (0.0, 0.0, 0.0)
        for c, f in zip(coeffs, fns):
            # shrinking the distance by |center| keeps each bound valid
            hats = f.hat_abs_bounds(np.maximum(u - abs(f.hat_center), 0.0))
            out = tuple(o + abs(c) * h for o, h in zip(out, hats))
        return out

    return TestFunction(
        kind="combination",
        complex_valued=is_complex,
        params={"n_terms": len(fns)},
        phi=lift("phi"), phi_hat=lift("phi_hat"),
        phi_hat_d1=lift("phi_hat_d1"), phi_hat_d2=lift("phi_hat_d2"),
        hat_abs_bounds=hat_abs, time_env=time_env, hat_center=0.0,
        _radius_fn=radius, _hat_radius_fn=hat_radius,
    )


@dataclasses.dataclass(frozen=True)
class PoissonReport:
    """Both sides of the summation identity with certified truncation tails."""

    lhs: complex
    rhs: complex
    lhs_tail: float
    rhs_tail: float

    @property
    def diff(self) -> float:
        return abs(self.lhs - self.rhs)


def poisson_check(f: TestFunction, P: float, t: float) -> PoissonReport:
    """Evaluate sum_n phi(n P + t) against sum_k (1/P) phi_hat(2pi k/P) e^{2pi i k t/P}.

    The lattice side runs one point past f.radius(1e-22) at each end; as the
    time envelope falls, the points left out beyond an end sum to at most
    env(a) + (1/P) int_a^inf env, a = |end| + P.  The frequency side sums
    |k| <= k_max, one past the hat's reach at 1e-22, and bounds the periods
    past it by the k-tail rule of ``magtrace.asymptotics``.  Refused before any
    evaluation: a non-finite or non-positive P, a non-finite t, and either
    side past MAX_K_MAX terms.
    """
    term_tol = 1e-22
    if not (0.0 < P < math.inf and math.isfinite(t)):
        raise ValidationError(f"Poisson check needs a positive finite period P and a "
                              f"finite shift t, got P={P}, t={t}")
    t = math.fmod(t, P)  # exact; both sides have period P in t
    R = f.radius(term_tol)
    n_pts = 2.0 * R / P + 5.0  # at least the lattice points summed
    if not n_pts <= MAX_K_MAX:
        raise ValidationError(f"the lattice side needs about {n_pts:.6g} points n*P + t to "
                              f"bring |phi| below {term_tol:g}; capped at {MAX_K_MAX:,}")
    step = TWO_PI / P
    k_max = KSumControl.for_function(f, step, term_tol).k_max
    tail_ks, weight = map(np.asarray, _tail_periods(k_max + 1, _k_reach(f, step, _HAT_FLOOR)))

    xs = t + P * np.arange(math.floor((-R - t) / P) - 1, math.ceil((R - t) / P) + 2)
    env = f.time_env
    lhs_tail = sum(float(env(a)) + env.halfline_moment(a, 1.0 / P, 0.0)
                   for a in (abs(xs[0]) + P, abs(xs[-1]) + P))
    ks = np.concatenate(([0], _k_order(1, k_max)))
    terms = f.phi_hat(step * ks) * np.exp(2j * math.pi * ks * t / P) / P
    rhs_tail = math.fsum(weight * f.hat_abs_bounds(np.abs(tail_ks * step - f.hat_center))[0]) / P
    return PoissonReport(lhs=fsum_complex(f.phi(xs)), rhs=fsum_complex(terms),
                         lhs_tail=lhs_tail, rhs_tail=rhs_tail)


def maslov_two_interval(k: int, eps: float, branch: int) -> tuple:
    """(m, kappa, sgn R) of iterate k of a deformed-sphere equator at E = sqrt(2)
    by rotation counting, the reference for ``Katok.maslov``.

    x = 2k/(1 -+ eps) is the return map's angle in units of pi (branch +-1);
    kappa = round(x), sgn R follows the two-interval rule in the fractional
    part of x, and m = sgn R + 2 kappa.
    """
    x = 2.0 * k / (1.0 - branch * eps)
    kappa = round(x)
    sgn_r = (1 if x - math.floor(x) < 0.5 else -1) + 2 * (1 if k > 0 else -1)
    return sgn_r + 2 * kappa, kappa, sgn_r
