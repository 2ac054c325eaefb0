"""Katok's deformed sphere, the paper's isolated-orbit example (Guillemin and
Uribe's case of two nondegenerate closed orbits).

``Katok(eps)`` is a ``geometry.Geometry``: it states its chart's coefficients,
connection form, first integral, period (``k_frequency``) and closed orbits
like the three ladders, and it also owns its two equators' data
(``rotation``, ``maslov``, the display's ``term`` and its resonance guard,
the closed-form ``return_map``).
It has no closed-form spectrum.

``geometry.KINDS``, ``geometry.GeometrySpec.katok`` and ``magtrace.Katok``
load this module on first use, so only a deformed sphere runs it.
"""

from __future__ import annotations

import math
from typing import ClassVar

from .errors import ResonanceError, ValidationError, record
from .floats import TWO_PI, cis
from .floats import xp as _xp
from .geometry import (ClosedOrbitSet, EnergyLevel, Geometry, OrbitInvariants, branch_sign,
                       momentum_sq)

SQRT2 = math.sqrt(2.0)  # every module that states sqrt(2) loads this one


@record
class KatokMonodromy:
    """Transverse return map of an equatorial orbit in (Theta, P_theta)."""

    matrix: np.ndarray
    a: float
    alpha: float

    def det_i_minus_p(self, k: int = 1) -> float:
        """det(I - P^k) = 4 sin^2(k alpha/2), for any iterate k."""
        return 4.0 * math.sin(k * self.alpha / 2.0) ** 2


def half_lattice_distance(x: float) -> float:
    """Distance from x to the half-integer lattice Z/2."""
    return abs(x - round(2.0 * x) / 2.0)


@record
class Katok(Geometry):
    """Katok's deformed sphere, stated at E = sqrt(2): inverse metric
    diag(D, D^2/sin^2 theta) with D = 1 - eps^2 sin^2 theta.  Its flow has no
    closed-form spectrum; two isolated equatorial orbits, "+" and "-".

    The equators' data are its methods, with the "+" orbit as branch +1
    (denominators 1 - eps) and the "-" one as branch -1: the rotation x_k of
    iterate k, its Maslov index, the display's amplitude, denominator, term and
    resonance guard, and the return map."""

    eps: float

    kind: ClassVar[str] = "katok"
    stated_E: ClassVar[float] = SQRT2
    pole_margin: ClassVar[float] = 0.05
    loop_periods: ClassVar[tuple] = (None, TWO_PI)

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ValidationError(f"deformation parameter must lie in (0,1), got {self.eps}")

    def predict(self, Ns, level, f, ctl, support_tol):
        from .asymptotics import katok_c0
        return katok_c0(Ns, self, f, ctl, support_tol=support_tol)

    def k_frequency(self, E):
        """T = 2pi E/((1-eps^2) c), c = sqrt(E^2-1): the equators' one period."""
        return TWO_PI * E / ((1.0 - self.eps * self.eps) * EnergyLevel.from_E(E).c)

    def coefficients(self, s, slopes=False):
        # s = theta: a = D, b = D^2/sin^2 and F = 2 eps sin cos/D^2
        xp, e2 = _xp(s), self.eps * self.eps
        sn, cs = xp.sin(s), xp.cos(s)
        D, dD, cot = 1.0 - e2 * sn * sn, -2.0 * e2 * sn * cs, cs / sn
        b = D * D / (sn * sn)
        if not slopes:
            return D, b, 2.0 * self.eps * sn * cs / (D * D), dD, 2.0 * (dD / D - cot) * b
        c2 = cs * cs - sn * sn  # b'' = (D^2)'' u + 2 (D^2)' u' + D^2 u'', u = 1/sin^2
        return (2.0 * self.eps / (D * D) * (c2 - 2.0 * sn * cs * dD / D), -2.0 * e2 * c2,
                (2.0 * dD * dD - 4.0 * e2 * c2 * D - 8.0 * D * dD * cot) / (sn * sn)
                + (2.0 + 6.0 * cot * cot) * b)

    def _a_phi(self, theta):
        """A_phi = eps sin^2(theta)/(1 - eps^2 sin^2(theta))."""
        import numpy as np
        s2 = np.sin(theta) ** 2
        return self.eps * s2 / (1.0 - self.eps * self.eps * s2)

    def connection(self, y):
        """A = A_phi dphi (sign fixed by the branch pairing of the orbit actions)."""
        return self._a_phi(y[0]) * self.flow(y)[1]

    def first_integral(self, y):
        """Conserved quantity P = p_phi + A_phi."""
        return y[3] + self._a_phi(y[0])

    # the equators at E = sqrt(2)

    def rotation(self, k, branch: int):
        """x_k = 2k/(1 -+ eps): the return-map angle of iterate k of a branch, in
        units of pi."""
        return 2.0 * k / (1.0 - branch * self.eps)

    def maslov(self, k: int, branch: int) -> int:
        """Closed-form Maslov index 2 floor(x_k) + 2 sign(k) + 1 of iterate k."""
        # an int or a numpy integer, both of which have __index__; not a bool
        if not (hasattr(k, "__index__") and not isinstance(k, bool) and k != 0):
            raise ValidationError(f"iterate index k must be a nonzero integer, got {k}")
        return 2 * math.floor(self.rotation(k, branch)) + 2 * (1 if k > 0 else -1) + 1

    @property
    def amplitude(self) -> float:
        """1/(sqrt(2)(1 - eps^2)), the amplitude of every display term."""
        return 1.0 / (SQRT2 * (1.0 - self.eps * self.eps))

    def sine(self, k, branch: int):
        """|sin(pi k/(1 -+ eps))|, the display's denominator, for a number k or
        an array of them."""
        t = math.pi * k / (1.0 - branch * self.eps)
        return abs(_xp(t).sin(t))

    def check_resonance(self, k: int, branch: int, margin: float) -> None:
        """Refuse iterate k of a branch where the denominator ``sine`` or twice
        the distance of x_k to the half-integer lattice, where the index jumps
        (both floor discontinuities), is at most margin."""
        x, s = self.rotation(k, branch), self.sine(k, branch)
        d = half_lattice_distance(x)
        if s <= margin or 2.0 * d <= margin:
            raise ResonanceError(
                f"k={k}, branch {'+' if branch > 0 else '-'}: "
                f"2k/(1{'-' if branch > 0 else '+'}eps)={x:.9g} "
                f"is resonant (|sin|={s:.3e}, lattice distance {d:.3e})")

    def term(self, N: int, k: int, branch: int, hat: complex, margin: float) -> complex:
        """Term (k, branch) of the isolated-orbit display, refused near a
        resonance (``check_resonance``):

            amplitude e^{i pi m/4} e^{-2 pi i N k/(1 -+ eps)} / |sin(pi k/(1 -+ eps))| * hat

        with m the Maslov index of the iterate (``maslov``)."""
        m = self.maslov(k, branch)
        self.check_resonance(k, branch, margin)
        turn = TWO_PI * N * k / (1.0 - branch * self.eps)
        return (self.amplitude * (cis(math.pi * m / 4.0) * cis(-turn)) * complex(hat)
                / self.sine(k, branch))

    def return_map(self, E: float, branch: int) -> KatokMonodromy:
        """Closed-form linearized return map of a branch's equator at energy E.

        With a = [(E^2-1)(1+eps^2) +- 2 eps sqrt(E^2-1)]^{1/2} and rotation
        angle alpha = (2 pi/(1-eps^2)) [1+eps^2 +- 2 eps/sqrt(E^2-1)]^{1/2},
        the map is the rotation-like matrix
        [[cos alpha, (1-e^2)/a sin alpha], [-a/(1-e^2) sin alpha, cos alpha]],
        whose iterate k has det(I - P^k) = 4 sin^2(k alpha/2) (``det_i_minus_p``).
        """
        import numpy as np
        e, c = self.eps, EnergyLevel.from_E(E).c
        a = math.sqrt(momentum_sq(E) * (1.0 + e * e) + branch * 2.0 * e * c)
        alpha = (TWO_PI / (1.0 - e * e)) * math.sqrt(1.0 + e * e + branch * 2.0 * e / c)
        ca, sa = math.cos(alpha), math.sin(alpha)
        mat = np.array([[ca, (1.0 - e * e) / a * sa],
                        [-a / (1.0 - e * e) * sa, ca]])
        return KatokMonodromy(matrix=mat, a=a, alpha=alpha)

    def closed_orbits(self, E, c):
        e, T = self.eps, self.k_frequency(E)
        L = TWO_PI / (1.0 - e * e)
        orbits = []
        at_sqrt2 = abs(E - SQRT2) < 1e-12
        for branch, label in ((+1, "+"), (-1, "-")):
            hol = branch * TWO_PI * e / (1.0 - e * e)
            maslov, note = None, "index formula stated only at E = sqrt(2)"
            if at_sqrt2 and half_lattice_distance(self.rotation(1, branch)) <= 1e-9:
                note = "index ill-defined at this resonant deformation"
            elif at_sqrt2:
                maslov, note = self.maslov(1, branch), ""
            orbits.append(OrbitInvariants(
                orientation=label, L=L, T=T, S=L * c + hol, hol=hol, maslov=maslov,
                maslov_note=note, detIminusP=self.return_map(E, branch).det_i_minus_p()))
        return ClosedOrbitSet(orbits=tuple(orbits))

    def orbit_state(self, c, orientation):
        sign, e = float(branch_sign(orientation)), self.eps
        return math.pi / 2.0, 0.0, 0.0, sign * c / (1.0 - e * e)

    @property
    def area(self):
        # int sqrt(det g) = 2 pi int sin/(1-eps^2 sin^2)^{3/2} = 4 pi/(1-eps^2)
        return 4.0 * math.pi / (1.0 - self.eps * self.eps)

    def mc_area(self, uniform, n):
        import numpy as np
        s = np.sin(uniform(0.0, math.pi, n))
        return s / (1.0 - self.eps**2 * s**2) ** 1.5, math.pi * TWO_PI
