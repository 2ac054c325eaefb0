"""The four example geometries, one frozen class each.

``Torus()``, ``Sphere(R)`` and ``Hyperbolic(R, genus)`` are closed surfaces of
constant Gaussian curvature K carrying a constant magnetic field b; they share
one Landau ladder and its Poisson image (``ConstantCurvature``: ``ladder``,
``j_of_lam``, ``k_frequency``, ``poisson_image``, summed by
``asymptotics.poisson_c01``) and state only b, K and their area.
``Katok(eps)`` is the deformed sphere, which has no closed-form spectrum.
All four share one magnetic flow (``Geometry``); each class states its
chart's coefficients, its connection form and the start point of its closed
orbit (``dynamics``).  The closed orbits of the three constant-curvature
surfaces are one family of circles, stated once from the ladder's own
(w, s) (``ConstantCurvature.closed_orbits``): their period is the
k-frequency and their action the Poisson image's phase per N; only the
torus states a Maslov index.  Each field is the quantized one its closed
forms need: the chart constant B is 2pi on the torus, 1/2 on the sphere and
1 on the hyperbolic surface, so b = B/R^2 off the flat torus.  The formulas take
their functions from ``floats.xp``, so they run on Python floats or numpy
arrays alike; numpy is imported only inside the methods that build arrays
(the flow field, Monte Carlo areas), which only the ``dynamics`` and
``katok`` commands reach.
"""

from __future__ import annotations

import math
from typing import ClassVar

from .errors import (ChartError, ManeLevelError, ResonanceError, ValidationError, record,
                     refuse_past_double_range)
from .floats import cis
from .floats import xp as _xp  # the flows name their module variable xp

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# energy, phase-space and orbit records
# ---------------------------------------------------------------------------

@record
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


@record
class PhaseState:
    """Coordinates (q1, q2) and momenta (p1, p2) in the geometry's one chart:
    (x, y) on the torus and the half-plane, polar (theta, phi) on the two
    spheres."""

    q: tuple
    p: tuple

    def as_array(self) -> np.ndarray:
        import numpy as np
        return np.array([self.q[0], self.q[1], self.p[0], self.p[1]], dtype=float)


@record
class OrbitInvariants:
    """Closed-form invariants of one primitive closed orbit.

    S is the action L*sqrt(E^2-1) + hol, stored unreduced; it is defined
    modulo 2 pi.  maslov is None where the source material does not state
    an index (see maslov_note).
    """

    orientation: str
    L: float
    T: float
    S: float
    hol: float
    maslov: int | None
    maslov_note: str
    detIminusP: float


@record
class ClosedOrbitSet:
    """Closed orbits of the flow at one energy (possibly none)."""

    orbits: tuple
    note: str | None = None

    @property
    def has_orbits(self) -> bool:
        return len(self.orbits) > 0

    def pick(self, orientation: str) -> OrbitInvariants:
        """The orbit labelled orientation, or the only one."""
        return next(o for o in self.orbits
                    if o.orientation == orientation or len(self.orbits) == 1)


# ---------------------------------------------------------------------------
# the geometries
# ---------------------------------------------------------------------------

def _energy(a, b, p1, p2):  # H where g^{-1} = diag(a, b)
    return _xp(p1).sqrt(a * p1 * p1 + b * p2 * p2 + 1.0)


class Geometry:
    """What every example geometry provides; ``y`` is one state (q1, q2, p1, p2)
    or a (4, n) batch of them.  Every flow is the one of ``dynamics``: in the
    one chart g^{-1} = diag(a, b) and the field density F depend on one
    coordinate s = q[s_index], each geometry states ``coefficients(s)`` =
    (a, b, F, a', b') and, for the tangent field, ``coefficients(s, True)`` =
    (F', a'', b''); with H = sqrt(a p1^2 + b p2^2 + 1), dq/dt = (a p1, b p2)/H
    and dp/dt = (F b p2, -F a p1)/H - (a' p1^2 + b' p2^2)/(2H) e_s.
    On four Python floats ``hamiltonian`` and ``flow`` run on ``math`` and give
    a (4,) array's values, except where numpy gives inf or nan: there a
    division by zero or a math-domain error raises, an overflow gives inf."""

    kind: ClassVar[str]
    params: ClassVar[dict] = {}              # config key -> int or float
    stated_E: ClassVar[float | None] = None  # the one energy the example is stated at
    pole_margin: ClassVar[float | None] = None  # a path may not cross this far from a pole
    loop_periods: ClassVar[tuple] = (None, None)  # coordinate periods of a closed loop
    s_index: ClassVar[int] = 0  # the coefficients' coordinate s is q[s_index]

    def hamiltonian(self, y):  # H from a and b alone, as flow_terms forms it
        return _energy(*self.coefficients(y[self.s_index])[:2], y[2], y[3])

    def flow(self, y):
        import numpy as np
        return np.array(self.flow_terms(y)[1])

    def flow_terms(self, y):
        """(H, dy/dt, coefficients at s), which the tangent field reuses."""
        p1, p2 = y[2], y[3]
        co = a, b, F, da, db = self.coefficients(y[self.s_index])
        H = _energy(a, b, p1, p2)
        dp = [F * b * p2 / H, -F * a * p1 / H]
        dp[self.s_index] -= (da * p1 * p1 + db * p2 * p2) / (2.0 * H)
        return H, (a * p1 / H, b * p2 / H, dp[0], dp[1]), co

    def check_state(self, y) -> None:
        """Refuse a state outside the chart: theta outside (0, pi) on the spheres."""
        if self.pole_margin is not None and not 0.0 < y[0] < math.pi:
            raise ChartError(f"polar angle theta={y[0]:.6g} outside (0, pi)")

    def first_integral(self, y):
        """A conserved quantity besides H, or None."""
        return None

    # mc_area(rng, n): Monte Carlo samples of sqrt(det g) over a chart cell and
    # the cell's area; None without a parameterized fundamental domain
    mc_area: ClassVar = None

    def closure_gap(self, y0, y1) -> float:
        """Largest coordinate difference of two states, modulo the loop periods."""
        import numpy as np
        dq = np.array(y1[:2]) - np.array(y0[:2])
        dp = np.array(y1[2:]) - np.array(y0[2:])
        for i, period in enumerate(self.loop_periods):
            if period is not None:
                dq[i] -= period * round(dq[i] / period)
        return float(max(np.max(np.abs(dq)), np.max(np.abs(dp))))


class ConstantCurvature(Geometry):
    """A closed surface of constant curvature K and area A in the constant
    field b, with c = A/2pi: rung j of its Landau ladder at tensor power N has
    nu = b N (2j+1) + K j(j+1) and mult = c (b N + K (j + 1/2)), so
    dnu/dj = 2 mult/c (Guillemin and Uribe, Invent. Math. 96 (1989)).
    Subclasses state ``field`` b, ``curvature`` K and ``area`` A."""

    def predict(self, Ns, level, f, ctl, support_tol):
        """c0, c1 at each N of a grid: the Poisson k-sum of the ladder, its
        N-independent part evaluated once per grid."""
        from .asymptotics import poisson_c01  # asymptotics builds on this module
        return poisson_c01(Ns, self, level, f, ctl)

    def check_energy(self, E):
        """Refuse energies the ladder's predictions do not cover (none by default)."""

    def j_cap(self, N):
        """Largest admissible ladder index (inclusive), or None when unbounded."""
        return None

    def chaotic_tail(self, N, E, env) -> float:
        """Bound on the eigenvalues off the ladder; only the hyperbolic surface has any."""
        return 0.0

    @property
    def measure_coeff(self):
        return self.area / TWO_PI

    def ladder(self, N, j):
        """(nu, mult) of rung j at N (``ladder_at``)."""
        return self.ladder_at(N)(j)

    def ladder_at(self, N):
        """The map j -> (nu, mult) of the ladder at N, for a number j or an
        array of them, with its N-dependent constants formed once."""
        # c b (the flux per unit N) and c K (the Euler characteristic) are
        # integers, so mult is exact while c b N < 2^53
        b, K, c = self.field, self.curvature, self.measure_coeff
        bN, flux, euler = b * N, round(c * b) * N, round(c * K)

        def rung(j):
            return bN * (2.0 * j + 1.0) + K * j * (j + 1.0), flux + euler * (j + 0.5)
        return rung

    def j_of_lam(self, N, lam):
        """The root u of K u^2 + 2bN u + N^2 - K/4 - lam^2 = 0 that is regular at
        K = 0, less 1/2; scaled by bN, so no (bN)^2 is formed."""
        bN, K = self.field * N, self.curvature
        t = (N * N - K / 4.0 - lam * lam) / bN
        return -t / (1.0 + math.sqrt(max(1.0 - K * t / bN, 0.0))) - 0.5

    def _circle_rate(self, E):
        """(w, s) = ((E^2-1)/b, Q/b), Q = sqrt(b^2 + K(E^2-1)): the flow's circles
        close after time 2pi E/Q.  Scaled by b, so no b^2 is formed."""
        self.check_energy(E)
        w = (E - 1.0) * (E + 1.0) / self.field  # (E-1)(E+1) rounds less than E*E-1
        s2 = 1.0 + self.curvature / self.field * w
        if not 0.0 < s2 < math.inf:
            raise ValidationError(f"the circle family at E={E:.6g} needs a finite positive "
                                  f"Q^2 = b^2 + K(E^2-1); Q^2/b^2 is {s2:.3g}")
        return w, math.sqrt(s2)

    def k_frequency(self, E):
        return TWO_PI / (self.field * self._circle_rate(E)[1]) * E

    # (Maslov index, note) of the circle family; only the torus states one
    circle_maslov: ClassVar[tuple] = (None, "no stated index for this orbit family")

    def closed_orbits(self, E, c):
        """The one clockwise family of circles, none at or above the Mane level:
        period T = 2pi E/Q (``k_frequency``), length L = 2pi c/Q, holonomy
        hol = -2pi b c^2/(Q (Q+b)) and action S = L c + hol = 2pi (E^2-1)/(Q+b),
        the Poisson image's phase theta/N."""
        try:
            w, s = self._circle_rate(E)
        except ManeLevelError as exc:
            return ClosedOrbitSet(orbits=(), note=f"E >= {exc.boundary:.6g}, the Mane level: no "
                                  "periodic trajectories (horocycles at it, Anosov above)")
        turn = TWO_PI / (self.field * s)  # 2pi/Q
        L, hol = turn * c, -TWO_PI * w / (s * (1.0 + s))
        maslov, note = self.circle_maslov
        return ClosedOrbitSet(orbits=(OrbitInvariants(
            orientation="-", L=L, T=turn * E, S=L * c + hol, hol=hol, maslov=maslov,
            maslov_note=note, detIminusP=0.0),))

    def poisson_image(self, N, E):
        """(bound on |phase argument|/|k|, terms, bound) of the k-sum at N, E.

        terms(k, h0, h1, h2) gives the c0 and c1 summands from phi_hat and its
        two derivatives at k * k_frequency(E), with the phase exp(-2pi i k j0),
        j0 = (E^2-1) N/(Q+b) - 1/2; bound(k, h0, h1, h2) bounds |summand k|
        from bounds on them.  Both take one period k, on Python floats, or an
        array of periods (``floats``).
        """
        b, K, c = self.field, self.curvature, self.measure_coeff
        w, s = self._circle_rate(E)
        # the phase is exp(i pi k half_turns) exp(-i k theta), theta = 2pi (j0 + 1/2)
        # = 2pi N (Q-b)/K; where 2N b/K is an integer, these half turns may go
        # to the first factor, leaving 2pi N Q/K, the smaller where Q < b/2
        half_turns, theta = 1.0, TWO_PI / (1.0 + s) * w * N
        if 2.0 * s < 1.0 and (2.0 * N * (b / K)).is_integer():
            half_turns = (1.0 + 2.0 * N * (b / K)) % 2.0
            theta = TWO_PI * N * (b / K) * s
        a2 = math.pi * E * (1.0 - K / b / b) / (b * s**3)  # pi E (b^2 - K)/Q^3
        a0 = math.pi * K / b * E / (4.0 * s)  # pi K E/(4Q)

        def terms(k, h0, h1, h2):
            phase = cis(math.pi * half_turns * k) * cis(-k * theta)
            return c * E * h0 * phase, c * 1j * (h1 + a2 * k * h2 - a0 * k * h0) * phase

        def bound(kk, h0, h1, h2):
            return c * (E * h0 + h1 + abs(a2 * kk) * h2 + abs(a0 * kk) * h0)
        return math.pi * half_turns + abs(theta), terms, bound


@record
class Torus(ConstantCurvature):
    """Flat torus R^2/Z^2 at the quantized field B = 2pi."""

    B: ClassVar[float] = TWO_PI

    kind: ClassVar[str] = "torus"
    curvature: ClassVar[float] = 0.0
    field: ClassVar[float] = TWO_PI
    loop_periods: ClassVar[tuple] = (1.0, 1.0)  # the projected loop closes modulo the lattice

    def coefficients(self, s, slopes=False):  # a = b = 1, F = B
        return (0.0, 0.0, 0.0) if slopes else (1.0, 1.0, self.B, 0.0, 0.0)

    def connection(self, y):
        """A = B x dy on the universal cover, pulled back along the flow."""
        return self.B * y[0] * self.flow(y)[1]

    circle_maslov: ClassVar[tuple] = (4, "")

    def orbit_state(self, c, orientation):
        return PhaseState(q=(0.0, 0.0), p=(c, 0.0))

    area: ClassVar[float] = 1.0

    def mc_area(self, rng, n):
        import numpy as np
        return np.ones(n), 1.0


@record
class Sphere(ConstantCurvature):
    """Round sphere of radius R at the quantized field B = 1/2."""

    R: float
    B: ClassVar[float] = 0.5

    kind: ClassVar[str] = "sphere"
    params: ClassVar[dict] = {"R": float}
    pole_margin: ClassVar[float] = 0.1
    loop_periods: ClassVar[tuple] = (None, TWO_PI)

    def __post_init__(self):
        if not (self.R > 0.0 and math.isfinite(self.R)):
            raise ValidationError(f"sphere radius must be positive, got {self.R}")
        refuse_past_double_range(f"sphere radius R={self.R:g}, its R^2 and area",
                                 lambda: (1.0 / (self.R * self.R), self.area))

    field = property(lambda self: self.B / (self.R * self.R))
    curvature = property(lambda self: 1.0 / (self.R * self.R))

    def coefficients(self, s, slopes=False):  # s = theta: a = 1/R^2, b = 1/(R^2 sin^2), F = B sin
        xp, R2 = _xp(s), self.R * self.R
        sn, cs = xp.sin(s), xp.cos(s)
        b = 1.0 / (R2 * sn * sn)
        return ((self.B * cs, 0.0, (2.0 + 6.0 * cs * cs / (sn * sn)) * b) if slopes
                else (1.0 / R2, b, self.B * sn, 0.0, -2.0 * cs / sn * b))

    def connection(self, y):
        """A = B (1 - cos theta) dphi, which trivializes the upper hemisphere only."""
        import numpy as np
        if np.any(y[0] >= math.pi / 2.0):
            raise ValidationError(
                "orbit leaves the upper hemisphere; the hemispheric "
                "trivialization does not cover it")
        return self.B * (1.0 - np.cos(y[0])) * self.flow(y)[1]

    def orbit_state(self, c, orientation):
        theta0 = math.atan2(c * self.R, self.B)  # northern latitude circle
        return PhaseState(q=(theta0, 0.0), p=(0.0, -c * self.R * math.sin(theta0)))

    @property
    def area(self):
        return 4.0 * math.pi * self.R * self.R

    def mc_area(self, rng, n):
        import numpy as np
        th = rng.uniform(0.0, math.pi, n)
        return self.R * self.R * np.sin(th), math.pi * TWO_PI  # chart (0,pi) x (0,2pi)


@record
class Hyperbolic(ConstantCurvature):
    """Compact hyperbolic surface of genus g >= 2, curvature -1/R^2, at B = 1."""

    R: float
    genus: int
    B: ClassVar[float] = 1.0

    kind: ClassVar[str] = "hyperbolic"
    params: ClassVar[dict] = {"R": float, "genus": int}

    def __post_init__(self):
        if not (self.R > 0.0 and math.isfinite(self.R)):
            raise ValidationError(f"curvature scale must be positive, got {self.R}")
        if not (isinstance(self.genus, int) and self.genus >= 2):
            raise ValidationError(f"genus must be an integer >= 2, got {self.genus}")
        refuse_past_double_range(  # b = 1/R^2, the area and the flux c b = 2g - 2
            f"hyperbolic parameters R={self.R:g}, genus={self.genus}",
            lambda: (1.0 / (self.R * self.R), self.area, self.measure_coeff * self.field))

    @property
    def mane_E(self) -> float:
        """Upper limit of serviceable energies, sqrt(1/R^2 + 1)."""
        return math.sqrt(1.0 / (self.R * self.R) + 1.0)

    def check_energy(self, E):
        if not E < self.mane_E:
            raise ManeLevelError(E, self.mane_E)

    field = property(lambda self: self.B / (self.R * self.R))
    curvature = property(lambda self: -1.0 / (self.R * self.R))

    def j_cap(self, N):
        return N - 1  # integer part of the open bound N - 1/2

    def chaotic_tail(self, N, E, env):
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
        R2 = self.R * self.R
        W = 2.0 * R2 * (2 * self.genus - 2)
        lam0 = math.sqrt(N * N + (N * N + 0.25) / R2)
        x0 = lam0 - E * N
        if x0 <= 0.0:
            raise ManeLevelError(E, self.mane_E)
        boundary = W * ((N * N + 0.25) / R2) * float(env(x0))
        return boundary + 2.0 * W * env.halfline_moment(x0, E * N, 1.0)

    s_index: ClassVar[int] = 1

    def coefficients(self, s, slopes=False):  # s = y: a = b = y^2/R^2, F = B/y^2
        R2, B = self.R * self.R, self.B
        return ((-2.0 * B / (s * s * s), 2.0 / R2, 2.0 / R2) if slopes
                else (s * s / R2, s * s / R2, B / (s * s), 2.0 * s / R2, 2.0 * s / R2))

    def connection(self, y):
        """A = (B/y) dx on the upper half-plane."""
        return (self.B / y[1]) * self.flow(y)[0]

    def check_state(self, y):
        if not y[1] > 0.0:
            raise ChartError(f"half-plane chart needs y > 0, got y={y[1]:.6g}")

    def orbit_state(self, c, orientation):
        R = self.R
        try:
            y_bottom = math.exp(-math.atanh(c * R))  # lowest point of the circle about (0, 1)
        except ValueError:  # cR rounds to 1 or more within a few ulps below mane_E
            raise ValidationError(f"cR = {c * R!r} rounds to 1 or more below the Mane level: "
                                  "the start point exp(-atanh(cR)) is not representable") from None
        return PhaseState(q=(0.0, y_bottom), p=(-c * R / y_bottom, 0.0))

    @property
    def area(self):
        return TWO_PI * self.R * self.R * (2 * self.genus - 2)  # Gauss-Bonnet


# ---------------------------------------------------------------------------
# the deformed sphere
# ---------------------------------------------------------------------------

@record
class KatokMonodromy:
    """Transverse return map of an equatorial orbit in (Theta, P_theta)."""

    matrix: np.ndarray
    a: float
    alpha: float
    det_i_minus_p: float


def half_lattice_distance(x: float) -> float:
    """Distance from x to the half-integer lattice Z/2."""
    return abs(x - round(2.0 * x) / 2.0)


def branch_sign(orientation: str) -> int:
    if orientation not in ("+", "-"):
        raise ValidationError(f"orientation must be '+' or '-', got {orientation!r}")
    return 1 if orientation == "+" else -1


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
    params: ClassVar[dict] = {"eps": float}
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
        return TWO_PI * SQRT2 / (1.0 - self.eps * self.eps)  # the period T# at E = sqrt(2)

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

    def connection(self, y):
        """A = eps sin^2/(1-eps^2 sin^2) dphi (sign fixed by the branch pairing
        of the orbit actions)."""
        import numpy as np
        s2 = np.sin(y[0]) ** 2
        return self.eps * s2 / (1.0 - self.eps**2 * s2) * self.flow(y)[1]

    def first_integral(self, y):
        """Conserved quantity P = p_phi + eps sin^2(theta)/(1 - eps^2 sin^2(theta))."""
        import numpy as np
        s2 = np.sin(y[0]) ** 2
        return y[3] + self.eps * s2 / (1.0 - self.eps * self.eps * s2)

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
        phase = (complex(math.cos(math.pi * m / 4.0), math.sin(math.pi * m / 4.0))
                 * complex(math.cos(turn), -math.sin(turn)))
        return self.amplitude * phase * complex(hat) / self.sine(k, branch)

    def return_map(self, E: float, branch: int) -> KatokMonodromy:
        """Closed-form linearized return map of a branch's equator at energy E.

        With a = [(E^2-1)(1+eps^2) +- 2 eps sqrt(E^2-1)]^{1/2} and rotation
        angle alpha = (2 pi/(1-eps^2)) [1+eps^2 +- 2 eps/sqrt(E^2-1)]^{1/2},
        the map is the rotation-like matrix
        [[cos a, (1-e^2)/a sin a], [-a/(1-e^2) sin a, cos a]] (angle alpha),
        and |I - P| = 4 sin^2(alpha/2).
        """
        import numpy as np
        e, c = self.eps, EnergyLevel.from_E(E).c
        a = math.sqrt((E * E - 1.0) * (1.0 + e * e) + branch * 2.0 * e * c)
        alpha = (TWO_PI / (1.0 - e * e)) * math.sqrt(1.0 + e * e + branch * 2.0 * e / c)
        ca, sa = math.cos(alpha), math.sin(alpha)
        mat = np.array([[ca, (1.0 - e * e) / a * sa],
                        [-a / (1.0 - e * e) * sa, ca]])
        return KatokMonodromy(matrix=mat, a=a, alpha=alpha,
                              det_i_minus_p=4.0 * math.sin(alpha / 2.0) ** 2)

    def closed_orbits(self, E, c):
        e = self.eps
        T = TWO_PI * E / ((1.0 - e * e) * c)
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
                maslov_note=note, detIminusP=self.return_map(E, branch).det_i_minus_p))
        return ClosedOrbitSet(orbits=tuple(orbits))

    def orbit_state(self, c, orientation):
        sign, e = float(branch_sign(orientation)), self.eps
        return PhaseState(q=(math.pi / 2.0, 0.0), p=(0.0, sign * c / (1.0 - e * e)))

    @property
    def area(self):
        # int sqrt(det g) = 2 pi int sin/(1-eps^2 sin^2)^{3/2} = 4 pi/(1-eps^2)
        return 4.0 * math.pi / (1.0 - self.eps * self.eps)

    def mc_area(self, rng, n):
        import numpy as np
        s = np.sin(rng.uniform(0.0, math.pi, n))
        return s / (1.0 - self.eps**2 * s**2) ** 1.5, math.pi * TWO_PI


# config kind -> (class, param -> type), as testfn.KINDS
KINDS = {cls.kind: (cls, cls.params) for cls in (Torus, Sphere, Hyperbolic, Katok)}


class GeometrySpec:
    """The constructor names of earlier releases: ``GeometrySpec.sphere(R)`` is ``Sphere(R)``."""

    torus, sphere, hyperbolic, katok = Torus, Sphere, Hyperbolic, Katok


# the closed-form ladders' old names, kept for perfbench/setup_probe.py and reference.py
TorusModel, SphereModel, HyperbolicModel = Torus, Sphere, Hyperbolic
