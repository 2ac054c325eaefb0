"""The four example geometries, one frozen class each.

``Torus()``, ``Sphere(R)``, ``Hyperbolic(R, genus)`` and ``Katok(eps)`` (the
deformed sphere) own what differs between the examples: the Landau ladder of
the closed-form spectra (``spectra``), its Poisson image (``k_frequency``,
``poisson_image``, summed by ``asymptotics.poisson_c01``) and the magnetic
flow with its charts and closed orbits (``dynamics``).  Each field strength
is the quantized one its closed forms need: B = 2pi on the torus, 1/2 on the
sphere, 1 on the hyperbolic surface.
"""

from __future__ import annotations

import dataclasses
import math
from typing import ClassVar

import numpy as np

from .errors import (ChartError, IntegratorError, ManeLevelError, ValidationError,
                     refuse_past_double_range)

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# phase-space and orbit records
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class PhaseState:
    """Chart coordinates (q1, q2) and momenta (p1, p2).

    chart is "default" except on the round sphere, where "z" and "x" name
    the polar charts about the corresponding axes.
    """

    q: tuple
    p: tuple
    chart: str = "default"

    def as_array(self) -> np.ndarray:
        return np.array([self.q[0], self.q[1], self.p[0], self.p[1]], dtype=float)


@dataclasses.dataclass(frozen=True)
class OrbitInvariants:
    """Closed-form invariants of one primitive closed orbit.

    S is the action L*sqrt(E^2-1) + hol, stored unreduced; it is defined
    modulo 2 pi.  maslov is None where the source material does not state
    an index (see maslov_note).
    """

    geometry: str
    orientation: str
    E: float
    L: float
    T: float
    Tsharp: float
    S: float
    hol: float
    maslov: int | None
    maslov_note: str
    detIminusP: float


@dataclasses.dataclass(frozen=True)
class ClosedOrbitSet:
    """Closed orbits of the flow at one energy (possibly none)."""

    orbits: tuple
    note: str | None = None

    @property
    def has_orbits(self) -> bool:
        return len(self.orbits) > 0


_NO_INDEX = "no stated index for this orbit family"


def _circle_orbit(geo, E, c, T, L, hol, maslov=None, note=_NO_INDEX) -> ClosedOrbitSet:
    """The one clockwise orbit family of a periodic flow."""
    return ClosedOrbitSet(orbits=(OrbitInvariants(
        geometry=geo.kind, orientation="-", E=E, L=L, T=T, Tsharp=T, S=L * c + hol,
        hol=hol, maslov=maslov, maslov_note=note, detIminusP=0.0),))


# ---------------------------------------------------------------------------
# the geometries
# ---------------------------------------------------------------------------

class Geometry:
    """What every example geometry provides; ``y`` is one state (q1, q2, p1, p2)
    or a (4, n) batch of them."""

    kind: ClassVar[str]
    params: ClassVar[dict] = {}              # config key -> int or float
    stated_E: ClassVar[float | None] = None  # the one energy the example is stated at
    pole_margin: ClassVar[float | None] = None  # polar charts stop this far from a pole
    charts: ClassVar[tuple] = ("default",)
    default_chart: ClassVar[str] = "default"
    loop_periods: ClassVar[tuple] = (None, None)  # coordinate periods of a closed loop

    def check_spectrum(self):
        """Refuse a geometry without a closed-form spectrum (the ladders have one)."""

    def predict(self, N, level, f, ctl, support_tol):
        """c0, c1 at one N: the Poisson k-sum of the ladder."""
        from .asymptotics import poisson_c01  # asymptotics builds on this module
        return poisson_c01(N, self, level, f, ctl)

    def check_energy(self, E):
        """Refuse energies the ladder's predictions do not cover (none by default)."""

    def j_cap(self, N):
        """Largest admissible ladder index (inclusive), or None when unbounded."""
        return None

    def chaotic_tail(self, N, E, env) -> float:
        """Bound on the eigenvalues off the ladder; only the hyperbolic surface has any."""
        return 0.0

    def check_chart(self, y, chart: str) -> None:
        if self.pole_margin is not None and not 0.0 < y[0] < math.pi:
            raise ChartError(f"polar angle theta={y[0]:.6g} outside (0, pi)")
        if chart not in self.charts:
            raise ChartError(f"geometry {self.kind} has no chart {chart!r}")

    def first_integral(self, y):
        """A conserved quantity besides H, or None."""
        return None

    def mc_area(self, rng, n):
        """Monte Carlo samples of sqrt(det g) over a chart cell and the cell's
        area, or None without a parameterized fundamental domain."""
        return None

    def closure_gap(self, y0, y1) -> float:
        """Largest coordinate difference of two states, modulo the loop periods."""
        dq = np.array(y1[:2]) - np.array(y0[:2])
        dp = np.array(y1[2:]) - np.array(y0[2:])
        for i, period in enumerate(self.loop_periods):
            if period is not None:
                dq[i] -= period * round(dq[i] / period)
        return float(max(np.max(np.abs(dq)), np.max(np.abs(dp))))


@dataclasses.dataclass(frozen=True)
class Torus(Geometry):
    """Flat torus R^2/Z^2 at the quantized field B = 2pi."""

    B: float = TWO_PI

    kind: ClassVar[str] = "torus"
    measure_coeff: ClassVar[float] = 1.0 / TWO_PI
    loop_periods: ClassVar[tuple] = (1.0, 1.0)  # the projected loop closes modulo the lattice

    def __post_init__(self):
        if self.B != TWO_PI:
            raise ValidationError("TorusModel implements the quantized case B = 2pi only")

    # ladder nu = 2 pi N (2j+1), mult N
    def ladder(self, N, j):
        return TWO_PI * N * (2.0 * j + 1.0), np.full(np.shape(j), float(N))

    def j_of_lam(self, N, lam):
        return (lam * lam - N * N - TWO_PI * N) / (4.0 * math.pi * N)

    def k_frequency(self, E):
        return E

    def poisson_image(self, N, E):
        """(bound on |phase argument|/|k|, terms, bound) of the k-sum at N, E.

        terms(ks, h0, h1, h2) gives the c0 and c1 summands from phi_hat and
        its two derivatives at ks * k_frequency(E); bound(k, h0, h1, h2)
        bounds |summand k| from bounds on them.  Likewise on every ladder.
        """
        def terms(ks, h0, h1, h2):
            phase = np.exp(1j * math.pi * ks) * np.exp(-1j * ks * (E * E - 1.0) * N / 2.0)
            return ((E / TWO_PI) * h0 * phase,
                    ((1j / TWO_PI) * h1 + (1j * ks * E / (4.0 * math.pi)) * h2) * phase)

        def bound(kk, h0, h1, h2):
            return ((E / TWO_PI) * h0 + (1.0 / TWO_PI) * h1
                    + (abs(kk) * E / (4.0 * math.pi)) * h2)
        return math.pi + (E * E - 1.0) * N, terms, bound

    # flow
    def hamiltonian(self, y):
        q1, q2, p1, p2 = y
        return np.sqrt(p1 * p1 + p2 * p2 + 1.0)

    def flow(self, y):
        q1, q2, p1, p2 = y
        H = self.hamiltonian(y)
        B = self.B
        return np.array([p1 / H, p2 / H, B * p2 / H, -B * p1 / H])

    def connection(self, y):
        """A = B x dy on the universal cover, pulled back along the flow."""
        return self.B * y[0] * self.flow(y)[1]

    def closed_orbits(self, E, c):
        B = self.B
        return _circle_orbit(self, E, c, T=TWO_PI * E / B, L=TWO_PI * c / B,
                             hol=-math.pi * (E * E - 1.0) / B, maslov=4, note="")

    def orbit_state(self, E, c, orientation):
        return PhaseState(q=(0.0, 0.0), p=(c, 0.0)), E

    area: ClassVar[float] = 1.0

    def mc_area(self, rng, n):
        return np.ones(n), 1.0


@dataclasses.dataclass(frozen=True)
class Sphere(Geometry):
    """Round sphere of radius R at the quantized field B = 1/2."""

    R: float
    B: float = 0.5

    kind: ClassVar[str] = "sphere"
    params: ClassVar[dict] = {"R": float}
    pole_margin: ClassVar[float] = 0.1
    charts: ClassVar[tuple] = ("z", "x", "default")
    default_chart: ClassVar[str] = "z"
    loop_periods: ClassVar[tuple] = (None, TWO_PI)

    def __post_init__(self):
        if not (self.R > 0.0 and math.isfinite(self.R)):
            raise ValidationError(f"sphere radius must be positive, got {self.R}")
        refuse_past_double_range(f"sphere radius R={self.R:g} and R^2",
                                 lambda: (self.R * self.R, 1.0 / (self.R * self.R)))
        if self.B != 0.5:
            raise ValidationError("SphereModel implements the quantized case B = 1/2 only")

    # ladder nu = [j(j+1) + (N/2)(2j+1)]/R^2, mult N+2j+1; u = j + (N+1)/2
    def ladder(self, N, j):
        nu = (j * (j + 1.0) + 0.5 * N * (2.0 * j + 1.0)) / (self.R * self.R)
        return nu, N + 2.0 * j + 1.0

    def j_of_lam(self, N, lam):
        R2 = self.R * self.R
        u2 = R2 * (lam * lam - N * N) + (N * N + 1.0) / 4.0
        return math.sqrt(max(u2, 0.0)) - (N + 1.0) / 2.0

    @property
    def measure_coeff(self):
        return 2.0 * self.R * self.R

    def _beta(self, E):
        return math.sqrt((E * E - 1.0) * self.R * self.R + 0.25)  # R*sqrt(E^2-1+1/(4R^2))

    def k_frequency(self, E):
        return TWO_PI * E * self.R * self.R / self._beta(E)

    def poisson_image(self, N, E):
        R, beta = self.R, self._beta(E)
        a2 = math.pi * E * R**4 * (4.0 * R * R - 1.0) / (2.0 * beta**3)
        a0 = math.pi * E * R * R / (2.0 * beta)

        def terms(ks, h0, h1, h2):
            phase = (np.exp(1j * math.pi * ks * (N + 1.0))
                     * np.exp(-2j * math.pi * ks * beta * N))
            return (2.0 * E * R * R * h0 * phase,
                    (2j * R * R * h1 - 1j * a2 * ks * h2 - 1j * a0 * ks * h0) * phase)

        def bound(kk, h0, h1, h2):
            return (2.0 * E * R * R * h0 + 2.0 * R * R * h1
                    + abs(a2 * kk) * h2 + abs(a0 * kk) * h0)
        return math.pi * (N + 1.0) + TWO_PI * beta * N, terms, bound

    # flow
    def hamiltonian(self, y):
        q1, q2, p1, p2 = y
        s = np.sin(q1)
        return np.sqrt((p1 * p1 + p2 * p2 / (s * s)) / (self.R * self.R) + 1.0)

    def flow(self, y):
        q1, q2, p1, p2 = y
        H = self.hamiltonian(y)
        R2 = self.R * self.R
        B = self.B
        s, c = np.sin(q1), np.cos(q1)
        return np.array([
            p1 / (R2 * H),
            p2 / (R2 * s * s * H),
            (c / (R2 * s**3)) * p2 * p2 / H + B * p2 / (R2 * s * H),
            -B * s * p1 / (R2 * H),
        ])

    def connection(self, y):
        """A = B (1 - cos theta) dphi, which trivializes the upper hemisphere only."""
        if np.any(y[0] >= math.pi / 2.0):
            raise ValidationError(
                "orbit leaves the upper hemisphere; the hemispheric "
                "trivialization does not cover it")
        return self.B * (1.0 - np.cos(y[0])) * self.flow(y)[1]

    @staticmethod
    def _axes(chart):
        # chart "x" relabels the axes cyclically: its (x, y, z) are world (y, z, x)
        return [0, 1, 2] if chart == "z" else [1, 2, 0]

    def _to_world(self, y, chart, H):
        """World position n and velocity dn/dt of a chart state."""
        q1, q2, p1, p2 = y
        R = self.R
        s, c = math.sin(q1), math.cos(q1)
        n_loc = np.array([s * math.cos(q2), s * math.sin(q2), c])
        dth = p1 / (R * R * H)
        dph = p2 / (R * R * s * s * H)
        v_loc = (dth * np.array([c * math.cos(q2), c * math.sin(q2), -s])
                 + dph * np.array([-s * math.sin(q2), s * math.cos(q2), 0.0]))
        n = np.empty(3)
        v = np.empty(3)
        n[self._axes(chart)] = n_loc
        v[self._axes(chart)] = v_loc
        return n, v

    def _from_world(self, n, v, chart, H):
        R = self.R
        n_loc = n[self._axes(chart)]
        v_loc = v[self._axes(chart)]
        q1 = math.acos(max(-1.0, min(1.0, n_loc[2])))
        q2 = math.atan2(n_loc[1], n_loc[0])
        s = math.sin(q1)
        dth = -v_loc[2] / s
        dph = (v_loc[1] * n_loc[0] - n_loc[1] * v_loc[0]) / (n_loc[0] ** 2 + n_loc[1] ** 2)
        return np.array([q1, q2, R * R * H * dth, R * R * s * s * H * dph])

    def switch_chart(self, y, chart):
        """The same state in the other polar chart, through the rotation isometry."""
        H = self.hamiltonian(y)
        n, v = self._to_world(y, chart, H)
        new_chart = "x" if chart == "z" else "z"
        return self._from_world(n, v, new_chart, H), new_chart

    def closed_orbits(self, E, c):
        B, R = self.B, self.R
        w = math.sqrt(c * c + B * B / (R * R))
        return _circle_orbit(self, E, c, T=TWO_PI * E * R / w, L=TWO_PI * c * R / w,
                             hol=-TWO_PI * B * (1.0 - (B / R) / w))

    def orbit_state(self, E, c, orientation):
        B, R = self.B, self.R
        w = math.sqrt(c * c + B * B / (R * R))
        theta0 = math.atan2(c * R, B)  # northern latitude circle
        return (PhaseState(q=(theta0, 0.0), p=(0.0, -c * R * math.sin(theta0)), chart="z"),
                TWO_PI * E * R / w)

    @property
    def area(self):
        return 4.0 * math.pi * self.R * self.R

    def mc_area(self, rng, n):
        th = rng.uniform(0.0, math.pi, n)
        return self.R * self.R * np.sin(th), math.pi * TWO_PI  # chart (0,pi) x (0,2pi)


@dataclasses.dataclass(frozen=True)
class Hyperbolic(Geometry):
    """Compact hyperbolic surface of genus g >= 2, curvature -1/R^2, at B = 1."""

    R: float
    genus: int
    B: float = 1.0

    kind: ClassVar[str] = "hyperbolic"
    params: ClassVar[dict] = {"R": float, "genus": int}

    def __post_init__(self):
        if not (self.R > 0.0 and math.isfinite(self.R)):
            raise ValidationError(f"curvature scale must be positive, got {self.R}")
        if not (isinstance(self.genus, int) and self.genus >= 2):
            raise ValidationError(f"genus must be an integer >= 2, got {self.genus}")
        refuse_past_double_range(  # 1/R^2, and R^2 within the measure coefficient 2(g-1)R^2
            f"hyperbolic parameters R={self.R:g}, genus={self.genus}",
            lambda: (1.0 / (self.R * self.R), 2.0 * (self.genus - 1) * self.R * self.R))
        if self.B != 1.0:
            raise ValidationError("HyperbolicModel implements the quantized case B = 1 only")

    @property
    def mane_E(self) -> float:
        """Upper limit of serviceable energies, sqrt(1/R^2 + 1)."""
        return math.sqrt(1.0 / (self.R * self.R) + 1.0)

    def check_energy(self, E):
        if not E < self.mane_E:
            raise ManeLevelError(E, self.mane_E)

    # integrable branch 0 <= j < N - 1/2: nu = [1/4 + N^2 - (j+1/2-N)^2]/R^2,
    # mult (g-1)(2N-2j-1); u = N - j - 1/2
    def ladder(self, N, j):
        nu = (0.25 + N * N - (j + 0.5 - N) ** 2) / (self.R * self.R)
        return nu, (self.genus - 1) * (2.0 * N - 2.0 * j - 1.0)

    def j_of_lam(self, N, lam):
        R2 = self.R * self.R
        arg = 0.25 + N * N - R2 * (lam * lam - N * N)
        return N - 0.5 - math.sqrt(max(arg, 0.0))

    def j_cap(self, N):
        return N - 1  # integer part of the open bound N - 1/2

    @property
    def measure_coeff(self):
        return 2.0 * (self.genus - 1) * self.R * self.R  # mult = 2(g-1)u, R^2 dnu = -2u du

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

    def _q(self, E):
        self.check_energy(E)
        return math.sqrt(1.0 / (self.R * self.R) + 1.0 - E * E)

    def k_frequency(self, E):
        return TWO_PI * E * self.R / self._q(E)

    def poisson_image(self, N, E):
        R, q = self.R, self._q(E)
        g2 = 2.0 * self.genus - 2.0
        b0 = math.pi * E * R / (4.0 * q)
        b2 = math.pi * E * (R * R + 1.0) * R / q**3

        def terms(ks, h0, h1, h2):
            phase = np.exp(1j * math.pi * ks) * np.exp(2j * math.pi * ks * R * q * N)
            return (g2 * E * R * R * h0 * phase,
                    g2 * (1j * R * R * h1 + 1j * b0 * ks * h0 + 1j * b2 * ks * h2) * phase)

        def bound(kk, h0, h1, h2):
            return g2 * (E * R * R * h0 + R * R * h1
                         + b0 * abs(kk) * h0 + b2 * abs(kk) * h2)
        return math.pi + TWO_PI * R * q * N, terms, bound

    # flow
    def hamiltonian(self, y):
        q1, q2, p1, p2 = y
        return np.sqrt((q2 * q2 / (self.R * self.R)) * (p1 * p1 + p2 * p2) + 1.0)

    def flow(self, y):
        q1, q2, p1, p2 = y
        H = self.hamiltonian(y)
        R2 = self.R * self.R
        B = self.B
        return np.array([
            q2 * q2 * p1 / (R2 * H),
            q2 * q2 * p2 / (R2 * H),
            B * p2 / (R2 * H),
            -(q2 / R2) * (p1 * p1 + p2 * p2) / H - B * p1 / (R2 * H),
        ])

    def connection(self, y):
        """A = (B/y) dx on the upper half-plane."""
        return (self.B / y[1]) * self.flow(y)[0]

    def check_chart(self, y, chart):
        if not y[1] > 0.0:
            raise ChartError(f"half-plane chart needs y > 0, got y={y[1]:.6g}")
        super().check_chart(y, chart)

    def closed_orbits(self, E, c):
        R = self.R
        if c * R >= 1.0:
            return ClosedOrbitSet(orbits=(), note=(
                f"cR = {c * R:.6g} >= 1: at or above the Mane level the flow has "
                "no periodic trajectories (horocycles at cR = 1, Anosov above)"))
        root = math.sqrt(1.0 - c * c * R * R)
        return _circle_orbit(self, E, c, T=TWO_PI * E * R * R / root,
                             L=TWO_PI * c * R * R / root, hol=-TWO_PI * (1.0 / root - 1.0))

    def orbit_state(self, E, c, orientation):
        R = self.R
        if c * R >= 1.0:
            raise ValidationError(
                f"cR = {c * R:.6g} >= 1: no closed hyperbolic orbit to start on")
        root = math.sqrt(1.0 - c * c * R * R)
        r = math.atanh(c * R)  # normalized radius, tanh r = cR
        y_bottom = math.exp(-r)  # circle about (0, 1): lowest point
        return (PhaseState(q=(0.0, y_bottom), p=(-c * R / y_bottom, 0.0)),
                TWO_PI * E * R * R / root)

    @property
    def area(self):
        return TWO_PI * self.R * self.R * (2 * self.genus - 2)  # Gauss-Bonnet


# ---------------------------------------------------------------------------
# the deformed sphere
# ---------------------------------------------------------------------------

def katok_first_integral(eps: float, y):
    """Conserved quantity P = p_phi + eps sin^2(theta)/(1 - eps^2 sin^2(theta))."""
    s2 = np.sin(y[0]) ** 2
    return y[3] + eps * s2 / (1.0 - eps * eps * s2)


@dataclasses.dataclass(frozen=True)
class KatokMonodromy:
    """Transverse return map of an equatorial orbit in (Theta, P_theta)."""

    matrix: np.ndarray
    a: float
    alpha: float
    det_i_minus_p: float


def half_lattice_distance(x: float) -> float:
    """Distance from x to the half-integer lattice Z/2."""
    return abs(x - round(2.0 * x) / 2.0)


def katok_maslov_closed(k: int, branch: int, eps: float) -> int:
    """Closed-form Maslov index 2*floor(2k/(1 -+ eps)) + 2*sign(k) + 1, branch +-1."""
    x = 2.0 * k / (1.0 - branch * eps)
    return 2 * int(math.floor(x)) + 2 * (1 if k > 0 else -1) + 1


def branch_sign(orientation: str) -> int:
    if orientation not in ("+", "-"):
        raise ValidationError(f"orientation must be '+' or '-', got {orientation!r}")
    return 1 if orientation == "+" else -1


def katok_poincare_analytic(eps: float, E: float, orientation: str) -> KatokMonodromy:
    """Closed-form linearized return map of the equatorial orbits.

    With a = [(E^2-1)(1+eps^2) +- 2 eps sqrt(E^2-1)]^{1/2} and rotation
    angle alpha = (2 pi/(1-eps^2)) [1+eps^2 +- 2 eps/sqrt(E^2-1)]^{1/2},
    the map is the rotation-like matrix
    [[cos a, (1-e^2)/a sin a], [-a/(1-e^2) sin a, cos a]] (angle alpha),
    and |I - P| = 4 sin^2(alpha/2).
    """
    Katok(eps)  # refuses eps outside (0, 1)
    if not E > 1.0:
        raise ValidationError(f"energy must exceed 1, got {E}")
    sg = branch_sign(orientation)
    c = math.sqrt(E * E - 1.0)
    a = math.sqrt((E * E - 1.0) * (1.0 + eps * eps) + sg * 2.0 * eps * c)
    alpha = (TWO_PI / (1.0 - eps * eps)) * math.sqrt(1.0 + eps * eps + sg * 2.0 * eps / c)
    ca, sa = math.cos(alpha), math.sin(alpha)
    mat = np.array([[ca, (1.0 - eps * eps) / a * sa],
                    [-a / (1.0 - eps * eps) * sa, ca]])
    return KatokMonodromy(matrix=mat, a=a, alpha=alpha,
                          det_i_minus_p=4.0 * math.sin(alpha / 2.0) ** 2)


@dataclasses.dataclass(frozen=True)
class Katok(Geometry):
    """Katok's deformed sphere, stated at E = sqrt(2): inverse metric
    diag(D, D^2/sin^2 theta) with D = 1 - eps^2 sin^2 theta.  Its flow has no
    closed-form spectrum; two isolated equatorial orbits, "+" and "-"."""

    eps: float

    kind: ClassVar[str] = "katok"
    params: ClassVar[dict] = {"eps": float}
    stated_E: ClassVar[float] = SQRT2
    pole_margin: ClassVar[float] = 0.05
    loop_periods: ClassVar[tuple] = (None, TWO_PI)

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ValidationError(f"deformation parameter must lie in (0,1), got {self.eps}")

    def check_spectrum(self):
        raise ValidationError(
            "the deformed sphere has no closed-form spectrum; spectral commands "
            "support torus, sphere and hyperbolic geometries only")

    def predict(self, N, level, f, ctl, support_tol):
        from .asymptotics import katok_c0
        return katok_c0(N, self.eps, f, ctl, support_tol=support_tol)

    def k_frequency(self, E):
        return TWO_PI * SQRT2 / (1.0 - self.eps * self.eps)  # the period T# at E = sqrt(2)

    def hamiltonian(self, y):
        q1, q2, p1, p2 = y
        s2 = np.sin(q1) ** 2
        D = 1.0 - self.eps**2 * s2
        return np.sqrt(D * p1 * p1 + (D * D / s2) * p2 * p2 + 1.0)

    def flow(self, y):
        q1, q2, p1, p2 = y
        H = self.hamiltonian(y)
        e = self.eps
        s, c = np.sin(q1), np.cos(q1)
        D = 1.0 - e * e * s * s
        return np.array([
            D * p1 / H,
            (D * D / (s * s)) * p2 / H,
            (e * e * s * c * p1 * p1
             + (c / s**3 - e**4 * s * c) * p2 * p2
             + 2.0 * e * (c / s) * p2) / H,
            -(e * np.sin(2.0 * q1) / D) * p1 / H,
        ])

    def connection(self, y):
        """A = eps sin^2/(1-eps^2 sin^2) dphi (sign fixed by the branch pairing
        of the orbit actions)."""
        s2 = np.sin(y[0]) ** 2
        return self.eps * s2 / (1.0 - self.eps**2 * s2) * self.flow(y)[1]

    def first_integral(self, y):
        return katok_first_integral(self.eps, y)

    def switch_chart(self, y, chart):
        raise IntegratorError(
            f"trajectory approached a coordinate pole (theta={y[0]:.4g}) "
            "of the deformed-sphere chart; no rotated chart exists for this metric")

    def closed_orbits(self, E, c):
        e = self.eps
        T = TWO_PI * E / ((1.0 - e * e) * c)
        L = TWO_PI / (1.0 - e * e)
        orbits = []
        at_sqrt2 = abs(E - SQRT2) < 1e-12
        for branch, label in ((+1, "+"), (-1, "-")):
            hol = branch * TWO_PI * e / (1.0 - e * e)
            kat = katok_poincare_analytic(e, E, label)
            maslov, note = None, "index formula stated only at E = sqrt(2)"
            if at_sqrt2 and half_lattice_distance(2.0 / (1.0 - branch * e)) <= 1e-9:
                note = "index ill-defined at this resonant deformation"
            elif at_sqrt2:
                maslov, note = katok_maslov_closed(1, branch, e), ""
            orbits.append(OrbitInvariants(
                geometry=self.kind, orientation=label, E=E, L=L, T=T, Tsharp=T,
                S=L * c + hol, hol=hol, maslov=maslov, maslov_note=note,
                detIminusP=kat.det_i_minus_p))
        return ClosedOrbitSet(orbits=tuple(orbits))

    def orbit_state(self, E, c, orientation):
        sign = float(branch_sign(orientation))
        e = self.eps
        return (PhaseState(q=(math.pi / 2.0, 0.0), p=(0.0, sign * c / (1.0 - e * e))),
                TWO_PI * E / ((1.0 - e * e) * c))

    @property
    def area(self):
        # int sqrt(det g) = 2 pi int sin/(1-eps^2 sin^2)^{3/2} = 4 pi/(1-eps^2)
        return 4.0 * math.pi / (1.0 - self.eps * self.eps)

    def mc_area(self, rng, n):
        th = rng.uniform(0.0, math.pi, n)
        s2 = np.sin(th) ** 2
        return np.sin(th) / (1.0 - self.eps**2 * s2) ** 1.5, math.pi * TWO_PI


# config kind -> (class, param -> type), as testfn.KINDS
KINDS = {cls.kind: (cls, cls.params) for cls in (Torus, Sphere, Hyperbolic, Katok)}


class GeometrySpec:
    """The constructor names of earlier releases: ``GeometrySpec.sphere(R)`` is ``Sphere(R)``."""

    torus, sphere, hyperbolic, katok = Torus, Sphere, Hyperbolic, Katok
