"""Magnetic geodesic flows: integration, closed orbits, and orbit invariants.

All four example geometries run through the same Hamiltonian system

    dq/dt = (1/H) g^{-1} p,
    dp/dt = (1/H) [ -(1/2) <d(g^{-1}) p, p> + F p^sharp ],

with H = sqrt(g^{-1}(p,p) + 1), written once in ``geometry.Geometry``; the
field-strength signs are fixed so that each geometry's orbit invariants
(holonomies, actions) reproduce the closed forms its coefficient
predictions are built on.  A trajectory's action S = L sqrt(E^2-1) + hol is
defined modulo 2 pi; forward-time primitive orbits always take the plus
sign on the length term.

This module integrates the flow and its tangent flow in one chart and
measures along them; the chart coefficients, connection form, closed
orbits (``closed_orbits``) and their start points (``orbit_state``) are
methods of each geometry's class, and a run takes its period from the
closed orbit it starts on.  ``cmd_dynamics`` and ``cmd_katok`` render the
``dynamics`` and ``katok`` commands' outputs, so no other command runs
this module.

Orientation labels: the deformed sphere carries two equatorial orbits,
"+" (increasing phi) and "-"; the unique closed orbits of the other
geometries circulate clockwise and are labelled "-".
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from . import ode
from .errors import IntegratorError, ValidationError, number, record
from .floats import TWO_PI
from .geometry import EnergyLevel, Geometry, branch_sign
# dynamics.GeometrySpec is read by perfbench/reference.py
from .geometry import GeometrySpec  # noqa: F401


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

@record
class FlowSegment:
    t0: float
    t1: float
    sol: ode.DenseSolution  # dense output over [t0, t1]


@record
class FlowResult:
    """An integrated trajectory with conservation monitors.

    ``energy_drift`` is max |H - E| over dense samples; for the deformed
    sphere ``first_integral_drift`` additionally monitors the conserved
    quantity of the integrable structure.  ``final`` is the end state
    (q1, q2, p1, p2) as a tuple of floats, and ``segments`` holds the one
    FlowSegment of the run, none for a run of time 0.
    """

    t_final: float
    final: tuple
    energy_drift: float
    first_integral_drift: float | None
    segments: tuple

    def sample(self, n: int) -> tuple:
        """n states at uniform times: (t, y[4, n])."""
        ts = np.linspace(0.0, self.t_final, n)
        (seg,) = self.segments
        return ts, seg.sol(ts)


def _goes_negative(b) -> bool:
    """Whether a polynomial on [0, 1], one per row of Bernstein coefficients
    b, goes negative: one with a negative end does, one with no negative
    coefficient does not, and the rest are halved (de Casteljau) until one
    or the other holds, or, after 60 halvings, touch 0 only to rounding."""
    for _ in range(60):
        rows = [b[b.min(axis=1) < 0.0]]
        if not len(rows[0]) or np.any(rows[0][:, [0, -1]] < 0.0):
            return len(rows[0]) > 0
        while rows[-1].shape[1] > 1:
            rows.append(0.5 * (rows[-1][:, :-1] + rows[-1][:, 1:]))
        b = np.vstack([np.stack([r[:, 0] for r in rows], axis=1),
                       np.stack([r[:, -1] for r in rows[::-1]], axis=1)])
    return False


def integrate(geo: Geometry, s0, E: float, t: float, tol: float = 1e-11) -> FlowResult:
    """Integrate the flow for time t from the state s0, any sequence
    (q1, q2, p1, p2), with adaptive 8th-order Runge-Kutta.

    Local tolerance ``tol`` drives both rtol and atol; energy drift (and,
    for the deformed sphere, first-integral drift) at 256 dense samples
    above 100*tol raises.  The run stays in one chart: on the two spheres a
    path that crosses a pole margin, theta = pole_margin or pi - pole_margin,
    anywhere in a step (seen by its theta polynomial's Bernstein hull)
    raises IntegratorError, while a path wholly inside a margin runs.
    """
    y0 = np.array(s0, dtype=float)
    geo.check_state(y0)
    H0 = float(geo.hamiltonian(y0))
    if abs(H0 - E) > 1e-10 * max(1.0, abs(E)):
        raise ValidationError(f"initial state off-shell: H={H0!r}, E={E!r}")
    P0 = geo.first_integral(y0)
    fdrift = None if P0 is None else 0.0
    if t == 0.0:
        return FlowResult(t_final=0.0, final=tuple(y0.tolist()), energy_drift=0.0,
                          first_integral_drift=fdrift, segments=())
    if t < 0.0:
        raise ValidationError("integration time must be nonnegative")

    t_end, y_end, sol, status = ode.dop853(lambda y: geo.flow_terms(y)[1], 0.0, y0, t, tol)
    if status < 0:
        raise IntegratorError(f"integration failed at t={t_end:.6g}: {ode.failure(status)}")

    margin = geo.pole_margin
    if margin is not None:
        theta = sol.bernstein(0)
        for edge, pole in ((margin, "0"), (math.pi - margin, "pi")):
            if _goes_negative(theta - edge if y0[0] >= edge else edge - theta):
                raise IntegratorError(f"path crossed theta = {edge:.6g}, the margin of the "
                                      f"pole theta = {pole}; the run keeps to one chart")
    ys = sol(np.linspace(0.0, t, 256))
    drift = float(np.max(np.abs(geo.hamiltonian(ys) - E)))
    if P0 is not None:
        fdrift = float(np.max(np.abs(geo.first_integral(ys) - P0)))
    budget = 100.0 * tol
    if drift > budget:
        raise IntegratorError(f"energy drift {drift:.3e} exceeds budget {budget:.3e}")
    if fdrift is not None and fdrift > budget:
        raise IntegratorError(f"first-integral drift {fdrift:.3e} exceeds budget {budget:.3e}")

    return FlowResult(t_final=t, final=tuple(y_end.tolist()), energy_drift=drift,
                      first_integral_drift=fdrift,
                      segments=(FlowSegment(t0=0.0, t1=float(t_end), sol=sol),))


# ---------------------------------------------------------------------------
# the canonical closed orbit
# ---------------------------------------------------------------------------

# also called by perfbench/reference.py
def canonical_orbit_state(geo: Geometry, E: float,
                          orientation: str = "+") -> tuple:
    """An on-shell initial state on the canonical closed orbit, with its period.

    Returns (state, T): the tuple (q1, q2, p1, p2) of ``orbit_state`` and T
    the orbit's period from ``closed_orbits``; a geometry with no closed
    orbit at E (the hyperbolic one at or above the Mane level) is refused.  Only the deformed sphere, with its two equatorial orbits,
    reads ``orientation``.
    """
    c = EnergyLevel.from_E(E).c
    orbits = geo.closed_orbits(E, c)
    if not orbits.has_orbits:
        raise ValidationError(orbits.note)
    return geo.orbit_state(c, orientation), orbits.pick(orientation).T


# ---------------------------------------------------------------------------
# holonomy quadrature along integrated paths
# ---------------------------------------------------------------------------

# The 16-point Gauss-Legendre rule on [-1, 1]: the doubles that
# numpy.polynomial.legendre.leggauss(16) gives, which are symmetric bit for
# bit.  The nodes are within 0.32 ulp of the true ones; leggauss renormalises
# the weights to sum to 2 exactly, which leaves them up to 63 ulp off.
_GL16_HALF = ((0.09501250983763744, 0.18945061045506864),
              (0.2816035507792589, 0.18260341504492364),
              (0.45801677765722737, 0.16915651939500265),
              (0.6178762444026438, 0.1495959888165767),
              (0.755404408355003, 0.12462897125553407),
              (0.8656312023878318, 0.0951585116824926),
              (0.9445750230732326, 0.062253523938647456),
              (0.9894009349916499, 0.027152459411754176))
_GL16_NODES = tuple(-x for x, _ in reversed(_GL16_HALF)) + tuple(x for x, _ in _GL16_HALF)
_GL16_WEIGHTS = tuple(w for _, w in reversed(_GL16_HALF)) + tuple(w for _, w in _GL16_HALF)


def numeric_holonomy(geo: Geometry, flow: FlowResult) -> float:
    """Line integral of the connection form along a closed integrated orbit.

    The connection form A(q) . dq/dt is the geometry's, in the
    trivialization its closed forms use (``connection``).  Composite
    16-point Gauss-Legendre quadrature over the dense solution; the value
    is canonically defined modulo 2 pi and returned unreduced.  Paths that
    fail to close within 1e-7 are rejected, as are sphere paths
    leaving the upper hemisphere (the sphere's trivialization is only the
    hemispheric one).
    """
    if not flow.segments:
        return 0.0
    (seg,) = flow.segments
    gap = geo.closure_gap(seg.sol(seg.t0), seg.sol(seg.t1))
    if gap > 1e-7:
        raise ValidationError(f"path is not closed: endpoint gap {gap:.3e} > 1.0e-07")

    nodes, weights = np.array(_GL16_NODES), np.array(_GL16_WEIGHTS)
    n_panels = max(64, int(math.ceil(8.0 * (seg.t1 - seg.t0))))
    edges = np.linspace(seg.t0, seg.t1, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    states = seg.sol((mid[:, None] + half[:, None] * nodes).ravel())
    vals = geo.connection(states).reshape(n_panels, len(nodes))
    # one dot per panel: a single vals @ weights product sums in another order
    return math.fsum(h * float(np.dot(weights, v)) for h, v in zip(half, vals))


# ---------------------------------------------------------------------------
# the tangent flow and the monodromy
# ---------------------------------------------------------------------------

def _variational(geo: Geometry):
    """The flow field of z = (y, M), M' = Df(y) M, as a list, on a list or an
    array z like ``Geometry.flow``.  f = n/H reads only s, p1 and p2, so
    d f_i = (d n_i - f_i dH)/H has three columns; Df M sums three products."""
    k = geo.s_index

    def field(z):
        p1, p2 = z[2], z[3]
        H, f, (a, b, F, da, db) = geo.flow_terms(z[:4])
        dF, dda, ddb = geo.coefficients(z[k], True)
        # d n_i/d(s, p1, p2) of n = H f = (a p1, b p2, F b p2, -F a p1) - G e_s,
        # G = (a' p1^2 + b' p2^2)/2 = H dH/ds; dH/dp = (f_1, f_2)
        dn = [(da * p1, a, 0.0), (db * p2, 0.0, b),
              ((dF * b + F * db) * p2, 0.0, F * b), (-(dF * a + F * da) * p1, -F * a, 0.0)]
        dG = ((dda * p1 * p1 + ddb * p2 * p2) / 2.0, da * p1, db * p2)
        dn[2 + k] = [n - g for n, g in zip(dn[2 + k], dG)]
        Hs = (da * p1 * p1 + db * p2 * p2) / (2.0 * H)
        Ms, M1, M2 = z[4 + 4 * k:8 + 4 * k], z[12:16], z[16:20]
        out = list(f)
        for fi, (ns, n1, n2) in zip(f, dn):
            js, j1, j2 = (ns - fi * Hs) / H, (n1 - fi * f[0]) / H, (n2 - fi * f[1]) / H
            out += [js * u + j1 * v + j2 * w for u, v, w in zip(Ms, M1, M2)]
        return out
    return field


def tangent_flow(geo: Geometry, state, t: float, tol: float = 1e-11) -> np.ndarray:
    """The 4x4 state-transition matrix M of the flow over time t from state,
    any sequence (q1, q2, p1, p2), M(0) = I."""
    z0 = np.concatenate([np.array(state, dtype=float), np.eye(4).ravel()])
    _, z, _, status = ode.dop853(_variational(geo), 0.0, z0, t, tol, dense_output=False)
    if status < 0:
        raise IntegratorError(f"variational integration failed: {ode.failure(status)}")
    return z[4:].reshape(4, 4)


def katok_monodromy_numeric(geo: Geometry, E: float, orientation: str,
                            tol: float = 1e-11) -> np.ndarray:
    """Transverse monodromy of an equator of the deformed sphere ``katok.Katok``:
    the one-period ``tangent_flow`` restricted to the invariant (Theta, P_theta)
    plane."""
    state, T = canonical_orbit_state(geo, E, orientation)
    return tangent_flow(geo, state, T, tol)[np.ix_([0, 2], [0, 2])]


# ---------------------------------------------------------------------------
# phase-space volumes
# ---------------------------------------------------------------------------

@record
class MCVolume:
    """Monte Carlo cross-check of the Liouville volume (reported, not asserted)."""

    estimate: float | None
    stderr: float | None
    closed_form: float
    rel_dev: float | None
    note: str | None = None


def mc_liouville_volume(geo: Geometry, E: float, n_samples: int = 200_000,
                        seed: int = 0) -> MCVolume:
    """Estimate Vol(X_E) = 2 pi E * integral sqrt(det g) by seeded Monte Carlo.

    The hyperbolic surface has no parameterized fundamental domain here;
    its closed form (Gauss-Bonnet) is reported without an estimate.
    """
    closed = geo.liouville_volume(E)
    if geo.mc_area is None:
        return MCVolume(estimate=None, stderr=None, closed_form=closed,
                        rel_dev=None,
                        note="fundamental domain not parameterized; closed form only")
    rng = []

    def uniform(low, high, n):  # the generator, and numpy.random, on the first draw
        if not rng:
            rng.append(np.random.default_rng(seed))
        return rng[0].uniform(low, high, n)
    vals, cell = geo.mc_area(uniform, n_samples)
    area_est = cell * float(np.mean(vals))
    stderr = cell * float(np.std(vals, ddof=1) / math.sqrt(n_samples))
    est = TWO_PI * E * area_est
    return MCVolume(estimate=est, stderr=TWO_PI * E * stderr, closed_form=closed,
                    rel_dev=abs(est - closed) / closed)


def circle_distance(a: float, b: float) -> float:
    """Distance between angles modulo 2 pi."""
    return abs(math.remainder(a - b, TWO_PI))


# ---------------------------------------------------------------------------
# the dynamics and katok commands
# ---------------------------------------------------------------------------

# caps on a dynamics run, checked before anything is allocated or integrated
_MAX_ORBIT_SAMPLES = 1_000_000
_MAX_MC_SAMPLES = 10_000_000


# the orbit table printer: each value is one 40-byte cell, laid out as
#   0: sign, 1-5: "0." and the zeros before the digits of an |x| below 1,
#   6-38: digit j at byte 6 + 2j and the slot for a point after it at 7 + 2j,
#   39: the separator, in the slot after the last digit;
# what a value does not use is the pad byte, which no "%.17g" output holds
_PAD, _CELL = ord(" "), 40
_BLOCK_VALUES = 1 << 12  # values per block, so the temporaries stay small
_POW10 = 10.0 ** np.arange(23)  # exact doubles
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter


def _two_prod(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker, Numer. Math.
    18 (1971)), elementwise, for products far from overflow and underflow."""
    def split(x):
        c = _SPLIT * x
        hi = c - (c - x)
        return hi, x - hi
    p = a * b
    (ah, al), (bh, bl) = split(a), split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _digits17(a):
    """(X, n) for 1e-4 <= a < 1e17: a rounded to 17 significant digits, half
    to even, is n 10^(X-16) with 10^16 <= n < 10^17."""
    def digits(a, X):
        hi, lo = _two_prod(a, _POW10[16 - X])  # exact: 0 <= 16 - X <= 21
        # hi >= 1e16 > 2^53 is an even integer, so rounding hi + lo half to
        # even is rounding lo half to even
        return hi.astype(np.int64) + np.rint(lo).astype(np.int64)

    X = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int64)
    n = digits(a, X)
    wrong = n < 10**16  # log10 rounded up across a power of ten
    X[wrong] -= 1
    n[wrong] = digits(a[wrong], X[wrong])
    wrong = n >= 10**17  # log10 rounded down, or the digits rounded up to 10^17
    X[wrong] += 1
    n[wrong] = digits(a[wrong], X[wrong])
    return X, n


@functools.cache
def _cell_tables():
    """The tables of the printer: the cell of each (sign, X, last kept digit)
    with "0" for each kept digit, the digits of each 4-digit chunk spread to
    bytes 0, 2, 4, 6 of a little-endian word, and each chunk's trailing zeros."""
    X, keep, col = np.ix_(range(-4, 17), range(17), range(_CELL))
    j, odd = np.divmod(col - 6, 2)  # the digit at a digit byte, or at its slot
    body = col >= 6
    cells = np.full((2, 21, 17, _CELL), _PAD, np.uint8)
    np.copyto(cells, np.uint8(ord("0")), where=(X < 0) & ((col == 1) | (col >= 3) & (col <= 1 - X))
              | body & (odd == 0) & (j <= keep))
    np.copyto(cells, np.uint8(ord(".")), where=(X < 0) & (col == 2)
              | body & (odd == 1) & (j == X) & (X < keep))
    cells[1, ..., 0] = ord("-")
    # the chunk 1000 a + 100 b + 10 c + d at [a, b, c, d]
    a, b, c, d = np.ix_(*[np.arange(10, dtype="<u8")] * 4)
    spread = a | b << 16 | c << 32 | d << 48
    a, b, c, d = (digit == 0 for digit in (a, b, c, d))
    zeros = (d * (1 + c * (1 + b * (1 + a)))).astype(np.int8)
    return cells.reshape(-1, _CELL).view("<u8"), spread.ravel(), zeros.ravel()


def _cells(block, seps):
    """The "%.17g" text of a 2-D block of floats, with seps[i] after a value
    in column i: each cell is a template plus its digits, and the pad goes."""
    cells_of, spread, zeros = _cell_tables()
    x = block.ravel()
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e17)  # where "%.17g" writes no exponent
    X, n = _digits17(np.where(fixed, a, 1.0))
    # n = d0 10^16 + the 4-digit chunks c0 10^12 + c1 10^8 + c2 10^4 + c3
    hi8 = n // 10**8
    d0 = hi8 // 10**8
    chunks = np.stack([hi8 - d0 * 10**8, n - hi8 * 10**8])
    chunks = np.stack([chunks // 10**4, chunks % 10**4], axis=1).reshape(4, -1)
    tz = zeros[chunks[3]]  # n's trailing zeros: a chunk counts if all after it are 0
    for k in (2, 1, 0):
        tz += (tz == 4 * (3 - k)) * zeros[chunks[k]]
    keep = np.maximum(16 - tz, X)  # the last digit printed
    words = np.take(cells_of, ((x < 0) * 21 + X + 4) * 17 + keep, axis=0)
    digits = np.empty_like(words)
    digits[:, 0] = d0 << 48
    digits[:, 1:] = np.take(spread, chunks.T)
    words += digits
    out = words.view(np.uint8)
    out.reshape(*block.shape, _CELL)[..., -1] = seps
    rest = np.flatnonzero(~fixed)  # 0, inf, nan and the values with an exponent
    text = ("%39.17g" * len(rest) % tuple(x[rest].tolist())).encode()
    out[rest, :-1] = np.frombuffer(text, np.uint8).reshape(-1, _CELL - 1)
    return out.tobytes().translate(None, bytes([_PAD])).decode()


def _float_csv(header, columns) -> str:
    """A table of float64 columns, each value as "%.17g" (``cli._fmt``'s float
    format) writes it, in row blocks of at most ``_BLOCK_VALUES`` values.

    Where "%.17g" writes no exponent, 1e-4 <= |x| < 1e17 with 10^X <= |x| <
    10^(X+1), Dekker's exact product (Numer. Math. 18 (1971)) splits
    |x| 10^(16-X) into hi + lo with no rounding error.  As hi >= 1e16 > 2^53
    is an even integer, hi + rint(lo) is that product rounded half to even,
    the 17 digits "%.17g" prints; every other value is printed by "%.17g"
    itself."""
    table = np.column_stack(columns)
    seps = np.full(len(header), ord(","), np.uint8)
    seps[-1] = ord("\n")
    step = max(1, _BLOCK_VALUES // len(header))
    return ",".join(header) + "\n" + "".join(
        _cells(table[i:i + step], seps) for i in range(0, len(table), step))


def cmd_dynamics(cfg):
    """The ``dynamics`` command: the closed-orbit invariants at E, one run of
    the flow from the canonical orbit with its drifts, holonomy and samples,
    and the Liouville volume."""
    from .cli import _MAX_PERIODS, _energy, _geometry, _tolerances
    geo = _geometry(cfg)
    level = _energy(cfg, geo)
    tol = _tolerances(cfg)
    orientation = cfg.get("orientation", "+")
    branch_sign(orientation)  # refuses all but "+" and "-"
    t_periods = number(cfg.get("t_periods", 1.0), "t_periods", positive=True,
                       cap=_MAX_PERIODS)
    n_samples = number(cfg.get("orbit_samples", 1024), "orbit_samples", integer=True,
                       cap=_MAX_ORBIT_SAMPLES)
    mc_samples = number(cfg.get("mc_samples", 0), "mc_samples", integer=True,
                        cap=_MAX_MC_SAMPLES)
    if mc_samples == 1:  # a standard error needs two points
        raise ValidationError("mc_samples must be 0 or at least 2, got 1")
    seed = number(cfg.get("seed", 0), "seed", integer=True)

    orbit_set = geo.closed_orbits(level.E, level.c)
    report = {
        "geometry": geo.kind,
        "E": level.E,
        "note": orbit_set.note,
        "orbits": [{
            "orientation": o.orientation, "L": o.L, "T": o.T, "Tsharp": o.T,
            "S": o.S, "hol": o.hol, "maslov": o.maslov, "maslov_note": o.maslov_note,
            "detIminusP": o.detIminusP,
        } for o in orbit_set.orbits],
    }
    outputs = {}
    if orbit_set.has_orbits:
        inv = orbit_set.pick(orientation)
        flow = integrate(geo, geo.orbit_state(level.c, orientation), level.E,
                         t_periods * inv.T, tol["ode_tol"])
        hol_num = numeric_holonomy(geo, flow) if t_periods == 1.0 else None
        numeric = {
            "orientation": inv.orientation,
            "period": inv.T,
            "energy_drift": flow.energy_drift,
            "first_integral_drift": flow.first_integral_drift,
            "numeric_holonomy": hol_num,
        }
        if hol_num is not None:
            numeric["action_identity_residual"] = circle_distance(
                inv.S, inv.L * level.c + hol_num)
        report["numeric"] = numeric
        if n_samples:  # orbit_samples 0 writes no table
            ts, ys = flow.sample(n_samples)
            columns = [ts, *ys, geo.hamiltonian(ys)]
            header = ["t", "q1", "q2", "p1", "p2", "H"]
            P = geo.first_integral(ys)
            if P is not None:
                columns.append(P)
                header.append("P")
            outputs["orbit.csv"] = _float_csv(header, columns)
    if mc_samples > 0:
        mc = mc_liouville_volume(geo, level.E, mc_samples, seed)
        report["liouville_volume"] = {
            "closed_form": mc.closed_form, "mc_estimate": mc.estimate,
            "mc_stderr": mc.stderr, "rel_dev": mc.rel_dev, "note": mc.note,
        }
    else:
        report["liouville_volume"] = {
            "closed_form": geo.liouville_volume(level.E)}

    outputs["invariants.json"] = json.dumps(report, indent=2) + "\n"
    return 0, outputs


def _det_i_minus(m) -> float:
    """det(I - M) of a 2x2 block on Python floats."""
    (a, b), (c, d) = m.tolist()
    return (1.0 - a) * (1.0 - d) - b * c


def cmd_katok(cfg):
    """The ``katok`` command: the isolated-orbit display's terms against the
    general nondegenerate-orbit formula, and the closed-form return maps
    against the integrated monodromy."""
    from .asymptotics import general_c0_nondegenerate
    from .cli import _MAX_PERIODS, _N_list, _csv, _energy, _geometry, _tolerances
    geo = _geometry(cfg)
    if geo.kind != "katok":
        raise ValidationError("the katok command needs geometry kind 'katok'")
    level = _energy(cfg, geo)
    tol = _tolerances(cfg)
    N, *more = _N_list(cfg, level) if "N" in cfg else [1]
    if more:
        raise ValidationError(f"the katok command takes one N ({{value}}), got {len(more) + 1}")
    k_list = cfg.get("k_list", [1, 2, 3, -1, -2, -3])
    if not isinstance(k_list, list) or not k_list or 0 in k_list:
        raise ValidationError("k_list must be a nonempty list of nonzero integers")
    k_list = [number(k, "k_list entry", integer=True, signed=True, cap=_MAX_PERIODS)
              for k in k_list]

    for k in k_list:  # refused before the monodromy runs, in the assembly's order
        for branch in (1, -1):
            geo.check_resonance(k, branch, tol["resonance_margin"])

    monodromy, analytic = {}, {}
    max_mono_dev = 0.0
    for label, branch in (("+", 1), ("-", -1)):
        ana = analytic[label] = geo.return_map(level.E, branch)
        num = katok_monodromy_numeric(geo, level.E, label, tol["ode_tol"])
        dev = float(np.max(np.abs(num - ana.matrix)))
        max_mono_dev = max(max_mono_dev, dev)
        monodromy[label] = {
            "analytic": ana.matrix.tolist(), "numeric": num.tolist(),
            "max_entry_dev": dev,
            "alpha": ana.alpha, "a": ana.a,
            "det_analytic": ana.det_i_minus_p(),
            "det_numeric": _det_i_minus(num),
        }

    inv = {o.orientation: o for o in geo.closed_orbits(level.E, level.c).orbits}
    maslov_rows = []
    assembly_rows = []
    max_assembly_dev = 0.0
    for k in k_list:
        for label, branch in (("+", +1), ("-", -1)):
            closed = geo.term(N, k, branch, 1.0, tol["resonance_margin"])
            m, kappa = geo.maslov(k, branch), round(geo.rotation(k, branch))
            maslov_rows.append({"k": k, "branch": label, "m": m,
                                "kappa": kappa, "sgn_r": m - 2 * kappa})
            assembled = general_c0_nondegenerate(
                Tsharp=inv[label].T, m=m, S=k * inv[label].S,
                detIminusP=analytic[label].det_i_minus_p(k), Tgamma=k * inv[label].T,
                phi_hat_at_Tgamma=1.0, N=N,
                resonance_margin=tol["resonance_margin"])
            dev = abs(closed - assembled) / abs(closed)
            max_assembly_dev = max(max_assembly_dev, dev)
            assembly_rows.append({
                "k": k, "branch": label,
                "re_closed": closed.real, "im_closed": closed.imag,
                "re_assembled": assembled.real, "im_assembled": assembled.imag,
                "rel_dev": dev,
            })

    passed = max_assembly_dev < 1e-12 and max_mono_dev < 1e-6
    report = {
        "eps": geo.eps, "E": level.E, "N": N,
        "monodromy": monodromy,
        "maslov": maslov_rows,
        "assembly": assembly_rows,
        "max_monodromy_dev": max_mono_dev,
        "max_assembly_rel_dev": max_assembly_dev,
        "passed": passed,
    }
    # one row per (k, branch): its maslov row, then its assembly row past k, branch
    header = [*maslov_rows[0], *list(assembly_rows[0])[2:]]
    rows = [[*m.values(), *list(a.values())[2:]] for m, a in zip(maslov_rows, assembly_rows)]
    rows += [[key, *[""] * 8, report[key]]
             for key in ("max_monodromy_dev", "max_assembly_rel_dev")]
    return (0 if passed else 1), {"katok_report.csv": _csv(header, rows),
                                  "katok_report.json": json.dumps(report, indent=2) + "\n"}

