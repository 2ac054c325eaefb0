"""Eigenvalue windows on the closed-form ladders of the magnetic Laplacians.

The three exactly solvable geometries are closed surfaces of constant
curvature K and area A in a constant field b, each at the quantized field
its closed-form spectrum requires; one Landau ladder serves all three
(``geometry.ConstantCurvature``).  With c = A/2pi,

    nu_{N,j} = b N (2j+1) + K j(j+1),    mult_{N,j} = c (b N + K (j + 1/2)):

    geometry                   b          K         A                c
    flat torus                 2 pi       0         1                1/(2 pi)
    round sphere, radius R     1/(2R^2)   1/R^2     4 pi R^2         2 R^2
    hyperbolic, genus g        1/R^2      -1/R^2    4 pi (g-1) R^2   2 (g-1) R^2

On the hyperbolic surface only the integrable branch 0 <= j < N - 1/2
belongs to the ladder.

Throughout, lambda_{N,j} = sqrt(nu_{N,j} + N^2) and window queries are
made around E*N.  ``enumerate_window`` certifies everything it omits:
the returned tail bound dominates the absolute contribution of all
eigenvalues outside the window (including, for the hyperbolic surface,
a Weyl-type majorant for the non-integrable part of the spectrum, whose
lambdas all sit above the Mane level and contribute O(N^-infinity)).

The tails are bounded in closed form, at a cost independent of N, from the
exact measure identity  mult(j) dj = c lam dlam  along each ladder (that is,
dnu/dj = 2 mult/c).  One rule serves both sides of a window on every
ladder: a rung's envelope is at most its mean over the unit step towards the
window, so each tail compares with the integral of the envelope against
c lam dlam, widened by the step of mult away from E N.

One formula, ``model.ladder_at(N, E, sqrt)``, forms each rung's nu, lam,
mult and offset x = lam - E N.  A window builds that map once on ``math``
for its two tails, which take mult's step from the ladder's integer c K
rather than from a neighbour rung.  Its rungs are built on that map when
its index block holds at most ``floats.FLOAT_BLOCK`` of them, as a
gaussian's 4 to 35 do (s = 1), and on a second map with numpy's sqrt
otherwise, as a bump's 700 to 1200 are; so an empty block loads no numpy.
"""

from __future__ import annotations

import bisect
import math

from .errors import ValidationError, check_tensor_power, record
from .floats import block, each, xp
from .geometry import ConstantCurvature, EnergyLevel
from .testfn import TestFunction

# Largest ladder index range a window query may touch, checked before any
# rung is built: rungs 0..j_last, or j_first..N-1 on the finite hyperbolic
# ladder.  Only the window's own rungs are built and each tail bound costs
# O(1), so the cap bounds memory only as far as a window's own block may
# span all of it: a gaussian of s = 1395.856 on the torus at E=2, N=1 keeps
# every rung of 0..9,999,999 and peaks at about 564 MB (about ten arrays of
# 1e7 doubles).  The cap also keeps queries where the offsets lam - E N,
# rounded to about eps E N, have been checked, until they are formed in
# compensated arithmetic.  A hyperbolic ladder has N rungs, so N <= 1e7
# always fits; a gaussian s=1 window at N = 1e7 reaches index 2.4e6 on the
# torus at E=2.
MAX_WINDOW_RUNGS = 10_000_000


# ---------------------------------------------------------------------------
# window enumeration with certified truncation
# ---------------------------------------------------------------------------

@record
class Window:
    """All eigenvalues with |lam - E N| <= radius, plus an omitted-tail bound.

    ``tail_bound`` dominates sum_{omitted} mult * |phi(lam - E N)| for the
    test function the window was built for.  The columns are lists of
    Python numbers for a window built from at most ``floats.FLOAT_BLOCK``
    rungs, numpy arrays for a larger one.
    """

    N: int
    E: float
    radius: float
    j: list
    nu: list
    lam: list
    mult: list
    x: list  # the offsets lam - E N
    tail_bound: float


def _tail_bound(model, N, E, env, J, up, rung):
    """Certified bound on sum mult_j env(|x_j|) over rung J and every rung above
    it (``up``) or below it, for a rung J on that side of E N, read from the
    window's ``rung`` map on floats (``model.ladder_at``).

    Away from E N the envelope falls, so a rung's env is at most its mean over
    the unit step towards x_J, and there mult, affine in j, exceeds the rung's
    own value by at most d = max(0, +-c K), the step of mult away from E N
    (0 on the torus, c K = 2 above E N on the sphere, 2g - 2 below it on the
    hyperbolic surface).  Where d > 0, mult >= mult_J on the tail, so with
    mult dj = c lam dlam the tail is at most

        t_J + (1 + d/mult_J) c M,   t_J = mult_J env(|x_J|),

    with M = int_{x_J}^inf (x + E N) env(x) dx above E N and, as lam <= lam_J
    below it, M = lam_J int_{|x_J|}^inf env(u) du.
    """
    j_cap = model.j_cap(N)
    if J < 0 or (up and j_cap is not None and J > j_cap):
        return 0.0
    nu, lam, mult, x = rung(J)
    a = abs(x)
    d = max(0, model.euler if up else -model.euler)
    moment = env.halfline_moment(a, E * N, 1.0) if up else env.halfline_moment(a, lam, 0.0)
    return mult * float(env(a)) + (1.0 + d / mult) * (model.measure_coeff * moment)


def _window_indices(model, N, E, radius):
    """Index block [j_first, j_last] covering |lam - E N| <= radius.

    Raises ValidationError, before anything is allocated, when the block's
    bounds are not finite or when the index range the query touches (rungs
    0..j_last, or j_first..N-1 on the hyperbolic ladder) spans more than
    ``MAX_WINDOW_RUNGS`` rungs.
    """
    def where():  # formatted only to refuse
        return f"the window E*N +- {radius:.6g} at N={N}, E={E:.6g}"

    lam_lo = E * N - radius
    lam_hi = E * N + radius
    j_cap = model.j_cap(N)
    if lam_hi <= 0.0:
        return 0, -1  # empty window
    lo_real = model.j_of_lam(N, max(lam_lo, 0.0)) if lam_lo > 0 else 0.0
    hi_real = model.j_of_lam(N, lam_hi)
    if not (math.isfinite(lo_real) and math.isfinite(hi_real)):
        raise ValidationError(f"{where()} has no finite ladder index bounds")
    j_first = max(0, int(math.floor(lo_real)) - 2)
    j_last = int(math.ceil(hi_real)) + 2
    if j_cap is not None:
        j_last = min(j_last, j_cap)
    rungs = max(j_last + 1, 0 if j_cap is None else j_cap - j_first + 1)
    if rungs > MAX_WINDOW_RUNGS:
        raise ValidationError(f"{where()} needs {rungs:.3g} ladder rungs, over the "
                              f"budget of {MAX_WINDOW_RUNGS:.3g}")
    return j_first, j_last


def enumerate_window(model, N: int, level: EnergyLevel, f: TestFunction,
                     tail_tol: float) -> Window:
    """Eigenvalues with |lam - E N| <= f.radius(tail_tol), tails certified.

    The returned ``tail_bound`` is a rigorous upper bound (through the test
    function's decay envelope) on the omitted eigenvalues' total
    contribution sum mult * |phi(lam - E N)|.  Only the window's rungs are
    built, and its rung map once on floats: the rungs below it and those
    above it each go to one ``_tail_bound``, at a cost that does not grow
    with N.
    """
    if not isinstance(model, ConstantCurvature):
        raise ValidationError(f"geometry {model.kind} has no closed-form spectrum; spectral "
                              "commands support torus, sphere and hyperbolic geometries only")
    check_tensor_power(N)
    E = level.E
    model.check_energy(E)
    radius = f.radius(tail_tol)
    env = f.time_env
    j_first, j_last = _window_indices(model, N, E, radius)

    rung = model.ladder_at(N, E, math.sqrt)  # the tails' and a float block's
    j = block(j_first, j_last)
    rows = rung if type(j) is list else model.ladder_at(N, E, xp(j).sqrt)
    nu, lam, mult, x = each(rows, j, width=4)  # x ascends, as lam does along a ladder
    reach = radius * (1.0 + 1e-15)
    sel = slice(bisect.bisect_left(x, -reach), bisect.bisect_right(x, reach))
    if sel.start == sel.stop:
        # empty window: rungs with lam < E N go to the lower tail, the rest
        # (lam > E N, since none is kept) to the upper one
        below = bisect.bisect_left(x, 0.0)
        sel = slice(below, below)
    first_kept, last_kept = j_first + sel.start, j_first + sel.stop - 1

    tail = (_tail_bound(model, N, E, env, first_kept - 1, False, rung)
            + _tail_bound(model, N, E, env, last_kept + 1, True, rung)
            + model.chaotic_tail(N, E, env))

    return Window(N=int(N), E=E, radius=radius, j=j[sel], nu=nu[sel], lam=lam[sel],
                  mult=mult[sel], x=x[sel], tail_bound=float(tail))
