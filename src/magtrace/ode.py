"""Adaptive DOP853 integration with dense output.

The explicit Runge-Kutta method of order 8(5,3) of Hairer, Norsett and
Wanner (Solving Ordinary Differential Equations I, Sec. II.5), run the way
SciPy's ``solve_ivp(method="DOP853")`` runs it: the same tableau, initial
step, two-norm error estimate, step control and degree-7 dense output,
operation for operation.  Both take the same steps and return the same
floats.  Integration runs forward in time only, with ``rtol = atol = tol``,
both at least 100 eps: SciPy floors rtol there, and a far smaller atol
overflows the error norm.  Imports only numpy and ``math``.  The step-size
bookkeeping and each stage state y + h sum_j a_sj k_j run on Python floats,
the same IEEE operations numpy would perform; numpy runs only the stage
sums sum_j a_sj k_j (``np.dot``, as SciPy forms them), the error norm and
the dense output.  The flow field is autonomous: a function of a list of
Python floats that returns a sequence of floats.
"""

from __future__ import annotations

import math

import numpy as np

EPS = np.finfo(float).eps
STEP_COLLAPSE = "Required step size is less than spacing between numbers."
# The most steps a run may accept, refused as it passes them since no run's
# step count is known before it runs: 2^19 rows of dense output, 0.36 GB.
MAX_STEPS = 1 << 19
# step control: safety factor, largest cut and largest growth of a step, and
# the exponent -1/(order of the error estimator + 1)
SAFETY, MIN_FACTOR, MAX_FACTOR, ERROR_EXPONENT = 0.9, 0.2, 10, -1 / 8
N_STAGES = 12

# the tableau: stages 0-11 make a step, stage 12 is f at its end, 13-15
# feed the dense output; the field is autonomous, so the nodes c are unused
_A_ROWS = (
    [0.05260015195876773], [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0, 0.08876275643042054],
    [0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
    [0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
     0.008273789163814023],
    [0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627],
    [-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636],
    [0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
     0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259],
    [0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298],
    [0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325],
    [-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599, 4.06898981839711,
     0.3567271874552811, 0, 0, 0, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987],
)
A = np.zeros((16, 16))
for _i, _row in enumerate(_A_ROWS, start=1):
    A[_i, :len(_row)] = _row
B = A[N_STAGES, :N_STAGES]
# the rows A[s, :s] the stage loops read
_STAGE_ROWS = [A[s, :s] for s in range(16)]
# the order-5 and order-3 error estimators
E5 = np.array([0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
               1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
               -0.022355307863886294, 0])
E3 = np.append(B, 0.0)
E3[[0, 8, 11]] -= [0.2440944881889764, 0.7338466882816118, 0.022058823529411766]
# dense output coefficients of the powers 3-6; the first three come from the step
D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564],
])


def _horner(x, y_old, F):
    """The degree-7 dense output at step fraction x, in SciPy's operation
    order: one state for a one-element x, one row per row of an (m, 1) x,
    with y_old and F gathered to match."""
    y = np.zeros(np.shape(y_old))
    one_minus_x = 1 - x
    for i in range(7):
        y += F[..., 6 - i, :]
        y *= x if i % 2 == 0 else one_minus_x
    y += y_old
    return y


class DenseSolution:
    """The dense output of one run.  Step k's row ``interpolants[k] = (h,
    y_old, F)`` covers [ts[k], ts[k+1]].  A scalar time gives a state, an
    array of times one state per column, both from the stacked rows."""

    def __init__(self, ts, interpolants):
        self.ts = np.array(ts)
        self.interpolants = interpolants
        self._h, self._y_old, self._F = (np.array([row[i] for row in interpolants])
                                         for i in range(3))

    def __call__(self, t):
        t = np.asarray(t)
        k = np.clip(np.searchsorted(self.ts, t) - 1, 0, len(self.interpolants) - 1)
        x = (t - self.ts[k]) / self._h[k]
        return _horner(x[..., None], self._y_old[k], self._F[k]).T

    def bernstein(self, i):
        """Component i on each step in the degree-7 Bernstein basis of the step
        fraction x, one row per step, built as ``_horner`` builds a value: a
        row's hull bounds the step's values, its ends are those at x = 0, 1."""
        F, b = self._F[:, :, i], np.zeros((len(self._F), 1))
        for j in range(7):
            b, d, zero = b + F[:, 6 - j, None], b.shape[1], np.zeros((len(F), 1))
            w = np.arange(1, d + 1) / d
            b = np.hstack([zero, b * w] if j % 2 == 0 else [b * w[::-1], zero])
        return b + self._y_old[:, i, None]


def _l2(x):
    """np.linalg.norm of a 1-D real array, as numpy computes it: the square
    root of x.dot(x), a numpy scalar."""
    return np.sqrt(x.dot(x))


def _norm(x):
    return _l2(x) / x.size ** 0.5


def _evaluate(field, y):
    """field at the state y, a list of Python floats, on which its formulas
    use ``math``.  Where float arithmetic raises (a division by zero, an
    overflow or a math-domain error), field runs on the array of y instead,
    so numpy gives its inf or nan and its warning, as on SciPy's arrays."""
    try:
        return field(y)
    except (ZeroDivisionError, OverflowError, ValueError):
        return field(np.array(y))


def _initial_step(field, y0, f0, length, rtol, atol):
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _norm(y0 / scale), _norm(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, length)
    f1 = np.array(_evaluate(field, (y0 + h0 * f0).tolist()))
    d2 = _norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -ERROR_EXPONENT
    return min(100 * h0, h1, length)


def _stages(field, y, h, K_ext, KT, stages):
    """Fill K_ext[s] for s in stages; KT[s] is the view K_ext[:s].T.  Each
    state y + d h is formed on floats, d the stage sum numpy forms."""
    y = y.tolist()
    for s in stages:
        d = np.dot(KT[s], _STAGE_ROWS[s]).tolist()
        K_ext[s] = _evaluate(field, [a + b * h for a, b in zip(y, d)])


def _rk_step(field, y, f, h, K_ext, KT):
    """One step of stages 0-12 into K_ext."""
    K_ext[0] = f
    _stages(field, y, h, K_ext, KT, range(1, N_STAGES))
    y_new = y + h * np.dot(KT[N_STAGES], B)
    f_new = np.array(_evaluate(field, y_new.tolist()))
    K_ext[N_STAGES] = f_new
    return y_new, f_new


def _interpolant(field, y_old, y, f, h, K_ext, KT):
    """The step's dense-output row (h, y_old, F), after stages 13-15."""
    _stages(field, y_old, h, K_ext, KT, range(N_STAGES + 1, 16))
    F = np.empty((7, len(y)))
    f_old = K_ext[0]
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f + f_old)
    F[3:] = h * np.dot(D, K_ext)
    return h, y_old, F


def dop853(field, t0, y0, t_bound, tol, dense_output=True):
    """Integrate y' = field(y) from t0 towards t_bound > t0.

    Returns (t, y, sol, status): the time and state where the run stopped,
    its DenseSolution (None without ``dense_output`` or past the budget)
    and a status: 0 at t_bound, -1 when the step size collapsed and -2 after
    MAX_STEPS steps short of it (t and y are then those of the last step).
    """
    y = np.asarray(y0, dtype=float)
    rtol = atol = max(tol, 100 * EPS)
    t, f = t0, np.array(_evaluate(field, y.tolist()))
    h_abs = float(_initial_step(field, y, f, abs(t_bound - t0), rtol, atol))
    K_ext = np.empty((16, len(y)))
    KT = [K_ext[:s].T for s in range(17)]
    ts, interpolants = [t0], []
    for _ in range(MAX_STEPS):
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return t, y, DenseSolution(ts, interpolants) if dense_output else None, -1
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new = _rk_step(field, y, f, h, K_ext, KT)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            # e5, e3 and the quotient stay numpy scalars: where they overflow
            # or divide 0 by 0 they warn and give inf or nan, which rejects
            # the step, as in SciPy, where Python floats would raise
            e5 = _l2(np.dot(KT[N_STAGES + 1], E5) / scale) ** 2
            e3 = _l2(np.dot(KT[N_STAGES + 1], E3) / scale) ** 2
            error_norm = float(0.0 if e5 == 0 and e3 == 0
                               else h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * len(scale)))
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0
                          else min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        if dense_output:
            interpolants.append(_interpolant(field, y_old, y, f, h, K_ext, KT))
        ts.append(t)
        if t - t_bound >= 0:
            return t, y, DenseSolution(ts, interpolants) if dense_output else None, 0
    return t, y, None, -2


def failure(status: int) -> str:
    """Why a run with a negative status stopped short of t_bound."""
    return STEP_COLLAPSE if status == -1 else f"over the budget of {MAX_STEPS:,} accepted steps"
