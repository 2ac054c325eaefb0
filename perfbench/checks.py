"""Output checks: each command's files against the oracles.

``check(cmd, code, out_dir, rng)`` returns a list of problems, empty when
every check passes.  A problem that starts with ``GATE`` says that the
program's own residual gate failed (exit 1); every other problem means an
output disagrees with an oracle or a stated property.  ``rng`` picks the
points the oracles sample.
"""

from __future__ import annotations

import csv
import json
import math
import os

import oracles
from oracles import EPS_DOUBLE

GATE = "GATE"
SLOPE_GATE = (-1.6, -0.6)


def _read_csv(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _grid(spec: dict) -> list:
    if "value" in spec:
        return [spec["value"]]
    if "list" in spec:
        return list(spec["list"])
    return list(range(spec["start"], spec["stop"] + 1, spec["step"]))


def _complex(row: dict, name: str) -> complex:
    return complex(float(row["re_" + name]), float(row["im_" + name]))


def _sample(rng, rows: list, k: int) -> list:
    return rows if len(rows) <= k else rng.sample(rows, k)


def _check_grid(rows: list, cfg: dict, problems: list) -> None:
    got = [int(r["N"]) for r in rows]
    if got != _grid(cfg["N"]):
        problems.append(f"N column {got} differs from the config grid")


# ---------------------------------------------------------------------------
# spectral commands
# ---------------------------------------------------------------------------

def _c0_problem(N, c0, cfg, hat, omit_below, k_tail=0.0):
    terms = oracles.c0_terms(cfg["geometry"], N, cfg["E"], hat)
    dev, allow = oracles.c0_check(c0, terms, omit_below)
    if dev > allow + k_tail:
        return f"N={N}: c0 {c0} off the k-sum display by {dev:.3e} > {allow + k_tail:.3e}"
    return None


def check_residual(cmd, code, out_dir, rng) -> list:
    cfg = cmd.config
    geo, E = cfg["geometry"], cfg["E"]
    s = cfg["test_function"]["s"]
    tail_tol = cfg["tolerances"]["tail_tol"]
    radius = s * math.sqrt(2.0 * math.log(1.0 / tail_tol))
    table = _read_csv(os.path.join(out_dir, "residual.csv"))
    rows, trailer = table[:-1], table[-1]
    problems = []
    _check_grid(rows, cfg, problems)
    for row in _sample(rng, rows, 3):
        N = int(row["N"])
        c0, c1, r = _complex(row, "c0"), _complex(row, "c1"), _complex(row, "r")
        y_exact, abs_sum, omissible = oracles.gaussian_trace(geo, N, E, s, radius)
        y_prog = r + c0 * N + c1
        allow = (omissible + EPS_DOUBLE * E * N * abs_sum
                 + 8.0 * EPS_DOUBLE * (abs(r) + abs(c0) * N + abs(c1) + abs(y_exact)))
        if abs(y_prog - y_exact) > allow:
            problems.append(f"N={N}: Y = r + c0 N + c1 = {y_prog} is {abs(y_prog - y_exact):.3e} "
                            f"from the 40-digit ladder sum {y_exact!r} (allowed {allow:.3e})")
        msg = _c0_problem(N, c0, cfg, oracles.gaussian_hat(s),
                          omit_below=2.0 * s * math.sqrt(2.0 * math.pi) * 1e-15)
        if msg:
            problems.append(msg)
        scaled = float(row["scaled_residual"])
        if abs(scaled - N * abs(r)) > 1e-12 * max(scaled, 1e-300):
            problems.append(f"N={N}: scaled_residual {scaled!r} is not N |r|")
    slope = trailer["N"] == "slope" and trailer["re_c0"]
    if not slope:
        return problems + ["residual.csv has no slope trailer"]
    passed = (slope == "converged_below_tolerance"
              or SLOPE_GATE[0] <= float(slope) <= SLOPE_GATE[1])
    if passed and code != 0:
        problems.append(f"exit {code} although the slope {slope} passes the gate")
    elif not passed and code == 0:
        problems.append(f"exit 0 although the slope {slope} fails the gate")
    elif not passed:
        problems.append(f"{GATE}: exit {code}, residual slope {float(slope):+.2f} "
                        f"outside {list(SLOPE_GATE)}")
    return problems


def check_trace(cmd, code, out_dir, rng) -> list:
    cfg = cmd.config
    geo, E = cfg["geometry"], cfg["E"]
    tf = cfg["test_function"]
    tail_tol = cfg["tolerances"]["tail_tol"]
    rows = _read_csv(os.path.join(out_dir, "trace.csv"))
    problems = [] if code == 0 else [f"exit {code}"]
    _check_grid(rows, cfg, problems)
    for row in _sample(rng, rows, 1):
        N = int(row["N"])
        y = _complex(row, "y")
        tail_bound = float(row["tail_bound"])
        if not (0.0 <= tail_bound < math.inf):
            problems.append(f"N={N}: tail_bound {tail_bound!r} is not a finite bound")
            continue
        y_ref, abs_sum, omissible, error, mult_sum = oracles.bump_trace(
            geo, N, E, tf["tau0"], tf["w"], tail_tol)
        # per-term phi error of a 1024-node rule (~1e-15), and the offsets'
        # double rounding eps*E*N moving phi by |phi'| <= (|tau0|+w)|phi|
        rounding = (error + 4.0 * EPS_DOUBLE * E * N * (abs(tf["tau0"]) + tf["w"]) * abs_sum
                    + 2e-15 * mult_sum)
        dev = abs(y - y_ref)
        if dev > omissible + rounding:
            problems.append(f"N={N}: Y {y} is {dev:.3e} from the quadrature ladder sum "
                            f"(rungs below tail_tol weigh {omissible:.3e}, rounding {rounding:.3e})")
        if dev > tail_bound + rounding:
            problems.append(f"N={N}: Y is {dev:.3e} off, past its tail_bound {tail_bound:.3e}")
    return problems


def check_predict(cmd, code, out_dir, rng) -> list:
    cfg = cmd.config
    geo = cfg["geometry"]
    tf = cfg["test_function"]
    rows = _read_csv(os.path.join(out_dir, "predict.csv"))
    problems = [] if code == 0 else [f"exit {code}"]
    _check_grid(rows, cfg, problems)
    hat = oracles.bump_hat(tf["tau0"], tf["w"])
    for row in _sample(rng, rows, 2):
        N = int(row["N"])
        c0 = _complex(row, "c0")
        k_tail = float(row["k_tail"])
        if geo["kind"] != "katok":
            if float(row["d"]) != 1.0:
                problems.append(f"N={N}: d={row['d']} but the periodic flow has d = 1")
            msg = _c0_problem(N, c0, cfg, hat, omit_below=0.0, k_tail=k_tail)
            if msg:
                problems.append(msg)
            continue
        eps = geo["eps"]
        tsharp = 2.0 * math.pi * math.sqrt(2.0) / (1.0 - eps * eps)
        ks = [k for k in range(-50, 51)
              if k != 0 and abs(k * tsharp - tf["tau0"]) < tf["w"]]
        terms = [oracles.katok_term(N, eps, k, b, hat(k * tsharp))
                 for k in ks for b in (1, -1)]
        ref = sum(terms)
        scale = sum(abs(t) for t in terms)
        phase = 2.0 * math.pi * N * max(map(abs, ks)) / (1.0 - eps)
        allow = scale * 8.0 * EPS_DOUBLE * (1.0 + phase) + k_tail
        if float(row["d"]) != 0.0:
            problems.append(f"N={N}: d={row['d']} but an isolated-orbit window has d = 0")
        if abs(c0 - ref) > allow:
            problems.append(f"N={N}: c0 {c0} is {abs(c0 - ref):.3e} from the isolated-orbit "
                            f"display {ref} (allowed {allow:.3e})")
    return problems


# ---------------------------------------------------------------------------
# dynamics commands
# ---------------------------------------------------------------------------

def _angle_gap(a: float, b: float) -> float:
    d = math.fmod(a - b, 2.0 * math.pi)
    return abs(d - 2.0 * math.pi * round(d / (2.0 * math.pi)))


def check_dynamics(cmd, code, out_dir, rng) -> list:
    cfg = cmd.config
    geo, E = cfg["geometry"], cfg["E"]
    kind = geo["kind"]
    ode_tol = cfg["tolerances"]["ode_tol"]
    budget = 100.0 * ode_tol
    orientation = cfg.get("orientation", "+")
    branch = 1 if (kind == "katok" and orientation == "+") else -1
    with open(os.path.join(out_dir, "invariants.json")) as fh:
        inv = json.load(fh)
    problems = [] if code == 0 else [f"exit {code}"]

    # closed-form orbit data
    for orb in inv["orbits"]:
        b = 1 if orb["orientation"] == "+" else -1
        ref = oracles.orbit_closed_forms(geo, E, b)
        for key in ("T", "L", "hol"):
            if abs(orb[key] - ref[key]) > 1e-12 * max(1.0, abs(ref[key])):
                problems.append(f"orbit {orb['orientation']}: {key}={orb[key]!r}, "
                                f"closed form {ref[key]!r}")
    ref = oracles.orbit_closed_forms(geo, E, branch)
    num = inv["numeric"]
    if abs(num["period"] - ref["T"]) > 1e-12 * ref["T"]:
        problems.append(f"period {num['period']!r}, closed form {ref['T']!r}")
    t_periods = cfg.get("t_periods", 1.0)
    if t_periods == 1.0:
        hol = num["numeric_holonomy"]
        if hol is None or abs(hol - ref["hol"]) > 1e-6:
            problems.append(f"numeric holonomy {hol!r} vs closed form {ref['hol']!r} (> 1e-6)")
        else:
            S = ref["L"] * ref["c"] + ref["hol"]
            gap = _angle_gap(S, ref["L"] * ref["c"] + hol)
            if gap > 1e-8 or not num["action_identity_residual"] <= 1e-8:
                problems.append(f"action identity off by {gap:.3e} "
                                f"(reported {num['action_identity_residual']!r})")
    if not (num["energy_drift"] <= budget
            and (num["first_integral_drift"] is None or num["first_integral_drift"] <= budget)):
        problems.append(f"reported drifts {num['energy_drift']!r}, "
                        f"{num['first_integral_drift']!r} exceed {budget:.1e}")

    # every orbit.csv row stays on the energy shell (and on P = const)
    rows = _read_csv(os.path.join(out_dir, "orbit.csv"))
    if len(rows) != cfg["orbit_samples"]:
        problems.append(f"orbit.csv has {len(rows)} rows, config asks {cfg['orbit_samples']}")
    worst_h, P_vals = 0.0, []
    for row in rows:
        q1, q2, p1, p2 = (float(row[k]) for k in ("q1", "q2", "p1", "p2"))
        H = oracles.hamiltonian(geo, q1, q2, p1, p2)
        worst_h = max(worst_h, abs(H - E), abs(float(row["H"]) - E))
        if kind == "katok":
            P = oracles.katok_P(geo["eps"], q1, p2)
            if abs(P - float(row["P"])) > budget:
                problems.append(f"t={row['t']}: P column {row['P']} vs recomputed {P!r}")
                break
            P_vals.append(P)
    if worst_h > budget:
        problems.append(f"orbit.csv leaves the energy shell by {worst_h:.3e} > {budget:.1e}")
    if P_vals and max(P_vals) - min(P_vals) > budget:
        problems.append(f"first integral P varies by {max(P_vals) - min(P_vals):.3e} > {budget:.1e}")
    t_end = float(rows[-1]["t"])
    if abs(t_end - t_periods * ref["T"]) > 1e-12 * t_end:
        problems.append(f"last sample at t={t_end!r}, not {t_periods} periods")
    if float(t_periods).is_integer():
        a, b = rows[0], rows[-1]
        gaps = [abs(float(b[k]) - float(a[k])) for k in ("q1", "p1", "p2")]
        dq2 = float(b["q2"]) - float(a["q2"])
        gaps.append(_angle_gap(dq2, 0.0) if kind in ("sphere", "katok") else abs(dq2))
        tol = 1e-7 * t_periods
        if max(gaps) > tol:
            problems.append(f"orbit does not close after {t_periods:g} period(s): "
                            f"gap {max(gaps):.3e} > {tol:.0e}")

    # Liouville volume 2 pi E Area, and the seeded Monte Carlo estimate
    vol = inv["liouville_volume"]
    closed = 2.0 * math.pi * E * oracles.metric_area(geo)
    if abs(vol["closed_form"] - closed) > 1e-13 * closed:
        problems.append(f"Liouville volume {vol['closed_form']!r}, closed form {closed!r}")
    if cfg.get("mc_samples", 0) > 0 and kind != "hyperbolic":
        est, se = vol["mc_estimate"], vol["mc_stderr"]
        if not abs(est - closed) <= 5.0 * se + 4.0 * EPS_DOUBLE * closed:
            problems.append(f"Monte Carlo volume {est!r} is more than 5 standard errors "
                            f"({se!r}) from {closed!r}")
    return problems


def check_katok(cmd, code, out_dir, rng) -> list:
    cfg = cmd.config
    eps, E = cfg["geometry"]["eps"], cfg["E"]
    N = _grid(cfg["N"])[0]
    with open(os.path.join(out_dir, "katok_report.json")) as fh:
        rep = json.load(fh)
    problems = [] if code == 0 else [f"exit {code}"]
    if rep.get("passed") is not True:
        problems.append("report does not say passed")
    for label, branch in (("+", 1), ("-", -1)):
        mat, det = oracles.katok_monodromy(eps, E, branch)
        block = rep["monodromy"][label]
        for which, tol in (("numeric", 1e-6), ("analytic", 1e-12)):
            dev = max(abs(block[which][i][j] - mat[i][j]) for i in range(2) for j in range(2))
            if dev > tol:
                problems.append(f"{label}: {which} monodromy is {dev:.3e} "
                                f"from the closed form (> {tol:.0e})")
        for which in ("det_analytic", "det_numeric"):
            if abs(block[which] - det) > 1e-8:
                problems.append(f"{label}: {which}={block[which]!r}, 4 sin^2(pi/(1-+eps)) = {det!r}")
    for row in rep["maslov"]:
        branch = 1 if row["branch"] == "+" else -1
        m = oracles.katok_maslov(row["k"], branch, eps)
        if row["m"] != m:
            problems.append(f"k={row['k']}{row['branch']}: Maslov index {row['m']}, closed form {m}")
    for row in rep["assembly"]:
        branch = 1 if row["branch"] == "+" else -1
        ref = oracles.katok_term(N, eps, row["k"], branch, 1.0)
        got = complex(row["re_closed"], row["im_closed"])
        if abs(got - ref) > 1e-12 * abs(ref):
            problems.append(f"k={row['k']}{row['branch']}: orbit term {got} vs display {ref}")
    table = _read_csv(os.path.join(out_dir, "katok_report.csv"))
    if len(table) != len(rep["maslov"]) + 2:
        problems.append(f"katok_report.csv has {len(table)} rows, expected {len(rep['maslov']) + 2}")
    return problems


CHECKS = {
    "residual": check_residual,
    "trace": check_trace,
    "predict": check_predict,
    "dynamics": check_dynamics,
    "katok": check_katok,
}


def check(cmd, code: int, out_dir: str, rng) -> list:
    """Problems found in one operation's outputs (empty when it passed)."""
    try:
        return CHECKS[cmd.sub](cmd, code, out_dir, rng)
    except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
        return [f"exit {code}; outputs unreadable: {type(exc).__name__}: {exc}"]
