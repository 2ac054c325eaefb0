"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria execute.
"""

import json
import math
import os
import subprocess
import sys
import time

import mpmath
import numpy as np

from labchecks import maslov_two_interval, poisson_check
from magtrace import (EnergyLevel, Hyperbolic, Katok, KSumControl,
                      ManeLevelError, Sphere, Torus,
                      canonical_orbit_state, circle_distance,
                      general_c0_nondegenerate, integrate, katok_monodromy_numeric,
                      make_gaussian, numeric_holonomy, poisson_c01,
                      residual_report, y_n)

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)
EPS5 = 1.0 / math.sqrt(5.0)
SWEEP = list(range(40, 401, 40))
EPS = 2.0 ** -52


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _sweep_residuals(model, geo_pred, E, f=None):
    lev = EnergyLevel.from_E(E)
    f = f or make_gaussian(1.0)
    traces = [y_n(model, N, lev, f, tail_tol=1e-14) for N in SWEEP]
    preds = geo_pred(SWEEP, lev, f)
    return residual_report(traces, preds)


def test_criterion_1_torus_trace_formula():
    t0 = time.perf_counter()
    ctl = KSumControl(12)
    rep = _sweep_residuals(Torus(), lambda Ns, lev, f: poisson_c01(Ns, Torus(), lev, f, ctl),
                           2.0)
    elapsed = time.perf_counter() - t0
    slope_ok = rep.converged or (-1.6 <= rep.slope <= -0.6)
    ratio = rep.max_scaled / rep.median_scaled
    ok = slope_ok and ratio <= 10.0 and elapsed < 10.0
    _report(1, ok, f"torus slope={rep.slope:.3f}, max/median N|r|={ratio:.2f}, "
                   f"runtime={elapsed:.2f}s")


def test_criterion_2_sphere_trace_formula():
    model = Sphere(R=0.5)
    ctl = KSumControl(12)
    rep = _sweep_residuals(model,
                           lambda Ns, lev, f: poisson_c01(Ns, model, lev, f, ctl),
                           SQRT2)
    slope_ok = rep.converged or (-1.6 <= rep.slope <= -0.6)
    ratio = rep.max_scaled / rep.median_scaled

    # specialized R = 1/2 display, summed at 40 digits, against the general-R
    # evaluation.  A double evaluation rounds each term's phase argument a,
    # so each term is allowed eps/2 (1 + |a|) of its size, about twice the
    # largest deviation measured; max_dev is the largest deviation in that
    # unit.  c0 is also held to 1e-14 relative.
    E = SQRT2
    max_dev = max_rel_c0 = 0.0
    with mpmath.workdps(40):
        for N in SWEEP:
            [p] = poisson_c01([N], model, EnergyLevel.from_E(E), make_gaussian(1.0), ctl)
            sums = [mpmath.mpc(0), mpmath.mpc(0)]
            allow = [0.0, 0.0]
            for k in range(-ctl.k_max, ctl.k_max + 1):
                xi = k * mpmath.pi  # phi_hat(xi) = sqrt(2 pi) exp(-xi^2/2), s = 1
                h0 = mpmath.sqrt(2 * mpmath.pi) * mpmath.exp(-xi * xi / 2)
                a1, a2 = mpmath.pi * k * (N + 1), mpmath.pi * k * mpmath.mpf(E) * N
                phase = mpmath.expj(a1 - a2)
                terms = (mpmath.mpf(E) / 2 * h0 * phase,
                         (0.5j * (-xi * h0) - 0.25j * mpmath.pi * k * h0) * phase)
                for i, t in enumerate(terms):
                    sums[i] += t
                    allow[i] += 0.5 * EPS * (1.0 + float(abs(a1) + abs(a2))) * float(abs(t))
            devs = [float(abs(got - ref)) for got, ref in zip((p.c0, p.c1), sums)]
            max_dev = max(max_dev, devs[0] / allow[0], devs[1] / allow[1])
            max_rel_c0 = max(max_rel_c0, devs[0] / float(abs(sums[0])))
    ok = slope_ok and ratio <= 10.0 and max_dev <= 1.0 and max_rel_c0 <= 1e-14
    _report(2, ok, f"sphere slope={rep.slope:.3f}, max/median={ratio:.2f}, "
                   f"specialization dev={max_dev:.2e} of the allowance, "
                   f"c0 rel dev={max_rel_c0:.1e}")


def test_criterion_3_hyperbolic_trace_formula():
    model = Hyperbolic(R=1.0, genus=2)
    ctl = KSumControl(12)
    rep = _sweep_residuals(model,
                           lambda Ns, lev, f: poisson_c01(Ns, model, lev, f, ctl),
                           1.2)
    slope_ok = rep.converged or (-1.6 <= rep.slope <= -0.6)
    ratio = rep.max_scaled / rep.median_scaled if not rep.converged else 1.0

    # k = 0 term (isolated by a zero-period window) equals the
    # phase-space volume term (2pi)^{-2} fhat(0) (2pi)^2 (2g-2) E R^2
    lev = EnergyLevel.from_E(1.2)
    f = make_gaussian(1.0)
    from magtrace import make_fourier_bump
    f0 = make_fourier_bump(0.0, 1.0)
    [p0] = poisson_c01([3], model, lev, f0, ctl)
    vol_term = complex(f0.phi_hat(0.0)) / TWO_PI**2 * (
        TWO_PI**2 * (2 * model.genus - 2) * lev.E * model.R**2)
    k0_ok = abs(p0.c0 - vol_term) <= 1e-13 * abs(vol_term)

    try:
        poisson_c01([3], model, EnergyLevel.from_E(SQRT2), f, ctl)
        mane_ok = False
    except ManeLevelError:
        mane_ok = True
    ok = slope_ok and ratio <= 10.0 and k0_ok and mane_ok
    detail = ("converged below tolerance" if rep.converged
              else f"slope={rep.slope:.3f}")
    _report(3, ok, f"hyperbolic {detail}, volume-term ok={k0_ok}, "
                   f"Mane guard ok={mane_ok}")


def test_criterion_4_katok_dynamics():
    t0 = time.perf_counter()
    geo = Katok(EPS5)
    closure_ok = drift_ok = mono_ok = det_ok = True
    worst = {"closure": 0.0, "drift": 0.0, "mono": 0.0, "det": 0.0}
    for orientation, sign in (("+", 1.0), ("-", -1.0)):
        st, T = canonical_orbit_state(geo, SQRT2, orientation)
        res = integrate(geo, st, SQRT2, T, tol=1e-11)
        y0, y1 = st.as_array(), res.final.as_array()
        gap = max(abs(y1[0] - y0[0]), abs(y1[1] - y0[1] - sign * TWO_PI),
                  abs(y1[2] - y0[2]), abs(y1[3] - y0[3]))
        worst["closure"] = max(worst["closure"], gap)
        closure_ok &= gap < 1e-8
        drift = max(res.energy_drift, res.first_integral_drift)
        worst["drift"] = max(worst["drift"], drift)
        drift_ok &= drift < 1e-9
        num = katok_monodromy_numeric(geo, SQRT2, orientation, tol=1e-11)
        ana = geo.return_map(SQRT2, sign)
        dev = float(np.max(np.abs(num - ana.matrix)))
        worst["mono"] = max(worst["mono"], dev)
        mono_ok &= dev < 1e-6
        det_num = float(np.linalg.det(np.eye(2) - num))
        det_closed = 4.0 * math.sin(math.pi / (1.0 - sign * EPS5)) ** 2
        ddev = abs(det_num - det_closed)
        worst["det"] = max(worst["det"], ddev)
        det_ok &= ddev < 1e-8
    elapsed = time.perf_counter() - t0
    ok = closure_ok and drift_ok and mono_ok and det_ok and elapsed < 5.0
    _report(4, ok, f"katok dynamics: closure={worst['closure']:.1e}, "
                   f"drift={worst['drift']:.1e}, monodromy dev={worst['mono']:.1e}, "
                   f"det dev={worst['det']:.1e}, runtime={elapsed:.2f}s")


def test_criterion_5_katok_assembly():
    N = 3
    geo = Katok(EPS5)
    lev = EnergyLevel.from_E(SQRT2)
    inv = {o.orientation: o for o in geo.closed_orbits(lev.E, lev.c).orbits}
    max_dev = 0.0
    maslov_ok = True
    for k in (1, 2, 3, -1, -2, -3):
        for label, branch in (("+", +1), ("-", -1)):
            closed = geo.term(N, k, branch, 1.0, 1e-6)
            m = maslov_two_interval(k, EPS5, branch)[0]
            maslov_ok &= m == geo.maslov(k, branch)
            ana = geo.return_map(SQRT2, branch)
            det_k = abs(float(np.linalg.det(
                np.eye(2) - np.linalg.matrix_power(ana.matrix, k))))
            assembled = general_c0_nondegenerate(
                Tsharp=inv[label].T, m=m, S=k * inv[label].S,
                detIminusP=det_k, Tgamma=k * inv[label].T,
                phi_hat_at_Tgamma=1.0, N=N)
            max_dev = max(max_dev, abs(closed - assembled) / abs(closed))
    ok = max_dev <= 1e-12 and maslov_ok
    _report(5, ok, f"katok assembly: max rel dev={max_dev:.2e}, "
                   f"maslov identity ok={maslov_ok}")


def test_criterion_6_holonomy_and_action():
    cases = [
        (Torus(), 2.0, -(2.0**2 - 1.0) / 2.0),
        (Sphere(0.5), SQRT2,
         -math.pi * (1.0 - 1.0 / math.sqrt(1.0 + 1.0))),
        (Hyperbolic(1.0, 2), math.sqrt(1.25),
         -TWO_PI * (1.0 / math.sqrt(1.0 - 0.25) - 1.0)),
        (Katok(EPS5), SQRT2,
         TWO_PI * EPS5 / (1.0 - EPS5**2)),
    ]
    max_hol_dev = 0.0
    max_act_dev = 0.0
    for geo, E, hol_closed in cases:
        st, T = canonical_orbit_state(geo, E, "+")
        res = integrate(geo, st, E, T, tol=1e-12)
        hol = numeric_holonomy(geo, res)
        max_hol_dev = max(max_hol_dev, abs(hol - hol_closed))
        c = math.sqrt(E * E - 1.0)
        inv = geo.closed_orbits(E, c).pick("+")
        max_act_dev = max(max_act_dev, circle_distance(inv.S, inv.L * c + hol))
    ok = max_hol_dev < 1e-6 and max_act_dev < 1e-8
    _report(6, ok, f"holonomy dev={max_hol_dev:.1e}, "
                   f"action identity dev={max_act_dev:.1e} (all four geometries)")


def test_criterion_7_poisson_self_test():
    rep = poisson_check(make_gaussian(1.0), P=2.0, t=0.3)
    ok = rep.diff <= 1e-12 and rep.lhs_tail < 1e-12 and rep.rhs_tail < 1e-12
    _report(7, ok, f"poisson |lhs-rhs|={rep.diff:.2e}, "
                   f"tails=({rep.lhs_tail:.1e},{rep.rhs_tail:.1e})")


def test_criterion_8_torus_cluster():
    # at E = sqrt(1 + 4 pi m) the cluster nearest E N + pi/E is the rung j* = m N
    E = math.sqrt(1.0 + 4.0 * math.pi)
    m = round((E * E - 1.0) / (4.0 * math.pi))
    Ns = list(range(10, 201, 10))
    lams = [math.sqrt(Torus().ladder(N, m * N)[0] + N * N) for N in Ns]
    lam_formula = [math.sqrt(E * E * N * N + TWO_PI * N) for N in Ns]
    devs = [abs(lam - lf) / lf for lam, lf in zip(lams, lam_formula)]
    gaps = [N * abs(lam - E * N - math.pi / E) for lam, N in zip(lams, Ns)]
    bounded = max(gaps) <= 2.0 * gaps[-1] + 1.0
    lam_ok = max(devs) <= 1e-14
    js_ok = m == 1  # the cluster rung m N is N
    ok = lam_ok and js_ok and bounded
    _report(8, ok, f"cluster: j*=N ok={js_ok}, lambda formula dev="
                   f"{max(devs):.1e}, "
                   f"max N|gap|={max(gaps):.4f} bounded={bounded}")


def _brute_force(model, N, E, f):
    if isinstance(model, Torus):
        j = np.arange(0, 1_000_000, dtype=float)
        lam = np.sqrt(N * N + TWO_PI * N * (2.0 * j + 1.0))
        mult = np.full(j.shape, float(N))
    elif isinstance(model, Sphere):
        j = np.arange(0, 1_000_000, dtype=float)
        lam = np.sqrt(N * N + (j * (j + 1.0) + 0.5 * N * (2.0 * j + 1.0)) / model.R**2)
        mult = N + 2.0 * j + 1.0
    else:
        j = np.arange(0, N, dtype=float)
        lam = np.sqrt(N * N + (0.25 + N * N - (j + 0.5 - N) ** 2) / model.R**2)
        mult = (model.genus - 1) * (2.0 * N - 2.0 * j - 1.0)
    return math.fsum(mult * np.asarray(f.phi(lam - E * N), dtype=float))


def test_criterion_9_oracle_equivalence():
    rng = np.random.default_rng(2024)
    f = make_gaussian(1.0)
    max_rel = 0.0
    for _ in range(5):
        # torus
        N, E = int(rng.integers(5, 60)), float(rng.uniform(1.3, 3.0))
        model = Torus()
        t = y_n(model, N, EnergyLevel.from_E(E), f, tail_tol=1e-15)
        b = _brute_force(model, N, E, f)
        max_rel = max(max_rel, abs(t.value.real - b) / max(abs(b), 1e-300))
        # sphere
        N, E = int(rng.integers(5, 60)), float(rng.uniform(1.3, 3.0))
        model = Sphere(R=float(rng.choice([0.5, 1.0, 2.0])))
        t = y_n(model, N, EnergyLevel.from_E(E), f, tail_tol=1e-15)
        b = _brute_force(model, N, E, f)
        max_rel = max(max_rel, abs(t.value.real - b) / max(abs(b), 1e-300))
        # hyperbolic (full integrable range)
        model = Hyperbolic(R=1.0, genus=int(rng.integers(2, 4)))
        N = int(rng.integers(5, 60))
        E = float(rng.uniform(1.05, model.mane_E - 0.05))
        t = y_n(model, N, EnergyLevel.from_E(E), f, tail_tol=1e-15)
        b = _brute_force(model, N, E, f)
        max_rel = max(max_rel, abs(t.value.real - b) / max(abs(b), 1e-300))
    ok = max_rel <= 1e-12
    _report(9, ok, f"windowed vs brute-force long sum: max rel dev={max_rel:.2e} "
                   f"(15 random cases)")


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "schema": "magtrace/1",
        "geometry": {"kind": "torus"},
        "E": 2.0,
        "test_function": {"kind": "gaussian", "s": 1.0},
        "N": {"start": 40, "stop": 400, "step": 40},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outs = [tmp_path / f"out{i}" for i in range(2)]
    runs = [
        subprocess.run([sys.executable, "-m", "magtrace", "residual",
                        "--config", str(path), "--out", str(out)],
                       capture_output=True, env=dict(os.environ), text=True)
        for out in outs
    ]
    codes_ok = all(r.returncode == 0 for r in runs)
    b = [(o / "residual.csv").read_bytes() for o in outs]
    ok = codes_ok and b[0] == b[1]
    _report(10, ok, f"byte-identical reruns={b[0] == b[1]}, exit codes ok={codes_ok}")
