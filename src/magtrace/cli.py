"""Command-line front end.

Subcommands: spectrum | trace | predict | residual | dynamics | katok.
Every run is driven by a JSON config (schema "magtrace/1"); unknown keys
are rejected so archived configs replay byte-identically.  All outputs are
computed in memory first and written at the end, so a failing run leaves
no partial files; floats are rendered with 17 significant digits and LF
line endings so identical configs produce byte-identical outputs,
independent of --threads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import asymptotics, dynamics, spectra, testfn, tracesum
from .errors import MagtraceError, ValidationError

SCHEMA = "magtrace/1"

_TOP_KEYS = {"schema", "geometry", "E", "test_function", "N", "tolerances",
             "seed", "orientation", "t_periods", "k_list", "mc_samples",
             "orbit_samples"}
_GEOMETRY_KEYS = {"torus": {"kind"}, "sphere": {"kind", "R"},
                  "hyperbolic": {"kind", "R", "genus"}, "katok": {"kind", "eps"}}
_TOL_DEFAULTS = {"tail_tol": 1e-14, "ode_tol": 1e-11, "k_max": None,
                 "resonance_margin": 1e-6, "support_tol": 1e-12}
# caps on a dynamics run, checked before anything is allocated or integrated
_MAX_PERIODS = 1_000
_MAX_ORBIT_SAMPLES = 1_000_000
_MAX_MC_SAMPLES = 10_000_000


def _fmt(x) -> str:
    if type(x) is float:
        return format(x, ".17g")
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return format(float(x), ".17g")


def _write_csv(path, header, rows):
    # an all-float row takes one format call; "{:.17g}" is _fmt's float format
    line = ",".join(["{:.17g}"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            if len(row) == len(header) and all(type(v) is float for v in row):
                fh.write(line.format(*row))
            else:
                fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path, obj):
    with open(path, "w", newline="") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, undecodable bytes or an over-long integer
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    if cfg.get("schema") != SCHEMA:
        raise ValidationError(f"config schema must be {SCHEMA!r}, got {cfg.get('schema')!r}")
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _number(value, name, *, integer=False, positive=False, cap=None):
    """A config number: finite, >= 0 (> 0 if positive), integral if asked, <= cap.

    Bools and strings are not numbers; an integral float is taken as an int.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ValidationError(f"{name} must be finite, got {value!r}")
    if integer and isinstance(value, float) and not value.is_integer():
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < 0 or (positive and value == 0):
        raise ValidationError(
            f"{name} must be {'positive' if positive else 'nonnegative'}, got {value!r}")
    if cap is not None and value > cap:
        raise ValidationError(f"{name} must be at most {cap:,}, got {value!r}")
    return int(value) if integer else float(value)


def _geometry(cfg: dict) -> dynamics.GeometrySpec:
    geo = cfg.get("geometry")
    if not isinstance(geo, dict) or "kind" not in geo:
        raise ValidationError("config needs a geometry object with a 'kind'")
    kind = geo["kind"]
    if kind not in _GEOMETRY_KEYS:
        raise ValidationError(f"unknown geometry kind {kind!r}")
    if set(geo) != _GEOMETRY_KEYS[kind]:
        raise ValidationError(
            f"geometry {kind!r} takes exactly keys {sorted(_GEOMETRY_KEYS[kind])}, "
            f"got {sorted(geo)}")
    if kind == "torus":
        return dynamics.GeometrySpec.torus()
    if kind == "sphere":
        return dynamics.GeometrySpec.sphere(_number(geo["R"], "R"))
    if kind == "hyperbolic":
        return dynamics.GeometrySpec.hyperbolic(
            _number(geo["R"], "R"), _number(geo["genus"], "genus", integer=True))
    return dynamics.GeometrySpec.katok(_number(geo["eps"], "eps"))


def _spectral_model(geo: dynamics.GeometrySpec):
    if geo.kind == "torus":
        return spectra.TorusModel()
    if geo.kind == "sphere":
        return spectra.SphereModel(R=geo.R)
    if geo.kind == "hyperbolic":
        return spectra.HyperbolicModel(R=geo.R, genus=geo.genus)
    raise ValidationError(
        "the deformed sphere has no closed-form spectrum; spectral commands "
        "support torus, sphere and hyperbolic geometries only")


def _energy(cfg: dict, geo) -> spectra.EnergyLevel:
    if geo.kind == "katok":
        E = _number(cfg.get("E", math.sqrt(2.0)), "E")
        if abs(E - math.sqrt(2.0)) > 1e-12:
            raise ValidationError("the deformed-sphere example is stated at E = sqrt(2)")
        return spectra.EnergyLevel.from_E(math.sqrt(2.0))
    if "E" not in cfg:
        raise ValidationError("config needs an energy E")
    return spectra.EnergyLevel.from_E(_number(cfg["E"], "E"))


def _test_function(cfg: dict) -> testfn.TestFunction:
    if "test_function" not in cfg:
        raise ValidationError("config needs a test_function object")
    return testfn.from_config(cfg["test_function"])


def _N_list(cfg: dict, level: spectra.EnergyLevel) -> list:
    """The ascending N grid, refused up front if (E N)^2 overflows at its top."""
    spec = cfg.get("N")
    if not isinstance(spec, dict):
        raise ValidationError("config needs an N object ({value}, {list} or {start,stop,step})")
    keys = set(spec)
    if keys == {"value"}:
        lst = [spec["value"]]
    elif keys == {"list"}:
        lst = list(spec["list"])
    elif keys == {"start", "stop", "step"}:
        lst = list(range(_number(spec["start"], "N start", integer=True),
                         _number(spec["stop"], "N stop", integer=True) + 1,
                         _number(spec["step"], "N step", integer=True, positive=True)))
    else:
        raise ValidationError(f"N object takes {{value}}, {{list}} or {{start,stop,step}}, got {sorted(keys)}")
    if not lst or any(isinstance(n, bool) or not isinstance(n, int) or n < 1 for n in lst):
        raise ValidationError("N values must be positive integers")
    if any(b <= a for a, b in zip(lst, lst[1:])):
        raise ValidationError("N values must be strictly ascending")
    level.check_N(lst[-1])
    return lst


def _tolerances(cfg: dict) -> dict:
    tol = dict(_TOL_DEFAULTS)
    user = cfg.get("tolerances", {})
    if not isinstance(user, dict):
        raise ValidationError("tolerances must be an object")
    unknown = set(user) - set(_TOL_DEFAULTS)
    if unknown:
        raise ValidationError(f"unknown tolerance keys: {sorted(unknown)}")
    tol.update(user)
    for key in ("tail_tol", "ode_tol", "resonance_margin", "support_tol"):
        if not (isinstance(tol[key], (int, float)) and 0 < tol[key] < 1):
            raise ValidationError(f"tolerance {key} must lie in (0,1), got {tol[key]}")
    if tol["k_max"] is not None:
        tol["k_max"] = _number(tol["k_max"], "k_max", integer=True)
    return tol


def _k_control(geo, level, f, tol) -> asymptotics.KSumControl:
    if tol["k_max"] is not None:
        return asymptotics.KSumControl(k_max=tol["k_max"],
                                       resonance_margin=tol["resonance_margin"])
    E = level.E
    if geo.kind == "torus":
        freq = E
    elif geo.kind == "sphere":
        beta = math.sqrt((E * E - 1.0) * geo.R**2 + 0.25)
        freq = 2.0 * math.pi * E * geo.R**2 / beta
    elif geo.kind == "hyperbolic":
        q = math.sqrt(1.0 / geo.R**2 + 1.0 - E * E)
        freq = 2.0 * math.pi * E * geo.R / q
    else:
        freq = 2.0 * math.pi * math.sqrt(2.0) / (1.0 - geo.eps**2)
    return asymptotics.KSumControl.for_function(
        f, freq, tail_tol=min(tol["tail_tol"], 1e-15),
        resonance_margin=tol["resonance_margin"])


def _parallel_map(fn, items, threads):
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    import concurrent.futures  # only a threaded run pays for the import

    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _predict_one(geo, level, f, ctl, tol, N):
    if geo.kind == "torus":
        return asymptotics.torus_c01(N, level, f, ctl)
    if geo.kind == "sphere":
        return asymptotics.sphere_c01(N, spectra.SphereModel(R=geo.R), level, f, ctl)
    if geo.kind == "hyperbolic":
        return asymptotics.hyperbolic_c01(
            N, spectra.HyperbolicModel(R=geo.R, genus=geo.genus), level, f, ctl)
    return asymptotics.katok_c0(N, geo.eps, f, ctl, support_tol=tol["support_tol"])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg, out_dir, fmt, threads):
    geo = _geometry(cfg)
    model = _spectral_model(geo)
    level = _energy(cfg, geo)
    f = _test_function(cfg)
    tol = _tolerances(cfg)
    Ns = _N_list(cfg, level)
    windows = _parallel_map(
        lambda N: spectra.enumerate_window(model, N, level, f, tol["tail_tol"]),
        Ns, threads)
    header = ["N", "j", "nu", "lambda", "mult", "tail_bound"]
    rows = []
    for win in windows:
        for e in win.entries():
            rows.append([e.N, e.j, e.nu, e.lam, e.mult, win.tail_bound])
    if fmt == "csv":
        _write_csv(os.path.join(out_dir, "spectrum.csv"), header, rows)
    else:
        _write_json(os.path.join(out_dir, "spectrum.json"),
                    [dict(zip(header, r)) for r in rows])
    return 0


def cmd_trace(cfg, out_dir, fmt, threads):
    geo = _geometry(cfg)
    model = _spectral_model(geo)
    level = _energy(cfg, geo)
    f = _test_function(cfg)
    tol = _tolerances(cfg)
    Ns = _N_list(cfg, level)
    traces = _parallel_map(
        lambda N: tracesum.y_n(model, N, level, f, tol["tail_tol"]), Ns, threads)
    header = ["N", "re_y", "im_y", "tail_bound"]
    rows = [[t.N, t.value.real, t.value.imag, t.tail_bound] for t in traces]
    if fmt == "csv":
        _write_csv(os.path.join(out_dir, "trace.csv"), header, rows)
    else:
        _write_json(os.path.join(out_dir, "trace.json"),
                    [dict(zip(header, r)) for r in rows])
    return 0


def cmd_predict(cfg, out_dir, fmt, threads):
    geo = _geometry(cfg)
    level = _energy(cfg, geo)
    f = _test_function(cfg)
    tol = _tolerances(cfg)
    Ns = _N_list(cfg, level)
    ctl = _k_control(geo, level, f, tol)
    preds = _parallel_map(lambda N: _predict_one(geo, level, f, ctl, tol, N),
                          Ns, threads)
    header = ["N", "re_c0", "im_c0", "re_c1", "im_c1", "d", "k_tail"]
    rows = [[p.N, p.c0.real, p.c0.imag, p.c1.real, p.c1.imag, p.d, p.k_tail]
            for p in preds]
    if fmt == "csv":
        _write_csv(os.path.join(out_dir, "predict.csv"), header, rows)
    else:
        _write_json(os.path.join(out_dir, "predict.json"),
                    [dict(zip(header, r)) for r in rows])
    return 0


def cmd_residual(cfg, out_dir, fmt, threads):
    geo = _geometry(cfg)
    model = _spectral_model(geo)
    level = _energy(cfg, geo)
    f = _test_function(cfg)
    tol = _tolerances(cfg)
    Ns = _N_list(cfg, level)
    ctl = _k_control(geo, level, f, tol)

    def one(N):
        t = tracesum.y_n(model, N, level, f, tol["tail_tol"])
        p = _predict_one(geo, level, f, ctl, tol, N)
        return t, p

    pairs = _parallel_map(one, Ns, threads)
    traces = [t for t, _ in pairs]
    preds = [p for _, p in pairs]
    report = asymptotics.residual_report(traces, preds)
    header = ["N", "re_c0", "im_c0", "re_c1", "im_c1", "re_r", "im_r",
              "scaled_residual", "noise_floor"]
    rows = []
    for t, p, r, sc, fl in zip(traces, preds, report.residual, report.scaled,
                               report.noise_floor):
        rows.append([t.N, p.c0.real, p.c0.imag, p.c1.real, p.c1.imag,
                     r.real, r.imag, sc, fl])
    trailer = ["slope",
               report.slope if report.slope is not None else "converged_below_tolerance",
               "", "", "", "", "", report.max_scaled, report.median_scaled]
    if fmt == "csv":
        _write_csv(os.path.join(out_dir, "residual.csv"), header, rows + [trailer])
    else:
        _write_json(os.path.join(out_dir, "residual.json"), {
            "rows": [dict(zip(header, r)) for r in rows],
            "slope": report.slope, "converged": report.converged,
            "max_scaled": report.max_scaled, "median_scaled": report.median_scaled,
            "passed": report.passed,
        })
    return 0 if report.passed else 1


def cmd_dynamics(cfg, out_dir, fmt, threads):
    geo = _geometry(cfg)
    level = _energy(cfg, geo)
    tol = _tolerances(cfg)
    orientation = cfg.get("orientation", "+")
    if orientation not in ("+", "-"):
        raise ValidationError(f"orientation must be '+' or '-', got {orientation!r}")
    t_periods = _number(cfg.get("t_periods", 1.0), "t_periods", positive=True,
                        cap=_MAX_PERIODS)
    n_samples = _number(cfg.get("orbit_samples", 1024), "orbit_samples", integer=True,
                        cap=_MAX_ORBIT_SAMPLES)
    mc_samples = _number(cfg.get("mc_samples", 0), "mc_samples", integer=True,
                         cap=_MAX_MC_SAMPLES)
    if mc_samples == 1:  # a standard error needs two points
        raise ValidationError("mc_samples must be 0 or at least 2, got 1")
    seed = _number(cfg.get("seed", 0), "seed", integer=True)

    orbit_set = dynamics.closed_orbit_invariants(geo, level.E)
    report = {
        "geometry": geo.kind,
        "E": level.E,
        "note": orbit_set.note,
        "orbits": [{
            "orientation": o.orientation, "L": o.L, "T": o.T, "Tsharp": o.Tsharp,
            "S": o.S, "hol": o.hol, "maslov": o.maslov, "maslov_note": o.maslov_note,
            "detIminusP": o.detIminusP,
        } for o in orbit_set.orbits],
    }
    rows = []
    if orbit_set.has_orbits:
        state, T = dynamics.canonical_orbit_state(geo, level.E, orientation)
        flow = dynamics.integrate(geo, state, level.E, t_periods * T, tol["ode_tol"])
        hol_num = dynamics.numeric_holonomy(geo, flow) if t_periods == 1.0 else None
        inv = next(o for o in orbit_set.orbits
                   if o.orientation == orientation or len(orbit_set.orbits) == 1)
        numeric = {
            "orientation": orientation,
            "period": T,
            "energy_drift": flow.energy_drift,
            "first_integral_drift": flow.first_integral_drift,
            "chart_switches": flow.chart_switches,
            "numeric_holonomy": hol_num,
        }
        if hol_num is not None:
            c = math.sqrt(level.E**2 - 1.0)
            numeric["action_identity_residual"] = dynamics.circle_distance(
                inv.S, inv.L * c + hol_num)
        report["numeric"] = numeric
        ts, ys, _ = flow.sample(n_samples)
        columns = [ts, *ys, dynamics._hamiltonian_array(geo, ys)]
        if geo.kind == "katok":
            columns.append(dynamics.katok_first_integral(geo.eps, ys))
        rows = list(zip(*(col.tolist() for col in columns)))
    if mc_samples > 0:
        mc = dynamics.mc_liouville_volume(geo, level.E, mc_samples, seed)
        report["liouville_volume"] = {
            "closed_form": mc.closed_form, "mc_estimate": mc.estimate,
            "mc_stderr": mc.stderr, "rel_dev": mc.rel_dev, "note": mc.note,
        }
    else:
        report["liouville_volume"] = {
            "closed_form": dynamics.liouville_volume(geo, level.E)}

    header = ["t", "q1", "q2", "p1", "p2", "H"] + (["P"] if geo.kind == "katok" else [])
    if rows:
        if fmt == "csv":
            _write_csv(os.path.join(out_dir, "orbit.csv"), header, rows)
        else:
            _write_json(os.path.join(out_dir, "orbit.json"),
                        [dict(zip(header, r)) for r in rows])
    _write_json(os.path.join(out_dir, "invariants.json"), report)
    return 0


def cmd_katok(cfg, out_dir, fmt, threads):
    geo = _geometry(cfg)
    if geo.kind != "katok":
        raise ValidationError("the katok command needs geometry kind 'katok'")
    level = _energy(cfg, geo)
    tol = _tolerances(cfg)
    eps = geo.eps
    N = _N_list(cfg, level)[0] if "N" in cfg else 1
    k_list = cfg.get("k_list", [1, 2, 3, -1, -2, -3])
    if (not isinstance(k_list, list) or not k_list
            or any(not isinstance(k, int) or k == 0 for k in k_list)):
        raise ValidationError("k_list must be a nonempty list of nonzero integers")

    monodromy = {}
    max_mono_dev = 0.0
    for label in ("+", "-"):
        ana = dynamics.katok_poincare_analytic(eps, level.E, label)
        num = dynamics.katok_monodromy_numeric(eps, level.E, label, tol["ode_tol"])
        dev = float(np.max(np.abs(num - ana.matrix)))
        max_mono_dev = max(max_mono_dev, dev)
        monodromy[label] = {
            "analytic": ana.matrix.tolist(), "numeric": num.tolist(),
            "max_entry_dev": dev,
            "alpha": ana.alpha, "a": ana.a,
            "det_analytic": ana.det_i_minus_p,
            "det_numeric": float(np.linalg.det(np.eye(2) - num)),
        }

    orbit_set = dynamics.closed_orbit_invariants(geo, level.E)
    inv = {o.orientation: o for o in orbit_set.orbits}
    maslov_rows = []
    assembly_rows = []
    max_assembly_dev = 0.0
    for k in k_list:
        for label, branch in (("+", +1), ("-", -1)):
            ms = dynamics.maslov_katok(k, eps, label, tol["resonance_margin"])
            maslov_rows.append({"k": k, "branch": label, "m": ms.m,
                                "kappa": ms.kappa, "sgn_r": ms.sgn_r})
            closed = asymptotics.katok_term_closed(N, eps, k, branch, 1.0,
                                                   tol["resonance_margin"])
            ana = dynamics.katok_poincare_analytic(eps, level.E, label)
            det_k = float(np.linalg.det(
                np.eye(2) - np.linalg.matrix_power(ana.matrix, k)))
            assembled = asymptotics.general_c0_nondegenerate(
                Tsharp=inv[label].Tsharp, m=ms.m, S=k * inv[label].S,
                detIminusP=abs(det_k), Tgamma=k * inv[label].Tsharp,
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
        "eps": eps, "E": level.E, "N": N,
        "monodromy": monodromy,
        "maslov": maslov_rows,
        "assembly": assembly_rows,
        "max_monodromy_dev": max_mono_dev,
        "max_assembly_rel_dev": max_assembly_dev,
        "passed": passed,
    }
    if fmt == "json":
        _write_json(os.path.join(out_dir, "katok_report.json"), report)
    else:
        header = ["k", "branch", "m", "kappa", "sgn_r", "re_closed", "im_closed",
                  "re_assembled", "im_assembled", "rel_dev"]
        rows = []
        for mrow, arow in zip(maslov_rows, assembly_rows):
            rows.append([mrow["k"], mrow["branch"], mrow["m"], mrow["kappa"],
                         mrow["sgn_r"], arow["re_closed"], arow["im_closed"],
                         arow["re_assembled"], arow["im_assembled"], arow["rel_dev"]])
        rows.append(["max_monodromy_dev", "", "", "", "", "", "", "", "",
                     max_mono_dev])
        rows.append(["max_assembly_rel_dev", "", "", "", "", "", "", "", "",
                     max_assembly_dev])
        _write_csv(os.path.join(out_dir, "katok_report.csv"), header, rows)
        _write_json(os.path.join(out_dir, "katok_report.json"), report)
    return 0 if passed else 1


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "trace": cmd_trace,
    "predict": cmd_predict,
    "residual": cmd_residual,
    "dynamics": cmd_dynamics,
    "katok": cmd_katok,
}


def _thread_count(flag):
    """--threads if given, else MAGTRACE_THREADS, else 1."""
    if flag is not None:
        return flag
    env = os.environ.get("MAGTRACE_THREADS", "1")
    try:
        return int(env)
    except ValueError:
        raise ValidationError(
            f"MAGTRACE_THREADS must be an integer, got {env!r}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="magtrace",
        description="Spectral and geometric sides of magnetic trace asymptotics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        threads = _thread_count(args.threads)
        cfg = _load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](cfg, args.out, args.format, threads)
    except MagtraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
