"""Command-line front end.

Subcommands: spectrum | trace | predict | residual | dynamics | katok.
Every run is driven by a JSON config (schema "magtrace/1"); unknown keys
are rejected so archived configs replay byte-identically.  A command renders
its outputs in memory; they are written at the end, once no directory takes
an output's name, so only a failing write can leave output behind.  Floats
are rendered with 17 significant digits and LF line endings so identical
configs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

# __init__ registers these modules lazily: each runs on first use, so a
# command runs only the ones it calls (and numpy loads only where one needs it)
from . import asymptotics, dynamics, geometry, spectra, testfn, tracesum
from .errors import MagtraceError, ValidationError, number as _number, read_kind

SCHEMA = "magtrace/1"

_TOP_KEYS = {"schema", "geometry", "E", "test_function", "N", "tolerances",
             "seed", "orientation", "t_periods", "k_list", "mc_samples",
             "orbit_samples"}
_TOL_DEFAULTS = {"tail_tol": 1e-14, "ode_tol": 1e-11, "k_max": None,
                 "resonance_margin": 1e-6, "support_tol": 1e-12}
# caps on an N grid and on a dynamics run, checked before anything is
# allocated or integrated
_MAX_N_VALUES = 10_000
_MAX_PERIODS = 1_000  # also the largest |k| of a katok k_list
_MAX_ORBIT_SAMPLES = 1_000_000
_MAX_MC_SAMPLES = 10_000_000


def _fmt(x) -> str:
    if type(x) is float:
        return format(x, ".17g")
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, str):
        return x
    return format(float(x), ".17g")


def _csv(header, rows) -> str:
    return "".join([",".join(header) + "\n"] +
                   [",".join(_fmt(v) for v in row) + "\n" for row in rows])


def _float_csv(header, columns) -> str:
    """A table of float64 columns in one format call; "%.17g" is _fmt's float format."""
    import numpy as np
    values = np.column_stack(columns).ravel().tolist()
    line = ",".join(["%.17g"] * len(header)) + "\n"
    return ",".join(header) + "\n" + line * len(columns[0]) % tuple(values)


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


def _geometry(cfg: dict) -> geometry.Geometry:
    return read_kind(cfg.get("geometry"), "geometry", geometry.KINDS)


def _energy(cfg: dict, geo) -> geometry.EnergyLevel:
    stated = geo.stated_E
    if stated is None and "E" not in cfg:
        raise ValidationError("config needs an energy E")
    E = _number(cfg.get("E", stated), "E")
    if stated is not None:
        if abs(E - stated) > 1e-12:
            raise ValidationError(
                f"geometry {type(geo).__name__} is stated at E = {stated:.12g} only")
        E = stated
    return geometry.EnergyLevel.from_E(E)


def _N_list(cfg: dict, level: geometry.EnergyLevel) -> list:
    """The ascending N grid, refused up front if it is too long or (E N)^2
    overflows at its top."""
    spec = cfg.get("N")
    keys = set(spec) if isinstance(spec, dict) else None
    if keys == {"start", "stop", "step"}:
        lst = range(_number(spec["start"], "N start", integer=True, positive=True),
                    _number(spec["stop"], "N stop", integer=True) + 1,
                    _number(spec["step"], "N step", integer=True, positive=True))
    elif keys == {"value"} or (keys == {"list"} and isinstance(spec["list"], list)):
        lst = [_number(n, "N", integer=True, positive=True)
               for n in spec.get("list", [spec.get("value")])]
    else:
        raise ValidationError("config needs an N object ({value}, {list} or {start,stop,step})")
    # a slice of a range, since len() of a long one overflows
    if not lst or lst[_MAX_N_VALUES:] or any(b <= a for a, b in zip(lst, lst[1:])):
        raise ValidationError("N values must form a nonempty, strictly ascending grid "
                              f"of at most {_MAX_N_VALUES:,} values")
    level.check_N(lst[-1])
    return list(lst)


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
        tol[key] = _number(tol[key], f"tolerance {key}", signed=True)
        if not 0 < tol[key] < 1:
            raise ValidationError(f"tolerance {key} must lie in (0,1), got {tol[key]}")
    if tol["k_max"] is not None:
        tol["k_max"] = _number(tol["k_max"], "k_max", integer=True)
    return tol


def _ladder_run(cfg: dict) -> tuple:
    """Geometry, energy level, test function, tolerances and N grid of a
    spectral or predict run."""
    geo = _geometry(cfg)
    level = _energy(cfg, geo)
    f = testfn.from_config(cfg.get("test_function"))
    tol = _tolerances(cfg)
    return geo, level, f, tol, _N_list(cfg, level)


def _k_control(geo, level, f, tol) -> asymptotics.KSumControl:
    if tol["k_max"] is not None:
        return asymptotics.KSumControl(k_max=tol["k_max"],
                                       resonance_margin=tol["resonance_margin"])
    return asymptotics.KSumControl.for_function(
        f, geo.k_frequency(level.E), tail_tol=min(tol["tail_tol"], 1e-15),
        resonance_margin=tol["resonance_margin"])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg):
    geo, level, f, tol, Ns = _ladder_run(cfg)
    windows = [spectra.enumerate_window(geo, N, level, f, tol["tail_tol"]) for N in Ns]
    header = ["N", "j", "nu", "lambda", "mult", "tail_bound"]
    # int(m), not astype(np.int64): a huge multiplicity stays exact, unwarned
    rows = [[win.N, int(j), float(nu), float(lam), int(m), win.tail_bound]
            for win in windows
            for j, nu, lam, m in zip(win.j, win.nu, win.lam, win.mult)]
    return 0, {"spectrum.csv": _csv(header, rows)}


def cmd_trace(cfg):
    geo, level, f, tol, Ns = _ladder_run(cfg)
    traces = [tracesum.y_n(geo, N, level, f, tol["tail_tol"]) for N in Ns]
    header = ["N", "re_y", "im_y", "tail_bound"]
    rows = [[t.N, t.value.real, t.value.imag, t.tail_bound] for t in traces]
    return 0, {"trace.csv": _csv(header, rows)}


def cmd_predict(cfg):
    geo, level, f, tol, Ns = _ladder_run(cfg)
    ctl = _k_control(geo, level, f, tol)
    preds = geo.predict(Ns, level, f, ctl, tol["support_tol"])
    header = ["N", "re_c0", "im_c0", "re_c1", "im_c1", "d", "k_tail"]
    rows = [[p.N, p.c0.real, p.c0.imag, p.c1.real, p.c1.imag, p.d, p.k_tail]
            for p in preds]
    return 0, {"predict.csv": _csv(header, rows)}


def cmd_residual(cfg):
    geo, level, f, tol, Ns = _ladder_run(cfg)
    ctl = _k_control(geo, level, f, tol)
    traces = [tracesum.y_n(geo, N, level, f, tol["tail_tol"]) for N in Ns]
    preds = geo.predict(Ns, level, f, ctl, tol["support_tol"])
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
    return (0 if report.passed else 1), {"residual.csv": _csv(header, rows + [trailer])}


def cmd_dynamics(cfg):
    geo = _geometry(cfg)
    level = _energy(cfg, geo)
    tol = _tolerances(cfg)
    orientation = cfg.get("orientation", "+")
    geometry.branch_sign(orientation)  # refuses all but "+" and "-"
    t_periods = _number(cfg.get("t_periods", 1.0), "t_periods", positive=True,
                        cap=_MAX_PERIODS)
    n_samples = _number(cfg.get("orbit_samples", 1024), "orbit_samples", integer=True,
                        cap=_MAX_ORBIT_SAMPLES)
    mc_samples = _number(cfg.get("mc_samples", 0), "mc_samples", integer=True,
                         cap=_MAX_MC_SAMPLES)
    if mc_samples == 1:  # a standard error needs two points
        raise ValidationError("mc_samples must be 0 or at least 2, got 1")
    seed = _number(cfg.get("seed", 0), "seed", integer=True)

    orbit_set = geo.closed_orbits(level.E, level.c)
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
    outputs = {}
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
            "numeric_holonomy": hol_num,
        }
        if hol_num is not None:
            numeric["action_identity_residual"] = dynamics.circle_distance(
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
        mc = dynamics.mc_liouville_volume(geo, level.E, mc_samples, seed)
        report["liouville_volume"] = {
            "closed_form": mc.closed_form, "mc_estimate": mc.estimate,
            "mc_stderr": mc.stderr, "rel_dev": mc.rel_dev, "note": mc.note,
        }
    else:
        report["liouville_volume"] = {
            "closed_form": dynamics.liouville_volume(geo, level.E)}

    outputs["invariants.json"] = json.dumps(report, indent=2) + "\n"
    return 0, outputs


def cmd_katok(cfg):
    geo = _geometry(cfg)
    if not isinstance(geo, geometry.Katok):
        raise ValidationError("the katok command needs geometry kind 'katok'")
    level = _energy(cfg, geo)
    tol = _tolerances(cfg)
    N, *more = _N_list(cfg, level) if "N" in cfg else [1]
    if more:
        raise ValidationError(f"the katok command takes one N ({{value}}), got {len(more) + 1}")
    k_list = cfg.get("k_list", [1, 2, 3, -1, -2, -3])
    if not isinstance(k_list, list) or not k_list or 0 in k_list:
        raise ValidationError("k_list must be a nonempty list of nonzero integers")
    k_list = [_number(k, "k_list entry", integer=True, signed=True, cap=_MAX_PERIODS)
              for k in k_list]

    for k in k_list:  # refused before the monodromy runs, in the assembly's order
        for branch in (1, -1):
            geo.check_resonance(k, branch, tol["resonance_margin"])

    import numpy as np
    monodromy, analytic = {}, {}
    max_mono_dev = 0.0
    for label, branch in (("+", 1), ("-", -1)):
        ana = analytic[label] = geo.return_map(level.E, branch)
        num = dynamics.katok_monodromy_numeric(geo, level.E, label, tol["ode_tol"])
        dev = float(np.max(np.abs(num - ana.matrix)))
        max_mono_dev = max(max_mono_dev, dev)
        monodromy[label] = {
            "analytic": ana.matrix.tolist(), "numeric": num.tolist(),
            "max_entry_dev": dev,
            "alpha": ana.alpha, "a": ana.a,
            "det_analytic": ana.det_i_minus_p,
            "det_numeric": float(np.linalg.det(np.eye(2) - num)),
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
            det_k = float(np.linalg.det(
                np.eye(2) - np.linalg.matrix_power(analytic[label].matrix, k)))
            assembled = asymptotics.general_c0_nondegenerate(
                Tsharp=inv[label].Tsharp, m=m, S=k * inv[label].S,
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


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "trace": cmd_trace,
    "predict": cmd_predict,
    "residual": cmd_residual,
    "dynamics": cmd_dynamics,
    "katok": cmd_katok,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="magtrace",
        description="Spectral and geometric sides of magnetic trace asymptotics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:  # a file in the way, or no permission
            raise ValidationError(f"cannot use --out {args.out} as a directory: {exc}") from exc
        code, outputs = _COMMANDS[args.command](cfg)
        for path in (os.path.join(args.out, name) for name in outputs):
            if os.path.isdir(path):
                raise ValidationError(f"cannot write {path}: a directory is in the way")
        try:
            for name, text in outputs.items():
                with open(os.path.join(args.out, name), "w", newline="") as fh:
                    fh.write(text)
        except OSError as exc:  # no space or no permission
            raise ValidationError(f"cannot write the outputs to {args.out}: {exc}") from exc
        return code
    except MagtraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def run() -> None:
    """Entry point of ``python -m magtrace`` and the ``magtrace`` script: run
    ``main()``, flush the standard streams and end the process with main's
    code through ``os._exit``, skipping interpreter teardown.  Every output
    is closed before main returns, and magtrace registers no atexit handler.
    An argparse ``SystemExit`` or an exception that escapes main exits
    normally, with its message or traceback."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
