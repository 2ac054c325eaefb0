"""Command-line front end.

Subcommands: spectrum | trace | predict | residual | dynamics | katok; the
last two are ``dynamics.cmd_dynamics`` and ``dynamics.cmd_katok``, so only
they load the flow.  The command line is ``magtrace SUB --config PATH
[--out DIR]``, read by ``_read_argv`` with argparse's messages but without
its import.  Every run is driven by a JSON config (schema "magtrace/1");
unknown keys are rejected so archived configs replay byte-identically.  A
command renders its outputs in memory; they are written at the end, once
no directory takes an output's name, so only a failing write can leave
output behind.  Floats are rendered with 17 significant digits and LF line
endings so identical configs produce byte-identical outputs.
"""

from __future__ import annotations

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
# caps on an N grid and on the periods of a dynamics run, checked before
# anything is allocated or integrated
_MAX_N_VALUES = 10_000
_MAX_PERIODS = 1_000  # also the largest |k| of a katok k_list


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


# the orbit commands live with the flow they report on, which only they load
_COMMANDS = {
    "spectrum": cmd_spectrum,
    "trace": cmd_trace,
    "predict": cmd_predict,
    "residual": cmd_residual,
    "dynamics": lambda cfg: dynamics.cmd_dynamics(cfg),
    "katok": lambda cfg: dynamics.cmd_katok(cfg),
}

_CHOICES = "{" + ",".join(_COMMANDS) + "}"
_USAGE = f"usage: magtrace [-h] {_CHOICES} ..."
_HELP = (f"{_USAGE}\n\nSpectral and geometric sides of magnetic trace asymptotics\n\n"
         f"positional arguments:\n  {_CHOICES}\n\noptions:\n"
         "  -h, --help            show this help message and exit\n")
_SUB_OPTIONS = ("\n\noptions:\n"
                "  -h, --help       show this help message and exit\n"
                "  --config CONFIG  JSON run configuration\n"
                "  --out OUT        output directory\n")


def _usage_exit(usage: str, prog: str, message: str):
    print(f"{usage}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _read_argv(argv) -> tuple:
    """(command, config path, output directory) of ``SUB --config PATH [--out DIR]``.

    An option takes its value as the next argument or after ``=``, and the
    last of a repeated option wins.  ``-h`` or ``--help`` prints the usage and
    ends with SystemExit(0); a usage error prints the usage and one
    ``error:`` line, as argparse words them, and ends with SystemExit(2).
    """
    if not argv:
        _usage_exit(_USAGE, "magtrace", "the following arguments are required: command")
    sub, *rest = argv
    if sub in ("-h", "--help"):
        print(_HELP, end="")
        raise SystemExit(0)
    if sub not in _COMMANDS:
        _usage_exit(_USAGE, "magtrace", f"argument command: invalid choice: {sub!r} "
                    f"(choose from {', '.join(map(repr, _COMMANDS))})")
    usage, prog = f"usage: magtrace {sub} [-h] --config CONFIG [--out OUT]", f"magtrace {sub}"
    values, unknown = {"--out": "."}, []
    args = iter(rest)
    for arg in args:
        if arg in ("-h", "--help"):
            print(usage + _SUB_OPTIONS, end="")
            raise SystemExit(0)
        name, inline, value = arg.partition("=")
        if name not in ("--config", "--out"):
            unknown.append(arg)
            continue
        if not inline:
            value = next(args, None)
            if value is None or (value.startswith("-") and value != "-"):  # an option
                _usage_exit(usage, prog, f"argument {name}: expected one argument")
        values[name] = value
    if "--config" not in values:
        _usage_exit(usage, prog, "the following arguments are required: --config")
    if unknown:
        _usage_exit(_USAGE, "magtrace", f"unrecognized arguments: {' '.join(unknown)}")
    return sub, values["--config"], values["--out"]


def main(argv=None) -> int:
    sub, config, out = _read_argv(sys.argv[1:] if argv is None else argv)
    try:
        cfg = _load_config(config)
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:  # a file in the way, or no permission
            raise ValidationError(f"cannot use --out {out} as a directory: {exc}") from exc
        code, outputs = _COMMANDS[sub](cfg)
        for path in (os.path.join(out, name) for name in outputs):
            if os.path.isdir(path):
                raise ValidationError(f"cannot write {path}: a directory is in the way")
        try:
            for name, text in outputs.items():
                with open(os.path.join(out, name), "w", newline="") as fh:
                    fh.write(text)
        except OSError as exc:  # no space or no permission
            raise ValidationError(f"cannot write the outputs to {out}: {exc}") from exc
        return code
    except MagtraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def run() -> None:
    """Entry point of ``python -m magtrace`` and the ``magtrace`` script: run
    ``main()``, flush the standard streams and end the process with main's
    code through ``os._exit``, skipping interpreter teardown.  Every output
    is closed before main returns, and magtrace registers no atexit handler.
    The ``SystemExit`` of a usage error or of ``--help``, or an exception
    that escapes main, exits normally, with its message or traceback."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
