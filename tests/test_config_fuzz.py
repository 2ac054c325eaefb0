"""Fuzz of config input through ``cli.main``, in-process.

Each example takes a small valid config, replaces one of its numbers (or the
object holding it) with a hostile value, and runs every command that reads
that config.  Whatever the value, a run either succeeds or fails with exit
code 1..5 and exactly one ``error:`` line, leaves no output behind after a
failure and raises no ``RuntimeWarning``.  The one other outcome is
``residual``'s exit 1, a failed slope check: it writes ``residual.csv`` and
nothing on stderr.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from magtrace.cli import main

SQRT2 = math.sqrt(2.0)
TOL = {"tail_tol": 1e-14}
DYNAMICS = {"t_periods": 1.0, "orbit_samples": 64, "mc_samples": 100, "seed": 0,
            "tolerances": TOL}
RESIDUAL = {"test_function": {"kind": "gaussian", "s": 1.0},
            "N": {"start": 40, "stop": 400, "step": 40}, "tolerances": TOL}

# (config, commands that read it)
BASES = [
    ({"schema": "magtrace/1", "geometry": {"kind": "torus"}, "E": 2.0,
      "test_function": {"kind": "gaussian", "s": 1.0}, "N": {"value": 40},
      "tolerances": TOL}, ("spectrum", "trace", "predict")),
    ({"schema": "magtrace/1", "geometry": {"kind": "sphere", "R": 0.5}, "E": SQRT2,
      "test_function": {"kind": "fourier_bump", "tau0": math.pi, "w": 0.5},
      "N": {"list": [40, 41]}, "tolerances": TOL}, ("spectrum", "trace", "predict")),
    ({"schema": "magtrace/1", "geometry": {"kind": "hyperbolic", "R": 1.0, "genus": 2},
      "E": 1.2, "test_function": {"kind": "gaussian_modulated", "s": 1.0, "b": 0.5},
      "N": {"start": 40, "stop": 60, "step": 10}, "tolerances": TOL},
     ("spectrum", "trace", "predict")),
    ({"schema": "magtrace/1", "geometry": {"kind": "katok", "eps": 0.3}, "E": SQRT2,
      "N": {"value": 3}, "k_list": [1, -2], "tolerances": TOL}, ("katok",)),
    *(({"schema": "magtrace/1", "geometry": geometry, "E": E, **DYNAMICS}, ("dynamics",))
      for geometry, E in (({"kind": "torus"}, 2.0), ({"kind": "sphere", "R": 0.5}, SQRT2),
                          ({"kind": "hyperbolic", "R": 1.0, "genus": 2}, 1.2),
                          ({"kind": "katok", "eps": 0.3}, SQRT2))),
    *(({"schema": "magtrace/1", "geometry": geometry, "E": E, **RESIDUAL}, ("residual",))
      for geometry, E in (({"kind": "torus"}, 2.0), ({"kind": "sphere", "R": 0.5}, SQRT2))),
]
RUN_KEYS = ("t_periods", "orbit_samples", "mc_samples", "seed")
TOLERANCE_KEYS = ("tail_tol", "ode_tol", "k_max", "resonance_margin", "support_tol")
HOSTILE = ["abc", True, False, None, [1.0], 0, -0.0, 1e-300, -1e-300, 1e300, -1e300,
           10**400, -10**400, math.nan, math.inf, -math.inf]


def _paths(cfg):
    """Every place one number of cfg sits, as a key path; the N object,
    each tolerance and each dynamics run key count too."""
    out = [("E",), ("N",), *(("tolerances", key) for key in TOLERANCE_KEYS)]
    for obj in ("geometry", "test_function", "N"):
        for key, value in cfg.get(obj, {}).items():
            if isinstance(value, list):
                out += [(obj, key, i) for i in range(len(value))]
            elif key != "kind":
                out.append((obj, key))
    if "k_list" in cfg:
        out += [("k_list",), *(("k_list", i) for i in range(len(cfg["k_list"])))]
    return out + [(key,) for key in RUN_KEYS if key in cfg]


@st.composite
def _mutations(draw):
    cfg, commands = draw(st.sampled_from(BASES))
    cfg = json.loads(json.dumps(cfg))
    path = draw(st.sampled_from(_paths(cfg)))
    value = draw(st.sampled_from(HOSTILE))
    holder = cfg
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return cfg, commands


@settings(derandomize=True, max_examples=800, deadline=None)
@given(_mutations())
def test_hostile_config_numbers_fail_cleanly(case):
    cfg, commands = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        for sub in commands:
            out, err = Path(tmp) / sub, io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main([sub, "--config", str(path), "--out", str(out)])
            assert 0 <= code <= 5
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
            if sub == "residual" and code == 1:
                assert not err.getvalue()
                assert [p.name for p in out.iterdir()] == ["residual.csv"]
            elif code:
                assert err.getvalue().startswith("error: ")
                assert err.getvalue().count("\n") == 1
                assert not out.exists() or not any(out.iterdir())
