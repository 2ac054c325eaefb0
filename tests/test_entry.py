"""The process entry points and what a fresh process runs.

``python -m magtrace`` and the ``magtrace`` script both end through
``cli.run``, which ends the process with ``os._exit`` once ``main`` returns;
these tests run it in fresh processes and check that every output, exit
code and message survives the skipped teardown.  A module that ``import
magtrace`` registered but no code has read yet is a lazy module:
``type(sys.modules[name]) is types.ModuleType`` holds only once it has run,
and testing that runs nothing.  The last tests check that every package
name the benchmark's scripts under ``perfbench/`` read still resolves: its
tracer skips a name it cannot find, so a missing one would fail nothing.
"""

import ast
import dataclasses
import importlib
import importlib.util
import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import magtrace
import test_golden_outputs as golden
from magtrace import Torus, cli, dynamics, testfn

ROOT = Path(__file__).resolve().parents[1]

# a snippet for `python -c`: the magtrace modules whose code has run
_RAN = ("import sys, types\n"
        "def ran():\n"
        "    return sorted(n for n, m in sys.modules.items()\n"
        "                  if n.split('.')[0] == 'magtrace' and type(m) is types.ModuleType)\n")


def _python(code, env=None):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)


def _magtrace(*args):
    return subprocess.run([sys.executable, "-m", "magtrace", *args],
                          capture_output=True, text=True)


def _write_cfg(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_console_script_is_the_function_main_module_calls(monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["magtrace"]
    assert entry == "magtrace.cli:run"
    calls = []
    monkeypatch.setattr(cli, "run", lambda: calls.append("run"))
    runpy.run_module("magtrace", run_name="__main__")
    assert calls == ["run"]


@pytest.mark.parametrize("name", [
    "ladder_sweep/residual-torus-small",
    "bump_window/trace-torus-sweep",
    "orbit_dynamics/dynamics-torus-1period",
    "orbit_dynamics/katok-report",
    "ladder_sweep/residual-torus-large",  # exits 1: its residual fails the gate
])
def test_cold_outputs_match_golden_digests(name, tmp_path):
    want = golden._golden()
    if want["numpy"] != np.__version__:
        pytest.skip(f"digests come from numpy {want['numpy']}, this is {np.__version__}")
    want = want["commands"][name]
    sub, config = golden._commands()[name]
    out = tmp_path / "out"
    proc = _magtrace(sub, "--config", _write_cfg(tmp_path, config), "--out", str(out))
    assert (proc.returncode, proc.stdout, proc.stderr) == (want["exit"], "", "")
    assert {p.name: golden._sha256(p.read_bytes()) for p in out.iterdir()} == want["files"]


def test_cold_exit_2_keeps_its_error_line(tmp_path):
    bad = _write_cfg(tmp_path, {"schema": "magtrace/1", "geometry": {"kind": "torus"},
                                "E": 2.0, "colour": "blue"})
    proc = _magtrace("dynamics", "--config", bad, "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stderr == "error: unknown config keys: ['colour']\n"
    assert not (tmp_path / "out").exists()

    good = _write_cfg(tmp_path, {"schema": "magtrace/1", "geometry": {"kind": "torus"},
                                 "E": 2.0, "orbit_samples": 16})
    blocker = tmp_path / "blocker"
    blocker.write_text("a file\n")
    proc = _magtrace("dynamics", "--config", good, "--out", str(blocker))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: cannot use --out {blocker} as a directory")
    assert proc.stderr.count("\n") == 1 and blocker.read_text() == "a file\n"


def test_cold_usage_error_keeps_argparse_message():
    proc = _magtrace("dynamics")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("usage: magtrace dynamics")
    assert proc.stderr.endswith(
        "error: the following arguments are required: --config\n")


def test_cold_exit_5_keeps_its_error_line(tmp_path):
    # a thousand torus periods overrun the energy-drift budget at the default
    # ode_tol, a known limit of dynamics.integrate
    cfg = _write_cfg(tmp_path, {"schema": "magtrace/1", "geometry": {"kind": "torus"},
                                "E": 2.0, "t_periods": 1000, "orbit_samples": 0})
    proc = _magtrace("dynamics", "--config", cfg, "--out", str(tmp_path / "out"))
    assert proc.returncode == 5
    assert proc.stderr.startswith("error: energy drift ") and proc.stderr.count("\n") == 1
    assert list((tmp_path / "out").iterdir()) == []


def test_run_flushes_what_main_wrote():
    # with block-buffered streams, the text main leaves in their buffers is
    # written before os._exit ends the process, and main's code is the exit code
    code = ("import runpy, sys\n"
            "from magtrace import cli\n"
            "def main():\n"
            "    print('out', end='')\n"
            "    print('err', end='', file=sys.stderr)\n"
            "    return 3\n"
            "cli.main = main\n"
            "runpy.run_module('magtrace', run_name='__main__')\n"
            "print('not reached')\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = _python(code, env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "out", "err")


def test_exception_escaping_main_keeps_traceback_and_exit_1():
    code = ("import runpy\n"
            "from magtrace import cli\n"
            "def main():\n"
            "    raise RuntimeError('escaped main')\n"
            "cli.main = main\n"
            "runpy.run_module('magtrace', run_name='__main__')\n")
    proc = _python(code)
    assert proc.returncode == 1
    assert proc.stderr.startswith("Traceback (most recent call last):\n")
    assert proc.stderr.endswith("RuntimeError: escaped main\n")


def test_import_and_setup_work_leave_the_commands_unrun():
    # what perfbench/setup_probe.py does: a geometry, an energy level and a
    # gaussian, and no spectral, coefficient, flow or CLI code
    code = (_RAN + "import json, magtrace\n"
            "from magtrace import testfn\n"
            "on_import = ran()\n"
            "magtrace.Torus()\n"
            "magtrace.EnergyLevel.from_E(2.0)\n"
            "testfn.from_config({'kind': 'gaussian', 's': 1.0})\n"
            "print(json.dumps([on_import, ran(), 'numpy' in sys.modules]))\n")
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    on_import, after_setup, numpy_loaded = json.loads(proc.stdout)
    assert on_import == ["magtrace", "magtrace.errors"]
    assert after_setup == ["magtrace", "magtrace.errors", "magtrace.floats",
                           "magtrace.geometry", "magtrace.testfn"]
    assert not numpy_loaded


def test_geometry_setup_loads_no_dataclasses():
    # what perfbench/setup_probe.py builds for the orbit configs; the records
    # are errors.record classes, so dataclasses (and its inspect, ast and dis)
    # stays unimported
    code = ("import sys, magtrace\n"
            "magtrace.Torus()\n"
            "magtrace.Katok(0.4)\n"
            "magtrace.EnergyLevel.from_E(2.0)\n"
            "print('dataclasses' in sys.modules)\n")
    proc = _python(code)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


# imports a cold command is checked for: dataclasses (with its inspect, ast
# and dis), argparse, numpy.polynomial and numpy.random
_WATCHED = ("dataclasses", "argparse", "numpy.polynomial", "numpy.random")


def _cold_run(tmp_path, name, watch=_WATCHED):
    """`python -m magtrace` on the golden command ``name``, with os._exit
    wrapped to report just before the process ends: [exit code, modules run,
    the ``watch`` modules imported] and the names of the outputs."""
    sub, config = golden._commands()[name]
    argv = ["magtrace", sub, "--config", _write_cfg(tmp_path, config),
            "--out", str(tmp_path / "out")]
    code = (_RAN + "import json, os, runpy\n"
            "real_exit = os._exit\n"
            "def report(code):\n"
            f"    watched = [n for n in {tuple(watch)!r} if n in sys.modules]\n"
            "    print(json.dumps([code, ran(), watched]), flush=True)\n"
            "    real_exit(code)\n"
            "os._exit = report\n"
            f"sys.argv = {argv!r}\n"
            "runpy.run_module('magtrace', run_name='__main__')\n")
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), sorted(p.name for p in (tmp_path / "out").iterdir())


def test_cold_gaussian_residual_runs_only_its_modules(tmp_path):
    # no deformed sphere, no bump, no orbit code, and no argparse
    assert _cold_run(tmp_path, "ladder_sweep/residual-torus-small") == ([0, [
        "magtrace", "magtrace.asymptotics", "magtrace.cli", "magtrace.errors",
        "magtrace.floats", "magtrace.geometry", "magtrace.spectra", "magtrace.testfn",
        "magtrace.tracesum"], ["dataclasses"]], ["residual.csv"])


def test_cold_bump_trace_runs_bump_but_not_katok(tmp_path):
    (code, ran, watched), outputs = _cold_run(tmp_path, "bump_window/trace-torus-sweep")
    assert (code, outputs) == (0, ["trace.csv"])
    assert "magtrace.bump" in ran and "magtrace.katok" not in ran
    assert "argparse" not in watched


def test_cold_dynamics_runs_no_spectral_module(tmp_path):
    # nor the deformed sphere, the bump, argparse or numpy.polynomial
    assert _cold_run(tmp_path, "orbit_dynamics/dynamics-torus-1period") == ([0, [
        "magtrace", "magtrace.cli", "magtrace.dynamics", "magtrace.errors",
        "magtrace.floats", "magtrace.geometry", "magtrace.ode"], []],
        ["invariants.json", "orbit.csv"])


@pytest.mark.parametrize("name,watched", [("dynamics-torus-1period", []),
                                          ("dynamics-sphere-1period", ["numpy.random"])])
def test_cold_dynamics_imports_numpy_random_only_to_draw(tmp_path, name, watched):
    # the torus's Monte Carlo area draws nothing, so no generator is built;
    # the sphere's draws its polar angles
    (code, _, got), _ = _cold_run(tmp_path, f"orbit_dynamics/{name}")
    assert (code, got) == (0, watched)


def test_cold_katok_runs_no_spectral_module(tmp_path):
    assert _cold_run(tmp_path, "orbit_dynamics/katok-report") == ([0, [
        "magtrace", "magtrace.asymptotics", "magtrace.cli", "magtrace.dynamics",
        "magtrace.errors", "magtrace.floats", "magtrace.geometry", "magtrace.katok",
        "magtrace.ode"], []], ["katok_report.csv", "katok_report.json"])


def test_cold_katok_volume_predict_runs_no_flow_code_and_no_numpy(tmp_path):
    # the zero-period c0 reads the shell volume from Geometry.liouville_volume,
    # so a gaussian predict on the deformed sphere runs no dynamics or ode code
    # and imports no numpy
    assert _cold_run(tmp_path, "predict/katok-zero-period", ("numpy",)) == ([0, [
        "magtrace", "magtrace.asymptotics", "magtrace.cli", "magtrace.errors",
        "magtrace.floats", "magtrace.geometry", "magtrace.katok", "magtrace.testfn"], []],
        ["predict.csv"])


# ---------------------------------------------------------------------------
# the names the benchmark reads
# ---------------------------------------------------------------------------

PERFBENCH = ROOT / "perfbench"

# tracer entries naming functions the package no longer has, which the
# tracer skips; the benchmark's next change drops or renames them
_STALE_TRACER_ENTRIES = {("magtrace.testfn", "make_fourier_bump"),
                         ("magtrace.asymptotics", "torus_c01"),
                         ("magtrace.asymptotics", "sphere_c01"),
                         ("magtrace.asymptotics", "hyperbolic_c01")}


def _resolves(dotted: str) -> bool:
    """Whether a dotted name under magtrace, like magtrace.dynamics.integrate, exists."""
    obj = magtrace
    for part in dotted.split(".")[1:]:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_every_entry_the_tracer_wraps_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = {(module, attr) for module, attr, *_ in tracer.FUNCTIONS
               if not _resolves(f"{module}.{attr}")}
    assert missing == _STALE_TRACER_ENTRIES
    assert [(cls, attr) for module, cls, attr, *_ in tracer.METHODS
            if not _resolves(f"{module}.{cls}.{attr}")] == []


def _package_names(path) -> set:
    """The dotted magtrace names a script reads, as magtrace.GeometrySpec.torus:
    each attribute chain on a name it imported from the package."""
    tree = ast.parse(path.read_text())
    roots = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update({a.asname or a.name: a.name for a in node.names
                          if a.name == "magtrace"})
        elif isinstance(node, ast.ImportFrom) and node.module == "magtrace":
            roots.update({a.asname or a.name: f"magtrace.{a.name}" for a in node.names})
    names = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in roots:
            names.add(".".join([roots[node.id], *reversed(parts)]))
    return names


@pytest.mark.parametrize("script,some", [
    ("setup_probe.py", "magtrace.GeometrySpec.katok"),
    ("reference.py", "magtrace.dynamics.canonical_orbit_state")])
def test_every_package_name_a_benchmark_script_reads_resolves(script, some):
    names = _package_names(PERFBENCH / script)
    assert some in names
    assert sorted(n for n in names if not _resolves(n)) == []


@pytest.mark.parametrize("spec", [{"kind": "gaussian", "s": 1.0},
                                  {"kind": "gaussian_modulated", "s": 1.0, "b": 0.5},
                                  {"kind": "fourier_bump", "tau0": 2.0, "w": 0.5}])
def test_the_tracer_can_swap_a_test_functions_phi(spec):
    f = testfn.from_config(spec)
    g = dataclasses.replace(f, phi=abs)
    assert g.phi is abs and g.phi_hat is f.phi_hat


def test_an_integration_keeps_the_dense_output_the_tracer_counts():
    geo = Torus()
    state, T = dynamics.canonical_orbit_state(geo, 2.0)
    flow = dynamics.integrate(geo, state, 2.0, T)
    assert len(flow.segments[0].sol.interpolants) > 0
    assert flow.sample(3)[1].shape == (4, 3)


def test_every_package_export_resolves():
    assert [n for names in magtrace._EXPORTS.values() for n in names
            if not _resolves(f"magtrace.{n}")] == []


def _squares_less_one(tree) -> list:
    """Each x * x - 1 or x ** 2 - 1 in a parsed module, as source text."""
    def square(n):
        return isinstance(n, ast.BinOp) and (
            (isinstance(n.op, ast.Mult) and ast.dump(n.left) == ast.dump(n.right))
            or (isinstance(n.op, ast.Pow) and getattr(n.right, "value", None) == 2))
    return [ast.unparse(n) for n in ast.walk(tree)
            if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Sub) and square(n.left)
            and getattr(n.right, "value", None) == 1]


def test_two_pi_sqrt2_and_e_squared_less_one_are_each_stated_once():
    # a module-level name bound to a value of numbers and math alone is 2pi
    # only in floats and sqrt(2) only in katok; E^2 - 1 is formed only as
    # geometry.momentum_sq's (E-1)(E+1), never as E * E - 1, which cancels
    stated, squares = {}, []
    for path in sorted((ROOT / "src" / "magtrace").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                try:
                    value = eval(compile(ast.Expression(node.value), str(path), "eval"),
                                 {"__builtins__": {}, "math": math})
                except NameError:  # reads a name besides math
                    continue
                for name, want in (("2pi", 2.0 * math.pi), ("sqrt2", math.sqrt(2.0))):
                    if type(value) is float and value == want:
                        stated.setdefault(name, []).append(path.stem)
        squares += [f"{path.stem}: {text}" for text in _squares_less_one(tree)]
    assert stated == {"2pi": ["floats"], "sqrt2": ["katok"]}
    assert squares == []
