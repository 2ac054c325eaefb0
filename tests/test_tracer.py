"""What the benchmark's tracer, ``perfbench/tracer.py``, reads of the program.

The tracer counts the ODE steps of each ``dynamics.integrate`` call as the
number of rows in each segment's dense output, and patches functions that
``uninstall()`` must put back.  It is loaded from its file under a name of
its own: ``perfbench/test_checks.py`` asserts that no module ``tracer`` is
loaded before its traced run.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from magtrace import Torus, dynamics

pytest.importorskip("scipy")  # Tracer.install() patches scipy's OdeSolution

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


def test_tracer_counts_the_steps_of_an_integration():
    geo = Torus()
    state, T = dynamics.canonical_orbit_state(geo, 2.0, "+")
    original = dynamics.integrate
    t = tracer.Tracer()
    t.install()
    try:
        assert dynamics.integrate is not original
        flow = dynamics.integrate(geo, state, 2.0, T)
    finally:
        t.uninstall()
    assert dynamics.integrate is original
    steps = sum(len(seg.sol.ts) - 1 for seg in flow.segments)
    assert steps > 0
    assert t.counts["dynamics.integrations"] == 1
    assert t.counts["dynamics.ode_steps"] == steps


def test_tracer_installs_in_a_process_that_imported_only_magtrace():
    # every module the tracer patches is registered by ``import magtrace``,
    # so install() finds it in sys.modules without a command having run
    code = ("import importlib.util\n"
            "import magtrace\n"
            "spec = importlib.util.spec_from_file_location('perfbench_tracer', "
            f"{str(_TRACER)!r})\n"
            "tracer = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(tracer)\n"
            "t = tracer.Tracer()\n"
            "t.install()\n"
            "from magtrace import cli, dynamics, testfn\n"
            "patched = [hasattr(f, '__wrapped__') for f in\n"
            "           (cli.main, dynamics.integrate, testfn.TestFunction.radius)]\n"
            "t.uninstall()\n"
            "restored = [not hasattr(f, '__wrapped__') for f in\n"
            "            (cli.main, dynamics.integrate, testfn.TestFunction.radius)]\n"
            "print(all(patched), all(restored))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "True"]
