"""What the benchmark's tracer, ``perfbench/tracer.py``, reads of the program.

The tracer counts the ODE steps of each ``dynamics.integrate`` call as the
number of rows in each segment's dense output, and patches functions that
``uninstall()`` must put back.  It is loaded from its file under a name of
its own: ``perfbench/test_checks.py`` asserts that no module ``tracer`` is
loaded before its traced run.
"""

import importlib.util
from pathlib import Path

import pytest

from magtrace import Torus, cli, dynamics  # noqa: F401  (install() patches cli.main)

pytest.importorskip("scipy")  # Tracer.install() patches scipy's OdeSolution

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
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
