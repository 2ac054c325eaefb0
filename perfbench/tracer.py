"""Per-layer spans for the traced run, recorded from outside the program.

``Tracer.install()`` wraps magtrace's public layer functions by patching
module and class attributes; ``uninstall()`` puts the originals back.  A
function imported by name into another magtrace module (``from .spectra
import enumerate_window``) is patched there too.  Only run.py's traced
mode imports this module, so the untraced run loads none of the wrappers.

Each span records (name, start, end, parent index).  Spans stay in memory
until the run writes them out at its end.  A layer's self time is its
spans' durations minus the time covered by their direct child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, span name, hook run on the result).  The span names
# are the layers of the per-layer metrics.
FUNCTIONS = [
    ("magtrace.cli", "main", "cli.main", None),
    ("magtrace.testfn", "from_config", "testfn.build", "_after_build"),
    ("magtrace.testfn", "make_gaussian", "testfn.build", "_count_build"),
    ("magtrace.testfn", "make_gaussian_modulated", "testfn.build", "_count_build"),
    ("magtrace.testfn", "make_fourier_bump", "testfn.build", "_count_build"),
    ("magtrace.spectra", "enumerate_window", "spectra.window", "_after_window"),
    ("magtrace.tracesum", "y_n", "tracesum.sum", None),
    ("magtrace.asymptotics", "torus_c01", "asymptotics.ksum", "_after_ksum"),
    ("magtrace.asymptotics", "sphere_c01", "asymptotics.ksum", "_after_ksum"),
    ("magtrace.asymptotics", "hyperbolic_c01", "asymptotics.ksum", "_after_ksum"),
    ("magtrace.asymptotics", "katok_c0", "asymptotics.ksum", "_after_ksum"),
    ("magtrace.asymptotics", "residual_report", "asymptotics.residual", None),
    ("magtrace.dynamics", "integrate", "dynamics.integrate", "_after_integrate"),
    ("magtrace.dynamics", "numeric_holonomy", "dynamics.holonomy", None),
    ("magtrace.dynamics", "katok_monodromy_numeric", "dynamics.monodromy", None),
    ("magtrace.dynamics", "mc_liouville_volume", "dynamics.mc_volume", None),
]
# (module, class, method, span name, hook)
METHODS = [
    ("magtrace.testfn", "TestFunction", "radius", "testfn.radius", "_after_radius"),
    ("magtrace.dynamics", "FlowResult", "sample", "dynamics.sample", None),
]

# metric name -> (unit, span name whose self time it sums, or None)
PER_LAYER = {
    "cli.commands": ("count", None),
    "cli.self_s": ("s", "cli.main"),
    "cli.output_bytes": ("B", None),
    "testfn.builds": ("count", None),
    "testfn.build_s": ("s", "testfn.build"),
    "testfn.radius_calls": ("count", None),
    "testfn.radius_s": ("s", "testfn.radius"),
    "testfn.radius_unique_ratio": ("ratio", None),
    "testfn.phi_points": ("count", None),
    "testfn.phi_s": ("s", "testfn.phi"),
    "spectra.windows": ("count", None),
    "spectra.rungs_kept": ("count", None),
    "spectra.window_s": ("s", "spectra.window"),
    "tracesum.calls": ("count", None),
    "tracesum.sum_s": ("s", "tracesum.sum"),
    "asymptotics.ksum_calls": ("count", None),
    "asymptotics.k_terms": ("count", None),
    "asymptotics.ksum_s": ("s", "asymptotics.ksum"),
    "asymptotics.residual_s": ("s", "asymptotics.residual"),
    "dynamics.integrations": ("count", None),
    "dynamics.ode_steps": ("count", None),
    "dynamics.integrate_s": ("s", "dynamics.integrate"),
    "dynamics.dense_calls": ("count", None),
    "dynamics.holonomy_s": ("s", "dynamics.holonomy"),
    "dynamics.sample_s": ("s", "dynamics.sample"),
    "dynamics.monodromy_s": ("s", "dynamics.monodromy"),
    "dynamics.mc_volume_s": ("s", "dynamics.mc_volume"),
}


class Tracer:
    """Spans and counters of the traced passes."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counts = Counter()
        self.radius_keys = set()
        self._stack = []
        self._saved = []         # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------

    def _traced(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            idx = len(tracer.spans)
            tracer.spans.append([name, time.perf_counter(), None, parent])
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[idx][2] = time.perf_counter()
            if after is not None:
                result = after(result, args, kwargs, parent)
            return result
        return wrapper

    # -- per-function bookkeeping -------------------------------------------

    def _count_build(self, f, args, kwargs, parent):
        # one build per outermost testfn.build span
        if parent is None or self.spans[parent][0] != "testfn.build":
            self.counts["testfn.builds"] += 1
        return f

    def _after_build(self, f, args, kwargs, parent):
        # hand the program a function whose phi is traced, so that the
        # phi calls the sum makes are counted
        f = self._count_build(f, args, kwargs, parent)
        phi = f.phi
        tracer = self

        def traced_phi(x):
            tracer.counts["testfn.phi_points"] += int(np.size(x))
            return phi(x)
        return dataclasses.replace(f, phi=self._traced("testfn.phi", traced_phi))

    def _after_radius(self, r, args, kwargs, parent):
        f, tol = args[0], (args[1] if len(args) > 1 else kwargs["tol"])
        self.counts["testfn.radius_calls"] += 1
        self.radius_keys.add((f.kind, tuple(sorted(f.params.items())), tol))
        return r

    def _after_window(self, win, args, kwargs, parent):
        self.counts["spectra.windows"] += 1
        self.counts["spectra.rungs_kept"] += int(len(win.j))
        return win

    def _after_ksum(self, pred, args, kwargs, parent):
        self.counts["asymptotics.ksum_calls"] += 1
        ctl = next(a for a in list(args) + list(kwargs.values()) if hasattr(a, "k_max"))
        self.counts["asymptotics.k_terms"] += 2 * ctl.k_max + 1
        return pred

    def _after_integrate(self, flow, args, kwargs, parent):
        self.counts["dynamics.integrations"] += 1
        self.counts["dynamics.ode_steps"] += sum(len(seg.sol.interpolants)
                                                 for seg in flow.segments)
        return flow

    def _counted(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- install / uninstall -------------------------------------------------

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        from scipy.integrate import OdeSolution

        modules = [m for n, m in sys.modules.items()
                   if n == "magtrace" or n.startswith("magtrace.")]
        for mod_name, attr, span, hook in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr, None)
            if original is None:
                continue
            wrapped = self._traced(span, original, hook and getattr(self, hook))
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, name, wrapped)
        for mod_name, cls_name, attr, span, hook in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            wrapped = self._traced(span, getattr(cls, attr), hook and getattr(self, hook))
            self._set(cls, attr, wrapped)
        self._set(OdeSolution, "__call__",
                  self._counted("dynamics.dense_calls", OdeSolution.__call__))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- per-pass metrics ----------------------------------------------------

    def pass_metrics(self, first_span: int) -> dict:
        """Per-layer metrics over the spans recorded since ``first_span``.

        Counters are read and reset by the caller between passes.
        """
        spans = self.spans[first_span:]
        child_time = defaultdict(float)
        for name, start, end, parent in spans:
            if parent is not None and parent >= first_span:
                child_time[parent] += end - start
        self_time = defaultdict(float)
        for i, (name, start, end, _) in enumerate(spans, start=first_span):
            self_time[name] += (end - start) - child_time[i]
        out = {}
        for metric, (unit, span) in PER_LAYER.items():
            out[metric] = self_time[span] if span else float(self.counts[metric])
        out["cli.commands"] = float(sum(1 for s in spans if s[0] == "cli.main"))
        out["tracesum.calls"] = float(sum(1 for s in spans if s[0] == "tracesum.sum"))
        calls = self.counts["testfn.radius_calls"]
        out["testfn.radius_unique_ratio"] = len(self.radius_keys) / calls if calls else 0.0
        return out

    def reset_counts(self) -> None:
        self.counts.clear()
        self.radius_keys.clear()
