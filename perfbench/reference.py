"""Reference figures: the ROADMAP baseline table, measured again on this host.

    python3 perfbench/reference.py

Prints a markdown table: cold start-up, the cold CLI commands the
baseline names, single layer calls in-process (median of five), the
``--threads 2`` against ``--threads 1`` bump sweep, and the ``src/`` line
count.  It is not part of the benchmark's metrics; README.md quotes its
output.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

from run import PINNED, child_env, import_split  # noqa: E402


def _cold(argv, reps=3, env=None) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *argv], env=env or child_env(), cwd=ROOT,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _warm(fn, reps=5) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cli(tmp, sub, cfg, *extra) -> list:
    path = Path(tmp) / f"{sub}-{len(os.listdir(tmp))}.json"
    path.write_text(json.dumps(cfg))
    return ["-m", "magtrace", sub, "--config", str(path), "--out", str(Path(tmp) / "out"), *extra]


def main() -> int:
    os.environ.update(PINNED)
    import magtrace as mt
    from magtrace import dynamics

    rows = []
    split = import_split(child_env())
    rows.append(("`import magtrace`, fresh process (median of 5)",
                 f"{_cold(['-c', 'import magtrace'], 5):.2f} s; importtime self: numpy "
                 f"{split['import.numpy_s']:.2f} s, scipy {split['import.scipy_s']:.2f} s, "
                 f"rest {split['import.magtrace_s']:.2f} s"))
    rows.append(("`import numpy` alone, fresh process", f"{_cold(['-c', 'import numpy'], 5):.2f} s"))
    torus = {"kind": "torus"}
    base = {"schema": "magtrace/1", "geometry": torus, "E": 2.0}
    bump = {"kind": "fourier_bump", "tau0": 2.0, "w": 0.5}
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        res = dict(base, test_function={"kind": "gaussian", "s": 1.0},
                   N={"start": 40, "stop": 400, "step": 40})
        rows.append(("`magtrace residual`, torus, N=40..400 (cold)",
                     f"{_cold(_cli(tmp, 'residual', res)):.2f} s"))
        sweep = dict(base, test_function=bump, N={"start": 40, "stop": 400, "step": 40})
        one = _cold(_cli(tmp, "trace", sweep), 1)
        two = _cold(_cli(tmp, "trace", sweep, "--threads", "2"), 1)
        rows.append(("`magtrace trace`, torus, `fourier_bump`, 10 values of N (cold)",
                     f"{one:.2f} s with `--threads 1`, {two:.2f} s with `--threads 2` "
                     f"({one / two:.2f}x)"))

    lev2 = mt.EnergyLevel.from_E(2.0)
    f = mt.make_fourier_bump(2.0, 0.5)
    rows.append(("`y_n` with `fourier_bump` at N=400 / its radius search",
                 f"{_warm(lambda: mt.y_n(mt.TorusModel(), 400, lev2, f)) * 1e3:.0f} ms / "
                 f"{_warm(lambda: f.radius(1e-14)) * 1e3:.0f} ms"))
    rows.append(("`make_fourier_bump`", f"{_warm(lambda: mt.make_fourier_bump(2.0, 0.5)) * 1e3:.0f} ms"))
    g = mt.make_gaussian(1.0)
    ladders = ((mt.TorusModel(), 2.0), (mt.SphereModel(R=0.5), math.sqrt(2.0)),
               (mt.HyperbolicModel(R=1.0, genus=2), 1.2))
    big = [_warm(lambda: mt.y_n(m, 10**6, mt.EnergyLevel.from_E(E), g)) for m, E in ladders]
    small = [_warm(lambda: mt.y_n(m, 40_000, mt.EnergyLevel.from_E(E), g)) for m, E in ladders]
    rows.append(("`y_n` gaussian at N=1e6, torus / sphere / hyperbolic",
                 " / ".join(f"{t * 1e3:.1f}" for t in big) + " ms; at N=4e4: "
                 + " / ".join(f"{t * 1e3:.2f}" for t in small) + " ms"))
    geo = dynamics.GeometrySpec.katok(1.0 / math.sqrt(5.0))
    state, T = dynamics.canonical_orbit_state(geo, math.sqrt(2.0), "+")
    flow = dynamics.integrate(geo, state, math.sqrt(2.0), T, 1e-11)
    rows.append(("`integrate`, katok, one period / `numeric_holonomy`",
                 f"{_warm(lambda: dynamics.integrate(geo, state, math.sqrt(2.0), T, 1e-11)) * 1e3:.0f} ms / "
                 f"{_warm(lambda: dynamics.numeric_holonomy(geo, flow)) * 1e3:.0f} ms"))
    lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "magtrace").glob("*.py")))
    rows.append(("`src/` size", f"{lines:,} lines"))

    print("| what | now |\n| --- | --- |")
    for what, now in rows:
        print(f"| {what} | {now} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
