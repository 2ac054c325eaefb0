"""The three benchmark workloads as lists of ``magtrace`` commands.

Every command is one operation.  Configs are fixed: the workload seed only
sets the Monte Carlo seed of the ``dynamics`` runs (the oracles take it
separately, to pick the points they sample).  It never touches an N grid,
because the residual slope fit depends on the grid.
"""

from __future__ import annotations

import dataclasses
import math

SQRT2 = math.sqrt(2.0)
EPS = 1.0 / math.sqrt(5.0)          # Katok deformation used throughout
TSHARP = 2.0 * math.pi * SQRT2 / (1.0 - EPS * EPS)
SCHEMA = "magtrace/1"

GAUSSIAN = {"kind": "gaussian", "s": 1.0}
TOL = {"tail_tol": 1e-14, "ode_tol": 1e-11}

# name -> (geometry, E, middle N range).  The small and large ranges are
# shared: 40..400 and 1e5..1e6, both in ten linear steps.
LADDERS = {
    "torus": ({"kind": "torus"}, 2.0, (10_000, 100_000, 10_000)),
    "sphere": ({"kind": "sphere", "R": 0.5}, SQRT2, (1_000, 10_000, 1_000)),
    "hyperbolic": ({"kind": "hyperbolic", "R": 1.0, "genus": 2}, 1.2,
                   (1_000, 10_000, 1_000)),
}
RANGES = {"small": (40, 400, 40), "large": (100_000, 1_000_000, 100_000)}

LARGE_N_FAULT = ("Window.x forms lam - E*N in double precision; its "
                 "cancellation error ~eps*E*N swamps the O(1/N) remainder, so "
                 "residual_report fits its slope to rounding noise and exits 1")

DYNAMICS_GEOMETRIES = {
    "torus": ({"kind": "torus"}, 2.0),
    "sphere": ({"kind": "sphere", "R": 0.5}, SQRT2),
    "hyperbolic": ({"kind": "hyperbolic", "R": 1.0, "genus": 2}, 1.2),
    "katok": ({"kind": "katok", "eps": EPS}, SQRT2),
}


@dataclasses.dataclass(frozen=True)
class Command:
    """One ``magtrace`` invocation.

    ``known_fault`` names the program fault that makes this command exit 1
    on every run; such an operation is counted as failed, and the run stays
    correct as long as that exit is its only failed check.
    """

    name: str
    sub: str
    config: dict
    known_fault: str | None = None

    def argv(self, config_path: str, out_dir: str) -> list:
        return [self.sub, "--config", config_path, "--out", out_dir]


def _cfg(geometry, E, test_function=None, N=None, **extra) -> dict:
    cfg = {"schema": SCHEMA, "geometry": geometry, "E": E}
    if test_function is not None:
        cfg["test_function"] = test_function
    if N is not None:
        cfg["N"] = N
    cfg["tolerances"] = dict(TOL)
    cfg.update(extra)
    return cfg


def _span(lo, hi, step) -> dict:
    return {"start": lo, "stop": hi, "step": step}


def ladder_sweep(seed: int) -> list:
    out = []
    for size in ("small", "middle", "large"):
        for name, (geo, E, middle) in LADDERS.items():
            grid = middle if size == "middle" else RANGES[size]
            out.append(Command(
                name=f"residual-{name}-{size}", sub="residual",
                config=_cfg(geo, E, GAUSSIAN, _span(*grid)),
                known_fault=LARGE_N_FAULT if size == "large" else None))
    return out


def bump_window(seed: int) -> list:
    torus = LADDERS["torus"][0]
    sweep_bump = {"kind": "fourier_bump", "tau0": 2.0, "w": 0.5}
    sweep_N = {"list": [200, 300, 400]}
    return [
        # one bump shared by every N of the sweep, and by trace and predict
        Command("trace-torus-sweep", "trace", _cfg(torus, 2.0, sweep_bump, sweep_N)),
        Command("predict-torus-sweep", "predict", _cfg(torus, 2.0, sweep_bump, sweep_N)),
        # single-N commands, each with a bump of its own
        Command("trace-torus-period2", "trace",
                _cfg(torus, 2.0, {"kind": "fourier_bump", "tau0": 4.0, "w": 0.5},
                     {"value": 400})),
        Command("trace-sphere-period1", "trace",
                _cfg(LADDERS["sphere"][0], SQRT2,
                     {"kind": "fourier_bump", "tau0": math.pi, "w": 0.5},
                     {"value": 200})),
        Command("predict-katok-tsharp", "predict",
                _cfg(DYNAMICS_GEOMETRIES["katok"][0], SQRT2,
                     {"kind": "fourier_bump", "tau0": TSHARP, "w": 1.0},
                     {"value": 400})),
    ]


def orbit_dynamics(seed: int) -> list:
    out = []
    for name, (geo, E) in DYNAMICS_GEOMETRIES.items():
        out.append(Command(f"dynamics-{name}-1period", "dynamics", _cfg(
            geo, E, t_periods=1.0, orbit_samples=3000, mc_samples=100_000,
            seed=seed)))
    for name, orientation in (("katok", "-"), ("hyperbolic", "+")):
        geo, E = DYNAMICS_GEOMETRIES[name]
        out.append(Command(f"dynamics-{name}-8periods", "dynamics", _cfg(
            geo, E, t_periods=8.0, orbit_samples=1000, orientation=orientation)))
    out.append(Command("katok-report", "katok",
                       _cfg(DYNAMICS_GEOMETRIES["katok"][0], SQRT2, N={"value": 3})))
    return out


WORKLOADS = {
    "ladder_sweep": ladder_sweep,
    "bump_window": bump_window,
    "orbit_dynamics": orbit_dynamics,
}

# Warm executions of each command per cycle.  A warm pass of ladder_sweep
# or orbit_dynamics takes under a second and its single samples scatter by
# 20-30%, so those cycles repeat it; a bump_window pass takes ~9 s.
WARM_REPS = {"ladder_sweep": 5, "bump_window": 1, "orbit_dynamics": 5}
