"""The benchmark's own tests: every output check rejects a perturbed output.

    python3 -m pytest perfbench/test_checks.py -q

Each test runs one workload command in-process, shows that its real
outputs pass the checks, then perturbs one value at a time and shows that
the checks report it.  Two more tests cover the oracles' phi against the
program's and the tracer's install/uninstall.
"""

import csv
import json
import random
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from magtrace import cli  # noqa: E402


@pytest.fixture(scope="module")
def run_cmd(tmp_path_factory):
    done = {}

    def run(workload, name):
        if name not in done:
            cmd = next(c for c in workloads.WORKLOADS[workload](7) if c.name == name)
            d = tmp_path_factory.mktemp(name)
            cfg = d / "cfg.json"
            cfg.write_text(json.dumps(cmd.config))
            code = cli.main(cmd.argv(str(cfg), str(d / "out")))
            done[name] = (cmd, code, d / "out")
        return done[name]
    return run


def _problems(cmd, code, out):
    return checks.check(cmd, code, str(out), random.Random(0))


def _perturbed(out, tmp_path, fname, edit):
    dst = tmp_path / f"copy{len(list(tmp_path.iterdir()))}"
    shutil.copytree(out, dst)
    path = dst / fname
    if fname.endswith(".csv"):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        edit(rows)
        path.write_text("".join(",".join(r) + "\n" for r in rows))
    else:
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
    return dst


def _bump(rows, r, c, rel=0.0, add=0.0):
    x = float(rows[r][c])
    rows[r][c] = repr(x * (1.0 + rel) + add)


def _every_row(col, **kw):
    def edit(rows):
        for r in range(1, len(rows)):
            if rows[r][0] != "slope":
                _bump(rows, r, col, **kw)
    return edit


def test_residual_checks(run_cmd, tmp_path):
    cmd, code, out = run_cmd("ladder_sweep", "residual-torus-small")
    assert code == 0 and _problems(cmd, code, out) == []
    cases = [
        _every_row(5, add=1e-8),                       # re_r: the trace sum is off
        _every_row(1, rel=1e-9),                       # re_c0 off the k-sum display
        _every_row(7, rel=1e-6),                       # scaled_residual is not N |r|
        lambda rows: rows[-1].__setitem__(1, "-2.5"),  # slope fails but exit 0
    ]
    for edit in cases:
        assert _problems(cmd, code, _perturbed(out, tmp_path, "residual.csv", edit))
    assert _problems(cmd, 1, out)                      # exit 1 though the slope passes


def test_large_sweep_fails_only_its_gate(run_cmd):
    cmd, code, out = run_cmd("ladder_sweep", "residual-sphere-large")
    problems = _problems(cmd, code, out)
    assert code == 1 and cmd.known_fault
    assert problems and all(p.startswith(checks.GATE) for p in problems)


def test_bump_trace_checks(run_cmd, tmp_path):
    cmd, code, out = run_cmd("bump_window", "trace-torus-period2")
    assert code == 0 and _problems(cmd, code, out) == []
    for col, rel in ((1, 1e-8), (2, 1e-8)):
        edit = _every_row(col, rel=rel)
        assert _problems(cmd, code, _perturbed(out, tmp_path, "trace.csv", edit))


def test_predict_checks(run_cmd, tmp_path):
    for name in ("predict-torus-sweep", "predict-katok-tsharp"):
        cmd, code, out = run_cmd("bump_window", name)
        assert code == 0 and _problems(cmd, code, out) == []
        for col in (1, 2):
            edit = _every_row(col, rel=1e-9)
            assert _problems(cmd, code, _perturbed(out, tmp_path, "predict.csv", edit))
        edit = _every_row(5, add=1.0)                  # wrong leading power d
        assert _problems(cmd, code, _perturbed(out, tmp_path, "predict.csv", edit))


def test_dynamics_checks(run_cmd, tmp_path):
    cmd, code, out = run_cmd("orbit_dynamics", "dynamics-katok-1period")
    assert code == 0 and _problems(cmd, code, out) == []

    def numeric(key, value):
        return lambda d: d["numeric"].__setitem__(key, value)

    def shift(path, add):
        def edit(d):
            node = d
            for k in path[:-1]:
                node = node[k]
            node[path[-1]] += add
        return edit

    vol = json.loads((out / "invariants.json").read_text())["liouville_volume"]
    json_cases = [
        shift(["numeric", "numeric_holonomy"], 2e-6),
        numeric("action_identity_residual", 1e-7),
        shift(["orbits", 0, "hol"], 1e-9),
        shift(["liouville_volume", "mc_estimate"], 6.0 * vol["mc_stderr"]),
        shift(["liouville_volume", "closed_form"], 1e-9),
    ]
    for edit in json_cases:
        assert _problems(cmd, code, _perturbed(out, tmp_path, "invariants.json", edit))
    csv_cases = [
        lambda rows: _bump(rows, 1500, 5, add=1e-8),   # H column off the shell
        lambda rows: _bump(rows, 1500, 4, add=1e-8),   # p2: H and P both move
        lambda rows: _bump(rows, 1500, 6, add=1e-8),   # P column
        lambda rows: _bump(rows, len(rows) - 1, 1, add=1e-6),  # orbit does not close
        lambda rows: rows.pop(),                       # a sample missing
    ]
    for edit in csv_cases:
        assert _problems(cmd, code, _perturbed(out, tmp_path, "orbit.csv", edit))


def test_katok_report_checks(run_cmd, tmp_path):
    cmd, code, out = run_cmd("orbit_dynamics", "katok-report")
    assert code == 0 and _problems(cmd, code, out) == []

    def mono(d):
        d["monodromy"]["+"]["numeric"][0][1] += 2e-6

    def det(d):
        d["monodromy"]["-"]["det_numeric"] += 1e-7

    def maslov(d):
        d["maslov"][3]["m"] += 2

    def assembly(d):
        d["assembly"][2]["re_closed"] *= 1.0 + 1e-10

    def passed(d):
        d["passed"] = False
    for edit in (mono, det, maslov, assembly, passed):
        assert _problems(cmd, code, _perturbed(out, tmp_path, "katok_report.json", edit))


def test_bump_phi_oracle_matches_program():
    from magtrace import make_fourier_bump
    f = make_fourier_bump(2.0, 0.5)
    rng = random.Random(3)
    for _ in range(20):
        x = rng.uniform(-1500.0, 1500.0)
        ref, err = oracles.bump_phi(2.0, 0.5, x)
        assert abs(complex(f.phi(x)) - ref) <= 2e-15 and err <= 1e-15


def test_tracer_restores_the_program(tmp_path):
    import run
    assert "tracer" not in sys.modules    # the untraced path loads no wrappers
    from magtrace import spectra, tracesum
    from tracer import Tracer
    originals = (spectra.enumerate_window, tracesum.enumerate_window, cli.main)
    cmd = next(c for c in workloads.ladder_sweep(1) if c.name == "residual-torus-small")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cmd.config))
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(cmd.argv(str(cfg), str(tmp_path / "out"))) == 0
    finally:
        tracer.uninstall()
    assert (spectra.enumerate_window, tracesum.enumerate_window, cli.main) == originals
    m = tracer.pass_metrics(0)
    assert m["spectra.windows"] == m["tracesum.calls"] == 10 and m["cli.commands"] == 1
    assert run.END_TO_END["setup_s"] == "s"
