"""CLI behavior: config validation, exit codes, outputs, determinism."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest

import test_golden_outputs as golden
from labchecks import maslov_two_interval
from magtrace import (EnergyLevel, Katok, Torus, ValidationError, asymptotics, cli, dynamics,
                      enumerate_window, errors, make_gaussian, ode, testfn)
from magtrace.cli import _number, main

SQRT2 = math.sqrt(2.0)


def _write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _base_cfg(**overrides):
    cfg = {
        "schema": "magtrace/1",
        "geometry": {"kind": "torus"},
        "E": 2.0,
        "test_function": {"kind": "gaussian", "s": 1.0},
        "N": {"value": 1},
    }
    cfg.update(overrides)
    return cfg


def test_spectrum_single_row(tmp_path):
    cfg = _base_cfg(test_function={"kind": "gaussian", "s": 0.3})
    path = _write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", path, "--out", str(out)]) == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "N,j,nu,lambda,mult,tail_bound"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "1" and fields[1] == "0" and fields[4] == "1"
    assert float(fields[2]) == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_spectrum_empty_window_header_only(tmp_path):
    # E N sits mid-gap and the window radius is smaller than the half-gap
    cfg = _base_cfg(E=1.48, N={"value": 10},
                    test_function={"kind": "gaussian", "s": 0.05})
    path = _write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", path, "--out", str(out)]) == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert len(lines) == 1


def test_mane_level_exit_code(tmp_path, capsys):
    cfg = _base_cfg(geometry={"kind": "hyperbolic", "R": 1.0, "genus": 2}, E=1.5)
    path = _write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    code = main(["spectrum", "--config", path, "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "1.4142" in err  # the Mane boundary sqrt(2) is named
    assert not (out / "spectrum.csv").exists()


def test_malformed_config_no_partial_output(tmp_path, capsys):
    cfg = _base_cfg()
    cfg["unknown_key"] = 1
    path = _write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    code = main(["trace", "--config", path, "--out", str(out)])
    assert code == 2
    assert not os.path.exists(out / "trace.csv")
    # wrong schema string
    cfg2 = _base_cfg(schema="magtrace/2")
    path2 = _write_cfg(tmp_path, "cfg2.json", cfg2)
    assert main(["trace", "--config", path2, "--out", str(out)]) == 2
    # geometry with a stray key
    cfg3 = _base_cfg(geometry={"kind": "torus", "R": 1.0})
    path3 = _write_cfg(tmp_path, "cfg3.json", cfg3)
    assert main(["trace", "--config", path3, "--out", str(out)]) == 2


def test_trace_and_predict_csv(tmp_path):
    cfg = _base_cfg(N={"list": [5, 10]})
    path = _write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["trace", "--config", path, "--out", str(out)]) == 0
    assert main(["predict", "--config", path, "--out", str(out)]) == 0
    tlines = (out / "trace.csv").read_text().splitlines()
    plines = (out / "predict.csv").read_text().splitlines()
    assert tlines[0] == "N,re_y,im_y,tail_bound"
    assert plines[0] == "N,re_c0,im_c0,re_c1,im_c1,d,k_tail"
    assert len(tlines) == 3 and len(plines) == 3


def test_residual_torus_sweep_passes(tmp_path):
    cfg = _base_cfg(N={"start": 40, "stop": 400, "step": 40})
    path = _write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["residual", "--config", path, "--out", str(out)]) == 0
    lines = (out / "residual.csv").read_text().splitlines()
    assert lines[-1].startswith("slope,")
    slope = float(lines[-1].split(",")[1])
    assert -1.6 <= slope <= -0.6


def test_katok_predict_guards_resonances_past_the_tail_walk(tmp_path):
    # k=9 lies outside the support (k = 2..4) and is exactly resonant,
    # 2k/(1-eps) = 20; its margin-capped term passes the guard's 1e-25
    # whether k_max stops short of it, at it or past it
    for k_max in (4, 9, 12):
        cfg = _base_cfg(geometry={"kind": "katok", "eps": 0.1}, E=SQRT2, N={"value": 40},
                        test_function={"kind": "gaussian_modulated", "s": 0.2,
                                       "b": 26.926563261565853},
                        tolerances={"k_max": k_max, "support_tol": 1e-3})
        path = _write_cfg(tmp_path, "cfg.json", cfg)
        assert main(["predict", "--config", path, "--out", str(tmp_path / "out")]) == 4


def test_katok_command_passes(tmp_path):
    cfg = {
        "schema": "magtrace/1",
        "geometry": {"kind": "katok", "eps": 1.0 / math.sqrt(5.0)},
        "N": {"value": 1},
        "k_list": [1, 2, -1],
    }
    path = _write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["katok", "--config", path, "--out", str(out)]) == 0
    rep = json.loads((out / "katok_report.json").read_text())
    assert rep["max_assembly_rel_dev"] < 1e-12
    assert rep["max_monodromy_dev"] < 1e-6
    assert rep["passed"] is True
    # the report's (m, kappa, sgn_r) are those of rotation counting
    assert [(row["k"], row["branch"], row["m"], row["kappa"], row["sgn_r"])
            for row in rep["maslov"]] == [
        (k, label, *maslov_two_interval(k, 1.0 / math.sqrt(5.0), branch))
        for k in (1, 2, -1) for label, branch in (("+", 1), ("-", -1))]


def test_katok_det_i_minus_p_is_one_closed_form_at_every_iterate():
    # det(I - P^k) = 4 sin^2(k alpha/2) against 40 digits at the double alpha,
    # within 2 ulps plus what rounding k alpha to a double moves it by,
    # |2 sin(k alpha)| ulp(k alpha)/2 (63 ulps at eps = 0.3, branch -, k = 40);
    # and against numpy's matrix power and LU determinant within rounding
    # grown over |k| products
    for eps in (1.0 / math.sqrt(5.0), 0.3):
        for branch in (1, -1):
            ana = Katok(eps).return_map(SQRT2, branch)
            for k in (1, 2, 3, 7, 40, -1, -2, -3, -7, -40):
                got = ana.det_i_minus_p(k)
                with mpmath.workdps(40):
                    x = k * mpmath.mpf(ana.alpha)
                    want = 4 * mpmath.sin(x / 2) ** 2
                    err = float(abs(got - want))
                    slack = float(abs(2 * mpmath.sin(x))) * math.ulp(float(x)) / 2
                assert err <= 2 * math.ulp(float(want)) + slack, (eps, branch, k)
                power = np.linalg.matrix_power(ana.matrix, k)
                assert abs(got - np.linalg.det(np.eye(2) - power)) <= 1e-14 * abs(k)


def _katok_refusal(tmp_path, monkeypatch, eps, k_list):
    """main's exit code on a katok config, the monodromy runs it made and its --out."""
    runs = []
    monkeypatch.setattr(dynamics, "katok_monodromy_numeric",
                        lambda *args: runs.append(args))
    cfg = {"schema": "magtrace/1", "geometry": {"kind": "katok", "eps": eps},
           "k_list": k_list}
    out = tmp_path / "out"
    return main(["katok", "--config", _write_cfg(tmp_path, "cfg.json", cfg),
                 "--out", str(out)]), runs, out


def test_katok_resonant_iterate_exits_4(tmp_path, capsys, monkeypatch):
    # eps = 1/2: 2k/(1-eps) = 4 lies on the half-integer lattice at k = 1;
    # the entry is refused before either monodromy run
    code, runs, out = _katok_refusal(tmp_path, monkeypatch, 0.5, [1])
    assert (code, runs) == (4, [])
    assert capsys.readouterr().err == ("error: k=1, branch +: 2k/(1-eps)=4 is resonant "
                                       "(|sin|=2.449e-16, lattice distance 0.000e+00)\n")
    assert not out.exists() or not any(out.iterdir())


def test_katok_later_resonant_entry_is_refused_before_the_monodromy_runs(
        tmp_path, capsys, monkeypatch):
    # eps = 1/4: k = 1 and 2 are clear, and 2k/(1+eps) = 8 at k = 5 on the "-" branch
    code, runs, out = _katok_refusal(tmp_path, monkeypatch, 0.25, [1, 2, 5])
    assert (code, runs) == (4, [])
    assert capsys.readouterr().err == ("error: k=5, branch -: 2k/(1+eps)=8 is resonant "
                                       "(|sin|=4.899e-16, lattice distance 0.000e+00)\n")


def test_katok_rejects_wrong_energy(tmp_path):
    cfg = {
        "schema": "magtrace/1",
        "geometry": {"kind": "katok", "eps": 0.3},
        "E": 1.7,
    }
    path = _write_cfg(tmp_path, "cfg.json", cfg)
    assert main(["katok", "--config", path, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("N", [{"list": [3, 5]}, {"start": 1, "stop": 2, "step": 1}])
def test_katok_refuses_an_N_grid(tmp_path, capsys, N):
    # the report reads one N; a grid is refused, not cut to its first value
    cfg = {"schema": "magtrace/1", "geometry": {"kind": "katok", "eps": 0.3}, "N": N}
    out = tmp_path / "out"
    assert main(["katok", "--config", _write_cfg(tmp_path, "cfg.json", cfg),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the katok command takes one N") and err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())


def test_dynamics_command_katok(tmp_path):
    cfg = {
        "schema": "magtrace/1",
        "geometry": {"kind": "katok", "eps": 1.0 / math.sqrt(5.0)},
        "orientation": "+",
        "mc_samples": 20000,
        "seed": 0,
    }
    path = _write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["dynamics", "--config", path, "--out", str(out)]) == 0
    rep = json.loads((out / "invariants.json").read_text())
    assert rep["numeric"]["energy_drift"] < 1e-9
    assert rep["numeric"]["first_integral_drift"] < 1e-9
    assert rep["numeric"]["action_identity_residual"] < 1e-8
    assert rep["liouville_volume"]["rel_dev"] < 0.05
    orbit = (out / "orbit.csv").read_text().splitlines()
    assert orbit[0] == "t,q1,q2,p1,p2,H,P"


@pytest.mark.parametrize("geometry,E,orientation,label", [
    ({"kind": "torus"}, 2.0, "+", "-"),
    ({"kind": "sphere", "R": 0.5}, SQRT2, "+", "-"),
    ({"kind": "hyperbolic", "R": 1.0, "genus": 2}, 1.2, "+", "-"),
    ({"kind": "hyperbolic", "R": 1.0, "genus": 2}, 1.2, "-", "-"),
    ({"kind": "katok", "eps": 1.0 / math.sqrt(5.0)}, SQRT2, "+", "+"),
    ({"kind": "katok", "eps": 1.0 / math.sqrt(5.0)}, SQRT2, "-", "-"),
], ids=lambda v: v.get("kind") if isinstance(v, dict) else None)
def test_dynamics_numeric_orientation_labels_the_integrated_orbit(tmp_path, geometry, E,
                                                                 orientation, label):
    # a ladder's one orbit is "-" whichever orientation the config names, so
    # numeric.orientation is the label of the orbit in orbits whose period ran
    cfg = {"schema": "magtrace/1", "geometry": geometry, "E": E,
           "orientation": orientation, "orbit_samples": 0}
    out = tmp_path / "out"
    assert main(["dynamics", "--config", _write_cfg(tmp_path, "cfg.json", cfg),
                 "--out", str(out)]) == 0
    rep = json.loads((out / "invariants.json").read_text())
    (ran,) = [o for o in rep["orbits"] if o["orientation"] == rep["numeric"]["orientation"]]
    assert rep["numeric"]["orientation"] == label
    assert rep["numeric"]["period"] == ran["T"]


def test_dynamics_command_hyperbolic_above_mane(tmp_path):
    cfg = {
        "schema": "magtrace/1",
        "geometry": {"kind": "hyperbolic", "R": 1.0, "genus": 2},
        "E": 1.9,
    }
    path = _write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["dynamics", "--config", path, "--out", str(out)]) == 0
    rep = json.loads((out / "invariants.json").read_text())
    assert rep["orbits"] == []
    assert "no periodic trajectories" in rep["note"]
    assert not (out / "orbit.csv").exists()


def _run_cli(args):
    return subprocess.run([sys.executable, "-m", "magtrace", *args],
                          capture_output=True, env=dict(os.environ), text=True)


def test_byte_identical_reruns(tmp_path):
    cfg = _base_cfg(N={"start": 10, "stop": 60, "step": 10})
    path = _write_cfg(tmp_path, "cfg.json", cfg)
    outs = [tmp_path / f"out{i}" for i in range(2)]
    r1 = _run_cli(["trace", "--config", path, "--out", str(outs[0])])
    r2 = _run_cli(["trace", "--config", path, "--out", str(outs[1])])
    assert r1.returncode == r2.returncode == 0
    assert (outs[0] / "trace.csv").read_bytes() == (outs[1] / "trace.csv").read_bytes()


def test_threads_flag_is_gone(tmp_path, capsys):
    # commands run in one thread; the former --threads option is a usage error
    path = _write_cfg(tmp_path, "cfg.json", _base_cfg())
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--config", path, "--out", str(out), "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


def test_format_flag_is_gone(tmp_path, capsys):
    # CSV is the one table format; the former --format option is a usage error
    path = _write_cfg(tmp_path, "cfg.json", _base_cfg())
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--config", path, "--out", str(out), "--format", "json"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err
    assert not out.exists()


_USAGE = "usage: magtrace [-h] {spectrum,trace,predict,residual,dynamics,katok} ...\n"
_TRACE_USAGE = "usage: magtrace trace [-h] --config CONFIG [--out OUT]\n"
_TRACE_HELP = (_TRACE_USAGE + "\noptions:\n"
               "  -h, --help       show this help message and exit\n"
               "  --config CONFIG  JSON run configuration\n"
               "  --out OUT        output directory\n")


# (argv with {cfg} and {out} to fill in, exit code, stdout, stderr): the
# usage, help and error lines are argparse's
@pytest.mark.parametrize("argv,code,stdout,stderr", [
    ([], 2, "", _USAGE + "magtrace: error: the following arguments are required: command\n"),
    (["bogus"], 2, "", _USAGE + "magtrace: error: argument command: invalid choice: 'bogus' "
     "(choose from 'spectrum', 'trace', 'predict', 'residual', 'dynamics', 'katok')\n"),
    (["-h"], 0, _USAGE + "\nSpectral and geometric sides of magnetic trace asymptotics\n\n"
     "positional arguments:\n  {spectrum,trace,predict,residual,dynamics,katok}\n\n"
     "options:\n  -h, --help            show this help message and exit\n", ""),
    (["trace", "-h"], 0, _TRACE_HELP, ""),
    (["trace", "--config", "{cfg}", "--help"], 0, _TRACE_HELP, ""),
    (["trace", "--config={cfg}", "--out", "{out}"], 0, "", ""),
    (["trace", "--config", "{cfg}", "--out", "{out}-first", "--out={out}"], 0, "", ""),
    (["trace", "--config"], 2, "",
     _TRACE_USAGE + "magtrace trace: error: argument --config: expected one argument\n"),
    (["trace", "--config", "{cfg}", "--out", "--bogus"], 2, "",
     _TRACE_USAGE + "magtrace trace: error: argument --out: expected one argument\n"),
    (["trace", "--out", "{out}"], 2, "",
     _TRACE_USAGE + "magtrace trace: error: the following arguments are required: --config\n"),
    (["trace", "--config", "{cfg}", "--out", "{out}", "--bogus", "1"], 2, "",
     _USAGE + "magtrace: error: unrecognized arguments: --bogus 1\n"),
    # argparse took an unambiguous prefix for its option; the reader does not
    (["trace", "--conf", "{cfg}"], 2, "",
     _TRACE_USAGE + "magtrace trace: error: the following arguments are required: --config\n"),
], ids=["none", "unknown-command", "help", "sub-h", "sub-help", "config=", "out-twice",
        "no-config-value", "no-out-value", "no-config", "unknown-option", "prefix"])
def test_argv_reader_matches_warm_and_cold(tmp_path, capsys, argv, code, stdout, stderr):
    cfg = _write_cfg(tmp_path, "cfg.json", _base_cfg())
    outs = {side: tmp_path / side for side in ("warm", "cold")}
    runs = {side: [a.format(cfg=cfg, out=out) for a in argv] for side, out in outs.items()}
    try:
        warm_code = main(runs["warm"])
    except SystemExit as exc:
        warm_code = exc.code
    warm = capsys.readouterr()
    cold = _run_cli(runs["cold"])
    assert (warm_code, warm.out, warm.err) == (code, stdout, stderr)
    assert (cold.returncode, cold.stdout, cold.stderr) == (code, stdout, stderr)
    ran = code == 0 and stdout == ""  # not a usage error, nor help
    for out in outs.values():  # a run writes to its last --out only
        assert sorted(p.name for p in tmp_path.glob(f"{out.name}*")) == ([out.name] if ran else [])
        if ran:
            assert [p.name for p in out.iterdir()] == ["trace.csv"]


@pytest.mark.parametrize("sub", ["trace", "dynamics"])
def test_out_that_is_not_a_directory_exits_2(tmp_path, capsys, sub):
    cfg = _base_cfg(geometry={"kind": "sphere", "R": 0.5}, E=SQRT2)
    path = _write_cfg(tmp_path, "cfg.json", cfg)
    blocker = tmp_path / "out"
    blocker.write_text("a file\n")
    for out in (blocker, blocker / "sub"):
        assert main([sub, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert blocker.read_text() == "a file\n" and sorted(tmp_path.iterdir()) == [
        tmp_path / "cfg.json", blocker]


@pytest.mark.parametrize("geometry,E", [
    ({"kind": "katok", "eps": 1.0 / math.sqrt(5.0)}, SQRT2),
    ({"kind": "sphere", "R": 0.5}, SQRT2),
    ({"kind": "hyperbolic", "R": 1.0, "genus": 2}, 1.2),
])
def test_dynamics_orbit_csv_matches_per_row_formulas(tmp_path, geometry, E):
    cfg = {"schema": "magtrace/1", "geometry": geometry, "E": E,
           "orientation": "-", "orbit_samples": 300}
    path = _write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["dynamics", "--config", path, "--out", str(out)]) == 0
    lines = (out / "orbit.csv").read_text().splitlines()
    katok = geometry["kind"] == "katok"
    assert lines[0] == "t,q1,q2,p1,p2,H" + (",P" if katok else "") and len(lines) == 301
    geo = cli._geometry(cfg)
    for line in lines[1:]:
        # 17 significant digits read back to the sampled double exactly
        t, *y = (float(v) for v in line.split(",")[:5])
        y = np.array(y)
        row = [t, *y, geo.hamiltonian(y)]
        if katok:
            row.append(geo.first_integral(y))
        assert line == ",".join(format(float(v), ".17g") for v in row)


_SPHERE = {"kind": "sphere", "R": 0.5}


@pytest.mark.parametrize("geometry,extra", [
    (_SPHERE, {"orbit_samples": -3}),
    (_SPHERE, {"seed": -1, "mc_samples": 1000}),
    (_SPHERE, {"mc_samples": -5}),
    (_SPHERE, {"mc_samples": 1}),
    (_SPHERE, {"orbit_samples": True}),
    (_SPHERE, {"orbit_samples": 2.7}),
    ({"kind": "sphere", "R": "abc"}, {}),
    ({"kind": "katok", "eps": 0.3}, {"E": "x"}),
    (_SPHERE, {"t_periods": 1e300}),
    (_SPHERE, {"t_periods": float("inf")}),
    (_SPHERE, {"orbit_samples": 1e12}),
    (_SPHERE, {"mc_samples": 10**9}),
    ({"kind": "hyperbolic", "R": 1.0, "genus": 2.5}, {"E": 1.2}),
    (_SPHERE, {"tolerances": {"k_max": True}}),
    ({"kind": ["sphere"], "R": 0.5}, {}),
], ids=["orbit_samples_negative", "seed_negative", "mc_samples_negative",
        "mc_samples_one", "orbit_samples_bool", "orbit_samples_fraction",
        "sphere_R_string", "katok_E_string", "t_periods_huge", "t_periods_inf",
        "orbit_samples_huge", "mc_samples_huge", "genus_fraction", "k_max_bool",
        "kind_not_a_string"])
def test_dynamics_bad_number_exits_2(tmp_path, capsys, geometry, extra):
    cfg = {"schema": "magtrace/1", "geometry": geometry}
    if geometry["kind"] != "katok":
        cfg["E"] = SQRT2
    cfg.update(extra)
    path = _write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["dynamics", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("N", [{"value": True}, {"start": 10, "stop": 60, "step": 0},
                               {"start": "10", "stop": 60, "step": 10},
                               # an empty, repeated, descending and zero-based grid
                               {"list": []}, {"list": [10, 10]}, {"list": [10, 5]},
                               {"list": [0, 5]}])
def test_bad_N_exits_2(tmp_path, capsys, N):
    path = _write_cfg(tmp_path, "cfg.json", _base_cfg(N=N))
    out = tmp_path / "out"
    assert main(["trace", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not (out / "trace.csv").exists()


def _exits_2_cleanly(tmp_path, capsys, cfg, sub):
    """Run sub on cfg: exit 2, one error line, no output and no warning."""
    path = _write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([sub, "--config", path, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and not caught
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())
    return err


@pytest.mark.parametrize("name", ["orbit_dynamics/dynamics-katok-1period",
                                  "orbit_dynamics/katok-report"])
def test_a_run_past_the_step_budget_exits_5(tmp_path, capsys, monkeypatch, name):
    # a period of the katok equator takes more than 4 steps, on the flow and
    # on its tangent flow alike: a budget of 4 ends either run with one error
    # line and no output
    monkeypatch.setattr(ode, "MAX_STEPS", 4)
    sub, cfg = golden._commands()[name]
    out = tmp_path / "out"
    code = main([sub, "--config", _write_cfg(tmp_path, "cfg.json", cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 5 and err.startswith("error: ") and err.count("\n") == 1
    assert "integration failed" in err and err.endswith(": over the budget of 4 accepted steps\n")
    assert not out.exists() or not any(out.iterdir())


_KATOK_CFG = {"schema": "magtrace/1", "geometry": {"kind": "katok", "eps": 0.3},
              "N": {"value": 3}}
_TORUS_DYNAMICS_CFG = {"schema": "magtrace/1", "geometry": {"kind": "torus"}, "E": 2.0,
                       "orbit_samples": 16}


@pytest.mark.parametrize("sub,cfg,blocked", [
    ("trace", _base_cfg(N={"value": 40}), "trace.csv"),
    ("dynamics", _TORUS_DYNAMICS_CFG, "orbit.csv"),
    ("dynamics", _TORUS_DYNAMICS_CFG, "invariants.json"),  # the second of two files
    ("katok", _KATOK_CFG, "katok_report.csv"),
    ("katok", _KATOK_CFG, "katok_report.json"),
])
def test_directory_in_the_way_of_an_output_exits_2(tmp_path, capsys, sub, cfg, blocked):
    path = _write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert main([sub, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and blocked in err and err.count("\n") == 1
    # no output file, and the blocking directory untouched
    assert [p.name for p in out.iterdir()] == [blocked]
    assert not any((out / blocked).iterdir())



@pytest.mark.parametrize("cfg,sub", [
    (_base_cfg(N={"value": 40}, test_function={"kind": "gaussian", "s": "abc"}), "trace"),
    (_base_cfg(N={"value": 40}, test_function={"kind": "gaussian", "s": True}), "trace"),
    (dict(_KATOK_CFG, k_list=[1, 10**400]), "katok"),
    (dict(_KATOK_CFG, k_list=[True]), "katok"),
    (dict(_KATOK_CFG, k_list=[1, -1001]), "katok"),
    (_base_cfg(N={"value": 40}, test_function={"kind": "gaussian", "s": 1.0, "b": 0.0}),
     "trace"),
    (_base_cfg(N={"value": 40}, test_function={"kind": ["gaussian"], "s": 1.0}), "trace"),
    (_base_cfg(test_function=None), "trace"),
    (_base_cfg(tolerances={"tail_tol": "1e-14"}), "trace"),
    (_base_cfg(N={"list": 40}), "trace"),
], ids=["s_string", "s_bool", "k_huge", "k_bool", "k_past_cap", "extra_key",
        "kind_not_a_string", "no_test_function", "tolerance_string", "N_list_not_a_list"])
def test_bad_config_input_exits_2(tmp_path, capsys, cfg, sub):
    _exits_2_cleanly(tmp_path, capsys, cfg, sub)


@pytest.mark.parametrize("sub", ["trace", "predict"])
@pytest.mark.parametrize("test_function", [
    {"kind": "gaussian", "s": 1e-200},
    {"kind": "gaussian", "s": 1e100},
    {"kind": "fourier_bump", "tau0": 2.0, "w": 1e-200},
    {"kind": "fourier_bump", "tau0": 2.0, "w": 1e300},
    {"kind": "gaussian_modulated", "s": 1.0, "b": -1e308},
    {"kind": "fourier_bump", "tau0": 1e308, "w": 0.5},
], ids=["s_tiny", "s_huge", "w_tiny", "w_huge", "b_huge", "tau0_huge"])
def test_test_function_past_double_range_exits_2(tmp_path, capsys, test_function, sub):
    # finite parameters whose powers, reciprocals or phases are not doubles
    cfg = _base_cfg(N={"value": 40}, test_function=test_function)
    assert "leave the double range" in _exits_2_cleanly(tmp_path, capsys, cfg, sub)


@pytest.mark.parametrize("sub", ["spectrum", "trace", "predict"])
@pytest.mark.parametrize("test_function", [
    {"kind": "gaussian_modulated", "s": 1.0, "b": 1e150},
    {"kind": "gaussian_modulated", "s": 1e-3, "b": -1e18},
    {"kind": "fourier_bump", "tau0": 1e300, "w": 1.0},
    {"kind": "fourier_bump", "tau0": 2.0, "w": 1e-13},
], ids=["b_1e150", "sb_1e15", "tau0_1e300", "w_1e-13"])
def test_phase_past_2_53_exits_2(tmp_path, capsys, test_function, sub):
    # exp(1j*phase) keeps no phase information once the phase reaches 2^53
    cfg = _base_cfg(N={"value": 40}, test_function=test_function)
    assert "reaches 2^53" in _exits_2_cleanly(tmp_path, capsys, cfg, sub)


@pytest.mark.parametrize("test_function", [
    {"kind": "gaussian_modulated", "s": 1.0, "b": 1e3},
    {"kind": "fourier_bump", "tau0": 1e3, "w": 1.0},
], ids=["b_1e3", "tau0_1e3"])
def test_modest_phase_runs(tmp_path, test_function):
    cfg = _base_cfg(N={"value": 40}, test_function=test_function)
    path = _write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["trace", "--config", path, "--out", str(out)]) == 0
    assert len((out / "trace.csv").read_text().splitlines()) == 2


@pytest.mark.parametrize("sub,key,as_int,as_float", [
    ("trace", "N", {"value": 40}, {"value": 40.0}),
    ("trace", "N", {"list": [40, 41]}, {"list": [40.0, 41.0]}),
    ("katok", "k_list", [1, -2], [1.0, -2.0]),
], ids=["N_value", "N_list", "k_list"])
def test_integral_floats_read_as_integers(tmp_path, sub, key, as_int, as_float):
    base = _base_cfg() if sub == "trace" else dict(_KATOK_CFG)
    outs = []
    for i, value in enumerate((as_int, as_float)):
        path = _write_cfg(tmp_path, f"cfg{i}.json", dict(base, **{key: value}))
        outs.append(tmp_path / f"out{i}")
        assert main([sub, "--config", path, "--out", str(outs[-1])]) == 0
    assert ([p.read_bytes() for p in sorted(outs[0].iterdir())]
            == [p.read_bytes() for p in sorted(outs[1].iterdir())])


def _no_k_sum(*args):
    raise AssertionError("the k-sum was built")


@pytest.mark.parametrize("cfg", [
    _base_cfg(tolerances={"k_max": asymptotics.MAX_K_MAX + 1}),
    _base_cfg(tolerances={"k_max": 10**400}),
    _base_cfg(geometry={"kind": "sphere", "R": 1e-6}, E=SQRT2),
    _base_cfg(geometry={"kind": "hyperbolic", "R": 1e-6, "genus": 2}, E=1.2),
], ids=["tolerance", "tolerance_huge", "sphere_small_R", "hyperbolic_small_R"])
def test_k_max_over_cap_exits_2_before_allocating(tmp_path, capsys, monkeypatch, cfg):
    # a missing check would reach the patched term order, not allocate
    monkeypatch.setattr(asymptotics, "_k_order", _no_k_sum)
    assert "capped" in _exits_2_cleanly(tmp_path, capsys, cfg, "predict")


def test_predict_refuses_an_unreachable_k_tail_before_any_bound(tmp_path, capsys, monkeypatch):
    # phi_hat's amplitude, 2.5e-150, is below tail_tol, so k_max is 1; the
    # hat reaches 1e-300 only 1.3e151 periods out, past the cap
    calls = []
    from_config = testfn.from_config

    def counted(spec):  # the command's test function, its hat bounds counted
        f = from_config(spec)

        def hat_abs_bounds(u):
            calls.append(u)
            return f.hat_abs_bounds(u)
        return dataclasses.replace(f, hat_abs_bounds=hat_abs_bounds)
    monkeypatch.setattr(testfn, "from_config", counted)
    cfg = _base_cfg(test_function={"kind": "gaussian", "s": 1e-150}, N={"value": 40})
    assert "capped" in _exits_2_cleanly(tmp_path, capsys, cfg, "predict")
    assert calls == []


@pytest.mark.parametrize("call", [
    lambda: asymptotics.KSumControl(k_max=True),
    lambda: asymptotics.general_c0_volume(1.0, 1.0, n=True),
    lambda: Katok(0.3).maslov(True, +1),
    # the N check the removed spectra.levels made, kept under its id
    lambda: errors.check_tensor_power(True),
    lambda: enumerate_window(Torus(), True, EnergyLevel.from_E(2.0),
                             make_gaussian(1.0), 1e-14),
], ids=["KSumControl", "general_c0_volume", "Katok.maslov", "levels_N", "enumerate_window"])
def test_library_integer_checks_refuse_bools(call):
    # as the config reader does (_number): True is not the integer 1
    with pytest.raises(ValidationError):
        call()


def test_k_max_at_cap_is_accepted():
    assert asymptotics.KSumControl(k_max=asymptotics.MAX_K_MAX).k_max == asymptotics.MAX_K_MAX
    with pytest.raises(ValidationError, match="capped"):
        asymptotics.KSumControl(k_max=asymptotics.MAX_K_MAX + 1)


@pytest.mark.parametrize("sub", ["spectrum", "trace", "predict", "residual"])
def test_energy_with_overflowing_square_exits_2(tmp_path, capsys, sub):
    path = _write_cfg(tmp_path, "cfg.json", _base_cfg(E=1e200, N={"value": 400}))
    out = tmp_path / "out"
    assert main([sub, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: energy E") and err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("sub", ["spectrum", "trace", "predict", "residual"])
@pytest.mark.parametrize("E,N", [(1e154, {"list": [40, 400]}), (2.0, {"value": 10**400})],
                         ids=["E_N_overflows", "N_past_float_range"])
def test_N_whose_energy_scale_overflows_exits_2(tmp_path, capsys, sub, E, N):
    # E^2 is finite but (E N)^2 is not: refused before any window or k-sum
    path = _write_cfg(tmp_path, "cfg.json", _base_cfg(E=E, N=N))
    out = tmp_path / "out"
    assert main([sub, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: N=") and "(E*N)^2 overflows" in err
    assert err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("geometry", [{"kind": "torus"}, {"kind": "sphere", "R": 0.5}],
                         ids=["torus", "sphere"])
def test_predict_k_sum_past_double_range_exits_2(tmp_path, capsys, geometry):
    # (E N)^2 is finite at N=1, but the torus k-sum squares (k E)^2 and the
    # sphere's c1 coefficient cubes beta ~ E R: refused before any evaluation
    path = _write_cfg(tmp_path, "cfg.json", _base_cfg(geometry=geometry, E=1e154))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["predict", "--config", path, "--out", str(out)])
    assert code == 2 and not caught
    err = capsys.readouterr().err
    assert err.startswith("error: the k-sum") and err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("sub", ["spectrum", "trace", "predict", "residual"])
def test_hyperbolic_area_past_double_range_exits_2(tmp_path, capsys, sub):
    # 2(g-1) R^2 is finite, the area 2 pi R^2 (2g-2) the ladder is built on is not
    cfg = _base_cfg(geometry={"kind": "hyperbolic", "R": 1.0, "genus": 5 * 10**307}, E=1.2)
    assert "leave the double range" in _exits_2_cleanly(tmp_path, capsys, cfg, sub)


def test_predict_without_a_circle_rate_exits_2(tmp_path, capsys):
    # the largest E below the Mane level, where 1 + K(E^2-1)/b^2 rounds to 0
    cfg = _base_cfg(geometry={"kind": "hyperbolic", "R": 0.9741785401533375, "genus": 2},
                    E=1.4330786169778382, tolerances={"k_max": 12})
    assert "needs a finite positive Q^2" in _exits_2_cleanly(tmp_path, capsys, cfg, "predict")


def test_dynamics_without_a_circle_rate_exits_2(tmp_path, capsys):
    # the same geometry and energy as a one-period dynamics run: cR rounds to
    # 0.9999999999999999 < 1, which gave an orbit of period 8.1e8 to integrate
    cfg = _base_cfg(geometry={"kind": "hyperbolic", "R": 0.9741785401533375, "genus": 2},
                    E=1.4330786169778382, t_periods=1)
    assert _exits_2_cleanly(tmp_path, capsys, cfg, "dynamics") == (
        "error: the circle family at E=1.43308 needs a finite positive "
        "Q^2 = b^2 + K(E^2-1); Q^2/b^2 is 0\n")


def test_dynamics_with_an_unrepresentable_start_point_exits_2(tmp_path, capsys):
    # below the Mane level with Q^2/b^2 > 0, but cR rounds to 1
    cfg = _base_cfg(geometry={"kind": "hyperbolic", "R": 0.7, "genus": 2},
                    E=1.743793659390529, t_periods=1)
    assert "is not representable" in _exits_2_cleanly(tmp_path, capsys, cfg, "dynamics")


@pytest.mark.parametrize("sub", ["predict", "residual"])
def test_k_sum_above_mane_level_exits_3(tmp_path, capsys, sub):
    cfg = _base_cfg(geometry={"kind": "hyperbolic", "R": 1.0, "genus": 2}, E=1.5,
                    N={"start": 10, "stop": 50, "step": 10})
    path = _write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main([sub, "--config", path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "Mane level" in err and err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("sub", ["spectrum", "trace", "residual"])
def test_spectral_commands_refuse_the_deformed_sphere(tmp_path, capsys, sub):
    cfg = _base_cfg(geometry={"kind": "katok", "eps": 0.3}, E=SQRT2)
    path = _write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main([sub, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "no closed-form spectrum" in err and err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())


def test_undecodable_config_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["trace", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: config ")


@pytest.mark.parametrize("value,kwargs,expect", [
    (3000.0, {"integer": True}, 3000),
    (7, {}, 7.0),
    (1000, {"positive": True, "cap": 1000}, 1000.0),
    (0, {"integer": True}, 0),
])
def test_config_number_accepts(value, kwargs, expect):
    got = _number(value, "x", **kwargs)
    assert got == expect and type(got) is type(expect)


@pytest.mark.parametrize("value,kwargs", [
    (False, {}), ("1", {}), (None, {}), (float("nan"), {}), (-float("inf"), {}),
    (10**400, {}), (-1e-300, {}), (0.0, {"positive": True}),
    (2.5, {"integer": True}), (1001, {"cap": 1000}),
])
def test_config_number_rejects(value, kwargs):
    with pytest.raises(ValidationError):
        _number(value, "x", **kwargs)


def test_write_csv_float_rows_match_per_value_format():
    tiny = 5e-324  # the smallest subnormal
    big = 1.7976931348623157e308  # the largest double
    floats = [
        (float("nan"), float("inf"), float("-inf"), -0.0),
        (0.0, tiny, -tiny, 2.2250738585072014e-308 / 3.0),
        (1.0 / 3.0, -1e300, 123456789.0, 0.1),
        (big, -big, 1.0, -1.0),
    ]
    rows = floats + [
        (3, "x", True, 2.5),   # mixed types
        (False, -7, np.float64(0.2), np.int64(4)),
    ]
    header = ["a", "b", "c", "d"]
    text = cli._csv(header, rows)
    expected = "a,b,c,d\n" + "".join(",".join(cli._fmt(v) for v in row) + "\n" for row in rows)
    assert text == expected
    assert text.splitlines()[1] == "nan,inf,-inf,-0"
    # the whole-table writer of float64 columns gives the same bytes
    columns = [np.array(col) for col in zip(*floats)]
    assert dynamics._float_csv(header, columns) == "".join(text.splitlines(True)[:len(floats) + 1])


def _percent_17g(header, columns):
    """The table as one "%.17g" format call, the printer's reference."""
    values = np.column_stack(columns).ravel().tolist()
    line = ",".join(["%.17g"] * len(header)) + "\n"
    return ",".join(header) + "\n" + line * len(columns[0]) % tuple(values)


def test_float_csv_is_percent_17g_on_a_million_doubles():
    # most values in the range the printer writes itself, 1e-4 <= |x| < 1e17
    rng = np.random.default_rng(20261021)
    signs = rng.choice([-1.0, 1.0], 1_000_000)
    # every bit pattern: NaN payloads, subnormals, infinities, both signs
    bits = rng.integers(0, 2**64, 40_000, dtype=np.uint64, endpoint=False).view(np.float64)
    # every decimal exponent from -30 to 30
    decades = np.concatenate([rng.uniform(1.0, 10.0, 30_000 if -4 <= k < 17 else 3_000)
                              * float(f"1e{k}") for k in range(-30, 31)])
    # x 10^(16-X) lands on a half-integer: ties, rounded half to even
    ties = (np.floor(10.0 ** rng.uniform(13.0, 16.0, 70_000))[:, None]
            + [0.25, 0.5, 0.75]).ravel()
    powers = np.array([float(f"1e{k}") for k in range(-30, 31)])
    edges = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
                            [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-4, -1e-4, 1e17, -1e17]])
    values = np.concatenate([bits, (np.concatenate([decades, ties])
                                    * signs[:len(decades) + len(ties)]), edges, -edges])
    assert len(values) >= 1_000_000
    columns = list(values[:len(values) // 7 * 7].reshape(-1, 7).T)
    header = list("abcdefg")
    assert dynamics._float_csv(header, columns) == _percent_17g(header, columns)
    # a table of one column, and tables of one row
    assert dynamics._float_csv(["x"], [edges]) == _percent_17g(["x"], [edges])
    for row in (edges, ties[:9], decades[::60_000]):
        columns = [np.array([v]) for v in row]
        header = [f"c{i}" for i in range(len(row))]
        assert dynamics._float_csv(header, columns) == _percent_17g(header, columns)


@pytest.mark.parametrize("geometry,E", [
    ({"kind": "katok", "eps": 1.0 / math.sqrt(5.0)}, SQRT2),
    ({"kind": "torus"}, 2.0),
])
def test_dynamics_orbit_samples_zero_and_one(tmp_path, geometry, E):
    outs = {}
    for n in (0, 1):
        cfg = {"schema": "magtrace/1", "geometry": geometry, "E": E, "orbit_samples": n}
        outs[n] = tmp_path / f"out{n}"
        path = _write_cfg(tmp_path, f"cfg{n}.json", cfg)
        assert main(["dynamics", "--config", path, "--out", str(outs[n])]) == 0
    # no header-only table for zero samples
    assert sorted(p.name for p in outs[0].iterdir()) == ["invariants.json"]
    assert (outs[0] / "invariants.json").read_bytes() == (outs[1] / "invariants.json").read_bytes()
    # one sample is the orbit's initial state at t = 0
    geo = cli._geometry(cfg)
    state, _ = dynamics.canonical_orbit_state(geo, E, "+")
    y = np.array(state)
    row = [0.0, *y, geo.hamiltonian(y)]
    header = "t,q1,q2,p1,p2,H"
    if geo.first_integral(y) is not None:
        row.append(geo.first_integral(y))
        header += ",P"
    lines = (outs[1] / "orbit.csv").read_text().splitlines()
    assert lines == [header, ",".join(cli._fmt(float(v)) for v in row)]


def test_reused_parser_matches_fresh_processes(tmp_path, capsys):
    # one process runs a command, a usage error, an unusable --out and another
    # command; each matches a fresh ``python -m magtrace`` run
    dyn = _write_cfg(tmp_path, "dyn.json", _TORUS_DYNAMICS_CFG)
    res = _write_cfg(tmp_path, "res.json", _base_cfg(N={"start": 40, "stop": 400, "step": 40}))
    blocker = tmp_path / "blocker"
    blocker.write_text("a file\n")
    runs = [(["dynamics", "--config", dyn], 0), (["residual", "--config", res, "--threads", "2"], 2),
            (["dynamics", "--config", dyn], 2), (["residual", "--config", res], 0)]
    for i, (argv, code) in enumerate(runs):
        outs = [blocker if i == 2 else tmp_path / f"{side}{i}" for side in ("warm", "fresh")]
        try:
            warm_code = main([*argv, "--out", str(outs[0])])
        except SystemExit as exc:
            warm_code = exc.code
        warm = capsys.readouterr()
        fresh = _run_cli([*argv, "--out", str(outs[1])])
        assert warm_code == fresh.returncode == code
        assert (warm.out, warm.err) == (fresh.stdout, fresh.stderr) and warm.err.count("\n") == (
            0 if code == 0 else 2 if i == 1 else 1)
        files = [{p.name: p.read_bytes() for p in d.iterdir()} if d.is_dir() else None
                 for d in outs]
        assert files[0] == files[1] and (files[0] is None) == (code != 0)
    assert blocker.read_text() == "a file\n"


_LADDERS = {"torus": ({"kind": "torus"}, 2.0), "sphere": ({"kind": "sphere", "R": 0.5}, SQRT2),
            "hyperbolic": ({"kind": "hyperbolic", "R": 1.0, "genus": 2}, 1.2)}


def test_gaussian_spectral_commands_leave_numpy_unloaded(tmp_path):
    # a gaussian's windows and k-sums run on Python floats; in the same
    # process a bump trace, the flow and the Katok report still load numpy and work
    grid = {"start": 40, "stop": 400, "step": 40}
    gaussian = [[sub, "--config", _write_cfg(tmp_path, f"{sub}-{name}.json",
                                             _base_cfg(geometry=geo, E=E, N=grid)),
                 "--out", str(tmp_path / f"{sub}-{name}")]
                for sub in ("spectrum", "trace", "predict", "residual")
                for name, (geo, E) in _LADDERS.items()]
    bump = _base_cfg(test_function={"kind": "fourier_bump", "tau0": 2.0, "w": 0.5},
                     N={"value": 200})
    dyn = {"schema": "magtrace/1", "geometry": {"kind": "sphere", "R": 0.5}, "E": SQRT2,
           "orbit_samples": 16}
    katok = {"schema": "magtrace/1", "geometry": {"kind": "katok", "eps": 1.0 / math.sqrt(5.0)},
             "E": SQRT2, "N": {"value": 3}}
    numpy_runs = [[sub, "--config", _write_cfg(tmp_path, f"{sub}.json", cfg),
                   "--out", str(tmp_path / sub)]
                  for sub, cfg in (("trace", bump), ("dynamics", dyn), ("katok", katok))]
    code = ("import json, sys\n"
            "def numpy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')\n"
            "import magtrace\n"
            "on_import = numpy_modules()\n"
            "from magtrace import cli\n"
            f"codes = [cli.main(a) for a in {gaussian!r}]\n"
            "after_gaussian = numpy_modules()\n"
            f"later = [cli.main(a) for a in {numpy_runs!r}]\n"
            "print(json.dumps([on_import, codes, after_gaussian, later, numpy_modules() != []]))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    on_import, codes, after_gaussian, later, loaded = json.loads(out.stdout)
    assert on_import == [] and after_gaussian == [] and loaded
    assert codes == [0] * 12 and later == [0] * 3
    assert all(len(os.listdir(argv[4])) == 1 for argv in gaussian)


def test_bump_predicts_leave_numpy_unloaded(tmp_path):
    # a bump's transform side runs on Python floats and its cosine table waits
    # for the first phi: building a bump and its k-sums on the torus and at the
    # Katok period T# load no numpy; a bump trace in the same process does
    eps = 1.0 / math.sqrt(5.0)
    tsharp = 2.0 * math.pi * SQRT2 / (1.0 - eps * eps)
    bump = {"kind": "fourier_bump", "tau0": 4.0, "w": 0.5}
    torus = _base_cfg(test_function=bump, N={"list": [200, 400]})
    katok = _base_cfg(geometry={"kind": "katok", "eps": eps}, E=SQRT2, N={"list": [3, 400]},
                      test_function={"kind": "fourier_bump", "tau0": tsharp, "w": 1.0})
    argvs = [[sub, "--config", _write_cfg(tmp_path, f"{name}.json", cfg),
              "--out", str(tmp_path / name)]
             for sub, name, cfg in (("predict", "predict-torus", torus),
                                    ("predict", "predict-katok", katok),
                                    ("trace", "trace-torus", torus))]
    code = ("import json, sys\n"
            "def numpy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')\n"
            "from magtrace import cli, testfn\n"
            f"testfn.from_config({bump!r})\n"
            "after_build = numpy_modules()\n"
            f"codes = [cli.main(a) for a in {argvs[:2]!r}]\n"
            "after_predict = numpy_modules()\n"
            f"trace = cli.main({argvs[2]!r})\n"
            "print(json.dumps([after_build, codes, after_predict, trace, 'numpy' in sys.modules]))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [[], [0, 0], [], 0, True]
    assert all(len(os.listdir(argv[4])) == 1 for argv in argvs)


def test_fresh_tracer_install_after_a_gaussian_residual(tmp_path):
    # in a fresh process, where no command has loaded dynamics, the benchmark's
    # tracer patches the lazily registered module and puts everything back
    path = _write_cfg(tmp_path, "cfg.json", _base_cfg(N={"start": 40, "stop": 400, "step": 40}))
    argv = ["residual", "--config", path, "--out", str(tmp_path / "out")]
    perfbench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
    code = ("import sys\n"
            f"sys.path.insert(0, {perfbench!r})\n"
            "from magtrace import cli, spectra, tracesum\n"
            f"code = cli.main({argv!r})\n"
            "ode_after_residual = 'magtrace.ode' in sys.modules\n"
            "from tracer import Tracer\n"
            "owners = [(cli, 'main'), (spectra, 'enumerate_window'),\n"
            "          (tracesum, 'enumerate_window')]\n"
            "originals = [getattr(m, a) for m, a in owners]\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"  # reads dynamics, and so runs it, for the first time
            "from magtrace import dynamics\n"
            "patched = [getattr(m, a) is not o for (m, a), o in zip(owners, originals)]\n"
            "patched.append(hasattr(dynamics.integrate, '__wrapped__'))\n"
            "tracer.uninstall()\n"
            "restored = [getattr(m, a) is o for (m, a), o in zip(owners, originals)]\n"
            "restored.append(not hasattr(dynamics.integrate, '__wrapped__'))\n"
            "print(code, ode_after_residual, all(patched), all(restored))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "False", "True", "True"]


def test_spectral_commands_leave_numpy_polynomial_unloaded(tmp_path):
    # the holonomy quadrature's Gauss-Legendre rule is a literal table, so no
    # command, dynamics and katok included, imports numpy.polynomial
    bump = {"kind": "fourier_bump", "tau0": 2.0, "w": 0.5}
    katok = {"schema": "magtrace/1", "geometry": {"kind": "katok", "eps": 1.0 / math.sqrt(5.0)},
             "E": SQRT2, "N": {"value": 3}}
    runs = [("residual", _base_cfg(N={"start": 40, "stop": 400, "step": 40})),
            ("trace", _base_cfg(test_function=bump, N={"value": 200})),
            ("predict", _base_cfg(test_function=bump, N={"value": 200})),
            ("spectrum", _base_cfg(test_function=bump, N={"value": 200})),
            ("dynamics", _TORUS_DYNAMICS_CFG),
            ("katok", katok)]
    argvs = [[sub, "--config", _write_cfg(tmp_path, f"{sub}.json", cfg),
              "--out", str(tmp_path / sub)] for sub, cfg in runs]
    code = ("import sys; from magtrace import cli; "
            f"codes = [cli.main(argv) for argv in {argvs!r}]; "
            "print(*codes, sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "0 0 0 0 0 0 []"
    assert [len(list((tmp_path / sub).iterdir())) for sub, _ in runs] == [1, 1, 1, 1, 2, 2]


def test_hyperbolic_dynamics_leaves_numpy_random_unloaded(tmp_path):
    # the hyperbolic surface has no Monte Carlo domain, so no generator is built
    cfg = _base_cfg(geometry={"kind": "hyperbolic", "R": 1.0, "genus": 2}, E=1.2,
                    mc_samples=100_000, orbit_samples=16)
    del cfg["test_function"], cfg["N"]
    argv = ["dynamics", "--config", _write_cfg(tmp_path, "cfg.json", cfg),
            "--out", str(tmp_path / "out")]
    code = ("import sys; from magtrace import cli; "
            f"code = cli.main({argv!r}); "
            "print(code, sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "0 []"
    report = json.loads((tmp_path / "out" / "invariants.json").read_text())
    assert report["liouville_volume"]["mc_estimate"] is None
