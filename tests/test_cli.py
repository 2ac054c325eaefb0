"""CLI behavior: config validation, exit codes, outputs, determinism."""

import json
import math
import os
import subprocess
import sys

import pytest

from magtrace.cli import main

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


def test_katok_command_passes(tmp_path):
    cfg = {
        "schema": "magtrace/1",
        "geometry": {"kind": "katok", "eps": 1.0 / math.sqrt(5.0)},
        "N": {"value": 1},
        "k_list": [1, 2, -1],
    }
    path = _write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["katok", "--config", path, "--out", str(out), "--format", "json"]) == 0
    rep = json.loads((out / "katok_report.json").read_text())
    assert rep["max_assembly_rel_dev"] < 1e-12
    assert rep["max_monodromy_dev"] < 1e-6
    assert rep["passed"] is True


def test_katok_rejects_wrong_energy(tmp_path):
    cfg = {
        "schema": "magtrace/1",
        "geometry": {"kind": "katok", "eps": 0.3},
        "E": 1.7,
    }
    path = _write_cfg(tmp_path, "cfg.json", cfg)
    assert main(["katok", "--config", path, "--out", str(tmp_path / "o")]) == 2


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


def _run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "magtrace", *args],
                          capture_output=True, env=env, text=True)


def test_byte_identical_reruns_and_threads(tmp_path):
    cfg = _base_cfg(N={"start": 10, "stop": 60, "step": 10})
    path = _write_cfg(tmp_path, "cfg.json", cfg)
    outs = [tmp_path / f"out{i}" for i in range(3)]
    r1 = _run_cli(["trace", "--config", path, "--out", str(outs[0]), "--threads", "1"])
    r2 = _run_cli(["trace", "--config", path, "--out", str(outs[1]), "--threads", "1"])
    r8 = _run_cli(["trace", "--config", path, "--out", str(outs[2]), "--threads", "8"])
    assert r1.returncode == r2.returncode == r8.returncode == 0
    b1 = (outs[0] / "trace.csv").read_bytes()
    assert b1 == (outs[1] / "trace.csv").read_bytes()
    assert b1 == (outs[2] / "trace.csv").read_bytes()


def test_threads_env_fallback(tmp_path):
    cfg = _base_cfg(N={"list": [5, 10]})
    path = _write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "env_out"
    r = _run_cli(["trace", "--config", path, "--out", str(out)],
                 env_extra={"MAGTRACE_THREADS": "4"})
    assert r.returncode == 0
    assert (out / "trace.csv").exists()


def test_bad_threads_env_exits_2(tmp_path, monkeypatch, capsys):
    path = _write_cfg(tmp_path, "cfg.json", _base_cfg())
    out = tmp_path / "out"
    monkeypatch.setenv("MAGTRACE_THREADS", "abc")
    assert main(["trace", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "MAGTRACE_THREADS" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_json_format_output(tmp_path):
    cfg = _base_cfg(N={"value": 5})
    path = _write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["trace", "--config", path, "--out", str(out),
                 "--format", "json"]) == 0
    rows = json.loads((out / "trace.json").read_text())
    assert rows[0]["N"] == 5 and "re_y" in rows[0]
