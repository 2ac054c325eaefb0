"""CLI behavior: config validation, exit codes, outputs, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from magtrace import ValidationError, asymptotics, cli, katok_first_integral
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
            row.append(katok_first_integral(geo.eps, y))
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


_KATOK_CFG = {"schema": "magtrace/1", "geometry": {"kind": "katok", "eps": 0.3},
              "N": {"value": 3}}


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


def _no_k_sum(k_max):
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


def test_write_csv_float_rows_match_per_value_format(tmp_path):
    tiny = 5e-324  # the smallest subnormal
    rows = [
        (float("nan"), float("inf"), float("-inf"), -0.0),
        (0.0, tiny, -tiny, 2.2250738585072014e-308 / 3.0),
        (1.0 / 3.0, -1e300, 123456789.0, 0.1),
        (3, "x", True, 2.5),   # mixed: the per-value path
        (False, -7, np.float64(0.2), np.int64(4)),
    ]
    header = ["a", "b", "c", "d"]
    path = tmp_path / "t.csv"
    cli._write_csv(path, header, rows)
    expected = "a,b,c,d\n" + "".join(",".join(cli._fmt(v) for v in row) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode()
    assert path.read_text().splitlines()[1] == "nan,inf,-inf,-0"
