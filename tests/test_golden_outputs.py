"""Byte-identity of the benchmark commands' outputs against stored digests.

Every command of the three ``perfbench/workloads.py`` workloads (seed 1),
plus one ``spectrum`` and one gaussian ``predict`` run on each closed-form
ladder, a Katok ``predict`` that leaves periods inside ``k_max`` out of its
sum and five runs that reach branches no other command does (the Katok
shell volume, the hyperbolic phase's half turns, a bump's hats and hat
bounds on arrays, an empty window), runs in-process through ``cli.main``;
each exit code and the sha256 of each output file must match
``golden_outputs.json``.  Beside each file's digest the file stores a sha256
per CSV column or per JSON leaf, so a recapture can name the columns and
fields that moved; the test compares the whole-file digests.  The digests
hold for the numpy version recorded there; another version may move the
last bits of some floats, so the comparison is skipped under one.

    python tests/test_golden_outputs.py --write   # recapture the digests

``--write`` prints each command whose exit code or digests changed, with the
files that changed and, in a CSV file, the columns that changed, e.g.
``changed: spectrum/sphere (exit 0 -> 0) spectrum.csv: tail_bound``, or, in
a JSON file, the leaves that changed by their key paths, e.g.
``invariants.json: numeric.energy_drift``.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from magtrace import cli  # noqa: E402

GOLDEN = Path(__file__).with_name("golden_outputs.json")
SEED = 1


def _commands() -> dict:
    """name -> (subcommand, config), in a fixed order."""
    out = {}
    for workload, build in workloads.WORKLOADS.items():
        for cmd in build(SEED):
            out[f"{workload}/{cmd.name}"] = (cmd.sub, cmd.config)
    for ladder, (geo, E, _) in workloads.LADDERS.items():
        for sub in ("spectrum", "predict"):
            out[f"{sub}/{ladder}"] = (sub, {
                "schema": workloads.SCHEMA, "geometry": geo, "E": E,
                "test_function": workloads.GAUSSIAN, "N": {"list": [40, 400]},
                "tolerances": dict(workloads.TOL)})
    # the modulated hat's support holds k = 2..4 of T#; k = 1 and 5 carry
    # |phi_hat| 8e-4 but lie outside it, inside k_max
    out["predict/katok-modulated"] = ("predict", {
        "schema": workloads.SCHEMA, "geometry": {"kind": "katok", "eps": 0.1001},
        "E": workloads.SQRT2, "N": {"list": [40, 400]},
        "test_function": {"kind": "gaussian_modulated", "s": 0.2, "b": 26.926563261565853},
        "tolerances": {**workloads.TOL, "k_max": 9, "support_tol": 1e-3}})
    # branches no command above reaches
    torus, katok = workloads.LADDERS["torus"][0], workloads.DYNAMICS_GEOMETRIES["katok"][0]
    extras = {
        # a hat around the zero period only: the shell-volume regime
        "predict/katok-zero-period": (katok, workloads.SQRT2, workloads.GAUSSIAN, {}),
        # (E^2-1) R^2 > 3/4, so Q < b/2 and the phase takes its half turns
        "predict/hyperbolic-half-turn": ({"kind": "hyperbolic", "R": 1.0, "genus": 2}, 1.35,
                                         workloads.GAUSSIAN, {}),
        # 121 summed periods: phi_hat on arrays
        "predict/torus-bump-array-hats": (torus, 2.0, {"kind": "fourier_bump", "tau0": 2.0,
                                                       "w": 0.5}, {"k_max": 60}),
        # the k-tail out to k = 61: the hat bounds on arrays
        "predict/torus-bump-array-tail": (torus, 2.0, {"kind": "fourier_bump", "tau0": 0.0,
                                                       "w": 120.0}, {"k_max": 0}),
    }
    for name, (geo, E, tf, tol) in extras.items():
        out[name] = ("predict", {
            "schema": workloads.SCHEMA, "geometry": geo, "E": E, "test_function": tf,
            "N": {"list": [40, 400]}, "tolerances": {**workloads.TOL, **tol}})
    # no rung within the radius at N = 1, 2: the tails split at E N
    out["trace/torus-empty-window"] = ("trace", {
        "schema": workloads.SCHEMA, "geometry": torus, "E": 2.0,
        "test_function": {"kind": "gaussian", "s": 0.01}, "N": {"list": [1, 2]},
        "tolerances": dict(workloads.TOL)})
    return out


def _run(name, sub, config, tmp: Path) -> dict:
    d = tmp / name.replace("/", "_")
    d.mkdir(parents=True)
    cfg = d / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = d / "out"
    code = cli.main([sub, "--config", str(cfg), "--out", str(out)])
    paths = sorted(out.iterdir()) if out.is_dir() else []
    return {"exit": code,
            "files": {p.name: _sha256(p.read_bytes()) for p in paths},
            "columns": {p.name: _PART_DIGESTS[p.suffix](p.read_text())
                        for p in paths if p.suffix in _PART_DIGESTS}}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _column_digests(text: str) -> dict:
    """header name -> sha256 of that column's values, one per line."""
    header, *rows = text.splitlines()
    names = header.split(",")
    columns = zip(*(row.split(",") for row in rows)) if rows else [()] * len(names)
    return {name: _sha256("\n".join(col).encode()) for name, col in zip(names, columns)}


def _leaf_digests(text: str) -> dict:
    """key path -> sha256 of that leaf's JSON, for each leaf of a JSON
    document; the keys and list indices of a path are joined by dots, as
    in ``numeric.energy_drift`` or ``orbits.0.T``."""
    out = {}

    def walk(node, path):
        if isinstance(node, (dict, list)) and node:
            for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
                walk(child, (*path, str(key)))
        else:
            out[".".join(path)] = _sha256(json.dumps(node).encode())
    walk(json.loads(text), ())
    return out


_PART_DIGESTS = {".csv": _column_digests, ".json": _leaf_digests}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", list(_commands()))
def test_output_digests(name, tmp_path):
    golden = _golden()
    if golden["numpy"] != np.__version__:
        pytest.skip(f"digests come from numpy {golden['numpy']}, this is {np.__version__}")
    sub, config = _commands()[name]
    run, want = _run(name, sub, config, tmp_path), golden["commands"][name]
    assert (run["exit"], run["files"]) == (want["exit"], want["files"])


def _moved_under(env: dict, names: list, tmp_path) -> list:
    """The commands among ``names`` whose exit code or whole-file digests
    differ from the golden ones when rerun in a fresh process with ``env``
    added to its environment."""
    golden = _golden()
    if golden["numpy"] != np.__version__:
        pytest.skip(f"digests come from numpy {golden['numpy']}, this is {np.__version__}")
    code = ("import json, sys\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "import test_golden_outputs as g\n"
            f"tmp, names = g.Path({str(tmp_path)!r}), {names!r}\n"
            "print(json.dumps({name: g._run(name, *g._commands()[name], tmp)\n"
            "                  for name in names}))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, **env})
    assert out.returncode == 0, out.stderr
    runs = json.loads(out.stdout)
    return [name for name in names
            if (runs[name]["exit"], runs[name]["files"])
            != (golden["commands"][name]["exit"], golden["commands"][name]["files"])]


# numpy's AVX-512 loops, exp among them, that a host without AVX-512 lacks
_AVX512_OFF = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def test_output_digests_hold_without_avx512_dispatch(tmp_path):
    # every column comes from libm or from a numpy loop whose result does not
    # depend on its SIMD width, so the digests hold on a host without AVX-512
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        pytest.skip("this numpy does not report its CPU features")
    if not (__cpu_features__.get("AVX512_ICL") and __cpu_features__.get("AVX512_SPR")):
        pytest.skip("this host has no AVX512_ICL or AVX512_SPR dispatch to switch off")
    assert _moved_under(_AVX512_OFF, list(_commands()), tmp_path) == []


# a DYNAMIC_ARCH OpenBLAS picks its kernels by CPU when it loads; this one
# names the kernels of an AVX2 host without AVX-512
_BLAS_HASWELL = {"OPENBLAS_CORETYPE": "Haswell"}
# the subcommands that integrate the flow: ode's stage sums and the holonomy
# quadrature's panel dots multiply through BLAS, whose kernels sum in an
# order that depends on the host, so all seven of their outputs move with the
# kernels (the variational field and the katok assembly's det(I - P^k) run on
# Python floats, but the monodromy's run takes ode's stage sums)
_BLAS_SUBCOMMANDS = ("dynamics", "katok")


def test_output_digests_hold_under_another_blas_kernel(tmp_path):
    # no spectral, bump or predict output goes through BLAS, so its digests
    # hold whichever kernels numpy's OpenBLAS dispatches to
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        pytest.skip(f"numpy's BLAS, {blas.get('name')}, is no DYNAMIC_ARCH OpenBLAS")
    names = [name for name, (sub, _) in _commands().items() if sub not in _BLAS_SUBCOMMANDS]
    assert _moved_under(_BLAS_HASWELL, names, tmp_path) == []


def test_golden_covers_every_command():
    assert set(_golden()["commands"]) == set(_commands())


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        result = {name: _run(name, sub, cfg, Path(tmp))
                  for name, (sub, cfg) in _commands().items()}
    before = _golden()["commands"] if GOLDEN.exists() else {}
    for name, now in result.items():
        was = before.get(name, {"exit": None, "files": {}})
        moved = []
        for f in sorted({*was["files"], *now["files"]}):
            if was["files"].get(f) == now["files"].get(f):
                continue
            old_cols = was.get("columns", {}).get(f, {})
            new_cols = now["columns"].get(f, {})
            cols = [c for c in dict.fromkeys([*old_cols, *new_cols])
                    if old_cols.get(c) != new_cols.get(c)]
            moved.append(f"{f}: {' '.join(cols)}" if old_cols and new_cols else f)
        if moved or was["exit"] != now["exit"]:
            print(f"changed: {name} (exit {was['exit']} -> {now['exit']}) {'; '.join(moved)}")
    GOLDEN.write_text(json.dumps({"numpy": np.__version__, "seed": SEED,
                                  "commands": result}, indent=1) + "\n")
