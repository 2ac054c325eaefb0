"""Set-up probe: a fresh interpreter imports magtrace and builds a workload's inputs.

    python perfbench/setup_probe.py CONFIG.json [CONFIG.json ...]

run.py times this whole process as one ``setup_s`` sample: interpreter
start, ``import magtrace``, reading every config and constructing the
models, energy levels and test functions the commands will use.
"""

import json
import sys

import magtrace
from magtrace import testfn

GEOMETRIES = {
    "torus": lambda g: magtrace.GeometrySpec.torus(),
    "sphere": lambda g: magtrace.GeometrySpec.sphere(g["R"]),
    "hyperbolic": lambda g: magtrace.GeometrySpec.hyperbolic(g["R"], g["genus"]),
    "katok": lambda g: magtrace.GeometrySpec.katok(g["eps"]),
}
MODELS = {
    "torus": lambda g: magtrace.TorusModel(),
    "sphere": lambda g: magtrace.SphereModel(R=g["R"]),
    "hyperbolic": lambda g: magtrace.HyperbolicModel(R=g["R"], genus=g["genus"]),
}


def main(paths) -> int:
    built = []
    for path in paths:
        with open(path) as fh:
            cfg = json.load(fh)
        geo = cfg["geometry"]
        built.append(GEOMETRIES[geo["kind"]](geo))
        built.append(magtrace.EnergyLevel.from_E(cfg["E"]))
        if geo["kind"] in MODELS:
            built.append(MODELS[geo["kind"]](geo))
        if "test_function" in cfg:
            built.append(testfn.from_config(cfg["test_function"]))
    return 0 if len(built) >= len(paths) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
