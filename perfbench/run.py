"""magtrace benchmark: the CLI cold and warm on three workloads, oracle-checked.

    python3 perfbench/run.py --workload ladder_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a magtrace checkout; the package is imported from its
``src/`` and nowhere else.  The load is a closed loop with one client: one
command at a time, default ``--threads`` (1), BLAS/OpenMP pools pinned to
one thread, and at most one child process beside this one.

An operation is one execution of a workload command, either cold (a fresh
``python -m magtrace`` process) or warm (``magtrace.cli.main(argv)`` in
this process, after one discarded warm-up pass).  It fails when the command
exits nonzero or one of its output checks fails (checks.py).  Outputs that
are byte-identical to ones already checked in this run share their verdict.

``--trace 0`` measures the end-to-end metrics.  Each run repeats cycles
until ``--seconds`` have passed (a cycle starts only if at least half of it
fits).  A cycle runs every command cold once and warm WARM_REPS times back
to back, alternating which goes first, with two set-up probes spread
through it, so that a slow spell of the host hits every metric alike.

The host's speed drifts by up to 2x within minutes, most in fresh-memory
numpy work, so every timed sample is paired with a host-speed reference
taken right next to it: a fixed kernel of interpreter, numpy and
fresh-memory work (KERNEL_SRC), run in a fresh ``python`` that imports
numpy before and after each cold operation and set-up probe, and
in-process between consecutive warm operations; each sample is paired
with the mean of the references on its two sides.  A metric is the median of
sample/reference ratios times the reference's nominal time, i.e. seconds
on a host that runs the reference in its nominal time.  The raw wall
times are kept in the run record.

    setup_s      setup_probe.py (fresh interpreter, import magtrace,
                 configs read, inputs built), median
    cold_s       sum over commands of the median cold time
    warm_s       sum over commands of the median warm time
    peak_rss_mb  peak resident memory of this process, which runs the
                 warm passes, read after the warm-up pass (not scaled)

``--trace 1`` alternates untraced and traced warm passes and prints the
per-layer metrics of tracer.py, the import split of ``python -X importtime
-c "import magtrace"``, and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  ``correct`` is false when an
operation fails for any reason other than a workload command's known fault.
A record of the run (machine, library versions, samples, failures, and in
traced mode the spans) goes to .perfbench/records/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

from workloads import WARM_REPS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
SETUP_PER_CYCLE = 2
# The host-speed reference: the kinds of work magtrace's commands do
# (interpreter loops, small numpy kernels, fresh multi-megabyte arrays), so
# that a slow spell of the host slows it alike.
KERNEL_SRC = """
acc = 0
for i in range(30_000):
    acc += i * i
np.cos(np.outer(np.arange(128.0), np.linspace(0.0, 1.0, 512))).sum()
a = np.arange(1_000_000.0)
np.exp(-np.sqrt(a * a + 1.0)).sum()
np.exp(1j * np.outer(np.linspace(0.0, 50.0, 1024), np.linspace(0.0, 1.0, 512))).sum()
"""
_KERNEL_CODE = compile(KERNEL_SRC, "<reference kernel>", "exec")
REF_COLD_ARGV = ("-c", "import numpy as np\n" + KERNEL_SRC)
REF_COLD_NOMINAL_S = 0.45
REF_WARM_NOMINAL_S = 0.070
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 120
HARD_STOP_S = 150          # no cycle starts after this, whatever --seconds says

END_TO_END = {"setup_s": "s", "cold_s": "s", "warm_s": "s", "peak_rss_mb": "MB"}


class Fatal(Exception):
    """The benchmark cannot run here (no sources, broken set-up probe)."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MAGTRACE_THREADS"}
    env.update(PINNED)
    env["PYTHONPATH"] = str(SRC)
    return env


def reference_kernel() -> float:
    """In-process time of KERNEL_SRC."""
    import numpy as np
    t0 = time.perf_counter()
    exec(_KERNEL_CODE, {"np": np})
    return time.perf_counter() - t0


def _median_ratio(pairs) -> float:
    return statistics.median(t / ref for t, ref in pairs)


def machine_info() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


class Run:
    """One benchmark run of one workload: operations, checks and samples."""

    def __init__(self, workload: str, seed: int, work: Path):
        import checks
        from magtrace import cli

        self.checks, self.cli = checks, cli
        self.seed = seed
        self.cmds = WORKLOADS[workload](seed)
        self.warm_reps = WARM_REPS[workload]
        self.work = work
        self.env = child_env()
        self.cfg_paths = {}
        for cmd in self.cmds:
            path = work / f"{cmd.name}.json"
            path.write_text(json.dumps(cmd.config, indent=1))
            self.cfg_paths[cmd.name] = str(path)
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()       # (command, mode, problem) -> count
        self.unexpected = set()
        self.verdicts = {}              # output digest -> problems
        self.samples = defaultdict(list)
        self.setup = []

    # -- operations ----------------------------------------------------------

    def _out_dir(self, cmd) -> Path:
        out = self.work / "out" / cmd.name
        shutil.rmtree(out, ignore_errors=True)
        return out

    def cold(self, cmd) -> tuple:
        """(raw wall time, adjacent cold reference) of one cold execution."""
        out = self._out_dir(cmd)
        argv = [sys.executable, "-m", "magtrace", *cmd.argv(self.cfg_paths[cmd.name], str(out))]
        before = self.cold_reference()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
            code, note = proc.returncode, proc.stderr.decode(errors="replace").strip()[-300:]
        except subprocess.TimeoutExpired:
            code, note = -1, f"timed out after {CHILD_TIMEOUT_S} s"
        dt = time.perf_counter() - t0
        ref = (before + self.cold_reference()) / 2.0
        self._check(cmd, "cold", code, note, out)
        return dt, ref

    def cold_reference(self) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *REF_COLD_ARGV], env=self.env, cwd=ROOT,
                       check=True, timeout=CHILD_TIMEOUT_S)
        return time.perf_counter() - t0

    def warm(self, cmd, after=None) -> tuple:
        """Raw wall time of one warm execution, and after()'s value, taken
        right after it and before the output checks."""
        out = self._out_dir(cmd)
        argv = cmd.argv(self.cfg_paths[cmd.name], str(out))
        note = ""
        gc.collect()                     # no collector pause left over from the checks
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)   # looked up per call: the tracer patches it
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:                # a traceback is a failed operation
            code, note = -1, traceback.format_exc(limit=2)[-300:]
        dt = time.perf_counter() - t0
        ref = after() if after else None
        self._check(cmd, "warm", code, note, out)
        return dt, ref

    def warm_block(self, cmd, reps: int) -> list:
        """reps warm executions, each paired with the mean of the reference
        kernels run just before and just after it."""
        pairs = []
        before = reference_kernel()
        for _ in range(reps):
            dt, after = self.warm(cmd, reference_kernel)
            pairs.append((dt, (before + after) / 2.0))
            before = after
        return pairs

    def _check(self, cmd, mode, code, note, out: Path) -> None:
        self.attempted += 1
        digest = hashlib.sha256(str(code).encode())
        files = sorted(out.iterdir()) if out.is_dir() else []
        for path in files:
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        key = (cmd.name, digest.hexdigest())
        problems = self.verdicts.get(key)
        if problems is None:
            rng = random.Random(f"{self.seed}:{cmd.name}")
            problems = self.checks.check(cmd, code, str(out), rng)
            if code != 0 and note and not any(p.startswith(self.checks.GATE) for p in problems):
                problems.append(f"stderr: {note}")
            self.verdicts[key] = problems
        if not problems:
            return
        self.failed += 1
        for p in problems:
            self.failures[(cmd.name, mode, p)] += 1
        if not (cmd.known_fault and all(p.startswith(self.checks.GATE) for p in problems)):
            self.unexpected.add(cmd.name)

    def output_bytes(self, cmd) -> int:
        out = self.work / "out" / cmd.name
        return sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0

    def setup_sample(self) -> tuple:
        """(raw wall time, adjacent cold reference) of one set-up probe."""
        argv = [sys.executable, str(BENCH / "setup_probe.py"),
                *(self.cfg_paths[c.name] for c in self.cmds)]
        before = self.cold_reference()
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise Fatal("set-up probe failed: " + proc.stderr.decode(errors="replace")[-500:])
        return dt, (before + self.cold_reference()) / 2.0

    def warm_pass(self) -> float:
        """Raw wall time of one warm pass over the command list."""
        return sum(self.warm(cmd)[0] for cmd in self.cmds)

    # -- the two modes -------------------------------------------------------

    def cycles(self, seconds: float, one_cycle) -> int:
        """Repeat one_cycle(index) while at least half of the next one fits."""
        t_start = time.perf_counter()
        self.warm_pass()                 # warm-up: discarded, but checked
        # every pass allocates alike; read the high-water mark before the
        # reference kernel's own arrays can raise it
        self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        n = 0
        while True:
            c0 = time.perf_counter()
            one_cycle(n)
            n += 1
            now = time.perf_counter()
            if (now - t_start) + (now - c0) / 2 > seconds or now - t_start > HARD_STOP_S:
                return n

    def end_to_end(self, seconds: float) -> dict:
        n = len(self.cmds)
        setup_at = {round(i * n / SETUP_PER_CYCLE) for i in range(SETUP_PER_CYCLE)}

        def one_cycle(index):
            for i, cmd in enumerate(self.cmds):
                if i in setup_at:
                    self.setup.append(self.setup_sample())
                cold = self.samples[(cmd.name, "cold")]
                warm = self.samples[(cmd.name, "warm")]
                if index % 2 == 0:
                    cold.append(self.cold(cmd))
                warm.extend(self.warm_block(cmd, self.warm_reps))
                if index % 2 == 1:
                    cold.append(self.cold(cmd))

        self.n_cycles = self.cycles(seconds, one_cycle)
        return {
            "setup_s": REF_COLD_NOMINAL_S * _median_ratio(self.setup),
            "cold_s": REF_COLD_NOMINAL_S * sum(
                _median_ratio(self.samples[(c.name, "cold")]) for c in self.cmds),
            "warm_s": REF_WARM_NOMINAL_S * sum(
                _median_ratio(self.samples[(c.name, "warm")]) for c in self.cmds),
            "peak_rss_mb": self.rss_mb,
        }

    def per_layer(self, seconds: float) -> tuple:
        from tracer import PER_LAYER, Tracer

        imports = [import_split(self.env) for _ in range(IMPORT_SAMPLES)]
        tracer = Tracer()
        untraced, traced, layers = [], [], []

        def one_cycle(index):
            untraced.append(self.warm_pass())
            first = len(tracer.spans)
            tracer.reset_counts()
            tracer.install()
            try:
                t = 0.0
                out_bytes = 0
                for cmd in self.cmds:
                    t += self.warm(cmd)[0]
                    out_bytes += self.output_bytes(cmd)
            finally:
                tracer.uninstall()
            traced.append(t)
            m = tracer.pass_metrics(first)
            m["cli.output_bytes"] = float(out_bytes)
            layers.append(m)

        self.n_cycles = self.cycles(seconds, one_cycle)
        metrics = {name: (statistics.median(v[name] for v in imports), "s")
                   for name in imports[0]}
        for name, (unit, _) in PER_LAYER.items():
            metrics[name] = (statistics.median(m[name] for m in layers), unit)
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
        self.samples["untraced_pass"] = untraced
        self.samples["traced_pass"] = traced
        return metrics, tracer.spans


def import_split(env: dict) -> dict:
    """Self time of ``import magtrace`` by top-level package: numpy, scipy, the rest."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import magtrace"],
                          env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise Fatal("import magtrace failed: " + proc.stderr[-500:])
    split = {"import.numpy_s": 0.0, "import.scipy_s": 0.0, "import.magtrace_s": 0.0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = (f.strip() for f in line[len("import time:"):].split("|"))
        top = name.split(".")[0]
        key = f"import.{top}_s" if top in ("numpy", "scipy") else "import.magtrace_s"
        split[key] += float(self_us) * 1e-6
    return split


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "magtrace" / "__init__.py").is_file():
        raise Fatal(f"no magtrace sources at {SRC}; run from a magtrace checkout")
    os.environ.update(PINNED)
    os.environ.pop("MAGTRACE_THREADS", None)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import magtrace
    if Path(magtrace.__file__).resolve().parent != (SRC / "magtrace").resolve():
        raise Fatal(f"magtrace imported from {magtrace.__file__}, not from {SRC}")

    STATE.mkdir(exist_ok=True)
    work = STATE / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, work)
        subprocess.run([sys.executable, "-c", "import magtrace"], env=run.env, cwd=ROOT,
                       check=True, timeout=CHILD_TIMEOUT_S)   # compile caches, discarded
        spans = None
        if args.trace:
            metrics, spans = run.per_layer(args.seconds)
        else:
            metrics = {k: (v, END_TO_END[k]) for k, v in run.end_to_end(args.seconds).items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not run.unexpected
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(), "cycles": run.n_cycles,
        "attempted": run.attempted, "failed": run.failed, "correct": correct,
        "failures": [[c, m, p, n] for (c, m, p), n in sorted(run.failures.items())],
        "samples": {f"{k[0]}:{k[1]}" if isinstance(k, tuple) else k: v
                    for k, v in run.samples.items()} | {"setup": run.setup},
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    records = STATE / "records"
    records.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        (records / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": spans}))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} cycles={run.n_cycles} "
          f"machine={json.dumps(record['machine'])}")
    for (cmd, mode, problem), n in sorted(run.failures.items()):
        print(f"# failed {n}x {cmd} ({mode}): {problem}")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Fatal as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
