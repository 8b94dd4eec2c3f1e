"""Benchmark of gradedshift's certificates, end to end and per layer.

    python3 perfbench/run.py --workload purity-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository: the library is imported from its
``src/`` and nowhere else.  One run takes its inputs from ``--seed``, warms
up with one pass over the workload's op list, then runs whole passes until
``--seconds`` of passes have elapsed, timing each op (one certificate)
from outside and checking its outcome.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Their
times are scaled to a fixed host speed with a reference kernel timed
between the ops (see hostspeed.py); the ``wall`` line gives the unscaled
figures.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics; spans come only from wrappers this benchmark installs
(see spans.py), and the first traced pass's spans are written to
``perfbench/out/spans-<workload>.jsonl``.  ``--workload all`` runs each
workload in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

# BLAS gets one thread: with two, the same identity run varied by half.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hostspeed  # noqa: E402  (imports numpy, which reads the pin above)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("purity-sweep", "ball-identities", "cli-manifest")
SETUP_LAUNCHES = 7
PROBE_EVERY = 4  # ops between two timings of the reference kernel
SETUP_CODE = (
    "import gradedshift, gradedshift.cli as cli\n"
    "for name in ('config.schema.json', 'manifest.schema.json', 'report.schema.json'):\n"
    "    cli._load_schema(name)\n"
)
CHILD_TIMEOUT_S = 175
# The reference kernel each workload's times are scaled by (hostspeed.py):
# over repeated 15 s runs, ops_per_s scaled by it varied by 2.6% (purity),
# 3% (ball) and 3.5% (cli), where the fastest wall times varied by 15-26%.
SPEED_KERNEL = {
    "purity-sweep": hostspeed.ASSEMBLY,
    "ball-identities": hostspeed.MATMUL,
    "cli-manifest": hostspeed.ASSEMBLY,
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def time_setup_launch() -> float:
    """Wall time of a fresh interpreter that imports the package and cli and
    loads the three schemas."""
    start = time.perf_counter()
    # no timeout: with one, the wait polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_child_env(), check=True)
    return time.perf_counter() - start


def environment() -> dict:
    import ctypes
    import platform

    import numpy
    import scipy

    blas = {"config": "unknown", "threads": os.environ["OPENBLAS_NUM_THREADS"] + " (env)"}
    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    try:
        lib = ctypes.CDLL(str(libs[0]))
        lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
        lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        blas = {
            "config": lib.scipy_openblas_get_config64_().decode(),
            "threads": lib.scipy_openblas_get_num_threads64_(),
        }
    except (IndexError, OSError, AttributeError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas["config"],
        "blas_threads": blas["threads"],
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile: a value that was measured."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _fastest(passes: list) -> list:
    """Each op's fastest duration over passes of the same op list."""
    return [min(runs) for runs in zip(*passes)]


def _typical(passes: list) -> list:
    """Each op's median duration over passes of the same op list."""
    return [statistics.median(runs) for runs in zip(*passes)]


class Runner:
    """Runs passes over one op list, timing ops and counting failed checks."""

    def __init__(self, ops: list) -> None:
        self.ops = ops
        self.attempted = 0
        self.failed = 0

    def run_pass(self, tracer=None, kernel: Optional[hostspeed.Kernel] = None) -> tuple:
        """Runs every op once; returns the ops' wall durations and, given a
        reference kernel, their durations at the kernel's nominal speed.

        The kernel is timed before every PROBE_EVERY-th op and after the
        last; an op's scaled duration is its wall duration times the
        kernel's nominal time over the mean of the two timings around it.
        """
        durations = []
        probes = []
        for i, op in enumerate(self.ops):
            if kernel is not None and i % PROBE_EVERY == 0:
                probes.append(kernel.time())
            start = time.perf_counter()
            try:
                out = op.run() if tracer is None else tracer.call("op", op.run)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                out = exc
            durations.append(time.perf_counter() - start)
            if not op.check(out):
                self.failed += 1
                if self.failed <= 5:
                    print(f"failed op {op.kind}: {out!r}", file=sys.stderr)
        self.attempted += len(self.ops)
        if kernel is None:
            return durations, None
        probes.append(kernel.time())
        scaled = [
            d * kernel.nominal_s * 2 / (probes[i // PROBE_EVERY] + probes[i // PROBE_EVERY + 1])
            for i, d in enumerate(durations)
        ]
        return durations, scaled


def _latencies(durations: list, count: int) -> dict:
    return {
        "ops_per_s": count / sum(durations),
        "op_p50_ms": _percentile(durations, 0.5) * 1e3,
        "op_p90_ms": _percentile(durations, 0.9) * 1e3,
    }


def end_to_end(runner: Runner, seconds: float, kernel: hostspeed.Kernel) -> tuple:
    """Each op's latency is its median scaled duration over the passes.

    The host's cores are shared: the same op runs up to 1.6x slower for
    seconds at a time, and a whole run can sit in a slow stretch.  Scaling
    each op by the reference kernel timed around it takes the host's speed
    out (see hostspeed.py); the median over passes takes out the rest.  The
    set-up launches are spread over the run, and ``setup_s`` is the median
    of their wall times: scaled by kernel timings around each launch, its
    spread over five seeds grew from 1.9% to 16.5%.  Also returns the
    unscaled op figures: each op's fastest wall duration.
    """
    setup: list = []
    walls: list = []
    scaled: list = []
    while sum(map(sum, walls)) < seconds:
        if sum(map(sum, walls)) >= len(setup) * seconds / SETUP_LAUNCHES:
            setup.append(time_setup_launch())
        wall, scaled_pass = runner.run_pass(kernel=kernel)
        walls.append(wall)
        scaled.append(scaled_pass)
    while len(setup) < SETUP_LAUNCHES:
        setup.append(time_setup_launch())
    count = len(runner.ops)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = _latencies(_typical(scaled), count)
    values["setup_s"] = statistics.median(setup)
    values["peak_rss_mib"] = rss_kib / 1024
    wall_values = _latencies(_fastest(walls), count)
    wall_values["passes"] = len(walls)
    return values, wall_values


def per_layer(runner: Runner, seconds: float, workload: str) -> tuple:
    import spans

    tracer = spans.Tracer()
    summaries, plain, traced = [], [], []
    while sum(map(sum, plain + traced)) < seconds:
        plain.append(runner.run_pass()[0])
        tracer.install()
        try:
            traced.append(runner.run_pass(tracer)[0])
        finally:
            tracer.uninstall()
        if not summaries:
            first_spans = tracer.spans
        summaries.append(tracer.take_pass())
    spans.write_spans(str(OUT / f"spans-{workload}.jsonl"), first_spans)
    overhead_s = sum(_fastest(traced)) - sum(_fastest(plain))
    return spans.per_layer_metrics(summaries, overhead_s)


def run_one(args: argparse.Namespace) -> int:
    if not (SRC / "gradedshift" / "__init__.py").is_file():
        print(f"error: no gradedshift sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gradedshift

    if Path(gradedshift.__file__).resolve().parent != SRC / "gradedshift":
        print(f"error: imported gradedshift from {gradedshift.__file__}", file=sys.stderr)
        return 2
    import workloads  # imports gradedshift, so only once the path is checked

    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        ops = workloads.WORKLOADS[args.workload](args.seed, ROOT, Path(tmp))
        runner = Runner(ops)
        runner.run_pass()  # warm-up: untimed, but its outcomes are checked too
        print("env " + json.dumps(environment()))
        kinds: dict = {}
        for op in ops:
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
        print("mix " + json.dumps({"ops_per_pass": len(ops), "weights": kinds}))
        repeat = True
        if args.trace:
            values, repeat = per_layer(runner, args.seconds, args.workload)
        else:
            kernel = SPEED_KERNEL[args.workload]
            values, wall = end_to_end(runner, args.seconds, kernel)
            print(f"wall ({kernel.name} kernel for scaling) " + json.dumps(wall))
    if set(values) != {m["name"] for m in declared}:
        print(f"error: metrics {sorted(values)} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    if not repeat:
        print("error: traced passes did not repeat their call counts", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} ops {runner.attempted} failed {runner.failed}")
    result = {
        "correct": runner.failed == 0 and repeat,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process, so peak RSS is its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        if not results:
            print(lines[0])  # env
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        ratio = res["failed"] / res["attempted"]
        print(f"{name}: {res['attempted']} ops, failed_ratio {ratio:.6g}, correct {res['correct']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<40} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
