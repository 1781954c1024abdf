"""End-to-end benchmark for ctalign.

    python3 perfbench/run.py --workload {train,serve,align} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``. Each run
times whole rounds of one workload for at least ``--seconds`` (the request
workloads also for at least 1000 requests), checks every output it kept
against perfbench/reference.py, and prints one JSON object as its last line:
the end-to-end metrics with ``--trace 0``, or with ``--trace 1`` the
per-layer metrics of traced rounds plus their overhead against untraced
rounds alternated with them in the same process.
"""

from __future__ import annotations

import os
import sys
import time

MODULE_START = time.perf_counter()

# one BLAS thread (set before NumPy loads): times are process CPU time, which
# would also count a second BLAS thread's spin-waiting as work
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_runs"


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time
    (10 ms ticks); the time since this module loaded where that is not
    available."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rpartition(")")[2].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        age = -1.0
    if not 0.0 < age < 3600.0:
        age = time.perf_counter() - MODULE_START
    return age


def _no_op() -> None:
    pass


class Window:
    """Totals over the rounds run on one side of a measurement.

    Latencies and busy time are process CPU time: on a shared virtual
    machine the wall clock also counts the time the hypervisor gives this
    vCPU to other guests, which was most of the run-to-run spread.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.attempted = self.failed = self.items = 0
        self.wall = self.cpu = 0.0

    def run_round(self, workload) -> None:
        begin_request = _no_op
        if self.tracer is not None:
            self.tracer.install()
            begin_request = self.tracer.begin_request
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            attempted, failed, items = workload.round(self.latencies, begin_request)
        finally:
            self.cpu += time.process_time() - cpu
            self.wall += time.perf_counter() - wall
            if self.tracer is not None:
                self.tracer.uninstall()
        self.attempted += attempted
        self.failed += failed
        self.items += items

    def done(self, seconds: float, min_items: int) -> bool:
        return self.wall >= seconds and self.items >= min_items


def measure(workload, seconds: float, tracer=None) -> list[Window]:
    """Closed loop of whole rounds until ``seconds`` of wall time have passed
    and the workload's minimum item count is reached. With a tracer, traced
    and untraced rounds alternate, and each side gets that much."""
    windows = [Window()] if tracer is None else [Window(), Window(tracer)]
    while not all(w.done(seconds, workload.min_items) for w in windows):
        for window in windows:
            window.run_round(workload)
    return windows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "serve", "align"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ctalign" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'ctalign'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import reference
    import workloads
    from tracing import Tracer, layer_metrics

    out_root = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, out_root)
    setup_s = process_age()
    tracer = Tracer() if args.trace else None
    try:
        windows = measure(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = workload.check()
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    first = windows[0]
    if tracer is not None:
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        metrics = layer_metrics(tracer, windows[1].items)
        untraced, traced = (w.cpu / w.items for w in windows)
        metrics["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
        print(f"spans: {len(tracer.names)} -> {trace_path}")
    else:
        lat_ms = [1e3 * v for v in first.latencies]
        metrics = {
            "setup_s": (setup_s, "s"),
            "items_per_s": (first.items / first.cpu, "items/s"),
            "latency_p50_ms": (reference.nearest_rank(lat_ms, 50), "ms"),
            "latency_p99_ms": (reference.nearest_rank(lat_ms, 99), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"requests timed: {len(lat_ms)} in {first.cpu:.3f} s of CPU, {first.wall:.3f} s of wall time")
    print(f"workload {args.workload} seed {args.seed}: attempted {attempted}, failed {failed}, "
          f"checks {'passed' if not problems else 'FAILED'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
