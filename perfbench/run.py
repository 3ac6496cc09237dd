"""priorfit benchmark: one workload per process, closed loop, one client.

Usage, from the repository root:

    python3 perfbench/run.py --workload pretrain_desk --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics with nothing wrapped. --trace 1
measures half the window untraced and half traced (every public function of
each layer wrapped), and reports the per-layer metrics, the tracing overhead,
and whether both halves produced bit-identical outputs. The last line of
standard output is the result object; the line before it records the run
environment and the workload's named metrics. Spans of a traced run are
written to .perfbench_out/.
"""

from __future__ import annotations

import os
import sys
import time

# BLAS pinned to one thread before numpy loads
BLAS_PIN = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS")}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# reported as the error when no output survived to compute it from
ERROR_SENTINEL = 1e300
LOOP = "closed loop, 1 client: no queue exists, so there is no waiting time to measure"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs, for the smoke test")
    return p.parse_args(argv)


class Loop:
    """Closed loop over one workload's ops: times each op, counts attempts
    and failures, keeps outputs, and (when a tracer is given) brackets each
    op in a root span with tracing enabled only inside it."""

    def __init__(self, seconds: float, min_ops: int, tracer=None):
        self.deadline = time.perf_counter() + seconds
        self.min_ops = min_ops
        self.tracer = tracer
        self.times: list[float] = []
        self.cpu_times: list[float] = []
        self.outputs: list = []
        self.attempted = 0
        self.failed = 0

    def more(self) -> bool:
        return self.attempted < self.min_ops or time.perf_counter() < self.deadline

    def call(self, fn, *args, **kwargs):
        tracer = self.tracer
        span = None
        if tracer is not None:
            span = tracer.begin_op()
            tracer.enabled = True
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            error = False
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out, error = None, True
        elapsed = time.perf_counter() - t0
        self.cpu_times.append(time.process_time() - c0)
        if tracer is not None:
            tracer.enabled = False
            tracer.close_span(span, error)
        self.attempted += 1
        self.times.append(elapsed)
        if error:
            self.failed += 1
        return out

    def record(self, out, ok: bool) -> None:
        """Keep a returned output; one that fails its checks counts as failed."""
        if ok:
            self.outputs.append(out)
        else:
            self.failed += 1


class WarningCounter(logging.Handler):
    """Counts WARNING-and-above records per priorfit module logger."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.counts: dict[str, int] = {}

    def emit(self, record):
        module = record.name.split(".")[1] if "." in record.name else record.name
        self.counts[module] = self.counts.get(module, 0) + 1

    def take(self) -> dict[str, int]:
        counts, self.counts = self.counts, {}
        return counts


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method), for q in 1..99."""
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def environment() -> dict:
    import numpy as np
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_thread_pin": {k: os.environ.get(k) for k in BLAS_PIN},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def timing(loop: Loop) -> dict:
    ms = [t * 1e3 for t in loop.times]
    p90 = percentile(ms, 90)
    return {"p50": statistics.median(ms), "p90": p90, "samples": len(ms),
            "beyond_p90": sum(1 for v in ms if v > p90),
            "cpu_p50": statistics.median(loop.cpu_times) * 1e3}


def named_metrics(wl, t: dict, per_s: float, quality: dict, setup_s: float,
                  failed_share: float, rss: float) -> dict:
    """The workload's metrics under their user-facing names."""
    named = {"setup_s": (setup_s, "s", "lower"),
             "failed_share": (failed_share, "1", "lower"),
             "peak_rss_mb": (rss, "MB", "lower"),
             f"{wl.op_name}_ms_p50": (t["p50"], "ms", "lower"),
             f"{wl.op_name}_ms_p90": (t["p90"], "ms", "lower"),
             wl.rate_name: (per_s, "1/s", "higher"),
             **quality}
    return {k: {"value": v, "unit": u, "better": b} for k, (v, u, b) in named.items()}


def import_seconds(repeats: int) -> float:
    """Median wall time for a fresh interpreter to import numpy, scipy and
    priorfit, the part of set-up that one process cannot repeat."""
    code = "import sys; sys.path[:0] = sys.argv[1:]; import workloads"
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC), str(HERE)], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure_setup(wl, work: Path, seed: int, repeats: int):
    """Set up `repeats` times from scratch; returns the last state and the
    median duration."""
    from workloads import fresh_dir
    durations, state = [], None
    for r in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        state = wl.setup(fresh_dir(work / f"setup{r}"), seed)
        durations.append(time.perf_counter() - t0)
    gc.collect()
    return state, statistics.median(durations)


def run_untraced(wl, args, work: Path, spec: dict, counter: WarningCounter):
    repeats = wl.sizes["setup_repeats"]
    import_s = import_seconds(repeats)
    state, setup_median = measure_setup(wl, work, args.seed, repeats)
    setup_s = import_s + setup_median
    loop = Loop(args.seconds, wl.min_ops)
    wl.run(state, loop)
    t = timing(loop)
    per_s = wl.items_per_op(state) * len(loop.times) / sum(loop.times)
    error, quality = math.nan, {}
    if not loop.failed:
        try:
            error, quality = wl.quality(state, loop.outputs)
        except (ValueError, IndexError, KeyError):
            traceback.print_exc(file=sys.stderr)
    if not math.isfinite(error):
        # an output the quality cannot be computed from is a failed output
        loop.failed += 1
        error = ERROR_SENTINEL
    rss = peak_rss_mb()
    failed_share = loop.failed / loop.attempted
    values = {
        "setup_s": setup_s,
        "ok_share": 1.0 - failed_share,
        "peak_rss_mb": rss,
        "op_ms_p50": t["p50"],
        "op_ms_p90": t["p90"],
        "items_per_s": per_s,
        "error": error,
    }
    info = {"timing": t, "unit_of_work": wl.unit_of_work, "warnings": counter.take(),
            "setup_parts_s": {"import": import_s, "workload": setup_median},
            "items_per_op": wl.items_per_op(state),
            "failed_share": {"failed": loop.failed, "attempted": loop.attempted,
                             "share": failed_share},
            "named_metrics": named_metrics(wl, t, per_s, quality, setup_s,
                                           failed_share, rss)}
    return loop.attempted, loop.failed, values, info, spec["end_to_end"]


def run_traced(wl, args, work: Path, spec: dict, counter: WarningCounter):
    from tracer import Tracer, layer_metrics
    from workloads import fresh_dir
    state = wl.setup(fresh_dir(work / "setup"), args.seed)
    half = args.seconds / 2
    counter.take()
    plain = Loop(half, 1)
    wl.run(state, plain)
    tracer = Tracer()
    tracer.install()
    try:
        traced = Loop(half, 1, tracer)
        counter.take()
        wl.run(state, traced)
        warnings = counter.take()
    finally:
        tracer.uninstall()
    common = min(len(plain.outputs), len(traced.outputs))
    identical = common > 0 and all(
        wl.same_output(a, b) for a, b in zip(plain.outputs, traced.outputs))
    values = layer_metrics(tracer, warnings)
    base = statistics.median(plain.times) * 1e3
    overhead = statistics.median(traced.times) * 1e3 - base
    values["trace.overhead_ms_per_op"] = overhead
    values["trace.overhead_share"] = overhead / base
    values["trace.outputs_identical"] = 1.0 if identical else 0.0
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.npz")
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed + (0 if identical else 1)
    info = {"untraced_ops": plain.attempted, "traced_ops": traced.attempted,
            "compared_ops": common, "outputs_identical": identical,
            "spans": len(tracer.spans)}
    return attempted, failed, values, info, spec["per_layer"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "priorfit" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: priorfit sources not found under {SRC}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads  # noqa: imports numpy and priorfit
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload '{args.workload}'\n")
        return 2
    wl = workloads.WORKLOADS[args.workload](workloads.TINY if args.tiny
                                            else workloads.FULL)
    work = OUT / f"work-{wl.name}-{os.getpid()}"
    counter = WarningCounter()
    logging.getLogger("priorfit").addHandler(counter)
    try:
        if args.trace:
            attempted, failed, values, info, declared = run_traced(
                wl, args, work, spec, counter)
        else:
            attempted, failed, values, info, declared = run_untraced(
                wl, args, work, spec, counter)
    finally:
        logging.getLogger("priorfit").removeHandler(counter)
        shutil.rmtree(work, ignore_errors=True)
    metrics = {}
    for m in declared:
        value = values.get(m["name"])
        if value is None:
            sys.stderr.write(f"perfbench: metric '{m['name']}' was not measured\n")
            return 3
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    info.update({"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                 "trace": args.trace, "tiny": args.tiny, "loop": LOOP,
                 "why": next((w["why"] for w in spec["workloads"]
                              if w["name"] == wl.name), None),
                 "environment": environment()})
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
