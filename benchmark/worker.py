"""The measuring process: sets up one workload, runs it in a closed loop, prints one JSON line.

Started by run.py, which pins BLAS to one thread and puts the repository's `src`
on PYTHONPATH. Set-up (imports, fixture parsing, building the items, one warm-up
item) is timed from the first line of this file.
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class Run:
    times: list  # seconds per item, in run order
    outcomes: list
    passes: int
    wall: float


def measure(items, seconds: float, passes: int | None = None, tracer=None) -> Run:
    """Closed loop over whole passes of `items`: `passes` of them, or until `seconds` have passed.

    Whole passes keep the mix of items the same on every run, whatever the seed.
    """
    times, outcomes, done = [], [], 0
    start = perf_counter()
    while True:
        for item in items:
            if tracer is not None:
                tracer.item = item.label
            t = perf_counter()
            outcomes.append(item.run())
            times.append(perf_counter() - t)
        done += 1
        if done == passes or (passes is None and perf_counter() - start >= seconds):
            return Run(times, outcomes, done, perf_counter() - start)


def end_to_end(run: Run, setup_s: float) -> dict:
    """The end-to-end metrics; an item's time is the median of its times over the passes."""
    failed = sum(o.failed for o in run.outcomes)
    per_pass = len(run.times) // run.passes
    item_s = [statistics.median(run.times[i::per_pass]) for i in range(per_pass)]
    return {
        "throughput_per_s": (len(run.times) / run.wall, "1/s"),
        "item_ms_p50": (1e3 * spans.nearest_rank(item_s, 0.50), "ms"),
        "item_ms_p95": (1e3 * spans.nearest_rank(item_s, 0.95), "ms"),
        "success_share": (1.0 - failed / len(run.outcomes), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def blas_threads() -> dict:
    """Threads of each OpenBLAS library loaded into this process, asked of the library itself."""
    threads = {}
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.rsplit("/", 1)[-1]}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads[os.path.basename(path)] = getattr(lib, symbol)()
                break
    return threads


def environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def detail(run: Run) -> dict:
    statuses: dict = {}
    for o in run.outcomes:
        statuses[o.status] = statuses.get(o.status, 0) + 1
    return {
        "passes": run.passes,
        "items": len(run.times),
        "wall_s": run.wall,
        "statuses": statuses,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--items", type=int)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    items, warm = workloads.build(args.workload, args.seed, args.items)
    warm.run()
    setup_s = perf_counter() - _STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    if args.trace:
        # Half the time untraced, then the same passes traced: the difference is the
        # tracing overhead, and the end-to-end runs are made with tracing off.
        untraced = measure(items, args.seconds / 2)
        with spans.Tracer() as tracer:
            run = measure(items, args.seconds, passes=untraced.passes, tracer=tracer)
        metrics = spans.layer_metrics(tracer.spans, run.wall, untraced.wall)
        extra = {"self_s": spans.self_seconds(tracer.spans),
                 "busy_s": spans.busy_seconds(tracer.spans)}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        run = measure(items, args.seconds)
        metrics = end_to_end(run, setup_s)
        extra = {}

    ran = list(zip(items * run.passes, run.outcomes))
    wrong = [(item.label, o.wrong) for item, o in ran if o.wrong]
    failed = [item.label for item, o in ran if o.failed]
    info = {
        "env": environment(),
        "run": detail(run),
        "failed_items": sorted(set(failed)),
        "wrong_outputs": wrong,
        "setup_s": setup_s,
        **extra,
    }
    result = {
        "correct": not wrong,
        "attempted": len(run.outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps({"info": info, "result": result}))


if __name__ == "__main__":
    main()
