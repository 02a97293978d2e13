"""Benchmark of sdpcolor: one workload, measured in fresh processes, one JSON result line.

Run from the repository root:

    python3 benchmark/run.py --workload corpus10 --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  corpus10    both heuristics on the 222 K_4-containing graphs of planar_n10.txt
  ktree200    criterion 3's 200 (k-1)-tree certificates, each checked against SVCN and the oracle
  svcn_large  SVCN on fig1 and on 3-trees with 60, 80 and 100 vertices

The seed shuffles the order of the items. A run measures whole passes over the items
and starts another pass while fewer than --seconds have elapsed. --trace 0 prints the
end-to-end metrics; --trace 1 prints the per-layer metrics from a traced run and writes
its spans to benchmark/out/. --items N keeps only the first N items (for smoke tests).

BLAS is pinned to one thread in every process started here. set-up is measured in the
measuring process and in SETUP_PROBES more fresh processes, and setup_s is their median.
Information about the machine and the run is printed on the line before the result. The
exit code is 0 when every output check passed, 1 when one failed, 2 when no result came.

Which end-to-end metric each per-layer metric should move:
  sdp.capped, sdp.nonoptimal_busy_share, heuristics.retry_share
      -> throughput_per_s and item_ms_p95 on corpus10; no change on ktree200, svcn_large
  sdp.iters_total, sdp.iters_p50, sdp.iters_p99
      -> item_ms_p50 on corpus10 and ktree200
  sdp.ms_per_iter, sdp.busy_s
      -> throughput_per_s and peak_rss_mb on svcn_large; barely corpus10
  formulations.build_calls, formulations.build_s, formulations.extract_s
      -> throughput_per_s on corpus10, item_ms_p50 on svcn_large
  heuristics.solve_modified_calls, heuristics.retry_share, heuristics.self_share,
  heuristics.accept_share, heuristics.solver_errors
      -> throughput_per_s and success_share on corpus10
  linalg.rank_calls, linalg.busy_s
      -> throughput_per_s on corpus10 (small)
  graphs.busy_s, graphs.oracle_share, certificates.busy_share
      -> throughput_per_s on ktree200 (none unless a change targets them)
  sdp.calls, sdp.optimal_share, trace.spans, trace.overhead_s, trace.overhead_share
      -> none; counts and ratios that explain the others
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 20240811
SETUP_PROBES = 2
TIME_LIMIT_S = 175.0
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}


def fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def worker(args: list, env: dict, deadline: float) -> dict:
    """Run worker.py with `args`; return the JSON object on its last output line."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), *args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        fail("worker did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> None:
    deadline = time.monotonic() + TIME_LIMIT_S
    # Exit through SystemExit on SIGTERM, so subprocess.run kills and waits for its worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, help="corpus10, ktree200 or svcn_large")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--items", type=int, help="keep only the first N items")
    args = parser.parse_args()
    if args.seconds <= 0 or (args.items is not None and args.items < 1):
        fail("--seconds and --items must be positive")
    if not (ROOT / "src" / "sdpcolor" / "__init__.py").is_file():
        fail(f"no sdpcolor sources under {ROOT / 'src'}; run from a checkout of the repository")

    env = dict(os.environ, **PINNED_THREADS, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(ROOT / "src"))
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.items is not None:
        common += ["--items", str(args.items)]
    probes = [] if args.trace else [
        worker(common + ["--seconds", "1", "--trace", "0", "--setup-only"], env, deadline)["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    out = worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                 env, deadline)
    result, info = out["result"], out["info"]
    if not args.trace:
        samples = probes + [info["setup_s"]]
        result["metrics"]["setup_s"]["value"] = statistics.median(samples)
        info["setup_s"] = samples
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
