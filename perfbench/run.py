"""dcmatch benchmark: one command for the census-k11, verify-k1-10 and
query-mix workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.

Every round runs in a fresh interpreter (perfbench/unit.py), so lazy
tables filled by one round never speed up the next and each round's peak
RSS is its own.  With ``--trace 0`` rounds repeat until ``--seconds`` have
passed (at least one round; a round is never cut short) and the
end-to-end metrics are medians over rounds; latency percentiles are
taken within each round first.  Set-up time is the median of
at least SETUP_SAMPLES interpreter starts: the rounds' own, topped up by
set-up-only starts.  With ``--trace 1`` the command runs one round without
spans and one with them, and reports the per-layer metrics of the traced
round plus its wall time over the untraced one.

Stdout carries a readable table, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A wrong answer makes the exit
status 1; a missing package or a crashed round, 2 without a JSON line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_UNITS

HERE = Path(__file__).resolve().parent

WORKLOADS = ("census-k11", "verify-k1-10", "query-mix")
SETUP_SAMPLES = 9
ROUND_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "queries_per_s": "1/s",
}


class RoundError(RuntimeError):
    pass


def start_round(workload: str, seed: int, batch: int, mode: str) -> dict:
    """Run one round in a fresh interpreter and return its JSON result."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "unit.py"), workload, str(seed), str(batch), mode, repr(t0)],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The round's own pool workers share its session; end them all.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RoundError(f"{workload} {mode} round exceeded {ROUND_TIMEOUT_S}s")
    if proc.returncode != 0:
        raise RoundError(f"{workload} {mode} round exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RoundError(f"{workload} {mode} round printed no result")
    return json.loads(lines[-1])


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict], dict]:
    """End-to-end metrics over rounds repeated for ``seconds``."""
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        rounds.append(start_round(workload, seed, len(rounds), "plain"))
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(start_round(workload, seed, 0, "setup")["setup_s"])
    # A query is one parse+neighbors+classify call in query-mix and one
    # whole round in the other workloads, where these restate wall_s.
    # Percentiles are taken per round and then their median, so a stall
    # confined to one round cannot move the run's p99.
    latencies = [sorted(r["latencies_s"]) for r in rounds]
    queries = sum(len(x) for x in latencies)
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "query_p50_ms": 1000 * statistics.median(statistics.median(x) for x in latencies),
        "query_p99_ms": 1000 * statistics.median(percentile(x, 0.99) for x in latencies),
        "queries_per_s": queries / sum(r["wall_s"] for r in rounds),
    }
    info = {
        "rounds": len(rounds),
        "queries per round": len(latencies[0]),
        "setup samples": len(setups),
    }
    return metrics, rounds, info


def trace(workload: str, seed: int) -> tuple[dict, list[dict], dict]:
    """Per-layer metrics from one traced round, against one untraced round."""
    plain = start_round(workload, seed, 0, "plain")
    traced = start_round(workload, seed, 0, "trace")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"]
    info = {"spans": traced["spans_file"]}
    return metrics, [plain, traced], info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "dcmatch" / "__init__.py").is_file():
        print(f"perfbench: no dcmatch package under {Path.cwd() / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, rounds, info = trace(args.workload, args.seed)
            units = LAYER_UNITS
        else:
            metrics, rounds, info = measure(args.workload, args.seed, args.seconds)
            units = END_TO_END_UNITS
    except RoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          + "  ".join(f"{k} {v}" for k, v in info.items()))
    for name, unit in units.items():
        print(f"  {name:40} {metrics[name]:14.6g} {unit}")
    print(f"  {'failed_frac':40} {failed / attempted:14.6g} frac ({failed} of {attempted})")
    for r in rounds:
        for problem in r["problems"]:
            print(f"  FAIL {problem}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
