"""One benchmark round in a fresh interpreter; run.py starts this file.

Usage: python3 perfbench/unit.py WORKLOAD SEED BATCH MODE T0

MODE is ``setup`` (stop at the ready point), ``plain`` (one round without
spans) or ``trace`` (one round with spans, written to
.bench_out/spans-WORKLOAD.jsonl).  T0 is the parent's ``time.monotonic()``
just before it started this process, so set-up time covers interpreter
start, imports and the workload's warm-up.
The ready point is the same on every commit: ``dcmatch`` and
``dcmatch.verification`` imported, plus the workload's ``prepare`` step.

Run from the root of a checkout; ``dcmatch`` is imported from ./src.
Prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

import tracer as tracing
from workloads import WORKLOADS, no_span


def _import_package():
    sys.path.insert(0, str(Path.cwd() / "src"))
    import dcmatch
    import dcmatch.verification  # noqa: F401  (part of the ready point)

    return dcmatch


def main(argv: list[str]) -> int:
    workload_name, seed, batch, mode, t0 = argv
    seed, batch, t0 = int(seed), int(batch), float(t0)
    workload = WORKLOADS[workload_name]
    dcmatch = _import_package()
    warm_s = 0.0
    if workload["prepare"]:
        start = time.perf_counter()
        workload["prepare"](dcmatch)
        warm_s = time.perf_counter() - start
    setup_s = time.monotonic() - t0
    out = {"setup_s": setup_s}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    inputs = workload["inputs"](seed, batch) if workload["inputs"] else None
    tracer = None
    span = no_span
    if mode == "trace":
        tracer = tracing.Tracer(f"{workload_name}/seed{seed}/batch{batch}/pid{os.getpid()}")
        tracer.install()
        span = tracer.span
    cpu0 = tracing.cpu_seconds()
    wall0 = time.perf_counter()
    try:
        with span(f"workload.{workload_name}"):
            result, latencies = workload["run"](dcmatch, inputs, span)
    finally:
        if tracer:
            tracer.uninstall()
    wall_s = time.perf_counter() - wall0
    cpu_s = tracing.cpu_seconds() - cpu0
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    attempted, failed, problems = workload["check"](dcmatch, inputs, result)
    out.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=peak_kb / 1024,
        attempted=attempted,
        failed=failed,
        problems=problems[:5],
        latencies_s=latencies or [wall_s],
    )
    if tracer:
        out["layers"] = tracing.layer_metrics(tracer.spans, warm_s)
        out_dir = Path.cwd() / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload_name}.jsonl"
        tracer.write_jsonl(str(spans_path))
        out["spans_file"] = str(spans_path.relative_to(Path.cwd()))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
