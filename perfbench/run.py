"""End-to-end benchmark of PROSPECTOR: cold CLI, query serving, index update.

Usage, from the repository root::

    python3 perfbench/run.py --workload cli-cold|query-serve|index-update \\
        --seed N --seconds S --trace 0|1

One client drives the workload in a closed loop for ``S`` seconds after a
set-up that is repeated three times. Every answer is checked (see
``workloads.py``); the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run is split into
an untraced and a traced phase over the same requests, and the metrics
are the per-layer ones from the traced phase's spans (written to
``.perfbench_work/traces/``) plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import sys
import time
from typing import Iterator, List, Optional

import workloads
from spans import LAYER_METRICS, REQUEST_LAYER, Tracer, install, layer_metrics
from workloads import ROOT, SRC

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Shares of ``--seconds`` given to the untraced and the traced phase of
#: a traced run.
UNTRACED_SHARE = 0.4
TRACED_SHARE = 0.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
    "index_bytes": "bytes",
    "success_ratio": "ratio",
}


def percentile(values: List[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 < pct < 100)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_samples(pct: float) -> int:
    """Fewest samples that leave at least 10 beyond percentile ``pct``."""
    return math.ceil(round(1000.0 / (100.0 - pct), 6))


class LoopResult:
    def __init__(self) -> None:
        self.latencies_ms: List[float] = []
        self.errors: List[str] = []
        self.elapsed_s = 0.0


def closed_loop(
    workload,
    state,
    requests: Iterator,
    seconds: float,
    min_requests: int = 1,
    tracer=None,
) -> LoopResult:
    """Send one request at a time until ``seconds`` have passed and at least
    ``min_requests`` were sent. Only ``serve`` is timed; a request that
    raises or fails its check counts as failed."""
    out = LoopResult()
    start = time.perf_counter()
    i = 0
    for request in requests:
        if i >= min_requests and time.perf_counter() - start >= seconds:
            break
        span = -1
        if tracer is not None:
            tracer.request = i
            span = tracer.begin(REQUEST_LAYER)
        t0 = time.perf_counter()
        try:
            answer = workload.serve(state, request, tracer)
            error = None
        except Exception as exc:  # a failed request, not a failed benchmark
            answer, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if span >= 0:
            tracer.end(span)
            tracer.request = -1
        if error is None:
            error = workload.check(state, request, answer)
        # Let go of the answer before the next request, so that it is not
        # alive (and counted in peak memory) while that one is served.
        answer = None
        out.latencies_ms.append((t1 - t0) * 1000.0)
        if error is not None:
            out.errors.append(error)
        i += 1
    out.elapsed_s = time.perf_counter() - start
    return out


def timed_setups(workload, repeats: int):
    times = []
    for _ in range(repeats):
        # Drop the previous set-up first: only one state is alive at a time.
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup()
        times.append(time.perf_counter() - t0)
    # Collect the discarded set-ups' garbage now rather than in the loop.
    gc.collect()
    return state, times


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object printed as JSON."""
    workload = workloads.WORKLOADS[name]()
    try:
        workload.prepare()
        if trace:
            return _run_traced(workload, seed, seconds)
        return _run_plain(workload, seed, seconds)
    finally:
        workload.close()


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _run_plain(workload, seed: int, seconds: float) -> dict:
    state, setups = timed_setups(workload, SETUP_REPEATS)
    loop = closed_loop(
        workload, state, workload.requests(seed), seconds,
        min_requests=tail_samples(workload.tail_pct),
    )
    rss_mb, index_bytes = workload.sizes(state)
    checks, check_errors = workload.finish(state)
    attempted = len(loop.latencies_ms) + checks
    failed = len(loop.errors) + len(check_errors)
    n = len(loop.latencies_ms)
    tail = workload.tail_pct
    values = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": percentile(loop.latencies_ms, 50.0),
        "latency_tail_ms": percentile(loop.latencies_ms, tail),
        "throughput_rps": n / loop.elapsed_s,
        "peak_rss_mb": rss_mb,
        "index_bytes": float(index_bytes),
        "success_ratio": 1.0 - failed / attempted,
    }
    for error in (loop.errors + check_errors)[:10]:
        print(f"FAILED: {error}")
    print(
        f"{workload.name} seed={seed}: {n} requests in {loop.elapsed_s:.1f} s,"
        f" {checks} end-of-run checks; failed {failed}/{attempted}"
        f" (failed_ratio {failed / attempted:.6f})"
    )
    print(f"latency_tail_ms is p{tail:g} over n={n} samples; setup_s is the median of {setups}")
    _log_table1(workload)
    for key, value in values.items():
        print(f"  {key} = {value:.6g} {END_TO_END_UNITS[key]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()},
    }


def _log_table1(workload) -> None:
    found = getattr(workload, "found", None)
    if not found:
        return
    problems = workload.problems
    agree = sum(1 for pid, f in found.items() if f == (problems[pid].paper_rank is not None))
    print(
        f"table1: {len(found)} distinct problems asked, found {sum(found.values())},"
        f" paper agreement {agree}/{len(found)}"
    )


def _run_traced(workload, seed: int, seconds: float) -> dict:
    state, _ = timed_setups(workload, 1)
    plain = closed_loop(
        workload, state, workload.requests(seed), seconds * UNTRACED_SHARE,
        min_requests=workload.window,
    )
    state = None
    state, _ = timed_setups(workload, 1)
    tracer = Tracer()
    installed = install(tracer)
    try:
        traced = closed_loop(
            workload, state, workload.requests(seed), seconds * TRACED_SHARE,
            min_requests=workload.window, tracer=tracer,
        )
    finally:
        installed.remove()
    checks, check_errors = workload.finish(state)
    n = len(traced.latencies_ms)
    common = min(n, len(plain.latencies_ms))
    values = layer_metrics(tracer, n, workload.window)
    p50_plain = percentile(plain.latencies_ms[:common], 50.0)
    p50_traced = percentile(traced.latencies_ms[:common], 50.0)
    values["trace.overhead_ms"] = p50_traced - p50_plain
    trace_path = workloads.WORK / "traces" / f"{workload.name}.spans.json"
    tracer.write(str(trace_path))
    attempted = len(plain.latencies_ms) + n + checks
    errors = plain.errors + traced.errors + check_errors
    for error in errors[:10]:
        print(f"FAILED: {error}")
    print(
        f"{workload.name} seed={seed} traced: {len(plain.latencies_ms)} untraced +"
        f" {n} traced requests; counts over the first {workload.window};"
        f" spans in {trace_path.relative_to(ROOT)}"
    )
    print(
        f"tracing overhead: p50 {p50_traced:.3f} ms traced - {p50_plain:.3f} ms untraced"
        f" = {values['trace.overhead_ms']:.3f} ms over the first {common} requests"
    )
    self_ms = tracer.self_ms(range(n))
    for layer, ms in sorted(self_ms.items(), key=lambda kv: -kv[1]):
        print(f"  self {layer:<22} {ms / n:10.3f} ms/request")
    print("self time by request stage (outermost traced call) and layer:")
    by_stage = tracer.self_ms_by_stage(range(n))
    for (stage, layer), ms in sorted(by_stage.items(), key=lambda kv: -kv[1]):
        if ms / n >= 0.01:
            print(f"  {stage:<20} {layer:<22} {ms / n:10.3f} ms/request")
    _log_table1(workload)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: _metric(values[k], unit) for k, unit in LAYER_METRICS.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
