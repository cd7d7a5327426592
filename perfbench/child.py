"""Workload process for ``year_ff`` and ``city_cohort``.

``run.py`` starts this script once per set-up sample (``--setup-only``)
and once for the measured run, and times each start up to the line
:func:`common.announce_ready` prints.  The measured run prints its
result as the last line of standard output.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import tracer as tracing  # noqa: E402
from common import (Ledger, announce_ready, emit, latency_summary,  # noqa: E402
                    peak_rss_mb)

MODULES = {"year_ff": "wl_year", "city_cohort": "wl_city"}


def _operation(wl, state, seed: int, k: int, ledger: Ledger,
               check: bool = True) -> Dict[str, Any]:
    """Run operation ``k``; ``check`` it now or leave that to the caller."""
    job, warm = wl.schedule(seed, k)
    wl.prepare(state, job)
    before = layers.kernel_counts()
    start = time.perf_counter()
    try:
        output = wl.run(state, job)
        error = None
    except Exception as exc:  # noqa: BLE001 - a raising operation fails
        output, error = None, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    after = layers.kernel_counts()
    op = {"k": k, "job": job, "warm": warm, "start": start, "end": end,
          "output": output, "error": error, "cycles": 0,
          "kernel_delta": {key: after[key] - before[key] for key in after}}
    if check:
        judge(wl, state, op, ledger)
    return op


def judge(wl, state, op: Dict[str, Any], ledger: Ledger) -> None:
    """Check one operation's output and count it in ``ledger``."""
    if op["error"] is not None:
        ledger.record([op["error"]])
        return
    try:
        problems, op["cycles"] = wl.check(state, op["job"], op["output"],
                                          op["kernel_delta"])
    except Exception as exc:  # noqa: BLE001 - a failed check fails the op
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    ledger.record(problems)


def measured(wl, state, args) -> Dict[str, Any]:
    ledger = Ledger()
    cold: List[float] = []
    warm: List[float] = []
    cycles = 0
    busy = 0.0
    k = 0
    while not wl.enough(k, busy, args.seconds):
        op = _operation(wl, state, args.seed, k, ledger)
        seconds = op["end"] - op["start"]
        (warm if op["warm"] else cold).append(seconds)
        cycles += op["cycles"]
        busy += seconds
        k += 1
    samples = {"cold": latency_summary(cold)}
    metrics = {
        "node_cycles_per_s": cycles / busy,
        "jobs_per_s": k / busy,
        "cold_job_p50_s": samples["cold"]["p50"],
        "cold_job_p90_s": samples["cold"]["p90"],
        "peak_rss_mb": peak_rss_mb(),
    }
    if warm:
        samples["warm"] = latency_summary(warm)
        metrics.update({
            "warm_job_mean_s": samples["warm"]["mean"],
            "warm_job_p50_s": samples["warm"]["p50"],
            "warm_job_p90_s": samples["warm"]["p90"],
        })
    return {"ledger": ledger.__dict__, "metrics": metrics,
            "samples": samples}


def traced(wl, state, args) -> Dict[str, Any]:
    """Run the first operations untraced, then again traced."""
    ledger = Ledger()
    ops = range(wl.TRACE_OPS)
    plain = sum(
        op["end"] - op["start"]
        for op in (_operation(wl, state, args.seed, k, ledger) for k in ops)
    )
    tracer = tracing.Tracer()
    layers.install(tracer)
    kernels = layers.kernel_counts()
    done = []
    try:
        for k in ops:
            tracer.set_request(f"op{k}")
            done.append(_operation(wl, state, args.seed, k, ledger,
                                   check=False))
        tracer.set_request("")
    finally:
        tracer.uninstall()
    layers.add_kernel_deltas(tracer, kernels)
    for op in done:
        judge(wl, state, op, ledger)
    for name, value in wl.layer_counts(done[-1]["output"]).items():
        tracer.count(name, value)
    path = os.path.join(args.trace_dir, f"child-{os.getpid()}.npz")
    tracer.dump(path)
    spans = tracing.load([path])
    traced_s = sum(op["end"] - op["start"] for op in done)
    unattributed = sum(
        op["end"] - op["start"] - tracing.covered_seconds(
            spans, f"op{op['k']}", op["start"], op["end"])
        for op in done
    )
    counters = dict(spans.counters)
    counters["trace.overhead_pct"] = 100.0 * (traced_s / plain - 1.0)
    counters["trace.span_cost_us"] = tracing.span_cost_us()
    counters["trace.unattributed_s"] = unattributed
    return {"ledger": ledger.__dict__,
            "metrics": layers.report(spans, counters),
            "spans": len(spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    wl = importlib.import_module(MODULES[args.workload])
    state = wl.setup(args.seed)
    announce_ready()
    if args.setup_only:
        return 0
    emit(traced(wl, state, args) if args.trace else measured(wl, state, args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
