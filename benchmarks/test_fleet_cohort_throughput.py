"""Cohort fleet-engine throughput.

The cohort engine (``repro.sim.fleet_engine``) batches nodes that share
a (topology, config) template and advances them in lockstep through
``solve_graph_batch``, so a mega-fleet run costs one probe simulation
plus vectorized chain arithmetic instead of ten thousand event loops.
This file times the 10k-node path for the ``tools/bench_baseline.py
--check`` 2x regression gate, and pins the acceptance floor — cohort
node-cycles/sec must beat per-node stepping by >= 5x — with an
always-on assertion that runs even without ``--benchmark-only``.
"""

from __future__ import annotations

import time

import pytest

from repro.power.compile import kernel_metrics, reset_kernel_metrics
from repro.sim.fleet_engine import FleetScenario, run_fleet

#: Fleet size named by the acceptance gate.  Thirty seconds gives every
#: node five beacon cycles: long enough that chain throughput dominates
#: the one-off probe/verify cost, short enough for the perf-smoke job.
COHORT_NODES = 10_000
DURATION_S = 30.0

#: Per-node stepping is ~two orders of magnitude slower, so the scalar
#: side of the speedup ratio is sampled on a small fleet and compared on
#: node-cycles/sec rather than wall time for the same node count.
PER_NODE_NODES = 128


def _run(engine, node_count):
    scenario = FleetScenario(
        node_count=node_count, duration_s=DURATION_S, phase_seed=7
    )
    run = run_fleet(scenario, engine=engine)
    assert run.engine_used == engine, run.fallback_reason
    return run


@pytest.mark.benchmark(group="fleet-engine")
def test_perf_cohort_fleet_10k_throughput(benchmark):
    reset_kernel_metrics()
    run = benchmark(_run, "cohort", COHORT_NODES)
    assert run.stats.transmitted > 0
    # The cohort chain's batch solves ran on compiled kernels, not on
    # the per-point scalar reference.
    kernels = kernel_metrics()
    assert kernels.kernel_solves > 0
    assert kernels.fallbacks == 0
    assert kernels.mismatches == 0


def test_cohort_at_least_5x_faster_than_per_node():
    """Acceptance gate: cohort node-cycles/sec at 10k nodes must be
    >= 5x per-node stepping's rate.  Measured with the best-of-N
    minimum so scheduler noise cannot fail a healthy build.
    """

    def best_of(fn, repeats=3):
        best = float("inf")
        result = None
        for _ in range(repeats):
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
        return best, result

    t_cohort, cohort = best_of(lambda: _run("cohort", COHORT_NODES))
    t_scalar, scalar = best_of(lambda: _run("per-node", PER_NODE_NODES))

    # One packet per completed wake cycle, so transmitted == node-cycles.
    cohort_rate = cohort.stats.transmitted / t_cohort
    scalar_rate = scalar.stats.transmitted / t_scalar
    speedup = cohort_rate / scalar_rate
    assert speedup >= 5.0, (
        f"cohort engine only {speedup:.1f}x per-node stepping "
        f"({cohort_rate:,.0f} vs {scalar_rate:,.0f} node-cycles/s; "
        f"cohort {t_cohort:.2f} s at {COHORT_NODES} nodes, "
        f"per-node {t_scalar:.2f} s at {PER_NODE_NODES} nodes)"
    )
