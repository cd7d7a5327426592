"""Power-train solve throughput.

The quasi-static ``PowerTrain.solve`` runs at *every* load-changing
event — twice, because ``PicoCube._update`` re-solves at the sagged
terminal voltage — so its per-call cost multiplies into every campaign.
This benchmark times a mixed workload over the paper's operating
envelope (sleep, active, TX; radio gated on and off; both paper trains)
and feeds the ``tools/bench_baseline.py --check`` 2x regression gate.
The committed baseline was recorded against the legacy hand-written
solvers, so the gate enforces the RailGraph refactor's "within 2x of
legacy" budget.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import LoadState, make_power_train
from repro.power.compile import (
    clear_kernel_cache,
    kernel_metrics,
    reset_kernel_metrics,
)
from repro.power.graph import RailGraph
from repro.power.rail_topologies import get_rail_spec

SLEEP = LoadState(i_mcu=0.7e-6, i_sensor=0.3e-6)
ACTIVE = LoadState(i_mcu=250e-6, i_sensor=450e-6)
TX = LoadState(i_mcu=250e-6, i_sensor=0.3e-6,
               i_radio_digital=50e-6, i_radio_rf=4.0e-3)

#: One wake cycle's worth of solves: mostly sleep, a few active phases,
#: one gated TX burst.  Voltages straddle the NiMH discharge plateau.
V_SWEEP = (1.32, 1.28, 1.25, 1.22, 1.18)


def _solve_mixed_workload(kinds):
    trains = [make_power_train(kind) for kind in kinds]
    total = 0.0
    for train in trains:
        for v_battery in V_SWEEP:
            for _ in range(40):
                total += train.solve(v_battery, SLEEP).p_battery
            for _ in range(8):
                total += train.solve(v_battery, ACTIVE).p_battery
            train.enable_radio()
            for _ in range(2):
                total += train.solve(v_battery, TX).p_battery
            train.disable_radio()
    return total


@pytest.mark.benchmark(group="power-train")
def test_perf_train_solve_throughput(benchmark):
    clear_kernel_cache()
    reset_kernel_metrics()
    total = benchmark(_solve_mixed_workload, ("cots", "ic"))
    assert total > 0.0
    # The timed solves ran on the compiled scalar kernels.
    kernels = kernel_metrics()
    assert kernels.scalar_compiles >= 1
    assert kernels.scalar_mismatches == 0
    assert kernels.scalar_fallbacks["failed-kernel"] == 0
    assert kernels.scalar_fallbacks["disabled-converter"] == 0


#: Operating-point count for the batched sweep benchmarks — large enough
#: that the batch path's fixed per-component cost amortizes, and the
#: size named by the "solve_batch is >= 5x a scalar loop" acceptance
#: gate below.
BATCH_POINTS = 1024

BATCH_V = np.linspace(1.15, 1.40, BATCH_POINTS)
BATCH_LOADS = {"mcu": 0.7e-6, "sensor": 0.3e-6}


def _solve_batched_sweep(kinds):
    total = 0.0
    for kind in kinds:
        graph = RailGraph(get_rail_spec(kind))
        batch = graph.solve_batch(BATCH_V, BATCH_LOADS)
        total += float(batch.p_source.sum())
    return total


@pytest.mark.benchmark(group="power-train")
def test_perf_train_solve_batch_throughput(benchmark):
    reset_kernel_metrics()
    total = benchmark(_solve_batched_sweep, ("cots", "ic"))
    assert total > 0.0
    # The timed sweeps ran on compiled kernels, not on the per-point
    # scalar reference.
    kernels = kernel_metrics()
    assert kernels.kernel_solves > 0
    assert kernels.fallbacks == 0
    assert kernels.mismatches == 0


def test_solve_batch_at_least_5x_faster_than_scalar_loop():
    """Acceptance gate: one ``solve_batch`` over 1024 operating points
    must beat 1024 scalar ``solve`` calls by >= 5x.  Measured with the
    best-of-N minimum so scheduler noise cannot fail a healthy build.
    """
    graph = RailGraph(get_rail_spec("cots"))
    graph.solve_batch(BATCH_V, BATCH_LOADS)  # warm any lazy state

    def best_of(fn, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    t_batch = best_of(lambda: graph.solve_batch(BATCH_V, BATCH_LOADS))
    t_scalar = best_of(
        lambda: [graph.solve(float(v), BATCH_LOADS) for v in BATCH_V]
    )
    speedup = t_scalar / t_batch
    assert speedup >= 5.0, (
        f"solve_batch only {speedup:.1f}x faster than the scalar loop "
        f"at {BATCH_POINTS} points (scalar {t_scalar * 1e3:.2f} ms, "
        f"batch {t_batch * 1e3:.2f} ms)"
    )
