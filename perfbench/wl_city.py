"""``city_cohort``: a TPMS fleet on one channel through the cohort
engine, with noise windows, retries and per-lane degradation.

Operation ``k`` runs job ``k // 2``; even operations are cold jobs and
odd ones repeat the job before them (warm jobs, recomputed: the fleet
path has no result cache).  Each job's scenario (wake phases, noise
windows, retry seed, per-lane ESR, self-discharge and loss) derives from
the workload seed and the job index.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, List, Tuple

from common import digest

#: 1000 nodes, 120 s: about 19k bursts with a collision rate near 0.12,
#: and two 50 ms noise windows that lose a dozen or so bursts to noise.
#: The cohort chain takes about two thirds of an operation and the
#: channel model (collision sweep and retries) the rest.  One operation
#: takes about 0.25 s, so a run's figures rest on dozens of them.
NODES = 1000
DURATION_S = 120.0
NOISE_WINDOWS = 2
NOISE_WIDTH_S = 0.05

#: Spot lanes are fleet slots 0, 256, 512, ...: their one-byte on-air id
#: equals that of slot 0, so a one-node per-node fleet reproduces them.
#: One per job: a run still checks one lane for each of its 60+ jobs.
SPOT_STRIDE = 256
SPOT_LANES = 1

#: The same job's time moves by up to 1.4x from one run of it to the
#: next on a shared two-CPU host, and the host's speed drifts over tens
#: of seconds; with 30 jobs (about 15 s) the run medians moved by up to
#: 36% (IQR over median, ten runs), so a run takes at least 60.
MIN_JOBS = 60

TRACE_OPS = 8


def scenario(seed: int, job: int, nodes: int = NODES,
             duration_s: float = DURATION_S):
    from repro.net.fleet import RetryPolicy
    from repro.sim.fleet_engine import FleetScenario

    rng = random.Random(f"city_cohort:{seed}:{job}")
    starts = sorted(rng.uniform(10.0, duration_s - 10.0)
                    for _ in range(NOISE_WINDOWS))
    return FleetScenario(
        node_count=nodes,
        duration_s=duration_s,
        phase_seed=rng.randrange(1 << 30),
        noise_windows=tuple((s, s + NOISE_WIDTH_S) for s in starts),
        retry=RetryPolicy(),
        retry_seed=rng.randrange(1 << 30),
        esr_multipliers=tuple(rng.uniform(1.0, 1.5) for _ in range(nodes)),
        self_discharge_multipliers=tuple(
            rng.uniform(1.0, 2.0) for _ in range(nodes)),
        loss_factors=tuple(rng.uniform(1.0, 1.1) for _ in range(nodes)),
    )


def setup(seed: int) -> Dict[str, Any]:
    """Imports, the first kernel compile and verify, the first scenario."""
    from repro.sim.fleet_engine import run_fleet

    warmup = run_fleet(scenario(seed, -1, nodes=8, duration_s=30.0))
    if warmup.engine_used != "cohort":
        raise RuntimeError(f"warm-up fell back: {warmup.fallback_reason}")
    return {"seed": seed, "scenarios": {0: scenario(seed, 0)},
            "digests": {}}


def schedule(seed: int, k: int) -> Tuple[int, bool]:
    return k // 2, k % 2 == 1


def enough(k: int, op_seconds: float, seconds: float) -> bool:
    return k >= 2 * MIN_JOBS and k % 2 == 0 and op_seconds >= seconds


def prepare(state: Dict[str, Any], job: int) -> None:
    """Build the job's scenario before its operation is timed."""
    if job not in state["scenarios"]:
        state["scenarios"][job] = scenario(state["seed"], job)


def run(state: Dict[str, Any], job: int):
    from repro.sim.fleet_engine import run_fleet

    return run_fleet(state["scenarios"][job], engine="cohort")


def records_hash(records) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(f"{r.node_id}:{r.seq}:{r.start.hex()}:{r.end.hex()};"
                 .encode())
    return h.hexdigest()[:32]


def spot_lanes(seed: int, job: int, nodes: int) -> List[int]:
    rng = random.Random(f"city_cohort:spot:{seed}:{job}")
    lanes = range(0, nodes, SPOT_STRIDE)
    return sorted(rng.sample(lanes, min(SPOT_LANES, len(lanes))))


def reference_lane(sc, lane: int):
    """Lane ``lane`` of ``sc`` on the per-node reference path."""
    from repro.sim.fleet_engine import (FleetScenario, run_fleet,
                                        scenario_offsets)

    one = FleetScenario(
        node_count=1, duration_s=sc.duration_s,
        phases=(scenario_offsets(sc)[lane],),
        power_train=sc.power_train, line_code=sc.line_code,
        esr_multipliers=(sc.esr_multipliers[lane],),
        self_discharge_multipliers=(sc.self_discharge_multipliers[lane],),
        loss_factors=(sc.loss_factors[lane],),
    )
    return run_fleet(one, engine="per-node")


def check(state: Dict[str, Any], job: int, output,
          kernel_delta: Dict[str, int]) -> Tuple[List[str], int]:
    run_ = output
    sc = state["scenarios"][job]
    problems = []
    if run_.engine_used != "cohort":
        problems.append(f"cohort fell back: {run_.fallback_reason}")
        return problems, run_.stats.transmitted
    if kernel_delta["fallbacks"] or kernel_delta["mismatches"]:
        problems.append(f"kernel fallbacks/mismatches: {kernel_delta}")
    stats = run_.stats
    if not 0.0 < stats.collision_rate < 1.0:
        problems.append(f"collision rate {stats.collision_rate} not in (0, 1)")
    if stats.lost_to_noise == 0 or stats.retries == 0:
        problems.append("noise and retry path did not run")
    if stats.transmitted != len(run_.records):
        problems.append("record count differs from transmitted")
    value = digest({"stats": stats, "records": records_hash(run_.records)})
    first = state["digests"].get(job)
    if first is None:
        state["digests"][job] = value
        problems += spot_check(state["seed"], job, sc, run_)
    elif value != first:
        problems.append("repeat of a job gave another digest")
    return problems, stats.transmitted


def spot_check(seed: int, job: int, sc, run_) -> List[str]:
    """Spot lanes of a job's first run against the per-node path."""
    problems = []
    for lane in spot_lanes(seed, job, sc.node_count):
        ref = reference_lane(sc, lane)
        mine = [(r.seq, r.start, r.end) for r in run_.records
                if r.node_id == lane + 1]
        theirs = [(r.seq, r.start, r.end) for r in ref.records]
        if (run_.audit(lane) != ref.audit(0) or mine != theirs
                or run_.battery_charge(lane) != ref.battery_charge(0)):
            problems.append(f"lane {lane} differs from the per-node path")
    return problems


def layer_counts(output) -> Dict[str, float]:
    return {}
