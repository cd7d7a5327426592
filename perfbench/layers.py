"""Which public functions the traced run wraps, and the per-layer
metrics it reports.

Every span name is ``<module>.<function>``, the module being the layer
of ``repro`` the function belongs to; each gives ``<name>.calls`` and
``<name>.self_s``.  The counts and ratios next to them are read at the
same boundaries.  ``ledger.json`` records, for every per-layer metric,
which end-to-end metric it should move and on which workloads.
"""

from __future__ import annotations

import dataclasses
import os
import weakref
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from tracer import Tracer, per_name

class Hooks:
    """After-call hooks that read counts off wrapped calls, with the
    state they keep between calls."""

    def __init__(self) -> None:
        self.events_seen: "weakref.WeakKeyDictionary[Any, int]" = \
            weakref.WeakKeyDictionary()
        #: Strong references: the service drops its store before the
        #: final dump reads the store's counters.
        self.stores: List[Any] = []

    def engine_events(self, tracer: Tracer, args, kwargs, result) -> None:
        engine = args[0]
        fired = engine.events_fired
        tracer.count("sim.engine.events",
                     fired - self.events_seen.get(engine, 0))
        self.events_seen[engine] = fired

    def batch_points(self, tracer: Tracer, args, kwargs, result) -> None:
        v_battery = args[1] if len(args) > 1 else kwargs["v_battery"]
        tracer.count("power.compile.points", int(np.size(v_battery)))

    def channel_counts(self, tracer: Tracer, args, kwargs, result) -> None:
        records = args[0] if args else kwargs["records"]
        tracer.count("net.fleet.records", len(records))
        tracer.count("net.fleet.retries", result.retries)

    def checkpoint_bytes(self, tracer: Tracer, args, kwargs, result) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        tracer.count("sim.checkpoint.write.bytes", os.path.getsize(path))

    def remember_store(self, tracer: Tracer, args, kwargs, result) -> None:
        if not any(store is args[0] for store in self.stores):
            self.stores.append(args[0])

    def store_counts(self, tracer: Tracer) -> None:
        """Add the :class:`StoreStats` of every store seen to the counters."""
        for store in self.stores:
            stats = store.stats
            tracer.count("runner.store.hits", stats.hits)
            tracer.count("runner.store.lookups", stats.lookups)
            tracer.count("runner.store.disk_hits", stats.disk_hits)


#: (span name, wrapped target, name of the :class:`Hooks` method to run
#: after each call).
SPANS: List[Tuple[str, str, Optional[str]]] = [
    ("sim.engine.run_until", "repro.sim.engine:Engine.run_until",
     "engine_events"),
    ("core.power_train.solve", "repro.core.power_train:GraphPowerTrain.solve",
     None),
    ("core.power_train.LoadState",
     "repro.core.power_train:LoadState.__init__", None),
    ("storage.nimh.terminal_voltage",
     "repro.storage.nimh:NiMHCell.terminal_voltage", None),
    ("storage.nimh.discharge", "repro.storage.nimh:NiMHCell.discharge", None),
    ("storage.nimh.apply_self_discharge",
     "repro.storage.nimh:NiMHCell.apply_self_discharge", None),
    ("sim.recorder.record", "repro.sim.recorder:PowerRecorder.record", None),
    ("core.fastforward.on_cycle_complete",
     "repro.core.fastforward:CycleFastForward.on_cycle_complete", None),
    ("core.fastforward.warp", "repro.sim.engine:Engine.warp", None),
    ("core.fastforward.append_periodic",
     "repro.sim.trace:StepTrace.append_periodic", None),
    ("core.energy_audit.audit_node",
     "repro.core.energy_audit:audit_node", None),
    ("net.cohort.advance_cohort", "repro.net.cohort:advance_cohort", None),
    ("power.compile.solve_graph_batch",
     "repro.core.power_train:GraphPowerTrain.solve_graph_batch",
     "batch_points"),
    ("net.fleet.resolve_channel", "repro.net.fleet:resolve_channel",
     "channel_counts"),
    ("net.fleet.model_retries", "repro.net.fleet:model_retries", None),
    ("sim.fleet_engine.run_fleet", "repro.sim.fleet_engine:run_fleet", None),
    ("service.protocol.encode", "repro.service.protocol:encode", None),
    ("service.protocol.decode", "repro.service.protocol:decode", None),
    ("service.protocol.normalize_request",
     "repro.service.protocol:normalize_request", None),
    ("service.protocol.job_key", "repro.service.protocol:job_key", None),
    ("runner.store.get", "repro.runner.store:ResultStore.get",
     "remember_store"),
    ("runner.store.put", "repro.runner.store:ResultStore.put",
     "remember_store"),
    ("sim.checkpoint.save_checkpoint",
     "repro.sim.checkpoint:save_checkpoint", None),
    ("sim.checkpoint.write_checkpoint",
     "repro.sim.checkpoint:write_checkpoint", "checkpoint_bytes"),
]

#: The cohort probe is the node's event loop run inside
#: ``advance_cohort``: its ``Engine.run_until`` spans there, reported as
#: ``net.cohort.probe`` (they are also part of ``sim.engine.run_until``).
PROBE = ("net.cohort.probe", "sim.engine.run_until",
         "net.cohort.advance_cohort")

#: Count-style metrics, in report order.  Missing ones report 0.
COUNTS = [
    "sim.engine.events",
    "core.fastforward.leaps",
    "core.fastforward.stepped_cycles",
    "core.fastforward.replay_ratio",
    "core.fastforward.verifications_failed",
    "net.cohort.fallbacks",
    "power.compile.points",
    "power.compile.compiles",
    "power.compile.verifications",
    "power.compile.kernel_solves",
    "power.compile.fallbacks",
    "power.compile.mismatches",
    "power.compile.kernel_ratio",
    "net.fleet.records",
    "net.fleet.retries",
    "service.server.deduped",
    "service.server.wait_s",
    "runner.store.hit_ratio",
    "runner.store.disk_hits",
    "runner.pool.tasks",
    "runner.pool.task_s",
    "runner.pool.busy_ratio",
    "sim.checkpoint.write.bytes",
    "trace.overhead_pct",
    "trace.span_cost_us",
    "trace.unattributed_s",
]


def span_names() -> List[str]:
    """Every span name the traced run can record."""
    return [name for name, _, _ in SPANS] + [PROBE[0]]


def metric_names() -> List[str]:
    """Every per-layer metric, in report order."""
    names = []
    for span in span_names():
        names += [f"{span}.calls", f"{span}.self_s"]
    return names + COUNTS


def install(tracer: Tracer) -> Hooks:
    """Wrap every layer boundary of the loaded program."""
    hooks = Hooks()
    for name, target, after in SPANS:
        tracer.install(target, name,
                       getattr(hooks, after) if after is not None else None)
    return hooks


def kernel_counts() -> Dict[str, int]:
    """The compiled-kernel counters of this process."""
    from repro.power.compile import kernel_metrics

    return dataclasses.asdict(kernel_metrics())


def add_kernel_deltas(tracer: Tracer, before: Dict[str, int]) -> None:
    """Count what the kernel counters did since ``before``."""
    after = kernel_counts()
    for key in ("compiles", "verifications", "kernel_solves", "fallbacks",
                "mismatches"):
        tracer.count(f"power.compile.{key}", after[key] - before[key])


def report(spans, counters: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric from merged spans and counters."""
    own = per_name(spans)
    probe, probe_span, probe_parent = PROBE
    own[probe] = per_name(spans, probe_parent).get(probe_span, (0, 0.0))
    out: Dict[str, float] = {}
    for span in span_names():
        calls, seconds = own.get(span, (0, 0.0))
        out[f"{span}.calls"] = calls
        out[f"{span}.self_s"] = seconds
    batch_calls = out["power.compile.solve_graph_batch.calls"]
    derived = {
        "net.cohort.fallbacks": spans.errors.get("net.cohort.advance_cohort",
                                                 0),
        "power.compile.kernel_ratio": (
            counters.get("power.compile.kernel_solves", 0) / batch_calls
            if batch_calls else 0.0),
        "runner.store.hit_ratio": (
            counters.get("runner.store.hits", 0)
            / counters["runner.store.lookups"]
            if counters.get("runner.store.lookups") else 0.0),
    }
    for name in COUNTS:
        out[name] = derived.get(name, counters.get(name, 0))
    return out
