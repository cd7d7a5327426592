"""Node-level goldens: a whole node run pinned to the last bit.

``golden_node_runs.json`` pins what complete node runs produce — every
recorder channel's breakpoints, the :class:`EnergyAudit`, the final
battery charge and current, and the packet counts — across both paper
power trains, both RF fidelities and both line codes, each once healthy
and once faulted (low charge, ESR drift, train-wide and per-component
converter degradation), plus one ``harsh`` chaos trial with brownouts,
recovery and resets.  Every float is stored as ``float.hex``.

The train goldens pin single solves; the fast-forward and checkpoint
suites compare a node with itself.  This file is what compares the
node's per-load-change arithmetic (battery sag, the chained solves,
power attribution, recording) with a fixed reference, so an
optimisation of that path must leave it passing unchanged.  Do NOT
regenerate it to make a change pass; regenerate only from a commit
whose node runs are known good::

    PYTHONPATH=src python tests/core/test_node_goldens.py
"""

import hashlib
import json
import pathlib

import pytest

import repro.campaigns  # noqa: F401  (registers the "chaos" scenario)
from repro.core import NodeConfig, PicoCube
from repro.core.energy_audit import audit_node
from repro.sim import checkpoint as cp
from repro.storage import NiMHCell

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_node_runs.json"

DURATION_S = 600.0

#: The one component each faulted run degrades, per train.
DEGRADED_COMPONENT = {"cots": "tps60313", "ic": "ic-sc-1to2"}

CHAOS_PARAMS = {"duration_s": 7200.0, "profile": "harsh", "seed": 31}


def node_cases():
    """(case id, power train, fidelity, line code, faulted) per run."""
    cases = []
    for kind in ("cots", "ic"):
        for fidelity in ("fast", "profile"):
            for line_code in ("nrz", "manchester"):
                for faulted in (False, True):
                    label = "faulted" if faulted else "healthy"
                    cases.append((
                        f"{kind}-{fidelity}-{line_code}-{label}",
                        kind, fidelity, line_code, faulted,
                    ))
    return cases


def build_node(kind, fidelity, line_code, faulted):
    config = NodeConfig(
        power_train=kind,
        sensor_kind="tpms",
        fidelity=fidelity,
        line_code=line_code,
    )
    battery = None
    if faulted:
        battery = NiMHCell()
        battery.set_soc(0.3)
    node = PicoCube(config, battery=battery)
    if faulted:
        # Post-construction, like the fault knobs of repro.faults.
        node.battery.set_esr_multiplier(1.7)
        node.train.set_degradation(1.15)
        node.train.set_component_degradation(DEGRADED_COMPONENT[kind], 1.1)
    return node


def channel_digest(trace):
    """sha256 over a trace's breakpoints rendered with ``float.hex``."""
    text = ";".join(
        f"{time.hex()},{value.hex()}" for time, value in trace.breakpoints()
    )
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def run_summary(node):
    """Everything the goldens pin about a finished run."""
    audit = audit_node(node)
    return {
        "channels": {
            name: {
                "breakpoints": len(node.recorder.channel(name).breakpoints()),
                "digest": channel_digest(node.recorder.channel(name)),
            }
            for name in node.recorder.channel_names()
        },
        "audit": {
            "duration_s": audit.duration_s.hex(),
            "average_power_w": audit.average_power_w.hex(),
            "energy_by_channel_j": {
                name: energy.hex()
                for name, energy in audit.energy_by_channel_j.items()
            },
            "cycles": audit.cycles,
            "energy_per_cycle_j": audit.energy_per_cycle_j.hex(),
            "management_fraction": audit.management_fraction.hex(),
            "brownouts": audit.brownouts,
            "outage_s": float(audit.outage_s).hex(),
            "resets": audit.resets,
        },
        "charge": node.battery.charge.hex(),
        "i_battery": float(node._i_battery).hex(),
        "packets_sent": len(node.packets_sent),
        "packets_corrupted": len(node.packets_corrupted),
    }


def run_node_case(kind, fidelity, line_code, faulted):
    node = build_node(kind, fidelity, line_code, faulted)
    node.run(DURATION_S)
    return run_summary(node)


def run_chaos_case():
    node, _injector = cp.build_scenario("chaos", CHAOS_PARAMS)
    node.run_until_time(CHAOS_PARAMS["duration_s"])
    return run_summary(node)


def capture():
    runs = {
        case_id: run_node_case(*spec)
        for case_id, *spec in node_cases()
    }
    runs["chaos-harsh"] = run_chaos_case()
    return {
        "duration_s": DURATION_S,
        "chaos": CHAOS_PARAMS,
        "runs": runs,
    }


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


def test_goldens_cover_the_claimed_runs(goldens):
    assert set(goldens["runs"]) == (
        {case[0] for case in node_cases()} | {"chaos-harsh"}
    )
    assert goldens["duration_s"] == DURATION_S
    assert goldens["chaos"] == CHAOS_PARAMS
    # The chaos trial exercises the brownout and recovery path.
    chaos = goldens["runs"]["chaos-harsh"]["audit"]
    assert chaos["brownouts"] >= 1
    assert chaos["resets"] >= 1


@pytest.mark.parametrize(
    "case", node_cases(), ids=[case[0] for case in node_cases()]
)
def test_node_run_matches_golden(case, goldens):
    case_id, *spec = case
    assert run_node_case(*spec) == goldens["runs"][case_id]


def test_harsh_chaos_trial_matches_golden(goldens):
    assert run_chaos_case() == goldens["runs"]["chaos-harsh"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH}")
