"""``year_ff``: the E29 workload, one steady-cruise TPMS node
fast-forwarded over a long horizon and then audited.

The inputs are fixed: the workload takes no seed.  Every operation is
a cold job: it runs the same node from scratch, because nothing caches a
node run.  The cold latencies are thus the median of all operations, not
one 20 s sample.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Tuple

from common import digest

#: 32 simulated days: long enough that more than nine tenths of the
#: cycles are replayed (E29's assertion) while one operation stays near
#: 20 s of host time.
HORIZON_S = 32 * 86400.0

#: E29 asserts that more than this share of cycles is replayed.
REPLAY_FLOOR = 0.9

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "goldens.json")

#: Operations the traced run repeats untraced and traced.
TRACE_OPS = 1


def setup(seed: int) -> Dict[str, Any]:
    from repro.core import build_steady_tpms_node

    del seed  # year_ff has no random input
    with open(GOLDENS, encoding="utf-8") as handle:
        golden = json.load(handle)["year_ff"]
    return {"node": build_steady_tpms_node(fast_forward=True),
            "golden": golden}


def schedule(seed: int, k: int) -> Tuple[int, bool]:
    """``(job, warm)`` of operation ``k``: one job, always cold."""
    return 0, False


def enough(k: int, op_seconds: float, seconds: float) -> bool:
    return k >= 2 and op_seconds >= seconds


def prepare(state: Dict[str, Any], job: int) -> None:
    """Nothing to build ahead: the node is part of the operation."""


def run(state: Dict[str, Any], job: int):
    """The timed operation: build (after the first), run, audit."""
    from repro.core import audit_node, build_steady_tpms_node

    node = state.pop("node", None) or build_steady_tpms_node(fast_forward=True)
    node.run(HORIZON_S)
    return node, audit_node(node)


def outcome_digest(node, audit) -> str:
    return digest({"audit": audit, "packets": len(node.packets_sent),
                   "cycles": node.cycles_completed})


def check(state: Dict[str, Any], job: int, output,
          kernel_delta: Dict[str, int]) -> Tuple[List[str], int]:
    """Problems with one operation's output, and its completed cycles."""
    node, audit = output
    problems = []
    if outcome_digest(node, audit) != state["golden"]["digest"]:
        problems.append("year_ff digest differs from the golden")
    accelerator = node.fast_forward
    if accelerator is None or not accelerator.leaps:
        problems.append("fast-forward never leaped")
    elif accelerator.cycles_replayed / node.cycles_completed <= REPLAY_FLOOR:
        problems.append("replayed share at or below E29's floor")
    return problems, node.cycles_completed


def layer_counts(output) -> Dict[str, float]:
    """The fast-forward counters of one traced operation."""
    node, _ = output
    accelerator = node.fast_forward
    return {
        "core.fastforward.leaps": len(accelerator.leaps),
        "core.fastforward.stepped_cycles":
            node.cycles_completed - accelerator.cycles_replayed,
        "core.fastforward.replay_ratio":
            accelerator.cycles_replayed / node.cycles_completed,
        "core.fastforward.verifications_failed":
            accelerator.verifications_failed,
    }
