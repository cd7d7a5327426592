"""Helpers shared by the workloads: sample statistics, failure
accounting, output digests and the child-process handshake."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import resource
import statistics
import sys
from typing import Any, Dict, List, Sequence

#: A percentile is trusted only with at least this many samples beyond it.
TAIL_SAMPLES = 10

READY = "perfbench-ready"


def tail_percentile(values: Sequence[float], q: float = 90.0):
    """``(value, samples_beyond)`` for the nearest-rank ``q`` percentile."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def latency_summary(values: Sequence[float]) -> Dict[str, Any]:
    """Mean, median and p90 of latency samples, with the sample count.

    ``p90_solid`` is false when fewer than :data:`TAIL_SAMPLES` samples
    lie beyond p90; the report then says so next to the value.
    """
    p90, beyond = tail_percentile(values, 90.0)
    return {
        "n": len(values),
        "mean": statistics.fmean(values),
        "p50": statistics.median(values),
        "p90": p90,
        "beyond_p90": beyond,
        "p90_solid": beyond >= TAIL_SAMPLES,
    }


class Ledger:
    """Attempted and failed operations, with the first reasons kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, problems: Sequence[str]) -> bool:
        """Count one operation; it failed if ``problems`` is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append("; ".join(problems))
        return not problems


def _canonical(value: Any) -> Any:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest(value: Any) -> str:
    """A bit-faithful content hash: floats enter as ``float.hex``."""
    text = json.dumps(_canonical(value), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def announce_ready() -> None:
    """Tell the parent that set-up is over (it times up to this line)."""
    sys.stdout.write(READY + "\n")
    sys.stdout.flush()


def emit(result: Dict[str, Any]) -> None:
    """Write a child's result as its last stdout line."""
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
