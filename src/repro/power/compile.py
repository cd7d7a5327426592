"""Plan-compiled kernels for :meth:`RailGraph.solve_batch` and
:meth:`RailGraph.solve`.

A rail graph's solve is a walk over a precomputed dispatch plan.  Walked
in interpreted Python, that costs one dynamic dispatch, one gate check
and a handful of temporaries per component per call; at fleet scale
(``net/cohort.py``'s advance chain, ``sim/fleet_engine``,
``topology_sweep_campaign``) the walk overhead dominates the arithmetic.
This module removes it by *compiling the plan*:

* :func:`generate_kernel_source` turns a ``RailGraph``'s plan plus a
  **gate signature** (each gate group resolved to uniformly-open,
  uniformly-closed, or per-point mask) into straight-line numpy source —
  the component loop unrolled, dispatch tags resolved at compile time,
  temporaries reused, and every envelope check hoisted into one
  vectorized ``_bad.any()`` pass;
* the source is ``exec``'d once and the resulting kernel is memoized in
  a content-addressed cache (a :class:`repro.runner.cache.MemoCache`)
  keyed on ``(plan hash, gate signature, code version)``, so every graph
  built from an equal spec shares one kernel per signature;
* :func:`solve_batch_compiled` serves ``RailGraph.solve_batch`` from
  those kernels.

**One prologue.**  :func:`solve_batch_compiled` takes the raw
``solve_batch`` arguments.  The forms the package passes on every lock
step (a 1-D float64 axis, float/int or matching-array loads, set or
dict gates, scalar or matching-array degradation) cost type checks, a
cached read-only array per constant load and one kernel lookup in the
graph's context; any other form goes through the generic conversion,
which raises every input error in its usual order.  One dispatch then
picks the kernel, verifies it on first use, falls back by reason, and
re-solves the lowest out-of-envelope point.

**The batch contract.**  ``solve_batch`` returns, bit for bit, what a
loop of scalar ``RailGraph.solve`` calls over the points returns, and
raises what that loop raises.  Its one reference is that loop, run as
:meth:`RailGraph._solve_points` (the interpreted scalar walk per point,
which the 440 float-hex goldens pin).  The generated source replays the
walk's operation sequence (declaration-order summation accumulating
from a zeros seed, cascades solved at the parent's nominal rail,
constants pre-folded only where scalar CPython would fold them).  The
first call through each cached kernel that has at least one point runs
both and compares every output array byte-for-byte and in insertion
order; any divergence permanently marks the kernel failed, and the
reference serves that call and every later one.  Calls no kernel can
serve (a disabled converter, an unsupported plan, a failed kernel) run
the reference too, counted by reason in :func:`kernel_metrics`.

**Errors.**  A kernel calls no converter code: each stage's envelope
mask (with ancestor gate masks folded in) is OR-ed into ``_bad``, and
on ``_bad.any()`` the kernel reports the lowest flagged point.  The
caller re-solves that point with the reference, which raises the
scalar :class:`~repro.errors.ElectricalError` — the error the loop
raises first.  Should the reference accept the point, an
``ElectricalError`` reports the inconsistency; no value is returned.

**The scalar target.**  The same plan also compiles to straight-line
Python-float source, one ``_scalar`` function per (plan digest, open-gate
set): :func:`solve_scalar` serves ``RailGraph.solve`` and
``GraphPowerTrain.solve`` from it.  It keeps every check of the
interpreted walk, declines to the walk wherever the walk would raise, is
compared with the walk by ``float.hex`` on first use, and is retired for
good on any divergence (see ``docs/POWER.md``).

Kernels live in memory only: code generation is cheaper than reading a
stored artifact back, so nothing is written to disk.

This module is the **only** place in the tree allowed to call ``exec``
(lint rule DET004 enforces that); the generated source can be inspected
with ``python -m repro train --solve KIND --emit-kernel``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
import threading
import weakref
from collections.abc import Mapping as MappingABC
from typing import Callable, Dict, List, NoReturn, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, ElectricalError
from ..runner.cache import MemoCache
from .charge_pump import RegulatedChargePump
from .graph import CHANNELS, FrozenMapping, GraphSolutionBatch, RailGraph
from .linear_regulator import LinearRegulator
from .sc_converter import SwitchedCapacitorConverter
from .shunt_regulator import ShuntRegulator

#: Bump when the generated source or the interpreted walk changes shape:
#: it keys the kernel cache, so old kernels are never matched against a
#: newer plan walk.
KERNEL_CODE_VERSION = 4

#: Gate-signature states: each gate group of a topology is resolved at
#: compile time to one of these, and one kernel is compiled per distinct
#: (topology, signature) pair.
GATE_OPEN = "open"
GATE_CLOSED = "closed"
GATE_MASK = "mask"

__all__ = [
    "GATE_CLOSED",
    "GATE_MASK",
    "GATE_OPEN",
    "KERNEL_CODE_VERSION",
    "SCALAR_PARAMS",
    "CompiledKernel",
    "KernelMetrics",
    "KernelUnsupported",
    "clear_kernel_cache",
    "compiled_kernel_for",
    "compiled_scalar_kernel_for",
    "gate_signature",
    "generate_kernel_source",
    "generate_scalar_kernel_source",
    "iter_registered_kernel_sources",
    "kernel_cache_stats",
    "kernel_metrics",
    "kernel_source",
    "reset_kernel_metrics",
    "scalar_kernel_source",
    "solve_batch_compiled",
    "solve_scalar",
]


class KernelUnsupported(Exception):
    """The plan contains a component this compiler has no emitter for."""


class _OutOfEnvelope(Exception):
    """Raised by a batch kernel: ``index`` is its lowest flagged point."""

    def __init__(self, index: int) -> None:
        super().__init__(index)
        self.index = index


def _min_satisfying_v(scale: float, target: float) -> Optional[float]:
    """Smallest float ``x`` with ``fl(scale * x) >= target``, or ``None``.

    For ``scale > 0`` rounded multiplication is monotone over the
    floats, so the satisfying set is an interval ``[x_min, +inf]`` and a
    comparison against its exact boundary reproduces the product test
    bit-for-bit: ``v >= x_min`` iff ``fl(scale * v) >= target`` for
    every float ``v`` (NaN and infinities included).  The boundary is
    found by a short ``nextafter`` walk from the rounded quotient;
    ``None`` means the caller must emit the literal product instead.
    """
    if not (scale > 0.0 and target > 0.0
            and math.isfinite(scale) and math.isfinite(target)):
        return None
    x = target / scale
    if not (math.isfinite(x) and x > 0.0):
        return None
    for _ in range(8):
        if scale * x >= target:
            break
        x = math.nextafter(x, math.inf)
    else:
        return None
    for _ in range(8):
        lower = math.nextafter(x, -math.inf)
        if lower > 0.0 and scale * lower >= target:
            x = lower
        else:
            return x
    return None


@dataclasses.dataclass
class CompiledKernel:
    """A cached kernel, batch or scalar: source, callable, and its
    verification state."""

    key: tuple
    source: str
    fn: Optional[Callable]
    #: True once a call (of at least one point, for a batch kernel) has
    #: matched its reference bit for bit; until then every call runs
    #: both.
    verified: bool = False
    #: True when the kernel is permanently out of service (unsupported
    #: plan, bad source, or a divergence); callers fall back.
    failed: bool = False
    failure: Optional[str] = None


#: One kernel per (plan digest, gate signature, code version), shared by
#: every RailGraph built from an equal spec.
_KERNELS = MemoCache()

_METRICS_LOCK = threading.Lock()
_METRICS: Dict[str, int] = {}


def _bump(name: str) -> None:
    with _METRICS_LOCK:
        _METRICS[name] = _METRICS.get(name, 0) + 1


@dataclasses.dataclass(frozen=True)
class KernelMetrics:
    """Snapshot of the compiled-path counters (see :func:`kernel_metrics`)."""

    #: Batch kernel sources ``exec``'d (cold compiles).
    compiles: int
    #: Batch solves served by a compiled kernel.
    kernel_solves: int
    #: First-use bitwise comparisons against the per-point reference.
    verifications: int
    #: Verifications that diverged (kernel permanently failed).
    mismatches: int
    #: Batch solves served by the per-point reference instead of a
    #: kernel: the total of the two counters below.
    fallbacks: int
    #: ... because a converter was disabled (kernels bake in the
    #: enabled state) ...
    batch_fallbacks_disabled_converter: int
    #: ... or because the kernel is out of service (unsupported plan,
    #: bad source, a failed verification, an unexpected runtime error).
    batch_fallbacks_failed_kernel: int
    #: Plans the compiler refused (no emitter / bad source).
    unsupported: int
    #: Scalar kernels built (see :func:`solve_scalar`).  The scalar
    #: counters below record only rare events, never per-solve work.
    scalar_compiles: int
    #: First-use comparisons of a scalar kernel against the interpreter.
    scalar_verifications: int
    #: Scalar kernels retired for diverging from the interpreter.
    scalar_mismatches: int
    #: Scalar solves handed to the interpreter, one counter per reason:
    #: a disabled converter, a retired or unbuildable kernel, or an
    #: operating point outside some stage's envelope (the interpreter
    #: then raises the reference error).
    scalar_fallbacks_disabled_converter: int
    scalar_fallbacks_failed_kernel: int
    scalar_fallbacks_envelope: int

    @property
    def batch_fallbacks(self) -> Dict[str, int]:
        """Batch fallbacks by reason (they sum to :attr:`fallbacks`)."""
        return {
            "disabled-converter": self.batch_fallbacks_disabled_converter,
            "failed-kernel": self.batch_fallbacks_failed_kernel,
        }

    @property
    def scalar_fallbacks(self) -> Dict[str, int]:
        """Scalar fallbacks by reason."""
        return {
            "disabled-converter": self.scalar_fallbacks_disabled_converter,
            "failed-kernel": self.scalar_fallbacks_failed_kernel,
            "envelope": self.scalar_fallbacks_envelope,
        }


#: Counter names as kept in the metrics registry (the batch fallback
#: total is derived, not counted).
_COUNTERS = tuple(
    field.name for field in dataclasses.fields(KernelMetrics)
    if field.name != "fallbacks"
)


def kernel_metrics() -> KernelMetrics:
    """Current process-wide compiled-path counters."""
    with _METRICS_LOCK:
        counts = {name: _METRICS.get(name, 0) for name in _COUNTERS}
    return KernelMetrics(
        fallbacks=(counts["batch_fallbacks_disabled_converter"]
                   + counts["batch_fallbacks_failed_kernel"]),
        **counts,
    )


def reset_kernel_metrics() -> None:
    """Zero the counters (test isolation)."""
    with _METRICS_LOCK:
        _METRICS.clear()


def clear_kernel_cache() -> None:
    """Drop every compiled kernel (they recompile on next use)."""
    _KERNELS.clear()
    _CONTEXTS.clear()


def kernel_cache_stats():
    """Hit/miss stats of the in-memory kernel cache."""
    return _KERNELS.stats


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


def gate_signature(graph: RailGraph, gates) -> tuple:
    """Resolve gate states to a hashable compile-time signature.

    ``gates`` is either a set of open gate names (names outside the
    plan are inert, as in the scalar walk) or a dict of gate name to
    ``True`` (uniformly open), ``False`` (uniformly closed), or a
    boolean per-point mask, as ``RailGraph._normalize_gates`` returns.
    Gates absent from either are closed.
    """
    if not isinstance(gates, dict):
        return tuple((gate, GATE_OPEN if gate in gates else GATE_CLOSED)
                     for gate in graph._gate_names)
    signature = []
    for gate in graph._gate_names:
        state = gates.get(gate, False)
        if state is True:
            signature.append((gate, GATE_OPEN))
        elif state is False:
            signature.append((gate, GATE_CLOSED))
        else:
            signature.append((gate, GATE_MASK))
    return tuple(signature)


def _normalize_gate_input(graph: RailGraph, open_gates) -> Dict[str, object]:
    """Normalize a ``solve_batch``-style gate input without a batch.

    Resolves the broadcast shape from the gate masks alone, so
    diagnostic entry points (:func:`kernel_source`,
    :func:`compiled_kernel_for`) accept the same frozenset-or-mapping
    forms as ``RailGraph.solve_batch``.
    """
    shapes = []
    if isinstance(open_gates, MappingABC):
        for state in open_gates.values():
            arr = np.asarray(state)
            if arr.ndim == 1:
                shapes.append(arr.shape)
    shape = np.broadcast_shapes(*shapes) if shapes else (1,)
    return graph._normalize_gates(open_gates, shape)


def generate_kernel_source(graph: RailGraph, signature: tuple) -> str:
    """Emit straight-line fused source for one (plan, signature) pair.

    Raises :class:`KernelUnsupported` when the plan holds a converter
    type this compiler has no emitter for.

    The emitted operation sequence replays the interpreted walk exactly
    (see the module docstring), with two safe strengthenings: scalar
    constants that the interpreted path computes with CPython float
    arithmetic are pre-folded at codegen time using the *same* CPython
    operations, and per-stage envelope masks are OR-merged into a single
    hoisted ``_bad.any()`` check that reports the lowest flagged point.
    """
    states = dict(signature)
    comp_kind = {comp.name: comp.kind for comp in graph.spec.components}
    lines: List[str] = []
    order: List[Tuple[str, str]] = []       # currents insertion order
    counter = [0]
    bad_seen = [False]
    uses_errstate = [False]
    deferred_rails: List[Tuple[int, str, float]] = []

    def new(prefix: str) -> str:
        counter[0] += 1
        return f"_{prefix}{counter[0]}"

    def emit(text: str, depth: int = 0) -> None:
        lines.append("    " * (2 + depth) + text)

    def const_array(value: float) -> str:
        """An expression filling the batch shape with ``value``.

        ``_z + value`` reproduces ``np.full(shape, value)`` bitwise
        (IEEE ``0.0 + x == x``) at less than half the cost — except for
        ``-0.0`` and NaN payloads, which keep the literal ``np.full``.
        A plain zero is the zeros seed itself, shared between all-zero
        components.
        """
        if value != value or (value == 0.0
                              and math.copysign(1.0, value) < 0.0):
            return f"_np.full(shape, {value!r})"
        if value == 0.0:
            return "_z"
        return f"_z + {value!r}"

    def accumulate_bad(bad: str) -> None:
        if not bad_seen[0]:
            bad_seen[0] = True
            emit(f"_bad = {bad}")
        else:
            emit(f"_bad = _bad | {bad}")

    def flag(bad: str, active: Optional[str]) -> None:
        # Fold in the ancestor gate mask, so the hoisted _bad carries
        # exactly the points whose scalar walk reaches (and rejects)
        # this stage.
        if active is not None:
            folded = new("bg")
            emit(f"{folded} = {bad} & {active}")
        else:
            folded = bad
        accumulate_bad(folded)

    def emit_charge_pump(name, conv, v_expr, s_var, active, v_const):
        bad = new("b")
        rng = conv.input_range
        emit(f"{bad} = ({s_var} < 0.0) | ({v_expr} < {rng.minimum!r})")
        emit(f"{bad} |= {v_expr} > {rng.maximum!r}")
        if math.isfinite(rng.minimum) and math.isfinite(rng.maximum):
            # With a finite window the +-inf cases are already caught by
            # the range comparisons; only NaN needs the extra term, and
            # a self-compare is cheaper than invert-isfinite.
            emit(f"{bad} |= {v_expr} != {v_expr}")
        else:
            emit(f"{bad} |= ~_np.isfinite({v_expr})")
        gain = new("g")
        threshold = conv.v_out + conv.headroom
        gains = list(conv.gains)  # ascending: smallest workable wins
        bounds = [_min_satisfying_v(cand, threshold) for cand in gains]
        ascending = all(a < b for a, b in zip(gains, gains[1:]))
        if gains and ascending and all(b is not None for b in bounds):
            # The hop chain picks the smallest gain whose boosted rail
            # clears threshold; with each product test collapsed to its
            # exact voltage boundary (see _min_satisfying_v) the same
            # selection is two ops per gain instead of five.
            tail = "0.0"
            for cand, bound in list(zip(gains, bounds))[::-1]:
                emit(f"{gain} = _np.where({v_expr} >= {bound!r}, "
                     f"{cand!r}, {tail})")
                tail = gain
        else:
            emit(f"{gain} = _np.zeros(shape)")
            for cand in gains:
                emit(f"{gain} = _np.where(({gain} == 0.0) & "
                     f"({cand!r} * {v_expr} >= {threshold!r}), "
                     f"{cand!r}, {gain})")
        emit(f"{bad} = {bad} | ({gain} == 0.0)")
        flag(bad, active)
        house = new("h")
        emit(f"{house} = _np.where({s_var} <= {conv.snooze_load_threshold!r},"
             f" {conv.i_snooze!r}, {conv.i_quiescent!r})")
        i_var = new("i")
        emit(f"{i_var} = {gain} * {s_var} + {house}")
        return i_var

    def emit_sc_converter(name, conv, v_expr, s_var, active, v_const):
        # Only the SC stage divides/sqrts through possibly-invalid
        # intermediates (garbage at points its envelope mask flags);
        # plans without one skip the errstate context.
        uses_errstate[0] = True
        bad = new("b")
        emit(f"{bad} = ({s_var} < 0.0) | ({v_expr} <= 0.0)")
        v_ideal = new("vi")
        emit(f"{v_ideal} = {conv.ratio!r} * {v_expr}")
        emit(f"{bad} |= {v_ideal} <= {conv.v_target!r}")
        loaded = new("ld")
        emit(f"{loaded} = {s_var} > 0.0")
        r_fsl = conv.r_fsl
        cap_sq = conv.analysis.cap_multiplier_sum ** 2
        i_safe = new("is")
        emit(f"{i_safe} = _np.where({loaded}, {s_var}, 1.0)")
        r_needed = new("rn")
        emit(f"{r_needed} = ({v_ideal} - {conv.v_target!r}) / {i_safe}")
        emit(f"{bad} |= {loaded} & ({r_needed} <= {r_fsl!r})")
        r_gap = new("rg")
        emit(f"{r_gap} = {r_needed} ** 2 - {r_fsl ** 2!r}")
        r_ssl = new("rs")
        emit(f"{r_ssl} = _np.sqrt(_np.where({r_gap} > 0.0, {r_gap}, 1.0))")
        f_sw = new("fs")
        emit(f"{f_sw} = {cap_sq!r} / ({conv.c_total!r} * {r_ssl})")
        emit(f"{f_sw} = _np.minimum(_np.maximum({f_sw}, {conv.f_min!r}), "
             f"{conv.f_max!r})")
        emit(f"{f_sw} = _np.where({loaded}, {f_sw}, {conv.f_min!r})")
        r_out = new("ro")
        emit(f"{r_out} = _np.hypot({cap_sq!r} / ({conv.c_total!r} * {f_sw}),"
             f" {r_fsl!r})")
        v_sag = new("vs")
        emit(f"{v_sag} = {v_ideal} - {s_var} * {r_out}")
        emit(f"{bad} |= {loaded} & ({v_sag} < {conv.v_target - 1e-9!r})")
        flag(bad, active)
        v_sq = new("vv")
        emit(f"{v_sq} = {v_expr} ** 2")
        p_gate = new("pg")
        emit(f"{p_gate} = {f_sw} * {conv.g_total!r} * {conv.tau_gate!r} "
             f"* {v_sq}")
        p_bottom = new("pb")
        emit(f"{p_bottom} = {f_sw} * {conv.alpha_bottom_plate!r} * "
             f"{conv.c_total!r} * {v_sq}")
        i_var = new("i")
        emit(f"{i_var} = {conv.ratio!r} * {s_var} + ({p_gate} + {p_bottom})"
             f" / {v_expr} + {conv.i_controller!r}")
        return i_var

    def emit_ldo(name, conv, v_expr, s_var, active, v_const):
        # Under a converter rail the input voltage is one compile-time
        # constant at every point, so its window comparison folds to a
        # scalar bool: OR-ing a Python bool into a bool array is
        # elementwise-identical to OR-ing the comparison of a broadcast
        # rail.
        bad = new("b")
        v_min = conv.minimum_input_voltage()
        if v_const is None:
            emit(f"{bad} = ({s_var} < 0.0) | ({v_expr} < {v_min!r})")
        elif v_const < v_min:
            emit(f"{bad} = ({s_var} < 0.0) | True")
        else:
            emit(f"{bad} = {s_var} < 0.0")
        emit(f"{bad} |= {s_var} > {conv.i_max!r}")
        flag(bad, active)
        i_var = new("i")
        emit(f"{i_var} = {s_var} + {conv.i_ground!r}")
        return i_var

    def emit_shunt(name, conv, v_expr, s_var, active, v_const):
        bad = new("b")
        supply = new("sup")
        if v_const is None:
            emit(f"{bad} = ({s_var} < 0.0) | ({v_expr} <= {conv.v_out!r})")
            emit(f"{supply} = ({v_expr} - {conv.v_out!r}) / "
                 f"{conv.r_series!r}")
            supply_expr = supply
        else:
            # Constant-rail fold (see emit_ldo): headroom test and the
            # supply current collapse to scalars computed with the same
            # IEEE operations the broadcast rail would run elementwise.
            if v_const <= conv.v_out:
                emit(f"{bad} = ({s_var} < 0.0) | True")
            else:
                emit(f"{bad} = {s_var} < 0.0")
            supply_const = (v_const - conv.v_out) / conv.r_series
            emit(f"{supply} = {const_array(supply_const)}")
            supply_expr = repr(supply_const)
        shunted = new("sh")
        emit(f"{shunted} = {supply_expr} - {s_var}")
        emit(f"{bad} |= {shunted} < {conv.i_bias_min!r}")
        flag(bad, active)
        i_var = new("i")
        emit(f"{i_var} = {supply}")
        return i_var

    _EMITTERS = (
        (RegulatedChargePump, emit_charge_pump),
        (SwitchedCapacitorConverter, emit_sc_converter),
        (LinearRegulator, emit_ldo),
        (ShuntRegulator, emit_shunt),
    )

    def emit_converter(name, conv, v_expr, s_var, active, v_const):
        for cls, emitter in _EMITTERS:
            if isinstance(conv, cls):
                return emitter(name, conv, v_expr, s_var, active, v_const)
        raise KernelUnsupported(
            f"{graph.spec.name}: no fused emitter for "
            f"{type(conv).__name__} ({name!r})"
        )

    # Hoisted per-call bindings: the shared zeros seed, one local per
    # tapped channel, one local per per-point gate mask.
    emit("_z = _np.zeros(shape)")
    load_vars: Dict[str, str] = {}
    for channel in graph._taps:
        var = "_L_" + channel.replace("-", "_")
        load_vars[channel] = var
        emit(f"{var} = loads[{channel!r}]")
    mask_vars: Dict[str, str] = {}
    for gate, state in signature:
        if state == GATE_MASK:
            var = f"_m{len(mask_vars)}"
            mask_vars[gate] = var
            emit(f"{var} = masks[{gate!r}]")

    def branch(name: str, v_expr: str, active: Optional[str],
               v_const: Optional[float]) -> str:
        gate, leak, (tag, arg) = graph._plan[name]
        state = states.get(gate) if gate is not None else None
        emit(f"# {name} ({comp_kind[name]})")
        if gate is not None and state == GATE_CLOSED:
            i_var = new("i")
            emit(f"{i_var} = {const_array(leak)}")
        else:
            child_active = active
            mask_var = None
            if gate is not None and state == GATE_MASK:
                mask_var = mask_vars[gate]
                if active is None:
                    child_active = mask_var
                else:
                    child_active = new("a")
                    emit(f"{child_active} = {active} & {mask_var}")
            if tag == RailGraph._TAP:
                i_var = new("i")
                emit(f"{i_var} = {load_vars[arg]}")
            elif tag == RailGraph._DRAIN:
                i_var = new("i")
                emit(f"{i_var} = {const_array(arg)}")
            elif tag == RailGraph._SWITCH:
                i_var = child_sum(name, v_expr, child_active, v_const)
            else:
                v_out, converter = arg
                v_rail = new("vr")
                # The nominal-rail array is only materialized when some
                # descendant expression actually reads it — resolved
                # after the whole body is emitted.
                rail_at = len(lines)
                s_var = child_sum(name, v_rail, child_active, v_out)
                i_var = emit_converter(name, converter, v_expr, s_var,
                                       child_active, v_const)
                deferred_rails.append((rail_at, v_rail, v_out))
            if mask_var is not None:
                emit(f"{i_var} = _np.where({mask_var}, {i_var}, {leak!r})")
        factor = new("f")
        emit(f"{factor} = factors.get({name!r})")
        emit(f"if {factor} is not None:")
        emit(f"{i_var} = {i_var} * {factor}", depth=1)
        order.append((name, i_var))
        return i_var

    def child_sum(name: str, v_expr: str, active: Optional[str],
                  v_const: Optional[float]) -> str:
        s_var = new("s")
        children = graph._child_names[name]
        if not children:
            emit(f"{s_var} = _z")
            return s_var
        for index, child in enumerate(children):
            c_var = branch(child, v_expr, active, v_const)
            seed = "_z" if index == 0 else s_var
            emit(f"{s_var} = {seed} + {c_var}")
        return s_var

    for index, child in enumerate(
        graph._child_names[graph.spec.source.name]
    ):
        c_var = branch(child, "v", None, None)
        seed = "_z" if index == 0 else "_i_src"
        emit(f"_i_src = {seed} + {c_var}")

    if bad_seen[0]:
        emit("if _bad.any():")
        emit("raise _out_of_envelope(int(_bad.argmax()))", depth=1)
    currents = ", ".join(f"{name!r}: {var}" for name, var in order)
    emit(f"return _i_src, {{{currents}}}")

    # Materialize only the nominal-rail arrays some later line reads (a
    # converter whose children are all taps, closed gates, or stages
    # folded onto the constant rail never touches it).  Reverse order
    # keeps earlier insert points valid while later insertions shift
    # down.
    for rail_at, v_rail, v_out in sorted(deferred_rails, reverse=True):
        pattern = re.compile(re.escape(v_rail) + r"\b")
        if any(pattern.search(line) for line in lines[rail_at:]):
            lines.insert(rail_at,
                         "    " * 2 + f"{v_rail} = {const_array(v_out)}")

    sig_text = ", ".join(f"{gate}={state}" for gate, state in signature)
    header = [
        f'"""Fused solve_batch kernel: topology {graph.spec.name!r}, '
        f'gates [{sig_text or "none"}], '
        f'code version {KERNEL_CODE_VERSION}."""',
        "def _kernel(v, loads, masks, factors, shape, _np=np):",
    ]
    if uses_errstate[0]:
        header.append('    with _np.errstate(divide="ignore", '
                      'invalid="ignore", over="ignore"):')
    else:
        lines = [line[4:] for line in lines]
    return "\n".join(header + lines) + "\n"


def kernel_source(graph: RailGraph, open_gates=frozenset()) -> str:
    """The generated kernel source for a graph under a gate state.

    Debugging/inspection entry point (``--emit-kernel`` on the CLI):
    pure codegen, no caching, no ``exec``.  ``open_gates`` takes the
    same frozenset-or-mapping forms as :meth:`RailGraph.solve_batch`.
    """
    gates = _normalize_gate_input(graph, open_gates)
    return generate_kernel_source(graph, gate_signature(graph, gates))


def iter_registered_kernel_sources():
    """Every kernel this compiler can emit for the registered topologies.

    Yields ``(kind, signature, source, failure)`` for each registered
    rail topology crossed with every gate-state combination
    (open/closed/mask per gate) — the full space the runtime kernel
    cache can ever hold.  The lint kernel auditor
    (``repro lint --kernels``) parses each emitted source and checks the
    structural invariants; keeping enumeration here means the auditor
    never has to know how plans, signatures, or gates are spelled.

    Each topology's scalar kernels follow its batch kernels, one per
    open-gate subset: their sources define ``_scalar`` instead of
    ``_kernel`` and their signatures hold only open/closed states.

    Pure codegen: no caching, no ``exec``.  ``failure`` is ``None``
    except for a plan the compiler has no emitter for, which yields
    ``(kind, signature, None, reason)`` instead of raising, so one
    unsupported topology never hides the rest of the registry from an
    auditor.
    """
    import itertools

    from .rail_topologies import get_rail_spec, rail_topology_names

    for kind in rail_topology_names():
        graph = RailGraph(get_rail_spec(kind))
        gate_names = graph._gate_names
        states = (GATE_OPEN, GATE_CLOSED, GATE_MASK)
        for combo in itertools.product(states, repeat=len(gate_names)):
            signature = tuple(zip(gate_names, combo))
            try:
                source = generate_kernel_source(graph, signature)
            except KernelUnsupported as exc:
                yield kind, signature, None, str(exc)
                continue
            yield kind, signature, source, None
        for combo in itertools.product((GATE_OPEN, GATE_CLOSED),
                                       repeat=len(gate_names)):
            signature = tuple(zip(gate_names, combo))
            open_gates = tuple(gate for gate, state in signature
                               if state == GATE_OPEN)
            try:
                source, _ = generate_scalar_kernel_source(graph, open_gates)
            except KernelUnsupported as exc:
                yield kind, signature, None, str(exc)
                continue
            yield kind, signature, source, None


# ---------------------------------------------------------------------------
# Compilation and caching
# ---------------------------------------------------------------------------


def _plan_digest(graph: RailGraph) -> str:
    """Content hash of the graph's plan (cached on the graph instance)."""
    digest = graph._kernel_plan_digest
    if digest is None:
        payload = json.dumps(graph.spec.to_dict(), sort_keys=True)
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        graph._kernel_plan_digest = digest
    return digest


def _exec_kernel(source: str, key: tuple, name: str = "_kernel") -> Callable:
    """Compile and execute kernel source, returning its ``name`` def."""
    namespace = {
        "np": np,
        "_out_of_envelope": _OutOfEnvelope,
        "sqrt": math.sqrt,
        "hypot": math.hypot,
        "inf": math.inf,
    }
    code = compile(source, f"<railgraph-kernel {key[0][:12]}>", "exec")
    # The one sanctioned exec in the tree (lint rule DET004): the source
    # is generated above from the frozen plan, never from user input.
    exec(code, namespace)
    fn = namespace.get(name)
    if not callable(fn):
        raise KernelUnsupported(f"kernel source defines no {name}()")
    return fn


def _build_kernel(graph: RailGraph, signature: tuple,
                  key: tuple) -> CompiledKernel:
    try:
        source = generate_kernel_source(graph, signature)
    except KernelUnsupported as exc:
        _bump("unsupported")
        return CompiledKernel(key=key, source="", fn=None, failed=True,
                              failure=str(exc))
    try:
        fn = _exec_kernel(source, key)
    except Exception as exc:
        _bump("unsupported")
        return CompiledKernel(key=key, source=source, fn=None, failed=True,
                              failure=f"kernel source failed to compile: "
                                      f"{exc}")
    _bump("compiles")
    return CompiledKernel(key=key, source=source, fn=fn)


class _GraphContext:
    """Per-graph state of both compiled paths: the graph's converters
    (whose ``enabled`` flags are checked per solve), its batch kernels
    by gate signature, its scalar kernels by the open-gate container the
    caller passes, and read-only constant-load arrays by value and
    shape."""

    __slots__ = ("converters", "batch", "scalar", "arrays")

    def __init__(self, graph: RailGraph) -> None:
        self.converters = tuple(graph._converters.values())
        self.batch: Dict[tuple, CompiledKernel] = {}
        self.scalar: Dict[object, CompiledKernel] = {}
        self.arrays: Dict[tuple, np.ndarray] = {}


#: One context per graph.  Keyed weakly so graphs stay collectable, and
#: kept out of ``graph.__dict__`` so graphs stay picklable (kernels are
#: not); the kernels themselves live in the content-addressed
#: :data:`_KERNELS`, shared by equal plans.
_CONTEXTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _context(graph: RailGraph) -> _GraphContext:
    ctx = _CONTEXTS.get(graph)
    if ctx is None:
        ctx = _CONTEXTS[graph] = _GraphContext(graph)
    return ctx


def _batch_kernel(graph: RailGraph, ctx: _GraphContext,
                  signature: tuple) -> CompiledKernel:
    """The kernel entry serving ``graph`` under ``signature``."""
    entry = ctx.batch.get(signature)
    if entry is None:
        key = (_plan_digest(graph), signature, KERNEL_CODE_VERSION)
        entry = ctx.batch[signature] = _KERNELS.get_or_compute(
            key, lambda: _build_kernel(graph, signature, key)
        )
    return entry


def compiled_kernel_for(graph: RailGraph,
                        open_gates=frozenset()) -> CompiledKernel:
    """The cache entry serving a graph under a gate state (compiling it
    on first use).  Diagnostic API: tests and tooling use it to inspect
    source, verification state, and failure reasons.
    """
    gates = _normalize_gate_input(graph, open_gates)
    return _batch_kernel(graph, _context(graph),
                         gate_signature(graph, gates))


# ---------------------------------------------------------------------------
# The reference: a loop of scalar solves
# ---------------------------------------------------------------------------


def _batch_order(graph: RailGraph, gates) -> List[str]:
    """Component names in a batch solution's insertion order.

    The scalar walk's post-order, descending every gate that is not
    closed at all points (kernels compute a masked subtree everywhere).
    """
    order: List[str] = []

    def visit(name: str) -> None:
        gate = graph._plan[name][0]
        if gate is None or gates.get(gate, False) is not False:
            for child in graph._child_names[name]:
                visit(child)
        order.append(name)

    for child in graph._child_names[graph.spec.source.name]:
        visit(child)
    return order


def _reference_batch(graph: RailGraph, v, loads, gates, factors, shape):
    """The per-point scalar loop as ``(batch, reached)``.

    Raises whatever the loop raises.  A component under a per-point
    gate has no scalar value where that gate is closed: its array holds
    ``0.0`` there, and ``reached[name]`` masks the points it has one.
    """
    points = graph._solve_points(v, loads, gates, factors, range(shape[0]))
    currents: Dict[str, np.ndarray] = {}
    reached: Dict[str, np.ndarray] = {}
    for name in _batch_order(graph, gates):
        values = [point.component_i_in.get(name) for point in points]
        if any(value is None for value in values):
            reached[name] = np.array([value is not None for value in values])
            values = [0.0 if value is None else value for value in values]
        currents[name] = np.array(values, dtype=np.float64).reshape(shape)
    i_source = np.array([point.i_source for point in points],
                        dtype=np.float64).reshape(shape)
    batch = GraphSolutionBatch(
        v_source=v, i_source=i_source,
        component_i_in=FrozenMapping._adopt(currents),
    )
    return batch, reached


def _raise_point_error(graph: RailGraph, index: int, v, loads, gates,
                       factors) -> NoReturn:
    """Re-solve the point a kernel flagged: the reference raises there."""
    graph._solve_points(v, loads, gates, factors, (index,))
    raise ElectricalError(
        f"compiled kernel flagged batch point {index} out of envelope but "
        f"the scalar reference accepted it"
    )


def _bitwise_equal(i_source: np.ndarray, currents: Dict[str, np.ndarray],
                   reference: GraphSolutionBatch,
                   reached: Dict[str, np.ndarray]) -> bool:
    """Kernel output vs the reference: same bytes, same insertion order,
    compared only where the scalar walk reached each component."""
    if i_source.tobytes() != reference.i_source.tobytes():
        return False
    ref_currents = reference.component_i_in
    if list(currents) != list(ref_currents):
        return False
    for name, arr in currents.items():
        ref_arr = ref_currents[name]
        arr = np.asarray(arr)
        if arr.shape != ref_arr.shape:
            return False
        mask = reached.get(name)
        if mask is not None:
            arr, ref_arr = arr[mask], ref_arr[mask]
        if arr.tobytes() != ref_arr.tobytes():
            return False
    return True


def _fall_back(reason: str, graph: RailGraph, v, loads, gates, factors,
               shape) -> GraphSolutionBatch:
    _bump(reason)
    return _reference_batch(graph, v, loads, gates, factors, shape)[0]


def _gates(signature: tuple, masks: Dict[str, np.ndarray]) -> Dict:
    """The reference's gate states: a bool per gate, or its mask."""
    return {gate: masks.get(gate, state == GATE_OPEN)
            for gate, state in signature}


# ---------------------------------------------------------------------------
# The prologue and the dispatch behind RailGraph.solve_batch
# ---------------------------------------------------------------------------

_F64 = np.dtype(np.float64)
_NO_MASKS: Dict[str, np.ndarray] = {}

#: Bound on a context's cached constant-load arrays, so a caller
#: sweeping load values cannot grow it without limit.
_MAX_ARRAYS = 256


def _const_load(ctx: _GraphContext, amps: float, shape: tuple) -> np.ndarray:
    """A read-only ``shape`` array of ``amps`` (positive or ``+0.0``).

    Constant loads recur every lock step, so the array is cached in the
    graph's context.  Equal nonzero floats have equal bits, and ``-0.0``
    never reaches here, so the value is a safe key.
    """
    key = (amps, shape)
    arr = ctx.arrays.get(key)
    if arr is None:
        arr = np.empty(shape)
        arr.fill(amps)
        arr.flags.writeable = False
        if len(ctx.arrays) < _MAX_ARRAYS:
            ctx.arrays[key] = arr
    return arr


def _common_inputs(graph: RailGraph, ctx: _GraphContext, v_source, loads,
                   open_gates, degradation) -> Optional[tuple]:
    """Dispatch inputs for the forms the package passes, else ``None``.

    The forms: a 1-D float64 voltage axis; loads that are floats/ints
    (finite, ``> 0`` or ``+0.0``) or finite non-negative float64 arrays
    of the axis's shape; a set of open gates, or a dict of known gates
    to ``True``/``False`` or bool masks of the axis's shape; a mapping
    of known components to float/int factors or float64 arrays of the
    axis's shape.  They cost type checks only.  ``None`` means some
    input has another form or a value the generic rules reject; those
    rules then convert the whole call and raise in their order.
    """
    if type(v_source) is not np.ndarray or v_source.ndim != 1 \
            or v_source.dtype != _F64:
        return None
    shape = v_source.shape
    taps = graph._taps
    arrays = ctx.arrays
    kernel_loads: Dict[str, np.ndarray] = {}
    for channel, amps in loads.items():
        if channel not in taps:
            return None
        kind = type(amps)
        if kind is float or kind is int:
            amps = float(amps)
            if not 0.0 < amps < math.inf and (
                    amps != 0.0 or math.copysign(1.0, amps) < 0.0):
                return None  # negative, -0.0, NaN or +inf
            arr = arrays.get((amps, shape))
            kernel_loads[channel] = (_const_load(ctx, amps, shape)
                                     if arr is None else arr)
        elif kind is np.ndarray:
            if amps.ndim != 1 or amps.shape != shape \
                    or amps.dtype != _F64:
                return None
            if shape[0] and not (amps.min() >= 0.0
                                 and amps.max() < math.inf):
                return None
            kernel_loads[channel] = amps
        else:
            return None
    masks = _NO_MASKS
    if type(open_gates) is dict:
        if not graph._gate_set.issuperset(open_gates):
            return None
        for gate, state in open_gates.items():
            if state is True or state is False:
                continue
            if type(state) is not np.ndarray or state.ndim != 1 \
                    or state.dtype != np.bool_ or state.shape != shape:
                return None
            if masks is _NO_MASKS:
                masks = {}
            masks[gate] = state
    elif not isinstance(open_gates, (frozenset, set)):
        return None
    signature = gate_signature(graph, open_gates)
    factors: Dict[str, object] = {}
    if degradation:
        components = graph._component_set
        for name, factor in degradation.items():
            if name not in components:
                return None
            kind = type(factor)
            if kind is float or kind is int:
                factor = float(factor)
                if factor != 1.0:
                    factors[name] = factor
            elif kind is np.ndarray and factor.ndim == 1 \
                    and factor.shape == shape and factor.dtype == _F64:
                factors[name] = factor
            else:
                return None
    return v_source, kernel_loads, signature, masks, factors, shape


def _generic_inputs(graph: RailGraph, v_source, loads, open_gates,
                    degradation) -> tuple:
    """Dispatch inputs for any accepted form, by the general rules.

    Scalars and length-1 arrays broadcast along one batch axis (a call
    of scalars is a batch of one).  Raises
    :class:`~repro.errors.ConfigurationError`, in this order, for a
    voltage or load of more than one dimension, a load on an untapped
    channel, inputs that do not broadcast, a NaN/infinite/negative load
    (naming the batch point), an unknown gate and an unknown
    degradation component.
    """
    name = graph.spec.name
    v = np.asarray(v_source, dtype=np.float64)
    if v.ndim > 1:
        raise ConfigurationError(
            f"{name}: v_source must be a scalar or a 1-D batch, got "
            f"shape {v.shape}"
        )
    load_arrays: Dict[str, np.ndarray] = {}
    shapes = [v.shape]
    for channel, amps in loads.items():
        if channel not in graph._taps:
            raise ConfigurationError(
                f"{name}: load on untapped channel {channel!r}"
            )
        arr = np.asarray(amps, dtype=np.float64)
        if arr.ndim > 1:
            raise ConfigurationError(
                f"{name}: load {channel!r} must be a scalar or a 1-D "
                f"batch, got shape {arr.shape}"
            )
        load_arrays[channel] = arr
        shapes.append(arr.shape)
    if isinstance(open_gates, MappingABC):
        for state in open_gates.values():
            arr = np.asarray(state)
            if arr.ndim == 1:
                shapes.append(arr.shape)
    if degradation:
        for factor in degradation.values():
            arr = np.asarray(factor, dtype=np.float64)
            if arr.ndim == 1:
                shapes.append(arr.shape)
    try:
        shape = np.broadcast_shapes(*shapes)
    except ValueError:
        raise ConfigurationError(
            f"{name}: batch inputs do not broadcast: "
            f"{[tuple(s) for s in shapes]}"
        ) from None
    shape = shape if shape else (1,)
    v = np.broadcast_to(v, shape)
    for channel in list(load_arrays):
        arr = np.broadcast_to(load_arrays[channel], shape)
        bad = ~np.isfinite(arr) | (arr < 0.0)
        if bad.any():
            index = int(np.argmax(bad))
            raise ConfigurationError(
                f"{name}: load {channel!r} must be finite and >= 0, got "
                f"{float(arr[index])!r} at batch point {index}"
            )
        load_arrays[channel] = arr
    gates = graph._normalize_gates(open_gates, shape)
    factors = {
        component: factor
        for component, factor in graph._normalize_degradation(
            degradation, shape).items()
        if isinstance(factor, np.ndarray) or factor != 1.0
    }
    signature = gate_signature(graph, gates)
    masks = {gate: gates[gate] for gate, state in signature
             if state == GATE_MASK}
    return v, load_arrays, signature, masks, factors, shape


def solve_batch_compiled(graph: RailGraph, v_source, loads, open_gates,
                         degradation) -> GraphSolutionBatch:
    """``RailGraph.solve_batch``: one prologue, then one dispatch.

    The prologue turns the raw arguments into a voltage axis, load
    arrays, a gate signature with its masks, and the degradation
    factors that are not ``1.0`` (:func:`_common_inputs` for the forms
    the package passes, :func:`_generic_inputs` for every other).  A
    kernel serves the call when one can: it is compared with the
    per-point reference on its first call of at least one point, and
    the reference serves the call instead when a converter is disabled
    or the kernel is out of service (counted in :func:`kernel_metrics`).
    A point the kernel flags out of envelope is re-solved by the
    reference, which raises its scalar
    :class:`~repro.errors.ElectricalError`.
    """
    ctx = _context(graph)
    inputs = _common_inputs(graph, ctx, v_source, loads, open_gates,
                            degradation)
    if inputs is None:
        inputs = _generic_inputs(graph, v_source, loads, open_gates,
                                 degradation)
    v, kernel_loads, signature, masks, factors, shape = inputs
    if len(kernel_loads) != len(graph._taps):
        for channel in graph._taps:  # untouched taps draw nothing
            if channel not in kernel_loads:
                kernel_loads[channel] = _const_load(ctx, 0.0, shape)
    for converter in ctx.converters:
        # enable()/disable() mutate runtime state the kernels bake in as
        # constants, so any disabled stage routes to the reference.
        if not converter.enabled:
            return _fall_back("batch_fallbacks_disabled_converter", graph,
                              v, kernel_loads, _gates(signature, masks),
                              factors, shape)
    entry = _batch_kernel(graph, ctx, signature)
    if entry.failed:
        return _fall_back("batch_fallbacks_failed_kernel", graph, v,
                          kernel_loads, _gates(signature, masks), factors,
                          shape)
    if entry.verified:
        try:
            i_source, currents = entry.fn(v, kernel_loads, masks, factors,
                                          shape)
        except _OutOfEnvelope as flagged:
            index = flagged.index
        except Exception:
            entry.failed = True
            entry.failure = "compiled kernel raised an unexpected error"
            return _fall_back("batch_fallbacks_failed_kernel", graph, v,
                              kernel_loads, _gates(signature, masks),
                              factors, shape)
        else:
            return _kernel_result(v, i_source, currents)
        _raise_point_error(graph, index, v, kernel_loads,
                           _gates(signature, masks), factors)
    # First use: the reference answers (raising the loop's error, if
    # any, with verification left for a later call), and the kernel must
    # match it byte for byte to be trusted.  An empty batch has nothing
    # to compare, so it verifies nothing.
    reference, reached = _reference_batch(
        graph, v, kernel_loads, _gates(signature, masks), factors, shape)
    if not shape[0]:
        return reference
    try:
        i_source, currents = entry.fn(v, kernel_loads, masks, factors, shape)
    except Exception:
        entry.failed = True
        entry.failure = ("kernel raised or flagged a point where the "
                         "scalar reference did not")
        _bump("mismatches")
        return reference
    _bump("verifications")
    if not _bitwise_equal(i_source, currents, reference, reached):
        entry.failed = True
        entry.failure = ("kernel result diverged bitwise from the scalar "
                         "reference")
        _bump("mismatches")
        return reference
    entry.verified = True
    return _kernel_result(v, i_source, currents)


def _kernel_result(v, i_source, currents) -> GraphSolutionBatch:
    _bump("kernel_solves")
    return GraphSolutionBatch(
        v_source=v, i_source=i_source,
        component_i_in=FrozenMapping._adopt(currents),
    )


# ---------------------------------------------------------------------------
# The scalar target: straight-line Python-float kernels behind
# RailGraph.solve
# ---------------------------------------------------------------------------

#: Parameters of every emitted scalar kernel: the source voltage, the
#: four channel loads in :data:`~repro.power.graph.CHANNELS` order, the
#: degradation mapping (or ``None``), then the math helpers bound as
#: defaults so the body reads them as fast locals.
SCALAR_PARAMS = ("v", "i_mcu", "i_sensor", "i_radio_digital", "i_radio_rf",
                 "factors", "_sqrt", "_hypot", "_inf")

_LOAD_PARAMS = dict(zip(CHANNELS, SCALAR_PARAMS[1:5]))


def generate_scalar_kernel_source(
    graph: RailGraph, open_gates
) -> Tuple[str, Tuple[str, ...]]:
    """Emit straight-line Python-float source for one (plan, open gates).

    Returns ``(source, names)``: ``names`` are the graph's component
    names in the interpreted walk's insertion order, which the kernel
    also returns next to its currents.  The kernel replays
    :meth:`RailGraph._solve_interpreted` operation for operation, with
    the same CPython float arithmetic and constants folded the way
    :func:`generate_kernel_source` folds them (a stage under a converter
    sees that converter's nominal rail, so its window checks and supply
    terms are computed at codegen time).  Every check of the reference
    stays in the source: loads finite and ``>= 0``, each stage's
    envelope, and each component's degradation factor.  Where the
    reference would raise, the kernel returns ``None`` and the caller
    hands the point to the interpreter, which raises the reference
    error.  Raises :class:`KernelUnsupported` for a converter type
    without an emitter or a NaN constant in the plan.
    """
    open_set = frozenset(open_gates)
    comp_kind = {comp.name: comp.kind for comp in graph.spec.components}
    lines: List[str] = []
    order: List[Tuple[str, str]] = []
    counter = [0]

    def new(prefix: str) -> str:
        counter[0] += 1
        return f"_{prefix}{counter[0]}"

    def emit(text: str, depth: int = 0) -> None:
        lines.append("    " * (1 + depth) + text)

    def decline(condition: str, depth: int = 0) -> None:
        emit(f"if {condition}:", depth)
        emit("return None", depth + 1)

    def lit(value) -> str:
        """A source literal for a plan constant (ints keep their type)."""
        if isinstance(value, float):
            if value != value:
                raise KernelUnsupported(
                    f"{graph.spec.name}: NaN constant in the solve plan")
            if math.isinf(value):
                return "_inf" if value > 0.0 else "-_inf"
        return repr(value)

    def emit_charge_pump(conv, v_expr, s_var, v_const) -> str:
        decline(f"{s_var} < 0.0")
        rng = conv.input_range
        threshold = conv.v_out + conv.headroom
        if v_const is None:
            decline(f"not ({lit(rng.minimum)} <= {v_expr} <= "
                    f"{lit(rng.maximum)})")
            # Gains are positive, so 0.0 marks "no gain regulates".
            gain = new("g")
            chain = "0.0"
            for candidate in reversed(conv.gains):
                chain = (f"{lit(candidate)} if {lit(candidate)} * {v_expr} >= "
                         f"{lit(threshold)} else {chain}")
            emit(f"{gain} = {chain}")
            decline(f"{gain} == 0.0")
        else:
            gain = "0.0"
            if rng.minimum <= v_const <= rng.maximum:
                for candidate in conv.gains:
                    if candidate * v_const >= threshold:
                        gain = lit(candidate)
                        break
            if gain == "0.0":
                emit("return None")
        i_var = new("i")
        emit(f"{i_var} = {gain} * {s_var} + ({lit(conv.i_snooze)} if "
             f"{s_var} <= {lit(conv.snooze_load_threshold)} else "
             f"{lit(conv.i_quiescent)})")
        return i_var

    def emit_sc_converter(conv, v_expr, s_var, v_const) -> str:
        decline(f"{s_var} < 0.0")
        ratio, v_target, r_fsl = conv.ratio, conv.v_target, conv.r_fsl
        cap_sq = conv.analysis.cap_multiplier_sum ** 2
        c_total = lit(conv.c_total)
        if v_const is None:
            decline(f"{v_expr} <= 0.0")
            v_ideal = new("vi")
            emit(f"{v_ideal} = {lit(ratio)} * {v_expr}")
            decline(f"{v_ideal} <= {lit(v_target)}")
            v_sq = new("vv")
            emit(f"{v_sq} = {v_expr} ** 2")
        else:
            if v_const <= 0.0 or ratio * v_const <= v_target:
                emit("return None")
            v_ideal = lit(ratio * v_const)
            v_sq = lit(v_const ** 2)
        # PFM frequency: the floor when unloaded, else the SSL share of
        # the impedance the headroom allows, clamped like max()/min().
        r_needed, f_ssl, f_low, f_loaded = (new("rn"), new("fc"), new("fm"),
                                            new("fx"))
        f_min, f_max = lit(conv.f_min), lit(conv.f_max)
        emit(f"if not {s_var} <= 0.0:")
        emit(f"{r_needed} = ({v_ideal} - {lit(v_target)}) / {s_var}", 1)
        decline(f"{r_needed} <= {lit(r_fsl)}", 1)
        emit(f"{f_ssl} = {lit(cap_sq)} / ({c_total} * _sqrt({r_needed} ** 2"
             f" - {lit(r_fsl ** 2)}))", 1)
        emit(f"{f_low} = {f_min} if {f_min} > {f_ssl} else {f_ssl}", 1)
        emit(f"{f_loaded} = {f_max} if {f_max} < {f_low} else {f_low}", 1)
        decline(f"{v_ideal} - {s_var} * _hypot({lit(cap_sq)} / ({c_total} * "
                f"{f_loaded}), {lit(r_fsl)}) < {lit(v_target - 1e-9)}", 1)
        f_sw = new("fs")
        emit(f"{f_sw} = {f_min} if {s_var} <= 0.0 else {f_loaded}")
        i_var = new("i")
        emit(f"{i_var} = {lit(ratio)} * {s_var} + ({f_sw} * "
             f"{lit(conv.g_total)} * {lit(conv.tau_gate)} * {v_sq} + {f_sw} "
             f"* {lit(conv.alpha_bottom_plate)} * {c_total} * {v_sq}) / "
             f"{v_expr} + {lit(conv.i_controller)}")
        return i_var

    def emit_ldo(conv, v_expr, s_var, v_const) -> str:
        decline(f"{s_var} < 0.0")
        v_min = conv.minimum_input_voltage()
        if v_const is None:
            decline(f"{v_expr} < {lit(v_min)}")
        elif v_const < v_min:
            emit("return None")
        decline(f"{s_var} > {lit(conv.i_max)}")
        i_var = new("i")
        emit(f"{i_var} = {s_var} + {lit(conv.i_ground)}")
        return i_var

    def emit_shunt(conv, v_expr, s_var, v_const) -> str:
        decline(f"{s_var} < 0.0")
        if v_const is None:
            decline(f"{v_expr} <= {lit(conv.v_out)}")
            supply = new("sup")
            emit(f"{supply} = ({v_expr} - {lit(conv.v_out)}) / "
                 f"{lit(conv.r_series)}")
        else:
            if v_const <= conv.v_out:
                emit("return None")
            supply = lit((v_const - conv.v_out) / conv.r_series)
        decline(f"{supply} - {s_var} < {lit(conv.i_bias_min)}")
        i_var = new("i")
        emit(f"{i_var} = {supply}")
        return i_var

    emitters = (
        (RegulatedChargePump, emit_charge_pump),
        (SwitchedCapacitorConverter, emit_sc_converter),
        (LinearRegulator, emit_ldo),
        (ShuntRegulator, emit_shunt),
    )

    def emit_converter(name, conv, v_expr, s_var, v_const) -> str:
        for cls, emitter in emitters:
            if isinstance(conv, cls):
                return emitter(conv, v_expr, s_var, v_const)
        raise KernelUnsupported(
            f"{graph.spec.name}: no scalar emitter for "
            f"{type(conv).__name__} ({name!r})"
        )

    def branch(name: str, v_expr: str, v_const: Optional[float]) -> str:
        gate, leak, (tag, arg) = graph._plan[name]
        emit(f"# {name} ({comp_kind[name]})")
        if gate is not None and gate not in open_set:
            i_var = new("i")
            emit(f"{i_var} = {lit(leak)}")
        elif tag == RailGraph._TAP:
            i_var = new("i")
            emit(f"{i_var} = {_LOAD_PARAMS[arg]}")
        elif tag == RailGraph._DRAIN:
            i_var = new("i")
            emit(f"{i_var} = {lit(arg)}")
        elif tag == RailGraph._SWITCH:
            i_var = child_sum(name, v_expr, v_const)
        else:
            v_out, converter = arg
            s_var = child_sum(name, lit(v_out), v_out)
            i_var = emit_converter(name, converter, v_expr, s_var, v_const)
        factor = new("f")
        emit("if factors:")
        emit(f"{factor} = factors.get({name!r}, 1.0)", 1)
        emit(f"if {factor} != 1.0:", 1)
        emit(f"{i_var} = {i_var} * {factor}", 2)
        order.append((name, i_var))
        return i_var

    def child_sum(name: str, v_expr: str, v_const: Optional[float]) -> str:
        terms = [branch(child, v_expr, v_const)
                 for child in graph._child_names[name]]
        s_var = new("s")
        emit(f"{s_var} = {' + '.join(['0.0'] + terms)}")
        return s_var

    decline(" or ".join(f"not 0.0 <= {param} < _inf"
                        for param in SCALAR_PARAMS[1:5]))
    i_source = child_sum(graph.spec.source.name, "v", None)
    currents = tuple(var for _, var in order)
    names = tuple(name for name, _ in order)
    emit(f"return {i_source}, {_tuple_source(currents)}, {names!r}")

    label = ", ".join(sorted(open_set)) or "none"
    header = [
        f'"""Scalar solve kernel: topology {graph.spec.name!r}, '
        f'open gates [{label}], code version {KERNEL_CODE_VERSION}."""',
        f"def _scalar({', '.join(SCALAR_PARAMS[:6])}, _sqrt=sqrt, "
        f"_hypot=hypot, _inf=inf):",
    ]
    return "\n".join(header + lines) + "\n", names


def _tuple_source(names: Tuple[str, ...]) -> str:
    """A tuple display of local names (``repr`` would quote them)."""
    if len(names) == 1:
        return f"({names[0]},)"
    return f"({', '.join(names)})"


def scalar_kernel_source(graph: RailGraph, open_gates=frozenset()) -> str:
    """The scalar kernel source for a graph under an open-gate set.

    Inspection entry point (``--emit-kernel`` prints it after the batch
    kernel): pure codegen, no caching, no ``exec``.
    """
    return generate_scalar_kernel_source(graph, _open_key(graph,
                                                          open_gates))[0]


def _open_key(graph: RailGraph, open_gates) -> Tuple[str, ...]:
    """The plan's gates that ``open_gates`` opens, in plan order."""
    return tuple(gate for gate in graph._gate_names if gate in open_gates)


def _build_scalar_kernel(graph: RailGraph, open_key: tuple,
                         key: tuple) -> CompiledKernel:
    try:
        source, _ = generate_scalar_kernel_source(graph, open_key)
        fn = _exec_kernel(source, key, name="_scalar")
    except Exception as exc:
        return CompiledKernel(key=key, source="", fn=None, failed=True,
                            failure=f"scalar kernel unavailable: {exc}")
    _bump("scalar_compiles")
    return CompiledKernel(key=key, source=source, fn=fn)


def compiled_scalar_kernel_for(graph: RailGraph,
                               open_gates=frozenset()) -> CompiledKernel:
    """The cache entry serving ``graph`` under ``open_gates`` (built on
    first use).  Diagnostic API, like :func:`compiled_kernel_for`."""
    return _scalar_context_and_kernel(graph, open_gates)[1]


def _scalar_context_and_kernel(graph: RailGraph, open_gates) -> tuple:
    ctx = _context(graph)
    try:
        return ctx, ctx.scalar[open_gates]
    except KeyError:
        # Bounded: a caller building a fresh container per call must
        # not grow the table without limit.
        cacheable = len(ctx.scalar) < 64
    except TypeError:  # an unhashable container (a set, a list)
        cacheable = False
    # Membership in the caller's container decides, as in the walk.
    open_key = _open_key(graph, open_gates)
    key = (_plan_digest(graph), open_key, KERNEL_CODE_VERSION, "scalar")
    entry = _KERNELS.get_or_compute(
        key, lambda: _build_scalar_kernel(graph, open_key, key))
    if cacheable:
        ctx.scalar[open_gates] = entry
    return ctx, entry


def _retire(entry: CompiledKernel, failure: str) -> None:
    entry.failed = True
    entry.failure = failure
    _bump("scalar_mismatches")


def _as_scalar_result(solution) -> tuple:
    currents = solution.component_i_in
    return solution.i_source, tuple(currents.values()), tuple(currents)


def _same_bits(a, b) -> bool:
    return type(a) is type(b) and float(a).hex() == float(b).hex()


def solve_scalar(graph: RailGraph, v, i_mcu, i_sensor, i_radio_digital,
                 i_radio_rf, open_gates, degradation, loads=None) -> tuple:
    """One quasi-static solve: ``(i_source, currents, names)``.

    The default path behind ``RailGraph.solve`` and
    ``GraphPowerTrain.solve``: ``currents`` are the per-component input
    currents in the order of ``names`` (the interpreted walk's insertion
    order).  ``loads`` is the caller's channel mapping when it has one;
    the interpreter gets it (or a dict of the four channel loads) so its
    errors come out in the caller's order.

    The compiled kernel serves the call unless a converter is disabled,
    the kernel is retired, or the point is outside some stage's envelope
    (the kernel declines; the interpreter then raises the reference
    error).  Each kernel's first served call is compared by
    ``float.hex`` and order against the interpreter; any divergence, and
    any decline the interpreter does not confirm with an error, retires
    the kernel for good.  Only these rare events touch the counters.
    """
    ctx = _CONTEXTS.get(graph)
    try:
        entry = ctx.scalar[open_gates]
    except (AttributeError, KeyError, TypeError):
        ctx, entry = _scalar_context_and_kernel(graph, open_gates)
    out = None
    if entry.failed:
        reason = "scalar_fallbacks_failed_kernel"
    else:
        reason = "scalar_fallbacks_envelope"
        for converter in ctx.converters:
            # enable()/disable() mutate state the kernel bakes in.
            if not converter.enabled:
                reason = "scalar_fallbacks_disabled_converter"
                break
        else:
            # Bad degradation keys leave out None: the interpreter
            # raises the key error, after any load error, as it would.
            if not degradation or graph._component_set.issuperset(
                    degradation):
                try:
                    out = entry.fn(v, i_mcu, i_sensor, i_radio_digital,
                                   i_radio_rf, degradation)
                except Exception:
                    pass  # the interpreter decides what is raised
            if out is not None and entry.verified:
                return out
    if loads is None:
        loads = dict(zip(CHANNELS, (i_mcu, i_sensor, i_radio_digital,
                                    i_radio_rf)))
    if out is not None:  # served, but not yet verified
        return _verify_scalar(graph, entry, out, v, loads, open_gates,
                              degradation)
    _bump(reason)
    solution = graph._solve_interpreted(v, loads, open_gates, degradation)
    if reason == "scalar_fallbacks_envelope":
        _retire(entry, "kernel declined an operating point the "
                       "interpreter solves")
    return _as_scalar_result(solution)


def _verify_scalar(graph, entry, out, v, loads, open_gates,
                   degradation) -> tuple:
    """First served call of a kernel: compare it with the interpreter."""
    try:
        reference = graph._solve_interpreted(v, loads, open_gates,
                                             degradation)
    except Exception:
        _retire(entry, "kernel solved an operating point the interpreter "
                       "rejects")
        raise
    _bump("scalar_verifications")
    expected = _as_scalar_result(reference)
    i_source, currents, names = out
    if not (_same_bits(i_source, expected[0]) and names == expected[2]
            and len(currents) == len(expected[1])
            and all(map(_same_bits, currents, expected[1]))):
        _retire(entry, "kernel result diverged bitwise from the "
                       "interpreter")
        return expected
    entry.verified = True
    return out
