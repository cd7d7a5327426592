"""Plan-compiled kernels for :meth:`RailGraph.solve_batch` and
:meth:`RailGraph.solve`.

The batched solver in :mod:`repro.power.graph` walks the precomputed
dispatch plan in interpreted Python: one dynamic dispatch, one gate
check, and a handful of short-lived temporaries per component per call.
At fleet scale (``net/cohort.py``'s advance chain, ``sim/fleet_engine``,
``topology_sweep_campaign``) that walk overhead dominates the actual
numpy arithmetic.  This module removes it by *compiling the plan*:

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
* :func:`solve_batch_compiled` is the fast path behind
  ``RailGraph.solve_batch(compiled=True)``.

**Bit-exactness contract.**  The scalar solver and its 440 float-hex
goldens remain the authority; the interpreted batch walk mirrors it
within :data:`repro.power.graph.ULP_BUDGET` ulps; and compiled kernels
must match the interpreted walk **bitwise** — the generated source
replays the exact operation sequence (declaration-order summation
accumulating from a zeros seed, cascades solved at the parent's nominal
rail, constants pre-folded only where scalar CPython would fold them).
The first call through each cached kernel runs both paths and compares
every output array byte-for-byte; any divergence permanently marks the
kernel failed, falls back to the interpreted walk, and is surfaced in
:func:`kernel_metrics`.

**Error parity.**  Envelope checks are hoisted, but each converter's
per-point ``bad`` mask (with ancestor gate masks folded in) is kept
alive; on ``_bad.any()`` the kernel invokes the converters'
``_batch_guard`` in walk order, so batch callers see the identical
scalar :class:`~repro.errors.ElectricalError` the interpreted walk
raises — first failing component in walk order, lowest failing index.

Set the :data:`CACHE_DIR_ENV` environment variable to also persist
generated kernel source on disk (content-addressed filenames); a warm
process then ``exec``'s the stored artifact, and the first-use bitwise
verification keeps even a stale or corrupted artifact safe.

**The scalar target.**  The same plan also compiles to straight-line
Python-float source, one ``_scalar`` function per (plan digest, open-gate
set): :func:`solve_scalar` serves ``RailGraph.solve`` and
``GraphPowerTrain.solve`` from it.  It keeps every check of the
interpreted walk, declines to the walk wherever the walk would raise, is
compared with the walk by ``float.hex`` on first use, and is retired for
good on any divergence (see ``docs/POWER.md``).  Scalar kernels stay in
memory; they are not written to the source cache.

This module is the **only** place in the tree allowed to call ``exec``
(lint rule DET004 enforces that); the generated source can be inspected
with ``python -m repro train --solve KIND --emit-kernel``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import re
import threading
import weakref
from collections.abc import Mapping as MappingABC
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, ElectricalError
from ..runner.cache import MemoCache
from ..runner.cacheroot import resolve_cache_dir
from .charge_pump import RegulatedChargePump
from .graph import CHANNELS, FrozenMapping, GraphSolutionBatch, RailGraph
from .linear_regulator import LinearRegulator
from .sc_converter import SwitchedCapacitorConverter
from .shunt_regulator import ShuntRegulator

#: Bump when the generated source or the interpreted walk changes shape:
#: it keys the kernel cache, so old in-memory and on-disk artifacts are
#: never matched against a newer plan walk.
KERNEL_CODE_VERSION = 3

#: Environment variable naming a directory for the persistent source
#: cache (used by CI's cold/warm equivalence check).  This is a
#: kernel-specific override; when unset, the shared ``REPRO_CACHE_DIR``
#: root (see :mod:`repro.runner.cacheroot`) provides a ``kernels/``
#: subdirectory, and with neither set the cache is memory only.
CACHE_DIR_ENV = "REPRO_KERNEL_CACHE_DIR"

#: Gate-signature states: each gate group of a topology is resolved at
#: compile time to one of these, and one kernel is compiled per distinct
#: (topology, signature) pair.
GATE_OPEN = "open"
GATE_CLOSED = "closed"
GATE_MASK = "mask"

__all__ = [
    "CACHE_DIR_ENV",
    "GATE_CLOSED",
    "GATE_MASK",
    "GATE_OPEN",
    "KERNEL_CODE_VERSION",
    "SCALAR_PARAMS",
    "CompiledKernel",
    "KernelMetrics",
    "KernelUnsupported",
    "ScalarKernel",
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
    "solve_batch_fast",
    "solve_scalar",
]


class KernelUnsupported(Exception):
    """The plan contains a component this compiler has no emitter for."""


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
    """A cached kernel: source, callable, and its verification state."""

    key: tuple
    source: str
    fn: Optional[Callable]
    #: Converter component names whose ``_batch_guard`` the kernel calls
    #: (in walk order) when a batch point is out of envelope.
    guard_names: Tuple[str, ...]
    #: True once a call has compared bitwise-equal to the interpreted
    #: walk; until then every call runs both paths.
    verified: bool = False
    #: True when the kernel is permanently out of service (unsupported
    #: plan, bad artifact, or a bitwise mismatch); callers fall back.
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

    #: Kernel sources ``exec``'d (cold compiles, including disk loads).
    compiles: int
    #: Compiles whose source came from the :data:`CACHE_DIR_ENV` cache.
    disk_loads: int
    #: Batch solves served by a compiled kernel.
    kernel_solves: int
    #: First-use bitwise comparisons against the interpreted walk.
    verifications: int
    #: Verifications that diverged (kernel permanently failed).
    mismatches: int
    #: Solves that fell back to the interpreted walk (disabled
    #: converters, failed kernels, unexpected runtime errors).
    fallbacks: int
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
    def scalar_fallbacks(self) -> Dict[str, int]:
        """Scalar fallbacks by reason."""
        return {
            "disabled-converter": self.scalar_fallbacks_disabled_converter,
            "failed-kernel": self.scalar_fallbacks_failed_kernel,
            "envelope": self.scalar_fallbacks_envelope,
        }


#: Counter names of the scalar target, as kept in the metrics registry.
_SCALAR_COUNTERS = tuple(
    field.name for field in dataclasses.fields(KernelMetrics)
    if field.name.startswith("scalar_")
)

def kernel_metrics() -> KernelMetrics:
    """Current process-wide compiled-path counters."""
    with _METRICS_LOCK:
        get = _METRICS.get
        return KernelMetrics(
            compiles=get("compiles", 0),
            disk_loads=get("disk_loads", 0),
            kernel_solves=get("kernel_solves", 0),
            verifications=get("verifications", 0),
            mismatches=get("mismatches", 0),
            fallbacks=get("fallbacks", 0),
            unsupported=get("unsupported", 0),
            **{name: get(name, 0) for name in _SCALAR_COUNTERS},
        )


def reset_kernel_metrics() -> None:
    """Zero the counters (test isolation)."""
    with _METRICS_LOCK:
        _METRICS.clear()


def clear_kernel_cache() -> None:
    """Drop every compiled kernel (they recompile on next use)."""
    _KERNELS.clear()
    _FAST_CONTEXTS.clear()
    _SCALAR_CONTEXTS.clear()


def kernel_cache_stats():
    """Hit/miss stats of the in-memory kernel cache."""
    return _KERNELS.stats


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


def gate_signature(graph: RailGraph, gates: Dict[str, object]) -> tuple:
    """Resolve normalized gate states to a hashable compile-time signature.

    ``gates`` is the output of ``RailGraph._normalize_gates``: gate name
    to ``True`` (uniformly open), ``False`` (uniformly closed), or a
    boolean per-point mask.  Gates absent from the mapping are closed,
    matching the interpreted walk's ``gates.get(gate, False)``.
    """
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


def generate_kernel_source(
    graph: RailGraph, signature: tuple
) -> Tuple[str, Tuple[str, ...]]:
    """Emit straight-line fused source for one (plan, signature) pair.

    Returns ``(source, guard_names)`` where ``guard_names`` lists the
    converter components whose bound ``_batch_guard`` methods the caller
    must pass (in order) as the kernel's ``guards`` argument.  Raises
    :class:`KernelUnsupported` when the plan holds a converter type this
    compiler has no emitter for.

    The emitted operation sequence replays the interpreted walk exactly
    (see the module docstring), with two safe strengthenings: scalar
    constants that the interpreted path computes with CPython float
    arithmetic are pre-folded at codegen time using the *same* CPython
    operations, and per-stage envelope masks are OR-merged into a single
    hoisted ``_bad.any()`` check whose failure path calls the stage
    guards in walk order.
    """
    states = dict(signature)
    comp_kind = {comp.name: comp.kind for comp in graph.spec.components}
    lines: List[str] = []
    order: List[Tuple[str, str]] = []       # currents insertion order
    guard_names: List[str] = []
    guard_calls: List[Tuple[str, str, str]] = []
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
        A plain zero is the zeros seed itself: the interpreted walk
        already shares one zeros array between all-zero components.
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

    def guard(name: str, v_expr: str, i_expr: str, bad: str,
              active: Optional[str]) -> None:
        # The interpreted _batch_guard folds the active mask itself;
        # here it is folded at the call site so the hoisted _bad carries
        # exactly the points the interpreted walk would raise on.
        if active is not None:
            folded = new("bg")
            emit(f"{folded} = {bad} & {active}")
        else:
            folded = bad
        accumulate_bad(folded)
        guard_names.append(name)
        guard_calls.append((v_expr, i_expr, folded))

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
        guard(name, v_expr, s_var, bad, active)
        house = new("h")
        emit(f"{house} = _np.where({s_var} <= {conv.snooze_load_threshold!r},"
             f" {conv.i_snooze!r}, {conv.i_quiescent!r})")
        i_var = new("i")
        emit(f"{i_var} = {gain} * {s_var} + {house}")
        return i_var

    def emit_sc_converter(name, conv, v_expr, s_var, active, v_const):
        # Only the SC stage divides/sqrts through possibly-invalid
        # intermediates (its interpreted solve_batch runs under its own
        # errstate); plans without one skip the errstate context.
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
        guard(name, v_expr, s_var, bad, active)
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
        # constant at every point (the interpreted walk broadcasts it),
        # so its window comparison folds to a scalar bool: OR-ing a
        # Python bool into a bool array is elementwise-identical to
        # OR-ing the comparison of the broadcast rail.
        bad = new("b")
        v_min = conv.minimum_input_voltage()
        if v_const is None:
            emit(f"{bad} = ({s_var} < 0.0) | ({v_expr} < {v_min!r})")
        elif v_const < v_min:
            emit(f"{bad} = ({s_var} < 0.0) | True")
        else:
            emit(f"{bad} = {s_var} < 0.0")
        emit(f"{bad} |= {s_var} > {conv.i_max!r}")
        guard(name, v_expr, s_var, bad, active)
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
        guard(name, v_expr, s_var, bad, active)
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
                # descendant expression (or guard call) actually reads
                # it — resolved after the whole body is emitted.
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

    guard_at = None
    if guard_calls:
        guard_at = len(lines)
        emit("if _bad.any():")
        for idx, (v_expr, i_expr, bad) in enumerate(guard_calls):
            emit(f"guards[{idx}]({v_expr}, {i_expr}, {bad}, None)", depth=1)
        emit("raise _kernel_inconsistent()", depth=1)
    currents = ", ".join(f"{name!r}: {var}" for name, var in order)
    emit(f"return _i_src, {{{currents}}}")

    # Materialize only the nominal-rail arrays some later line reads
    # (a converter whose children are all taps or closed gates never
    # touches its rail), and when the sole readers are the cold-path
    # stage-guard calls — the usual case after constant-rail folding —
    # materialize inside the ``_bad.any()`` block so the hot path never
    # pays for it.  Reverse order keeps earlier insert points valid
    # while later insertions shift down.
    for rail_at, v_rail, v_out in sorted(deferred_rails, reverse=True):
        pattern = re.compile(re.escape(v_rail) + r"\b")
        first_use = next(
            (idx for idx in range(rail_at, len(lines))
             if pattern.search(lines[idx])),
            None,
        )
        if first_use is None:
            continue
        text = f"{v_rail} = {const_array(v_out)}"
        if guard_at is not None and first_use > guard_at:
            lines.insert(guard_at + 1, "    " * 3 + text)
        else:
            lines.insert(rail_at, "    " * 2 + text)
            if guard_at is not None and rail_at <= guard_at:
                guard_at += 1

    sig_text = ", ".join(f"{gate}={state}" for gate, state in signature)
    header = [
        f'"""Fused solve_batch kernel: topology {graph.spec.name!r}, '
        f'gates [{sig_text or "none"}], '
        f'code version {KERNEL_CODE_VERSION}."""',
        "def _kernel(v, loads, masks, factors, guards, shape, _np=np):",
    ]
    if uses_errstate[0]:
        header.append('    with _np.errstate(divide="ignore", '
                      'invalid="ignore", over="ignore"):')
    else:
        lines = [line[4:] for line in lines]
    return "\n".join(header + lines) + "\n", tuple(guard_names)


def kernel_source(graph: RailGraph, open_gates=frozenset()) -> str:
    """The generated kernel source for a graph under a gate state.

    Debugging/inspection entry point (``--emit-kernel`` on the CLI):
    pure codegen, no caching, no ``exec``.  ``open_gates`` takes the
    same frozenset-or-mapping forms as :meth:`RailGraph.solve_batch`.
    """
    gates = _normalize_gate_input(graph, open_gates)
    return generate_kernel_source(graph, gate_signature(graph, gates))[0]


def iter_registered_kernel_sources():
    """Every kernel this compiler can emit for the registered topologies.

    Yields ``(kind, signature, source, guard_names)`` for each
    registered rail topology crossed with every gate-state combination
    (open/closed/mask per gate) — the full space the runtime kernel
    cache can ever hold.  The lint kernel auditor
    (``repro lint --kernels``) parses each emitted source and checks the
    structural invariants; keeping enumeration here means the auditor
    never has to know how plans, signatures, or gates are spelled.

    Each topology's scalar kernels follow its batch kernels, one per
    open-gate subset: their sources define ``_scalar`` instead of
    ``_kernel``, their signatures hold only open/closed states, and
    their guard names are empty (a scalar kernel hands off to the
    interpreter instead of calling stage guards).

    Pure codegen: no caching, no ``exec``.  A plan the compiler has no
    emitter for yields ``(kind, signature, None, reason)`` instead of
    raising, so one unsupported topology never hides the rest of the
    registry from an auditor.
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
                source, guard_names = generate_kernel_source(
                    graph, signature)
            except KernelUnsupported as exc:
                yield kind, signature, None, str(exc)
                continue
            yield kind, signature, source, guard_names
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
            yield kind, signature, source, ()


# ---------------------------------------------------------------------------
# Compilation, caching, and the solve fast path
# ---------------------------------------------------------------------------


def _kernel_inconsistent() -> ElectricalError:
    return ElectricalError(  # pragma: no cover - stage guards raise first
        "compiled kernel flagged a batch point out of envelope but no "
        "stage guard raised"
    )


def _plan_digest(graph: RailGraph) -> str:
    """Content hash of the graph's plan (cached on the graph instance)."""
    digest = graph._kernel_plan_digest
    if digest is None:
        payload = json.dumps(graph.spec.to_dict(), sort_keys=True)
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        graph._kernel_plan_digest = digest
    return digest


def _disk_path(key: tuple) -> Optional[str]:
    cache_dir = resolve_cache_dir("kernels", override_env=CACHE_DIR_ENV)
    if not cache_dir:
        return None
    token = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:32]
    version = key[2]
    return os.path.join(cache_dir, f"railgraph-kernel-v{version}-{token}.py")


def _disk_read(key: tuple) -> Optional[str]:
    path = _disk_path(key)
    if path is None:
        return None
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return None


def _disk_write(key: tuple, source: str) -> None:
    path = _disk_path(key)
    if path is None:
        return
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(source)
        os.replace(tmp, path)
    except OSError:  # pragma: no cover - cache dir not writable
        pass


def _exec_kernel(source: str, key: tuple, name: str = "_kernel") -> Callable:
    """Compile and execute kernel source, returning its ``name`` def."""
    namespace = {
        "np": np,
        "ElectricalError": ElectricalError,
        "_kernel_inconsistent": _kernel_inconsistent,
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
        source, guard_names = generate_kernel_source(graph, signature)
    except KernelUnsupported as exc:
        _bump("unsupported")
        return CompiledKernel(key=key, source="", fn=None, guard_names=(),
                              failed=True, failure=str(exc))
    fn = None
    chosen = source
    from_disk = False
    disk_source = _disk_read(key)
    if disk_source is not None:
        try:
            fn = _exec_kernel(disk_source, key)
            chosen = disk_source
            from_disk = True
        except Exception:
            fn = None  # corrupt artifact: fall through and regenerate
    if fn is None:
        try:
            fn = _exec_kernel(source, key)
        except Exception as exc:
            _bump("unsupported")
            return CompiledKernel(key=key, source=source, fn=None,
                                  guard_names=guard_names, failed=True,
                                  failure=f"kernel source failed to "
                                          f"compile: {exc}")
    if not from_disk:
        _disk_write(key, chosen)
    _bump("compiles")
    if from_disk:
        _bump("disk_loads")
    return CompiledKernel(key=key, source=chosen, fn=fn,
                          guard_names=guard_names)


def compiled_kernel_for(graph: RailGraph,
                        open_gates=frozenset()) -> CompiledKernel:
    """The cache entry serving a graph under a gate state (compiling it
    on first use).  Diagnostic API: tests and tooling use it to inspect
    source, verification state, and failure reasons.
    """
    gates = _normalize_gate_input(graph, open_gates)
    signature = gate_signature(graph, gates)
    key = (_plan_digest(graph), signature, KERNEL_CODE_VERSION)
    return _KERNELS.get_or_compute(
        key, lambda: _build_kernel(graph, signature, key)
    )


def _bitwise_equal(i_source: np.ndarray, currents: Dict[str, np.ndarray],
                   reference: GraphSolutionBatch) -> bool:
    if i_source.shape != reference.i_source.shape:
        return False
    if i_source.tobytes() != reference.i_source.tobytes():
        return False
    ref_currents = reference.component_i_in
    if list(currents) != list(ref_currents):
        return False
    for name, arr in currents.items():
        ref_arr = np.asarray(ref_currents[name])
        arr = np.asarray(arr)
        if arr.shape != ref_arr.shape:
            return False
        if arr.tobytes() != ref_arr.tobytes():
            return False
    return True


def solve_batch_compiled(graph: RailGraph, v, loads, gates, factors,
                         shape) -> Optional[GraphSolutionBatch]:
    """The compiled fast path behind ``RailGraph.solve_batch``.

    Arguments are the *normalized* batch inputs the interpreted walk
    consumes (broadcast voltage/load arrays, normalized gates and
    degradation factors, the resolved batch shape).  Returns a
    :class:`GraphSolutionBatch`, or ``None`` when the caller must run
    the interpreted walk (disabled converter, unsupported or failed
    kernel, unexpected runtime error — counted in
    :func:`kernel_metrics`).  Out-of-envelope operating points raise the
    stage's scalar :class:`~repro.errors.ElectricalError`, identically
    to the interpreted walk.
    """
    for converter in graph._converters.values():
        # enable()/disable() mutate runtime state the kernels bake in as
        # constants, so any disabled stage routes to the interpreter.
        if not converter.enabled:
            _bump("fallbacks")
            return None
    signature = gate_signature(graph, gates)
    key = (_plan_digest(graph), signature, KERNEL_CODE_VERSION)
    entry = _KERNELS.get_or_compute(
        key, lambda: _build_kernel(graph, signature, key)
    )
    if entry.failed:
        _bump("fallbacks")
        return None
    kernel_loads = {}
    zeros = None
    for channel in graph._taps:
        arr = loads.get(channel)
        if arr is None:
            if zeros is None:
                zeros = np.zeros(shape)
            arr = zeros
        kernel_loads[channel] = arr
    masks = {gate: gates[gate] for gate, state in signature
             if state == GATE_MASK}
    kernel_factors = {
        name: factor for name, factor in factors.items()
        if isinstance(factor, np.ndarray) or factor != 1.0
    }
    guards = tuple(graph._converters[name]._batch_guard
                   for name in entry.guard_names)
    args = (v, kernel_loads, masks, kernel_factors, guards, shape)
    if not entry.verified:
        # First use of this cache entry: run both paths and compare
        # byte-for-byte.  (If the interpreted walk raises, the error
        # propagates — exactly what the caller would have seen — and
        # verification is retried on the next in-envelope call.)
        reference = graph._solve_batch_interpreted(v, loads, gates,
                                                   factors, shape)
        try:
            i_source, currents = entry.fn(*args)
        except Exception:
            entry.failed = True
            entry.failure = ("kernel raised where the interpreted walk "
                             "did not")
            _bump("mismatches")
            return reference
        _bump("verifications")
        if not _bitwise_equal(i_source, currents, reference):
            entry.failed = True
            entry.failure = ("kernel result diverged bitwise from the "
                             "interpreted walk")
            _bump("mismatches")
            return reference
        entry.verified = True
        _bump("kernel_solves")
        return GraphSolutionBatch(
            v_source=v, i_source=i_source,
            component_i_in=FrozenMapping._adopt(currents),
        )
    try:
        i_source, currents = entry.fn(*args)
    except (ElectricalError, ConfigurationError):
        raise
    except Exception:
        entry.failed = True
        entry.failure = "compiled kernel raised an unexpected error"
        _bump("fallbacks")
        return None
    _bump("kernel_solves")
    return GraphSolutionBatch(
        v_source=v, i_source=i_source,
        component_i_in=FrozenMapping._adopt(currents),
    )


# ---------------------------------------------------------------------------
# The specialized whole-call fast path
# ---------------------------------------------------------------------------

#: Per-graph kernel call contexts (entry + bound guard tuple per gate
#: signature).  Keyed weakly so graphs stay collectable, and kept out of
#: graph.__dict__ so graphs stay picklable (kernels are not).
_FAST_CONTEXTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

_F64 = np.dtype(np.float64)
_F64_ZERO = np.float64(0.0)
_NO_MASKS: Dict[str, np.ndarray] = {}


def _fast_context(graph: RailGraph, per_graph: dict, signature: tuple):
    """The ``(entry, guards)`` pair serving ``graph`` under ``signature``."""
    ctx = per_graph.get(signature)
    if ctx is None:
        key = (_plan_digest(graph), signature, KERNEL_CODE_VERSION)
        entry = _KERNELS.get_or_compute(
            key, lambda: _build_kernel(graph, signature, key)
        )
        guards = () if entry.failed else tuple(
            graph._converters[name]._batch_guard
            for name in entry.guard_names
        )
        ctx = (entry, guards)
        per_graph[signature] = ctx
    return ctx


def solve_batch_fast(graph: RailGraph, v_source, loads, open_gates,
                     degradation) -> Optional[GraphSolutionBatch]:
    """Whole-call fast path: raw ``solve_batch`` inputs to a solution.

    The generic prologue in :meth:`RailGraph.solve_batch` spends more
    time normalizing and validating inputs than the interpreted walk
    spends solving (per-channel broadcast + finite/negative array checks
    even for plain-float loads), so a kernel behind that prologue cannot
    win big.  This entry point replays the same normalization for the
    common input shapes — a 1-D float64 voltage axis, float or matching
    1-D float64 loads, frozenset or bool/mask gate mappings, scalar or
    matching-array degradation — with scalar checks where the inputs are
    scalars.  Anything unusual (mismatched shapes, unknown channels or
    gates, out-of-domain values, exotic dtypes, unverified or failed
    kernels, disabled converters) **declines** by returning ``None`` and
    the caller falls through to the generic prologue, which raises
    exactly the errors it always raised or runs the verifying compiled
    path.  Out-of-envelope points raise the stage's scalar
    :class:`~repro.errors.ElectricalError` from inside the kernel,
    identically to the interpreted walk.
    """
    if type(v_source) is not np.ndarray or v_source.ndim != 1 \
            or v_source.dtype != _F64:
        return None
    shape = v_source.shape
    empty = shape[0] == 0
    per_graph = _FAST_CONTEXTS.get(graph)
    if per_graph is None:
        per_graph = {}
        _FAST_CONTEXTS[graph] = per_graph
    taps = graph._taps
    kernel_loads: Dict[str, np.ndarray] = {}
    for channel, amps in loads.items():
        if channel not in taps:
            return None
        kind = type(amps)
        if kind is float or kind is int:
            amps = float(amps)
            # NaN, negatives and +inf all decline so the generic
            # prologue raises its usual ConfigurationError.
            if not 0.0 <= amps < math.inf:
                return None
            # Constant scalar-load arrays recur every sweep step, so
            # they are cached (read-only, like the generic prologue's
            # broadcast views) with a cap against unbounded growth.
            cache_key = ("__load__", channel, amps, shape)
            arr = per_graph.get(cache_key)
            if arr is None:
                arr = np.empty(shape)
                arr.fill(amps)
                arr.flags.writeable = False
                if len(per_graph) < 256:
                    per_graph[cache_key] = arr
            kernel_loads[channel] = arr
        elif kind is np.ndarray:
            if amps.ndim != 1 or amps.shape != shape \
                    or amps.dtype != _F64:
                return None
            if not empty and not (amps.min() >= 0.0
                                  and amps.max() < math.inf):
                return None
            kernel_loads[channel] = amps
        else:
            return None
    if len(kernel_loads) != len(taps):
        zero_key = ("__zero__", shape)
        zero = per_graph.get(zero_key)
        if zero is None:
            zero = np.broadcast_to(_F64_ZERO, shape)
            per_graph[zero_key] = zero
        for channel in taps:
            kernel_loads.setdefault(channel, zero)
    masks = _NO_MASKS
    if isinstance(open_gates, (frozenset, set)):
        # Names absent from the plan are inert for set-style gates in
        # the interpreted walk too, so membership alone decides.
        signature = tuple(
            (gate, GATE_OPEN if gate in open_gates else GATE_CLOSED)
            for gate in graph._gate_names
        )
    elif type(open_gates) is dict:
        gate_set = graph._gate_set
        states: Dict[str, object] = {}
        for gate, state in open_gates.items():
            if gate not in gate_set:
                return None
            if state is True or state is False:
                states[gate] = state
            elif type(state) is np.ndarray and state.ndim == 1 \
                    and state.dtype == np.bool_ and state.shape == shape:
                states[gate] = state
            else:
                return None
        signature_parts = []
        for gate in graph._gate_names:
            state = states.get(gate, False)
            if state is True:
                signature_parts.append((gate, GATE_OPEN))
            elif state is False:
                signature_parts.append((gate, GATE_CLOSED))
            else:
                signature_parts.append((gate, GATE_MASK))
                if masks is _NO_MASKS:
                    masks = {}
                masks[gate] = state
        signature = tuple(signature_parts)
    else:
        return None
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
    for converter in graph._converters.values():
        if not converter.enabled:
            return None
    entry, guards = _fast_context(graph, per_graph, signature)
    if entry.failed or not entry.verified:
        # First use still goes through solve_batch_compiled's bitwise
        # verification against the interpreted walk.
        return None
    try:
        i_source, currents = entry.fn(v_source, kernel_loads, masks,
                                      factors, guards, shape)
    except (ElectricalError, ConfigurationError):
        raise
    except Exception:
        entry.failed = True
        entry.failure = "compiled kernel raised an unexpected error"
        _bump("fallbacks")
        return None
    _bump("kernel_solves")
    return GraphSolutionBatch(
        v_source=v_source, i_source=i_source,
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


@dataclasses.dataclass
class ScalarKernel:
    """A cached scalar kernel and its verification state."""

    key: tuple
    source: str
    fn: Optional[Callable]
    #: True once a call has matched the interpreter bit for bit.
    verified: bool = False
    #: True when retired (unbuildable, or diverged from the interpreter).
    failed: bool = False
    failure: Optional[str] = None


class _ScalarContext:
    """Per-graph state of the scalar path: the graph's converters (whose
    ``enabled`` flags are checked per solve) and its kernels by the
    open-gate set the caller passes."""

    __slots__ = ("converters", "kernels")

    def __init__(self, graph: RailGraph) -> None:
        self.converters = tuple(graph._converters.values())
        self.kernels: Dict[object, ScalarKernel] = {}


#: Weakly keyed by graph like :data:`_FAST_CONTEXTS`, so kernels never
#: land in a graph's pickled state; the kernels themselves live in the
#: content-addressed :data:`_KERNELS`, shared by equal plans.
_SCALAR_CONTEXTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _open_key(graph: RailGraph, open_gates) -> Tuple[str, ...]:
    """The plan's gates that ``open_gates`` opens, in plan order."""
    return tuple(gate for gate in graph._gate_names if gate in open_gates)


def _build_scalar_kernel(graph: RailGraph, open_key: tuple,
                         key: tuple) -> ScalarKernel:
    try:
        source, _ = generate_scalar_kernel_source(graph, open_key)
        fn = _exec_kernel(source, key, name="_scalar")
    except Exception as exc:
        return ScalarKernel(key=key, source="", fn=None, failed=True,
                            failure=f"scalar kernel unavailable: {exc}")
    _bump("scalar_compiles")
    return ScalarKernel(key=key, source=source, fn=fn)


def compiled_scalar_kernel_for(graph: RailGraph,
                               open_gates=frozenset()) -> ScalarKernel:
    """The cache entry serving ``graph`` under ``open_gates`` (built on
    first use).  Diagnostic API, like :func:`compiled_kernel_for`."""
    return _scalar_context_and_kernel(graph, open_gates)[1]


def _scalar_context_and_kernel(graph: RailGraph, open_gates) -> tuple:
    ctx = _SCALAR_CONTEXTS.get(graph)
    if ctx is None:
        ctx = _SCALAR_CONTEXTS[graph] = _ScalarContext(graph)
    try:
        return ctx, ctx.kernels[open_gates]
    except KeyError:
        # Bounded: a caller building a fresh container per call must
        # not grow the table without limit.
        cacheable = len(ctx.kernels) < 64
    except TypeError:  # an unhashable container (a set, a list)
        cacheable = False
    # Membership in the caller's container decides, as in the walk.
    open_key = _open_key(graph, open_gates)
    key = (_plan_digest(graph), open_key, KERNEL_CODE_VERSION, "scalar")
    entry = _KERNELS.get_or_compute(
        key, lambda: _build_scalar_kernel(graph, open_key, key))
    if cacheable:
        ctx.kernels[open_gates] = entry
    return ctx, entry


def _retire(entry: ScalarKernel, failure: str) -> None:
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
    ctx = _SCALAR_CONTEXTS.get(graph)
    try:
        entry = ctx.kernels[open_gates]
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
