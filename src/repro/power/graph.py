"""Declarative rail graphs: power-train topologies as data.

The paper's argument (§4, §7.1) is that the power-interface *topology* —
which converters feed which rails, and where the quiescent losses sit —
decides the 6 µW budget.  This module makes topology a first-class,
serializable value instead of a hand-written ``solve`` body:

* a :class:`RailGraphSpec` is a frozen DAG of typed component specs
  (source, charge pump, SC converter, LDO, shunt, switch, drain, load
  taps), JSON round-trippable via :meth:`RailGraphSpec.to_dict`;
* a :class:`RailGraph` instantiates the converter models of this package
  for each spec and solves the whole graph quasi-statically for any
  ``(v_source, loads)`` point.

The generic solver reproduces the retired hand-written
``CotsPowerTrain.solve`` / ``IcPowerTrain.solve`` bodies **bit-exactly**
(pinned by ``tests/core/test_graph_equivalence.py`` against goldens
captured from the legacy code); the float-level conventions that make
that possible are part of this module's contract:

* branch currents are summed in **declaration order**, accumulating from
  ``0.0`` (IEEE-754: ``0.0 + x == x`` and left-to-right grouping match
  the legacy expressions term for term);
* a cascade solves each stage at its parent's **nominal** output voltage
  (a regulated rail is modelled as stiff — exactly what the legacy
  trains assumed), and a switch passes its input voltage through;
* a component whose ``gate`` is closed contributes only its
  ``i_leak_off`` and its subtree is not descended.

Fault hooks address components by name: ``degradation[name]`` multiplies
that component's solved input current, so an aged converter can be
injected *per stage* rather than train-wide.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Mapping as MappingABC
from typing import (
    ClassVar, Dict, FrozenSet, Iterator, List, Mapping, Optional, Tuple,
    Union,
)

import numpy as np

from ..errors import ConfigurationError
from .charge_pump import RegulatedChargePump
from .base import VoltageRange
from .linear_regulator import LinearRegulator
from .sc_converter import design_for_load
from .shunt_regulator import ShuntRegulator
from .topologies import rail_network

#: The node's subsystem channels, in recorder attribution order.
CHANNELS = ("mcu", "sensor", "radio-digital", "radio-rf")

#: Largest allowed ulp distance between :meth:`RailGraph.solve_batch` and
#: the scalar :meth:`RailGraph.solve` reference, per component current.
#: The batched path mirrors the scalar expressions operation for
#: operation, but numpy may square via multiplication where CPython calls
#: ``pow`` — at most a correctly-rounded-result-vs-correctly-rounded-
#: result difference.  ``tests/power/test_graph_batch.py`` enforces this
#: budget over every registered topology; the 440 float-hex goldens pin
#: the scalar solver itself.
ULP_BUDGET = 4

_COMPILE_MODULE = None


def _compile_module():
    """Lazy accessor for :mod:`repro.power.compile`.

    That module imports this one for the graph types, so the dependency
    must resolve at first solve, not at import; caching the module in a
    global keeps the per-call cost of the compiled fast path to one
    function call.
    """
    global _COMPILE_MODULE
    if _COMPILE_MODULE is None:
        from . import compile as module
        _COMPILE_MODULE = module
    return _COMPILE_MODULE


# ---------------------------------------------------------------------------
# Component specs (frozen, serializable)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SourceSpec:
    """The graph's single energy source (the battery terminal)."""

    kind: ClassVar[str] = "source"

    name: str


@dataclasses.dataclass(frozen=True)
class ComponentSpec:
    """Common shape of every non-source component: a name and a parent."""

    name: str
    parent: str


@dataclasses.dataclass(frozen=True)
class ChargePumpSpec(ComponentSpec):
    """A gain-hopping regulated charge pump (TPS60313 class)."""

    kind: ClassVar[str] = "charge-pump"

    v_out: float = 2.2
    gains: Tuple[float, ...] = (1.5, 2.0)
    i_quiescent: float = 28e-6
    i_snooze: float = 1.0e-6
    snooze_load_threshold: float = 2e-3
    v_in_min: float = 0.9
    v_in_max: float = 1.8
    headroom: float = 0.05
    gate: Optional[str] = None
    i_leak_off: float = 0.0


@dataclasses.dataclass(frozen=True)
class ScConverterSpec(ComponentSpec):
    """A switched-capacitor converter sized by :func:`design_for_load`.

    ``network`` names a canonical two-phase network in
    :func:`repro.power.topologies.rail_network`; the device budgets are
    derived deterministically from the sizing parameters, so equal specs
    always build bit-identical converters.
    """

    kind: ClassVar[str] = "sc-converter"

    network: str = "doubler"
    v_in_design: float = 1.1
    v_out: float = 2.1
    i_load_max: float = 2e-3
    f_max: float = 20e6
    margin: float = 1.3
    fsl_fraction: float = 0.4
    tau_gate: float = 1.5e-12
    alpha_bottom_plate: float = 0.0015
    i_controller: float = 0.35e-6
    gate: Optional[str] = None
    i_leak_off: float = 0.0


@dataclasses.dataclass(frozen=True)
class LdoSpec(ComponentSpec):
    """A low-dropout linear regulator (LT3020 class / IC post-reg)."""

    kind: ClassVar[str] = "ldo"

    v_out: float = 0.65
    dropout: float = 0.15
    i_ground: float = 1.0e-6
    i_shutdown: float = 0.0
    i_max: float = 10e-3
    gate: Optional[str] = None
    i_leak_off: float = 0.0


@dataclasses.dataclass(frozen=True)
class ShuntSpec(ComponentSpec):
    """A series-resistor + shunt-clamp regulator (the 1.0 V logic rail)."""

    kind: ClassVar[str] = "shunt"

    v_out: float = 1.0
    r_series: float = 8.2e3
    i_bias_min: float = 10e-6
    gate: Optional[str] = None
    i_leak_off: float = 0.0


@dataclasses.dataclass(frozen=True)
class SwitchSpec(ComponentSpec):
    """A power-gating switch: passes its input voltage and current through.

    While its gate is open (conducting) the switch is electrically
    transparent at the quasi-static level — exactly how the legacy COTS
    solve treated the LDO input switch; while closed it contributes only
    ``i_leak_off`` to its parent.
    """

    kind: ClassVar[str] = "switch"

    gate: Optional[str] = None
    i_leak_off: float = 1e-9


@dataclasses.dataclass(frozen=True)
class DrainSpec(ComponentSpec):
    """A constant standing draw with named contributions (leakage, refs).

    ``contributions`` is an ordered tuple of ``(label, amperes)`` pairs
    summed left-to-right — one drain with three contributions reproduces
    the legacy ``(pad + ref) + bandgap`` float grouping, which three
    separate drains would not.
    """

    kind: ClassVar[str] = "drain"

    contributions: Tuple[Tuple[str, float], ...] = ()
    gate: Optional[str] = None
    i_leak_off: float = 0.0

    def total(self) -> float:
        """The summed standing current, amperes."""
        i_total = 0.0
        for _, amps in self.contributions:
            i_total = i_total + amps
        return i_total


@dataclasses.dataclass(frozen=True)
class LoadTapSpec(ComponentSpec):
    """Where a subsystem channel draws its current from the graph.

    ``v_rail`` is the delivery voltage used for the channel's
    attribution (``p = v_rail * i_load``); it must equal the parent
    rail's nominal output.
    """

    kind: ClassVar[str] = "load-tap"

    channel: str = "mcu"
    v_rail: float = 2.2


_COMPONENT_KINDS = {
    cls.kind: cls
    for cls in (
        SourceSpec, ChargePumpSpec, ScConverterSpec, LdoSpec, ShuntSpec,
        SwitchSpec, DrainSpec, LoadTapSpec,
    )
}

#: Kinds that may carry children (everything but taps and drains).
_RAIL_KINDS = ("source", "charge-pump", "sc-converter", "ldo", "shunt",
               "switch")


def component_to_dict(component) -> Dict:
    """Serialize one component spec to a JSON-compatible dict."""
    payload: Dict = {"kind": component.kind}
    for field in dataclasses.fields(component):
        value = getattr(component, field.name)
        if isinstance(value, tuple):
            value = [list(item) if isinstance(item, tuple) else item
                     for item in value]
        payload[field.name] = value
    return payload


def component_from_dict(payload: Mapping):
    """Rebuild a component spec from :func:`component_to_dict` output."""
    data = dict(payload)
    kind = data.pop("kind", None)
    cls = _COMPONENT_KINDS.get(kind)
    if cls is None:
        raise ConfigurationError(
            f"unknown rail component kind {kind!r}; valid kinds: "
            f"{', '.join(sorted(_COMPONENT_KINDS))}"
        )
    for field in dataclasses.fields(cls):
        value = data.get(field.name)
        if isinstance(value, list):
            data[field.name] = tuple(
                tuple(item) if isinstance(item, list) else item
                for item in value
            )
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigurationError(
            f"bad fields for rail component kind {kind!r}: {exc}"
        ) from None


# ---------------------------------------------------------------------------
# The graph spec
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RailGraphSpec:
    """A frozen, validated power-train topology.

    ``components[0]`` must be the single :class:`SourceSpec`; every other
    component's ``parent`` must name an earlier rail-carrying component
    (declaration order doubles as the deterministic solve order), and
    each of the four subsystem :data:`CHANNELS` must be tapped exactly
    once so any registered topology can power a full node.
    """

    name: str
    description: str
    components: Tuple = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("rail graph needs a non-empty name")
        if not self.components or not isinstance(
            self.components[0], SourceSpec
        ):
            raise ConfigurationError(
                f"{self.name}: components must start with the SourceSpec"
            )
        seen: Dict[str, object] = {}
        channels: List[str] = []
        for index, comp in enumerate(self.components):
            if index > 0 and isinstance(comp, SourceSpec):
                raise ConfigurationError(
                    f"{self.name}: more than one source ({comp.name!r})"
                )
            if not comp.name:
                raise ConfigurationError(
                    f"{self.name}: component #{index} has an empty name"
                )
            if comp.name in seen:
                raise ConfigurationError(
                    f"{self.name}: duplicate component name {comp.name!r}"
                )
            if index > 0:
                parent = seen.get(comp.parent)
                if parent is None:
                    raise ConfigurationError(
                        f"{self.name}: {comp.name!r} parent "
                        f"{comp.parent!r} is not an earlier component"
                    )
                if parent.kind not in _RAIL_KINDS:
                    raise ConfigurationError(
                        f"{self.name}: {comp.name!r} hangs off "
                        f"{comp.parent!r} ({parent.kind}), which carries "
                        f"no rail"
                    )
            if isinstance(comp, LoadTapSpec):
                if comp.channel not in CHANNELS:
                    raise ConfigurationError(
                        f"{self.name}: {comp.name!r} taps unknown channel "
                        f"{comp.channel!r}; channels: {', '.join(CHANNELS)}"
                    )
                channels.append(comp.channel)
            if isinstance(comp, DrainSpec):
                for label, amps in comp.contributions:
                    if not label or amps < 0.0 or not math.isfinite(amps):
                        raise ConfigurationError(
                            f"{self.name}: drain {comp.name!r} has a bad "
                            f"contribution ({label!r}, {amps!r})"
                        )
            seen[comp.name] = comp
        for channel in CHANNELS:
            count = channels.count(channel)
            if count != 1:
                raise ConfigurationError(
                    f"{self.name}: channel {channel!r} must be tapped "
                    f"exactly once, found {count} taps"
                )

    @property
    def source(self) -> SourceSpec:
        """The graph's energy source."""
        return self.components[0]

    def gate_names(self) -> Tuple[str, ...]:
        """Gate groups in first-appearance order."""
        names: List[str] = []
        for comp in self.components[1:]:
            gate = getattr(comp, "gate", None)
            if gate and gate not in names:
                names.append(gate)
        return tuple(names)

    def tap(self, channel: str) -> LoadTapSpec:
        """The load tap serving ``channel``."""
        for comp in self.components:
            if isinstance(comp, LoadTapSpec) and comp.channel == channel:
                return comp
        raise ConfigurationError(
            f"{self.name}: no load tap for channel {channel!r}"
        )

    def to_dict(self) -> Dict:
        """JSON-compatible serialization (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "description": self.description,
            "components": [component_to_dict(c) for c in self.components],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RailGraphSpec":
        """Rebuild a validated spec from :meth:`to_dict` output."""
        return cls(
            name=payload["name"],
            description=payload.get("description", ""),
            components=tuple(
                component_from_dict(c) for c in payload["components"]
            ),
        )


# ---------------------------------------------------------------------------
# The runtime graph and its solver
# ---------------------------------------------------------------------------


class FrozenMapping(MappingABC):
    """An immutable, insertion-ordered, picklable mapping.

    :attr:`GraphSolution.component_i_in` is shared through memo caches, so
    handing callers a plain ``dict`` would let any of them corrupt every
    later reader.  ``types.MappingProxyType`` would also freeze it but
    cannot cross a process-pool boundary; this tuple-reducible wrapper
    pickles fine.
    """

    __slots__ = ("_data",)

    def __init__(self, data: Union[Mapping, Tuple, List] = ()) -> None:
        self._data = dict(data)

    @classmethod
    def _adopt(cls, data: Dict) -> "FrozenMapping":
        """Wrap ``data`` without copying (caller must drop its reference)."""
        self = cls.__new__(cls)
        self._data = data
        return self

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self) -> Iterator:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __eq__(self, other) -> bool:
        if isinstance(other, FrozenMapping):
            return self._data == other._data
        if isinstance(other, (dict, MappingABC)):
            return self._data == dict(other)
        return NotImplemented

    __hash__ = None  # mutable values (arrays) may live inside

    def __reduce__(self):
        return (FrozenMapping, (tuple(self._data.items()),))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FrozenMapping({self._data!r})"


@dataclasses.dataclass(frozen=True)
class GraphSolution:
    """One quasi-static solve of a rail graph."""

    v_source: float
    i_source: float
    #: Input-side current contributed by every component, by name (after
    #: any per-component degradation; gated-off components show leakage).
    #: Immutable: solutions are shared through memo caches.
    component_i_in: Mapping[str, float]

    @property
    def p_source(self) -> float:
        """Total power leaving the source, watts."""
        return self.v_source * self.i_source


@dataclasses.dataclass(frozen=True, eq=False)
class GraphSolutionBatch:
    """A vectorized solve of one rail graph over a batch of points.

    Shapes are ``(n,)`` along the batch axis.  Values agree with the
    scalar :class:`GraphSolution` reference within :data:`ULP_BUDGET`
    ulps per component; where a per-point gate mask closes a subtree, the
    descendants' entries in :attr:`component_i_in` are meaningful only at
    the points where the gate is open.
    """

    v_source: np.ndarray
    i_source: np.ndarray
    #: Input-side current array per component (immutable mapping; the
    #: arrays themselves must be treated as read-only).
    component_i_in: Mapping[str, np.ndarray]

    @property
    def p_source(self) -> np.ndarray:
        """Per-point power leaving the source, watts."""
        return self.v_source * self.i_source

    def __len__(self) -> int:
        return int(self.i_source.shape[0])

    def point(self, index: int) -> GraphSolution:
        """The scalar :class:`GraphSolution` view of one batch point."""
        return GraphSolution(
            v_source=float(self.v_source[index]),
            i_source=float(self.i_source[index]),
            component_i_in=FrozenMapping._adopt({
                name: float(arr[index])
                for name, arr in self.component_i_in.items()
            }),
        )


class RailGraph:
    """Executable form of a :class:`RailGraphSpec`.

    Builds one converter model per component spec (deterministically —
    equal specs give bit-identical converters) and walks the DAG on each
    :meth:`solve`.
    """

    #: Dispatch tags for the precomputed solve plan.
    _TAP, _DRAIN, _SWITCH, _CONVERT = range(4)

    def __init__(self, spec: RailGraphSpec) -> None:
        self.spec = spec
        self._children: Dict[str, List[ComponentSpec]] = {
            comp.name: [] for comp in spec.components
        }
        for comp in spec.components[1:]:
            self._children[comp.parent].append(comp)
        self._taps: Dict[str, LoadTapSpec] = {
            comp.channel: comp
            for comp in spec.components
            if isinstance(comp, LoadTapSpec)
        }
        self._converters: Dict[str, object] = {}
        for comp in spec.components:
            converter = self._build(comp)
            if converter is not None:
                self._converters[comp.name] = converter
        # Solve runs at every load-changing event, so the walk dispatches
        # on a prebuilt plan (drain totals and tap voltages included)
        # rather than re-inspecting specs; the arithmetic is unchanged.
        self._tap_v: Dict[str, float] = {
            channel: tap.v_rail for channel, tap in self._taps.items()
        }
        self._child_names: Dict[str, Tuple[str, ...]] = {
            name: tuple(child.name for child in kids)
            for name, kids in self._children.items()
        }
        self._plan: Dict[str, tuple] = {}
        for comp in spec.components[1:]:
            if isinstance(comp, LoadTapSpec):
                entry = (self._TAP, comp.channel)
            elif isinstance(comp, DrainSpec):
                entry = (self._DRAIN, comp.total())
            elif isinstance(comp, SwitchSpec):
                entry = (self._SWITCH, None)
            else:
                entry = (self._CONVERT,
                         (comp.v_out, self._converters[comp.name]))
            self._plan[comp.name] = (
                getattr(comp, "gate", None),
                getattr(comp, "i_leak_off", 0.0),
                entry,
            )
        self._component_set = frozenset(
            comp.name for comp in spec.components
        )
        self._gate_names = spec.gate_names()
        self._gate_set = frozenset(self._gate_names)
        # Content hash of the plan, computed lazily by the kernel
        # compiler (repro.power.compile) and cached here; plain string,
        # so graphs stay picklable.
        self._kernel_plan_digest: Optional[str] = None

    @staticmethod
    def _build(comp):
        if isinstance(comp, ChargePumpSpec):
            return RegulatedChargePump(
                comp.name,
                v_out=comp.v_out,
                gains=comp.gains,
                i_quiescent=comp.i_quiescent,
                i_snooze=comp.i_snooze,
                snooze_load_threshold=comp.snooze_load_threshold,
                input_range=VoltageRange(
                    comp.v_in_min, comp.v_in_max, owner=comp.name
                ),
                headroom=comp.headroom,
            )
        if isinstance(comp, ScConverterSpec):
            return design_for_load(
                comp.name,
                rail_network(comp.network),
                v_in=comp.v_in_design,
                v_target=comp.v_out,
                i_load_max=comp.i_load_max,
                f_max=comp.f_max,
                margin=comp.margin,
                fsl_fraction=comp.fsl_fraction,
                tau_gate=comp.tau_gate,
                alpha_bottom_plate=comp.alpha_bottom_plate,
                i_controller=comp.i_controller,
                i_leak_off=comp.i_leak_off,
            )
        if isinstance(comp, LdoSpec):
            return LinearRegulator(
                comp.name,
                v_out=comp.v_out,
                dropout=comp.dropout,
                i_ground=comp.i_ground,
                i_shutdown=comp.i_shutdown,
                i_max=comp.i_max,
            )
        if isinstance(comp, ShuntSpec):
            return ShuntRegulator(
                comp.name,
                v_out=comp.v_out,
                r_series=comp.r_series,
                i_bias_min=comp.i_bias_min,
            )
        return None

    # -- inspection --------------------------------------------------------

    def tap_voltage(self, channel: str) -> float:
        """Nominal delivery voltage of a subsystem channel."""
        try:
            return self._tap_v[channel]
        except KeyError:
            raise ConfigurationError(
                f"{self.spec.name}: no load tap for channel {channel!r}"
            ) from None

    def component(self, name: str):
        """The underlying converter model for ``name`` (None for leaves)."""
        return self._converters.get(name)

    def component_names(self) -> Tuple[str, ...]:
        """All component names in declaration (solve) order."""
        return tuple(comp.name for comp in self.spec.components)

    def describe(self) -> str:
        """A deterministic text rendering of the topology tree."""
        lines = [f"{self.spec.name}: {self.spec.description}"]

        def visit(comp, depth: int) -> None:
            lines.append(f"{'  ' * depth}- {self._label(comp)}")
            for child in self._children[comp.name]:
                visit(child, depth + 1)

        visit(self.spec.source, 0)
        return "\n".join(lines)

    @staticmethod
    def _label(comp) -> str:
        gate = getattr(comp, "gate", None)
        gated = f", gate={gate}" if gate else ""
        if isinstance(comp, SourceSpec):
            return f"{comp.name} (source)"
        if isinstance(comp, LoadTapSpec):
            return (f"{comp.name} (load-tap: {comp.channel} @ "
                    f"{comp.v_rail} V)")
        if isinstance(comp, DrainSpec):
            labels = ", ".join(label for label, _ in comp.contributions)
            return f"{comp.name} (drain: {labels}{gated})"
        if isinstance(comp, SwitchSpec):
            return f"{comp.name} (switch{gated})"
        return f"{comp.name} ({comp.kind} -> {comp.v_out} V{gated})"

    # -- solving -----------------------------------------------------------

    def solve(
        self,
        v_source: float,
        loads: Mapping[str, float],
        open_gates: FrozenSet[str] = frozenset(),
        degradation: Optional[Mapping[str, float]] = None,
    ) -> GraphSolution:
        """Quasi-static source current for one operating point.

        ``loads`` maps channel names to amperes (missing channels draw
        zero); ``open_gates`` lists the gate groups currently conducting;
        ``degradation`` multiplies named components' input currents (its
        keys must name graph components).  Raises
        :class:`~repro.errors.ElectricalError` (from the component
        models) when any stage is out of its operating envelope.

        The solve runs through a straight-line kernel compiled from the
        plan (:func:`repro.power.compile.solve_scalar`), checked bit for
        bit against the interpreted walk on first use; the walk
        (:meth:`_solve_interpreted`) stays the reference and raises
        every error.
        """
        taps = self._taps
        for channel in loads:
            if channel not in taps:
                return self._solve_interpreted(v_source, loads, open_gates,
                                               degradation)
        get = loads.get
        i_source, currents, names = _compile_module().solve_scalar(
            self, v_source, get("mcu", 0.0), get("sensor", 0.0),
            get("radio-digital", 0.0), get("radio-rf", 0.0), open_gates,
            degradation, loads,
        )
        return GraphSolution(
            v_source=v_source, i_source=i_source,
            component_i_in=FrozenMapping._adopt(dict(zip(names, currents))),
        )

    def _solve_interpreted(
        self,
        v_source: float,
        loads: Mapping[str, float],
        open_gates: FrozenSet[str] = frozenset(),
        degradation: Optional[Mapping[str, float]] = None,
    ) -> GraphSolution:
        """The plan-walking solve: the scalar kernels' reference."""
        for channel, amps in loads.items():
            if channel not in self._taps:
                raise ConfigurationError(
                    f"{self.spec.name}: load on untapped channel "
                    f"{channel!r}"
                )
            if not math.isfinite(amps) or amps < 0.0:
                raise ConfigurationError(
                    f"{self.spec.name}: load {channel!r} must be finite "
                    f"and >= 0, got {amps!r}"
                )
        degradation = degradation or {}
        if degradation:
            self._check_degradation_keys(degradation)
        currents: Dict[str, float] = {}
        i_source = 0.0
        for child in self._child_names[self.spec.source.name]:
            i_source = i_source + self._branch(
                child, v_source, loads, open_gates, degradation, currents
            )
        return GraphSolution(
            v_source=v_source, i_source=i_source,
            component_i_in=FrozenMapping._adopt(currents),
        )

    def _check_degradation_keys(self, degradation: Mapping) -> None:
        """Reject degradation entries that name no graph component.

        Mirrors ``GraphPowerTrain.set_component_degradation``: a typo'd
        component name must raise, not silently no-op.
        """
        for name in degradation:
            if name not in self._component_set:
                raise ConfigurationError(
                    f"{self.spec.name}: no component {name!r} to degrade; "
                    f"components: {', '.join(self.component_names())}"
                )

    def _branch(self, name, v_in, loads, open_gates, degradation,
                currents) -> float:
        gate, leak, (tag, arg) = self._plan[name]
        if gate is not None and gate not in open_gates:
            i_in = leak
        elif tag == self._TAP:
            i_in = loads.get(arg, 0.0)
        elif tag == self._DRAIN:
            i_in = arg
        elif tag == self._SWITCH:
            i_in = self._child_sum(name, v_in, loads, open_gates,
                                   degradation, currents)
        else:
            v_out, converter = arg
            i_load = self._child_sum(name, v_out, loads, open_gates,
                                     degradation, currents)
            i_in = converter.solve(v_in, i_load).i_in
        factor = degradation.get(name, 1.0)
        if factor != 1.0:
            i_in = i_in * factor
        currents[name] = i_in
        return i_in

    def _child_sum(self, name, v_rail, loads, open_gates, degradation,
                   currents) -> float:
        i_load = 0.0
        for child in self._child_names[name]:
            i_load = i_load + self._branch(
                child, v_rail, loads, open_gates, degradation, currents
            )
        return i_load

    # -- batched solving ---------------------------------------------------

    def solve_batch(
        self,
        v_source,
        loads: Mapping,
        open_gates: Union[FrozenSet[str], Mapping] = frozenset(),
        degradation: Optional[Mapping] = None,
        compiled: bool = True,
    ) -> GraphSolutionBatch:
        """Vectorized :meth:`solve` over a batch of operating points.

        The precomputed dispatch plan is executed **once per component**
        over the whole batch instead of once per point, so a sweep over
        thousands of (loads, degradation, voltage) points pays component
        arithmetic, not Python walk overhead.  Inputs broadcast along one
        batch axis:

        * ``v_source`` — scalar or ``(n,)`` array of source voltages;
        * ``loads`` — channel name to scalar or ``(n,)`` amperes;
        * ``open_gates`` — either a frozenset of gate names conducting at
          every point (the scalar semantics), or a mapping of gate name
          to a boolean scalar / ``(n,)`` mask for per-point gating;
        * ``degradation`` — component name to a scalar or ``(n,)``
          multiplier.

        With ``compiled=True`` (the default) the solve runs through a
        fused straight-line kernel generated from the dispatch plan by
        :mod:`repro.power.compile` — bitwise-identical to the
        interpreted walk, falling back to it automatically (see that
        module's metrics) — so callers opt *out* with
        ``compiled=False`` rather than in.

        The scalar solver stays the bit-exact reference: batched results
        agree with a loop of :meth:`solve` calls within
        :data:`ULP_BUDGET` ulps per component current.  If any batch
        point is outside a component's operating envelope the component's
        scalar :class:`~repro.errors.ElectricalError` is raised for the
        lowest-index failing point of the first failing component in
        walk order (a scalar loop would raise for the lowest failing
        *point* instead; the error set is the same).
        """
        if compiled:
            # Common input shapes skip the generic prologue entirely:
            # the specialized path declines (returns None) on anything
            # it does not model, falling through to the full
            # normalization below with identical error behavior.
            result = _compile_module().solve_batch_fast(
                self, v_source, loads, open_gates, degradation
            )
            if result is not None:
                return result
        v = np.asarray(v_source, dtype=np.float64)
        if v.ndim > 1:
            raise ConfigurationError(
                f"{self.spec.name}: v_source must be a scalar or a 1-D "
                f"batch, got shape {v.shape}"
            )
        load_arrays: Dict[str, np.ndarray] = {}
        shapes = [v.shape]
        for channel, amps in loads.items():
            if channel not in self._taps:
                raise ConfigurationError(
                    f"{self.spec.name}: load on untapped channel "
                    f"{channel!r}"
                )
            arr = np.asarray(amps, dtype=np.float64)
            if arr.ndim > 1:
                raise ConfigurationError(
                    f"{self.spec.name}: load {channel!r} must be a scalar "
                    f"or a 1-D batch, got shape {arr.shape}"
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
                f"{self.spec.name}: batch inputs do not broadcast: "
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
                    f"{self.spec.name}: load {channel!r} must be finite "
                    f"and >= 0, got {float(arr[index])!r} at batch point "
                    f"{index}"
                )
            load_arrays[channel] = arr
        gates = self._normalize_gates(open_gates, shape)
        factors = self._normalize_degradation(degradation, shape)
        if compiled:
            result = _compile_module().solve_batch_compiled(
                self, v, load_arrays, gates, factors, shape
            )
            if result is not None:
                return result
        return self._solve_batch_interpreted(v, load_arrays, gates,
                                             factors, shape)

    def _solve_batch_interpreted(self, v, load_arrays, gates, factors,
                                 shape) -> GraphSolutionBatch:
        """The plan-walking batch path: the compiled kernels' reference.

        The batch shape is resolved once by :meth:`solve_batch` and
        threaded through the walk (with one shared zeros seed) instead
        of being re-derived from every input per component.
        """
        zeros = np.zeros(shape)
        currents: Dict[str, np.ndarray] = {}
        i_source = zeros
        for child in self._child_names[self.spec.source.name]:
            i_source = i_source + self._branch_batch(
                child, v, load_arrays, gates, factors, currents, None,
                shape, zeros
            )
        return GraphSolutionBatch(
            v_source=v, i_source=i_source,
            component_i_in=FrozenMapping._adopt(currents),
        )

    def _normalize_gates(self, open_gates, shape) -> Dict[str, object]:
        """Gate name -> bool (uniform) or boolean ``(n,)`` mask."""
        if not isinstance(open_gates, MappingABC):
            return {gate: True for gate in open_gates}
        gates: Dict[str, object] = {}
        for gate, state in open_gates.items():
            if gate not in self._gate_set:
                raise ConfigurationError(
                    f"{self.spec.name}: no gate group {gate!r}; gates: "
                    f"{', '.join(self.spec.gate_names()) or '(none)'}"
                )
            arr = np.asarray(state)
            if arr.ndim == 0:
                gates[gate] = bool(arr)
            else:
                gates[gate] = np.broadcast_to(arr.astype(bool), shape)
        return gates

    def _normalize_degradation(self, degradation, shape) -> Dict[str, object]:
        """Component name -> scalar factor or ``(n,)`` multiplier array."""
        if not degradation:
            return {}
        self._check_degradation_keys(degradation)
        factors: Dict[str, object] = {}
        for name, factor in degradation.items():
            arr = np.asarray(factor, dtype=np.float64)
            if arr.ndim == 0:
                factors[name] = float(arr)
            else:
                factors[name] = np.broadcast_to(arr, shape)
        return factors

    def _branch_batch(self, name, v_in, loads, gates, degradation,
                      currents, active, shape, zeros) -> np.ndarray:
        gate, leak, (tag, arg) = self._plan[name]
        mask = None
        closed = False
        if gate is not None:
            state = gates.get(gate, False)
            if state is False:
                closed = True
            elif state is not True:
                mask = state
        if closed:
            i_in = np.full(shape, leak)
        else:
            child_active = active
            if mask is not None:
                child_active = mask if active is None else (active & mask)
            if tag == self._TAP:
                i_in = loads.get(arg)
                if i_in is None:
                    i_in = zeros
            elif tag == self._DRAIN:
                i_in = np.full(shape, arg)
            elif tag == self._SWITCH:
                i_in = self._child_sum_batch(name, v_in, loads, gates,
                                             degradation, currents,
                                             child_active, shape, zeros)
            else:
                v_out, converter = arg
                v_rail = np.broadcast_to(np.float64(v_out), shape)
                i_load = self._child_sum_batch(name, v_rail, loads, gates,
                                               degradation, currents,
                                               child_active, shape, zeros)
                i_in = converter.solve_batch(v_in, i_load,
                                             active=child_active)
            if mask is not None:
                i_in = np.where(mask, i_in, leak)
        factor = degradation.get(name, 1.0)
        if isinstance(factor, np.ndarray) or factor != 1.0:
            i_in = i_in * factor
        currents[name] = i_in
        return i_in

    def _child_sum_batch(self, name, v_rail, loads, gates, degradation,
                         currents, active, shape, zeros) -> np.ndarray:
        i_load = zeros
        for child in self._child_names[name]:
            i_load = i_load + self._branch_batch(
                child, v_rail, loads, gates, degradation, currents,
                active, shape, zeros
            )
        return i_load

    def quiescent_current(self, v_source: float) -> float:
        """Standing source draw with zero loads and every gate closed."""
        return self.solve(v_source, {}).i_source
