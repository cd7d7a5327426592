"""Power trains: declarative rail graphs behind the node's solve API.

The node needs (paper §4.3): 2.1-3.6 V always-on for the microcontroller
and sensor, 1.0 V gated for the radio digital logic, and a quiet 0.65 V
gated for the radio RF section.  Which converters provide those rails —
and where the quiescent losses sit — is a *topology*, and topologies are
data here: frozen :class:`~repro.power.graph.RailGraphSpec` values in the
:mod:`repro.power.rail_topologies` registry, solved by the generic
:class:`~repro.power.graph.RailGraph` walker.

:class:`GraphPowerTrain` adapts any registered spec to the node-facing
:class:`PowerTrain` interface; :class:`CotsPowerTrain` (paper §4) and
:class:`IcPowerTrain` (paper §7.1) are thin subclasses that keep their
historical constructor parameters and hardware-sequencing attributes.
Their solves are **bit-identical** to the retired hand-written bodies
(``tests/core/test_graph_equivalence.py`` pins every field to goldens
captured from the legacy code).

Attribution convention: subsystem channels record ``v_rail * i_load``;
everything else the battery delivers is power management — the quantity
the paper says dominates the 6 uW budget.
"""

from __future__ import annotations

import abc
import dataclasses
import math
from typing import Dict, Optional

import numpy as np

from ..errors import ConfigurationError, ElectricalError
from ..power import ConverterIC, ConverterICConfig, PowerSwitch
from ..power.compile import solve_scalar
from ..power.graph import (
    CHANNELS,
    GraphSolution,
    GraphSolutionBatch,
    RailGraph,
    RailGraphSpec,
)
from ..power.rail_topologies import (
    RADIO_GATE,
    V_RADIO_DIGITAL,
    V_RADIO_RF,
    cots_spec,
    get_rail_spec,
    ic_spec,
)

__all__ = [
    "V_RADIO_DIGITAL",
    "V_RADIO_RF",
    "LoadState",
    "TrainSolution",
    "PowerTrain",
    "GraphPowerTrain",
    "CotsPowerTrain",
    "IcPowerTrain",
    "make_power_train",
]


@dataclasses.dataclass(frozen=True)
class LoadState:
    """Instantaneous load currents of the node's subsystems, amperes."""

    i_mcu: float = 0.0
    i_sensor: float = 0.0
    i_radio_digital: float = 0.0
    i_radio_rf: float = 0.0

    def __post_init__(self) -> None:
        for name in _LOAD_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"{name} must be finite, got {value!r}"
                )
            if value < 0.0:
                raise ConfigurationError(f"{name} must be >= 0")


#: LoadState's field names, in declaration order: the per-construction
#: check iterates this instead of calling ``dataclasses.fields``.
_LOAD_FIELDS = tuple(field.name for field in dataclasses.fields(LoadState))


@dataclasses.dataclass(frozen=True)
class TrainSolution:
    """Battery-side result of solving the power train."""

    v_battery: float
    i_battery: float
    v_mcu_rail: float
    subsystem_power: Dict[str, float]

    @property
    def p_battery(self) -> float:
        """Total power leaving the battery, watts."""
        return self.v_battery * self.i_battery

    @property
    def p_management(self) -> float:
        """Power-management overhead: battery power minus delivered power."""
        return max(self.p_battery - sum(self.subsystem_power.values()), 0.0)


class PowerTrain(abc.ABC):
    """Common interface of every power-train implementation."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.radio_enabled = False
        self._loss_factor = 1.0

    @abc.abstractmethod
    def solve(self, v_battery: float, loads: LoadState) -> TrainSolution:
        """Quasi-static battery draw for a load state."""

    @property
    def loss_factor(self) -> float:
        """Battery-current multiplier modelling converter degradation."""
        return self._loss_factor

    def set_degradation(self, loss_factor: float) -> None:
        """Derate conversion efficiency (fault injection: aged converters).

        ``loss_factor`` multiplies the battery-side current of every
        solve: the rails still deliver their nominal power, but the train
        burns more getting there — the extra shows up on the
        ``power-management`` channel, where the paper says the budget is
        won or lost.  ``1.0`` restores the healthy train.
        """
        if loss_factor < 1.0:
            raise ConfigurationError(
                f"{self.name}: degradation loss factor must be >= 1, "
                f"got {loss_factor}"
            )
        self._loss_factor = loss_factor

    @abc.abstractmethod
    def mcu_rail_voltage(self) -> float:
        """The always-on logic rail voltage."""

    def enable_radio(self) -> None:
        """Power up the gated radio supplies (before a transmission)."""
        self.radio_enabled = True

    def disable_radio(self) -> None:
        """Gate the radio supplies off (after a transmission)."""
        self.radio_enabled = False

    def _check_radio_load(self, loads: LoadState) -> None:
        if not self.radio_enabled and (
            loads.i_radio_digital > 0.0 or loads.i_radio_rf > 0.0
        ):
            raise ElectricalError(
                f"{self.name}: radio load with its supplies gated off"
            )


class GraphPowerTrain(PowerTrain):
    """Any registered rail-graph topology, behind the node's train API.

    ``enable_radio`` opens the spec's ``'radio'`` gate group (other gate
    groups, if a topology defines them, are driven via
    :meth:`set_gate`).  Fault injection can address the whole train
    (:meth:`set_degradation`, inherited) or one component by name
    (:meth:`set_component_degradation`).
    """

    def __init__(self, spec: RailGraphSpec) -> None:
        super().__init__(spec.name)
        self.spec = spec
        self.graph = RailGraph(spec)
        self._tap_voltages = tuple(
            self.graph.tap_voltage(channel) for channel in CHANNELS
        )
        self._open_gates: frozenset = frozenset()
        self._component_degradations: Dict[str, float] = {}

    def mcu_rail_voltage(self) -> float:
        return self.graph.tap_voltage("mcu")

    def enable_radio(self) -> None:
        self.set_gate(RADIO_GATE, True)
        super().enable_radio()

    def disable_radio(self) -> None:
        self.set_gate(RADIO_GATE, False)
        super().disable_radio()

    def set_gate(self, gate: str, conducting: bool) -> None:
        """Open or close one of the spec's gate groups by name."""
        if conducting:
            self._open_gates = self._open_gates | {gate}
        else:
            self._open_gates = self._open_gates - {gate}

    def set_component_degradation(self, name: str, factor: float) -> None:
        """Degrade one graph component: its solved input current is
        multiplied by ``factor`` (>= 1; ``1.0`` heals it).  Unlike the
        train-wide :meth:`set_degradation`, a degraded mid-graph stage
        also inflates the load its upstream converter must carry.
        """
        if name not in self.graph.component_names():
            raise ConfigurationError(
                f"{self.name}: no component {name!r}; components: "
                f"{', '.join(self.graph.component_names())}"
            )
        if factor < 1.0:
            raise ConfigurationError(
                f"{self.name}: degradation factor for {name!r} must be "
                f">= 1, got {factor}"
            )
        if factor == 1.0:
            self._component_degradations.pop(name, None)
        else:
            self._component_degradations[name] = factor

    def component_degradations(self) -> Dict[str, float]:
        """Active per-component degradation factors (a copy)."""
        return dict(self._component_degradations)

    def describe(self) -> str:
        """Deterministic text rendering of the topology tree."""
        return self.graph.describe()

    def solve_graph(self, v_battery: float, loads: LoadState) -> GraphSolution:
        """The raw graph solution (per-component currents included)."""
        self._check_radio_load(loads)
        return self.graph.solve(
            v_battery,
            {
                "mcu": loads.i_mcu,
                "sensor": loads.i_sensor,
                "radio-digital": loads.i_radio_digital,
                "radio-rf": loads.i_radio_rf,
            },
            open_gates=self._open_gates,
            degradation=self._component_degradations,
        )

    def solve_graph_batch(
        self, v_battery, loads: Dict, compiled: bool = True
    ) -> GraphSolutionBatch:
        """Batched raw graph solutions over an operating-point axis.

        ``v_battery`` and the ``loads`` values (channel name to amperes)
        broadcast along one batch axis; the train's current gate state
        and per-component degradations apply to every point.  The scalar
        :meth:`solve_graph` stays the bit-exact reference — see
        :data:`repro.power.graph.ULP_BUDGET`.  ``compiled`` is passed
        through to :meth:`RailGraph.solve_batch`: the default runs the
        fused plan-compiled kernel (bitwise-identical, auto-fallback),
        ``compiled=False`` forces the interpreted walk.
        """
        if not self.radio_enabled:
            for channel in ("radio-digital", "radio-rf"):
                load = loads.get(channel, 0.0)
                if isinstance(load, (int, float)):
                    positive = load > 0.0
                else:
                    positive = bool(np.any(np.asarray(load) > 0.0))
                if positive:
                    raise ElectricalError(
                        f"{self.name}: radio load with its supplies "
                        f"gated off"
                    )
        return self.graph.solve_batch(
            v_battery,
            loads,
            open_gates=self._open_gates,
            degradation=self._component_degradations,
            compiled=compiled,
        )

    def solve(self, v_battery: float, loads: LoadState) -> TrainSolution:
        # The same solve as solve_graph, minus the objects it would build
        # and this method would discard: only the source current is used.
        self._check_radio_load(loads)
        i_mcu, i_sensor = loads.i_mcu, loads.i_sensor
        i_digital, i_rf = loads.i_radio_digital, loads.i_radio_rf
        i_battery = solve_scalar(
            self.graph, v_battery, i_mcu, i_sensor, i_digital, i_rf,
            self._open_gates, self._component_degradations,
        )[0]
        if self._loss_factor != 1.0:
            i_battery = i_battery * self._loss_factor
        # Attribution uses each channel's own tap voltage, so topologies
        # with non-paper rail voltages stay correctly accounted.
        v_mcu, v_sensor, v_digital, v_rf = self._tap_voltages
        return TrainSolution(
            v_battery=v_battery,
            i_battery=i_battery,
            v_mcu_rail=v_mcu,
            subsystem_power={
                "mcu": v_mcu * i_mcu,
                "sensor": v_sensor * i_sensor,
                "radio-digital": v_digital * i_digital,
                "radio-rf": v_rf * i_rf,
            },
        )


class CotsPowerTrain(GraphPowerTrain):
    """The as-built COTS power train of paper §4."""

    def __init__(
        self,
        v_mcu_rail: float = 2.2,
        pump_i_snooze: float = 1.5e-6,
        shunt_r_series: float = 8.2e3,
        ldo_i_ground: float = 1.2e-6,
        switch_leak: float = 1e-9,
    ) -> None:
        super().__init__(cots_spec(
            v_mcu_rail=v_mcu_rail,
            pump_i_snooze=pump_i_snooze,
            shunt_r_series=shunt_r_series,
            ldo_i_ground=ldo_i_ground,
            switch_leak=switch_leak,
        ))
        # The physical gating hardware, kept for sequencing inspection;
        # electrically the graph's 'radio' gate carries the behaviour.
        self.input_switch = PowerSwitch(
            "ldo-input-switch", i_leak_off=switch_leak
        )
        self.output_switch = PowerSwitch(
            "pa-output-switch", i_leak_off=switch_leak
        )

    def enable_radio(self) -> None:
        # Sequencing per §4.5: PA supply switched at its input first (kill
        # quiescent), a short time later at its output (clean edge).
        self.input_switch.close()
        self.output_switch.close()
        super().enable_radio()

    def disable_radio(self) -> None:
        self.output_switch.open()
        self.input_switch.open()
        super().disable_radio()


class IcPowerTrain(GraphPowerTrain):
    """The integrated power train of paper §7.1."""

    def __init__(
        self,
        config: Optional[ConverterICConfig] = None,
        shunt_r_series: float = 8.2e3,
    ) -> None:
        super().__init__(ic_spec(config, shunt_r_series=shunt_r_series))
        # The composed IC model, kept for the analyses the graph does not
        # carry (ripple/noise chain, quiescent breakdown by source).
        self.ic = ConverterIC(config)

    def enable_radio(self) -> None:
        self.ic.enable_radio_rail()
        super().enable_radio()

    def disable_radio(self) -> None:
        self.ic.disable_radio_rail()
        super().disable_radio()


def make_power_train(kind: str) -> PowerTrain:
    """Build a registered power train: ``'cots'`` (paper §4), ``'ic'``
    (paper §7.1), or any exploratory topology in
    :func:`repro.power.rail_topologies.rail_topology_names`.
    """
    if kind == "cots":
        return CotsPowerTrain()
    if kind == "ic":
        return IcPowerTrain()
    # get_rail_spec raises ConfigurationError naming the valid kinds.
    return GraphPowerTrain(get_rail_spec(kind))
