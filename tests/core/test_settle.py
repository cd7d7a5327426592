"""The node's fused electrical step, against its two-call reference.

``GraphPowerTrain.settle`` is one load change of ``PicoCube._update``:
two chained solves at the battery's terminal voltage, then the power
attribution.  The reference kept here is that update written the long
way — ``NiMHCell.terminal_voltage`` under the previous draw, one
``GraphPowerTrain.solve``, ``terminal_voltage`` under its draw, a second
``solve`` — and the two must agree by ``float.hex`` on every registered
topology, gates open and closed, healthy and degraded, and raise the
same errors with the same messages.
"""

import itertools
import math

import pytest

from repro.core import LoadState, NodeConfig, PicoCube, make_power_train
from repro.errors import ConfigurationError, ElectricalError
from repro.power.rail_topologies import rail_topology_names
from repro.storage import NiMHCell

CHANNEL_ORDER = ("mcu", "sensor", "radio-digital", "radio-rf")

#: (i_mcu, i_sensor, i_radio_digital, i_radio_rf): sleep, the cycle's
#: CPU/sensor states, radio set-up, oscillator start-up, an OOK average,
#: and an overload that leaves every converter's envelope.
LOADS = [
    (0.52e-6, 0.3e-6, 0.0, 0.0),
    (250e-6, 0.3e-6, 0.0, 0.0),
    (32e-6, 0.45e-3, 0.0, 0.0),
    (250e-6, 0.3e-6, 50e-6, 0.0),
    (250e-6, 0.3e-6, 50e-6, 4.02e-3),
    (250e-6, 0.3e-6, 50e-6, 1.9e-3),
    (0.5, 0.0, 0.0, 0.0),
]

#: (soc, ESR multiplier, previous battery current).
BATTERY_STATES = [
    (1.0, 1.0, 0.0),
    (0.6, 1.0, 3e-6),
    (0.3, 1.7, 2e-3),
    (0.1, 4.0, 5e-3),
    (0.01, 1.0, 0.2),
]


def hexes(values):
    return tuple(float(value).hex() for value in values)


def reference_update(train, cell, i_prev, loads):
    """``PicoCube._update`` before the fused step: two solves."""
    state = LoadState(*loads)
    first = train.solve(cell.terminal_voltage(i_prev), state)
    second = train.solve(cell.terminal_voltage(first.i_battery), state)
    powers = [second.subsystem_power[name] for name in CHANNEL_ORDER]
    return second.i_battery, tuple(powers) + (second.p_management,)


def outcome(fn):
    try:
        i_battery, powers = fn()
    except (ConfigurationError, ElectricalError) as exc:
        return "raised", type(exc).__name__, str(exc)
    return "solved", hexes((i_battery,) + tuple(powers))


def degraded_trains(kind):
    """The train healthy, train-wide degraded, and one stage degraded."""
    yield "healthy", make_power_train(kind)
    train = make_power_train(kind)
    train.set_degradation(1.15)
    yield "loss", train
    train = make_power_train(kind)
    stage = [name for name in train.graph.component_names()
             if name != "battery"][0]
    train.set_component_degradation(stage, 1.3)
    train.set_degradation(1.05)
    yield f"stage-{stage}", train


@pytest.mark.parametrize("kind", rail_topology_names())
@pytest.mark.parametrize("radio", [False, True], ids=["gated", "open"])
def test_settle_equals_two_solves_at_terminal_voltage(kind, radio):
    solved = errors = 0
    for label, train in degraded_trains(kind):
        if radio:
            train.enable_radio()
        for (soc, esr, i_prev), loads in itertools.product(
                BATTERY_STATES, LOADS):
            cell = NiMHCell()
            cell.set_soc(soc)
            cell.set_esr_multiplier(esr)
            expected = outcome(
                lambda: reference_update(train, cell, i_prev, loads)
            )
            got = outcome(lambda: train.settle(
                cell.open_circuit_voltage(), cell.internal_resistance(),
                i_prev, *loads,
            ))
            assert got == expected, (label, soc, esr, i_prev, loads)
            if expected[0] == "raised":
                errors += 1
            else:
                solved += 1
    # The grid reaches both solved points and pinned error edges.
    assert solved and errors


BAD_LOADS = [float("nan"), math.inf, -math.inf, -1e-9]


@pytest.mark.parametrize("value", BAD_LOADS, ids=repr)
@pytest.mark.parametrize("radio", [False, True], ids=["gated", "open"])
@pytest.mark.parametrize("field", ["i_mcu", "i_sensor", "i_radio_digital",
                                   "i_radio_rf"])
def test_bad_load_raises_load_state_error_from_update(field, radio, value):
    with pytest.raises(ConfigurationError) as reference:
        LoadState(**{field: value})
    node = PicoCube(NodeConfig())
    if radio:
        node.train.enable_radio()
    setattr(node, f"_{field}", value)
    with pytest.raises(ConfigurationError) as raised:
        node._update()
    assert str(raised.value) == str(reference.value)
    assert not node.browned_out


@pytest.mark.parametrize("radio", [False, True], ids=["gated", "open"])
def test_nan_radio_current_through_the_setter(radio):
    node = PicoCube(NodeConfig())
    if radio:
        node.train.enable_radio()
    with pytest.raises(ConfigurationError,
                       match=r"^i_radio_rf must be finite, got nan$"):
        node._set_radio_rf(float("nan"))


def test_radio_load_behind_closed_gate_browns_out():
    """The radio-gate check still runs, after load validation, inside
    the brownout handler."""
    node = PicoCube(NodeConfig())
    node._set_radio_digital(50e-6)
    assert node.browned_out
    assert node.battery_current_now == 0.0


def test_p_management_keeps_its_summation():
    """``TrainSolution.p_management`` through the shared helper equals
    the battery power minus the summed channel powers, as before."""
    train = make_power_train("cots")
    train.enable_radio()
    for loads in LOADS[:-1]:
        solution = train.solve(1.25, LoadState(*loads))
        legacy = max(
            solution.p_battery - sum(solution.subsystem_power.values()), 0.0
        )
        assert solution.p_management.hex() == legacy.hex()
