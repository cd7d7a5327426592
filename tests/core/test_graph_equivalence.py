"""The refactor's load-bearing guarantee: graph solves == legacy solves.

``golden_train_solutions.json`` pins the hand-written
``CotsPowerTrain.solve`` / ``IcPowerTrain.solve`` outputs captured at
commit 092b574, immediately before those bodies were replaced by the
declarative :class:`~repro.power.graph.RailGraph` walker.  Every field is
stored as ``float.hex()`` and compared as such — equality here is to the
last ulp, not within a tolerance.  Error edges (dropout, brownout,
radio-load-while-gated) must reproduce too: same exception type, same
message.

The same goldens pin the batch solver: each golden group (one train
state and load state across the voltage grid) goes through one
``solve_graph_batch`` call, which must reproduce every solved case to
the last bit and every error case's type and message.

If this file fails, the graph solver's arithmetic conventions drifted
(summation order, cascade voltages, leak handling) — do NOT regenerate
the goldens to paper over it; see ``tools/capture_train_goldens.py``.
"""

import itertools
import json
import pathlib

import numpy as np
import pytest

from repro.core import LoadState, make_power_train
from repro.errors import ElectricalError

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_train_solutions.json"


def load_cases():
    payload = json.loads(GOLDEN_PATH.read_text())
    return payload["cases"]


CASES = load_cases()


def case_id(case):
    return (f"{case['kind']}-{case['case']}-"
            f"{case['v_battery']:g}V")


def test_golden_file_covers_the_claimed_grid():
    """440 cases: both paper trains x 8 load states (+2 degraded) x 22 V."""
    assert len(CASES) == 440
    kinds = {case["kind"] for case in CASES}
    assert kinds == {"cots", "ic"}
    solved = sum(1 for case in CASES if "error" not in case["result"])
    assert solved == 287  # the rest are pinned error edges
    # Both dropout/brownout edges and the full radio-gated ladder appear.
    assert any(case["v_battery"] < 0.9 for case in CASES)
    assert any(case["v_battery"] > 1.8 for case in CASES)
    assert any(case["loads"].get("i_radio_rf", 0.0) > 0 for case in CASES)
    assert any(case["loss_factor"] != 1.0 for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_graph_solve_is_bit_exact_with_legacy(case):
    train = make_power_train(case["kind"])
    if case["loss_factor"] != 1.0:
        train.set_degradation(case["loss_factor"])
    if case["radio"]:
        train.enable_radio()
    loads = LoadState(**case["loads"])
    expected = case["result"]
    if "error" in expected:
        with pytest.raises(ElectricalError) as excinfo:
            train.solve(case["v_battery"], loads)
        assert type(excinfo.value).__name__ == expected["error"]
        assert str(excinfo.value) == expected["message"]
        return
    solution = train.solve(case["v_battery"], loads)
    assert solution.i_battery.hex() == expected["i_battery"]
    assert solution.v_mcu_rail.hex() == expected["v_mcu_rail"]
    assert {
        channel: watts.hex()
        for channel, watts in solution.subsystem_power.items()
    } == expected["subsystem_power"]


@pytest.mark.parametrize("kind", ["cots", "ic"])
def test_two_solves_of_one_train_are_byte_identical(kind):
    """Solving is pure: same train, same inputs, same bits, no state."""
    train = make_power_train(kind)
    train.enable_radio()
    loads = LoadState(i_mcu=250e-6, i_sensor=0.3e-6,
                      i_radio_digital=50e-6, i_radio_rf=4e-3)
    first = train.solve(1.25, loads)
    second = train.solve(1.25, loads)
    assert first.i_battery.hex() == second.i_battery.hex()
    assert first.subsystem_power == second.subsystem_power


def golden_group(case):
    """Cases sharing one train and load state differ only in voltage."""
    return (case["kind"], case["case"], case["loss_factor"], case["radio"],
            tuple(sorted(case["loads"].items())))


GROUPS = [list(cases) for _, cases in itertools.groupby(
    sorted(CASES, key=golden_group), key=golden_group)]

BATCH_LOAD_CHANNELS = {"i_mcu": "mcu", "i_sensor": "sensor",
                       "i_radio_digital": "radio-digital",
                       "i_radio_rf": "radio-rf"}


def group_id(cases):
    return f"{cases[0]['kind']}-{cases[0]['case']}"


@pytest.mark.parametrize("cases", GROUPS, ids=group_id)
def test_graph_solve_batch_is_bit_exact_with_legacy(cases):
    """One batch per golden group: solved points as one batch, each
    error case as a one-point batch of its own."""
    first = cases[0]
    train = make_power_train(first["kind"])
    if first["loss_factor"] != 1.0:
        train.set_degradation(first["loss_factor"])
    if first["radio"]:
        train.enable_radio()
    batch_loads = {BATCH_LOAD_CHANNELS[field]: amps
                   for field, amps in first["loads"].items()}
    solved = [case for case in cases if "error" not in case["result"]]
    for case in cases:
        if "error" in case["result"]:
            with pytest.raises(ElectricalError) as excinfo:
                train.solve_graph_batch(np.array([case["v_battery"]]),
                                        batch_loads)
            assert type(excinfo.value).__name__ == case["result"]["error"]
            assert str(excinfo.value) == case["result"]["message"]
    if not solved:
        return
    batch = train.solve_graph_batch(
        np.array([case["v_battery"] for case in solved]), batch_loads)
    # i_battery is the field the batch computes; the rail voltage and
    # subsystem powers come from tap voltages alone.
    for k, case in enumerate(solved):
        i_battery = float(batch.i_source[k])
        if train.loss_factor != 1.0:
            i_battery = i_battery * train.loss_factor
        assert i_battery.hex() == case["result"]["i_battery"]
