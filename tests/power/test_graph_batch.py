"""Batched rail-graph solving: bitwise equality with a loop of scalar
solves, per-point gating and degradation, error parity, and batch
ergonomics.

The scalar :meth:`RailGraph.solve` is the bit-exact reference (see the
440-case golden suite in ``tests/core/test_graph_equivalence.py``);
these tests pin :meth:`RailGraph.solve_batch` to a loop of it, byte for
byte and in insertion order.
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigurationError, ElectricalError
from repro.power.compile import clear_kernel_cache, compiled_kernel_for
from repro.power.graph import (
    FrozenMapping,
    GraphSolution,
    GraphSolutionBatch,
    RailGraph,
)
from repro.power.rail_topologies import (
    RADIO_GATE,
    get_rail_spec,
    rail_topology_names,
)

from .batch_reference import assert_matches_scalar_loop, scalar_loop

ALL_KINDS = sorted(rail_topology_names())

# Voltage window valid for every registered topology (the COTS pump
# needs 2.0 * v >= v_out + headroom, so stay above ~1.13 V).
V_GRID = np.linspace(1.15, 1.40, 9)

SLEEP_LOADS = {"mcu": 0.7e-6, "sensor": 0.3e-6}
TX_LOADS = {
    "mcu": 250e-6,
    "sensor": 450e-6,
    "radio-digital": 50e-6,
    "radio-rf": 4e-3,
}


# ---------------------------------------------------------------------------
# Scalar equivalence over every registered topology
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize(
    "loads,open_gates",
    [
        (SLEEP_LOADS, frozenset()),
        (TX_LOADS, frozenset({RADIO_GATE})),
    ],
    ids=["sleep", "tx"],
)
def test_batch_matches_scalar_loop(kind, loads, open_gates):
    graph = RailGraph(get_rail_spec(kind))
    batch = graph.solve_batch(V_GRID, loads, open_gates=open_gates)
    solutions = scalar_loop(graph, V_GRID, loads, open_gates=open_gates)
    assert batch.i_source.shape == V_GRID.shape
    assert list(batch.component_i_in) == list(solutions[0].component_i_in)
    assert_matches_scalar_loop(batch, solutions)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_batch_matches_scalar_with_degradation(kind):
    graph = RailGraph(get_rail_spec(kind))
    victim = graph.component_names()[1]
    degradation = {victim: 1.07}
    batch = graph.solve_batch(V_GRID, SLEEP_LOADS, degradation=degradation)
    assert_matches_scalar_loop(batch, scalar_loop(
        graph, V_GRID, SLEEP_LOADS, degradation=degradation))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_batched_loads_axis_matches_scalar(kind):
    """Sweep the load axis (fixed voltage) instead of the voltage axis."""
    graph = RailGraph(get_rail_spec(kind))
    mcu = np.linspace(0.0, 400e-6, 8)
    loads = {"mcu": mcu, "sensor": 0.3e-6}
    batch = graph.solve_batch(1.25, loads)
    assert batch.i_source.shape == mcu.shape
    assert_matches_scalar_loop(batch, [
        graph.solve(1.25, {"mcu": float(amps), "sensor": 0.3e-6})
        for amps in mcu
    ])


# ---------------------------------------------------------------------------
# Per-point gate masks and degradation arrays
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_per_point_gate_mask_matches_two_scalar_solves(kind):
    graph = RailGraph(get_rail_spec(kind))
    channels = sorted(set(SLEEP_LOADS) | set(TX_LOADS))
    loads = {
        channel: np.array([SLEEP_LOADS.get(channel, 0.0),
                           TX_LOADS.get(channel, 0.0)])
        for channel in channels
    }
    batch = graph.solve_batch(
        1.25, loads, open_gates={RADIO_GATE: np.array([False, True])}
    )
    sleep = graph.solve(1.25, SLEEP_LOADS)
    tx = graph.solve(1.25, TX_LOADS, open_gates=frozenset({RADIO_GATE}))
    assert_matches_scalar_loop(batch, [sleep, tx])


def test_per_point_degradation_array_matches_scalar():
    graph = RailGraph(get_rail_spec("cots"))
    victim = graph.component_names()[1]
    factors = np.array([1.0, 1.05, 1.25])
    batch = graph.solve_batch(1.25, SLEEP_LOADS,
                              degradation={victim: factors})
    assert_matches_scalar_loop(batch, [
        graph.solve(1.25, SLEEP_LOADS, degradation={victim: float(f)})
        for f in factors
    ])


def test_degradation_applies_to_gated_off_leak():
    """Scalar parity: the factor multiplies even a closed gate's leak."""
    spec = get_rail_spec("cots")
    graph = RailGraph(spec)
    gated = [
        comp.name for comp in spec.components[1:]
        if getattr(comp, "gate", None) == RADIO_GATE
    ]
    assert gated, "cots topology should gate its radio components"
    victim = gated[0]
    batch = graph.solve_batch(V_GRID, SLEEP_LOADS,
                              degradation={victim: 3.0})
    assert_matches_scalar_loop(batch, scalar_loop(
        graph, V_GRID, SLEEP_LOADS, degradation={victim: 3.0}))


# ---------------------------------------------------------------------------
# Error parity with the scalar solver
# ---------------------------------------------------------------------------


def scalar_error_message(graph, v, loads, open_gates=frozenset()):
    with pytest.raises(ElectricalError) as excinfo:
        graph.solve(v, loads, open_gates=open_gates)
    return str(excinfo.value)


def test_out_of_envelope_point_raises_the_scalar_error():
    graph = RailGraph(get_rail_spec("cots"))
    v = np.array([1.25, 0.9, 1.25])  # pump cannot start from 0.9 V
    expected = scalar_error_message(graph, 0.9, SLEEP_LOADS)
    with pytest.raises(ElectricalError) as excinfo:
        graph.solve_batch(v, SLEEP_LOADS)
    assert str(excinfo.value) == expected


def test_overload_point_raises_the_scalar_error():
    graph = RailGraph(get_rail_spec("cots"))
    radio_on = frozenset({RADIO_GATE})
    loads = dict(TX_LOADS, **{"radio-rf": np.array([4e-3, 0.5])})
    expected = scalar_error_message(
        graph, 1.25, dict(TX_LOADS, **{"radio-rf": 0.5}),
        open_gates=radio_on,
    )
    with pytest.raises(ElectricalError) as excinfo:
        graph.solve_batch(1.25, loads, open_gates=radio_on)
    assert str(excinfo.value) == expected


def test_lowest_failing_point_decides_the_error():
    """Two points fail in different stages: the batch raises what a
    scalar loop raises first (point 0's LDO overload), not the error of
    the stage that comes first in walk order (point 1's pump window)."""
    graph = RailGraph(get_rail_spec("cots"))
    radio_on = frozenset({RADIO_GATE})
    v = np.array([1.25, 0.85])
    rf = np.array([0.02, 4e-3])
    loop_error = None
    for k in range(2):
        try:
            graph.solve(float(v[k]), dict(TX_LOADS, **{"radio-rf": rf[k]}),
                        open_gates=radio_on)
        except ElectricalError as exc:
            loop_error = str(exc)
            break
    assert loop_error is not None and loop_error.startswith("lt3020:")
    for _ in range(2):  # first use (verifying) and the verified kernel
        with pytest.raises(ElectricalError) as excinfo:
            graph.solve_batch(v, dict(TX_LOADS, **{"radio-rf": rf}),
                              open_gates=radio_on)
        assert str(excinfo.value) == loop_error
        graph.solve_batch(V_GRID, TX_LOADS, open_gates=radio_on)


def test_gated_off_points_skip_envelope_checks():
    """A bad operating point behind a closed per-point gate must not raise."""
    graph = RailGraph(get_rail_spec("cots"))
    loads = {
        "mcu": 0.7e-6,
        "sensor": 0.3e-6,
        # Huge RF load at point 0 — but the radio gate is closed there.
        "radio-rf": np.array([0.0, 4e-3]),
    }
    batch = graph.solve_batch(
        np.array([1.18, 1.25]), loads,
        open_gates={RADIO_GATE: np.array([False, True])},
    )
    sleep = graph.solve(1.18, dict(loads, **{"radio-rf": 0.0}))
    tx = graph.solve(1.25, dict(loads, **{"radio-rf": 4e-3}),
                     open_gates=frozenset({RADIO_GATE}))
    assert_matches_scalar_loop(batch, [sleep, tx])


def test_negative_batched_load_reports_the_point_index():
    graph = RailGraph(get_rail_spec("cots"))
    with pytest.raises(ConfigurationError, match="batch point 2"):
        graph.solve_batch(1.25, {"mcu": np.array([1e-6, 1e-6, -1e-6])})


def test_untapped_channel_rejected_in_batch():
    graph = RailGraph(get_rail_spec("cots"))
    with pytest.raises(ConfigurationError, match="untapped channel"):
        graph.solve_batch(1.25, {"laser": np.array([1e-3])})


def test_mismatched_batch_shapes_rejected():
    graph = RailGraph(get_rail_spec("cots"))
    with pytest.raises(ConfigurationError, match="do not broadcast"):
        graph.solve_batch(np.array([1.2, 1.25]),
                          {"mcu": np.array([1e-6, 1e-6, 1e-6])})


@pytest.mark.parametrize("warm", [True, False])
def test_mismatched_shapes_raise_same_error_on_both_paths(warm):
    """Regression for the batch-shape hoist + compiled fast path: shape
    validation happens once up front, and the error is identical whether
    a verified kernel's fast path or the generic prologue meets the
    call first."""
    clear_kernel_cache()
    graph = RailGraph(get_rail_spec("cots"))
    if warm:
        graph.solve_batch(np.array([1.2, 1.25]),
                          {"mcu": np.array([1e-6, 1e-6])})
        assert compiled_kernel_for(graph).verified
    with pytest.raises(ConfigurationError) as excinfo:
        graph.solve_batch(np.array([1.2, 1.25]),
                          {"mcu": np.array([1e-6, 1e-6, 1e-6])})
    # The full message, not just the prefix.
    assert str(excinfo.value) == (
        "cots-power-train: batch inputs do not broadcast: [(2,), (3,)]"
    )


def test_2d_batch_inputs_rejected():
    graph = RailGraph(get_rail_spec("cots"))
    with pytest.raises(ConfigurationError, match="1-D"):
        graph.solve_batch(np.ones((2, 2)), SLEEP_LOADS)
    with pytest.raises(ConfigurationError, match="1-D"):
        graph.solve_batch(1.25, {"mcu": np.ones((2, 2)) * 1e-6})


def test_unknown_gate_name_rejected():
    graph = RailGraph(get_rail_spec("cots"))
    with pytest.raises(ConfigurationError, match="no gate group 'warp'"):
        graph.solve_batch(1.25, SLEEP_LOADS,
                          open_gates={"warp": np.array([True])})


def test_unknown_degradation_key_rejected_in_batch():
    graph = RailGraph(get_rail_spec("cots"))
    with pytest.raises(ConfigurationError, match="no component 'bogus'"):
        graph.solve_batch(1.25, SLEEP_LOADS, degradation={"bogus": 1.1})


def test_unknown_degradation_key_rejected_in_scalar_solve():
    """Regression: scalar solve used to silently ignore typo'd keys."""
    graph = RailGraph(get_rail_spec("cots"))
    with pytest.raises(ConfigurationError, match="no component 'bogus'"):
        graph.solve(1.25, SLEEP_LOADS, degradation={"bogus": 1.1})


# ---------------------------------------------------------------------------
# Batch ergonomics
# ---------------------------------------------------------------------------


def test_scalar_inputs_produce_a_one_point_batch():
    graph = RailGraph(get_rail_spec("cots"))
    batch = graph.solve_batch(1.25, SLEEP_LOADS)
    assert isinstance(batch, GraphSolutionBatch)
    assert len(batch) == 1
    assert batch.v_source.shape == (1,)
    assert_matches_scalar_loop(batch, [graph.solve(1.25, SLEEP_LOADS)])


def test_point_extracts_a_scalar_solution():
    graph = RailGraph(get_rail_spec("cots"))
    batch = graph.solve_batch(V_GRID, SLEEP_LOADS)
    point = batch.point(3)
    assert isinstance(point, GraphSolution)
    assert point.v_source == float(V_GRID[3])
    assert point.i_source == float(batch.i_source[3])
    assert point.component_i_in["tps60313"] == float(
        batch.component_i_in["tps60313"][3]
    )


def test_point_supports_negative_indices():
    graph = RailGraph(get_rail_spec("cots"))
    batch = graph.solve_batch(V_GRID, SLEEP_LOADS)
    last = batch.point(-1)
    assert last.v_source == float(V_GRID[-1])
    assert last.i_source == float(batch.i_source[-1])
    assert batch.point(-len(batch)).v_source == float(V_GRID[0])


def test_point_out_of_range_raises_index_error():
    graph = RailGraph(get_rail_spec("cots"))
    batch = graph.solve_batch(V_GRID, SLEEP_LOADS)
    with pytest.raises(IndexError):
        batch.point(len(batch))
    with pytest.raises(IndexError):
        batch.point(-len(batch) - 1)


def test_point_solution_is_immutable():
    graph = RailGraph(get_rail_spec("cots"))
    batch = graph.solve_batch(V_GRID, SLEEP_LOADS)
    point = batch.point(0)
    assert isinstance(point.component_i_in, FrozenMapping)
    with pytest.raises(TypeError):
        point.component_i_in["tps60313"] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        point.i_source = 0.0
    # Extracting a point must not have mutated the batch arrays.
    assert batch.i_source[0] == point.i_source


def test_p_source_is_elementwise_product():
    graph = RailGraph(get_rail_spec("cots"))
    batch = graph.solve_batch(V_GRID, SLEEP_LOADS)
    np.testing.assert_array_equal(batch.p_source,
                                  batch.v_source * batch.i_source)


# ---------------------------------------------------------------------------
# Immutable component_i_in (regression: used to be a plain mutable dict)
# ---------------------------------------------------------------------------


def test_scalar_solution_currents_are_immutable():
    graph = RailGraph(get_rail_spec("cots"))
    solution = graph.solve(1.25, SLEEP_LOADS)
    assert isinstance(solution.component_i_in, FrozenMapping)
    with pytest.raises(TypeError):
        solution.component_i_in["tps60313"] = 0.0
    with pytest.raises(TypeError):
        del solution.component_i_in["tps60313"]


def test_batch_solution_currents_are_immutable():
    graph = RailGraph(get_rail_spec("cots"))
    batch = graph.solve_batch(1.25, SLEEP_LOADS)
    with pytest.raises(TypeError):
        batch.component_i_in["tps60313"] = np.zeros(1)


def test_frozen_mapping_round_trips_through_pickle():
    import pickle

    mapping = FrozenMapping({"a": 1.0, "b": 2.0})
    clone = pickle.loads(pickle.dumps(mapping))
    assert isinstance(clone, FrozenMapping)
    assert clone == mapping
    assert list(clone) == ["a", "b"]


def test_frozen_mapping_equality_and_lookup():
    mapping = FrozenMapping({"a": 1.0})
    assert mapping == {"a": 1.0}
    assert mapping != {"a": 2.0}
    assert mapping["a"] == 1.0
    assert "a" in mapping and len(mapping) == 1
    with pytest.raises(KeyError):
        mapping["missing"]
