"""Plan-compiled fused kernels: bitwise identity with the interpreted
scalar walk looped over the points, error parity, verification/fallback
semantics, and the in-memory kernel cache.

The contract under test (see ``repro/power/compile.py``):
``RailGraph.solve_batch`` must return byte-identical arrays and raise
identical errors to a loop of ``RailGraph.solve`` over its points, for
every registered topology, gate state, and degradation shape; any
divergent kernel must be retired in favour of that loop and surfaced in
:func:`repro.power.compile.kernel_metrics`.
"""

import numpy as np
import pytest

from repro.power.compile import (
    GATE_CLOSED,
    GATE_MASK,
    GATE_OPEN,
    KernelUnsupported,
    clear_kernel_cache,
    compiled_kernel_for,
    gate_signature,
    generate_kernel_source,
    kernel_metrics,
    kernel_source,
    reset_kernel_metrics,
)
from repro.power.graph import RailGraph
from repro.power.rail_topologies import (
    RADIO_GATE,
    get_rail_spec,
    rail_topology_names,
)

from .batch_reference import assert_matches_scalar_loop, outcome, scalar_loop

ALL_KINDS = sorted(rail_topology_names())

#: Valid for every registered topology (the COTS pump's smallest gain
#: needs v >= ~1.13 V to clear its boosted-rail threshold).
N_POINTS = 257
V_GRID = np.linspace(1.15, 1.40, N_POINTS)


@pytest.fixture(autouse=True)
def _fresh_kernel_state():
    """Each test compiles from scratch and leaves nothing behind."""
    clear_kernel_cache()
    reset_kernel_metrics()
    yield
    clear_kernel_cache()
    reset_kernel_metrics()


def _batch_loads(rng, radio=True):
    loads = {
        "mcu": rng.uniform(0.0, 2e-6, N_POINTS),
        "sensor": rng.uniform(0.0, 1e-6, N_POINTS),
    }
    if radio:
        # Stay under the COTS shunt's supply-minus-bias headroom.
        loads["radio-digital"] = rng.uniform(0.0, 5e-5, N_POINTS)
        loads["radio-rf"] = rng.uniform(0.0, 1e-3, N_POINTS)
    return loads


def _assert_matches_loop(graph, batch, v, loads, open_gates=frozenset(),
                         degradation=None):
    assert_matches_scalar_loop(batch, scalar_loop(
        graph, v, loads, open_gates=open_gates, degradation=degradation))


def _gate_configs(rng):
    mask = rng.random(N_POINTS) < 0.5
    degradation = 1.0 + rng.random(N_POINTS) * 0.2
    return [
        ("closed", frozenset(), None),
        ("open-set", frozenset({RADIO_GATE}), None),
        ("map-true", {RADIO_GATE: True}, None),
        ("per-point-mask", {RADIO_GATE: mask}, None),
        ("mask-and-mixed-degradation", {RADIO_GATE: mask},
         {"mcu-tap": 1.25, "radio-rf-tap": degradation}),
        ("open-array-degradation", frozenset({RADIO_GATE}),
         {"sensor-tap": degradation}),
    ]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_compiled_matches_interpreted_bitwise(kind):
    """Every topology, every gate/degradation shape, repeated calls
    (first call verifies, later calls run the kernel directly)."""
    rng = np.random.default_rng(11)
    graph = RailGraph(get_rail_spec(kind))
    loads = _batch_loads(rng)
    for label, gates, degradation in _gate_configs(rng):
        for call in range(3):
            compiled = graph.solve_batch(
                V_GRID, dict(loads), open_gates=gates,
                degradation=degradation)
            _assert_matches_loop(graph, compiled, V_GRID, loads, gates,
                                 degradation)
    metrics = kernel_metrics()
    assert metrics.mismatches == 0
    assert metrics.kernel_solves > 0, (
        "no call was actually served by a compiled kernel"
    )


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_compiled_matches_interpreted_with_scalar_loads(kind):
    """Scalar channel loads take the specialized whole-call fast path;
    it must be bitwise-identical too."""
    graph = RailGraph(get_rail_spec(kind))
    loads = {"mcu": 0.7e-6, "sensor": 0.3e-6}
    for _ in range(2):
        compiled = graph.solve_batch(V_GRID, loads)
        _assert_matches_loop(graph, compiled, V_GRID, loads)
    assert kernel_metrics().kernel_solves > 0


@pytest.mark.parametrize(
    "v_scale, loads, gates",
    [
        # Pump/SC input window violation: voltages far below any
        # workable boost gain.
        (0.6, {"mcu": 1e-6, "sensor": 1e-6}, frozenset()),
        # LDO overload on the RF branch.
        (1.0, {"mcu": 1e-6, "radio-rf": 0.5}, frozenset({RADIO_GATE})),
        # Shunt starvation: digital load exceeds the series supply.
        (1.0, {"mcu": 1e-6, "radio-digital": 5e-3},
         frozenset({RADIO_GATE})),
    ],
)
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_error_parity_out_of_envelope(kind, v_scale, loads, gates):
    """The batch raises the identical scalar ElectricalError a loop of
    scalar solves raises first (same type, same message), on first use
    and from the verified kernel alike."""
    graph = RailGraph(get_rail_spec(kind))
    v = V_GRID * v_scale
    expected = outcome(lambda: scalar_loop(graph, v, loads, gates))

    def batch():
        return outcome(lambda: graph.solve_batch(v, dict(loads),
                                                 open_gates=gates))

    first = batch()  # an unverified kernel: the loop answers
    graph.solve_batch(V_GRID, {"mcu": 1e-6}, open_gates=gates)  # verify
    assert first == batch() == expected
    assert kernel_metrics().mismatches == 0


def test_masked_off_point_skips_envelope_check():
    """A failing operating point that the per-point gate mask disables
    must not raise, and results stay identical to the scalar loop."""
    graph = RailGraph(get_rail_spec("cots"))
    mask = np.zeros(N_POINTS, dtype=bool)
    mask[5] = True
    radio_digital = np.zeros(N_POINTS)
    radio_digital[7] = 5e-3  # would starve the shunt, but point 7 is off
    loads = {"mcu": np.full(N_POINTS, 1e-6),
             "radio-digital": radio_digital}
    for _ in range(2):
        compiled = graph.solve_batch(V_GRID, loads,
                                     open_gates={RADIO_GATE: mask})
        _assert_matches_loop(graph, compiled, V_GRID, loads,
                             {RADIO_GATE: mask})
    assert kernel_metrics().kernel_solves == 2


def test_invalid_inputs_raise_identically_on_both_paths():
    """Input validation (not envelope) errors: identical type+message
    whether the kernels are cold or already verified."""
    graph = RailGraph(get_rail_spec("cots"))
    bad_inputs = [
        # mismatched batch shapes
        dict(loads={"mcu": np.zeros(N_POINTS + 3)}),
        # negative load at a batch point
        dict(loads={"mcu": np.full(N_POINTS, -1e-6)}),
        # non-finite load
        dict(loads={"mcu": np.full(N_POINTS, np.nan)}),
        # unknown channel
        dict(loads={"flux-capacitor": 1e-6}),
        # unknown gate group
        dict(loads={"mcu": 1e-6}, open_gates={"warp": True}),
        # unknown degradation component
        dict(loads={"mcu": 1e-6}, degradation={"nonesuch": 1.5}),
    ]
    outcomes = {}
    for warm in (False, True):
        clear_kernel_cache()
        if warm:
            graph.solve_batch(V_GRID, {"mcu": 1e-6},
                              open_gates={RADIO_GATE: True})
            graph.solve_batch(V_GRID, {"mcu": 1e-6})
        outcomes[warm] = [
            outcome(lambda: graph.solve_batch(
                V_GRID, **{k: (dict(v) if isinstance(v, dict) else v)
                           for k, v in kwargs.items()}))
            for kwargs in bad_inputs
        ]
    assert outcomes[True] == outcomes[False]
    assert {kind for kind, _ in outcomes[True]} == {"ConfigurationError"}


def test_first_use_verification_then_direct_kernel():
    graph = RailGraph(get_rail_spec("cots"))
    loads = {"mcu": np.full(N_POINTS, 1e-6)}
    graph.solve_batch(V_GRID, loads)
    first = kernel_metrics()
    assert first.compiles == 1
    assert first.verifications == 1
    assert first.kernel_solves == 1
    graph.solve_batch(V_GRID, loads)
    second = kernel_metrics()
    assert second.verifications == 1  # verified once, then trusted
    assert second.kernel_solves == 2


def test_mismatching_kernel_falls_back_to_interpreted():
    """A kernel whose output diverges bitwise is marked failed on first
    use, the scalar loop's result is returned, and metrics record it."""
    graph = RailGraph(get_rail_spec("cots"))
    entry = compiled_kernel_for(graph)
    assert not entry.failed and entry.fn is not None
    real_fn = entry.fn

    def corrupted(*args):
        i_source, currents = real_fn(*args)
        return i_source + 1e-12, currents

    entry.fn = corrupted
    loads = {"mcu": np.full(N_POINTS, 1e-6)}
    compiled = graph.solve_batch(V_GRID, loads)
    _assert_matches_loop(graph, compiled, V_GRID, loads)
    assert entry.failed
    assert "diverged bitwise" in entry.failure
    metrics = kernel_metrics()
    assert metrics.mismatches == 1
    assert metrics.kernel_solves == 0
    assert metrics.fallbacks == 0
    # Later calls keep working (on the reference) without re-verifying.
    again = graph.solve_batch(V_GRID, loads)
    _assert_matches_loop(graph, again, V_GRID, loads)
    metrics = kernel_metrics()
    assert metrics.verifications == 1
    assert metrics.batch_fallbacks == {"disabled-converter": 0,
                                       "failed-kernel": 1}
    assert metrics.fallbacks == 1


def test_kernel_raising_unexpectedly_marks_failed():
    graph = RailGraph(get_rail_spec("cots"))
    entry = compiled_kernel_for(graph)

    def explodes(*args):
        raise RuntimeError("boom")

    entry.fn = explodes
    loads = {"mcu": np.full(N_POINTS, 1e-6)}
    compiled = graph.solve_batch(V_GRID, loads)
    _assert_matches_loop(graph, compiled, V_GRID, loads)
    assert entry.failed
    assert kernel_metrics().mismatches == 1


def test_verified_kernel_raising_unexpectedly_falls_back_once():
    graph = RailGraph(get_rail_spec("cots"))
    loads = {"mcu": np.full(N_POINTS, 1e-6)}
    graph.solve_batch(V_GRID, loads)  # verify
    entry = compiled_kernel_for(graph)
    assert entry.verified

    def explodes(*args):
        raise RuntimeError("boom")

    entry.fn = explodes
    result = graph.solve_batch(V_GRID, loads)  # through the fast path
    _assert_matches_loop(graph, result, V_GRID, loads)
    assert entry.failed
    assert kernel_metrics().batch_fallbacks["failed-kernel"] == 1


def test_disabled_converter_routes_to_interpreter():
    graph = RailGraph(get_rail_spec("cots"))
    loads = {"mcu": np.full(N_POINTS, 1e-6)}
    graph.solve_batch(V_GRID, loads)  # warm the kernel
    baseline = kernel_metrics().kernel_solves
    converter = next(iter(graph._converters.values()))
    converter.disable()
    try:
        compiled = graph.solve_batch(V_GRID, loads)
        _assert_matches_loop(graph, compiled, V_GRID, loads)
        metrics = kernel_metrics()
        assert metrics.kernel_solves == baseline
        assert metrics.batch_fallbacks == {"disabled-converter": 1,
                                           "failed-kernel": 0}
        assert metrics.fallbacks == 1
    finally:
        converter.enable()
    # Re-enabled: the kernel serves again.
    graph.solve_batch(V_GRID, loads)
    assert kernel_metrics().kernel_solves == baseline + 1


def test_gate_signature_resolves_states():
    graph = RailGraph(get_rail_spec("cots"))
    mask = np.zeros(N_POINTS, dtype=bool)
    assert gate_signature(graph, {}) == ((RADIO_GATE, GATE_CLOSED),)
    assert gate_signature(graph, {RADIO_GATE: True}) == (
        (RADIO_GATE, GATE_OPEN),)
    assert gate_signature(graph, {RADIO_GATE: mask}) == (
        (RADIO_GATE, GATE_MASK),)


def test_kernel_source_is_deterministic_across_instances():
    first = kernel_source(RailGraph(get_rail_spec("cots")),
                          frozenset({RADIO_GATE}))
    second = kernel_source(RailGraph(get_rail_spec("cots")),
                           frozenset({RADIO_GATE}))
    assert first == second
    assert "def _kernel(" in first
    assert "exec" not in first


def test_one_kernel_per_signature_shared_across_equal_graphs():
    a = RailGraph(get_rail_spec("cots"))
    b = RailGraph(get_rail_spec("cots"))
    loads = {"mcu": np.full(N_POINTS, 1e-6)}
    a.solve_batch(V_GRID, loads)
    b.solve_batch(V_GRID, loads)
    metrics = kernel_metrics()
    assert metrics.compiles == 1, (
        "equal specs must share one cached kernel per gate signature"
    )


def test_unsupported_converter_type_reports_and_falls_back():
    class Mystery:
        enabled = True

    graph = RailGraph(get_rail_spec("cots"))
    name, converter = next(iter(graph._converters.items()))
    signature = gate_signature(graph, {})
    original = graph._plan[name]
    gate, leak, (tag, (v_out, _conv)) = original
    graph._plan[name] = (gate, leak, (tag, (v_out, Mystery())))
    try:
        with pytest.raises(KernelUnsupported):
            generate_kernel_source(graph, signature)
        # And through the caching layer: a failed entry, not a crash.
        entry = compiled_kernel_for(graph)
        assert entry.failed
        assert "no fused emitter" in entry.failure
        assert kernel_metrics().unsupported >= 1
    finally:
        graph._plan[name] = original


def test_fast_path_declines_exotic_inputs_but_results_match():
    """Float32 axes, list loads and object gate states are not the
    common input forms: the generic conversion takes them, and a
    verified kernel still answers with the scalar loop's bytes."""
    graph = RailGraph(get_rail_spec("cots"))
    graph.solve_batch(V_GRID, {"mcu": 1e-6})  # verify the closed kernel
    graph.solve_batch(V_GRID, {"mcu": 1e-6}, open_gates={"radio": True})
    exotic = [
        (V_GRID.astype(np.float32), {"mcu": 1e-6}, frozenset()),
        (V_GRID, {"mcu": [1e-6] * N_POINTS}, frozenset()),
        (V_GRID, {"mcu": 1e-6}, {"radio": object()}),
    ]
    for v, loads, gates in exotic:
        compiled = graph.solve_batch(v, loads, open_gates=gates)
        _assert_matches_loop(graph, compiled, v, loads, gates)
    metrics = kernel_metrics()
    assert metrics.kernel_solves == 2 + len(exotic)
    assert metrics.verifications == 2


def test_scalar_voltage_still_works_compiled():
    graph = RailGraph(get_rail_spec("cots"))
    compiled = graph.solve_batch(1.3, {"mcu": 1e-6})
    _assert_matches_loop(graph, compiled, 1.3, {"mcu": 1e-6})


def test_empty_batch_compiled():
    graph = RailGraph(get_rail_spec("cots"))
    empty = np.zeros(0)
    for _ in range(2):  # unverified, then verified
        compiled = graph.solve_batch(empty, {"mcu": 1e-6})
        assert compiled.i_source.shape == (0,)
        assert list(compiled.component_i_in) == list(
            graph.solve(1.3, {"mcu": 1e-6}).component_i_in)
        assert all(arr.shape == (0,)
                   for arr in compiled.component_i_in.values())
        graph.solve_batch(V_GRID, {"mcu": 1e-6})


def test_empty_first_call_verifies_nothing():
    """An empty batch compares no point, so it must not verify the
    kernel: the next call still checks it against the scalar loop."""
    graph = RailGraph(get_rail_spec("cots"))
    graph.solve_batch(np.empty(0), {"mcu": 1e-6})
    entry = compiled_kernel_for(graph)
    assert not entry.verified
    assert kernel_metrics().verifications == 0
    graph.solve_batch(V_GRID, {"mcu": 1e-6})
    assert entry.verified
    assert kernel_metrics().verifications == 1


def test_clear_kernel_cache_forces_recompile():
    graph = RailGraph(get_rail_spec("cots"))
    loads = {"mcu": np.full(N_POINTS, 1e-6)}
    graph.solve_batch(V_GRID, loads)
    assert kernel_metrics().compiles == 1
    clear_kernel_cache()
    graph.solve_batch(V_GRID, loads)
    assert kernel_metrics().compiles == 2


def test_negative_zero_load_keeps_its_sign():
    """A ``-0.0`` load after a ``+0.0`` one on the same channel and axis:
    the tap current keeps the caller's sign bit, as in the scalar loop
    (equal-comparing floats must not share a cached load array)."""
    graph = RailGraph(get_rail_spec("cots"))
    for load in (0.0, -0.0, 0.0):
        for _ in range(2):  # verifying call, then the kernel alone
            compiled = graph.solve_batch(V_GRID, {"mcu": load})
            _assert_matches_loop(graph, compiled, V_GRID, {"mcu": load})
    assert kernel_metrics().mismatches == 0
