"""Scalar solve kernels: the compiled target behind ``RailGraph.solve``.

The contract under test (see ``repro/power/compile.py``): for every
registered topology and open-gate set, the straight-line kernel returns
the interpreted walk's ``i_source`` and per-component currents bit for
bit (``float.hex``) and in the same insertion order, and it declines
exactly where the walk raises, so callers see the walk's error.  A
kernel that diverges is retired on its first served call; disabled
converters and retired kernels route to the walk; every such event is
counted in :func:`repro.power.compile.kernel_metrics`.  Kernels live in
process-wide caches, never in graph, train, or checkpoint state.
"""

import itertools
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.campaigns  # noqa: F401  (registers the chaos scenario)
from repro.core import LoadState, make_power_train
from repro.errors import ConfigurationError, ElectricalError
from repro.power import compile as kernel_compile
from repro.power.compile import (
    clear_kernel_cache,
    compiled_scalar_kernel_for,
    iter_registered_kernel_sources,
    kernel_metrics,
    reset_kernel_metrics,
    scalar_kernel_source,
)
from repro.power.graph import CHANNELS, RailGraph
from repro.power.rail_topologies import (
    RADIO_GATE,
    get_rail_spec,
    rail_topology_names,
)
from repro.sim import checkpoint as cp

ALL_KINDS = sorted(rail_topology_names())
GRAPHS = {kind: RailGraph(get_rail_spec(kind)) for kind in ALL_KINDS}

SLEEP = {"mcu": 0.7e-6, "sensor": 0.3e-6}
TX = {"mcu": 250e-6, "sensor": 0.3e-6, "radio-digital": 50e-6,
      "radio-rf": 4e-3}


@pytest.fixture(autouse=True)
def _fresh_kernel_state():
    clear_kernel_cache()
    reset_kernel_metrics()
    yield
    clear_kernel_cache()
    reset_kernel_metrics()


def gate_subsets(graph):
    names = graph._gate_names
    for size in range(len(names) + 1):
        for subset in itertools.combinations(names, size):
            yield frozenset(subset)


def outcome(fn, *args):
    """``("ok", i_source hex, [(name, hex)...])`` or the error raised."""
    try:
        solution = fn(*args)
    except (ConfigurationError, ElectricalError, ArithmeticError,
            ValueError) as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", float(solution.i_source).hex(),
            [(name, float(amps).hex())
             for name, amps in solution.component_i_in.items()])


def kernel_outcome(graph, v, loads, open_gates, degradation):
    """The kernel called directly: ``None`` (decline), an error, or the
    same shape as :func:`outcome`."""
    entry = compiled_scalar_kernel_for(graph, open_gates)
    assert not entry.failed, entry.failure
    channel_loads = [loads.get(channel, 0.0) for channel in CHANNELS]
    try:
        out = entry.fn(v, *channel_loads, degradation)
    except ArithmeticError as exc:
        return ("error", type(exc).__name__)
    if out is None:
        return None
    i_source, currents, names = out
    return ("ok", float(i_source).hex(),
            [(name, float(amps).hex()) for name, amps in zip(names, currents)])


# ---------------------------------------------------------------------------
# The property: kernel == interpreter, to the bit, errors included
# ---------------------------------------------------------------------------

VOLTAGES = st.one_of(
    st.sampled_from([0.8, 0.9, 1.125, 1.8, 2.0]),
    st.floats(min_value=0.8, max_value=2.0),
)

AMPS = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=12e-3),
    # Out of some envelope: an LDO current limit, a starved shunt, a
    # regulator's headroom, and values no load check accepts.
    st.sampled_from([2e-2, 1.0, 1e300, -1e-6, float("inf"), float("nan")]),
)

FACTORS = st.one_of(st.just(1.0), st.floats(min_value=1.0, max_value=3.0),
                    st.sampled_from([1.25, 2.0]))


@st.composite
def solve_points(draw):
    kind = draw(st.sampled_from(ALL_KINDS))
    graph = GRAPHS[kind]
    open_gates = draw(st.sampled_from(list(gate_subsets(graph))))
    loads = {}
    for channel in draw(st.permutations(CHANNELS)):
        if draw(st.booleans()):
            loads[channel] = draw(AMPS)
    names = graph.component_names()
    degraded = draw(st.lists(st.sampled_from(names), unique=True,
                             max_size=3))
    degradation = {name: draw(FACTORS) for name in degraded}
    return kind, draw(VOLTAGES), loads, open_gates, degradation


@settings(max_examples=400, deadline=None)
@given(solve_points())
def test_scalar_kernel_matches_interpreter_bitwise(point):
    kind, v, loads, open_gates, degradation = point
    graph = GRAPHS[kind]
    reference = outcome(graph._solve_interpreted, v, loads, open_gates,
                        degradation)
    # The public path: same bits, same order, same error and message.
    assert outcome(graph.solve, v, loads, open_gates,
                   degradation) == reference
    # The kernel itself declines exactly where the walk raises.
    direct = kernel_outcome(graph, v, loads, open_gates, degradation)
    if reference[0] == "ok":
        assert direct == reference
    else:
        assert direct is None or direct == reference[:2]
    metrics = kernel_metrics()
    assert metrics.scalar_mismatches == 0
    assert metrics.scalar_fallbacks["failed-kernel"] == 0


@settings(max_examples=150, deadline=None)
@given(solve_points())
def test_train_solve_matches_interpreted_graph(point):
    """``GraphPowerTrain.solve`` (kernel, no GraphSolution) equals the
    interpreted walk for every point a LoadState can carry."""
    kind, v, loads, open_gates, degradation = point
    if not all(0.0 <= amps < float("inf") for amps in loads.values()):
        return  # LoadState rejects these before any solve
    train = make_power_train(kind)
    if RADIO_GATE in open_gates:
        train.enable_radio()
    for name, factor in degradation.items():
        if name != train.spec.source.name:
            train.set_component_degradation(name, factor)
    state = LoadState(**{
        "i_" + channel.replace("-", "_"): amps
        for channel, amps in loads.items()
    })
    channel_loads = {
        channel: getattr(state, "i_" + channel.replace("-", "_"))
        for channel in CHANNELS
    }
    try:
        train._check_radio_load(state)
        expected = train.graph._solve_interpreted(
            v, channel_loads, train._open_gates,
            train._component_degradations,
        ).i_source.hex()
    except (ElectricalError, ArithmeticError, ValueError) as exc:
        expected = (type(exc).__name__, str(exc))
    try:
        got = train.solve(v, state).i_battery.hex()
    except (ElectricalError, ArithmeticError, ValueError) as exc:
        got = (type(exc).__name__, str(exc))
    assert got == expected


def _envelope_edge(graph, v, channel, open_gates):
    """Adjacent loads on ``channel`` at ``v``: the walk's last solvable
    one and its first rejected one (``None`` if no edge in [0, 1] A)."""
    def solves(amps):
        return outcome(graph._solve_interpreted, v, {channel: amps},
                       open_gates, None)[0] == "ok"

    lo, hi = 0.0, 1.0
    if not solves(lo) or solves(hi):
        return None
    while math.nextafter(lo, hi) != hi:
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):
            mid = math.nextafter(lo, hi)
        lo, hi = (mid, hi) if solves(mid) else (lo, mid)
    return lo, hi


def test_kernel_declines_exactly_at_every_load_edge():
    """At each channel's load limit (LDO current limit, shunt bias
    floor, SC FSL floor and regulation sag) the kernel solves the last
    point the walk solves and declines the first one it rejects."""
    edges = 0
    for kind, graph in GRAPHS.items():
        for open_gates in gate_subsets(graph):
            for channel, v in itertools.product(CHANNELS, (1.15, 1.3, 1.6)):
                edge = _envelope_edge(graph, v, channel, open_gates)
                if edge is None:
                    continue
                edges += 1
                for amps in edge:
                    loads = {channel: amps}
                    reference = outcome(graph._solve_interpreted, v, loads,
                                        open_gates, None)
                    direct = kernel_outcome(graph, v, loads, open_gates,
                                            None)
                    if reference[0] == "ok":
                        assert direct == reference, (kind, channel, v)
                    else:
                        assert direct is None, (kind, channel, v, reference)
    assert edges >= 20


def test_every_topology_and_gate_subset_serves_from_the_kernel():
    for kind, graph in GRAPHS.items():
        for open_gates in gate_subsets(graph):
            loads = TX if RADIO_GATE in open_gates else SLEEP
            for v in (1.2, 1.25, 1.3):
                assert outcome(graph.solve, v, loads, open_gates, None) \
                    == outcome(graph._solve_interpreted, v, loads,
                               open_gates, None)
            entry = compiled_scalar_kernel_for(graph, open_gates)
            assert entry.verified, f"{kind} {sorted(open_gates)}"
    metrics = kernel_metrics()
    assert metrics.scalar_compiles == sum(
        len(list(gate_subsets(graph))) for graph in GRAPHS.values())
    assert metrics.scalar_verifications == metrics.scalar_compiles
    assert metrics.scalar_mismatches == 0
    assert sum(metrics.scalar_fallbacks.values()) == 0


# ---------------------------------------------------------------------------
# Verification, retirement, and the fallback counters
# ---------------------------------------------------------------------------


def test_first_use_verifies_then_trusts():
    graph = RailGraph(get_rail_spec("cots"))
    graph.solve(1.25, SLEEP)
    graph.solve(1.25, SLEEP)
    graph.solve(1.3, SLEEP)
    metrics = kernel_metrics()
    assert metrics.scalar_compiles == 1
    assert metrics.scalar_verifications == 1
    assert compiled_scalar_kernel_for(graph).verified


def test_equal_specs_share_one_kernel():
    RailGraph(get_rail_spec("ic")).solve(1.25, SLEEP)
    RailGraph(get_rail_spec("ic")).solve(1.25, SLEEP)
    assert kernel_metrics().scalar_compiles == 1


def test_diverging_kernel_is_retired_for_good():
    graph = RailGraph(get_rail_spec("cots"))
    entry = compiled_scalar_kernel_for(graph)
    real_fn = entry.fn

    def corrupted(*args):
        i_source, currents, names = real_fn(*args)
        return i_source + 1e-12, currents, names

    entry.fn = corrupted
    expected = outcome(graph._solve_interpreted, 1.25, SLEEP,
                       frozenset(), None)
    assert outcome(graph.solve, 1.25, SLEEP, frozenset(), None) == expected
    assert entry.failed and "diverged bitwise" in entry.failure
    assert outcome(graph.solve, 1.25, SLEEP, frozenset(), None) == expected
    metrics = kernel_metrics()
    assert metrics.scalar_mismatches == 1
    assert metrics.scalar_fallbacks["failed-kernel"] == 1


@pytest.mark.parametrize("behaviour", ["declines", "raises"])
def test_kernel_rejecting_a_solvable_point_is_retired(behaviour):
    graph = RailGraph(get_rail_spec("ic"))
    entry = compiled_scalar_kernel_for(graph)

    def broken(*args):
        if behaviour == "raises":
            raise ZeroDivisionError("boom")
        return None

    entry.fn = broken
    expected = outcome(graph._solve_interpreted, 1.25, SLEEP,
                       frozenset(), None)
    assert outcome(graph.solve, 1.25, SLEEP, frozenset(), None) == expected
    assert entry.failed and "declined" in entry.failure
    assert kernel_metrics().scalar_mismatches == 1


def test_kernel_accepting_a_rejected_point_is_retired():
    graph = RailGraph(get_rail_spec("cots"))
    entry = compiled_scalar_kernel_for(graph)
    real_fn = entry.fn
    entry.fn = lambda v, *rest: real_fn(1.25, *rest)  # ignores v
    with pytest.raises(ElectricalError, match="outside"):
        graph.solve(0.5, SLEEP)
    assert entry.failed and "rejects" in entry.failure
    assert kernel_metrics().scalar_mismatches == 1


def test_out_of_envelope_points_hand_off_and_keep_the_kernel():
    graph = RailGraph(get_rail_spec("cots"))
    graph.solve(1.25, SLEEP)  # verify
    for v in (0.85, 0.95, 1.9):
        assert outcome(graph.solve, v, SLEEP, frozenset(), None) \
            == outcome(graph._solve_interpreted, v, SLEEP, frozenset(),
                       None)
        assert outcome(graph.solve, v, SLEEP, frozenset(), None)[0] \
            == "error"
    entry = compiled_scalar_kernel_for(graph)
    assert entry.verified and not entry.failed
    metrics = kernel_metrics()
    assert metrics.scalar_fallbacks == {
        "disabled-converter": 0, "failed-kernel": 0, "envelope": 6}


def test_disabled_converter_routes_to_the_interpreter():
    graph = RailGraph(get_rail_spec("cots"))
    converter = graph.component("tps60313")
    converter.disable()
    try:
        assert outcome(graph.solve, 1.25, SLEEP, frozenset(), None) \
            == outcome(graph._solve_interpreted, 1.25, SLEEP, frozenset(),
                       None)
        assert kernel_metrics().scalar_fallbacks["disabled-converter"] == 1
    finally:
        converter.enable()
    graph.solve(1.25, SLEEP)
    metrics = kernel_metrics()
    assert metrics.scalar_fallbacks["disabled-converter"] == 1
    assert metrics.scalar_verifications == 1


def test_gate_containers_follow_membership_like_the_walk():
    graph = RailGraph(get_rail_spec("cots"))
    for gates in ({RADIO_GATE}, [RADIO_GATE], (RADIO_GATE,),
                  frozenset({RADIO_GATE, "not-a-gate"})):
        assert outcome(graph.solve, 1.25, TX, gates, None) \
            == outcome(graph._solve_interpreted, 1.25, TX, gates, None)
    assert kernel_metrics().scalar_compiles == 1


def test_bad_inputs_raise_the_walks_errors():
    graph = RailGraph(get_rail_spec("ic"))
    cases = [
        ({"mcu": 1e-6, "bogus": 1.0}, None),
        ({"sensor": float("nan"), "mcu": -1.0}, None),
        (SLEEP, {"no-such-component": 2.0}),
    ]
    for loads, degradation in cases:
        got = outcome(graph.solve, 1.25, loads, frozenset(), degradation)
        assert got == outcome(graph._solve_interpreted, 1.25, loads,
                              frozenset(), degradation)
        assert got[:2] == ("error", "ConfigurationError")


def test_clear_and_reset_cover_the_scalar_target():
    graph = RailGraph(get_rail_spec("cots"))
    graph.solve(1.25, SLEEP)
    assert kernel_metrics().scalar_compiles == 1
    clear_kernel_cache()
    reset_kernel_metrics()
    assert kernel_metrics().scalar_compiles == 0
    assert graph not in kernel_compile._SCALAR_CONTEXTS
    graph.solve(1.25, SLEEP)
    assert kernel_metrics().scalar_compiles == 1


def test_golden_solves_run_on_the_kernel():
    """The 440 legacy goldens: every solved case is served by a
    verified kernel; only error cases reach the interpreter."""
    from tests.core.test_graph_equivalence import CASES

    errors = 0
    for case in CASES:
        train = make_power_train(case["kind"])
        if case["loss_factor"] != 1.0:
            train.set_degradation(case["loss_factor"])
        if case["radio"]:
            train.enable_radio()
        try:
            train.solve(case["v_battery"], LoadState(**case["loads"]))
        except ElectricalError:
            errors += 1
    assert errors == 440 - 287
    metrics = kernel_metrics()
    assert metrics.scalar_mismatches == 0
    assert metrics.scalar_fallbacks["failed-kernel"] == 0
    assert metrics.scalar_fallbacks["disabled-converter"] == 0
    assert 0 < metrics.scalar_fallbacks["envelope"] <= errors
    assert metrics.scalar_verifications == metrics.scalar_compiles


# ---------------------------------------------------------------------------
# Sources and state
# ---------------------------------------------------------------------------


def test_registry_yields_scalar_sources_for_every_gate_subset():
    scalar = [(kind, sig) for kind, sig, source, _ in
              iter_registered_kernel_sources()
              if source is not None and "def _scalar(" in source]
    expected = sum(len(list(gate_subsets(graph)))
                   for graph in GRAPHS.values())
    assert len(scalar) == expected
    assert {kind for kind, _ in scalar} == set(ALL_KINDS)


def test_scalar_source_is_pure_python_and_deterministic():
    first = scalar_kernel_source(RailGraph(get_rail_spec("ic")),
                                 frozenset({RADIO_GATE}))
    second = scalar_kernel_source(RailGraph(get_rail_spec("ic")),
                                  frozenset({RADIO_GATE}))
    assert first == second
    assert "def _scalar(" in first
    for banned in ("np.", "import", "exec", "eval"):
        assert banned not in first


def test_kernels_stay_out_of_graph_and_train_state():
    train = make_power_train("ic")
    train.enable_radio()
    loads = LoadState(i_mcu=250e-6, i_radio_rf=4e-3)
    before = train.solve(1.25, loads)
    assert kernel_metrics().scalar_compiles == 1
    blob = pickle.dumps(train)
    assert b"ScalarKernel" not in blob and b"_scalar" not in blob
    clone = pickle.loads(blob)
    after = clone.solve(1.25, loads)
    assert after.i_battery.hex() == before.i_battery.hex()
    assert kernel_metrics().scalar_compiles == 1  # shared by plan digest


def test_checkpoint_resume_with_compiled_solves_is_bit_identical(
        tmp_path, monkeypatch):
    """A chaos run (faults degrade components) solved through kernels,
    killed at a checkpoint, written to disk and resumed, ends float-hex
    identical to the uninterrupted run and to an interpreter-only run."""
    params = {"duration_s": 1200.0, "profile": "harsh", "seed": 31}
    scenario = {"kind": "chaos", "params": params}

    node, _ = cp.build_scenario("chaos", params)
    node.run_until_time(params["duration_s"])
    plain = cp.node_fingerprint(node)
    metrics = kernel_metrics()
    assert metrics.scalar_compiles >= 1
    assert metrics.scalar_mismatches == 0
    assert metrics.scalar_fallbacks["failed-kernel"] == 0

    node, injector = cp.build_scenario("chaos", params)
    saved = []
    node.run_until_time(
        params["duration_s"], checkpoint_every=400.0,
        on_checkpoint=lambda paused: saved.append(cp.save_checkpoint(
            paused, injector, scenario=scenario,
            meta={"end_time": params["duration_s"]})),
    )
    assert saved
    path = str(tmp_path / "trial.ckpt")
    cp.write_checkpoint(saved[0], path)
    with open(path, "rb") as handle:
        assert b"ScalarKernel" not in handle.read()
    clear_kernel_cache()  # the resumed run rebuilds its kernels
    resumed, _ = cp.resume_run(cp.read_checkpoint(path))
    assert cp.node_fingerprint(resumed) == plain

    def interpreted(graph, v, *channel_loads_and_state):
        *channel_loads, open_gates, degradation = channel_loads_and_state
        loads = dict(zip(CHANNELS, channel_loads))
        solution = graph._solve_interpreted(v, loads, open_gates,
                                            degradation)
        return solution.i_source, None, None

    monkeypatch.setattr("repro.core.power_train.solve_scalar", interpreted)
    node, _ = cp.build_scenario("chaos", params)
    node.run_until_time(params["duration_s"])
    assert cp.node_fingerprint(node) == plain
