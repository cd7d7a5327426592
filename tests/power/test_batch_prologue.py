"""The input contract of ``RailGraph.solve_batch``, one row per form.

Each row is a call of ``solve_batch`` and what it must give: either a
batch equal, byte for byte, to the loop of scalar solves in
``batch_reference.py`` (and served by a compiled kernel), or one exact
error type and message.  Every row runs against a cold kernel cache
(the first call verifies the kernel against the loop) and against warm
kernels for every gate signature (the kernel answers directly), and
both must agree with the row.

The rows cover the forms the package itself passes (the cohort's lock
step, the campaign's sleep probe, the optimizer's per-point radio
mask), the other forms the conversion accepts, and every input error
in the order the conversion reports them.
"""

import numpy as np
import pytest

from repro.power.compile import clear_kernel_cache, kernel_metrics
from repro.power.graph import RailGraph
from repro.power.rail_topologies import RADIO_GATE, get_rail_spec

from .batch_reference import assert_matches_scalar_loop, outcome, scalar_loop

N = 16
V = np.linspace(1.15, 1.40, N)
COHORT_N = 1000
COHORT_V = np.linspace(1.15, 1.40, COHORT_N)
COHORT_RF = np.random.default_rng(5).uniform(0.0, 1e-3, COHORT_N)
MASK = np.arange(N) % 3 == 0
FACTOR = 1.0 + np.arange(N) / 64.0

#: Low enough at points 5 and 9 that the COTS pump has no workable
#: gain; the error names point 5, the first the scalar loop meets.
V_DIP = V.copy()
V_DIP[[5, 9]] = [0.55, 0.5]

_NAN_AT_3 = np.full(N, 1e-6)
_NAN_AT_3[3] = np.nan
_INF_AT_4 = np.full(N, 1e-6)
_INF_AT_4[4] = np.inf
_NEG_AT_2 = np.full(N, 1e-6)
_NEG_AT_2[2] = -1e-9

OK = "ok"

#: Every input error names the graph first.
_P = "cots-power-train: "


def _row(name, v, loads, gates=frozenset(), degradation=None, kind="cots",
         expect=OK):
    return pytest.param(kind, v, loads, gates, degradation, expect, id=name)


ROWS = [
    # -- forms the package passes -------------------------------------------
    _row("cohort-cots", COHORT_V,
         {"mcu": 1e-6, "sensor": 3e-7, "radio-digital": 2e-5,
          "radio-rf": COHORT_RF},
         frozenset({RADIO_GATE}), {}),
    _row("cohort-ic", COHORT_V,
         {"mcu": 1e-6, "sensor": 3e-7, "radio-digital": 2e-5,
          "radio-rf": COHORT_RF},
         frozenset({RADIO_GATE}), {}, kind="ic"),
    _row("cohort-sleep", COHORT_V, {"mcu": 7e-7, "sensor": 3e-7,
                                    "radio-digital": 0.0, "radio-rf": 0.0},
         frozenset(), {}),
    _row("campaign-sleep-probe", 1.2, {"mcu": 0.7e-6, "sensor": 0.3e-6},
         frozenset(), {}),
    _row("optimizer-radio-mask", 1.25,
         {"mcu": np.array([0.7e-6, 250e-6]),
          "sensor": np.array([0.3e-6, 450e-6]),
          "radio-digital": np.array([0.0, 50e-6]),
          "radio-rf": np.array([0.0, 4e-3])},
         {RADIO_GATE: np.array([False, True])}),
    # -- other accepted forms -------------------------------------------------
    _row("list-load", V, {"mcu": [1e-6] * N}),
    _row("int-load", V, {"mcu": 0, "sensor": 1e-6}),
    _row("zero-d-load", V, {"mcu": np.array(1e-6), "sensor": np.float64(3e-7)}),
    _row("float32-axis", V.astype(np.float32), {"mcu": 1e-6}),
    _row("scalar-axis-array-load", 1.3, {"mcu": np.full(N, 1e-6)}),
    _row("length-one-load", V, {"mcu": np.array([1e-6])}),
    _row("empty-batch", np.zeros(0), {"mcu": 1e-6}),
    _row("set-gates", V, {"mcu": 1e-6, "radio-rf": 1e-3}, {RADIO_GATE}),
    _row("set-with-foreign-gate", V, {"mcu": 1e-6},
         frozenset({RADIO_GATE, "no-such-gate"})),
    _row("mask-bool-true", V, {"mcu": 1e-6, "radio-rf": 1e-3},
         {RADIO_GATE: True}),
    _row("mask-bool-false", V, {"mcu": 1e-6}, {RADIO_GATE: False}),
    _row("mask-numpy-bool", V, {"mcu": 1e-6}, {RADIO_GATE: np.True_}),
    _row("mask-list", V, {"mcu": 1e-6, "radio-rf": 1e-3},
         {RADIO_GATE: MASK.tolist()}),
    _row("mask-array", V, {"mcu": 1e-6, "radio-rf": np.full(N, 1e-3)},
         {RADIO_GATE: MASK}),
    _row("mask-int-array", V, {"mcu": 1e-6, "radio-rf": 1e-3},
         {RADIO_GATE: MASK.astype(int)}),
    _row("degradation-scalar", V, {"mcu": 1e-6},
         frozenset(), {"mcu-tap": 1.25, "tps60313": 1.0}),
    _row("degradation-int", V, {"mcu": 1e-6}, frozenset(), {"mcu-tap": 2}),
    _row("degradation-per-point", V, {"mcu": 1e-6, "radio-rf": 1e-3},
         {RADIO_GATE: MASK}, {"radio-rf-tap": FACTOR, "mcu-tap": 1.1}),
    _row("degradation-list", V, {"mcu": 1e-6}, frozenset(),
         {"tps60313": FACTOR.tolist()}),
    # -- input errors, in the order they are reported -------------------------
    _row("two-d-voltage", V.reshape(2, -1), {"mcu": 1e-6},
         expect=("ConfigurationError",
                 _P + "v_source must be a scalar or a 1-D batch, got "
                 "shape (2, 8)")),
    _row("two-d-load", V, {"mcu": np.zeros((2, N))},
         expect=("ConfigurationError",
                 _P + "load 'mcu' must be a scalar or a 1-D batch, got "
                 "shape (2, 16)")),
    _row("untapped-channel", V, {"mcu": 1e-6, "flux-capacitor": 1e-6},
         expect=("ConfigurationError",
                 _P + "load on untapped channel 'flux-capacitor'")),
    _row("unknown-gate", V, {"mcu": 1e-6}, {"warp": True},
         expect=("ConfigurationError",
                 _P + "no gate group 'warp'; gates: radio")),
    _row("bad-degradation-key", V, {"mcu": 1e-6}, frozenset(),
         {"nonesuch": 1.5},
         expect=("ConfigurationError",
                 _P + "no component 'nonesuch' to degrade; components: "
                 "battery, tps60313, mcu-tap, sensor-tap, "
                 "radio-digital-shunt, radio-digital-tap, "
                 "ldo-input-switch, lt3020, radio-rf-tap")),
    _row("no-broadcast-load", V, {"mcu": np.zeros(N + 3)},
         expect=("ConfigurationError",
                 _P + "batch inputs do not broadcast: [(16,), (19,)]")),
    _row("no-broadcast-mask", V, {"mcu": 1e-6},
         {RADIO_GATE: np.ones(N + 1, dtype=bool)},
         expect=("ConfigurationError",
                 _P + "batch inputs do not broadcast: [(16,), (), (17,)]")),
    _row("no-broadcast-degradation", V, {"mcu": 1e-6}, frozenset(),
         {"mcu-tap": np.ones(N - 1)},
         expect=("ConfigurationError",
                 _P + "batch inputs do not broadcast: [(16,), (), (15,)]")),
    _row("nan-load", V, {"mcu": _NAN_AT_3},
         expect=("ConfigurationError",
                 _P + "load 'mcu' must be finite and >= 0, got nan at "
                 "batch point 3")),
    _row("inf-load", V, {"sensor": _INF_AT_4},
         expect=("ConfigurationError",
                 _P + "load 'sensor' must be finite and >= 0, got inf at "
                 "batch point 4")),
    _row("negative-load", V, {"mcu": _NEG_AT_2},
         expect=("ConfigurationError",
                 _P + "load 'mcu' must be finite and >= 0, got -1e-09 at "
                 "batch point 2")),
    _row("negative-scalar-load", V, {"mcu": -1e-6},
         expect=("ConfigurationError",
                 _P + "load 'mcu' must be finite and >= 0, got -1e-06 at "
                 "batch point 0")),
    _row("nan-scalar-load-scalar-axis", 1.3, {"mcu": float("nan")},
         expect=("ConfigurationError",
                 _P + "load 'mcu' must be finite and >= 0, got nan at "
                 "batch point 0")),
    _row("bad-values-in-channel-order", V,
         {"mcu": _NEG_AT_2[::-1].copy(), "sensor": _NAN_AT_3},
         expect=("ConfigurationError",
                 _P + "load 'mcu' must be finite and >= 0, got -1e-09 at "
                 "batch point 13")),
    _row("untapped-before-bad-value", V,
         {"mcu": float("nan"), "flux-capacitor": 1e-6},
         expect=("ConfigurationError",
                 _P + "load on untapped channel 'flux-capacitor'")),
    _row("broadcast-before-bad-value", V,
         {"mcu": float("nan"), "sensor": np.zeros(3)},
         expect=("ConfigurationError",
                 _P + "batch inputs do not broadcast: [(16,), (), (3,)]")),
    _row("bad-value-before-gate", V, {"mcu": -1.0}, {"warp": True},
         expect=("ConfigurationError",
                 _P + "load 'mcu' must be finite and >= 0, got -1.0 at "
                 "batch point 0")),
    _row("gate-before-degradation", V, {"mcu": 1e-6}, {"warp": True},
         {"nonesuch": 1.5},
         expect=("ConfigurationError",
                 _P + "no gate group 'warp'; gates: radio")),
    _row("lowest-out-of-envelope-point", V_DIP, {"mcu": 1e-6},
         expect=("ElectricalError",
                 "tps60313: voltage 0.550 V outside [0.900, 1.800] V")),
]


def _warm_every_signature(graph):
    """Verify the kernel of each gate signature of ``graph``."""
    for gates in (frozenset(), frozenset({RADIO_GATE}), {RADIO_GATE: MASK}):
        graph.solve_batch(V, {"mcu": 1e-6}, open_gates=gates)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("kind, v, loads, gates, degradation, expect", ROWS)
def test_batch_prologue_row(kind, v, loads, gates, degradation, expect,
                            warm):
    clear_kernel_cache()
    graph = RailGraph(get_rail_spec(kind))
    if warm:
        _warm_every_signature(graph)
    before = kernel_metrics()
    result = []

    def call():
        result.append(graph.solve_batch(v, loads, open_gates=gates,
                                        degradation=degradation))

    got = outcome(call)
    if expect != OK:
        assert got == expect
        return
    assert got == (OK, None)
    (batch,) = result
    assert_matches_scalar_loop(batch, scalar_loop(
        graph, v, loads, open_gates=gates, degradation=degradation))
    after = kernel_metrics()
    served = after.kernel_solves - before.kernel_solves
    assert after.fallbacks == before.fallbacks
    assert after.mismatches == 0
    # An empty batch has nothing to verify, so cold it is answered by
    # the (empty) scalar loop.
    assert served == (0 if len(batch) == 0 and not warm else 1)
    if warm:
        assert after.verifications == before.verifications
