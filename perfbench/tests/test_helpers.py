"""Tests of the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import os

import numpy as np
import pytest

import layers
import serve_mix
import tracer as tracing
import wl_city
import wl_year
from common import Ledger, digest, latency_summary, tail_percentile

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def spans_of(rows, names):
    """A span table from ``(id, name, start, end, parent)`` rows."""
    ids, name, start, end, parent = (np.array(c) for c in zip(*rows))
    return tracing.Spans(
        start=start.astype(float), end=end.astype(float),
        name=np.array([names.index(n) for n in name]),
        parent=parent.astype(np.int64), request=np.zeros(len(rows), int),
        process=np.zeros(len(rows), int), span_id=ids.astype(np.int64),
        names=names, requests=[""], counters={}, errors={})


def test_self_time_subtracts_only_direct_children():
    names = ["outer", "mid", "leaf"]
    spans = spans_of([
        (0, "outer", 0.0, 10.0, -1),
        (1, "mid", 1.0, 5.0, 0),
        (2, "leaf", 2.0, 3.0, 1),
        (3, "leaf", 3.5, 4.0, 1),
        (4, "mid", 6.0, 9.0, 0),
    ], names)
    assert tracing.self_times(spans).tolist() == [3.0, 2.5, 1.0, 0.5, 3.0]
    assert tracing.per_name(spans) == {
        "outer": (1, 3.0), "mid": (2, 5.5), "leaf": (2, 1.5)}
    assert tracing.per_name(spans, "mid") == {
        "outer": (0, 0.0), "mid": (0, 0.0), "leaf": (2, 1.5)}


def test_wrapped_calls_record_parent_links_and_requests(tmp_path):
    tracer = tracing.Tracer()

    def leaf():
        return 1

    leaf_w = tracer.wrap("leaf", leaf)

    def outer():
        return leaf_w() + leaf_w()

    outer_w = tracer.wrap("outer", outer)
    tracer.set_request("op7")
    assert outer_w() == 2
    path = str(tmp_path / "spans.npz")
    tracer.dump(path)
    spans = tracing.load([path])
    assert len(spans) == 3
    roots = spans.parent < 0
    assert [spans.names[n] for n in spans.name[roots]] == ["outer"]
    assert (spans.parent[~roots] == spans.span_id[roots][0]).all()
    assert {spans.requests[r] for r in spans.request} == {"op7"}
    own = tracing.self_times(spans)
    outer_row = np.flatnonzero(roots)[0]
    children = (spans.end - spans.start)[~roots].sum()
    assert own[outer_row] == pytest.approx(
        spans.end[outer_row] - spans.start[outer_row] - children)
    assert tracing.covered_seconds(
        spans, "op7", spans.start.min(), spans.end.max()
    ) == pytest.approx(spans.end[outer_row] - spans.start[outer_row])


def test_install_reaches_every_binding_and_uninstall_restores():
    from repro.core import energy_audit
    from repro.net import cohort

    original = energy_audit.audit_node
    tracer = tracing.Tracer()
    tracer.install("repro.core.energy_audit:audit_node", "audit")
    try:
        assert cohort.audit_node is energy_audit.audit_node
        assert cohort.audit_node is not original
    finally:
        tracer.uninstall()
    assert energy_audit.audit_node is original
    assert cohort.audit_node is original


def test_p90_flags_fewer_than_ten_samples_beyond_it():
    assert tail_percentile(list(range(100))) == (89, 10)
    assert tail_percentile(list(range(99))) == (89, 9)
    short = latency_summary([3.0, 1.0, 2.0])
    assert short["p50"] == 2.0 and short["p90"] == 3.0
    assert short["mean"] == 2.0
    assert short["beyond_p90"] == 0 and not short["p90_solid"]
    full = latency_summary([float(v) for v in range(200)])
    assert full["p90"] == 179.0 and full["p90_solid"]
    assert full["beyond_p90"] == 20


def test_ledger_counts_each_operation_once():
    ledger = Ledger()
    assert ledger.record([])
    assert not ledger.record(["digest differs", "no leap"])
    ledger.record([])
    ledger.record(["raised"])
    assert (ledger.attempted, ledger.failed) == (4, 2)
    assert ledger.reasons == ["digest differs; no leap", "raised"]


def test_serve_judge_fails_wrong_value_cold_hit_and_missed_dedup():
    def sample(kind, seed, segment=0, deduped=False, value=1, hits=0):
        s = serve_mix.Sample(kind, segment, seed)
        s.deduped = deduped
        s.final = {"type": "result", "value": value,
                   "stats": {"cache_hits": hits, "tasks_total": 2}}
        return s

    expected = {1: "1", 2: "1", 3: "1"}
    samples = [
        sample("cold", 1),                       # fine
        sample("warm", 1, hits=2),               # fine
        sample("warm", 1, hits=1),               # recomputed
        sample("cold", 2, value=2),              # wrong value
        sample("dup", 3), sample("dup", 3),      # neither deduplicated
    ]
    ledger = Ledger()
    serve_mix.judge(samples, expected, ledger)
    assert (ledger.attempted, ledger.failed) == (6, 4)


def test_serve_plan_is_a_function_of_the_seed():
    a, b = serve_mix.Mix(4), serve_mix.Mix(4)
    for mix in (a, b):
        for segment in range(3):
            for conn in (0, 1):
                mix._planned[(conn, segment)] = mix.plan(conn, segment)
    def flat(mix):
        return [(key, s.kind, s.base_seed)
                for key, phases in sorted(mix._planned.items())
                for jobs in phases for s in jobs]

    assert flat(a) == flat(b)
    warm = [seed for _, kind, seed in flat(a) if kind == "warm"]
    assert set(a.primed) & set(warm), "no warm job reads a primed entry"
    cold = [seed for _, kind, seed in flat(a) if kind == "cold"]
    assert len(set(cold)) == len(cold)


def test_digests_are_stable_across_two_runs():
    from repro import campaigns
    from repro.core import audit_node, build_steady_tpms_node
    from repro.service import jsonable

    def year():
        node = build_steady_tpms_node(fast_forward=True)
        node.run(3600.0)
        return wl_year.outcome_digest(node, audit_node(node))

    assert year() == year()

    state = {"seed": 5, "digests": {},
             "scenarios": {0: wl_city.scenario(5, 0, nodes=600,
                                               duration_s=60.0)}}
    delta = {"fallbacks": 0, "mismatches": 0}
    for _ in range(2):
        problems, cycles = wl_city.check(state, 0, wl_city.run(state, 0),
                                         delta)
        assert problems == [] and cycles > 0
    assert len(state["digests"]) == 1

    def chaos():
        values, _ = campaigns.chaos_campaign(
            **serve_mix.params(11), workers=1)
        return serve_mix.value_text(jsonable(values))

    assert chaos() == chaos()
    assert digest({"x": 0.1}) != digest({"x": 0.1 + 2 ** -55})


def test_benchmark_json_matches_the_layers_and_the_ledger():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    with open(os.path.join(BENCH, "ledger.json")) as handle:
        ledger = json.load(handle)
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == layers.metric_names()
    in_ledger = [m for entry in ledger["layers"] for m in entry["metrics"]]
    assert sorted(in_ledger) == sorted(per_layer)
    workloads = {w["name"] for w in spec["workloads"]}
    for entry in ledger["layers"]:
        assert set(entry["on"]) | set(entry["bypassed_on"]) <= workloads
    names = {m["name"] for m in spec["end_to_end"]}
    assert "setup_s" in names
    for entry in ledger["layers"]:
        for moved in entry["moves"]:
            assert moved.split()[0].rstrip(",") in names
