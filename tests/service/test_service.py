"""The campaign service end to end: streaming, dedup, restart resume.

Every test runs a real server on an ephemeral loopback port with a real
(small) worker pool — the same code path ``python -m repro serve``
exercises — and drives it through :class:`repro.service.ServiceClient`.
"""

import json
import threading

import pytest

from repro import campaigns
from repro.service import CampaignService, ServiceClient, job_key, jsonable
from repro.service import ProtocolError, normalize_request
from repro.service.server import MAX_LINE_BYTES
from repro.sim import checkpoint as cp


@pytest.fixture
def service(monkeypatch, tmp_path):
    """A running service with a private cache root, stopped afterwards."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    svc = CampaignService(workers=2, checkpoint_every=300.0)
    thread = threading.Thread(target=svc.run_forever, daemon=True)
    thread.start()
    assert svc.wait_ready(30.0)
    yield svc
    svc.shutdown()
    thread.join(60.0)
    assert not thread.is_alive()


def connect(svc):
    host, port = svc.address
    return ServiceClient(host, port)


# ---------------------------------------------------------------------------
# basics
# ---------------------------------------------------------------------------


def test_ping_and_unknown_type(service):
    with connect(service) as client:
        pong = client.ping()
        assert pong["type"] == "pong" and pong["protocol"] == 1
        client.send({"type": "frobnicate"})
        error = client.recv()
        assert error["type"] == "error"
        assert "frobnicate" in error["message"]


def test_bad_submit_is_refused_not_fatal(service):
    with connect(service) as client:
        refused = client.submit("nonsense", {})
        assert refused["type"] == "error"
        # The connection survives and still serves work.
        assert client.ping()["type"] == "pong"


def test_oversize_line_is_refused_and_closes_only_its_connection(service):
    """A request line past the server's line limit gets an error reply,
    then that connection closes; other clients are unaffected."""
    with connect(service) as client:
        client._sock.sendall(
            b'{"type": "ping", "pad": "' + b"x" * 70_000 + b'"}\n'
        )
        error = client.recv()
        assert error["type"] == "error" and error["job"] is None
        assert str(MAX_LINE_BYTES) in error["message"]
        with pytest.raises(ProtocolError, match="closed the connection"):
            client.recv()
    with connect(service) as other:
        assert other.ping()["type"] == "pong"


def test_campaign_streams_progress_then_result(service):
    with connect(service) as client:
        accepted, progress, final = client.collect(
            "chaos", {"trials": 8, "duration_s": 900.0}
        )
        assert accepted["deduped"] is False
        assert final["type"] == "result"
        assert len(final["value"]) == 8
        assert all(row["~type"] == "ChaosOutcome" for row in final["value"])
        assert progress, "no progress events streamed"
        assert progress[-1]["done"] == progress[-1]["total"] == 8


def test_result_matches_direct_campaign_bit_for_bit(service):
    request = {"trials": 4, "duration_s": 1200.0, "profile": "harsh"}
    with connect(service) as client:
        _, _, final = client.collect("chaos", request)
    values, _ = campaigns.chaos_campaign(
        trials=4, duration_s=1200.0, profile="harsh", workers=1
    )
    assert json.dumps(final["value"], sort_keys=True) == json.dumps(
        jsonable(values), sort_keys=True
    )


# ---------------------------------------------------------------------------
# concurrency and the pending-interest table
# ---------------------------------------------------------------------------


def test_eight_concurrent_clients_dedupe_one_job(service):
    """Eight clients race to submit identical work: exactly one creates
    the job, the rest attach to it, and all eight stream the identical
    byte-for-byte result."""
    request = {"trials": 24, "duration_s": 3600.0, "profile": "harsh"}
    clients = [connect(service) for _ in range(8)]
    barrier = threading.Barrier(8)
    outcomes = [None] * 8

    def drive(slot):
        client = clients[slot]
        barrier.wait()
        accepted, progress, final = client.collect("chaos", request)
        outcomes[slot] = (accepted["deduped"], len(progress), final)

    threads = [
        threading.Thread(target=drive, args=(slot,)) for slot in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(300.0)
    try:
        assert all(outcome is not None for outcome in outcomes)
        created = [o for o in outcomes if o[0] is False]
        assert len(created) == 1, "exactly one client should create the job"
        payloads = {
            json.dumps(final["value"], sort_keys=True)
            for _, _, final in outcomes
        }
        assert len(payloads) == 1, "all clients must see the identical result"
        assert all(final["type"] == "result" for _, _, final in outcomes)
    finally:
        for client in clients:
            client.close()


def test_distinct_jobs_run_independently(service):
    with connect(service) as client:
        a = client.submit("steady", {"durations_s": [3600.0]})
        b = client.submit("steady", {"durations_s": [7200.0]})
        assert a["job"] != b["job"]
        finals = {}
        for _ in range(2):
            for event in client.events(a["job"] if a["job"] not in finals
                                       else b["job"]):
                if event["type"] in ("result", "error"):
                    finals[event["job"]] = event
                    break
        assert finals[a["job"]]["type"] == "result"
        assert finals[b["job"]]["type"] == "result"


def test_finished_jobs_replay_from_the_store(service):
    request = {"trials": 4, "duration_s": 900.0}
    with connect(service) as client:
        _, _, first = client.collect("chaos", request)
        accepted, _, second = client.collect("chaos", request)
        # The job finished and left the pending-interest table; the
        # resubmission recomputes through the warm result store.
        assert accepted["deduped"] is False
        assert json.dumps(first["value"], sort_keys=True) == json.dumps(
            second["value"], sort_keys=True
        )
    assert service._store.stats.hits >= 4  # trials served from the store


# ---------------------------------------------------------------------------
# restart resume
# ---------------------------------------------------------------------------


def test_restart_resumes_journaled_job_from_checkpoint(monkeypatch, tmp_path):
    """Kill-restart drill without the kill: fabricate the on-disk state a
    SIGKILLed server leaves behind — a journaled job plus a mid-trial
    checkpoint — then boot a fresh server and assert it finishes the
    job, serves the bit-identical result, and cleans up the journal."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))

    request = {"trials": 2, "duration_s": 1800.0, "profile": "harsh",
               "base_seed": 77}
    params = normalize_request("chaos", request)
    key = job_key("chaos", params)

    # The journal a killed server would have left.
    jobs_dir = cache / "jobs"
    jobs_dir.mkdir(parents=True)
    (jobs_dir / f"job-{key}.json").write_text(json.dumps({
        "protocol": 1, "key": key, "kind": "chaos", "params": params,
    }))
    # A partial checkpoint for trial 0, abandoned mid-run at t=600.
    from repro.runner import derive_seed
    seed0 = derive_seed(77, 0, "harsh")
    node, injector = cp.build_scenario(
        "chaos",
        {"duration_s": 1800.0, "profile": "harsh", "seed": seed0},
    )
    grabbed = []
    node.run_until_time(
        660.0, checkpoint_every=600.0,
        on_checkpoint=lambda paused: grabbed.append(cp.save_checkpoint(
            paused, injector,
            scenario={"kind": "chaos", "params": {
                "duration_s": 1800.0, "profile": "harsh", "seed": seed0,
            }},
            meta={"end_time": 1800.0},
        )),
    )
    assert grabbed
    ckpt_dir = cache / "checkpoints"
    cp.write_checkpoint(
        grabbed[-1], str(ckpt_dir / f"chaos-harsh-1800-{seed0}.ckpt")
    )

    # What an uninterrupted run produces (no service, no store).
    values, _ = campaigns.chaos_campaign(
        trials=2, duration_s=1800.0, profile="harsh", base_seed=77, workers=1
    )
    expected = json.dumps(jsonable(values), sort_keys=True)

    svc = CampaignService(workers=2, checkpoint_every=600.0)
    thread = threading.Thread(target=svc.run_forever, daemon=True)
    thread.start()
    assert svc.wait_ready(30.0)
    try:
        with connect(svc) as client:
            accepted = client.submit("chaos", request)
            assert accepted["type"] == "accepted"
            # The restarted server already journaled-resumed this job.
            assert accepted["deduped"] is True
            final = None
            for event in client.events(accepted["job"]):
                final = event
        assert final["type"] == "result"
        assert json.dumps(final["value"], sort_keys=True) == expected
    finally:
        svc.shutdown()
        thread.join(60.0)
    # Completion cleaned up the durable droppings.
    assert list(jobs_dir.iterdir()) == []
    assert not (ckpt_dir / f"chaos-harsh-1800-{seed0}.ckpt").exists()


def test_corrupt_journal_is_dropped_on_startup(monkeypatch, tmp_path):
    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    jobs_dir = cache / "jobs"
    jobs_dir.mkdir(parents=True)
    (jobs_dir / "job-bogus.json").write_text("{corrupt")
    svc = CampaignService(workers=1)
    thread = threading.Thread(target=svc.run_forever, daemon=True)
    thread.start()
    assert svc.wait_ready(30.0)
    try:
        with connect(svc) as client:
            assert client.ping()["type"] == "pong"
        assert list(jobs_dir.iterdir()) == []
    finally:
        svc.shutdown()
        thread.join(60.0)


def test_clean_shutdown_via_protocol(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    svc = CampaignService(workers=1)
    thread = threading.Thread(target=svc.run_forever, daemon=True)
    thread.start()
    assert svc.wait_ready(30.0)
    with connect(svc) as client:
        assert client.shutdown()["type"] == "bye"
    thread.join(60.0)
    assert not thread.is_alive()
