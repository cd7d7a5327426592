"""``serve_mix``: two closed-loop clients of ``python -m repro serve``.

One load-generator process (this one) opens two connections.  Each runs
a closed loop, waiting for a job's result before it submits the next,
over chaos campaigns of three kinds:

* **cold**: a fresh base seed, so the server's pool computes the trials,
  writes checkpoints, puts results in the store and journals the job;
* **warm**: a repeat of a finished job, answered from the store.  The
  first jobs of the run were computed by an earlier server process on
  the same cache directory, so their first reads come from disk;
* **duplicate**: the same fresh job submitted on both connections at
  once, which the server's pending-interest table deduplicates.

The loop runs in segments.  In each, both connections run their cold
jobs and meet; connection 0 runs its warm jobs (a seeded number), then
connection 1 runs its own; then both submit the segment's duplicate job
together and meet again.  Warm jobs pick from the jobs finished before
the segment began, so the whole job sequence is a function of the seed
alone, and they run one at a time while the pool is idle, so their
latency is that of the store path, not of waiting for a CPU.
Every job's ``value`` is compared with the
same campaign run in-process after the servers have stopped.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

import numpy as np

import layers
import tracer as tracing
from common import TAIL_SAMPLES, Ledger, latency_summary

#: One trial per job: two concurrent cold jobs then take one worker
#: each, so cold latency has one mode instead of two (queued or not).
TRIALS = 1
DURATION_S = 900.0
PROFILE = "mild"

#: Simulated seconds between a trial's checkpoints: two per trial.
CHECKPOINT_EVERY_S = 300.0

#: Jobs the first server computes, for the measured server to read.
PRIMED = 4
COLD_PER_SEGMENT = 4
#: The first few warm jobs after the cold phase run slower; with 30-40
#: per connection they stay a few percent of the samples, well below p90.
WARM_PER_SEGMENT = (30, 40)

#: Cold and warm samples each: p90 needs ten samples beyond it.
MIN_SAMPLES = 10 * TAIL_SAMPLES

#: Stop adding segments after this long, whatever the sample counts.
MAX_LOOP_S = 100.0

#: Segments the traced run repeats untraced and traced.
TRACE_SEGMENTS = 4

HERE = os.path.dirname(os.path.abspath(__file__))


def workers() -> int:
    """The server's pool size: two, and never more than the CPUs."""
    return max(1, min(2, os.cpu_count() or 1))


def params(base_seed: int) -> Dict[str, Any]:
    return {"trials": TRIALS, "duration_s": DURATION_S,
            "profile": PROFILE, "base_seed": base_seed}


def job_seed(seed: int, *path: Any) -> int:
    text = ":".join(str(p) for p in ("serve_mix", seed) + path)
    return int(hashlib.sha256(text.encode()).hexdigest()[:12], 16)


class Server:
    """One ``repro serve`` process, timed from start to its first pong."""

    def __init__(self, root: str, cache_dir: str, env: Dict[str, str],
                 trace_dir: Optional[str] = None) -> None:
        from repro.service import ServiceClient

        args = ["serve", "--port", "0", "--workers", str(workers()),
                "--checkpoint-every", str(CHECKPOINT_EVERY_S),
                "--cache-dir", cache_dir]
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro"] + args
        else:
            cmd = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                   trace_dir] + args
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                     env=env, cwd=root)
        banner = self.proc.stdout.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", banner)
        if not match:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"server did not start: {banner!r}")
        self._drain = threading.Thread(target=self.proc.stdout.read,
                                       daemon=True)
        self._drain.start()
        self.address = (match.group(1), int(match.group(2)))
        try:
            with ServiceClient(*self.address, timeout=60.0) as client:
                if client.ping().get("type") != "pong":
                    raise RuntimeError("server did not answer ping")
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self._drain.join(timeout=10)
            raise
        self.setup_s = time.perf_counter() - start

    def client(self):
        from repro.service import ServiceClient

        return ServiceClient(*self.address, timeout=120.0)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        try:
            with self.client() as client:
                client.shutdown()
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self._drain.join(timeout=10)


class Sample:
    """One submitted job, as a client saw it."""

    __slots__ = ("kind", "segment", "base_seed", "start", "end", "key",
                 "deduped", "final")

    def __init__(self, kind: str, segment: int, base_seed: int) -> None:
        self.kind = kind
        self.segment = segment
        self.base_seed = base_seed
        self.key: Optional[str] = None
        self.deduped = False
        self.final: Dict[str, Any] = {}

    @property
    def latency(self) -> float:
        return self.end - self.start


def submit(client, sample: Sample) -> Sample:
    sample.start = time.perf_counter()
    accepted = client.submit("chaos", params(sample.base_seed))
    if accepted.get("type") == "accepted":
        sample.key = accepted["job"]
        sample.deduped = bool(accepted.get("deduped"))
        for event in client.events(sample.key):
            sample.final = event
    else:
        sample.final = accepted
    sample.end = time.perf_counter()
    return sample


class Mix:
    """The seeded job sequence and the two client loops that run it."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.primed = [job_seed(seed, "primed", i) for i in range(PRIMED)]
        self.samples: List[Sample] = []
        self._planned: Dict[Any, List[Sample]] = {}
        self._lock = threading.Lock()

    def plan(self, conn: int, segment: int) -> List[List[Sample]]:
        """Connection ``conn``'s jobs in ``segment``, phase by phase:
        cold jobs, then warm jobs, connection 0's phase before 1's."""
        rng = random.Random(f"serve_mix:{self.seed}:{conn}:{segment}")
        earlier = [x for (c, t), phases in self._planned.items()
                   if t < segment for jobs in phases for x in jobs]
        read = {x.base_seed for x in earlier if x.kind == "warm"}
        unread = [b for b in self.primed[conn::2] if b not in read]
        finished = sorted(set(self.primed) | {
            x.base_seed for x in earlier if x.kind == "cold"} | {
            self.dup_seed(t) for t in range(segment)})
        cold = [Sample("cold", segment, job_seed(self.seed, "cold", conn,
                                                 segment, i))
                for i in range(COLD_PER_SEGMENT)]
        warm = []
        for _ in range(rng.randint(*WARM_PER_SEGMENT)):
            if unread and rng.random() < 0.5:
                warm.append(Sample("warm", segment, unread.pop(0)))
            else:
                warm.append(Sample("warm", segment, rng.choice(finished)))
        return [cold, warm, []] if conn == 0 else [cold, [], warm]

    def dup_seed(self, segment: int) -> int:
        return job_seed(self.seed, "dup", 0, segment, 0)

    def run(self, server: Server, seconds: float,
            segments: Optional[int] = None) -> float:
        """Run segments until ``seconds`` have passed and both kinds
        have :data:`MIN_SAMPLES` samples (or exactly ``segments``);
        returns the loop's wall time."""
        for conn in (0, 1):
            self._planned[(conn, 0)] = self.plan(conn, 0)
        stop = threading.Event()
        segment_box = [0]
        start = time.perf_counter()

        def decide() -> None:
            done = segment_box[0] + 1
            counts = self.counts()
            elapsed = time.perf_counter() - start
            if segments is not None:
                finished = done >= segments
            else:
                finished = elapsed >= MAX_LOOP_S or (
                    elapsed >= seconds and counts["cold"] >= MIN_SAMPLES
                    and counts["warm"] >= MIN_SAMPLES)
            if finished:
                stop.set()
                return
            segment_box[0] = done
            for conn in (0, 1):
                self._planned[(conn, done)] = self.plan(conn, done)

        meet = threading.Barrier(2)
        meet_after = threading.Barrier(2, action=decide)
        errors: List[BaseException] = []

        def loop(conn: int) -> None:
            try:
                with server.client() as client:
                    while not stop.is_set():
                        segment = segment_box[0]
                        for jobs in self._planned[(conn, segment)]:
                            for sample in jobs:
                                self._keep(submit(client, sample))
                            meet.wait()
                        self._keep(submit(client, Sample(
                            "dup", segment, self.dup_seed(segment))))
                        meet_after.wait()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
                meet.abort()
                meet_after.abort()

        threads = [threading.Thread(target=loop, args=(c,)) for c in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return time.perf_counter() - start

    def prime(self, server: Server) -> None:
        """Compute the primed jobs on ``server``, two connections."""
        def loop(conn: int) -> None:
            with server.client() as client:
                for base_seed in self.primed[conn::2]:
                    self._keep(submit(client, Sample("primed", -1,
                                                     base_seed)))

        threads = [threading.Thread(target=loop, args=(c,)) for c in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def _keep(self, sample: Sample) -> None:
        with self._lock:
            self.samples.append(sample)

    def counts(self) -> Dict[str, int]:
        with self._lock:
            kinds = [s.kind for s in self.samples]
        return {"cold": kinds.count("cold") + kinds.count("dup"),
                "warm": kinds.count("warm")}


def value_text(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


def references(base_seeds: List[int]) -> Dict[int, str]:
    """Each job's value computed in-process, as wire-format text.

    The pool forks, as the server's does: a spawn pool would also start
    a resource-tracker process that outlives the benchmark.  The servers
    are stopped and the client threads joined by now, so nothing else
    runs in the forked copy.
    """
    from repro import campaigns
    from repro.service import jsonable

    context = multiprocessing.get_context("fork")
    with context.Pool(workers()) as pool:
        out = {}
        for base_seed in sorted(set(base_seeds)):
            values, _ = campaigns.chaos_campaign(**params(base_seed),
                                                 pool=pool)
            out[base_seed] = value_text(jsonable(values))
    return out


def judge(samples: List[Sample], expected: Dict[int, str],
          ledger: Ledger) -> None:
    """Count every sample as an operation; fail the wrong ones."""
    pairs: Dict[int, List[Sample]] = {}
    for sample in samples:
        if sample.kind == "dup":
            pairs.setdefault(sample.segment, []).append(sample)
    lone = {id(s) for pair in pairs.values() if len(pair) == 2
            and sum(s.deduped for s in pair) != 1 for s in pair}
    for sample in samples:
        problems = []
        final = sample.final
        if final.get("type") != "result":
            problems.append(f"{sample.kind} job: {final.get('message', final)}")
        else:
            stats = final["stats"]
            if value_text(final["value"]) != expected[sample.base_seed]:
                problems.append(f"{sample.kind} job value differs from the "
                                "in-process campaign")
            if sample.kind == "warm" and stats["cache_hits"] != stats["tasks_total"]:
                problems.append("warm job was not answered from the store")
            if sample.kind in ("cold", "primed") and stats["cache_hits"]:
                problems.append("cold job hit the store")
        if id(sample) in lone:
            problems.append("duplicate submissions were not deduplicated")
        ledger.record(problems)


def cycles_of(samples: List[Sample]) -> int:
    """Node cycles the server computed for these jobs (once per job)."""
    seen, total = set(), 0
    for sample in samples:
        if sample.kind in ("cold", "dup") and sample.key not in seen \
                and sample.final.get("type") == "result":
            seen.add(sample.key)
            total += sum(outcome["cycles"] for outcome in sample.final["value"])
    return total


def relabel_trials(spans, samples: List[Sample]) -> None:
    """Tag worker spans (request ``trial:<seed>``) with their job key."""
    from repro.runner import derive_seed

    key_of = {}
    for sample in samples:
        for k in range(TRIALS):
            key_of[f"trial:{derive_seed(sample.base_seed, k, PROFILE)}"] = \
                sample.key
    names = list(spans.requests)
    index = {name: i for i, name in enumerate(names)}
    mapping = np.arange(len(names))
    for i, name in enumerate(list(names)):
        key = key_of.get(name)
        if key is not None:
            if key not in index:
                index[key] = len(names)
                names.append(key)
            mapping[i] = index[key]
    spans.request = mapping[spans.request]
    spans.requests = names


def phase(root: str, state_dir: str, env: Dict[str, str], mix: Mix,
          seconds: float, segments: Optional[int],
          trace_dir: Optional[str] = None) -> Dict[str, Any]:
    """Prime on one server, run the loop on a second, stop both."""
    cache = os.path.join(state_dir, f"serve-{os.getpid()}")
    shutil.rmtree(cache, ignore_errors=True)
    try:
        primer = Server(root, cache, env, trace_dir)
        try:
            mix.prime(primer)
        finally:
            primer.stop()
        before = len(mix.samples)
        server = Server(root, cache, env, trace_dir)
        try:
            wall = mix.run(server, seconds, segments)
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        return {"setups": [primer.setup_s, server.setup_s], "wall": wall,
                "rss": rss, "loop": mix.samples[before:]}
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def run(args, root: str, state_dir: str, trace_dir: str,
        env: Dict[str, str]) -> Dict[str, Any]:
    os.makedirs(state_dir, exist_ok=True)
    ledger = Ledger()
    if not args.trace:
        mix = Mix(args.seed)
        measured = phase(root, state_dir, env, mix, args.seconds, None)
        cache = os.path.join(state_dir, f"serve-{os.getpid()}-extra")
        try:
            extra = Server(root, cache, env)
            extra.stop()
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        judge(mix.samples,
              references([s.base_seed for s in mix.samples]), ledger)
        loop = measured["loop"]
        cold = latency_summary([s.latency for s in loop
                                if s.kind in ("cold", "dup")])
        warm = latency_summary([s.latency for s in loop if s.kind == "warm"])
        wall = measured["wall"]
        return {
            "ledger": ledger.__dict__,
            "setups": measured["setups"] + [extra.setup_s],
            "samples": {"cold": cold, "warm": warm},
            "metrics": {
                "node_cycles_per_s": cycles_of(loop) / wall,
                "jobs_per_s": len(loop) / wall,
                "cold_job_p50_s": cold["p50"],
                "cold_job_p90_s": cold["p90"],
                "warm_job_mean_s": warm["mean"],
                "warm_job_p50_s": warm["p50"],
                "warm_job_p90_s": warm["p90"],
                "peak_rss_mb": measured["rss"],
            },
        }

    plain_mix, traced_mix = Mix(args.seed), Mix(args.seed)
    plain = phase(root, state_dir, env, plain_mix, 0.0, TRACE_SEGMENTS)
    traced = phase(root, state_dir, env, traced_mix, 0.0, TRACE_SEGMENTS,
                   trace_dir)
    expected = references([s.base_seed for s in plain_mix.samples])
    judge(plain_mix.samples, expected, ledger)
    judge(traced_mix.samples, expected, ledger)

    paths = [os.path.join(trace_dir, name) for name in os.listdir(trace_dir)
             if name.endswith(".npz")]
    spans = tracing.load(paths)
    relabel_trials(spans, traced_mix.samples)
    loop = traced["loop"]
    computed = [s for s in loop if not s.deduped
                and s.final.get("type") == "result"]
    task_s = sum(s.final["stats"]["task_s"] for s in computed)
    counters = dict(spans.counters)
    counters.update({
        "service.server.deduped": sum(s.deduped for s in loop),
        "service.server.wait_s": sum(
            s.latency - s.final["stats"]["wall_s"] for s in loop
            if s.final.get("type") == "result"),
        "runner.pool.tasks": sum(
            s.final["stats"]["tasks_total"] - s.final["stats"]["cache_hits"]
            for s in computed),
        "runner.pool.task_s": task_s,
        "runner.pool.busy_ratio": task_s / (workers() * traced["wall"]),
        "trace.overhead_pct": 100.0 * (traced["wall"] / plain["wall"] - 1.0),
        "trace.span_cost_us": tracing.span_cost_us(),
        "trace.unattributed_s": sum(
            s.latency - tracing.covered_seconds(spans, s.key, s.start, s.end)
            for s in loop if s.key is not None),
    })
    return {"ledger": ledger.__dict__,
            "metrics": layers.report(spans, counters),
            "spans": len(spans)}
