"""The campaign service behind ``python -m repro serve``.

An asyncio front end that accepts campaign requests over newline-JSON
(:mod:`repro.service.protocol`), runs them on one warm worker pool, and
streams progress and results back to every interested client.

Three mechanisms make the service cheap to hammer and safe to kill:

* **Pending-interest table** — in-flight work is deduplicated by
  content-addressed job key: a second ``submit`` for identical work
  attaches the client to the running job (replaying the progress events
  it missed) instead of recomputing.  The table holds only in-flight
  jobs; finished work is served by the :class:`~repro.runner.ResultStore`
  at near-zero cost, so there is no cache-coherence problem between the
  two layers.
* **One warm pool** — a single ``multiprocessing`` pool is created at
  startup and shared by every campaign (via the ``pool=`` parameter of
  :class:`~repro.runner.Sweep`), so concurrent requests multiplex the
  machine instead of oversubscribing it, and no request pays pool
  startup latency.
* **Durability** — every accepted job is journaled to the shared cache
  root (``jobs/`` subdirectory) until it completes.  On restart the
  service resubmits journaled jobs: finished task cells replay from the
  result store, partially-run chaos trials resume from their
  checkpoints (:mod:`repro.sim.checkpoint`), and the recomputed result
  is bit-identical to an uninterrupted run.

The service is deliberately loopback-oriented tooling (a lab bench, not
a hardened network daemon): bind it to localhost or a trusted network.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import threading
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..runner import ResultStore, default_workers, resolve_cache_dir
from ..runner.cacheroot import atomic_write
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode,
    encode,
    job_key,
    jsonable,
    normalize_request,
)

__all__ = ["CampaignService", "serve"]

#: Longest request line the server reads (asyncio's default stream
#: limit); a longer line is refused and its connection closed.
MAX_LINE_BYTES = 2 ** 16


class _Job:
    """One in-flight campaign: the pending-interest-table entry."""

    __slots__ = ("key", "kind", "params", "history", "subscribers", "done")

    def __init__(self, key: str, kind: str, params: Dict[str, Any]) -> None:
        self.key = key
        self.kind = kind
        self.params = params
        self.history: List[Dict[str, Any]] = []
        self.subscribers: List[asyncio.Queue] = []
        self.done = False


class CampaignService:
    """Asyncio campaign server with dedup, streaming, and resume.

    ``port=0`` binds an ephemeral port; the bound address is available
    as :attr:`address` once :meth:`wait_ready` returns (the test-suite
    pattern: run :meth:`run_forever` in a thread, then connect).
    ``checkpoint_every`` is the chaos-trial checkpoint cadence in
    simulated seconds; checkpoints and journals persist only when a
    shared cache root (``REPRO_CACHE_DIR``) is configured.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: Optional[int] = None,
        checkpoint_every: float = 900.0,
        resume: bool = True,
        announce: bool = False,
    ) -> None:
        if checkpoint_every <= 0.0:
            raise ConfigurationError("checkpoint_every must be positive")
        self.host = host
        self.port = port
        self.workers = workers if workers is not None else default_workers()
        self.checkpoint_every = float(checkpoint_every)
        self.resume = resume
        self.announce = announce
        self.address: Optional[Tuple[str, int]] = None
        self._jobs: Dict[str, _Job] = {}
        self._inflight: set = set()
        self._store = ResultStore()
        self._jobs_dir = resolve_cache_dir("jobs")
        self._checkpoint_dir = resolve_cache_dir("checkpoints")
        self._pool: Optional[Any] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()

    # -- lifecycle ---------------------------------------------------------

    def run_forever(self) -> None:
        """Create the warm pool and serve until :meth:`shutdown`.

        Blocking; run it on the main thread (CLI) or a daemon thread
        (tests).  The pool is created before the event loop starts so
        worker processes never inherit loop state.
        """
        self._pool = multiprocessing.Pool(processes=self.workers)
        try:
            asyncio.run(self._serve())
        finally:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def shutdown(self) -> None:
        """Request a clean stop; safe to call from any thread."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)

    def wait_ready(self, timeout: Optional[float] = None) -> bool:
        """Block until the server socket is bound (True) or timeout."""
        return self._ready.wait(timeout)

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.address = server.sockets[0].getsockname()[:2]
        if self.announce:
            print(
                f"repro-serve listening on "
                f"{self.address[0]}:{self.address[1]}",
                flush=True,
            )
        self._ready.set()
        if self.resume:
            self._resume_pending()
        async with server:
            await self._stop.wait()
        # Let in-flight campaigns finish against the live pool before
        # run_forever tears it down; new submissions are already refused
        # because the listening socket is closed.
        if self._inflight:
            await asyncio.gather(*tuple(self._inflight), return_exceptions=True)

    # -- connection handling -----------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        outbox: asyncio.Queue = asyncio.Queue()
        pump = asyncio.ensure_future(self._pump(outbox, writer))
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Longer than the reader's line limit: the line's
                    # framing is lost, so refuse it and close only this
                    # connection once the refusal is on the wire.
                    outbox.put_nowait({
                        "type": "error", "job": None,
                        "message": f"request line longer than "
                                   f"{MAX_LINE_BYTES} bytes",
                    })
                    await outbox.join()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = decode(line)
                except ProtocolError as exc:
                    outbox.put_nowait(
                        {"type": "error", "job": None, "message": str(exc)}
                    )
                    continue
                kind = message["type"]
                if kind == "ping":
                    outbox.put_nowait(
                        {"type": "pong", "protocol": PROTOCOL_VERSION}
                    )
                elif kind == "submit":
                    self._submit(message, outbox)
                elif kind == "shutdown":
                    outbox.put_nowait({"type": "bye"})
                    await outbox.join()
                    assert self._stop is not None
                    self._stop.set()
                    break
                else:
                    outbox.put_nowait({
                        "type": "error", "job": None,
                        "message": f"unknown message type {kind!r}",
                    })
        finally:
            for job in self._jobs.values():
                if outbox in job.subscribers:
                    job.subscribers.remove(outbox)
            pump.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - racing close
                pass

    @staticmethod
    async def _pump(outbox: asyncio.Queue, writer: asyncio.StreamWriter) -> None:
        """Drain one connection's outbox onto its socket, in order."""
        while True:
            event = await outbox.get()
            try:
                writer.write(encode(event))
                await writer.drain()
            except (ConnectionError, OSError):
                return
            finally:
                outbox.task_done()

    # -- the pending-interest table ----------------------------------------

    def _submit(self, message: Dict[str, Any], outbox: asyncio.Queue) -> None:
        try:
            kind = message.get("kind")
            params = normalize_request(kind, message.get("params"))
        except ProtocolError as exc:
            outbox.put_nowait(
                {"type": "error", "job": None, "message": str(exc)}
            )
            return
        key = job_key(kind, params)
        job = self._jobs.get(key)
        if job is not None:
            # Pending interest: attach, replay missed events, done.
            outbox.put_nowait({"type": "accepted", "job": key, "deduped": True})
            for event in job.history:
                outbox.put_nowait(event)
            if outbox not in job.subscribers:
                job.subscribers.append(outbox)
            return
        job = _Job(key, kind, params)
        self._jobs[key] = job
        job.subscribers.append(outbox)
        outbox.put_nowait({"type": "accepted", "job": key, "deduped": False})
        self._journal_write(job)
        self._launch(job)

    def _launch(self, job: _Job) -> None:
        loop = self._loop
        assert loop is not None

        def progress(done: int, total: int, elapsed_s: float) -> None:
            # Called from the campaign's executor thread, per chunk.
            loop.call_soon_threadsafe(self._publish, job, {
                "type": "progress", "job": job.key,
                "done": done, "total": total, "elapsed_s": elapsed_s,
            })

        task = asyncio.ensure_future(
            loop.run_in_executor(None, self._run_campaign, job, progress)
        )
        self._inflight.add(task)
        task.add_done_callback(lambda t: self._finish(job, t))

    def _finish(self, job: _Job, task: "asyncio.Future") -> None:
        self._inflight.discard(task)
        exc = task.exception()
        if exc is not None:
            event = {"type": "error", "job": job.key, "message": str(exc)}
        else:
            value, stats = task.result()
            event = {
                "type": "result", "job": job.key,
                "value": jsonable(value), "stats": jsonable(stats),
            }
        self._publish(job, event)
        job.done = True
        self._jobs.pop(job.key, None)
        self._journal_remove(job)

    def _publish(self, job: _Job, event: Dict[str, Any]) -> None:
        job.history.append(event)
        for queue in job.subscribers:
            queue.put_nowait(event)

    # -- campaign dispatch (executor thread) -------------------------------

    def _run_campaign(self, job: _Job, progress: Any) -> Tuple[Any, Any]:
        from .. import campaigns

        p = job.params
        common = dict(store=self._store, pool=self._pool, progress=progress)
        if job.kind == "chaos":
            return campaigns.chaos_campaign(
                trials=p["trials"], duration_s=p["duration_s"],
                profile=p["profile"], base_seed=p["base_seed"],
                checkpoint_every=(
                    self.checkpoint_every if self._checkpoint_dir else None
                ),
                checkpoint_dir=self._checkpoint_dir,
                **common,
            )
        if job.kind == "fleet":
            return campaigns.fleet_density_campaign(
                counts=p["counts"], duration_s=p["duration_s"],
                base_seed=p["base_seed"], engine=p["engine"],
                **common,
            )
        if job.kind == "topology":
            return campaigns.topology_sweep_campaign(
                kinds=p["kinds"], duration_s=p["duration_s"], **common
            )
        if job.kind == "steady":
            return campaigns.steady_endurance_campaign(
                durations_s=p["durations_s"],
                fast_forward=p["fast_forward"],
                **common,
            )
        raise ConfigurationError(
            f"no dispatcher for campaign kind {job.kind!r}"
        )  # pragma: no cover - normalize_request already rejected it

    # -- the jobs journal --------------------------------------------------

    def _journal_path(self, key: str) -> Optional[str]:
        if self._jobs_dir is None:
            return None
        return os.path.join(self._jobs_dir, f"job-{key}.json")

    def _journal_write(self, job: _Job) -> None:
        path = self._journal_path(job.key)
        if path is None:
            return
        payload = json.dumps({
            "protocol": PROTOCOL_VERSION,
            "key": job.key,
            "kind": job.kind,
            "params": job.params,
        }, sort_keys=True)
        try:
            atomic_write(path, payload.encode("utf-8"))
        except OSError:  # pragma: no cover - journal dir not writable
            pass

    def _journal_remove(self, job: _Job) -> None:
        path = self._journal_path(job.key)
        if path is None:
            return
        try:
            os.remove(path)
        except OSError:
            pass

    def _resume_pending(self) -> None:
        """Resubmit journaled jobs left over from a killed server.

        Completed task cells replay from the result store and chaos
        trials resume from their checkpoints, so a resumed campaign
        costs only the work the kill actually destroyed — and its
        result is bit-identical to an uninterrupted run.
        """
        if self._jobs_dir is None:
            return
        try:
            names = sorted(
                n for n in os.listdir(self._jobs_dir)
                if n.startswith("job-") and n.endswith(".json")
            )
        except OSError:
            return
        for name in names:
            path = os.path.join(self._jobs_dir, name)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    entry = json.load(handle)
                kind = entry["kind"]
                params = normalize_request(kind, entry["params"])
                key = job_key(kind, params)
            except (OSError, ValueError, KeyError, ProtocolError):
                # Corrupt or stale journal: drop it, don't wedge startup.
                try:
                    os.remove(path)
                except OSError:  # pragma: no cover - racing removal
                    pass
                continue
            if key in self._jobs:
                continue
            job = _Job(key, kind, params)
            self._jobs[key] = job
            self._launch(job)


def serve(
    host: str = "127.0.0.1",
    port: int = 7373,
    workers: Optional[int] = None,
    checkpoint_every: float = 900.0,
    resume: bool = True,
) -> None:
    """Run the campaign service in the foreground (the CLI entry)."""
    service = CampaignService(
        host=host, port=port, workers=workers,
        checkpoint_every=checkpoint_every, resume=resume, announce=True,
    )
    service.run_forever()
