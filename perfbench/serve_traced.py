"""``python -m repro serve`` with the benchmark's spans installed.

    python3 perfbench/serve_traced.py TRACE_DIR serve --port 0 ...

The wrappers go in before the server creates its worker pool, so the
forked workers inherit them.  Spans in the server carry the job key of
the campaign their thread is running; spans in a worker carry
``trial:<seed>`` and are written to ``TRACE_DIR`` after every task.  The
server's own spans and its store counters are written when it exits.
"""

from __future__ import annotations

import functools
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import tracer as tracing  # noqa: E402


def main(argv) -> int:
    trace_dir, args = argv[0], argv[1:]
    from repro import campaigns, cli
    from repro.service import server  # noqa: F401 - bind names before wrapping
    from repro.service.protocol import job_key, normalize_request

    tracer = tracing.Tracer()
    hooks = layers.install(tracer)
    server_pid = os.getpid()
    chaos_campaign, chaos_task = campaigns.chaos_campaign, campaigns.chaos_task

    @functools.wraps(chaos_campaign)
    def traced_campaign(trials, duration_s, profile, base_seed, **kwargs):
        key = job_key("chaos", normalize_request("chaos", {
            "trials": trials, "duration_s": duration_s,
            "profile": profile, "base_seed": base_seed}))
        tracer.set_request(key)
        try:
            return chaos_campaign(trials=trials, duration_s=duration_s,
                                  profile=profile, base_seed=base_seed,
                                  **kwargs)
        finally:
            tracer.set_request("")

    tasks = []

    @functools.wraps(chaos_task)
    def traced_task(params, seed):
        if not tasks:
            tracer.reset()  # the fork's copy of the server's spans
        tracer.set_request(f"trial:{seed}")
        try:
            return chaos_task(params, seed)
        finally:
            tracer.set_request("")
            tasks.append(seed)
            tracer.dump(os.path.join(
                trace_dir, f"worker-{os.getpid()}-{len(tasks)}.npz"))

    campaigns.chaos_campaign = traced_campaign
    campaigns.chaos_task = traced_task
    code = cli.main(args)
    if os.getpid() == server_pid:
        hooks.store_counts(tracer)
        tracer.dump(os.path.join(trace_dir, f"server-{server_pid}.npz"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
