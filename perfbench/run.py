"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {year_ff,city_cohort,serve_mix} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  With ``--trace 0`` it measures the
end-to-end metrics listed in ``BENCHMARK.json`` with no tracing, checks
every operation's output, and prints a table of every metric followed
by one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 1`` it runs the workload's operations once untraced and
once with spans recorded around the layer boundaries listed in
``layers.py``, and reports the per-layer metrics instead; the spans are
written under ``.perfbench/trace/<workload>/``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from common import READY  # noqa: E402

WORKLOADS = ("year_ff", "city_cohort", "serve_mix")

#: Set-up samples per run, counting the measured process itself.
SETUP_SAMPLES = 3

#: A child that has not finished by then is killed; the run fails.
CHILD_TIMEOUT_S = 170.0

#: Measured and printed, but not in ``BENCHMARK.json``: between ten runs
#: on a shared two-CPU VM they moved by about as much as the largest
#: regression bound (0.25) or more (IQR over median).  The host's speed
#: falls into a fast and a slow mode that last seconds at a time, so a
#: run's median jumps between them: ``city_cohort``'s cold p50 moved by
#: 14-36% over four ten-run sets, while its p90 moved by 10-14%.  A warm
#: ``serve_mix`` job (~1 ms) is a few thread wake-ups and journal file
#: operations, and its mean, median and p90 moved by 19-29%.
REPORTED_ONLY = {"cold_job_p50_s": "s", "warm_job_mean_s": "s",
                 "warm_job_p50_s": "s", "warm_job_p90_s": "s"}


#: ``prctl`` option: orphaned descendants are re-parented to this process.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of every process started below it,
    so that :func:`stop_descendants` also finds the grandchildren."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def children() -> List[int]:
    mine = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", encoding="ascii") as f:
                stat = f.read()
        except OSError:
            continue
        # The command name may hold spaces; the parent id follows it.
        if int(stat.rsplit(")", 1)[1].split()[1]) == os.getpid():
            mine.append(int(name))
    return mine


def stop_descendants() -> None:
    """Kill and wait for every process still running below this one.

    A workload stops what it starts; anything left here (a pool worker,
    a multiprocessing helper) is named on stderr, then stopped.
    """
    while True:
        left = children()
        if not left:
            return
        for pid in left:
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as f:
                    cmd = f.read().replace(b"\0", b" ").decode(
                        errors="replace").strip()
                print(f"perfbench: stopping leftover process {pid}: "
                      f"{cmd or '(exited, not yet waited for)'}",
                      file=sys.stderr)
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        for pid in left:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def child_env() -> Dict[str, str]:
    """The environment every workload process gets.

    Cache directories are dropped so that every process pays the same
    kernel compile and starts from the same empty caches.
    """
    env = dict(os.environ)
    for name in ("REPRO_CACHE_DIR", "REPRO_KERNEL_CACHE_DIR"):
        env.pop(name, None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def start_timed(cmd: List[str]):
    """Start ``cmd`` and return it with the seconds until it is ready."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    line = proc.stdout.readline()
    if line.strip() != READY:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{cmd[2]} failed during set-up")
    return proc, time.perf_counter() - start


def finish(proc) -> str:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return out


def run_child(args, trace_dir: str) -> Dict[str, Any]:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-dir", trace_dir]
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, seconds = start_timed(cmd + ["--setup-only"])
            finish(proc)
            setups.append(seconds)
    proc, seconds = start_timed(cmd)
    setups.append(seconds)
    result = json.loads(finish(proc).strip().splitlines()[-1])
    result["setups"] = setups
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro next to perfbench/; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)

    adopt_orphans()
    try:
        return measure(args, spec[
            "per_layer" if args.trace else "end_to_end"])
    finally:
        stop_descendants()


def measure(args, wanted) -> int:
    state_dir = os.path.join(ROOT, ".perfbench")
    trace_dir = os.path.join(state_dir, "trace", args.workload)
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
    if args.workload == "serve_mix":
        import serve_mix

        sys.path.insert(0, os.path.join(ROOT, "src"))
        result = serve_mix.run(args, ROOT, state_dir, trace_dir, child_env())
    else:
        result = run_child(args, trace_dir)

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(result["setups"])
    ledger = result["ledger"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for m in wanted:
        print(f"{m['name']:<44} {metrics[m['name']]:>16.6g} {m['unit']}")
    if not args.trace:
        for name, unit in REPORTED_ONLY.items():
            if name in metrics:
                print(f"{name:<44} {metrics[name]:>16.6g} {unit} "
                      "(not gated)")
    rate = ledger["failed"] / ledger["attempted"]
    print(f"{'error_rate':<44} {rate:>16.6g} ratio "
          f"({ledger['failed']}/{ledger['attempted']})")
    for kind, summary in result.get("samples", {}).items():
        note = "" if summary["p90_solid"] else " (fewer than 10: p90 is weak)"
        print(f"{kind} jobs: n={summary['n']}, "
              f"{summary['beyond_p90']} samples beyond p90{note}")
    for reason in ledger["reasons"]:
        print(f"FAILED: {reason}")
    print(json.dumps({
        "correct": ledger["failed"] == 0,
        "attempted": ledger["attempted"],
        "failed": ledger["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
