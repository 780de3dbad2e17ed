"""One measured run in a fresh interpreter.

``run.py`` starts this script once per sample, so every sample pays and
measures its own set-up (imports, pool start and warm-up, agent spawn
and first connect), and every process it starts is reaped before it
exits: the pool's workers by ``PersistentPool.close``, the forkserver
explicitly, the agent by ``terminate``/``wait``.  Their peak RSS
therefore reaches ``run.py`` through ``wait4``.  CPU time is measured
here, per protocol run, over the whole live process tree
(:func:`tree_cpu_s`), so the tree's set-up and the outcome checks stay
outside it.

Usage (normally only from ``run.py``)::

    python3 perfbench/child.py --workload sel-level --seed 0 \\
        --mode measure --t0 <time.monotonic() at spawn> --out result.json

``--reps N`` repeats the measured protocol run N times after one
set-up.  ``--mode trace`` wraps the layer boundaries (see
``tracer.py``); ``--mode inline`` runs the workload's searches
in-process, the baseline of ``executor.tax``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import socket
import subprocess
import sys
import time
import traceback

#: Marker of the sequential-fallback event message, which run_protocol
#: forwards to its progress sink (both the pool scheduler and the
#: cluster coordinators finish "in-process sequentially").
FALLBACK_MARK = "in-process sequentially"


def tree_cpu_s() -> float:
    """User+system CPU seconds of this process and its live descendants.

    Each process counts with the CPU of the children it has reaped, so a
    descendant that exits and is reaped inside the tree keeps counting;
    the pool workers, the forkserver and the TCP agent are all live
    descendants while a protocol run lasts.  This process is read from
    ``getrusage`` (microseconds), descendants from ``/proc/<pid>/stat``
    (clock ticks).
    """
    parents: dict[int, int] = {}
    ticks: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                text = fh.read()
        except OSError:  # exited while listing
            continue
        # Fields after "(comm)": state, ppid, ..., utime, stime, cutime,
        # cstime at offsets 11-14 (proc(5) fields 14-17).
        fields = text[text.rindex(")") + 2 :].split()
        parents[int(entry)] = int(fields[1])
        ticks[int(entry)] = sum(int(x) for x in fields[11:15])
    tree = {os.getpid()}
    grew = True
    while grew:
        grew = False
        for pid, ppid in parents.items():
            if ppid in tree and pid not in tree:
                tree.add(pid)
                grew = True
    tree.discard(os.getpid())
    descendants = sum(ticks.get(pid, 0) for pid in tree) / os.sysconf("SC_CLK_TCK")
    own = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        own += usage.ru_utime + usage.ru_stime
    return own + descendants


def free_loopback_address() -> str:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return f"127.0.0.1:{sock.getsockname()[1]}"


def start_agent(address: str) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "cluster-agent",
            "--connect",
            address,
            "--quiet",
        ],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
    )


def stop_agent(agent: subprocess.Popen) -> int:
    agent.terminate()
    try:
        return agent.wait(timeout=10)
    except subprocess.TimeoutExpired:
        agent.kill()
        return agent.wait()


def stop_forkserver() -> None:
    """Reap the multiprocessing forkserver (and with it its children's
    resource usage); left alone it outlives the pool until exit."""
    from multiprocessing import forkserver

    server = forkserver._forkserver
    if getattr(server, "_forkserver_pid", None) is not None:
        server._stop()


def run_once(runs, pool, tracer) -> dict:
    """One measured protocol run: every search of the workload, once."""
    from checks import cheapest_first, invariant_errors, search_digest
    from repro.core.experiment import make_level_split, run_protocol
    from repro.core.search_space import search_space_for_family

    result = {"errors": []}
    stamps: list[float] = []
    fallbacks: list[int] = []

    def progress(message: str) -> None:
        if FALLBACK_MARK in message:
            fallbacks.append(len(stamps))
        elif " exp=" in message:
            stamps.append(time.perf_counter())

    outcomes = []  # (family, cfg, ProtocolResult | None)
    cpu_start = tree_cpu_s()
    start = time.perf_counter()
    for family, cfg in runs:
        try:
            protocol = run_protocol(family, cfg, progress=progress, pool=pool)
        except Exception:  # noqa: BLE001 - a failed search is counted, not fatal
            result["errors"].append(traceback.format_exc())
            protocol = None
        outcomes.append((family, cfg, protocol))
    result["wall_s"] = time.perf_counter() - start
    result["cpu_s"] = tree_cpu_s() - cpu_start
    result["search_s"] = [b - a for a, b in zip([start, *stamps], stamps)]
    result["fallback_searches"] = sorted(set(fallbacks))

    # Checks and step counts run untraced: make_level_split would
    # otherwise count as data-layer work.
    if tracer is not None:
        tracer.restore()
    digests, bad, slice_steps = [], [], 0
    for family, cfg, protocol in outcomes:
        if protocol is None:
            continue
        for level in protocol.levels:
            split = make_level_split(cfg, level.feature_size)
            batches = math.ceil(split.x_train.shape[0] / cfg.batch_size)
            order = cheapest_first(
                search_space_for_family(family, level.feature_size), cfg.convention
            )
            for experiment, outcome in enumerate(level.outcomes):
                errors = invariant_errors(outcome, cfg.threshold, cfg.epochs, order)
                if errors:
                    bad.append(len(digests))
                    result["errors"].extend(errors)
                digests.append(
                    search_digest(family, level.feature_size, experiment, outcome)
                )
                slice_steps += batches * sum(
                    sum(c.epochs_run) for c in outcome.evaluated
                )
    result["digests"] = digests
    result["invariant_failures"] = bad
    result["slice_steps"] = slice_steps
    return result


def measure(workload, seed, mode, reps, t0, trace_file) -> dict:
    """Set up, run the workload ``reps`` times, tear down."""
    from repro.core.experiment import run_protocol
    from repro.runtime.pool import PersistentPool
    from workloads import POOL_WORKERS

    executor = "inline" if mode == "inline" else workload.executor
    sample = {"executor": executor, "reps": []}
    pool = agent = tracer = None
    connect = None
    try:
        if executor == "pool":
            pool = PersistentPool(POOL_WORKERS)
        elif executor == "tcp":
            connect = free_loopback_address()
            agent = start_agent(connect)
        for family, cfg in workload.warmup_runs(seed, connect):
            run_protocol(family, cfg, pool=pool)
        sample["setup_s"] = time.monotonic() - t0

        runs = workload.protocol_runs(seed, connect)
        for _ in range(reps):
            if mode == "trace":
                from tracer import Tracer, install

                tracer = Tracer()
                install(tracer)
            rep = run_once(runs, pool, tracer)
            if tracer is not None:
                from tracer import layer_metrics

                rep["layers"] = layer_metrics(
                    tracer,
                    pool.stats() if pool is not None else None,
                    len(pool.live_segments) if pool is not None else 0,
                )
                if trace_file and not sample["reps"]:
                    tracer.write_chrome_trace(trace_file, os.getpid())
            sample["reps"].append(rep)
    finally:
        if tracer is not None:
            tracer.restore()
        if pool is not None:
            pool.close()
            stop_forkserver()
        if agent is not None:
            sample["agent_returncode"] = stop_agent(agent)
    return sample


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("measure", "trace", "inline"), required=True)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    result = measure(
        WORKLOADS[args.workload],
        args.seed,
        args.mode,
        args.reps,
        args.t0,
        args.trace_file,
    )
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
