"""Protocol benchmark: run one workload for a fixed time and report it.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sel-level --seed 0 --seconds 40 --trace 0

Each sample is one fresh interpreter (``child.py``): set-up, the
workload's protocol run repeated ``Workload.reps`` times, teardown.
Samples repeat until ``--seconds`` is spent (never fewer than the
workload's minimum).  Protocol-run times are medians over every
repetition, set-up and peak RSS medians over samples, and per-search
latencies percentiles over every search.  The last line of
standard output is the JSON result; the lines before it print every
metric with its unit and sample count, and the run manifest.  The whole
result, with every sample, is written to ``.perfbench_out/``.  Metric
units come from ``BENCHMARK.json`` at the root of the checkout.

``--trace 1`` measures the per-layer metrics instead, one protocol run
per sample: it alternates traced and untraced samples (for
``trace.overhead``) and, for the pool and TCP workloads, runs the same
searches inline once (for ``executor.tax``).  It also writes the spans
of the first traced sample as Chrome trace-event JSON next to the
result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BENCHMARK = ROOT / "BENCHMARK.json"
SHM = Path("/dev/shm")

#: A run starts no sample after this long, whatever the minimum, and
#: kills a sample still running at RUN_LIMIT_S (all its searches fail),
#: so it always exits inside three minutes.
HARD_STOP_S = 120.0
RUN_LIMIT_S = 165.0
#: How long orphaned descendants may take to exit after a sample ends.
ORPHAN_GRACE_S = 3.0
#: Searches every run completes at least (it runs samples until it has
#: them), and the percentile of ``search_s_tail``: the highest one with
#: ten of them beyond it.  The percentile is fixed, whatever the number
#: of searches a run fits in, so runs of any length compare the same one.
MIN_SEARCH_SAMPLES = 40
TAIL_PERCENTILE = 75


def become_subreaper() -> None:
    """Adopt orphaned descendants, so leftovers can be seen and reaped."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        prctl = libc.prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def shm_segments() -> set[str]:
    if not SHM.is_dir():
        return set()
    return {name for name in os.listdir(SHM) if name.startswith("repro_")}


def group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


@dataclass
class Sample:
    """One fresh-interpreter sample: its result and process accounting."""

    mode: str
    result: dict
    maxrss_kb: int
    #: Crashes, kills and leftovers; any of them fails the whole sample.
    problems: list[str]

    @property
    def ok(self) -> bool:
        return "setup_s" in self.result and bool(self.result["reps"])

    @property
    def reps(self) -> list[dict]:
        return self.result.get("reps", [])

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "peak_rss_mb": self.maxrss_kb / 1024,
            "problems": self.problems,
            **self.result,
        }


def run_sample(workload: str, seed: int, mode: str, reps: int, index: int,
               trace_file: Path | None, deadline: float) -> Sample:
    out = OUT / f"sample-{os.getpid()}-{index}.json"
    out.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    shm_before = shm_segments()
    t0 = time.monotonic()
    argv = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--reps", str(reps), "--t0", repr(t0), "--out", str(out),
    ]
    if trace_file is not None:
        argv += ["--trace-file", str(trace_file)]
    proc = subprocess.Popen(
        argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
        stdout=sys.stderr, start_new_session=True,
    )
    problems: list[str] = []
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            problems.append("sample still running at the run's time limit; killed")
            os.killpg(proc.pid, signal.SIGKILL)
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        problems.append(f"sample exited with {proc.returncode}")
    maxrss = usage.ru_maxrss

    # Anything of the sample's process group still running is a
    # leftover (an unreaped worker, forkserver or agent).
    grace = time.monotonic() + ORPHAN_GRACE_S
    leftover = False
    while True:
        try:
            pid, _, orphan = os.wait4(-1, os.WNOHANG)
        except ChildProcessError:
            pid, orphan = 0, None
        if pid:
            maxrss = max(maxrss, orphan.ru_maxrss)
            continue
        if not group_alive(proc.pid):
            break
        if time.monotonic() > grace:
            leftover = True
            os.killpg(proc.pid, signal.SIGKILL)
            grace = float("inf")
        time.sleep(0.02)
    if leftover:
        problems.append("processes of the sample outlived it")
    stale = shm_segments() - shm_before
    if stale:
        problems.append(f"shared-memory segments left over: {sorted(stale)}")
        for name in stale:
            (SHM / name).unlink(missing_ok=True)

    result = {}
    if out.exists():
        result = json.loads(out.read_text())
        out.unlink()
        if result.get("agent_returncode") not in (None, -signal.SIGTERM):
            problems.append(f"agent exited with {result['agent_returncode']}")
    return Sample(mode, result, maxrss, problems)


def failed_searches(sample: Sample, searches: int, reps: int, reference) -> int:
    """Searches of one sample that raised, mismatched or fell back."""
    from checks import digest_mismatches

    if sample.problems or not sample.ok:
        return searches * reps
    failed = searches * (reps - len(sample.reps))
    for rep in sample.reps:
        digests = rep["digests"]
        bad = set(rep["invariant_failures"]) | set(rep["fallback_searches"])
        if reference is not None:
            bad.update(digest_mismatches(digests, reference))
        failed += min(searches, len(bad) + max(searches - len(digests), 0))
    return failed


def tail(values: list[float]) -> float:
    """The ``TAIL_PERCENTILE``-th percentile, interpolated."""
    return statistics.quantiles(values, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


def end_to_end(samples: list[Sample]) -> dict:
    """Every end-to-end metric: name -> (value, sample count, note).

    Times of protocol runs are medians over every repetition of every
    sample; set-up and peak RSS are medians over samples.  ``cpu_s`` is
    the process tree's CPU during one protocol run.
    """
    reps = [rep for s in samples for rep in s.reps]
    latencies = [x for rep in reps for x in rep["search_s"]]
    metrics = {
        "wall_s": (
            statistics.median(rep["wall_s"] for rep in reps), len(reps), "protocol runs"
        ),
        "setup_s": (
            statistics.median(s.result["setup_s"] for s in samples), len(samples),
            "set-ups",
        ),
        "steps_per_s": (
            statistics.median(rep["slice_steps"] / rep["wall_s"] for rep in reps),
            len(reps), "protocol runs",
        ),
        "cpu_s": (
            statistics.median(rep["cpu_s"] for rep in reps), len(reps), "protocol runs"
        ),
        "peak_rss_mb": (
            statistics.median(s.maxrss_kb / 1024 for s in samples), len(samples),
            "process trees",
        ),
    }
    if len(latencies) >= MIN_SEARCH_SAMPLES:
        metrics["search_s_p50"] = (
            statistics.median(latencies), len(latencies), "searches"
        )
        metrics["search_s_tail"] = (
            tail(latencies), len(latencies), f"searches, p{TAIL_PERCENTILE}"
        )
    return metrics


def declared_units() -> dict[str, str]:
    """Unit of every metric, as ``BENCHMARK.json`` declares it."""
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def per_layer(samples: list[Sample], workload) -> dict:
    """Per-layer metrics: name -> (value, sample count, note)."""

    def reps(mode):
        return [rep for s in samples if s.mode == mode and s.ok for rep in s.reps]

    traced, plain, inline = reps("trace"), reps("measure"), reps("inline")
    if not traced or not plain:
        return {}
    metrics = {
        name: (
            statistics.median(rep["layers"][name] for rep in traced),
            len(traced),
            "traced runs",
        )
        for name in traced[0]["layers"]
    }
    plain_wall = statistics.median(rep["wall_s"] for rep in plain)
    traced_wall = statistics.median(rep["wall_s"] for rep in traced)
    metrics["trace.overhead"] = (
        traced_wall / plain_wall, len(traced) + len(plain), "traced+untraced runs"
    )
    if workload.executor == "inline":
        metrics["executor.tax"] = (1.0, len(plain), "runs (inline by definition)")
    elif inline:
        inline_wall = statistics.median(rep["wall_s"] for rep in inline)
        metrics["executor.tax"] = (
            plain_wall / inline_wall, len(plain) + len(inline), "executor+inline runs"
        )
    return metrics


def collect(workload, seed: int, seconds: float, trace: bool, reps: int,
            trace_file: Path) -> list[Sample]:
    """Run samples until ``seconds`` is spent and the plan is done.

    The plan is the minimum: enough measured samples for the search
    percentiles, or one traced, one untraced and (pool and TCP) one
    inline sample.  Traced and untraced samples alternate after it.
    """
    if trace:
        plan = ["trace", "measure"]
        if workload.executor != "inline":
            plan.append("inline")
    else:
        plan = ["measure"] * max(
            3, math.ceil(MIN_SEARCH_SAMPLES / (workload.searches * reps))
        )
    start = time.monotonic()
    samples: list[Sample] = []
    durations: dict[str, list[float]] = {}
    while True:
        if len(samples) < len(plan):
            mode = plan[len(samples)]
        elif trace:
            mode = "measure" if samples[-1].mode == "trace" else "trace"
        else:
            mode = "measure"
        elapsed = time.monotonic() - start
        expected = statistics.median(durations.get(mode, [0.0]))
        if elapsed > HARD_STOP_S or (
            len(samples) >= len(plan) and elapsed + expected > seconds
        ):
            return samples
        began = time.monotonic()
        samples.append(
            run_sample(
                workload.name,
                seed,
                mode,
                reps,
                len(samples),
                trace_file if trace and not samples else None,
                start + RUN_LIMIT_S,
            )
        )
        durations.setdefault(mode, []).append(time.monotonic() - began)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    units = declared_units()
    sys.path.insert(0, str(SRC))
    from checks import DEFAULT_SEED, load_reference
    from manifest import run_manifest
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; options: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    reference = load_reference(workload.reference) if args.seed == DEFAULT_SEED else None
    OUT.mkdir(exist_ok=True)
    become_subreaper()

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    reps = 1 if args.trace else workload.reps
    samples = collect(workload, args.seed, args.seconds, bool(args.trace), reps,
                      OUT / f"{tag}.chrome.json")

    attempted = failed = 0
    problems = []
    for s in samples:
        attempted += workload.searches * reps
        failed += failed_searches(s, workload.searches, reps, reference)
        problems += s.problems + [e for rep in s.reps for e in rep["errors"]]
    inline = [s for s in samples if s.mode == "inline" and s.ok]
    if inline:
        baseline = inline[0].reps[0]["digests"]
        for s in samples:
            for rep in s.reps:
                if rep["digests"] != baseline:
                    problems.append(f"a {s.mode} run differs from the inline searches")
                    failed += 1
    if args.seed == DEFAULT_SEED and reference is None:
        problems.append(f"no reference digest {workload.reference!r}")
    measured = [s for s in samples if s.mode == "measure" and s.ok]

    manifest = run_manifest(workload, args.seed, args.seconds, bool(args.trace))
    report: dict = {}
    if args.trace:
        for name, (value, n, what) in per_layer(samples, workload).items():
            report[name] = {"value": value, "unit": units[name], "samples": n, "of": what}
    elif measured:
        for name, (value, n, what) in end_to_end(measured).items():
            report[name] = {"value": value, "unit": units[name], "samples": n, "of": what}
        if "search_s_tail" not in report:
            problems.append(f"fewer than {MIN_SEARCH_SAMPLES} searches completed")
    correct = failed == 0 and not problems and bool(report)

    print(f"manifest: {json.dumps(manifest, sort_keys=True)}")
    print(f"workload {workload.name}: {len(samples)} samples, "
          f"{attempted} searches attempted, {failed} failed")
    for problem in problems:
        print(f"problem: {problem.strip()}")
    for name, entry in report.items():
        print(f"  {name:38s} {entry['value']:14.6g} {entry['unit']:10s} "
              f"(n={entry['samples']} {entry['of']})")
    (OUT / f"{tag}.json").write_text(json.dumps({
        "manifest": manifest,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": report,
        "samples": [s.as_dict() for s in samples],
    }, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": e["value"], "unit": e["unit"]}
            for name, e in report.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
