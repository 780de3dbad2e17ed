"""The run manifest stamped on every benchmark result."""

from __future__ import annotations

import os
import platform
import socket
import subprocess
import sys

#: Thread-count variables of the BLAS/OpenMP runtimes numpy may use.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _git(*args: str) -> str | None:
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(
            ["git", *args],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
            env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_manifest(workload, seed: int, run_seconds: int, trace: bool) -> dict:
    """Everything needed to say what produced a result."""
    import numpy

    from repro.runtime.memory import resolve_memory_budget

    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    budget = resolve_memory_budget(None)
    return {
        "git_rev": rev or "unknown",
        "git_dirty": None if status is None else bool(status),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "host": socket.gethostname(),
        "seed": seed,
        "run_seconds": run_seconds,
        "trace": trace,
        "workload": {
            "name": workload.name,
            "executor": workload.executor,
            "searches": workload.searches,
            "runs": [
                {"family": family, "profile": profile, **dict(overrides)}
                for family, profile, overrides in workload.runs
            ],
        },
        "memory_budget": {"bytes": budget.bytes, "source": budget.source},
        "env": {
            k: v
            for k, v in sorted(os.environ.items())
            if k.startswith("REPRO_") or k in THREAD_ENV
        },
    }
