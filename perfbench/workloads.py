"""The benchmark's named workloads.

Every workload is a closed loop driven by one process: the driver runs
one protocol search, waits for its outcome, then starts the next.  The
workload seed (``--seed``) becomes both ``dataset_seed`` and
``base_seed`` of every :class:`~repro.core.experiment.ProtocolConfig`,
so it chooses the spiral datasets and every run's RNG stream; the
program receives nothing else from the benchmark.

Every workload trains a fixed amount per search, so every seed trains
the same number of slice-steps and only the data and the initial
weights change: early stopping is off, and either no candidate can
pass (``sel-level``: the threshold is above any accuracy, so each
search commits exactly its first ``max_candidates`` candidates) or the
threshold is 0, so the cheapest candidate always wins (the smoke
workloads, whose executors still speculate on the next candidates and
discard them).  With the profiles' own early stop and thresholds the
work a seed causes varies several-fold (five seeds of the smoke-profile
search list spread 34% in wall time), and no per-run median could be
steady across seeds.

There is no classical-only workload.  On the 2-core reference host the
speed of a single process drifts by 15-30% over tens of seconds, so
runs must be long to give steady medians, and the run budget allows
three workloads of that length.  Training, stacked kernels, optimizers
and losses are measured on ``sel-level`` instead.

Each workload's one-line reason lives in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The smoke workloads' search list: the families and their levels.
#: Classical searches run one level only, so the per-search median falls
#: inside the BEL/SEL latencies rather than on the edge between them and
#: the much shorter classical searches, where it would jump from run to
#: run.
SMOKE_SEARCHES = (("classical", (10,)), ("bel", (10, 50, 90)), ("sel", (10, 50, 90)))

#: Worker processes of the pool workload: the 2-core reference box
#: runs no more busy processes than it has cores.
POOL_WORKERS = 2

#: A threshold above any accuracy: no candidate passes, so a search
#: commits exactly its ``max_candidates`` cheapest candidates.
UNREACHABLE = 1.01


@dataclass(frozen=True)
class Workload:
    """One named workload: which searches, on which executor."""

    name: str
    #: ``"inline"`` (in-process sequential), ``"pool"`` (one warm
    #: :class:`~repro.runtime.pool.PersistentPool`) or ``"tcp"`` (one
    #: ``repro cluster-agent --connect`` subprocess on loopback).
    executor: str
    #: ``(family, profile name, ProtocolConfig overrides)`` per protocol
    #: run, in the order they run.
    runs: tuple[tuple[str, str, tuple[tuple[str, object], ...]], ...]
    #: Measured protocol runs per fresh interpreter: repeating the short
    #: runs after one set-up gives each benchmark run more of them, and
    #: their median is what steadies the end-to-end metrics.
    reps: int
    #: Name of the committed reference digest (``reference/<name>.json``);
    #: workloads that run the same searches share one.
    reference: str

    def protocol_runs(self, seed: int, connect: str | None = None):
        """``[(family, ProtocolConfig)]`` for one measured run at ``seed``."""
        from repro.experiments.runner import get_profile

        out = []
        for family, profile, overrides in self.runs:
            cfg = get_profile(profile).protocol_config(
                dataset_seed=seed, base_seed=seed, **dict(overrides)
            )
            if connect is not None:
                cfg = cfg.with_(connect=connect)
            out.append((family, cfg))
        return out

    def warmup_runs(self, seed: int, connect: str | None = None):
        """One tiny SEL search that loads every layer the workload uses
        (imports, engine kernels, pool workers or agent connection)."""
        from repro.experiments.runner import get_profile

        cfg = get_profile("smoke").protocol_config(
            feature_sizes=(10,),
            max_candidates=1,
            dataset_seed=seed,
            base_seed=seed,
        )
        if connect is not None:
            cfg = cfg.with_(connect=connect)
        return [("sel", cfg)]

    @property
    def searches(self) -> int:
        """Searches in one measured run (levels x experiments per run)."""
        from repro.experiments.runner import get_profile

        total = 0
        for _, profile, overrides in self.runs:
            cfg = get_profile(profile).protocol_config(**dict(overrides))
            total += len(cfg.feature_sizes) * cfg.n_experiments
        return total


def _smoke():
    return tuple(
        (
            family,
            "smoke",
            (
                ("feature_sizes", levels),
                ("epochs", 5),
                ("early_stop", False),
                ("threshold", 0.0),
            ),
        )
        for family, levels in SMOKE_SEARCHES
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sel-level",
            executor="inline",
            reps=2,
            reference="sel-level",
            runs=(
                (
                    "sel",
                    "reduced",
                    (
                        ("feature_sizes", (40,)),
                        ("n_experiments", 2),
                        ("epochs", 1),
                        ("early_stop", False),
                        ("threshold", UNREACHABLE),
                        ("max_candidates", 2),
                    ),
                ),
            ),
        ),
        Workload(
            name="smoke-pool",
            executor="pool",
            reps=2,
            reference="smoke",
            runs=_smoke(),
        ),
        Workload(
            name="smoke-tcp",
            executor="tcp",
            reps=2,
            reference="smoke",
            runs=_smoke(),
        ),
    )
}
