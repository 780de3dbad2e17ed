"""Regenerate the committed reference digests (``reference/*.json``).

Runs each reference's searches at the default seed inline, in this
process, and writes their digests.  The pool and TCP workloads share
the inline digest of their common searches: their outcomes must be
identical.
Run from the root of a checkout::

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys

from checks import DEFAULT_SEED, REFERENCE_DIR, reference_path, search_digest
from workloads import WORKLOADS


def main() -> int:
    from repro.core.experiment import run_protocol

    REFERENCE_DIR.mkdir(exist_ok=True)
    workloads = {w.reference: w for w in WORKLOADS.values()}
    for reference, workload in workloads.items():
        digests = []
        for family, cfg in workload.protocol_runs(DEFAULT_SEED):
            protocol = run_protocol(family, cfg)
            for level in protocol.levels:
                for experiment, outcome in enumerate(level.outcomes):
                    digests.append(
                        search_digest(family, level.feature_size, experiment, outcome)
                    )
        path = reference_path(reference)
        path.write_text(
            json.dumps({"seed": DEFAULT_SEED, "searches": digests}, indent=1) + "\n"
        )
        print(f"{path.name}: {len(digests)} searches", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
