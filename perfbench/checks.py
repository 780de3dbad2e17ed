"""Outcome checks: bit-exact digests and structural invariants.

A digest records, per search, everything the protocol's result depends
on: the winner's label, and for every committed candidate its label,
FLOPs, parameter count, per-run train/validation accuracies (as
``float.hex`` strings, so equality is bit equality) and per-run
``epochs_run``.  At the default seed each workload's digests must equal
the committed reference in ``reference/<name>.json``; the pool and TCP
workloads share the reference of their common searches run inline.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: The seed whose outcomes are pinned by a committed reference.
DEFAULT_SEED = 0


def search_digest(family: str, feature_size: int, experiment: int, outcome):
    """Plain-JSON digest of one :class:`~repro.core.grid_search.SearchOutcome`."""
    return {
        "search": f"{family}/fs{feature_size}/e{experiment}",
        "winner": outcome.winner.spec.label if outcome.winner else None,
        "candidates": [
            {
                "label": c.spec.label,
                "flops": int(c.flops),
                "params": int(c.params),
                "train": [float(a).hex() for a in c.train_accuracies],
                "val": [float(a).hex() for a in c.val_accuracies],
                "epochs": [int(e) for e in c.epochs_run],
            }
            for c in outcome.evaluated
        ],
    }


def cheapest_first(specs, convention: str) -> list[str]:
    """Labels of a search space in commit order, ranked independently
    of the program: FLOPs, then parameter count, then label."""
    from repro.flops.conventions import get_convention

    conv = get_convention(convention)
    ranked = sorted(specs, key=lambda s: (s.flops(conv), s.param_count, s.label))
    return [s.label for s in ranked]


def invariant_errors(outcome, threshold: float, epochs: int, order) -> list[str]:
    """Structural checks that hold at any seed.

    ``order`` is :func:`cheapest_first` of the search space: the
    committed candidates must be its prefix.
    """
    errors = []
    labels = [c.spec.label for c in outcome.evaluated]
    if labels != order[: len(labels)]:
        errors.append(f"commits are not the cheapest candidates in order: {labels}")
    passes = [c.passes(threshold) for c in outcome.evaluated]
    if outcome.winner is None:
        if any(passes):
            errors.append("a candidate passed but the search has no winner")
    elif not passes or outcome.evaluated[-1] is not outcome.winner:
        errors.append("the winner is not the last committed candidate")
    elif any(passes[:-1]):
        errors.append("the winner is not the first passing candidate")
    for c in outcome.evaluated:
        for acc in (*c.train_accuracies, *c.val_accuracies):
            if not (math.isfinite(acc) and 0.0 <= acc <= 1.0):
                errors.append(f"{c.spec.label}: accuracy {acc!r} not in [0, 1]")
        if not c.epochs_run or any(not 1 <= e <= epochs for e in c.epochs_run):
            errors.append(f"{c.spec.label}: epochs_run {c.epochs_run}")
    return errors


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_reference(name: str) -> list[dict] | None:
    path = reference_path(name)
    if not path.exists():
        return None
    return json.loads(path.read_text())["searches"]


def digest_mismatches(digests: list[dict], reference: list[dict]) -> list[int]:
    """Indices of searches whose digest differs from the reference."""
    bad = [i for i, (d, r) in enumerate(zip(digests, reference)) if d != r]
    bad.extend(range(min(len(digests), len(reference)), len(digests)))
    return bad
