"""Correctness checks run inside the benchmark command.

Each check takes plain numbers and returns ``None`` when it holds or a
one-line message naming what broke.  A failed check marks the operations of
its pass as failed and makes the command exit non-zero.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


def losses_finite(nonfinite_rounds: int) -> Optional[str]:
    if nonfinite_rounds:
        return f"{nonfinite_rounds} round(s) reported a non-finite loss"
    return None


def ledger_conserved(
    comm_bytes: int, category_bytes: Dict[str, int], round_bytes: int
) -> Optional[str]:
    """The fabric total equals the tracker's per-category sum and the rounds' sum.

    ``comm_bytes`` is the total the run reports, ``category_bytes`` the
    tracker's per-category ledger and ``round_bytes`` the sum of the byte
    deltas every ``run_round`` returned.
    """
    ledger = sum(category_bytes.values())
    if comm_bytes != ledger or comm_bytes != round_bytes:
        return (
            f"byte ledger broken: comm_bytes={comm_bytes}, per-category sum={ledger} "
            f"{dict(category_bytes)}, per-round sum={round_bytes}"
        )
    return None


def syncs_within_steps(syncs: int, steps: int) -> Optional[str]:
    if syncs > steps:
        return f"fda.syncs={syncs} exceeds fda.steps={steps}"
    return None


def accuracy_floor(accuracy: float, floor: float) -> Optional[str]:
    if not accuracy >= floor:
        return f"test_accuracy={accuracy:.4f} below the floor {floor}"
    return None


def repeatable(passes: Sequence[Dict[str, int]]) -> Optional[str]:
    """Deterministic counts agree across repeated passes of one seed."""
    first = passes[0]
    for index, later in enumerate(passes[1:], start=1):
        if later != first:
            return f"pass {index} counts {later} differ from pass 0 counts {first}"
    return None


def no_failed_cells(failed_cells: int) -> Optional[str]:
    if failed_cells:
        return f"executor.failed={failed_cells}"
    return None


def failures(*results: Optional[str]) -> List[str]:
    return [result for result in results if result is not None]
