"""Annotation-cost and compute-overhead accounting.

Annotation cost is charged in hours. Sequential acquisition charges a
sequence's full cost; singular (frame-level) acquisition divides the cost
over its effective frames, ceil(N / interpolation_rate), so label
interpolation at rate r makes each annotated keyframe stand for r frames.

Compute overhead is charged in GFLOPS. Strategies that run the detector
over the unlabeled pool pay per round: after every record's acquisition
(the seed draw included) the refreshed detector scores the remaining
unlabeled frames at detector_gflops_per_frame each, so cumulative overhead
rises every round. Motion-statistics strategies pay once up front:
flow_gflops_per_pair times the total train-split frame count, constant from
round 0 on. Random and the pure length ranks pay nothing.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

from .acquisition import (
    KIND_LEAST_FRAME,
    KIND_MIN_BOXES,
    KIND_MIN_MAX_MOTION,
    KIND_MIN_MOTION,
    KIND_MOST_FRAME,
    KIND_RANDOM,
)
from .errors import DomainError, PoolExhaustedError
from .pool import SequenceMeta

MODE_SEQUENTIAL = "sequential"
MODE_SINGULAR = "singular"

OVERHEAD_NONE = "none"
OVERHEAD_INFERENTIAL = "inferential"
OVERHEAD_CONFORMAL = "conformal"

_FREE_KINDS = frozenset({KIND_RANDOM, KIND_LEAST_FRAME, KIND_MOST_FRAME})
_FLOW_KINDS = frozenset({KIND_MIN_MOTION, KIND_MIN_MAX_MOTION, KIND_MIN_BOXES})


@dataclass
class OverheadModel:
    """Per-unit compute prices in GFLOPS."""

    detector_gflops_per_frame: float = 4.1
    flow_gflops_per_pair: float = 30.54


def overhead_class(kind: str) -> str:
    """Which overhead regime a strategy kind pays.

    Length ranks and random are free: sequence length is a catalog property.
    Motion-statistics ranks pay the front-loaded flow pass; everything else
    runs the detector on the unlabeled pool each round.
    """
    if kind in _FREE_KINDS:
        return OVERHEAD_NONE
    if kind in _FLOW_KINDS:
        return OVERHEAD_CONFORMAL
    return OVERHEAD_INFERENTIAL


def effective_frames(n_frames: int, interpolation_rate: int) -> int:
    """Frames actually annotated under interpolation: ceil(N / r)."""
    if interpolation_rate < 1:
        raise DomainError(f"interpolation_rate must be >= 1, got {interpolation_rate}")
    if n_frames < 1:
        raise DomainError(f"n_frames must be >= 1, got {n_frames}")
    return math.ceil(n_frames / interpolation_rate)


def sequence_cost(
    meta: SequenceMeta,
    mode: str = MODE_SEQUENTIAL,
    interpolation_rate: int = 1,
    frames_taken: int | None = None,
    n_frames: int | None = None,
) -> float:
    """Hours charged for acquiring from one sequence.

    Sequential mode charges the full cost regardless of the other arguments.
    Singular mode charges frames_taken effective frames at
    cost_hours / ceil(n_frames / interpolation_rate) apiece.
    """
    if mode == MODE_SEQUENTIAL:
        return meta.cost_hours
    if mode != MODE_SINGULAR:
        raise DomainError(f"unknown costing mode {mode!r}")
    if frames_taken is None or n_frames is None:
        raise DomainError("singular mode needs frames_taken and n_frames")
    eff = effective_frames(n_frames, interpolation_rate)
    if not 0 <= frames_taken <= n_frames:
        raise DomainError(
            f"frames_taken {frames_taken} outside [0, {n_frames}]"
        )
    return frames_taken * meta.cost_hours / eff


def is_keyframe(frame_id: int, interpolation_rate: int) -> bool:
    """Keyframes (index divisible by the rate) carry the annotation charge;
    interpolated frames ride free."""
    if interpolation_rate < 1:
        raise DomainError(f"interpolation_rate must be >= 1, got {interpolation_rate}")
    return frame_id % interpolation_rate == 0


def theoretical_cost_bounds(
    costs: list[float], n_rounds: int
) -> tuple[list[float], list[float]]:
    """Cheapest-first and dearest-first cumulative cost envelopes.

    Any acquisition order's cumulative cost after k picks lies between
    lower[k-1] and upper[k-1].
    """
    if n_rounds < 1:
        raise DomainError(f"n_rounds must be >= 1, got {n_rounds}")
    if n_rounds > len(costs):
        raise PoolExhaustedError(
            f"cannot bound {n_rounds} rounds with {len(costs)} sequences"
        )
    ascending = sorted(costs)
    lower, upper = [], []
    lo = hi = 0.0
    for k in range(n_rounds):
        lo += ascending[k]
        hi += ascending[-1 - k]
        lower.append(lo)
        upper.append(hi)
    return lower, upper


def overhead_inferential(model: OverheadModel, unlabeled_frames: int) -> float:
    """One round's detector GFLOPS: the refreshed detector scores every frame
    still unlabeled."""
    if unlabeled_frames < 0:
        raise DomainError(f"negative frame count {unlabeled_frames}")
    return model.detector_gflops_per_frame * unlabeled_frames


def overhead_conformal(model: OverheadModel, total_train_frames: int) -> float:
    """One-off flow cost over every frame available for training."""
    if total_train_frames < 0:
        raise DomainError(f"negative frame count {total_train_frames}")
    return model.flow_gflops_per_pair * total_train_frames


@dataclass
class LedgerEntry:
    round_index: int
    selected: tuple[str, ...]
    round_cost_hours: float
    cumulative_cost_hours: float
    round_overhead_gflops: float
    cumulative_overhead_gflops: float


@dataclass
class CostLedger:
    """Per-round charge log with running totals."""

    entries: list[LedgerEntry] = field(default_factory=list)

    def charge(
        self, round_index: int, selected: list[str], cost_hours: float, overhead_gflops: float
    ) -> LedgerEntry:
        if cost_hours < 0 or overhead_gflops < 0:
            raise DomainError("charges must be non-negative")
        prev_cost = self.entries[-1].cumulative_cost_hours if self.entries else 0.0
        prev_over = self.entries[-1].cumulative_overhead_gflops if self.entries else 0.0
        entry = LedgerEntry(
            round_index=round_index,
            selected=tuple(selected),
            round_cost_hours=cost_hours,
            cumulative_cost_hours=prev_cost + cost_hours,
            round_overhead_gflops=overhead_gflops,
            cumulative_overhead_gflops=prev_over + overhead_gflops,
        )
        self.entries.append(entry)
        return entry


LEDGER_COLUMNS = (
    "seed",
    "round",
    "selected_ids",
    "round_cost_h",
    "cum_cost_h",
    "round_gflops",
    "cum_gflops",
)


def write_ledgers(ledgers: dict[int, CostLedger], path: Path | str) -> None:
    """One CSV across seeds; floats at 6 decimals, ids joined by ';'."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LEDGER_COLUMNS)
        for seed in sorted(ledgers):
            for e in ledgers[seed].entries:
                writer.writerow(
                    [
                        seed,
                        e.round_index,
                        ";".join(e.selected),
                        "%.6f" % e.round_cost_hours,
                        "%.6f" % e.cumulative_cost_hours,
                        "%.6f" % e.round_overhead_gflops,
                        "%.6f" % e.cumulative_overhead_gflops,
                    ]
                )
