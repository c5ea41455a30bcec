"""Annotation-cost and compute-overhead prices.

Annotation cost is priced in hours. Sequential acquisition charges a
sequence's full cost_hours. Singular (frame-level) acquisition prices each
labeled frame through frame_cost: the keyframes, every interpolation_rate-th
frame from frame 0, split the cost evenly, cost_hours / ceil(N / r) apiece,
and interpolated frames are free, so each keyframe stands for r frames.

Compute overhead is priced in GFLOPS: detector_gflops_per_frame for each
frame the refreshed detector scores, flow_gflops_per_pair for each frame of
the up-front flow pass. This module holds prices only; the runner decides
which overhead a strategy kind pays and keeps each round's charges on its
RoundRecord.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoolExhaustedError
from .pool import Sequence

MODE_SEQUENTIAL = "sequential"
MODE_SINGULAR = "singular"


@dataclass
class OverheadModel:
    """Per-unit compute prices in GFLOPS; each must be finite and >= 0."""

    detector_gflops_per_frame: float = 4.1
    flow_gflops_per_pair: float = 30.54

    def __post_init__(self) -> None:
        for name in ("detector_gflops_per_frame", "flow_gflops_per_pair"):
            price = getattr(self, name)
            if not (math.isfinite(price) and price >= 0):
                raise DomainError(f"{name} must be finite and >= 0, got {price}")


def frame_cost(seq: Sequence, frame_id: int, interpolation_rate: int) -> float:
    """Hours charged for labeling one frame of seq: a keyframe (frame id
    divisible by the rate) costs cost_hours / ceil(N / rate), an
    interpolated frame nothing."""
    if interpolation_rate < 1:
        raise DomainError(f"interpolation_rate must be >= 1, got {interpolation_rate}")
    if frame_id % interpolation_rate:
        return 0.0
    return seq.meta.cost_hours / math.ceil(seq.n_frames / interpolation_rate)


def theoretical_cost_bounds(
    costs: list[float], n_rounds: int
) -> tuple[list[float], list[float]]:
    """Cheapest-first and dearest-first cumulative cost envelopes.

    In exact arithmetic, any acquisition order's cumulative cost after k
    picks lies between lower[k-1] and upper[k-1]. The float sums need not:
    at k = n both envelopes add the same costs, in opposite orders, and can
    cross by an ulp. A sum that overflows float64, or a cost that is not
    finite, raises DomainError.
    """
    if n_rounds < 1:
        raise DomainError(f"n_rounds must be >= 1, got {n_rounds}")
    if n_rounds > len(costs):
        raise PoolExhaustedError(
            f"cannot bound {n_rounds} rounds with {len(costs)} sequences"
        )
    ascending = np.sort(np.asarray(costs, dtype=float))
    # cumsum adds left to right; a leading 0.0 sums -0.0 costs to +0.0.
    with np.errstate(over="ignore", invalid="ignore"):
        lower = np.cumsum([0.0, *ascending[:n_rounds]])[1:]
        upper = np.cumsum([0.0, *ascending[::-1][:n_rounds]])[1:]
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise DomainError(f"cost envelopes over {n_rounds} rounds are not finite in float64")
    return lower.tolist(), upper.tolist()


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
