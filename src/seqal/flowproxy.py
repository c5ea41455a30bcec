"""Frame-differencing motion statistics.

Stands in for dense optical flow: per-frame motion is the exact integer sum
of absolute pixel differences between consecutive rasters, and the box
estimate counts 8-connected components of the thresholded difference image
whose area clears a minimum. Results are cached onto the sequence, keyed by
threshold and min_area, so the computation runs once per sequence per
parameter pair.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import DomainError, MissingRasterError, ShapeError
from .pool import Sequence

DEFAULT_THRESHOLD = 10
DEFAULT_MIN_AREA = 25

_EIGHT_CONNECTED = np.ones((3, 3), dtype=int)

_computations = 0


def computations() -> int:
    """How many sequences have had their stats actually computed (not cached)."""
    return _computations


@dataclass
class FlowStats:
    """Per-frame motion statistics for one sequence.

    motion_scores[0] and box_estimates[0] are always zero: frame 0 has no
    predecessor.
    """

    motion_scores: list[int]
    box_estimates: list[int]
    threshold: int
    min_area: int


def _as_raster(arr, name: str) -> np.ndarray:
    a = np.asarray(arr)
    if a.ndim != 2 or a.size == 0:
        raise ShapeError(f"{name} must be a non-empty 2-D array, got shape {a.shape}")
    return a.astype(np.int64, copy=False)


def motion_score(prev, curr) -> int:
    """Exact integer sum of absolute pixel differences."""
    a = _as_raster(prev, "prev")
    b = _as_raster(curr, "curr")
    if a.shape != b.shape:
        raise ShapeError(f"raster shapes differ: {a.shape} vs {b.shape}")
    return int(np.abs(b - a).sum())


def check_params(threshold: int, min_area: int) -> None:
    """Raise DomainError unless threshold is in [0, 255] and min_area >= 1."""
    if not 0 <= threshold <= 255:
        raise DomainError(f"threshold {threshold} outside [0, 255]")
    if min_area < 1:
        raise DomainError(f"min_area must be at least 1, got {min_area}")


def difference_mask(prev, curr, threshold: int) -> np.ndarray:
    a = _as_raster(prev, "prev")
    b = _as_raster(curr, "curr")
    if a.shape != b.shape:
        raise ShapeError(f"raster shapes differ: {a.shape} vs {b.shape}")
    return np.abs(b - a) >= threshold


def estimate_boxes(
    prev, curr, threshold: int = DEFAULT_THRESHOLD, min_area: int = DEFAULT_MIN_AREA
) -> int:
    """Count moved objects between two rasters.

    Binarizes |curr - prev| at the threshold and counts 8-connected
    components with at least min_area pixels.
    """
    check_params(threshold, min_area)
    mask = difference_mask(prev, curr, threshold)
    labels, count = ndimage.label(mask, structure=_EIGHT_CONNECTED)
    if count == 0:
        return 0
    areas = np.bincount(labels.ravel())[1:]
    return int(np.count_nonzero(areas >= min_area))


def compute_flow_stats(
    seq: Sequence,
    threshold: int = DEFAULT_THRESHOLD,
    min_area: int = DEFAULT_MIN_AREA,
) -> FlowStats:
    """Compute (or fetch cached) motion statistics for a whole sequence.

    Requires a raster on every frame. The values are cached on the sequence;
    a second call with the same threshold and min_area returns them without
    recomputing, which the computation counter makes observable.
    """
    check_params(threshold, min_area)
    key = (threshold, min_area)
    if key not in seq.flow_cache:
        missing = [f.frame_id for f in seq.frames if f.raster is None]
        if missing:
            raise MissingRasterError(
                f"sequence {seq.sequence_id!r} lacks rasters for frames {missing[:5]}"
            )
        motions = [0]
        estimates = [0]
        for prev, curr in zip(seq.frames, seq.frames[1:]):
            motions.append(motion_score(prev.raster, curr.raster))
            estimates.append(estimate_boxes(prev.raster, curr.raster, threshold, min_area))
        seq.flow_cache[key] = (motions, estimates)
        global _computations
        _computations += 1
    motions, estimates = seq.flow_cache[key]
    return FlowStats(motions, estimates, threshold, min_area)


def write_flow_cache(stats: FlowStats, sequence_id: str, out_dir: Path | str) -> Path:
    """Write one sequence's stats as ``<sequence_id>.flow.csv``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{sequence_id}.flow.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame_id", "motion", "box_est"])
        for fid, (m, b) in enumerate(zip(stats.motion_scores, stats.box_estimates)):
            writer.writerow([fid, m, b])
    return path
