"""Frame-differencing motion statistics.

Stands in for dense optical flow over a sequence's 8-bit (uint8) rasters.
One pass per sequence stacks the rasters and takes each consecutive pair's
exact absolute difference once, in uint8 as max - min: a frame's motion is
the integer sum of that difference, and its box estimate counts the
8-connected components of the difference thresholded at ``threshold`` whose
area clears ``min_area``. One ``ndimage.label`` call labels every pair: the
masks lie end to end, an empty row after each, and only rows with foreground
and the row after each are kept, so any run of empty rows becomes one, which
still keeps components apart. Nothing is cached: every call reads each
frame's raster once, as the sequence holds it at that moment.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import DomainError, MissingRasterError, ShapeError
from .pool import Sequence
from .tables import write_table

DEFAULT_THRESHOLD = 10
DEFAULT_MIN_AREA = 25

_EIGHT_CONNECTED = np.ones((3, 3), dtype=int)

_computations = 0


def computations() -> int:
    """How many times compute_flow_stats has computed a sequence's stats."""
    return _computations


@dataclass
class FlowStats:
    """Per-frame motion statistics for one sequence.

    motion_scores[0] and box_estimates[0] are always zero: frame 0 has no
    predecessor.
    """

    motion_scores: list[int]
    box_estimates: list[int]


def check_params(threshold: int, min_area: int) -> None:
    """Raise DomainError unless threshold is in [0, 255] and min_area >= 1."""
    if not 0 <= threshold <= 255:
        raise DomainError(f"threshold {threshold} outside [0, 255]")
    if min_area < 1:
        raise DomainError(f"min_area must be at least 1, got {min_area}")


def compute_flow_stats(
    seq: Sequence,
    threshold: int = DEFAULT_THRESHOLD,
    min_area: int = DEFAULT_MIN_AREA,
) -> FlowStats:
    """Motion statistics for a whole sequence, computed from its rasters.

    Requires a non-empty 2-D uint8 raster of one shape on every frame.
    """
    check_params(threshold, min_area)
    rasters = [f.raster for f in seq.frames]
    missing = [f.frame_id for f, r in zip(seq.frames, rasters) if r is None]
    if missing:
        raise MissingRasterError(
            f"sequence {seq.sequence_id!r} lacks rasters for frames {missing[:5]}"
        )
    shape = np.shape(rasters[0])
    for f, r in zip(seq.frames, rasters):
        r = np.asarray(r)
        if r.dtype != np.uint8 or r.ndim != 2 or r.size == 0 or r.shape != shape:
            raise ShapeError(
                f"sequence {seq.sequence_id!r} frame {f.frame_id}: raster is {r.dtype} "
                f"{r.shape}, not non-empty 2-D uint8 shaped like frame 0 {shape}"
            )
    stack = np.stack(rasters)
    diff = np.maximum(stack[1:], stack[:-1]) - np.minimum(stack[1:], stack[:-1])
    pairs, h, w = diff.shape
    strip = np.zeros((pairs * (h + 1), w), dtype=bool)
    np.greater_equal(diff, threshold, out=strip.reshape(pairs, h + 1, w)[:, :h])
    keep = strip.any(axis=1)
    keep[1:] |= keep[:-1]
    strip = strip[keep]
    labels, n = ndimage.label(strip, structure=_EIGHT_CONNECTED)
    fg = labels[strip]
    pair_of = np.zeros(n + 1, dtype=np.intp)
    pair_of[fg] = np.repeat(np.flatnonzero(keep) // (h + 1), np.count_nonzero(strip, axis=1))
    big = np.bincount(fg, minlength=n + 1) >= min_area
    boxes = [0] + np.bincount(pair_of[big], minlength=pairs).tolist()
    motions = [0] + diff.sum(axis=(1, 2), dtype=np.int64).tolist()
    global _computations
    _computations += 1
    return FlowStats(motions, boxes)


def write_flow_cache(stats: FlowStats, sequence_id: str, out_dir: Path | str) -> Path:
    """Write one sequence's stats as ``<sequence_id>.flow.csv``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{sequence_id}.flow.csv"
    rows = enumerate(zip(stats.motion_scores, stats.box_estimates))
    write_table(path, ["frame_id", "motion", "box_est"], ([fid, m, b] for fid, (m, b) in rows))
    return path
