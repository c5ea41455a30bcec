"""Frame-differencing motion statistics.

Stands in for dense optical flow over a sequence's 8-bit (uint8) rasters.
One pass per sequence stacks the rasters and takes each consecutive pair's
exact absolute difference once, in uint8 as max - min: a frame's motion is
the integer sum of that difference, and its box estimate counts the
8-connected components of the difference thresholded at ``threshold`` whose
area clears ``min_area``. One labelling pass serves every pair: the masks lie
end to end in one strip, an empty row after each, which keeps pairs apart.
The strip is cut into runs of foreground, and runs on adjacent rows that
touch, diagonally included, are joined into components (the run-based
labelling of He, Chao and Suzuki, IEEE TIP 2008). The join hooks roots and
jumps pointers as Shiloach and Vishkin's connectivity algorithm does (J.
Algorithms 1982), so it takes a few rounds even on spirals. Nothing is
cached: every call reads each frame's raster once, as the sequence holds it
at that moment.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, MissingRasterError, ShapeError
from .pool import Sequence
from .tables import write_table

DEFAULT_THRESHOLD = 10
DEFAULT_MIN_AREA = 25

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
    # a False column before each row and a False row after each pair: no run
    # crosses a row end, no component crosses a pair, and the strip starts
    # and ends False, so its changes alternate between run starts and ends
    strip = np.zeros((pairs, h + 1, w + 1), dtype=bool)
    np.greater_equal(diff, threshold, out=strip[:, :h, 1:])
    flat = strip.ravel()
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    starts, ends = changes[0::2], changes[1::2]
    # the runs b on the next row, w + 1 flat positions on, that touch run a,
    # diagonals included, are those with b.end >= a.start and b.start <=
    # a.end (ends exclusive); they lie side by side from run first[a] on
    first = np.searchsorted(ends, starts + w + 1)
    touching = np.searchsorted(starts, ends + w + 1, side="right") - first
    a = np.repeat(np.arange(starts.size), touching)
    b = np.arange(a.size) + np.repeat(first - (np.cumsum(touching) - touching), touching)
    # every round hooks each edge's larger root onto its smaller one, then
    # jumps pointers until each run points at its root; a component's root
    # ends as its first run
    root = np.arange(starts.size)
    while not np.array_equal(ra := root[a], rb := root[b]):
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(up := root[root], root):
            root = up
    big = np.bincount(root, weights=ends - starts, minlength=starts.size) >= min_area
    boxes = [0] + np.bincount(starts[big] // ((h + 1) * (w + 1)), minlength=pairs).tolist()
    motions = [0] + diff.sum(axis=(1, 2), dtype=np.int64).tolist()
    global _computations
    _computations += 1
    return FlowStats(motions, boxes)


def write_flow_stats(stats: FlowStats, sequence_id: str, out_dir: Path | str) -> Path:
    """Write one sequence's stats as ``<sequence_id>.flow.csv``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{sequence_id}.flow.csv"
    rows = enumerate(zip(stats.motion_scores, stats.box_estimates))
    write_table(path, ["frame_id", "motion", "box_est"], ([fid, m, b] for fid, (m, b) in rows))
    return path
