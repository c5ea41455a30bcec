"""Synthetic sequence-pool generator.

Sequences are moving bright rectangles on a noisy dark background. Objects
translate at constant per-object velocity and reflect elastically off the
raster borders, so every object stays visible for the whole sequence and the
emitted boxes track the drawn pixels exactly. Annotation cost is a linear
function of box count, object motion, occlusion events, and length, plus
Gaussian noise, clamped to a small positive floor.

Determinism: an identical config yields a byte-identical pool. Each sequence
draws from its own PCG64 generator seeded with ``rng_seed XOR index``; the
draw order inside a sequence is fixed (length, object count, classes, sizes,
speeds, headings, spawn positions with their pairing coin flips, the noise
field, season, time of day, and finally the cost noise). No draw depends on
the frames, so a pool makes all its draws first, then walks all its objects
through their frames in one lockstep pass to the longest sequence's end. A
sequence's slice of that walk, integer top-left corners shaped (frames,
objects, 2), and its objects' sides give its occlusion flags, boxes, rasters
(rendered per read) and occluded-box count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate

import numpy as np

from .errors import GenError
from .pool import (
    BoundingBox,
    Frame,
    Occlusion,
    PoolState,
    Season,
    Sequence,
    SequenceMeta,
    Split,
    TimeOfDay,
)

BACKGROUND_LEVEL = 30
OBJECT_LEVEL = 200
NOISE_AMPLITUDE = 5

# Object rectangles get sides in this range. The smallest admitted raster
# leaves the largest object 2 px of travel per axis.
OBJECT_SIDE_MIN = 6
OBJECT_SIDE_MAX = 14

MIN_RASTER_SIDE = OBJECT_SIDE_MAX + 2
COST_FLOOR_HOURS = 0.1

PARTIAL_OVERLAP = 0.5
FULL_OVERLAP = 0.9


@dataclass
class CostCoeffs:
    """Linear cost model coefficients, all in hours per unit."""

    alpha_boxes: float = 0.002
    beta_motion: float = 0.001
    gamma_occlusion: float = 0.005
    delta_length: float = 0.006
    noise_sd: float = 0.5


@dataclass
class GenConfig:
    rng_seed: int = 0
    n_sequences: int = 126
    frame_len_range: tuple[int, int] = (594, 864)
    raster_size: tuple[int, int] = (64, 64)  # (width, height)
    objects_per_seq_range: tuple[int, int] = (0, 6)
    speed_range: tuple[float, float] = (0.5, 3.0)
    occlusion_rate: float = 0.15
    cost_coeffs: CostCoeffs = field(default_factory=CostCoeffs)


def _validate(cfg: GenConfig) -> None:
    """Check config invariants."""
    if cfg.rng_seed < 0:
        raise GenError(f"rng_seed must be >= 0, got {cfg.rng_seed}")
    if cfg.n_sequences < 1:
        raise GenError("n_sequences must be at least 1")
    lo, hi = cfg.frame_len_range
    if lo < 1 or hi < lo:
        raise GenError(f"bad frame_len_range {cfg.frame_len_range}")
    width, height = cfg.raster_size
    if width < MIN_RASTER_SIDE or height < MIN_RASTER_SIDE:
        raise GenError(
            f"raster {width}x{height} below the {MIN_RASTER_SIDE}px minimum"
        )
    omin, omax = cfg.objects_per_seq_range
    if omin < 0 or omax < omin:
        raise GenError(f"bad objects_per_seq_range {cfg.objects_per_seq_range}")
    # The fold takes one pass per bounce, so a step is capped at the smaller
    # raster side; near 1e17 px it would never terminate.
    smin, smax = cfg.speed_range
    if not 0 <= smin <= smax <= min(width, height):
        raise GenError(
            f"bad speed_range {cfg.speed_range}: speeds lie in [0, {min(width, height)}]"
        )
    if not 0.0 <= cfg.occlusion_rate <= 1.0:
        raise GenError(f"occlusion_rate {cfg.occlusion_rate} outside [0,1]")
    cc = cfg.cost_coeffs
    for name in ("alpha_boxes", "beta_motion", "gamma_occlusion", "delta_length", "noise_sd"):
        if not 0 <= getattr(cc, name) < math.inf:
            raise GenError(f"cost coefficient {name} must be finite and non-negative")


def split_sizes(n: int) -> tuple[int, int, int]:
    """70/20/10 split by sequence count; test gets the remainder."""
    n_train = round(0.7 * n)
    n_val = round(0.2 * n)
    return n_train, n_val, n - n_train - n_val


def _split_plan(n: int) -> list[tuple[Split, int]]:
    """Per-sequence (split, scene_id) assignments; scenes never cross splits.

    Sequences are paired two-to-a-scene within each split, with globally
    unique scene ids.
    """
    n_train, n_val, n_test = split_sizes(n)
    plan: list[tuple[Split, int]] = []
    scene_base = 0
    for split, count in (
        (Split.TRAIN, n_train),
        (Split.VALIDATION, n_val),
        (Split.TEST, n_test),
    ):
        for local in range(count):
            plan.append((split, scene_base + local // 2))
        scene_base += (count + 1) // 2
    return plan


def _corners(pos: np.ndarray, vel: np.ndarray, limits: np.ndarray, n_frames: int) -> np.ndarray:
    """Top-left pixel corners, shaped (frames, objects, 2). Each step moves
    every position by its velocity and folds it back into [0, limit] per
    axis, flipping that velocity component once per bounce."""
    track = np.empty((n_frames, *pos.shape))
    for t in range(n_frames):
        track[t] = pos
        pos = pos + vel
        while (out := (pos < 0) | (pos > limits)).any():
            vel = np.where(out, -vel, vel)
            pos = np.where(pos < 0, -pos, np.where(out, 2 * limits - pos, pos))
    return np.rint(track).astype(np.int64)


def _occlusion_flags(corners: np.ndarray, sides: np.ndarray) -> np.ndarray:
    """Occlusion value of each box, shaped (frames, objects): its largest
    pixel overlap with another box of its frame, over its own area. One other
    object at a time, so temporaries stay (frames, objects)."""
    ends = corners + sides
    worst = np.zeros(corners.shape[:2], dtype=np.int64)
    for m in range(len(sides)):
        inter = np.minimum(ends, ends[:, m : m + 1]) - np.maximum(corners, corners[:, m : m + 1])
        area = inter.clip(0).prod(axis=2)
        area[:, m] = 0
        worst = np.maximum(worst, area)
    fraction = worst / sides.prod(axis=1)
    return (fraction > PARTIAL_OVERLAP).astype(np.int64) + (fraction > FULL_OVERLAP)


def _draw(cfg: GenConfig, index: int) -> tuple:
    """Sequence `index`'s draws from its own generator, in the fixed order."""
    width, height = cfg.raster_size
    rng = np.random.Generator(np.random.PCG64(cfg.rng_seed ^ index))

    n_frames = int(rng.integers(cfg.frame_len_range[0], cfg.frame_len_range[1] + 1))
    n_objects = int(rng.integers(cfg.objects_per_seq_range[0], cfg.objects_per_seq_range[1] + 1))
    classes = rng.integers(0, 4, size=n_objects)
    sides = rng.integers(OBJECT_SIDE_MIN, OBJECT_SIDE_MAX + 1, size=(n_objects, 2))
    speeds = rng.uniform(cfg.speed_range[0], cfg.speed_range[1], size=n_objects)
    headings = rng.uniform(0.0, 2.0 * math.pi, size=n_objects)
    vel = np.stack([speeds * np.cos(headings), speeds * np.sin(headings)], axis=1)
    limits = (width, height) - sides

    pos = np.zeros((n_objects, 2))
    for j in range(n_objects):
        if j > 0 and float(rng.random()) < cfg.occlusion_rate:
            target = int(rng.integers(0, j))
            jitter = rng.integers(-2, 3, size=2)
            pos[j] = np.clip(pos[target] + jitter, 0.0, limits[j])
        else:
            pos[j] = rng.uniform(0.0, limits[j])

    noise = rng.integers(-NOISE_AMPLITUDE, NOISE_AMPLITUDE + 1, size=(height, width))
    season = Season(int(rng.integers(0, 3)))
    tod = TimeOfDay(int(rng.integers(0, 3)))
    cost_noise = float(rng.normal(0.0, cfg.cost_coeffs.noise_sd))
    # Fixed per-sequence noise field under both background and objects, so a
    # static scene produces byte-identical consecutive rasters.
    base = (BACKGROUND_LEVEL + noise).astype(np.uint8)
    bright = (OBJECT_LEVEL + noise).astype(np.uint8)
    return n_frames, pos, vel, limits, classes, sides, speeds, base, bright, season, tod, cost_noise


def _sequence(
    cfg: GenConfig, index: int, split: Split, scene_id: int, draws: tuple, corners: np.ndarray
) -> Sequence:
    """Sequence `index` from its draws and its corners, (frames, objects, 2)."""
    n_frames, _, _, _, classes, sides, speeds, base, bright, season, tod, cost_noise = draws
    width, height = cfg.raster_size
    flags = _occlusion_flags(corners, sides)

    def render(t: int) -> np.ndarray:
        raster = base.copy()
        # Overlapping objects paste the same bright pixels, in any order.
        for (x, y), (w, h) in zip(corners[t].tolist(), sides):
            raster[y : y + h, x : x + w] = bright[y : y + h, x : x + w]
        raster.flags.writeable = False  # read-only like a loaded raster: no run edits it
        return raster

    cx, cy = np.moveaxis((corners + sides / 2) / (width, height), 2, 0).tolist()
    ws, hs = (sides / (width, height)).T.tolist()
    occ = np.array(list(Occlusion), dtype=object)[flags].tolist()
    classes, sides = classes.tolist(), sides.tolist()  # render, called later, reads the list
    frames = [
        Frame(t, list(map(BoundingBox, classes, cx[t], cy[t], ws, hs, occ[t])), partial(render, t))
        for t in range(n_frames)
    ]

    cc = cfg.cost_coeffs
    cost = (
        cc.alpha_boxes * (len(classes) * n_frames)
        + cc.beta_motion * (float(np.sum(speeds)) * n_frames)
        + cc.gamma_occlusion * int(np.count_nonzero(flags))
        + cc.delta_length * n_frames
        + cost_noise
    )
    meta = SequenceMeta(
        sequence_id=f"seq{index:03d}",
        cost_hours=max(cost, COST_FLOOR_HOURS),
        scene_id=scene_id,
        season=season,
        time_of_day=tod,
        split=split,
    )
    return Sequence(meta, frames)


def generate_pool(cfg: GenConfig) -> PoolState:
    """Generate a full synthetic pool from the config. Raises GenError on
    degenerate settings (objects that cannot fit the raster, empty ranges)."""
    _validate(cfg)
    draws = [_draw(cfg, i) for i in range(cfg.n_sequences)]
    n_frames, pos, vel, limits = list(zip(*draws))[:4]
    # A step is elementwise and a fold leaves in-bounds objects as they are, so
    # one walk of all objects gives each sequence's own walk as a slice.
    track = _corners(*map(np.concatenate, (pos, vel, limits)), max(n_frames))
    starts = accumulate(map(len, pos), initial=0)
    corners = [track[:n, first : first + len(p)] for n, p, first in zip(n_frames, pos, starts)]
    plan = _split_plan(cfg.n_sequences)
    return PoolState.from_sequences(
        [_sequence(cfg, i, *plan[i], draws[i], corners[i]) for i in range(cfg.n_sequences)]
    )
