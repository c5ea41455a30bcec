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
field, season, time of day, and finally the cost noise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

# Object rectangles get sides in this range (clipped down for tiny rasters).
OBJECT_SIDE_MIN = 6
OBJECT_SIDE_MAX = 14

MIN_RASTER_SIDE = 16
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


def _validate(cfg: GenConfig) -> tuple[int, int]:
    """Check config invariants; returns the usable object side range."""
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
    smin, smax = cfg.speed_range
    if not 0 <= smin <= smax < math.inf:
        raise GenError(f"bad speed_range {cfg.speed_range}")
    if not 0.0 <= cfg.occlusion_rate <= 1.0:
        raise GenError(f"occlusion_rate {cfg.occlusion_rate} outside [0,1]")
    cc = cfg.cost_coeffs
    for name in ("alpha_boxes", "beta_motion", "gamma_occlusion", "delta_length", "noise_sd"):
        if not 0 <= getattr(cc, name) < math.inf:
            raise GenError(f"cost coefficient {name} must be finite and non-negative")
    # Objects must fit with room to move: at least 2 px of travel per axis.
    side_max = min(OBJECT_SIDE_MAX, width - 2, height - 2)
    if side_max < OBJECT_SIDE_MIN:
        raise GenError(
            f"raster {width}x{height} cannot host a {OBJECT_SIDE_MIN}px object"
        )
    return OBJECT_SIDE_MIN, side_max


def split_sizes(n: int) -> tuple[int, int, int]:
    """70/20/10 split by sequence count; test gets the remainder."""
    n_train = round(0.7 * n)
    n_val = round(0.2 * n)
    n_test = n - n_train - n_val
    if n_test < 0:
        n_val += n_test
        n_test = 0
    return n_train, n_val, n_test


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


def _reflect(pos: float, vel: float, limit: float) -> tuple[float, float]:
    # Fold the position back into [0, limit], flipping velocity per bounce.
    if limit <= 0:
        return 0.0, 0.0
    while pos < 0 or pos > limit:
        if pos < 0:
            pos = -pos
        else:
            pos = 2 * limit - pos
        vel = -vel
    return pos, vel


def _occlusion_flags(rects: list[tuple[int, int, int, int]]) -> list[Occlusion]:
    """Flag each rectangle by its worst overlap fraction with any other."""
    flags = []
    for j, (xj, yj, wj, hj) in enumerate(rects):
        worst = 0.0
        for m, (xm, ym, wm, hm) in enumerate(rects):
            if m == j:
                continue
            ix = min(xj + wj, xm + wm) - max(xj, xm)
            iy = min(yj + hj, ym + hm) - max(yj, ym)
            if ix > 0 and iy > 0:
                worst = max(worst, (ix * iy) / (wj * hj))
        if worst > FULL_OVERLAP:
            flags.append(Occlusion.FULL)
        elif worst > PARTIAL_OVERLAP:
            flags.append(Occlusion.PARTIAL)
        else:
            flags.append(Occlusion.VISIBLE)
    return flags


def _generate_sequence(
    cfg: GenConfig,
    index: int,
    split: Split,
    scene_id: int,
    side_range: tuple[int, int],
) -> Sequence:
    width, height = cfg.raster_size
    rng = np.random.Generator(np.random.PCG64(cfg.rng_seed ^ index))

    n_frames = int(rng.integers(cfg.frame_len_range[0], cfg.frame_len_range[1] + 1))
    n_objects = int(
        rng.integers(cfg.objects_per_seq_range[0], cfg.objects_per_seq_range[1] + 1)
    )
    classes = rng.integers(0, 4, size=n_objects)
    sides = rng.integers(side_range[0], side_range[1] + 1, size=(n_objects, 2))
    speeds = rng.uniform(cfg.speed_range[0], cfg.speed_range[1], size=n_objects)
    headings = rng.uniform(0.0, 2.0 * math.pi, size=n_objects)
    vel = np.stack([speeds * np.cos(headings), speeds * np.sin(headings)], axis=1)

    pos = np.zeros((n_objects, 2))
    for j in range(n_objects):
        limit_x = width - int(sides[j, 0])
        limit_y = height - int(sides[j, 1])
        paired = j > 0 and float(rng.random()) < cfg.occlusion_rate
        if paired:
            target = int(rng.integers(0, j))
            jitter = rng.integers(-2, 3, size=2)
            pos[j, 0] = min(max(pos[target, 0] + jitter[0], 0.0), limit_x)
            pos[j, 1] = min(max(pos[target, 1] + jitter[1], 0.0), limit_y)
        else:
            pos[j, 0] = rng.uniform(0.0, limit_x)
            pos[j, 1] = rng.uniform(0.0, limit_y)

    noise = rng.integers(-NOISE_AMPLITUDE, NOISE_AMPLITUDE + 1, size=(height, width))
    season = Season(int(rng.integers(0, 3)))
    tod = TimeOfDay(int(rng.integers(0, 3)))

    # Fixed per-sequence noise field under both background and objects, so a
    # static scene produces byte-identical consecutive rasters.
    base = (BACKGROUND_LEVEL + noise).astype(np.uint8)
    bright = (OBJECT_LEVEL + noise).astype(np.uint8)

    frames: list[Frame] = []
    occluded_total = 0
    for t in range(n_frames):
        raster = base.copy()
        rects: list[tuple[int, int, int, int]] = []
        for j in range(n_objects):
            w_j, h_j = int(sides[j, 0]), int(sides[j, 1])
            ix, iy = int(round(pos[j, 0])), int(round(pos[j, 1]))
            raster[iy : iy + h_j, ix : ix + w_j] = bright[iy : iy + h_j, ix : ix + w_j]
            rects.append((ix, iy, w_j, h_j))
        raster.flags.writeable = False  # read-only like a loaded raster: flow_cache relies on it
        flags = _occlusion_flags(rects)
        boxes = []
        for j, (ix, iy, w_j, h_j) in enumerate(rects):
            boxes.append(
                BoundingBox(
                    int(classes[j]),
                    (ix + w_j / 2) / width,
                    (iy + h_j / 2) / height,
                    w_j / width,
                    h_j / height,
                    flags[j],
                )
            )
            if flags[j] is not Occlusion.VISIBLE:
                occluded_total += 1
        frames.append(Frame(t, boxes, raster))
        for j in range(n_objects):
            pos[j, 0], vel[j, 0] = _reflect(
                pos[j, 0] + vel[j, 0], vel[j, 0], width - int(sides[j, 0])
            )
            pos[j, 1], vel[j, 1] = _reflect(
                pos[j, 1] + vel[j, 1], vel[j, 1], height - int(sides[j, 1])
            )

    cc = cfg.cost_coeffs
    total_boxes = n_objects * n_frames
    total_motion = float(np.sum(speeds)) * n_frames
    cost = (
        cc.alpha_boxes * total_boxes
        + cc.beta_motion * total_motion
        + cc.gamma_occlusion * occluded_total
        + cc.delta_length * n_frames
        + float(rng.normal(0.0, cc.noise_sd))
    )
    cost = max(cost, COST_FLOOR_HOURS)

    meta = SequenceMeta(
        sequence_id=f"seq{index:03d}",
        cost_hours=cost,
        scene_id=scene_id,
        season=season,
        time_of_day=tod,
        split=split,
    )
    return Sequence(meta, frames)


def generate_pool(cfg: GenConfig) -> PoolState:
    """Generate a full synthetic pool from the config. Raises GenError on
    degenerate settings (objects that cannot fit the raster, empty ranges)."""
    side_range = _validate(cfg)
    plan = _split_plan(cfg.n_sequences)
    sequences = [
        _generate_sequence(cfg, i, split, scene, side_range)
        for i, (split, scene) in enumerate(plan)
    ]
    return PoolState.from_sequences(sequences)
