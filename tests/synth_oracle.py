"""The scalar generator seqal.synth replaced, kept as the reference its tests
compare against: per-object positions folded by `_reflect`, a pairwise
`_occlusion_flags` per frame, and one raster copy per frame.

`_generate_sequence` takes the same arguments as the package's and must give
an equal Sequence: meta, boxes with their occlusion flags, and raster bytes.
"""

import math

import numpy as np

from seqal.pool import (
    BoundingBox,
    Frame,
    Occlusion,
    Season,
    Sequence,
    SequenceMeta,
    Split,
    TimeOfDay,
)
from seqal.synth import (
    BACKGROUND_LEVEL,
    COST_FLOOR_HOURS,
    FULL_OVERLAP,
    NOISE_AMPLITUDE,
    OBJECT_LEVEL,
    PARTIAL_OVERLAP,
    GenConfig,
)


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
        raster.flags.writeable = False  # read-only like a loaded raster: no run edits it
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
