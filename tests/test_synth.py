"""Generator checks: determinism, split/scene layout, geometry, cost model."""

import math

import numpy as np
import pytest

from seqal.errors import GenError
from seqal.pool import Occlusion, Split
from seqal.synth import (
    BACKGROUND_LEVEL,
    COST_FLOOR_HOURS,
    NOISE_AMPLITUDE,
    OBJECT_LEVEL,
    CostCoeffs,
    GenConfig,
    _occlusion_flags,
    _reflect,
    generate_pool,
    split_sizes,
)

from conftest import pools_match


def small_cfg(**kw):
    base = dict(
        rng_seed=5,
        n_sequences=10,
        frame_len_range=(8, 16),
        raster_size=(32, 32),
        objects_per_seq_range=(0, 3),
    )
    base.update(kw)
    return GenConfig(**base)


def occlusion_oracle(rects):
    flags = []
    for j, (xj, yj, wj, hj) in enumerate(rects):
        worst = 0.0
        for m, (xm, ym, wm, hm) in enumerate(rects):
            if m == j:
                continue
            ix = min(xj + wj, xm + wm) - max(xj, xm)
            iy = min(yj + hj, ym + hm) - max(yj, ym)
            if ix > 0 and iy > 0:
                worst = max(worst, ix * iy / (wj * hj))
        if worst > 0.9:
            flags.append(Occlusion.FULL)
        elif worst > 0.5:
            flags.append(Occlusion.PARTIAL)
        else:
            flags.append(Occlusion.VISIBLE)
    return flags


# --- determinism ---------------------------------------------------------


def test_identical_config_gives_identical_pool():
    a = generate_pool(small_cfg())
    b = generate_pool(small_cfg())
    assert pools_match(a, b, coord_tol=0.0)
    for sid in a.sequences:
        for fa, fb in zip(a.sequences[sid].frames, b.sequences[sid].frames):
            assert np.array_equal(fa.raster, fb.raster)


def test_different_seed_changes_pool():
    a = generate_pool(small_cfg(rng_seed=5))
    b = generate_pool(small_cfg(rng_seed=1234567))
    assert not pools_match(a, b)


# --- splits and scenes ---------------------------------------------------


def test_split_sizes_reference_values():
    assert split_sizes(126) == (88, 25, 13)
    assert split_sizes(10) == (7, 2, 1)
    assert split_sizes(1) == (1, 0, 0)


@pytest.mark.parametrize("n", range(1, 61))
def test_split_sizes_partition(n):
    tr, va, te = split_sizes(n)
    assert tr + va + te == n
    assert tr >= 0 and va >= 0 and te >= 0


def test_splits_and_ids_follow_plan():
    pool = generate_pool(small_cfg())
    tr, va, te = split_sizes(10)
    assert sorted(pool.sequences) == [f"seq{i:03d}" for i in range(10)]
    assert len(pool.train_ids) == tr
    assert len(pool.split_ids(Split.VALIDATION)) == va
    assert len(pool.test_ids) == te
    # plan order is train block, then validation, then test
    assert pool.sequences["seq000"].meta.split is Split.TRAIN
    assert pool.sequences[f"seq{10 - 1:03d}"].meta.split is Split.TEST


def test_scenes_paired_within_split():
    pool = generate_pool(small_cfg(n_sequences=20))
    by_split = {}
    for seq in pool.sequences.values():
        by_split.setdefault(seq.meta.split, []).append(seq.meta.scene_id)
    seen = {}
    for split, scenes in by_split.items():
        for sc in scenes:
            assert scenes.count(sc) <= 2
            if sc in seen:
                assert seen[sc] is split, "scene id crossed a split boundary"
            seen[sc] = split


# --- geometry ------------------------------------------------------------


def test_reflect_keeps_position_in_bounds():
    rng = np.random.default_rng(0)
    for _ in range(200):
        pos = float(rng.uniform(-50, 150))
        vel = float(rng.uniform(-5, 5))
        limit = float(rng.uniform(1, 60))
        npos, nvel = _reflect(pos, vel, limit)
        assert 0.0 <= npos <= limit
        assert abs(nvel) == pytest.approx(abs(vel))


def test_reflect_degenerate_limit():
    assert _reflect(3.0, 1.0, 0.0) == (0.0, 0.0)


def test_occlusion_flags_hand_cases():
    assert _occlusion_flags([(0, 0, 10, 10), (20, 20, 5, 5)]) == [
        Occlusion.VISIBLE,
        Occlusion.VISIBLE,
    ]
    # 8x8 overlap on 10x10 boxes: 0.64 for both
    assert _occlusion_flags([(0, 0, 10, 10), (2, 2, 10, 10)]) == [
        Occlusion.PARTIAL,
        Occlusion.PARTIAL,
    ]
    # coincident boxes hide each other completely
    assert _occlusion_flags([(0, 0, 10, 10), (0, 0, 10, 10)]) == [
        Occlusion.FULL,
        Occlusion.FULL,
    ]
    # asymmetric: the small box is swallowed, the big one barely touched
    assert _occlusion_flags([(0, 0, 20, 20), (0, 0, 6, 6)]) == [
        Occlusion.VISIBLE,
        Occlusion.FULL,
    ]


def test_generated_flags_match_oracle():
    pool = generate_pool(small_cfg(occlusion_rate=0.9, objects_per_seq_range=(2, 4)))
    checked = 0
    for seq in pool.sequences.values():
        width = seq.frames[0].raster.shape[1]
        height = seq.frames[0].raster.shape[0]
        for frame in seq.frames:
            rects = []
            for b in frame.boxes:
                w = round(b.w * width)
                h = round(b.h * height)
                rects.append(
                    (round(b.cx * width - w / 2), round(b.cy * height - h / 2), w, h)
                )
            assert [b.occluded for b in frame.boxes] == occlusion_oracle(rects)
            checked += len(rects)
    assert checked > 50


def test_boxes_are_valid_and_track_bright_pixels():
    pool = generate_pool(small_cfg(objects_per_seq_range=(1, 2)))
    for seq in pool.sequences.values():
        height, width = seq.frames[0].raster.shape
        for frame in seq.frames:
            for b in frame.boxes:
                b.validate()
                w = round(b.w * width)
                h = round(b.h * height)
                x = round(b.cx * width - w / 2)
                y = round(b.cy * height - h / 2)
                block = frame.raster[y : y + h, x : x + w]
                assert block.shape == (h, w)
                assert block.min() >= OBJECT_LEVEL - NOISE_AMPLITUDE


def test_empty_scene_rasters_are_static_background():
    pool = generate_pool(small_cfg(objects_per_seq_range=(0, 0)))
    for seq in pool.sequences.values():
        first = seq.frames[0].raster
        assert first.max() <= BACKGROUND_LEVEL + NOISE_AMPLITUDE
        assert first.min() >= BACKGROUND_LEVEL - NOISE_AMPLITUDE
        for frame in seq.frames[1:]:
            assert np.array_equal(frame.raster, first)


def test_frame_lengths_and_raster_shape():
    cfg = small_cfg(frame_len_range=(5, 9), raster_size=(48, 20))
    pool = generate_pool(cfg)
    for seq in pool.sequences.values():
        assert 5 <= seq.n_frames <= 9
        assert seq.frames[0].raster.shape == (20, 48)  # (height, width)


# --- costs ---------------------------------------------------------------


def test_cost_floor_applies():
    cfg = small_cfg(
        n_sequences=40,
        cost_coeffs=CostCoeffs(0.0, 0.0, 0.0, 0.0, noise_sd=5.0),
    )
    costs = [s.meta.cost_hours for s in generate_pool(cfg).sequences.values()]
    assert min(costs) == COST_FLOOR_HOURS
    assert all(c >= COST_FLOOR_HOURS for c in costs)


def test_cost_exact_for_empty_noise_free_scenes():
    cfg = small_cfg(
        objects_per_seq_range=(0, 0),
        cost_coeffs=CostCoeffs(0.002, 0.001, 0.005, 0.006, noise_sd=0.0),
    )
    for seq in generate_pool(cfg).sequences.values():
        assert seq.meta.cost_hours == pytest.approx(
            max(0.006 * seq.n_frames, COST_FLOOR_HOURS), abs=1e-12
        )


# --- validation ----------------------------------------------------------


@pytest.mark.parametrize(
    "kw",
    [
        dict(n_sequences=0),
        dict(frame_len_range=(10, 5)),
        dict(frame_len_range=(0, 5)),
        dict(raster_size=(8, 64)),
        dict(objects_per_seq_range=(3, 1)),
        dict(objects_per_seq_range=(-1, 2)),
        dict(speed_range=(2.0, 1.0)),
        dict(occlusion_rate=1.5),
        dict(cost_coeffs=CostCoeffs(alpha_boxes=-0.1)),
        dict(speed_range=(0.5, math.inf)),
        dict(speed_range=(math.nan, 1.0)),
        dict(speed_range=(0.5, math.nan)),
        dict(cost_coeffs=CostCoeffs(alpha_boxes=math.nan)),
        dict(cost_coeffs=CostCoeffs(beta_motion=math.inf)),
        dict(cost_coeffs=CostCoeffs(noise_sd=math.nan)),
    ],
)
def test_generate_pool_rejects_bad_config(kw):
    with pytest.raises(GenError):
        generate_pool(small_cfg(**kw))
