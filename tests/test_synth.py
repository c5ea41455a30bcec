"""Generator checks: determinism, split/scene layout, geometry, cost model."""

import hashlib
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
    OBJECT_SIDE_MAX,
    OBJECT_SIDE_MIN,
    CostCoeffs,
    GenConfig,
    _corners,
    _occlusion_flags,
    _split_plan,
    generate_pool,
    split_sizes,
)

import synth_oracle
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
    for _ in range(50):
        n = int(rng.integers(1, 5))
        limits = rng.integers(2, 60, size=(n, 2))
        pos = rng.uniform(0, limits)
        speed = rng.uniform(0, 64, size=(n, 1))
        heading = rng.uniform(0, 2 * math.pi, size=(n, 1))
        vel = speed * np.hstack([np.cos(heading), np.sin(heading)])
        corners = _corners(pos, vel, limits, 20)
        assert corners.shape == (20, n, 2)
        assert corners.dtype == np.int64
        assert (corners >= 0).all() and (corners <= limits).all()
        assert (corners[0] == np.rint(pos)).all()
        # a fold never lengthens a step; rounding adds at most a pixel
        assert (np.abs(np.diff(corners, axis=0)) <= np.abs(vel) + 1).all()
    # halves round to even, as Python's round does
    assert _corners(np.array([[2.5, 3.5]]), np.zeros((1, 2)), np.array([[9, 9]]), 1).tolist() == [[[2, 4]]]


def test_occlusion_flags_hand_cases():
    def flags(rects):
        rects = np.array(rects)
        return _occlusion_flags(rects[None, :, :2], rects[:, 2:]).tolist()

    assert flags([(0, 0, 10, 10), (20, 20, 5, 5)]) == [[Occlusion.VISIBLE, Occlusion.VISIBLE]]
    # 8x8 overlap on 10x10 boxes: 0.64 for both
    assert flags([(0, 0, 10, 10), (2, 2, 10, 10)]) == [[Occlusion.PARTIAL, Occlusion.PARTIAL]]
    # coincident boxes hide each other completely
    assert flags([(0, 0, 10, 10), (0, 0, 10, 10)]) == [[Occlusion.FULL, Occlusion.FULL]]
    # asymmetric: the small box is swallowed, the big one barely touched
    assert flags([(0, 0, 20, 20), (0, 0, 6, 6)]) == [[Occlusion.VISIBLE, Occlusion.FULL]]
    # edges that touch do not overlap; a lone box and an empty frame are visible
    assert flags([(0, 0, 10, 10), (10, 0, 10, 10)]) == [[Occlusion.VISIBLE, Occlusion.VISIBLE]]
    assert flags([(3, 3, 6, 6)]) == [[Occlusion.VISIBLE]]
    assert _occlusion_flags(np.zeros((4, 0, 2), dtype=np.int64), np.zeros((0, 2), dtype=np.int64)).shape == (4, 0)


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
            assert [b.occluded for b in frame.boxes] == synth_oracle._occlusion_flags(rects)
            checked += len(rects)
    assert checked > 50


def oracle_configs(n=36, seed=17):
    """Drawn generator configs. Cycling the raster, speed, occlusion and
    length families makes the draw cover: 16x16 rasters whose steps bounce
    several times, zero speeds (signed-zero velocities), occlusion rates 0
    and 1, empty and one-frame sequences, non-square rasters and the cost
    floor. Three fixed configs follow: a pool whose objects keep bouncing
    after its shortest sequence ends, a pool without objects, and speeds at
    the admitted maximum, the raster's smaller side."""
    rnd = np.random.default_rng(seed)
    configs = []
    for k in range(n):
        width, height = [(16, 16), (40, 17), (23, 64), (32, 32)][k % 4]
        side = min(width, height)
        lo = [0.0, rnd.uniform(0.7, 1.0) * side, rnd.uniform(0.0, 3.0)][k % 3]
        hi = [0.0, side, rnd.uniform(lo, side)][k % 3]
        frames_lo = 1 if k % 5 == 0 else int(rnd.integers(1, 8))
        objects_lo = int(rnd.integers(0, 3))
        configs.append(
            GenConfig(
                rng_seed=int(rnd.integers(0, 2**31)),
                n_sequences=int(rnd.integers(2, 6)),
                frame_len_range=(frames_lo, frames_lo + int(rnd.integers(0, 12))),
                raster_size=(width, height),
                objects_per_seq_range=(objects_lo, objects_lo + int(rnd.integers(0, 7))),
                speed_range=(lo, hi),
                occlusion_rate=[0.0, 1.0, float(rnd.uniform())][k // 3 % 3],
                cost_coeffs=CostCoeffs() if k % 2 else CostCoeffs(0.0, 0.0, 0.0, 0.0, noise_sd=1.0),
            )
        )
    configs += [
        GenConfig(rng_seed=3, n_sequences=5, frame_len_range=(2, 14), raster_size=(16, 16), speed_range=(8.0, 16.0)),
        GenConfig(rng_seed=4, n_sequences=4, frame_len_range=(1, 9), objects_per_seq_range=(0, 0)),
        GenConfig(rng_seed=5, n_sequences=3, frame_len_range=(3, 9), raster_size=(40, 17), speed_range=(17.0, 17.0)),
    ]
    return configs


def folds_after(seq, t0):
    """Whether some object's x or y step reverses sign between two steps
    that both end at frame t0 or later: a fold in a step the walk takes past
    frame t0 - 1. Without a fold a step keeps its sign, rounding included."""
    centers = np.array([[(b.cx, b.cy) for b in f.boxes] for f in seq.frames[t0 - 1 :]])
    steps = np.diff(centers, axis=0)
    return bool((steps[:-1] * steps[1:] < 0).any())


def test_generator_matches_scalar_oracle():
    seen = dict.fromkeys(
        ["bounces", "zero_speed", "rate_0", "rate_1", "no_objects", "one_frame", "non_square", "floor",
         "fold_after_shortest", "no_objects_in_pool", "speed_max"],
        False,
    )
    for cfg in oracle_configs():
        width, height = cfg.raster_size
        # every step is longer than the largest fold limit, 16 - OBJECT_SIDE_MIN
        seen["bounces"] |= cfg.raster_size == (16, 16) and cfg.speed_range[0] > 16 - OBJECT_SIDE_MIN
        seen["zero_speed"] |= cfg.speed_range == (0.0, 0.0)
        seen["rate_0"] |= cfg.occlusion_rate == 0.0
        seen["rate_1"] |= cfg.occlusion_rate == 1.0
        seen["non_square"] |= width != height
        seen["speed_max"] |= cfg.speed_range[0] == min(width, height)
        pool = generate_pool(cfg)
        assert len(pool.sequences) == cfg.n_sequences
        shortest = min(seq.n_frames for seq in pool.sequences.values())
        seen["no_objects_in_pool"] |= not any(seq.frames[0].boxes for seq in pool.sequences.values())
        for index, (split, scene) in enumerate(_split_plan(cfg.n_sequences)):
            new = pool.sequences[f"seq{index:03d}"]
            old = synth_oracle._generate_sequence(
                cfg, index, split, scene, (OBJECT_SIDE_MIN, OBJECT_SIDE_MAX)
            )
            seen["fold_after_shortest"] |= new.n_frames > shortest + 1 and folds_after(new, shortest)
            assert repr(new.meta) == repr(old.meta)
            assert [f.frame_id for f in new.frames] == [f.frame_id for f in old.frames]
            for fn, fo in zip(new.frames, old.frames):
                assert repr(fn.boxes) == repr(fo.boxes)
                assert fn.raster.shape == fo.raster.shape == (height, width)
                assert fn.raster.dtype == np.uint8
                assert fn.raster.tobytes() == fo.raster.tobytes()
                assert not fn.raster.flags.writeable
            seen["no_objects"] |= not new.frames[0].boxes
            seen["one_frame"] |= new.n_frames == 1
            seen["floor"] |= new.meta.cost_hours == COST_FLOOR_HOURS
    assert all(seen.values()), seen


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


@pytest.mark.parametrize(
    "frame_len_range,digest",
    [
        ((59, 86), "2afac62c83e6cd66752db10486472d1cba2dd3ae5954736e4a6c96b004c3854e"),
        ((30, 43), "42764cdf5fff66f96e7180126b9ffe2a2f475809c56dac407f0811d07c44c52f"),
    ],
    ids=["frames_59_86", "frames_30_43"],
)
def test_generated_pool_bytes_pinned(frame_len_range, digest):
    """The two generated pools of the benchmark's in-memory workloads, byte
    for byte: SHA-256 over every meta and box repr and every raster."""
    h = hashlib.sha256()
    for seq in generate_pool(GenConfig(rng_seed=0, frame_len_range=frame_len_range)).sequences.values():
        h.update(repr(seq.meta).encode())
        for frame in seq.frames:
            h.update(repr(frame.boxes).encode())
            h.update(frame.raster.tobytes())
    assert h.hexdigest() == digest


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
        # finite, but longer than the raster's smaller side
        dict(speed_range=(0.5, 32.5)),
        dict(speed_range=(1e17, 1e17)),
        dict(cost_coeffs=CostCoeffs(alpha_boxes=math.nan)),
        dict(cost_coeffs=CostCoeffs(beta_motion=math.inf)),
        dict(cost_coeffs=CostCoeffs(noise_sd=math.nan)),
        dict(raster_size=(64, 15)),
    ],
)
def test_generate_pool_rejects_bad_config(kw):
    with pytest.raises(GenError):
        generate_pool(small_cfg(**kw))
