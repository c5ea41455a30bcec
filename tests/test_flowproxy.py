import csv

import numpy as np
import pytest

import seqal.flowproxy as fp
from seqal.errors import DomainError, MissingRasterError, ShapeError
from seqal.flowproxy import compute_flow_stats, write_flow_cache
from seqal.pool import Frame, Sequence
from seqal.synth import GenConfig, generate_pool

from conftest import make_meta, make_sequence


def read_flow_cache(path):
    """Oracle: the (motions, box estimates) columns of a flow cache file."""
    motions, estimates = [], []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            motions.append(int(row["motion"]))
            estimates.append(int(row["box_est"]))
    return motions, estimates


def flood_count(mask, min_area):
    """Oracle: count components by explicit 8-connected flood fill."""
    mask = np.asarray(mask, dtype=bool)
    seen = np.zeros_like(mask)
    count = 0
    h, w = mask.shape
    for sy in range(h):
        for sx in range(w):
            if not mask[sy, sx] or seen[sy, sx]:
                continue
            stack = [(sy, sx)]
            seen[sy, sx] = True
            area = 0
            while stack:
                y, x = stack.pop()
                area += 1
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = y + dy, x + dx
                        if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            stack.append((ny, nx))
            if area >= min_area:
                count += 1
    return count


def pair_oracle(prev, curr, threshold, min_area):
    """Oracle: one frame pair's (motion, box estimate), from its own int64
    |curr - prev| and a flood fill of that difference's mask."""
    diff = np.abs(curr.astype(np.int64) - prev.astype(np.int64))
    return int(diff.sum()), flood_count(diff >= threshold, min_area)


def raster_sequence(*rasters):
    return Sequence(make_meta("s"), [Frame(i, [], r) for i, r in enumerate(rasters)])


def pair_stats(prev, curr, threshold=fp.DEFAULT_THRESHOLD, min_area=fp.DEFAULT_MIN_AREA):
    """The second frame's (motion, box estimate) of a 2-frame sequence."""
    stats = compute_flow_stats(raster_sequence(prev, curr), threshold, min_area)
    assert stats.motion_scores[0] == stats.box_estimates[0] == 0
    return stats.motion_scores[1], stats.box_estimates[1]


def test_motion_score_exact():
    a = np.zeros((4, 4), dtype=np.uint8)
    b = a.copy()
    b[0, 0] = 200
    b[3, 3] = 55
    assert pair_stats(a, b)[0] == 255
    assert pair_stats(a, a)[0] == 0


def test_motion_score_no_uint8_wraparound():
    a = np.full((2, 2), 250, dtype=np.uint8)
    b = np.full((2, 2), 5, dtype=np.uint8)
    assert pair_stats(a, b)[0] == 4 * 245
    assert pair_stats(b, a)[0] == 4 * 245


def test_difference_mask_threshold_is_inclusive():
    a = np.zeros((1, 5), dtype=np.uint8)
    b = np.array([[9, 0, 10, 0, 11]], dtype=np.uint8)
    assert [pair_stats(a, b, t, 1)[1] for t in (9, 10, 11, 12)] == [3, 2, 1, 0]


def test_estimate_boxes_hand_case():
    a = np.zeros((10, 10), dtype=np.uint8)
    b = a.copy()
    b[0:3, 0:3] = 100   # area 9
    b[6:8, 6:8] = 100   # area 4
    assert pair_stats(a, b, threshold=10, min_area=1)[1] == 2
    assert pair_stats(a, b, threshold=10, min_area=5)[1] == 1
    assert pair_stats(a, b, threshold=10, min_area=10)[1] == 0


def test_estimate_boxes_diagonal_counts_as_connected():
    a = np.zeros((4, 4), dtype=np.uint8)
    b = a.copy()
    b[0, 0] = b[1, 1] = b[2, 2] = 100
    assert pair_stats(a, b, threshold=10, min_area=3)[1] == 1


def test_estimate_boxes_matches_flood_fill_oracle():
    rng = np.random.default_rng(42)
    for _ in range(200):
        shape = tuple(int(v) for v in rng.integers(1, 17, size=2))
        n_frames = int(rng.integers(1, 13))
        # the {0, 255} palette makes differences of 255 common
        palette = np.arange(256, dtype=np.uint8)
        if rng.random() < 0.3:
            palette = np.array([0, 255], np.uint8)
        change = rng.random()
        frames = [rng.choice(palette, size=shape)]
        for _ in range(n_frames - 1):
            moved = rng.random(shape) < change
            frames.append(np.where(moved, rng.choice(palette, size=shape), frames[-1]))
        threshold = int(rng.choice([0, 255, int(rng.integers(0, 256))]))
        min_area = int(rng.integers(1, 9))
        stats = compute_flow_stats(raster_sequence(*frames), threshold, min_area)
        pairs = [pair_oracle(a, b, threshold, min_area) for a, b in zip(frames, frames[1:])]
        assert stats.motion_scores == [0] + [m for m, _ in pairs]
        assert stats.box_estimates == [0] + [b for _, b in pairs]
        assert all(type(v) is int for v in stats.motion_scores + stats.box_estimates)


def frames_from_masks(*masks):
    """Rasters whose consecutive pairs differ by exactly 100 where each mask is set."""
    frames = [np.zeros(np.shape(masks[0]), np.uint8)]
    for m in masks:
        frames.append(np.where(m, 100 - frames[-1], frames[-1]).astype(np.uint8))
    return frames


def assert_matches_pair_oracle(frames, threshold=fp.DEFAULT_THRESHOLD, min_areas=range(1, 10)):
    for min_area in min_areas:
        stats = compute_flow_stats(raster_sequence(*frames), threshold, min_area)
        pairs = [pair_oracle(a, b, threshold, min_area) for a, b in zip(frames, frames[1:])]
        assert stats.motion_scores == [0] + [m for m, _ in pairs]
        assert stats.box_estimates == [0] + [b for _, b in pairs], (threshold, min_area)


def test_component_across_a_pair_boundary_stays_two():
    # pair k's last row and pair k+1's first row, in the same columns
    last = np.zeros((6, 8), bool)
    last[-1, 2:6] = True
    first = np.zeros((6, 8), bool)
    first[0, 2:6] = True
    frames = frames_from_masks(last, first, last, first)
    assert_matches_pair_oracle(frames)
    assert compute_flow_stats(raster_sequence(*frames), 10, 5).box_estimates == [0] * 5


def test_rows_split_by_one_empty_row_stay_apart():
    gap = np.zeros((5, 7), bool)
    gap[1, 1:4] = True
    gap[3, 4:6] = True  # (3, 4) would touch (1, 3) diagonally without row 2
    across = np.zeros((5, 7), bool)
    across[-2, 3] = True  # the pair's last row stays empty
    after = np.zeros((5, 7), bool)
    after[0, 2:5] = True
    assert_matches_pair_oracle(frames_from_masks(gap, across, after, gap))
    assert compute_flow_stats(raster_sequence(*frames_from_masks(gap)), 10, 4).box_estimates == [0, 0]


@pytest.mark.parametrize("shape", [(1, 6), (2, 6), (4, 6)])
def test_foreground_on_the_first_and_last_rows(shape):
    edges = np.zeros(shape, bool)
    edges[0] = edges[-1] = True
    assert_matches_pair_oracle(frames_from_masks(edges, edges, ~edges, edges))


@pytest.mark.parametrize("shape", [(48, 64), (64, 48)])
def test_sparse_changes_on_non_square_rasters(shape):
    rng = np.random.default_rng(7)
    frames = [rng.integers(0, 256, size=shape, dtype=np.uint8)]
    for _ in range(6):
        moved = rng.random(shape) < 0.02
        moved[rng.integers(0, shape[0]), :] |= rng.random() < 0.5  # a full row now and then
        frames.append(np.where(moved, rng.integers(0, 256, size=shape, dtype=np.uint8), frames[-1]))
    for threshold in (1, 10, 128):
        assert_matches_pair_oracle(frames, threshold, min_areas=(1, 2, 3, 5))


def test_threshold_zero_counts_each_pair_once():
    rng = np.random.default_rng(3)
    frames = [rng.integers(0, 256, size=(3, 4), dtype=np.uint8) for _ in range(4)]
    assert_matches_pair_oracle(frames, threshold=0, min_areas=(1, 12, 13))
    assert compute_flow_stats(raster_sequence(*frames), 0, 12).box_estimates == [0, 1, 1, 1]


@pytest.mark.parametrize("n_frames", [1, 2, 5])
def test_sequence_without_motion(n_frames):
    frames = [np.full((5, 6), 77, np.uint8)] * n_frames
    assert_matches_pair_oracle(frames)
    stats = compute_flow_stats(raster_sequence(*frames))
    assert stats.motion_scores == stats.box_estimates == [0] * n_frames


def test_one_label_call_per_computed_sequence(monkeypatch):
    calls = []
    label = fp.ndimage.label

    def counting_label(*args, **kwargs):
        calls.append(1)
        return label(*args, **kwargs)

    monkeypatch.setattr(fp.ndimage, "label", counting_label)
    seq = make_sequence("s", n_frames=9, raster_size=(16, 16))
    compute_flow_stats(seq)
    compute_flow_stats(seq)
    assert len(calls) == 2


def test_generated_rasters_are_read_only():
    pool = generate_pool(GenConfig(n_sequences=4, frame_len_range=(4, 6), raster_size=(32, 32)))
    seq = next(iter(pool.sequences.values()))
    stats = compute_flow_stats(seq)
    assert not any(f.raster.flags.writeable for f in seq.frames)
    with pytest.raises(ValueError):
        seq.frames[1].raster[:] = 0
    assert compute_flow_stats(seq) == stats


def test_one_frame_sequence():
    stats = compute_flow_stats(raster_sequence(np.zeros((3, 5), dtype=np.uint8)))
    assert (stats.motion_scores, stats.box_estimates) == ([0], [0])


def test_motion_score_shape_mismatch():
    with pytest.raises(ShapeError, match="sequence 's' frame 1"):
        compute_flow_stats(raster_sequence(np.zeros((2, 2), np.uint8), np.zeros((3, 2), np.uint8)))
    with pytest.raises(ShapeError, match="sequence 's' frame 0"):
        compute_flow_stats(raster_sequence(np.zeros(4, np.uint8), np.zeros(4, np.uint8)))


@pytest.mark.parametrize(
    "rasters",
    [
        [np.zeros((0, 4), np.uint8), np.zeros((0, 4), np.uint8)],
        [np.zeros((2, 2), np.uint8), np.zeros((2, 2), np.float64)],
        [np.zeros((2, 2), np.int64), np.zeros((2, 2), np.int64)],
    ],
    ids=["empty", "float", "int64"],
)
def test_bad_rasters_raise_shape_error(rasters):
    with pytest.raises(ShapeError, match="sequence 's' frame"):
        compute_flow_stats(raster_sequence(*rasters))


@pytest.mark.parametrize("threshold,min_area", [(-1, 25), (256, 25), (10, 0)])
def test_parameter_validation(threshold, min_area):
    with pytest.raises(DomainError):
        compute_flow_stats(make_sequence("s", raster_size=(16, 16)), threshold, min_area)


def test_compute_flow_stats_frame_zero_is_zero():
    seq = make_sequence("s", n_frames=4, raster_size=(16, 16))
    stats = compute_flow_stats(seq)
    assert stats.motion_scores[0] == 0
    assert stats.box_estimates[0] == 0
    assert len(stats.motion_scores) == 4
    # make_sequence moves a bright row each frame, so later frames have motion
    assert all(m > 0 for m in stats.motion_scores[1:])


def test_compute_flow_stats_cache_keyed_by_parameters():
    # distinct parameters give a fresh sequence's stats
    seq = make_sequence("s", n_frames=6, raster_size=(16, 16))
    loose = compute_flow_stats(seq, 10, 25)
    assert sum(loose.box_estimates) > 0
    strict = compute_flow_stats(seq, 200, 1)
    assert strict == compute_flow_stats(make_sequence("s", n_frames=6, raster_size=(16, 16)), 200, 1)
    assert strict != loose


def test_compute_flow_stats_reads_replaced_rasters():
    before = fp.computations()
    seq = make_sequence("s", n_frames=4, raster_size=(16, 16))
    moving = compute_flow_stats(seq)
    assert sum(moving.motion_scores) > 0
    seq.frames[2].raster = seq.frames[1].raster
    still = compute_flow_stats(seq)
    assert still.motion_scores[2] == still.box_estimates[2] == 0
    assert still.motion_scores[1] == moving.motion_scores[1]
    assert still == compute_flow_stats(
        Sequence(seq.meta, [Frame(f.frame_id, f.boxes, f.raster.copy()) for f in seq.frames])
    )
    assert fp.computations() - before == 3


def test_compute_flow_stats_missing_raster():
    seq = make_sequence("s", n_frames=3)
    with pytest.raises(MissingRasterError):
        compute_flow_stats(seq)


def test_cache_round_trip(tmp_path):
    seq = make_sequence("roundtrip", n_frames=5, raster_size=(16, 16))
    stats = compute_flow_stats(seq)
    path = write_flow_cache(stats, seq.sequence_id, tmp_path)
    assert path.name == "roundtrip.flow.csv"
    motions, estimates = read_flow_cache(path)
    assert motions == stats.motion_scores
    assert estimates == stats.box_estimates
