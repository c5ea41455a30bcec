import csv

import numpy as np
import pytest

import seqal.flowproxy as fp
from seqal.errors import DomainError, MissingRasterError, ShapeError
from seqal.flowproxy import (
    compute_flow_stats,
    difference_mask,
    estimate_boxes,
    motion_score,
    write_flow_cache,
)

from conftest import make_sequence


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


def test_motion_score_exact():
    a = np.zeros((4, 4), dtype=np.uint8)
    b = a.copy()
    b[0, 0] = 200
    b[3, 3] = 55
    assert motion_score(a, b) == 255
    assert motion_score(a, a) == 0


def test_motion_score_no_uint8_wraparound():
    a = np.full((2, 2), 250, dtype=np.uint8)
    b = np.full((2, 2), 5, dtype=np.uint8)
    assert motion_score(a, b) == 4 * 245


def test_motion_score_shape_mismatch():
    with pytest.raises(ShapeError):
        motion_score(np.zeros((2, 2), np.uint8), np.zeros((3, 2), np.uint8))
    with pytest.raises(ShapeError):
        motion_score(np.zeros(4, np.uint8), np.zeros(4, np.uint8))


def test_difference_mask_threshold_is_inclusive():
    a = np.zeros((1, 3), dtype=np.uint8)
    b = np.array([[9, 10, 11]], dtype=np.uint8)
    assert difference_mask(a, b, 10).tolist() == [[False, True, True]]


def test_estimate_boxes_hand_case():
    a = np.zeros((10, 10), dtype=np.uint8)
    b = a.copy()
    b[0:3, 0:3] = 100   # area 9
    b[6:8, 6:8] = 100   # area 4
    assert estimate_boxes(a, b, threshold=10, min_area=1) == 2
    assert estimate_boxes(a, b, threshold=10, min_area=5) == 1
    assert estimate_boxes(a, b, threshold=10, min_area=10) == 0


def test_estimate_boxes_diagonal_counts_as_connected():
    a = np.zeros((4, 4), dtype=np.uint8)
    b = a.copy()
    b[0, 0] = b[1, 1] = b[2, 2] = 100
    assert estimate_boxes(a, b, threshold=10, min_area=3) == 1


def test_estimate_boxes_matches_flood_fill_oracle():
    rng = np.random.default_rng(42)
    for _ in range(30):
        a = rng.integers(0, 256, size=(20, 24), dtype=np.uint8)
        b = rng.integers(0, 256, size=(20, 24), dtype=np.uint8)
        threshold = int(rng.integers(0, 256))
        min_area = int(rng.integers(1, 8))
        mask = difference_mask(a, b, threshold)
        assert estimate_boxes(a, b, threshold, min_area) == flood_count(mask, min_area)


@pytest.mark.parametrize("threshold,min_area", [(-1, 25), (256, 25), (10, 0)])
def test_parameter_validation(threshold, min_area):
    a = np.zeros((4, 4), dtype=np.uint8)
    with pytest.raises(DomainError):
        estimate_boxes(a, a, threshold, min_area)
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


def test_compute_flow_stats_caches_on_sequence():
    before = fp.computations()
    seq = make_sequence("s", n_frames=3, raster_size=(16, 16))
    first = compute_flow_stats(seq)
    assert fp.computations() - before == 1
    again = compute_flow_stats(seq)
    assert fp.computations() - before == 1, "cached call must not recompute"
    assert again.motion_scores == first.motion_scores
    assert seq.flow_cache[(fp.DEFAULT_THRESHOLD, fp.DEFAULT_MIN_AREA)] == (
        first.motion_scores,
        first.box_estimates,
    )


def test_compute_flow_stats_cache_keyed_by_parameters():
    before = fp.computations()
    seq = make_sequence("s", n_frames=6, raster_size=(16, 16))
    loose = compute_flow_stats(seq, 10, 25)
    assert sum(loose.box_estimates) > 0
    strict = compute_flow_stats(seq, 200, 1)
    fresh = compute_flow_stats(make_sequence("s", n_frames=6, raster_size=(16, 16)), 200, 1)
    assert strict == fresh
    assert seq.flow_cache[(200, 1)][1] == fresh.box_estimates
    assert compute_flow_stats(seq, 10, 25) == loose
    assert seq.flow_cache[(10, 25)][1] == loose.box_estimates
    # one computation per sequence per parameter pair
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
