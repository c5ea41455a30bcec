import csv
import time

import numpy as np
import pytest

import seqal.flowproxy as fp
from seqal.errors import DomainError, MissingRasterError, ShapeError
from seqal.flowproxy import FlowStats, compute_flow_stats, write_flow_stats
from seqal.pool import Frame, Sequence
from seqal.synth import GenConfig, generate_pool

from conftest import make_meta, make_sequence


def read_flow_stats(path):
    """Oracle: the (motions, box estimates) columns of a flow statistics file."""
    motions, estimates = [], []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            motions.append(int(row["motion"]))
            estimates.append(int(row["box_est"]))
    return motions, estimates


def flood_areas(mask):
    """Oracle: the areas of mask's 8-connected components, by explicit flood fill."""
    mask = np.asarray(mask, dtype=bool)
    seen = np.zeros_like(mask)
    areas = []
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
            areas.append(area)
    return areas


def flood_count(mask, min_area):
    """Oracle: count the components of at least min_area pixels."""
    return sum(area >= min_area for area in flood_areas(mask))


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


def drawn_masks(rng, kind, n_masks):
    """n_masks random masks of one random shape, each drawn as kind says:
    - "diagonal": cells with y + x even, so set cells touch only at corners;
    - "pixels": cells with y and x even, so every component is one pixel;
    - "edge_rows": the first and last rows only, beside the separator rows;
    - "empty" and "full": no cell and every cell;
    - "blobs": any cell, dense enough to grow components of many sizes."""
    shape = tuple(int(v) for v in rng.integers(1, 13, size=2))
    y, x = np.indices(shape)
    cells, density = {
        "diagonal": ((y + x) % 2 == 0, rng.random()),
        "pixels": ((y % 2 == 0) & (x % 2 == 0), rng.random()),
        "edge_rows": ((y == 0) | (y == shape[0] - 1), rng.random()),
        "empty": (np.ones(shape, bool), 0.0),
        "full": (np.ones(shape, bool), 1.0),
        "blobs": (np.ones(shape, bool), rng.uniform(0.3, 0.7)),
    }[kind]
    return [cells & (rng.random(shape) < density) for _ in range(n_masks)]


@pytest.mark.parametrize("kind", ["diagonal", "pixels", "edge_rows", "empty", "full", "blobs"])
def test_components_match_flood_fill_on_drawn_masks(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    for _ in range(25):
        masks = drawn_masks(rng, kind, int(rng.integers(1, 6)))
        frames = frames_from_masks(*masks)
        areas = [flood_areas(m) for m in masks]
        if kind == "pixels":
            assert all(set(a) <= {1} for a in areas)
        if kind == "full":
            assert all(a == [m.size] for a, m in zip(areas, masks))
        # 1, each component's exact area and one above it
        for min_area in sorted({1, *(v + d for a in areas for v in a for d in (0, 1))}):
            stats = compute_flow_stats(raster_sequence(*frames), 10, min_area)
            assert stats.box_estimates == [0] + [sum(v >= min_area for v in a) for a in areas]
            assert stats.motion_scores == [0] + [100 * int(m.sum()) for m in masks]


def spiral(n):
    """An n x n mask: one path, one pixel wide, that winds inward clockwise
    from the top left corner with a one-pixel gap between its turns."""
    mask = np.zeros((n, n), bool)
    y, x, dy, dx = 0, 0, 0, 1
    mask[0, 0] = True
    turned = False
    while True:
        ny, nx = y + dy, x + dx
        beyond = 0 <= ny + dy < n and 0 <= nx + dx < n and mask[ny + dy, nx + dx]
        if 0 <= ny < n and 0 <= nx < n and not mask[ny, nx] and not beyond:
            y, x, turned = ny, nx, False
            mask[y, x] = True
        elif turned:
            return mask
        else:
            dy, dx, turned = dx, -dy, True


def serpentine(n):
    """An n x n mask: every even row, joined end to end by one pixel in the
    odd row between, alternately at the right and left edge."""
    mask = np.zeros((n, n), bool)
    mask[::2] = True
    mask[1::4, -1] = True
    mask[3::4, 0] = True
    return mask


@pytest.mark.parametrize(
    "draw",
    [spiral, lambda n: spiral(n).T, serpentine, lambda n: serpentine(n).T],
    ids=["spiral", "spiral_transposed", "serpentine_rows", "serpentine_columns"],
)
def test_one_long_thin_component_labels_in_bounded_time(draw):
    """Each mask is one component of every set pixel, whose runs chain over
    thousands of steps; joining them one step a round would take seconds."""
    mask = draw(512)
    area = int(mask.sum())
    assert area > 512 * 512 // 2 - 512
    seq = raster_sequence(*frames_from_masks(mask))
    start = time.perf_counter()
    stats = compute_flow_stats(seq, 10, area)
    assert time.perf_counter() - start < 0.25
    assert stats == FlowStats([0, 100 * area], [0, 1])
    assert compute_flow_stats(seq, 10, area + 1).box_estimates == [0, 0]


@pytest.mark.parametrize("n_frames", [1, 2, 5])
def test_sequence_without_motion(n_frames):
    frames = [np.full((5, 6), 77, np.uint8)] * n_frames
    assert_matches_pair_oracle(frames)
    stats = compute_flow_stats(raster_sequence(*frames))
    assert stats.motion_scores == stats.box_estimates == [0] * n_frames


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


def test_compute_flow_stats_follows_its_parameters():
    # each parameter pair gives what a fresh sequence gives under it
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


def test_write_flow_stats_round_trip(tmp_path):
    seq = make_sequence("roundtrip", n_frames=5, raster_size=(16, 16))
    stats = compute_flow_stats(seq)
    path = write_flow_stats(stats, seq.sequence_id, tmp_path)
    assert path.name == "roundtrip.flow.csv"
    motions, estimates = read_flow_stats(path)
    assert motions == stats.motion_scores
    assert estimates == stats.box_estimates
