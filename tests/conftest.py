import numpy as np
import pytest

from seqal.pool import (
    BoundingBox,
    Frame,
    PoolState,
    Season,
    Sequence,
    SequenceMeta,
    Split,
    TimeOfDay,
)

# numpy 2.0 renamed trapz; pyproject.toml still admits numpy 1.24
trapezoid = getattr(np, "trapezoid", None) or np.trapz


def make_meta(sid, cost=1.0, scene=0, season=Season.WINTER, tod=TimeOfDay.NOON, split=Split.TRAIN):
    return SequenceMeta(sid, cost, scene, season, tod, split)


def make_sequence(
    sid,
    n_frames=3,
    cost=1.0,
    boxes_per_frame=1,
    split=Split.TRAIN,
    scene=0,
    season=Season.WINTER,
    raster_size=None,
):
    """Deterministic little sequence; boxes drift rightward frame by frame."""
    frames = []
    for fid in range(n_frames):
        boxes = [
            BoundingBox(k % 4, 0.2 + 0.01 * fid + 0.1 * k, 0.3 + 0.05 * k, 0.1, 0.1)
            for k in range(boxes_per_frame)
        ]
        raster = None
        if raster_size is not None:
            h, w = raster_size
            raster = np.full((h, w), 30, dtype=np.uint8)
            raster[fid % h, :] = 200
        frames.append(Frame(fid, boxes, raster))
    return Sequence(
        meta=make_meta(sid, cost=cost, scene=scene, season=season, split=split),
        frames=frames,
    )


def make_pool(n_train=4, n_val=1, n_test=1, n_frames=3, boxes_per_frame=1, raster_size=None):
    seqs = []
    idx = 0
    for split, count in ((Split.TRAIN, n_train), (Split.VALIDATION, n_val), (Split.TEST, n_test)):
        for _ in range(count):
            seqs.append(
                make_sequence(
                    f"seq{idx:03d}",
                    n_frames=n_frames,
                    cost=1.0 + 0.5 * idx,
                    boxes_per_frame=boxes_per_frame,
                    split=split,
                    scene=idx // 2,
                    raster_size=raster_size,
                )
            )
            idx += 1
    return PoolState.from_sequences(seqs)


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap module.name so each call appends its arguments to the returned
    list; the wrapper is undone when the test ends."""
    calls = []
    fn = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


@pytest.fixture
def six_pool():
    """Six train sequences plus one validation and one test."""
    return make_pool(n_train=6, n_val=1, n_test=1, n_frames=4, boxes_per_frame=2)


def _boxes_match(a: list[BoundingBox], b: list[BoundingBox], tol: float) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if x.class_id != y.class_id or x.occluded is not y.occluded:
            return False
        if max(
            abs(x.cx - y.cx), abs(x.cy - y.cy), abs(x.w - y.w), abs(x.h - y.h)
        ) > tol:
            return False
    return True


def pools_match(a: PoolState, b: PoolState, coord_tol: float = 1e-6) -> bool:
    """Structural equality of two pools up to coordinate/cost tolerance.

    Compares sequence data, the only state a pool holds.
    """
    if sorted(a.sequences) != sorted(b.sequences):
        return False
    for sid, sa in a.sequences.items():
        sb = b.sequences[sid]
        ma, mb = sa.meta, sb.meta
        if (
            abs(ma.cost_hours - mb.cost_hours) > coord_tol
            or ma.scene_id != mb.scene_id
            or ma.season is not mb.season
            or ma.time_of_day is not mb.time_of_day
            or ma.split is not mb.split
        ):
            return False
        if sa.n_frames != sb.n_frames:
            return False
        for fa, fb in zip(sa.frames, sb.frames):
            if fa.frame_id != fb.frame_id:
                return False
            if not _boxes_match(fa.boxes, fb.boxes, coord_tol):
                return False
            if (fa.raster is None) != (fb.raster is None):
                return False
            if fa.raster is not None and not np.array_equal(fa.raster, fb.raster):
                return False
    return True
