"""Rasters on demand: a frame's raster is rendered or read from its PGM each
time it is asked for, and kept by nobody.

A counting source around every frame of a generated pool shows which
consumers read rasters, and how often: only the flow statistics and
``write_pool`` do, once per frame. ``tracemalloc`` shows that neither a
generated nor a loaded pool holds its pixels.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter
from functools import partial

import pytest

from seqal.acquisition import StrategySpec
from seqal.costing import MODE_SINGULAR
from seqal.pool import load_pool, write_pool
from seqal.runner import RunConfig, filter_small_boxes, run_experiment
from seqal.synth import GenConfig, generate_pool

from test_pin import POOL

# Rasters of 16 MiB in all: 4 sequences of 64 frames at 256x256.
BIG = GenConfig(n_sequences=4, frame_len_range=(64, 64), raster_size=(256, 256))


def _counted(source, reads: Counter, key) -> object:
    reads[key] += 1
    return source()


def counted_pool() -> tuple:
    """The pin pool, with each frame's raster source wrapped so that every
    read adds one to the returned Counter under (sequence id, frame id)."""
    pool = generate_pool(POOL)
    reads: Counter = Counter()
    for sid, seq in pool.sequences.items():
        for frame in seq.frames:
            frame.raster = partial(_counted, frame.source, reads, (sid, frame.frame_id))
    return pool, reads


def run(pool, tmp_path, name: str, **kw):
    base = dict(pool_source=POOL, seed_sequences=2, rounds=3, seeds=(0, 1), evaluate=False)
    out = tmp_path / name
    run_experiment(RunConfig(**{**base, **kw}), pool=pool, out_dir=out)
    return out


@pytest.mark.parametrize(
    "kw",
    [
        dict(strategy=StrategySpec("entropy"), evaluate=True),
        dict(strategy=StrategySpec("gauss_switch"), mode=MODE_SINGULAR, interpolation_rate=2),
        dict(strategy=StrategySpec("coreset")),
    ],
    ids=["entropy_eval", "gauss_switch_live_and_replay", "coreset"],
)
def test_runs_without_flow_statistics_read_no_raster(tmp_path, kw):
    pool, reads = counted_pool()
    live = run(pool, tmp_path, "live", **kw)
    if kw["strategy"].kind == "gauss_switch":
        run(
            pool,
            tmp_path,
            "replay",
            trace_path=str(live / "trace.csv"),
            trace_metrics_path=str(live / "trace_metrics.csv"),
            **kw,
        )
        assert (tmp_path / "replay" / "records.csv").is_file()
    assert reads == Counter()


def test_flow_run_reads_each_train_frame_once(tmp_path):
    pool, reads = counted_pool()
    run(pool, tmp_path, "motion", strategy=StrategySpec("min_max_motion"))
    assert reads == Counter(
        {(sid, f.frame_id): 1 for sid in pool.train_ids for f in pool.sequences[sid].frames}
    )


def test_filter_small_boxes_carries_sources_unread():
    pool, reads = counted_pool()
    kept = filter_small_boxes(pool, min_pixels=200)
    assert reads == Counter()
    for sid, seq in pool.sequences.items():
        for before, after in zip(seq.frames, kept.sequences[sid].frames):
            assert after.source is before.source
    assert any(
        len(a.boxes) < len(b.boxes)
        for sid, seq in pool.sequences.items()
        for a, b in zip(kept.sequences[sid].frames, seq.frames)
    )


def test_write_pool_reads_each_frame_once(tmp_path):
    pool, reads = counted_pool()
    write_pool(pool, tmp_path)
    assert reads == Counter(
        {(sid, f.frame_id): 1 for sid, seq in pool.sequences.items() for f in seq.frames}
    )


def traced_peak(fn, *args):
    """fn(*args) and the peak of memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def big_raster_bytes() -> int:
    pool = generate_pool(BIG)
    total = sum(f.raster.nbytes for seq in pool.sequences.values() for f in seq.frames)
    assert total >= 16e6
    return total


def test_generated_pool_holds_no_rasters(big_raster_bytes):
    pool, peak = traced_peak(generate_pool, BIG)
    assert pool.sequences
    assert peak < big_raster_bytes / 4


def test_loaded_pool_holds_no_rasters(tmp_path, big_raster_bytes):
    write_pool(generate_pool(BIG), tmp_path)
    pool, peak = traced_peak(load_pool, tmp_path)
    assert all(f.raster is not None for seq in pool.sequences.values() for f in seq.frames)
    assert peak < big_raster_bytes / 4
