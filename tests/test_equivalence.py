"""Differential harness: properties every run keeps, over drawn configs.

The configs are drawn from a fixed-seed generator, not picked: 20 pools of
12-19 sequences of 5-12 frames at 32x32, and two run configs on each. A run
config draws a strategy kind (all twelve), mode and evaluation;
interpolation rate, frames per round and batch size; kappa, noise_seed,
min_box_pixels and one or two seeds. For each pool and its runs the harness
asserts that:

- two runs on the same pool object write the same bytes in all six CSVs, and
  so does a run on a freshly generated pool;
- the caller's pool comes back unchanged in every field of its sequences,
  frames and boxes, raster bytes included;
- a replay from the run's own traces writes the same ``records.csv``,
  ``ledger.csv``, ``curves.csv`` and ``aggregate.csv``;
- ``write_pool`` of ``load_pool(write_pool(pool))`` writes the same bytes as
  the first write, and runs over the pools loaded from the two directories
  write the same bytes.

Disk and in-memory runs are not compared with each other: label files keep
six decimals, so they differ by design. No drawn run exceeds its pool's
budget; one that did would fail here. Each pool serves two run configs
because creating the pool files is most of the harness's time.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
from seqal.acquisition import ALL_KINDS, StrategySpec
from seqal.costing import MODE_SEQUENTIAL, MODE_SINGULAR
from seqal.pool import load_pool, write_pool
from seqal.runner import SINGULAR_KINDS, RunConfig, run_experiment
from seqal.synth import GenConfig, generate_pool

N_POOLS = 20
RUNS_PER_POOL = 2
OUTPUTS = ("aggregate.csv", "curves.csv", "ledger.csv", "records.csv", "trace.csv", "trace_metrics.csv")
REPLAYED = ("aggregate.csv", "curves.csv", "ledger.csv", "records.csv")


def draw_configs(seed: int = 2023) -> list[tuple[GenConfig, list[RunConfig]]]:
    """N_POOLS drawn pools, each with RUNS_PER_POOL drawn run configs."""
    rnd = np.random.default_rng(seed)
    draws = []
    for _ in range(N_POOLS):
        pool = GenConfig(
            rng_seed=int(rnd.integers(0, 2**31)),
            n_sequences=int(rnd.integers(12, 20)),
            frame_len_range=(5, 12),
            raster_size=(32, 32),
        )
        runs = []
        for _ in range(RUNS_PER_POOL):
            kind = str(rnd.choice(ALL_KINDS))
            singular = kind in SINGULAR_KINDS and bool(rnd.random() < 0.5)
            seeds = rnd.choice(5, size=int(rnd.integers(1, 3)), replace=False)
            runs.append(
                RunConfig(
                    pool_source=pool,
                    strategy=StrategySpec(kind, batch_size=int(rnd.integers(1, 3))),
                    mode=MODE_SINGULAR if singular else MODE_SEQUENTIAL,
                    interpolation_rate=int(rnd.integers(1, 6)),
                    frames_per_round=int(rnd.integers(1, 9)),
                    seed_sequences=int(rnd.integers(1, 3)),
                    rounds=int(rnd.integers(1, 4)),
                    seeds=tuple(int(s) for s in seeds),
                    kappa=float(rnd.uniform(0.0, 1.0)),
                    noise_seed=None if rnd.random() < 0.5 else int(rnd.integers(0, 1000)),
                    min_box_pixels=int(rnd.integers(0, 200)),
                    evaluate=bool(rnd.random() < 0.5),
                )
            )
        draws.append((pool, runs))
    return draws


DRAWS = draw_configs()


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def plain(value):
    """A copy of value to compare with ==: a dataclass as its fields'
    values, containers element by element, an array as its dtype, shape and
    bytes."""
    if is_dataclass(value):
        return [(f.name, plain(getattr(value, f.name))) for f in fields(value)]
    if isinstance(value, list):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    return value


def snapshot(pool) -> list:
    """Everything a run must leave as it was: every field of each Sequence
    and of its frames and boxes, raster bytes included."""
    return [(sid, plain(seq)) for sid, seq in sorted(pool.sequences.items())]


def run(cfg: RunConfig, out: Path, pool=None) -> dict[str, bytes]:
    run_experiment(cfg, pool=pool, out_dir=out)
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


def check_properties(pool_cfg: GenConfig, runs: list[RunConfig], root: Path) -> None:
    pool = generate_pool(pool_cfg)
    before = snapshot(pool)
    write_pool(pool, root / "pool")
    loaded = load_pool(root / "pool")
    write_pool(loaded, root / "pool2")
    assert tree_bytes(root / "pool2") == tree_bytes(root / "pool")
    loaded2 = load_pool(root / "pool2")

    for k, cfg in enumerate(runs):
        out = root / str(k)
        first = run(cfg, out / "first", pool)
        assert sorted(first) == list(OUTPUTS)
        assert run(cfg, out / "second", pool) == first
        assert run(cfg, out / "fresh") == first

        replay = replace(
            cfg,
            trace_path=str(out / "first" / "trace.csv"),
            trace_metrics_path=str(out / "first" / "trace_metrics.csv"),
        )
        replayed = run(replay, out / "replay", pool)
        assert {name: replayed[name] for name in REPLAYED} == {name: first[name] for name in REPLAYED}

        assert run(cfg, out / "disk2", loaded2) == run(cfg, out / "disk", loaded)
    assert snapshot(pool) == before


def test_drawn_configs_keep_every_property(tmp_path):
    """One test, so the harness's whole time shows in a --durations report."""
    for index, (pool_cfg, runs) in enumerate(DRAWS):
        check_properties(pool_cfg, runs, tmp_path / str(index))
