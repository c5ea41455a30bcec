"""Workload definitions shared by run.py and its worker.

Every pool keeps the default generator settings (126 sequences, 0-6
objects, rng_seed 0) but shortens the sequences, so that several
operations of each workload fit into one run of the benchmark:

- seq-entropy-eval: 59-86 frames, a tenth of the default 594-864, 64x64
  rasters. Every per-frame layer does a tenth of its default work, so the
  layer shares stay close to those of the default pool.
- sing-gauss-replay: 30-43 frames, 64x64 rasters, three experiment seeds.
  How many EM iterations the 2-GMM fits take depends on the seed (352 to
  1076 over the 20 fits of one seed), which moved run_s by a quarter from
  one seed to the next; three seeds per operation average that out.
- seq-motion-disk: 15-21 frames, 192x192 rasters. The set-up writes two
  files per frame, and on a slow disk creating and deleting files, not
  their bytes, sets how long the writes take and how far one run's writes
  slow the next (a 30-43-frame pool, written five times a run, took
  2.6-4.6 s a write and rose from run to run). Nine times the raster area
  keeps the timed part above two seconds, most of it in the flow proxy,
  with a fortieth of the default file count.

The pools are the same for every --seed; the seed picks the experiment
seeds (the uniform seed-sequence draw and the surrogate noise stream). A
pool generated from the seed would move a different set of sequences into
the 13-sequence test split, and the test-box count, which sets the cost of
evaluation, varies by about 19% across generator seeds.
"""

from __future__ import annotations

from pathlib import Path

from seqal.acquisition import StrategySpec
from seqal.costing import MODE_SINGULAR
from seqal.runner import RunConfig
from seqal.synth import GenConfig

ENTROPY = "seq-entropy-eval"
GAUSS = "sing-gauss-replay"
MOTION = "seq-motion-disk"
NAMES = (ENTROPY, GAUSS, MOTION)

POOLS = {
    ENTROPY: {"frame_len_range": (59, 86)},
    GAUSS: {"frame_len_range": (30, 43)},
    MOTION: {"frame_len_range": (15, 21), "raster_size": (192, 192)},
}
SEEDS_PER_OPERATION = {ENTROPY: 1, GAUSS: 3, MOTION: 3}
ROUNDS = 11
INTERPOLATION_RATE = 5


def gen_config(name: str) -> GenConfig:
    return GenConfig(rng_seed=0, **POOLS[name])


def synth_layers(pool) -> dict[str, float]:
    """The synth layer's counts for a generated pool."""
    frames = [f for seq in pool.sequences.values() for f in seq.frames]
    return {
        "synth.frames": len(frames),
        "synth.raster_mb": sum(f.raster.nbytes for f in frames) / 2**20,
    }


def experiment_seeds(name: str, seed: int) -> tuple[int, ...]:
    return tuple(seed + k for k in range(SEEDS_PER_OPERATION[name]))


def entropy_config(seed: int) -> RunConfig:
    """Sequential entropy, evaluated, one seed, 2 seed sequences + 11 rounds."""
    return RunConfig(
        pool_source=gen_config(ENTROPY),
        strategy=StrategySpec("entropy"),
        rounds=ROUNDS,
        seeds=experiment_seeds(ENTROPY, seed),
        evaluate=True,
    )


def gauss_config(seed: int, replay_from: Path | None = None) -> RunConfig:
    """Singular gauss_switch, no evaluation, three seeds of 2 seed sequences
    + 11 rounds of 25 frames, keyframes every INTERPOLATION_RATE frames; a
    replay when replay_from is the directory of a live run."""
    trace = metrics = None
    if replay_from is not None:
        trace = str(replay_from / "trace.csv")
        metrics = str(replay_from / "trace_metrics.csv")
    return RunConfig(
        pool_source=gen_config(GAUSS),
        strategy=StrategySpec("gauss_switch"),
        mode=MODE_SINGULAR,
        interpolation_rate=INTERPOLATION_RATE,
        rounds=ROUNDS,
        seeds=experiment_seeds(GAUSS, seed),
        evaluate=False,
        trace_path=trace,
        trace_metrics_path=metrics,
    )


def motion_ini(pool_dir: Path, seed: int) -> str:
    """`seqal run` config: sequential min_max_motion over three seeds on a
    pool directory, no evaluation, 2 seed sequences + 11 rounds."""
    seeds = ",".join(str(s) for s in experiment_seeds(MOTION, seed))
    return (
        "[pool]\n"
        f"source = {pool_dir}\n"
        "[strategy]\n"
        "kind = min_max_motion\n"
        "[eval]\n"
        "evaluate = false\n"
        "[run]\n"
        f"rounds = {ROUNDS}\n"
        f"seeds = {seeds}\n"
    )
