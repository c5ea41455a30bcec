"""Behaviour pin: the bytes every output CSV holds on small fixed configs.

Each config runs two seeds for six rounds on a generated 20-sequence pool
of 20-30 frame sequences and compares the SHA-256 of every CSV it writes
with ``pin_digests.json``. Each ``CLI_CONFIGS`` entry runs ``seqal run`` on
the same pool written to disk, so manifest costs at six decimals, label
files, PGMs and INI parsing are pinned too. The raw flow statistics are
pinned the same way: the ``<id>.flow.csv`` that ``write_flow_cache`` writes
for every sequence of that pool at each ``FLOW_PARAMS`` pair. A change that
means to alter output rewrites the digests in the same commit and says why
in CHANGES.md:

    PYTHONPATH=src python tests/test_pin.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from seqal import cli
from seqal.acquisition import StrategySpec
from seqal.flowproxy import compute_flow_stats, write_flow_cache
from seqal.pool import write_pool
from seqal.runner import RunConfig, run_experiment
from seqal.synth import GenConfig, generate_pool

DIGESTS = Path(__file__).with_name("pin_digests.json")
POOL = GenConfig(rng_seed=3, n_sequences=20, frame_len_range=(20, 30), raster_size=(32, 32))
# (threshold, min_area) pairs whose flow caches are pinned
FLOW_PARAMS = ((10, 25), (40, 5))

# name -> (RunConfig keywords, live run whose trace is replayed or None)
CONFIGS = {
    "seq_entropy_eval": (dict(strategy=StrategySpec("entropy"), evaluate=True), None),
    "seq_gauss_switch": (dict(strategy=StrategySpec("gauss_switch", batch_size=2)), None),
    "seq_min_max_motion": (dict(strategy=StrategySpec("min_max_motion")), None),
    "seq_coreset": (dict(strategy=StrategySpec("coreset")), None),
    "seq_random": (dict(strategy=StrategySpec("random")), None),
    "seq_least_confidence": (dict(strategy=StrategySpec("least_confidence")), None),
    "seq_margin": (dict(strategy=StrategySpec("margin")), None),
    "seq_false_switch": (dict(strategy=StrategySpec("false_switch")), None),
    "seq_least_frame": (dict(strategy=StrategySpec("least_frame")), None),
    "seq_most_frame": (dict(strategy=StrategySpec("most_frame")), None),
    "seq_min_motion": (dict(strategy=StrategySpec("min_motion")), None),
    "seq_min_boxes": (dict(strategy=StrategySpec("min_boxes")), None),
    "seq_min_max_motion_min_first": (
        dict(strategy=StrategySpec("min_max_motion", parity_phase="min_first")),
        None,
    ),
    "seq_min_boxes_batch2": (dict(strategy=StrategySpec("min_boxes", batch_size=2)), None),
    "sing_entropy_eval": (
        dict(strategy=StrategySpec("entropy"), mode="singular", interpolation_rate=5, evaluate=True),
        None,
    ),
    "sing_gauss_switch": (
        dict(strategy=StrategySpec("gauss_switch"), mode="singular", interpolation_rate=2),
        None,
    ),
    "sing_random": (
        dict(strategy=StrategySpec("random"), mode="singular", interpolation_rate=3),
        None,
    ),
    "sing_gauss_replay": (
        dict(strategy=StrategySpec("gauss_switch"), mode="singular", interpolation_rate=2),
        "sing_gauss_switch",
    ),
    "seq_entropy_eval_replay": (
        dict(strategy=StrategySpec("entropy"), evaluate=True),
        "seq_entropy_eval",
    ),
    "sing_entropy_eval_replay": (
        dict(strategy=StrategySpec("entropy"), mode="singular", interpolation_rate=5, evaluate=True),
        "sing_entropy_eval",
    ),
}

# name -> the INI sections after [pool] of a `seqal run` over the written pool
CLI_CONFIGS = {
    "cli_sing_entropy_eval": (
        "[strategy]\nkind = entropy\n[costing]\ninterpolation_rate = 5\n"
        "[eval]\nevaluate = true\n"
        "[run]\nmode = singular\nseed_sequences = 2\nrounds = 6\nseeds = 0,1\n"
    ),
    "cli_seq_min_max_motion": (
        "[strategy]\nkind = min_max_motion\n[eval]\nevaluate = false\n"
        "[run]\nseed_sequences = 2\nrounds = 6\nseeds = 0,1\n"
    ),
}


def digests(out: Path, pattern: str) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob(pattern))}


def run_config(name: str, root: Path) -> dict[str, str]:
    """Run one pinned config into a directory of its name under root; returns
    the SHA-256 of each CSV it wrote."""
    kw, replay_from = CONFIGS[name]
    if replay_from is not None:
        src = root / replay_from
        if not (src / "trace.csv").is_file():
            run_config(replay_from, root)
        kw = dict(kw, trace_path=str(src / "trace.csv"), trace_metrics_path=str(src / "trace_metrics.csv"))
    base = dict(pool_source=POOL, seed_sequences=2, rounds=6, seeds=(0, 1), evaluate=False)
    cfg = RunConfig(**{**base, **kw})
    out = root / name
    run_experiment(cfg, pool=generate_pool(POOL), out_dir=out)
    return digests(out, "*.csv")


def cli_run(name: str, root: Path) -> dict[str, str]:
    """Run one CLI config on the pin pool written under root; returns the
    SHA-256 of each CSV it wrote."""
    pool_dir = root / "pool"
    if not pool_dir.is_dir():
        write_pool(generate_pool(POOL), pool_dir)
    ini = root / f"{name}.ini"
    ini.write_text(f"[pool]\nsource = {pool_dir}\n" + CLI_CONFIGS[name])
    out = root / name
    assert cli.main(["run", "--config", str(ini), "--out", str(out)]) == 0
    return digests(out, "*.csv")


def flow_name(threshold: int, min_area: int) -> str:
    return f"flow_{threshold}_{min_area}"


def flow_caches(threshold: int, min_area: int, root: Path) -> dict[str, str]:
    """Write every pin-pool sequence's flow cache under root; returns the
    SHA-256 of each file."""
    pool = generate_pool(POOL)
    out = root / flow_name(threshold, min_area)
    for sid in sorted(pool.sequences):
        write_flow_cache(compute_flow_stats(pool.sequences[sid], threshold, min_area), sid, out)
    return digests(out, "*.flow.csv")


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_output_bytes_pinned(name, tmp_path):
    expected = json.loads(DIGESTS.read_text())[name]
    assert run_config(name, tmp_path) == expected


@pytest.mark.parametrize("name", sorted(CLI_CONFIGS))
def test_cli_output_bytes_pinned(name, tmp_path):
    expected = json.loads(DIGESTS.read_text())[name]
    assert cli_run(name, tmp_path) == expected


@pytest.mark.parametrize("threshold,min_area", FLOW_PARAMS)
def test_flow_cache_bytes_pinned(threshold, min_area, tmp_path):
    expected = json.loads(DIGESTS.read_text())[flow_name(threshold, min_area)]
    assert flow_caches(threshold, min_area, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        pinned = {name: run_config(name, Path(tmp)) for name in sorted(CONFIGS)}
        pinned.update((name, cli_run(name, Path(tmp))) for name in sorted(CLI_CONFIGS))
        for threshold, min_area in FLOW_PARAMS:
            pinned[flow_name(threshold, min_area)] = flow_caches(threshold, min_area, Path(tmp))
    DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
