"""INI parsing: every key lands in its dataclass field, omitted keys keep
the dataclass defaults, and the README's documented defaults are the real
ones."""

from __future__ import annotations

import configparser
import re
from pathlib import Path

import pytest

from seqal.acquisition import StrategySpec
from seqal.config import gen_config, read_config, run_config
from seqal.costing import OverheadModel
from seqal.errors import ConfigError
from seqal.runner import RunConfig
from seqal.synth import CostCoeffs, GenConfig

README = Path(__file__).resolve().parent.parent / "README.md"

EVERY_KEY_INI = """\
[pool]
source = synth
rng_seed = 7
n_sequences = 40
frame_len_min = 11
frame_len_max = 13
raster_width = 20
raster_height = 22
objects_min = 1
objects_max = 2
speed_min = 0.25
speed_max = 1.75
occlusion_rate = 0.3
alpha_boxes = 0.01
beta_motion = 0.02
gamma_occlusion = 0.03
delta_length = 0.04
cost_noise_sd = 0.05

[strategy]
kind = gauss_switch
batch_size = 3
parity_phase = min_first

[surrogate]
kappa = 0.9
noise_seed = 17
trace = t.csv
trace_metrics = tm.csv

[costing]
detector_gflops_per_frame = 1.5
flow_gflops_per_pair = 2.5
interpolation_rate = 4

[eval]
evaluate = off
min_box_pixels = 12
reference_resolution = 320
iou_thresholds = 0.55, 0.75

[run]
mode = singular
seed_sequences = 3
rounds = 5
seeds = 4,5
frames_per_round = 6
flow_threshold = 30
flow_min_area = 9
"""


def parse(tmp_path: Path, text: str) -> configparser.ConfigParser:
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    return read_config(path)


def test_every_key_lands_in_its_field(tmp_path):
    cfg = run_config(parse(tmp_path, EVERY_KEY_INI))
    assert cfg == RunConfig(
        pool_source=GenConfig(
            rng_seed=7,
            n_sequences=40,
            frame_len_range=(11, 13),
            raster_size=(20, 22),
            objects_per_seq_range=(1, 2),
            speed_range=(0.25, 1.75),
            occlusion_rate=0.3,
            cost_coeffs=CostCoeffs(
                alpha_boxes=0.01,
                beta_motion=0.02,
                gamma_occlusion=0.03,
                delta_length=0.04,
                noise_sd=0.05,
            ),
        ),
        strategy=StrategySpec("gauss_switch", batch_size=3, parity_phase="min_first"),
        mode="singular",
        interpolation_rate=4,
        frames_per_round=6,
        seed_sequences=3,
        rounds=5,
        seeds=(4, 5),
        kappa=0.9,
        noise_seed=17,
        trace_path="t.csv",
        trace_metrics_path="tm.csv",
        overhead=OverheadModel(detector_gflops_per_frame=1.5, flow_gflops_per_pair=2.5),
        min_box_pixels=12,
        reference_resolution=320,
        iou_thresholds=(0.55, 0.75),
        evaluate=False,
        flow_threshold=30,
        flow_min_area=9,
    )
    # the test sets every field the file can reach to a non-default value
    defaults = RunConfig(pool_source=GenConfig(), strategy=StrategySpec("entropy"))
    for name in ("pool_source", "strategy", "overhead"):
        inner, base = getattr(cfg, name), getattr(defaults, name)
        for field in vars(base):
            assert getattr(inner, field) != getattr(base, field), (name, field)
    for field in vars(defaults):
        assert getattr(cfg, field) != getattr(defaults, field), field


def test_omitted_keys_take_dataclass_defaults(tmp_path):
    cfg = run_config(parse(tmp_path, "[pool]\nframe_len_max = 900\n[strategy]\nkind = random\n"))
    assert cfg == RunConfig(
        pool_source=GenConfig(frame_len_range=(GenConfig().frame_len_range[0], 900)),
        strategy=StrategySpec("random"),
    )
    assert gen_config(parse(tmp_path, "[pool]\n")) == GenConfig()


def test_readme_ini_block_is_the_defaults(tmp_path):
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    cfg = run_config(parse(tmp_path, block))
    assert cfg == RunConfig(pool_source=GenConfig(), strategy=StrategySpec("entropy"))


def test_overrides(tmp_path):
    parser = parse(tmp_path, "[pool]\n[strategy]\nkind = entropy\n[run]\nseeds = 1,x\n")
    # with a seed override the file's seeds are never read
    cfg = run_config(parser, strategy_override="random", seeds_override=(8,))
    assert cfg.seeds == (8,) and cfg.strategy.kind == "random"
    assert parser.get("run", "seeds") == "1,x"
    with pytest.raises(ConfigError):
        run_config(parser)
    # an empty strategy override falls back to the file
    assert run_config(parser, "", (8,)).strategy.kind == "entropy"


def test_pool_directory_skips_generator_keys(tmp_path):
    parser = parse(tmp_path, "[pool]\nsource = somewhere\nrng_seed = x\n[strategy]\nkind = random\n")
    assert run_config(parser).pool_source == "somewhere"
    with pytest.raises(ConfigError):
        gen_config(parser)


@pytest.mark.parametrize(
    "text",
    [
        "[pool]\nrng_seed = 1.5\n[strategy]\nkind = random\n",
        "[pool]\n[strategy]\nkind = random\nbatch_size = 0\n",
        "[pool]\n[strategy]\nkind = random\n[eval]\nevaluate = maybe\n",
        "[pool]\n[strategy]\nkind = random\n[eval]\niou_thresholds =\n",
        "[pool]\n[strategy]\nkind = random\n[run]\nseeds = ,\n",
        "[pool]\n[strategy]\nkind = random\n[run]\nmode = batchwise\n",
        "[pool]\n[strategy]\n",
        "[strategy]\nkind = random\n",
        "[pool]\n",
    ],
)
def test_bad_run_settings_are_config_errors(tmp_path, text):
    with pytest.raises(ConfigError):
        run_config(parse(tmp_path, text))
