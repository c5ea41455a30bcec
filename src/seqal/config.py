"""INI config files for the command line.

One file drives both pool generation and experiment runs, split into the
sections [pool], [strategy], [surrogate], [costing], [eval] and [run].
KEYS maps each [section] key to the dataclass field it fills and the cast
that reads it. Only keys the file sets are passed, so a key left out takes
its dataclass default. Every key is optional except the pool source;
unknown sections or keys are rejected so typos fail loudly instead of
silently running defaults.
"""

from __future__ import annotations

import configparser
from collections import defaultdict
from dataclasses import fields
from pathlib import Path

from .acquisition import StrategySpec
from .costing import OverheadModel
from .errors import ConfigError, DomainError, ModeError
from .runner import RunConfig
from .synth import CostCoeffs, GenConfig

SOURCE_SYNTH = "synth"


def _list(raw: str, cast) -> tuple:
    values = tuple(cast(part.strip()) for part in raw.split(",") if part.strip())
    if not values:
        raise ValueError(f"empty list {raw!r}")
    return values


def int_list(raw: str) -> tuple[int, ...]:
    """A non-empty comma-separated list of ints."""
    return _list(raw, int)


def float_list(raw: str) -> tuple[float, ...]:
    """A non-empty comma-separated list of floats."""
    return _list(raw, float)


def _bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}")


def convert(raw: str, cast, name: str):
    """raw through cast; a failed cast is a ConfigError naming the value."""
    try:
        return cast(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"bad value for {name}: {raw!r}")


# [section] key -> (dataclass, field, cast). A (field, index) pair fills one
# half of a tuple field; the other half keeps its default.
KEYS = {
    "pool": {
        # 'synth' generates a pool; anything else is a pool directory
        "source": (RunConfig, "pool_source", str),
        "rng_seed": (GenConfig, "rng_seed", int),
        "n_sequences": (GenConfig, "n_sequences", int),
        "frame_len_min": (GenConfig, ("frame_len_range", 0), int),
        "frame_len_max": (GenConfig, ("frame_len_range", 1), int),
        "raster_width": (GenConfig, ("raster_size", 0), int),
        "raster_height": (GenConfig, ("raster_size", 1), int),
        "objects_min": (GenConfig, ("objects_per_seq_range", 0), int),
        "objects_max": (GenConfig, ("objects_per_seq_range", 1), int),
        "speed_min": (GenConfig, ("speed_range", 0), float),
        "speed_max": (GenConfig, ("speed_range", 1), float),
        "occlusion_rate": (GenConfig, "occlusion_rate", float),
        "alpha_boxes": (CostCoeffs, "alpha_boxes", float),
        "beta_motion": (CostCoeffs, "beta_motion", float),
        "gamma_occlusion": (CostCoeffs, "gamma_occlusion", float),
        "delta_length": (CostCoeffs, "delta_length", float),
        "cost_noise_sd": (CostCoeffs, "noise_sd", float),
    },
    "strategy": {
        "kind": (StrategySpec, "kind", str),
        "batch_size": (StrategySpec, "batch_size", int),
        "parity_phase": (StrategySpec, "parity_phase", str),
    },
    "surrogate": {
        "kappa": (RunConfig, "kappa", float),
        "noise_seed": (RunConfig, "noise_seed", int),
        "trace": (RunConfig, "trace_path", str),
        "trace_metrics": (RunConfig, "trace_metrics_path", str),
    },
    "costing": {
        "detector_gflops_per_frame": (OverheadModel, "detector_gflops_per_frame", float),
        "flow_gflops_per_pair": (OverheadModel, "flow_gflops_per_pair", float),
        "interpolation_rate": (RunConfig, "interpolation_rate", int),
    },
    "eval": {
        "evaluate": (RunConfig, "evaluate", _bool),
        "min_box_pixels": (RunConfig, "min_box_pixels", int),
        "reference_resolution": (RunConfig, "reference_resolution", int),
        "iou_thresholds": (RunConfig, "iou_thresholds", float_list),
    },
    "run": {
        "mode": (RunConfig, "mode", str),
        "seed_sequences": (RunConfig, "seed_sequences", int),
        "rounds": (RunConfig, "rounds", int),
        "seeds": (RunConfig, "seeds", int_list),
        "frames_per_round": (RunConfig, "frames_per_round", int),
        "flow_threshold": (RunConfig, "flow_threshold", int),
        "flow_min_area": (RunConfig, "flow_min_area", int),
    },
}


def read_config(path: Path | str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")
    for section in parser.sections():
        if section not in KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    return parser


def require_section(parser, section: str) -> None:
    if not parser.has_section(section):
        raise ConfigError(f"config is missing the [{section}] section")


def _default(cls, name: str):
    return next(f.default for f in fields(cls) if f.name == name)


def _values(parser, sections, skip=()) -> dict[type, dict]:
    """Keyword arguments per dataclass from the keys the file sets in
    sections; keys listed in skip as (section, key) are not read."""
    kwargs: dict[type, dict] = defaultdict(dict)
    for section in sections:
        if not parser.has_section(section):
            continue
        for key, raw in parser[section].items():
            if (section, key) in skip:
                continue
            cls, name, cast = KEYS[section][key]
            value = convert(raw, cast, f"[{section}] {key}")
            if isinstance(name, tuple):
                name, index = name
                pair = list(kwargs[cls].get(name, _default(cls, name)))
                pair[index] = value
                value = tuple(pair)
            kwargs[cls][name] = value
    return kwargs


def pool_source(parser: configparser.ConfigParser) -> GenConfig | str:
    """A GenConfig from [pool] when the source is 'synth', else the pool
    directory path; a directory's generator keys are not read."""
    require_section(parser, "pool")
    source = parser.get("pool", "source", fallback=SOURCE_SYNTH)
    if source != SOURCE_SYNTH:
        return source
    values = _values(parser, ["pool"])
    return GenConfig(**values[GenConfig], cost_coeffs=CostCoeffs(**values[CostCoeffs]))


def gen_config(parser: configparser.ConfigParser) -> GenConfig:
    """Synthetic-pool settings from [pool]; the source must be 'synth'."""
    source = pool_source(parser)
    if not isinstance(source, GenConfig):
        raise ConfigError(
            f"[pool] source must be {SOURCE_SYNTH!r} to generate, got {source!r}"
        )
    return source


def run_config(
    parser: configparser.ConfigParser,
    strategy_override: str | None = None,
    seeds_override: tuple[int, ...] | None = None,
) -> RunConfig:
    """Assemble a RunConfig; command-line overrides beat file values, and
    with a seed override the file's seeds are not read."""
    require_section(parser, "strategy")
    skip = {("run", "seeds")} if seeds_override is not None else set()
    values = _values(parser, [s for s in KEYS if s != "pool"], skip)
    if strategy_override:
        values[StrategySpec]["kind"] = strategy_override
    if seeds_override is not None:
        values[RunConfig]["seeds"] = tuple(seeds_override)
    if "kind" not in values[StrategySpec]:
        raise ConfigError("config is missing [strategy] kind")
    source = pool_source(parser)
    try:
        return RunConfig(
            pool_source=source,
            strategy=StrategySpec(**values[StrategySpec]),
            overhead=OverheadModel(**values[OverheadModel]),
            **values[RunConfig],
        )
    except (DomainError, ModeError) as exc:
        raise ConfigError(f"bad run settings: {exc}")
