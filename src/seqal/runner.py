"""Experiment orchestration.

One experiment = one strategy run over several seeds on one pool, through
run_experiment, the single entry point. Per seed: draw seed sequences
uniformly from the train split, then run acquisition rounds; each round
scores the pool if the strategy needs it, selects a batch, charges
annotation cost and compute overhead, refreshes the surrogate, and
(optionally) evaluates test mAP. Everything is keyed off the config so
reruns are byte-identical.

Charges: each RoundRecord holds its round's annotation hours and GFLOPS
and the seed's running totals; records.csv and ledger.csv are two views of
that one list. Which overhead a kind pays is decided here, costing only
prices it. Model-score kinds and coreset pay the detector, refreshed after
every acquisition (the seed draw included) to score whatever is still
unlabeled; acquisition.FLOW_KINDS pay one up-front flow charge on the seed
record; random and the length ranks pay nothing.

Detector outputs: each seed has one surrogate.ScoreTrace, and the round
loop reads every frame score and test mAP from it. A live run fills each
round in first and saves the traces as trace.csv and trace_metrics.csv; a
replay reads those files before the pool is built, so a malformed or
seed-short trace fails before any work. The switch kinds' previous counts
are the trace's table of the round before.

The acquisition unit depends on the mode; both modes share one round loop.
Train sequence r (train order) holds the run's frames starts[r] to
starts[r] + lengths[r]. A seed's record of what is labeled is one boolean
array over those frames, plus the rows of whole sequences labeled, in
acquisition order; a sequence with an unlabeled frame is open. The seed
draw labels whole sequences. Every round ranks its sorted candidates as
index arrays: coreset's by acquisition.coreset over one feature matrix,
every other by one value array through acquisition.rank.

- sequential: the unit is a train row at its full annotation cost.
- singular: the unit is an open sequence's unlabeled frame, held as (train
  row, frame id) arrays, and priced by costing.frame_cost:
  only every interpolation_rate-th frame (a keyframe) carries a charge of
  cost_hours / ceil(N / rate), interpolated frames are free. Frame scoring
  only makes sense for the model-score strategies, so RunConfig rejects
  pool-statistic kinds and coreset before any work.

Outputs: records.csv, ledger.csv, curves.csv and aggregate.csv are written
here through tables.write_table, floats at six decimals; read_curves reads
records.csv back for the CAR/PAR sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import acquisition, costing, flowproxy, metrics, surrogate
from .acquisition import (
    CONFORMAL_KINDS,
    FLOW_KINDS,
    KIND_CORESET,
    KIND_RANDOM,
    SCORE_KINDS,
    StrategySpec,
)
from .costing import MODE_SEQUENTIAL, MODE_SINGULAR, OverheadModel
from .errors import DomainError, EmptyCurveError, ModeError, PoolExhaustedError, TraceError
from .pool import Frame, PoolState, load_pool
from .surrogate import ScoreTrace, SurrogateState
from .synth import GenConfig, generate_pool
from .tables import cell, hours, optional_unit, parsed_rows, write_table

DEFAULT_SEEDS = (0, 1, 2)
DEFAULT_MIN_BOX_PIXELS = 50
DEFAULT_REFERENCE_RESOLUTION = 640

SINGULAR_KINDS = frozenset(SCORE_KINDS | {KIND_RANDOM})


@dataclass
class RunConfig:
    """Everything a run needs; defaults follow the two-seed, eleven-round,
    three-seed protocol."""

    pool_source: GenConfig | str | Path
    strategy: StrategySpec
    mode: str = MODE_SEQUENTIAL
    interpolation_rate: int = 1
    frames_per_round: int = 25
    seed_sequences: int = 2
    rounds: int = 11
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    kappa: float = 0.35
    noise_seed: int | None = None
    trace_path: str | None = None
    trace_metrics_path: str | None = None
    overhead: OverheadModel = field(default_factory=OverheadModel)
    min_box_pixels: int = DEFAULT_MIN_BOX_PIXELS
    reference_resolution: int = DEFAULT_REFERENCE_RESOLUTION
    iou_thresholds: tuple[float, ...] = metrics.MAP5095_THRESHOLDS
    evaluate: bool = True
    flow_threshold: int = flowproxy.DEFAULT_THRESHOLD
    flow_min_area: int = flowproxy.DEFAULT_MIN_AREA

    def __post_init__(self) -> None:
        if self.mode not in (MODE_SEQUENTIAL, MODE_SINGULAR):
            raise DomainError(f"unknown mode {self.mode!r}")
        if self.mode == MODE_SINGULAR and self.strategy.kind not in SINGULAR_KINDS:
            raise ModeError(
                f"strategy {self.strategy.kind!r} has no frame-level scores; "
                "singular mode supports model-score kinds and random"
            )
        if self.rounds < 0:
            raise DomainError(f"rounds must be >= 0, got {self.rounds}")
        if self.seed_sequences < 1:
            raise DomainError(
                f"seed_sequences must be >= 1, got {self.seed_sequences}"
            )
        if not self.seeds:
            raise DomainError("need at least one seed")
        if len(set(self.seeds)) < len(self.seeds):
            raise DomainError(f"seeds must not repeat, got {list(self.seeds)}")
        if min(self.seeds) < 0:
            raise DomainError(f"seeds must be >= 0, got {list(self.seeds)}")
        if self.interpolation_rate < 1:
            raise DomainError(
                f"interpolation_rate must be >= 1, got {self.interpolation_rate}"
            )
        if self.frames_per_round < 1:
            raise DomainError(
                f"frames_per_round must be >= 1, got {self.frames_per_round}"
            )
        if self.min_box_pixels < 0 or self.reference_resolution < 1:
            raise DomainError("bad box filter settings")
        if not (math.isfinite(self.kappa) and self.kappa >= 0):
            raise DomainError(f"kappa must be finite and >= 0, got {self.kappa}")
        metrics.check_thresholds(self.iou_thresholds)
        flowproxy.check_params(self.flow_threshold, self.flow_min_area)
        if (self.trace_path is None) != (self.trace_metrics_path is None):
            raise DomainError(
                "replay needs both trace_path and trace_metrics_path"
            )

    @property
    def replay(self) -> bool:
        return self.trace_path is not None


@dataclass
class RoundRecord:
    """One seed's round: what it acquired, the round's charges and the
    seed's running totals, and test mAP once evaluated."""

    round_index: int
    seed: int
    strategy_kind: str
    selected: tuple[str, ...]
    cost_hours: float
    cum_cost_hours: float
    overhead_gflops: float
    cum_overhead_gflops: float
    map50: float | None = None
    map5095: float | None = None


def build_pool(source: GenConfig | str | Path) -> PoolState:
    """Materialize the pool: generate from a config or load from disk."""
    if isinstance(source, GenConfig):
        return generate_pool(source)
    return load_pool(source)


def filter_small_boxes(
    pool: PoolState,
    min_pixels: int = DEFAULT_MIN_BOX_PIXELS,
    reference_resolution: int = DEFAULT_REFERENCE_RESOLUTION,
) -> PoolState:
    """The run-local pool: boxes whose width and height both land under
    min_pixels at the reference resolution are dropped. Every sequence is a
    new Sequence, and a frame that lost boxes a new Frame over the kept
    boxes and the same raster source; nothing the caller passed is edited."""

    def kept(frame: Frame) -> Frame:
        boxes = [
            b
            for b in frame.boxes
            if not (
                b.w * reference_resolution < min_pixels
                and b.h * reference_resolution < min_pixels
            )
        ]
        if len(boxes) == len(frame.boxes):
            return frame
        return Frame(frame.frame_id, boxes, frame.source)

    return PoolState(
        sequences={
            sid: replace(seq, frames=[kept(f) for f in seq.frames])
            for sid, seq in pool.sequences.items()
        }
    )


def _select_rng_seed(seed: int, round_index: int) -> int:
    ss = np.random.SeedSequence([seed, 2, round_index])
    return int(ss.generate_state(1, np.uint64)[0])


def _coreset_features(pool: PoolState, features: dict[str, np.ndarray]) -> np.ndarray:
    """Each train sequence's (mean center shift, mean box count, length),
    standardized over the train split, one row per sequence in train order.
    The two statistics are columns of the surrogate's feature table, read
    off the annotations, so score-driven runs stay off the flow machinery.
    """
    mat = np.array(
        [[features[s][1], features[s][0], pool.sequences[s].n_frames] for s in pool.train_ids],
        dtype=float,
    )
    mean = mat.mean(axis=0)
    sd = mat.std(axis=0)
    sd[sd == 0.0] = 1.0
    return (mat - mean) / sd


def _frame_candidates(
    kind: str, open_ids: list[str], lengths, labeled: np.ndarray,
    table: dict | None, previous: dict | None, singular: bool,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """A round's candidates in sorted order, as (index into open_ids, frame
    id) arrays, and their criterion from the round's detector table (None
    without one). lengths holds open_ids' frame counts and labeled flags
    their frames, one sequence after another. A frame round's candidates are
    the unlabeled frames; a sequence round's are open_ids, frame ids None,
    each valued by its frames' mean, added left to right (cumsum, not
    np.sum's pairwise order)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    values = None
    if table is not None and open_ids:
        # The criterion is elementwise: one pass over every sequence's frames.
        objectness, counts, prev = (
            np.concatenate([tab[s][k] for s in open_ids]) if tab else None
            for tab, k in ((table, 0), (table, 1), (previous, 1))
        )
        values = acquisition.frame_criterion(kind, objectness, counts, prev)
    if not singular:  # whole sequences, so every frame here is unlabeled
        if values is not None:
            values = np.array([float(np.cumsum(values[a : a + n])[-1]) / n
                               for a, n in zip(starts.tolist(), lengths.tolist())])
        return np.arange(len(open_ids)), None, values
    sid_index = np.repeat(np.arange(len(open_ids)), lengths)
    fids = np.arange(sid_index.size) - starts[sid_index]
    keep = ~labeled
    return sid_index[keep], fids[keep], None if values is None else values[keep]


def _load_traces(cfg: RunConfig) -> dict[int, ScoreTrace]:
    """Each seed's ScoreTrace: read from the trace files on replay, so a bad
    or seed-short trace fails before any work; empty for a live run, whose
    round loop fills it. A seed is required in the files only when the run
    reads its trace (a model-score kind, or evaluation on): a live run that
    reads nothing writes no rows for it."""
    if not cfg.replay:
        return {seed: ScoreTrace() for seed in cfg.seeds}
    traces = surrogate.read_traces(cfg.trace_path, cfg.trace_metrics_path)
    if cfg.strategy.kind in SCORE_KINDS or cfg.evaluate:
        missing = [s for s in cfg.seeds if s not in traces]
        if missing:
            raise TraceError(f"trace files lack seeds {missing}")
    return {seed: traces.get(seed, ScoreTrace()) for seed in cfg.seeds}


def run_experiment(
    cfg: RunConfig,
    pool: PoolState | None = None,
    out_dir: Path | str | None = None,
) -> list[RoundRecord]:
    """Run one strategy over all configured seeds; returns every RoundRecord.

    A prebuilt pool skips regeneration. The run filters boxes on a run-local
    copy and keeps what it computes in locals, so the caller's pool comes
    back as it was. With out_dir set, the CSV outputs land there; a failing
    run still flushes the ledger rows of every round charged so far.
    """
    kind = cfg.strategy.kind
    singular = cfg.mode == MODE_SINGULAR

    traces = _load_traces(cfg)
    if pool is None:
        pool = build_pool(cfg.pool_source)
    train_ids = pool.train_ids
    need = cfg.seed_sequences
    batch = cfg.frames_per_round if singular else cfg.strategy.batch_size
    if not singular:
        need += cfg.rounds * batch
    if need > len(train_ids):
        raise PoolExhaustedError(
            f"budget needs {need} sequences, train split has {len(train_ids)}"
        )

    flow, front_charge = {}, 0.0
    if kind in FLOW_KINDS:
        # Flow stats read rasters only, which the box filter keeps, so one
        # computation per train sequence serves every seed of the run.
        flow = {
            sid: flowproxy.compute_flow_stats(
                pool.sequences[sid], cfg.flow_threshold, cfg.flow_min_area
            )
            for sid in train_ids
        }
        front_charge = costing.overhead_conformal(
            cfg.overhead, pool.total_train_frames()
        )
    pool = filter_small_boxes(pool, cfg.min_box_pixels, cfg.reference_resolution)
    # Only live scoring, live evaluation and coreset read the feature table.
    features, sigma, coreset_feats = None, None, None
    if kind == KIND_CORESET or (
        not cfg.replay and (kind in SCORE_KINDS or cfg.evaluate)
    ):
        features, sigma = surrogate.pool_feature_table(pool)
    if kind == KIND_CORESET:
        coreset_feats = _coreset_features(pool, features)
    if cfg.evaluate and not cfg.replay:
        test_seqs = [pool.sequences[sid] for sid in pool.test_ids]
        test_targets = np.array([features[sid] for sid in pool.test_ids])
        test_truths = metrics.truth_rows([f.boxes for seq in test_seqs for f in seq.frames])
    rate = cfg.interpolation_rate
    lengths = np.array([pool.sequences[sid].n_frames for sid in train_ids], dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    pays_detector = kind in SCORE_KINDS or kind == KIND_CORESET

    records: list[RoundRecord] = []
    try:
        for seed in cfg.seeds:
            trace = traces[seed]
            noise_seed = seed if cfg.noise_seed is None else cfg.noise_seed
            # The run's record of acquisition: which train frames are
            # labeled, and the rows of the whole sequences labeled, in order.
            labeled = np.zeros(int(lengths.sum()), dtype=bool)
            order: list[int] = []

            def surrogate_state(rnd: int) -> SurrogateState:
                """The detector trained on whole sequences in acquisition
                order, or on each touched sequence, in train order, weighted
                by its labeled fraction."""
                rows, weights = order, None
                if singular:
                    counts = np.add.reduceat(labeled, starts, dtype=np.int64)
                    rows = np.flatnonzero(counts)
                    weights = (counts[rows] / lengths[rows]).tolist()
                return SurrogateState(
                    round_index=rnd,
                    labeled_features=[features[train_ids[r]] for r in rows],
                    kappa=cfg.kappa,
                    noise_seed=noise_seed,
                    sigma=sigma,
                    labeled_weights=weights,
                )

            def detector_scores(rnd: int, open_ids: list[str]) -> dict:
                """(objectness, counts) per open sequence, read from the
                seed's trace; a live run first fills the round in."""
                if not cfg.replay:
                    seqs = [pool.sequences[sid] for sid in open_ids]
                    targets = [features[sid] for sid in open_ids]
                    state = surrogate_state(rnd)
                    qs = surrogate.quality(state, np.stack(targets)).tolist() if targets else []
                    noise = surrogate.frame_noise(noise_seed, rnd, seqs)
                    trace.rounds[rnd] = {
                        sid: surrogate.frame_scores(q, seq, seq_noise)
                        for sid, q, seq, seq_noise in zip(open_ids, qs, seqs, noise)
                    }
                where = f"trace seed {seed} round {rnd}"
                table = trace.rounds.get(rnd)
                if table is None:
                    raise TraceError(f"{where}: no detector scores")
                for sid in open_ids:
                    if sid not in table:
                        raise TraceError(f"{where} sequence {sid}: no scores")
                    n_traced, n_pool = len(table[sid][0]), pool.sequences[sid].n_frames
                    if n_traced != n_pool:
                        raise TraceError(
                            f"{where} sequence {sid}: {n_traced} frames scored, "
                            f"the pool has {n_pool}"
                        )
                return {sid: table[sid] for sid in open_ids}

            def test_metrics(rnd: int) -> tuple[float | None, float | None]:
                """Test mAP from the seed's trace; a live run first
                evaluates the round into it."""
                if not cfg.evaluate:
                    return None, None
                if not cfg.replay:
                    state = surrogate_state(rnd)
                    qs = surrogate.quality(state, test_targets).tolist() if test_seqs else []
                    preds, _ = surrogate.detection_rows(noise_seed, rnd, test_seqs, qs, test_truths)
                    trace.test_metrics[rnd] = metrics.mean_ap_rows(
                        preds, test_truths, cfg.iou_thresholds
                    )
                if rnd not in trace.test_metrics:
                    raise TraceError(f"trace seed {seed} round {rnd}: no test metrics")
                return trace.test_metrics[rnd]

            def acquire(rows: np.ndarray, fids: np.ndarray | None) -> tuple[list[str], float]:
                """Label whole sequences (fids None) at their full cost, or
                frame fids[i] of each rows[i] at its frame_cost; returns
                their names and annotation hours."""
                names, cost = [], 0.0
                if fids is None:
                    order.extend(rows.tolist())
                    for r in rows.tolist():
                        labeled[starts[r] : starts[r] + lengths[r]] = True
                        cost += pool.sequences[train_ids[r]].meta.cost_hours
                        names.append(train_ids[r])
                    return names, cost
                labeled[starts[rows] + fids] = True
                for r, fid in zip(rows.tolist(), fids.tolist()):
                    cost += costing.frame_cost(pool.sequences[train_ids[r]], fid, rate)
                    names.append(f"{train_ids[r]}:{fid}")
                return names, cost

            def emit(round_index: int, selected: list[str], cost: float) -> None:
                """Charge the round on a new record, then evaluate it; the
                record is kept first, so a failing evaluation still leaves
                the charge for the ledger."""
                if pays_detector:
                    over = costing.overhead_inferential(cfg.overhead, np.count_nonzero(~labeled))
                else:
                    over = front_charge if round_index == 0 else 0.0
                if cost < 0 or over < 0:
                    raise DomainError("charges must be non-negative")
                prev = records[-1] if round_index else None
                record = RoundRecord(
                    round_index=round_index,
                    seed=seed,
                    strategy_kind=kind,
                    selected=tuple(selected),
                    cost_hours=cost,
                    cum_cost_hours=(prev.cum_cost_hours if prev else 0.0) + cost,
                    overhead_gflops=over,
                    cum_overhead_gflops=(prev.cum_overhead_gflops if prev else 0.0)
                    + over,
                )
                records.append(record)
                record.map50, record.map5095 = test_metrics(round_index)

            for rnd in range(cfg.rounds + 1):
                counts = np.add.reduceat(labeled, starts, dtype=np.int64)
                open_rows = np.flatnonzero(counts < lengths)
                open_ids = [train_ids[r] for r in open_rows.tolist()]
                rng_seed = _select_rng_seed(seed, rnd)
                fids = None  # whole sequences
                if rnd == 0:  # the seed draw: whole sequences, uniformly
                    picks = acquisition.rank(
                        KIND_RANDOM, None, open_rows.size, cfg.seed_sequences, [seed, 1]
                    )
                    rows = open_rows[picks]
                elif kind == KIND_CORESET:  # sequential: a sequence is open or a center
                    rows = acquisition.coreset(coreset_feats, open_rows, np.flatnonzero(counts),
                                               batch)
                else:  # open sequences, or the unlabeled frames among them
                    table = detector_scores(rnd, open_ids) if kind in SCORE_KINDS else None
                    # A sequence open now was open in the round before, whose
                    # table holds its previous counts; round 1 has none, even
                    # when a replayed trace holds round-0 rows.
                    previous = trace.rounds.get(rnd - 1) if rnd > 1 else {}
                    sid_index, fids, values = _frame_candidates(
                        kind, open_ids, lengths[open_rows],
                        labeled[np.repeat(counts < lengths, lengths)], table, previous, singular,
                    )
                    if kind in CONFORMAL_KINDS:
                        values = acquisition.catalog_scores(cfg.strategy, pool, open_ids, flow, rnd)
                    picks = acquisition.rank(kind, values, sid_index.size, batch, rng_seed)
                    rows, fids = open_rows[sid_index[picks]], fids if fids is None else fids[picks]
                emit(rnd, *acquire(rows, fids))
    except BaseException:
        if out_dir is not None:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
            write_ledger(records, Path(out_dir) / "ledger.csv")
        raise

    if out_dir is not None:
        write_outputs(records, traces, out_dir, include_traces=not cfg.replay)
    return records


@dataclass
class AggregateRow:
    strategy_kind: str
    round_index: int
    n_seeds: int
    mean_cum_cost_hours: float
    se_cum_cost_hours: float | None
    mean_map50: float | None
    se_map50: float | None


def _mean_se(values: list[float]) -> tuple[float, float | None]:
    n = len(values)
    mean = metrics.ordered_sum(values) / n
    if n == 1:
        return mean, None
    var = metrics.ordered_sum([(v - mean) ** 2 for v in values]) / (n - 1)
    return mean, math.sqrt(var) / math.sqrt(n)


def aggregate(records: list[RoundRecord]) -> list[AggregateRow]:
    """Mean and standard error of cost and mAP per (strategy, round)."""
    groups: dict[tuple[str, int], list[RoundRecord]] = {}
    for rec in records:
        groups.setdefault((rec.strategy_kind, rec.round_index), []).append(rec)
    rows = []
    for (kind, rnd) in sorted(groups):
        recs = groups[(kind, rnd)]
        mean_cost, se_cost = _mean_se([r.cum_cost_hours for r in recs])
        maps = [r.map50 for r in recs if r.map50 is not None]
        if maps:
            mean_map, se_map = _mean_se(maps)
        else:
            mean_map, se_map = None, None
        rows.append(
            AggregateRow(
                strategy_kind=kind,
                round_index=rnd,
                n_seeds=len(recs),
                mean_cum_cost_hours=mean_cost,
                se_cum_cost_hours=se_cost,
                mean_map50=mean_map,
                se_map50=se_map,
            )
        )
    return rows


RECORD_COLUMNS = (
    "round",
    "seed",
    "strategy",
    "selected_ids",
    "cum_cost_hours",
    "cum_overhead_gflops",
    "map50",
    "map5095",
)
# (column, parser) of the records.csv columns read_curves reads.
_RECORD_FIELDS = (
    ("seed", int), ("round", int), ("cum_cost_hours", hours), ("map50", optional_unit)
)


def write_records(records: list[RoundRecord], path: Path | str) -> None:
    rows = (
        [r.round_index, r.seed, r.strategy_kind, ";".join(r.selected)]
        + [cell(v) for v in (r.cum_cost_hours, r.cum_overhead_gflops, r.map50, r.map5095)]
        for r in records
    )
    write_table(path, RECORD_COLUMNS, rows)


def read_curves(run_dir: Path | str) -> dict[int, metrics.PerfCostCurve]:
    """Per-seed performance-cost curves from a run's records.csv, which
    holds each (seed, round) once."""
    records_path = Path(run_dir) / "records.csv"
    staged: dict[int, list[tuple[float, float]]] = {}
    for seed, _, cost, map50 in parsed_rows(records_path, _RECORD_FIELDS, unique=2):
        if map50 is not None:
            staged.setdefault(seed, []).append((cost, map50))
    if not staged:
        raise EmptyCurveError(f"{records_path} holds no evaluated rounds")
    return {
        seed: metrics.PerfCostCurve.from_points(points)
        for seed, points in sorted(staged.items())
    }


def write_ledger(records: list[RoundRecord], path: Path | str) -> None:
    """The records' charges, seeds ascending and rounds in order; floats at
    6 decimals, ids joined by ';'."""
    header = ["seed", "round", "selected_ids", "round_cost_h", "cum_cost_h", "round_gflops",
              "cum_gflops"]
    rows = (
        [r.seed, r.round_index, ";".join(r.selected)]
        + [cell(v) for v in (r.cost_hours, r.cum_cost_hours, r.overhead_gflops,
                             r.cum_overhead_gflops)]
        for r in sorted(records, key=lambda r: r.seed)
    )
    write_table(path, header, rows)


def write_curves(records: list[RoundRecord], path: Path | str) -> None:
    rows = ([r.seed, r.round_index, cell(r.cum_cost_hours), cell(r.map50)] for r in records)
    write_table(path, ["seed", "round", "cum_cost_hours", "map50"], rows)


def write_aggregate(rows: list[AggregateRow], path: Path | str) -> None:
    header = ["strategy", "round", "n_seeds", "mean_cum_cost_hours", "se_cum_cost_hours",
              "mean_map50", "se_map50"]
    cells = (
        [row.strategy_kind, row.round_index, row.n_seeds]
        + [cell(v) for v in (row.mean_cum_cost_hours, row.se_cum_cost_hours,
                             row.mean_map50, row.se_map50)]
        for row in rows
    )
    write_table(path, header, cells)


def write_outputs(
    records: list[RoundRecord],
    traces: dict[int, ScoreTrace],
    out_dir: Path | str,
    include_traces: bool = True,
) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_records(records, out / "records.csv")
    write_ledger(records, out / "ledger.csv")
    write_curves(records, out / "curves.csv")
    write_aggregate(aggregate(records), out / "aggregate.csv")
    if include_traces:
        surrogate.write_traces(
            traces, out / "trace.csv", out / "trace_metrics.csv"
        )
