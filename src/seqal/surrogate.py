"""Closed-form stand-in for a trainable object detector.

Instead of training a network each round, the simulator scores how well the
labeled set covers a target sequence: a similarity kernel over per-sequence
features feeds a saturating quality scalar q in [0, 1), and every simulated
output (frame objectness, predicted counts, test-split detections) degrades
smoothly as q drops. All randomness is keyed by (noise_seed, round,
sequence, frame), so reruns are bit-identical and evaluation order is
irrelevant.

A ScoreTrace holds one seed's outputs; the runner reads every output from
it, filled live or read back from the files write_traces wrote.

Features are read off the annotation stream itself (mean per-frame box
count, mean center displacement, scene one-hot, season), never from the
motion proxy: inferential runs must stay off the flow machinery, which only
conformal runs pay for.
"""

from __future__ import annotations

import csv
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FeatureError, TraceError
from .pool import BoundingBox, PoolState, Sequence, clamp_box

EPSILON_HALF_WIDTH = 0.05
JITTER_SD_SCALE = 0.08
DROP_PROB_SCALE = 0.5
FALSE_POSITIVE_RATE = 0.3
FALSE_POSITIVE_MAX_CONF = 0.4
CONF_FLOOR = 0.05
CONF_CEIL = 0.99

_SIGMA_FLOOR = 1e-9


def sequence_feature(seq: Sequence, train_scenes: list[int]) -> np.ndarray:
    """Feature vector: (mean box count, mean center shift, scene one-hot, season).

    The scene one-hot spans the train split's scenes; sequences from unseen
    scenes (validation/test) get an all-zero scene block.
    """
    one_hot = np.zeros(len(train_scenes))
    try:
        one_hot[train_scenes.index(seq.meta.scene_id)] = 1.0
    except ValueError:
        pass
    head = np.array([seq.mean_box_count(), seq.mean_center_shift()])
    return np.concatenate([head, one_hot, [float(int(seq.meta.season))]])


def pool_feature_table(pool: PoolState) -> tuple[dict[str, np.ndarray], float]:
    """Features for every sequence plus the kernel bandwidth sigma.

    Sigma is the median pairwise feature distance over the train split,
    floored to stay positive.
    """
    train_ids = pool.train_ids
    train_scenes = sorted({pool.sequences[s].meta.scene_id for s in train_ids})
    table = {
        sid: sequence_feature(seq, train_scenes) for sid, seq in pool.sequences.items()
    }
    mat = np.stack([table[s] for s in train_ids]) if train_ids else np.zeros((0, 1))
    if len(train_ids) >= 2:
        diffs = mat[:, None, :] - mat[None, :, :]
        dist = np.sqrt((diffs**2).sum(axis=2))
        iu = np.triu_indices(len(train_ids), k=1)
        sigma = float(np.median(dist[iu]))
    else:
        sigma = 1.0
    return table, max(sigma, _SIGMA_FLOOR)


@dataclass
class SurrogateState:
    """Snapshot of the simulated detector after some acquisition round."""

    round_index: int
    labeled_features: list[np.ndarray]
    kappa: float
    noise_seed: int
    sigma: float
    features: dict[str, np.ndarray] = field(default_factory=dict)
    labeled_weights: list[float] | None = None


def quality(state: SurrogateState, target: np.ndarray) -> float:
    """Detector quality q = 1 - exp(-kappa * sum of labeled similarities).

    Similarity is a Gaussian kernel over feature distance with bandwidth
    sigma. An empty labeled set gives exactly 0. Adding a labeled sequence
    can only raise q (similarities are positive).
    """
    target = np.asarray(target, dtype=float)
    if target.size == 0:
        raise FeatureError("empty target feature vector")
    if not state.labeled_features:
        return 0.0
    total = 0.0
    weights = state.labeled_weights or [1.0] * len(state.labeled_features)
    for feat, w in zip(state.labeled_features, weights):
        if feat.size != target.size:
            raise FeatureError(
                f"feature length mismatch: {feat.size} vs {target.size}"
            )
        d2 = float(np.sum((feat - target) ** 2))
        total += w * np.exp(-d2 / (2.0 * state.sigma**2))
    return float(1.0 - np.exp(-state.kappa * total))


def _frame_rng(
    noise_seed: int, round_index: int, sequence_id: str, frame_id: int
) -> np.random.Generator:
    # Stable per-frame stream: the sequence id enters through crc32 so the
    # key is independent of interpreter hash randomization.
    key = zlib.crc32(sequence_id.encode("utf-8"))
    seed = np.random.SeedSequence(
        [noise_seed & 0xFFFFFFFFFFFFFFFF, round_index, key, frame_id]
    )
    return np.random.Generator(np.random.PCG64(seed))


def target_quality(state: SurrogateState, seq: Sequence) -> float:
    feat = state.features.get(seq.sequence_id)
    if feat is None:
        raise FeatureError(f"no features for sequence {seq.sequence_id!r}")
    return quality(state, feat)


def frame_scores(state: SurrogateState, seq: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame (objectness, predicted count) for one sequence.

    Objectness is q plus small keyed uniform noise clamped to [0, 1]; the
    predicted count is the true count scaled by q with an integer wobble in
    {-1, 0, 1}, floored at zero.
    """
    q = target_quality(state, seq)
    n = seq.n_frames
    objectness = np.empty(n)
    counts = np.empty(n, dtype=np.int64)
    for fid, frame in enumerate(seq.frames):
        rng = _frame_rng(state.noise_seed, state.round_index, seq.sequence_id, fid)
        eps = float(rng.uniform(-EPSILON_HALF_WIDTH, EPSILON_HALF_WIDTH))
        eta = int(rng.integers(-1, 2))
        objectness[fid] = min(max(q + eps, 0.0), 1.0)
        counts[fid] = max(0, round(len(frame.boxes) * q + eta))
    return objectness, counts


def predict_test(
    state: SurrogateState, seq: Sequence
) -> list[list[tuple[BoundingBox, float]]]:
    """Simulated detections for every frame of a (test) sequence.

    Ground-truth boxes are jittered with per-coordinate Gaussian noise of
    sd 0.08*(1-q), dropped with probability 0.5*(1-q), and given confidence
    clamp(q + eps, 0.05, 0.99). False positives arrive at Poisson rate
    0.3*(1-q) per frame with confidence at most 0.4. At q -> 1 the output
    converges to the ground truth.
    """
    q = target_quality(state, seq)
    sd = JITTER_SD_SCALE * (1.0 - q)
    drop_p = DROP_PROB_SCALE * (1.0 - q)
    fp_rate = FALSE_POSITIVE_RATE * (1.0 - q)
    out: list[list[tuple[BoundingBox, float]]] = []
    for fid, frame in enumerate(seq.frames):
        rng = _frame_rng(state.noise_seed, state.round_index, seq.sequence_id, fid)
        dets: list[tuple[BoundingBox, float]] = []
        for box in frame.boxes:
            u_drop = float(rng.random())
            jitter = rng.normal(0.0, sd, size=4) if sd > 0 else np.zeros(4)
            eps = float(rng.uniform(-EPSILON_HALF_WIDTH, EPSILON_HALF_WIDTH))
            if u_drop < drop_p:
                continue
            w = min(max(box.w + jitter[2], 1e-3), 1.0)
            h = min(max(box.h + jitter[3], 1e-3), 1.0)
            jittered, _ = clamp_box(
                box.class_id, box.cx + jitter[0], box.cy + jitter[1], w, h, box.occluded
            )
            conf = min(max(q + eps, CONF_FLOOR), CONF_CEIL)
            dets.append((jittered, conf))
        for _ in range(int(rng.poisson(fp_rate))):
            cls = int(rng.integers(0, 4))
            cx, cy = rng.uniform(0.0, 1.0, size=2)
            w, h = rng.uniform(0.02, 0.15, size=2)
            conf = float(rng.uniform(CONF_FLOOR, FALSE_POSITIVE_MAX_CONF))
            fp_box, _ = clamp_box(cls, float(cx), float(cy), float(w), float(h))
            dets.append((fp_box, conf))
        out.append(dets)
    return out


@dataclass
class ScoreTrace:
    """One seed's detector outputs, sufficient to replay a run.

    rounds maps acquisition round -> sequence id -> (objectness array of
    float64, predicted-count array of int64); test_metrics maps record
    round -> (map50, map5095).
    """

    rounds: dict[int, dict[str, tuple[np.ndarray, np.ndarray]]] = field(
        default_factory=dict
    )
    test_metrics: dict[int, tuple[float | None, float | None]] = field(
        default_factory=dict
    )


def _optional_float(raw: str) -> float | None:
    return float(raw) if raw else None


# (column, parser) of each trace file, in file order.
_SCORE_FIELDS = (("seed", int), ("round", int), ("sequence_id", str), ("frame_id", int),
                 ("uncertainty", float), ("pred_count", int))
_METRIC_FIELDS = (("seed", int), ("round", int), ("map50", _optional_float),
                  ("map5095", _optional_float))


def write_traces(
    traces: dict[int, ScoreTrace], scores_path: Path | str, metrics_path: Path | str
) -> None:
    """Serialize per-seed traces. Floats keep full repr precision: replay
    must reproduce bit-identical selections and records."""
    with open(scores_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in _SCORE_FIELDS])
        for seed in sorted(traces):
            trace = traces[seed]
            for rnd in sorted(trace.rounds):
                for sid in sorted(trace.rounds[rnd]):
                    objectness, counts = trace.rounds[rnd][sid]
                    for fid in range(len(objectness)):
                        writer.writerow(
                            [seed, rnd, sid, fid, repr(float(objectness[fid])), int(counts[fid])]
                        )
    with open(metrics_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in _METRIC_FIELDS])
        for seed in sorted(traces):
            trace = traces[seed]
            for rnd in sorted(trace.test_metrics):
                maps = ["" if m is None else repr(float(m)) for m in trace.test_metrics[rnd]]
                writer.writerow([seed, rnd, *maps])


def _parsed_rows(path: Path | str, fields):
    """Each data row of a trace file as a list of parsed fields. A missing
    column, a short row or an unparsable field raises TraceError naming the
    file, the line and the field."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for name, _ in fields:
            if name not in header:
                raise TraceError(f"{path} line 1: no {name} column")
        columns = [(name, header.index(name), parse) for name, parse in fields]
        for row in filter(None, reader):
            values = []
            for name, index, parse in columns:
                try:
                    values.append(parse(row[index]))
                except IndexError:
                    raise TraceError(f"{path} line {reader.line_num}: no {name} field") from None
                except ValueError:
                    raise TraceError(
                        f"{path} line {reader.line_num}: bad {name} {row[index]!r}"
                    ) from None
            yield values


def read_traces(
    scores_path: Path | str, metrics_path: Path | str
) -> dict[int, ScoreTrace]:
    """Per-seed traces from the two files write_traces writes."""
    staged: dict[tuple[int, int, str], list[tuple[int, float, int]]] = {}
    for seed, rnd, sid, fid, unc, count in _parsed_rows(scores_path, _SCORE_FIELDS):
        staged.setdefault((seed, rnd, sid), []).append((fid, unc, count))

    traces: dict[int, ScoreTrace] = {}
    for (seed, rnd, sid), rows in staged.items():
        rows.sort()
        if [r[0] for r in rows] != list(range(len(rows))):
            raise TraceError(
                f"trace rows for seed {seed} round {rnd} sequence {sid!r} "
                "do not cover frames 0..N-1"
            )
        table = traces.setdefault(seed, ScoreTrace()).rounds.setdefault(rnd, {})
        table[sid] = (
            np.array([r[1] for r in rows], dtype=float),
            np.array([r[2] for r in rows], dtype=np.int64),
        )

    for seed, rnd, m50, m5095 in _parsed_rows(metrics_path, _METRIC_FIELDS):
        traces.setdefault(seed, ScoreTrace()).test_metrics[rnd] = (m50, m5095)
    return traces
