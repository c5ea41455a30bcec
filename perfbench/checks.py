"""Output checks for the benchmark's workloads.

Each check compares a run's CSV files with a computation made here, apart
from the program, or with a property the method must have; none compares
with stored output. Every function returns a list of problems, empty when
the outputs pass. Floats in the CSV files carry six decimals, hence TOL.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

from seqal import surrogate
from seqal.pool import PoolState
from seqal.surrogate import SurrogateState

import workloads

TOL = 1e-6
DETECTOR_GFLOPS_PER_FRAME = 4.1
FLOW_GFLOPS_PER_PAIR = 30.54
MIN_BOX_PIXELS = 50
REFERENCE_RESOLUTION = 640


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(got: str, want: float) -> bool:
    return abs(float(got) - want) <= TOL + 1e-12 * abs(want)


def drop_small_boxes(pool: PoolState) -> None:
    """The evaluation filter: a box goes when both sides fall under
    MIN_BOX_PIXELS at REFERENCE_RESOLUTION."""
    def small(b) -> bool:
        return b.w * REFERENCE_RESOLUTION < MIN_BOX_PIXELS and b.h * REFERENCE_RESOLUTION < MIN_BOX_PIXELS

    for seq in pool.sequences.values():
        for frame in seq.frames:
            frame.boxes = [b for b in frame.boxes if not small(b)]


def _binary_entropy(p: np.ndarray) -> np.ndarray:
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        return -(np.where(p > 0, p * np.log(p), 0.0) + np.where(q > 0, q * np.log(q), 0.0))


def _iou(a, b) -> float:
    iw = min(a.cx + a.w / 2, b.cx + b.w / 2) - max(a.cx - a.w / 2, b.cx - b.w / 2)
    ih = min(a.cy + a.h / 2, b.cy + b.h / 2) - max(a.cy - a.h / 2, b.cy - b.h / 2)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.w * a.h + b.w * b.h - inter)


def brute_force_map50(preds, truths) -> float:
    """Class-mean AP at IoU 0.5, by the greedy rule: predictions of a class,
    pooled over frames, go in falling confidence (stable), each taking the
    unmatched truth of its own frame and class with the highest IoU; AP is
    the all-point-interpolated area under the precision envelope."""
    classes = sorted({b.class_id for frame in truths for b in frame})
    aps = []
    for c in classes:
        n_truth = sum(1 for frame in truths for b in frame if b.class_id == c)
        entries = [
            (conf, fi, box)
            for fi, frame in enumerate(preds)
            for box, conf in frame
            if box.class_id == c
        ]
        entries.sort(key=lambda e: -e[0])
        taken = set()
        precision, recall = [], []
        hits = 0
        for rank, (_, fi, box) in enumerate(entries, start=1):
            best, best_j = 0.0, None
            for j, truth in enumerate(truths[fi]):
                if truth.class_id != c or (fi, j) in taken:
                    continue
                overlap = _iou(box, truth)
                if overlap > best:
                    best, best_j = overlap, j
            if best_j is not None and best >= 0.5:
                taken.add((fi, best_j))
                hits += 1
            precision.append(hits / rank)
            recall.append(hits / n_truth)
        for i in range(len(precision) - 2, -1, -1):
            precision[i] = max(precision[i], precision[i + 1])
        ap, prev = 0.0, 0.0
        for r, p in zip(recall, precision):
            ap += (r - prev) * p
            prev = r
        aps.append(ap)
    return sum(aps) / len(aps)


def check_entropy(pool: PoolState, seed: int, run_dir: Path) -> list[str]:
    """pool: generated apart from the run, not yet filtered."""
    errors = []
    records = _rows(run_dir / "records.csv")
    picks = [r["selected_ids"].split(";") for r in records]
    train = set(pool.train_ids)
    frames = {sid: seq.n_frames for sid, seq in pool.sequences.items()}
    costs = {sid: seq.meta.cost_hours for sid, seq in pool.sequences.items()}

    objectness = defaultdict(list)
    for row in _rows(run_dir / "trace.csv"):
        objectness[int(row["round"]), row["sequence_id"]].append(float(row["uncertainty"]))
    mean_entropy = defaultdict(dict)
    for (rnd, sid), values in objectness.items():
        mean_entropy[rnd][sid] = float(_binary_entropy(np.array(values)).mean())

    cfg = workloads.entropy_config(seed)
    if [int(r["round"]) for r in records] != list(range(cfg.rounds + 1)):
        return [f"records rounds {[r['round'] for r in records]}, want 0..{cfg.rounds}"]
    labeled: list[str] = []
    cum_cost = cum_over = 0.0
    for rnd, (rec, picked) in enumerate(zip(records, picks)):
        unlabeled = train - set(labeled)
        if rnd == 0:
            if len(set(picked)) != cfg.seed_sequences or not set(picked) <= train:
                errors.append(f"round 0 seed picks {picked} are not distinct train ids")
        else:
            scores = mean_entropy.get(rnd, {})
            if set(scores) != unlabeled:
                errors.append(f"round {rnd}: trace scores {len(scores)} sequences, not the unlabeled set")
                continue
            # The 1e-12 absorbs numpy's summation order against the
            # program's per-frame float sum; ties go to the smaller id.
            best = max(scores.values())
            want = min(s for s, v in scores.items() if v >= best - 1e-12)
            if picked != [want]:
                errors.append(f"round {rnd}: picked {picked}, highest mean entropy is {want}")
        labeled += picked
        cum_cost += sum(costs[s] for s in picked)
        cum_over += DETECTOR_GFLOPS_PER_FRAME * sum(frames[s] for s in train - set(labeled))
        if not _close(rec["cum_cost_hours"], cum_cost):
            errors.append(f"round {rnd}: cum_cost_hours {rec['cum_cost_hours']}, want {cum_cost:.6f}")
        if not _close(rec["cum_overhead_gflops"], cum_over):
            errors.append(
                f"round {rnd}: cum_overhead_gflops {rec['cum_overhead_gflops']}, want {cum_over:.6f}"
            )

    drop_small_boxes(pool)
    features, sigma = surrogate.pool_feature_table(pool)
    state = SurrogateState(
        round_index=len(records) - 1,
        labeled_features=[features[s] for s in labeled],
        kappa=cfg.kappa,
        noise_seed=seed,
        sigma=sigma,
        features=features,
    )
    preds, truths = [], []
    for sid in pool.test_ids:
        seq = pool.sequences[sid]
        preds.extend(surrogate.predict_test(state, seq))
        truths.extend(f.boxes for f in seq.frames)
    want = brute_force_map50(preds, truths)
    if not _close(records[-1]["map50"], want):
        errors.append(f"final map50 {records[-1]['map50']}, brute force gives {want:.6f}")
    return errors


def check_gauss(pool: PoolState, seed: int, live: Path, replay: Path) -> list[str]:
    errors = [
        f"replay {name} differs from the live run's"
        for name in ("records.csv", "ledger.csv")
        if (live / name).read_bytes() != (replay / name).read_bytes()
    ]
    cfg = workloads.gauss_config(seed)
    seqs = pool.sequences
    train = set(pool.train_ids)
    by_seed = defaultdict(list)
    for row in _rows(live / "ledger.csv"):
        by_seed[int(row["seed"])].append(row)
    if sorted(by_seed) != list(cfg.seeds):
        errors.append(f"ledger holds seeds {sorted(by_seed)}, want {list(cfg.seeds)}")
    for s, rows in by_seed.items():
        if [int(r["round"]) for r in rows] != list(range(cfg.rounds + 1)):
            errors.append(f"seed {s}: ledger rounds are not 0..{cfg.rounds}")
            continue
        labeled: set[tuple[str, int]] = set()
        cum = 0.0
        for rnd, row in enumerate(rows):
            names = row["selected_ids"].split(";")
            if rnd == 0:
                if len(set(names)) != cfg.seed_sequences or not set(names) <= train:
                    errors.append(f"seed {s}: seed picks {names} are not distinct train ids")
                    break
                taken = [(sid, fid) for sid in names for fid in range(seqs[sid].n_frames)]
                cost = sum(seqs[sid].meta.cost_hours for sid in names)
            else:
                taken = [(sid, int(fid)) for sid, fid in (n.split(":") for n in names)]
                if len(taken) != cfg.frames_per_round or len(set(taken)) != len(taken):
                    errors.append(
                        f"seed {s} round {rnd}: {len(set(taken))} distinct frames, "
                        f"want {cfg.frames_per_round}"
                    )
                if any(sid not in train or not 0 <= fid < seqs[sid].n_frames for sid, fid in taken):
                    errors.append(f"seed {s} round {rnd}: a frame outside the train split")
                    break
                if labeled & set(taken):
                    errors.append(f"seed {s} round {rnd}: relabels {sorted(labeled & set(taken))[:3]}")
                rate = cfg.interpolation_rate
                cost = sum(
                    seqs[sid].meta.cost_hours / math.ceil(seqs[sid].n_frames / rate)
                    for sid, fid in taken
                    if fid % rate == 0
                )
            labeled |= set(taken)
            cum += cost
            if not (_close(row["round_cost_h"], cost) and _close(row["cum_cost_h"], cum)):
                errors.append(
                    f"seed {s} round {rnd}: charged {row['round_cost_h']} "
                    f"(cum {row['cum_cost_h']}), want {cost:.6f} (cum {cum:.6f})"
                )
    return errors


def motion_totals(pool: PoolState) -> dict[str, int]:
    """Total motion per train sequence from one |diff| over all its frames'
    rasters stacked end to end; pairs that straddle two sequences are cut."""
    ids = pool.train_ids
    lengths = [pool.sequences[sid].n_frames for sid in ids]
    stack = np.stack(
        [f.raster for sid in ids for f in pool.sequences[sid].frames]
    ).astype(np.int64)
    per_pair = np.abs(np.diff(stack, axis=0)).sum(axis=(1, 2))
    starts = np.cumsum([0] + lengths[:-1])
    return {
        sid: int(per_pair[s : s + n - 1].sum()) for sid, s, n in zip(ids, starts, lengths)
    }


def check_motion(pool: PoolState, seed: int, run_dir: Path, loaded: dict) -> list[str]:
    errors = []
    frames = sum(s.n_frames for s in pool.sequences.values())
    if loaded["frames"] != frames:
        errors.append(f"loaded pool has {loaded['frames']} frames, generated {frames}")
    costs = {sid: s.meta.cost_hours for sid, s in pool.sequences.items()}
    if set(loaded["costs"]) != set(costs) or any(
        abs(loaded["costs"][sid] - cost) > 5e-7 + 1e-12 for sid, cost in costs.items()
    ):
        errors.append("loaded manifest costs differ from the generated pool's")

    train = set(pool.train_ids)
    overhead = FLOW_GFLOPS_PER_PAIR * pool.total_train_frames()
    totals = motion_totals(pool)
    by_seed = defaultdict(list)
    for rec in _rows(run_dir / "records.csv"):
        by_seed[int(rec["seed"])].append(rec)
    if sorted(by_seed) != list(workloads.experiment_seeds(workloads.MOTION, seed)):
        errors.append(f"records hold seeds {sorted(by_seed)}")
    for s, recs in by_seed.items():
        if [int(r["round"]) for r in recs] != list(range(workloads.ROUNDS + 1)):
            errors.append(f"seed {s}: records rounds are not 0..{workloads.ROUNDS}")
            continue
        labeled: set[str] = set()
        for rnd, rec in enumerate(recs):
            picked = rec["selected_ids"].split(";")
            if not _close(rec["cum_overhead_gflops"], overhead):
                errors.append(f"seed {s} round {rnd}: overhead {rec['cum_overhead_gflops']}")
            unlabeled = sorted(train - labeled)
            if rnd == 0:
                if len(set(picked)) != len(picked) or not set(picked) <= train:
                    errors.append(f"seed {s}: seed picks {picked}")
            else:
                sign = 1 if rnd % 2 else -1  # odd rounds: most motion
                want = min(unlabeled, key=lambda sid: (-sign * totals[sid], sid))
                if picked != [want]:
                    errors.append(f"seed {s} round {rnd}: picked {picked}, want {want}")
            labeled |= set(picked)
    return errors
