"""Metric tests built around independent re-derivations of each quantity."""

import csv
import math
import random

import numpy as np
import pytest

from seqal.errors import DomainError, EmptyCurveError, EmptyTestError, ShapeError
from seqal.metrics import (
    MAP5095_THRESHOLDS,
    CorrelationEntry,
    CorrelationReport,
    PerfCostCurve,
    average_precision,
    car,
    correlations,
    iou,
    mean_ap,
    mean_ap_rows,
    par,
    write_correlation_csv,
)
from seqal.pool import BoundingBox

from conftest import trapezoid


def box(cx, cy, w, h, cls=0):
    return BoundingBox(cls, cx, cy, w, h)


# --- oracles -------------------------------------------------------------


def iou_oracle(a, b):
    ax0, ay0, ax1, ay1 = a.corners()
    bx0, by0, bx1, by1 = b.corners()
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    return inter / union if union > 0 else 0.0


def ap_oracle(predictions, truths, thresh):
    """Single-frame AP re-derived from the definition.

    Greedy confidence-ordered matching, then the interpolated
    precision-recall area where the precision at recall r is the best
    precision achieved at any recall >= r.
    """
    if not truths:
        return None if not predictions else 0.0
    if not predictions:
        return 0.0
    order = sorted(range(len(predictions)), key=lambda i: -predictions[i][1])
    used = [False] * len(truths)
    hits = []
    for idx in order:
        pred_box = predictions[idx][0]
        best, best_j = 0.0, -1
        for j, t in enumerate(truths):
            if used[j]:
                continue
            o = iou_oracle(pred_box, t)
            if o > best:
                best, best_j = o, j
        if best_j >= 0 and best >= thresh:
            used[best_j] = True
            hits.append(1)
        else:
            hits.append(0)
    n = len(hits)
    recalls, precisions = [], []
    tp = 0
    for k in range(n):
        tp += hits[k]
        recalls.append(tp / len(truths))
        precisions.append(tp / (k + 1))
    area = 0.0
    prev_r = 0.0
    for k in range(n):
        p_env = max(precisions[k:])
        area += (recalls[k] - prev_r) * p_env
        prev_r = recalls[k]
    return area


def ap_pooled_oracle(entries, truths_by_frame, iou_thresh):
    """Scalar pooled AP: the loop metrics used before frame batching.

    entries are (frame, box, conf); predictions only ever match truths from
    their own frame, one IoU call per (prediction, untaken truth) pair in
    global confidence order. None when there is nothing to measure.
    """
    n_truth = sum(len(v) for v in truths_by_frame.values())
    if n_truth == 0:
        return None if not entries else 0.0
    if not entries:
        return 0.0

    for _, _, conf in entries:
        if not 0.0 <= conf <= 1.0:
            raise DomainError(f"confidence {conf} outside [0, 1]")

    # Stable sort keeps insertion order among equal confidences.
    order = sorted(range(len(entries)), key=lambda i: -entries[i][2])
    taken = {frame: [False] * len(boxes) for frame, boxes in truths_by_frame.items()}

    tp = np.zeros(len(order))
    fp = np.zeros(len(order))
    for rank, idx in enumerate(order):
        frame, pred_box, _ = entries[idx]
        truth_boxes = truths_by_frame.get(frame, [])
        best_iou = 0.0
        best_j = -1
        for j, truth in enumerate(truth_boxes):
            if taken[frame][j]:
                continue
            overlap = iou_oracle(pred_box, truth)
            if overlap > best_iou:
                best_iou = overlap
                best_j = j
        if best_j >= 0 and best_iou >= iou_thresh:
            taken[frame][best_j] = True
            tp[rank] = 1.0
        else:
            fp[rank] = 1.0

    ctp = np.cumsum(tp)
    cfp = np.cumsum(fp)
    recall = ctp / n_truth
    precision = ctp / (ctp + cfp)
    # Monotone envelope, right to left.
    for i in range(len(precision) - 2, -1, -1):
        precision[i] = max(precision[i], precision[i + 1])
    ap = 0.0
    prev_recall = 0.0
    for r, p in zip(recall, precision):
        ap += (r - prev_recall) * p
        prev_recall = r
    return float(ap)


def mean_ap_oracle(predictions, truths, iou_thresholds):
    """(map50, map_mean) through ap_pooled_oracle, one class and threshold
    at a time, in the order mean_ap used before frame batching."""
    truth_classes = sorted({b.class_id for frame in truths for b in frame})
    if not truth_classes:
        raise EmptyTestError("test split has no truth boxes")
    entries = {c: [] for c in truth_classes}
    by_frame = {c: {} for c in truth_classes}
    for frame_idx, frame in enumerate(truths):
        for b in frame:
            by_frame[b.class_id].setdefault(frame_idx, []).append(b)
    for frame_idx, frame in enumerate(predictions):
        for b, conf in frame:
            if b.class_id in entries:
                entries[b.class_id].append((frame_idx, b, conf))

    def class_ap(c, thresh):
        return ap_pooled_oracle(entries[c], by_frame[c], thresh)

    map50 = sum(class_ap(c, 0.5) for c in truth_classes) / len(truth_classes)
    total = 0.0
    for c in truth_classes:
        total += sum(class_ap(c, t) for t in iou_thresholds) / len(iou_thresholds)
    return map50, total / len(truth_classes)


def random_instance(rnd):
    truths = [
        box(rnd.uniform(0.2, 0.8), rnd.uniform(0.2, 0.8), rnd.uniform(0.05, 0.3), rnd.uniform(0.05, 0.3))
        for _ in range(rnd.randint(0, 4))
    ]
    preds = []
    for _ in range(rnd.randint(0, 5)):
        if truths and rnd.random() < 0.6:
            t = rnd.choice(truths)
            b = box(
                min(max(t.cx + rnd.gauss(0, 0.03), 0.2), 0.8),
                min(max(t.cy + rnd.gauss(0, 0.03), 0.2), 0.8),
                t.w,
                t.h,
            )
        else:
            b = box(rnd.uniform(0.2, 0.8), rnd.uniform(0.2, 0.8), 0.1, 0.1)
        preds.append((b, rnd.random()))
    thresh = 0.5 + 0.05 * rnd.randint(0, 9)
    return preds, truths, thresh


def pooled_instance(rnd):
    """A random test split for mean_ap: 1-8 frames (some empty), 5 classes,
    boxes on a coarse grid so IoU ties and identical boxes are common,
    duplicated boxes, confidences from a small set so ranks tie, now and
    then one outside [0, 1], and a random sub-grid of the thresholds."""
    confs = (0.0, 0.25, 0.5, 0.5, 0.75, 1.0)
    bad_confs = (-0.25, 1.5, float("nan"))
    shifts = (-0.05, 0.0, 0.05)

    def grid_box(cls):
        w = rnd.choice((0.1, 0.2, 0.3))
        h = rnd.choice((0.1, 0.2, 0.3))
        cx = rnd.choice((0.2, 0.25, 0.3, 0.5, 0.7))
        cy = rnd.choice((0.2, 0.3, 0.5, 0.7))
        return box(cx, cy, w, h, cls)

    def conf():
        if rnd.random() < 0.01:
            return rnd.choice(bad_confs)
        return rnd.choice(confs) if rnd.random() < 0.6 else rnd.random()

    truths, preds = [], []
    for _ in range(rnd.randint(1, 8)):
        n_truths = rnd.choice((0, 0, 1, 2, 3, 5))
        frame_truths = [grid_box(rnd.randrange(5)) for _ in range(n_truths)]
        if frame_truths and rnd.random() < 0.3:
            frame_truths.append(rnd.choice(frame_truths))
        frame_preds = []
        for _ in range(rnd.choice((0, 0, 1, 2, 4, 7))):
            if frame_truths and rnd.random() < 0.6:
                t = rnd.choice(frame_truths)
                if rnd.random() < 0.5:
                    b = t
                else:
                    b = box(
                        min(max(t.cx + rnd.choice(shifts) + rnd.gauss(0, 0.01), 0.2), 0.8),
                        min(max(t.cy + rnd.choice(shifts), 0.2), 0.8),
                        t.w,
                        t.h,
                        t.class_id,
                    )
            else:
                b = grid_box(rnd.randrange(5))
            frame_preds.append((b, conf()))
            if rnd.random() < 0.15:
                frame_preds.append(frame_preds[-1])
        truths.append(frame_truths)
        preds.append(frame_preds)
    thresholds = rnd.sample(MAP5095_THRESHOLDS, rnd.randint(1, len(MAP5095_THRESHOLDS)))
    if rnd.random() < 0.5:
        thresholds.sort()
    return preds, truths, tuple(thresholds)


def outcome(fn, *args):
    """fn's result, or the class of the exception it raised."""
    try:
        return fn(*args)
    except (DomainError, EmptyTestError) as exc:
        return type(exc)


def split_rows(preds, truths):
    """A split's per-frame lists as mean_ap_rows' prediction rows (frame,
    cx, cy, w, h, conf, class) and truth rows (frame, cx, cy, w, h, class)."""
    pred_rows = [
        (i, b.cx, b.cy, b.w, b.h, conf, b.class_id) for i, f in enumerate(preds) for b, conf in f
    ]
    truth_rows = [(i, b.cx, b.cy, b.w, b.h, b.class_id) for i, f in enumerate(truths) for b in f]
    return (
        np.array(pred_rows, dtype=float).reshape(-1, 7),
        np.array(truth_rows, dtype=float).reshape(-1, 6),
    )


def riemann_car(points, budget, steps=200_000):
    pts = list(points)
    if pts[0][0] > 0:
        pts = [(0.0, pts[0][1])] + pts
    xs = [c for c, _ in pts]
    ys = [m for _, m in pts]
    upper = min(budget, xs[-1])
    if upper <= 0:
        return 0.0
    grid = np.linspace(0.0, upper, steps + 1)
    vals = np.interp(grid, xs, ys)
    return float(trapezoid(vals, grid))


def pearson_oracle(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    dx = [v - mx for v in x]
    dy = [v - my for v in y]
    sxx = sum(d * d for d in dx)
    syy = sum(d * d for d in dy)
    if sxx == 0 or syy == 0:
        return None
    sxy = sum(a * b for a, b in zip(dx, dy))
    return sxy / math.sqrt(sxx * syy)


def ranks_oracle(values):
    pairs = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(pairs):
        j = i
        while j < len(pairs) and values[pairs[j]] == values[pairs[i]]:
            j += 1
        for k in range(i, j):
            ranks[pairs[k]] = (i + 1 + j) / 2
        i = j
    return ranks


def tau_b_oracle(x, y):
    n = len(x)
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            s = (x[i] - x[j]) * (y[i] - y[j])
            if s > 0:
                concordant += 1
            elif s < 0:
                discordant += 1
    n0 = n * (n - 1) // 2

    def ties(v):
        from collections import Counter

        return sum(c * (c - 1) // 2 for c in Counter(v).values())

    denom = (n0 - ties(x)) * (n0 - ties(y))
    if denom == 0:
        return None
    return (concordant - discordant) / math.sqrt(denom)


# --- IoU -----------------------------------------------------------------


def test_iou_identical_box():
    b = box(0.5, 0.5, 0.2, 0.3)
    assert iou(b, b) == pytest.approx(1.0)


def test_iou_disjoint_and_touching():
    assert iou(box(0.2, 0.2, 0.1, 0.1), box(0.8, 0.8, 0.1, 0.1)) == 0.0
    # edges exactly touching: zero-width intersection
    assert iou(box(0.4, 0.5, 0.2, 0.2), box(0.6, 0.5, 0.2, 0.2)) == 0.0


def test_iou_one_third():
    a = box(0.5, 0.5, 0.2, 0.2)
    b = box(0.6, 0.5, 0.2, 0.2)
    assert iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_iou_symmetric_random():
    rnd = random.Random(1)
    for _ in range(50):
        a = box(rnd.uniform(0.3, 0.7), rnd.uniform(0.3, 0.7), 0.2, 0.2)
        b = box(rnd.uniform(0.3, 0.7), rnd.uniform(0.3, 0.7), 0.3, 0.1)
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0
        assert iou(a, b) == pytest.approx(iou_oracle(a, b))


def test_iou_bit_equal_to_scalar_definition():
    rnd = random.Random(7)
    for _ in range(5000):
        a, b = (
            box(rnd.uniform(0.1, 0.9), rnd.uniform(0.1, 0.9), rnd.uniform(0.01, 0.4), rnd.uniform(0.01, 0.4))
            for _ in range(2)
        )
        assert iou(a, b) == iou_oracle(a, b)
        assert type(iou(a, b)) is float


# --- average precision ---------------------------------------------------


def test_ap_worked_example():
    truths = [box(0.3, 0.3, 0.1, 0.1), box(0.7, 0.7, 0.1, 0.1)]
    preds = [
        (box(0.3, 0.3, 0.1, 0.1), 0.9),   # hit
        (box(0.5, 0.1, 0.1, 0.1), 0.8),   # miss
        (box(0.7, 0.7, 0.1, 0.1), 0.7),   # hit
    ]
    # recall steps 0.5, 0.5, 1.0; envelope precisions 1.0 and 2/3
    assert average_precision(preds, truths, 0.5) == pytest.approx(
        0.5 * 1.0 + 0.5 * (2.0 / 3.0), abs=1e-12
    )


def test_ap_empty_cases():
    assert average_precision([], [], 0.5) is None
    assert average_precision([(box(0.5, 0.5, 0.1, 0.1), 0.9)], [], 0.5) == 0.0
    assert average_precision([], [box(0.5, 0.5, 0.1, 0.1)], 0.5) == 0.0


def test_ap_rejects_bad_confidence():
    with pytest.raises(DomainError):
        average_precision(
            [(box(0.5, 0.5, 0.1, 0.1), 1.5)], [box(0.5, 0.5, 0.1, 0.1)], 0.5
        )


def test_ap_double_detection_counts_one_tp():
    t = [box(0.5, 0.5, 0.2, 0.2)]
    preds = [(box(0.5, 0.5, 0.2, 0.2), 0.9), (box(0.5, 0.5, 0.2, 0.2), 0.8)]
    # second detection of the same truth is a false positive;
    # the envelope keeps AP at 1.0 since recall tops out on the first hit
    assert average_precision(preds, t, 0.5) == pytest.approx(1.0)


def test_ap_trailing_false_positive_is_free():
    t = [box(0.5, 0.5, 0.2, 0.2)]
    base = [(box(0.5, 0.5, 0.2, 0.2), 0.9)]
    with_fp = base + [(box(0.1, 0.1, 0.05, 0.05), 0.1)]
    assert average_precision(with_fp, t, 0.5) == average_precision(base, t, 0.5)


def test_ap_leading_false_positive_costs():
    t = [box(0.5, 0.5, 0.2, 0.2)]
    preds = [(box(0.1, 0.1, 0.05, 0.05), 0.9), (box(0.5, 0.5, 0.2, 0.2), 0.8)]
    assert average_precision(preds, t, 0.5) == pytest.approx(0.5)


def test_ap_matches_oracle_randomized():
    rnd = random.Random(99)
    for _ in range(200):
        preds, truths, thresh = random_instance(rnd)
        got = average_precision(preds, truths, thresh)
        want = ap_oracle(preds, truths, thresh)
        if want is None:
            assert got is None
        else:
            assert got == want, (preds, truths, thresh)


def test_ap_matches_scalar_oracle_randomized():
    rnd = random.Random(2024)
    for _ in range(2000):
        preds, truths, _ = pooled_instance(rnd)
        flat_preds = [p for frame in preds for p in frame]
        flat_truths = [t for frame in truths for t in frame]
        thresh = 0.5 + 0.05 * rnd.randint(0, 9)
        got = outcome(average_precision, flat_preds, flat_truths, thresh)
        want = outcome(
            ap_pooled_oracle, [(0, b, c) for b, c in flat_preds], {0: flat_truths}, thresh
        )
        assert got == want, (flat_preds, flat_truths, thresh)


# --- mean AP -------------------------------------------------------------


def frame_sets(pairs):
    """pairs: list of (preds, truths) per frame."""
    return [p for p, _ in pairs], [t for _, t in pairs]


def test_mean_ap_perfect_predictions():
    truths = [
        [box(0.3, 0.3, 0.1, 0.1, cls=0), box(0.7, 0.7, 0.1, 0.1, cls=2)],
        [box(0.5, 0.5, 0.2, 0.2, cls=0)],
    ]
    preds = [[(b, 0.9) for b in frame] for frame in truths]
    m50, m5095 = mean_ap(preds, truths)
    assert m50 == pytest.approx(1.0)
    assert m5095 == pytest.approx(1.0)


def test_mean_ap_class_without_truth_is_excluded():
    truths = [[box(0.3, 0.3, 0.1, 0.1, cls=0)]]
    preds = [
        [
            (box(0.3, 0.3, 0.1, 0.1, cls=0), 0.9),
            (box(0.7, 0.7, 0.1, 0.1, cls=3), 0.9),  # class 3 never in truths
        ]
    ]
    m50, _ = mean_ap(preds, truths)
    assert m50 == pytest.approx(1.0)


def test_mean_ap_matches_cross_frame_only_within_frame():
    t = box(0.5, 0.5, 0.2, 0.2)
    truths = [[], [t]]
    preds = [[(t, 0.9)], []]  # right box, wrong frame
    m50, _ = mean_ap(preds, truths)
    assert m50 == 0.0


def test_mean_ap_map50_fixed_even_for_other_grids():
    truths = [[box(0.5, 0.5, 0.2, 0.2)]]
    # detection overlaps at IoU ~0.68: a hit at 0.5, a miss at 0.75
    shifted = box(0.55, 0.5, 0.2, 0.2)
    preds = [[(shifted, 0.9)]]
    assert iou(shifted, truths[0][0]) > 0.5
    assert iou(shifted, truths[0][0]) < 0.75
    m50, m_high = mean_ap(preds, truths, iou_thresholds=(0.75,))
    assert m50 == pytest.approx(1.0)
    assert m_high == pytest.approx(0.0)


def test_mean_ap_pools_across_frames():
    # one class, two frames; the low-confidence miss in frame 2 ranks below
    # the frame-1 hit, so pooling gives AP 0.5 at IoU 0.5 for the class
    truths = [[box(0.3, 0.3, 0.1, 0.1)], [box(0.7, 0.7, 0.1, 0.1)]]
    preds = [
        [(box(0.3, 0.3, 0.1, 0.1), 0.9)],
        [(box(0.1, 0.1, 0.05, 0.05), 0.5)],
    ]
    m50, _ = mean_ap(preds, truths)
    assert m50 == pytest.approx(0.5)


def test_mean_ap_validation():
    with pytest.raises(ShapeError, match=r"^1 prediction frames vs 2 truth frames$"):
        mean_ap([[]], [[], []])
    with pytest.raises(EmptyTestError, match="^no test frames$"):
        mean_ap([], [])
    with pytest.raises(EmptyTestError, match="^test split has no truth boxes$"):
        mean_ap([[], []], [[], []])
    truths = [[box(0.5, 0.5, 0.2, 0.2)]]
    off_grid = r"^iou threshold 0\.62 outside the 0\.50\.\.0\.95 grid$"
    with pytest.raises(DomainError, match=off_grid):
        mean_ap([[]], truths, iou_thresholds=(0.62,))
    with pytest.raises(DomainError, match="^need at least one iou threshold$"):
        mean_ap([[]], truths, iou_thresholds=())
    with pytest.raises(DomainError, match=r"^confidence 1\.5 outside \[0, 1\]$"):
        mean_ap([[(box(0.5, 0.5, 0.2, 0.2), 1.5)]], truths)


def test_mean_ap_rows_validation():
    # The row core raises what mean_ap raises, with the same messages.
    preds, truths = split_rows([[(box(0.5, 0.5, 0.2, 0.2), 0.5)]], [[box(0.5, 0.5, 0.2, 0.2)]])
    with pytest.raises(EmptyTestError, match="^test split has no truth boxes$"):
        mean_ap_rows(preds, np.zeros((0, 6)))
    off_grid = r"^iou threshold 0\.62 outside the 0\.50\.\.0\.95 grid$"
    with pytest.raises(DomainError, match=off_grid):
        mean_ap_rows(preds, truths, iou_thresholds=(0.62,))
    with pytest.raises(DomainError, match="^need at least one iou threshold$"):
        mean_ap_rows(preds, truths, iou_thresholds=())
    preds[0, 5] = float("nan")
    with pytest.raises(DomainError, match=r"^confidence nan outside \[0, 1\]$"):
        mean_ap_rows(preds, truths)
    assert mean_ap_rows(np.zeros((0, 7)), truths) == (0.0, 0.0)


def test_mean_ap_matches_scalar_oracle_randomized():
    rnd = random.Random(606)
    kinds = set()
    for _ in range(2500):
        preds, truths, thresholds = pooled_instance(rnd)
        got = outcome(mean_ap, preds, truths, thresholds)
        want = outcome(mean_ap_oracle, preds, truths, thresholds)
        assert got == want, (preds, truths, thresholds)
        assert outcome(mean_ap_rows, *split_rows(preds, truths), thresholds) == want
        if isinstance(got, tuple):
            assert all(type(v) is float for v in got)
        kinds.add(want if isinstance(want, type) else tuple)
    # the generator reaches values and both error cases
    assert kinds == {tuple, DomainError, EmptyTestError}


def test_mean_ap_class_means_add_left_to_right():
    """Ten classes, each with one truth and nine higher-ranked false
    positives, so every class AP is exactly 0.1 at every threshold. Added
    left to right, ten 0.1s make 0.9999999999999999; math.fsum (and the
    builtin sum from Python 3.12 on) makes 1.0."""
    truths, preds = [], []
    for c in range(10):
        truth = box(0.5, 0.5, 0.2, 0.2, c)
        truths.append([truth])
        misses = [(box(0.1, 0.1, 0.05, 0.05, c), 0.5 + 0.01 * k) for k in range(9)]
        preds.append(misses + [(truth, 0.1)])
    thresholds = (0.5, 0.75, 0.95)
    class_ap = [
        [average_precision(p, t, th) for th in thresholds] for p, t in zip(preds, truths)
    ]
    assert {ap for row in class_ap for ap in row} == {0.1}

    def left_to_right_mean(values):
        total = 0.0
        for v in values:
            total += v
        return total / len(values)

    map50, map5095 = mean_ap(preds, truths, thresholds)
    assert map50 == left_to_right_mean([row[0] for row in class_ap])
    assert map5095 == left_to_right_mean([left_to_right_mean(row) for row in class_ap])
    assert map50 != math.fsum(row[0] for row in class_ap) / len(class_ap)
    assert map5095 != math.fsum(math.fsum(row) / 3 for row in class_ap) / len(class_ap)


def test_map5095_grid():
    assert len(MAP5095_THRESHOLDS) == 10
    assert MAP5095_THRESHOLDS[0] == 0.5
    assert MAP5095_THRESHOLDS[-1] == pytest.approx(0.95)


# --- performance-cost curves ---------------------------------------------


def test_curve_validation():
    with pytest.raises(DomainError):
        PerfCostCurve([(1.0, 0.5), (1.0, 0.6)])
    with pytest.raises(DomainError):
        PerfCostCurve([(2.0, 0.5), (1.0, 0.6)])
    with pytest.raises(DomainError):
        PerfCostCurve([(1.0, 1.5)])
    with pytest.raises(DomainError):
        PerfCostCurve([(-1.0, 0.5)])
    for cost in (float("nan"), float("inf")):
        with pytest.raises(DomainError, match="negative or not finite"):
            PerfCostCurve([(0.0, 0.5), (cost, 0.6)])


def test_from_points_collapses_equal_costs_keeping_last():
    curve = PerfCostCurve.from_points([(1.0, 0.2), (1.0, 0.5), (2.0, 0.6)])
    assert curve.points == [(1.0, 0.5), (2.0, 0.6)]


def test_curve_extremes():
    curve = PerfCostCurve([(1.0, 0.4), (2.0, 0.3), (5.0, 0.9)])
    assert curve.points[-1][0] == 5.0
    assert curve.max_map == 0.9
    with pytest.raises(EmptyCurveError):
        PerfCostCurve().max_map


def test_car_worked_example():
    curve = PerfCostCurve([(1.0, 0.2), (3.0, 0.6)])
    # flat extension to cost 0, then the trapezoid
    assert car(curve, 3.0) == pytest.approx(0.2 + 0.5 * (0.2 + 0.6) * 2.0, abs=1e-12)
    assert car(curve, 2.0) == pytest.approx(0.2 + 0.5 * (0.2 + 0.4) * 1.0, abs=1e-12)
    assert car(curve, 0.5) == pytest.approx(0.1, abs=1e-12)


def test_car_truncates_past_curve_silently():
    curve = PerfCostCurve([(1.0, 0.2), (3.0, 0.6)])
    assert car(curve, 100.0) == car(curve, 3.0)


def test_car_zero_budget_and_errors():
    curve = PerfCostCurve([(1.0, 0.2)])
    assert car(curve, 0.0) == 0.0
    with pytest.raises(DomainError):
        car(curve, -1.0)
    with pytest.raises(DomainError, match="got nan$"):
        car(PerfCostCurve([(1.0, 0.2), (3.0, 0.6)]), float("nan"))
    with pytest.raises(EmptyCurveError):
        car(PerfCostCurve(), 1.0)


def test_car_additive_over_budget_splits():
    curve = PerfCostCurve([(1.0, 0.1), (2.5, 0.7), (4.0, 0.8)])
    whole = car(curve, 4.0)
    assert car(curve, 1.7) <= whole
    # area over [0, b2] = area over [0, b1] plus the strip between budgets
    strip = riemann_car(curve.points, 4.0) - riemann_car(curve.points, 1.7)
    assert whole - car(curve, 1.7) == pytest.approx(strip, abs=1e-7)


def test_car_against_riemann_oracle():
    rnd = random.Random(17)
    for _ in range(10):
        n = rnd.randint(1, 6)
        costs = sorted(rnd.uniform(0.2, 9.0) for _ in range(n))
        while len(set(costs)) != n:
            costs = sorted(rnd.uniform(0.2, 9.0) for _ in range(n))
        pts = [(c, rnd.uniform(0.0, 1.0)) for c in costs]
        curve = PerfCostCurve(pts)
        for budget in (0.5, costs[-1] / 2, costs[-1], costs[-1] + 1):
            assert car(curve, budget) == pytest.approx(
                riemann_car(pts, budget), abs=1e-7
            )


def test_par_worked_example():
    curve = PerfCostCurve([(1.0, 0.5), (9.0, 1.0)])
    # levels below the starting mAP are free; above, cost climbs 1 -> 9
    assert par(curve, 1.0) == pytest.approx(0.5 * (1.0 + 9.0) * 0.5, abs=1e-12)
    assert par(curve, 0.5) == 0.0
    assert par(curve, 0.75) == pytest.approx(0.5 * (1.0 + 5.0) * 0.25, abs=1e-12)


def test_par_dip_uses_first_crossing():
    curve = PerfCostCurve([(1.0, 0.5), (2.0, 0.3), (3.0, 0.8)])
    # the dip never un-achieves 0.5; levels in (0.5, 0.8] cost 2.4 -> 3.0
    expected = 0.5 * (2.4 + 3.0) * 0.3
    assert par(curve, 0.8) == pytest.approx(expected, abs=1e-12)


def test_par_truncation_warns():
    curve = PerfCostCurve([(1.0, 0.5), (3.0, 0.8)])
    with pytest.warns(UserWarning):
        past = par(curve, 0.95)
    assert past == pytest.approx(par(curve, 0.8), abs=1e-12)


def test_par_validation():
    curve = PerfCostCurve([(1.0, 0.5)])
    assert par(curve, 0.0) == 0.0
    with pytest.raises(DomainError):
        par(curve, -0.1)
    with pytest.raises(DomainError):
        par(curve, 1.1)
    with pytest.raises(EmptyCurveError):
        par(PerfCostCurve(), 0.5)


def test_par_monotone_in_budget():
    curve = PerfCostCurve([(1.0, 0.3), (2.0, 0.2), (4.0, 0.9), (5.0, 0.7)])
    budgets = [0.1 * k for k in range(10)]
    values = [par(curve, b) for b in budgets]
    assert values == sorted(values)


# --- correlations --------------------------------------------------------


def test_correlations_linear():
    e = correlations([1, 2, 3, 4, 5], [2, 4, 6, 8, 10])
    assert e.pearson == pytest.approx(1.0)
    assert e.spearman == pytest.approx(1.0)
    assert e.kendall_tau_b == pytest.approx(1.0)
    inv = correlations([1, 2, 3, 4, 5], [10, 8, 6, 4, 2])
    assert inv.pearson == pytest.approx(-1.0)
    assert inv.kendall_tau_b == pytest.approx(-1.0)


def test_kendall_worked_example():
    # one swapped neighbour pair among four: (5 - 1) / 6
    e = correlations([1, 2, 3, 4], [1, 3, 2, 4])
    assert e.kendall_tau_b == pytest.approx(4.0 / 6.0, abs=1e-12)


def test_correlations_with_ties_match_oracles():
    x = [1.0, 1.0, 2.0, 3.0, 3.0, 4.0]
    y = [1.0, 2.0, 2.0, 3.0, 5.0, 5.0]
    e = correlations(x, y)
    assert e.pearson == pearson_oracle(x, y)
    assert e.spearman == pearson_oracle(ranks_oracle(x), ranks_oracle(y))
    assert e.kendall_tau_b == tau_b_oracle(x, y)


def test_correlations_exact_on_integer_permutations():
    rnd = random.Random(23)
    base = list(range(1, 9))
    for _ in range(20):
        x = base[:]
        y = base[:]
        rnd.shuffle(x)
        rnd.shuffle(y)
        e = correlations(x, y)
        assert e.pearson == pearson_oracle(x, y)
        assert e.spearman == pearson_oracle(ranks_oracle(x), ranks_oracle(y))
        assert e.kendall_tau_b == tau_b_oracle(x, y)


def test_rank_correlations_invariant_under_monotone_transform():
    rnd = random.Random(4)
    x = [rnd.uniform(0, 5) for _ in range(12)]
    y = [rnd.uniform(0, 5) for _ in range(12)]
    e = correlations(x, y)
    f = correlations([math.exp(v) for v in x], [v**3 for v in y])
    assert f.spearman == pytest.approx(e.spearman, abs=1e-12)
    assert f.kendall_tau_b == pytest.approx(e.kendall_tau_b, abs=1e-12)


def test_correlations_zero_variance_gives_none():
    e = correlations([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    assert e.pearson is None
    assert e.spearman is None
    assert e.kendall_tau_b is None


def test_correlations_validation():
    with pytest.raises(ShapeError):
        correlations([1, 2], [1, 2, 3])
    with pytest.raises(DomainError):
        correlations([1], [1])
    with pytest.raises(DomainError):
        correlations([1.0, float("nan")], [1.0, 2.0])


def test_write_correlation_csv(tmp_path):
    report = CorrelationReport(
        entries={
            "cost_vs_length": CorrelationEntry(0.5, 0.25, None),
            "cost_vs_boxes": CorrelationEntry(None, None, None),
        }
    )
    path = tmp_path / "corr.csv"
    write_correlation_csv(report, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["pair"] for r in rows] == ["cost_vs_boxes", "cost_vs_length"]
    assert rows[1]["pearson"] == "0.500000"
    assert rows[1]["kendall_tau_b"] == ""
    assert rows[0]["pearson"] == ""
