"""Detection quality and performance-cost analysis.

Evaluation side: IoU, average precision with all-point interpolation, and
pooled mAP over a test split. Analysis side: piecewise-linear
performance-cost curves with budgeted area metrics (cost-budgeted area and
performance-budgeted area), plus correlation coefficients (Pearson,
Spearman, Kendall tau-b) used by the cost study.

Correlation routines are written out here instead of delegating to a stats
package so the tie handling and the exact arithmetic shape are pinned down
by the tests in this repository.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, EmptyCurveError, EmptyTestError, ShapeError
from .pool import BoundingBox

MAP5095_THRESHOLDS = (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)

Prediction = tuple[BoundingBox, float]


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two center-format boxes."""
    ax0, ay0, ax1, ay1 = a.corners()
    bx0, by0, bx1, by1 = b.corners()
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    if union <= 0:
        return 0.0
    return inter / union


def _ap_pooled(
    entries: list[tuple[int, BoundingBox, float]],
    truths_by_frame: dict[int, list[BoundingBox]],
    iou_thresh: float,
) -> float | None:
    """All-point-interpolated AP over a pool of frame-keyed predictions.

    Predictions only ever match truths from their own frame. Returns None
    when there is nothing to measure (no truths and no predictions).
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
        frame, box, _ = entries[idx]
        truth_boxes = truths_by_frame.get(frame, [])
        best_iou = 0.0
        best_j = -1
        for j, truth in enumerate(truth_boxes):
            if taken[frame][j]:
                continue
            overlap = iou(box, truth)
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


def average_precision(
    predictions: Sequence[Prediction],
    truths: Sequence[BoundingBox],
    iou_thresh: float,
) -> float | None:
    """AP for a single frame; None when both sides are empty."""
    entries = [(0, box, conf) for box, conf in predictions]
    return _ap_pooled(entries, {0: list(truths)}, iou_thresh)


def check_thresholds(iou_thresholds: Sequence[float]) -> None:
    """A non-empty list of thresholds on the 0.50..0.95 grid, step 0.05."""
    if not iou_thresholds:
        raise DomainError("need at least one iou threshold")
    for t in iou_thresholds:
        steps = (t - 0.5) / 0.05
        if not (-1e-9 <= steps <= 9 + 1e-9 and abs(steps - round(steps)) < 1e-9):
            raise DomainError(f"iou threshold {t} outside the 0.50..0.95 grid")


def mean_ap(
    predictions: Sequence[Sequence[Prediction]],
    truths: Sequence[Sequence[BoundingBox]],
    iou_thresholds: Sequence[float] = MAP5095_THRESHOLDS,
) -> tuple[float, float]:
    """Pooled (map50, map_mean) over a test split.

    predictions[i] and truths[i] belong to frame i. Boxes are pooled per
    class across every frame before AP, map50 is the class mean at IoU 0.5
    and the second value averages classes over iou_thresholds. Classes
    without any truth box are left out entirely.
    """
    if len(predictions) != len(truths):
        raise ShapeError(
            f"{len(predictions)} prediction frames vs {len(truths)} truth frames"
        )
    check_thresholds(iou_thresholds)
    if not truths:
        raise EmptyTestError("no test frames")

    truth_classes = sorted({b.class_id for frame in truths for b in frame})
    if not truth_classes:
        raise EmptyTestError("test split has no truth boxes")

    per_class_entries: dict[int, list[tuple[int, BoundingBox, float]]] = {
        c: [] for c in truth_classes
    }
    per_class_truths: dict[int, dict[int, list[BoundingBox]]] = {
        c: {} for c in truth_classes
    }
    for frame_idx, frame in enumerate(truths):
        for box in frame:
            per_class_truths[box.class_id].setdefault(frame_idx, []).append(box)
    for frame_idx, frame in enumerate(predictions):
        for box, conf in frame:
            if box.class_id in per_class_entries:
                per_class_entries[box.class_id].append((frame_idx, box, conf))

    def class_ap(c: int, thresh: float) -> float:
        ap = _ap_pooled(per_class_entries[c], per_class_truths[c], thresh)
        # The class has truths by construction, so AP is never None here.
        assert ap is not None
        return ap

    map50 = sum(class_ap(c, 0.5) for c in truth_classes) / len(truth_classes)
    total = 0.0
    for c in truth_classes:
        total += sum(class_ap(c, t) for t in iou_thresholds) / len(iou_thresholds)
    return map50, total / len(truth_classes)


@dataclass
class PerfCostCurve:
    """Piecewise-linear mAP versus cumulative cost; costs strictly increase."""

    points: list[tuple[float, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        prev = None
        for cost, value in self.points:
            if not 0.0 <= value <= 1.0:
                raise DomainError(f"map value {value} outside [0, 1]")
            if cost < 0:
                raise DomainError(f"negative cost {cost}")
            if prev is not None and cost <= prev:
                raise DomainError("curve costs must strictly increase")
            prev = cost

    @classmethod
    def from_points(cls, pairs: Iterable[tuple[float, float]]) -> "PerfCostCurve":
        """Build a curve, collapsing runs of equal cost to their last point."""
        collapsed: list[tuple[float, float]] = []
        for cost, value in pairs:
            if collapsed and collapsed[-1][0] == cost:
                collapsed[-1] = (cost, value)
            else:
                collapsed.append((cost, value))
        return cls(points=collapsed)

    @property
    def max_map(self) -> float:
        if not self.points:
            raise EmptyCurveError("curve has no points")
        return max(v for _, v in self.points)


def car(curve: PerfCostCurve, budget: float) -> float:
    """Area under the curve up to a cost budget (hours · mAP).

    The curve is held constant to the left of its first point; to the right
    it simply ends, so budgets past the last point integrate only to there.
    """
    if budget < 0:
        raise DomainError(f"cost budget must be >= 0, got {budget}")
    if not curve.points:
        raise EmptyCurveError("curve has no points")
    if budget == 0:
        return 0.0

    pts = list(curve.points)
    if pts[0][0] > 0:
        pts.insert(0, (0.0, pts[0][1]))
    upper = min(budget, pts[-1][0])
    total = 0.0
    for (c0, m0), (c1, m1) in zip(pts, pts[1:]):
        lo = c0
        hi = min(c1, upper)
        if hi <= lo:
            continue
        span = c1 - c0
        v_lo = m0 + (m1 - m0) * (lo - c0) / span
        v_hi = m0 + (m1 - m0) * (hi - c0) / span
        total += 0.5 * (v_lo + v_hi) * (hi - lo)
        if hi >= upper:
            break
    return total


def _envelope_pieces(
    pts: list[tuple[float, float]],
) -> list[tuple[float, float, float, float]]:
    """Linear pieces (p_lo, p_hi, cost_lo, cost_hi) of the first-crossing
    cost of each performance level p.

    Performance up to the starting mAP costs nothing (the curve is held
    constant to the left of its first point). After that, only segments
    that push past the running best contribute; dips and re-crossings never
    move an already-achieved level.
    """
    pieces = [(0.0, pts[0][1], 0.0, 0.0)]
    best = pts[0][1]
    for (c0, m0), (c1, m1) in zip(pts, pts[1:]):
        if m1 <= best:
            continue
        # Cost at which this segment passes the current best.
        slope = (c1 - c0) / (m1 - m0)
        cost_at_best = c0 + (best - m0) * slope
        pieces.append((best, m1, cost_at_best, c1))
        best = m1
    return pieces


def par(curve: PerfCostCurve, perf_budget: float) -> float:
    """Integral of first-crossing cost over performance levels up to
    perf_budget (mAP · hours).

    Budgets past the best achieved mAP truncate there, with a warning.
    """
    if not 0.0 <= perf_budget <= 1.0:
        raise DomainError(f"performance budget must be in [0, 1], got {perf_budget}")
    if not curve.points:
        raise EmptyCurveError("curve has no points")
    if perf_budget == 0:
        return 0.0

    best = curve.max_map
    upper = perf_budget
    if perf_budget > best:
        warnings.warn(
            f"performance budget {perf_budget} exceeds best achieved mAP {best}; "
            "integrating to the achieved maximum",
            stacklevel=2,
        )
        upper = best

    total = 0.0
    for p0, p1, k0, k1 in _envelope_pieces(curve.points):
        if p1 <= p0:
            continue
        hi = min(p1, upper)
        if hi <= p0:
            break
        k_hi = k0 + (k1 - k0) * (hi - p0) / (p1 - p0)
        total += 0.5 * (k0 + k_hi) * (hi - p0)
        if hi >= upper:
            break
    return total


@dataclass
class CorrelationEntry:
    """One variable pair; None marks a coefficient undefined for the data."""

    pearson: float | None
    spearman: float | None
    kendall_tau_b: float | None


@dataclass
class CorrelationReport:
    entries: dict[str, CorrelationEntry] = field(default_factory=dict)


def _pearson_raw(x: np.ndarray, y: np.ndarray) -> float | None:
    n = len(x)
    mx = float(x.sum()) / n
    my = float(y.sum()) / n
    dx = x - mx
    dy = y - my
    sxx = float(np.dot(dx, dx))
    syy = float(np.dot(dy, dy))
    if sxx == 0.0 or syy == 0.0:
        return None
    sxy = float(np.dot(dx, dy))
    return sxy / math.sqrt(sxx * syy)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    ranks = np.empty(len(values))
    i = 0
    n = len(values)
    while i < n:
        j = i
        while j < n and sorted_vals[j] == sorted_vals[i]:
            j += 1
        ranks[order[i:j]] = (i + 1 + j) / 2.0
        i = j
    return ranks


def _tie_pair_count(values: np.ndarray) -> int:
    _, counts = np.unique(values, return_counts=True)
    return int(sum(c * (c - 1) // 2 for c in counts))


def _kendall_tau_b(x: np.ndarray, y: np.ndarray) -> float | None:
    n = len(x)
    sx = np.sign(x[:, None] - x[None, :])
    sy = np.sign(y[:, None] - y[None, :])
    prod = sx * sy
    iu = np.triu_indices(n, 1)
    upper = prod[iu]
    concordant = int(np.count_nonzero(upper > 0))
    discordant = int(np.count_nonzero(upper < 0))
    n0 = n * (n - 1) // 2
    n1 = _tie_pair_count(x)
    n2 = _tie_pair_count(y)
    denom = (n0 - n1) * (n0 - n2)
    if denom == 0:
        return None
    return (concordant - discordant) / math.sqrt(denom)


def correlations(x: Sequence[float], y: Sequence[float]) -> CorrelationEntry:
    """Pearson, Spearman and Kendall tau-b for one pair of samples.

    Spearman is the Pearson coefficient of average ranks; tau-b applies the
    usual tie correction. A coefficient whose denominator degenerates
    (constant input) comes back as None.
    """
    if len(x) != len(y):
        raise ShapeError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise DomainError(f"need at least two samples, got {len(x)}")
    ax = np.asarray(x, dtype=float)
    ay = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(ax)) and np.all(np.isfinite(ay))):
        raise DomainError("samples must be finite")
    return CorrelationEntry(
        pearson=_pearson_raw(ax, ay),
        spearman=_pearson_raw(_average_ranks(ax), _average_ranks(ay)),
        kendall_tau_b=_kendall_tau_b(ax, ay),
    )


def write_correlation_csv(report: CorrelationReport, path: Path | str) -> None:
    """pair,pearson,spearman,kendall_tau_b with blanks for undefined."""

    def cell(value: float | None) -> str:
        return "" if value is None else "%.6f" % value

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pair", "pearson", "spearman", "kendall_tau_b"])
        for name in sorted(report.entries):
            e = report.entries[name]
            writer.writerow(
                [name, cell(e.pearson), cell(e.spearman), cell(e.kendall_tau_b)]
            )
