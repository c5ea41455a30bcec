"""Detection quality and performance-cost analysis.

Evaluation side: IoU, average precision with all-point interpolation, and
pooled mAP over a test split. Analysis side: piecewise-linear
performance-cost curves with budgeted area metrics (cost-budgeted area and
performance-budgeted area), plus correlation coefficients (Pearson,
Spearman, Kendall tau-b) used by the cost study.

Correlation routines are written out here instead of delegating to a stats
package so the tie handling and the exact arithmetic shape are pinned down
by the tests in this repository. Importing scipy.stats would also add about
44 MB to the peak RSS of every process that imports seqal, analysis or not.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, EmptyCurveError, EmptyTestError, ShapeError
from .pool import BoundingBox
from .tables import cell, write_table

MAP5095_THRESHOLDS = (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)

Prediction = tuple[BoundingBox, float]


def _iou_grid(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """IoU of center-format boxes held as (cx, cy, w, h) on the last axis,
    broadcast over the leading axes.

    The arithmetic is iou's, term by term, so every value is bit-equal to
    the scalar one: corners at cx -/+ w/2, union a.w*a.h + b.w*b.h - inter,
    and 0 where the overlap's width, height or the union is not positive.
    A union that overflows float64 (or is nan) raises DomainError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        px0 = p[..., 0] - p[..., 2] / 2
        py0 = p[..., 1] - p[..., 3] / 2
        px1 = p[..., 0] + p[..., 2] / 2
        py1 = p[..., 1] + p[..., 3] / 2
        tx0 = t[..., 0] - t[..., 2] / 2
        ty0 = t[..., 1] - t[..., 3] / 2
        tx1 = t[..., 0] + t[..., 2] / 2
        ty1 = t[..., 1] + t[..., 3] / 2
        iw = np.minimum(px1, tx1) - np.maximum(px0, tx0)
        ih = np.minimum(py1, ty1) - np.maximum(py0, ty0)
        inter = iw * ih
        union = p[..., 2] * p[..., 3] + t[..., 2] * t[..., 3] - inter
    if not np.isfinite(union).all():
        raise DomainError(f"box union {union[~np.isfinite(union)][0]} overflows float64")
    overlaps = (iw > 0) & (ih > 0) & (union > 0)
    return np.divide(inter, union, out=np.zeros_like(inter), where=overlaps)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two center-format boxes."""
    return float(
        _iou_grid(np.array([a.cx, a.cy, a.w, a.h]), np.array([b.cx, b.cy, b.w, b.h]))
    )


def _greedy_hits(overlap: np.ndarray, thresholds: tuple[float, ...]) -> np.ndarray:
    """Greedy matching in every frame at every threshold at once.

    overlap[f, k, j] is the IoU of frame f's k-th ranked prediction with
    its j-th truth (0 for padding). Step k matches the k-th prediction of
    every frame: it takes the first untaken truth of highest positive IoU,
    and counts as a hit when that IoU reaches the threshold. Returns
    hits[h, f, k]. Padded predictions come after a frame's real ones, so
    what they take never changes a real prediction's match.
    """
    n_frames, depth, width = overlap.shape
    thresh = np.asarray(thresholds, dtype=float)[:, None]
    taken = np.zeros((len(thresholds), n_frames, width), dtype=bool)
    hits = np.zeros((len(thresholds), n_frames, depth), dtype=bool)
    for k in range(depth):
        row = np.where(taken, 0.0, overlap[:, k])
        best_j = row.argmax(axis=2)
        best = np.take_along_axis(row, best_j[..., None], axis=2)[..., 0]
        hit = (best > 0.0) & (best >= thresh)
        hits[:, :, k] = hit
        h, f = np.nonzero(hit)
        taken[h, f, best_j[h, f]] = True
    return hits


def _pooled_ap(
    preds: np.ndarray, truths: np.ndarray, thresholds: tuple[float, ...]
) -> np.ndarray | None:
    """All-point-interpolated AP of frame-keyed predictions, per threshold.

    preds holds rows (frame, cx, cy, w, h, conf); truths holds rows
    (frame, cx, cy, w, h) in frame order, each frame's truths in their own
    order. Predictions are ranked by confidence over every frame (a stable
    sort, so input order breaks ties) and only ever match truths of their
    own frame, greedily in rank order. Returns None when there is nothing
    to measure (no truths and no predictions).
    """
    if len(truths) == 0:
        return None if len(preds) == 0 else np.zeros(len(thresholds))
    if len(preds) == 0:
        return np.zeros(len(thresholds))
    conf = preds[:, 5]
    bad = np.flatnonzero(~((conf >= 0.0) & (conf <= 1.0)))
    if len(bad):
        raise DomainError(f"confidence {conf[bad[0]]} outside [0, 1]")

    ranked = preds[np.argsort(-conf, kind="stable")]
    # slot: index of the prediction's frame among the frames with
    # predictions; step: its place in that frame's ranked predictions.
    frames, slot, counts = np.unique(
        ranked[:, 0], return_inverse=True, return_counts=True
    )
    by_slot = np.argsort(slot, kind="stable")
    step = np.empty(len(ranked), dtype=np.intp)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    step[by_slot] = np.arange(len(ranked)) - starts

    lo = np.searchsorted(truths[:, 0], frames, side="left")
    n_in_frame = np.searchsorted(truths[:, 0], frames, side="right") - lo
    # One IoU matrix per frame, padded to the largest frame (and to one
    # column when no frame with predictions holds a truth).
    cols = np.arange(max(int(n_in_frame.max()), 1))
    present = cols < n_in_frame[:, None]
    t_box = truths[np.where(present, lo[:, None] + cols, 0), 1:5]
    p_box = np.zeros((len(frames), int(counts.max()), 4))
    p_box[slot, step] = ranked[:, 1:5]
    overlap = np.where(
        present[:, None, :], _iou_grid(p_box[:, :, None], t_box[:, None]), 0.0
    )
    hits = _greedy_hits(overlap, thresholds)[:, slot, step]

    ctp = np.cumsum(hits, axis=1)
    recall = ctp / len(truths)
    precision = ctp / np.arange(1, len(ranked) + 1)
    # Monotone envelope, right to left.
    envelope = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    # cumsum adds left to right, as the definition's running sum does.
    return np.cumsum(np.diff(recall, axis=1, prepend=0.0) * envelope, axis=1)[:, -1]


def average_precision(
    predictions: Sequence[Prediction],
    truths: Sequence[BoundingBox],
    iou_thresh: float,
) -> float | None:
    """AP for a single frame; None when both sides are empty.

    mean_ap's routine on one frame, class ids unread: predictions ranked by
    confidence (a stable sort, so input order breaks ties) each take the
    first untaken truth of highest positive IoU, a hit when that IoU
    reaches iou_thresh.
    """
    preds = np.array(
        [(0, b.cx, b.cy, b.w, b.h, conf) for b, conf in predictions], dtype=float
    ).reshape(-1, 6)
    ap = _pooled_ap(preds, truth_rows([truths])[:, :5], (iou_thresh,))
    return None if ap is None else float(ap[0])


def check_thresholds(iou_thresholds: Sequence[float]) -> None:
    """A non-empty list of thresholds on the 0.50..0.95 grid, step 0.05."""
    if not iou_thresholds:
        raise DomainError("need at least one iou threshold")
    for t in iou_thresholds:
        steps = (t - 0.5) / 0.05
        if not (-1e-9 <= steps <= 9 + 1e-9 and abs(steps - round(steps)) < 1e-9):
            raise DomainError(f"iou threshold {t} outside the 0.50..0.95 grid")


def truth_rows(frames: Sequence[Sequence[BoundingBox]]) -> np.ndarray:
    """Rows (frame, cx, cy, w, h, class) of frames[i]'s boxes, in order."""
    return np.array(
        [(i, b.cx, b.cy, b.w, b.h, b.class_id) for i, frame in enumerate(frames) for b in frame],
        dtype=float,
    ).reshape(-1, 6)


def mean_ap(
    predictions: Sequence[Sequence[Prediction]],
    truths: Sequence[Sequence[BoundingBox]],
    iou_thresholds: Sequence[float] = MAP5095_THRESHOLDS,
) -> tuple[float, float]:
    """mean_ap_rows over per-frame lists: predictions[i] and truths[i]
    belong to frame i."""
    if len(predictions) != len(truths):
        raise ShapeError(
            f"{len(predictions)} prediction frames vs {len(truths)} truth frames"
        )
    check_thresholds(iou_thresholds)
    if not truths:
        raise EmptyTestError("no test frames")
    preds = np.array([
        (i, b.cx, b.cy, b.w, b.h, p, b.class_id) for i, f in enumerate(predictions) for b, p in f
    ], dtype=float).reshape(-1, 7)
    return mean_ap_rows(preds, truth_rows(truths), iou_thresholds)


def mean_ap_rows(
    preds: np.ndarray,
    truths: np.ndarray,
    iou_thresholds: Sequence[float] = MAP5095_THRESHOLDS,
) -> tuple[float, float]:
    """Pooled (map50, map_mean) over a test split of prediction rows (frame,
    cx, cy, w, h, conf, class) and truth rows (frame, cx, cy, w, h, class)
    in frame order. Boxes are pooled per class across every frame before
    AP, map50 is the class mean at IoU 0.5 and the second value averages
    classes over iou_thresholds. Classes without any truth box are left out.

    Per class, predictions are ranked by confidence over all frames (a
    stable sort, so row order breaks ties) and matched greedily in that
    order, each taking the first untaken truth of highest IoU in its own
    frame. One IoU matrix per (class, frame) serves every threshold.
    """
    check_thresholds(iou_thresholds)
    if len(truths) == 0:
        raise EmptyTestError("test split has no truth boxes")

    grid = tuple(sorted({0.5, *iou_thresholds}))
    class_ap: list[dict[float, float]] = []
    for c in np.unique(truths[:, 5]):
        ap = _pooled_ap(preds[preds[:, 6] == c, :6], truths[truths[:, 5] == c, :5], grid)
        # The class has truths by construction, so AP is never None here.
        assert ap is not None
        class_ap.append(dict(zip(grid, ap.tolist())))

    map50 = ordered_sum([ap[0.5] for ap in class_ap]) / len(class_ap)
    per_class = [
        ordered_sum([ap[t] for t in iou_thresholds]) / len(iou_thresholds) for ap in class_ap
    ]
    return map50, ordered_sum(per_class) / len(class_ap)


def ordered_sum(values) -> float:
    """0.0 + values[0] + values[1] + ..., in that order, as the builtin sum
    adds floats up to Python 3.11; from 3.12 on it compensates rounding,
    which would move the bytes of every mean written from it."""
    return float(np.cumsum([0.0, *values])[-1])


@dataclass
class PerfCostCurve:
    """Piecewise-linear mAP versus cumulative cost; costs strictly increase."""

    points: list[tuple[float, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        prev = None
        for cost, value in self.points:
            if not 0.0 <= value <= 1.0:
                raise DomainError(f"map value {value} outside [0, 1]")
            if not 0.0 <= cost < math.inf:
                raise DomainError(f"cost {cost} is negative or not finite")
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


def _area(pieces: Iterable[tuple[float, float, float, float]], upper: float) -> float:
    """Trapezoid area under linear pieces (x_lo, x_hi, y_lo, y_hi), in order
    of x, up to x = upper; pieces of no width are skipped. An area that
    overflows float64 raises DomainError instead of coming back inf or nan."""
    total = 0.0
    for x0, x1, y0, y1 in pieces:
        if x1 <= x0:
            continue
        hi = min(x1, upper)
        if hi <= x0:
            break
        y_hi = y0 + (y1 - y0) * (hi - x0) / (x1 - x0)
        total += 0.5 * (y0 + y_hi) * (hi - x0)
        if hi >= upper:
            break
    if not math.isfinite(total):
        raise DomainError(f"area up to {upper} overflows float64")
    return total


def car(curve: PerfCostCurve, budget: float) -> float:
    """Area under the curve up to a cost budget (hours · mAP).

    The curve is held constant to the left of its first point; to the right
    it simply ends, so budgets past the last point integrate only to there.
    An area that overflows float64 raises DomainError.
    """
    if not budget >= 0:  # NaN too
        raise DomainError(f"cost budget must be >= 0, got {budget}")
    if not curve.points:
        raise EmptyCurveError("curve has no points")
    if budget == 0:
        return 0.0

    pts = [(0.0, curve.points[0][1]), *curve.points]
    pieces = ((c0, c1, m0, m1) for (c0, m0), (c1, m1) in zip(pts, pts[1:]))
    return _area(pieces, min(budget, pts[-1][0]))


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

    return _area(_envelope_pieces(curve.points), upper)


@dataclass
class CorrelationEntry:
    """One variable pair; None marks a coefficient undefined for the data."""

    pearson: float | None
    spearman: float | None
    kendall_tau_b: float | None


def _pearson_raw(x: np.ndarray, y: np.ndarray) -> float | None:
    """Pearson's r; None when a sample is constant."""
    if x.min() == x.max() or y.min() == y.max():
        return None
    dx = x - float(x.sum()) / len(x)
    dy = y - float(y.sum()) / len(y)
    sxx, syy, sxy = (float(np.dot(a, b)) for a, b in ((dx, dx), (dy, dy), (dx, dy)))
    for name, ss in (("x", sxx), ("y", syy)):
        if not 0.0 < ss < math.inf:
            raise DomainError(f"sample {name}'s sum of squares is {ss}: outside float64's range")
    if not math.isfinite(sxy):
        raise DomainError(f"the samples' cross sum is {sxy}: outside float64's range")
    # The product under- or overflows only when its factors lie far apart.
    scale = sxx * syy
    return sxy / (math.sqrt(scale) if 0.0 < scale < math.inf else math.sqrt(sxx) * math.sqrt(syy))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of their positions."""
    order = np.argsort(values, kind="stable")
    _, first, counts = np.unique(values[order], return_index=True, return_counts=True)
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(first + (counts + 1) / 2, counts)
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
    (constant input) comes back as None. A sample whose squared spread
    leaves float64's range (past about 1e154 or under 1e-162) raises DomainError.
    """
    if len(x) != len(y):
        raise ShapeError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise DomainError(f"need at least two samples, got {len(x)}")
    ax = np.asarray(x, dtype=float)
    ay = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(ax)) and np.all(np.isfinite(ay))):
        raise DomainError("samples must be finite")
    # A sum that overflows is caught as out of range; a difference that
    # overflows to +-inf keeps its sign.
    with np.errstate(over="ignore", invalid="ignore"):
        return CorrelationEntry(
            pearson=_pearson_raw(ax, ay),
            spearman=_pearson_raw(_average_ranks(ax), _average_ranks(ay)),
            kendall_tau_b=_kendall_tau_b(ax, ay),
        )


def write_correlation_csv(entries: dict[str, CorrelationEntry], path: Path | str) -> None:
    """pair,pearson,spearman,kendall_tau_b in pair order, blanks for undefined."""
    rows = (
        [name, cell(e.pearson), cell(e.spearman), cell(e.kendall_tau_b)]
        for name, e in sorted(entries.items())
    )
    write_table(path, ["pair", "pearson", "spearman", "kendall_tau_b"], rows)
