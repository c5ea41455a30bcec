"""Sequence acquisition strategies.

Twelve strategy kinds share one ranking rule. Model-score kinds read the
detector's per-frame outputs through ``frame_criterion``, which the runner
applies to a round's table as one array and, in sequence rounds, reduces
to each sequence's mean frame score; coreset reads a feature table;
conformal kinds rank by pool statistics through ``catalog_scores``; random
reads none. Every criterion is expressed so that higher is better and
selection is a single argmax; ties always break toward the smallest id,
making selection invariant to enumeration order.

``rank`` ranks a round's sorted candidates by one value array: a stable
argsort for the top rule, index draws for random and GauSS. ``coreset``
grows a greedy k-center cover over rows of one feature matrix. The runner
ranks every round, the seed draw included, through these two; ``select``
applies them to a list of ids and a dict of their scores.

Randomness (the random baseline and the GauSS component draw) comes from a
PCG64 generator seeded with the caller's rng_seed, so a fixed seed fixes the
pick. The GauSS 2-GMM is fitted by EM over the distinct switch scores, each
weighted by its count: O(distinct values) per iteration, not O(frames).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MissingScoresError, PoolExhaustedError, ShapeError
from .flowproxy import FlowStats
from .pool import PoolState

KIND_RANDOM = "random"
KIND_ENTROPY = "entropy"
KIND_LEAST_CONFIDENCE = "least_confidence"
KIND_MARGIN = "margin"
KIND_FALSE_SWITCH = "false_switch"
KIND_GAUSS_SWITCH = "gauss_switch"
KIND_CORESET = "coreset"
KIND_LEAST_FRAME = "least_frame"
KIND_MOST_FRAME = "most_frame"
KIND_MIN_MOTION = "min_motion"
KIND_MIN_MAX_MOTION = "min_max_motion"
KIND_MIN_BOXES = "min_boxes"

# Kinds whose criterion is a reduced per-sequence model score.
SCORE_KINDS = frozenset(
    {KIND_ENTROPY, KIND_LEAST_CONFIDENCE, KIND_MARGIN, KIND_FALSE_SWITCH, KIND_GAUSS_SWITCH}
)
SWITCH_KINDS = frozenset({KIND_FALSE_SWITCH, KIND_GAUSS_SWITCH})
# Kinds that rank by pool statistics alone.
CONFORMAL_KINDS = frozenset(
    {KIND_LEAST_FRAME, KIND_MOST_FRAME, KIND_MIN_MOTION, KIND_MIN_MAX_MOTION, KIND_MIN_BOXES}
)
# Conformal kinds whose catalog_scores read flow statistics.
FLOW_KINDS = frozenset({KIND_MIN_MOTION, KIND_MIN_MAX_MOTION, KIND_MIN_BOXES})
ALL_KINDS = (
    KIND_RANDOM,
    KIND_ENTROPY,
    KIND_LEAST_CONFIDENCE,
    KIND_MARGIN,
    KIND_FALSE_SWITCH,
    KIND_GAUSS_SWITCH,
    KIND_CORESET,
    KIND_LEAST_FRAME,
    KIND_MOST_FRAME,
    KIND_MIN_MOTION,
    KIND_MIN_MAX_MOTION,
    KIND_MIN_BOXES,
)

PARITY_MAX_FIRST = "max_first"
PARITY_MIN_FIRST = "min_first"

RESPONSIBILITY_CUTOFF = 0.5
VARIANCE_FLOOR = 1e-12
GMM_MAX_ITER = 200
# An absolute tolerance: the log-likelihood of a few thousand switch scores
# is in the thousands, where one ulp is about 1e-12, so many fits run to
# GMM_MAX_ITER. A relative one would move iteration counts and every float
# of the fit, a behaviour change of its own.
GMM_TOL = 1e-10
# fit_gmm2 runs EM in Python floats up to this many distinct values and on
# numpy arrays above: a Python step costs about 1 us a value, a numpy step
# about 40 us whatever the count, and the two cross near 32 values. Switch
# scores of a frame round take a handful of values; the mean switch scores
# of a sequence round take about one per open sequence.
GMM_FLOAT_ROWS = 32


@dataclass
class StrategySpec:
    """What to run: a kind, a per-round batch size, and the min/max phase
    used only by min_max_motion."""

    kind: str
    batch_size: int = 1
    parity_phase: str = PARITY_MAX_FIRST

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise DomainError(f"unknown strategy kind {self.kind!r}")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.parity_phase not in (PARITY_MAX_FIRST, PARITY_MIN_FIRST):
            raise DomainError(f"unknown parity_phase {self.parity_phase!r}")


def frame_criterion(kind: str, objectness, counts, prev_counts) -> np.ndarray:
    """Every frame's criterion for a model-score kind, higher = more
    informative. entropy, least_confidence and margin read the objectness
    p in [0, 1]; the switch kinds read |counts - prev_counts|, all zero in
    the first acquisition round (prev_counts None), which pushes selection
    onto the tie-break rule."""
    if kind in SWITCH_KINDS:
        curr = np.asarray(counts, dtype=float)
        if prev_counts is None:
            return np.zeros(curr.size)
        prev = np.asarray(prev_counts, dtype=float)
        if prev.shape != curr.shape:
            raise ShapeError(f"count lengths differ: {prev.size} vs {curr.size}")
        return np.abs(curr - prev)
    p = np.asarray(objectness, dtype=float)
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise DomainError("objectness outside [0, 1]")
    if kind == KIND_ENTROPY:
        # Binary entropy, natural log, 0 * log(0) = 0. math.log, once per
        # value: np.log differs from it in the last bit on some inputs.
        both = np.concatenate([p, 1.0 - p])
        terms = both * np.array([math.log(v) if v > 0.0 else 0.0 for v in both.tolist()])
        return (0.0 - terms[: p.size]) - terms[p.size :]
    if kind == KIND_LEAST_CONFIDENCE:
        return 1.0 - np.maximum(p, 1.0 - p)
    if kind == KIND_MARGIN:
        # Negated margin between the two class posteriors.
        return -np.abs(2.0 * p - 1.0)
    raise DomainError(f"not a model-score kind: {kind!r}")


@dataclass
class GmmFit:
    """A two-component 1-D Gaussian mixture, components sorted by mean."""

    weights: tuple[float, float]
    means: tuple[float, float]
    variances: tuple[float, float]
    iterations: int
    degenerate: bool = False

    def responsibilities(self, values) -> np.ndarray:
        """Posterior component membership, shape (n, 2)."""
        x = np.asarray(values, dtype=float)
        log_p = np.empty((x.size, 2))
        for k in range(2):
            var = max(self.variances[k], VARIANCE_FLOOR)
            log_p[:, k] = (
                math.log(max(self.weights[k], 1e-300))
                - 0.5 * math.log(2.0 * math.pi * var)
                - 0.5 * (x - self.means[k]) ** 2 / var
            )
        peak = log_p.max(axis=1, keepdims=True)
        weights = np.exp(log_p - peak)
        return weights / weights.sum(axis=1, keepdims=True)


def fit_gmm2(values) -> GmmFit:
    """EM fit of a two-component 1-D Gaussian mixture.

    Means start at the 25th/75th percentiles with equal weights and pooled
    variance; iteration stops after GMM_MAX_ITER iterations or when the
    log-likelihood moves less than GMM_TOL. EM runs on the distinct values,
    each weighted by its count (grouped-data EM, McLachlan & Jones 1988):
    in Python floats up to GMM_FLOAT_ROWS distinct values, on (k, 2) numpy
    arrays above, and both give the same floats. Constant input cannot be
    split and comes back flagged degenerate; a non-finite value, or values
    whose variance overflows, raise DomainError.
    """
    x = np.asarray(list(values), dtype=float)
    if x.size < 2:
        raise DomainError(f"need at least 2 values to fit, got {x.size}")
    if not np.isfinite(x).all():
        raise DomainError("cannot fit a mixture to non-finite values")

    with np.errstate(over="ignore"):
        spread, pooled = float(np.ptp(x)), float(np.var(x))
    if not math.isfinite(pooled):
        raise DomainError(f"values spread too far to fit: variance {pooled}")
    pooled = max(pooled, VARIANCE_FLOOR)
    if spread == 0.0:
        mean = float(x[0])
        return GmmFit((0.5, 0.5), (mean, mean), (pooled, pooled), 0, degenerate=True)

    mu = np.array([np.percentile(x, 25), np.percentile(x, 75)], dtype=float)
    if mu[0] == mu[1]:
        mu = np.array([float(x.min()), float(x.max())])

    u, c = np.unique(x, return_counts=True)
    em = _em_floats if u.size <= GMM_FLOAT_ROWS else _em_arrays
    w, mu, var, iterations = em(u, c, x.size, mu, pooled)
    order = np.argsort(mu, kind="stable")
    w, mu, var = w[order], mu[order], var[order]
    degenerate = bool(abs(mu[1] - mu[0]) < 1e-12)
    return GmmFit(
        weights=(float(w[0]), float(w[1])),
        means=(float(mu[0]), float(mu[1])),
        variances=(float(var[0]), float(var[1])),
        iterations=iterations,
        degenerate=degenerate,
    )


def _em_arrays(u: np.ndarray, c: np.ndarray, n: int, mu: np.ndarray, pooled: float):
    """fit_gmm2's EM on (k, 2) arrays of the k distinct values u, counts c,
    and the two components: (weights, means, variances, iterations)."""
    w = np.array([0.5, 0.5])
    var = np.array([pooled, pooled])
    prev_ll = -np.inf
    for iterations in range(1, GMM_MAX_ITER + 1):
        log_p = (
            np.log(np.maximum(w, 1e-300))[None, :]
            - 0.5 * np.log(2.0 * math.pi * var)[None, :]
            - 0.5 * (u[:, None] - mu[None, :]) ** 2 / var[None, :]
        )
        peak = log_p.max(axis=1, keepdims=True)
        shifted = np.exp(log_p - peak)
        norm = shifted.sum(axis=1, keepdims=True)
        resp = shifted / norm * c[:, None]
        ll = float(np.sum(c * (peak.ravel() + np.log(norm.ravel()))))

        mass = np.maximum(resp.sum(axis=0), 1e-300)
        w = mass / n
        mu = (resp * u[:, None]).sum(axis=0) / mass
        var = (resp * (u[:, None] - mu[None, :]) ** 2).sum(axis=0) / mass
        var = np.maximum(var, VARIANCE_FLOOR)

        if abs(ll - prev_ll) < GMM_TOL:
            break
        prev_ll = ll
    return w, mu, var, iterations


def _em_floats(u: np.ndarray, c: np.ndarray, n: int, mu: np.ndarray, pooled: float):
    """_em_arrays in Python floats, row by row: the same floats without
    numpy's per-call cost, which dominates a step over a few values. numpy
    serves only log, exp and the log-likelihood's sum; everything else
    repeats numpy's arithmetic, squares as d * d and operands grouped as
    there."""
    rows = list(zip(u.tolist(), c.astype(float).tolist()))
    w0 = w1 = 0.5
    mu0, mu1 = mu.tolist()
    v0 = v1 = pooled
    prev_ll = -math.inf
    for iterations in range(1, GMM_MAX_ITER + 1):
        # Python floats round +, -, *, / as numpy does; log and exp are
        # numpy's, whose last bit can differ from math's.
        lw0, lw1, lv0, lv1 = np.log(
            [max(w0, 1e-300), max(w1, 1e-300), 2.0 * math.pi * v0, 2.0 * math.pi * v1]
        ).tolist()
        h0, h1 = lw0 - 0.5 * lv0, lw1 - 0.5 * lv1
        peaks, diffs = [], []
        for value, _ in rows:
            d0, d1 = value - mu0, value - mu1
            l0 = h0 - (0.5 * (d0 * d0)) / v0
            l1 = h1 - (0.5 * (d1 * d1)) / v1
            peak = l0 if l0 > l1 else l1  # np.maximum's pick on a tie
            peaks.append(peak)
            diffs += (l0 - peak, l1 - peak)
        shifted = np.exp(diffs).tolist()
        evens, odds = shifted[::2], shifted[1::2]
        norms = [a + b for a, b in zip(evens, odds)]
        terms = [m * (p + g) for (_, m), p, g in zip(rows, peaks, np.log(norms).tolist())]
        ll = float(np.add.reduce(terms))  # pairwise from 8 terms, as np.sum

        # The sums over the values run down the rows, left to right, from
        # 0.0: numpy's order for an axis-0 reduce of a C-contiguous array.
        resp = []
        m0 = m1 = s0 = s1 = 0.0
        for (value, m), a, b, norm in zip(rows, evens, odds, norms):
            r0, r1 = a / norm * m, b / norm * m
            resp.append((value, r0, r1))
            m0, m1 = m0 + r0, m1 + r1
            s0, s1 = s0 + r0 * value, s1 + r1 * value
        m0, m1 = max(m0, 1e-300), max(m1, 1e-300)
        w0, w1 = m0 / n, m1 / n
        mu0, mu1 = s0 / m0, s1 / m1
        q0 = q1 = 0.0
        for value, r0, r1 in resp:
            d0, d1 = value - mu0, value - mu1
            q0, q1 = q0 + r0 * (d0 * d0), q1 + r1 * (d1 * d1)
        v0, v1 = max(q0 / m0, VARIANCE_FLOOR), max(q1 / m1, VARIANCE_FLOOR)

        if abs(ll - prev_ll) < GMM_TOL:
            break
        prev_ll = ll
    return np.array([w0, w1]), np.array([mu0, mu1]), np.array([v0, v1]), iterations


def _top(values: np.ndarray, b: int) -> np.ndarray:
    """Indices of the b highest values, ties to the smaller index."""
    return np.argsort(-values, kind="stable")[:b]


def _draw(n: int, b: int, rng_seed: int | list[int]) -> np.ndarray:
    """Seeded uniform draw of b of the indices 0..n-1 without replacement."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(rng_seed)))
    return rng.choice(n, size=b, replace=False)


def _gauss_switch_select(values: np.ndarray, b: int, rng_seed: int) -> np.ndarray:
    """Sample from the higher-mean component of a 2-GMM over switch scores.

    Membership is posterior responsibility above 0.5. Degenerate fits and
    undersized components fall back to plain score ordering (the FALSE rule).
    Returns indices into values.
    """
    if values.size < 2 or values.min() == values.max():
        return _top(values, b)
    fit = fit_gmm2(values)
    if fit.degenerate:
        return _top(values, b)
    # responsibilities is elementwise: once per distinct score, mapped back
    distinct = np.unique(values)
    high = fit.responsibilities(distinct)[:, 1] > RESPONSIBILITY_CUTOFF
    members = np.flatnonzero(high[np.searchsorted(distinct, values)])
    if members.size < b:
        return _top(values, b)
    return members[_draw(members.size, b, rng_seed)]


def _check_batch(n: int, b: int) -> None:
    if b < 1:
        raise DomainError(f"batch must be >= 1, got {b}")
    if n < b:
        raise PoolExhaustedError(f"need {b} candidates, only {n} remain")


def _check_finite(x: np.ndarray, what: str) -> None:
    if not np.isfinite(x).all():
        raise DomainError(f"cannot rank a non-finite {what}: {x[~np.isfinite(x)][0]}")


def rank(kind: str, values, n: int, b: int, rng_seed: int | list[int]) -> np.ndarray:
    """Indices of b of n sorted candidates in order of preference: a uniform
    draw for random (values unread), the GauSS draw for gauss_switch, else
    the b highest of the values array with ties to the smaller index."""
    _check_batch(n, b)
    if kind == KIND_RANDOM:
        return _draw(n, b, rng_seed)
    _check_finite(values, "value")
    if kind == KIND_GAUSS_SWITCH:
        return _gauss_switch_select(values, b, rng_seed)
    return _top(values, b)


def _distances(points: np.ndarray, to: np.ndarray) -> np.ndarray:
    """Each row's Euclidean distance to one point: the batched matmul takes
    np.linalg.norm's dot of each 1-D row, where einsum's order moves bits."""
    d = points - to
    return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])


def coreset(features, open_rows, center_rows, b: int) -> np.ndarray:
    """Greedy k-center (Gonzalez 1985; Sener & Savarese 2018): b of the open
    rows of the (rows, width) features, each the farthest from its nearest
    center, then a center itself. One array holds those distances, a taken
    row at -inf; ties go to the smaller row, the first pick without centers."""
    rows = np.unique(np.asarray(open_rows, dtype=np.intp))
    _check_batch(rows.size, b)
    feats = np.asarray(features, dtype=float)
    _check_finite(feats, "feature")
    points = feats[rows]
    nearest = np.full(rows.size, np.inf)
    for center in feats[np.asarray(center_rows, dtype=np.intp)]:
        nearest = np.minimum(nearest, _distances(points, center))
    picks = []
    for _ in range(b):
        picks.append(int(np.argmax(nearest)))
        nearest = np.minimum(nearest, _distances(points, points[picks[-1]]))
        nearest[picks[-1]] = -np.inf
    return rows[picks]


def catalog_scores(
    strategy: StrategySpec,
    pool: PoolState,
    ids: list[str],
    flow: dict[str, FlowStats],
    round_index: int,
) -> np.ndarray:
    """Each id's criterion under a pool-statistic kind, in ids order, signed
    so that the highest score is the pick. flow maps each id to its flow
    statistics; only FLOW_KINDS read it."""
    kind = strategy.kind
    if kind == KIND_LEAST_FRAME:
        return -np.array([pool.sequences[s].n_frames for s in ids], dtype=float)
    if kind == KIND_MOST_FRAME:
        return np.array([pool.sequences[s].n_frames for s in ids], dtype=float)
    if kind == KIND_MIN_BOXES:
        return -np.array([sum(flow[s].box_estimates) for s in ids], dtype=float)
    if kind not in (KIND_MIN_MOTION, KIND_MIN_MAX_MOTION):
        raise DomainError(f"not a conformal kind: {kind!r}")
    motion = np.array([sum(flow[s].motion_scores) for s in ids], dtype=float)
    if kind == KIND_MIN_MOTION:
        return -motion
    # Case rule: even rounds take the minimum side, odd rounds the maximum,
    # with round 1 the first acquisition round. The min_first phase swaps
    # the two cases.
    even = round_index % 2 == 0
    use_min = even if strategy.parity_phase == PARITY_MAX_FIRST else not even
    return -motion if use_min else motion


def select(
    kind: str,
    ids: list,
    scores: dict | None,
    b: int,
    rng_seed: int | list[int],
    centers=(),
) -> list:
    """Pick b of the candidate ids, in order of selection preference.

    The candidates are sorted first, so their order does not matter, then
    ranked by ``rank``, or by ``coreset`` over the feature vectors in
    ``scores`` with ``centers``, the ids already labeled, as first centers.
    rng_seed is the SeedSequence entropy of the random and GauSS draws.
    """
    ids = sorted(ids)
    if kind == KIND_RANDOM:
        return [ids[i] for i in rank(kind, None, len(ids), b, rng_seed)]
    if scores is None:
        raise MissingScoresError(f"{kind} requires scores")
    rows = ids + list(centers) if kind == KIND_CORESET else ids
    missing = [i for i in rows if i not in scores]
    if missing:
        raise MissingScoresError(f"no scores for {missing[:4]}")
    values = np.array([scores[i] for i in rows], dtype=float)
    if kind == KIND_CORESET:
        return [ids[i] for i in coreset(values, range(len(ids)), range(len(ids), len(rows)), b)]
    return [ids[i] for i in rank(kind, values, len(ids), b, rng_seed)]
