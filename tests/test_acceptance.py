"""Acceptance suite: twelve end-to-end checks, one test per criterion.

Each criterion is verified against an independent re-derivation (brute
force, enumeration, or a dense quadrature) rather than against the
implementation's own intermediates, and prints a single PASS/FAIL line.
Criteria with stated runtime budgets time their own core work.
"""

from __future__ import annotations

import math
import random
from time import perf_counter

import numpy as np
import pytest

from seqal import acquisition
from seqal.acquisition import (
    ALL_KINDS,
    StrategySpec,
    catalog_scores,
    fit_gmm2,
    select,
)
from seqal.costing import (
    OverheadModel,
    frame_cost,
    overhead_conformal,
    theoretical_cost_bounds,
)
from seqal.flowproxy import FlowStats
from seqal.metrics import PerfCostCurve, average_precision, car, correlations, par
from seqal.pool import BoundingBox, PoolState, load_pool, write_pool
from seqal.runner import RunConfig, _frame_candidates, run_experiment
from seqal.synth import GenConfig, generate_pool

from conftest import make_sequence, pools_match, trapezoid


def verdict(num: int, problems: list) -> None:
    ok = not problems
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}")
    assert ok, "; ".join(str(p) for p in problems[:6])


# ---------------------------------------------------------------------------
# independent re-derivations


def iou_ref(a: BoundingBox, b: BoundingBox) -> float:
    ax0, ay0, ax1, ay1 = a.corners()
    bx0, by0, bx1, by1 = b.corners()
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    return inter / union if union > 0 else 0.0


def ap_ref(predictions, truths, thresh):
    """Definition-level AP: greedy confidence-ordered matching, then the
    all-point interpolated area under precision-recall."""
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
            o = iou_ref(pred_box, t)
            if o > best:
                best, best_j = o, j
        if best_j >= 0 and best >= thresh:
            used[best_j] = True
            hits.append(1)
        else:
            hits.append(0)
    tp = 0
    recalls, precisions = [], []
    for k, h in enumerate(hits):
        tp += h
        recalls.append(tp / len(truths))
        precisions.append(tp / (k + 1))
    area, prev_r = 0.0, 0.0
    for k in range(len(hits)):
        area += (recalls[k] - prev_r) * max(precisions[k:])
        prev_r = recalls[k]
    return area


def car_quadrature(points, budget, steps=100_000):
    """Trapezoid sum over a uniform grid augmented with the curve knots."""
    xs = [c for c, _ in points]
    ys = [m for _, m in points]
    if xs[0] > 0.0:
        xs = [0.0] + xs
        ys = [ys[0]] + ys
    upper = min(budget, xs[-1])
    if upper <= 0.0:
        return 0.0
    grid = np.union1d(np.linspace(0.0, upper, steps + 1), [x for x in xs if x <= upper])
    return float(trapezoid(np.interp(grid, xs, ys), grid))


def par_quadrature(points, budget, steps=100_000):
    """Midpoint sum of the first-crossing cost over performance levels.

    Panels are split at every curve map value, so the integrand is linear
    inside each panel and the midpoint rule carries no quadrature error.
    """
    cs = np.array([c for c, _ in points], dtype=float)
    ms = np.array([m for _, m in points], dtype=float)
    m0 = float(ms[0])
    if budget <= m0:
        return 0.0
    breaks = sorted({m0, float(budget)} | {float(m) for m in ms if m0 < m < budget})
    per = max(1, steps // (len(breaks) - 1))
    total = 0.0
    for lo, hi in zip(breaks, breaks[1:]):
        h = (hi - lo) / per
        levels = lo + (np.arange(per) + 0.5) * h
        reach = ms[None, :] >= levels[:, None]
        idx = reach.argmax(axis=1)  # first curve point at or above the level
        prev = idx - 1
        cost = cs[prev] + (levels - ms[prev]) * (cs[idx] - cs[prev]) / (ms[idx] - ms[prev])
        total += h * float(cost.sum())
    return total


def pearson_ref(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    dx = [v - mx for v in x]
    dy = [v - my for v in y]
    sxx = sum(d * d for d in dx)
    syy = sum(d * d for d in dy)
    if sxx == 0 or syy == 0:
        return None
    return sum(a * b for a, b in zip(dx, dy)) / math.sqrt(sxx * syy)


def ranks_ref(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and values[order[j]] == values[order[i]]:
            j += 1
        for k in range(i, j):
            ranks[order[k]] = (i + 1 + j) / 2
        i = j
    return ranks


def tau_b_ref(x, y):
    from collections import Counter

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
        return sum(c * (c - 1) // 2 for c in Counter(v).values())

    denom = (n0 - ties(x)) * (n0 - ties(y))
    if denom == 0:
        return None
    return (concordant - discordant) / math.sqrt(denom)


def kcenter_ref(unlabeled, centers, features, b):
    """Greedy k-center by definition: farthest point next, lexical ties."""
    chosen = []
    pool = list(unlabeled)
    cents = list(centers)
    for _ in range(b):
        best = None
        for sid in sorted(pool):
            if cents:
                d = min(
                    float(np.linalg.norm(np.asarray(features[sid], dtype=float) - np.asarray(features[c], dtype=float)))
                    for c in cents
                )
            else:
                d = math.inf
            if best is None or d > best[0]:
                best = (d, sid)
        chosen.append(best[1])
        pool.remove(best[1])
        cents.append(best[1])
    return chosen


# ---------------------------------------------------------------------------
# shared experiment fixtures


ENVELOPE_SEEDS = (0, 1, 2)
ENVELOPE_ROUNDS = 11
ENVELOPE_SEED_SEQS = 2  # 2 + 11 = 13 acquisitions per seed

SMALL_GEN = GenConfig(
    rng_seed=105,
    n_sequences=30,
    frame_len_range=(24, 48),
    raster_size=(32, 32),
    objects_per_seq_range=(0, 4),
)


@pytest.fixture(scope="module")
def small_pool():
    return generate_pool(SMALL_GEN)


@pytest.fixture(scope="module")
def envelope_runs(small_pool):
    """Records for every strategy kind on the shared 30-sequence pool."""
    by_kind = {}
    t0 = perf_counter()
    for kind in sorted(ALL_KINDS):
        cfg = RunConfig(
            pool_source=SMALL_GEN,
            strategy=StrategySpec(kind),
            seed_sequences=ENVELOPE_SEED_SEQS,
            rounds=ENVELOPE_ROUNDS,
            seeds=ENVELOPE_SEEDS,
            evaluate=False,
        )
        by_kind[kind] = run_experiment(cfg, pool=small_pool)
    return by_kind, perf_counter() - t0


@pytest.fixture(scope="module")
def default_pool():
    return generate_pool(GenConfig())


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_conformal_overhead_value():
    model = OverheadModel()
    t0 = perf_counter()
    got = overhead_conformal(model, 76242)
    elapsed = perf_counter() - t0
    problems = []
    if abs(got - 2_328_430.68) > 1e-6:
        problems.append(f"overhead {got!r} is off by {got - 2_328_430.68!r}")
    if elapsed >= 1e-3:
        problems.append(f"took {elapsed:.6f}s, budget is 1ms")
    verdict(1, problems)


def test_criterion_02_keyframe_price():
    # 10 hours over 100 frames at rate 10, priced one labeled frame at a
    # time and summed from 0.0, as the runner's singular rounds charge them
    clip = make_sequence("clip", n_frames=100, cost=10.0)
    per = frame_cost(clip, 0, 10)
    full = 0.0
    for fid in range(100):
        full += frame_cost(clip, fid, 10)
    problems = []
    if per != 1.0:
        problems.append(f"one keyframe priced at {per!r}, expected exactly 1.0")
    if full != 10.0:
        problems.append(f"all 100 frames priced at {full!r}, expected exactly 10.0")
    verdict(2, problems)


def test_criterion_03_average_precision_exact():
    rnd = random.Random(303)
    problems = []
    t0 = perf_counter()
    for i in range(1000):
        truths = [
            BoundingBox(
                0,
                rnd.uniform(0.2, 0.8),
                rnd.uniform(0.2, 0.8),
                rnd.uniform(0.05, 0.3),
                rnd.uniform(0.05, 0.3),
            )
            for _ in range(rnd.randint(0, 4))
        ]
        preds = []
        for _ in range(rnd.randint(0, 5)):
            if truths and rnd.random() < 0.6:
                t = rnd.choice(truths)
                b = BoundingBox(
                    0,
                    min(max(t.cx + rnd.gauss(0, 0.03), 0.2), 0.8),
                    min(max(t.cy + rnd.gauss(0, 0.03), 0.2), 0.8),
                    t.w,
                    t.h,
                )
            else:
                b = BoundingBox(0, rnd.uniform(0.2, 0.8), rnd.uniform(0.2, 0.8), 0.1, 0.1)
            preds.append((b, rnd.random()))
        thresh = 0.5 + 0.05 * rnd.randint(0, 9)
        got = average_precision(preds, truths, thresh)
        want = ap_ref(preds, truths, thresh)
        if got != want:
            problems.append(f"instance {i}: {got!r} != {want!r}")
    elapsed = perf_counter() - t0
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.2f}s, budget is 5s")
    verdict(3, problems)


def test_criterion_04_car_par_quadrature():
    rnd = random.Random(404)
    problems = []
    t0 = perf_counter()
    for i in range(50):
        n = rnd.randint(2, 12)
        costs = []
        total = 0.0
        for _ in range(n):
            total += rnd.uniform(0.2, 3.0)
            costs.append(total)
        maps = [rnd.uniform(0.02, 0.98) for _ in range(n)]
        curve = PerfCostCurve([(c, m) for c, m in zip(costs, maps)])
        for _ in range(2):
            budget = rnd.uniform(0.0, 1.3 * costs[-1])
            got = car(curve, budget)
            want = car_quadrature(curve.points, budget)
            if abs(got - want) > 1e-9:
                problems.append(f"curve {i}: car({budget:.3f}) off by {got - want:.3e}")
        max_map = max(maps)
        for _ in range(2):
            budget = rnd.uniform(0.0, max_map)
            got = par(curve, budget)
            want = par_quadrature(curve.points, budget)
            if abs(got - want) > 1e-6:
                problems.append(f"curve {i}: par({budget:.3f}) off by {got - want:.3e}")
    elapsed = perf_counter() - t0
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.2f}s, budget is 10s")
    verdict(4, problems)


def test_criterion_05_cost_envelope(small_pool, envelope_runs):
    by_kind, elapsed = envelope_runs
    train_costs = [small_pool.sequences[s].meta.cost_hours for s in small_pool.train_ids]
    acquisitions = ENVELOPE_SEED_SEQS + ENVELOPE_ROUNDS
    lower, upper = theoretical_cost_bounds(train_costs, acquisitions)
    problems = []
    for kind, records in by_kind.items():
        for rec in records:
            k = ENVELOPE_SEED_SEQS + rec.round_index
            lo, hi = lower[k - 1], upper[k - 1]
            if not (lo - 1e-9 <= rec.cum_cost_hours <= hi + 1e-9):
                problems.append(
                    f"{kind} seed {rec.seed} round {rec.round_index}: "
                    f"{rec.cum_cost_hours:.6f} outside [{lo:.6f}, {hi:.6f}]"
                )
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, budget is 60s")
    verdict(5, problems)


def test_criterion_06_cost_aware_beats_random(default_pool):
    seeds = tuple(range(20))
    t0 = perf_counter()

    def totals(kind):
        cfg = RunConfig(
            pool_source=GenConfig(),
            strategy=StrategySpec(kind),
            seeds=seeds,
            evaluate=False,
        )
        records = run_experiment(cfg, pool=default_pool)
        last = max(r.round_index for r in records)
        return {r.seed: r.cum_cost_hours for r in records if r.round_index == last}

    random_mean = sum(totals("random").values()) / len(seeds)
    problems = []
    for kind in ("min_motion", "min_boxes"):
        per_seed = totals(kind)
        wins = sum(1 for total in per_seed.values() if total < random_mean)
        if wins < 18:
            problems.append(f"{kind} beats the random mean in {wins}/20 seeds, need 18")
    elapsed = perf_counter() - t0
    if elapsed >= 300.0:
        problems.append(f"took {elapsed:.1f}s, budget is 300s")
    verdict(6, problems)


# Which overhead each kind pays, stated here rather than read from the code:
# the detector every round, one flow pass up front, or nothing.
OVERHEAD_REGIMES = {
    "random": "none",
    "least_frame": "none",
    "most_frame": "none",
    "min_motion": "conformal",
    "min_max_motion": "conformal",
    "min_boxes": "conformal",
    "entropy": "inferential",
    "least_confidence": "inferential",
    "margin": "inferential",
    "false_switch": "inferential",
    "gauss_switch": "inferential",
    "coreset": "inferential",
}


def test_criterion_07_overhead_regimes(small_pool, envelope_runs):
    by_kind, _ = envelope_runs
    flow_price = OverheadModel().flow_gflops_per_pair
    total_train_frames = sum(small_pool.sequences[s].n_frames for s in small_pool.train_ids)
    problems = []
    if set(OVERHEAD_REGIMES) != set(by_kind):
        problems.append(f"regime table covers {sorted(OVERHEAD_REGIMES)}, runs {sorted(by_kind)}")
    for kind, records in by_kind.items():
        regime = OVERHEAD_REGIMES.get(kind)
        for seed in ENVELOPE_SEEDS:
            series = [r.cum_overhead_gflops for r in sorted(
                (r for r in records if r.seed == seed), key=lambda r: r.round_index
            )]
            if regime == "inferential":
                if series[0] <= 0.0:
                    problems.append(f"{kind} seed {seed}: no charge at round 0")
                if any(b <= a for a, b in zip(series, series[1:])):
                    problems.append(f"{kind} seed {seed}: overhead not strictly increasing")
            elif regime == "conformal":
                if abs(series[0] - flow_price * total_train_frames) > 1e-6:
                    problems.append(f"{kind} seed {seed}: front-load {series[0]!r}")
                if any(v != series[0] for v in series[1:]):
                    problems.append(f"{kind} seed {seed}: overhead varies after round 0")
            else:
                if any(v != 0.0 for v in series):
                    problems.append(f"{kind} seed {seed}: free strategy charged overhead")
    verdict(7, problems)


def test_criterion_08_records_are_reproducible(tmp_path):
    cfg = RunConfig(
        pool_source=SMALL_GEN,
        strategy=StrategySpec("entropy"),
        seed_sequences=2,
        rounds=5,
        seeds=(0, 1),
        evaluate=True,
    )
    problems = []
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        run_experiment(cfg, out_dir=out)
        blobs.append((out / "records.csv").read_bytes())
    if blobs[0] != blobs[1]:
        problems.append("records.csv differs between two identical executions")
    verdict(8, problems)


def test_criterion_09_selection_matches_enumeration():
    rnd = random.Random(909)
    ids = [f"p{i}" for i in range(6)]
    lengths = {sid: rnd.randint(4, 12) for sid in ids}
    motion = {
        sid: [0] + [rnd.randint(0, 40) for _ in range(lengths[sid] - 1)] for sid in ids
    }
    boxes = {sid: [rnd.randint(0, 5) for _ in range(lengths[sid])] for sid in ids}

    pool = PoolState.from_sequences(
        [make_sequence(sid, n_frames=lengths[sid]) for sid in ids]
    )
    flow = {sid: FlowStats(motion[sid], boxes[sid]) for sid in ids}
    # The runner offers only what is not labeled yet; p2 is labeled.
    unlabeled = [sid for sid in ids if sid != "p2"]
    problems = []

    def check(kind, got, want, note=""):
        if got != want:
            problems.append(f"{kind}{note}: {got} != {want}")

    # score-driven kinds against a rank-by-score enumeration
    for kind in ("entropy", "least_confidence", "margin", "false_switch"):
        for trial in range(20):
            scores = {sid: rnd.random() for sid in ids}
            for b in (1, 2, 3):
                want = sorted(unlabeled, key=lambda s: (-scores[s], s))[:b]
                got = select(kind, unlabeled, scores, b, 0)
                check(kind, got, want, f" trial {trial} b={b}")

    # ... and as the runner ranks a sequence round: one criterion pass over
    # the open sequences' frames, each sequence's mean, acquisition.rank
    def frame_value(kind, p, count, prev):
        if kind == "entropy":
            return -sum(v * math.log(v) for v in (p, 1.0 - p) if v > 0.0)
        if kind == "least_confidence":
            return 1.0 - max(p, 1.0 - p)
        if kind == "margin":
            return -abs(2.0 * p - 1.0)
        return 0.0 if prev is None else abs(float(count) - float(prev))

    labeled = {"p2": set(range(lengths["p2"]))}
    for kind in ("entropy", "least_confidence", "margin", "false_switch"):
        for trial in range(20):
            table, previous = (
                {
                    sid: (
                        [rnd.choice([0.0, 1.0]) if rnd.random() < 0.1 else rnd.random()
                         for _ in range(lengths[sid])],
                        [rnd.randint(0, 6) for _ in range(lengths[sid])],
                    )
                    for sid in ids
                }
                for _ in range(2)
            )
            if trial % 2:
                previous = {}  # round 1: no switch history
            means = {}
            for sid in unlabeled:
                prev = previous[sid][1] if previous else [None] * lengths[sid]
                total = 0.0
                for p, count, before in zip(*table[sid], prev):
                    total += frame_value(kind, p, count, before)
                means[sid] = total / lengths[sid]
            open_table = {sid: table[sid] for sid in unlabeled}
            sid_index, _, values = _frame_candidates(
                kind, unlabeled, lengths, labeled, open_table, previous, False
            )
            for b in (1, 2, 3):
                want = sorted(unlabeled, key=lambda s: (-means[s], s))[:b]
                picks = acquisition.rank(kind, values, sid_index.size, b, 0)
                got = [unlabeled[i] for i in sid_index[picks]]
                check(kind, got, want, f" runner trial {trial} b={b}")

    def catalog_pick(spec, round_index=1):
        """catalog_scores' array through acquisition.rank, as the runner
        ranks it; select over the same scores as a dict must agree."""
        values = catalog_scores(spec, pool, unlabeled, flow, round_index)
        picks = acquisition.rank(spec.kind, values, len(unlabeled), spec.batch_size, 0)
        got = [unlabeled[i] for i in picks]
        scores = dict(zip(unlabeled, values.tolist()))
        check(spec.kind, select(spec.kind, unlabeled, scores, spec.batch_size, 0), got, " select")
        return got

    # catalog-driven kinds against direct criterion enumeration
    rank_cases = {
        "least_frame": lambda s: (lengths[s], s),
        "most_frame": lambda s: (-lengths[s], s),
        "min_motion": lambda s: (sum(motion[s]), s),
        "min_boxes": lambda s: (sum(boxes[s]), s),
    }
    for kind, key in rank_cases.items():
        for b in (1, 2, 3):
            want = sorted(unlabeled, key=key)[:b]
            got = catalog_pick(StrategySpec(kind, batch_size=b))
            check(kind, got, want, f" b={b}")

    # alternating-parity kind over consecutive rounds, both phases
    for phase in ("max_first", "min_first"):
        for round_index in (1, 2, 3, 4):
            even = round_index % 2 == 0
            use_min = even if phase == "max_first" else not even
            key = (lambda s: (sum(motion[s]), s)) if use_min else (
                lambda s: (-sum(motion[s]), s)
            )
            want = sorted(unlabeled, key=key)[:2]
            got = catalog_pick(
                StrategySpec("min_max_motion", batch_size=2, parity_phase=phase),
                round_index,
            )
            check("min_max_motion", got, want, f" {phase} round {round_index}")

    # coreset against the greedy k-center definition
    for trial in range(10):
        features = {sid: np.array([rnd.random() for _ in range(3)]) for sid in ids}
        want = kcenter_ref(unlabeled, ["p2"], features, 2)
        got = select("coreset", unlabeled, features, 2, 0, centers=["p2"])
        check("coreset", got, want, f" trial {trial}")

    # switch-mixture kind against its documented sampling recipe
    gauss_scores = {}
    for i, sid in enumerate(ids):
        gauss_scores[sid] = 0.1 + 0.01 * i if i < 3 else 1.0 + 0.01 * i
    values = np.array([gauss_scores[s] for s in unlabeled])
    fit = fit_gmm2(values)
    resp = fit.responsibilities(values)
    members = [sid for sid, r in zip(unlabeled, resp[:, 1]) if r > 0.5]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7)))
    want = [str(s) for s in rng.choice(np.array(members, dtype=object), size=2, replace=False)]
    got = select("gauss_switch", unlabeled, gauss_scores, 2, 7)
    check("gauss_switch", got, want)

    # random: deterministic draw over the sorted unlabeled ids
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3)))
    want = [str(s) for s in rng.choice(np.array(unlabeled, dtype=object), size=2, replace=False)]
    got = select("random", unlabeled, None, 2, 3)
    check("random", got, want)
    if "p2" in got:
        problems.append("random selected a labeled sequence")

    # Frame candidates, as singular rounds offer them: the (sequence, frame)
    # pairs not labeled yet, here all of p2 and frames 0 and 3 of p0.
    taken = {("p0", 0), ("p0", 3)} | {("p2", f) for f in range(lengths["p2"])}
    units = [
        (sid, f) for sid in ids for f in range(lengths[sid]) if (sid, f) not in taken
    ]
    shuffled = list(units)
    rnd.shuffle(shuffled)

    # top score over pairs; coarse scores force ties onto the smaller pair
    for kind in ("entropy", "least_confidence", "margin", "false_switch"):
        for trial in range(10):
            scores = {
                (sid, f): rnd.randint(0, 3) / 4
                for sid in ids
                for f in range(lengths[sid])
            }
            for b in (1, 5, 12):
                want = sorted(units, key=lambda u: (-scores[u], u))[:b]
                got = select(kind, shuffled, scores, b, 0)
                check(kind, got, want, f" frames trial {trial} b={b}")

    # GauSS over pairs: sample from the high component of the mixture
    frame_scores = {u: (5.0 if rnd.random() < 0.3 else 0.0) + rnd.random() for u in units}
    values = np.array([frame_scores[u] for u in units])
    fit = fit_gmm2(values)
    members = [u for u, r in zip(units, fit.responsibilities(values)[:, 1]) if r > 0.5]
    for seed in range(5):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        want = [members[i] for i in rng.choice(len(members), size=4, replace=False)]
        got = select("gauss_switch", shuffled, frame_scores, 4, seed)
        check("gauss_switch", got, want, f" frames seed {seed}")
    flat = {u: 0.5 for u in units}
    check("gauss_switch", select("gauss_switch", shuffled, flat, 3, 0), units[:3], " flat frames")

    # random over pairs: a seeded draw over the sorted pairs
    for seed in range(5):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 2])))
        want = [units[i] for i in rng.choice(len(units), size=6, replace=False)]
        got = select("random", shuffled, None, 6, [seed, 2])
        check("random", got, want, f" frames seed {seed}")
        if taken & set(got):
            problems.append("random selected a labeled frame")

    verdict(9, problems)


def test_criterion_10_correlation_exactness(default_pool):
    rnd = random.Random(1010)
    base = list(range(1, 9))
    problems = []
    for i in range(200):
        x = base[:]
        y = base[:]
        rnd.shuffle(x)
        rnd.shuffle(y)
        entry = correlations(x, y)
        want = (pearson_ref(x, y), pearson_ref(ranks_ref(x), ranks_ref(y)), tau_b_ref(x, y))
        got = (entry.pearson, entry.spearman, entry.kendall_tau_b)
        if got != want:
            problems.append(f"permutation {i}: {got} != {want}")
    sids = sorted(default_pool.sequences)
    costs = [default_pool.sequences[s].meta.cost_hours for s in sids]
    lengths = [float(default_pool.sequences[s].n_frames) for s in sids]
    r = correlations(costs, lengths).pearson
    if r is None or not (0.05 <= r <= 0.40):
        problems.append(f"generated cost/length correlation {r!r} outside [0.05, 0.40]")
    verdict(10, problems)


def test_criterion_11_persistence_round_trip(tmp_path):
    rnd = random.Random(1111)
    problems = []
    for i in range(100):
        cfg = GenConfig(
            rng_seed=i,
            n_sequences=rnd.randint(4, 10),
            frame_len_range=(3, rnd.randint(5, 10)),
            raster_size=(rnd.randint(16, 20), rnd.randint(16, 20)),
            objects_per_seq_range=(0, rnd.randint(1, 3)),
            speed_range=(0.3, rnd.uniform(1.0, 2.5)),
            occlusion_rate=rnd.uniform(0.0, 0.9),
        )
        pool = generate_pool(cfg)
        root = tmp_path / f"pool{i:03d}"
        write_pool(pool, root)
        loaded = load_pool(root)
        if not pools_match(pool, loaded, coord_tol=1e-6):
            problems.append(f"pool {i}: numeric drift beyond 1e-6 after reload")
            continue
        if sorted(loaded.sequences) != sorted(pool.sequences):
            problems.append(f"pool {i}: sequence ids changed")
            continue
        for sid, seq in pool.sequences.items():
            back = loaded.sequences[sid]
            if back.meta.split is not seq.meta.split:
                problems.append(f"pool {i} {sid}: split changed")
            if back.n_frames != seq.n_frames:
                problems.append(f"pool {i} {sid}: frame count changed")
            if abs(back.meta.cost_hours - seq.meta.cost_hours) > 1e-6:
                problems.append(f"pool {i} {sid}: cost drifted")
            for fa, fb in zip(seq.frames, back.frames):
                if len(fa.boxes) != len(fb.boxes):
                    problems.append(f"pool {i} {sid}: box count changed")
                    break
                if any(a.occluded is not b.occluded for a, b in zip(fa.boxes, fb.boxes)):
                    problems.append(f"pool {i} {sid}: occlusion flags changed")
                    break
                if not np.array_equal(fa.raster, fb.raster):
                    problems.append(f"pool {i} {sid}: raster changed")
                    break
    verdict(11, problems)


def test_criterion_12_mixture_fit_and_fallback():
    problems = []
    values = [0.099, 0.1, 0.101] * 10 + [10.099, 10.1, 10.101] * 10
    fit = fit_gmm2(values)
    if abs(fit.means[0] - 0.1) > 1e-6 or abs(fit.means[1] - 10.1) > 1e-6:
        problems.append(f"means {fit.means} off the (0.1, 10.1) centers")
    if fit.degenerate:
        problems.append("well-separated fixture flagged degenerate")
    flat = fit_gmm2([2.0] * 8)
    if not flat.degenerate:
        problems.append("constant input not flagged degenerate")
    pool = PoolState.from_sequences([make_sequence(f"p{i}") for i in range(6)])
    constant = {sid: 0.7 for sid in pool.train_ids}
    got = select("gauss_switch", pool.train_ids, constant, 2, 0)
    if got != ["p0", "p1"]:
        problems.append(f"constant scores fell back to {got}, expected ['p0', 'p1']")
    verdict(12, problems)
