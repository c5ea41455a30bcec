"""Strategy selection tests: frame criteria, model scores, GMM, conformal
criteria, tie rules. The scalar criteria, the per-frame score loop, the
per-sequence and frame-level score dicts, the per-id catalog dict and the
tuple-sort ranking that the array code replaced are kept here as oracles;
the numpy EM that fit_gmm2 replaced is tests/gmm_oracle.py."""

import math

import numpy as np
import pytest

from seqal import acquisition
from seqal.acquisition import (
    ALL_KINDS,
    CONFORMAL_KINDS,
    GMM_FLOAT_ROWS,
    GMM_MAX_ITER,
    GMM_TOL,
    SCORE_KINDS,
    VARIANCE_FLOOR,
    GmmFit,
    StrategySpec,
    KIND_LEAST_FRAME,
    KIND_MIN_BOXES,
    KIND_MIN_MAX_MOTION,
    KIND_MIN_MOTION,
    KIND_MOST_FRAME,
    PARITY_MAX_FIRST,
    catalog_scores,
    coreset,
    fit_gmm2,
    frame_criterion,
    select,
)
from seqal.errors import DomainError, MissingScoresError, PoolExhaustedError, ShapeError
from seqal.flowproxy import FlowStats
from seqal.pool import PoolState
from seqal.runner import _frame_candidates

import gmm_oracle
from conftest import make_sequence


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"objectness {p} outside [0, 1]")


def score_entropy(p: float) -> float:
    """Binary entropy of the objectness, natural log, with 0*log(0) = 0."""
    _check_probability(p)
    total = 0.0
    for v in (p, 1.0 - p):
        if v > 0.0:
            total -= v * math.log(v)
    return total


def score_least_confidence(p: float) -> float:
    _check_probability(p)
    return 1.0 - max(p, 1.0 - p)


def score_margin(p: float) -> float:
    _check_probability(p)
    return -abs(2.0 * p - 1.0)


FRAME_TRANSFORMS = {
    "entropy": score_entropy,
    "least_confidence": score_least_confidence,
    "margin": score_margin,
}


def score_switch(prev_counts, curr_counts) -> list[float]:
    """Per-frame |change in predicted count|; all zero without a previous round."""
    curr = list(curr_counts)
    if prev_counts is None:
        return [0.0] * len(curr)
    prev = list(prev_counts)
    if len(prev) != len(curr):
        raise ShapeError(f"count lengths differ: {len(prev)} vs {len(curr)}")
    return [abs(float(c) - float(p)) for p, c in zip(prev, curr)]


def sequence_score(frame_values) -> float:
    values = list(frame_values)
    return float(sum(values) / len(values))


def round_scores_loop(kind, table, prev_counts, singular):
    """The runner's per-float score loop: prev_counts maps each sequence to
    the counts it had when last scored and is updated in place."""
    scores = {}
    for sid, (objectness, counts) in table.items():
        if kind in ("false_switch", "gauss_switch"):
            per_frame = score_switch(prev_counts.get(sid), counts)
            prev_counts[sid] = counts
        else:
            per_frame = [FRAME_TRANSFORMS[kind](float(p)) for p in objectness]
        if singular:
            for fid, value in enumerate(per_frame):
                scores[(sid, fid)] = float(value)
        else:
            scores[sid] = sequence_score(per_frame)
    return scores


def model_scores(kind, table, previous):
    """A sequence round's scores from one round's detector table, {sid:
    (objectness, counts)}, as select's dict: each sequence's mean frame
    criterion, added left to right. previous is the previous round's table,
    which the switch kinds diff against; {} in the first acquisition round."""
    scores = {}
    for sid, (objectness, counts) in table.items():
        prev = previous[sid][1] if previous else None
        values = frame_criterion(kind, objectness, counts, prev)
        scores[sid] = float(np.cumsum(values)[-1]) / values.size
    return scores


def candidates(kind, open_ids, n_frames, labeled, table, previous, singular):
    """_frame_candidates on the runner's arrays for a {sid: n} frame count
    map and a {sid: set of labeled frame ids} record."""
    lengths = [n_frames[s] for s in open_ids]
    mask = np.array([f in labeled.get(s, ()) for s in open_ids for f in range(n_frames[s])],
                    dtype=bool)
    return _frame_candidates(kind, open_ids, lengths, mask, table, previous, singular)


def sequence_means(kind, table, previous):
    """The runner's sequence-round values for every sequence of table, as
    {sid: value}."""
    ids = list(table)
    n_frames = {sid: len(table[sid][0]) for sid in ids}
    sid_index, fids, values = candidates(kind, ids, n_frames, {}, table, previous, False)
    assert sid_index.tolist() == list(range(len(ids))) and fids is None
    return dict(zip(ids, values.tolist()))


def frame_model_scores(kind, table, previous):
    """One score per (sid, fid) of a round's detector table, as model_scores
    gave them in frame rounds before the runner scored frames as arrays."""
    scores = {}
    for sid, (objectness, counts) in table.items():
        prev = previous[sid][1] if previous else None
        values = frame_criterion(kind, objectness, counts, prev)
        scores.update(((sid, fid), v) for fid, v in enumerate(values.tolist()))
    return scores


def round_scores(kind, table, previous, singular):
    """The runner's candidate values with no frame labeled: per sequence, or
    in frame rounds as {(sid, fid): value}."""
    if not singular:
        return sequence_means(kind, table, previous)
    ids = list(table)
    n_frames = {sid: len(table[sid][0]) for sid in ids}
    sid_index, fids, values = candidates(kind, ids, n_frames, {}, table, previous, True)
    return {(ids[i], f): v for i, f, v in zip(sid_index.tolist(), fids.tolist(), values.tolist())}


def top_by_score(ids, scores, b):
    return sorted(ids, key=lambda i: (-scores[i], i))[:b]


def select_oracle(kind, ids, scores, b, rng_seed):
    """select's random, top and GauSS rules by tuple sort and id lists."""
    ids = sorted(ids)

    def draw(pool):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(rng_seed)))
        return [pool[i] for i in rng.choice(len(pool), size=b, replace=False)]

    if kind == "random":
        return draw(ids)
    if kind != "gauss_switch":
        return top_by_score(ids, scores, b)
    values = np.array([scores[i] for i in ids], dtype=float)
    if len(ids) < 2 or float(np.ptp(values)) == 0.0:
        return top_by_score(ids, scores, b)
    fit = fit_gmm2(values)
    if fit.degenerate:
        return top_by_score(ids, scores, b)
    members = [i for i, r in zip(ids, fit.responsibilities(values)[:, 1]) if r > 0.5]
    if len(members) < b:
        return top_by_score(ids, scores, b)
    return draw(members)


def pool_of(lengths):
    """Train-only pool with given per-id frame counts."""
    return PoolState.from_sequences(
        [make_sequence(sid, n_frames=n) for sid, n in lengths.items()]
    )


def flow_of(motion, boxes=None):
    """Flow statistics per id from per-frame motion (and box) lists."""
    return {
        sid: FlowStats(m, m if boxes is None else boxes[sid])
        for sid, m in motion.items()
    }


def catalog_scores_dict(strategy, pool, ids, flow, round_index):
    """catalog_scores as a per-id dict filled by a per-id kind dispatch."""
    kind = strategy.kind
    out = {}
    for sid in ids:
        seq = pool.sequences[sid]
        if kind == KIND_LEAST_FRAME:
            out[sid] = -float(seq.n_frames)
        elif kind == KIND_MOST_FRAME:
            out[sid] = float(seq.n_frames)
        elif kind in (KIND_MIN_MOTION, KIND_MIN_MAX_MOTION):
            total = float(sum(flow[sid].motion_scores))
            if kind == KIND_MIN_MOTION:
                out[sid] = -total
            else:
                even = round_index % 2 == 0
                use_min = even if strategy.parity_phase == PARITY_MAX_FIRST else not even
                out[sid] = -total if use_min else total
        elif kind == KIND_MIN_BOXES:
            out[sid] = -float(sum(flow[sid].box_estimates))
        else:
            raise DomainError(f"not a conformal kind: {kind!r}")
    return out


def rank(spec, pool, flow=None, round_index=1):
    """A pool-statistic pick over the whole train split, as the runner makes
    it: catalog_scores' array through acquisition.rank."""
    ids = pool.train_ids
    values = catalog_scores(spec, pool, ids, flow or {}, round_index)
    picks = acquisition.rank(spec.kind, values, len(ids), spec.batch_size, 0)
    return [ids[i] for i in picks]


def kcenter_oracle(unlabeled, centers, features, b):
    """Independent greedy k-center: farthest point first, lexical ties."""
    chosen = []
    pool = list(unlabeled)
    cents = list(centers)
    for _ in range(b):
        best = None
        for sid in sorted(pool):
            if cents:
                d = min(
                    float(np.linalg.norm(np.asarray(features[sid]) - np.asarray(features[c])))
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


def fit_gmm2_loop(values) -> GmmFit:
    """Reference 2-GMM: EM over every value, one row per value. fit_gmm2
    runs the same EM over the distinct values weighted by their counts."""
    x = np.asarray(list(values), dtype=float)
    spread = float(np.ptp(x))
    pooled = max(float(np.var(x)), VARIANCE_FLOOR)
    if spread == 0.0:
        mean = float(x[0])
        return GmmFit((0.5, 0.5), (mean, mean), (pooled, pooled), 0, degenerate=True)

    mu = np.array([np.percentile(x, 25), np.percentile(x, 75)], dtype=float)
    if mu[0] == mu[1]:
        mu = np.array([float(x.min()), float(x.max())])
    w = np.array([0.5, 0.5])
    var = np.array([pooled, pooled])

    prev_ll = -np.inf
    for iterations in range(1, GMM_MAX_ITER + 1):
        log_p = (
            np.log(np.maximum(w, 1e-300))[None, :]
            - 0.5 * np.log(2.0 * math.pi * var)[None, :]
            - 0.5 * (x[:, None] - mu[None, :]) ** 2 / var[None, :]
        )
        peak = log_p.max(axis=1, keepdims=True)
        shifted = np.exp(log_p - peak)
        norm = shifted.sum(axis=1, keepdims=True)
        resp = shifted / norm
        ll = float(np.sum(peak.ravel() + np.log(norm.ravel())))

        mass = resp.sum(axis=0)
        mass = np.maximum(mass, 1e-300)
        w = mass / x.size
        mu = (resp * x[:, None]).sum(axis=0) / mass
        var = (resp * (x[:, None] - mu[None, :]) ** 2).sum(axis=0) / mass
        var = np.maximum(var, VARIANCE_FLOOR)

        if abs(ll - prev_ll) < GMM_TOL:
            break
        prev_ll = ll

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


# --- strategy spec -------------------------------------------------------


def is_conformal(kind):
    return kind in CONFORMAL_KINDS


def requires_scores(kind):
    return kind in SCORE_KINDS or kind == "coreset"


def test_kind_catalogue():
    assert len(ALL_KINDS) == 12
    assert SCORE_KINDS < set(ALL_KINDS)
    assert CONFORMAL_KINDS < set(ALL_KINDS)
    for kind in CONFORMAL_KINDS:
        assert is_conformal(kind) and not requires_scores(kind)
    for kind in SCORE_KINDS:
        assert requires_scores(kind) and not is_conformal(kind)


@pytest.mark.parametrize(
    "kw",
    [
        dict(kind="gradient"),
        dict(kind="entropy", batch_size=0),
        dict(kind="min_max_motion", parity_phase="sideways"),
    ],
)
def test_strategy_spec_validation(kw):
    with pytest.raises(DomainError):
        StrategySpec(**kw)


# --- frame criteria and model scores ------------------------------------


def criterion(kind, objectness):
    return frame_criterion(kind, np.asarray(objectness, dtype=float), None, None).tolist()


def test_entropy_values():
    got = criterion("entropy", [0.9, 0.5, 0.0, 1.0])
    assert got[0] == 0.3250829733914482
    assert got[1] == pytest.approx(math.log(2), abs=1e-15)
    assert got[2:] == [0.0, 0.0]


def test_entropy_symmetric():
    p = [0.1, 0.25, 0.4]
    assert criterion("entropy", p) == pytest.approx(
        criterion("entropy", [1 - v for v in p]), abs=1e-15
    )


def test_least_confidence_and_margin():
    assert criterion("least_confidence", [0.9, 0.5]) == pytest.approx([0.1, 0.5])
    assert criterion("margin", [0.9, 0.5]) == pytest.approx([-0.8, 0.0])
    # both already point the maximize-selects-uncertain direction
    for kind in ("least_confidence", "margin"):
        at_half, at_nine = criterion(kind, [0.5, 0.9])
        assert at_half > at_nine


@pytest.mark.parametrize("fn", [score_entropy, score_least_confidence, score_margin])
@pytest.mark.parametrize("p", [-0.1, 1.1, float("nan")])
def test_transforms_reject_bad_probability(fn, p):
    kind = next(k for k, f in FRAME_TRANSFORMS.items() if f is fn)
    with pytest.raises(DomainError):
        fn(p)
    with pytest.raises(DomainError, match=r"objectness outside \[0, 1\]"):
        criterion(kind, [0.5, p])


def test_sequence_score_is_mean():
    objectness = np.full(3, 0.5)
    table = {"a": (objectness, np.array([2, 4, 9]))}
    previous = {"a": (objectness, np.zeros(3, dtype=np.int64))}
    assert sequence_means("false_switch", table, previous) == {"a": 5.0}
    assert sequence_score([2.0, 4.0, 9.0]) == 5.0
    values = [0.2, 0.4, 0.9]
    table = {"b": (np.array([0.5 - v / 2 for v in values]), np.zeros(3, dtype=np.int64))}
    assert sequence_means("margin", table, {}) == {
        "b": sequence_score(score_margin(0.5 - v / 2) for v in values)
    }


def test_score_switch():
    counts = np.array([3, 1, 4])
    assert frame_criterion("false_switch", None, counts, None).tolist() == [0.0, 0.0, 0.0]
    got = frame_criterion("gauss_switch", None, counts, np.array([1, 5, 2]))
    assert got.tolist() == [2.0, 4.0, 2.0] == score_switch([1, 5, 2], counts)
    with pytest.raises(ShapeError):
        frame_criterion("false_switch", None, np.array([1, 2, 3]), np.array([1, 2]))


def test_frame_criterion_rejects_other_kinds():
    with pytest.raises(DomainError, match="not a model-score kind"):
        criterion("coreset", [0.5])


def objectness_sample():
    """Over 1,000 objectness values: 0, 1, 0.5, their neighbours, values
    where np.log(p) or np.log(1 - p) differs from math.log, and uniforms."""
    rng = np.random.default_rng(15)
    wide = rng.random(200_000)
    log_differs = (np.log(wide) != [math.log(v) for v in wide.tolist()]) | (
        np.log(1.0 - wide) != [math.log(v) for v in (1.0 - wide).tolist()]
    )
    edges = [0.0, 1.0, 0.5, 5e-324, np.nextafter(1.0, 0.0), np.nextafter(0.5, 0.0)]
    return np.concatenate([edges, wide[log_differs][:300], rng.random(1000)]), log_differs.sum()


def test_frame_criterion_matches_scalar_oracles():
    p, n_differs = objectness_sample()
    assert p.size >= 1000 and n_differs >= 300
    for kind, fn in FRAME_TRANSFORMS.items():
        got = frame_criterion(kind, p, None, None)
        assert got.tolist() == [fn(v) for v in p.tolist()], kind
    # np.log in place of math.log would move entropy on this sample
    both = np.concatenate([p, 1.0 - p])
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(both > 0.0, both * np.log(both), 0.0)
    np_entropy = (0.0 - terms[: p.size]) - terms[p.size :]
    assert (np_entropy != frame_criterion("entropy", p, None, None)).any()


def test_frame_criterion_switch_matches_oracle():
    rng = np.random.default_rng(16)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        curr = rng.integers(0, 12, n)
        prev = rng.integers(0, 12, n)
        for kind in ("false_switch", "gauss_switch"):
            assert frame_criterion(kind, None, curr, None).tolist() == score_switch(None, curr)
            assert frame_criterion(kind, None, curr, prev).tolist() == score_switch(prev, curr)


def detector_rounds(rng, n_rounds=4):
    """Per round, {sid: (objectness, counts)} over a shrinking open set,
    as a run's trace holds them; objectness hits 0, 0.5 and 1 now and then."""
    lengths = {f"s{i:02d}": int(rng.integers(1, 30)) for i in range(12)}
    open_ids = sorted(lengths)
    rounds = {}
    for rnd in range(1, n_rounds + 1):
        table = {}
        for sid in open_ids:
            p = rng.random(lengths[sid])
            p[rng.random(p.size) < 0.1] = rng.choice([0.0, 0.5, 1.0])
            table[sid] = (p, rng.integers(0, 8, lengths[sid]))
        rounds[rnd] = table
        open_ids = [s for s in open_ids if rng.random() < 0.8]
    return rounds


@pytest.mark.parametrize("singular", [False, True])
def test_model_scores_matches_runner_loop(singular):
    rng = np.random.default_rng(17 + singular)
    for _ in range(20):
        rounds = detector_rounds(rng)
        for kind in sorted(SCORE_KINDS):
            prev_counts = {}
            for rnd, table in rounds.items():
                want = round_scores_loop(kind, table, prev_counts, singular)
                previous = rounds[rnd - 1] if rnd > 1 else {}
                got = round_scores(kind, table, previous, singular)
                assert list(got) == list(want) and got == want, (kind, rnd)
                assert all(type(v) is float for v in got.values())
                if singular:
                    assert frame_model_scores(kind, table, previous) == want


def labeled_in_rounds(rng, n_frames):
    """A run's labeled_frames after some rounds: sequences in the order they
    were first touched, some labeled in full, some in part, some untouched."""
    labeled = {}
    for sid in rng.permutation(sorted(n_frames)).tolist():
        draw = rng.random()
        if draw < 0.25:
            labeled[sid] = set(range(n_frames[sid]))
        elif draw < 0.7:
            k = int(rng.integers(1, n_frames[sid] + 1))
            labeled[sid] = set(rng.choice(n_frames[sid], size=k, replace=False).tolist())
    return labeled


def rank_like_select(kind, units, scores, sid_index, fids, values, open_ids, rng):
    """acquisition.rank over the runner's candidate arrays picks what select
    picks over the unit list and its score dict, for several batch sizes;
    returns how many picks differ from the top rule."""
    drew = 0
    for b in sorted({1, 3, 25, max(len(units), 1)}):
        rng_seed = int(rng.integers(2**63))
        if b > len(units):
            with pytest.raises(PoolExhaustedError, match=rf"need {b} candidates, only"):
                acquisition.rank(kind, values, sid_index.size, b, rng_seed)
            continue
        picks = acquisition.rank(kind, values, sid_index.size, b, rng_seed)
        got = [open_ids[i] for i in sid_index[picks]]
        if fids is not None:
            got = list(zip(got, fids[picks].tolist()))
        want = select(kind, units, scores, b, rng_seed)
        assert got == want, b
        drew += kind != "random" and want != top_by_score(units, scores, b)
    return drew


@pytest.mark.parametrize("kind", ["gauss_switch", "false_switch", "entropy", "margin", "random"])
def test_frame_candidates_rank_like_select_over_unit_lists(kind):
    """The runner's rounds: candidate arrays over the unlabeled frames, or
    over the open sequences, ranked by acquisition.rank, pick what select
    picks over the (sid, fid) unit list with the frame-level score dict, or
    over the sequence ids with the model_scores oracle's dict."""
    rng = np.random.default_rng(["gauss_switch", "false_switch", "entropy", "margin",
                                 "random"].index(kind))
    drew = 0
    for trial in range(60):
        n_seqs = int(rng.integers(2, 14))
        n_frames = {f"s{i:02d}": int(rng.integers(1, 30)) for i in range(n_seqs)}
        labeled = labeled_in_rounds(rng, n_frames)
        open_ids = [s for s in sorted(n_frames) if len(labeled.get(s, ())) < n_frames[s]]
        units = [(s, f) for s in open_ids for f in range(n_frames[s])
                 if f not in labeled.get(s, ())]
        # Sequence rounds label whole sequences: every touched one is closed.
        whole = {s: set(range(n_frames[s])) for s in labeled}
        seq_open = [s for s in sorted(n_frames) if s not in whole]
        table = previous = seq_table = None
        if kind != "random":
            rounds = {
                rnd: {
                    sid: (rng.choice([0.0, 0.5, 1.0, *rng.random(4)], n_frames[sid]),
                          rng.integers(0, 3 + 6 * (trial % 2), n_frames[sid]))
                    for sid in sorted(n_frames)
                }
                for rnd in (1, 2)
            }
            table = {sid: rounds[2][sid] for sid in open_ids}
            seq_table = {sid: rounds[2][sid] for sid in seq_open}
            previous = rounds[1] if trial % 3 else {}
        sid_index, fids, values = candidates(
            kind, open_ids, n_frames, labeled, table, previous, True
        )
        assert sid_index.dtype == fids.dtype == np.int64
        assert list(zip([open_ids[i] for i in sid_index], fids.tolist())) == units
        scores = None
        if kind != "random":
            scores = frame_model_scores(kind, table, previous)
        if units and kind != "random":
            assert values.tolist() == [scores[u] for u in units]
        else:  # no table, or every frame labeled
            assert values is None
        drew += rank_like_select(kind, units, scores, sid_index, fids, values, open_ids, rng)

        sid_index, fids, values = candidates(
            kind, seq_open, n_frames, whole, seq_table, previous, False
        )
        assert sid_index.tolist() == list(range(len(seq_open))) and fids is None
        scores = None
        if kind != "random":
            scores = model_scores(kind, seq_table, previous)
        if seq_open and kind != "random":
            assert values.tolist() == [scores[s] for s in seq_open]
        else:  # no table, or every sequence labeled
            assert values is None
        drew += rank_like_select(kind, seq_open, scores, sid_index, None, values, seq_open, rng)
    # the GauSS draw, not its fallback to the top rule, picked some rounds
    assert (drew > 0) == (kind == "gauss_switch")


def test_sequence_means_equal_model_scores_oracle():
    """A sequence round's values from the runner's candidate pass are the
    oracle's means bit for bit, as Python floats: one-frame sequences,
    objectness of exactly 0 and 1, the switch kinds with and without a
    previous round."""
    rng = np.random.default_rng(23)
    lengths = {"a": 1, "b": 1, "c": 2, "d": 7, "e": 29, "f": 1}
    for trial in range(40):
        rounds = {}
        for rnd in (1, 2):
            table = {}
            for sid, n in lengths.items():
                p = rng.random(n)
                p[rng.random(n) < 0.3] = rng.choice([0.0, 1.0])
                table[sid] = (p, rng.integers(0, 8, n))
            table["a"] = (np.zeros(1), table["a"][1])
            table["b"] = (np.ones(1), table["b"][1])
            table["c"] = (np.array([0.0, 1.0]), table["c"][1])
            rounds[rnd] = table
        for kind in sorted(SCORE_KINDS):
            for previous in ({}, rounds[1]):
                got = sequence_means(kind, rounds[2], previous)
                want = model_scores(kind, rounds[2], previous)
                assert list(got) == list(want) and got == want, (trial, kind)
                assert all(type(v) is float for v in got.values())
                if kind in ("false_switch", "gauss_switch") and not previous:
                    assert set(got.values()) == {0.0}


def test_catalog_scores_array_matches_per_id_dict():
    rng = np.random.default_rng(24)
    for trial in range(20):
        lengths = {f"s{i:02d}": int(rng.integers(1, 12)) for i in range(int(rng.integers(1, 9)))}
        pool = pool_of(lengths)
        flow = flow_of(
            {s: [0] + rng.integers(0, 40, n - 1).tolist() for s, n in lengths.items()},
            boxes={s: rng.integers(0, 5, n).tolist() for s, n in lengths.items()},
        )
        ids = sorted(rng.choice(sorted(lengths), int(rng.integers(0, len(lengths) + 1)),
                                replace=False).tolist())
        for kind in sorted(CONFORMAL_KINDS):
            for phase in ("max_first", "min_first"):
                spec = StrategySpec(kind, parity_phase=phase)
                for round_index in (1, 2, 3, 4):
                    got = catalog_scores(spec, pool, ids, flow, round_index)
                    want = catalog_scores_dict(spec, pool, ids, flow, round_index)
                    assert got.dtype == np.float64 and got.shape == (len(ids),)
                    assert got.tolist() == [want[s] for s in ids], (kind, phase, round_index)
                    assert [math.copysign(1, v) for v in got.tolist()] == [
                        math.copysign(1, want[s]) for s in ids]


def test_model_scores_switch_history_is_the_previous_table():
    table = detector_rounds(np.random.default_rng(18), n_rounds=1)[1]
    shifted = {s: (p, c + 5) for s, (p, c) in table.items()}
    assert set(sequence_means("false_switch", table, {}).values()) == {0.0}
    assert set(sequence_means("false_switch", table, shifted).values()) == {5.0}


def score_dicts(rng, pairs):
    """Random candidate ids (sequence ids or (id, frame) pairs) with scores
    from a small set, so ties are common, ±0.0 among them."""
    ids = [f"s{i:02d}" for i in range(int(rng.integers(1, 40)))]
    if pairs:
        ids = [(s, int(f)) for s in ids[:8] for f in range(int(rng.integers(1, 6)))]
    choices = np.array([-0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 3.0, 7.5, -1.0])
    values = rng.choice(choices, len(ids)) if rng.random() < 0.7 else rng.random(len(ids))
    order = rng.permutation(len(ids))
    return {ids[i]: float(values[i]) for i in order}


def test_select_matches_tuple_sort_oracle():
    rng = np.random.default_rng(19)
    kinds = ("entropy", "false_switch", "gauss_switch", "random")
    drew = 0
    for trial in range(200):
        scores = score_dicts(rng, pairs=trial % 2 == 1)
        ids = list(scores)
        b = int(rng.integers(1, len(ids) + 1))
        for kind in kinds:
            got = select(kind, ids, None if kind == "random" else scores, b, trial)
            assert got == select_oracle(kind, ids, scores, b, trial), (kind, trial)
        drew += select("gauss_switch", ids, scores, b, trial) != top_by_score(ids, scores, b)
    assert drew > 0  # the GauSS draw, not only its fallback, was compared


# --- GMM -----------------------------------------------------------------


def test_fit_gmm2_recovers_separated_clusters():
    low = [0.099, 0.1, 0.101] * 10
    high = [10.099, 10.1, 10.101] * 10
    fit = fit_gmm2(low + high)
    assert fit.means[0] == pytest.approx(0.1, abs=1e-6)
    assert fit.means[1] == pytest.approx(10.1, abs=1e-6)
    assert not fit.degenerate
    assert fit.weights[0] == pytest.approx(0.5, abs=1e-9)
    assert sum(fit.weights) == pytest.approx(1.0, abs=1e-12)
    assert fit.means[0] <= fit.means[1]


def test_fit_gmm2_constant_input_degenerate():
    fit = fit_gmm2([2.5] * 8)
    assert fit.degenerate
    assert fit.means == (2.5, 2.5)
    assert fit.iterations == 0


def test_fit_gmm2_validation():
    with pytest.raises(DomainError):
        fit_gmm2([1.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_fit_gmm2_rejects_non_finite(bad):
    with pytest.raises(DomainError, match="non-finite"):
        fit_gmm2([0.0, 1.0, bad, 2.0])


def test_fit_gmm2_rejects_a_spread_whose_variance_overflows():
    with pytest.raises(DomainError, match="variance inf"):
        fit_gmm2([0.0, 1e200])


def test_responsibilities_rows_sum_to_one():
    fit = fit_gmm2([0.0, 0.1, 0.0, 5.0, 5.1, 5.2])
    resp = fit.responsibilities([0.05, 2.5, 5.05])
    assert resp.shape == (3, 2)
    assert np.allclose(resp.sum(axis=1), 1.0)
    assert resp[0, 0] > 0.99  # near the low cluster
    assert resp[2, 1] > 0.99  # near the high cluster


# --- select: scores path -------------------------------------------------


def test_select_top_score_with_lexicographic_ties():
    scores = {"a": 1.0, "b": 1.0, "c": 0.5}
    assert select("entropy", ["a", "b", "c"], scores, 1, 0) == ["a"]
    assert select("entropy", ["a", "b", "c"], scores, 2, 0) == ["a", "b"]
    # frame candidates tie toward the smaller (sequence, frame) pair
    units = [("b", 0), ("a", 1), ("a", 0), ("b", 1)]
    pair_scores = {("a", 0): 0.5, ("a", 1): 0.9, ("b", 0): 0.9, ("b", 1): 0.5}
    assert select("entropy", units, pair_scores, 3, 0) == [("a", 1), ("b", 0), ("a", 0)]


def test_select_scale_invariance():
    ids = ["a", "b", "c", "d"]
    scores = {"a": 0.3, "b": 0.9, "c": 0.1, "d": 0.6}
    base = select("margin", ids, scores, 3, 0)
    scaled = {k: 17.0 * v for k, v in scores.items()}
    assert select("margin", ids, scaled, 3, 0) == base
    assert base == ["b", "d", "a"]


def test_select_insertion_order_invariance():
    scores = {"a": 0.2, "b": 0.8, "c": 0.5}
    seqs = [make_sequence(s, n_frames=3) for s in ("a", "b", "c")]
    forward = list(PoolState.from_sequences(seqs).sequences)
    backward = list(PoolState.from_sequences(list(reversed(seqs))).sequences)
    assert forward != backward
    assert select("least_confidence", forward, scores, 2, 0) == select(
        "least_confidence", backward, scores, 2, 0
    )


def test_select_requires_scores_for_model_kinds():
    for kind in sorted(SCORE_KINDS | {"coreset"}):
        with pytest.raises(MissingScoresError):
            select(kind, ["a", "b"], None, 1, 0)


def test_select_missing_score_entry():
    with pytest.raises(MissingScoresError):
        select("entropy", ["a", "b"], {"a": 0.5}, 1, 0)


def test_select_pool_exhausted():
    with pytest.raises(PoolExhaustedError):
        select("entropy", ["a"], {"a": 0.5}, 2, 0)
    with pytest.raises(PoolExhaustedError):
        select("random", [("a", 0)], None, 2, 0)


@pytest.mark.parametrize("kind", ["random", "entropy", "gauss_switch"])
@pytest.mark.parametrize("b", [0, -1])
def test_rank_and_select_refuse_a_batch_below_one(kind, b):
    with pytest.raises(DomainError, match=f"got {b}$"):
        acquisition.rank(kind, np.array([0.3, 0.2, 0.1]), 3, b, 0)
    with pytest.raises(DomainError, match=f"got {b}$"):
        select(kind, ["a", "b", "c"], {"a": 0.3, "b": 0.2, "c": 0.1}, b, 0)


@pytest.mark.parametrize("kind", ["entropy", "gauss_switch"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_rank_and_select_refuse_a_non_finite_value(kind, bad):
    with pytest.raises(DomainError, match=f"non-finite value: {bad}$"):
        acquisition.rank(kind, np.array([0.3, bad, 0.1]), 3, 1, 0)
    with pytest.raises(DomainError, match=f"non-finite value: {bad}$"):
        select(kind, ["a", "b", "c"], {"a": 0.3, "b": bad, "c": 0.1}, 1, 0)


# --- select: random ------------------------------------------------------


def test_random_deterministic_per_seed():
    ids = list("abcdefgh")
    a = select("random", ids, None, 3, 11)
    b = select("random", ids, None, 3, 11)
    assert a == b
    assert set(a) <= set("abcdefgh") and len(set(a)) == 3
    draws = {tuple(select("random", ids, None, 3, s)) for s in range(12)}
    assert len(draws) > 1


# --- catalog scores: conformal criteria ----------------------------------


def test_least_frame_picks_shortest():
    pool = pool_of({"a": 5, "b": 3, "c": 9})
    assert rank(StrategySpec("least_frame"), pool) == ["b"]
    assert rank(StrategySpec("most_frame"), pool) == ["c"]


def test_min_motion_picks_least_total_motion():
    pool = pool_of({"a": 2, "b": 2, "c": 2})
    flow = flow_of({"a": [0, 5], "b": [0, 1], "c": [0, 9]})
    assert rank(StrategySpec("min_motion"), pool, flow) == ["b"]


def test_min_boxes_picks_fewest_estimates():
    pool = pool_of({"a": 2, "b": 2})
    flow = flow_of({"a": [0, 0], "b": [0, 0]}, boxes={"a": [0, 4], "b": [0, 2]})
    assert rank(StrategySpec("min_boxes"), pool, flow) == ["b"]


def test_min_max_motion_alternates_by_round():
    pool = pool_of({"a": 2, "b": 2})
    flow = flow_of({"a": [0, 10], "b": [0, 2]})
    spec = StrategySpec("min_max_motion")
    # round 1 (odd) takes the max side under max_first, round 2 the min side
    assert rank(spec, pool, flow, round_index=1) == ["a"]
    assert rank(spec, pool, flow, round_index=2) == ["b"]
    assert rank(spec, pool, flow, round_index=3) == ["a"]


def test_min_max_motion_min_first_swaps_phase():
    pool = pool_of({"a": 2, "b": 2})
    flow = flow_of({"a": [0, 10], "b": [0, 2]})
    spec = StrategySpec("min_max_motion", parity_phase="min_first")
    assert rank(spec, pool, flow, round_index=1) == ["b"]
    assert rank(spec, pool, flow, round_index=2) == ["a"]


def test_conformal_tie_breaks_lexicographically():
    pool = pool_of({"d": 4, "b": 4, "c": 4})
    assert rank(StrategySpec("least_frame"), pool) == ["b"]


def test_catalog_scores_rejects_model_kinds():
    pool = pool_of({"a": 2})
    with pytest.raises(DomainError):
        catalog_scores(StrategySpec("entropy"), pool, ["a"], {}, 1)


# --- select: coreset -----------------------------------------------------


def test_coreset_hand_case():
    features = {"a": np.array([0.0]), "b": np.array([10.0]), "c": np.array([4.0])}
    picked = select("coreset", ["b", "c"], features, 2, 0, centers=["a"])
    assert picked == ["b", "c"]


def test_coreset_matches_kcenter_oracle():
    """acquisition.coreset against the independent oracle on drawn inputs:
    widths 1-8, duplicate rows (so distances tie), rows in any order, no
    centers, b up to the open count, a single open row."""
    rng = np.random.default_rng(9)
    seen = set()
    for trial in range(600):
        n, width = int(rng.integers(1, 13)), int(rng.integers(1, 9))
        feats = rng.normal(size=(n, width))
        if trial % 3 == 0:
            feats = feats[rng.integers(0, max(1, n // 2), size=n)]
        order = rng.permutation(n)
        n_centers = int(rng.integers(0, n))
        centers, open_rows = order[:n_centers], order[n_centers:]
        b = int(rng.integers(1, open_rows.size + 1))
        ids = [f"r{i:02d}" for i in range(n)]
        want = kcenter_oracle(
            [ids[i] for i in open_rows], [ids[i] for i in centers], dict(zip(ids, feats)), b
        )
        assert [ids[i] for i in coreset(feats, open_rows, centers, b)] == want
        seen.update(
            case
            for case, hit in (
                ("no centers", n_centers == 0),
                ("b = open count", b == open_rows.size),
                ("one open row", open_rows.size == 1),
                ("duplicates", len(np.unique(feats, axis=0)) < n),
            )
            if hit
        )
    assert seen == {"no centers", "b = open count", "one open row", "duplicates"}


def test_coreset_empty_centers_starts_lexicographic():
    features = {"a": np.array([0.0]), "b": np.array([0.0]), "c": np.array([1.0])}
    assert select("coreset", ["c", "b", "a"], features, 1, 0) == ["a"]


def test_coreset_refuses_what_it_cannot_rank():
    feats = np.array([[0.0], [1.0], [2.0]])
    for b in (0, -1):
        with pytest.raises(DomainError, match=f"got {b}$"):
            coreset(feats, [1, 2], [0], b)
    with pytest.raises(PoolExhaustedError):
        coreset(feats, [1, 2], [0], 3)
    for bad in (float("nan"), float("inf")):
        for row in (0, 2):  # a center row, an open row
            broken = feats.copy()
            broken[row, 0] = bad
            with pytest.raises(DomainError, match=f"non-finite feature: {bad}$"):
                coreset(broken, [1, 2], [0], 1)
    with pytest.raises(DomainError, match="non-finite feature: nan$"):
        select("coreset", ["b"], {"a": np.array([float("nan")]), "b": np.array([1.0])}, 1, 0,
               centers=["a"])


def test_coreset_missing_feature():
    with pytest.raises(MissingScoresError):
        select("coreset", ["a", "b"], {"a": np.array([0.0])}, 1, 0)


# --- select: gauss_switch ------------------------------------------------


def test_gauss_switch_samples_high_component():
    ids = [f"s{i}" for i in range(8)]
    scores = dict(zip(ids, [0.1, 0.12, 0.11, 0.09, 5.0, 5.2, 5.1, 4.9]))
    picked = select("gauss_switch", ids, scores, 2, 4)
    high = {"s4", "s5", "s6", "s7"}
    assert set(picked) <= high
    # reproduce the documented draw: membership then a seeded choice
    values = np.array([scores[s] for s in sorted(ids)])
    fit = fit_gmm2(values)
    members = [
        s for s, r in zip(sorted(ids), fit.responsibilities(values)[:, 1]) if r > 0.5
    ]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(4)))
    expected = [str(s) for s in rng.choice(np.array(members, dtype=object), size=2, replace=False)]
    assert picked == expected


def test_gauss_switch_constant_scores_fall_back_to_order():
    ids = ["a", "b", "c"]
    scores = {s: 3.0 for s in ids}
    assert select("gauss_switch", ids, scores, 2, 0) == ["a", "b"]


def test_gauss_switch_small_component_falls_back():
    # one outlier: the high component holds a single member, batch needs two
    ids = ["a", "b", "c", "d", "e"]
    scores = {"a": 0.1, "b": 0.11, "c": 0.09, "d": 0.1, "e": 50.0}
    picked = select("gauss_switch", ids, scores, 2, 0)
    assert picked == ["e", "b"]  # plain score order


def test_gauss_switch_single_candidate():
    assert select("gauss_switch", ["a"], {"a": 1.0}, 1, 0) == ["a"]


@pytest.mark.filterwarnings("error")
def test_gauss_switch_refuses_an_overflowing_spread_without_a_warning():
    with pytest.raises(DomainError, match="variance inf"):
        select("gauss_switch", [1, 2, 3], {1: 1e308, 2: -1e308, 3: 2.0}, 1, 0)
    # the constancy test compares signed zeros equal, as ptp == 0 did
    assert select("gauss_switch", ["a", "b"], {"a": -0.0, "b": 0.0}, 1, 0) == ["a"]


def gmm_instances():
    """(family, values) for the grouped-EM oracle test: 300 instances."""
    rng = np.random.default_rng(20231)
    for _ in range(60):  # switch scores |count change|, a handful of distinct values
        n, lam = int(rng.integers(500, 4001)), rng.uniform(0.3, 6.0)
        yield "poisson", np.abs(rng.poisson(lam, n) - rng.poisson(lam, n)).astype(float)
    for _ in range(60):  # continuous, almost no repeats
        n1, n2 = rng.integers(20, 200, size=2)
        d, s = rng.uniform(0.0, 6.0), rng.uniform(0.2, 3.0)
        yield "continuous", np.concatenate([rng.normal(0.0, 1.0, n1), rng.normal(d, s, n2)])
    for _ in range(60):  # exactly two distinct values
        a, gap = rng.uniform(-5.0, 5.0), rng.uniform(1e-3, 10.0)
        na, nb = rng.integers(1, 300, size=2)
        yield "two-values", rng.permutation(np.repeat([a, a + gap], [na, nb]))
    for _ in range(60):  # one value holds more than 95% of the mass
        n = int(rng.integers(500, 3001))
        rest = max(1, int(n * rng.uniform(0.001, 0.045)))
        tail = np.abs(rng.poisson(2.0, rest) - rng.poisson(2.0, rest)) + 1.0
        yield "dominant", rng.permutation(np.concatenate([np.zeros(n - rest), tail]))
    for i in range(60):  # the mixtures of acceptance criteria 09 and 12
        n = int(rng.integers(6, 400))
        if i % 3 == 0:
            k = int(rng.integers(1, n))
            yield "acceptance", np.array([0.1 + 0.01 * j if j < k else 1.0 + 0.01 * j for j in range(n)])
        elif i % 3 == 1:
            yield "acceptance", np.where(rng.random(n) < 0.3, 5.0, 0.0) + rng.random(n)
        else:
            m = int(rng.integers(1, 40))
            yield "acceptance", np.array([0.099, 0.1, 0.101] * m + [10.099, 10.1, 10.101] * m)


def oracle_gauss_pick(values, fit, b, seed):
    """The GauSS recipe over ids 0..n-1 with the given scores and reference
    fit: high-component members by responsibility over every value, then a
    seeded draw, else score order."""
    by_score = sorted(range(values.size), key=lambda i: (-values[i], i))[:b]
    if fit.degenerate:
        return by_score
    members = np.flatnonzero(fit.responsibilities(values)[:, 1] > 0.5).tolist()
    if len(members) < b:
        return by_score
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return [members[i] for i in rng.choice(len(members), size=b, replace=False)]


def test_fit_gmm2_membership_matches_loop_oracle():
    mismatches, families = [], set()
    for index, (family, values) in enumerate(gmm_instances()):
        families.add(family)
        fit, want = fit_gmm2(values), fit_gmm2_loop(values)
        same_members = fit.degenerate == want.degenerate and np.array_equal(
            fit.responsibilities(values)[:, 1] > 0.5, want.responsibilities(values)[:, 1] > 0.5
        )
        scores = dict(enumerate(values.tolist()))
        b = 1 + index % 6
        picks = select("gauss_switch", list(scores), scores, b, index)
        if not same_members or picks != oracle_gauss_pick(values, want, b, index):
            mismatches.append((index, family))
    assert index + 1 >= 300 and len(families) == 5
    assert mismatches == []


def switch_score_sets():
    """Switch scores with 2 to 12 distinct small integers, 12 sets per
    count: from 8 distinct values on, np.sum's pairwise order applies to
    the log-likelihood."""
    rng = np.random.default_rng(20252)
    for k in range(2, 13):
        for _ in range(12):
            distinct = np.sort(rng.choice(16, size=k, replace=False))
            counts = rng.integers(1, 600, size=k)
            yield rng.permutation(np.repeat(distinct, counts)).astype(float)


def sequence_mean_sets():
    """Mean switch scores of open sequences, as a sequence round fits them:
    one distinct value per sequence, 3 sets each at 20, GMM_FLOAT_ROWS,
    GMM_FLOAT_ROWS + 1 and 90 sequences, so both EM paths run."""
    rng = np.random.default_rng(20253)
    for k in (20, GMM_FLOAT_ROWS, GMM_FLOAT_ROWS + 1, 90):
        for _ in range(3):
            distinct = rng.choice(4000, size=k, replace=False) / 1000.0
            yield rng.permutation(np.repeat(distinct, rng.integers(1, 3, size=k)))


def test_fit_gmm2_equals_numpy_oracle():
    fits, sizes = [], set()
    inputs = [v for _, v in gmm_instances()] + list(switch_score_sets()) + list(sequence_mean_sets())
    for values in inputs:
        fit = fit_gmm2(values)
        assert fit == gmm_oracle.fit_gmm2(values), values
        fits.append(fit)
        sizes.add(len(np.unique(values)))
    assert len(fits) == 300 + 11 * 12 + 4 * 3
    assert {GMM_FLOAT_ROWS, GMM_FLOAT_ROWS + 1, 384} <= sizes
    # both exits of the loop, and the variance floor; the weight floor
    # (1e-300) is not reached from fit_gmm2's start
    assert any(f.iterations == GMM_MAX_ITER for f in fits)
    assert any(0 < f.iterations < GMM_MAX_ITER for f in fits)
    assert any(VARIANCE_FLOOR in f.variances for f in fits)
