import bisect
import csv
import itertools
import math
import zlib
from pathlib import Path

import numpy as np
import pytest

import seqal.surrogate as sg
from seqal import ziggurat
from seqal.errors import FeatureError, TraceError
from seqal.metrics import truth_rows
from seqal.pool import (
    BoundingBox,
    Frame,
    Occlusion,
    PoolState,
    Season,
    Sequence,
    Split,
    clamp_box,
)
from seqal.runner import filter_small_boxes
from seqal.surrogate import (
    ScoreTrace,
    SurrogateState,
    frame_noise,
    frame_scores,
    pool_feature_table,
    predict_test,
    quality,
    read_traces,
    target_quality,
    write_traces,
)

from seqal.synth import GenConfig, generate_pool
from seqal.tables import parsed_rows, write_table

from conftest import count_calls, make_meta, make_pool, make_sequence


def make_state(labeled, round_index, kappa, noise_seed, features, sigma, weights=None):
    return SurrogateState(
        round_index=round_index,
        labeled_features=[features[s] for s in labeled],
        kappa=kappa,
        noise_seed=noise_seed,
        sigma=sigma,
        features=features,
        labeled_weights=None if weights is None else [weights[s] for s in labeled],
    )


def build_state(pool, labeled_ids, kappa=0.35, noise_seed=7, round_index=1):
    features, sigma = pool_feature_table(pool)
    return make_state(list(labeled_ids), round_index, kappa, noise_seed, features, sigma)


def test_sequence_feature_layout():
    seqs = [make_sequence(f"t{scene}", scene=scene) for scene in (9, 1)]
    seq = make_sequence("s", n_frames=2, boxes_per_frame=3, scene=5, season=Season.SUMMER)
    features, _ = pool_feature_table(PoolState.from_sequences([*seqs, seq]))
    feat = features["s"]
    assert feat.shape == (2 + 3 + 1,)
    assert feat[0] == pytest.approx(3.0)  # mean box count
    assert feat[2:5].tolist() == [0.0, 1.0, 0.0]
    assert feat[5] == float(int(Season.SUMMER))


def test_sequence_feature_unseen_scene_zero_block():
    seqs = [make_sequence(f"t{scene}", scene=scene) for scene in (0, 1)]
    seq = make_sequence("s", scene=99, split=Split.TEST)
    features, _ = pool_feature_table(PoolState.from_sequences([*seqs, seq]))
    assert features["s"][2:4].tolist() == [0.0, 0.0]


def mean_box_count(seq: Sequence) -> float:
    """Oracle: the mean per-frame box count, box by box."""
    return seq.total_boxes() / seq.n_frames


def mean_center_shift(seq: Sequence) -> float:
    """Oracle: mean per-frame sum of box-center displacements, in normalized
    units. Boxes are paired across consecutive frames by list position;
    frame 0 contributes zero."""
    if seq.n_frames == 1:
        return 0.0
    total = 0.0
    for prev, curr in zip(seq.frames, seq.frames[1:]):
        for a, b in zip(prev.boxes, curr.boxes):
            total += float(np.hypot(b.cx - a.cx, b.cy - a.cy))
    return total / seq.n_frames


def drawn_pool(rng: np.random.Generator, n_sequences: int) -> PoolState:
    """Sequences of 1-6 frames of 0-4 boxes, about a third of them small
    enough for the default box filter to drop."""
    seqs = []
    for i in range(n_sequences):
        frames = []
        for fid in range(int(rng.integers(1, 7))):
            sides = rng.choice([0.05, 0.2], size=int(rng.integers(0, 5)), p=[1 / 3, 2 / 3])
            boxes = [clamp_box(0, *rng.uniform(0.0, 1.0, 2), side, side) for side in sides]
            frames.append(Frame(fid, boxes))
        split = rng.choice(list(Split))
        seqs.append(Sequence(make_meta(f"d{i:02d}", scene=int(rng.integers(0, 3)), split=split), frames))
    return PoolState.from_sequences(seqs)


def test_feature_table_matches_box_by_box_oracle():
    rng = np.random.default_rng(11)
    pools = [drawn_pool(rng, 8) for _ in range(30)]
    pools += [generate_pool(GenConfig(rng_seed=s, n_sequences=12, frame_len_range=(1, 9))) for s in range(3)]
    seen = set()
    for pool in pools:
        kept = filter_small_boxes(pool)
        features, _ = pool_feature_table(kept)
        for sid, seq in kept.sequences.items():
            assert features[sid][:2].tolist() == [mean_box_count(seq), mean_center_shift(seq)]
            before = [len(f.boxes) for f in pool.sequences[sid].frames]
            after = [len(f.boxes) for f in seq.frames]
            if seq.n_frames == 1:
                seen.add("one frame")
            if sum(after) == 0:
                seen.add("box-free")
            if seq.n_frames > 1 and (after[0] < before[0] or after[-1] < before[-1]):
                seen.add("filtered at a boundary")
            if any(a == 0 < b for a, b in zip(after, before)):
                seen.add("emptied frame")
            if any(a != b for a, b in zip(after, after[1:])):
                seen.add("count changes")
    assert seen == {"one frame", "box-free", "filtered at a boundary", "emptied frame", "count changes"}


def test_sigma_is_median_pairwise_train_distance():
    pool = make_pool(n_train=5, n_val=1, n_test=1)
    features, sigma = pool_feature_table(pool)
    train = pool.train_ids
    dists = [
        math.dist(features[a], features[b])
        for a, b in itertools.combinations(train, 2)
    ]
    assert sigma == pytest.approx(float(np.median(dists)), abs=1e-12)


def test_sigma_floor_with_single_train_sequence():
    pool = make_pool(n_train=1, n_val=1, n_test=1)
    _, sigma = pool_feature_table(pool)
    assert sigma == 1.0


def quality_of(state, target):
    """quality of one target vector."""
    return float(quality(state, target[None, :])[0])


def test_quality_empty_labeled_set_is_zero(six_pool):
    state = build_state(six_pool, [])
    targets = np.stack([state.features[s] for s in six_pool.train_ids[:3]])
    got = quality(state, targets)
    assert got.dtype == np.float64 and got.tolist() == [0.0, 0.0, 0.0]


def test_quality_single_labeled_closed_form(six_pool):
    sid = six_pool.train_ids[0]
    other = six_pool.train_ids[3]
    state = build_state(six_pool, [sid], kappa=0.5)
    target = state.features[other]
    d2 = float(np.sum((state.features[sid] - target) ** 2))
    expected = 1.0 - math.exp(-0.5 * math.exp(-d2 / (2 * state.sigma**2)))
    assert quality_of(state, target) == pytest.approx(expected, abs=1e-12)


def test_quality_grows_with_labeled_set(six_pool):
    ids = six_pool.train_ids
    target = build_state(six_pool, []).features[ids[-1]]
    prev = 0.0
    for k in range(1, len(ids) + 1):
        q = quality_of(build_state(six_pool, ids[:k]), target)
        assert q > prev
        assert q < 1.0
        prev = q


def test_quality_feature_length_mismatch(six_pool):
    state = build_state(six_pool, six_pool.train_ids[:1])
    with pytest.raises(FeatureError, match="length mismatch"):
        quality(state, np.zeros((3, 2)))
    with pytest.raises(FeatureError):
        quality(state, np.zeros((1, 0)))
    with pytest.raises(FeatureError):  # one vector, not a matrix
        quality(state, state.features[six_pool.train_ids[0]])


def test_labeled_weights_scale_contributions(six_pool):
    sid = six_pool.train_ids[0]
    target_id = six_pool.train_ids[2]
    features, sigma = pool_feature_table(six_pool)
    full = make_state([sid], 1, 0.35, 0, features, sigma, weights={sid: 1.0})
    half = make_state([sid], 1, 0.35, 0, features, sigma, weights={sid: 0.5})
    t = features[target_id]
    # halving the weight halves the exponent
    assert math.log(1 - quality_of(half, t)) == pytest.approx(
        0.5 * math.log(1 - quality_of(full, t)), abs=1e-12
    )


def test_target_quality_unknown_sequence(six_pool):
    state = build_state(six_pool, six_pool.train_ids[:1])
    with pytest.raises(FeatureError):
        target_quality(state, make_sequence("stranger"))


# --- oracles ------------------------------------------------------------
# The per-target and per-frame forms quality, frame_scores and predict_test
# had before they were batched; the array code must match them bit for bit.


def _frame_rng(noise_seed, round_index, sequence_id, frame_id):
    """A frame's own stream, built the way the surrogate keys it: the
    sequence id enters through crc32, the seed modulo 2**64."""
    key = zlib.crc32(sequence_id.encode("utf-8"))
    seed = np.random.SeedSequence([noise_seed & 0xFFFFFFFFFFFFFFFF, round_index, key, frame_id])
    return np.random.Generator(np.random.PCG64(seed))


def quality_loop(state, target):
    """One np.sum per labeled feature, kernel terms summed left to right."""
    target = np.asarray(target, dtype=float)
    if not state.labeled_features:
        return 0.0
    total = 0.0
    weights = state.labeled_weights or [1.0] * len(state.labeled_features)
    for feat, w in zip(state.labeled_features, weights):
        d2 = float(np.sum((feat - target) ** 2))
        total += w * np.exp(-d2 / (2.0 * state.sigma**2))
    return float(1.0 - np.exp(-state.kappa * total))


def draws_loop(noise_seed, round_index, sequence_id, frame_id):
    """One frame's (eps, eta), drawn from its own PCG64 stream."""
    rng = _frame_rng(noise_seed, round_index, sequence_id, frame_id)
    eps = float(rng.uniform(-sg.EPSILON_HALF_WIDTH, sg.EPSILON_HALF_WIDTH))
    return eps, int(rng.integers(-1, 2))


def frame_scores_loop(state, q, seq):
    """Objectness and counts frame by frame, each from draws_loop."""
    objectness = np.empty(seq.n_frames)
    counts = np.empty(seq.n_frames, dtype=np.int64)
    for fid, frame in enumerate(seq.frames):
        eps, eta = draws_loop(state.noise_seed, state.round_index, seq.sequence_id, fid)
        objectness[fid] = min(max(q + eps, 0.0), 1.0)
        counts[fid] = max(0, round(len(frame.boxes) * q + eta))
    return objectness, counts


def predict_test_loop(state, seq):
    """Detections frame by frame, each frame from its own _frame_rng."""
    q = sg.target_quality(state, seq)
    sd = sg.JITTER_SD_SCALE * (1.0 - q)
    drop_p = sg.DROP_PROB_SCALE * (1.0 - q)
    fp_rate = sg.FALSE_POSITIVE_RATE * (1.0 - q)
    out = []
    for fid, frame in enumerate(seq.frames):
        rng = _frame_rng(state.noise_seed, state.round_index, seq.sequence_id, fid)
        dets = []
        for box in frame.boxes:
            u_drop = float(rng.random())
            jitter = rng.normal(0.0, sd, size=4) if sd > 0 else np.zeros(4)
            eps = float(rng.uniform(-sg.EPSILON_HALF_WIDTH, sg.EPSILON_HALF_WIDTH))
            if u_drop < drop_p:
                continue
            w = min(max(box.w + jitter[2], 1e-3), 1.0)
            h = min(max(box.h + jitter[3], 1e-3), 1.0)
            jittered = clamp_box(
                box.class_id, box.cx + jitter[0], box.cy + jitter[1], w, h, box.occluded
            )
            dets.append((jittered, min(max(q + eps, sg.CONF_FLOOR), sg.CONF_CEIL)))
        for _ in range(int(rng.poisson(fp_rate))):
            cls = int(rng.integers(0, 4))
            cx, cy = rng.uniform(0.0, 1.0, size=2)
            w, h = rng.uniform(0.02, 0.15, size=2)
            conf = float(rng.uniform(sg.CONF_FLOOR, sg.FALSE_POSITIVE_MAX_CONF))
            dets.append((clamp_box(cls, float(cx), float(cy), float(w), float(h)), conf))
        out.append(dets)
    return out


def scores(state, seq):
    """frame_scores fed the sequence's quality and noise for the state's round."""
    noise = frame_noise(state.noise_seed, state.round_index, [seq])
    return frame_scores(target_quality(state, seq), seq, noise[0])


def test_quality_matches_loop_oracle():
    # Feature lengths cross np.sum's 8-wide unrolling and its 128-element
    # pairwise blocks.
    gen = np.random.default_rng(20)
    for case in range(1500):
        length = int(gen.integers(1, 140)) if case % 5 == 0 else int(gen.integers(1, 41))
        n = int(gen.integers(1, 30))
        n_targets = int(gen.integers(1, 12))
        scale = 10.0 ** gen.uniform(-3, 2)
        feats = [gen.normal(0.0, scale, length) for _ in range(n)]
        targets = gen.normal(0.0, scale, (n_targets, length))
        if case % 7 == 0:
            targets[int(gen.integers(n_targets))] = feats[int(gen.integers(n))]  # zero distance
        sigma = sg._SIGMA_FLOOR if case % 11 == 0 else scale * 10.0 ** gen.uniform(-1, 1)
        kappa = 0.0 if case % 13 == 0 else 10.0 ** gen.uniform(-2, 1)
        weights = list(gen.uniform(0.0, 1.0, n)) if case % 2 else None
        state = SurrogateState(0, feats, kappa, 0, sigma, labeled_weights=weights)
        got = quality(state, targets)
        assert got.shape == (n_targets,)
        assert got.tolist() == [quality_loop(state, t) for t in targets], case


def test_frame_noise_matches_frame_rng():
    ids = ["seq000", "séquence-1", "配列_7", "x" * 40, "", "\N{SNOWMAN}9"]
    lengths = [1, 37, 2, 90, 5, 12, 3, 48]
    keys = 0
    for noise_seed in (0, 2**32 - 1, 2**32, 2**64 - 1, -3):
        for round_index in (0, 1, 9, 2**32 + 5):
            seqs = [
                make_sequence(f"{ids[i % len(ids)]}{i}", n_frames=n, boxes_per_frame=0)
                for i, n in enumerate(lengths)
            ]
            seqs += [make_sequence(f"r{round_index}s{i}", n_frames=24, boxes_per_frame=0)
                     for i in range(35)]
            noise = frame_noise(noise_seed, round_index, seqs)
            assert len(noise) == len(seqs)
            for seq, (eps, eta) in zip(seqs, noise):
                assert eps.dtype == np.float64 and eta.dtype == np.int64
                assert eps.shape == eta.shape == (seq.n_frames,)
                for fid in range(seq.n_frames):
                    want = draws_loop(noise_seed, round_index, seq.sequence_id, fid)
                    assert (eps[fid], eta[fid]) == want, (noise_seed, round_index, seq, fid)
                    keys += 1
    assert keys >= 20_000
    assert frame_noise(5, 1, []) == []


def test_frame_noise_lemire_rejection_falls_back_to_seated_generator(monkeypatch):
    seqs = [make_sequence(f"s{i}", n_frames=n, boxes_per_frame=0) for i, n in enumerate((3, 6, 4))]
    plain = frame_noise(11, 2, seqs)
    forced = {(0, 0), (1, 4), (2, 3)}
    starts = [0, 3, 9]  # each sequence's first position in the round's frames
    flat = [starts[s] + f for s, f in forced]
    outputs = []
    xsl_rr = sg._xsl_rr

    def rejecting(hi, lo):
        # Zero both outputs' low words on the forced frames: the second
        # output's Lemire draw is then redrawn, and the first output's eps
        # would be wrong if it were kept.
        out = xsl_rr(hi, lo)
        out[flat] &= np.uint64(0xFFFFFFFF00000000)
        outputs.append(out)
        return out

    monkeypatch.setattr(sg, "_xsl_rr", rejecting)
    calls = count_calls(monkeypatch, sg, "_seat")
    got = frame_noise(11, 2, seqs)
    assert len(outputs) == 2
    assert sorted(int(c[2]) for c in calls) == sorted(flat)
    for s, (seq, (eps, eta), (eps0, eta0)) in enumerate(zip(seqs, got, plain)):
        for fid in range(seq.n_frames):
            assert (eps[fid], eta[fid]) == (eps0[fid], eta0[fid])
            if (s, fid) in forced:
                assert (eps[fid], eta[fid]) == draws_loop(11, 2, seq.sequence_id, fid)


def test_seat_lands_on_each_frames_stream():
    seqs = [make_sequence(f"q{i}", n_frames=n, boxes_per_frame=0) for i, n in enumerate((2, 5))]
    states = sg._frame_states(-9, 3, seqs)
    rng = np.random.Generator(np.random.PCG64())
    flat = 0
    for seq in seqs:
        for fid in range(seq.n_frames):
            fresh = _frame_rng(-9, 3, seq.sequence_id, fid)
            assert sg._seat(rng, states, flat).bit_generator.state == fresh.bit_generator.state
            assert rng.random(5).tolist() == fresh.random(5).tolist()
            flat += 1


# --- frame scores --------------------------------------------------------


def test_frame_scores_deterministic_and_counted(six_pool):
    state = build_state(six_pool, six_pool.train_ids[:2])
    seq = six_pool.sequences[six_pool.train_ids[3]]
    o1, c1 = scores(state, seq)
    o2, c2 = scores(state, seq)
    assert np.array_equal(o1, o2) and np.array_equal(c1, c2)
    assert o1.shape == (seq.n_frames,)


def test_frame_scores_noise_band(six_pool):
    state = build_state(six_pool, six_pool.train_ids[:2])
    seq = six_pool.sequences[six_pool.train_ids[3]]
    q = target_quality(state, seq)
    objectness, counts = scores(state, seq)
    assert np.all(objectness >= max(0.0, q - 0.05) - 1e-12)
    assert np.all(objectness <= min(1.0, q + 0.05) + 1e-12)
    assert np.all(counts >= 0)
    true_counts = np.array([len(f.boxes) for f in seq.frames])
    # rounding contributes at most 0.5 on top of the +/-1 integer wobble
    assert np.all(np.abs(counts - true_counts * q) <= 1.5 + 1e-9)


def test_frame_scores_vary_with_round_and_seed(six_pool):
    seq = six_pool.sequences[six_pool.train_ids[3]]
    labeled = six_pool.train_ids[:2]
    a, _ = scores(build_state(six_pool, labeled, round_index=1), seq)
    b, _ = scores(build_state(six_pool, labeled, round_index=2), seq)
    c, _ = scores(build_state(six_pool, labeled, noise_seed=8), seq)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("forced_q", [None, 0.0, 0.5, 0.25, 0.9999, 1.0])
def test_frame_scores_match_loop_oracle(forced_q):
    # q = 0.5 puts odd box counts on a half: both sides round it to even.
    # q near 0 and 1 push objectness into the clamp.
    seqs = [
        make_sequence(f"seq{i:03d}", n_frames=30 + i, boxes_per_frame=i % 6, scene=i // 2)
        for i in range(10)
    ]
    pool = PoolState.from_sequences(seqs)
    for round_index, labeled in ((0, []), (1, pool.train_ids[:1]), (4, pool.train_ids[:6])):
        state = build_state(pool, labeled, round_index=round_index, noise_seed=round_index + 3)
        noise = frame_noise(state.noise_seed, round_index, seqs)
        for seq, seq_noise in zip(seqs, noise):
            q = target_quality(state, seq) if forced_q is None else forced_q
            got = frame_scores(q, seq, seq_noise)
            want = frame_scores_loop(state, q, seq)
            assert got[0].tolist() == want[0].tolist()
            assert got[1].tolist() == want[1].tolist()
            assert got[0].dtype == np.float64 and got[1].dtype == np.int64


# --- test-split prediction -----------------------------------------------


def test_predict_test_does_not_touch_score_counter(six_pool, monkeypatch):
    state = build_state(six_pool, six_pool.train_ids[:2])
    seq = six_pool.sequences[six_pool.test_ids[0]]
    calls = count_calls(monkeypatch, sg, "frame_scores")
    predict_test(state, seq)
    assert calls == []


@pytest.mark.parametrize(
    "forced_q, fp_rate",
    [(None, sg.FALSE_POSITIVE_RATE), (0.0, sg.FALSE_POSITIVE_RATE), (1.0, sg.FALSE_POSITIVE_RATE),
     (0.3, 6.0), (0.0, 12.0)],
    ids=["actual-q", "q0", "q1-no-jitter", "many-false-positives", "q0-ptrs"],
)
def test_predict_test_matches_frame_rng_oracle(monkeypatch, forced_q, fp_rate):
    # Frames with 0 boxes draw only the false-positive count; q = 1 takes
    # the sd == 0 branch, which draws no normals; a Poisson rate of 12 takes
    # numpy's PTRS branch instead of multiplying uniforms.
    seqs = [
        make_sequence(f"test{i}", n_frames=6 + i, boxes_per_frame=i % 4, split=Split.TEST, scene=i)
        for i in range(5)
    ]
    pool = PoolState.from_sequences(seqs + [make_sequence(f"tr{i}", scene=i) for i in range(3)])
    monkeypatch.setattr(sg, "FALSE_POSITIVE_RATE", fp_rate)
    if forced_q is not None:
        monkeypatch.setattr(sg, "target_quality", lambda state, seq: forced_q)
    detections = 0
    for round_index in (0, 3):
        state = build_state(pool, pool.train_ids[:2], round_index=round_index, noise_seed=-4)
        for seq in seqs:
            got = predict_test(state, seq)
            assert got == predict_test_loop(state, seq)
            detections += sum(len(d) for d in got)
    assert detections > 0


def oracle_rows(state, seqs):
    """predict_test_loop over seqs as detection_rows' rows, frames counted
    across seqs."""
    rows, first = [], 0
    for seq in seqs:
        for fid, dets in enumerate(predict_test_loop(state, seq)):
            rows += [(first + fid, b.cx, b.cy, b.w, b.h, conf, b.class_id) for b, conf in dets]
        first += seq.n_frames
    return np.array(rows, dtype=float).reshape(-1, 7)


def detection_rows_loop(noise_seed, round_index, seqs, qs):
    """detection_rows as it was before its draws were decoded from arrays:
    one Generator seated at each frame's state, three calls per box, then
    poisson and the false positives' calls; the rest is row arithmetic."""
    states = [a.tolist() for a in sg._frame_states(noise_seed, round_index, seqs)]
    rng = np.random.Generator(np.random.PCG64())  # seated before every frame
    truths, normals, fps = [], [], []  # (frame, cx, cy, w, h, q, class, u, u) per box
    frame = 0
    for seq, q in zip(seqs, qs):
        jitters = sg.JITTER_SD_SCALE * (1.0 - q) > 0
        for f in seq.frames:
            sg._seat(rng, states, frame)
            for b in f.boxes:
                u_drop = rng.random()
                normals.append(rng.standard_normal(4) if jitters else np.zeros(4))
                truths.append((frame, b.cx, b.cy, b.w, b.h, q, b.class_id, u_drop, rng.random()))
            for _ in range(int(rng.poisson(sg.FALSE_POSITIVE_RATE * (1.0 - q)))):
                cls = int(rng.integers(0, 4))
                cx, cy = rng.uniform(0.0, 1.0, size=2)
                w, h = rng.uniform(0.02, 0.15, size=2)
                conf = rng.uniform(sg.CONF_FLOOR, sg.FALSE_POSITIVE_MAX_CONF)
                fps.append((frame, cx, cy, w, h, conf, cls))
            frame += 1

    rows = np.array(truths, dtype=float).reshape(-1, 9)
    q = rows[:, 5]
    kept = ~(rows[:, 7] < sg.DROP_PROB_SCALE * (1.0 - q))
    sd = sg.JITTER_SD_SCALE * (1.0 - q)
    rows[:, 1:5] += 0.0 + sd[:, None] * np.array(normals).reshape(-1, 4)
    rows[:, 3:5] = np.minimum(np.maximum(rows[:, 3:5], 1e-3), 1.0)
    eps = sg._EPS_LOW + sg._EPS_SPAN * rows[:, 8]
    rows[:, 5] = np.minimum(np.maximum(q + eps, sg.CONF_FLOOR), sg.CONF_CEIL)
    rows = np.concatenate([rows[kept, :7], np.array(fps, dtype=float).reshape(-1, 7)])
    order = np.argsort(rows[:, 0], kind="stable")
    rows = rows[order]
    center = np.minimum(np.maximum(rows[:, 1:3], 0.0), 1.0)
    half = np.minimum(rows[:, 3:5], 1.0) / 2
    low, high = np.maximum(center - half, 0.0), np.minimum(center + half, 1.0)
    rows[:, 1:3], rows[:, 3:5] = (low + high) / 2, high - low
    return rows, np.concatenate([np.flatnonzero(kept), np.full(len(fps), -1)])[order]


def split_truths(seqs):
    return truth_rows([f.boxes for seq in seqs for f in seq.frames])


@pytest.mark.parametrize("fp_rate", [sg.FALSE_POSITIVE_RATE, 6.0, 12.0],
                         ids=["default", "many-fp", "ptrs"])
def test_detection_rows_match_frame_rng_oracle(monkeypatch, fp_rate):
    # Several sequences of different lengths per call, so frame numbers run
    # on across sequence boundaries; q at 0, at 1 (the sd == 0 branch, which
    # draws no normals) and between; frames without boxes and with six;
    # boxes on the unit square's edges and under the extent floor; negative
    # noise seeds and 2**64 - 1. At fp_rate 12, q <= 1/6 takes numpy's
    # PTRS Poisson branch. Every tenth case puts q = 0 on every sequence,
    # so frames draw several false positives and both halves of the
    # buffered class word.
    gen = np.random.default_rng(31)
    monkeypatch.setattr(sg, "FALSE_POSITIVE_RATE", fp_rate)
    quality_of = {}
    monkeypatch.setattr(sg, "target_quality", lambda state, seq: quality_of[seq.sequence_id])
    seated = count_calls(monkeypatch, sg, "_seat")
    edges = (0.0, 1e-4, 0.5, 0.999, 1.0)
    rows_seen = fp_seen = odd_fp_seen = scalar_draws = 0
    for case in range(60):
        seqs = []
        for i in range(int(gen.integers(1, 6))):
            frames = []
            for fid in range(int(gen.integers(1, 9))):
                n = int(gen.choice([0, 0, 1, 2, 5, 6]))
                coords = gen.random((n, 4))
                coords = np.where(gen.random((n, 4)) < 0.2, gen.choice(edges, (n, 4)), coords)
                boxes = [
                    BoundingBox(int(gen.integers(0, 6)), cx, cy, max(w, 1e-4), max(h, 1e-4),
                                Occlusion(int(gen.integers(0, 3))))
                    for cx, cy, w, h in coords.tolist()
                ]
                frames.append(Frame(fid, boxes))
            seq = Sequence(make_meta(f"c{case}s{i}", split=Split.TEST), frames)
            q = 0.0 if case % 10 == 0 else float(gen.choice([0.0, 1.0, gen.random(), 0.9999]))
            quality_of[seq.sequence_id] = q
            seqs.append(seq)
        noise_seed = int(gen.integers(-(2**40), 2**40)) if case % 3 else -int(gen.integers(1, 9))
        noise_seed = 2**64 - 1 if case % 7 == 0 else noise_seed
        round_index = int(gen.integers(0, 20))
        state = SurrogateState(round_index, [], 0.35, noise_seed, 1.0)
        qs = [quality_of[seq.sequence_id] for seq in seqs]
        want_rows, want_source = detection_rows_loop(noise_seed, round_index, seqs, qs)
        del seated[:]
        rows, source = sg.detection_rows(noise_seed, round_index, seqs, qs, split_truths(seqs))
        scalar_draws += len(seated)
        assert np.array_equal(rows, want_rows), case
        assert np.array_equal(source, want_source), case
        assert np.array_equal(rows, oracle_rows(state, seqs)), case
        boxes = [b for seq in seqs for f in seq.frames for b in f.boxes]
        truth = source >= 0
        assert rows[truth, 6].tolist() == [boxes[i].class_id for i in source[truth]]
        assert np.all(np.diff(source[truth]) > 0)
        for seq in seqs:
            assert predict_test(state, seq) == predict_test_loop(state, seq)
        rows_seen += len(rows)
        fp_seen += int(np.sum(~truth))
        fp_frames = rows[~truth, 0].astype(int)
        odd_fp_seen += int(np.sum(np.bincount(fp_frames) // 2)) if fp_frames.size else 0
    # Normals off the ziggurat's fast path: the frame's later reads shift.
    assert rows_seen > 500 and fp_seen > 0 and odd_fp_seen > 0 and scalar_draws > 30
    assert sg.detection_rows(3, 1, [], [], np.zeros((0, 6)))[0].shape == (0, 7)


_PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645


def test_detection_rows_seat_a_generator_only_for_rejected_normals(monkeypatch):
    # q = 0 and three false positives a frame on a noise seed whose normals
    # all take the ziggurat's fast path. _xsl_rr is then patched to put two
    # normal words off it: box 0's first normal of frame 0, in the tail
    # layer 0, and the last normal of the last box of frame 5, which has
    # false positives after it. The generator seated there draws the true
    # normals, so the rows stay the oracle's.
    monkeypatch.setattr(sg, "FALSE_POSITIVE_RATE", 3.0)
    seqs = [make_sequence(f"r{i}", n_frames=4, boxes_per_frame=3, split=Split.TEST)
            for i in range(2)]
    qs, truths = [0.0, 0.0], split_truths(seqs)
    want_rows, want_source = detection_rows_loop(0, 2, seqs, qs)
    assert 5 in want_rows[want_source < 0, 0]
    states = sg._frame_states(0, 2, seqs)
    rng = np.random.Generator(np.random.PCG64())
    before, forced = [], {}
    for frame, read, layer in ((0, 1, 0), (5, 3 * 6 - 2, 7)):
        sg._seat(rng, states, frame).bit_generator.advance(read)
        state = rng.bit_generator.state["state"]
        before.append(state["state"])
        after = (state["state"] * _PCG_MULT + state["inc"]) % 2**128
        forced[np.uint64(after >> 64), np.uint64(after % 2**64)] = np.uint64(
            (2**52 - 1) << 9 | layer)

    seated = []
    seat, xsl_rr = sg._seat, sg._xsl_rr

    def recording(rng, states, i):
        seated.append(seat(rng, states, i).bit_generator.state["state"]["state"])
        return rng

    def rejecting(hi, lo):
        out = xsl_rr(hi, lo)
        for (h, l), word in forced.items():
            out[(hi == h) & (lo == l)] = word
        return out

    monkeypatch.setattr(sg, "_seat", recording)
    rows, source = sg.detection_rows(0, 2, seqs, qs, truths)
    assert seated == []
    monkeypatch.setattr(sg, "_xsl_rr", rejecting)
    rows, source = sg.detection_rows(0, 2, seqs, qs, truths)
    assert sorted(seated) == sorted(before)
    assert np.array_equal(rows, want_rows) and np.array_equal(source, want_source)


def test_detection_rows_seat_no_generator_at_q1(monkeypatch):
    # q = 1 draws no normals and no false positives: two doubles a box.
    seqs = [make_sequence(f"t{i}", n_frames=20, boxes_per_frame=6, split=Split.TEST)
            for i in range(3)]
    want_rows, want_source = detection_rows_loop(4, 1, seqs, [1.0] * 3)
    seated = count_calls(monkeypatch, sg, "_seat")
    rows, source = sg.detection_rows(4, 1, seqs, [1.0] * 3, split_truths(seqs))
    assert seated == []
    assert np.array_equal(rows, want_rows) and np.array_equal(source, want_source)
    assert len(rows) == 3 * 20 * 6


def test_ziggurat_tables_decode_standard_normal():
    # Each draw takes the fast path exactly when its first word's rabs is
    # under KI[layer], and then equals +/-rabs * WI[layer]. Draws off it
    # take more words; a generator advanced to the draw resolves them, and
    # its state after the draw says how many words they took.
    n = 100_000
    words = np.random.PCG64(23).random_raw(n + n // 20)
    draws = np.random.Generator(np.random.PCG64(23)).standard_normal(n)
    layer = (words & np.uint64(0xFF)).astype(np.intp)
    rabs = (words >> np.uint64(9)) & np.uint64(2**52 - 1)
    fast = rabs < ziggurat.KI[layer]
    sign = np.where(words & np.uint64(0x100), -1.0, 1.0)
    values = rabs.astype(np.float64) * ziggurat.WI[layer] * sign
    fast_layers, slow_layers = set(), set()
    slow = np.flatnonzero(~fast).tolist() + [len(words)]
    pos = k = 0
    while True:
        stop = min(slow[bisect.bisect_left(slow, pos)], pos + n - k)
        assert np.array_equal(draws[k:k + stop - pos], values[pos:stop])
        fast_layers.update(layer[pos:stop].tolist())
        k, pos = k + stop - pos, stop
        if k == n:
            break
        rng = np.random.Generator(np.random.PCG64(23))
        rng.bit_generator.advance(pos)
        assert rng.standard_normal() == draws[k]
        after = rng.bit_generator.state["state"]["state"]
        step, used = np.random.PCG64(23), 1
        step.advance(pos + 1)
        while step.state["state"]["state"] != after:
            step.advance(1)
            used += 1
        slow_layers.add(int(layer[pos]))
        k, pos = k + 1, pos + used
    assert fast_layers == set(range(256)) - {1}  # KI[1] is 0
    assert {0, 1} <= slow_layers


def test_ziggurat_tables_are_numpys_bytes():
    lib = Path(np.random.__file__).parent / "lib" / "libnpyrandom.a"
    if not lib.is_file():
        pytest.skip(f"no {lib.name} in this numpy install to compare the tables with")
    blob = lib.read_bytes()
    assert ziggurat.WI.tobytes() in blob  # wi_double
    assert ziggurat.KI.tobytes() in blob  # ki_double


def test_predict_test_deterministic(six_pool):
    state = build_state(six_pool, six_pool.train_ids[:2])
    seq = six_pool.sequences[six_pool.test_ids[0]]
    a = predict_test(state, seq)
    b = predict_test(state, seq)
    assert len(a) == seq.n_frames
    for fa, fb in zip(a, b):
        assert len(fa) == len(fb)
        for (ba, ca), (bb, cb) in zip(fa, fb):
            assert ca == cb and ba == bb


def test_predict_test_converges_to_truth_at_high_quality(six_pool):
    # kappa large and the target itself labeled: q = 1 - exp(-kappa)
    seq = six_pool.sequences[six_pool.train_ids[0]]
    state = build_state(six_pool, [seq.sequence_id], kappa=50.0)
    assert target_quality(state, seq) >= 1 - 1e-12
    preds = predict_test(state, seq)
    for frame, dets in zip(seq.frames, preds):
        assert len(dets) == len(frame.boxes), "no drops, no false positives"
        for truth, (box, conf) in zip(frame.boxes, dets):
            assert box.class_id == truth.class_id
            assert box.cx == pytest.approx(truth.cx, abs=1e-9)
            assert box.w == pytest.approx(truth.w, abs=1e-9)
            assert conf >= 0.9


def test_predict_test_degrades_at_low_quality(six_pool):
    state = build_state(six_pool, [], kappa=0.35)
    seq = six_pool.sequences[six_pool.test_ids[0]]
    assert target_quality(state, seq) == 0.0
    preds = predict_test(state, seq)
    total_truth = sum(len(f.boxes) for f in seq.frames)
    kept = sum(
        1
        for dets, frame in zip(preds, seq.frames)
        for (box, conf) in dets
        if conf > 0.4  # true-box confidences sit near q, FPs stay below 0.4
    )
    # drop probability is 0.5 at q=0; seeing every truth survive is wildly unlikely
    assert kept < total_truth


# --- traces --------------------------------------------------------------


def test_trace_round_trip_full_precision(tmp_path):
    awkward = [0.1 + 0.2, 1.0 / 3.0, 0.9999999999999999]
    trace = ScoreTrace(
        rounds={
            1: {"a": (np.array(awkward), np.array([1, 2, 3], dtype=np.int64))},
            2: {"a": (np.array([0.5]), np.array([0], dtype=np.int64))},
        },
        test_metrics={0: (None, None), 1: (2.0 / 3.0, 0.1 + 0.2)},
    )
    sp, mp = tmp_path / "t.csv", tmp_path / "m.csv"
    write_traces({3: trace}, sp, mp)
    back = read_traces(sp, mp)
    assert set(back) == {3}
    assert sorted(back[3].rounds) == [1, 2]
    o, c = back[3].rounds[1]["a"]
    assert o.tolist() == awkward  # bit-exact through repr
    assert c.tolist() == [1, 2, 3]
    assert o.dtype == np.float64 and c.dtype == np.int64
    assert back[3].test_metrics[0] == (None, None)
    assert back[3].test_metrics[1] == (2.0 / 3.0, 0.1 + 0.2)


@pytest.mark.parametrize(
    "scores, metrics, where",
    [
        ("seed,round,sequence_id,frame_id,uncertainty\n0,1,a,0,0.5\n", "seed,round,map50,map5095\n",
         r"t\.csv line 1: no pred_count column"),
        ("seed,round,sequence_id,frame_id,uncertainty,pred_count\n0,1,a,0,0.5,1\n0,1,a,1,0.5\n",
         "seed,round,map50,map5095\n", r"t\.csv line 3: no pred_count field"),
        ("seed,round,sequence_id,frame_id,uncertainty,pred_count\n0,1,a,0,high,1\n",
         "seed,round,map50,map5095\n", r"t\.csv line 2: bad uncertainty 'high'"),
        ("seed,round,sequence_id,frame_id,uncertainty,pred_count\n",
         "seed,round,map50,map5095\n0,0,,\n0,x,,\n", r"m\.csv line 3: bad round 'x'"),
        ("seed,round,sequence_id,frame_id,uncertainty,pred_count\n",
         "seed,round,map50\n0,0,0.5\n", r"m\.csv line 1: no map5095 column"),
    ],
    ids=["no-column", "short-row", "bad-float", "bad-metrics-round", "no-metrics-column"],
)
def test_read_traces_names_file_line_and_field(tmp_path, scores, metrics, where):
    sp, mp = tmp_path / "t.csv", tmp_path / "m.csv"
    sp.write_text(scores)
    mp.write_text(metrics)
    with pytest.raises(TraceError, match=where):
        read_traces(sp, mp)


@pytest.mark.parametrize(
    "column, value",
    [
        ("uncertainty", "nan"),
        ("uncertainty", "inf"),
        ("uncertainty", "7.5"),
        ("uncertainty", "-0.1"),
        ("pred_count", "-1"),
        ("map50", "nan"),
        ("map50", "7.5"),
        ("map5095", "-inf"),
        ("map5095", "1.5"),
    ],
)
def test_read_traces_refuses_out_of_domain_values(tmp_path, column, value):
    scores = {"seed": "0", "round": "1", "sequence_id": "a", "frame_id": "0",
              "uncertainty": "1.0", "pred_count": "0"}
    metrics = {"seed": "0", "round": "1", "map50": "0.0", "map5095": ""}
    for row in (scores, metrics):
        if column in row:
            row[column] = value
    sp, mp = tmp_path / "t.csv", tmp_path / "m.csv"
    name = "m" if column.startswith("map") else "t"
    for end in ("\n", "\r\n"):  # CRLF scores reach the column reader first
        for path, row in ((sp, scores), (mp, metrics)):
            path.write_bytes((",".join(row) + end + ",".join(row.values()) + end).encode())
        with pytest.raises(TraceError, match=rf"{name}\.csv line 2: bad {column} '{value}'"):
            read_traces(sp, mp)


def test_read_traces_accepts_domain_bounds(tmp_path):
    sp, mp = tmp_path / "t.csv", tmp_path / "m.csv"
    sp.write_text("seed,round,sequence_id,frame_id,uncertainty,pred_count\n"
                  "0,1,a,0,0.0,0\n0,1,a,1,1.0,7\n")
    mp.write_text("seed,round,map50,map5095\n0,0,,\n0,1,1.0,0.0\n")
    back = read_traces(sp, mp)[0]
    assert back.rounds[1]["a"][0].tolist() == [0.0, 1.0]
    assert back.rounds[1]["a"][1].tolist() == [0, 7]
    assert back.test_metrics == {0: (None, None), 1: (1.0, 0.0)}


def test_read_traces_requires_full_frame_coverage(tmp_path):
    sp = tmp_path / "scores.csv"
    sp.write_text(
        "seed,round,sequence_id,frame_id,uncertainty,pred_count\n"
        "0,1,a,0,0.5,1\n"
        "0,1,a,2,0.5,1\n"
    )
    mp = tmp_path / "metrics.csv"
    mp.write_text("seed,round,map50,map5095\n")
    with pytest.raises(TraceError, match=r"trace rows for seed 0 round 1 sequence 'a' "
                       r"do not cover frames 0\.\.N-1"):
        read_traces(sp, mp)


def test_read_traces_refuses_a_repeated_metrics_round(tmp_path):
    sp, mp = tmp_path / "t.csv", tmp_path / "m.csv"
    sp.write_text("seed,round,sequence_id,frame_id,uncertainty,pred_count\n")
    mp.write_text("seed,round,map50,map5095\n0,0,,\n0,1,0.5,0.2\n1,1,0.5,0.2\n0,1,0.9,0.8\n")
    with pytest.raises(TraceError, match=r"m\.csv line 5: repeats seed 0, round 1$"):
        read_traces(sp, mp)


# --- trace file oracles --------------------------------------------------
# write_traces and read_traces as they were before trace.csv was joined and
# parsed by columns: every row through tables.write_table / parsed_rows.


def write_traces_rows(traces, scores_path, metrics_path):
    def score_rows():
        for seed in sorted(traces):
            rounds = traces[seed].rounds
            for rnd in sorted(rounds):
                for sid in sorted(rounds[rnd]):
                    objectness, counts = rounds[rnd][sid]
                    for fid, (p, n) in enumerate(zip(objectness.tolist(), counts.tolist())):
                        yield seed, rnd, sid, fid, repr(p), n

    def metric_rows():
        for seed in sorted(traces):
            for rnd, maps in sorted(traces[seed].test_metrics.items()):
                yield seed, rnd, *("" if m is None else repr(float(m)) for m in maps)

    write_table(scores_path, [name for name, _ in sg._SCORE_FIELDS], score_rows())
    write_table(metrics_path, [name for name, _ in sg._METRIC_FIELDS], metric_rows())


def read_traces_rows(scores_path, metrics_path):
    staged = {}
    for seed, rnd, sid, fid, unc, count in parsed_rows(scores_path, sg._SCORE_FIELDS):
        staged.setdefault((seed, rnd, sid), []).append((fid, unc, count))
    traces = {}
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
    for seed, rnd, m50, m5095 in parsed_rows(metrics_path, sg._METRIC_FIELDS):
        traces.setdefault(seed, ScoreTrace()).test_metrics[rnd] = (m50, m5095)
    return traces


def random_traces(rng, ids, seeds=3, max_frames=6):
    """Traces over the given ids: empty rounds, zero-frame sequences, and
    objectness drawn from 0.0, -0.0, 5e-324, 1.0 and uniforms."""
    traces = {}
    for seed in rng.choice(40, size=seeds, replace=False).tolist():
        trace = ScoreTrace()
        for rnd in range(int(rng.integers(0, 4))):
            picked = rng.choice(len(ids), size=int(rng.integers(0, len(ids) + 1)), replace=False)
            trace.rounds[rnd] = {}
            for i in picked.tolist():
                n = int(rng.integers(0, max_frames))
                values = [0.0, -0.0, 5e-324, 1.0, *rng.random(3).tolist()]
                trace.rounds[rnd][ids[i]] = (np.array([values[k] for k in rng.integers(0, 7, n)]),
                                             rng.integers(0, 12, n))
            trace.test_metrics[rnd] = (None, None) if rnd % 2 else tuple(rng.random(2).tolist())
        traces[seed] = trace
    return traces


def test_write_traces_bytes_match_the_csv_writer(tmp_path):
    odd = ["", "a,b", 'q"x', '"', "l\r\nm", "cr\r", "lf\n", " pad ", "séq", "序列", "🙂",
           "\u00a0"]
    ids = [chr(c) for c in range(128)] + odd
    rng = np.random.default_rng(40)
    for trial in range(12):
        traces = random_traces(rng, ids)
        for write, name in ((write_traces_rows, "rows"), (write_traces, "joined")):
            write(traces, tmp_path / f"{name}.csv", tmp_path / f"{name}_m.csv")
        for suffix in (".csv", "_m.csv"):
            want = (tmp_path / f"rows{suffix}").read_bytes()
            assert (tmp_path / f"joined{suffix}").read_bytes() == want, (trial, suffix)
        assert b"5e-324" in (tmp_path / "joined.csv").read_bytes() or trial


def read_outcome(read, sp, mp):
    """What a reader gives: each array's dtype and bytes in dict order, or
    its TraceError message."""
    try:
        traces = read(sp, mp)
    except TraceError as err:
        return f"TraceError: {err}"
    return [
        (seed, [(rnd, [(sid, [(a.dtype.str, a.tobytes()) for a in arrays])
                       for sid, arrays in table.items()])
                for rnd, table in trace.rounds.items()], trace.test_metrics)
        for seed, trace in traces.items()
    ]


def trace_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def quote_id(line):
    cells = line.split(",")
    cells[2] = f'"{cells[2]}"'
    return ",".join(cells)


def score_file_variants(tmp_path, rng):
    """(name, reads by columns, trace.csv path) per case; each file is
    write_traces' output, changed."""
    ids = [f"s{i:02d}" for i in range(12)]
    traces = random_traces(rng, ids, seeds=2, max_frames=14)
    for trace in traces.values():  # frames 1 and 10 and a count of 10 in round 1
        trace.rounds.setdefault(1, {})["s99"] = (np.full(12, 0.5), np.full(12, 10))
    base = tmp_path / "base.csv"
    write_traces(traces, base, tmp_path / "m.csv")
    header, *rows = trace_rows(base)
    text = base.read_bytes().decode("utf-8")
    cases = [("as written", True, text)]
    lines = text.splitlines(keepends=True)
    cases += [
        ("LF line ends", False, text.replace("\r\n", "\n")),
        ("no final CRLF", False, text[:-2]),
        ("blank line", False, "".join(lines[:3] + ["\r\n"] + lines[3:])),
        # seven quoted ids add as many quotes as two rows have separators
        ("quoted ids", False, "".join(lines[:1] + [quote_id(x) for x in lines[1:8]] + lines[8:])),
        ("a count moved to the next line", False,
         "".join(lines[:2] + [lines[2].rsplit(",", 1)[0] + "\r\n",
                              lines[2].rsplit(",", 1)[1][:-2] + "," + lines[3]] + lines[4:])),
        ("shuffled rows", False, "".join(lines[:1] + rng.permutation(lines[1:]).tolist())),
        ("round-0 rows appended", False,
         text + "".join(",".join([r[0], "0", *r[2:]]) + "\r\n" for r in rows if r[1] == "1")),
        ("duplicate frame row", False, "".join(lines[:4] + lines[3:])),
    ]
    order = [4, 0, 5, 2, 1, 3]
    reordered = "".join(",".join(r[i] for i in order) + "\r\n" for r in [header, *rows])
    notes = itertools.cycle(["note", "x", ""])
    extra = "".join(",".join(r + [c]) + "\r\n" for r, c in zip([header, *rows], notes))
    cases += [("reordered columns", False, reordered), ("extra column", False, extra)]
    spelling = {"1": "+1", "10": "1_0"}
    spelled = [header] + [
        ["+" + r[0], " 1" if r[1] == "1" else r[1], r[2], spelling.get(r[3], r[3]), r[4],
         spelling.get(r[5], r[5])]
        for r in rows
    ]
    cases.append(("int spellings", True, "".join(",".join(r) + "\r\n" for r in spelled)))
    for i, char in enumerate(',"\r\n'):
        scored = {f"a{char}b": (np.array([0.25, 1.0]), np.array([1, 2]))}
        special = traces | {7: ScoreTrace({1: scored})}
        write_traces(special, tmp_path / f"special{i}.csv", tmp_path / "m.csv")
        cases.append((f"id with {char!r}", False,
                      (tmp_path / f"special{i}.csv").read_bytes().decode("utf-8")))
    for i, (name, by_columns, body) in enumerate(cases):
        path = tmp_path / f"case{i}.csv"
        path.write_bytes(body.encode("utf-8"))
        yield name, by_columns, path


def test_read_traces_by_columns_matches_the_row_reader(tmp_path):
    mp = tmp_path / "m.csv"
    write_traces({}, tmp_path / "unused.csv", mp)
    rng = np.random.default_rng(41)
    seen = set()
    for trial in range(4):
        for name, by_columns, sp in score_file_variants(tmp_path, rng):
            assert (sg._score_columns(sp) is not None) == by_columns, name
            want = read_outcome(read_traces_rows, sp, mp)
            assert read_outcome(read_traces, sp, mp) == want, name
            seen.add((name, isinstance(want, str)))
    # the duplicate row fails in both readers; every other case reads
    assert ("duplicate frame row", True) in seen
    assert ("as written", False) in seen and ("int spellings", False) in seen


@pytest.mark.parametrize("block", [7, 64, 1000, 1 << 17])
def test_read_traces_by_columns_across_block_boundaries(tmp_path, monkeypatch, block):
    """Blocks cut rows and sequences anywhere; the default block size meets
    a file of several blocks."""
    monkeypatch.setattr(sg, "_TRACE_BLOCK", block)
    rng = np.random.default_rng(block)
    n = max(40, block // 10)  # rows of about 30 bytes
    traces = {0: ScoreTrace({1: {"a": (rng.random(n), rng.integers(0, 9, n)),
                                 "b": (rng.random(3), rng.integers(0, 9, 3))}})}
    sp, mp = tmp_path / "t.csv", tmp_path / "m.csv"
    write_traces(traces, sp, mp)
    assert sp.stat().st_size > 2 * block
    assert sg._score_columns(sp) is not None
    assert read_outcome(read_traces, sp, mp) == read_outcome(read_traces_rows, sp, mp)
    back = read_traces(sp, mp)[0].rounds[1]
    for sid, (objectness, counts) in traces[0].rounds[1].items():
        assert back[sid][0].tobytes() == objectness.tobytes()
        assert back[sid][1].tolist() == counts.tolist()
