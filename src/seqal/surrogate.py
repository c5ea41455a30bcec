"""Closed-form stand-in for a trainable object detector.

Instead of training a network each round, the simulator scores how well the
labeled set covers a target sequence: a similarity kernel over per-sequence
features feeds a saturating quality scalar q in [0, 1), and every simulated
output (frame objectness, predicted counts, test-split detections) degrades
smoothly as q drops. All randomness is keyed by (noise_seed, round,
sequence, frame), so reruns are bit-identical and evaluation order is
irrelevant.

Each frame's key seeds its own numpy PCG64 stream. _frame_states gives
every frame's seeded state in one array pass that re-derives the
SeedSequence hash and PCG64 seeding bit for bit, without building the
generators. frame_noise steps those states as arrays for one uniform and
one integer per frame (next_double and 32-bit Lemire, re-derived).
detection_rows steps every test frame's state in lockstep and decodes the
words as numpy's Generator reads them; only a normal off the ziggurat's
fast path, or a Poisson rate of 10 or more, is drawn by a seated Generator.
Under NEP 19 the bit streams are stable across numpy versions, the
Generator algorithms are not; the per-frame oracle tests flag a change.
Shifts and masks are np.uint64: numpy 1.24 casts uint64 with int64 to float64.

A ScoreTrace holds one seed's outputs; the runner reads every output from
it, filled live or read back from the files write_traces wrote, in tables'
dialect with full repr floats, so a replay is bit-identical. read_traces
reads trace.csv by columns in fixed-size blocks, and trace_metrics.csv or
a trace.csv of any other shape through tables.parsed_rows.

Features are read off the annotation stream itself (mean per-frame box
count, mean center displacement, scene one-hot, season), never from the
motion proxy: inferential runs must stay off the flow machinery, which only
conformal runs pay for.
"""

from __future__ import annotations

import math
import operator
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import FeatureError, TraceError
from .metrics import truth_rows
from .pool import BoundingBox, PoolState, Sequence
from .tables import count, optional_unit, parsed_rows, unit, write_table
from .ziggurat import KI, WI

EPSILON_HALF_WIDTH = 0.05
JITTER_SD_SCALE = 0.08
DROP_PROB_SCALE = 0.5
FALSE_POSITIVE_RATE = 0.3
FALSE_POSITIVE_MAX_CONF = 0.4
CONF_FLOOR = 0.05
CONF_CEIL = 0.99

_SIGMA_FLOOR = 1e-9


def pool_feature_table(pool: PoolState) -> tuple[dict[str, np.ndarray], float]:
    """Features for every sequence plus the kernel bandwidth sigma.

    A feature vector is (mean box count, mean center shift, scene one-hot,
    season). The center shift pairs box slot k of frame t with slot k of
    frame t+1, which is exact for generated pools (stable object order) and
    a serviceable approximation elsewhere; the pairs' hypot distances are
    added left to right (cumsum, not np.sum's pairwise order) and divided
    by the frame count, so frame 0 contributes zero. The scene one-hot
    spans the train split's scenes; sequences from unseen scenes
    (validation/test) get an all-zero scene block. Sigma is the median
    pairwise feature distance over the train split, floored to stay
    positive.
    """
    train_ids = pool.train_ids
    train_scenes = sorted({pool.sequences[s].meta.scene_id for s in train_ids})
    table = {}
    for sid, seq in pool.sequences.items():
        counts = np.array([len(f.boxes) for f in seq.frames])
        centers = np.array([(b.cx, b.cy) for f in seq.frames for b in f.boxes]).reshape(-1, 2)
        pairs = np.minimum(counts[:-1], counts[1:])
        # Pair (t, k) joins box k of frame t to the box counts[t] later;
        # first[t] is frame t's first box index less its first pair index.
        first = np.cumsum(counts[:-1]) - counts[:-1] - np.cumsum(pairs) + pairs
        prev = np.repeat(first, pairs) + np.arange(pairs.sum())
        step = centers[prev + np.repeat(counts[:-1], pairs)] - centers[prev]
        shift = np.cumsum(np.append(0.0, np.hypot(step[:, 0], step[:, 1])))[-1]
        one_hot = np.zeros(len(train_scenes))
        if seq.meta.scene_id in train_scenes:
            one_hot[train_scenes.index(seq.meta.scene_id)] = 1.0
        head = [counts.sum() / seq.n_frames, shift / seq.n_frames]
        table[sid] = np.concatenate([head, one_hot, [float(int(seq.meta.season))]])
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


def quality(state: SurrogateState, targets: np.ndarray) -> np.ndarray:
    """Detector quality q = 1 - exp(-kappa * sum of labeled similarities),
    one q per row of a (targets, features) matrix.

    Similarity is a Gaussian kernel over feature distance with bandwidth
    sigma. An empty labeled set gives exactly 0. Adding a labeled sequence
    can only raise q (similarities are positive). Each squared distance is
    one np.sum along a contiguous feature row; the kernel total is a
    left-to-right sum (cumsum, not np.sum's pairwise order).
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 2 or targets.shape[1] == 0:
        raise FeatureError(f"expected a (targets, features) matrix, got shape {targets.shape}")
    if not state.labeled_features:
        return np.zeros(len(targets))
    kernel = np.empty((len(targets), len(state.labeled_features)))
    for j, feat in enumerate(state.labeled_features):
        if feat.size != targets.shape[1]:
            raise FeatureError(f"feature length mismatch: {feat.size} vs {targets.shape[1]}")
        kernel[:, j] = np.sum((targets - feat) ** 2, axis=1)
    kernel = np.exp(-kernel / (2.0 * state.sigma**2))
    if state.labeled_weights:
        kernel = np.asarray(state.labeled_weights, dtype=float) * kernel
    return 1.0 - np.exp(-state.kappa * np.cumsum(kernel, axis=1)[:, -1])


# The constants of numpy's SeedSequence hash (bit_generator.pyx) and of
# PCG64's 128-bit LCG multiplier (pcg64.h), as 32- and 64-bit limbs.
_MASK32 = 0xFFFFFFFF
_SEED_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_U32_16 = np.uint32(16)
_U64_1, _U64_11, _U64_32 = np.uint64(1), np.uint64(11), np.uint64(32)
_U64_58, _U64_63, _U64_64 = np.uint64(58), np.uint64(63), np.uint64(64)
_U64_LOW32 = np.uint64(_MASK32)
_PCG_MULT_LO_HALVES = (_PCG_MULT_LO & _U64_LOW32, _PCG_MULT_LO >> _U64_32)
# Generator.uniform is low + (high - low) * next_double, next_double the top
# 53 bits of one output; Generator.integers(-1, 2) is 32-bit Lemire over
# the next output's low half, redrawing when the product's low word falls
# under the threshold.
_EPS_LOW = -EPSILON_HALF_WIDTH
_EPS_SPAN = EPSILON_HALF_WIDTH - _EPS_LOW
_ETA_LOW, _ETA_HIGH = -1, 2
_ETA_SPAN = np.uint64(_ETA_HIGH - _ETA_LOW)
_ETA_REJECT_BELOW = np.uint64(2**32 % (_ETA_HIGH - _ETA_LOW))
# A normal's word: layer in the low byte, sign in bit 8, rabs in bits 9-60.
_U64_9, _U64_30 = np.uint64(9), np.uint64(30)
_U64_LAYER, _U64_SIGN, _U64_RABS = np.uint64(0xFF), np.uint64(0x100), np.uint64(2**52 - 1)
_BOX_READS, _FP_READS = 6, 5


def _uint32_words(value: int) -> list[np.ndarray]:
    """SeedSequence's coercion of one non-negative entropy int: its 32-bit
    words, least significant first, one word for 0."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [np.array([value & _MASK32], dtype=np.uint32)]
    value >>= 32
    while value:
        words.append(np.array([value & _MASK32], dtype=np.uint32))
        value >>= 32
    return words


def _hash_consts(init: int, mult: int):
    """The (xor, multiply) pair of each successive SeedSequence hash step:
    the hash constant advances by one multiplication per step."""
    const = init
    while True:
        nxt = const * mult & _MASK32
        yield np.uint32(const), np.uint32(nxt)
        const = nxt


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    xor, mult = next(consts)
    value = (value ^ xor) * mult
    return value ^ (value >> _U32_16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _U32_16)


def _seed_state(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence(entropy).generate_state(4, np.uint64) for entropy of at
    least four words, each word a uint32 array over all keys (or a length-1
    constant)."""
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(word, consts) for word in entropy[:_SEED_POOL_WORDS]]
    for src in range(_SEED_POOL_WORDS):
        for dst in range(_SEED_POOL_WORDS):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in entropy[_SEED_POOL_WORDS:]:
        for dst in range(_SEED_POOL_WORDS):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))
    # Eight uint32 words cycled off the pool, paired little-endian.
    consts = _hash_consts(_INIT_B, _MULT_B)
    words = [
        _hashmix(pool[i % _SEED_POOL_WORDS], consts).astype(np.uint64)
        for i in range(8)
    ]
    return [words[2 * i] | (words[2 * i + 1] << _U64_32) for i in range(4)]


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One 128-bit LCG step, state * multiplier + increment, on 64-bit limbs."""
    a0, a1 = lo & _U64_LOW32, lo >> _U64_32
    b0, b1 = _PCG_MULT_LO_HALVES
    mid = a1 * b0 + ((a0 * b0) >> _U64_32)
    low_mid = (mid & _U64_LOW32) + a0 * b1
    carry = a1 * b1 + (mid >> _U64_32) + (low_mid >> _U64_32)
    prod_lo = lo * _PCG_MULT_LO
    new_lo = prod_lo + inc_lo
    new_hi = carry + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO + inc_hi
    return new_hi + (new_lo < prod_lo).astype(np.uint64), new_lo


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's output: the xor of the state halves, rotated right by the
    state's top six bits."""
    x = hi ^ lo
    rot = hi >> _U64_58
    return (x >> rot) | (x << ((_U64_64 - rot) & _U64_63))


def _frame_states(
    noise_seed: int, round_index: int, seqs: list[Sequence]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The freshly seeded PCG64 (state hi, state lo, inc hi, inc lo) of every
    frame of seqs, in order, seeded from SeedSequence([noise_seed mod 2**64,
    round_index, crc32(sequence id), frame id]); crc32, unlike hash(), does
    not change from one interpreter to the next."""
    lengths = [seq.n_frames for seq in seqs]
    keys = np.repeat(
        np.array(
            [zlib.crc32(seq.sequence_id.encode("utf-8")) for seq in seqs],
            dtype=np.uint32,
        ),
        lengths,
    )
    offsets = np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])
    frame_ids = (np.arange(offsets[-1]) - np.repeat(offsets[:-1], lengths)).astype(np.uint32)
    entropy = [
        *_uint32_words(noise_seed & 0xFFFFFFFFFFFFFFFF),
        *_uint32_words(round_index),
        keys,
        frame_ids,
    ]
    seed_hi, seed_lo, inc_hi, inc_lo = _seed_state(entropy)
    inc_hi = (inc_hi << _U64_1) | (inc_lo >> _U64_63)
    inc_lo = (inc_lo << _U64_1) | _U64_1
    # From the zero state one step leaves the increment; add the seed, step.
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < inc_lo).astype(np.uint64)
    return (*_pcg_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo)


def _seat(rng: np.random.Generator, states, i: int) -> np.random.Generator:
    """rng with its PCG64 set to frame i's state in _frame_states' layout."""
    hi, lo, inc_hi, inc_lo = (int(a[i]) for a in states)
    rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                               "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}}
    return rng


def _doubles(words: np.ndarray) -> np.ndarray:
    """numpy's next_double of each PCG64 output: its top 53 bits over 2**53."""
    return (words >> _U64_11).astype(np.float64) * (1.0 / 2.0**53)


def _lockstep(states, reads: np.ndarray, jitter=None, rng=None):
    """The next reads[i] words of frame i's stream, in column i, the standard
    normals of a jitter frame's reads t with t % 6 in 1..4, and the states
    after. Frames step sorted longest first, so those still reading are a
    prefix; a normal off the ziggurat's fast path (rabs >= KI[layer]) is
    drawn by rng seated at the frame's state, which the draw then advances."""
    order = np.argsort(-reads, kind="stable")
    hi, lo, inc_hi, inc_lo = ranked = [a[order] for a in states]
    words = np.zeros((int(reads.max(initial=0)), len(reads)), dtype=np.uint64)
    normals = np.zeros(words.shape)
    prefix = len(reads) - np.cumsum(np.bincount(reads, minlength=len(words)))
    for t, m in enumerate(prefix[: len(words)].tolist()):
        h, l = _pcg_step(hi[:m], lo[:m], inc_hi[:m], inc_lo[:m])
        w = words[t, :m] = _xsl_rr(h, l)
        if jitter is not None and 1 <= t % _BOX_READS <= 4:
            rabs, layer = (w >> _U64_9) & _U64_RABS, w & _U64_LAYER
            normals[t, :m] = rabs * WI[layer] * np.where(w & _U64_SIGN, -1.0, 1.0)
            for s in np.flatnonzero(jitter[order[:m]] & (rabs >= KI[layer])):
                normals[t, s] = _seat(rng, ranked, s).standard_normal()
                h[s], l[s] = divmod(rng.bit_generator.state["state"]["state"], 2**64)
        hi[:m], lo[:m] = h, l
    back = np.argsort(order)
    return words[:, back], normals[:, back], [a[back] for a in ranked]


def frame_noise(
    noise_seed: int, round_index: int, seqs: list[Sequence]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each sequence's per-frame noise (eps float64, eta int64) for one round.

    Bit-equal to drawing uniform(-0.05, 0.05) and then integers(-1, 2) from
    every frame's stream: two PCG64 outputs stepped from the _frame_states
    states in one array pass. A frame whose Lemire draw would be redrawn
    (about one in 2**32) draws both from a Generator seated at its state.
    """
    states = _frame_states(noise_seed, round_index, seqs)
    hi, lo, inc_hi, inc_lo = states
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    first = _xsl_rr(hi, lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    second = _xsl_rr(hi, lo)

    eps = _EPS_LOW + _EPS_SPAN * _doubles(first)
    product = (second & _U64_LOW32) * _ETA_SPAN
    eta = (product >> _U64_32).astype(np.int64) + _ETA_LOW
    rng = np.random.Generator(np.random.PCG64())  # seated before every draw
    for i in np.flatnonzero((product & _U64_LOW32) < _ETA_REJECT_BELOW):
        _seat(rng, states, i)
        eps[i] = rng.uniform(-EPSILON_HALF_WIDTH, EPSILON_HALF_WIDTH)
        eta[i] = rng.integers(_ETA_LOW, _ETA_HIGH)
    offsets = np.cumsum([0, *(seq.n_frames for seq in seqs)])
    return [
        (eps[start:stop], eta[start:stop])
        for start, stop in zip(offsets[:-1], offsets[1:])
    ]


def target_quality(state: SurrogateState, seq: Sequence) -> float:
    feat = state.features.get(seq.sequence_id)
    if feat is None:
        raise FeatureError(f"no features for sequence {seq.sequence_id!r}")
    return float(quality(state, feat[None, :])[0])


def frame_scores(
    q: float, seq: Sequence, noise: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame (objectness, predicted count) for one sequence of quality
    q, given its (eps, eta) from frame_noise.

    Objectness is q + eps clamped to [0, 1]; the predicted count is the
    true count scaled by q plus the integer wobble eta in {-1, 0, 1},
    rounded half to even and floored at zero.
    """
    eps, eta = noise
    boxes = np.fromiter((len(f.boxes) for f in seq.frames), dtype=np.int64, count=seq.n_frames)
    objectness = np.minimum(np.maximum(q + eps, 0.0), 1.0)
    counts = np.maximum(np.rint(boxes * q + eta), 0.0).astype(np.int64)
    return objectness, counts


def detection_rows(
    noise_seed: int, round_index: int, seqs: list[Sequence], qs: list[float],
    truths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Detections for every frame of seqs, qs[i] the quality of seqs[i] and
    truths their metrics.truth_rows, as rows (frame, cx, cy, w, h, conf,
    class), frames counted across seqs, and each row's source: its truth
    row, -1 for a false positive. Boxes are jittered with Gaussian noise of
    sd 0.08*(1-q), dropped with probability 0.5*(1-q) and given confidence
    clamp(q + eps, 0.05, 0.99); after them come the frame's false positives,
    at Poisson rate 0.3*(1-q) and with confidence at most 0.4. At q -> 1 the
    rows converge to the truth."""
    lengths = [seq.n_frames for seq in seqs]
    qs = np.asarray(qs, dtype=float)
    q, frame = np.repeat(qs, lengths), truths[:, 0].astype(np.int64)
    boxes = np.bincount(frame, minlength=len(q))
    jitter = JITTER_SD_SCALE * (1.0 - q) > 0
    box_reads = np.where(jitter, _BOX_READS, 2)
    rng = np.random.Generator(np.random.PCG64())  # seated for each scalar draw
    states = _frame_states(noise_seed, round_index, seqs)
    words, normals, states = _lockstep(states, box_reads * boxes, jitter, rng)
    first = box_reads[frame] * (np.arange(len(frame)) - (np.cumsum(boxes) - boxes)[frame])
    jittered = jitter[frame]
    offsets = np.zeros((len(frame), 4))
    offsets[jittered] = normals[first[jittered, None] + np.arange(1, 5), frame[jittered, None]]
    # numpy's poisson multiplies next_doubles while the product stays above
    # exp(-rate) for 0 < rate < 10; PTRS from 10 on, no draw at 0.
    rate = FALSE_POSITIVE_RATE * (1.0 - qs)
    rate, limit = (np.repeat(a, lengths) for a in (rate, [math.exp(-r) for r in rate.tolist()]))
    n_fp = np.zeros(len(q), dtype=np.int64)
    hi, lo, inc_hi, inc_lo = states
    for i in np.flatnonzero(rate >= 10):
        n_fp[i] = _seat(rng, states, i).poisson(rate[i])
        hi[i], lo[i] = divmod(rng.bit_generator.state["state"]["state"], 2**64)
    live, product = np.flatnonzero((rate > 0) & (rate < 10)), 1.0
    while live.size:
        h, l = hi[live], lo[live] = _pcg_step(hi[live], lo[live], inc_hi[live], inc_lo[live])
        product *= _doubles(_xsl_rr(h, l))
        more = product > limit[live]
        n_fp[live[more]] += 1
        live, product = live[more], product[more]
    # False positive k's class: a fresh word's low half for even k, else its high half.
    fp_words = _lockstep(states, _FP_READS * n_fp + (n_fp + 1) // 2)[0]
    fp_frame = np.repeat(np.arange(len(q)), n_fp)
    k = np.arange(len(fp_frame)) - np.repeat(np.cumsum(n_fp) - n_fp, n_fp)
    pair, odd = (2 * _FP_READS + 1) * (k // 2), k % 2 == 1
    word = fp_words[pair, fp_frame]
    cls = np.where(odd, word >> _U64_32, word & _U64_LOW32) >> _U64_30
    reads = (pair + np.where(odd, _FP_READS + 1, 1))[:, None] + np.arange(_FP_READS)
    fp_low = np.array([0.0, 0.0, 0.02, 0.02, CONF_FLOOR])  # uniform(low, high), cx .. conf
    fp_span = np.array([1.0, 1.0, 0.15, 0.15, FALSE_POSITIVE_MAX_CONF]) - fp_low
    draws = fp_low + fp_span * _doubles(fp_words[reads, fp_frame[:, None]])
    fps = np.column_stack([fp_frame, draws, cls])
    q = q[frame]
    rows = np.column_stack([truths[:, :5], q, truths[:, 5]])
    kept = ~(_doubles(words[first, frame]) < DROP_PROB_SCALE * (1.0 - q))
    # normal(0, sd) and uniform(-0.05, 0.05), as numpy computes them.
    sd = JITTER_SD_SCALE * (1.0 - q)
    rows[:, 1:5] += 0.0 + sd[:, None] * offsets
    rows[:, 3:5] = np.minimum(np.maximum(rows[:, 3:5], 1e-3), 1.0)
    eps = _EPS_LOW + _EPS_SPAN * _doubles(words[first + box_reads[frame] - 1, frame])
    rows[:, 5] = np.minimum(np.maximum(q + eps, CONF_FLOOR), CONF_CEIL)
    rows = np.concatenate([rows[kept], fps])
    order = np.argsort(rows[:, 0], kind="stable")
    rows = rows[order]
    # clamp_box's arithmetic: center into [0, 1], extents capped, edges clipped.
    center = np.minimum(np.maximum(rows[:, 1:3], 0.0), 1.0)
    half = np.minimum(rows[:, 3:5], 1.0) / 2
    low, high = np.maximum(center - half, 0.0), np.minimum(center + half, 1.0)
    rows[:, 1:3], rows[:, 3:5] = (low + high) / 2, high - low
    return rows, np.concatenate([np.flatnonzero(kept), np.full(len(fps), -1)])[order]


def predict_test(
    state: SurrogateState, seq: Sequence
) -> list[list[tuple[BoundingBox, float]]]:
    """detection_rows for one sequence as a list per frame of (BoundingBox,
    confidence); a kept truth box keeps its class and occlusion flag."""
    q = target_quality(state, seq)
    truths = truth_rows([f.boxes for f in seq.frames])
    rows, source = detection_rows(state.noise_seed, state.round_index, [seq], [q], truths)
    boxes = [b for f in seq.frames for b in f.boxes]
    out: list[list[tuple[BoundingBox, float]]] = [[] for _ in seq.frames]
    for (frame, cx, cy, w, h, conf, cls), i in zip(rows.tolist(), source.tolist()):
        geom = {"cx": cx, "cy": cy, "w": w, "h": h}
        box = replace(boxes[i], **geom) if i >= 0 else BoundingBox(int(cls), **geom)
        out[int(frame)].append((box, conf))
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


# (column, parser) of each trace file, in file order.
_SCORE_FIELDS = (("seed", int), ("round", int), ("sequence_id", str), ("frame_id", int),
                 ("uncertainty", unit), ("pred_count", count))
_METRIC_FIELDS = (("seed", int), ("round", int), ("map50", optional_unit),
                  ("map5095", optional_unit))
# trace.csv is parsed _TRACE_BLOCK bytes at a time. In write_traces' shape
# a block's flagged bytes are five commas then CRLF per row: no quote, no NUL.
_TRACE_BLOCK = 1 << 17
_TRACE_HEADER = ",".join(name for name, _ in _SCORE_FIELDS) + "\r\n"
_ROW_SEPARATORS = np.frombuffer(b",,,,,\r\n", dtype=np.uint8)
_FLAGGED = np.isin(np.arange(256), list(b',"\r\n\0'))


def write_traces(
    traces: dict[int, ScoreTrace], scores_path: Path | str, metrics_path: Path | str
) -> None:
    """Serialize per-seed traces. Floats keep full repr precision: replay
    must reproduce bit-identical selections and records. trace.csv is
    tables.write_table's dialect joined by hand, one string per sequence,
    with an id quoted where csv quotes it."""
    with open(scores_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_TRACE_HEADER)
        for seed in sorted(traces):
            rounds = traces[seed].rounds
            for rnd in sorted(rounds):
                for sid in sorted(rounds[rnd]):
                    objectness, counts = rounds[rnd][sid]
                    quote = any(c in sid for c in ',"\r\n')
                    cell = '"' + sid.replace('"', '""') + '"' if quote else sid
                    head = f"{seed},{rnd},{cell},"
                    rows = enumerate(zip(objectness.tolist(), counts.tolist()))
                    fh.write("".join([f"{head}{f},{p!r},{n}\r\n" for f, (p, n) in rows]))

    def metric_rows():
        for seed in sorted(traces):
            for rnd, maps in sorted(traces[seed].test_metrics.items()):
                yield seed, rnd, *("" if m is None else repr(float(m)) for m in maps)

    write_table(metrics_path, [name for name, _ in _METRIC_FIELDS], metric_rows())


def _score_columns(path: Path | str) -> list | None:
    """((seed, round, sequence id), (uncertainty, counts)) per sequence of a
    trace.csv in write_traces' shape, parsed by columns a block at a time,
    with no object kept per row; None for a file in any other shape."""
    keys, starts, columns = [], [], [(np.empty(0), np.empty(0, np.int64))]
    last, rows = (0, 0, 0, None), 0  # the (seed, round, fid, sid) before the block
    with open(path, "rb") as fh:
        if fh.readline() != _TRACE_HEADER.encode():
            return None
        rest = b""
        for chunk in iter(lambda: fh.read(_TRACE_BLOCK), b""):
            head, end, rest = (rest + chunk).rpartition(b"\r\n")
            block = np.frombuffer(head + end, dtype=np.uint8)
            flagged = block[_FLAGGED[block]]
            if flagged.size % 7 or (flagged.reshape(-1, 7) != _ROW_SEPARATORS).any():
                return None
            try:
                cells = (head + end).decode().replace("\r\n", ",").split(",")
                seed, rnd, fid, cnt = (np.array(cells[i:-1:6], np.int64) for i in (0, 1, 3, 5))
                unc = np.fromiter(map(float, cells[4:-1:6]), dtype=float, count=fid.size)
            except (UnicodeDecodeError, ValueError, OverflowError):
                return None
            sids = cells[2:-1:6]
            before = [np.concatenate([[x], a[:-1]]) for x, a in zip(last, (seed, rnd, fid))]
            new = (seed != before[0]) | (rnd != before[1]) | np.fromiter(
                map(operator.ne, sids, [last[3], *sids[:-1]]), dtype=bool, count=len(sids))
            # the parsers' domains, and frames 0..N-1 in order within each sequence
            in_order = fid == np.where(new, 0, before[2] + 1)
            if not ((unc >= 0.0) & (unc <= 1.0) & (cnt >= 0) & in_order).all():
                return None
            at = np.flatnonzero(new)
            keys += zip(seed[at].tolist(), rnd[at].tolist(), [sids[i] for i in at])
            starts += (at + rows).tolist()
            columns.append((unc, cnt))
            if sids:
                last, rows = (seed[-1], rnd[-1], fid[-1], sids[-1]), rows + len(sids)
    if rest or any(a >= b for a, b in zip(keys, keys[1:])):
        return None
    uncertainty, counts = (np.concatenate(c) for c in zip(*columns))
    bounds = zip(starts, [*starts[1:], rows])
    return [(key, (uncertainty[a:b], counts[a:b])) for key, (a, b) in zip(keys, bounds)]


def _score_rows(path: Path | str):
    """trace.csv read row by row through tables.parsed_rows, which names
    the file, line and field of a fault."""
    staged: dict[tuple[int, int, str], list[tuple[int, float, int]]] = {}
    for seed, rnd, sid, fid, unc, count in parsed_rows(path, _SCORE_FIELDS):
        staged.setdefault((seed, rnd, sid), []).append((fid, unc, count))
    for key, rows in staged.items():
        fids, uncertainty, counts = zip(*sorted(rows))
        if fids != tuple(range(len(rows))):
            raise TraceError(f"trace rows for seed {key[0]} round {key[1]} sequence "
                             f"{key[2]!r} do not cover frames 0..N-1")
        yield key, (np.array(uncertainty, dtype=float), np.array(counts, dtype=np.int64))


def read_traces(
    scores_path: Path | str, metrics_path: Path | str
) -> dict[int, ScoreTrace]:
    """Per-seed traces from the two files write_traces writes."""
    traces: dict[int, ScoreTrace] = {}
    for (seed, rnd, sid), arrays in _score_columns(scores_path) or _score_rows(scores_path):
        traces.setdefault(seed, ScoreTrace()).rounds.setdefault(rnd, {})[sid] = arrays
    for seed, rnd, m50, m5095 in parsed_rows(metrics_path, _METRIC_FIELDS, unique=2):
        traces.setdefault(seed, ScoreTrace()).test_metrics[rnd] = (m50, m5095)
    return traces
