import csv
import itertools
import math

import pytest

from seqal.acquisition import StrategySpec
from seqal.costing import (
    OverheadModel,
    frame_cost,
    overhead_conformal,
    overhead_inferential,
    theoretical_cost_bounds,
)
from seqal.errors import DomainError, PoolExhaustedError
from seqal.pool import Frame, PoolState, Sequence, Split
from seqal.runner import RoundRecord, RunConfig, run_experiment, write_ledger
from seqal.synth import GenConfig

from conftest import make_meta, make_pool, make_sequence


def bounds_oracle(costs, n_rounds):
    asc = sorted(costs)
    lower = [sum(asc[: k + 1]) for k in range(n_rounds)]
    upper = [sum(sorted(costs, reverse=True)[: k + 1]) for k in range(n_rounds)]
    return lower, upper


def bare_sequence(n_frames, cost):
    """A sequence of n_frames box-free frames; frame_cost reads only its
    length and cost."""
    return Sequence(make_meta("s", cost=cost), [Frame(f, [], None) for f in range(n_frames)])


def test_frame_cost_matches_closed_form():
    import random

    rnd = random.Random(13)
    for _ in range(300):
        n, rate = rnd.randint(1, 900), rnd.randint(1, 40)
        cost = rnd.uniform(0.1, 50.0)
        seq = bare_sequence(n, cost)
        keyframes = range(0, n, rate)
        for fid in range(n):
            want = cost / len(keyframes) if fid in keyframes else 0.0
            assert frame_cost(seq, fid, rate) == want, (n, rate, fid)


def test_frame_cost_charges_keyframes_only():
    seq = bare_sequence(10, 3.0)
    assert [f for f in range(10) if frame_cost(seq, f, 4) > 0] == [0, 4, 8]
    assert all(frame_cost(seq, f, 4) == 1.0 for f in (0, 4, 8))
    # rate 1: every frame is a keyframe at cost / N
    assert all(frame_cost(seq, f, 1) == 0.3 for f in range(10))
    # a rate past the length leaves frame 0 the only keyframe, at full cost
    assert frame_cost(bare_sequence(1, 3.0), 0, 100) == 3.0


def test_sequential_cost_is_full_cost():
    # a sequential round charges each picked sequence's cost_hours, whatever
    # the interpolation rate
    pool = make_pool(n_train=6, n_frames=4, boxes_per_frame=2, raster_size=(16, 16))
    for rate in (1, 3):
        for record in ledger_run("random", pool=pool, interpolation_rate=rate):
            want = 0.0
            for sid in record.selected:
                want += pool.sequences[sid].meta.cost_hours
            assert record.cost_hours == want


def test_singular_keyframe_price():
    # 10 hours over 100 frames at rate 10: each of the 10 keyframes costs 1h
    seq = bare_sequence(100, 10.0)
    assert frame_cost(seq, 0, 10) == 1.0
    assert frame_cost(seq, 90, 10) == 1.0
    assert frame_cost(seq, 95, 10) == 0.0
    total = 0.0
    for fid in range(100):
        total += frame_cost(seq, fid, 10)
    assert total == 10.0
    # 101 frames: an 11th keyframe at frame 100, each at 10/11 h
    assert frame_cost(bare_sequence(101, 10.0), 100, 10) == 10.0 / 11


def test_singular_cost_validation():
    seq = bare_sequence(4, 1.0)
    for rate in (0, -1):
        with pytest.raises(DomainError):
            frame_cost(seq, 0, rate)


# --- annotation cost bounds ----------------------------------------------


def test_theoretical_cost_bounds_hand_case():
    lower, upper = theoretical_cost_bounds([5.0, 1.0, 3.0], 3)
    assert lower == [1.0, 4.0, 9.0]
    assert upper == [5.0, 8.0, 9.0]


def test_theoretical_cost_bounds_match_oracle():
    import random

    rnd = random.Random(5)
    for _ in range(25):
        costs = [rnd.uniform(0.1, 9.0) for _ in range(rnd.randint(1, 12))]
        n = rnd.randint(1, len(costs))
        lower, upper = theoretical_cost_bounds(costs, n)
        olo, ohi = bounds_oracle(costs, n)
        assert lower == pytest.approx(olo, abs=1e-12)
        assert upper == pytest.approx(ohi, abs=1e-12)
        assert all(l <= u + 1e-12 for l, u in zip(lower, upper))


def test_theoretical_cost_bounds_validation():
    with pytest.raises(DomainError):
        theoretical_cost_bounds([1.0], 0)
    with pytest.raises(PoolExhaustedError):
        theoretical_cost_bounds([1.0], 2)


def test_theoretical_cost_bounds_overflow_and_non_finite_raise():
    with pytest.raises(DomainError, match="not finite"):
        theoretical_cost_bounds([1e308, 1e308], 2)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            theoretical_cost_bounds([1.0, bad, 2.0], 1)


def test_theoretical_cost_bounds_sum_from_positive_zero():
    lower, upper = theoretical_cost_bounds([-0.0, -0.0, 1.0], 3)
    assert [math.copysign(1.0, v) for v in lower + upper] == [1.0] * 6
    assert all(type(v) is float for v in lower + upper)


# --- compute overhead ----------------------------------------------------


def test_overhead_inferential_cumulative():
    model = OverheadModel()
    out = list(itertools.accumulate(overhead_inferential(model, f) for f in [30, 20, 10]))
    # 4.1 * 30 is not exactly 123 in floats, so compare tightly, not exactly
    assert out[0] == pytest.approx(123.0, abs=1e-9)
    assert out[1] == pytest.approx(205.0, abs=1e-9)
    assert out[2] == pytest.approx(246.0, abs=1e-9)
    assert out == sorted(out)
    with pytest.raises(DomainError):
        overhead_inferential(model, -1)


def test_overhead_conformal_flat_price():
    model = OverheadModel()
    assert overhead_conformal(model, 76242) == pytest.approx(2328430.68, abs=1e-6)
    assert overhead_conformal(model, 0) == 0.0
    with pytest.raises(DomainError):
        overhead_conformal(model, -1)


def overhead_bounds(model, sequence_lengths, n_rounds):
    """Cumulative detector-overhead envelopes under extreme removal orders.

    Each round charges the frames still in the pool, then removes the next
    sequence. The first list removes shortest-first (the pool stays large,
    so this is the upper envelope); the second removes longest-first.
    """
    if n_rounds < 1:
        raise DomainError(f"n_rounds must be >= 1, got {n_rounds}")
    if n_rounds > len(sequence_lengths):
        raise PoolExhaustedError(f"cannot simulate {n_rounds} rounds")

    def simulate(order):
        remaining = sum(order)
        out, total = [], 0.0
        for k in range(n_rounds):
            total += overhead_inferential(model, remaining)
            out.append(total)
            remaining -= order[k]
        return out

    ascending = sorted(sequence_lengths)
    return simulate(ascending), simulate(ascending[::-1])


def test_overhead_bounds_hand_case():
    model = OverheadModel()
    # lengths 10 and 20: shortest-first keeps 20 frames for round 2,
    # longest-first only 10
    slow, fast = overhead_bounds(model, [20, 10], 2)
    assert slow[0] == pytest.approx(123.0, abs=1e-9)
    assert slow[1] == pytest.approx(123.0 + 4.1 * 20, abs=1e-9)
    assert fast[0] == pytest.approx(123.0, abs=1e-9)
    assert fast[1] == pytest.approx(123.0 + 4.1 * 10, abs=1e-9)


def test_overhead_bounds_envelope_property():
    import random

    model = OverheadModel(detector_gflops_per_frame=1.0)
    rnd = random.Random(2)
    lengths = [rnd.randint(1, 30) for _ in range(5)]
    n = 4
    slow, fast = overhead_bounds(model, lengths, n)
    for perm in itertools.permutations(lengths):
        remaining = sum(perm)
        total = 0.0
        for k in range(n):
            total += model.detector_gflops_per_frame * remaining
            assert fast[k] - 1e-9 <= total <= slow[k] + 1e-9
            remaining -= perm[k]


def test_overhead_bounds_validation():
    model = OverheadModel()
    with pytest.raises(DomainError):
        overhead_bounds(model, [5], 0)
    with pytest.raises(PoolExhaustedError):
        overhead_bounds(model, [5], 2)


# --- ledger --------------------------------------------------------------


def ledger_run(kind="entropy", pool=None, **kw):
    settings = dict(seed_sequences=1, rounds=3, seeds=(1, 0), evaluate=False)
    settings.update(kw)
    # pool_source is unused when a pool is passed in
    cfg = RunConfig(pool_source=GenConfig(), strategy=StrategySpec(kind), **settings)
    if pool is None:
        pool = make_pool(n_train=6, n_frames=4, boxes_per_frame=2, raster_size=(16, 16))
    return run_experiment(cfg, pool=pool)


def read_ledger(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_overhead_regime_per_kind():
    # Round 0 and round 1 overhead of one seed; the pool's train split has
    # 6 sequences x 4 frames and the seed round labels one sequence.
    detector = [4.1 * 20, 4.1 * 16]
    flow = [30.54 * 24, 0.0]
    free = [0.0, 0.0]
    regimes = {
        "random": free,
        "least_frame": free,
        "most_frame": free,
        "min_motion": flow,
        "min_max_motion": flow,
        "min_boxes": flow,
        "entropy": detector,
        "least_confidence": detector,
        "margin": detector,
        "false_switch": detector,
        "gauss_switch": detector,
        "coreset": detector,
    }
    for kind, want in regimes.items():
        records = ledger_run(kind, seeds=(0,), rounds=1)
        assert [r.overhead_gflops for r in records] == want, kind


def test_ledger_accumulates():
    records = ledger_run()
    for seed in (0, 1):
        rows = [r for r in records if r.seed == seed]
        assert [r.round_index for r in rows] == [0, 1, 2, 3]
        cost = over = 0.0
        for r in rows:
            cost += r.cost_hours
            over += r.overhead_gflops
            assert r.cum_cost_hours == cost  # same accumulation order, exact
            assert r.cum_overhead_gflops == over


def test_ledger_rejects_negative_charges():
    seqs = [make_sequence(f"t{i}", n_frames=3, cost=-1.0) for i in range(4)]
    seqs.append(make_sequence("test0", n_frames=3, split=Split.TEST))
    with pytest.raises(DomainError):
        ledger_run("random", pool=PoolState.from_sequences(seqs))
    for price in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            OverheadModel(detector_gflops_per_frame=price)
        with pytest.raises(DomainError):
            OverheadModel(flow_gflops_per_pair=price)
    assert OverheadModel(0.0, 0.0).flow_gflops_per_pair == 0.0


def test_empty_ledger_totals(tmp_path):
    path = tmp_path / "ledger.csv"
    write_ledger([], path)
    assert path.read_text().splitlines() == [
        "seed,round,selected_ids,round_cost_h,cum_cost_h,round_gflops,cum_gflops"
    ]
    for first in (r for r in ledger_run() if r.round_index == 0):
        assert first.cum_cost_hours == first.cost_hours
        assert first.cum_overhead_gflops == first.overhead_gflops


def rec(seed, rnd, selected, cost, cum_cost, over, cum_over):
    return RoundRecord(rnd, seed, "random", selected, cost, cum_cost, over, cum_over)


def test_write_ledger_format(tmp_path):
    records = [
        rec(1, 0, ("x",), 1.0, 1.0, 0.0, 0.0),
        rec(1, 1, ("y", "z"), 2.0, 3.0, 41.0, 41.0),
        rec(0, 0, ("w",), 0.5, 0.5, 0.0, 0.0),
    ]
    path = tmp_path / "ledger.csv"
    write_ledger(records, path)
    rows = read_ledger(path)
    assert [(r["seed"], r["round"]) for r in rows] == [("0", "0"), ("1", "0"), ("1", "1")]
    assert rows[2]["selected_ids"] == "y;z"
    assert rows[2]["round_cost_h"] == "2.000000"
    assert rows[2]["cum_cost_h"] == "3.000000"
    assert rows[2]["round_gflops"] == "41.000000"
    assert rows[2]["cum_gflops"] == "41.000000"
