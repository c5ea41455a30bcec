"""End-to-end experiment runner tests on tiny deterministic pools."""

import csv
from dataclasses import replace

import numpy as np
import pytest

import seqal.flowproxy as fp
import seqal.surrogate as sg
from seqal.acquisition import StrategySpec
from seqal.errors import DomainError, EmptyTestError, ModeError, PoolExhaustedError, TraceError
from seqal.pool import BoundingBox, PoolState, Split
from seqal.runner import (
    RoundRecord,
    RunConfig,
    _mean_se,
    aggregate,
    filter_small_boxes,
    read_curves,
    run_experiment,
    write_records,
)
from seqal.synth import GenConfig, generate_pool

from conftest import count_calls, make_pool, make_sequence


def tiny_cfg(kind="entropy", **kw):
    base = dict(
        pool_source=GenConfig(),  # unused when a pool is passed in
        strategy=StrategySpec(kind),
        seed_sequences=1,
        rounds=3,
        seeds=(0, 1),
        evaluate=False,
    )
    base.update(kw)
    return RunConfig(**base)


def runner_pool(**kw):
    defaults = dict(n_train=8, n_val=1, n_test=1, n_frames=4, boxes_per_frame=2)
    defaults.update(kw)
    return make_pool(**defaults)


def per_seed(records, seed):
    return [r for r in records if r.seed == seed]


# --- config validation ---------------------------------------------------


def test_run_config_validation():
    with pytest.raises(DomainError):
        tiny_cfg(rounds=-1)
    with pytest.raises(DomainError):
        tiny_cfg(seed_sequences=0)
    with pytest.raises(DomainError):
        tiny_cfg(seeds=())
    with pytest.raises(DomainError):
        tiny_cfg(mode="batchwise")
    with pytest.raises(DomainError):
        tiny_cfg(trace_path="only-one-of-two.csv")
    for bad, message in (
        (dict(interpolation_rate=0), "interpolation_rate must be >= 1, got 0"),
        (dict(frames_per_round=0), "frames_per_round must be >= 1, got 0"),
        (dict(min_box_pixels=-1), "bad box filter settings"),
        (dict(reference_resolution=0), "bad box filter settings"),
    ):
        with pytest.raises(DomainError, match=message):
            tiny_cfg(**bad)
    assert not tiny_cfg().replay
    assert tiny_cfg(trace_path="a", trace_metrics_path="b").replay


def test_run_config_rejects_repeated_seeds():
    for bad in ((0, 0), (3, 1, 3)):
        with pytest.raises(DomainError):
            tiny_cfg(seeds=bad)
    assert tiny_cfg(seeds=(2, 0)).seeds == (2, 0)


def test_run_config_checks_iou_grid():
    for bad in ((), (0.62,), (0.5, 1.0), (float("nan"),)):
        with pytest.raises(DomainError):
            tiny_cfg(iou_thresholds=bad)
    assert tiny_cfg(iou_thresholds=(0.5, 0.85)).iou_thresholds == (0.5, 0.85)


def test_run_config_checks_kappa_and_flow_parameters():
    for bad in (
        dict(kappa=-5.0),
        dict(kappa=float("nan")),
        dict(kappa=float("inf")),
        dict(flow_threshold=300),
        dict(flow_threshold=-1),
        dict(flow_min_area=0),
    ):
        with pytest.raises(DomainError):
            tiny_cfg(**bad)
    assert tiny_cfg(kappa=0.0, flow_threshold=255, flow_min_area=1).kappa == 0.0


# --- record structure ----------------------------------------------------


def test_zero_rounds_yields_seed_record_only():
    pool = runner_pool()
    records = run_experiment(tiny_cfg(rounds=0, seeds=(3,)), pool=pool)
    assert len(records) == 1
    rec = records[0]
    assert rec.round_index == 0 and rec.seed == 3
    assert len(rec.selected) == 1
    assert rec.cum_cost_hours == pool.sequences[rec.selected[0]].meta.cost_hours


def test_record_layout_per_seed():
    records = run_experiment(tiny_cfg(), pool=runner_pool())
    for seed in (0, 1):
        rows = per_seed(records, seed)
        assert [r.round_index for r in rows] == [0, 1, 2, 3]
        assert all(r.strategy_kind == "entropy" for r in rows)
        assert all(len(r.selected) == 1 for r in rows)


def test_no_sequence_selected_twice():
    records = run_experiment(tiny_cfg(rounds=5), pool=runner_pool())
    for seed in (0, 1):
        picked = [s for r in per_seed(records, seed) for s in r.selected]
        assert len(picked) == len(set(picked))


def test_cost_conservation_exact():
    pool = runner_pool()
    records = run_experiment(tiny_cfg(rounds=4), pool=pool)
    for seed in (0, 1):
        total = 0.0
        for rec in per_seed(records, seed):
            total += sum(pool.sequences[s].meta.cost_hours for s in rec.selected)
            assert rec.cum_cost_hours == total  # same accumulation order, exact


def test_equal_cost_pool_gives_integer_costs():
    seqs = [make_sequence(f"t{i}", n_frames=3, cost=1.0) for i in range(6)]
    seqs.append(make_sequence("test0", n_frames=3, split=Split.TEST))
    pool = PoolState.from_sequences(seqs)
    records = run_experiment(tiny_cfg(kind="random", rounds=4, seeds=(0,)), pool=pool)
    assert [r.cum_cost_hours for r in records] == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_budget_check_raises_before_running():
    with pytest.raises(PoolExhaustedError):
        run_experiment(tiny_cfg(rounds=20), pool=runner_pool(n_train=4))


# --- overhead regimes ----------------------------------------------------


def test_inferential_overhead_strictly_increases():
    records = run_experiment(tiny_cfg(kind="entropy"), pool=runner_pool())
    for seed in (0, 1):
        overheads = [r.cum_overhead_gflops for r in per_seed(records, seed)]
        assert all(b > a for a, b in zip(overheads, overheads[1:]))
        assert overheads[0] > 0.0  # the seed round already pays


def test_conformal_overhead_front_loaded():
    pool = runner_pool(raster_size=(16, 16))
    records = run_experiment(tiny_cfg(kind="min_motion"), pool=pool)
    expected = 30.54 * pool.total_train_frames()
    for seed in (0, 1):
        overheads = [r.cum_overhead_gflops for r in per_seed(records, seed)]
        assert overheads[0] == pytest.approx(expected, abs=1e-9)
        assert all(o == overheads[0] for o in overheads)


def test_free_kinds_pay_nothing():
    for kind in ("random", "least_frame", "most_frame"):
        records = run_experiment(tiny_cfg(kind=kind), pool=runner_pool())
        assert all(r.cum_overhead_gflops == 0.0 for r in records)


def test_conformal_run_never_calls_surrogate_scoring(monkeypatch):
    calls = count_calls(monkeypatch, sg, "frame_scores")
    run_experiment(tiny_cfg(kind="min_boxes"), pool=runner_pool(raster_size=(16, 16)))
    assert calls == []


def test_one_quality_pass_per_live_scored_round(monkeypatch, tmp_path):
    quality = count_calls(monkeypatch, sg, "quality")
    scored = count_calls(monkeypatch, sg, "frame_scores")
    seq_cfg = tiny_cfg(kind="entropy", rounds=3)
    sing_cfg = singular_cfg(kind="gauss_switch", rounds=3, seeds=(0, 1))
    for cfg, pool in ((seq_cfg, runner_pool()), (sing_cfg, singular_pool())):
        run_experiment(cfg, pool=pool, out_dir=tmp_path / cfg.mode)
        # rounds 1..R of every seed score; the seed draw does not
        assert len(quality) == cfg.rounds * len(cfg.seeds)
        assert sum(len(targets) for _, targets in quality) == len(scored)
        del quality[:], scored[:]
        replay = replace(
            cfg,
            trace_path=str(tmp_path / cfg.mode / "trace.csv"),
            trace_metrics_path=str(tmp_path / cfg.mode / "trace_metrics.csv"),
        )
        run_experiment(replay, pool=pool)
        assert quality == [] and scored == []


def test_inferential_run_never_touches_flow():
    before = fp.computations()
    run_experiment(tiny_cfg(kind="entropy"), pool=runner_pool(raster_size=(16, 16)))
    run_experiment(tiny_cfg(kind="coreset"), pool=runner_pool(raster_size=(16, 16)))
    assert fp.computations() == before


def test_flow_stats_computed_once_per_sequence():
    before = fp.computations()
    pool = runner_pool(raster_size=(16, 16))
    run_experiment(tiny_cfg(kind="min_motion"), pool=pool)
    assert fp.computations() - before == len(pool.train_ids)
    # a second run over the same pool computes them again: nothing is cached
    run_experiment(tiny_cfg(kind="min_boxes"), pool=pool)
    assert fp.computations() - before == 2 * len(pool.train_ids)


def test_flow_run_reads_the_rasters_the_pool_holds_now():
    cfg = RunConfig(
        pool_source=GenConfig(rng_seed=0, n_sequences=20, frame_len_range=(5, 8)),
        strategy=StrategySpec("min_motion"),
        rounds=3,
        seeds=(0,),
        evaluate=False,
    )

    def zero_rasters(pool):
        for seq in pool.sequences.values():
            for frame in seq.frames:
                frame.raster = np.zeros_like(frame.raster)
        return pool

    pool = generate_pool(cfg.pool_source)
    run_experiment(cfg, pool=pool)
    rerun = run_experiment(cfg, pool=zero_rasters(pool))
    fresh = run_experiment(cfg, pool=zero_rasters(generate_pool(cfg.pool_source)))
    assert [r.selected for r in rerun] == [r.selected for r in fresh]
    assert [r.selected for r in fresh[1:]] == [("seq000",), ("seq001",), ("seq002",)]


def test_feature_table_built_only_when_read(monkeypatch, tmp_path):
    calls = count_calls(monkeypatch, sg, "pool_feature_table")
    run_experiment(tiny_cfg(kind="random"), pool=runner_pool())
    run_experiment(tiny_cfg(kind="min_motion"), pool=runner_pool(raster_size=(16, 16)))
    assert calls == []
    run_experiment(tiny_cfg(kind="random", evaluate=True), pool=runner_pool())
    run_experiment(tiny_cfg(kind="coreset"), pool=runner_pool())
    live = tiny_cfg(kind="entropy", evaluate=True)
    run_experiment(live, pool=runner_pool(), out_dir=tmp_path)
    assert len(calls) == 3
    replay = tiny_cfg(
        kind="entropy",
        evaluate=True,
        trace_path=str(tmp_path / "trace.csv"),
        trace_metrics_path=str(tmp_path / "trace_metrics.csv"),
    )
    run_experiment(replay, pool=runner_pool())
    assert len(calls) == 3


# --- evaluation ----------------------------------------------------------


def test_evaluate_false_leaves_metrics_empty():
    records = run_experiment(tiny_cfg(), pool=runner_pool())
    assert all(r.map50 is None and r.map5095 is None for r in records)


def test_evaluate_true_fills_metrics():
    records = run_experiment(
        tiny_cfg(seeds=(0,), rounds=2, evaluate=True), pool=runner_pool()
    )
    for rec in records:
        assert 0.0 <= rec.map50 <= 1.0
        assert 0.0 <= rec.map5095 <= 1.0


def test_metrics_improve_with_more_labels_on_average():
    records = run_experiment(
        tiny_cfg(kind="entropy", seeds=(0, 1), rounds=5, evaluate=True),
        pool=runner_pool(),
    )
    first = [per_seed(records, s)[0].map50 for s in (0, 1)]
    last = [per_seed(records, s)[-1].map50 for s in (0, 1)]
    assert sum(last) > sum(first)


# --- determinism and replay ----------------------------------------------


def test_run_deterministic():
    a = run_experiment(tiny_cfg(evaluate=True, seeds=(0,)), pool=runner_pool())
    b = run_experiment(tiny_cfg(evaluate=True, seeds=(0,)), pool=runner_pool())
    assert a == b


def test_replay_reproduces_records(tmp_path):
    live_dir = tmp_path / "live"
    cfg = tiny_cfg(kind="false_switch", evaluate=True, rounds=3)
    live = run_experiment(cfg, pool=runner_pool(), out_dir=live_dir)
    assert (live_dir / "trace.csv").is_file()

    replay_dir = tmp_path / "replay"
    cfg2 = tiny_cfg(
        kind="false_switch",
        evaluate=True,
        rounds=3,
        trace_path=str(live_dir / "trace.csv"),
        trace_metrics_path=str(live_dir / "trace_metrics.csv"),
    )
    replayed = run_experiment(cfg2, pool=runner_pool(), out_dir=replay_dir)
    assert replayed == live
    assert (replay_dir / "records.csv").read_bytes() == (
        live_dir / "records.csv"
    ).read_bytes()
    # a replay run must not rewrite trace files
    assert not (replay_dir / "trace.csv").exists()


def test_replay_ignores_round_zero_rows(tmp_path):
    """Round 1 has no switch history: rows for round 0, which no run writes,
    must not become it. The added rows give each seed's last open sequence a
    far-off count, so reading them would change round 1's pick."""
    live_dir = tmp_path / "live"
    cfg = tiny_cfg(kind="false_switch", rounds=3)
    run_experiment(cfg, pool=runner_pool(), out_dir=live_dir)
    trace = live_dir / "trace.csv"
    with open(trace, newline="") as fh:
        round_one = [row for row in csv.DictReader(fh) if row["round"] == "1"]
    last = {}
    for row in round_one:
        last[row["seed"]] = max(last.get(row["seed"], ""), row["sequence_id"])
    with open(trace, "a", newline="") as fh:
        csv.writer(fh).writerows(
            [row["seed"], 0, row["sequence_id"], row["frame_id"], row["uncertainty"],
             50 if row["sequence_id"] == last[row["seed"]] else row["pred_count"]]
            for row in round_one
        )
    assert all(0 in t.rounds for t in sg.read_traces(trace, live_dir / "trace_metrics.csv").values())

    replay = replace(cfg, trace_path=str(trace),
                     trace_metrics_path=str(live_dir / "trace_metrics.csv"))
    run_experiment(replay, pool=runner_pool(), out_dir=tmp_path / "replay")
    assert (tmp_path / "replay" / "records.csv").read_bytes() == (
        live_dir / "records.csv"
    ).read_bytes()


def test_replay_rejects_trace_of_other_frame_counts(tmp_path):
    live = tiny_cfg(kind="entropy", rounds=2)
    run_experiment(live, pool=runner_pool(n_frames=4), out_dir=tmp_path / "seq")
    sing = singular_cfg(kind="entropy", frames_per_round=5, seeds=(1,))
    run_experiment(sing, pool=singular_pool(n_frames=10), out_dir=tmp_path / "sing")
    for cfg, pool, name, seed in (
        (live, runner_pool(n_frames=6), "seq", 0),
        (sing, singular_pool(n_frames=12), "sing", 1),
    ):
        replay = replace(
            cfg,
            trace_path=str(tmp_path / name / "trace.csv"),
            trace_metrics_path=str(tmp_path / name / "trace_metrics.csv"),
        )
        with pytest.raises(TraceError, match=rf"seed {seed} round 1 sequence \S+: "
                           rf"\d+ frames scored, the pool has \d+"):
            run_experiment(replay, pool=pool)


def test_replay_missing_round_raises(tmp_path):
    live, cut = tmp_path / "live", tmp_path / "cut"
    cfg = tiny_cfg(kind="entropy", rounds=3, evaluate=True)
    run_experiment(cfg, pool=runner_pool(), out_dir=live)
    cut.mkdir()
    for name, keep in (("trace.csv", {"1"}), ("trace_metrics.csv", {"0", "1", "3"})):
        header, *rows = (live / name).read_text().splitlines(keepends=True)
        (cut / name).write_text(header + "".join(r for r in rows if r.split(",")[1] in keep))

    # scores cut back to round 1, replayed by a 3-round config
    scores_short = replace(
        cfg,
        evaluate=False,
        trace_path=str(cut / "trace.csv"),
        trace_metrics_path=str(live / "trace_metrics.csv"),
    )
    with pytest.raises(TraceError, match=r"seed 0 round 2: no detector scores"):
        run_experiment(scores_short, pool=runner_pool())
    # round 1 of seed 0 without one open sequence's rows
    header, *rows = (live / "trace.csv").read_text().splitlines(keepends=True)
    gone = next(r.split(",")[2] for r in rows if r.startswith("0,1,"))
    (cut / "holed.csv").write_text(
        header + "".join(r for r in rows if not r.startswith(f"0,1,{gone},"))
    )
    holed = replace(scores_short, trace_path=str(cut / "holed.csv"))
    with pytest.raises(TraceError, match=rf"seed 0 round 1 sequence {gone}: no scores$"):
        run_experiment(holed, pool=runner_pool())
    # test metrics missing round 2, replayed with evaluation on
    metrics_short = replace(
        cfg,
        trace_path=str(live / "trace.csv"),
        trace_metrics_path=str(cut / "trace_metrics.csv"),
    )
    with pytest.raises(TraceError, match=r"seed 0 round 2: no test metrics"):
        run_experiment(metrics_short, pool=runner_pool())


def test_failed_evaluation_still_flushes_ledger(tmp_path):
    # The test split has no boxes, so evaluating seed 0's round 0 fails
    # after that round is charged; the ledger keeps its row.
    seqs = [
        make_sequence(f"t{i}", n_frames=4, cost=1.0 + 0.25 * i, boxes_per_frame=2)
        for i in range(6)
    ]
    seqs.append(make_sequence("test0", n_frames=3, boxes_per_frame=0, split=Split.TEST))
    pool = PoolState.from_sequences(seqs)
    with pytest.raises(EmptyTestError):
        run_experiment(tiny_cfg(evaluate=True), pool=pool, out_dir=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ledger.csv"]
    assert (tmp_path / "ledger.csv").read_bytes() == (
        b"seed,round,selected_ids,round_cost_h,cum_cost_h,round_gflops,cum_gflops\r\n"
        b"0,0,t3,1.750000,1.750000,82.000000,82.000000\r\n"
    )


def test_evaluation_fails_when_the_filter_empties_the_test_split(tmp_path):
    # The test split's boxes are all under the small-box filter (32 px at
    # the 640 px reference). The run builds its test truth rows once, but
    # still fails at round 0's evaluation, after that round is charged.
    seqs = [
        make_sequence(f"t{i}", n_frames=4, cost=1.0 + 0.25 * i, boxes_per_frame=2)
        for i in range(6)
    ]
    test = make_sequence("test0", n_frames=3, boxes_per_frame=2, split=Split.TEST)
    for frame in test.frames:
        frame.boxes = [BoundingBox(b.class_id, b.cx, b.cy, 0.05, 0.05) for b in frame.boxes]
    pool = PoolState.from_sequences(seqs + [test])
    with pytest.raises(EmptyTestError, match="^test split has no truth boxes$"):
        run_experiment(tiny_cfg(evaluate=True), pool=pool, out_dir=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ledger.csv"]
    assert (tmp_path / "ledger.csv").read_bytes() == (
        b"seed,round,selected_ids,round_cost_h,cum_cost_h,round_gflops,cum_gflops\r\n"
        b"0,0,t3,1.750000,1.750000,82.000000,82.000000\r\n"
    )
    assert all(len(f.boxes) == 2 for f in test.frames)


def test_output_files(tmp_path):
    run_experiment(tiny_cfg(evaluate=True), pool=runner_pool(), out_dir=tmp_path)
    for name in ("records.csv", "ledger.csv", "curves.csv", "aggregate.csv", "trace.csv", "trace_metrics.csv"):
        assert (tmp_path / name).is_file(), name
    with open(tmp_path / "records.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == [
        "round",
        "seed",
        "strategy",
        "selected_ids",
        "cum_cost_hours",
        "cum_overhead_gflops",
        "map50",
        "map5095",
    ]


# --- box filter ----------------------------------------------------------


def test_filter_small_boxes_and_rule():
    seq = make_sequence("s", n_frames=1, boxes_per_frame=0)
    tiny = BoundingBox(0, 0.5, 0.5, 0.05, 0.05)        # 32px x 32px: dropped
    wide = BoundingBox(0, 0.5, 0.5, 0.5, 0.05)         # one side large: kept
    tall = BoundingBox(0, 0.5, 0.5, 0.05, 0.5)
    big = BoundingBox(0, 0.5, 0.5, 0.2, 0.2)
    seq.frames[0].boxes = [tiny, wide, tall, big]
    pool = PoolState.from_sequences([seq])
    kept = filter_small_boxes(pool, min_pixels=50, reference_resolution=640)
    assert sum(s.total_boxes() for s in kept.sequences.values()) == 3
    assert kept.sequences["s"].frames[0].boxes == [wide, tall, big]
    # the input pool is unchanged, down to its sequence objects
    assert pool.sequences["s"] is seq and kept.sequences["s"] is not seq
    assert seq.frames[0].boxes == [tiny, wide, tall, big]


def test_filter_small_boxes_threshold_boundary():
    seq = make_sequence("s", n_frames=1, boxes_per_frame=0)
    # exactly 50px is not under the limit
    edge = BoundingBox(0, 0.5, 0.5, 50 / 640, 50 / 640)
    seq.frames[0].boxes = [edge]
    pool = PoolState.from_sequences([seq])
    kept = filter_small_boxes(pool, 50, 640)
    assert kept.sequences["s"].frames[0].boxes == [edge]
    assert kept.sequences["s"] is not seq and seq.frames[0].boxes == [edge]


def test_run_leaves_caller_boxes_alone():
    pool = runner_pool()
    boxes = {sid: [list(f.boxes) for f in seq.frames] for sid, seq in pool.sequences.items()}
    run_experiment(tiny_cfg(min_box_pixels=200), pool=pool)
    assert {sid: [f.boxes for f in seq.frames] for sid, seq in pool.sequences.items()} == boxes
    # a later run with a smaller filter sees the original boxes
    cfg = tiny_cfg(seeds=(0,), rounds=2, evaluate=True)
    assert run_experiment(cfg, pool=pool) == run_experiment(cfg, pool=runner_pool())


# --- singular mode -------------------------------------------------------


def singular_pool(n_train=3, n_frames=100, cost=10.0):
    seqs = [
        make_sequence(f"t{i}", n_frames=n_frames, cost=cost, boxes_per_frame=1)
        for i in range(n_train)
    ]
    seqs.append(make_sequence("test0", n_frames=4, split=Split.TEST))
    return PoolState.from_sequences(seqs)


def singular_cfg(kind="random", **kw):
    base = dict(
        pool_source=GenConfig(),
        strategy=StrategySpec(kind),
        mode="singular",
        interpolation_rate=10,
        frames_per_round=25,
        seed_sequences=1,
        rounds=2,
        seeds=(0,),
        evaluate=False,
    )
    base.update(kw)
    return RunConfig(**base)


def test_singular_keyframe_pricing_exact():
    pool = singular_pool()
    records = run_experiment(singular_cfg(), pool=pool)
    # cost 10 over ceil(100/10) = 10 effective frames: 1 hour per keyframe
    prev = records[0].cum_cost_hours
    assert prev == 10.0  # the fully-labeled seed sequence
    for rec in records[1:]:
        keyframes = sum(
            1 for name in rec.selected if int(name.split(":")[1]) % 10 == 0
        )
        assert rec.cum_cost_hours - prev == pytest.approx(float(keyframes), abs=1e-12)
        prev = rec.cum_cost_hours


def test_singular_selected_names_and_no_repeats():
    records = run_experiment(singular_cfg(kind="entropy", rounds=3), pool=singular_pool())
    seen = set()
    for rec in records[1:]:
        assert len(rec.selected) == 25
        for name in rec.selected:
            sid, fid = name.split(":")
            assert sid.startswith("t") and fid.isdigit()
            assert name not in seen
            seen.add(name)


def test_singular_labeling_every_frame_recovers_full_cost():
    # one seed sequence plus one more: 4 rounds of 25 label the second fully
    pool = singular_pool(n_train=2)
    records = run_experiment(singular_cfg(rounds=4), pool=pool)
    assert records[-1].cum_cost_hours == pytest.approx(20.0, abs=1e-9)


def test_singular_random_has_zero_overhead():
    records = run_experiment(singular_cfg(), pool=singular_pool())
    assert all(r.cum_overhead_gflops == 0.0 for r in records)


def test_singular_score_kind_charges_detector():
    records = run_experiment(singular_cfg(kind="margin"), pool=singular_pool())
    overheads = [r.cum_overhead_gflops for r in records]
    assert overheads[0] == pytest.approx(4.1 * 200, abs=1e-9)  # 2 open sequences
    assert all(b > a for a, b in zip(overheads, overheads[1:]))


def test_singular_rejects_wrong_mode_and_kind():
    with pytest.raises(ModeError):
        run_experiment(singular_cfg(kind="min_motion"), pool=singular_pool())
    with pytest.raises(ModeError):
        run_experiment(singular_cfg(kind="coreset"), pool=singular_pool())


def test_singular_pool_exhausted():
    pool = singular_pool(n_train=2, n_frames=10)
    with pytest.raises(PoolExhaustedError):
        run_experiment(singular_cfg(rounds=2), pool=pool)


# --- aggregation ---------------------------------------------------------


def rec(kind, rnd, seed, cost, m50):
    return RoundRecord(rnd, seed, kind, ("x",), cost, cost, 0.0, 0.0, m50, m50)


def test_mean_se_known_values():
    mean, se = _mean_se([0.4, 0.5, 0.6])
    assert mean == pytest.approx(0.5)
    assert se == pytest.approx(0.05773502691896258, abs=1e-12)
    mean1, se1 = _mean_se([2.0])
    assert mean1 == 2.0 and se1 is None
    # left to right on every Python: ten 0.1s add to 0.9999999999999999
    assert _mean_se([0.1] * 10)[0] == 0.9999999999999999 / 10


def test_aggregate_groups_and_sorts():
    records = [
        rec("entropy", 0, 0, 1.0, 0.4),
        rec("entropy", 0, 1, 2.0, 0.5),
        rec("entropy", 0, 2, 3.0, 0.6),
        rec("entropy", 1, 0, 4.0, 0.7),
        rec("coreset", 0, 0, 1.0, None),
    ]
    rows = aggregate(records)
    assert [(r.strategy_kind, r.round_index) for r in rows] == [
        ("coreset", 0),
        ("entropy", 0),
        ("entropy", 1),
    ]
    ent0 = rows[1]
    assert ent0.n_seeds == 3
    assert ent0.mean_cum_cost_hours == pytest.approx(2.0)
    assert ent0.mean_map50 == pytest.approx(0.5)
    assert ent0.se_map50 == pytest.approx(0.05773502691896258, abs=1e-12)
    assert rows[2].se_cum_cost_hours is None  # single seed
    assert rows[0].mean_map50 is None


def test_aggregate_through_runner():
    records = run_experiment(tiny_cfg(seeds=(0, 1), rounds=2), pool=runner_pool())
    rows = aggregate(records)
    assert all(row.n_seeds == 2 for row in rows)
    assert len(rows) == 3


def test_read_curves_rejects_a_repeated_round(tmp_path):
    """records.csv holds each (seed, round) once: round 1 of seed 0 written
    twice fails naming the file and the line, where it would read back as
    two points of seed 0's curve."""
    rows = [
        RoundRecord(0, 0, "entropy", ("a",), 1.0, 1.0, 0.0, 0.0, map50=0.1),
        RoundRecord(1, 0, "entropy", ("b",), 1.0, 2.0, 0.0, 0.0, map50=0.2),
        RoundRecord(1, 0, "entropy", ("b",), 0.0, 2.0, 0.0, 0.0, map50=0.9),
    ]
    write_records(rows, tmp_path / "records.csv")
    with pytest.raises(TraceError, match=r"records\.csv line 4: repeats seed 0, round 1$"):
        read_curves(tmp_path)
    write_records([*rows[:2], replace(rows[2], seed=1)], tmp_path / "records.csv")
    curves = read_curves(tmp_path)
    assert curves[0].points == [(1.0, 0.1), (2.0, 0.2)] and curves[1].points == [(2.0, 0.9)]
