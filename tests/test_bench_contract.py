"""The benchmark under perfbench/ calls the package by name: its checks
build SurrogateState and call predict_test and pool_feature_table, and its
worker wraps module attributes and counts work from their arguments and
results. These tests run its workloads' configs on a small pool through
that code, unchanged, so an API change that would break a benchmark run
fails here first."""

from __future__ import annotations

import csv
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from seqal import acquisition, flowproxy, metrics, runner, surrogate
from seqal import pool as pool_mod
from seqal.surrogate import SurrogateState
from seqal.synth import GenConfig, generate_pool

import gmm_oracle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SMALL_POOL = GenConfig(rng_seed=0, n_sequences=30, frame_len_range=(20, 26))
WRAPPED_MODULES = (acquisition, flowproxy, metrics, runner, surrogate, pool_mod)


@pytest.fixture
def bench(monkeypatch):
    """perfbench's checks, workloads and worker modules; sys.path is put
    back when the test ends."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import worker
    import workloads

    return checks, workloads, worker


def csv_rows(path: Path) -> int:
    return len(path.read_text().splitlines()) - 1


def test_checks_pass_on_the_workload_configs(bench, tmp_path):
    checks, workloads, _ = bench
    entropy = replace(workloads.entropy_config(0), pool_source=SMALL_POOL)
    runner.run_experiment(entropy, pool=generate_pool(SMALL_POOL), out_dir=tmp_path / "run")
    assert checks.check_entropy(generate_pool(SMALL_POOL), 0, tmp_path / "run") == []

    pool = generate_pool(SMALL_POOL)
    live, again = tmp_path / "live", tmp_path / "replay"
    runner.run_experiment(replace(workloads.gauss_config(0), pool_source=SMALL_POOL),
                          pool=pool, out_dir=live)
    replay = replace(workloads.gauss_config(0, replay_from=live), pool_source=SMALL_POOL)
    runner.run_experiment(replay, pool=pool, out_dir=again)
    assert checks.check_gauss(generate_pool(SMALL_POOL), 0, live, again) == []


def test_worker_counters_match_the_run(bench, tmp_path, monkeypatch):
    _, workloads, worker = bench
    entropy = replace(workloads.entropy_config(0), pool_source=SMALL_POOL)
    gauss = replace(workloads.gauss_config(0), pool_source=SMALL_POOL)
    fits = []  # the values of every 2-GMM fit, under the worker's wrapper
    fit_gmm2 = acquisition.fit_gmm2
    monkeypatch.setattr(acquisition, "fit_gmm2", lambda values: fits.append(values) or fit_gmm2(values))
    saved = {mod: dict(vars(mod)) for mod in WRAPPED_MODULES}
    tracer = worker.Tracer()
    try:
        worker.install(tracer, [])
        runner.run_experiment(entropy, pool=generate_pool(SMALL_POOL), out_dir=tmp_path / "run")
        runner.run_experiment(gauss, pool=generate_pool(SMALL_POOL), out_dir=tmp_path / "live")
    finally:
        for mod, attrs in saved.items():
            for name, value in attrs.items():
                if vars(mod)[name] is not value:
                    setattr(mod, name, value)
    for mod, attrs in saved.items():
        assert all(vars(mod)[name] is value for name, value in attrs.items()), mod.__name__
    values = tracer.values

    # The runner ranks every round, the seed draws included, through
    # acquisition.rank and acquisition.coreset, which the worker does not
    # wrap; select is only the public wrapper over them, so it reads 0.
    assert values["acquisition.select_calls"] == 0
    # The gauss run fits its switch scores, small non-negative integers, in
    # the rounds where they differ; every fit takes as many EM iterations
    # as the numpy EM fit_gmm2 replaced.
    assert fits and all(np.ptp(v) > 0 and (v >= 0).all() and (v == np.rint(v)).all() for v in fits)
    assert values["acquisition.fit_gmm2_calls"] == len(fits)
    assert values["acquisition.gmm_iterations"] == sum(gmm_oracle.fit_gmm2(v).iterations for v in fits)
    # Every scored frame is one trace row; the entropy run alone evaluates.
    assert values["surrogate.frames_scored"] == (
        csv_rows(tmp_path / "run" / "trace.csv") + csv_rows(tmp_path / "live" / "trace.csv")
    )
    # Evaluation runs through surrogate.detection_rows and
    # metrics.mean_ap_rows, which the worker does not wrap: the counters it
    # keeps on predict_test and mean_ap read 0; that time is runner.self_s.
    for name in ("surrogate.predict_test_s", "surrogate.test_frames", "surrogate.detections",
                 "metrics.mean_ap_s", "metrics.mean_ap_calls", "metrics.predictions",
                 "metrics.truth_boxes"):
        assert values[name] == 0, name
    pool = generate_pool(SMALL_POOL)
    pool = runner.filter_small_boxes(pool, entropy.min_box_pixels, entropy.reference_resolution)
    test_seqs = [pool.sequences[sid] for sid in pool.test_ids]
    features, sigma = surrogate.pool_feature_table(pool)
    labeled, detections = [], 0
    with open(tmp_path / "run" / "records.csv", newline="") as fh:
        records = list(csv.DictReader(fh))
    assert [int(r["round"]) for r in records] == list(range(entropy.rounds + 1))
    assert entropy.seeds == (0,)
    for rnd, record in enumerate(records):
        labeled += record["selected_ids"].split(";")
        state = SurrogateState(
            round_index=rnd,
            labeled_features=[features[s] for s in labeled],
            kappa=entropy.kappa,
            noise_seed=0,
            sigma=sigma,
            features=features,
        )
        # predict_test, which the benchmark's checks call, gives the run's
        # detections: detection_rows' rows for the round, sequence by sequence.
        per_frame = [d for seq in test_seqs for d in surrogate.predict_test(state, seq)]
        qs = surrogate.quality(state, np.stack([features[s] for s in pool.test_ids])).tolist()
        truths = metrics.truth_rows([f.boxes for seq in test_seqs for f in seq.frames])
        rows, _ = surrogate.detection_rows(0, rnd, test_seqs, qs, truths)
        assert [len(d) for d in per_frame] == np.bincount(
            rows[:, 0].astype(int), minlength=len(per_frame)).tolist()
        detections += len(rows)
    assert detections > 0
