"""End-to-end checks for the command-line interface.

Every test drives ``seqal.cli.main`` with an argv list and inspects exit
codes and the files left behind, the same way a shell user would.
"""

from __future__ import annotations

import csv
import re
import warnings
from pathlib import Path

import pytest

import seqal.cli
import seqal.runner
from seqal import metrics
from seqal.cli import main
from seqal.pool import Split, load_pool, write_pool
from seqal.tables import cell

from conftest import count_calls, make_pool

GEN_INI = """\
[pool]
source = synth
rng_seed = 9
n_sequences = 10
frame_len_min = 8
frame_len_max = 12
raster_width = 24
raster_height = 24
objects_min = 1
objects_max = 3
"""

RUN_TAIL = """\
[strategy]
kind = entropy

[run]
seed_sequences = 1
rounds = 2
seeds = 0,1

[eval]
evaluate = {evaluate}
"""


def write_ini(tmp_path: Path, text: str, name: str = "cfg.ini") -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_ini_text(evaluate: bool = False) -> str:
    return GEN_INI + "\n" + RUN_TAIL.format(evaluate="true" if evaluate else "false")


SIX_DECIMALS = re.compile(r"-?\d+\.\d{6}")


def assert_crlf_six_decimal(path: Path, numeric_from: int) -> None:
    """Every line of path ends in CRLF, and every cell from column
    numeric_from on is blank or a six-decimal float."""
    lines = path.read_bytes().split(b"\n")
    assert lines.pop() == b"" and all(line.endswith(b"\r") for line in lines)
    for row in lines[1:]:
        for value in row[:-1].decode().split(",")[numeric_from:]:
            assert value == "" or SIX_DECIMALS.fullmatch(value), (path.name, row)


def snapshot(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_loadable_pool(tmp_path):
    cfg = write_ini(tmp_path, GEN_INI)
    out = tmp_path / "pool"
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
    pool = load_pool(out)
    assert len(pool.sequences) == 10
    assert len(pool.train_ids) == 7
    assert len(pool.split_ids(Split.VALIDATION)) == 2
    assert len(pool.test_ids) == 1
    # rasters come along for the ride so flow stats work downstream
    assert all(
        frame.raster is not None
        for seq in pool.sequences.values()
        for frame in seq.frames
    )


def test_gen_is_deterministic_on_disk(tmp_path):
    cfg = write_ini(tmp_path, GEN_INI)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["gen", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["gen", "--config", cfg, "--out", str(out_b)]) == 0
    files_a = snapshot(out_a)
    files_b = snapshot(out_b)
    assert files_a.keys() == files_b.keys()
    assert files_a == files_b


def test_gen_missing_config_file(tmp_path, capsys):
    rc = main(["gen", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "p")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_gen_unknown_key_is_config_error(tmp_path):
    cfg = write_ini(tmp_path, GEN_INI + "frobnicate = 3\n")
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "p")]) == 2


def test_gen_rejects_non_synth_source(tmp_path):
    cfg = write_ini(tmp_path, "[pool]\nsource = /somewhere/else\n")
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "p")]) == 2


def test_gen_negative_rng_seed_is_validation_error(tmp_path, capsys):
    cfg = write_ini(tmp_path, GEN_INI.replace("rng_seed = 9", "rng_seed = -1"))
    out = tmp_path / "pool"
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: rng_seed must be >= 0, got -1\n"
    assert not out.exists()


def test_gen_invalid_raster_is_validation_error(tmp_path, capsys):
    cfg = write_ini(tmp_path, GEN_INI.replace("raster_width = 24", "raster_width = 8"))
    rc = main(["gen", "--config", cfg, "--out", str(tmp_path / "p")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run


def test_run_writes_all_outputs(tmp_path):
    cfg = write_ini(tmp_path, run_ini_text())
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    for name in (
        "records.csv",
        "ledger.csv",
        "curves.csv",
        "aggregate.csv",
        "trace.csv",
        "trace_metrics.csv",
    ):
        assert (out / name).is_file(), name
    with open(out / "records.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["round"] == "0"
    # two seeds, a seed record plus two rounds each
    assert len(rows) == 6
    assert {row["seed"] for row in rows} == {"0", "1"}
    assert all(row["strategy"] == "entropy" for row in rows)


def test_run_strategy_override(tmp_path):
    cfg = write_ini(tmp_path, run_ini_text())
    out = tmp_path / "run"
    rc = main(["run", "--config", cfg, "--out", str(out), "--strategy", "random"])
    assert rc == 0
    with open(out / "records.csv", newline="") as fh:
        assert all(row["strategy"] == "random" for row in csv.DictReader(fh))


def test_run_seed_override(tmp_path):
    cfg = write_ini(tmp_path, run_ini_text())
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
    with open(out / "records.csv", newline="") as fh:
        assert {row["seed"] for row in csv.DictReader(fh)} == {"3"}


def test_run_bad_seed_list(tmp_path):
    cfg = write_ini(tmp_path, run_ini_text())
    args = ["run", "--config", cfg, "--out", str(tmp_path / "run")]
    assert main(args + ["--seed", "3,x"]) == 2
    assert main(args + ["--seed", ""]) == 2


def test_run_from_pool_directory(tmp_path):
    gen_cfg = write_ini(tmp_path, GEN_INI, "gen.ini")
    pool_dir = tmp_path / "pool"
    assert main(["gen", "--config", gen_cfg, "--out", str(pool_dir)]) == 0
    run_cfg = write_ini(
        tmp_path,
        f"[pool]\nsource = {pool_dir}\n\n" + RUN_TAIL.format(evaluate="false"),
        "run.ini",
    )
    out = tmp_path / "run"
    assert main(["run", "--config", run_cfg, "--out", str(out)]) == 0
    assert (out / "records.csv").is_file()


def test_run_on_pgm_with_negative_dimensions_is_validation_error(tmp_path, capsys):
    gen_cfg = write_ini(tmp_path, GEN_INI, "gen.ini")
    pool_dir = tmp_path / "pool"
    assert main(["gen", "--config", gen_cfg, "--out", str(pool_dir)]) == 0
    pgm = sorted((pool_dir / "frames").rglob("*.pgm"))[0]
    pgm.write_bytes(b"P5\n-2 -2\n255\n" + bytes(4))
    run_cfg = write_ini(
        tmp_path,
        f"[pool]\nsource = {pool_dir}\n\n" + RUN_TAIL.format(evaluate="false"),
        "run.ini",
    )
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["run", "--config", run_cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {pgm}: malformed PGM header\n"
    assert not out.exists()


@pytest.mark.parametrize("fault, code", [("truncated", 3), ("removed", 1)])
def test_run_reads_pgms_during_the_run(tmp_path, monkeypatch, capsys, fault, code):
    """load_pool checks each PGM but keeps only its path, so a PGM spoiled
    after the load fails the flow pass that reads it, naming the file."""
    gen_cfg = write_ini(tmp_path, GEN_INI, "gen.ini")
    pool_dir = tmp_path / "pool"
    assert main(["gen", "--config", gen_cfg, "--out", str(pool_dir)]) == 0
    pgm = pool_dir / "frames" / "training" / f"{load_pool(pool_dir).train_ids[0]}_000001.pgm"
    load = seqal.runner.load_pool

    def load_then_spoil(root):
        pool = load(root)
        if fault == "truncated":
            pgm.write_bytes(pgm.read_bytes()[:-1])
        else:
            pgm.unlink()
        return pool

    monkeypatch.setattr(seqal.runner, "load_pool", load_then_spoil)
    tail = RUN_TAIL.format(evaluate="false").replace("kind = entropy", "kind = min_max_motion")
    run_cfg = write_ini(tmp_path, f"[pool]\nsource = {pool_dir}\n\n" + tail, "run.ini")
    capsys.readouterr()
    assert main(["run", "--config", run_cfg, "--out", str(tmp_path / "run")]) == code
    if fault == "truncated":
        assert capsys.readouterr().err == f"error: {pgm}: truncated raster payload\n"
    else:
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{pgm}'\n"


@pytest.mark.parametrize("command", ["gen", "run"])
@pytest.mark.parametrize(
    "setting, message",
    [
        ("alpha_boxes = nan", "cost coefficient alpha_boxes"),
        ("cost_noise_sd = inf", "cost coefficient noise_sd"),
        ("speed_max = inf", "bad speed_range"),
        ("speed_min = nan", "bad speed_range"),
        ("speed_max = 1e17", "bad speed_range"),
    ],
)
def test_non_finite_generator_setting_is_validation_error(
    tmp_path, capsys, command, setting, message
):
    text = GEN_INI + setting + "\n\n" + RUN_TAIL.format(evaluate="false")
    out = tmp_path / "out"
    assert main([command, "--config", write_ini(tmp_path, text), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not out.exists()


def test_run_requires_strategy_kind(tmp_path):
    cfg = write_ini(tmp_path, GEN_INI + "\n[run]\nrounds = 2\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 2


def test_run_unknown_strategy_kind(tmp_path):
    cfg = write_ini(tmp_path, run_ini_text().replace("kind = entropy", "kind = psychic"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 2


def test_run_lone_trace_path_is_config_error(tmp_path):
    cfg = write_ini(
        tmp_path,
        run_ini_text() + "\n[surrogate]\ntrace = only_half.csv\n",
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 2


@pytest.mark.parametrize("evaluate", [True, False])
@pytest.mark.parametrize("grid", ["0.62", "", "0.5,0.6,1.0"])
def test_run_bad_iou_thresholds_fail_before_any_work(tmp_path, evaluate, grid):
    cfg = write_ini(tmp_path, run_ini_text(evaluate) + f"iou_thresholds = {grid}\n")
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("kappa", ["-5", "nan", "inf"])
def test_run_bad_kappa_is_config_error(tmp_path, kappa):
    cfg = write_ini(tmp_path, run_ini_text() + f"\n[surrogate]\nkappa = {kappa}\n")
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("key", ["detector_gflops_per_frame", "flow_gflops_per_pair"])
@pytest.mark.parametrize("price", ["-1", "nan", "inf"])
def test_run_bad_overhead_price_is_config_error(tmp_path, monkeypatch, key, price):
    generated = count_calls(monkeypatch, seqal.runner, "generate_pool")
    cfg = write_ini(tmp_path, run_ini_text() + f"\n[costing]\n{key} = {price}\n")
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert generated == [] and not out.exists()


def test_run_repeated_seeds_is_config_error(tmp_path, monkeypatch):
    generated = count_calls(monkeypatch, seqal.runner, "generate_pool")
    cfg = write_ini(tmp_path, run_ini_text().replace("seeds = 0,1", "seeds = 0,0"))
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    cfg = write_ini(tmp_path, run_ini_text(), "other.ini")
    assert main(["run", "--config", cfg, "--out", str(out), "--seed", "3,1,3"]) == 2
    assert generated == [] and not out.exists()


def test_run_negative_seed_in_file_fails_before_any_work(tmp_path, monkeypatch, capsys):
    generated = count_calls(monkeypatch, seqal.runner, "generate_pool")
    cfg = write_ini(tmp_path, run_ini_text().replace("seeds = 0,1", "seeds = -1"))
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "seeds must be >= 0, got [-1]" in capsys.readouterr().err
    assert generated == [] and not out.exists()


def test_run_negative_seed_override_fails_before_any_seed_runs(tmp_path, monkeypatch):
    generated = count_calls(monkeypatch, seqal.runner, "generate_pool")
    cfg = write_ini(tmp_path, run_ini_text())
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out), "--seed", "0,-2"]) == 2
    assert generated == [] and not out.exists()


@pytest.mark.parametrize("kind", ["entropy", "min_motion"])
@pytest.mark.parametrize(
    "setting", ["flow_threshold = 300", "flow_threshold = -1", "flow_min_area = 0"]
)
def test_run_bad_flow_parameters_fail_before_any_work(tmp_path, monkeypatch, kind, setting):
    generated = count_calls(monkeypatch, seqal.runner, "generate_pool")
    text = run_ini_text().replace("kind = entropy", f"kind = {kind}")
    cfg = write_ini(tmp_path, text.replace("rounds = 2\n", f"rounds = 2\n{setting}\n"))
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert generated == [] and not out.exists()


def test_run_missing_pool_directory(tmp_path):
    # a directory with no manifest fails manifest validation
    cfg = write_ini(
        tmp_path,
        f"[pool]\nsource = {tmp_path / 'absent'}\n\n" + RUN_TAIL.format(evaluate="false"),
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 3


@pytest.mark.parametrize("kind", ["coreset", "min_motion"])
def test_run_singular_kind_without_frame_scores_fails_before_any_work(
    tmp_path, monkeypatch, capsys, kind
):
    generated = count_calls(monkeypatch, seqal.runner, "generate_pool")
    text = run_ini_text().replace("kind = entropy", f"kind = {kind}")
    cfg = write_ini(tmp_path, text.replace("rounds = 2\n", "rounds = 2\nmode = singular\n"))
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert f"strategy '{kind}' has no frame-level scores" in capsys.readouterr().err
    assert generated == [] and not out.exists()


def test_run_budget_beyond_pool_is_config_error(tmp_path, capsys):
    cfg = write_ini(tmp_path, run_ini_text().replace("rounds = 2", "rounds = 50"))
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: budget needs 51 sequences") and err.count("\n") == 1
    assert not out.exists()


def test_run_singular_frames_beyond_pool_is_config_error(tmp_path, capsys):
    # seed draw labels one 10-frame sequence; round 1 wants 25 of the other's 10 frames
    write_pool(make_pool(n_train=2, n_val=0, n_test=1, n_frames=10), tmp_path / "pool")
    text = (
        f"[pool]\nsource = {tmp_path / 'pool'}\n[strategy]\nkind = random\n"
        "[run]\nmode = singular\nseed_sequences = 1\nrounds = 2\nseeds = 0\n"
        "frames_per_round = 25\n[eval]\nevaluate = false\n"
    )
    out = tmp_path / "run"
    assert main(["run", "--config", write_ini(tmp_path, text), "--out", str(out)]) == 2
    assert "need 25 candidates, only 10 remain" in capsys.readouterr().err
    ledger = (out / "ledger.csv").read_text().splitlines()
    assert len(ledger) == 2 and ledger[1].startswith("0,0,")


def replay_ini(tmp_path: Path, live: Path) -> str:
    """An evaluated config that replays the trace files in live."""
    return write_ini(
        tmp_path,
        run_ini_text(evaluate=True)
        + f"\n[surrogate]\ntrace = {live / 'trace.csv'}\n"
        + f"trace_metrics = {live / 'trace_metrics.csv'}\n",
        "replay.ini",
    )


def live_run(tmp_path: Path) -> Path:
    out = tmp_path / "live"
    cfg = write_ini(tmp_path, run_ini_text(evaluate=True), "live.ini")
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    return out


def corrupt_field(path: Path, line: int, column: str, value: str) -> None:
    """Overwrite one field of one 1-based line of a CSV file."""
    lines = path.read_text().splitlines()
    row = lines[line - 1].split(",")
    row[lines[0].split(",").index(column)] = value
    lines[line - 1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "name, column, value",
    [
        ("trace.csv", "round", "x"),
        ("trace_metrics.csv", "map50", "0.5.1"),
        ("trace.csv", "uncertainty", "nan"),
        ("trace_metrics.csv", "map50", "7.5"),
    ],
)
def test_run_malformed_trace_is_validation_error(tmp_path, capsys, name, column, value):
    live = live_run(tmp_path)
    corrupt_field(live / name, 3, column, value)
    capsys.readouterr()
    out = tmp_path / "replay"
    assert main(["run", "--config", replay_ini(tmp_path, live), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert name in err and "line 3" in err and column in err and value in err
    assert not out.exists()


def spoil(path: Path) -> None:
    """Put one byte that does not decode as UTF-8 into a text file."""
    path.write_bytes(path.read_bytes().replace(b"\n", b"\xff\n", 1))


@pytest.mark.parametrize("name", ["records.csv", "trace.csv"])
def test_run_file_that_is_not_utf8_is_validation_error(tmp_path, capsys, name):
    live = live_run(tmp_path)
    spoil(live / name)
    out = tmp_path / "out"
    if name == "records.csv":
        argv = ["metrics", "--run", str(live), "--car-budgets", "1", "--par-budgets", "0.1"]
    else:
        argv = ["run", "--config", replay_ini(tmp_path, live)]
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {live / name}: not UTF-8 text\n"
    assert not out.exists()


@pytest.mark.parametrize("fault", ["malformed", "seed_short"])
def test_run_bad_trace_fails_before_the_pool(tmp_path, monkeypatch, fault):
    live = live_run(tmp_path)
    argv = ["run", "--config", replay_ini(tmp_path, live), "--out", str(tmp_path / "replay")]
    if fault == "malformed":
        corrupt_field(live / "trace.csv", 2, "pred_count", "")
    else:
        argv += ["--seed", "0,5"]  # the trace holds seeds 0 and 1 only
    generated = count_calls(monkeypatch, seqal.runner, "generate_pool")
    assert main(argv) == 3
    assert generated == [] and not (tmp_path / "replay").exists()


@pytest.mark.parametrize("kind", ["random", "least_frame", "min_motion"])
def test_replay_of_a_run_that_reads_no_trace(tmp_path, kind):
    # An unevaluated run of a kind that never scores leaves header-only
    # trace files; its replay reads nothing from them and needs no seed.
    text = run_ini_text().replace("kind = entropy", f"kind = {kind}")
    live, out = tmp_path / "live", tmp_path / "replay"
    assert main(["run", "--config", write_ini(tmp_path, text, "live.ini"), "--out", str(live)]) == 0
    assert len((live / "trace.csv").read_text().splitlines()) == 1
    replay = (
        text
        + f"\n[surrogate]\ntrace = {live / 'trace.csv'}\n"
        + f"trace_metrics = {live / 'trace_metrics.csv'}\n"
    )
    assert main(["run", "--config", write_ini(tmp_path, replay, "replay.ini"), "--out", str(out)]) == 0
    for name in ("records.csv", "ledger.csv"):
        assert (out / name).read_bytes() == (live / name).read_bytes()


@pytest.mark.parametrize("kind, evaluate", [("entropy", False), ("random", True)])
def test_replay_that_reads_the_trace_needs_every_seed(tmp_path, kind, evaluate):
    live = live_run(tmp_path)  # its trace holds seeds 0 and 1 only
    text = run_ini_text(evaluate).replace("kind = entropy", f"kind = {kind}")
    replay = write_ini(
        tmp_path,
        text
        + f"\n[surrogate]\ntrace = {live / 'trace.csv'}\n"
        + f"trace_metrics = {live / 'trace_metrics.csv'}\n",
        "replay.ini",
    )
    argv = ["run", "--config", replay, "--out", str(tmp_path / "replay"), "--seed", "0,5"]
    assert main(argv) == 3


# ---------------------------------------------------------------------------
# metrics


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A small evaluated run shared by the metrics tests."""
    tmp_path = tmp_path_factory.mktemp("metrics_run")
    cfg = write_ini(tmp_path, run_ini_text(evaluate=True))
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    return out


def test_metrics_sweeps(finished_run, tmp_path):
    out = tmp_path / "sweeps"
    rc = main(
        [
            "metrics",
            "--run",
            str(finished_run),
            "--car-budgets",
            "0,1,5",
            "--par-budgets",
            "0.0,0.5",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    with open(out / "car_sweep.csv", newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["seed", "budget_hours", "car"]
        rows = list(reader)
    assert len(rows) == 2 * 3  # seeds x budgets
    assert {row[0] for row in rows} == {"0", "1"}
    zero_rows = [row for row in rows if row[1] == "0.000000"]
    assert zero_rows and all(row[2] == "0.000000" for row in zero_rows)
    with open(out / "par_sweep.csv", newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["seed", "budget_map", "par"]
        assert len(list(reader)) == 2 * 2
    assert_crlf_six_decimal(out / "car_sweep.csv", numeric_from=1)
    assert_crlf_six_decimal(out / "par_sweep.csv", numeric_from=1)


def test_metrics_budget_past_best_map_warns_one_line_each(finished_run, tmp_path, capsys):
    budgets = (0.5, 1.0)
    curves = seqal.runner.read_curves(finished_run)
    assert all(curve.max_map < 1.0 for curve in curves.values())
    out = tmp_path / "sweeps"
    capsys.readouterr()
    argv = ["metrics", "--run", str(finished_run), "--car-budgets", "1",
            "--par-budgets", "0.5,1", "--out", str(out)]
    assert main(argv) == 0
    lines = capsys.readouterr().err.splitlines()
    past = [(s, b) for s, curve in curves.items() for b in budgets if b > curve.max_map]
    assert len(lines) == len(past)
    for line, (seed, budget) in zip(lines, past):
        assert line == (
            f"warning: performance budget {budget} exceeds best achieved mAP "
            f"{curves[seed].max_map}; integrating to the achieved maximum"
        )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = [[str(s), cell(b), cell(metrics.par(c, b))] for s, c in curves.items() for b in budgets]
    with open(out / "par_sweep.csv", newline="") as fh:
        assert list(csv.reader(fh))[1:] == want


def test_metrics_defaults_to_run_directory(finished_run):
    rc = main(
        [
            "metrics",
            "--run",
            str(finished_run),
            "--car-budgets",
            "1",
            "--par-budgets",
            "0.1",
        ]
    )
    assert rc == 0
    assert (finished_run / "car_sweep.csv").is_file()
    assert (finished_run / "par_sweep.csv").is_file()


def test_metrics_missing_run_directory(tmp_path):
    rc = main(
        [
            "metrics",
            "--run",
            str(tmp_path / "absent"),
            "--car-budgets",
            "1",
            "--par-budgets",
            "0.1",
        ]
    )
    assert rc == 1


def test_metrics_unevaluated_run(tmp_path):
    cfg = write_ini(tmp_path, run_ini_text(evaluate=False))
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    rc = main(
        [
            "metrics",
            "--run",
            str(out),
            "--car-budgets",
            "1",
            "--par-budgets",
            "0.1",
        ]
    )
    assert rc == 1


def test_metrics_bad_budget_list(finished_run):
    rc = main(
        [
            "metrics",
            "--run",
            str(finished_run),
            "--car-budgets",
            "1,potato",
            "--par-budgets",
            "0.1",
        ]
    )
    assert rc == 2


@pytest.mark.parametrize(
    "column, value, where",
    [
        ("seed", "x", "line 3: bad seed 'x'"),
        ("cum_cost_hours", "abc", "line 3: bad cum_cost_hours 'abc'"),
        ("cum_cost_hours", "nan", "line 3: bad cum_cost_hours 'nan'"),
        ("cum_cost_hours", "inf", "line 3: bad cum_cost_hours 'inf'"),
        ("cum_cost_hours", "-1.0", "line 3: bad cum_cost_hours '-1.0'"),
        ("map50", "nan", "line 3: bad map50 'nan'"),
        ("map50", "1.5", "line 3: bad map50 '1.5'"),
        ("map50", None, "line 1: no map50 column"),
        ("round", "0", "line 3: repeats seed 0, round 0"),
    ],
)
def test_metrics_malformed_records_is_validation_error(
    finished_run, tmp_path, capsys, column, value, where
):
    run = tmp_path / "run"
    run.mkdir()
    records = (finished_run / "records.csv").read_text()
    if value is None:  # the column leaves the header only
        records = records.replace(f",{column},", ",", 1)
    (run / "records.csv").write_text(records)
    if value is not None:
        corrupt_field(run / "records.csv", 3, column, value)
    out = tmp_path / "sweeps"
    capsys.readouterr()
    argv = ["metrics", "--run", str(run), "--car-budgets", "1", "--par-budgets", "0.1"]
    assert main([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "records.csv" in err and where in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag",
    [
        ("--car-budgets", "-1"),
        ("--car-budgets", "abc"),
        ("--car-budgets", "nan"),
        ("--par-budgets", "1.5"),
        ("--par-budgets", "-0.1"),
        ("--par-budgets", "nan"),
    ],
)
def test_metrics_bad_budgets_fail_before_any_work(tmp_path, capsys, flag):
    # the run directory does not exist: reading it would exit 1, not 2
    run, out = tmp_path / "run", tmp_path / "sweeps"
    budgets = {"--car-budgets": "1", "--par-budgets": "0.1"}
    budgets.update([flag])
    argv = ["metrics", "--run", str(run), "--out", str(out)]
    assert main(argv + [part for item in budgets.items() for part in item]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists() and not run.exists()


# ---------------------------------------------------------------------------
# bounds


def test_bounds_csv_matches_hand_computation(tmp_path):
    # train costs are 1.0, 1.5, 2.0, 2.5 by construction
    write_pool(make_pool(n_train=4), tmp_path / "pool")
    out = tmp_path / "bounds.csv"
    rc = main(["bounds", "--pool", str(tmp_path / "pool"), "--rounds", "3", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (
        b"bound,round_1,round_2,round_3\r\n"
        b"lower,1.000000,2.500000,4.500000\r\n"
        b"upper,2.500000,4.500000,6.000000\r\n"
    )


def test_bounds_zero_rounds_is_usage_error(tmp_path, monkeypatch):
    write_pool(make_pool(n_train=4), tmp_path / "pool")
    loaded = count_calls(monkeypatch, seqal.cli, "load_pool")
    for rounds in ("0", "-2"):
        rc = main(
            ["bounds", "--pool", str(tmp_path / "pool"), "--rounds", rounds, "--out", str(tmp_path / "b.csv")]
        )
        assert rc == 2
    assert loaded == []
    assert not (tmp_path / "b.csv").exists()


def test_bounds_rounds_beyond_pool(tmp_path, capsys):
    write_pool(make_pool(n_train=4), tmp_path / "pool")
    rc = main(
        ["bounds", "--pool", str(tmp_path / "pool"), "--rounds", "9", "--out", str(tmp_path / "b.csv")]
    )
    assert rc == 2
    assert "cannot bound 9 rounds with 4 sequences" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("name", ["seq000_\u00b2.txt", "seq000_0.txt"])
def test_bad_label_file_name_is_validation_error(tmp_path, capsys, name):
    # a superscript frame id, and a second file for frame 0
    write_pool(make_pool(n_train=2, n_val=0, n_test=0), tmp_path / "pool")
    labels = tmp_path / "pool" / "labels" / "training"
    (labels / name).write_text((labels / "seq000_000000.txt").read_text())
    out = tmp_path / "b.csv"
    argv = ["bounds", "--pool", str(tmp_path / "pool"), "--rounds", "1", "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "target, code",
    [("cfg.ini", 2), ("manifest.csv", 3), ("labels/training/seq001_000000.txt", 3)],
)
def test_input_that_is_not_utf8_names_its_file(tmp_path, capsys, target, code):
    write_pool(make_pool(n_train=2, n_val=0, n_test=0), tmp_path)
    cfg = write_ini(tmp_path, GEN_INI)
    spoil(tmp_path / target)
    out = tmp_path / "out"
    if target == "cfg.ini":
        argv = ["gen", "--config", cfg, "--out", str(out)]
    else:
        argv = ["bounds", "--pool", str(tmp_path), "--rounds", "1", "--out", str(out)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path / target) in err
    assert not out.exists()


def test_bounds_missing_pool(tmp_path):
    rc = main(
        ["bounds", "--pool", str(tmp_path / "absent"), "--rounds", "2", "--out", str(tmp_path / "b.csv")]
    )
    assert rc == 3


# ---------------------------------------------------------------------------
# analyze / stats


ANALYZE_INI = """\
[pool]
source = synth
rng_seed = 11
n_sequences = 12
frame_len_min = 8
frame_len_max = 12
raster_width = 24
raster_height = 24
objects_min = 1
objects_max = 4
alpha_boxes = 0.02
beta_motion = 0.0
gamma_occlusion = 0.0
delta_length = 0.0
cost_noise_sd = 0.0
"""


def test_analyze_recovers_dominant_cost_driver(tmp_path):
    cfg = write_ini(tmp_path, ANALYZE_INI)
    pool_dir = tmp_path / "pool"
    assert main(["gen", "--config", cfg, "--out", str(pool_dir)]) == 0
    out = tmp_path / "correlations.csv"
    assert main(["analyze", "--pool", str(pool_dir), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["pair", "pearson", "spearman", "kendall_tau_b"]
        rows = {row[0]: row[1:] for row in reader}
    expected_pairs = {
        "cost_vs_length",
        "cost_vs_total_boxes",
        "cost_vs_occluded",
        "cost_vs_mean_motion",
        "cost_vs_mean_box_estimate",
        "cost_vs_season",
        "cost_vs_time_of_day",
    }
    assert set(rows) == expected_pairs
    assert list(rows) == sorted(rows)
    # cost is a noise-free linear function of the box count here
    assert float(rows["cost_vs_total_boxes"][0]) > 0.9
    assert_crlf_six_decimal(out, numeric_from=1)


def test_analyze_leaves_pool_untouched(tmp_path):
    cfg = write_ini(tmp_path, ANALYZE_INI)
    pool_dir = tmp_path / "pool"
    assert main(["gen", "--config", cfg, "--out", str(pool_dir)]) == 0
    before = snapshot(pool_dir)
    assert main(["analyze", "--pool", str(pool_dir), "--out", str(tmp_path / "c.csv")]) == 0
    assert snapshot(pool_dir) == before


def test_stats_writes_one_cache_per_sequence(tmp_path):
    cfg = write_ini(tmp_path, GEN_INI)
    pool_dir = tmp_path / "pool"
    assert main(["gen", "--config", cfg, "--out", str(pool_dir)]) == 0
    out = tmp_path / "flow"
    assert main(["stats", "--pool", str(pool_dir), "--out", str(out)]) == 0
    pool = load_pool(pool_dir)
    caches = sorted(p.name for p in out.glob("*.flow.csv"))
    assert caches == sorted(f"{sid}.flow.csv" for sid in pool.sequences)
    # deterministic output: a second pass writes identical bytes
    first = snapshot(out)
    assert main(["stats", "--pool", str(pool_dir), "--out", str(out)]) == 0
    assert snapshot(out) == first


@pytest.mark.parametrize(
    "flag", [("--threshold", "300"), ("--threshold", "-1"), ("--min-area", "0")]
)
def test_stats_bad_flow_parameters_fail_before_any_work(tmp_path, monkeypatch, capsys, flag):
    write_pool(make_pool(n_train=2), tmp_path / "pool")
    loaded = count_calls(monkeypatch, seqal.cli, "load_pool")
    out = tmp_path / "flow"
    rc = main(["stats", "--pool", str(tmp_path / "pool"), "--out", str(out), *flag])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert loaded == []
    assert not out.exists()


def test_stats_missing_pool(tmp_path):
    rc = main(["stats", "--pool", str(tmp_path / "absent"), "--out", str(tmp_path / "f")])
    assert rc == 3


# ---------------------------------------------------------------------------
# parser surface


def test_subcommand_is_required():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
