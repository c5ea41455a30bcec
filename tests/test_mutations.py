"""Mutation harness: one corrupted file at a time.

A small written pool has one of its files mutated (truncated, a bit
flipped, ',' or 'nan' or '1e309' or NUL inserted, a line dropped, two lines
swapped), then analyze, stats and bounds run on it. Each must exit 0, or 2
or 3 with exactly one error line; an uncaught exception fails the test
with its traceback. On a mutated trace.csv, whenever the column reader
accepts the file, the row reader must give equal arrays.
"""

from __future__ import annotations

import csv
import random
from collections import Counter

import numpy as np
import pytest

from seqal.cli import main
from seqal.errors import TraceError
from seqal.pool import write_pool
from seqal.surrogate import ScoreTrace, _score_columns, _score_rows, write_traces
from seqal.synth import GenConfig, generate_pool

from conftest import make_pool

MUTATIONS = ("truncate", "flip", b",", b"nan", b"1e309", b"\0", "drop line", "swap lines")


def mutated(data: bytes, how, rnd: random.Random) -> bytes:
    """data with one mutation of MUTATIONS at a drawn place; a bytes entry
    is inserted, each other entry names what it does."""
    if isinstance(how, bytes):
        at = rnd.randint(0, len(data))
        return data[:at] + how + data[at:]
    if how == "truncate":
        return data[: rnd.randrange(len(data))] if data else data
    if how == "flip":
        if not data:
            return data
        at = rnd.randrange(len(data))
        return data[:at] + bytes([data[at] ^ 1 << rnd.randrange(8)]) + data[at + 1 :]
    lines = data.splitlines(keepends=True)
    if how == "drop line" and lines:
        del lines[rnd.randrange(len(lines))]
    elif how == "swap lines" and len(lines) > 1:
        i, j = rnd.sample(range(len(lines)), 2)
        lines[i], lines[j] = lines[j], lines[i]
    return b"".join(lines)


@pytest.mark.filterwarnings("error")
def test_cli_exits_cleanly_on_a_mutated_pool_file(tmp_path, capsys):
    pool_dir = tmp_path / "pool"
    cfg = GenConfig(rng_seed=3, n_sequences=6, frame_len_range=(3, 5), raster_size=(16, 16),
                    objects_per_seq_range=(1, 3))
    write_pool(generate_pool(cfg), pool_dir)
    files = [
        [pool_dir / "manifest.csv"],
        sorted((pool_dir / "labels").rglob("*.txt")),
        sorted((pool_dir / "frames").rglob("*.pgm")),
    ]
    argvs = [
        ["analyze", "--pool", str(pool_dir), "--out", str(tmp_path / "c.csv")],
        ["stats", "--pool", str(pool_dir), "--out", str(tmp_path / "flow")],
        ["bounds", "--pool", str(pool_dir), "--rounds", "2", "--out", str(tmp_path / "b.csv")],
    ]
    rnd = random.Random(29)
    codes = Counter()
    for trial in range(120):
        target = rnd.choice(rnd.choice(files))
        how = rnd.choice(MUTATIONS)
        original = target.read_bytes()
        target.write_bytes(mutated(original, how, rnd))
        try:
            for argv in argvs:
                code = main(argv)
                err = capsys.readouterr().err
                note = (trial, target.name, how, argv[0], err)
                if code:
                    assert code in (2, 3), note
                    assert err.startswith("error: ") and err.count("\n") == 1, note
                else:
                    assert err == "", note
                codes[code] += 1
        finally:
            target.write_bytes(original)
    # both outcomes occur: the loader clamps label geometry by design
    assert codes[0] and codes[3]


def test_trace_readers_agree_on_a_mutated_trace(tmp_path):
    rng = np.random.default_rng(31)
    traces = {
        seed: ScoreTrace({
            rnd: {
                f"s{i}": (rng.choice([0.0, 1.0, *rng.random(4)], n), rng.integers(0, 12, n))
                for i, n in enumerate(rng.integers(1, 6, 4).tolist())
            }
            for rnd in (1, 2)
        })
        for seed in (0, 3)
    }
    written, path = tmp_path / "trace.csv", tmp_path / "mutated.csv"
    write_traces(traces, written, tmp_path / "trace_metrics.csv")
    data = written.read_bytes()
    rnd = random.Random(37)
    accepted = Counter()
    for trial in range(1500):
        how = rnd.choice(MUTATIONS)
        path.write_bytes(mutated(data, how, rnd))
        columns = _score_columns(path)
        try:
            rows = list(_score_rows(path))
        except TraceError:
            assert columns is None, (trial, how)
            continue
        if columns is None:
            continue
        accepted[how] += 1
        assert [key for key, _ in columns] == [key for key, _ in rows], (trial, how)
        for (_, got), (_, want) in zip(columns, rows):
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all(), (trial, how)
    assert sum(accepted.values()) > 50 and accepted["flip"]


def test_an_error_of_the_csv_module_names_the_file_and_line(tmp_path, capsys):
    """Before Python 3.11 a NUL byte raised csv.Error; a lowered field limit
    raises one on every version. The manifest's error names the file."""
    write_pool(make_pool(n_train=2, n_val=0, n_test=0), tmp_path / "pool")
    trace = tmp_path / "trace.csv"
    write_traces({0: ScoreTrace({1: {"a": (np.array([0.5]), np.array([1]))}})}, trace,
                 tmp_path / "trace_metrics.csv")
    limit = csv.field_size_limit(8)
    try:
        argv = ["bounds", "--pool", str(tmp_path / "pool"), "--rounds", "1",
                "--out", str(tmp_path / "b.csv")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        manifest = tmp_path / "pool" / "manifest.csv"
        assert err == f"error: {manifest}: field larger than field limit (8)\n"
        with pytest.raises(TraceError, match=f"^{trace} line 1: field larger than field limit"):
            list(_score_rows(trace))
    finally:
        csv.field_size_limit(limit)
