import math
import re
from pathlib import Path

import numpy as np
import pytest

import seqal.pool as pool_mod
from seqal.errors import (
    ContinuityError,
    LineFormatError,
    ManifestError,
    NameFormatError,
)
from seqal.pool import (
    BoundingBox,
    Frame,
    Occlusion,
    PoolState,
    Season,
    Sequence,
    Split,
    clamp_box,
    format_label_line,
    load_pool,
    parse_label_file,
    parse_label_name,
    read_pgm,
    write_pgm,
    write_pool,
)
from seqal.surrogate import pool_feature_table

from conftest import count_calls, make_meta, make_pool, make_sequence, pools_match


# --- names ---------------------------------------------------------------


def test_parse_label_name_basic():
    assert parse_label_name("seq001_000123.txt") == ("seq001", 123)


def test_parse_label_name_underscores_in_sequence_id():
    # only the last underscore separates the frame id
    assert parse_label_name("night_drive_07_000004.txt") == ("night_drive_07", 4)


@pytest.mark.parametrize(
    "bad",
    [
        "seq001_000123.csv",
        "seq001.txt",
        "_000123.txt",
        "seq001_12a.txt",
        "seq001_.txt",
        "seq001_\u00b2.txt",  # superscript two: str.isdigit, but not a frame id
        "seq001_\u0663.txt",  # Arabic-Indic three: int() reads it as 3
    ],
)
def test_parse_label_name_rejects(bad):
    with pytest.raises(NameFormatError):
        parse_label_name(bad)


# --- label file parsing --------------------------------------------------


def test_parse_label_file_five_and_six_fields():
    text = "0 0.5 0.5 0.2 0.2\n2 0.3 0.3 0.1 0.1 1\n"
    lf = parse_label_file("a_000000.txt", text)
    assert lf.sequence_id == "a" and lf.frame_id == 0
    assert [b.class_id for b in lf.boxes] == [0, 2]
    assert lf.boxes[0].occluded is Occlusion.VISIBLE
    assert lf.boxes[1].occluded is Occlusion.PARTIAL
    b = lf.boxes[0]
    assert (b.cx, b.cy, b.w, b.h) == pytest.approx((0.5, 0.5, 0.2, 0.2), abs=1e-12)


def test_parse_label_file_skips_blank_lines():
    lf = parse_label_file("a_000001.txt", "\n0 0.5 0.5 0.1 0.1\n\n\n")
    assert len(lf.boxes) == 1


def test_parse_label_file_clamps_out_of_square_lines():
    text = "0 0.5 0.5 0.2 0.2\n0 0.99 0.5 0.2 0.2\n"
    lf = parse_label_file("a_000000.txt", text)
    legal, clipped = lf.boxes
    assert (legal.cx, legal.w) == pytest.approx((0.5, 0.2), abs=1e-12)
    # the right edge 1.09 is clipped to 1: the box spans [0.89, 1]
    assert (clipped.cx, clipped.w) == pytest.approx((0.945, 0.11), abs=1e-12)
    clipped.validate()  # clamped result is a legal box


def test_parse_label_file_line_numbers_in_errors():
    with pytest.raises(LineFormatError, match="line 2:"):
        parse_label_file("a_000000.txt", "0 0.5 0.5 0.1 0.1\n0 0.5 0.5\n")


@pytest.mark.parametrize(
    "line",
    [
        "x 0.5 0.5 0.1 0.1",          # bad class token
        "0 0.5 nan 0.1 0.1",          # non-finite
        "0 0.5 0.5 0.0 0.1",          # zero width
        "0 0.5 0.5 0.1 -0.2",         # negative height
        "-1 0.5 0.5 0.1 0.1",         # negative class
        "0 0.5 0.5 0.1 0.1 7",        # unknown occlusion flag
        "0 0.5 oops 0.1 0.1",
    ],
)
def test_parse_label_file_rejects_bad_lines(line):
    with pytest.raises(LineFormatError):
        parse_label_file("a_000000.txt", line + "\n")


def test_unknown_class_kept():
    text = "9 0.5 0.5 0.1 0.1\n"
    lf = parse_label_file("a_000000.txt", text)
    assert lf.boxes[0].class_id == 9


def test_format_label_line_round_trip():
    box = BoundingBox(3, 0.25, 0.75, 0.125, 0.0625, Occlusion.FULL)
    line = format_label_line(box)
    assert line.split()[-1] == "2"
    back = parse_label_file("s_000000.txt", line + "\n").boxes[0]
    assert back.class_id == 3 and back.occluded is Occlusion.FULL
    assert back.cx == pytest.approx(0.25, abs=1e-6)


def test_format_label_line_omits_visible_flag():
    assert len(format_label_line(BoundingBox(0, 0.5, 0.5, 0.1, 0.1)).split()) == 5


# --- geometry ------------------------------------------------------------


def test_corners():
    assert BoundingBox(0, 0.5, 0.5, 0.2, 0.4).corners() == pytest.approx(
        (0.4, 0.3, 0.6, 0.7)
    )


def test_clamp_box_identity_on_legal_input():
    box = clamp_box(1, 0.5, 0.5, 0.2, 0.2)
    assert (box.cx, box.cy, box.w, box.h) == pytest.approx((0.5, 0.5, 0.2, 0.2))


def test_clamp_box_pulls_edges_inside():
    box = clamp_box(0, 0.98, 0.5, 0.2, 0.2)
    assert (box.cx, box.w) == pytest.approx((0.94, 0.12), abs=1e-12)
    x1, y1, x2, y2 = box.corners()
    assert x2 <= 1.0 + 1e-12 and x1 >= -1e-12
    box.validate()


def test_clamp_box_center_outside_square():
    box = clamp_box(0, 1.4, -0.2, 0.5, 0.5)
    # the center lands on the corner (1, 0); a quarter of the box is left
    assert (box.cx, box.cy, box.w, box.h) == pytest.approx((0.875, 0.125, 0.25, 0.25), abs=1e-12)
    box.validate()


def test_validate_rejects_bad_boxes():
    with pytest.raises(ValueError):
        BoundingBox(0, 0.5, 0.5, 0.0, 0.1).validate()
    with pytest.raises(ValueError):
        BoundingBox(-2, 0.5, 0.5, 0.1, 0.1).validate()
    with pytest.raises(ValueError):
        BoundingBox(0, 1.2, 0.5, 0.1, 0.1).validate()


# --- sequence statistics -------------------------------------------------


def test_mean_center_shift_matches_hand_computation():
    # two frames, two position-paired boxes each; unmatched extras ignored
    f0 = Frame(0, [BoundingBox(0, 0.2, 0.2, 0.1, 0.1), BoundingBox(1, 0.6, 0.6, 0.1, 0.1)])
    f1 = Frame(
        1,
        [
            BoundingBox(0, 0.5, 0.6, 0.1, 0.1),
            BoundingBox(1, 0.6, 0.7, 0.1, 0.1),
            BoundingBox(2, 0.9, 0.9, 0.1, 0.1),
        ],
    )
    features, _ = pool_feature_table(PoolState.from_sequences([Sequence(make_meta("s"), [f0, f1])]))
    shift_frame1 = math.hypot(0.3, 0.4) + math.hypot(0.0, 0.1)
    expected = (0.0 + shift_frame1) / 2  # summed within a frame, averaged over frames
    assert features["s"][1] == pytest.approx(expected, abs=1e-12)


def test_sequence_counting_helpers():
    seq = make_sequence("s", n_frames=3, boxes_per_frame=2)
    assert seq.n_frames == 3
    assert seq.total_boxes() == 6
    assert pool_feature_table(PoolState.from_sequences([seq]))[0]["s"][0] == pytest.approx(2.0)
    assert seq.occluded_boxes() == 0


# --- pool state ----------------------------------------------------------


def test_from_sequences_rejects_duplicates():
    s = make_sequence("dup")
    with pytest.raises(ManifestError):
        PoolState.from_sequences([s, make_sequence("dup")])


def test_from_sequences_rejects_frame_gap():
    frames = [Frame(0, []), Frame(2, [])]
    seq = Sequence(make_meta("gap"), frames)
    with pytest.raises(
        ContinuityError, match=re.escape("'gap' has frame ids [0, 2]..., expected 0..1")
    ):
        PoolState.from_sequences([seq])


def test_total_train_frames(six_pool):
    assert six_pool.total_train_frames() == sum(
        six_pool.sequences[s].n_frames for s in six_pool.train_ids
    )


# --- PGM -----------------------------------------------------------------


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    raster = rng.integers(0, 256, size=(9, 13), dtype=np.uint8)
    path = tmp_path / "x.pgm"
    write_pgm(path, raster)
    assert np.array_equal(read_pgm(path), raster)


def test_read_pgm_rejects_wrong_magic(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(ManifestError):
        read_pgm(p)


def test_read_pgm_rejects_truncated(tmp_path):
    p = tmp_path / "short.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 5)
    with pytest.raises(ManifestError):
        read_pgm(p)


def test_write_pgm_requires_uint8():
    with pytest.raises(ValueError):
        write_pgm("/dev/null", np.zeros((2, 2), dtype=np.float64))


# --- pool IO -------------------------------------------------------------


def test_write_load_round_trip(tmp_path):
    pool = make_pool(n_train=3, n_val=1, n_test=1, n_frames=4, raster_size=(16, 16))
    write_pool(pool, tmp_path)
    back = load_pool(tmp_path)
    assert pools_match(pool, back)
    assert back.train_ids == pool.train_ids
    assert (tmp_path / "manifest.csv").read_bytes() == (
        b"sequence_id,cost_hours,scene_id,season,time_of_day,split\r\n"
        b"seq000,1.000000,0,winter,noon,train\r\n"
        b"seq001,1.500000,0,winter,noon,train\r\n"
        b"seq002,2.000000,1,winter,noon,train\r\n"
        b"seq003,2.500000,1,winter,noon,validation\r\n"
        b"seq004,3.000000,2,winter,noon,test\r\n"
    )


def test_write_pool_makes_each_frame_directory_once(tmp_path, monkeypatch):
    # One directory per split that holds rasters, made at its first PGM; a
    # raster-less split gets no frames directory, a raster-less pool none.
    seqs = [
        make_sequence("a", n_frames=3, split=Split.TRAIN, raster_size=(4, 4)),
        make_sequence("b", n_frames=2, split=Split.TRAIN, raster_size=(4, 4)),
        make_sequence("c", n_frames=2, split=Split.VALIDATION),
        make_sequence("d", n_frames=4, split=Split.TEST, raster_size=(4, 4)),
    ]
    calls = count_calls(monkeypatch, pool_mod.os, "makedirs")
    write_pool(PoolState.from_sequences(seqs), tmp_path / "rasters")
    frames = tmp_path / "rasters" / "frames"
    made = [Path(c[0]) for c in calls]  # os.makedirs also calls itself for parents
    assert len(made) == len(set(made))
    assert sorted(p.name for p in made if p.parent == frames) == ["test", "training"]
    assert sorted(p.name for p in frames.iterdir()) == ["test", "training"]
    assert len(list((frames / "training").iterdir())) == 5
    calls.clear()
    write_pool(make_pool(), tmp_path / "bare")
    assert calls == [] and not (tmp_path / "bare" / "frames").exists()


def test_round_trip_preserves_occlusion_and_classes(tmp_path):
    seq = make_sequence("occ", n_frames=2, boxes_per_frame=1)
    seq.frames[0].boxes[0] = BoundingBox(2, 0.4, 0.4, 0.2, 0.2, Occlusion.PARTIAL)
    pool = PoolState.from_sequences([seq])
    write_pool(pool, tmp_path)
    back = load_pool(tmp_path)
    assert back.sequences["occ"].frames[0].boxes[0].occluded is Occlusion.PARTIAL


def test_load_pool_missing_labels_dir(tmp_path):
    (tmp_path / "manifest.csv").write_text(
        "sequence_id,cost_hours,scene_id,season,time_of_day,split\n"
        "a,1.0,0,winter,noon,train\n"
    )
    with pytest.raises(FileNotFoundError):
        load_pool(tmp_path)


def test_load_pool_label_without_manifest_row(tmp_path):
    pool = make_pool(n_train=1, n_val=0, n_test=0, n_frames=1)
    write_pool(pool, tmp_path)
    stray = tmp_path / "labels" / "training" / "ghost_000000.txt"
    stray.write_text("0 0.5 0.5 0.1 0.1\n")
    with pytest.raises(ManifestError, match="ghost"):
        load_pool(tmp_path)


def test_load_pool_split_mismatch(tmp_path):
    pool = make_pool(n_train=1, n_val=0, n_test=0, n_frames=1)
    write_pool(pool, tmp_path)
    src = tmp_path / "labels" / "training" / "seq000_000000.txt"
    dst = tmp_path / "labels" / "validation" / "seq000_000000.txt"
    dst.write_text(src.read_text())
    src.unlink()
    with pytest.raises(ManifestError, match="split|filed under"):
        load_pool(tmp_path)


def test_load_pool_manifest_row_without_files(tmp_path):
    pool = make_pool(n_train=2, n_val=0, n_test=0, n_frames=1)
    write_pool(pool, tmp_path)
    for p in (tmp_path / "labels" / "training").glob("seq001_*.txt"):
        p.unlink()
    with pytest.raises(ManifestError, match="seq001"):
        load_pool(tmp_path)


def test_load_pool_frame_gap(tmp_path):
    pool = make_pool(n_train=1, n_val=0, n_test=0, n_frames=3)
    write_pool(pool, tmp_path)
    (tmp_path / "labels" / "training" / "seq000_000001.txt").unlink()
    with pytest.raises(
        ContinuityError, match=re.escape("'seq000' has frame ids [0, 2]..., expected 0..1")
    ):
        load_pool(tmp_path)


def test_load_pool_second_file_for_a_frame(tmp_path):
    pool = make_pool(n_train=1, n_val=0, n_test=0, n_frames=2)
    write_pool(pool, tmp_path)
    labels = tmp_path / "labels" / "training"
    (labels / "seq000_0.txt").write_text((labels / "seq000_000000.txt").read_text())
    with pytest.raises(ContinuityError, match="seq000_000000.txt.*frame 0"):
        load_pool(tmp_path)


def test_load_pool_bad_label_line_names_its_file(tmp_path):
    pool = make_pool(n_train=2, n_val=0, n_test=0, n_frames=3, boxes_per_frame=2)
    write_pool(pool, tmp_path)
    bad = tmp_path / "labels" / "training" / "seq001_000002.txt"
    bad.write_text(bad.read_text() + "0 0.5 0.5\n")
    with pytest.raises(LineFormatError) as info:
        load_pool(tmp_path)
    assert str(info.value) == f"{bad} line 3: expected 5 or 6 fields, got 3"


@pytest.mark.parametrize(
    "row",
    [
        "a,0.0,0,winter,noon,train",       # non-positive cost
        "a,oops,0,winter,noon,train",      # unparseable cost
        "a,1.0,0,monsoon,noon,train",      # unknown season
        "a,1.0,0,winter,noon,holdout",     # unknown split
        "a,1.0",                           # shorter than the header
    ],
)
def test_manifest_bad_rows(tmp_path, row):
    (tmp_path / "manifest.csv").write_text(
        "sequence_id,cost_hours,scene_id,season,time_of_day,split\n" + row + "\n"
    )
    (tmp_path / "labels" / "training").mkdir(parents=True)
    with pytest.raises(ManifestError, match="^manifest row 2: "):
        load_pool(tmp_path)


def test_manifest_missing_column(tmp_path):
    (tmp_path / "manifest.csv").write_text("sequence_id,cost_hours\na,1.0\n")
    (tmp_path / "labels").mkdir()
    with pytest.raises(ManifestError, match="missing columns"):
        load_pool(tmp_path)


def test_pools_match_detects_coordinate_drift(tmp_path):
    a = make_pool(n_train=2, n_val=0, n_test=0)
    b = make_pool(n_train=2, n_val=0, n_test=0)
    assert pools_match(a, b)
    box = b.sequences["seq000"].frames[0].boxes[0]
    b.sequences["seq000"].frames[0].boxes[0] = BoundingBox(
        box.class_id, box.cx + 1e-3, box.cy, box.w, box.h
    )
    assert not pools_match(a, b)
    assert pools_match(a, b, coord_tol=1e-2)
