"""load_pool and read_pgm against the loader they replaced.

The oracle below is the per-file Path loader with its byte-at-a-time PGM
header scan, kept verbatim apart from its names. On every tree the two
loaders either give the same pool, rasters included, or raise the same
exception class with the same message. The exceptions are the defects the
direct loader fixes: a PGM with negative dimensions, which the oracle
turns into a numpy ValueError from reshape.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from seqal.errors import ContinuityError, ManifestError
from seqal.pool import (
    _PGM_PREFIX,
    SPLIT_DIRS,
    Frame,
    PoolState,
    Sequence,
    _parse_manifest,
    load_pool,
    parse_label_file,
    read_pgm,
    write_pgm,
    write_pool,
)
from seqal.synth import GenConfig, generate_pool

from conftest import make_pool, pools_match
from test_pin import POOL as PIN_POOL


def oracle_read_pgm(path: Path) -> np.ndarray:
    """Read a binary (P5) graymap with maxval 255 into a uint8 array."""
    data = Path(path).read_bytes()
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4 and pos < len(data):
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if pos > start:
            tokens.append(data[start:pos])
    if len(tokens) < 4 or tokens[0] != b"P5":
        raise ManifestError(f"{path}: not a binary P5 graymap")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise ManifestError(f"{path}: malformed PGM header") from None
    if maxval != 255:
        raise ManifestError(f"{path}: unsupported maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    raster = np.frombuffer(data[pos : pos + width * height], dtype=np.uint8)
    if raster.size != width * height:
        raise ManifestError(f"{path}: truncated raster payload")
    return raster.reshape(height, width).copy()


def oracle_load_pool(root_dir: Path | str) -> PoolState:
    """Load a pool directory into memory, one Path per file."""
    root = Path(root_dir)
    metas = _parse_manifest(root / "manifest.csv")

    labels_root = root / "labels"
    if not labels_root.is_dir():
        raise FileNotFoundError(f"no labels directory under {root}")

    frames_by_seq: dict[str, dict[int, Frame]] = {}
    for split, dirname in SPLIT_DIRS.items():
        split_dir = labels_root / dirname
        if not split_dir.is_dir():
            continue
        for label_path in sorted(split_dir.glob("*.txt")):
            parsed = parse_label_file(str(label_path), label_path.read_text())
            meta = metas.get(parsed.sequence_id)
            if meta is None:
                raise ManifestError(
                    f"{label_path.name}: sequence {parsed.sequence_id!r} not in manifest"
                )
            if meta.split is not split:
                raise ManifestError(
                    f"{label_path.name}: filed under {dirname!r} but manifest says "
                    f"{meta.split.value!r}"
                )
            frames = frames_by_seq.setdefault(parsed.sequence_id, {})
            if parsed.frame_id in frames:
                raise ContinuityError(
                    f"{label_path.name}: sequence {parsed.sequence_id!r} already has a "
                    f"label file for frame {parsed.frame_id}"
                )
            raster = None
            pgm = root / "frames" / dirname / (label_path.stem + ".pgm")
            if pgm.is_file():
                raster = oracle_read_pgm(pgm)
            frames[parsed.frame_id] = Frame(parsed.frame_id, parsed.boxes, raster)

    missing = sorted(set(metas) - set(frames_by_seq))
    if missing:
        raise ManifestError(
            f"manifest lists sequences with no label files: {', '.join(missing)}"
        )

    return PoolState.from_sequences(
        [
            Sequence(metas[sid], [by_id[i] for i in sorted(by_id)])
            for sid, by_id in sorted(frames_by_seq.items())
        ]
    )


def outcome(load, root):
    """The pool a loader returns, or the (class, message) it raises."""
    try:
        return load(root)
    except Exception as exc:  # the exception is the outcome
        return type(exc), str(exc)


def assert_same_load(root) -> PoolState | None:
    """Both loaders give one pool, raster for raster, or one error."""
    new, old = outcome(load_pool, root), outcome(oracle_load_pool, root)
    if isinstance(old, tuple):
        assert new == old
        return None
    assert isinstance(new, PoolState)
    assert pools_match(new, old, coord_tol=0.0)
    assert list(new.sequences) == list(old.sequences)
    for sid, seq in new.sequences.items():
        for frame, expected in zip(seq.frames, old.sequences[sid].frames):
            assert frame.boxes == expected.boxes
            if expected.raster is None:
                assert frame.raster is None
                continue
            assert frame.raster.dtype == np.uint8
            assert frame.raster.shape == expected.raster.shape
            assert np.array_equal(frame.raster, expected.raster)
            assert not frame.raster.flags.writeable
    return new


# --- whole pools -----------------------------------------------------------


@pytest.mark.parametrize(
    "cfg",
    [
        PIN_POOL,
        GenConfig(rng_seed=0, n_sequences=8, frame_len_range=(15, 21), raster_size=(192, 192)),
    ],
    ids=["pin", "192x192"],
)
def test_generated_pool_loads_as_the_oracle_does(tmp_path, cfg):
    pool = generate_pool(cfg)
    write_pool(pool, tmp_path)
    loaded = assert_same_load(tmp_path)
    assert pools_match(loaded, pool)
    assert all(f.raster is not None for seq in loaded.sequences.values() for f in seq.frames)


def small_tree(root: Path) -> Path:
    write_pool(make_pool(n_train=2, n_val=1, n_test=1, n_frames=3, raster_size=(16, 16)), root)
    return root


def replace_with_dir(path: Path) -> None:
    path.unlink()
    path.mkdir()


# Each mutation of a small written tree, named by what it does.
MUTATIONS = {
    "stray label": lambda r: (r / "labels/training/ghost_000000.txt").write_text("0 .5 .5 .1 .1\n"),
    "hidden label": lambda r: (r / "labels/training/.ghost_000000.txt").write_text(""),
    "other suffixes ignored": lambda r: [
        (r / "labels/training" / n).write_text("junk") for n in ("notes.md", "seq000_9.TXT", "txt")
    ],
    "split mismatch": lambda r: (r / "labels/training/seq000_000000.txt").rename(
        r / "labels/validation/seq000_000000.txt"
    ),
    "label without frames": lambda r: [
        p.unlink() for p in (r / "labels/training").glob("seq001_*.txt")
    ],
    "frame gap": lambda r: (r / "labels/training/seq000_000001.txt").unlink(),
    "second file for a frame": lambda r: (r / "labels/training/seq000_0.txt").write_text(""),
    "superscript frame id": lambda r: (r / "labels/training/seq000_².txt").write_text(""),
    "bad label line": lambda r: (r / "labels/training/seq001_000002.txt").write_text("0 .5\n"),
    "label is a directory": lambda r: replace_with_dir(r / "labels/training/seq001_000001.txt"),
    "no labels directory": lambda r: os.rename(r / "labels", r / "labels-gone"),
    "no split directory": lambda r: os.rename(r / "labels/test", r / "labels/test-gone"),
    "no frames directory": lambda r: os.rename(r / "frames", r / "frames-gone"),
    "frame directory is a file": lambda r: (
        [p.unlink() for p in (r / "frames/validation").iterdir()],
        (r / "frames/validation").rmdir(),
        (r / "frames/validation").write_text(""),
    ),
    "one PGM missing": lambda r: (r / "frames/training/seq000_000001.pgm").unlink(),
    "PGM is a directory": lambda r: replace_with_dir(r / "frames/training/seq000_000001.pgm"),
    "PGM symlink": lambda r: (
        (r / "frames/training/seq000_000001.pgm").unlink(),
        (r / "frames/training/seq000_000001.pgm").symlink_to(r / "frames/training/seq000_000000.pgm"),
    ),
    "broken PGM symlink": lambda r: (
        (r / "frames/training/seq000_000001.pgm").unlink(),
        (r / "frames/training/seq000_000001.pgm").symlink_to(r / "absent.pgm"),
    ),
    "PGM wrong magic": lambda r: (r / "frames/test/seq003_000002.pgm").write_bytes(b"P2 1 1 255\n0"),
    "PGM truncated": lambda r: (r / "frames/test/seq003_000002.pgm").write_bytes(b"P5 4 4 255\n\0"),
    "PGM maxval": lambda r: (r / "frames/test/seq003_000002.pgm").write_bytes(b"P5 1 1 65535\n\0\0"),
    "PGM header words": lambda r: (r / "frames/test/seq003_000002.pgm").write_bytes(b"P5 a 1 255\n\0"),
    "PGM of another shape": lambda r: (r / "frames/test/seq003_000002.pgm").write_bytes(
        b"P5\t3\r2\n255 " + bytes(range(6)) + b"trailing"
    ),
}


@pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=MUTATIONS.keys())
def test_mutated_tree_loads_as_the_oracle_does(tmp_path, mutate):
    root = small_tree(tmp_path / "pool")
    mutate(root)
    assert_same_load(root)


def test_unmutated_tree_loads_as_the_oracle_does(tmp_path):
    assert assert_same_load(small_tree(tmp_path / "pool")) is not None


def test_loaded_pool_writes_back_over_itself_unchanged(tmp_path):
    """Each frame reads its PGM before write_pool truncates that file."""
    write_pool(generate_pool(PIN_POOL), tmp_path)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    write_pool(load_pool(tmp_path), tmp_path)
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


# --- PGM headers -------------------------------------------------------------


def pgm_cases() -> dict[str, bytes]:
    cases = {
        f"first pixel {b}": b"P5\n2 2\n255\n" + bytes([b, 1, 2, 3]) for b in (9, 10, 11, 12, 13, 32)
    }
    cases.update(
        {
            "CR separators": b"P5\r2\r2\r255\r\x01\x02\x03\x04",
            "tab separators": b"P5\t2\t2\t255\t\x01\x02\x03\x04",
            "mixed runs of whitespace": b"\n P5 \r\n\t2\x0b\x0c 2\n\n255\n\x01\x02\x03\x04",
            "CRLF after maxval keeps LF as a pixel": b"P5\n2 2\n255\r\n\x02\x03\x04",
            "ends right at maxval": b"P5\n2 2\n255",
            "ends after one separator": b"P5\n2 2\n255\n",
            "short payload": b"P5\n2 2\n255\n\x01\x02\x03",
            "trailing bytes": b"P5\n2 2\n255\n\x01\x02\x03\x04\x05\x06junk",
            "zero width": b"P5 0 5 255",
            "zero area with payload": b"P5 3 0 255\n\x01",
            "empty file": b"",
            "only whitespace": b" \n\t",
            "three words": b"P5 2 2",
            "wrong magic": b"P6\n2 2\n255\n\x01\x02\x03\x04",
            "comment line": b"P5\n# made by hand\n2 2\n255\n\x01\x02\x03\x04",
            "signed and underscored": b"P5 +2 0_2 255\n\x01\x02\x03\x04",
            "maxval 65535": b"P5 2 2 65535\n" + bytes(8),
            "float width": b"P5 2.0 2 255\n\x01\x02\x03\x04",
            "non-ASCII byte in a word": b"P5 2\xff 2 255\n\x01\x02\x03\x04",
            # load_pool reads a bounded prefix; these headers end past it
            "header padded past the prefix": b"P5" + b" " * _PGM_PREFIX + b"2 2 255\n\x01\x02\x03\x04",
            "maxval across the prefix end": b"P5 2 2".ljust(_PGM_PREFIX - 2) + b"255\n\x01\x02\x03\x04",
            "magic past the prefix": b" " * _PGM_PREFIX + b"P5 2 2 255\n\x01\x02\x03\x04",
        }
    )
    return cases


PGM_CASES = pgm_cases()


@pytest.mark.parametrize("data", PGM_CASES.values(), ids=PGM_CASES.keys())
def test_read_pgm_matches_oracle(tmp_path, data):
    """read_pgm, and load_pool of a one-frame pool over the same file: a
    PGM the oracle rejects fails the load with its message, and one it
    reads gives its raster when the loaded frame's raster is read."""
    root = tmp_path / "pool"
    write_pool(make_pool(n_train=1, n_val=0, n_test=0, n_frames=1, raster_size=(2, 2)), root)
    path = root / "frames" / "training" / "seq000_000000.pgm"
    path.write_bytes(data)
    old = outcome(oracle_read_pgm, path)
    loaded = outcome(load_pool, root)
    if isinstance(old, tuple):
        assert outcome(read_pgm, path) == old
        assert loaded == old
        return
    for new in (read_pgm(path), loaded.sequences["seq000"].frames[0].raster):
        assert new.dtype == old.dtype and new.shape == old.shape
        assert np.array_equal(new, old)
        assert not new.flags.writeable


@pytest.mark.parametrize("dims", [b"-2 -2", b"-1 -4", b"2 -2", b"0 -1"])
def test_read_pgm_rejects_negative_dimensions(tmp_path, dims):
    path = tmp_path / "neg.pgm"
    path.write_bytes(b"P5\n" + dims + b"\n255\n" + bytes(4))
    with pytest.raises(ManifestError, match=f"^{path}: malformed PGM header$"):
        read_pgm(path)


def test_read_pgm_view_is_read_only(tmp_path):
    raster = np.arange(12, dtype=np.uint8).reshape(3, 4)
    path = tmp_path / "x.pgm"
    write_pgm(path, raster)
    back = read_pgm(str(path))
    assert np.array_equal(back, raster)
    with pytest.raises(ValueError):
        back[0, 0] = 1
