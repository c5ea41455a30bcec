"""Sequence pool domain types and the on-disk label-tree format.

A pool directory holds plain-text box annotations under
``labels/{training,validation,test}`` with one file per frame named
``<sequence>_<frame>.txt``, optional 8-bit grayscale rasters under
``frames/<split>`` as binary PGM, and a ``manifest.csv`` sidecar listing
per-sequence annotation cost and metadata. Box coordinates are normalized
center-format (cx, cy, w, h) in the unit square. Text files are UTF-8.

load_pool lists each split's label and frame directories once and joins
file names as strings. It checks each PGM's header and size; a frame reads
its PGM on each raster read, so `run`, `analyze` and `stats` read the pool
directory as they run, and it must not change under them.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import partial
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from .errors import (
    ContinuityError,
    LineFormatError,
    ManifestError,
    NameFormatError,
)
from .tables import cell, write_table

COORD_FORMAT = "%.6f"
FRAME_ID_DIGITS = 6


class Occlusion(IntEnum):
    VISIBLE = 0
    PARTIAL = 1
    FULL = 2


class Season(IntEnum):
    WINTER = 0
    SPRING = 1
    SUMMER = 2


class TimeOfDay(IntEnum):
    MORNING = 0
    NOON = 1
    EVENING = 2


class Split(Enum):
    TRAIN = "train"
    VALIDATION = "validation"
    TEST = "test"


# Directory names inside labels/ and frames/ for each split.
SPLIT_DIRS = {
    Split.TRAIN: "training",
    Split.VALIDATION: "validation",
    Split.TEST: "test",
}

_MANIFEST_COLUMNS = (
    "sequence_id",
    "cost_hours",
    "scene_id",
    "season",
    "time_of_day",
    "split",
)


@dataclass
class BoundingBox:
    """One annotated object: normalized center-format geometry plus class.

    Invariants: cx, cy in [0,1]; 0 < w, h <= 1; the box extent stays inside
    the unit square; class_id is a non-negative integer (0-3 are the known
    superclasses, others survive parsing).
    """

    class_id: int
    cx: float
    cy: float
    w: float
    h: float
    occluded: Occlusion = Occlusion.VISIBLE

    def corners(self) -> tuple[float, float, float, float]:
        """Return (x1, y1, x2, y2)."""
        return (
            self.cx - self.w / 2,
            self.cy - self.h / 2,
            self.cx + self.w / 2,
            self.cy + self.h / 2,
        )

    def validate(self) -> None:
        if self.class_id < 0:
            raise ValueError(f"negative class id {self.class_id}")
        if not (0.0 <= self.cx <= 1.0 and 0.0 <= self.cy <= 1.0):
            raise ValueError(f"center ({self.cx}, {self.cy}) outside unit square")
        if not (0.0 < self.w <= 1.0 and 0.0 < self.h <= 1.0):
            raise ValueError(f"degenerate extent ({self.w}, {self.h})")
        x1, y1, x2, y2 = self.corners()
        if x1 < -1e-9 or y1 < -1e-9 or x2 > 1 + 1e-9 or y2 > 1 + 1e-9:
            raise ValueError("box extent leaves the unit square")
        if not isinstance(self.occluded, Occlusion):
            raise ValueError(f"bad occlusion flag {self.occluded!r}")


def clamp_box(
    class_id: int,
    cx: float,
    cy: float,
    w: float,
    h: float,
    occluded: Occlusion = Occlusion.VISIBLE,
) -> BoundingBox:
    """Clamp raw geometry into the unit square.

    The center is clamped to [0,1], extents capped at 1, and the box edges
    clipped so the whole rectangle stays inside the square. Non-positive w
    or h cannot be repaired here and must be rejected by the caller.
    """
    ncx = min(max(cx, 0.0), 1.0)
    ncy = min(max(cy, 0.0), 1.0)
    nw = min(w, 1.0)
    nh = min(h, 1.0)
    x1 = max(ncx - nw / 2, 0.0)
    x2 = min(ncx + nw / 2, 1.0)
    y1 = max(ncy - nh / 2, 0.0)
    y2 = min(ncy + nh / 2, 1.0)
    return BoundingBox(class_id, (x1 + x2) / 2, (y1 + y2) / 2, x2 - x1, y2 - y1, occluded)


@dataclass
class Frame:
    """One video frame: its boxes, and optionally an 8-bit grayscale raster,
    held as ``source``: the array, or a function building it on each read."""

    frame_id: int
    boxes: list[BoundingBox] = field(default_factory=list)
    source: np.ndarray | Callable[[], np.ndarray] | None = None

    @property
    def raster(self) -> np.ndarray | None:
        return self.source() if callable(self.source) else self.source

    @raster.setter
    def raster(self, value) -> None:
        self.source = value


@dataclass
class SequenceMeta:
    sequence_id: str
    cost_hours: float
    scene_id: int
    season: Season
    time_of_day: TimeOfDay
    split: Split


@dataclass
class Sequence:
    """A contiguous video sequence with metadata."""

    meta: SequenceMeta
    frames: list[Frame]

    @property
    def sequence_id(self) -> str:
        return self.meta.sequence_id

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    def total_boxes(self) -> int:
        return sum(len(f.boxes) for f in self.frames)

    def occluded_boxes(self) -> int:
        return sum(
            1 for f in self.frames for b in f.boxes if b.occluded is not Occlusion.VISIBLE
        )


@dataclass
class PoolState:
    """All sequences of a pool, by id."""

    sequences: dict[str, Sequence]

    @classmethod
    def from_sequences(cls, sequences: list[Sequence]) -> "PoolState":
        table: dict[str, Sequence] = {}
        for seq in sequences:
            sid = seq.sequence_id
            if sid in table:
                raise ManifestError(f"duplicate sequence id {sid!r}")
            if seq.n_frames < 1:
                raise ContinuityError(f"sequence {sid!r} has no frames")
            ids = [f.frame_id for f in seq.frames]
            if ids != list(range(len(ids))):
                raise ContinuityError(
                    f"sequence {sid!r} has frame ids {ids[:4]}..., expected 0..{len(ids) - 1}"
                )
            table[sid] = seq
        return cls(sequences=table)

    def split_ids(self, split: Split) -> list[str]:
        return sorted(s for s, q in self.sequences.items() if q.meta.split is split)

    @property
    def train_ids(self) -> list[str]:
        return self.split_ids(Split.TRAIN)

    @property
    def test_ids(self) -> list[str]:
        return self.split_ids(Split.TEST)

    def total_train_frames(self) -> int:
        return sum(self.sequences[s].n_frames for s in self.train_ids)


@dataclass
class LabelFile:
    """Result of parsing one label file."""

    sequence_id: str
    frame_id: int
    boxes: list[BoundingBox]


def parse_label_name(path_name: str) -> tuple[str, int]:
    """Split ``<sequence>_<frame>.txt`` into its parts.

    The frame id is the final underscore-separated token, ASCII digits only;
    everything before the last underscore belongs to the sequence id.
    """
    name = os.path.basename(path_name)
    if not name.endswith(".txt"):
        raise NameFormatError(f"{name!r} does not end in .txt")
    stem = name[: -len(".txt")]
    if "_" not in stem:
        raise NameFormatError(f"{name!r} has no sequence/frame separator")
    sid, frame_part = stem.rsplit("_", 1)
    if not sid:
        raise NameFormatError(f"{name!r} has an empty sequence id")
    if not (frame_part.isascii() and frame_part.isdigit()):
        raise NameFormatError(f"{name!r} has a non-numeric frame id {frame_part!r}")
    return sid, int(frame_part)


def parse_label_file(path_name: str, contents: str) -> LabelFile:
    """Parse one annotation file.

    Each non-empty line is ``class cx cy w h`` with an optional integer
    occlusion flag as a sixth field. Coordinates outside the unit square are
    clamped. Unknown class ids are kept.
    """
    sid, frame_id = parse_label_name(path_name)
    boxes: list[BoundingBox] = []
    for lineno, raw in enumerate(contents.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) not in (5, 6):
            raise LineFormatError(f"expected 5 or 6 fields, got {len(fields)}", path_name, lineno)
        try:
            class_id = int(fields[0])
        except ValueError:
            raise LineFormatError(f"bad class id {fields[0]!r}", path_name, lineno) from None
        try:
            cx, cy, w, h = (float(v) for v in fields[1:5])
        except ValueError:
            raise LineFormatError("non-numeric coordinate", path_name, lineno) from None
        if not all(map(math.isfinite, (cx, cy, w, h))):
            raise LineFormatError("non-finite coordinate", path_name, lineno)
        occ = Occlusion.VISIBLE
        if len(fields) == 6:
            try:
                occ = Occlusion(int(fields[5]))
            except ValueError:
                raise LineFormatError(
                    f"bad occlusion flag {fields[5]!r}", path_name, lineno
                ) from None
        if class_id < 0:
            raise LineFormatError(f"negative class id {class_id}", path_name, lineno)
        if w <= 0 or h <= 0:
            raise LineFormatError(f"non-positive box extent ({w}, {h})", path_name, lineno)
        boxes.append(clamp_box(class_id, cx, cy, w, h, occ))
    return LabelFile(sid, frame_id, boxes)


def format_label_line(box: BoundingBox) -> str:
    coords = " ".join(COORD_FORMAT % v for v in (box.cx, box.cy, box.w, box.h))
    line = f"{box.class_id} {coords}"
    if box.occluded is not Occlusion.VISIBLE:
        line += f" {int(box.occluded)}"
    return line


# Magic, width, height and maxval, then the one whitespace byte before the
# payload, whose first pixel may itself be a whitespace byte.
_PGM_HEADER = re.compile(rb"\s*(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s?")
_PGM_PREFIX = 64


def _pgm_layout(path: Path | str, fh: BinaryIO) -> tuple[int, int, int]:
    """(width, height, payload offset) of the open P5 graymap fh, from its first
    _PGM_PREFIX bytes or all of it if the header reaches their end; ManifestError if bad."""
    data = fh.read(_PGM_PREFIX)
    if (header := _PGM_HEADER.match(data)) is None or header.end() == len(data):
        header = _PGM_HEADER.match(data + fh.read())
    if header is None or header[1] != b"P5":
        raise ManifestError(f"{path}: not a binary P5 graymap")
    try:
        width, height, maxval = (int(t) for t in header.groups()[1:])
    except ValueError:
        raise ManifestError(f"{path}: malformed PGM header") from None
    if maxval != 255:
        raise ManifestError(f"{path}: unsupported maxval {maxval}")
    if width < 0 or height < 0:
        raise ManifestError(f"{path}: malformed PGM header")
    if os.fstat(fh.fileno()).st_size - header.end() < width * height:
        raise ManifestError(f"{path}: truncated raster payload")
    return width, height, header.end()


def read_pgm(path: Path | str) -> np.ndarray:
    """Read a binary (P5) graymap with maxval 255 as a read-only uint8 array."""
    with open(path, "rb") as fh:
        width, height, offset = _pgm_layout(path, fh)
        fh.seek(offset)
        return np.frombuffer(fh.read(width * height), np.uint8).reshape(height, width)


def write_pgm(path: Path | str, raster: np.ndarray) -> None:
    if raster.ndim != 2 or raster.dtype != np.uint8:
        raise ValueError("raster must be a 2-D uint8 array")
    height, width = raster.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + raster.tobytes())


def _read_text(path: Path | str, newline: str | None = None) -> str:
    """A UTF-8 text file's contents; a byte that does not decode raises
    ManifestError naming the file."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise ManifestError(f"{path}: not UTF-8 text") from None


def _parse_manifest(manifest_path: Path) -> dict[str, SequenceMeta]:
    if not manifest_path.is_file():
        raise ManifestError(f"manifest not found at {manifest_path}")
    rows: dict[str, SequenceMeta] = {}
    reader = csv.DictReader(io.StringIO(_read_text(manifest_path, newline=""), newline=""))
    try:
        header, records = reader.fieldnames or [], list(reader)
    except csv.Error as exc:  # before Python 3.11, a NUL byte among others
        raise ManifestError(f"{manifest_path}: {exc}") from None
    missing = [c for c in _MANIFEST_COLUMNS if c not in header]
    if missing:
        raise ManifestError(f"manifest missing columns: {', '.join(missing)}")
    for lineno, row in enumerate(records, start=2):
        sid = (row["sequence_id"] or "").strip()
        if not sid:
            raise ManifestError(f"manifest row {lineno}: empty sequence_id")
        if sid in rows:
            raise ManifestError(f"manifest row {lineno}: duplicate id {sid!r}")
        try:
            cost = float(row["cost_hours"])
        except (TypeError, ValueError):
            raise ManifestError(
                f"manifest row {lineno}: bad cost {row['cost_hours']!r}"
            ) from None
        if not np.isfinite(cost) or cost <= 0:
            raise ManifestError(
                f"manifest row {lineno}: cost_hours must be positive, got {cost}"
            )
        try:
            scene = int(row["scene_id"])
            season = Season[row["season"].strip().upper()]
            tod = TimeOfDay[row["time_of_day"].strip().upper()]
            split = Split(row["split"].strip().lower())
        except (KeyError, ValueError, AttributeError, TypeError):
            # TypeError: a row shorter than the header reads None fields.
            raise ManifestError(f"manifest row {lineno}: bad metadata field") from None
        rows[sid] = SequenceMeta(sid, cost, scene, season, tod, split)
    return rows


def load_pool(root_dir: Path | str) -> PoolState:
    """Load a pool directory into memory.

    Validates that every label file's sequence has a manifest row on the
    matching split, that each frame id has one file, that frame ids are
    gapless from zero (PoolState.from_sequences checks that) and that costs
    are positive. Label files are read in name order; a frame gets a raster
    when its PGM is a regular file in the split's frame directory.
    """
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
        frame_dir, pgms = str(root / "frames" / dirname), set()
        if os.path.isdir(frame_dir):
            with os.scandir(frame_dir) as entries:
                pgms = {entry.name for entry in entries if entry.is_file()}
        for name in sorted(n for n in os.listdir(split_dir) if n.endswith(".txt")):
            label_path = os.path.join(split_dir, name)
            parsed = parse_label_file(label_path, _read_text(label_path))
            meta = metas.get(parsed.sequence_id)
            if meta is None:
                raise ManifestError(f"{name}: sequence {parsed.sequence_id!r} not in manifest")
            if meta.split is not split:
                raise ManifestError(
                    f"{name}: filed under {dirname!r} but manifest says {meta.split.value!r}"
                )
            frames = frames_by_seq.setdefault(parsed.sequence_id, {})
            if parsed.frame_id in frames:
                raise ContinuityError(
                    f"{name}: sequence {parsed.sequence_id!r} already has a "
                    f"label file for frame {parsed.frame_id}"
                )
            pgm = name[: -len(".txt")] + ".pgm"
            path, source = os.path.join(frame_dir, pgm), None
            if pgm in pgms:
                with open(path, "rb") as fh:
                    _pgm_layout(path, fh)
                source = partial(read_pgm, path)
            frames[parsed.frame_id] = Frame(parsed.frame_id, parsed.boxes, source)

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


def write_pool(pool: PoolState, root_dir: Path | str) -> None:
    """Write a pool as a label tree plus manifest under root_dir.

    Always creates the three split folders (an empty pool yields the bare
    skeleton). Frames with rasters additionally produce PGM files, each
    raster read before its file is opened. IO failures propagate as OSError.
    """
    root = Path(root_dir)
    for dirname in SPLIT_DIRS.values():
        (root / "labels" / dirname).mkdir(parents=True, exist_ok=True)

    frame_dirs: set[str] = set()  # made once, at a split's first raster
    for sid in sorted(pool.sequences):
        seq = pool.sequences[sid]
        dirname = SPLIT_DIRS[seq.meta.split]
        label_dir = os.path.join(root, "labels", dirname)
        frame_dir = os.path.join(root, "frames", dirname)
        for frame in seq.frames:
            for box in frame.boxes:
                box.validate()
            stem = f"{sid}_{frame.frame_id:0{FRAME_ID_DIGITS}d}"
            lines = [format_label_line(b) for b in frame.boxes]
            with open(os.path.join(label_dir, f"{stem}.txt"), "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + ("\n" if lines else ""))
            if (raster := frame.raster) is not None:
                if frame_dir not in frame_dirs:
                    os.makedirs(frame_dir, exist_ok=True)
                    frame_dirs.add(frame_dir)
                write_pgm(os.path.join(frame_dir, f"{stem}.pgm"), raster)

    rows = (
        [sid, cell(seq.meta.cost_hours), seq.meta.scene_id, seq.meta.season.name.lower(),
         seq.meta.time_of_day.name.lower(), seq.meta.split.value]
        for sid, seq in sorted(pool.sequences.items())
    )
    write_table(root / "manifest.csv", _MANIFEST_COLUMNS, rows)
