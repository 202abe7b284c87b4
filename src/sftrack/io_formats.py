"""File formats: PPM frames, MOT/VisDrone detection and annotation files,
result files, and sequence manifests.

Frames are numbered 1-based everywhere. Images are numpy arrays of shape
(height, width, 3), dtype uint8, RGB.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError
from .types import BoundingBox, Detection

log = logging.getLogger(__name__)

# Five-category VisDrone subset: pedestrian, car, van, truck, bus.
DEFAULT_VISDRONE_CATEGORIES = frozenset({1, 4, 5, 6, 9})


# ---------------------------------------------------------------------------
# PPM (binary P6, maxval 255)

def read_ppm(path: str | Path) -> np.ndarray:
    data = Path(path).read_bytes()
    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(data):
            c = data[pos:pos + 1]
            if c == b"#":
                while pos < len(data) and data[pos:pos + 1] != b"\n":
                    pos += 1
            elif c.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ParseError("truncated header", str(path))
        return data[start:pos]

    magic = next_token()
    if magic != b"P6":
        raise ParseError(f"unsupported format {magic!r}, only binary P6 is supported", str(path))
    try:
        width = int(next_token())
        height = int(next_token())
        maxval = int(next_token())
    except ValueError:
        raise ParseError("non-numeric header field", str(path))
    if maxval != 255:
        raise ParseError(f"unsupported maxval {maxval}, must be 255", str(path))
    if width <= 0 or height <= 0:
        raise ParseError(f"invalid dimensions {width}x{height}", str(path))
    pos += 1  # single whitespace byte after maxval
    expected = width * height * 3
    available = max(len(data) - pos, 0)
    if available < expected:
        raise ParseError(f"truncated pixel data: {available} of {expected} bytes", str(path))
    # A view into the file's bytes, then one writable copy.
    raster = np.frombuffer(data, dtype=np.uint8, count=expected, offset=pos)
    return raster.reshape(height, width, 3).copy()


def write_ppm(path: str | Path, image: np.ndarray) -> None:
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ValueError("image must be (H, W, 3) uint8")
    h, w = image.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(image.tobytes())


# ---------------------------------------------------------------------------
# MOT detection / result rows

def _rows(path, minimum: int) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, stripped comma-separated fields) of each
    non-blank line of ``path``; a line with fewer than ``minimum`` fields
    is a ``ParseError``."""
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        parts = [p.strip() for p in line.strip().split(",")]
        if len(parts) < minimum:
            raise ParseError(f"expected at least {minimum} comma-separated fields",
                             str(path), lineno)
        yield lineno, parts


def _float_field(raw: str, path, lineno) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"non-numeric field {raw!r}", str(path), lineno)


def _int_field(raw: str, path, lineno, name: str) -> int:
    """An integer column (frame, id, category); ``1.0`` reads as 1."""
    value = _float_field(raw, path, lineno)
    if not value.is_integer():  # also false for inf and nan
        raise ParseError(f"{name} must be a whole number, got {raw!r}", str(path), lineno)
    return int(value)


def _box_fields(raw: list[str], path, lineno) -> BoundingBox:
    try:
        return BoundingBox(*(_float_field(p, path, lineno) for p in raw))
    except ValueError as exc:  # a non-finite or overflowing box
        raise ParseError(str(exc), str(path), lineno)


def _score_field(raw: str, path, lineno) -> float:
    value = _float_field(raw, path, lineno)
    if not math.isfinite(value):
        raise ParseError(f"score must be finite, got {raw!r}", str(path), lineno)
    return value


def read_mot_detections(path: str | Path) -> dict[int, list[Detection]]:
    """Parse ``frame,id,left,top,width,height,conf[,x,y,z]`` detection files.

    Scores outside [0,1] are min-max rescaled per file (with a warning), the
    MOT convention for raw detector outputs.
    """
    rows = []
    for lineno, parts in _rows(path, 7):
        frame = _int_field(parts[0], path, lineno, "frame")
        box = _box_fields(parts[2:6], path, lineno)
        score = _score_field(parts[6], path, lineno)
        if frame < 1:
            raise ParseError(f"frame index must be 1-based, got {frame}", str(path), lineno)
        rows.append((frame, box, score))
    if rows:
        scores = [r[2] for r in rows]
        lo, hi = min(scores), max(scores)
        if lo < 0.0 or hi > 1.0:
            log.warning("%s: scores outside [0,1] (%.3f..%.3f), rescaling", path, lo, hi)
            span = hi - lo
            rows = [(f, b, (s - lo) / span if span > 0 else 1.0) for f, b, s in rows]
    out: dict[int, list[Detection]] = {}
    for frame, box, score in rows:
        out.setdefault(frame, []).append(Detection(frame, box, score))
    return out


@dataclass(frozen=True)
class AnnotatedBox:
    """One ground-truth or result row."""

    frame: int
    obj_id: int
    box: BoundingBox
    score: float
    class_id: int
    ignored: bool = False


def read_visdrone(path: str | Path, mode: str = "det",
                  categories: frozenset[int] | None = DEFAULT_VISDRONE_CATEGORIES
                  ) -> dict[int, list[AnnotatedBox]]:
    """Parse ``frame,id,x,y,w,h,score,category,truncation,occlusion`` files.

    ``mode`` is ``det`` or ``gt``. In gt mode a score of 0 marks an ignore
    region (excluded from FN accounting downstream). Rows whose category is
    outside ``categories`` are dropped; pass ``categories=None`` to keep all.
    """
    if mode not in ("det", "gt"):
        raise ValueError(f"mode must be 'det' or 'gt', got {mode!r}")
    out: dict[int, list[AnnotatedBox]] = {}
    for lineno, parts in _rows(path, 8):
        frame = _int_field(parts[0], path, lineno, "frame")
        obj_id = _int_field(parts[1], path, lineno, "id")
        box = _box_fields(parts[2:6], path, lineno)
        score = _score_field(parts[6], path, lineno)
        category = _int_field(parts[7], path, lineno, "category")
        if categories is not None and category not in categories:
            continue
        ignored = mode == "gt" and score == 0.0
        out.setdefault(frame, []).append(
            AnnotatedBox(frame, obj_id, box, score, category, ignored))
    return out


def read_mot_annotations(path: str | Path) -> dict[int, list[AnnotatedBox]]:
    """Parse MOT gt/result rows ``frame,id,l,t,w,h[,conf[,class[,vis]]]``.

    A conf value of 0 marks an inactive gt row (ignored), per the
    MOTChallenge gt convention. Extra trailing columns are ignored, so
    VisDrone-layout files parse too (their class column lands in ``class``).
    """
    out: dict[int, list[AnnotatedBox]] = {}
    for lineno, parts in _rows(path, 6):
        frame = _int_field(parts[0], path, lineno, "frame")
        obj_id = _int_field(parts[1], path, lineno, "id")
        box = _box_fields(parts[2:6], path, lineno)
        score = _score_field(parts[6], path, lineno) if len(parts) > 6 else 1.0
        class_id = _int_field(parts[7], path, lineno, "class") if len(parts) > 7 else -1
        out.setdefault(frame, []).append(
            AnnotatedBox(frame, obj_id, box, score, class_id, ignored=score == 0.0))
    return out


def write_results(path: str | Path, frame_results) -> None:
    """Write tracker outputs as MOT rows, 2-decimal floats, byte-deterministic.

    ``frame_results`` is an iterable of objects with ``frame`` and ``outputs``
    (sequences of (track_id, class_id, BoundingBox, score)), ordered by frame.
    """
    lines = []
    last_frame = 0
    for fr in frame_results:
        if fr.frame < last_frame:
            raise ValueError("frame results must be ordered by frame")
        last_frame = fr.frame
        for track_id, _class_id, box, score in fr.outputs:
            lines.append(
                f"{fr.frame},{track_id},{box.left:.2f},{box.top:.2f},"
                f"{box.width:.2f},{box.height:.2f},{score:.2f},-1,-1,-1\n")
    Path(path).write_text("".join(lines))


# ---------------------------------------------------------------------------
# Sequence manifests (seqinfo.ini convention)

@dataclass
class SequenceManifest:
    name: str
    image_directory: str = "frames"
    frame_rate: float = 30.0
    seq_length: int = 0
    im_width: int = 0
    im_height: int = 0
    image_extension: str = ".ppm"

    def to_text(self) -> str:
        return (
            "[Sequence]\n"
            f"name = {self.name}\n"
            f"imDir = {self.image_directory}\n"
            f"frameRate = {_fmt_num(self.frame_rate)}\n"
            f"seqLength = {self.seq_length}\n"
            f"imWidth = {self.im_width}\n"
            f"imHeight = {self.im_height}\n"
            f"imExt = {self.image_extension}\n"
        )


_MANIFEST_KEYS = {
    "name": ("name", str),
    "imdir": ("image_directory", str),
    "framerate": ("frame_rate", float),
    "seqlength": ("seq_length", int),
    "imwidth": ("im_width", int),
    "imheight": ("im_height", int),
    "imext": ("image_extension", str),
}


def _fmt_num(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def read_manifest(path: str | Path) -> SequenceManifest:
    from .config import parse_sections

    top, sections = parse_sections(Path(path).read_text(), source=str(path))
    merged = dict(top)
    for _name, body in sections:
        merged.update(body)
    manifest = SequenceManifest(name=Path(path).parent.name)
    for key, raw in merged.items():
        target = _MANIFEST_KEYS.get(key.lower())
        if target is None:
            continue  # unknown keys ignored by contract
        field_name, conv = target
        try:
            setattr(manifest, field_name, conv(raw))
        except ValueError:
            raise ParseError(f"invalid manifest value for {key}: {raw!r}", str(path))
    return manifest


@dataclass
class Sequence:
    """A sequence directory: manifest plus resolved, existing frame paths."""

    directory: Path
    manifest: SequenceManifest
    frame_paths: list[Path]

    def read_frame(self, frame: int) -> np.ndarray:
        return read_ppm(self.frame_paths[frame - 1])


def load_sequence(seq_dir: str | Path) -> Sequence:
    seq_dir = Path(seq_dir)
    manifest_path = seq_dir / "seqinfo.ini"
    if not manifest_path.exists():
        raise ParseError("missing seqinfo.ini", str(seq_dir))
    manifest = read_manifest(manifest_path)
    image_dir = seq_dir / manifest.image_directory
    frames = sorted(image_dir.glob(f"*{manifest.image_extension}"))
    if manifest.seq_length and len(frames) != manifest.seq_length:
        raise ParseError(
            f"manifest says {manifest.seq_length} frames but {len(frames)} found",
            str(manifest_path))
    if not frames:
        raise ParseError(f"no {manifest.image_extension} frames in {image_dir}", str(seq_dir))
    return Sequence(seq_dir, manifest, frames)
