"""Geometric primitives and detection records.

Boxes are stored as top-left + width/height in float pixel coordinates,
matching the on-disk detection/result file semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in pixel coordinates."""

    left: float
    top: float
    width: float
    height: float

    def __post_init__(self):
        for v in (self.left, self.top, self.width, self.height):
            if not math.isfinite(v):
                raise ValueError(f"non-finite box field: {self}")
        if self.width < 0 or self.height < 0:
            raise ValueError(f"negative box size: {self.width}x{self.height}")

    @property
    def right(self) -> float:
        return self.left + self.width

    @property
    def bottom(self) -> float:
        return self.top + self.height

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (self.left + self.width / 2.0, self.top + self.height / 2.0)

    @property
    def is_degenerate(self) -> bool:
        return self.area == 0.0


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; 0 when the union has zero area."""
    ix = min(a.right, b.right) - max(a.left, b.left)
    iy = min(a.bottom, b.bottom) - max(a.top, b.top)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    if union <= 0:
        return 0.0
    return inter / union


def box_array(boxes: Sequence[BoundingBox]) -> np.ndarray:
    """(n, 4) left, top, width, height rows of ``boxes``."""
    # One flat list converts faster than a list of 4-tuples.
    values: list[float] = []
    for b in boxes:
        values += (b.left, b.top, b.width, b.height)
    return np.array(values, dtype=float).reshape(-1, 4)


def corners(ltwh: np.ndarray) -> np.ndarray:
    """(n, 4) left, top, right, bottom rows of (n, 4) left, top, width,
    height rows; right is left + width, as in ``BoundingBox.right``."""
    return np.concatenate([ltwh[:, :2], ltwh[:, :2] + ltwh[:, 2:]], axis=1)


def iou_matrix(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Pairwise IoU of two (n, 4) left, top, right, bottom arrays."""
    if not len(rows) or not len(cols):
        return np.zeros((len(rows), len(cols)))
    ra, ca = rows, cols
    ix = np.minimum(ra[:, None, 2], ca[None, :, 2]) - np.maximum(ra[:, None, 0], ca[None, :, 0])
    iy = np.minimum(ra[:, None, 3], ca[None, :, 3]) - np.maximum(ra[:, None, 1], ca[None, :, 1])
    inter = np.clip(ix, 0, None) * np.clip(iy, 0, None)
    area_r = (ra[:, 2] - ra[:, 0]) * (ra[:, 3] - ra[:, 1])
    area_c = (ca[:, 2] - ca[:, 0]) * (ca[:, 3] - ca[:, 1])
    union = area_r[:, None] + area_c[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def to_cxcyah(box: BoundingBox) -> tuple[float, float, float, float]:
    """Convert to (center-x, center-y, aspect w/h, height) measurement space.

    Rejects boxes with non-positive height; the aspect ratio is undefined there.
    """
    if box.height <= 0:
        raise ValueError(f"degenerate height: {box.height}")
    cx, cy = box.center
    return (cx, cy, box.width / box.height, box.height)


def from_cxcyah(cx: float, cy: float, aspect: float, height: float) -> BoundingBox:
    """Inverse of :func:`to_cxcyah`."""
    width = aspect * height
    return BoundingBox(cx - width / 2.0, cy - height / 2.0, width, height)


def cxcyah(ltwh: np.ndarray) -> np.ndarray:
    """:func:`to_cxcyah` of every (n, 4) left, top, width, height row, with
    the same operations; every height must be positive."""
    left, top, width, height = ltwh.T
    return np.stack([left + width / 2.0, top + height / 2.0, width / height, height], axis=1)


@dataclass(frozen=True, eq=False)
class Detection:
    """Per-frame detector output. Frames are 1-based."""

    frame: int
    box: BoundingBox
    score: float
    class_id: int = 0

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"detection score outside [0,1]: {self.score}")
