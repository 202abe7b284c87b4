"""Geometric primitives and detection records.

Boxes are stored as top-left + width/height in float pixel coordinates,
matching the on-disk detection/result file semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def iou_matrix(rows: list[BoundingBox], cols: list[BoundingBox]) -> np.ndarray:
    """Pairwise IoU between two box lists, vectorized."""
    if not rows or not cols:
        return np.zeros((len(rows), len(cols)))
    ra = np.array([[b.left, b.top, b.right, b.bottom] for b in rows], dtype=float)
    ca = np.array([[b.left, b.top, b.right, b.bottom] for b in cols], dtype=float)
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
