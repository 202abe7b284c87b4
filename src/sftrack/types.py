"""Geometric primitives and detection records.

Boxes are stored as top-left + width/height in float pixel coordinates,
matching the on-disk detection/result file semantics.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Largest accepted box area: an area taken from rounded corners can reach
# 4x it, and IoU adds two such areas, which stays below the largest float.
MAX_AREA = sys.float_info.max / 16


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in pixel coordinates."""

    left: float
    top: float
    width: float
    height: float

    def __post_init__(self):
        # The edges are finite only if all four fields are; finite fields
        # can still overflow an edge or the area, which crops and IoU read.
        if not (math.isfinite(self.left + self.width) and math.isfinite(self.top + self.height)
                and math.isfinite(self.width * self.height)):
            raise ValueError(f"non-finite box field, edge or area: {self}")
        if self.width < 0 or self.height < 0:
            raise ValueError(f"negative box size: {self.width}x{self.height}")
        if self.width * self.height > MAX_AREA:
            raise ValueError(f"box area above {MAX_AREA:g}, too large for IoU: {self}")

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


def box_iou_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`iou` of row i of ``a`` with row i of ``b``, two (n, 4) left,
    top, width, height arrays, by the same operations: areas are width x
    height."""
    ix = np.minimum(a[:, 0] + a[:, 2], b[:, 0] + b[:, 2]) - np.maximum(a[:, 0], b[:, 0])
    iy = np.minimum(a[:, 1] + a[:, 3], b[:, 1] + b[:, 3]) - np.maximum(a[:, 1], b[:, 1])
    inter = ix * iy
    union = a[:, 2] * a[:, 3] + b[:, 2] * b[:, 3] - inter
    return np.divide(inter, union, out=np.zeros_like(inter),
                     where=(ix > 0) & (iy > 0) & (union > 0))


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


def iou_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The :func:`iou_matrix` entry of row i of ``a`` and row i of ``b``, two
    (n, 4) left, top, right, bottom arrays, by the same operations: areas
    come from the corners, so they can differ from :func:`iou`'s width x
    height in the last bit."""
    ix = np.minimum(a[:, 2], b[:, 2]) - np.maximum(a[:, 0], b[:, 0])
    iy = np.minimum(a[:, 3], b[:, 3]) - np.maximum(a[:, 1], b[:, 1])
    inter = np.clip(ix, 0, None) * np.clip(iy, 0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a + area_b - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


# Candidate pairs are expanded about this many at a time, so memory stays
# bounded when many boxes line up in x.
_PAIR_CHUNK = 1 << 16


def _left_edge_within(a: np.ndarray, group_a: np.ndarray, b: np.ndarray, group_b: np.ndarray,
                      strict: bool) -> tuple[np.ndarray, np.ndarray]:
    """Every (i, j) of one group whose boxes intersect with positive area
    and where ``b[j]``'s left edge lies in ``[left, right)`` of ``a[i]``, or
    in ``(left, right)`` when ``strict``."""
    # Complex numbers sort by real part, then imaginary part: group, then left.
    key = group_b + 1j * b[:, 0]
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.searchsorted(key, group_a + 1j * a[:, 0], side="right" if strict else "left")
    counts = np.maximum(np.searchsorted(key, group_a + 1j * a[:, 2], side="left") - first, 0)
    ends = np.cumsum(counts)
    out_i, out_j = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)]
    lo = 0
    while lo < len(a):
        hi = max(int(np.searchsorted(ends, ends[lo] - counts[lo] + _PAIR_CHUNK, "right")), lo + 1)
        n = counts[lo:hi]
        i = np.repeat(np.arange(lo, hi), n)
        j = order[np.arange(len(i)) - np.repeat(np.cumsum(n) - n - first[lo:hi], n)]
        keep = np.minimum(a[i, 3], b[j, 3]) > np.maximum(a[i, 1], b[j, 1])
        i, j = i[keep], j[keep]
        keep = np.minimum(a[i, 2], b[j, 2]) > np.maximum(a[i, 0], b[j, 0])
        out_i.append(i[keep])
        out_j.append(j[keep])
        lo = hi
    return np.concatenate(out_i), np.concatenate(out_j)


def overlapping_pairs(a: np.ndarray, group_a: np.ndarray, b: np.ndarray,
                      group_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows i of ``a`` and j of ``b``, two (n, 4) left, top, right, bottom
    arrays, of every pair with ``group_a[i] == group_b[j]`` whose boxes
    intersect with positive area, by increasing i: the only pairs whose
    :func:`iou` or :func:`iou_matrix` entry can be positive. Found by
    sorting left edges, so the work grows with the pairs that overlap in x,
    not with all pairs of a group."""
    # Two x-intervals overlap when one's left edge lies within the other.
    i1, j1 = _left_edge_within(a, group_a, b, group_b, strict=False)
    j2, i2 = _left_edge_within(b, group_b, a, group_a, strict=True)
    i, j = np.concatenate([i1, i2]), np.concatenate([j1, j2])
    order = np.argsort(i, kind="stable")
    return i[order], j[order]


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
