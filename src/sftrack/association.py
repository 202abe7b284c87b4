"""Cost construction and optimal assignment for both association stages,
and the appearance gate on low-confidence track initiation.

Costs live in [0, 1] (1 - fused similarity). FORBIDDEN marks pairs the
solver must never select: IoU below IOU_GATE or mismatched classes.
Cues are evaluated only on the candidate pairs, as array expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import appearance
from .types import iou_matrix

FORBIDDEN = np.inf

# Least IoU of a candidate pair, in both stages.
IOU_GATE = 0.1
# Matches whose fused similarity falls below a stage's floor are demoted to
# unmatched. The second stage multiplies three cues, so an accepted match
# needs a lower floor than the single-cue first stage.
MIN_FUSED_SIM_FIRST = 0.1
MIN_FUSED_SIM_SECOND = 0.05

# Finite stand-in for forbidden entries while solving; any matching that can
# avoid it will, and post-filtering drops it if not.
_BIG = 1e6


@dataclass
class Assignment:
    matches: list[tuple[int, int]]
    unmatched_rows: list[int]
    unmatched_cols: list[int]


def hungarian(cost: np.ndarray, min_similarity: float = 0.0) -> Assignment:
    """Minimum-cost assignment over the smaller side of a rectangular matrix.

    FORBIDDEN entries are never selected. Matches whose similarity
    (1 - cost) falls below ``min_similarity`` are demoted to unmatched.
    Matches come in increasing row order, unmatched rows and columns in
    increasing order.
    """
    cost = np.asarray(cost, dtype=float)
    n_rows, n_cols = cost.shape if cost.ndim == 2 else (0, 0)
    if n_rows == 0 or n_cols == 0:
        return Assignment([], list(range(n_rows)), list(range(n_cols)))
    solvable = np.where(np.isfinite(cost), cost, _BIG)
    row_idx, col_idx = linear_sum_assignment(solvable)
    chosen = cost[row_idx, col_idx]
    keep = np.isfinite(chosen)
    if min_similarity > 0.0:
        keep &= ~(1.0 - chosen < min_similarity)
    rows, cols = row_idx[keep], col_idx[keep]
    free_rows = np.ones(n_rows, dtype=bool)
    free_rows[rows] = False
    free_cols = np.ones(n_cols, dtype=bool)
    free_cols[cols] = False
    return Assignment(list(zip(rows.tolist(), cols.tolist())),
                      np.flatnonzero(free_rows).tolist(), np.flatnonzero(free_cols).tolist())


@dataclass(frozen=True)
class Columns:
    """One side of an association, one row per track or detection.

    ``boxes`` are (n, 4) left, top, right, bottom; ``class_ids`` (n,);
    ``embeddings`` (n, D), of which only the rows where ``has_embedding``
    (n,) is set are read. ``cues`` holds each row's crop cues, read for
    their ``histogram`` and ``patch`` by the second stage: the tracker's
    ``AppearanceMemory`` per row for tracks, a ``Cues`` record per
    detection.
    """

    boxes: np.ndarray
    class_ids: np.ndarray
    embeddings: np.ndarray
    has_embedding: np.ndarray
    cues: Sequence

    def __len__(self) -> int:
        return len(self.class_ids)

    def take(self, rows: list[int] | slice) -> Columns:
        """The columns of ``rows`` (a list of indices or a slice), in that
        order."""
        cues = self.cues[rows] if isinstance(rows, slice) else [self.cues[i] for i in rows]
        return Columns(self.boxes[rows], self.class_ids[rows], self.embeddings[rows],
                       self.has_embedding[rows], cues)


def _stack(rows: Sequence[np.ndarray | None], shape: tuple[int, ...]) -> np.ndarray:
    """Rows stacked into one array, with zeros for the missing (None) ones."""
    blank = np.zeros(shape, dtype=np.float32)  # upcast by float64 rows
    return np.stack([blank if r is None else r for r in rows])


def _cosines(a: Columns, b: Columns, missing: float) -> np.ndarray:
    """Embedding cosine of every (row of a, row of b) pair as a (len(a),
    len(b)) matrix; ``missing`` where either row has no embedding."""
    if len(a) and len(b) and a.has_embedding.all() and b.has_embedding.all():
        return appearance.embedding_similarities(a.embeddings, b.embeddings)
    out = np.full((len(a), len(b)), missing)
    if a.has_embedding.any() and b.has_embedding.any():
        out[np.ix_(a.has_embedding, b.has_embedding)] = appearance.embedding_similarities(
            a.embeddings[a.has_embedding], b.embeddings[b.has_embedding])
    return out


def _same_class(a: Columns, b: Columns) -> np.ndarray:
    return a.class_ids[:, None] == b.class_ids[None, :]


def build_stage_matrix(tracks: Columns, detections: Columns,
                       stage: Literal["first", "second"],
                       use_appearance: bool = True) -> np.ndarray:
    """Cost matrix for one cascade stage, tracks by detections.

    Entries are FORBIDDEN when IoU is below IOU_GATE or the classes differ;
    the other pairs cost 1 - IoU x the stage's cue: embedding cosine (1
    where a side has none) in the first stage, histogram x patch MSE
    similarity (0 where a side has no crop) in the second.
    ``use_appearance=False`` drops the cue (the confidence-cascade baseline
    behaviour).
    """
    cost = np.full((len(tracks), len(detections)), FORBIDDEN)
    if not len(tracks) or not len(detections):
        return cost
    ious = iou_matrix(tracks.boxes, detections.boxes)
    ti, dj = np.nonzero(_same_class(tracks, detections) & (ious >= IOU_GATE))
    sim = ious[ti, dj]
    if use_appearance and stage == "first":
        sim = sim * _cosines(tracks, detections, 1.0)[ti, dj]
    elif use_appearance and len(ti):
        # Histograms and patches are computed on first read, so only the
        # tracks and detections of candidate pairs are stacked. A missing
        # crop stacks as an all-zero histogram, which scores 0.
        rows, ti_u = np.unique(ti, return_inverse=True)
        cols, dj_u = np.unique(dj, return_inverse=True)
        mem_rows = [tracks.cues[i] for i in rows]
        cue_cols = [detections.cues[j] for j in cols]
        bins = (3, appearance.HIST_BINS)
        patch = (appearance.PATCH_SIZE[1], appearance.PATCH_SIZE[0], 3)
        sim = (sim * appearance.histogram_similarities(
                   _stack([m.histogram for m in mem_rows], bins)[ti_u],
                   _stack([c.histogram for c in cue_cols], bins)[dj_u])
               * appearance.patch_similarities(
                   _stack([m.patch for m in mem_rows], patch)[ti_u],
                   _stack([c.patch for c in cue_cols], patch)[dj_u]))
    cost[ti, dj] = 1.0 - sim
    return cost


def low_init_allowed(low: Columns, high: Columns, rho: float) -> np.ndarray:
    """The rho gate: which low-confidence detections may start a track. Those
    whose best embedding cosine against this frame's same-class high
    detections exceeds ``rho`` pass, and so do those the gate cannot judge
    (no embedding on the low detection or on every same-class high one)."""
    if not len(low) or not len(high):
        return np.ones(len(low), dtype=bool)
    cos = _cosines(low, high, -np.inf)
    best = np.where(_same_class(low, high), cos, -np.inf).max(axis=1)
    return (best == -np.inf) | (best > rho)
