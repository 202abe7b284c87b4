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
from .types import Detection, iou_matrix

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
    """
    cost = np.asarray(cost, dtype=float)
    n_rows, n_cols = cost.shape if cost.ndim == 2 else (0, 0)
    if n_rows == 0 or n_cols == 0:
        return Assignment([], list(range(n_rows)), list(range(n_cols)))
    solvable = np.where(np.isfinite(cost), cost, _BIG)
    row_idx, col_idx = linear_sum_assignment(solvable)
    matches = []
    for r, c in zip(row_idx, col_idx):
        if not np.isfinite(cost[r, c]):
            continue
        if min_similarity > 0.0 and 1.0 - cost[r, c] < min_similarity:
            continue
        matches.append((int(r), int(c)))
    matched_rows = {r for r, _ in matches}
    matched_cols = {c for _, c in matches}
    return Assignment(
        matches,
        [r for r in range(n_rows) if r not in matched_rows],
        [c for c in range(n_cols) if c not in matched_cols],
    )


def _stack(rows: Sequence[np.ndarray | None], shape: tuple[int, ...]) -> np.ndarray:
    """Rows stacked into one array, with zeros for the missing (None) ones."""
    blank = np.zeros(shape, dtype=np.float32)  # upcast by float64 rows
    return np.stack([blank if r is None else r for r in rows])


def _cosines(rows_a: Sequence[np.ndarray | None], rows_b: Sequence[np.ndarray | None],
             missing: float) -> np.ndarray:
    """Embedding cosine of every (row_a, row_b) pair as an (n_a, n_b)
    matrix; ``missing`` where either row has no embedding."""
    has_a = np.array([r is not None for r in rows_a], dtype=bool)
    has_b = np.array([r is not None for r in rows_b], dtype=bool)
    out = np.full((len(rows_a), len(rows_b)), missing)
    if has_a.any() and has_b.any():
        out[np.ix_(has_a, has_b)] = appearance.embedding_similarities(
            np.stack([r for r in rows_a if r is not None]),
            np.stack([r for r in rows_b if r is not None]))
    return out


def _same_class(rows: Sequence, cols: Sequence) -> np.ndarray:
    return (np.array([r.class_id for r in rows])[:, None]
            == np.array([c.class_id for c in cols])[None, :])


def build_stage_matrix(tracks: Sequence, detections: Sequence[Detection],
                       stage: Literal["first", "second"],
                       cues: Sequence[appearance.Cues],
                       use_appearance: bool = True) -> np.ndarray:
    """Cost matrix for one cascade stage.

    ``tracks`` need ``class_id``, ``predicted_box`` and ``appearance``
    attributes; ``cues`` holds one record per detection. Entries are
    FORBIDDEN when IoU is below IOU_GATE or the classes differ; the
    other pairs cost 1 - IoU x the stage's cue: embedding cosine (1 where a
    side has none) in the first stage, histogram x patch MSE similarity (0
    where a side has no crop) in the second. ``use_appearance=False`` drops
    the cue (the confidence-cascade baseline behaviour).
    """
    cost = np.full((len(tracks), len(detections)), FORBIDDEN)
    if not tracks or not detections:
        return cost
    ious = iou_matrix([t.predicted_box for t in tracks], [d.box for d in detections])
    ti, dj = np.nonzero(_same_class(tracks, detections) & (ious >= IOU_GATE))
    sim = ious[ti, dj]
    mem = [t.appearance for t in tracks]
    if use_appearance and stage == "first":
        cos = _cosines([m.embedding for m in mem], [c.embedding for c in cues], 1.0)
        sim = sim * cos[ti, dj]
    elif use_appearance and len(ti):
        # Histograms and patches are computed on first read, so only the
        # tracks and detections of candidate pairs are stacked. A missing
        # crop stacks as an all-zero histogram, which scores 0.
        rows, ti_u = np.unique(ti, return_inverse=True)
        cols, dj_u = np.unique(dj, return_inverse=True)
        mem_rows = [mem[i] for i in rows]
        cue_cols = [cues[j] for j in cols]
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


def low_init_allowed(low: Sequence[Detection], low_cues: Sequence[appearance.Cues],
                     high: Sequence[Detection], high_cues: Sequence[appearance.Cues],
                     rho: float) -> np.ndarray:
    """The rho gate: which low-confidence detections may start a track. Those
    whose best embedding cosine against this frame's same-class high
    detections exceeds ``rho`` pass, and so do those the gate cannot judge
    (no embedding on the low detection or on every same-class high one)."""
    if not low or not high:
        return np.ones(len(low), dtype=bool)
    cos = _cosines([c.embedding for c in low_cues], [c.embedding for c in high_cues], -np.inf)
    best = np.where(_same_class(low, high), cos, -np.inf).max(axis=1)
    return (best == -np.inf) | (best > rho)
