"""CLEAR and identity metrics: MOTA, FP/FN/ID switches, IDF1, MT/ML.

Frame-level correspondences follow the CLEAR protocol: matches persist from
the previous frame while overlap holds (box areas width x height, as in
``types.iou``), remaining pairs are matched by the Hungarian algorithm on
IoU (areas from the corners, as in ``types.iou_matrix``; threshold 0.5 by
default), and an ID switch is counted when a ground-truth object is matched
to a hypothesis id that differs from the last one it was matched with. IDF1
uses the optimal global one-to-one trajectory assignment, the most total
overlap on the gt-id x hyp-id matrix of frames a pair overlaps in; its IDTP
is that of the (gt ids + hyp ids)^2 identity-cost form, never built.

MOTA = (1 - (FP + FN + IDs) / GT) x 100, where GT counts ground-truth
object instances over all frames; it can be negative.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter

import numpy as np
from scipy.optimize import linear_sum_assignment

from .association import FORBIDDEN, hungarian
from .io_formats import AnnotatedBox
from .types import box_array, box_iou_pairs, corners, iou_matrix, iou_pairs, overlapping_pairs

FrameBoxes = dict[int, list[AnnotatedBox]]
_OBJ_ID = attrgetter("obj_id")
_BOX = attrgetter("box")
_LTWH = attrgetter("left", "top", "width", "height")


def remove_ignored(gt: FrameBoxes, hyp: FrameBoxes,
                   iou_threshold: float = 0.5) -> tuple[FrameBoxes, FrameBoxes]:
    """Drop ignore-region gt rows, plus hypotheses overlapping them."""
    gt_clean: FrameBoxes = {}
    hyp_clean: FrameBoxes = {}
    for frame, rows in gt.items():
        gt_clean[frame] = [r for r in rows if not r.ignored]
    for frame, rows in hyp.items():
        regions = [r.box for r in gt.get(frame, []) if r.ignored]
        if not regions:
            hyp_clean[frame] = list(rows)
            continue
        ious = iou_matrix(corners(box_array([r.box for r in rows])), corners(box_array(regions)))
        keep = ious.max(axis=1) < iou_threshold if rows else np.zeros(0)
        hyp_clean[frame] = [r for r, k in zip(rows, keep) if k]
    return gt_clean, hyp_clean


@dataclass
class _Side:
    """One side's rows of ``frames`` in frame order, as columns: frame k's
    rows are ``offsets[k]:offsets[k + 1]``; per row, ``frame`` is k, ``box``
    is left, top, width, height, and ``index`` is its id's place in ``ids``."""

    offsets: np.ndarray
    frame: np.ndarray
    box: np.ndarray
    ids: np.ndarray
    index: np.ndarray

    @classmethod
    def of(cls, boxes: FrameBoxes, frames: list[int]) -> "_Side":
        counts = [len(boxes.get(f, ())) for f in frames]
        rows = [r for f in frames for r in boxes.get(f, ())]
        ltwh = np.fromiter(chain.from_iterable(map(_LTWH, map(_BOX, rows))), float, 4 * len(rows))
        ids, index = np.unique(np.fromiter(map(_OBJ_ID, rows), np.int64, len(rows)),
                               return_inverse=True)
        return cls(np.cumsum([0] + counts), np.repeat(np.arange(len(frames)), counts),
                   ltwh.reshape(-1, 4), ids, index)


@dataclass
class _Pairs:
    """Both sides, and each same-frame (gt row, hyp row) pair of boxes that
    overlap, frame by frame, with its ``types.iou_matrix`` value; every
    other pair has IoU 0."""

    frames: list[int]
    gt: _Side
    hyp: _Side
    rows: np.ndarray
    cols: np.ndarray
    iou: np.ndarray

    @classmethod
    def of(cls, gt: FrameBoxes, hyp: FrameBoxes, iou_threshold: float) -> "_Pairs":
        # Only a positive threshold rejects every pair left out.
        if not iou_threshold > 0.0:
            raise ValueError(f"iou_threshold must be positive, got {iou_threshold}")
        frames = sorted(set(gt) | set(hyp))
        g, h = _Side.of(gt, frames), _Side.of(hyp, frames)
        g_corners, h_corners = corners(g.box), corners(h.box)
        rows, cols = overlapping_pairs(g_corners, g.frame, h_corners, h.frame)
        return cls(frames, g, h, rows, cols, iou_pairs(g_corners[rows], h_corners[cols]))


def _check_unique_ids(rows: list[AnnotatedBox], frame: int, what: str) -> None:
    seen = set()
    for r in rows:
        if r.obj_id in seen:
            raise ValueError(f"duplicate {what} id {r.obj_id} in frame {frame}")
        seen.add(r.obj_id)


@dataclass
class ClearResult:
    fp: int = 0
    fn: int = 0
    ids: int = 0
    gt_total: int = 0
    hyp_total: int = 0
    # frame -> list of (gt_id, hyp_id) matched this frame
    correspondences: dict[int, list[tuple[int, int]]] = field(default_factory=dict)


def clear_match(gt: FrameBoxes, hyp: FrameBoxes, iou_threshold: float = 0.5) -> ClearResult:
    """Frame-by-frame CLEAR correspondence and event counting."""
    p = _Pairs.of(gt, hyp, iou_threshold)
    g, h = p.gt, p.hyp
    keys = [np.sort(x.frame * len(x.ids) + x.index) for x in (g, h)]  # one per (frame, id)
    if any((k[1:] == k[:-1]).any() for k in keys):
        for frame in p.frames:
            _check_unique_ids(gt.get(frame, []), frame, "ground-truth")
            _check_unique_ids(hyp.get(frame, []), frame, "hypothesis")
    result = ClearResult(gt_total=len(g.frame), hyp_total=len(h.frame))
    # The pairs that may persist, and the ones the Hungarian step may match.
    rows, cols, cost = p.rows, p.cols, 1.0 - p.iou
    held = box_iou_pairs(g.box[rows], h.box[cols]) >= iou_threshold
    fresh = p.iou >= iou_threshold
    pg, ph = g.index[rows], h.index[cols]
    bounds = np.searchsorted(g.frame[rows], np.arange(len(p.frames) + 1)).tolist()
    g_off, h_off = g.offsets.tolist(), h.offsets.tolist()
    # By id index: each gt id's hyp in the last frame and its last hyp at all
    # (-1 for none), and whether the id is matched in this frame so far.
    prev_hyp, last_hyp = np.full(len(g.ids), -1), np.full(len(g.ids), -1)
    taken_g, taken_h = np.zeros(len(g.ids), bool), np.zeros(len(h.ids), bool)
    mg = np.empty(0, dtype=int)
    for k, frame in enumerate(p.frames):
        s = slice(bounds[k], bounds[k + 1])
        # Keep last frame's pairs while they still overlap.
        persist = held[s] & (prev_hyp[pg[s]] == ph[s])
        prev_hyp[mg] = -1
        mg, mh = pg[s][persist], ph[s][persist]
        taken_g[mg], taken_h[mh] = True, True
        new = fresh[s] & ~taken_g[pg[s]] & ~taken_h[ph[s]]
        if new.any():
            free_g = np.flatnonzero(~taken_g[g.index[g_off[k]:g_off[k + 1]]])
            free_h = np.flatnonzero(~taken_h[h.index[h_off[k]:h_off[k + 1]]])
            matrix = np.full((len(free_g), len(free_h)), FORBIDDEN)
            matrix[np.searchsorted(free_g, rows[s][new] - g_off[k]),
                   np.searchsorted(free_h, cols[s][new] - h_off[k])] = cost[s][new]
            m = np.array(hungarian(matrix).matches, dtype=int).reshape(-1, 2)
            mg = np.concatenate([mg, g.index[g_off[k] + free_g[m[:, 0]]]])
            mh = np.concatenate([mh, h.index[h_off[k] + free_h[m[:, 1]]]])
        taken_g[mg], taken_h[mh] = False, False

        before = last_hyp[mg]
        result.ids += int(np.count_nonzero((before >= 0) & (before != mh)))
        last_hyp[mg], prev_hyp[mg] = mh, mh
        result.fn += g_off[k + 1] - g_off[k] - len(mg)
        result.fp += h_off[k + 1] - h_off[k] - len(mg)
        result.correspondences[frame] = sorted(zip(g.ids[mg].tolist(), h.ids[mh].tolist()))
    return result


def mota(fp: int, fn: int, ids: int, gt_total: int) -> float:
    """Eq-style composite score as a percentage; negative values are valid."""
    if gt_total <= 0:
        raise ValueError("gt_total must be positive")
    return (1.0 - (fp + fn + ids) / gt_total) * 100.0


@dataclass
class Idf1Result:
    idf1: float
    idtp: int
    gt_total: int
    hyp_total: int


def idf1(gt: FrameBoxes, hyp: FrameBoxes, iou_threshold: float = 0.5) -> Idf1Result:
    """Identity-F1 via the optimal global trajectory-to-trajectory assignment.

    The per-pair credit is the number of frames where both trajectories are
    present and overlap at or above the threshold; the assignment maximizes
    total credit (equivalently minimizes identity FP+FN), and
    IDF1 = 2*IDTP / (gt boxes + hypothesis boxes).
    """
    p = _Pairs.of(gt, hyp, iou_threshold)
    gt_total, hyp_total = len(p.gt.frame), len(p.hyp.frame)
    if not gt_total or not hyp_total:
        return Idf1Result(0.0, 0, gt_total, hyp_total)
    credited = p.iou >= iou_threshold
    ng, nh = len(p.gt.ids), len(p.hyp.ids)
    overlap = np.bincount(p.gt.index[p.rows[credited]] * nh + p.hyp.index[p.cols[credited]],
                          minlength=ng * nh).reshape(ng, nh)
    rows, cols = linear_sum_assignment(overlap, maximize=True)
    idtp = int(overlap[rows, cols].sum())
    return Idf1Result(2.0 * idtp / (gt_total + hyp_total), idtp, gt_total, hyp_total)


def mt_ml(gt: FrameBoxes, correspondences: dict[int, list[tuple[int, int]]],
          mt_threshold: float = 0.8, ml_threshold: float = 0.2) -> tuple[int, int]:
    """Mostly-tracked / mostly-lost counts. Coverage counts frames where the
    trajectory is matched to any hypothesis, identity-agnostic; both
    boundaries are inclusive."""
    ids, index = np.unique(np.fromiter(map(_OBJ_ID, chain.from_iterable(gt.values())), np.int64),
                           return_inverse=True)
    # Whether each row's id is matched in its frame.
    covered = np.fromiter(chain.from_iterable(
        map({g_id for g_id, _ in correspondences.get(f, ())}.__contains__, map(_OBJ_ID, rows))
        for f, rows in gt.items()), bool, len(index))
    n = len(ids)
    coverage = np.bincount(index[covered], minlength=n) / np.bincount(index, minlength=n)
    mt = coverage >= mt_threshold
    return int(mt.sum()), int((~mt & (coverage <= ml_threshold)).sum())


@dataclass
class MetricsReport:
    mota: float
    idf1: float
    fp: int
    fn: int
    ids: int
    idtp: int
    gt_total: int
    mt: int
    ml: int
    per_sequence: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {
            "mota": self.mota,
            "idf1": self.idf1,
            "idf1_pct": self.idf1 * 100.0,
            "fp": self.fp,
            "fn": self.fn,
            "ids": self.ids,
            "idtp": self.idtp,
            "gt_total": self.gt_total,
            "mt": self.mt,
            "ml": self.ml,
            "per_sequence": self.per_sequence,
        }
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_table(self) -> str:
        rows = [("MOTA", f"{self.mota:.2f}"),
                ("IDF1", f"{self.idf1:.4f} ({self.idf1 * 100.0:.2f}%)"),
                ("FP", str(self.fp)), ("FN", str(self.fn)), ("IDs", str(self.ids)),
                ("IDTP", str(self.idtp)), ("GT", str(self.gt_total)),
                ("MT", str(self.mt)), ("ML", str(self.ml))]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def _class_groups(gt: FrameBoxes, hyp: FrameBoxes) -> list[tuple[FrameBoxes, FrameBoxes]]:
    hyp_classes = {r.class_id for rows in hyp.values() for r in rows}
    class_aware = bool(hyp_classes) and all(c >= 0 for c in hyp_classes)
    if not class_aware:
        return [(gt, hyp)]
    classes = sorted({r.class_id for rows in gt.values() for r in rows} | hyp_classes)

    def filt(frames: FrameBoxes, cls: int) -> FrameBoxes:
        return {f: [r for r in rows if r.class_id == cls] for f, rows in frames.items()}

    return [(filt(gt, c), filt(hyp, c)) for c in classes]


def evaluate(gt: FrameBoxes, hyp: FrameBoxes, iou_threshold: float = 0.5,
             sequence_name: str = "sequence") -> MetricsReport:
    """Full report for one sequence.

    Classes are evaluated separately and micro-averaged (summed counts) when
    the hypothesis carries class ids; hypotheses with unknown class (-1) pool
    everything, the usual situation for MOT-format results.
    """
    gt, hyp = remove_ignored(gt, hyp, iou_threshold)
    fp = fn = ids = idtp = gt_total = hyp_total = mt = ml = 0
    for g_part, h_part in _class_groups(gt, hyp):
        clear = clear_match(g_part, h_part, iou_threshold)
        ident = idf1(g_part, h_part, iou_threshold)
        part_mt, part_ml = mt_ml(g_part, clear.correspondences)
        fp += clear.fp
        fn += clear.fn
        ids += clear.ids
        idtp += ident.idtp
        gt_total += clear.gt_total
        hyp_total += clear.hyp_total
        mt += part_mt
        ml += part_ml
    if gt_total <= 0:
        raise ValueError("no ground-truth instances to evaluate against")
    report = MetricsReport(
        mota=mota(fp, fn, ids, gt_total),
        idf1=2.0 * idtp / (gt_total + hyp_total) if gt_total + hyp_total else 0.0,
        fp=fp, fn=fn, ids=ids, idtp=idtp, gt_total=gt_total, mt=mt, ml=ml)
    fields = report.to_dict()
    fields.pop("per_sequence")
    report.per_sequence = {sequence_name: fields}
    return report
