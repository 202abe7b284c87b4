"""CLEAR and identity metrics: MOTA, FP/FN/ID switches, IDF1, MT/ML.

Frame-level correspondences follow the CLEAR protocol: matches persist from
the previous frame while overlap holds, remaining pairs are matched by the
Hungarian algorithm on IoU (threshold 0.5 by default), and an ID switch is
counted when a ground-truth object is matched to a hypothesis id that
differs from the last one it was matched with. IDF1 uses the optimal global
one-to-one trajectory assignment.

MOTA = (1 - (FP + FN + IDs) / GT) x 100, where GT counts ground-truth
object instances over all frames; it can be negative.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .association import FORBIDDEN, hungarian
from .io_formats import AnnotatedBox
from .types import BoundingBox, box_array, corners, iou, iou_matrix

FrameBoxes = dict[int, list[AnnotatedBox]]


def _iou_matrix(rows: list[BoundingBox], cols: list[BoundingBox]) -> np.ndarray:
    return iou_matrix(corners(box_array(rows)), corners(box_array(cols)))


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
        ious = _iou_matrix([r.box for r in rows], regions)
        keep = ious.max(axis=1) < iou_threshold if rows else np.zeros(0)
        hyp_clean[frame] = [r for r, k in zip(rows, keep) if k]
    return gt_clean, hyp_clean


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
    result = ClearResult()
    last_hyp_for_gt: dict[int, int] = {}
    prev_matches: dict[int, int] = {}
    frames = sorted(set(gt) | set(hyp))
    for frame in frames:
        gt_rows = gt.get(frame, [])
        hyp_rows = hyp.get(frame, [])
        _check_unique_ids(gt_rows, frame, "ground-truth")
        _check_unique_ids(hyp_rows, frame, "hypothesis")
        result.gt_total += len(gt_rows)
        result.hyp_total += len(hyp_rows)
        gt_by_id = {r.obj_id: r for r in gt_rows}
        hyp_by_id = {r.obj_id: r for r in hyp_rows}

        matches: dict[int, int] = {}
        # Keep last frame's pairs while they still overlap.
        for g_id, h_id in prev_matches.items():
            g = gt_by_id.get(g_id)
            h = hyp_by_id.get(h_id)
            if g is not None and h is not None and iou(g.box, h.box) >= iou_threshold:
                matches[g_id] = h_id

        free_gt = [r for r in gt_rows if r.obj_id not in matches]
        used_hyp = set(matches.values())
        free_hyp = [r for r in hyp_rows if r.obj_id not in used_hyp]
        if free_gt and free_hyp:
            ious = _iou_matrix([r.box for r in free_gt], [r.box for r in free_hyp])
            cost = np.where(ious >= iou_threshold, 1.0 - ious, FORBIDDEN)
            assignment = hungarian(cost)
            for gi, hj in assignment.matches:
                matches[free_gt[gi].obj_id] = free_hyp[hj].obj_id

        for g_id, h_id in matches.items():
            prev = last_hyp_for_gt.get(g_id)
            if prev is not None and prev != h_id:
                result.ids += 1
            last_hyp_for_gt[g_id] = h_id

        result.fn += len(gt_rows) - len(matches)
        result.fp += len(hyp_rows) - len(matches)
        result.correspondences[frame] = sorted(matches.items())
        prev_matches = matches
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
    gt_len: dict[int, int] = {}
    hyp_len: dict[int, int] = {}
    overlap: dict[tuple[int, int], int] = {}
    frames = sorted(set(gt) | set(hyp))
    for frame in frames:
        gt_rows = gt.get(frame, [])
        hyp_rows = hyp.get(frame, [])
        for r in gt_rows:
            gt_len[r.obj_id] = gt_len.get(r.obj_id, 0) + 1
        for r in hyp_rows:
            hyp_len[r.obj_id] = hyp_len.get(r.obj_id, 0) + 1
        if gt_rows and hyp_rows:
            ious = _iou_matrix([r.box for r in gt_rows], [r.box for r in hyp_rows])
            for gi, hj in zip(*np.nonzero(ious >= iou_threshold)):
                key = (gt_rows[gi].obj_id, hyp_rows[hj].obj_id)
                overlap[key] = overlap.get(key, 0) + 1

    gt_ids = sorted(gt_len)
    hyp_ids = sorted(hyp_len)
    gt_total = sum(gt_len.values())
    hyp_total = sum(hyp_len.values())
    if not gt_ids or not hyp_ids:
        return Idf1Result(0.0, 0, gt_total, hyp_total)

    ng, nh = len(gt_ids), len(hyp_ids)
    size = ng + nh
    # Identity cost: unmatched gt frames + unmatched hyp frames per pairing;
    # each trajectory also gets a private "stay unmatched" slot.
    big = float(gt_total + hyp_total + 1)
    cost = np.full((size, size), 0.0)
    cost[:ng, :nh] = np.array([[gt_len[g] + hyp_len[h] - 2 * overlap.get((g, h), 0)
                                for h in hyp_ids] for g in gt_ids])
    cost[:ng, nh:] = big
    cost[ng:, :nh] = big
    for i, g in enumerate(gt_ids):
        cost[i, nh + i] = gt_len[g]
    for j, h in enumerate(hyp_ids):
        cost[ng + j, j] = hyp_len[h]
    rows, cols = linear_sum_assignment(cost)
    idtp = 0
    for r, c in zip(rows, cols):
        if r < ng and c < nh:
            idtp += overlap.get((gt_ids[r], hyp_ids[c]), 0)
    return Idf1Result(2.0 * idtp / (gt_total + hyp_total), idtp, gt_total, hyp_total)


def mt_ml(gt: FrameBoxes, correspondences: dict[int, list[tuple[int, int]]],
          mt_threshold: float = 0.8, ml_threshold: float = 0.2) -> tuple[int, int]:
    """Mostly-tracked / mostly-lost counts. Coverage counts frames where the
    trajectory is matched to any hypothesis, identity-agnostic; both
    boundaries are inclusive."""
    lifespan: dict[int, int] = {}
    covered: dict[int, int] = {}
    for frame, rows in gt.items():
        matched = {g for g, _ in correspondences.get(frame, [])}
        for r in rows:
            lifespan[r.obj_id] = lifespan.get(r.obj_id, 0) + 1
            if r.obj_id in matched:
                covered[r.obj_id] = covered.get(r.obj_id, 0) + 1
    mt = ml = 0
    for obj_id, span in lifespan.items():
        coverage = covered.get(obj_id, 0) / span
        if coverage >= mt_threshold:
            mt += 1
        elif coverage <= ml_threshold:
            ml += 1
    return mt, ml


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
