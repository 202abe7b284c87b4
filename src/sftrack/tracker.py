"""Per-frame tracking: confidence split, camera motion compensation,
two-stage association, lifecycle management, and both initiation paths.

One frame step runs, in order:

1. drop detections with zero width or height, take each remaining one's
   appearance cues from a single crop, and split them at the confidence
   threshold (strictly greater goes high);
2. Kalman-predict every live track, then apply the scale-constrained camera
   transform when motion compensation is on, each as one call over the
   stacked state of all live tracks;
3. first association of all live tracks against high detections
   (IoU x embedding cosine, Hungarian);
4. second association of the remainder against low detections (IoU x color
   histogram x scaled MSE, or plain IoU when traditional matching is off),
   then one Kalman update of every track matched in either stage;
5. every unmatched track's miss count grows by one, and a track whose count
   reaches the grace period is removed;
6. every unmatched high detection starts a new track;
7. with low initiation on, an unmatched low detection starts a track when
   its appearance similarity against same-class high detections of this
   frame clears the initiation threshold (the gate is vacuous when the frame
   has no same-class high detection);
8. every matched track's miss count returns to zero, so a lost track (one
   with misses) that is matched again is active.

A track is one row of the tracker's columns and nothing else. A frame
builds new columns and assigns them all at its end, so a frame that raises
leaves the tracker as it was.

Reported outputs carry the matched detection's box and score, so a perfect
detector reproduces ground truth exactly.
"""

from __future__ import annotations

import logging
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import appearance, association, kalman, motion
from .config import TrackerConfig
from .errors import NumericalError
from .types import BoundingBox, Detection, box_array, corners, cxcyah

log = logging.getLogger(__name__)


def predicted_boxes(mean: np.ndarray) -> np.ndarray:
    """(N, 4) left, top, width, height of the box of each (N, 8) state
    mean; a state with non-positive aspect ratio or height gives a zero-size
    box at its center."""
    cx, cy, a, h = mean[:, :4].T
    valid = (h > 0) & (a > 0)
    width = np.where(valid, a * h, 0.0)
    height = np.where(valid, h, 0.0)
    return np.stack([cx - width / 2.0, cy - height / 2.0, width, height], axis=1)


class PredictedBoxes(Mapping):
    """Read-only mapping from track id to the track's predicted box in one
    frame. It holds the ids and their (N, 4) left, top, width, height rows,
    and builds the ``BoundingBox`` objects the first time a box is read."""

    def __init__(self, ids: Sequence[int] = (), boxes: np.ndarray | None = None):
        self._ids = list(ids)
        self._boxes = np.empty((0, 4)) if boxes is None else boxes
        self._built: dict[int, BoundingBox] | None = None

    def _dict(self) -> dict[int, BoundingBox]:
        if self._built is None:
            self._built = {i: BoundingBox(*row)
                           for i, row in zip(self._ids, self._boxes.tolist())}
        return self._built

    def __getitem__(self, track_id: int) -> BoundingBox:
        return self._dict()[track_id]

    def __iter__(self):
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)


@dataclass
class FrameDiagnostics:
    n_high: int = 0
    n_low: int = 0
    n_matched_first: int = 0
    n_matched_second: int = 0
    n_new_high: int = 0
    n_new_low: int = 0
    n_removed: int = 0
    # Detections dropped for zero width or height.
    n_degenerate: int = 0
    motion: motion.MotionEstimate | None = None
    used_embeddings: bool = False
    # (before, after) aspect ratios captured around motion compensation.
    aspect_pairs: list[tuple[float, float]] = field(default_factory=list)
    predicted_boxes: PredictedBoxes = field(default_factory=PredictedBoxes)


@dataclass
class FrameResult:
    frame: int
    outputs: list[tuple[int, int, BoundingBox, float]]
    diagnostics: FrameDiagnostics


def _detection_columns(dets: list[Detection], cues: list[appearance.Cues],
                       width: int) -> tuple[np.ndarray, association.Columns]:
    """The (n, 4) left, top, width, height boxes of ``dets`` and their
    association columns, with embeddings ``width`` wide."""
    boxes = box_array([d.box for d in dets])
    has = np.array([c.embedding is not None for c in cues], dtype=bool)
    embeddings = np.zeros((len(dets), width))
    if has.any():
        embeddings[has] = [c.embedding for c in cues if c.embedding is not None]
    class_ids = np.array([d.class_id for d in dets], dtype=int)
    return boxes, association.Columns(corners(boxes), class_ids, embeddings, has, cues)


class Tracker:
    """Stateful per-sequence tracker; step() must be called in frame order.

    ``embeddings`` maps (frame, det_index) to precomputed unit vectors of
    one width; a detection without a row has no embedding. Without a table
    and with ``handcrafted_fallback`` on, a color-layout descriptor is
    computed from the frame pixels instead. With no embeddings at all the
    first association degrades to plain IoU.

    Row i of every column is one live track: its id (``track_ids``), its
    consecutive misses (``miss_counts``; 0 while active, more while lost),
    its stacked Kalman state (``kalman_state``), its class (``class_ids``),
    its running embedding (``track_embeddings``, read only where
    ``has_embedding`` is set) and its crop memory (``memories``).
    """

    def __init__(self, config: TrackerConfig | None = None,
                 embeddings: dict[tuple[int, int], np.ndarray] | None = None,
                 handcrafted_fallback: bool = True):
        self.config = config or TrackerConfig()
        self.embeddings = embeddings
        self._fallback = handcrafted_fallback and embeddings is None
        if embeddings is not None:
            width = len(next(iter(embeddings.values()), ()))
        else:
            width = appearance.FALLBACK_DIM if self._fallback else 0
        self.track_ids = np.empty(0, dtype=int)
        self.miss_counts = np.empty(0, dtype=int)
        self.kalman_state = kalman.initiate(np.empty((0, 4)))
        self.class_ids = np.empty(0, dtype=int)
        self.track_embeddings = np.empty((0, width))
        self.has_embedding = np.empty(0, dtype=bool)
        self.memories: list[appearance.AppearanceMemory] = []
        self._next_id = 1
        self._last_frame_index: int | None = None
        # The previous frame's motion_gray image; only motion compensation
        # reads it, and nothing else of a frame is kept.
        self._prev_gray: np.ndarray | None = None

    # -- main step ----------------------------------------------------------

    def step(self, frame_index: int, image: np.ndarray,
             detections: list[Detection]) -> FrameResult:
        if self._last_frame_index is not None and frame_index <= self._last_frame_index:
            raise ValueError(
                f"frame index {frame_index} is not increasing (last {self._last_frame_index})")
        for det in detections:
            if det.frame != frame_index:
                raise ValueError(f"detection for frame {det.frame} fed to frame {frame_index}")
        diag = FrameDiagnostics()
        cfg = self.config

        # Kept detections split at tau, and their cues in the same order.
        d_high: list[Detection] = []
        d_low: list[Detection] = []
        c_high, c_low = [], []
        for j, det in enumerate(detections):
            if det.box.is_degenerate:
                diag.n_degenerate += 1
                continue
            embedding = None if self.embeddings is None else self.embeddings.get((frame_index, j))
            cues = appearance.detection_cues(image, det.box, embedding, fallback=self._fallback)
            is_high = det.score > cfg.tau
            (d_high if is_high else d_low).append(det)
            (c_high if is_high else c_low).append(cues)
        if diag.n_degenerate:
            log.warning("frame %d: dropped %d detection(s) with zero width or height",
                        frame_index, diag.n_degenerate)
        diag.n_high, diag.n_low = len(d_high), len(d_low)
        # Rows of the detection columns: the high detections, then the low.
        dets, det_cues = d_high + d_low, c_high + c_low
        det_boxes, det_cols = _detection_columns(dets, det_cues, self.track_embeddings.shape[1])
        high, low = det_cols.take(slice(0, diag.n_high)), det_cols.take(slice(diag.n_high, None))

        # Predict, then compensate camera motion, over the stacked state of
        # every live track.
        state = kalman.predict(self.kalman_state)
        gray = motion.motion_gray(image) if cfg.mc_enabled else None
        if gray is not None and self._prev_gray is not None and len(self.track_ids):
            estimate = motion.estimate_camera_motion(self._prev_gray, gray, seed=frame_index)
            diag.motion = estimate
            # A collapsed fit cannot be applied to track states; treat the
            # frame as having no usable camera estimate.
            degenerate = abs(float(np.linalg.det(estimate.transform.linear))) < 1e-6
            if not degenerate and not estimate.transform.is_identity():
                before = state.mean[:, 2].tolist()
                state = motion.apply_to_track(estimate.transform, state)
                diag.aspect_pairs = list(zip(before, state.mean[:, 2].tolist()))
        boxes = predicted_boxes(state.mean)
        if not np.isfinite(boxes).all():
            raise NumericalError("non-finite predicted track state")
        diag.predicted_boxes = PredictedBoxes(self.track_ids.tolist(), boxes)
        track_cols = association.Columns(corners(boxes), self.class_ids, self.track_embeddings,
                                         self.has_embedding, self.memories)

        # First association: all live tracks vs high-confidence detections.
        # Without any embedding every cosine is 1, so this is plain IoU.
        cost = association.build_stage_matrix(track_cols, high, "first")
        diag.used_embeddings = bool(self.has_embedding.any() and high.has_embedding.any())
        first = association.hungarian(cost, association.MIN_FUSED_SIM_FIRST)
        diag.n_matched_first = len(first.matches)

        # Second association: leftovers vs low-confidence detections. It
        # reads no Kalman state or embedding, so one update after it covers
        # both stages.
        remaining = first.unmatched_rows
        cost2 = association.build_stage_matrix(
            track_cols.take(remaining), low, "second",
            use_appearance=cfg.traditional_second_assoc)
        second = association.hungarian(cost2, association.MIN_FUSED_SIM_SECOND)
        diag.n_matched_second = len(second.matches)

        # Rows matched in either stage, and their detections' rows.
        rows = np.array([ti for ti, _ in first.matches]
                        + [remaining[ti] for ti, _ in second.matches], dtype=int)
        matched = np.array([dj for _, dj in first.matches]
                           + [diag.n_high + dj for _, dj in second.matches], dtype=int)
        state[rows] = kalman.update(state[rows], cxcyah(det_boxes[matched]))
        embeddings, has = self.track_embeddings, self.has_embedding
        mix = det_cols.has_embedding[matched]
        if mix.any():
            embeddings, has = appearance.update_embeddings(
                embeddings, has, rows[mix], det_cols.embeddings[matched[mix]])
        # A matched track remembers the detection's crop; a detection
        # without one leaves the track's memory as it was.
        memories = list(self.memories)
        for row, j in zip(rows.tolist(), matched.tolist()):
            if det_cues[j].crop is not None:
                memories[row] = appearance.AppearanceMemory.from_cues(det_cues[j])

        # Lifecycle: matched tracks have no misses, the others one more, and
        # a track whose misses reach the grace period leaves with its row of
        # every column.
        misses = self.miss_counts + 1
        misses[rows] = 0
        kept = misses < cfg.grace_frames
        diag.n_removed = len(kept) - int(kept.sum())
        ids, misses, class_ids = self.track_ids[kept], misses[kept], self.class_ids[kept]
        state, embeddings, has = state[kept], embeddings[kept], has[kept]
        memories = [m for m, keep in zip(memories, kept.tolist()) if keep]

        # New tracks from unmatched high detections, then from unmatched low
        # detections gated on appearance similarity against this frame's
        # same-class high detections.
        born = first.unmatched_cols
        diag.n_new_high = len(born)
        if cfg.low_init_enabled:
            candidates = second.unmatched_cols
            allowed = association.low_init_allowed(low.take(candidates), high, cfg.rho)
            born = born + [diag.n_high + dj for dj, ok in zip(candidates, allowed) if ok]
            diag.n_new_low = len(born) - diag.n_new_high
        new_ids = np.arange(self._next_id, self._next_id + len(born))
        new = kalman.initiate(cxcyah(det_boxes[born]))
        state = kalman.KalmanState(np.concatenate([state.mean, new.mean]),
                                   np.concatenate([state.covariance, new.covariance]))
        ids = np.concatenate([ids, new_ids])
        misses = np.concatenate([misses, np.zeros(len(born), dtype=int)])
        class_ids = np.concatenate([class_ids, det_cols.class_ids[born]])
        embeddings = np.concatenate([embeddings, det_cols.embeddings[born]])
        has = np.concatenate([has, det_cols.has_embedding[born]])
        memories += [appearance.AppearanceMemory.from_cues(det_cues[j]) for j in born]

        reported = self.track_ids[rows].tolist() + new_ids.tolist()
        outputs = [(tid, dets[j].class_id, dets[j].box, dets[j].score)
                   for tid, j in zip(reported, matched.tolist() + born)]
        outputs.sort(key=lambda o: o[0])
        # Commit: every column changes here and nowhere else.
        self.track_ids, self.miss_counts, self.kalman_state = ids, misses, state
        self.class_ids, self.track_embeddings, self.has_embedding = class_ids, embeddings, has
        self.memories = memories
        self._next_id += len(born)
        self._last_frame_index = frame_index
        self._prev_gray = gray
        return FrameResult(frame_index, outputs, diag)


def run_sequence(frames, detections_by_frame: dict[int, list[Detection]],
                 config: TrackerConfig | None = None,
                 embeddings: dict[tuple[int, int], np.ndarray] | None = None,
                 handcrafted_fallback: bool = True) -> list[FrameResult]:
    """Run one tracker over a whole sequence.

    ``frames`` yields (frame_index, image) in increasing order. Every frame
    that has detections must appear in ``frames``.
    """
    tracker = Tracker(config, embeddings, handcrafted_fallback)
    results = []
    seen = set()
    for frame_index, image in frames:
        seen.add(frame_index)
        dets = detections_by_frame.get(frame_index, [])
        results.append(tracker.step(frame_index, image, dets))
    missing = sorted(set(detections_by_frame) - seen)
    if missing:
        raise ValueError(f"detections reference frames with no image: {missing[:5]}")
    return results
