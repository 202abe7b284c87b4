"""Per-frame tracking: confidence split, camera motion compensation,
two-stage association, lifecycle management, and both initiation paths.

One frame step runs, in order:

1. drop detections with zero width or height, make each remaining one's
   appearance cues from one copy of its crop, pick its embedding, and split
   them at the confidence threshold (strictly greater goes high);
2. Kalman-predict every live track, then apply the camera similarity
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

A call whose frame index skips frames first treats each skipped frame as a
frame without detections: every track misses it, a track whose misses reach
the grace period is removed, and the others are predicted across it.

A track is one row of the tracker's columns and nothing else. A frame
builds new columns and assigns them all at its end, so a frame that raises
leaves the tracker as it was.

Reported outputs carry the matched detection's box and score, so a perfect
detector reproduces ground truth exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

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


@dataclass
class FrameDiagnostics:
    """What one frame step decided, built once at the end of the step.

    The counts: detections split high (score above tau) and low, detections
    dropped for zero width or height, tracks matched in the first and the
    second association, tracks born from high and from low detections, and
    tracks removed (also those that a frame gap aged out). ``used_embeddings``
    says whether the first association read an embedding cosine, and
    ``motion`` is the frame pair's camera-motion estimate, None when motion
    compensation is off, on the first frame, or with no live track.

    The arrays describe the N tracks live as the frame starts, after a frame
    gap has removed the tracks it aged out: ``track_ids`` (N,) their ids,
    ``predicted_boxes`` (N, 4) their predicted left, top, width, height
    after motion compensation and before any update (row i belongs to
    ``track_ids[i]``), and ``aspect_pairs`` (N, 2) their aspect ratios
    before and after motion compensation, (0, 2) when no transform was
    applied.
    """

    n_high: int
    n_low: int
    n_matched_first: int
    n_matched_second: int
    n_new_high: int
    n_new_low: int
    n_removed: int
    n_degenerate: int
    used_embeddings: bool
    motion: motion.MotionEstimate | None
    track_ids: np.ndarray
    predicted_boxes: np.ndarray
    aspect_pairs: np.ndarray


@dataclass
class FrameResult:
    frame: int
    outputs: list[tuple[int, int, BoundingBox, float]]
    diagnostics: FrameDiagnostics


def _detection_columns(dets: list[Detection], embeddings: list[np.ndarray | None],
                       cues: list[appearance.Cues],
                       width: int) -> tuple[np.ndarray, association.Columns]:
    """The (n, 4) left, top, width, height boxes of ``dets`` and their
    association columns, with embeddings ``width`` wide: a zero row where
    a detection has none."""
    boxes = box_array([d.box for d in dets])
    rows = [i for i, e in enumerate(embeddings) if e is not None]
    table = np.zeros((len(dets), width))
    if rows:
        table[rows] = [embeddings[i] for i in rows]
    class_ids = np.array([d.class_id for d in dets], dtype=int)
    return boxes, association.Columns(corners(boxes), class_ids, table, cues)


class Tracker:
    """Stateful per-sequence tracker; step() must be called in frame order.

    ``embeddings`` maps (frame, det_index) to precomputed unit vectors of
    one width; a detection without a row, or with a zero vector, has no
    embedding. Without a table and with ``handcrafted_fallback`` on, a
    color-layout descriptor is computed from the frame pixels instead. With
    no embeddings at all the first association degrades to plain IoU.

    Row i of every column is one live track: its id (``track_ids``), its
    consecutive misses (``miss_counts``; 0 while active, more while lost),
    its stacked Kalman state (``kalman_state``), its class (``class_ids``),
    its running embedding (``track_embeddings``, a zero row while it has
    none) and the ``appearance.Cues`` of the last detection it matched that
    had a crop (``memories``).
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
        self.memories: list[appearance.Cues] = []
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
        cfg = self.config
        # The live tracks' columns as this frame starts. Frames skipped since
        # the last call had no detections: every track missed each of them,
        # one whose misses reach the grace period is gone, and the others
        # are predicted across them, as stepping those frames would.
        track_ids, miss_counts, kalman_state = self.track_ids, self.miss_counts, self.kalman_state
        track_class_ids, track_embeddings, track_memories = (
            self.class_ids, self.track_embeddings, self.memories)
        skipped = 0 if self._last_frame_index is None else frame_index - self._last_frame_index - 1
        n_removed = 0
        if skipped:
            miss_counts = miss_counts + skipped
            alive = miss_counts < cfg.grace_frames
            n_removed = len(alive) - int(alive.sum())
            track_ids, miss_counts = track_ids[alive], miss_counts[alive]
            kalman_state, track_class_ids = kalman_state[alive], track_class_ids[alive]
            track_embeddings = track_embeddings[alive]
            track_memories = [m for m, keep in zip(track_memories, alive.tolist()) if keep]
            # Rows survive only a gap shorter than the grace period.
            for _ in range(skipped if len(track_ids) else 0):
                kalman_state = kalman.predict(kalman_state)

        # Rows of the detection columns: the kept high detections, then the
        # kept low ones, each with its file index.
        kept = [(j, det) for j, det in enumerate(detections) if not det.box.is_degenerate]
        n_degenerate = len(detections) - len(kept)
        if n_degenerate:
            log.warning("frame %d: dropped %d detection(s) with zero width or height",
                        frame_index, n_degenerate)
        high_rows = [(j, det) for j, det in kept if det.score > cfg.tau]
        kept = high_rows + [(j, det) for j, det in kept if not det.score > cfg.tau]
        n_high = len(high_rows)
        dets = [det for _, det in kept]
        det_cues = [appearance.detection_cues(image, det.box) for det in dets]
        # Each detection's embedding: its row of the table, else the
        # hand-crafted descriptor when the fallback is on, else none.
        if self.embeddings is not None:
            det_embeddings = [self.embeddings.get((frame_index, j)) for j, _ in kept]
        elif self._fallback:
            det_embeddings = [appearance.fallback_embedding(c.crop) for c in det_cues]
        else:
            det_embeddings = [None] * len(dets)
        det_boxes, det_cols = _detection_columns(dets, det_embeddings, det_cues,
                                                 track_embeddings.shape[1])
        high, low = det_cols.take(slice(0, n_high)), det_cols.take(slice(n_high, None))

        # Predict, then compensate camera motion, over the stacked state of
        # every live track.
        state = kalman.predict(kalman_state)
        gray = motion.motion_gray(image) if cfg.mc_enabled else None
        estimate = None
        aspect_pairs = np.empty((0, 2))
        if gray is not None and self._prev_gray is not None and len(track_ids):
            estimate = motion.estimate_camera_motion(self._prev_gray, gray, seed=frame_index)
            if not estimate.transform.is_identity():
                compensated = motion.apply_to_track(estimate.transform, state)
                aspect_pairs = np.column_stack([state.mean[:, 2], compensated.mean[:, 2]])
                state = compensated
        boxes = predicted_boxes(state.mean)
        if not np.isfinite(boxes).all():
            raise NumericalError("non-finite predicted track state")
        track_cols = association.Columns(corners(boxes), track_class_ids, track_embeddings,
                                         track_memories)

        # First association: all live tracks vs high-confidence detections.
        # Without any embedding every cosine is 1, so this is plain IoU.
        cost = association.build_stage_matrix(track_cols, high, "first")
        first = association.hungarian(cost, association.MIN_FUSED_SIM_FIRST)

        # Second association: leftovers vs low-confidence detections. It
        # reads no Kalman state or embedding, so one update after it covers
        # both stages.
        remaining = first.unmatched_rows
        cost2 = association.build_stage_matrix(
            track_cols.take(remaining), low, "second",
            use_appearance=cfg.traditional_second_assoc)
        second = association.hungarian(cost2, association.MIN_FUSED_SIM_SECOND)

        # Rows matched in either stage, and their detections' rows.
        rows = np.array([ti for ti, _ in first.matches]
                        + [remaining[ti] for ti, _ in second.matches], dtype=int)
        matched = np.array([dj for _, dj in first.matches]
                           + [n_high + dj for _, dj in second.matches], dtype=int)
        state[rows] = kalman.update(state[rows], cxcyah(det_boxes[matched]))
        embeddings = track_embeddings
        mix = det_cols.embeddings.any(axis=1)[matched]
        if mix.any():
            embeddings = appearance.update_embeddings(
                embeddings, rows[mix], det_cols.embeddings[matched[mix]])
        # A matched track keeps the detection's cues, with any histogram the
        # second stage computed; a detection without a crop leaves the
        # track's memory as it was.
        memories = list(track_memories)
        for row, j in zip(rows.tolist(), matched.tolist()):
            if det_cues[j].crop is not None:
                memories[row] = det_cues[j]

        # Lifecycle: matched tracks have no misses, the others one more, and
        # a track whose misses reach the grace period leaves with its row of
        # every column.
        misses = miss_counts + 1
        misses[rows] = 0
        kept = misses < cfg.grace_frames
        n_removed += len(kept) - int(kept.sum())
        ids, misses, class_ids = track_ids[kept], misses[kept], track_class_ids[kept]
        state, embeddings = state[kept], embeddings[kept]
        memories = [m for m, keep in zip(memories, kept.tolist()) if keep]

        # New tracks from unmatched high detections, then from unmatched low
        # detections gated on appearance similarity against this frame's
        # same-class high detections.
        born = first.unmatched_cols
        n_new_high = len(born)
        if cfg.low_init_enabled:
            candidates = second.unmatched_cols
            allowed = association.low_init_allowed(low.take(candidates), high, cfg.rho)
            born = born + [n_high + dj for dj, ok in zip(candidates, allowed) if ok]
        new_ids = np.arange(self._next_id, self._next_id + len(born))
        new = kalman.initiate(cxcyah(det_boxes[born]))
        state = kalman.KalmanState(np.concatenate([state.mean, new.mean]),
                                   np.concatenate([state.covariance, new.covariance]))
        ids = np.concatenate([ids, new_ids])
        misses = np.concatenate([misses, np.zeros(len(born), dtype=int)])
        class_ids = np.concatenate([class_ids, det_cols.class_ids[born]])
        embeddings = np.concatenate([embeddings, det_cols.embeddings[born]])
        memories += [det_cues[j] for j in born]

        reported = track_ids[rows].tolist() + new_ids.tolist()
        outputs = [(tid, dets[j].class_id, dets[j].box, dets[j].score)
                   for tid, j in zip(reported, matched.tolist() + born)]
        outputs.sort(key=lambda o: o[0])
        # Commit: every column changes here and nowhere else.
        self.track_ids, self.miss_counts, self.kalman_state = ids, misses, state
        self.class_ids, self.track_embeddings = class_ids, embeddings
        self.memories = memories
        self._next_id += len(born)
        self._last_frame_index = frame_index
        self._prev_gray = gray
        return FrameResult(frame_index, outputs, FrameDiagnostics(
            n_high=n_high, n_low=len(dets) - n_high,
            n_matched_first=len(first.matches), n_matched_second=len(second.matches),
            n_new_high=n_new_high, n_new_low=len(born) - n_new_high,
            n_removed=n_removed, n_degenerate=n_degenerate,
            used_embeddings=bool(track_embeddings.any() and high.embeddings.any()),
            motion=estimate, track_ids=track_ids, predicted_boxes=boxes,
            aspect_pairs=aspect_pairs))


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
