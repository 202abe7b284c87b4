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
5. unmatched tracks turn Lost and are removed after the grace period;
6. every unmatched high detection starts a new track;
7. with low initiation on, an unmatched low detection starts a track when
   its appearance similarity against same-class high detections of this
   frame clears the initiation threshold (the gate is vacuous when the frame
   has no same-class high detection);
8. matched Lost tracks return to Active with their miss count reset.

Reported outputs carry the matched detection's box and score, so a perfect
detector reproduces ground truth exactly.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field

import numpy as np

from . import appearance, association, kalman, motion
from .config import TrackerConfig
from .types import BoundingBox, Detection, to_cxcyah

log = logging.getLogger(__name__)


class TrackStatus(enum.Enum):
    ACTIVE = "active"
    LOST = "lost"
    REMOVED = "removed"


class Track:
    """An identity-preserving trajectory owned by a single tracker. Its
    Kalman state is a row of the tracker's stacked state."""

    def __init__(self, track_id: int, detection: Detection, cues: appearance.Cues):
        self.track_id = track_id
        self.class_id = detection.class_id
        self.status = TrackStatus.ACTIVE
        # The box of the tracker's predicted state while a step associates;
        # None between steps.
        self.predicted_box: BoundingBox | None = None
        self.miss_count = 0
        self.appearance = appearance.AppearanceMemory()
        self.appearance.update(cues)

    def mark_matched(self, cues: appearance.Cues) -> None:
        self.status = TrackStatus.ACTIVE
        self.miss_count = 0
        self.appearance.update(cues)

    def mark_missed(self, grace_frames: int) -> bool:
        """Returns True when the track was removed."""
        self.miss_count += 1
        if self.miss_count >= grace_frames:
            self.status = TrackStatus.REMOVED
            return True
        self.status = TrackStatus.LOST
        return False


def predicted_boxes(mean: np.ndarray) -> list[BoundingBox]:
    """The box of each (N, 8) state mean; a state with non-positive aspect
    ratio or height gives a zero-size box at its center."""
    cx, cy, a, h = mean[:, :4].T
    valid = (h > 0) & (a > 0)
    width = np.where(valid, a * h, 0.0)
    height = np.where(valid, h, 0.0)
    rows = np.stack([cx - width / 2.0, cy - height / 2.0, width, height], axis=1)
    return [BoundingBox(*row) for row in rows.tolist()]


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
    predicted_boxes: dict[int, BoundingBox] = field(default_factory=dict)


@dataclass
class FrameResult:
    frame: int
    outputs: list[tuple[int, int, BoundingBox, float]]
    diagnostics: FrameDiagnostics


class Tracker:
    """Stateful per-sequence tracker; step() must be called in frame order.

    ``embeddings`` maps (frame, det_index) to precomputed unit vectors; when
    absent and ``handcrafted_fallback`` is on, a color-layout descriptor is
    computed from the frame pixels instead. With no embeddings at all the
    first association degrades to plain IoU.
    """

    def __init__(self, config: TrackerConfig | None = None,
                 embeddings: dict[tuple[int, int], np.ndarray] | None = None,
                 handcrafted_fallback: bool = True):
        self.config = config or TrackerConfig()
        self.embeddings = embeddings
        self.handcrafted_fallback = handcrafted_fallback
        self.tracks: list[Track] = []
        # Row i is the Kalman state of self.tracks[i].
        self.kalman_state = kalman.initiate(np.empty((0, 4)))
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

        use_embeddings = self.embeddings is not None or self.handcrafted_fallback
        # Kept detections split at tau, and their cues in the same order.
        d_high: list[Detection] = []
        d_low: list[Detection] = []
        c_high, c_low = [], []
        for j, det in enumerate(detections):
            if det.box.is_degenerate:
                diag.n_degenerate += 1
                continue
            embedding = None if self.embeddings is None else self.embeddings.get((frame_index, j))
            cues = appearance.detection_cues(image, det.box, embedding,
                                             fallback=self.handcrafted_fallback)
            high = det.score > cfg.tau
            (d_high if high else d_low).append(det)
            (c_high if high else c_low).append(cues)
        if diag.n_degenerate:
            log.warning("frame %d: dropped %d detection(s) with zero width or height",
                        frame_index, diag.n_degenerate)
        diag.n_high, diag.n_low = len(d_high), len(d_low)

        # Predict, then compensate camera motion, over the stacked state of
        # every track. Removed tracks have left self.tracks, so every track
        # in it is live.
        live = self.tracks
        state = kalman.predict(self.kalman_state)
        gray = motion.motion_gray(image) if cfg.mc_enabled else None
        if gray is not None and self._prev_gray is not None and live:
            estimate = motion.estimate_camera_motion(self._prev_gray, gray, seed=frame_index)
            diag.motion = estimate
            # A collapsed fit cannot be applied to track states; treat the
            # frame as having no usable camera estimate.
            degenerate = abs(float(np.linalg.det(estimate.transform.linear))) < 1e-6
            if not degenerate and not estimate.transform.is_identity():
                before = state.mean[:, 2].tolist()
                state = motion.apply_to_track(estimate.transform, state)
                diag.aspect_pairs = list(zip(before, state.mean[:, 2].tolist()))
        for track, box in zip(live, predicted_boxes(state.mean)):
            track.predicted_box = box
            diag.predicted_boxes[track.track_id] = box

        # First association: all live tracks vs high-confidence detections.
        cost = association.build_stage_matrix(live, d_high, "first", c_high,
                                              use_appearance=use_embeddings)
        diag.used_embeddings = bool(
            use_embeddings and any(t.appearance.embedding is not None for t in live)
            and any(c.embedding is not None for c in c_high))
        first = association.hungarian(cost, association.MIN_FUSED_SIM_FIRST)
        outputs: list[tuple[int, int, BoundingBox, float]] = []
        # Rows of `state` matched in either stage, and their measurements.
        matched_rows: list[int] = []
        measurements: list[tuple[float, float, float, float]] = []
        for ti, dj in first.matches:
            track, det = live[ti], d_high[dj]
            track.mark_matched(c_high[dj])
            matched_rows.append(ti)
            measurements.append(to_cxcyah(det.box))
            outputs.append((track.track_id, track.class_id, det.box, det.score))
        diag.n_matched_first = len(first.matches)

        # Second association: leftovers vs low-confidence detections. It
        # reads no Kalman state, so one update after it covers both stages.
        remaining = first.unmatched_rows
        cost2 = association.build_stage_matrix(
            [live[i] for i in remaining], d_low, "second", c_low,
            use_appearance=cfg.traditional_second_assoc)
        second = association.hungarian(cost2, association.MIN_FUSED_SIM_SECOND)
        for ti, dj in second.matches:
            track, det = live[remaining[ti]], d_low[dj]
            track.mark_matched(c_low[dj])
            matched_rows.append(remaining[ti])
            measurements.append(to_cxcyah(det.box))
            outputs.append((track.track_id, track.class_id, det.box, det.score))
        diag.n_matched_second = len(second.matches)
        # Nothing reads a predicted box after association; keep none.
        for track in live:
            track.predicted_box = None
        state[matched_rows] = kalman.update(state[matched_rows],
                                            np.reshape(measurements, (-1, 4)))

        # Lifecycle for unmatched tracks; removed ones leave the tracker,
        # with their rows of the state.
        for i in second.unmatched_rows:
            if live[remaining[i]].mark_missed(cfg.grace_frames):
                diag.n_removed += 1
        kept = [t.status != TrackStatus.REMOVED for t in live]
        tracks = [t for t, keep in zip(live, kept) if keep]
        if diag.n_removed:
            state = state[np.array(kept)]

        # New tracks from unmatched high detections, then from unmatched low
        # detections gated on appearance similarity against this frame's
        # same-class high detections.
        born = [(d_high[dj], c_high[dj]) for dj in first.unmatched_cols]
        diag.n_new_high = len(born)
        if cfg.low_init_enabled:
            candidates = second.unmatched_cols
            allowed = association.low_init_allowed(
                [d_low[dj] for dj in candidates], [c_low[dj] for dj in candidates],
                d_high, c_high, cfg.rho)
            born += [(d_low[dj], c_low[dj]) for dj, ok in zip(candidates, allowed) if ok]
            diag.n_new_low = len(born) - diag.n_new_high
        if born:
            new = kalman.initiate([to_cxcyah(det.box) for det, _ in born])
            state = kalman.KalmanState(np.concatenate([state.mean, new.mean]),
                                       np.concatenate([state.covariance, new.covariance]))
        for det, cues in born:
            track = Track(self._next_id, det, cues)
            self._next_id += 1
            tracks.append(track)
            outputs.append((track.track_id, track.class_id, det.box, det.score))

        outputs.sort(key=lambda o: o[0])
        # The track list and its stacked state change together, so a frame
        # that raises leaves them aligned.
        self.tracks, self.kalman_state = tracks, state
        self._last_frame_index = frame_index
        self._prev_gray = gray
        return FrameResult(frame_index, outputs, diag)


def run_sequence(frames, detections_by_frame: dict[int, list[Detection]],
                 config: TrackerConfig | None = None,
                 embeddings: dict[tuple[int, int], np.ndarray] | None = None,
                 handcrafted_fallback: bool = True) -> list[FrameResult]:
    """Track a whole sequence.

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
