"""Per-frame tracking: confidence split, camera motion compensation,
two-stage association, lifecycle management, and both initiation paths.

One frame step runs, in order:

1. drop detections with zero width or height, take each remaining one's
   appearance cues from a single crop, and split them at the confidence
   threshold (strictly greater goes high);
2. Kalman-predict every live track, then apply the scale-constrained camera
   transform when motion compensation is on;
3. first association of all live tracks against high detections
   (IoU x embedding cosine, Hungarian);
4. second association of the remainder against low detections (IoU x color
   histogram x scaled MSE, or plain IoU when traditional matching is off);
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
from .types import BoundingBox, Detection, from_cxcyah, to_cxcyah

log = logging.getLogger(__name__)


class TrackStatus(enum.Enum):
    ACTIVE = "active"
    LOST = "lost"
    REMOVED = "removed"


class Track:
    """An identity-preserving trajectory owned by a single tracker."""

    def __init__(self, track_id: int, detection: Detection, cues: appearance.Cues):
        self.track_id = track_id
        self.class_id = detection.class_id
        self.status = TrackStatus.ACTIVE
        self.kalman_state = kalman.initiate(to_cxcyah(detection.box))
        self.miss_count = 0
        self.appearance = appearance.AppearanceMemory()
        self.appearance.update(cues)

    @property
    def predicted_box(self) -> BoundingBox:
        cx, cy, a, h = kalman.state_box_cxcyah(self.kalman_state)
        if h <= 0 or a <= 0:
            return BoundingBox(cx, cy, 0.0, 0.0)
        return from_cxcyah(cx, cy, a, h)

    def mark_matched(self, detection: Detection, cues: appearance.Cues) -> None:
        self.kalman_state = kalman.update(self.kalman_state, to_cxcyah(detection.box))
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
        self._next_id = 1
        self._last_frame_index: int | None = None
        # The previous frame's motion_gray image; only motion compensation
        # reads it, and nothing else of a frame is kept.
        self._prev_gray: np.ndarray | None = None

    # -- helpers ------------------------------------------------------------

    def _start_track(self, det: Detection, cues: appearance.Cues) -> Track:
        track = Track(self._next_id, det, cues)
        self._next_id += 1
        self.tracks.append(track)
        return track

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

        # Predict, then compensate camera motion. Removed tracks have left
        # self.tracks, so every track in it is live.
        live = self.tracks
        for track in live:
            track.kalman_state = kalman.predict(track.kalman_state)
        gray = motion.motion_gray(image) if cfg.mc_enabled else None
        if gray is not None and self._prev_gray is not None and live:
            estimate = motion.estimate_camera_motion(self._prev_gray, gray, seed=frame_index)
            diag.motion = estimate
            # A collapsed fit cannot be applied to track states; treat the
            # frame as having no usable camera estimate.
            degenerate = abs(float(np.linalg.det(estimate.transform.linear))) < 1e-6
            if not degenerate and not estimate.transform.is_identity():
                for track in live:
                    before = float(track.kalman_state.mean[2])
                    track.kalman_state = motion.apply_to_track(
                        estimate.transform, track.kalman_state)
                    diag.aspect_pairs.append((before, float(track.kalman_state.mean[2])))
        for track in live:
            diag.predicted_boxes[track.track_id] = track.predicted_box

        # First association: all live tracks vs high-confidence detections.
        cost = association.build_stage_matrix(live, d_high, "first", c_high,
                                              use_appearance=use_embeddings)
        diag.used_embeddings = bool(
            use_embeddings and any(t.appearance.embedding is not None for t in live)
            and any(c.embedding is not None for c in c_high))
        first = association.hungarian(cost, association.MIN_FUSED_SIM_FIRST)
        outputs: list[tuple[int, int, BoundingBox, float]] = []
        for ti, dj in first.matches:
            track, det = live[ti], d_high[dj]
            track.mark_matched(det, c_high[dj])
            outputs.append((track.track_id, track.class_id, det.box, det.score))
        diag.n_matched_first = len(first.matches)

        # Second association: leftovers vs low-confidence detections.
        remaining = [live[i] for i in first.unmatched_rows]
        cost2 = association.build_stage_matrix(
            remaining, d_low, "second", c_low, use_appearance=cfg.traditional_second_assoc)
        second = association.hungarian(cost2, association.MIN_FUSED_SIM_SECOND)
        for ti, dj in second.matches:
            track, det = remaining[ti], d_low[dj]
            track.mark_matched(det, c_low[dj])
            outputs.append((track.track_id, track.class_id, det.box, det.score))
        diag.n_matched_second = len(second.matches)

        # Lifecycle for unmatched tracks; removed ones leave the tracker.
        for i in second.unmatched_rows:
            if remaining[i].mark_missed(cfg.grace_frames):
                diag.n_removed += 1
        if diag.n_removed:
            self.tracks = [t for t in live if t.status != TrackStatus.REMOVED]

        # New tracks from unmatched high detections.
        for dj in first.unmatched_cols:
            det = d_high[dj]
            track = self._start_track(det, c_high[dj])
            outputs.append((track.track_id, track.class_id, det.box, det.score))
            diag.n_new_high += 1

        # New tracks from unmatched low detections, gated on appearance
        # similarity against this frame's same-class high detections.
        if cfg.low_init_enabled:
            candidates = second.unmatched_cols
            allowed = association.low_init_allowed(
                [d_low[dj] for dj in candidates], [c_low[dj] for dj in candidates],
                d_high, c_high, cfg.rho)
            for dj in (dj for dj, ok in zip(candidates, allowed) if ok):
                det = d_low[dj]
                track = self._start_track(det, c_low[dj])
                outputs.append((track.track_id, track.class_id, det.box, det.score))
                diag.n_new_low += 1

        outputs.sort(key=lambda o: o[0])
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
