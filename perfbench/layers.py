"""Which sftrack functions the traced run wraps, and the per-layer metrics
derived from the spans and from ``FrameDiagnostics``.

Span names are ``<module>.<what>``; a timing metric is the span's summed
self time, so the in-step timings plus ``tracker.self_ms`` add up to
``tracker.step_ms``.
"""

from __future__ import annotations

import numpy as np

from sftrack import appearance, association, io_formats, kalman, metrics, motion, synthetic
from sftrack.tracker import Tracker

from tracer import Target, Tracer

# Layers whose spans run inside Tracker.step, as the share metrics group them.
STEP_LAYERS = ("motion", "appearance", "association", "kalman")


def _stage_span(args: tuple, kwargs: dict) -> str:
    stage = args[2] if len(args) > 2 else kwargs["stage"]
    return "association.stage1" if stage == "first" else "association.stage2"


def _count_pairs(tracer: Tracer, cost, args: tuple, kwargs: dict) -> None:
    tracer.counts[_stage_span(args, kwargs) + ".pairs"] += int(np.isfinite(cost).sum())


def targets() -> list[Target]:
    return [
        Target(io_formats.Sequence, "read_frame", "io_formats.read_frame"),
        Target(io_formats, "read_mot_detections", "io_formats.read_detections"),
        Target(io_formats, "write_results", "io_formats.write_results"),
        # generate() took write_ppm with ``from .io_formats import``.
        Target(synthetic, "write_ppm", "io_formats.write_ppm"),
        Target(synthetic, "render_frame", "synthetic.render_frame"),
        Target(synthetic, "build_annotations", "synthetic.build_annotations"),
        Target(appearance, "load_embeddings", "appearance.load_embeddings"),
        Target(motion, "estimate_camera_motion", "motion.estimate"),
        Target(motion, "rgb_to_gray", "motion.gray_downscale"),
        Target(motion, "downscale", "motion.gray_downscale"),
        Target(motion, "detect_features", "motion.detect_features"),
        Target(motion, "track_features", "motion.track_features"),
        Target(motion, "estimate_affine", "motion.estimate_affine"),
        Target(motion, "apply_to_track", "motion.apply_to_track"),
        Target(appearance, "fallback_embedding", "appearance.fallback_embedding"),
        Target(appearance, "color_histogram", "appearance.color_histogram"),
        Target(appearance, "resize_bilinear", "appearance.resize_bilinear"),
        Target(appearance, "extract_crop", "appearance.extract_crop"),
        Target(association, "build_stage_matrix", "association.stage",
               namer=_stage_span, on_return=_count_pairs),
        Target(association, "hungarian", "association.hungarian"),
        Target(kalman, "predict", "kalman.predict"),
        Target(kalman, "update", "kalman.update"),
        Target(Tracker, "step", "tracker.step"),
        Target(metrics, "clear_match", "metrics.clear_match"),
        Target(metrics, "idf1", "metrics.idf1"),
    ]


# Per-frame timings of the tracking phase: metric -> span name.
STEP_TIMINGS = {
    "motion.estimate_ms": "motion.estimate",
    "motion.gray_downscale_ms": "motion.gray_downscale",
    "motion.detect_features_ms": "motion.detect_features",
    "motion.track_features_ms": "motion.track_features",
    "motion.estimate_affine_ms": "motion.estimate_affine",
    "motion.apply_to_track_ms": "motion.apply_to_track",
    "appearance.fallback_embedding_ms": "appearance.fallback_embedding",
    "appearance.color_histogram_ms": "appearance.color_histogram",
    "appearance.resize_bilinear_ms": "appearance.resize_bilinear",
    "appearance.extract_crop_ms": "appearance.extract_crop",
    "association.stage1_ms": "association.stage1",
    "association.stage2_ms": "association.stage2",
    "association.hungarian_ms": "association.hungarian",
    "kalman.predict_ms": "kalman.predict",
    "kalman.update_ms": "kalman.update",
    "tracker.self_ms": "tracker.step",
}


# Every per-layer metric a traced run reports, with its unit.
UNITS = {
    "io_formats.read_frame_ms": "ms/frame",
    "io_formats.read_detections_ms": "ms",
    "io_formats.write_results_ms": "ms",
    "io_formats.write_ppm_ms": "ms/frame",
    "appearance.load_embeddings_ms": "ms",
    "synthetic.render_frame_ms": "ms/frame",
    "synthetic.build_annotations_s": "s",
    **{name: "ms/frame" for name in STEP_TIMINGS},
    "tracker.step_ms": "ms/frame",
    "motion.features_per_frame": "count/frame",
    "motion.tracked_ratio": "ratio",
    "motion.inlier_ratio": "ratio",
    "motion.fallback_frames": "count",
    "appearance.crops_per_detection": "count/det",
    "appearance.histograms_per_detection": "count/det",
    "appearance.resizes_per_detection": "count/det",
    "association.stage1_pairs": "count/frame",
    "association.stage2_pairs": "count/frame",
    "association.stage1_match_ratio": "ratio",
    "association.stage2_match_ratio": "ratio",
    "kalman.predicts_per_frame": "count/frame",
    "kalman.updates_per_frame": "count/frame",
    "tracker.live_tracks_per_frame": "count/frame",
    "tracker.births_high": "count",
    "tracker.births_low": "count",
    "tracker.removals": "count",
    "metrics.clear_match_ms": "ms",
    "metrics.idf1_ms": "ms",
    "metrics.id_switches": "count",
    **{f"share.{layer}_pct": "%" for layer in STEP_LAYERS},
    "share.tracker_self_pct": "%",
    "trace.overhead_pct": "%",
}


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def setup_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced setup (synthesise + parse)."""
    own = tracer.totals()
    calls = tracer.counts
    return {
        "synthetic.render_frame_ms": 1e3 * _ratio(own.get("synthetic.render_frame", 0.0),
                                                  calls["synthetic.render_frame.calls"]),
        "synthetic.build_annotations_s": own.get("synthetic.build_annotations", 0.0),
        "io_formats.write_ppm_ms": 1e3 * _ratio(own.get("io_formats.write_ppm", 0.0),
                                                calls["io_formats.write_ppm.calls"]),
        "io_formats.read_detections_ms": 1e3 * own.get("io_formats.read_detections", 0.0),
        "appearance.load_embeddings_ms": 1e3 * own.get("appearance.load_embeddings", 0.0),
    }


def tracking_metrics(tracer: Tracer, diagnostics: list, n_detections: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass.

    ``diagnostics`` holds the pass's FrameDiagnostics in frame order and
    ``n_detections`` counts the detections fed to it.
    """
    frames = len(diagnostics)
    own = tracer.totals()
    step_own = tracer.totals(under="tracker.step")
    calls = tracer.counts
    step_total = tracer.inclusive("tracker.step")

    out = {name: 1e3 * own.get(span, 0.0) / frames for name, span in STEP_TIMINGS.items()}
    out["tracker.step_ms"] = 1e3 * step_total / frames
    out["io_formats.read_frame_ms"] = 1e3 * own.get("io_formats.read_frame", 0.0) / frames
    out["io_formats.write_results_ms"] = 1e3 * _ratio(
        own.get("io_formats.write_results", 0.0), calls["io_formats.write_results.calls"])
    for layer in STEP_LAYERS:
        layer_time = sum(t for name, t in step_own.items() if name.startswith(layer + "."))
        out[f"share.{layer}_pct"] = 100.0 * _ratio(layer_time, step_total)
    out["share.tracker_self_pct"] = 100.0 * _ratio(step_own.get("tracker.step", 0.0), step_total)

    mc = [d.motion for d in diagnostics if d.motion is not None]
    n_features = sum(m.n_features for m in mc)
    out["motion.features_per_frame"] = _mean([m.n_features for m in mc])
    out["motion.tracked_ratio"] = _ratio(sum(m.n_tracked for m in mc), n_features)
    out["motion.inlier_ratio"] = _mean([m.inlier_ratio for m in mc])
    out["motion.fallback_frames"] = float(sum(m.fallback for m in mc))

    for metric, span in (("crops", "extract_crop"), ("histograms", "color_histogram"),
                         ("resizes", "resize_bilinear")):
        out[f"appearance.{metric}_per_detection"] = _ratio(
            calls[f"appearance.{span}.calls"], n_detections)

    live = sum(len(d.predicted_boxes) for d in diagnostics)
    matched_first = sum(d.n_matched_first for d in diagnostics)
    out["association.stage1_pairs"] = calls["association.stage1.pairs"] / frames
    out["association.stage2_pairs"] = calls["association.stage2.pairs"] / frames
    out["association.stage1_match_ratio"] = _ratio(matched_first, live)
    out["association.stage2_match_ratio"] = _ratio(
        sum(d.n_matched_second for d in diagnostics), live - matched_first)

    out["kalman.predicts_per_frame"] = calls["kalman.predict.calls"] / frames
    out["kalman.updates_per_frame"] = calls["kalman.update.calls"] / frames
    out["tracker.live_tracks_per_frame"] = live / frames
    out["tracker.births_high"] = float(sum(d.n_new_high for d in diagnostics))
    out["tracker.births_low"] = float(sum(d.n_new_low for d in diagnostics))
    out["tracker.removals"] = float(sum(d.n_removed for d in diagnostics))
    return out


def eval_metrics(tracer: Tracer, evaluations: int) -> dict[str, float]:
    """Per-call timings of ``evaluations`` traced ``metrics.evaluate`` calls."""
    own = tracer.totals()
    return {
        "metrics.clear_match_ms": 1e3 * own.get("metrics.clear_match", 0.0) / evaluations,
        "metrics.idf1_ms": 1e3 * own.get("metrics.idf1", 0.0) / evaluations,
    }


def unattributed_step_ms(layer: dict[str, float]) -> float:
    """tracker.step_ms minus tracker.self_ms and every in-step layer's self
    time; zero up to rounding when every span under step is accounted for."""
    in_step = [v for k, v in layer.items()
               if k in STEP_TIMINGS and k != "tracker.self_ms"]
    return layer["tracker.step_ms"] - layer["tracker.self_ms"] - sum(in_step)
