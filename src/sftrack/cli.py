"""Command-line entry points: track, eval, synth, overlay, ablate.

Exit codes: 0 success, 1 internal failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

from . import metrics, synthetic, tracker as tracker_mod
from .appearance import extract_crop, load_embeddings
from .config import TrackerConfig
from .errors import NumericalError, SFTrackError
from .io_formats import (AnnotatedBox, load_sequence, read_mot_annotations,
                         read_mot_detections, read_ppm, read_visdrone, write_ppm,
                         write_results)
from .rng import splitmix64

ENV_CONFIG = "SFTRACK_CONFIG"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sftrack",
                                     description="UAV multi-object tracking toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_track = sub.add_parser("track", help="run the tracker over a sequence")
    p_track.add_argument("--seq", required=True, help="sequence directory (seqinfo.ini + frames)")
    p_track.add_argument("--det", required=True, help="MOT-format detection file")
    p_track.add_argument("--embeddings", help="optional embedding file (frame,det_index,v...)")
    p_track.add_argument("--config", help=f"tracker config file (fallback: ${ENV_CONFIG})")
    p_track.add_argument("--out", required=True, help="output MOT result file")
    p_track.add_argument("--no-mc", action="store_true", help="disable camera motion compensation")
    p_track.add_argument("--no-low-init", action="store_true",
                         help="disable track initiation from low-confidence detections")
    p_track.add_argument("--no-traditional", action="store_true",
                         help="second association on IoU only")

    p_eval = sub.add_parser("eval", help="evaluate a result file against ground truth")
    p_eval.add_argument("--gt", required=True)
    p_eval.add_argument("--res", required=True)
    p_eval.add_argument("--format", choices=["mot", "visdrone"], default="mot",
                        help="ground-truth file format")
    p_eval.add_argument("--json", help="also write the report as JSON")

    p_synth = sub.add_parser("synth", help="generate a synthetic sequence")
    group = p_synth.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help=f"one of: {', '.join(synthetic.PRESET_NAMES)}")
    group.add_argument("--spec", help="scenario spec file")
    p_synth.add_argument("--out", required=True, help="output sequence directory")

    p_overlay = sub.add_parser("overlay", help="draw result boxes onto frames")
    p_overlay.add_argument("--seq", required=True)
    p_overlay.add_argument("--res", required=True)
    p_overlay.add_argument("--out", required=True)

    p_ablate = sub.add_parser("ablate", help="run the configuration lattice on a preset")
    p_ablate.add_argument("--preset", required=True)
    p_ablate.add_argument("--out", required=True, help="output table file (TSV)")
    return parser


# ---------------------------------------------------------------------------


def _load_config(args) -> TrackerConfig:
    path = args.config or os.environ.get(ENV_CONFIG)
    config = TrackerConfig.from_file(path) if path else TrackerConfig()
    if args.no_mc:
        config.mc_enabled = False
    if args.no_low_init:
        config.low_init_enabled = False
    if args.no_traditional:
        config.traditional_second_assoc = False
    return config


def _frame_iter(sequence):
    for idx in range(1, len(sequence.frame_paths) + 1):
        yield idx, sequence.read_frame(idx)


def cmd_track(args) -> int:
    sequence = load_sequence(args.seq)
    detections = read_mot_detections(args.det)
    config = _load_config(args)
    embeddings = load_embeddings(args.embeddings) if args.embeddings else None
    results = tracker_mod.run_sequence(_frame_iter(sequence), detections, config,
                                       embeddings=embeddings)
    write_results(args.out, results)

    d = [r.diagnostics for r in results]
    n_outputs = sum(len(r.outputs) for r in results)
    fallbacks = sum(1 for x in d if x.motion is not None and x.motion.fallback)
    print(f"frames:          {len(results)}")
    print(f"high/low dets:   {sum(x.n_high for x in d)}/{sum(x.n_low for x in d)}")
    print(f"dropped dets:    {sum(x.n_degenerate for x in d)} (zero width or height)")
    print(f"matched 1st/2nd: {sum(x.n_matched_first for x in d)}/"
          f"{sum(x.n_matched_second for x in d)}")
    print(f"new high/low:    {sum(x.n_new_high for x in d)}/{sum(x.n_new_low for x in d)}")
    print(f"removed tracks:  {sum(x.n_removed for x in d)}")
    print(f"motion fallbacks:{fallbacks}")
    print(f"output boxes:    {n_outputs} -> {args.out}")
    return 0


def _read_gt(path: str, fmt: str):
    if fmt == "visdrone":
        return read_visdrone(path, mode="gt")
    return read_mot_annotations(path)


def cmd_eval(args) -> int:
    gt = _read_gt(args.gt, args.format)
    hyp = read_mot_annotations(args.res)
    if not gt:
        raise SFTrackError(f"no ground-truth rows in {args.gt}")
    if hyp:
        g_lo, g_hi = min(gt), max(gt)
        h_lo, h_hi = min(hyp), max(hyp)
        if (g_lo, g_hi) != (h_lo, h_hi):
            lo, hi = max(g_lo, h_lo), min(g_hi, h_hi)
            print(f"warning: frame ranges differ (gt {g_lo}..{g_hi}, res {h_lo}..{h_hi}); "
                  f"evaluating {lo}..{hi}", file=sys.stderr)
            gt = {f: r for f, r in gt.items() if lo <= f <= hi}
            hyp = {f: r for f, r in hyp.items() if lo <= f <= hi}
    report = metrics.evaluate(gt, hyp, sequence_name=Path(args.res).stem)
    print(report.to_table())
    if args.json:
        Path(args.json).write_text(report.to_json())
    return 0


def cmd_synth(args) -> int:
    if args.preset:
        spec = synthetic.preset(args.preset)
    else:
        spec = synthetic.parse_scenario(Path(args.spec).read_text(), source=args.spec)
    result = synthetic.generate(spec, args.out)
    n_dets = sum(len(v) for v in result.detections.values())
    n_gt = sum(len(v) for v in result.ground_truth.values())
    print(f"generated {spec.frames} frames at {spec.width}x{spec.height} -> {result.directory}")
    print(f"gt rows: {n_gt}, det rows: {n_dets}")
    return 0


def _track_color(track_id: int) -> np.ndarray:
    hue = (splitmix64(track_id) & 0xFFFF) / 65536.0 * 6.0
    c = 230.0
    x = c * (1.0 - abs(hue % 2.0 - 1.0))
    sector = int(hue) % 6
    rgb = [(c, x, 0), (x, c, 0), (0, c, x), (0, x, c), (x, 0, c), (c, 0, x)][sector]
    return np.array(rgb)


def _draw_box(image: np.ndarray, box, color: np.ndarray, thickness: int = 2) -> None:
    """Outline the box's pixels, as ``extract_crop`` rounds and clamps them,
    by drawing its four edges into the crop, a view into ``image``."""
    crop = extract_crop(image, box)
    if crop is None:
        return
    t = thickness
    crop[:t] = color
    crop[-t:] = color
    crop[:, :t] = color
    crop[:, -t:] = color


def cmd_overlay(args) -> int:
    sequence = load_sequence(args.seq)
    hyp = read_mot_annotations(args.res)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for idx, path in enumerate(sequence.frame_paths, start=1):
        image = read_ppm(path)
        for row in hyp.get(idx, []):
            _draw_box(image, row.box, _track_color(row.obj_id))
        write_ppm(out_dir / path.name, image)
    print(f"wrote {len(sequence.frame_paths)} annotated frames -> {out_dir}")
    return 0


ABLATION_ROWS = (
    # name, mc, low_init, traditional, embeddings
    ("byte_baseline", False, False, False, False),
    ("uav_mc", True, False, False, True),
    ("low_init", True, True, False, True),
    ("traditional", True, True, True, True),
)


def run_ablation(preset_name: str, work_dir: str | Path) -> list[tuple[str, metrics.MetricsReport]]:
    """Generate the preset once and evaluate every lattice row on it."""
    spec = synthetic.preset(preset_name)
    gen = synthetic.generate(spec, Path(work_dir) / preset_name)
    sequence = load_sequence(gen.directory)
    detections = read_mot_detections(gen.det_path)
    gt = read_visdrone(gen.gt_path, mode="gt")
    rows = []
    for name, mc, low_init, traditional, embeds in ABLATION_ROWS:
        config = TrackerConfig(mc_enabled=mc, low_init_enabled=low_init,
                               traditional_second_assoc=traditional)
        results = tracker_mod.run_sequence(_frame_iter(sequence), detections, config,
                                           handcrafted_fallback=embeds)
        hyp = results_to_frames(results)
        report = metrics.evaluate(gt, hyp, sequence_name=preset_name)
        rows.append((name, report))
    return rows


def results_to_frames(frame_results) -> dict[int, list[AnnotatedBox]]:
    """Tracker outputs as evaluation input, class-agnostic like MOT files."""
    out: dict[int, list[AnnotatedBox]] = {}
    for fr in frame_results:
        out[fr.frame] = [AnnotatedBox(fr.frame, tid, box, score, -1)
                         for tid, _cls, box, score in fr.outputs]
    return out


def format_ablation_table(rows) -> str:
    lines = ["config\tmota\tidf1\tfp\tfn\tids"]
    for name, report in rows:
        lines.append(f"{name}\t{report.mota:.2f}\t{report.idf1:.4f}\t"
                     f"{report.fp}\t{report.fn}\t{report.ids}")
    return "\n".join(lines) + "\n"


def cmd_ablate(args) -> int:
    with tempfile.TemporaryDirectory(prefix="sftrack-ablate-") as work:
        rows = run_ablation(args.preset, work)
    table = format_ablation_table(rows)
    Path(args.out).write_text(table)
    print(table, end="")
    return 0


# ---------------------------------------------------------------------------


_COMMANDS = {
    "track": cmd_track,
    "eval": cmd_eval,
    "synth": cmd_synth,
    "overlay": cmd_overlay,
    "ablate": cmd_ablate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except NumericalError:  # an internal fault, not the caller's
        traceback.print_exc()
        return 1
    except (SFTrackError, FileNotFoundError, NotADirectoryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
