"""sftrack benchmark: synthesise a workload, track it in a closed loop,
evaluate it, and print one JSON result line.

    python3 perfbench/run.py --workload fast_camera --seed 1 --seconds 10 --trace 0

Load model: offline batch tracking. One caller in one process reads a frame
(``Sequence.read_frame``), calls ``Tracker.step`` and only then moves on;
no threads, no worker pool. Whole passes over the sequence repeat, each
with a fresh tracker, until ``--seconds`` of tracking have been measured
(at least two passes, so their outputs can be compared).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from spans
recorded by wrapping sftrack's functions from outside (see tracer.py).

Setup, the synthesis of the workload to disk plus parsing it, runs in child
processes of this script (``--setup-into``), three times per end-to-end
run, so the peak RSS this process reports is that of parsing, tracking and
evaluation.
The run checks its own outputs and fails ``correct`` when a frame fails,
when repeated passes or setups disagree, or when a result recorded for the
same seed and source by an earlier run in this checkout differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

SETUP_REPS = 3
SETUP_TIMEOUT_S = 150
WARMUP_FRAMES = 3
# After every untraced pass the first pass's results are evaluated again,
# repeatedly for at least EVAL_SLICE_S, so evaluation is sampled across the
# whole run like tracking is, and millisecond-scale evaluations still get
# many samples.
EVAL_SLICE_S = 0.1
# Sanity floors on tracking quality: far below every workload's measured
# values, so only a broken pipeline trips them.
MIN_MOTA = 50.0
MIN_IDF1 = 0.5

END_TO_END_UNITS = {
    "track_fps": "1/s", "frame_ms_p50": "ms", "frame_ms_tail": "ms", "eval_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB", "mota": "%", "idf1": "ratio",
}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--frames", type=int, default=None,
                   help="override the workload's sequence length (smoke tests)")
    p.add_argument("--setup-into", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    """Make the checkout's ``src`` importable; fail when it is not there."""
    if not (SRC / "sftrack" / "__init__.py").is_file():
        raise SystemExit(f"error: no sftrack sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sftrack
    if Path(sftrack.__file__).resolve().parent != (SRC / "sftrack").resolve():
        raise SystemExit(f"error: imported sftrack from {sftrack.__file__}, not {SRC}")


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*(SRC / "sftrack").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Setup (child process)


def setup_child(args: argparse.Namespace) -> int:
    """Synthesise and parse once; print timing (and traced layers) as JSON."""
    import layers
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload]
    directory = Path(args.setup_into)
    tracer = Tracer()
    if args.trace:
        tracer.install(layers.targets())
    try:
        start = time.perf_counter()
        workloads.synthesise(workload, args.seed, directory, args.frames)
        workloads.load(workload, directory)
        elapsed = time.perf_counter() - start
    finally:
        tracer.restore()
    out = {"setup_s": elapsed, "digest": workloads.digest(directory)}
    if args.trace:
        out["layers"] = layers.setup_metrics(tracer)
    print(json.dumps(out))
    return 0


def run_setup(args: argparse.Namespace, directory: Path) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace),
           "--setup-into", str(directory)]
    if args.frames:
        cmd += ["--frames", str(args.frames)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"setup child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Tracking


class Pass:
    """One whole pass over the sequence with a fresh tracker."""

    def __init__(self, workload, inputs, frames: int):
        from sftrack.tracker import Tracker

        self.tracker = Tracker(workload.config, inputs.embeddings,
                               handcrafted_fallback=not workload.learned_embeddings)
        self.inputs = inputs
        self.frames = frames
        self.latencies: list[float] = []
        self.results = []
        self.failed = 0
        self.digest = ""

    def run(self) -> "Pass":
        seq, dets = self.inputs.sequence, self.inputs.detections
        clock = time.perf_counter
        for k in range(1, self.frames + 1):
            start = clock()
            try:
                image = seq.read_frame(k)
                result = self.tracker.step(k, image, dets.get(k, []))
            except Exception as exc:  # a failed frame is counted, not fatal
                self.latencies.append(clock() - start)
                self.failed += 1
                print(f"frame {k}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            self.latencies.append(clock() - start)
            if not _valid_outputs(result.outputs):
                self.failed += 1
                print(f"frame {k}: duplicate ids or non-finite boxes", file=sys.stderr)
                continue
            self.results.append(result)
        return self

    def fingerprint(self, results_path: Path) -> None:
        """Hash the result file's bytes and every frame's decision counts."""
        from sftrack import io_formats

        io_formats.write_results(results_path, self.results)
        h = hashlib.sha256(results_path.read_bytes())
        for r in self.results:
            d = r.diagnostics
            m = d.motion
            h.update(repr((r.frame, d.n_high, d.n_low, d.n_matched_first, d.n_matched_second,
                           d.n_new_high, d.n_new_low, d.n_removed, len(d.predicted_boxes),
                           None if m is None else (m.n_features, m.n_tracked,
                                                   m.inlier_ratio, m.fallback))).encode())
        self.digest = h.hexdigest()


def _valid_outputs(outputs) -> bool:
    ids = [o[0] for o in outputs]
    if len(set(ids)) != len(ids):
        return False
    return all(math.isfinite(v) for _tid, _cls, box, score in outputs
               for v in (box.left, box.top, box.width, box.height, score))


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples
    beyond it; the maximum when there are too few samples for one."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = n - 11 if n > 10 else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(inputs, results, min_seconds: float) -> tuple[list[float], list]:
    """Time ``metrics.evaluate`` on ``results``, repeated for ``min_seconds``."""
    from sftrack import metrics
    from sftrack.cli import results_to_frames

    hyp = results_to_frames(results)
    times, reports = [], []
    while not times or sum(times) < min_seconds:
        start = time.perf_counter()
        report = metrics.evaluate(inputs.ground_truth, hyp)
        times.append(time.perf_counter() - start)
        reports.append((report.mota, report.idf1, report.ids, report.fp, report.fn))
    return times, reports


# ---------------------------------------------------------------------------
# Cross-run record


def check_record(key: str, record: dict, problems: list[str]) -> None:
    """Compare with what an earlier run of the same seed and source recorded."""
    path = WORK / "records" / f"{key}.json"
    previous = json.loads(path.read_text()) if path.exists() else {}
    for field, value in record.items():
        if field in previous and previous[field] != value:
            problems.append(f"{field} differs from an earlier run of this seed")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**previous, **record}, indent=1, sort_keys=True))


# ---------------------------------------------------------------------------
# Main


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    _import_program()
    import layers
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    if args.setup_into:
        return setup_child(args)

    workload = workloads.WORKLOADS[args.workload]
    frames = args.frames or workload.frames
    originals = [t.owner.__dict__[t.attr] for t in layers.targets()]
    directory = WORK / args.workload
    problems: list[str] = []

    # Setup, timed in child processes.
    setups = [run_setup(args, directory) for _ in range(1 if args.trace else SETUP_REPS)]
    if len({s["digest"] for s in setups}) != 1:
        problems.append("setup outputs differ between repetitions")
    inputs = workloads.load(workload, directory)
    n_dets = sum(len(v) for v in inputs.detections.values())

    # Warm-up: first calls into numpy/scipy paths, untimed.
    Pass(workload, inputs, min(WARMUP_FRAMES, frames)).run()

    # Whole passes until the time is up; with --trace 1 every other pass is
    # traced. Only the first untraced pass keeps its results (for
    # evaluation), so memory and garbage-collection work do not grow with
    # the number of passes a faster program fits in.
    untraced: list[Pass] = []
    traced: list[Pass] = []
    traced_layers: list[dict[str, float]] = []
    traced_calls: list[dict[str, int]] = []
    first_results = None
    eval_times: list[float] = []
    reports: list[tuple] = []
    deadline = time.perf_counter() + args.seconds
    while (time.perf_counter() < deadline or len(untraced) < 2
           or (args.trace and len(traced) < 2)):
        trace_this = bool(args.trace) and len(traced) < len(untraced)
        tracer = Tracer()
        if trace_this:
            tracer.install(layers.targets())
        try:
            p = Pass(workload, inputs, frames).run()
            p.fingerprint(directory / "results.txt")
        finally:
            tracer.restore()
        if trace_this:
            traced.append(p)
            traced_layers.append(layers.tracking_metrics(
                tracer, [r.diagnostics for r in p.results], n_dets))
            traced_calls.append(dict(tracer.counts))
            if len(traced) == 1:
                write_spans(directory / "spans.jsonl", tracer)
        else:
            untraced.append(p)
            if first_results is None:
                first_results = p.results
            times, reps = evaluate(inputs, first_results, EVAL_SLICE_S)
            eval_times += times
            reports += reps
        p.results = []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    all_passes = untraced + traced
    attempted = sum(len(p.latencies) for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    if len({p.digest for p in all_passes}) != 1:
        problems.append("tracking passes of one run disagree")

    if len(set(reports)) != 1:
        problems.append("repeated evaluations disagree")
    mota, idf1, ids, fp, fn = reports[0]
    if mota < MIN_MOTA or idf1 < MIN_IDF1:
        problems.append(f"tracking quality collapsed: MOTA {mota:.2f}, IDF1 {idf1:.4f}")

    latencies = [x for p in untraced for x in p.latencies]
    tail, tail_pct = _tail(latencies)
    record = {"setup_digest": setups[0]["digest"], "pass_digest": untraced[0].digest,
              "quality": [mota, idf1, ids, fp, fn]}

    if args.trace:
        eval_tracer = Tracer()
        eval_tracer.install(layers.targets())
        try:
            traced_evals, traced_reports = evaluate(inputs, first_results, 5 * EVAL_SLICE_S)
        finally:
            eval_tracer.restore()
        if set(traced_reports) != set(reports):
            problems.append("traced evaluation disagrees")
        layer = {k: statistics.fmean(d[k] for d in traced_layers) for k in traced_layers[0]}
        layer.update(setups[0]["layers"])
        layer.update(layers.eval_metrics(eval_tracer, len(traced_evals)))
        layer["trace.overhead_pct"] = 100.0 * (
            statistics.median(sum(p.latencies) for p in traced)
            / statistics.median(sum(p.latencies) for p in untraced) - 1.0)
        layer["metrics.id_switches"] = float(ids)
        residual = layers.unattributed_step_ms(layer)
        if abs(residual) > 1e-6:
            problems.append(f"in-step self times miss {residual:.3g} ms of tracker.step")
        if any(c != traced_calls[0] for c in traced_calls):
            problems.append("traced call counts differ between passes")
        record["traced_calls"] = traced_calls[0]
        if [t.owner.__dict__[t.attr] for t in layers.targets()] != originals:
            problems.append("wrapped functions were not restored")
        metrics = {k: {"value": v, "unit": layers.UNITS[k]} for k, v in sorted(layer.items())}
    else:
        metrics_values = {
            "track_fps": frames / statistics.median(sum(p.latencies) for p in untraced),
            "frame_ms_p50": 1e3 * statistics.median(latencies),
            "frame_ms_tail": 1e3 * tail,
            "eval_s": statistics.median(eval_times),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": peak_rss_mb,
            "mota": mota,
            "idf1": idf1,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in metrics_values.items()}

    key = f"{args.workload}-seed{args.seed}-f{frames}-{_source_digest()}"
    check_record(key, record, problems)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed}: {len(all_passes)} passes of "
          f"{frames} frames, {attempted} frames attempted, {failed} failed; "
          f"tail = p{tail_pct:.1f} of {len(latencies)} untraced frames; "
          f"MOTA {mota:.2f} IDF1 {idf1:.4f} IDs {ids}")
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def write_spans(path: Path, tracer) -> None:
    with open(path, "w") as f:
        for span in tracer.spans:
            f.write(json.dumps({"name": span.name, "parent": span.parent,
                                "start": span.start, "end": span.end}) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
