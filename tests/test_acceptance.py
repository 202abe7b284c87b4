"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line. Tolerances are pinned here, not tuned elsewhere."""

import hashlib
import itertools
import math
import time

import numpy as np
import pytest

from sftrack import kalman, metrics
from sftrack.association import hungarian
from sftrack.cli import ABLATION_ROWS
from sftrack.io_formats import write_results
from sftrack.motion import AffineTransform2D, estimate_affine, detect_features, track_features
from sftrack.types import BoundingBox, iou

from test_metrics import as_frames, track_frames


def _report(criterion: str, passed: bool = True) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}", flush=True)


# -- 1 ----------------------------------------------------------------------

def test_criterion_01_assignment_optimality():
    """Solver total equals the exhaustive-permutation minimum, exactly."""
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for case in range(1000):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        cost = rng.uniform(size=(n, m))
        got = sum(cost[r, c] for r, c in hungarian(cost).matches)
        small, large = (n, m) if n <= m else (m, n)
        perms = np.array(list(itertools.permutations(range(large), small)))
        if n <= m:
            totals = cost[np.arange(n)[None, :], perms].sum(axis=1)
        else:
            totals = cost[perms, np.arange(m)[None, :]].sum(axis=1)
        best = float(totals.min())
        assert got == pytest.approx(best, abs=1e-12), f"case {case}: {got} != {best}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report(f"criterion 1: assignment optimality on 1000 matrices ({elapsed:.1f}s)")


# -- 2 ----------------------------------------------------------------------

def test_criterion_02_affine_recovery():
    """Similarity recovery: seeded similarity transforms recovered to 1e-6
    (clean), 1e-3 (20% outliers)."""
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        scale = rng.uniform(0.9, 1.1)
        rot = math.radians(rng.uniform(-10, 10))
        trans = rng.uniform(-20, 20, size=2)
        true = AffineTransform2D.similarity(scale, rot, trans)
        src = rng.uniform(0, 640, size=(60, 2))
        dst = true.apply(src)

        est = estimate_affine(src, dst, seed=seed)
        assert np.abs(est.transform.linear - true.linear).max() < 1e-6
        assert np.abs(est.transform.translation - true.translation).max() < 1e-6

        noisy = dst.copy()
        for i in range(12):  # 20% outliers, kept clear of the inlier band
            while True:
                cand = rng.uniform(0, 640, size=2)
                if np.hypot(*(cand - dst[i])) > 10:
                    noisy[i] = cand
                    break
        est2 = estimate_affine(src, noisy, seed=seed)
        assert np.abs(est2.transform.linear - true.linear).max() < 1e-3
        assert np.abs(est2.transform.translation - true.translation).max() < 1e-3
    _report("criterion 2: similarity recovery over 100 seeds (1e-6 clean, 1e-3 outliers)")


# -- 3 ----------------------------------------------------------------------

def _best_iou_per_gt(gt_rows, boxes):
    out = []
    for r in gt_rows:
        out.append(max((iou(r.box, b) for b in boxes), default=0.0))
    return out


def test_criterion_03_optical_flow_accuracy(presets):
    """Integer-shift EPE <= 0.1 px; compensated static-object IoU >= 0.9."""
    from sftrack.synthetic import _lattice_noise
    px, py = np.meshgrid(np.arange(200) + 0.5, np.arange(160) + 0.5)
    for i, shift in enumerate(((3, 2), (-5, 1), (7, -4), (2, -6), (4, 4))):
        coarse = _lattice_noise(3001 + i, 10, px, py, 24.0)[..., 0]
        fine = _lattice_noise(3001 + i, 11, px, py, 6.0)[..., 0]
        img = 110.0 + (coarse - 0.5) * 90.0 + (fine - 0.5) * 36.0
        moved = np.roll(np.roll(img, shift[1], axis=0), shift[0], axis=1)
        pts = detect_features(img, max_count=80, min_distance=6)
        margin = 25
        keep = ((pts[:, 0] > margin) & (pts[:, 0] < 200 - margin)
                & (pts[:, 1] > margin) & (pts[:, 1] < 160 - margin))
        res = track_features(img, moved, pts[keep])
        assert res.status.sum() >= 20
        flow = res.cur_points[res.status] - res.prev_points[res.status]
        err = np.hypot(flow[:, 0] - shift[0], flow[:, 1] - shift[1])
        assert err.mean() <= 0.1, f"shift {shift}: mean EPE {err.mean():.3f}"

    gt = presets.gt("fast_camera")
    with_mc = presets.run("fast_camera", mc=True)
    worst = 1.0
    for fr in with_mc:
        if fr.frame < 2:
            continue
        boxes = [BoundingBox(*row) for row in fr.diagnostics.predicted_boxes.tolist()]
        best = _best_iou_per_gt(gt[fr.frame], boxes)
        worst = min(worst, min(best))
    assert worst >= 0.9, f"worst compensated IoU {worst:.3f}"

    without_mc = presets.run("fast_camera", mc=False)
    dip = 1.0
    for fr in without_mc:
        if fr.frame < 2:
            continue
        boxes = [BoundingBox(*row) for row in fr.diagnostics.predicted_boxes.tolist()]
        if boxes:
            dip = min(dip, min(_best_iou_per_gt(gt[fr.frame], boxes)))
    assert dip < 0.5, f"uncompensated prediction never dipped below 0.5 ({dip:.3f})"
    _report(f"criterion 3: optical flow EPE and compensated IoU "
            f"(worst {worst:.3f} with MC, dip {dip:.3f} without)")


# -- 4 ----------------------------------------------------------------------

def test_criterion_04_ratio_preservation(presets):
    """Aspect ratio bit-identical through motion compensation, all presets."""
    checked = 0
    for name in ("baseline", "fast_camera", "occlusion", "small_objects"):
        for fr in presets.run(name, mc=True):
            for before, after in fr.diagnostics.aspect_pairs:
                assert after == before, f"{name} frame {fr.frame}: {before} -> {after}"
                checked += 1
    assert checked > 0
    _report(f"criterion 4: aspect ratio bit-identical across {checked} compensations")


# -- 5 ----------------------------------------------------------------------

def test_criterion_05_metric_oracles(presets):
    for name in ("baseline", "fast_camera", "occlusion", "small_objects"):
        gt = presets.gt(name)
        report = metrics.evaluate(gt, gt, sequence_name=name)
        assert report.mota == 100.0
        assert report.idf1 == 1.0
        assert report.ids == 0
        assert report.ml == 0

    assert metrics.mota(5, 10, 1, 100) == 84.0

    gt = as_frames(track_frames(1, range(1, 11), 0, 0))
    hyp = as_frames(track_frames(101, range(1, 6), 0, 0)
                    + track_frames(102, range(6, 11), 0, 0))
    assert metrics.idf1(gt, hyp).idf1 == 0.5

    from test_metrics import _exhaustive_idtp, _random_instance
    rng = np.random.default_rng(5001)
    for _ in range(20):
        gt_rows, hyp_rows = _random_instance(rng)
        g, h = as_frames(gt_rows), as_frames(hyp_rows)
        assert metrics.idf1(g, h).idtp == _exhaustive_idtp(g, h)
    _report("criterion 5: metric oracles (self-eval, Eq fixtures, exhaustive IDF1)")


# -- 6 ----------------------------------------------------------------------

def test_criterion_06_low_confidence_initiation(presets):
    start = time.perf_counter()
    disabled = presets.run_fresh("small_objects", low_init=False)
    assert all(not fr.outputs for fr in disabled), "tracks appeared with low-init off"

    enabled = presets.run_fresh("small_objects", low_init=True)
    elapsed = time.perf_counter() - start
    gt = presets.gt("small_objects")
    report = metrics.evaluate(gt, metrics_hyp(enabled), sequence_name="small_objects")
    fn_disabled = report.gt_total  # zero tracks: every gt instance missed
    assert report.mota >= 50.0, f"MOTA {report.mota:.1f}"
    assert report.fn <= 0.2 * fn_disabled, f"FN {report.fn} vs {fn_disabled}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(f"criterion 6: low-confidence initiation (MOTA {report.mota:.1f}, "
            f"FN {fn_disabled} -> {report.fn}, {elapsed:.0f}s)")


def metrics_hyp(results):
    from sftrack.cli import results_to_frames
    return results_to_frames(results)


# -- 7 ----------------------------------------------------------------------

def test_criterion_07_ablation_ordering(presets):
    summary = []
    for name in ("small_objects", "fast_camera"):
        gt = presets.gt(name)
        motas, idf1s = [], []
        for row_name, mc, low_init, traditional, embeds in ABLATION_ROWS:
            results = presets.run(name, mc=mc, low_init=low_init,
                                  traditional=traditional, embeddings=embeds)
            hyp = metrics_hyp(results)
            if any(hyp.values()):
                report = metrics.evaluate(gt, hyp, sequence_name=name)
                motas.append(report.mota)
                idf1s.append(report.idf1)
            else:
                motas.append(0.0)
                idf1s.append(0.0)
        for i in range(1, 4):
            assert motas[i] >= motas[i - 1] - 1e-9, f"{name} MOTA row {i}: {motas}"
            assert idf1s[i] >= idf1s[i - 1] - 1e-9, f"{name} IDF1 row {i}: {idf1s}"
        assert motas[-1] - motas[0] >= 5.0, f"{name} total gain {motas[-1] - motas[0]:.1f}"
        summary.append(f"{name}: " + " -> ".join(f"{m:.1f}" for m in motas))
    _report("criterion 7: ablation ordering (" + "; ".join(summary) + ")")


# -- 8 ----------------------------------------------------------------------

# sha256 of each preset's result file (default configuration), recorded
# before the per-detection cue refactor. Refactors keep these bytes; a change
# that must move them says so and records the new digests here.
PRESET_RESULT_SHA256 = {
    "baseline": "3836c943028d158a6545fe94556c648a78823494be644e33b5de724d5dae7b30",
    "fast_camera": "f3f596d3f3336603cfd411fee0c426e345f9f2479d6900f200c12621dc9369d5",
    "occlusion": "c486f43125790641aeee701dd4167b689ce9cfb80179c4e0dbf60495c6d51a65",
    "small_objects": "a1f1af24d27e948ad24eb5e2460c20ee9967f8ce0c0edaa0a5424148bf20a029",
}


def test_criterion_08_determinism(presets, tmp_path):
    for name in ("baseline", "fast_camera", "occlusion", "small_objects"):
        first = presets.run(name)
        second = presets.run_fresh(name)
        p1, p2 = tmp_path / f"{name}_1.txt", tmp_path / f"{name}_2.txt"
        write_results(p1, first)
        write_results(p2, second)
        assert p1.read_bytes() == p2.read_bytes(), f"{name} result files differ"
        assert hashlib.sha256(p1.read_bytes()).hexdigest() == PRESET_RESULT_SHA256[name], \
            f"{name} result file differs from the recorded digest"
        gt = presets.gt(name)
        r1 = metrics.evaluate(gt, metrics_hyp(first), sequence_name=name).to_json()
        r2 = metrics.evaluate(gt, metrics_hyp(second), sequence_name=name).to_json()
        assert r1 == r2, f"{name} reports differ"
    _report("criterion 8: byte-identical results and reports on repeated runs, "
            "matching the recorded digests")


# sha256 over the ``"<file sha256>  <relative path>\n"`` lines of every file
# a preset's ``generate`` writes (each frame, gt.txt, det.txt, seqinfo.ini),
# sorted by path; recorded before the background cache and the per-channel
# lattice kernel. Rendering changes keep these bytes.
PRESET_GENERATED_SHA256 = {
    "baseline": "18f62f79d7f4a1cd0d5b47ded844add82402d342e769a037efc22b5fd658f2e9",
    "fast_camera": "025812bca414e7cab141299caa7565c22986d6e7f3f2cadfa691042ee59e7323",
    "occlusion": "e14d7228d57d6824c51be70caf0ff78b8d89c69b8aca15d0d0800d6025d27f19",
    "small_objects": "234ea8f53c6a72b11d6d6ed6e6d7c67e060a21aed4812f251ebe3fd3e89ada44",
}


def generated_digest(root) -> str:
    files = sorted((p.relative_to(root).as_posix(), p) for p in root.rglob("*") if p.is_file())
    lines = "".join(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {rel}\n"
                    for rel, p in files)
    return hashlib.sha256(lines.encode()).hexdigest()


def test_generated_preset_bytes(presets):
    for name, expected in PRESET_GENERATED_SHA256.items():
        root = presets.generation(name).directory
        assert generated_digest(root) == expected, \
            f"{name} generated files differ from the recorded digest"
    _report("generated preset files match the recorded digests")


# -- 9 ----------------------------------------------------------------------

def test_criterion_09_performance(presets):
    presets.generation("fast_camera")  # exclude generation from the budget
    start = time.perf_counter()
    results = presets.run_fresh("fast_camera")
    elapsed = time.perf_counter() - start
    assert len(results) == 100
    assert elapsed < 30.0, f"100-frame tracked in {elapsed:.1f}s"
    _report(f"criterion 9: 100-frame 640x480 run with MC in {elapsed:.1f}s (< 30s)")


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_kalman_correctness():
    s = kalman.initiate((0, 10, 0.5, 20))
    worst_pred = 0.0
    for k in range(1, 31):
        s = kalman.predict(s)
        if k > 10:
            worst_pred = max(worst_pred, abs(s.mean[0] - 5.0 * k))
        s = kalman.update(s, (5.0 * k, 10, 0.5, 20))
    assert worst_pred < 0.5, f"one-step prediction error {worst_pred:.3f}"

    rng = np.random.default_rng(10001)
    s = kalman.initiate((50, 50, 1.0, 30))
    worst_sym = 0.0
    for _ in range(1000):
        s = kalman.predict(s)
        z = (50 + rng.normal(0, 5), 50 + rng.normal(0, 5),
             max(0.2, 1.0 + rng.normal(0, 0.05)), max(5.0, 30 + rng.normal(0, 2)))
        s = kalman.update(s, z)
        worst_sym = max(worst_sym, float(np.abs(s.covariance - s.covariance.T).max()))
    assert worst_sym < 1e-9, f"covariance asymmetry {worst_sym:.2e}"
    _report(f"criterion 10: Kalman prediction {worst_pred:.3f}px, "
            f"symmetry {worst_sym:.1e}")
