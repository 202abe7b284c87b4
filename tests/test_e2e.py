"""End-to-end scenarios on the versioned presets (session-cached runs)."""

from sftrack import metrics
from sftrack.cli import results_to_frames


def _box_key(box):
    return (f"{box.left:.2f}", f"{box.top:.2f}", f"{box.width:.2f}", f"{box.height:.2f}")


class TestBaselinePreset:
    def test_layout_on_disk(self, presets):
        gen = presets.generation("baseline")
        assert (gen.directory / "seqinfo.ini").exists()
        assert (gen.directory / "gt.txt").exists()
        assert (gen.directory / "det.txt").exists()
        assert len(list((gen.directory / "frames").glob("*.ppm"))) == 60

    def test_perfect_detections_reproduce_gt_boxes(self, presets):
        # Zero-noise scene: reported boxes match ground truth exactly
        # (identities may differ).
        gt = presets.gt("baseline")
        results = presets.run("baseline")
        for fr in results:
            got = {_box_key(box) for _tid, _cls, box, _s in fr.outputs}
            want = {_box_key(r.box) for r in gt[fr.frame]}
            assert got == want, f"frame {fr.frame}"

    def test_all_ablation_rows_within_two_points(self, presets):
        # An easy scene: no configuration choice should move the needle.
        from sftrack.cli import ABLATION_ROWS
        gt = presets.gt("baseline")
        motas = []
        for _name, mc, low_init, traditional, embeds in ABLATION_ROWS:
            hyp = results_to_frames(presets.run("baseline", mc=mc, low_init=low_init,
                                                traditional=traditional,
                                                embeddings=embeds))
            motas.append(metrics.evaluate(gt, hyp, sequence_name="baseline").mota)
        assert max(motas) - min(motas) <= 2.0, motas


class TestFastCameraPreset:
    def test_camera_recovery_closes_the_loop(self, presets):
        # Estimating motion between rendered frames recovers the scripted
        # camera transform: translation within 0.5 px, scale within 1%.
        import numpy as np
        from sftrack.io_formats import load_sequence
        from sftrack.motion import estimate_camera_motion, motion_gray
        gen = presets.generation("fast_camera")
        seq = load_sequence(gen.directory)
        prev = motion_gray(seq.read_frame(1))
        for k in range(2, 12):
            cur = motion_gray(seq.read_frame(k))
            est = estimate_camera_motion(prev, cur, seed=k)
            true = gen.motions[k - 1]
            assert not est.fallback
            assert np.abs(est.transform.translation - true.translation).max() <= 0.5
            assert abs(est.transform.scale_x / true.scale_x - 1.0) <= 0.01
            prev = cur

    def test_no_mc_strictly_lower_mota(self, presets):
        gt = presets.gt("fast_camera")
        with_mc = metrics.evaluate(
            gt, results_to_frames(presets.run("fast_camera", mc=True)),
            sequence_name="fast_camera").mota
        without_mc = metrics.evaluate(
            gt, results_to_frames(presets.run("fast_camera", mc=False)),
            sequence_name="fast_camera").mota
        assert without_mc < with_mc


class TestOcclusionPreset:
    def test_identity_survives_the_band(self, presets):
        # The mover disappears behind the occluder and re-emerges within the
        # grace period; its identity must hold for the whole sequence.
        gt = presets.gt("occlusion")
        hyp = results_to_frames(presets.run("occlusion"))
        report = metrics.evaluate(gt, hyp, sequence_name="occlusion")
        assert report.ids == 0
        assert report.mt == 3 and report.ml == 0
        assert report.fp == 0

    def test_detections_vanish_behind_band(self, presets):
        # Sanity on the scenario itself: there are frames with the mover's
        # ground truth present but no detection for it.
        gen = presets.generation("occlusion")
        gaps = [k for k in range(1, 81)
                if any(r.obj_id == 1 for r in gen.ground_truth[k])
                and len(gen.detections[k]) < len(gen.ground_truth[k])]
        assert len(gaps) >= 5


class TestSmallObjectsPreset:
    def test_track_count_matches_objects(self, presets):
        results = presets.run("small_objects")
        ids = {tid for fr in results for tid, _c, _b, _s in fr.outputs}
        # 8 real objects plus occasional false-positive births; identity
        # creation must stay bounded.
        assert len(ids) <= 8 + 25

    def test_crossing_pair_keeps_identities(self, presets):
        # Objects 7 and 8 cross near frame 75; with the full configuration
        # their identities must not merge into one hypothesis.
        gt = presets.gt("small_objects")
        hyp = results_to_frames(presets.run("small_objects"))
        clear = metrics.clear_match(*metrics.remove_ignored(gt, hyp))
        by_frame = clear.correspondences
        late = [dict(by_frame.get(k, [])) for k in range(85, 101)]
        hyp_for_7 = {m[7] for m in late if 7 in m}
        hyp_for_8 = {m[8] for m in late if 8 in m}
        assert hyp_for_7 and hyp_for_8
        assert hyp_for_7.isdisjoint(hyp_for_8)
