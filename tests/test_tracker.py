import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sftrack import appearance, kalman, motion
from sftrack.config import TrackerConfig
from sftrack.errors import NumericalError
from sftrack.tracker import Tracker, run_sequence
from sftrack.types import BoundingBox, Detection, from_cxcyah, to_cxcyah


def textured_frame(seed=0, h=120, w=160):
    rng = np.random.default_rng(seed)
    return rng.integers(40, 220, size=(h, w, 3)).astype(np.uint8)


FRAME = textured_frame()


def det(frame, x, y, w=20, h=20, score=0.9, cls=0):
    return Detection(frame, BoundingBox(x, y, w, h), score, cls)


def config(**kwargs):
    base = dict(mc_enabled=False)
    base.update(kwargs)
    return TrackerConfig(**base)


def columns(t: Tracker) -> list:
    """Every per-track column of ``t``; row i of each is one live track."""
    return [t.track_ids, t.miss_counts, t.kalman_state.mean, t.kalman_state.covariance,
            t.class_ids, t.track_embeddings, t.has_embedding, t.memories]


class TestBasics:
    def test_first_detection_starts_track(self):
        t = Tracker(config())
        r = t.step(1, FRAME, [det(1, 50, 40, score=0.9)])
        assert len(r.outputs) == 1
        track_id, cls, box, score = r.outputs[0]
        assert track_id == 1
        assert score == 0.9
        assert r.diagnostics.n_new_high == 1

    def test_empty_stream_no_tracks(self):
        frames = ((k, FRAME) for k in range(1, 6))
        results = run_sequence(frames, {}, config())
        assert all(not r.outputs for r in results)

    def test_frame_order_enforced(self):
        t = Tracker(config())
        t.step(2, FRAME, [])
        with pytest.raises(ValueError, match="not increasing"):
            t.step(2, FRAME, [])

    def test_wrong_frame_detection_rejected(self):
        t = Tracker(config())
        with pytest.raises(ValueError, match="frame 3"):
            t.step(1, FRAME, [det(3, 10, 10)])


class TestSecondAssociation:
    def test_low_score_redetection_keeps_identity(self):
        # High-confidence birth, then a low-confidence re-detection next to
        # the prediction is matched in the second stage.
        t = Tracker(config())
        r1 = t.step(1, FRAME, [det(1, 50, 40, score=0.9)])
        tid = r1.outputs[0][0]
        r2 = t.step(2, FRAME, [det(2, 51, 40, score=0.4)])
        assert r2.diagnostics.n_matched_second == 1
        assert r2.outputs[0][0] == tid
        assert t.track_ids.tolist() == [tid]
        assert t.miss_counts.tolist() == [0]  # active

    def test_score_equal_tau_goes_low(self):
        t = Tracker(config())
        r = t.step(1, FRAME, [det(1, 50, 40, score=0.7)])
        assert r.diagnostics.n_low == 1
        assert r.diagnostics.n_high == 0

    def test_iou_only_when_traditional_off(self):
        cfg = config(traditional_second_assoc=False)
        t = Tracker(cfg, handcrafted_fallback=False)
        t.step(1, FRAME, [det(1, 50, 40, score=0.9)])
        r2 = t.step(2, FRAME, [det(2, 51, 40, score=0.4)])
        assert r2.diagnostics.n_matched_second == 1


class TestLifecycle:
    def test_removed_at_grace(self):
        cfg = config(grace_frames=5)
        t = Tracker(cfg)
        t.step(1, FRAME, [det(1, 50, 40, score=0.9)])
        for k in range(2, 6):
            t.step(k, FRAME, [])
        assert t.track_ids.tolist() == [1]
        assert t.miss_counts.tolist() == [4]  # lost
        r = t.step(6, FRAME, [])
        assert r.diagnostics.n_removed == 1
        # Removed: the id and the row of every column are gone.
        assert t.track_ids.tolist() == [] and t.miss_counts.tolist() == []
        assert len(t.kalman_state.mean) == len(t.class_ids) == len(t.memories) == 0

    def test_thirty_frame_grace_default(self):
        t = Tracker(config())
        t.step(1, FRAME, [det(1, 50, 40, score=0.9)])
        for k in range(2, 31):
            t.step(k, FRAME, [])
        assert t.track_ids.tolist() == [1]
        assert t.miss_counts.tolist() == [29]  # lost
        t.step(31, FRAME, [])  # 30th consecutive miss
        assert t.track_ids.tolist() == []

    def test_lost_track_rematches_and_resets(self):
        t = Tracker(config())
        t.step(1, FRAME, [det(1, 50, 40, score=0.9)])
        t.step(2, FRAME, [])
        assert t.miss_counts.tolist() == [1]  # lost
        r = t.step(3, FRAME, [det(3, 50, 40, score=0.9)])
        assert t.track_ids.tolist() == [1]
        assert t.miss_counts.tolist() == [0]  # active again
        assert r.outputs[0][0] == 1

    def test_ids_never_reused(self):
        cfg = config(grace_frames=1)
        t = Tracker(cfg)
        t.step(1, FRAME, [det(1, 50, 40, score=0.9)])
        t.step(2, FRAME, [])  # removed immediately
        assert t.track_ids.tolist() == []
        r = t.step(3, FRAME, [det(3, 50, 40, score=0.9)])
        assert r.outputs[0][0] == 2

    def test_removed_tracks_leave_tracker(self):
        # Each target lives one frame and is removed at its first miss: the
        # tracker holds only the newest track, and ids keep growing.
        t = Tracker(config(grace_frames=1))
        seen = []
        for k in range(1, 201):
            r = t.step(k, FRAME, [det(k, 10 + 40 * (k % 3), 40, score=0.9)])
            seen += [o[0] for o in r.outputs]
            assert t.track_ids.tolist() == [k]
        assert seen == list(range(1, 201))

    def test_outputs_only_matched_tracks(self):
        t = Tracker(config())
        t.step(1, FRAME, [det(1, 50, 40, score=0.9)])
        r = t.step(2, FRAME, [])
        assert r.outputs == []


class TestFailedFrame:
    """A frame that raises after association leaves the tracker exactly as
    the previous frame left it."""

    @staticmethod
    def snapshot(t: Tracker) -> tuple:
        arrays = [np.array(c, copy=True) for c in columns(t)[:-1]]
        crops = [m.crop.copy() for m in t.memories]
        return arrays, crops, (t._next_id, t._last_frame_index)

    @pytest.mark.parametrize("fails, at", [
        # The lost track is matched again when the update raises.
        ("update", (52, 40)),
        # The track misses again and a far detection is born when the
        # initiation raises.
        ("initiate", (120, 90)),
    ], ids=["update", "initiate"])
    def test_failed_frame_changes_nothing(self, monkeypatch, fails, at):
        t = Tracker(config())
        t.step(1, FRAME, [det(1, 50, 40)])
        t.step(2, FRAME, [])
        assert t.miss_counts.tolist() == [1]
        arrays, crops, counters = self.snapshot(t)

        def raises(*args):
            raise NumericalError("singular innovation covariance")

        monkeypatch.setattr(kalman, fails, raises)
        with pytest.raises(NumericalError):
            t.step(3, FRAME, [det(3, *at)])
        got_arrays, got_crops, got_counters = self.snapshot(t)
        for got, want in zip(got_arrays, arrays, strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert len(got_crops) == 1 and np.array_equal(got_crops[0], crops[0])
        assert got_counters == counters
        # The next frame runs as if the failed one had never been fed.
        monkeypatch.undo()
        fresh = Tracker(config())
        fresh.step(1, FRAME, [det(1, 50, 40)])
        fresh.step(2, FRAME, [])
        later = [det(4, *at)]
        assert t.step(4, FRAME, later).outputs == fresh.step(4, FRAME, later).outputs


class TestLowInitiation:
    def test_disabled_all_low_scene_yields_nothing(self):
        cfg = config(low_init_enabled=False)
        t = Tracker(cfg)
        for k in range(1, 6):
            r = t.step(k, FRAME, [det(k, 50, 40, score=0.5)])
            assert r.outputs == []
        assert t.track_ids.tolist() == []

    def test_enabled_all_low_scene_tracks(self):
        cfg = config(low_init_enabled=True)
        t = Tracker(cfg)
        r1 = t.step(1, FRAME, [det(1, 50, 40, score=0.5)])
        assert r1.diagnostics.n_new_low == 1
        r2 = t.step(2, FRAME, [det(2, 51, 40, score=0.5)])
        assert r2.outputs[0][0] == r1.outputs[0][0]

    def test_rho_gate_blocks_dissimilar_low(self):
        # A same-class high detection exists but looks nothing like the low
        # detection, so the appearance gate blocks initiation.
        frame = np.zeros((120, 160, 3), dtype=np.uint8)
        frame[:, :, 0] = 30
        frame[40:60, 50:70] = (250, 10, 10)    # red high target
        frame[80:100, 120:140] = (10, 10, 250)  # blue low target
        cfg = config(rho=0.6)
        t = Tracker(cfg)
        r = t.step(1, frame, [det(1, 50, 40, score=0.9),
                              det(1, 120, 80, score=0.5)])
        assert r.diagnostics.n_new_high == 1
        assert r.diagnostics.n_new_low == 0

    def test_rho_gate_admits_similar_low(self):
        frame = np.zeros((120, 160, 3), dtype=np.uint8)
        frame[:, :, 0] = 30
        frame[40:60, 50:70] = (250, 10, 10)
        frame[80:100, 120:140] = (245, 12, 12)  # near-identical appearance
        cfg = config(rho=0.6)
        t = Tracker(cfg)
        r = t.step(1, frame, [det(1, 50, 40, score=0.9),
                              det(1, 120, 80, score=0.5)])
        assert r.diagnostics.n_new_low == 1

    def test_rho_gate_with_several_same_class_high(self):
        # Three same-class high detections and one of another class; the low
        # detection (index 4) is born only when its best same-class cosine
        # exceeds rho. Cosines to the low vector: 0.8, 0.0, 0.6 (same class),
        # 1.0 (other class).
        low = np.array([0.8, 0.6, 0.0])
        vectors = {0: np.array([1.0, 0.0, 0.0]), 1: np.array([0.0, 0.0, 1.0]),
                   2: np.array([0.0, 1.0, 0.0]), 3: low, 4: low}
        dets = [det(1, 5, 5, score=0.9), det(1, 40, 5, score=0.9),
                det(1, 75, 5, score=0.9), det(1, 110, 5, score=0.9, cls=1),
                det(1, 60, 80, score=0.5)]

        def births(cfg, table):
            t = Tracker(cfg, embeddings=table, handcrafted_fallback=False)
            return t.step(1, FRAME, dets).diagnostics

        table = {(1, j): v for j, v in vectors.items()}
        assert births(config(rho=0.75), table).n_new_low == 1   # 0.8 > 0.75
        assert births(config(rho=0.85), table).n_new_low == 0   # 0.8 <= 0.85
        # The best same-class high detection lacks an embedding: the others
        # (0.0, 0.6) decide, and the other-class 1.0 never counts.
        del table[(1, 0)]
        d = births(config(rho=0.65), table)
        assert (d.n_new_high, d.n_new_low) == (4, 0)
        # No same-class high detection has an embedding: the gate does not apply.
        for j in (0, 1, 2):
            table.pop((1, j), None)
        assert births(config(rho=0.99), table).n_new_low == 1


class TestDegenerateDetections:
    def test_zero_width_and_height_rows_dropped(self, caplog):
        t = Tracker(config())
        dets = [det(1, 50, 40, w=20, h=0), det(1, 90, 40, w=0, h=20),
                det(1, 10, 10, score=0.9)]
        with caplog.at_level("WARNING", logger="sftrack.tracker"):
            r = t.step(1, FRAME, dets)
        assert r.diagnostics.n_degenerate == 2
        assert r.diagnostics.n_high == 1 and r.diagnostics.n_low == 0
        assert [o[2] for o in r.outputs] == [dets[2].box]
        assert len([rec for rec in caplog.records if "zero width or height" in rec.message]) == 1
        r2 = t.step(2, FRAME, [det(2, 11, 10, score=0.9)])
        assert r2.diagnostics.n_degenerate == 0
        assert r2.outputs[0][0] == r.outputs[0][0]

    def test_embedding_rows_keep_file_order(self):
        # A dropped row still takes its det_index in the embedding table.
        e0 = np.array([1.0, 0.0])
        e1 = np.array([0.0, 1.0])
        table = {(1, 0): e0, (1, 1): e1}
        t = Tracker(config(), embeddings=table, handcrafted_fallback=False)
        t.step(1, FRAME, [det(1, 50, 40, h=0), det(1, 10, 10, score=0.9)])
        assert t.has_embedding.tolist() == [True]
        assert np.array_equal(t.track_embeddings[0], e1)


def held_arrays(obj, seen=None) -> list[np.ndarray]:
    """Every array reachable from ``obj`` through attributes and containers."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple, set)):
        children = list(obj)
    else:
        children = list(getattr(obj, "__dict__", {}).values())
    return [a for child in children for a in held_arrays(child, seen)]


class TestMemory:
    def test_degenerate_crop_keeps_the_rows_memory(self):
        # The second detection lies just past the image's right edge: it has
        # no crop, but it overlaps the track's box and matches in stage 1.
        t = Tracker(config())
        t.step(1, FRAME, [det(1, 150, 40)])
        memory = t.memories[0]
        patch = memory.patch.copy()
        r = t.step(2, FRAME, [det(2, 160.4, 40)])
        assert r.diagnostics.n_matched_first == 1 and r.outputs[0][0] == 1
        assert t.memories[0] is memory
        assert np.array_equal(memory.crop, FRAME[40:60, 150:160])
        assert np.array_equal(memory.patch, patch)

    def test_no_previous_frame_without_motion_compensation(self):
        t = Tracker(config())
        t.step(1, FRAME, [det(1, 50, 40, score=0.9)])
        assert t._prev_gray is None

    def test_previous_frame_kept_for_motion_compensation(self):
        t = Tracker(config(mc_enabled=True))
        t.step(1, FRAME, [])
        assert np.array_equal(t._prev_gray, motion.motion_gray(FRAME))

    def test_only_last_gray_frame_kept_after_motion_compensated_pass(self):
        # A camera panning over a static texture, with tracked targets, so
        # every frame after the first runs motion estimation.
        scene = textured_frame(seed=3, h=140, w=200)
        frames = [scene[10:130, 4 * k:4 * k + 160] for k in range(6)]
        t = Tracker(config(mc_enabled=True))
        for k, frame in enumerate(frames, start=1):
            r = t.step(k, frame, [det(k, 40 - 4 * k, 30), det(k, 100 - 4 * k, 70, score=0.3)])
            if k > 1:
                assert r.diagnostics.motion is not None
        last = frames[-1]
        gray = motion.motion_gray(last)
        assert np.array_equal(t._prev_gray, gray)
        assert t._prev_gray.nbytes <= last.nbytes
        # No pyramid level or gradient of any frame, and no frame, is held.
        level_shapes = {last.shape, last.shape[:2]}
        h, w = gray.shape
        for _ in range(motion.LK_LEVELS):
            level_shapes.add((h, w))
            h, w = (h + 1) // 2, (w + 1) // 2
        others = [a for a in held_arrays(t) if a is not t._prev_gray]
        assert others, "the walk reached no track state"
        assert not [a.shape for a in others if a.shape in level_shapes]
        assert not [a.shape for a in others if a.size >= gray.size]

    def test_no_held_array_shares_memory_with_a_frame(self):
        # High births, first-stage matches, second-stage matches (which read
        # histograms and patches) and low births, each on its own frame.
        frames = [textured_frame(seed=k) for k in range(1, 7)]
        t = Tracker(config())
        for k, frame in enumerate(frames, start=1):
            dets = [det(k, 40 + k, 30), det(k, 100, 70 + k, score=0.3)]
            if k == 1:
                dets.append(det(k, 100, 70, score=0.9))
            r = t.step(k, frame, dets)
        assert r.diagnostics.n_matched_first and r.diagnostics.n_matched_second
        held = held_arrays(t)
        assert any(a.dtype == np.float32 for a in held), "no memory patch was read"
        assert not [a.shape for a in held for f in frames if np.shares_memory(a, f)]


class TestLazyCues:
    """Histograms and MSE patches are computed only for second-stage pairs
    that pass the gate."""

    @staticmethod
    def counted(monkeypatch) -> dict[str, int]:
        calls = {"resize_bilinear": 0, "color_histogram": 0}
        for name in calls:
            def wrapper(*args, _name=name, _real=getattr(appearance, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(appearance, name, wrapper)
        return calls

    def test_all_high_detections_compute_no_cue(self, monkeypatch):
        calls = self.counted(monkeypatch)
        t = Tracker(config())
        for k in range(1, 6):
            t.step(k, FRAME, [det(k, 40 + k, 30), det(k, 100, 70, score=0.95)])
        assert len(t.track_ids) == 2
        assert calls == {"resize_bilinear": 0, "color_histogram": 0}

    def test_iou_only_second_stage_computes_no_cue(self, monkeypatch):
        calls = self.counted(monkeypatch)
        t = Tracker(config(traditional_second_assoc=False))
        t.step(1, FRAME, [det(1, 50, 40, score=0.9)])
        r = t.step(2, FRAME, [det(2, 51, 40, score=0.4)])
        assert r.diagnostics.n_matched_second == 1
        assert calls == {"resize_bilinear": 0, "color_histogram": 0}

    def test_gated_pair_computes_each_side_once_per_frame(self, monkeypatch):
        spots = [(10, 10), (120, 10), (10, 90)]
        t = Tracker(config())
        t.step(1, FRAME, [det(1, x, y) for x, y in spots])
        calls = self.counted(monkeypatch)
        for k, ((x, y), far) in enumerate(zip(spots, [(120, 95), (65, 50), (65, 95)]), start=2):
            # One low detection next to a track whose cues were never read,
            # one far from every track (it starts a track of its own).
            r = t.step(k, FRAME, [det(k, x + 1, y, score=0.4), det(k, *far, score=0.4)])
            assert r.diagnostics.n_matched_second == 1
            assert calls == {"resize_bilinear": 2, "color_histogram": 2}
            calls.update(resize_bilinear=0, color_histogram=0)

    def test_second_stage_match_hands_its_histogram_to_the_track(self, monkeypatch):
        # The histogram a second-stage match computed becomes the track's, so
        # reading the track on the next frame computes no histogram for it.
        # Its patch is computed again from the crop copy.
        t = Tracker(config())
        t.step(1, FRAME, [det(1, 50, 40)])
        calls = self.counted(monkeypatch)
        for k in (2, 3, 4):
            r = t.step(k, FRAME, [det(k, 50 + k, 40, score=0.4)])
            assert r.diagnostics.n_matched_second == 1
            assert calls == {"resize_bilinear": 2, "color_histogram": 2 if k == 2 else 1}
            calls.update(resize_bilinear=0, color_histogram=0)
        memory = t.memories[0]
        crop = FRAME[40:60, 54:74]
        assert np.array_equal(memory.crop, crop)
        monkeypatch.undo()
        assert np.array_equal(memory.histogram, appearance.color_histogram(crop))
        assert np.array_equal(memory.patch, appearance.resize_bilinear(
            crop, appearance.PATCH_SIZE).astype(np.float32))

    def test_fallback_descriptor_once_per_kept_detection(self, monkeypatch):
        # The benchmark's per-detection counts read these calls: one per
        # detection that survives the degenerate-box drop, per frame,
        # whatever the stage, including a box wholly off the image.
        crops = []
        real = appearance.fallback_embedding
        monkeypatch.setattr(appearance, "fallback_embedding",
                            lambda crop: crops.append(crop) or real(crop))
        t = Tracker(config())
        for k in range(1, 5):
            dets = [det(k, 40 + k, 30), det(k, 100, 70, score=0.4),
                    det(k, 10, 10, w=0), det(k, 500, 500)]
            crops.clear()
            r = t.step(k, FRAME, dets)
            assert r.diagnostics.n_degenerate == 1
            assert len(crops) == 3
            assert sum(c is None for c in crops) == 1


def box_of(state: kalman.KalmanState) -> BoundingBox:
    """One state's predicted box; zero-size at the center when the aspect
    ratio or the height is not positive."""
    cx, cy, a, h = (float(v) for v in state.mean[:4])
    if h <= 0 or a <= 0:
        return BoundingBox(cx, cy, 0.0, 0.0)
    return from_cxcyah(cx, cy, a, h)


class TestStackedKalmanBookkeeping:
    # grace_frames=2. Frame 1 births A, B, C, D; 2: A and D first stage, C
    # second stage, B lost; 3: A and B (B back within the grace period); 4:
    # C and D removed at the tail while E is born; 5: F born, B lost; 6: B
    # removed from the middle while G is born, E matched in the second stage.
    STREAM = [
        (1, [det(1, 20, 20), det(1, 60, 20), det(1, 100, 20), det(1, 20, 70)]),
        (2, [det(2, 23, 20), det(2, 101, 21, score=0.4), det(2, 21, 72)]),
        (3, [det(3, 26, 21), det(3, 61, 20)]),
        (4, [det(4, 29, 21), det(4, 62, 20), det(4, 120, 80)]),
        (5, [det(5, 32, 22), det(5, 122, 81), det(5, 60, 80)]),
        (6, [det(6, 35, 22), det(6, 123, 82, score=0.4), det(6, 62, 81), det(6, 90, 50)]),
        (7, [det(7, 38, 23), det(7, 125, 82), det(7, 64, 82), det(7, 91, 52)]),
    ]

    def test_predicted_boxes_equal_single_state_replay(self):
        """Each track's matched boxes, replayed through single-state
        initiate/predict/update, give the tracker's predicted boxes bit for
        bit on every frame."""
        t = Tracker(config(grace_frames=2))
        ref: dict[int, kalman.KalmanState] = {}
        misses: dict[int, int] = {}
        events = []
        for k, dets in self.STREAM:
            r = t.step(k, FRAME, dets)
            d = r.diagnostics
            events.append((d.n_matched_first, d.n_matched_second, d.n_new_high, d.n_removed))
            ref = {tid: kalman.predict(s) for tid, s in ref.items()}
            assert d.predicted_boxes == {tid: box_of(s) for tid, s in ref.items()}, f"frame {k}"
            matched = {tid: box for tid, _cls, box, _score in r.outputs}
            for tid, box in matched.items():
                z = to_cxcyah(box)
                ref[tid] = kalman.update(ref[tid], z) if tid in ref else kalman.initiate(z)
                misses[tid] = 0
            for tid in set(ref) - set(matched):
                misses[tid] += 1
                if misses[tid] == 2:
                    del ref[tid]
            assert t.track_ids.tolist() == sorted(ref), f"frame {k}"
            assert t.miss_counts.tolist() == [misses[i] for i in sorted(ref)], f"frame {k}"
        assert events == [(0, 0, 4, 0), (2, 1, 0, 0), (2, 0, 0, 0), (2, 0, 1, 2),
                          (2, 0, 1, 0), (2, 1, 1, 1), (4, 0, 0, 0)]


def update_embedding(current: np.ndarray | None, embedding: np.ndarray | None):
    """The one-vector running-embedding update that the embedding table
    replaced: copy the first embedding, then mix, renormalise, and fall back
    to the new vector when the mix has norm 0."""
    if embedding is None:
        return current
    if current is None:
        return embedding.copy()
    mixed = (appearance.EMBEDDING_MOMENTUM * current
             + (1.0 - appearance.EMBEDDING_MOMENTUM) * embedding)
    norm = np.linalg.norm(mixed)
    return mixed / norm if norm > 0 else embedding.copy()


class TestEmbeddingTable:
    # Identity of each detection of TestStackedKalmanBookkeeping.STREAM; E
    # and G are of class 1. Rows missing from the embedding table: A's
    # first-stage match on frame 3 and E's birth on frame 4. C (frame 2)
    # and E (frame 6) are second-stage matches with an embedding; C and D
    # leave at the tail of the table while E is born (frame 4), B from the
    # middle while G is born (frame 6).
    LABELS = ["ABCD", "ACD", "AB", "ABE", "AEF", "AEFG", "AEFG"]
    MISSING = {(3, 0), (4, 2)}
    DIM = 128

    def stream_and_table(self):
        rng = np.random.default_rng(11)
        identity = {c: rng.normal(size=self.DIM) for c in "ABCDEFG"}
        stream, table = [], {}
        for (k, dets), labels in zip(TestStackedKalmanBookkeeping.STREAM, self.LABELS):
            stream.append((k, [Detection(d.frame, d.box, d.score, int(c in "EG"))
                               for d, c in zip(dets, labels)]))
            for j, c in enumerate(labels):
                if (k, j) not in self.MISSING:
                    v = identity[c] / np.linalg.norm(identity[c]) + 0.03 * rng.normal(size=self.DIM)
                    table[(k, j)] = v / np.linalg.norm(v)
        return stream, table

    def test_rows_equal_one_vector_updates_bit_for_bit(self):
        stream, table = self.stream_and_table()
        # The fallback flag stays on: with a table it never runs.
        t = Tracker(config(grace_frames=2), embeddings=table)
        ref: dict[int, np.ndarray | None] = {}
        classes: dict[int, int] = {}
        events = []
        for k, dets in stream:
            r = t.step(k, FRAME, dets)
            d = r.diagnostics
            events.append((d.n_matched_first, d.n_matched_second, d.n_new_high, d.n_removed))
            for tid, cls, box, _score in r.outputs:
                j = next(j for j, x in enumerate(dets) if x.box is box)
                ref[tid] = update_embedding(ref.get(tid), table.get((k, j)))
                classes.setdefault(tid, cls)
            ids = t.track_ids.tolist()
            assert t.track_embeddings.shape == (len(ids), self.DIM), f"frame {k}"
            assert t.class_ids.tolist() == [classes[i] for i in ids], f"frame {k}"
            assert t.has_embedding.tolist() == [ref[i] is not None for i in ids], f"frame {k}"
            for row, tid in enumerate(ids):
                if ref[tid] is not None:
                    assert np.array_equal(t.track_embeddings[row], ref[tid]), (k, tid)
        assert events == [(0, 0, 4, 0), (2, 1, 0, 0), (2, 0, 0, 0), (2, 0, 1, 2),
                          (2, 0, 1, 0), (2, 1, 1, 1), (4, 0, 0, 0)]
        assert set(classes.values()) == {0, 1}

    def test_update_matches_one_vector_update_on_random_rows(self):
        rng = np.random.default_rng(4)
        n, dim = 300, 33
        table = rng.normal(size=(n, dim)) * rng.uniform(0.01, 10.0, size=(n, 1))
        has = rng.uniform(size=n) < 0.7
        rows = rng.permutation(n)[:200]
        new = rng.normal(size=(200, dim))
        # A zero mix: the old row and the new vector are both zero.
        table[rows[0]] = 0.0
        has[rows[0]] = True
        new[0] = 0.0
        got, got_has = appearance.update_embeddings(table, has, rows, new)
        assert got_has.tolist() == [h or i in set(rows.tolist()) for i, h in enumerate(has)]
        for i in range(n):
            old = table[i] if has[i] else None
            hit = np.flatnonzero(rows == i)
            want = update_embedding(old, new[hit[0]]) if hit.size else old
            if want is not None:
                assert np.array_equal(got[i], want), i


class TestPredictedBoxes:
    def test_mapping_is_read_only_and_built_on_read(self):
        t = Tracker(config())
        t.step(1, FRAME, [det(1, 50, 40), det(1, 100, 70)])
        boxes = t.step(2, FRAME, []).diagnostics.predicted_boxes
        assert len(boxes) == 2 and boxes._built is None
        assert list(boxes) == [1, 2]
        assert boxes[1] == box_of(kalman.predict(kalman.initiate(to_cxcyah(BoundingBox(50, 40, 20, 20)))))
        assert boxes._built is not None
        with pytest.raises(TypeError):
            boxes[3] = BoundingBox(0, 0, 1, 1)

    def test_non_finite_prediction_is_a_numerical_error(self, monkeypatch):
        t = Tracker(config())
        t.step(1, FRAME, [det(1, 50, 40)])
        real = kalman.predict

        def broken(state):
            out = real(state)
            out.mean[:, 0] = np.nan
            return out

        monkeypatch.setattr(kalman, "predict", broken)
        with pytest.raises(NumericalError, match="non-finite"):
            t.step(2, FRAME, [det(2, 52, 40)])
        # The failed frame left every column with the same one row.
        assert {len(c) for c in columns(t)} == {1}


class TestByteEquivalence:
    def test_embeddings_unused_without_provider(self):
        cfg = config(low_init_enabled=False, traditional_second_assoc=False)
        t = Tracker(cfg, embeddings=None, handcrafted_fallback=False)
        t.step(1, FRAME, [det(1, 50, 40, score=0.9)])
        r = t.step(2, FRAME, [det(2, 52, 40, score=0.9)])
        assert not r.diagnostics.used_embeddings
        assert r.diagnostics.n_matched_first == 1

    def test_embeddings_used_with_fallback_provider(self):
        t = Tracker(config())
        t.step(1, FRAME, [det(1, 50, 40, score=0.9)])
        r = t.step(2, FRAME, [det(2, 52, 40, score=0.9)])
        assert r.diagnostics.used_embeddings


class TestClassPartition:
    def test_cross_class_never_matches(self):
        t = Tracker(config())
        t.step(1, FRAME, [det(1, 50, 40, score=0.9, cls=1)])
        r = t.step(2, FRAME, [det(2, 50, 40, score=0.9, cls=2)])
        # same place, different class: old track unmatched, new track created
        assert r.diagnostics.n_matched_first == 0
        assert r.diagnostics.n_new_high == 1


class TestRunSequence:
    def test_missing_image_for_detections(self):
        frames = [(1, FRAME)]
        dets = {1: [det(1, 10, 10)], 5: [det(5, 10, 10)]}
        with pytest.raises(ValueError, match="no image"):
            run_sequence(iter(frames), dets, config())

    def test_deterministic(self):
        dets = {k: [det(k, 40 + k, 40, score=0.9)] for k in range(1, 8)}
        out1 = run_sequence(((k, FRAME) for k in range(1, 8)), dets, config())
        out2 = run_sequence(((k, FRAME) for k in range(1, 8)), dets, config())
        assert [(r.frame, r.outputs) for r in out1] == [(r.frame, r.outputs) for r in out2]


class TestFileEmbeddings:
    def test_embedding_table_applied(self):
        e1 = np.zeros(4); e1[0] = 1.0
        e2 = np.zeros(4); e2[1] = 1.0
        table = {(1, 0): e1, (2, 0): e1}
        t = Tracker(config(), embeddings=table, handcrafted_fallback=False)
        t.step(1, FRAME, [det(1, 50, 40, score=0.9)])
        r = t.step(2, FRAME, [det(2, 52, 40, score=0.9)])
        assert r.diagnostics.used_embeddings
        assert r.diagnostics.n_matched_first == 1

    def test_row_missing_from_table_means_no_embedding(self, monkeypatch):
        # With a table, a detection without a row has no embedding, even
        # with the hand-crafted fallback on: the first stage scores it by IoU
        # and the rho gate cannot judge it.
        calls = []
        monkeypatch.setattr(appearance, "fallback_embedding", lambda crop: calls.append(crop))
        e = np.array([1.0, 0.0, 0.0, 0.0])
        t = Tracker(config(rho=0.99), embeddings={(1, 0): e})
        t.step(1, FRAME, [det(1, 50, 40)])
        r = t.step(2, FRAME, [det(2, 52, 40)])
        assert r.diagnostics.n_matched_first == 1
        assert not r.diagnostics.used_embeddings
        r = t.step(3, FRAME, [det(3, 54, 40), det(3, 120, 90, score=0.4)])
        assert (r.diagnostics.n_matched_first, r.diagnostics.n_new_low) == (1, 1)
        assert calls == []
        assert t.has_embedding.tolist() == [True, False]
        assert np.array_equal(t.track_embeddings[0], e)


TAU = TrackerConfig().tau
# Sizes are 0 (dropped as degenerate) or at least 1e-3 px: a subnormal
# height makes the aspect ratio overflow, which no detector emits.
SIZES = st.floats(0.0, 80.0).map(lambda v: 0.0 if v < 1e-3 else v)
SCORES = st.one_of(st.sampled_from([0.0, TAU, 1.0]), st.floats(0.0, 1.0))


@st.composite
def detection_streams(draw):
    """(frame, image, detections) tuples on 128x96 frames: boxes may leave
    the image, repeat within a frame or be degenerate; frames may be empty
    or skip indices. Each image is one random texture shifted by a few px."""
    texture = np.random.default_rng(draw(st.integers(0, 2 ** 16))).integers(
        0, 256, size=(96, 128, 3), dtype=np.uint8)
    frame = 0
    stream = []
    for _ in range(draw(st.integers(1, 8))):
        frame += draw(st.integers(1, 3))
        rows = draw(st.lists(st.tuples(st.floats(-40.0, 160.0), st.floats(-40.0, 120.0),
                                       SIZES, SIZES, SCORES, st.integers(0, 1)),
                             max_size=6))
        rows += draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []
        dets = [Detection(frame, BoundingBox(x, y, w, h), score, cls)
                for x, y, w, h, score, cls in rows]
        shift = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
        stream.append((frame, np.roll(texture, shift, axis=(0, 1)), dets))
    return stream


@settings(max_examples=100, deadline=None)
@given(detection_streams(), st.booleans())
def test_step_property_random_streams(stream, mc_enabled):
    """Any such stream runs to completion, with MC off or on, with unique
    ids per frame, and two fresh trackers give the same outputs. The frames
    are large enough for camera estimates: the 64x48 image MC sees after
    downscaling fits the 21-px LK window."""
    config = TrackerConfig(mc_enabled=mc_enabled)
    runs = []
    for _ in range(2):
        tracker = Tracker(config)
        outputs = []
        for frame, image, dets in stream:
            result = tracker.step(frame, image, dets)
            ids = [o[0] for o in result.outputs]
            assert len(ids) == len(set(ids)), f"frame {frame}: duplicate ids {ids}"
            outputs.append(result.outputs)
        runs.append(outputs)
    assert runs[0] == runs[1]
