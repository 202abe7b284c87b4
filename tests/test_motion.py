import math

import numpy as np
import pytest

from sftrack import kalman, motion, synthetic
from sftrack.io_formats import load_sequence
from sftrack.motion import (LK_WINDOW, MC_DOWNSCALE, AffineTransform2D, apply_to_track,
                            constrain_scale, detect_features, downscale, estimate_affine,
                            estimate_camera_motion, motion_gray, rgb_to_gray,
                            track_features)


def textured(shape=(120, 160), seed=0, blur=True):
    """Band-limited random texture with usable gradients everywhere."""
    rng = np.random.default_rng(seed)
    img = rng.uniform(0, 255, size=shape)
    if blur:
        from scipy import ndimage
        img = ndimage.gaussian_filter(img, 1.2)
    return img


class TestGray:
    def test_luma_weights(self):
        rgb = np.zeros((1, 1, 3), dtype=np.uint8)
        rgb[0, 0] = (100, 50, 200)
        # 0.299*100 + 0.587*50 + 0.114*200 = 82.05 -> 82
        assert rgb_to_gray(rgb)[0, 0] == 82

    def test_2d_input_rounded_and_clipped(self):
        gray = rgb_to_gray(np.array([[127.6, 300.0, -2.0, 0.4]]))
        assert gray.dtype == np.uint8
        assert gray.tolist() == [[128, 255, 0, 0]]

    def test_2d_uint8_input_kept(self):
        img = np.arange(12, dtype=np.uint8).reshape(3, 4)
        assert rgb_to_gray(img) is img

    def test_motion_gray_is_downscaled_luma(self):
        rgb = np.random.default_rng(0).integers(0, 256, size=(9, 12, 3)).astype(np.uint8)
        gray = motion_gray(rgb)
        assert gray.dtype == np.float64
        assert gray.shape == (9 // MC_DOWNSCALE, 12 // MC_DOWNSCALE)
        assert np.array_equal(gray, downscale(rgb_to_gray(rgb), MC_DOWNSCALE))

    def test_downscale_box_average(self):
        img = np.arange(16, dtype=np.uint8).reshape(4, 4)
        small = downscale(img, 2)
        assert small.shape == (2, 2)
        assert small[0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)

    @pytest.mark.parametrize("factor", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(1, 1), (7, 5), (9, 13), (31, 17), (45, 61)])
    def test_downscale_matches_reshape_mean_bit_for_bit(self, factor, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1] + factor)
        for img in (rng.integers(0, 256, size=shape).astype(np.uint8),
                    rng.integers(0, 256, size=shape).astype(np.float64)):
            h2, w2 = shape[0] // factor, shape[1] // factor
            cropped = img[:h2 * factor, :w2 * factor].astype(np.float64)
            ref = cropped.reshape(h2, factor, w2, factor).mean(axis=(1, 3))
            out = downscale(img, factor)
            assert out.dtype == np.float64 and out.shape == ref.shape
            assert out.tobytes() == ref.tobytes()


class TestDetectFeatures:
    def test_uniform_image_empty(self):
        assert len(detect_features(np.full((64, 64), 128.0))) == 0

    def test_single_corner_found(self):
        img = np.full((100, 100), 50.0)
        img[50:, 50:] = 200.0
        pts = detect_features(img, max_count=10, quality=0.1, min_distance=5)
        assert len(pts) >= 1
        d = np.hypot(pts[:, 0] - 50, pts[:, 1] - 50).min()
        assert d <= 2.0

    def test_min_distance_respected(self):
        img = textured((100, 140), seed=1)
        pts = detect_features(img, max_count=100, quality=0.01, min_distance=10)
        assert len(pts) > 5
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        np.fill_diagonal(dist, np.inf)
        assert dist.min() >= 10

    def test_max_count(self):
        img = textured((100, 140), seed=2)
        assert len(detect_features(img, max_count=7, min_distance=3)) <= 7

    def test_empty_image_error(self):
        with pytest.raises(ValueError):
            detect_features(np.zeros((0, 0)))

    def test_color_image_error(self):
        with pytest.raises(ValueError, match="2-D"):
            detect_features(np.zeros((64, 64, 3)))


def sample_windows_per_sample(img, centers):
    """Reference window sampler: every sample of every 21x21 window is
    clipped to the image and bilinearly interpolated on its own."""
    h, w = img.shape
    radius = LK_WINDOW // 2
    rng = np.arange(-radius, radius + 1, dtype=float)
    offsets = np.stack(np.meshgrid(rng, rng, indexing="xy"), axis=-1)
    px = centers[:, 0][:, None, None] + offsets[None, :, :, 0]
    py = centers[:, 1][:, None, None] + offsets[None, :, :, 1]
    px = np.clip(px, 0.0, w - 1.001)
    py = np.clip(py, 0.0, h - 1.001)
    x0 = px.astype(int)
    y0 = py.astype(int)
    fx = px - x0
    fy = py - y0
    top = img[y0, x0] * (1 - fx) + img[y0, x0 + 1] * fx
    bot = img[y0 + 1, x0] * (1 - fx) + img[y0 + 1, x0 + 1] * fx
    return top * (1 - fy) + bot * fy


class TestSampleWindows:
    # Window centers _pyramidal_lk passes in: [margin, side - margin).
    MARGIN = LK_WINDOW // 2 + 1.0

    @pytest.mark.parametrize("shape", [(23, 23), (40, 57), (120, 160)])
    def test_block_gather_matches_per_sample_reference(self, shape):
        rng = np.random.default_rng(shape[1])
        h, w = shape
        img = rng.uniform(-300.0, 300.0, size=shape)
        hi_x, hi_y = w - self.MARGIN, h - self.MARGIN
        lo = self.MARGIN
        xs = np.concatenate([
            rng.uniform(lo, hi_x, 300),
            hi_x - rng.uniform(0.0, 0.001, 50),  # the clipped band at the upper margin
            [lo, np.nextafter(hi_x, 0.0), lo + 0.5, hi_x - 1e-12],
        ])
        ys = np.concatenate([
            rng.uniform(lo, hi_y, 300),
            hi_y - rng.uniform(0.0, 0.001, 50),
            [np.nextafter(hi_y, 0.0), lo, hi_y - 1e-12, lo + 0.5],
        ])
        centers = np.column_stack([xs, ys])
        # Every point also with only one coordinate in the band.
        centers = np.concatenate([centers, np.column_stack([xs, ys[::-1]])])
        got = motion._sample_windows(img, centers)
        want = sample_windows_per_sample(img, centers)
        assert got.shape == (len(centers), LK_WINDOW, LK_WINDOW)
        assert np.abs(got - want).max() <= 1e-9


class TestTrackFeatures:
    @pytest.mark.parametrize("side", [LK_WINDOW, LK_WINDOW + 1, LK_WINDOW + 2])
    def test_image_at_window_size(self, side):
        # A window with its 1-px margin needs side > 2 * (LK_WINDOW // 2 + 1):
        # 23 px fits one center column, 22 px and less fit none.
        img = textured((side, side), seed=side)
        pts = np.array([[11.0, 11.0], [11.5, 11.25], [side / 2, side / 2]])
        res = track_features(img, img, pts)
        assert res.status.shape == (3,) and res.status.dtype == bool
        if side <= LK_WINDOW + 1:
            assert not res.status.any()
        else:
            assert res.status[:2].all()
            assert np.abs(res.cur_points - res.prev_points)[:2].max() < 1e-3

    def test_identical_frames_zero_flow(self):
        img = textured(seed=3)
        pts = detect_features(img, max_count=50, min_distance=6)
        keep = ((pts[:, 0] > 12) & (pts[:, 0] < 160 - 12)
                & (pts[:, 1] > 12) & (pts[:, 1] < 120 - 12))
        res = track_features(img, img, pts[keep])
        assert res.status.all()
        disp = np.abs(res.cur_points - res.prev_points)
        assert disp.max() < 1e-3

    def test_integer_shift_recovered(self):
        img = textured((140, 180), seed=4)
        shifted = np.roll(np.roll(img, 2, axis=0), 3, axis=1)  # +3 x, +2 y
        pts = detect_features(img, max_count=60, min_distance=6)
        keep = ((pts[:, 0] > 25) & (pts[:, 0] < 180 - 25)
                & (pts[:, 1] > 25) & (pts[:, 1] < 140 - 25))
        pts = pts[keep]
        res = track_features(img, shifted, pts)
        flow = res.cur_points[res.status] - res.prev_points[res.status]
        assert res.status.mean() > 0.8
        err = np.hypot(flow[:, 0] - 3, flow[:, 1] - 2)
        assert err.mean() <= 0.1

    def test_featureless_point_lost(self):
        img = np.full((100, 100), 90.0)
        img[:30, :30] = textured((30, 30), seed=5)
        res = track_features(img, img, np.array([[70.0, 70.0]]))
        assert not res.status[0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            track_features(np.zeros((10, 10)), np.zeros((12, 10)), np.zeros((0, 2)))


class TestEstimateAffine:
    def test_identity_recovery(self):
        rng = np.random.default_rng(6)
        src = rng.uniform(0, 200, size=(40, 2))
        est = estimate_affine(src, src.copy(), seed=1)
        assert not est.fallback
        assert np.abs(est.transform.linear - np.eye(2)).max() < 1e-9
        assert np.abs(est.transform.translation).max() < 1e-9

    def test_similarity_recovery(self):
        rng = np.random.default_rng(7)
        src = rng.uniform(0, 640, size=(50, 2))
        true = AffineTransform2D.similarity(1.1, math.radians(5.0), (3.0, -2.0))
        dst = true.apply(src)
        est = estimate_affine(src, dst, seed=1)
        assert np.abs(est.transform.linear - true.linear).max() < 1e-6
        assert np.abs(est.transform.translation - true.translation).max() < 1e-6

    def test_outlier_robustness(self):
        rng = np.random.default_rng(8)
        src = rng.uniform(0, 640, size=(50, 2))
        true = AffineTransform2D.similarity(1.1, math.radians(5.0), (3.0, -2.0))
        dst = true.apply(src)
        for i in range(10):  # 20% outliers, kept well away from the truth
            while True:
                cand = rng.uniform(0, 640, size=2)
                if np.hypot(*(cand - dst[i])) > 10:
                    dst[i] = cand
                    break
        est = estimate_affine(src, dst, seed=1)
        assert np.abs(est.transform.linear - true.linear).max() < 1e-3
        assert np.abs(est.transform.translation - true.translation).max() < 1e-3
        assert est.inlier_ratio == pytest.approx(0.8, abs=0.05)

    def test_too_few_pairs_fallback(self):
        est = estimate_affine(np.zeros((2, 2)), np.zeros((2, 2)), seed=1)
        assert est.fallback
        assert est.transform.is_identity()

    def test_collinear_fallback(self):
        src = np.array([[float(i), 0.0] for i in range(10)])
        est = estimate_affine(src, src + 1.0, seed=1)
        assert est.fallback


class TestConstrainScale:
    def test_max_rule_diagonal(self):
        m = AffineTransform2D(np.diag([1.2, 0.9]), np.zeros(2))
        out = constrain_scale(m)
        assert np.allclose(out.linear, np.diag([1.2, 1.2]), atol=1e-12)

    def test_pure_rotation_unchanged(self):
        m = AffineTransform2D.similarity(1.0, math.radians(30), (0, 0))
        out = constrain_scale(m)
        assert np.allclose(out.linear, m.linear, atol=1e-12)

    def test_translation_untouched(self):
        m = AffineTransform2D(np.diag([0.8, 1.0]), np.array([5.0, 5.0]))
        out = constrain_scale(m)
        assert np.allclose(out.linear, np.eye(2), atol=1e-12)
        assert np.array_equal(out.translation, m.translation)

    def test_equal_column_norms(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            m = AffineTransform2D(rng.normal(scale=1.0, size=(2, 2)) + np.eye(2),
                                  rng.normal(size=2))
            out = constrain_scale(m)
            assert abs(out.scale_x - out.scale_y) < 1e-9

    def test_zero_scale_fallback(self):
        m = AffineTransform2D(np.array([[0.0, 0.0], [0.0, 1.0]]), np.ones(2))
        assert constrain_scale(m).is_identity()


class TestApplyToTrack:
    def state(self, cx=100, cy=80, a=0.5, h=40):
        s = kalman.initiate((cx, cy, a, h))
        s.mean[4:6] = (2.0, -1.0)
        return s

    def test_identity_unchanged(self):
        s = self.state()
        out = apply_to_track(AffineTransform2D.identity(), s)
        assert np.allclose(out.mean, s.mean, atol=1e-12)
        assert np.allclose(out.covariance, s.covariance, atol=1e-12)

    def test_uniform_scale_preserves_aspect_bitwise(self):
        s = self.state(a=0.5)
        m = AffineTransform2D(np.eye(2) * 1.2, np.zeros(2))
        out = apply_to_track(m, s)
        assert out.mean[2] == s.mean[2]   # bit-identical
        assert out.mean[3] == pytest.approx(48.0)

    def test_pure_translation(self):
        s = self.state()
        m = AffineTransform2D(np.eye(2), np.array([10.0, 0.0]))
        out = apply_to_track(m, s)
        assert out.mean[0] == pytest.approx(110.0)
        assert out.mean[2] == s.mean[2]
        assert out.mean[3] == s.mean[3]

    def test_rotation_maps_velocity(self):
        s = self.state()
        m = AffineTransform2D.similarity(1.0, math.radians(90), (0, 0))
        out = apply_to_track(m, s)
        assert out.mean[4] == pytest.approx(1.0, abs=1e-9)   # (2,-1) rotated 90deg
        assert out.mean[5] == pytest.approx(2.0, abs=1e-9)

    def test_aspect_bit_equal_random_transforms(self):
        rng = np.random.default_rng(10)
        s = self.state(a=0.7314159)
        for _ in range(100):
            m = constrain_scale(AffineTransform2D(
                np.eye(2) + rng.normal(scale=0.1, size=(2, 2)), rng.normal(size=2)))
            out = apply_to_track(m, s)
            assert out.mean[2] == s.mean[2]

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_stack_equals_single_states_bitwise(self, n):
        rng = np.random.default_rng(n)
        states = []
        for k in range(n):
            s = kalman.predict(self.state(*rng.uniform([0, 0, 0.3, 5], [600, 400, 2, 40])))
            s.mean[4:] = rng.normal(size=4)
            if k == 1:
                s.mean[3] = -s.mean[3]
            states.append(s)
        stack = kalman.KalmanState(np.reshape([s.mean for s in states], (-1, 8)),
                                   np.reshape([s.covariance for s in states], (-1, 8, 8)))
        m = constrain_scale(AffineTransform2D(
            np.eye(2) + rng.normal(scale=0.1, size=(2, 2)), rng.normal(size=2)))
        out = apply_to_track(m, stack)
        singles = [apply_to_track(m, s) for s in states]
        assert np.array_equal(out.mean, np.reshape([s.mean for s in singles], (-1, 8)))
        assert np.array_equal(out.covariance,
                              np.reshape([s.covariance for s in singles], (-1, 8, 8)))
        assert np.array_equal(out.mean[:, [2, 6]], stack.mean[:, [2, 6]])


class TestEndToEnd:
    def test_shifted_texture_camera_estimate(self):
        img = textured((200, 260), seed=11)
        rgb = np.clip(img, 0, 255).astype(np.uint8)[..., None].repeat(3, axis=2)
        shifted = np.roll(rgb, 6, axis=1)  # content moves +6 px in x
        est = estimate_camera_motion(motion_gray(rgb), motion_gray(shifted), seed=1)
        assert not est.fallback
        assert est.transform.translation[0] == pytest.approx(6.0, abs=0.25)
        assert abs(est.transform.translation[1]) < 0.25
        assert np.abs(est.transform.linear - np.eye(2)).max() < 0.01


class TestSceneAccuracy:
    def test_fast_camera_matches_scripted_motion(self, presets):
        """Estimates on the fast_camera preset against the scripted camera.

        Error of one frame pair is the largest displacement, between the
        estimated and the scripted transform, of the four image corners and
        the centre. The bounds were fixed before LK's backward re-track was
        removed, when this read mean 0.263 px and max 0.547 px.
        """
        spec = synthetic.preset("fast_camera")
        truth = synthetic.camera_transforms(spec)[0]
        sequence = load_sequence(presets.generation("fast_camera").directory)
        w, h = spec.width, spec.height
        probes = np.array([[0.0, 0.0], [w, 0.0], [0.0, h], [w, h], [w / 2, h / 2]])
        errors = []
        prev = motion_gray(sequence.read_frame(1))
        for k in range(2, spec.frames + 1):
            cur = motion_gray(sequence.read_frame(k))
            est = estimate_camera_motion(prev, cur, seed=k)
            assert not est.fallback, f"frame {k}: fallback"
            diff = est.transform.apply(probes) - truth[k - 1].apply(probes)
            errors.append(float(np.hypot(diff[:, 0], diff[:, 1]).max()))
            prev = cur
        assert np.mean(errors) <= 0.30, f"mean corner error {np.mean(errors):.3f} px"
        assert max(errors) <= 0.60, f"max corner error {max(errors):.3f} px"
