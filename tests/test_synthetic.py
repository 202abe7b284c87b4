import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from sftrack import synthetic
from sftrack.errors import ConfigError
from sftrack.io_formats import read_mot_detections, read_ppm, read_visdrone
from sftrack.motion import AffineTransform2D
from sftrack.rng import hash_coords
from sftrack.synthetic import (CameraSpec, NoiseSpec, ObjectSpec, ScenarioSpec,
                               build_annotations, camera_transforms, generate,
                               parse_scenario, preset, render_frame,
                               write_scenario)


def tiny_spec(**kwargs):
    defaults = dict(
        name="tiny", seed=9, frames=6, width=160, height=120,
        objects=[
            ObjectSpec(class_id=4, width=24, height=20, x=50, y=40, color=(200, 60, 60)),
            ObjectSpec(class_id=4, width=20, height=22, x=110, y=80,
                       path="linear", vx=-1.0, vy=0.5, color=(60, 80, 200)),
        ])
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


def dir_digest(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestDeterminism:
    def test_identical_digests(self, tmp_path):
        spec = tiny_spec()
        generate(spec, tmp_path / "a")
        generate(spec, tmp_path / "b")
        da, db = dir_digest(tmp_path / "a"), dir_digest(tmp_path / "b")
        assert da == db
        assert len(da) == 6 + 3  # frames + gt + det + manifest

    def test_seed_changes_output(self, tmp_path):
        generate(tiny_spec(), tmp_path / "a")
        generate(tiny_spec(seed=10), tmp_path / "b")
        assert dir_digest(tmp_path / "a") != dir_digest(tmp_path / "b")


class TestZeroNoise:
    def test_detections_equal_gt_with_full_confidence(self, tmp_path):
        out = tmp_path / "seq"
        generate(tiny_spec(), out)
        gt = read_visdrone(out / "gt.txt", mode="gt")
        det = read_mot_detections(out / "det.txt")
        for frame, rows in gt.items():
            boxes_gt = {(r.box.left, r.box.top, r.box.width, r.box.height) for r in rows}
            boxes_det = {(d.box.left, d.box.top, d.box.width, d.box.height)
                         for d in det[frame]}
            assert boxes_gt == boxes_det
            assert all(d.score == 1.0 for d in det[frame])


class TestConfidenceCurve:
    def test_curve_shape(self):
        noise = NoiseSpec(conf_floor=0.3, conf_ceil=0.95, conf_knee_area=1000.0)
        # base(a) = 0.3 + 0.65 * a / 1000, saturating at the knee
        assert noise.base_confidence(0) == pytest.approx(0.3)
        assert noise.base_confidence(500) == pytest.approx(0.625)
        assert noise.base_confidence(1000) == pytest.approx(0.95)
        assert noise.base_confidence(5000) == pytest.approx(0.95)
        for area in (40, 120, 300, 600):
            assert noise.base_confidence(area) < 0.7

    def test_spec_scores_below_tau(self, tmp_path):
        objs = [ObjectSpec(class_id=1, width=8, height=10, x=30 + 25 * i, y=40,
                           color=(150, 60, 60)) for i in range(4)]
        spec = tiny_spec(objects=objs,
                         noise=NoiseSpec(conf_floor=0.3, conf_ceil=0.95,
                                         conf_knee_area=1000.0, conf_noise=0.02,
                                         conf_clamp_lo=0.05, conf_clamp_hi=0.99))
        _gt, dets, _m, _w = build_annotations(spec)
        scores = [d.score for rows in dets.values() for d in rows]
        assert scores and max(scores) < 0.7


class TestCameraMotion:
    def test_translation_moves_content_opposite(self):
        spec = tiny_spec(camera=CameraSpec(pattern="linear", trans_amp_x=5.0))
        gt, _d, motions, w2i = build_annotations(spec)
        static_box = {f: [r for r in gt[f] if r.obj_id == 1][0].box for f in gt}
        for f in range(2, spec.frames + 1):
            assert static_box[f].left - static_box[f - 1].left == pytest.approx(-5.0, abs=1e-9)
            assert static_box[f].width == pytest.approx(static_box[f - 1].width, abs=1e-9)

    def test_motion_equals_inverse_camera(self):
        spec = tiny_spec(camera=CameraSpec(pattern="zigzag", rot_amp_deg=2.0,
                                           trans_amp_x=4.0, trans_amp_y=3.0,
                                           scale_amp=0.01))
        _gt, _d, motions, w2i = build_annotations(spec)
        center = (spec.width / 2, spec.height / 2)
        for k in range(2, spec.frames + 1):
            scale, rot, tx, ty = spec.camera.delta_params(k)
            from sftrack.motion import AffineTransform2D
            cam = AffineTransform2D.similarity(scale, math.radians(rot), (tx, ty), center)
            expected = cam.inverse()
            got = motions[k - 1]
            assert np.allclose(got.linear, expected.linear, atol=1e-12)
            assert np.allclose(got.translation, expected.translation, atol=1e-9)

    def test_cumulative_composition(self):
        spec = tiny_spec(camera=CameraSpec(pattern="sinusoid", trans_amp_x=6.0,
                                           period=10.0))
        _gt, _d, motions, w2i = build_annotations(spec)
        p = np.array([30.0, 40.0])
        for k in range(2, spec.frames + 1):
            a = w2i[k - 1].apply(p)
            b = motions[k - 1].apply(w2i[k - 2].apply(p))
            assert np.allclose(a, b, atol=1e-9)


class TestOcclusion:
    def test_confidence_dips_behind_band(self):
        from sftrack.synthetic import OccluderSpec
        spec = tiny_spec(
            frames=30,
            objects=[ObjectSpec(class_id=4, width=20, height=18, x=20, y=60,
                                path="linear", vx=4.0, color=(200, 60, 60))],
            occluders=[OccluderSpec(x=80, y=60, width=24, height=120,
                                    color=(30, 30, 30))],
            noise=NoiseSpec(conf_floor=0.9, conf_ceil=0.9, conf_knee_area=1.0,
                            occlusion_penalty=0.6, occlusion_drop=0.95))
        _gt, dets, _m, _w = build_annotations(spec)
        scores = {f: rows[0].score if rows else None for f, rows in dets.items()}
        assert scores[2] == pytest.approx(0.9)
        assert min(s for s in scores.values() if s is not None) < 0.5

    def test_scores_match_test_against_every_layer(self):
        # The per-object reference: every later object and every occluder is
        # tested, overlapping or not.
        from sftrack.synthetic import OccluderSpec, _image_box, _occluded_fraction
        rng = np.random.default_rng(3)
        objects = [ObjectSpec(class_id=4, width=rng.uniform(4, 30), height=rng.uniform(4, 30),
                              x=rng.uniform(-10, 170), y=rng.uniform(-10, 130), path="linear",
                              vx=rng.uniform(-3, 3), vy=rng.uniform(-3, 3))
                   for _ in range(60)]
        spec = tiny_spec(frames=8, objects=objects,
                         camera=CameraSpec(pattern="zigzag", rot_amp_deg=2.0, trans_amp_x=4.0),
                         occluders=[OccluderSpec(x=80, y=60, width=20, height=60)],
                         noise=NoiseSpec(conf_floor=0.9, conf_ceil=0.9, conf_knee_area=1.0,
                                         occlusion_penalty=0.5, occlusion_drop=0.6))
        gt, dets, _m, w2i = build_annotations(spec)
        fractions = []
        for k, rows in gt.items():
            boxes = [_image_box(obj.center_at(k), obj.width, obj.height, w2i[k - 1])
                     for obj in spec.objects]
            layers = boxes + [_image_box((occ.x, occ.y), occ.width, occ.height, w2i[k - 1])
                              for occ in spec.occluders]
            want = []
            for row in rows:
                frac = _occluded_fraction(row.box, layers[row.obj_id:])
                fractions.append(frac)
                if frac < 0.6:
                    want.append(0.9 - 0.5 * frac)
            assert [d.score for d in dets[k]] == want
        assert any(0.0 < f < 0.6 for f in fractions) and any(f >= 0.6 for f in fractions)


class TestSpecFiles:
    def test_round_trip(self, tmp_path):
        spec = tiny_spec(camera=CameraSpec(pattern="zigzag", rot_amp_deg=1.5,
                                           trans_amp_x=3.0))
        path = tmp_path / "scenario.cfg"
        write_scenario(spec, path)
        parsed = parse_scenario(path.read_text(), source=str(path))
        assert parsed == spec

    def test_missing_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_scenario("frames = 5\nwidth = 64\nheight = 48\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="wibble"):
            parse_scenario("seed = 1\nwibble = 2\n")

    # Values that parsed before but that generate could not render: a typo'd
    # path moved the object linearly, and the others failed after frames/
    # was created.
    @pytest.mark.parametrize("section, key, value", [
        ("object", "path", "sinusiodal"),
        ("camera", "pattern", "spiral"),
        ("object", "color", "1,2"),
        ("object", "color", "1,2,3,4"),
        ("object", "color", "0,256,0"),
        ("occluder", "color", "-1,0,0"),
        ("occluder", "color", "red"),
        # Non-finite numbers, a negative false-positive rate and a period
        # that is not positive (a sinusoid divides by it) failed in generate.
        ("noise", "fp_rate", "inf"),
        ("noise", "fp_rate", "-0.5"),
        ("noise", "pos_jitter", "nan"),
        ("object", "x", "inf"),
        ("camera", "trans_amp_x", "-inf"),
        ("object", "period", "0"),
        ("camera", "period", "-20"),
    ])
    def test_bad_value_rejected_naming_its_key(self, section, key, value):
        # Noise keys are top-level.
        line = f"{key} = {value}\n"
        text = f"seed = 1\n{line}" if section == "noise" else f"seed = 1\n\n[{section}]\n{line}"
        with pytest.raises(ConfigError, match=f"{section} key {key}: '{value}'"):
            parse_scenario(text)

    def test_every_known_choice_parses(self):
        for path in ("static", "linear", "sinusoidal"):
            assert parse_scenario(f"seed = 1\n[object]\npath = {path}\n").objects[0].path == path
        for pattern in ("static", "linear", "sinusoid", "zigzag"):
            assert parse_scenario(f"seed = 1\n[camera]\npattern = {pattern}\n"
                                  ).camera.pattern == pattern


class TestPresets:
    def test_known_names(self):
        for name in ("baseline", "fast_camera", "occlusion", "small_objects"):
            spec = preset(name)
            assert spec.frames >= 60
            assert spec.width == 640 and spec.height == 480

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="nope"):
            preset("nope")

    def test_baseline_noise_off(self):
        spec = preset("baseline")
        assert len(spec.objects) == 5
        assert spec.camera.pattern == "static"
        assert spec.noise == NoiseSpec()

    def test_fast_camera_amplitudes(self):
        spec = preset("fast_camera")
        assert spec.camera.rot_amp_deg == 3.0
        assert max(spec.camera.trans_amp_x, spec.camera.trans_amp_y) <= 15.0

    def test_small_objects_definition(self):
        spec = preset("small_objects")
        heights = [o.height for o in spec.objects]
        assert min(heights) >= 8 and max(heights) <= 14
        _gt, dets, _m, _w = build_annotations(spec)
        scores = [d.score for rows in dets.values() for d in rows]
        assert 0.30 <= min(scores) and max(scores) <= 0.65

    def test_render_has_texture(self):
        spec = preset("baseline")
        _m, w2i = camera_transforms(spec)
        img = render_frame(spec, 1, w2i[0])
        assert img.std() > 10  # textured, not flat


def reference_lattice_noise(seed, salt, wx, wy, cell):
    """The interleaved (cells, 3) table kernel that the per-channel
    ``_lattice_noise`` replaced, kept as its bit-level oracle."""
    gx = np.floor(wx / cell)
    gy = np.floor(wy / cell)
    fx = (wx / cell - gx)[..., None]
    fy = (wy / cell - gy)[..., None]
    ix = gx.astype(np.int64)
    iy = gy.astype(np.int64)

    x_min, x_max = int(ix.min()), int(ix.max())
    y_min, y_max = int(iy.min()), int(iy.max())
    lat_x = np.arange(x_min, x_max + 2, dtype=np.int64)
    lat_y = np.arange(y_min, y_max + 2, dtype=np.int64)
    lx, ly = np.meshgrid(lat_x, lat_y, indexing="ij")
    h = hash_coords(seed, lx, ly, salt)
    ny = h.shape[1]
    table = np.empty((h.size, 3), dtype=np.float32)
    flat = h.reshape(-1)
    table[:, 0] = (flat & np.uint64(0xFF)).astype(np.float32) / 255.0
    table[:, 1] = ((flat >> np.uint64(8)) & np.uint64(0xFF)).astype(np.float32) / 255.0
    table[:, 2] = ((flat >> np.uint64(16)) & np.uint64(0xFF)).astype(np.float32) / 255.0

    base = (ix - x_min) * ny + (iy - y_min)
    c00 = table[base]
    c10 = table[base + ny]
    c01 = table[base + 1]
    c11 = table[base + ny + 1]
    fx = fx.astype(np.float32)
    fy = fy.astype(np.float32)
    top = c00 * (1 - fx) + c10 * fx
    bot = c01 * (1 - fx) + c11 * fx
    return top * (1 - fy) + bot * fy


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float32
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


class TestLatticeKernel:
    @pytest.mark.parametrize("cell", [24.0, 6.0, 4.0])
    @pytest.mark.parametrize("scale,rot_deg,shift", [
        (1.0, 0.0, (0.0, 0.0)),
        (1.07, 9.0, (-700.0, -515.0)),    # rotated and zoomed, negative world
        (0.93, -23.0, (250.0, -80.0)),
    ])
    def test_full_grid_matches_reference(self, cell, scale, rot_deg, shift):
        px, py = synthetic._pixel_grid(640, 480)
        inv = AffineTransform2D.similarity(scale, math.radians(rot_deg), shift, (320, 240))
        wx = inv.linear[0, 0] * px + inv.linear[0, 1] * py + inv.translation[0]
        wy = inv.linear[1, 0] * px + inv.linear[1, 1] * py + inv.translation[1]
        got = synthetic._lattice_noise(7, 10, wx, wy, cell)
        assert got.flags.c_contiguous
        assert_same_bits(got, reference_lattice_noise(7, 10, wx, wy, cell))

    @pytest.mark.parametrize("shape", [(1, 1), (6, 9), (14, 11), (34, 29)])
    def test_object_grids_match_reference(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        for _ in range(5):
            # Object-local units around the box center, as render_frame uses.
            ux = (np.arange(shape[1]) + rng.uniform(-40, 40)) / rng.uniform(0.5, 2.0)
            uy = (np.arange(shape[0]) + rng.uniform(-40, 40)) / rng.uniform(0.5, 2.0)
            wx, wy = np.meshgrid(ux, uy)
            got = synthetic._lattice_noise(11, 1003, wx, wy, 4.0)
            assert_same_bits(got, reference_lattice_noise(11, 1003, wx, wy, 4.0))

    def test_non_contiguous_slice_matches_reference(self):
        px, py = synthetic._pixel_grid(160, 120)
        sub_x, sub_y = px[17:43, 61:90], py[17:43, 61:90]
        assert not sub_x.flags.c_contiguous
        for cell in (24.0, 4.0):
            got = synthetic._lattice_noise(3, 2000, sub_x, sub_y, cell)
            assert_same_bits(got, reference_lattice_noise(3, 2000, sub_x, sub_y, cell))


class TestBackgroundCache:
    @staticmethod
    def count_full_frame_calls(monkeypatch, spec):
        calls = []
        kernel = synthetic._lattice_noise

        def counted(seed, salt, wx, wy, cell):
            if wx.shape == (spec.height, spec.width):
                calls.append(salt)
            return kernel(seed, salt, wx, wy, cell)

        monkeypatch.setattr(synthetic, "_lattice_noise", counted)
        synthetic._background.cache_clear()  # a direct render_frame call fills it
        return calls

    def test_static_camera_renders_background_once(self, tmp_path, monkeypatch):
        spec = tiny_spec()
        calls = self.count_full_frame_calls(monkeypatch, spec)
        generate(spec, tmp_path / "seq")
        assert len(calls) == 2
        assert synthetic._background.cache_info().currsize == 0

    def test_moving_camera_renders_background_every_frame(self, tmp_path, monkeypatch):
        spec = tiny_spec(camera=CameraSpec(pattern="zigzag", rot_amp_deg=2.0,
                                           trans_amp_x=4.0, trans_amp_y=3.0,
                                           scale_amp=0.01))
        calls = self.count_full_frame_calls(monkeypatch, spec)
        generate(spec, tmp_path / "seq")
        assert len(calls) == 2 * spec.frames
        assert synthetic._background.cache_info().currsize == 0

    @pytest.mark.parametrize("pattern", ["static", "zigzag"])
    def test_direct_render_equals_generated_frame(self, tmp_path, pattern):
        spec = tiny_spec(camera=CameraSpec(pattern=pattern, rot_amp_deg=2.0,
                                           trans_amp_x=4.0, scale_amp=0.01))
        gen = generate(spec, tmp_path / "seq")
        for k in (1, 4):
            img = render_frame(spec, k, gen.world_to_image[k - 1])
            assert np.array_equal(img, read_ppm(tmp_path / "seq" / "frames" / f"{k:06d}.ppm"))

    def test_cached_background_is_read_only(self):
        inverse = np.column_stack([np.eye(2), np.zeros(2)]).tobytes()
        try:
            assert not synthetic._background(5, 16, 12, inverse).flags.writeable
        finally:
            synthetic._background.cache_clear()
