import hashlib
import json

import numpy as np
import pytest

from sftrack import cli
from sftrack.io_formats import load_sequence, read_mot_detections, read_ppm
from sftrack.synthetic import NoiseSpec, ObjectSpec, ScenarioSpec, generate, write_scenario
from sftrack.tracker import run_sequence
from sftrack.types import BoundingBox


@pytest.fixture(scope="module")
def tiny_seq(tmp_path_factory):
    spec = ScenarioSpec(
        name="clitiny", seed=21, frames=8, width=160, height=120,
        objects=[
            ObjectSpec(class_id=4, width=24, height=20, x=50, y=40, color=(200, 60, 60)),
            ObjectSpec(class_id=4, width=20, height=22, x=110, y=80,
                       path="linear", vx=-1.0, vy=0.5, color=(60, 80, 200)),
        ])
    out = tmp_path_factory.mktemp("seq") / "clitiny"
    generate(spec, out)
    return out


class TestSynth:
    def test_spec_writes_layout(self, tmp_path):
        spec_path = tmp_path / "s.cfg"
        spec = ScenarioSpec(name="mini", seed=3, frames=3, width=96, height=64,
                            objects=[ObjectSpec(width=16, height=14, x=30, y=30,
                                                color=(180, 60, 60))])
        write_scenario(spec, spec_path)
        out = tmp_path / "out"
        assert cli.main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert (out / "seqinfo.ini").exists()
        assert (out / "gt.txt").exists()
        assert (out / "det.txt").exists()
        assert len(list((out / "frames").glob("*.ppm"))) == 3

    def test_digest_determinism(self, tmp_path):
        spec_path = tmp_path / "s.cfg"
        spec = ScenarioSpec(name="mini", seed=3, frames=3, width=96, height=64,
                            objects=[ObjectSpec(width=16, height=14, x=30, y=30,
                                                color=(180, 60, 60))])
        write_scenario(spec, spec_path)
        for sub in ("a", "b"):
            assert cli.main(["synth", "--spec", str(spec_path), "--out",
                             str(tmp_path / sub)]) == 0
        digest = {}
        for sub in ("a", "b"):
            digest[sub] = {p.relative_to(tmp_path / sub):
                           hashlib.sha256(p.read_bytes()).hexdigest()
                           for p in sorted((tmp_path / sub).rglob("*")) if p.is_file()}
        assert digest["a"] == digest["b"]

    def test_spec_missing_seed_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("frames = 3\nwidth = 64\nheight = 48\n")
        assert cli.main(["synth", "--spec", str(bad), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("section", ["[object]\npath = sinusiodal",
                                         "[camera]\npattern = spiral",
                                         "[object]\ncolor = 1,2",
                                         "fp_rate = inf",
                                         "[object]\npath = sinusoidal\nperiod = 0"],
                             ids=["path", "pattern", "color", "fp_rate", "period"])
    def test_spec_bad_value_exit_2_writes_nothing(self, tmp_path, section):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"seed = 1\nframes = 2\nwidth = 64\nheight = 48\n\n{section}\n")
        out = tmp_path / "x"
        assert cli.main(["synth", "--spec", str(bad), "--out", str(out)]) == 2
        assert not out.exists()

    def test_spec_repeated_key_exit_2_writes_nothing(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("seed = 1\nframes = 2\nwidth = 64\nheight = 48\n\n"
                       "[object]\nx = 10\nx = 20\n")
        out = tmp_path / "x"
        assert cli.main(["synth", "--spec", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
        assert "bad.cfg:8: duplicate key 'x' (first on line 7)" in capsys.readouterr().err

    def test_unknown_preset_exit_2(self, tmp_path):
        assert cli.main(["synth", "--preset", "wat", "--out", str(tmp_path / "x")]) == 2


class TestTrack:
    def test_runs_and_writes(self, tiny_seq, tmp_path, capsys):
        out = tmp_path / "res.txt"
        code = cli.main(["track", "--seq", str(tiny_seq), "--det",
                         str(tiny_seq / "det.txt"), "--out", str(out)])
        assert code == 0
        assert out.exists() and out.read_text()
        assert "frames:" in capsys.readouterr().out

    def test_summary_sums_the_frame_records(self, tiny_seq, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
        out = tmp_path / "res.txt"
        assert cli.main(["track", "--seq", str(tiny_seq), "--det",
                         str(tiny_seq / "det.txt"), "--out", str(out)]) == 0
        printed = dict(line.split(":", 1) for line in capsys.readouterr().out.splitlines())
        seq = load_sequence(tiny_seq)
        frames = ((k, seq.read_frame(k)) for k in range(1, len(seq.frame_paths) + 1))
        results = run_sequence(frames, read_mot_detections(tiny_seq / "det.txt"))
        d = [r.diagnostics for r in results]

        def total(*names):
            return "/".join(str(sum(getattr(x, name) for x in d)) for name in names)

        fallbacks = sum(x.motion is not None and x.motion.fallback for x in d)
        assert sum(x.motion is not None for x in d) == len(d) - 1
        assert {name: value.strip() for name, value in printed.items()} == {
            "frames": str(len(d)),
            "high/low dets": total("n_high", "n_low"),
            "dropped dets": total("n_degenerate") + " (zero width or height)",
            "matched 1st/2nd": total("n_matched_first", "n_matched_second"),
            "new high/low": total("n_new_high", "n_new_low"),
            "removed tracks": total("n_removed"),
            "motion fallbacks": str(fallbacks),
            "output boxes": f"{sum(len(r.outputs) for r in results)} -> {out}",
        }

    def test_missing_inputs_exit_2(self, tmp_path):
        assert cli.main(["track", "--seq", str(tmp_path / "nope"), "--det",
                         str(tmp_path / "d.txt"), "--out", str(tmp_path / "r.txt")]) == 2

    def test_invalid_config_key_exit_2(self, tiny_seq, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("misspelled_key = 1\n")
        code = cli.main(["track", "--seq", str(tiny_seq), "--det",
                         str(tiny_seq / "det.txt"), "--config", str(cfg),
                         "--out", str(tmp_path / "r.txt")])
        assert code == 2
        assert "misspelled_key" in capsys.readouterr().err

    def test_repeated_config_key_exit_2(self, tiny_seq, tmp_path, capsys):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("tau = 0.5\ntau = 0.9\n")
        code = cli.main(["track", "--seq", str(tiny_seq), "--det",
                         str(tiny_seq / "det.txt"), "--config", str(cfg),
                         "--out", str(tmp_path / "r.txt")])
        assert code == 2
        assert "dup.cfg:2: duplicate key 'tau' (first on line 1)" in capsys.readouterr().err
        assert not (tmp_path / "r.txt").exists()

    def test_env_config_fallback(self, tiny_seq, tmp_path, monkeypatch):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("grace_frames = 3\n")
        monkeypatch.setenv(cli.ENV_CONFIG, str(cfg))
        out = tmp_path / "res.txt"
        assert cli.main(["track", "--seq", str(tiny_seq), "--det",
                         str(tiny_seq / "det.txt"), "--out", str(out)]) == 0

    def test_flag_overrides(self, tiny_seq, tmp_path):
        out = tmp_path / "res.txt"
        code = cli.main(["track", "--seq", str(tiny_seq), "--det",
                         str(tiny_seq / "det.txt"), "--out", str(out),
                         "--no-mc", "--no-low-init", "--no-traditional"])
        assert code == 0

    def test_embeddings_file_flag(self, tiny_seq, tmp_path):
        from sftrack.io_formats import read_mot_detections
        dets = read_mot_detections(tiny_seq / "det.txt")
        lines = []
        for frame, rows in sorted(dets.items()):
            for j in range(len(rows)):
                vec = "1,0" if j == 0 else "0,1"
                lines.append(f"{frame},{j},{vec}")
        emb = tmp_path / "emb.txt"
        emb.write_text("\n".join(lines) + "\n")
        out = tmp_path / "res.txt"
        assert cli.main(["track", "--seq", str(tiny_seq), "--det",
                         str(tiny_seq / "det.txt"), "--embeddings", str(emb),
                         "--out", str(out)]) == 0
        assert out.read_text()

    def test_embeddings_file_missing_rows_runs(self, tiny_seq, tmp_path):
        # Detections without a row have no embedding; no fallback descriptor
        # of another width meets the file's vectors.
        emb = tmp_path / "emb.txt"
        emb.write_text("1,0,1,0,0,0\n")
        out = tmp_path / "res.txt"
        assert cli.main(["track", "--seq", str(tiny_seq), "--det",
                         str(tiny_seq / "det.txt"), "--embeddings", str(emb),
                         "--out", str(out)]) == 0
        assert {line.split(",")[0] for line in out.read_text().splitlines()} >= {"1", "2"}

    @pytest.mark.parametrize("row", ["1,1,nan,1", "1,0,inf,0", "0,0,1,0", "1,-1,1,0",
                                     "1,0,0,1"],
                             ids=["nan", "inf", "frame_0", "det_index_negative", "duplicate"])
    def test_bad_embeddings_row_exit_2(self, tiny_seq, tmp_path, capsys, row):
        emb = tmp_path / "emb.txt"
        emb.write_text(f"1,0,1,0\n{row}\n")
        code = cli.main(["track", "--seq", str(tiny_seq), "--det",
                         str(tiny_seq / "det.txt"), "--embeddings", str(emb),
                         "--out", str(tmp_path / "r.txt")])
        assert code == 2
        assert "emb.txt:2" in capsys.readouterr().err
        assert not (tmp_path / "r.txt").exists()

    def test_degenerate_detection_rows_run(self, tiny_seq, tmp_path, capsys):
        det = tmp_path / "det.txt"
        rows = (tiny_seq / "det.txt").read_text()
        det.write_text("1,-1,30,30,12,0,0.9\n2,-1,30,30,0,12,0.4\n" + rows)
        out = tmp_path / "res.txt"
        assert cli.main(["track", "--seq", str(tiny_seq), "--det", str(det),
                         "--out", str(out)]) == 0
        assert "dropped dets:    2" in capsys.readouterr().out

    @pytest.mark.parametrize("row", [
        "inf,-1,30,30,12,12,0.9",     # frame overflows int()
        "nan,-1,30,30,12,12,0.9",
        "1.5,-1,30,30,12,12,0.9",     # not a whole frame index
        "2,-1,30,30,12,12,inf",       # would be rescaled to nan
        "2,-1,30,30,12,12,nan",
        "1,-1,1e308,10,1e308,20,0.9",  # finite fields, overflowing right edge
    ], ids=["frame_inf", "frame_nan", "frame_fraction", "score_inf", "score_nan",
            "box_overflow"])
    def test_bad_numeric_field_exit_2(self, tiny_seq, tmp_path, capsys, row):
        det = tmp_path / "d.txt"
        det.write_text("1,-1,30,30,12,12,0.9\n" + row + "\n")
        code = cli.main(["track", "--seq", str(tiny_seq), "--det", str(det),
                         "--out", str(tmp_path / "r.txt"), "--no-mc"])
        assert code == 2
        assert "d.txt:2" in capsys.readouterr().err

    def test_numerical_error_exit_1(self, tiny_seq, tmp_path, monkeypatch, capsys):
        from sftrack import kalman
        from sftrack.errors import NumericalError

        def singular(*args, **kwargs):
            raise NumericalError("singular innovation covariance")

        monkeypatch.setattr(kalman, "update", singular)
        code = cli.main(["track", "--seq", str(tiny_seq), "--det",
                         str(tiny_seq / "det.txt"), "--out", str(tmp_path / "r.txt")])
        assert code == 1
        assert "NumericalError" in capsys.readouterr().err

    def test_unknown_flag_exit_2(self, tiny_seq, tmp_path, capsys):
        code = cli.main(["track", "--seq", str(tiny_seq), "--det",
                         str(tiny_seq / "det.txt"), "--out", str(tmp_path / "r"),
                         "--frobnicate"])
        assert code == 2
        capsys.readouterr()


class TestEval:
    def test_gt_vs_gt_perfect(self, tiny_seq, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = cli.main(["eval", "--gt", str(tiny_seq / "gt.txt"), "--res",
                         str(tiny_seq / "gt.txt"), "--format", "visdrone",
                         "--json", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["mota"] == 100.0
        assert report["idf1"] == 1.0
        assert report["fp"] == 0 and report["fn"] == 0 and report["ids"] == 0
        out = capsys.readouterr().out
        assert "MOTA" in out

    def test_empty_res(self, tiny_seq, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code = cli.main(["eval", "--gt", str(tiny_seq / "gt.txt"), "--res",
                         str(empty), "--format", "visdrone",
                         "--json", str(tmp_path / "r.json")])
        assert code == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["mota"] <= 0.0
        assert report["fn"] == report["gt_total"]

    def test_track_then_eval_high_quality(self, tiny_seq, tmp_path, capsys):
        res = tmp_path / "res.txt"
        assert cli.main(["track", "--seq", str(tiny_seq), "--det",
                         str(tiny_seq / "det.txt"), "--out", str(res)]) == 0
        assert cli.main(["eval", "--gt", str(tiny_seq / "gt.txt"), "--res", str(res),
                         "--format", "visdrone", "--json",
                         str(tmp_path / "rep.json")]) == 0
        report = json.loads((tmp_path / "rep.json").read_text())
        assert report["mota"] == 100.0  # zero-noise scene tracks perfectly

    def test_overflowing_box_exit_2(self, tiny_seq, tmp_path, capsys):
        res = tmp_path / "res.txt"
        res.write_text("1,1,44.00,35.00,24.00,20.00,1.00,-1,-1,-1\n"
                       "1,2,0.00,0.00,1e200,1e200,1.00,-1,-1,-1\n")
        code = cli.main(["eval", "--gt", str(tiny_seq / "gt.txt"), "--res", str(res),
                         "--format", "visdrone"])
        assert code == 2
        assert "res.txt:2: non-finite box field, edge or area" in capsys.readouterr().err

    def test_box_whose_area_sum_overflows_exit_2(self, tmp_path, capsys):
        # Its area is finite, but IoU's union adds two areas, which overflows.
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,0,0,1e154,1e154,1,4,0,0\n")
        code = cli.main(["eval", "--gt", str(gt), "--res", str(gt), "--format", "visdrone"])
        assert code == 2
        assert "gt.txt:1: box area above" in capsys.readouterr().err

    def test_frame_range_warning(self, tiny_seq, tmp_path, capsys):
        res = tmp_path / "res.txt"
        res.write_text("1,1,44.00,35.00,24.00,20.00,1.00,-1,-1,-1\n")
        code = cli.main(["eval", "--gt", str(tiny_seq / "gt.txt"), "--res", str(res),
                         "--format", "visdrone"])
        assert code == 0
        assert "frame ranges differ" in capsys.readouterr().err


def draw_box_reference(image, box, color, thickness):
    """Outline drawing with explicit rounding, clamping and edge bounds."""
    h, w = image.shape[:2]
    x0 = max(0, int(round(box.left)))
    y0 = max(0, int(round(box.top)))
    x1 = min(w, int(round(box.left + box.width)))
    y1 = min(h, int(round(box.top + box.height)))
    if x1 <= x0 or y1 <= y0:
        return
    t = thickness
    image[y0:min(y0 + t, y1), x0:x1] = color
    image[max(y1 - t, y0):y1, x0:x1] = color
    image[y0:y1, x0:min(x0 + t, x1)] = color
    image[y0:y1, max(x1 - t, x0):x1] = color


class TestOverlay:
    def test_empty_results_copies_frames(self, tiny_seq, tmp_path):
        res = tmp_path / "empty.txt"
        res.write_text("")
        out = tmp_path / "ov"
        assert cli.main(["overlay", "--seq", str(tiny_seq), "--res", str(res),
                         "--out", str(out)]) == 0
        orig = read_ppm(tiny_seq / "frames" / "000001.ppm")
        copy = read_ppm(out / "000001.ppm")
        assert np.array_equal(orig, copy)

    def test_box_outline_pixels(self, tiny_seq, tmp_path):
        res = tmp_path / "one.txt"
        res.write_text("1,5,10.00,10.00,30.00,20.00,1.00,-1,-1,-1\n")
        out = tmp_path / "ov"
        assert cli.main(["overlay", "--seq", str(tiny_seq), "--res", str(res),
                         "--out", str(out)]) == 0
        orig = read_ppm(tiny_seq / "frames" / "000001.ppm")
        drawn = read_ppm(out / "000001.ppm")
        diff = np.any(orig != drawn, axis=2)
        ys, xs = np.nonzero(diff)
        assert ys.size > 0
        assert ys.min() >= 10 and ys.max() <= 29
        assert xs.min() >= 10 and xs.max() <= 39
        interior = diff[13:27, 13:37]
        assert not interior.any()  # outline only

    @pytest.mark.parametrize("box", [
        (10.0, 10.0, 30.0, 20.0), (-12.4, 30.0, 40.0, 25.0), (140.6, 100.2, 40.0, 40.0),
        (-5.0, -5.0, 200.0, 150.0), (50.0, 40.0, 1.0, 30.0), (50.0, 40.0, 30.0, 1.4),
        (50.0, 40.0, 2.0, 3.0), (50.0, 40.0, 0.3, 0.3), (170.0, 20.0, 10.0, 10.0),
        (20.0, -30.0, 10.0, 10.0), (159.6, 119.6, 5.0, 5.0),
    ])
    @pytest.mark.parametrize("thickness", [1, 2, 3])
    def test_draw_box_equals_explicit_edges(self, box, thickness):
        image = np.random.default_rng(0).integers(0, 256, size=(120, 160, 3)).astype(np.uint8)
        color = cli._track_color(7)
        want = image.copy()
        draw_box_reference(want, BoundingBox(*box), color, thickness)
        cli._draw_box(image, BoundingBox(*box), color, thickness)
        assert image.tobytes() == want.tobytes()

    def test_deterministic(self, tiny_seq, tmp_path):
        res = tmp_path / "one.txt"
        res.write_text("1,5,10.00,10.00,30.00,20.00,1.00,-1,-1,-1\n")
        outs = []
        for sub in ("o1", "o2"):
            out = tmp_path / sub
            assert cli.main(["overlay", "--seq", str(tiny_seq), "--res", str(res),
                             "--out", str(out)]) == 0
            outs.append((out / "000001.ppm").read_bytes())
        assert outs[0] == outs[1]


class TestAblate:
    def test_lattice_table(self, tmp_path, monkeypatch, capsys):
        tiny = ScenarioSpec(
            name="ablatiny", seed=31, frames=10, width=160, height=120,
            objects=[ObjectSpec(class_id=4, width=24, height=20, x=50, y=40,
                                color=(200, 60, 60))],
            noise=NoiseSpec(conf_floor=0.9, conf_ceil=0.9, conf_knee_area=1.0))
        monkeypatch.setattr("sftrack.synthetic.preset", lambda name: tiny)
        out = tmp_path / "table.tsv"
        assert cli.main(["ablate", "--preset", "whatever", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "config\tmota\tidf1\tfp\tfn\tids"
        names = [ln.split("\t")[0] for ln in lines[1:]]
        assert names == ["byte_baseline", "uav_mc", "low_init", "traditional"]
        for ln in lines[1:]:
            parts = ln.split("\t")
            float(parts[1]); float(parts[2])
            int(parts[3]); int(parts[4]); int(parts[5])
