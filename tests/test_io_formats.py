import hashlib

import numpy as np
import pytest

from sftrack.errors import ParseError
from sftrack.io_formats import (SequenceManifest, load_sequence, read_manifest,
                                read_mot_annotations, read_mot_detections,
                                read_ppm, read_visdrone, write_ppm, write_results)
from sftrack.types import BoundingBox


class TestPpm:
    def test_layout(self, tmp_path):
        img = np.zeros((1, 2, 3), dtype=np.uint8)
        img[0, 0] = (255, 0, 0)
        img[0, 1] = (0, 255, 0)
        p = tmp_path / "a.ppm"
        write_ppm(p, img)
        raw = p.read_bytes()
        assert raw.startswith(b"P6\n2 1\n255\n")
        assert raw[-6:] == bytes([255, 0, 0, 0, 255, 0])
        assert np.array_equal(read_ppm(p), img)

    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, size=(17, 23, 3)).astype(np.uint8)
        p = tmp_path / "b.ppm"
        write_ppm(p, img)
        assert np.array_equal(read_ppm(p), img)

    def test_header_comments(self, tmp_path):
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6\n# a comment\n2 # inline\n1\n255\n" + bytes(6))
        assert read_ppm(p).shape == (1, 2, 3)

    def test_rejects_p3(self, tmp_path):
        p = tmp_path / "d.ppm"
        p.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(ParseError, match="P6"):
            read_ppm(p)

    def test_rejects_wrong_maxval(self, tmp_path):
        p = tmp_path / "e.ppm"
        p.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(ParseError, match="maxval"):
            read_ppm(p)

    def test_truncated(self, tmp_path):
        p = tmp_path / "f.ppm"
        p.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(ParseError, match="truncated pixel data: 5 of 12 bytes"):
            read_ppm(p)

    def test_header_only_is_truncated(self, tmp_path):
        p = tmp_path / "g.ppm"
        p.write_bytes(b"P6\n2 2\n255")
        with pytest.raises(ParseError, match="truncated pixel data: 0 of 12 bytes"):
            read_ppm(p)

    def test_two_frame_sized_allocations(self, tmp_path):
        # The file's bytes and the returned copy; the raster is read in place.
        import tracemalloc

        img = np.random.default_rng(6).integers(0, 256, size=(480, 640, 3)).astype(np.uint8)
        p = tmp_path / "big.ppm"
        write_ppm(p, img)
        tracemalloc.start()
        try:
            got = read_ppm(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, img) and got.flags.writeable and got.flags.owndata
        assert 2 * img.nbytes <= peak < 2.5 * img.nbytes, peak / img.nbytes


class TestMotDetections:
    def test_field_mapping(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,10,20,30,40,0.9\n")
        dets = read_mot_detections(p)
        d = dets[1][0]
        assert d.box == BoundingBox(10, 20, 30, 40)
        assert d.score == 0.9

    def test_empty_file(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("")
        assert read_mot_detections(p) == {}

    def test_non_numeric_names_line(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,10,20,30,40,0.9\n2,-1,x,20,30,40,0.9\n")
        with pytest.raises(ParseError, match=":2"):
            read_mot_detections(p)

    def test_score_rescaling(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,0,0,5,5,10\n1,-1,0,0,5,5,60\n1,-1,0,0,5,5,110\n")
        dets = read_mot_detections(p)
        scores = [d.score for d in dets[1]]
        assert scores == pytest.approx([0.0, 0.5, 1.0])


class TestVisdrone:
    def test_category_filter(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1,1,0,0,5,5,1,4,0,0\n1,2,0,0,5,5,1,11,0,0\n")
        rows = read_visdrone(p, mode="gt")
        assert len(rows[1]) == 1
        assert rows[1][0].class_id == 4

    def test_ignore_region(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1,1,0,0,5,5,0,4,0,0\n1,2,10,10,5,5,1,4,0,0\n")
        rows = read_visdrone(p, mode="gt")
        flags = {r.obj_id: r.ignored for r in rows[1]}
        assert flags == {1: True, 2: False}

    def test_det_mode_keeps_all_scores(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("3,0,1,2,3,4,0.25,4,0,0\n")
        rows = read_visdrone(p, mode="det")
        assert rows[3][0].score == 0.25
        assert not rows[3][0].ignored


class TestNumericFields:
    """Integer columns must be whole and finite, scores finite, and boxes
    finite with finite edges and area; a bad row raises a ParseError that
    names its line."""

    GOOD_MOT = "1,-1,10,20,30,40,0.9\n"
    GOOD_VISDRONE = "1,1,0,0,5,5,1,4,0,0\n"

    @pytest.mark.parametrize("row", [
        "inf,-1,10,20,30,40,0.9", "nan,-1,10,20,30,40,0.9", "1.5,-1,10,20,30,40,0.9",
        "1,-1,10,20,30,40,inf", "1,-1,10,20,30,40,nan", "1,-1,10,20,30,40,-inf",
        "1,-1,nan,20,30,40,0.9", "1,-1,10,20,inf,40,0.9",
        # Finite fields whose right edge, bottom edge or area overflows.
        "1,-1,1e308,10,1e308,20,0.9", "1,-1,10,1e308,20,1e308,0.9", "1,-1,0,0,1e200,1e200,0.9",
        # A finite area, but a sum of two of them overflows.
        "1,-1,0,0,1e154,1e154,0.9",
    ])
    def test_mot_detections(self, tmp_path, row):
        p = tmp_path / "det.txt"
        p.write_text(self.GOOD_MOT + row + "\n")
        with pytest.raises(ParseError, match="det.txt:2"):
            read_mot_detections(p)

    @pytest.mark.parametrize("row", [
        "nan,1,0,0,5,5,1,4,0,0", "1,2.5,0,0,5,5,1,4,0,0", "1,1,0,0,5,5,nan,4,0,0",
        "1,1,0,0,5,5,1,4.5,0,0", "1,1,0,0,5,5,1,inf,0,0", "1,1,0,0,1e200,1e200,1,4,0,0",
        "1,1,0,0,1e154,1e154,1,4,0,0",
    ])
    def test_visdrone(self, tmp_path, row):
        p = tmp_path / "gt.txt"
        p.write_text(self.GOOD_VISDRONE + row + "\n")
        with pytest.raises(ParseError, match="gt.txt:2"):
            read_visdrone(p, mode="gt", categories=None)

    @pytest.mark.parametrize("row", [
        "1.5,1,0,0,5,5", "1,inf,0,0,5,5", "1,1,0,0,5,5,nan", "1,1,0,0,5,5,1,0.5",
        "1,1,1e308,0,1e308,5", "1,1,0,0,1e154,1e154",
    ])
    def test_mot_annotations(self, tmp_path, row):
        p = tmp_path / "gt.txt"
        p.write_text("1,1,0,0,5,5,1,1\n" + row + "\n")
        with pytest.raises(ParseError, match="gt.txt:2"):
            read_mot_annotations(p)

    def test_whole_floats_read_as_integers(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("2.0,-1.0,10,20,30,40,0.9\n")
        assert list(read_mot_detections(p)) == [2]
        p.write_text("2.0,3.0,0,0,5,5,1,4.0,0,0\n")
        row = read_visdrone(p, mode="gt")[2][0]
        assert (row.obj_id, row.class_id) == (3, 4)
        row = read_mot_annotations(p)[2][0]
        assert (row.frame, row.obj_id, row.class_id) == (2, 3, 4)
        assert isinstance(row.obj_id, int) and isinstance(row.class_id, int)


class _FR:
    def __init__(self, frame, outputs):
        self.frame = frame
        self.outputs = outputs


class TestWriteResults:
    def test_single_line(self, tmp_path):
        p = tmp_path / "res.txt"
        write_results(p, [_FR(1, [(7, 0, BoundingBox(1.234, 2.567, 10, 20), 0.875)])])
        assert p.read_text() == "1,7,1.23,2.57,10.00,20.00,0.88,-1,-1,-1\n"

    def test_round_trip_quantized(self, tmp_path):
        p = tmp_path / "res.txt"
        box = BoundingBox(10.126, 20.4449, 30.0, 40.5)
        write_results(p, [_FR(2, [(1, 0, box, 1.0)])])
        row = read_mot_annotations(p)[2][0]
        assert abs(row.box.left - box.left) <= 0.005 + 1e-9
        assert abs(row.box.top - box.top) <= 0.005 + 1e-9
        # Writing what we read back reproduces the file byte for byte.
        p2 = tmp_path / "res2.txt"
        write_results(p2, [_FR(2, [(1, 0, row.box, row.score)])])
        assert p2.read_bytes() == p.read_bytes()

    def test_empty(self, tmp_path):
        p = tmp_path / "res.txt"
        write_results(p, [])
        assert p.read_text() == ""

    def test_deterministic(self, tmp_path):
        frames = [_FR(1, [(1, 0, BoundingBox(0, 0, 5, 5), 0.5)]),
                  _FR(2, [(1, 0, BoundingBox(1, 0, 5, 5), 0.6)])]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_results(a, frames)
        write_results(b, frames)
        assert hashlib.sha256(a.read_bytes()).digest() == \
            hashlib.sha256(b.read_bytes()).digest()


class TestParserTotality:
    def test_mutated_inputs_never_crash(self, tmp_path):
        # Any byte stream either parses or raises a positioned ParseError
        # (or a plain ValueError from field validation).
        rng = np.random.default_rng(99)
        seeds = {
            "det.txt": b"1,-1,10,20,30,40,0.9\n2,-1,11,20,30,40,0.8\n",
            "gt.txt": b"1,1,10,20,30,40,1,4,0,0\n",
            "img.ppm": b"P6\n4 3\n255\n" + bytes(range(36)),
            "seqinfo.ini": b"[Sequence]\nname = x\nseqLength = 1\n",
        }
        parsers = {
            "det.txt": read_mot_detections,
            "gt.txt": lambda p: read_visdrone(p, mode="gt"),
            "img.ppm": read_ppm,
            "seqinfo.ini": read_manifest,
        }
        for name, base in seeds.items():
            for trial in range(100):
                data = bytearray(base)
                for _ in range(rng.integers(1, 6)):
                    op = rng.integers(0, 3)
                    pos = int(rng.integers(0, max(1, len(data))))
                    if op == 0 and data:
                        data[pos:pos + 1] = bytes([rng.integers(0, 256)])
                    elif op == 1:
                        data[pos:pos] = bytes([rng.integers(0, 256)])
                    elif data:
                        del data[pos:pos + 1]
                path = tmp_path / name
                path.write_bytes(bytes(data))
                try:
                    parsers[name](path)
                except (ParseError, ValueError):
                    pass


class TestManifest:
    def test_round_trip(self, tmp_path):
        m = SequenceManifest(name="seq01", frame_rate=25.0, seq_length=10,
                             im_width=320, im_height=240)
        p = tmp_path / "seqinfo.ini"
        p.write_text(m.to_text())
        got = read_manifest(p)
        assert got.seq_length == 10
        assert got.im_width == 320
        assert got.image_extension == ".ppm"

    def test_unknown_keys_ignored(self, tmp_path):
        p = tmp_path / "seqinfo.ini"
        p.write_text("[Sequence]\nname = x\nseqLength = 1\nsomethingElse = 5\n")
        assert read_manifest(p).seq_length == 1

    def test_load_sequence_counts_frames(self, tmp_path):
        seq = tmp_path / "seq"
        (seq / "frames").mkdir(parents=True)
        img = np.zeros((4, 4, 3), dtype=np.uint8)
        for k in (1, 2):
            write_ppm(seq / "frames" / f"{k:06d}.ppm", img)
        (seq / "seqinfo.ini").write_text(
            SequenceManifest(name="seq", seq_length=3, im_width=4, im_height=4).to_text())
        with pytest.raises(ParseError, match="3 frames but 2"):
            load_sequence(seq)
        (seq / "seqinfo.ini").write_text(
            SequenceManifest(name="seq", seq_length=2, im_width=4, im_height=4).to_text())
        loaded = load_sequence(seq)
        assert len(loaded.frame_paths) == 2
        assert loaded.read_frame(1).shape == (4, 4, 3)
