import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sftrack import appearance as ap
from sftrack.errors import ParseError
from sftrack.types import BoundingBox


def solid(r, g, b, h=8, w=8):
    crop = np.zeros((h, w, 3), dtype=np.uint8)
    crop[..., 0], crop[..., 1], crop[..., 2] = r, g, b
    return crop


class TestColorHistogram:
    def test_all_red(self):
        h = ap.color_histogram(solid(255, 0, 0))
        assert h[0, 7] == 1.0
        assert h[1, 0] == 1.0
        assert h[2, 0] == 1.0

    def test_level_boundaries(self):
        h31 = ap.color_histogram(solid(31, 31, 31))
        h32 = ap.color_histogram(solid(32, 32, 32))
        assert h31[0, 0] == 1.0
        assert h32[0, 1] == 1.0

    def test_fifty_fifty_mix(self):
        crop = solid(10, 0, 0)
        crop[:, 4:, 0] = 200  # half the red pixels at 200 -> bin 6
        h = ap.color_histogram(crop)
        assert h[0, 0] == pytest.approx(0.5)
        assert h[0, 6] == pytest.approx(0.5)

    def test_empty_crop_degenerate(self):
        h = ap.color_histogram(None)
        assert h.shape == (3, 8)
        assert np.all(h == 0)

    def test_channels_sum_to_one(self):
        rng = np.random.default_rng(0)
        crop = rng.integers(0, 256, size=(13, 9, 3)).astype(np.uint8)
        h = ap.color_histogram(crop)
        assert np.allclose(h.sum(axis=1), 1.0, atol=1e-9)

    @staticmethod
    def per_channel_reference(crop):
        """One bincount per channel, as before the single keyed bincount."""
        out = np.zeros((3, ap.HIST_BINS))
        idx = crop.reshape(-1, 3).astype(np.int64) // (256 // ap.HIST_BINS)
        for c in range(3):
            out[c] = np.bincount(idx[:, c], minlength=ap.HIST_BINS) / idx.shape[0]
        return out

    def test_matches_per_channel_reference_bit_for_bit(self):
        rng = np.random.default_rng(12)
        frame = rng.integers(0, 256, size=(50, 50, 3)).astype(np.uint8)
        for h in range(1, 41):
            for w in range(1, 41):
                crop = frame[5:5 + h, 7:7 + w]
                want = self.per_channel_reference(crop)
                for _ in range(2):
                    assert ap.color_histogram(crop).tobytes() == want.tobytes(), (h, w)


def hist_sim(h1, h2):
    return float(ap.histogram_similarities(h1[None], h2[None])[0])


def mse_sim(crop_a, crop_b, patch=(32, 32)):
    """Scaled-image MSE similarity of two crops through the array form."""
    pa = ap.resize_bilinear(crop_a, patch)[None]
    pb = ap.resize_bilinear(crop_b, patch)[None]
    return float(ap.patch_similarities(pa, pb)[0])


def embed_sim(e1, e2):
    return float(ap.embedding_similarities(e1[None], e2[None])[0, 0])


class TestHistSimilarity:
    def test_identical(self):
        crop = solid(100, 150, 200)
        h = ap.color_histogram(crop)
        assert hist_sim(h, h) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_support(self):
        h1 = ap.color_histogram(solid(0, 0, 0))
        h2 = ap.color_histogram(solid(40, 40, 40))  # bin 1 on all channels
        assert hist_sim(h1, h2) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_single_channel_split(self):
        # Channel 0: all mass in bin 0 vs an even split between bins 0 and 1;
        # other channels identical. Hellinger distance for that channel is
        # sqrt(1 - sqrt(0.5)).
        crop1 = solid(10, 0, 0)
        crop2 = solid(10, 0, 0)
        crop2[:, 4:, 0] = 40
        h1, h2 = ap.color_histogram(crop1), ap.color_histogram(crop2)
        d = math.sqrt(1 - math.sqrt(0.5))
        assert hist_sim(h1, h2) == pytest.approx(1 - d / 3, abs=1e-9)

    def test_degenerate_is_zero(self):
        h = ap.color_histogram(solid(10, 10, 10))
        assert hist_sim(h, ap.color_histogram(None)) == 0.0


def four_corner_reference(crop, size):
    """The four-corner gather the per-shape taps replaced."""
    tw, th = size
    sh, sw = crop.shape[:2]
    src = crop.astype(np.float64)
    xs = (np.arange(tw) + 0.5) * (sw / tw) - 0.5
    ys = (np.arange(th) + 0.5) * (sh / th) - 0.5
    x0 = np.clip(np.floor(xs).astype(int), 0, sw - 1)
    y0 = np.clip(np.floor(ys).astype(int), 0, sh - 1)
    x1 = np.minimum(x0 + 1, sw - 1)
    y1 = np.minimum(y0 + 1, sh - 1)
    fx = np.clip(xs - x0, 0.0, 1.0)[None, :, None]
    fy = np.clip(ys - y0, 0.0, 1.0)[:, None, None]
    top = src[y0][:, x0] * (1 - fx) + src[y0][:, x1] * fx
    bot = src[y1][:, x0] * (1 - fx) + src[y1][:, x1] * fx
    return top * (1 - fy) + bot * fy


class TestResizeBilinear:
    def test_matches_four_corner_reference_bit_for_bit(self):
        rng = np.random.default_rng(13)
        frame = rng.integers(0, 256, size=(60, 60, 3)).astype(np.uint8)
        for h in range(1, 41):
            for w in range(1, 41):
                # A view into a larger frame, as extract_crop returns it.
                crop = frame[3:3 + h, 11:11 + w]
                for size in [(32, 32), (17, 9), (1, 1), (64, 48)]:
                    want = four_corner_reference(crop, size)
                    # The second call reads the shape's cached taps.
                    for _ in range(2):
                        got = ap.resize_bilinear(crop, size)
                        assert got.dtype == np.float64 and got.shape == want.shape
                        assert np.array_equal(got, want), (h, w, size)
                        assert got.tobytes() == want.tobytes(), (h, w, size)

    @settings(max_examples=30)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2 ** 31 - 1))
    def test_same_size_is_identity(self, h, w, seed):
        crop = np.random.default_rng(seed).integers(0, 256, size=(h, w, 3)).astype(np.uint8)
        assert np.array_equal(ap.resize_bilinear(crop, (w, h)), crop)


class TestShapeCaches:
    def test_cached_arrays_are_read_only(self):
        crop = np.zeros((7, 5, 3), dtype=np.uint8)
        ap.resize_bilinear(crop, ap.PATCH_SIZE)
        ap.fallback_embedding(crop)
        cached = ap._resize_taps(7, 5, *ap.PATCH_SIZE) + ap._fallback_layout(7, 5)
        for a in cached:
            with pytest.raises(ValueError):
                a.flat[0] = a.flat[0]

    def test_caches_are_bounded(self):
        for cache in (ap._resize_taps, ap._fallback_layout):
            maxsize = cache.cache_info().maxsize
            assert maxsize is not None and 0 < maxsize == ap.SHAPE_CACHE_SIZE


class TestScaledMse:
    def test_identical_crops(self):
        crop = solid(10, 200, 30, h=12, w=7)
        assert mse_sim(crop, crop) == pytest.approx(1.0, abs=1e-12)

    def test_identical_content_different_sizes(self):
        a = solid(90, 120, 50, h=10, w=10)
        b = solid(90, 120, 50, h=25, w=17)
        assert mse_sim(a, b) == pytest.approx(1.0, abs=1e-9)

    def test_black_vs_white(self):
        assert mse_sim(solid(0, 0, 0), solid(255, 255, 255)) == pytest.approx(0.0, abs=1e-12)

    def test_constant_offset(self):
        sim = mse_sim(solid(0, 0, 0), solid(128, 128, 128))
        assert sim == pytest.approx(1 - 16384 / 65025, abs=1e-9)

    def test_empty_is_zero(self):
        # A detection without a crop has no patch; the cost builder then
        # scores the pair 0 without calling the similarity.
        cues = ap.detection_cues(solid(1, 1, 1), BoundingBox(20, 20, 4, 4))
        assert cues.histogram is None and cues.patch is None


@settings(max_examples=30)
@given(st.integers(0, 2 ** 31 - 1))
def test_similarities_symmetric_and_bounded(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 256, size=(rng.integers(2, 20), rng.integers(2, 20), 3)).astype(np.uint8)
    b = rng.integers(0, 256, size=(rng.integers(2, 20), rng.integers(2, 20), 3)).astype(np.uint8)
    ha, hb = ap.color_histogram(a), ap.color_histogram(b)
    hs1, hs2 = hist_sim(ha, hb), hist_sim(hb, ha)
    ms1, ms2 = mse_sim(a, b), mse_sim(b, a)
    assert hs1 == pytest.approx(hs2, abs=1e-12)
    assert ms1 == pytest.approx(ms2, abs=1e-12)
    assert 0.0 <= hs1 <= 1.0
    assert 0.0 <= ms1 <= 1.0


class TestEmbeddingSimilarity:
    def test_identical(self):
        e = np.array([0.6, 0.8])
        assert embed_sim(e, e) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert embed_sim(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_antipodal_clamped(self):
        e = np.array([1.0, 0.0])
        assert embed_sim(e, -e) == 0.0

    def test_renormalizes(self):
        assert embed_sim(np.array([2.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_matrix_of_all_row_pairs(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0], [0.6, 0.8]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(ap.embedding_similarities(a, b),
                           [[0.0, 1.0], [0.0, 0.0], [0.8, 0.6]])

    def test_equals_masked_division_bit_for_bit(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(40, 16)) * rng.uniform(0.1, 10.0, size=(40, 1))
        b = rng.normal(size=(30, 16))
        a[[3, 7]] = 0.0
        b[5] = 0.0
        norms = np.linalg.norm(a, axis=1)[:, None] * np.linalg.norm(b, axis=1)[None, :]
        want = np.zeros(norms.shape)
        np.divide(a @ b.T, norms, out=want, where=norms > 0.0)
        got = ap.embedding_similarities(a, b)
        assert np.array_equal(got, np.maximum(want, 0.0))
        assert not got[[3, 7]].any() and not got[:, 5].any()


class TestExtractCrop:
    def setup_method(self):
        self.frame = np.arange(10 * 10 * 3, dtype=np.uint8).reshape(10, 10, 3)

    def test_inside(self):
        crop = ap.extract_crop(self.frame, BoundingBox(2, 3, 4, 5))
        assert crop.shape == (5, 4, 3)
        assert np.array_equal(crop, self.frame[3:8, 2:6])

    def test_clamped(self):
        crop = ap.extract_crop(self.frame, BoundingBox(7, 0, 6, 4))
        assert crop.shape == (4, 3, 3)

    def test_fully_outside(self):
        assert ap.extract_crop(self.frame, BoundingBox(20, 20, 5, 5)) is None
        assert ap.extract_crop(self.frame, BoundingBox(2, 2, 0, 0)) is None


class TestFallbackEmbedding:
    def test_unit_norm_and_dimension(self):
        rng = np.random.default_rng(1)
        crop = rng.integers(0, 256, size=(16, 8, 3)).astype(np.uint8)
        e = ap.fallback_embedding(crop)
        assert e.shape == (192,)
        assert np.linalg.norm(e) == pytest.approx(1.0, abs=1e-9)

    def test_invariant_under_integer_upscale(self):
        # Piecewise-constant crops keep their descriptor under 2x upscaling.
        crop = np.zeros((8, 8, 3), dtype=np.uint8)
        crop[:4, :, 0] = 200
        crop[4:, :, 2] = 90
        up = np.repeat(np.repeat(crop, 2, axis=0), 2, axis=1)
        sim = embed_sim(ap.fallback_embedding(crop), ap.fallback_embedding(up))
        assert sim >= 0.99

    def test_degenerate(self):
        assert ap.fallback_embedding(None) is None

    @staticmethod
    def per_cell_reference(crop):
        """The per-cell loop the single bincount replaced."""
        if crop is None or crop.size == 0:
            return None
        rows, cols = ap.FALLBACK_GRID
        parts = []
        for r_block in np.array_split(crop, rows, axis=0):
            for cell in np.array_split(r_block, cols, axis=1):
                parts.append(ap.color_histogram(cell).ravel())
        vec = np.concatenate(parts)
        norm = np.linalg.norm(vec)
        return None if norm == 0.0 else vec / norm

    def test_matches_per_cell_reference_bit_for_bit(self):
        rng = np.random.default_rng(11)
        # Every size from 1x1 to 40x40 in both directions, including
        # heights below 2 and widths below 4, where some cells are empty.
        sizes = [(h, w) for h in range(1, 41) for w in (1, 2, 3, 4, 5, 17, 40)]
        sizes += [(h, w) for h in (1, 2, 3, 9, 40) for w in range(1, 41)]
        for h, w in sizes:
            crop = rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8)
            want = self.per_cell_reference(crop)
            # The second call reads the shape's cached layout.
            for _ in range(2):
                assert ap.fallback_embedding(crop).tobytes() == want.tobytes(), (h, w)

    def test_empty_cells_contribute_zeros(self):
        # One row: the lower cells are empty; two columns: the last two are.
        crop = np.full((1, 2, 3), 100, dtype=np.uint8)
        e = ap.fallback_embedding(crop).reshape(2, 4, 3, ap.HIST_BINS)
        assert np.all(e[1] == 0.0) and np.all(e[0, 2:] == 0.0)
        assert np.all(e[0, :2].sum(axis=-1) > 0.0)

    @pytest.mark.parametrize("shape", [(0, 5, 3), (4, 0, 3), (0, 0, 3)])
    def test_all_zero_result_is_none(self, shape):
        crop = np.zeros(shape, dtype=np.uint8)
        assert self.per_cell_reference(crop) is None
        assert ap.fallback_embedding(crop) is None


class TestLoadEmbeddings:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("")
        assert ap.load_embeddings(p) == {}

    def test_unit_row(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("3,0,0.6,0.8\n")
        table = ap.load_embeddings(p)
        assert set(table) == {(3, 0)}
        assert np.allclose(table[(3, 0)], [0.6, 0.8])

    def test_renormalizes(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("1,0,3,4\n")
        assert np.allclose(ap.load_embeddings(p)[(1, 0)], [0.6, 0.8])

    def test_dimension_mismatch(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("1,0,1,0\n2,0,1,0,0\n")
        with pytest.raises(ParseError, match="2"):
            ap.load_embeddings(p)

    def test_duplicate_row_names_both_lines(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("1,0,1,0\n2,0,1,0\n1,0,0,1\n")
        with pytest.raises(ParseError, match=r"e\.txt:3: .*first on line 1"):
            ap.load_embeddings(p)

    def test_same_det_index_in_other_frames_kept(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("1,0,1,0\n2,0,0,1\n1,1,0,1\n")
        assert set(ap.load_embeddings(p)) == {(1, 0), (2, 0), (1, 1)}

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("1,0,1,0\nbad,row,x,y\n")
        with pytest.raises(ParseError, match=":2"):
            ap.load_embeddings(p)

    @pytest.mark.parametrize("row", ["2,0,nan,1", "2,0,1,inf", "2,0,-inf,0", "2,0,1e200,1",
                                     "0,0,1,0", "-3,0,1,0", "2,-1,1,0"],
                             ids=["nan", "inf", "neg_inf", "norm_overflow", "frame_0",
                                  "frame_negative", "det_index_negative"])
    def test_bad_row_names_line(self, tmp_path, row):
        p = tmp_path / "e.txt"
        p.write_text(f"1,0,1,0\n{row}\n")
        with pytest.raises(ParseError, match="e.txt:2"):
            ap.load_embeddings(p)


class TestAppearanceMemory:
    def test_ema_stays_unit(self):
        # A track's running embedding is a row of the embedding table.
        rng = np.random.default_rng(2)
        table, has = np.zeros((3, 16)), np.zeros(3, dtype=bool)
        for _ in range(20):
            v = rng.normal(size=16)
            v /= np.linalg.norm(v)
            table, has = ap.update_embeddings(table, has, np.array([1]), v[None])
            assert np.linalg.norm(table[1]) == pytest.approx(1.0, abs=1e-9)
        assert has.tolist() == [False, True, False]
        assert not table[[0, 2]].any()

    def test_patch_stored_as_float32(self):
        frame = solid(10, 20, 30)
        cues = ap.detection_cues(frame, BoundingBox(0, 0, 8, 8))
        mem = ap.AppearanceMemory.from_cues(cues)
        assert cues.patch.dtype == np.float64
        assert mem.patch.dtype == np.float32
        assert np.array_equal(mem.histogram, cues.histogram)


class TestLazyCues:
    def test_computed_on_first_read_and_kept(self, monkeypatch):
        calls = []
        real = ap.resize_bilinear
        monkeypatch.setattr(ap, "resize_bilinear",
                            lambda *args: calls.append(1) or real(*args))
        cues = ap.detection_cues(solid(10, 20, 30), BoundingBox(0, 0, 8, 8))
        assert calls == []
        assert cues.patch is cues.patch
        assert len(calls) == 1

    def test_no_crop_no_cues(self):
        cues = ap.detection_cues(solid(1, 2, 3), BoundingBox(20, 20, 4, 4))
        assert cues.crop is None and cues.histogram is None and cues.patch is None

    def test_memory_keeps_a_copy_of_the_crop(self):
        frame = solid(10, 20, 30)
        cues = ap.detection_cues(frame, BoundingBox(0, 0, 4, 4))
        assert np.shares_memory(cues.crop, frame)
        mem = ap.AppearanceMemory.from_cues(cues)
        assert np.array_equal(mem.crop, cues.crop)
        assert not np.shares_memory(mem.crop, frame)

    def test_memory_takes_over_only_a_computed_histogram(self, monkeypatch):
        rng = np.random.default_rng(6)
        frame = rng.integers(0, 256, size=(20, 20, 3)).astype(np.uint8)
        read = ap.detection_cues(frame, BoundingBox(0, 0, 8, 8))
        histogram = read.histogram
        unread = ap.detection_cues(frame, BoundingBox(10, 10, 8, 8))
        calls = []
        real = ap.color_histogram
        monkeypatch.setattr(ap, "color_histogram", lambda crop: calls.append(1) or real(crop))
        assert ap.AppearanceMemory.from_cues(read).histogram is histogram
        assert calls == []
        mem = ap.AppearanceMemory.from_cues(unread)
        assert "histogram" not in unread.__dict__
        assert np.array_equal(mem.histogram, real(unread.crop))
        assert calls == [1]
        # The patch is always the memory's own, from its copy of the crop.
        assert np.array_equal(mem.patch, unread.patch.astype(np.float32))
        # Without a crop there is nothing to remember.
        empty = ap.AppearanceMemory.from_cues(ap.detection_cues(frame, BoundingBox(30, 30, 4, 4)))
        assert empty.crop is None and empty.histogram is None and empty.patch is None


class TestDetectionCues:
    def test_one_crop_feeds_every_cue(self):
        rng = np.random.default_rng(4)
        frame = rng.integers(0, 256, size=(30, 40, 3)).astype(np.uint8)
        box = BoundingBox(5, 6, 12, 9)
        crop = ap.extract_crop(frame, box)
        cues = ap.detection_cues(frame, box, fallback=True)
        assert np.array_equal(cues.histogram, ap.color_histogram(crop))
        assert np.array_equal(cues.patch, ap.resize_bilinear(crop, ap.PATCH_SIZE))
        assert np.array_equal(cues.embedding, ap.fallback_embedding(crop))

    def test_given_embedding_wins_over_fallback(self):
        e = np.array([0.6, 0.8])
        cues = ap.detection_cues(solid(1, 2, 3), BoundingBox(0, 0, 4, 4), e, fallback=True)
        assert cues.embedding is e
