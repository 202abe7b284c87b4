import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sftrack import types
from sftrack.types import (BoundingBox, Detection, box_array, box_iou_pairs, corners, cxcyah,
                           from_cxcyah, iou, iou_matrix, iou_pairs, overlapping_pairs, to_cxcyah)


def box(l, t, w, h):
    return BoundingBox(l, t, w, h)


class TestBoundingBox:
    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, -1, 5)
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 5, -1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BoundingBox(math.nan, 0, 1, 1)

    @pytest.mark.parametrize("fields", [(1e308, 0, 1e308, 1), (0, 1e308, 1, 1e308),
                                        (0, 0, 1e200, 1e200)],
                             ids=["right", "bottom", "area"])
    def test_rejects_overflowing_edge_or_area(self, fields):
        with pytest.raises(ValueError, match="non-finite box field, edge or area"):
            BoundingBox(*fields)

    def test_large_finite_box_accepted(self):
        b = BoundingBox(-1e150, 1e150, 1e150, 1e150)
        assert math.isfinite(b.right) and math.isfinite(b.area)

    @pytest.mark.parametrize("fields", [(0, 0, 1e154, 1e154), (5, -5, 1e300, 1e8),
                                        (0, 0, types.MAX_AREA / 2 ** 500, 2.0 ** 500 * 1.5)])
    def test_rejects_area_whose_double_overflows(self, fields):
        # A finite area above the bound: two such areas added, as IoU's union
        # adds them, can overflow.
        assert math.isfinite(fields[2] * fields[3])
        with pytest.raises(ValueError, match="box area above"):
            BoundingBox(*fields)

    def test_largest_box_has_iou_one_with_itself(self):
        b = BoundingBox(0.0, 0.0, types.MAX_AREA / 2 ** 500, 2.0 ** 500)
        assert b.area == types.MAX_AREA
        ltwh = box_array([b])
        with np.errstate(all="raise"):
            assert iou(b, b) == 1.0
            assert box_iou_pairs(ltwh, ltwh).tolist() == [1.0]
            assert iou_pairs(corners(ltwh), corners(ltwh)).tolist() == [1.0]
            assert iou_matrix(corners(ltwh), corners(ltwh)).tolist() == [[1.0]]

    def test_degenerate_flag(self):
        assert box(0, 0, 0, 10).is_degenerate
        assert not box(0, 0, 1, 1).is_degenerate

    def test_properties(self):
        b = box(10, 20, 30, 40)
        assert b.right == 40
        assert b.bottom == 60
        assert b.area == 1200
        assert b.center == (25, 40)


class TestIou:
    def test_identical(self):
        assert iou(box(0, 0, 10, 10), box(0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou(box(0, 0, 10, 10), box(100, 100, 5, 5)) == 0.0

    def test_half_shift(self):
        # intersection 50, union 150
        assert iou(box(0, 0, 10, 10), box(5, 0, 10, 10)) == pytest.approx(1 / 3, abs=1e-12)

    def test_degenerate_yields_zero(self):
        assert iou(box(0, 0, 0, 0), box(0, 0, 0, 0)) == 0.0
        assert iou(box(0, 0, 0, 10), box(0, 0, 10, 10)) == 0.0

    def test_matrix_matches_scalar(self):
        rows = [box(0, 0, 10, 10), box(5, 5, 20, 8)]
        cols = [box(3, 2, 10, 10), box(100, 100, 5, 5), box(5, 0, 10, 10)]
        m = iou_matrix(corners(box_array(rows)), corners(box_array(cols)))
        for i, r in enumerate(rows):
            for j, c in enumerate(cols):
                assert m[i, j] == pytest.approx(iou(r, c), abs=1e-12)


def iou_matrix_of_lists(rows: list[BoundingBox], cols: list[BoundingBox]) -> np.ndarray:
    """The box-list IoU kernel that the array kernel replaced."""
    if not rows or not cols:
        return np.zeros((len(rows), len(cols)))
    ra = np.array([[b.left, b.top, b.right, b.bottom] for b in rows], dtype=float)
    ca = np.array([[b.left, b.top, b.right, b.bottom] for b in cols], dtype=float)
    ix = np.minimum(ra[:, None, 2], ca[None, :, 2]) - np.maximum(ra[:, None, 0], ca[None, :, 0])
    iy = np.minimum(ra[:, None, 3], ca[None, :, 3]) - np.maximum(ra[:, None, 1], ca[None, :, 1])
    inter = np.clip(ix, 0, None) * np.clip(iy, 0, None)
    area_r = (ra[:, 2] - ra[:, 0]) * (ra[:, 3] - ra[:, 1])
    area_c = (ca[:, 2] - ca[:, 0]) * (ca[:, 3] - ca[:, 1])
    union = area_r[:, None] + area_c[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


any_boxes = st.builds(
    BoundingBox,
    st.floats(-1000, 1000), st.floats(-1000, 1000),
    st.one_of(st.just(0.0), st.floats(0.0, 500)), st.one_of(st.just(0.0), st.floats(0.0, 500)),
)


@settings(max_examples=200)
@given(st.lists(any_boxes, max_size=6), st.lists(any_boxes, max_size=6))
def test_iou_matrix_on_arrays_equals_box_list_kernel_bit_for_bit(rows, cols):
    got = iou_matrix(corners(box_array(rows)), corners(box_array(cols)))
    want = iou_matrix_of_lists(rows, cols)
    assert got.shape == want.shape == (len(rows), len(cols))
    assert np.array_equal(got, want)


@settings(max_examples=200)
@given(st.lists(st.tuples(any_boxes, any_boxes), max_size=8))
def test_paired_kernels_equal_their_references_bit_for_bit(pairs):
    a, b = box_array([p[0] for p in pairs]), box_array([p[1] for p in pairs])
    assert box_iou_pairs(a, b).tolist() == [iou(x, y) for x, y in pairs]
    matrix = iou_matrix(corners(a), corners(b))
    assert np.array_equal(iou_pairs(corners(a), corners(b)), matrix.diagonal())


@pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
def test_overlapping_pairs_equal_brute_force(monkeypatch, chunk):
    # Lattice boxes touch and share edges; chunk sizes split the expansion.
    monkeypatch.setattr(types, "_PAIR_CHUNK", chunk)
    rng = np.random.default_rng(5)
    for _ in range(30):
        n_a, n_b = rng.integers(0, 25, size=2)
        a = corners(np.column_stack([rng.integers(0, 8, (n_a, 2)) * 5,
                                     rng.integers(0, 4, (n_a, 2)) * 5]).astype(float))
        b = corners(np.column_stack([rng.integers(0, 8, (n_b, 2)) * 5 + rng.uniform(0, 1, (n_b, 2)),
                                     rng.integers(0, 4, (n_b, 2)) * 5]).astype(float))
        group_a, group_b = np.sort(rng.integers(0, 3, n_a)), np.sort(rng.integers(0, 3, n_b))
        i, j = overlapping_pairs(a, group_a, b, group_b)
        assert np.all(np.diff(i) >= 0)
        ix = np.minimum(a[:, None, 2], b[None, :, 2]) > np.maximum(a[:, None, 0], b[None, :, 0])
        iy = np.minimum(a[:, None, 3], b[None, :, 3]) > np.maximum(a[:, None, 1], b[None, :, 1])
        want = np.nonzero(ix & iy & (group_a[:, None] == group_b[None, :]))
        assert sorted(zip(i.tolist(), j.tolist())) == sorted(zip(*(w.tolist() for w in want)))
        assert np.all(iou_matrix(a, b)[np.logical_not(ix & iy)] == 0.0)


def test_paired_kernels_differ_in_area():
    # Same boxes: width x height and (right - left) x (bottom - top) round
    # differently, which moves the IoU across 0.5 in the last bit.
    a = box_array([box(13.51, 72.15, 10.98, 6.89)])
    b = box_array([box(17.17, 72.15, 10.98, 6.89)])
    assert box_iou_pairs(a, b)[0] == 0.5000000000000001
    assert iou_pairs(corners(a), corners(b))[0] == 0.4999999999999998


@settings(max_examples=200)
@given(st.lists(any_boxes.filter(lambda b: b.height >= 1e-3), max_size=6))
def test_cxcyah_rows_equal_to_cxcyah_bit_for_bit(boxes):
    got = cxcyah(box_array(boxes))
    assert got.shape == (len(boxes), 4)
    assert got.tolist() == [list(to_cxcyah(b)) for b in boxes]


def test_corners_right_is_left_plus_width():
    boxes = [box(0.1, 0.2, 0.7, 1e-3), box(-3.3, 1e6, 2.2, 0.0)]
    assert corners(box_array(boxes)).tolist() == [[b.left, b.top, b.right, b.bottom]
                                                  for b in boxes]
    assert corners(box_array([])).shape == (0, 4)


finite_boxes = st.builds(
    BoundingBox,
    st.floats(-1000, 1000), st.floats(-1000, 1000),
    st.floats(0.1, 500), st.floats(0.1, 500),
)


@given(finite_boxes, finite_boxes)
def test_iou_symmetric(a, b):
    assert iou(a, b) == pytest.approx(iou(b, a), abs=1e-12)


@given(finite_boxes)
def test_iou_self_is_one(a):
    assert iou(a, a) == pytest.approx(1.0, abs=1e-12)


@given(finite_boxes, finite_boxes, st.floats(-500, 500), st.floats(-500, 500))
def test_iou_translation_invariant(a, b, dx, dy):
    a2 = BoundingBox(a.left + dx, a.top + dy, a.width, a.height)
    b2 = BoundingBox(b.left + dx, b.top + dy, b.width, b.height)
    assert iou(a2, b2) == pytest.approx(iou(a, b), abs=1e-9)


class TestConversions:
    def test_to_cxcyah(self):
        assert to_cxcyah(box(0, 0, 10, 20)) == (5, 10, 0.5, 20)
        assert to_cxcyah(box(2, 2, 4, 4)) == (4, 4, 1.0, 4)

    def test_rejects_degenerate_height(self):
        with pytest.raises(ValueError):
            to_cxcyah(box(0, 0, 10, 0))

    @given(finite_boxes)
    def test_round_trip(self, b):
        back = from_cxcyah(*to_cxcyah(b))
        for got, want in [(back.left, b.left), (back.top, b.top),
                          (back.width, b.width), (back.height, b.height)]:
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestDetection:
    def test_score_bounds(self):
        d = Detection(1, box(0, 0, 5, 5), 0.5)
        assert d.score == 0.5
        with pytest.raises(ValueError):
            Detection(1, box(0, 0, 5, 5), 1.5)
        with pytest.raises(ValueError):
            Detection(1, box(0, 0, 5, 5), -0.1)
