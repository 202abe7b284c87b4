import math

import pytest
from hypothesis import given, strategies as st

from sftrack.types import (BoundingBox, Detection, from_cxcyah, iou, iou_matrix,
                           to_cxcyah)


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
        m = iou_matrix(rows, cols)
        for i, r in enumerate(rows):
            for j, c in enumerate(cols):
                assert m[i, j] == pytest.approx(iou(r, c), abs=1e-12)


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
