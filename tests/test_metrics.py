import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from sftrack import metrics
from sftrack.association import FORBIDDEN, hungarian
from sftrack.io_formats import AnnotatedBox
from sftrack.metrics import (ClearResult, MetricsReport, clear_match, evaluate, idf1, mota,
                             mt_ml, remove_ignored)
from sftrack.types import BoundingBox, box_array, corners, iou, iou_matrix


def entry(frame, obj_id, x, y, w=10, h=10, cls=0, score=1.0, ignored=False):
    return AnnotatedBox(frame, obj_id, BoundingBox(x, y, w, h), score, cls, ignored)


def track_frames(obj_id, frames, x0, y0, vx=0.0, vy=0.0, w=10, h=10, cls=0):
    return [entry(f, obj_id, x0 + vx * (f - frames[0]), y0 + vy * (f - frames[0]), w, h, cls)
            for f in frames]


def as_frames(rows):
    out = {}
    for r in rows:
        out.setdefault(r.frame, []).append(r)
    return out


class TestMota:
    def test_fixture(self):
        assert mota(5, 10, 1, 100) == pytest.approx(84.0, abs=1e-12)

    def test_perfect(self):
        assert mota(0, 0, 0, 37) == 100.0

    def test_negative(self):
        assert mota(60, 60, 0, 100) == pytest.approx(-20.0)

    def test_zero_gt_error(self):
        with pytest.raises(ValueError):
            mota(0, 0, 0, 0)


class TestClearMatch:
    def test_perfect(self):
        gt = as_frames(track_frames(1, range(1, 11), 0, 0, vx=2))
        res = clear_match(gt, gt)
        assert (res.fp, res.fn, res.ids) == (0, 0, 0)
        assert res.gt_total == 10

    def test_empty_hypothesis(self):
        gt = as_frames(track_frames(1, range(1, 11), 0, 0))
        res = clear_match(gt, {})
        assert res.fn == 10
        assert res.fp == 0

    def test_identity_switch_counted_once(self):
        gt = as_frames(track_frames(1, range(1, 11), 0, 0))
        hyp = as_frames(track_frames(101, range(1, 6), 0, 0)
                        + track_frames(102, range(6, 11), 0, 0))
        res = clear_match(gt, hyp)
        assert res.ids == 1
        assert res.fp == 0 and res.fn == 0

    def test_switch_after_gap_counted(self):
        gt = as_frames(track_frames(1, range(1, 8), 0, 0))
        hyp = as_frames(track_frames(101, range(1, 3), 0, 0)
                        + track_frames(102, range(5, 8), 0, 0))
        res = clear_match(gt, hyp)
        assert res.ids == 1
        assert res.fn == 2  # frames 3, 4 uncovered

    def test_continuation_beats_better_iou(self):
        # Established pair persists while above threshold even if another
        # hypothesis now overlaps more.
        gt = as_frames([entry(1, 1, 0, 0), entry(2, 1, 2, 0)])
        hyp = as_frames([entry(1, 50, 0, 0),
                         entry(2, 50, 4, 0), entry(2, 51, 2, 0)])
        res = clear_match(gt, hyp)
        assert res.ids == 0
        assert res.fp == 1  # the closer newcomer stays unmatched

    @pytest.mark.parametrize("threshold", [0.0, -0.5])
    def test_non_positive_threshold_rejected(self, threshold):
        gt = as_frames(track_frames(1, range(1, 4), 0, 0))
        for fn in (clear_match, idf1, evaluate):
            with pytest.raises(ValueError, match="iou_threshold"):
                fn(gt, gt, threshold)

    def test_duplicate_ids_rejected(self):
        gt = as_frames([entry(1, 1, 0, 0), entry(1, 1, 30, 30)])
        with pytest.raises(ValueError, match="duplicate"):
            clear_match(gt, {})


class TestIdf1:
    def test_perfect(self):
        gt = as_frames(track_frames(1, range(1, 11), 0, 0, vx=3))
        res = idf1(gt, gt)
        assert res.idf1 == pytest.approx(1.0)
        assert res.idtp == 10

    def test_empty_hypothesis(self):
        gt = as_frames(track_frames(1, range(1, 11), 0, 0))
        assert idf1(gt, {}).idf1 == 0.0

    def test_split_trajectory_fixture(self):
        gt = as_frames(track_frames(1, range(1, 11), 0, 0))
        hyp = as_frames(track_frames(101, range(1, 6), 0, 0)
                        + track_frames(102, range(6, 11), 0, 0))
        res = idf1(gt, hyp)
        assert res.idf1 == pytest.approx(0.5, abs=1e-12)
        assert res.idtp == 5

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(0)
        gt_rows, hyp_rows = _random_instance(rng)
        base = idf1(as_frames(gt_rows), as_frames(hyp_rows)).idf1
        relabeled = [AnnotatedBox(r.frame, r.obj_id + 777, r.box, r.score, r.class_id)
                     for r in hyp_rows]
        assert idf1(as_frames(gt_rows), as_frames(relabeled)).idf1 == pytest.approx(base)


def _random_instance(rng, n_gt=None, n_hyp=None, frames=12):
    n_gt = n_gt or rng.integers(1, 6)
    n_hyp = n_hyp or rng.integers(1, 6)
    gt_rows, hyp_rows = [], []
    for i in range(n_gt):
        span = sorted(rng.choice(np.arange(1, frames + 1), size=rng.integers(2, frames),
                                 replace=False))
        x, y = rng.uniform(0, 60, size=2)
        gt_rows += [entry(int(f), i + 1, x + rng.uniform(-2, 2), y) for f in span]
    for j in range(n_hyp):
        span = sorted(rng.choice(np.arange(1, frames + 1), size=rng.integers(2, frames),
                                 replace=False))
        x, y = rng.uniform(0, 60, size=2)
        hyp_rows += [entry(int(f), 100 + j, x + rng.uniform(-2, 2), y) for f in span]
    return gt_rows, hyp_rows


def _exhaustive_idtp(gt, hyp, threshold=0.5):
    """Maximum total per-pair frame overlap over all one-to-one identity maps."""
    gt_ids = sorted({r.obj_id for rows in gt.values() for r in rows})
    hyp_ids = sorted({r.obj_id for rows in hyp.values() for r in rows})
    pair_credit = {}
    for frame in set(gt) | set(hyp):
        for g in gt.get(frame, []):
            for h in hyp.get(frame, []):
                if iou(g.box, h.box) >= threshold:
                    key = (g.obj_id, h.obj_id)
                    pair_credit[key] = pair_credit.get(key, 0) + 1
    best = 0
    slots = hyp_ids + [None] * len(gt_ids)
    for assignment in itertools.permutations(slots, len(gt_ids)):
        total = sum(pair_credit.get((g, h), 0)
                    for g, h in zip(gt_ids, assignment) if h is not None)
        best = max(best, total)
    return best


def test_idf1_matches_exhaustive_oracle():
    rng = np.random.default_rng(12)
    for _ in range(25):
        gt_rows, hyp_rows = _random_instance(rng)
        gt, hyp = as_frames(gt_rows), as_frames(hyp_rows)
        got = idf1(gt, hyp)
        assert got.idtp == _exhaustive_idtp(gt, hyp)


def test_count_bounds_on_random_instances():
    rng = np.random.default_rng(13)
    for _ in range(25):
        gt_rows, hyp_rows = _random_instance(rng)
        gt, hyp = as_frames(gt_rows), as_frames(hyp_rows)
        res = clear_match(gt, hyp)
        n_matched = sum(len(m) for m in res.correspondences.values())
        assert res.fn <= res.gt_total
        assert res.fp <= res.hyp_total
        assert res.ids <= n_matched


class TestMtMl:
    def test_fully_covered_is_mt(self):
        gt = as_frames(track_frames(1, range(1, 11), 0, 0))
        res = clear_match(gt, gt)
        assert mt_ml(gt, res.correspondences) == (1, 0)

    def test_never_covered_is_ml(self):
        gt = as_frames(track_frames(1, range(1, 11), 0, 0))
        assert mt_ml(gt, {}) == (0, 1)

    def test_boundary_inclusive(self):
        gt = as_frames(track_frames(1, range(1, 11), 0, 0))
        hyp = as_frames(track_frames(9, range(1, 9), 0, 0))  # 8 of 10 frames
        res = clear_match(gt, hyp)
        assert mt_ml(gt, res.correspondences) == (1, 0)
        hyp2 = as_frames(track_frames(9, range(1, 3), 0, 0))  # 2 of 10 frames
        res2 = clear_match(gt, hyp2)
        assert mt_ml(gt, res2.correspondences) == (0, 1)


class TestIgnoreRegions:
    def test_ignored_gt_excluded_and_hyp_absorbed(self):
        gt = as_frames([entry(1, 1, 0, 0), entry(1, 2, 50, 50, ignored=True)])
        hyp = as_frames([entry(1, 7, 0, 0), entry(1, 8, 50, 50)])
        g, h = remove_ignored(gt, hyp)
        assert [r.obj_id for r in g[1]] == [1]
        assert [r.obj_id for r in h[1]] == [7]


class TestEvaluate:
    def test_perfect_report(self):
        gt = as_frames(track_frames(1, range(1, 11), 0, 0, cls=4)
                       + track_frames(2, range(1, 11), 40, 40, cls=1))
        report = evaluate(gt, gt)
        assert report.mota == 100.0
        assert report.idf1 == 1.0
        assert report.mt == 2 and report.ml == 0
        assert "sequence" in report.per_sequence

    def test_eq1_file_fixture(self):
        # 10 objects x 10 frames = 100 GT. Object 10 never hypothesized
        # (FN 10); 5 stray boxes (FP 5); object 1 switches id at frame 6.
        gt_rows, hyp_rows = [], []
        for i in range(1, 11):
            gt_rows += track_frames(i, range(1, 11), 30 * i, 30 * i)
            if i == 10:
                continue
            if i == 1:
                hyp_rows += track_frames(100, range(1, 6), 30, 30)
                hyp_rows += track_frames(199, range(6, 11), 30, 30)
            else:
                hyp_rows += track_frames(100 + i, range(1, 11), 30 * i, 30 * i)
        for k in range(1, 6):
            hyp_rows.append(entry(k, 500, 600, 600))
        report = evaluate(as_frames(gt_rows), as_frames(hyp_rows))
        assert (report.fp, report.fn, report.ids) == (5, 10, 1)
        assert report.gt_total == 100
        assert report.mota == pytest.approx(84.0, abs=1e-12)

    def test_class_partition(self):
        # Same geometry, different classes: must not match across classes
        # when the hypothesis carries class ids.
        gt = as_frames([entry(1, 1, 0, 0, cls=4)])
        hyp = as_frames([entry(1, 9, 0, 0, cls=1)])
        report = evaluate(gt, hyp)
        assert report.fp == 1 and report.fn == 1

    def test_pooled_when_hyp_classless(self):
        gt = as_frames([entry(1, 1, 0, 0, cls=4)])
        hyp = as_frames([entry(1, 9, 0, 0, cls=-1)])
        report = evaluate(gt, hyp)
        assert report.fp == 0 and report.fn == 0
        assert report.mota == 100.0


# ---------------------------------------------------------------------------
# Reference: the per-pair implementation that the array-based one replaced,
# kept as an oracle for equal reports.


def _ref_iou_matrix(rows, cols):
    return iou_matrix(corners(box_array(rows)), corners(box_array(cols)))


def _ref_check_unique_ids(rows, frame, what):
    seen = set()
    for r in rows:
        if r.obj_id in seen:
            raise ValueError(f"duplicate {what} id {r.obj_id} in frame {frame}")
        seen.add(r.obj_id)


def _ref_clear_match(gt, hyp, iou_threshold=0.5):
    result = ClearResult()
    last_hyp_for_gt, prev_matches = {}, {}
    for frame in sorted(set(gt) | set(hyp)):
        gt_rows, hyp_rows = gt.get(frame, []), hyp.get(frame, [])
        _ref_check_unique_ids(gt_rows, frame, "ground-truth")
        _ref_check_unique_ids(hyp_rows, frame, "hypothesis")
        result.gt_total += len(gt_rows)
        result.hyp_total += len(hyp_rows)
        gt_by_id = {r.obj_id: r for r in gt_rows}
        hyp_by_id = {r.obj_id: r for r in hyp_rows}
        matches = {}
        for g_id, h_id in prev_matches.items():
            g, h = gt_by_id.get(g_id), hyp_by_id.get(h_id)
            if g is not None and h is not None and iou(g.box, h.box) >= iou_threshold:
                matches[g_id] = h_id
        free_gt = [r for r in gt_rows if r.obj_id not in matches]
        used_hyp = set(matches.values())
        free_hyp = [r for r in hyp_rows if r.obj_id not in used_hyp]
        if free_gt and free_hyp:
            ious = _ref_iou_matrix([r.box for r in free_gt], [r.box for r in free_hyp])
            cost = np.where(ious >= iou_threshold, 1.0 - ious, FORBIDDEN)
            for gi, hj in hungarian(cost).matches:
                matches[free_gt[gi].obj_id] = free_hyp[hj].obj_id
        for g_id, h_id in matches.items():
            prev = last_hyp_for_gt.get(g_id)
            if prev is not None and prev != h_id:
                result.ids += 1
            last_hyp_for_gt[g_id] = h_id
        result.fn += len(gt_rows) - len(matches)
        result.fp += len(hyp_rows) - len(matches)
        result.correspondences[frame] = sorted(matches.items())
        prev_matches = matches
    return result


def _ref_idtp(gt, hyp, iou_threshold=0.5):
    """IDTP as the minimum of the (gt ids + hyp ids)^2 identity-cost matrix."""
    gt_len, hyp_len, overlap = {}, {}, {}
    for frame in sorted(set(gt) | set(hyp)):
        gt_rows, hyp_rows = gt.get(frame, []), hyp.get(frame, [])
        for r in gt_rows:
            gt_len[r.obj_id] = gt_len.get(r.obj_id, 0) + 1
        for r in hyp_rows:
            hyp_len[r.obj_id] = hyp_len.get(r.obj_id, 0) + 1
        if gt_rows and hyp_rows:
            ious = _ref_iou_matrix([r.box for r in gt_rows], [r.box for r in hyp_rows])
            for gi, hj in zip(*np.nonzero(ious >= iou_threshold)):
                key = (gt_rows[gi].obj_id, hyp_rows[hj].obj_id)
                overlap[key] = overlap.get(key, 0) + 1
    gt_ids, hyp_ids = sorted(gt_len), sorted(hyp_len)
    if not gt_ids or not hyp_ids:
        return 0
    ng, nh = len(gt_ids), len(hyp_ids)
    big = float(sum(gt_len.values()) + sum(hyp_len.values()) + 1)
    cost = np.zeros((ng + nh, ng + nh))
    cost[:ng, :nh] = [[gt_len[g] + hyp_len[h] - 2 * overlap.get((g, h), 0) for h in hyp_ids]
                      for g in gt_ids]
    cost[:ng, nh:] = big
    cost[ng:, :nh] = big
    for i, g in enumerate(gt_ids):
        cost[i, nh + i] = gt_len[g]
    for j, h in enumerate(hyp_ids):
        cost[ng + j, j] = hyp_len[h]
    rows, cols = linear_sum_assignment(cost)
    return sum(overlap.get((gt_ids[r], hyp_ids[c]), 0)
               for r, c in zip(rows, cols) if r < ng and c < nh)


def _ref_mt_ml(gt, correspondences, mt_threshold=0.8, ml_threshold=0.2):
    lifespan, covered = {}, {}
    for frame, rows in gt.items():
        matched = {g for g, _ in correspondences.get(frame, [])}
        for r in rows:
            lifespan[r.obj_id] = lifespan.get(r.obj_id, 0) + 1
            if r.obj_id in matched:
                covered[r.obj_id] = covered.get(r.obj_id, 0) + 1
    mt = ml = 0
    for obj_id, span in lifespan.items():
        coverage = covered.get(obj_id, 0) / span
        if coverage >= mt_threshold:
            mt += 1
        elif coverage <= ml_threshold:
            ml += 1
    return mt, ml


def _ref_evaluate(gt, hyp, iou_threshold=0.5, sequence_name="sequence"):
    gt, hyp = remove_ignored(gt, hyp, iou_threshold)
    fp = fn = ids = idtp = gt_total = hyp_total = mt = ml = 0
    for g_part, h_part in metrics._class_groups(gt, hyp):
        clear = _ref_clear_match(g_part, h_part, iou_threshold)
        part_mt, part_ml = _ref_mt_ml(g_part, clear.correspondences)
        fp, fn, ids = fp + clear.fp, fn + clear.fn, ids + clear.ids
        idtp += _ref_idtp(g_part, h_part, iou_threshold)
        gt_total, hyp_total = gt_total + clear.gt_total, hyp_total + clear.hyp_total
        mt, ml = mt + part_mt, ml + part_ml
    if gt_total <= 0:
        raise ValueError("no ground-truth instances to evaluate against")
    report = MetricsReport(
        mota=mota(fp, fn, ids, gt_total),
        idf1=2.0 * idtp / (gt_total + hyp_total) if gt_total + hyp_total else 0.0,
        fp=fp, fn=fn, ids=ids, idtp=idtp, gt_total=gt_total, mt=mt, ml=ml)
    fields = report.to_dict()
    fields.pop("per_sequence")
    report.per_sequence = {sequence_name: fields}
    return report


def _scene(rng, pooled, decimals, frames=10):
    """Random gt and hyp with ignored gt regions, boxes on a 5-px lattice
    (so many pairs sit at IoU exactly 0.5, e.g. 30x10 boxes 10 px apart) or
    at two-decimal coordinates, hypotheses that follow, drift off or jump
    between targets, frames on one side only, and empty frames."""
    scale = rng.uniform(0.9, 1.1) if decimals else 1.0

    def box(x, y, w, h):
        return BoundingBox(*(round(v * scale, 2) for v in (x, y, w, h)))

    gt, hyp = {}, {}
    targets = []
    for i in range(int(rng.integers(1, 7))):
        x, y = 5 * rng.integers(0, 14, size=2)
        w, h = rng.choice([10, 20, 30]), rng.choice([5, 10])
        cls, vx = int(rng.integers(1, 3)), 5 * int(rng.integers(-1, 2))
        ignored = rng.random() < 0.15
        span = sorted(rng.choice(np.arange(1, frames + 1), size=rng.integers(2, frames + 1),
                                 replace=False))
        for f in span:
            gt.setdefault(int(f), []).append(AnnotatedBox(
                int(f), i + 1, box(x + vx * f, y, w, h), 1.0, cls, ignored))
        targets.append((x, y, w, h, vx, cls))
    for j in range(int(rng.integers(0, 9))):
        x, y, w, h, vx, cls = targets[int(rng.integers(len(targets)))]
        dx, dy = 5 * rng.integers(-2, 3, size=2) * (rng.random() < 0.6)
        if rng.random() < 0.4:
            w = w // 2 if rng.random() < 0.5 else w
            h = h // 2 if rng.random() < 0.5 else h
        if rng.random() < 0.2:
            cls = 3 - cls
        span = sorted(rng.choice(np.arange(1, frames + 3), size=rng.integers(1, frames),
                                 replace=False))
        for f in span:
            jump = 5 * int(rng.integers(-1, 2)) if rng.random() < 0.2 else 0
            hyp.setdefault(int(f), []).append(AnnotatedBox(
                int(f), 100 + j, box(x + vx * f + dx + jump, y + dy, w, h), 0.9,
                -1 if pooled else cls))
    gt.setdefault(frames + 3, [])
    hyp.setdefault(frames + 4, [])
    return gt, hyp


@pytest.mark.parametrize("pooled", [False, True], ids=["class-aware", "pooled"])
@pytest.mark.parametrize("decimals", [False, True], ids=["lattice", "two-decimal"])
def test_matches_reference_on_random_scenes(pooled, decimals):
    rng = np.random.default_rng([21, pooled, decimals])
    at_half = 0
    for _ in range(60):
        gt, hyp = _scene(rng, pooled, decimals)
        try:
            want = _ref_evaluate(gt, hyp)
        except ValueError as exc:  # every gt row ignored
            with pytest.raises(ValueError, match=str(exc)):
                evaluate(gt, hyp)
            continue
        assert evaluate(gt, hyp) == want
        g, h = remove_ignored(gt, hyp)
        assert clear_match(g, h).correspondences == _ref_clear_match(g, h).correspondences
        at_half += sum(iou(a.box, b.box) == 0.5 for f in g for a in g[f] for b in h.get(f, []))
    if not decimals:
        assert at_half >= 25  # the lattice does put pairs exactly at the threshold


def test_persistence_scores_area_as_width_times_height():
    # At frame 2 the established pair's IoU is 0.5000000000000001 with
    # areas width x height (types.iou) but 0.4999999999999998 with areas
    # from the corners (types.iou_matrix): the pair persists, as it always
    # has, and the corner form alone would have dropped it.
    a = BoundingBox(13.51, 72.15, 10.98, 6.89)
    b = BoundingBox(17.17, 72.15, 10.98, 6.89)
    assert iou(a, b) >= 0.5 > _ref_iou_matrix([a], [b])[0, 0]
    gt = {1: [AnnotatedBox(1, 1, a, 1.0, 0)], 2: [AnnotatedBox(2, 1, a, 1.0, 0)]}
    hyp = {1: [AnnotatedBox(1, 7, a, 1.0, -1)], 2: [AnnotatedBox(2, 7, b, 1.0, -1)]}
    res = clear_match(gt, hyp)
    assert res.correspondences == {1: [(1, 7)], 2: [(1, 7)]}
    assert evaluate(gt, hyp) == _ref_evaluate(gt, hyp)


@pytest.mark.parametrize("side", ["gt", "hyp"])
def test_duplicate_ids_raise_like_reference(side):
    gt = as_frames([entry(1, 1, 0, 0), entry(2, 1, 0, 0), entry(2, 2, 30, 30)])
    hyp = as_frames([entry(1, 5, 0, 0), entry(2, 5, 0, 0), entry(3, 6, 9, 9)])
    dup = {"gt": gt, "hyp": hyp}[side]
    dup[2].append(dup[2][0])
    with pytest.raises(ValueError) as want:
        _ref_clear_match(gt, hyp)
    with pytest.raises(ValueError) as got:
        clear_match(gt, hyp)
    assert str(got.value) == str(want.value)
    with pytest.raises(ValueError, match="duplicate"):
        evaluate(gt, hyp)


def test_idf1_memory_stays_small_with_many_ids():
    # 300 targets on a grid over 100 frames, each tracked as five 20-frame
    # fragments: 1500 hypothesis ids. An (ng + nh)^2 float64 identity-cost
    # matrix alone would take 1800^2 x 8 B = 26 MB.
    gt, hyp = {}, {}
    for f in range(1, 101):
        gt[f] = [entry(f, i + 1, 30 * (i % 20), 30 * (i // 20)) for i in range(300)]
        hyp[f] = [entry(f, 1000 + 5 * i + (f - 1) // 20, 30 * (i % 20), 30 * (i // 20), cls=-1)
                  for i in range(300)]
    tracemalloc.start()
    try:
        res = idf1(gt, hyp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.idtp == 300 * 20
    assert peak < 16 * 2 ** 20
