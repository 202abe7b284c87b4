import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sftrack import appearance as ap
from sftrack.association import (FORBIDDEN, IOU_GATE, Assignment, Columns, build_stage_matrix,
                                 hungarian, low_init_allowed)
from sftrack.appearance import AppearanceMemory, detection_cues
from sftrack.types import BoundingBox, Detection, box_array, corners, iou_matrix


def brute_force_min(cost: np.ndarray) -> float:
    """Exhaustive minimum over complete matchings of the smaller side."""
    n, m = cost.shape
    if n <= m:
        best = min(sum(cost[i, p[i]] for i in range(n))
                   for p in itertools.permutations(range(m), n))
    else:
        best = min(sum(cost[p[j], j] for j in range(m))
                   for p in itertools.permutations(range(n), m))
    return best


class _Row:
    """One track row: its predicted box, class id, running embedding and
    crop memory; ``_track_columns`` stacks rows as the tracker keeps them."""

    def __init__(self, box, class_id=0, embedding=None):
        self.predicted_box = box
        self.class_id = class_id
        self.embedding = embedding
        self.memory = AppearanceMemory()


def _columns(boxes, class_ids, embeddings, cues) -> Columns:
    width = max((e.size for e in embeddings if e is not None), default=0)
    table = np.zeros((len(boxes), width))
    for i, e in enumerate(embeddings):
        if e is not None:
            table[i] = e
    return Columns(corners(box_array(boxes)), np.array(class_ids, dtype=int), table,
                   np.array([e is not None for e in embeddings], dtype=bool), list(cues))


def _track_columns(rows) -> Columns:
    return _columns([r.predicted_box for r in rows], [r.class_id for r in rows],
                    [r.embedding for r in rows], [r.memory for r in rows])


def _det_columns(dets, cues) -> Columns:
    return _columns([d.box for d in dets], [d.class_id for d in dets],
                    [c.embedding for c in cues], cues)


def _cues(frame, dets, embeddings=None):
    embeddings = embeddings or [None] * len(dets)
    return [detection_cues(frame, d.box, e) for d, e in zip(dets, embeddings)]


def _matrix(tracks, dets, stage, cues, use_appearance=True):
    return build_stage_matrix(_track_columns(tracks), _det_columns(dets, cues), stage,
                              use_appearance=use_appearance)


def _one_pair(stage, track, det, frame, embedding=None, use_appearance=True):
    cost = _matrix([track], [det], stage, _cues(frame, [det], [embedding]), use_appearance)
    return float(cost[0, 0])


class TestFuse:
    """The stage similarities, read back from one-pair cost matrices."""

    FRAME = np.full((50, 50, 3), 120, dtype=np.uint8)
    TRACK_BOX = BoundingBox(10, 10, 20, 20)
    HALF_BOX = BoundingBox(10, 10, 20, 10)  # IoU 0.5 with TRACK_BOX

    def test_fuse_first(self):
        e_t = np.array([1.0, 0.0])
        track = _Row(self.TRACK_BOX, embedding=e_t)
        same = Detection(1, self.TRACK_BOX, 0.9)
        assert _one_pair("first", track, same, self.FRAME, e_t) == 0.0
        tilted = Detection(1, self.HALF_BOX, 0.9)
        assert _one_pair("first", track, tilted, self.FRAME,
                         np.array([0.8, 0.6])) == pytest.approx(1 - 0.4)

    def test_fuse_first_without_embedding(self):
        track = _Row(self.TRACK_BOX, embedding=np.array([1.0, 0.0]))
        det = Detection(1, self.HALF_BOX, 0.9)
        assert _one_pair("first", track, det, self.FRAME) == 0.5

    def test_fuse_second(self):
        rng = np.random.default_rng(5)
        frame = rng.integers(0, 256, size=(50, 50, 3)).astype(np.uint8)
        track = _Row(self.TRACK_BOX)
        track.memory = AppearanceMemory.from_cues(
            _cues(frame, [Detection(1, BoundingBox(0, 0, 20, 20), 0.9)])[0])
        det = Detection(1, self.HALF_BOX, 0.4)
        cues = _cues(frame, [det])[0]
        mem = track.memory
        h = ap.histogram_similarities(mem.histogram[None], cues.histogram[None])[0]
        m = ap.patch_similarities(mem.patch[None], cues.patch[None])[0]
        assert 0.0 < h < 1.0 and 0.0 < m < 1.0
        assert _one_pair("second", track, det, frame) == 1.0 - 0.5 * h * m
        assert _one_pair("second", track, det, frame, use_appearance=False) == 0.5
        # No crop on the detection side: the pair stays a candidate at similarity 0.
        off = Detection(1, BoundingBox(60, 60, 10, 10), 0.4)
        track.predicted_box = off.box
        assert _one_pair("second", track, off, frame) == 1.0


class TestHungarian:
    def test_counterintuitive_optimum(self):
        # Anti-diagonal total 4 beats diagonal total 5.
        a = hungarian(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert sorted(a.matches) == [(0, 1), (1, 0)]

    def test_zero_diagonal(self):
        cost = np.full((3, 3), 1.0)
        np.fill_diagonal(cost, 0.0)
        a = hungarian(cost)
        assert sorted(a.matches) == [(0, 0), (1, 1), (2, 2)]

    def test_empty(self):
        a = hungarian(np.zeros((0, 3)))
        assert a.matches == [] and a.unmatched_cols == [0, 1, 2]

    def test_forbidden_never_selected(self):
        cost = np.array([[FORBIDDEN, 0.2], [FORBIDDEN, FORBIDDEN]])
        a = hungarian(cost)
        assert a.matches == [(0, 1)]
        assert a.unmatched_rows == [1]
        assert a.unmatched_cols == [0]

    def test_all_forbidden(self):
        a = hungarian(np.full((2, 2), FORBIDDEN))
        assert a.matches == []

    def test_demotion_below_min_similarity(self):
        cost = np.array([[0.95, 0.2], [0.2, 0.95]])
        a = hungarian(cost, min_similarity=0.1)
        assert sorted(a.matches) == [(0, 1), (1, 0)]
        a2 = hungarian(np.array([[0.95]]), min_similarity=0.1)
        assert a2.matches == []  # similarity 0.05 < 0.1 demoted

    def test_partition_exact(self):
        rng = np.random.default_rng(3)
        cost = rng.uniform(size=(5, 7))
        a = hungarian(cost)
        rows = [r for r, _ in a.matches] + a.unmatched_rows
        cols = [c for _, c in a.matches] + a.unmatched_cols
        assert sorted(rows) == list(range(5))
        assert sorted(cols) == list(range(7))

    def test_matches_brute_force_small_suite(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = rng.integers(1, 5)
            m = rng.integers(1, 5)
            cost = rng.uniform(size=(n, m)).round(3)
            got = sum(cost[r, c] for r, c in hungarian(cost).matches)
            assert got == pytest.approx(brute_force_min(cost), abs=1e-12)


def hungarian_loop(cost: np.ndarray, min_similarity: float = 0.0) -> Assignment:
    """The per-match loop that the array filtering replaced."""
    from scipy.optimize import linear_sum_assignment

    cost = np.asarray(cost, dtype=float)
    n_rows, n_cols = cost.shape if cost.ndim == 2 else (0, 0)
    if n_rows == 0 or n_cols == 0:
        return Assignment([], list(range(n_rows)), list(range(n_cols)))
    solvable = np.where(np.isfinite(cost), cost, 1e6)
    row_idx, col_idx = linear_sum_assignment(solvable)
    matches = []
    for r, c in zip(row_idx, col_idx):
        if not np.isfinite(cost[r, c]):
            continue
        if min_similarity > 0.0 and 1.0 - cost[r, c] < min_similarity:
            continue
        matches.append((int(r), int(c)))
    matched_rows = {r for r, _ in matches}
    matched_cols = {c for _, c in matches}
    return Assignment(
        matches,
        [r for r in range(n_rows) if r not in matched_rows],
        [c for c in range(n_cols) if c not in matched_cols],
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(0, 7), st.integers(0, 7),
       st.floats(0.0, 1.0), st.sampled_from([0.0, 0.05, 0.1, 0.5]))
def test_hungarian_matches_per_match_loop(seed, n, m, p_forbidden, min_similarity):
    rng = np.random.default_rng(seed)
    # Rounded costs give ties, and costs on the similarity floor itself.
    cost = rng.uniform(0.0, 1.0, size=(n, m)).round(1)
    cost[rng.uniform(size=(n, m)) < p_forbidden] = FORBIDDEN
    got = hungarian(cost, min_similarity)
    want = hungarian_loop(cost, min_similarity)
    assert got == want
    assert all(type(v) is int for pair in got.matches for v in pair)
    assert all(type(v) is int for v in got.unmatched_rows + got.unmatched_cols)


class TestColumns:
    def test_take_keeps_rows_in_order(self):
        cols = _columns([BoundingBox(i, 0, 1, 1) for i in range(4)], [0, 1, 0, 1],
                        [np.array([1.0, 0.0]), None, np.array([0.0, 1.0]), None], "abcd")
        sub = cols.take([2, 0])
        assert len(sub) == 2 and sub.cues == ["c", "a"]
        assert sub.boxes[:, 0].tolist() == [2.0, 0.0]
        assert sub.class_ids.tolist() == [0, 0]
        assert sub.has_embedding.tolist() == [True, True]
        assert sub.embeddings.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        empty = cols.take([])
        assert len(empty) == 0 and empty.boxes.shape == (0, 4)

    def test_low_init_gate_reads_columns(self):
        box = BoundingBox(0, 0, 5, 5)
        low = _columns([box, box, box], [0, 0, 1],
                       [np.array([1.0, 0.0]), None, np.array([1.0, 0.0])], [None] * 3)
        high = _columns([box, box], [0, 1], [np.array([0.6, 0.8]), None], [None] * 2)
        # Row 0: best same-class cosine 0.6; row 1 has no embedding; row 2's
        # only same-class high detection has none.
        assert low_init_allowed(low, high, 0.5).tolist() == [True, True, True]
        assert low_init_allowed(low, high, 0.7).tolist() == [False, True, True]


@settings(max_examples=40)
@given(st.integers(0, 2 ** 31 - 1))
def test_solver_scale_invariance(seed):
    rng = np.random.default_rng(seed)
    cost = rng.uniform(0.01, 1.0, size=(rng.integers(1, 6), rng.integers(1, 6)))
    base = sorted(hungarian(cost).matches)
    for factor in (0.5, 3.0, 10.0):
        assert sorted(hungarian(cost * factor).matches) == base


@settings(max_examples=40)
@given(st.integers(0, 2 ** 31 - 1))
def test_solver_permutation_equivariance(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    # Continuous random costs make the optimal assignment unique a.s.
    cost = rng.uniform(size=(n, m))
    perm_r = rng.permutation(n)
    perm_c = rng.permutation(m)
    permuted = cost[np.ix_(perm_r, perm_c)]
    base = sorted(hungarian(cost).matches)
    mapped = sorted((int(perm_r[r]), int(perm_c[c]))
                    for r, c in hungarian(permuted).matches)
    assert mapped == base


class TestBuildStageMatrix:
    def test_perfect_pair_zero_cost(self):
        frame = np.full((50, 50, 3), 120, dtype=np.uint8)
        b = BoundingBox(10, 10, 20, 20)
        e = np.zeros(8)
        e[0] = 1.0
        track = _Row(b, class_id=1, embedding=e)
        det = Detection(1, b, 0.9, class_id=1)
        cost = _matrix([track], [det], "first", _cues(frame, [det], [e]))
        assert cost[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_iou_below_gate_forbidden(self):
        frame = np.full((50, 50, 3), 120, dtype=np.uint8)
        track = _Row(BoundingBox(0, 0, 5, 5), class_id=1)
        det = Detection(1, BoundingBox(40, 40, 5, 5), 0.9, class_id=1)
        cost = _matrix([track], [det], "first", _cues(frame, [det]))
        assert np.isinf(cost[0, 0])

    def test_cross_class_forbidden(self):
        frame = np.full((50, 50, 3), 120, dtype=np.uint8)
        b = BoundingBox(10, 10, 20, 20)
        track = _Row(b, class_id=1)
        det = Detection(1, b, 0.9, class_id=2)
        cost = _matrix([track], [det], "first", _cues(frame, [det]))
        assert np.isinf(cost[0, 0])


def _oracle(tracks, detections, cues, stage, use_appearance):
    """The per-pair loop the array builder replaced, written out in full."""
    ious = iou_matrix(corners(box_array([t.predicted_box for t in tracks])),
                      corners(box_array([d.box for d in detections])))
    cost = np.full((len(tracks), len(detections)), FORBIDDEN)
    for i, track in enumerate(tracks):
        mem = track.memory
        for j, (det, cue) in enumerate(zip(detections, cues)):
            if track.class_id != det.class_id or ious[i, j] < IOU_GATE:
                continue
            sim = ious[i, j]
            if use_appearance and stage == "first":
                if track.embedding is not None and cue.embedding is not None:
                    cos = np.dot(track.embedding, cue.embedding) / (
                        np.linalg.norm(track.embedding) * np.linalg.norm(cue.embedding))
                    sim *= max(0.0, cos)
            elif use_appearance:
                if mem.histogram is None or cue.histogram is None:
                    sim = 0.0
                else:
                    bc = np.sqrt(mem.histogram * cue.histogram).sum(axis=1)
                    h = 1.0 - np.sqrt(np.clip(1.0 - bc, 0.0, 1.0)).mean()
                    m = 1.0 - np.mean((mem.patch.astype(float) - cue.patch) ** 2) / 255.0 ** 2
                    sim *= h * m
            cost[i, j] = 1.0 - sim
    return cost


def _random_unit(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _random_box(rng):
    # Anchored on a coarse grid so that pairs overlap often; some boxes
    # hang off the frame and yield no crop.
    x = rng.choice([-25.0, 10.0, 15.0, 70.0]) + rng.uniform(-3, 3)
    y = rng.choice([-25.0, 10.0, 15.0, 50.0]) + rng.uniform(-3, 3)
    return BoundingBox(x, y, rng.uniform(6, 30), rng.uniform(6, 30))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from(["first", "second"]), st.booleans())
def test_build_stage_matrix_matches_per_pair_oracle(seed, stage, use_appearance):
    rng = np.random.default_rng(seed)
    h, w = 60, 80
    frame = rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8)
    dim = 6
    tracks = []
    for _ in range(rng.integers(0, 7)):
        track = _Row(_random_box(rng), class_id=int(rng.integers(0, 2)))
        if rng.uniform() < 0.8:
            seen = detection_cues(frame, _random_box(rng),
                                  _random_unit(rng, dim) if rng.uniform() < 0.7 else None)
            track.memory = AppearanceMemory.from_cues(seen)
            track.embedding = seen.embedding
        tracks.append(track)
    detections = [Detection(1, _random_box(rng), float(rng.uniform()),
                            class_id=int(rng.integers(0, 2)))
                  for _ in range(rng.integers(0, 7))]
    cues = _cues(frame, detections, [_random_unit(rng, dim) if rng.uniform() < 0.7 else None
                                     for _ in detections])
    got = _matrix(tracks, detections, stage, cues, use_appearance)
    want = _oracle(tracks, detections, cues, stage, use_appearance)
    assert got.shape == want.shape
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    assert np.allclose(got[finite], want[finite], rtol=0.0, atol=1e-12)
