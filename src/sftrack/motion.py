"""Camera motion estimation and ratio-preserving track compensation.

Each frame is reduced once to a downscaled gray image (``motion_gray``),
which serves both frame pairs it belongs to. Per frame pair:

- corner features are detected on the previous frame (minimum-eigenvalue
  response) and thinned by greedy suppression in rank order, decided in
  array rounds over the pairs of candidates closer than ``min_distance``;
- they are tracked to the current frame with one forward pass of pyramidal
  Lucas-Kanade, whose window gradients are taken from the sampled template
  window itself (Bouguet's form);
- a RANSAC fit of a similarity (uniform scale, rotation, translation),
  the only outlier filter, recovers the global transform from 2-point
  samples, drawing them until an all-inlier sample has been drawn with
  probability ``RANSAC_CONFIDENCE`` (the adaptive stop), and refits the
  best sample's inliers in closed form.

The similarity is the model compensation applies: it moves track centers
and scales heights uniformly, and box aspect ratios are copied through
unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy import ndimage
from scipy.spatial import cKDTree

from .kalman import KalmanState

_LUMA = np.array([0.299, 0.587, 0.114])

# Integer factor frames are downscaled by before motion estimation.
MC_DOWNSCALE = 2

# Lucas-Kanade tracking: window side and converged step in px, residual as
# mean absolute intensity error, minimum eigenvalue per window pixel.
LK_WINDOW = 21
LK_LEVELS = 3
LK_MAX_ITERATIONS = 30
LK_EPSILON = 0.01
LK_MAX_RESIDUAL = 25.0
LK_MIN_EIG = 1e-3
# Offsets of a window's samples from its centre, and their indices.
_WINDOW_STEPS = np.arange(-(LK_WINDOW // 2), LK_WINDOW // 2 + 1, dtype=float)
_WINDOW_INDEX = np.arange(LK_WINDOW)
# RANSAC: most samples drawn, inlier reprojection error in px, and the
# probability of drawing an all-inlier sample the adaptive stop aims for.
RANSAC_ITERATIONS = 100
RANSAC_INLIER_THRESHOLD = 3.0
RANSAC_CONFIDENCE = 0.99


@dataclass(frozen=True, eq=False)
class AffineTransform2D:
    """2x2 linear part plus translation: p -> linear @ p + translation."""

    linear: np.ndarray
    translation: np.ndarray

    @staticmethod
    def identity() -> "AffineTransform2D":
        return AffineTransform2D(np.eye(2), np.zeros(2))

    @staticmethod
    def similarity(scale: float, rotation_rad: float, translation,
                   center=(0.0, 0.0)) -> "AffineTransform2D":
        """Scale+rotation about ``center`` followed by ``translation``."""
        c, s = np.cos(rotation_rad), np.sin(rotation_rad)
        a = scale * np.array([[c, -s], [s, c]])
        center = np.asarray(center, dtype=float)
        t = np.asarray(translation, dtype=float) + center - a @ center
        return AffineTransform2D(a, t)

    @property
    def scale_x(self) -> float:
        return float(np.linalg.norm(self.linear[:, 0]))

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.linear.T + self.translation

    def compose(self, inner: "AffineTransform2D") -> "AffineTransform2D":
        """self after inner: (self o inner)(p) = self(inner(p))."""
        return AffineTransform2D(self.linear @ inner.linear,
                                 self.linear @ inner.translation + self.translation)

    def inverse(self) -> "AffineTransform2D":
        inv = np.linalg.inv(self.linear)
        return AffineTransform2D(inv, -inv @ self.translation)

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.linear, np.eye(2))
                    and np.array_equal(self.translation, np.zeros(2)))


@dataclass
class FeatureTrackResult:
    prev_points: np.ndarray  # (N, 2)
    cur_points: np.ndarray   # (N, 2)
    status: np.ndarray       # (N,) bool

    def matched_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        return self.prev_points[self.status], self.cur_points[self.status]


def rgb_to_gray(image: np.ndarray) -> np.ndarray:
    """ITU-R 601 luma, rounded to the nearest integer and clipped to
    [0, 255], uint8. A 2-D image is taken as luma already; uint8 input is
    returned as it is."""
    if image.ndim == 2:
        if image.dtype == np.uint8:
            return image
        luma = image.astype(np.float64)
    else:
        luma = image.astype(np.float64) @ _LUMA
    return np.rint(luma).clip(0, 255).astype(np.uint8)


def downscale(gray: np.ndarray, factor: int) -> np.ndarray:
    """Box-average downsampling, float64; trailing rows/cols beyond a
    multiple of ``factor`` are cropped.

    The ``factor**2`` strided slices are summed, then divided by their count.
    On integer-valued input every partial sum is exact, so the result equals
    a reshape-and-mean bit for bit.
    """
    if factor == 1:
        return gray.astype(np.float64)
    h, w = gray.shape
    h2, w2 = h // factor, w // factor
    total = np.zeros((h2, w2))
    for dy in range(factor):
        for dx in range(factor):
            total += gray[dy:h2 * factor:factor, dx:w2 * factor:factor]
    return total / (factor * factor)


def motion_gray(image: np.ndarray) -> np.ndarray:
    """The image motion estimation works on: luma downscaled by
    ``MC_DOWNSCALE``, float64. Make it once per frame; it serves as the
    current frame of one pair and the previous frame of the next."""
    return downscale(rgb_to_gray(image), MC_DOWNSCALE)


# ---------------------------------------------------------------------------
# Corner detection (minimum eigenvalue of the structure tensor)

def detect_features(image: np.ndarray, max_count: int = 200, quality: float = 0.01,
                    min_distance: float = 8.0, block_size: int = 3) -> np.ndarray:
    """Corner points (x, y) of a 2-D gray image, ranked by minimum-eigenvalue
    response.

    No two returned points are closer than ``min_distance``: greedy
    suppression in rank order keeps a corner unless a kept, better-ranked
    corner lies closer, decided on arrays (``_suppress``). At most
    ``max_count`` points come back. A flat image yields an empty array.
    """
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D gray image, got shape {image.shape}")
    if image.size == 0:
        raise ValueError("empty image")
    if min_distance < 0 or max_count < 1:
        raise ValueError(f"need min_distance >= 0 and max_count >= 1, "
                         f"got {min_distance} and {max_count}")
    img = image.astype(np.float64)
    gx = ndimage.sobel(img, axis=1, mode="nearest") / 8.0
    gy = ndimage.sobel(img, axis=0, mode="nearest") / 8.0
    sxx = ndimage.uniform_filter(gx * gx, block_size, mode="nearest")
    syy = ndimage.uniform_filter(gy * gy, block_size, mode="nearest")
    sxy = ndimage.uniform_filter(gx * gy, block_size, mode="nearest")
    trace = sxx + syy
    diff = sxx - syy
    response = 0.5 * (trace - np.sqrt(diff * diff + 4.0 * sxy * sxy))

    border = max(2, block_size // 2 + 1)
    mask = np.zeros_like(response, dtype=bool)
    mask[border:-border, border:-border] = True
    peak = float(response.max(initial=0.0, where=mask)) if mask.any() else 0.0
    if peak <= 0.0:
        return np.empty((0, 2))
    local_max = response == _max3x3(response)
    candidate = mask & local_max & (response >= quality * peak)
    ys, xs = np.nonzero(candidate)
    if xs.size == 0:
        return np.empty((0, 2))
    order = np.argsort(-response[ys, xs], kind="stable")
    ranked = np.column_stack([xs[order], ys[order]])
    return ranked[_suppress(ranked, min_distance, max_count)].astype(float)


def _max3x3(a: np.ndarray) -> np.ndarray:
    """Maximum over each pixel's 3x3 neighbourhood, edges replicated: on
    finite input ``ndimage.maximum_filter(a, 3, mode="nearest")``, as two
    in-place passes of ``np.maximum`` (a maximum is exact in any order)."""
    rows = a.copy()
    np.maximum(rows[:, 1:], a[:, :-1], out=rows[:, 1:])
    np.maximum(rows[:, :-1], a[:, 1:], out=rows[:, :-1])
    out = rows.copy()
    np.maximum(out[1:], rows[:-1], out=out[1:])
    np.maximum(out[:-1], rows[1:], out=out[:-1])
    return out


def _suppress(ranked: np.ndarray, min_distance: float, max_count: int) -> np.ndarray:
    """Rows of integer points ``ranked`` (best first) that greedy suppression
    keeps, at most ``max_count`` of them.

    Greedy suppression keeps a point when no kept point ranked before it is
    closer than ``min_distance`` (squared distance strictly below
    ``min_distance**2``). A point's fate depends only on the points ranked
    before it, so the first ``max_count`` kept points of a prefix of the
    ranking are those of the whole ranking: the prefix doubles until it
    yields ``max_count`` points or covers the ranking.
    """
    size = min(len(ranked), 2 * max_count)
    while True:
        kept = np.flatnonzero(_independent_set(ranked[:size], min_distance))
        if kept.size >= max_count or size == len(ranked):
            return kept[:max_count]
        size = min(len(ranked), 2 * size)


def _independent_set(ranked: np.ndarray, min_distance: float) -> np.ndarray:
    """Greedy-by-rank keep mask of integer points, decided in array rounds.

    Each round drops every undecided point with a kept neighbour ranked
    before it, then keeps every undecided point whose earlier neighbours are
    all dropped; the best undecided point is always decided, so the rounds
    end.
    """
    n = len(ranked)
    # The tree's radius is padded so that rounding in its distance test
    # cannot lose a pair; the exact integer test follows.
    pairs = cKDTree(ranked).query_pairs(min_distance * (1 + 1e-9), output_type="ndarray")
    gap = ranked[pairs[:, 0]] - ranked[pairs[:, 1]]
    close = (gap * gap).sum(axis=1) < min_distance * min_distance
    earlier, later = pairs[close].T  # query_pairs gives earlier < later
    undecided, kept = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    while undecided.any():
        undecided[later[kept[earlier]]] = False
        live = undecided[later]
        earlier, later = earlier[live], later[live]
        blocked = np.zeros(n, dtype=bool)
        blocked[later[undecided[earlier]]] = True
        new = undecided & ~blocked
        kept |= new
        undecided &= ~new
    return kept


# ---------------------------------------------------------------------------
# Pyramidal Lucas-Kanade

def _pyramid(img: np.ndarray) -> list[np.ndarray]:
    kernel = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
    pyr = [img.astype(np.float64)]
    for _ in range(LK_LEVELS - 1):
        # The row pass (axis 1) filters each row on its own, so it runs on
        # the kept rows only.
        blurred = ndimage.convolve1d(pyr[-1], kernel, axis=0, mode="nearest")[::2]
        blurred = ndimage.convolve1d(blurred, kernel, axis=1, mode="nearest")
        pyr.append(blurred[:, ::2])
    return pyr


def _sample_windows(img: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Bilinear samples of the LK window around each of (N,) center points
    -> (N, W, W).

    Window offsets are whole pixels, so each point's samples share one
    weight per column and one per row: the window is blended from one
    (W+1, W+1) block of ``img``, first along rows, then down columns, and
    adjacent window rows reuse the same row blend. The caller keeps every
    window inside the image. Sample positions are clipped to ``w - 1.001``
    (``h - 1.001``), as a per-sample clip would; this moves only the last
    column (row) of a window whose center lies within 0.001 px of the upper
    margin.
    """
    # Most calls come from LK iterations on a few points, so the fixed
    # cost counts: plain ufuncs for the clip, and as_strided for
    # sliding_window_view without its argument checks (indexing the view
    # checks the bounds).
    h, w = img.shape
    px = np.minimum(np.maximum(centers[:, 0:1] + _WINDOW_STEPS, 0.0), w - 1.001)  # (N, W)
    py = np.minimum(np.maximum(centers[:, 1:2] + _WINDOW_STEPS, 0.0), h - 1.001)
    x0 = px[:, 0].astype(int)
    y0 = py[:, 0].astype(int)
    # Weights relative to the block's columns x0 + j and rows y0 + i.
    fx = (px - (x0[:, None] + _WINDOW_INDEX))[:, None, :]
    fy = (py - (y0[:, None] + _WINDOW_INDEX))[:, :, None]
    # Whole-pixel centres: the weights are exactly 1 and 0, and the blend
    # b * 1 + b' * 0 is b bit for bit on finite pixels other than -0.0, so
    # the window is its W x W block.
    whole = not (fx.any() or fy.any())
    side = LK_WINDOW if whole else LK_WINDOW + 1
    sy, sx = img.strides
    block = as_strided(img, (h - side + 1, w - side + 1, side, side), (sy, sx, sy, sx),
                       writeable=False)[y0, x0]
    if whole:
        return block
    rows = block[:, :, :-1] * (1 - fx)
    rows += block[:, :, 1:] * fx
    out = rows[:, :-1] * (1 - fy)
    out += rows[:, 1:] * fy
    return out


def track_features(prev: np.ndarray, cur: np.ndarray,
                   points: np.ndarray) -> FeatureTrackResult:
    """Pyramidal coarse-to-fine Lucas-Kanade refinement of sparse points.

    At each level a point's 21x21 template window is sampled once from the
    previous frame; its x and y gradients are ``np.gradient`` of that window
    (central differences inside it, one-sided on its border), as in
    Bouguet's pyramidal LK, not samples of whole-image gradients.

    One forward pass; there is no backward re-track, since the RANSAC fit
    that consumes the pairs rejects outliers. Status goes false when the
    point exits the image, its spatial-gradient matrix is near singular, the
    iteration diverges, or the final mean absolute residual exceeds
    ``LK_MAX_RESIDUAL`` intensity levels.
    """
    if prev.shape != cur.shape:
        raise ValueError(f"frame shapes differ: {prev.shape} vs {cur.shape}")
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(points)
    if n == 0:
        return FeatureTrackResult(points, points.copy(), np.zeros(0, dtype=bool))

    flow, alive = _pyramidal_lk(_pyramid(prev), _pyramid(cur), points)
    cur_points = points + flow
    h0, w0 = prev.shape
    inside = ((cur_points[:, 0] >= 0) & (cur_points[:, 0] < w0)
              & (cur_points[:, 1] >= 0) & (cur_points[:, 1] < h0))
    return FeatureTrackResult(points, cur_points, alive & inside)


def _pyramidal_lk(prev_pyr: list[np.ndarray], cur_pyr: list[np.ndarray],
                  points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    radius = LK_WINDOW // 2
    n = len(points)
    flow = np.zeros((n, 2))
    alive = np.ones(n, dtype=bool)
    residual = np.zeros(n)

    for level in range(LK_LEVELS - 1, -1, -1):
        scale = 2.0 ** level
        img_p = prev_pyr[level]
        img_c = cur_pyr[level]
        h, w = img_p.shape
        pl = points / scale

        margin = radius + 1.0
        in_bounds = ((pl[:, 0] >= margin) & (pl[:, 0] < w - margin)
                     & (pl[:, 1] >= margin) & (pl[:, 1] < h - margin))
        if level == 0:
            # Points whose window does not fit the finest level never get a
            # measurement there; they cannot be trusted.
            alive &= in_bounds
        active = alive & in_bounds
        if not active.any():
            continue

        idx = np.nonzero(active)[0]
        tmpl = _sample_windows(img_p, pl[idx])
        # Gradients of the template window itself (Bouguet): central
        # differences inside it, one-sided on its border.
        ty, tx = np.gradient(tmpl, axis=(1, 2))
        gxx = (tx * tx).sum(axis=(1, 2))
        gxy = (tx * ty).sum(axis=(1, 2))
        gyy = (ty * ty).sum(axis=(1, 2))
        det = gxx * gyy - gxy * gxy
        trace = gxx + gyy
        min_eig = 0.5 * (trace - np.sqrt((gxx - gyy) ** 2 + 4.0 * gxy * gxy))
        usable = (det > 1e-12) & (min_eig / (LK_WINDOW * LK_WINDOW) > LK_MIN_EIG)
        alive[idx[~usable]] = False
        idx = idx[usable]
        if idx.size == 0:
            continue
        # Per point, the template and its gradients and the gradient
        # matrix, stacked so that dropping a point is one index.
        win = np.stack([tmpl, tx, ty], axis=1)
        coef = np.stack([gxx, gxy, gyy, det], axis=1)
        if not usable.all():
            win, coef = win[usable], coef[usable]

        base = pl[idx]
        d = flow[idx] / scale
        upper = np.array([w - margin, h - margin])
        # Rows of idx still iterating, with their windows and coefficients;
        # converged and lost points drop out.
        k = np.arange(idx.size)
        for it in range(LK_MAX_ITERATIONS):
            pos = base[k] + d[k]
            oob = ((pos < margin) | (pos >= upper)).any(axis=1)
            if oob.any():
                alive[idx[k[oob]]] = False
                keep = ~oob
                k, pos, win, coef = k[keep], pos[keep], win[keep], coef[keep]
                if k.size == 0:
                    break
            err = win[:, 0] - _sample_windows(img_c, pos)
            bx = (err * win[:, 1]).sum(axis=(1, 2))
            by = (err * win[:, 2]).sum(axis=(1, 2))
            gxx, gxy, gyy, det = coef.T
            dx = (gyy * bx - gxy * by) / det
            dy = (gxx * by - gxy * bx) / det
            d[k] += np.stack([dx, dy], axis=1)
            moving = np.sqrt(dx * dx + dy * dy) >= LK_EPSILON
            if it == LK_MAX_ITERATIONS - 1:
                moving[:] = False  # the last iteration stops every point
            if not moving.all():
                if level == 0:
                    # Only the finest level's residual is read, from the
                    # iteration where a point stops.
                    stops = ~moving
                    residual[idx[k[stops]]] = np.abs(err[stops]).mean(axis=(1, 2))
                k, win, coef = k[moving], win[moving], coef[moving]
                if k.size == 0:
                    break

        diverged = np.abs(d - flow[idx] / scale).max(axis=1) > LK_WINDOW
        alive[idx[diverged]] = False
        flow[idx] = d * scale

    alive &= residual <= LK_MAX_RESIDUAL
    return flow, alive


# ---------------------------------------------------------------------------
# Robust similarity estimation

@dataclass
class MotionEstimate:
    """Camera motion between two frames and the health of its estimate:
    features detected, points tracked, RANSAC inlier ratio and samples
    drawn, and whether it fell back to the identity. The defaults are the
    flagged identity of a frame pair with nothing to fit."""

    transform: AffineTransform2D = field(default_factory=AffineTransform2D.identity)
    inlier_ratio: float = 0.0
    n_features: int = 0
    n_tracked: int = 0
    fallback: bool = True
    ransac_iterations: int = 0


def _fit_similarity(src: np.ndarray, dst: np.ndarray) -> AffineTransform2D | None:
    """Least-squares similarity (uniform scale, rotation, translation) that
    maps ``src`` onto ``dst``, both (N, 2), in closed form.

    With points as complex numbers s and d the transform is d = z s + t,
    where z = sum((d - mean d) conj(s - mean s)) / sum(|s - mean s|^2) and
    t = mean d - z mean s; on two points it interpolates them exactly.
    None when the source points coincide (their squared spread about the
    centroid is below 1e-12 px^2), since they fix no scale or rotation.
    """
    s = src[:, 0] + 1j * src[:, 1]
    d = dst[:, 0] + 1j * dst[:, 1]
    s_mean, d_mean = s.mean(), d.mean()
    s = s - s_mean
    spread = np.vdot(s, s).real
    if spread < 1e-12:
        return None
    z = np.vdot(s, d - d_mean) / spread  # vdot conjugates its first argument
    t = d_mean - z * s_mean
    return AffineTransform2D(np.array([[z.real, -z.imag], [z.imag, z.real]]),
                             np.array([t.real, t.imag]))


def _ransac_limit(inlier_ratio: float) -> int:
    """Samples that draw at least one all-inlier pair with probability
    ``RANSAC_CONFIDENCE`` at this inlier ratio, at most ``RANSAC_ITERATIONS``:
    ceil(log(1 - p) / log(1 - w^2)) (Hartley & Zisserman, section 4.7)."""
    all_inlier = inlier_ratio ** 2
    if all_inlier >= 1.0:
        return 0
    n = math.ceil(math.log(1.0 - RANSAC_CONFIDENCE) / math.log1p(-all_inlier))
    return min(RANSAC_ITERATIONS, n)


def estimate_affine(prev_points: np.ndarray, cur_points: np.ndarray,
                    seed: int = 0) -> MotionEstimate:
    """RANSAC + least-squares similarity fit from matched point pairs.

    Each iteration fits a similarity (``_fit_similarity``) to 2 random pairs
    and counts the pairs within ``RANSAC_INLIER_THRESHOLD`` px of it. The
    sampling stops adaptively: after each new best count, with inlier ratio
    w, the limit becomes min(``RANSAC_ITERATIONS``,
    ceil(log(1 - p) / log(1 - w^2))) for p = ``RANSAC_CONFIDENCE``, the
    number of samples that draw at least one all-inlier pair with
    probability p. The best sample's inliers are then refit by the same
    least-squares similarity, so the transform is always a similarity.

    Falls back to the identity (flagged) with fewer than 3 pairs, fewer than
    3 inliers, or coincident input points. The sampler is seeded, so results
    are reproducible. Point arrays of different lengths raise
    ``ValueError``. The estimate's ``n_features`` and ``n_tracked`` stay 0:
    only ``estimate_camera_motion`` knows them.
    """
    src = np.asarray(prev_points, dtype=float).reshape(-1, 2)
    dst = np.asarray(cur_points, dtype=float).reshape(-1, 2)
    n = len(src)
    if len(dst) != n:
        raise ValueError(f"point counts differ: {n} vs {len(dst)}")
    if n < 3:
        return MotionEstimate()

    rng = np.random.default_rng(seed)
    best_count = 0
    best_inliers: np.ndarray | None = None
    thr2 = RANSAC_INLIER_THRESHOLD * RANSAC_INLIER_THRESHOLD
    limit = RANSAC_ITERATIONS
    iterations = 0
    while iterations < limit:
        iterations += 1
        pick = rng.choice(n, size=2, replace=False)
        fit = _fit_similarity(src[pick], dst[pick])
        if fit is None:
            continue
        err2 = ((fit.apply(src) - dst) ** 2).sum(axis=1)
        inliers = err2 < thr2
        count = int(inliers.sum())
        if count > best_count:
            best_count = count
            best_inliers = inliers
            limit = min(limit, _ransac_limit(count / n))

    if best_inliers is None or best_count < 3:
        return MotionEstimate(ransac_iterations=iterations)
    fit = _fit_similarity(src[best_inliers], dst[best_inliers])
    if fit is None:
        return MotionEstimate(ransac_iterations=iterations)
    return MotionEstimate(fit, best_count / n, fallback=False, ransac_iterations=iterations)


# ---------------------------------------------------------------------------
# Ratio-preserving compensation

def apply_to_track(m: AffineTransform2D, state: KalmanState) -> KalmanState:
    """Map track states, (..., 8) means with (..., 8, 8) covariances, through
    a similarity camera transform.

    Center and velocity rotate/scale with the linear part, height scales by
    its uniform factor (the norm of its first column), and the aspect ratio
    is copied through untouched, so it survives compensation bit for bit.
    Covariance blocks are conjugated accordingly.
    """
    a = m.linear
    if abs(float(np.linalg.det(a))) < 1e-12:
        raise ValueError("singular camera transform")
    s = float(np.linalg.norm(a[:, 0]))

    t8 = np.zeros((8, 8))
    t8[0:2, 0:2] = a
    t8[2, 2] = 1.0
    t8[3, 3] = s
    t8[4:6, 4:6] = a
    t8[6, 6] = 1.0
    t8[7, 7] = s

    # One matrix-vector product per state, as for a single state.
    mean = (t8 @ state.mean[..., None])[..., 0]
    mean[..., 0:2] += m.translation
    # The aspect ratio and its velocity pass through bit-identical.
    mean[..., 2] = state.mean[..., 2]
    mean[..., 6] = state.mean[..., 6]
    cov = t8 @ state.covariance @ t8.T
    return KalmanState(mean, (cov + np.swapaxes(cov, -1, -2)) * 0.5)


# ---------------------------------------------------------------------------
# Frame-pair orchestration

def estimate_camera_motion(prev_gray: np.ndarray, cur_gray: np.ndarray,
                           seed: int = 0) -> MotionEstimate:
    """Full pipeline: features on the previous frame, one forward LK pass,
    RANSAC similarity fit. Both frames come from ``motion_gray``; the
    transform is in full-resolution pixels.

    The estimate is the flagged identity (``fallback``) when the previous
    frame has no feature, when ``estimate_affine`` falls back, and when the
    fit collapses (|det| < 1e-6), because a collapsed transform cannot map
    track states. Otherwise it is the fitted similarity as it is."""
    points = detect_features(prev_gray)
    if len(points) == 0:
        return MotionEstimate()
    tracked = track_features(prev_gray, cur_gray, points)
    prev_pts, cur_pts = tracked.matched_pairs()
    estimate = estimate_affine(prev_pts * MC_DOWNSCALE, cur_pts * MC_DOWNSCALE, seed=seed)
    collapsed = abs(float(np.linalg.det(estimate.transform.linear))) < 1e-6
    return replace(
        estimate,
        transform=AffineTransform2D.identity() if collapsed else estimate.transform,
        n_features=len(points),
        n_tracked=int(tracked.status.sum()),
        fallback=estimate.fallback or collapsed,
    )
