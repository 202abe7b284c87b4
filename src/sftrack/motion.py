"""Camera motion estimation and ratio-preserving track compensation.

Each frame is reduced once to a downscaled gray image (``motion_gray``),
which serves both frame pairs it belongs to. Per frame pair, corner features
are detected on the previous frame (minimum-eigenvalue response), tracked to
the current frame with one forward pass of pyramidal Lucas-Kanade, and a
RANSAC affine fit, the only outlier filter, recovers the global transform. Before it touches any track the
transform is re-scaled to use one uniform scale factor, the larger of its x/y
factors, so box aspect ratios survive compensation unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

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
# RANSAC sample count and inlier reprojection error in px.
RANSAC_ITERATIONS = 100
RANSAC_INLIER_THRESHOLD = 3.0


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

    @property
    def scale_y(self) -> float:
        return float(np.linalg.norm(self.linear[:, 1]))

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

    def is_identity(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.linear - np.eye(2)) <= tol)
                    and np.all(np.abs(self.translation) <= tol))


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

    No two returned points are closer than ``min_distance``; at most
    ``max_count`` points come back. A flat image yields an empty array.
    """
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D gray image, got shape {image.shape}")
    if image.size == 0:
        raise ValueError("empty image")
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
    local_max = response == ndimage.maximum_filter(response, size=3, mode="nearest")
    candidate = mask & local_max & (response >= quality * peak)
    ys, xs = np.nonzero(candidate)
    if xs.size == 0:
        return np.empty((0, 2))
    order = np.argsort(-response[ys, xs], kind="stable")
    xs, ys = xs[order], ys[order]

    # Greedy suppression in response order; a cell grid of size min_distance
    # keeps the neighbor checks local.
    selected: list[tuple[float, float]] = []
    cell = max(min_distance, 1.0)
    buckets: dict[tuple[int, int], list[tuple[float, float]]] = {}
    min_d2 = min_distance * min_distance
    for x, y in zip(xs, ys):
        cx, cy = int(x / cell), int(y / cell)
        ok = True
        for bx in (cx - 1, cx, cx + 1):
            for by in (cy - 1, cy, cy + 1):
                for sx_, sy_ in buckets.get((bx, by), ()):
                    dx, dy = x - sx_, y - sy_
                    if dx * dx + dy * dy < min_d2:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            selected.append((float(x), float(y)))
            buckets.setdefault((cx, cy), []).append((float(x), float(y)))
            if len(selected) >= max_count:
                break
    return np.array(selected, dtype=float) if selected else np.empty((0, 2))


# ---------------------------------------------------------------------------
# Pyramidal Lucas-Kanade

def _pyramid(img: np.ndarray) -> list[np.ndarray]:
    kernel = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
    pyr = [img.astype(np.float64)]
    for _ in range(LK_LEVELS - 1):
        blurred = ndimage.convolve1d(pyr[-1], kernel, axis=0, mode="nearest")
        blurred = ndimage.convolve1d(blurred, kernel, axis=1, mode="nearest")
        pyr.append(blurred[::2, ::2])
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
    h, w = img.shape
    radius = LK_WINDOW // 2
    steps = np.arange(-radius, radius + 1, dtype=float)
    px = np.clip(centers[:, 0:1] + steps, 0.0, w - 1.001)  # (N, W) per column
    py = np.clip(centers[:, 1:2] + steps, 0.0, h - 1.001)  # (N, W) per row
    x0 = px[:, 0].astype(int)
    y0 = py[:, 0].astype(int)
    # Weights relative to the block's columns x0 + j and rows y0 + i.
    fx = (px - (x0[:, None] + np.arange(LK_WINDOW)))[:, None, :]
    fy = (py - (y0[:, None] + np.arange(LK_WINDOW)))[:, :, None]
    block = sliding_window_view(img, (LK_WINDOW + 1, LK_WINDOW + 1))[y0, x0]
    rows = block[:, :, :-1] * (1 - fx)
    rows += block[:, :, 1:] * fx
    out = rows[:, :-1] * (1 - fy)
    out += rows[:, 1:] * fy
    return out


def track_features(prev: np.ndarray, cur: np.ndarray,
                   points: np.ndarray) -> FeatureTrackResult:
    """Pyramidal coarse-to-fine Lucas-Kanade refinement of sparse points.

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
    grads = [np.gradient(p) for p in prev_pyr]  # (gy, gx) per level

    radius = LK_WINDOW // 2
    n = len(points)
    flow = np.zeros((n, 2))
    alive = np.ones(n, dtype=bool)
    residual = np.zeros(n)

    for level in range(LK_LEVELS - 1, -1, -1):
        scale = 2.0 ** level
        img_p = prev_pyr[level]
        img_c = cur_pyr[level]
        gy, gx = grads[level]
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
        tx = _sample_windows(gx, pl[idx])
        ty = _sample_windows(gy, pl[idx])
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
        tmpl, tx, ty = tmpl[usable], tx[usable], ty[usable]
        gxx, gxy, gyy, det = gxx[usable], gxy[usable], gyy[usable], det[usable]

        d = flow[idx] / scale
        # Per-point arrays of the points still iterating, as rows of idx;
        # converged and lost points drop out.
        k = np.arange(idx.size)
        for _ in range(LK_MAX_ITERATIONS):
            pos = pl[idx[k]] + d[k]
            oob = ((pos[:, 0] < margin) | (pos[:, 0] >= w - margin)
                   | (pos[:, 1] < margin) | (pos[:, 1] >= h - margin))
            if oob.any():
                alive[idx[k[oob]]] = False
                keep = ~oob
                k, pos, tmpl, tx, ty, gxx, gxy, gyy, det = (
                    a[keep] for a in (k, pos, tmpl, tx, ty, gxx, gxy, gyy, det))
                if k.size == 0:
                    break
            win = _sample_windows(img_c, pos)
            err = tmpl - win
            bx = (err * tx).sum(axis=(1, 2))
            by = (err * ty).sum(axis=(1, 2))
            dx = (gyy * bx - gxy * by) / det
            dy = (gxx * by - gxy * bx) / det
            d[k] += np.stack([dx, dy], axis=1)
            residual[idx[k]] = np.abs(err).mean(axis=(1, 2))
            moving = np.sqrt(dx * dx + dy * dy) >= LK_EPSILON
            if not moving.all():
                k, tmpl, tx, ty, gxx, gxy, gyy, det = (
                    a[moving] for a in (k, tmpl, tx, ty, gxx, gxy, gyy, det))
                if k.size == 0:
                    break

        diverged = np.abs(d - flow[idx] / scale).max(axis=1) > LK_WINDOW
        alive[idx[diverged]] = False
        flow[idx] = d * scale

    alive &= residual <= LK_MAX_RESIDUAL
    return flow, alive


# ---------------------------------------------------------------------------
# Robust affine estimation

@dataclass
class AffineEstimate:
    transform: AffineTransform2D
    inlier_ratio: float = 0.0
    fallback: bool = False


def _fit_affine_lstsq(src: np.ndarray, dst: np.ndarray) -> AffineTransform2D | None:
    n = len(src)
    design = np.zeros((2 * n, 6))
    design[0::2, 0:2] = src
    design[0::2, 2] = 1.0
    design[1::2, 3:5] = src
    design[1::2, 5] = 1.0
    rhs = dst.reshape(-1)
    sol, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < 6:
        return None
    a = np.array([[sol[0], sol[1]], [sol[3], sol[4]]])
    t = np.array([sol[2], sol[5]])
    return AffineTransform2D(a, t)


def estimate_affine(prev_points: np.ndarray, cur_points: np.ndarray,
                    seed: int = 0) -> AffineEstimate:
    """RANSAC + least-squares affine fit from matched point pairs.

    Falls back to the identity (flagged) with fewer than 3 pairs, fewer than
    3 inliers, or all-collinear input. The sampler is seeded, so results are
    reproducible.
    """
    src = np.asarray(prev_points, dtype=float).reshape(-1, 2)
    dst = np.asarray(cur_points, dtype=float).reshape(-1, 2)
    n = len(src)
    if n < 3 or len(dst) != n:
        return AffineEstimate(AffineTransform2D.identity(), fallback=True)

    rng = np.random.default_rng(seed)
    best_count = 0
    best_inliers: np.ndarray | None = None
    src_h = np.column_stack([src, np.ones(n)])
    thr2 = RANSAC_INLIER_THRESHOLD * RANSAC_INLIER_THRESHOLD
    for _ in range(RANSAC_ITERATIONS):
        pick = rng.choice(n, size=3, replace=False)
        p = src[pick]
        # Degenerate (collinear) minimal samples cannot pin down an affine.
        area2 = abs((p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
                    - (p[2, 0] - p[0, 0]) * (p[1, 1] - p[0, 1]))
        if area2 < 1e-9:
            continue
        design = np.column_stack([p, np.ones(3)])
        try:
            coef = np.linalg.solve(design, dst[pick])  # (3, 2): rows x,y,1
        except np.linalg.LinAlgError:
            continue
        warped = src_h @ coef
        err2 = ((warped - dst) ** 2).sum(axis=1)
        inliers = err2 < thr2
        count = int(inliers.sum())
        if count > best_count:
            best_count = count
            best_inliers = inliers
            if count == n:
                break

    if best_inliers is None or best_count < 3:
        return AffineEstimate(AffineTransform2D.identity(), fallback=True)
    fit = _fit_affine_lstsq(src[best_inliers], dst[best_inliers])
    if fit is None:
        return AffineEstimate(AffineTransform2D.identity(), fallback=True)
    return AffineEstimate(fit, best_count / n, fallback=False)


# ---------------------------------------------------------------------------
# Ratio-preserving compensation

def constrain_scale(m: AffineTransform2D) -> AffineTransform2D:
    """Replace per-axis scale factors with the larger of the two.

    Decomposes scale as the column norms of the linear part, then rescales
    both columns to the maximum so the transform scales uniformly; the
    translation is untouched. Zero scale on either axis falls back to the
    identity.
    """
    sx, sy = m.scale_x, m.scale_y
    if sx == 0.0 or sy == 0.0:
        return AffineTransform2D.identity()
    s = max(sx, sy)
    a = m.linear @ np.diag([s / sx, s / sy])
    return AffineTransform2D(a, m.translation.copy())


def apply_to_track(m: AffineTransform2D, state: KalmanState) -> KalmanState:
    """Map track states, (..., 8) means with (..., 8, 8) covariances, through
    a scale-constrained camera transform.

    Center and velocity rotate/scale with the linear part, height scales by
    the uniform factor, and the aspect ratio is copied through untouched.
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

@dataclass
class MotionEstimate:
    """Camera motion between two frames, ready to apply to tracks."""

    transform: AffineTransform2D = field(default_factory=AffineTransform2D.identity)
    inlier_ratio: float = 0.0
    n_features: int = 0
    n_tracked: int = 0
    fallback: bool = True


def estimate_camera_motion(prev_gray: np.ndarray, cur_gray: np.ndarray,
                           seed: int = 0) -> MotionEstimate:
    """Full pipeline: features on the previous frame, one forward LK pass,
    RANSAC affine fit, scale constraint. Both frames come from
    ``motion_gray``; the transform is in full-resolution pixels."""
    points = detect_features(prev_gray)
    if len(points) == 0:
        return MotionEstimate()
    tracked = track_features(prev_gray, cur_gray, points)
    prev_pts, cur_pts = tracked.matched_pairs()
    estimate = estimate_affine(prev_pts * MC_DOWNSCALE, cur_pts * MC_DOWNSCALE, seed=seed)
    constrained = constrain_scale(estimate.transform)
    return MotionEstimate(
        transform=constrained,
        inlier_ratio=estimate.inlier_ratio,
        n_features=len(points),
        n_tracked=int(tracked.status.sum()),
        fallback=estimate.fallback,
    )
