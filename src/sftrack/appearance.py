"""Hand-crafted appearance cues and the pluggable embedding provider.

Every cue of a detection comes from one crop, taken once per frame
(:func:`detection_cues`). The embedding is computed eagerly, because the
first association stage and the rho gate read it; the histogram and the MSE
patch are computed on first read, so only second-stage candidates pay for
them.
Color histograms use HIST_BINS equal-width intensity levels per RGB channel
(0-31, 32-63, ..., 224-255).
Histogram similarity is one minus the mean per-channel Hellinger distance.
Crop similarity is one minus the MSE between both crops resized to a common
patch (PATCH_SIZE), normalized by 255^2. The similarity functions take
stacks of cues, so cost matrices evaluate them on all candidate pairs at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .errors import ParseError
from .types import BoundingBox

HIST_BINS = 8
# (width, height) every crop is resized to for the MSE cue.
PATCH_SIZE = (32, 32)
# Weight of a track's running embedding against a newly matched one.
EMBEDDING_MOMENTUM = 0.9

# Spatial layout of the fallback embedding: rows x cols grid of per-cell
# 3-channel histograms, L2-normalized. 2*4 cells * 24 bins = 192 dims.
FALLBACK_GRID = (2, 4)
FALLBACK_DIM = FALLBACK_GRID[0] * FALLBACK_GRID[1] * 3 * HIST_BINS

# Distinct crop shapes whose resize taps and descriptor layouts are kept,
# least recently used first out. A taps entry is about 4 KiB for PATCH_SIZE;
# a layout entry is one byte per crop value. A crowd of 6-16 px targets
# shows about 100 resize and 200 descriptor shapes.
SHAPE_CACHE_SIZE = 512

_LEVEL = 256 // HIST_BINS
# Key offset of each RGB channel in a (channel, bin) bincount.
_CHANNEL_BASE = np.arange(3) * HIST_BINS


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: cached taps are shared by every call."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def color_histogram(crop: np.ndarray | None) -> np.ndarray:
    """Per-channel normalized frequencies, shape (3, HIST_BINS); all zeros
    (degenerate) for an empty crop."""
    if crop is None or crop.size == 0:
        return np.zeros((3, HIST_BINS))
    keys = crop // _LEVEL + _CHANNEL_BASE
    counts = np.bincount(keys.ravel(), minlength=3 * HIST_BINS)
    return counts.reshape(3, HIST_BINS) / (crop.size // 3)


def histogram_similarities(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """1 - mean Hellinger distance over channels, row by row over (n, 3, bins)
    stacks, in [0, 1]. All-zero (degenerate) histograms score 0."""
    bc = np.sqrt(a * b).sum(axis=-1)
    dist = np.sqrt(np.clip(1.0 - bc, 0.0, 1.0))
    return 1.0 - dist.mean(axis=-1)


def _taps(n_src: int, n_dst: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bilinear taps along one axis: the lower and upper source index of
    each of ``n_dst`` half-pixel-centred samples and the upper one's weight."""
    pos = (np.arange(n_dst) + 0.5) * (n_src / n_dst) - 0.5
    lo = np.clip(np.floor(pos).astype(int), 0, n_src - 1)
    hi = np.minimum(lo + 1, n_src - 1)
    return lo, hi, np.clip(pos - lo, 0.0, 1.0)


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _resize_taps(sh: int, sw: int, tw: int, th: int) -> tuple[np.ndarray, ...]:
    """Taps of an (sh, sw, 3) -> (th, tw, 3) resize. Columns index the
    channel-flattened (sh, sw * 3) source and their weights repeat per
    channel; rows come with (th, 1) weights."""
    x0, x1, fx = _taps(sw, tw)
    y0, y1, fy = _taps(sh, th)
    channel = np.arange(3)
    c0 = (x0[:, None] * 3 + channel).ravel()
    c1 = (x1[:, None] * 3 + channel).ravel()
    fx = np.repeat(fx, 3)
    fy = fy[:, None]
    return _frozen(c0, c1, 1 - fx, fx, y0, y1, 1 - fy, fy)


def resize_bilinear(crop: np.ndarray, size: tuple[int, int]) -> np.ndarray:
    """Resize (h, w, 3) uint8 to (size[1], size[0], 3) float64.

    Sample positions use the half-pixel-center convention so that resizing
    to the same size is the identity. One horizontal pass over the source
    rows, then one vertical pass: each output value is
    ``(s00 * (1 - fx) + s01 * fx) * (1 - fy) + (s10 * (1 - fx) + s11 * fx) * fy``
    in float64, with taps computed once per crop shape.
    """
    tw, th = size
    sh, sw = crop.shape[:2]
    c0, c1, gx, fx, y0, y1, gy, fy = _resize_taps(sh, sw, tw, th)
    src = crop.reshape(sh, sw * 3).astype(np.float64)
    rows = src[:, c0] * gx
    rows += src[:, c1] * fx
    out = rows[y0] * gy
    out += rows[y1] * fy
    return out.reshape(th, tw, 3)


def patch_similarities(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """1 - MSE / 255^2, row by row over (n, h, w, 3) stacks of resized
    patches of any float dtype; computed in float64."""
    mse = ((a.astype(np.float64) - b) ** 2).mean(axis=(1, 2, 3))
    return 1.0 - mse / (255.0 ** 2)


def embedding_similarities(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine similarity clamped to [0, 1] of every row of ``a`` (n, d) with
    every row of ``b`` (m, d), shape (n, m). Vectors are renormalized; zero
    vectors score 0."""
    norms = np.linalg.norm(a, axis=1)[:, None] * np.linalg.norm(b, axis=1)[None, :]
    positive = norms > 0.0
    # A plain division, not a masked one (several times slower); the pairs
    # without a positive norm are zeroed after it.
    out = (a @ b.T) / np.where(positive, norms, 1.0)
    out[~positive] = 0.0
    return np.maximum(out, 0.0, out=out)


def extract_crop(frame: np.ndarray, box: BoundingBox) -> np.ndarray | None:
    """Pixels under the box, rounded to the pixel grid and clamped to bounds.

    Returns None for boxes that are empty after clamping (the degenerate-crop
    marker; downstream similarities treat it as 0).
    """
    h, w = frame.shape[:2]
    x0 = max(0, int(round(box.left)))
    y0 = max(0, int(round(box.top)))
    x1 = min(w, int(round(box.left + box.width)))
    y1 = min(h, int(round(box.top + box.height)))
    if x1 <= x0 or y1 <= y0:
        return None
    return frame[y0:y1, x0:x1]


def _split_labels(n: int, parts: int) -> np.ndarray:
    """For each of ``n`` positions, the index of the ``np.array_split`` part
    it falls in: the first ``n % parts`` parts are one longer."""
    size, extra = divmod(n, parts)
    return np.repeat(np.arange(parts), [size + 1] * extra + [size] * (parts - extra))


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _fallback_layout(h: int, w: int) -> tuple[np.ndarray, ...]:
    """Descriptor layout of an (h, w, 3) crop: the (cell * 3 + channel) *
    HIST_BINS key base of every value, each cell's pixel count (n_cells, 1)
    and which cells have pixels."""
    rows, cols = FALLBACK_GRID
    row_of, col_of = _split_labels(h, rows), _split_labels(w, cols)
    cell = row_of[:, None] * cols + col_of[None, :]
    # The largest key, rows * cols * 3 * HIST_BINS - 1, fits in a uint8.
    base = ((cell[:, :, None] * 3 + np.arange(3)) * HIST_BINS).astype(np.uint8)
    pixels = np.bincount(cell.ravel(), minlength=rows * cols)[:, None]
    return _frozen(base, pixels, pixels > 0)


def fallback_embedding(crop: np.ndarray | None) -> np.ndarray | None:
    """Hand-crafted stand-in for a learned descriptor.

    The crop is split into a FALLBACK_GRID spatial grid, as ``np.array_split``
    splits it; each cell contributes a per-channel histogram normalized by
    the cell's pixel count (all zeros for an empty cell). The concatenation
    is L2-normalized. All cells are counted in one ``np.bincount`` over
    (cell, channel, bin) keys laid out once per crop shape.
    """
    if crop is None or crop.size == 0:
        return None
    rows, cols = FALLBACK_GRID
    base, pixels, filled = _fallback_layout(*crop.shape[:2])
    counts = np.bincount((base + crop // _LEVEL).ravel(), minlength=FALLBACK_DIM)
    counts = counts.reshape(rows * cols, 3 * HIST_BINS)
    vec = np.zeros(counts.shape)
    np.divide(counts, pixels, out=vec, where=filled)
    vec = vec.ravel()
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        return None
    return vec / norm


def load_embeddings(path: str | Path) -> dict[tuple[int, int], np.ndarray]:
    """Load ``frame,det_index,v1,...,vD`` embedding files.

    Frames are 1-based, det_index is 0-based in detection-file order within
    the frame. Vectors are renormalized to unit norm; dimensions must agree
    across the file. A frame below 1, a negative det_index, a vector with a
    non-finite value or norm, and a second row for the same (frame,
    det_index) raise ``ParseError`` naming file:line; for a duplicate it
    also names the line of the first row.
    """
    out: dict[tuple[int, int], np.ndarray] = {}
    first_line: dict[tuple[int, int], int] = {}
    dim: int | None = None
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.strip().split(",")
        if len(parts) < 3:
            raise ParseError("expected frame,det_index,v1,...", str(path), lineno)
        try:
            frame = int(parts[0])
            det_index = int(parts[1])
            vec = np.array([float(p) for p in parts[2:]])
        except ValueError:
            raise ParseError(f"malformed embedding row {line!r}", str(path), lineno)
        if frame < 1 or det_index < 0:
            raise ParseError(f"need frame >= 1 and det_index >= 0, got {frame},{det_index}",
                             str(path), lineno)
        key = (frame, det_index)
        if key in first_line:
            raise ParseError(f"duplicate embedding for frame {frame}, det_index {det_index} "
                             f"(first on line {first_line[key]})", str(path), lineno)
        first_line[key] = lineno
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise ParseError(f"dimension {vec.size} differs from {dim}", str(path), lineno)
        with np.errstate(over="ignore"):  # an overflowing norm is rejected below
            norm = np.linalg.norm(vec)
        if not np.isfinite(norm):
            raise ParseError("embedding vector has a non-finite value or norm", str(path), lineno)
        if norm == 0.0:
            raise ParseError("zero embedding vector cannot be normalized", str(path), lineno)
        out[key] = vec / norm
    return out


@dataclass(eq=False)
class Cues:
    """One detection's appearance in one frame, all taken from a single crop.

    ``crop`` is a view into the frame, None when the box is empty after
    clamping to the frame. ``histogram`` and ``patch`` (float64) are
    computed on first read and then kept; both are None without a crop.
    Nothing assigns to a record after it is made. It is not a frozen
    dataclass because a frozen ``__init__`` costs about three times as
    much, and every detection of every frame makes one.
    """

    crop: np.ndarray | None = field(repr=False)
    embedding: np.ndarray | None = field(repr=False)

    @cached_property
    def histogram(self) -> np.ndarray | None:
        return None if self.crop is None else color_histogram(self.crop)

    @cached_property
    def patch(self) -> np.ndarray | None:
        return None if self.crop is None else resize_bilinear(self.crop, PATCH_SIZE)


def detection_cues(frame: np.ndarray, box: BoundingBox, embedding: np.ndarray | None = None,
                   fallback: bool = False) -> Cues:
    """Crop once; when ``embedding`` is None and ``fallback`` is on, derive
    the hand-crafted embedding from the crop. The histogram and the patch
    follow from the same crop when read."""
    crop = extract_crop(frame, box)
    if embedding is None and fallback:
        embedding = fallback_embedding(crop)
    return Cues(crop, embedding)


@dataclass
class AppearanceMemory:
    """Per-track appearance: a copy of the last matched detection's crop.
    The running embedding is a row of the tracker's embedding table (see
    :func:`update_embeddings`).

    The copy keeps no frame alive. ``histogram`` and ``patch`` are computed
    from it on first read and then kept. Its crop is never replaced: a new
    match makes a new memory. The patch is float32: it is the bulk of a
    track's memory, and similarities are computed from it in float64.
    """

    crop: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_cues(cls, cues: Cues) -> AppearanceMemory:
        """A memory of ``cues``' crop that takes over the histogram a
        second-stage match already computed. The detection's patch is not
        taken over: at 12 KiB it is about 20x a typical crop, and most
        tracks would hold it through frames in which nothing reads it."""
        memory = cls(None if cues.crop is None else cues.crop.copy())
        if "histogram" in cues.__dict__:
            memory.__dict__["histogram"] = cues.histogram
        return memory

    @cached_property
    def histogram(self) -> np.ndarray | None:
        return None if self.crop is None else color_histogram(self.crop)

    @cached_property
    def patch(self) -> np.ndarray | None:
        if self.crop is None:
            return None
        return resize_bilinear(self.crop, PATCH_SIZE).astype(np.float32)


def update_embeddings(table: np.ndarray, has: np.ndarray, rows: np.ndarray,
                      new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """New running embeddings (N, D) and their has-embedding mask (N,) after
    row ``rows[i]`` of ``table`` takes the embedding ``new[i]``.

    A row without an embedding copies ``new[i]``. A row with one becomes
    the mix EMBEDDING_MOMENTUM * old + (1 - EMBEDDING_MOMENTUM) * new,
    divided by its norm, or ``new[i]`` itself when that norm is 0. Each row
    gets the floating-point operations of a one-vector update; the norm is
    one dot product per row, as ``np.linalg.norm`` takes it for a vector.
    ``rows`` must not repeat. The inputs are not modified.
    """
    table, has = table.copy(), has.copy()
    mixed = EMBEDDING_MOMENTUM * table[rows] + (1.0 - EMBEDDING_MOMENTUM) * new
    norm = np.sqrt(mixed[:, None, :] @ mixed[:, :, None])[:, 0]
    table[rows] = np.divide(mixed, norm, out=np.array(new, dtype=float),
                            where=has[rows, None] & (norm > 0.0))
    has[rows] = True
    return table, has
