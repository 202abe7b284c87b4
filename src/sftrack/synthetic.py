"""Deterministic synthetic sequences with ground truth and noisy detections.

A scenario renders value-noise backgrounds seen through a scripted camera
(similarity transforms composed frame to frame) plus textured rectangular
targets that face the camera: their centers ride the camera transform and
their size follows its uniform scale, so ground-truth boxes never rotate.
Detections derive from ground truth through a seeded noise model: position
and size jitter, an area-based confidence curve with an occlusion penalty,
dropout, and uniform false positives. Identical spec + seed reproduces every
output file byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields as dc_fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from .config import parse_sections
from .errors import ConfigError
from .io_formats import AnnotatedBox, SequenceManifest, write_ppm
from .motion import AffineTransform2D
from .rng import Stream, derive_seed, hash_coords
from .types import BoundingBox, Detection

_SALT_DROPOUT = 1
_SALT_JITTER = 2
_SALT_CONF = 3
_SALT_FP = 4
_SALT_BACKGROUND = 10
_SALT_BACKGROUND2 = 11
_SALT_OBJECT = 1000
_SALT_OCCLUDER = 2000


@dataclass
class ObjectSpec:
    class_id: int = 4
    width: float = 40.0
    height: float = 40.0
    x: float = 100.0
    y: float = 100.0
    path: str = "static"          # static | linear | sinusoidal
    vx: float = 0.0
    vy: float = 0.0
    amp_x: float = 0.0
    amp_y: float = 0.0
    period: float = 40.0
    phase: float = 0.0
    color: tuple[int, int, int] = (128, 128, 128)

    def center_at(self, frame: int) -> tuple[float, float]:
        t = frame - 1
        cx = self.x + self.vx * t
        cy = self.y + self.vy * t
        if self.path == "sinusoidal":
            ang = 2.0 * math.pi * t / self.period + self.phase
            cx += self.amp_x * math.sin(ang)
            cy += self.amp_y * math.cos(ang)
        return cx, cy


@dataclass
class CameraSpec:
    pattern: str = "static"       # static | linear | sinusoid | zigzag
    scale_amp: float = 0.0
    rot_amp_deg: float = 0.0
    trans_amp_x: float = 0.0
    trans_amp_y: float = 0.0
    period: float = 20.0

    def delta_params(self, frame: int) -> tuple[float, float, float, float]:
        """Camera motion (scale, rot_deg, tx, ty) from frame-1 to frame."""
        if self.pattern == "static" or frame <= 1:
            return 1.0, 0.0, 0.0, 0.0
        if self.pattern == "linear":
            return (1.0 + self.scale_amp, self.rot_amp_deg,
                    self.trans_amp_x, self.trans_amp_y)
        if self.pattern == "sinusoid":
            ang = 2.0 * math.pi * frame / self.period
            return (1.0 + self.scale_amp * math.sin(ang),
                    self.rot_amp_deg * math.sin(ang),
                    self.trans_amp_x * math.sin(ang),
                    self.trans_amp_y * math.cos(ang))
        if self.pattern == "zigzag":
            scale = 1.0 + self.scale_amp if frame % 2 == 0 else 1.0 / (1.0 + self.scale_amp)
            rot = self.rot_amp_deg * (1.0 if frame % 6 < 3 else -1.0)
            tx = self.trans_amp_x * (1.0 if frame % 2 == 0 else -1.0)
            ty = self.trans_amp_y * (1.0 if frame % 4 < 2 else -1.0)
            return scale, rot, tx, ty
        raise ConfigError(f"unknown camera pattern {self.pattern!r}")


@dataclass
class OccluderSpec:
    x: float = 320.0
    y: float = 240.0
    width: float = 60.0
    height: float = 480.0
    color: tuple[int, int, int] = (40, 40, 40)


@dataclass
class NoiseSpec:
    pos_jitter: float = 0.0       # gaussian std, px, on box center
    size_jitter: float = 0.0      # gaussian std as fraction of size
    conf_floor: float = 1.0
    conf_ceil: float = 1.0
    conf_knee_area: float = 1.0   # area at which the confidence curve saturates
    conf_noise: float = 0.0
    conf_clamp_lo: float = 0.0
    conf_clamp_hi: float = 1.0
    occlusion_penalty: float = 0.0
    occlusion_drop: float = 2.0   # drop detection when occluded beyond this fraction
    dropout: float = 0.0
    fp_rate: float = 0.0          # expected false positives per frame
    fp_conf_lo: float = 0.3
    fp_conf_hi: float = 0.6

    def base_confidence(self, area: float) -> float:
        frac = min(1.0, area / self.conf_knee_area) if self.conf_knee_area > 0 else 1.0
        return self.conf_floor + (self.conf_ceil - self.conf_floor) * frac


@dataclass
class ScenarioSpec:
    name: str = "scenario"
    seed: int = 1
    frames: int = 60
    width: int = 640
    height: int = 480
    objects: list[ObjectSpec] = field(default_factory=list)
    camera: CameraSpec = field(default_factory=CameraSpec)
    occluders: list[OccluderSpec] = field(default_factory=list)
    noise: NoiseSpec = field(default_factory=NoiseSpec)


# ---------------------------------------------------------------------------
# Camera geometry

def camera_transforms(spec: ScenarioSpec) -> tuple[list[AffineTransform2D],
                                                   list[AffineTransform2D]]:
    """Per-frame content motions and cumulative world-to-image transforms.

    Returns (motions, world_to_image), both indexed by frame-1. motions[k-1]
    maps image coordinates of frame k-1 onto frame k (identity for k=1); it
    is the inverse of the scripted camera motion, because content moves
    opposite to the camera.
    """
    center = (spec.width / 2.0, spec.height / 2.0)
    motions = [AffineTransform2D.identity()]
    world_to_image = [AffineTransform2D.identity()]
    for k in range(2, spec.frames + 1):
        scale, rot_deg, tx, ty = spec.camera.delta_params(k)
        cam = AffineTransform2D.similarity(scale, math.radians(rot_deg), (tx, ty), center)
        motion = cam.inverse()
        motions.append(motion)
        world_to_image.append(motion.compose(world_to_image[-1]))
    return motions, world_to_image


def _image_box(center, width: float, height: float, w2i: AffineTransform2D) -> BoundingBox:
    """Image box of a world rectangle with this (x, y) ``center`` and size:
    the center goes through ``w2i``, the size scales by its factor."""
    cx, cy = w2i.apply(np.array(center))
    s = w2i.scale_x  # similarity: uniform scale
    w, h = width * s, height * s
    return BoundingBox(cx - w / 2.0, cy - h / 2.0, w, h)


def _occluded_fraction(box: BoundingBox, covers: list[BoundingBox], samples: int = 16) -> float:
    """Fraction of a 16x16 point grid inside ``box`` covered by any of ``covers``."""
    if not covers:
        return 0.0
    xs = box.left + (np.arange(samples) + 0.5) / samples * box.width
    ys = box.top + (np.arange(samples) + 0.5) / samples * box.height
    gx, gy = np.meshgrid(xs, ys)
    covered = np.zeros(gx.shape, dtype=bool)
    for c in covers:
        covered |= (gx >= c.left) & (gx < c.right) & (gy >= c.top) & (gy < c.bottom)
    return float(covered.mean())


# ---------------------------------------------------------------------------
# Rendering

def _lattice_noise(seed: int, salt: int, wx: np.ndarray, wy: np.ndarray,
                   cell: float) -> np.ndarray:
    """Bilinear value noise over a hashed lattice; output (..., 3) in [0, 1].

    Only the lattice cells actually touched are hashed. Each channel gathers
    its four corners from a flat per-channel table and blends them in place:
    per channel the float32 operations are ``c00 * (1 - fx) + c10 * fx`` for
    the top and bottom rows, then ``top * (1 - fy) + bot * fy``.
    """
    ux = wx / cell
    uy = wy / cell
    gx = np.floor(ux)
    gy = np.floor(uy)
    fx = (ux - gx).astype(np.float32)
    fy = (uy - gy).astype(np.float32)
    ix = gx.astype(np.int64)
    iy = gy.astype(np.int64)

    x_min, x_max = int(ix.min()), int(ix.max())
    y_min, y_max = int(iy.min()), int(iy.max())
    lat_x = np.arange(x_min, x_max + 2, dtype=np.int64)
    lat_y = np.arange(y_min, y_max + 2, dtype=np.int64)
    lx, ly = np.meshgrid(lat_x, lat_y, indexing="ij")
    h = hash_coords(seed, lx, ly, salt).reshape(-1)
    ny = lat_y.size

    i00 = (ix - x_min) * ny + (iy - y_min)
    i10 = i00 + ny
    i01 = i00 + 1
    i11 = i10 + 1
    one_fx = 1 - fx
    one_fy = 1 - fy
    out = np.empty(fx.shape + (3,), dtype=np.float32)
    top = np.empty(fx.shape, dtype=np.float32)
    bot = np.empty(fx.shape, dtype=np.float32)
    tmp = np.empty(fx.shape, dtype=np.float32)
    for c in range(3):
        table = ((h >> np.uint64(8 * c)) & np.uint64(0xFF)).astype(np.float32) / 255.0
        # The corner indices lie inside the table by construction, and
        # mode="clip" lets take write to ``out`` without a buffer.
        np.take(table, i00, out=top, mode="clip")
        top *= one_fx
        np.take(table, i10, out=tmp, mode="clip")
        tmp *= fx
        top += tmp
        np.take(table, i01, out=bot, mode="clip")
        bot *= one_fx
        np.take(table, i11, out=tmp, mode="clip")
        tmp *= fx
        bot += tmp
        top *= one_fy
        bot *= fy
        np.add(top, bot, out=out[..., c])
    return out


@lru_cache(maxsize=4)
def _pixel_grid(w: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    xs = np.arange(w) + 0.5
    ys = np.arange(h) + 0.5
    return np.meshgrid(xs, ys)


@lru_cache(maxsize=1)
def _background(seed: int, w: int, h: int, inverse: bytes) -> np.ndarray:
    """Read-only float32 noise background of a (h, w) frame.

    The texture lives in world coordinates; ``inverse`` holds the bytes of
    the image-to-world transform as a float64 (2, 3) ``[linear | translation]``
    matrix. Frames whose transform is equal, as on a static camera, share one
    rendering; ``generate`` clears the cache when it returns.
    """
    m = np.frombuffer(inverse).reshape(2, 3)
    px, py = _pixel_grid(w, h)
    wx = m[0, 0] * px + m[0, 1] * py + m[0, 2]
    wy = m[1, 0] * px + m[1, 1] * py + m[1, 2]
    img = np.empty((h, w, 3), dtype=np.float32)
    img[:] = (105.0, 110.0, 100.0)
    img += (_lattice_noise(seed, _SALT_BACKGROUND, wx, wy, 24.0) - 0.5) * 90.0
    img += (_lattice_noise(seed, _SALT_BACKGROUND2, wx, wy, 6.0) - 0.5) * 36.0
    img.flags.writeable = False
    return img


def render_frame(spec: ScenarioSpec, frame: int, w2i: AffineTransform2D) -> np.ndarray:
    """Render one frame: noise background seen through the camera, then
    textured target rectangles and occluders in z order."""
    h, w = spec.height, spec.width
    px, py = _pixel_grid(w, h)
    inv = w2i.inverse()
    inverse = np.column_stack([inv.linear, inv.translation]).tobytes()
    img = _background(spec.seed, w, h, inverse).copy()

    s = w2i.scale_x
    layers: list[tuple[BoundingBox, tuple[int, int, int], int]] = []
    for i, obj in enumerate(spec.objects):
        box = _image_box(obj.center_at(frame), obj.width, obj.height, w2i)
        layers.append((box, obj.color, _SALT_OBJECT + i))
    for j, occ in enumerate(spec.occluders):
        box = _image_box((occ.x, occ.y), occ.width, occ.height, w2i)
        layers.append((box, occ.color, _SALT_OCCLUDER + j))

    for box, color, salt in layers:
        x0 = max(0, int(math.floor(box.left)))
        y0 = max(0, int(math.floor(box.top)))
        x1 = min(w, int(math.ceil(box.right)))
        y1 = min(h, int(math.ceil(box.bottom)))
        if x1 <= x0 or y1 <= y0:
            continue
        sub_x = px[y0:y1, x0:x1]
        sub_y = py[y0:y1, x0:x1]
        inside = ((sub_x >= box.left) & (sub_x < box.right)
                  & (sub_y >= box.top) & (sub_y < box.bottom))
        cx, cy = box.center
        # Texture in object-local units so appearance is zoom-invariant.
        ux = (sub_x - cx) / s
        uy = (sub_y - cy) / s
        tex = (_lattice_noise(spec.seed, salt, ux, uy, 4.0) - 0.5) * 50.0
        patch = img[y0:y1, x0:x1]
        patch[inside] = np.asarray(color, dtype=np.float32) + tex[inside]

    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# Ground truth + detections

@dataclass
class GenerationResult:
    directory: Path
    manifest: SequenceManifest
    ground_truth: dict[int, list[AnnotatedBox]]
    detections: dict[int, list[Detection]]
    motions: list[AffineTransform2D]        # content transform per frame (index frame-1)
    world_to_image: list[AffineTransform2D]

    @property
    def gt_path(self) -> Path:
        return self.directory / "gt.txt"

    @property
    def det_path(self) -> Path:
        return self.directory / "det.txt"


def build_annotations(spec: ScenarioSpec) -> tuple[dict[int, list[AnnotatedBox]],
                                                   dict[int, list[Detection]],
                                                   list[AffineTransform2D],
                                                   list[AffineTransform2D]]:
    """Ground truth and noisy detections without rendering any pixels."""
    motions, w2i_list = camera_transforms(spec)
    noise = spec.noise
    gt: dict[int, list[AnnotatedBox]] = {}
    dets: dict[int, list[Detection]] = {}
    for k in range(1, spec.frames + 1):
        w2i = w2i_list[k - 1]
        boxes = [_image_box(obj.center_at(k), obj.width, obj.height, w2i)
                 for obj in spec.objects]
        # Later objects and then occluders draw on top of an object.
        layers = boxes + [_image_box((o.x, o.y), o.width, o.height, w2i)
                           for o in spec.occluders]
        edges = np.array([[b.left, b.top, b.right, b.bottom] for b in layers])
        gt_rows: list[AnnotatedBox] = []
        det_rows: list[Detection] = []
        for i, (obj, box) in enumerate(zip(spec.objects, boxes)):
            cx, cy = box.center
            if not (0 <= cx < spec.width and 0 <= cy < spec.height):
                continue
            gt_rows.append(AnnotatedBox(k, i + 1, box, 1.0, obj.class_id))
            # Only a layer that overlaps the box can cover one of its samples,
            # which lie in [left, right] x [top, bottom].
            above = edges[i + 1:]
            overlaps = ((above[:, 0] <= box.right) & (above[:, 2] > box.left)
                        & (above[:, 1] <= box.bottom) & (above[:, 3] > box.top))
            occ_frac = _occluded_fraction(
                box, [layers[i + 1 + j] for j in np.flatnonzero(overlaps)])
            if occ_frac >= noise.occlusion_drop:
                continue
            if noise.dropout > 0.0:
                if Stream(derive_seed(spec.seed, k, i, _SALT_DROPOUT)).uniform() < noise.dropout:
                    continue
            jit = Stream(derive_seed(spec.seed, k, i, _SALT_JITTER))
            dx = jit.gauss() * noise.pos_jitter
            dy = jit.gauss() * noise.pos_jitter
            dw = 1.0 + jit.gauss() * noise.size_jitter
            dh = 1.0 + jit.gauss() * noise.size_jitter
            bw = max(1.0, box.width * dw)
            bh = max(1.0, box.height * dh)
            conf = noise.base_confidence(box.area)
            conf -= noise.occlusion_penalty * occ_frac
            if noise.conf_noise > 0.0:
                conf += Stream(derive_seed(spec.seed, k, i, _SALT_CONF)).gauss() * noise.conf_noise
            conf = min(noise.conf_clamp_hi, max(noise.conf_clamp_lo, conf))
            det_box = BoundingBox(cx + dx - bw / 2.0, cy + dy - bh / 2.0, bw, bh)
            det_rows.append(Detection(k, det_box, conf, obj.class_id))
        if noise.fp_rate > 0.0:
            fp = Stream(derive_seed(spec.seed, k, _SALT_FP))
            count = int(noise.fp_rate)
            if fp.uniform() < noise.fp_rate - count:
                count += 1
            for _ in range(count):
                fw = fp.uniform_in(10.0, 40.0)
                fh = fp.uniform_in(10.0, 40.0)
                fx = fp.uniform_in(0.05 * spec.width, 0.95 * spec.width - fw)
                fy = fp.uniform_in(0.05 * spec.height, 0.95 * spec.height - fh)
                conf = fp.uniform_in(noise.fp_conf_lo, noise.fp_conf_hi)
                cls = spec.objects[0].class_id if spec.objects else 0
                det_rows.append(Detection(k, BoundingBox(fx, fy, fw, fh), conf, cls))
        gt[k] = gt_rows
        dets[k] = det_rows
    return gt, dets, motions, w2i_list


def generate(spec: ScenarioSpec, out_dir: str | Path) -> GenerationResult:
    """Render the scenario into ``out_dir``: frames/, gt.txt, det.txt,
    seqinfo.ini."""
    out_dir = Path(out_dir)
    frames_dir = out_dir / "frames"
    frames_dir.mkdir(parents=True, exist_ok=True)
    gt, dets, motions, w2i_list = build_annotations(spec)

    try:
        for k in range(1, spec.frames + 1):
            image = render_frame(spec, k, w2i_list[k - 1])
            write_ppm(frames_dir / f"{k:06d}.ppm", image)
    finally:
        _background.cache_clear()

    gt_lines = []
    for k in range(1, spec.frames + 1):
        for row in gt[k]:
            b = row.box
            gt_lines.append(f"{k},{row.obj_id},{b.left:.2f},{b.top:.2f},"
                            f"{b.width:.2f},{b.height:.2f},1,{row.class_id},0,0\n")
    (out_dir / "gt.txt").write_text("".join(gt_lines))

    det_lines = []
    for k in range(1, spec.frames + 1):
        for det in dets[k]:
            b = det.box
            det_lines.append(f"{k},-1,{b.left:.2f},{b.top:.2f},"
                             f"{b.width:.2f},{b.height:.2f},{det.score:.6f}\n")
    (out_dir / "det.txt").write_text("".join(det_lines))

    manifest = SequenceManifest(
        name=spec.name, image_directory="frames", frame_rate=30.0,
        seq_length=spec.frames, im_width=spec.width, im_height=spec.height,
        image_extension=".ppm")
    (out_dir / "seqinfo.ini").write_text(manifest.to_text())
    return GenerationResult(out_dir, manifest, gt, dets, motions, w2i_list)


# ---------------------------------------------------------------------------
# Spec files

_TUPLE_KEYS = {"color"}
# The values a spec file may give each named-choice key.
_CHOICES = {
    (ObjectSpec, "path"): ("static", "linear", "sinusoidal"),
    (CameraSpec, "pattern"): ("static", "linear", "sinusoid", "zigzag"),
}


def _coerce(dc_type, key: str, raw: str):
    """``raw`` parsed as the value of ``key``; ValueError for a value that
    ``generate`` could not render."""
    choices = _CHOICES.get((dc_type, key))
    if choices is not None and raw not in choices:
        raise ValueError(raw)
    if key in _TUPLE_KEYS:
        color = tuple(int(p.strip()) for p in raw.split(","))
        if len(color) != 3 or not all(0 <= c <= 255 for c in color):
            raise ValueError(raw)
        return color
    hints = {f.name: f.type for f in dc_fields(dc_type)}
    ann = str(hints[key])
    if "int" in ann and "tuple" not in ann:
        return int(raw)
    if "float" in ann:
        value = float(raw)
        # A sinusoid divides by its period; fp_rate counts detections.
        if (not math.isfinite(value) or (key == "period" and value <= 0.0)
                or (key == "fp_rate" and value < 0.0)):
            raise ValueError(raw)
        return value
    return raw


def _apply_keys(instance, body: dict[str, str], what: str):
    names = {f.name for f in dc_fields(instance)}
    for key, raw in body.items():
        if key not in names:
            raise ConfigError(f"unknown {what} key: {key}")
        try:
            setattr(instance, key, _coerce(type(instance), key, raw))
        except (ValueError, KeyError):
            raise ConfigError(f"invalid value for {what} key {key}: {raw!r}")
    return instance


def parse_scenario(text: str, source: str | None = None) -> ScenarioSpec:
    top, sections = parse_sections(text, source)
    if "seed" not in top:
        raise ConfigError("scenario spec is missing required key: seed")
    spec = ScenarioSpec()
    noise_names = {f.name for f in dc_fields(NoiseSpec)}
    for key, raw in top.items():
        if key in noise_names:
            _apply_keys(spec.noise, {key: raw}, "noise")
        elif key in ("name",):
            spec.name = raw
        elif key in ("seed", "frames", "width", "height"):
            try:
                setattr(spec, key, int(raw))
            except ValueError:
                raise ConfigError(f"invalid value for {key}: {raw!r}")
        else:
            raise ConfigError(f"unknown scenario key: {key}")
    for name, body in sections:
        if name == "object":
            spec.objects.append(_apply_keys(ObjectSpec(), body, "object"))
        elif name == "camera":
            spec.camera = _apply_keys(CameraSpec(), body, "camera")
        elif name == "occluder":
            spec.occluders.append(_apply_keys(OccluderSpec(), body, "occluder"))
        else:
            raise ConfigError(f"unknown section [{name}]")
    if spec.frames < 1 or spec.width < 8 or spec.height < 8:
        raise ConfigError("scenario needs frames >= 1 and a sensible image size")
    return spec


def write_scenario(spec: ScenarioSpec, path: str | Path) -> None:
    lines = [f"name = {spec.name}", f"seed = {spec.seed}", f"frames = {spec.frames}",
             f"width = {spec.width}", f"height = {spec.height}"]
    for f in dc_fields(NoiseSpec):
        lines.append(f"{f.name} = {getattr(spec.noise, f.name)!r}".replace("'", ""))
    lines.append("")
    lines.append("[camera]")
    for f in dc_fields(CameraSpec):
        lines.append(f"{f.name} = {getattr(spec.camera, f.name)}")
    for obj in spec.objects:
        lines.append("")
        lines.append("[object]")
        for f in dc_fields(ObjectSpec):
            v = getattr(obj, f.name)
            if f.name == "color":
                v = ",".join(str(c) for c in v)
            lines.append(f"{f.name} = {v}")
    for occ in spec.occluders:
        lines.append("")
        lines.append("[occluder]")
        for f in dc_fields(OccluderSpec):
            v = getattr(occ, f.name)
            if f.name == "color":
                v = ",".join(str(c) for c in v)
            lines.append(f"{f.name} = {v}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Presets (fixed, versioned scenarios used by the acceptance suite)

PRESET_NAMES = ("baseline", "fast_camera", "occlusion", "small_objects")


def preset(name: str) -> ScenarioSpec:
    if name == "baseline":
        return ScenarioSpec(
            name="baseline", seed=101, frames=60, width=640, height=480,
            objects=[
                ObjectSpec(class_id=4, width=44, height=40, x=120, y=120,
                           color=(190, 60, 50)),
                ObjectSpec(class_id=4, width=38, height=36, x=480, y=140,
                           path="linear", vx=-1.2, vy=0.6, color=(60, 170, 70)),
                ObjectSpec(class_id=4, width=48, height=42, x=200, y=340,
                           path="linear", vx=1.4, vy=-0.5, color=(70, 90, 200)),
                ObjectSpec(class_id=4, width=36, height=40, x=420, y=360,
                           color=(200, 180, 60)),
                ObjectSpec(class_id=4, width=42, height=38, x=320, y=230,
                           path="sinusoidal", amp_x=25, amp_y=12, period=40,
                           color=(170, 80, 190)),
            ])
    if name == "fast_camera":
        # Static targets; all apparent motion comes from the zigzag camera.
        # Three small low-confidence targets each share the color family of a
        # large high-confidence one, so appearance-gated initiation can fire.
        return ScenarioSpec(
            name="fast_camera", seed=202, frames=100, width=640, height=480,
            camera=CameraSpec(pattern="zigzag", scale_amp=0.01, rot_amp_deg=3.0,
                              trans_amp_x=12.0, trans_amp_y=8.0),
            objects=[
                ObjectSpec(class_id=4, width=52, height=46, x=150, y=130, color=(200, 70, 50)),
                ObjectSpec(class_id=4, width=46, height=42, x=480, y=140, color=(60, 180, 80)),
                ObjectSpec(class_id=4, width=56, height=48, x=160, y=350, color=(70, 90, 210)),
                ObjectSpec(class_id=4, width=44, height=46, x=470, y=340, color=(210, 190, 70)),
                ObjectSpec(class_id=4, width=50, height=44, x=320, y=110, color=(180, 80, 200)),
                ObjectSpec(class_id=4, width=48, height=44, x=320, y=370, color=(90, 200, 200)),
                ObjectSpec(class_id=4, width=18, height=16, x=250, y=240, color=(205, 75, 55)),
                ObjectSpec(class_id=4, width=17, height=16, x=390, y=250, color=(65, 185, 85)),
                ObjectSpec(class_id=4, width=18, height=17, x=320, y=290, color=(75, 95, 215)),
            ],
            noise=NoiseSpec(conf_floor=0.45, conf_ceil=0.92, conf_knee_area=1200.0,
                            conf_noise=0.02, conf_clamp_lo=0.05, conf_clamp_hi=0.99))
    if name == "small_objects":
        # Every target stays below the 0.7 confidence split; two same-class
        # targets with distinct colors cross mid-sequence.
        return ScenarioSpec(
            name="small_objects", seed=303, frames=100, width=640, height=480,
            objects=[
                ObjectSpec(class_id=1, width=5, height=8, x=90, y=90,
                           path="linear", vx=0.8, vy=0.3, color=(210, 60, 50)),
                ObjectSpec(class_id=1, width=6, height=10, x=540, y=100,
                           path="linear", vx=-0.7, vy=0.4, color=(60, 190, 70)),
                ObjectSpec(class_id=1, width=7, height=12, x=110, y=390,
                           path="linear", vx=0.9, vy=-0.3, color=(70, 90, 210)),
                ObjectSpec(class_id=1, width=8, height=14, x=520, y=380,
                           path="linear", vx=-0.8, vy=-0.2, color=(210, 190, 60)),
                ObjectSpec(class_id=1, width=6, height=11, x=320, y=140,
                           path="sinusoidal", amp_x=30, amp_y=10, period=50,
                           color=(180, 70, 200)),
                ObjectSpec(class_id=1, width=7, height=13, x=320, y=330,
                           color=(80, 200, 200)),
                # Crossing pair: opposite directions, same row, distinct colors.
                ObjectSpec(class_id=1, width=6, height=10, x=200, y=240,
                           path="linear", vx=1.6, vy=0.05, color=(230, 140, 40)),
                ObjectSpec(class_id=1, width=6, height=10, x=440, y=243,
                           path="linear", vx=-1.6, vy=-0.05, color=(40, 120, 230)),
            ],
            noise=NoiseSpec(pos_jitter=0.25, size_jitter=0.04, conf_floor=0.30,
                            conf_ceil=0.95, conf_knee_area=1000.0, conf_noise=0.03,
                            conf_clamp_lo=0.30, conf_clamp_hi=0.65,
                            dropout=0.08, fp_rate=0.15,
                            fp_conf_lo=0.30, fp_conf_hi=0.60))
    if name == "occlusion":
        # One mover passes behind a dark band; confidence dips with occlusion
        # and detections vanish entirely when mostly hidden.
        return ScenarioSpec(
            name="occlusion", seed=404, frames=80, width=640, height=480,
            objects=[
                ObjectSpec(class_id=4, width=42, height=38, x=110, y=240,
                           path="linear", vx=3.4, vy=0.0, color=(200, 70, 50)),
                ObjectSpec(class_id=4, width=44, height=40, x=150, y=110, color=(60, 180, 80)),
                ObjectSpec(class_id=4, width=40, height=42, x=500, y=370, color=(70, 90, 210)),
            ],
            occluders=[OccluderSpec(x=330, y=240, width=70, height=480,
                                    color=(35, 35, 45))],
            noise=NoiseSpec(pos_jitter=0.2, size_jitter=0.02, conf_floor=0.50,
                            conf_ceil=0.95, conf_knee_area=800.0, conf_noise=0.02,
                            conf_clamp_lo=0.05, conf_clamp_hi=0.99,
                            occlusion_penalty=0.55, occlusion_drop=0.85))
    raise ConfigError(f"unknown preset {name!r} (known: {', '.join(PRESET_NAMES)})")
