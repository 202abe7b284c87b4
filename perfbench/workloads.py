"""Benchmark workloads, built from sftrack's public synthetic API.

Every scene is a function of the benchmark seed alone: the seed picks the
scenario's render/noise seed and, for the crowd scenes, the layout of every
target (position, size, class, velocity, colour) through ``sftrack.rng``.
Setup writes the scene to disk with ``synthetic.generate`` (plus an
embeddings file where the workload uses learned appearance) and parses it
back the way ``sftrack track`` / ``sftrack eval`` would. The tracker only
ever sees the parsed files.

Why each workload exists is written next to its scene function and in DESIGN.md.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from sftrack import appearance, io_formats, synthetic
from sftrack.config import TrackerConfig
from sftrack.rng import Stream, derive_seed
from sftrack.synthetic import CameraSpec, NoiseSpec, ObjectSpec, ScenarioSpec

_SALT_LAYOUT = 7001
_SALT_IDENTITY = 7002
_SALT_DETECTION = 7003

EMBED_DIM = 128
EMBED_NOISE = 0.06   # per-dimension std: cosine to the identity vector ~0.83
VISDRONE_CLASSES = (1, 4)  # pedestrian, car: both kept by read_visdrone


@dataclass(frozen=True)
class Workload:
    name: str
    frames: int
    scene: Callable[[int, int], ScenarioSpec]   # (seed, frames) -> spec
    config: TrackerConfig = field(default_factory=TrackerConfig)
    learned_embeddings: bool = False

    def spec(self, seed: int, frames: int | None = None) -> ScenarioSpec:
        return self.scene(seed, frames or self.frames)


def _fast_camera(seed: int, frames: int) -> ScenarioSpec:
    # The shipped preset: 9 static targets, zigzag camera (3 deg, 12 px),
    # so camera motion compensation does nearly all of the work.
    spec = synthetic.preset("fast_camera")
    spec.name = "bench_fast_camera"
    spec.seed = seed
    spec.frames = frames
    return spec


def _crowd(seed: int, frames: int, n: int, size_range: tuple[float, float],
           max_speed: float) -> list[ObjectSpec]:
    """``n`` linearly moving targets of two classes that stay in frame.

    Sizes and speeds are stratified over their ranges and only their pairing
    is shuffled, so every seed has the same size (hence confidence) and speed
    distribution and seeds differ in layout, not in how much work a frame
    is. Positions, headings, aspects and colours are drawn per seed.
    """
    rng = Stream(derive_seed(seed, _SALT_LAYOUT))
    lo, hi = size_range
    sizes = [lo + (hi - lo) * (i + 0.5) / n for i in range(n)]
    speeds = [0.2 + (max_speed - 0.2) * (i + 0.5) / n for i in range(n)]
    for i in range(n - 1, 0, -1):  # Fisher-Yates
        j = int(rng.uniform() * (i + 1))
        speeds[i], speeds[j] = speeds[j], speeds[i]
    margin = hi + max_speed * frames
    objects = []
    for i in range(n):
        aspect = rng.uniform_in(0.7, 1.4)
        angle = rng.uniform_in(0.0, 2.0 * math.pi)
        objects.append(ObjectSpec(
            class_id=VISDRONE_CLASSES[i % 2],
            width=round(sizes[i] * math.sqrt(aspect), 2),
            height=round(sizes[i] / math.sqrt(aspect), 2),
            x=rng.uniform_in(margin, 640.0 - margin),
            y=rng.uniform_in(margin, 480.0 - margin),
            path="linear",
            vx=speeds[i] * math.cos(angle), vy=speeds[i] * math.sin(angle),
            color=tuple(int(rng.uniform() * 256) for _ in range(3))))
    return objects


def _dense_static(seed: int, frames: int) -> ScenarioSpec:
    # VisDrone-like crowd on fixed footage: ~200 targets of 6-16 px whose
    # confidences straddle tau = 0.7, ~5 false positives per frame. Camera
    # motion compensation is off, so appearance cues, both association
    # stages and the Kalman filter carry the whole frame cost.
    return ScenarioSpec(
        name="bench_dense_static", seed=seed, frames=frames, width=640, height=480,
        objects=_crowd(seed, frames, 200, (6.0, 16.0), 1.5),
        camera=CameraSpec(pattern="static"),
        noise=NoiseSpec(pos_jitter=0.3, size_jitter=0.04, conf_floor=0.45,
                        conf_ceil=0.95, conf_knee_area=200.0, conf_noise=0.05,
                        conf_clamp_lo=0.05, conf_clamp_hi=0.99,
                        occlusion_penalty=0.3, fp_rate=5.0, fp_conf_lo=0.3,
                        fp_conf_hi=0.6))


def _dense_reid(seed: int, frames: int) -> ScenarioSpec:
    # Larger, confidently detected crowd (~97% above tau) with a learned
    # ReID embedding per detection: stage 1 does the matching and the
    # appearance layer's work is writing track memory. No dropout and no
    # occlusion drop, so detection rows pair 1:1 with ground-truth rows and
    # each can be given its identity's embedding.
    return ScenarioSpec(
        name="bench_dense_reid", seed=seed, frames=frames, width=640, height=480,
        objects=_crowd(seed, frames, 120, (14.0, 34.0), 2.0),
        camera=CameraSpec(pattern="static"),
        noise=NoiseSpec(pos_jitter=0.4, size_jitter=0.03, conf_floor=0.66,
                        conf_ceil=0.97, conf_knee_area=400.0, conf_noise=0.03,
                        conf_clamp_lo=0.05, conf_clamp_hi=0.99,
                        fp_rate=2.0, fp_conf_lo=0.3, fp_conf_hi=0.6))


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload("fast_camera", 16, _fast_camera),
        Workload("dense_static", 12, _dense_static,
                 config=TrackerConfig(mc_enabled=False)),
        Workload("dense_reid", 16, _dense_reid,
                 config=TrackerConfig(mc_enabled=False), learned_embeddings=True),
    )
}


# ---------------------------------------------------------------------------
# Setup: synthesise to disk, then parse


@dataclass
class Inputs:
    sequence: io_formats.Sequence
    detections: dict
    ground_truth: dict
    embeddings: dict | None


def write_embeddings(gen: synthetic.GenerationResult, seed: int, path: Path) -> None:
    """One 128-d row per detection: the identity's vector plus noise for a
    true detection, a random vector for a false positive."""
    n_objects = max((r.obj_id for rows in gen.ground_truth.values() for r in rows),
                    default=0)
    identity = np.random.default_rng([seed, _SALT_IDENTITY]).standard_normal(
        (n_objects, EMBED_DIM))
    identity /= np.linalg.norm(identity, axis=1, keepdims=True)
    rng = np.random.default_rng([seed, _SALT_DETECTION])
    lines = []
    for k in sorted(gen.detections):
        gt_rows, det_rows = gen.ground_truth[k], gen.detections[k]
        if len(det_rows) < len(gt_rows):
            raise ValueError(f"frame {k}: fewer detections than targets; "
                             "embeddings need a 1:1 detection/target pairing")
        noise = rng.standard_normal((len(det_rows), EMBED_DIM))
        for j, det in enumerate(det_rows):
            if j < len(gt_rows):
                row = gt_rows[j]
                if not math.isclose(det.box.center[0], row.box.center[0], abs_tol=5.0):
                    raise ValueError(f"frame {k}: detection {j} is not target {row.obj_id}")
                vec = identity[row.obj_id - 1] + EMBED_NOISE * noise[j]
            else:
                vec = noise[j]
            vec = vec / np.linalg.norm(vec)
            lines.append(f"{k},{j}," + ",".join(f"{x:.6f}" for x in vec) + "\n")
    path.write_text("".join(lines))


def synthesise(workload: Workload, seed: int, directory: Path,
               frames: int | None = None) -> None:
    """Write the workload's sequence, gt.txt, det.txt (and embeddings.txt)."""
    if directory.exists():
        shutil.rmtree(directory)
    gen = synthetic.generate(workload.spec(seed, frames), directory)
    if workload.learned_embeddings:
        write_embeddings(gen, seed, directory / "embeddings.txt")


def load(workload: Workload, directory: Path) -> Inputs:
    """Parse what ``synthesise`` wrote, as the CLI's track and eval would."""
    sequence = io_formats.load_sequence(directory)
    detections = io_formats.read_mot_detections(directory / "det.txt")
    ground_truth = io_formats.read_visdrone(directory / "gt.txt", mode="gt")
    embeddings = (appearance.load_embeddings(directory / "embeddings.txt")
                  if workload.learned_embeddings else None)
    return Inputs(sequence, detections, ground_truth, embeddings)


def digest(directory: Path) -> str:
    """sha256 over the name and bytes of every file under ``directory``."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()
