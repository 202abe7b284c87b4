"""UAV-oriented multi-object tracking toolkit.

Tracking-by-detection with a confidence-split association cascade,
ratio-preserving camera motion compensation, traditional appearance matching
for low-confidence detections, low-confidence track initiation, CLEAR/IDF1
evaluation, and a deterministic synthetic sequence generator.
"""

from .config import TrackerConfig
from .errors import ConfigError, NumericalError, ParseError, SFTrackError
from .metrics import MetricsReport, evaluate
from .motion import AffineTransform2D, MotionEstimate
from .synthetic import ScenarioSpec, generate, preset
from .tracker import FrameResult, Tracker, run_sequence
from .types import BoundingBox, Detection, from_cxcyah, iou, to_cxcyah

__version__ = "0.1.0"

__all__ = [
    "AffineTransform2D",
    "BoundingBox",
    "ConfigError",
    "Detection",
    "FrameResult",
    "MetricsReport",
    "MotionEstimate",
    "NumericalError",
    "ParseError",
    "SFTrackError",
    "ScenarioSpec",
    "Tracker",
    "TrackerConfig",
    "evaluate",
    "from_cxcyah",
    "generate",
    "iou",
    "preset",
    "run_sequence",
    "to_cxcyah",
    "__version__",
]
