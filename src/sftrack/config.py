"""Tracker configuration and the flat key-value config file format.

Format: one ``key = value`` per line, ``#`` starts a comment, blank lines
ignored, and a key may appear once. Scenario files reuse the same grammar
plus ``[section]`` headers; a key may appear once per section.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError, ParseError


@dataclass
class TrackerConfig:
    """The method's two thresholds, the track lifetime and the three
    components the ablation switches.

    ``tau`` splits detections into high/low confidence (strictly greater
    goes high). ``rho`` gates new-track initiation from low-confidence
    detections on appearance similarity. ``grace_frames`` is how many
    consecutive unmatched frames a track survives before removal. Fixed
    values live beside the code that reads them (``appearance``,
    ``association``, ``motion``).
    """

    tau: float = 0.7
    rho: float = 0.6
    grace_frames: int = 30
    mc_enabled: bool = True
    low_init_enabled: bool = True
    traditional_second_assoc: bool = True

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for name in ("tau", "rho"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0,1], got {v}")
        if self.grace_frames < 1:
            raise ConfigError(f"grace_frames must be >= 1, got {self.grace_frames}")

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            lines.append(f"{f.name} = {_format_value(getattr(self, f.name))}")
        return "\n".join(lines) + "\n"

    def to_file(self, path: str | Path) -> None:
        Path(path).write_text(self.to_text())

    @classmethod
    def from_text(cls, text: str, source: str | None = None) -> "TrackerConfig":
        known = {f.name: f for f in fields(cls)}
        kwargs = {}
        for lineno, key, value in _iter_kv_lines(text, source):
            if key.startswith("[") and key.endswith("]"):
                raise ConfigError(f"unexpected section {key} in tracker config")
            if key not in known:
                raise ConfigError(f"unknown config key: {key}")
            kwargs[key] = _parse_value(key, value, known[key].type, source, lineno)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | Path) -> "TrackerConfig":
        return cls.from_text(Path(path).read_text(), source=str(path))


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_value(key: str, raw: str, annotation: str, source, lineno):
    ann = str(annotation)
    try:
        if "bool" in ann:
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if "int" in ann:
            return int(raw)
        return float(raw)
    except ValueError:
        raise ConfigError(f"invalid value for {key}: {raw!r}"
                          + (f" ({source}:{lineno})" if source else ""))


def _iter_kv_lines(text: str, source=None):
    """Yield (lineno, key, value) for key=value lines; section headers yield
    (lineno, '[name]', ''). A key repeated before the next section header
    raises ``ParseError`` at its second line, naming the first."""
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            first_line.clear()
            yield lineno, stripped, ""
            continue
        if "=" not in stripped:
            raise ParseError(f"expected 'key = value', got {stripped!r}", source, lineno)
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in first_line:
            raise ParseError(f"duplicate key {key!r} (first on line {first_line[key]})",
                             source, lineno)
        first_line[key] = lineno
        yield lineno, key, value.strip()


def parse_sections(text: str, source: str | None = None):
    """Parse sectioned key-value text.

    Returns (globals_dict, [(section_name, section_dict), ...]) with keys in
    file order. Values stay raw strings; callers coerce.
    """
    top: dict[str, str] = {}
    sections: list[tuple[str, dict[str, str]]] = []
    current: dict[str, str] | None = None
    for lineno, key, value in _iter_kv_lines(text, source):
        if key.startswith("[") and key.endswith("]"):
            current = {}
            sections.append((key[1:-1].strip().lower(), current))
            continue
        if current is None:
            top[key] = value
        else:
            current[key] = value
    return top, sections
