import re
from pathlib import Path

import pytest

from sftrack import appearance, association, motion
from sftrack.config import TrackerConfig, parse_sections
from sftrack.errors import ConfigError, ParseError

README = Path(__file__).resolve().parents[1] / "README.md"

# Keys that are fixed values of the modules that read them, not settings.
FIXED_KEYS = ["hist_bins_per_channel", "mse_patch_size", "iou_gate_first", "iou_gate_second",
              "min_fused_sim_first", "min_fused_sim_second", "embedding_ema_momentum",
              "mc_downscale"]


class TestDefaults:
    def test_paper_pinned_values(self):
        c = TrackerConfig()
        assert c.tau == 0.7
        assert c.grace_frames == 30
        assert appearance.HIST_BINS == 8

    def test_other_defaults(self):
        c = TrackerConfig()
        assert c.rho == 0.6
        assert c.mc_enabled and c.low_init_enabled and c.traditional_second_assoc
        assert appearance.PATCH_SIZE == (32, 32)
        assert appearance.EMBEDDING_MOMENTUM == 0.9
        assert association.IOU_GATE == 0.1
        assert association.MIN_FUSED_SIM_FIRST == 0.1
        assert association.MIN_FUSED_SIM_SECOND == 0.05
        assert motion.MC_DOWNSCALE == 2

    def test_file_matches_builtins(self, tmp_path):
        path = tmp_path / "tracker.cfg"
        TrackerConfig().to_file(path)
        assert TrackerConfig.from_file(path) == TrackerConfig()

    def test_readme_table_matches_builtins(self):
        section = README.read_text().split("## Configuration", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", section, flags=re.M)
        assert rows
        assert "".join(f"{key} = {value}\n" for key, value in rows) == TrackerConfig().to_text()


class TestRoundTrip:
    def test_serialize_parse_serialize_byte_identical(self):
        c = TrackerConfig(tau=0.65, rho=0.55, grace_frames=12, mc_enabled=False)
        text = c.to_text()
        assert TrackerConfig.from_text(text).to_text() == text

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\ntau = 0.5  # inline\ngrace_frames = 7\n"
        c = TrackerConfig.from_text(text)
        assert c.tau == 0.5
        assert c.grace_frames == 7


class TestValidation:
    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="not_a_key"):
            TrackerConfig.from_text("not_a_key = 3\n")

    @pytest.mark.parametrize("key", FIXED_KEYS)
    def test_fixed_key_rejected(self, key):
        with pytest.raises(ConfigError, match=key):
            TrackerConfig.from_text(f"tau = 0.5\n{key} = 2\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            TrackerConfig.from_text("tau = banana\n")

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            TrackerConfig(tau=1.5)
        with pytest.raises(ConfigError):
            TrackerConfig(rho=-0.1)
        with pytest.raises(ConfigError):
            TrackerConfig(grace_frames=0)


class TestDuplicateKeys:
    def test_tracker_config_rejects_a_repeated_key(self):
        with pytest.raises(ParseError, match=r"cfg:3: duplicate key 'tau' \(first on line 1\)"):
            TrackerConfig.from_text("tau = 0.5\nrho = 0.4\ntau = 0.9\n", source="cfg")

    def test_sections_reject_a_key_repeated_within_one_section(self):
        text = "seed = 1\n[object]\nx = 1\ny = 2\nx = 3\n"
        with pytest.raises(ParseError, match=r"spec:5: duplicate key 'x' \(first on line 3\)"):
            parse_sections(text, source="spec")
        with pytest.raises(ParseError, match=r"spec:2: duplicate key 'seed' \(first on line 1\)"):
            parse_sections("seed = 1\nseed = 2\n[object]\nx = 1\n", source="spec")

    def test_the_same_key_in_two_sections_is_not_a_repeat(self):
        top, sections = parse_sections("x = 0\n[object]\nx = 1\n[object]\nx = 2\n")
        assert top == {"x": "0"} and [body for _, body in sections] == [{"x": "1"}, {"x": "2"}]


class TestSections:
    def test_parse_sections(self):
        text = "seed = 3\n[object]\nx = 1\n[object]\nx = 2\n[camera]\npattern = zigzag\n"
        top, sections = parse_sections(text)
        assert top == {"seed": "3"}
        assert [name for name, _ in sections] == ["object", "object", "camera"]
        assert sections[1][1] == {"x": "2"}
