import re
from pathlib import Path

import sftrack

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_example_runs_as_written(tmp_path, capsys):
    """The README's Python API example, with only its output directory
    moved into the test's temporary directory."""
    section = README.read_text().split("## Python API", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert code.count('"/tmp/baseline"') == 1
    exec(compile(code.replace('"/tmp/baseline"', repr(str(tmp_path / "baseline"))),
                 str(README), "exec"), {})
    assert "MOTA" in capsys.readouterr().out


def test_every_exported_name_resolves():
    assert len(set(sftrack.__all__)) == len(sftrack.__all__)
    for name in sftrack.__all__:
        assert hasattr(sftrack, name), name
