"""README.md's library example runs against the current exports, its depth
cap is the one serial enforces, and every private helper it names exists."""

import importlib
import re
from pathlib import Path

from tateops import serial

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_surface_block_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library surface", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_readme_depth_cap_names_serial_max_level():
    text = " ".join(README.read_text(encoding="utf-8").split())
    cap = re.search(r"The depth cap is `serial\.(\w+)`: a document may claim at most "
                    r"level ([\d,]+)\.", text)
    assert cap is not None, "README has no depth-cap sentence"
    assert cap.group(1) == "MAX_LEVEL"
    assert int(cap.group(2).replace(",", "")) == serial.MAX_LEVEL


def test_readme_private_names_resolve():
    text = README.read_text(encoding="utf-8")
    names = re.findall(r"`(\w+)\.(_\w+)`", text)
    for module, name in names:
        assert hasattr(importlib.import_module(f"tateops.{module}"), name), \
            f"README names `{module}.{name}`, which tateops.{module} lacks"
