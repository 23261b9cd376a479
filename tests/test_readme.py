"""Every ``python`` block of README.md runs as written, so the library
examples cannot go stale."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.DOTALL | re.MULTILINE)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_python_block_runs(code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # whatever a block writes stays out of the checkout
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
