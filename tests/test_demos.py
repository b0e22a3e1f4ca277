"""The demos and the README quick start run against the current API."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo", ["identity_benchmark.py", "oscillator_study.py", "beam_study.py", "discrete_geometry.py"]
)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(ROOT / "demos" / demo), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Library quick start") :]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})
