"""The narrative scripts in demos/ and the README quick start run against the package,
with every warning turned into an error."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo, tmp_path):
    # cwd is tmp_path, so a demo that saves a figure writes it there
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONWARNINGS="error")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    quick_start = readme[readme.index("## Quick start"):]
    code = re.search(r"```python\n(.*?)```", quick_start, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONWARNINGS="error")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
