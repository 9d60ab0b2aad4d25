"""The README's Python quickstart runs as written, in a fresh interpreter,
within a time limit: a hang fails the test instead of stalling the suite."""

import os
import re
import subprocess
import sys
from pathlib import Path

import nodedp

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert blocks, "README has no fenced python block"
    env = dict(os.environ)
    src = str(Path(nodedp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for code in blocks:
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
