"""The README's Python quickstart runs as written, in a fresh interpreter,
within a time limit: a hang fails the test instead of stalling the suite.
The caps its "Scale limits" section names exist in the package, and its
command-line examples parse."""

import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import nodedp
from nodedp.cli import build_parser

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


def test_readme_scale_limit_caps_are_module_constants():
    section = README.read_text().split("## Scale limits\n", 1)[1].split("\n## ", 1)[0]
    names = set(re.findall(r"`([A-Z][A-Z0-9_]*)`", section))
    assert names, "Scale limits names no cap"
    modules = [
        importlib.import_module(f"nodedp.{info.name}")
        for info in pkgutil.iter_modules(nodedp.__path__)
    ]
    missing = sorted(name for name in names if not any(hasattr(m, name) for m in modules))
    assert not missing, f"README caps missing from nodedp: {missing}"


def test_readme_command_line_examples_parse():
    """Every `nodedp ...` command in the "Command line" block parses with the
    CLI's own parser, so flags and choices cannot drift from the docs."""
    section = README.read_text().split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```bash\n(.*?)```", section, flags=re.DOTALL).group(1)
    commands = [
        shlex.split(line)[1:]
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("nodedp ")
    ]
    assert len(commands) == 12
    for argv in commands:
        build_parser().parse_args(argv)
