"""The README's library example runs against the package as it is."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"^## Library example\n.*?^```python\n(.*?)^```", readme, re.M | re.S)
    assert example is not None
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    subprocess.run([sys.executable, "-c", example.group(1)], env=env, check=True, timeout=120)
