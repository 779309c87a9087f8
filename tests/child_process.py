"""Fresh interpreters that import ``majorant`` from the same source tree as the tests."""

import os
import subprocess
import sys
from pathlib import Path

import majorant


def run_python(*args: str, text: bool = True) -> subprocess.CompletedProcess:
    """``python *args`` in a child process, with the package's directory first on PYTHONPATH.

    Output is captured, as ``str`` or, with ``text=False``, as the bytes
    the child wrote.
    """
    src = str(Path(majorant.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=text)
