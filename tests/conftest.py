"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import redux


@pytest.fixture
def python():
    """Run ``python *args`` in a subprocess that imports this redux, and
    return the finished process with its text output captured."""
    src = str(Path(redux.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(*args):
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )

    return run
