"""What importing the package loads."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import gridpatterns


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; every process and spawned pool worker
    # imports the package, so a stray scipy import costs each of them
    src = str(Path(gridpatterns.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, gridpatterns.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert out.stdout.strip() == "[]"
