"""What importing the package loads."""

import os
import subprocess
import sys
from pathlib import Path

import gridtvc


def test_importing_gridtvc_loads_no_scipy():
    # scipy.linalg brings a second OpenBLAS and roughly doubles the resident
    # memory of a process; the package runs on numpy alone.
    src = str(Path(gridtvc.__file__).resolve().parents[1])
    code = ("import sys, gridtvc, gridtvc.trainer; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.stdout.strip() == "[]"
