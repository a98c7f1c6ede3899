"""The package does not import scipy: `scipy.optimize` alone would add
about half a second and 50 MB to every command's start."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_does_not_import_scipy():
    code = ("import sys, gibbs_qaoa, gibbs_qaoa.harness, gibbs_qaoa.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"
