"""`import mvamp` must not load the heavy scipy submodules.

scipy.sparse.linalg is imported lazily by the spectral start, and
scipy.optimize is not used at all; either one on the import path would
add a large share of the package's start-up time and memory.
"""

import subprocess
import sys
from pathlib import Path

import mvamp


def test_import_leaves_heavy_scipy_modules_unloaded():
    src = str(Path(mvamp.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import mvamp; "
            "print(sorted(m for m in ('scipy.sparse.linalg', 'scipy.optimize') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
