"""`import mvamp`, the theory functions and dense replicates must not load scipy.

scipy.sparse is imported lazily by the network sampler and the edge-list
writer; scipy.linalg, scipy.sparse.linalg and scipy.optimize are not used
at all (the spectral start's tridiagonal solve and the float32 surrogate
product run on numpy and its OpenBLAS).  The theory path and a gaussian
replicate need only numpy; any scipy module on them would add a large
share of the package's start-up time and memory.
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


def _scipy_modules_after(statements: str) -> str:
    """The scipy modules loaded after running statements in a fresh interpreter."""
    src = str(Path(mvamp.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); " + statements + "; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    return subprocess.run([sys.executable, "-c", code, src], check=True,
                          capture_output=True, text=True).stdout.strip()


def test_import_loads_no_scipy_module():
    assert _scipy_modules_after("import mvamp") == "[]"


def test_theory_functions_load_no_scipy_module():
    calls = ("import mvamp; mvamp.fixed_point_z(mvamp.SeConfig(lam=2.0, mu=0.9, c=5 / 3)); "
             "mvamp.limit_mmse(2.0, 0.9, 5 / 3); mvamp.detection_possible(0.5, 0.5, 1.0); "
             "mvamp.xi_limit(2.0, 0.9, 5 / 3); mvamp.scalar_mi(1.0)")
    assert _scipy_modules_after(calls) == "[]"


def test_replicates_load_no_sparse_linalg():
    # the spectral start runs its own Lanczos loop and numpy's eigh, and the
    # surrogate product numpy's own BLAS: a gaussian sweep loads no scipy
    # module, and a multilayer one only scipy.sparse for its layers
    small = ("sweep_param='lambda', grid=(2.0,), fixed_value=0.9, replicates=1, "
             "n_iter=5, seed=1")
    gaussian = ("from mvamp import ExperimentConfig, run_sweep; "
                f"run_sweep(ExperimentConfig(family='gaussian', n=200, p=120, {small}))")
    assert _scipy_modules_after(gaussian) == "[]"
    multilayer = ("from mvamp import ExperimentConfig, run_sweep; "
                  f"run_sweep(ExperimentConfig(family='multilayer', n=400, p=240, m=2, "
                  f"r_fractions=(0.5, 0.5), p_bar_coeffs=(0.7, 0.6), {small}))")
    loaded = _scipy_modules_after(multilayer)
    assert "'scipy.sparse'" in loaded
    assert "'scipy.linalg'" not in loaded and "scipy.sparse.linalg" not in loaded
