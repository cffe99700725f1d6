"""Smoke runs of the demo scripts, so they cannot rot unseen.

Each demo is copied into a temporary directory, so its output lands there and
not in demos/output/, and run with numpy RuntimeWarnings as errors. Demo 04,
the spectrum-fit round trip with its 40-seed pull check, is the slowest at
about 2 s on a 2-core Xeon.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_band_structures.py", "02_interference_suppression.py",
         "03_loss_kinetics.py", "04_spectrum_fit_roundtrip.py",
         "05_uncertainty_bands.py", "06_mixture_vs_superposition.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs_cleanly(tmp_path, name):
    script = shutil.copy(ROOT / "demos" / name, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("RAMANPA_CONFIG", None)
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", script],
                         cwd=tmp_path, env=env, capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout and not res.stderr
