"""Start-up cost: the CLI imports numpy only, and no verb loads scipy."""
import ast
import json
import os
import re
import subprocess
import sys
import xml.sax.saxutils
from pathlib import Path

import numpy as np
import pytest
import scipy.constants

from ramanpa import constants, svgplot
from ramanpa.pa_kinetics import LorentzianLine, PulseParams
from ramanpa.spectra import synthesize_spectrum, write_spectrum_csv

_ROOT = Path(__file__).resolve().parents[1]
_PROBE = """
import json, sys
import ramanpa.cli
def heavy():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m == "xml.sax" or m.startswith("xml.sax."))
before = heavy()
code = ramanpa.cli.main(sys.argv[1:])
print(json.dumps({"heavy": before, "heavy_after_main": heavy(), "code": code}))
"""


def test_cli_import_loads_neither_scipy_nor_xml_sax(tmp_path):
    spec = tmp_path / "spec.csv"
    write_spectrum_csv(spec, synthesize_spectrum(
        LorentzianLine(eta_res=0.8, nu0=1.5, gamma=20.0),
        PulseParams(t_pa=5e-3, rho0=1e14, n0=9000.0),
        np.linspace(-40.0, 40.0, 21), 0.0, 0))
    out = tmp_path / "o"
    env = dict(os.environ)
    env.pop("RAMANPA_CONFIG", None)
    res = subprocess.run([sys.executable, "-c", _PROBE, "fit", str(spec),
                          "--out-dir", str(out), "--format", "json"],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout.strip().splitlines()[-1])
    assert report["heavy"] == []
    # the fit runs on numpy alone
    assert report["heavy_after_main"] == []
    assert report["code"] == 0
    assert json.loads((out / "fit_result.json").read_text())["eta_res"] == \
        pytest.approx(0.8, rel=1e-3)


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((_ROOT / "pyproject.toml").read_text())["project"]
    assert [re.split(r"[<>=!~ ;\[]", d)[0] for d in project["dependencies"]] == ["numpy"]
    # scipy stays a test-only oracle
    assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])


def test_no_module_imports_scipy():
    """Every import statement in the package, function-local ones included."""
    found = []
    for path in sorted((_ROOT / "src" / "ramanpa").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_constants_equal_scipy_codata_to_the_bit():
    assert constants.HBAR == scipy.constants.hbar
    assert constants.ATOMIC_MASS_KG == scipy.constants.atomic_mass
    assert constants.BOHR_RADIUS_M == scipy.constants.value("Bohr radius")


@pytest.mark.parametrize("text", [
    "", "plain", "a & b", "<tag>", "x < y > z", "&amp; stays escaped once",
    "'single' and \"double\" quotes", "R&D <\"'>& mixed", "m_f=-1",
])
def test_svg_escape_matches_saxutils(text):
    assert svgplot.escape(text) == xml.sax.saxutils.escape(text)
