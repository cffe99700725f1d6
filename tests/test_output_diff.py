"""The report line of tools/output_diff.py for one pair of file texts."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "output_diff.py"
_SPEC = importlib.util.spec_from_file_location("output_diff", _PATH)
output_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_diff)


@pytest.mark.parametrize("old, new, svg, want", [
    ("a,b\n1.5,2\n", "a,b\n1.5,2\n", False, (True, "identical")),
    ('{"x": [2.999999999999999, 5.0]}', '{"x": [3.0, 5.0]}', False,
     (False, "1 of 2 numbers changed, max abs 8.88e-16, max rel 2.96e-16")),
    ("t,N\n0,1e3\n1,-2\n", "t,N\n0,1000.5\n1,2\n", False,
     (False, "2 of 4 numbers changed, max abs 4, max rel 2")),
    ("x\n1\n", "y\n1\n", False, (False, "1 lines differ (compared as text)")),
    ("x\n1\n", "x\n1\n2\n", False, (False, "1 lines differ (compared as text)")),
    ('<svg>\n<path d="M 1 2"/>\n</svg>\n', '<svg>\n<path d="M 1 3"/>\n</svg>\n', True,
     (False, "1 lines differ (compared as text)")),
])
def test_compare_reports_changed_numbers_or_lines(old, new, svg, want):
    assert output_diff.compare(old, new, svg) == want
