"""The summary row of tools/bench_pairs.py for synthetic paired runs."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
WIDE = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]  # IQR 45


@pytest.mark.parametrize("better, bound, parent, change, verdicts", [
    # a tight parent: the bound alone decides
    ("higher", 0.25, PARENT, [v * 1.1 for v in PARENT], "gain, within bound"),
    ("higher", 0.25, PARENT, [v * 0.9 for v in PARENT], "loss, within bound"),
    ("higher", 0.25, PARENT, [v * 0.7 for v in PARENT], "loss, worse than bound"),
    ("lower", 0.25, PARENT, [v * 1.3 for v in PARENT], "loss, worse than bound"),
    ("lower", 0.25, PARENT, [v * 1.2 for v in PARENT], "loss, within bound"),
    ("lower", 0.1, PARENT, list(PARENT), "no claim, within bound"),
    # the parent's spread (45) is wider than the bound (25): unresolved ...
    ("higher", 0.25, WIDE, list(WIDE), "no claim, unresolved"),
    ("lower", 0.25, WIDE, [v - 1.0 for v in WIDE], "no claim, unresolved"),
    # ... unless every change run beats every parent run
    ("higher", 0.25, WIDE, [v + 81.0 for v in WIDE], "gain, within bound"),
    ("lower", 0.25, WIDE, [v - 81.0 for v in WIDE], "gain, within bound"),
    # a median worse by more than the bound reads so whatever the spread
    ("lower", 0.25, WIDE, [v + 30.0 for v in WIDE], "no claim, worse than bound"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_summarize_reads_each_metric_against_its_bound(better, bound, parent, change,
                                                       verdicts):
    row = bench_pairs.summarize("metric", better, bound, parent, change)
    assert row.endswith(f"  {verdicts}"), row


def test_summarize_row_names_medians_spread_and_wins():
    row = bench_pairs.summarize("ops_per_s", "higher", 0.25, PARENT, [v + 1.0 for v in PARENT])
    assert row.startswith("ops_per_s    parent 100 [")
    assert "change 101 [" in row and "change won 10/10" in row
