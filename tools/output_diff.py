"""Which output bytes differ between a parent commit and the working tree.

    python3 tools/output_diff.py PARENT_REF

Exports PARENT_REF with `git archive` (`bench_pairs.export`) into a fresh
directory under `.bench_tmp/` and runs one fixed command set against that
tree's `src/` and against this one's, each side in its own run directory:

- the six README commands, in default formats and in `--format csv,json,svg`
- `ratio-sweep --axis delta`, `simulate --mode mixture` and
  `mixture-sim --counts=3,5,3`, in `--format csv,json,svg`
- the six demos, each copied into its own directory, so its `output/` lands
  beside the copy

Every file a run writes is compared, and so is each command's stdout with its
exit status, with the side's run directory masked. Each line of the report
names one file and reads "identical", or gives the count of changed numbers
with the largest absolute and relative change, or, where the text between
the numbers differs (and for SVG, compared as text), the count of differing
lines. Exits 0 when every file is identical and 1 otherwise. The exported
tree and both run directories are removed at exit.
"""

from __future__ import annotations

import argparse
import difflib
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import ROOT, export  # noqa: E402

ALL = "--format=csv,json,svg"
README = [
    ("bands", ["bands", "--omega", "5.4", "--delta", "-2"]),
    ("coeffs", ["coeffs", "--omega", "5.4", "--delta-list", "-2.5,-2,0,2,2.5"]),
    ("ratio-sweep", ["ratio-sweep", "--axis", "omega", "--start", "0", "--stop", "12",
                     "--points", "25", "--samples", "2000", "--seed", "0"]),
    # simulate writes the spectrum that fit reads
    ("simulate", ["simulate", "--mode", "superposition", "--noise", "0.03", "--seed", "7"]),
    ("fit", ["fit", "out/spectrum_superposition.csv", "--rho0", "1e14", "--t-pa", "5"]),
    ("mixture-sim", ["mixture-sim", "--counts=1200,7000,1100", "--t-pa", "10", "--dt", "0.05"]),
]
EXTRA = [
    ("ratio-sweep-delta", ["ratio-sweep", "--axis", "delta", ALL]),
    ("simulate-mixture", ["simulate", "--mode", "mixture", ALL]),
    ("mixture-sim-3-5-3", ["mixture-sim", "--counts=3,5,3", ALL]),
]
# (run subdirectory, [(stdout name, ramanpa arguments)]); the commands of one
# subdirectory share its --out-dir, "out"
CLI_RUNS = [
    ("readme", README),
    ("readme-all", [(name, args + [ALL]) for name, args in README]),
    *((name, [(name, args)]) for name, args in EXTRA),
]
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def run_side(tree: str, run_dir: str) -> None:
    """Run the command set with `tree/src` on the path, writing into run_dir."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.pop("RAMANPA_CONFIG", None)
    env.pop("PYTHONWARNINGS", None)

    def call(cwd, cmd, stdout_name):
        res = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
        with open(os.path.join(cwd, stdout_name), "w", encoding="utf-8") as fh:
            fh.write(f"{res.stdout}exit {res.returncode}\n")

    for sub, commands in CLI_RUNS:
        cwd = os.path.join(run_dir, sub)
        os.makedirs(cwd)
        for name, args in commands:
            call(cwd, [sys.executable, "-m", "ramanpa", *args, "--out-dir", "out"],
                 f"{name}.stdout")
    demos = os.path.join(tree, "demos")
    for demo in sorted(f for f in os.listdir(demos) if f.endswith(".py")):
        cwd = os.path.join(run_dir, "demo-" + demo[:-3])
        os.makedirs(cwd)
        shutil.copy(os.path.join(demos, demo), cwd)
        call(cwd, [sys.executable, demo], "stdout")


def files(run_dir: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), run_dir)
            for d, _, names in os.walk(run_dir) for f in names if not f.endswith(".py")}


def read(run_dir: str, rel: str) -> str:
    with open(os.path.join(run_dir, rel), encoding="utf-8", errors="replace") as fh:
        return fh.read().replace(run_dir, "<run>")


def compare(old: str, new: str, svg: bool) -> tuple[bool, str]:
    """(identical, one-line summary) of two texts."""
    if old == new:
        return True, "identical"
    old_num, new_num = NUMBER.findall(old), NUMBER.findall(new)
    if svg or NUMBER.split(old) != NUMBER.split(new):
        lines = sum(tag != "equal" and max(i2 - i1, j2 - j1) for tag, i1, i2, j1, j2 in
                    difflib.SequenceMatcher(None, old.splitlines(), new.splitlines(),
                                            autojunk=False).get_opcodes())
        return False, f"{lines} lines differ (compared as text)"
    changed, max_abs, max_rel = 0, 0.0, 0.0
    for a, b in zip(old_num, new_num):
        if a == b:
            continue
        changed += 1
        x, y = float(a), float(b)
        d = abs(x - y) if math.isfinite(x) and math.isfinite(y) else math.inf
        max_abs = max(max_abs, d)
        max_rel = max(max_rel, d / max(abs(x), abs(y)) if d else 0.0)
    return False, (f"{changed} of {len(old_num)} numbers changed, "
                   f"max abs {max_abs:.3g}, max rel {max_rel:.3g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_ref")
    args = parser.parse_args(argv)
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="output-diff-", dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        parent_tree = os.path.join(work, "tree")
        os.makedirs(parent_tree)
        export(args.parent_ref, parent_tree)
        runs = {"parent": os.path.join(work, "parent"), "change": os.path.join(work, "change")}
        for side, tree in (("parent", parent_tree), ("change", ROOT)):
            run_side(tree, runs[side])
        old_files, new_files = files(runs["parent"]), files(runs["change"])
        names = sorted(old_files | new_files)
        width = max(map(len, names))
        same = 0
        for rel in names:
            if rel not in new_files or rel not in old_files:
                line = "only in the parent" if rel in old_files else "only in the change"
            else:
                ok, line = compare(read(runs["parent"], rel), read(runs["change"], rel),
                                   rel.endswith(".svg"))
                same += ok
            print(f"{rel:<{width}}  {line}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"\n{len(names)} files against {args.parent_ref}: {same} identical, "
          f"{len(names) - same} differ")
    return 0 if same == len(names) else 1


if __name__ == "__main__":
    sys.exit(main())
