"""Paired benchmark runs of a parent commit against the working tree.

    python3 tools/bench_pairs.py PARENT_REF --workload W --pairs N --seconds S --seed0 K

Exports PARENT_REF with `git archive` into a fresh directory under `.bench_tmp/`
and runs `benchmarks/run.py --trace 0` in that tree and in this one, N pairs
with seeds K, K+1, ..., alternating which side runs first. It prints every
run, then for each end-to-end metric of `BENCHMARK.json` each side's median
and quartiles, the parent's spread (the distance between its quartiles) and
the number of pairs the change won, ties counting for neither. A metric reads
"gain" when the change won at least nine tenths of the pairs and its median
is better than the parent's by more than the parent's spread; "loss" is the
same rule the other way. Each metric also reads against its `bound`, a
fraction of the parent's median: "worse than bound" when the change's median
is worse than the parent's by more than the bound; else "unresolved" when the
parent's spread is wider than the bound, unless every change run beats every
parent run; else "within bound". The exported tree is removed at exit.
Nothing is written under `benchmarks/`; `run.py` leaves its result files in
each tree's `.bench_out/`.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(ref: str, parent_dir: str) -> None:
    """Write the files of commit `ref` into parent_dir."""
    tar = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(parent_dir, filter="data")


def run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in `tree`: its result line, or exit on a failed run."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if res.returncode != 0:
        sys.exit(f"{' '.join(cmd)} in {tree} exited {res.returncode}:\n{res.stderr}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def summarize(name: str, better: str, bound: float, parent: list, change: list) -> str:
    """One table row: medians and quartiles, parent spread, wins, both verdicts."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p1, pm, p3 = statistics.quantiles(parent, n=4)  # the middle cut is the median
    c1, cm, c3 = statistics.quantiles(change, n=4)
    spread = p3 - p1
    gap = sign * (cm - pm)
    n = len(parent)
    verdict = ("gain" if wins >= 0.9 * n and gap > spread
               else "loss" if losses >= 0.9 * n and -gap > spread else "no claim")
    allowed = bound * abs(pm)
    separated = min(sign * c for c in change) > max(sign * p for p in parent)
    against_bound = ("worse than bound" if -gap > allowed
                     else "unresolved" if spread > allowed and not separated
                     else "within bound")
    return (f"{name:<12} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  "
            f"change {cm:.4g} [{c1:.4g}, {c3:.4g}]  "
            f"parent IQR {spread:.3g}  change won {wins}/{n}  {verdict}, {against_bound}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_ref")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:  # quartiles need two runs a side
        parser.error("--pairs must be at least 2")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = [(m["name"], m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]]

    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    parent_dir = tempfile.mkdtemp(prefix="parent-", dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        export(args.parent_ref, parent_dir)
        results = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = [("parent", parent_dir), ("change", ROOT)]
            for side, tree in order if i % 2 == 0 else order[::-1]:
                result = run(tree, args.workload, seed, args.seconds)
                results[side].append(result)
                values = ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
                print(f"pair {i} seed {seed} {side}: correct {result['correct']}, "
                      f"attempted {result['attempted']}, failed {result['failed']}; {values}",
                      flush=True)
    finally:
        shutil.rmtree(parent_dir, ignore_errors=True)

    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs, "
          f"parent {args.parent_ref} against the working tree")
    for name, better, bound in metrics:
        print(summarize(name, better, bound,
                        [r["metrics"][name]["value"] for r in results["parent"]],
                        [r["metrics"][name]["value"] for r in results["change"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
