"""Repeat benchmark runs over seeds and summarize them as a result-history entry.

    python3 benchmarks/history.py --workloads mc_bands,loss_analysis --seeds 1-10 \
        --seconds 25 [--trace-seed 1] [--label NAME --commit SHA --write]

Runs `run.py` once per (workload, seed), one run at a time, and prints for
each end-to-end metric the median and the spread (distance between the first
and third quartile as a share of the median). With `--trace-seed` it also
makes one traced run per workload. With `--write` the summary, the raw values
and the machine details are saved as `history/<label>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from harness import machine_info, quartile_spread  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="mc_bands,loss_analysis,cli_session")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace-seed", type=int, help="also make one traced run per workload")
    parser.add_argument("--label", default="result")
    parser.add_argument("--commit", default="unknown", help="commit the runs measured")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)

    entry = {"label": args.label, "commit": args.commit, "seconds": args.seconds,
             "seeds": _seeds(args.seeds), "machine": machine_info(), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in entry["seeds"]]
        values = {name: [r["metrics"][name]["value"] for r in runs]
                  for name in runs[0]["metrics"]}
        summary = {}
        for name, vals in values.items():
            summary[name] = {"unit": runs[0]["metrics"][name]["unit"],
                             "median": statistics.median(vals),
                             "spread": quartile_spread(vals), "values": vals}
            print(f"{workload:14s} {name:12s} median {summary[name]['median']:.6g} "
                  f"{summary[name]['unit']:4s} spread {summary[name]['spread']:.4f}",
                  flush=True)
        record = {"end_to_end": summary,
                  "all_correct": all(r["correct"] for r in runs),
                  "attempted": sum(r["attempted"] for r in runs),
                  "failed": sum(r["failed"] for r in runs)}
        print(f"{workload:14s} correct {record['all_correct']}, "
              f"failed {record['failed']}/{record['attempted']}", flush=True)
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, args.seconds, 1)
            record["per_layer_seed"] = args.trace_seed
            record["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        entry["workloads"][workload] = record
    if args.write:
        os.makedirs(os.path.join(HERE, "history"), exist_ok=True)
        with open(os.path.join(HERE, "history", f"{args.label}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(entry, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
