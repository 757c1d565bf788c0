"""Command line of the harness.

``--workload NAME`` makes one run in this process and prints one JSON
result object as the last line (the form ``BENCHMARK.json`` declares).
Without it the whole suite runs: every workload ``--runs`` times, each
run a fresh subprocess of the first form, and the medians are tabulated.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Dict, List, Optional

from benchmarks.harness.common import quartiles, usable_cpus
from benchmarks.harness.runner import (
    ROOT,
    WORKLOADS,
    load_declaration,
    run_workload,
)

DEFAULT_SEED = 2012
#: ``--smoke``: tiny inputs and a fraction of a second per run.
SMOKE_SCALE = 0.1
SMOKE_SECONDS = 0.2
#: Where a traced run writes its spans unless ``--out`` says otherwise;
#: the root ``.gitignore`` names it, so no run writes a tracked file.
DEFAULT_OUT = ".bench_out"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.harness", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="inputs are a function of this (default 2012)")
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: record spans and print the per-layer "
                             "metrics instead of the end-to-end ones")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every workload's input size")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, a few seconds for the suite")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="directory for span files and the suite "
                             "record (default %(default)s)")
    parser.add_argument("--runs", type=int, default=3,
                        help="suite: runs per workload; run i uses seed+i")
    parser.add_argument("--check-repeat", action="store_true",
                        help="suite: run two sets of --runs and fail if "
                             "any end-to-end median moved by more than "
                             "its own bound")
    args = parser.parse_args(argv)
    args.out = os.path.abspath(args.out)
    if args.smoke:
        args.scale *= SMOKE_SCALE
        args.seconds = SMOKE_SECONDS if args.seconds is None else args.seconds
    if args.seconds is None:
        args.seconds = load_declaration()["run_seconds"]
    return args


# ------------------------------------------------------------------ suite

def _run_subprocess(workload: str, seed: int, args, trace: int) -> dict:
    """One run in a fresh interpreter, so peak RSS is that run's own."""
    command = [sys.executable, "-m", "benchmarks.harness",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--scale", str(args.scale), "--out", args.out]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_set(args, trace: int) -> Dict[str, List[dict]]:
    """``--runs`` runs of every workload: workload -> result objects."""
    return {workload: [_run_subprocess(workload, args.seed + i, args, trace)
                       for i in range(args.runs)]
            for workload in (w["name"]
                             for w in load_declaration()["workloads"])}


def summarise(results: Dict[str, List[dict]]) -> Dict[str, dict]:
    """workload -> metric -> {median, q1, q3, n, unit}, plus op counts."""
    out: Dict[str, dict] = {}
    for workload, runs in results.items():
        table = {}
        for name, first in runs[0]["metrics"].items():
            q1, q2, q3 = quartiles([r["metrics"][name]["value"]
                                    for r in runs])
            table[name] = {"median": q2, "q1": q1, "q3": q3,
                           "n": len(runs), "unit": first["unit"]}
        out[workload] = {
            "metrics": table,
            "ops_attempted": sum(r["attempted"] for r in runs),
            "ops_failed": sum(r["failed"] for r in runs),
        }
    return out


def print_summary(title: str, summary: Dict[str, dict]) -> None:
    print(f"=== {title} ===")
    for workload, entry in summary.items():
        print(f"{workload}: ops_attempted={entry['ops_attempted']} "
              f"ops_failed={entry['ops_failed']}")
        for name, row in entry["metrics"].items():
            spread = ((row["q3"] - row["q1"]) / row["median"]
                      if row["median"] else 0.0)
            print(f"  {name:44s} {row['median']:14.4f} {row['unit']:9s} "
                  f"q1={row['q1']:.4f} q3={row['q3']:.4f} "
                  f"n={row['n']} spread={spread:.3f}")


def fingerprint(args) -> dict:
    """The host, commit and inputs a record was measured on."""
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    return {"cpu_count": os.cpu_count(), "usable_cpus": usable_cpus(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "git_sha": sha.stdout.strip() or None, "seed": args.seed,
            "scale": args.scale, "seconds": args.seconds,
            "runs": args.runs}


def check_repeat(args) -> int:
    """Two sets of untraced runs of the same code must agree."""
    bounds = {m["name"]: m["bound"]
              for m in load_declaration()["end_to_end"]}
    first = summarise(run_set(args, trace=0))
    second = summarise(run_set(args, trace=0))
    print_summary("set 1", first)
    print_summary("set 2", second)
    worst = 0
    print("=== set 2 against set 1 ===")
    for workload in first:
        for name, bound in bounds.items():
            a = first[workload]["metrics"][name]["median"]
            b = second[workload]["metrics"][name]["median"]
            moved = abs(b - a) / a
            verdict = "ok" if moved <= bound else "MOVED"
            worst += verdict != "ok"
            print(f"  {workload:16s} {name:14s} {a:12.4f} -> {b:12.4f} "
                  f"moved {moved:.3f} (bound {bound}) {verdict}")
        worst += first[workload]["ops_failed"]
        worst += second[workload]["ops_failed"]
    print("check-repeat:", "FAILED" if worst else "passed")
    return 1 if worst else 0


def run_suite(args) -> int:
    if args.check_repeat:
        return check_repeat(args)
    record = {"host": fingerprint(args), "claim": None,
              "end_to_end": summarise(run_set(args, trace=0))}
    print_summary("end to end (untraced runs)", record["end_to_end"])
    if args.trace:
        record["per_layer"] = summarise(run_set(args, trace=1))
        print_summary("per layer (traced runs)", record["per_layer"])
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "results.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"record: {path}")
    failed = sum(entry["ops_failed"]
                 for part in ("end_to_end", "per_layer") if part in record
                 for entry in record[part].values())
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_suite(args)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), scale=args.scale,
                          out_dir=args.out)
    print(json.dumps(result))
    return 0
