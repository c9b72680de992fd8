#!/usr/bin/env python3
"""Record one tree's benchmark run and Tier-1 time as BENCH_<label>.json.

    python3 tools/bench.py --label L [--tree DIR]

Runs DIR's own ``perfbench/run.py --workload all --seed 1 --seconds 10``
(untraced) from DIR, so DIR's ``src/`` is what is measured, then times one
Tier-1 run there. DIR defaults to this checkout; for another commit, use a
clone checked out at it, so that the file names its commit. The file goes
to this checkout's root and holds, per workload, the end-to-end metrics at
reference speed, the wall times and the probe's machine slowdown, the run
manifest, and the operation digests (the sweep CSV digests for the
sweeps), plus the facts that bias process timings:
``sys.flags.dont_write_bytecode`` and whether ``src/hotspot/__pycache__``
existed before the run. Nothing under ``perfbench/`` is written but its
``out/`` reports.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1  # the same inputs for every tree, so that their files compare
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def commit_of(tree: str) -> str | None:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True,
                          text=True)
    return done.stdout.strip() or None if done.returncode == 0 else None


def run_bench(tree: str) -> dict:
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "all",
                           "--seed", str(SEED), "--seconds", "10"],
                          cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"perfbench exited {done.returncode}:\n{done.stderr[-3000:]}")
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    workloads = {}
    for line in lines[:-1]:  # one {"workload": ...} line per workload, then the summary
        name = line["workload"]
        with open(os.path.join(tree, "perfbench", "out", f"{name}-seed{SEED}-trace0.json"),
                  encoding="utf-8") as fh:
            report = json.load(fh)
        workloads[name] = {
            "metrics": {k: m["value"] for k, m in report["metrics"].items()},
            "wall": report["wall"],
            "attempted": report["attempted"], "failed": report["failed"],
            "workers": report["workers"], "operations": report["operations"],
            "manifest": report["manifest"], "digests": report["digests"]}
    last = lines[-1]
    return {"correct": last["correct"], "attempted": last["attempted"],
            "failed": last["failed"], "workloads": workloads}


def run_tier1(tree: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(tree, "src"), os.environ.get("PYTHONPATH")])))
    started = time.monotonic()
    done = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True,
                          text=True)
    seconds = time.monotonic() - started
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", summary)}
    return {"command": " ".join(["python", *TIER1]), "seconds": seconds,
            "exit_code": done.returncode, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0), "summary": summary}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True)
    ap.add_argument("--tree", default=ROOT)
    args = ap.parse_args()
    tree = os.path.abspath(args.tree)
    record = {
        "label": args.label, "commit": commit_of(tree), "seed": SEED,
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "pycache_before": os.path.isdir(os.path.join(tree, "src", "hotspot", "__pycache__")),
    }
    record["bench"] = run_bench(tree)
    record["tier1"] = run_tier1(tree)
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"{path}: correct={record['bench']['correct']} "
          f"failed={record['bench']['failed']} tier1={record['tier1']['summary']!r}")
    return 0 if record["bench"]["correct"] and record["tier1"]["exit_code"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
