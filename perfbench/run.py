#!/usr/bin/env python3
"""The repository benchmark: seeded workloads against the hotspot package.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ./src. Each
repetition of a workload runs in a fresh interpreter (worker.py), so no
in-process cache or lazy import makes a later repetition cheaper than the
first. Repetitions are started one after another until --seconds of
operations have been timed, and at least three of them, so set-up is
measured several times. With --trace 1 half of the repetitions are traced
and the last line reports the per-layer metrics; otherwise it reports the
end-to-end metrics. Either way the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. A report with the
run manifest, every sweep CSV digest and (traced) every span is written
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from timing import REFERENCE_PROBE_S, at_reference, probe  # noqa: E402
from tracing import COUNT_METRICS, SPAN_METRICS, layer_summary, self_times  # noqa: E402

WORKLOADS = ("sweep_er_giant", "sweep_noisy_file", "detect_million", "calibrate_gamma")
END_TO_END = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms", "items_per_s": "1/s",
              "cli_s": "s", "peak_rss_mb": "MB"}
MIN_WORKERS = 3          # untraced repetitions per run (set-up is their median)
MIN_TRACED = 2           # traced and untraced repetitions each, with --trace 1
MAX_WORKERS = 12
START_BUDGET_S = 110     # start no repetition after this much wall time
WORKER_TIMEOUT_S = 170   # and stop any repetition at this much


def run_worker(request: dict, started: float) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    request = dict(request, probe=probe(), spawned=time.monotonic())
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH_DIR, "worker.py"),
                             json.dumps(request)], cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(
            timeout=max(5.0, WORKER_TIMEOUT_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any CLI process it started
        proc.communicate()
        raise RuntimeError(f"worker {request['worker']} ran out of time")
    if proc.returncode != 0:
        raise RuntimeError(f"worker {request['worker']} exited {proc.returncode}:\n"
                           + err[-3000:])
    return json.loads(out.strip().splitlines()[-1])


def quantile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99) by statistics.quantiles' default method."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def end_to_end(workers: list[dict]) -> dict[str, float]:
    """Times are at reference speed (timing.py); memory is as measured."""
    def seconds(key: str) -> list[float]:
        return [at_reference(*t) for w in workers for t in w[key]]

    op_s = seconds("op_s")
    op_ms = [s * 1000.0 for s in op_s]
    return {
        "setup_s": statistics.median(at_reference(*w["setup_s"]) for w in workers),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": quantile(op_ms, 90),
        "items_per_s": sum(w["items"] for w in workers) / sum(op_s),
        "cli_s": statistics.median(seconds("cli_s")),
        "peak_rss_mb": statistics.median(w["rss_mb"] for w in workers),
    }


def wall_times(workers: list[dict]) -> dict[str, float]:
    """The same times as measured, with the machine's median slowdown."""
    op_ms = [t[0] * 1000.0 for w in workers for t in w["op_s"]]
    probes = [p for w in workers for t in w["op_s"] + w["cli_s"] for p in t[1:]]
    return {"setup_s": statistics.median(w["setup_s"][0] for w in workers),
            "op_ms_p50": statistics.median(op_ms), "op_ms_p90": quantile(op_ms, 90),
            "cli_s": statistics.median(t[0] for w in workers for t in w["cli_s"]),
            "slowdown": statistics.median(probes) / REFERENCE_PROBE_S}


def merged_spans(workers: list[dict]) -> list[list]:
    spans = []
    for w in workers:
        base = len(spans)
        spans += [[n, s, e, p + base if p >= 0 else -1] for n, s, e, p in w["spans"]]
    return spans


def op_breakdown(spans: list[list]) -> dict[str, float]:
    """Self seconds per operation, by span name, over the spans inside
    timed operations."""
    own = self_times(spans)
    root = []
    for i, (_, _, _, parent) in enumerate(spans):
        root.append(i if parent < 0 else root[parent])
    ops = sum(1 for name, _, _, parent in spans if name == "op" and parent < 0)
    totals: dict[str, float] = {}
    for i, rec in enumerate(spans):
        if spans[root[i]][0] == "op":
            totals[rec[0]] = totals.get(rec[0], 0.0) + own[i]
    return {name: t / max(ops, 1) for name, t in sorted(totals.items(), key=lambda kv: -kv[1])}


def per_layer(summary: dict, traced: list[dict], untraced: list[dict],
              inputs: dict) -> dict[str, tuple]:
    metrics: dict[str, tuple] = {}
    for span, name in SPAN_METRICS.items():
        metrics[name] = (summary[span]["median_s"] * 1000.0 if span in summary else 0.0, "ms")
    trial = summary.get("harness.run_trial")
    metrics["harness.run_trial_self_ms"] = (trial["self_median_s"] * 1000.0 if trial else 0.0,
                                            "ms")
    startup = summary.get("cli.startup")
    metrics["cli.startup_s"] = (startup["median_s"] if startup else 0.0, "s")
    first = traced[0]
    for key in COUNT_METRICS:
        metrics[key] = (first["counts"].get(key, 0) / first["ops"], "count")
    metrics["graph.csr_bytes"] = (inputs.get("csr_bytes", 0), "bytes")
    plain = end_to_end(untraced)["op_ms_p50"]
    overhead = end_to_end(traced)["op_ms_p50"] - plain
    metrics["trace.overhead_op_ms"] = (overhead, "ms")
    metrics["trace.overhead_pct"] = (100.0 * overhead / plain, "%")
    return metrics


def manifest(workload: str, seed: int, workers: list[dict]) -> dict:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or commit
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    checked = next((w for w in workers if w["inputs"]), workers[0])
    return {"commit": commit, "python": platform.python_version(),
            "numpy": checked["numpy"], "nproc": os.cpu_count(), "cpu": cpu,
            "workload": workload, "seed": seed, "params": checked["params"],
            "inputs": checked["inputs"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    workers: list[dict] = []
    measured = 0.0
    while True:
        is_traced = trace and len(workers) % 2 == 1
        workers.append(run_worker({"root": ROOT, "workload": workload, "seed": seed,
                                   "worker": len(workers), "trace": is_traced,
                                   "check": not workers}, started))
        measured += sum(t[0] for t in workers[-1]["op_s"] + workers[-1]["cli_s"])
        traced = [w for w in workers if w["trace"]]
        untraced = [w for w in workers if not w["trace"]]
        enough = (measured >= seconds and len(untraced) >= (MIN_TRACED if trace else MIN_WORKERS)
                  and len(traced) >= (MIN_TRACED if trace else 0))
        if (enough or len(workers) >= MAX_WORKERS
                or time.monotonic() - started > START_BUDGET_S):
            break

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    problems = [p for w in workers for p in w["problems"]]
    # every repetition ran the same operations on the same inputs
    for w in workers[1:]:
        attempted += 1
        if w["digests"] != workers[0]["digests"]:
            failed += 1
            problems.append(f"worker {w['worker']}: operation results differ from worker 0")
    for w in traced[1:]:
        attempted += 1
        if w["counts"] != traced[0]["counts"]:
            failed += 1
            problems.append(f"worker {w['worker']}: counts {w['counts']} differ from "
                            f"{traced[0]['counts']}")
    if not any(w["inputs"] for w in workers):
        attempted += 1
        failed += 1
        problems.append("brute-force checks did not run")

    man = manifest(workload, seed, workers)
    spans = merged_spans(traced)
    layers = layer_summary(spans)
    if trace:
        if not traced:
            raise RuntimeError("no traced repetition finished in time")
        metrics = per_layer(layers, traced, untraced, man["inputs"])
    else:
        metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(untraced).items()}
    report = {
        "manifest": man, "seconds_measured": measured, "workers": len(workers),
        "operations": sum(len(w["op_s"]) for w in untraced),
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "wall": wall_times(untraced),
        "digests": workers[0]["digests"],
        "timings": {w["worker"]: {k: w[k] for k in ("setup_s", "op_s", "cli_s", "rss_mb")}
                    for w in workers},
        "layers": layers,
        "breakdown_ms_per_op": {k: v * 1000.0 for k, v in op_breakdown(spans).items()},
        "spans": spans,
    }
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    path = os.path.join(BENCH_DIR, "out", f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print_report(report, path)
    return report


def print_report(report: dict, path: str) -> None:
    man = report["manifest"]
    print(f"# {man['workload']} seed={man['seed']}: {report['workers']} processes, "
          f"{report['operations']} untraced operations, "
          f"{report['seconds_measured']:.1f} s measured; report in {os.path.relpath(path, ROOT)}")
    print("manifest " + json.dumps({k: v for k, v in man.items() if k != "workload"}))
    for name, m in report["metrics"].items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']}")
    wall = report["wall"]
    print(f"wall times: setup_s {wall['setup_s']:.6g}, op_ms_p50 {wall['op_ms_p50']:.6g}, "
          f"op_ms_p90 {wall['op_ms_p90']:.6g}, cli_s {wall['cli_s']:.6g}; "
          f"machine slowdown {wall['slowdown']:.3f}")
    frac = report["failed"] / max(report["attempted"], 1)
    print(f"{'failed_frac':34s} {frac:14.6g} ({report['failed']} failed of "
          f"{report['attempted']} attempted)")
    if man["workload"].startswith("sweep_"):
        joined = hashlib.sha256("".join(report["digests"]).encode()).hexdigest()
        print(f"sweep CSV sha256: op0 {report['digests'][0]}, all ops {joined}")
    if report["breakdown_ms_per_op"]:
        total = sum(report["breakdown_ms_per_op"].values())
        print("self time per operation, traced:")
        for name, ms in report["breakdown_ms_per_op"].items():
            print(f"  {name:32s} {ms:10.3f} ms {100.0 * ms / total:6.1f}%")
    for problem in report["problems"][:20]:
        print("PROBLEM " + problem)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "hotspot", "__init__.py")):
        print(f"error: no hotspot package under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    try:  # keep the benchmark, its workers and their CLI calls on one core
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        results[name] = report
        if args.workload == "all":
            print(json.dumps({"workload": name, "metrics": report["metrics"]}))
    metrics = (results[names[0]]["metrics"] if len(names) == 1 else
               {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()})
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
