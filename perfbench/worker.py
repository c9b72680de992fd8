"""One repetition of a workload in a fresh interpreter.

Usage (run.py starts this; it is not meant to be run by hand):

    python3 perfbench/worker.py '<json request>'

The request names the checkout root, the workload, its seed, the worker
index, whether to trace and whether to run the brute-force checks, the
monotonic time run.py spawned the process at, and the probe (timing.py)
run.py took just before. The last line of stdout is
one JSON object with the timings, accounting, digests and (when traced)
spans and counts of this repetition.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def run_cli(root: str, args: list[str], traced: bool, workdir: str):
    """One `hotspot` CLI process: (seconds, exit code, stdout, spans)."""
    spans_path = os.path.join(workdir, "cli_spans.json")
    if os.path.exists(spans_path):
        os.remove(spans_path)
    if traced:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_traced.py"), spans_path, *args]
    else:
        cmd = [sys.executable, "-m", "hotspot.cli", *args]
    env = dict(os.environ)
    start = time.monotonic()
    env["PERFBENCH_SPAWN"] = repr(start)
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=150)
    seconds = time.monotonic() - start
    spans = []
    if traced and os.path.exists(spans_path):
        with open(spans_path, encoding="utf-8") as fh:
            spans = json.load(fh)
    return seconds, proc.returncode, proc.stdout, spans


def main(request: dict) -> dict:
    root = request["root"]
    import numpy
    import hotspot
    if os.path.dirname(os.path.abspath(hotspot.__file__)) != os.path.join(root, "src", "hotspot"):
        raise SystemExit(f"hotspot imported from {hotspot.__file__}, not from {root}/src")
    from timing import probe
    from tracing import Tracer
    from workloads import WORKLOADS, Checks

    tracer = Tracer() if request["trace"] else None
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        wl = WORKLOADS[request["workload"]](request["seed"], workdir)
        if tracer:
            tracer.install()
            setup_span = tracer.open("setup")
        wl.setup()
        wl.warm()
        setup_s = [time.monotonic() - request["spawned"], request["probe"], probe()]
        if tracer:
            tracer.close(setup_span)
            tracer.counts.clear()

        # each timing is [seconds, probe before, probe after]; see timing.py
        op_s, digests = [], []
        attempted = failed = items_done = 0
        problems = []
        for i in range(wl.ops):
            before = probe()
            span = tracer.open("op") if tracer else None
            t0 = time.perf_counter()
            try:
                result = wl.op(i)
            except Exception as exc:  # an operation failing is a result, not a crash
                result = exc
            dt = time.perf_counter() - t0
            if span:
                tracer.close(span)
            after = probe()
            if isinstance(result, Exception):
                attempted += 1
                failed += 1
                problems.append(f"op {i}: {type(result).__name__}: {result}")
                digests.append(None)
                continue
            op_s.append([dt, before, after])
            items, items_failed, digest = wl.account(i, result)
            attempted += items
            failed += items_failed
            items_done += items
            digests.append(digest)
            if items_failed:
                problems.append(f"op {i}: {items_failed} failed trial(s) in SweepRow.failures")
        counts = dict(tracer.counts) if tracer else {}

        cli_s, cli_spans = [], []
        for call in range(wl.cli_calls if digests and digests[0] is not None else 0):
            args, want_out, want_code = wl.cli(request["worker"] + call)
            before = probe()
            seconds, code, out, spans = run_cli(root, args, bool(tracer), workdir)
            cli_s.append([seconds, before, probe()])
            cli_spans.append(spans)
            attempted += 1
            if code != want_code or out != want_out:
                failed += 1
                problems.append(f"cli {args[0]}: exit {code} (want {want_code}), "
                                f"stdout {out[:200]!r} (want {want_out[:200]!r})")
        if tracer:
            tracer.uninstall()
            for spans in cli_spans:
                base = len(tracer.spans)
                tracer.spans += [[n, s, e, p + base if p >= 0 else -1] for n, s, e, p in spans]

        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        inputs = {}
        if request["check"] and None not in digests:
            checks = Checks()
            inputs = wl.check(checks, digests)
            attempted += checks.attempted
            failed += len(checks.problems)
            problems += checks.problems
        return {
            "worker": request["worker"], "trace": bool(tracer), "setup_s": setup_s,
            "op_s": op_s, "items": items_done, "cli_s": cli_s,
            "rss_mb": rss_mb,
            "attempted": attempted, "failed": failed, "problems": problems,
            "digests": digests, "counts": counts, "ops": wl.ops,
            "spans": tracer.spans if tracer else [],
            "params": wl.params(), "inputs": inputs, "numpy": numpy.__version__,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    req = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(req["root"], "src"))
    print(json.dumps(main(req)))
