"""`hotspot` CLI entry point with the benchmark's tracer installed.

Usage: python3 perfbench/cli_traced.py SPANS_JSON <hotspot arguments...>

PERFBENCH_SPAWN holds the time.monotonic() stamp at which the parent
started this process; the span from it to the end of the package import
is the CLI's start-up. Spans are written to SPANS_JSON and the exit code
is the CLI's own.
"""

import json
import os
import sys

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    startup = tracer.open("cli.startup", start=float(os.environ["PERFBENCH_SPAWN"]))
    from hotspot import cli
    tracer.close(startup)
    tracer.install()
    span = tracer.open("cli.main")
    try:
        return cli.main(argv)
    finally:
        tracer.close(span)
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
