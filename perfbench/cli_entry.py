"""Run one ``tcaseries`` CLI request in a fresh process.

    python3 perfbench/cli_entry.py ARGV...     same as ``tcaseries ARGV...``
    python3 perfbench/cli_entry.py --probe     import the CLI, print "ready", exit

With the environment variable PERFBENCH_TRACE set to a file name, the library
is traced (see tracing.py) and the spans are written to that file as JSON when
the request ends, whether or not it raised.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tcaseries.cli import main as cli_main  # noqa: E402


def run(argv: list[str]) -> int:
    trace_path = os.environ.get("PERFBENCH_TRACE")
    if not trace_path:
        return cli_main(argv)
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    root = tracer.open("cli")
    try:
        return cli_main(argv)
    finally:
        tracer.close(root)
        with open(trace_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    if sys.argv[1:] == ["--probe"]:
        print("ready", flush=True)
        sys.exit(0)
    sys.exit(run(sys.argv[1:]))
