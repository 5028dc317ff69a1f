"""One round: a fresh interpreter that runs one `quantbess` command.

    python3 benchmark/child.py ROOT RESULT_JSON [TRACE_DIR] -- ARGV...

It imports `quantbess.cli` from ROOT/src, then times `cli.main(ARGV)`, the
same call the `quantbess` entry point makes.  It writes the exit code, the
wall time of the call, the process's peak resident memory (VmHWM) and the
command's standard output to RESULT_JSON.  With TRACE_DIR, the tracer in
`tracer.py` wraps the program's modules first and writes its spans, counters
and sampled fits there.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv) -> int:
    sep = argv.index("--")
    root, result_path, *trace_dir = argv[:sep]
    command = argv[sep + 1:]
    sys.path.insert(0, os.path.join(root, "src"))
    from quantbess import cli

    tracer = None
    if trace_dir:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        try:
            code = cli.main(command)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
        run_s = time.perf_counter() - start
    result = {"exit_code": code, "run_s": run_s, "peak_rss_kb": peak_rss_kb(),
              "stdout": out.getvalue()}
    if tracer is not None:
        tracer.uninstall()
        tracer.write(trace_dir[0])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
