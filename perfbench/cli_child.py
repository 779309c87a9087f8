"""Run one ``majorant`` command with the tracer installed.

Usage: ``python3 cli_child.py RECORD.json <majorant arguments>``.  The
command's stdout, stderr, files and exit code are those of
``python3 -m majorant.cli``; the spans, counts, and the clock readings
at interpreter entry and around the package import go to RECORD.json.
Readings are ``time.monotonic_ns``, one clock for all processes, so the
parent can place them against the moment it launched this process.
"""

import time

ENTERED_NS = time.monotonic_ns()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    record, argv = sys.argv[1], sys.argv[2:]
    import_start = time.monotonic_ns()
    import majorant.cli

    import_end = time.monotonic_ns()
    import tracer

    recorder = tracer.Tracer()
    tracer.install(recorder)
    try:
        return majorant.cli.main(argv)
    finally:
        with open(record, "w") as fh:
            json.dump(
                {
                    "entered_ns": ENTERED_NS,
                    "import_ns": [import_start, import_end],
                    "spans": recorder.spans,
                    "counts": dict(recorder.counts),
                },
                fh,
            )


if __name__ == "__main__":
    sys.exit(main())
