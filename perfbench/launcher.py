"""Launch ``pml-mpi serve`` with the benchmark's span wrappers.

Usage: ``python perfbench/launcher.py SPANS_OUT serve CLUSTER ...``

Installs :mod:`tracing` wrappers around the program's public functions,
runs the real CLI entry point with the remaining arguments, and writes
the recorded spans to ``SPANS_OUT`` once the daemon has drained.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    out, rest = argv[0], argv[1:]
    from repro import cli

    log = tracing.SpanLog()
    tracing.install(log)
    try:
        return cli.main(rest)
    finally:
        log.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
