"""Thin cold-process runner: the equivalent of ``python -m trlinksim.cli``.

Usage: python3 child.py TIMING_FILE CLI_ARGS...

Writes "<main_start_ns> <main_end_ns> <exit_code>" (CLOCK_MONOTONIC,
shared with the parent) to TIMING_FILE after ``cli.main`` returns, so
the parent can split its spawn-to-exit wall time into set-up and run.
"""

import sys
import time

from trlinksim import cli


def main() -> int:
    start = time.monotonic_ns()
    code = cli.main(sys.argv[2:])
    end = time.monotonic_ns()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        fh.write(f"{start} {end} {code}\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
