"""Regenerate the stored reference CSVs at the reference seed.

Run from the repository root after a change that alters the numbers on
purpose, and record the old and new values in CHANGES.md:

    python3 bench/make_reference.py
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

from check import REFERENCE_DIR, REFERENCE_SEED  # noqa: E402
from trlinksim import cli  # noqa: E402
from workloads import WORKLOADS, cli_args, write_inputs  # noqa: E402


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        with tempfile.TemporaryDirectory() as tmp:
            config = write_inputs(workload, REFERENCE_SEED, Path(tmp) / "inputs")
            out_dir = Path(tmp) / "out"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(cli_args(workload, config, out_dir))
            if code != 0:
                print(f"error: {workload.name} exited with {code}", file=sys.stderr)
                return 1
            target = REFERENCE_DIR / f"{workload.name}.csv"
            target.write_bytes((out_dir / workload.csv_name).read_bytes())
            print(target)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
