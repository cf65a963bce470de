"""Output checker for the sweep CSVs the benchmark's workloads write.

``check_sweep_csv`` returns a list of problems; an empty list means the
file is consistent with the workload that produced it. At the reference
seed the benchmark also compares the bytes with ``reference/<name>.csv``.
"""

from __future__ import annotations

import math
from pathlib import Path

from workloads import Workload

SWEEP_HEADER = (
    "variable,value,link,sinr_db,signal_w,isi_w,cochannel_w,noise_w,"
    "ber,ber_ci_lo,ber_ci_hi,bits,errors"
)
REFERENCE_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

SINR_TOL_DB = 1e-6
# Floats are written at 9 significant digits.
_REL_TOL = 1e-8


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _REL_TOL * max(abs(a), abs(b), 1e-300)


def check_sweep_csv(text: str, workload: Workload) -> list[str]:
    """Problems found in one sweep CSV written by ``workload``."""
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return [f"bad header: {lines[0] if lines else ''!r}"]
    rows = lines[1:]
    problems = []
    if len(rows) != workload.expected_rows:
        problems.append(f"expected {workload.expected_rows} rows, got {len(rows)}")
    want_bits = workload.n_bits * workload.n_trials
    for i, line in enumerate(rows, start=2):
        fields = line.split(",")
        if len(fields) != 13:
            problems.append(f"line {i}: expected 13 fields, got {len(fields)}")
            continue
        try:
            signal_w, isi_w, cochannel_w, noise_w, ber, lo, hi = map(float, fields[4:11])
            sinr_db = float(fields[3])
            bits, errors = int(fields[11]), int(fields[12])
        except ValueError:
            problems.append(f"line {i}: non-numeric field")
            continue
        if fields[2] not in workload.links:
            problems.append(f"line {i}: unknown link {fields[2]!r}")
        if bits != want_bits:
            problems.append(f"line {i}: bits {bits} != n_bits * trials = {want_bits}")
        if not 0 <= errors <= bits or bits <= 0:
            problems.append(f"line {i}: errors {errors} out of range for {bits} bits")
            continue
        if not _close(ber, errors / bits):
            problems.append(f"line {i}: ber {ber!r} != errors/bits = {errors / bits!r}")
        if not (lo <= ber or _close(lo, ber)) or not (ber <= hi or _close(ber, hi)):
            problems.append(f"line {i}: Wilson interval [{lo!r}, {hi!r}] misses ber {ber!r}")
        denom = isi_w + cochannel_w + noise_w
        if signal_w <= 0.0 or denom <= 0.0:
            problems.append(f"line {i}: degenerate powers")
            continue
        recomputed = 10.0 * math.log10(signal_w / denom)
        if abs(recomputed - sinr_db) > SINR_TOL_DB:
            problems.append(f"line {i}: sinr_db {sinr_db!r} != {recomputed!r} from the watt columns")
    return problems


def reference_path(workload: Workload) -> Path:
    return REFERENCE_DIR / f"{workload.name}.csv"


def check_output(path: Path, workload: Workload, seed: int) -> list[str]:
    """Check a CSV file, and its bytes against the stored reference at the reference seed."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        return [f"cannot read output: {exc}"]
    problems = check_sweep_csv(data.decode("utf-8", errors="replace"), workload)
    if seed == REFERENCE_SEED and data != reference_path(workload).read_bytes():
        problems.append(f"{path.name} differs from {reference_path(workload)}")
    return problems
