"""Pilot-trained threshold detection and bit error accounting."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "train_threshold",
    "demodulate",
    "count_errors",
    "wilson_interval",
]

# Two-sided 95% normal quantile used by the Wilson score interval.
Z_95 = 1.959963984540054


def wilson_interval(errors: int, total: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    if total < 1:
        raise ValueError("total must be at least 1")
    if not 0 <= errors <= total:
        raise ValueError("errors must lie in [0, total]")
    p = errors / total
    z2 = Z_95 * Z_95
    denom = 1.0 + z2 / total
    center = (p + z2 / (2.0 * total)) / denom
    half = Z_95 * math.sqrt(p * (1.0 - p) / total + z2 / (4.0 * total * total)) / denom
    # The bound is exactly 0 (or 1) at the degenerate counts; rounding in
    # center-half would otherwise leave a ~1e-18 residue that excludes p=0.
    lo = 0.0 if errors == 0 else max(center - half, 0.0)
    hi = 1.0 if errors == total else min(center + half, 1.0)
    return (lo, hi)


def train_threshold(decisions: np.ndarray, pilot: Sequence[int] | np.ndarray) -> float:
    """Midpoint of the two classes' mean decision values over the pilot.

    ``decisions`` holds one real, phase-derotated decision value per pilot
    bit.
    """
    pilot = np.asarray(pilot, dtype=np.int64).reshape(-1)
    if pilot.size == 0 or not (np.any(pilot == 0) and np.any(pilot == 1)):
        raise ValueError("pilot lacks both symbols")
    if decisions.shape != pilot.shape:
        raise ValueError(
            f"need one decision value per pilot bit, got {decisions.size} for {pilot.size}"
        )
    return float(0.5 * (decisions[pilot == 0].mean() + decisions[pilot == 1].mean()))


def demodulate(decisions: np.ndarray, threshold: float) -> np.ndarray:
    """Slice real decision values, one per bit, at ``threshold``."""
    return (decisions > threshold).astype(np.int64)


def count_errors(tx_bits: Sequence[int] | np.ndarray, rx_bits: Sequence[int] | np.ndarray) -> int:
    tx = np.asarray(tx_bits).reshape(-1)
    rx = np.asarray(rx_bits).reshape(-1)
    if tx.size != rx.size:
        raise ValueError("length mismatch between transmitted and received bits")
    if tx.size == 0:
        raise ValueError("empty bit sequence")
    return int(np.count_nonzero(tx != rx))
