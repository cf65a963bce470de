"""ASK modulation, time-reversal precoding filters, and power scaling.

A transmit chain is: bits -> rectangular NRZ ASK waveform -> convolution
with a unit-energy pre-filter -> rescaling to the requested mean power.
The pre-filter is either the conjugate time-reverse of the link's own
channel (time-reversal precoding) or a single unit tap (no precoding),
so power comparisons between the two are at equal transmit energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .chanmodel import Cir, _check_fields, _frozen_samples, convolve_sum, same_grid

__all__ = [
    "ModParams",
    "Waveform",
    "TrFilter",
    "make_tr_filter",
    "make_identity_filter",
    "modulate_ask",
    "precode",
    "scale_to_power",
    "dbm_to_watts",
]


def dbm_to_watts(p_dbm: float) -> float:
    """Power in watts; -inf dBm is 0 W, and a level whose watts are not finite is refused."""
    try:
        watts = 10.0 ** ((p_dbm - 30.0) / 10.0)
    except OverflowError:
        watts = math.inf
    if not math.isfinite(watts):
        raise ValueError(f"{p_dbm!r} dBm is not a finite power in watts")
    return watts


@dataclass(frozen=True)
class ModParams:
    """Amplitude-shift-keying parameters on a uniform baseband grid.

    The grid is implied: ``sample_interval`` = 1 / (bit_rate * samples_per_symbol),
    computed once on construction; it takes no part in equality, hashing or
    the repr. All processing happens in complex baseband.
    """

    bit_rate: float
    samples_per_symbol: int = 4
    level_zero: float = 0.0
    level_one: float = 1.0
    sample_interval: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_fields(self)
        if not self.bit_rate > 0.0:
            raise ValueError("bit_rate must be positive")
        if int(self.samples_per_symbol) != self.samples_per_symbol or self.samples_per_symbol < 1:
            raise ValueError(
                f"samples_per_symbol must be a positive integer, got {self.samples_per_symbol}"
            )
        object.__setattr__(self, "samples_per_symbol", int(self.samples_per_symbol))
        object.__setattr__(self, "sample_interval", 1.0 / (self.bit_rate * self.samples_per_symbol))
        if not 0.0 < self.sample_interval < math.inf:
            raise ValueError(f"bit_rate {self.bit_rate!r} gives a sample interval of {self.sample_interval!r}")
        if not 0.0 <= self.level_zero < self.level_one:
            raise ValueError("need 0 <= level_zero < level_one")
        # Power scaling keeps only level_zero / level_one; past these bounds
        # the stream's power overflows or underflows before it is scaled.
        if not 1e-100 <= self.level_one <= 1e100:
            raise ValueError(f"level_one must lie in [1e-100, 1e100], got {self.level_one!r}")


@dataclass(frozen=True)
class Waveform:
    """A sampled complex-baseband signal.

    The sample array is copied on construction and frozen, so the caller
    keeps its own array and a Waveform never changes.
    """

    samples: np.ndarray
    sample_interval: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", _frozen_samples(self.samples, self.sample_interval, "waveform"))

    @classmethod
    def _wrap(cls, samples: np.ndarray, sample_interval: float) -> "Waveform":
        """A Waveform around a 1-D complex128 array this package just made, frozen in place.

        Nothing else may hold a writeable reference to the array.
        """
        w = cls.__new__(cls)
        samples = _frozen_samples(samples, sample_interval, "waveform", copy=False)
        vars(w).update(samples=samples, sample_interval=sample_interval)
        return w


@dataclass(frozen=True)
class TrFilter(Cir):
    """Unit-energy transmit pre-filter (time-reversal or identity): a ``Cir``, spectra included."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not math.isclose(self.energy, 1.0, rel_tol=1e-9):
            raise ValueError(f"filter must have unit energy, got {self.energy!r}")


def make_tr_filter(cir: Cir) -> TrFilter:
    """Conjugate time-reversed, unit-energy copy of a channel response.

    Convolving the filter with its source channel produces a matched
    filter peak of sqrt(channel energy) at the alignment lag, which is
    what concentrates energy at the intended receiver.
    """
    if cir.energy <= 0.0:
        raise ValueError(f"degenerate channel {cir.label!r}: zero energy")
    g = np.conj(cir.samples[::-1]) / math.sqrt(cir.energy)
    return TrFilter(g, cir.sample_interval)


def make_identity_filter(cir: Cir) -> TrFilter:
    """Single unit tap on the channel's grid: the no-precoding baseline."""
    return TrFilter(np.ones(1, dtype=np.complex128), cir.sample_interval)


def modulate_ask(bits: Sequence[int] | np.ndarray, params: ModParams) -> Waveform:
    """Rectangular NRZ ASK: each bit holds its level for samples_per_symbol samples."""
    b = np.asarray(bits, dtype=np.int64).reshape(-1)
    if b.size == 0:
        raise ValueError("empty bit sequence")
    if np.any((b != 0) & (b != 1)):
        raise ValueError("bits must be 0 or 1")
    levels = np.where(b == 1, params.level_one, params.level_zero).astype(np.complex128)
    return Waveform._wrap(np.repeat(levels, params.samples_per_symbol), params.sample_interval)


def precode(waveform: Waveform, tx_filter: TrFilter) -> Waveform:
    """Full linear convolution of the waveform with the pre-filter.

    Output length is len(waveform) + len(filter) - 1. A single-sample
    operand is a plain product; else ``convolve_sum``, with the waveform as
    its one input and the filter's cached spectrum: one transform, bitwise
    ``scipy.signal.fftconvolve(waveform, filter)``, up to
    ``block_len(len(filter))`` output samples, and blocks of that length above.
    """
    if not same_grid(waveform.sample_interval, tx_filter.sample_interval):
        raise ValueError("grid mismatch between waveform and filter")
    x, g = waveform.samples, tx_filter.samples
    if x.size == 1 or g.size == 1:
        return Waveform._wrap(x * g, waveform.sample_interval)
    (out,) = convolve_sum([x], [[tx_filter]])
    return Waveform._wrap(out, waveform.sample_interval)


def scale_to_power(waveform: Waveform, p_dbm: float) -> Waveform:
    """Rescale so the mean |x|^2 over the full length hits the dBm target."""
    target = dbm_to_watts(p_dbm)
    a = np.abs(waveform.samples)  # squared in place: the one array np.abs makes
    mean = float(np.sum(np.square(a, out=a))) / a.size
    del a  # before the scaled stream is allocated
    if mean <= 0.0:
        raise ValueError("cannot scale silence")
    return Waveform._wrap(waveform.samples * math.sqrt(target / mean), waveform.sample_interval)
