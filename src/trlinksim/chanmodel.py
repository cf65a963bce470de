"""Channel impulse response construction, synthesis, and characterization.

Channels between nodes of the package are modeled as tapped delay lines:
a sparse set of multipath components, each with an amplitude, a phase,
and a propagation delay, rendered onto a uniform complex-baseband sample
grid. CIRs can be synthesized as reverberant realizations with a
prescribed RMS delay spread, imported from a sampled in-band frequency
response (for example a field-solver export), or read from CSV files.
"""

from __future__ import annotations

import functools
import math
import os
import tempfile
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Cir",
    "ReverbParams",
    "synth_reverberant",
    "synth_correlated_pair",
    "import_frequency_response",
    "rms_delay_spread",
    "channel_correlation",
    "read_cir_csv",
    "write_cir_csv",
]

# Relative tolerance when deciding whether two sample intervals describe
# the same uniform grid. Grids normally come from the same arithmetic
# expression, so this only has to absorb float representation noise.
GRID_RTOL = 1e-9


def same_grid(dt_a: float, dt_b: float) -> bool:
    """Whether two sample intervals describe the same uniform grid."""
    return math.isclose(dt_a, dt_b, rel_tol=GRID_RTOL)


@functools.lru_cache(maxsize=1024)
def fast_len(n: int) -> int:
    """Smallest 11-smooth integer >= n, a length the FFT handles quickly.

    Equals ``scipy.fft.next_fast_len(n, False)``. Cached, because the
    search costs tens of microseconds and the same few lengths recur.
    """
    if n < 1:
        raise ValueError(f"transform length must be positive, got {n}")
    best = 1 << (n - 1).bit_length()
    f11 = 1
    while f11 < best:
        f7 = f11
        while f7 < best:
            f5 = f7
            while f5 < best:
                f3 = f5
                while f3 < best:
                    # Fill up with the smallest power of two that reaches n.
                    best = min(best, f3 << (-(-n // f3) - 1).bit_length())
                    f3 *= 3
                f5 *= 5
            f7 *= 7
        f11 *= 11
    return best


def block_len(taps: int) -> int:
    """Overlap-add block length for a filter of ``taps`` samples."""
    return fast_len(max(8 * taps, 4096))


def block_spectra(x: np.ndarray, m: int, step: int) -> np.ndarray:
    """Cut ``x`` into blocks of ``step`` samples and transform each at length ``m``.

    Returns one spectrum per row. Each block is zero-padded to ``m`` and
    transformed in place, so the result is the only array of its size.
    """
    full, rest = divmod(x.size, step)
    blocks = np.zeros((full + (rest > 0), m), dtype=np.complex128)
    blocks[:full, :step] = x[: full * step].reshape(full, step)
    if rest:
        blocks[full, :rest] = x[full * step :]
    return np.fft.fft(blocks, axis=-1, out=blocks)


def overlap_add(spectra: np.ndarray, step: int, n: int) -> np.ndarray:
    """Invert (blocks, m) block spectra and overlap-add them at ``step`` into ``n`` samples.

    Everything happens inside ``spectra``, which is overwritten, and the
    result is a view of its first ``n`` samples. Each block's tail (its
    last m - step samples) must fit within the next block, i.e.
    m <= 2 * step, and n <= (blocks - 1) * step + m.
    """
    y = np.fft.ifft(spectra, axis=-1, out=spectra)
    n_blocks, m = y.shape
    tail = m - step
    flat = y.reshape(-1)
    # Block b lands at b * step: its head adds onto the tail of block b - 1,
    # already in place, and its remainder moves left. Moves never reach a
    # block not yet visited.
    for b in range(1, n_blocks):
        src, dst = b * m, b * step
        flat[dst : dst + tail] += flat[src : src + tail]
        flat[dst + tail : dst + m] = flat[src + tail : src + m]
    # Adding to zeros turns a last-tail -0.0 into 0.0, as a separate
    # output buffer would.
    flat[n_blocks * step : n_blocks * step + tail] += 0.0
    return flat[:n]


def convolve_sum(inputs, filters) -> list:
    """Every output y_r = sum over s of inputs[s] * filters[s][r], full linear convolutions.

    ``filters`` holds a row of ``Cir`` per input, one per output, whose cached
    spectra are used; ``taps`` is the longest filter. Outputs of up to
    ``block_len(taps)`` samples are one block of the next fast length, longer
    ones blocks of ``block_len(taps)`` (overlap-add); either way each input is
    transformed, the blocks summed and each output inverted. Returns each
    output's first n = longest input + taps - 1 samples, a view nothing else
    holds. Inputs add in order.
    """
    taps = max(h.samples.size for row in filters for h in row)
    n = max(x.size for x in inputs) + taps - 1
    m = fast_len(n) if n <= block_len(taps) else block_len(taps)
    step = m if m >= n else m - taps + 1
    spectra = [[h.spectra(m) for h in row] for row in filters]
    outputs = range(len(filters[0]))
    blocks = [block_spectra(x, m, step) for x in inputs]

    # Each output's sum is written over an input's blocks, or over zeros
    # where no input of its index has them all. Block b of every input is
    # read before block b of any output is written, so no accumulator the
    # size of an output is needed. Each block and spectrum keeps a leading
    # axis of one, for the reason _shift_add_conv gives.
    count = max(map(len, blocks))
    sums = [
        blocks[r] if r < len(blocks) and len(blocks[r]) == count
        else np.zeros((count, m), dtype=np.complex128)
        for r in outputs
    ]
    acc = np.empty((len(outputs), 1, m), dtype=np.complex128)
    for b in range(count):
        acc[...] = 0.0
        for x, hs in zip(blocks, spectra):
            if b < len(x):
                for row, h in zip(acc, hs):
                    row += x[b : b + 1] * h
        for y, row in zip(sums, acc):
            y[b] = row[0]
    return [overlap_add(y, step, n) for y in sums]


def _shift_add_conv(pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray]:
    """Linear convolution of each pair as a sum of shifted scaled copies.

    Products are rounded before they are summed, so taps that cancel
    analytically cancel exactly, where FFT convolution and numpy's convolve
    and correlate leave ~1e-17: orthogonal channels do not interfere at all.

    Per pair, the shorter input (the second on a tie) supplies the
    coefficients. All pairs run in one pass, side by side along the last
    axis and zero-padded to the longest: ``out[k : k + n] += y[k] * x``
    with x of shape (n, P) and y of shape (k, P), each product written
    into one reused (n, P) buffer. The padding only adds signed zeros to
    sums that start at +0.0, and so are never -0.0, which leaves every sum
    as its pair alone would make it. Each coefficient row keeps a leading
    axis of one: numpy multiplies a bare (P,) row into a one-element stack
    without the fused multiply-add its other complex products use, which
    would move last bits.
    """
    if not pairs:
        return []
    spans = [(a, b) if b.size <= a.size else (b, a) for a, b in pairs]
    x = np.zeros((max(a.size for a, _ in spans), len(spans)), dtype=np.complex128)
    y = np.zeros((max(b.size for _, b in spans), len(spans)), dtype=np.complex128)
    for p, (a, b) in enumerate(spans):
        x[: a.size, p] = a
        y[: b.size, p] = b
    out = np.zeros((len(x) + len(y) - 1, len(spans)), dtype=np.complex128)
    buf = np.empty_like(x)
    for k, coeff in enumerate(y[:, np.newaxis]):
        np.multiply(coeff, x, out=buf)
        out[k : k + len(x)] += buf
    return [out[: a.size + b.size - 1, p].copy() for p, (a, b) in enumerate(spans)]


def _check_fields(params) -> None:
    """Refuse an init field of a dataclass that is not finite, or an ``int`` one of 2^63 or more.

    Every count must fit a signed 64-bit index, as the CLI's counts do.
    """
    for f in (f for f in fields(params) if f.init):
        value = getattr(params, f.name)
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an integer past the float range
            finite = False
        if f.type == "int" and (value >= 2**63 if finite else isinstance(value, int)):
            raise ValueError(f"{f.name} must be below 2^63")
        if not finite:
            raise ValueError(f"{f.name} must be finite, got {value!r}")


def _frozen_samples(samples, sample_interval: float, what: str, copy: bool = True) -> np.ndarray:
    """A read-only, non-empty 1-D complex128 copy of ``samples`` on a finite positive interval.

    Without ``copy``, a 1-D complex128 array is frozen as it is, not copied.
    """
    s = np.array(samples, dtype=np.complex128, copy=True if copy else None).reshape(-1)
    if s.size < 1:
        raise ValueError(f"{what} must contain at least one sample")
    if not (math.isfinite(sample_interval) and sample_interval > 0.0):
        raise ValueError(f"sample_interval must be positive, got {sample_interval}")
    s.flags.writeable = False
    return s


@dataclass(frozen=True)
class Cir:
    """Uniformly sampled complex-baseband channel impulse response.

    The sample array is copied on construction and frozen, so a Cir can be
    shared between scenarios without defensive copies, and so can the
    spectra it caches (``spectra``). ``energy``, the sum of |h[n]|^2 over
    the grid, is summed once on construction; it takes no part in
    equality or the repr.
    """

    samples: np.ndarray
    sample_interval: float
    label: str = ""
    energy: float = field(init=False, repr=False, compare=False)
    _spectra: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        s = _frozen_samples(self.samples, self.sample_interval, "CIR")
        if not np.all(np.isfinite(s.view(np.float64))):
            raise ValueError("CIR samples must be finite")
        with np.errstate(over="ignore"):
            energy = float(np.sum(np.abs(s) ** 2))
        if not math.isfinite(energy):
            raise ValueError("CIR energy must be finite: samples too large")
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "energy", energy)

    def spectra(self, m: int) -> np.ndarray:
        """The read-only (1, m) ``block_spectra(samples, m, m)``, computed on first use (m >= taps)."""
        if m < self.samples.size:
            raise ValueError(f"transform length {m} is shorter than the response's {self.samples.size} samples")
        if m not in self._spectra:
            spectrum = block_spectra(self.samples, m, m)
            spectrum.flags.writeable = False
            self._spectra[m] = spectrum
        return self._spectra[m]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.samples.size) * self.sample_interval


@dataclass(frozen=True)
class ReverbParams:
    """Parameters of the synthetic reverberant channel generator.

    Tap delays are drawn uniformly over [0, max_delay] and complex gains
    are circularly symmetric Gaussian with an exponentially decaying mean
    power profile exp(-delay/decay). The decay constant ``decay`` is solved
    once, when the parameters are made, so that the profile's RMS delay
    spread matches ``rms_delay_spread_target``, and so is ``num_samples``,
    the length of a draw: the grid from 0 to max_delay. Neither takes part
    in equality, hashing or the repr. The realization is rescaled so its
    energy equals ``total_energy`` exactly, which tilts the mean profile of
    many draws slightly toward the tail.
    """

    sample_interval: float
    num_taps: int
    rms_delay_spread_target: float
    max_delay: float
    total_energy: float = 1.0
    decay: float = field(init=False, repr=False, compare=False)
    num_samples: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_fields(self)
        if not self.sample_interval > 0.0:
            raise ValueError("sample_interval must be positive")
        if int(self.num_taps) != self.num_taps or self.num_taps < 1:
            raise ValueError(f"num_taps must be a positive integer, got {self.num_taps}")
        object.__setattr__(self, "num_taps", int(self.num_taps))
        if not self.max_delay > 0.0:
            raise ValueError("max_delay must be positive")
        if not self.max_delay / self.sample_interval < 2**63:
            raise ValueError(
                f"max_delay / sample_interval must be below 2^63 samples, got "
                f"{self.max_delay / self.sample_interval:g}"
            )
        object.__setattr__(self, "num_samples", int(np.rint(self.max_delay / self.sample_interval)) + 1)
        if not self.total_energy > 0.0:
            raise ValueError("total_energy must be positive")
        if not 0.0 < self.rms_delay_spread_target < self.max_delay:
            raise ValueError("rms_delay_spread_target must lie in (0, max_delay)")
        # The profile family cannot exceed the spread of its flat limit.
        ceiling = self.max_delay * math.sqrt(1.0 / 3.0 - 1.0 / 4.0)
        if not self.rms_delay_spread_target < ceiling:
            raise ValueError(
                "rms_delay_spread_target unreachable: must be below "
                f"{ceiling:.6e} s for max_delay={self.max_delay:.6e} s"
            )
        # Refuses a target whose decay constant underflows.
        object.__setattr__(self, "decay", _solve_decay_constant(self))


def _truncated_exp_moments(decay: float, t_max: float) -> tuple[float, float]:
    """First two moments of an exponential delay density truncated to [0, t_max]."""
    x = t_max / decay
    if x > 50.0:
        # Truncation is immaterial this far into the tail.
        return decay, 2.0 * decay * decay
    if x < 0.02:
        # Series around the flat limit; the direct formula cancels badly here.
        m1 = t_max * (0.5 - x / 12.0 + x**3 / 720.0)
        m2 = t_max * t_max * (1.0 / 3.0 - x / 12.0 + x * x / 360.0)
        return m1, m2
    r = 1.0 / math.expm1(x)
    m1 = decay - t_max * r
    m2 = 2.0 * decay * decay - (t_max * t_max + 2.0 * decay * t_max) * r
    return m1, m2


def _ensemble_delay_spread(decay: float, params: ReverbParams) -> float:
    """Ensemble RMS delay spread of the generator's power-delay profile."""
    m1, m2 = _truncated_exp_moments(decay, params.max_delay)
    return math.sqrt(max(m2 - m1 * m1, 0.0))


def _solve_decay_constant(params: ReverbParams) -> float:
    """Decay constant whose ensemble RMS delay spread matches the target."""
    target = params.rms_delay_spread_target
    lo = target / 100.0
    hi = 1e9 * params.max_delay
    # Log-scale bisection; the spread grows monotonically with the decay
    # constant between the two bracket ends.
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if mid == 0.0:
            raise ValueError(f"rms_delay_spread_target {target:g} s is too small: its decay constant underflows to 0")
        if _ensemble_delay_spread(mid, params) < target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def _synth_reverberant(rng: np.random.Generator, params: ReverbParams, label: str) -> Cir:
    decay = params.decay
    delays = rng.uniform(0.0, params.max_delay, params.num_taps)
    profile = np.exp(-delays / decay)
    gains = np.sqrt(profile / 2.0) * (
        rng.standard_normal(params.num_taps) + 1j * rng.standard_normal(params.num_taps)
    )
    dt = params.sample_interval
    h = np.zeros(params.num_samples, dtype=np.complex128)
    np.add.at(h, np.rint(delays / dt).astype(np.intp), gains)
    energy = float(np.sum(np.abs(h) ** 2))
    scale = math.sqrt(params.total_energy / energy) if energy > 0.0 else math.inf
    if math.isinf(scale):
        raise ValueError(
            f"degenerate channel {label!r}: every drawn tap's power exp(-delay / decay) underflows, "
            f"to an energy of {energy:g} (decay {decay:.3g} s, delays up to {params.max_delay:.3g} s)"
        )
    h *= scale
    return Cir(h, dt, label)


def synth_reverberant(seed: int, params: ReverbParams, label: str = "") -> Cir:
    """Draw one reverberant channel realization.

    The result is a pure function of (seed, params): the same inputs
    reproduce the same samples bit for bit.
    """
    return _synth_reverberant(np.random.default_rng(seed), params, label)


def synth_correlated_pair(
    seed: int,
    params: ReverbParams,
    rho_target: float,
) -> tuple[Cir, Cir]:
    """Draw two reverberant channels with a prescribed correlation.

    The second channel is a mix rho*h1 + sqrt(1-rho^2)*h_indep whose
    mixing weight is bisected until channel_correlation(h1, h2) lands
    within 0.02 of ``rho_target``. Independent draws of this generator
    are never exactly uncorrelated, so targets below that floor return
    the plain independent pair. Both outputs carry ``total_energy``; they
    are labelled ``corr-a`` and ``corr-b``.
    """
    if not 0.0 <= rho_target <= 1.0:
        raise ValueError(f"rho_target must lie in [0, 1], got {rho_target}")
    child_a, child_b = np.random.SeedSequence(seed).spawn(2)
    base = _synth_reverberant(np.random.default_rng(child_a), params, "corr-a")
    indep = _synth_reverberant(np.random.default_rng(child_b), params, "corr-b")

    def mix(rho: float) -> Cir:
        m = rho * base.samples + math.sqrt(max(1.0 - rho * rho, 0.0)) * indep.samples
        energy = float(np.sum(np.abs(m) ** 2))
        return Cir(m * math.sqrt(params.total_energy / energy), params.sample_interval, "corr-b")

    if rho_target >= 1.0 - 1e-12:
        return base, mix(1.0)
    if rho_target <= channel_correlation(base, mix(0.0)):
        return base, mix(0.0)

    lo, hi = 0.0, 1.0
    for _ in range(64):
        rho = 0.5 * (lo + hi)
        second = mix(rho)
        measured = channel_correlation(base, second)
        if abs(measured - rho_target) <= 0.02:
            return base, second
        if measured < rho_target:
            lo = rho
        else:
            hi = rho
    raise ValueError("correlation unreachable")


def rms_delay_spread(cir: Cir) -> float:
    """Power-weighted standard deviation of the delay profile, in seconds."""
    if cir.energy <= 0.0:
        raise ValueError("CIR has zero energy")
    p = np.abs(cir.samples) ** 2
    t = cir.times
    mean = float((p * t).sum()) / cir.energy
    return math.sqrt(float((p * (t - mean) ** 2).sum()) / cir.energy)


def channel_correlation(h1: Cir, h2: Cir) -> float:
    """Peak |cross-correlation| normalized by the geometric mean energy.

    Uses the conjugate (matched-filter) convention, so a delayed and
    phase-rotated copy of a channel correlates to exactly 1: h1 convolved
    with h2 conjugated and reversed.
    """
    if not same_grid(h1.sample_interval, h2.sample_interval):
        raise ValueError("grid mismatch between the two CIRs")
    e1, e2 = h1.energy, h2.energy
    if e1 <= 0.0 or e2 <= 0.0:
        raise ValueError("CIR has zero energy")
    (cc,) = _shift_add_conv([(h1.samples, np.conj(h2.samples[::-1]))])
    return float(np.max(np.abs(cc)) / math.sqrt(e1 * e2))


def _uniform_grid(rows: np.ndarray, where: str, name: str) -> tuple[float, np.ndarray]:
    """The step of the ``name`` axis of (axis, real, imag) rows, and their complex samples.

    The grid rule: at least two rows, on an axis strictly increasing and
    uniform within 1e-6. Both parts are set directly, so signed zeros survive.
    """
    if len(rows) < 2:
        raise ValueError(f"{where}insufficient data: need at least two {name} samples")
    steps = np.diff(rows[:, 0])
    if np.any(steps <= 0.0):
        raise ValueError(f"{where}irregular grid: {name} samples must be strictly increasing")
    step = float(np.mean(steps))
    if float(np.max(np.abs(steps - step))) > 1e-6 * step:
        raise ValueError(f"{where}irregular grid: {name} spacing is not uniform")
    samples = np.empty(len(rows), dtype=np.complex128)
    samples.real, samples.imag = rows[:, 1], rows[:, 2]
    return step, samples


def import_frequency_response(records: Sequence[tuple[float, float, float]], label: str = "") -> Cir:
    """Build a CIR from a uniformly sampled complex frequency response.

    ``records`` holds (frequency_hz, real, imag) rows with strictly
    increasing, uniformly spaced frequencies (within 1e-6 relative); their
    inverse DFT is the CIR. The returned grid has
    sample_interval = 1 / (N * spacing).
    """
    rows = np.array([(float(r[0]), float(r[1]), float(r[2])) for r in records]).reshape(-1, 3)
    step, resp = _uniform_grid(rows, "", "frequency")
    return Cir(np.fft.ifft(resp), 1.0 / (len(rows) * step), label)


def _bad_line(lines: Iterable[str], what: str) -> ValueError:
    """The refusal of the first data line that is not three finite numbers."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        fields = line.split(",")
        if len(fields) != 3:
            return ValueError(f"{what}: line {lineno}: expected 3 comma-separated fields")
        try:
            if not all(map(math.isfinite, [float(f) for f in fields])):
                return ValueError(f"{what}: line {lineno}: times and samples must be finite")
        except ValueError:
            return ValueError(f"{what}: line {lineno}: fields must be numbers")
    raise AssertionError(f"{what}: no bad line")


def read_cir_csv(path: str | Path, label: str | None = None) -> Cir:
    """Read a ``time_s,real,imag`` CIR file written by :func:`write_cir_csv`.

    Stripped lines that are blank or start with '#' are skipped. One numpy
    call reads every field of the others as Python's ``float`` does (so
    ``1_000`` and padded fields are numbers); only when it refuses the
    file are the lines scanned again, to name the first bad one. A UTF-8
    byte-order mark in front of the first line is dropped. A CIR starts at
    time 0 (within 1e-6 of a step): a later start would be a delay that
    the samples do not carry, so it is refused.
    """
    lines = Path(path).read_text(encoding="utf-8-sig").split("\n")
    data = [line for raw in lines if (line := raw.strip()) and line[0] != "#"]
    # Joined with a '#' field between lines, every line has three fields
    # exactly when each fourth field is that '#', which never converts.
    fields = ",#,".join(data).split(",") if data else []
    rows = None
    if fields[3::4] == ["#"] * (len(data) - 1):
        del fields[3::4]
        try:
            rows = np.array(fields, dtype=np.float64).reshape(len(data), 3)
        except ValueError:
            pass
    if rows is None or not np.isfinite(rows).all():
        raise _bad_line(lines, str(path))
    dt, samples = _uniform_grid(rows, f"{path}: ", "time")
    if abs(rows[0, 0]) > 1e-6 * dt:
        first = next(i for i, raw in enumerate(lines, start=1) if (line := raw.strip()) and line[0] != "#")
        raise ValueError(f"{path}: line {first}: the first time must be 0, got {float(rows[0, 0])!r} s")
    return Cir(samples, dt, Path(path).stem if label is None else label)


def _atomic_write(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file in the same directory.

    Readers see the old file or the whole new one, never a partial write.
    Missing parent directories are created.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str | Path, header: str, rows: Iterable[Sequence[str]]) -> None:
    """Write ``header`` and one comma-joined line per row, each ending in a newline, atomically."""
    _atomic_write(path, "\n".join([header, *(",".join(row) for row in rows)]) + "\n")


def write_cir_csv(cir: Cir, path: str | Path) -> None:
    """Write a CIR as ``time_s,real,imag`` rows (full float precision), atomically.

    The first line is the comment ``# cir LABEL sample_interval_s=DT``.
    """
    rows = ([f"{t:.17g}", f"{v.real:.17g}", f"{v.imag:.17g}"] for t, v in zip(cir.times, cir.samples))
    _write_csv(path, f"# cir {cir.label} sample_interval_s={cir.sample_interval:.17g}", rows)
