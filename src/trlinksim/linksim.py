"""Superposition of simultaneous streams, receiver noise, and deterministic SINR.

A scenario couples a channel matrix, the simultaneous links,
a noise model, and the shared modulation grid. Propagation convolves
every transmitted stream with its channel toward each receiver and
superposes the results; the deterministic SINR path never draws bits or
noise and instead reasons about the symbol-spaced taps each stream
delivers at each receiver.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .chanmodel import Cir, _shift_add_conv, convolve_sum, same_grid
from .sigchain import (
    ModParams,
    TrFilter,
    Waveform,
    dbm_to_watts,
    make_identity_filter,
    make_tr_filter,
)

__all__ = [
    "BOLTZMANN_J_PER_K",
    "NoiseSpec",
    "LinkSpec",
    "Scenario",
    "ResponseTable",
    "SinrReport",
    "link_filter",
    "propagate",
    "full_rate_response",
    "effective_response",
    "compute_sinr",
    "sinr_from_powers",
]

BOLTZMANN_J_PER_K = 1.380649e-23

_PRECODINGS = ("tr", "none")


@dataclass(frozen=True)
class NoiseSpec:
    """Receiver noise: a power in watts per sample.

    ``thermal`` computes it as k*T*B and ``explicit`` from a dBm level.
    An explicit level of -inf dBm (``off``) is 0 W, which turns noise off
    entirely and makes propagation exactly equal to the noiseless
    superposition.
    """

    watts: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.watts < math.inf:
            raise ValueError(f"noise power must be finite and non-negative, got {self.watts!r} W")

    @classmethod
    def thermal(cls, temperature_k: float, bandwidth_hz: float) -> "NoiseSpec":
        if not temperature_k > 0.0:
            raise ValueError("thermal noise needs a positive temperature")
        if not bandwidth_hz > 0.0:
            raise ValueError("thermal noise needs a positive bandwidth")
        if not math.isfinite(temperature_k * bandwidth_hz):
            raise ValueError("thermal noise needs a finite temperature and bandwidth")
        return cls(BOLTZMANN_J_PER_K * temperature_k * bandwidth_hz)

    @classmethod
    def explicit(cls, power_dbm: float) -> "NoiseSpec":
        if math.isnan(power_dbm):
            raise ValueError("explicit noise needs a power level in dBm")
        return cls(dbm_to_watts(power_dbm))  # refuses a level whose watts overflow

    @classmethod
    def off(cls) -> "NoiseSpec":
        return cls.explicit(float("-inf"))


@dataclass(frozen=True)
class LinkSpec:
    """One directed stream between two nodes.

    ``tx_power_w``, its power in watts, is converted once on construction.
    """

    tx_node: str
    rx_node: str
    precoding: str = "tr"
    tx_power_dbm: float = 0.0
    tx_power_w: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.tx_node == self.rx_node:
            raise ValueError(f"link {self.stream_id!r}: tx and rx must differ")
        if self.precoding not in _PRECODINGS:
            raise ValueError(f"precoding must be one of {_PRECODINGS}, got {self.precoding!r}")
        if not math.isfinite(self.tx_power_dbm):
            raise ValueError("tx_power_dbm must be finite")
        object.__setattr__(self, "tx_power_w", dbm_to_watts(self.tx_power_dbm))  # refuses an overflow

    @property
    def stream_id(self) -> str:
        """The stream's name, ``"tx->rx"``; a scenario has one link per (tx, rx)."""
        return f"{self.tx_node}->{self.rx_node}"


@dataclass(frozen=True)
class Scenario:
    """Immutable description of one simultaneous-transmission setup.

    Every transmitter must have a channel to every receiver appearing in
    the scenario, on the modulation grid; the scenario keeps those
    channels and drops any others it is given.
    The links' responses, which depend on the channels but not on any
    power, are computed once per scenario on first use (``responses``),
    and so are their SINR reports (``sinr``).
    """

    channels: Mapping[tuple[str, str], Cir]
    links: tuple[LinkSpec, ...]
    noise: NoiseSpec
    mod_params: ModParams

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", tuple(self.links))
        if not self.links:
            raise ValueError("scenario needs at least one link")
        ids = [link.stream_id for link in self.links]
        if len(set(ids)) != len(ids):
            raise ValueError("stream ids must be unique: one link per (tx, rx)")
        needed = [(link.tx_node, rx) for link in self.links for rx in self.receivers]
        for tx, rx in needed:
            if (tx, rx) not in self.channels:
                raise ValueError(f"missing channel {tx}->{rx}")
        object.__setattr__(self, "channels", {pair: self.channels[pair] for pair in needed})
        dt = self.mod_params.sample_interval
        for (tx, rx), cir in self.channels.items():
            if not same_grid(cir.sample_interval, dt):
                raise ValueError(
                    f"grid mismatch: channel {tx}->{rx} has sample_interval "
                    f"{cir.sample_interval!r}, modulation grid is {dt!r}"
                )

    @cached_property
    def receivers(self) -> tuple[str, ...]:
        return tuple(sorted({link.rx_node for link in self.links}))

    @cached_property
    def ordered_links(self) -> tuple[LinkSpec, ...]:
        """The links in stream-id order: the one order trials seed and propagation sums streams in."""
        return tuple(sorted(self.links, key=lambda l: l.stream_id))

    def link_for_stream(self, stream_id: str) -> LinkSpec:
        for link in self.links:
            if link.stream_id == stream_id:
                return link
        raise ValueError(f"link not found: {stream_id!r}")

    @cached_property
    def responses(self) -> "ResponseTable":
        """The power-free response table of every link, built on first use."""
        return ResponseTable.build(self)

    @cached_property
    def sinr(self) -> Mapping[str, "SinrReport"]:
        """Every link's ``compute_sinr`` report by stream id, computed on first use."""
        return MappingProxyType({link.stream_id: compute_sinr(self, link) for link in self.links})

    def with_powers(self, powers_dbm: Mapping[str, float]) -> "Scenario":
        """The same scenario with new transmit powers, keyed by stream id.

        Streams left out keep their power. The response table does not
        depend on power, so the new scenario shares this one's; its SINR
        reports are its own.
        """
        for stream_id in powers_dbm:
            self.link_for_stream(stream_id)  # rejects unknown stream ids
        links = tuple(
            dataclasses.replace(link, tx_power_dbm=powers_dbm[link.stream_id])
            if link.stream_id in powers_dbm
            else link
            for link in self.links
        )
        repowered = dataclasses.replace(self, links=links)
        vars(repowered)["responses"] = self.responses
        return repowered


def link_filter(scenario: Scenario, link: LinkSpec) -> TrFilter:
    """The pre-filter a link transmits through (TR of its own channel, or identity)."""
    cir = scenario.channels[(link.tx_node, link.rx_node)]
    if link.precoding == "tr":
        return make_tr_filter(cir)
    return make_identity_filter(cir)


def propagate(
    scenario: Scenario,
    streams: Mapping[str, Waveform],
    seed: int,
) -> dict[str, Waveform]:
    """Superpose every stream through the channel matrix and add noise.

    Returns one received waveform per receiver, keyed by node. Streams
    are assumed time-aligned at sample zero; shorter contributions are
    zero-padded. Noise is i.i.d. circularly symmetric complex Gaussian
    with per-sample power ``scenario.noise.watts``, i.e. variance N/2
    per real dimension, drawn from a sub-seed derived from
    (seed, receiver index) so the result does not depend on evaluation
    order; streams are summed in stream-id order, so it does not depend on
    the order of the links either.
    ``streams`` may cover a subset of the scenario's links.
    """
    if not streams:
        raise ValueError("no streams to propagate")
    if int(seed) != seed or seed < 0:
        raise ValueError("seed must be a non-negative integer")
    dt = scenario.mod_params.sample_interval
    for stream_id, waveform in streams.items():
        scenario.link_for_stream(stream_id)  # rejects unknown stream ids
        if not same_grid(waveform.sample_interval, dt):
            raise ValueError(f"grid mismatch: stream {stream_id!r} is off the modulation grid")
    present = [link for link in scenario.ordered_links if link.stream_id in streams]
    rows = [[scenario.channels[(l.tx_node, rx)] for rx in scenario.receivers] for l in present]
    sums = convolve_sum([streams[link.stream_id].samples for link in present], rows)
    received = {}
    for i, (rx, y) in enumerate(zip(scenario.receivers, sums)):
        # A receiver's own length: its longest stream plus channel, less one.
        n = max(streams[l.stream_id].samples.size + hs[i].samples.size for l, hs in zip(present, rows))
        y = y[: n - 1]
        _add_noise(y, scenario.noise.watts, seed, i)
        received[rx] = Waveform._wrap(y, dt)
    return received


# Receiver noise is drawn in chunks of this many samples.
NOISE_CHUNK = 1 << 16


def _add_noise(y: np.ndarray, n_watts: float, seed: int, rx_index: int) -> None:
    """Add receiver noise of ``n_watts`` per sample to ``y`` in place; none at 0 W.

    The draws come from a sub-seed of (seed, receiver index): real parts,
    then imaginary parts, in chunks of at most ``NOISE_CHUNK`` samples
    through one scratch buffer. That is bit for bit y + sqrt(N/2) * (a + 1j * b)
    with a and b drawn whole, without stream-sized temporaries.
    """
    if not n_watts > 0.0:
        return
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), rx_index)))
    scale = math.sqrt(n_watts / 2.0)
    draw = np.empty(min(y.size, NOISE_CHUNK))
    for part in (y.real, y.imag):
        for start in range(0, y.size, NOISE_CHUNK):
            chunk = draw[: y.size - start]
            rng.standard_normal(out=chunk)
            chunk *= scale
            part[start : start + chunk.size] += chunk


def _full_rate_responses(
    pairs: Sequence[tuple[TrFilter, Cir]], params: ModParams
) -> list[np.ndarray]:
    """``full_rate_response`` of every (filter, channel) pair, in two stacked passes."""
    dt = params.sample_interval
    for tx_filter, channel in pairs:
        if not (
            same_grid(tx_filter.sample_interval, dt) and same_grid(channel.sample_interval, dt)
        ):
            raise ValueError("grid mismatch between filter, channel, and modulation grid")
    pulse = np.ones(params.samples_per_symbol, dtype=np.complex128)
    shaped = _shift_add_conv([(channel.samples, tx_filter.samples) for tx_filter, channel in pairs])
    return _shift_add_conv([(r, pulse) for r in shaped])


def full_rate_response(tx_filter: TrFilter, channel: Cir, params: ModParams) -> np.ndarray:
    """Full-rate pulse response: channel * filter * rect(samples_per_symbol)."""
    return _full_rate_responses([(tx_filter, channel)], params)[0]


def _decision_taps(r: np.ndarray, offset: int, sps: int) -> np.ndarray:
    """A read-only copy of the full-rate response ``r`` on the symbol phase of ``offset``."""
    taps = r[offset % sps :: sps].copy()
    taps.flags.writeable = False
    return taps


def effective_response(tx_filter: TrFilter, channel: Cir, params: ModParams) -> tuple[int, np.ndarray]:
    """The strongest instant of a link's full-rate response, and its symbol-spaced taps.

    Returns ``(decision_offset, taps)``: the offset in samples of the
    response's largest magnitude, and the response sampled every
    samples_per_symbol samples through it, read-only. The decision tap
    p[0] is ``taps[decision_offset // samples_per_symbol]``.

    A TR link's own response ties: |r[j]| = |r[L - j]|, L = r.size - 1, so at
    even samples per symbol its peak lies on two symbol phases, and argmax
    picks one by rounding (1e-16 relative) or, on an exact tie, the first.
    The phases' SINRs differ by tenths of a dB, so reordering the sums that
    make r can move a link's SINR that much.
    """
    r = full_rate_response(tx_filter, channel, params)
    offset = int(np.argmax(np.abs(r)))
    return offset, _decision_taps(r, offset, params.samples_per_symbol)


@dataclass(frozen=True)
class ResponseTable:
    """What a scenario's links need from the channels, at unit power.

    ``filters`` maps each stream to the pre-filter it transmits through,
    and ``offsets`` each stream to its decision offset in samples: the
    strongest instant of its own full-rate response. ``taps`` maps each
    (victim, stream) pair, the own pair (v, v) included, to a read-only
    complex array: the stream's full-rate response filter * channel *
    symbol pulse at the victim's receiver, sampled on the victim's
    decision phase (``r[offset % sps :: sps]``). ``peaks`` maps each
    victim to its decision tap, ``taps[(v, v)][offsets[v] // sps]``, and
    ``energies`` each pair to the energy of its taps outside that tap:
    the ISI of the own pair, the co-channel energy of any other. Each is
    summed once, here; every SINR component is a link power times one of
    them, so the table serves every power setting.

    The table holds responses only: propagation takes each channel's
    spectra from the channel itself (``Cir.spectra``).
    """

    filters: Mapping[str, TrFilter]
    offsets: Mapping[str, int]
    taps: Mapping[tuple[str, str], np.ndarray]
    peaks: Mapping[str, complex]
    energies: Mapping[tuple[str, str], float]

    @classmethod
    def build(cls, scenario: Scenario) -> "ResponseTable":
        """Compute one response per link and per (victim, interferer) pair."""
        mod = scenario.mod_params
        filters = {link.stream_id: link_filter(scenario, link) for link in scenario.links}
        offsets, taps = {}, {}
        for link in scenario.links:
            sid = link.stream_id
            offsets[sid], taps[(sid, sid)] = effective_response(
                filters[sid], scenario.channels[(link.tx_node, link.rx_node)], mod
            )
        # Every (victim, interferer) response in one stacked pass.
        crossings = [
            (victim, other)
            for victim in scenario.links
            for other in scenario.links
            if other.stream_id != victim.stream_id
        ]
        cross = _full_rate_responses(
            [
                (filters[other.stream_id], scenario.channels[(other.tx_node, victim.rx_node)])
                for victim, other in crossings
            ],
            mod,
        )
        sps = mod.samples_per_symbol
        for (victim, other), r in zip(crossings, cross):
            taps[(victim.stream_id, other.stream_id)] = _decision_taps(r, offsets[victim.stream_id], sps)
        peaks = {sid: complex(taps[(sid, sid)][offset // sps]) for sid, offset in offsets.items()}
        energies = {}
        for (victim, stream), t in taps.items():
            mags = np.abs(t) ** 2
            total = mags.sum()
            # The own pair leaves out its decision tap: the rest is its ISI.
            energies[(victim, stream)] = float(total - mags[offsets[victim] // sps] if victim == stream else total)
        return cls(*map(MappingProxyType, (filters, offsets, taps, peaks, energies)))


@dataclass(frozen=True)
class SinrReport:
    """Power bookkeeping at one link's decision instants, all in watts.

    ``per_interferer_w`` holds each interfering stream's co-channel power by
    stream id; ``cochannel_w`` (their sum) and ``sinr_db`` follow from the fields.
    """

    signal_w: float
    isi_w: float
    noise_w: float
    per_interferer_w: dict[str, float] = field(default_factory=dict)

    @property
    def cochannel_w(self) -> float:
        return float(sum(self.per_interferer_w.values()))

    @property
    def sinr_db(self) -> float:
        return sinr_from_powers(self.signal_w, self.isi_w, self.cochannel_w, self.noise_w)


def sinr_from_powers(signal_w: float, isi_w: float, cochannel_w: float, noise_w: float) -> float:
    """SINR in dB from component powers; degenerate cases map to +/-inf."""
    denom = isi_w + cochannel_w + noise_w
    if signal_w <= 0.0:
        return float("-inf")
    if denom <= 0.0:
        return float("inf")
    return 10.0 * math.log10(signal_w / denom)


def compute_sinr(scenario: Scenario, target_link: LinkSpec) -> SinrReport:
    """Deterministic SINR of one link; no bits or noise are drawn.

    The link's own symbol-spaced taps supply the signal (the decision tap)
    and the ISI (every other tap). Each simultaneous stream contributes
    co-channel power, the energy of its taps at this link's receiver,
    sampled on the victim's symbol grid at the victim's decision offset.
    Per-symbol powers equal each stream's transmit power target in watts,
    so all interference terms scale with the interferer's dBm setting. The
    scenario's response table holds the decision tap and every unit-power
    energy; this only weights them by the powers.
    """
    link = scenario.link_for_stream(target_link.stream_id)
    if link != target_link:
        raise ValueError(f"link not found: {target_link!r} is not part of the scenario")
    table = scenario.responses
    sid = link.stream_id
    signal_w = link.tx_power_w * abs(table.peaks[sid]) ** 2
    isi_w = link.tx_power_w * table.energies[(sid, sid)]
    per_interferer = {
        other.stream_id: other.tx_power_w * table.energies[(sid, other.stream_id)]
        for other in scenario.links
        if other.stream_id != sid
    }
    return SinrReport(signal_w, isi_w, scenario.noise.watts, per_interferer)
