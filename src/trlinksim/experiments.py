"""Channel realization, seeded Monte Carlo trials, and sweep orchestration.

A scenario is built one way, ``linksim.Scenario(channels, links, noise,
mod)``; this module draws its channels, fits its modulation to a bit
rate, splits a scatter transmitter's power budget, runs its trials and
sweeps it. ``sweep`` takes the channels and the grid points, and owns
which scenarios a sweep builds: a fresh realization per trial when any
channel is synthetic, else one response table per link set and
modulation, re-powered at each point. In a scatter layout one
transmitter sends several streams to distinct receivers, each shaped by
the time-reversal filter of its own receiver's channel, so superposing
them is how one transmitter addresses many receivers at once;
``split_power_dbm`` gives each stream its equal share of the total.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .chanmodel import Cir, ReverbParams, _shift_add_conv, same_grid, synth_reverberant
from .detector import count_errors, demodulate, train_threshold, wilson_interval
from .linksim import LinkSpec, NoiseSpec, Scenario, propagate, sinr_from_powers
from .sigchain import (
    ModParams,
    TrFilter,
    Waveform,
    dbm_to_watts,
    make_tr_filter,
    modulate_ask,
    precode,
    scale_to_power,
)

__all__ = [
    "SweepRow",
    "FocusEntry",
    "derive_seed",
    "realize_channels",
    "mod_params_for_rate",
    "split_power_dbm",
    "run_trial",
    "sweep",
    "focusing_report",
]


def derive_seed(*parts: int) -> int:
    """Stable non-negative sub-seed from integer coordinates."""
    ss = np.random.SeedSequence(tuple(int(p) for p in parts))
    return int(ss.generate_state(1, np.uint64)[0])


def realize_channels(
    channels: Mapping[tuple[str, str], Cir | ReverbParams], seed: int
) -> dict[tuple[str, str], Cir]:
    """One realization of ``channels``: each ``ReverbParams`` drawn, each ``Cir`` as it is.

    A fresh channel derives its seed from ``seed`` and its place in sorted
    order over all the pairs, and is labelled "TX->RX". So the realization
    does not depend on the mapping's order, and a sweep hands each trial a
    fresh set by handing it a fresh seed.
    """
    out = {}
    for index, pair in enumerate(sorted(channels)):
        channel = channels[pair]
        if isinstance(channel, ReverbParams):
            channel = synth_reverberant(derive_seed(seed, index), channel, "->".join(pair))
        out[pair] = channel
    return out


def mod_params_for_rate(rate_bps: float, mod: ModParams) -> ModParams:
    """``mod`` at ``rate_bps`` on the same sample grid.

    The bit rate must divide the grid: samples_per_symbol has to come out
    an integer, because channels stay fixed while the symbol rate moves.
    """
    sps = 1.0 / (rate_bps * mod.sample_interval)
    sps_int = int(round(sps))
    if sps_int < 1 or abs(sps - sps_int) > 1e-6 * sps:
        raise ValueError(
            f"bit rate {rate_bps:g} b/s does not fit the grid of {mod.sample_interval:g} s "
            f"(samples per symbol would be {sps:g})"
        )
    return dataclasses.replace(mod, bit_rate=rate_bps, samples_per_symbol=sps_int)


def split_power_dbm(total_dbm: float, n_streams: int) -> float:
    """Per-stream dBm when ``n_streams`` streams share a ``total_dbm`` budget equally."""
    return total_dbm - 10.0 * math.log10(n_streams)


def _transmit(
    link: LinkSpec,
    s_index: int,
    seed: int,
    n_bits: int,
    pilot_len: int,
    tx_filter: TrFilter,
    mod: ModParams,
) -> tuple[Waveform, tuple[np.ndarray, np.ndarray]]:
    """One stream's transmit chain: (scaled stream, (pilot bits, payload bits))."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0, s_index)))
    pilot = rng.integers(0, 2, size=pilot_len)
    payload = rng.integers(0, 2, size=n_bits)
    pilot[0], pilot[1] = 0, 1  # guarantee both classes for training
    bits = np.concatenate([pilot, payload])
    shaped = precode(modulate_ask(bits, mod), tx_filter)
    return scale_to_power(shaped, link.tx_power_dbm), (pilot, payload)


def run_trial(
    scenario: Scenario,
    seed: int,
    n_bits: int,
    pilot_len: int = 64,
) -> dict[str, int]:
    """One seeded end-to-end realization of every link in the scenario.

    Per stream: draw pilot and payload bits, modulate, precode with the
    link's own filter from the scenario's response table, scale to the
    link's power target, then superpose all streams and detect each one
    at its receiver. The pilot (which always contains both symbols)
    trains the threshold and is excluded from the error count. Decision
    samples are derotated by the phase of the link's decision tap
    before slicing.

    Each stream is seeded by its place in stream-id order, the scenario's
    link order. Returns {stream_id: payload bit errors}, the same for the
    same (scenario, seed, n_bits, pilot_len). Streams of 2^63 bytes or
    more, which no machine can allocate, are refused with a MemoryError.
    """
    if int(seed) != seed or seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if n_bits < 1:
        raise ValueError("n_bits must be at least 1")
    if pilot_len < 2:
        raise ValueError("pilot needs at least two bits")
    mod = scenario.mod_params
    sps = mod.samples_per_symbol
    if (pilot_len + int(n_bits)) * sps * 16 >= 2**63:
        # More memory than any machine has: refused like an allocation numpy cannot make.
        raise MemoryError(
            f"pilot_len + n_bits = {pilot_len} + {n_bits} symbols of {sps} complex samples "
            "reach 2^63 bytes, more than numpy can index"
        )
    table = scenario.responses
    n_symbols = pilot_len + n_bits
    streams, bits = {}, {}
    for s_index, link in enumerate(scenario.links):
        sid = link.stream_id
        streams[sid], bits[sid] = _transmit(link, s_index, seed, n_bits, pilot_len, table.filters[sid], mod)
    received = propagate(scenario, streams, derive_seed(seed, 1))
    # Detection needs only the bits: the sent streams go before it starts.
    del streams
    errors: dict[str, int] = {}
    for link in scenario.links:
        sid = link.stream_id
        offset = table.offsets[sid]
        y = received[link.rx_node]
        # The detector reads one sample per symbol, so only those are derotated.
        # Contiguous like the whole waveform was, so numpy multiplies them
        # the same way and every derotated sample is bit for bit the old one.
        decisions = np.ascontiguousarray(y.samples[offset :: sps][:n_symbols])
        rotated = (decisions * np.exp(-1j * np.angle(table.peaks[sid]))).real
        pilot, payload = bits[sid]
        threshold = train_threshold(rotated[:pilot_len], pilot)
        errors[sid] = count_errors(payload, demodulate(rotated[pilot_len:], threshold))
    return errors


@dataclass(frozen=True)
class SweepRow:
    """Aggregated per-link outcome at one grid point: watts averaged over trials, bits pooled.

    ``sinr_db``, ``ber`` and ``ber_ci`` (Wilson 95%) are computed from them.
    """

    variable: str
    value: float
    link: str
    signal_w: float
    isi_w: float
    cochannel_w: float
    noise_w: float
    bits: int
    errors: int

    @property
    def sinr_db(self) -> float:
        return sinr_from_powers(self.signal_w, self.isi_w, self.cochannel_w, self.noise_w)

    @property
    def ber(self) -> float:
        return self.errors / self.bits

    @property
    def ber_ci(self) -> tuple[float, float]:
        return wilson_interval(self.errors, self.bits)


def sweep(
    variable: str,
    points: Iterable[tuple[float, Sequence[LinkSpec], ModParams]],
    channels: Mapping[tuple[str, str], Cir | ReverbParams],
    noise: NoiseSpec,
    n_bits: int = 1000,
    n_trials: int = 10,
    master_seed: int = 0,
    pilot_len: int = 64,
) -> list[SweepRow]:
    """Run every ``(value, links, mod)`` of ``points`` over ``channels``; ``variable`` labels the rows.

    ``channels`` maps each (tx, rx) pair to a ``Cir`` or a ``ReverbParams``,
    as a config's channels do. When any is a ``ReverbParams``, every trial
    of every point draws a fresh realization with
    ``realize_channels(channels, derive_seed(master_seed, point, trial, 0))``
    and builds its own scenario. Otherwise the channels are fixed: one base
    scenario per link set (each link's tx, rx and precoding) and modulation
    holds the response table, each point re-powers it once
    (``Scenario.with_powers``), and all of the point's trials share that
    scenario. Per point each trial's SINR component powers (its scenario's
    ``Scenario.sinr``) are averaged linearly over ``n_trials`` trials of
    ``n_bits`` bits each, and its ``run_trial`` bit errors are pooled over
    ``n_bits * n_trials`` bits. Trial seeds are
    ``derive_seed(master_seed, point, trial, 1)``, so the output is a pure
    function of the arguments.
    """
    points = tuple(points)
    if not points:
        raise ValueError("sweep grid must not be empty")
    if n_bits < 100:
        raise ValueError("n_bits must be at least 100")
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    if int(master_seed) != master_seed or master_seed < 0:
        raise ValueError("master_seed must be a non-negative integer")
    fresh = any(isinstance(c, ReverbParams) for c in channels.values())
    if not fresh:
        fixed = realize_channels(channels, master_seed)
        bases: dict[tuple, Scenario] = {}  # power leaves the response table alone
    rows: list[SweepRow] = []
    for p_index, (value, links, mod) in enumerate(points):
        if not fresh:
            key = tuple((link.tx_node, link.rx_node, link.precoding) for link in links), mod
            if key not in bases:
                bases[key] = Scenario(fixed, links, noise, mod)
            scenario = bases[key].with_powers({link.stream_id: link.tx_power_dbm for link in links})
        watts: dict[str, np.ndarray] = {}
        errors: Counter[str] = Counter()
        for t_index in range(n_trials):
            if fresh:
                channel_seed = derive_seed(master_seed, p_index, t_index, 0)
                scenario = Scenario(realize_channels(channels, channel_seed), links, noise, mod)
            trial_seed = derive_seed(master_seed, p_index, t_index, 1)
            errors.update(run_trial(scenario, trial_seed, n_bits, pilot_len=pilot_len))
            for sid, report in scenario.sinr.items():
                acc = watts.setdefault(sid, np.zeros(4))
                acc += (report.signal_w, report.isi_w, report.cochannel_w, report.noise_w)
        for sid in sorted(watts):
            watt_means = map(float, watts[sid] / n_trials)
            rows.append(SweepRow(variable, value, sid, *watt_means, n_bits * n_trials, errors[sid]))
    return rows


@dataclass(frozen=True)
class FocusEntry:
    """Received power at one node (its key in the report) for a probe aimed at a target."""

    tr_peak_w: float
    tr_total_w: float
    nontr_peak_w: float
    nontr_total_w: float


def focusing_report(
    channels: Mapping[str, Cir],
    target: str,
    power_dbm: float,
) -> dict[str, FocusEntry]:
    """Spatial focusing audit of a TR filter aimed at ``target``.

    ``channels`` maps receiving nodes to the channel from the probing
    transmitter. For every node the peak instantaneous power and the
    total received energy of channel * filter are reported, scaled by the
    transmit power; the non-TR columns use the bare channel at the same
    power. Every node's channel * filter comes from one exact shift-and-add
    pass, so a channel orthogonal to the target's receives exactly zero.
    """
    if target not in channels:
        raise ValueError(f"target {target!r} has no channel entry")
    g = make_tr_filter(channels[target])
    p_tx = dbm_to_watts(power_dbm)
    nodes = sorted(channels)
    for node in nodes:
        if not same_grid(channels[node].sample_interval, g.sample_interval):
            raise ValueError(f"grid mismatch: channel toward {node!r}")
    responses = _shift_add_conv([(channels[node].samples, g.samples) for node in nodes])
    out: dict[str, FocusEntry] = {}
    for node, response in zip(nodes, responses):
        focused = np.abs(response) ** 2
        bare = np.abs(channels[node].samples) ** 2
        out[node] = FocusEntry(
            tr_peak_w=p_tx * float(focused.max()),
            tr_total_w=p_tx * float(focused.sum()),
            nontr_peak_w=p_tx * float(bare.max()),
            nontr_total_w=p_tx * float(bare.sum()),
        )
    return out
