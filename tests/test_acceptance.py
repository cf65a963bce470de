"""Acceptance gate: twelve end-to-end checks, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines. Each check prints ``[PASS]`` or ``[FAIL]`` with a one-line
description before asserting, so a red run still reports every
criterion it reached.
"""

import math
import time

import numpy as np
from scipy.stats import norm

from trlinksim.chanmodel import (
    Cir,
    ReverbParams,
    import_frequency_response,
    rms_delay_spread,
    synth_correlated_pair,
    synth_reverberant,
)
from trlinksim.cli import _grid_point, main
from trlinksim.detector import wilson_interval
from trlinksim.experiments import (
    derive_seed,
    mod_params_for_rate,
    realize_channels,
    run_trial,
    split_power_dbm,
    sweep,
)
from trlinksim.linksim import (
    LinkSpec,
    NoiseSpec,
    Scenario,
    compute_sinr,
    effective_response,
    full_rate_response,
    link_filter,
    propagate,
)
from trlinksim.sigchain import ModParams, make_tr_filter, modulate_ask, precode, scale_to_power


def _verdict(num: int, description: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num}: {description} {detail}".rstrip()


def test_criterion_01_matched_filter_peak():
    params = ReverbParams(1e-12, 48, 60e-12, 500e-12)
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        cir = synth_reverberant(seed, params)
        g = make_tr_filter(cir)
        peak = np.max(np.abs(np.convolve(g.samples, cir.samples)))
        worst = max(worst, abs(peak - math.sqrt(cir.energy)) / math.sqrt(cir.energy))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    _verdict(
        1,
        "matched-filter peak equals sqrt(channel energy) on 100 random channels",
        ok,
        f"(worst relative deviation {worst:.3e}, {elapsed:.2f} s)",
    )


def test_criterion_02_awgn_closed_form():
    # OOK over a flat channel: BER = Q(sqrt(P/N)) when the mean waveform
    # power is P and the per-sample complex noise power is N
    noise_dbm = -30.0
    channels = {("A", "B"): Cir(np.array([1.0]), 2e-11, "A->B")}
    start = time.perf_counter()
    ok = True
    details = []
    for i, target in enumerate((1e-1, 1e-2, 1e-3)):
        power_dbm = noise_dbm + 20.0 * math.log10(float(norm.isf(target)))
        link = LinkSpec("A", "B", "tr", power_dbm)
        scenario = Scenario(channels, (link,), NoiseSpec.explicit(noise_dbm), ModParams(50e9, 1))
        errors = run_trial(scenario, derive_seed(99, i), n_bits=1_000_000, pilot_len=1024)["A->B"]
        lo, hi = wilson_interval(errors, 1_000_000)
        details.append(f"target {target:g} measured {errors / 1_000_000:.3e} ci [{lo:.3e},{hi:.3e}]")
        ok = ok and lo <= target <= hi
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _verdict(
        2,
        "measured BER brackets the closed-form value at 1e-1, 1e-2, 1e-3",
        ok,
        f"({'; '.join(details)}; {elapsed:.1f} s)",
    )


def test_criterion_03_hand_computed_sinr():
    mod = ModParams(bit_rate=50e9, samples_per_symbol=1)
    h = Cir(np.array([1.0, 0.5]), mod.sample_interval, "A->B")
    link = LinkSpec("A", "B", "tr", 0.0)
    scenario = Scenario({("A", "B"): h}, (link,), NoiseSpec.off(), mod)
    got = compute_sinr(scenario, link).sinr_db
    expected = 10.0 * math.log10(1.25 / 0.4)
    ok = abs(got - expected) <= 1e-6
    _verdict(
        3,
        "two-tap hand fixture reports 10*log10(1.25/0.4) dB",
        ok,
        f"(got {got!r}, expected {expected!r})",
    )


def test_criterion_04_tr_versus_unprecoded_gap():
    # long channels (RMS spread at least 5 symbol periods at 50 Gb/s)
    params = ReverbParams(5e-12, 192, 220e-12, 1000e-12)
    powers = tuple(float(p) for p in range(-5, 11))
    start = time.perf_counter()
    gaps = {p: [] for p in powers}
    spreads = []
    for seed in range(20):
        channels = realize_channels({("A", "B"): params}, seed)
        spreads.append(rms_delay_spread(channels[("A", "B")]))
        for power in powers:
            by_mode = {}
            for mode in ("tr", "none"):
                link = LinkSpec("A", "B", mode, power)
                scenario = Scenario(channels, (link,), NoiseSpec.thermal(300.0, 50e9), ModParams(50e9, 4))
                by_mode[mode] = compute_sinr(scenario, scenario.links[0]).sinr_db
            gaps[power].append(by_mode["tr"] - by_mode["none"])
    elapsed = time.perf_counter() - start
    min_spread = min(spreads)
    mean_gaps = {p: float(np.mean(g)) for p, g in gaps.items()}
    ok = (
        min_spread >= 100e-12
        and all(g >= 5.0 for g in mean_gaps.values())
        and elapsed < 60.0
    )
    _verdict(
        4,
        "time-reversal precoding gains >= 5 dB mean SINR over no precoding at every power",
        ok,
        f"(min spread {min_spread:.3e} s, worst mean gap {min(mean_gaps.values()):.2f} dB, {elapsed:.1f} s)",
    )


def test_criterion_05_more_links_never_help():
    params = ReverbParams(5e-12, 192, 220e-12, 1000e-12)
    all_pairs = [(tx, rx) for tx in "ACE" for rx in "BDF"]
    links = (LinkSpec("A", "B"), LinkSpec("C", "D"), LinkSpec("E", "F"))
    violations = 0
    for seed in range(20):
        channels = realize_channels(dict.fromkeys(all_pairs, params), seed)
        sinrs = []
        for n_links in (1, 2, 3):
            scenario = Scenario(channels, links[:n_links], NoiseSpec.thermal(300.0, 50e9), ModParams(50e9, 4))
            victim = scenario.link_for_stream("A->B")
            sinrs.append(compute_sinr(scenario, victim).sinr_db)
        violations += sum(1 for a, b in zip(sinrs, sinrs[1:]) if b > a + 1e-12)
    ok = violations == 0
    _verdict(
        5,
        "victim SINR is non-increasing as concurrent links go 1 -> 2 -> 3 (20 seeds)",
        ok,
        f"({violations} violations)",
    )


def test_criterion_06_sinr_saturates_with_power():
    # deterministic stubs: unit gain on each own pair, 0.3 on every cross
    dt = 2e-11
    channels = {
        (tx, rx): Cir(np.array([1.0 if (tx, rx) in (("A", "B"), ("C", "D"), ("E", "F")) else 0.3]), dt)
        for tx in "ACE"
        for rx in "BDF"
    }
    powers = [-50.0, -40.0, -30.0, -20.0, -10.0, 0.0, 10.0, 20.0]

    def sinr_curve(n_links):
        out = []
        for power in powers:
            links = tuple(LinkSpec(tx, rx, "tr", power) for tx, rx in ("AB", "CD", "EF")[:n_links])
            scenario = Scenario(channels, links, NoiseSpec.explicit(-40.0), ModParams(50e9, 1))
            out.append(compute_sinr(scenario, scenario.links[0]).sinr_db)
        return out

    three = sinr_curve(3)
    one = sinr_curve(1)
    diffs3 = [b - a for a, b in zip(three, three[1:])]
    diffs1 = [b - a for a, b in zip(one, one[1:])]
    ok = (
        all(b < a for a, b in zip(diffs3, diffs3[1:]))
        and diffs3[-1] < 0.5
        and diffs1[-1] > 9.5
    )
    _verdict(
        6,
        "with interferers the per-decade SINR gain shrinks toward 0; alone it stays ~10 dB",
        ok,
        f"(3-link increments {['%.3g' % d for d in diffs3]}, 1-link last {diffs1[-1]:.2f})",
    )


def test_criterion_07_correlation_drives_interference():
    params = ReverbParams(1e-12, 64, 150e-12, 600e-12)
    rhos = (0.1, 0.5, 0.9)
    cochannel = {rho: [] for rho in rhos}
    for seed in range(20):
        for rho in rhos:
            own, leak = synth_correlated_pair(derive_seed(seed, 0), params, rho)
            victim = synth_reverberant(derive_seed(seed, 1), params)
            other = synth_reverberant(derive_seed(seed, 2), params)
            channels = {
                ("A", "B"): victim,
                ("A", "D"): other,
                ("C", "D"): own,
                ("C", "B"): leak,
            }
            links = (LinkSpec("A", "B"), LinkSpec("C", "D"))
            scenario = Scenario(channels, links, NoiseSpec.off(), ModParams(125e9, 8))
            victim_link = scenario.link_for_stream("A->B")
            cochannel[rho].append(compute_sinr(scenario, victim_link).cochannel_w)
    means = [float(np.mean(cochannel[rho])) for rho in rhos]
    monotone = all(b > a for a, b in zip(means, means[1:]))

    # orthogonal two-tap pair: the interferer's response through the
    # victim's channel is exactly zero at the victim's decision instant
    mod = ModParams(bit_rate=50e9, samples_per_symbol=1)
    h1 = Cir(np.array([1.0, 1.0]) / math.sqrt(2), mod.sample_interval)
    h2 = Cir(np.array([1.0, -1.0]) / math.sqrt(2), mod.sample_interval)
    offset, _ = effective_response(make_tr_filter(h1), h1, mod)
    cross = full_rate_response(make_tr_filter(h2), h1, mod)
    exact_null = cross[offset] == 0j

    ok = monotone and exact_null
    _verdict(
        7,
        "co-channel power rises with channel correlation; orthogonal pair nulls exactly",
        ok,
        f"(means {['%.3e' % m for m in means]}, null {cross[offset]!r})",
    )


def test_criterion_08_scatter_matches_multi_tx():
    params = ReverbParams(5e-12, 64, 100e-12, 600e-12)
    hb = synth_reverberant(11, params)
    hc = synth_reverberant(12, params)
    noise = NoiseSpec.explicit(-50.0)
    mod = ModParams(50e9, 4)
    # The scatter side's per-stream powers are the ones the CLI's power sweep gives a 3 dBm budget.
    scatter_links, _ = _grid_point("tx_power_dbm", 3.0, (LinkSpec("S", "B"), LinkSpec("S", "C")), mod)
    scatter = Scenario({("S", "B"): hb, ("S", "C"): hc}, scatter_links, noise, mod)
    per_tx = 3.0 - 10.0 * math.log10(2)
    multi = Scenario(
        {("T1", "B"): hb, ("T1", "C"): hc, ("T2", "B"): hb, ("T2", "C"): hc},
        (LinkSpec("T1", "B", "tr", per_tx), LinkSpec("T2", "C", "tr", per_tx)),
        noise,
        mod,
    )
    worst = 0.0
    for rx in ("B", "C"):
        a = next(compute_sinr(scatter, l) for l in scatter.links if l.rx_node == rx)
        b = next(compute_sinr(multi, l) for l in multi.links if l.rx_node == rx)
        for field in ("signal_w", "isi_w", "cochannel_w", "noise_w", "sinr_db"):
            worst = max(worst, abs(getattr(a, field) - getattr(b, field)))
    ok = worst <= 1e-9
    _verdict(
        8,
        "one-transmitter scatter and separated transmitters report identical link budgets",
        ok,
        f"(worst field deviation {worst:.3e})",
    )


def _stream_waveforms(scenario, seed):
    rng = np.random.default_rng(seed)
    streams = {}
    for link in scenario.links:
        bits = rng.integers(0, 2, 300)
        shaped = precode(modulate_ask(bits, scenario.mod_params), link_filter(scenario, link))
        streams[link.stream_id] = scale_to_power(shaped, link.tx_power_dbm)
    return streams


def test_criterion_09_superposition_is_exact():
    params = ReverbParams(5e-12, 64, 100e-12, 600e-12)
    worst = 0.0
    mod = ModParams(50e9, 4)
    channels = realize_channels(dict.fromkeys([(tx, rx) for tx in "ACE" for rx in "BDF"], params), 3)
    links = (LinkSpec("A", "B"), LinkSpec("C", "D"), LinkSpec("E", "F"))
    multi = Scenario(channels, links, NoiseSpec.off(), mod)
    scatter_channels = realize_channels(dict.fromkeys([("S", "B"), ("S", "D"), ("S", "F")], params), 4)
    scatter_links = tuple(LinkSpec("S", rx, "tr", split_power_dbm(3.0, 3)) for rx in "BDF")
    scatter = Scenario(scatter_channels, scatter_links, NoiseSpec.off(), mod)
    for scenario in (multi, scatter):
        streams = _stream_waveforms(scenario, seed=17)
        together = propagate(scenario, streams, seed=0)
        for rx in scenario.receivers:
            total = np.zeros_like(together[rx].samples)
            for sid, waveform in streams.items():
                single = propagate(scenario, {sid: waveform}, seed=0)
                part = single[rx].samples
                total[: part.size] += part
            worst = max(worst, float(np.max(np.abs(together[rx].samples - total))))
    ok = worst <= 1e-12
    _verdict(
        9,
        "noise-free multi-stream reception equals the sum of single-stream receptions",
        ok,
        f"(worst per-sample deviation {worst:.3e})",
    )


def test_criterion_10_ber_grows_with_aggregate_rate():
    params = ReverbParams(0.25e-12, 96, 30e-12, 300e-12)
    channels = realize_channels({("A", "B"): params}, 8)
    # A 10 Gb/s modulation on the channels' 0.25 ps grid, refitted to each rate.
    grid_mod = ModParams(10e9, 400)
    link = LinkSpec("A", "B", "tr", 10.0)
    points = [(rate, (link,), mod_params_for_rate(rate, grid_mod)) for rate in (10e9, 20e9, 40e9, 80e9)]
    # Thermal noise over the fastest rate's band (-65 dBm) lies 75 dB below the
    # transmit power: intersymbol interference sets the trend.
    rows = sweep(
        "aggregate_rate_bps",
        points,
        channels,
        NoiseSpec.thermal(300.0, 80e9),
        n_bits=2000,
        n_trials=3,
        master_seed=0,
        pilot_len=256,
    )
    bers = [row.ber for row in rows]
    ok = all(b >= a for a, b in zip(bers, bers[1:]))
    _verdict(
        10,
        "pooled BER is non-decreasing across 10/20/40/80 Gb/s on a fixed channel",
        ok,
        f"(BERs {['%.4g' % b for b in bers]})",
    )


def test_criterion_11_frequency_import_round_trip():
    rng = np.random.default_rng(42)
    cir = Cir(rng.standard_normal(64) + 1j * rng.standard_normal(64), 2e-12)
    spectrum = np.fft.fft(cir.samples)
    df = 1.0 / (len(cir.samples) * cir.sample_interval)
    records = [(k * df, float(v.real), float(v.imag)) for k, v in enumerate(spectrum)]
    back = import_frequency_response(records)
    grid_ok = abs(back.sample_interval - cir.sample_interval) <= 1e-9 * cir.sample_interval
    round_trip = float(np.max(np.abs(back.samples - cir.samples)))

    n, shift, spacing = 32, 5, 1e9
    phase_records = [
        (k * spacing, float(v.real), float(v.imag))
        for k, v in enumerate(np.exp(-2j * np.pi * np.arange(n) * shift / n))
    ]
    impulse = import_frequency_response(phase_records)
    peak_ok = (
        int(np.argmax(np.abs(impulse.samples))) == shift
        and abs(impulse.samples[shift] - 1.0) <= 1e-9
        and float(np.max(np.abs(np.delete(impulse.samples, shift)))) < 1e-9
    )
    ok = grid_ok and round_trip <= 1e-9 and peak_ok
    _verdict(
        11,
        "frequency-response import reproduces time-domain channels and shifted impulses",
        ok,
        f"(round-trip deviation {round_trip:.3e})",
    )


_CLI_CONFIG = """\
[nodes]
names = A, B, C, D

[channel "A->B"]
model = reverberant
num_taps = 16
rms_delay_spread_s = 50e-12
max_delay_s = 300e-12

[channel "A->D"]
model = reverberant
num_taps = 16
rms_delay_spread_s = 50e-12
max_delay_s = 300e-12

[channel "C->B"]
model = reverberant
num_taps = 16
rms_delay_spread_s = 50e-12
max_delay_s = 300e-12

[channel "C->D"]
model = reverberant
num_taps = 16
rms_delay_spread_s = 50e-12
max_delay_s = 300e-12

[link 1]
tx = A
rx = B
power_dbm = 5

[link 2]
tx = C
rx = D
power_dbm = 5

[noise]
mode = thermal
temperature_k = 300
bandwidth_hz = 50e9

[sweep]
variable = tx_power_dbm
values = -5, 0, 5
n_bits = 200
n_trials = 2
"""


def test_criterion_12_cli_outputs_are_byte_identical(tmp_path):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(_CLI_CONFIG, encoding="utf-8")
    produced = {}
    for command, name in (
        ("run", "run.csv"),
        ("sweep-power", "sweep_power.csv"),
        ("focusing", "focusing.csv"),
    ):
        pair = []
        for attempt in ("first", "second"):
            out = tmp_path / f"{command}-{attempt}"
            code = main([command, "--config", str(cfg), "--out", str(out), "--seed", "3"])
            assert code == 0
            pair.append((out / name).read_bytes())
        produced[command] = pair[0] == pair[1] and len(pair[0]) > 0
    ok = all(produced.values())
    _verdict(
        12,
        "repeating any CLI command with the same config and seed reproduces the CSVs byte for byte",
        ok,
        f"({produced})",
    )
