"""Channel realization, the rate fit, trials, sweeps, and the focusing audit."""

import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from trlinksim import chanmodel, detector, experiments, linksim
from trlinksim.chanmodel import Cir, ReverbParams, synth_reverberant
from trlinksim.experiments import (
    FocusEntry,
    derive_seed,
    focusing_report,
    mod_params_for_rate,
    realize_channels,
    run_trial,
    sweep,
)
from trlinksim.linksim import LinkSpec, NoiseSpec, Scenario
from trlinksim.sigchain import ModParams

REVERB = ReverbParams(
    sample_interval=5e-12,
    num_taps=24,
    rms_delay_spread_target=50e-12,
    max_delay=400e-12,
)


def test_derive_seed_is_stable_and_coordinate_sensitive():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    seen = {derive_seed(a, b) for a in range(4) for b in range(4)}
    assert len(seen) == 16
    assert all(s >= 0 for s in seen)


def test_realize_channels_draws_each_fresh_pair_by_its_sorted_slot():
    fixed = Cir(np.array([1.0, 0.5]), REVERB.sample_interval, "fixed")
    channels = {("C", "D"): REVERB, ("B", "A"): fixed, ("A", "B"): REVERB, ("A", "D"): REVERB}
    fwd = realize_channels(channels, 5)
    rev = realize_channels(dict(reversed(channels.items())), 5)
    assert fwd[("B", "A")] is fixed and rev[("B", "A")] is fixed
    for slot, pair in enumerate(sorted(channels)):
        assert np.array_equal(fwd[pair].samples, rev[pair].samples)
        if pair != ("B", "A"):
            expected = synth_reverberant(derive_seed(5, slot), REVERB, f"{pair[0]}->{pair[1]}")
            assert np.array_equal(fwd[pair].samples, expected.samples)
            assert (fwd[pair].sample_interval, fwd[pair].label) == (expected.sample_interval, expected.label)
    assert not np.array_equal(fwd[("A", "B")].samples, fwd[("C", "D")].samples)


def test_mod_params_for_rate_fits_the_grid():
    base = ModParams(bit_rate=50e9, samples_per_symbol=4)
    assert mod_params_for_rate(50e9, base) == base
    mod2 = mod_params_for_rate(100e9, base)
    assert (mod2.bit_rate, mod2.samples_per_symbol) == (100e9, 2)
    with pytest.raises(ValueError, match="does not fit the grid"):
        mod_params_for_rate(30e9, base)
    with pytest.raises(ValueError, match="does not fit the grid"):
        mod_params_for_rate(400e9, base)


def test_split_power_dbm_shares_the_budget_equally():
    assert experiments.split_power_dbm(10.0, 1) == 10.0
    assert experiments.split_power_dbm(10.0, 2) == pytest.approx(10.0 - 10.0 * math.log10(2), abs=1e-12)
    for n in (2, 3, 7):
        share = experiments.split_power_dbm(10.0, n)
        assert n * 10.0 ** (share / 10.0) == pytest.approx(10.0, rel=1e-12)


def _two_link_scenario(seed):
    """A->B and C->D under TR at 0 dBm and 50 Gb/s, thermal noise at 300 K over
    the bit rate, over channels drawn for every pair of A, C, E toward B, D, F."""
    channels = realize_channels(dict.fromkeys([(tx, rx) for tx in "ACE" for rx in "BDF"], REVERB), seed)
    links = (LinkSpec("A", "B", "tr", 0.0), LinkSpec("C", "D", "tr", 0.0))
    return Scenario(channels, links, NoiseSpec.thermal(300.0, 50e9), ModParams(50e9, 4))


def test_run_trial_computes_no_sinr_and_sweep_pools_the_scenarios_reports(monkeypatch):
    scn = _two_link_scenario(0)
    calls = []
    original = linksim.compute_sinr
    monkeypatch.setattr(
        linksim, "compute_sinr", lambda scenario, link: calls.append(link) or original(scenario, link)
    )
    for seed in (1, 2):
        assert list(run_trial(scn, seed, 200)) == ["A->B", "C->D"]
    assert calls == []
    # Fixed channels: every trial runs one scenario, so each row's watts are its report's.
    rows = sweep("x", [(0.0, scn.links, scn.mod_params)], scn.channels, scn.noise, n_bits=200, n_trials=2)
    assert calls == list(scn.links)
    assert [row.link for row in rows] == ["A->B", "C->D"]
    for row in rows:
        report = scn.sinr[row.link]
        assert (row.signal_w, row.isi_w, row.cochannel_w, row.noise_w) == (
            report.signal_w,
            report.isi_w,
            report.cochannel_w,
            report.noise_w,
        )


# One unit tap from A to B, 50 Gb/s at one sample per symbol, and noise at -30 dBm.
_TAP = {("A", "B"): Cir(np.array([1.0]), 2e-11, "A->B")}
_TAP_NOISE = NoiseSpec.explicit(-30.0)


def _single_tap_points(powers_dbm):
    """Sweep points over ``_TAP``: the link A->B at each power."""
    return [(power, (LinkSpec("A", "B", "tr", power),), ModParams(50e9, 1)) for power in powers_dbm]


def _single_tap_scenario(power_dbm, noise_dbm=-30.0):
    ((_, links, mod),) = _single_tap_points([power_dbm])
    return Scenario(_TAP, links, NoiseSpec.explicit(noise_dbm), mod)


def test_run_trial_is_deterministic():
    scn = _two_link_scenario(3)
    b1 = run_trial(scn, seed=7, n_bits=300)
    b2 = run_trial(scn, seed=7, n_bits=300)
    assert b1 == b2
    b3 = run_trial(scn, seed=8, n_bits=300)
    assert set(b1) == set(b3) == {"A->B", "C->D"}


def test_run_trial_clean_link_is_error_free():
    scn = _single_tap_scenario(0.0, noise_dbm=float("-inf"))
    assert run_trial(scn, seed=0, n_bits=500)["A->B"] == 0
    assert scn.sinr["A->B"].sinr_db == float("inf")


def test_run_trial_validation():
    scn = _single_tap_scenario(0.0)
    with pytest.raises(ValueError, match="seed"):
        run_trial(scn, seed=-1, n_bits=100)
    with pytest.raises(ValueError, match="n_bits"):
        run_trial(scn, seed=0, n_bits=0)
    with pytest.raises(ValueError, match="pilot"):
        run_trial(scn, seed=0, n_bits=100, pilot_len=1)
    # 2^61 + 100 symbols of one 16-byte sample: refused before anything is allocated
    with pytest.raises(MemoryError, match=r"^pilot_len \+ n_bits = 2305843009213693952 \+ 100 symbols"):
        run_trial(scn, seed=0, n_bits=100, pilot_len=2**61)


def _recording(monkeypatch, module, name, log):
    """Wrap module.name so each call appends (args, result) to log."""
    original = getattr(module, name)

    def wrapper(*args):
        result = original(*args)
        log.append((args, result))
        return result

    monkeypatch.setattr(module, name, wrapper)


# Streams of 4 * (2^14 + 64) samples, many overlap-add blocks long.
LONG_BITS = 1 << 14


def test_long_trial_makes_ten_transforms(monkeypatch):
    # On the overlap-add path, each stream before and after precoding, each
    # pre-filter and each of the 4 channels is transformed once.
    scn = _two_link_scenario(3)
    transforms = []
    _recording(monkeypatch, chanmodel, "block_spectra", transforms)
    run_trial(scn, 11, LONG_BITS)
    assert len(transforms) == 10


def test_long_trial_holds_few_stream_size_buffers():
    # A warm two-link trial of 100k bits, so the spectra are cached: at its
    # peak, propagation holds the two sent streams and their two block
    # spectra, which become the received waveforms. The sent streams are let
    # go before detection.
    scn = _two_link_scenario(3)
    n_bits = 100_000
    run_trial(scn, 0, n_bits)
    taps = max(f.samples.size for f in scn.responses.filters.values())
    stream_bytes = ((64 + n_bits) * scn.mod_params.samples_per_symbol + taps - 1) * 16
    tracemalloc.start()
    try:
        run_trial(scn, 1, n_bits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.8 * stream_bytes


def test_run_trial_derotates_decision_samples_as_the_whole_waveform(monkeypatch):
    scn = _two_link_scenario(3)
    sps = scn.mod_params.samples_per_symbol
    propagations, trainings, slicings = [], [], []
    _recording(monkeypatch, experiments, "propagate", propagations)
    _recording(monkeypatch, experiments, "train_threshold", trainings)
    _recording(monkeypatch, experiments, "demodulate", slicings)
    n_bits, pilot_len = 3000, 64
    run_trial(scn, 4, n_bits, pilot_len)
    ((_, received),) = propagations
    links = sorted(scn.links, key=lambda l: l.stream_id)
    for link, training, slicing in zip(links, trainings, slicings):
        sid = link.stream_id
        offset = scn.responses.offsets[sid]
        y = received[link.rx_node]
        whole = y.samples * np.exp(-1j * np.angle(scn.responses.taps[(sid, sid)][offset // sps]))
        decisions = whole[offset :: sps].real
        pilot = training[0][1]
        threshold = detector.train_threshold(decisions[:pilot_len], pilot)
        bits = detector.demodulate(decisions[pilot_len : pilot_len + n_bits], threshold)
        assert training[1] == threshold
        assert np.array_equal(slicing[1], bits)


def test_sweep_argument_validation():
    # The variable is only a row label here; test_cli's test_sweep_section_rules
    # covers the refusal of an unknown [sweep] variable.
    points = _single_tap_points([0.0])
    with pytest.raises(ValueError, match="grid"):
        sweep("tx_power_dbm", (), _TAP, _TAP_NOISE)
    with pytest.raises(ValueError, match="n_bits"):
        sweep("tx_power_dbm", points, _TAP, _TAP_NOISE, n_bits=50)
    with pytest.raises(ValueError, match="n_trials"):
        sweep("tx_power_dbm", points, _TAP, _TAP_NOISE, n_trials=0)
    with pytest.raises(ValueError, match="master_seed"):
        sweep("tx_power_dbm", points, _TAP, _TAP_NOISE, master_seed=-1)
    with pytest.raises(ValueError, match="master_seed"):
        sweep("tx_power_dbm", points, _TAP, _TAP_NOISE, master_seed=0.5)


def test_sweep_noise_dominated_gains_one_db_per_dbm():
    # single unit tap, noise far above ISI: SINR in dB tracks power in dBm
    points = _single_tap_points((-10.0, -9.0, -8.0, -7.0))
    rows = sweep("tx_power_dbm", points, _TAP, _TAP_NOISE, n_bits=100, n_trials=1)
    sinrs = [row.sinr_db for row in rows]
    diffs = np.diff(sinrs)
    assert np.allclose(diffs, 1.0, atol=1e-9)
    assert sinrs[0] == pytest.approx(-10.0 - (-30.0), abs=1e-9)


def test_sweep_pools_bits_and_is_pure():
    points = _single_tap_points((-5.0, 0.0))
    rows = sweep("tx_power_dbm", points, _TAP, _TAP_NOISE, n_bits=150, n_trials=3)
    again = sweep("tx_power_dbm", points, _TAP, _TAP_NOISE, n_bits=150, n_trials=3)
    assert rows == again
    assert len(rows) == 2
    for row in rows:
        assert row.bits == 450
        assert row.variable == "tx_power_dbm"
        assert row.ber_ci[0] <= row.ber <= row.ber_ci[1]


def test_sweep_draws_each_fresh_realization_from_its_point_and_trial(monkeypatch):
    # A->B is drawn fresh, C->D is fixed: every trial of every point gets its own realization.
    fixed = Cir(np.array([1.0, 0.5]), REVERB.sample_interval, "C->D")
    channels = {("A", "B"): REVERB, ("A", "D"): REVERB, ("C", "B"): REVERB, ("C", "D"): fixed}
    links = (LinkSpec("A", "B", "tr", 0.0), LinkSpec("C", "D", "tr", 0.0))
    points = [(p, links, ModParams(50e9, 4)) for p in (0.0, 1.0)]
    trials = []
    original = experiments.run_trial

    def recorded(scenario, seed, *args, **kwargs):
        trials.append((scenario, seed))
        return original(scenario, seed, *args, **kwargs)

    monkeypatch.setattr(experiments, "run_trial", recorded)
    sweep("tx_power_dbm", points, channels, NoiseSpec.off(), n_bits=100, n_trials=3, master_seed=4)
    assert len(trials) == 6
    coordinates = [(p, t) for p in range(2) for t in range(3)]
    for (scenario, seed), (p, t) in zip(trials, coordinates):
        assert seed == derive_seed(4, p, t, 1)
        expected = realize_channels(channels, derive_seed(4, p, t, 0))
        assert scenario.channels.keys() == expected.keys()
        for pair, cir in scenario.channels.items():
            assert np.array_equal(cir.samples, expected[pair].samples)
            assert (cir.sample_interval, cir.label) == (expected[pair].sample_interval, expected[pair].label)
        assert scenario.channels[("C", "D")] is fixed
    assert len({scenario.channels[("A", "B")].samples.tobytes() for scenario, _ in trials}) == 6


def test_sweep_over_fixed_channels_builds_one_table_per_link_set_and_modulation(monkeypatch):
    channels = _two_link_scenario(5).channels
    ab, cd = LinkSpec("A", "B", "tr", 0.0), LinkSpec("C", "D", "tr", 0.0)
    power = lambda link, dbm: dataclasses.replace(link, tx_power_dbm=dbm)
    mod4, mod2 = ModParams(50e9, 4), ModParams(100e9, 2)
    points = [
        (0.0, (ab,), mod4),
        (1.0, (power(ab, 5.0),), mod4),  # the same link set at another power: no new table
        (2.0, (cd,), mod4),  # another one-link set at the same modulation
        (3.0, (power(ab, 3.0), power(cd, 3.0)), mod4),
        (4.0, (ab,), mod2),
        (5.0, (dataclasses.replace(ab, precoding="none"),), mod4),
    ]
    builds, reports = Counter(), Counter()
    build, compute_sinr = linksim.ResponseTable.build, linksim.compute_sinr

    def counted_build(scenario):
        builds[tuple((l.stream_id, l.precoding) for l in scenario.links), scenario.mod_params] += 1
        return build(scenario)

    def counted_sinr(scenario, link):
        reports[link, scenario.mod_params] += 1
        return compute_sinr(scenario, link)

    monkeypatch.setattr(linksim.ResponseTable, "build", counted_build)
    monkeypatch.setattr(linksim, "compute_sinr", counted_sinr)
    rows = sweep("x", points, channels, NoiseSpec.thermal(300.0, 50e9), n_bits=100, n_trials=3)
    assert len(rows) == 7
    assert len(builds) == 5 and set(builds.values()) == {1}
    # once per link per point, although every point runs three trials
    assert reports == Counter((link, mod) for _, links, mod in points for link in links)
    assert len(reports) == 7


def test_sweep_orders_rows_by_point_then_link():
    scn = _two_link_scenario(9)
    points = [(n, scn.links[:n], scn.mod_params) for n in (1, 2)]
    rows = sweep("n_links", points, scn.channels, scn.noise, n_bits=100, n_trials=1)
    assert [(r.value, r.link) for r in rows] == [
        (1, "A->B"),
        (2, "A->B"),
        (2, "C->D"),
    ]


def test_sinr_ranking_matches_ber_ranking():
    # over an AWGN-limited link, any two grid points whose pooled error
    # intervals do not overlap must rank the same way by SINR and by BER
    points = _single_tap_points((-27.85, -24.51, -22.67, -21.22))
    for master_seed in (0, 1, 2):
        rows = sweep(
            "tx_power_dbm",
            points,
            _TAP,
            _TAP_NOISE,
            n_bits=2000,
            n_trials=2,
            master_seed=master_seed,
        )
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                a, b = rows[i], rows[j]
                if a.ber_ci[1] < b.ber_ci[0]:
                    assert a.sinr_db > b.sinr_db
                elif b.ber_ci[1] < a.ber_ci[0]:
                    assert b.sinr_db > a.sinr_db


def _orthogonal_channels():
    dt = 5e-12
    return {
        "B": Cir(np.array([1.0, 1.0]) / math.sqrt(2), dt, "tx->B"),
        "C": Cir(np.array([1.0, -1.0]) / math.sqrt(2), dt, "tx->C"),
    }


def test_focusing_report_concentrates_power_on_target():
    out = focusing_report(_orthogonal_channels(), "B", 30.0)
    assert list(out) == ["B", "C"]
    b, c = out["B"], out["C"]
    # matched filter peak at B is the full channel energy
    assert b.tr_peak_w == pytest.approx(1.0, rel=1e-12)
    assert c.tr_peak_w == pytest.approx(0.25, rel=1e-12)
    # without precoding both nodes see the same bare-channel peak
    assert b.nontr_peak_w == pytest.approx(0.5, rel=1e-12)
    assert c.nontr_peak_w == pytest.approx(0.5, rel=1e-12)
    assert b.tr_total_w == pytest.approx(1.5, rel=1e-12)
    assert c.tr_total_w == pytest.approx(0.5, rel=1e-9)


def test_focusing_report_scales_with_power():
    channels = _orthogonal_channels()
    lo = focusing_report(channels, "B", 0.0)
    hi = focusing_report(channels, "B", 10.0)
    for node in channels:
        assert hi[node].tr_peak_w == pytest.approx(10.0 * lo[node].tr_peak_w, rel=1e-12)
        assert hi[node].nontr_total_w == pytest.approx(
            10.0 * lo[node].nontr_total_w, rel=1e-12
        )


def test_focusing_report_identical_channels_tie():
    dt = 5e-12
    h = Cir(np.array([0.6, 0.8]), dt)
    out = focusing_report({"B": h, "C": h}, "B", 0.0)
    b, c = out["B"], out["C"]
    assert c == FocusEntry(b.tr_peak_w, b.tr_total_w, b.nontr_peak_w, b.nontr_total_w)
    # the matched peak equals the channel energy times the transmit power
    assert b.tr_peak_w == pytest.approx(1e-3 * 1.0, rel=1e-12)


def test_focusing_report_validation():
    channels = _orthogonal_channels()
    with pytest.raises(ValueError, match="no channel entry"):
        focusing_report(channels, "Z", 0.0)
    bad = dict(channels)
    bad["D"] = Cir(np.array([1.0, 0.0]), 1e-12, "off-grid")
    with pytest.raises(ValueError, match="grid mismatch"):
        focusing_report(bad, "B", 0.0)
