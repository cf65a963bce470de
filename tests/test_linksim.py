"""Scenario wiring, propagation, and the deterministic SINR path."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trlinksim import chanmodel, linksim
from trlinksim.chanmodel import (
    Cir,
    ReverbParams,
    block_len,
    block_spectra,
    fast_len,
    overlap_add,
    same_grid,
    synth_reverberant,
)
from trlinksim.experiments import realize_channels, run_trial, split_power_dbm
from trlinksim.linksim import (
    BOLTZMANN_J_PER_K,
    LinkSpec,
    NoiseSpec,
    Scenario,
    SinrReport,
    compute_sinr,
    effective_response,
    full_rate_response,
    link_filter,
    propagate,
    sinr_from_powers,
)
from trlinksim.sigchain import (
    ModParams,
    Waveform,
    dbm_to_watts,
    make_identity_filter,
    make_tr_filter,
    modulate_ask,
    precode,
    scale_to_power,
)

MOD = ModParams(bit_rate=50e9, samples_per_symbol=4)
DT = MOD.sample_interval


def _chan(seed, label=""):
    params = ReverbParams(DT, 24, 50e-12, 400e-12)
    cir = synth_reverberant(seed, params)
    return Cir(cir.samples, DT, label)


def _longest_channel(scenario):
    """Taps of the longest channel a scenario holds: with every stream present, propagation's
    transform geometry follows it."""
    return max(c.samples.size for c in scenario.channels.values())


def _two_link_scenario(noise=None):
    channels = {
        ("A", "B"): _chan(1, "A->B"),
        ("A", "D"): _chan(2, "A->D"),
        ("C", "B"): _chan(3, "C->B"),
        ("C", "D"): _chan(4, "C->D"),
    }
    links = (
        LinkSpec("A", "B", "tr", 0.0),
        LinkSpec("C", "D", "tr", 0.0),
    )
    return Scenario(channels, links, noise or NoiseSpec.off(), MOD)


def test_thermal_noise_power():
    spec = NoiseSpec.thermal(300.0, 10e9)
    assert spec.watts == pytest.approx(
        BOLTZMANN_J_PER_K * 300.0 * 10e9, rel=1e-15
    )
    assert spec.watts == pytest.approx(4.141947e-11, rel=1e-12)


def test_noise_spec_modes():
    assert NoiseSpec.explicit(-30.0).watts == pytest.approx(1e-6, rel=1e-12)
    assert NoiseSpec.off().watts == 0.0
    with pytest.raises(ValueError, match="positive temperature"):
        NoiseSpec.thermal(0.0, 1e9)
    with pytest.raises(ValueError, match="positive bandwidth"):
        NoiseSpec.thermal(300.0, 0.0)
    for watts in (-1e-12, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite and non-negative"):
            NoiseSpec(watts)
    with pytest.raises(ValueError):
        NoiseSpec.explicit(float("nan"))


def test_link_spec_validation():
    with pytest.raises(ValueError, match="tx and rx must differ"):
        LinkSpec("A", "A")
    with pytest.raises(ValueError, match="precoding"):
        LinkSpec("A", "B", precoding="zf")
    with pytest.raises(ValueError, match="finite"):
        LinkSpec("A", "B", tx_power_dbm=float("inf"))


def test_scenario_validation():
    scn = _two_link_scenario()
    with pytest.raises(ValueError, match="missing channel C->B"):
        Scenario(
            {k: v for k, v in scn.channels.items() if k != ("C", "B")},
            scn.links,
            scn.noise,
            MOD,
        )
    with pytest.raises(ValueError, match="stream ids must be unique"):
        Scenario(scn.channels, (scn.links[0], scn.links[0]), scn.noise, MOD)
    with pytest.raises(ValueError, match="at least one link"):
        Scenario(scn.channels, (), scn.noise, MOD)
    with pytest.raises(ValueError, match="grid mismatch"):
        bad = dict(scn.channels)
        bad[("A", "B")] = Cir(bad[("A", "B")].samples, 2 * DT, "off-grid")
        Scenario(bad, scn.links, scn.noise, MOD)


def test_scenario_keeps_the_channels_its_links_need_and_drops_the_rest():
    scn = _two_link_scenario()
    extra = {("A", "F"): _chan(5, "A->F"), ("E", "B"): _chan(6, "E->B")}
    kept = Scenario({**extra, **scn.channels}, scn.links, scn.noise, MOD)
    assert set(kept.channels) == {(tx, rx) for tx in "AC" for rx in "BD"}
    assert all(kept.channels[pair] is scn.channels[pair] for pair in kept.channels)
    assert [link.stream_id for link in kept.links] == ["A->B", "C->D"]


def test_scenario_receivers_and_lookup():
    scn = _two_link_scenario()
    assert scn.receivers == ("B", "D")
    assert scn.link_for_stream("C->D").tx_node == "C"
    with pytest.raises(ValueError, match="link not found"):
        scn.link_for_stream("nope")


def test_link_filter_selects_precoding():
    scn = _two_link_scenario()
    tr = link_filter(scn, scn.links[0])
    assert len(tr.samples) == len(scn.channels[("A", "B")].samples)
    plain = LinkSpec("A", "B", "none", 0.0)
    ident = link_filter(scn, plain)
    assert np.array_equal(ident.samples, np.array([1.0 + 0.0j]))


def test_propagate_superposes_linearly():
    scn = _two_link_scenario()
    rng = np.random.default_rng(0)
    streams = {
        "A->B": modulate_ask(rng.integers(0, 2, 50), MOD),
        "C->D": modulate_ask(rng.integers(0, 2, 50), MOD),
    }
    both = propagate(scn, streams, seed=5)
    only_a = propagate(scn, {"A->B": streams["A->B"]}, seed=5)
    only_c = propagate(scn, {"C->D": streams["C->D"]}, seed=5)
    for rx in ("B", "D"):
        combined = only_a[rx].samples + only_c[rx].samples
        assert np.max(np.abs(both[rx].samples - combined)) < 1e-12


def test_propagate_noise_is_reproducible_and_calibrated():
    scn = _two_link_scenario(noise=NoiseSpec.explicit(-20.0))
    silence = Waveform(np.zeros(1_000_000), DT)
    rx1 = propagate(scn, {"A->B": silence}, seed=42)
    rx2 = propagate(scn, {"A->B": silence}, seed=42)
    assert np.array_equal(rx1["B"].samples, rx2["B"].samples)
    rx3 = propagate(scn, {"A->B": silence}, seed=43)
    assert not np.array_equal(rx1["B"].samples, rx3["B"].samples)
    # per-sample complex noise power should land on the configured level
    measured = np.mean(np.abs(rx1["B"].samples) ** 2)
    assert measured == pytest.approx(1e-5, rel=0.02)


def test_propagate_rejects_bad_input():
    scn = _two_link_scenario()
    with pytest.raises(ValueError, match="no streams"):
        propagate(scn, {}, seed=0)
    wave = modulate_ask([1, 0], MOD)
    with pytest.raises(ValueError, match="link not found"):
        propagate(scn, {"ghost": wave}, seed=0)
    with pytest.raises(ValueError, match="seed"):
        propagate(scn, {"A->B": wave}, seed=-1)
    off_grid = Waveform(wave.samples, 2 * DT)
    with pytest.raises(ValueError, match="grid mismatch"):
        propagate(scn, {"A->B": off_grid}, seed=0)


def test_effective_response_hand_values():
    # h = [1, 0.5] at one sample per symbol: peak sqrt(1.25), two ISI taps
    mod1 = ModParams(bit_rate=50e9, samples_per_symbol=1)
    h = Cir(np.array([1.0, 0.5]), mod1.sample_interval, "h")
    offset, taps = effective_response(make_tr_filter(h), h, mod1)
    root = math.sqrt(1.25)
    assert np.allclose(np.abs(taps), [0.5 / root, root, 0.5 / root], atol=1e-12)
    assert offset == 1
    assert abs(taps[offset] - root) < 1e-12
    assert not taps.flags.writeable


@pytest.mark.parametrize("sps, splits", [(1, 0), (2, 20), (3, 11), (4, 20)])
def test_tr_own_response_peaks_at_an_instant_and_its_mirror(sps, splits):
    # r = h * conj(reversed h) * rect(sps) has |r[j]| = |r[L - j]| with
    # L = 2(N - 1) + sps - 1, so the peak is reached twice. At even sps the
    # two instants lie on different symbol phases, and argmax picks one of
    # them by rounding.
    mod = ModParams(bit_rate=200e9 / sps, samples_per_symbol=sps)
    params = ReverbParams(mod.sample_interval, 64, 100e-12, 500e-12)
    split = 0
    for seed in range(20):
        cir = synth_reverberant(seed, params)
        g = make_tr_filter(cir)
        r = full_rate_response(g, cir, mod)
        mags = np.abs(r)
        assert r.size == 2 * (cir.samples.size - 1) + sps
        assert np.max(np.abs(mags - mags[::-1])) <= 1e-15 * mags.max()
        offset, _ = effective_response(g, cir, mod)
        mirror = r.size - 1 - offset
        assert mags[offset] == mags.max()
        assert mags[mirror] >= (1 - 1e-15) * mags[offset]
        split += mirror % sps != offset % sps
    assert split == splits


def test_full_rate_response_matches_numpy_convolve():
    cir = _chan(6)
    f = make_tr_filter(cir)
    r = full_rate_response(f, cir, MOD)
    pulse = np.ones(MOD.samples_per_symbol)
    direct = np.convolve(np.convolve(cir.samples, f.samples), pulse)
    assert r.shape == direct.shape
    assert np.max(np.abs(r - direct)) < 1e-12


def test_full_rate_response_demands_shared_grid():
    cir = _chan(6)
    f = make_tr_filter(Cir(cir.samples, 2 * DT))
    with pytest.raises(ValueError, match="grid mismatch"):
        full_rate_response(f, cir, MOD)


def test_tr_decision_tap_dominates():
    # matched filtering makes the aligned tap the largest in magnitude
    for seed in range(8):
        cir = _chan(seed)
        offset, taps = effective_response(make_tr_filter(cir), cir, MOD)
        assert np.argmax(np.abs(taps)) == offset // MOD.samples_per_symbol


# The README demo's channels, on the grid of 50 Gb/s at 1 sample per symbol.
_DEMO_AT_ONE_SPS = ReverbParams(
    sample_interval=20e-12, num_taps=64, rms_delay_spread_target=100e-12, max_delay=500e-12
)


@pytest.mark.parametrize("precoding", ["tr", "none"])
def test_unit_power_energies_at_one_sample_per_symbol_are_exact(precoding):
    # At 1 sample per symbol every tap of a response is a symbol tap. So TR's
    # decision tap is the own channel's energy; without precoding, the own
    # taps carry the own channel's energy and an interferer's taps the
    # interfering channel's.
    energy = _DEMO_AT_ONE_SPS.total_energy
    worst = 0.0
    for seed in range(100):
        channels = realize_channels(dict.fromkeys([(tx, rx) for tx in "AC" for rx in "BD"], _DEMO_AT_ONE_SPS), seed)
        links = (LinkSpec("A", "B", precoding, 0.0), LinkSpec("C", "D", precoding, 0.0))
        scenario = Scenario(channels, links, NoiseSpec.thermal(300.0, 50e9), ModParams(50e9, 1))
        table = scenario.responses
        for (victim, stream), taps in table.taps.items():
            mags = np.abs(taps) ** 2
            if victim == stream:
                # At one sample per symbol the decision offset indexes the decision tap.
                signal = mags[table.offsets[victim]]
                worst = max(worst, abs(signal - energy if precoding == "tr" else mags.sum() - energy))
            elif precoding == "none":
                worst = max(worst, abs(mags.sum() - energy))
    assert worst <= 1e-12


# The README demo's channel parameters on their own 5 ps grid.
_DEMO_ON_ITS_GRID = ReverbParams(
    sample_interval=5e-12, num_taps=64, rms_delay_spread_target=100e-12, max_delay=500e-12
)


@pytest.mark.parametrize("sps", [1, 4])
def test_tr_cross_response_energy_is_sps_times_total_energy_over_the_ensemble(sps):
    # For independent own and cross channels, a unit-energy TR filter of the own
    # channel spreads the cross channel's energy, and the rect pulse of sps
    # samples multiplies it by sps on average: E sum|r|^2 = sps * total_energy.
    mod = ModParams(bit_rate=1.0 / (_DEMO_ON_ITS_GRID.sample_interval * sps), samples_per_symbol=sps)
    assert same_grid(mod.sample_interval, _DEMO_ON_ITS_GRID.sample_interval)
    draws = 1000
    energies = np.empty(draws)
    for i in range(draws):
        own, cross = (synth_reverberant(2 * i + k, _DEMO_ON_ITS_GRID) for k in (0, 1))
        r = full_rate_response(make_tr_filter(own), cross, mod)
        energies[i] = np.sum(np.abs(r) ** 2)
    mean = energies.mean()
    standard_error = energies.std(ddof=1) / math.sqrt(draws)
    assert abs(mean - sps * _DEMO_ON_ITS_GRID.total_energy) <= 4.0 * standard_error, (mean, standard_error)


def _standard_errors_off(samples, expected, scale=1.0):
    """How many standard errors the mean of ``scale`` x ``samples`` lies from ``expected``."""
    return (scale * samples.mean() - expected) / (scale * samples.std(ddof=1) / math.sqrt(samples.size))


@pytest.mark.parametrize("precoding, sps, draws", [("tr", 1, 500), ("tr", 4, 1000), ("none", 4, 1000)])
def test_mean_cochannel_energy_on_the_decision_phase_is_total_energy(precoding, sps, draws):
    # An interferer's taps at a victim sample s = c * g, its channel to the
    # victim's receiver through its pre-filter, in windows of sps samples
    # that tile s, one per symbol of the victim's decision phase. With c
    # independent of g and of the victim's own link, distinct taps of c
    # uncorrelated, and g of unit energy with uncorrelated taps (TR of an
    # independent channel, or the identity), E sum|taps|^2 = E||c||^2 =
    # total_energy. Without precoding at one sample per symbol it holds per
    # draw (test_unit_power_energies_at_one_sample_per_symbol_are_exact).
    mod = ModParams(bit_rate=1.0 / (_DEMO_ON_ITS_GRID.sample_interval * sps), samples_per_symbol=sps)
    energies = np.empty(draws)
    for i in range(draws):
        channels = realize_channels(dict.fromkeys([(tx, rx) for tx in "AC" for rx in "BD"], _DEMO_ON_ITS_GRID), i)
        links = (LinkSpec("A", "B", precoding, 0.0), LinkSpec("C", "D", precoding, 0.0))
        scenario = Scenario(channels, links, NoiseSpec.thermal(300.0, mod.bit_rate), mod)
        taps = scenario.responses.taps
        # Each link is the victim of the other once; their mean is one sample per draw.
        energies[i] = np.mean([np.sum(np.abs(taps[pair]) ** 2) for pair in (("A->B", "C->D"), ("C->D", "A->B"))])
    expected = _DEMO_ON_ITS_GRID.total_energy
    assert abs(_standard_errors_off(energies, expected)) <= 4.0
    # The draws are enough to see a 5% error either way.
    assert min(abs(_standard_errors_off(energies, expected, scale)) for scale in (1.05, 1 / 1.05)) > 4.0


def test_orthogonal_channels_leave_exact_null():
    # cross response of [1,1]/sqrt2 against the filter matched to
    # [1,-1]/sqrt2 is [-0.5, 0, +0.5]; the center cancels exactly
    mod1 = ModParams(bit_rate=50e9, samples_per_symbol=1)
    dt = mod1.sample_interval
    h1 = Cir(np.array([1.0, 1.0]) / math.sqrt(2), dt)
    h2 = Cir(np.array([1.0, -1.0]) / math.sqrt(2), dt)
    cross = full_rate_response(make_tr_filter(h2), h1, mod1)
    assert cross[1] == 0j
    assert np.allclose(cross, [-0.5, 0.0, 0.5], atol=1e-15)


def test_sinr_from_powers_degenerate_cases():
    assert sinr_from_powers(0.0, 1.0, 0.0, 0.0) == float("-inf")
    assert sinr_from_powers(1.0, 0.0, 0.0, 0.0) == float("inf")
    assert sinr_from_powers(2.0, 1.0, 0.5, 0.5) == pytest.approx(
        10.0 * math.log10(1.0), abs=1e-12
    )


def test_compute_sinr_hand_fixture():
    # single TR link over h=[1, 0.5], no noise: SINR = 1.25/0.4
    mod1 = ModParams(bit_rate=50e9, samples_per_symbol=1)
    h = Cir(np.array([1.0, 0.5]), mod1.sample_interval)
    link = LinkSpec("A", "B", "tr", 0.0)
    scn = Scenario({("A", "B"): h}, (link,), NoiseSpec.off(), mod1)
    rep = compute_sinr(scn, link)
    assert rep.signal_w == pytest.approx(1e-3 * 1.25, rel=1e-12)
    assert rep.isi_w == pytest.approx(1e-3 * 0.4, rel=1e-9)
    assert rep.cochannel_w == 0.0
    assert rep.noise_w == 0.0
    assert rep.sinr_db == pytest.approx(4.948500216800937, abs=1e-9)
    assert rep.per_interferer_w == {}


def test_compute_sinr_power_shifts_track_dbm():
    # signal and self-interference scale together with transmit power
    mod1 = ModParams(bit_rate=50e9, samples_per_symbol=1)
    h = Cir(np.array([1.0, 0.5]), mod1.sample_interval)
    base = LinkSpec("A", "B", "tr", 0.0)
    hot = LinkSpec("A", "B", "tr", 10.0)
    scn_base = Scenario({("A", "B"): h}, (base,), NoiseSpec.explicit(-40), mod1)
    scn_hot = Scenario({("A", "B"): h}, (hot,), NoiseSpec.explicit(-40), mod1)
    r0 = compute_sinr(scn_base, base)
    r1 = compute_sinr(scn_hot, hot)
    assert r1.signal_w == pytest.approx(10.0 * r0.signal_w, rel=1e-12)
    assert r1.isi_w == pytest.approx(10.0 * r0.isi_w, rel=1e-12)
    assert r1.noise_w == r0.noise_w


def test_compute_sinr_accounts_every_interferer():
    scn = _two_link_scenario()
    channels = dict(scn.channels)
    channels.update(
        {
            ("E", "B"): _chan(7, "E->B"),
            ("E", "D"): _chan(8, "E->D"),
            ("A", "F"): _chan(9, "A->F"),
            ("C", "F"): _chan(10, "C->F"),
            ("E", "F"): _chan(11, "E->F"),
        }
    )
    three = Scenario(
        channels,
        scn.links + (LinkSpec("E", "F", "tr", 3.0),),
        NoiseSpec.off(),
        MOD,
    )
    rep = compute_sinr(three, three.links[0])
    assert set(rep.per_interferer_w) == {"C->D", "E->F"}
    assert sum(rep.per_interferer_w.values()) == pytest.approx(rep.cochannel_w, rel=1e-12)
    assert all(v > 0.0 for v in rep.per_interferer_w.values())


def test_compute_sinr_rejects_foreign_link():
    scn = _two_link_scenario()
    with pytest.raises(ValueError, match="link not found"):
        compute_sinr(scn, LinkSpec("A", "D", "tr", 0.0))
    mutated = LinkSpec("A", "B", "tr", 9.0)
    with pytest.raises(ValueError, match="not part of the scenario"):
        compute_sinr(scn, mutated)


def _loop_sinr(scenario, link):
    """compute_sinr as a per-link loop that rebuilds every filter and response."""
    mod = scenario.mod_params
    sps = mod.samples_per_symbol
    offset, taps = effective_response(
        link_filter(scenario, link), scenario.channels[(link.tx_node, link.rx_node)], mod
    )
    z = offset // sps
    mags = np.abs(taps) ** 2
    p_own = dbm_to_watts(link.tx_power_dbm)
    signal_w = p_own * abs(complex(taps[z])) ** 2
    isi_w = p_own * float(mags.sum() - mags[z])
    per_interferer = {}
    for other in scenario.links:
        if other.stream_id == link.stream_id:
            continue
        r = full_rate_response(
            link_filter(scenario, other), scenario.channels[(other.tx_node, link.rx_node)], mod
        )
        q = r[offset % sps :: sps]
        per_interferer[other.stream_id] = dbm_to_watts(other.tx_power_dbm) * float(
            np.sum(np.abs(q) ** 2)
        )
    return SinrReport(signal_w, isi_w, scenario.noise.watts, per_interferer)


def _tap_sum_sinr(scenario, link):
    """compute_sinr as it was when it summed the table's taps itself, at every call."""
    table = scenario.responses
    sid = link.stream_id
    own = table.taps[(sid, sid)]
    z = table.offsets[sid] // scenario.mod_params.samples_per_symbol
    mags = np.abs(own) ** 2
    signal_w = link.tx_power_w * abs(complex(own[z])) ** 2
    isi_w = link.tx_power_w * float(mags.sum() - mags[z])
    per_interferer = {
        other.stream_id: other.tx_power_w * float(np.sum(np.abs(table.taps[(sid, other.stream_id)]) ** 2))
        for other in scenario.links
        if other.stream_id != sid
    }
    return SinrReport(signal_w, isi_w, scenario.noise.watts, per_interferer)


_DBM_ROWS = st.lists(st.floats(-30.0, 30.0), min_size=3, max_size=3)


@settings(max_examples=40, deadline=None)
@given(
    scatter=st.booleans(),
    n_links=st.integers(1, 3),
    precoding=st.sampled_from(["tr", "none"]),
    sps=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    powers=st.lists(_DBM_ROWS, min_size=1, max_size=4),
)
def test_weighted_reports_equal_the_tap_sums_bitwise(scatter, n_links, precoding, sps, seed, powers):
    # The first row of powers builds the scenario; each later one re-powers the last.
    mod = ModParams(bit_rate=50e9 * 4 / sps, samples_per_symbol=sps)
    txs = "S" * n_links if scatter else "ACE"[:n_links]
    rxs = "BDF"[:n_links]
    params = ReverbParams(DT, 24, 50e-12, 400e-12)
    channels = realize_channels({(tx, rx): params for tx in set(txs) for rx in rxs}, seed)
    links = tuple(LinkSpec(tx, rx, precoding, p) for tx, rx, p in zip(txs, rxs, powers[0]))
    chain = [Scenario(channels, links, NoiseSpec.explicit(-45.0), mod)]
    for row in powers[1:]:
        chain.append(chain[-1].with_powers({link.stream_id: p for link, p in zip(links, row)}))
    table = chain[0].responses
    for link in links:
        sid = link.stream_id
        assert table.peaks[sid] == complex(table.taps[(sid, sid)][table.offsets[sid] // sps])
    for scenario in chain:
        assert scenario.responses.energies is table.energies
        for link in scenario.links:
            got, want = compute_sinr(scenario, link), _tap_sum_sinr(scenario, link)
            assert (got.signal_w, got.isi_w, got.noise_w) == (want.signal_w, want.isi_w, want.noise_w)
            assert list(got.per_interferer_w.items()) == list(want.per_interferer_w.items())


def _multi_link_scenario(n_links, precoding):
    txs, rxs = "ACE"[:n_links], "BDF"[:n_links]
    channels = {
        (tx, rx): _chan(10 * i + j, f"{tx}->{rx}")
        for i, tx in enumerate(txs)
        for j, rx in enumerate(rxs)
    }
    links = tuple(
        LinkSpec(tx, rx, precoding, power)
        for tx, rx, power in zip(txs, rxs, (0.0, 3.0, -7.5))
    )
    return Scenario(channels, links, NoiseSpec.explicit(-45.0), MOD)


def _orthogonal_scenario():
    # The interferer's cross response toward B is [1, 0, 0, 0, -1]/2 at two
    # samples per symbol: zero, after exact cancellation, at every sample of
    # the victim's decision phase.
    mod2 = ModParams(bit_rate=50e9, samples_per_symbol=2)
    dt = mod2.sample_interval
    channels = {
        ("A", "B"): Cir(np.array([1.0, 1.0]) / math.sqrt(2), dt),
        ("A", "D"): Cir(np.array([1.0, 1.0]) / math.sqrt(2), dt),
        ("C", "B"): Cir(np.array([1.0, -1.0]) / math.sqrt(2), dt),
        ("C", "D"): Cir(np.array([1.0, 0.0, 1.0]) / math.sqrt(2), dt),
    }
    links = (LinkSpec("A", "B", "tr", 0.0), LinkSpec("C", "D", "tr", 0.0))
    return Scenario(channels, links, NoiseSpec.off(), mod2)


def _oracle_cases():
    for n_links in (1, 2, 3):
        for precoding in ("tr", "none"):
            yield f"{n_links}-link-{precoding}", _multi_link_scenario(n_links, precoding)
    # One transmitter's 6 dBm budget split over three receivers.
    scatter_channels = {("S", rx): _chan(20 + i, f"S->{rx}") for i, rx in enumerate("BCD")}
    scatter_links = tuple(LinkSpec("S", rx, "tr", split_power_dbm(6.0, 3)) for rx in "BCD")
    yield "scatter", Scenario(scatter_channels, scatter_links, NoiseSpec.thermal(300.0, 50e9), MOD)


def _table_cases():
    yield from _oracle_cases()
    yield "orthogonal", _orthogonal_scenario()


@pytest.mark.parametrize("name, scenario", list(_table_cases()))
def test_compute_sinr_table_equals_per_link_loop(name, scenario):
    for link in scenario.links:
        assert compute_sinr(scenario, link) == _loop_sinr(scenario, link)


def _symbol_rate_decisions(scenario, symbols, amplitudes, victim, count):
    """A victim's first ``count`` noiseless decision samples, at symbol rate from the table's taps.

    d[k] = sum over streams s of a_s * (sym_s * taps[(victim, s)])[offsets[victim] // sps + k],
    zero where a stream's convolution has ended.
    """
    table = scenario.responses
    z = table.offsets[victim] // scenario.mod_params.samples_per_symbol
    d = np.zeros(count, dtype=np.complex128)
    for sid, sym in symbols.items():
        part = amplitudes[sid] * np.convolve(sym, table.taps[(victim, sid)])[z : z + count]
        d[: part.size] += part
    return d


# Streams of 150 symbols fit one transform; streams of 1500 go in blocks.
@pytest.mark.parametrize("n_symbols", [150, 1500])
@pytest.mark.parametrize("name, scenario", list(_oracle_cases()))
def test_symbol_rate_taps_give_propagates_decision_samples(name, scenario, n_symbols):
    # Each stream is its symbols, shaped, precoded and scaled by a_s = sqrt(P_s / mean
    # power of the precoded stream). Sampled on a victim's decision phase, the
    # superposition is a symbol-rate convolution of each stream's symbols with the
    # taps it delivers at the victim's receiver.
    scenario = dataclasses.replace(scenario, noise=NoiseSpec.off())
    mod = scenario.mod_params
    sps = mod.samples_per_symbol
    table = scenario.responses
    rng = np.random.default_rng(n_symbols)
    symbols, amplitudes, streams = {}, {}, {}
    for i, link in enumerate(scenario.links):
        sid = link.stream_id
        modulated = modulate_ask(rng.integers(0, 2, size=n_symbols + 37 * i), mod)
        shaped = precode(modulated, table.filters[sid])
        symbols[sid] = modulated.samples[::sps]
        mean_power = np.sum(np.abs(shaped.samples) ** 2) / shaped.samples.size
        amplitudes[sid] = math.sqrt(dbm_to_watts(link.tx_power_dbm) / mean_power)
        streams[sid] = scale_to_power(shaped, link.tx_power_dbm)
    taps = _longest_channel(scenario)
    n_out = max(x.samples.size for x in streams.values()) + taps - 1
    assert (n_out > block_len(taps)) == (n_symbols == 1500)
    received = propagate(scenario, streams, seed=0)
    for link in scenario.links:
        y = received[link.rx_node].samples[table.offsets[link.stream_id] :: sps]
        d = _symbol_rate_decisions(scenario, symbols, amplitudes, link.stream_id, y.size)
        assert np.max(np.abs(d - y)) <= 1e-12 * np.max(np.abs(y))


def test_orthogonal_scenario_keeps_exact_null():
    scn = _orthogonal_scenario()
    assert np.all(scn.responses.taps[("A->B", "C->D")] == 0)
    assert compute_sinr(scn, scn.links[0]).per_interferer_w == {"C->D": 0.0}


def test_with_powers_matches_scenario_built_at_those_powers():
    scn = _multi_link_scenario(3, "tr")
    powers = {"A->B": 4.0, "E->F": -2.0}
    repowered = scn.with_powers(powers)
    fresh = Scenario(
        scn.channels,
        tuple(
            LinkSpec(l.tx_node, l.rx_node, l.precoding, powers.get(l.stream_id, l.tx_power_dbm))
            for l in scn.links
        ),
        scn.noise,
        scn.mod_params,
    )
    assert repowered == fresh
    assert repowered.responses is scn.responses
    for a, b in zip(repowered.links, fresh.links):
        assert compute_sinr(repowered, a) == compute_sinr(fresh, b)
    with pytest.raises(ValueError, match="link not found"):
        scn.with_powers({"X->Y": 0.0})


def test_scenario_computes_each_sinr_report_once(monkeypatch):
    scn = _multi_link_scenario(3, "tr")
    calls = []
    original = linksim.compute_sinr
    monkeypatch.setattr(
        linksim, "compute_sinr", lambda scenario, link: calls.append(link) or original(scenario, link)
    )
    assert dict(scn.sinr) == {link.stream_id: original(scn, link) for link in scn.links}
    assert scn.sinr is scn.sinr
    assert calls == list(scn.links)
    # A re-powered scenario shares the response table, not the reports.
    repowered = scn.with_powers({"A->B": 4.0})
    assert repowered.responses is scn.responses
    assert repowered.sinr["A->B"] == original(repowered, repowered.links[0]) != scn.sinr["A->B"]
    assert repowered.sinr["C->D"].per_interferer_w != scn.sinr["C->D"].per_interferer_w


def _at_powers(scenario, powers):
    """The scenario rebuilt with these link powers, response table included."""
    links = tuple(dataclasses.replace(l, tx_power_dbm=p) for l, p in zip(scenario.links, powers))
    return dataclasses.replace(scenario, links=links)


@settings(max_examples=30, deadline=None)
@given(
    n_links=st.integers(1, 3),
    precoding=st.sampled_from(["tr", "none"]),
    powers=st.lists(st.floats(-30.0, 30.0), min_size=3, max_size=3),
    mover=st.integers(0, 2),
    step_db=st.floats(-20.0, 20.0),
)
def test_sinr_components_scale_with_the_power_behind_them(n_links, precoding, powers, mover, step_db):
    base = _multi_link_scenario(n_links, precoding)
    mover %= n_links
    moved = base.links[mover].stream_id
    before = _at_powers(base, powers)
    after = _at_powers(base, [p + step_db * (i == mover) for i, p in enumerate(powers)])
    gain = dbm_to_watts(powers[mover] + step_db) / dbm_to_watts(powers[mover])
    for link in base.links:
        r0, r1 = before.sinr[link.stream_id], after.sinr[link.stream_id]
        # Signal and ISI follow the link's own power ...
        own = gain if link.stream_id == moved else 1.0
        assert r1.signal_w == pytest.approx(own * r0.signal_w, rel=1e-12)
        assert r1.isi_w == pytest.approx(own * r0.isi_w, rel=1e-12)
        # ... each interferer term follows that interferer's power alone ...
        assert r1.per_interferer_w.keys() == r0.per_interferer_w.keys()
        for other, w in r0.per_interferer_w.items():
            assert r1.per_interferer_w[other] == pytest.approx((gain if other == moved else 1.0) * w, rel=1e-12)
        # ... and noise follows none of them.
        assert r1.noise_w == r0.noise_w


_OFF_GRID = st.floats(0.25, 4.0).filter(lambda f: not same_grid(f * DT, DT)) | st.sampled_from(
    [1.0 + 1e-8, 1.0 - 1e-8, 2.0, 0.5]
)


@settings(max_examples=30, deadline=None)
@given(factor=_OFF_GRID, which=st.integers(0, 3))
def test_off_grid_channels_and_streams_are_rejected(factor, which):
    scn = _two_link_scenario()
    pair = sorted(scn.channels)[which]
    channels = dict(scn.channels)
    channels[pair] = Cir(channels[pair].samples, factor * DT, "off-grid")
    with pytest.raises(ValueError, match="grid mismatch"):
        Scenario(channels, scn.links, scn.noise, MOD)
    with pytest.raises(ValueError, match="grid mismatch"):
        propagate(scn, {scn.links[which % 2].stream_id: Waveform(np.ones(16), factor * DT)}, 0)


def _direct_propagate(scenario, streams, seed):
    """propagate as direct convolutions per (stream, receiver) plus the same noise draws."""
    n_watts = scenario.noise.watts
    out = {}
    for rx_index, rx in enumerate(scenario.receivers):
        parts = [
            np.convolve(scenario.channels[(link.tx_node, rx)].samples, streams[link.stream_id].samples)
            for link in scenario.links
            if link.stream_id in streams
        ]
        y = np.zeros(max(p.size for p in parts), dtype=np.complex128)
        for p in parts:
            y[: p.size] += p
        if n_watts > 0.0:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), rx_index)))
            y = y + math.sqrt(n_watts / 2.0) * (
                rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size)
            )
        out[rx] = y
    return out


def _random_scenario(n_links, channel_lengths, seed, noise):
    """n_links disjoint pairs over channels of the given lengths; length 1 is a unit tap."""
    rng = np.random.default_rng(seed)
    txs, rxs = "ACEGI"[:n_links], "BDFHJ"[:n_links]
    assert len(txs) == n_links, "at most five links"
    lengths = iter(channel_lengths)
    channels = {}
    for tx in txs:
        for rx in rxs:
            n = next(lengths)
            h = np.ones(1) if n == 1 else rng.standard_normal(n) + 1j * rng.standard_normal(n)
            channels[(tx, rx)] = Cir(h, DT, f"{tx}->{rx}")
    links = tuple(LinkSpec(tx, rx, "none", 0.0) for tx, rx in zip(txs, rxs))
    return Scenario(channels, links, noise, MOD)


@st.composite
def _propagation_cases(draw):
    n_links = draw(st.integers(1, 3))
    lengths = draw(st.lists(st.integers(1, 60), min_size=n_links**2, max_size=n_links**2))
    seed = draw(st.integers(0, 2**32 - 1))
    scenario = _random_scenario(n_links, lengths, seed, NoiseSpec.off())
    rng = np.random.default_rng(seed + 1)
    present = draw(
        st.lists(st.sampled_from([l.stream_id for l in scenario.links]), min_size=1, unique=True)
    )
    streams = {}
    for sid in present:
        n = draw(st.integers(1, 9000))
        streams[sid] = Waveform(rng.standard_normal(n) + 1j * rng.standard_normal(n), DT)
    return scenario, streams


def _tolerance(received):
    """1e-12 relative to the largest received magnitude."""
    return 1e-12 * max(np.max(np.abs(y)) for y in received.values())


def test_propagate_of_a_subset_blocks_by_the_longest_channel_it_uses(monkeypatch):
    # Stream C->D reaches its receivers through 1- and 33-tap channels. The
    # 1001-tap A->B, which it does not use, sets no transform length.
    scenario = _random_scenario(2, [1001, 7, 1, 33], 5, NoiseSpec.explicit(-10.0))
    assert block_len(33) < block_len(1001)
    lengths = []
    original = chanmodel.block_spectra
    monkeypatch.setattr(chanmodel, "block_spectra", lambda x, m, step: lengths.append(m) or original(x, m, step))
    n = 3 * block_len(33)
    rng = np.random.default_rng(6)
    streams = {"C->D": Waveform(rng.standard_normal(n) + 1j * rng.standard_normal(n), DT)}
    got = propagate(scenario, streams, seed=8)
    assert set(lengths) == {block_len(33)}
    want = _direct_propagate(scenario, streams, seed=8)
    for rx in scenario.receivers:
        assert got[rx].samples.shape == want[rx].shape
        assert np.max(np.abs(got[rx].samples - want[rx])) <= _tolerance(want)


@settings(max_examples=40, deadline=None)
@given(_propagation_cases())
def test_propagate_matches_direct_convolution(case):
    # Covers subsets of the streams, unequal stream lengths, and unequal
    # channel lengths down to a 1-tap unit channel.
    scenario, streams = case
    got = propagate(scenario, streams, seed=3)
    want = _direct_propagate(scenario, streams, seed=3)
    tol = _tolerance(want)
    for rx in scenario.receivers:
        assert got[rx].samples.shape == want[rx].shape
        assert np.max(np.abs(got[rx].samples - want[rx])) <= tol


@settings(max_examples=25, deadline=None)
@given(
    n_links=st.integers(1, 3),
    lengths=st.lists(st.integers(1, 500), min_size=9, max_size=9),
    stream_fractions=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_propagate_with_long_channels_and_short_streams(n_links, lengths, stream_fractions, seed):
    # Streams no longer than the longest channel: one transform, whose
    # length the channel rather than the stream sets.
    scenario = _random_scenario(n_links, lengths, seed, NoiseSpec.off())
    taps = max(lengths[: n_links**2])
    rng = np.random.default_rng(seed + 1)
    streams = {}
    for link, fraction in zip(scenario.links, stream_fractions):
        n = 1 + int(fraction * (taps - 1))
        streams[link.stream_id] = Waveform(rng.standard_normal(n) + 1j * rng.standard_normal(n), DT)
    got = propagate(scenario, streams, seed=0)
    want = _direct_propagate(scenario, streams, seed=0)
    tol = _tolerance(want)
    for rx in scenario.receivers:
        assert got[rx].samples.shape == want[rx].shape
        assert np.max(np.abs(got[rx].samples - want[rx])) <= tol


@pytest.mark.parametrize("excess", [-1, 0, 1, 2])
def test_propagate_around_the_one_transform_limit(excess):
    # longest stream + longest channel - 1 = block length + excess: one
    # transform up to one overlap-add block, overlap-add past it.
    scenario = _random_scenario(2, [401, 7, 1, 33], 4, NoiseSpec.explicit(-10.0))
    taps = _longest_channel(scenario)
    n = block_len(taps) + excess - taps + 1
    rng = np.random.default_rng(excess + 10)
    streams = {
        "A->B": Waveform(rng.standard_normal(n) + 1j * rng.standard_normal(n), DT),
        "C->D": Waveform(rng.standard_normal(n // 3) + 0j, DT),
    }
    got = propagate(scenario, streams, seed=8)
    want = _direct_propagate(scenario, streams, seed=8)
    tol = _tolerance(want)
    for rx in scenario.receivers:
        assert got[rx].samples.shape == want[rx].shape
        assert np.max(np.abs(got[rx].samples - want[rx])) <= tol


@settings(max_examples=25, deadline=None)
@given(_propagation_cases())
def test_propagate_superposition_is_exact_and_order_free(case):
    scenario, streams = case
    together = propagate(scenario, streams, seed=0)
    reordered = propagate(scenario, dict(reversed(list(streams.items()))), seed=0)
    tol = _tolerance({rx: w.samples for rx, w in together.items()})
    for rx in scenario.receivers:
        assert np.array_equal(together[rx].samples, reordered[rx].samples)
        total = np.zeros_like(together[rx].samples)
        for sid, waveform in streams.items():
            part = propagate(scenario, {sid: waveform}, seed=0)[rx].samples
            total[: part.size] += part
        assert np.max(np.abs(together[rx].samples - total)) <= tol


@settings(max_examples=15, deadline=None)
@given(
    n_links=st.integers(1, 3),
    lengths=st.lists(st.integers(1, 60), min_size=9, max_size=9),
    stream_lengths=st.lists(st.integers(1, 5000), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_propagate_keeps_output_lengths_and_noise_draws(n_links, lengths, stream_lengths, seed):
    scenario = _random_scenario(n_links, lengths, seed, NoiseSpec.explicit(-10.0))
    silence = {
        link.stream_id: Waveform(np.zeros(n), DT) for link, n in zip(scenario.links, stream_lengths)
    }
    got = propagate(scenario, silence, seed=seed)
    want = _direct_propagate(scenario, silence, seed=seed)
    for rx in scenario.receivers:
        assert np.array_equal(got[rx].samples, want[rx])


def test_propagate_through_unit_tap_returns_the_stream():
    scenario = _random_scenario(2, [1, 30, 45, 1], 9, NoiseSpec.off())
    rng = np.random.default_rng(2)
    x = rng.standard_normal(70_000) + 1j * rng.standard_normal(70_000)
    got = propagate(scenario, {"A->B": Waveform(x, DT)}, seed=0)["B"].samples
    assert got.size == x.size
    assert np.max(np.abs(got - x)) <= 1e-12 * np.max(np.abs(x))


def test_response_table_holds_responses_only():
    scenario = _two_link_scenario()
    table = scenario.responses
    assert [f.name for f in dataclasses.fields(table)] == ["filters", "offsets", "taps", "peaks", "energies"]
    ids = [link.stream_id for link in scenario.links]
    assert set(table.taps) == {(victim, stream) for victim in ids for stream in ids}
    for taps in table.taps.values():
        assert not taps.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            taps[0] = 0.0
    # Power is not in the table: a repowered scenario shares this one, energies included.
    repowered = scenario.with_powers({"A->B": 7.0})
    assert repowered.responses is table
    assert repowered.responses.energies is table.energies


def test_propagate_reads_each_channels_own_spectra(monkeypatch):
    # Two scenarios over the same channels: the second propagate transforms
    # only its stream, and the spectra cached on each channel equal one
    # block_spectra row.
    scenario = _two_link_scenario()
    other = Scenario(scenario.channels, scenario.links[:1], scenario.noise, MOD)
    rng = np.random.default_rng(3)
    streams = {sid: Waveform(rng.standard_normal(300) + 0j, DT) for sid in ("A->B", "C->D")}
    propagate(scenario, streams, seed=0)
    (m,) = scenario.channels[("A", "B")]._spectra
    for h in scenario.channels.values():
        assert list(h._spectra) == [m]
        assert h.spectra(m).tobytes() == block_spectra(h.samples, m, m).tobytes()
    cached = scenario.channels[("A", "B")].spectra(m)
    transformed = []
    original = chanmodel.block_spectra
    monkeypatch.setattr(chanmodel, "block_spectra", lambda x, *a: transformed.append(x) or original(x, *a))
    propagate(other, {"A->B": streams["A->B"]}, seed=0)
    assert [x.tobytes() for x in transformed] == [streams["A->B"].samples.tobytes()]
    assert scenario.channels[("A", "B")].spectra(m) is cached


def _per_receiver_block_sums(scenario, streams, seed):
    """propagate on the block path, each receiver summed in an accumulator of its own.

    Block by block, in stream-id order, with the products and shapes
    ``convolve_sum`` uses; then the same inverse, cut and noise.
    """
    present = [scenario.link_for_stream(sid) for sid in sorted(streams)]
    taps = max(scenario.channels[(l.tx_node, rx)].samples.size for l in present for rx in scenario.receivers)
    m = block_len(taps)
    step = m - taps + 1
    xs = [streams[link.stream_id].samples for link in present]
    blocks = [block_spectra(x, m, step) for x in xs]
    n = max(x.size for x in xs) + taps - 1
    out = {}
    for r, rx in enumerate(scenario.receivers):
        acc = np.zeros((max(map(len, blocks)), m), dtype=np.complex128)
        channels = [scenario.channels[(link.tx_node, rx)] for link in present]
        for h, x in zip(channels, blocks):
            for b in range(len(x)):
                acc[b : b + 1] += x[b : b + 1] * h.spectra(m)
        y = overlap_add(acc, step, n)
        y = y[: max(x.size + h.samples.size for h, x in zip(channels, xs)) - 1]
        linksim._add_noise(y, scenario.noise.watts, seed, r)
        out[rx] = y
    return out


def _three_link_scenario(precoding, noise):
    nodes = [("A", "B"), ("C", "D"), ("E", "F")]
    channels = {
        (tx, rx): _chan(11 + 3 * i + j) for i, (tx, _) in enumerate(nodes) for j, (_, rx) in enumerate(nodes)
    }
    links = tuple(LinkSpec(tx, rx, precoding, 0.0) for tx, rx in nodes)
    return Scenario(channels, links, noise, MOD)


def _scatter_scenario(precoding, noise):
    channels = {("A", rx): _chan(30 + i) for i, rx in enumerate("BCD")}
    links = tuple(LinkSpec("A", rx, precoding, split_power_dbm(0.0, 3)) for rx in "BCD")
    return Scenario(channels, links, noise, MOD)


# (scenario, blocks per present stream, in stream-id order); a block count
# b stands for a stream b * step - 5 samples long.
_RECEIVE_CASES = {
    "equal-2": (_three_link_scenario, (2, 2, 2)),
    "equal-3": (_three_link_scenario, (3, 3, 3)),
    "equal-5": (_three_link_scenario, (5, 5, 5)),
    "unequal": (_three_link_scenario, (2, 5, 3)),
    "subset": (_three_link_scenario, (4, None, 4)),
    "scatter": (_scatter_scenario, (3, 3, 2)),
}


@pytest.mark.parametrize("spectra", ["warm", "cold", "rerun"])
@pytest.mark.parametrize("noise", [NoiseSpec.off(), NoiseSpec.explicit(-10.0)], ids=["quiet", "noisy"])
@pytest.mark.parametrize("precoding", ["tr", "none"])
@pytest.mark.parametrize("case", sorted(_RECEIVE_CASES))
def test_block_path_receive_in_place_equals_per_receiver_sums_by_bytes(case, precoding, noise, spectra):
    # The receivers' sums overwrite the streams' own blocks (equal lengths),
    # or zeros: for a receiver past the present streams (subset), a shorter
    # stream (unequal) and a 3-receiver scatter of unequal streams. The
    # channels' block spectra are cached by the reference first (warm), or
    # by propagate itself (cold), which then runs again on the same streams
    # (rerun).
    make, counts = _RECEIVE_CASES[case]
    scenario = make(precoding, noise)
    table = scenario.responses
    taps = _longest_channel(scenario)
    step = block_len(taps) - taps + 1
    rng = np.random.default_rng(len(case))
    streams = {}
    for link, count in zip(sorted(scenario.links, key=lambda l: l.stream_id), counts):
        if count is not None:
            tx_filter = table.filters[link.stream_id]
            n = count * step - 4 - tx_filter.samples.size
            x = Waveform(rng.standard_normal(n) + 1j * rng.standard_normal(n), DT)
            streams[link.stream_id] = precode(x, tx_filter)
    assert len(scenario.receivers) == 3
    assert max(s.samples.size for s in streams.values()) + taps - 1 > block_len(taps)
    sent = {sid: s.samples.tobytes() for sid, s in streams.items()}
    if spectra == "warm":
        want = _per_receiver_block_sums(scenario, streams, seed=6)
    tx_nodes = [scenario.link_for_stream(sid).tx_node for sid in streams]
    used = [scenario.channels[(tx, rx)] for tx in tx_nodes for rx in scenario.receivers]
    assert [block_len(taps) in h._spectra for h in used] == [spectra == "warm"] * len(used)
    runs = [propagate(scenario, streams, seed=6) for _ in range(1 + (spectra == "rerun"))]
    if spectra != "warm":
        want = _per_receiver_block_sums(scenario, streams, seed=6)
    for got in runs:
        assert list(got) == list(scenario.receivers)
        for rx in got:
            assert got[rx].samples.tobytes() == want[rx].tobytes()
    # Propagation reads the sent streams and never writes them.
    assert {sid: s.samples.tobytes() for sid, s in streams.items()} == sent


def test_block_path_receive_holds_no_accumulator_per_receiver():
    # Two equal streams of 40 blocks to 2 receivers: their block spectra plus
    # at most 1 MiB of per-block scratch, not a third and fourth array of
    # their size for the receivers' sums.
    scenario = _two_link_scenario()
    taps = _longest_channel(scenario)
    m = block_len(taps)
    n = 40 * (m - taps + 1)
    rng = np.random.default_rng(4)
    streams = {
        sid: Waveform(rng.standard_normal(n) + 1j * rng.standard_normal(n), DT) for sid in ("A->B", "C->D")
    }
    for channel in scenario.channels.values():
        channel.spectra(m)
    tracemalloc.start()
    try:
        propagate(scenario, streams, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (40 * m * 16) + 2**20


def _one_pair_shift_add(x, y):
    """The shift-add convolution of one pair: loop over the shorter input, the second on a tie."""
    if len(y) > len(x):
        x, y = y, x
    out = np.zeros(len(x) + len(y) - 1, dtype=np.complex128)
    for k, coeff in enumerate(y):
        out[k : k + len(x)] += coeff * x
    return out


# Signed zeros and small integers make exact cancellations and -0.0 products
# likely; the random values cover the general case.
_TAP_PARTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), st.floats(-2.0, 2.0))
_TAPS = st.lists(st.builds(complex, _TAP_PARTS, _TAP_PARTS), min_size=1, max_size=40).map(
    lambda v: np.array(v, dtype=np.complex128)
)


# A one-element pair whose product rounds differently with and without a
# fused multiply-add, alone and stacked next to another pair.
_FMA_PAIR = tuple(
    np.array([complex(float.fromhex(re), float.fromhex(im))])
    for re, im in [
        ("0x1.c9d676a873e2dp-53", "0x1.4d9e2d241fb92p-201"),
        ("0x1.22508e81fa168p-263", "0x1.673269a56220bp-163"),
    ]
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_TAPS, _TAPS), min_size=1, max_size=6))
@example([_FMA_PAIR])
@example([(np.zeros(1, dtype=np.complex128), np.zeros(1, dtype=np.complex128)), _FMA_PAIR])
def test_stacked_shift_add_equals_each_pair_alone_bitwise(pairs):
    # Unequal lengths in both roles, so each pair is padded in x, in y or both.
    got = chanmodel._shift_add_conv(pairs)
    assert len(got) == len(pairs)
    for (x, y), r in zip(pairs, got):
        alone = chanmodel._shift_add_conv([(x, y)])[0]
        assert r.tobytes() == alone.tobytes() == _one_pair_shift_add(x, y).tobytes()


def _fresh_product_shift_add(pairs):
    """The stacked shift-add pass as it was, with a fresh product array for each coefficient row."""
    spans = [(a, b) if b.size <= a.size else (b, a) for a, b in pairs]
    x = np.zeros((max(a.size for a, _ in spans), len(spans)), dtype=np.complex128)
    y = np.zeros((max(b.size for _, b in spans), len(spans)), dtype=np.complex128)
    for p, (a, b) in enumerate(spans):
        x[: a.size, p] = a
        y[: b.size, p] = b
    out = np.zeros((len(x) + len(y) - 1, len(spans)), dtype=np.complex128)
    for k, coeff in enumerate(y[:, np.newaxis]):
        out[k : k + len(x)] += coeff * x
    return [out[: a.size + b.size - 1, p].copy() for p, (a, b) in enumerate(spans)]


def _random_taps(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


# Random taps of up to 500 samples, mixed with the short hand-picked ones.
_MIXED_TAPS = _TAPS | st.builds(_random_taps, st.integers(1, 500), st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_MIXED_TAPS, _MIXED_TAPS), min_size=1, max_size=8))
@example([_FMA_PAIR])
def test_shift_add_into_one_product_buffer_equals_fresh_products_bitwise(pairs):
    got = chanmodel._shift_add_conv(pairs)
    assert [r.tobytes() for r in got] == [r.tobytes() for r in _fresh_product_shift_add(pairs)]


def _response_pairs():
    """(filter, channel) pairs: swapped roles, a 1-tap identity filter, signed zeros."""
    short = Cir(np.array([0.5, -0.0 - 1j, 0.25]), DT, "short")
    long = _chan(7, "long")
    zeros = Cir(np.array([1.0, -0.0, 0.0 - 0.0j, -0.0 + 0.0j, -1.0]), DT, "zeros")
    unit = Cir(np.ones(1), DT, "unit")
    return [
        (make_tr_filter(long), short),  # filter longer than the channel
        (make_tr_filter(short), long),
        (make_tr_filter(long), long),  # a tie: the filter is the loop operand
        (make_identity_filter(long), long),  # a 1-tap filter
        (make_tr_filter(zeros), zeros),
        (make_tr_filter(unit), unit),  # a response shorter than the pulse
    ]


@pytest.mark.parametrize("sps", [1, 2, 4])
def test_full_rate_responses_stacked_equal_one_pair_and_loop_bitwise(sps):
    mod = ModParams(bit_rate=50e9 * 4 / sps, samples_per_symbol=sps)
    pairs = _response_pairs()
    assert pairs[3][0].samples.size == 1
    pulse = np.ones(sps, dtype=np.complex128)
    got = linksim._full_rate_responses(pairs, mod)
    for (tx_filter, channel), r in zip(pairs, got):
        loop = _one_pair_shift_add(_one_pair_shift_add(channel.samples, tx_filter.samples), pulse)
        alone = full_rate_response(tx_filter, channel, mod)
        assert r.tobytes() == alone.tobytes() == loop.tobytes()


def test_orthogonal_null_survives_stacking_with_longer_pairs():
    scn = _orthogonal_scenario()
    mod = scn.mod_params
    victim, other = scn.links
    cross = (scn.responses.filters[other.stream_id], scn.channels[("C", "B")])
    longer = Cir(_chan(4).samples, mod.sample_interval)
    r = linksim._full_rate_responses([(make_tr_filter(longer), longer), cross], mod)[1]
    phase = scn.responses.offsets[victim.stream_id] % mod.samples_per_symbol
    assert np.all(r[phase :: mod.samples_per_symbol] == 0)
    assert np.all(scn.responses.taps[(victim.stream_id, other.stream_id)] == 0)


def _single_draw_noise(y, n_watts, seed, rx_index):
    """Receiver noise drawn whole: real parts, then imaginary parts."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, rx_index)))
    draw = rng.standard_normal(y.size)
    draw *= math.sqrt(n_watts / 2.0)
    y.real += draw
    rng.standard_normal(out=draw)
    draw *= math.sqrt(n_watts / 2.0)
    y.imag += draw


@pytest.mark.parametrize(
    "n",
    [0, 1] + [k * linksim.NOISE_CHUNK + d for k in (1, 2) for d in (-1, 0, 1)],
)
def test_chunked_noise_equals_a_single_draw_bitwise(n):
    rng = np.random.default_rng(n)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    want = y.copy()
    _single_draw_noise(want, 1e-3, 7, 2)
    linksim._add_noise(y, 1e-3, 7, 2)
    assert y.tobytes() == want.tobytes()


def test_noise_off_leaves_the_signal_alone():
    y = np.array([1.0 - 0.0j, -0.0 + 2j, 0.0])
    before = y.tobytes()
    linksim._add_noise(y, NoiseSpec.off().watts, 7, 0)
    assert y.tobytes() == before


def _per_receiver_propagate(scenario, streams, seed):
    """The one-transform path receiver by receiver, with 1-D transforms and single noise draws."""
    present = sorted(
        (l for l in scenario.links if l.stream_id in streams), key=lambda l: l.stream_id
    )
    taps = max(c.samples.size for c in scenario.channels.values())
    m = fast_len(max(streams[l.stream_id].samples.size for l in present) + taps - 1)
    out = {}
    for i, rx in enumerate(scenario.receivers):
        acc = np.zeros(m, dtype=np.complex128)
        for link in present:
            acc += np.fft.fft(streams[link.stream_id].samples, m) * np.fft.fft(
                scenario.channels[(link.tx_node, rx)].samples, m
            )
        length = max(
            streams[l.stream_id].samples.size + scenario.channels[(l.tx_node, rx)].samples.size - 1
            for l in present
        )
        y = np.fft.ifft(acc)[:length]
        _single_draw_noise(y, scenario.noise.watts, seed, i)
        out[rx] = y
    return out


@pytest.mark.parametrize(
    "n_links, channel_lengths, stream_lengths",
    [
        (1, [401], [900]),
        (2, [401, 7, 1, 33], [900, 1300]),
        (3, [401, 7, 1, 33, 200, 64, 1, 9, 150], [900, 1300, 17]),
        # One-sample streams through unit taps: transforms of length one.
        (1, [1], [1]),
        (3, [1] * 9, [1, 1, 1]),
    ],
)
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_propagate_in_one_transform_receives_as_each_receiver_alone(
    n_links, channel_lengths, stream_lengths, seed
):
    # The stacked accumulate and the batched inverse give every receiver the
    # bytes of a 1-D transform per receiver.
    scenario = _random_scenario(n_links, channel_lengths, seed, NoiseSpec.explicit(-10.0))
    if set(channel_lengths) == {1}:
        scenario = dataclasses.replace(
            scenario,
            channels={
                pair: Cir(np.exp(1j * (seed + k)), DT) for k, pair in enumerate(scenario.channels)
            },
        )
    rng = np.random.default_rng(seed)
    streams = {
        link.stream_id: Waveform(rng.standard_normal(n) + 1j * rng.standard_normal(n), DT)
        for link, n in zip(scenario.links, stream_lengths)
    }
    assert max(stream_lengths) + max(channel_lengths) - 1 <= block_len(_longest_channel(scenario))
    got = propagate(scenario, streams, seed=11)
    want = _per_receiver_propagate(scenario, streams, 11)
    assert list(got) == list(scenario.receivers)
    for rx in got:
        assert got[rx].samples.tobytes() == want[rx].tobytes()


@st.composite
def _reordered_scenarios(draw):
    """A scenario, and the same scenario with its links and channel dict permuted."""
    n_links = draw(st.integers(1, 5))
    lengths = draw(st.lists(st.integers(1, 80), min_size=n_links**2, max_size=n_links**2))
    precodings = draw(st.lists(st.sampled_from(["tr", "none"]), min_size=n_links, max_size=n_links))
    seed = draw(st.integers(0, 2**32 - 1))
    base = _random_scenario(n_links, lengths, seed, NoiseSpec.explicit(-10.0))
    links = tuple(dataclasses.replace(l, precoding=p) for l, p in zip(base.links, precodings))
    scenario = dataclasses.replace(base, links=links)
    channel_order = draw(st.permutations(list(base.channels)))
    reordered = Scenario(
        {pair: base.channels[pair] for pair in channel_order},
        tuple(draw(st.permutations(links))),
        base.noise,
        base.mod_params,
    )
    rng = np.random.default_rng(seed + 1)
    streams = {}
    for link in links:
        n = draw(st.integers(1, 6000))
        streams[link.stream_id] = Waveform(rng.standard_normal(n) + 1j * rng.standard_normal(n), DT)
    return scenario, reordered, streams


@settings(max_examples=30, deadline=None)
@given(_reordered_scenarios())
def test_results_do_not_depend_on_link_or_channel_order(case):
    scenario, reordered, streams = case
    a, b = scenario.responses, reordered.responses
    assert dict(a.offsets) == dict(b.offsets) and set(a.taps) == set(b.taps)
    for pair, taps in a.taps.items():
        assert taps.tobytes() == b.taps[pair].tobytes()
    got = propagate(scenario, streams, seed=4)
    again = propagate(reordered, dict(reversed(list(streams.items()))), seed=4)
    assert list(got) == list(again)
    for rx in got:
        assert got[rx].samples.tobytes() == again[rx].samples.tobytes()
    # The scenario keeps one link order: trials seed each stream by its place in it.
    assert reordered.links == scenario.links
    assert run_trial(reordered, 4, 100) == run_trial(scenario, 4, 100)
    # The SINR path sums the interferers in that order, so every field matches bit for bit.
    for sid, report in scenario.sinr.items():
        other = reordered.sinr[sid]
        for name in ("signal_w", "isi_w", "noise_w", "cochannel_w", "sinr_db"):
            assert getattr(other, name) == getattr(report, name), name
        assert list(other.per_interferer_w.items()) == list(report.per_interferer_w.items())


# Each value a record computes once when it is made: (a record, the value's
# name, a fresh computation of it, and a change that moves it).
_OWNED = {
    "Cir.energy": (
        lambda: Cir(np.array([3.0 - 4.0j]), DT, "h"),
        "energy",
        lambda cir: float(np.sum(np.abs(cir.samples) ** 2)),
        {"samples": np.array([0.1, 2.0 + 1j, -3e-5j])},
    ),
    "LinkSpec.tx_power_w": (
        lambda: LinkSpec("A", "B", "tr", 7.3),
        "tx_power_w",
        lambda link: dbm_to_watts(link.tx_power_dbm),
        {"tx_power_dbm": -12.5},
    ),
    "ModParams.sample_interval": (
        lambda: ModParams(3e9, 7),
        "sample_interval",
        lambda mod: 1.0 / (mod.bit_rate * mod.samples_per_symbol),
        {"samples_per_symbol": 3},
    ),
    "ReverbParams.num_samples": (
        lambda: ReverbParams(5e-12, 8, 50e-12, 200e-12),
        "num_samples",
        lambda params: int(np.rint(params.max_delay / params.sample_interval)) + 1,
        {"max_delay": 300e-12},
    ),
}


@pytest.mark.parametrize("name", _OWNED)
def test_owned_values_are_fresh_and_stay_out_of_equality_hash_and_repr(name):
    make, attr, fresh, change = _OWNED[name]
    record = make()
    # A float's repr tells every value apart, so equal reprs are equal bits.
    assert repr(getattr(record, attr)) == repr(fresh(record))
    (spec,) = [f for f in dataclasses.fields(record) if f.name == attr]
    assert not (spec.init or spec.repr or spec.compare)
    # Another stored value changes neither the repr, nor equality, nor the hash.
    twin = make()
    object.__setattr__(twin, attr, 2.0 * getattr(twin, attr))
    assert attr not in repr(twin) and repr(twin) == repr(record)
    assert twin == record
    if name != "Cir.energy":  # a Cir holds an array, so it has no hash
        assert hash(twin) == hash(record) and {record: 1}[twin] == 1
    replaced = dataclasses.replace(twin, **change)
    assert repr(getattr(replaced, attr)) == repr(fresh(replaced)) != repr(getattr(record, attr))
