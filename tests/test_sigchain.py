"""Modulation, precoding filters, and power scaling."""

import math
import tracemalloc

import numpy as np
import pytest

from trlinksim.chanmodel import (
    Cir,
    ReverbParams,
    block_len,
    block_spectra,
    synth_reverberant,
)
from trlinksim.sigchain import (
    ModParams,
    TrFilter,
    Waveform,
    dbm_to_watts,
    make_identity_filter,
    make_tr_filter,
    modulate_ask,
    precode,
    scale_to_power,
)

DT = 1e-12


def test_dbm_watt_conversions():
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)
    assert dbm_to_watts(float("-inf")) == 0.0
    for p_dbm in (4000.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match=f"{p_dbm!r} dBm is not a finite power in watts"):
            dbm_to_watts(p_dbm)


def test_mod_params_grid():
    mod = ModParams(bit_rate=50e9, samples_per_symbol=4)
    assert mod.sample_interval == pytest.approx(5e-12, rel=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"bit_rate": 0.0},
        {"bit_rate": 50e9, "samples_per_symbol": 0},
        {"bit_rate": 50e9, "samples_per_symbol": 2.5},
        {"bit_rate": 50e9, "level_zero": 1.0, "level_one": 1.0},
        {"bit_rate": 50e9, "level_zero": -0.1},
        {"bit_rate": float("inf")},
        {"bit_rate": 50e9, "samples_per_symbol": float("inf")},
        {"bit_rate": 50e9, "level_one": float("inf")},
        # a stream power that overflows or underflows
        {"bit_rate": 50e9, "level_one": 1e153},
        {"bit_rate": 50e9, "level_one": 1e-158},
        {"bit_rate": 50e9, "level_one": 1e-200},
        # a sample interval 1 / (bit_rate x samples_per_symbol) of 0 or inf
        {"bit_rate": 1e308},
        {"bit_rate": 5e307},
        {"bit_rate": 1e-320},
    ],
)
def test_mod_params_validation(kwargs):
    with pytest.raises(ValueError):
        ModParams(**kwargs)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda n: ModParams(50e9, samples_per_symbol=n), "samples_per_symbol"),
        (lambda n: ReverbParams(5e-12, n, 50e-12, 200e-12), "num_taps"),
    ],
    ids=["ModParams", "ReverbParams"],
)
def test_parameter_counts_follow_the_cli_count_rule(build, field):
    # A count must fit a signed 64-bit index; 10^400 used to raise OverflowError
    # from math.isfinite, and 2^70 was accepted.
    assert getattr(build(2**63 - 1), field) == 2**63 - 1
    for count in (2**63, 2**70, 10**400):
        with pytest.raises(ValueError, match=f"^{field} must be below 2\\^63$"):
            build(count)


@pytest.mark.parametrize("size", [1, 7, 1000, 400_356])
def test_scale_to_power_measures_its_stream_bit_for_bit(size):
    # The mean power is squared in place, and the scale is bit for bit the one
    # a plain sum of |x|^2 over the length gives.
    rng = np.random.default_rng(size)
    x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    want = x * math.sqrt(dbm_to_watts(-3.0) / (float(np.sum(np.abs(x) ** 2)) / size))
    assert np.array_equal(scale_to_power(Waveform(x, DT), -3.0).samples, want)


def test_waveform_copies_the_callers_array():
    x = np.array([1.0, 2.0, 3.0], dtype=np.complex128)
    w = Waveform(x, DT)
    x[0] = 99.0
    assert np.array_equal(w.samples, [1.0, 2.0, 3.0])
    assert x.flags.writeable
    assert not w.samples.flags.writeable


def test_chain_outputs_are_frozen():
    params = ModParams(bit_rate=50e9)
    x = modulate_ask([1, 0, 1], params)
    filt = make_identity_filter(Cir(np.ones(1), params.sample_interval))
    for w in (x, precode(x, filt), scale_to_power(x, 0.0)):
        assert w.samples.dtype == np.complex128 and not w.samples.flags.writeable


def test_tr_filter_enforces_unit_energy():
    TrFilter(np.array([0.6, 0.8]), DT)
    with pytest.raises(ValueError, match="unit energy"):
        TrFilter(np.array([1.0, 1.0]), DT)


def test_make_tr_filter_is_conjugate_reverse():
    h = np.array([1.0 + 1.0j, 0.5, -0.25j])
    cir = Cir(h, DT, "ab")
    f = make_tr_filter(cir)
    expected = np.conj(h[::-1]) / math.sqrt(np.sum(np.abs(h) ** 2))
    assert np.allclose(f.samples, expected, atol=1e-15)
    assert f.sample_interval == DT


def test_matched_filter_peak_is_sqrt_channel_energy():
    params = ReverbParams(DT, 48, 60e-12, 500e-12)
    for seed in range(5):
        cir = synth_reverberant(seed, params)
        f = make_tr_filter(cir)
        conv = np.convolve(f.samples, cir.samples)
        peak = conv[len(cir.samples) - 1]
        assert abs(peak - math.sqrt(cir.energy)) < 1e-9
        # alignment lag dominates every other lag
        assert np.argmax(np.abs(conv)) == len(cir.samples) - 1


def test_make_tr_filter_rejects_silent_channel():
    with pytest.raises(ValueError, match="degenerate channel"):
        make_tr_filter(Cir(np.zeros(4), DT))
    with pytest.raises(ValueError, match="degenerate channel 'A->B': zero energy"):
        make_tr_filter(Cir(np.zeros(4), DT, "A->B"))


def test_identity_filter_is_single_unit_tap():
    cir = Cir(np.array([0.3, 0.4]), 7e-12, "xy")
    f = make_identity_filter(cir)
    assert np.array_equal(f.samples, np.array([1.0 + 0.0j]))
    assert f.sample_interval == 7e-12


def test_modulate_ask_holds_levels():
    mod = ModParams(bit_rate=50e9, samples_per_symbol=3, level_zero=0.1, level_one=0.9)
    w = modulate_ask([1, 0, 1], mod)
    assert np.allclose(
        w.samples, [0.9, 0.9, 0.9, 0.1, 0.1, 0.1, 0.9, 0.9, 0.9]
    )
    assert w.sample_interval == pytest.approx(mod.sample_interval)


def test_modulate_ask_rejects_bad_bits():
    mod = ModParams(bit_rate=50e9)
    with pytest.raises(ValueError, match="empty bit sequence"):
        modulate_ask([], mod)
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        modulate_ask([0, 1, 2], mod)


def test_precode_matches_direct_convolution():
    mod = ModParams(bit_rate=50e9, samples_per_symbol=4)
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2, 64)
    w = modulate_ask(bits, mod)
    cir = synth_reverberant(
        2, ReverbParams(mod.sample_interval, 24, 50e-12, 400e-12)
    )
    f = make_tr_filter(cir)
    out = precode(w, f)
    direct = np.convolve(f.samples, w.samples)
    assert len(out.samples) == len(w.samples) + len(f.samples) - 1
    assert np.max(np.abs(out.samples - direct)) < 1e-12


@pytest.mark.parametrize(
    "n, taps",
    [(7, 3), (1000, 41), (block_len(41) - 40, 41), (block_len(41) - 39, 41)]
    + [(100_000, 41), (200_001, 401), (70_000, 2)]
    + [(7, 300), (1000, 1000), (100, 70_000), (40_000, 40_000)],
)
def test_precode_bits_on_both_paths(n, taps, convolution_oracle):
    # Up to block_len(taps) output samples, one transform: scipy's
    # fftconvolve(stream, filter). Above it: the overlap-add the package used
    # before convolve_sum. The pair at block_len(41) straddles the switch.
    rng = np.random.default_rng(n + taps)
    g = make_tr_filter(Cir(rng.standard_normal(taps) + 1j * rng.standard_normal(taps), DT))
    x = Waveform(rng.standard_normal(n) + 1j * rng.standard_normal(n), DT)
    got = precode(x, g).samples
    assert got.tobytes() == convolution_oracle(x.samples, g.samples).tobytes()


@pytest.mark.parametrize("n, taps", [(1000, 41), (200_001, 41), (7, 300)])
def test_precode_takes_a_filter_spectrum_from_its_cache_with_the_same_bits(n, taps):
    # One transform (short stream), blocks (long stream) and a filter longer
    # than the stream: a second call reads the filter's cached spectrum and
    # gives the same bytes.
    rng = np.random.default_rng(n)
    g = make_tr_filter(Cir(rng.standard_normal(taps) + 1j * rng.standard_normal(taps), DT))
    x = Waveform(rng.standard_normal(n) + 1j * rng.standard_normal(n), DT)
    first = precode(x, g).samples
    assert len(g._spectra) == 1
    (m,) = g._spectra
    spectrum = g.spectra(m)
    assert spectrum is g.spectra(m) and not spectrum.flags.writeable
    assert spectrum.tobytes() == block_spectra(g.samples, m, m).tobytes()
    assert precode(x, g).samples.tobytes() == first.tobytes()
    assert len(g._spectra) == 1


def test_precode_demands_matching_grids():
    mod = ModParams(bit_rate=50e9)
    w = modulate_ask([1, 0], mod)
    f = make_identity_filter(Cir(np.array([1.0]), 1e-12))
    with pytest.raises(ValueError, match="grid mismatch"):
        precode(w, f)


def test_scale_to_power_hits_target():
    w = Waveform(np.array([1.0, 2.0, 0.0, 1j]), DT)
    scaled = scale_to_power(w, -3.0)
    assert np.mean(np.abs(scaled.samples) ** 2) == pytest.approx(dbm_to_watts(-3.0), rel=1e-12)
    # scaling is a pure gain, so shape is preserved
    ratio = scaled.samples[1] / w.samples[1]
    assert np.allclose(scaled.samples, ratio * w.samples, atol=1e-15)


def test_scale_to_power_lets_go_of_its_squares_before_scaling():
    # The |x|^2 array (8 bytes a sample) goes before the scaled stream (16 bytes
    # a sample) is made, so the peak is the scaled stream alone.
    n = 400_356
    w = Waveform(np.ones(n, dtype=np.complex128), DT)
    tracemalloc.start()
    try:
        scale_to_power(w, -3.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * 16 * n


def test_scale_to_power_rejects_silence():
    w = Waveform(np.zeros(8), DT)
    with pytest.raises(ValueError, match="cannot scale silence"):
        scale_to_power(w, 0.0)
