"""Channel construction, synthesis, correlation, and import/export."""

import itertools
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trlinksim import chanmodel
from trlinksim.chanmodel import (
    Cir,
    ReverbParams,
    block_len,
    block_spectra,
    channel_correlation,
    convolve_sum,
    fast_len,
    import_frequency_response,
    overlap_add,
    read_cir_csv,
    rms_delay_spread,
    synth_correlated_pair,
    synth_reverberant,
    write_cir_csv,
)
from trlinksim.sigchain import TrFilter, Waveform, precode

DT = 1e-12


def test_cir_energy_and_times():
    cir = Cir(np.array([3.0, 4.0]), DT, "x")
    assert cir.energy == pytest.approx(25.0)
    assert np.allclose(cir.times, [0.0, DT])


def test_cir_refuses_an_energy_that_overflows_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="CIR energy must be finite"):
            Cir(np.array([1e160, -1e160j, 1e160]), DT)
        assert Cir(np.full(3, 1e150), DT).energy == pytest.approx(3e300)


def test_cir_samples_are_read_only():
    cir = Cir(np.array([1.0, 0.0]), DT, "x")
    with pytest.raises(ValueError):
        cir.samples[0] = 5.0


@pytest.fixture
def reverb():
    return ReverbParams(
        sample_interval=DT,
        num_taps=24,
        rms_delay_spread_target=50e-12,
        max_delay=400e-12,
    )


def test_synth_energy_is_exact(reverb):
    for seed in range(10):
        cir = synth_reverberant(seed, reverb)
        assert cir.energy == pytest.approx(1.0, rel=1e-12)


def test_synth_is_deterministic_and_seed_sensitive(reverb):
    a = synth_reverberant(7, reverb)
    b = synth_reverberant(7, reverb)
    c = synth_reverberant(8, reverb)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_synth_grid_length_covers_max_delay(reverb):
    cir = synth_reverberant(0, reverb)
    assert len(cir.samples) == round(reverb.max_delay / DT) + 1
    assert cir.sample_interval == DT


def test_synth_total_energy_scales():
    p = ReverbParams(DT, 24, 50e-12, 400e-12, total_energy=2.5)
    assert synth_reverberant(3, p).energy == pytest.approx(2.5, rel=1e-12)


def test_decay_constant_is_solved_once_per_params(reverb, monkeypatch):
    solve = chanmodel._solve_decay_constant
    solves = []
    monkeypatch.setattr(chanmodel, "_solve_decay_constant", lambda params: solves.append(params) or solve(params))
    # ``reverb`` was made, and solved, before the count began: its draws solve nothing
    first = [synth_reverberant(seed, reverb).samples for seed in range(3)]
    again = [synth_reverberant(seed, reverb).samples for seed in range(3)]
    assert solves == []
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    # each object solves when it is made, an equal one too, and never when it draws
    other, same = ReverbParams(DT, 24, 60e-12, 400e-12), ReverbParams(DT, 24, 60e-12, 400e-12)
    synth_reverberant(0, other)
    synth_correlated_pair(0, same, 0.5)
    assert [id(p) for p in solves] == [id(other), id(same)]
    # the kept constant is the bisection's own answer, bit for bit
    assert reverb.decay.hex() == solve(reverb).hex()
    # and it takes no part in equality, hashing or the repr
    assert other == same and hash(other) == hash(same) and "decay" not in repr(other)


def test_ensemble_delay_spread_calibrated(reverb):
    # 300-realization mean lands near the 50 ps target (measured 47.7 ps;
    # per-realization spreads understate the ensemble profile slightly)
    spreads = [rms_delay_spread(synth_reverberant(s, reverb)) for s in range(300)]
    assert 45e-12 < np.mean(spreads) < 55e-12


# The README demo's channel parameters on their own 5 ps grid. Their
# ensemble identities are checked over 2000 draws, at 4 standard errors.
_DEMO = ReverbParams(sample_interval=5e-12, num_taps=64, rms_delay_spread_target=100e-12, max_delay=500e-12)
_DEMO_DRAWS = 2000


@pytest.fixture(scope="module")
def demo_powers():
    """|h[k]|^2 of the demo channel at seeds 0 to _DEMO_DRAWS - 1, one row per draw."""
    return np.array([np.abs(synth_reverberant(seed, _DEMO).samples) ** 2 for seed in range(_DEMO_DRAWS)])


def _sees_a_five_percent_error(standard_errors_off):
    """Fail unless the quantity scaled by 1.05, or by 1/1.05, lies more than 4 standard errors off.

    ``standard_errors_off(scale)`` measures the scaled quantity. This calls
    pytest.fail, not assert, so that it still fails a test marked as an
    expected assertion failure.
    """
    for scale in (1.05, 1 / 1.05):
        if not abs(standard_errors_off(scale)) > 4.0:
            pytest.fail(f"the draws cannot tell the quantity scaled by {scale:.4f} from the expected one")


# A known defect: rescaling each draw to total_energy weights it by the
# inverse of its raw energy, which tilts the pooled profile toward the tail.
# Over 40,000 demo draws the first tenth of the delays carries 4.6% less
# power than the profile, the last tenth 8.7% more, and the pooled spread is
# 101.8 ps. Without the rescaling both tests pass. The marks come off when
# the generator meets its profile.
_RESCALING_TILTS_THE_PROFILE = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="per-draw rescaling tilts the pooled profile toward the tail"
)


@_RESCALING_TILTS_THE_PROFILE
def test_mean_power_per_delay_bin_is_the_exponential_profiles(demo_powers):
    # A delay drawn uniformly on [0, max_delay] lands in bin k when it rounds
    # to k, and brings a mean power exp(-delay / decay); the profile's share
    # of bin k is its integral over those delays. Every bin at once: the
    # chi-square of their standard errors, in standard deviations of its
    # distribution.
    bins = np.arange(_DEMO.num_samples)
    edges = np.clip((bins[:, None] + [-0.5, 0.5]) * _DEMO.sample_interval, 0.0, _DEMO.max_delay)
    mass = np.exp(-edges[:, 0] / _DEMO.decay) - np.exp(-edges[:, 1] / _DEMO.decay)
    expected = _DEMO.total_energy * mass / mass.sum()
    standard_errors = demo_powers.std(axis=0, ddof=1) / math.sqrt(_DEMO_DRAWS)

    def standard_errors_off(scale=1.0):
        chi_square = np.sum(((scale * demo_powers.mean(axis=0) - expected) / (scale * standard_errors)) ** 2)
        return (chi_square - bins.size) / math.sqrt(2 * bins.size)

    _sees_a_five_percent_error(standard_errors_off)
    assert standard_errors_off() <= 4.0


@_RESCALING_TILTS_THE_PROFILE
def test_pooled_power_delay_profile_has_the_target_delay_spread(demo_powers):
    # Each draw's energy is total_energy, so the pooled profile's delay moments
    # are the means of each draw's, a and b; its spread is sqrt(mean b - mean a^2),
    # with the standard error of the linearization b - 2 mean(a) a.
    times = np.arange(_DEMO.num_samples) * _DEMO.sample_interval
    a, b = (demo_powers @ times**n / _DEMO.total_energy for n in (1, 2))
    spread = math.sqrt(b.mean() - a.mean() ** 2)
    standard_error = (b - 2 * a.mean() * a).std(ddof=1) / math.sqrt(_DEMO_DRAWS) / (2 * spread)

    def standard_errors_off(scale=1.0):
        return (scale * spread - _DEMO.rms_delay_spread_target) / (scale * standard_error)

    _sees_a_five_percent_error(standard_errors_off)
    assert abs(standard_errors_off()) <= 4.0


def test_spread_target_must_be_reachable():
    # flat-profile ceiling is max_delay/sqrt(12) ~ 115 ps here
    with pytest.raises(ValueError, match="unreachable"):
        ReverbParams(DT, 24, 150e-12, 400e-12)
    # The ceiling is max_delay * sqrt(1/3 - 1/4), one ulp below max_delay / sqrt(12) here.
    ceiling = 400e-12 * math.sqrt(1.0 / 3.0 - 1.0 / 4.0)
    ReverbParams(DT, 24, np.nextafter(ceiling, 0.0), 400e-12)
    for target in (ceiling, 400e-12 / math.sqrt(12.0)):
        with pytest.raises(ValueError, match="^rms_delay_spread_target unreachable: must be below 1.154701e-10 s "):
            ReverbParams(DT, 24, target, 400e-12)
    with pytest.raises(ValueError, match="lie in"):
        ReverbParams(DT, 24, 500e-12, 400e-12)


@pytest.mark.parametrize("target", [1e-200, 1e-300, 5e-324])
def test_params_refuse_a_spread_target_whose_decay_constant_underflows(target):
    # The log-scale bisection's midpoint sqrt(lo * hi) underflows to 0, and
    # the moments would divide by that decay constant.
    with pytest.raises(ValueError, match=f"^rms_delay_spread_target {target:g} s is too small: "):
        ReverbParams(DT, 24, target, 400e-12)


def test_synth_refuses_a_draw_whose_every_tap_underflows():
    # Delays up to 20,000 decay constants: most draws put every tap past
    # exp's underflow, and seed 79 leaves an energy too small to scale.
    p = ReverbParams(DT, 4, 100e-12, 2e-6)
    refused = []
    for seed in range(20):
        try:
            assert synth_reverberant(seed, p, "A->B").energy == pytest.approx(1.0, rel=1e-12)
        except ValueError as exc:
            assert re.fullmatch(r"degenerate channel 'A->B': every drawn tap's power .* underflows, .*", str(exc))
            refused.append(seed)
    assert len(refused) == 18
    with pytest.raises(ValueError, match="to an energy of 8.47256e-312 "):
        synth_reverberant(79, p)


def test_reverb_params_refuse_a_grid_of_2_to_the_63_samples_or_more():
    ReverbParams(DT, 4, 100e-12, 2**62 * DT)
    for max_delay in (2**63 * DT, 1e10):
        with pytest.raises(ValueError, match=r"^max_delay / sample_interval must be below 2\^63 samples, got "):
            ReverbParams(DT, 4, 100e-12, max_delay)


@pytest.mark.parametrize(
    "field", ["sample_interval", "num_taps", "rms_delay_spread_target", "max_delay", "total_energy"]
)
def test_reverb_params_refuse_non_finite_values(field):
    good = {"sample_interval": DT, "num_taps": 24, "rms_delay_spread_target": 50e-12, "max_delay": 400e-12}
    ReverbParams(**good)
    with pytest.raises(ValueError, match=f"^{field} must be finite, got inf$"):
        ReverbParams(**{**good, field: float("inf")})


def test_rms_delay_spread_hand_value():
    # equal power at t=0 and t=4dt: mean 2dt, std 2dt
    cir = Cir(np.array([1.0, 0.0, 0.0, 0.0, 1.0]), DT, "x")
    assert rms_delay_spread(cir) == pytest.approx(2 * DT, rel=1e-12)


def test_correlation_of_self_is_one(reverb):
    cir = synth_reverberant(5, reverb)
    assert channel_correlation(cir, cir) == pytest.approx(1.0, abs=1e-12)


def test_correlation_hand_pair_is_half():
    h1 = Cir(np.array([1.0, 1.0]) / math.sqrt(2), DT, "a")
    h2 = Cir(np.array([1.0, -1.0]) / math.sqrt(2), DT, "b")
    assert channel_correlation(h1, h2) == pytest.approx(0.5, rel=1e-12)


def test_correlation_is_numpy_correlate(reverb):
    # channel_correlation convolves with the second channel conjugated and
    # reversed; that is np.correlate's full conjugate correlation.
    a, b = synth_reverberant(1, reverb), synth_reverberant(2, reverb)
    short = Cir(b.samples[:30] * 1j, DT, "short")
    for h1, h2 in [(a, b), (b, a), (a, short), (short, a)]:
        cc = np.correlate(h1.samples, h2.samples, "full")
        want = np.max(np.abs(cc)) / math.sqrt(h1.energy * h2.energy)
        assert channel_correlation(h1, h2) == pytest.approx(want, rel=1e-12)


def test_correlation_symmetric_and_scale_invariant(reverb):
    a = synth_reverberant(1, reverb)
    b = synth_reverberant(2, reverb)
    c = channel_correlation(a, b)
    assert channel_correlation(b, a) == pytest.approx(c, rel=1e-12)
    scaled = Cir(3.7 * b.samples, DT, "b3")
    assert channel_correlation(a, scaled) == pytest.approx(c, rel=1e-12)


def test_correlation_sees_through_delay_shifts(reverb):
    a = synth_reverberant(4, reverb)
    shifted = Cir(np.concatenate([np.zeros(17), a.samples]), DT, "a-shift")
    assert channel_correlation(a, shifted) == pytest.approx(1.0, abs=1e-9)


def test_correlation_demands_matching_grids(reverb):
    a = synth_reverberant(1, reverb)
    b = Cir(a.samples, 2 * DT, "other-grid")
    with pytest.raises(ValueError, match="grid mismatch"):
        channel_correlation(a, b)


# wide window + mild decay so independent draws decorrelate well
PAIR_PARAMS = ReverbParams(
    sample_interval=DT,
    num_taps=64,
    rms_delay_spread_target=150e-12,
    max_delay=600e-12,
)


def test_pair_rho_one_is_a_copy():
    h1, h2 = synth_correlated_pair(7, PAIR_PARAMS, 1.0)
    assert channel_correlation(h1, h2) == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(h1.samples, h2.samples, atol=1e-12)


def test_pair_rho_zero_stays_under_independence_floor():
    # Monte Carlo bound: max measured 0.245 over 40 draws at these params
    for seed in range(20):
        h1, h2 = synth_correlated_pair(seed, PAIR_PARAMS, 0.0)
        assert channel_correlation(h1, h2) <= 0.3


def test_pair_hits_intermediate_targets():
    for seed in range(10):
        h1, h2 = synth_correlated_pair(seed, PAIR_PARAMS, 0.8)
        assert 0.78 <= channel_correlation(h1, h2) <= 0.82


def test_pair_outputs_keep_total_energy():
    h1, h2 = synth_correlated_pair(3, PAIR_PARAMS, 0.6)
    assert h1.energy == pytest.approx(1.0, rel=1e-12)
    assert h2.energy == pytest.approx(1.0, rel=1e-12)


def test_pair_rejects_bad_target():
    with pytest.raises(ValueError):
        synth_correlated_pair(0, PAIR_PARAMS, 1.5)


def _forward_records(cir):
    spectrum = np.fft.fft(cir.samples)
    df = 1.0 / (len(cir.samples) * cir.sample_interval)
    return [(k * df, float(v.real), float(v.imag)) for k, v in enumerate(spectrum)]


def test_import_round_trips_time_domain():
    rng = np.random.default_rng(42)
    cir = Cir(rng.standard_normal(64) + 1j * rng.standard_normal(64), 2e-12, "rt")
    back = import_frequency_response(_forward_records(cir))
    assert back.sample_interval == pytest.approx(cir.sample_interval, rel=1e-12)
    assert np.max(np.abs(back.samples - cir.samples)) < 1e-12


def test_import_linear_phase_is_shifted_impulse():
    n, shift = 32, 5
    spectrum = np.exp(-2j * np.pi * np.arange(n) * shift / n)
    records = [(k * 1e9, float(v.real), float(v.imag)) for k, v in enumerate(spectrum)]
    cir = import_frequency_response(records)
    assert np.argmax(np.abs(cir.samples)) == shift
    assert cir.samples[shift] == pytest.approx(1.0, abs=1e-12)


def test_import_validates_input():
    with pytest.raises(ValueError, match="insufficient data"):
        import_frequency_response([(0.0, 1.0, 0.0)])
    with pytest.raises(ValueError, match="irregular grid"):
        import_frequency_response([(0.0, 1, 0), (1e9, 1, 0), (3e9, 1, 0)])


def test_cir_csv_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    cir = Cir(rng.standard_normal(40) + 1j * rng.standard_normal(40), 5e-12, "disk")
    path = tmp_path / "chan.csv"
    write_cir_csv(cir, path)
    back = read_cir_csv(path)
    assert back.sample_interval == pytest.approx(5e-12, rel=1e-12)
    assert np.array_equal(back.samples, cir.samples)
    assert back.label == "chan"


def test_cir_csv_skips_comments_and_flags_bad_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# header\n0,1,0\n1e-12,oops,0\n")
    with pytest.raises(ValueError, match="line 3"):
        read_cir_csv(path)
    path.write_text("0,1,0\n")
    with pytest.raises(ValueError, match="insufficient data"):
        read_cir_csv(path)
    path.write_text("0,1,0\n1e-12,1,0\n5e-12,1,0\n")
    with pytest.raises(ValueError, match="irregular grid"):
        read_cir_csv(path)


def test_write_cir_csv_header_and_atomic_replace(tmp_path, monkeypatch):
    path = tmp_path / "new" / "chan.csv"
    write_cir_csv(Cir(np.array([1.0, 0.5j]), 5e-12, "A->B"), path)
    before = path.read_bytes()
    assert before == b"# cir A->B sample_interval_s=4.9999999999999997e-12\n0,1,0\n4.9999999999999997e-12,0,0.5\n"

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(chanmodel.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write_cir_csv(Cir(np.zeros(3), 5e-12, "A->B"), path)
    # The old file stands whole and no temporary file is left behind.
    assert path.read_bytes() == before
    assert list(path.parent.iterdir()) == [path]


def test_cir_csv_reader_returns_the_written_bits(tmp_path):
    rng = np.random.default_rng(12)
    h = rng.standard_normal(401) + 1j * rng.standard_normal(401)
    h[:4] = [0.0, -0.0, complex(-0.0, -0.0), complex(1e-300, -0.0)]
    path = tmp_path / "chan.csv"
    write_cir_csv(Cir(h, 5e-12), path)
    assert read_cir_csv(path).samples.tobytes() == h.tobytes()


def test_cir_csv_reader_takes_what_python_floats_take(tmp_path):
    # An underscore in a number, a line of blanks, an indented comment, padded fields.
    path = tmp_path / "odd.csv"
    path.write_text("0,1_0,0\n   \n  # indented comment\n1e-12, 2 ,-0.0\n")
    cir = read_cir_csv(path)
    assert cir.samples.tobytes() == np.array([complex(10.0, 0.0), complex(2.0, -0.0)]).tobytes()
    assert cir.sample_interval == 1e-12


def test_cir_reader_drops_a_byte_order_mark(tmp_path):
    h = np.array([1.0 + 2.0j, -0.5j, 0.25])
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_cir_csv(Cir(h, 5e-12), plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    cir = read_cir_csv(marked)
    assert cir.samples.tobytes() == read_cir_csv(plain).samples.tobytes() == h.tobytes()
    assert cir.sample_interval == read_cir_csv(plain).sample_interval


# Values up to the largest whose 40-sample CIR keeps its energy at most half the
# largest float, with signed zeros and subnormals among them.
_PART_MAX = math.sqrt(sys.float_info.max / 160)
_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, _PART_MAX, -_PART_MAX]),
    st.floats(-_PART_MAX, _PART_MAX),
)


@settings(max_examples=60, deadline=None)
@given(parts=st.lists(st.tuples(_parts, _parts), min_size=2, max_size=40))
def test_cir_csv_write_then_read_keeps_every_sample_bit(tmp_path_factory, parts):
    h = np.array([complex(re, im) for re, im in parts])
    path = tmp_path_factory.mktemp("cir") / "chan.csv"
    write_cir_csv(Cir(h, 5e-12), path)
    assert read_cir_csv(path).samples.tobytes() == h.tobytes()


_GRID_DEFECTS = {
    "not increasing": ([0.0, 2.0, 1.0], "irregular grid: {} samples must be strictly increasing"),
    "repeated": ([0.0, 1.0, 1.0], "irregular grid: {} samples must be strictly increasing"),
    "not uniform": ([0.0, 1.0, 3.0], "irregular grid: {} spacing is not uniform"),
    "one sample": ([0.0], "insufficient data: need at least two {} samples"),
    "no sample": ([], "insufficient data: need at least two {} samples"),
}


@pytest.mark.parametrize("defect", _GRID_DEFECTS)
def test_cir_reader_and_frequency_import_refuse_the_same_grid_defects(tmp_path, defect):
    axis, message = _GRID_DEFECTS[defect]
    with pytest.raises(ValueError, match=f"^{re.escape(message.format('frequency'))}$"):
        import_frequency_response([(1e9 * x, 1.0, 0.0) for x in axis])
    path = tmp_path / "grid.csv"
    path.write_text("".join(f"{1e-12 * x},1,0\n" for x in axis))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: ' + message.format('time'))}$"):
        read_cir_csv(path)


@pytest.mark.parametrize(
    "body, message",
    [
        ("# a\n0,1,0\n\n# b\n   \n1e-12,oops,0\n", "line 6: fields must be numbers"),
        ("0,1,0\n# x\n\n1e-12,1\n2e-12,1,0\n", "line 4: expected 3 comma-separated fields"),
        ("0,1,0\n\n# x\n1e-12,1,0,\n", "line 4: expected 3 comma-separated fields"),
        ("0,1,0\n1e-12,1,0 # trailing\n", "line 2: fields must be numbers"),
        ("# only comments\n\n", "insufficient data"),
        ("0,1,0\n1e-12,nan,0\n2e-12,1,0\n", "line 2: times and samples must be finite"),
        ("# c\n0,1,0\n1e-12,0,-inf\n2e-12,1,0\n", "line 3: times and samples must be finite"),
        ("0,1,0\nnan,1,0\n2e-12,1,0\n", "line 2: times and samples must be finite"),
        ("0,1,0\n1e-12,1,0\ninf,1,0\n", "line 3: times and samples must be finite"),
        ("0,1_0,0\n  # x\n1e-12,nan,0\n2e-12,1,0\n", "line 3: times and samples must be finite"),
        # field counts that add up to three per line, and a field that is the line mark
        ("0,1\n1e-12,1,0,0\n", "line 1: expected 3 comma-separated fields"),
        ("0,1,0\n1e-12,1,0,0\n2e-12,1\n", "line 2: expected 3 comma-separated fields"),
        ("0,1,0\n1e-12\n", "line 2: expected 3 comma-separated fields"),
        ("0,1,0\n1e-12,1\n", "line 2: expected 3 comma-separated fields"),
        ("0,1,0\n1e-12,1,0,7\n", "line 2: expected 3 comma-separated fields"),
        ("0,1,0\n1e-12,1,0,2e-12,1,0\n", "line 2: expected 3 comma-separated fields"),
        ("0,#,0\n1e-12,1,0\n", "line 1: fields must be numbers"),
        ("0,1,0\n1e-12,1,0,#\n2e-12,1,0\n", "line 2: expected 3 comma-separated fields"),
        # a start time the samples cannot carry: 1 ns is 200 samples of delay
        ("# c\n\n1e-9,1,0\n1.005e-9,1,0\n1.01e-9,1,0\n", "line 3: the first time must be 0, got 1e-09 s$"),
    ],
)
def test_cir_csv_errors_name_the_line(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
        read_cir_csv(path)


@pytest.mark.parametrize(
    "len_a, len_b",
    [(1, 1), (1, 57), (33, 1), (2, 2), (7, 300), (401, 1604), (129, 50_000)],
)
def test_convolution_equals_scipy_fftconvolve_bitwise(len_a, len_b, convolution_oracle):
    rng = np.random.default_rng(len_a * 7919 + len_b)
    # Unit energy, so either input can be a pre-filter.
    a, b = (_unit(rng.standard_normal(n) + 1j * rng.standard_normal(n)) for n in (len_a, len_b))
    # A single-sample operand is precode's plain product; the rest is one
    # transform, or blocks past one block of the filter (50_000 through 129).
    conv = _precode if 1 in (len_a, len_b) else _convolve_one
    assert conv(a, b).tobytes() == convolution_oracle(a, b).tobytes()
    assert conv(b, a).tobytes() == convolution_oracle(b, a).tobytes()


def _unit(x):
    return x / math.sqrt(np.sum(np.abs(x) ** 2))


def _precode(x, g):
    return precode(Waveform(x, DT), TrFilter(g, DT)).samples


def _convolve_one(x, h):
    """x * h through convolve_sum: one input, one output."""
    (y,) = convolve_sum([x], [[Cir(h, DT)]])
    return y


def test_every_convolution_is_in_chanmodel():
    # chanmodel holds the package's two convolutions, the FFT overlap-add for
    # streams and the exact shift-and-add for responses, focusing and
    # correlation. No other module transforms, and no module calls numpy's
    # convolve or correlate or a BLAS-backed product.
    banned = re.compile(r"\b(np|numpy)\.(convolve|correlate|dot|vdot|einsum|matmul|inner)\b")
    fft = re.compile(r"\b(np|numpy)\.fft\b")
    for path in sorted(Path(chanmodel.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert not banned.search(text), path.name
        assert path.name == "chanmodel.py" or not fft.search(text), path.name


def test_fast_len_equals_scipy_next_fast_len():
    from scipy.fft import next_fast_len

    sample = np.random.default_rng(5).integers(5001, 2_000_001, 300)
    for n in [*range(1, 5001), *map(int, sample), 2_000_000]:
        assert fast_len(n) == next_fast_len(n, False), n
    with pytest.raises(ValueError):
        fast_len(0)


def _block_path_lengths(k):
    """Stream lengths just past one block and around multiples of the block step."""
    step = block_len(k) - k + 1
    first = block_len(k) + 2 - k  # the shortest stream whose output takes the block path
    lengths = [first, first + 1]
    for blocks in (20, 31):
        lengths += [blocks * step - 1, blocks * step, blocks * step + 1]
    return lengths


@pytest.mark.parametrize("k", [2, 101, 401])
def test_convolve_sum_block_path_matches_direct(k):
    rng = np.random.default_rng(k)
    h = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    for length in _block_path_lengths(k):
        assert length + k - 1 > block_len(k)
        x = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        direct = np.convolve(x, h)
        # The stream as input goes by blocks; as the filter, in one transform.
        for got in (_convolve_one(x, h), _convolve_one(h, x)):
            assert got.shape == direct.shape
            err = np.max(np.abs(got - direct)) / np.max(np.abs(direct))
            assert err <= 1e-12, (length, err)


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (1, 2), (3, 2)], ids=lambda s: "%dx%d" % s)
@pytest.mark.parametrize("path", ["one-shot", "blocks"])
def test_convolve_sum_returns_outputs_it_alone_holds(path, shape):
    # The caller adds noise into each output in place, so no output may share
    # memory with another or with an input, and the inputs stay as they were.
    n_in, n_out = shape
    k = 41
    rng = np.random.default_rng(n_in + 10 * n_out)
    hs = [[rng.standard_normal(k) + 1j * rng.standard_normal(k) for _ in range(n_out)] for _ in range(n_in)]
    length = 100 if path == "one-shot" else 5 * block_len(k) + 17
    xs = [rng.standard_normal(length - i) + 1j * rng.standard_normal(length - i) for i in range(n_in)]
    sent = [x.tobytes() for x in xs]
    ys = convolve_sum(xs, [[Cir(h, DT) for h in row] for row in hs])
    n = length + k - 1
    assert (n <= block_len(k)) == (path == "one-shot")
    assert [y.shape for y in ys] == [(n,)] * n_out
    for r, y in enumerate(ys):
        direct = sum(np.pad(np.convolve(x, row[r]), (0, length - x.size)) for x, row in zip(xs, hs))
        assert np.max(np.abs(y - direct)) <= 1e-12 * np.max(np.abs(direct))
        assert not any(np.shares_memory(y, other) for other in [*xs, *ys[:r]])
    assert [x.tobytes() for x in xs] == sent


def _two_buffer_overlap_add(spectra, step, n):
    """overlap_add with a separate output buffer, one row per block step."""
    y = np.fft.ifft(spectra, axis=-1)
    out = np.zeros((y.shape[0] + 1, step), dtype=np.complex128)
    out[:-1] = y[:, :step]
    out[1:, : y.shape[1] - step] += y[:, step:]
    return out.reshape(-1)[:n]


@settings(max_examples=60, deadline=None)
@given(
    n_blocks=st.integers(1, 6),
    step=st.integers(1, 40),
    tail_fraction=st.floats(0.0, 1.0),
    n_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_overlap_add_in_place_equals_two_buffer_form_bitwise(n_blocks, step, tail_fraction, n_fraction, seed):
    tail = round(tail_fraction * step)  # 0 <= tail <= step, i.e. step <= m <= 2 * step
    m = step + tail
    n = 1 + round(n_fraction * ((n_blocks - 1) * step + m - 1))
    rng = np.random.default_rng(seed)
    spectra = rng.standard_normal((n_blocks, m)) + 1j * rng.standard_normal((n_blocks, m))
    want = _two_buffer_overlap_add(spectra.copy(), step, n)
    got = overlap_add(spectra, step, n)
    assert got.shape == (n,)
    assert got.tobytes() == want.tobytes()
    assert np.shares_memory(got, spectra)


def test_overlap_add_keeps_signed_zeros_as_the_two_buffer_form():
    # Every sign pattern of all-zero spectra, two blocks with m = 2, step = 1:
    # some patterns invert to -0.0, in the last block's tail among others.
    for signs in itertools.product((0.0, -0.0), repeat=8):
        spectra = np.zeros((2, 2), dtype=np.complex128)
        spectra.real.flat = signs[:4]
        spectra.imag.flat = signs[4:]
        want = _two_buffer_overlap_add(spectra.copy(), 1, 3)
        assert overlap_add(spectra, 1, 3).tobytes() == want.tobytes(), signs


@pytest.mark.parametrize(
    "size, step, m", [(1, 1, 1), (5, 5, 8), (777, 100, 200), (800, 100, 128), (400356, 3996, 4096)]
)
def test_block_spectra_equals_padded_transform_bitwise(size, step, m):
    rng = np.random.default_rng(size)
    x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    blocks = np.zeros((-(-size // step), step), dtype=np.complex128)
    blocks.reshape(-1)[:size] = x
    assert block_spectra(x, m, step).tobytes() == np.fft.fft(blocks, m, axis=-1).tobytes()


def test_cir_caches_its_spectrum_per_length():
    rng = np.random.default_rng(17)
    h = Cir(rng.standard_normal(41) + 1j * rng.standard_normal(41), DT)
    spectrum = h.spectra(128)
    assert spectrum.shape == (1, 128) and not spectrum.flags.writeable
    assert spectrum.tobytes() == block_spectra(h.samples, 128, 128).tobytes()
    assert h.spectra(128) is spectrum
    assert h.spectra(256) is not spectrum
    assert sorted(h._spectra) == [128, 256]
    # the cache is no part of the value
    assert "_spectra" not in repr(h)


def test_cir_spectra_refuses_a_length_below_the_response():
    h = Cir(np.arange(1, 11), 1e-12)
    with pytest.raises(ValueError, match=r"transform length 4 .* 10 samples"):
        h.spectra(4)
    assert h.spectra(10).shape == (1, 10)


def test_a_pre_filter_is_a_cir_with_its_spectra():
    g = TrFilter(np.array([0.6, 0.8j]), DT)
    assert isinstance(g, Cir)
    assert g.spectra(8).tobytes() == block_spectra(g.samples, 8, 8).tobytes()
    with pytest.raises(ValueError, match="unit energy"):
        TrFilter(np.array([1.0, 1.0]), DT)
