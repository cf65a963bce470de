"""Threshold training, slicing, and error accounting."""

import numpy as np
import pytest

from trlinksim.detector import (
    Z_95,
    count_errors,
    demodulate,
    train_threshold,
    wilson_interval,
)
from trlinksim.sigchain import ModParams, modulate_ask

MOD = ModParams(bit_rate=50e9, samples_per_symbol=4)


def test_wilson_interval_reference_values():
    # frozen against the closed-form score interval at z = 1.959963984540054
    lo, hi = wilson_interval(13, 1000)
    assert lo == pytest.approx(0.0076128203893510256, rel=1e-12)
    assert hi == pytest.approx(0.022114442375579666, rel=1e-12)


def test_wilson_interval_degenerate_counts_touch_the_ends():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0
    assert hi == pytest.approx(0.07134759913335872, rel=1e-12)
    lo, hi = wilson_interval(50, 50)
    assert lo == pytest.approx(0.9286524008666412, rel=1e-12)
    assert hi == 1.0


def test_wilson_interval_contains_the_point_estimate():
    for errors, total in [(0, 10), (1, 10), (5, 10), (10, 10), (37, 2000)]:
        lo, hi = wilson_interval(errors, total)
        assert 0.0 <= lo <= errors / total <= hi <= 1.0


def test_wilson_interval_validation():
    with pytest.raises(ValueError, match="total"):
        wilson_interval(0, 0)
    with pytest.raises(ValueError, match="errors"):
        wilson_interval(5, 4)
    with pytest.raises(ValueError, match="errors"):
        wilson_interval(-1, 4)


def test_z95_is_the_two_sided_quantile():
    from scipy.stats import norm

    assert Z_95 == pytest.approx(norm.isf(0.025), abs=1e-12)


def _decisions(bits, mod, offset=0):
    """The real part of a modulated waveform at one sample per symbol."""
    return modulate_ask(bits, mod).samples[offset :: mod.samples_per_symbol].real


def test_train_threshold_is_class_midpoint():
    pilot = [0, 1, 1, 0, 1, 0]
    # Offset on-off decisions sit at 0.2 and 1.2: the midpoint is 0.7, not 0.5.
    assert train_threshold(_decisions(pilot, MOD) + 0.2, pilot) == pytest.approx(0.7, rel=1e-12)


def test_train_threshold_ignores_imaginary_part():
    pilot = [0, 1]
    rx = modulate_ask(pilot, MOD).samples + 5j
    decisions = rx[:: MOD.samples_per_symbol].real
    assert train_threshold(decisions, pilot) == pytest.approx(0.5, rel=1e-12)


def test_train_threshold_needs_both_classes():
    decisions = _decisions([1, 1, 1], MOD)
    with pytest.raises(ValueError, match="pilot lacks both symbols"):
        train_threshold(decisions, [1, 1, 1])
    with pytest.raises(ValueError, match="pilot lacks both symbols"):
        train_threshold(decisions[:0], [])


def test_decision_window_must_fit():
    decisions = _decisions([0, 1], MOD)
    with pytest.raises(ValueError, match="one decision value per pilot bit"):
        train_threshold(decisions, [0, 1, 1])
    with pytest.raises(ValueError, match="one decision value per pilot bit"):
        train_threshold(np.concatenate([decisions, [0.0]]), [0, 1])


def test_demodulate_recovers_clean_bits():
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, 200)
    out = demodulate(_decisions(bits, MOD), 0.5)
    assert np.array_equal(out, bits)
    # any in-symbol offset sees the same held level
    out2 = demodulate(_decisions(bits, MOD, offset=3), 0.5)
    assert np.array_equal(out2, bits)


def test_demodulate_validation():
    # The slicer makes one bit per decision value; the error count refuses
    # a payload of any other length, or none.
    decisions = _decisions([0, 1], MOD)
    with pytest.raises(ValueError, match="empty"):
        count_errors([], demodulate(decisions[:0], 0.5))
    with pytest.raises(ValueError, match="length mismatch"):
        count_errors([0, 1, 1], demodulate(decisions, 0.5))


def test_count_errors_hand_case():
    assert count_errors([0, 1, 1, 0], [0, 0, 1, 1]) == 2


def test_count_errors_validation():
    with pytest.raises(ValueError, match="length mismatch"):
        count_errors([0, 1], [0, 1, 1])
    with pytest.raises(ValueError, match="empty bit sequence"):
        count_errors([], [])
