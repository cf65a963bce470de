"""Fixtures shared by the chanmodel and sigchain tests."""

import numpy as np
import pytest

from trlinksim.chanmodel import block_len, block_spectra, overlap_add


def _convolution_oracle(x, h):
    """x * h bit for bit as ``convolve_sum`` gives it with x as input and h as filter.

    Up to ``block_len(h.size)`` output samples, scipy's ``fftconvolve(x, h)``.
    Above it, the block branch of the former ``chanmodel.fft_convolve``: x
    block by block, each block multiplied by h's spectrum inside its own
    buffer, then overlap-added.
    """
    from scipy.signal import fftconvolve

    n = x.size + h.size - 1
    m = block_len(h.size)
    if n <= m:
        return fftconvolve(x, h)
    step = m - h.size + 1
    spectra = block_spectra(x, m, step)
    spectra *= np.fft.fft(h, m)
    return overlap_add(spectra, step, n)


@pytest.fixture
def convolution_oracle():
    return _convolution_oracle
