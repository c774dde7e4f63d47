"""Independent numerical routes that tests check the package against."""

import numpy as np


def dft_line(ts, f):
    """Complex amplitude of the exact-bin line at f by direct DFT summation.

    z = (2/N) * sum_n x_n * exp(-2 pi i ((k n) mod N) / N) with k = f N / fs,
    phase referenced to the window start. This is a second route to the
    line, independent of the rfft the estimator reads; reducing k n mod N
    in integers keeps every exponent below 2 pi, so no phase is lost to a
    large argument. Asserts that f is an exact bin of the window.
    """
    n = ts.samples.size
    cycles = f * n / ts.sample_rate
    k = round(cycles)
    assert abs(cycles - k) < 1e-9, f"{f} Hz is not an exact bin"
    phase = (k * np.arange(n)) % n
    return complex((2.0 / n) * np.sum(ts.samples
                                      * np.exp(-2j * np.pi * phase / n)))
