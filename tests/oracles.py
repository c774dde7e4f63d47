"""Independent numerical routes that tests check the package against."""

import numpy as np

from mnpthermo.magnetization import equilibrium_magnetization


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


def doubled_coefficients(fld, p, temperature, n_max):
    """Cosine coefficients a_1..a_n_max of M0 by node doubling: (a, N).

    The trapezoidal rule a_n = (2/N) * Re rfft(M0)[n] on N uniform nodes,
    N doubling from 2^max(12, bitlen(8 n_max)) until no coefficient moves
    by more than 1e-12 * max|a_n|, at most 12 passes; N is the count it
    stops at. This is a second route to fourier_coefficients, which takes
    its node count from a closed-form decay bound instead of refining
    until it converges.
    """
    n_nodes = 1 << max(12, (8 * n_max).bit_length())
    prev = None
    for _ in range(12):
        nodes = np.arange(n_nodes) * ((1.0 / fld.f_base) / n_nodes)
        m0 = equilibrium_magnetization(nodes, fld, p, temperature)
        coeffs = (2.0 / n_nodes) * np.fft.rfft(m0)[1:n_max + 1].real
        if prev is not None and (np.max(np.abs(coeffs - prev))
                                 <= 1e-12 * np.max(np.abs(coeffs))):
            return coeffs, n_nodes
        prev = coeffs
        n_nodes *= 2
    raise AssertionError("no convergence in 12 passes")
