"""Physical constants used throughout the package (SI)."""

import math

K_BOLTZMANN = 1.380649e-23  # J/K (exact, 2019 SI)
MU_0 = 4.0 * math.pi * 1e-7  # T*m/A
