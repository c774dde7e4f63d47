"""Mixing-frequency magnetic nanoparticle thermometry.

Simulates the full measurement chain (particle physics -> coil voltages ->
amplifier -> digitized channels) under two-tone excitation and estimates
the sample temperature from the phases of the intermodulation lines.
"""

from .constants import K_BOLTZMANN, MU_0
from .errors import (ConfigError, EstimationError, PlanRejection,
                     QuadratureError)
from .estimator import (CalibrationModel, TemperatureEstimate, calibrate,
                        direct_line_phase, estimate_tau, estimate_temperature,
                        phi_h_from_mixing, sample_phase, tau_from_phase)
from .magnetization import (FieldConfig, HarmonicSet, SamplingGrid,
                            TimeSeries, equilibrium_magnetization,
                            fourier_coefficients, magnetization_spectrum,
                            spectral_magnetization)
from .physics import (ParticleSpec, debye_response, langevin, tau_brownian,
                      tau_effective, tau_field_corrected, tau_neel)
from .scenarios import (AmbientModel, ExperimentResult, FrequencyPlan,
                        ScenarioConfig, TemperatureProgram, emit_csv,
                        load_scenario, monte_carlo_std, plan_frequencies,
                        run_scenario, self_calibrate)
from .figures import FigureTable, generate_figure
from .signal_chain import (AmplifierModel, CoilParams, MeasurementChannels,
                           NoiseModel, SignalChainConfig, coil_transfer,
                           simulate_clean_channels)

__version__ = "0.1.0"
