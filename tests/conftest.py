import pytest

from mnpthermo import FieldConfig
from mnpthermo.scenarios import default_particle, measured_coils, plan_frequencies


@pytest.fixture(scope="session")
def particle():
    return default_particle()


@pytest.fixture(scope="session")
def operating_field():
    # 6 kHz at 0.36 mT plus 1.57 kHz at 1.98 mT, sampled at 500 kHz
    return FieldConfig(plan_frequencies(6000, 1570), 0.36e-3, 1.98e-3)


@pytest.fixture(scope="session")
def operating_plan():
    return plan_frequencies(6000, 1570)


@pytest.fixture(scope="session")
def coil_pair():
    return measured_coils()
