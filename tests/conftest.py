import pytest
from hypothesis import settings

from touchcap.config import load_config

# Property tests call into quadrature and root solves whose first-run cost
# trips the default per-example deadline; wall-clock limits are not what
# these suites check.
settings.register_profile("touchcap", deadline=None)
settings.load_profile("touchcap")
from touchcap.materials import MaterialLayer
from touchcap.mechanics import DeviceGeometry, ModeThresholds


@pytest.fixture(scope="session")
def config():
    return load_config()


@pytest.fixture(scope="session")
def default_laminate(config):
    # The bundled default profile's stack: PI bottom, Al top; 25.2 um total
    return config.geometry("default").laminate


@pytest.fixture(scope="session")
def default_geometry(config):
    return config.geometry("default")


@pytest.fixture(scope="session")
def scaled_geometry(config):
    return config.geometry("fem_scaled")


@pytest.fixture(scope="session")
def generic_thresholds():
    """Fractions calibrated to no geometry: on the default profile they put
    normal -> transition at 5.03 kPa and touch at 8.49 kPa."""
    return ModeThresholds(transition_fraction=2.0 / 3.0, touch_onset_fraction=0.05,
                          saturation_fraction=0.6)


@pytest.fixture(scope="session")
def pi_layer():
    return MaterialLayer("PI", youngs_modulus=2.5e9, poisson_ratio=0.34,
                         thickness=25e-6)


@pytest.fixture
def bare_geometry(default_laminate):
    """Full-scale device with no dielectric and no built-in stress."""
    return DeviceGeometry(radius=0.01, laminate=default_laminate, gap=400e-6)
