"""Touch-mode capacitive pressure sensor modeling and calibration toolkit.

Modules import in one direction only: materials -> mechanics -> servo ->
config -> capacitance -> calibration -> cli, and plate_fd (materials,
mechanics) is imported by cli alone.
"""

from .materials import Laminate, MaterialLayer, flexural_rigidity, neutral_plane
from .mechanics import (DeviceGeometry, DeflectionState, ModeThresholds,
                        OperatingMode)
from .capacitance import CPCurve, sweep_cp_curve
from .servo import ServoMap, servo_angle
from .config import DeviceConfig, load_config

__all__ = [
    "Laminate", "MaterialLayer", "flexural_rigidity", "neutral_plane",
    "DeviceGeometry", "DeflectionState", "ModeThresholds", "OperatingMode",
    "CPCurve", "sweep_cp_curve",
    "ServoMap", "servo_angle", "DeviceConfig", "load_config",
]

__version__ = "0.1.0"
