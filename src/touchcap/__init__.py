"""Touch-mode capacitive pressure sensor modeling and calibration toolkit.

Modules import in one direction only: materials -> mechanics -> servo ->
config -> capacitance -> calibration -> cli, and plate_fd (materials,
mechanics) is imported by cli alone.  The root exports ``load_config``;
every other name is imported from the module that defines it.
"""

from .config import load_config

__all__ = ["load_config"]

__version__ = "0.1.0"
