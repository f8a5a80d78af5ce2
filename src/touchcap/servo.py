"""Affine pressure-to-servo-angle mapping over the linear sensing range."""

from __future__ import annotations

from dataclasses import dataclass

from .materials import check_finite, check_interval


@dataclass(frozen=True)
class ServoMap:
    """Endpoints of the affine pressure-to-angle map, clamped outside; the
    defaults map the paper's touch-mode range, 10-40 kPa, onto 0-90 degrees."""

    p_min: float = 10e3  # Pa
    p_max: float = 40e3
    angle_min: float = 0.0  # degrees
    angle_max: float = 90.0

    def __post_init__(self) -> None:
        check_finite(self, ("p_min", "p_max", "angle_min", "angle_max"))
        check_interval(self.p_min, self.p_max, "p_min", "p_max")
        check_interval(self.angle_min, self.angle_max, "angle_min", "angle_max")


def servo_angle(servo_map: ServoMap, pressure: float) -> float:
    """Servo angle for a pressure, clamped to the map's angle range."""
    frac = (pressure - servo_map.p_min) / (servo_map.p_max - servo_map.p_min)
    frac = min(1.0, max(0.0, frac))
    return servo_map.angle_min + (servo_map.angle_max - servo_map.angle_min) * frac
