"""Affine pressure-to-servo-angle mapping over the linear sensing range."""

from __future__ import annotations

from dataclasses import dataclass

from .materials import check_finite, check_interval


@dataclass(frozen=True)
class ServoMap:
    """Endpoints of the affine pressure-to-angle map, clamped outside."""

    p_min: float  # Pa
    p_max: float
    angle_min: float  # degrees
    angle_max: float

    def __post_init__(self) -> None:
        check_finite(self, ("p_min", "p_max", "angle_min", "angle_max"))
        check_interval(self.p_min, self.p_max, "p_min", "p_max")
        check_interval(self.angle_min, self.angle_max, "angle_min", "angle_max")


def servo_angle(servo_map: ServoMap, pressure: float) -> float:
    """Servo angle for a pressure, clamped to the map's angle range."""
    frac = (pressure - servo_map.p_min) / (servo_map.p_max - servo_map.p_min)
    frac = min(1.0, max(0.0, frac))
    return servo_map.angle_min + (servo_map.angle_max - servo_map.angle_min) * frac
