"""Planning, flight control and on-wall stability analysis for a two-rope
wall-climbing robot."""

__version__ = "0.1.0"

from .model import Ellipsoid, KinematicsError, Scenario

__all__ = [
    "Ellipsoid",
    "KinematicsError",
    "Scenario",
    "__version__",
]
