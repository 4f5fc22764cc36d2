"""Satellite attitude determination simulator.

Library and batch CLI for estimating spacecraft attitude from emulated
star trackers and a gyroscope, comparing an additive and a multiplicative
extended Kalman filter side by side on an orbit-like trajectory.
"""

__version__ = "0.2.0"

from . import attitude, filters, harness, numerics, startracker, wahba  # noqa: F401
