"""Exception types shared across the package.

Configuration problems raise :class:`ConfigError`; failures during time
integration raise one of the :class:`SimulationError` subclasses.  The CLI
maps the former to exit code 2 and the latter to exit code 3.  ``_number``
and ``_integer`` check JSON config values for the package's parsers.
"""

import math


class ConfigError(ValueError):
    """Invalid scenario configuration or malformed input data."""


class SimulationError(RuntimeError):
    """Base class for runtime failures during a simulation."""


class BlowUpError(SimulationError):
    """Non-finite values appeared in the evolved state."""


class SingularConfigurationError(SimulationError):
    """Peakon positions closer than the minimum resolvable gap."""


class ConditioningError(SimulationError):
    """Kernel matrix too ill-conditioned for a reliable solve."""


def _number(x, path):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConfigError(f"{path} must be a number, got {x!r}")
    try:
        v = float(x)
    except OverflowError:
        raise ConfigError(f"{path} is beyond the floating-point range") from None
    if not math.isfinite(v):
        raise ConfigError(f"{path} must be finite, got {v}")
    return v


def _integer(x, path):
    if isinstance(x, bool) or not isinstance(x, int):
        raise ConfigError(f"{path} must be an integer, got {x!r}")
    return x
