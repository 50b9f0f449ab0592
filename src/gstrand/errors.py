"""Exception types shared across the package.

Configuration problems raise :class:`ConfigError`; failures during time
integration raise one of the :class:`SimulationError` subclasses.  The CLI
maps the former to exit code 2 and the latter to exit code 3.  The private
checks below validate JSON config values, naming each bad entry by its path.
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


def _require_keys(d, required, optional, path):
    if not isinstance(d, dict):
        raise ConfigError(f"{path} must be a JSON object, got {type(d).__name__}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ConfigError(f"{path} is missing required keys {missing}")
    unknown = sorted(set(d) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{path} has unknown keys {unknown}")


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


def _terms(terms, path):
    """A harmonic series: a list of [amplitude, wavenumber, phase] finite numbers."""
    if not isinstance(terms, list):
        raise ConfigError(f"{path} must be a list of [amp, k, phase] triples")
    out = []
    for i, term in enumerate(terms):
        if not isinstance(term, list) or len(term) != 3:
            raise ConfigError(f"{path}[{i}] must be an [amp, k, phase] triple")
        out.append([_number(term[0], f"{path}[{i}][0]"), _number(term[1], f"{path}[{i}][1]"),
                    _number(term[2], f"{path}[{i}][2]")])
    return out
