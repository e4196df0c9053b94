"""Reading user input: one YAML loader, one scalar caster, one key check.

Config files and scenario files (and the builtin scenarios, which are
stored in the scenario-file format) all pass through these, so a mistyped
value or an unknown key raises ConfigError wherever it appears.
"""

from __future__ import annotations

from typing import Mapping

import yaml

from .errors import ConfigError


def read_yaml(path: str, what: str):
    """The parsed contents of a non-empty YAML file; ``what`` names it in errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {what} file {path}: {exc}") from exc
    if data is None:
        raise ConfigError(f"{what} file {path} is empty")
    return data


def cast(name: str, value, kind):
    """``value`` as a ``kind`` field: numbers from numbers or numeric text,
    booleans only from YAML booleans, tuples from lists of numbers."""
    if kind is bool:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    if kind is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
        return tuple(cast(name, v, float) for v in value)
    if kind is str:
        return str(value)
    fraction = kind is int and isinstance(value, float) and not value.is_integer()
    if not (isinstance(value, bool) or fraction):
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    expected = "an integer" if kind is int else "a number"
    raise ConfigError(f"{name} must be {expected}, got {value!r}")


def check_keys(name: str, data, valid) -> None:
    """ConfigError unless ``data`` is a mapping whose every key is in ``valid``."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"{name} must be a mapping, got {type(data).__name__}")
    for key in data:
        if key not in valid:
            raise ConfigError(f"{name}: unknown key {key!r}; valid keys: {sorted(valid)}")
