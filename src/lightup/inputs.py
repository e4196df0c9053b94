"""Reading user input: one YAML loader, one CSV reader, one caster, one key check, one range check.

Every config record casts its own fields with ``cast_fields`` when built, so a file
and a Python call take one path to a valid config, or to the same ConfigError. Every
run file is read with ``read_yaml`` or ``read_csv``, so each defect reads the same
from every command.
"""

from __future__ import annotations

import csv
from dataclasses import MISSING, fields, is_dataclass
from typing import Mapping

import numpy as np
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


def read_csv(path: str, columns: tuple[str, ...]):
    """Yield ``(n, values)`` for each data row n (from 1) of the CSV at ``path``: the row's
    value in each of ``columns``. ConfigError names the file, and the row for a row whose
    length is not the header's."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None) or []
            missing = [name for name in columns if name not in header]
            if missing:
                raise ConfigError(f"CSV {path} header has no {', '.join(missing)} column")
            where = [header.index(name) for name in columns]
            for n, row in enumerate(reader, start=1):
                if len(row) != len(header):
                    raise ConfigError(f"CSV {path} row {n}: {len(row)} values for {len(header)} columns")
                yield n, [row[i] for i in where]
    except FileNotFoundError:
        raise ConfigError(f"missing CSV: {path}") from None
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read CSV {path}: {exc}") from None


def _shown(value) -> str:
    """``repr(value)`` on one line: a multi-line repr (a numpy array's) with its whitespace runs collapsed."""
    text = repr(value)
    return " ".join(text.split()) if "\n" in text else text


def cast(name: str, value, kind):
    """``value`` as a ``kind`` field: numbers from numbers or numeric text, booleans only
    from booleans, tuples from lists of numbers, frozensets from lists or sets of integers,
    a config record from its mapping. A 1-D numpy array reads as a list."""
    if is_dataclass(kind):
        if isinstance(value, kind):
            return value
        given = check_keys(name, value, field_kinds(kind))
        missing = [key for key, k in field_kinds(kind).items() if k is MISSING and key not in given]
        if missing:
            raise ConfigError(f"{name} is missing {missing}")
        return kind(**given)
    if kind is bool:
        if isinstance(value, (bool, np.bool_)):
            return bool(value)
        raise ConfigError(f"{name} must be true or false, got {_shown(value)}")
    if kind in (tuple, frozenset):
        value = list(value) if isinstance(value, np.ndarray) and value.ndim == 1 else value
        if not isinstance(value, (list, tuple) if kind is tuple else (list, tuple, set, frozenset)):
            raise ConfigError(f"{name} must be a list of {'numbers' if kind is tuple else 'integers'}, "
                              f"got {_shown(value)}")
        return kind(cast(name, v, float if kind is tuple else int) for v in value)
    if kind is str:
        return str(value)
    fraction = kind is int and isinstance(value, float) and not value.is_integer()
    if not (isinstance(value, (bool, np.bool_)) or fraction):
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    expected = "an integer" if kind is int else "a number"
    raise ConfigError(f"{name} must be {expected}, got {_shown(value)}")


def check_keys(name: str, data, valid) -> Mapping:
    """``data``, if it is a mapping whose every key is in ``valid``; else ConfigError."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"{name} must be a mapping, got {type(data).__name__}")
    for key in data:
        if key not in valid:
            raise ConfigError(f"{name}: unknown key {key!r}; valid keys: {sorted(valid)}")
    return data


def field_kinds(cls) -> dict:
    """Each field's type, read off its default; a nested section's is its class."""
    return {f.name: f.default_factory if f.default is MISSING else type(f.default) for f in fields(cls)}


def cast_fields(record, prefix: str = "", **kinds) -> None:
    """Cast each field of the frozen dataclass ``record`` in place (``prefix`` + name in errors)
    to ``kinds[name]``, else its ``field_kinds`` kind; a None kind, or a None default's None, stays."""
    kinds = {**field_kinds(type(record)), **kinds}
    for f in fields(record):
        value = getattr(record, f.name)
        if kinds[f.name] is not None and not (value is None and f.default is None):
            object.__setattr__(record, f.name, cast(prefix + f.name, value, kinds[f.name]))


def check_ranges(record, ranges, where: str = "") -> None:
    """ConfigError, ``where`` prefixing its text, unless each (field, low, high, low allowed,
    high allowed) row's field of ``record`` is in its interval; None passes, NaN fails."""
    for key, low, high, low_in, high_in in ranges:
        value = getattr(record, key)
        if value is not None and not ((low <= value if low_in else low < value)
                                      and (value <= high if high_in else value < high)):
            interval = f"{'[' if low_in else '('}{low}, {high}{']' if high_in else ')'}"
            raise ConfigError(f"{where}{key} must be in {interval}, got {value!r}")
