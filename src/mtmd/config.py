"""One schema for the config dataclasses: keys, JSON types and value ranges.

``TrainConfig``, ``ModelConfig`` and ``SyntheticSpec`` derive from
:class:`Config`.  A field's JSON type is its annotation; an int is accepted
where a float is expected, and a bool is not a number.  A field's range, if
it has one, is ``metadata["range"]``: comma-separated terms, each ``finite``
or a comparison with a number such as ``>= 1``, that must all hold (nan
satisfies none); ``None``, where the type allows it, lies in every range.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, field, fields, is_dataclass
from typing import get_args, get_type_hints

from .errors import UsageError

_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def ranged(default, rule: str):
    """A dataclass field with a default whose values must satisfy ``rule``."""
    return field(default=default, metadata={"range": rule})


def _holds(value, term: str) -> bool:
    if term == "finite":
        try:
            return math.isfinite(value)
        except OverflowError:  # an int too large for a float64
            return False
    op, bound = term.split()
    return _COMPARE[op](value, float(bound))


def check_config(cls, values: dict) -> None:
    """Raise a :class:`UsageError` naming the key unless every value has the
    type of the field of ``cls`` it names and lies in that field's range."""
    hints = get_type_hints(cls)
    rules = {f.name: f.metadata.get("range") for f in fields(cls)}
    for key, value in values.items():
        declared = get_args(hints[key]) or (hints[key],)
        allowed = declared + (int,) if float in declared else declared
        if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
            expected = " or ".join("null" if t is type(None) else t.__name__ for t in declared)
            raise UsageError(f"{cls.__name__} key {key!r} must be {expected}, "
                             f"got {type(value).__name__}")
        rule = rules[key]
        if rule and value is not None and not all(_holds(value, t) for t in rule.split(", ")):
            raise UsageError(f"{cls.__name__} key {key!r} must be {rule}, got {value!r}")


class Config:
    """Base of the config dataclasses: checked construction and JSON round trips."""

    def __post_init__(self):
        check_config(type(self), {f.name: getattr(self, f.name) for f in fields(self)})

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict):
        """Build from a JSON object; a nested config is built by its own ``from_dict``."""
        if not isinstance(d, dict):
            raise UsageError(f"{cls.__name__} must be a JSON object, got {type(d).__name__}")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise UsageError(f"unknown {cls.__name__} keys: {unknown}")
        hints = get_type_hints(cls)
        return cls(**{k: hints[k].from_dict(v) if is_dataclass(hints[k]) else v
                      for k, v in d.items()})

    @classmethod
    def from_json_file(cls, path: str):
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise UsageError(f"config file not found: {path}") from None
        except OSError as exc:  # a directory, or no permission to read
            raise UsageError(f"cannot read config file {path}: {exc.strerror}") from None
        except ValueError as exc:  # bad JSON or UTF-8, or an int too long to parse
            raise UsageError(f"config file {path} is not valid JSON: {exc}") from None
        return cls.from_dict(raw)
