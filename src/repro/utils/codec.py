"""One JSON codec for the package's declarative dataclasses.

Every durable record (experiment specs, result payloads, job files, fault
plans, resilience configs) is a dataclass whose JSON form is its fields,
in declaration order.  :func:`encode` and :func:`decode` implement that
format once, driven by the field type annotations:

* nested dataclasses recurse, ``Enum`` members become their ``.value``,
  tuples become lists and mappings become dicts;
* a type that owns a format of its own (it defines ``to_dict`` /
  ``from_dict``, e.g. :class:`~repro.core.results.AttackResult` or
  :class:`~repro.faults.sweep.FlipCurve`) is encoded and decoded through
  it, as a leaf;
* scalars pass through unchanged — coercing ``100000`` to ``100000.0``
  would change a spec's canonical JSON and with it its content hash —
  except that ``None`` in a ``float`` slot decodes to ``nan``, the value
  the stores write as ``null``;
* a missing key takes the field's default; an unknown key, or a value of
  the wrong shape, raises ``ValueError`` naming the field.

:class:`Codec` gives a dataclass ``to_dict``/``from_dict`` through them.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import typing
from collections.abc import Mapping
from typing import Any, Dict

#: Errors a malformed payload raises while decoding; re-raised as ValueError.
_DECODE_ERRORS = (AttributeError, KeyError, TypeError, ValueError)


def encode(value: Any) -> Any:
    """The JSON-native form of ``value`` (see the module docstring)."""
    to_dict = getattr(value, "to_dict", None)
    if to_dict is not None:
        return to_dict()
    if dataclasses.is_dataclass(value):
        return _encode_fields(value)
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Mapping):
        return {key: encode(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(entry) for entry in value]
    return value


def _encode_fields(instance: Any) -> Dict[str, Any]:
    return {
        item.name: encode(getattr(instance, item.name))
        for item in dataclasses.fields(instance)
    }


@functools.cache
def _field_types(cls: type) -> Dict[str, Any]:
    """Resolved annotation of each ``__init__`` field of a dataclass.

    Resolved on first use, not at import: the cold import of the package
    is on every command's start-up path.
    """
    hints = typing.get_type_hints(cls)
    return {item.name: hints[item.name] for item in dataclasses.fields(cls) if item.init}


def _expect(value: Any, expected: type, name: str) -> None:
    if not isinstance(value, expected):
        raise ValueError(f"expected {name}, got {type(value).__name__}")


def decode(hint: Any, value: Any) -> Any:
    """Rebuild a value of annotation ``hint`` from its JSON-native form."""
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is typing.Union:  # Optional[X], the only union fields use
        if value is None:
            return None
        (member,) = [arg for arg in args if arg is not type(None)]
        return decode(member, value)
    if origin is tuple:
        _expect(value, (list, tuple), "an array")
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(decode(args[0], entry) for entry in value)
        if len(value) != len(args):
            raise ValueError(f"expected {len(args)} items, got {len(value)}")
        return tuple(decode(arg, entry) for arg, entry in zip(args, value))
    if origin is list:
        _expect(value, (list, tuple), "an array")
        return [decode(args[0], entry) for entry in value]
    if origin in (dict, Mapping):
        _expect(value, Mapping, "an object")
        return {key: decode(args[1], entry) for key, entry in value.items()}
    if not isinstance(hint, type):
        return value
    if hasattr(hint, "from_dict"):
        return hint.from_dict(value)
    if dataclasses.is_dataclass(hint):
        return _decode_fields(hint, value)
    if issubclass(hint, enum.Enum):
        return hint(value)
    if hint is float and value is None:
        return math.nan
    return value


def _decode_fields(cls: type, payload: Any) -> Any:
    """Construct dataclass ``cls`` from a mapping of its encoded fields."""
    _expect(payload, Mapping, f"a {cls.__name__} object")
    field_types = _field_types(cls)
    unknown = sorted(set(payload) - set(field_types))
    if unknown:
        raise ValueError(f"unknown {cls.__name__} field(s): {', '.join(unknown)}")
    params = {}
    for name, value in payload.items():
        try:
            params[name] = decode(field_types[name], value)
        except _DECODE_ERRORS as exc:
            raise ValueError(f"{name}: {exc}") from exc
    try:
        return cls(**params)
    except TypeError as exc:  # a required field is missing, or a value has the wrong type
        raise ValueError(f"{cls.__name__}: {exc}") from exc


class Codec:
    """Mixin: ``to_dict``/``from_dict`` for a dataclass, via this module."""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable description; inverse of :meth:`from_dict`."""
        return _encode_fields(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> Any:
        """Rebuild an instance from :meth:`to_dict` output."""
        return _decode_fields(cls, payload)
