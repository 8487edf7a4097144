"""Shared error types and the JSON file reader used by every config loader.

Every loader takes one path from a file to its object: :func:`load_json`
reads the file, :func:`document` checks that it is a JSON object, each
element's fields are read inside ``element(source, where)``, and the object
is built inside ``element(source)``, which passes a constructor's refusal
through as ``<file>: <message>``. A ``load_*`` function is one call:
``X_from_dict(load_json(path), str(path))``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TypeVar

T = TypeVar("T", dict, list, bool)


class ConfigError(Exception):
    """A configuration file failed to parse or validate.

    The message always names the offending file and, where possible, the
    element path and field (e.g. ``topo.json: links[2].latency_ms: must be > 0``).
    """

    def __init__(self, source: str, detail: str):
        self.source = source
        self.detail = detail
        super().__init__(f"{source}: {detail}")


def load_json(path: str | Path) -> object:
    """Read and parse a JSON file; failures raise a ConfigError naming the path."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read file: {exc.strerror}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from None


def document(data: object, source: str, noun: str) -> dict:
    """``data`` if it is a JSON object, else ``<source>: <noun> document must be a JSON object``."""
    if not isinstance(data, dict):
        raise ConfigError(source, f"{noun} document must be a JSON object")
    return data


def expect(value: object, kind: type[T], source: str, where: str) -> T:
    """``value`` if it is a JSON object, array or boolean, as ``kind`` asks.

    Anything else raises a ConfigError naming the file and the element path.
    """
    if not isinstance(value, kind):
        name = {dict: "object", list: "array", bool: "boolean"}[kind]
        raise ConfigError(source, f"{where}: expected a JSON {name}, got {value!r}")
    return value


def integer(value: object, source: str, where: str) -> int:
    """``value`` if it is a JSON number with no fraction; else a ConfigError naming ``where``."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ConfigError(source, f"{where}: expected an integer, got {value!r}")


def number(value: object, source: str, where: str) -> float:
    """``value`` as a float if it is a JSON number; a boolean or anything else is a ConfigError."""
    if type(value) in (int, float):
        return float(value)
    raise ConfigError(source, f"{where}: expected a JSON number, got {value!r}")


def string(value: object, source: str, where: str) -> str:
    """``value`` if it is a JSON string; anything else is a ConfigError naming ``where``.

    An id or a name is never coerced: ``str()`` would read null as ``"None"``.
    """
    if isinstance(value, str):
        return value
    raise ConfigError(source, f"{where}: expected a JSON string, got {value!r}")


def coord(value: object, source: str, where: str) -> tuple[float, float]:
    """``value`` as an ``(x, y)`` pair if it is an array of two JSON numbers, else a ConfigError.

    Every loader that reads a coordinate shares this check and its message.
    """
    if (isinstance(value, list) and len(value) == 2
            and all(type(c) in (int, float) for c in value)):
        return float(value[0]), float(value[1])
    raise ConfigError(source, f"{where}: expected [x, y], got {value!r}")


@contextmanager
def element(source: str, where: str | None = None) -> Iterator[None]:
    """Turn a malformed field of one config element into a ConfigError.

    A missing field reads ``<where>: missing field 'x'``; a field of the
    wrong type or value (including a short list) reads ``<where>: <exc>``.
    With no ``where`` the message is the exception's own, which names its
    field: the wrap around building a whole document.
    """
    prefix = "" if where is None else f"{where}: "
    try:
        yield
    except KeyError as exc:
        raise ConfigError(source, f"{prefix}missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(source, f"{prefix}{exc}") from None
