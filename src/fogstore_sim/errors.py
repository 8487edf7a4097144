"""Shared error types and the JSON file reader used by every config loader."""

from __future__ import annotations

import json
from pathlib import Path


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
