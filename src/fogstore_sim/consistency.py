"""Consistency levels, acknowledgement counts and geographic consistency regions.

A region spec maps a key space to distance bands around the data location.
Each band names the consistency level to use for reads and writes issued by
clients inside that band. Band matching is half-open: a client at distance
``d`` gets the first band with ``d <= max_radius_m``, so a client exactly on
a boundary still receives the stronger (inner) level.

Key matching picks the longest declared keyspace that prefixes the key (an
exact key is its own longest prefix), else the mandatory default spec. The
spec set is immutable after load; a band lookup touches no shared mutable
state. This module only answers "which band"; the store's coordinator
decides which data location a query is resolved against. A uniform level is
a set with one infinite band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Literal, Sequence

from .errors import ConfigError, expect, load_json, number, string
from .topology import Coord, geo_distance

OpKind = Literal["read", "write"]


class ConsistencyLevel(Enum):
    """Number of replica acknowledgements required to complete an operation."""

    ONE = "ONE"
    TWO = "TWO"
    QUORUM = "QUORUM"
    ALL = "ALL"

    # Members are singletons that compare by identity, so identity hashing
    # agrees with equality; ``Enum.__hash__`` is Python code run per lookup.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # CSV-friendly
        return self.value


class LevelInfeasibleError(Exception):
    """The level needs more acknowledgements than replicas exist."""

    def __init__(self, level: ConsistencyLevel, replication_factor: int):
        self.level = level
        self.replication_factor = replication_factor
        super().__init__(
            f"level {level.value} infeasible with replication factor {replication_factor}"
        )


# Acknowledgements each level needs, as a function of the replication factor.
_ACKS: dict[ConsistencyLevel, Callable[[int], int]] = {
    ConsistencyLevel.ONE: lambda rf: 1,
    ConsistencyLevel.TWO: lambda rf: 2,
    ConsistencyLevel.QUORUM: lambda rf: rf // 2 + 1,
    ConsistencyLevel.ALL: lambda rf: rf,
}


def required_acks(level: ConsistencyLevel, replication_factor: int) -> int:
    """Acknowledgements needed before an operation reports complete.

    ONE -> 1, TWO -> 2, QUORUM -> floor(rf/2)+1, ALL -> rf. Raises
    :class:`LevelInfeasibleError` when the requirement exceeds ``rf``
    (e.g. TWO with a single replica).
    """
    if replication_factor < 1:
        raise ValueError("replication_factor must be >= 1")
    acks = _ACKS[level](replication_factor)
    if acks > replication_factor:
        raise LevelInfeasibleError(level, replication_factor)
    return acks


@dataclass(frozen=True, slots=True)
class ClientContext:
    """Where (and who) a query comes from."""

    client_id: str
    client_geo: Coord


@dataclass(frozen=True, slots=True)
class DataContext:
    """Location of the source of a key's data."""

    data_geo: Coord


@dataclass(frozen=True)
class Band:
    """One annulus of a region spec: everything within ``max_radius_m``."""

    max_radius_m: float
    read_level: ConsistencyLevel
    write_level: ConsistencyLevel

    def level_for(self, op_kind: OpKind) -> ConsistencyLevel:
        return self.read_level if op_kind == "read" else self.write_level


@dataclass(frozen=True)
class ConsistencyRegionSpec:
    """Distance bands for one key space (exact key or key prefix)."""

    keyspace: str
    bands: tuple[Band, ...]

    def __post_init__(self) -> None:
        if not self.bands:
            raise ValueError(f"spec {self.keyspace!r}: needs at least one band")
        radii = [b.max_radius_m for b in self.bands]
        for j, r in enumerate(radii):
            if not r > 0:  # also rejects NaN, which every band lookup would skip
                raise ValueError(f"spec {self.keyspace!r}: bands[{j}].radius_m must be > 0 "
                                 f"(got {r})")
        if any(a >= b for a, b in zip(radii, radii[1:])):
            raise ValueError(f"spec {self.keyspace!r}: band radii must strictly increase")
        if not math.isinf(radii[-1]):
            raise ValueError(f"spec {self.keyspace!r}: last band must have infinite radius")

    def band_for_distance(self, distance_m: float) -> Band:
        for band in self.bands:
            if distance_m <= band.max_radius_m:
                return band
        raise AssertionError("unreachable: last band has infinite radius")


class RegionSet:
    """All loaded region specs plus the mandatory default."""

    def __init__(self, specs: Sequence[ConsistencyRegionSpec], default: ConsistencyRegionSpec):
        seen = set()
        for spec in specs:
            if spec.keyspace in seen:
                raise ValueError(f"duplicate keyspace {spec.keyspace!r}")
            seen.add(spec.keyspace)
        self.specs = tuple(specs)
        self.default = default
        # Longest keyspace first, so the first prefix match is the longest one.
        self._by_length = sorted(self.specs, key=lambda spec: len(spec.keyspace), reverse=True)

    @classmethod
    def uniform(cls, read: ConsistencyLevel, write: ConsistencyLevel) -> RegionSet:
        """The same levels for every key and every distance: one infinite band."""
        return cls((), ConsistencyRegionSpec("", (Band(math.inf, read, write),)))

    def match_spec(self, key: str) -> ConsistencyRegionSpec:
        """Longest keyspace that prefixes ``key``, else the default.

        Keyspaces are unique, so an exact key is the longest prefix it has.
        """
        for spec in self._by_length:
            if key.startswith(spec.keyspace):
                return spec
        return self.default


def get_region(
    spec_set: RegionSet,
    key: str,
    client_ctx: ClientContext,
    data_ctx: DataContext,
) -> Band:
    """Band containing the client's distance from the data location."""
    spec = spec_set.match_spec(key)
    return spec.band_for_distance(geo_distance(client_ctx.client_geo, data_ctx.data_geo))


def _parse_level(raw: object, source: str, where: str) -> ConsistencyLevel:
    try:
        return ConsistencyLevel(str(raw))
    except ValueError:
        valid = ", ".join(l.value for l in ConsistencyLevel)
        raise ConfigError(source, f"{where}: unknown level {raw!r} (expected one of {valid})") from None


def _parse_spec(raw: dict, source: str, where: str, keyspace: str) -> ConsistencyRegionSpec:
    bands = []
    raw_bands = raw.get("bands")
    if raw_bands is None or raw_bands == []:  # any other value must be a non-empty array
        raise ConfigError(source, f"{where}: missing or empty 'bands'")
    for j, rb in enumerate(expect(raw_bands, list, source, f"{where}.bands")):
        bwhere = f"{where}.bands[{j}]"
        radius = expect(rb, dict, source, bwhere).get("radius_m", None)
        radius_m = math.inf if radius is None else number(radius, source, f"{bwhere}.radius_m")
        bands.append(
            Band(
                max_radius_m=radius_m,
                read_level=_parse_level(rb.get("read"), source, f"{bwhere}.read"),
                write_level=_parse_level(rb.get("write"), source, f"{bwhere}.write"),
            )
        )
    try:
        return ConsistencyRegionSpec(keyspace=keyspace, bands=tuple(bands))
    except ValueError as exc:
        raise ConfigError(source, f"{where}: {exc}") from None


def regions_from_dict(data: dict, source: str = "<dict>") -> RegionSet:
    """Build a region set from the JSON document structure."""
    if not isinstance(data, dict):
        raise ConfigError(source, "regions document must be a JSON object")
    if "default" not in data:
        raise ConfigError(source, "default: a default spec (infinite radius band) is required")
    default = _parse_spec(expect(data["default"], dict, source, "default"), source, "default",
                          keyspace="")
    specs = []
    for i, raw in enumerate(expect(data.get("specs", []), list, source, "specs")):
        where = f"specs[{i}]"
        if "keyspace" not in expect(raw, dict, source, where):
            raise ConfigError(source, f"{where}: missing field 'keyspace'")
        keyspace = string(raw["keyspace"], source, f"{where}.keyspace")
        specs.append(_parse_spec(raw, source, where, keyspace=keyspace))
    try:
        return RegionSet(specs, default)
    except ValueError as exc:
        raise ConfigError(source, str(exc)) from None


def load_regions(path: str | Path) -> RegionSet:
    """Load and validate a consistency regions JSON file."""
    path = Path(path)
    return regions_from_dict(load_json(path), source=str(path))
