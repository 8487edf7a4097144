"""Consistency levels, acknowledgement counts and geographic consistency regions.

A region spec maps a key space to distance bands around the data location.
Each band names the consistency level to use for reads and writes issued by
clients inside that band. Band matching is half-open: a client at distance
``d`` gets the first band with ``d <= max_radius_m``, so a client exactly on
a boundary still receives the stronger (inner) level.

Key matching prefers an exact key, then the longest declared prefix, then
the mandatory default spec. The spec set is immutable after load; a band
lookup touches no shared mutable state. This module only answers "which
band"; the store's coordinator decides which data location a query is
resolved against and when region mapping applies at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Literal, Mapping, Sequence

from .errors import ConfigError, load_json
from .topology import Coord, geo_distance

OpKind = Literal["read", "write"]


class ConsistencyLevel(Enum):
    """Number of replica acknowledgements required to complete an operation."""

    ONE = "ONE"
    TWO = "TWO"
    QUORUM = "QUORUM"
    ALL = "ALL"

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


def required_acks(level: ConsistencyLevel, replication_factor: int) -> int:
    """Acknowledgements needed before an operation reports complete.

    ONE -> 1, TWO -> 2, QUORUM -> floor(rf/2)+1, ALL -> rf. Raises
    :class:`LevelInfeasibleError` when the requirement exceeds ``rf``
    (e.g. TWO with a single replica).
    """
    if replication_factor < 1:
        raise ValueError("replication_factor must be >= 1")
    acks = {
        ConsistencyLevel.ONE: 1,
        ConsistencyLevel.TWO: 2,
        ConsistencyLevel.QUORUM: replication_factor // 2 + 1,
        ConsistencyLevel.ALL: replication_factor,
    }[level]
    if acks > replication_factor:
        raise LevelInfeasibleError(level, replication_factor)
    return acks


@dataclass(frozen=True)
class ClientContext:
    """Where (and who) a query comes from; extension tags are opaque."""

    client_id: str
    client_geo: Coord
    tags: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class DataContext:
    """Location of the data source a record describes."""

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
        if any(r <= 0 for r in radii):
            raise ValueError(f"spec {self.keyspace!r}: band radii must be > 0")
        if any(a >= b for a, b in zip(radii, radii[1:])):
            raise ValueError(f"spec {self.keyspace!r}: band radii must strictly increase")
        if not math.isinf(radii[-1]):
            raise ValueError(f"spec {self.keyspace!r}: last band must have infinite radius")

    def band_for_distance(self, distance_m: float) -> Band:
        for band in self.bands:
            if distance_m <= band.max_radius_m:
                return band
        raise AssertionError("unreachable: last band has infinite radius")


# Application-specific context hook: receives the geo-resolved band and may
# substitute another (e.g. upgrade the level for clients carrying some tag).
BandHook = Callable[[str, ClientContext, DataContext, Band], Band]


class RegionSet:
    """All loaded region specs plus the mandatory default.

    ``band_hook``, when given, post-processes the band chosen by distance,
    which is the extension point for non-geographic context predicates.
    :func:`get_region` itself only evaluates client-to-data distance.
    """

    def __init__(
        self,
        specs: Sequence[ConsistencyRegionSpec],
        default: ConsistencyRegionSpec,
        band_hook: BandHook | None = None,
    ):
        seen = set()
        for spec in specs:
            if spec.keyspace in seen:
                raise ValueError(f"duplicate keyspace {spec.keyspace!r}")
            seen.add(spec.keyspace)
        self.specs = tuple(specs)
        self.default = default
        self.band_hook = band_hook

    def match_spec(self, key: str) -> ConsistencyRegionSpec:
        """Exact key match, else longest matching prefix, else the default."""
        best: ConsistencyRegionSpec | None = None
        for spec in self.specs:
            if spec.keyspace == key:
                return spec
            if key.startswith(spec.keyspace):
                if best is None or len(spec.keyspace) > len(best.keyspace):
                    best = spec
        return best if best is not None else self.default


def get_region(
    spec_set: RegionSet,
    key: str,
    client_ctx: ClientContext,
    data_ctx: DataContext,
) -> Band:
    """Band containing the client's distance from the data location."""
    spec = spec_set.match_spec(key)
    distance = geo_distance(client_ctx.client_geo, data_ctx.data_geo)
    band = spec.band_for_distance(distance)
    if spec_set.band_hook is not None:
        band = spec_set.band_hook(key, client_ctx, data_ctx, band)
    return band


def get_level(band: Band, op_kind: OpKind) -> ConsistencyLevel:
    """The band's configured level for reads or writes."""
    return band.level_for(op_kind)


def _parse_level(raw: object, source: str, where: str) -> ConsistencyLevel:
    try:
        return ConsistencyLevel(str(raw))
    except ValueError:
        valid = ", ".join(l.value for l in ConsistencyLevel)
        raise ConfigError(source, f"{where}: unknown level {raw!r} (expected one of {valid})") from None


def _parse_spec(raw: dict, source: str, where: str, keyspace: str) -> ConsistencyRegionSpec:
    bands = []
    raw_bands = raw.get("bands")
    if not raw_bands:
        raise ConfigError(source, f"{where}: missing or empty 'bands'")
    for j, rb in enumerate(raw_bands):
        bwhere = f"{where}.bands[{j}]"
        radius = rb.get("radius_m", None)
        radius_m = math.inf if radius is None else float(radius)
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
    default = _parse_spec(data["default"], source, "default", keyspace="")
    specs = []
    for i, raw in enumerate(data.get("specs", [])):
        where = f"specs[{i}]"
        if "keyspace" not in raw:
            raise ConfigError(source, f"{where}: missing field 'keyspace'")
        specs.append(_parse_spec(raw, source, where, keyspace=str(raw["keyspace"])))
    try:
        return RegionSet(specs, default)
    except ValueError as exc:
        raise ConfigError(source, str(exc)) from None


def load_regions(path: str | Path) -> RegionSet:
    """Load and validate a consistency regions JSON file."""
    path = Path(path)
    return regions_from_dict(load_json(path), source=str(path))
