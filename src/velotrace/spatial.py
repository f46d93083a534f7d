"""Spatial usage products: max-normalized density grids over a bounding box
and hub spreading-out reports (ranked destination cells for trips leaving a
named hub). Cells are metric, using meters-per-degree at a reference latitude;
adequate for a city-scale box. `HubSpreadReport` is an entry of `hubs.json`:
its field names are the entry's keys."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ParseError, RangeError
from .ingest import EARTH_RADIUS_M, TripTable, half_angles
from .util import csv_records, write_csv

M_PER_DEG_LAT = math.pi / 180.0 * EARTH_RADIUS_M
_BIN_BLOCK = 1 << 16  # points that `build_density_grid` bins together


def _m_per_deg_lon(at_lat: float) -> float:
    return M_PER_DEG_LAT * math.cos(math.radians(at_lat))


@dataclass
class DensityGrid:
    bbox: tuple[float, float, float, float]  # (min_lat, min_lon, max_lat, max_lon)
    cell_size: float
    n_rows: int
    n_cols: int
    counts: np.ndarray      # (n_rows, n_cols) int64
    normalized: np.ndarray  # counts / max(counts), zeros when empty
    ignored: int            # points outside the bbox


def build_density_grid(lat, lon, bbox, cell_size: float) -> DensityGrid:
    """Count the points of the columns `lat` and `lon` into metric cells
    anchored at the bbox SW corner.

    Points on the closed bbox boundary are kept (top/right edges fold into the
    last row/column); a point without a coordinate (NaN) is neither counted
    nor ignored. Normalization is per grid, i.e. per call. The points are
    binned `_BIN_BLOCK` at a time into one count array, so the work holds
    arrays of one block, not of every point.
    """
    min_lat, min_lon, max_lat, max_lon = bbox
    if not (min_lat < max_lat and min_lon < max_lon):
        raise ParameterError(f"degenerate bbox: {bbox!r}")
    if cell_size <= 0:
        raise ParameterError("cell_size must be positive")

    center_lat = (min_lat + max_lat) / 2.0
    m_lat = M_PER_DEG_LAT
    m_lon = _m_per_deg_lon(center_lat)
    n_rows = max(1, math.ceil((max_lat - min_lat) * m_lat / cell_size))
    n_cols = max(1, math.ceil((max_lon - min_lon) * m_lon / cell_size))

    lat, lon = np.asarray(lat, dtype=np.float64), np.asarray(lon, dtype=np.float64)
    flat = np.zeros(n_rows * n_cols, dtype=np.int64)
    ignored = 0
    for a in range(0, len(lat), _BIN_BLOCK):
        la, lo = lat[a:a + _BIN_BLOCK], lon[a:a + _BIN_BLOCK]
        inside = (la >= min_lat) & (la <= max_lat) & (lo >= min_lon) & (lo <= max_lon)
        rows = np.floor((la[inside] - min_lat) * m_lat / cell_size).astype(np.int64)
        cols = np.floor((lo[inside] - min_lon) * m_lon / cell_size).astype(np.int64)
        np.clip(rows, 0, n_rows - 1, out=rows)
        np.clip(cols, 0, n_cols - 1, out=cols)
        flat += np.bincount(rows * n_cols + cols, minlength=n_rows * n_cols)
        ignored += np.count_nonzero(~(np.isnan(la) | np.isnan(lo))) - np.count_nonzero(inside)
    counts = flat.reshape(n_rows, n_cols)
    peak = counts.max()
    normalized = counts / peak if peak > 0 else counts.astype(np.float64)
    return DensityGrid(bbox, cell_size, n_rows, n_cols, counts, normalized, int(ignored))


@dataclass
class Destination:
    cell_center: tuple[float, float]
    trip_count: int
    rank: int


@dataclass
class HubSpreadReport:
    hub_center: tuple[float, float]
    hub_radius_m: float
    period: str
    destinations: list[Destination]
    total_trips_from_hub: int
    hub_name: str = ""


def hub_spread(trips: TripTable, hub_center: tuple[float, float], hub_radius: float,
               dest_cell_size: float, top_k: int, period: str = "all",
               hub_name: str = "") -> HubSpreadReport:
    """Rank the `end_point` cells of the table's trips whose `start_point`
    lies within `hub_radius` of the hub.

    Hub membership is a closed disk (start exactly at the radius counts).
    Destinations are metric cells anchored at the hub center; ties rank by
    (row, col) ascending so reports are byte-stable.
    """
    if hub_radius <= 0:
        raise ParameterError("hub_radius must be positive")
    if top_k < 1:
        raise ParameterError("top_k must be >= 1")

    m_lat = M_PER_DEG_LAT
    m_lon = _m_per_deg_lon(hub_center[0])
    start, end = trips.start_point, trips.end_point
    near = 2.0 * EARTH_RADIUS_M * half_angles(start[:, 0], start[:, 1], *hub_center) <= hub_radius
    rows = np.floor((end[near, 0] - hub_center[0]) * m_lat / dest_cell_size).astype(np.int64)
    cols = np.floor((end[near, 1] - hub_center[1]) * m_lon / dest_cell_size).astype(np.int64)
    cells, counts = np.unique(np.column_stack((rows, cols)), axis=0, return_counts=True)
    top = np.lexsort((cells[:, 1], cells[:, 0], -counts))[:top_k]

    destinations = []
    for rank, ((row, col), count) in enumerate(zip(cells[top].tolist(), counts[top].tolist()), start=1):
        center = (
            hub_center[0] + (row + 0.5) * dest_cell_size / m_lat,
            hub_center[1] + (col + 0.5) * dest_cell_size / m_lon,
        )
        destinations.append(Destination(center, count, rank))
    total = int(near.sum())
    return HubSpreadReport(hub_center, hub_radius, period, destinations, total, hub_name)


@dataclass(frozen=True)
class HubDef:
    name: str
    lat: float
    lon: float
    radius_m: float


def parse_hub_file(source) -> list[HubDef]:
    """Hub config CSV with header `name,lat,lon,radius_m`. A row that does not
    parse raises ParseError, a coordinate out of range or a radius that is not
    finite and > 0 RangeError, each naming the row's 1-based line."""
    out = []
    for line, row in csv_records(source, ["name", "lat", "lon", "radius_m"], "hub"):
        try:
            lat, lon, radius = map(float, row[1:])
        except ValueError:
            raise ParseError(line, f"bad number in hub row {row!r}") from None
        if not (-90 <= lat <= 90 and -180 <= lon <= 180):
            raise RangeError(line, f"hub coordinate ({lat}, {lon}) outside [-90, 90] x [-180, 180]")
        if not (math.isfinite(radius) and radius > 0):
            raise RangeError(line, f"hub radius {radius} must be finite and > 0")
        out.append(HubDef(row[0], lat, lon, radius))
    return out


def write_density_csv(grid: DensityGrid, path) -> None:
    cols = range(grid.n_cols)
    # a grid row at a time, as Python values
    write_csv(path, ["row", "col", "count", "normalized"], itertools.chain.from_iterable(
        zip(itertools.repeat(r), cols, grid.counts[r].tolist(), grid.normalized[r].tolist())
        for r in range(grid.n_rows)))
