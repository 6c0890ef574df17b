"""Dataset ingestion: station/forecast/observation CSV files and rolling
training windows.

CSV schemas
-----------
stations.csv      station_id,lon,lat,x_km,y_km      (lon/lat may be empty)
forecasts.csv     date,station_id,member,value_c    (member is 1-based)
observations.csv  date,station_id,value_c

Missing values are empty fields; absent rows mean the same thing. Duplicate
keys are load errors that name the offending line.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import itertools
import logging
import math
import warnings

import numpy as np

from .core import EnsembleDataset, Station, StationSet, TrainingWindow

log = logging.getLogger(__name__)


class LoadError(ValueError):
    """Raised when an input file violates its schema."""


def _columns(path, header):
    """Stripped columns of a CSV file whose first record must be `header`.

    Also returns line(i), the line of data row i (blank records are skipped
    but counted, as csv.reader counts them), and the field-count check for
    _raise_first: reading stops at the first row of the wrong width.
    """
    width, flat, blanks, check = len(header), [], [], (None, None)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        head = next(reader, None)
        if head is None:
            raise LoadError(f"{path}: empty file")
        head = [h.strip() for h in head]
        if head != list(header):
            raise LoadError(f"{path}: header {head!r} does not match {list(header)!r}")
        for row in reader:
            if len(row) == width:
                flat.extend(row)
            elif row:
                check = (len(flat) // width, lambda i, n=len(row): f"expected {width} fields, got {n}")
                break
            else:
                blanks.append(len(flat) // width)
    cols = [list(map(str.strip, flat[c::width])) for c in range(width)]
    return cols, lambda i: i + 2 + bisect.bisect_right(blanks, i), check


def _raise_first(path, line, checks):
    """Raise the error of the earliest failing row.

    checks are (first failing row or None, row -> message) in the order they
    apply to one row, so on one row the first listed wins.
    """
    failing = [(row, k) for k, (row, _) in enumerate(checks) if row is not None]
    if failing:
        row, k = min(failing)
        raise LoadError(f"{path} line {line(row)}: {checks[k][1](row)}")


def _first(mask):
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _codes(cells, index):
    """index[cell] for each cell, -1 where the cell is not a key."""
    return np.fromiter(map(index.get, cells, itertools.repeat(-1)), np.intp, len(cells))


def _repeat(keys):
    """First index whose key equals an earlier one, or None."""
    order = np.argsort(keys, kind="stable")
    later = order[1:][keys[order[1:]] == keys[order[:-1]]]
    return int(later.min()) if later.size else None


def _floats(cells, empty):
    """float of each cell (`empty` for ''), stopping at the first bad cell: (values, its index or None)."""
    values = []
    try:
        for t in cells:
            values.append(float(t) if t else empty)
    except ValueError:
        return values, len(values)
    return values, None


def load_stations(path) -> StationSet:
    (sid, *text), line, width_check = _columns(path, ("station_id", "lon", "lat", "x_km", "y_km"))
    checks = [
        width_check,
        (_first([s == "" for s in sid]), lambda i: "empty station id"),
        (_repeat(np.unique(sid, return_inverse=True)[1]), lambda i: f"duplicate station id {sid[i]!r}"),
    ]
    coords = []
    for name, cells in zip(("lon", "lat", "x_km", "y_km"), text):
        values, bad = _floats(cells, None)
        if name in ("x_km", "y_km"):
            checks.append((_first([t == "" for t in cells]), lambda i, name=name: f"missing {name}"))
        checks.append((bad, lambda i, name=name, cells=cells: f"bad {name} {cells[i]!r}"))
        coords.append(values)
    lon, lat, x, y = coords
    # Station() checks its own coordinates: in row order, before a later row's error
    end = min((row for row, _ in checks if row is not None), default=len(sid))
    stations = [Station(sid[i], x[i], y[i], lon[i], lat[i]) for i in range(end)]
    _raise_first(path, line, checks)
    if not stations:
        raise LoadError(f"{path}: no stations")
    return StationSet(stations)


def _read_table(path, header, sindex):
    """Checked rows of a forecast or observation file.

    Returns the file's sorted dates and, per row, its date's position among
    them, its station index, its member (None for observations) and its
    value (NaN where empty).
    """
    cols, line, width_check = _columns(path, header)
    date, sid, text = cols[0], cols[1], cols[-1]
    dates = sorted(set(date))
    day = _codes(date, {d: i for i, d in enumerate(dates)})
    station = _codes(sid, sindex)
    valid = station >= 0
    checks = [width_check, (_first(~valid), lambda i: f"unknown station id {sid[i]!r}")]
    key, member, what = day * len(sindex) + station, None, "(date, station)"
    if len(cols) == 4:
        numbers = {}  # int() once per distinct member text
        for t in set(cols[2]):
            with contextlib.suppress(ValueError):
                numbers[t] = int(t)
        member = np.fromiter(map(numbers.get, cols[2], itertools.repeat(math.nan)), float, len(date))
        checks += [
            (_first(np.isnan(member)), lambda i: f"bad member {cols[2][i]!r}"),
            (_first(member < 1), lambda i: f"member must be 1-based, got {numbers[cols[2][i]]}"),
        ]
        valid &= member >= 1
        key = key * np.max(member, where=valid, initial=1) + member - 1  # exact below 2**53
        what = "(date, station, member)"
    rows = np.flatnonzero(valid)
    repeat = _repeat(key[rows])
    values, bad_value = _floats(text, math.nan)
    checks += [
        (None if repeat is None else int(rows[repeat]),
         lambda i: f"duplicate {what} {(date[i], sid[i]) + (() if member is None else (numbers[cols[2][i]],))!r}"),
        (bad_value, lambda i: f"bad value_c {text[i]!r}"),
    ]
    _raise_first(path, line, checks)
    return dates, day, station, member, np.array(values)


def load_dataset(stations_path, forecasts_path, observations_path) -> EnsembleDataset:
    """Read the three CSV files into one aligned dataset."""
    stations = load_stations(stations_path)
    sindex = {sid: i for i, sid in enumerate(stations.ids)}
    fc_dates, fc_day, fc_station, member, fc_values = _read_table(
        forecasts_path, ("date", "station_id", "member", "value_c"), sindex)
    if not len(member):
        raise LoadError(f"{forecasts_path}: no forecast rows")
    ob_dates, ob_day, ob_station, _, ob_values = _read_table(
        observations_path, ("date", "station_id", "value_c"), sindex)

    days = sorted(set(fc_dates) | set(ob_dates))
    day_index = {d: i for i, d in enumerate(days)}
    n_members = int(member.max())
    forecasts = np.full((len(days), len(stations), n_members), np.nan)
    observations = np.full((len(days), len(stations)), np.nan)
    forecasts[_codes(fc_dates, day_index)[fc_day], fc_station, member.astype(np.intp) - 1] = fc_values
    observations[_codes(ob_dates, day_index)[ob_day], ob_station] = ob_values

    dataset = EnsembleDataset(stations, days, forecasts, observations)
    log.info(
        "loaded %d stations, %d days, %d members (%d forecast rows, %d observation rows, %d eliminated days)",
        len(stations), len(days), n_members, len(member), len(ob_values), int(dataset.eliminated.sum()),
    )
    return dataset


def _fmt(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return repr(float(value))


def save_dataset(dataset: EnsembleDataset, stations_path, forecasts_path, observations_path) -> None:
    """Write the three CSV files; a reload reproduces the dataset exactly."""
    with open(stations_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("station_id", "lon", "lat", "x_km", "y_km"))
        for s in dataset.stations:
            w.writerow((s.id, _fmt(s.lon), _fmt(s.lat), _fmt(s.x), _fmt(s.y)))
    with open(forecasts_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("date", "station_id", "member", "value_c"))
        for di, day in enumerate(dataset.days):
            for si, sid in enumerate(dataset.stations.ids):
                for m in range(dataset.members):
                    w.writerow((day, sid, m + 1, _fmt(dataset.forecasts[di, si, m])))
    with open(observations_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("date", "station_id", "value_c"))
        for di, day in enumerate(dataset.days):
            for si, sid in enumerate(dataset.stations.ids):
                w.writerow((day, sid, _fmt(dataset.observations[di, si])))


def rolling_windows(dataset: EnsembleDataset, window_length: int = 25) -> list[TrainingWindow]:
    """One training window per eligible target day.

    Eliminated days are excluded from both roles; each window holds the
    window_length most recent non-eliminated days strictly before its target.
    """
    if window_length < 1:
        raise ValueError("window_length must be positive")
    valid = dataset.non_eliminated_days()
    if len(valid) <= window_length:
        warnings.warn(
            f"only {len(valid)} usable days; need more than {window_length} for any window",
            stacklevel=2,
        )
        return []
    return [
        TrainingWindow(valid[k], tuple(valid[k - window_length:k]))
        for k in range(window_length, len(valid))
    ]


def read_key_values(path) -> dict:
    """key=value lines into a dict; '#' lines and blanks skipped.

    Values keep their raw text; callers coerce. Duplicate keys are an
    error so a manifest cannot silently contradict itself.
    """
    out: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise LoadError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in out:
                raise LoadError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value.strip()
    return out
