"""Dataset ingestion: station/forecast/observation CSV files, sampled-field
CSV files and rolling training windows.

CSV schemas
-----------
stations.csv      station_id,lon,lat,x_km,y_km          (lon/lat may be empty)
forecasts.csv     date,station_id,member,value_c        (member is 1-based)
observations.csv  date,station_id,value_c
fields.csv        sample,station_id,value_c,provenance  (sample is 1-based; written by `enspost sample`)

Missing values are empty fields; absent rows mean the same thing. Duplicate
keys are load errors that name the offending line; in fields.csv, a station
listed twice in one sample is an error that names the sample and station.

write_csv writes these files and the `station_id,mean,sd` file of `enspost
predict`: text cells are quoted as csv.writer quotes them, values are
written with repr (empty for NaN), so a reload is exact, and rows end in
\r\n as csv.writer writes them.

A dataset directory holds the three files under those names. load_data_dir
parses them once and keeps the parsed arrays in `.enspost-cache.npz` beside
them, keyed by the files' contents; later loads of unchanged files read the
arrays back instead of parsing. The cache may be deleted at any time.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import hashlib
import io
import itertools
import json
import locale
import logging
import math
import os
import tempfile
import warnings
import zipfile
from pathlib import Path

import numpy as np

from . import core
from .core import EnsembleDataset, ForecastFieldSample, Station, StationSet, TrainingWindow

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
        (_repeat(_codes(sid, {s: i for i, s in enumerate(sid)})), lambda i: f"duplicate station id {sid[i]!r}"),
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


DATA_FILES = ("stations.csv", "forecasts.csv", "observations.csv")
CACHE_FILE = ".enspost-cache.npz"
# The code that turns CSV bytes into a dataset and lays out the cache: its
# source is part of the key, so a changed parser never reads an old cache.
_PARSER_SOURCES = (Path(__file__), Path(core.__file__))


def data_paths(root) -> tuple[Path, Path, Path]:
    """The stations, forecasts and observations CSVs of a dataset directory."""
    root = Path(root)
    return tuple(root / name for name in DATA_FILES)


def _digest(path) -> bytes:
    """SHA-256 of a file's bytes, read in blocks."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.digest()


def _content_key(paths) -> str:
    # the parse reads the CSVs as text in the locale's encoding, so the same bytes may parse otherwise under another
    h = hashlib.sha256(locale.getpreferredencoding(False).encode())
    for path in (*_PARSER_SOURCES, *paths):
        h.update(_digest(path))
    return h.hexdigest()


def _read_cache(path, key):
    """The dataset stored in the cache at path under key, or None.

    The arrays go through the Station, StationSet and EnsembleDataset
    constructors, so their checks run on a hit as on a parse.
    """
    with np.load(path, allow_pickle=False) as z:
        meta = json.loads(z["meta"].tobytes())
        if meta["key"] != key:
            return None
        x, y, lon, lat = z["coords"].tolist()
        lon_none, lat_none = z["coords_none"].tolist()
        stations = StationSet(
            Station(sid, x[i], y[i], None if lon_none[i] else lon[i], None if lat_none[i] else lat[i])
            for i, sid in enumerate(meta["ids"]))
        return EnsembleDataset(stations, meta["days"], z["forecasts"], z["observations"])


def _write_cache(path, key, data: EnsembleDataset) -> None:
    """Store data under key by an atomic replace; a directory that refuses the write is left as it is."""
    # lon/lat None and NaN stay apart, and floats keep their bits, NaN payloads included
    coords = np.array([[getattr(s, c) for s in data.stations] for c in ("x", "y", "lon", "lat")], dtype=float)
    coords_none = np.array([[getattr(s, c) is None for s in data.stations] for c in ("lon", "lat")], dtype=bool)
    # one JSON text, since fixed-width numpy strings drop a trailing "\0"
    meta = json.dumps({"key": key, "ids": data.stations.ids, "days": data.days}).encode()
    tmp = None
    try:
        with tempfile.NamedTemporaryFile(dir=Path(path).parent, prefix=CACHE_FILE, suffix=".tmp", delete=False) as fh:
            tmp = fh.name
            np.savez(fh, meta=np.frombuffer(meta, dtype=np.uint8), coords=coords, coords_none=coords_none,
                     forecasts=data.forecasts, observations=data.observations)
        os.replace(tmp, path)
    except OSError as exc:
        log.info("dataset cache %s not written: %s", path, exc)
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def load_data_dir(root) -> EnsembleDataset:
    """The dataset of a directory holding the three CSV files.

    Equal, byte for byte, to load_dataset(*data_paths(root)). The first load
    of given file contents parses them and stores the arrays in
    root/.enspost-cache.npz, keyed by a SHA-256 over the three files' bytes
    and the parser's own source; a later load whose key matches reads the
    arrays back without parsing.
    A cache that cannot be read or holds another key counts as absent and
    is overwritten.
    """
    paths = data_paths(root)
    cache = Path(root) / CACHE_FILE
    try:
        key = _content_key(paths)
    except OSError:
        return load_dataset(*paths)  # the parse reports the missing file
    with contextlib.suppress(OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        data = _read_cache(cache, key)
        if data is not None:
            log.info("loaded %s from %s", root, cache)
            return data
    data = load_dataset(*paths)
    with contextlib.suppress(OSError):
        if _content_key(paths) == key:  # no file changed while it was parsed
            _write_cache(cache, key, data)
    return data


FIELDS_HEADER = ("sample", "station_id", "value_c", "provenance")
_CHUNK_ROWS = 4096  # rows joined into one string per write


def _text_cells(cells) -> list[str]:
    """Each cell as csv.writer writes it inside a row; each distinct cell is encoded once."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    encoded = {}
    for cell in dict.fromkeys(cells):
        buf.seek(0)
        buf.truncate()
        writer.writerow((cell, ""))  # a second field: csv.writer quotes an empty cell only when it is the whole row
        encoded[cell] = buf.getvalue()[:-3]
    return list(map(encoded.__getitem__, cells))


def _fmt(values: np.ndarray) -> list[str]:
    """Each float's repr, empty for NaN."""
    texts = list(map(repr, values.tolist()))
    for i in np.flatnonzero(np.isnan(values)).tolist():
        texts[i] = ""
    return texts


def write_csv(path, header, keys, columns, tail=()) -> None:
    """Write a CSV whose rows run over the product of the `keys` axes, outermost first.

    Row r holds one cell of each key axis, then element r (in C order) of
    each array in `columns`, formatted by _fmt, then the `tail` cells. The
    bytes equal those of csv.writer fed the same rows one at a time.
    """
    axes = [[cell + "," for cell in _text_cells(axis)] for axis in keys]
    end = "".join("," + cell for cell in _text_cells(tail)) + "\r\n"
    flat = [np.asarray(c, dtype=float).ravel() for c in columns]  # None becomes NaN
    prefixes = map("".join, itertools.product(*axes))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_text_cells(header)) + "\r\n")
        for start in range(0, flat[0].size, _CHUNK_ROWS):
            texts = [_fmt(c[start:start + _CHUNK_ROWS]) for c in flat]
            values = texts[0] if len(texts) == 1 else map(",".join, zip(*texts))
            fh.write(end.join(map(str.__add__, itertools.islice(prefixes, len(texts[0])), values)) + end)


def save_dataset(dataset: EnsembleDataset, stations_path, forecasts_path, observations_path) -> None:
    """Write the three CSV files; a reload reproduces the dataset exactly."""
    ids = dataset.stations.ids
    write_csv(stations_path, ("station_id", "lon", "lat", "x_km", "y_km"), [ids],
              [[getattr(s, c) for s in dataset.stations] for c in ("lon", "lat", "x", "y")])
    write_csv(forecasts_path, ("date", "station_id", "member", "value_c"),
              [dataset.days, ids, range(1, dataset.members + 1)], [dataset.forecasts])
    write_csv(observations_path, ("date", "station_id", "value_c"), [dataset.days, ids], [dataset.observations])


def save_fields_csv(sample: ForecastFieldSample, path) -> None:
    """Write a sample's fields, one row per (sample, station); inverse of load_fields_csv."""
    write_csv(path, FIELDS_HEADER, [range(1, sample.n_samples + 1), sample.station_order], [sample.fields],
              [sample.provenance])


def load_fields_csv(path) -> ForecastFieldSample:
    """Read a fields CSV back into a sample; inverse of save_fields_csv."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != FIELDS_HEADER:
            raise LoadError(f"{path}: expected header {','.join(FIELDS_HEADER)}")
        per_sample: dict = {}
        provenance = None
        for row in reader:
            if not row:
                continue
            if len(row) != len(FIELDS_HEADER):
                raise LoadError(f"{path} line {reader.line_num}: expected {len(FIELDS_HEADER)} fields, got {len(row)}")
            try:
                idx, value = int(row[0]), float(row[2])
            except ValueError:
                raise LoadError(
                    f"{path} line {reader.line_num}: bad sample number {row[0]!r} or value {row[2]!r}"
                ) from None
            per_sample.setdefault(idx, []).append((row[1], value))
            if provenance is None:
                provenance = row[3]
            elif provenance != row[3]:
                raise LoadError(f"{path}: mixed provenance values")
    if not per_sample:
        raise LoadError(f"{path}: no field rows")
    first = min(per_sample)
    order = tuple(sid for sid, _ in per_sample[first])
    if len(set(order)) != len(order):
        twice = next(sid for k, sid in enumerate(order) if sid in order[:k])
        raise LoadError(f"{path}: sample {first} lists station {twice!r} more than once")
    fields = np.empty((len(per_sample), len(order)))
    for k, (idx, rows) in enumerate(sorted(per_sample.items())):
        if tuple(sid for sid, _ in rows) != order:
            raise LoadError(f"{path}: sample {idx} has a different station order")
        fields[k] = [v for _, v in rows]
    return ForecastFieldSample(order, fields, provenance)


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
