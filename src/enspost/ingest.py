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
The loaders stream each file in chunks of _CHUNK_ROWS rows and convert each
distinct text once: parse memory is a chunk of cells plus a few bytes a row.

write_csv writes these files and the `station_id,mean,sd` file of `enspost
predict`: text cells are quoted as csv.writer quotes them, values are
written with repr (empty for NaN), so a reload is exact, and rows end in
\r\n as csv.writer writes them.

A dataset directory holds the three files under those names. load_data_dir
parses them once and keeps the parsed arrays in `.enspost-cache.npz` beside
them, keyed by the files' contents; later loads of unchanged files read the
arrays back instead of parsing. The cache may be deleted at any time.
A fields CSV has its own cache, `.<name>.enspost-cache.npz` beside it, that
save_fields_csv fills with the sample it writes and load_fields_csv reads.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import functools
import hashlib
import io
import itertools
import json
import locale
import logging
import math
import operator
import os
import stat
import tempfile
import types
import typing
import warnings
import zipfile
from pathlib import Path

import numpy as np

from . import core
from .core import EnsembleDataset, ForecastFieldSample, Station, StationSet, TrainingWindow

log = logging.getLogger(__name__)


class LoadError(ValueError):
    """Raised when an input file violates its schema."""


def _read(path, header, kinds, raw=False):
    """The columns of a CSV file whose first record must be `header`, read _CHUNK_ROWS records at a time.

    Cells are stripped unless `raw`; blank records are skipped. A "text" column becomes each cell's code in
    lookup[k], its distinct texts in order of appearance; "int" the slot of int(cell) in ints[k], -1 where int()
    fails; "float" float64 values ('' is NaN unless `raw`). Also returns a namespace of lookup, ints, bad[k]
    (the first row whose cell k does not convert, with its cells), line(i) (the line of data row i) and
    width_check (the row of another width, where reading stopped, for _raise_first).
    """
    width, stride, start = len(header), len(header) + 1, 0
    info = types.SimpleNamespace(lookup=[{} for _ in kinds], ints=[[] for _ in kinds], bad=[(None, None)] * width,
                                 line=lambda i: _line(path, i), width_check=(None, None))
    chunks = [[np.empty(0, float if kind == "float" else np.int32)] for kind in kinds]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        head = next(reader, None)
        if raw and (head is None or tuple(head) != tuple(header)):
            raise LoadError(f"{path}: expected header {','.join(header)}")
        if head is None:
            raise LoadError(f"{path}: empty file")
        if [h.strip() for h in head] != list(header):
            raise LoadError(f"{path}: header {[h.strip() for h in head]!r} does not match {list(header)!r}")
        # flat cells, each record's closed by None: no row list outlives its parse to set off the garbage collector
        records = map(operator.add, filter(None, reader), itertools.repeat([None]))
        while cells := list(itertools.chain.from_iterable(itertools.islice(records, _CHUNK_ROWS))):
            n = cells.count(None)
            if not len(cells) == stride * n == stride * cells[width::stride].count(None):
                n = 0  # the records before the first of another width, where reading stops
                while cells.index(None, n * stride) == n * stride + width:
                    n += 1
                got = cells.index(None, n * stride) - n * stride
                info.width_check = (start + n, lambda i: f"expected {width} fields, got {got}")
            cols = [cells[k:n * stride:stride] for k in range(width)]
            if not raw:
                cols = [list(map(str.strip, c)) for c in cols]
            for k, column in enumerate(cols):
                if kinds[k] == "float":
                    values, hit = _floats(column, not raw)
                else:
                    values = _encode(column, info.lookup[k], info.ints[k] if kinds[k] == "int" else None)
                    hit = _first(values < 0)
                chunks[k].append(values)
                if hit is not None and info.bad[k][0] is None:
                    info.bad[k] = (start + hit, [c[hit] for c in cols])
            start += n
            if info.width_check[0] is not None:
                break
    return [np.concatenate(chunks.pop(0)) for _ in kinds], info  # each column's chunks freed as it is joined


def _line(path, i):
    """The line of data row i of a CSV file, counting records as csv.reader does, blank ones included."""
    with open(path, newline="") as fh:
        return next(itertools.islice((n for n, row in enumerate(csv.reader(fh), 1) if row), i + 1, None))


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
    return np.fromiter(map(index.get, cells, itertools.repeat(-1)), np.int32, len(cells))


def _encode(cells, index, ints=None):
    """index[cell] for each cell; a new text's code, added in order of appearance, is its position in index,
    or with `ints` the slot of its int() value in ints (-1 where int() fails)."""
    for t in dict.fromkeys(cells):
        if t not in index and ints is None:
            index[t] = len(index)
        elif t not in index:
            try:
                ints.append(int(t))
                index[t] = len(ints) - 1
            except ValueError:
                index[t] = -1
    return _codes(cells, index)


def _repeat(keys):
    """First index whose key equals an earlier one, or None."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    later = order[1:][ordered[1:] == ordered[:-1]]
    return int(later.min()) if later.size else None


def _floats(cells, blank_nan):
    """float of each cell ('' is NaN if blank_nan) and the index of the first bad cell or None; NaN from there on."""
    if blank_nan:
        cells = list(map({"": "nan"}.get, cells, cells))
    try:
        return np.fromiter(map(float, cells), float, len(cells)), None
    except ValueError:
        values = []
        with contextlib.suppress(ValueError):
            for t in cells:
                values.append(float(t))
        return np.array(values + [math.nan] * (len(cells) - len(values))), len(values)


def load_stations(path) -> StationSet:
    columns, table = _read(path, ("station_id", "lon", "lat", "x_km", "y_km"), ("text",) * 5)
    sid, *text = [list(map(list(texts).__getitem__, codes.tolist())) for codes, texts in zip(columns, table.lookup)]
    checks = [
        table.width_check,
        (_first([s == "" for s in sid]), lambda i: "empty station id"),
        (_repeat(columns[0]), lambda i: f"duplicate station id {sid[i]!r}"),
    ]
    coords = []
    for name, cells in zip(("lon", "lat", "x_km", "y_km"), text):
        values, bad = _floats(cells, True)
        if name in ("x_km", "y_km"):
            checks.append((_first([t == "" for t in cells]), lambda i, name=name: f"missing {name}"))
        checks.append((bad, lambda i, name=name, cells=cells: f"bad {name} {cells[i]!r}"))
        coords.append([None if t == "" else v for t, v in zip(cells, values.tolist())])
    lon, lat, x, y = coords
    # Station() checks its own coordinates: in row order, before a later row's error
    end = min((row for row, _ in checks if row is not None), default=len(sid))
    stations = [Station(sid[i], x[i], y[i], lon[i], lat[i]) for i in range(end)]
    _raise_first(path, table.line, checks)
    if not stations:
        raise LoadError(f"{path}: no stations")
    return StationSet(stations)


def _read_table(path, header, sindex):
    """Checked rows of a forecast or observation file.

    Returns the file's distinct dates and, per row, its date's code among
    them, its station index, its member (None for observations) and its
    value (NaN where empty).
    """
    (day, sid, *code, values), table = _read(path, header, ("text", "text", "int")[:len(header) - 1] + ("float",))
    dates, ids = list(table.lookup[0]), list(table.lookup[1])
    station = _codes(ids, sindex)[sid]
    valid = station >= 0
    checks = [table.width_check, (_first(~valid), lambda i: f"unknown station id {ids[sid[i]]!r}")]
    key, member, what = day.astype(np.int64) * len(sindex) + station, None, "(date, station)"
    if len(header) == 4:
        code, ints = code[0], table.ints[2]
        member = np.array(ints + [math.nan], dtype=float)[code]  # a bad member's code -1 picks the NaN
        checks += [
            (table.bad[2][0], lambda i: f"bad member {table.bad[2][1][2]!r}"),
            (_first(member < 1), lambda i: f"member must be 1-based, got {ints[code[i]]}"),
        ]
        valid &= member >= 1
        key = key * np.max(member, where=valid, initial=1) + member  # exact below 2**53
        what = "(date, station, member)"
    key[~valid] = -1 - np.flatnonzero(~valid)  # keys >= 0 are valid rows'; these repeat none
    checks += [
        (_repeat(key), lambda i: f"duplicate {what} "
                                 f"{(dates[day[i]], ids[sid[i]]) + (() if member is None else (ints[code[i]],))!r}"),
        (table.bad[-1][0], lambda i: f"bad value_c {table.bad[-1][1][-1]!r}"),
    ]
    _raise_first(path, table.line, checks)
    return dates, day, station, member, values


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
    # the parse reads the CSVs as text in the locale's encoding, so the same bytes may parse otherwise under
    # another; its codec's name, since 'UTF-8' (a C.UTF-8 child) and 'utf-8' (its UTF-8-mode parent) are one
    h = hashlib.sha256(codecs.lookup(locale.getpreferredencoding(False)).name.encode())
    for path in (*_PARSER_SOURCES, *paths):
        h.update(_digest(path))
    return h.hexdigest()


def _read_cache(path, key):
    """The (meta, arrays) stored in the cache file at path under key, or None."""
    with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as z:  # np.load(path) leaks the file when it raises
        meta = json.loads(z["meta"].tobytes())
        if meta.pop("key") != key:
            return None
        return meta, {name: z[name] for name in z.files if name != "meta"}


def _write_cache(path, key, meta: dict, arrays: dict) -> None:
    """Store meta and arrays under key by an atomic replace; a directory that refuses the write is left as it is."""
    # one JSON text, since fixed-width numpy strings drop a trailing "\0"
    meta = np.frombuffer(json.dumps({"key": key, **meta}).encode(), dtype=np.uint8)
    tmp = None
    try:
        with tempfile.NamedTemporaryFile(dir=Path(path).parent, prefix=Path(path).name, suffix=".tmp",
                                         delete=False) as fh:
            tmp = fh.name
            np.savez(fh, meta=meta, **arrays)
        os.replace(tmp, path)
    except OSError as exc:
        log.info("cache %s not written: %s", path, exc)
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _load_cached(paths, cache, parse, encode, decode):
    """parse(), or decode(meta, arrays) of what the cache file holds under the paths' content key.

    A cache that cannot be read or holds another key counts as absent; a
    parse's result is stored there as encode(result) gives it.
    """
    try:
        key = _content_key(paths)
    except OSError:
        return parse()  # the parse reports the missing file
    with contextlib.suppress(OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        hit = _read_cache(cache, key)
        if hit is not None:
            log.info("loaded %s from %s", ", ".join(map(str, paths)), cache)
            return decode(*hit)
    result = parse()
    with contextlib.suppress(OSError):
        if _content_key(paths) == key:  # no file changed while it was parsed
            _write_cache(cache, key, *encode(result))
    return result


def _dataset_arrays(data: EnsembleDataset):
    # lon/lat None and NaN stay apart, and floats keep their bits, NaN payloads included
    coords = np.array([[getattr(s, c) for s in data.stations] for c in ("x", "y", "lon", "lat")], dtype=float)
    coords_none = np.array([[getattr(s, c) is None for s in data.stations] for c in ("lon", "lat")], dtype=bool)
    return {"ids": data.stations.ids, "days": data.days}, {
        "coords": coords, "coords_none": coords_none, "forecasts": data.forecasts, "observations": data.observations}


def _dataset_from(meta, arrays) -> EnsembleDataset:
    """The arrays go through the Station, StationSet and EnsembleDataset constructors, so their checks run on a
    hit as on a parse."""
    x, y, lon, lat = arrays["coords"].tolist()
    lon_none, lat_none = arrays["coords_none"].tolist()
    stations = StationSet(
        Station(sid, x[i], y[i], None if lon_none[i] else lon[i], None if lat_none[i] else lat[i])
        for i, sid in enumerate(meta["ids"]))
    return EnsembleDataset(stations, meta["days"], arrays["forecasts"], arrays["observations"])


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
    return _load_cached(paths, Path(root) / CACHE_FILE, lambda: load_dataset(*paths), _dataset_arrays, _dataset_from)


FIELDS_HEADER = ("sample", "station_id", "value_c", "provenance")
_CHUNK_ROWS = 4096  # rows joined into one string per write, and converted at once per read


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


def _fields_cache(path) -> Path:
    """The cache file of a fields CSV: .<name>.enspost-cache.npz beside it."""
    path = Path(path)
    return path.with_name(f".{path.name}{CACHE_FILE}")


def _fields_arrays(sample: ForecastFieldSample):
    fields = np.ascontiguousarray(sample.fields)  # C order, as a parse gives it
    return {"ids": sample.station_order, "provenance": sample.provenance}, {"fields": fields}


def _fields_from(meta, arrays) -> ForecastFieldSample:
    return ForecastFieldSample(meta["ids"], arrays["fields"], meta["provenance"])


def save_fields_csv(sample: ForecastFieldSample, path) -> None:
    """Write a sample's fields, one row per (sample, station); inverse of load_fields_csv.

    When the file's parse would return the sample itself (it has a field
    and no station twice) and path is a regular file, the sample is also
    stored in the file's cache under its content key, so that
    load_fields_csv reads it back without parsing. A cache that cannot be
    written is skipped.
    """
    write_csv(path, FIELDS_HEADER, [range(1, sample.n_samples + 1), sample.station_order], [sample.fields],
              [sample.provenance])
    if sample.fields.size and len(set(sample.station_order)) == len(sample.station_order):
        with contextlib.suppress(OSError):
            if stat.S_ISREG(os.stat(path).st_mode):
                _write_cache(_fields_cache(path), _content_key([path]), *_fields_arrays(sample))


def load_fields_csv(path) -> ForecastFieldSample:
    """Read a fields CSV back into a sample; inverse of save_fields_csv.

    Equal, bit for bit, to _parse_fields_csv(path); a file whose content key
    its cache holds is read from there, and one that parses is stored there.
    """
    return _load_cached([path], _fields_cache(path), lambda: _parse_fields_csv(path), _fields_arrays, _fields_from)


def _parse_fields_csv(path) -> ForecastFieldSample:
    """The sample of a fields CSV. Samples are ordered by number; each keeps its rows' file order, which must list
    the stations of the lowest-numbered sample in its order."""
    (slot, sid, values, provenance), table = _read(path, FIELDS_HEADER, ("int", "text", "float", "text"), raw=True)
    bad = min(table.bad[0], table.bad[2], key=lambda b: math.inf if b[0] is None else b[0])
    mixed = _first(provenance != 0)
    if mixed is not None and (bad[0] is None or mixed < bad[0]):  # no row is read past width_check's
        raise LoadError(f"{path}: mixed provenance values")
    _raise_first(path, table.line, [table.width_check,
                                    (bad[0], lambda i: f"bad sample number {bad[1][0]!r} or value {bad[1][2]!r}")])
    if not values.size:
        raise LoadError(f"{path}: no field rows")
    numbers = sorted(set(table.ints[0]))
    rank = {number: r for r, number in enumerate(numbers)}
    key = np.array([rank[n] for n in table.ints[0]], dtype=np.int32)[slot]
    counts, order = np.bincount(key), np.argsort(key, kind="stable")
    del slot, key, provenance  # freed before the reorder
    sid, values = sid[order], values[order]
    first, n = sid[:counts[0]], int(counts[0])
    twice = _repeat(first)
    ids = list(table.lookup[1])
    if twice is not None:
        raise LoadError(f"{path}: sample {numbers[0]} lists station {ids[first[twice]]!r} more than once")
    full = _first(np.append(counts != n, True))  # samples with n rows lead; the next, if any, has another order
    wrong = _first(np.append((sid[:full * n].reshape(full, n) != first).any(axis=1), full < len(counts)))
    if wrong is not None:
        raise LoadError(f"{path}: sample {numbers[wrong]} has a different station order")
    return ForecastFieldSample(tuple(ids[c] for c in first), values.reshape(-1, n), next(iter(table.lookup[3])))


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


_ITEM_TYPES = {tuple: float, tuple[float, ...]: float, tuple[str, ...]: str}  # a comma list's item casts


_field_types = functools.cache(typing.get_type_hints)  # a dataclass's fields -> their types


def cast_fields(cls, values: dict) -> dict:
    """values, keyed by field names of the dataclass cls, cast by each field's annotation.

    int, float and str fields are cast by their type; a text value for a
    tuple, tuple[float, ...] or tuple[str, ...] field is read as its comma
    list; any other value passes as given. A key that names no field of cls
    is a ValueError naming it.
    """
    types_ = _field_types(cls)
    unknown = [key for key in values if key not in types_]
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s): {', '.join(unknown)}")
    out = {}
    for key, value in values.items():
        kind = types_[key]
        if kind in (int, float, str):
            out[key] = kind(value)
        elif kind in _ITEM_TYPES and isinstance(value, str):
            out[key] = tuple(_ITEM_TYPES[kind](tok.strip()) for tok in value.split(",") if tok.strip())
        else:
            out[key] = value
    return out
