import gc
import os
import re
import shutil
import tracemalloc
import warnings

import numpy as np
import pytest

from enspost import ingest
from enspost.core import EnsembleDataset, ForecastFieldSample, Station, StationSet
from enspost.ingest import (
    CACHE_FILE,
    DATA_FILES,
    LoadError,
    data_paths,
    load_data_dir,
    load_dataset,
    load_fields_csv,
    load_stations,
    read_key_values,
    rolling_windows,
    save_dataset,
    save_fields_csv,
)
from enspost.synth import default_spec, generate
from tests.conftest import make_dataset, rowwise_fields_csv, rowwise_load_dataset, rowwise_save_dataset

STATIONS = "station_id,lon,lat,x_km,y_km\nA,,,0,0\nB,,,10,0\n"
FC_HEAD = "date,station_id,member,value_c\n"
OB_HEAD = "date,station_id,value_c\n"


def write_files(tmp_path, forecasts, observations=OB_HEAD, stations=STATIONS):
    paths = [tmp_path / n for n in ("s.csv", "f.csv", "o.csv")]
    for path, text in zip(paths, (stations, forecasts, observations)):
        path.write_text(text)
    return paths


class TestStationsCsv:
    def test_round_trip(self, tmp_path):
        data = make_dataset(n_days=3, n_stations=4)
        paths = [tmp_path / n for n in ("s.csv", "f.csv", "o.csv")]
        save_dataset(data, *paths)
        loaded = load_stations(paths[0])
        assert loaded.ids == data.stations.ids
        for a, b in zip(loaded, data.stations):
            assert a.x == b.x and a.y == b.y

    def test_bad_header(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("id,x,y\nA,0,0\n")
        with pytest.raises(LoadError):
            load_stations(p)

    def test_duplicate_station(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("station_id,lon,lat,x_km,y_km\nA,,,0,0\nA,,,1,1\n")
        with pytest.raises(LoadError, match="duplicate"):
            load_stations(p)

    def test_missing_planar_coordinate(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("station_id,lon,lat,x_km,y_km\nA,,,0,\n")
        with pytest.raises(LoadError, match="missing y_km"):
            load_stations(p)


class TestDatasetCsv:
    def test_round_trip_exact(self, tmp_path):
        data = make_dataset(n_days=5, n_stations=3, n_members=4)
        paths = [tmp_path / n for n in ("s.csv", "f.csv", "o.csv")]
        save_dataset(data, *paths)
        loaded = load_dataset(*paths)
        assert loaded.days == data.days
        np.testing.assert_array_equal(loaded.forecasts, data.forecasts)
        np.testing.assert_array_equal(loaded.observations, data.observations)

    def test_missing_cells_become_nan(self, tmp_path):
        (tmp_path / "s.csv").write_text("station_id,lon,lat,x_km,y_km\nA,,,0,0\nB,,,10,0\n")
        (tmp_path / "f.csv").write_text(
            "date,station_id,member,value_c\n"
            "d1,A,1,1.0\nd1,A,2,2.0\nd1,B,1,3.0\nd1,B,2,\n"
        )
        (tmp_path / "o.csv").write_text("date,station_id,value_c\nd1,A,1.5\n")
        data = load_dataset(tmp_path / "s.csv", tmp_path / "f.csv", tmp_path / "o.csv")
        assert np.isnan(data.forecasts[0, 1, 1])
        assert np.isnan(data.observations[0, 1])
        assert data.observations[0, 0] == 1.5

    def test_duplicate_forecast_row_rejected(self, tmp_path):
        (tmp_path / "s.csv").write_text("station_id,lon,lat,x_km,y_km\nA,,,0,0\n")
        (tmp_path / "f.csv").write_text(
            "date,station_id,member,value_c\nd1,A,1,1.0\nd1,A,1,2.0\n"
        )
        (tmp_path / "o.csv").write_text("date,station_id,value_c\n")
        with pytest.raises(LoadError, match="duplicate"):
            load_dataset(tmp_path / "s.csv", tmp_path / "f.csv", tmp_path / "o.csv")

    def test_unknown_station_rejected(self, tmp_path):
        (tmp_path / "s.csv").write_text("station_id,lon,lat,x_km,y_km\nA,,,0,0\n")
        (tmp_path / "f.csv").write_text("date,station_id,member,value_c\nd1,Z,1,1.0\n")
        (tmp_path / "o.csv").write_text("date,station_id,value_c\n")
        with pytest.raises(LoadError, match="unknown station"):
            load_dataset(tmp_path / "s.csv", tmp_path / "f.csv", tmp_path / "o.csv")


class TestLoadErrors:
    """Exact text and line of each load error, as the one-row-at-a-time loader gave them."""

    CASES = {
        "field_count": (FC_HEAD + "d1,A,1,1.0\nd1,A,2\n", OB_HEAD,
                        "f.csv line 3: expected 4 fields, got 3"),
        "bad_member": (FC_HEAD + "d1,A,1,1.0\nd1,A,two,2.0\n", OB_HEAD,
                       "f.csv line 3: bad member 'two'"),
        "member_zero": (FC_HEAD + "d1,A,1,1.0\nd1,B, 0 ,2.0\n", OB_HEAD,
                        "f.csv line 3: member must be 1-based, got 0"),
        "bad_value": (FC_HEAD + "d1,A,1,1.0\nd1,A,2,warm\n", OB_HEAD,
                      "f.csv line 3: bad value_c 'warm'"),
        "duplicate_member_spelling": (FC_HEAD + "d1,A,1,1.0\nd1,B,1,2.0\nd1,A,01,3.0\n", OB_HEAD,
                                      "f.csv line 4: duplicate (date, station, member) ('d1', 'A', 1)"),
        "duplicate_observation": (FC_HEAD + "d1,A,1,1.0\n", OB_HEAD + "d1,A,1.5\nd1,B,2.5\nd1, A ,\n",
                                  "o.csv line 4: duplicate (date, station) ('d1', 'A')"),
        "blank_records_shift_lines": (FC_HEAD + "\nd1,A,1,1.0\n\n\nd1,Z,1,2.0\n", OB_HEAD,
                                      "f.csv line 6: unknown station id 'Z'"),
        "earliest_line_wins": (FC_HEAD + "d1,A,1,1.0\nd1,A,x,2.0\nd1,A,1,3.0\nd1,A\n", OB_HEAD,
                               "f.csv line 3: bad member 'x'"),
        "earlier_duplicate_beats_later_bad_value": (
            FC_HEAD + "d1,A,1,1.0\nd1,A,1,2.0\nd1,B,1,oops\n", OB_HEAD,
            "f.csv line 3: duplicate (date, station, member) ('d1', 'A', 1)"),
        "one_row_station_before_member": (FC_HEAD + "d1,Z,0,x\n", OB_HEAD,
                                          "f.csv line 2: unknown station id 'Z'"),
        "one_row_duplicate_before_value": (FC_HEAD + "d1,A,1,1.0\nd1,A,1,x\n", OB_HEAD,
                                           "f.csv line 3: duplicate (date, station, member) ('d1', 'A', 1)"),
        "forecast_file_before_observation_file": (FC_HEAD + "d1,A,1,1.0\nd1,A,1,2.0\n",
                                                  OB_HEAD + "d1,Z,1.0\n",
                                                  "f.csv line 3: duplicate (date, station, member) ('d1', 'A', 1)"),
        "blank_lines_across_chunks": (FC_HEAD + "d1,A,1,1.0\n\n\nd1,B,1,2.0\n\nd1,A,2,3.0\n\nd1,Z,1,4.0\n", OB_HEAD,
                                      "f.csv line 9: unknown station id 'Z'"),
        "duplicate_split_across_chunks": (FC_HEAD + "d1,A,1,1.0\nd1,B,1,2.0\nd1,A,2,3.0\nd1,B,2,4.0\nd1, A ,1,5.0\n",
                                          OB_HEAD, "f.csv line 6: duplicate (date, station, member) ('d1', 'A', 1)"),
        "bad_value_in_a_chunks_last_row": (FC_HEAD + "d1,A,1,1.0\nd1,B,1,2.0\nd1,A,2,x\nd1,B,2,y\n", OB_HEAD,
                                           "f.csv line 4: bad value_c 'x'"),
        "bad_member_in_a_chunks_last_row": (FC_HEAD + "d1,A,1,1.0\nd1,B,m,2.0\nd1,A,n,3.0\n", OB_HEAD,
                                            "f.csv line 3: bad member 'm'"),
        "field_count_after_a_blank": (FC_HEAD + "d1,A,1,1.0\nd1,B,1,2.0\n\nd1,A\nd1,Z,1,3.0\n", OB_HEAD,
                                      "f.csv line 5: expected 4 fields, got 2"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_message_and_line(self, tmp_path, case):
        forecasts, observations, expected = self.CASES[case]
        paths = write_files(tmp_path, forecasts, observations)
        with pytest.raises(LoadError) as got:
            load_dataset(*paths)
        assert str(got.value) == f"{tmp_path}/{expected}"
        with pytest.raises(LoadError) as reference:
            rowwise_load_dataset(*paths)
        assert str(reference.value) == str(got.value)

    def test_no_forecast_rows(self, tmp_path):
        paths = write_files(tmp_path, FC_HEAD + "\n")
        with pytest.raises(LoadError) as got:
            load_dataset(*paths)
        assert str(got.value) == f"{paths[1]}: no forecast rows"

    def test_empty_station_id(self, tmp_path):
        paths = write_files(tmp_path, FC_HEAD, stations="station_id,lon,lat,x_km,y_km\nA,,,0,0\n\n ,,,1,1\n")
        with pytest.raises(LoadError) as got:
            load_stations(paths[0])
        assert str(got.value) == f"{paths[0]} line 4: empty station id"

    def test_quoted_station_id_with_comma_round_trips(self, tmp_path):
        data = make_dataset(n_days=3, n_stations=3, n_members=2)
        stations = type(data.stations)(
            type(s)(f'Berlin, "Mitte" {i}', s.x, s.y) for i, s in enumerate(data.stations))
        data = type(data)(stations, data.days, data.forecasts, data.observations)
        paths = [tmp_path / n for n in ("s.csv", "f.csv", "o.csv")]
        save_dataset(data, *paths)
        loaded = load_dataset(*paths)
        assert loaded.stations.ids == data.stations.ids
        assert loaded.forecasts.tobytes() == data.forecasts.tobytes()
        assert loaded.observations.tobytes() == data.observations.tobytes()

    def test_gapped_season_matches_rowwise_loader(self, tmp_path):
        data = generate(default_spec(7, n_stations=12, n_days=20, n_members=6))
        rng = np.random.default_rng(7)
        fc = np.where(rng.random(data.forecasts.shape) < 0.05, np.nan, data.forecasts)
        obs = np.where(rng.random(data.observations.shape) < 0.05, np.nan, data.observations)
        data = type(data)(data.stations, data.days, fc, obs)
        paths = [tmp_path / n for n in ("s.csv", "f.csv", "o.csv")]
        save_dataset(data, *paths)
        # absent rows mean missing too: drop every fifth observation row
        lines = paths[2].read_text().splitlines(keepends=True)
        paths[2].write_text("".join(line for i, line in enumerate(lines) if i == 0 or i % 5))
        got = load_dataset(*paths)
        want = rowwise_load_dataset(*paths)
        assert np.isnan(got.forecasts).any() and np.isnan(got.observations).any()
        assert got.days == want.days
        assert got.stations.ids == want.stations.ids
        assert got.stations.coords.tobytes() == want.stations.coords.tobytes()
        assert got.forecasts.tobytes() == want.forecasts.tobytes()
        assert got.observations.tobytes() == want.observations.tobytes()


ODD_IDS = ("A,1", 'B"2', " C")  # quoted by csv.writer, quoted, left bare
ODD_VALUES = (-0.0, 1e-05, 1e+16, 5e-324)  # signed zero and exponent forms of repr


class TestCsvWriter:
    """save_dataset and save_fields_csv write the bytes of csv.writer fed one row at a time."""

    @pytest.mark.parametrize("chunk_rows", [None, 5])
    def test_save_dataset_matches_rowwise_writer(self, tmp_path, monkeypatch, chunk_rows):
        if chunk_rows:
            monkeypatch.setattr(ingest, "_CHUNK_ROWS", chunk_rows)
        data = make_dataset(n_days=4, n_stations=3, n_members=4)
        coords = [(None, 48.5, 2, 0), (-0.0, None, 1e-05, -3.5), (1e+16, 5e-324, 10.0, 1e+16)]
        stations = StationSet(Station(sid, x, y, lon, lat) for sid, (lon, lat, x, y) in zip(ODD_IDS, coords))
        fc, obs = data.forecasts.copy(), data.observations.copy()
        fc[0, 0], fc[1, 2, 1:3], obs[0, :2], obs[2, 1] = ODD_VALUES, np.nan, ODD_VALUES[2:], np.nan
        data = EnsembleDataset(stations, data.days, fc, obs)
        got = [tmp_path / n for n in ("s.csv", "f.csv", "o.csv")]
        want = [tmp_path / f"want_{n}" for n in ("s.csv", "f.csv", "o.csv")]
        save_dataset(data, *got)
        rowwise_save_dataset(data, *want)
        assert [p.read_bytes() for p in got] == [p.read_bytes() for p in want]
        stations_csv, forecasts_csv, observations_csv = (p.read_bytes() for p in got)
        assert b'\r\n"A,1",,48.5,2.0,0.0\r\n"B""2",-0.0,,1e-05,-3.5\r\n C,1e+16,5e-324,10.0,1e+16\r\n' in stations_csv
        assert b'\r\n2024-01-01,"A,1",1,-0.0\r\n2024-01-01,"A,1",2,1e-05\r\n' in forecasts_csv
        assert b',\r\n' in forecasts_csv and b',\r\n' in observations_csv
        loaded = load_dataset(*got)
        assert loaded.forecasts.tobytes() == fc.tobytes() and loaded.observations.tobytes() == obs.tobytes()

    @pytest.mark.parametrize("chunk_rows", [None, 4])
    def test_save_fields_csv_matches_rowwise_writer(self, tmp_path, monkeypatch, chunk_rows):
        if chunk_rows:
            monkeypatch.setattr(ingest, "_CHUNK_ROWS", chunk_rows)
        fields = np.random.default_rng(1).normal(12.0, 4.0, (5, 3))
        fields.flat[:4] = ODD_VALUES
        sample = ForecastFieldSample(ODD_IDS, fields, "grf-spatial")
        got, want = tmp_path / "fields.csv", tmp_path / "want.csv"
        save_fields_csv(sample, got)
        rowwise_fields_csv(sample, want)
        assert got.read_bytes() == want.read_bytes()
        assert got.read_bytes().startswith(
            b'sample,station_id,value_c,provenance\r\n1,"A,1",-0.0,grf-spatial\r\n1,"B""2",1e-05,grf-spatial\r\n'
            b'1, C,1e+16,grf-spatial\r\n2,"A,1",5e-324,grf-spatial\r\n')
        back = load_fields_csv(got)
        assert back.station_order == ODD_IDS
        assert back.fields.tobytes() == sample.fields.tobytes()


def write_season(root, seed=5):
    """A gapped season with absent rows, blank and nan lon/lat, a trailing-NUL id and a -nan value."""
    root.mkdir(parents=True, exist_ok=True)
    data = generate(default_spec(seed, n_stations=5, n_days=12, n_members=4))
    rng = np.random.default_rng(seed)
    fc = np.where(rng.random(data.forecasts.shape) < 0.05, np.nan, data.forecasts)
    obs = np.where(rng.random(data.observations.shape) < 0.05, np.nan, data.observations)
    ids = ("S0\0", "S1", "S2", "S3", "S4")
    stations = StationSet(Station(sid, s.x, s.y) for sid, s in zip(ids, data.stations))
    paths = data_paths(root)
    save_dataset(EnsembleDataset(stations, data.days, fc, obs), *paths)
    lon_lat = [("", "nan"), ("nan", ""), ("7.25", "-nan"), ("", ""), ("1e3", "48.5")]
    paths[0].write_text("station_id,lon,lat,x_km,y_km\n" + "".join(
        f"{sid},{lon},{lat},{s.x!r},{s.y!r}\n" for sid, (lon, lat), s in zip(ids, lon_lat, stations)))
    lines = paths[1].read_text().splitlines(keepends=True)
    lines[1] = lines[1].rsplit(",", 1)[0] + ",-nan\n"
    paths[1].write_text("".join(line for i, line in enumerate(lines) if i % 7 != 6))
    return paths


def fingerprint(data):
    """Everything a load yields, floats as their bits and None kept apart from nan."""
    def bits(v):
        return None if v is None else np.float64(v).tobytes()
    return (data.days, data.stations.ids,
            [tuple(bits(getattr(s, c)) for c in ("x", "y", "lon", "lat")) for s in data.stations],
            data.forecasts.tobytes(), data.observations.tobytes())


def forbid_parse(monkeypatch):
    def parse(*paths):
        raise AssertionError("the CSVs were parsed")
    monkeypatch.setattr(ingest, "load_dataset", parse)


class TestDataDirCache:
    def test_hit_equals_parse_byte_for_byte(self, tmp_path, monkeypatch):
        paths = write_season(tmp_path)
        parsed = load_dataset(*paths)
        lon = [s.lon for s in parsed.stations]
        assert lon[0] is None and np.isnan(lon[1]) and parsed.stations.ids[0] == "S0\0"
        assert np.signbit(parsed.forecasts[0, 0, 0]) and np.isnan(parsed.forecasts[0, 0, 0])
        assert np.isnan(parsed.forecasts).any() and np.isnan(parsed.observations).any()
        assert fingerprint(load_data_dir(tmp_path)) == fingerprint(parsed)
        assert (tmp_path / CACHE_FILE).is_file()
        forbid_parse(monkeypatch)
        assert fingerprint(load_data_dir(tmp_path)) == fingerprint(parsed)

    @pytest.mark.parametrize("name", DATA_FILES)
    def test_same_size_edit_is_seen(self, tmp_path, name):
        write_season(tmp_path)
        before = load_data_dir(tmp_path)
        path = tmp_path / name
        old, blob = path.stat(), bytearray(path.read_bytes())
        # the first decimal of the last number that ends a line
        i = max(m.start(1) for m in re.finditer(rb"\.([0-8])[0-9]*\r?\n", blob))
        blob[i] += 1
        path.write_bytes(blob)
        os.utime(path, ns=(old.st_atime_ns, old.st_mtime_ns))
        assert (path.stat().st_size, path.stat().st_mtime_ns) == (old.st_size, old.st_mtime_ns)
        after = load_data_dir(tmp_path)
        assert fingerprint(after) == fingerprint(load_dataset(*data_paths(tmp_path)))
        assert fingerprint(after) != fingerprint(before)

    @pytest.mark.parametrize("damage", ["truncated", "not_a_zip", "missing_array", "stale_key"])
    def test_unreadable_cache_is_replaced(self, tmp_path, monkeypatch, damage):
        paths = write_season(tmp_path / "data")
        load_data_dir(tmp_path / "data")
        cache = tmp_path / "data" / CACHE_FILE
        if damage == "truncated":
            cache.write_bytes(cache.read_bytes()[: cache.stat().st_size // 2])
        elif damage == "not_a_zip":
            cache.write_bytes(b"not a zip file\n")
        elif damage == "missing_array":
            with np.load(cache) as z:
                kept = {k: z[k] for k in z.files if k != "forecasts"}
            with open(cache, "wb") as fh:
                np.savez(fh, **kept)
        else:
            write_season(tmp_path / "other", seed=6)
            load_data_dir(tmp_path / "other")
            shutil.copyfile(tmp_path / "other" / CACHE_FILE, cache)
        parsed = load_dataset(*paths)
        assert fingerprint(load_data_dir(tmp_path / "data")) == fingerprint(parsed)
        forbid_parse(monkeypatch)
        assert fingerprint(load_data_dir(tmp_path / "data")) == fingerprint(parsed)

    def test_failed_replace_still_loads(self, tmp_path, monkeypatch):
        paths = write_season(tmp_path)

        def refuse(src, dst):
            raise PermissionError(13, "read-only", str(dst))
        monkeypatch.setattr(ingest.os, "replace", refuse)
        assert fingerprint(load_data_dir(tmp_path)) == fingerprint(load_dataset(*paths))
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(DATA_FILES)

    @pytest.mark.parametrize("source", ["ingest.py", "core.py"])
    def test_parser_change_is_a_miss(self, tmp_path, monkeypatch, source):
        # copies of the parser's source stand in for the installed files
        copies = []
        for path in ingest._PARSER_SOURCES:
            copies.append(tmp_path / "src" / path.name)
            copies[-1].parent.mkdir(exist_ok=True)
            shutil.copyfile(path, copies[-1])
        monkeypatch.setattr(ingest, "_PARSER_SOURCES", tuple(copies))
        paths = write_season(tmp_path / "data")
        parses = []

        def counted(*p):
            parses.append(p)
            return load_dataset(*p)
        monkeypatch.setattr(ingest, "load_dataset", counted)
        load_data_dir(tmp_path / "data")
        load_data_dir(tmp_path / "data")
        assert len(parses) == 1
        edited = tmp_path / "src" / source
        edited.write_text(edited.read_text() + "\n# a later parser\n")
        got = load_data_dir(tmp_path / "data")
        assert len(parses) == 2
        assert fingerprint(got) == fingerprint(load_dataset(*paths))
        load_data_dir(tmp_path / "data")
        assert len(parses) == 2

    def test_key_needs_no_file_digest(self, tmp_path, monkeypatch):
        # hashlib.file_digest is new in Python 3.11; pyproject allows 3.10
        monkeypatch.delattr(ingest.hashlib, "file_digest", raising=False)
        paths = write_season(tmp_path)
        first = load_data_dir(tmp_path)
        forbid_parse(monkeypatch)
        assert fingerprint(load_data_dir(tmp_path)) == fingerprint(first)
        assert ingest._content_key(paths) == ingest._content_key(paths)

    def test_key_names_the_codec_not_its_spelling(self, tmp_path, monkeypatch):
        # a UTF-8-mode parent reports 'utf-8', its C.UTF-8 child 'UTF-8'
        paths = write_season(tmp_path)
        keys = {}
        for name in ("UTF-8", "utf-8", "latin-1"):
            monkeypatch.setattr(ingest.locale, "getpreferredencoding", lambda do_setlocale=True, name=name: name)
            keys[name] = ingest._content_key(paths)
        assert keys["UTF-8"] == keys["utf-8"] != keys["latin-1"]

    def test_truncated_cache_leaves_no_file_open(self, tmp_path):
        paths = write_season(tmp_path)
        load_data_dir(tmp_path)
        cache = tmp_path / CACHE_FILE
        cache.write_bytes(cache.read_bytes()[: cache.stat().st_size // 2])
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert fingerprint(load_data_dir(tmp_path)) == fingerprint(load_dataset(*paths))
            gc.collect()
        assert [w for w in seen if issubclass(w.category, ResourceWarning)] == []

    def test_bad_csv_raises_the_same_error_every_call(self, tmp_path):
        paths = write_season(tmp_path)
        paths[2].write_text(paths[2].read_text() + "2024-01-01,S1,warm\n")
        with pytest.raises(LoadError) as parsed:
            load_dataset(*paths)
        for _ in range(2):
            with pytest.raises(LoadError) as got:
                load_data_dir(tmp_path)
            assert str(got.value) == str(parsed.value)
        assert not (tmp_path / CACHE_FILE).exists()


FIELDS_HEAD = "sample,station_id,value_c,provenance\n"
CHUNK_ROWS = [1, 2, 3, None]  # None: the default


@pytest.fixture(params=CHUNK_ROWS, ids=lambda n: f"chunk{n or 'default'}")
def chunk_rows(request, monkeypatch):
    if request.param:
        monkeypatch.setattr(ingest, "_CHUNK_ROWS", request.param)
    return ingest._CHUNK_ROWS


def traced_peak(load):
    """Peak bytes that tracemalloc sees while load() runs, its result included."""
    load()  # first-call imports and caches are not the parse's
    tracemalloc.start()
    try:
        load()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkedReader:
    """Every load gives the same arrays and the same error, on the same line, whatever the chunk size."""

    @pytest.mark.parametrize("case", sorted(TestLoadErrors.CASES))
    def test_load_error(self, tmp_path, chunk_rows, case):
        forecasts, observations, expected = TestLoadErrors.CASES[case]
        with pytest.raises(LoadError) as got:
            load_dataset(*write_files(tmp_path, forecasts, observations))
        assert str(got.value) == f"{tmp_path}/{expected}"

    @pytest.mark.parametrize("stations, expected", [
        ("A,,,0,0\n\n ,,,1,1\n", "line 4: empty station id"),
        ("A,,,0,0\nB,,,1,1\nC,,,2,2\n A ,,,3,3\n", "line 5: duplicate station id 'A'"),
        ("A,,,0,0\nB,,,1,\n", "line 3: missing y_km"),
        ("A,,,0,0\nB,,,1,1\nC,x,,2,2\n", "line 4: bad lon 'x'"),
        ("A,,,0,0\n\nB,,,1\n", "line 4: expected 5 fields, got 4"),
    ])
    def test_stations_error(self, tmp_path, chunk_rows, stations, expected):
        path = tmp_path / "s.csv"
        path.write_text("station_id,lon,lat,x_km,y_km\n" + stations)
        with pytest.raises(LoadError) as got:
            load_stations(path)
        assert str(got.value) == f"{path} {expected}"

    @pytest.mark.parametrize("rows, expected", [
        ("1,A,1.0,independent\n1,B,2.0,independent\n\n2,A\n", " line 5: expected 4 fields, got 2"),
        ("1,A,1.0,grf-spatial\n1,B,2.0,grf-spatial\nx,A,3.0,grf-spatial\n",
         " line 4: bad sample number 'x' or value '3.0'"),
        ("1,A,1.0,grf-spatial\n1,B,2.0,grf-spatial\n2,A,,grf-spatial\n", " line 4: bad sample number '2' or value ''"),
        ("1,A,1.0,grf-spatial\n1,B,2.0,independent\n2,A,x,grf-spatial\n", ": mixed provenance values"),
        ("1,A,1.0,grf-spatial\n1,B,x,grf-spatial\n2,A,1.0,independent\n",
         " line 3: bad sample number '1' or value 'x'"),
        ("1,A,1.0,grf-spatial\n1,B,x,independent\n", " line 3: bad sample number '1' or value 'x'"),
        ("1,A,1.0,ecc\n1,B,2.0,ecc\n1,A,3.0,ecc\n2,A,1.0,ecc\n2,B,2.0,ecc\n2,A,3.0,ecc\n",
         ": sample 1 lists station 'A' more than once"),
        ("3,A,1.0,ecc\n3,B,2.0,ecc\n1,A,1.0,ecc\n1,B,2.0,ecc\n2,B,1.0,ecc\n2,A,2.0,ecc\n",
         ": sample 2 has a different station order"),
        ("1,A,1.0,ecc\n1,B,2.0,ecc\n2,A,1.0,ecc\n3,A,1.0,ecc\n3,B,2.0,ecc\n",
         ": sample 2 has a different station order"),
        ("1,A,1.0,ecc\n1,B,2.0,ecc\n2,A,1.0,ecc\n2,B,2.0,ecc\n2,C,3.0,ecc\n",
         ": sample 2 has a different station order"),
        ("\n\n", ": no field rows"),
    ])
    def test_fields_error(self, tmp_path, chunk_rows, rows, expected):
        path = tmp_path / "fields.csv"
        path.write_text(FIELDS_HEAD + rows)
        with pytest.raises(LoadError) as got:
            load_fields_csv(path)
        assert str(got.value) == f"{path}{expected}"

    def test_fields_samples_in_any_order(self, tmp_path, chunk_rows):
        path = tmp_path / "fields.csv"
        path.write_text(FIELDS_HEAD + "10,B,9.0,ecc\n2,B,6.0,ecc\n1,B,2.0,ecc\n\n2,A,5.0,ecc\n"
                        "01,A,1.0,ecc\n10,A,8.0,ecc\n")
        sample = load_fields_csv(path)
        assert sample.station_order == ("B", "A") and sample.provenance == "ecc"
        assert sample.fields.tolist() == [[2.0, 1.0], [6.0, 5.0], [9.0, 8.0]]

    def test_round_trips_are_bit_identical(self, tmp_path, chunk_rows):
        paths = write_season(tmp_path / "season")
        assert fingerprint(load_dataset(*paths)) == fingerprint(rowwise_load_dataset(*paths))
        data = make_dataset(n_days=3, n_stations=3, n_members=2)
        data = EnsembleDataset(StationSet(Station(sid, s.x, s.y) for sid, s in zip(ODD_IDS, data.stations)),
                               data.days, data.forecasts, data.observations)
        odd = [tmp_path / n for n in ("s.csv", "f.csv", "o.csv")]
        save_dataset(data, *odd)
        assert fingerprint(load_dataset(*odd)) == fingerprint(rowwise_load_dataset(*odd))  # dataset ids are stripped
        fields = np.random.default_rng(2).normal(12.0, 4.0, (7, 3))
        fields.flat[:4] = ODD_VALUES
        save_fields_csv(ForecastFieldSample(ODD_IDS, fields, "grf-spatial"), tmp_path / "fields.csv")
        back = load_fields_csv(tmp_path / "fields.csv")
        assert back.station_order == ODD_IDS and back.fields.tobytes() == fields.tobytes()

    def test_dataset_parse_memory_is_bounded(self, tmp_path):
        # a file-sized list of cells peaked at 52 MiB
        paths = [tmp_path / n for n in DATA_FILES]
        save_dataset(generate(default_spec(0)), *paths)
        assert traced_peak(lambda: load_dataset(*paths)) <= 12 << 20

    def test_fields_parse_memory_is_bounded(self, tmp_path):
        # a per-row loop over (station_id, value) tuples peaked at 31 MiB
        fields = np.random.default_rng(0).normal(12.0, 4.0, (2000, 100))
        ids = tuple(f"S{i}" for i in range(100))
        save_fields_csv(ForecastFieldSample(ids, fields, "grf-spatial"), tmp_path / "fields.csv")
        assert traced_peak(lambda: load_fields_csv(tmp_path / "fields.csv")) <= 8 << 20


class TestRollingWindows:
    def test_basic_shape(self):
        data = make_dataset(n_days=30)
        wins = rolling_windows(data, 25)
        assert len(wins) == 5
        assert wins[0].target_day == data.days[25]
        assert wins[0].training_days == data.days[:25]
        assert wins[-1].target_day == data.days[-1]

    def test_eliminated_day_skipped_in_both_roles(self):
        data = make_dataset(n_days=12, n_stations=3, n_members=4)
        fc = np.array(data.forecasts)
        fc[5, :, 2] = np.nan  # member 3 missing everywhere on day 6
        broken = type(data)(data.stations, data.days, fc, data.observations)
        assert broken.eliminated[5]
        wins = rolling_windows(broken, 10)
        assert len(wins) == 1
        assert wins[0].target_day == data.days[11]
        assert data.days[5] not in wins[0].training_days
        assert data.days[0] in wins[0].training_days

    def test_too_short_warns_and_returns_empty(self):
        data = make_dataset(n_days=10)
        with pytest.warns(UserWarning, match="usable days"):
            assert rolling_windows(data, 25) == []


class TestKeyValues:
    def test_parse(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("# comment\n\nalpha = 1.5\nname= hello world \nflag =true\n")
        kv = read_key_values(p)
        assert kv == {"alpha": "1.5", "name": "hello world", "flag": "true"}

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("a = 1\na = 2\n")
        with pytest.raises(LoadError, match="duplicate"):
            read_key_values(p)

    def test_line_without_equals_rejected(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("just some text\n")
        with pytest.raises(LoadError):
            read_key_values(p)
