import ast
import csv
import json
import logging
import warnings
from importlib.metadata import EntryPoint, PackageNotFoundError, distribution
from pathlib import Path

import numpy as np
import pytest

from enspost import cli, ingest
from enspost.bma import predict_bma
from enspost.cli import load_fields_csv, main
from enspost.core import EnsembleDataset, ForecastFieldSample, Station, StationSet
from enspost.experiment import ALL_COMBOS, combo_label, predict_rows, read_params
from enspost.ngr import predict_ngr_c
from enspost.synth import default_spec, generate
from enspost.ingest import LoadError, data_paths, load_data_dir, load_dataset, save_dataset, save_fields_csv
from enspost.verify import ScoreTable
from tests.conftest import rowwise_csv, rowwise_fields_csv, rowwise_fmt

SPEC_TEXT = """# compact panel for pipeline runs
recipe = default
n_stations = 8
n_days = 18
n_members = 5
seed = 3
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Dataset written by the synth subcommand, shared by the chain tests."""
    root = tmp_path_factory.mktemp("cli")
    spec = root / "spec.txt"
    spec.write_text(SPEC_TEXT)
    data = root / "data"
    assert main(["synth", "--spec", str(spec), "--out", str(data)]) == 0
    return root


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSynthCommand:
    def test_writes_loadable_dataset(self, workspace):
        d = workspace / "data"
        data = load_dataset(d / "stations.csv", d / "forecasts.csv", d / "observations.csv")
        assert data.n_stations == 8
        assert data.n_days == 18

    def test_seed_flag_overrides_spec(self, workspace, tmp_path):
        spec = workspace / "spec.txt"
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--spec", str(spec), "--out", str(a), "--seed", "7"]) == 0
        assert main(["synth", "--spec", str(spec), "--out", str(b), "--seed", "7"]) == 0
        assert (a / "observations.csv").read_bytes() == (b / "observations.csv").read_bytes()
        assert (a / "observations.csv").read_bytes() != (workspace / "data" / "observations.csv").read_bytes()

    @pytest.mark.parametrize("text,key", [
        ("recipe = default\nn_station = 40\n", "n_station"),
        ("n_station = 40\nn_days = 5\nn_members = 3\n", "n_station"),
        ("recipe = default\nratio = 0.5\n", "ratio"),  # only the underdispersive recipe takes a ratio
        ("truth = ngr+\nn_stations = 4\nn_days = 5\nn_members = 2\nweights = 0.5,0.5\n", "weights"),
        ("truth = bma\nn_stations = 4\nn_days = 5\nn_members = 2\nweights = 0.5,0.5\nc = 1\n", "c"),
    ])
    def test_unknown_key_is_named(self, tmp_path, capsys, text, key):
        spec, out = tmp_path / "spec.txt", tmp_path / "data"
        spec.write_text(text)
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: unknown SynthSpec key(s): {key}\n"
        assert not out.exists()


class TestFitPredictChain:
    def test_fit_predict_sample_verify(self, workspace):
        data = workspace / "data"
        params = workspace / "ngr.json"
        rc = main([
            "fit", "--data", str(data), "--method", "ngr+", "--day", "2024-01-18",
            "--window", "14", "--spatial", "grf", "--out", str(params),
        ])
        assert rc == 0
        doc = json.loads(params.read_text())
        assert doc["method"] == "ngr+"
        assert doc["target_day"] == "2024-01-18"
        assert set(doc["variogram"]) >= {"theta", "range_km"}

        pred = workspace / "pred.csv"
        assert main(["predict", "--data", str(data), "--params", str(params), "--out", str(pred)]) == 0
        rows = read_rows(pred)
        assert len(rows) == 8
        assert all(float(r["sd"]) > 0 for r in rows)

        fields = workspace / "fields.csv"
        rc = main([
            "sample", "--data", str(data), "--params", str(params), "--spatial", "grf",
            "--n", "150", "--out", str(fields), "--seed", "4",
        ])
        assert rc == 0
        sample = load_fields_csv(fields)
        assert sample.fields.shape == (150, 8)
        assert sample.provenance == "grf-spatial"

        out = workspace / "scores"
        rc = main([
            "verify", "--fields", str(fields), "--data", str(data),
            "--day", "2024-01-18", "--out", str(out),
        ])
        assert rc == 0
        table = ScoreTable.read_csv(out / "verify_scores.csv")
        assert len(table.values("grf-spatial", "es")) == 1

    def test_quoted_station_ids_through_predict_sample_verify(self, workspace, tmp_path):
        src = load_dataset(*data_paths(workspace / "data"))
        ids = ["A,1", 'B"2', "C\0"] + list(src.stations.ids[3:])
        stations = StationSet(Station(sid, s.x, s.y, s.lon, s.lat) for sid, s in zip(ids, src.stations))
        data, params, pred, fields = tmp_path / "data", tmp_path / "p.json", tmp_path / "pred.csv", tmp_path / "f.csv"
        data.mkdir()
        save_dataset(EnsembleDataset(stations, src.days, src.forecasts, src.observations), *data_paths(data))
        assert main(["fit", "--data", str(data), "--method", "ngr+", "--day", "2024-01-18", "--window", "14",
                     "--spatial", "grf", "--out", str(params)]) == 0
        assert main(["predict", "--data", str(data), "--params", str(params), "--out", str(pred)]) == 0
        _, method, fitted, _ = read_params(params)
        d = load_data_dir(data)
        rows, law = predict_rows(method, fitted, d.stations, d.forecasts[d.day_index("2024-01-18")])
        rowwise_csv(tmp_path / "want.csv", ("station_id", "mean", "sd"),
                    ((sid, rowwise_fmt(m), rowwise_fmt(v))
                     for sid, m, v in zip(np.array(ids, dtype=object)[rows], law.mean.tolist(), law.sd.tolist())))
        assert pred.read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert pred.read_bytes().startswith(b'station_id,mean,sd\r\n"A,1",')
        assert b'\r\nC\x00,' in pred.read_bytes()  # the id keeps its trailing NUL

        assert main(["sample", "--data", str(data), "--params", str(params), "--spatial", "grf",
                     "--n", "30", "--out", str(fields), "--seed", "2"]) == 0
        sample = load_fields_csv(fields)
        assert sample.station_order == tuple(ids)
        rowwise_fields_csv(sample, tmp_path / "want_fields.csv")
        assert fields.read_bytes() == (tmp_path / "want_fields.csv").read_bytes()
        assert main(["verify", "--fields", str(fields), "--data", str(data), "--day", "2024-01-18",
                     "--out", str(tmp_path / "scores")]) == 0
        assert len(ScoreTable.read_csv(tmp_path / "scores" / "verify_scores.csv")) == 3

    def test_ngrc_at_a_station_id_with_a_trailing_nul(self, workspace, tmp_path):
        """Stations "S1" and "S1\\0" load as two, and ngrc predicts each from its own climatology.

        predict_rows, `enspost predict` and `enspost sample` all reach the
        "S1\\0" row; a numpy string array of the ids would read it as "S1".
        """
        src = load_dataset(*data_paths(workspace / "data"))
        ids = ("S1", "S1\0") + src.stations.ids[2:]
        stations = StationSet(Station(sid, s.x, s.y, s.lon, s.lat) for sid, s in zip(ids, src.stations))
        data, params, pred, fields = tmp_path / "data", tmp_path / "p.json", tmp_path / "pred.csv", tmp_path / "f.csv"
        data.mkdir()
        save_dataset(EnsembleDataset(stations, src.days, src.forecasts, src.observations), *data_paths(data))
        assert main(["fit", "--data", str(data), "--method", "ngrc", "--day", "2024-01-18", "--window", "14",
                     "--spatial", "grf", "--out", str(params)]) == 0
        _, method, fitted, _ = read_params(params)
        assert set(fitted.station_ids) == set(ids)
        d = load_data_dir(data)
        fc = d.forecasts[d.day_index("2024-01-18")]
        rows, law = predict_rows(method, fitted, d.stations, fc)
        want = [predict_ngr_c(fitted, fitted.station_ids.index(ids[s]), fc[s]) for s in np.flatnonzero(rows)]
        assert rows[:2].all() and law.mean.tolist() == [w.mean for w in want]
        assert law.mean[0] != law.mean[1]

        assert main(["predict", "--data", str(data), "--params", str(params), "--out", str(pred)]) == 0
        assert pred.read_bytes().startswith(b"station_id,mean,sd\r\nS1,")
        assert f"\r\nS1\0,{float(law.mean[1])!r},{float(law.sd[1])!r}\r\n".encode() in pred.read_bytes()
        assert main(["sample", "--data", str(data), "--params", str(params), "--spatial", "grf",
                     "--n", "30", "--out", str(fields), "--seed", "2"]) == 0
        assert load_fields_csv(fields).station_order == tuple(ids[s] for s in np.flatnonzero(rows))

    def test_sample_modes_and_provenance(self, workspace):
        data = workspace / "data"
        cases = {
            ("ngr+", "none"): ("independent", 40),
            ("ngr+", "ecc"): ("ecc", 5),  # ecc always yields one field per member
            ("bma", "none"): ("independent", 40),
            ("bma", "spatial-bma"): ("spatial-bma", 40),
        }
        for (method, spatial), (prov, n_expected) in cases.items():
            params = workspace / f"{method}-{spatial}.json"
            fit_spatial = "spatial-bma" if spatial == "spatial-bma" else "none"
            fit = [
                "fit", "--data", str(data), "--method", method, "--day", "2024-01-18",
                "--window", "14", "--spatial", fit_spatial, "--out", str(params),
            ]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(fit) == 0
            assert not [w for w in caught if "EM stopped" in str(w.message)]
            if method == "bma":
                # plain EM stops at its 500-iteration cap on this panel; SQUAREM converges
                assert json.loads(params.read_text())["converged"] is True
            fields = workspace / f"{method}-{spatial}.fields.csv"
            assert main([
                "sample", "--data", str(data), "--params", str(params),
                "--spatial", spatial, "--n", "40", "--out", str(fields),
            ]) == 0
            sample = load_fields_csv(fields)
            assert sample.provenance == prov, (method, spatial)
            assert sample.fields.shape == (n_expected, 8)

    def test_predict_after_fit_reads_the_cache(self, tmp_path, monkeypatch):
        spec, data, params = tmp_path / "spec.txt", tmp_path / "data", tmp_path / "p.json"
        spec.write_text(SPEC_TEXT)
        assert main(["synth", "--spec", str(spec), "--out", str(data)]) == 0
        assert main(["fit", "--data", str(data), "--method", "ngr+", "--day", "2024-01-18",
                     "--window", "14", "--out", str(params)]) == 0

        def parse(*paths):
            raise AssertionError("predict parsed the CSVs again")
        monkeypatch.setattr(ingest, "load_dataset", parse)
        assert main(["predict", "--data", str(data), "--params", str(params),
                     "--out", str(tmp_path / "pred.csv")]) == 0
        assert len(read_rows(tmp_path / "pred.csv")) == 8

    def test_ecc_sample_marginals_are_quantiles(self, workspace):
        # reordering must not change the per-station value sets
        fields = workspace / "ngr+-ecc.fields.csv"
        sample = load_fields_csv(fields)
        for j in range(sample.fields.shape[1]):
            col = np.sort(sample.fields[:, j])
            assert np.all(np.diff(col) >= 0)

    def test_bma_ecc_sample_holds_the_mixture_quantiles(self, workspace, tmp_path):
        data = workspace / "data"
        params, fields = tmp_path / "bma.json", tmp_path / "bma-ecc.csv"
        assert main(["fit", "--data", str(data), "--method", "bma", "--day", "2024-01-18",
                     "--window", "14", "--out", str(params)]) == 0
        assert main(["sample", "--data", str(data), "--params", str(params),
                     "--spatial", "ecc", "--out", str(fields)]) == 0
        sample = load_fields_csv(fields)
        d = load_dataset(data / "stations.csv", data / "forecasts.csv", data / "observations.csv")
        _, _, bma, _ = read_params(params)
        fc = d.forecasts[d.day_index("2024-01-18")]
        levels = np.arange(1, d.members + 1) / (d.members + 1)
        for j, sid in enumerate(sample.station_order):
            dist = predict_bma(bma, fc[d.stations.index(sid)])
            assert np.sort(sample.fields[:, j]).tolist() == dist.quantile(levels).tolist()

    def test_verify_perfect_forecast_scores_zero(self, workspace, tmp_path):
        data = workspace / "data"
        d = load_dataset(data / "stations.csv", data / "forecasts.csv", data / "observations.csv")
        t = d.day_index("2024-01-18")
        fields = tmp_path / "perfect.csv"
        with open(fields, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("sample", "station_id", "value_c", "provenance"))
            for k in range(3):
                for s, sid in enumerate(d.stations.ids):
                    w.writerow((k + 1, sid, repr(float(d.observations[t, s])), "independent"))
        out = tmp_path / "scores"
        assert main(["verify", "--fields", str(fields), "--data", str(data),
                     "--day", "2024-01-18", "--out", str(out)]) == 0
        table = ScoreTable.read_csv(out / "verify_scores.csv")
        assert table.values("independent", "es")[0] == pytest.approx(0.0, abs=1e-12)
        assert table.values("independent", "ee")[0] == pytest.approx(0.0, abs=1e-8)


class TestVerifyMissingObservations:
    """verify scores the stations observed on the day, as run_experiment does."""

    DAY = "2024-01-31"
    BLANK = (3, 17)

    @pytest.fixture(scope="class")
    def gapped(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("gapped")
        data = generate(default_spec(5, n_stations=40, n_days=40))
        obs = data.observations.copy()
        obs[data.day_index(self.DAY), list(self.BLANK)] = np.nan
        save_dataset(EnsembleDataset(data.stations, data.days, data.forecasts, obs), *data_paths(root))
        return root, [data.stations.ids[s] for s in self.BLANK]

    def sample(self, data, tmp_path, method, spatial):
        params, fields = tmp_path / "params.json", tmp_path / "fields.csv"
        assert main(["fit", "--data", str(data), "--method", method, "--day", self.DAY,
                     "--spatial", "none" if spatial == "ecc" else spatial, "--out", str(params)]) == 0
        assert main(["sample", "--data", str(data), "--params", str(params), "--spatial", spatial,
                     "--n", "50", "--out", str(fields), "--seed", "3"]) == 0
        return load_fields_csv(fields), fields

    def verify(self, data, fields, out):
        return main(["verify", "--fields", str(fields), "--data", str(data), "--day", self.DAY, "--out", str(out)])

    @pytest.mark.parametrize("method, spatial", [("ngr+", "grf"), ("ngrc", "ecc"), ("bma", "spatial-bma")])
    def test_scores_equal_those_of_the_observed_stations_alone(self, gapped, tmp_path, caplog, method, spatial):
        data, blank = gapped
        sample, fields = self.sample(data, tmp_path, method, spatial)
        keep = [j for j, sid in enumerate(sample.station_order) if sid not in blank]
        assert len(keep) == len(sample.station_order) - 2
        cut = tmp_path / "observed.csv"
        save_fields_csv(ForecastFieldSample([sample.station_order[j] for j in keep], sample.fields[:, keep],
                                            sample.provenance), cut)
        with caplog.at_level(logging.WARNING, logger="enspost.cli"):
            assert self.verify(data, fields, tmp_path / "got") == 0
        assert f"2 of 40 stations in the fields file have no observation on {self.DAY}; scoring the other 38" \
            in caplog.text
        assert self.verify(data, cut, tmp_path / "want") == 0
        got = (tmp_path / "got" / "verify_scores.csv").read_bytes()
        assert got == (tmp_path / "want" / "verify_scores.csv").read_bytes()
        assert len(ScoreTable.read_csv(tmp_path / "got" / "verify_scores.csv")) == 3

    def test_no_observed_station_is_refused(self, gapped, tmp_path, capsys):
        data, blank = gapped
        sample, _ = self.sample(data, tmp_path, "ngr+", "none")
        cols = [sample.station_order.index(sid) for sid in blank]
        unseen = tmp_path / "unseen.csv"
        save_fields_csv(ForecastFieldSample(blank, sample.fields[:, cols], sample.provenance), unseen)
        assert self.verify(data, unseen, tmp_path / "scores") == 1
        assert f"error: no station in the fields file has an observation on {self.DAY}" in capsys.readouterr().err


class TestExperimentCommand:
    def test_config_file_with_flag_overrides(self, workspace, tmp_path):
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "run"
        cfg.write_text(
            f"data = {workspace / 'data'}\nout = {out}\n"
            "combos = ngr+\nwindow = 14\nfields = 120\nseed = 5\n"
        )
        rc = main(["experiment", "--config", str(cfg), "--method", "ngr+", "--spatial", "grf",
                   "--threshold", "15"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["methods"]) == {"raw", "ngr+", "ngr+/grf"}
        assert summary["thresholds"] == [15.0]

    def test_flags_only(self, workspace, tmp_path):
        out = tmp_path / "run2"
        rc = main(["experiment", "--data", str(workspace / "data"), "--out", str(out),
                   "--method", "bma", "--window", "14", "--fields", "100"])
        assert rc == 0
        assert (out / "pit_bma.csv").exists()

    def test_spatial_without_method_is_an_error(self, workspace, tmp_path, capsys):
        rc = main(["experiment", "--data", str(workspace / "data"), "--out", str(tmp_path / "x"),
                   "--spatial", "grf", "--window", "14"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestChainsMatchTheExperiment:
    """On a fully observed day, each combo's single-day chain repeats the experiment's fit and field scores."""

    DAY, SEED, FIELDS = "2024-01-18", 5, 120  # the season's last target day, three days after its first

    @pytest.fixture(scope="class")
    def season(self, workspace, tmp_path_factory):
        out = tmp_path_factory.mktemp("season")
        cfg = out / "exp.cfg"
        cfg.write_text(f"data = {workspace / 'data'}\nout = {out}\nwindow = 14\nfields = {self.FIELDS}\n"
                       f"seed = {self.SEED}\ncombos = {','.join(combo_label(*c) for c in ALL_COMBOS)}\n")
        assert main(["experiment", "--config", str(cfg)]) == 0
        return out

    def fit(self, workspace, tmp_path, method, mode):
        params = tmp_path / "params.json"
        assert main(["fit", "--data", str(workspace / "data"), "--method", method, "--day", self.DAY,
                     "--window", "14", "--spatial", mode, "--out", str(params)]) == 0
        return params

    @pytest.mark.parametrize("method,mode", ALL_COMBOS)
    def test_fit_writes_the_experiments_params_bytes(self, workspace, season, tmp_path, method, mode):
        label = combo_label(method, mode).replace("/", "_")
        written = self.fit(workspace, tmp_path, method, mode).read_bytes()
        assert written == (season / "params" / label / f"{self.DAY}.json").read_bytes()

    @pytest.mark.parametrize("method,mode", ALL_COMBOS)
    def test_sample_and_verify_give_the_experiments_field_scores(self, workspace, season, tmp_path, method, mode):
        data, params, fields = str(workspace / "data"), self.fit(workspace, tmp_path, method, mode), tmp_path / "f.csv"
        assert main(["sample", "--data", data, "--params", str(params), "--spatial", mode, "--n", str(self.FIELDS),
                     "--seed", str(self.SEED), "--out", str(fields)]) == 0
        assert main(["verify", "--fields", str(fields), "--data", data, "--day", self.DAY,
                     "--out", str(tmp_path / "scores")]) == 0
        got = {r.score: r.value for r in ScoreTable.read_csv(tmp_path / "scores" / "verify_scores.csv").rows}
        want = {r.score: r.value for r in ScoreTable.read_csv(season / "scores.csv").rows
                if (r.date, r.unit, r.method) == (self.DAY, "field", combo_label(method, mode))}
        for score in ("es", "ee"):
            assert got[score] == pytest.approx(want[score], rel=1e-12, abs=0.0), score


class TestErrorPaths:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", "somewhere"])
        assert exc.value.code == 2

    def test_runtime_errors_exit_1(self, tmp_path, capsys):
        rc = main(["fit", "--data", str(tmp_path / "nope"), "--method", "ngr+",
                   "--day", "2024-01-18", "--out", str(tmp_path / "p.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_fit_day_without_window_exits_1(self, workspace, tmp_path, capsys):
        rc = main(["fit", "--data", str(workspace / "data"), "--method", "ngr+",
                   "--day", "2024-01-05", "--window", "14", "--out", str(tmp_path / "p.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_fields_csv_round_trip_rejects_corruption(self, workspace, tmp_path):
        good = (workspace / "ngr+-none.fields.csv").read_text().splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([good[0]] + good[2:]) + "\n")  # drop one row
        with pytest.raises(ValueError):
            load_fields_csv(bad)

    def test_fields_csv_row_of_wrong_width_names_its_line(self, workspace, tmp_path, capsys):
        bad = tmp_path / "short.csv"
        bad.write_text("sample,station_id,value_c,provenance\n1,S1,15.0,independent\n\n2,S1\n")
        with pytest.raises(LoadError) as got:
            load_fields_csv(bad)
        assert str(got.value) == f"{bad} line 4: expected 4 fields, got 2"
        rc = main(["verify", "--fields", str(bad), "--data", str(workspace / "data"),
                   "--day", "2024-01-18", "--out", str(tmp_path / "scores")])
        assert rc == 1
        assert f"error: {bad} line 4: expected 4 fields, got 2" in capsys.readouterr().err

    def test_fields_csv_station_listed_twice_is_rejected(self, workspace, tmp_path, capsys):
        ids = load_dataset(*data_paths(workspace / "data")).stations.ids
        path = tmp_path / "twice.csv"
        path.write_text("sample,station_id,value_c,provenance\n" + "".join(
            f"{k},{sid},15.0,independent\n" for k in (1, 2) for sid in (*ids, ids[0])))
        with pytest.raises(LoadError) as got:
            load_fields_csv(path)
        assert str(got.value) == f"{path}: sample 1 lists station 'S1' more than once"
        rc = main(["verify", "--fields", str(path), "--data", str(workspace / "data"),
                   "--day", "2024-01-18", "--out", str(tmp_path / "scores")])
        assert rc == 1
        assert f"error: {path}: sample 1 lists station 'S1' more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("row, bad", [("x1,S1,15.0,independent", "'x1'"), ("1,S1,warm,independent", "'warm'")])
    def test_fields_csv_bad_number_names_its_line(self, workspace, tmp_path, capsys, row, bad):
        path = tmp_path / "bad.csv"
        path.write_text(f"sample,station_id,value_c,provenance\n1,S1,15.0,independent\n{row}\n")
        rc = main(["verify", "--fields", str(path), "--data", str(workspace / "data"),
                   "--day", "2024-01-18", "--out", str(tmp_path / "scores")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {path} line 3: bad sample number" in err and bad in err


def test_cli_imports_no_private_name_from_the_package():
    tree = ast.parse(Path(cli.__file__).read_text())
    modules = set()
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("enspost")):
            private += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
            modules |= {a.asname or a.name for a in node.names if node.module is None}
    private += [
        f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and node.attr.startswith("_")
    ]
    assert modules and private == []


def test_console_entry_point_matches_main():
    """The `enspost` command runs the `main` that the tests above drive.

    An installed distribution's metadata is checked wherever there is one;
    the declaration in pyproject.toml is checked wherever `tomllib` exists
    (Python 3.11+), so the test also runs from `src/` with nothing installed.
    """
    try:
        installed = distribution("enspost").entry_points
    except PackageNotFoundError:
        pass
    else:
        eps = [ep for ep in installed if ep.group == "console_scripts" and ep.name == "enspost"]
        assert eps and eps[0].value == "enspost.cli:main"

    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["scripts"]["enspost"]
    assert declared == "enspost.cli:main"
    ep = EntryPoint(name="enspost", value=declared, group="console_scripts")
    assert ep.load() is main
