import dataclasses
import json
import logging
import warnings

import numpy as np
import pytest

from enspost.bma import fit_bma, predict_bma
from enspost.cli import main
from enspost.core import EnsembleDataset, Station, StationSet, TrainingWindow, seeded_rng
from enspost.ecc import ecc_quantiles, ecc_reorder, rank_permutation
from enspost.experiment import (
    METHODS,
    ExperimentConfig,
    _moment_panels,
    combo_label,
    fit_spatial,
    parse_combos,
    parse_experiment_config,
    read_params,
    run_experiment,
    validate_combo,
    write_params,
)
from enspost.ingest import data_paths, load_data_dir, rolling_windows, save_dataset
from enspost.ngr import _training_rows, fit_ngr_c, predict_ngr_c, predict_ngr_plus
from enspost.synth import default_spec, generate
from enspost.verify import (
    ScoreTable,
    ds_from_sample,
    mae_rmse,
    pit,
    pit_histogram,
    rank_histogram,
    reliability_index,
    verification_rank,
)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    data = generate(default_spec(3, n_stations=8, n_days=18, n_members=5))
    save_dataset(data, d / "stations.csv", d / "forecasts.csv", d / "observations.csv")
    return d


def tiny_config(data_dir, out_dir, **kw):
    base = dict(
        data_dir=str(data_dir),
        out_dir=str(out_dir),
        combos=(("ngr+", "none"), ("ngr+", "grf"), ("bma", "ecc")),
        window_length=14,
        n_field_samples=150,
        thresholds=(15.0,),
        seed=11,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestComboValidation:
    def test_every_method_supports_ecc_and_none(self):
        for m in ("ngr+", "ngrc", "bma"):
            validate_combo(m, "none")
            validate_combo(m, "ecc")

    def test_grf_needs_gaussian_marginals(self):
        validate_combo("ngr+", "grf")
        validate_combo("ngrc", "grf")
        with pytest.raises(ValueError, match="grf"):
            validate_combo("bma", "grf")

    def test_spatial_bma_needs_bma(self):
        validate_combo("bma", "spatial-bma")
        with pytest.raises(ValueError, match="spatial-bma"):
            validate_combo("ngr+", "spatial-bma")

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="method"):
            validate_combo("emos", "none")
        with pytest.raises(ValueError, match="spatial"):
            validate_combo("ngr+", "copula")

    def test_parse_combos(self):
        assert parse_combos("ngr+/grf, bma") == (("ngr+", "grf"), ("bma", "none"))
        with pytest.raises(ValueError, match="twice"):
            parse_combos("bma,bma/none")
        with pytest.raises(ValueError, match="no method"):
            parse_combos(" , ")

    def test_combo_label(self):
        assert combo_label("bma", "none") == "bma"
        assert combo_label("ngrc", "grf") == "ngrc/grf"


class TestConfigParsing:
    def test_requires_data_and_out(self):
        with pytest.raises(ValueError, match="data="):
            parse_experiment_config({"out": "x"})
        with pytest.raises(ValueError, match="out="):
            parse_experiment_config({"data": "x"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            parse_experiment_config({"data": "a", "out": "b", "wnidow": "25"})
        with pytest.raises(ValueError, match="unknown config keys"):  # the mixture CRPS draws no samples
            parse_experiment_config({"data": "a", "out": "b", "samples": "5000"})

    def test_overrides_win(self):
        cfg = parse_experiment_config(
            {"data": "a", "out": "b", "window": "30", "seed": "1"},
            {"window": "10"},
        )
        assert cfg.window_length == 10
        assert cfg.seed == 1

    def test_list_keys_parsed(self):
        cfg = parse_experiment_config({
            "data": "a", "out": "b", "combos": "ngrc/grf,bma",
            "thresholds": "10,20.5", "region": "S1, S3",
        })
        assert cfg.combos == (("ngrc", "grf"), ("bma", "none"))
        assert cfg.thresholds == (10.0, 20.5)
        assert cfg.region == ("S1", "S3")

    def test_config_invariants(self):
        with pytest.raises(ValueError, match="window_length"):
            ExperimentConfig("a", "b", window_length=0)
        with pytest.raises(ValueError, match="level"):
            ExperimentConfig("a", "b", level=1.0)
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentConfig("a", "b", combos=(("bma", "none"), ("bma", "none")))
        with pytest.raises(ValueError, match="at least 2"):
            ExperimentConfig("a", "b", n_field_samples=1)


class TestRunExperiment:
    def test_outputs_and_summary(self, data_dir, tmp_path):
        out = tmp_path / "run"
        result = run_experiment(tiny_config(data_dir, out))
        assert result.summary["n_target_days"] == 4
        assert result.summary["window_length"] == 14
        assert result.summary["failed_days"] == {}
        labels = set(result.summary["methods"])
        assert labels == {"raw", "ngr+", "bma", "ngr+/grf", "bma/ecc"}
        for lab in labels:
            assert result.summary["methods"][lab]["crps" if "/" not in lab else "es"] > 0
        for name in ("scores.csv", "summary.json", "pit_ngr+.csv", "pit_bma.csv", "rank_raw.csv",
                     "banddepth_raw.csv", "banddepth_ngr+_grf.csv", "banddepth_bma_ecc.csv"):
            assert (out / name).exists(), name
        days = [w for w in (out / "params" / "ngr+_grf").iterdir()]
        assert len(days) == 4
        doc = json.loads(days[0].read_text())
        assert "variogram" in doc
        table = ScoreTable.read_csv(out / "scores.csv")
        np.testing.assert_array_equal(
            sorted(table.values("ngr+", "crps")), sorted(result.table.values("ngr+", "crps"))
        )

    def test_reruns_are_byte_identical(self, data_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_experiment(tiny_config(data_dir, a))
        run_experiment(tiny_config(data_dir, b))
        for name in ("scores.csv", "summary.json", "pit_ngr+.csv", "banddepth_bma_ecc.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_seed_changes_sampled_scores(self, data_dir, tmp_path):
        a = run_experiment(tiny_config(data_dir, tmp_path / "a", combos=(("ngr+", "grf"),)))
        b = run_experiment(
            tiny_config(data_dir, tmp_path / "b", combos=(("ngr+", "grf"),), seed=99)
        )
        assert not np.array_equal(a.table.values("ngr+/grf", "es"), b.table.values("ngr+/grf", "es"))
        # the deterministic closed-form scores agree
        np.testing.assert_array_equal(a.table.values("ngr+", "crps"), b.table.values("ngr+", "crps"))

    def test_region_minima_restricted(self, data_dir, tmp_path):
        ids = ("S1", "S4", "S7")
        result = run_experiment(
            tiny_config(data_dir, tmp_path / "r", combos=(("ngr+", "none"),), region=ids)
        )
        assert result.summary["region"] == list(ids)
        assert "min_crps" in result.summary["methods"]["ngr+"]
        with pytest.raises(ValueError, match="region station"):
            run_experiment(
                tiny_config(data_dir, tmp_path / "bad", region=("S1", "NOPE"))
            )

    def test_fit_failure_is_logged_and_skipped(self, data_dir, tmp_path, monkeypatch):
        import enspost.experiment as exp

        real = exp.bma_mod.fit_bma
        boom_days = set()

        def flaky(data, window, **kw):
            if not boom_days:
                boom_days.add(window.target_day)
                raise RuntimeError("contrived failure")
            return real(data, window, **kw)

        monkeypatch.setattr(exp.bma_mod, "fit_bma", flaky)
        result = run_experiment(
            tiny_config(data_dir, tmp_path / "f", combos=(("bma", "none"), ("bma", "ecc")))
        )
        (bad_day,) = boom_days
        assert result.summary["failed_days"]["bma"] == [bad_day]
        assert result.summary["failed_days"]["bma/ecc"] == [bad_day]
        assert result.n_warnings >= 1
        # the other target days still produced scores
        assert len(result.table.values("bma", "crps")) == 3

    @pytest.mark.parametrize("where, combo", [
        ("sample_fields", ("ngr+", "grf")),
        ("ecc_reorder", ("bma", "ecc")),
    ])
    def test_programming_error_in_sampler_propagates(self, data_dir, tmp_path, monkeypatch, where, combo):
        import enspost.experiment as exp

        def broken(*args, **kw):
            raise TypeError("contrived programming error")

        monkeypatch.setattr(exp, where, broken)
        with pytest.raises(TypeError, match="contrived programming error"):
            run_experiment(tiny_config(data_dir, tmp_path / "t", combos=(combo,)))

    def test_numerical_sampling_failure_costs_one_combo_day(self, data_dir, tmp_path, monkeypatch):
        import enspost.experiment as exp

        real = exp.sample_fields
        calls = []

        def flaky(*args, **kw):
            calls.append(None)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("contrived factorization failure")
            return real(*args, **kw)

        monkeypatch.setattr(exp, "sample_fields", flaky)
        out = tmp_path / "s"
        result = run_experiment(tiny_config(data_dir, out, combos=(("ngr+", "none"), ("ngr+", "grf"))))
        days = [w.target_day for w in rolling_windows(load_data_dir(data_dir), 14)]
        bad_day = days[1]
        assert result.summary["failed_days"] == {"ngr+/grf": [bad_day]}
        assert not (out / "params" / "ngr+_grf" / f"{bad_day}.json").exists()
        assert sorted(p.stem for p in (out / "params" / "ngr+_grf").iterdir()) == [d for d in days if d != bad_day]
        assert [r.date for r in result.table.rows if r.method == "ngr+" and r.score == "crps"] == days
        assert result.n_warnings >= 1

    def test_histograms_and_reliability_on_gapped_data(self, tmp_path):
        data = generate(default_spec(6, n_stations=8, n_days=18, n_members=5))
        fc = np.array(data.forecasts)
        obs = np.array(data.observations)
        fc[14, 1, 0] = np.nan
        fc[15:, 3, [1, 2]] = np.nan
        fc[16, 4, 1:] = np.nan  # one member left
        fc[17, 6, :] = np.nan  # no member
        obs[15, 2] = np.nan
        obs[17, 0] = np.nan
        data = EnsembleDataset(data.stations, data.days, fc, obs)
        root = tmp_path / "data"
        root.mkdir()
        save_dataset(data, root / "stations.csv", root / "forecasts.csv", root / "observations.csv")
        out = tmp_path / "out"
        cfg = tiny_config(root, out, combos=(("ngr+", "none"), ("bma", "ecc")))
        result = run_experiment(cfg)
        M = data.members
        windows = rolling_windows(data, cfg.window_length)
        targets = [data.day_index(w.target_day) for w in windows]
        n_members = np.isfinite(fc[targets]).sum(axis=2)
        has_obs = np.isfinite(obs[targets])

        def counts(name):
            with open(out / name) as fh:
                return [int(line.split(",")[1]) for line in fh.read().splitlines()[1:]]

        assert sum(counts("pit_ngr+.csv")) == sum(counts("pit_bma.csv")) == int((has_obs & (n_members > 0)).sum())
        ranked = has_obs & (n_members >= 2)
        assert len(counts("rank_raw.csv")) == M + 1
        assert sum(counts("rank_raw.csv")) == int(ranked.sum())
        for method in ("ngr+", "bma"):
            pits = [[] for _ in range(data.n_stations)]
            prev = None
            for window, t in zip(windows, targets):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    params = prev = METHODS[method].fit(data, window, prev)
                rows = np.isfinite(obs[t]) & np.isfinite(fc[t]).any(axis=1)
                ids = np.array(data.stations.ids)[rows]
                law = METHODS[method].predictor(params, data.stations)(ids, fc[t][rows])
                for s, v in zip(np.flatnonzero(rows), pit(law, obs[t][rows])):
                    pits[s].append(v)
            ri = np.mean([reliability_index(pit_histogram(v, M + 1)) for v in pits if v])
            assert result.summary["methods"][method]["ri"] == ri
        ranks = [[] for _ in range(data.n_stations)]
        for window, t, ok in zip(windows, targets, ranked):
            rng = seeded_rng(cfg.seed, f"verify/rank/{window.target_day}")
            for s in np.flatnonzero(ok):
                members = fc[t, s][np.isfinite(fc[t, s])]
                ranks[s].append(verification_rank(members, obs[t, s], rng))
        ri = np.mean([reliability_index(rank_histogram(v, M + 1)) for v in ranks if v])
        assert result.summary["methods"]["raw"]["ri"] == ri

    def test_captured_warnings_logged_once_per_message(self, data_dir, tmp_path, monkeypatch, caplog):
        import enspost.experiment as exp

        real = exp.bma_mod.fit_bma
        days = [w.target_day for w in rolling_windows(load_data_dir(data_dir), 14)]

        def noisy(data, window, **kw):
            warnings.warn("contrived daily warning")
            if window.target_day == days[2]:
                warnings.warn("contrived one-off warning", RuntimeWarning)
            return real(data, window, **kw)

        monkeypatch.setattr(exp.bma_mod, "fit_bma", noisy)
        with caplog.at_level(logging.INFO, logger="enspost.experiment"):
            result = run_experiment(tiny_config(data_dir, tmp_path / "w", combos=(("bma", "none"),)))
        logged = [r for r in caplog.records if r.name == "enspost.experiment"]
        assert all(r.levelno == logging.INFO for r in logged)
        messages = [r.getMessage() for r in logged]
        assert messages.count(f"{len(days)} x UserWarning: contrived daily warning") == 1
        assert messages.count("1 x RuntimeWarning: contrived one-off warning") == 1
        assert len([m for m in messages if "contrived" in m]) == 2
        # every captured warning is in exactly one line's count
        assert sum(int(m.split(" x ", 1)[0]) for m in messages) == result.n_warnings

    def test_bma_scores_equal_per_station_quantiles(self, tmp_path):
        # blanked members give mixtures of 3, 4 and 5 components on one day,
        # so the day's quantile table spans several component counts
        data = generate(default_spec(5, n_stations=8, n_days=18, n_members=5))
        fc = np.array(data.forecasts)
        fc[14:, 1, 0] = np.nan
        fc[14:, 2, [1, 3]] = np.nan
        data = EnsembleDataset(data.stations, data.days, fc, data.observations)
        root = tmp_path / "data"
        root.mkdir()
        save_dataset(data, root / "stations.csv", root / "forecasts.csv", root / "observations.csv")
        cfg = tiny_config(root, tmp_path / "out", combos=(("bma", "none"), ("bma", "ecc")))
        result = run_experiment(cfg)
        scores = {(r.date, r.method, r.score): r.value for r in result.table.rows}
        alpha = 0.5 * (1.0 - cfg.level)
        windows = rolling_windows(data, cfg.window_length)
        assert len(windows) == 4
        for window in windows:
            day, t = window.target_day, data.day_index(window.target_day)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                params = fit_bma(data, window)
            dists = [predict_bma(params, fc[t, s]) for s in range(data.n_stations)]
            y = data.observations[t]
            lo = np.array([d.quantile(alpha) for d in dists])
            hi = np.array([d.quantile(1.0 - alpha) for d in dists])
            mae, _ = mae_rmse([d.median() for d in dists], [d.mean for d in dists], y)
            assert scores[(day, "bma", "mae")] == mae
            assert scores[(day, "bma", "pi_width")] == float(np.mean(hi - lo))
            assert scores[(day, "bma", "pi_coverage")] == float(np.mean((lo <= y) & (y <= hi)))
            tie_rng = seeded_rng(cfg.seed, f"ties/{day}")
            perms = []
            for row in fc[t]:
                ok = np.isfinite(row)
                perms.append(rank_permutation(np.where(ok, row, row[ok].mean()), tie_rng))
            q = np.vstack([ecc_quantiles(d, data.members) for d in dists])
            fields = ecc_reorder(q, np.vstack(perms), data.stations.ids).fields
            assert scores[(day, "bma/ecc", "ds")] == ds_from_sample(fields, y)

    def test_grf_day_with_missing_observation_is_scored(self, tmp_path):
        data = generate(default_spec(3, n_stations=8, n_days=18, n_members=5))
        obs = np.array(data.observations)
        target = data.days[15]
        obs[15, 2] = np.nan  # the variogram still uses every station's training errors
        data = EnsembleDataset(data.stations, data.days, data.forecasts, obs)
        root = tmp_path / "data"
        root.mkdir()
        save_dataset(data, root / "stations.csv", root / "forecasts.csv", root / "observations.csv")
        result = run_experiment(tiny_config(root, tmp_path / "out", combos=(("ngr+", "grf"),)))
        assert result.summary["failed_days"] == {}
        scored = {r.date for r in result.table.rows if r.method == "ngr+/grf" and r.score == "es"}
        assert target in scored

    def test_window_longer_than_dataset_rejected(self, data_dir, tmp_path):
        with pytest.raises(ValueError, match="target day"):
            run_experiment(tiny_config(data_dir, tmp_path / "w", window_length=30))


def test_ngrc_fit_standardization_and_prediction_share_one_imputation():
    """A row with 3 of 8 biased members missing gets one mean and one variance.

    The ngrc fit, the grf error standardization and the prediction all see
    the row through the same imputation, so the errors that fit the
    correlation model are the errors of the predictive law.
    """
    data = generate(default_spec(4, n_stations=20, n_days=26, n_members=8, member_bias_sd=1.0))
    window = TrainingWindow(data.days[25], data.days[:25])
    k, s = 24, 3  # last training day, one station
    fc = np.array(data.forecasts)
    fc[k, s, [1, 4, 6]] = np.nan
    data = EnsembleDataset(data.stations, data.days, fc, data.observations)
    params = fit_ngr_c(data, window)
    c = params.station_ids.index(data.stations.ids[s])

    _, F, S2, s_rows, t_rows = _training_rows(data, window)
    (row,) = np.flatnonzero((s_rows == s) & (t_rows == k))
    fit_mean = params.ybar[c] + (F[row] - params.fbar[c]) @ params.b
    fit_var = params.c * params.xi2[c] + params.d * S2[row]

    mu, sigma = _moment_panels("ngrc", params, data, window)
    pred = predict_ngr_c(params, c, fc[k, s])
    assert mu[k, s] == pred.mean == fit_mean
    assert sigma[k, s] == pred.sd
    assert pred.variance == fit_var
    F = data.training_panels(window)[0]
    rows = [params.station_ids.index(sid) for sid in data.stations.ids]
    laws = [[predict_ngr_c(params, rows[j], F[t, j]) for j in range(data.n_stations)] for t in range(len(window))]
    assert mu.tolist() == [[law.mean for law in row] for row in laws]
    assert sigma.tolist() == [[law.sd for law in row] for row in laws]


@pytest.mark.parametrize("method", ["ngr+", "ngrc"])
def test_standardization_moments_are_each_rows_predictive_law(method):
    """The grf error standardization takes every training row's own predictive law, bit for bit.

    A 3-D `@` over the window panel gives means that differ in the last bits
    from the prediction's per-row dot on about 40% of the rows.
    """
    data = generate(default_spec(1000))
    mismatched = 0
    for window in rolling_windows(data, 25)[:4]:
        params = METHODS[method].fit(data, window, None)
        mu, sigma = _moment_panels(method, params, data, window)
        F = data.training_panels(window)[0]
        for t in range(len(window)):
            for j, sid in enumerate(data.stations.ids):
                if method == "ngr+":
                    law = predict_ngr_plus(params, F[t, j])
                else:
                    law = predict_ngr_c(params, params.station_ids.index(sid), F[t, j])
                mismatched += int(mu[t, j] != law.mean) + int(sigma[t, j] != law.sd)
    assert mismatched == 0


class TestParamsFile:
    """write_params stores each params record field by field; read_params rebuilds it through its constructor."""

    @pytest.fixture(scope="class")
    def season(self, tmp_path_factory):
        """A dataset whose first station id ends in NUL, on disk for the CLI, and its last window."""
        data = generate(default_spec(3, n_stations=8, n_days=18, n_members=5))
        stations = StationSet(Station(sid, s.x, s.y) for sid, s in zip(["S1\0", *data.stations.ids[1:]], data.stations))
        data = EnsembleDataset(stations, data.days, data.forecasts, data.observations)
        root = tmp_path_factory.mktemp("params-data")
        save_dataset(data, *data_paths(root))
        return data, root, rolling_windows(data, 14)[-1]

    @staticmethod
    def write(season, path, method, mode="none"):
        data, _, window = season
        params = METHODS[method].fit(data, window, None)
        spatial = fit_spatial(mode, method, params, data, window)
        write_params(path, method, params, window, spatial)
        return params, spatial

    @staticmethod
    def assert_same_bits(back, kept):
        if dataclasses.is_dataclass(kept):
            assert type(back) is type(kept)
            for f in dataclasses.fields(kept):
                TestParamsFile.assert_same_bits(getattr(back, f.name), getattr(kept, f.name))
        elif isinstance(kept, tuple):
            assert len(back) == len(kept)
            for b, k in zip(back, kept):
                TestParamsFile.assert_same_bits(b, k)
        elif isinstance(kept, np.ndarray):
            assert back.shape == kept.shape and back.tobytes() == kept.tobytes()
        elif isinstance(kept, (float, np.floating)):
            assert np.float64(back).tobytes() == np.float64(kept).tobytes()
        else:
            assert back == kept

    @pytest.mark.parametrize("method,mode", [("ngr+", "none"), ("ngrc", "none"), ("bma", "none"),
                                             ("ngr+", "grf"), ("bma", "spatial-bma")])
    def test_round_trip_keeps_every_bit(self, season, tmp_path, method, mode):
        params, spatial = self.write(season, tmp_path / "p.json", method, mode)
        doc, got_method, back, back_spatial = read_params(tmp_path / "p.json", mode)
        assert (got_method, doc["target_day"], tuple(doc["window_days"])) == (
            method, season[2].target_day, season[2].training_days)
        self.assert_same_bits(back, params)
        self.assert_same_bits(back_spatial, spatial)
        if method == "ngrc":
            assert back.station_ids[0] == "S1\0"

    @pytest.mark.parametrize("method", ["ngr+", "ngrc"])
    def test_ngr_files_carry_the_fit_diagnostics(self, season, tmp_path, method):
        params, _ = self.write(season, tmp_path / "p.json", method)
        doc = json.loads((tmp_path / "p.json").read_text())
        assert doc["converged"] == params.converged
        assert doc["grad_norm"] == params.grad_norm and doc["objective"] == params.objective

    @pytest.mark.parametrize("method,mode,path,name", [
        ("ngrc", "none", (), "xi2"),
        ("ngr+", "grf", ("variogram",), "range_km"),
        ("bma", "spatial-bma", ("member_variograms", 2), "degenerate"),
    ])
    def test_missing_field_is_named(self, season, tmp_path, capsys, method, mode, path, name):
        params_path, out = tmp_path / "p.json", tmp_path / "pred.csv"
        self.write(season, params_path, method, mode)
        doc = json.loads(params_path.read_text())
        entry = doc
        for key in path:
            entry = entry[key]
        del entry[name]
        params_path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=name):
            read_params(params_path, mode)
        if not path:
            assert main(["predict", "--data", str(season[1]), "--params", str(params_path), "--out", str(out)]) == 1
            assert name in capsys.readouterr().err and not out.exists()

    def test_non_numeric_field_is_rejected(self, season, tmp_path):
        path = tmp_path / "p.json"
        self.write(season, path, "ngr+")
        doc = json.loads(path.read_text())
        doc["a"] = "x"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="float"):
            read_params(path)
