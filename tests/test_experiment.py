import json
import warnings

import numpy as np
import pytest

from enspost.bma import fit_bma, predict_bma
from enspost.core import EnsembleDataset, seeded_rng
from enspost.ecc import ecc_quantiles, ecc_reorder, rank_permutation
from enspost.experiment import (
    ExperimentConfig,
    combo_label,
    parse_combos,
    parse_experiment_config,
    run_experiment,
    validate_combo,
)
from enspost.ingest import rolling_windows, save_dataset
from enspost.synth import default_spec, generate
from enspost.verify import ScoreTable, ds_from_sample, mae_rmse


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
        n_pair_samples=200,
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
