"""The README's library example and single-day CLI example run as written, its quick-start config
asks for every combo, and its key lists are the parsers'."""

import dataclasses
import re
import shlex
from pathlib import Path

from enspost.cli import load_fields_csv, main
from enspost.experiment import _CONFIG_KEYS, ALL_COMBOS, ExperimentConfig, parse_experiment_config
from enspost.ingest import cast_fields, read_key_values, save_dataset
from enspost.synth import TRUTHS, SynthSpec, default_spec, generate
from enspost.verify import ScoreTable

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)


def plain_blocks(text):
    return re.findall(r"^```\n(.*?)^```", text, flags=re.S | re.M)


def enspost_commands(block):
    """The arguments of each `enspost ...` line of a shell block, continuation lines joined."""
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines() if line.startswith("enspost ")]


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    (block,) = python_blocks(README.read_text())
    root = tmp_path / "runs" / "data"
    root.mkdir(parents=True)
    data = generate(default_spec(2, n_stations=6, n_days=27, n_members=4))
    save_dataset(data, root / "stations.csv", root / "forecasts.csv", root / "observations.csv")
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(block, str(README), "exec"), scope)
    assert scope["window"].target_day == data.days[25]
    one, day = capsys.readouterr().out.splitlines()
    mean, sd, q90 = (float(v) for v in one.split())
    assert sd > 0 and q90 > mean
    assert day == f"True ({data.n_stations}, 2)"


def test_single_day_cli_example_runs(tmp_path, monkeypatch):
    blocks = plain_blocks(README.read_text())
    (spec,) = [b for b in blocks if b.startswith("recipe =")]
    (synth,) = [argv for b in blocks for argv in enspost_commands(b) if argv[0] == "synth"]
    (single_day,) = [enspost_commands(b) for b in blocks if b.startswith("enspost fit")]
    assert [argv[0] for argv in single_day] == ["fit", "predict", "sample", "verify"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "examples.spec").write_text(spec)
    assert main(synth) == 0
    for argv in single_day:
        assert main(argv) == 0, argv
    runs = tmp_path / "runs"
    assert len((runs / "pred.csv").read_text().splitlines()) == 41
    assert load_fields_csv(runs / "fields.csv").fields.shape == (1000, 40)
    scores = ScoreTable.read_csv(runs / "scores" / "verify_scores.csv")
    assert {r.score for r in scores.rows} == {"es", "ee", "ds"}


def test_quick_start_config_asks_for_every_combo(tmp_path):
    blocks = plain_blocks(README.read_text())
    (config,) = [b for b in blocks if b.startswith("data =")]
    (experiment,) = [argv for b in blocks for argv in enspost_commands(b) if argv[0] == "experiment"]
    path = tmp_path / experiment[experiment.index("--config") + 1]
    path.write_text(config)
    cfg = parse_experiment_config(read_key_values(path))
    assert cfg.combos == ALL_COMBOS
    assert cfg.thresholds == (14.0, 18.0, 22.0)


def key_list(text, lead):
    """The items of the bullet list under the paragraph that starts with lead, continuation lines joined."""
    items = []
    for line in text[text.index(lead):].splitlines()[1:]:
        if line.startswith(("- ", "  - ")):
            items.append(line)
        elif items and line.startswith("  "):
            items[-1] += " " + line.strip()
        elif items or line:
            break
    return items


def listed_keys(items):
    """The backticked keys before the colon of each top-level item."""
    return {key for item in items if item.startswith("- ") for key in re.findall(r"`(\w+)`", item.split(":")[0])}


def test_spec_keys_are_the_parsers():
    items = key_list(README.read_text(), "Synthetic data comes from")
    spec_fields = {f.name for f in dataclasses.fields(SynthSpec)} - {"truth"}
    assert listed_keys(items) == spec_fields | {"recipe", "ratio", "truth"}
    families = {}
    for item in items:
        if item.startswith("  - "):
            name, _, params = item[4:].partition(":")
            families[name.strip("`")] = dict(re.findall(r"`(\w+)(?: = ([^`]*))?`", params))
    assert set(families) == set(TRUTHS)
    for kind, params in families.items():
        fields = {f.name: f.default for f in dataclasses.fields(TRUTHS[kind])}
        assert set(params) == set(fields), kind
        documented = {key: text for key, text in params.items() if text}  # a key without "= value" is required
        assert cast_fields(TRUTHS[kind], documented) == {key: fields[key] for key in documented}, kind
        assert all(fields[key] is dataclasses.MISSING for key in set(params) - set(documented)), kind


def test_config_keys_are_the_parsers():
    items = key_list(README.read_text(), "Experiment configs use")
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert listed_keys(items) == set(_CONFIG_KEYS) | (fields - set(_CONFIG_KEYS.values()))
