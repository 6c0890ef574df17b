"""The README's library example runs as written."""

import re
from pathlib import Path

from enspost.ingest import save_dataset
from enspost.synth import default_spec, generate

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)


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
