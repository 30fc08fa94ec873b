"""The README's library example runs as written."""

import os
import re
import shutil

from conftest import FIXTURES


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
              encoding="utf-8") as f:
        blocks = re.findall(r"^```python\n(.*?)^```$", f.read(), re.M | re.S)
    assert len(blocks) == 1
    # the example reads asset.csv and fx.csv from the working directory
    shutil.copy(os.path.join(FIXTURES, "sp500_synthetic.csv"), tmp_path / "asset.csv")
    shutil.copy(os.path.join(FIXTURES, "eur_usd_synthetic.csv"), tmp_path / "fx.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], "README.md", "exec"), {})
    # one summary, one price, six batch lines and one sequential price
    assert len(capsys.readouterr().out.splitlines()) == 9
